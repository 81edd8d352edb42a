//! SIGINT/SIGTERM handling and the accept-loop wake, without a signal
//! crate.
//!
//! The daemon blocks in `accept()`; nothing polls the shutdown flag. So a
//! shutdown — a signal, or [`request_shutdown`] from the `/v1/shutdown`
//! endpoint — has to *wake* the accept loop as well as flip the flag:
//!
//! 1. the flag flips (`false → true` happens once per lifecycle);
//! 2. whoever flipped it posts one byte on a process-wide wake channel (a
//!    socket pair — the classic self-pipe);
//! 3. the running [`Server`]'s [`Waker`] thread, blocked reading that
//!    channel, makes one throw-away loopback connection to the listener;
//! 4. `accept()` returns, the loop re-checks the flag and starts the
//!    drain.
//!
//! The signal handler stays async-signal-safe because it does exactly two
//! things, both on the POSIX safe list: an atomic swap and a `write(2)` of
//! one byte. It cannot `connect()` portably, take a lock, or notify a
//! condvar — which is why step 3 lives on an ordinary thread. The channel
//! is created once and never closed: a handler racing a `close` could
//! otherwise write its byte into whatever file reused the descriptor (the
//! WAL, say).
//!
//! A [`Waker`] belongs to one `Server::run` and is joined before the drain,
//! so one process can run several serve lifecycles in a row
//! ([`reset_for_tests`] re-arms the flag between them). Bytes left over
//! from an earlier lifecycle are harmless: a waker that wakes with the
//! flag still clear just blocks again.
//!
//! [`Server`]: crate::server::Server

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set by the first SIGINT or SIGTERM, or by [`request_shutdown`].
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// SIGINT and SIGTERM numbers (POSIX-stable on the platforms we build).
pub const SIGINT: i32 = 2;
/// See [`SIGINT`].
pub const SIGTERM: i32 = 15;

/// The wake channel on unix: a socket pair whose write end the signal
/// handler can reach through a plain atomic.
#[cfg(unix)]
mod wake {
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicI32, Ordering};
    use std::sync::OnceLock;

    /// (read end, write end), alive for the rest of the process.
    static CHANNEL: OnceLock<Option<(UnixStream, UnixStream)>> = OnceLock::new();
    /// The write end's descriptor, mirrored where a signal handler may
    /// look (`OnceLock` is not async-signal-safe). -1 until [`channel`] ran.
    pub(super) static WRITE_FD: AtomicI32 = AtomicI32::new(-1);

    fn channel() -> Option<&'static (UnixStream, UnixStream)> {
        CHANNEL
            .get_or_init(|| {
                let pair = UnixStream::pair().ok()?;
                WRITE_FD.store(pair.1.as_raw_fd(), Ordering::SeqCst);
                Some(pair)
            })
            .as_ref()
    }

    /// Create the channel if it does not exist yet. False when the OS
    /// refused the socket pair.
    pub(super) fn ensure() -> bool {
        channel().is_some()
    }

    /// Post one wake from ordinary (non-handler) code.
    pub(super) fn post() {
        if let Some((_, tx)) = channel() {
            let _ = (&*tx).write_all(&[1]);
        }
    }

    /// Block until a wake is posted. False when the channel is unusable
    /// (the caller must not spin on it).
    pub(super) fn wait() -> bool {
        let Some((rx, _)) = channel() else {
            return false;
        };
        // `read_exact` retries EINTR, which a signal landing on this very
        // thread produces.
        (&*rx).read_exact(&mut [0u8; 1]).is_ok()
    }
}

/// The wake channel where there are no signals: a counting semaphore.
#[cfg(not(unix))]
mod wake {
    use std::sync::{Condvar, Mutex};

    static PENDING: Mutex<u32> = Mutex::new(0);
    static POSTED: Condvar = Condvar::new();

    pub(super) fn ensure() -> bool {
        true
    }

    pub(super) fn post() {
        *PENDING.lock().unwrap_or_else(|e| e.into_inner()) += 1;
        POSTED.notify_one();
    }

    pub(super) fn wait() -> bool {
        let mut pending = PENDING.lock().unwrap_or_else(|e| e.into_inner());
        while *pending == 0 {
            pending = POSTED.wait(pending).unwrap_or_else(|e| e.into_inner());
        }
        *pending -= 1;
        true
    }
}

#[cfg(unix)]
extern "C" fn on_signal(_sig: i32) {
    extern "C" {
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }
    // Async-signal-safe: one atomic swap, one atomic load, one write(2).
    // Only the signal that flips the flag posts, so a burst of signals
    // cannot fill the channel and block the handler.
    if !SHUTDOWN.swap(true, Ordering::SeqCst) {
        let fd = wake::WRITE_FD.load(Ordering::SeqCst);
        if fd >= 0 {
            let byte = 1u8;
            // SAFETY: `fd` is the write end of the wake channel, which is
            // never closed; `byte` outlives the call. A failed write is
            // ignored — there is nothing a handler could do about it.
            unsafe {
                write(fd, &byte, 1);
            }
        }
    }
}

/// Install the shutdown handler for SIGINT and SIGTERM. Installing twice
/// is harmless (the same handler again).
#[cfg(unix)]
pub fn install_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // The channel must exist before a handler can look for it.
    wake::ensure();
    // SAFETY: registering an async-signal-safe handler (see `on_signal`).
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// No-op off unix; `/v1/shutdown` remains the way to stop the daemon.
#[cfg(not(unix))]
pub fn install_handlers() {}

/// Whether a shutdown has been requested.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Request shutdown from inside the process (the `/v1/shutdown` endpoint
/// funnels through the same flag and the same wake the signals use).
pub fn request_shutdown() {
    if !SHUTDOWN.swap(true, Ordering::SeqCst) {
        wake::post();
    }
}

/// One running server's wake: a thread parked on the wake channel that
/// pokes the server's listener once shutdown is requested.
#[derive(Debug)]
pub struct Waker {
    thread: std::thread::JoinHandle<()>,
}

impl Waker {
    /// Park a waker for the listener bound at `listener`.
    pub fn spawn(listener: SocketAddr) -> std::io::Result<Waker> {
        if !wake::ensure() {
            return Err(std::io::Error::other("cannot create the wake channel"));
        }
        let target = loopback_of(listener);
        let thread = std::thread::Builder::new()
            .name("serve-waker".to_owned())
            .spawn(move || loop {
                // Flag first, then block: a request that landed before
                // this thread existed is seen here, one that lands later
                // posts a byte `wait` will return for.
                if shutdown_requested() {
                    if let Err(e) = TcpStream::connect_timeout(&target, Duration::from_secs(1)) {
                        eprintln!("toreador serve: cannot wake the accept loop at {target}: {e}");
                    }
                    return;
                }
                if !wake::wait() {
                    eprintln!(
                        "toreador serve: wake channel failed; signals will not stop the daemon"
                    );
                    return;
                }
            })?;
        Ok(Waker { thread })
    }

    /// Wait for the waker to finish. Call once shutdown has been
    /// requested — it returns as soon as the wake connection is made.
    pub fn join(self) {
        if self.thread.join().is_err() {
            eprintln!("toreador serve: waker thread panicked");
        }
    }
}

/// Where to connect to reach a listener bound at `addr`: the address
/// itself, or loopback when it is the wildcard.
fn loopback_of(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

/// Test-only: reset the flag so one process can run several serve
/// lifecycles.
#[doc(hidden)]
pub fn reset_for_tests() {
    SHUTDOWN.store(false, Ordering::SeqCst);
}

/// Test-only: serialise tests that touch the process-global shutdown flag
/// (cargo runs tests of one binary concurrently).
#[doc(hidden)]
pub fn test_serial_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Send `sig` to `pid`. Exposed for integration tests that need to kill a
/// real daemon process with a real signal.
#[doc(hidden)]
#[cfg(unix)]
pub fn send_signal(pid: u32, sig: i32) -> bool {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    // Safety: plain syscall wrapper, no memory involved.
    unsafe { kill(pid as i32, sig) == 0 }
}

#[doc(hidden)]
#[cfg(not(unix))]
pub fn send_signal(_pid: u32, _sig: i32) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn flag_flips_and_resets() {
        let _serial = test_serial_lock();
        reset_for_tests();
        assert!(!shutdown_requested());
        request_shutdown();
        assert!(shutdown_requested());
        reset_for_tests();
        assert!(!shutdown_requested());
    }

    #[cfg(unix)]
    #[test]
    fn real_signal_reaches_the_handler() {
        let _serial = test_serial_lock();
        install_handlers();
        reset_for_tests();
        assert!(send_signal(std::process::id(), SIGTERM));
        // Delivery is async; give the kernel a moment.
        for _ in 0..100 {
            if shutdown_requested() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(shutdown_requested());
        reset_for_tests();
    }

    /// The flag is checked before the waker blocks, so a request that beat
    /// it still wakes the listener. (A parked waker woken by a later
    /// request or a real signal is covered by the server's idle-daemon
    /// test.)
    #[test]
    fn a_waker_spawned_after_the_request_still_wakes() {
        let _serial = test_serial_lock();
        reset_for_tests();
        request_shutdown();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let waker = Waker::spawn(listener.local_addr().unwrap()).unwrap();
        listener.accept().expect("accept woke");
        waker.join();
        reset_for_tests();
    }

    #[test]
    fn wildcard_listeners_are_woken_through_loopback() {
        let v4: SocketAddr = "0.0.0.0:7411".parse().unwrap();
        assert_eq!(loopback_of(v4), "127.0.0.1:7411".parse().unwrap());
        let v6: SocketAddr = "[::]:7411".parse().unwrap();
        assert_eq!(loopback_of(v6), "[::1]:7411".parse().unwrap());
        let fixed: SocketAddr = "127.0.0.1:9".parse().unwrap();
        assert_eq!(loopback_of(fixed), fixed);
    }
}

//! Daemon lifecycle against the real `toreador` binary: spawn
//! `toreador serve`, drive it over the wire, kill the process with a real
//! signal, and assert the graceful-shutdown contract — exit code 0, every
//! committed attempt intact in the store, the directory lock released.
//!
//! The daemon blocks in `accept()`, so the wake is tested too: an idle
//! daemon nobody ever connected to must still notice a signal, and a
//! request that is mid-flight when the signal lands must still be answered.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use toreador_labs::prelude::SessionStore;
use toreador_serve::prelude::*;
use toreador_serve::signal;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("toreador-servekill-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Spawn `toreador serve` on an OS-assigned port and block until it
/// prints its readiness line. Returns the child and the bound address.
fn spawn_serve(dir: &Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_toreador"))
        .args([
            "serve",
            "--store",
            dir.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn toreador serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let ready = lines
        .next()
        .expect("daemon printed a readiness line")
        .expect("readable stdout");
    let addr = ready
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected readiness line {ready:?}"))
        .to_owned();
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

fn open_and_attempt(addr: &str, trainee: &str, attempts: usize) {
    let client = Client::new(addr);
    client
        .open_session(&OpenSessionRequest {
            trainee: trainee.to_owned(),
            quota: None,
            seed: Some(5),
        })
        .expect("open session");
    for _ in 0..attempts {
        let reply = client
            .attempt(&AttemptRequest {
                trainee: trainee.to_owned(),
                challenge: "ecomm-revenue".to_owned(),
                choices: vec!["full".into(), "batch".into()],
                rows: Some(200),
            })
            .expect("attempt");
        assert!(reply.score > 0.0);
    }
}

/// The graceful-shutdown contract under a real `kill(2)`: the daemon
/// drains, autosaves, exits 0, and the next process can open the store.
fn kill_drains_cleanly(sig: i32, tag: &str) {
    let dir = tmp_dir(tag);
    let (mut child, addr) = spawn_serve(&dir);
    open_and_attempt(&addr, "ada", 2);

    assert!(
        signal::send_signal(child.id(), sig),
        "signal {sig} delivered"
    );
    let status = child.wait().expect("daemon reaped");
    assert_eq!(status.code(), Some(0), "graceful shutdown exits 0");

    // The store reopens (the dead daemon's lock is gone) with every
    // committed attempt, and shutdown left a compacted snapshot.
    let store = SessionStore::open(&dir).expect("lock released on exit");
    let state = store.trainee("ada").expect("trainee survived");
    assert_eq!(state.runs.len(), 2);
    assert!(state.scores.len() == 2, "scores committed with the runs");
    assert!(store.stats().snapshot_lsn > 0, "shutdown checkpointed");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sigterm_drains_and_exits_zero() {
    kill_drains_cleanly(signal::SIGTERM, "term");
}

#[test]
fn sigint_drains_and_exits_zero() {
    kill_drains_cleanly(signal::SIGINT, "int");
}

/// Reap the daemon, failing (and killing it) if it is still alive after
/// `limit` — a daemon that missed its wake would sit in `accept()` forever.
fn wait_within(child: &mut Child, limit: Duration) -> ExitStatus {
    let started = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if started.elapsed() >= limit {
            let _ = child.kill();
            panic!("daemon still running {limit:?} after being told to stop");
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// An idle daemon — no connection ever made — is parked in `accept()` with
/// nothing but the signal's wake to get it out.
#[test]
fn idle_daemon_exits_zero_on_sigterm_within_a_second() {
    let dir = tmp_dir("idle-term");
    let (mut child, _addr) = spawn_serve(&dir);
    // Let the accept loop park before the signal lands.
    std::thread::sleep(Duration::from_millis(100));
    assert!(signal::send_signal(child.id(), signal::SIGTERM));
    let status = wait_within(&mut child, Duration::from_secs(1));
    assert_eq!(status.code(), Some(0), "an idle daemon drains cleanly");
    SessionStore::open(&dir).expect("lock released on exit");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `POST /v1/shutdown` is the only request the daemon ever sees; its own
/// handler thread has to wake the accept loop it was spawned from.
#[test]
fn idle_daemon_exits_zero_on_shutdown_request_within_a_second() {
    let dir = tmp_dir("idle-post");
    let (mut child, addr) = spawn_serve(&dir);
    std::thread::sleep(Duration::from_millis(100));
    Client::new(&addr)
        .shutdown()
        .expect("shutdown acknowledged");
    let status = wait_within(&mut child, Duration::from_secs(1));
    assert_eq!(status.code(), Some(0));
    SessionStore::open(&dir).expect("lock released on exit");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Requests in flight when SIGTERM lands are still answered, and an
/// answered attempt is in the store the next process opens. A half-sent
/// request pins one connection thread deterministically; an attempt races
/// the drain's cancel, so it may come back acknowledged (then it must be
/// durable) or classified as shutting down (then it must be absent) — but
/// never as a dropped connection.
#[test]
fn requests_in_flight_at_sigterm_are_answered_and_acked_runs_survive() {
    let dir = tmp_dir("inflight");
    let (mut child, addr) = spawn_serve(&dir);
    open_and_attempt(&addr, "ada", 1);

    let mut slow = TcpStream::connect(&addr).expect("connect");
    slow.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    let attempt = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            Client::new(&addr).attempt(&AttemptRequest {
                trainee: "ada".to_owned(),
                challenge: "ecomm-revenue".to_owned(),
                choices: vec!["full".into(), "batch".into()],
                rows: Some(10_000),
            })
        })
    };
    // Signal once the daemon is executing the attempt (or already has).
    let client = Client::new(&addr);
    let started = Instant::now();
    loop {
        let status = client.status().expect("status");
        if status.inflight > 0 || status.completed > 1 || started.elapsed() > Duration::from_secs(5)
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(signal::send_signal(child.id(), signal::SIGTERM));

    let reply = attempt.join().unwrap();
    slow.write_all(b"\r\n").unwrap();
    let mut answer = String::new();
    slow.read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 200 OK"), "{answer}");
    let status = wait_within(&mut child, Duration::from_secs(5));
    assert_eq!(status.code(), Some(0), "graceful shutdown exits 0");

    let store = SessionStore::open(&dir).expect("lock released on exit");
    let state = store.trainee("ada").expect("trainee survived");
    match reply {
        Ok(reply) => {
            assert!(
                state.runs.contains_key(&reply.run_id),
                "acked run is durable"
            );
            assert!(state.scores.contains_key(&reply.run_id));
        }
        Err(e) => {
            assert!(!e.transport, "in-flight request was dropped: {e}");
            assert_eq!(e.class, ErrorClass::ShuttingDown, "{e}");
            assert_eq!(state.runs.len(), 1, "a refused attempt leaves no run");
        }
    }
    assert_eq!(state.scores.len(), state.runs.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Two processes cannot share one store directory: the CLI refuses with
/// an error naming the holding pid, and serve refuses to even bind.
#[test]
fn second_process_is_locked_out_and_told_who_holds_the_store() {
    let dir = tmp_dir("locked");
    let _holder = SessionStore::open(&dir).unwrap();

    for cmd in [&["sessions"][..], &["serve"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_toreador"))
            .args(cmd)
            .args(["--store", dir.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{cmd:?} must refuse a held store");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("already open by pid"),
            "{cmd:?} names the holder: {stderr}"
        );
        assert!(
            stderr.contains(&std::process::id().to_string()),
            "{cmd:?} reports the holding pid: {stderr}"
        );
    }
    drop(_holder);
    std::fs::remove_dir_all(&dir).unwrap();
}

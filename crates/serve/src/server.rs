//! The `toreador serve` daemon: accept loop, routing, graceful shutdown.
//!
//! Thread-per-request, blocking accept. Connections are one request each
//! (`Connection: close`), handled on a plain thread apiece — attempts
//! spend their time inside the engine, so thread-per-request is bounded by
//! the admission gate, not the socket count. The accept loop *blocks* in
//! `accept()`: nothing in the request path waits on a timer. A
//! SIGINT/SIGTERM or `POST /v1/shutdown` flips the shutdown flag and wakes
//! the loop through the [`signal::Waker`] (one throw-away loopback
//! connection — see [`crate::signal`] for why the handler itself cannot do
//! that); the loop re-checks the flag after every accept. Shutdown then
//! closes the gate, cancels in-flight attempts through their
//! [`RunControl`]s, waits — on condvars, each on the state it guards — for
//! attempts, permits and connection threads to finish, checkpoints the
//! store, and returns cleanly. A failed `accept()` is logged and survived;
//! the only way out of the loop is the flag, so the drain always runs.
//!
//! [`RunControl`]: toreador_dataflow::resilience::RunControl

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::admission::{Gate, Rejection};
use crate::http::{read_request, write_response, Request};
use crate::hub::{HubConfig, ServeError, SessionHub};
use crate::proto::{AttemptRequest, ErrorClass, OpenSessionRequest, StatusReply};
use crate::signal;

/// Daemon tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// `host:port`; port 0 lets the OS pick (the bound address is printed).
    pub addr: String,
    /// Service-wide concurrent attempt cap.
    pub max_inflight: usize,
    /// Admission queue depth behind the cap.
    pub max_queue: usize,
    /// How long an attempt may wait in the queue before a timeout
    /// rejection.
    pub queue_wait: Duration,
    /// Per-tenant limits and defaults.
    pub hub: HubConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7411".to_owned(),
            max_inflight: 4,
            max_queue: 64,
            queue_wait: Duration::from_secs(30),
            hub: HubConfig::default(),
        }
    }
}

/// Summary the daemon prints (and returns) after a clean shutdown.
#[derive(Debug, Clone, Copy)]
pub struct ServeSummary {
    pub requests: u64,
    pub completed: u64,
    pub cancelled_on_drain: usize,
}

/// Live connection threads. The drain waits here until the count is zero.
#[derive(Debug, Default)]
struct Connections {
    live: Mutex<usize>,
    /// Notified every time a connection thread finishes.
    finished: Condvar,
}

impl Connections {
    /// Count one connection in; the guard counts it out when dropped, even
    /// if the handler panics.
    fn enter(self: &Arc<Self>) -> ConnectionGuard {
        *self.live.lock().expect("connections poisoned") += 1;
        ConnectionGuard(Arc::clone(self))
    }

    /// Block until no connection thread is live.
    fn wait_idle(&self) {
        let mut live = self.live.lock().expect("connections poisoned");
        while *live > 0 {
            live = self.finished.wait(live).expect("connections poisoned");
        }
    }

    /// Block until a connection thread finishes or `limit` passes,
    /// whichever is first.
    fn wait_for_one(&self, limit: Duration) {
        let live = self.live.lock().expect("connections poisoned");
        let _woken = self
            .finished
            .wait_timeout(live, limit)
            .expect("connections poisoned");
    }
}

struct ConnectionGuard(Arc<Connections>);

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        let mut live = self.0.live.lock().unwrap_or_else(|e| e.into_inner());
        *live = live.saturating_sub(1);
        drop(live);
        self.0.finished.notify_all();
    }
}

/// How the accept loop treats a failed `accept()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AcceptFailure {
    /// The peer went away between SYN and accept, or a signal interrupted
    /// the call: the next accept is as likely to work as any.
    Transient,
    /// The process or host is out of descriptors or buffers: accepting
    /// again only helps once a connection has been released.
    Exhausted,
    /// Anything else. Still survived — an owned, bound listener has no
    /// state a later accept could not recover from.
    Unexpected,
}

impl AcceptFailure {
    fn of(e: &std::io::Error) -> AcceptFailure {
        use std::io::ErrorKind::{ConnectionAborted, ConnectionReset, Interrupted, OutOfMemory};
        match e.kind() {
            ConnectionAborted | ConnectionReset | Interrupted => AcceptFailure::Transient,
            OutOfMemory => AcceptFailure::Exhausted,
            // ENFILE and EMFILE, which std maps to no stable kind.
            _ if matches!(e.raw_os_error(), Some(23 | 24)) => AcceptFailure::Exhausted,
            _ => AcceptFailure::Unexpected,
        }
    }

    fn name(self) -> &'static str {
        match self {
            AcceptFailure::Transient => "transient",
            AcceptFailure::Exhausted => "resources-exhausted",
            AcceptFailure::Unexpected => "unexpected",
        }
    }
}

/// The daemon. `bind` + `run` is the whole lifecycle.
pub struct Server {
    listener: TcpListener,
    hub: Arc<SessionHub>,
    gate: Arc<Gate>,
    cfg: ServerConfig,
    connections: Arc<Connections>,
}

impl Server {
    /// Open the store (taking its directory lock — a second daemon on the
    /// same dir fails here with the holder's pid) and bind the socket.
    pub fn bind(store_dir: &Path, cfg: ServerConfig) -> Result<Server, String> {
        let hub = SessionHub::open(store_dir, cfg.hub.clone()).map_err(|e| e.message)?;
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
        Ok(Server {
            listener,
            hub: Arc::new(hub),
            gate: Arc::new(Gate::new(cfg.max_inflight, cfg.max_queue)),
            cfg,
            connections: Arc::new(Connections::default()),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> String {
        self.listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| self.cfg.addr.clone())
    }

    /// The hub (tests drive it directly).
    pub fn hub(&self) -> &Arc<SessionHub> {
        &self.hub
    }

    /// Serve until a shutdown signal arrives, then drain and return the
    /// summary. Prints `listening on ADDR` to stdout once ready (scripts
    /// block on that line).
    pub fn run(self) -> Result<ServeSummary, String> {
        signal::install_handlers();
        let bound = self
            .listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let waker =
            signal::Waker::spawn(bound).map_err(|e| format!("cannot start the waker: {e}"))?;
        println!("listening on {bound}");
        std::io::stdout().flush().ok();

        let mut requests = 0u64;
        while !signal::shutdown_requested() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // The waker's throw-away connection, or a client that
                    // raced the shutdown: either way the drain has begun.
                    if signal::shutdown_requested() {
                        break;
                    }
                    requests += 1;
                    let hub = Arc::clone(&self.hub);
                    let gate = Arc::clone(&self.gate);
                    let queue_wait = self.cfg.queue_wait;
                    let live = self.connections.enter();
                    let spawned = std::thread::Builder::new().spawn(move || {
                        let _live = live;
                        handle_connection(stream, &hub, &gate, queue_wait);
                    });
                    if let Err(e) = spawned {
                        eprintln!(
                            "toreador serve: cannot start a connection thread: {e}; \
                             connection dropped, still serving"
                        );
                    }
                }
                Err(e) => self.survive_accept_error(&e),
            }
        }
        waker.join();

        // Drain: refuse new admissions, cancel executing attempts, wait
        // for both the attempts and the connection threads, then fold the
        // WAL into a snapshot.
        self.gate.close();
        let cancelled = self.hub.cancel_all("daemon draining for shutdown");
        self.hub.wait_attempts_done();
        self.gate.wait_idle();
        self.connections.wait_idle();
        self.hub.checkpoint_store().map_err(|e| e.message)?;
        let counters = self.hub.counters();
        Ok(ServeSummary {
            requests,
            completed: counters.completed,
            cancelled_on_drain: cancelled,
        })
    }

    /// Log one classified line for a failed `accept()` and let the loop go
    /// on. Out of descriptors, the loop first waits for a connection to
    /// finish (that is what frees one) instead of spinning on the error.
    fn survive_accept_error(&self, e: &std::io::Error) {
        let class = AcceptFailure::of(e);
        eprintln!(
            "toreador serve: accept failed [{}]: {e}; still serving",
            class.name()
        );
        if class == AcceptFailure::Exhausted {
            self.connections.wait_for_one(Duration::from_millis(100));
        }
    }
}

/// Read one request, route it, write one response.
fn handle_connection(mut stream: TcpStream, hub: &SessionHub, gate: &Gate, queue_wait: Duration) {
    stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
    // Each response is one write; do not let Nagle hold it back.
    stream.set_nodelay(true).ok();
    let request = match read_request(&mut stream) {
        Ok(r) => r,
        Err(m) => {
            respond_error(&mut stream, &ServeError::new(ErrorClass::BadRequest, m));
            return;
        }
    };
    match route(&request, hub, gate, queue_wait) {
        Ok(body) => {
            let json = serde_json::to_string(&body).unwrap_or_else(|_| "{}".to_owned());
            write_response(&mut stream, 200, "application/json", json.as_bytes()).ok();
        }
        Err(e) => respond_error(&mut stream, &e),
    }
}

fn respond_error(stream: &mut TcpStream, e: &ServeError) {
    let json = serde_json::to_string(&e.body()).unwrap_or_else(|_| "{}".to_owned());
    write_response(
        stream,
        e.class.http_status(),
        "application/json",
        json.as_bytes(),
    )
    .ok();
}

/// Dispatch one request to the hub.
fn route(
    req: &Request,
    hub: &SessionHub,
    gate: &Gate,
    queue_wait: Duration,
) -> Result<serde_json::Value, ServeError> {
    let endpoint = (req.method.as_str(), req.path.as_str());
    match endpoint {
        ("GET", "/healthz") => Ok(flag_object("ok")),
        ("POST", "/v1/session/open") => {
            let body: OpenSessionRequest = parse_body(&req.body)?;
            to_json(hub.open_session(&body)?)
        }
        ("POST", "/v1/attempt") => {
            let body: AttemptRequest = parse_body(&req.body)?;
            // Admission first: the gate is the service-wide cap; the hub
            // then enforces the per-tenant limits.
            let _permit = gate.acquire(queue_wait).map_err(|r| match r {
                Rejection::Overloaded => ServeError::new(
                    ErrorClass::Overloaded,
                    "admission queue full, retry with backoff",
                ),
                Rejection::TimedOut => {
                    ServeError::new(ErrorClass::Overloaded, "timed out waiting for admission")
                }
                Rejection::ShuttingDown => {
                    ServeError::new(ErrorClass::ShuttingDown, "daemon is draining")
                }
            })?;
            to_json(hub.attempt(&body)?)
        }
        ("GET", "/v1/status") => {
            let g = gate.stats();
            let c = hub.counters();
            to_json(StatusReply {
                inflight: g.inflight,
                queued: g.queued,
                admitted: g.admitted,
                completed: c.completed,
                rejected_quota: c.rejected_quota,
                rejected_overloaded: g.rejected_overloaded,
                rejected_busy: c.rejected_busy,
                plans_compiled: c.plans.compiled,
                plans_shared: c.plans.shared,
                tenants: c.tenants,
                draining: signal::shutdown_requested(),
            })
        }
        ("GET", "/v1/history") => {
            let trainee = required_param(req, "trainee")?;
            to_json(hub.history(trainee)?)
        }
        ("GET", "/v1/run") => {
            let trainee = required_param(req, "trainee")?;
            let run = parse_param(req, "run")?;
            hub.run_record(trainee, run)
        }
        ("GET", "/v1/compare") => {
            let trainee = required_param(req, "trainee")?;
            let a = parse_param(req, "a")?;
            let b = parse_param(req, "b")?;
            to_json(hub.compare(trainee, a, b)?)
        }
        ("POST", "/v1/shutdown") => {
            signal::request_shutdown();
            Ok(flag_object("draining"))
        }
        (method, path) => Err(ServeError::new(
            ErrorClass::Unknown,
            format!("no endpoint {method} {path}"),
        )),
    }
}

/// `{"<name>": true}` without a json! macro (the vendored stub has none).
fn flag_object(name: &str) -> serde_json::Value {
    let mut map = serde_json::Map::new();
    map.insert(name.to_owned(), serde_json::Value::Bool(true));
    serde_json::Value::Object(map)
}

fn parse_body<T: serde::de::DeserializeOwned>(body: &[u8]) -> Result<T, ServeError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServeError::new(ErrorClass::BadRequest, "request body is not utf-8"))?;
    serde_json::from_str(text)
        .map_err(|e| ServeError::new(ErrorClass::BadRequest, format!("bad request body: {e}")))
}

fn to_json<T: serde::Serialize>(value: T) -> Result<serde_json::Value, ServeError> {
    serde_json::to_value(&value).map_err(|e| ServeError::new(ErrorClass::Internal, e.to_string()))
}

fn required_param<'r>(req: &'r Request, name: &str) -> Result<&'r str, ServeError> {
    req.param(name).ok_or_else(|| {
        ServeError::new(
            ErrorClass::BadRequest,
            format!("missing query parameter {name:?}"),
        )
    })
}

fn parse_param(req: &Request, name: &str) -> Result<u64, ServeError> {
    required_param(req, name)?.parse::<u64>().map_err(|_| {
        ServeError::new(
            ErrorClass::BadRequest,
            format!("query parameter {name:?} must be an integer"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::proto::ErrorClass;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("toreador-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Spin a daemon on an OS-assigned port; returns its address and the
    /// thread running it.
    fn spawn_server(
        dir: &Path,
        cfg: ServerConfig,
    ) -> (
        String,
        std::thread::JoinHandle<Result<ServeSummary, String>>,
    ) {
        let server = Server::bind(dir, cfg).unwrap();
        let addr = server.local_addr();
        let t = std::thread::spawn(move || server.run());
        (addr, t)
    }

    #[test]
    fn end_to_end_over_a_real_socket() {
        let _serial = signal::test_serial_lock();
        signal::reset_for_tests();
        let dir = tmp_dir("e2e");
        let (addr, server) = spawn_server(&dir, any_port());
        let client = Client::new(&addr);
        assert!(client.healthz().unwrap());

        let info = client
            .open_session(&OpenSessionRequest {
                trainee: "ada".into(),
                quota: None,
                seed: None,
            })
            .unwrap();
        assert_eq!(info.trainee, "ada");
        assert!(!info.resumed);

        let reply = client
            .attempt(&AttemptRequest {
                trainee: "ada".into(),
                challenge: "ecomm-revenue".into(),
                choices: vec!["full".into(), "batch".into()],
                rows: Some(250),
            })
            .unwrap();
        assert_eq!(reply.run_id, 1);
        assert!(reply.score > 0.0);

        let reply2 = client
            .attempt(&AttemptRequest {
                trainee: "ada".into(),
                challenge: "ecomm-revenue".into(),
                choices: vec!["sample".into(), "batch".into()],
                rows: Some(250),
            })
            .unwrap();
        assert_eq!(reply2.run_id, 2);

        let h = client.history("ada").unwrap();
        assert_eq!(h.runs.len(), 2);
        let cmp = client.compare("ada", 1, 2).unwrap();
        assert_eq!(cmp.choice_diffs.len(), 1);
        let record = client.run_record("ada", 1).unwrap();
        let record_run_id = record
            .as_object()
            .and_then(|o| o.get("run_id"))
            .and_then(|v| v.as_u64());
        assert_eq!(record_run_id, Some(1));
        let status = client.status().unwrap();
        assert_eq!(status.completed, 2);
        assert!(status.plans_compiled >= 2);

        // Unknown entities are classified, not 500s.
        let err = client.history("ghost").unwrap_err();
        assert_eq!(err.class, ErrorClass::Unknown);
        let err = client
            .attempt(&AttemptRequest {
                trainee: "ada".into(),
                challenge: "ecomm-revenue".into(),
                choices: vec!["bogus".into()],
                rows: Some(50),
            })
            .unwrap_err();
        assert_eq!(err.class, ErrorClass::BadRequest);

        // Clean shutdown over the wire.
        client.shutdown().unwrap();
        let summary = server.join().unwrap().unwrap();
        assert_eq!(summary.completed, 2);
        signal::reset_for_tests();
        // The store reopens intact (the daemon released its lock).
        let store = toreador_labs::prelude::SessionStore::open(&dir).unwrap();
        assert_eq!(store.trainee("ada").unwrap().runs.len(), 2);
        assert!(store.stats().snapshot_lsn > 0, "shutdown checkpointed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn any_port() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            ..ServerConfig::default()
        }
    }

    /// Join a server thread, failing the test if it is still running after
    /// `limit` (a daemon that missed its wake would block forever).
    fn join_within(
        server: std::thread::JoinHandle<Result<ServeSummary, String>>,
        limit: Duration,
    ) -> ServeSummary {
        let started = std::time::Instant::now();
        while !server.is_finished() {
            assert!(
                started.elapsed() < limit,
                "daemon still running {limit:?} after the shutdown request"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        server.join().unwrap().unwrap()
    }

    /// An idle daemon — parked in `accept()`, no connection ever made —
    /// has nothing but the wake to tell it about a shutdown. Two
    /// lifecycles in one process, the first stopped from inside and the
    /// second by a real SIGTERM, both return within the bound.
    #[test]
    fn idle_daemons_wake_for_a_request_and_for_a_signal() {
        let _serial = signal::test_serial_lock();
        signal::install_handlers();
        let stops: [(&str, fn()); 2] = [
            ("idle-request", signal::request_shutdown),
            ("idle-sigterm", || {
                if cfg!(unix) {
                    assert!(signal::send_signal(std::process::id(), signal::SIGTERM));
                } else {
                    signal::request_shutdown();
                }
            }),
        ];
        for (tag, stop) in stops {
            signal::reset_for_tests();
            let dir = tmp_dir(tag);
            let (_addr, server) = spawn_server(&dir, any_port());
            // Give the loop time to park in accept().
            std::thread::sleep(Duration::from_millis(50));
            stop();
            let summary = join_within(server, Duration::from_secs(1));
            assert_eq!(summary.requests, 0, "the wake is not a request");
            std::fs::remove_dir_all(&dir).unwrap();
        }
        signal::reset_for_tests();
    }

    /// A request that is mid-flight when the shutdown lands is still
    /// answered: the drain waits for its connection thread.
    #[test]
    fn a_request_in_flight_at_shutdown_still_gets_its_reply() {
        use std::io::Read;
        let _serial = signal::test_serial_lock();
        signal::reset_for_tests();
        let dir = tmp_dir("inflight");
        let (addr, server) = spawn_server(&dir, any_port());
        let mut slow = TcpStream::connect(&addr).unwrap();
        slow.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
        // The daemon has accepted the connection once it counts it.
        let client = Client::new(&addr);
        assert!(client.healthz().unwrap());
        signal::request_shutdown();
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            !server.is_finished(),
            "the drain waits for the open request"
        );
        slow.write_all(b"\r\n").unwrap();
        let mut reply = String::new();
        slow.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        let summary = join_within(server, Duration::from_secs(1));
        assert_eq!(summary.requests, 2);
        signal::reset_for_tests();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn accept_failures_are_classified() {
        use std::io::{Error, ErrorKind};
        let of = |e: Error| AcceptFailure::of(&e);
        assert_eq!(
            of(ErrorKind::ConnectionAborted.into()),
            AcceptFailure::Transient
        );
        assert_eq!(of(ErrorKind::Interrupted.into()), AcceptFailure::Transient);
        assert_eq!(of(Error::from_raw_os_error(24)), AcceptFailure::Exhausted);
        assert_eq!(of(Error::from_raw_os_error(23)), AcceptFailure::Exhausted);
        assert_eq!(
            of(ErrorKind::InvalidInput.into()),
            AcceptFailure::Unexpected
        );
    }

    #[test]
    fn serve_refuses_a_locked_store() {
        let _serial = signal::test_serial_lock();
        signal::reset_for_tests();
        let dir = tmp_dir("locked");
        let _holder = toreador_labs::prelude::SessionStore::open(&dir).unwrap();
        let err = Server::bind(&dir, any_port()).map(|_| ()).unwrap_err();
        assert!(err.contains("already open by pid"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

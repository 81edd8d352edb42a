//! `serve_cohort`: a real `toreador serve` child on a fresh store, driven
//! by simulated trainees.
//!
//! A pass is: fresh store directory → spawn the daemon → one warm-up
//! trainee → **saturate** (closed loop, 2 connections: capacity) →
//! **paced** (open loop, 2 connections at a fixed request rate: the
//! latency a trainee would see, stalls behind a snapshot included) →
//! read `/v1/status` and the daemon's peak RSS → SIGTERM, wait for exit 0
//! → reopen the store in this process and look up every acknowledged
//! `(trainee, run_id)`. One op is one HTTP request.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use toreador_labs::session::SessionStore;
use toreador_serve::admission::Gate;
use toreador_serve::client::Client;
use toreador_serve::hub::{HubConfig, SessionHub};
use toreador_serve::proto::{AttemptRequest, OpenSessionRequest};

use crate::host;
use crate::loadgen::{drive, Pacing, PhaseOutcome, Service, Step};
use crate::report::Metric;
use crate::sizing::ATTEMPT_ROWS;
use crate::span::Tracer;
use crate::stats::{median, median_or_zero, quantile, supported_quantile};
use crate::workload::{Daemon, EndToEnd, RunConfig};

const CHALLENGE: &str = "ecomm-revenue";

/// The three choice vectors trainees cycle through, so the daemon's plan
/// cache sees a few distinct plans and then hits.
const CHOICES: [[&str; 2]; 3] = [["full", "batch"], ["sample", "batch"], ["full", "stream"]];

/// Generator connections in both phases (`nproc` is 2).
pub const CONNECTIONS: usize = 2;

fn open_request(trainee: &str, seed: u64) -> OpenSessionRequest {
    OpenSessionRequest {
        trainee: trainee.to_owned(),
        quota: None,
        seed: Some(seed),
    }
}

fn attempt_request(trainee: &str, ordinal: usize, k: usize) -> AttemptRequest {
    AttemptRequest {
        trainee: trainee.to_owned(),
        challenge: CHALLENGE.to_owned(),
        choices: CHOICES[(ordinal + k) % CHOICES.len()]
            .iter()
            .map(|c| (*c).to_owned())
            .collect(),
        rows: Some(ATTEMPT_ROWS),
    }
}

/// The daemon over HTTP.
struct Http {
    client: Client,
    seed: u64,
}

impl Service for Http {
    fn call(&self, trainee: &str, ordinal: usize, step: Step) -> Result<Option<u64>, String> {
        let c = &self.client;
        match step {
            Step::Open => c
                .open_session(&open_request(trainee, self.seed))
                .map(|_| None),
            Step::Attempt(k) => c
                .attempt(&attempt_request(trainee, ordinal, k))
                .map(|r| Some(r.run_id)),
            Step::History => c.history(trainee).map(|_| None),
            Step::Compare(a, b) => c.compare(trainee, a, b).map(|_| None),
        }
        .map_err(|e| e.to_string())
    }
}

/// A hub behind an admission gate, called directly: what the daemon does
/// for a request, minus the socket.
pub struct InProcess {
    pub hub: SessionHub,
    pub gate: Gate,
    seed: u64,
}

impl InProcess {
    pub fn open(dir: &Path, seed: u64) -> Result<InProcess, String> {
        // The daemon's shipped defaults: 4 attempts in flight, 64 queued.
        Ok(InProcess {
            hub: SessionHub::open(dir, HubConfig::default()).map_err(|e| e.message)?,
            gate: Gate::new(4, 64),
            seed,
        })
    }
}

impl Service for InProcess {
    fn call(&self, trainee: &str, ordinal: usize, step: Step) -> Result<Option<u64>, String> {
        match step {
            Step::Open => self
                .hub
                .open_session(&open_request(trainee, self.seed))
                .map(|_| None),
            Step::Attempt(k) => {
                let _permit = self
                    .gate
                    .acquire(Duration::from_secs(30))
                    .map_err(|r| format!("admission: {r:?}"))?;
                self.hub
                    .attempt(&attempt_request(trainee, ordinal, k))
                    .map(|r| Some(r.run_id))
            }
            Step::History => self.hub.history(trainee).map(|_| None),
            Step::Compare(a, b) => self.hub.compare(trainee, a, b).map(|_| None),
        }
        .map_err(|e| e.message)
    }
}

/// Plan-cache and rejection counters of a running service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub plans_compiled: u64,
    pub plans_shared: u64,
    pub rejected: u64,
}

impl Counters {
    pub fn plan_hit_ratio(&self) -> f64 {
        self.plans_shared as f64 / (self.plans_compiled + self.plans_shared).max(1) as f64
    }
}

enum Backend {
    Child {
        child: Child,
        /// Held until the child exits: its farewell line must have
        /// somewhere to go, or the write fails and so does the exit code.
        stdout: BufReader<ChildStdout>,
        http: Http,
    },
    InProcess(Box<InProcess>),
    Stopped,
}

/// A service under test on its own store directory.
pub struct Session {
    backend: Backend,
}

impl Session {
    /// Start the service on a fresh store at `dir`.
    pub fn start(daemon: &Daemon, dir: &Path, seed: u64) -> Result<Session, String> {
        host::fresh_dir(dir).map_err(|e| format!("store dir {dir:?}: {e}"))?;
        let backend = match daemon {
            Daemon::InProcess => Backend::InProcess(Box::new(InProcess::open(dir, seed)?)),
            Daemon::Child(bin) => {
                let mut child = Command::new(bin)
                    .arg("serve")
                    .arg("--store")
                    .arg(dir)
                    .args(["--addr", "127.0.0.1:0"])
                    .stdin(Stdio::null())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::null())
                    .spawn()
                    .map_err(|e| format!("cannot spawn {bin:?} serve: {e}"))?;
                let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
                let mut ready = String::new();
                let addr = match stdout.read_line(&mut ready) {
                    Ok(n) if n > 0 => ready
                        .trim()
                        .strip_prefix("listening on ")
                        .map(str::to_owned),
                    _ => None,
                };
                let Some(addr) = addr else {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("daemon printed {ready:?}, not its readiness line"));
                };
                Backend::Child {
                    child,
                    stdout,
                    http: Http {
                        client: Client::new(addr),
                        seed,
                    },
                }
            }
        };
        Ok(Session { backend })
    }

    pub fn service(&self) -> &dyn Service {
        match &self.backend {
            Backend::Child { http, .. } => http,
            Backend::InProcess(p) => p.as_ref(),
            Backend::Stopped => unreachable!("service() after stop()"),
        }
    }

    /// One `GET /healthz` round trip (a no-op call in process).
    pub fn healthz(&self) -> Result<(), String> {
        match &self.backend {
            Backend::Child { http, .. } => match http.client.healthz() {
                Ok(true) => Ok(()),
                Ok(false) => Err("healthz answered not ok".to_owned()),
                Err(e) => Err(e.to_string()),
            },
            _ => Ok(()),
        }
    }

    pub fn counters(&self) -> Result<Counters, String> {
        match &self.backend {
            Backend::Child { http, .. } => {
                let s = http.client.status().map_err(|e| e.to_string())?;
                Ok(Counters {
                    plans_compiled: s.plans_compiled,
                    plans_shared: s.plans_shared,
                    rejected: s.rejected_quota + s.rejected_overloaded + s.rejected_busy,
                })
            }
            Backend::InProcess(p) => {
                let c = p.hub.counters();
                Ok(Counters {
                    plans_compiled: c.plans.compiled,
                    plans_shared: c.plans.shared,
                    rejected: c.rejected_quota
                        + c.rejected_busy
                        + p.gate.stats().rejected_overloaded,
                })
            }
            Backend::Stopped => Err("service already stopped".to_owned()),
        }
    }

    /// Peak RSS of the process under test, MiB: the child's, or ours.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        match &self.backend {
            Backend::Child { child, .. } => host::peak_rss_mb(child.id()),
            _ => host::own_peak_rss_mb(),
        }
    }

    /// Drain the service: SIGTERM the child and wait for exit 0 (in
    /// process: checkpoint the store and drop the hub). Returns how long
    /// that took, ms.
    pub fn stop(&mut self) -> Result<f64, String> {
        let started = Instant::now();
        match std::mem::replace(&mut self.backend, Backend::Stopped) {
            Backend::Child {
                mut child, stdout, ..
            } => {
                if !host::terminate(child.id()) {
                    let _ = child.kill();
                }
                let status = child.wait().map_err(|e| format!("wait for daemon: {e}"))?;
                drop(stdout);
                if !status.success() {
                    return Err(format!("daemon exited with {status} after SIGTERM"));
                }
            }
            Backend::InProcess(p) => {
                p.gate.close();
                p.hub.checkpoint_store().map_err(|e| e.message)?;
            }
            Backend::Stopped => {}
        }
        Ok(started.elapsed().as_secs_f64() * 1e3)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // An error path must not leave a daemon behind.
        if let Backend::Child { child, .. } = &mut self.backend {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Reopen the store at `dir` in this process and count the acknowledged
/// `(trainee, run_id)` pairs it no longer holds. Returns `(reopen ms,
/// lost)`.
pub fn reopen_and_verify(dir: &Path, acked: &[(String, u64)]) -> Result<(f64, u64), String> {
    let started = Instant::now();
    let store = SessionStore::open(dir).map_err(|e| format!("reopen store: {e}"))?;
    let reopen_ms = started.elapsed().as_secs_f64() * 1e3;
    let lost = acked
        .iter()
        .filter(|(trainee, run_id)| store.run(trainee, *run_id).is_none())
        .count() as u64;
    Ok((reopen_ms, lost))
}

pub fn trainee_names(prefix: &str, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}-{i}")).collect()
}

/// What one pass of the cohort measured.
struct Pass {
    setup_s: f64,
    saturate: PhaseOutcome,
    paced: PhaseOutcome,
    counters: Counters,
    peak_rss_mb: Option<f64>,
    drain_ms: f64,
    reopen_ms: f64,
    lost: u64,
    store_bytes: u64,
    /// Attempts the warm-up trainee had acknowledged.
    warm_acked: usize,
}

fn pass(cfg: &RunConfig, number: u64, tracer: &mut Tracer) -> Result<Pass, String> {
    let dir = cfg.scratch.join(format!("serve-{number}"));
    let started = Instant::now();
    let mut session = Session::start(&cfg.daemon, &dir, cfg.seed)?;
    let warm = drive(
        session.service(),
        &trainee_names("warm", 1),
        1,
        Pacing::Closed,
        &mut Tracer::new(false),
    );
    if warm.failed() > 0 {
        return Err(format!(
            "warm-up trainee failed: {}",
            warm.errors.join("; ")
        ));
    }
    let setup_s = started.elapsed().as_secs_f64();

    let phase = tracer.enter("serve.phase.saturate");
    let saturate = drive(
        session.service(),
        &trainee_names("a", cfg.sizing.saturate_trainees),
        CONNECTIONS,
        Pacing::Closed,
        tracer,
    );
    tracer.exit(phase);
    let phase = tracer.enter("serve.phase.paced");
    let paced = drive(
        session.service(),
        &trainee_names("b", cfg.sizing.paced_trainees),
        CONNECTIONS,
        Pacing::Open {
            rate_per_s: cfg.sizing.paced_rate_per_s,
        },
        tracer,
    );
    tracer.exit(phase);

    let counters = session.counters()?;
    let peak_rss_mb = session.peak_rss_mb();
    let drain_ms = tracer.span("serve.drain", || session.stop())?;
    let acked: Vec<(String, u64)> = warm
        .acked
        .iter()
        .chain(&saturate.acked)
        .chain(&paced.acked)
        .cloned()
        .collect();
    let (reopen_ms, lost) = tracer.span("store.reopen", || reopen_and_verify(&dir, &acked))?;
    let store_bytes = host::dir_bytes(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Pass {
        setup_s,
        saturate,
        paced,
        counters,
        peak_rss_mb,
        drain_ms,
        reopen_ms,
        lost,
        store_bytes,
        warm_acked: warm.acked.len(),
    })
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Result<EndToEnd, String> {
    let mut passes: Vec<Pass> = Vec::new();
    let mut timed_s = 0.0;
    while passes.len() < cfg.sizing.setups.max(1) || timed_s < cfg.seconds {
        let p = pass(cfg, passes.len() as u64, tracer)?;
        timed_s += p.saturate.wall_s + p.paced.wall_s;
        passes.push(p);
    }

    let mut out = EndToEnd::default();
    for p in &passes {
        for phase in [&p.saturate, &p.paced] {
            out.attempted += phase.attempted();
            out.failed += phase.failed();
            out.problems.extend(phase.errors.iter().cloned());
        }
        if p.lost > 0 {
            out.failed += p.lost;
            out.problems.push(format!(
                "{} acknowledged run(s) missing after reopen",
                p.lost
            ));
        }
    }
    // One number per pass, or one sample pool over all passes.
    let per_pass = |f: fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let pooled = |want: fn(Step) -> bool| -> Vec<f64> {
        passes
            .iter()
            .flat_map(|p| p.paced.latencies(want))
            .collect()
    };
    let attempt_ms = pooled(|s| matches!(s, Step::Attempt(_)));
    let lag_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.paced.sched_lag_ms.iter().copied())
        .collect();
    let sat_acked: usize = passes.iter().map(|p| p.saturate.acked.len()).sum();
    let sat_wall_s: f64 = passes.iter().map(|p| p.saturate.wall_s).sum();
    let peak: Vec<f64> = passes.iter().filter_map(|p| p.peak_rss_mb).collect();
    let counters = passes.last().map(|p| p.counters).unwrap_or_default();

    out.setup_s = median_or_zero(&per_pass(|p| p.setup_s));
    out.ops_per_s = sat_acked as f64 / sat_wall_s;
    out.rows_per_s = out.ops_per_s * ATTEMPT_ROWS as f64;
    out.op_p50_ms = median_or_zero(&attempt_ms);
    out.op_samples = attempt_ms.len();
    out.op_p99_ms = supported_quantile(&attempt_ms, 0.99);
    out.read_p50_ms = Some(median_or_zero(&pooled(Step::is_read)));
    out.child_peak_rss_mb = median(&peak);
    let observed = |name: &str, value: f64, unit: &'static str| {
        Metric::new(format!("observed.serve.{name}"), value, unit)
    };
    out.observed = vec![
        observed("passes", passes.len() as f64, "count"),
        observed("plan_hit_ratio", counters.plan_hit_ratio(), "ratio"),
        observed("rejected", counters.rejected as f64, "count"),
        observed(
            "sched_lag_p99_ms",
            quantile(&lag_ms, 0.99).unwrap_or(0.0),
            "ms",
        ),
        observed("drain_ms", median_or_zero(&per_pass(|p| p.drain_ms)), "ms"),
        observed(
            "reopen_ms",
            median_or_zero(&per_pass(|p| p.reopen_ms)),
            "ms",
        ),
        observed(
            "store_bytes_per_attempt",
            // The warm-up trainee's attempts are in the store too.
            median_or_zero(&per_pass(|p| {
                let acked = p.warm_acked + p.saturate.acked.len() + p.paced.acked.len();
                p.store_bytes as f64 / acked as f64
            })),
            "bytes",
        ),
    ];
    Ok(out)
}

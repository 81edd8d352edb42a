//! The trainee load generator: closed-loop and open-loop phases over a
//! fixed number of connections.
//!
//! A trainee's lifecycle is `open-session`, four `attempt`s, `history`,
//! `compare` — sequential, because each step needs the one before it. So
//! each connection owns a fixed share of the trainees (index modulo the
//! connection count) and walks them in order; nothing about the schedule
//! depends on how fast the service answers.
//!
//! * **Closed loop**: a connection sends its next request when the last
//!   one returns. A slow service receives less load; the phase measures
//!   capacity.
//! * **Open loop**: request `k` overall is *due* at `t0 + k / rate`,
//!   whatever happened before. Latency is taken **from the due time**, so
//!   a stall is charged to every later request that had to wait behind it.
//!   `sched_lag` is how late the generator itself ran — the gap between
//!   the moment a request could be sent (it is due and its connection is
//!   free) and the moment it was — and must stay near zero for the
//!   latencies to mean anything.

use std::time::{Duration, Instant};

use crate::sizing::ATTEMPTS_PER_TRAINEE;
use crate::span::Tracer;

/// One step of a trainee's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Open,
    /// The `k`-th attempt of this trainee (0-based).
    Attempt(usize),
    History,
    /// Compare two acknowledged runs.
    Compare(u64, u64),
}

impl Step {
    pub fn name(self) -> &'static str {
        match self {
            Step::Open => "serve.open",
            Step::Attempt(_) => "serve.attempt",
            Step::History => "serve.history",
            Step::Compare(..) => "serve.compare",
        }
    }

    pub fn is_read(self) -> bool {
        matches!(self, Step::History | Step::Compare(..))
    }
}

/// Requests per trainee lifecycle.
pub const STEPS_PER_TRAINEE: usize = 3 + ATTEMPTS_PER_TRAINEE;

/// What the generator drives: the daemon over HTTP, an in-process hub, or
/// a test double. `Ok(Some(run_id))` acknowledges an attempt.
pub trait Service: Sync {
    fn call(&self, trainee: &str, ordinal: usize, step: Step) -> Result<Option<u64>, String>;
}

/// One completed (or failed) request.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub step: Step,
    /// Latency in ms: from the due time in an open loop, from the send in
    /// a closed one.
    pub latency_ms: f64,
    pub ok: bool,
}

/// What one phase produced.
#[derive(Debug, Default)]
pub struct PhaseOutcome {
    pub samples: Vec<Sample>,
    /// Every acknowledged `(trainee, run_id)`.
    pub acked: Vec<(String, u64)>,
    pub errors: Vec<String>,
    pub wall_s: f64,
    /// Per request, how late the generator ran, ms (open loop only).
    pub sched_lag_ms: Vec<f64>,
}

impl PhaseOutcome {
    pub fn latencies(&self, want: impl Fn(Step) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.ok && want(s.step))
            .map(|s| s.latency_ms)
            .collect()
    }

    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }
}

/// Closed loop, or open loop at a fixed request rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    Closed,
    Open { rate_per_s: f64 },
}

struct Connection<'a> {
    service: &'a dyn Service,
    index: usize,
    connections: usize,
    pacing: Pacing,
    t0: Instant,
    tracer: Tracer,
    out: PhaseOutcome,
    /// Requests this connection has issued so far.
    sent: usize,
    /// When the previous request returned.
    free_at: Instant,
}

impl Connection<'_> {
    fn request(&mut self, trainee: &str, ordinal: usize, step: Step) -> Option<u64> {
        // Connection `c` owns overall slots c, c + n, c + 2n, …
        let slot = self.sent * self.connections + self.index;
        self.sent += 1;
        let due = match self.pacing {
            Pacing::Closed => None,
            Pacing::Open { rate_per_s } => {
                let due = self.t0 + Duration::from_secs_f64(slot as f64 / rate_per_s);
                let ready = due.max(self.free_at);
                let now = Instant::now();
                if ready > now {
                    std::thread::sleep(ready - now);
                }
                let lag = Instant::now().saturating_duration_since(ready);
                self.out.sched_lag_ms.push(lag.as_secs_f64() * 1e3);
                Some(due)
            }
        };
        self.tracer.set_op(slot as u64);
        let sent_at = Instant::now();
        let open = self.tracer.enter(step.name());
        let reply = self.service.call(trainee, ordinal, step);
        self.tracer.exit(open);
        let done = Instant::now();
        self.free_at = done;
        let latency_ms = (done - due.unwrap_or(sent_at)).as_secs_f64() * 1e3;
        let (ok, acked) = match reply {
            Ok(acked) => (true, acked),
            Err(e) => {
                self.out.errors.push(format!("{trainee} {step:?}: {e}"));
                (false, None)
            }
        };
        self.out.samples.push(Sample {
            step,
            latency_ms,
            ok,
        });
        acked
    }

    fn lifecycle(&mut self, trainee: &str, ordinal: usize) {
        self.request(trainee, ordinal, Step::Open);
        if !self.last_ok() {
            // Without a session nothing else can succeed; charge the rest
            // of the lifecycle as failed so the schedule stays aligned.
            self.skip(trainee, STEPS_PER_TRAINEE - 1);
            return;
        }
        let mut runs = Vec::new();
        for k in 0..ATTEMPTS_PER_TRAINEE {
            if let Some(run_id) = self.request(trainee, ordinal, Step::Attempt(k)) {
                self.out.acked.push((trainee.to_owned(), run_id));
                runs.push(run_id);
            }
        }
        self.request(trainee, ordinal, Step::History);
        match runs[..] {
            [a, b, ..] => {
                self.request(trainee, ordinal, Step::Compare(a, b));
            }
            _ => self.skip(trainee, 1),
        }
    }

    fn last_ok(&self) -> bool {
        self.out.samples.last().is_some_and(|s| s.ok)
    }

    /// Account `n` requests that could not be issued as failed.
    fn skip(&mut self, trainee: &str, n: usize) {
        for _ in 0..n {
            self.sent += 1;
            self.out.samples.push(Sample {
                step: Step::History,
                latency_ms: 0.0,
                ok: false,
            });
        }
        self.out
            .errors
            .push(format!("{trainee}: {n} request(s) skipped after a failure"));
    }
}

/// Drive `trainees` through their lifecycle over `connections` generator
/// threads. Spans (one per request, when `tracer` is enabled) are merged
/// into `tracer`.
pub fn drive(
    service: &dyn Service,
    trainees: &[String],
    connections: usize,
    pacing: Pacing,
    tracer: &mut Tracer,
) -> PhaseOutcome {
    let connections = connections.max(1);
    let t0 = Instant::now();
    let (enabled, epoch) = (tracer.enabled(), tracer.epoch());
    let parts: Vec<(PhaseOutcome, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|index| {
                scope.spawn(move || {
                    let mut conn = Connection {
                        service,
                        index,
                        connections,
                        pacing,
                        t0,
                        tracer: Tracer::with_epoch(enabled, epoch),
                        out: PhaseOutcome::default(),
                        sent: 0,
                        free_at: t0,
                    };
                    for (ordinal, trainee) in trainees.iter().enumerate() {
                        if ordinal % connections == index {
                            conn.lifecycle(trainee, ordinal);
                        }
                    }
                    (conn.out, conn.tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut merged = PhaseOutcome {
        wall_s: t0.elapsed().as_secs_f64(),
        ..PhaseOutcome::default()
    };
    for (part, part_tracer) in parts {
        merged.samples.extend(part.samples);
        merged.acked.extend(part.acked);
        merged.errors.extend(part.errors);
        merged.sched_lag_ms.extend(part.sched_lag_ms);
        tracer.absorb(part_tracer);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::quantile;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Answers instantly, except that one chosen request stalls.
    struct Stalling {
        calls: AtomicUsize,
        stall_on: usize,
        stall: Duration,
    }

    impl Service for Stalling {
        fn call(&self, _: &str, _: usize, step: Step) -> Result<Option<u64>, String> {
            let n = self.calls.fetch_add(1, Ordering::SeqCst);
            if n == self.stall_on {
                std::thread::sleep(self.stall);
            }
            Ok(match step {
                Step::Attempt(k) => Some(k as u64 + 1),
                _ => None,
            })
        }
    }

    fn trainees(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("t-{i}")).collect()
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_behind_it() {
        // One connection, 200 req/s: a request is due every 5 ms. Request
        // 3 stalls 200 ms, so requests 4.. are sent late through no fault
        // of their own — and must be charged the wait.
        let service = Stalling {
            calls: AtomicUsize::new(0),
            stall_on: 3,
            stall: Duration::from_millis(200),
        };
        let out = drive(
            &service,
            &trainees(6),
            1,
            Pacing::Open { rate_per_s: 200.0 },
            &mut Tracer::new(false),
        );
        assert_eq!(out.samples.len(), 6 * STEPS_PER_TRAINEE);
        assert_eq!(out.failed(), 0);
        assert_eq!(out.acked.len(), 6 * ATTEMPTS_PER_TRAINEE);

        let lat: Vec<f64> = out.samples.iter().map(|s| s.latency_ms).collect();
        assert!(
            lat[..3].iter().all(|&l| l < 50.0),
            "before the stall: {lat:?}"
        );
        assert!(lat[3] >= 200.0, "the stalled request itself: {}", lat[3]);
        // Request 4 was due 5 ms after request 3 and waited out the rest.
        assert!(lat[4] >= 180.0, "charged from its due time: {}", lat[4]);
        // The backlog drains: 40 requests were due during the stall, and
        // each later one waits a little less.
        assert!(lat[10] < lat[4] && lat[10] >= 100.0, "{lat:?}");
        let last = *lat.last().unwrap();
        assert!(last < 50.0, "caught up by the end: {last}");

        // The generator itself was never late: every request went out as
        // soon as it was due and its connection was free.
        let lag_p99 = quantile(&out.sched_lag_ms, 0.99).unwrap();
        assert!(lag_p99 < 20.0, "sched_lag p99 {lag_p99} ms");
        // And the phase took as long as the schedule says, not longer.
        assert!(out.wall_s >= 41.0 * 0.005);
    }

    #[test]
    fn closed_loop_times_from_the_send_and_splits_trainees_by_connection() {
        let service = Stalling {
            calls: AtomicUsize::new(0),
            stall_on: 1,
            stall: Duration::from_millis(100),
        };
        let mut tracer = Tracer::new(true);
        let out = drive(&service, &trainees(4), 2, Pacing::Closed, &mut tracer);
        assert_eq!(out.samples.len(), 4 * STEPS_PER_TRAINEE);
        assert!(out.sched_lag_ms.is_empty());
        let slow = out.samples.iter().filter(|s| s.latency_ms >= 100.0).count();
        assert_eq!(slow, 1, "only the stalled request is slow in a closed loop");
        assert_eq!(
            tracer.spans().len(),
            4 * STEPS_PER_TRAINEE,
            "one span per request"
        );
    }

    #[test]
    fn a_failed_open_fails_the_rest_of_the_lifecycle() {
        struct Refusing;
        impl Service for Refusing {
            fn call(&self, _: &str, _: usize, _: Step) -> Result<Option<u64>, String> {
                Err("refused".to_owned())
            }
        }
        let out = drive(
            &Refusing,
            &trainees(2),
            2,
            Pacing::Closed,
            &mut Tracer::new(false),
        );
        assert_eq!(out.attempted(), 2 * STEPS_PER_TRAINEE as u64);
        assert_eq!(out.failed(), out.attempted());
        assert!(out.acked.is_empty());
    }
}

//! Resilience policies: retries with backoff, task deadlines, speculative
//! execution, error classification, and cooperative run cancellation.
//!
//! The TOREADOR methodology exposes fault tolerance as a design dimension a
//! trainee chooses — and pays for. This module is the vocabulary of that
//! choice: a [`RetryPolicy`] decides how many times and how patiently a
//! failed task attempt is retried, a [`TaskDeadline`] turns a hung task
//! into a retryable [`FlowError::TaskTimedOut`] instead of a hung run, a
//! [`SpeculationPolicy`] launches backup attempts for stragglers, and
//! [`classify`] splits errors into transient (worth retrying) versus
//! permanent (the stage is doomed — trip the [`RunControl`] so in-flight
//! workers stop claiming tasks).
//!
//! Everything here is deterministic given a seed: backoff jitter draws come
//! from the same SplitMix64 stream as fault decisions (with a different
//! salt), so a resilience schedule replays bit-identically.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use serde::{Deserialize, Serialize};

use crate::error::FlowError;
use crate::fault::{self, ChaosPlan};

/// Salt decorrelating jitter draws from fault decisions sharing a seed.
const JITTER_SALT: u64 = 0x6a09_e667_f3bc_c909;

/// How long to wait between a failed attempt and its retry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Backoff {
    /// Retry immediately (the pre-resilience behaviour).
    Immediate,
    /// Constant delay before each retry.
    Fixed { delay_us: u64 },
    /// `base_us * 2^(attempt-1)`, capped at `cap_us`.
    Exponential { base_us: u64, cap_us: u64 },
}

/// Retry policy for task attempts in a stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum attempts per task (>= 1); the first attempt counts.
    pub max_attempts: u32,
    pub backoff: Backoff,
    /// Fractional jitter applied to non-zero backoff delays: a delay `d`
    /// becomes `d * (1 ± jitter)`, drawn deterministically from `seed`.
    pub jitter: f64,
    /// Seed for the jitter draws.
    pub seed: u64,
    /// Cap on total retries within one stage (None = unlimited).
    pub stage_retry_budget: Option<u32>,
    /// Cap on total retries across the whole run (None = unlimited).
    pub run_retry_budget: Option<u32>,
}

impl RetryPolicy {
    /// One attempt, no retries.
    pub fn none() -> Self {
        RetryPolicy::immediate(1)
    }

    /// Up to `max_attempts` attempts with no delay between them.
    pub fn immediate(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            backoff: Backoff::Immediate,
            jitter: 0.0,
            seed: 0,
            stage_retry_budget: None,
            run_retry_budget: None,
        }
    }

    /// Fixed delay between attempts.
    pub fn fixed(max_attempts: u32, delay_us: u64) -> Self {
        RetryPolicy {
            backoff: Backoff::Fixed { delay_us },
            ..RetryPolicy::immediate(max_attempts)
        }
    }

    /// Exponential backoff: `base_us`, doubling per retry, capped.
    pub fn exponential(max_attempts: u32, base_us: u64, cap_us: u64) -> Self {
        RetryPolicy {
            backoff: Backoff::Exponential {
                base_us,
                cap_us: cap_us.max(base_us),
            },
            ..RetryPolicy::immediate(max_attempts)
        }
    }

    /// Add seeded jitter (fraction in [0, 1]) to backoff delays.
    pub fn with_jitter(mut self, jitter: f64, seed: u64) -> Self {
        self.jitter = if jitter.is_nan() {
            0.0
        } else {
            jitter.clamp(0.0, 1.0)
        };
        self.seed = seed;
        self
    }

    pub fn with_stage_budget(mut self, budget: u32) -> Self {
        self.stage_retry_budget = Some(budget);
        self
    }

    pub fn with_run_budget(mut self, budget: u32) -> Self {
        self.run_retry_budget = Some(budget);
        self
    }

    /// Deterministic backoff delay before dispatching `attempt` (1-based:
    /// the first *retry* is attempt 1) of task (`stage`, `partition`).
    pub fn delay_us(&self, stage: usize, partition: usize, attempt: u32) -> u64 {
        let base = match self.backoff {
            Backoff::Immediate => 0,
            Backoff::Fixed { delay_us } => delay_us,
            Backoff::Exponential { base_us, cap_us } => {
                let shift = attempt.saturating_sub(1).min(20);
                base_us.saturating_mul(1u64 << shift).min(cap_us)
            }
        };
        if base == 0 || self.jitter <= 0.0 {
            return base;
        }
        let u = fault::uniform(self.seed, JITTER_SALT, stage, partition, attempt);
        let spread = (u * 2.0 - 1.0) * self.jitter; // in [-jitter, +jitter)
        ((base as f64) * (1.0 + spread)).max(0.0) as u64
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// Per-task wall-clock deadline. A running attempt that exceeds it is
/// declared [`FlowError::TaskTimedOut`] (a transient, retryable error) and
/// cancelled cooperatively — the run never hangs on one stuck task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskDeadline {
    pub timeout_us: u64,
}

impl TaskDeadline {
    pub fn from_millis(ms: u64) -> Self {
        TaskDeadline {
            timeout_us: ms.saturating_mul(1_000),
        }
    }

    pub fn from_micros(us: u64) -> Self {
        TaskDeadline { timeout_us: us }
    }
}

/// Straggler mitigation: once `min_samples` attempts of a stage have
/// completed, any task whose sole running attempt is older than
/// `factor ×` the stage's median attempt time gets one speculative backup
/// attempt. First completion wins; the loser is cancelled and recorded.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeculationPolicy {
    /// Multiple of the median attempt duration that marks a straggler.
    pub factor: f64,
    /// Completed attempts needed before the median is trusted.
    pub min_samples: usize,
}

impl SpeculationPolicy {
    pub fn new(factor: f64) -> Self {
        SpeculationPolicy {
            factor: if factor.is_nan() {
                2.0
            } else {
                factor.max(1.0)
            },
            min_samples: 3,
        }
    }

    pub fn with_min_samples(mut self, min_samples: usize) -> Self {
        self.min_samples = min_samples.max(1);
        self
    }
}

/// Whether an error is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Infrastructure-shaped: another attempt may succeed.
    Transient,
    /// The computation itself is wrong; retrying cannot help. The stage is
    /// doomed — cancel it instead of finishing the remaining tasks.
    Permanent,
}

/// Classify a task error. Injected crashes, deadline expiries, and panics
/// are transient (the environment misbehaved); everything else — type
/// errors, missing datasets, plan bugs — is permanent.
pub fn classify(err: &FlowError) -> ErrorClass {
    match err {
        FlowError::TaskFailed { .. }
        | FlowError::TaskTimedOut { .. }
        | FlowError::TaskPanicked { .. } => ErrorClass::Transient,
        _ => ErrorClass::Permanent,
    }
}

/// The complete resilience configuration of an engine run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ResilienceConfig {
    pub retry: RetryPolicy,
    /// Per-task deadline (None = tasks may run forever).
    pub deadline: Option<TaskDeadline>,
    /// Straggler speculation (None = disabled).
    pub speculation: Option<SpeculationPolicy>,
    /// Deterministic fault injection for this run.
    pub chaos: ChaosPlan,
}

impl ResilienceConfig {
    /// No retries, no deadline, no speculation, no chaos.
    pub fn none() -> Self {
        ResilienceConfig::default()
    }

    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    pub fn with_deadline(mut self, deadline: TaskDeadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    pub fn with_speculation(mut self, speculation: SpeculationPolicy) -> Self {
        self.speculation = Some(speculation);
        self
    }

    pub fn with_chaos(mut self, chaos: ChaosPlan) -> Self {
        self.chaos = chaos;
        self
    }

    /// Spare workers the stage pool should hold beyond its configured
    /// size. A hung attempt cannot be interrupted, only abandoned, so each
    /// watchdog that replaces attempts (deadline expiry, speculation)
    /// needs one thread guaranteed free to run the replacement even when
    /// every configured worker is pinned under a straggler.
    pub fn spare_worker_hint(&self) -> usize {
        usize::from(self.deadline.is_some()) + usize::from(self.speculation.is_some())
    }
}

/// Shared cancellation and budget state for one run. The execution context
/// holds one; every stage consults it before claiming work, so a permanent
/// failure in stage N stops stage N's in-flight workers *and* prevents any
/// later stage from starting.
///
/// Clones share state (the handle is an `Arc` internally), so an external
/// owner — a serving daemon draining on SIGTERM, an operator console — can
/// keep a handle and cancel a run that is executing on other threads: pass
/// the clone in via [`crate::session::EngineConfig::with_control`].
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    state: std::sync::Arc<ControlState>,
}

#[derive(Debug, Default)]
struct ControlState {
    cancelled: AtomicBool,
    reason: parking_lot::Mutex<Option<String>>,
    retries_used: AtomicU32,
}

impl RunControl {
    pub fn new() -> Self {
        RunControl::default()
    }

    /// Trip the cancellation flag. The first reason wins.
    pub fn cancel(&self, reason: impl Into<String>) {
        let mut slot = self.state.reason.lock();
        if !self.state.cancelled.swap(true, Ordering::SeqCst) {
            *slot = Some(reason.into());
        }
    }

    pub fn is_cancelled(&self) -> bool {
        self.state.cancelled.load(Ordering::SeqCst)
    }

    pub fn reason(&self) -> Option<String> {
        self.state.reason.lock().clone()
    }

    /// Total retries charged against the run budget so far.
    pub fn run_retries_used(&self) -> u32 {
        self.state.retries_used.load(Ordering::SeqCst)
    }

    /// Reserve one retry from the run budget; false when exhausted.
    pub fn try_reserve_retry(&self, budget: Option<u32>) -> bool {
        match budget {
            None => {
                self.state.retries_used.fetch_add(1, Ordering::SeqCst);
                true
            }
            Some(cap) => self
                .state
                .retries_used
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |used| {
                    (used < cap).then_some(used + 1)
                })
                .is_ok(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_backoff_has_zero_delay() {
        let p = RetryPolicy::immediate(5);
        assert_eq!(p.delay_us(0, 0, 1), 0);
        assert_eq!(p.delay_us(3, 7, 4), 0);
    }

    #[test]
    fn exponential_backoff_doubles_and_caps() {
        let p = RetryPolicy::exponential(8, 100, 450);
        assert_eq!(p.delay_us(0, 0, 1), 100);
        assert_eq!(p.delay_us(0, 0, 2), 200);
        assert_eq!(p.delay_us(0, 0, 3), 400);
        assert_eq!(p.delay_us(0, 0, 4), 450, "capped");
        assert_eq!(p.delay_us(0, 0, 30), 450, "shift saturates");
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let p = RetryPolicy::fixed(4, 1_000).with_jitter(0.25, 99);
        for partition in 0..32 {
            let d = p.delay_us(2, partition, 1);
            assert!((750..=1_250).contains(&d), "jittered delay {d}");
            assert_eq!(d, p.delay_us(2, partition, 1), "deterministic");
        }
        // Different partitions draw different jitter.
        let draws: Vec<u64> = (0..32).map(|part| p.delay_us(2, part, 1)).collect();
        assert!(draws.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn nan_jitter_and_factor_normalise() {
        let p = RetryPolicy::fixed(2, 500).with_jitter(f64::NAN, 1);
        assert_eq!(p.delay_us(0, 0, 1), 500);
        let s = SpeculationPolicy::new(f64::NAN);
        assert_eq!(s.factor, 2.0);
    }

    #[test]
    fn classification_splits_infrastructure_from_logic() {
        assert_eq!(
            classify(&FlowError::TaskFailed {
                stage: 0,
                partition: 0,
                attempts: 1,
                message: "injected fault".into()
            }),
            ErrorClass::Transient
        );
        assert_eq!(
            classify(&FlowError::TaskTimedOut {
                stage: 0,
                partition: 0,
                attempts: 1,
                deadline_us: 10
            }),
            ErrorClass::Transient
        );
        assert_eq!(
            classify(&FlowError::TaskPanicked {
                stage: 0,
                partition: 0,
                attempts: 1,
                message: "boom".into()
            }),
            ErrorClass::Transient
        );
        assert_eq!(
            classify(&FlowError::Plan("bad plan".into())),
            ErrorClass::Permanent
        );
        assert_eq!(
            classify(&FlowError::UnknownDataset("ghost".into())),
            ErrorClass::Permanent
        );
    }

    #[test]
    fn run_control_cancels_once_with_first_reason() {
        let c = RunControl::new();
        assert!(!c.is_cancelled());
        c.cancel("first");
        c.cancel("second");
        assert!(c.is_cancelled());
        assert_eq!(c.reason().as_deref(), Some("first"));
    }

    #[test]
    fn run_retry_budget_is_enforced_atomically() {
        let c = RunControl::new();
        assert!(c.try_reserve_retry(Some(2)));
        assert!(c.try_reserve_retry(Some(2)));
        assert!(!c.try_reserve_retry(Some(2)), "budget exhausted");
        assert_eq!(c.run_retries_used(), 2);
        // Unlimited budget still counts usage.
        let free = RunControl::new();
        assert!(free.try_reserve_retry(None));
        assert_eq!(free.run_retries_used(), 1);
    }

    #[test]
    fn policies_serialize_round_trip() {
        let r = ResilienceConfig::none()
            .with_retry(RetryPolicy::exponential(4, 200, 10_000).with_jitter(0.2, 3))
            .with_deadline(TaskDeadline::from_millis(250))
            .with_speculation(SpeculationPolicy::new(2.0).with_min_samples(4))
            .with_chaos(ChaosPlan::crashes(0.05, 11));
        let j = serde_json::to_string(&r).unwrap();
        let back: ResilienceConfig = serde_json::from_str(&j).unwrap();
        assert_eq!(r, back);
    }
}

//! Deterministic fault injection.
//!
//! The TOREADOR methodology treats fault tolerance as one of the design
//! dimensions trainees explore (a pipeline with retries costs more but
//! survives flaky infrastructure). [`ChaosPlan`] decides — deterministically
//! from a seed — whether and how a given task attempt fails, so the
//! scheduler's retry loop is exercised reproducibly in tests and
//! benchmarks. It has three fault kinds ([`FaultKind::Crash`],
//! [`FaultKind::Delay`], [`FaultKind::Panic`]), each with its own rate, plus
//! *targeted* schedules ("kill stage 2 partition 3 attempt 0") for
//! reproducing a specific failure ordering. Every decision is a pure
//! function of `(seed, stage, partition, attempt)`, so a chaos run replays
//! bit-identically.

use serde::{Deserialize, Serialize};

/// SplitMix64-style hash of the task coordinates into a uniform draw in
/// [0, 1). `salt` decorrelates independent consumers (fault decisions,
/// backoff jitter) that share a seed; `salt == 0` is the fault-decision
/// stream.
pub(crate) fn uniform(seed: u64, salt: u64, stage: usize, partition: usize, attempt: u32) -> f64 {
    let mut z = (seed ^ salt)
        .wrapping_add((stage as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add((partition as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add((attempt as u64).wrapping_mul(0x94d0_49bb_1331_11eb));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Clamp a probability into [0, 1], normalising NaN to 0.0. `f64::clamp`
/// passes NaN through, which would silently disable the `<= 0.0` /
/// `>= 1.0` fast paths downstream.
fn normalise_rate(rate: f64) -> f64 {
    if rate.is_nan() {
        0.0
    } else {
        rate.clamp(0.0, 1.0)
    }
}

/// What an injected fault does to the attempt it hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The executor is lost before the task body runs: the attempt fails
    /// and may be retried.
    Crash,
    /// The attempt stalls for `micros` before the body runs — the straggler
    /// / hung-task simulator. The stall is cooperative: a cancelled attempt
    /// wakes early instead of sleeping the full duration.
    Delay { micros: u64 },
    /// The task body panics. Panic isolation must turn this into a
    /// classified error instead of collapsing the worker pool.
    Panic,
}

/// One targeted fault: hit exactly (`stage`, `partition`, `attempt`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TargetedFault {
    pub stage: usize,
    pub partition: usize,
    pub attempt: u32,
    pub kind: FaultKind,
}

/// What a boundary kill point does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KillMode {
    /// Abort the run in-process with `FlowError::KilledAtBoundary` — the
    /// testable stand-in for process death, usable on a 16-thread pool
    /// inside one test binary.
    Halt,
    /// Really die: `std::process::exit(code)` without unwinding, the
    /// closest safe approximation of `kill -9` the CI harness can drive.
    Exit { code: i32 },
}

/// One deterministic process-kill point: fire when shuffle wave `wave`
/// completes (after its checkpoint is durable, before the next wave runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundaryKill {
    /// Zero-based shuffle-wave index within the run.
    pub wave: usize,
    pub kind: KillMode,
}

/// A deterministic chaos schedule: per-kind Bernoulli rates plus targeted
/// single-shot faults, all decided by pure functions of the coordinates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ChaosPlan {
    /// Seed decorrelating chaos decisions from everything else.
    pub seed: u64,
    /// Probability an attempt is crashed before its body runs.
    pub crash_rate: f64,
    /// Probability an attempt panics.
    pub panic_rate: f64,
    /// Probability an attempt is delayed by `delay_micros`.
    pub delay_rate: f64,
    /// Stall applied by rate-based delay faults, µs.
    pub delay_micros: u64,
    /// Targeted schedules, consulted before the rates.
    pub targeted: Vec<TargetedFault>,
    /// Stage-boundary kill points, fired after a wave's checkpoint lands.
    /// Absent in chaos plans serialized before this field existed, which
    /// therefore parse as empty.
    #[serde(default, deserialize_with = "de_boundary_kills")]
    pub boundary_kills: Vec<BoundaryKill>,
}

fn de_boundary_kills<'de, D: serde::Deserializer<'de>>(
    d: D,
) -> std::result::Result<Vec<BoundaryKill>, D::Error> {
    let v: Option<Vec<BoundaryKill>> = Deserialize::deserialize(d)?;
    Ok(v.unwrap_or_default())
}

impl ChaosPlan {
    /// No chaos at all.
    pub fn none() -> Self {
        ChaosPlan::default()
    }

    /// Rate-based crashes only: the classic "lost executor".
    pub fn crashes(rate: f64, seed: u64) -> Self {
        ChaosPlan {
            seed,
            crash_rate: normalise_rate(rate),
            ..ChaosPlan::default()
        }
    }

    /// Rate-based delays of `micros` each.
    pub fn delays(rate: f64, micros: u64, seed: u64) -> Self {
        ChaosPlan {
            seed,
            delay_rate: normalise_rate(rate),
            delay_micros: micros,
            ..ChaosPlan::default()
        }
    }

    /// Rate-based panics only.
    pub fn panics(rate: f64, seed: u64) -> Self {
        ChaosPlan {
            seed,
            panic_rate: normalise_rate(rate),
            ..ChaosPlan::default()
        }
    }

    pub fn with_panic_rate(mut self, rate: f64) -> Self {
        self.panic_rate = normalise_rate(rate);
        self
    }

    pub fn with_delays(mut self, rate: f64, micros: u64) -> Self {
        self.delay_rate = normalise_rate(rate);
        self.delay_micros = micros;
        self
    }

    /// Add one targeted fault.
    pub fn with_targeted(mut self, fault: TargetedFault) -> Self {
        self.targeted.push(fault);
        self
    }

    /// Add one stage-boundary kill point.
    pub fn with_boundary_kill(mut self, wave: usize, kind: KillMode) -> Self {
        self.boundary_kills.push(BoundaryKill { wave, kind });
        self
    }

    /// The kill scheduled for the boundary after shuffle wave `wave`, if
    /// any. Deterministic: purely a lookup of the schedule.
    pub fn kill_at_boundary(&self, wave: usize) -> Option<KillMode> {
        self.boundary_kills
            .iter()
            .find(|k| k.wave == wave)
            .map(|k| k.kind)
    }

    /// True when this plan can never inject anything.
    pub fn is_none(&self) -> bool {
        self.crash_rate <= 0.0
            && self.panic_rate <= 0.0
            && self.delay_rate <= 0.0
            && self.targeted.is_empty()
            && self.boundary_kills.is_empty()
    }

    /// Deterministically decide what (if anything) happens to attempt
    /// `attempt` of task (`stage`, `partition`). Targeted schedules win
    /// over rates; among rates, one uniform draw is banded crash → panic →
    /// delay so the kinds stay mutually exclusive per attempt.
    pub fn fault_for(&self, stage: usize, partition: usize, attempt: u32) -> Option<FaultKind> {
        for t in &self.targeted {
            if t.stage == stage && t.partition == partition && t.attempt == attempt {
                return Some(t.kind);
            }
        }
        let total = self.crash_rate + self.panic_rate + self.delay_rate;
        if total <= 0.0 {
            return None;
        }
        let u = uniform(self.seed, 0, stage, partition, attempt);
        if u < self.crash_rate {
            Some(FaultKind::Crash)
        } else if u < self.crash_rate + self.panic_rate {
            Some(FaultKind::Panic)
        } else if u < total {
            Some(FaultKind::Delay {
                micros: self.delay_micros,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crashed(c: &ChaosPlan, stage: usize, partition: usize, attempt: u32) -> bool {
        c.fault_for(stage, partition, attempt) == Some(FaultKind::Crash)
    }

    #[test]
    fn none_never_fails() {
        let c = ChaosPlan::none();
        for s in 0..10 {
            for p in 0..10 {
                assert_eq!(c.fault_for(s, p, 0), None);
            }
        }
    }

    #[test]
    fn rate_one_always_fails() {
        let c = ChaosPlan::crashes(1.0, 3);
        assert!(crashed(&c, 0, 0, 0));
        assert!(crashed(&c, 5, 9, 1));
    }

    #[test]
    fn decisions_are_deterministic() {
        let c = ChaosPlan::crashes(0.3, 42);
        for s in 0..5 {
            for p in 0..5 {
                for a in 0..3 {
                    assert_eq!(c.fault_for(s, p, a), c.fault_for(s, p, a));
                }
            }
        }
    }

    #[test]
    fn empirical_rate_close_to_requested() {
        let c = ChaosPlan::crashes(0.25, 7);
        let trials = 10_000;
        let failures = (0..trials)
            .filter(|&i| crashed(&c, i % 13, i / 13, (i % 3) as u32))
            .count();
        let rate = failures as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.03, "empirical rate {rate}");
    }

    #[test]
    fn different_attempts_get_fresh_draws() {
        let c = ChaosPlan::crashes(0.5, 11);
        let draws: Vec<bool> = (0..32).map(|a| crashed(&c, 1, 1, a)).collect();
        assert!(draws.iter().any(|&b| b) && draws.iter().any(|&b| !b));
    }

    #[test]
    fn constructor_clamps() {
        assert_eq!(ChaosPlan::crashes(7.0, 0).crash_rate, 1.0);
        assert_eq!(ChaosPlan::crashes(-1.0, 0).crash_rate, 0.0);
    }

    #[test]
    fn nan_rate_normalises_to_zero() {
        // f64::clamp propagates NaN, which would make every rate comparison
        // false-but-weird; the constructors must normalise it away.
        let c = ChaosPlan::crashes(f64::NAN, 1).with_panic_rate(f64::NAN);
        assert_eq!(c.crash_rate, 0.0);
        assert!(c.is_none());
        assert_eq!(c.fault_for(0, 0, 0), None);
    }

    #[test]
    fn chaos_rates_are_banded_and_deterministic() {
        let c = ChaosPlan {
            seed: 9,
            crash_rate: 0.2,
            panic_rate: 0.2,
            delay_rate: 0.2,
            delay_micros: 50,
            targeted: Vec::new(),
            boundary_kills: Vec::new(),
        };
        let mut counts = [0usize; 4]; // crash, panic, delay, none
        for i in 0..6_000 {
            let k = c.fault_for(i % 7, i / 7, (i % 4) as u32);
            assert_eq!(k, c.fault_for(i % 7, i / 7, (i % 4) as u32));
            match k {
                Some(FaultKind::Crash) => counts[0] += 1,
                Some(FaultKind::Panic) => counts[1] += 1,
                Some(FaultKind::Delay { micros }) => {
                    assert_eq!(micros, 50);
                    counts[2] += 1;
                }
                None => counts[3] += 1,
            }
        }
        for (i, &n) in counts.iter().enumerate() {
            let rate = n as f64 / 6_000.0;
            let expect = if i == 3 { 0.4 } else { 0.2 };
            assert!((rate - expect).abs() < 0.04, "band {i} rate {rate}");
        }
    }

    #[test]
    fn targeted_faults_override_rates() {
        let c = ChaosPlan::none().with_targeted(TargetedFault {
            stage: 2,
            partition: 3,
            attempt: 0,
            kind: FaultKind::Panic,
        });
        assert_eq!(c.fault_for(2, 3, 0), Some(FaultKind::Panic));
        assert_eq!(c.fault_for(2, 3, 1), None, "only attempt 0 is targeted");
        assert_eq!(c.fault_for(2, 4, 0), None);
        assert!(!c.is_none());
    }

    #[test]
    fn chaos_plans_serialize_round_trip() {
        let c = ChaosPlan::crashes(0.1, 3)
            .with_delays(0.05, 2_000)
            .with_targeted(TargetedFault {
                stage: 1,
                partition: 0,
                attempt: 2,
                kind: FaultKind::Delay { micros: 9 },
            })
            .with_boundary_kill(2, KillMode::Exit { code: 42 });
        let j = serde_json::to_string(&c).unwrap();
        let back: ChaosPlan = serde_json::from_str(&j).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn pre_kill_point_chaos_json_still_deserializes() {
        // Plans persisted before boundary_kills existed must parse.
        let j = r#"{"seed":3,"crash_rate":0.1,"panic_rate":0.0,"delay_rate":0.0,"delay_micros":0,"targeted":[]}"#;
        let back: ChaosPlan = serde_json::from_str(j).unwrap();
        assert!(back.boundary_kills.is_empty());
        assert_eq!(back, ChaosPlan::crashes(0.1, 3));
    }

    #[test]
    fn boundary_kills_are_wave_keyed_and_count_against_is_none() {
        let c = ChaosPlan::none()
            .with_boundary_kill(1, KillMode::Halt)
            .with_boundary_kill(3, KillMode::Exit { code: 42 });
        assert!(!c.is_none());
        assert_eq!(c.kill_at_boundary(0), None);
        assert_eq!(c.kill_at_boundary(1), Some(KillMode::Halt));
        assert_eq!(c.kill_at_boundary(2), None);
        assert_eq!(c.kill_at_boundary(3), Some(KillMode::Exit { code: 42 }));
        // Kill points never touch the per-task fault stream.
        assert_eq!(c.fault_for(1, 0, 0), None);
    }
}

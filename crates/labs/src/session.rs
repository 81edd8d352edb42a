//! Lab sessions: "free-limited access to TOREADOR using a
//! Platform-as-a-Service solution" (§3).
//!
//! A [`LabSession`] is one trainee's sandbox. The free tier meters three
//! resources — runs, rows per run, and cumulative abstract cost — and
//! refuses work past the quota, exactly the gating the paper's PaaS
//! offering applied. All run history stays in the session, feeding the
//! comparison and scoring machinery.

use toreador_core::compile::Bdaas;
use toreador_core::declarative::Indicator;

use crate::catalog::challenge;
use crate::challenge::ChoiceVector;
use crate::compare::{ConsequenceMatrix, RunComparison};
use crate::error::{LabsError, Result};
use crate::run::{execute_attempt, RunRecord};
use crate::score::{assess, Score};

/// Free-tier resource limits. Serialises with an infinite cost budget
/// mapped to JSON `null` (JSON has no infinity).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Quota {
    pub max_runs: u64,
    pub max_rows_per_run: usize,
    #[serde(serialize_with = "ser_maybe_inf", deserialize_with = "de_maybe_inf")]
    pub max_total_cost: f64,
}

/// What is left of a [`Quota`] after some usage; both components saturate
/// at zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaRemaining {
    pub runs: u64,
    pub cost: f64,
}

impl Quota {
    /// The default free tier.
    pub fn free_tier() -> Self {
        Quota {
            max_runs: 20,
            max_rows_per_run: 10_000,
            max_total_cost: 2_000.0,
        }
    }

    /// An effectively unmetered quota (for paid tiers / benchmarks).
    pub fn unlimited() -> Self {
        Quota {
            max_runs: u64::MAX,
            max_rows_per_run: usize::MAX,
            max_total_cost: f64::INFINITY,
        }
    }

    /// Headroom left after `used_runs` runs that spent `used_cost`.
    pub fn remaining(&self, used_runs: u64, used_cost: f64) -> QuotaRemaining {
        QuotaRemaining {
            runs: self.max_runs.saturating_sub(used_runs),
            cost: (self.max_total_cost - used_cost).max(0.0),
        }
    }
}

/// The per-trainee state the durable store keeps alongside run records:
/// quota, cumulative cost and the data seed — everything needed to resume
/// a session in a fresh process.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SessionMeta {
    pub quota: Quota,
    pub total_cost: f64,
    pub seed: u64,
}

/// The [`toreador_store::LabStore`] instantiation the Labs persist into:
/// session meta plus [`RunRecord`]s, with attempt scores keyed by
/// `(trainee, run_id)`.
pub type SessionStore = toreador_store::LabStore<SessionMeta, RunRecord>;

/// One trainee's session.
pub struct LabSession {
    pub trainee: String,
    quota: Quota,
    bdaas: Bdaas,
    history: Vec<RunRecord>,
    total_cost: f64,
    seed: u64,
    /// When present, every attempt is committed to the WAL-backed store
    /// before it is reported back to the trainee.
    store: Option<SessionStore>,
}

impl LabSession {
    pub fn new(trainee: impl Into<String>, quota: Quota, seed: u64) -> Self {
        LabSession {
            trainee: trainee.into(),
            quota,
            bdaas: Bdaas::new(),
            history: Vec::new(),
            total_cost: 0.0,
            seed,
            store: None,
        }
    }

    /// Open a durable session backed by `store`. A trainee already known
    /// to the store resumes with their persisted quota, cost, seed and
    /// full run history (`quota` and `seed` are ignored); a new trainee
    /// is registered with the given quota and seed.
    pub fn open(
        mut store: SessionStore,
        trainee: impl Into<String>,
        quota: Quota,
        seed: u64,
    ) -> Result<LabSession> {
        let trainee = trainee.into();
        let resumed = store.trainee(&trainee).map(|state| {
            let mut history: Vec<RunRecord> = state.runs.values().cloned().collect();
            for r in &mut history {
                r.migrate();
            }
            (state.meta.clone(), history)
        });
        let (meta, history) = match resumed {
            Some(found) => found,
            None => {
                let meta = SessionMeta {
                    quota,
                    total_cost: 0.0,
                    seed,
                };
                store.put_meta(&trainee, &meta)?;
                (meta, Vec::new())
            }
        };
        Ok(LabSession {
            trainee,
            quota: meta.quota,
            bdaas: Bdaas::new(),
            history,
            total_cost: meta.total_cost,
            seed: meta.seed,
            store: Some(store),
        })
    }

    /// The backing store, when the session is durable.
    pub fn store(&self) -> Option<&SessionStore> {
        self.store.as_ref()
    }

    pub fn quota(&self) -> Quota {
        self.quota
    }

    pub fn runs_used(&self) -> u64 {
        self.history.len() as u64
    }

    pub fn cost_used(&self) -> f64 {
        self.total_cost
    }

    pub fn history(&self) -> &[RunRecord] {
        &self.history
    }

    /// Attempt a challenge with the given choices. `rows` defaults to the
    /// scenario's default size, capped by the quota.
    pub fn attempt(
        &mut self,
        challenge_id: &str,
        choices: &ChoiceVector,
        rows: Option<usize>,
    ) -> Result<&RunRecord> {
        let left = self.quota.remaining(self.runs_used(), self.total_cost);
        if left.runs == 0 {
            return Err(LabsError::QuotaExceeded(format!(
                "run limit reached ({} of {})",
                self.runs_used(),
                self.quota.max_runs
            )));
        }
        if left.cost <= 0.0 {
            return Err(LabsError::QuotaExceeded(format!(
                "cost budget exhausted ({:.1} of {:.1})",
                self.total_cost, self.quota.max_total_cost
            )));
        }
        let c = challenge(challenge_id)?;
        let scen = crate::scenario::scenario(c.scenario_id)?;
        let rows = rows
            .unwrap_or(scen.default_rows)
            .min(self.quota.max_rows_per_run);
        let run_id = self.history.iter().map(|r| r.run_id).max().unwrap_or(0) + 1;
        let record = execute_attempt(&self.bdaas, &c, choices, run_id, Some(rows), self.seed)?;
        let total_cost = self.total_cost + record.indicator(Indicator::Cost).unwrap_or(0.0);
        // WAL-commit the run, its score and the updated meter as one
        // record before the attempt is reported — a crash after this point
        // loses nothing, and a crash during it loses all three together.
        if let Some(store) = self.store.as_mut() {
            store.put_attempt(
                &self.trainee,
                record.run_id,
                &record,
                assess(&c, &record).total,
                &SessionMeta {
                    quota: self.quota,
                    total_cost,
                    seed: self.seed,
                },
            )?;
        }
        self.total_cost = total_cost;
        self.history.push(record);
        Ok(self.history.last().expect("just pushed"))
    }

    /// Retrieve a past run by id.
    pub fn run(&self, run_id: u64) -> Result<&RunRecord> {
        self.history
            .iter()
            .find(|r| r.run_id == run_id)
            .ok_or_else(|| LabsError::Unknown(format!("run {run_id}")))
    }

    /// Diff two past runs.
    pub fn compare(&self, run_a: u64, run_b: u64) -> Result<RunComparison> {
        RunComparison::diff(self.run(run_a)?, self.run(run_b)?)
    }

    /// Consequence matrix over all runs of one challenge in this session.
    pub fn consequences(&self, challenge_id: &str) -> Result<ConsequenceMatrix> {
        let records: Vec<RunRecord> = self
            .history
            .iter()
            .filter(|r| r.challenge_id == challenge_id)
            .cloned()
            .collect();
        ConsequenceMatrix::build(&records)
    }

    /// Grade a past run.
    pub fn score(&self, run_id: u64) -> Result<Score> {
        let record = self.run(run_id)?;
        let c = challenge(&record.challenge_id)?;
        Ok(assess(&c, record))
    }

    /// The best-scoring run of a challenge, if any.
    pub fn best_run(&self, challenge_id: &str) -> Option<(u64, f64)> {
        self.history
            .iter()
            .filter(|r| r.challenge_id == challenge_id)
            .filter_map(|r| self.score(r.run_id).ok().map(|s| (r.run_id, s.total)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Serialise the session (trainee, quota usage, full run history) to
    /// JSON — the Labs let trainees come back to yesterday's experiments.
    pub fn export(&self) -> String {
        let snapshot = SessionSnapshot {
            trainee: self.trainee.clone(),
            max_runs: self.quota.max_runs,
            max_rows_per_run: self.quota.max_rows_per_run,
            max_total_cost: self.quota.max_total_cost,
            total_cost: self.total_cost,
            seed: self.seed,
            history: self.history.clone(),
        };
        serde_json::to_string_pretty(&snapshot).expect("session snapshot serialises")
    }

    /// Restore a session from [`LabSession::export`] output. Quota usage
    /// and history resume exactly where they stopped.
    pub fn import(json: &str) -> Result<LabSession> {
        let snapshot: SessionSnapshot = serde_json::from_str(json)
            .map_err(|e| LabsError::Unknown(format!("bad session snapshot: {e}")))?;
        Ok(LabSession {
            trainee: snapshot.trainee,
            quota: Quota {
                max_runs: snapshot.max_runs,
                max_rows_per_run: snapshot.max_rows_per_run,
                max_total_cost: snapshot.max_total_cost,
            },
            bdaas: Bdaas::new(),
            history: snapshot.history,
            total_cost: snapshot.total_cost,
            seed: snapshot.seed,
            store: None,
        })
    }
}

/// The serialised form of a session. Infinite cost budgets survive the trip
/// because JSON `null` maps back to infinity.
#[derive(serde::Serialize, serde::Deserialize)]
struct SessionSnapshot {
    trainee: String,
    max_runs: u64,
    max_rows_per_run: usize,
    #[serde(serialize_with = "ser_maybe_inf", deserialize_with = "de_maybe_inf")]
    max_total_cost: f64,
    total_cost: f64,
    seed: u64,
    history: Vec<RunRecord>,
}

fn ser_maybe_inf<S: serde::Serializer>(v: &f64, s: S) -> std::result::Result<S::Ok, S::Error> {
    if v.is_finite() {
        s.serialize_some(v)
    } else {
        s.serialize_none()
    }
}

fn de_maybe_inf<'de, D: serde::Deserializer<'de>>(d: D) -> std::result::Result<f64, D::Error> {
    let opt: Option<f64> = serde::Deserialize::deserialize(d)?;
    Ok(opt.unwrap_or(f64::INFINITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_session(max_runs: u64) -> LabSession {
        LabSession::new(
            "ada",
            Quota {
                max_runs,
                max_rows_per_run: 600,
                max_total_cost: 1e9,
            },
            7,
        )
    }

    #[test]
    fn attempts_accumulate_history() {
        let mut s = tiny_session(10);
        let c = challenge("ecomm-revenue").unwrap();
        s.attempt("ecomm-revenue", &c.reference_vector(), Some(400))
            .unwrap();
        s.attempt(
            "ecomm-revenue",
            &vec!["sample".into(), "batch".into()],
            Some(400),
        )
        .unwrap();
        assert_eq!(s.runs_used(), 2);
        assert!(s.cost_used() > 0.0);
        assert_eq!(s.history()[0].run_id, 1);
        assert_eq!(s.history()[1].run_id, 2);
    }

    #[test]
    fn run_quota_enforced() {
        let mut s = tiny_session(1);
        let c = challenge("ecomm-revenue").unwrap();
        s.attempt("ecomm-revenue", &c.reference_vector(), Some(300))
            .unwrap();
        let err = s
            .attempt("ecomm-revenue", &c.reference_vector(), Some(300))
            .unwrap_err();
        assert!(matches!(err, LabsError::QuotaExceeded(_)));
    }

    #[test]
    fn rows_capped_by_quota() {
        let mut s = tiny_session(5);
        let c = challenge("ecomm-revenue").unwrap();
        let r = s
            .attempt("ecomm-revenue", &c.reference_vector(), Some(1_000_000))
            .unwrap();
        assert_eq!(r.rows_in, 600, "row cap applied");
    }

    #[test]
    fn cost_budget_enforced() {
        let mut s = LabSession::new(
            "bob",
            Quota {
                max_runs: 100,
                max_rows_per_run: 500,
                max_total_cost: 0.5,
            },
            3,
        );
        let c = challenge("ecomm-revenue").unwrap();
        // First run is admitted (budget not yet spent), second refused.
        s.attempt("ecomm-revenue", &c.reference_vector(), Some(500))
            .unwrap();
        let err = s
            .attempt("ecomm-revenue", &c.reference_vector(), Some(500))
            .unwrap_err();
        assert!(matches!(err, LabsError::QuotaExceeded(_)));
    }

    #[test]
    fn compare_and_consequences_over_session_history() {
        let mut s = tiny_session(10);
        s.attempt(
            "ecomm-revenue",
            &vec!["full".into(), "batch".into()],
            Some(500),
        )
        .unwrap();
        s.attempt(
            "ecomm-revenue",
            &vec!["sample".into(), "batch".into()],
            Some(500),
        )
        .unwrap();
        let d = s.compare(1, 2).unwrap();
        assert_eq!(d.choice_diffs.len(), 1);
        let m = s.consequences("ecomm-revenue").unwrap();
        assert_eq!(m.rows.len(), 2);
        assert!(s.compare(1, 99).is_err());
    }

    #[test]
    fn export_import_round_trip_resumes_quota_and_history() {
        let mut s = tiny_session(3);
        let c = challenge("ecomm-revenue").unwrap();
        s.attempt("ecomm-revenue", &c.reference_vector(), Some(300))
            .unwrap();
        s.attempt(
            "ecomm-revenue",
            &vec!["sample".into(), "batch".into()],
            Some(300),
        )
        .unwrap();
        let json = s.export();
        let mut restored = LabSession::import(&json).unwrap();
        assert_eq!(restored.trainee, "ada");
        assert_eq!(restored.runs_used(), 2);
        assert_eq!(restored.history(), s.history());
        assert!((restored.cost_used() - s.cost_used()).abs() < 1e-12);
        // Comparison still works on restored history.
        assert!(restored.compare(1, 2).is_ok());
        // Quota continues: one run left, then refused.
        restored
            .attempt("ecomm-revenue", &c.reference_vector(), Some(300))
            .unwrap();
        assert!(restored
            .attempt("ecomm-revenue", &c.reference_vector(), Some(300))
            .is_err());
    }

    #[test]
    fn infinite_cost_budget_survives_round_trip() {
        let s = LabSession::new("x", Quota::unlimited(), 1);
        let restored = LabSession::import(&s.export()).unwrap();
        assert!(restored.quota().max_total_cost.is_infinite());
        assert!(LabSession::import("{not json").is_err());
    }

    #[test]
    fn quota_remaining_saturates_and_serialises() {
        let q = Quota::free_tier();
        let left = q.remaining(5, 100.0);
        assert_eq!(left.runs, 15);
        assert!((left.cost - 1900.0).abs() < 1e-9);
        let spent = q.remaining(25, 5000.0);
        assert_eq!(spent.runs, 0);
        assert_eq!(spent.cost, 0.0);
        assert!(Quota::unlimited().remaining(1000, 1e12).cost.is_infinite());
        // Quota round-trips through serde, infinite budget included.
        let back: Quota =
            serde_json::from_str(&serde_json::to_string(&Quota::unlimited()).unwrap()).unwrap();
        assert!(back.max_total_cost.is_infinite());
        let back: Quota =
            serde_json::from_str(&serde_json::to_string(&Quota::free_tier()).unwrap()).unwrap();
        assert_eq!(back, Quota::free_tier());
    }

    #[test]
    fn durable_sessions_resume_across_store_reopens() {
        let dir = std::env::temp_dir().join(format!(
            "toreador-labs-session-store-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let quota = Quota {
            max_runs: 3,
            max_rows_per_run: 600,
            max_total_cost: 1e9,
        };
        let c = challenge("ecomm-revenue").unwrap();
        {
            let store = SessionStore::open(&dir).unwrap();
            let mut s = LabSession::open(store, "ada", quota, 7).unwrap();
            s.attempt("ecomm-revenue", &c.reference_vector(), Some(300))
                .unwrap();
            s.attempt(
                "ecomm-revenue",
                &vec!["sample".into(), "batch".into()],
                Some(300),
            )
            .unwrap();
            // Every attempt was committed as it happened; the session is
            // simply dropped, as a crash would.
        }
        let store = SessionStore::open(&dir).unwrap();
        // Scores were persisted keyed by (trainee, run_id).
        assert!(store.score("ada", 1).is_some());
        assert!(store.score("ada", 2).is_some());
        let mut s = LabSession::open(store, "ada", Quota::free_tier(), 999).unwrap();
        assert_eq!(s.runs_used(), 2);
        assert!(s.cost_used() > 0.0);
        assert_eq!(s.quota().max_runs, 3, "persisted quota wins");
        assert_eq!(s.seed, 7, "persisted seed wins");
        assert!(s.compare(1, 2).is_ok(), "history resumed with traces");
        // The quota continues from disk: one run left, then refused.
        let r = s
            .attempt("ecomm-revenue", &c.reference_vector(), Some(300))
            .unwrap();
        assert_eq!(r.run_id, 3, "run ids continue past restored history");
        assert!(s
            .attempt("ecomm-revenue", &c.reference_vector(), Some(300))
            .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scoring_and_best_run() {
        let mut s = tiny_session(10);
        let c = challenge("ecomm-revenue").unwrap();
        s.attempt("ecomm-revenue", &c.reference_vector(), Some(500))
            .unwrap();
        s.attempt(
            "ecomm-revenue",
            &vec!["sample".into(), "stream".into()],
            Some(500),
        )
        .unwrap();
        let s1 = s.score(1).unwrap();
        let s2 = s.score(2).unwrap();
        assert!(s1.total > 0.0 && s2.total > 0.0);
        let (best_id, best_score) = s.best_run("ecomm-revenue").unwrap();
        assert_eq!(best_score, s1.total.max(s2.total));
        assert!(best_id == 1 || best_id == 2);
        assert!(s.best_run("no-such").is_none());
    }
}

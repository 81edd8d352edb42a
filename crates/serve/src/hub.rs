//! The session hub: multi-tenant Labs state behind the wire protocol.
//!
//! One hub owns the WAL-backed [`SessionStore`], the per-tenant quota
//! meters, the plan cache, and the registry of in-flight attempts. The
//! flow of one attempt:
//!
//! 1. **Reserve** — under the tenant lock, check the quota counting both
//!    committed runs *and* reservations already in flight (so two
//!    concurrent attempts cannot both claim the last run), check the
//!    per-tenant in-flight cap, cap the rows, and claim a run id.
//! 2. **Compile** — through the [`PlanCache`]: identical concurrent
//!    compiles coalesce onto one plan.
//! 3. **Execute** — `execute_prepared` on a clone of the shared plan with
//!    a per-attempt [`RunControl`] attached (drain cancels through it)
//!    and a thread budget capped so concurrent attempts don't
//!    oversubscribe the host. No hub lock is held during execution.
//! 4. **Commit** — run, score and updated meta WAL-committed as one
//!    record ([`SessionStore::put_attempt`]: one frame, one fsync) under
//!    the store lock *alone* before the reply leaves; a crash after commit
//!    loses nothing, a crash during it loses all three together. The
//!    meter is read-modify-written from the store's own view inside that
//!    critical section, so two attempts of one tenant committing back to
//!    back cannot overwrite each other's cost.
//!
//! Failures release the reservation; the claimed run id is simply never
//! used (gaps in run ids are harmless — ids only need to be monotone).
//!
//! **Lock order.** `tenants → store`, and only [`SessionHub::open_session`]
//! nests them. An attempt takes `tenants` (reserve), then `store`
//! (commit), then `tenants` again (release) — one at a time, never one
//! inside the other — so the reserve step of every other attempt never
//! queues behind a commit's fsync.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use toreador_core::compile::Bdaas;
use toreador_core::declarative::Indicator;
use toreador_dataflow::resilience::RunControl;
use toreador_labs::prelude::*;
use toreador_store::StoreConfig;

use crate::coalesce::{plan_key, PlanCache, PlanSource};
use crate::proto::{
    AttemptReply, AttemptRequest, CompareReply, ErrorBody, ErrorClass, HistoryReply,
    OpenSessionRequest, SessionInfo,
};

/// Hub tuning.
#[derive(Debug, Clone)]
pub struct HubConfig {
    /// Max attempts one tenant may have executing at once.
    pub tenant_inflight: usize,
    /// Engine threads granted to each attempt.
    pub threads_per_attempt: usize,
    /// Quota granted to tenants the store has never seen.
    pub default_quota: Quota,
    /// Default data seed for new tenants.
    pub default_seed: u64,
}

impl Default for HubConfig {
    fn default() -> Self {
        HubConfig {
            tenant_inflight: 2,
            threads_per_attempt: 2,
            default_quota: Quota::free_tier(),
            default_seed: 7,
        }
    }
}

/// A typed service error: a class the wire protocol understands plus a
/// message.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeError {
    pub class: ErrorClass,
    pub message: String,
}

impl ServeError {
    pub fn new(class: ErrorClass, message: impl Into<String>) -> ServeError {
        ServeError {
            class,
            message: message.into(),
        }
    }

    /// The wire body for this error.
    pub fn body(&self) -> ErrorBody {
        ErrorBody {
            class: self.class,
            message: self.message.clone(),
        }
    }
}

fn labs_err(e: LabsError) -> ServeError {
    let class = match &e {
        LabsError::QuotaExceeded(_) => ErrorClass::QuotaExceeded,
        LabsError::Unknown(_) => ErrorClass::Unknown,
        LabsError::BadChoice(_) => ErrorClass::BadRequest,
        _ => ErrorClass::Internal,
    };
    ServeError::new(class, e.to_string())
}

/// Result alias for hub operations.
pub type ServeResult<T> = Result<T, ServeError>;

/// In-memory quota meter for one tenant. `committed_*` mirror the store;
/// `reserved` counts attempts admitted but not yet committed.
#[derive(Debug)]
struct Tenant {
    quota: Quota,
    seed: u64,
    committed_runs: u64,
    committed_cost: f64,
    next_run_id: u64,
    reserved: usize,
}

/// One executing attempt, registered so drain can cancel it.
#[derive(Debug)]
struct RunningAttempt {
    control: RunControl,
}

/// The multi-tenant Labs service state. Thread-safe: server connection
/// threads share one hub behind an `Arc`.
pub struct SessionHub {
    bdaas: Bdaas,
    cfg: HubConfig,
    store: Mutex<SessionStore>,
    tenants: Mutex<BTreeMap<String, Tenant>>,
    plans: PlanCache,
    /// (trainee, run_id) -> cancel handle, for every executing attempt.
    running: Mutex<BTreeMap<(String, u64), RunningAttempt>>,
    /// Notified whenever `running` empties (the drain waits on it).
    running_idle: Condvar,
    completed: AtomicU64,
    rejected_quota: AtomicU64,
    rejected_busy: AtomicU64,
}

impl SessionHub {
    /// Open the store in `dir` (taking its directory lock) and build the
    /// hub around it.
    pub fn open(dir: &std::path::Path, cfg: HubConfig) -> ServeResult<SessionHub> {
        // Serving appends run records continuously; snapshot less often
        // than the interactive default so compaction isn't the bottleneck.
        let store_cfg = StoreConfig {
            snapshot_every: 1024,
            ..StoreConfig::default()
        };
        let store = SessionStore::open_with(dir, store_cfg)
            .map_err(|e| ServeError::new(ErrorClass::Internal, e.to_string()))?;
        Ok(SessionHub::with_store(store, cfg))
    }

    /// Build a hub over an already-open store (tests).
    pub fn with_store(store: SessionStore, cfg: HubConfig) -> SessionHub {
        SessionHub {
            bdaas: Bdaas::new(),
            cfg,
            store: Mutex::new(store),
            tenants: Mutex::new(BTreeMap::new()),
            plans: PlanCache::new(),
            running: Mutex::new(BTreeMap::new()),
            running_idle: Condvar::new(),
            completed: AtomicU64::new(0),
            rejected_quota: AtomicU64::new(0),
            rejected_busy: AtomicU64::new(0),
        }
    }

    /// Open (or resume) a tenant session. Mirrors `LabSession::open`:
    /// persisted quota and seed win for a known trainee.
    pub fn open_session(&self, req: &OpenSessionRequest) -> ServeResult<SessionInfo> {
        if req.trainee.is_empty() {
            return Err(ServeError::new(
                ErrorClass::BadRequest,
                "trainee name must not be empty",
            ));
        }
        let mut tenants = self.tenants.lock().expect("tenants poisoned");
        if let Some(t) = tenants.get(&req.trainee) {
            return Ok(SessionInfo {
                trainee: req.trainee.clone(),
                quota: t.quota,
                runs_used: t.committed_runs,
                cost_used: t.committed_cost,
                seed: t.seed,
                resumed: true,
            });
        }
        let mut store = self.store.lock().expect("store poisoned");
        let (tenant, resumed) = match store.trainee(&req.trainee) {
            Some(state) => (
                Tenant {
                    quota: state.meta.quota,
                    seed: state.meta.seed,
                    committed_runs: state.runs.len() as u64,
                    committed_cost: state.meta.total_cost,
                    next_run_id: store.next_run_id(&req.trainee),
                    reserved: 0,
                },
                true,
            ),
            None => {
                let quota = req.quota.unwrap_or(self.cfg.default_quota);
                let seed = req.seed.unwrap_or(self.cfg.default_seed);
                let meta = SessionMeta {
                    quota,
                    total_cost: 0.0,
                    seed,
                };
                store
                    .put_meta(&req.trainee, &meta)
                    .map_err(|e| ServeError::new(ErrorClass::Internal, e.to_string()))?;
                (
                    Tenant {
                        quota,
                        seed,
                        committed_runs: 0,
                        committed_cost: 0.0,
                        next_run_id: 1,
                        reserved: 0,
                    },
                    false,
                )
            }
        };
        drop(store);
        let info = SessionInfo {
            trainee: req.trainee.clone(),
            quota: tenant.quota,
            runs_used: tenant.committed_runs,
            cost_used: tenant.committed_cost,
            seed: tenant.seed,
            resumed,
        };
        tenants.insert(req.trainee.clone(), tenant);
        Ok(info)
    }

    /// Execute one attempt end to end (reserve → compile → run → commit).
    /// The caller has already passed service-wide admission; this enforces
    /// the per-tenant limits.
    pub fn attempt(&self, req: &AttemptRequest) -> ServeResult<AttemptReply> {
        let challenge = challenge(&req.challenge).map_err(labs_err)?;
        let scen = scenario(challenge.scenario_id).map_err(labs_err)?;

        // 1. Reserve under the tenant lock.
        let (run_id, rows, seed, control) = {
            let mut tenants = self.tenants.lock().expect("tenants poisoned");
            let tenant = tenants.get_mut(&req.trainee).ok_or_else(|| {
                ServeError::new(
                    ErrorClass::Unknown,
                    format!(
                        "no open session for trainee {:?} (open one first)",
                        req.trainee
                    ),
                )
            })?;
            if tenant.reserved >= self.cfg.tenant_inflight {
                self.rejected_busy.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::new(
                    ErrorClass::Busy,
                    format!(
                        "trainee {:?} already has {} attempts in flight (limit {})",
                        req.trainee, tenant.reserved, self.cfg.tenant_inflight
                    ),
                ));
            }
            let claimed = tenant.committed_runs + tenant.reserved as u64;
            let left = tenant.quota.remaining(claimed, tenant.committed_cost);
            if left.runs == 0 {
                self.rejected_quota.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::new(
                    ErrorClass::QuotaExceeded,
                    format!("run limit reached ({claimed} of {})", tenant.quota.max_runs),
                ));
            }
            if left.cost <= 0.0 {
                self.rejected_quota.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::new(
                    ErrorClass::QuotaExceeded,
                    format!(
                        "cost budget exhausted ({:.1} of {:.1})",
                        tenant.committed_cost, tenant.quota.max_total_cost
                    ),
                ));
            }
            let rows = req
                .rows
                .unwrap_or(scen.default_rows)
                .min(tenant.quota.max_rows_per_run)
                .max(1);
            let run_id = tenant.next_run_id;
            tenant.next_run_id += 1;
            tenant.reserved += 1;
            (run_id, rows, tenant.seed, RunControl::new())
        };
        self.running.lock().expect("running poisoned").insert(
            (req.trainee.clone(), run_id),
            RunningAttempt {
                control: control.clone(),
            },
        );

        // 2–4 with the reservation held; always release it.
        let outcome = self.attempt_reserved(req, &challenge, run_id, rows, seed, &control);
        {
            let mut running = self.running.lock().expect("running poisoned");
            running.remove(&(req.trainee.clone(), run_id));
            if running.is_empty() {
                self.running_idle.notify_all();
            }
        }
        {
            let mut tenants = self.tenants.lock().expect("tenants poisoned");
            if let Some(t) = tenants.get_mut(&req.trainee) {
                t.reserved = t.reserved.saturating_sub(1);
                if let Ok((_, cost)) = &outcome {
                    t.committed_runs += 1;
                    t.committed_cost += cost;
                }
            }
        }
        let (reply, _) = outcome?;
        self.completed.fetch_add(1, Ordering::Relaxed);
        Ok(reply)
    }

    /// The compile + execute + commit half of [`Self::attempt`]. Returns
    /// the reply and the attempt's cost (the caller updates the meter).
    fn attempt_reserved(
        &self,
        req: &AttemptRequest,
        challenge: &Challenge,
        run_id: u64,
        rows: usize,
        seed: u64,
        control: &RunControl,
    ) -> ServeResult<(AttemptReply, f64)> {
        let choices: ChoiceVector = req.choices.clone();
        let spec = challenge.instantiate(&choices).map_err(labs_err)?;
        let scen = scenario(challenge.scenario_id).map_err(labs_err)?;

        // 2. Compile through the single-flight cache. The schema does not
        // depend on the row count, so a 1-row sample is enough to compile
        // against; `rows` still keys the cache because planning is
        // cost-based.
        let key = plan_key(spec.fingerprint(), rows);
        let (plan, source) = self
            .plans
            .get_or_compile(key, || {
                let sample = scen.generate(1, seed);
                self.bdaas
                    .compile(&spec, sample.schema(), rows)
                    .map_err(|e| e.to_string())
            })
            .map_err(|m| ServeError::new(ErrorClass::Internal, format!("campaign failed: {m}")))?;

        // 3. Execute on a private clone of the shared plan with this
        // attempt's control and thread budget attached.
        let mut owned = (*plan).clone();
        owned.deployment.engine_config = owned
            .deployment
            .engine_config
            .clone()
            .with_threads(self.cfg.threads_per_attempt)
            .with_control(control.clone());
        let record = execute_prepared(&self.bdaas, challenge, &choices, run_id, rows, seed, &owned)
            .map_err(|e| {
                if control.is_cancelled() {
                    ServeError::new(ErrorClass::ShuttingDown, format!("attempt cancelled: {e}"))
                } else {
                    labs_err(e)
                }
            })?;
        let cost = record.indicator(Indicator::Cost).unwrap_or(0.0);
        let runtime_ms = record.indicator(Indicator::RuntimeMs).unwrap_or(0.0);
        let score = assess(challenge, &record).total;

        // 4. WAL-commit run + score + updated meta as one record before
        // replying. Only the store lock is held across the fsync; quota,
        // seed and the cost so far come from the store's own view, which
        // this critical section is the only writer of.
        let (runs_used, quota) = {
            let mut store = self.store.lock().expect("store poisoned");
            let state = store.trainee(&req.trainee).ok_or_else(|| {
                ServeError::new(
                    ErrorClass::Internal,
                    format!("open session {:?} is missing from the store", req.trainee),
                )
            })?;
            let mut meta = state.meta.clone();
            meta.total_cost += cost;
            let runs_used = state.runs.len() as u64 + 1;
            store
                .put_attempt(&req.trainee, run_id, &record, score, &meta)
                .map_err(|e| ServeError::new(ErrorClass::Internal, e.to_string()))?;
            (runs_used, meta.quota)
        };

        Ok((
            AttemptReply {
                trainee: req.trainee.clone(),
                run_id,
                challenge: challenge.id.to_owned(),
                score,
                rows_in: record.rows_in,
                rows_out: record.rows_out,
                cost,
                runtime_ms,
                runs_left: quota.max_runs.saturating_sub(runs_used),
                plan_cached: source == PlanSource::Shared,
            },
            cost,
        ))
    }

    /// Full history of one trainee, straight from the store.
    pub fn history(&self, trainee: &str) -> ServeResult<HistoryReply> {
        let store = self.store.lock().expect("store poisoned");
        let state = store.trainee(trainee).ok_or_else(|| {
            ServeError::new(ErrorClass::Unknown, format!("unknown trainee {trainee:?}"))
        })?;
        Ok(HistoryReply::from_state(trainee, state))
    }

    /// One full run record as JSON (traces included).
    pub fn run_record(&self, trainee: &str, run_id: u64) -> ServeResult<serde_json::Value> {
        let store = self.store.lock().expect("store poisoned");
        let record = store.run(trainee, run_id).ok_or_else(|| {
            ServeError::new(
                ErrorClass::Unknown,
                format!("no run {run_id} for trainee {trainee:?}"),
            )
        })?;
        serde_json::to_value(record)
            .map_err(|e| ServeError::new(ErrorClass::Internal, e.to_string()))
    }

    /// Diff two persisted runs of one trainee.
    pub fn compare(&self, trainee: &str, a: u64, b: u64) -> ServeResult<CompareReply> {
        let store = self.store.lock().expect("store poisoned");
        let find = |id: u64| {
            store.run(trainee, id).ok_or_else(|| {
                ServeError::new(
                    ErrorClass::Unknown,
                    format!("no run {id} for trainee {trainee:?}"),
                )
            })
        };
        let (ra, rb) = (find(a)?, find(b)?);
        let diff = RunComparison::diff(ra, rb)
            .map_err(|e| ServeError::new(ErrorClass::BadRequest, e.to_string()))?;
        Ok(CompareReply {
            trainee: trainee.to_owned(),
            run_a: a,
            run_b: b,
            choice_diffs: diff.choice_diffs,
            indicator_deltas: diff
                .indicator_deltas
                .iter()
                .filter_map(|d| Some((d.indicator.clone(), d.a?, d.b?)))
                .collect(),
        })
    }

    /// Hub-side counters for the status endpoint.
    pub fn counters(&self) -> HubCounters {
        HubCounters {
            completed: self.completed.load(Ordering::Relaxed),
            rejected_quota: self.rejected_quota.load(Ordering::Relaxed),
            rejected_busy: self.rejected_busy.load(Ordering::Relaxed),
            plans: self.plans.stats(),
            tenants: self.tenants.lock().expect("tenants poisoned").len(),
            running: self.running.lock().expect("running poisoned").len(),
        }
    }

    /// Cancel every executing attempt (drain). Returns how many were
    /// signalled. Callers then wait for the registry to empty.
    pub fn cancel_all(&self, reason: &str) -> usize {
        let running = self.running.lock().expect("running poisoned");
        for attempt in running.values() {
            attempt.control.cancel(reason);
        }
        running.len()
    }

    /// Block until no attempt is executing.
    pub fn wait_attempts_done(&self) {
        let mut running = self.running.lock().expect("running poisoned");
        while !running.is_empty() {
            running = self.running_idle.wait(running).expect("running poisoned");
        }
    }

    /// Flush and compact the store (the autosave half of shutdown: state
    /// is already WAL-durable; this folds it into a snapshot so the next
    /// open replays nothing).
    pub fn checkpoint_store(&self) -> ServeResult<()> {
        let mut store = self.store.lock().expect("store poisoned");
        store
            .compact()
            .and_then(|()| store.sync())
            .map_err(|e| ServeError::new(ErrorClass::Internal, e.to_string()))
    }
}

/// Counters [`SessionHub::counters`] reports.
#[derive(Debug, Clone, Copy)]
pub struct HubCounters {
    pub completed: u64,
    pub rejected_quota: u64,
    pub rejected_busy: u64,
    pub plans: crate::coalesce::PlanStats,
    pub tenants: usize,
    pub running: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("toreador-hub-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open_req(trainee: &str, max_runs: u64) -> OpenSessionRequest {
        OpenSessionRequest {
            trainee: trainee.to_owned(),
            quota: Some(Quota {
                max_runs,
                max_rows_per_run: 400,
                max_total_cost: 1e9,
            }),
            seed: Some(11),
        }
    }

    fn attempt_req(trainee: &str, rows: usize) -> AttemptRequest {
        AttemptRequest {
            trainee: trainee.to_owned(),
            challenge: "ecomm-revenue".to_owned(),
            choices: vec!["full".into(), "batch".into()],
            rows: Some(rows),
        }
    }

    #[test]
    fn attempt_flow_commits_and_meters() {
        let dir = tmp_dir("flow");
        let hub = SessionHub::open(&dir, HubConfig::default()).unwrap();
        let info = hub.open_session(&open_req("ada", 3)).unwrap();
        assert!(!info.resumed);
        let reply = hub.attempt(&attempt_req("ada", 300)).unwrap();
        assert_eq!(reply.run_id, 1);
        assert!(reply.score > 0.0);
        assert!(reply.cost > 0.0);
        assert_eq!(reply.runs_left, 2);
        assert!(!reply.plan_cached, "first compile is the leader");
        let reply2 = hub.attempt(&attempt_req("ada", 300)).unwrap();
        assert_eq!(reply2.run_id, 2);
        assert!(reply2.plan_cached, "same spec + rows hits the cache");
        // History reflects both runs with scores.
        let h = hub.history("ada").unwrap();
        assert_eq!(h.runs.len(), 2);
        assert!(h.runs.iter().all(|r| r.score.is_some()));
        // Compare works across the persisted records.
        let cmp = hub.compare("ada", 1, 2).unwrap();
        assert_eq!(cmp.choice_diffs.len(), 0, "same choices");
        assert!(!cmp.indicator_deltas.is_empty());
        // Quota: one left, then classified rejection.
        hub.attempt(&attempt_req("ada", 300)).unwrap();
        let err = hub.attempt(&attempt_req("ada", 300)).unwrap_err();
        assert_eq!(err.class, ErrorClass::QuotaExceeded);
        assert_eq!(hub.counters().rejected_quota, 1);
        drop(hub);
        // Everything survived in the store.
        let store = SessionStore::open(&dir).unwrap();
        assert_eq!(store.trainee("ada").unwrap().runs.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn attempts_without_a_session_are_unknown() {
        let dir = tmp_dir("nosession");
        let hub = SessionHub::open(&dir, HubConfig::default()).unwrap();
        let err = hub.attempt(&attempt_req("ghost", 100)).unwrap_err();
        assert_eq!(err.class, ErrorClass::Unknown);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_choices_are_bad_requests() {
        let dir = tmp_dir("badchoice");
        let hub = SessionHub::open(&dir, HubConfig::default()).unwrap();
        hub.open_session(&open_req("ada", 5)).unwrap();
        let mut req = attempt_req("ada", 100);
        req.choices = vec!["no-such-option".into()];
        let err = hub.attempt(&req).unwrap_err();
        assert_eq!(err.class, ErrorClass::BadRequest);
        let mut req = attempt_req("ada", 100);
        req.challenge = "no-such-challenge".into();
        assert_eq!(hub.attempt(&req).unwrap_err().class, ErrorClass::Unknown);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sessions_resume_from_the_store() {
        let dir = tmp_dir("resume");
        {
            let hub = SessionHub::open(&dir, HubConfig::default()).unwrap();
            hub.open_session(&open_req("ada", 5)).unwrap();
            hub.attempt(&attempt_req("ada", 200)).unwrap();
        }
        let hub = SessionHub::open(&dir, HubConfig::default()).unwrap();
        let info = hub.open_session(&open_req("ada", 99)).unwrap();
        assert!(info.resumed);
        assert_eq!(info.quota.max_runs, 5, "persisted quota wins");
        assert_eq!(info.runs_used, 1);
        assert!(info.cost_used > 0.0);
        // Run ids continue from the persisted history.
        let reply = hub.attempt(&attempt_req("ada", 200)).unwrap();
        assert_eq!(reply.run_id, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_reservations_cannot_oversubscribe_quota() {
        use std::sync::Arc;
        let dir = tmp_dir("reserve");
        let hub = Arc::new(
            SessionHub::open(
                &dir,
                HubConfig {
                    tenant_inflight: 8,
                    ..HubConfig::default()
                },
            )
            .unwrap(),
        );
        hub.open_session(&open_req("ada", 3)).unwrap();
        let mut threads = Vec::new();
        for _ in 0..8 {
            let hub = Arc::clone(&hub);
            threads.push(std::thread::spawn(move || {
                hub.attempt(&attempt_req("ada", 150)).map(|r| r.run_id)
            }));
        }
        let results: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        let ok: Vec<u64> = results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .copied()
            .collect();
        let quota_rejected = results
            .iter()
            .filter(|r| matches!(r, Err(e) if e.class == ErrorClass::QuotaExceeded))
            .count();
        assert_eq!(
            ok.len(),
            3,
            "exactly the quota's worth succeeded: {results:?}"
        );
        assert_eq!(quota_rejected, 5);
        // No two successes share a run id.
        let mut ids = ok.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Two attempts of one tenant committing side by side must both land
    /// in the persisted meter: `open_session` resumes from
    /// `meta.total_cost`, so a lost update under-charges the tenant after
    /// a restart.
    #[test]
    fn concurrent_attempts_of_one_tenant_both_reach_the_persisted_meter() {
        use std::sync::{Arc, Barrier};
        const ROUNDS: usize = 12;
        let dir = tmp_dir("meter");
        let hub = Arc::new(SessionHub::open(&dir, HubConfig::default()).unwrap());
        hub.open_session(&open_req("ada", 2 * ROUNDS as u64))
            .unwrap();
        let barrier = Arc::new(Barrier::new(2));
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let hub = Arc::clone(&hub);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut paid = 0.0;
                    for _ in 0..ROUNDS {
                        barrier.wait();
                        paid += hub.attempt(&attempt_req("ada", 150)).unwrap().cost;
                    }
                    paid
                })
            })
            .collect();
        let paid: f64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        drop(hub);

        let store = SessionStore::open(&dir).unwrap();
        let state = store.trainee("ada").unwrap();
        assert_eq!(state.runs.len(), 2 * ROUNDS);
        assert_eq!(state.scores.len(), 2 * ROUNDS);
        let recorded: f64 = state
            .runs
            .values()
            .map(|r| r.indicator(Indicator::Cost).unwrap_or(0.0))
            .sum();
        assert!(recorded > 0.0);
        assert!(
            (state.meta.total_cost - recorded).abs() < 1e-6 * recorded,
            "persisted meter {} != sum of persisted run costs {recorded}",
            state.meta.total_cost
        );
        assert!((paid - recorded).abs() < 1e-6 * recorded);
        // A restarted daemon resumes the tenant at the full charge.
        let hub = SessionHub::with_store(store, HubConfig::default());
        let info = hub.open_session(&open_req("ada", 1)).unwrap();
        assert!((info.cost_used - recorded).abs() < 1e-6 * recorded);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tenant_inflight_cap_rejects_as_busy() {
        let dir = tmp_dir("busy");
        let hub = SessionHub::open(
            &dir,
            HubConfig {
                tenant_inflight: 0, // clamps to nothing admitted concurrently
                ..HubConfig::default()
            },
        )
        .unwrap();
        hub.open_session(&open_req("ada", 5)).unwrap();
        let err = hub.attempt(&attempt_req("ada", 100)).unwrap_err();
        assert_eq!(err.class, ErrorClass::Busy);
        assert_eq!(hub.counters().rejected_busy, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_compacts_the_store() {
        let dir = tmp_dir("checkpoint");
        let hub = SessionHub::open(&dir, HubConfig::default()).unwrap();
        hub.open_session(&open_req("ada", 5)).unwrap();
        hub.attempt(&attempt_req("ada", 200)).unwrap();
        hub.checkpoint_store().unwrap();
        drop(hub);
        let store = SessionStore::open(&dir).unwrap();
        assert!(store.stats().snapshot_lsn > 0, "shutdown left a snapshot");
        assert_eq!(store.trainee("ada").unwrap().runs.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

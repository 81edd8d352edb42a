//! Concurrent access to one WAL-backed session store through the serving
//! hub: many threads, one store, every acknowledged attempt durable.
//!
//! The serving contract under test (DESIGN.md §12): an attempt is only
//! acknowledged after its run, score and updated meta are WAL-committed
//! (as one record), so a crash at any later instant loses nothing that
//! was acknowledged — even when a dozen threads were hammering the store
//! at the time.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use toreador_labs::prelude::*;
use toreador_serve::prelude::*;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("toreador-store-conc-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn open_req(trainee: &str, max_runs: u64) -> OpenSessionRequest {
    OpenSessionRequest {
        trainee: trainee.to_owned(),
        quota: Some(Quota {
            max_runs,
            max_rows_per_run: 300,
            max_total_cost: 1e9,
        }),
        seed: Some(13),
    }
}

fn attempt_req(trainee: &str, design: &[&str]) -> AttemptRequest {
    AttemptRequest {
        trainee: trainee.to_owned(),
        challenge: "ecomm-revenue".to_owned(),
        choices: design.iter().map(|s| s.to_string()).collect(),
        rows: Some(150),
    }
}

/// Drive `threads` worker threads against one hub: each opens (or
/// resumes) its tenant's session, then fires `attempts` attempts.
/// Returns every acknowledged (trainee, run_id, score).
fn hammer(
    hub: &Arc<SessionHub>,
    tenants: &[&str],
    threads: usize,
    attempts: usize,
) -> Vec<(String, u64, f64)> {
    let acked = Arc::new(Mutex::new(Vec::new()));
    let designs = [["full", "batch"], ["sample", "batch"], ["full", "stream"]];
    let mut workers = Vec::new();
    for t in 0..threads {
        let hub = Arc::clone(hub);
        let acked = Arc::clone(&acked);
        let trainee = tenants[t % tenants.len()].to_owned();
        workers.push(std::thread::spawn(move || {
            // Concurrent opens of the same tenant must be idempotent.
            hub.open_session(&open_req(&trainee, 1_000)).unwrap();
            for a in 0..attempts {
                let req = attempt_req(&trainee, &designs[(t + a) % designs.len()]);
                match hub.attempt(&req) {
                    Ok(reply) => {
                        assert!(reply.score > 0.0, "scored attempt");
                        acked
                            .lock()
                            .unwrap()
                            .push((trainee.clone(), reply.run_id, reply.score));
                    }
                    // Per-tenant in-flight caps may push back under this
                    // much concurrency; that is the only acceptable loss.
                    Err(e) => assert_eq!(e.class, ErrorClass::Busy, "unexpected: {e:?}"),
                }
            }
        }));
    }
    for w in workers {
        w.join().unwrap();
    }
    Arc::try_unwrap(acked).unwrap().into_inner().unwrap()
}

/// Every acknowledged attempt from `acked` is present in `store` with its
/// exact score, run ids are unique per tenant, and the store holds
/// nothing beyond what was acknowledged.
fn assert_store_matches(store: &SessionStore, acked: &[(String, u64, f64)]) {
    let mut per_tenant: BTreeMap<&str, Vec<(u64, f64)>> = BTreeMap::new();
    for (trainee, run_id, score) in acked {
        per_tenant
            .entry(trainee.as_str())
            .or_default()
            .push((*run_id, *score));
    }
    for (trainee, mut runs) in per_tenant {
        runs.sort_unstable_by_key(|(id, _)| *id);
        let ids: Vec<u64> = runs.iter().map(|(id, _)| *id).collect();
        let mut unique = ids.clone();
        unique.dedup();
        assert_eq!(ids, unique, "{trainee}: no two acks share a run id");
        let state = store
            .trainee(trainee)
            .unwrap_or_else(|| panic!("{trainee}: acknowledged attempts but no persisted state"));
        assert_eq!(
            state.runs.keys().copied().collect::<Vec<u64>>(),
            ids,
            "{trainee}: the store holds exactly the acknowledged runs"
        );
        for (id, score) in runs {
            assert_eq!(
                state.scores.get(&id).copied(),
                Some(score),
                "{trainee}/{id}: score committed with the run"
            );
        }
    }
}

/// Twelve threads, four tenants, one store: nothing acknowledged is lost,
/// nothing unacknowledged appears, and the quota meters reconcile.
#[test]
fn many_threads_one_store_loses_no_acknowledged_attempt() {
    let dir = tmp_dir("hammer");
    let tenants = ["ada", "bob", "cyd", "dee"];
    let hub = Arc::new(
        SessionHub::open(
            &dir,
            HubConfig {
                tenant_inflight: 4,
                threads_per_attempt: 1,
                ..HubConfig::default()
            },
        )
        .unwrap(),
    );
    let acked = hammer(&hub, &tenants, 12, 3);
    assert!(
        acked.len() >= tenants.len(),
        "the hammer made progress: {} acks",
        acked.len()
    );
    assert_eq!(hub.counters().completed as usize, acked.len());
    drop(hub); // releases the directory lock; state is WAL-only

    let store = SessionStore::open(&dir).unwrap();
    assert_store_matches(&store, &acked);
    // The persisted meters agree with what was committed: resuming each
    // tenant sees exactly its acknowledged runs.
    for trainee in tenants {
        let acks = acked.iter().filter(|(t, _, _)| t == trainee).count();
        assert_eq!(store.trainee(trainee).unwrap().runs.len(), acks);
        assert_eq!(store.next_run_id(trainee), acks as u64 + 1);
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Crash mid-load: the hub is dropped with no checkpoint and the WAL tail
/// is torn mid-record, as a power cut during a write would. Recovery is
/// deterministic — two independent reopens agree — and keeps every
/// acknowledged run and score (the tear can only clip the trailing,
/// unacknowledged record), with each tenant's persisted meter equal to
/// the cost of its recovered runs.
#[test]
fn torn_tail_under_concurrent_load_recovers_deterministically() {
    let dir = tmp_dir("crash");
    let tenants = ["eve", "fox"];
    let hub = Arc::new(
        SessionHub::open(
            &dir,
            HubConfig {
                tenant_inflight: 4,
                threads_per_attempt: 1,
                ..HubConfig::default()
            },
        )
        .unwrap(),
    );
    let acked = hammer(&hub, &tenants, 6, 2);
    assert!(acked.len() >= 4, "enough committed records to tear behind");
    drop(hub); // simulated crash: no checkpoint, no compaction

    // Tear the WAL the way a power cut during the *next* attempt's append
    // would: its frame header reached the disk, most of its payload did
    // not. An attempt is one frame, fsynced before its ack, so everything
    // acknowledged sits whole in front of the tear and the torn attempt
    // vanishes whole — run, score and meter together.
    let seg = last_segment(&dir);
    let mut torn = Vec::new();
    torn.extend_from_slice(&4096u32.to_le_bytes());
    torn.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    torn.extend_from_slice(br#"{"t":"attempt","trainee":"eve","id":99,"run":{"#);
    fs::OpenOptions::new()
        .append(true)
        .open(&seg)
        .unwrap()
        .write_all(&torn)
        .unwrap();

    let snapshot = |store: &SessionStore| -> BTreeMap<String, Vec<(u64, f64)>> {
        store
            .trainees()
            .map(|(name, state)| {
                (
                    name.clone(),
                    state
                        .runs
                        .keys()
                        .map(|id| (*id, state.scores[id]))
                        .collect(),
                )
            })
            .collect()
    };

    let first = {
        let store = SessionStore::open(&dir).unwrap();
        assert!(store.recovered_torn_bytes() > 0, "the tear was noticed");
        assert_store_matches(&store, &acked);
        for (name, state) in store.trainees() {
            let spent: f64 = state
                .runs
                .values()
                .filter_map(|r| r.indicator(toreador_core::declarative::Indicator::Cost))
                .sum();
            assert!(
                (state.meta.total_cost - spent).abs() <= 1e-9 * spent.max(1.0),
                "{name}: meter {} but recovered runs cost {spent}",
                state.meta.total_cost
            );
        }
        snapshot(&store)
    }; // dropped: releases the lock for the second opener
    let store = SessionStore::open(&dir).unwrap();
    assert_eq!(snapshot(&store), first, "recovery is deterministic");

    // The recovered store is live, not just readable: serving resumes on
    // top of it and run ids continue past the recovered history.
    drop(store);
    let hub = SessionHub::open(&dir, HubConfig::default()).unwrap();
    let eve_acks = acked.iter().filter(|(t, _, _)| t == "eve").count() as u64;
    hub.open_session(&open_req("eve", 1_000)).unwrap();
    let reply = hub
        .attempt(&attempt_req("eve", &["full", "batch"]))
        .unwrap();
    assert_eq!(reply.run_id, eve_acks + 1);
    fs::remove_dir_all(&dir).unwrap();
}

fn last_segment(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    segments.sort();
    segments.pop().expect("at least one segment")
}

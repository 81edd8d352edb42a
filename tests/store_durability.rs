//! End-to-end durability: the full Labs loop (attempt -> persist -> exit ->
//! reopen -> compare) through the WAL-backed campaign store, including a
//! simulated crash that tears the log mid-record and a compaction pass
//! under rotation pressure.

use std::fs;
use std::path::{Path, PathBuf};

use toreador_labs::prelude::*;
use toreador_store::StoreConfig;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("toreador-e2e-store-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn attempt(session: &mut LabSession, choices: &[&str], rows: usize) -> u64 {
    let choices: ChoiceVector = choices.iter().map(|s| s.to_string()).collect();
    session
        .attempt("ecomm-revenue", &choices, Some(rows))
        .unwrap()
        .run_id
}

#[test]
fn labs_loop_survives_process_exit_with_traces_and_scores() {
    let dir = tmp_dir("loop");
    {
        let store = SessionStore::open(&dir).unwrap();
        let mut s = LabSession::open(store, "ada", Quota::free_tier(), 11).unwrap();
        attempt(&mut s, &["full", "batch"], 600);
        attempt(&mut s, &["sample", "batch"], 600);
        // Dropped without any explicit save — the WAL already has it all.
    }
    {
        let store = SessionStore::open(&dir).unwrap();
        assert_eq!(store.trainees().count(), 1);
        assert!(store.score("ada", 1).unwrap() > 0.0);
        assert!(store.score("ada", 2).unwrap() > 0.0);
        // The records came back with their flight-recorder traces...
        let r1 = store.run("ada", 1).unwrap();
        assert_eq!(r1.schema_version, RUN_RECORD_SCHEMA_VERSION);
        assert!(!r1.traces.is_empty(), "traces persisted");
        assert!(!r1.operator_elapsed_us().is_empty());
        // ...so a fresh process can still diff runs operator by operator.
        let diff = RunComparison::diff(r1, store.run("ada", 2).unwrap()).unwrap();
        assert_eq!(diff.choice_diffs.len(), 1);
        assert!(!diff.operator_deltas.is_empty(), "per-operator deltas");
        // Dropped here: the directory lock admits one open store at a time.
    }
    // And the session itself resumes: quota metering continues from disk.
    let mut s = LabSession::open(
        SessionStore::open(&dir).unwrap(),
        "ada",
        Quota::free_tier(),
        99,
    )
    .unwrap();
    assert_eq!(s.runs_used(), 2);
    assert_eq!(attempt(&mut s, &["full", "stream"], 400), 3);
    fs::remove_dir_all(&dir).unwrap();
}

/// Tear bytes off the final WAL record, as a crash mid-write would, and
/// check the store comes back with exactly the durable prefix. An attempt
/// is one record, so the torn attempt is lost whole — run, score and meter
/// update together — and everything before it is untouched.
#[test]
fn torn_tail_after_crash_loses_at_most_the_in_flight_record() {
    let dir = tmp_dir("crash");
    let first_cost = {
        let store = SessionStore::open(&dir).unwrap();
        let mut s = LabSession::open(store, "bob", Quota::free_tier(), 5).unwrap();
        attempt(&mut s, &["full", "batch"], 500);
        let first_cost = s.cost_used();
        attempt(&mut s, &["sample", "batch"], 500);
        first_cost
    };
    // Tear into the last record of the last segment.
    let seg = last_segment(&dir);
    let len = fs::metadata(&seg).unwrap().len();
    fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .unwrap()
        .set_len(len - 3)
        .unwrap();
    let store = SessionStore::open(&dir).unwrap();
    assert!(store.recovered_torn_bytes() > 0, "the tear was noticed");
    // The torn record was the second attempt: no part of it survives, and
    // the first attempt and the session itself are intact.
    assert!(store.run("bob", 1).is_some());
    assert!(store.score("bob", 1).is_some());
    assert!(store.run("bob", 2).is_none());
    assert!(store.score("bob", 2).is_none());
    assert_eq!(store.trainee("bob").unwrap().meta.total_cost, first_cost);
    let mut s = LabSession::open(store, "bob", Quota::free_tier(), 5).unwrap();
    assert_eq!(s.runs_used(), 1);
    assert_eq!(attempt(&mut s, &["full", "batch"], 300), 2);
    fs::remove_dir_all(&dir).unwrap();
}

/// Small segments + aggressive snapshots: rotation and compaction happen
/// under a real Labs workload and nothing is lost across reopen.
#[test]
fn compaction_under_rotation_pressure_keeps_every_run() {
    let dir = tmp_dir("compact");
    let cfg = StoreConfig {
        segment_bytes: 32 * 1024,
        snapshot_every: 4,
    };
    {
        let store = SessionStore::open_with(&dir, cfg).unwrap();
        let mut s = LabSession::open(store, "eve", Quota::unlimited(), 3).unwrap();
        for i in 0..6 {
            let choice = if i % 2 == 0 { "full" } else { "sample" };
            attempt(&mut s, &[choice, "batch"], 400);
        }
        let stats = s.store().unwrap().stats();
        assert!(stats.snapshot_lsn > 0, "compaction ran: {stats:?}");
    }
    let store = SessionStore::open_with(&dir, cfg).unwrap();
    let state = store.trainee("eve").unwrap();
    assert_eq!(state.runs.len(), 6);
    for (id, run) in &state.runs {
        assert_eq!(*id, run.run_id);
        assert!(!run.traces.is_empty(), "run {id} kept its traces");
        assert!(store.score("eve", *id).is_some());
    }
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

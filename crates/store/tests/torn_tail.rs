//! Torn-write recovery, proven exhaustively and by property.
//!
//! The claim (DESIGN.md §7): a crash can tear at most the record that was
//! being appended, and recovery must return exactly the durable prefix —
//! for *every* byte offset the tear can land on — without error, and the
//! log must accept appends afterwards. An attempt record (run + score +
//! meter in one frame) gets the same sweep through the typed store: every
//! tear shows all three parts or none.

use std::fs;
use std::path::{Path, PathBuf};

use proptest::prelude::*;

use serde::{Deserialize, Serialize};
use toreador_store::{DurableLog, LabStore, LogConfig};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("toreador-store-torn-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Copy every file of `src` into a fresh `dst`.
fn copy_dir(src: &Path, dst: &Path) {
    let _ = fs::remove_dir_all(dst);
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// The last `wal-*.log` segment in a directory.
fn last_segment(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    segments.sort();
    segments.pop().expect("at least one segment")
}

/// Build a log of `payloads` in `dir`; returns the byte length of the
/// final record's frame (header + payload).
fn build_log(dir: &Path, cfg: LogConfig, payloads: &[Vec<u8>]) -> u64 {
    let (mut log, _) = DurableLog::open(dir, cfg).unwrap();
    for p in payloads {
        log.append(p).unwrap();
    }
    log.sync().unwrap();
    8 + payloads.last().map_or(0, |p| p.len() as u64)
}

#[test]
fn every_truncation_offset_of_the_final_record_recovers_the_prefix() {
    let cfg = LogConfig::default();
    let payloads: Vec<Vec<u8>> = (0..6)
        .map(|i| format!("record-{i}-{}", "payload".repeat(i + 1)).into_bytes())
        .collect();
    let base = tmp_dir("exhaustive-base");
    let final_frame = build_log(&base, cfg, &payloads);
    let seg = last_segment(&base);
    let full_len = fs::metadata(&seg).unwrap().len();
    let frame_start = full_len - final_frame;

    let work = tmp_dir("exhaustive-work");
    // Every tear point inside the final record's frame, including its
    // first byte (torn_len = 0 ... final_frame - 1).
    for cut in frame_start..full_len {
        copy_dir(&base, &work);
        let seg = last_segment(&work);
        fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(cut)
            .unwrap();

        let (mut log, rec) = DurableLog::open(&work, cfg)
            .unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));
        assert_eq!(
            rec.records.len(),
            payloads.len() - 1,
            "cut at {cut}: exactly the durable prefix"
        );
        for (i, (lsn, p)) in rec.records.iter().enumerate() {
            assert_eq!(*lsn, i as u64 + 1);
            assert_eq!(p, &payloads[i], "cut at {cut}: record {i} intact");
        }
        assert_eq!(rec.torn_bytes, cut - frame_start, "cut at {cut}");

        // The log stays writable, and the re-append becomes durable.
        let lsn = log.append(b"replacement").unwrap();
        assert_eq!(lsn, payloads.len() as u64, "torn LSN is reused");
        log.sync().unwrap();
        drop(log);
        let (_, rec) = DurableLog::open(&work, cfg).unwrap();
        assert_eq!(rec.records.len(), payloads.len());
        assert_eq!(rec.records.last().unwrap().1, b"replacement");
    }
    fs::remove_dir_all(base).unwrap();
    fs::remove_dir_all(work).unwrap();
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Meter {
    seed: u64,
    total_cost: f64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Run {
    challenge: String,
    rows: u64,
    trace: Vec<String>,
}

fn attempt_run(i: u64) -> Run {
    Run {
        challenge: "ecomm-revenue".to_owned(),
        rows: 100 * i,
        trace: (0..8).map(|s| format!("stage-{s}-of-run-{i}")).collect(),
    }
}

/// The atomicity claim of the attempt record: wherever a crash tears the
/// frame, recovery shows the previous attempt complete and the torn one
/// not at all — never its run without its score or its meter update.
#[test]
fn every_truncation_offset_of_an_attempt_record_is_all_or_nothing() {
    type Store = LabStore<Meter, Run>;
    let base = tmp_dir("attempt-base");
    let meter = |total_cost| Meter {
        seed: 7,
        total_cost,
    };
    let before_last = {
        let mut store = Store::open(&base).unwrap();
        store.put_meta("ada", &meter(0.0)).unwrap();
        store
            .put_attempt("ada", 1, &attempt_run(1), 80.0, &meter(2.5))
            .unwrap();
        let len = fs::metadata(last_segment(&base)).unwrap().len();
        store
            .put_attempt("ada", 2, &attempt_run(2), 90.0, &meter(6.0))
            .unwrap();
        len
    };
    let full_len = fs::metadata(last_segment(&base)).unwrap().len();
    assert!(
        full_len > before_last + 8,
        "the second attempt is one frame"
    );

    let work = tmp_dir("attempt-work");
    for cut in before_last..=full_len {
        copy_dir(&base, &work);
        fs::OpenOptions::new()
            .write(true)
            .open(last_segment(&work))
            .unwrap()
            .set_len(cut)
            .unwrap();
        let mut store =
            Store::open(&work).unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));
        let whole = cut == full_len;
        let ada = store.trainee("ada").unwrap();
        assert_eq!(ada.runs.len(), 1 + usize::from(whole), "cut at {cut}");
        assert_eq!(
            ada.scores.keys().collect::<Vec<_>>(),
            ada.runs.keys().collect::<Vec<_>>(),
            "cut at {cut}: a score for every run and no other"
        );
        let paid = if whole { 6.0 } else { 2.5 };
        assert_eq!(
            ada.meta,
            meter(paid),
            "cut at {cut}: the meter matches the runs"
        );
        assert_eq!(store.run("ada", 1), Some(&attempt_run(1)), "cut at {cut}");
        assert_eq!(
            store.recovered_torn_bytes(),
            if whole { 0 } else { cut - before_last },
            "cut at {cut}"
        );
        // The store stays writable and the retried attempt lands whole.
        if !whole {
            store
                .put_attempt("ada", 2, &attempt_run(2), 90.0, &meter(6.0))
                .unwrap();
            drop(store);
            let store = Store::open(&work).unwrap();
            assert_eq!(store.score("ada", 2), Some(90.0), "cut at {cut}");
            assert_eq!(store.trainee("ada").unwrap().meta, meter(6.0));
        }
    }
    fs::remove_dir_all(base).unwrap();
    fs::remove_dir_all(work).unwrap();
}

/// Logs written before the attempt record existed carry the same facts
/// as separate run / score / meta records. A log that interleaves both
/// styles must open to exactly the state an all-new-style log does.
#[test]
fn old_style_triples_and_attempt_records_replay_to_the_same_state() {
    type Store = LabStore<Meter, Run>;
    let meter = |total_cost| Meter {
        seed: 3,
        total_cost,
    };
    let mixed = tmp_dir("compat-mixed");
    let modern = tmp_dir("compat-modern");
    {
        let mut old = Store::open(&mixed).unwrap();
        let mut new = Store::open(&modern).unwrap();
        for store in [&mut old, &mut new] {
            store.put_meta("ada", &meter(0.0)).unwrap();
            store.put_meta("bob", &meter(0.0)).unwrap();
        }
        let mut paid = 0.0;
        for i in 1..=6u64 {
            paid += i as f64;
            let trainee = if i % 3 == 0 { "bob" } else { "ada" };
            let (run, score) = (attempt_run(i), 50.0 + i as f64);
            new.put_attempt(trainee, i, &run, score, &meter(paid))
                .unwrap();
            if i % 2 == 0 {
                old.put_attempt(trainee, i, &run, score, &meter(paid))
                    .unwrap();
            } else {
                old.put_run(trainee, i, &run).unwrap();
                old.put_score(trainee, i, score).unwrap();
                old.put_meta(trainee, &meter(paid)).unwrap();
            }
        }
        assert_eq!(new.stats().last_lsn, 8);
        assert_eq!(old.stats().last_lsn, 14, "three records per old attempt");
    }
    let old = Store::open(&mixed).unwrap();
    let new = Store::open(&modern).unwrap();
    assert_eq!(
        old.trainees().collect::<Vec<_>>(),
        new.trainees().collect::<Vec<_>>()
    );
    assert_eq!(old.trainee("ada").unwrap().runs.len(), 4);
    assert_eq!(old.trainee("bob").unwrap().scores.len(), 2);
    fs::remove_dir_all(mixed).unwrap();
    fs::remove_dir_all(modern).unwrap();
}

#[test]
fn truncating_the_whole_final_record_is_a_clean_log() {
    let cfg = LogConfig::default();
    let payloads: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 10 + i]).collect();
    let dir = tmp_dir("clean-cut");
    let final_frame = build_log(&dir, cfg, &payloads);
    let seg = last_segment(&dir);
    let full_len = fs::metadata(&seg).unwrap().len();
    fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .unwrap()
        .set_len(full_len - final_frame)
        .unwrap();
    let (_, rec) = DurableLog::open(&dir, cfg).unwrap();
    assert_eq!(rec.records.len(), payloads.len() - 1);
    assert_eq!(rec.torn_bytes, 0, "a clean cut is not a tear");
    fs::remove_dir_all(dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random record shapes, random segment sizes (so the tear can land in
    /// a freshly-rotated segment), random tear offsets.
    #[test]
    fn recovery_yields_exactly_the_durable_prefix(
        sizes in prop::collection::vec(0usize..120, 1..12),
        segment_bytes in prop_oneof![Just(64u64), Just(256u64), Just(1u64 << 20)],
        cut_back in 1u64..128,
        case in 0u32..1_000_000,
    ) {
        let cfg = LogConfig { segment_bytes };
        let payloads: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                format!("case-{case}-record-{i}-")
                    .into_bytes()
                    .into_iter()
                    .chain(std::iter::repeat(i as u8).take(n))
                    .collect()
            })
            .collect();
        let dir = tmp_dir(&format!("prop-{case}"));
        let final_frame = build_log(&dir, cfg, &payloads);
        let seg = last_segment(&dir);
        let full_len = fs::metadata(&seg).unwrap().len();
        // Clamp the tear inside the final record's frame.
        let cut = full_len - (cut_back % final_frame) - 1;

        fs::OpenOptions::new().write(true).open(&seg).unwrap().set_len(cut).unwrap();
        let (mut log, rec) = DurableLog::open(&dir, cfg).unwrap();
        prop_assert_eq!(rec.records.len(), payloads.len() - 1);
        for (i, (lsn, p)) in rec.records.iter().enumerate() {
            prop_assert_eq!(*lsn, i as u64 + 1);
            prop_assert_eq!(p, &payloads[i]);
        }
        // Still writable after recovery.
        log.append(format!("case-{case}-tail").as_bytes()).unwrap();
        log.sync().unwrap();
        drop(log);
        let (_, rec) = DurableLog::open(&dir, cfg).unwrap();
        prop_assert_eq!(rec.records.len(), payloads.len());
        fs::remove_dir_all(dir).unwrap();
    }
}

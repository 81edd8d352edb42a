//! The storage fault matrix: every (layer × fault × injection point)
//! either completes byte-identically after retry/recovery or fails with
//! a classified `Storage`-family error naming the path and operation —
//! never a panic, never silent loss of synced data, never a leaked temp
//! file once the injector is disarmed.
//!
//! The matrix is driven by the same `class:op:ordinal:fault` target specs
//! the `DiskChaos` injector exposes, so adding a row is adding a string.
//! Scale the randomized passes with `PROPTEST_CASES` (default 8).

use std::path::{Path, PathBuf};

use toreador_store::chaos::{
    DiskChaos, DiskChaosPlan, DiskTarget, IoOp, PathClass, INJECTED_MARKER,
};
use toreador_store::fsck::{repair, scan_store_dir};
use toreador_store::log::{DurableLog, LogConfig};
use toreador_store::{LabStore, StoreError};

fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("toreador-disk-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The scripted WAL workload every matrix row runs: open, append in
/// synced batches, snapshot mid-way, keep appending across a couple of
/// rotations. Returns the records appended and how many were synced
/// before the first error (or all of them on success).
fn wal_workload(dir: &Path) -> (Vec<Vec<u8>>, usize, Result<(), StoreError>) {
    let cfg = LogConfig { segment_bytes: 256 };
    let mut appended: Vec<Vec<u8>> = Vec::new();
    let mut synced = 0usize;
    let run = (|| -> Result<(), StoreError> {
        let (mut log, _) = DurableLog::open(dir, cfg)?;
        for batch in 0..6 {
            for i in 0..5 {
                let payload = format!("batch-{batch}-record-{i}").into_bytes();
                log.append(&payload)?;
                appended.push(payload);
            }
            log.sync()?;
            synced = appended.len();
            if batch == 2 {
                log.snapshot(format!("snapshot-after-{}", appended.len()).as_bytes())?;
            }
        }
        Ok(())
    })();
    (appended, synced, run)
}

/// The post-mortem every row must pass, with the injector disarmed:
/// recovery succeeds, recovers an exact prefix of what was appended (at
/// least the synced part when syncs were honest), and an fsck pass after
/// proven-safe repairs reports nothing corrupt and nothing left over.
fn verify_recovery(dir: &Path, appended: &[Vec<u8>], min_survivors: usize) {
    let (log, rec) = DurableLog::open(dir, LogConfig { segment_bytes: 256 }).unwrap();
    // Reassemble the full durable suffix: snapshot payload tells us how
    // many records it covers (we encoded the count into it).
    let covered = rec
        .snapshot
        .as_ref()
        .map(|s| {
            String::from_utf8_lossy(s)
                .strip_prefix("snapshot-after-")
                .expect("snapshot payload is ours")
                .parse::<usize>()
                .unwrap()
        })
        .unwrap_or(0);
    let recovered = covered + rec.records.len();
    assert!(
        recovered >= min_survivors,
        "synced data lost: {recovered} recovered < {min_survivors} synced"
    );
    assert!(
        recovered <= appended.len(),
        "recovered {recovered} records but only {} were ever appended",
        appended.len()
    );
    for (i, (lsn, payload)) in rec.records.iter().enumerate() {
        assert_eq!(*lsn as usize, covered + i + 1, "dense ascending lsns");
        assert_eq!(
            payload,
            &appended[covered + i],
            "record {lsn} must match what was appended"
        );
    }
    drop(log);
    // fsck after recovery: apply proven-safe repairs, then nothing may
    // remain corrupt and no temp file may survive.
    for a in scan_store_dir(dir).unwrap() {
        let _ = repair(&a);
    }
    let after = scan_store_dir(dir).unwrap();
    for a in &after {
        assert!(
            !a.verdict.is_corrupt(),
            "corrupt artifact after recovery: {a:?}"
        );
        assert_ne!(a.kind, "temp", "leaked temp file: {a:?}");
    }
}

/// Classified means: a `Storage`-family error (or `Io` from the blanket
/// conversion) whose message carries the injector's marker, the failing
/// operation, and the path.
fn assert_classified(err: &StoreError) {
    let msg = err.to_string();
    assert!(
        matches!(err, StoreError::Storage { .. } | StoreError::Io(_)),
        "unclassified error family: {err:?}"
    );
    assert!(
        msg.contains(INJECTED_MARKER),
        "error does not name the injected fault: {msg}"
    );
    if let StoreError::Storage { op, path, .. } = err {
        assert!(!op.is_empty(), "storage error without an operation");
        assert_ne!(path, &PathBuf::new(), "storage error without a path");
    }
}

/// One matrix row: run the workload under a single scheduled fault.
fn run_row(spec: &str) {
    let dir = tmp_dir(&spec.replace([':', '@'], "-"));
    let target = DiskTarget::parse(spec).unwrap();
    let (chaos, _guard) = DiskChaos::register(&dir, DiskChaosPlan::targeted(vec![target]));
    let (appended, synced, result) = wal_workload(&dir);
    match &result {
        Ok(()) => {
            // The fault never fired (ordinal past the workload's I/O
            // count) or the layer absorbed it — either way the store
            // must be fully intact.
            assert_eq!(synced, appended.len());
        }
        Err(e) => assert_classified(e),
    }
    chaos.disarm();
    // Torn writes may have left un-acked bytes; syncs all really ran
    // (no fsync lies in this matrix), so everything synced must survive,
    // even a power cut that drops every file whose directory entry was
    // never fsynced.
    chaos.power_cut().unwrap();
    verify_recovery(&dir, &appended, synced);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_matrix_every_layer_times_fault_times_injection_point() {
    let ops_per_class: &[(&str, &[&str])] = &[
        ("wal", &["create", "write", "sync"]),
        ("snapshot", &["create", "write", "sync", "rename"]),
        ("lock", &["create", "write"]),
        ("any", &["write", "sync"]),
    ];
    let faults = ["eio", "enospc", "torn@0", "torn@7"];
    let ordinals = [0u64, 1, 3, 9];
    // Every directory fsync of the workload — open's, the rotations' and
    // the snapshot's two, counted on a clean run — fails once. Any fault
    // on a directory fsync is one error path, so EIO stands for them all.
    let dir_syncs = {
        let dir = tmp_dir("count-dir-syncs");
        let (chaos, _guard) = DiskChaos::register(&dir, DiskChaosPlan::default());
        wal_workload(&dir).2.unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        chaos.ops(PathClass::Dir, IoOp::SyncDir)
    };
    assert!(
        dir_syncs >= 4,
        "open, a rotation and a snapshot: {dir_syncs}"
    );
    for ordinal in 0..dir_syncs {
        run_row(&format!("dir:syncdir:{ordinal}:eio"));
    }
    for (class, ops) in ops_per_class {
        for op in *ops {
            for fault in &faults {
                if *op == "sync" && fault.starts_with("torn") {
                    continue; // torn applies to writes only
                }
                for ordinal in &ordinals {
                    run_row(&format!("{class}:{op}:{ordinal}:{fault}"));
                }
            }
        }
    }
}

/// EIO on the one fsync an attempt record costs: the caller gets a
/// classified `Storage` error, the in-memory view is exactly what it was
/// before the call (no run without its score, no meter bump), and the
/// store reopens clean with the attempt either wholly there or wholly
/// absent. The sweep walks the fault across every WAL fsync of the
/// script, so it lands on each of the three attempts in turn.
#[test]
fn eio_on_the_attempt_fsync_is_classified_and_leaves_the_view_untouched() {
    type Store = LabStore<f64, String>;
    let script = |store: &mut Store, failed_at: &mut Option<u64>| -> Result<(), StoreError> {
        store.put_meta("ada", &0.0)?;
        for i in 1..=3u64 {
            *failed_at = Some(i);
            store.put_attempt("ada", i, &format!("run-{i}"), 10.0 * i as f64, &(i as f64))?;
        }
        *failed_at = None;
        Ok(())
    };
    let mut attempts_hit = Vec::new();
    for ordinal in 0..8u64 {
        let dir = tmp_dir(&format!("attempt-fsync-{ordinal}"));
        let target = DiskTarget::parse(&format!("wal:sync:{ordinal}:eio")).unwrap();
        let (chaos, _guard) = DiskChaos::register(&dir, DiskChaosPlan::targeted(vec![target]));
        let Ok(mut store) = Store::open(&dir) else {
            continue; // the fault landed in open's own fsync
        };
        let mut failed_at = None;
        let result = script(&mut store, &mut failed_at);
        chaos.disarm();
        if let (Err(e), Some(i)) = (&result, failed_at) {
            attempts_hit.push(i);
            assert_classified(e);
            assert!(matches!(e, StoreError::Storage { .. }), "{e:?}");
            let ada = store.trainee("ada").unwrap();
            assert_eq!(
                ada.runs.len() as u64,
                i - 1,
                "no run from the failed commit"
            );
            assert_eq!(ada.scores.len() as u64, i - 1, "no score either");
            assert_eq!(ada.meta, (i - 1) as f64, "and the meter did not move");
        }
        drop(store);
        let store = Store::open(&dir).expect("reopen after the fault is clean");
        if let Some(ada) = store.trainee("ada") {
            assert_eq!(
                ada.scores.keys().collect::<Vec<_>>(),
                ada.runs.keys().collect::<Vec<_>>(),
                "every recovered run has its score"
            );
            assert_eq!(ada.meta, ada.runs.len() as f64, "and its meter update");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(
        attempts_hit,
        vec![1, 2, 3],
        "one fsync per attempt: consecutive ordinals hit consecutive attempts"
    );
}

/// Each durability step fsyncs once: a snapshot taken right after a synced
/// append does not re-sync the WAL, and a snapshot or a rotation fsyncs the
/// directory once per change it publishes — not again inside the segment
/// it creates.
#[test]
fn snapshots_and_rotations_pay_each_fsync_once() {
    let dir = tmp_dir("fsync-count");
    let (chaos, _guard) = DiskChaos::register(&dir, DiskChaosPlan::default());
    // (WAL-segment syncs, temp-file syncs, directory syncs) so far.
    let syncs = || {
        (
            chaos.ops(PathClass::WalSegment, IoOp::Sync),
            chaos.ops(PathClass::Temp, IoOp::Sync),
            chaos.ops(PathClass::Dir, IoOp::SyncDir),
        )
    };
    let delta = |before: (u64, u64, u64)| {
        let now = syncs();
        (now.0 - before.0, now.1 - before.1, now.2 - before.2)
    };
    let (mut log, _) = DurableLog::open(&dir, LogConfig { segment_bytes: 64 }).unwrap();
    assert_eq!(
        syncs(),
        (1, 0, 1),
        "open: the new segment's header and its entry"
    );

    log.append(b"acked").unwrap();
    log.sync().unwrap();
    let before = syncs();
    log.snapshot(b"state-1").unwrap();
    assert_eq!(
        delta(before),
        (1, 1, 2),
        "synced snapshot: the temp file and the fresh segment's header, \
         the directory after the rename and after compaction"
    );

    log.append(b"not yet synced").unwrap();
    let before = syncs();
    log.snapshot(b"state-2").unwrap();
    assert_eq!(delta(before), (2, 1, 2), "an unsynced tail is synced first");

    log.append(&[7u8; 50]).unwrap();
    let before = syncs();
    log.append(b"rotates").unwrap();
    assert_eq!(
        delta(before),
        (2, 0, 1),
        "rotation: seal the old segment, the new header, one directory sync"
    );
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
}

/// EIO on the directory fsync that publishes a rotated-to segment: the
/// append fails and the log keeps its old segment, so the next synced
/// append is acked only after a directory fsync made its segment's entry
/// durable — and survives a power cut that drops every unpublished file.
#[test]
fn eio_on_the_rotation_dir_fsync_never_acks_into_an_unpublished_segment() {
    let dir = tmp_dir("rotate-syncdir");
    let cfg = LogConfig { segment_bytes: 64 };
    // Directory fsync 0 is open's; 1 is the first rotation's.
    let target = DiskTarget::parse("dir:syncdir:1:eio").unwrap();
    let (chaos, _guard) = DiskChaos::register(&dir, DiskChaosPlan::targeted(vec![target]));
    let (mut log, _) = DurableLog::open(&dir, cfg).unwrap();
    log.append(&[7u8; 50]).unwrap();
    log.sync().unwrap();

    let err = log.append(b"rotates").unwrap_err();
    assert_classified(&err);
    assert_eq!(chaos.faults_injected(), 1);
    assert_eq!(
        log.stats().segments,
        1,
        "the failed rotation switched nothing"
    );

    assert_eq!(
        log.append(b"acked").unwrap(),
        2,
        "the failed append took no lsn"
    );
    log.sync().unwrap();
    assert_eq!(log.stats().segments, 2, "the retried rotation went through");
    drop(log);
    chaos.power_cut().unwrap();
    chaos.disarm();

    let (_, rec) = DurableLog::open(&dir, cfg).unwrap();
    let recovered: Vec<&[u8]> = rec.records.iter().map(|(_, p)| p.as_slice()).collect();
    assert_eq!(
        recovered,
        vec![&[7u8; 50][..], b"acked"],
        "every ack survives"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// EIO on the directory fsync that closes a snapshot's compaction: the
/// fresh segment the log switched to was published by the snapshot's
/// earlier directory fsync, so an append synced after the failure
/// survives a power cut.
#[test]
fn eio_on_the_snapshot_closing_dir_fsync_loses_no_later_ack() {
    let dir = tmp_dir("snapshot-syncdir");
    // Directory fsync 0 is open's; 1 publishes the snapshot, 2 closes it.
    let target = DiskTarget::parse("dir:syncdir:2:eio").unwrap();
    let (chaos, _guard) = DiskChaos::register(&dir, DiskChaosPlan::targeted(vec![target]));
    let (mut log, _) = DurableLog::open(&dir, LogConfig::default()).unwrap();
    log.append(b"covered").unwrap();
    log.sync().unwrap();
    assert_classified(&log.snapshot(b"state").unwrap_err());
    assert_eq!(chaos.faults_injected(), 1);
    log.append(b"acked").unwrap();
    log.sync().unwrap();
    drop(log);
    chaos.power_cut().unwrap();
    chaos.disarm();

    let (_, rec) = DurableLog::open(&dir, LogConfig::default()).unwrap();
    assert_eq!(rec.snapshot.as_deref(), Some(&b"state"[..]));
    let recovered: Vec<&[u8]> = rec.records.iter().map(|(_, p)| p.as_slice()).collect();
    assert_eq!(recovered, vec![&b"acked"[..]], "the later ack survives");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn background_eio_rates_always_classify_and_recover() {
    for case in 0..cases() {
        let dir = tmp_dir(&format!("flaky-{case}"));
        let (chaos, _guard) = DiskChaos::register(&dir, DiskChaosPlan::flaky(0xD15C + case, 0.08));
        let (appended, synced, result) = wal_workload(&dir);
        if let Err(e) = &result {
            assert_classified(e);
        }
        chaos.disarm();
        verify_recovery(&dir, &appended, synced);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn enospc_budget_halts_the_log_without_losing_the_synced_prefix() {
    for case in 0..cases() {
        let dir = tmp_dir(&format!("enospc-{case}"));
        // Bounded well below the workload's ~850 total bytes so the
        // budget always runs out, whatever PROPTEST_CASES says.
        let plan = DiskChaosPlan {
            enospc_after_bytes: Some(120 + (97 * case) % 400),
            ..DiskChaosPlan::default()
        };
        let (chaos, _guard) = DiskChaos::register(&dir, plan);
        let (appended, synced, result) = wal_workload(&dir);
        let err = result.expect_err("a few hundred bytes cannot fit the whole workload");
        assert_classified(&err);
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        chaos.disarm();
        verify_recovery(&dir, &appended, synced);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn fsync_lies_plus_power_cut_lose_only_an_unsynced_suffix() {
    for case in 0..cases() {
        let dir = tmp_dir(&format!("powercut-{case}"));
        let plan = DiskChaosPlan {
            fsync_lies: true,
            ..DiskChaosPlan::default()
        };
        let (chaos, _guard) = DiskChaos::register(&dir, plan);
        let (appended, _synced, result) = wal_workload(&dir);
        result.expect("fsync lies report success");
        chaos.power_cut().unwrap();
        chaos.disarm();
        // Nothing was ever truly synced, so any prefix (including the
        // empty one) is an honest outcome — but whatever survives must
        // be an exact, dense prefix: no reordering, no corruption.
        verify_recovery(&dir, &appended, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn sixteen_threads_of_disk_chaos_never_panic_or_lose_synced_data() {
    let iterations = cases().max(2);
    let handles: Vec<_> = (0..16)
        .map(|t| {
            std::thread::spawn(move || {
                for i in 0..iterations {
                    let dir = tmp_dir(&format!("mt-{t}-{i}"));
                    let seed = (t as u64) << 32 | i;
                    let (chaos, _guard) =
                        DiskChaos::register(&dir, DiskChaosPlan::flaky(seed, 0.05));
                    let (appended, synced, result) = wal_workload(&dir);
                    if let Err(e) = &result {
                        assert_classified(e);
                    }
                    chaos.disarm();
                    verify_recovery(&dir, &appended, synced);
                    let _ = std::fs::remove_dir_all(&dir);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no chaos thread may panic");
    }
}

//! Disk-fault matrix for the dataflow durability layers: spill run
//! files and checkpoint waves under a seeded `DiskChaos` injector.
//!
//! The property mirrors the task-fault chaos oracle: a run under storage
//! faults either completes with output identical to the fault-free
//! baseline (the layer retried or the fault missed) or fails with a
//! classified error naming the path and operation — never a panic, never
//! silent divergence, and never a leaked `*.tmp` or `*.pages` once the
//! injector is disarmed and the run's own cleanup has run.
//!
//! Scale the randomized passes with `PROPTEST_CASES` (default 6).

use std::path::{Path, PathBuf};

use toreador_data::generate::clickstream;
use toreador_data::table::Table;
use toreador_dataflow::logical::Dataflow;
use toreador_dataflow::prelude::*;
use toreador_dataflow::session::{Engine, EngineConfig};
use toreador_store::chaos::{DiskChaos, DiskChaosPlan, DiskTarget, INJECTED_MARKER};
use toreador_store::fsck::scan_store_dir;

fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("toreador-disk-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A flow whose aggregation shuffles one partial per input row (every
/// `event_id` is unique), so a small memory budget makes the shuffle's
/// staging spill real run files.
fn wide_flow(e: &Engine) -> Dataflow {
    e.flow("clicks")
        .unwrap()
        .aggregate(
            &["event_id"],
            vec![
                AggExpr::new(AggFunc::Count, "event_id", "n"),
                AggExpr::new(AggFunc::Sum, "price", "revenue"),
            ],
        )
        .unwrap()
        .sort(&["event_id"], false)
        .unwrap()
}

fn baseline() -> Table {
    let mut calm = Engine::new(EngineConfig::default().with_threads(2));
    calm.register("clicks", clickstream(3_000, 7)).unwrap();
    calm.run(&wide_flow(&calm)).unwrap().table
}

/// Run the wide flow with a tight budget spilling into `spill_dir`.
fn spilling_run(spill_dir: &Path) -> Result<Table, FlowError> {
    let mut tight = Engine::new(
        EngineConfig::default()
            .with_threads(2)
            .with_memory_budget(16 << 10)
            .with_spill_dir(spill_dir),
    );
    tight.register("clicks", clickstream(3_000, 7)).unwrap();
    tight.run(&wide_flow(&tight)).map(|r| r.table)
}

/// No `*.tmp` (unpublished) and, after a completed run, no `*.pages`
/// either: the spill manager removes its directory outright on drop.
fn assert_no_residue(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return; // whole dir removed: the strongest form of clean
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        assert!(
            !name.ends_with(".tmp"),
            "leaked temp file {name} in {}",
            dir.display()
        );
    }
}

fn assert_classified(e: &FlowError) {
    let msg = e.to_string();
    assert!(
        matches!(e, FlowError::Spill(_) | FlowError::Checkpoint(_)),
        "storage fault surfaced through the wrong family: {e:?}"
    );
    assert!(
        msg.contains(INJECTED_MARKER),
        "error does not name the injected fault: {msg}"
    );
}

#[test]
fn spill_fault_matrix_identical_or_classified_never_leaky() {
    let reference = baseline();
    // Spill writes land in `run-N.tmp` until the publish rename, so the
    // write-side faults target class `tmp`; the rename is classified by its
    // destination, and a read-back reads the published file, so both are
    // class `pages`.
    let specs: &[&str] = &[
        "tmp:create:0:eio",
        "tmp:create:2:eio",
        "tmp:write:0:eio",
        "tmp:write:3:eio",
        "tmp:write:1:torn@100",
        "tmp:write:5:enospc",
        "tmp:sync:0:eio",
        "pages:read:0:eio",
        "pages:read:2:eio",
        "pages:rename:0:eio",
        "dir:create:0:eio",
        "any:write:6:eio",
    ];
    for spec in specs {
        let dir = tmp_dir(&format!("matrix-{}", spec.replace([':', '@'], "-")));
        let target = DiskTarget::parse(spec).unwrap();
        let (chaos, _guard) = DiskChaos::register(&dir, DiskChaosPlan::targeted(vec![target]));
        match spilling_run(&dir) {
            Ok(table) => assert_eq!(table, reference, "silent divergence under {spec}"),
            Err(e) => assert_classified(&e),
        }
        chaos.disarm();
        // A spec that never fires would pass vacuously.
        assert!(chaos.faults_injected() > 0, "{spec} never fired");
        assert_no_residue(&dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn spill_enospc_fails_classified_and_cleans_its_temp_files() {
    let dir = tmp_dir("enospc");
    let plan = DiskChaosPlan {
        enospc_after_bytes: Some(40 << 10), // about one spilled run in
        ..DiskChaosPlan::default()
    };
    let (chaos, _guard) = DiskChaos::register(&dir, plan);
    let err = spilling_run(&dir).expect_err("40 KiB cannot hold the spilled runs");
    assert_classified(&err);
    assert!(err.to_string().contains("ENOSPC"), "{err}");
    chaos.disarm();
    assert_no_residue(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn background_disk_chaos_over_many_seeds_never_diverges() {
    let reference = baseline();
    let mut injected = 0;
    for case in 0..cases() {
        let dir = tmp_dir(&format!("flaky-{case}"));
        let (chaos, _guard) = DiskChaos::register(&dir, DiskChaosPlan::flaky(0xCAFE + case, 0.03));
        match spilling_run(&dir) {
            Ok(table) => assert_eq!(table, reference, "silent divergence at seed {case}"),
            Err(e) => assert_classified(&e),
        }
        chaos.disarm();
        injected += chaos.faults_injected();
        assert_no_residue(&dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
    // A sweep in which no fault fired would pass vacuously.
    assert!(injected > 0, "no fault fired in {} cases", cases());
}

#[test]
fn spill_read_faults_name_the_published_run() {
    // A run is read back from its published path, so a read fault on
    // class `pages` reaches it and the failure names that file.
    let dir = tmp_dir("pages-read");
    let target = DiskTarget::parse("pages:read:0:eio").unwrap();
    let (chaos, _guard) = DiskChaos::register(&dir, DiskChaosPlan::targeted(vec![target]));
    let err = spilling_run(&dir).expect_err("the first read-back must fail");
    chaos.disarm();
    assert_classified(&err);
    assert!(matches!(err, FlowError::Spill(_)), "{err:?}");
    assert!(err.to_string().contains("run-000000.pages"), "{err}");
    assert_no_residue(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_publish_faults_are_classified_and_leave_a_scannable_dir() {
    let specs: &[&str] = &[
        "tmp:write:0:eio",
        "tmp:write:0:torn@50",
        "tmp:sync:0:eio",
        "wave:rename:0:eio",
        "manifest:rename:0:eio",
    ];
    for spec in specs {
        let root = tmp_dir(&format!("ckpt-{}", spec.replace([':', '@'], "-")));
        let target = DiskTarget::parse(spec).unwrap();
        let (chaos, _guard) = DiskChaos::register(&root, DiskChaosPlan::targeted(vec![target]));
        let mut engine = Engine::new(EngineConfig::default().with_threads(2).with_checkpoint(
            CheckpointSpec {
                root: root.clone(),
                run_id: "chaos-run".into(),
                resume: false,
            },
        ));
        engine.register("clicks", clickstream(2_000, 7)).unwrap();
        let result = engine.run_checkpointed(&wide_flow(&engine), "chaos-run");
        chaos.disarm();
        match result {
            Ok(_) => {}
            Err(e) => assert_classified(&e),
        }
        // Whatever happened, the checkpoint tree must scan without
        // corruption: atomic publish means every artifact is either
        // complete or an orphan `.tmp`, and repair leaves it clean.
        let arts = toreador_dataflow::fsck::scan_tree(&root).unwrap();
        for a in &arts {
            assert!(
                !a.verdict.is_corrupt(),
                "injected publish fault left corruption under {spec}: {a:?}"
            );
        }
        for a in &arts {
            let _ = toreador_store::fsck::repair(a);
        }
        let after = toreador_dataflow::fsck::scan_tree(&root).unwrap();
        assert!(
            after.iter().all(|a| a.verdict.is_clean()),
            "{spec}: {after:?}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn interior_bit_flip_in_a_page_file_is_classified_corruption() {
    use toreador_dataflow::spill::SpillManager;

    let dir = tmp_dir("page-flip");
    // read_back reads the whole file from disk, so it sees the damage.
    let manager = SpillManager::new(0, dir.clone());
    let t = clickstream(700, 13);
    let handle = manager.spill_table(&t).unwrap();
    // Flip one payload byte inside the first lane frame: past the 8-byte
    // magic, the header frame and the lane frame's own 8-byte header.
    let path = dir.join("run-000000.pages");
    let mut raw = std::fs::read(&path).unwrap();
    let header_len = u32::from_le_bytes(raw[8..12].try_into().unwrap()) as usize;
    raw[8 + 8 + header_len + 8 + 100] ^= 0xFF;
    std::fs::write(&path, &raw).unwrap();
    let err = manager
        .read_back(handle)
        .expect_err("a flipped lane frame must not decode");
    assert!(
        matches!(err, FlowError::Spill(_)),
        "classified as a spill error: {err:?}"
    );
    assert!(err.to_string().contains("crc mismatch"), "{err}");
    drop(manager);
}

#[test]
fn failed_publish_removes_its_temp_file_while_the_manager_lives() {
    use toreador_dataflow::spill::SpillManager;

    // The fsync and the rename are the publish steps after the run is
    // written; a fault in either must take the `.tmp` with it at once,
    // not leave it for the manager's directory removal.
    for spec in ["tmp:sync:0:eio", "pages:rename:0:eio"] {
        let dir = tmp_dir(&format!("publish-{}", spec.replace(':', "-")));
        let target = DiskTarget::parse(spec).unwrap();
        let (chaos, _guard) = DiskChaos::register(&dir, DiskChaosPlan::targeted(vec![target]));
        let manager = SpillManager::new(0, dir.clone());
        let err = manager
            .spill_table(&clickstream(700, 13))
            .expect_err("the injected publish fault must fail the spill");
        assert_classified(&err);
        chaos.disarm();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().all(|n| !n.ends_with(".tmp")),
            "{spec} left {names:?} in the live spill dir"
        );
        drop(manager);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn interior_bit_flip_in_a_wave_file_is_classified_corruption() {
    let root = tmp_dir("wave-flip");
    let mut engine = Engine::new(EngineConfig::default().with_threads(2).with_checkpoint(
        CheckpointSpec {
            root: root.clone(),
            run_id: "flip-run".into(),
            resume: false,
        },
    ));
    engine.register("clicks", clickstream(2_000, 7)).unwrap();
    engine
        .run_checkpointed(&wide_flow(&engine), "flip-run")
        .unwrap();
    let wave = root.join("flip-run").join("wave-0000.ckpt");
    let mut raw = std::fs::read(&wave).unwrap();
    let mid = raw.len() / 2;
    raw[mid] ^= 0xFF;
    std::fs::write(&wave, &raw).unwrap();
    // The resume path refuses the wave with a classified error…
    let mut resumer = Engine::new(
        EngineConfig::default()
            .with_threads(2)
            .with_checkpoint(CheckpointSpec::new(&root, "flip-run")),
    );
    resumer.register("clicks", clickstream(2_000, 7)).unwrap();
    let err = resumer
        .resume(&wide_flow(&resumer), "flip-run")
        .expect_err("a flipped wave must not restore");
    assert!(
        matches!(err, FlowError::Checkpoint(_)),
        "classified as a checkpoint error: {err:?}"
    );
    assert!(err.to_string().contains("corrupt wave file"), "{err}");
    // …and fsck agrees.
    let arts = toreador_dataflow::fsck::scan_tree(&root).unwrap();
    let bad = arts.iter().find(|a| a.path == wave).unwrap();
    assert!(bad.verdict.is_corrupt(), "{:?}", bad.verdict);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn streaming_ack_log_rides_the_same_seam() {
    // The durable ack log is a DurableLog under the hood; prove the
    // injector reaches it through the store scanner by tearing its WAL
    // and watching fsck classify it.
    let dir = tmp_dir("ack-log");
    {
        use toreador_store::log::{DurableLog, LogConfig};
        let (mut log, _) = DurableLog::open(&dir, LogConfig::default()).unwrap();
        for i in 0..4 {
            log.append(format!("ack-{i}").as_bytes()).unwrap();
        }
        log.sync().unwrap();
    }
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "log"))
        .unwrap();
    let len = std::fs::metadata(&seg).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .unwrap()
        .set_len(len - 2)
        .unwrap();
    let arts = scan_store_dir(&dir).unwrap();
    assert!(
        arts.iter().any(|a| matches!(
            a.verdict,
            toreador_store::fsck::Verdict::TruncatableTail { .. }
        )),
        "{arts:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

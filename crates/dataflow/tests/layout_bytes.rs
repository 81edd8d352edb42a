//! A table's bytes on the wire and on disk do not depend on its in-memory
//! layout. A view — a window at an offset into buffers a parent table also
//! holds — routes and encodes for the shuffle, a checkpoint wave and a
//! spill file exactly as its compacted copy does. One fixed table's wave
//! file also matches golden bytes committed before columns became shared
//! views, and the golden file reads back into that table, so old
//! checkpoints still resume. Spill files never outlive the run that wrote
//! them, so their layout is pinned by structure, not by golden bytes.

use std::path::PathBuf;

use proptest::prelude::*;

use toreador_data::column::LaneRef;
use toreador_data::generate::edge_table;
use toreador_data::prelude::*;
use toreador_dataflow::checkpoint::RunCheckpoint;
use toreador_dataflow::codec::{encode_lane, encode_table, lanes, take_frame};
use toreador_dataflow::prelude::*;
use toreador_dataflow::shuffle::{route_rows, shuffle};
use toreador_dataflow::spill::SpillManager;

fn wave_body(t: &Table) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_table(t, &mut buf);
    buf
}

fn lane_payloads(t: &Table) -> Vec<Vec<u8>> {
    lanes(t)
        .iter()
        .map(|lane| {
            let mut buf = Vec::new();
            encode_lane(lane, t.num_rows(), &mut buf);
            buf
        })
        .collect()
}

// 256 cases by default; `PROPTEST_CASES` overrides (the vendored proptest
// does not read it itself).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256),
    ))]

    #[test]
    fn views_encode_as_their_compacted_copies(
        rows in 0usize..120,
        pad in 0usize..70,
        seed in any::<u64>(),
        targets in 1usize..5,
    ) {
        let base = edge_table(rows + 2 * pad, seed);
        let view = base.slice(pad, pad + rows).unwrap();
        let copy = view.compact();
        prop_assert!(view.columns()[0].shares_storage(&base.columns()[0]));
        prop_assert!(!copy.columns()[0].shares_storage(&base.columns()[0]));
        prop_assert_eq!(wave_body(&view), wave_body(&copy));
        prop_assert_eq!(lane_payloads(&view), lane_payloads(&copy));
        let keys = [1usize, 2];
        prop_assert_eq!(
            route_rows(&view, &keys, targets).unwrap(),
            route_rows(&copy, &keys, targets).unwrap()
        );
        let names = ["x".to_owned(), "s".to_owned()];
        let a = shuffle(std::slice::from_ref(&view), view.schema(), &names, targets).unwrap();
        let b = shuffle(std::slice::from_ref(&copy), copy.schema(), &names, targets).unwrap();
        prop_assert_eq!(a.bytes_moved, b.bytes_moved);
        for (pa, pb) in a.partitions.iter().zip(&b.partitions) {
            prop_assert_eq!(wave_body(pa), wave_body(pb));
        }
    }
}

/// The golden table: every type, nulls, NaN payloads, ±0.0, ±∞, and empty
/// and multi-byte strings — taken as a view two rows into a larger table.
fn golden_table() -> Table {
    let schema = Schema::new(vec![
        Field::new("i", DataType::Int),
        Field::new("x", DataType::Float),
        Field::new("s", DataType::Str),
        Field::new("b", DataType::Bool),
        Field::new("t", DataType::Timestamp),
    ])
    .unwrap();
    let f = f64::from_bits;
    let rows: Vec<Row> = [
        (Some(-1), Some(1.0), Some("pad"), Some(true), Some(0)),
        (None, None, None, None, None),
        (Some(0), Some(0.0), Some(""), Some(false), Some(1)),
        (
            Some(i64::MAX),
            Some(f(0x8000_0000_0000_0000)),
            Some("Zürich"),
            None,
            Some(-5),
        ),
        (
            None,
            Some(f(0x7ff8_0000_0000_0001)),
            Some("日本"),
            Some(true),
            None,
        ),
        (
            Some(i64::MIN),
            Some(f(0xfff4_0000_0000_00ff)),
            None,
            Some(false),
            Some(86_400_000),
        ),
        (
            Some(7),
            Some(f64::INFINITY),
            Some("🦀x"),
            Some(true),
            Some(3_600_000),
        ),
        (
            Some(-7),
            Some(f64::NEG_INFINITY),
            Some("ab cd"),
            None,
            Some(2),
        ),
        (Some(42), None, Some(""), Some(true), Some(i64::MAX)),
        (Some(3), Some(-2.25), Some("é"), Some(false), Some(-1)),
        (Some(9), Some(1.5), Some("tail"), Some(true), Some(9)),
    ]
    .into_iter()
    .map(|(i, x, s, b, t)| {
        vec![
            i.map_or(Value::Null, Value::Int),
            x.map_or(Value::Null, Value::Float),
            s.map_or(Value::Null, |s: &str| Value::Str(s.to_owned())),
            b.map_or(Value::Null, Value::Bool),
            t.map_or(Value::Null, Value::Timestamp),
        ]
    })
    .collect();
    let n = rows.len();
    Table::from_rows(schema, rows)
        .unwrap()
        .slice(2, n - 1)
        .unwrap()
}

/// Equal schemas and, lane by lane, equal validity and data — floats by
/// bit pattern, null slots included.
fn assert_identical(got: &Table, want: &Table) {
    assert_eq!(got.schema(), want.schema());
    assert_eq!(got.num_rows(), want.num_rows());
    for (g, w) in got.columns().iter().zip(want.columns()) {
        assert_eq!(g.validity(), w.validity());
        match (g.lane(), w.lane()) {
            (LaneRef::Float(a), LaneRef::Float(b)) => {
                let bits = |x: &[f64]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(a), bits(b));
            }
            _ => assert_eq!(g, w),
        }
    }
}

fn golden_manifest() -> CheckpointManifest {
    CheckpointManifest {
        format_version: 1,
        run_id: "golden".to_owned(),
        plan_fingerprint: "0".to_owned(),
        config_fingerprint: "0".to_owned(),
        input_fingerprint: "0".to_owned(),
        chaos_seed: 0,
        partitions: 2,
    }
}

fn golden_parts() -> [Table; 2] {
    let t = golden_table();
    [t.slice(0, 3).unwrap(), t.slice(3, t.num_rows()).unwrap()]
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("toreador-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn checkpoint_wave_file_matches_golden_bytes() {
    let root = scratch_dir("wave");
    let spec = CheckpointSpec::new(&root, "golden");
    let ckpt = RunCheckpoint::create(&spec, &golden_manifest()).unwrap();
    ckpt.persist_wave(1, 0, &golden_parts()).unwrap();
    let wave = std::fs::read(spec.dir().join("wave-0000.ckpt")).unwrap();
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(wave, include_bytes!("golden/checkpoint_wave.bin"));
}

/// Spill `t` as the first run of a fresh manager and return the file's
/// bytes and the table read back from it.
fn spill_file(t: &Table, tag: &str) -> (Vec<u8>, Table) {
    let dir = scratch_dir(tag);
    let manager = SpillManager::new(0, dir.clone());
    let handle = manager.spill_table(t).unwrap();
    let file = std::fs::read(dir.join("run-000000.pages")).unwrap();
    let back = manager.read_back(handle).unwrap();
    drop(manager);
    (file, back)
}

#[test]
fn spill_file_is_a_header_then_one_lane_frame_per_column() {
    let t = golden_table();
    let (file, back) = spill_file(&t, "spill-view");
    assert_identical(&back, &t);
    assert_eq!(file, spill_file(&t.compact(), "spill-copy").0);
    let mut rest = file.strip_prefix(b"TORSPIL1").expect("spill magic");
    let header = format!(
        r#"{{"rows":{},"schema":{}}}"#,
        t.num_rows(),
        serde_json::to_string(t.schema()).unwrap()
    );
    assert_eq!(take_frame(&mut rest).unwrap(), header.as_bytes());
    for lane in lane_payloads(&t) {
        assert_eq!(take_frame(&mut rest).unwrap(), lane);
    }
    assert!(rest.is_empty(), "nothing follows the last lane frame");
}

#[test]
fn golden_checkpoint_wave_resumes_into_the_golden_table() {
    let root = scratch_dir("wave-read");
    let spec = CheckpointSpec::new(&root, "golden");
    RunCheckpoint::create(&spec, &golden_manifest()).unwrap();
    std::fs::write(
        spec.dir().join("wave-0000.ckpt"),
        include_bytes!("golden/checkpoint_wave.bin"),
    )
    .unwrap();
    let resumed =
        RunCheckpoint::resume(&CheckpointSpec::resume(&root, "golden"), &golden_manifest());
    let _ = std::fs::remove_dir_all(&root);
    let wave = resumed.unwrap().take_restored(0).unwrap();
    assert_eq!(wave.stage, 1);
    assert_eq!(wave.tables.len(), 2);
    for (got, want) in wave.tables.iter().zip(&golden_parts()) {
        assert_identical(got, want);
    }
}

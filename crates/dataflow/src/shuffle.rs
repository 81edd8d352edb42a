//! Hash shuffle: route rows by key, then scatter typed lanes.
//!
//! A shuffle redistributes rows so that all rows sharing a key land in the
//! same partition — the data-movement step behind aggregates, joins and
//! `distinct`. In Spark this crosses the network; here it never leaves the
//! process, so nothing is serialised: each input is routed once
//! ([`route_rows`]) and each column's lane is scattered straight into
//! per-target column builders ([`Column::scatter`]), one copy per cell.
//! Null slots land as the builders' defaults (`false`, `0`, `0.0`, empty
//! text), so a spilled and an in-memory partition agree lane for lane.
//!
//! What a shuffle *costs* is still reported in bytes: the row codec's
//! width ([`crate::codec::row_widths`]: 2 per row, then per cell 1 for a
//! null, 2 for a bool, 9 for an int, float or timestamp, 5 plus the byte
//! length for a string). The byte count is exact and computed, not paid
//! for; it is what `dataflow.shuffle_bytes` and the memory budget see.
//!
//! When an [`ExecConfig::memory_budget_bytes`](crate::physical::ExecConfig)
//! is set, [`shuffle_spillable`] bounds the staged bytes: every 1 024 rows
//! of an input, and at its end, the target with the most staged bytes is
//! finished into a table and spilled as one run file ([`crate::spill`])
//! until the rest fits. Each target's output is its spilled runs, then its
//! staged rows, in arrival order — identical to the in-memory result.

use toreador_data::column::{Column, ColumnBuilder, Validity};
use toreador_data::schema::Schema;
use toreador_data::table::Table;

use crate::codec::row_widths;
use crate::error::{FlowError, Result};
use crate::spill::{SpillHandle, SpillManager, SPILL_OP_SHUFFLE};
use crate::trace::{TraceEventKind, TraceJournal};

const ROUTE_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

// FNV-1a over a tagged byte stream. Must stay byte-for-byte identical to
// `Value::hash_code` so columnar routing agrees with the row-at-a-time
// `oracle::route` (the differential property tests pin this).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// FNV-1a over a type tag followed by the value's bytes.
#[inline]
fn fnv_tagged(tag: u8, bytes: &[u8]) -> u64 {
    let mut h = (FNV_OFFSET ^ tag as u64).wrapping_mul(FNV_PRIME);
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Stable hashes for every row of one column, computed lane-at-a-time:
/// `out[i] == col.value(i).hash_code()` for all `i`, without materialising
/// a single [`toreador_data::value::Value`].
pub fn column_hash_codes(col: &Column) -> Vec<u64> {
    column_hash_codes_range(col, 0, col.len())
}

/// [`column_hash_codes`] for rows `lo..hi` only: `out[k]` is the hash of
/// row `lo + k`. Panics when the range is out of bounds.
pub fn column_hash_codes_range(col: &Column, lo: usize, hi: usize) -> Vec<u64> {
    fn lane<T>(
        data: &[T],
        validity: &Validity,
        lo: usize,
        hi: usize,
        hash: impl Fn(&T) -> u64,
    ) -> Vec<u64> {
        if validity.null_count() == 0 {
            data[lo..hi].iter().map(hash).collect()
        } else {
            let null = fnv_tagged(0, &[]);
            (lo..hi)
                .map(|i| {
                    if validity.get(i) {
                        hash(&data[i])
                    } else {
                        null
                    }
                })
                .collect()
        }
    }
    match col {
        Column::Bool { data, validity } => {
            lane(data, validity, lo, hi, |b| fnv_tagged(1, &[*b as u8]))
        }
        Column::Int { data, validity } => {
            lane(data, validity, lo, hi, |v| fnv_tagged(2, &v.to_le_bytes()))
        }
        Column::Float { data, validity } => lane(data, validity, lo, hi, |x| {
            if x.fract() == 0.0 && x.is_finite() && *x >= i64::MIN as f64 && *x <= i64::MAX as f64 {
                // Integral floats hash as their integer value so that
                // group-equal values land in the same partition.
                fnv_tagged(2, &(*x as i64).to_le_bytes())
            } else {
                fnv_tagged(3, &x.to_bits().to_le_bytes())
            }
        }),
        Column::Str { data, validity } => {
            let null = fnv_tagged(0, &[]);
            (lo..hi)
                .map(|i| {
                    if validity.get(i) {
                        fnv_tagged(4, data.bytes(i))
                    } else {
                        null
                    }
                })
                .collect()
        }
        Column::Timestamp { data, validity } => {
            lane(data, validity, lo, hi, |t| fnv_tagged(5, &t.to_le_bytes()))
        }
    }
}

/// Per-row shuffle targets for a whole table, computed column-at-a-time over
/// the bound key columns: a seeded rotate-xor of the keys' hash codes,
/// modulo `targets`. Touches only the key columns' native lanes.
pub fn route_rows(t: &Table, key_idx: &[usize], targets: usize) -> Result<Vec<u32>> {
    let mut acc = vec![ROUTE_SEED; t.num_rows()];
    for &k in key_idx {
        let codes = column_hash_codes(t.column_at(k).map_err(FlowError::Data)?);
        for (h, code) in acc.iter_mut().zip(codes) {
            *h = h.rotate_left(5) ^ code;
        }
    }
    Ok(acc
        .into_iter()
        .map(|h| (h % targets as u64) as u32)
        .collect())
}

/// Result of a shuffle.
pub struct ShuffleOutput {
    pub partitions: Vec<Table>,
    /// The row-codec bytes of every row that crossed the shuffle: what
    /// it would have put on a wire, computed rather than encoded.
    pub bytes_moved: u64,
}

impl ShuffleOutput {
    /// Rows that crossed the shuffle (sum over output partitions).
    pub fn rows_moved(&self) -> u64 {
        self.partitions.iter().map(|p| p.num_rows() as u64).sum()
    }
}

/// Redistribute all `inputs` rows into `targets` partitions keyed by the
/// named columns; with no keys every row gathers into partition 0.
pub fn shuffle(
    inputs: &[Table],
    schema: &Schema,
    keys: &[String],
    targets: usize,
) -> Result<ShuffleOutput> {
    shuffle_spillable(inputs.to_vec(), schema, keys, targets, None)
}

/// How many staged rows between budget checks on the spill path. Checking
/// at row granularity would put a branch in the hot loop for nothing; a
/// whole input table at a time could overshoot the budget by that table's
/// encoded size. 1024 rows keeps the overshoot to a few row-widths.
const SPILL_CHECK_ROWS: usize = 1024;

/// Each target's staged rows: one builder per column and target, plus the
/// rows and encoded bytes staged per target.
struct Staging<'a> {
    schema: &'a Schema,
    /// `columns[c][target]`: column-major, so one column scatters into one
    /// slice of builders.
    columns: Vec<Vec<ColumnBuilder>>,
    rows: Vec<usize>,
    bytes: Vec<usize>,
}

impl<'a> Staging<'a> {
    fn new(schema: &'a Schema, targets: usize) -> Self {
        Staging {
            schema,
            columns: schema
                .fields()
                .iter()
                .map(|f| {
                    (0..targets)
                        .map(|_| ColumnBuilder::new(f.data_type))
                        .collect()
                })
                .collect(),
            rows: vec![0; targets],
            bytes: vec![0; targets],
        }
    }

    /// Stage rows `lo..hi` of `t`, row `lo + k` to target `routes[k]`
    /// (all to target 0 without routes).
    fn scatter(&mut self, t: &Table, lo: usize, hi: usize, routes: Option<&[u32]>) -> Result<()> {
        if t.num_columns() != self.columns.len() {
            return Err(FlowError::Plan(format!(
                "shuffle input has {} columns, schema {}",
                t.num_columns(),
                self.columns.len()
            )));
        }
        for (col, out) in t.columns().iter().zip(&mut self.columns) {
            col.scatter(lo..hi, routes, out).map_err(FlowError::Data)?;
        }
        let route = |k: usize| routes.map_or(0, |r| r[k] as usize);
        for (k, w) in row_widths(t, lo..hi).into_iter().enumerate() {
            self.rows[route(k)] += 1;
            self.bytes[route(k)] += w;
        }
        Ok(())
    }

    /// Freeze `target`'s staged rows into a table and reset them.
    fn take(&mut self, target: usize) -> Result<Table> {
        let columns = self
            .columns
            .iter_mut()
            .map(|c| {
                let ty = c[target].data_type();
                std::mem::replace(&mut c[target], ColumnBuilder::new(ty)).finish()
            })
            .collect();
        self.rows[target] = 0;
        self.bytes[target] = 0;
        Table::new(self.schema.clone(), columns).map_err(FlowError::Data)
    }
}

/// The core every shuffle runs through. Inputs arrive as owned tables,
/// each dropped once it is staged. With `spill: None` — or a budget
/// nothing exceeds — everything stays staged in memory. With a
/// [`SpillManager`], whenever the staged bytes exceed the budget the
/// target with the most is spilled as a run file, and each target's
/// output is its runs plus its staged tail, in arrival order — identical
/// to the in-memory result.
pub fn shuffle_spillable(
    inputs: Vec<Table>,
    schema: &Schema,
    keys: &[String],
    targets: usize,
    spill: Option<(&SpillManager, &TraceJournal)>,
) -> Result<ShuffleOutput> {
    if targets == 0 {
        return Err(FlowError::Plan(
            "shuffle needs at least one target".to_owned(),
        ));
    }
    let key_idx: Vec<usize> = keys
        .iter()
        .map(|k| schema.index_of(k).map_err(FlowError::Data))
        .collect::<Result<Vec<_>>>()?;
    let mut staging = Staging::new(schema, targets);
    // Each target's runs, each with its staged bytes: what `SpillStarted`
    // reported and `SpillMerged` sums.
    let mut spilled: Vec<Vec<(SpillHandle, u64)>> = (0..targets).map(|_| Vec::new()).collect();
    let mut spilled_bytes = 0u64;
    for t in inputs {
        let routes = if key_idx.is_empty() || targets == 1 {
            None
        } else {
            Some(route_rows(&t, &key_idx, targets)?)
        };
        let mut lo = 0;
        while lo < t.num_rows() {
            let hi = (lo + SPILL_CHECK_ROWS).min(t.num_rows());
            staging.scatter(&t, lo, hi, routes.as_ref().map(|r| &r[lo..hi]))?;
            lo = hi;
            let Some((manager, journal)) = spill else {
                continue;
            };
            while staging.bytes.iter().sum::<usize>() > manager.budget_bytes() as usize {
                // The target with the most staged bytes; ties go to the
                // last index.
                let Some((target, &bytes)) = staging
                    .bytes
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b > 0)
                    .max_by_key(|(_, &b)| b)
                else {
                    break;
                };
                let rows = staging.rows[target] as u64;
                let run = staging.take(target)?;
                let handle = manager.spill_table(&run)?;
                journal.record(TraceEventKind::SpillStarted {
                    op: SPILL_OP_SHUFFLE.to_owned(),
                    target,
                    rows,
                    bytes: bytes as u64,
                });
                spilled_bytes += bytes as u64;
                spilled[target].push((handle, bytes as u64));
            }
        }
    }
    let staged_bytes: u64 = staging.bytes.iter().map(|&b| b as u64).sum();
    let mut partitions = Vec::with_capacity(targets);
    for (target, runs) in spilled.into_iter().enumerate() {
        let tail = staging.take(target)?;
        if runs.is_empty() {
            partitions.push(tail);
            continue;
        }
        let (manager, journal) = spill.expect("spilled runs imply a spill manager");
        let mut chunks = Vec::with_capacity(runs.len() + 1);
        let mut merged_bytes = 0u64;
        let n_runs = runs.len();
        for (handle, bytes) in runs {
            merged_bytes += bytes;
            chunks.push(manager.read_back(handle)?);
        }
        chunks.push(tail);
        journal.record(TraceEventKind::SpillMerged {
            op: SPILL_OP_SHUFFLE.to_owned(),
            target,
            runs: n_runs,
            rows: chunks.iter().map(|c| c.num_rows() as u64).sum(),
            bytes: merged_bytes,
        });
        partitions.push(Table::concat(&chunks).map_err(FlowError::Data)?);
    }
    Ok(ShuffleOutput {
        partitions,
        bytes_moved: staged_bytes + spilled_bytes,
    })
}

/// [`shuffle_spillable`] plus a [`TraceEventKind::ShuffleWave`] event in
/// `journal`: the shuffle itself stays pure, and the physical operators,
/// which have a journal in scope, call this.
pub fn shuffle_traced_spillable(
    inputs: Vec<Table>,
    schema: &Schema,
    keys: &[String],
    targets: usize,
    journal: &TraceJournal,
    spill: Option<&SpillManager>,
) -> Result<ShuffleOutput> {
    let sources = inputs.len();
    let out = shuffle_spillable(inputs, schema, keys, targets, spill.map(|m| (m, journal)))?;
    journal.record(TraceEventKind::ShuffleWave {
        keys: keys.len(),
        rows: out.rows_moved(),
        bytes: out.bytes_moved,
        sources,
        targets,
    });
    Ok(out)
}

#[cfg(test)]
pub(crate) mod oracle;

#[cfg(test)]
mod tests {
    use super::oracle::{encode_row, route};
    use super::*;
    use crate::codec::{decode_table, encode_row_at, encode_table, lanes};
    use toreador_data::generate::random_table;
    use toreador_data::partition::PartitionedTable;
    use toreador_data::schema::Field;
    use toreador_data::value::{DataType, Row, Value};

    #[test]
    fn row_codec_round_trips_every_type() {
        let schema = Schema::new(
            [
                DataType::Int,
                DataType::Bool,
                DataType::Int,
                DataType::Float,
                DataType::Str,
                DataType::Timestamp,
            ]
            .iter()
            .enumerate()
            .map(|(i, &ty)| Field::new(format!("c{i}"), ty))
            .collect(),
        )
        .unwrap();
        let row: Row = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(2.5),
            Value::Str("héllo, wörld".into()),
            Value::Timestamp(1_488_000_000_000),
        ];
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        let back = decode_table(&schema, 1, &buf).unwrap();
        assert_eq!(back.row(0).unwrap(), row);
    }

    #[test]
    fn decode_detects_truncation() {
        let schema = Schema::new(vec![Field::new("s", DataType::Str)]).unwrap();
        let row: Row = vec![Value::Str("abcdef".into())];
        let mut full = Vec::new();
        encode_row(&row, &mut full);
        for cut in 0..full.len() {
            assert!(
                decode_table(&schema, 1, &full[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn decode_rejects_bad_tag() {
        let schema = Schema::new(vec![Field::new("i", DataType::Int)]).unwrap();
        assert!(decode_table(&schema, 1, &[1, 0, 99]).is_err());
    }

    #[test]
    fn shuffle_keeps_keys_together_and_counts_bytes() {
        let t = random_table(500, 4, 7);
        let parts = PartitionedTable::split(t.clone(), 4).unwrap();
        let out = shuffle(parts.parts(), t.schema(), &["c0".to_owned()], 8).unwrap();
        assert_eq!(out.partitions.len(), 8);
        let total: usize = out.partitions.iter().map(Table::num_rows).sum();
        assert_eq!(total, 500);
        assert!(out.bytes_moved > 0);
        // Key disjointness across partitions.
        use std::collections::HashSet;
        let mut seen: Vec<HashSet<String>> = Vec::new();
        for p in &out.partitions {
            let keys: HashSet<String> = p
                .column("c0")
                .unwrap()
                .iter_values()
                .map(|v| format!("{v:?}"))
                .collect();
            for prior in &seen {
                assert!(prior.is_disjoint(&keys), "same key in two partitions");
            }
            seen.push(keys);
        }
    }

    #[test]
    fn keyless_shuffle_gathers_to_partition_zero() {
        let t = random_table(100, 2, 1);
        let out = shuffle(std::slice::from_ref(&t), t.schema(), &[], 4).unwrap();
        assert_eq!(out.partitions[0].num_rows(), 100);
        for p in &out.partitions[1..] {
            assert_eq!(p.num_rows(), 0);
        }
    }

    #[test]
    fn traced_shuffle_records_a_wave() {
        let t = random_table(200, 3, 5);
        let parts = PartitionedTable::split(t.clone(), 2).unwrap();
        let journal = TraceJournal::new();
        let out = shuffle_traced_spillable(
            parts.parts().to_vec(),
            t.schema(),
            &["c0".to_owned()],
            4,
            &journal,
            None,
        )
        .unwrap();
        let trace = journal.snapshot();
        let wave = trace
            .events
            .iter()
            .find_map(|e| match &e.kind {
                TraceEventKind::ShuffleWave {
                    keys,
                    rows,
                    bytes,
                    sources,
                    targets,
                } => Some((*keys, *rows, *bytes, *sources, *targets)),
                _ => None,
            })
            .expect("a ShuffleWave event");
        assert_eq!(wave, (1, 200, out.bytes_moved, 2, 4));
        assert_eq!(out.rows_moved(), 200);
    }

    #[test]
    fn columnar_hashes_match_value_hash_code() {
        let t = random_table(300, 5, 11);
        for col in t.columns() {
            let codes = column_hash_codes(col);
            for (i, &code) in codes.iter().enumerate() {
                assert_eq!(code, col.value(i).unwrap().hash_code(), "row {i}");
            }
            for (lo, hi) in [(0, 0), (7, 130), (299, 300)] {
                assert_eq!(column_hash_codes_range(col, lo, hi), codes[lo..hi]);
            }
        }
        // The integral-float rule survives the lane path.
        let col = Column::Float {
            data: vec![7.0, 2.5, f64::NAN, -0.0].into(),
            validity: toreador_data::column::Validity::all_valid(4),
        };
        let codes = column_hash_codes(&col);
        assert_eq!(codes[0], Value::Int(7).hash_code());
        assert_eq!(codes[1], Value::Float(2.5).hash_code());
        assert_eq!(codes[2], Value::Float(f64::NAN).hash_code());
        assert_eq!(codes[3], Value::Int(0).hash_code());
    }

    #[test]
    fn columnar_routing_matches_row_route() {
        let t = random_table(250, 4, 23);
        let key_idx = vec![0usize, 2, 3];
        let routes = route_rows(&t, &key_idx, 7).unwrap();
        for (i, row) in t.iter_rows().enumerate() {
            assert_eq!(routes[i] as usize, route(&row, &key_idx, 7), "row {i}");
        }
    }

    #[test]
    fn lane_encoding_matches_row_encoding() {
        let t = random_table(120, 5, 31);
        let lanes = lanes(&t);
        for (i, row) in t.iter_rows().enumerate() {
            let mut by_row = Vec::new();
            encode_row(&row, &mut by_row);
            let mut by_lane = Vec::new();
            encode_row_at(&lanes, i, &mut by_lane);
            assert_eq!(by_row, by_lane, "row {i}");
        }
    }

    #[test]
    fn table_codec_round_trips_and_rejects_trailing_bytes() {
        let t = random_table(150, 5, 17);
        let mut bytes = Vec::new();
        encode_table(&t, &mut bytes);
        let back = decode_table(t.schema(), t.num_rows(), &bytes).unwrap();
        assert_eq!(back, t);
        // Undercounting rows leaves trailing bytes: must be rejected.
        assert!(decode_table(t.schema(), t.num_rows() - 1, &bytes).is_err());
        // Overcounting runs off the end: must be rejected.
        assert!(decode_table(t.schema(), t.num_rows() + 1, &bytes).is_err());
    }

    #[test]
    fn shuffle_zero_targets_rejected() {
        let t = random_table(10, 2, 1);
        assert!(shuffle(std::slice::from_ref(&t), t.schema(), &[], 0).is_err());
    }

    #[test]
    fn shuffle_unknown_key_rejected() {
        let t = random_table(10, 2, 1);
        assert!(shuffle(std::slice::from_ref(&t), t.schema(), &["zzz".to_owned()], 2).is_err());
    }

    /// The core out-of-core invariant at the shuffle layer: with any budget
    /// — including zero — the spillable shuffle's partitions, byte counts
    /// and row counts are identical to the in-memory shuffle's.
    #[test]
    fn spillable_shuffle_is_byte_identical_to_in_memory() {
        let t = random_table(800, 4, 99);
        let parts = PartitionedTable::split(t.clone(), 4).unwrap();
        let keys = vec!["c0".to_owned()];
        let baseline = shuffle(parts.parts(), t.schema(), &keys, 6).unwrap();
        for budget in [0u64, 1, 512, 4 << 10, 1 << 30] {
            let dir = std::env::temp_dir().join(format!(
                "toreador-shuffle-spill-{}-{budget}",
                std::process::id()
            ));
            let manager = SpillManager::new(budget, dir.clone());
            let journal = TraceJournal::new();
            let out = shuffle_spillable(
                parts.parts().to_vec(),
                t.schema(),
                &keys,
                6,
                Some((&manager, &journal)),
            )
            .unwrap();
            assert_eq!(out.partitions, baseline.partitions, "budget {budget}");
            assert_eq!(out.bytes_moved, baseline.bytes_moved, "budget {budget}");
            let spilled = journal
                .snapshot()
                .events
                .iter()
                .filter(|e| matches!(e.kind, TraceEventKind::SpillStarted { .. }))
                .count();
            if budget >= 1 << 30 {
                assert_eq!(spilled, 0, "a huge budget must not spill");
            } else {
                assert!(spilled > 0, "budget {budget} must have spilled");
            }
            drop(manager);
            assert!(!dir.exists(), "spill dir must be cleaned up on drop");
        }
    }

    /// A spilled run is counted in one unit, its staged row-codec bytes:
    /// per target, the `SpillStarted` bytes sum to the `SpillMerged` bytes.
    #[test]
    fn merged_spill_bytes_are_the_started_bytes() {
        let t = random_table(800, 4, 7);
        let parts = PartitionedTable::split(t.clone(), 4).unwrap();
        for budget in [0u64, 512, 4 << 10] {
            let dir = std::env::temp_dir().join(format!(
                "toreador-shuffle-units-{}-{budget}",
                std::process::id()
            ));
            let manager = SpillManager::new(budget, dir);
            let journal = TraceJournal::new();
            let keys = ["c0".to_owned()];
            let spill = Some((&manager, &journal));
            shuffle_spillable(parts.parts().to_vec(), t.schema(), &keys, 6, spill).unwrap();
            let (mut started, mut merged) = (vec![0u64; 6], vec![0u64; 6]);
            for e in &journal.snapshot().events {
                match e.kind {
                    TraceEventKind::SpillStarted { target, bytes, .. } => started[target] += bytes,
                    TraceEventKind::SpillMerged { target, bytes, .. } => merged[target] += bytes,
                    _ => {}
                }
            }
            assert!(started.iter().sum::<u64>() > 0, "budget {budget} spilled");
            assert_eq!(started, merged, "budget {budget}");
        }
    }
}

//! Micro-batch streaming execution.
//!
//! TOREADOR campaigns choose between *batch* and *stream* processing as a
//! first-class design option. This module provides the streaming half: a
//! time-ordered source is cut into micro-batches by event-time window; each
//! batch runs through the same engine; stateful aggregates carry across
//! batches through a [`StreamState`]. The trade-off the Labs surface is
//! latency-per-result vs total throughput, measured by the run metrics.

use std::collections::HashMap;

use toreador_data::column::Column;
use toreador_data::table::Table;
use toreador_data::value::Value;

use crate::error::{FlowError, Result};
use crate::logical::Dataflow;
use crate::metrics::RunMetrics;
use crate::session::{Engine, EngineConfig};
use crate::trace::RunTrace;

/// Splits a time-ordered table into event-time micro-batches.
#[derive(Debug)]
pub struct MicroBatcher {
    batches: Vec<Table>,
}

impl MicroBatcher {
    /// Cut `source` into tumbling windows of `window_ms` over `ts_column`.
    ///
    /// Rows are assigned by `floor(ts / window_ms)`; empty windows between
    /// the first and last event are preserved (a real stream ticks even when
    /// silent).
    pub fn tumbling(source: &Table, ts_column: &str, window_ms: i64) -> Result<Self> {
        if window_ms <= 0 {
            return Err(FlowError::Plan("window must be positive".to_owned()));
        }
        let ts = source.column(ts_column)?;
        if source.num_rows() == 0 {
            return Ok(MicroBatcher { batches: vec![] });
        }
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        let mut stamps = Vec::with_capacity(source.num_rows());
        for v in ts.iter_values() {
            let t = match v {
                Value::Timestamp(t) => t,
                Value::Int(t) => t,
                other => {
                    return Err(FlowError::TypeCheck(format!(
                        "timestamp column contains {other:?}"
                    )))
                }
            };
            lo = lo.min(t);
            hi = hi.max(t);
            stamps.push(t);
        }
        let first = lo.div_euclid(window_ms);
        let last = hi.div_euclid(window_ms);
        let n = (last - first + 1) as usize;
        // Per-window row-index lists, built in one pass. Memory is
        // O(windows + rows), not O(windows × rows) — sparse timestamps over
        // a wide range only pay for the rows they actually hold.
        let mut windows: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, t) in stamps.iter().enumerate() {
            let w = (t.div_euclid(window_ms) - first) as usize;
            windows[w].push(i);
        }
        let batches = windows
            .into_iter()
            .map(|idx| source.take(&idx).map_err(FlowError::Data))
            .collect::<Result<Vec<_>>>()?;
        Ok(MicroBatcher { batches })
    }

    pub fn num_batches(&self) -> usize {
        self.batches.len()
    }

    pub fn batches(&self) -> &[Table] {
        &self.batches
    }
}

/// Carry-over state for streaming aggregation: keyed running counts/sums.
///
/// Keys and fields are strings so state survives across batches regardless
/// of the pipeline's schema details.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct StreamState {
    counts: HashMap<String, i64>,
    sums: HashMap<String, f64>,
}

impl StreamState {
    pub fn new() -> Self {
        Self::default()
    }

    /// Merge the result of the batch at stream `offset` into the state:
    /// `key_col` identifies the group, `count_col`/`sum_col` are merged
    /// additively when present. A NULL key is refused (see
    /// [`for_each_state_row`]).
    pub fn absorb(
        &mut self,
        batch_result: &Table,
        offset: u64,
        key_col: &str,
        count_col: Option<&str>,
        sum_col: Option<&str>,
    ) -> Result<()> {
        for_each_state_row(
            batch_result,
            offset,
            key_col,
            count_col,
            sum_col,
            |key, count, sum| {
                if let Some(n) = count {
                    *self.counts.entry(key.clone()).or_insert(0) += n;
                }
                if let Some(s) = sum {
                    *self.sums.entry(key).or_insert(0.0) += s;
                }
            },
        )
    }

    pub fn count(&self, key: &str) -> i64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    pub fn keys(&self) -> Vec<&str> {
        let mut ks: Vec<&str> = self
            .counts
            .keys()
            .chain(self.sums.keys())
            .map(String::as_str)
            .collect();
        ks.sort_unstable();
        ks.dedup();
        ks
    }

    /// Add `delta` to the running count for `key`. The continuous streaming
    /// loop applies batch deltas through this (live and WAL-replay paths
    /// share it, which is what makes resume byte-identical).
    pub fn add_count(&mut self, key: &str, delta: i64) {
        *self.counts.entry(key.to_owned()).or_insert(0) += delta;
    }

    /// Add `delta` to the running sum for `key`.
    pub fn add_sum(&mut self, key: &str, delta: f64) {
        *self.sums.entry(key.to_owned()).or_insert(0.0) += delta;
    }

    /// The counts, key-sorted — the canonical (deterministic) view used for
    /// snapshots and byte-identity comparison.
    pub fn counts_sorted(&self) -> std::collections::BTreeMap<String, i64> {
        self.counts.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// The sums, key-sorted — canonical view, see [`StreamState::counts_sorted`].
    pub fn sums_sorted(&self) -> std::collections::BTreeMap<String, f64> {
        self.sums.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }
}

/// Visit each row of a batch result's state columns, in row order, as
/// `(key, count, sum)`: the key's text, and the count/sum cells that are
/// present and non-null. Each column is looked up once per batch.
///
/// State is keyed by text, and a NULL renders as `""`, so a NULL key would
/// silently merge with an empty-string key: it is refused as a
/// [`FlowError::Stream`] naming the column and the batch's stream offset.
pub(crate) fn for_each_state_row(
    batch_result: &Table,
    offset: u64,
    key_col: &str,
    count_col: Option<&str>,
    sum_col: Option<&str>,
    mut visit: impl FnMut(String, Option<i64>, Option<f64>),
) -> Result<()> {
    if batch_result.num_rows() == 0 {
        return Ok(());
    }
    let keys = batch_result.column(key_col)?;
    let counts = count_col.map(|c| batch_result.column(c)).transpose()?;
    let sums = sum_col.map(|c| batch_result.column(c)).transpose()?;
    for row in 0..batch_result.num_rows() {
        let key = match keys {
            Column::Str { data, validity } if validity.get(row) => data[row].clone(),
            _ => match keys.value(row)? {
                Value::Null => {
                    return Err(FlowError::Stream(format!(
                        "batch at offset {offset}: state key column {key_col:?} is NULL in \
                         row {row}; a NULL key would merge with the empty-string key"
                    )))
                }
                v => v.to_string(),
            },
        };
        let count = match counts {
            Some(Column::Int { data, validity }) => validity.get(row).then(|| data[row]),
            Some(col) => match col.value(row)? {
                Value::Null => None,
                v => Some(v.as_int()?),
            },
            None => None,
        };
        let sum = match sums {
            Some(Column::Float { data, validity }) => validity.get(row).then(|| data[row]),
            Some(col) => match col.value(row)? {
                Value::Null => None,
                v => Some(v.as_float()?),
            },
            None => None,
        };
        visit(key, count, sum);
    }
    Ok(())
}

/// Outcome of a streaming run.
#[derive(Debug)]
pub struct StreamRun {
    /// Final carried state.
    pub state: StreamState,
    /// Per-batch metrics in arrival order.
    pub batch_metrics: Vec<RunMetrics>,
    /// Per-batch flight-recorder journals, aligned with `batch_metrics`
    /// (empty trace for silent windows).
    pub batch_traces: Vec<RunTrace>,
    /// Rows emitted per batch.
    pub batch_rows: Vec<usize>,
}

impl StreamRun {
    /// Mean per-batch latency in microseconds — the streaming side of the
    /// latency/throughput trade-off. Silent windows (empty ticks that ran
    /// no engine) are excluded: averaging their 0 µs placeholders in would
    /// dilute the reported latency below what any executed batch paid.
    pub fn mean_batch_latency_us(&self) -> f64 {
        let executed: Vec<f64> = self
            .batch_metrics
            .iter()
            .zip(&self.batch_traces)
            .filter(|(_, trace)| !trace.events.is_empty())
            .map(|(m, _)| m.total_elapsed_us as f64)
            .collect();
        if executed.is_empty() {
            return 0.0;
        }
        executed.iter().sum::<f64>() / executed.len() as f64
    }

    pub fn total_rows(&self) -> usize {
        self.batch_rows.iter().sum()
    }
}

/// Execute `make_flow` once per micro-batch, absorbing each result into the
/// carried state. The flow factory receives the batch's registered dataset
/// name so the same pipeline definition is reused every tick.
pub fn run_stream(
    config: EngineConfig,
    batcher: &MicroBatcher,
    make_flow: impl Fn(&Engine, &str) -> Result<Dataflow>,
    key_col: &str,
    count_col: Option<&str>,
    sum_col: Option<&str>,
) -> Result<StreamRun> {
    let mut state = StreamState::new();
    let mut batch_metrics = Vec::with_capacity(batcher.num_batches());
    let mut batch_traces = Vec::with_capacity(batcher.num_batches());
    let mut batch_rows = Vec::with_capacity(batcher.num_batches());
    for (offset, batch) in batcher.batches().iter().enumerate() {
        if batch.num_rows() == 0 {
            // Silent window: nothing to run, but the tick is still recorded.
            batch_metrics.push(RunMetrics::default());
            batch_traces.push(RunTrace::default());
            batch_rows.push(0);
            continue;
        }
        let mut engine = Engine::new(config.clone());
        engine.register("__batch", batch.clone())?;
        let flow = make_flow(&engine, "__batch")?;
        let result = engine.run(&flow)?;
        state.absorb(&result.table, offset as u64, key_col, count_col, sum_col)?;
        batch_rows.push(result.table.num_rows());
        batch_metrics.push(result.metrics);
        batch_traces.push(result.trace);
    }
    Ok(StreamRun {
        state,
        batch_metrics,
        batch_traces,
        batch_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{AggExpr, AggFunc};
    use toreador_data::generate::telemetry;
    use toreador_data::schema::{Field, Schema};
    use toreador_data::value::DataType;

    #[test]
    fn tumbling_windows_partition_by_time() {
        let schema = Schema::new(vec![
            Field::new("ts", DataType::Timestamp),
            Field::new("v", DataType::Int),
        ])
        .unwrap();
        let t = Table::from_rows(
            schema,
            vec![
                vec![Value::Timestamp(0), Value::Int(1)],
                vec![Value::Timestamp(999), Value::Int(2)],
                vec![Value::Timestamp(1000), Value::Int(3)],
                vec![Value::Timestamp(3500), Value::Int(4)],
            ],
        )
        .unwrap();
        let b = MicroBatcher::tumbling(&t, "ts", 1000).unwrap();
        assert_eq!(b.num_batches(), 4); // windows 0,1,2(empty),3
        assert_eq!(b.batches()[0].num_rows(), 2);
        assert_eq!(b.batches()[1].num_rows(), 1);
        assert_eq!(b.batches()[2].num_rows(), 0);
        assert_eq!(b.batches()[3].num_rows(), 1);
    }

    #[test]
    fn tumbling_matches_mask_reference_and_stays_cheap_on_sparse_ranges() {
        // Two rows 100 000 windows apart: the old mask construction would
        // allocate 100 001 × 2 booleans; the index-list pass is O(n + rows).
        let schema = Schema::new(vec![
            Field::new("ts", DataType::Timestamp),
            Field::new("v", DataType::Int),
        ])
        .unwrap();
        let t = Table::from_rows(
            schema.clone(),
            vec![
                vec![Value::Timestamp(0), Value::Int(1)],
                vec![Value::Timestamp(100_000_000), Value::Int(2)],
            ],
        )
        .unwrap();
        let b = MicroBatcher::tumbling(&t, "ts", 1000).unwrap();
        assert_eq!(b.num_batches(), 100_001);
        assert_eq!(b.batches()[0].num_rows(), 1);
        assert_eq!(b.batches()[100_000].num_rows(), 1);
        assert!(b.batches()[1..100_000].iter().all(|w| w.num_rows() == 0));

        // Dense case: row-for-row identical to the boolean-mask reference.
        let t = Table::from_rows(
            schema,
            vec![
                vec![Value::Timestamp(-2500), Value::Int(0)],
                vec![Value::Timestamp(10), Value::Int(1)],
                vec![Value::Timestamp(999), Value::Int(2)],
                vec![Value::Timestamp(15), Value::Int(3)],
                vec![Value::Timestamp(2001), Value::Int(4)],
            ],
        )
        .unwrap();
        let b = MicroBatcher::tumbling(&t, "ts", 1000).unwrap();
        let lo = -3i64; // floor(-2500 / 1000)
        for (w, batch) in b.batches().iter().enumerate() {
            let mask: Vec<bool> = (0..t.num_rows())
                .map(|i| {
                    let ts = match t.value(i, "ts").unwrap() {
                        Value::Timestamp(x) => x,
                        other => panic!("unexpected {other:?}"),
                    };
                    ts.div_euclid(1000) - lo == w as i64
                })
                .collect();
            assert_eq!(batch, &t.filter(&mask).unwrap(), "window {w}");
        }
    }

    #[test]
    fn mean_batch_latency_excludes_silent_windows() {
        use crate::trace::{TraceEvent, TraceEventKind};
        let executed = RunMetrics {
            total_elapsed_us: 900,
            ..RunMetrics::default()
        };
        let live_trace = RunTrace {
            events: vec![TraceEvent {
                seq: 0,
                at_us: 0,
                kind: TraceEventKind::RunStarted,
            }],
        };
        let run = StreamRun {
            state: StreamState::new(),
            batch_metrics: vec![
                executed.clone(),
                RunMetrics::default(),
                RunMetrics::default(),
            ],
            batch_traces: vec![live_trace, RunTrace::default(), RunTrace::default()],
            batch_rows: vec![5, 0, 0],
        };
        // Two silent ticks must not dilute the one executed batch's 900 µs.
        assert_eq!(run.mean_batch_latency_us(), 900.0);
        let empty = StreamRun {
            state: StreamState::new(),
            batch_metrics: vec![RunMetrics::default()],
            batch_traces: vec![RunTrace::default()],
            batch_rows: vec![0],
        };
        assert_eq!(empty.mean_batch_latency_us(), 0.0);
    }

    #[test]
    fn delta_application_matches_absorb() {
        let mut a = StreamState::new();
        a.add_count("x", 2);
        a.add_count("x", 3);
        a.add_sum("x", 1.5);
        assert_eq!(a.count("x"), 5);
        assert_eq!(a.sum("x"), 1.5);
        let counts = a.counts_sorted();
        assert_eq!(counts.get("x"), Some(&5));
        assert!(a.sums_sorted().contains_key("x"));
    }

    #[test]
    fn empty_source_gives_no_batches() {
        let schema = Schema::new(vec![Field::new("ts", DataType::Timestamp)]).unwrap();
        let t = Table::empty(schema);
        let b = MicroBatcher::tumbling(&t, "ts", 1000).unwrap();
        assert_eq!(b.num_batches(), 0);
    }

    #[test]
    fn invalid_window_rejected() {
        let schema = Schema::new(vec![Field::new("ts", DataType::Timestamp)]).unwrap();
        let t = Table::empty(schema);
        assert!(MicroBatcher::tumbling(&t, "ts", 0).is_err());
    }

    #[test]
    fn stream_state_accumulates() {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("n", DataType::Int),
            Field::new("s", DataType::Float),
        ])
        .unwrap();
        let t1 = Table::from_rows(
            schema.clone(),
            vec![vec!["a".into(), Value::Int(2), Value::Float(1.5)]],
        )
        .unwrap();
        let t2 = Table::from_rows(
            schema,
            vec![
                vec!["a".into(), Value::Int(3), Value::Float(0.5)],
                vec!["b".into(), Value::Int(1), Value::Float(9.0)],
            ],
        )
        .unwrap();
        let mut st = StreamState::new();
        st.absorb(&t1, 0, "k", Some("n"), Some("s")).unwrap();
        st.absorb(&t2, 1, "k", Some("n"), Some("s")).unwrap();
        assert_eq!(st.count("a"), 5);
        assert_eq!(st.sum("a"), 2.0);
        assert_eq!(st.count("b"), 1);
        assert_eq!(st.keys(), vec!["a", "b"]);
        assert_eq!(st.count("missing"), 0);
    }

    #[test]
    fn streaming_equals_batch_for_additive_aggregates() {
        let t = telemetry(2_000, 8, 3);
        // Batch: total kwh per region.
        let mut engine = Engine::new(EngineConfig::default().with_threads(2));
        engine.register("tel", t.clone()).unwrap();
        let batch_flow = engine
            .flow("tel")
            .unwrap()
            .aggregate(
                &["region"],
                vec![AggExpr::new(AggFunc::Sum, "kwh", "total")],
            )
            .unwrap();
        let batch = engine.run(&batch_flow).unwrap();

        // Stream: same aggregate per hour-window, state carries the sum.
        let batcher = MicroBatcher::tumbling(&t, "ts", 3_600_000).unwrap();
        assert!(batcher.num_batches() > 1, "need multiple windows");
        let run = run_stream(
            EngineConfig::default().with_threads(2),
            &batcher,
            |e, ds| {
                e.flow(ds)?.aggregate(
                    &["region"],
                    vec![AggExpr::new(AggFunc::Sum, "kwh", "total")],
                )
            },
            "region",
            None,
            Some("total"),
        )
        .unwrap();
        for row in batch.table.iter_rows() {
            let region = row[0].to_string();
            let total = row[1].as_float().unwrap();
            assert!(
                (run.state.sum(&region) - total).abs() < 1e-6,
                "region {region}: stream {} vs batch {total}",
                run.state.sum(&region)
            );
        }
        assert!(run.total_rows() > 0);
        assert!(run.mean_batch_latency_us() >= 0.0);
        assert_eq!(run.batch_traces.len(), run.batch_metrics.len());
        // Silent windows carry an empty trace; real batches a recorded one.
        for (trace, rows) in run.batch_traces.iter().zip(&run.batch_rows) {
            assert_eq!(*rows > 0, !trace.events.is_empty());
        }
    }
}

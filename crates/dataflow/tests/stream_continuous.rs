//! The continuous-streaming robustness proofs:
//!
//! 1. **Kill-at-every-ack**: a durable stream is killed right after *each*
//!    ack boundary in turn; every killed run resumes to a final state
//!    byte-identical to the unkilled baseline, with zero acked batches
//!    re-executed (proven from the resumed journal, not asserted on faith).
//! 2. **Backpressure bound**: with a slow consumer the producer stalls, and
//!    the journalled in-flight depth never exceeds the configured cap.
//! 3. **Exact late accounting**: the fraud generator plants a known number
//!    of late arrivals; every late-data policy accounts for exactly that
//!    many rows — none lost, none double-counted, across a kill.
//! 4. **Differential oracle**: on in-order input, the continuous loop's
//!    carried state matches [`run_stream`] (the event-time micro-batch
//!    oracle defined here, which folds each window's result with its own
//!    [`absorb`], not the engine's `StateDelta::from_batch`) bit-for-bit
//!    on counts and to float tolerance on sums.
//! 5. **No hang on a panic**: a panicking source fails the run with a
//!    classified error, and a panicking per-batch processor propagates to
//!    the caller; both run under a watchdog so a regression fails instead
//!    of hanging the suite.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Duration;

use toreador_data::column::LaneRef;
use toreador_data::generate::{fraud_stream, telemetry};
use toreador_data::schema::{Field, Schema};
use toreador_data::table::Table;
use toreador_data::value::{DataType, Value};
use toreador_dataflow::error::FlowError;
use toreador_dataflow::fault::KillMode;
use toreador_dataflow::prelude::*;
use toreador_dataflow::trace::TraceEventKind;

const WINDOW_MS: i64 = 2_000;
const LATENESS_MS: i64 = 500;

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("toreador-stream-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The oracle's batching: `source` cut into event-time tumbling windows of
/// `window_ms` over `ts_column`. A row lands in window `floor(ts /
/// window_ms)`; the empty windows between the first and last event are
/// kept, as a real stream ticks even when silent.
fn tumbling(source: &Table, ts_column: &str, window_ms: i64) -> FlowResult<Vec<Table>> {
    if window_ms <= 0 {
        return Err(FlowError::Plan("window must be positive".to_owned()));
    }
    let stamps = source
        .column(ts_column)?
        .iter_values()
        .map(|v| match v {
            Value::Timestamp(t) | Value::Int(t) => Ok(t),
            other => Err(FlowError::TypeCheck(format!(
                "timestamp column contains {other:?}"
            ))),
        })
        .collect::<FlowResult<Vec<i64>>>()?;
    let (Some(lo), Some(hi)) = (stamps.iter().min(), stamps.iter().max()) else {
        return Ok(Vec::new());
    };
    let first = lo.div_euclid(window_ms);
    // Per-window row-index lists, built in one pass: O(windows + rows).
    let mut windows = vec![Vec::new(); (hi.div_euclid(window_ms) - first + 1) as usize];
    for (i, t) in stamps.iter().enumerate() {
        windows[(t.div_euclid(window_ms) - first) as usize].push(i);
    }
    windows
        .iter()
        .map(|idx| source.take(idx).map_err(FlowError::Data))
        .collect()
}

/// The event-time oracle: each non-empty window runs `make_flow` to
/// completion on a fresh engine, and its result is absorbed into the
/// carried state at the window's offset.
fn run_stream(
    config: EngineConfig,
    windows: &[Table],
    make_flow: impl Fn(&Engine, &str) -> FlowResult<Dataflow>,
    key_col: &str,
    count_col: Option<&str>,
    sum_col: Option<&str>,
) -> FlowResult<StreamState> {
    let mut state = StreamState::new();
    for (offset, window) in windows.iter().enumerate() {
        if window.num_rows() == 0 {
            continue;
        }
        let mut engine = Engine::new(config.clone());
        engine.register("__batch", window.clone())?;
        let flow = make_flow(&engine, "__batch")?;
        let result = engine.run(&flow)?;
        absorb(
            &mut state,
            &result.table,
            offset as u64,
            key_col,
            count_col,
            sum_col,
        )?;
    }
    Ok(state)
}

/// The oracle's fold of the result of the window at `offset` into the
/// carried state, through typed lane reads: each row adds its non-null
/// `count_col` and `sum_col` cells to its key's totals, in row order. A
/// NULL key is refused, as the engine's stream refuses it: state is keyed
/// by text, where a NULL would merge with `""`.
fn absorb(
    state: &mut StreamState,
    result: &Table,
    offset: u64,
    key_col: &str,
    count_col: Option<&str>,
    sum_col: Option<&str>,
) -> FlowResult<()> {
    let keys = result.column(key_col)?;
    let counts = count_col.map(|c| result.column(c)).transpose()?;
    let sums = sum_col.map(|c| result.column(c)).transpose()?;
    for row in 0..result.num_rows() {
        if !keys.validity().get(row) {
            return Err(FlowError::Stream(format!(
                "batch at offset {offset}: state key column {key_col:?} is NULL in row {row}"
            )));
        }
        let key = match keys.lane() {
            LaneRef::Str(data) => data.get(row).to_owned(),
            LaneRef::Int(data) | LaneRef::Timestamp(data) => data[row].to_string(),
            LaneRef::Float(data) => data[row].to_string(),
            LaneRef::Bool(data) => data[row].to_string(),
        };
        if let Some(c) = counts.filter(|c| c.validity().get(row)) {
            state.add_count(&key, c.as_ints()?.0[row]);
        }
        if let Some(c) = sums.filter(|c| c.validity().get(row)) {
            let sum = match c.lane() {
                LaneRef::Float(data) => data[row],
                LaneRef::Int(data) => data[row] as f64,
                _ => {
                    let ty = c.data_type();
                    return Err(FlowError::TypeCheck(format!(
                        "sum column {sum_col:?} is {ty}"
                    )));
                }
            };
            state.add_sum(&key, sum);
        }
    }
    Ok(())
}

/// Run `f` on its own thread and wait at most ten seconds for it: a hang
/// fails the test instead of stalling the suite.
fn within_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("the stream loop hung: no result within the watchdog")
}

/// The shared workload: per-channel transaction count and amount sum over
/// the fraud event stream.
fn fraud_flow(e: &Engine, ds: &str) -> toreador_dataflow::error::Result<Dataflow> {
    e.flow(ds)?.aggregate(
        &["channel"],
        vec![
            AggExpr::new(AggFunc::Count, "txn_id", "n"),
            AggExpr::new(AggFunc::Sum, "amount", "total"),
        ],
    )
}

fn fraud_config(lateness: i64, policy: LatePolicy) -> StreamConfig {
    StreamConfig::default()
        .with_engine(EngineConfig::default().with_threads(2))
        .with_ts_column("ts")
        .with_allowed_lateness(lateness)
        .with_late_policy(policy)
        .with_buffer(4)
        .with_pipeline_id("stream-proofs")
}

fn run_fraud(table: &Table, config: &StreamConfig) -> FlowResult<ContinuousRun> {
    let mut source = ArrivalSource::windows(table, "ts", WINDOW_MS)?;
    run_continuous(
        &mut source,
        config,
        &fraud_flow,
        "channel",
        Some("n"),
        Some("total"),
    )
}

#[test]
fn kill_at_every_ack_boundary_resumes_byte_identically() {
    let (table, _) = fraud_stream(1_000, 7, 0.05, 300);
    let config = fraud_config(LATENESS_MS, LatePolicy::Absorb);

    // Unkilled baseline: the state every killed-and-resumed run must reach.
    let baseline = run_fraud(&table, &config).expect("baseline run");
    let oracle_state = baseline.canonical_state();
    let oracle_totals = baseline.totals();
    let n = baseline.acked.len() as u64;
    assert!(n >= 4, "need several ack boundaries, got {n}");

    for k in 0..n {
        let dir = temp_root(&format!("kill-{k}"));
        // Phase 1: die (in-process halt) right after offset k's ack is
        // durable on disk.
        let killed = run_fraud(
            &table,
            &config
                .clone()
                .with_durable(DurableSpec::new(&dir))
                .with_kill_at_ack(k, KillMode::Halt),
        );
        match killed {
            Err(FlowError::KilledAtAck { offset }) => assert_eq!(offset, k),
            other => panic!("kill at ack {k} should halt, got {other:?}"),
        }

        // Phase 2: a fresh run resumes from the WAL and finishes.
        let resumed = run_fraud(
            &table,
            &config
                .clone()
                .with_durable(DurableSpec::new(&dir).with_resume(true)),
        )
        .expect("resumed run");

        // Byte-identical final state.
        assert_eq!(
            resumed.canonical_state(),
            oracle_state,
            "state diverged after kill at ack {k}"
        );
        // Zero acked batches re-executed: the resumed journal starts past k.
        let mut resume_events = 0;
        for e in &resumed.stream_trace.events {
            match e.kind {
                TraceEventKind::BatchAcked { offset, .. } => {
                    assert!(offset > k, "batch {offset} re-acked after kill at {k}")
                }
                TraceEventKind::StreamResumed { next_offset, .. } => {
                    resume_events += 1;
                    assert_eq!(next_offset, k + 1);
                }
                _ => {}
            }
        }
        assert_eq!(resume_events, 1, "exactly one resume event");
        assert_eq!(
            resumed.acked.len() as u64,
            n - k - 1,
            "resumed run executes exactly the unacked suffix"
        );
        // Lifetime totals survive the kill: recovered counters plus the
        // resumed journal equal the unkilled run's accounting.
        let cum = resumed.cumulative_totals();
        assert_eq!(cum.batches_acked, oracle_totals.batches_acked);
        assert_eq!(cum.rows_acked, oracle_totals.rows_acked);
        assert_eq!(cum.late_absorbed, oracle_totals.late_absorbed);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn backpressure_depth_never_exceeds_the_cap() {
    let (table, _) = fraud_stream(600, 3, 0.0, 0);
    const CAP: usize = 2;
    let config = StreamConfig::default()
        .with_engine(EngineConfig::default().with_threads(1))
        .with_ts_column("ts")
        .with_buffer(CAP)
        .with_pipeline_id("backpressure-proof");
    // Many small arrival batches through a deliberately slow consumer: the
    // producer must block rather than queue without bound.
    let mut source = ArrivalSource::new(table, 25).unwrap();
    let run = run_continuous_with(&mut source, &config, None, &mut |_, batch| {
        std::thread::sleep(std::time::Duration::from_millis(2));
        Ok(BatchOutput {
            table: batch,
            metrics: None,
            trace: None,
        })
    })
    .expect("slow-consumer run");

    let totals = run.totals();
    assert_eq!(totals.batches_acked, 24, "600 rows / 25 per batch");
    assert!(totals.stalls > 0, "a slow consumer must stall the producer");
    assert!(totals.stall_us > 0);
    // The bound, read from the journal: every ingestion's post-push depth.
    let mut ingested = 0;
    for e in &run.stream_trace.events {
        if let TraceEventKind::BatchIngested { depth, .. } = e.kind {
            ingested += 1;
            assert!(depth <= CAP as u64, "depth {depth} exceeds cap {CAP}");
        }
    }
    assert_eq!(ingested, 24, "every batch journals its ingestion");
    assert!(totals.max_in_flight <= CAP as u64);
    assert!(totals.max_in_flight >= 1);
}

#[test]
fn late_accounting_matches_the_planted_rows_exactly() {
    let (table, planted) = fraud_stream(2_000, 13, 0.08, 400);
    assert!(planted > 0, "generator must plant late arrivals");

    // Rows that reached the carried state: count aggregates count every
    // processed row exactly once.
    let state_rows =
        |run: &ContinuousRun| -> i64 { run.state.keys().iter().map(|k| run.state.count(k)).sum() };
    for (policy, pick) in [
        (LatePolicy::Absorb, 0usize),
        (LatePolicy::SideChannel, 1),
        (LatePolicy::Drop, 2),
    ] {
        let run = run_fraud(&table, &fraud_config(LATENESS_MS, policy)).expect("policy run");
        let t = run.totals();
        let counts = [t.late_absorbed, t.late_side_channelled, t.late_dropped];
        assert_eq!(
            counts[pick], planted as u64,
            "{policy:?} must account for every planted row, got {counts:?}"
        );
        for (i, c) in counts.iter().enumerate() {
            if i != pick {
                assert_eq!(*c, 0, "{policy:?} leaked rows into another class");
            }
        }
        // The side channel carries the actual rows, not just a counter.
        let diverted: usize = run.side_channel.iter().map(Table::num_rows).sum();
        assert_eq!(diverted, if pick == 1 { planted } else { 0 });
        // Absorbed rows reach the state; diverted and dropped rows must not.
        let expect_in_state = match policy {
            LatePolicy::Absorb => table.num_rows(),
            _ => table.num_rows() - planted,
        };
        assert_eq!(
            state_rows(&run) as usize,
            expect_in_state,
            "{policy:?} state row accounting"
        );
    }

    // The accounting survives a kill: cumulative counters across a death at
    // a mid-stream ack equal the planted count.
    let dir = temp_root("late-kill");
    let config = fraud_config(LATENESS_MS, LatePolicy::Drop);
    let killed = run_fraud(
        &table,
        &config
            .clone()
            .with_durable(DurableSpec::new(&dir))
            .with_kill_at_ack(3, KillMode::Halt),
    );
    assert!(matches!(killed, Err(FlowError::KilledAtAck { offset: 3 })));
    let resumed = run_fraud(
        &table,
        &config.with_durable(DurableSpec::new(&dir).with_resume(true)),
    )
    .expect("resumed run");
    assert_eq!(resumed.cumulative_totals().late_dropped, planted as u64);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn continuous_state_matches_the_event_time_oracle_on_ordered_input() {
    // Telemetry arrives in event-time order, so arrival-window cutting and
    // event-time tumbling must agree on the carried state.
    let table = telemetry(2_000, 8, 3);
    let window = 3_600_000;
    let make_flow = |e: &Engine, ds: &str| {
        e.flow(ds)?.aggregate(
            &["region"],
            vec![
                AggExpr::new(AggFunc::Count, "reading_id", "n"),
                AggExpr::new(AggFunc::Sum, "kwh", "total"),
            ],
        )
    };

    let oracle = run_stream(
        EngineConfig::default().with_threads(2),
        &tumbling(&table, "ts", window).unwrap(),
        make_flow,
        "region",
        Some("n"),
        Some("total"),
    )
    .unwrap();

    let mut source = ArrivalSource::windows(&table, "ts", window).unwrap();
    let run = run_continuous(
        &mut source,
        &StreamConfig::default()
            .with_engine(EngineConfig::default().with_threads(2))
            .with_ts_column("ts")
            .with_pipeline_id("oracle-diff"),
        &make_flow,
        "region",
        Some("n"),
        Some("total"),
    )
    .unwrap();

    assert_eq!(run.state.keys(), oracle.keys());
    for key in oracle.keys() {
        assert_eq!(
            run.state.count(key),
            oracle.count(key),
            "count diverged for {key}"
        );
        let (a, b) = (run.state.sum(key), oracle.sum(key));
        assert!(
            (a - b).abs() < 1e-6,
            "sum diverged for {key}: continuous {a} vs oracle {b}"
        );
    }
    // In-order input is never late.
    let t = run.totals();
    assert_eq!(t.late_absorbed + t.late_side_channelled + t.late_dropped, 0);
    assert_eq!(t.rows_acked, table.num_rows() as u64);
}

#[test]
fn a_null_key_is_refused_not_merged_with_the_empty_string_key() {
    use toreador_dataflow::streaming::AckLog;
    // State is keyed by text and a NULL renders as "": batch 1 carries both
    // a NULL group and an "" group, which must not fold into one key.
    let schema = Schema::new(vec![
        Field::new("ts", DataType::Timestamp),
        Field::new("k", DataType::Str),
        Field::new("v", DataType::Float),
    ])
    .unwrap();
    let row = |ts: i64, k: Value| vec![Value::Timestamp(ts), k, Value::Float(1.5)];
    let table = Table::from_rows(
        schema,
        vec![
            row(0, "a".into()),
            row(1, "a".into()),
            row(1_000, Value::Null),
            row(1_001, "".into()),
            row(2_000, "b".into()),
            row(2_001, "b".into()),
        ],
    )
    .unwrap();
    let make_flow = |e: &Engine, ds: &str| {
        e.flow(ds)?.aggregate(
            &["k"],
            vec![
                AggExpr::new(AggFunc::Count, "v", "n"),
                AggExpr::new(AggFunc::Sum, "v", "total"),
            ],
        )
    };
    let refused = |err: FlowError| {
        let msg = err.to_string();
        assert!(matches!(err, FlowError::Stream(_)), "{err:?}");
        assert!(msg.contains("\"k\"") && msg.contains("offset 1"), "{msg}");
        assert_eq!(
            toreador_dataflow::resilience::classify(&err),
            toreador_dataflow::resilience::ErrorClass::Permanent
        );
    };

    // The event-time oracle refuses it too.
    refused(
        run_stream(
            EngineConfig::default().with_threads(1),
            &tumbling(&table, "ts", 1_000).unwrap(),
            make_flow,
            "k",
            Some("n"),
            Some("total"),
        )
        .unwrap_err(),
    );

    // Live: the durable run stops at offset 1 before acking it.
    let dir = temp_root("null-key");
    let config = StreamConfig::default()
        .with_engine(EngineConfig::default().with_threads(1))
        .with_ts_column("ts")
        .with_pipeline_id("null-key");
    let run = |resume: bool| {
        let mut source = ArrivalSource::windows(&table, "ts", 1_000).unwrap();
        run_continuous(
            &mut source,
            &config
                .clone()
                .with_durable(DurableSpec::new(&dir).with_resume(resume)),
            &make_flow,
            "k",
            Some("n"),
            Some("total"),
        )
    };
    refused(run(false).unwrap_err());

    // Replay: the WAL holds offset 0 alone — no merged "" key — and a
    // resumed run re-executes offset 1 and refuses it again.
    let cols = StateColumns {
        key: "k".to_owned(),
        count: Some("n".to_owned()),
        sum: Some("total".to_owned()),
    };
    {
        let spec = DurableSpec::new(&dir).with_resume(true);
        let (_log, recovery) = AckLog::open(&spec, &config.fingerprint(Some(&cols))).unwrap();
        assert_eq!(recovery.next_offset, 1);
        assert_eq!(recovery.state.keys(), vec!["a"]);
        assert_eq!(recovery.state.count("a"), 2);
    }
    refused(run(true).unwrap_err());
    std::fs::remove_dir_all(&dir).ok();
}

/// Yields the wrapped source's batches up to offset `panic_at`, then panics.
struct PanicsAt {
    inner: ArrivalSource,
    panic_at: u64,
}

impl Source for PanicsAt {
    fn seek(&mut self, next: u64) -> FlowResult<()> {
        self.inner.seek(next)
    }

    fn next_batch(&mut self) -> FlowResult<Option<SourceBatch>> {
        let batch = self.inner.next_batch()?;
        if batch.as_ref().is_some_and(|b| b.offset == self.panic_at) {
            panic!("source lost its upstream");
        }
        Ok(batch)
    }
}

fn passthrough(_: u64, batch: Table) -> FlowResult<BatchOutput> {
    Ok(BatchOutput {
        table: batch,
        metrics: None,
        trace: None,
    })
}

#[test]
fn a_panicking_source_fails_the_run_with_a_classified_error() {
    let err = within_watchdog(|| {
        let (table, _) = fraud_stream(50, 1, 0.0, 0);
        let mut source = PanicsAt {
            inner: ArrivalSource::new(table, 10).unwrap(),
            panic_at: 2,
        };
        let config = StreamConfig::default().with_buffer(1);
        run_continuous_with(&mut source, &config, None, &mut passthrough).unwrap_err()
    });
    let msg = err.to_string();
    assert!(matches!(err, FlowError::Stream(_)), "{err:?}");
    assert!(
        msg.contains("after offset 1") && msg.contains("source lost its upstream"),
        "{msg}"
    );
}

#[test]
fn a_panicking_processor_propagates_instead_of_deadlocking() {
    let panicked = within_watchdog(|| {
        let (table, _) = fraud_stream(50, 1, 0.0, 0);
        // Five batches through a one-slot buffer: the producer is blocked
        // in `push` when the processor panics on the first.
        let mut source = ArrivalSource::new(table, 10).unwrap();
        let config = StreamConfig::default().with_buffer(1);
        catch_unwind(AssertUnwindSafe(|| {
            run_continuous_with(&mut source, &config, None, &mut |_, _| {
                panic!("processor bug")
            })
        }))
        .is_err()
    });
    assert!(panicked, "the processor's panic must reach the caller");
}

#[test]
fn tumbling_windows_partition_by_time() {
    let t = ts_table(&[0, 999, 1000, 3500]);
    let b = tumbling(&t, "ts", 1000).unwrap();
    let sizes: Vec<usize> = b.iter().map(Table::num_rows).collect();
    assert_eq!(sizes, vec![2, 1, 0, 1], "windows 0, 1, 2 (empty), 3");
}

#[test]
fn tumbling_matches_mask_reference_and_stays_cheap_on_sparse_ranges() {
    // Two rows 100 000 windows apart: a mask per window would allocate
    // 100 001 × 2 booleans; the index-list pass is O(windows + rows).
    let b = tumbling(&ts_table(&[0, 100_000_000]), "ts", 1000).unwrap();
    assert_eq!(b.len(), 100_001);
    assert_eq!(b[0].num_rows(), 1);
    assert_eq!(b[100_000].num_rows(), 1);
    assert!(b[1..100_000].iter().all(|w| w.num_rows() == 0));

    // Dense case: row-for-row identical to the boolean-mask reference.
    let stamps = [-2500, 10, 999, 15, 2001];
    let t = ts_table(&stamps);
    let lo = -3i64; // floor(-2500 / 1000)
    for (w, batch) in tumbling(&t, "ts", 1000).unwrap().iter().enumerate() {
        let mask: Vec<bool> = stamps
            .iter()
            .map(|ts| ts.div_euclid(1000) - lo == w as i64)
            .collect();
        assert_eq!(batch, &t.filter(&mask).unwrap(), "window {w}");
    }
}

#[test]
fn empty_source_gives_no_batches() {
    assert!(tumbling(&ts_table(&[]), "ts", 1000).unwrap().is_empty());
}

#[test]
fn invalid_window_rejected() {
    assert!(tumbling(&ts_table(&[]), "ts", 0).is_err());
}

#[test]
fn streaming_equals_batch_for_additive_aggregates() {
    let t = telemetry(2_000, 8, 3);
    let make_flow = |e: &Engine, ds: &str| {
        e.flow(ds)?.aggregate(
            &["region"],
            vec![AggExpr::new(AggFunc::Sum, "kwh", "total")],
        )
    };
    // Batch: total kwh per region.
    let mut engine = Engine::new(EngineConfig::default().with_threads(2));
    engine.register("tel", t.clone()).unwrap();
    let batch = engine.run(&make_flow(&engine, "tel").unwrap()).unwrap();

    // Stream: the same aggregate per hour window; the state carries the sum.
    let windows = tumbling(&t, "ts", 3_600_000).unwrap();
    assert!(windows.len() > 1, "need multiple windows");
    let state = run_stream(
        EngineConfig::default().with_threads(2),
        &windows,
        make_flow,
        "region",
        None,
        Some("total"),
    )
    .unwrap();
    for row in batch.table.iter_rows() {
        let region = row[0].to_string();
        let total = row[1].as_float().unwrap();
        assert!(
            (state.sum(&region) - total).abs() < 1e-6,
            "region {region}: stream {} vs batch {total}",
            state.sum(&region)
        );
    }
}

fn ts_table(stamps: &[i64]) -> Table {
    let schema = Schema::new(vec![Field::new("ts", DataType::Timestamp)]).unwrap();
    Table::from_rows(schema, stamps.iter().map(|&t| vec![Value::Timestamp(t)])).unwrap()
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
    absorb(&mut st, &t1, 0, "k", Some("n"), Some("s")).unwrap();
    absorb(&mut st, &t2, 1, "k", Some("n"), Some("s")).unwrap();
    assert_eq!(st.count("a"), 5);
    assert_eq!(st.sum("a"), 2.0);
    assert_eq!(st.count("b"), 1);
    assert_eq!(st.keys(), vec!["a", "b"]);
    assert_eq!(st.count("missing"), 0);
}

#[test]
fn delta_from_batch_mirrors_absorb() {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Str),
        Field::new("n", DataType::Int),
        Field::new("s", DataType::Float),
    ])
    .unwrap();
    let t = Table::from_rows(
        schema,
        vec![
            vec!["a".into(), Value::Int(2), Value::Float(1.5)],
            vec!["b".into(), Value::Int(1), Value::Float(9.0)],
            vec!["a".into(), Value::Int(3), Value::Float(0.5)],
        ],
    )
    .unwrap();
    let d = StateDelta::from_batch(&t, 0, "k", Some("n"), Some("s")).unwrap();
    let mut via_delta = StreamState::new();
    d.apply_to(&mut via_delta);
    let mut via_absorb = StreamState::new();
    absorb(&mut via_absorb, &t, 0, "k", Some("n"), Some("s")).unwrap();
    assert_eq!(via_delta, via_absorb);
    assert!(!d.is_empty());
    assert!(StateDelta::default().is_empty());
    // Both refuse a NULL key, naming the column and the offset.
    let null_row = vec![Value::Null, Value::Int(1), Value::Float(1.0)];
    let with_null = Table::from_rows(t.schema().clone(), [null_row]).unwrap();
    let live = StateDelta::from_batch(&with_null, 4, "k", Some("n"), Some("s")).unwrap_err();
    let oracle = absorb(&mut via_absorb, &with_null, 4, "k", Some("n"), Some("s")).unwrap_err();
    for err in [live, oracle] {
        assert!(
            matches!(err, FlowError::Stream(ref m) if m.contains("\"k\"") && m.contains("offset 4")),
            "{err:?}"
        );
    }
}

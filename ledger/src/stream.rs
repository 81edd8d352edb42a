//! `stream_durable`: the continuous loop over the fraud event stream with
//! a durable ack per micro-batch. One op is one acked micro-batch
//! (dequeue → durable ack); a pass is the whole stream on a fresh ack-log
//! directory. Batches are ~100 rows, so per-batch engine set-up and the
//! fsync before each ack dominate and kernels are noise.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use toreador_data::generate::fraud_stream;
use toreador_data::table::Table;
use toreador_data::value::Value;
use toreador_dataflow::logical::{AggExpr, AggFunc, Dataflow};
use toreador_dataflow::session::{Engine, EngineConfig};
use toreador_dataflow::streaming::{
    run_continuous, ArrivalSource, ContinuousRun, DurableSpec, StreamConfig,
};

use crate::host;
use crate::report::Metric;
use crate::sizing::{STREAM_ROWS_PER_WINDOW, STREAM_WINDOW_MS};
use crate::span::Tracer;
use crate::stats::{median_or_zero, supported_quantile};
use crate::workload::{EndToEnd, RunConfig};

/// Share of rows whose event time lags arrival by a minute.
const LATE_RATE: f64 = 0.05;

/// Per-channel count and sum: the state the stream must end in.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KeyedState {
    pub counts: BTreeMap<String, i64>,
    pub sums: BTreeMap<String, f64>,
}

/// The stream and its reference state, built once per set-up.
pub struct StreamSetup {
    pub table: Table,
    pub reference: KeyedState,
}

fn keyed_flow(engine: &Engine, dataset: &str) -> toreador_dataflow::error::Result<Dataflow> {
    engine.flow(dataset)?.aggregate(
        &["channel"],
        vec![
            AggExpr::new(AggFunc::Count, "txn_id", "n"),
            AggExpr::new(AggFunc::Sum, "amount", "total"),
        ],
    )
}

fn run_with(table: &Table, durable: Option<DurableSpec>) -> Result<ContinuousRun, String> {
    let mut config = StreamConfig::default()
        .with_engine(EngineConfig::default().with_threads(2))
        .with_ts_column("ts")
        .with_buffer(8)
        .with_pipeline_id("ledger-stream");
    if let Some(spec) = durable {
        config = config.with_durable(spec);
    }
    let mut source =
        ArrivalSource::windows(table, "ts", STREAM_WINDOW_MS).map_err(|e| e.to_string())?;
    run_continuous(
        &mut source,
        &config,
        &keyed_flow,
        "channel",
        Some("n"),
        Some("total"),
    )
    .map_err(|e| e.to_string())
}

/// Run the whole of `table` through the continuous loop; durable when a
/// directory is given (it must be fresh).
pub fn run_pass(table: &Table, durable: Option<&Path>) -> Result<ContinuousRun, String> {
    run_with(table, durable.map(DurableSpec::new))
}

/// Reopen a finished ack log and replay it to the final state — what a
/// restart costs. Every batch is already acked, so nothing executes.
pub fn replay_pass(table: &Table, dir: &Path) -> Result<ContinuousRun, String> {
    run_with(table, Some(DurableSpec::new(dir).with_resume(true)))
}

fn reference_state(table: &Table) -> Result<KeyedState, String> {
    let channel = table.column("channel").map_err(|e| e.to_string())?;
    let amount = table.column("amount").map_err(|e| e.to_string())?;
    let mut state = KeyedState::default();
    for (c, a) in channel.iter_values().zip(amount.iter_values()) {
        if let (Value::Str(c), Value::Float(a)) = (c, a) {
            *state.counts.entry(c.clone()).or_insert(0) += 1;
            *state.sums.entry(c).or_insert(0.0) += a;
        }
    }
    Ok(state)
}

/// Parse `ContinuousRun::canonical_state()`.
fn parse_state(canonical: &str) -> Result<KeyedState, String> {
    let v: serde_json::Value = serde_json::from_str(canonical).map_err(|e| e.to_string())?;
    let section = |name: &str| {
        v.as_object()
            .and_then(|o| o.get(name))
            .and_then(|s| s.as_object())
            .ok_or_else(|| format!("canonical state has no {name:?} object"))
    };
    let mut state = KeyedState::default();
    for (k, n) in section("counts")? {
        let n = n
            .as_i64()
            .ok_or_else(|| format!("count of {k} is not an integer"))?;
        state.counts.insert(k.clone(), n);
    }
    for (k, x) in section("sums")? {
        let x = x
            .as_f64()
            .ok_or_else(|| format!("sum of {k} is not a number"))?;
        state.sums.insert(k.clone(), x);
    }
    Ok(state)
}

/// Every way a finished pass differs from the reference; empty when the
/// final state is right and every window was acked.
pub fn check(setup: &StreamSetup, run: &ContinuousRun) -> Vec<String> {
    let mut problems = Vec::new();
    let windows = (setup.table.num_rows() / STREAM_ROWS_PER_WINDOW) as u64;
    let totals = run.cumulative_totals();
    if totals.batches_acked != windows {
        problems.push(format!(
            "{} batches acked, expected {windows}",
            totals.batches_acked
        ));
    }
    match parse_state(&run.canonical_state()) {
        Ok(state) => {
            if state.counts != setup.reference.counts {
                problems.push(format!(
                    "counts {:?}, expected {:?}",
                    state.counts, setup.reference.counts
                ));
            }
            for (k, want) in &setup.reference.sums {
                let have = state.sums.get(k).copied().unwrap_or(f64::NAN);
                if ((have - want) / want).abs() > 1e-9 || have.is_nan() {
                    problems.push(format!("sum for {k}: {have}, expected {want}"));
                }
            }
        }
        Err(e) => problems.push(e),
    }
    problems
}

impl StreamSetup {
    pub fn build(rows: usize, seed: u64, scratch: &Path) -> Result<StreamSetup, String> {
        // No late rows inside the first window, so the watermark exists
        // before the first one arrives.
        let (table, _planted_late) = fraud_stream(rows, seed, LATE_RATE, STREAM_ROWS_PER_WINDOW);
        let setup = StreamSetup {
            reference: reference_state(&table)?,
            table,
        };
        // Warm-up: the first twenty windows through the durable path.
        let head = setup
            .table
            .slice(0, (20 * STREAM_ROWS_PER_WINDOW).min(rows))
            .map_err(|e| e.to_string())?;
        let dir = scratch.join("stream-warmup");
        host::fresh_dir(&dir).map_err(|e| e.to_string())?;
        run_pass(&head, Some(&dir))?;
        let _ = std::fs::remove_dir_all(&dir);
        Ok(setup)
    }
}

/// Engine time as a share of a pass's wall: Σ per-batch engine elapsed ÷
/// wall. Below one half, the consumer mostly waits on the ack.
pub fn engine_busy_share(run: &ContinuousRun, wall_s: f64) -> f64 {
    let busy_us: u64 = run.batch_metrics.iter().map(|m| m.total_elapsed_us).sum();
    busy_us as f64 / 1e6 / wall_s
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Result<EndToEnd, String> {
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..cfg.sizing.setups.max(1) {
        drop(setup.take());
        let started = Instant::now();
        setup = Some(StreamSetup::build(
            cfg.sizing.stream_rows,
            cfg.seed,
            &cfg.scratch,
        )?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up ran");

    let mut out = EndToEnd::default();
    let mut ack_ms = Vec::new();
    let mut timed_s = 0.0;
    let mut acked = 0u64;
    let mut last = None;
    let mut pass = 0u64;
    while pass == 0 || timed_s < cfg.seconds {
        let dir = cfg.scratch.join(format!("stream-{pass}"));
        host::fresh_dir(&dir).map_err(|e| e.to_string())?;
        tracer.set_op(pass);
        let started = Instant::now();
        let open = tracer.enter("streaming.run_continuous");
        let run = run_pass(&setup.table, Some(&dir));
        tracer.exit(open);
        let wall_s = started.elapsed().as_secs_f64();
        timed_s += wall_s;
        let _ = std::fs::remove_dir_all(&dir);
        pass += 1;

        let windows = (setup.table.num_rows() / STREAM_ROWS_PER_WINDOW) as u64;
        out.attempted += windows;
        match run {
            Ok(run) => {
                let problems = check(&setup, &run);
                if problems.is_empty() {
                    acked += run.acked.len() as u64;
                    ack_ms.extend(run.acked.iter().map(|a| a.latency_us as f64 / 1e3));
                } else {
                    // A wrong final state condemns every ack of the pass.
                    out.failed += windows;
                    out.problems
                        .extend(problems.into_iter().map(|p| format!("pass {pass}: {p}")));
                }
                last = Some((run, wall_s));
            }
            Err(e) => {
                out.failed += windows;
                out.problems.push(format!("pass {pass}: {e}"));
            }
        }
    }
    out.setup_s = median_or_zero(&setup_s);
    out.ops_per_s = acked as f64 / timed_s;
    out.rows_per_s = (acked * STREAM_ROWS_PER_WINDOW as u64) as f64 / timed_s;
    out.op_p50_ms = median_or_zero(&ack_ms);
    out.op_samples = ack_ms.len();
    out.op_p99_ms = supported_quantile(&ack_ms, 0.99);
    if let Some((run, wall_s)) = last {
        let t = run.totals();
        out.observed = vec![
            Metric::new("observed.streaming.passes", pass as f64, "count"),
            Metric::new("observed.streaming.stalls", t.stalls as f64, "count"),
            Metric::new("observed.streaming.stall_ms", t.stall_us as f64 / 1e3, "ms"),
            Metric::new(
                "observed.streaming.engine_busy_share",
                engine_busy_share(&run, wall_s),
                "ratio",
            ),
        ];
    }
    Ok(out)
}

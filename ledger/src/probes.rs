//! The layer probes of a traced run: each layer's public functions called
//! in isolation, on inputs generated from the run's seed, under a span.
//!
//! A timed probe is the median of several calls at the workloads' own
//! parallelism (2 threads, 4 partitions); a count comes from the journal
//! the engine returns, from the daemon's `/v1/status`, or from the
//! counting [`StorageIo`](toreador_store::io::StorageIo) shim. Probe
//! inputs are fixed by the profile and the seed, never by the workload
//! being traced, so a layer's numbers are comparable between the five
//! traced runs of one commit and across commits.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::Instant;

use toreador_core::compile::Bdaas;
use toreador_core::dsl::parse_expr;
use toreador_data::generate::{clickstream, fraud_stream};
use toreador_data::table::Table;
use toreador_dataflow::metrics::RunMetrics;
use toreador_dataflow::prelude::{AggExpr, AggFunc, CheckpointSpec, Dataflow};
use toreador_dataflow::session::{Engine, EngineConfig, RunResult};
use toreador_dataflow::trace::{RunTrace, SpillTotals};
use toreador_labs::session::{LabSession, Quota, SessionStore};
use toreador_serve::admission::Gate;
use toreador_serve::coalesce::PlanCache;
use toreador_store::io::inject;
use toreador_store::{DurableLog, LogConfig};

use crate::batch::narrow_dsl;
use crate::catalog::{EXACTLY_REPEATING, PER_LAYER};
use crate::cohort::{self, InProcess, Session, CONNECTIONS};
use crate::countio::{CountingIo, Counts, FileClass};
use crate::host;
use crate::loadgen::{drive, Pacing, Service, Step};
use crate::report::Metric;
use crate::sizing::{
    Sizing, ATTEMPTS_PER_TRAINEE, ATTEMPT_ROWS, SPILL_BUDGET_BYTES, STREAM_ROWS_PER_WINDOW,
};
use crate::span::Tracer;
use crate::stats::{median_or_zero as med, quantile, supported_quantile};
use crate::stream;
use crate::workload::RunConfig;

/// What the probes produced: every [`PER_LAYER`] metric except
/// `trace_overhead_ratio` (the traced workload pass supplies that one).
#[derive(Debug, Default)]
pub struct Layers {
    pub metrics: Vec<Metric>,
    pub extra: Vec<Metric>,
    pub problems: Vec<String>,
}

/// What a probe keeps of one engine run: its metrics and its journal.
type Run = (RunMetrics, RunTrace);

struct Probe<'a> {
    sizing: Sizing,
    seed: u64,
    scratch: PathBuf,
    tracer: &'a mut Tracer,
    values: BTreeMap<&'static str, f64>,
    extra: Vec<Metric>,
    problems: Vec<String>,
}

fn ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

fn flow_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Probe<'_> {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record a count that should be the same on every repetition. The
    /// first value is reported; a differing repetition is called out.
    fn set_exact(&mut self, name: &'static str, reps: &[f64]) {
        self.set(name, reps.first().copied().unwrap_or(0.0));
        let repeats = reps.windows(2).all(|w| w[0] == w[1]);
        if EXACTLY_REPEATING.contains(&name) {
            self.extra.push(Metric::new(
                format!("repeats.{name}"),
                if repeats { 1.0 } else { 0.0 },
                "bool",
            ));
        }
    }

    /// Record the `q`-quantile of `samples`. The profile sizes each probe
    /// so that ten samples lie beyond it; where they do not (the smoke
    /// profile), the plain quantile is recorded and the shortfall flagged.
    fn set_tail(&mut self, name: &'static str, samples: &[f64], q: f64) {
        if supported_quantile(samples, q).is_none() {
            self.extra.push(Metric::new(
                format!("unsupported.{name}"),
                samples.len() as f64,
                "count",
            ));
        }
        self.set(name, quantile(samples, q).unwrap_or(0.0));
    }

    /// Call `f` `reps` times under a span; returns each call's time in ms
    /// and each call's result.
    fn timed<T>(
        &mut self,
        span: &str,
        reps: usize,
        mut f: impl FnMut() -> Result<T, String>,
    ) -> Result<(Vec<f64>, Vec<T>), String> {
        let mut times = Vec::with_capacity(reps);
        let mut outs = Vec::with_capacity(reps);
        for rep in 0..reps.max(1) {
            self.tracer.set_op(rep as u64);
            let open = self.tracer.enter(span);
            let started = Instant::now();
            let out = f();
            times.push(ms(started));
            self.tracer.exit(open);
            outs.push(out.map_err(|e| format!("{span}: {e}"))?);
        }
        Ok((times, outs))
    }

    /// Run `flow` on `engine` `probe_reps` times; median ms plus every
    /// run's metrics and journal (the tables are dropped).
    ///
    /// Untimed runs come first, for `probe_warmup_ms`. On this host a job
    /// that hands work between threads runs up to 60 % slower when the
    /// second vCPU has been idle, and takes a few hundred milliseconds of
    /// such work to come back; without them the median depends on what ran
    /// just before the probe.
    fn engine_runs(
        &mut self,
        span: &str,
        engine: &Engine,
        flow: &Dataflow,
    ) -> Result<(f64, Vec<Run>), String> {
        let warm = Instant::now();
        while ms(warm) < self.sizing.probe_warmup_ms {
            engine
                .run(flow)
                .map_err(|e| format!("{span} warm-up: {e}"))?;
        }
        let reps = self.sizing.probe_reps;
        let (times, runs) = self.timed(span, reps, || {
            let RunResult { metrics, trace, .. } = engine.run(flow).map_err(flow_err)?;
            Ok((metrics, trace))
        })?;
        Ok((med(&times), runs))
    }

    fn dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.scratch.join(name);
        host::fresh_dir(&dir).map_err(|e| format!("{dir:?}: {e}"))?;
        Ok(dir)
    }
}

/// Busy time of one operator kind in a run, ms: Σ `elapsed_us` over the
/// nodes whose description starts with `kind`.
fn operator_ms(metrics: &RunMetrics, kind: &str) -> f64 {
    metrics
        .nodes
        .iter()
        .filter(|n| n.operator.starts_with(kind))
        .map(|n| n.elapsed_us as f64 / 1e3)
        .sum()
}

/// One value per run of a probe.
fn each(runs: &[Run], f: impl Fn(&Run) -> f64) -> Vec<f64> {
    runs.iter().map(f).collect()
}

fn shuffle_bytes(metrics: &RunMetrics) -> f64 {
    metrics.nodes.iter().map(|n| n.shuffle_bytes as f64).sum()
}

// ---------------------------------------------------------------- data

fn data(p: &mut Probe) -> Result<Table, String> {
    let (rows, seed, reps) = (p.sizing.probe_rows, p.seed, p.sizing.probe_reps.min(3));
    let (times, mut tables) = p.timed("data.generate", reps, || Ok(clickstream(rows, seed)))?;
    p.set(
        "data.generate_rows_per_s",
        rows as f64 / (med(&times) / 1e3),
    );
    Ok(tables.pop().expect("at least one repetition"))
}

// ---------------------------------------------------------------- core

fn core(p: &mut Probe, table: &Table) -> Result<(), String> {
    let bdaas = Bdaas::new();
    let dsl = narrow_dsl(p.seed);
    let fast = p.sizing.probe_fast_reps;
    let (parse_ms, mut specs) =
        p.timed("core.parse", fast, || bdaas.parse(&dsl).map_err(flow_err))?;
    let spec = specs.pop().expect("at least one repetition");
    let (compile_ms, mut plans) = p.timed("core.compile", fast, || {
        bdaas
            .compile(&spec, table.schema(), table.num_rows())
            .map_err(flow_err)
    })?;
    let compiled = plans.pop().expect("at least one repetition");
    p.set("core.parse_us", med(&parse_ms) * 1e3);
    p.set("core.compile_us", med(&compile_ms) * 1e3);

    // The span around Bdaas::run; what the engines inside it report is
    // laid under it as children, and the remainder — service glue,
    // indicators, audit — is the span's self time.
    let mut execute = Vec::new();
    let mut glue = Vec::new();
    for rep in 0..p.sizing.probe_reps {
        let input = table.clone();
        p.tracer.set_op(rep as u64);
        let open = p.tracer.enter("core.execute");
        let started = Instant::now();
        let outcome = bdaas.run(&compiled, input, &HashMap::new());
        let total = ms(started);
        let outcome = outcome.map_err(|e| format!("core.execute: {e}"))?;
        let engines: Vec<u64> = outcome
            .engine_metrics
            .iter()
            .map(|m| m.total_elapsed_us)
            .collect();
        p.tracer
            .synthesize_children(open, "dataflow.engine", &engines);
        p.tracer.exit(open);
        execute.push(total);
        glue.push(total - engines.iter().sum::<u64>() as f64 / 1e3);
    }
    p.set("core.execute_ms", med(&execute));
    p.set("core.glue_ms", med(&glue));
    Ok(())
}

// ------------------------------------------------------------ dataflow

fn engine_config() -> EngineConfig {
    EngineConfig::default().with_threads(2).with_partitions(4)
}

fn dataflow(p: &mut Probe, table: &Table) -> Result<(), String> {
    let mut engine = Engine::new(engine_config());
    engine.register("clicks", table.clone()).map_err(flow_err)?;
    let scan = engine.flow("clicks").map_err(flow_err)?;
    let expr = |text: &str| parse_expr(text).map_err(flow_err);

    // Isolating queries: one job each.
    let narrow = scan
        .clone()
        .filter(expr("price > 20 and action != 'view'")?)
        .and_then(|f| {
            f.project(vec![
                ("revenue", expr("price * 0.85").expect("literal expression")),
                (
                    "account",
                    expr("user_id + product_id").expect("literal expression"),
                ),
                (
                    "bucket",
                    expr("product_id % 97").expect("literal expression"),
                ),
            ])
        })
        .map_err(flow_err)?;
    let lowcard = scan
        .clone()
        .aggregate(
            &["country"],
            vec![AggExpr::new(AggFunc::Sum, "price", "revenue")],
        )
        .map_err(flow_err)?;
    let highcard = scan
        .clone()
        .aggregate(
            &["event_id"],
            vec![
                AggExpr::new(AggFunc::Count, "user_id", "events"),
                AggExpr::new(AggFunc::Sum, "price", "revenue"),
            ],
        )
        .map_err(flow_err)?;
    // Sort what the wide campaign sorts: three numeric columns, on a key
    // that is not already in order.
    let sort = scan
        .clone()
        .project(vec![
            ("event_id", expr("event_id")?),
            ("user_id", expr("user_id")?),
            ("price", expr("price")?),
        ])
        .and_then(|f| f.sort(&["user_id"], false))
        .map_err(flow_err)?;
    let wide = highcard
        .clone()
        .sort(&["event_id"], false)
        .map_err(flow_err)?;

    let (scan_ms, _) = p.engine_runs("dataflow.scan", &engine, &scan)?;
    p.set("dataflow.scan_ms", scan_ms);

    let (narrow_ms, narrow_runs) = p.engine_runs("dataflow.narrow", &engine, &narrow)?;
    p.set("dataflow.narrow_ms", narrow_ms);
    p.set(
        "dataflow.op_filter_ms",
        med(&each(&narrow_runs, |r| operator_ms(&r.0, "Filter"))),
    );
    p.set(
        "dataflow.op_project_ms",
        med(&each(&narrow_runs, |r| operator_ms(&r.0, "Project"))),
    );
    p.set_exact(
        "dataflow.morsels",
        &each(&narrow_runs, |r| r.1.pipeline_totals().morsels as f64),
    );
    p.set(
        "dataflow.morsels_stolen",
        med(&each(&narrow_runs, |r| r.1.pipeline_totals().stolen as f64)),
    );
    p.set(
        "dataflow.worker_skew",
        med(&each(&narrow_runs, |r| r.1.pipeline_totals().worker_skew)),
    );

    let (lowcard_ms, _) = p.engine_runs("dataflow.agg_lowcard", &engine, &lowcard)?;
    p.set("dataflow.agg_lowcard_ms", lowcard_ms);

    let (highcard_ms, highcard_runs) =
        p.engine_runs("dataflow.agg_highcard", &engine, &highcard)?;
    p.set("dataflow.agg_highcard_ms", highcard_ms);
    p.set(
        "dataflow.op_aggregate_ms",
        med(&each(&highcard_runs, |r| operator_ms(&r.0, "Aggregate"))),
    );
    p.set_exact(
        "dataflow.shuffle_bytes",
        &each(&highcard_runs, |r| shuffle_bytes(&r.0)),
    );

    let (sort_ms, sort_runs) = p.engine_runs("dataflow.sort", &engine, &sort)?;
    p.set("dataflow.sort_ms", sort_ms);
    p.set(
        "dataflow.op_sort_ms",
        med(&each(&sort_runs, |r| operator_ms(&r.0, "Sort"))),
    );

    // The same high-cardinality aggregation through the pager.
    let spill_dir = p.dir("probe-spill")?;
    let mut budgeted = Engine::new(
        engine_config()
            .with_memory_budget(SPILL_BUDGET_BYTES)
            .with_spill_dir(&spill_dir),
    );
    budgeted
        .register("clicks", table.clone())
        .map_err(flow_err)?;
    let (budgeted_ms, spill_runs) =
        p.engine_runs("dataflow.agg_highcard_budgeted", &budgeted, &highcard)?;
    drop(budgeted);
    // Base: the in-memory run of the same flow on the same data.
    p.set("dataflow.spill_tax_ratio", budgeted_ms / highcard_ms);
    let spill = |f: fn(&SpillTotals) -> u64| each(&spill_runs, |r| f(&r.1.spill_totals()) as f64);
    p.set_exact("dataflow.spill_runs", &spill(|s| s.spills));
    p.set_exact("dataflow.spilled_rows", &spill(|s| s.spilled_rows));
    p.set_exact("dataflow.spilled_bytes", &spill(|s| s.spilled_bytes));
    p.set_exact("dataflow.merged_runs", &spill(|s| s.merged_runs));
    p.set_exact("dataflow.page_faults", &spill(|s| s.page_faults));
    p.set_exact("dataflow.page_evictions", &spill(|s| s.page_evictions));
    p.set_exact("dataflow.peak_pool_bytes", &spill(|s| s.peak_pool_bytes));

    // Stage-boundary checkpointing on the wide flow, and re-entering a
    // complete checkpoint.
    let (wide_ms, _) = p.engine_runs("dataflow.wide", &engine, &wide)?;
    let ckpt_root = p.dir("probe-ckpt")?;
    let mut ckpt =
        Engine::new(engine_config().with_checkpoint(CheckpointSpec::new(&ckpt_root, "unused")));
    ckpt.register("clicks", table.clone()).map_err(flow_err)?;
    let reps = p.sizing.probe_reps;
    let (ckpt_ms, _) = p.timed("dataflow.run_checkpointed", reps, || {
        ckpt.run_checkpointed(&wide, "probe")
            .map(|_| ())
            .map_err(flow_err)
    })?;
    p.set("dataflow.checkpoint_premium_ratio", med(&ckpt_ms) / wide_ms);
    let (resume_ms, _) = p.timed("dataflow.resume", reps, || {
        ckpt.resume(&wide, "probe").map(|_| ()).map_err(flow_err)
    })?;
    p.set("dataflow.resume_ms", med(&resume_ms));

    // The fixed cost of one small job: a new engine, one registration and
    // a trivial run over an attempt-sized table.
    let small = table
        .slice(0, ATTEMPT_ROWS.min(table.num_rows()))
        .map_err(flow_err)?;
    let fast = p.sizing.probe_fast_reps;
    let (setup_ms, _) = p.timed("dataflow.engine_setup", fast, || {
        let mut e = Engine::new(engine_config());
        e.register("small", small.clone()).map_err(flow_err)?;
        let flow = e.flow("small").map_err(flow_err)?;
        e.run(&flow).map(|_| ()).map_err(flow_err)
    })?;
    p.set("dataflow.engine_setup_us", med(&setup_ms) * 1e3);
    Ok(())
}

// ----------------------------------------------------------- streaming

fn streaming(p: &mut Probe) -> Result<(), String> {
    let rows = p.sizing.probe_stream_rows;
    let (table, _) = fraud_stream(rows, p.seed, 0.05, STREAM_ROWS_PER_WINDOW);
    let reps = p.sizing.probe_reps.min(3);

    let (plain_ms, _) = p.timed("streaming.plain", reps, || {
        stream::run_pass(&table, None).map(|_| ())
    })?;
    p.set(
        "streaming.plain_rows_per_s",
        rows as f64 / (med(&plain_ms) / 1e3),
    );

    // The durable pass, through the counting shim: twice, so the counts
    // that must repeat can be compared.
    let root = p.dir("probe-stream")?;
    let mut durable_ms = Vec::new();
    let mut per_ack: Vec<(Counts, Counts)> = Vec::new();
    let mut runs = Vec::new();
    for rep in 0..2 {
        let dir = root.join(format!("acks-{rep}"));
        let io = CountingIo::new();
        let guard = inject(&dir, io.clone());
        let (t, mut r) = p.timed("streaming.durable", 1, || {
            stream::run_pass(&table, Some(&dir))
        })?;
        drop(guard);
        durable_ms.push(t[0]);
        per_ack.push((io.total(), io.class(FileClass::Wal)));
        runs.push((r.pop().expect("one repetition"), t[0]));
    }
    let (run, wall_ms) = &runs[0];
    let totals = run.totals();
    let batches = totals.batches_acked.max(1) as f64;
    p.set(
        "streaming.durability_tax_ratio",
        med(&durable_ms) / med(&plain_ms),
    );
    p.set(
        "streaming.engine_busy_share",
        stream::engine_busy_share(run, wall_ms / 1e3),
    );
    p.set("streaming.stalls", totals.stalls as f64);
    p.set("streaming.stall_ms", totals.stall_us as f64 / 1e3);
    let batch_counts: Vec<f64> = runs
        .iter()
        .map(|(r, _)| r.totals().batches_acked as f64)
        .collect();
    p.set_exact("streaming.batches", &batch_counts);
    let late: Vec<f64> = runs
        .iter()
        .map(|(r, _)| {
            let t = r.totals();
            (t.late_absorbed + t.late_side_channelled + t.late_dropped) as f64
        })
        .collect();
    p.set_exact("streaming.late_rows", &late);
    let ack_us: Vec<f64> = run.acked.iter().map(|a| a.latency_us as f64).collect();
    p.set_tail("streaming.ack_p99_us", &ack_us, 0.99);
    p.set_exact(
        "store.fsyncs_per_ack",
        &per_ack
            .iter()
            .map(|(all, _)| all.fsyncs as f64 / batches)
            .collect::<Vec<_>>(),
    );
    p.set_exact(
        "store.write_bytes_per_ack",
        &per_ack
            .iter()
            .map(|(all, _)| all.write_bytes as f64 / batches)
            .collect::<Vec<_>>(),
    );
    p.set(
        "streaming.ack_log_bytes_per_batch",
        per_ack[0].1.write_bytes as f64 / batches,
    );

    // Restart cost: reopen the finished log and replay it to the state.
    let finished = root.join("acks-0");
    let (replay_ms, replays) = p.timed("streaming.resume_replay", reps, || {
        stream::replay_pass(&table, &finished)
    })?;
    p.set("streaming.resume_replay_ms", med(&replay_ms));
    if replays
        .iter()
        .any(|r| r.canonical_state() != run.canonical_state())
    {
        p.problems
            .push("replayed stream state differs from the live one".to_owned());
    }
    Ok(())
}

// --------------------------------------------------------------- store

fn store(p: &mut Probe) -> Result<(), String> {
    const RECORD: usize = 1024;
    let payload = vec![0xA5u8; RECORD];
    let store_err = |e: toreador_store::StoreError| e.to_string();

    let dir = p.dir("probe-log")?;
    let (mut log, _) = DurableLog::open(&dir, LogConfig::default()).map_err(store_err)?;
    let appends = p.sizing.probe_fast_reps.max(100);
    let (append_ms, _) = p.timed("store.append", appends, || {
        log.append(&payload).map(|_| ()).map_err(store_err)
    })?;
    p.set("store.append_us", med(&append_ms) * 1e3);
    log.sync().map_err(store_err)?;
    p.set(
        "store.bytes_per_user_byte",
        host::dir_bytes(&dir) as f64 / (appends * RECORD) as f64,
    );

    let synced = p.sizing.probe_sync_appends;
    let (sync_ms, _) = p.timed("store.append_sync", synced, || {
        log.append(&payload).map_err(store_err)?;
        log.sync().map_err(store_err)
    })?;
    let sync_us: Vec<f64> = sync_ms.iter().map(|t| t * 1e3).collect();
    p.set("store.append_sync_p50_us", med(&sync_us));
    p.set_tail("store.append_sync_p99_us", &sync_us, 0.99);

    let state = vec![0x5Au8; p.sizing.probe_snapshot_bytes];
    let reps = p.sizing.probe_reps;
    let (snapshot_ms, _) = p.timed("store.snapshot", reps, || {
        // A snapshot covers records, so give it one to cover.
        log.append(&payload).map_err(store_err)?;
        log.snapshot(&state).map_err(store_err)
    })?;
    p.set("store.snapshot_ms", med(&snapshot_ms));
    drop(log);

    let dir = p.dir("probe-recover")?;
    let small = vec![0xC3u8; 256];
    {
        let (mut log, _) = DurableLog::open(&dir, LogConfig::default()).map_err(store_err)?;
        for _ in 0..p.sizing.probe_recover_records {
            log.append(&small).map_err(store_err)?;
        }
        log.sync().map_err(store_err)?;
    }
    let want = p.sizing.probe_recover_records;
    let (recover_ms, _) = p.timed("store.recover", reps, || {
        let (_, recovery) = DurableLog::open(&dir, LogConfig::default()).map_err(store_err)?;
        if recovery.records.len() != want {
            return Err(format!(
                "recovered {} of {want} records",
                recovery.records.len()
            ));
        }
        Ok(())
    })?;
    p.set("store.recover_ms", med(&recover_ms));
    Ok(())
}

// ---------------------------------------------------------------- labs

const CHALLENGE: &str = "ecomm-revenue";

fn reference_choices() -> Result<Vec<String>, String> {
    Ok(toreador_labs::catalog::challenge(CHALLENGE)
        .map_err(flow_err)?
        .reference_vector())
}

fn labs(p: &mut Probe) -> Result<(), String> {
    let choices = reference_choices()?;
    let quota = Quota::free_tier();
    let runs = quota.max_runs as usize;
    let root = p.dir("probe-labs")?;
    let labs_err = |e: toreador_labs::error::LabsError| e.to_string();

    // A full free-tier session, twice, through the counting shim.
    let mut attempt_ms = Vec::new();
    let mut per_attempt = Vec::new();
    for rep in 0..2 {
        let dir = root.join(format!("session-{rep}"));
        let io = CountingIo::new();
        let guard = inject(&dir, io.clone());
        let store = SessionStore::open(&dir).map_err(|e| e.to_string())?;
        let mut session = LabSession::open(store, "probe", quota, p.seed).map_err(labs_err)?;
        let before = io.total();
        let (times, _) = p.timed("labs.attempt", runs, || {
            session
                .attempt(CHALLENGE, &choices, Some(ATTEMPT_ROWS))
                .map(|_| ())
                .map_err(labs_err)
        })?;
        let spent = io.total() - before;
        drop(guard);
        attempt_ms.extend(times);
        per_attempt.push(spent);
        if rep == 0 {
            let fast = p.sizing.probe_fast_reps;
            let (compare_ms, _) = p.timed("labs.compare", fast, || {
                session.compare(1, 2).map(|_| ()).map_err(labs_err)
            })?;
            p.set("labs.compare_us", med(&compare_ms) * 1e3);
        }
    }
    p.set("labs.attempt_ms", med(&attempt_ms));
    p.set_exact(
        "store.fsyncs_per_attempt",
        &per_attempt
            .iter()
            .map(|c| c.fsyncs as f64 / runs as f64)
            .collect::<Vec<_>>(),
    );
    p.set_exact(
        "store.write_bytes_per_attempt",
        &per_attempt
            .iter()
            .map(|c| c.write_bytes as f64 / runs as f64)
            .collect::<Vec<_>>(),
    );

    // Coming back to yesterday's session: reopen the store and resume.
    let dir = root.join("session-0");
    let reps = p.sizing.probe_reps;
    let seed = p.seed;
    let (open_ms, _) = p.timed("labs.open", reps, || {
        let store = SessionStore::open(&dir).map_err(|e| e.to_string())?;
        let session = LabSession::open(store, "probe", quota, seed).map_err(labs_err)?;
        if session.history().len() != runs {
            return Err(format!(
                "resumed {} of {runs} runs",
                session.history().len()
            ));
        }
        Ok(())
    })?;
    p.set("labs.open_ms", med(&open_ms));
    Ok(())
}

// --------------------------------------------------------------- serve

fn serve_in_process(p: &mut Probe) -> Result<f64, String> {
    let dir = p.dir("probe-hub")?;
    let hub = InProcess::open(&dir, p.seed)?;
    let trainees = cohort::trainee_names("hub", 3);
    let mut attempt_ms = Vec::new();
    for (ordinal, trainee) in trainees.iter().enumerate() {
        hub.call(trainee, ordinal, Step::Open)?;
        let (times, _) = p.timed("serve.hub_attempt", ATTEMPTS_PER_TRAINEE, || {
            hub.call(trainee, ordinal, Step::Attempt(0)).map(|_| ())
        })?;
        attempt_ms.extend(times);
    }
    let hub_attempt_ms = med(&attempt_ms);
    p.set("serve.hub_attempt_ms", hub_attempt_ms);
    drop(hub);

    let gate = Gate::new(4, 64);
    let fast = p.sizing.probe_fast_reps.max(100);
    let (acquire_ms, _) = p.timed("serve.gate_acquire", fast, || {
        gate.acquire(std::time::Duration::from_secs(1))
            .map(drop)
            .map_err(|r| format!("{r:?}"))
    })?;
    p.set("serve.gate_acquire_ns", med(&acquire_ms) * 1e6);

    // Plan cache: distinct keys miss (compile + insert), one key hits.
    let bdaas = Bdaas::new();
    let spec = bdaas.parse(&narrow_dsl(p.seed)).map_err(flow_err)?;
    let schema = toreador_data::generate::clickstream_schema();
    let cache = PlanCache::new();
    let mut key = 0u64;
    let fast = p.sizing.probe_fast_reps;
    let (miss_ms, _) = p.timed("serve.plan_miss", fast, || {
        key += 1;
        cache
            .get_or_compile(key, || {
                bdaas
                    .compile(&spec, &schema, ATTEMPT_ROWS)
                    .map_err(flow_err)
            })
            .map(|_| ())
    })?;
    let (hit_ms, _) = p.timed("serve.plan_hit", fast, || {
        cache
            .get_or_compile(1, || Err("a cached key must not recompile".to_owned()))
            .map(|_| ())
    })?;
    p.set("serve.plan_miss_us", med(&miss_ms) * 1e3);
    p.set("serve.plan_hit_us", med(&hit_ms) * 1e3);
    Ok(hub_attempt_ms)
}

fn serve_daemon(p: &mut Probe, cfg: &RunConfig, hub_attempt_ms: f64) -> Result<(), String> {
    let dir = p.scratch.join("probe-daemon");
    let mut session = Session::start(&cfg.daemon, &dir, p.seed)?;
    let fast = p.sizing.probe_fast_reps;
    let (healthz_ms, _) = p.timed("serve.http_healthz", fast, || session.healthz())?;
    p.set("serve.http_healthz_us", med(&healthz_ms) * 1e3);

    // One closed client: per-endpoint latency with nothing else going on.
    let single = drive(
        session.service(),
        &cohort::trainee_names("single", p.sizing.probe_reps.max(2)),
        1,
        Pacing::Closed,
        p.tracer,
    );
    p.problems.extend(single.errors.iter().cloned());
    let step_ms = |want: fn(Step) -> bool| med(&single.latencies(want));
    let http_attempt_ms = step_ms(|s| matches!(s, Step::Attempt(_)));
    p.set("serve.http_open_ms", step_ms(|s| s == Step::Open));
    p.set("serve.http_attempt_ms", http_attempt_ms);
    p.set("serve.http_history_ms", step_ms(|s| s == Step::History));
    p.set(
        "serve.http_compare_ms",
        step_ms(|s| matches!(s, Step::Compare(..))),
    );
    p.set(
        "serve.http_overhead_us",
        (http_attempt_ms - hub_attempt_ms) * 1e3,
    );

    // A short paced cohort, as in the workload's second phase.
    let paced = drive(
        session.service(),
        &cohort::trainee_names("paced", p.sizing.probe_paced_trainees),
        CONNECTIONS,
        Pacing::Open {
            rate_per_s: p.sizing.paced_rate_per_s,
        },
        p.tracer,
    );
    p.problems.extend(paced.errors.iter().cloned());
    let attempts = paced.latencies(|s| matches!(s, Step::Attempt(_)));
    p.set_tail("serve.attempt_p95_ms", &attempts, 0.95);
    p.set("serve.read_p50_ms", med(&paced.latencies(Step::is_read)));
    p.set(
        "serve.sched_lag_p99_ms",
        quantile(&paced.sched_lag_ms, 0.99).unwrap_or(0.0),
    );

    let counters = session.counters()?;
    p.set("serve.plan_hit_ratio", counters.plan_hit_ratio());
    p.set("serve.rejected", counters.rejected as f64);
    let drain_ms = p.tracer.span("serve.drain", || session.stop())?;
    p.set("serve.drain_ms", drain_ms);
    let acked: Vec<(String, u64)> = single.acked.iter().chain(&paced.acked).cloned().collect();
    let (reopen_ms, lost) = p
        .tracer
        .span("store.reopen", || cohort::reopen_and_verify(&dir, &acked))?;
    p.set("serve.reopen_ms", reopen_ms);
    if lost > 0 {
        p.problems
            .push(format!("{lost} acknowledged run(s) missing after reopen"));
    }
    p.set(
        "serve.store_bytes_per_attempt",
        host::dir_bytes(&dir) as f64 / acked.len().max(1) as f64,
    );
    Ok(())
}

/// Run every probe. `tracer` receives a span per probe call.
pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Result<Layers, String> {
    let mut p = Probe {
        sizing: cfg.sizing,
        seed: cfg.seed,
        scratch: cfg.scratch.clone(),
        tracer,
        values: BTreeMap::new(),
        extra: Vec::new(),
        problems: Vec::new(),
    };
    let table = data(&mut p)?;
    core(&mut p, &table)?;
    dataflow(&mut p, &table)?;
    drop(table);
    streaming(&mut p)?;
    store(&mut p)?;
    labs(&mut p)?;
    let hub_attempt_ms = serve_in_process(&mut p)?;
    serve_daemon(&mut p, cfg, hub_attempt_ms)?;

    let mut layers = Layers {
        extra: p.extra,
        problems: p.problems,
        ..Layers::default()
    };
    for def in PER_LAYER
        .iter()
        .filter(|d| d.name != "trace_overhead_ratio")
    {
        match p.values.get(def.name) {
            Some(v) => layers.metrics.push(Metric::new(def.name, *v, def.unit)),
            None => layers
                .problems
                .push(format!("no probe produced {}", def.name)),
        }
    }
    Ok(layers)
}

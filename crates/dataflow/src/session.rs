//! The engine session: dataset registry + run entry point.
//!
//! [`Engine`] is the facade the rest of the workspace uses: register named
//! datasets, build a [`Dataflow`], call [`Engine::run`], get a table plus a
//! full [`RunMetrics`] record. One `Engine` can serve many runs; datasets
//! are immutable once registered.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use toreador_data::partition::PartitionedTable;
use toreador_data::table::Table;

use crate::checkpoint::{
    config_fingerprint, input_fingerprint, plan_fingerprint, CheckpointManifest, CheckpointSpec,
    RunCheckpoint,
};
use crate::error::{FlowError, Result};
use crate::logical::{Dataflow, LogicalPlan};
use crate::metrics::{MetricsCollector, RunMetrics};
use crate::optimizer::{optimize, OptimizerConfig};
use crate::physical::{execute, ExecConfig, ExecContext};
use crate::resilience::{ResilienceConfig, RunControl};
use crate::scheduler::SchedulerConfig;
use crate::trace::RunTrace;

/// Engine configuration: threads, partitions, optimiser, resilience.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    pub threads: usize,
    pub partitions: usize,
    pub optimizer: OptimizerConfig,
    /// Retry/deadline/speculation policy and the chaos plan for this engine;
    /// the stage coordinator applies it to every wave, morsel waves
    /// included.
    pub resilience: ResilienceConfig,
    /// Target rows per morsel (clamped to >= 1): the unit of morsel waves
    /// and of the scheduler's size rule.
    pub morsel_rows: usize,
    /// When set, every run checkpoints completed shuffle waves here, and
    /// resuming specs restore them (see [`crate::checkpoint`]).
    pub checkpoint: Option<CheckpointSpec>,
    /// External run control. When set, the execution context adopts this
    /// handle instead of minting its own, so whoever kept a clone can
    /// cancel the run from another thread (a serving daemon draining on
    /// SIGTERM, a session being closed). `None` — the default — keeps the
    /// control private to the run.
    pub control: Option<RunControl>,
    /// When set, the shuffle's staging — the one spill point, through
    /// which every wide operator's input passes — spills runs to disk once
    /// it exceeds this many bytes, and merges them back on read
    /// (see [`crate::spill`]). `None` — the default — keeps everything in
    /// memory. Spilling never changes results: output is byte-identical to
    /// the in-memory path.
    pub memory_budget_bytes: Option<u64>,
    /// Pin the spill directory. `None` — the default — spills next to the
    /// checkpoint when there is one, else into a process-unique temp dir.
    /// Set it to place spill I/O under a known prefix (the disk-chaos
    /// harness registers an injector over exactly this directory).
    pub spill_dir: Option<PathBuf>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: crate::scheduler::default_threads(),
            partitions: 4,
            optimizer: OptimizerConfig::default(),
            resilience: ResilienceConfig::none(),
            morsel_rows: 4096,
            checkpoint: None,
            control: None,
            memory_budget_bytes: None,
            spill_dir: None,
        }
    }
}

impl EngineConfig {
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions.max(1);
        self
    }

    pub fn with_optimizer(mut self, optimizer: OptimizerConfig) -> Self {
        self.optimizer = optimizer;
        self
    }

    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }

    pub fn with_morsel_rows(mut self, rows: usize) -> Self {
        self.morsel_rows = rows.max(1);
        self
    }

    pub fn with_checkpoint(mut self, spec: CheckpointSpec) -> Self {
        self.checkpoint = Some(spec);
        self
    }

    /// Adopt an external [`RunControl`]: the caller keeps a clone and can
    /// cancel this engine's runs from any thread.
    pub fn with_control(mut self, control: RunControl) -> Self {
        self.control = Some(control);
        self
    }

    /// Cap the in-memory working set of wide operators at `bytes`; runs
    /// beyond the budget spill to paged files and merge back on read.
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget_bytes = Some(bytes);
        self
    }

    /// Spill into `dir` instead of the derived default location.
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    fn exec_config(&self) -> ExecConfig {
        ExecConfig {
            scheduler: SchedulerConfig {
                threads: self.threads,
                resilience: self.resilience.clone(),
            },
            partitions: self.partitions,
            morsel_rows: self.morsel_rows,
            control: self.control.clone(),
            memory_budget_bytes: self.memory_budget_bytes,
            // An explicit spill dir wins; otherwise spill next to the
            // checkpoint when there is one (so a kill mid-spill is swept
            // on resume); otherwise ExecContext derives a process-unique
            // temp dir.
            spill_dir: self.spill_dir.clone().or_else(|| {
                self.checkpoint
                    .as_ref()
                    .map(|spec| spec.dir().join("spill"))
            }),
        }
    }
}

/// The result of one run: data, metrics, trace, and the plan that ran.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub table: Table,
    pub metrics: RunMetrics,
    /// The full flight-recorder journal the metrics were derived from.
    pub trace: RunTrace,
    /// The optimised plan (equal to the input plan when optimisation is off).
    pub executed_plan: Arc<LogicalPlan>,
}

/// A dataflow engine session.
#[derive(Debug, Default)]
pub struct Engine {
    config: EngineConfig,
    datasets: HashMap<String, PartitionedTable>,
}

impl Engine {
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            config,
            datasets: HashMap::new(),
        }
    }

    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Register a table under a name, splitting it to the configured
    /// partition count. Re-registering a name replaces the dataset.
    pub fn register(&mut self, name: impl Into<String>, table: Table) -> Result<()> {
        let parts = PartitionedTable::split(table, self.config.partitions)?;
        self.datasets.insert(name.into(), parts);
        Ok(())
    }

    /// Register an already-partitioned dataset (keeps its partitioning).
    pub fn register_partitioned(&mut self, name: impl Into<String>, parts: PartitionedTable) {
        self.datasets.insert(name.into(), parts);
    }

    /// Names of registered datasets, sorted.
    pub fn dataset_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.datasets.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// The schema of a registered dataset.
    pub fn dataset_schema(&self, name: &str) -> Result<&toreador_data::schema::Schema> {
        self.datasets
            .get(name)
            .map(|p| p.schema())
            .ok_or_else(|| FlowError::UnknownDataset(name.to_owned()))
    }

    /// Total rows of a registered dataset.
    pub fn dataset_rows(&self, name: &str) -> Result<usize> {
        self.datasets
            .get(name)
            .map(|p| p.total_rows())
            .ok_or_else(|| FlowError::UnknownDataset(name.to_owned()))
    }

    /// Start a flow over a registered dataset (schema comes from the registry).
    pub fn flow(&self, dataset: &str) -> Result<Dataflow> {
        Ok(Dataflow::scan(
            dataset,
            self.dataset_schema(dataset)?.clone(),
        ))
    }

    /// Optimise and execute, collecting the result into one table. Honours
    /// [`EngineConfig::checkpoint`] when set (including its resume flag).
    pub fn run(&self, flow: &Dataflow) -> Result<RunResult> {
        self.run_with(flow, self.config.checkpoint.clone())
    }

    /// Run `flow` while checkpointing every completed shuffle wave under
    /// `run_id` in the configured checkpoint root.
    pub fn run_checkpointed(
        &self,
        flow: &Dataflow,
        run_id: impl Into<String>,
    ) -> Result<RunResult> {
        let spec = CheckpointSpec::new(self.checkpoint_root()?, run_id);
        self.run_with(flow, Some(spec))
    }

    /// Resume run `run_id` from its checkpoints: validate the stored
    /// manifest against the recompiled plan (a mismatch refuses with
    /// [`FlowError::StaleCheckpoint`]), restore every completed wave
    /// without recomputing it, and execute only the remaining waves. If no
    /// checkpoint exists yet for `run_id`, this starts a fresh checkpointed
    /// run — resuming a run that never got to checkpoint anything is just
    /// running it.
    pub fn resume(&self, flow: &Dataflow, run_id: impl Into<String>) -> Result<RunResult> {
        let spec = CheckpointSpec::resume(self.checkpoint_root()?, run_id);
        self.run_with(flow, Some(spec))
    }

    fn checkpoint_root(&self) -> Result<std::path::PathBuf> {
        self.config
            .checkpoint
            .as_ref()
            .map(|s| s.root.clone())
            .ok_or_else(|| {
                FlowError::Checkpoint(
                    "engine has no checkpoint root configured (EngineConfig::with_checkpoint)"
                        .to_owned(),
                )
            })
    }

    /// The run identity a checkpoint must match to be resumable: optimized
    /// plan, wave-shaping config knobs, and scanned-input fingerprints.
    fn manifest_for(
        &self,
        optimized: &LogicalPlan,
        spec: &CheckpointSpec,
    ) -> Result<CheckpointManifest> {
        let scanned: Vec<String> = optimized
            .scanned_datasets()
            .into_iter()
            .map(str::to_owned)
            .collect();
        Ok(CheckpointManifest {
            format_version: 1,
            run_id: spec.run_id.clone(),
            plan_fingerprint: plan_fingerprint(&optimized.explain()),
            config_fingerprint: config_fingerprint(self.config.partitions),
            input_fingerprint: input_fingerprint(&self.datasets, &scanned)?,
            chaos_seed: self.config.resilience.chaos.seed,
            partitions: self.config.partitions,
        })
    }

    fn run_with(&self, flow: &Dataflow, checkpoint: Option<CheckpointSpec>) -> Result<RunResult> {
        // Validate scans before doing any work.
        for ds in flow.plan().scanned_datasets() {
            if !self.datasets.contains_key(ds) {
                return Err(FlowError::UnknownDataset(ds.to_owned()));
            }
        }
        let started = Instant::now();
        let optimized = optimize(flow.plan(), &self.config.optimizer)?;
        let metrics = MetricsCollector::new();
        let mut exec_config = self.config.exec_config();
        if let Some(spec) = &checkpoint {
            // run_checkpointed / resume pass a spec the engine config never
            // saw; anchor the spill scratch to the run actually executing.
            exec_config.spill_dir = Some(spec.dir().join("spill"));
        }
        let mut ctx = ExecContext::new(&self.datasets, exec_config, &metrics);
        if let Some(spec) = &checkpoint {
            let manifest = self.manifest_for(&optimized, spec)?;
            let ck = if spec.resume && RunCheckpoint::manifest_exists(spec) {
                RunCheckpoint::resume(spec, &manifest)?
            } else {
                RunCheckpoint::create(spec, &manifest)?
            };
            ctx = ctx.with_checkpoint(ck);
        }
        let out = execute(&ctx, &optimized)?;
        let partitions = out.num_partitions() as u64;
        let table = out.collect()?;
        let run_metrics = metrics.finish(started.elapsed(), table.num_rows() as u64, partitions);
        let trace = metrics.trace().snapshot();
        Ok(RunResult {
            table,
            metrics: run_metrics,
            trace,
            executed_plan: optimized,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::logical::{AggExpr, AggFunc};
    use crate::spill::SPILL_OP_SHUFFLE;
    use crate::trace::{SpillTotals, TraceEventKind};
    use toreador_data::column::Column;
    use toreador_data::generate::{clickstream, clickstream_schema, random_table};
    use toreador_data::schema::{Field, Schema};
    use toreador_data::value::DataType;

    fn engine() -> Engine {
        let mut e = Engine::new(EngineConfig::default().with_threads(2));
        e.register("clicks", clickstream(2_000, 42)).unwrap();
        e
    }

    #[test]
    fn end_to_end_revenue_by_category() {
        let e = engine();
        let flow = e
            .flow("clicks")
            .unwrap()
            .filter(col("action").eq(lit("purchase")))
            .unwrap()
            .aggregate(
                &["category"],
                vec![AggExpr::new(AggFunc::Sum, "price", "revenue")],
            )
            .unwrap()
            .sort(&["revenue"], true)
            .unwrap();
        let r = e.run(&flow).unwrap();
        assert!(r.table.num_rows() > 0);
        assert!(r.metrics.total_elapsed_us > 0);
        assert!(r.metrics.total_shuffle_bytes() > 0);
        // The flight recorder saw the whole run: its derived metrics are the
        // metrics the run reported.
        assert!(!r.trace.events.is_empty());
        assert_eq!(
            r.trace.derive_metrics(
                r.metrics.total_elapsed_us,
                r.metrics.result_rows,
                r.metrics.result_partitions
            ),
            r.metrics
        );
        // Revenue column is descending.
        let rev = r.table.column("revenue").unwrap();
        let vals: Vec<f64> = rev.iter_values().map(|v| v.as_float().unwrap()).collect();
        for w in vals.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn optimized_and_unoptimized_agree() {
        let e = engine();
        let flow = e
            .flow("clicks")
            .unwrap()
            .project(vec![
                ("act", col("action")),
                ("p", col("price")),
                ("c", col("country")),
            ])
            .unwrap()
            .filter(col("act").eq(lit("cart")).and(lit(true)))
            .unwrap()
            .filter(col("p").gt(lit(10.0)))
            .unwrap()
            .sort(&["p"], false)
            .unwrap();
        let mut no_opt = Engine::new(
            EngineConfig::default()
                .with_threads(2)
                .with_optimizer(OptimizerConfig::disabled()),
        );
        no_opt.register("clicks", clickstream(2_000, 42)).unwrap();
        let a = e.run(&flow).unwrap();
        let b = no_opt.run(&flow).unwrap();
        assert_eq!(a.table, b.table);
        // The optimised plan actually differs.
        assert_ne!(&a.executed_plan, flow.plan());
        assert_eq!(&b.executed_plan, flow.plan());
    }

    /// `c0` Int, `c1` Float, `c2` Str, `c3` Bool, about 5 % NULLs each.
    fn fuzz_engine(optimizer: OptimizerConfig) -> (Engine, Table) {
        let t = random_table(100, 4, 7);
        let mut e = Engine::new(EngineConfig::default().with_optimizer(optimizer));
        e.register("t", t.clone()).unwrap();
        (e, t)
    }

    #[test]
    fn or_true_drops_null_rows_with_and_without_optimizer() {
        // `NULL OR true` is NULL, and a filter drops NULL rows.
        for optimizer in [OptimizerConfig::default(), OptimizerConfig::disabled()] {
            let (engine, t) = fuzz_engine(optimizer);
            let flow = engine.flow("t").unwrap().filter(col("c3").or(lit(true)));
            let kept = engine.run(&flow.unwrap()).unwrap().table;
            let nulls = t.column("c3").unwrap().validity().null_count();
            assert!(nulls > 0 && kept.num_rows() == t.num_rows() - nulls);
        }
    }

    #[test]
    fn flow_unknown_dataset_fails_fast() {
        let e = engine();
        assert!(e.flow("nope").is_err());
        let other = Dataflow::scan("ghost", clickstream_schema());
        assert!(matches!(e.run(&other), Err(FlowError::UnknownDataset(_))));
    }

    #[test]
    fn registry_reports_names_schema_rows() {
        let e = engine();
        assert_eq!(e.dataset_names(), vec!["clicks"]);
        assert_eq!(e.dataset_rows("clicks").unwrap(), 2_000);
        assert!(e.dataset_schema("clicks").unwrap().contains("price"));
    }

    #[test]
    fn faulty_engine_still_completes_with_retries() {
        use crate::fault::ChaosPlan;
        use crate::resilience::RetryPolicy;

        let mut e = Engine::new(
            EngineConfig::default().with_threads(4).with_resilience(
                ResilienceConfig::none()
                    .with_retry(RetryPolicy::immediate(10))
                    .with_chaos(ChaosPlan::crashes(0.3, 5)),
            ),
        );
        e.register("clicks", clickstream(1_000, 1)).unwrap();
        let flow = e
            .flow("clicks")
            .unwrap()
            .aggregate(
                &["country"],
                vec![AggExpr::new(AggFunc::Count, "event_id", "n")],
            )
            .unwrap();
        let r = e.run(&flow).unwrap();
        assert!(r.metrics.task_retries > 0);
        let total: i64 = r
            .table
            .column("n")
            .unwrap()
            .iter_values()
            .map(|v| v.as_int().unwrap())
            .sum();
        assert_eq!(total, 1_000);
    }

    #[test]
    fn chaotic_engine_matches_fault_free_results() {
        use crate::fault::ChaosPlan;
        use crate::resilience::RetryPolicy;

        let flow_of = |e: &Engine| {
            e.flow("clicks")
                .unwrap()
                .aggregate(
                    &["country"],
                    vec![AggExpr::new(AggFunc::Count, "event_id", "n")],
                )
                .unwrap()
                .sort(&["country"], false)
                .unwrap()
        };
        let mut calm = Engine::new(EngineConfig::default().with_threads(4));
        calm.register("clicks", clickstream(1_000, 3)).unwrap();
        let baseline = calm.run(&flow_of(&calm)).unwrap();

        let chaos = ChaosPlan::crashes(0.3, 5)
            .with_panic_rate(0.05)
            .with_delays(0.1, 300);
        let mut wild = Engine::new(
            EngineConfig::default().with_threads(4).with_resilience(
                ResilienceConfig::none()
                    .with_retry(RetryPolicy::immediate(12))
                    .with_chaos(chaos),
            ),
        );
        wild.register("clicks", clickstream(1_000, 3)).unwrap();
        let r = wild.run(&flow_of(&wild)).unwrap();
        assert_eq!(r.table, baseline.table, "chaos must not change results");
        assert!(
            r.trace.counters().count("dataflow.retries") > 0,
            "the chaos plan must have bitten"
        );
    }

    #[test]
    fn budgeted_runs_spill_and_match_in_memory_byte_for_byte() {
        let flow_of = |e: &Engine| {
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
        };
        // High-cardinality group key: the aggregation shuffles one partial
        // per input row, so a small budget makes the shuffle's staging
        // spill.
        let mut calm = Engine::new(EngineConfig::default().with_threads(2));
        calm.register("clicks", clickstream(4_000, 7)).unwrap();
        let baseline = calm.run(&flow_of(&calm)).unwrap();
        assert_eq!(baseline.trace.spill_totals(), SpillTotals::default());

        let mut tight = Engine::new(
            EngineConfig::default()
                .with_threads(2)
                .with_memory_budget(16 << 10),
        );
        tight.register("clicks", clickstream(4_000, 7)).unwrap();
        let spilled = tight.run(&flow_of(&tight)).unwrap();
        assert_eq!(
            spilled.table, baseline.table,
            "spilling must not change results"
        );
        let totals = spilled.trace.spill_totals();
        assert!(totals.spills > 0, "budget must have bitten: {totals:?}");
        assert!(totals.merges > 0, "{totals:?}");
        // The shuffle is the one spill point, and it stages each row once,
        // so no row is written to disk twice.
        assert!(totals.spilled_rows <= 4_000, "{totals:?}");
        for e in &spilled.trace.events {
            if let TraceEventKind::SpillStarted { op, .. } = &e.kind {
                assert_eq!(op, SPILL_OP_SHUFFLE, "{:?}", e.kind);
            }
        }
        // A huge budget never spills and takes the identical path.
        let mut roomy = Engine::new(
            EngineConfig::default()
                .with_threads(2)
                .with_memory_budget(1 << 30),
        );
        roomy.register("clicks", clickstream(4_000, 7)).unwrap();
        let r = roomy.run(&flow_of(&roomy)).unwrap();
        assert_eq!(r.table, baseline.table);
        assert_eq!(r.trace.spill_totals(), SpillTotals::default());
    }

    #[test]
    fn run_results_are_deterministic() {
        let e = engine();
        let flow = e
            .flow("clicks")
            .unwrap()
            .aggregate(
                &["category"],
                vec![
                    AggExpr::new(AggFunc::Count, "event_id", "n"),
                    AggExpr::new(AggFunc::Mean, "price", "avg_price"),
                ],
            )
            .unwrap()
            .sort(&["category"], false)
            .unwrap();
        let a = e.run(&flow).unwrap();
        let b = e.run(&flow).unwrap();
        assert_eq!(a.table, b.table);
    }

    #[test]
    fn register_and_scan_share_the_input_buffers() {
        let input = clickstream(10_000, 3);
        let mut e = Engine::new(EngineConfig::default().with_threads(2).with_partitions(4));
        e.register("clicks", input.clone()).unwrap();
        let metrics = MetricsCollector::new();
        let ctx = ExecContext::new(&e.datasets, e.config.exec_config(), &metrics);
        let scanned = execute(&ctx, e.flow("clicks").unwrap().plan()).unwrap();
        assert_eq!(scanned.num_partitions(), 4);
        assert_eq!(scanned.total_rows(), input.num_rows());
        for part in scanned.parts() {
            for (c, src) in part.columns().iter().zip(input.columns()) {
                assert!(c.shares_storage(src));
            }
        }
    }

    #[test]
    fn limit_and_top_k_results_do_not_pin_their_input() {
        let n = 1_000_000;
        let input = Table::new(
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("s", DataType::Str),
            ])
            .unwrap(),
            vec![
                Column::from_ints((0..n as i64).map(|i| (i * 7919) % 1_000_003).collect()),
                Column::from_strs(
                    (0..n)
                        .map(|i| if i % 2 == 0 { "even" } else { "odd" })
                        .collect(),
                ),
            ],
        )
        .unwrap();
        let mut e = Engine::new(EngineConfig::default().with_threads(2).with_partitions(4));
        e.register("t", input.clone()).unwrap();
        let limited = e.run(&e.flow("t").unwrap().limit(10)).unwrap().table;
        let top = e
            .run(&e.flow("t").unwrap().sort(&["k"], true).unwrap().limit(10))
            .unwrap()
            .table;
        for out in [&limited, &top] {
            assert_eq!(out.num_rows(), 10);
            for (c, src) in out.columns().iter().zip(input.columns()) {
                assert!(!c.shares_storage(src));
            }
        }
        assert_eq!(limited.value(0, "k").unwrap(), input.value(0, "k").unwrap());
        assert_eq!(top.value(0, "k").unwrap().as_int().unwrap(), 1_000_002);
    }
}

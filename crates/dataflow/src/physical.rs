//! Physical execution of logical plans.
//!
//! The execution model mirrors Spark's: a plan is cut into **stages** at
//! shuffle boundaries; within a stage, a chain of narrow operators (filter,
//! project, sample) compiles once into a list of bound steps and runs as one
//! per-partition pass; wide operators (aggregate, join, sort, distinct)
//! first move rows through [`crate::shuffle`] and then run per-partition
//! tasks on the redistributed data.
//!
//! Every wave runs on the stage coordinator ([`crate::scheduler`]). What
//! a task is derives from the plan, not from a setting: a narrow chain of
//! two or more operators and an aggregation's map side run as row-range
//! morsel units ([`crate::morsel`]); a lone narrow operator and every wide
//! operator's reduce side run one task per partition.
//!
//! An aggregation combines per partition, shuffles the small partial
//! states and merges them (Spark's map-side combine). One with a
//! `CountDistinct` cannot be combined early, so it shuffles its raw rows
//! and aggregates once.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use toreador_data::column::Column;
use toreador_data::partition::{PartitionedTable, Partitioning};
use toreador_data::schema::{Field, Schema};
use toreador_data::table::Table;

use crate::checkpoint::RunCheckpoint;
use crate::error::{FlowError, Result};
use crate::fault::KillMode;
use crate::group::{self, partial_schema, PartialAgg};
use crate::logical::{AggExpr, AggFunc, JoinType, LogicalPlan};
use crate::metrics::MetricsCollector;
use crate::morsel::{self, PipelineBody, WaveOrder};
use crate::pager::{SpillHandle, SpillManager, SPILL_OP_AGGREGATE};
use crate::resilience::RunControl;
use crate::scheduler::{run_stage_controlled, SchedulerConfig};
use crate::shuffle::{estimate_row_bytes, shuffle_traced_spillable, ShuffleOutput};
use crate::trace::TraceEventKind;
use crate::vexpr::BoundExpr;

/// Execution-time configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    pub scheduler: SchedulerConfig,
    /// Target partition count for scans and shuffles.
    pub partitions: usize,
    /// Target morsel size in rows: the unit of morsel waves
    /// ([`crate::morsel`]) and of the scheduler's size rule.
    pub morsel_rows: usize,
    /// External run control adopted by the execution context (None = the
    /// context mints a private one). See
    /// [`crate::session::EngineConfig::with_control`].
    pub control: Option<RunControl>,
    /// Out-of-core memory budget, bytes. When set, the columnar shuffle
    /// bounds its staging buffers and the partial-aggregation map output is
    /// bounded before its shuffle: over-budget runs spill to paged files
    /// ([`crate::pager`]) and merge back on read, output-identical to the
    /// in-memory path. `None` (the default) leaves every operator fully
    /// in-memory — that path is untouched by the budget machinery.
    pub memory_budget_bytes: Option<u64>,
    /// Where spill runs page to. `None` = a process-unique directory under
    /// the system temp dir; sessions with checkpointing set
    /// `<checkpoint-dir>/spill` so chaos sweeps cover both.
    pub spill_dir: Option<PathBuf>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            scheduler: SchedulerConfig::default(),
            partitions: 4,
            morsel_rows: 4096,
            control: None,
            memory_budget_bytes: None,
            spill_dir: None,
        }
    }
}

/// Everything an execution needs: datasets, config, metrics, stage counter,
/// and the run-wide cancellation/retry-budget control shared by all stages.
pub struct ExecContext<'a> {
    pub datasets: &'a HashMap<String, PartitionedTable>,
    pub config: ExecConfig,
    pub metrics: &'a MetricsCollector,
    stage: AtomicUsize,
    /// Dense index of shuffle waves (`run_stage` calls). Plan orchestration
    /// is single-threaded recursion, so for a fixed plan and config the
    /// wave order is deterministic — which is what lets checkpoints key on
    /// it across process restarts.
    wave: AtomicUsize,
    checkpoint: Option<RunCheckpoint>,
    control: RunControl,
    /// Present iff `config.memory_budget_bytes` is set: the run's spill
    /// directory and page files. Dropped with the context,
    /// which removes the spill directory.
    spill: Option<SpillManager>,
}

/// Distinguishes concurrent unbudgeted-dir runs in one process.
static SPILL_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

impl<'a> ExecContext<'a> {
    pub fn new(
        datasets: &'a HashMap<String, PartitionedTable>,
        config: ExecConfig,
        metrics: &'a MetricsCollector,
    ) -> Self {
        let control = config.control.clone().unwrap_or_default();
        let spill = config.memory_budget_bytes.map(|budget| {
            let dir = config.spill_dir.clone().unwrap_or_else(|| {
                std::env::temp_dir().join(format!(
                    "toreador-spill-{}-{}",
                    std::process::id(),
                    SPILL_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
                ))
            });
            SpillManager::new(budget, dir)
        });
        ExecContext {
            datasets,
            config,
            metrics,
            stage: AtomicUsize::new(0),
            wave: AtomicUsize::new(0),
            checkpoint: None,
            control,
            spill,
        }
    }

    /// The run's spill manager, present when a memory budget is set.
    pub fn spill(&self) -> Option<&SpillManager> {
        self.spill.as_ref()
    }

    /// Shuffle owned partitions, each dropped once it is scattered;
    /// over-budget staging spills when a memory budget is set.
    fn shuffle(
        &self,
        inputs: Vec<Table>,
        schema: &Schema,
        keys: &[String],
        targets: usize,
    ) -> Result<ShuffleOutput> {
        let sources = inputs.len();
        shuffle_traced_spillable(
            inputs.into_iter().map(Ok),
            sources,
            schema,
            keys,
            targets,
            self.metrics.trace(),
            self.spill.as_ref(),
        )
    }

    /// Shuffle the partial-aggregation map output. Under a memory budget
    /// the map output itself is bounded first: the largest partial tables
    /// spill to paged runs (`SpillStarted`, op `aggregate`) until what
    /// stays resident fits the budget, and the shuffle then consumes
    /// in-memory partials and read-back runs (`SpillMerged`) in the
    /// original partition order — so the row stream entering the shuffle,
    /// and therefore every downstream fold, is identical to the in-memory
    /// run's.
    fn shuffle_partials(
        &self,
        partials: Vec<Table>,
        schema: &Schema,
        keys: &[String],
        targets: usize,
    ) -> Result<ShuffleOutput> {
        let Some(manager) = self.spill.as_ref() else {
            return self.shuffle(partials, schema, keys, targets);
        };
        let journal = self.metrics.trace();
        let budget = manager.budget_bytes() as usize;
        let row_bytes = estimate_row_bytes(&partials);
        let sizes: Vec<usize> = partials
            .iter()
            .map(|t| t.num_rows().saturating_mul(row_bytes))
            .collect();
        let mut resident: usize = sizes.iter().sum();
        enum MapRun {
            Mem(Table),
            Spilled(SpillHandle),
            Draining,
        }
        let mut slots: Vec<MapRun> = partials.into_iter().map(MapRun::Mem).collect();
        while resident > budget {
            // Largest resident partial first; ties break on the lowest
            // partition index, so the spill set is deterministic.
            let Some((i, sz)) = slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| match s {
                    MapRun::Mem(t) if t.num_rows() > 0 => Some((i, sizes[i])),
                    _ => None,
                })
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            else {
                break;
            };
            let MapRun::Mem(t) = std::mem::replace(&mut slots[i], MapRun::Draining) else {
                unreachable!("selected slot is resident");
            };
            let handle = manager.spill_table(&t)?;
            journal.record(TraceEventKind::SpillStarted {
                op: SPILL_OP_AGGREGATE.to_owned(),
                target: i,
                rows: t.num_rows() as u64,
                bytes: handle.bytes(),
            });
            slots[i] = MapRun::Spilled(handle);
            resident -= sz;
        }
        let sources = slots.len();
        shuffle_traced_spillable(
            slots.into_iter().enumerate().map(|(i, slot)| match slot {
                MapRun::Mem(t) => Ok(t),
                MapRun::Spilled(handle) => {
                    let t = manager.read_back(&handle)?;
                    journal.record(TraceEventKind::SpillMerged {
                        op: SPILL_OP_AGGREGATE.to_owned(),
                        target: i,
                        runs: 1,
                        rows: t.num_rows() as u64,
                        bytes: handle.bytes(),
                    });
                    manager.release(handle);
                    Ok(t)
                }
                MapRun::Draining => unreachable!("transient state never escapes the spill loop"),
            }),
            sources,
            schema,
            keys,
            targets,
            journal,
            Some(manager),
        )
    }

    /// Attach a run checkpoint: every completed wave is persisted, and
    /// restored waves are served instead of recomputed.
    pub fn with_checkpoint(mut self, checkpoint: RunCheckpoint) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// The run-wide control: one retry budget and one cancellation flag
    /// spanning every stage of this execution.
    pub fn control(&self) -> &RunControl {
        &self.control
    }

    fn current_stage(&self) -> usize {
        self.stage.load(Ordering::Relaxed)
    }

    fn next_stage(&self) -> usize {
        self.stage.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Number one wave and run it under the run's checkpoint, whichever
    /// driver executes it: a restored wave is served instead of running
    /// `run`; a computed one is persisted, then any boundary kill point
    /// fires. `partitions` is the wave's output count — one table per task
    /// or input partition — which a restored wave is validated against.
    fn checkpointed_wave<R>(&self, stage: usize, partitions: usize, run: R) -> Result<Vec<Table>>
    where
        R: FnOnce() -> Result<Vec<Table>>,
    {
        let wave = self.wave.fetch_add(1, Ordering::Relaxed);
        if let Some(ck) = &self.checkpoint {
            if let Some(restored) = ck.take_restored(wave) {
                if restored.stage != stage || restored.tables.len() != partitions {
                    return Err(FlowError::Checkpoint(format!(
                        "restored wave {wave} does not match the plan: checkpointed \
                         stage {} with {} partitions, expected stage {stage} with {partitions}",
                        restored.stage,
                        restored.tables.len(),
                    )));
                }
                self.metrics.trace().record(TraceEventKind::StageRestored {
                    stage,
                    wave,
                    partitions: restored.tables.len(),
                    rows: restored.rows,
                });
                return Ok(restored.tables);
            }
        }
        let out = run()?;
        if let Some(ck) = &self.checkpoint {
            let bytes = ck.persist_wave(stage, wave, &out)?;
            self.metrics
                .trace()
                .record(TraceEventKind::StageCheckpointed {
                    stage,
                    wave,
                    partitions: out.len(),
                    bytes,
                });
            // Boundary kill points fire only on checkpointed runs, and only
            // *after* the wave is durable — restored waves return above, so
            // a kill-free resume sails past every fired kill point.
            if let Some(mode) = self
                .config
                .scheduler
                .resilience
                .chaos
                .kill_at_boundary(wave)
            {
                match mode {
                    KillMode::Exit { code } => std::process::exit(code),
                    KillMode::Halt => return Err(FlowError::KilledAtBoundary { stage, wave }),
                }
            }
        }
        Ok(out)
    }

    /// Run one wave of whole-partition tasks. `input_rows` is the total the
    /// tasks read: the scheduler keeps a wave of at most one morsel on this
    /// thread.
    fn run_stage<F>(&self, stage: usize, input_rows: usize, tasks: Vec<F>) -> Result<Vec<Table>>
    where
        F: Fn() -> Result<Table> + Send + Sync,
    {
        self.checkpointed_wave(stage, tasks.len(), || {
            run_stage_controlled(
                &self.config.scheduler,
                self.metrics,
                &self.control,
                stage,
                tasks,
                input_rows,
                self.config.morsel_rows,
            )
        })
    }

    /// Run one morsel wave over `parts`: one output table per partition.
    fn run_morsels<B: PipelineBody>(
        &self,
        stage: usize,
        parts: &[Table],
        order: WaveOrder,
        body: &B,
    ) -> Result<Vec<Table>> {
        self.checkpointed_wave(stage, parts.len(), || {
            morsel::run_wave(
                &self.config.scheduler,
                self.metrics,
                &self.control,
                stage,
                parts,
                order,
                self.config.morsel_rows,
                body,
            )
        })
    }
}

/// A wave's input size as the scheduler's size rule reads it.
fn total_rows(parts: &[Table]) -> usize {
    parts.iter().map(Table::num_rows).sum()
}

/// Execute a logical plan to a partitioned result.
pub fn execute(ctx: &ExecContext<'_>, plan: &LogicalPlan) -> Result<PartitionedTable> {
    let started = Instant::now();
    let out = match plan {
        LogicalPlan::Scan { dataset, schema } => exec_scan(ctx, dataset, schema),
        // Recursion enters every plan node through here, so the topmost
        // node of each narrow chain compiles and consumes the whole chain.
        LogicalPlan::Filter { .. } | LogicalPlan::Project { .. } | LogicalPlan::Sample { .. } => {
            exec_narrow_chain(ctx, plan)
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            schema,
        } => {
            let child = execute(ctx, input)?;
            exec_aggregate(ctx, child, group_by, aggs, schema, &plan.describe())
        }
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
            schema,
        } => {
            let l = execute(ctx, left)?;
            let r = execute(ctx, right)?;
            exec_join(
                ctx,
                l,
                r,
                left_keys,
                right_keys,
                *join_type,
                schema,
                &plan.describe(),
            )
        }
        LogicalPlan::Sort {
            input,
            keys,
            descending,
        } => {
            let child = execute(ctx, input)?;
            exec_sort(ctx, child, keys, *descending, &plan.describe())
        }
        LogicalPlan::Limit { input, n } => {
            // Limit-over-Sort fuses into a top-k: each partition sorts and
            // truncates locally, then only n rows per partition cross the
            // merge — instead of gathering the whole dataset to one
            // partition first. Same results, far less data movement.
            if let LogicalPlan::Sort {
                input: sort_in,
                keys,
                descending,
            } = input.as_ref()
            {
                let child = execute(ctx, sort_in)?;
                return exec_top_k(ctx, child, keys, *descending, *n, &plan.describe());
            }
            let child = execute(ctx, input)?;
            exec_limit(ctx, child, *n, &plan.describe())
        }
        LogicalPlan::Union { inputs } => {
            let mut parts = Vec::new();
            for i in inputs {
                parts.extend(execute(ctx, i)?.into_parts());
            }
            let rows: u64 = parts.iter().map(|t| t.num_rows() as u64).sum();
            ctx.metrics.record_node(
                plan.describe(),
                ctx.current_stage(),
                rows,
                started.elapsed(),
                0,
            );
            return PartitionedTable::new(parts, Partitioning::Arbitrary).map_err(FlowError::Data);
        }
        LogicalPlan::Distinct { input } => {
            let child = execute(ctx, input)?;
            exec_distinct(ctx, child, &plan.describe())
        }
    }?;
    // Scan/narrow/wide helpers record their own metrics; Union recorded above.
    Ok(out)
}

fn exec_scan(ctx: &ExecContext<'_>, dataset: &str, schema: &Schema) -> Result<PartitionedTable> {
    let started = Instant::now();
    let found = ctx
        .datasets
        .get(dataset)
        .ok_or_else(|| FlowError::UnknownDataset(dataset.to_owned()))?;
    found
        .schema()
        .ensure_same(schema)
        .map_err(FlowError::Data)?;
    // Partitions are views sharing the registered buffers, so both arms
    // cost O(columns): a single-partition dataset is re-split to the
    // configured parallelism, anything else is handed over as registered.
    let out = match found.parts() {
        [only] if ctx.config.partitions > 1 => {
            PartitionedTable::split(only.clone(), ctx.config.partitions)?
        }
        _ => found.clone(),
    };
    ctx.metrics.record_node(
        format!("Scan {dataset}"),
        ctx.current_stage(),
        out.total_rows() as u64,
        started.elapsed(),
        0,
    );
    Ok(out)
}

// ------------------------------------------------------------ narrow chains

/// Walk consecutive narrow operators (Filter/Project/Sample) down from
/// `plan`. Returns the chain outermost-first plus the first non-narrow node
/// below it.
fn narrow_chain(plan: &LogicalPlan) -> (Vec<&LogicalPlan>, &LogicalPlan) {
    let mut chain = Vec::new();
    let mut cur = plan;
    while let LogicalPlan::Filter { input, .. }
    | LogicalPlan::Project { input, .. }
    | LogicalPlan::Sample { input, .. } = cur
    {
        chain.push(cur);
        cur = input;
    }
    (chain, cur)
}

/// One compiled step of a narrow chain.
enum FusedStep {
    Filter(BoundExpr),
    Project(Vec<BoundExpr>, Schema),
    Sample { fraction: f64, seed: u64 },
}

/// Execute the chain of narrow operators topped by `plan` as one
/// per-partition pass: expressions bind once here (names resolved, types
/// inferred, kernels selected), filters and samples compose an absolute
/// selection vector, projections materialize new columns under the
/// selection — no intermediate `Table` exists between the operators.
/// Narrow operators share the current stage (no shuffle boundary), and
/// each logical node records its own `OperatorFinished`, with its elapsed
/// time the summed per-partition busy time of its step.
///
/// A chain of two or more steps runs on morsels; a lone operator stays one
/// task per partition, where its output is one table per partition instead
/// of per-morsel chunks plus their concatenation — the same result with
/// about half the filtered output in flight.
fn exec_narrow_chain(ctx: &ExecContext<'_>, plan: &LogicalPlan) -> Result<PartitionedTable> {
    let (chain, below) = narrow_chain(plan);
    let child = execute(ctx, below)?;
    let stage = ctx.current_stage();
    // Bind bottom-up, tracking the evolving schema across projections.
    let mut schema = child.schema().clone();
    let mut steps: Vec<(FusedStep, String)> = Vec::with_capacity(chain.len());
    for node in chain.iter().rev() {
        match node {
            LogicalPlan::Filter { predicate, .. } => {
                let b = BoundExpr::bind(predicate, &schema)?;
                steps.push((FusedStep::Filter(b), node.describe()));
            }
            LogicalPlan::Project {
                exprs, schema: out, ..
            } => {
                let bound = exprs
                    .iter()
                    .map(|(_, e)| BoundExpr::bind(e, &schema))
                    .collect::<Result<Vec<_>>>()?;
                schema = (*out).clone();
                steps.push((FusedStep::Project(bound, schema.clone()), node.describe()));
            }
            LogicalPlan::Sample { fraction, seed, .. } => {
                steps.push((
                    FusedStep::Sample {
                        fraction: *fraction,
                        seed: *seed,
                    },
                    node.describe(),
                ));
            }
            _ => unreachable!("narrow_chain only collects narrow nodes"),
        }
    }
    // Per-step (rows_out, busy) accumulated across partition tasks.
    let stats: Vec<Mutex<(u64, Duration)>> = steps
        .iter()
        .map(|_| Mutex::new((0, Duration::ZERO)))
        .collect();
    let parts = child.into_parts();
    let steps_ref = &steps;
    let stats_ref = &stats;
    let fused = steps.len() >= 2;
    let outputs = if fused {
        // Pure filter/project chains are elementwise, so any worker may run
        // any morsel; a sampling step carries RNG draw order, so those
        // chains run one unit per partition.
        let order = if steps
            .iter()
            .any(|(s, _)| matches!(s, FusedStep::Sample { .. }))
        {
            WaveOrder::Serial
        } else {
            WaveOrder::Independent
        };
        let body = FusedChainBody {
            steps: steps_ref,
            stats: stats_ref,
            out_schema: schema,
        };
        ctx.run_morsels(stage, &parts, order, &body)?
    } else {
        let tasks: Vec<_> = parts
            .iter()
            .enumerate()
            .map(|(idx, t)| move || run_fused_partition(t, idx, steps_ref, stats_ref))
            .collect();
        ctx.run_stage(stage, total_rows(&parts), tasks)?
    };
    let batches = outputs.len() as u64;
    let out_rows: u64 = outputs.iter().map(|t| t.num_rows() as u64).sum();
    // Record per-node metrics in execution (innermost-first) order. A wave
    // restored from a checkpoint ran no step, but its output still counts
    // the last step's rows.
    for (i, ((_, desc), stat)) in steps.iter().zip(&stats).enumerate() {
        let (rows, busy) = *stat.lock();
        let rows = if i + 1 == steps.len() { out_rows } else { rows };
        ctx.metrics.record_node(desc.clone(), stage, rows, busy, 0);
        ctx.metrics.trace().record(TraceEventKind::OperatorBatches {
            operator: desc.clone(),
            stage,
            batches,
            fused,
        });
    }
    if fused {
        ctx.metrics
            .trace()
            .record(TraceEventKind::NarrowChainFused {
                stage,
                operators: steps.iter().map(|(_, d)| d.clone()).collect(),
            });
    }
    PartitionedTable::new(outputs, Partitioning::Arbitrary).map_err(FlowError::Data)
}

/// One freshly-seeded RNG per sampling step of the chain, in step order.
/// The seed mixes the partition index, so each partition draws an
/// independent, reproducible stream, and each step's RNG is independent —
/// so chunked execution draws each step's sequence in ascending row order
/// no matter how morsels interleave steps.
fn sample_rngs(steps: &[(FusedStep, String)], idx: usize) -> Vec<StdRng> {
    steps
        .iter()
        .filter_map(|(s, _)| match s {
            FusedStep::Sample { seed, .. } => Some(StdRng::seed_from_u64(
                seed ^ (idx as u64).wrapping_mul(0x9e37),
            )),
            _ => None,
        })
        .collect()
}

/// Run every step of a fused chain over one partition.
fn run_fused_partition(
    t: &Table,
    idx: usize,
    steps: &[(FusedStep, String)],
    stats: &[Mutex<(u64, Duration)>],
) -> Result<Table> {
    let mut rngs = sample_rngs(steps, idx);
    run_fused_range(t, steps, stats, &mut rngs, 0, t.num_rows())
}

/// Run every step of a fused chain over rows `lo..hi` of one partition.
/// State is the current column set plus an optional selection of surviving
/// row indices; filters and samples narrow the selection, projections
/// materialize it away. A partial range starts from an explicit selection
/// of the range's rows, so chunked outputs concatenate to exactly the
/// whole-partition result. Sampling draws from `rngs` (one per sampling
/// step, shared across a partition's chunks in row order).
fn run_fused_range(
    t: &Table,
    steps: &[(FusedStep, String)],
    stats: &[Mutex<(u64, Duration)>],
    rngs: &mut [StdRng],
    lo: usize,
    hi: usize,
) -> Result<Table> {
    let n = t.num_rows();
    // (columns, schema, rows) after the last projection, if any; before
    // that the input table's columns are borrowed untouched.
    let mut owned: Option<(Vec<Column>, Schema, usize)> = None;
    let mut sel: Option<Vec<u32>> = if lo == 0 && hi == n {
        None
    } else {
        Some((lo as u32..hi as u32).collect())
    };
    let mut rng_i = 0usize;
    for ((step, _), stat) in steps.iter().zip(stats) {
        let t0 = Instant::now();
        let (cols, rows_total): (&[Column], usize) = match &owned {
            Some((c, _, r)) => (c.as_slice(), *r),
            None => (t.columns(), n),
        };
        match step {
            FusedStep::Filter(b) => {
                sel = Some(b.selection_cols(cols, rows_total, sel.as_deref())?);
            }
            FusedStep::Project(bound, out_schema) => {
                let m = sel.as_ref().map_or(rows_total, |s| s.len());
                let mut new_cols = Vec::with_capacity(bound.len());
                for b in bound {
                    let col = b
                        .eval_cols(cols, rows_total, sel.as_deref())?
                        .into_column(b.output_type(), m)?;
                    new_cols.push(col);
                }
                owned = Some((new_cols, out_schema.clone(), m));
                sel = None;
            }
            FusedStep::Sample { fraction, .. } => {
                // One draw per surviving row in order, whatever the
                // chunking, so every driver keeps exactly the same rows.
                let rng = &mut rngs[rng_i];
                rng_i += 1;
                let kept: Vec<u32> = match &sel {
                    Some(s) => s
                        .iter()
                        .copied()
                        .filter(|_| rng.gen_bool(*fraction))
                        .collect(),
                    None => (0..rows_total as u32)
                        .filter(|_| rng.gen_bool(*fraction))
                        .collect(),
                };
                sel = Some(kept);
            }
        }
        let rows_now = match (&sel, &owned) {
            (Some(s), _) => s.len(),
            (None, Some((_, _, r))) => *r,
            (None, None) => n,
        } as u64;
        let mut g = stat.lock();
        g.0 += rows_now;
        g.1 += t0.elapsed();
    }
    match (owned, sel) {
        (Some((cols, schema, _)), None) => Table::new(schema, cols).map_err(FlowError::Data),
        (Some((cols, schema, _)), Some(s)) => Table::new(schema, cols)
            .map_err(FlowError::Data)?
            .take_sel(&s)
            .map_err(FlowError::Data),
        (None, Some(s)) => t.take_sel(&s).map_err(FlowError::Data),
        // Every step sets a selection or owns columns, but fall through
        // safely for completeness.
        (None, None) => Ok(t.clone()),
    }
}

/// [`PipelineBody`] of a narrow chain: each morsel runs the whole
/// chain over its row range, chunk outputs concatenate per partition.
struct FusedChainBody<'a> {
    steps: &'a [(FusedStep, String)],
    stats: &'a [Mutex<(u64, Duration)>],
    out_schema: Schema,
}

impl PipelineBody for FusedChainBody<'_> {
    /// Per-sampling-step RNGs plus the partition's output chunks so far.
    type State = (Vec<StdRng>, Vec<Table>);

    fn init(&self, partition: usize, _part: &Table) -> Result<Self::State> {
        Ok((sample_rngs(self.steps, partition), Vec::new()))
    }

    fn process(
        &self,
        state: &mut Self::State,
        part: &Table,
        _partition: usize,
        lo: usize,
        hi: usize,
    ) -> Result<()> {
        let chunk = run_fused_range(part, self.steps, self.stats, &mut state.0, lo, hi)?;
        state.1.push(chunk);
        Ok(())
    }

    fn finish(&self, state: Self::State, _part: &Table, _partition: usize) -> Result<Table> {
        let (_, chunks) = state;
        match chunks.len() {
            0 => Ok(Table::empty(self.out_schema.clone())),
            1 => Ok(chunks.into_iter().next().expect("one chunk")),
            _ => Table::concat(&chunks).map_err(FlowError::Data),
        }
    }
}

// ------------------------------------------------------------- aggregation

/// [`PipelineBody`] of the partial-aggregation map side: one accumulator
/// state per partition, folded in place one morsel's row range at a time
/// in ascending row order (serial waves), which preserves the float
/// accumulation order of whole-partition combine.
struct PartialAggBody<'a> {
    group_by: &'a [String],
    aggs: &'a [AggExpr],
    p_schema: &'a Schema,
}

impl PipelineBody for PartialAggBody<'_> {
    type State = PartialAgg;

    fn init(&self, _partition: usize, part: &Table) -> Result<Self::State> {
        PartialAgg::new(part.schema(), self.group_by, self.aggs)
    }

    fn process(
        &self,
        state: &mut Self::State,
        part: &Table,
        _partition: usize,
        lo: usize,
        hi: usize,
    ) -> Result<()> {
        state.fold(part, lo, hi)
    }

    fn finish(&self, state: Self::State, part: &Table, _partition: usize) -> Result<Table> {
        state.finish(part, self.p_schema)
    }
}

fn exec_aggregate(
    ctx: &ExecContext<'_>,
    input: PartitionedTable,
    group_by: &[String],
    aggs: &[AggExpr],
    out_schema: &Schema,
    desc: &str,
) -> Result<PartitionedTable> {
    let started = Instant::now();
    let targets = if group_by.is_empty() {
        1
    } else {
        ctx.config.partitions.max(1)
    };
    let use_partial = !aggs.iter().any(|a| a.func == AggFunc::CountDistinct);

    let (shuffled, bytes) = if use_partial {
        let group_fields: Vec<Field> = group_by
            .iter()
            .map(|g| input.schema().field(g).cloned().map_err(FlowError::Data))
            .collect::<Result<Vec<_>>>()?;
        let p_schema = partial_schema(group_fields, aggs, input.schema())?;
        let map_stage = ctx.current_stage();
        let parts = input.into_parts();
        // The map side is non-breaking per-partition work: a serial morsel
        // wave folds each partition in row order, which preserves the
        // accumulation order of a whole-partition combine.
        let body = PartialAggBody {
            group_by,
            aggs,
            p_schema: &p_schema,
        };
        let partials = ctx.run_morsels(map_stage, &parts, WaveOrder::Serial, &body)?;
        let out = ctx.shuffle_partials(partials, &p_schema, group_by, targets)?;
        (out.partitions, out.bytes_moved)
    } else {
        let schema = input.schema().clone();
        let out = ctx.shuffle(input.into_parts(), &schema, group_by, targets)?;
        (out.partitions, out.bytes_moved)
    };
    let reduce_stage = ctx.next_stage();
    let tasks: Vec<_> = shuffled
        .iter()
        .map(|t| {
            move || {
                if use_partial {
                    group::merge_partials(t, group_by, aggs, out_schema)
                } else {
                    group::aggregate(t, group_by, aggs, out_schema)
                }
            }
        })
        .collect();
    let mut outputs = ctx.run_stage(reduce_stage, total_rows(&shuffled), tasks)?;
    // Empty-group global aggregate: shuffle produced `targets` partitions,
    // each merge of an empty partition yields the one-row identity — keep
    // only partition 0's row in that case.
    if group_by.is_empty() && outputs.len() > 1 {
        outputs.truncate(1);
    }
    let rows: u64 = outputs.iter().map(|t| t.num_rows() as u64).sum();
    ctx.metrics
        .record_node(desc, reduce_stage, rows, started.elapsed(), bytes);
    PartitionedTable::new(
        outputs,
        Partitioning::Hash {
            columns: group_by.to_vec(),
            partitions: targets,
        },
    )
    .map_err(FlowError::Data)
}

// ------------------------------------------------------------------- join

#[allow(clippy::too_many_arguments)] // mirrors the Join plan node's fields
fn exec_join(
    ctx: &ExecContext<'_>,
    left: PartitionedTable,
    right: PartitionedTable,
    left_keys: &[String],
    right_keys: &[String],
    join_type: JoinType,
    out_schema: &Schema,
    desc: &str,
) -> Result<PartitionedTable> {
    let started = Instant::now();
    let targets = ctx.config.partitions.max(1);
    let l_schema = left.schema().clone();
    let r_schema = right.schema().clone();
    let l_out = ctx.shuffle(left.into_parts(), &l_schema, left_keys, targets)?;
    let r_out = ctx.shuffle(right.into_parts(), &r_schema, right_keys, targets)?;
    let bytes = l_out.bytes_moved + r_out.bytes_moved;
    let stage = ctx.next_stage();

    // Keys must route identically on both sides: Int vs Float keys that
    // compare equal hash equally (Value::hash_code guarantees this).
    let pairs: Vec<(Table, Table)> = l_out.partitions.into_iter().zip(r_out.partitions).collect();
    let tasks: Vec<_> = pairs
        .iter()
        .map(|(l, r)| move || group::hash_join(l, r, left_keys, right_keys, join_type, out_schema))
        .collect();
    let input_rows = pairs.iter().map(|(l, r)| l.num_rows() + r.num_rows()).sum();
    let outputs = ctx.run_stage(stage, input_rows, tasks)?;
    let rows: u64 = outputs.iter().map(|t| t.num_rows() as u64).sum();
    ctx.metrics
        .record_node(desc, stage, rows, started.elapsed(), bytes);
    PartitionedTable::new(outputs, Partitioning::Arbitrary).map_err(FlowError::Data)
}

// ------------------------------------------------------- sort / limit / distinct

fn exec_sort(
    ctx: &ExecContext<'_>,
    input: PartitionedTable,
    keys: &[String],
    descending: bool,
    desc: &str,
) -> Result<PartitionedTable> {
    let started = Instant::now();
    // Gather everything into one partition (keyless shuffle), then sort.
    let schema = input.schema().clone();
    let gathered = ctx.shuffle(input.into_parts(), &schema, &[], 1)?;
    let stage = ctx.next_stage();
    let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
    let table = gathered
        .partitions
        .into_iter()
        .next()
        .expect("one partition requested");
    let input_rows = table.num_rows();
    let tasks = vec![move || {
        table
            .sort_by(&key_refs, descending)
            .map_err(FlowError::Data)
    }];
    let outputs = ctx.run_stage(stage, input_rows, tasks)?;
    let rows: u64 = outputs.iter().map(|t| t.num_rows() as u64).sum();
    ctx.metrics
        .record_node(desc, stage, rows, started.elapsed(), gathered.bytes_moved);
    PartitionedTable::new(outputs, Partitioning::Range).map_err(FlowError::Data)
}

/// Fused Limit(Sort): per-partition sort + truncate in parallel, then a
/// single merge of at most `n * partitions` rows.
fn exec_top_k(
    ctx: &ExecContext<'_>,
    input: PartitionedTable,
    keys: &[String],
    descending: bool,
    n: usize,
    desc: &str,
) -> Result<PartitionedTable> {
    let started = Instant::now();
    let stage = ctx.current_stage();
    let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
    let parts = input.into_parts();
    let key_refs_ref = &key_refs;
    let tasks: Vec<_> = parts
        .iter()
        .map(|t| {
            move || {
                let sorted = t.sort_by(key_refs_ref, descending)?;
                let take = sorted.num_rows().min(n);
                Ok(sorted.slice(0, take)?.compact())
            }
        })
        .collect();
    let locals = ctx.run_stage(stage, total_rows(&parts), tasks)?;
    let merged = Table::concat(&locals)?.sort_by(&key_refs, descending)?;
    let take = merged.num_rows().min(n);
    let out = merged.slice(0, take)?.compact();
    ctx.metrics
        .record_node(desc, stage, out.num_rows() as u64, started.elapsed(), 0);
    Ok(PartitionedTable::single(out))
}

fn exec_limit(
    ctx: &ExecContext<'_>,
    input: PartitionedTable,
    n: usize,
    desc: &str,
) -> Result<PartitionedTable> {
    let started = Instant::now();
    let mut remaining = n;
    let mut kept = Vec::new();
    for part in input.parts() {
        if remaining == 0 {
            break;
        }
        let take = part.num_rows().min(remaining);
        // A copy, not a view: a small result must not pin the input.
        kept.push(part.slice(0, take)?.compact());
        remaining -= take;
    }
    if kept.is_empty() {
        kept.push(Table::empty(input.schema().clone()));
    }
    let out = Table::concat(&kept)?;
    ctx.metrics.record_node(
        desc,
        ctx.current_stage(),
        out.num_rows() as u64,
        started.elapsed(),
        0,
    );
    Ok(PartitionedTable::single(out))
}

fn exec_distinct(
    ctx: &ExecContext<'_>,
    input: PartitionedTable,
    desc: &str,
) -> Result<PartitionedTable> {
    let started = Instant::now();
    let schema = input.schema().clone();
    let all_cols: Vec<String> = schema.names().iter().map(|s| s.to_string()).collect();
    let targets = ctx.config.partitions.max(1);
    let out = ctx.shuffle(input.into_parts(), &schema, &all_cols, targets)?;
    let stage = ctx.next_stage();
    let tasks: Vec<_> = out
        .partitions
        .iter()
        .map(|t| move || group::distinct(t))
        .collect();
    let outputs = ctx.run_stage(stage, total_rows(&out.partitions), tasks)?;
    let rows: u64 = outputs.iter().map(|t| t.num_rows() as u64).sum();
    ctx.metrics
        .record_node(desc, stage, rows, started.elapsed(), out.bytes_moved);
    PartitionedTable::new(outputs, Partitioning::Arbitrary).map_err(FlowError::Data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::logical::Dataflow;
    use toreador_data::schema::Field;
    use toreador_data::value::{DataType, Value};

    fn ctx_fixture() -> (HashMap<String, PartitionedTable>, MetricsCollector) {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("v", DataType::Int),
        ])
        .unwrap();
        let table = Table::from_rows(
            schema,
            (0..100).map(|i| vec![Value::Str(format!("g{}", i % 5)), Value::Int(i)]),
        )
        .unwrap();
        let mut datasets = HashMap::new();
        datasets.insert("t".to_owned(), PartitionedTable::single(table));
        (datasets, MetricsCollector::new())
    }

    fn run(
        datasets: &HashMap<String, PartitionedTable>,
        metrics: &MetricsCollector,
        flow: &Dataflow,
    ) -> Table {
        let ctx = ExecContext::new(datasets, ExecConfig::default(), metrics);
        execute(&ctx, flow.plan()).unwrap().collect().unwrap()
    }

    fn schema_t() -> Schema {
        Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("v", DataType::Int),
        ])
        .unwrap()
    }

    #[test]
    fn scan_resplits_to_configured_partitions() {
        let (datasets, metrics) = ctx_fixture();
        let ctx = ExecContext::new(&datasets, ExecConfig::default(), &metrics);
        let out = execute(&ctx, Dataflow::scan("t", schema_t()).plan()).unwrap();
        assert_eq!(out.num_partitions(), 4);
        assert_eq!(out.total_rows(), 100);
    }

    #[test]
    fn unknown_dataset_errors() {
        let (datasets, metrics) = ctx_fixture();
        let ctx = ExecContext::new(&datasets, ExecConfig::default(), &metrics);
        let err = execute(&ctx, Dataflow::scan("nope", schema_t()).plan()).unwrap_err();
        assert!(matches!(err, FlowError::UnknownDataset(_)));
    }

    #[test]
    fn filter_and_project_run_per_partition() {
        let (datasets, metrics) = ctx_fixture();
        let flow = Dataflow::scan("t", schema_t())
            .filter(col("v").gt_eq(lit(50i64)))
            .unwrap()
            .project(vec![("double", col("v").mul(lit(2i64)))])
            .unwrap();
        let out = run(&datasets, &metrics, &flow);
        assert_eq!(out.num_rows(), 50);
        assert_eq!(out.column("double").unwrap().min(), Value::Int(100));
    }

    #[test]
    fn aggregate_partial_and_raw_agree() {
        let (datasets, metrics) = ctx_fixture();
        let aggs = vec![
            AggExpr::new(AggFunc::Count, "v", "n"),
            AggExpr::new(AggFunc::Sum, "v", "total"),
            AggExpr::new(AggFunc::Mean, "v", "avg"),
            AggExpr::new(AggFunc::Min, "v", "lo"),
            AggExpr::new(AggFunc::Max, "v", "hi"),
        ];
        // A `CountDistinct` beside the same aggregates takes the raw path.
        let mut raw_aggs = aggs.clone();
        raw_aggs.push(AggExpr::new(AggFunc::CountDistinct, "v", "distinct"));
        let ctx = ExecContext::new(&datasets, ExecConfig::default(), &metrics);
        let run_sorted = |aggs: Vec<AggExpr>| {
            let flow = Dataflow::scan("t", schema_t())
                .aggregate(&["k"], aggs)
                .unwrap();
            execute(&ctx, flow.plan())
                .unwrap()
                .collect()
                .unwrap()
                .sort_by(&["k"], false)
                .unwrap()
        };
        let a = run_sorted(aggs);
        let b = run_sorted(raw_aggs)
            .project(&["k", "n", "total", "avg", "lo", "hi"])
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.num_rows(), 5);
        // Spot-check group g0: members 0,5,...,95 -> n=20, sum=950, avg=47.5.
        assert_eq!(a.value(0, "n").unwrap(), Value::Int(20));
        assert_eq!(a.value(0, "total").unwrap(), Value::Int(950));
        assert_eq!(a.value(0, "avg").unwrap(), Value::Float(47.5));
        assert_eq!(a.value(0, "lo").unwrap(), Value::Int(0));
        assert_eq!(a.value(0, "hi").unwrap(), Value::Int(95));
    }

    #[test]
    fn global_aggregate_produces_single_row() {
        let (datasets, metrics) = ctx_fixture();
        let flow = Dataflow::scan("t", schema_t())
            .aggregate(&[], vec![AggExpr::new(AggFunc::Count, "v", "n")])
            .unwrap();
        let out = run(&datasets, &metrics, &flow);
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, "n").unwrap(), Value::Int(100));
    }

    #[test]
    fn count_distinct_uses_raw_path() {
        let (datasets, metrics) = ctx_fixture();
        let flow = Dataflow::scan("t", schema_t())
            .aggregate(
                &[],
                vec![AggExpr::new(AggFunc::CountDistinct, "k", "groups")],
            )
            .unwrap();
        let out = run(&datasets, &metrics, &flow);
        assert_eq!(out.value(0, "groups").unwrap(), Value::Int(5));
    }

    #[test]
    fn inner_and_left_join() {
        let schema_r = Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("label", DataType::Str),
        ])
        .unwrap();
        let right = Table::from_rows(
            schema_r.clone(),
            vec![
                vec![Value::Str("g0".into()), Value::Str("zero".into())],
                vec![Value::Str("g1".into()), Value::Str("one".into())],
            ],
        )
        .unwrap();
        let (mut datasets, metrics) = ctx_fixture();
        datasets.insert("r".to_owned(), PartitionedTable::single(right));
        let left = Dataflow::scan("t", schema_t());
        let right = Dataflow::scan("r", schema_r);
        let inner = left
            .clone()
            .join(right.clone(), &["k"], &["k"], JoinType::Inner)
            .unwrap();
        let out = run(&datasets, &metrics, &inner);
        assert_eq!(out.num_rows(), 40); // g0 and g1: 20 rows each
        let l = left.join(right, &["k"], &["k"], JoinType::Left).unwrap();
        let out = run(&datasets, &metrics, &l);
        assert_eq!(out.num_rows(), 100);
        let labels = out.column("label").unwrap();
        assert_eq!(labels.null_count(), 60);
    }

    #[test]
    fn sort_limit_pipeline() {
        let (datasets, metrics) = ctx_fixture();
        let flow = Dataflow::scan("t", schema_t())
            .sort(&["v"], true)
            .unwrap()
            .limit(3);
        let out = run(&datasets, &metrics, &flow);
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.value(0, "v").unwrap(), Value::Int(99));
        assert_eq!(out.value(2, "v").unwrap(), Value::Int(97));
    }

    #[test]
    fn top_k_fusion_matches_unfused_semantics() {
        let (datasets, metrics) = ctx_fixture();
        let fused = Dataflow::scan("t", schema_t())
            .sort(&["v"], true)
            .unwrap()
            .limit(7);
        let out = run(&datasets, &metrics, &fused);
        assert_eq!(out.num_rows(), 7);
        let vals: Vec<i64> = out
            .column("v")
            .unwrap()
            .iter_values()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(vals, vec![99, 98, 97, 96, 95, 94, 93]);
        // Fusion avoids the gather shuffle entirely.
        let metrics2 = MetricsCollector::new();
        let ctx = ExecContext::new(&datasets, ExecConfig::default(), &metrics2);
        execute(&ctx, fused.plan()).unwrap();
        let m = metrics2.finish(std::time::Duration::from_millis(1), 7, 1);
        assert_eq!(m.total_shuffle_bytes(), 0, "top-k must not shuffle");
    }

    #[test]
    fn top_k_larger_than_input_returns_everything() {
        let (datasets, metrics) = ctx_fixture();
        let fused = Dataflow::scan("t", schema_t())
            .sort(&["v"], false)
            .unwrap()
            .limit(1000);
        let out = run(&datasets, &metrics, &fused);
        assert_eq!(out.num_rows(), 100);
        assert_eq!(out.value(0, "v").unwrap(), Value::Int(0));
    }

    #[test]
    fn distinct_dedups_across_partitions() {
        let (datasets, metrics) = ctx_fixture();
        let flow = Dataflow::scan("t", schema_t())
            .project(vec![("k", col("k"))])
            .unwrap()
            .distinct();
        let out = run(&datasets, &metrics, &flow);
        assert_eq!(out.num_rows(), 5);
    }

    #[test]
    fn union_concatenates() {
        let (datasets, metrics) = ctx_fixture();
        let a = Dataflow::scan("t", schema_t());
        let b = Dataflow::scan("t", schema_t());
        let u = a.union(vec![b]).unwrap();
        let out = run(&datasets, &metrics, &u);
        assert_eq!(out.num_rows(), 200);
    }

    #[test]
    fn sample_is_deterministic_and_proportional() {
        let (datasets, metrics) = ctx_fixture();
        let flow = Dataflow::scan("t", schema_t()).sample(0.5, 7).unwrap();
        let a = run(&datasets, &metrics, &flow);
        let b = run(&datasets, &metrics, &flow);
        assert_eq!(a, b);
        assert!(
            a.num_rows() > 20 && a.num_rows() < 80,
            "got {}",
            a.num_rows()
        );
    }

    #[test]
    fn metrics_report_stages_and_shuffles() {
        let (datasets, metrics) = ctx_fixture();
        let flow = Dataflow::scan("t", schema_t())
            .aggregate(&["k"], vec![AggExpr::new(AggFunc::Count, "v", "n")])
            .unwrap();
        let ctx = ExecContext::new(&datasets, ExecConfig::default(), &metrics);
        execute(&ctx, flow.plan()).unwrap();
        let m = metrics.finish(std::time::Duration::from_millis(1), 5, 4);
        assert!(m.total_shuffle_bytes() > 0);
        assert!(m.stage_count() >= 2, "aggregate crosses a stage boundary");
        assert!(m.tasks_run > 0);
    }

    #[test]
    fn aggregate_skips_null_inputs() {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("v", DataType::Int),
        ])
        .unwrap();
        let t = Table::from_rows(
            schema.clone(),
            vec![
                vec![Value::Str("a".into()), Value::Int(1)],
                vec![Value::Str("a".into()), Value::Null],
                vec![Value::Str("a".into()), Value::Int(3)],
            ],
        )
        .unwrap();
        let mut datasets = HashMap::new();
        datasets.insert("n".to_owned(), PartitionedTable::single(t));
        let metrics = MetricsCollector::new();
        let flow = Dataflow::scan("n", schema)
            .aggregate(
                &["k"],
                vec![
                    AggExpr::new(AggFunc::Count, "v", "n"),
                    AggExpr::new(AggFunc::Mean, "v", "avg"),
                ],
            )
            .unwrap();
        let out = run(&datasets, &metrics, &flow);
        assert_eq!(out.value(0, "n").unwrap(), Value::Int(2));
        assert_eq!(out.value(0, "avg").unwrap(), Value::Float(2.0));
    }

    #[test]
    fn join_null_keys_do_not_match() {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("v", DataType::Int),
        ])
        .unwrap();
        let t = Table::from_rows(
            schema.clone(),
            vec![
                vec![Value::Null, Value::Int(1)],
                vec![Value::Str("a".into()), Value::Int(2)],
            ],
        )
        .unwrap();
        let mut datasets = HashMap::new();
        datasets.insert("n".to_owned(), PartitionedTable::single(t));
        let metrics = MetricsCollector::new();
        let l = Dataflow::scan("n", schema.clone());
        let r = Dataflow::scan("n", schema);
        let inner = l.join(r, &["k"], &["k"], JoinType::Inner).unwrap();
        let out = run(&datasets, &metrics, &inner);
        assert_eq!(out.num_rows(), 1, "null keys must not join");
    }
}

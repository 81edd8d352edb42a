//! The kill-resume invariant, proven exhaustively: a multi-stage flow on a
//! 16-thread pool is killed at *every* stage boundary in turn; each killed
//! run is resumed by a fresh engine (a stand-in for a fresh process) and
//! must produce byte-identical output to the unkilled baseline — with every
//! checkpointed wave restored, never recomputed. Restores are proven from
//! the trace journal: `StageRestored` events appear, and the resumed run's
//! `TaskStarted` count drops by exactly the restored waves' task counts
//! (zero when the kill hit the last boundary).
//!
//! Stale-checkpoint safety rides along: resuming after the plan, the input
//! data, or the wave-shaping engine config changes must refuse with
//! `FlowError::StaleCheckpoint` naming what changed — while a change of
//! morsel size, thread count or watchdog policy, which shapes no wave,
//! resumes byte-identically.

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use toreador_data::column::Column;
use toreador_data::generate::clickstream;
use toreador_data::partition::PartitionedTable;
use toreador_data::schema::{Field, Schema};
use toreador_data::table::Table;
use toreador_data::value::DataType;
use toreador_dataflow::checkpoint::RunCheckpoint;
use toreador_dataflow::codec::encode_table;
use toreador_dataflow::error::FlowError;
use toreador_dataflow::fault::KillMode;
use toreador_dataflow::logical::{AggExpr, AggFunc, Dataflow};
use toreador_dataflow::prelude::*;
use toreador_dataflow::resilience::{classify, ErrorClass, ResilienceConfig};
use toreador_dataflow::trace::{RunTrace, TraceEventKind};

const THREADS: usize = 16;
const ROWS: usize = 2_000;
const SEED: u64 = 42;

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("toreador-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn engine_with(root: &Path, resilience: ResilienceConfig) -> Engine {
    let mut e = Engine::new(
        EngineConfig::default()
            .with_threads(THREADS)
            .with_checkpoint(CheckpointSpec::new(root.to_path_buf(), "unused"))
            .with_resilience(resilience),
    );
    e.register("clicks", clickstream(ROWS, SEED)).unwrap();
    e
}

/// The multi-stage workload: narrow filter, aggregate (map + reduce waves),
/// sort — several shuffle boundaries to kill at.
fn flow_of(e: &Engine) -> Dataflow {
    e.flow("clicks")
        .unwrap()
        .filter(col("action").eq(lit("purchase")))
        .unwrap()
        .aggregate(
            &["country"],
            vec![
                AggExpr::new(AggFunc::Sum, "price", "revenue"),
                AggExpr::new(AggFunc::Count, "event_id", "n"),
            ],
        )
        .unwrap()
        .sort(&["revenue"], true)
        .unwrap()
}

fn count_kind(trace: &RunTrace, pred: impl Fn(&TraceEventKind) -> bool) -> usize {
    trace.events.iter().filter(|e| pred(&e.kind)).count()
}

fn rows_out(metrics: &RunMetrics) -> Vec<(&str, u64)> {
    metrics
        .nodes
        .iter()
        .map(|n| (n.operator.as_str(), n.rows_out))
        .collect()
}

fn started(trace: &RunTrace) -> usize {
    count_kind(trace, |k| matches!(k, TraceEventKind::TaskStarted { .. }))
}

/// Wave index → partition count, read off the checkpoint events.
fn wave_partitions(trace: &RunTrace) -> Vec<usize> {
    let mut waves: Vec<(usize, usize)> = trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::StageCheckpointed {
                wave, partitions, ..
            } => Some((wave, partitions)),
            _ => None,
        })
        .collect();
    waves.sort_unstable();
    waves.into_iter().map(|(_, p)| p).collect()
}

/// A campaign whose map side passes through: `event_id` is unique per
/// row, so no partition's probe reduces, and every partial is a row.
fn pass_through_flow_of(e: &Engine) -> Dataflow {
    e.flow("clicks")
        .unwrap()
        .aggregate(
            &["event_id"],
            vec![
                AggExpr::new(AggFunc::Count, "user_id", "n"),
                AggExpr::new(AggFunc::Sum, "price", "revenue"),
            ],
        )
        .unwrap()
        .sort(&["revenue"], true)
        .unwrap()
}

#[test]
fn kill_at_every_boundary_then_resume_is_byte_identical() {
    kill_at_every_boundary("exhaustive", flow_of);
}

#[test]
fn a_pass_through_campaign_killed_at_every_boundary_resumes_byte_identical() {
    kill_at_every_boundary("pass-through", pass_through_flow_of);
}

/// Kill `flow` at every wave boundary in turn and resume each with a fresh
/// engine: the output must equal the unkilled run's byte for byte, with
/// every checkpointed wave restored and none recomputed.
fn kill_at_every_boundary(tag: &str, flow_of: fn(&Engine) -> Dataflow) {
    let root = temp_root(tag);

    // Unkilled checkpointed baseline: fixes the output bytes and the wave
    // layout (how many waves, how many tasks each).
    let calm = engine_with(&root, ResilienceConfig::none());
    let baseline = calm.run_checkpointed(&flow_of(&calm), "baseline").unwrap();
    let waves = wave_partitions(&baseline.trace);
    assert!(
        waves.len() >= 3,
        "workload must span several boundaries, got {} waves",
        waves.len()
    );
    let baseline_started = started(&baseline.trace);
    assert_eq!(
        baseline_started,
        waves.iter().sum::<usize>(),
        "fault-free: one attempt per task per wave"
    );
    let mut baseline_bytes = Vec::new();
    encode_table(&baseline.table, &mut baseline_bytes);

    for kill_wave in 0..waves.len() {
        let run_id = format!("killed-at-{kill_wave}");

        // Kill (in-process halt) at this boundary: the wave just executed
        // is already durable when the run dies.
        let doomed = engine_with(
            &root,
            ResilienceConfig::none()
                .with_chaos(ChaosPlan::none().with_boundary_kill(kill_wave, KillMode::Halt)),
        );
        let err = doomed
            .run_checkpointed(&flow_of(&doomed), &run_id)
            .unwrap_err();
        match err {
            FlowError::KilledAtBoundary { wave, .. } => assert_eq!(wave, kill_wave),
            other => panic!("boundary {kill_wave}: expected KilledAtBoundary, got {other}"),
        }
        assert_eq!(classify(&err), ErrorClass::Permanent);

        // Resume with a fresh engine — fresh process, same campaign.
        let revived = engine_with(&root, ResilienceConfig::none());
        let resumed = revived.resume(&flow_of(&revived), &run_id).unwrap();

        // Byte-identical output.
        assert_eq!(resumed.table, baseline.table, "boundary {kill_wave}");
        let mut resumed_bytes = Vec::new();
        encode_table(&resumed.table, &mut resumed_bytes);
        assert_eq!(
            resumed_bytes, baseline_bytes,
            "boundary {kill_wave}: output must be byte-identical"
        );

        // Waves 0..=kill_wave were checkpointed before death: all restored,
        // none recomputed. The journal proves it.
        let restored = count_kind(&resumed.trace, |k| {
            matches!(k, TraceEventKind::StageRestored { .. })
        });
        assert_eq!(restored, kill_wave + 1, "boundary {kill_wave}");
        let skipped_tasks: usize = waves[..=kill_wave].iter().sum();
        assert_eq!(
            started(&resumed.trace),
            baseline_started - skipped_tasks,
            "boundary {kill_wave}: restored waves must not start tasks"
        );
        // The resumed run re-checkpoints only the waves it actually ran.
        assert_eq!(
            wave_partitions(&resumed.trace).len(),
            waves.len() - (kill_wave + 1),
            "boundary {kill_wave}"
        );
        // Every operator reports the rows it produced, restored or not.
        assert_eq!(
            rows_out(&resumed.metrics),
            rows_out(&baseline.metrics),
            "boundary {kill_wave}"
        );
    }

    // Killing at the LAST boundary means the resume recomputes nothing at
    // all: zero TaskStarted in the whole resumed run.
    let last = waves.len() - 1;
    let revived = engine_with(&root, ResilienceConfig::none());
    let resumed = revived
        .resume(&flow_of(&revived), format!("killed-at-{last}"))
        .unwrap();
    assert_eq!(resumed.table, baseline.table);
    assert_eq!(started(&resumed.trace), 0, "nothing left to compute");

    let _ = std::fs::remove_dir_all(&root);
}

/// An engine with sixteen-row morsels, so a narrow chain's wave has ~125
/// units on the 16-thread pool.
fn morsel_engine(root: &Path, resilience: ResilienceConfig) -> Engine {
    let mut e = Engine::new(
        EngineConfig::default()
            .with_threads(THREADS)
            .with_morsel_rows(16)
            .with_checkpoint(CheckpointSpec::new(root.to_path_buf(), "unused"))
            .with_resilience(resilience),
    );
    e.register("clicks", clickstream(ROWS, SEED)).unwrap();
    e
}

/// A filter->project chain ahead of an aggregation and a sort.
fn chain_flow(e: &Engine) -> Dataflow {
    e.flow("clicks")
        .unwrap()
        .filter(col("action").eq(lit("purchase")))
        .unwrap()
        .project(vec![
            ("country", col("country")),
            ("price", col("price").mul(lit(2.0))),
        ])
        .unwrap()
        .aggregate(
            &["country"],
            vec![AggExpr::new(AggFunc::Sum, "price", "revenue")],
        )
        .unwrap()
        .sort(&["revenue"], true)
        .unwrap()
}

fn bytes_of(t: &toreador_data::table::Table) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_table(t, &mut buf);
    buf
}

#[test]
fn pipelined_fused_chain_kill_resume_is_byte_identical() {
    // The morsel-pipelined variant of the exhaustive boundary kill: the
    // leading filter->project chain fuses into one independent morsel wave
    // of ~125 sixteen-row units on a 16-thread pool (so its checkpoint is
    // assembled from units run on and off their home workers), followed by the
    // serial map-side aggregation wave. Killing at every boundary and
    // resuming with a fresh engine must stay byte-identical, restoring
    // every completed wave.
    let root = temp_root("morsel");
    let engine_m = |resilience: ResilienceConfig| morsel_engine(&root, resilience);

    let calm = engine_m(ResilienceConfig::none());
    let baseline = calm
        .run_checkpointed(&chain_flow(&calm), "baseline")
        .unwrap();
    assert!(
        baseline.trace.pipeline_totals().pipelines >= 2,
        "both the fused chain and the aggregation map side must pipeline"
    );
    let waves = wave_partitions(&baseline.trace);
    assert!(waves.len() >= 3, "got {} waves", waves.len());
    let mut baseline_bytes = Vec::new();
    encode_table(&baseline.table, &mut baseline_bytes);

    for kill_wave in 0..waves.len() {
        let run_id = format!("killed-at-{kill_wave}");
        let doomed = engine_m(
            ResilienceConfig::none()
                .with_chaos(ChaosPlan::none().with_boundary_kill(kill_wave, KillMode::Halt)),
        );
        let err = doomed
            .run_checkpointed(&chain_flow(&doomed), &run_id)
            .unwrap_err();
        assert!(
            matches!(err, FlowError::KilledAtBoundary { wave, .. } if wave == kill_wave),
            "boundary {kill_wave}: {err}"
        );

        let revived = engine_m(ResilienceConfig::none());
        let resumed = revived.resume(&chain_flow(&revived), &run_id).unwrap();
        let mut resumed_bytes = Vec::new();
        encode_table(&resumed.table, &mut resumed_bytes);
        assert_eq!(
            resumed_bytes, baseline_bytes,
            "boundary {kill_wave}: resumed pipelined output must be byte-identical"
        );
        let restored = count_kind(&resumed.trace, |k| {
            matches!(k, TraceEventKind::StageRestored { .. })
        });
        assert_eq!(restored, kill_wave + 1, "boundary {kill_wave}");
    }

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn morsel_checkpoints_resume_byte_identically_on_whole_partition_units() {
    // How a wave is cut into units is not part of a checkpoint's identity:
    // both cuts emit one wave per chain with identical per-partition
    // output. Waves written from sixteen-row morsels restore on an engine
    // that runs whole-partition units on one thread under a task deadline,
    // and the waves it recomputes there finish the run byte-identically.
    let root = temp_root("units");
    let calm = morsel_engine(&root, ResilienceConfig::none());
    let baseline = calm
        .run_checkpointed(&chain_flow(&calm), "baseline")
        .unwrap();
    assert!(baseline.trace.pipeline_totals().pipelines >= 2);
    let waves = wave_partitions(&baseline.trace).len();
    assert!(waves >= 3, "got {waves} waves");

    for kill_wave in 0..waves {
        let run_id = format!("killed-at-{kill_wave}");
        let doomed = morsel_engine(
            &root,
            ResilienceConfig::none()
                .with_chaos(ChaosPlan::none().with_boundary_kill(kill_wave, KillMode::Halt)),
        );
        let err = doomed
            .run_checkpointed(&chain_flow(&doomed), &run_id)
            .unwrap_err();
        assert!(
            matches!(err, FlowError::KilledAtBoundary { wave, .. } if wave == kill_wave),
            "boundary {kill_wave}: {err}"
        );

        let mut whole = Engine::new(
            EngineConfig::default()
                .with_threads(1)
                .with_morsel_rows(ROWS)
                .with_checkpoint(CheckpointSpec::new(root.clone(), "unused"))
                .with_resilience(
                    ResilienceConfig::none().with_deadline(TaskDeadline::from_millis(60_000)),
                ),
        );
        whole.register("clicks", clickstream(ROWS, SEED)).unwrap();
        let resumed = whole.resume(&chain_flow(&whole), &run_id).unwrap();
        assert_eq!(
            bytes_of(&resumed.table),
            bytes_of(&baseline.table),
            "boundary {kill_wave}: output must be byte-identical across unit cuts"
        );
        let restored = count_kind(&resumed.trace, |k| {
            matches!(k, TraceEventKind::StageRestored { .. })
        });
        assert_eq!(restored, kill_wave + 1, "boundary {kill_wave}");
        assert_eq!(
            count_kind(&resumed.trace, |k| matches!(
                k,
                TraceEventKind::MorselDispatched { morsel, .. } if *morsel > 0
            )),
            0,
            "boundary {kill_wave}: the resume must run whole-partition units"
        );
    }

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn resume_refuses_stale_checkpoints_with_named_mismatch() {
    let root = temp_root("stale");
    let calm = engine_with(&root, ResilienceConfig::none());
    calm.run_checkpointed(&flow_of(&calm), "victim").unwrap();

    // Plan changed: same engine, different flow.
    let other_flow = calm
        .flow("clicks")
        .unwrap()
        .filter(col("action").eq(lit("cart")))
        .unwrap()
        .aggregate(
            &["country"],
            vec![
                AggExpr::new(AggFunc::Sum, "price", "revenue"),
                AggExpr::new(AggFunc::Count, "event_id", "n"),
            ],
        )
        .unwrap()
        .sort(&["revenue"], true)
        .unwrap();
    match calm.resume(&other_flow, "victim") {
        Err(FlowError::StaleCheckpoint { mismatch, .. }) => assert_eq!(mismatch, "plan"),
        other => panic!("expected StaleCheckpoint(plan), got {other:?}"),
    }

    // Inputs changed: same plan, different data under the same name.
    let mut reseeded = Engine::new(
        EngineConfig::default()
            .with_threads(THREADS)
            .with_checkpoint(CheckpointSpec::new(root.clone(), "unused")),
    );
    reseeded
        .register("clicks", clickstream(ROWS, SEED + 1))
        .unwrap();
    match reseeded.resume(&flow_of(&reseeded), "victim") {
        Err(FlowError::StaleCheckpoint { mismatch, .. }) => assert_eq!(mismatch, "inputs"),
        other => panic!("expected StaleCheckpoint(inputs), got {other:?}"),
    }

    // Engine config changed: different partition count reshapes every wave.
    let mut repartitioned = Engine::new(
        EngineConfig::default()
            .with_threads(THREADS)
            .with_partitions(7)
            .with_checkpoint(CheckpointSpec::new(root.clone(), "unused")),
    );
    repartitioned
        .register("clicks", clickstream(ROWS, SEED))
        .unwrap();
    match repartitioned.resume(&flow_of(&repartitioned), "victim") {
        Err(FlowError::StaleCheckpoint { mismatch, .. }) => assert_eq!(mismatch, "engine config"),
        other => panic!("expected StaleCheckpoint(engine config), got {other:?}"),
    }

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_sort_wave_in_the_old_layouts_resumes_identically_or_is_refused() {
    // Sort used to gather its input into one partition and sort it there:
    // its checkpointed wave was the whole sorted output as one partition,
    // one stage past the aggregate. Top-k sorted each partition but ran
    // its wave in the aggregate's stage. Now both sort each partition in
    // a stage of their own. A checkpoint holding an old layout must resume
    // to the same rows, or be refused as a checkpoint error naming the
    // wave; it must never yield different rows. A gathered wave over one
    // partition coincides with the new layout and is served; with four
    // partitions it is refused. A top-k wave is always refused: it was
    // stored one stage early.
    for (partitions, top_k) in [(1, false), (4, false), (1, true), (4, true)] {
        let root = temp_root(&format!("old-sort-{partitions}-{top_k}"));
        let engine = |resilience: ResilienceConfig| {
            let mut e = Engine::new(
                EngineConfig::default()
                    .with_threads(THREADS)
                    .with_partitions(partitions)
                    .with_checkpoint(CheckpointSpec::new(root.clone(), "unused"))
                    .with_resilience(resilience),
            );
            e.register("clicks", clickstream(ROWS, SEED)).unwrap();
            e
        };
        let flow = |e: &Engine| match top_k {
            true => flow_of(e).limit(3),
            false => flow_of(e),
        };
        let manifest_of = |run: &str| -> (CheckpointSpec, CheckpointManifest) {
            let spec = CheckpointSpec::resume(root.clone(), run);
            let text = std::fs::read_to_string(spec.dir().join("manifest.json")).unwrap();
            (spec, serde_json::from_str(&text).unwrap())
        };
        let calm = engine(ResilienceConfig::none());
        let baseline = calm.run_checkpointed(&flow(&calm), "baseline").unwrap();
        let mut waves: Vec<(usize, usize)> = baseline
            .trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::StageCheckpointed { wave, stage, .. } => Some((wave, stage)),
                _ => None,
            })
            .collect();
        waves.sort_unstable();
        let (sort_wave, sort_stage) = *waves.last().unwrap();
        let (_, aggregate_stage) = waves[waves.len() - 2];
        assert_eq!(
            sort_stage,
            aggregate_stage + 1,
            "the sort opens its own stage"
        );
        let (stage, tables) = if top_k {
            // The runs are the ones the new wave writes; only the stage moved.
            let (spec, manifest) = manifest_of("baseline");
            let runs = RunCheckpoint::resume(&spec, &manifest)
                .unwrap()
                .take_restored(sort_wave)
                .unwrap();
            assert_eq!(runs.tables.len(), partitions);
            (aggregate_stage, runs.tables)
        } else {
            (sort_stage, vec![baseline.table.clone()])
        };

        // Die after the aggregate's wave, then write the sort's wave as the
        // old operator did.
        let doomed = engine(
            ResilienceConfig::none()
                .with_chaos(ChaosPlan::none().with_boundary_kill(sort_wave - 1, KillMode::Halt)),
        );
        doomed.run_checkpointed(&flow(&doomed), "old").unwrap_err();
        let (spec, manifest) = manifest_of("old");
        RunCheckpoint::resume(&spec, &manifest)
            .unwrap()
            .persist_wave(stage, sort_wave, &tables)
            .unwrap();

        let revived = engine(ResilienceConfig::none());
        match revived.resume(&flow(&revived), "old") {
            Ok(resumed) => {
                assert_eq!((partitions, top_k), (1, false), "a moved wave was served");
                assert_eq!(bytes_of(&resumed.table), bytes_of(&baseline.table));
            }
            Err(FlowError::Checkpoint(msg)) => {
                assert_ne!(
                    (partitions, top_k),
                    (1, false),
                    "same layout refused: {msg}"
                );
                assert!(msg.contains(&format!("wave {sort_wave}")), "{msg}");
            }
            Err(other) => panic!("expected the same rows or a checkpoint error, got {other}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn a_combined_map_wave_written_before_pass_through_resumes_to_the_combined_rows() {
    // Before the map side could pass rows through, every map wave held
    // combined partials: one row per group per partition. Here 600 users
    // over four 500-row partitions open more than 250 groups in each, so
    // every partition now passes through, yet users repeat inside a
    // partition, and `1e16`/`1.0` prices make a sum's fold order show. A
    // checkpoint holding the combined wave must resume to the rows the
    // combined partials merge to, not to a fresh run's.
    const PARTS: usize = 4;
    let mut rng = StdRng::seed_from_u64(SEED);
    let schema = Schema::new(vec![
        Field::required("user_id", DataType::Int),
        Field::new("price", DataType::Float),
    ])
    .unwrap();
    let prices = [1e16, 1.0, 1.0, -1e16, 0.5];
    let input = Table::new(
        schema.clone(),
        vec![
            Column::from_ints((0..ROWS).map(|_| rng.gen_range(0..600)).collect()),
            Column::from_floats((0..ROWS).map(|_| prices[rng.gen_range(0..5)]).collect()),
        ],
    )
    .unwrap();
    let root = temp_root("combined-map-wave");
    let engine = |resilience: ResilienceConfig| {
        let mut e = Engine::new(
            EngineConfig::default()
                .with_threads(THREADS)
                .with_partitions(PARTS)
                .with_checkpoint(CheckpointSpec::new(root.clone(), "unused"))
                .with_resilience(resilience),
        );
        e.register("t", input.clone()).unwrap();
        e
    };
    let aggs = |count: &str, sum: &str| {
        vec![
            AggExpr::new(AggFunc::Count, "price", count),
            AggExpr::new(AggFunc::Sum, "price", sum),
        ]
    };
    let flow = |e: &Engine| {
        e.flow("t")
            .unwrap()
            .aggregate(&["user_id"], aggs("n", "revenue"))
            .unwrap()
    };
    let in_memory = |parts: Vec<Table>, build: &dyn Fn(&Engine) -> Dataflow| {
        let mut e = Engine::new(EngineConfig::default().with_partitions(parts.len()));
        e.register_partitioned("t", PartitionedTable::new(parts).unwrap());
        e.run(&build(&e)).unwrap().table
    };

    // The combined partial of each scanned partition: its groups' count
    // and its sum from 0.0 in row order, which is what a one-partition
    // aggregate computes. Each group has one row per partial, so the order
    // of groups inside a partial changes nothing the merge computes.
    let p_schema = Schema::new(vec![
        schema.fields()[0].clone(),
        Field::new("__p0_count", DataType::Int),
        Field::new("__p1_sum", DataType::Float),
    ])
    .unwrap();
    let combined: Vec<Table> = PartitionedTable::split(input.clone(), PARTS)
        .unwrap()
        .parts()
        .iter()
        .map(|part| {
            let t = in_memory(vec![part.clone()], &|e| {
                e.flow("t")
                    .unwrap()
                    .aggregate(&["user_id"], aggs("c", "s"))
                    .unwrap()
            });
            Table::new(p_schema.clone(), t.columns().to_vec()).unwrap()
        })
        .collect();
    // What those partials merge to: counts add, sums add to 0.0 in
    // partition order.
    let want = in_memory(combined.clone(), &|e| {
        e.flow("t")
            .unwrap()
            .aggregate(
                &["user_id"],
                vec![
                    AggExpr::new(AggFunc::Sum, "__p0_count", "n"),
                    AggExpr::new(AggFunc::Sum, "__p1_sum", "revenue"),
                ],
            )
            .unwrap()
    })
    .sort_by(&["user_id"], false)
    .unwrap();

    let calm = engine(ResilienceConfig::none());
    let baseline = calm.run_checkpointed(&flow(&calm), "baseline").unwrap();
    let map_stage = baseline
        .trace
        .events
        .iter()
        .find_map(|e| match e.kind {
            TraceEventKind::StageCheckpointed { wave: 0, stage, .. } => Some(stage),
            _ => None,
        })
        .unwrap();
    let baseline = baseline.table.sort_by(&["user_id"], false).unwrap();
    assert_eq!(baseline.column("n"), want.column("n"), "counts never move");
    assert_ne!(
        baseline.column("revenue"),
        want.column("revenue"),
        "the input must make the two fold orders differ"
    );

    // Die after the map wave, then write the combined wave in its place.
    let doomed = engine(
        ResilienceConfig::none()
            .with_chaos(ChaosPlan::none().with_boundary_kill(0, KillMode::Halt)),
    );
    doomed.run_checkpointed(&flow(&doomed), "old").unwrap_err();
    let spec = CheckpointSpec::resume(root.clone(), "old");
    let text = std::fs::read_to_string(spec.dir().join("manifest.json")).unwrap();
    let manifest: CheckpointManifest = serde_json::from_str(&text).unwrap();
    RunCheckpoint::resume(&spec, &manifest)
        .unwrap()
        .persist_wave(map_stage, 0, &combined)
        .unwrap();

    let revived = engine(ResilienceConfig::none());
    let resumed = revived.resume(&flow(&revived), "old").unwrap();
    let restored = count_kind(&resumed.trace, |k| {
        matches!(k, TraceEventKind::StageRestored { wave: 0, .. })
    });
    assert_eq!(restored, 1, "the combined wave was served");
    let resumed = resumed.table.sort_by(&["user_id"], false).unwrap();
    assert_eq!(resumed.columns(), want.columns());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn resume_of_an_unknown_run_id_starts_fresh() {
    // Resuming a run that never checkpointed anything is just running it —
    // the campaign path relies on this for engines a kill prevented from
    // ever starting.
    let root = temp_root("fresh");
    let e = engine_with(&root, ResilienceConfig::none());
    let r = e.resume(&flow_of(&e), "never-ran").unwrap();
    assert!(r.table.num_rows() > 0);
    assert_eq!(
        count_kind(&r.trace, |k| matches!(
            k,
            TraceEventKind::StageRestored { .. }
        )),
        0
    );
    assert!(!wave_partitions(&r.trace).is_empty(), "it checkpointed");
    // And the run it just recorded is itself resumable.
    let again = e.resume(&flow_of(&e), "never-ran").unwrap();
    assert_eq!(again.table, r.table);
    assert_eq!(started(&again.trace), 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn checkpoint_off_engines_have_no_checkpoint_surface() {
    // No checkpoint spec configured: run() never writes anything, and the
    // named entry points refuse rather than guessing a directory.
    let mut e = Engine::new(EngineConfig::default().with_threads(4));
    e.register("clicks", clickstream(500, 1)).unwrap();
    let r = e.run(&flow_of(&e)).unwrap();
    assert_eq!(wave_partitions(&r.trace).len(), 0);
    assert!(matches!(
        e.run_checkpointed(&flow_of(&e), "x"),
        Err(FlowError::Checkpoint(_))
    ));
    assert!(matches!(
        e.resume(&flow_of(&e), "x"),
        Err(FlowError::Checkpoint(_))
    ));
}

#[test]
fn checkpointing_does_not_change_results_or_metrics_parity() {
    let root = temp_root("parity");
    let mut plain = Engine::new(EngineConfig::default().with_threads(THREADS));
    plain.register("clicks", clickstream(ROWS, SEED)).unwrap();
    let a = plain.run(&flow_of(&plain)).unwrap();

    let ck = engine_with(&root, ResilienceConfig::none());
    let b = ck.run_checkpointed(&flow_of(&ck), "parity").unwrap();
    assert_eq!(a.table, b.table, "checkpointing must not change results");
    // Checkpoint events are journal-only: derived metrics still match the
    // run's reported metrics (the flight-recorder invariant).
    assert_eq!(
        b.trace.derive_metrics(
            b.metrics.total_elapsed_us,
            b.metrics.result_rows,
            b.metrics.result_partitions
        ),
        b.metrics
    );
    let _ = std::fs::remove_dir_all(&root);
}

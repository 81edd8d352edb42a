//! The chaos invariant, proven end to end: for every chaos schedule this
//! suite exercises — crash/delay/panic mixes, rate-based and targeted, on
//! a 16-thread pool and, for a wave no bigger than one morsel, on the
//! calling thread — a run either completes with results identical to the
//! fault-free run, or fails cleanly with a classified error. It never
//! hangs past its deadline and never lets a panic escape `run_stage`. And
//! whatever happens, the flight-recorder journal stays well-formed: every
//! `TaskStarted` pairs with exactly one `TaskFinished`, including the
//! timed-out, panicked, and losing speculative attempts.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use toreador_data::generate::{fraud_stream, random_table};
use toreador_data::table::Table;
use toreador_dataflow::error::{FlowError, Result as FlowResult};
use toreador_dataflow::fault::{ChaosPlan, FaultKind, TargetedFault};
use toreador_dataflow::logical::{AggExpr, AggFunc};
use toreador_dataflow::metrics::MetricsCollector;
use toreador_dataflow::resilience::{
    classify, ErrorClass, ResilienceConfig, RetryPolicy, RunControl, SpeculationPolicy,
    TaskDeadline,
};
use toreador_dataflow::scheduler::{run_stage, run_stage_controlled, SchedulerConfig};
use toreador_dataflow::session::EngineConfig;
use toreador_dataflow::streaming::{run_continuous, ArrivalSource, ContinuousRun, StreamConfig};
use toreador_dataflow::trace::{RunTrace, SpillTotals, TraceEventKind};

const THREADS: usize = 16;
const TASKS: usize = 32;
const STAGE: usize = 2;

/// The deterministic workload every test runs: task i builds a small
/// random-but-seeded table, so the fault-free output is a fixed point.
fn tasks() -> Vec<impl Fn() -> FlowResult<Table> + Send + Sync> {
    (0..TASKS)
        .map(|i| move || -> FlowResult<Table> { Ok(random_table(10 + i, 3, i as u64)) })
        .collect()
}

fn fault_free_outputs() -> Vec<Table> {
    let metrics = MetricsCollector::new();
    run_stage(&SchedulerConfig::new(THREADS), &metrics, STAGE, tasks()).unwrap()
}

/// Which side of the scheduler's size rule a wave is run on: the
/// `(input_rows, morsel_rows)` it reports to `run_stage_controlled`.
#[derive(Debug, Clone, Copy)]
enum Side {
    /// Bigger than one morsel: the worker pool.
    Pool,
    /// At most one morsel: every attempt on the calling thread.
    Caller,
}

const SIDES: [Side; 2] = [Side::Pool, Side::Caller];

/// `run_stage` with a fresh control, on the given side of the size rule.
fn run_on<F>(
    side: Side,
    config: &SchedulerConfig,
    metrics: &MetricsCollector,
    tasks: Vec<F>,
) -> FlowResult<Vec<Table>>
where
    F: Fn() -> FlowResult<Table> + Send + Sync,
{
    let (input_rows, morsel_rows) = match side {
        Side::Pool => (usize::MAX, 0),
        Side::Caller => (1, 1),
    };
    run_stage_controlled(
        config,
        metrics,
        &RunControl::new(),
        STAGE,
        tasks,
        input_rows,
        morsel_rows,
    )
}

/// Every started span must finish exactly once — timed-out, panicked, and
/// losing speculative attempts included.
fn assert_journal_well_formed(trace: &RunTrace) {
    let mut started = Vec::new();
    let mut finished = Vec::new();
    for e in &trace.events {
        match e.kind {
            TraceEventKind::TaskStarted {
                stage,
                partition,
                attempt,
            } => started.push((stage, partition, attempt)),
            TraceEventKind::TaskFinished {
                stage,
                partition,
                attempt,
                ..
            } => finished.push((stage, partition, attempt)),
            _ => {}
        }
    }
    started.sort_unstable();
    finished.sort_unstable();
    assert_eq!(
        started, finished,
        "every TaskStarted must pair with exactly one TaskFinished"
    );
    for (i, e) in trace.events.iter().enumerate() {
        assert_eq!(e.seq, i as u64, "journal sequence numbers must be dense");
    }
}

/// Run the workload under `resilience` and check the invariant: identical
/// to fault-free, or a clean classified error — and a well-formed journal
/// either way. Returns whether the run succeeded.
fn assert_chaos_invariant(side: Side, resilience: ResilienceConfig, baseline: &[Table]) -> bool {
    let config = SchedulerConfig::new(THREADS).with_resilience(resilience);
    let metrics = MetricsCollector::new();
    let result = run_on(side, &config, &metrics, tasks());
    let trace = metrics.trace().snapshot();
    assert_journal_well_formed(&trace);
    match result {
        Ok(out) => {
            assert_eq!(out.len(), baseline.len());
            for (i, (got, want)) in out.iter().zip(baseline).enumerate() {
                assert_eq!(got, want, "chaos changed the output of task {i}");
            }
            true
        }
        Err(e) => {
            // Clean classified failure: one of the retryable task errors
            // escalated past its budget, or the stage was cancelled by a
            // permanent error. Anything else breaks the contract.
            assert!(
                matches!(
                    e,
                    FlowError::TaskFailed { .. }
                        | FlowError::TaskTimedOut { .. }
                        | FlowError::TaskPanicked { .. }
                        | FlowError::Cancelled(_)
                ),
                "unclassified chaos failure: {e}"
            );
            false
        }
    }
}

/// A named chaos mix, parameterised by seed.
type ChaosMix = (&'static str, Box<dyn Fn(u64) -> ChaosPlan>);

#[test]
fn rate_based_chaos_matrix_holds_the_invariant() {
    let baseline = fault_free_outputs();
    let mixes: Vec<ChaosMix> = vec![
        ("crashes", Box::new(|s| ChaosPlan::crashes(0.3, s))),
        ("panics", Box::new(|s| ChaosPlan::panics(0.2, s))),
        ("delays", Box::new(|s| ChaosPlan::delays(0.3, 400, s))),
        (
            "hostile",
            Box::new(|s| {
                ChaosPlan::crashes(0.2, s)
                    .with_panic_rate(0.1)
                    .with_delays(0.15, 300)
            }),
        ),
    ];
    let mut completions = 0usize;
    let mut runs = 0usize;
    for (name, mix) in &mixes {
        for seed in 0..6u64 {
            for side in SIDES {
                let resilience = ResilienceConfig::none()
                    .with_retry(RetryPolicy::exponential(8, 100, 2_000).with_jitter(0.5, seed))
                    .with_chaos(mix(seed));
                runs += 1;
                if assert_chaos_invariant(side, resilience, &baseline) {
                    completions += 1;
                } else {
                    println!("mix {name} seed {seed} on {side:?} failed cleanly");
                }
            }
        }
    }
    // With 8 attempts against ≤30% fault rates nearly everything recovers;
    // demand that the matrix is not vacuous in either direction.
    assert!(
        completions >= runs / 2,
        "only {completions}/{runs} chaotic runs recovered"
    );
}

#[test]
fn targeted_faults_recover_exactly_once_each() {
    let baseline = fault_free_outputs();
    for kind in [
        FaultKind::Crash,
        FaultKind::Panic,
        FaultKind::Delay { micros: 500 },
    ] {
        let chaos = ChaosPlan::none()
            .with_targeted(TargetedFault {
                stage: STAGE,
                partition: 3,
                attempt: 0,
                kind,
            })
            .with_targeted(TargetedFault {
                stage: STAGE,
                partition: 7,
                attempt: 0,
                kind: FaultKind::Crash,
            });
        let config = SchedulerConfig::new(THREADS).with_resilience(
            ResilienceConfig::none()
                .with_retry(RetryPolicy::immediate(3))
                .with_chaos(chaos),
        );
        for side in SIDES {
            let metrics = MetricsCollector::new();
            let out = run_on(side, &config, &metrics, tasks()).unwrap();
            assert_eq!(out, baseline, "targeted {kind:?} must be absorbed");
            let trace = metrics.trace().snapshot();
            assert_journal_well_formed(&trace);
            let injected = trace
                .events
                .iter()
                .filter(|e| matches!(e.kind, TraceEventKind::FaultInjected { .. }))
                .count();
            assert_eq!(injected, 2, "exactly the two scheduled faults fire");
            // Delay faults stall but do not fail; crash/panic force retries.
            let expected_retries = match kind {
                FaultKind::Delay { .. } => 1,
                _ => 2,
            };
            assert_eq!(trace.counters().count("dataflow.retries"), expected_retries);
        }
    }
}

#[test]
fn certain_panic_fails_cleanly_and_never_escapes_run_stage() {
    // Every attempt panics and there are no retries: the stage must fail
    // with a classified TaskPanicked — the panic itself stays inside.
    let config = SchedulerConfig::new(THREADS)
        .with_resilience(ResilienceConfig::none().with_chaos(ChaosPlan::panics(1.0, 9)));
    for side in SIDES {
        let metrics = MetricsCollector::new();
        let err = run_on(side, &config, &metrics, tasks()).unwrap_err();
        assert!(
            matches!(err, FlowError::TaskPanicked { .. }),
            "expected a classified panic, got: {err}"
        );
        assert_eq!(classify(&err), ErrorClass::Transient);
        let trace = metrics.trace().snapshot();
        assert_journal_well_formed(&trace);
        assert!(trace.counters().count("dataflow.panics") > 0);
        // The doomed stage cancelled the run.
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::RunCancelled { .. })));
    }
}

#[test]
fn a_body_panic_on_the_calling_thread_is_caught_and_retried() {
    // The caller-thread path has no worker thread between a panicking body
    // and the caller's stack: the attempt's own catch_unwind must be what
    // stops it, and the retry (after its backoff) must then succeed.
    use std::sync::atomic::{AtomicUsize, Ordering};
    let config = SchedulerConfig::new(THREADS)
        .with_resilience(ResilienceConfig::none().with_retry(RetryPolicy::fixed(3, 400)));
    let calls = AtomicUsize::new(0);
    let flaky = vec![|| -> FlowResult<Table> {
        if calls.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("flaky once");
        }
        Ok(random_table(7, 1, 1))
    }];
    let metrics = MetricsCollector::new();
    let out = run_on(Side::Caller, &config, &metrics, flaky).unwrap();
    assert_eq!(out, vec![random_table(7, 1, 1)]);
    assert_eq!(calls.load(Ordering::SeqCst), 2);
    let trace = metrics.trace().snapshot();
    assert_journal_well_formed(&trace);
    let c = trace.counters();
    assert_eq!(
        ["dataflow.panics", "dataflow.retries", "dataflow.backoff_us"].map(|n| c.count(n)),
        [1, 1, 400]
    );
}

#[test]
fn cancellation_between_two_inlined_tasks_stops_the_wave() {
    // Task 0 trips the run's control — from outside the scheduler, as an
    // operator interrupt would. With both tasks on the calling thread there
    // is no race to arrange: the coordinator's check after task 0's report
    // must stop task 1 from ever starting.
    use std::sync::atomic::{AtomicBool, Ordering};
    let control = RunControl::new();
    let ran_second = AtomicBool::new(false);
    type Task<'a> = Box<dyn Fn() -> FlowResult<Table> + Send + Sync + 'a>;
    let two: Vec<Task<'_>> = vec![
        Box::new(|| {
            control.cancel("operator interrupt");
            Ok(random_table(3, 1, 0))
        }),
        Box::new(|| {
            ran_second.store(true, Ordering::SeqCst);
            Ok(random_table(3, 1, 1))
        }),
    ];
    let metrics = MetricsCollector::new();
    let err = run_stage_controlled(
        &SchedulerConfig::new(THREADS),
        &metrics,
        &control,
        STAGE,
        two,
        1,
        1,
    )
    .unwrap_err();
    assert_eq!(err, FlowError::Cancelled("operator interrupt".to_owned()));
    assert_eq!(classify(&err), ErrorClass::Permanent);
    assert!(!ran_second.load(Ordering::SeqCst));
    let trace = metrics.trace().snapshot();
    assert_journal_well_formed(&trace);
    assert_eq!(trace.task_spans().len(), 1, "only task 0 ever started");
    assert!(trace
        .events
        .iter()
        .any(|e| matches!(e.kind, TraceEventKind::RunCancelled { .. })));
}

#[test]
fn deadlines_bound_hung_stages_instead_of_hanging_the_caller() {
    // Task 5 hangs far beyond the deadline on every attempt; with no retry
    // budget the stage must fail with TaskTimedOut, promptly.
    let config = SchedulerConfig::new(THREADS)
        .with_resilience(ResilienceConfig::none().with_deadline(TaskDeadline::from_millis(40)));
    let metrics = MetricsCollector::new();
    let hung: Vec<_> = (0..TASKS)
        .map(|i| {
            move || -> FlowResult<Table> {
                if i == 5 {
                    std::thread::sleep(Duration::from_millis(400));
                }
                Ok(random_table(10 + i, 3, i as u64))
            }
        })
        .collect();
    let started = Instant::now();
    let err = run_stage(&config, &metrics, STAGE, hung).unwrap_err();
    // Generous bound: orders of magnitude under the 400 ms hang repeated
    // per attempt, proving the watchdog (not the body) ended the wait...
    // except the scoped pool must still join the hung thread once.
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "deadline failed to bound the stage: took {:?}",
        started.elapsed()
    );
    assert!(
        matches!(err, FlowError::TaskTimedOut { .. }),
        "expected a classified timeout, got: {err}"
    );
    assert_eq!(classify(&err), ErrorClass::Transient);
    let trace = metrics.trace().snapshot();
    assert_journal_well_formed(&trace);
    assert!(trace.counters().count("dataflow.timeouts") > 0);
}

#[test]
fn speculation_under_chaos_keeps_the_journal_paired() {
    // One deterministic straggler plus speculation: the backup attempt
    // races the straggler, someone loses, and the loser's span must still
    // close. A sprinkle of crash chaos keeps the retry path busy too.
    let config = SchedulerConfig::new(THREADS).with_resilience(
        ResilienceConfig::none()
            .with_retry(RetryPolicy::immediate(4))
            .with_speculation(SpeculationPolicy::new(3.0).with_min_samples(8))
            .with_chaos(ChaosPlan::crashes(0.1, 4).with_targeted(TargetedFault {
                stage: STAGE,
                partition: 11,
                attempt: 0,
                kind: FaultKind::Delay { micros: 60_000 },
            })),
    );
    let metrics = MetricsCollector::new();
    let out = run_stage(&config, &metrics, STAGE, tasks()).unwrap();
    assert_eq!(
        out,
        fault_free_outputs(),
        "speculation must not change results"
    );
    let trace = metrics.trace().snapshot();
    assert_journal_well_formed(&trace);
    let c = trace.counters();
    let launched = c.count("dataflow.speculative_launched");
    assert!(
        launched > 0,
        "the 60 ms straggler must trip speculation: {c:?}"
    );
    // Wins are races that settled; there are never more than launches, and
    // each won race records its losers (one Lost per live losing attempt).
    assert!(c.count("dataflow.speculative_won") <= launched);
    let lost: usize = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::SpeculativeLost { .. }))
        .count();
    assert!(
        c.count("dataflow.speculative_won") == 0 || lost > 0,
        "a settled race must record its losing attempt(s): {c:?}"
    );
}

/// Current thread count of this process, from the kernel's view — the
/// ground truth for "the pool joined everything".
#[cfg(target_os = "linux")]
fn live_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .unwrap()
        .trim()
        .parse()
        .unwrap()
}

#[test]
fn external_cancellation_mid_wave_pairs_journal_and_leaks_no_threads() {
    // A shuffle wave of slow tasks is cancelled from outside (the shape of
    // an operator interrupt or an engine tearing down sibling stages)
    // while half the wave is still unclaimed. Cooperative cancellation
    // must: fail the wave with the canceller's reason, keep every started
    // span paired in the journal, stop claiming the remaining tasks, and
    // join every worker thread.
    #[cfg(target_os = "linux")]
    let threads_before = live_threads();

    let control = Arc::new(RunControl::new());
    let metrics = MetricsCollector::new();
    // Each body blocks until the cancel lands (bounded, so a broken
    // canceller fails the timing assert instead of hanging): the first
    // round of tasks cannot finish before it, whatever the host's load,
    // so no worker ever claims a second task.
    let slow: Vec<_> = (0..TASKS)
        .map(|i| {
            let control = Arc::clone(&control);
            move || -> FlowResult<Table> {
                let give_up = Instant::now() + Duration::from_secs(5);
                while !control.is_cancelled() && Instant::now() < give_up {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(random_table(10 + i, 3, i as u64))
            }
        })
        .collect();
    let canceller = {
        let control = Arc::clone(&control);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            control.cancel("operator interrupt");
        })
    };
    let started_at = Instant::now();
    let err = run_stage_controlled(
        &SchedulerConfig::new(THREADS),
        &metrics,
        &control,
        STAGE,
        slow,
        usize::MAX,
        0,
    )
    .unwrap_err();
    canceller.join().unwrap();

    // Classified failure carrying the external reason, promptly — the
    // 16 unclaimed task bodies never ran.
    assert!(matches!(err, FlowError::Cancelled(_)), "{err}");
    assert!(err.to_string().contains("operator interrupt"), "{err}");
    assert_eq!(classify(&err), ErrorClass::Permanent);
    assert!(
        started_at.elapsed() < Duration::from_secs(2),
        "cancellation failed to bound the wave: took {:?}",
        started_at.elapsed()
    );

    let trace = metrics.trace().snapshot();
    assert_journal_well_formed(&trace);
    assert!(trace
        .events
        .iter()
        .any(|e| matches!(e.kind, TraceEventKind::RunCancelled { .. })));
    let started = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::TaskStarted { .. }))
        .count();
    assert!(
        started <= THREADS,
        "cancellation must leave unclaimed tasks unstarted (started {started}/{TASKS})"
    );
    // A cancelled run refuses to start its next wave outright.
    let refused = run_stage_controlled(
        &SchedulerConfig::new(THREADS),
        &metrics,
        &control,
        STAGE + 1,
        tasks(),
        usize::MAX,
        0,
    )
    .unwrap_err();
    assert!(matches!(refused, FlowError::Cancelled(_)), "{refused}");

    // The scoped pool joined its workers: no thread leaked past return.
    // Sibling tests on the parallel harness jitter the process count by a
    // few, so settle briefly and flag only a pool-sized residue — a leaked
    // pool pins all THREADS workers forever, harness noise is transient.
    #[cfg(target_os = "linux")]
    {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut after = live_threads();
        while after > threads_before && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
            after = live_threads();
        }
        assert!(
            after < threads_before + THREADS,
            "worker threads leaked: {threads_before} before, {after} after"
        );
    }
}

#[test]
fn cancellation_mid_morsel_wave_stops_cleanly_without_leaking_threads() {
    // The morsel-pipelined analogue of the wave-cancellation test above: a
    // fused filter->project chain decomposed into hundreds of 8-row morsel
    // units, every unit's attempt delayed 3ms by chaos so the wave is
    // guaranteed to be mid-flight when an external canceller fires.
    // Cooperative cancellation must fail the run with the canceller's
    // reason, keep task spans AND morsel events paired, leave most units
    // undispatched, and join every pooled worker.
    use std::collections::HashMap;
    use toreador_data::partition::PartitionedTable;
    use toreador_dataflow::expr::{col, lit};
    use toreador_dataflow::logical::Dataflow;
    use toreador_dataflow::physical::{execute, ExecConfig, ExecContext};

    #[cfg(target_os = "linux")]
    let threads_before = live_threads();

    let table = random_table(4_000, 3, 3);
    let flow = Dataflow::scan("t", table.schema().clone())
        .filter(col("c2").is_not_null())
        .unwrap()
        .project(vec![
            ("c0", col("c0")),
            ("c1", col("c1").mul(lit(2.0))),
            ("c2", col("c2")),
        ])
        .unwrap();
    let config = ExecConfig {
        scheduler: SchedulerConfig::new(8)
            .with_resilience(ResilienceConfig::none().with_chaos(ChaosPlan::delays(1.0, 3_000, 5))),
        partitions: 4,
        morsel_rows: 8,
        control: None,
        memory_budget_bytes: None,
        spill_dir: None,
    };
    let mut datasets = HashMap::new();
    datasets.insert("t".to_owned(), PartitionedTable::split(table, 4).unwrap());
    let metrics = MetricsCollector::new();
    let ctx = ExecContext::new(&datasets, config, &metrics);

    let started_at = Instant::now();
    let err = std::thread::scope(|s| {
        let control = ctx.control();
        s.spawn(move || {
            std::thread::sleep(Duration::from_millis(15));
            control.cancel("operator interrupt");
        });
        execute(&ctx, flow.plan()).unwrap_err()
    });

    assert!(matches!(err, FlowError::Cancelled(_)), "{err}");
    assert!(err.to_string().contains("operator interrupt"), "{err}");
    assert_eq!(classify(&err), ErrorClass::Permanent);
    assert!(
        started_at.elapsed() < Duration::from_secs(2),
        "cancellation failed to bound the morsel wave: took {:?}",
        started_at.elapsed()
    );

    let trace = metrics.trace().snapshot();
    assert_journal_well_formed(&trace);
    assert!(trace
        .events
        .iter()
        .any(|e| matches!(e.kind, TraceEventKind::RunCancelled { .. })));
    // Every dispatched morsel completed — in-flight morsels always pair,
    // even on a cancelled wave.
    let mut open: HashMap<(usize, usize, usize), i64> = HashMap::new();
    let mut dispatched = 0usize;
    for e in &trace.events {
        match e.kind {
            TraceEventKind::MorselDispatched {
                stage,
                partition,
                morsel,
                ..
            } => {
                dispatched += 1;
                *open.entry((stage, partition, morsel)).or_insert(0) += 1;
            }
            TraceEventKind::MorselCompleted {
                stage,
                partition,
                morsel,
            } => *open.entry((stage, partition, morsel)).or_insert(0) -= 1,
            _ => {}
        }
    }
    assert!(open.values().all(|b| *b == 0), "unpaired morsel events");
    // 4,000 rows at 8 rows/morsel is 500 units; the 15ms cancel hit the
    // wave mid-flight, so some units ran but the bulk of the 3ms-delayed
    // units were never claimed.
    assert!(
        dispatched > 0,
        "the cancel must land mid-wave, not before it started"
    );
    assert!(
        dispatched < 500,
        "cancellation must leave undispatched morsels (dispatched {dispatched}/500)"
    );

    #[cfg(target_os = "linux")]
    {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut after = live_threads();
        while after > threads_before && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
            after = live_threads();
        }
        assert!(
            after < threads_before + 8,
            "pool workers leaked: {threads_before} before, {after} after"
        );
    }
}

/// The out-of-core kill/resume invariant: a budgeted, checkpointed run
/// killed at a wave boundary — while its shuffles are actively spilling
/// under a zero budget — resumes to the byte-identical unbudgeted
/// answer, and no page file survives the run. Spill files are published
/// with temp-write + fsync + rename + dir-fsync, so a death at any instant
/// leaves either a complete `.pages` run or a `.tmp` orphan; a fresh
/// manager sweeps both on construction. We prove the sweep by planting
/// both kinds of stale artifact (a dead process's leftovers) in the resume
/// run's spill directory before reviving it.
#[test]
fn kill_mid_spill_resumes_clean_with_no_orphaned_page_files() {
    use toreador_dataflow::checkpoint::CheckpointSpec;
    use toreador_dataflow::fault::KillMode;
    use toreador_dataflow::logical::{AggExpr, AggFunc};
    use toreador_dataflow::session::Engine;

    let root = std::env::temp_dir().join(format!("toreador-spill-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let table = random_table(3_000, 3, 9);
    let flow_of = |e: &Engine| {
        e.flow("t")
            .unwrap()
            .aggregate(
                &["c2"],
                vec![
                    AggExpr::new(AggFunc::Sum, "c1", "s"),
                    AggExpr::new(AggFunc::Count, "c0", "n"),
                ],
            )
            .unwrap()
            .sort(&["c2"], false)
            .unwrap()
    };
    // The oracle: unbudgeted, unkilled, in-memory.
    let mut calm = Engine::new(EngineConfig::default().with_threads(4).with_partitions(4));
    calm.register("t", table.clone()).unwrap();
    let baseline = calm.run(&flow_of(&calm)).unwrap();
    assert_eq!(baseline.trace.spill_totals(), SpillTotals::default());

    // Budget zero: the aggregation spills constantly (the sort stages
    // nothing, so it has nothing to spill). Die at the first
    // wave boundary, mid-campaign, after spill files have been written.
    let budgeted_config = || {
        EngineConfig::default()
            .with_threads(4)
            .with_partitions(4)
            .with_memory_budget(0)
            .with_checkpoint(CheckpointSpec::new(root.clone(), "unused"))
    };
    let mut doomed = Engine::new(
        budgeted_config().with_resilience(
            ResilienceConfig::none()
                .with_chaos(ChaosPlan::none().with_boundary_kill(0, KillMode::Halt)),
        ),
    );
    doomed.register("t", table.clone()).unwrap();
    let err = doomed
        .run_checkpointed(&flow_of(&doomed), "spilled")
        .unwrap_err();
    assert!(
        matches!(err, FlowError::KilledAtBoundary { wave: 0, .. }),
        "expected the boundary kill, got {err}"
    );

    // A real process death runs no destructors: plant the artifacts one
    // would leave — a published-but-unmerged run and an unpublished temp.
    let spill_dir = root.join("spilled").join("spill");
    std::fs::create_dir_all(&spill_dir).unwrap();
    std::fs::write(spill_dir.join("run-000042.pages"), b"stale half-merged run").unwrap();
    std::fs::write(spill_dir.join("run-000043.pages.tmp"), b"unpublished temp").unwrap();

    // A fresh budgeted engine (fresh-process stand-in) resumes the run.
    let mut revived = Engine::new(budgeted_config());
    revived.register("t", table).unwrap();
    let resumed = revived.resume(&flow_of(&revived), "spilled").unwrap();
    assert_eq!(
        resumed.table, baseline.table,
        "kill mid-spill + resume must reproduce the in-memory answer"
    );
    let totals = resumed.trace.spill_totals();
    assert!(
        totals.spills > 0,
        "the resumed waves must still spill under budget zero: {totals:?}"
    );

    // No spill artifact outlives the run: the stale plants were swept at
    // manager construction and the whole scratch dir is gone at drop.
    assert!(
        !spill_dir.exists(),
        "spill scratch must not outlive the run"
    );
    let mut stack = vec![root.clone()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let name = entry.file_name();
                let name = name.to_string_lossy().into_owned();
                assert!(
                    !name.ends_with(".pages") && !name.ends_with(".tmp"),
                    "orphaned spill artifact survived: {}",
                    path.display()
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Run the continuous stream over the fraud event table under `resilience`:
/// each batch sums `amount` per `channel` on its own engine, which is the
/// stream's fault domain. Injected faults strike those engines' tasks and
/// are retried by their scheduler; the loop itself injects nothing.
fn stream_under(table: &Table, resilience: ResilienceConfig) -> FlowResult<ContinuousRun> {
    let config = StreamConfig::default()
        .with_engine(
            EngineConfig::default()
                .with_threads(2)
                .with_resilience(resilience),
        )
        .with_ts_column("ts")
        .with_allowed_lateness(500)
        .with_buffer(4)
        .with_pipeline_id("chaos-stream");
    let mut source = ArrivalSource::windows(table, "ts", 2_000)?;
    run_continuous(
        &mut source,
        &config,
        &|e, ds| {
            e.flow(ds)?.aggregate(
                &["channel"],
                vec![AggExpr::new(AggFunc::Sum, "amount", "total")],
            )
        },
        "channel",
        None,
        Some("total"),
    )
}

#[test]
fn stream_chaos_strikes_inside_the_per_batch_engines() {
    let (table, _) = fraud_stream(800, 21, 0.05, 200);
    let baseline = stream_under(&table, ResilienceConfig::none()).unwrap();
    let chaotic = ResilienceConfig::none()
        .with_retry(RetryPolicy::immediate(10))
        .with_chaos(ChaosPlan::crashes(0.2, 7));
    let run = stream_under(&table, chaotic).expect("ten attempts absorb a 20% crash rate");
    assert_eq!(run.canonical_state(), baseline.canonical_state());
    let injected = |trace: &RunTrace| {
        trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::FaultInjected { .. }))
            .count()
    };
    let in_engines: usize = run.batch_traces.iter().map(injected).sum();
    assert!(in_engines >= 1, "the chaos plan never reached an engine");
    assert_eq!(
        injected(&run.stream_trace),
        0,
        "the loop injects nothing itself"
    );
}

/// How many property cases to run. The vendored proptest does not read
/// `PROPTEST_CASES`, so the chaos suite honours it here — CI pins it.
fn proptest_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]

    /// The invariant under arbitrary rate mixes and seeds: complete
    /// identically or fail cleanly, journal always well-formed.
    #[test]
    fn arbitrary_chaos_plans_hold_the_invariant(
        crash in 0.0f64..0.5,
        panic in 0.0f64..0.3,
        delay in 0.0f64..0.4,
        delay_us in 50u64..800,
        attempts in 1u32..10,
        seed in 0u64..1_000,
    ) {
        let baseline = fault_free_outputs();
        let chaos = ChaosPlan::crashes(crash, seed)
            .with_panic_rate(panic)
            .with_delays(delay, delay_us);
        let resilience = ResilienceConfig::none()
            .with_retry(RetryPolicy::exponential(attempts, 50, 1_000).with_jitter(0.5, seed))
            .with_chaos(chaos);
        // assert_chaos_invariant panics on any violation; either outcome
        // (recovered or clean failure) satisfies the property.
        for side in SIDES {
            let _ = assert_chaos_invariant(side, resilience.clone(), &baseline);
        }
    }

    /// The same invariant for the continuous streaming loop: under an
    /// arbitrary seeded chaos mix the stream either completes with a final
    /// state identical to the fault-free run, or fails cleanly with a
    /// classified transient error. Never a hang, never a wrong state.
    #[test]
    fn streaming_chaos_completes_identically_or_fails_classified(
        crash in 0.0f64..0.4,
        panic in 0.0f64..0.2,
        delay in 0.0f64..0.3,
        attempts in 1u32..6,
        seed in 0u64..500,
    ) {
        let (table, _) = fraud_stream(800, 21, 0.05, 200);
        let baseline = stream_under(&table, ResilienceConfig::none()).unwrap().canonical_state();
        let chaos = ChaosPlan::crashes(crash, seed)
            .with_panic_rate(panic)
            .with_delays(delay, 100);
        let resilience = ResilienceConfig::none()
            .with_retry(RetryPolicy::exponential(attempts, 50, 500).with_jitter(0.5, seed))
            .with_chaos(chaos);
        match stream_under(&table, resilience) {
            Ok(run) => prop_assert_eq!(run.canonical_state(), baseline, "chaos changed the stream state"),
            Err(e) => {
                prop_assert!(
                    matches!(classify(&e), ErrorClass::Transient),
                    "unclassified stream chaos failure: {}", e
                );
                prop_assert!(
                    matches!(e, FlowError::TaskFailed { .. } | FlowError::TaskPanicked { .. }),
                    "stream chaos failure has the wrong shape: {}", e
                );
            }
        }
    }
}

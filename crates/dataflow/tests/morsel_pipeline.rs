//! Differential proof that cutting a wave into morsels is invisible: the
//! same plan run on row-range morsel units and on whole-partition units
//! (`morsel_rows` above every partition, one thread — exactly what a
//! stage-barrier task computed) must agree value-for-value — byte-identical
//! output through the row codec, and identical error messages when
//! chaos makes a wave fail — and, for chains without a sample step, agree
//! with the row reference computed here from the row oracle's
//! `eval_mask`, `Table::filter` and `eval_table`, across generated plans, morsel
//! sizes from one row to the whole partition, and thread counts 1, 2 and
//! 16.
//!
//! Watchdog policies are invisible too: a task deadline leaves the bytes
//! and, under survivable chaos, the whole task journal of a run unchanged,
//! and under a deadline or speculation policy the narrow chains and
//! aggregation map sides still run on morsels — speculation rescues a
//! chaos-delayed morsel. Work-stealing is invisible: 32 runs of one plan on
//! a 16-thread pool under randomized chaos delays (which scramble who runs
//! what) stay byte-identical with a fully paired morsel journal every
//! time, while the journal shows units ran off their home workers. And the
//! scheduler's size rule is invisible: a wave of at most one morsel runs on
//! the calling thread, and the same plan with `morsel_rows` just below and
//! just above its input — or anywhere — gives the same bytes and the same
//! task journal as the pooled run.

#[path = "support/row_oracle.rs"]
mod row_oracle;

use std::collections::HashMap;

use proptest::prelude::*;

use toreador_data::generate::random_table;
use toreador_data::partition::PartitionedTable;
use toreador_data::table::Table;
use toreador_dataflow::codec::encode_table;
use toreador_dataflow::prelude::*;
use toreador_dataflow::trace::{RunTrace, TraceEventKind};

/// A random always-valid chain of narrow operators over random_table's
/// `c0:Int, c1:Float, c2:Str` columns — the shapes the planner fuses into
/// one morsel pipeline.
#[derive(Debug, Clone)]
enum Step {
    FilterIntGt(i64),
    FilterStrNotNull,
    ProjectArith,
    SampleHalf(u64),
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            (-500i64..500).prop_map(Step::FilterIntGt),
            Just(Step::FilterStrNotNull),
            Just(Step::ProjectArith),
            (0u64..10).prop_map(Step::SampleHalf),
        ],
        0..5,
    )
}

fn build_flow(engine: &Engine, steps: &[Step], agg: bool) -> Dataflow {
    let mut flow = engine.flow("t").unwrap();
    for s in steps {
        flow = match s {
            Step::FilterIntGt(n) => flow.filter(col("c0").gt(lit(*n))).unwrap(),
            Step::FilterStrNotNull => flow.filter(col("c2").is_not_null()).unwrap(),
            Step::ProjectArith => flow
                .project(vec![
                    ("c0", col("c0")),
                    ("c1", col("c1").mul(lit(2.0)).add(lit(1.0))),
                    ("c2", col("c2")),
                ])
                .unwrap(),
            Step::SampleHalf(seed) => flow.sample(0.5, *seed).unwrap(),
        };
    }
    if agg {
        flow = flow
            .aggregate(
                &["c2"],
                vec![
                    AggExpr::new(AggFunc::Count, "c0", "n"),
                    AggExpr::new(AggFunc::Sum, "c0", "s"),
                    AggExpr::new(AggFunc::Mean, "c1", "m"),
                ],
            )
            .unwrap();
    }
    flow
}

/// More rows than any partition here holds: one morsel — one unit — per
/// partition, exactly the whole-partition task a stage barrier ran.
const WHOLE: usize = 1 << 20;

/// Three-partition engine over `table`.
fn engine_mode(
    table: Table,
    threads: usize,
    morsel_rows: usize,
    resilience: ResilienceConfig,
) -> Engine {
    let mut e = Engine::new(
        EngineConfig::default()
            .with_threads(threads)
            .with_partitions(3)
            .with_morsel_rows(morsel_rows)
            .with_resilience(resilience),
    );
    e.register("t", table).unwrap();
    e
}

/// `resilience` plus a task deadline no task comes near — the watchdog
/// policy a `retries N` campaign carries (its deadline is 30 s).
fn watched(resilience: ResilienceConfig) -> ResilienceConfig {
    resilience.with_deadline(TaskDeadline::from_millis(60_000))
}

/// Every morsel event of `trace` is its partition's first: whole-partition
/// units.
fn assert_whole_partition_units(trace: &RunTrace) {
    for e in &trace.events {
        if let TraceEventKind::MorselDispatched { morsel, .. } = e.kind {
            assert_eq!(morsel, 0, "a whole-partition unit has one morsel");
        }
    }
}

/// The row reference of a narrow chain: walk `plan` down to its scan and
/// apply the row oracle's `eval_mask` + `Table::filter` per filter and
/// `eval_table` per projection to `input`. `None` when the chain
/// samples — sampling has no row reference, the two drivers check each
/// other there.
fn row_reference(plan: &LogicalPlan, input: &Table) -> Option<Table> {
    match plan {
        LogicalPlan::Scan { .. } => Some(input.clone()),
        LogicalPlan::Filter {
            input: below,
            predicate,
        } => {
            let t = row_reference(below, input)?;
            Some(
                t.filter(&row_oracle::eval_mask(predicate, &t).unwrap())
                    .unwrap(),
            )
        }
        LogicalPlan::Project {
            input: below,
            exprs,
            schema,
        } => {
            let t = row_reference(below, input)?;
            let cols = exprs
                .iter()
                .map(|(_, e)| row_oracle::eval_table(e, &t).unwrap());
            Some(Table::new(schema.clone(), cols.collect()).unwrap())
        }
        _ => None,
    }
}

/// What the row reference says `build_flow(steps, agg)` returns over
/// `table`. Without an aggregation that is the chain's reference on the
/// unsplit input; with one, the chain's reference on each partition the
/// engine scans is fed to an engine that runs only the aggregation, so the
/// wide operators see exactly the partitions the chain should produce.
fn row_expected(table: &Table, steps: &[Step], agg: bool) -> Option<Table> {
    let parts = PartitionedTable::split(table.clone(), 3).unwrap();
    let mut e = Engine::new(EngineConfig::default().with_threads(1).with_partitions(3));
    e.register_partitioned("t", parts.clone());
    let chain = build_flow(&e, steps, false);
    if !agg {
        return row_reference(chain.plan(), table);
    }
    let chained = parts
        .parts()
        .iter()
        .map(|p| row_reference(chain.plan(), p))
        .collect::<Option<Vec<_>>>()?;
    e.register_partitioned("t", PartitionedTable::new(chained).unwrap());
    Some(e.run(&build_flow(&e, &[], true)).unwrap().table)
}

/// Byte-exact serialization through the row codec: the comparison is
/// value-for-value including float bit patterns and row order.
fn bytes_of(t: &Table) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_table(t, &mut buf);
    buf
}

/// Every dispatched morsel must complete exactly once — even on failing or
/// cancelled waves, an in-flight morsel always pairs.
fn assert_morsels_paired(trace: &RunTrace) {
    let mut open: HashMap<(usize, usize, usize), i64> = HashMap::new();
    for e in &trace.events {
        match e.kind {
            TraceEventKind::MorselDispatched {
                stage,
                partition,
                morsel,
                ..
            } => *open.entry((stage, partition, morsel)).or_insert(0) += 1,
            TraceEventKind::MorselCompleted {
                stage,
                partition,
                morsel,
            } => *open.entry((stage, partition, morsel)).or_insert(0) -= 1,
            _ => {}
        }
    }
    for (key, balance) in &open {
        assert_eq!(
            *balance, 0,
            "morsel {key:?} dispatched/completed out of balance"
        );
    }
}

/// The task side of a journal — every attempt started, finished (and how),
/// retried, and every fault injected — as a sorted multiset, so two runs
/// compare regardless of which thread got where first.
fn task_journal(trace: &RunTrace) -> Vec<(u8, usize, usize, u32, bool)> {
    let mut out: Vec<_> = trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::TaskStarted {
                stage,
                partition,
                attempt,
            } => Some((0, stage, partition, attempt, true)),
            TraceEventKind::TaskFinished {
                stage,
                partition,
                attempt,
                ok,
            } => Some((1, stage, partition, attempt, ok)),
            TraceEventKind::TaskRetried {
                stage,
                partition,
                attempt,
            } => Some((2, stage, partition, attempt, true)),
            TraceEventKind::FaultInjected {
                stage,
                partition,
                attempt,
            } => Some((3, stage, partition, attempt, true)),
            _ => None,
        })
        .collect();
    out.sort_unstable();
    out
}

/// Crashes and panics at rates sixteen immediate attempts always outlast, so
/// a chaotic run's answer — and, where task coordinates do not depend on
/// `morsel_rows`, its whole task journal — is a function of the seed alone.
fn survivable_chaos(seed: u64) -> ResilienceConfig {
    ResilienceConfig::none()
        .with_retry(RetryPolicy::immediate(16))
        .with_chaos(ChaosPlan::crashes(0.35, seed).with_panic_rate(0.05))
}

/// How many property cases to run. The vendored proptest does not read
/// `PROPTEST_CASES`, so this suite honours it by hand — CI pins it.
fn proptest_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]

    /// The tentpole differential: morsel units ≡ whole-partition units ≡
    /// row reference (for sample-free chains), byte-for-byte, for every
    /// generated plan × morsel size × thread count.
    #[test]
    fn pipelined_matches_barrier_and_row_oracle(
        rows in 0usize..140,
        seed in 0u64..30,
        steps in arb_steps(),
        agg in any::<bool>(),
        morsel_rows in prop_oneof![Just(1usize), 2usize..64, Just(WHOLE)],
        threads in prop_oneof![Just(1usize), Just(2usize), Just(16usize)],
    ) {
        let table = random_table(rows, 3, seed);
        let none = ResilienceConfig::none;
        let pip = engine_mode(table.clone(), threads, morsel_rows, none());
        let whole = engine_mode(table.clone(), 1, WHOLE, none());
        let a = pip.run(&build_flow(&pip, &steps, agg)).unwrap();
        let b = whole.run(&build_flow(&whole, &steps, agg)).unwrap();
        prop_assert_eq!(
            bytes_of(&a.table),
            bytes_of(&b.table),
            "morsel units vs whole-partition units"
        );
        if let Some(want) = row_expected(&table, &steps, agg) {
            prop_assert_eq!(
                bytes_of(&a.table),
                bytes_of(&want),
                "morsel units vs row reference"
            );
        }
        // An aggregation's map side always pipelines, and the journal stays
        // paired.
        if agg {
            prop_assert!(a.trace.pipeline_totals().pipelines >= 1);
        }
        assert_morsels_paired(&a.trace);
        assert_whole_partition_units(&b.trace);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]

    /// The size rule is invisible: whatever `morsel_rows` is — so whichever
    /// waves of the plan fit one morsel and run on the calling thread — the
    /// output is the bytes of the run where every wave takes the pool
    /// (`morsel_rows` 1 fits nothing above one row), chaos and retries
    /// included. Under a watchdog policy no wave runs on the calling
    /// thread, and the bytes still agree.
    #[test]
    fn the_size_rule_is_invisible(
        rows in 0usize..200,
        seed in 0u64..30,
        steps in arb_steps(),
        agg in any::<bool>(),
        morsel_rows in 1usize..260,
        threads in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
        policy in any::<bool>(),
    ) {
        let table = random_table(rows, 3, seed);
        let resilience = || {
            let chaos = survivable_chaos(seed);
            if policy { watched(chaos) } else { chaos }
        };
        let sized = engine_mode(table.clone(), threads, morsel_rows, resilience());
        let pooled = engine_mode(table, threads, 1, resilience());
        let a = sized.run(&build_flow(&sized, &steps, agg)).unwrap();
        let b = pooled.run(&build_flow(&pooled, &steps, agg)).unwrap();
        prop_assert_eq!(bytes_of(&a.table), bytes_of(&b.table));
        assert_morsels_paired(&a.trace);
    }

    /// Policy on ≡ policy off: a task deadline changes who watches the
    /// clock, not what runs. Under survivable chaos the same units draw the
    /// same faults, so bytes and the whole task journal must match, and
    /// the chains and map sides still pipeline.
    #[test]
    fn a_watchdog_policy_is_invisible(
        rows in 0usize..200,
        seed in 0u64..30,
        steps in arb_steps(),
        agg in any::<bool>(),
        morsel_rows in 1usize..260,
        threads in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
    ) {
        let table = random_table(rows, 3, seed);
        let off = engine_mode(table.clone(), threads, morsel_rows, survivable_chaos(seed));
        let on = engine_mode(table, threads, morsel_rows, watched(survivable_chaos(seed)));
        let a = off.run(&build_flow(&off, &steps, agg)).unwrap();
        let b = on.run(&build_flow(&on, &steps, agg)).unwrap();
        prop_assert_eq!(bytes_of(&a.table), bytes_of(&b.table));
        prop_assert_eq!(task_journal(&a.trace), task_journal(&b.trace));
        prop_assert_eq!(
            a.trace.pipeline_totals().pipelines,
            b.trace.pipeline_totals().pipelines
        );
        assert_morsels_paired(&b.trace);
    }
}

/// Both sides of the rule, one row apart: the same chaotic plan over the
/// same 96 rows with `morsel_rows` 95 (the scan-side waves take the pool)
/// and 96 (they run on the calling thread). A partition is 32 rows, under
/// either morsel size, so units — and with them task coordinates and chaos
/// draws — are the same: output bytes and the task journal must be too.
/// The two-operator chain runs as morsel units; the lone filter runs one
/// task per partition, which the same rule applies to.
#[test]
fn one_row_either_side_of_a_morsel_gives_the_same_bytes_and_journal() {
    let table = random_table(96, 3, 17);
    let chain = [Step::FilterStrNotNull, Step::ProjectArith];
    for steps in [&chain[..], &chain[..1]] {
        for agg in [true, false] {
            let run = |morsel_rows: usize| {
                let e = engine_mode(table.clone(), 4, morsel_rows, survivable_chaos(5));
                e.run(&build_flow(&e, steps, agg)).unwrap()
            };
            let (pool, caller) = (run(95), run(96));
            let case = format!("{} narrow steps, agg {agg}", steps.len());
            assert_eq!(bytes_of(&pool.table), bytes_of(&caller.table), "{case}");
            assert_eq!(
                task_journal(&pool.trace),
                task_journal(&caller.trace),
                "{case}"
            );
            assert!(
                pool.trace.counters().count("dataflow.retries") > 0,
                "{case}: the chaos plan must have bitten"
            );
            assert_morsels_paired(&caller.trace);
            assert_eq!(
                pool.trace.pipeline_totals().morsels,
                caller.trace.pipeline_totals().morsels,
                "{case}"
            );
        }
    }
}

/// Error semantics are part of value-for-value: a wave that chaos kills must
/// surface the *same* error message on morsel units and on whole-partition
/// units, with and without a watchdog policy.
#[test]
fn injected_failure_messages_match_across_both_drivers() {
    let table = random_table(90, 3, 11);
    // Every way to run `steps` under `chaos`: morsel units of `morsel_rows`
    // on four threads or whole-partition units on one, policy off or on.
    let messages = |steps: &[Step], agg: bool, morsel_rows: usize, chaos: ResilienceConfig| {
        let mut out = Vec::new();
        for (threads, rows) in [(4, morsel_rows), (1, WHOLE)] {
            for resilience in [chaos.clone(), watched(chaos.clone())] {
                let e = engine_mode(table.clone(), threads, rows, resilience);
                out.push(e.run(&build_flow(&e, steps, agg)).unwrap_err().to_string());
            }
        }
        out
    };
    // Map-side aggregation wave (serial units, task = partition): crash
    // partition 1's only two attempts, exhausting the retry budget.
    let chaos = ChaosPlan::none()
        .with_targeted(TargetedFault {
            stage: 0,
            partition: 1,
            attempt: 0,
            kind: FaultKind::Crash,
        })
        .with_targeted(TargetedFault {
            stage: 0,
            partition: 1,
            attempt: 1,
            kind: FaultKind::Crash,
        });
    let resilience = ResilienceConfig::none()
        .with_retry(RetryPolicy::immediate(2))
        .with_chaos(chaos);
    let got = messages(&[], true, 8, resilience);
    assert!(got[0].contains("injected fault"), "{}", got[0]);
    assert!(got.iter().all(|m| *m == got[0]), "{got:#?}");

    // Fused narrow chain (independent units): the first unit of the wave is
    // partition 0's first morsel under any morsel size, so task 0 names the
    // same coordinate on morsel units and on whole-partition units.
    let chain_chaos = ChaosPlan::none().with_targeted(TargetedFault {
        stage: 0,
        partition: 0,
        attempt: 0,
        kind: FaultKind::Crash,
    });
    let steps = [Step::FilterStrNotNull, Step::ProjectArith];
    let got = messages(
        &steps,
        false,
        8,
        ResilienceConfig::none().with_chaos(chain_chaos),
    );
    assert!(got[0].contains("injected fault"), "{}", got[0]);
    assert!(got.iter().all(|m| *m == got[0]), "{got:#?}");
}

/// Determinism under stealing: the same plan 32 times on a 16-thread pool
/// with tiny morsels and per-run chaos delay seeds (which randomize which
/// worker is busy when, and therefore which worker runs what). Output must
/// be byte-identical every time, every run's morsel journal must pair, and
/// the journal must show units ran off their home worker
/// (`partition % workers`). 3 000 rows at 7 rows a morsel keeps the chain
/// and map waves on the pooled side of the size rule — a wave on the
/// calling thread has one worker, so every unit is home.
#[test]
fn stealing_is_invisible_across_32_chaotic_runs() {
    let table = random_table(3_000, 3, 7);
    let steps = [Step::FilterStrNotNull, Step::ProjectArith];
    let mut reference: Option<Vec<u8>> = None;
    let mut total_steals = 0u64;
    let mut total_morsels = 0u64;
    for run_seed in 0..32u64 {
        let resilience = ResilienceConfig::none().with_chaos(ChaosPlan::delays(
            0.25,
            400,
            run_seed.wrapping_mul(0x9e37_79b9).wrapping_add(1),
        ));
        let e = engine_mode(table.clone(), 16, 7, resilience);
        let result = e.run(&build_flow(&e, &steps, true)).unwrap();
        let bytes = bytes_of(&result.table);
        match &reference {
            None => reference = Some(bytes),
            Some(first) => assert_eq!(
                first, &bytes,
                "run {run_seed}: stealing or delay timing changed the output"
            ),
        }
        assert_morsels_paired(&result.trace);
        let totals = result.trace.pipeline_totals();
        assert!(totals.pipelines >= 1, "run {run_seed} never pipelined");
        total_steals += totals.stolen;
        total_morsels += totals.morsels;
    }
    assert!(total_morsels > 0);
    assert!(
        total_steals > 0,
        "32 sixteen-thread runs over 3 home workers never ran a unit away \
         from home — the pool is not sharing the wave"
    );
}

/// One morsel per row and one morsel per partition are the two degenerate
/// decompositions; both must agree with whole-partition units, policy off
/// or on, even when the chain has a Sample step (whose RNG draws are
/// order-sensitive).
#[test]
fn degenerate_morsel_sizes_agree_on_sampled_chains() {
    let table = random_table(257, 3, 23);
    let steps = [
        Step::FilterIntGt(-100),
        Step::SampleHalf(5),
        Step::ProjectArith,
    ];
    let whole = engine_mode(table.clone(), 1, WHOLE, ResilienceConfig::none());
    let expected = whole.run(&build_flow(&whole, &steps, false)).unwrap();
    for morsel_rows in [1usize, 2, 3, 86, WHOLE] {
        for resilience in [ResilienceConfig::none(), watched(ResilienceConfig::none())] {
            let pip = engine_mode(table.clone(), 4, morsel_rows, resilience);
            let got = pip.run(&build_flow(&pip, &steps, false)).unwrap();
            assert_eq!(
                bytes_of(&got.table),
                bytes_of(&expected.table),
                "morsel_rows {morsel_rows}"
            );
        }
    }
}

/// Speculation reaches morsel waves: chaos delays one unit of an
/// independent chain by 400 ms on its first attempt; once four units have
/// finished, the straggler gets a backup attempt (which the targeted fault
/// does not hit) that wins, and the cancelled original wakes promptly.
#[test]
fn speculation_rescues_a_delayed_morsel() {
    let table = random_table(300, 3, 29);
    let steps = [Step::FilterStrNotNull, Step::ProjectArith];
    let calm = engine_mode(table.clone(), 4, 10, ResilienceConfig::none());
    let want = calm.run(&build_flow(&calm, &steps, false)).unwrap();
    let resilience = ResilienceConfig::none()
        .with_speculation(SpeculationPolicy::new(3.0).with_min_samples(4))
        .with_chaos(ChaosPlan::none().with_targeted(TargetedFault {
            stage: 0,
            partition: 7,
            attempt: 0,
            kind: FaultKind::Delay { micros: 400_000 },
        }));
    let e = engine_mode(table, 4, 10, resilience);
    let flow = build_flow(&e, &steps, false);
    let start = std::time::Instant::now();
    let got = e.run(&flow).unwrap();
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(300),
        "speculation must beat the 400ms straggler (took {elapsed:?})"
    );
    // The delayed unit's backup won. On a loaded host another unit may
    // also cross the 3x-median line and be rescued; that changes no byte.
    assert!(got.trace.events.iter().any(|e| matches!(
        e.kind,
        TraceEventKind::SpeculativeWon {
            stage: 0,
            partition: 7,
            ..
        }
    )));
    assert!(got.trace.pipeline_totals().pipelines >= 1);
    assert_morsels_paired(&got.trace);
    assert_eq!(bytes_of(&got.table), bytes_of(&want.table));
}

/// Under a deadline or speculation policy a two-step chain and an
/// aggregation map side still run as morsel waves, with paired morsel
/// events and the bytes of the run with no policy.
#[test]
fn watchdog_policies_keep_chains_and_map_sides_on_morsels() {
    let table = random_table(600, 3, 31);
    let steps = [Step::FilterStrNotNull, Step::ProjectArith];
    let calm = engine_mode(table.clone(), 2, 16, ResilienceConfig::none());
    let want = calm.run(&build_flow(&calm, &steps, true)).unwrap();
    assert_eq!(want.trace.pipeline_totals().pipelines, 2);
    for resilience in [
        watched(ResilienceConfig::none()),
        ResilienceConfig::none().with_speculation(SpeculationPolicy::new(1_000.0)),
    ] {
        let e = engine_mode(table.clone(), 2, 16, resilience);
        let got = e.run(&build_flow(&e, &steps, true)).unwrap();
        let totals = got.trace.pipeline_totals();
        assert_eq!(totals.pipelines, 2, "the chain and the map side");
        assert_eq!(totals.morsels, want.trace.pipeline_totals().morsels);
        assert_morsels_paired(&got.trace);
        assert_eq!(bytes_of(&got.table), bytes_of(&want.table));
    }
}

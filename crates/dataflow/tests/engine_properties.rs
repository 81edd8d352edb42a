//! Property-based tests for the dataflow engine's end-to-end invariants:
//! the optimiser never changes results, parallelism never changes results,
//! a map-side combined aggregation matches the raw one a `CountDistinct`
//! forces, and the engine matches a naive single-threaded reference
//! implementation.

use proptest::prelude::*;

use toreador_data::generate::random_table;
use toreador_data::prelude::*;
use toreador_dataflow::optimizer::OptimizerConfig;
use toreador_dataflow::prelude::*;

/// A random but always-valid pipeline description over random_table's
/// `c0:Int, c1:Float, c2:Str` columns.
#[derive(Debug, Clone)]
enum Step {
    FilterIntGt(i64),
    FilterStrNotNull,
    ProjectArith,
    Distinct,
    SampleHalf(u64),
    Limit(usize),
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            (-500i64..500).prop_map(Step::FilterIntGt),
            Just(Step::FilterStrNotNull),
            Just(Step::ProjectArith),
            Just(Step::Distinct),
            (0u64..10).prop_map(Step::SampleHalf),
            (1usize..50).prop_map(Step::Limit),
        ],
        0..4,
    )
}

fn build_flow(engine: &Engine, steps: &[Step]) -> Dataflow {
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
            Step::Distinct => flow.distinct(),
            Step::SampleHalf(seed) => flow.sample(0.5, *seed).unwrap(),
            Step::Limit(n) => flow.limit(*n),
        };
    }
    flow
}

/// Canonical row multiset for order-insensitive comparison.
fn canonical(t: &Table) -> Vec<String> {
    let mut rows: Vec<String> = t.iter_rows().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

fn engine_with(table: Table, threads: usize, optimizer: OptimizerConfig) -> Engine {
    let mut e = Engine::new(
        EngineConfig::default()
            .with_threads(threads)
            .with_partitions(3)
            .with_optimizer(optimizer),
    );
    e.register("t", table).unwrap();
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn optimizer_never_changes_results(rows in 0usize..120, seed in 0u64..30, steps in arb_steps()) {
        // Limit interacts with row order across partitions, so compare by
        // count for limit steps and by multiset otherwise.
        let table = random_table(rows, 3, seed);
        let opt = engine_with(table.clone(), 2, OptimizerConfig::default());
        let raw = engine_with(table, 2, OptimizerConfig::disabled());
        let flow_a = build_flow(&opt, &steps);
        let flow_b = build_flow(&raw, &steps);
        let a = opt.run(&flow_a).unwrap().table;
        let b = raw.run(&flow_b).unwrap().table;
        if steps.iter().any(|s| matches!(s, Step::Limit(_))) {
            prop_assert_eq!(a.num_rows(), b.num_rows());
        } else {
            prop_assert_eq!(canonical(&a), canonical(&b));
        }
    }

    #[test]
    fn thread_count_never_changes_results(rows in 0usize..120, seed in 0u64..30, steps in arb_steps()) {
        let table = random_table(rows, 3, seed);
        let one = engine_with(table.clone(), 1, OptimizerConfig::default());
        let many = engine_with(table, 6, OptimizerConfig::default());
        let fa = build_flow(&one, &steps);
        let fb = build_flow(&many, &steps);
        let a = one.run(&fa).unwrap().table;
        let b = many.run(&fb).unwrap().table;
        if steps.iter().any(|s| matches!(s, Step::Limit(_))) {
            prop_assert_eq!(a.num_rows(), b.num_rows());
        } else {
            prop_assert_eq!(canonical(&a), canonical(&b));
        }
    }

    #[test]
    fn partial_and_raw_aggregation_agree(rows in 1usize..150, seed in 0u64..30) {
        let table = random_table(rows, 3, seed);
        let e = engine_with(table, 3, OptimizerConfig::default());
        let aggs = vec![
            AggExpr::new(AggFunc::Count, "c0", "n"),
            AggExpr::new(AggFunc::Sum, "c0", "s"),
            AggExpr::new(AggFunc::Mean, "c1", "m"),
            AggExpr::new(AggFunc::Min, "c1", "lo"),
            AggExpr::new(AggFunc::Max, "c0", "hi"),
        ];
        // The same aggregates beside a `CountDistinct` take the raw path.
        let mut raw_aggs = aggs.clone();
        raw_aggs.push(AggExpr::new(AggFunc::CountDistinct, "c0", "d"));
        let run = |aggs: Vec<AggExpr>| {
            let flow = e.flow("t").unwrap()
                .aggregate(&["c2"], aggs).unwrap()
                .sort(&["c2"], false).unwrap();
            e.run(&flow).unwrap().table
        };
        let a = run(aggs);
        let b = run(raw_aggs).project(&["c2", "n", "s", "m", "lo", "hi"]).unwrap();
        prop_assert_eq!(a.num_rows(), b.num_rows());
        for (ra, rb) in a.iter_rows().zip(b.iter_rows()) {
            for (va, vb) in ra.iter().zip(&rb) {
                match (va.as_float(), vb.as_float()) {
                    (Ok(fa), Ok(fb)) => prop_assert!((fa - fb).abs() <= fa.abs().max(1.0) * 1e-9),
                    _ => prop_assert_eq!(format!("{va:?}"), format!("{vb:?}")),
                }
            }
        }
    }

    #[test]
    fn engine_aggregate_matches_reference(rows in 1usize..120, seed in 0u64..30) {
        let table = random_table(rows, 3, seed);
        // Reference: single-threaded count per c2 value.
        use std::collections::HashMap;
        let mut expected: HashMap<String, i64> = HashMap::new();
        for row in table.iter_rows() {
            if !row[0].is_null() {
                *expected.entry(format!("{:?}", row[2])).or_insert(0) += 1;
            } else {
                expected.entry(format!("{:?}", row[2])).or_insert(0);
            }
        }
        let e = engine_with(table, 4, OptimizerConfig::default());
        let flow = e.flow("t").unwrap()
            .aggregate(&["c2"], vec![AggExpr::new(AggFunc::Count, "c0", "n")]).unwrap();
        let out = e.run(&flow).unwrap().table;
        prop_assert_eq!(out.num_rows(), expected.len());
        for row in out.iter_rows() {
            let key = format!("{:?}", row[0]);
            prop_assert_eq!(row[1].as_int().unwrap(), expected[&key], "group {}", key);
        }
    }

    #[test]
    fn join_matches_nested_loop_reference(l_rows in 0usize..60, r_rows in 0usize..60, seed in 0u64..20) {
        let left = random_table(l_rows, 2, seed);
        let right = random_table(r_rows, 2, seed.wrapping_add(1));
        // Reference inner join on c0.
        let mut expected = 0usize;
        for lr in left.iter_rows() {
            if lr[0].is_null() { continue; }
            for rr in right.iter_rows() {
                if rr[0].is_null() { continue; }
                if lr[0].group_eq(&rr[0]) {
                    expected += 1;
                }
            }
        }
        let mut e = Engine::new(EngineConfig::default().with_threads(3).with_partitions(3));
        e.register("l", left).unwrap();
        e.register("r", right).unwrap();
        let flow = e.flow("l").unwrap()
            .join(e.flow("r").unwrap(), &["c0"], &["c0"], JoinType::Inner).unwrap();
        let out = e.run(&flow).unwrap().table;
        prop_assert_eq!(out.num_rows(), expected);
    }

    #[test]
    fn left_join_keeps_every_left_row(l_rows in 0usize..60, r_rows in 0usize..60, seed in 0u64..20) {
        let left = random_table(l_rows, 2, seed);
        let right = random_table(r_rows, 2, seed.wrapping_add(7));
        let mut expected = 0usize;
        for lr in left.iter_rows() {
            let matches = if lr[0].is_null() {
                0
            } else {
                right
                    .iter_rows()
                    .filter(|rr| !rr[0].is_null() && lr[0].group_eq(&rr[0]))
                    .count()
            };
            expected += matches.max(1);
        }
        let mut e = Engine::new(EngineConfig::default().with_threads(2).with_partitions(2));
        e.register("l", left).unwrap();
        e.register("r", right).unwrap();
        let flow = e.flow("l").unwrap()
            .join(e.flow("r").unwrap(), &["c0"], &["c0"], JoinType::Left).unwrap();
        let out = e.run(&flow).unwrap().table;
        prop_assert_eq!(out.num_rows(), expected);
    }

    #[test]
    fn fault_injection_never_changes_results(rows in 1usize..80, seed in 0u64..20) {
        let table = random_table(rows, 3, seed);
        let clean = engine_with(table.clone(), 3, OptimizerConfig::default());
        let mut faulty = Engine::new(
            EngineConfig::default()
                .with_threads(3)
                .with_partitions(3)
                .with_resilience(
                    ResilienceConfig::none()
                        .with_retry(RetryPolicy::immediate(25))
                        .with_chaos(ChaosPlan::crashes(0.3, seed)),
                ),
        );
        faulty.register("t", table).unwrap();
        let make = |e: &Engine| {
            e.flow("t").unwrap()
                .filter(col("c0").is_not_null()).unwrap()
                .aggregate(&["c2"], vec![AggExpr::new(AggFunc::Sum, "c0", "s")]).unwrap()
                .sort(&["c2"], false).unwrap()
        };
        let a = clean.run(&make(&clean)).unwrap().table;
        let b = faulty.run(&make(&faulty)).unwrap().table;
        prop_assert_eq!(canonical(&a), canonical(&b));
    }
}

//! Differential property tests for out-of-core execution: a memory budget
//! changes *where* wide-operator state lives, never *what* comes out.
//!
//! The oracle is the unbudgeted engine. For every random pipeline and
//! every budget — including zero (everything spills) and larger-than-data
//! (nothing spills) — the budgeted run must
//! produce a value-identical table, not merely an approximately equal one:
//! each shuffle target's spilled runs are read back in the order they were
//! staged, so even float fold order is preserved.

use proptest::prelude::*;

use toreador_data::generate::random_table;
use toreador_data::prelude::*;
use toreador_dataflow::prelude::*;

/// Budgets that matter: zero (spill everything), tiny and small (spill
/// some), and larger than any test input (spill nothing).
fn arb_budget() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..512, 512u64..(64 << 10), Just(1u64 << 30),]
}

fn engine_with(table: Table, budget: Option<u64>) -> Engine {
    let mut config = EngineConfig::default().with_threads(3).with_partitions(3);
    if let Some(b) = budget {
        config = config.with_memory_budget(b);
    }
    let mut e = Engine::new(config);
    e.register("t", table).unwrap();
    e
}

/// The suite's case count; the vendored proptest does not read
/// `PROPTEST_CASES`, so this suite honours it by hand — CI widens it.
fn proptest_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]

    #[test]
    fn spilling_aggregation_is_value_identical_to_in_memory(
        rows in 1usize..200,
        seed in 0u64..30,
        budget in arb_budget(),
        raw in any::<bool>(),
    ) {
        let table = random_table(rows, 3, seed);
        let mut aggs = vec![
            AggExpr::new(AggFunc::Count, "c0", "n"),
            AggExpr::new(AggFunc::Sum, "c1", "s"),
            AggExpr::new(AggFunc::Mean, "c1", "m"),
        ];
        if raw {
            // No map-side combine: every row shuffles.
            aggs.push(AggExpr::new(AggFunc::CountDistinct, "c0", "d"));
        }
        let make = |e: &Engine| {
            e.flow("t").unwrap()
                .aggregate(&["c2"], aggs.clone()).unwrap()
                .sort(&["c2"], false).unwrap()
        };
        let oracle = engine_with(table.clone(), None);
        let budgeted = engine_with(table, Some(budget));
        let a = oracle.run(&make(&oracle)).unwrap();
        let b = budgeted.run(&make(&budgeted)).unwrap();
        // Value-identical, float sums included: spilled runs merge back in
        // the order they were staged, so the fold order is unchanged.
        prop_assert_eq!(&a.table, &b.table);
        prop_assert_eq!(
            a.trace.spill_totals(),
            SpillTotals::default(),
            "oracle never spills"
        );
        let totals = b.trace.spill_totals();
        if budget == 0 {
            prop_assert!(totals.spills > 0, "zero budget must spill: {totals:?}");
        }
        if budget >= 1 << 30 {
            prop_assert_eq!(
                totals,
                SpillTotals::default(),
                "roomy budget must not spill"
            );
        }
    }

    #[test]
    fn spilling_join_sort_distinct_are_value_identical(
        l_rows in 0usize..80,
        r_rows in 0usize..80,
        seed in 0u64..20,
        budget in arb_budget(),
    ) {
        let left = random_table(l_rows, 2, seed);
        let right = random_table(r_rows, 2, seed.wrapping_add(11));
        let run = |budget: Option<u64>| {
            let mut config = EngineConfig::default().with_threads(2).with_partitions(3);
            if let Some(b) = budget {
                config = config.with_memory_budget(b);
            }
            let mut e = Engine::new(config);
            e.register("l", left.clone()).unwrap();
            e.register("r", right.clone()).unwrap();
            let flow = e.flow("l").unwrap()
                .join(e.flow("r").unwrap(), &["c0"], &["c0"], JoinType::Inner).unwrap()
                .distinct()
                .sort(&["c0"], false).unwrap();
            e.run(&flow).unwrap()
        };
        let a = run(None);
        let b = run(Some(budget));
        prop_assert_eq!(&a.table, &b.table);
        if budget >= 1 << 30 {
            prop_assert_eq!(b.trace.spill_totals(), SpillTotals::default());
        }
    }
}

//! Property-based tests spanning the whole stack: random campaigns through
//! the real compiler and engine.

#[path = "../crates/dataflow/tests/support/row_oracle.rs"]
mod row_oracle;

use proptest::prelude::*;

use toreador_core::prelude::*;
use toreador_data::generate::clickstream;

/// Generate a random-but-valid campaign DSL over the clickstream schema.
fn arb_campaign() -> impl Strategy<Value = String> {
    let predicate = prop_oneof![
        Just("price > 10"),
        Just("action == 'purchase'"),
        Just("country != 'IT' and price is not null"),
        Just("product_id % 2 == 0"),
    ];
    let group = prop_oneof![Just("country"), Just("category"), Just("action")];
    let agg = prop_oneof![
        Just("count:event_id:n"),
        Just("sum:price:total"),
        Just("mean:price:avg,count:event_id:n"),
    ];
    let prefer = prop_oneof![Just("quality"), Just("cost"), Just("balanced")];
    (predicate, group, agg, prefer, 0u64..100, any::<bool>()).prop_map(
        |(p, g, a, pref, seed, sample)| {
            let mut dsl = format!("campaign generated on clicks\nprefer {pref}\nseed {seed}\n");
            if sample {
                dsl.push_str("goal sampling fraction=0.5\n");
            }
            dsl.push_str(&format!("goal filtering predicate=\"{p}\"\n"));
            dsl.push_str(&format!("goal aggregation group_by={g} agg={a}\n"));
            dsl
        },
    )
}

/// Typed random expression trees over `random_table`'s 5-column schema
/// (c0 Int, c1 Float, c2 Str, c3 Bool, c4 Timestamp), used to pit the
/// vectorized engine against the row-at-a-time oracle.
mod arb_exprs {
    use proptest::prelude::*;
    use proptest::strategy::Union;
    use toreador_data::value::{DataType, Value};
    use toreador_dataflow::expr::{col, lit, Expr, Func};

    /// A leaf of type `ty`: its column of the table, or a literal. Without
    /// `columns`, literals only.
    fn leaf(ty: DataType, columns: bool) -> BoxedStrategy<Expr> {
        let (column, literals) = match ty {
            DataType::Int => (
                "c0",
                vec![
                    (-5i64..5).prop_map(|i| lit(Value::Int(i))).boxed(),
                    Just(lit(Value::Int(i64::MAX))).boxed(),
                    Just(lit(Value::Int(i64::MIN))).boxed(),
                ],
            ),
            DataType::Float => (
                "c1",
                vec![
                    (-4i32..4)
                        .prop_map(|i| lit(Value::Float(f64::from(i) / 2.0)))
                        .boxed(),
                    Just(lit(Value::Float(f64::NAN))).boxed(),
                    Just(lit(Value::Float(-0.0))).boxed(),
                    Just(lit(Value::Float(f64::INFINITY))).boxed(),
                ],
            ),
            DataType::Str => (
                "c2",
                ["", "42", "-7.5", "true", "héllo"]
                    .map(|s| Just(lit(s)).boxed())
                    .into(),
            ),
            DataType::Bool => (
                "c3",
                vec![
                    Just(lit(Value::Bool(true))).boxed(),
                    Just(lit(Value::Bool(false))).boxed(),
                ],
            ),
            DataType::Timestamp => (
                "c4",
                vec![
                    Just(lit(Value::Timestamp(0))).boxed(),
                    (-2i64..100)
                        .prop_map(|h| lit(Value::Timestamp(h * 3_600_000)))
                        .boxed(),
                ],
            ),
        };
        let column = columns.then(|| Just(col(column)).boxed());
        Union::new(column.into_iter().chain(literals).collect()).boxed()
    }

    fn cmp(a: Expr, b: Expr, op: usize) -> Expr {
        match op % 6 {
            0 => a.eq(b),
            1 => a.not_eq(b),
            2 => a.lt(b),
            3 => a.lt_eq(b),
            4 => a.gt(b),
            _ => a.gt_eq(b),
        }
    }

    /// A random expression whose static type is `ty` (modulo inference
    /// rejecting some mixed conditionals — the caller checks both engines
    /// reject identically in that case).
    fn typed(ty: DataType, depth: u32, columns: bool) -> BoxedStrategy<Expr> {
        if depth == 0 {
            return leaf(ty, columns);
        }
        let d = depth - 1;
        use DataType::*;
        match ty {
            Int => prop_oneof![
                leaf(Int, columns),
                (typed(Int, d, columns), typed(Int, d, columns), 0..4usize).prop_map(
                    |(a, b, op)| match op {
                        0 => a.add(b),
                        1 => a.sub(b),
                        2 => a.mul(b),
                        _ => a.modulo(b),
                    }
                ),
                typed(Int, d, columns).prop_map(Expr::neg),
                typed(Int, d, columns).prop_map(|a| Expr::call(Func::Abs, vec![a])),
                typed(Str, d, columns).prop_map(|a| Expr::call(Func::Length, vec![a])),
                typed(Timestamp, d, columns).prop_map(|a| Expr::call(Func::HourOfDay, vec![a])),
                typed(Timestamp, d, columns).prop_map(|a| Expr::call(Func::DayIndex, vec![a])),
                typed(Float, d, columns).prop_map(|a| a.cast(Int)),
                typed(Str, d, columns).prop_map(|a| a.cast(Int)), // usually fails to parse
                (
                    typed(Bool, d, columns),
                    typed(Int, d, columns),
                    typed(Int, d, columns)
                )
                    .prop_map(|(c, t, e)| Expr::if_then(c, t, e)),
                (typed(Int, d, columns), typed(Int, d, columns))
                    .prop_map(|(a, b)| Expr::coalesce(vec![a, b])),
            ]
            .boxed(),
            Float => prop_oneof![
                leaf(Float, columns),
                (
                    typed(Float, d, columns),
                    typed(Float, d, columns),
                    0..5usize
                )
                    .prop_map(|(a, b, op)| match op {
                        0 => a.add(b),
                        1 => a.sub(b),
                        2 => a.mul(b),
                        3 => a.div(b),
                        _ => a.modulo(b),
                    }),
                (typed(Int, d, columns), typed(Float, d, columns)).prop_map(|(a, b)| a.add(b)),
                (typed(Int, d, columns), typed(Int, d, columns)).prop_map(|(a, b)| a.div(b)),
                typed(Float, d, columns).prop_map(|a| Expr::call(Func::Sqrt, vec![a])),
                typed(Float, d, columns).prop_map(|a| Expr::call(Func::Ln, vec![a])),
                typed(Float, d, columns).prop_map(|a| Expr::call(Func::Floor, vec![a])),
                typed(Float, d, columns).prop_map(|a| Expr::call(Func::Ceil, vec![a])),
                typed(Int, d, columns).prop_map(|a| a.cast(Float)),
                typed(Str, d, columns).prop_map(|a| a.cast(Float)), // usually fails to parse
                // Mixed-type branches: the Int side widens to the node's
                // frozen Float type before anything above computes on it.
                (
                    typed(Bool, d, columns),
                    typed(Int, d, columns),
                    typed(Float, d, columns)
                )
                    .prop_map(|(c, t, e)| Expr::if_then(c, t, e)),
                (typed(Float, d, columns), typed(Int, d, columns))
                    .prop_map(|(a, b)| Expr::coalesce(vec![a, b])),
            ]
            .boxed(),
            Bool => prop_oneof![
                leaf(Bool, columns),
                (typed(Int, d, columns), typed(Int, d, columns), 0..6usize)
                    .prop_map(|(a, b, o)| cmp(a, b, o)),
                (
                    typed(Float, d, columns),
                    typed(Float, d, columns),
                    0..6usize
                )
                    .prop_map(|(a, b, o)| cmp(a, b, o)),
                (typed(Int, d, columns), typed(Float, d, columns), 0..6usize)
                    .prop_map(|(a, b, o)| cmp(a, b, o)),
                (typed(Str, d, columns), typed(Str, d, columns), 0..6usize)
                    .prop_map(|(a, b, o)| cmp(a, b, o)),
                (
                    typed(Timestamp, d, columns),
                    typed(Timestamp, d, columns),
                    0..6usize
                )
                    .prop_map(|(a, b, o)| cmp(a, b, o)),
                (typed(Bool, d, columns), typed(Bool, d, columns)).prop_map(|(a, b)| a.and(b)),
                (typed(Bool, d, columns), typed(Bool, d, columns)).prop_map(|(a, b)| a.or(b)),
                typed(Bool, d, columns).prop_map(Expr::not),
                typed(Float, d, columns).prop_map(Expr::is_null),
                typed(Str, d, columns).prop_map(Expr::is_null),
                typed(Int, d, columns).prop_map(Expr::is_not_null),
                typed(Timestamp, d, columns).prop_map(Expr::is_not_null),
                typed(Int, d, columns).prop_map(|a| a.cast(Bool)),
                (
                    typed(Bool, d, columns),
                    typed(Bool, d, columns),
                    typed(Bool, d, columns)
                )
                    .prop_map(|(c, t, e)| Expr::if_then(c, t, e)),
            ]
            .boxed(),
            Str => prop_oneof![
                leaf(Str, columns),
                typed(Str, d, columns).prop_map(|a| Expr::call(Func::Lower, vec![a])),
                typed(Str, d, columns).prop_map(|a| Expr::call(Func::Upper, vec![a])),
                typed(Int, d, columns).prop_map(|a| a.cast(Str)),
                typed(Float, d, columns).prop_map(|a| a.cast(Str)),
                typed(Bool, d, columns).prop_map(|a| a.cast(Str)),
                typed(Timestamp, d, columns).prop_map(|a| a.cast(Str)),
                (typed(Str, d, columns), typed(Str, d, columns))
                    .prop_map(|(a, b)| Expr::coalesce(vec![a, b])),
                (
                    typed(Bool, d, columns),
                    typed(Str, d, columns),
                    typed(Str, d, columns)
                )
                    .prop_map(|(c, t, e)| Expr::if_then(c, t, e)),
            ]
            .boxed(),
            Timestamp => prop_oneof![
                leaf(Timestamp, columns),
                typed(Int, d, columns).prop_map(|a| a.cast(Timestamp)),
                (typed(Timestamp, d, columns), typed(Timestamp, d, columns))
                    .prop_map(|(a, b)| Expr::coalesce(vec![a, b])),
                (
                    typed(Bool, d, columns),
                    typed(Timestamp, d, columns),
                    typed(Timestamp, d, columns)
                )
                    .prop_map(|(c, t, e)| Expr::if_then(c, t, e)),
            ]
            .boxed(),
        }
    }

    /// A random expression of any result type, depth ≤ 3, plus E10's
    /// filter (a float threshold and a string exclusion) over this table's
    /// columns, so kernel selection ≡ row mask is pinned on it.
    pub fn any_expr() -> BoxedStrategy<Expr> {
        use DataType::*;
        prop_oneof![
            typed(Int, 3, true),
            typed(Float, 3, true),
            typed(Bool, 3, true),
            typed(Str, 3, true),
            typed(Timestamp, 3, true),
            Just(col("c1").gt(lit(50.0)).and(col("c2").not_eq(lit("view")))),
        ]
        .boxed()
    }

    /// A random column-free expression of any result type, depth ≤ 3:
    /// every leaf is a literal, so constant folding takes the whole tree.
    pub fn any_constant_expr() -> BoxedStrategy<Expr> {
        use DataType::*;
        prop_oneof![
            typed(Int, 3, false),
            typed(Float, 3, false),
            typed(Bool, 3, false),
            typed(Str, 3, false),
            typed(Timestamp, 3, false),
        ]
        .boxed()
    }
}

/// Observable equality of two columns: same type, length, validity, and
/// valid slots equal down to float bit-sign (`{:?}` distinguishes `-0.0`
/// and `NaN`). Dead slots hold unspecified defaults and are ignored —
/// which derived `PartialEq` on `Column` would not do.
fn columns_identical(a: &toreador_data::column::Column, b: &toreador_data::column::Column) -> bool {
    a.data_type() == b.data_type()
        && a.len() == b.len()
        && (0..a.len()).all(|i| format!("{:?}", a.value(i)) == format!("{:?}", b.value(i)))
}

fn tables_identical(a: &toreador_data::table::Table, b: &toreador_data::table::Table) -> bool {
    a.schema() == b.schema()
        && a.num_rows() == b.num_rows()
        && a.columns()
            .iter()
            .zip(b.columns())
            .all(|(x, y)| columns_identical(x, y))
}

/// Project `expr` over `random_table(rows, 5, seed)` through `Engine::run`,
/// optimizer on, and hold the column to the row reference's: identical, or
/// both sides fail. Returns the executed plan of a run that succeeded.
fn engine_projection_agrees(
    expr: &toreador_dataflow::expr::Expr,
    rows: usize,
    seed: u64,
) -> Result<Option<std::sync::Arc<toreador_dataflow::logical::LogicalPlan>>, TestCaseError> {
    use toreador_data::generate::random_table;
    use toreador_dataflow::prelude::*;

    let t = random_table(rows, 5, seed);
    let by_row = row_oracle::eval_table(expr, &t);
    let mut engine = Engine::new(EngineConfig::default().with_threads(1));
    engine.register("t", t).unwrap();
    match engine.flow("t").unwrap().project(vec![("v", expr.clone())]) {
        Err(_) => prop_assert!(
            by_row.is_err(),
            "project refused {expr}, the row reference ran"
        ),
        Ok(flow) => match (by_row, engine.run(&flow)) {
            (Ok(want), Ok(got)) => {
                prop_assert!(
                    columns_identical(&want, got.table.column("v").unwrap()),
                    "engine disagrees on {expr}:\n row: {want:?}\n got: {:?}",
                    got.table
                );
                return Ok(Some(got.executed_plan));
            }
            (Err(_), Err(_)) => {}
            (want, got) => prop_assert!(
                false,
                "only one side failed on {expr}: row={want:?} engine={:?}",
                got.map(|r| r.table)
            ),
        },
    }
    Ok(None)
}

// Differential properties of the vectorized expression engine: 256 cases
// by default (the acceptance bar), `PROPTEST_CASES` overrides.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256),
    ))]

    #[test]
    fn vectorized_engine_matches_row_oracle(
        expr in arb_exprs::any_expr(),
        rows in 1usize..120,
        seed in 0u64..1000,
    ) {
        use toreador_data::generate::random_table;
        use toreador_data::value::DataType;
        use toreador_dataflow::prelude::BoundExpr;

        let t = random_table(rows, 5, seed);
        let by_row = row_oracle::eval_table(&expr, &t);
        match BoundExpr::bind(&expr, t.schema()) {
            // Binding is the only type checker: what it rejects, the row
            // reference cannot evaluate either.
            Err(_) => prop_assert!(by_row.is_err()),
            Ok(bound) => {
                let by_batch = bound.eval_column(&t);
                match (by_row, by_batch) {
                    (Ok(a), Ok(b)) => prop_assert!(
                        columns_identical(&a, &b),
                        "engines disagree on {expr:?}:\n row: {a:?}\n vec: {b:?}"
                    ),
                    (Err(_), Err(_)) => {} // both reject (e.g. a failed cast)
                    (a, b) => prop_assert!(
                        false,
                        "only one engine errored on {expr:?}: row={a:?} vec={b:?}"
                    ),
                }
                if bound.output_type() == DataType::Bool {
                    if let (Ok(mask), Ok(sel)) = (row_oracle::eval_mask(&expr, &t), bound.eval_selection(&t)) {
                        let from_mask: Vec<u32> = mask
                            .iter()
                            .enumerate()
                            .filter_map(|(i, m)| m.then_some(i as u32))
                            .collect();
                        prop_assert_eq!(sel, from_mask);
                    }
                }
            }
        }
    }

    /// Projecting an expression through `Engine::run` — optimizer on, so
    /// constant folding takes part — gives the row reference's column, and
    /// fails exactly when the row reference fails.
    #[test]
    fn engine_projection_matches_row_oracle(
        expr in arb_exprs::any_expr(),
        rows in 1usize..60,
        seed in 0u64..1000,
    ) {
        engine_projection_agrees(&expr, rows, seed)?;
    }

    /// The same for column-free trees: constant folding computes each one
    /// on the kernels before execution, so here the row reference holds
    /// every operator's constant path to account, and a tree that runs
    /// must have been folded to one literal.
    #[test]
    fn constant_folding_matches_row_oracle(
        expr in arb_exprs::any_constant_expr(),
        rows in 1usize..4,
        seed in 0u64..1000,
    ) {
        use toreador_data::value::Value;
        use toreador_dataflow::prelude::*;

        if let Some(plan) = engine_projection_agrees(&expr, rows, seed)? {
            let folded = match plan.as_ref() {
                LogicalPlan::Project { exprs, .. } => match &exprs[0].1 {
                    Expr::Cast { expr, .. } => matches!(**expr, Expr::Literal(Value::Null)),
                    e => matches!(e, Expr::Literal(_)),
                },
                _ => false,
            };
            prop_assert!(folded, "{expr} ran unfolded: {plan:?}");
        }
    }

    /// A filter->project chain with a sample step first, last or absent
    /// gives the same table on morsel units, on whole-partition units (one
    /// thread, a morsel bigger than any partition) and under a watchdog
    /// policy; without a sample step, also the row reference's on the
    /// unsplit input.
    #[test]
    fn narrow_chain_execution_is_mode_invariant(
        rows in 20usize..250,
        seed in 0u64..200,
        fraction in 0.0f64..1.0,
        sample_at in prop_oneof![Just("first"), Just("last"), Just("nowhere")],
        morsel_rows in 1usize..64,
    ) {
        use toreador_data::generate::random_table;
        use toreador_data::value::DataType;
        use toreador_dataflow::prelude::*;

        let table = random_table(rows, 5, seed);
        let predicate = col("c0").gt(lit(0i64)).or(col("c3"));
        let projections = vec![
            ("k", col("c0").add(col("c1").cast(DataType::Int))),
            ("len", Expr::call(Func::Length, vec![col("c2")])),
            ("ratio", col("c1").div(col("c0"))),
        ];
        let run = |threads: usize, morsel_rows: usize, resilience: ResilienceConfig| {
            let mut engine = Engine::new(
                EngineConfig::default()
                    .with_threads(threads)
                    .with_partitions(3)
                    .with_morsel_rows(morsel_rows)
                    .with_resilience(resilience),
            );
            engine.register("t", table.clone()).unwrap();
            let mut flow = engine.flow("t").unwrap();
            if sample_at == "first" {
                flow = flow.sample(fraction, seed).unwrap();
            }
            flow = flow
                .filter(predicate.clone())
                .unwrap()
                .project(projections.clone())
                .unwrap();
            if sample_at == "last" {
                flow = flow.sample(fraction, seed).unwrap();
            }
            engine.run(&flow).unwrap().table
        };
        let morsels = run(2, morsel_rows, ResilienceConfig::none());
        let whole = run(1, 1 << 20, ResilienceConfig::none());
        prop_assert!(tables_identical(&morsels, &whole), "morsel units != whole-partition units");
        let watched = run(
            2,
            morsel_rows,
            ResilienceConfig::none().with_deadline(TaskDeadline::from_millis(60_000)),
        );
        prop_assert!(tables_identical(&morsels, &watched), "a task deadline changed the output");
        if sample_at == "nowhere" {
            let kept = table
                .filter(&row_oracle::eval_mask(&predicate, &table).unwrap())
                .unwrap();
            prop_assert_eq!(morsels.num_columns(), projections.len());
            for ((_, e), got) in projections.iter().zip(morsels.columns()) {
                let want = row_oracle::eval_table(e, &kept).unwrap();
                prop_assert!(columns_identical(got, &want), "morsel units != row reference for {e}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_valid_campaigns_compile_and_run(dsl in arb_campaign(), rows in 50usize..500) {
        let bdaas = Bdaas::new();
        let data = clickstream(rows, 1);
        let spec = bdaas.parse(&dsl).unwrap();
        let compiled = bdaas.compile(&spec, data.schema(), rows).unwrap();
        let outcome = bdaas.run(&compiled, data, &Default::default()).unwrap();
        // Invariants any run must satisfy.
        prop_assert!(outcome.indicator(Indicator::RuntimeMs).unwrap() >= 0.0);
        prop_assert!(outcome.indicator(Indicator::Cost).unwrap() >= 0.0);
        let coverage = outcome.indicator(Indicator::Coverage).unwrap();
        prop_assert!((0.0..=1.0).contains(&coverage));
        // Aggregation output can never exceed the input size.
        prop_assert!(outcome.output.num_rows() <= rows);
    }

    #[test]
    fn compilation_is_deterministic(dsl in arb_campaign()) {
        let bdaas = Bdaas::new();
        let data = clickstream(100, 2);
        let spec = bdaas.parse(&dsl).unwrap();
        let a = bdaas.compile(&spec, data.schema(), 100).unwrap();
        let b = bdaas.compile(&spec, data.schema(), 100).unwrap();
        prop_assert_eq!(a.procedural.composition, b.procedural.composition);
        prop_assert_eq!(a.deployment.platform.name, b.deployment.platform.name);
        prop_assert!((a.deployment.estimated_cost - b.deployment.estimated_cost).abs() < 1e-12);
    }

    #[test]
    fn run_outputs_are_seed_deterministic(dsl in arb_campaign()) {
        let bdaas = Bdaas::new();
        let spec = bdaas.parse(&dsl).unwrap();
        let run = || {
            let data = clickstream(200, 3);
            let compiled = bdaas.compile(&spec, data.schema(), 200).unwrap();
            bdaas.run(&compiled, data, &Default::default()).unwrap().output
        };
        let a = run();
        let b = run();
        prop_assert_eq!(
            a.sort_by(&a.schema().names(), false).unwrap(),
            b.sort_by(&b.schema().names(), false).unwrap()
        );
    }

    #[test]
    fn parse_never_panics_on_arbitrary_text(text in "[a-z =\"\'\\n]{0,120}") {
        let bdaas = Bdaas::new();
        let _ = bdaas.parse(&text); // must return, not panic
    }

    #[test]
    fn expr_parser_never_panics(text in "[a-z0-9 ><=+*()'\"%-]{0,60}") {
        let _ = toreador_core::dsl::parse_expr(&text);
    }

    #[test]
    fn labs_attempts_stay_within_quota(runs in 1u64..6) {
        use toreador_labs::prelude::*;
        let mut session = LabSession::new(
            "p",
            Quota { max_runs: runs, max_rows_per_run: 300, max_total_cost: f64::INFINITY },
            5,
        );
        let c = challenge("ecomm-revenue").unwrap();
        let vectors = c.all_choice_vectors();
        for v in vectors.iter().cycle().take(8) {
            let _ = session.attempt("ecomm-revenue", v, None);
        }
        prop_assert!(session.runs_used() <= runs);
        prop_assert_eq!(session.history().len() as u64, session.runs_used());
    }
}

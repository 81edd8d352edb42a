//! The compiled-pipeline-vs-hand-written-baseline comparison behind
//! experiment E5: the model-driven layer must produce the same answers as
//! directly programming the dataflow engine (and the engine the same
//! answers as naive single-threaded Rust).

use toreador_core::prelude::*;
use toreador_data::generate::clickstream;
use toreador_data::value::Value;
use toreador_dataflow::prelude::*;

/// Hand-written against the engine: the expert data engineer's version.
fn hand_written(data: toreador_data::table::Table) -> toreador_data::table::Table {
    let mut engine = Engine::new(EngineConfig::default().with_threads(2));
    engine.register("clicks", data).unwrap();
    let flow = engine
        .flow("clicks")
        .unwrap()
        .filter(col("action").eq(lit("purchase")))
        .unwrap()
        .aggregate(
            &["category"],
            vec![
                AggExpr::new(AggFunc::Sum, "price", "revenue"),
                AggExpr::new(AggFunc::Count, "event_id", "n"),
            ],
        )
        .unwrap()
        .sort(&["category"], false)
        .unwrap();
    engine.run(&flow).unwrap().table
}

/// Naive single-threaded Rust: the unimpeachable reference.
fn naive(data: &toreador_data::table::Table) -> Vec<(String, f64, i64)> {
    let mut by_cat: std::collections::BTreeMap<String, (f64, i64)> = Default::default();
    for row in data.iter_rows() {
        if row[6] == Value::Str("purchase".into()) {
            let e = by_cat.entry(row[5].to_string()).or_insert((0.0, 0));
            e.0 += row[7].as_float().unwrap();
            e.1 += 1;
        }
    }
    by_cat.into_iter().map(|(k, (s, n))| (k, s, n)).collect()
}

#[test]
fn compiled_equals_handwritten_equals_naive() {
    let data = clickstream(4_000, 31);

    let reference = naive(&data);
    let engine_out = hand_written(data.clone());

    let bdaas = Bdaas::new();
    let spec = bdaas
        .parse(
            r#"
campaign revenue on clicks
seed 31
goal filtering predicate="action == 'purchase'"
goal aggregation group_by=category agg=sum:price:revenue,count:event_id:n
"#,
        )
        .unwrap();
    let compiled = bdaas
        .compile(&spec, data.schema(), data.num_rows())
        .unwrap();
    let compiled_out = bdaas
        .run(&compiled, data, &Default::default())
        .unwrap()
        .output
        .sort_by(&["category"], false)
        .unwrap();

    assert_eq!(engine_out.num_rows(), reference.len());
    assert_eq!(compiled_out.num_rows(), reference.len());
    for (i, (cat, revenue, n)) in reference.iter().enumerate() {
        for out in [&engine_out, &compiled_out] {
            assert_eq!(out.value(i, "category").unwrap().to_string(), *cat);
            assert!((out.value(i, "revenue").unwrap().as_float().unwrap() - revenue).abs() < 1e-6);
            assert_eq!(out.value(i, "n").unwrap().as_int().unwrap(), *n);
        }
    }
}

#[test]
fn optimizer_ablation_changes_plan_not_results() {
    let data = clickstream(2_000, 32);
    let build = |optimize: bool| {
        let mut engine = Engine::new(EngineConfig::default().with_threads(2).with_optimizer(
            if optimize {
                OptimizerConfig::default()
            } else {
                OptimizerConfig::disabled()
            },
        ));
        engine.register("clicks", data.clone()).unwrap();
        let flow = engine
            .flow("clicks")
            .unwrap()
            .project(vec![
                ("cat", col("category")),
                ("p", col("price")),
                ("act", col("action")),
            ])
            .unwrap()
            .filter(col("act").eq(lit("cart")))
            .unwrap()
            .filter(col("p").gt(lit(20.0)))
            .unwrap()
            .sort(&["p"], true)
            .unwrap();
        engine.run(&flow).unwrap()
    };
    let opt = build(true);
    let raw = build(false);
    assert_eq!(opt.table, raw.table);
    assert_ne!(
        opt.executed_plan, raw.executed_plan,
        "optimiser rewrote the plan"
    );
}

#[test]
fn map_side_combine_reduces_shuffle_traffic() {
    // The E5 claim: map-side combine shrinks what crosses the shuffle for
    // low-cardinality groupings. A `CountDistinct` beside the same sum
    // cannot be combined early, so that aggregation shuffles raw rows.
    let data = clickstream(6_000, 33);
    let run = |raw: bool| {
        let mut engine = Engine::new(EngineConfig::default().with_threads(2));
        engine.register("clicks", data.clone()).unwrap();
        let mut aggs = vec![AggExpr::new(AggFunc::Sum, "price", "revenue")];
        if raw {
            aggs.push(AggExpr::new(AggFunc::CountDistinct, "event_id", "events"));
        }
        let flow = engine
            .flow("clicks")
            .unwrap()
            .aggregate(&["country"], aggs)
            .unwrap();
        engine.run(&flow).unwrap()
    };
    let combined = run(false);
    let raw = run(true);
    // Same groups, same sums modulo float summation order.
    let a = combined.table.sort_by(&["country"], false).unwrap();
    let b = raw.table.sort_by(&["country"], false).unwrap();
    assert_eq!(a.num_rows(), b.num_rows());
    for (ra, rb) in a.iter_rows().zip(b.iter_rows()) {
        assert_eq!(ra[0], rb[0]);
        let (x, y) = (ra[1].as_float().unwrap(), rb[1].as_float().unwrap());
        assert!((x - y).abs() < 1e-6 * x.abs().max(1.0), "{x} vs {y}");
    }
    assert!(
        combined.metrics.total_shuffle_bytes() * 10 < raw.metrics.total_shuffle_bytes(),
        "combined {} bytes vs raw {} bytes",
        combined.metrics.total_shuffle_bytes(),
        raw.metrics.total_shuffle_bytes()
    );
}

#[test]
fn thread_scaling_improves_wall_clock_on_cpu_heavy_flow() {
    // Soft smoke test (debug build, laptop timers): more threads must not
    // make the same large job dramatically slower.
    let data = clickstream(20_000, 34);
    let run = |threads: usize| {
        let mut engine = Engine::new(
            EngineConfig::default()
                .with_threads(threads)
                .with_partitions(8),
        );
        engine.register("clicks", data.clone()).unwrap();
        let flow = engine
            .flow("clicks")
            .unwrap()
            .filter(col("price").is_not_null())
            .unwrap()
            .aggregate(
                &["product_id"],
                vec![
                    AggExpr::new(AggFunc::Mean, "price", "avg"),
                    AggExpr::new(AggFunc::Count, "event_id", "n"),
                ],
            )
            .unwrap();
        let started = std::time::Instant::now();
        let r = engine.run(&flow).unwrap();
        (r.table, started.elapsed())
    };
    let (t1, _e1) = run(1);
    let (t4, _e4) = run(4);
    assert_eq!(
        t1.sort_by(&["product_id"], false).unwrap(),
        t4.sort_by(&["product_id"], false).unwrap()
    );
}

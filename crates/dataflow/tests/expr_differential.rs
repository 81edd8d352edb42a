//! The column kernels against the row oracle on hand-picked expressions:
//! every operator over a fixture table with NULLs in every column, the
//! short-circuit paths that must skip a failing cast on rows they decide,
//! selection vectors against masks, and constant trees projected through
//! the optimizer (which folds them) and `Engine::run`. The random sweeps
//! are in `tests/cross_crate_properties.rs`.

#[path = "support/row_oracle.rs"]
mod row_oracle;

use std::cmp::Ordering;

use toreador_data::column::Column;
use toreador_data::generate::random_table;
use toreador_data::schema::{Field, Schema};
use toreador_data::table::{Table, TableBuilder};
use toreador_data::value::{DataType, Value};
use toreador_dataflow::prelude::*;

fn table() -> Table {
    let schema = Schema::new(vec![
        Field::new("i", DataType::Int),
        Field::new("x", DataType::Float),
        Field::new("s", DataType::Str),
        Field::new("b", DataType::Bool),
        Field::new("t", DataType::Timestamp),
    ])
    .unwrap();
    let mut b = TableBuilder::new(schema);
    let rows = [
        vec![
            Value::Int(4),
            Value::Float(2.5),
            Value::Str("Hello".into()),
            Value::Bool(true),
            Value::Timestamp(90_000_000),
        ],
        vec![
            Value::Null,
            Value::Float(-1.0),
            Value::Str("42".into()),
            Value::Bool(false),
            Value::Null,
        ],
        vec![
            Value::Int(-7),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Timestamp(0),
        ],
    ];
    for r in rows {
        b.push_row(r).unwrap();
    }
    b.finish().unwrap()
}

/// Row oracle vs the bound kernels on one expression over the fixture
/// table: equal values, or the same error.
fn check(e: Expr) {
    let t = table();
    let bound = BoundExpr::bind(&e, t.schema()).unwrap();
    let row = row_oracle::eval_table(&e, &t);
    let vec = bound.eval_column(&t);
    match (row, vec) {
        (Ok(r), Ok(v)) => {
            assert_eq!(r.len(), v.len(), "{e}");
            for i in 0..r.len() {
                let (rv, vv) = (r.value(i).unwrap(), v.value(i).unwrap());
                assert!(
                    rv.total_cmp(&vv) == Ordering::Equal,
                    "{e} row {i}: {rv:?} vs {vv:?}"
                );
            }
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{e}"),
        (r, v) => panic!("{e}: row={r:?} vec={v:?} disagree"),
    }
}

#[test]
fn kernels_match_row_oracle() {
    check(col("i").add(lit(1i64)));
    check(col("i").mul(col("x")));
    check(col("i").div(lit(0i64)));
    check(col("i").div(col("i")));
    check(col("i").modulo(lit(0i64)));
    check(col("i").modulo(lit(3i64)));
    check(col("x").modulo(col("x")));
    check(col("i").neg());
    check(col("i").gt(lit(0i64)));
    check(col("i").eq(lit(4.0)));
    check(col("x").lt_eq(col("x")));
    check(col("s").eq(lit("Hello")));
    check(lit("Hello").eq(col("s")));
    check(col("b").and(col("i").gt(lit(0i64))));
    check(col("b").or(col("i").is_null()));
    check(col("b").not());
    check(col("i").is_null());
    check(col("x").is_not_null());
    check(Expr::call(Func::Abs, vec![col("i")]));
    check(Expr::call(Func::Sqrt, vec![col("x")]));
    check(Expr::call(Func::Ln, vec![col("x")]));
    check(Expr::call(Func::Ln, vec![col("x").add(lit(f64::NAN))]));
    check(Expr::call(Func::Upper, vec![col("s")]));
    check(Expr::call(Func::Length, vec![col("s")]));
    check(Expr::call(Func::HourOfDay, vec![col("t")]));
    check(Expr::coalesce(vec![col("i"), lit(9i64)]));
    check(Expr::if_then(col("b"), lit(1i64), lit(0i64)));
    check(Expr::if_then(col("b"), col("i"), col("x")));
    check(col("x").cast(DataType::Int));
    check(col("i").cast(DataType::Str));
    check(col("x").cast(DataType::Str));
    check(col("s").cast(DataType::Int)); // errors in both engines ("Hello")
    check(col("t").cast(DataType::Int));
    check(col("b").cast(DataType::Float)); // invalid combo, first valid row errors
    check(lit(Value::Null).eq(col("s")));
}

#[test]
fn lazy_paths_skip_dead_rows() {
    // The failing cast sits on rows the left side already decides; the
    // row oracle short-circuits there and the vectorized path must too.
    check(
        col("s")
            .eq(lit("42"))
            .and(col("s").cast(DataType::Int).gt(lit(0i64))),
    );
    check(
        col("s")
            .not_eq(lit("42"))
            .or(col("s").cast(DataType::Int).gt(lit(0i64))),
    );
    check(Expr::if_then(
        col("s").eq(lit("42")),
        col("s").cast(DataType::Int),
        lit(0i64),
    ));
    check(Expr::coalesce(vec![
        Expr::if_then(
            col("s").eq(lit("42")),
            lit(Value::Null).cast(DataType::Int),
            col("i"),
        ),
        col("s").cast(DataType::Int),
    ]));
}

#[test]
fn selection_vector_matches_mask() {
    let t = table();
    let e = col("i").gt(lit(0i64));
    let bound = BoundExpr::bind(&e, t.schema()).unwrap();
    let sel = bound.eval_selection(&t).unwrap();
    let mask = row_oracle::eval_mask(&e, &t).unwrap();
    let from_mask: Vec<u32> = mask
        .iter()
        .enumerate()
        .filter_map(|(i, &k)| k.then_some(i as u32))
        .collect();
    assert_eq!(sel, from_mask);
    assert_eq!(t.take_sel(&sel).unwrap(), t.filter(&mask).unwrap());
}

#[test]
fn bind_rejects_what_inference_rejects() {
    let s = table().schema().clone();
    for e in [
        col("missing"),
        col("s").add(lit(1i64)),
        col("i").and(col("b")),
        Expr::coalesce(vec![]),
        Expr::if_then(col("i"), lit(1i64), lit(2i64)),
    ] {
        assert!(BoundExpr::bind(&e, &s).is_err(), "{e}");
        assert!(row_oracle::eval_table(&e, &table()).is_err(), "{e}");
    }
}

#[test]
fn conditionals_compute_in_their_frozen_type() {
    let schema = Schema::new(vec![
        Field::new("b", DataType::Bool),
        Field::new("i", DataType::Int),
    ]);
    let rows = [(1i64 << 53) + 1, i64::MAX].map(|i| vec![Value::Bool(true), Value::Int(i)]);
    let t = Table::from_rows(schema.unwrap(), rows).unwrap();
    let mixed = Expr::if_then(col("b"), col("i"), lit(2.5));
    let values = |c: Column| format!("{:?}", c.iter_values().collect::<Vec<_>>());
    let sums = "[Float(9007199254740992.0), Float(9.223372036854776e18)]";
    let strs = r#"[Str("9007199254740992"), Str("9223372036854776000")]"#;
    for (e, want) in [
        (mixed.clone().add(lit(1i64)), sums),
        (mixed.cast(DataType::Str), strs),
    ] {
        assert_eq!(values(row_oracle::eval_table(&e, &t).unwrap()), want, "{e}");
        let bound = BoundExpr::bind(&e, t.schema()).unwrap();
        assert_eq!(values(bound.eval_column(&t).unwrap()), want, "{e}");
    }
}

#[test]
fn eval_table_and_mask() {
    let t = Table::from_rows(
        Schema::new(vec![Field::new("v", DataType::Int)]).unwrap(),
        (0..10).map(|i| vec![Value::Int(i)]),
    )
    .unwrap();
    let doubled = row_oracle::eval_table(&col("v").mul(lit(2i64)), &t).unwrap();
    assert_eq!(doubled.value(3).unwrap(), Value::Int(6));
    let mask = row_oracle::eval_mask(&col("v").gt_eq(lit(5i64)), &t).unwrap();
    assert_eq!(mask.iter().filter(|&&b| b).count(), 5);
    assert!(
        row_oracle::eval_mask(&col("v"), &t).is_err(),
        "non-bool predicate rejected"
    );
}

/// Projecting `e` through the optimizer (on by default) and the kernels
/// gives the row oracle's column over `random_table(100, 4, 7)` (`c0` Int,
/// `c1` Float, `c2` Str, `c3` Bool, about 5 % NULLs each): same type, same
/// values.
fn projects_like_row_reference(e: Expr) {
    let t = random_table(100, 4, 7);
    let mut engine = Engine::new(EngineConfig::default());
    engine.register("t", t.clone()).unwrap();
    let flow = engine.flow("t").unwrap().project(vec![("v", e.clone())]);
    let got = engine.run(&flow.unwrap()).unwrap().table.columns()[0].clone();
    let want = row_oracle::eval_table(&e, &t).unwrap();
    assert_eq!(got.data_type(), want.data_type(), "{e}");
    let values = |c: &Column| format!("{:?}", c.iter_values().collect::<Vec<_>>());
    assert_eq!(values(&got), values(&want), "{e}");
}

#[test]
fn mixed_coalesce_constant_runs() {
    projects_like_row_reference(Expr::coalesce(vec![lit(1i64), lit(2.5)]));
}

#[test]
fn mixed_if_constant_runs() {
    projects_like_row_reference(Expr::if_then(lit(true), lit(1i64), lit(2.5)));
}

#[test]
fn null_float_constant_runs() {
    projects_like_row_reference(lit(1.0).div(lit(0i64)));
}

#[test]
fn null_int_constant_feeds_arithmetic() {
    projects_like_row_reference(lit(1i64).modulo(lit(0i64)).add(col("c0")));
}

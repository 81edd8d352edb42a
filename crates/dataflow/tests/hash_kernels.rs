//! The hash kernels end to end, through the public engine API. Over random
//! schemas with nulls, NaN payloads, ±0.0 and `""` next to NULL, an
//! aggregation (raw and partial), a distinct and an inner or left join
//! return bit-identical tables under every execution strategy that keeps
//! the fold order: one thread with whole-partition units, or two threads
//! with morsels from one row to the whole partition, with or without a
//! watchdog policy, in memory or under a memory budget that spills.
//!
//! The kernels themselves are proved against the row-at-a-time oracle they
//! replaced by the `group::oracle` unit tests inside the crate, which also
//! replay the engine's fold order against that oracle. Scale the sweep
//! with `PROPTEST_CASES` (default 32).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use toreador_data::column::{Column, Validity};
use toreador_data::schema::{Field, Schema};
use toreador_data::table::Table;
use toreador_data::value::DataType;
use toreador_dataflow::prelude::*;

const PARTS: usize = 3;
const TYPES: [DataType; 5] = [
    DataType::Int,
    DataType::Float,
    DataType::Str,
    DataType::Bool,
    DataType::Timestamp,
];
const FLOATS: [f64; 8] = [0.0, -0.0, 1.0, 1e16, 0.1, -1.5, f64::INFINITY, f64::NAN];
/// NaNs that differ only in payload or sign: distinct groups.
const NAN_BITS: [u64; 2] = [0x7ff8_0000_0000_0001, 0xfff8_0000_0000_0000];
const STRS: [&str; 4] = ["", "a", "b", "é"];

/// A random column; null slots keep whatever was drawn, garbage the
/// kernels must not copy into their own output.
fn column_of(ty: DataType, rows: usize, rng: &mut StdRng) -> Column {
    let null_rate = [0.0, 0.1, 0.4][rng.gen_range(0..3)];
    let validity: Validity = (0..rows).map(|_| !rng.gen_bool(null_rate)).collect();
    match ty {
        DataType::Int => Column::Int {
            data: (0..rows)
                .map(|_| match rng.gen_range(0..10) {
                    0 => i64::MAX,
                    _ => rng.gen_range(-3..4),
                })
                .collect(),
            validity,
        },
        DataType::Float => Column::Float {
            data: (0..rows)
                .map(|_| {
                    if rng.gen_bool(0.1) {
                        f64::from_bits(NAN_BITS[rng.gen_range(0..NAN_BITS.len())])
                    } else {
                        FLOATS[rng.gen_range(0..FLOATS.len())]
                    }
                })
                .collect(),
            validity,
        },
        DataType::Str => Column::Str {
            data: (0..rows)
                .map(|_| STRS[rng.gen_range(0..STRS.len())].to_owned())
                .collect(),
            validity,
        },
        DataType::Bool => Column::Bool {
            data: (0..rows).map(|_| rng.gen_bool(0.5)).collect(),
            validity,
        },
        DataType::Timestamp => Column::Timestamp {
            data: (0..rows).map(|_| rng.gen_range(0..4)).collect(),
            validity,
        },
    }
}

/// A random table over `types`, columns named `{prefix}0..`.
fn table_of(types: &[DataType], rows: usize, prefix: &str, rng: &mut StdRng) -> Table {
    let fields = types
        .iter()
        .enumerate()
        .map(|(i, &ty)| Field::new(format!("{prefix}{i}"), ty))
        .collect();
    let columns = types.iter().map(|&ty| column_of(ty, rows, rng)).collect();
    Table::new(Schema::new(fields).unwrap(), columns).unwrap()
}

fn random_types(rng: &mut StdRng, min: usize, max: usize) -> Vec<DataType> {
    (0..rng.gen_range(min..=max))
        .map(|_| TYPES[rng.gen_range(0..TYPES.len())])
        .collect()
}

/// Up to three key columns and one to three aggregates valid for their
/// input types (`with_distinct`: count_distinct may be drawn, which sends
/// the aggregation down the raw path).
fn random_aggregation(
    t: &Table,
    rng: &mut StdRng,
    with_distinct: bool,
) -> (Vec<String>, Vec<AggExpr>) {
    let names: Vec<String> = t.schema().names().iter().map(|s| s.to_string()).collect();
    let mut group_by: Vec<String> = Vec::new();
    for _ in 0..rng.gen_range(0..=3) {
        let n = names[rng.gen_range(0..names.len())].clone();
        if !group_by.contains(&n) {
            group_by.push(n);
        }
    }
    let aggs = (0..rng.gen_range(1..=3))
        .map(|i| {
            let c = rng.gen_range(0..names.len());
            let mut funcs = vec![AggFunc::Count, AggFunc::Min, AggFunc::Max];
            if t.schema().fields()[c].data_type.is_numeric() {
                funcs.extend([AggFunc::Sum, AggFunc::Mean]);
            }
            if with_distinct {
                funcs.push(AggFunc::CountDistinct);
            }
            let func = funcs[rng.gen_range(0..funcs.len())];
            AggExpr::new(func, names[c].clone(), format!("a{i}"))
        })
        .collect();
    (group_by, aggs)
}

/// The reference strategy (one thread, whole-partition units, in memory)
/// and a random pipelined one. The pipelined one may carry a task deadline
/// no task comes near: a watchdog policy changes nothing a kernel sees.
fn strategies(rng: &mut StdRng, rows: usize) -> [EngineConfig; 2] {
    let base = EngineConfig::default().with_partitions(PARTS);
    let reference = base.clone().with_threads(1).with_morsel_rows(1 << 20);
    let mut pipelined = base
        .with_threads(2)
        .with_morsel_rows(rng.gen_range(1..=rows.max(1)));
    if rng.gen_bool(0.5) {
        pipelined = pipelined.with_memory_budget(rng.gen_range(0..4096));
    }
    if rng.gen_bool(0.5) {
        pipelined = pipelined.with_resilience(
            ResilienceConfig::none().with_deadline(TaskDeadline::from_millis(60_000)),
        );
    }
    [reference, pipelined]
}

/// `build`'s flow over `tables`, run under `config`.
fn run(
    config: EngineConfig,
    tables: &[(&str, &Table)],
    build: impl Fn(&Engine) -> Dataflow,
) -> Table {
    let mut engine = Engine::new(config);
    for &(name, t) in tables {
        engine.register(name, t.clone()).unwrap();
    }
    engine.run(&build(&engine)).unwrap().table
}

/// Equal schemas and, lane by lane, equal validity and data — floats by bit
/// pattern, so NaN payloads and ±0.0 count.
fn identical(a: &Table, b: &Table) -> Result<(), String> {
    if a.schema() != b.schema() {
        return Err(format!("schemas differ: {} vs {}", a.schema(), b.schema()));
    }
    for (i, (x, y)) in a.columns().iter().zip(b.columns()).enumerate() {
        let same = match (x, y) {
            (
                Column::Float {
                    data: dx,
                    validity: vx,
                },
                Column::Float {
                    data: dy,
                    validity: vy,
                },
            ) => {
                vx == vy
                    && dx
                        .iter()
                        .map(|f| f.to_bits())
                        .eq(dy.iter().map(|f| f.to_bits()))
            }
            _ => x == y,
        };
        if !same {
            return Err(format!("column {i} differs:\n{x:?}\nvs\n{y:?}"));
        }
    }
    Ok(())
}

/// The suite's case count; the vendored proptest does not read
/// `PROPTEST_CASES`, so this suite honours it by hand — CI pins it.
fn proptest_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]

    #[test]
    fn aggregation_is_identical_under_every_strategy(
        seed in 0u64..u64::MAX,
        rows in 0usize..150,
        with_distinct in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = table_of(&random_types(&mut rng, 1, 4), rows, "c", &mut rng);
        let (group_by, aggs) = random_aggregation(&t, &mut rng, with_distinct);
        let keys: Vec<&str> = group_by.iter().map(String::as_str).collect();
        let [reference, pipelined] = strategies(&mut rng, rows);
        let build = |e: &Engine| e.flow("t").unwrap().aggregate(&keys, aggs.clone()).unwrap();
        let want = run(reference, &[("t", &t)], build);
        let got = run(pipelined.clone(), &[("t", &t)], build);
        prop_assert_eq!(identical(&got, &want), Ok(()), "{:?} by {:?}, {:?}", aggs, group_by, pipelined);
    }

    #[test]
    fn distinct_is_identical_under_every_strategy(seed in 0u64..u64::MAX, rows in 0usize..150) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = table_of(&random_types(&mut rng, 1, 3), rows, "c", &mut rng);
        let [reference, pipelined] = strategies(&mut rng, rows);
        let build = |e: &Engine| e.flow("t").unwrap().distinct();
        let want = run(reference, &[("t", &t)], build);
        let got = run(pipelined.clone(), &[("t", &t)], build);
        prop_assert_eq!(identical(&got, &want), Ok(()), "{:?}", pipelined);
    }

    #[test]
    fn joins_are_identical_under_every_strategy(
        seed in 0u64..u64::MAX,
        l_rows in 0usize..60,
        r_rows in 0usize..60,
        left in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // One or two key pairs of one type, or Int against Float.
        let pairs: Vec<(DataType, DataType)> = (0..rng.gen_range(1..=2))
            .map(|_| match rng.gen_range(0..4) {
                0 => (DataType::Int, DataType::Float),
                1 => (DataType::Float, DataType::Int),
                _ => {
                    let ty = TYPES[rng.gen_range(0..TYPES.len())];
                    (ty, ty)
                }
            })
            .collect();
        let mut l_types: Vec<DataType> = pairs.iter().map(|p| p.0).collect();
        let mut r_types: Vec<DataType> = pairs.iter().map(|p| p.1).collect();
        l_types.extend(random_types(&mut rng, 0, 2));
        r_types.extend(random_types(&mut rng, 0, 2));
        let l = table_of(&l_types, l_rows, "l", &mut rng);
        let r = table_of(&r_types, r_rows, "r", &mut rng);
        let lk: Vec<String> = (0..pairs.len()).map(|i| format!("l{i}")).collect();
        let rk: Vec<String> = (0..pairs.len()).map(|i| format!("r{i}")).collect();
        let lk: Vec<&str> = lk.iter().map(String::as_str).collect();
        let rk: Vec<&str> = rk.iter().map(String::as_str).collect();
        let join_type = if left { JoinType::Left } else { JoinType::Inner };
        let [reference, pipelined] = strategies(&mut rng, l_rows.max(r_rows));
        let tables = [("l", &l), ("r", &r)];
        let build = |e: &Engine| {
            let right = e.flow("r").unwrap();
            e.flow("l").unwrap().join(right, &lk, &rk, join_type).unwrap()
        };
        let want = run(reference, &tables, build);
        let got = run(pipelined.clone(), &tables, build);
        prop_assert_eq!(identical(&got, &want), Ok(()), "{:?} keys, {:?}, {:?}", pairs, join_type, pipelined);
    }
}

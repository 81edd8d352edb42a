//! Sort and top-k end to end, through the public engine API, against the
//! comparator they replaced: a stable sort of the gathered input's row
//! indices under `Value::total_cmp`, key by key, the whole order reversed
//! when descending, cut to the limit. Over random five-type tables (null
//! slots holding nonzero payloads, NaNs of several payloads, ±0.0, small
//! value domains for heavy ties), one to three keys, both directions, one
//! to five registered partitions (empty ones included), every kind of
//! limit and with or without a memory budget, the engine's output must
//! equal the oracle's bit for bit. Scale the sweep with `PROPTEST_CASES`
//! (default 32).

use std::cmp::Ordering;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use toreador_data::column::{Column, Validity};
use toreador_data::partition::PartitionedTable;
use toreador_data::schema::{Field, Schema};
use toreador_data::table::Table;
use toreador_data::value::DataType;
use toreador_dataflow::prelude::*;

const TYPES: [DataType; 5] = [
    DataType::Int,
    DataType::Float,
    DataType::Str,
    DataType::Bool,
    DataType::Timestamp,
];
const FLOATS: [f64; 7] = [0.0, -0.0, 1.0, -1.5, f64::INFINITY, f64::NEG_INFINITY, 1e16];
/// NaNs that differ in payload or sign, which `f64::total_cmp` orders.
const NAN_BITS: [u64; 3] = [
    0x7ff8_0000_0000_0000,
    0x7ff8_0000_0000_0001,
    0xfff8_0000_0000_0000,
];
const STRS: [&str; 5] = ["", "a", "ab", "b", "é"];

/// A random column over a small domain; a null slot keeps the payload that
/// was drawn for it, which no comparison may read.
fn column_of(ty: DataType, rows: usize, rng: &mut StdRng) -> Column {
    let null_rate = [0.0, 0.1, 0.4][rng.gen_range(0..3)];
    let validity: Validity = (0..rows).map(|_| !rng.gen_bool(null_rate)).collect();
    match ty {
        DataType::Int => Column::Int {
            data: (0..rows)
                .map(|_| match rng.gen_range(0..10) {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    _ => rng.gen_range(-3..4),
                })
                .collect(),
            validity,
        },
        DataType::Float => Column::Float {
            data: (0..rows)
                .map(|_| {
                    if rng.gen_bool(0.15) {
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
                .map(|_| STRS[rng.gen_range(0..STRS.len())])
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

/// A random table of one to five columns named `c0..`.
fn table_of(rows: usize, rng: &mut StdRng) -> Table {
    let types: Vec<DataType> = (0..rng.gen_range(1..=5))
        .map(|_| TYPES[rng.gen_range(0..TYPES.len())])
        .collect();
    let fields = (0..types.len())
        .map(|i| Field::new(format!("c{i}"), types[i]))
        .collect();
    let columns = types.iter().map(|&ty| column_of(ty, rows, rng)).collect();
    Table::new(Schema::new(fields).unwrap(), columns).unwrap()
}

/// `t` cut at random points into `n` partitions, empty ones included.
fn partitions_of(t: &Table, n: usize, rng: &mut StdRng) -> Vec<Table> {
    let mut cuts: Vec<usize> = (1..n).map(|_| rng.gen_range(0..=t.num_rows())).collect();
    cuts.sort_unstable();
    cuts.insert(0, 0);
    cuts.push(t.num_rows());
    cuts.windows(2)
        .map(|w| t.slice(w[0], w[1]).unwrap())
        .collect()
}

/// None, 0, 1, below, at or above the row count.
fn limit_of(rows: usize, rng: &mut StdRng) -> Option<usize> {
    match rng.gen_range(0..6) {
        0 => None,
        1 => Some(0),
        2 => Some(1),
        3 => Some(rng.gen_range(0..=rows.saturating_sub(1))),
        4 => Some(rows),
        _ => Some(rows + rng.gen_range(1..10)),
    }
}

/// The `Value`-comparator sort the engine's typed one replaced, over the
/// gathered input, cut to `limit`.
fn oracle(t: &Table, keys: &[&str], descending: bool, limit: Option<usize>) -> Table {
    let cols: Vec<&Column> = keys.iter().map(|k| t.column(k).unwrap()).collect();
    let mut indices: Vec<usize> = (0..t.num_rows()).collect();
    indices.sort_by(|&a, &b| {
        let ord = cols
            .iter()
            .map(|c| c.value(a).unwrap().total_cmp(&c.value(b).unwrap()))
            .find(|o| *o != Ordering::Equal)
            .unwrap_or(Ordering::Equal);
        if descending {
            ord.reverse()
        } else {
            ord
        }
    });
    indices.truncate(limit.unwrap_or(usize::MAX));
    t.take(&indices).unwrap()
}

/// Equal schemas and, lane by lane, equal validity and data — floats by bit
/// pattern, so NaN payloads and ±0.0 count, and null slots' payloads too.
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
    fn sort_and_top_k_equal_a_stable_value_sort_of_the_gathered_input(
        seed in 0u64..u64::MAX,
        rows in 0usize..200,
        parts in 1usize..=5,
        descending in any::<bool>(),
        budgeted in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = table_of(rows, &mut rng);
        let mut keys: Vec<String> = Vec::new();
        for _ in 0..rng.gen_range(1..=3) {
            let k = format!("c{}", rng.gen_range(0..t.num_columns()));
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
        let limit = limit_of(rows, &mut rng);
        let input = partitions_of(&t, parts, &mut rng);
        let want = oracle(&Table::concat(&input).unwrap(), &keys, descending, limit);

        let mut config = EngineConfig::default().with_threads(2).with_partitions(parts);
        if budgeted {
            config = config.with_memory_budget(4 << 10);
        }
        let mut engine = Engine::new(config);
        engine.register_partitioned("t", PartitionedTable::new(input).unwrap());
        let mut flow = engine.flow("t").unwrap().sort(&keys, descending).unwrap();
        if let Some(n) = limit {
            flow = flow.limit(n);
        }
        let got = engine.run(&flow).unwrap().table;
        prop_assert_eq!(
            identical(&got, &want),
            Ok(()),
            "keys {:?}, descending {}, limit {:?}, {} partitions, budgeted {}",
            keys, descending, limit, parts, budgeted
        );
    }
}

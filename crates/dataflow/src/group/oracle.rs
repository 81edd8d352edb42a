//! Differential proof that the columnar hash kernels of [`crate::group`]
//! are the row-at-a-time kernels they replaced, bit for bit.
//!
//! The oracle below is those row kernels, kept as test code: every row is
//! materialised as a `Vec<Value>`, keyed by a `GroupKey` hashed through
//! `Value::hash_code` and compared with `Value::group_eq`, and folded by
//! `Acc` / `MergeAcc` accumulators. Its one change from the production code
//! it used to be is that groups are kept in first-seen order instead of
//! `HashMap` order, which is the order partial tables now list them in.
//! Its map side follows the engine's rule: a partition whose probe does
//! not reduce contributes its raw rows as one-row partials.
//!
//! Inputs are random schemas over all five types with nulls, NaN payloads,
//! ±0.0, integral floats that hash like ints, `""` next to NULL, and null
//! slots that hold garbage (as vectorized kernels may leave them); keys of
//! zero to three columns; every `AggFunc` on the raw and the partial path;
//! morsel sizes from one row to the whole partition; inner and left joins
//! with null and Int-against-Float keys; and the engine end to end,
//! budgeted and in memory. "Identical" means equal schemas and, lane by
//! lane, equal validity and equal data — floats by bit pattern, null slots
//! included. Scale the sweep with `PROPTEST_CASES` (default 32).

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use toreador_data::column::{Column, ValidityBuilder};
use toreador_data::partition::PartitionedTable;
use toreador_data::schema::{Field, Schema};
use toreador_data::table::{Table, TableBuilder};
use toreador_data::value::{DataType, Row, Value};

use crate::group;
use crate::logical::{AggExpr, AggFunc, Dataflow, JoinType};
use crate::session::{Engine, EngineConfig};

// ------------------------------------------------------------- the oracle

/// Hashable wrapper for group keys (Value has no Eq/Hash of its own).
#[derive(Debug, Clone)]
struct GroupKey(Row);

impl PartialEq for GroupKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(a, b)| a.group_eq(b))
    }
}
impl Eq for GroupKey {}
impl std::hash::Hash for GroupKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for v in &self.0 {
            state.write_u64(v.hash_code());
        }
    }
}

/// Groups in first-seen order.
struct Groups<A> {
    index: HashMap<GroupKey, usize>,
    entries: Vec<(GroupKey, Vec<A>)>,
}

impl<A> Groups<A> {
    fn new() -> Self {
        Groups {
            index: HashMap::new(),
            entries: Vec::new(),
        }
    }

    fn entry(&mut self, key: GroupKey, init: impl FnOnce() -> Vec<A>) -> &mut Vec<A> {
        let next = self.entries.len();
        let i = *self.index.entry(key.clone()).or_insert(next);
        if i == next {
            self.entries.push((key, init()));
        }
        &mut self.entries[i].1
    }

    /// Entries sorted by key under `total_cmp`.
    fn sorted(self) -> Vec<(GroupKey, Vec<A>)> {
        let mut entries = self.entries;
        entries.sort_by(|(a, _), (b, _)| {
            a.0.iter()
                .zip(&b.0)
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| *o != std::cmp::Ordering::Equal)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        entries
    }
}

/// Per-group accumulator for one aggregate expression.
#[derive(Debug, Clone)]
enum Acc {
    Count(i64),
    SumInt(i64, bool),
    SumFloat(f64, bool),
    Min(Value),
    Max(Value),
    Mean { sum: f64, n: i64 },
    Distinct(HashSet<u64>),
}

impl Acc {
    fn new(func: AggFunc, input_ty: DataType) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => {
                if input_ty == DataType::Int {
                    Acc::SumInt(0, false)
                } else {
                    Acc::SumFloat(0.0, false)
                }
            }
            AggFunc::Min => Acc::Min(Value::Null),
            AggFunc::Max => Acc::Max(Value::Null),
            AggFunc::Mean => Acc::Mean { sum: 0.0, n: 0 },
            AggFunc::CountDistinct => Acc::Distinct(HashSet::new()),
        }
    }

    fn update(&mut self, v: &Value) {
        if v.is_null() {
            return; // SQL semantics: aggregates skip nulls
        }
        match self {
            Acc::Count(n) => *n += 1,
            Acc::SumInt(s, seen) => {
                *s = s.wrapping_add(v.as_int().unwrap());
                *seen = true;
            }
            Acc::SumFloat(s, seen) => {
                *s += v.as_float().unwrap();
                *seen = true;
            }
            Acc::Min(m) => {
                if m.is_null() || v.total_cmp(m) == std::cmp::Ordering::Less {
                    *m = v.clone();
                }
            }
            Acc::Max(m) => {
                if m.is_null() || v.total_cmp(m) == std::cmp::Ordering::Greater {
                    *m = v.clone();
                }
            }
            Acc::Mean { sum, n } => {
                *sum += v.as_float().unwrap();
                *n += 1;
            }
            Acc::Distinct(set) => {
                set.insert(v.hash_code());
            }
        }
    }

    fn finish(&self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(*n),
            Acc::SumInt(s, seen) => or_null(*seen, Value::Int(*s)),
            Acc::SumFloat(s, seen) => or_null(*seen, Value::Float(*s)),
            Acc::Min(m) | Acc::Max(m) => m.clone(),
            Acc::Mean { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / *n as f64)
                }
            }
            Acc::Distinct(set) => Value::Int(set.len() as i64),
        }
    }
}

fn or_null(seen: bool, v: Value) -> Value {
    if seen {
        v
    } else {
        Value::Null
    }
}

/// Reduce-side accumulator over partial-state rows.
#[derive(Clone)]
enum MergeAcc {
    Count(i64),
    SumInt(i64, bool),
    SumFloat(f64, bool),
    Min(Value),
    Max(Value),
    Mean { sum: f64, n: i64 },
}

fn indices(t: &Table, names: &[String]) -> Vec<usize> {
    names
        .iter()
        .map(|n| t.schema().index_of(n).unwrap())
        .collect()
}

fn fold_rows(t: &Table, group_by: &[String], aggs: &[AggExpr]) -> Groups<Acc> {
    let key_idx = indices(t, group_by);
    let agg_idx: Vec<usize> = aggs
        .iter()
        .map(|a| t.schema().index_of(&a.column).unwrap())
        .collect();
    let agg_tys: Vec<DataType> = agg_idx
        .iter()
        .map(|&i| t.schema().fields()[i].data_type)
        .collect();
    let mut groups = Groups::new();
    for row in t.iter_rows() {
        let key = GroupKey(key_idx.iter().map(|&i| row[i].clone()).collect());
        let accs = groups.entry(key, || {
            aggs.iter()
                .zip(&agg_tys)
                .map(|(a, &ty)| Acc::new(a.func, ty))
                .collect()
        });
        for (acc, &i) in accs.iter_mut().zip(&agg_idx) {
            acc.update(&row[i]);
        }
    }
    groups
}

fn oracle_aggregate(t: &Table, group_by: &[String], aggs: &[AggExpr], out: &Schema) -> Table {
    let mut groups = fold_rows(t, group_by, aggs);
    // Global aggregation over an empty input still yields one row.
    if groups.entries.is_empty() && group_by.is_empty() {
        let agg_tys: Vec<DataType> = aggs
            .iter()
            .map(|a| t.schema().field(&a.column).unwrap().data_type)
            .collect();
        groups.entry(GroupKey(Vec::new()), || {
            aggs.iter()
                .zip(&agg_tys)
                .map(|(a, &ty)| Acc::new(a.func, ty))
                .collect()
        });
    }
    let mut builder = TableBuilder::new(out.clone());
    for (key, accs) in groups.sorted() {
        let mut row = key.0;
        row.extend(accs.iter().map(Acc::finish));
        builder.push_row(row).unwrap();
    }
    builder.finish().unwrap()
}

fn oracle_partial(t: &Table, group_by: &[String], aggs: &[AggExpr], p_schema: &Schema) -> Table {
    let mut builder = TableBuilder::new(p_schema.clone());
    for (key, accs) in fold_rows(t, group_by, aggs).entries {
        let mut row = key.0;
        for acc in &accs {
            match acc {
                Acc::Mean { sum, n } => {
                    row.push(Value::Float(*sum));
                    row.push(Value::Int(*n));
                }
                other => row.push(other.finish()),
            }
        }
        builder.push_row(row).unwrap();
    }
    builder.finish().unwrap()
}

/// Whether the map side passes `t` through: a keyed aggregation whose
/// first [`group::PROBE_ROWS`] rows (all of a smaller partition) open more
/// than one group per [`group::MIN_ROWS_PER_GROUP`] rows.
fn passes_through(t: &Table, group_by: &[String]) -> bool {
    let probe = t.num_rows().min(group::PROBE_ROWS);
    let key_idx = indices(t, group_by);
    let groups: HashSet<GroupKey> = t
        .iter_rows()
        .take(probe)
        .map(|row| GroupKey(key_idx.iter().map(|&i| row[i].clone()).collect()))
        .collect();
    !group_by.is_empty() && groups.len() * group::MIN_ROWS_PER_GROUP > probe
}

/// A passed-through partition's partial: every row a one-row partial, its
/// count 1 or 0, its sum, min and max the raw value (null if null), its
/// mean the value as a float (0.0 if null) beside that count.
fn oracle_pass_through(
    t: &Table,
    group_by: &[String],
    aggs: &[AggExpr],
    p_schema: &Schema,
) -> Table {
    let key_idx = indices(t, group_by);
    let agg_idx: Vec<usize> = aggs
        .iter()
        .map(|a| t.schema().index_of(&a.column).unwrap())
        .collect();
    let mut builder = TableBuilder::new(p_schema.clone());
    for row in t.iter_rows() {
        let mut out: Row = key_idx.iter().map(|&i| row[i].clone()).collect();
        for (a, &i) in aggs.iter().zip(&agg_idx) {
            let v = &row[i];
            let n = Value::Int(!v.is_null() as i64);
            match a.func {
                AggFunc::Count => out.push(n),
                AggFunc::Mean => {
                    out.push(Value::Float(v.as_float().unwrap_or(0.0)));
                    out.push(n);
                }
                _ => out.push(v.clone()),
            }
        }
        builder.push_row(out).unwrap();
    }
    builder.finish().unwrap()
}

/// The map side's partial of one partition, by the rule it follows.
pub(super) fn oracle_map_side(
    t: &Table,
    group_by: &[String],
    aggs: &[AggExpr],
    p_schema: &Schema,
) -> Table {
    if passes_through(t, group_by) {
        oracle_pass_through(t, group_by, aggs, p_schema)
    } else {
        oracle_partial(t, group_by, aggs, p_schema)
    }
}

pub(super) fn oracle_merge(
    t: &Table,
    group_by: &[String],
    aggs: &[AggExpr],
    out: &Schema,
) -> Table {
    let key_idx: Vec<usize> = (0..group_by.len()).collect();
    let mut state_pos = group_by.len();
    let mut state_cols: Vec<Vec<usize>> = Vec::new();
    for a in aggs {
        let width = if a.func == AggFunc::Mean { 2 } else { 1 };
        state_cols.push((state_pos..state_pos + width).collect());
        state_pos += width;
    }
    let init = || -> Vec<MergeAcc> {
        aggs.iter()
            .zip(&state_cols)
            .map(|(a, cols)| match a.func {
                AggFunc::Count => MergeAcc::Count(0),
                AggFunc::Sum => match t.schema().fields()[cols[0]].data_type {
                    DataType::Int => MergeAcc::SumInt(0, false),
                    _ => MergeAcc::SumFloat(0.0, false),
                },
                AggFunc::Min => MergeAcc::Min(Value::Null),
                AggFunc::Max => MergeAcc::Max(Value::Null),
                AggFunc::Mean => MergeAcc::Mean { sum: 0.0, n: 0 },
                AggFunc::CountDistinct => unreachable!("no partial form"),
            })
            .collect()
    };
    let mut groups = Groups::new();
    for row in t.iter_rows() {
        let key = GroupKey(key_idx.iter().map(|&i| row[i].clone()).collect());
        for (acc, cols) in groups.entry(key, init).iter_mut().zip(&state_cols) {
            let v = &row[cols[0]];
            match acc {
                MergeAcc::Count(n) => *n += v.as_int().unwrap(),
                MergeAcc::SumInt(s, seen) => {
                    if !v.is_null() {
                        *s = s.wrapping_add(v.as_int().unwrap());
                        *seen = true;
                    }
                }
                MergeAcc::SumFloat(s, seen) => {
                    if !v.is_null() {
                        *s += v.as_float().unwrap();
                        *seen = true;
                    }
                }
                MergeAcc::Min(m) => {
                    if !v.is_null() && (m.is_null() || v.total_cmp(m) == std::cmp::Ordering::Less) {
                        *m = v.clone();
                    }
                }
                MergeAcc::Max(m) => {
                    if !v.is_null()
                        && (m.is_null() || v.total_cmp(m) == std::cmp::Ordering::Greater)
                    {
                        *m = v.clone();
                    }
                }
                MergeAcc::Mean { sum, n } => {
                    *sum += v.as_float().unwrap();
                    *n += row[cols[1]].as_int().unwrap();
                }
            }
        }
    }
    if groups.entries.is_empty() && group_by.is_empty() {
        groups.entry(GroupKey(Vec::new()), init);
    }
    let mut builder = TableBuilder::new(out.clone());
    for (key, accs) in groups.sorted() {
        let mut row = key.0;
        for acc in accs {
            row.push(match acc {
                MergeAcc::Count(n) => Value::Int(n),
                MergeAcc::SumInt(s, seen) => or_null(seen, Value::Int(s)),
                MergeAcc::SumFloat(s, seen) => or_null(seen, Value::Float(s)),
                MergeAcc::Min(m) | MergeAcc::Max(m) => m,
                MergeAcc::Mean { sum, n } => {
                    if n == 0 {
                        Value::Null
                    } else {
                        Value::Float(sum / n as f64)
                    }
                }
            });
        }
        builder.push_row(row).unwrap();
    }
    builder.finish().unwrap()
}

fn oracle_join(
    l: &Table,
    r: &Table,
    left_keys: &[String],
    right_keys: &[String],
    join_type: JoinType,
    out: &Schema,
) -> Table {
    let (l_key_idx, r_key_idx) = (indices(l, left_keys), indices(r, right_keys));
    let mut built: HashMap<GroupKey, Vec<Row>> = HashMap::new();
    for row in r.iter_rows() {
        // Null keys never match (SQL equi-join semantics).
        if r_key_idx.iter().any(|&i| row[i].is_null()) {
            continue;
        }
        let key = GroupKey(r_key_idx.iter().map(|&i| row[i].clone()).collect());
        built.entry(key).or_default().push(row);
    }
    let mut builder = TableBuilder::new(out.clone());
    for l_row in l.iter_rows() {
        let matches = if l_key_idx.iter().any(|&i| l_row[i].is_null()) {
            None
        } else {
            built.get(&GroupKey(
                l_key_idx.iter().map(|&i| l_row[i].clone()).collect(),
            ))
        };
        match matches {
            Some(rights) => {
                for r_row in rights {
                    let mut row = l_row.clone();
                    row.extend(r_row.iter().cloned());
                    builder.push_row(row).unwrap();
                }
            }
            None if join_type == JoinType::Left => {
                let mut row = l_row.clone();
                row.extend(std::iter::repeat(Value::Null).take(r.num_columns()));
                builder.push_row(row).unwrap();
            }
            None => {}
        }
    }
    builder.finish().unwrap()
}

fn oracle_distinct(t: &Table) -> Table {
    let mut seen = HashSet::new();
    let keep: Vec<bool> = t
        .iter_rows()
        .map(|row| seen.insert(GroupKey(row)))
        .collect();
    t.filter(&keep).unwrap()
}

// ------------------------------------------------------------ the inputs

const FLOATS: [f64; 13] = [
    0.0,
    -0.0,
    1.0,
    // Absorbs a 1.0 added after it but not two added before it: makes a
    // fold-order change visible in a sum.
    1e16,
    2.0,
    -1.5,
    0.1,
    1e300,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    0.3,
    3.0,
];
/// NaNs that differ only in payload or sign: distinct groups, distinct codes.
const NAN_BITS: [u64; 2] = [0x7ff8_0000_0000_0001, 0xfff8_0000_0000_0000];
const STRS: [&str; 5] = ["", "a", "b", "ab", "é"];
const TYPES: [DataType; 5] = [
    DataType::Int,
    DataType::Float,
    DataType::Str,
    DataType::Bool,
    DataType::Timestamp,
];

fn column_of(ty: DataType, rows: usize, rng: &mut StdRng) -> Column {
    let null_rate = [0.0, 0.1, 0.4][rng.gen_range(0..3)];
    let mut validity = ValidityBuilder::new();
    let mut valid = |rng: &mut StdRng| {
        let v = !rng.gen_bool(null_rate);
        validity.push(v);
        v
    };
    // Null slots keep whatever was drawn: garbage the kernels must not copy.
    match ty {
        DataType::Int => {
            let data = (0..rows)
                .map(|_| {
                    valid(rng);
                    match rng.gen_range(0..10) {
                        0 => i64::MAX - rng.gen_range(0..3),
                        1 => i64::MIN + rng.gen_range(0..3),
                        _ => rng.gen_range(-3..4),
                    }
                })
                .collect();
            Column::Int {
                data,
                validity: validity.finish(),
            }
        }
        DataType::Float => {
            let data = (0..rows)
                .map(|_| {
                    valid(rng);
                    if rng.gen_bool(0.1) {
                        f64::from_bits(NAN_BITS[rng.gen_range(0..NAN_BITS.len())])
                    } else {
                        FLOATS[rng.gen_range(0..FLOATS.len())]
                    }
                })
                .collect();
            Column::Float {
                data,
                validity: validity.finish(),
            }
        }
        DataType::Str => {
            let data = (0..rows)
                .map(|_| {
                    valid(rng);
                    STRS[rng.gen_range(0..STRS.len())].to_owned()
                })
                .collect();
            Column::Str {
                data,
                validity: validity.finish(),
            }
        }
        DataType::Bool => {
            let data = (0..rows)
                .map(|_| {
                    valid(rng);
                    rng.gen_bool(0.5)
                })
                .collect();
            Column::Bool {
                data,
                validity: validity.finish(),
            }
        }
        DataType::Timestamp => {
            let data = (0..rows)
                .map(|_| {
                    valid(rng);
                    rng.gen_range(0..4)
                })
                .collect();
            Column::Timestamp {
                data,
                validity: validity.finish(),
            }
        }
    }
}

/// A random table over `types`, columns named `{prefix}0..`.
pub(crate) fn table_of(types: &[DataType], rows: usize, prefix: &str, rng: &mut StdRng) -> Table {
    let schema = Schema::new(
        types
            .iter()
            .enumerate()
            .map(|(i, &ty)| Field::new(format!("{prefix}{i}"), ty))
            .collect(),
    )
    .unwrap();
    let columns = types.iter().map(|&ty| column_of(ty, rows, rng)).collect();
    Table::new(schema, columns).unwrap()
}

pub(crate) fn random_types(rng: &mut StdRng, min: usize, max: usize) -> Vec<DataType> {
    (0..rng.gen_range(min..=max))
        .map(|_| TYPES[rng.gen_range(0..TYPES.len())])
        .collect()
}

/// Up to three distinct key columns and one to four aggregates valid for
/// their input types (`partial`: no count_distinct).
fn random_aggregation(t: &Table, rng: &mut StdRng, partial: bool) -> (Vec<String>, Vec<AggExpr>) {
    let names: Vec<String> = t.schema().names().iter().map(|s| s.to_string()).collect();
    let mut group_by: Vec<String> = Vec::new();
    for _ in 0..rng.gen_range(0..=3usize.min(names.len())) {
        let n = names[rng.gen_range(0..names.len())].clone();
        if !group_by.contains(&n) {
            group_by.push(n);
        }
    }
    let aggs = (0..rng.gen_range(1..=4))
        .map(|i| {
            let c = rng.gen_range(0..names.len());
            let numeric = t.schema().fields()[c].data_type.is_numeric();
            let funcs: &[AggFunc] = match (numeric, partial) {
                (true, true) => &[
                    AggFunc::Count,
                    AggFunc::Sum,
                    AggFunc::Min,
                    AggFunc::Max,
                    AggFunc::Mean,
                ],
                (true, false) => &[
                    AggFunc::Count,
                    AggFunc::Sum,
                    AggFunc::Min,
                    AggFunc::Max,
                    AggFunc::Mean,
                    AggFunc::CountDistinct,
                ],
                (false, true) => &[AggFunc::Count, AggFunc::Min, AggFunc::Max],
                (false, false) => &[
                    AggFunc::Count,
                    AggFunc::Min,
                    AggFunc::Max,
                    AggFunc::CountDistinct,
                ],
            };
            let func = funcs[rng.gen_range(0..funcs.len())];
            AggExpr::new(func, names[c].clone(), format!("a{i}"))
        })
        .collect();
    (group_by, aggs)
}

pub(super) fn out_schema(t: &Table, group_by: &[String], aggs: &[AggExpr]) -> Schema {
    let keys: Vec<&str> = group_by.iter().map(String::as_str).collect();
    Dataflow::scan("t", t.schema().clone())
        .aggregate(&keys, aggs.to_vec())
        .unwrap()
        .schema()
        .clone()
}

pub(super) fn p_schema_of(t: &Table, group_by: &[String], aggs: &[AggExpr]) -> Schema {
    let fields = group_by
        .iter()
        .map(|g| t.schema().field(g).unwrap().clone())
        .collect();
    group::partial_schema(fields, aggs, t.schema()).unwrap()
}

/// The columns that hold float sums: the partial `__p{i}_sum` states and
/// the sum and mean results. Rust leaves the payload of a NaN that
/// arithmetic produces unspecified (the compiler may commute an addition),
/// so there any two NaNs match; everywhere else a float matches only its
/// own bit pattern.
pub(super) fn sum_lanes(aggs: &[AggExpr]) -> Vec<String> {
    aggs.iter()
        .enumerate()
        .filter(|(_, a)| matches!(a.func, AggFunc::Sum | AggFunc::Mean))
        .flat_map(|(i, a)| [a.alias.clone(), format!("__p{i}_sum")])
        .collect()
}

/// Equal schemas, and lane by lane equal validity and data: floats by bit
/// pattern (NaNs in `sums` by NaN-ness), null slots included.
pub(crate) fn identical(a: &Table, b: &Table, sums: &[String]) -> Result<(), String> {
    if a.schema() != b.schema() {
        return Err(format!("schemas differ: {} vs {}", a.schema(), b.schema()));
    }
    if a.num_rows() != b.num_rows() {
        return Err(format!("{} rows vs {}", a.num_rows(), b.num_rows()));
    }
    for (i, (x, y)) in a.columns().iter().zip(b.columns()).enumerate() {
        let nan_is_nan = sums.contains(&a.schema().fields()[i].name);
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
                    && dx.len() == dy.len()
                    && dx.iter().zip(dy).all(|(p, q)| {
                        p.to_bits() == q.to_bits() || (nan_is_nan && p.is_nan() && q.is_nan())
                    })
            }
            _ => x == y,
        };
        if !same {
            return Err(format!("column {i} differs:\n{x:?}\nvs\n{y:?}"));
        }
    }
    Ok(())
}

/// `t` rebuilt row by row, so every null slot holds the type's default.
fn rebuilt(t: &Table) -> Table {
    let mut builder = TableBuilder::new(t.schema().clone());
    for row in t.iter_rows() {
        builder.push_row(row).unwrap();
    }
    builder.finish().unwrap()
}

/// The suite's case count; the vendored proptest does not read
/// `PROPTEST_CASES`, so this suite honours it by hand — CI pins it.
pub(crate) fn proptest_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

// ------------------------------------------------------------- the proofs

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]

    #[test]
    fn raw_aggregation_matches_the_row_oracle(seed in 0u64..u64::MAX, rows in 0usize..120) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = table_of(&random_types(&mut rng, 1, 5), rows, "c", &mut rng);
        let (group_by, aggs) = random_aggregation(&t, &mut rng, false);
        let out = out_schema(&t, &group_by, &aggs);
        let got = group::aggregate(&t, &group_by, &aggs, &out).unwrap();
        let want = oracle_aggregate(&t, &group_by, &aggs, &out);
        let sums = sum_lanes(&aggs);
        prop_assert_eq!(identical(&got, &want, &sums), Ok(()), "{:?} by {:?}", aggs, group_by);
    }

    #[test]
    fn partial_fold_matches_the_row_oracle_at_every_morsel_size(
        seed in 0u64..u64::MAX,
        rows in 0usize..120,
        parts in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = table_of(&random_types(&mut rng, 1, 5), rows, "c", &mut rng);
        let (group_by, aggs) = random_aggregation(&t, &mut rng, true);
        let p_schema = p_schema_of(&t, &group_by, &aggs);
        let sums = sum_lanes(&aggs);
        let split = PartitionedTable::split(t.clone(), parts).unwrap();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for part in split.parts() {
            // Morsels of 1..=n+1 rows, folded in place in ascending order.
            let step = rng.gen_range(1..=part.num_rows() + 1);
            let mut state = group::PartialAgg::new(part.schema(), &group_by, &aggs).unwrap();
            let mut lo = 0;
            while lo < part.num_rows() {
                let hi = (lo + step).min(part.num_rows());
                state.fold(part, lo, hi).unwrap();
                lo = hi;
            }
            let partial = state.finish(part, &p_schema).unwrap();
            let oracle = oracle_map_side(part, &group_by, &aggs, &p_schema);
            // A passed-through partial shares the input's lanes, whose null
            // slots hold garbage: compare its values, rebuilt.
            let seen = if passes_through(part, &group_by) {
                rebuilt(&partial)
            } else {
                partial.clone()
            };
            prop_assert_eq!(identical(&seen, &oracle, &sums), Ok(()), "morsel {}", step);
            // One fold over the whole partition: a whole-partition unit.
            let mut whole = group::PartialAgg::new(part.schema(), &group_by, &aggs).unwrap();
            whole.fold(part, 0, part.num_rows()).unwrap();
            let whole = whole.finish(part, &p_schema).unwrap();
            prop_assert_eq!(identical(&whole, &partial, &sums), Ok(()));
            got.push(partial);
            want.push(oracle);
        }
        // The merge folds partial rows as the shuffle delivers them:
        // partitions in source order.
        let (got, want) = (Table::concat(&got).unwrap(), Table::concat(&want).unwrap());
        let out = out_schema(&t, &group_by, &aggs);
        let merged = group::merge_partials(&got, &group_by, &aggs, &out).unwrap();
        let oracle = oracle_merge(&want, &group_by, &aggs, &out);
        prop_assert_eq!(identical(&merged, &oracle, &sums), Ok(()), "{:?} by {:?}", aggs, group_by);
    }

    #[test]
    fn joins_match_the_row_oracle(
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
        let join_type = if left { JoinType::Left } else { JoinType::Inner };
        let lk_refs: Vec<&str> = lk.iter().map(String::as_str).collect();
        let rk_refs: Vec<&str> = rk.iter().map(String::as_str).collect();
        let out = Dataflow::scan("l", l.schema().clone())
            .join(Dataflow::scan("r", r.schema().clone()), &lk_refs, &rk_refs, join_type)
            .unwrap()
            .schema()
            .clone();
        let got = group::hash_join(&l, &r, &lk, &rk, join_type, &out).unwrap();
        let want = oracle_join(&l, &r, &lk, &rk, join_type, &out);
        prop_assert_eq!(identical(&got, &want, &[]), Ok(()), "{:?} keys, {:?}", pairs, join_type);
    }

    #[test]
    fn distinct_matches_the_row_oracle(seed in 0u64..u64::MAX, rows in 0usize..120) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = table_of(&random_types(&mut rng, 1, 3), rows, "c", &mut rng);
        let got = group::distinct(&t).unwrap();
        prop_assert_eq!(identical(&got, &oracle_distinct(&t), &[]), Ok(()));
    }

    #[test]
    fn engine_aggregation_matches_the_row_oracle_in_memory_and_budgeted(
        seed in 0u64..u64::MAX,
        rows in 0usize..150,
        with_distinct in any::<bool>(),
        budgeted in any::<bool>(),
    ) {
        const PARTS: usize = 3;
        let mut rng = StdRng::seed_from_u64(seed);
        let t = table_of(&random_types(&mut rng, 1, 4), rows, "c", &mut rng);
        let (group_by, aggs) = random_aggregation(&t, &mut rng, !with_distinct);
        let morsel_rows = rng.gen_range(1..=rows.max(1));
        let mut config = EngineConfig::default()
            .with_threads(2)
            .with_partitions(PARTS)
            .with_morsel_rows(morsel_rows);
        if budgeted {
            config = config.with_memory_budget(rng.gen_range(0..4096));
        }
        let mut engine = Engine::new(config);
        engine.register("t", t.clone()).unwrap();
        let keys: Vec<&str> = group_by.iter().map(String::as_str).collect();
        let flow = engine.flow("t").unwrap().aggregate(&keys, aggs.clone()).unwrap();
        let out = flow.schema().clone();
        // Each output partition is key-sorted; across them the order is the
        // router's, so sort the whole (no two groups tie).
        let got = engine.run(&flow).unwrap().table.sort_by(&keys, false).unwrap();

        // The oracle replays the engine's fold order: the registered split,
        // then per partition its rows in order (map side), then partitions
        // in source order (the shuffle keeps arrival order per target).
        // Like the engine, it takes the map side's combine-or-pass-through
        // rule per partition unless a `CountDistinct` forces the raw path.
        let split = PartitionedTable::split(t.clone(), PARTS).unwrap();
        let want = if aggs.iter().any(|a| a.func == AggFunc::CountDistinct) {
            oracle_aggregate(&Table::concat(split.parts()).unwrap(), &group_by, &aggs, &out)
        } else {
            let p_schema = p_schema_of(&t, &group_by, &aggs);
            let partials: Vec<Table> = split
                .parts()
                .iter()
                .map(|p| oracle_map_side(p, &group_by, &aggs, &p_schema))
                .collect();
            oracle_merge(&Table::concat(&partials).unwrap(), &group_by, &aggs, &out)
        };
        prop_assert_eq!(
            identical(&got, &want, &sum_lanes(&aggs)),
            Ok(()),
            "{:?} by {:?}, morsel {}", aggs, group_by, morsel_rows
        );
    }
}

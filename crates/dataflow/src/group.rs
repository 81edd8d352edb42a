//! Grouping kernels over key lanes.
//!
//! One hash index, [`GroupTable`], serves the map-side partial
//! aggregation, raw aggregation (count_distinct included), `distinct`,
//! and the build side of the equi-join. It reads key *columns*: hashes
//! come from [`column_hash_codes_range`], keys compare lane by lane in
//! their native types, and a group is remembered by the first row that
//! opened it — so no operator materialises a row or copies a key. The
//! reduce-side merge of partial states ([`merge_partials`]) builds no
//! index: it groups by one stable sort of its key lanes under
//! [`SortKeys`], which is the order its output must have anyway.
//! Aggregate state lives in typed lanes, one vector per quantity, indexed
//! by group id, whoever hands the ids out.
//!
//! The output is pinned, bit for bit, to the row-at-a-time kernels these
//! replaced (the test-only `oracle` submodule keeps them as its oracle):
//!
//! * every group folds its rows in row order, and a merge folds partial
//!   rows in the order they arrive — partitions in source order — so float
//!   sums see the same additions in the same order (the sorted merge
//!   assigns ids in key order but folds in arrival order);
//! * the hash index hands group ids out in first-seen order, which is the
//!   order a partial table lists its groups in;
//! * final tables are sorted by key under `Value::total_cmp`;
//! * nulls form one group; equi-join keys with a null never match;
//! * null slots of every column these kernels build hold the type's
//!   default, as [`toreador_data::table::TableBuilder`] would write them —
//!   except a passed-through partial ([`PartialAgg`]), which shares its
//!   input's lanes, null slots and all; every reader of a partial checks
//!   validity first, and the merge's output is built fresh.
//!
//! A map partition that passes through hands the merge one partial per
//! row, so the merge folds that partition's rows one at a time in row
//! order, as the raw path would. Counts, integer sums, `min` and `max`
//! come out the same either way; a float sum or mean of a group with two
//! or more rows in a later, passed-through partition adds them to the
//! running total one by one instead of as one subtotal, and may differ in
//! its last bits from a combined run.

#[cfg(test)]
pub(crate) mod oracle;

use std::cmp::Ordering;
use std::collections::HashSet;

use toreador_data::column::{Buffer, Column, LaneRef, Validity};
use toreador_data::error::DataError;
use toreador_data::schema::{Field, Schema};
use toreador_data::table::{SortKeys, Table};
use toreador_data::value::DataType;

use crate::error::{FlowError, Result};
use crate::logical::{AggExpr, AggFunc, JoinType};
use crate::shuffle::column_hash_codes_range;

/// Marks an empty slot, and a row with no group (a null join key, or a
/// left-join row with no match).
const NONE: u32 = u32::MAX;

/// Seed of the multi-column key hash (the shuffle's routing seed).
const KEY_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// One slot of the open-addressing index.
#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u64,
    group: u32,
}

const FREE: Slot = Slot {
    hash: 0,
    group: NONE,
};

/// Open-addressing hash index from key to group id over *home* key
/// columns: a group is stored as the home row that first carried its key,
/// so the table holds no key data of its own. Every call must pass the
/// same home columns; [`GroupTable::find`] may probe with other columns
/// (the join's probe side).
#[derive(Debug)]
struct GroupTable {
    /// Home row of each group, by group id (ids are dense, first-seen).
    reps: Vec<u32>,
    /// Power-of-two slot array, at most half full.
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`: slot index = the top bits of the mixed hash.
    shift: u32,
}

impl GroupTable {
    fn new() -> Self {
        GroupTable {
            reps: Vec::new(),
            slots: vec![FREE; 16],
            shift: 64 - 4,
        }
    }

    fn len(&self) -> usize {
        self.reps.len()
    }

    /// Home row of each group, by group id.
    fn reps(&self) -> &[u32] {
        &self.reps
    }

    fn home_slot(&self, hash: u64) -> usize {
        // Fibonacci hashing spreads FNV's weak low bits over the top bits.
        (hash.wrapping_mul(KEY_SEED) >> self.shift) as usize
    }

    /// The group whose key equals row `row` of `probe`, or the free slot
    /// where it would go.
    fn probe(&self, home: &[&Column], probe: &[&Column], hash: u64, row: usize) -> (u32, usize) {
        let mask = self.slots.len() - 1;
        let mut i = self.home_slot(hash);
        loop {
            let slot = self.slots[i];
            if slot.group == NONE {
                return (NONE, i);
            }
            if slot.hash == hash
                && keys_eq(home, self.reps[slot.group as usize] as usize, probe, row)
            {
                return (slot.group, i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The group of home row `row`, opening a new one (the next id) when
    /// its key is new. Returns the id and whether it was new.
    fn intern(&mut self, home: &[&Column], hash: u64, row: usize) -> (u32, bool) {
        let (group, slot) = self.probe(home, home, hash, row);
        if group != NONE {
            return (group, false);
        }
        let group = u32::try_from(self.reps.len()).expect("fewer than 2^32 - 1 groups");
        self.reps.push(row as u32);
        self.slots[slot] = Slot { hash, group };
        if self.reps.len() * 2 > self.slots.len() {
            self.grow();
        }
        (group, true)
    }

    /// The group whose key equals row `row` of `probe` (same key types as
    /// `home`, or Int against Float), if any.
    fn find(&self, home: &[&Column], probe: &[&Column], hash: u64, row: usize) -> Option<u32> {
        let (group, _) = self.probe(home, probe, hash, row);
        (group != NONE).then_some(group)
    }

    fn grow(&mut self) {
        let capacity = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![FREE; capacity]);
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().filter(|s| s.group != NONE) {
            let mut i = self.home_slot(slot.hash);
            while self.slots[i].group != NONE {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    /// Group ids in ascending key order under [`SortKeys`], the order of
    /// `Value::total_cmp`. Distinct groups never tie.
    fn sorted(&self, home: &[&Column]) -> Vec<u32> {
        let keys = SortKeys::bind(home.iter().copied());
        let rep = |g: u32| self.reps[g as usize] as usize;
        let mut order: Vec<u32> = (0..self.reps.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| keys.cmp(rep(a), rep(b)));
        order
    }
}

/// Combined key hash of rows `lo..hi`. One key column hashes as its own
/// codes; several combine like the shuffle's router; no key column puts
/// every row in one group.
fn key_hashes(keys: &[&Column], lo: usize, hi: usize) -> Vec<u64> {
    match keys {
        [] => vec![0; hi - lo],
        [only] => column_hash_codes_range(only, lo, hi),
        _ => {
            let mut acc = vec![KEY_SEED; hi - lo];
            for col in keys {
                for (h, code) in acc.iter_mut().zip(column_hash_codes_range(col, lo, hi)) {
                    *h = h.rotate_left(5) ^ code;
                }
            }
            acc
        }
    }
}

fn keys_eq(a: &[&Column], i: usize, b: &[&Column], j: usize) -> bool {
    a.iter().zip(b).all(|(x, y)| lane_eq(x, i, y, j))
}

/// `Value::group_eq` of `a[i]` and `b[j]` without building either value:
/// nulls equal each other, floats compare by bit pattern (what
/// `total_cmp` equality is), and only mixed lanes — Int against Float join
/// keys — fall back to `group_eq` itself.
fn lane_eq(a: &Column, i: usize, b: &Column, j: usize) -> bool {
    let (va, vb) = (a.validity().get(i), b.validity().get(j));
    if !va || !vb {
        return va == vb;
    }
    match (a, b) {
        (Column::Bool { data: x, .. }, Column::Bool { data: y, .. }) => x[i] == y[j],
        (Column::Int { data: x, .. }, Column::Int { data: y, .. })
        | (Column::Timestamp { data: x, .. }, Column::Timestamp { data: y, .. }) => x[i] == y[j],
        (Column::Float { data: x, .. }, Column::Float { data: y, .. }) => {
            x[i].to_bits() == y[j].to_bits()
        }
        (Column::Str { data: x, .. }, Column::Str { data: y, .. }) => x[i] == y[j],
        _ => match (a.value(i), b.value(j)) {
            (Ok(x), Ok(y)) => x.group_eq(&y),
            _ => false,
        },
    }
}

/// Rows `idx` of `col` as a new column; [`NONE`] and null rows become
/// nulls holding the type's default, whatever the source's null slot held.
fn gather_or_null(col: &Column, idx: &[u32]) -> Column {
    let valid = |i: u32| i != NONE && col.validity().get(i as usize);
    let validity: Validity = idx.iter().map(|&i| valid(i)).collect();
    fn pick<T: Copy + Default>(data: &[T], idx: &[u32], valid: impl Fn(u32) -> bool) -> Buffer<T> {
        idx.iter()
            .map(|&i| {
                if valid(i) {
                    data[i as usize]
                } else {
                    T::default()
                }
            })
            .collect()
    }
    match col {
        Column::Bool { data, .. } => Column::Bool {
            data: pick(data, idx, valid),
            validity,
        },
        Column::Int { data, .. } => Column::Int {
            data: pick(data, idx, valid),
            validity,
        },
        Column::Float { data, .. } => Column::Float {
            data: pick(data, idx, valid),
            validity,
        },
        Column::Str { data, .. } => Column::Str {
            data: idx
                .iter()
                .map(|&i| if valid(i) { &data[i as usize] } else { "" })
                .collect(),
            validity,
        },
        Column::Timestamp { data, .. } => Column::Timestamp {
            data: pick(data, idx, valid),
            validity,
        },
    }
}

/// Valid where `seen` (all valid without it), groups in `order`.
fn order_validity(seen: Option<&[bool]>, order: &[u32]) -> Validity {
    match seen {
        None => Validity::all_valid(order.len()),
        Some(seen) => order.iter().map(|&g| seen[g as usize]).collect(),
    }
}

/// `vals` in `order`, valid where `seen` (all valid without it).
fn permute<T: Copy>(vals: &[T], seen: Option<&[bool]>, order: &[u32]) -> (Buffer<T>, Validity) {
    let data = order.iter().map(|&g| vals[g as usize]).collect();
    (data, order_validity(seen, order))
}

/// A finished table, refusing a null in a non-nullable field exactly as
/// `TableBuilder::push_row` does.
fn finish_table(schema: &Schema, columns: Vec<Column>) -> Result<Table> {
    if let Some(f) = schema
        .fields()
        .iter()
        .zip(&columns)
        .find_map(|(f, c)| (!f.nullable && c.null_count() > 0).then_some(f))
    {
        return Err(FlowError::Data(DataError::Invalid(format!(
            "null in non-nullable column {:?}",
            f.name
        ))));
    }
    Table::new(schema.clone(), columns).map_err(FlowError::Data)
}

fn type_error(expected: &str, found: &Column) -> FlowError {
    FlowError::Data(DataError::TypeMismatch {
        expected: expected.to_owned(),
        found: found.data_type().name().to_owned(),
    })
}

/// A partial-state lane must hold no nulls (the map side never writes
/// one); a null there is refused as the row kernels refused it.
fn require_valid(col: &Column, expected: &str) -> Result<()> {
    if col.null_count() > 0 {
        return Err(FlowError::Data(DataError::TypeMismatch {
            expected: expected.to_owned(),
            found: "Null".to_owned(),
        }));
    }
    Ok(())
}

// ------------------------------------------------------- accumulator lanes

/// The running minimum or maximum per group, in the input's native type.
#[derive(Debug)]
enum Best {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<String>),
    Timestamp(Vec<i64>),
}

impl Best {
    fn data_type(&self) -> DataType {
        match self {
            Best::Bool(_) => DataType::Bool,
            Best::Int(_) => DataType::Int,
            Best::Float(_) => DataType::Float,
            Best::Str(_) => DataType::Str,
            Best::Timestamp(_) => DataType::Timestamp,
        }
    }
}

/// One aggregate's per-group state, a typed vector per quantity.
#[derive(Debug)]
enum AccLane {
    Count(Vec<i64>),
    SumInt {
        sum: Vec<i64>,
        seen: Vec<bool>,
    },
    SumFloat {
        sum: Vec<f64>,
        seen: Vec<bool>,
    },
    Mean {
        sum: Vec<f64>,
        n: Vec<i64>,
    },
    /// Min (`want == Less`) or Max (`want == Greater`).
    Best {
        best: Best,
        seen: Vec<bool>,
        want: Ordering,
    },
    /// Distinct non-null hash codes (count_distinct counts codes, not values).
    Distinct(Vec<HashSet<u64>>),
}

impl AccLane {
    /// The lane for `func` over an input column of type `ty`. `partial`
    /// lanes feed a partial table, which count_distinct cannot be. Input
    /// types are the logical plan's to check; a lane that meets a column of
    /// the wrong type refuses it in [`AccLane::fold`].
    fn new(func: AggFunc, ty: DataType, partial: bool) -> Result<AccLane> {
        Ok(match func {
            AggFunc::Count => AccLane::Count(Vec::new()),
            AggFunc::Sum if ty == DataType::Int => AccLane::SumInt {
                sum: Vec::new(),
                seen: Vec::new(),
            },
            AggFunc::Sum => AccLane::SumFloat {
                sum: Vec::new(),
                seen: Vec::new(),
            },
            AggFunc::Mean => AccLane::Mean {
                sum: Vec::new(),
                n: Vec::new(),
            },
            AggFunc::Min | AggFunc::Max => AccLane::Best {
                best: match ty {
                    DataType::Bool => Best::Bool(Vec::new()),
                    DataType::Int => Best::Int(Vec::new()),
                    DataType::Float => Best::Float(Vec::new()),
                    DataType::Str => Best::Str(Vec::new()),
                    DataType::Timestamp => Best::Timestamp(Vec::new()),
                },
                seen: Vec::new(),
                want: if func == AggFunc::Min {
                    Ordering::Less
                } else {
                    Ordering::Greater
                },
            },
            AggFunc::CountDistinct if partial => {
                return Err(FlowError::Plan(
                    "partial aggregation does not support count_distinct".to_owned(),
                ))
            }
            AggFunc::CountDistinct => AccLane::Distinct(Vec::new()),
        })
    }

    /// Make room for `groups` groups; new groups start empty.
    fn grow(&mut self, groups: usize) {
        match self {
            AccLane::Count(n) => n.resize(groups, 0),
            AccLane::SumInt { sum, seen } => {
                sum.resize(groups, 0);
                seen.resize(groups, false);
            }
            AccLane::SumFloat { sum, seen } => {
                sum.resize(groups, 0.0);
                seen.resize(groups, false);
            }
            AccLane::Mean { sum, n } => {
                sum.resize(groups, 0.0);
                n.resize(groups, 0);
            }
            AccLane::Best { best, seen, .. } => {
                seen.resize(groups, false);
                match best {
                    Best::Bool(v) => v.resize(groups, false),
                    Best::Int(v) | Best::Timestamp(v) => v.resize(groups, 0),
                    Best::Float(v) => v.resize(groups, 0.0),
                    Best::Str(v) => v.resize(groups, String::new()),
                }
            }
            AccLane::Distinct(sets) => sets.resize_with(groups, HashSet::new),
        }
    }

    /// Fold rows `lo..lo + gids.len()` of `input` into the groups `gids`
    /// names, in row order. `merging` lanes read partial states: counts
    /// add, and a mean reads its `(sum, n)` pair from `input` and `second`.
    fn fold(
        &mut self,
        input: &Column,
        second: Option<&Column>,
        gids: &[u32],
        lo: usize,
        merging: bool,
    ) -> Result<()> {
        let valid = input.validity();
        let rows = gids.iter().enumerate().map(|(k, &g)| (lo + k, g as usize));
        match self {
            AccLane::Count(n) if merging => {
                let (data, _) = input.as_ints()?;
                require_valid(input, "Int")?;
                for (row, g) in rows {
                    n[g] += data[row];
                }
            }
            AccLane::Count(n) => {
                for (row, g) in rows {
                    if valid.get(row) {
                        n[g] += 1;
                    }
                }
            }
            AccLane::SumInt { sum, seen } => {
                let LaneRef::Int(data) = input.lane() else {
                    return Err(type_error("Int", input));
                };
                for (row, g) in rows {
                    if valid.get(row) {
                        sum[g] = sum[g].wrapping_add(data[row]);
                        seen[g] = true;
                    }
                }
            }
            AccLane::SumFloat { sum, seen } => {
                let LaneRef::Float(data) = input.lane() else {
                    return Err(type_error("Float", input));
                };
                for (row, g) in rows {
                    if valid.get(row) {
                        sum[g] += data[row];
                        seen[g] = true;
                    }
                }
            }
            AccLane::Mean { sum, n } if merging => {
                let counts = second.ok_or_else(|| type_error("Int", input))?;
                let (sums, _) = input.as_floats()?;
                let (ns, _) = counts.as_ints()?;
                require_valid(input, "Float")?;
                require_valid(counts, "Int")?;
                for (row, g) in rows {
                    sum[g] += sums[row];
                    n[g] += ns[row];
                }
            }
            AccLane::Mean { sum, n } => {
                let lane = input.lane();
                for (row, g) in rows {
                    if valid.get(row) {
                        sum[g] += match lane {
                            LaneRef::Int(data) => data[row] as f64,
                            LaneRef::Float(data) => data[row],
                            _ => return Err(type_error("Float", input)),
                        };
                        n[g] += 1;
                    }
                }
            }
            AccLane::Best { best, seen, want } => {
                let want = *want;
                match (best, input.lane()) {
                    (Best::Bool(v), LaneRef::Bool(data)) => fold_best(
                        v,
                        seen,
                        valid,
                        rows,
                        want,
                        |r, m| data[r].cmp(m),
                        |r| data[r],
                    ),
                    (Best::Int(v), LaneRef::Int(data))
                    | (Best::Timestamp(v), LaneRef::Timestamp(data)) => fold_best(
                        v,
                        seen,
                        valid,
                        rows,
                        want,
                        |r, m| data[r].cmp(m),
                        |r| data[r],
                    ),
                    (Best::Float(v), LaneRef::Float(data)) => fold_best(
                        v,
                        seen,
                        valid,
                        rows,
                        want,
                        |r, m| data[r].total_cmp(m),
                        |r| data[r],
                    ),
                    (Best::Str(v), LaneRef::Str(data)) => fold_best(
                        v,
                        seen,
                        valid,
                        rows,
                        want,
                        |r, m: &String| data[r].cmp(m.as_str()),
                        |r| data[r].to_owned(),
                    ),
                    (best, _) => return Err(type_error(best.data_type().name(), input)),
                }
            }
            AccLane::Distinct(sets) => {
                let codes = column_hash_codes_range(input, lo, lo + gids.len());
                for ((row, g), code) in rows.zip(codes) {
                    if valid.get(row) {
                        sets[g].insert(code);
                    }
                }
            }
        }
        Ok(())
    }

    /// The partial-state column(s) of this lane, groups in `order`: the
    /// layout [`partial_schema`] declares.
    fn state_columns(&self, order: &[u32]) -> Vec<Column> {
        match self {
            AccLane::Mean { sum, n } => {
                let (data, validity) = permute(sum, None, order);
                let sums = Column::Float { data, validity };
                let (data, validity) = permute(n, None, order);
                vec![sums, Column::Int { data, validity }]
            }
            other => vec![other.final_column(order)],
        }
    }

    /// The partial-state column(s) of a partition that passes through: one
    /// partial per input row, as [`AccLane::state_columns`] would write it
    /// for a group of that row alone. A sum, min or max state is `input`
    /// itself, shared, its validity the state's `seen`; a count is 1 under
    /// a valid row and 0 under a null; a mean is the value as `f64` (0.0
    /// under a null) beside that count. A type the fold refuses is refused
    /// with the fold's error.
    fn pass_through(&self, input: &Column) -> Result<Vec<Column>> {
        let valid = input.validity();
        let n = input.len();
        let counts = || Column::Int {
            data: (0..n).map(|row| valid.get(row) as i64).collect(),
            validity: Validity::all_valid(n),
        };
        Ok(match (self, input.lane()) {
            (AccLane::Count(_), _) => vec![counts()],
            (AccLane::SumInt { .. }, LaneRef::Int(_))
            | (AccLane::SumFloat { .. }, LaneRef::Float(_)) => vec![input.clone()],
            (AccLane::SumInt { .. }, _) => return Err(type_error("Int", input)),
            (AccLane::SumFloat { .. }, _) => return Err(type_error("Float", input)),
            (AccLane::Best { best, .. }, _) if best.data_type() == input.data_type() => {
                vec![input.clone()]
            }
            (AccLane::Best { best, .. }, _) => {
                return Err(type_error(best.data_type().name(), input))
            }
            (AccLane::Mean { .. }, lane) => {
                let value = |row: usize| match lane {
                    LaneRef::Int(data) => Ok(data[row] as f64),
                    LaneRef::Float(data) => Ok(data[row]),
                    _ => Err(type_error("Float", input)),
                };
                let sums = (0..n)
                    .map(|row| if valid.get(row) { value(row) } else { Ok(0.0) })
                    .collect::<Result<Buffer<f64>>>()?;
                let sums = Column::Float {
                    data: sums,
                    validity: Validity::all_valid(n),
                };
                vec![sums, counts()]
            }
            (AccLane::Distinct(_), _) => unreachable!("a partial lane is never count_distinct"),
        })
    }

    /// The aggregate's value column, groups in `order`.
    fn final_column(&self, order: &[u32]) -> Column {
        match self {
            AccLane::Count(n) => {
                let (data, validity) = permute(n, None, order);
                Column::Int { data, validity }
            }
            AccLane::SumInt { sum, seen } => {
                let (data, validity) = permute(sum, Some(seen), order);
                Column::Int { data, validity }
            }
            AccLane::SumFloat { sum, seen } => {
                let (data, validity) = permute(sum, Some(seen), order);
                Column::Float { data, validity }
            }
            AccLane::Mean { sum, n } => {
                let validity = order.iter().map(|&g| n[g as usize] != 0).collect();
                let data = order
                    .iter()
                    .map(|&g| {
                        let (s, n) = (sum[g as usize], n[g as usize]);
                        if n == 0 {
                            0.0
                        } else {
                            s / n as f64
                        }
                    })
                    .collect();
                Column::Float { data, validity }
            }
            AccLane::Best { best, seen, .. } => match best {
                Best::Bool(v) => {
                    let (data, validity) = permute(v, Some(seen), order);
                    Column::Bool { data, validity }
                }
                Best::Int(v) => {
                    let (data, validity) = permute(v, Some(seen), order);
                    Column::Int { data, validity }
                }
                Best::Float(v) => {
                    let (data, validity) = permute(v, Some(seen), order);
                    Column::Float { data, validity }
                }
                Best::Str(v) => Column::Str {
                    data: order.iter().map(|&g| &v[g as usize]).collect(),
                    validity: order_validity(Some(seen), order),
                },
                Best::Timestamp(v) => {
                    let (data, validity) = permute(v, Some(seen), order);
                    Column::Timestamp { data, validity }
                }
            },
            AccLane::Distinct(sets) => {
                let counts: Vec<i64> = sets.iter().map(|s| s.len() as i64).collect();
                let (data, validity) = permute(&counts, None, order);
                Column::Int { data, validity }
            }
        }
    }
}

/// Keep, per group, the first value no other beats by `want` (the row
/// kernels' `if m is null || v.total_cmp(m) == want { m = v }`).
/// `cmp(row, m)` orders input row `row` against the kept value `m`, and
/// `take(row)` makes the row's value the kept one.
fn fold_best<T>(
    vals: &mut [T],
    seen: &mut [bool],
    valid: &Validity,
    rows: impl Iterator<Item = (usize, usize)>,
    want: Ordering,
    cmp: impl Fn(usize, &T) -> Ordering,
    take: impl Fn(usize) -> T,
) {
    for (row, g) in rows {
        if valid.get(row) && (!seen[g] || cmp(row, &vals[g]) == want) {
            vals[g] = take(row);
            seen[g] = true;
        }
    }
}

// ------------------------------------------------------------ aggregation

/// One lane per aggregate over one home table, folded over group ids
/// that the caller assigns: the hash index's ([`Hashed`]) or the sorted
/// merge's.
#[derive(Debug)]
struct Grouped {
    key_idx: Vec<usize>,
    /// Input column(s) of each lane: one, or a mean's `(sum, n)` pair.
    inputs: Vec<(usize, Option<usize>)>,
    lanes: Vec<AccLane>,
    merging: bool,
}

impl Grouped {
    /// State that aggregates raw input rows (`partial` = for a partial
    /// table).
    fn over_rows(
        schema: &Schema,
        group_by: &[String],
        aggs: &[AggExpr],
        partial: bool,
    ) -> Result<Grouped> {
        let key_idx = group_by
            .iter()
            .map(|g| schema.index_of(g))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let mut inputs = Vec::with_capacity(aggs.len());
        let mut lanes = Vec::with_capacity(aggs.len());
        for a in aggs {
            let i = schema.index_of(&a.column)?;
            inputs.push((i, None));
            lanes.push(AccLane::new(a.func, schema.fields()[i].data_type, partial)?);
        }
        Ok(Grouped {
            key_idx,
            inputs,
            lanes,
            merging: false,
        })
    }

    /// State that merges the partial rows [`partial_schema`] lays out:
    /// group keys first, then each aggregate's state column(s).
    fn over_partials(schema: &Schema, group_by: &[String], aggs: &[AggExpr]) -> Result<Grouped> {
        let field = |i: usize| {
            schema
                .fields()
                .get(i)
                .map(|f| f.data_type)
                .ok_or(FlowError::Data(DataError::ColumnIndexOutOfBounds {
                    index: i,
                    width: schema.len(),
                }))
        };
        let mut pos = group_by.len();
        let mut inputs = Vec::with_capacity(aggs.len());
        let mut lanes = Vec::with_capacity(aggs.len());
        for a in aggs {
            let ty = field(pos)?;
            if a.func == AggFunc::Mean {
                field(pos + 1)?;
                inputs.push((pos, Some(pos + 1)));
                lanes.push(AccLane::new(AggFunc::Mean, DataType::Float, true)?);
                pos += 2;
            } else {
                inputs.push((pos, None));
                lanes.push(AccLane::new(a.func, ty, true)?);
                pos += 1;
            }
        }
        Ok(Grouped {
            key_idx: (0..group_by.len()).collect(),
            inputs,
            lanes,
            merging: true,
        })
    }

    fn keys<'t>(&self, t: &'t Table) -> Vec<&'t Column> {
        self.key_idx.iter().map(|&i| &t.columns()[i]).collect()
    }

    /// Fold rows `lo..lo + gids.len()` of `t` into the groups `gids` names,
    /// in row order, growing every lane to `groups` groups first.
    fn fold(&mut self, t: &Table, gids: &[u32], lo: usize, groups: usize) -> Result<()> {
        let cols = t.columns();
        for (lane, &(first, second)) in self.lanes.iter_mut().zip(&self.inputs) {
            lane.grow(groups);
            lane.fold(
                &cols[first],
                second.map(|i| &cols[i]),
                gids,
                lo,
                self.merging,
            )?;
        }
        Ok(())
    }

    /// The final table: groups `order`, whose key columns gather the home
    /// rows `homes`, one per entry of `order` (unread without keys).
    fn finish(
        &self,
        t: &Table,
        homes: &[u32],
        order: &[u32],
        out_schema: &Schema,
    ) -> Result<Table> {
        let mut columns: Vec<Column> = self
            .keys(t)
            .iter()
            .map(|k| gather_or_null(k, homes))
            .collect();
        columns.extend(self.lanes.iter().map(|lane| lane.final_column(order)));
        finish_table(out_schema, columns)
    }
}

/// [`Grouped`] state whose group ids come from a [`GroupTable`] over its
/// key columns, handed out in first-seen order.
#[derive(Debug)]
struct Hashed {
    state: Grouped,
    groups: GroupTable,
    /// Scratch: the group of each row of the current range.
    gids: Vec<u32>,
}

impl Hashed {
    fn new(state: Grouped) -> Hashed {
        Hashed {
            state,
            groups: GroupTable::new(),
            gids: Vec::new(),
        }
    }

    /// Fold rows `lo..hi` of `t` — the home table of every call.
    fn fold(&mut self, t: &Table, lo: usize, hi: usize) -> Result<()> {
        if hi > t.num_rows() || lo > hi {
            return Err(FlowError::Data(DataError::RowIndexOutOfBounds {
                index: hi,
                len: t.num_rows(),
            }));
        }
        let keys = self.state.keys(t);
        let hashes = key_hashes(&keys, lo, hi);
        let Hashed {
            state,
            groups,
            gids,
        } = self;
        gids.clear();
        gids.extend(
            (lo..hi)
                .zip(hashes)
                .map(|(row, hash)| groups.intern(&keys, hash, row).0),
        );
        state.fold(t, gids, lo, groups.len())
    }

    /// The final table: one row per group sorted by key, or the one
    /// identity row of a global aggregate over no rows.
    fn finish_sorted(mut self, t: &Table, out_schema: &Schema) -> Result<Table> {
        let keys = self.state.keys(t);
        let (homes, order) = if keys.is_empty() {
            let n = self.groups.len().max(1);
            for lane in &mut self.state.lanes {
                lane.grow(n);
            }
            (Vec::new(), (0..n as u32).collect())
        } else {
            let order = self.groups.sorted(&keys);
            let homes = order.iter().map(|&g| self.groups.reps()[g as usize]);
            (homes.collect(), order)
        };
        self.state.finish(t, &homes, &order, out_schema)
    }
}

/// The intermediate schema of map-side partial aggregation: the group
/// fields, then per aggregate its state — `count` → `__p{i}_count: Int`,
/// `sum` → `__p{i}_sum` (Int over Int, else Float), `min`/`max` →
/// the input type, `mean` → `__p{i}_sum: Float, __p{i}_n: Int`.
/// count_distinct has no partial form.
pub(crate) fn partial_schema(
    group_fields: Vec<Field>,
    aggs: &[AggExpr],
    in_schema: &Schema,
) -> Result<Schema> {
    let mut fields = group_fields;
    for (i, a) in aggs.iter().enumerate() {
        let in_ty = in_schema
            .field(&a.column)
            .map_err(FlowError::Data)?
            .data_type;
        match a.func {
            AggFunc::Count => fields.push(Field::new(format!("__p{i}_count"), DataType::Int)),
            AggFunc::Sum => {
                let ty = if in_ty == DataType::Int {
                    DataType::Int
                } else {
                    DataType::Float
                };
                fields.push(Field::new(format!("__p{i}_sum"), ty));
            }
            AggFunc::Min => fields.push(Field::new(format!("__p{i}_min"), in_ty)),
            AggFunc::Max => fields.push(Field::new(format!("__p{i}_max"), in_ty)),
            AggFunc::Mean => {
                fields.push(Field::new(format!("__p{i}_sum"), DataType::Float));
                fields.push(Field::new(format!("__p{i}_n"), DataType::Int));
            }
            AggFunc::CountDistinct => {
                return Err(FlowError::Plan(
                    "partial aggregation does not support count_distinct".to_owned(),
                ))
            }
        }
    }
    Schema::new(fields).map_err(FlowError::Data)
}

/// Rows of a partition the map side combines before it decides whether
/// combining pays: the first `PROBE_ROWS`, or all of a smaller partition.
const PROBE_ROWS: usize = 4096;

/// A partition keeps combining only if its probe averaged at least this
/// many rows per group; below it, it passes its rows through.
const MIN_ROWS_PER_GROUP: usize = 2;

/// What a partition's map side does with its rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MapMode {
    /// Combining the probe's rows; the decision falls at its last row.
    Probing,
    Combine,
    /// One partial per input row, built at finish from the input's lanes.
    PassThrough,
}

/// Map-side state for one partition, fed row ranges of that one partition
/// in ascending order from row 0 — a whole partition at once, or one
/// morsel at a time with the same result.
///
/// A keyed aggregation folds the partition's first [`PROBE_ROWS`] rows
/// into the combine state, cutting a range at that row, and then decides
/// once: it passes the whole partition through iff the probe opened more
/// than one group per [`MIN_ROWS_PER_GROUP`] rows. The decision reads only
/// the partition's rows, so every morsel size, driver, retry and budget
/// makes the same one. A global aggregate always combines.
#[derive(Debug)]
pub(crate) struct PartialAgg {
    state: Hashed,
    mode: MapMode,
    /// Rows folded so far.
    folded: usize,
}

impl PartialAgg {
    /// State for partitions of `schema`.
    pub(crate) fn new(schema: &Schema, group_by: &[String], aggs: &[AggExpr]) -> Result<Self> {
        let state = Hashed::new(Grouped::over_rows(schema, group_by, aggs, true)?);
        let mode = if group_by.is_empty() {
            MapMode::Combine
        } else {
            MapMode::Probing
        };
        Ok(PartialAgg {
            state,
            mode,
            folded: 0,
        })
    }

    /// Fold rows `lo..hi` of `part`, in place. Every call must pass the
    /// same partition.
    pub(crate) fn fold(&mut self, part: &Table, lo: usize, hi: usize) -> Result<()> {
        match self.mode {
            MapMode::Combine => self.state.fold(part, lo, hi),
            MapMode::PassThrough => Ok(()),
            MapMode::Probing => {
                let cut = hi.min(lo + (PROBE_ROWS - self.folded));
                self.state.fold(part, lo, cut)?;
                self.folded += cut - lo;
                if self.folded < PROBE_ROWS {
                    return Ok(());
                }
                self.decide();
                self.fold(part, cut, hi)
            }
        }
    }

    /// Leave the probe: pass through, dropping the probe's group index,
    /// or keep combining.
    fn decide(&mut self) {
        if self.state.groups.len() * MIN_ROWS_PER_GROUP > self.folded {
            self.mode = MapMode::PassThrough;
            self.state.groups = GroupTable::new();
        } else {
            self.mode = MapMode::Combine;
        }
    }

    /// The partial table (`p_schema` from [`partial_schema`]): combined,
    /// one row per group in first-seen order; passed through, one row per
    /// input row in row order, its key columns `part`'s own.
    pub(crate) fn finish(mut self, part: &Table, p_schema: &Schema) -> Result<Table> {
        if self.mode == MapMode::Probing {
            self.decide();
        }
        let Hashed {
            state: g, groups, ..
        } = &self.state;
        let keys = g.keys(part);
        let mut columns: Vec<Column>;
        if self.mode == MapMode::PassThrough {
            columns = keys.into_iter().cloned().collect();
            let cols = part.columns();
            for (lane, &(input, _)) in g.lanes.iter().zip(&g.inputs) {
                columns.extend(lane.pass_through(&cols[input])?);
            }
        } else {
            let order: Vec<u32> = (0..groups.len() as u32).collect();
            columns = keys
                .iter()
                .map(|k| gather_or_null(k, groups.reps()))
                .collect();
            for lane in &g.lanes {
                columns.extend(lane.state_columns(&order));
            }
        }
        finish_table(p_schema, columns)
    }
}

/// Reduce-side merge of partial rows (in arrival order) into final
/// aggregate rows, sorted by key.
///
/// One stable sort of the key lanes groups the rows: a group is a run of
/// neighbours that [`SortKeys::cmp`] calls `Equal` — `total_cmp`
/// equality, so nulls form one group and ±0.0 and NaN payloads stay
/// apart, as in [`lane_eq`]. Each row's group id is its run's rank, so
/// ids are already in key order, and a group's home row is its run's
/// first, which the stable sort keeps the first-seen. The lanes then fold
/// every row in arrival order, so float sums see the additions a hash
/// merge would. A global aggregate is one group, its identity row when no
/// rows arrive.
pub(crate) fn merge_partials(
    t: &Table,
    group_by: &[String],
    aggs: &[AggExpr],
    out_schema: &Schema,
) -> Result<Table> {
    let mut state = Grouped::over_partials(t.schema(), group_by, aggs)?;
    let keys = state.keys(t);
    let sort = SortKeys::bind(keys.iter().copied());
    let mut gids = vec![0u32; t.num_rows()];
    let mut homes: Vec<u32> = Vec::new();
    let mut prev = None;
    for row in sort.order(t.num_rows(), false) {
        if prev.map_or(true, |p| sort.cmp(p, row as usize) != Ordering::Equal) {
            homes.push(row);
        }
        gids[row as usize] = homes.len() as u32 - 1;
        prev = Some(row as usize);
    }
    let groups = if keys.is_empty() {
        homes.len().max(1)
    } else {
        homes.len()
    };
    state.fold(t, &gids, 0, groups)?;
    let order: Vec<u32> = (0..groups as u32).collect();
    state.finish(t, &homes, &order, out_schema)
}

/// Aggregate raw rows in one pass (post-shuffle, or the raw path's only
/// pass; the one path count_distinct takes), sorted by key.
pub(crate) fn aggregate(
    t: &Table,
    group_by: &[String],
    aggs: &[AggExpr],
    out_schema: &Schema,
) -> Result<Table> {
    let mut state = Hashed::new(Grouped::over_rows(t.schema(), group_by, aggs, false)?);
    state.fold(t, 0, t.num_rows())?;
    state.finish_sorted(t, out_schema)
}

// ------------------------------------------------------------ join / distinct

fn key_columns<'t>(t: &'t Table, names: &[String]) -> Result<Vec<&'t Column>> {
    names
        .iter()
        .map(|n| t.column(n).map_err(FlowError::Data))
        .collect()
}

fn any_null(keys: &[&Column], row: usize) -> bool {
    keys.iter().any(|k| !k.validity().get(row))
}

/// Equi-join one co-partitioned pair: build on `right`, probe with `left`
/// in row order. Each left row emits its matches in right row order, or —
/// for a left join — one row padded with nulls. Keys holding a null never
/// match.
pub(crate) fn hash_join(
    left: &Table,
    right: &Table,
    left_keys: &[String],
    right_keys: &[String],
    join_type: JoinType,
    out_schema: &Schema,
) -> Result<Table> {
    let lk = key_columns(left, left_keys)?;
    let rk = key_columns(right, right_keys)?;

    // Build: group the right rows by key, then bucket each group's rows in
    // row order (counting sort into one array).
    let mut groups = GroupTable::new();
    let hashes = key_hashes(&rk, 0, right.num_rows());
    let r_gid: Vec<u32> = hashes
        .into_iter()
        .enumerate()
        .map(|(row, hash)| {
            if any_null(&rk, row) {
                NONE
            } else {
                groups.intern(&rk, hash, row).0
            }
        })
        .collect();
    let mut start = vec![0u32; groups.len() + 1];
    for &g in r_gid.iter().filter(|&&g| g != NONE) {
        start[g as usize + 1] += 1;
    }
    for g in 0..groups.len() {
        start[g + 1] += start[g];
    }
    let mut fill = start.clone();
    let mut members = vec![0u32; start[groups.len()] as usize];
    for (row, &g) in r_gid.iter().enumerate().filter(|(_, &g)| g != NONE) {
        members[fill[g as usize] as usize] = row as u32;
        fill[g as usize] += 1;
    }

    // Probe.
    let hashes = key_hashes(&lk, 0, left.num_rows());
    let (mut l_idx, mut r_idx) = (Vec::new(), Vec::new());
    for (row, hash) in hashes.into_iter().enumerate() {
        let hit = if any_null(&lk, row) {
            None
        } else {
            groups.find(&rk, &lk, hash, row)
        };
        match hit {
            Some(g) => {
                let (s, e) = (start[g as usize] as usize, start[g as usize + 1] as usize);
                for &m in &members[s..e] {
                    l_idx.push(row as u32);
                    r_idx.push(m);
                }
            }
            None if join_type == JoinType::Left => {
                l_idx.push(row as u32);
                r_idx.push(NONE);
            }
            None => {}
        }
    }
    let columns = left
        .columns()
        .iter()
        .map(|c| gather_or_null(c, &l_idx))
        .chain(right.columns().iter().map(|c| gather_or_null(c, &r_idx)))
        .collect();
    finish_table(out_schema, columns)
}

/// The first occurrence of every distinct row, in row order.
pub(crate) fn distinct(t: &Table) -> Result<Table> {
    let cols: Vec<&Column> = t.columns().iter().collect();
    let mut groups = GroupTable::new();
    let keep: Vec<u32> = key_hashes(&cols, 0, t.num_rows())
        .into_iter()
        .enumerate()
        .filter_map(|(row, hash)| groups.intern(&cols, hash, row).1.then_some(row as u32))
        .collect();
    t.take_sel(&keep).map_err(FlowError::Data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use toreador_data::value::Value;

    fn ints(vals: &[Option<i64>]) -> Column {
        Column::from_values(
            DataType::Int,
            &vals.iter().map(|v| Value::from(*v)).collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn groups_are_numbered_first_seen_and_nulls_share_one() {
        let c = ints(&[Some(5), None, Some(5), Some(1), None]);
        let home = [&c];
        let hashes = key_hashes(&home, 0, 5);
        let mut g = GroupTable::new();
        let ids: Vec<u32> = (0..5).map(|r| g.intern(&home, hashes[r], r).0).collect();
        assert_eq!(ids, vec![0, 1, 0, 2, 1]);
        assert_eq!(g.reps(), &[0, 1, 3]);
        // Key order: null first, then 1, then 5.
        assert_eq!(g.sorted(&home), vec![1, 2, 0]);
    }

    #[test]
    fn the_index_grows_past_its_first_slots() {
        let c = Column::from_ints((0..10_000).map(|i| i % 3_000).collect());
        let home = [&c];
        let hashes = key_hashes(&home, 0, c.len());
        let mut g = GroupTable::new();
        for (r, &h) in hashes.iter().enumerate() {
            let (id, new) = g.intern(&home, h, r);
            assert_eq!(id as usize, r % 3_000);
            assert_eq!(new, r < 3_000);
        }
        assert_eq!(g.len(), 3_000);
    }

    #[test]
    fn floats_group_by_bit_pattern_and_int_float_join_keys_meet() {
        let f = Column::from_floats(vec![
            0.0,
            -0.0,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001),
        ]);
        let home = [&f];
        let hashes = key_hashes(&home, 0, 4);
        let mut g = GroupTable::new();
        let ids: Vec<u32> = (0..4).map(|r| g.intern(&home, hashes[r], r).0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3], "±0.0 and NaN payloads stay apart");

        let build = Column::from_floats(vec![2.0, 2.5]);
        let probe = Column::from_ints(vec![2, 3]);
        let mut g = GroupTable::new();
        let bh = key_hashes(&[&build], 0, 2);
        for (r, &h) in bh.iter().enumerate() {
            g.intern(&[&build], h, r);
        }
        let ph = key_hashes(&[&probe], 0, 2);
        assert_eq!(g.find(&[&build], &[&probe], ph[0], 0), Some(0));
        assert_eq!(g.find(&[&build], &[&probe], ph[1], 1), None);
    }

    #[test]
    fn a_partition_that_does_not_reduce_passes_its_lanes_through() {
        let rows = PROBE_ROWS + 10;
        let key = Column::from_ints((0..rows as i64).collect());
        let price = Column::Float {
            data: (0..rows).map(|r| r as f64).collect(),
            validity: (0..rows).map(|r| r % 3 != 0).collect(),
        };
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("p", DataType::Float),
        ])
        .unwrap();
        let part = Table::new(schema.clone(), vec![key, price]).unwrap();
        let aggs = [
            AggExpr::new(AggFunc::Count, "p", "n"),
            AggExpr::new(AggFunc::Sum, "p", "s"),
        ];
        let group_by = ["k".to_owned()];
        let p_schema = partial_schema(vec![schema.fields()[0].clone()], &aggs, &schema).unwrap();
        let mut state = PartialAgg::new(&schema, &group_by, &aggs).unwrap();
        state.fold(&part, 0, rows).unwrap();
        assert_eq!(state.mode, MapMode::PassThrough);
        let partial = state.finish(&part, &p_schema).unwrap();
        let cols = partial.columns();
        assert!(cols[0].shares_storage(&part.columns()[0]), "keys shared");
        assert!(
            cols[2].shares_storage(&part.columns()[1]),
            "sum is the input"
        );
        let (counts, valid) = cols[1].as_ints().unwrap();
        assert_eq!(valid.null_count(), 0);
        assert!(counts
            .iter()
            .enumerate()
            .all(|(r, &c)| c == (r % 3 != 0) as i64));

        // Eight keys reduce: the probe keeps combining.
        let key = Column::from_ints((0..rows as i64).map(|r| r % 8).collect());
        let part = Table::new(schema.clone(), vec![key, part.columns()[1].clone()]).unwrap();
        let mut state = PartialAgg::new(&schema, &group_by, &aggs).unwrap();
        state.fold(&part, 0, rows).unwrap();
        assert_eq!(state.mode, MapMode::Combine);
        assert_eq!(state.finish(&part, &p_schema).unwrap().num_rows(), 8);
    }

    #[test]
    fn gathered_nulls_hold_the_default_whatever_the_source_held() {
        // A null slot carrying 7 (as a vectorized kernel may leave it).
        let c = Column::Int {
            data: vec![3, 7].into(),
            validity: [true, false].into_iter().collect(),
        };
        let out = gather_or_null(&c, &[1, 0, NONE]);
        let Column::Int { data, validity } = &out else {
            unreachable!()
        };
        assert_eq!(**data, [0, 3, 0]);
        assert_eq!(validity.null_count(), 2);
    }

    // ---------------------------------------------- the merge at scale

    /// Rows in each partition of the large-merge tests: four partitions
    /// make ≈ 20 000 partial rows when every partition passes through.
    const PART_ROWS: usize = 5_000;

    /// Float values whose sum depends on the order of the additions:
    /// `1e16` absorbs a later `1.0`, and `-1e16` cancels it back out.
    const ORDERED: [f64; 8] = [1e16, 1.0, 1.0, -1e16, 0.5, -0.0, 3.0, -1.5];

    /// A value lane beside `key`: `p` is Float, drawn from [`ORDERED`] by
    /// a hash of the global row, null on every eleventh row over a garbage
    /// payload; `q` is Int.
    fn with_values(key_field: Field, key: Column, first_row: usize) -> Table {
        let n = key.len();
        let row = |r: usize| first_row + r;
        let pick = |r: usize| (row(r) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 61;
        let p = Column::Float {
            data: (0..n).map(|r| ORDERED[pick(r) as usize]).collect(),
            validity: (0..n).map(|r| row(r) % 11 != 0).collect(),
        };
        let q = Column::from_ints((0..n).map(|r| (row(r) as i64 * 37) % 101 - 50).collect());
        let schema = Schema::new(vec![
            key_field,
            Field::new("p", DataType::Float),
            Field::new("q", DataType::Int),
        ])
        .unwrap();
        Table::new(schema, vec![key, p, q]).unwrap()
    }

    fn value_aggs() -> Vec<AggExpr> {
        vec![
            AggExpr::new(AggFunc::Count, "p", "n"),
            AggExpr::new(AggFunc::Sum, "p", "s"),
            AggExpr::new(AggFunc::Mean, "p", "m"),
            AggExpr::new(AggFunc::Min, "p", "lo"),
            AggExpr::new(AggFunc::Max, "q", "hi"),
            AggExpr::new(AggFunc::Sum, "q", "sq"),
        ]
    }

    /// Map every partition through [`PartialAgg`], merge the partials in
    /// partition order, and require the row oracle's answer bit for bit.
    /// Returns the number of partial rows the merge saw.
    fn merge_matches_the_oracle(parts: &[Table], group_by: &[&str], aggs: &[AggExpr]) -> usize {
        let group_by: Vec<String> = group_by.iter().map(|g| g.to_string()).collect();
        let p_schema = oracle::p_schema_of(&parts[0], &group_by, aggs);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for part in parts {
            let mut state = PartialAgg::new(part.schema(), &group_by, aggs).unwrap();
            state.fold(part, 0, part.num_rows()).unwrap();
            got.push(state.finish(part, &p_schema).unwrap());
            want.push(oracle::oracle_map_side(part, &group_by, aggs, &p_schema));
        }
        let (got, want) = (Table::concat(&got).unwrap(), Table::concat(&want).unwrap());
        let out = oracle::out_schema(&parts[0], &group_by, aggs);
        let merged = merge_partials(&got, &group_by, aggs, &out).unwrap();
        let oracle = oracle::oracle_merge(&want, &group_by, aggs, &out);
        assert_eq!(
            oracle::identical(&merged, &oracle, &oracle::sum_lanes(aggs)),
            Ok(()),
            "by {group_by:?}"
        );
        got.num_rows()
    }

    /// Four partitions of one Int key, `key(row)` over the global row.
    fn int_parts(key: impl Fn(usize) -> i64) -> Vec<Table> {
        (0..4)
            .map(|p| {
                let first = p * PART_ROWS;
                let keys = (first..first + PART_ROWS).map(&key).collect();
                with_values(
                    Field::new("k", DataType::Int),
                    Column::from_ints(keys),
                    first,
                )
            })
            .collect()
    }

    /// `0..n` in a fixed pseudo-random order.
    fn shuffled(n: usize) -> Vec<usize> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let mut rows: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            rows.swap(i, rng.gen_range(0..=i));
        }
        rows
    }

    #[test]
    fn the_merge_matches_the_oracle_on_unique_int_keys_in_any_arrival_order() {
        let n = 4 * PART_ROWS;
        let perm = shuffled(n);
        for key in [
            Box::new(|r: usize| r as i64) as Box<dyn Fn(usize) -> i64>,
            Box::new(move |r: usize| (n - r) as i64),
            Box::new(move |r: usize| perm[r] as i64),
        ] {
            let rows = merge_matches_the_oracle(&int_parts(key), &["k"], &value_aggs());
            assert_eq!(rows, n, "every partition passes through");
        }
    }

    #[test]
    fn the_merge_matches_the_oracle_on_unique_str_keys() {
        let perm = shuffled(4 * PART_ROWS);
        let parts: Vec<Table> = (0..4)
            .map(|p| {
                let first = p * PART_ROWS;
                let keys: Vec<String> = perm[first..first + PART_ROWS]
                    .iter()
                    .map(|k| format!("user-{k:05}"))
                    .collect();
                with_values(
                    Field::new("k", DataType::Str),
                    Column::from_strs(keys),
                    first,
                )
            })
            .collect();
        assert_eq!(
            merge_matches_the_oracle(&parts, &["k"], &value_aggs()),
            4 * PART_ROWS
        );
    }

    /// A partition whose first `PROBE_ROWS` keys are unique passes through,
    /// however few keys its other rows hold: the merge then meets long runs
    /// of equal keys from one source, each row a partial of its own.
    #[test]
    fn the_merge_matches_the_oracle_when_the_probe_mispredicts() {
        let key = |r: usize| {
            let at = r % PART_ROWS;
            if at < PROBE_ROWS {
                (r + 100) as i64
            } else {
                (r % 8) as i64
            }
        };
        assert_eq!(
            merge_matches_the_oracle(&int_parts(key), &["k"], &value_aggs()),
            4 * PART_ROWS
        );
        let parts: Vec<Table> = int_parts(key)
            .into_iter()
            .map(|t| {
                let (ints, _) = t.columns()[0].as_ints().unwrap();
                let keys: Vec<String> = ints.iter().map(|k| format!("k{k}")).collect();
                let rest = t.columns()[1..].to_vec();
                let schema = Schema::new(
                    std::iter::once(Field::new("k", DataType::Str))
                        .chain(t.schema().fields()[1..].iter().cloned())
                        .collect(),
                )
                .unwrap();
                let columns = std::iter::once(Column::from_strs(keys)).chain(rest);
                Table::new(schema, columns.collect()).unwrap()
            })
            .collect();
        assert_eq!(
            merge_matches_the_oracle(&parts, &["k"], &value_aggs()),
            4 * PART_ROWS
        );
    }

    /// Every third key is null over a nonzero payload; the first two
    /// partitions pass through (sharing the garbage), the other two
    /// combine eight keys.
    #[test]
    fn the_merge_matches_the_oracle_on_null_keys_over_garbage() {
        let parts: Vec<Table> = (0..4)
            .map(|p| {
                let first = p * PART_ROWS;
                let rows = first..first + PART_ROWS;
                let key = Column::Int {
                    data: rows
                        .clone()
                        .map(|r| if p < 2 { r as i64 } else { (r % 8) as i64 })
                        .collect(),
                    validity: rows.map(|r| r % 3 != 0).collect(),
                };
                with_values(Field::new("k", DataType::Int), key, first)
            })
            .collect();
        let rows = merge_matches_the_oracle(&parts, &["k"], &value_aggs());
        assert!(rows > 2 * PART_ROWS, "two partitions pass through: {rows}");
    }

    /// Two keys, a Float one among ±0.0, two NaN payloads and 1.0, and an
    /// Int one; every group has two rows, two partitions apart.
    #[test]
    fn the_merge_matches_the_oracle_on_signed_zeros_and_nan_payloads() {
        let floats = [
            0.0,
            -0.0,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001),
            1.0,
        ];
        let parts: Vec<Table> = (0..4)
            .map(|p| {
                let first = p * PART_ROWS;
                let rows = first..first + PART_ROWS;
                let f = Column::from_floats(rows.clone().map(|r| floats[r % 5]).collect());
                let t = with_values(
                    Field::new("j", DataType::Int),
                    Column::from_ints(rows.map(|r| ((r / 5) % 2_000) as i64).collect()),
                    first,
                );
                t.with_column(Field::new("f", DataType::Float), f).unwrap()
            })
            .collect();
        assert_eq!(
            merge_matches_the_oracle(&parts, &["f", "j"], &value_aggs()),
            4 * PART_ROWS
        );
    }
}

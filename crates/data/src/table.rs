//! In-memory tables: a schema plus one [`Column`] per field.

use std::cmp::Ordering;
use std::fmt;

use crate::column::{Column, ColumnBuilder, LaneRef, Validity};
use crate::error::{DataError, Result};
use crate::schema::{Field, Schema};
use crate::value::{Row, Value};

/// A rectangular, immutable batch of rows.
///
/// Tables are the unit of work the dataflow engine moves between operators.
/// Construction goes through [`Table::new`] (validated) or [`TableBuilder`]
/// (row-at-a-time with nullability enforcement). Columns share their
/// buffers, so `clone`, [`Table::slice`] and [`Table::project`] cost
/// O(columns); `==` compares contents.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl Table {
    /// Build a table from a schema and matching columns.
    ///
    /// Validates column count, per-column type, and equal lengths.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        if columns.len() != schema.len() {
            return Err(DataError::LengthMismatch {
                expected: schema.len(),
                found: columns.len(),
            });
        }
        let rows = columns.first().map_or(0, Column::len);
        for (field, col) in schema.fields().iter().zip(&columns) {
            if col.data_type() != field.data_type {
                return Err(DataError::TypeMismatch {
                    expected: field.data_type.name().to_owned(),
                    found: col.data_type().name().to_owned(),
                });
            }
            if col.len() != rows {
                return Err(DataError::LengthMismatch {
                    expected: rows,
                    found: col.len(),
                });
            }
        }
        Ok(Table {
            schema,
            columns,
            rows,
        })
    }

    /// An empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.data_type))
            .collect();
        Table {
            schema,
            columns,
            rows: 0,
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn num_rows(&self) -> usize {
        self.rows
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The column with the given name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// The column at the given index.
    pub fn column_at(&self, index: usize) -> Result<&Column> {
        self.columns
            .get(index)
            .ok_or(DataError::ColumnIndexOutOfBounds {
                index,
                width: self.columns.len(),
            })
    }

    /// The value at (`row`, column `name`).
    pub fn value(&self, row: usize, name: &str) -> Result<Value> {
        self.column(name)?.value(row)
    }

    /// Materialise row `index` as an owned `Row`.
    pub fn row(&self, index: usize) -> Result<Row> {
        if index >= self.rows {
            return Err(DataError::RowIndexOutOfBounds {
                index,
                len: self.rows,
            });
        }
        self.columns.iter().map(|c| c.value(index)).collect()
    }

    /// Iterate all rows (materialising each).
    pub fn iter_rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.rows).map(move |i| self.row(i).expect("index in range"))
    }

    /// Build a table from rows, validating against the schema.
    pub fn from_rows(schema: Schema, rows: impl IntoIterator<Item = Row>) -> Result<Self> {
        let mut builder = TableBuilder::new(schema);
        for row in rows {
            builder.push_row(row)?;
        }
        builder.finish()
    }

    /// Keep only the named columns, in the given order.
    pub fn project(&self, names: &[&str]) -> Result<Table> {
        let schema = self.schema.project(names)?;
        let columns = names
            .iter()
            .map(|n| self.column(n).cloned())
            .collect::<Result<Vec<_>>>()?;
        Table::new(schema, columns)
    }

    /// Keep rows where `mask[i]` is true.
    pub fn filter(&self, mask: &[bool]) -> Result<Table> {
        let columns = self
            .columns
            .iter()
            .map(|c| c.filter(mask))
            .collect::<Result<Vec<_>>>()?;
        Table::new(self.schema.clone(), columns)
    }

    /// Gather rows by a selection vector (the vectorized engine's
    /// replacement for boolean masks; indices may repeat / reorder).
    pub fn take_sel(&self, sel: &[u32]) -> Result<Table> {
        if let Some(&bad) = sel.iter().find(|&&i| i as usize >= self.rows) {
            return Err(DataError::RowIndexOutOfBounds {
                index: bad as usize,
                len: self.rows,
            });
        }
        let columns = self.columns.iter().map(|c| c.take_sel(sel)).collect();
        Table::new(self.schema.clone(), columns)
    }

    /// Gather the rows at `indices` (may repeat / reorder).
    pub fn take(&self, indices: &[usize]) -> Result<Table> {
        let columns = self
            .columns
            .iter()
            .map(|c| c.take(indices))
            .collect::<Result<Vec<_>>>()?;
        Table::new(self.schema.clone(), columns)
    }

    /// A view of rows `start..end` sharing this table's buffers.
    pub fn slice(&self, start: usize, end: usize) -> Result<Table> {
        let columns = self
            .columns
            .iter()
            .map(|c| c.slice(start, end))
            .collect::<Result<Vec<_>>>()?;
        Table::new(self.schema.clone(), columns)
    }

    /// Concatenate tables with identical schemas. One part is returned as
    /// a shared view; several are copied into fresh buffers, one bulk
    /// copy per lane.
    pub fn concat(parts: &[Table]) -> Result<Table> {
        let first = parts
            .first()
            .ok_or_else(|| DataError::Invalid("concat requires at least one table".to_owned()))?;
        for part in &parts[1..] {
            first.schema.ensure_same(&part.schema)?;
        }
        if parts.len() == 1 {
            return Ok(first.clone());
        }
        let rows = parts.iter().map(Table::num_rows).sum();
        let columns = (0..first.columns.len())
            .map(|c| {
                let mut b = ColumnBuilder::with_capacity(first.columns[c].data_type(), rows);
                for part in parts {
                    b.extend_from(&part.columns[c])?;
                }
                Ok(b.finish())
            })
            .collect::<Result<Vec<_>>>()?;
        Table::new(first.schema.clone(), columns)
    }

    /// A copy in fresh buffers of exactly this view's size (see
    /// [`Column::compact`]): what an operator keeping a small subset of a
    /// large input returns, so the result does not pin the input.
    pub fn compact(&self) -> Table {
        Table {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(Column::compact).collect(),
            rows: self.rows,
        }
    }

    /// Stable sort by the named columns (all ascending unless `descending`).
    pub fn sort_by(&self, keys: &[&str], descending: bool) -> Result<Table> {
        self.sort_limit(keys, descending, None)
    }

    /// The first `n` rows (all when `None`) of [`Table::sort_by`], gathered
    /// once through a `u32` permutation. A table already in order and not
    /// cut is returned as a view, for one pass over the permutation: an
    /// aggregate's reduce partitions, ranked ascending by their group key,
    /// are already in order.
    pub fn sort_limit(&self, keys: &[&str], descending: bool, n: Option<usize>) -> Result<Table> {
        let columns: Vec<&Column> = keys.iter().map(|k| self.column(k)).collect::<Result<_>>()?;
        let mut order = SortKeys::bind(columns).order(self.rows, descending);
        order.truncate(n.unwrap_or(usize::MAX));
        if order.len() == self.rows && order.iter().enumerate().all(|(i, &r)| r as usize == i) {
            return Ok(self.clone());
        }
        self.take_sel(&order)
    }

    /// Append a computed column.
    pub fn with_column(&self, field: Field, column: Column) -> Result<Table> {
        if column.len() != self.rows {
            return Err(DataError::LengthMismatch {
                expected: self.rows,
                found: column.len(),
            });
        }
        let schema = self.schema.with_field(field)?;
        let mut columns = self.columns.clone();
        columns.push(column);
        Table::new(schema, columns)
    }

    /// Drop the named column.
    pub fn without_column(&self, name: &str) -> Result<Table> {
        let idx = self.schema.index_of(name)?;
        let names: Vec<&str> = self
            .schema
            .names()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| *i != idx)
            .map(|(_, n)| n)
            .collect();
        self.project(&names)
    }

    /// Render the first `limit` rows as an aligned text grid under a rule
    /// line (for examples and the Labs CLI output).
    pub fn show(&self, limit: usize) -> String {
        let n = self.rows.min(limit);
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(n + 1);
        cells.push(self.schema.names().iter().map(|s| s.to_string()).collect());
        for i in 0..n {
            cells.push(
                self.columns
                    .iter()
                    .map(|c| c.value(i).map(|v| v.to_string()).unwrap_or_default())
                    .collect(),
            );
        }
        let grid = render_grid(&cells);
        let (header, body) = grid.split_at(grid.find('\n').map_or(0, |i| i + 1));
        let mut out = String::from(header);
        out.extend(std::iter::repeat('-').take(header.trim_end_matches('\n').chars().count()));
        out.push('\n');
        out.push_str(body);
        if self.rows > limit {
            out.push_str(&format!("... ({} more rows)\n", self.rows - limit));
        }
        out
    }
}

/// Sort keys bound once to typed lanes: the comparator behind
/// [`Table::sort_by`] and the engine's sorted group output. The order is
/// `Value::total_cmp`'s: a null sorts below every value, floats compare by
/// `f64::total_cmp` (-0.0 < +0.0, NaNs by sign and payload), text
/// bytewise. Each key is a lane plus its validity, `None` when the lane
/// holds no null, so a comparison never reads a null slot's payload and
/// builds no `Value`.
pub struct SortKeys<'a>(Vec<(LaneRef<'a>, Option<&'a Validity>)>);

impl<'a> SortKeys<'a> {
    pub fn bind(columns: impl IntoIterator<Item = &'a Column>) -> Self {
        let bound = columns
            .into_iter()
            .map(|c| (c.lane(), (c.null_count() > 0).then(|| c.validity())));
        SortKeys(bound.collect())
    }

    /// Rows `a` and `b` in ascending order.
    #[inline]
    pub fn cmp(&self, a: usize, b: usize) -> Ordering {
        self.0.iter().fold(Ordering::Equal, |ord, &(lane, valid)| {
            ord.then_with(|| match valid.map(|v| (v.get(a), v.get(b))) {
                Some((va, vb)) if !(va && vb) => va.cmp(&vb),
                _ => match lane {
                    LaneRef::Bool(d) => d[a].cmp(&d[b]),
                    LaneRef::Int(d) | LaneRef::Timestamp(d) => d[a].cmp(&d[b]),
                    LaneRef::Float(d) => d[a].total_cmp(&d[b]),
                    LaneRef::Str(d) => d.bytes(a).cmp(d.bytes(b)),
                },
            })
        })
    }

    /// Rows `0..rows` in stable sort order, `descending` reversing the
    /// whole order: ties keep their input order either way. One integer or
    /// timestamp key with no nulls, the shape of every ranking the
    /// benchmark runs, sorts by its lane value directly, bitwise negated
    /// when descending; every other key set takes [`SortKeys::cmp`].
    pub fn order(&self, rows: usize, descending: bool) -> Vec<u32> {
        let mut order: Vec<u32> = (0..rows as u32).collect();
        match self.0.as_slice() {
            [(LaneRef::Int(d) | LaneRef::Timestamp(d), None)] => {
                let flip = -(descending as i64);
                order.sort_by_key(|&i| d[i as usize] ^ flip)
            }
            _ if descending => order.sort_by(|&a, &b| self.cmp(b as usize, a as usize)),
            _ => order.sort_by(|&a, &b| self.cmp(a as usize, b as usize)),
        }
        order
    }
}

/// Render rows of cells as left-aligned columns two spaces apart, one line
/// per row. Every row must have as many cells as the first. Widths count
/// characters, not bytes, so multi-byte text stays aligned.
pub fn render_grid(grid: &[Vec<String>]) -> String {
    let columns = grid.first().map_or(0, Vec::len);
    let widths: Vec<usize> = (0..columns)
        .map(|c| grid.iter().map(|r| r[c].chars().count()).max().unwrap_or(0))
        .collect();
    let mut out = String::new();
    for row in grid {
        for (c, cell) in row.iter().enumerate() {
            if c > 0 {
                out.push_str("  ");
            }
            out.push_str(cell);
            out.extend(std::iter::repeat(' ').take(widths[c] - cell.chars().count()));
        }
        out.push('\n');
    }
    out
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.show(20))
    }
}

/// Row-at-a-time table construction with nullability enforcement.
#[derive(Debug)]
pub struct TableBuilder {
    schema: Schema,
    columns: Vec<ColumnBuilder>,
    rows: usize,
}

impl TableBuilder {
    pub fn new(schema: Schema) -> Self {
        Self::with_capacity(schema, 0)
    }

    pub fn with_capacity(schema: Schema, cap: usize) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::with_capacity(f.data_type, cap))
            .collect();
        TableBuilder {
            schema,
            columns,
            rows: 0,
        }
    }

    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Append one row; checks width, per-field type, and nullability.
    pub fn push_row(&mut self, row: Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(DataError::LengthMismatch {
                expected: self.schema.len(),
                found: row.len(),
            });
        }
        for (v, f) in row.iter().zip(self.schema.fields()) {
            if v.is_null() && !f.nullable {
                return Err(DataError::Invalid(format!(
                    "null in non-nullable column {:?}",
                    f.name
                )));
            }
        }
        // Two passes so a mid-row type error cannot leave ragged columns.
        for (v, f) in row.iter().zip(self.schema.fields()) {
            v.coerce(f.data_type)?;
        }
        for (v, col) in row.iter().zip(self.columns.iter_mut()) {
            col.push(v)?;
        }
        self.rows += 1;
        Ok(())
    }

    pub fn finish(self) -> Result<Table> {
        let columns = self
            .columns
            .into_iter()
            .map(ColumnBuilder::finish)
            .collect();
        Table::new(self.schema, columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::StrLane;
    use crate::value::DataType;

    fn people() -> Table {
        let schema = Schema::new(vec![
            Field::required("id", DataType::Int),
            Field::new("name", DataType::Str),
            Field::new("age", DataType::Int),
        ])
        .unwrap();
        Table::from_rows(
            schema,
            vec![
                vec![Value::Int(1), Value::Str("ada".into()), Value::Int(36)],
                vec![Value::Int(2), Value::Str("bob".into()), Value::Null],
                vec![Value::Int(3), Value::Str("eve".into()), Value::Int(29)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_shape() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]).unwrap();
        assert!(Table::new(schema.clone(), vec![]).is_err());
        assert!(Table::new(schema.clone(), vec![Column::from_strs(vec!["x"])]).is_err());
        let t = Table::new(schema, vec![Column::from_ints(vec![1, 2])]).unwrap();
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn ragged_columns_rejected() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ])
        .unwrap();
        let err = Table::new(
            schema,
            vec![Column::from_ints(vec![1, 2]), Column::from_ints(vec![1])],
        )
        .unwrap_err();
        assert!(matches!(err, DataError::LengthMismatch { .. }));
    }

    #[test]
    fn row_round_trip() {
        let t = people();
        assert_eq!(
            t.row(1).unwrap(),
            vec![Value::Int(2), Value::Str("bob".into()), Value::Null]
        );
        assert!(t.row(3).is_err());
        assert_eq!(t.iter_rows().count(), 3);
    }

    #[test]
    fn take_sel_matches_take() {
        let t = people();
        let sel = [2u32, 0, 2];
        let indices = [2usize, 0, 2];
        assert_eq!(t.take_sel(&sel).unwrap(), t.take(&indices).unwrap());
        assert!(t.take_sel(&[3]).is_err());
    }

    #[test]
    fn builder_enforces_nullability() {
        let t = people();
        let mut b = TableBuilder::new(t.schema().clone());
        let err = b
            .push_row(vec![Value::Null, Value::Str("x".into()), Value::Int(1)])
            .unwrap_err();
        assert!(err.to_string().contains("non-nullable"));
        // Failed push must not corrupt the builder.
        b.push_row(vec![Value::Int(9), Value::Null, Value::Null])
            .unwrap();
        assert_eq!(b.finish().unwrap().num_rows(), 1);
    }

    #[test]
    fn builder_type_error_keeps_columns_rectangular() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        // First value fine, second wrong type: row must be rejected atomically.
        assert!(b
            .push_row(vec![Value::Int(1), Value::Str("x".into())])
            .is_err());
        b.push_row(vec![Value::Int(1), Value::Int(2)]).unwrap();
        let t = b.finish().unwrap();
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn project_take_filter_slice() {
        let t = people();
        let p = t.project(&["name"]).unwrap();
        assert_eq!(p.num_columns(), 1);
        let f = t.filter(&[true, false, true]).unwrap();
        assert_eq!(f.num_rows(), 2);
        let tk = t.take(&[2, 2, 0]).unwrap();
        assert_eq!(tk.value(0, "name").unwrap(), Value::Str("eve".into()));
        assert_eq!(tk.num_rows(), 3);
        let s = t.slice(1, 2).unwrap();
        assert_eq!(s.value(0, "id").unwrap(), Value::Int(2));
    }

    #[test]
    fn concat_requires_same_schema() {
        let t = people();
        let both = Table::concat(&[t.clone(), t.clone()]).unwrap();
        assert_eq!(both.num_rows(), 6);
        let other = t.project(&["id"]).unwrap();
        assert!(Table::concat(&[t, other]).is_err());
        assert!(Table::concat(&[]).is_err());
    }

    /// Stable order of `col`'s rows under the comparator `SortKeys`
    /// replaced: `Value::total_cmp`, reversed whole when descending.
    fn value_order(col: &Column, descending: bool) -> Vec<u32> {
        let mut order: Vec<u32> = (0..col.len() as u32).collect();
        order.sort_by(|&a, &b| {
            let ord = col
                .value(a as usize)
                .unwrap()
                .total_cmp(&col.value(b as usize).unwrap());
            if descending {
                ord.reverse()
            } else {
                ord
            }
        });
        order
    }

    /// Every pair of `col`'s slots compares as `Value::total_cmp` does, and
    /// `order` equals the stable `Value` sort in both directions: with
    /// the nulls (whose slots hold payloads), and without them, where one
    /// integer or timestamp key sorts by its lane directly.
    fn agrees_with_value_order(col: Column) {
        let valid: Vec<bool> = (0..col.len()).map(|i| col.validity().get(i)).collect();
        assert!(valid.contains(&false), "the set must hold nulls");
        for c in [col.clone(), col.filter(&valid).unwrap()] {
            for descending in [false, true] {
                let keys = SortKeys::bind([&c]);
                assert_eq!(keys.order(c.len(), descending), value_order(&c, descending));
            }
            let keys = SortKeys::bind([&c]);
            for a in 0..c.len() {
                for b in 0..c.len() {
                    let (va, vb) = (c.value(a).unwrap(), c.value(b).unwrap());
                    assert_eq!(keys.cmp(a, b), va.total_cmp(&vb), "{va:?} vs {vb:?}");
                }
            }
        }
    }

    /// A validity of `n` valid slots followed by `nulls` null ones.
    fn trailing_nulls(n: usize, nulls: usize) -> Validity {
        (0..n + nulls).map(|i| i < n).collect()
    }

    #[test]
    fn int_keys_order_as_values_do() {
        let data = vec![i64::MAX, -1, 0, i64::MIN, 1, 0, -1, 7, -9];
        agrees_with_value_order(Column::Int {
            data: data.into(),
            validity: trailing_nulls(7, 2),
        });
    }

    #[test]
    fn float_keys_order_as_values_do() {
        let nan = |bits: u64| f64::from_bits(bits);
        let data = vec![
            f64::INFINITY,
            0.0,
            -0.0,
            nan(0x7ff8_0000_0000_0001),
            -1.5,
            f64::NEG_INFINITY,
            nan(0xfff8_0000_0000_0000),
            f64::NAN,
            f64::MIN_POSITIVE,
            0.0,
            1.0,
            2.5,
            f64::NAN,
        ];
        agrees_with_value_order(Column::Float {
            data: data.into(),
            validity: trailing_nulls(11, 2),
        });
    }

    #[test]
    fn str_keys_order_bytewise_as_values_do() {
        let data: StrLane = ["b", "", "é", "ab", "a", "z", "a", "Z", "x", "é"]
            .into_iter()
            .collect();
        agrees_with_value_order(Column::Str {
            data,
            validity: trailing_nulls(8, 2),
        });
    }

    #[test]
    fn bool_keys_order_as_values_do() {
        agrees_with_value_order(Column::Bool {
            data: vec![true, false, true, false, true, false].into(),
            validity: trailing_nulls(4, 2),
        });
    }

    #[test]
    fn timestamp_keys_order_as_values_do() {
        agrees_with_value_order(Column::Timestamp {
            data: vec![5, -5, 0, 5, i64::MIN, 3, 9].into(),
            validity: trailing_nulls(5, 2),
        });
    }

    #[test]
    fn sort_limit_keeps_the_prefix_and_shares_an_ordered_input() {
        let t = people();
        let top = t.sort_limit(&["age"], true, Some(2)).unwrap();
        assert_eq!(top, t.sort_by(&["age"], true).unwrap().slice(0, 2).unwrap());
        assert!(!top.columns()[0].shares_storage(&t.columns()[0]));
        let by_id = t.sort_limit(&["id"], false, Some(3)).unwrap();
        assert_eq!(by_id, t);
        assert!(by_id.columns()[1].shares_storage(&t.columns()[1]));
        assert_eq!(t.sort_limit(&["id"], false, Some(0)).unwrap().num_rows(), 0);
    }

    #[test]
    fn sort_is_stable_and_null_first() {
        let t = people().sort_by(&["age"], false).unwrap();
        // bob has null age, sorts first ascending.
        assert_eq!(t.value(0, "name").unwrap(), Value::Str("bob".into()));
        assert_eq!(t.value(1, "age").unwrap(), Value::Int(29));
        let d = people().sort_by(&["age"], true).unwrap();
        assert_eq!(d.value(0, "age").unwrap(), Value::Int(36));
    }

    #[test]
    fn multi_key_sort() {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str),
            Field::new("v", DataType::Int),
        ])
        .unwrap();
        let t = Table::from_rows(
            schema,
            vec![
                vec!["b".into(), Value::Int(1)],
                vec!["a".into(), Value::Int(2)],
                vec!["a".into(), Value::Int(1)],
            ],
        )
        .unwrap();
        let s = t.sort_by(&["g", "v"], false).unwrap();
        assert_eq!(
            s.row(0).unwrap(),
            vec![Value::Str("a".into()), Value::Int(1)]
        );
        assert_eq!(
            s.row(2).unwrap(),
            vec![Value::Str("b".into()), Value::Int(1)]
        );
    }

    #[test]
    fn with_and_without_column() {
        let t = people();
        let t2 = t
            .with_column(
                Field::new("flag", DataType::Bool),
                Column::from_bools(vec![true, false, true]),
            )
            .unwrap();
        assert_eq!(t2.num_columns(), 4);
        assert!(t
            .with_column(
                Field::new("flag", DataType::Bool),
                Column::from_bools(vec![true])
            )
            .is_err());
        let t3 = t2.without_column("flag").unwrap();
        assert_eq!(t3.schema().names(), vec!["id", "name", "age"]);
    }

    #[test]
    fn show_renders_header_and_truncation() {
        let t = people();
        let s = t.show(2);
        assert!(s.contains("id"));
        assert!(s.contains("(1 more rows)"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn grid_renders_left_aligned_columns() {
        let grid = [["name", "n"], ["dataflow.morsels", "28"], ["x", "1"]]
            .map(|row| row.map(str::to_owned).to_vec());
        assert_eq!(
            render_grid(&grid),
            "name              n \ndataflow.morsels  28\nx                 1 \n"
        );
        assert_eq!(render_grid(&[]), "");
    }

    #[test]
    fn grids_pad_by_characters() {
        let grid = [["city", "n"], ["Zürich", "1"], ["Berlin", "22"]]
            .map(|row| row.map(str::to_owned).to_vec());
        assert_eq!(render_grid(&grid), "city    n \nZürich  1 \nBerlin  22\n");
        let schema = Schema::new(vec![Field::new("city", DataType::Str)]).unwrap();
        let t = Table::new(schema, vec![Column::from_strs(vec!["Zürich", "Berlin"])]).unwrap();
        assert_eq!(t.show(5), "city  \n------\nZürich\nBerlin\n");
    }

    #[test]
    fn views_share_buffers_and_compact_copies() {
        let t = people();
        let shares = |a: &Table, b: &Table| {
            a.columns()
                .iter()
                .zip(b.columns())
                .all(|(x, y)| x.shares_storage(y))
        };
        assert!(shares(&t.clone(), &t));
        assert!(shares(&t.slice(1, 3).unwrap(), &t));
        let p = t.project(&["age", "name"]).unwrap();
        assert!(p
            .column("age")
            .unwrap()
            .shares_storage(t.column("age").unwrap()));
        assert!(p
            .column("name")
            .unwrap()
            .shares_storage(t.column("name").unwrap()));
        let c = t.slice(1, 2).unwrap().compact();
        assert_eq!(c, t.slice(1, 2).unwrap());
        assert!(c
            .columns()
            .iter()
            .zip(t.columns())
            .all(|(x, y)| !x.shares_storage(y)));
        assert!(!shares(
            &Table::concat(&[t.clone(), t.clone()]).unwrap(),
            &t
        ));
    }
}

//! In-memory tables: a schema plus one [`Column`] per field.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::column::Column;
use crate::error::{DataError, Result};
use crate::schema::{Field, Schema};
use crate::value::{Row, Value};

/// A rectangular, immutable batch of rows.
///
/// Tables are the unit of work the dataflow engine moves between operators.
/// Construction goes through [`Table::new`] (validated) or [`TableBuilder`]
/// (row-at-a-time with nullability enforcement).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    /// Copy of rows `start..end`.
    pub fn slice(&self, start: usize, end: usize) -> Result<Table> {
        let columns = self
            .columns
            .iter()
            .map(|c| c.slice(start, end))
            .collect::<Result<Vec<_>>>()?;
        Table::new(self.schema.clone(), columns)
    }

    /// Concatenate tables with identical schemas.
    pub fn concat(parts: &[Table]) -> Result<Table> {
        let first = parts
            .first()
            .ok_or_else(|| DataError::Invalid("concat requires at least one table".to_owned()))?;
        let mut columns: Vec<Column> = first.columns.clone();
        for part in &parts[1..] {
            first.schema.ensure_same(&part.schema)?;
            for (dst, src) in columns.iter_mut().zip(&part.columns) {
                dst.extend_from(src)?;
            }
        }
        Table::new(first.schema.clone(), columns)
    }

    /// Stable sort by the named columns (all ascending unless `descending`).
    pub fn sort_by(&self, keys: &[&str], descending: bool) -> Result<Table> {
        let key_cols: Vec<&Column> = keys
            .iter()
            .map(|k| self.column(k))
            .collect::<Result<Vec<_>>>()?;
        let mut indices: Vec<usize> = (0..self.rows).collect();
        indices.sort_by(|&a, &b| {
            let mut ord = std::cmp::Ordering::Equal;
            for col in &key_cols {
                let va = col.value(a).expect("in range");
                let vb = col.value(b).expect("in range");
                ord = va.total_cmp(&vb);
                if ord != std::cmp::Ordering::Equal {
                    break;
                }
            }
            if descending {
                ord.reverse()
            } else {
                ord
            }
        });
        self.take(&indices)
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

    /// Rough in-memory footprint in bytes (used by quota accounting).
    pub fn approx_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(|c| match c {
                Column::Bool { data, .. } => data.len(),
                Column::Int { data, .. } | Column::Timestamp { data, .. } => data.len() * 8,
                Column::Float { data, .. } => data.len() * 8,
                Column::Str { data, .. } => data.iter().map(|s| s.len() + 24).sum(),
            })
            .sum()
    }

    /// Render the first `limit` rows as an aligned text grid (for examples
    /// and the Labs CLI output).
    pub fn show(&self, limit: usize) -> String {
        let names = self.schema.names();
        let n = self.rows.min(limit);
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(n + 1);
        cells.push(names.iter().map(|s| s.to_string()).collect());
        for i in 0..n {
            cells.push(
                self.columns
                    .iter()
                    .map(|c| c.value(i).map(|v| v.to_string()).unwrap_or_default())
                    .collect(),
            );
        }
        let widths: Vec<usize> = (0..names.len())
            .map(|c| cells.iter().map(|r| r[c].len()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        for (ri, row) in cells.iter().enumerate() {
            for (ci, cell) in row.iter().enumerate() {
                if ci > 0 {
                    out.push_str("  ");
                }
                out.push_str(cell);
                out.extend(std::iter::repeat(' ').take(widths[ci] - cell.len()));
            }
            out.push('\n');
            if ri == 0 {
                let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
                out.extend(std::iter::repeat('-').take(total));
                out.push('\n');
            }
        }
        if self.rows > limit {
            out.push_str(&format!("... ({} more rows)\n", self.rows - limit));
        }
        out
    }
}

/// Render rows of cells as left-aligned columns two spaces apart, one line
/// per row. Every row must have as many cells as the first.
pub fn render_grid(grid: &[Vec<String>]) -> String {
    let columns = grid.first().map_or(0, Vec::len);
    let widths: Vec<usize> = (0..columns)
        .map(|c| grid.iter().map(|r| r[c].len()).max().unwrap_or(0))
        .collect();
    let mut out = String::new();
    for row in grid {
        for (c, cell) in row.iter().enumerate() {
            if c > 0 {
                out.push_str("  ");
            }
            out.push_str(cell);
            out.extend(std::iter::repeat(' ').take(widths[c] - cell.len()));
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
    columns: Vec<Column>,
    rows: usize,
}

impl TableBuilder {
    pub fn new(schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.data_type))
            .collect();
        TableBuilder {
            schema,
            columns,
            rows: 0,
        }
    }

    pub fn with_capacity(schema: Schema, cap: usize) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::with_capacity(f.data_type, cap))
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
        Table::new(self.schema, self.columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn approx_bytes_is_positive() {
        assert!(people().approx_bytes() > 0);
    }
}

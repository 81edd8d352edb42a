//! Horizontal partitioning of tables.
//!
//! The dataflow engine schedules one task per partition, so partitioning is
//! where data-parallelism comes from (mirroring Spark's RDD partitions).

use crate::error::{DataError, Result};
use crate::table::Table;

/// A table split into horizontal chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionedTable {
    parts: Vec<Table>,
}

impl PartitionedTable {
    /// Wrap pre-split parts; all schemas must match.
    pub fn new(parts: Vec<Table>) -> Result<Self> {
        let first = parts
            .first()
            .ok_or_else(|| DataError::Invalid("need at least one partition".to_owned()))?;
        for p in &parts[1..] {
            first.schema().ensure_same(p.schema())?;
        }
        Ok(PartitionedTable { parts })
    }

    /// Split a single table into `n` equal-size contiguous chunks.
    ///
    /// Produces exactly `n` partitions (trailing ones may be empty) so that
    /// task counts are predictable. Each chunk is a view sharing `table`'s
    /// buffers, so a split costs O(n × columns), not O(rows).
    pub fn split(table: Table, n: usize) -> Result<Self> {
        if n == 0 {
            return Err(DataError::Invalid(
                "cannot split into 0 partitions".to_owned(),
            ));
        }
        let rows = table.num_rows();
        let per = rows.div_ceil(n.max(1)).max(1);
        let mut parts = Vec::with_capacity(n);
        for i in 0..n {
            let start = (i * per).min(rows);
            let end = ((i + 1) * per).min(rows);
            parts.push(table.slice(start, end)?);
        }
        PartitionedTable::new(parts)
    }

    /// A single-partition wrapper.
    pub fn single(table: Table) -> Self {
        PartitionedTable { parts: vec![table] }
    }

    pub fn schema(&self) -> &crate::schema::Schema {
        self.parts[0].schema()
    }

    pub fn parts(&self) -> &[Table] {
        &self.parts
    }

    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    pub fn total_rows(&self) -> usize {
        self.parts.iter().map(Table::num_rows).sum()
    }

    /// Collapse back into a single table.
    pub fn collect(&self) -> Result<Table> {
        Table::concat(&self.parts)
    }

    /// Consume into the partition vector.
    pub fn into_parts(self) -> Vec<Table> {
        self.parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::value::{DataType, Value};

    fn numbers(n: i64) -> Table {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ])
        .unwrap();
        Table::from_rows(
            schema,
            (0..n).map(|i| vec![Value::Int(i % 7), Value::Int(i)]),
        )
        .unwrap()
    }

    #[test]
    fn split_produces_exact_partition_count() {
        let p = PartitionedTable::split(numbers(10), 4).unwrap();
        assert_eq!(p.num_partitions(), 4);
        assert_eq!(p.total_rows(), 10);
        // Contiguous, order-preserving.
        let c = p.collect().unwrap();
        assert_eq!(c.value(9, "v").unwrap(), Value::Int(9));
    }

    #[test]
    fn split_more_partitions_than_rows() {
        let p = PartitionedTable::split(numbers(2), 5).unwrap();
        assert_eq!(p.num_partitions(), 5);
        assert_eq!(p.total_rows(), 2);
    }

    #[test]
    fn split_parts_share_the_input_buffers() {
        let t = numbers(10);
        let p = PartitionedTable::split(t.clone(), 3).unwrap();
        for part in p.parts() {
            for (c, src) in part.columns().iter().zip(t.columns()) {
                assert!(c.shares_storage(src));
            }
        }
    }

    #[test]
    fn split_zero_is_error() {
        assert!(PartitionedTable::split(numbers(2), 0).is_err());
    }

    #[test]
    fn new_rejects_mismatched_schemas() {
        let a = numbers(3);
        let b = a.project(&["k"]).unwrap();
        assert!(PartitionedTable::new(vec![a, b]).is_err());
        assert!(PartitionedTable::new(vec![]).is_err());
    }
}

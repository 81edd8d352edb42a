//! Data preparation transforms — the TOREADOR "Data Preparation" area.
//!
//! Every transform follows a fit/apply split so the Labs can apply the same
//! preparation (fitted on training data) to held-out data, and so pipelines
//! can serialise their fitted state.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use toreador_data::column::{Column, ColumnBuilder};
use toreador_data::schema::Field;
use toreador_data::stats::summarize;
use toreador_data::table::Table;
use toreador_data::value::{DataType, Value};

use crate::error::{AnalyticsError, Result};

/// Normalisation strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingKind {
    /// `(x - mean) / std_dev`.
    ZScore,
    /// `(x - min) / (max - min)` into [0, 1].
    MinMax,
}

/// A fitted per-column scaler.
#[derive(Debug, Clone, PartialEq)]
pub struct Scaler {
    kind: ScalingKind,
    /// (column, offset, scale) triples: output = (x - offset) / scale.
    params: Vec<(String, f64, f64)>,
}

impl Scaler {
    /// Fit on the named numeric columns of `table`.
    pub fn fit(table: &Table, columns: &[&str], kind: ScalingKind) -> Result<Scaler> {
        let mut params = Vec::with_capacity(columns.len());
        for &c in columns {
            let s = summarize(table.column(c)?)?;
            let (offset, scale) = match kind {
                ScalingKind::ZScore => {
                    let sd = s.std_dev();
                    (s.mean, if sd == 0.0 { 1.0 } else { sd })
                }
                ScalingKind::MinMax => {
                    let span = s.max - s.min;
                    (s.min, if span == 0.0 { 1.0 } else { span })
                }
            };
            params.push((c.to_owned(), offset, scale));
        }
        Ok(Scaler { kind, params })
    }

    pub fn kind(&self) -> ScalingKind {
        self.kind
    }

    /// Replace each fitted column with its scaled version (type Float).
    /// Nulls pass through.
    pub fn apply(&self, table: &Table) -> Result<Table> {
        let mut out = table.clone();
        for (name, offset, scale) in &self.params {
            let col = out.column(name)?;
            let mut scaled = ColumnBuilder::with_capacity(DataType::Float, col.len());
            for v in col.iter_values() {
                if v.is_null() {
                    scaled.push_null();
                } else {
                    scaled.push(&Value::Float((v.as_float()? - offset) / scale))?;
                }
            }
            let scaled = scaled.finish();
            let nullable = out.schema().field(name)?.nullable;
            let tmp_name = format!("__scaled_{name}");
            let with_new = out.with_column(
                Field {
                    name: tmp_name.clone(),
                    data_type: DataType::Float,
                    nullable,
                },
                scaled,
            )?;
            let without_old = with_new.without_column(name)?;
            // Rename back by projecting in original column order.
            let names: Vec<String> = table
                .schema()
                .names()
                .iter()
                .map(|s| s.to_string())
                .collect();
            let mut builder_cols = Vec::with_capacity(names.len());
            let mut fields = Vec::with_capacity(names.len());
            for n in &names {
                if n == name {
                    builder_cols.push(without_old.column(&tmp_name)?.clone());
                    fields.push(Field {
                        name: name.clone(),
                        data_type: DataType::Float,
                        nullable,
                    });
                } else {
                    builder_cols.push(without_old.column(n)?.clone());
                    fields.push(without_old.schema().field(n)?.clone());
                }
            }
            out = Table::new(toreador_data::schema::Schema::new(fields)?, builder_cols)?;
        }
        Ok(out)
    }
}

/// Imputation strategies for missing values.
#[derive(Debug, Clone, PartialEq)]
pub enum ImputeKind {
    Mean,
    Median,
    Constant(Value),
}

/// A fitted per-column imputer.
#[derive(Debug, Clone, PartialEq)]
pub struct Imputer {
    fills: Vec<(String, Value)>,
}

impl Imputer {
    /// Fit fills for the named columns.
    pub fn fit(table: &Table, columns: &[&str], kind: ImputeKind) -> Result<Imputer> {
        let mut fills = Vec::with_capacity(columns.len());
        for &c in columns {
            let col = table.column(c)?;
            let fill = match &kind {
                ImputeKind::Constant(v) => v.clone(),
                ImputeKind::Mean => {
                    let s = summarize(col)?;
                    Value::Float(s.mean)
                }
                ImputeKind::Median => {
                    let xs: Vec<f64> = col
                        .iter_values()
                        .filter(|v| !v.is_null())
                        .map(|v| v.as_float())
                        .collect::<std::result::Result<_, _>>()?;
                    if xs.is_empty() {
                        return Err(AnalyticsError::InvalidInput(format!(
                            "column {c:?} is all null; cannot fit median"
                        )));
                    }
                    Value::Float(toreador_data::stats::quantile(&xs, 0.5)?)
                }
            };
            fills.push((c.to_owned(), fill));
        }
        Ok(Imputer { fills })
    }

    /// Replace nulls with the fitted fill values.
    pub fn apply(&self, table: &Table) -> Result<Table> {
        let mut columns: Vec<Column> = Vec::with_capacity(table.num_columns());
        let mut fields = Vec::with_capacity(table.num_columns());
        for (field, col) in table.schema().fields().iter().zip(table.columns()) {
            match self.fills.iter().find(|(n, _)| n == &field.name) {
                None => {
                    columns.push(col.clone());
                    fields.push(field.clone());
                }
                Some((_, fill)) => {
                    // Imputed numeric columns become Float (mean/median are
                    // fractional); constant fills keep the fill's type if it
                    // matches, else coerce.
                    let target_ty = match fill {
                        Value::Float(_) => DataType::Float,
                        _ => field.data_type,
                    };
                    let mut new_col = ColumnBuilder::with_capacity(target_ty, col.len());
                    for v in col.iter_values() {
                        let v = if v.is_null() { fill.clone() } else { v };
                        new_col.push(&v.coerce(target_ty)?)?;
                    }
                    fields.push(Field {
                        name: field.name.clone(),
                        data_type: target_ty,
                        nullable: false,
                    });
                    columns.push(new_col.finish());
                }
            }
        }
        Ok(Table::new(
            toreador_data::schema::Schema::new(fields)?,
            columns,
        )?)
    }
}

/// One-hot encode a categorical (string) column: the column is replaced by
/// one `name=value` Bool column per distinct fitted value.
#[derive(Debug, Clone, PartialEq)]
pub struct OneHot {
    column: String,
    categories: Vec<String>,
}

impl OneHot {
    pub fn fit(table: &Table, column: &str) -> Result<OneHot> {
        let col = table.column(column)?;
        let mut categories: Vec<String> = Vec::new();
        for v in col.iter_values() {
            if v.is_null() {
                continue;
            }
            let s = v.as_str()?.to_owned();
            if !categories.contains(&s) {
                categories.push(s);
            }
        }
        categories.sort();
        if categories.is_empty() {
            return Err(AnalyticsError::InvalidInput(format!(
                "column {column:?} has no non-null values to encode"
            )));
        }
        Ok(OneHot {
            column: column.to_owned(),
            categories,
        })
    }

    pub fn categories(&self) -> &[String] {
        &self.categories
    }

    /// Apply: unseen categories encode as all-false.
    pub fn apply(&self, table: &Table) -> Result<Table> {
        let col = table.column(&self.column)?.clone();
        let mut out = table.without_column(&self.column)?;
        for cat in &self.categories {
            let mut flags = ColumnBuilder::with_capacity(DataType::Bool, col.len());
            for v in col.iter_values() {
                let hit = !v.is_null() && v.as_str()? == cat;
                flags.push(&Value::Bool(hit))?;
            }
            out = out.with_column(
                Field::required(format!("{}={}", self.column, cat), DataType::Bool),
                flags.finish(),
            )?;
        }
        Ok(out)
    }
}

/// Deterministic shuffled train/test split.
pub fn train_test_split(table: &Table, test_fraction: f64, seed: u64) -> Result<(Table, Table)> {
    if !(0.0..=1.0).contains(&test_fraction) {
        return Err(AnalyticsError::InvalidConfig(format!(
            "test fraction {test_fraction} outside [0,1]"
        )));
    }
    let n = table.num_rows();
    let mut indices: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    // Fisher-Yates.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        indices.swap(i, j);
    }
    let test_n = ((n as f64) * test_fraction).round() as usize;
    let (test_idx, train_idx) = indices.split_at(test_n.min(n));
    Ok((table.take(train_idx)?, table.take(test_idx)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use toreador_data::schema::Schema;

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Float),
            Field::new("cat", DataType::Str),
            Field::new("y", DataType::Int),
        ])
        .unwrap();
        Table::from_rows(
            schema,
            vec![
                vec![Value::Float(1.0), Value::Str("a".into()), Value::Int(10)],
                vec![Value::Float(2.0), Value::Str("b".into()), Value::Int(20)],
                vec![Value::Float(3.0), Value::Str("a".into()), Value::Null],
                vec![Value::Float(4.0), Value::Str("c".into()), Value::Int(40)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn zscore_scaling_centres_and_unit_scales() {
        let t = table();
        let s = Scaler::fit(&t, &["x"], ScalingKind::ZScore).unwrap();
        let out = s.apply(&t).unwrap();
        let c = out.column("x").unwrap();
        let sum: f64 = c.iter_values().map(|v| v.as_float().unwrap()).sum();
        assert!(sum.abs() < 1e-12, "centred");
        let stats = summarize(c).unwrap();
        assert!((stats.std_dev() - 1.0).abs() < 1e-12, "unit variance");
        // Column order preserved.
        assert_eq!(out.schema().names(), vec!["x", "cat", "y"]);
    }

    #[test]
    fn minmax_scaling_hits_bounds() {
        let t = table();
        let s = Scaler::fit(&t, &["x"], ScalingKind::MinMax).unwrap();
        let out = s.apply(&t).unwrap();
        let c = out.column("x").unwrap();
        assert_eq!(c.min(), Value::Float(0.0));
        assert_eq!(c.max(), Value::Float(1.0));
    }

    #[test]
    fn scaler_constant_column_is_safe() {
        let schema = Schema::new(vec![Field::new("k", DataType::Float)]).unwrap();
        let t = Table::from_rows(schema, vec![vec![Value::Float(5.0)]; 3]).unwrap();
        let s = Scaler::fit(&t, &["k"], ScalingKind::ZScore).unwrap();
        let out = s.apply(&t).unwrap();
        assert_eq!(
            out.column("k").unwrap().value(0).unwrap(),
            Value::Float(0.0)
        );
    }

    #[test]
    fn scaler_transfers_to_new_data() {
        let t = table();
        let s = Scaler::fit(&t, &["x"], ScalingKind::MinMax).unwrap();
        let schema = t.schema().clone();
        let fresh = Table::from_rows(
            schema,
            vec![vec![
                Value::Float(7.0),
                Value::Str("a".into()),
                Value::Int(1),
            ]],
        )
        .unwrap();
        let out = s.apply(&fresh).unwrap();
        // (7 - 1) / (4 - 1) = 2.0 — outside [0,1], as transfer should allow.
        assert_eq!(
            out.column("x").unwrap().value(0).unwrap(),
            Value::Float(2.0)
        );
    }

    #[test]
    fn mean_imputation_fills_nulls() {
        let t = table();
        let imp = Imputer::fit(&t, &["y"], ImputeKind::Mean).unwrap();
        let out = imp.apply(&t).unwrap();
        let c = out.column("y").unwrap();
        assert_eq!(c.null_count(), 0);
        // mean of 10, 20, 40.
        assert!((c.value(2).unwrap().as_float().unwrap() - 70.0 / 3.0).abs() < 1e-12);
        assert!(!out.schema().field("y").unwrap().nullable);
    }

    #[test]
    fn median_and_constant_imputation() {
        let t = table();
        let imp = Imputer::fit(&t, &["y"], ImputeKind::Median).unwrap();
        let out = imp.apply(&t).unwrap();
        assert_eq!(
            out.column("y").unwrap().value(2).unwrap(),
            Value::Float(20.0)
        );
        let imp = Imputer::fit(&t, &["y"], ImputeKind::Constant(Value::Int(-1))).unwrap();
        let out = imp.apply(&t).unwrap();
        assert_eq!(out.column("y").unwrap().value(2).unwrap(), Value::Int(-1));
    }

    #[test]
    fn one_hot_encodes_and_handles_unseen() {
        let t = table();
        let oh = OneHot::fit(&t, "cat").unwrap();
        assert_eq!(oh.categories(), &["a", "b", "c"]);
        let out = oh.apply(&t).unwrap();
        assert!(out.schema().contains("cat=a"));
        assert!(!out.schema().contains("cat"));
        assert_eq!(out.value(0, "cat=a").unwrap(), Value::Bool(true));
        assert_eq!(out.value(1, "cat=a").unwrap(), Value::Bool(false));
        // Unseen category encodes all-false.
        let fresh = Table::from_rows(
            t.schema().clone(),
            vec![vec![
                Value::Float(1.0),
                Value::Str("zzz".into()),
                Value::Int(1),
            ]],
        )
        .unwrap();
        let out = oh.apply(&fresh).unwrap();
        for cat in ["a", "b", "c"] {
            assert_eq!(
                out.value(0, &format!("cat={cat}")).unwrap(),
                Value::Bool(false)
            );
        }
    }

    #[test]
    fn split_is_deterministic_and_partitions() {
        let t = toreador_data::generate::random_table(100, 3, 5);
        let (train_a, test_a) = train_test_split(&t, 0.3, 9).unwrap();
        let (train_b, test_b) = train_test_split(&t, 0.3, 9).unwrap();
        assert_eq!(train_a, train_b);
        assert_eq!(test_a, test_b);
        assert_eq!(train_a.num_rows(), 70);
        assert_eq!(test_a.num_rows(), 30);
        let (_, all_test) = train_test_split(&t, 1.0, 9).unwrap();
        assert_eq!(all_test.num_rows(), 100);
        assert!(train_test_split(&t, 1.5, 0).is_err());
    }
}

//! k-anonymity: measurement and enforcement.
//!
//! Enforcement uses global recoding over per-column generalisation ladders
//! (numeric binning, string prefix masking) plus suppression of the rows
//! left in undersized groups — the classic Samarati/Sweeney scheme. The
//! algorithm greedily generalises the column that most reduces the number
//! of violating rows until the table is k-anonymous, then suppresses any
//! remainder. Utility loss is reported so the Labs can chart the
//! privacy/utility trade-off.

use std::collections::HashMap;

use toreador_data::column::ColumnBuilder;
use toreador_data::schema::Field;
use toreador_data::table::Table;
use toreador_data::value::{DataType, Value};

use crate::error::{PrivacyError, Result};

/// How one quasi-identifier column may be generalised, level by level.
#[derive(Debug, Clone, PartialEq)]
pub enum Ladder {
    /// Round numeric values to multiples of `widths[level-1]`; the last
    /// rung generalises to a single "*" bucket.
    NumericBins { widths: Vec<f64> },
    /// Keep the first `keep[level-1]` characters, masking the rest with
    /// `*`; the last rung is full suppression to "*".
    StringPrefix { keep: Vec<usize> },
}

impl Ladder {
    /// Number of generalisation levels, excluding level 0 (identity) and
    /// including the final full-suppression rung.
    pub fn max_level(&self) -> usize {
        match self {
            Ladder::NumericBins { widths } => widths.len() + 1,
            Ladder::StringPrefix { keep } => keep.len() + 1,
        }
    }

    /// Generalise one value to the given level (0 = identity).
    pub fn apply(&self, v: &Value, level: usize) -> Result<Value> {
        if level == 0 {
            return Ok(v.clone());
        }
        if v.is_null() {
            return Ok(Value::Null);
        }
        match self {
            Ladder::NumericBins { widths } => {
                if level > widths.len() {
                    return Ok(Value::Str("*".to_owned()));
                }
                let w = widths[level - 1];
                if w <= 0.0 {
                    return Err(PrivacyError::InvalidParameter(format!(
                        "bin width {w} must be positive"
                    )));
                }
                let x = v.as_float()?;
                let lo = (x / w).floor() * w;
                Ok(Value::Str(format!("[{lo},{})", lo + w)))
            }
            Ladder::StringPrefix { keep } => {
                if level > keep.len() {
                    return Ok(Value::Str("*".to_owned()));
                }
                let s = v.as_str()?;
                let k = keep[level - 1];
                let kept: String = s.chars().take(k).collect();
                let masked = s.chars().count().saturating_sub(k);
                Ok(Value::Str(format!("{kept}{}", "*".repeat(masked))))
            }
        }
    }
}

/// A quasi-identifier column paired with its generalisation ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct QuasiIdentifier {
    pub column: String,
    pub ladder: Ladder,
}

impl QuasiIdentifier {
    pub fn numeric(column: impl Into<String>, widths: Vec<f64>) -> Self {
        QuasiIdentifier {
            column: column.into(),
            ladder: Ladder::NumericBins { widths },
        }
    }

    pub fn string_prefix(column: impl Into<String>, keep: Vec<usize>) -> Self {
        QuasiIdentifier {
            column: column.into(),
            ladder: Ladder::StringPrefix { keep },
        }
    }
}

/// Group rows by the (already generalised) QI columns.
fn group_sizes(table: &Table, qi_columns: &[String]) -> Result<HashMap<Vec<String>, Vec<usize>>> {
    let idx: Vec<usize> = qi_columns
        .iter()
        .map(|c| table.schema().index_of(c).map_err(PrivacyError::Data))
        .collect::<Result<Vec<_>>>()?;
    let mut groups: HashMap<Vec<String>, Vec<usize>> = HashMap::new();
    for (row_i, row) in table.iter_rows().enumerate() {
        let key: Vec<String> = idx.iter().map(|&i| format!("{:?}", row[i])).collect();
        groups.entry(key).or_default().push(row_i);
    }
    Ok(groups)
}

/// The size of the smallest QI group (∞-like usize::MAX for empty tables).
pub fn anonymity_level(table: &Table, qi_columns: &[String]) -> Result<usize> {
    let groups = group_sizes(table, qi_columns)?;
    Ok(groups.values().map(Vec::len).min().unwrap_or(usize::MAX))
}

/// True if every QI group has at least `k` rows.
pub fn is_k_anonymous(table: &Table, qi_columns: &[String], k: usize) -> Result<bool> {
    Ok(anonymity_level(table, qi_columns)? >= k)
}

/// The result of enforcement.
#[derive(Debug, Clone)]
pub struct AnonymizedTable {
    pub table: Table,
    /// Generalisation level applied per QI column.
    pub levels: Vec<(String, usize)>,
    /// Rows suppressed because no generalisation made their group large enough.
    pub suppressed_rows: usize,
    /// Utility loss in [0, 1]: mean of (level / max_level) over QI columns,
    /// blended with the suppression fraction.
    pub utility_loss: f64,
}

/// Enforce k-anonymity over the given quasi-identifiers.
///
/// Greedy global recoding: while violating rows remain, bump the ladder
/// level of whichever QI column yields the fewest violating rows; if every
/// ladder is exhausted, suppress the remaining violators.
pub fn enforce_k_anonymity(
    table: &Table,
    quasi_identifiers: &[QuasiIdentifier],
    k: usize,
) -> Result<AnonymizedTable> {
    if k < 2 {
        return Err(PrivacyError::InvalidParameter(format!(
            "k={k} must be >= 2"
        )));
    }
    if quasi_identifiers.is_empty() {
        return Err(PrivacyError::InvalidParameter(
            "no quasi-identifiers given".to_owned(),
        ));
    }
    let qi_names: Vec<String> = quasi_identifiers.iter().map(|q| q.column.clone()).collect();
    let mut levels = vec![0usize; quasi_identifiers.len()];
    let mut current = generalize(table, quasi_identifiers, &levels)?;

    let violating = |t: &Table| -> Result<usize> {
        Ok(group_sizes(t, &qi_names)?
            .values()
            .filter(|g| g.len() < k)
            .map(Vec::len)
            .sum())
    };
    let mut current_violations = violating(&current)?;
    while current_violations > 0 {
        // Try bumping each column still below its max level; keep the best.
        let mut best: Option<(usize, Table, usize)> = None;
        for (i, qi) in quasi_identifiers.iter().enumerate() {
            if levels[i] >= qi.ladder.max_level() {
                continue;
            }
            let mut trial_levels = levels.clone();
            trial_levels[i] += 1;
            let trial = generalize(table, quasi_identifiers, &trial_levels)?;
            let v = violating(&trial)?;
            if best.as_ref().map_or(true, |(_, _, bv)| v < *bv) {
                best = Some((i, trial, v));
            }
        }
        match best {
            Some((i, trial, v)) if v < current_violations => {
                levels[i] += 1;
                current = trial;
                current_violations = v;
            }
            Some((i, trial, v)) => {
                // No improvement this step, but ladders remain: accept the
                // bump anyway (a plateau can precede a drop at the coarser
                // level) unless everything is already at the top.
                levels[i] += 1;
                current = trial;
                current_violations = v;
            }
            None => break, // all ladders exhausted: fall through to suppression
        }
    }

    // Suppress residual violators.
    let groups = group_sizes(&current, &qi_names)?;
    let mut keep = vec![true; current.num_rows()];
    let mut suppressed = 0usize;
    for rows in groups.values().filter(|g| g.len() < k) {
        for &r in rows {
            keep[r] = false;
            suppressed += 1;
        }
    }
    let table_out = current.filter(&keep)?;

    let gen_loss: f64 = quasi_identifiers
        .iter()
        .zip(&levels)
        .map(|(q, &l)| l as f64 / q.ladder.max_level() as f64)
        .sum::<f64>()
        / quasi_identifiers.len() as f64;
    let sup_loss = if table.num_rows() == 0 {
        0.0
    } else {
        suppressed as f64 / table.num_rows() as f64
    };
    Ok(AnonymizedTable {
        table: table_out,
        levels: qi_names.into_iter().zip(levels).collect(),
        suppressed_rows: suppressed,
        utility_loss: (gen_loss + sup_loss).min(1.0),
    })
}

/// Apply ladder levels to the QI columns, leaving other columns untouched.
/// Generalised columns become Str (bucket labels).
fn generalize(
    table: &Table,
    quasi_identifiers: &[QuasiIdentifier],
    levels: &[usize],
) -> Result<Table> {
    let mut fields = Vec::with_capacity(table.num_columns());
    let mut columns = Vec::with_capacity(table.num_columns());
    for (field, col) in table.schema().fields().iter().zip(table.columns()) {
        match quasi_identifiers
            .iter()
            .position(|q| q.column == field.name)
            .map(|i| (&quasi_identifiers[i].ladder, levels[i]))
        {
            None | Some((_, 0)) => {
                fields.push(field.clone());
                columns.push(col.clone());
            }
            Some((ladder, level)) => {
                let mut out = ColumnBuilder::with_capacity(DataType::Str, col.len());
                for v in col.iter_values() {
                    let g = ladder.apply(&v, level)?;
                    let g = match g {
                        Value::Null => Value::Null,
                        other => Value::Str(other.to_string()),
                    };
                    out.push(&g)?;
                }
                fields.push(Field {
                    name: field.name.clone(),
                    data_type: DataType::Str,
                    nullable: field.nullable,
                });
                columns.push(out.finish());
            }
        }
    }
    Table::new(toreador_data::schema::Schema::new(fields)?, columns).map_err(PrivacyError::Data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use toreador_data::generate::health_records;

    fn qis() -> Vec<QuasiIdentifier> {
        vec![
            QuasiIdentifier::numeric("age", vec![5.0, 10.0, 25.0]),
            QuasiIdentifier::string_prefix("zip", vec![3, 2, 1]),
            QuasiIdentifier::string_prefix("sex", vec![]),
        ]
    }

    fn qi_names() -> Vec<String> {
        vec!["age".into(), "zip".into(), "sex".into()]
    }

    #[test]
    fn ladders_generalise_progressively() {
        let l = Ladder::NumericBins {
            widths: vec![5.0, 10.0],
        };
        assert_eq!(l.apply(&Value::Int(37), 0).unwrap(), Value::Int(37));
        assert_eq!(
            l.apply(&Value::Int(37), 1).unwrap(),
            Value::Str("[35,40)".into())
        );
        assert_eq!(
            l.apply(&Value::Int(37), 2).unwrap(),
            Value::Str("[30,40)".into())
        );
        assert_eq!(l.apply(&Value::Int(37), 3).unwrap(), Value::Str("*".into()));
        let s = Ladder::StringPrefix { keep: vec![3, 1] };
        assert_eq!(
            s.apply(&Value::Str("26013".into()), 1).unwrap(),
            Value::Str("260**".into())
        );
        assert_eq!(
            s.apply(&Value::Str("26013".into()), 2).unwrap(),
            Value::Str("2****".into())
        );
        assert_eq!(
            s.apply(&Value::Str("26013".into()), 3).unwrap(),
            Value::Str("*".into())
        );
        assert_eq!(s.apply(&Value::Null, 1).unwrap(), Value::Null);
    }

    #[test]
    fn raw_health_data_is_not_anonymous() {
        let t = health_records(500, 1);
        let level = anonymity_level(&t, &qi_names()).unwrap();
        assert!(
            level < 5,
            "raw records should have small groups, got {level}"
        );
        assert!(!is_k_anonymous(&t, &qi_names(), 5).unwrap());
    }

    #[test]
    fn enforcement_reaches_requested_k() {
        let t = health_records(500, 1);
        for k in [2, 5, 20] {
            let a = enforce_k_anonymity(&t, &qis(), k).unwrap();
            assert!(
                is_k_anonymous(&a.table, &qi_names(), k).unwrap(),
                "k={k} not reached; levels {:?}, suppressed {}",
                a.levels,
                a.suppressed_rows
            );
            // Anonymised output retains the non-QI columns untouched.
            assert!(a.table.schema().contains("diagnosis"));
            assert!(a.table.schema().contains("cost"));
        }
    }

    #[test]
    fn utility_loss_increases_with_k() {
        let t = health_records(400, 2);
        let loose = enforce_k_anonymity(&t, &qis(), 2).unwrap();
        let strict = enforce_k_anonymity(&t, &qis(), 50).unwrap();
        assert!(
            strict.utility_loss >= loose.utility_loss,
            "k=50 loss {} < k=2 loss {}",
            strict.utility_loss,
            loose.utility_loss
        );
        assert!(loose.utility_loss > 0.0);
        assert!(strict.utility_loss <= 1.0);
    }

    #[test]
    fn unreachable_k_suppresses_rather_than_fails() {
        let t = health_records(10, 3);
        let a = enforce_k_anonymity(&t, &qis(), 8).unwrap();
        assert!(is_k_anonymous(&a.table, &qi_names(), 8).unwrap() || a.table.num_rows() == 0);
        // Whatever survives satisfies k; totals add up.
        assert_eq!(a.table.num_rows() + a.suppressed_rows, 10);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let t = health_records(10, 0);
        assert!(enforce_k_anonymity(&t, &qis(), 1).is_err());
        assert!(enforce_k_anonymity(&t, &[], 5).is_err());
    }

    #[test]
    fn anonymity_level_of_empty_table_is_max() {
        let t = health_records(10, 0).filter(&[false; 10]).unwrap();
        assert_eq!(anonymity_level(&t, &qi_names()).unwrap(), usize::MAX);
    }

    #[test]
    fn generalisation_only_touches_qi_columns() {
        let t = health_records(50, 4);
        let a = enforce_k_anonymity(&t, &qis(), 3).unwrap();
        // cost column values still numeric.
        assert!(a
            .table
            .column("cost")
            .unwrap()
            .iter_values()
            .all(|v| v.as_float().is_ok()));
    }
}

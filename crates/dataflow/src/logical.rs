//! Logical plans: what to compute, independent of how.
//!
//! Mirrors DataFusion's layering — a `LogicalPlan` tree built through the
//! fluent [`Dataflow`] API, schema-checked at construction, optimised by
//! [`crate::optimizer`], then lowered to stages by [`crate::physical`].

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use toreador_data::schema::{Field, Schema};
use toreador_data::value::DataType;

use crate::error::{FlowError, Result};
use crate::expr::Expr;

/// Aggregate functions supported by `Aggregate` nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Mean,
    /// Count of distinct non-null values.
    CountDistinct,
}

impl AggFunc {
    /// Output type given the input column type.
    pub fn output_type(self, input: DataType) -> Result<DataType> {
        match self {
            AggFunc::Count | AggFunc::CountDistinct => Ok(DataType::Int),
            AggFunc::Sum => {
                if input.is_numeric() {
                    Ok(input)
                } else {
                    Err(FlowError::TypeCheck(format!(
                        "SUM requires numeric, got {input}"
                    )))
                }
            }
            AggFunc::Mean => {
                if input.is_numeric() {
                    Ok(DataType::Float)
                } else {
                    Err(FlowError::TypeCheck(format!(
                        "MEAN requires numeric, got {input}"
                    )))
                }
            }
            AggFunc::Min | AggFunc::Max => Ok(input),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Mean => "mean",
            AggFunc::CountDistinct => "count_distinct",
        }
    }
}

/// One aggregate expression: `func(column) AS alias`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggExpr {
    pub func: AggFunc,
    pub column: String,
    pub alias: String,
}

impl AggExpr {
    pub fn new(func: AggFunc, column: impl Into<String>, alias: impl Into<String>) -> Self {
        AggExpr {
            func,
            column: column.into(),
            alias: alias.into(),
        }
    }
}

/// Join strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinType {
    Inner,
    /// Keep all left rows; unmatched right columns become null.
    Left,
}

/// A node in the logical plan tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LogicalPlan {
    /// Read a registered dataset.
    Scan { dataset: String, schema: Schema },
    /// Keep rows matching the predicate.
    Filter {
        input: Arc<LogicalPlan>,
        predicate: Expr,
    },
    /// Compute named expressions (a generalised SELECT list).
    Project {
        input: Arc<LogicalPlan>,
        exprs: Vec<(String, Expr)>,
        schema: Schema,
    },
    /// Group by key columns and aggregate.
    Aggregate {
        input: Arc<LogicalPlan>,
        group_by: Vec<String>,
        aggs: Vec<AggExpr>,
        schema: Schema,
    },
    /// Hash join on equality keys.
    Join {
        left: Arc<LogicalPlan>,
        right: Arc<LogicalPlan>,
        left_keys: Vec<String>,
        right_keys: Vec<String>,
        join_type: JoinType,
        schema: Schema,
    },
    /// Total sort by key columns.
    Sort {
        input: Arc<LogicalPlan>,
        keys: Vec<String>,
        descending: bool,
    },
    /// Keep the first `n` rows.
    Limit { input: Arc<LogicalPlan>, n: usize },
    /// Concatenate plans with identical schemas.
    Union { inputs: Vec<Arc<LogicalPlan>> },
    /// Bernoulli sample with the given probability and seed.
    Sample {
        input: Arc<LogicalPlan>,
        fraction: f64,
        seed: u64,
    },
    /// Drop duplicate rows (over all columns).
    Distinct { input: Arc<LogicalPlan> },
}

impl LogicalPlan {
    /// The output schema of this node.
    pub fn schema(&self) -> &Schema {
        match self {
            LogicalPlan::Scan { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Aggregate { schema, .. }
            | LogicalPlan::Join { schema, .. } => schema,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Sample { input, .. }
            | LogicalPlan::Distinct { input } => input.schema(),
            LogicalPlan::Union { inputs } => inputs[0].schema(),
        }
    }

    /// Direct children of this node.
    pub fn children(&self) -> Vec<&Arc<LogicalPlan>> {
        match self {
            LogicalPlan::Scan { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Sample { input, .. }
            | LogicalPlan::Distinct { input } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
            LogicalPlan::Union { inputs } => inputs.iter().collect(),
        }
    }

    /// Number of nodes in the tree (used by the Labs run records).
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// All dataset names scanned by this plan.
    pub fn scanned_datasets(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_scans(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_scans<'a>(&'a self, out: &mut Vec<&'a str>) {
        if let LogicalPlan::Scan { dataset, .. } = self {
            out.push(dataset);
        }
        for c in self.children() {
            c.collect_scans(out);
        }
    }

    /// Pretty-print the tree with indentation (for EXPLAIN-style output).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(0, &mut out);
        out
    }

    fn explain_into(&self, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.describe());
        out.push('\n');
        for c in self.children() {
            c.explain_into(depth + 1, out);
        }
    }

    /// One-line description of this node.
    pub fn describe(&self) -> String {
        match self {
            LogicalPlan::Scan { dataset, schema } => format!("Scan {dataset} {schema}"),
            LogicalPlan::Filter { predicate, .. } => format!("Filter {predicate}"),
            LogicalPlan::Project { exprs, .. } => {
                let cols: Vec<String> = exprs.iter().map(|(n, e)| format!("{e} AS {n}")).collect();
                format!("Project [{}]", cols.join(", "))
            }
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                let a: Vec<String> = aggs
                    .iter()
                    .map(|x| format!("{}({})", x.func.name(), x.column))
                    .collect();
                format!(
                    "Aggregate by [{}] compute [{}]",
                    group_by.join(", "),
                    a.join(", ")
                )
            }
            LogicalPlan::Join {
                left_keys,
                right_keys,
                join_type,
                ..
            } => {
                format!("Join {join_type:?} on {left_keys:?} = {right_keys:?}")
            }
            LogicalPlan::Sort {
                keys, descending, ..
            } => {
                format!(
                    "Sort by {:?} {}",
                    keys,
                    if *descending { "desc" } else { "asc" }
                )
            }
            LogicalPlan::Limit { n, .. } => format!("Limit {n}"),
            LogicalPlan::Union { inputs } => format!("Union of {}", inputs.len()),
            LogicalPlan::Sample { fraction, seed, .. } => {
                format!("Sample fraction={fraction} seed={seed}")
            }
            LogicalPlan::Distinct { .. } => "Distinct".to_owned(),
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

/// Fluent builder over [`LogicalPlan`], the engine's public API surface.
///
/// Every combinator validates schemas eagerly, so an invalid pipeline fails
/// at build time rather than mid-run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataflow {
    plan: Arc<LogicalPlan>,
}

impl Dataflow {
    /// Start a flow reading the named registered dataset.
    pub fn scan(dataset: impl Into<String>, schema: Schema) -> Self {
        Dataflow {
            plan: Arc::new(LogicalPlan::Scan {
                dataset: dataset.into(),
                schema,
            }),
        }
    }

    pub fn plan(&self) -> &Arc<LogicalPlan> {
        &self.plan
    }

    pub fn schema(&self) -> &Schema {
        self.plan.schema()
    }

    /// Keep rows where `predicate` is true.
    pub fn filter(self, predicate: Expr) -> Result<Self> {
        let ty = predicate.infer_type(self.schema())?;
        if ty != DataType::Bool {
            return Err(FlowError::TypeCheck(format!(
                "filter predicate must be Bool, got {ty}: {predicate}"
            )));
        }
        Ok(Dataflow {
            plan: Arc::new(LogicalPlan::Filter {
                input: self.plan,
                predicate,
            }),
        })
    }

    /// Select / compute columns: `(name, expr)` pairs.
    pub fn project(self, exprs: Vec<(&str, Expr)>) -> Result<Self> {
        if exprs.is_empty() {
            return Err(FlowError::Plan(
                "projection needs at least one column".to_owned(),
            ));
        }
        let mut fields = Vec::with_capacity(exprs.len());
        for (name, e) in &exprs {
            let ty = e.infer_type(self.schema())?;
            fields.push(Field::new(*name, ty));
        }
        let schema = Schema::new(fields)?;
        Ok(Dataflow {
            plan: Arc::new(LogicalPlan::Project {
                input: self.plan,
                exprs: exprs.into_iter().map(|(n, e)| (n.to_owned(), e)).collect(),
                schema,
            }),
        })
    }

    /// Shorthand: keep the named columns as-is.
    pub fn select(self, names: &[&str]) -> Result<Self> {
        let exprs = names.iter().map(|&n| (n, crate::expr::col(n))).collect();
        self.project(exprs)
    }

    /// Append a derived column, keeping all existing ones.
    pub fn with_column(self, name: &str, expr: Expr) -> Result<Self> {
        if self.schema().contains(name) {
            return Err(FlowError::Plan(format!("column {name:?} already exists")));
        }
        let names: Vec<String> = self
            .schema()
            .names()
            .into_iter()
            .map(str::to_owned)
            .collect();
        let mut exprs: Vec<(&str, Expr)> = names
            .iter()
            .map(|n| (n.as_str(), crate::expr::col(n)))
            .collect();
        exprs.push((name, expr));
        self.project(exprs)
    }

    /// Group by `group_by` columns and compute `aggs`.
    pub fn aggregate(self, group_by: &[&str], aggs: Vec<AggExpr>) -> Result<Self> {
        if aggs.is_empty() {
            return Err(FlowError::Plan(
                "aggregate needs at least one aggregation".to_owned(),
            ));
        }
        let input_schema = self.schema().clone();
        let mut fields = Vec::with_capacity(group_by.len() + aggs.len());
        for g in group_by {
            fields.push(input_schema.field(g).map_err(FlowError::Data)?.clone());
        }
        for a in &aggs {
            let in_ty = input_schema
                .field(&a.column)
                .map_err(FlowError::Data)?
                .data_type;
            fields.push(Field::new(a.alias.clone(), a.func.output_type(in_ty)?));
        }
        let schema = Schema::new(fields)?;
        Ok(Dataflow {
            plan: Arc::new(LogicalPlan::Aggregate {
                input: self.plan,
                group_by: group_by.iter().map(|s| s.to_string()).collect(),
                aggs,
                schema,
            }),
        })
    }

    /// Equality hash join. Right-side duplicate column names get `r_` prefix.
    pub fn join(
        self,
        right: Dataflow,
        left_keys: &[&str],
        right_keys: &[&str],
        join_type: JoinType,
    ) -> Result<Self> {
        if left_keys.is_empty() || left_keys.len() != right_keys.len() {
            return Err(FlowError::Plan(
                "join needs equal, non-empty key lists".to_owned(),
            ));
        }
        for (lk, rk) in left_keys.iter().zip(right_keys) {
            let lt = self.schema().field(lk).map_err(FlowError::Data)?.data_type;
            let rt = right.schema().field(rk).map_err(FlowError::Data)?.data_type;
            if lt.unify(rt).is_none() {
                return Err(FlowError::TypeCheck(format!(
                    "join key type mismatch: {lk}:{lt} vs {rk}:{rt}"
                )));
            }
        }
        let schema = self.schema().join(right.schema(), "r_")?;
        // A left join can emit nulls in right columns: loosen nullability.
        let schema = if join_type == JoinType::Left {
            let left_width = self.schema().len();
            Schema::new(
                schema
                    .fields()
                    .iter()
                    .enumerate()
                    .map(|(i, f)| {
                        let mut f = f.clone();
                        if i >= left_width {
                            f.nullable = true;
                        }
                        f
                    })
                    .collect(),
            )?
        } else {
            schema
        };
        Ok(Dataflow {
            plan: Arc::new(LogicalPlan::Join {
                left: self.plan,
                right: right.plan,
                left_keys: left_keys.iter().map(|s| s.to_string()).collect(),
                right_keys: right_keys.iter().map(|s| s.to_string()).collect(),
                join_type,
                schema,
            }),
        })
    }

    /// Total sort.
    pub fn sort(self, keys: &[&str], descending: bool) -> Result<Self> {
        for k in keys {
            self.schema().field(k).map_err(FlowError::Data)?;
        }
        if keys.is_empty() {
            return Err(FlowError::Plan("sort needs at least one key".to_owned()));
        }
        Ok(Dataflow {
            plan: Arc::new(LogicalPlan::Sort {
                input: self.plan,
                keys: keys.iter().map(|s| s.to_string()).collect(),
                descending,
            }),
        })
    }

    /// First `n` rows.
    pub fn limit(self, n: usize) -> Self {
        Dataflow {
            plan: Arc::new(LogicalPlan::Limit {
                input: self.plan,
                n,
            }),
        }
    }

    /// Union with other flows of identical schema.
    pub fn union(self, others: Vec<Dataflow>) -> Result<Self> {
        let mut inputs = vec![self.plan];
        for o in others {
            inputs[0]
                .schema()
                .ensure_same(o.schema())
                .map_err(FlowError::Data)?;
            inputs.push(o.plan);
        }
        Ok(Dataflow {
            plan: Arc::new(LogicalPlan::Union { inputs }),
        })
    }

    /// Bernoulli row sample.
    pub fn sample(self, fraction: f64, seed: u64) -> Result<Self> {
        if !(0.0..=1.0).contains(&fraction) {
            return Err(FlowError::Plan(format!(
                "sample fraction {fraction} outside [0,1]"
            )));
        }
        Ok(Dataflow {
            plan: Arc::new(LogicalPlan::Sample {
                input: self.plan,
                fraction,
                seed,
            }),
        })
    }

    /// Drop duplicate rows.
    pub fn distinct(self) -> Self {
        Dataflow {
            plan: Arc::new(LogicalPlan::Distinct { input: self.plan }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use toreador_data::generate::clickstream_schema;

    fn flow() -> Dataflow {
        Dataflow::scan("clicks", clickstream_schema())
    }

    #[test]
    fn filter_type_checked_at_build_time() {
        assert!(flow().filter(col("price").gt(lit(10.0))).is_ok());
        assert!(flow().filter(col("price")).is_err());
        assert!(flow().filter(col("no_such").gt(lit(1i64))).is_err());
    }

    #[test]
    fn project_builds_schema() {
        let f = flow()
            .project(vec![
                ("cat", col("category")),
                ("double_price", col("price").mul(lit(2.0))),
            ])
            .unwrap();
        assert_eq!(f.schema().names(), vec!["cat", "double_price"]);
        assert_eq!(
            f.schema().field("double_price").unwrap().data_type,
            DataType::Float
        );
        assert!(flow().project(vec![]).is_err());
    }

    #[test]
    fn select_and_with_column() {
        let f = flow().select(&["user_id", "price"]).unwrap();
        assert_eq!(f.schema().len(), 2);
        let f = f.with_column("tax", col("price").mul(lit(0.2))).unwrap();
        assert_eq!(f.schema().names(), vec!["user_id", "price", "tax"]);
        assert!(
            f.clone().with_column("tax", lit(1.0)).is_err(),
            "duplicate rejected"
        );
    }

    #[test]
    fn aggregate_schema_and_type_rules() {
        let f = flow()
            .aggregate(
                &["category"],
                vec![
                    AggExpr::new(AggFunc::Count, "event_id", "events"),
                    AggExpr::new(AggFunc::Sum, "price", "revenue"),
                    AggExpr::new(AggFunc::Mean, "price", "avg_price"),
                ],
            )
            .unwrap();
        assert_eq!(
            f.schema().names(),
            vec!["category", "events", "revenue", "avg_price"]
        );
        assert_eq!(f.schema().field("events").unwrap().data_type, DataType::Int);
        assert_eq!(
            f.schema().field("avg_price").unwrap().data_type,
            DataType::Float
        );
        // SUM over strings rejected.
        assert!(flow()
            .aggregate(&[], vec![AggExpr::new(AggFunc::Sum, "category", "x")])
            .is_err());
        assert!(flow().aggregate(&["category"], vec![]).is_err());
    }

    #[test]
    fn join_validates_keys_and_prefixes() {
        let left = flow();
        let right = flow();
        let j = left
            .clone()
            .join(right.clone(), &["user_id"], &["user_id"], JoinType::Inner)
            .unwrap();
        assert!(j.schema().contains("r_user_id"));
        assert!(left
            .clone()
            .join(right.clone(), &[], &[], JoinType::Inner)
            .is_err());
        assert!(left
            .clone()
            .join(right.clone(), &["user_id"], &["category"], JoinType::Inner)
            .is_err());
        // Left join loosens right-side nullability.
        let j = left
            .join(right, &["user_id"], &["user_id"], JoinType::Left)
            .unwrap();
        assert!(j.schema().field("r_event_id").unwrap().nullable);
    }

    #[test]
    fn union_requires_same_schema() {
        let a = flow().select(&["user_id"]).unwrap();
        let b = flow().select(&["user_id"]).unwrap();
        let u = a.clone().union(vec![b]).unwrap();
        assert_eq!(u.schema().names(), vec!["user_id"]);
        let c = flow().select(&["price"]).unwrap();
        assert!(a.union(vec![c]).is_err());
    }

    #[test]
    fn sample_fraction_validated() {
        assert!(flow().sample(0.5, 1).is_ok());
        assert!(flow().sample(1.5, 1).is_err());
    }

    #[test]
    fn sort_validates_keys() {
        assert!(flow().sort(&["ts"], false).is_ok());
        assert!(flow().sort(&[], false).is_err());
        assert!(flow().sort(&["nope"], false).is_err());
    }

    #[test]
    fn explain_renders_tree() {
        let f = flow()
            .filter(col("action").eq(lit("purchase")))
            .unwrap()
            .aggregate(
                &["category"],
                vec![AggExpr::new(AggFunc::Sum, "price", "revenue")],
            )
            .unwrap()
            .sort(&["revenue"], true)
            .unwrap()
            .limit(5);
        let e = f.plan().explain();
        assert!(e.contains("Limit 5"));
        assert!(e.contains("Sort"));
        assert!(e.contains("Aggregate"));
        assert!(e.contains("Filter"));
        assert!(e.contains("Scan clicks"));
        assert_eq!(f.plan().node_count(), 5);
        assert_eq!(f.plan().scanned_datasets(), vec!["clicks"]);
    }

    #[test]
    fn plans_serialize() {
        let f = flow().filter(col("price").gt(lit(1.0))).unwrap();
        let j = serde_json::to_string(f.plan()).unwrap();
        let back: LogicalPlan = serde_json::from_str(&j).unwrap();
        assert_eq!(&back, f.plan().as_ref());
    }
}

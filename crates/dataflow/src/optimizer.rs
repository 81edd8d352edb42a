//! Rule-based logical-plan optimiser.
//!
//! Four classic rewrites, each implemented as an independent rule so the
//! ablation benchmarks (DESIGN.md E2/E5) can toggle them:
//!
//! 1. **Constant folding** — evaluate literal-only sub-expressions through
//!    the engine's bound column kernels, which compute an operator over
//!    constants on a one-row column (there is no second, scalar
//!    evaluator), so a folded literal is what execution would have
//!    computed, type included.
//! 2. **Filter merging** — adjacent filters become one conjunction.
//! 3. **Predicate pushdown** — filters move below projections (when the
//!    projection is a pure rename/pass-through of the referenced columns)
//!    and below unions/sample-free nodes, shrinking data early.
//! 4. **Projection pruning** — scans followed by projections that ignore
//!    columns insert a narrowing projection right above the scan.
//!
//! Rules run to a fixpoint (bounded) and preserve plan semantics; the
//! equivalence is property-tested in
//! `crates/dataflow/tests/engine_properties.rs`, and folding against the
//! row oracle in `tests/cross_crate_properties.rs`.

use std::sync::Arc;

use toreador_data::schema::Schema;
use toreador_data::value::Value;

use crate::error::Result;
use crate::expr::{col, lit, BinOp, Expr};
use crate::logical::LogicalPlan;
use crate::vexpr::BoundExpr;

/// Which rules to apply. `Default` enables everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizerConfig {
    pub constant_folding: bool,
    pub merge_filters: bool,
    pub predicate_pushdown: bool,
    pub projection_pruning: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            constant_folding: true,
            merge_filters: true,
            predicate_pushdown: true,
            projection_pruning: true,
        }
    }
}

impl OptimizerConfig {
    /// All rules disabled (the ablation baseline).
    pub fn disabled() -> Self {
        OptimizerConfig {
            constant_folding: false,
            merge_filters: false,
            predicate_pushdown: false,
            projection_pruning: false,
        }
    }
}

/// Optimise a plan under the given configuration.
pub fn optimize(plan: &Arc<LogicalPlan>, config: &OptimizerConfig) -> Result<Arc<LogicalPlan>> {
    let mut current = Arc::clone(plan);
    // Fixpoint with a small bound; each rule is individually terminating but
    // pushdown can expose new merge opportunities and vice versa.
    for _ in 0..8 {
        let mut next = Arc::clone(&current);
        if config.constant_folding {
            next = fold_constants(&next)?;
        }
        if config.merge_filters {
            next = merge_filters(&next)?;
        }
        if config.predicate_pushdown {
            next = push_down_filters(&next)?;
        }
        if config.projection_pruning {
            next = prune_projections(&next)?;
        }
        if next == current {
            break;
        }
        current = next;
    }
    Ok(current)
}

/// Rebuild a node with new children (children given in `children()` order).
fn with_children(plan: &LogicalPlan, new_children: Vec<Arc<LogicalPlan>>) -> LogicalPlan {
    let mut it = new_children.into_iter();
    match plan {
        LogicalPlan::Scan { .. } => plan.clone(),
        LogicalPlan::Filter { predicate, .. } => LogicalPlan::Filter {
            input: it.next().expect("filter has a child"),
            predicate: predicate.clone(),
        },
        LogicalPlan::Project { exprs, schema, .. } => LogicalPlan::Project {
            input: it.next().expect("project has a child"),
            exprs: exprs.clone(),
            schema: schema.clone(),
        },
        LogicalPlan::Aggregate {
            group_by,
            aggs,
            schema,
            ..
        } => LogicalPlan::Aggregate {
            input: it.next().expect("aggregate has a child"),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
            schema: schema.clone(),
        },
        LogicalPlan::Join {
            left_keys,
            right_keys,
            join_type,
            schema,
            ..
        } => LogicalPlan::Join {
            left: it.next().expect("join has a left child"),
            right: it.next().expect("join has a right child"),
            left_keys: left_keys.clone(),
            right_keys: right_keys.clone(),
            join_type: *join_type,
            schema: schema.clone(),
        },
        LogicalPlan::Sort {
            keys, descending, ..
        } => LogicalPlan::Sort {
            input: it.next().expect("sort has a child"),
            keys: keys.clone(),
            descending: *descending,
        },
        LogicalPlan::Limit { n, .. } => LogicalPlan::Limit {
            input: it.next().expect("limit has a child"),
            n: *n,
        },
        LogicalPlan::Union { .. } => LogicalPlan::Union {
            inputs: it.collect(),
        },
        LogicalPlan::Sample { fraction, seed, .. } => LogicalPlan::Sample {
            input: it.next().expect("sample has a child"),
            fraction: *fraction,
            seed: *seed,
        },
        LogicalPlan::Distinct { .. } => LogicalPlan::Distinct {
            input: it.next().expect("distinct has a child"),
        },
    }
}

fn transform_up(
    plan: &Arc<LogicalPlan>,
    f: &impl Fn(Arc<LogicalPlan>) -> Result<Arc<LogicalPlan>>,
) -> Result<Arc<LogicalPlan>> {
    let children = plan
        .children()
        .into_iter()
        .map(|c| transform_up(c, f))
        .collect::<Result<Vec<_>>>()?;
    let rebuilt = Arc::new(with_children(plan, children));
    f(rebuilt)
}

// ---------------------------------------------------------------- rule 1

/// Evaluate literal-only sub-expressions.
fn fold_expr(e: &Expr) -> Expr {
    // Fold children first.
    let folded = match e {
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(fold_expr(left)),
            right: Box::new(fold_expr(right)),
        },
        Expr::Unary { op, operand } => Expr::Unary {
            op: *op,
            operand: Box::new(fold_expr(operand)),
        },
        Expr::Call { func, args } => Expr::Call {
            func: *func,
            args: args.iter().map(fold_expr).collect(),
        },
        Expr::Coalesce(args) => Expr::Coalesce(args.iter().map(fold_expr).collect()),
        Expr::If {
            cond,
            then,
            otherwise,
        } => Expr::If {
            cond: Box::new(fold_expr(cond)),
            then: Box::new(fold_expr(then)),
            otherwise: Box::new(fold_expr(otherwise)),
        },
        Expr::Cast { expr, to } => Expr::Cast {
            expr: Box::new(fold_expr(expr)),
            to: *to,
        },
        other => other.clone(),
    };
    // Identity simplifications on boolean connectives. Only a deciding left
    // literal drops the other side (the short-circuit): `NULL AND false` and
    // `NULL OR true` are NULL, so `x AND false` and `x OR true` stay.
    if let Expr::Binary { op, left, right } = &folded {
        match (op, left.as_ref(), right.as_ref()) {
            (BinOp::And, Expr::Literal(Value::Bool(true)), r) => return r.clone(),
            (BinOp::And, l, Expr::Literal(Value::Bool(true))) => return l.clone(),
            (BinOp::And, Expr::Literal(Value::Bool(false)), _) => {
                return Expr::Literal(Value::Bool(false))
            }
            (BinOp::Or, Expr::Literal(Value::Bool(false)), r) => return r.clone(),
            (BinOp::Or, l, Expr::Literal(Value::Bool(false))) => return l.clone(),
            (BinOp::Or, Expr::Literal(Value::Bool(true)), _) => {
                return Expr::Literal(Value::Bool(true))
            }
            _ => {}
        }
    }
    // Pure-literal subtree: evaluate it with the engine's own kernels.
    if folded.referenced_columns().is_empty() && !matches!(folded, Expr::Literal(_)) {
        if let Some(v) = eval_constant(&folded) {
            return v;
        }
    }
    folded
}

/// A column-free expression as the literal the engine would compute for
/// it, keeping its bound type: a NULL result folds to `CAST(NULL AS ty)`.
/// `None` when binding or evaluation fails — the error stays at run time.
fn eval_constant(e: &Expr) -> Option<Expr> {
    let bound = BoundExpr::bind(e, &Schema::empty()).ok()?;
    let ty = bound.output_type();
    let batch = bound.eval_cols(&[], 1, None).ok()?;
    match batch.into_column(ty, 1).ok()?.value(0).ok()? {
        Value::Null => Some(lit(Value::Null).cast(ty)),
        v => Some(Expr::Literal(v)),
    }
}

fn fold_constants(plan: &Arc<LogicalPlan>) -> Result<Arc<LogicalPlan>> {
    transform_up(plan, &|node: Arc<LogicalPlan>| {
        Ok(match node.as_ref() {
            LogicalPlan::Filter { input, predicate } => Arc::new(LogicalPlan::Filter {
                input: Arc::clone(input),
                predicate: fold_expr(predicate),
            }),
            LogicalPlan::Project {
                input,
                exprs,
                schema,
            } => Arc::new(LogicalPlan::Project {
                input: Arc::clone(input),
                exprs: exprs
                    .iter()
                    .map(|(n, e)| (n.clone(), fold_expr(e)))
                    .collect(),
                schema: schema.clone(),
            }),
            _ => node,
        })
    })
}

// ---------------------------------------------------------------- rule 2

fn merge_filters(plan: &Arc<LogicalPlan>) -> Result<Arc<LogicalPlan>> {
    transform_up(plan, &|node: Arc<LogicalPlan>| {
        if let LogicalPlan::Filter { input, predicate } = node.as_ref() {
            if let LogicalPlan::Filter {
                input: inner_input,
                predicate: inner_pred,
            } = input.as_ref()
            {
                return Ok(Arc::new(LogicalPlan::Filter {
                    input: Arc::clone(inner_input),
                    predicate: inner_pred.clone().and(predicate.clone()),
                }));
            }
        }
        Ok(node)
    })
}

// ---------------------------------------------------------------- rule 3

/// Rewrite a predicate over projection outputs into one over its inputs, if
/// every referenced output column maps to a plain column reference.
fn remap_through_project(predicate: &Expr, exprs: &[(String, Expr)]) -> Option<Expr> {
    let refs = predicate.referenced_columns();
    for r in &refs {
        match exprs.iter().find(|(n, _)| n == r) {
            Some((_, Expr::Column(_))) => {}
            _ => return None,
        }
    }
    Some(substitute(predicate, exprs))
}

fn substitute(e: &Expr, exprs: &[(String, Expr)]) -> Expr {
    match e {
        Expr::Column(name) => exprs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, inner)| inner.clone())
            .unwrap_or_else(|| col(name.clone())),
        Expr::Literal(_) => e.clone(),
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(substitute(left, exprs)),
            right: Box::new(substitute(right, exprs)),
        },
        Expr::Unary { op, operand } => Expr::Unary {
            op: *op,
            operand: Box::new(substitute(operand, exprs)),
        },
        Expr::Call { func, args } => Expr::Call {
            func: *func,
            args: args.iter().map(|a| substitute(a, exprs)).collect(),
        },
        Expr::Coalesce(args) => Expr::Coalesce(args.iter().map(|a| substitute(a, exprs)).collect()),
        Expr::If {
            cond,
            then,
            otherwise,
        } => Expr::If {
            cond: Box::new(substitute(cond, exprs)),
            then: Box::new(substitute(then, exprs)),
            otherwise: Box::new(substitute(otherwise, exprs)),
        },
        Expr::Cast { expr, to } => Expr::Cast {
            expr: Box::new(substitute(expr, exprs)),
            to: *to,
        },
    }
}

fn push_down_filters(plan: &Arc<LogicalPlan>) -> Result<Arc<LogicalPlan>> {
    transform_up(plan, &|node: Arc<LogicalPlan>| {
        let LogicalPlan::Filter { input, predicate } = node.as_ref() else {
            return Ok(node);
        };
        Ok(match input.as_ref() {
            // Filter(Project(x)) -> Project(Filter(x)) when remappable.
            LogicalPlan::Project {
                input: proj_in,
                exprs,
                schema,
            } => match remap_through_project(predicate, exprs) {
                Some(remapped) => Arc::new(LogicalPlan::Project {
                    input: Arc::new(LogicalPlan::Filter {
                        input: Arc::clone(proj_in),
                        predicate: remapped,
                    }),
                    exprs: exprs.clone(),
                    schema: schema.clone(),
                }),
                None => node,
            },
            // Filter(Union(xs)) -> Union(Filter(x) for x in xs).
            LogicalPlan::Union { inputs } => Arc::new(LogicalPlan::Union {
                inputs: inputs
                    .iter()
                    .map(|i| {
                        Arc::new(LogicalPlan::Filter {
                            input: Arc::clone(i),
                            predicate: predicate.clone(),
                        })
                    })
                    .collect(),
            }),
            // Filter(Sort(x)) -> Sort(Filter(x)): sorting fewer rows is cheaper.
            LogicalPlan::Sort {
                input: sort_in,
                keys,
                descending,
            } => Arc::new(LogicalPlan::Sort {
                input: Arc::new(LogicalPlan::Filter {
                    input: Arc::clone(sort_in),
                    predicate: predicate.clone(),
                }),
                keys: keys.clone(),
                descending: *descending,
            }),
            _ => node,
        })
    })
}

// ---------------------------------------------------------------- rule 4

/// Insert a narrowing projection between a wide scan and a projection that
/// uses only some of its columns. The narrowing node is itself a Project
/// containing plain column refs, so pushdown and execution stay unchanged.
fn prune_projections(plan: &Arc<LogicalPlan>) -> Result<Arc<LogicalPlan>> {
    transform_up(plan, &|node: Arc<LogicalPlan>| {
        let LogicalPlan::Project {
            input,
            exprs,
            schema,
        } = node.as_ref()
        else {
            return Ok(node);
        };
        let LogicalPlan::Scan {
            dataset,
            schema: scan_schema,
        } = input.as_ref()
        else {
            return Ok(node);
        };
        let mut needed: Vec<&str> = Vec::new();
        for (_, e) in exprs {
            needed.extend(e.referenced_columns());
        }
        needed.sort_unstable();
        needed.dedup();
        if needed.len() >= scan_schema.len() {
            return Ok(node); // nothing to prune
        }
        let narrow_schema = scan_schema
            .project(&needed)
            .map_err(crate::error::FlowError::Data)?;
        let narrow = Arc::new(LogicalPlan::Project {
            input: Arc::new(LogicalPlan::Scan {
                dataset: dataset.clone(),
                schema: scan_schema.clone(),
            }),
            exprs: needed.iter().map(|&n| (n.to_owned(), col(n))).collect(),
            schema: narrow_schema,
        });
        // Avoid re-inserting forever: if the projection is already the
        // narrowing shape, leave it alone.
        if exprs.len() == needed.len()
            && exprs
                .iter()
                .all(|(n, e)| matches!(e, Expr::Column(c) if c == n))
        {
            return Ok(node);
        }
        Ok(Arc::new(LogicalPlan::Project {
            input: narrow,
            exprs: exprs.clone(),
            schema: schema.clone(),
        }))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{AggExpr, AggFunc, Dataflow};
    use toreador_data::generate::clickstream_schema;
    use toreador_data::value::DataType;

    fn scan() -> Dataflow {
        Dataflow::scan("clicks", clickstream_schema())
    }

    #[test]
    fn folds_constant_arithmetic() {
        let e = lit(2i64).add(lit(3i64)).mul(col("price"));
        let f = fold_expr(&e);
        assert_eq!(f, lit(5i64).mul(col("price")));
    }

    #[test]
    fn folds_boolean_identities() {
        let p = col("price").gt(lit(1.0));
        assert_eq!(fold_expr(&p.clone().and(lit(true))), p);
        assert_eq!(fold_expr(&lit(false).and(p.clone())), lit(false));
        let e = lit(false).or(col("price").is_null());
        assert_eq!(fold_expr(&e), col("price").is_null());
        // A NULL left side makes `x AND false` and `x OR true` NULL: no fold.
        for e in [p.clone().and(lit(false)), p.or(lit(true))] {
            assert_eq!(fold_expr(&e), e);
        }
    }

    #[test]
    fn folded_literals_keep_the_bound_type() {
        // `Value` equality says Int(1) == Float(1.0); the Debug form does not.
        let mixed = Expr::coalesce(vec![lit(1i64), lit(2.5)]);
        assert_eq!(
            format!("{:?}", fold_expr(&mixed)),
            format!("{:?}", lit(1.0))
        );
        let null = lit(1.0).div(lit(0i64));
        assert_eq!(fold_expr(&null), lit(Value::Null).cast(DataType::Float));
    }

    #[test]
    fn merges_adjacent_filters() {
        let f = scan()
            .filter(col("price").gt(lit(1.0)))
            .unwrap()
            .filter(col("country").eq(lit("IT")))
            .unwrap();
        let opt = optimize(f.plan(), &OptimizerConfig::default()).unwrap();
        // One filter remains, containing AND.
        let mut filters = 0;
        fn count_filters(p: &LogicalPlan, n: &mut usize) {
            if matches!(p, LogicalPlan::Filter { .. }) {
                *n += 1;
            }
            for c in p.children() {
                count_filters(c, n);
            }
        }
        count_filters(&opt, &mut filters);
        assert_eq!(filters, 1);
        assert!(opt.explain().contains("AND"));
    }

    #[test]
    fn pushes_filter_below_rename_projection() {
        let f = scan()
            .project(vec![("c", col("country")), ("p", col("price"))])
            .unwrap()
            .filter(col("c").eq(lit("IT")))
            .unwrap();
        let opt = optimize(f.plan(), &OptimizerConfig::default()).unwrap();
        // After pushdown the top node is the projection.
        assert!(
            matches!(opt.as_ref(), LogicalPlan::Project { .. }),
            "{}",
            opt.explain()
        );
        let e = opt.explain();
        let filter_line = e.lines().position(|l| l.contains("Filter")).unwrap();
        let project_line = e.lines().position(|l| l.contains("Project")).unwrap();
        assert!(filter_line > project_line, "filter below projection:\n{e}");
        // And the predicate now references the underlying column name.
        assert!(e.contains("country = \"IT\""), "{e}");
    }

    #[test]
    fn does_not_push_through_computed_projection() {
        let f = scan()
            .project(vec![("doubled", col("price").mul(lit(2.0)))])
            .unwrap()
            .filter(col("doubled").gt(lit(10.0)))
            .unwrap();
        let opt = optimize(f.plan(), &OptimizerConfig::default()).unwrap();
        assert!(
            matches!(opt.as_ref(), LogicalPlan::Filter { .. }),
            "filter must stay on top:\n{}",
            opt.explain()
        );
    }

    #[test]
    fn pushes_filter_into_union_branches() {
        let a = scan();
        let b = scan();
        let f = a
            .union(vec![b])
            .unwrap()
            .filter(col("price").gt(lit(5.0)))
            .unwrap();
        let opt = optimize(f.plan(), &OptimizerConfig::default()).unwrap();
        if let LogicalPlan::Union { inputs } = opt.as_ref() {
            for i in inputs {
                assert!(matches!(i.as_ref(), LogicalPlan::Filter { .. }));
            }
        } else {
            panic!("expected union on top:\n{}", opt.explain());
        }
    }

    #[test]
    fn prunes_unused_scan_columns() {
        let f = scan().project(vec![("p", col("price"))]).unwrap();
        let opt = optimize(f.plan(), &OptimizerConfig::default()).unwrap();
        // Inner narrowing projection reads only `price`.
        let e = opt.explain();
        assert!(e.matches("Project").count() >= 2, "{e}");
        assert!(e.contains("price AS price"), "{e}");
    }

    #[test]
    fn disabled_config_is_identity() {
        let f = scan()
            .filter(col("price").gt(lit(1.0).add(lit(2.0))))
            .unwrap()
            .filter(col("country").eq(lit("IT")))
            .unwrap();
        let opt = optimize(f.plan(), &OptimizerConfig::disabled()).unwrap();
        assert_eq!(&opt, f.plan());
    }

    #[test]
    fn optimizer_preserves_schema() {
        let f = scan()
            .project(vec![("c", col("country")), ("p", col("price"))])
            .unwrap()
            .filter(col("p").gt(lit(2.0)))
            .unwrap()
            .aggregate(&["c"], vec![AggExpr::new(AggFunc::Mean, "p", "avg")])
            .unwrap();
        let opt = optimize(f.plan(), &OptimizerConfig::default()).unwrap();
        assert_eq!(opt.schema(), f.schema());
    }

    #[test]
    fn fixpoint_terminates_on_pathological_chain() {
        let mut f = scan();
        for i in 0..20 {
            f = f.filter(col("price").gt(lit(i as f64))).unwrap();
        }
        let opt = optimize(f.plan(), &OptimizerConfig::default()).unwrap();
        assert!(opt.node_count() < f.plan().node_count());
    }
}

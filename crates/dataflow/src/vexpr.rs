//! Vectorized expression evaluation: plan-time binding + batch kernels.
//!
//! [`BoundExpr`] is an [`Expr`] compiled against a schema **once**: column
//! names are resolved to indices, every node's output type is inferred and
//! frozen, and the fallibility of each subtree (can it raise a runtime
//! error, i.e. does it contain a cast that can fail?) is precomputed.
//! Binding is the engine's only type checker. Evaluation then runs each
//! operator over whole [`Column`] vectors with type-specialized kernels
//! (int/float/str lanes), combining null masks word-wise through
//! [`Validity`], and produces **selection vectors** (`Vec<u32>` of surviving
//! row indices) for predicates instead of `Vec<bool>` masks.
//!
//! These kernels are the engine's one evaluator. A constant operand stays
//! a scalar until a consumer needs a column; an operator over constants
//! runs the same kernel on a one-row column of the operand's bound type
//! and reads its one value back as a constant, so constant subtrees, and
//! the optimizer's constant folding, compute exactly what a column would.
//!
//! The semantics, which the row-at-a-time oracle in
//! `crates/dataflow/tests/support/row_oracle.rs` restates one value at a
//! time, include:
//!
//! * frozen types: an `IF`/`COALESCE` value has its node's unified type, so
//!   the Int branch of an Int/Float mix widens to Float before any operator
//!   above it computes,
//! * null propagation (`AND`/`OR` with a null operand yield null — the
//!   engine's simplified three-valued logic),
//! * short-circuit error skipping: rows where a row-at-a-time evaluator
//!   would never evaluate a fallible subexpression (the right side of
//!   `AND`/`OR`, the untaken `IF` branch, later `COALESCE` arguments) are
//!   excluded via selection-lazy evaluation, so a failing cast on a dead
//!   row does not error,
//! * wrapping integer arithmetic, `Div` always computing as float with
//!   divide-by-zero yielding null, `Mod`-by-zero yielding null, `Ln` of a
//!   non-positive value yielding null,
//! * float comparisons via `f64::total_cmp` (NaN equals NaN, -0.0 < +0.0),
//!   matching [`toreador_data::value::Value::total_cmp`].
//!
//! The differential suites in `crates/dataflow/tests/expr_differential.rs`
//! and `tests/cross_crate_properties.rs` hold the kernels to the oracle.

use std::borrow::Cow;
use std::cmp::Ordering;

use toreador_data::column::{
    Buffer, Column, ColumnBuilder, LaneRef, StrLane, Validity, ValidityBuilder,
};
use toreador_data::schema::Schema;
use toreador_data::table::Table;
use toreador_data::value::{DataType, Value};

use crate::error::{FlowError, Result};
use crate::expr::{BinOp, Expr, Func, UnOp};

/// An expression compiled against a schema: indices instead of names, types
/// resolved at every node, literals kept as scalars until broadcast.
#[derive(Debug, Clone)]
pub struct BoundExpr {
    ty: DataType,
    /// Whether evaluating this subtree can raise a runtime error (only
    /// casts can, after binding has type-checked everything else).
    fallible: bool,
    node: BoundNode,
}

#[derive(Debug, Clone)]
enum BoundNode {
    Col(usize),
    Lit(Value),
    Binary {
        op: BinOp,
        left: Box<BoundExpr>,
        right: Box<BoundExpr>,
    },
    Unary {
        op: UnOp,
        operand: Box<BoundExpr>,
    },
    Call {
        func: Func,
        arg: Box<BoundExpr>,
    },
    Coalesce(Vec<BoundExpr>),
    If {
        cond: Box<BoundExpr>,
        then: Box<BoundExpr>,
        otherwise: Box<BoundExpr>,
    },
    Cast {
        expr: Box<BoundExpr>,
        to: DataType,
    },
}

/// The result of evaluating one bound node over a batch: a full column, a
/// borrowed input column (bare column references copy nothing), a deferred
/// gather (a column restricted to a selection, materialized only if a
/// consumer needs ownership), or a scalar (constant subtrees stay scalar
/// until a consumer broadcasts them).
pub enum Batch<'a> {
    Ref(&'a Column),
    Owned(Column),
    /// `column` restricted to the rows of `sel`, gather deferred. The fused
    /// narrow chain evaluates morsels under row-range selections; streaming
    /// consumers (the comparison kernels, null tests) read `data[sel[i]]`
    /// in place, so a `Str` operand never pays a per-row clone just to be
    /// compared against.
    Gather(&'a Column, &'a [u32]),
    Scalar(Value),
}

impl<'a> Batch<'a> {
    fn as_col(&self) -> Option<&Column> {
        match self {
            Batch::Ref(c) => Some(c),
            Batch::Owned(c) => Some(c),
            Batch::Gather(..) => None,
            Batch::Scalar(_) => None,
        }
    }

    fn as_scalar(&self) -> Option<&Value> {
        match self {
            Batch::Scalar(v) => Some(v),
            _ => None,
        }
    }

    /// Materialize a deferred gather; every other variant passes through.
    /// Consumers without a streaming path call this before `as_col`.
    fn force(self) -> Batch<'a> {
        match self {
            Batch::Gather(c, sel) => Batch::Owned(c.take_sel(sel)),
            b => b,
        }
    }

    /// Materialize as a column of `ty` over `m` rows, broadcasting scalars
    /// and widening Int to Float where the inferred type asks for it.
    pub fn into_column(self, ty: DataType, m: usize) -> Result<Column> {
        match self {
            Batch::Ref(c) => coerce_column(c.clone(), ty),
            Batch::Owned(c) => coerce_column(c, ty),
            Batch::Gather(c, sel) => coerce_column(c.take_sel(sel), ty),
            Batch::Scalar(v) => {
                let v = v.coerce(ty).map_err(FlowError::Data)?;
                Ok(broadcast(&v, ty, m))
            }
        }
    }
}

fn internal(msg: &str) -> FlowError {
    FlowError::TypeCheck(format!("vectorized engine invariant violated: {msg}"))
}

/// Identity, or the one legal implicit widening (Int -> Float).
fn coerce_column(c: Column, ty: DataType) -> Result<Column> {
    if c.data_type() == ty {
        return Ok(c);
    }
    match (c, ty) {
        (Column::Int { data, validity }, DataType::Float) => Ok(Column::Float {
            data: data.iter().map(|&i| i as f64).collect(),
            validity,
        }),
        (c, ty) => Err(internal(&format!(
            "cannot coerce {} column to {ty}",
            c.data_type()
        ))),
    }
}

/// A constant value repeated `m` times.
fn broadcast(v: &Value, ty: DataType, m: usize) -> Column {
    if v.is_null() {
        let mut c = ColumnBuilder::with_capacity(ty, m);
        for _ in 0..m {
            c.push_null();
        }
        return c.finish();
    }
    let validity = Validity::all_valid(m);
    match v {
        Value::Bool(b) => Column::Bool {
            data: vec![*b; m].into(),
            validity,
        },
        Value::Int(i) => Column::Int {
            data: vec![*i; m].into(),
            validity,
        },
        Value::Float(x) => Column::Float {
            data: vec![*x; m].into(),
            validity,
        },
        Value::Str(s) => Column::Str {
            data: std::iter::repeat(s).take(m).collect(),
            validity,
        },
        Value::Timestamp(t) => Column::Timestamp {
            data: vec![*t; m].into(),
            validity,
        },
        Value::Null => unreachable!(),
    }
}

/// A constant through a column kernel: `v` becomes a one-row column of its
/// bound type `ty`, `kernel` computes on it as on any column, and the one
/// row out is read back as a constant of type `out`. Constant subtrees
/// (and so constant folding) run the kernels that execute columns.
fn on_one_row<'a>(
    v: Value,
    ty: DataType,
    out: DataType,
    kernel: impl FnOnce(Batch<'a>) -> Result<Batch<'a>>,
) -> Result<Batch<'a>> {
    let row = Batch::Owned(Batch::Scalar(v).into_column(ty, 1)?);
    let v = kernel(row)?.into_column(out, 1)?.value(0);
    Ok(Batch::Scalar(v.map_err(FlowError::Data)?))
}

fn all_null(ty: DataType, m: usize) -> Column {
    broadcast(&Value::Null, ty, m)
}

fn bad(msg: String) -> FlowError {
    FlowError::TypeCheck(msg)
}

/// Whether [`cast_kernel`] can fail on a non-null value of type `from`.
fn cast_fallible(from: DataType, to: DataType) -> bool {
    use DataType::*;
    match to {
        Str => false,
        Int => from == Str,
        Float => !matches!(from, Float | Int),
        Bool => !matches!(from, Bool | Int),
        Timestamp => !matches!(from, Timestamp | Int),
    }
}

impl BoundExpr {
    /// Compile `expr` against `schema`: resolve names, infer and freeze
    /// every node's type, reject ill-typed trees. This is the engine's only
    /// type checker ([`Expr::infer_type`] delegates here), run once at plan
    /// time instead of per partition per stage.
    pub fn bind(expr: &Expr, schema: &Schema) -> Result<BoundExpr> {
        Ok(match expr {
            Expr::Column(name) => {
                let idx = schema
                    .index_of(name)
                    .map_err(|_| bad(format!("unknown column {name:?} in {schema}")))?;
                BoundExpr {
                    ty: schema.fields()[idx].data_type,
                    fallible: false,
                    node: BoundNode::Col(idx),
                }
            }
            Expr::Literal(v) => BoundExpr {
                // A bare null literal types as Str; wrap it in a Cast to
                // pick another type (constant folding does).
                ty: v.data_type().unwrap_or(DataType::Str),
                fallible: false,
                node: BoundNode::Lit(v.clone()),
            },
            Expr::Binary { op, left, right } => {
                let l = Self::bind(left, schema)?;
                let r = Self::bind(right, schema)?;
                let (lt, rt) = (l.ty, r.ty);
                let ty = if op.is_arithmetic() {
                    match lt.unify(rt) {
                        Some(t) if t.is_numeric() => {
                            if *op == BinOp::Div {
                                DataType::Float
                            } else {
                                t
                            }
                        }
                        _ => {
                            return Err(bad(format!(
                                "{} requires numeric operands, got {lt} {rt}",
                                op.symbol()
                            )))
                        }
                    }
                } else if op.is_comparison() {
                    if lt.unify(rt).is_none() {
                        return Err(bad(format!("cannot compare {lt} with {rt}")));
                    }
                    DataType::Bool
                } else {
                    if lt != DataType::Bool || rt != DataType::Bool {
                        return Err(bad(format!(
                            "{} requires Bool operands, got {lt} {rt}",
                            op.symbol()
                        )));
                    }
                    DataType::Bool
                };
                BoundExpr {
                    ty,
                    fallible: l.fallible || r.fallible,
                    node: BoundNode::Binary {
                        op: *op,
                        left: Box::new(l),
                        right: Box::new(r),
                    },
                }
            }
            Expr::Unary { op, operand } => {
                let o = Self::bind(operand, schema)?;
                let ty = match op {
                    UnOp::Not => {
                        if o.ty != DataType::Bool {
                            return Err(bad(format!("NOT requires Bool, got {}", o.ty)));
                        }
                        DataType::Bool
                    }
                    UnOp::Neg => {
                        if !o.ty.is_numeric() {
                            return Err(bad(format!("negation requires numeric, got {}", o.ty)));
                        }
                        o.ty
                    }
                    UnOp::IsNull | UnOp::IsNotNull => DataType::Bool,
                };
                BoundExpr {
                    ty,
                    fallible: o.fallible,
                    node: BoundNode::Unary {
                        op: *op,
                        operand: Box::new(o),
                    },
                }
            }
            Expr::Call { func, args } => {
                if args.len() != 1 {
                    return Err(bad(format!(
                        "{func:?} expects 1 argument(s), got {}",
                        args.len()
                    )));
                }
                let a = Self::bind(&args[0], schema)?;
                let t = a.ty;
                let ty = match func {
                    Func::Abs | Func::Floor | Func::Ceil => {
                        if !t.is_numeric() {
                            return Err(bad(format!("{func:?} requires numeric, got {t}")));
                        }
                        t
                    }
                    Func::Sqrt | Func::Ln => {
                        if !t.is_numeric() {
                            return Err(bad(format!("{func:?} requires numeric, got {t}")));
                        }
                        DataType::Float
                    }
                    Func::Lower | Func::Upper => {
                        if t != DataType::Str {
                            return Err(bad(format!("{func:?} requires Str, got {t}")));
                        }
                        DataType::Str
                    }
                    Func::Length => {
                        if t != DataType::Str {
                            return Err(bad(format!("Length requires Str, got {t}")));
                        }
                        DataType::Int
                    }
                    Func::HourOfDay | Func::DayIndex => {
                        if t != DataType::Timestamp {
                            return Err(bad(format!("{func:?} requires Timestamp, got {t}")));
                        }
                        DataType::Int
                    }
                };
                BoundExpr {
                    ty,
                    fallible: a.fallible,
                    node: BoundNode::Call {
                        func: *func,
                        arg: Box::new(a),
                    },
                }
            }
            Expr::Coalesce(args) => {
                if args.is_empty() {
                    return Err(bad("COALESCE needs at least one argument".to_owned()));
                }
                let bound: Vec<BoundExpr> = args
                    .iter()
                    .map(|a| Self::bind(a, schema))
                    .collect::<Result<_>>()?;
                let mut ty = bound[0].ty;
                for b in &bound[1..] {
                    ty = ty
                        .unify(b.ty)
                        .ok_or_else(|| bad(format!("COALESCE mixes {ty} and {}", b.ty)))?;
                }
                BoundExpr {
                    ty,
                    fallible: bound.iter().any(|b| b.fallible),
                    node: BoundNode::Coalesce(bound),
                }
            }
            Expr::If {
                cond,
                then,
                otherwise,
            } => {
                let c = Self::bind(cond, schema)?;
                if c.ty != DataType::Bool {
                    return Err(bad(format!("IF condition must be Bool, got {}", c.ty)));
                }
                let t = Self::bind(then, schema)?;
                let o = Self::bind(otherwise, schema)?;
                let ty =
                    t.ty.unify(o.ty)
                        .ok_or_else(|| bad(format!("IF branches mix {} and {}", t.ty, o.ty)))?;
                BoundExpr {
                    ty,
                    fallible: c.fallible || t.fallible || o.fallible,
                    node: BoundNode::If {
                        cond: Box::new(c),
                        then: Box::new(t),
                        otherwise: Box::new(o),
                    },
                }
            }
            Expr::Cast { expr, to } => {
                // Any source type binds; a combination `cast_kernel`
                // rejects fails per row at run time (`fallible`).
                let e = Self::bind(expr, schema)?;
                let fallible = e.fallible || cast_fallible(e.ty, *to);
                BoundExpr {
                    ty: *to,
                    fallible,
                    node: BoundNode::Cast {
                        expr: Box::new(e),
                        to: *to,
                    },
                }
            }
        })
    }

    /// Inferred output type (resolved once, at bind time).
    pub fn output_type(&self) -> DataType {
        self.ty
    }

    /// Evaluate over a whole table into a column of the bound type.
    pub fn eval_column(&self, table: &Table) -> Result<Column> {
        let n = table.num_rows();
        let batch = self.eval_cols(table.columns(), n, None)?;
        batch.into_column(self.ty, n)
    }

    /// Evaluate a Bool predicate over a table into a selection vector of
    /// surviving row indices (null counts as false, SQL WHERE semantics).
    pub fn eval_selection(&self, table: &Table) -> Result<Vec<u32>> {
        self.selection_cols(table.columns(), table.num_rows(), None)
    }

    /// Like [`Self::eval_selection`], but over raw columns under an
    /// optional prior selection; returns **absolute** row indices (a subset
    /// of `sel` when given). The fused narrow-chain pass composes filters
    /// this way without materializing intermediate tables.
    pub(crate) fn selection_cols(
        &self,
        cols: &[Column],
        n: usize,
        sel: Option<&[u32]>,
    ) -> Result<Vec<u32>> {
        if self.ty != DataType::Bool {
            return Err(bad(format!("predicate must be Bool, got {}", self.ty)));
        }
        let m = sel.map_or(n, |s| s.len());
        let batch = self.eval_cols(cols, n, sel)?.force();
        let abs = |i: usize| sel.map_or(i as u32, |s| s[i]);
        match batch {
            Batch::Scalar(Value::Bool(true)) => Ok((0..m).map(abs).collect()),
            Batch::Scalar(_) => Ok(Vec::new()),
            b => {
                let c = b.as_col().expect("non-scalar batch is a column");
                let (data, validity) = c.as_bools().map_err(FlowError::Data)?;
                let mut out = Vec::new();
                for (i, &d) in data.iter().enumerate().take(m) {
                    if validity.get(i) && d {
                        out.push(abs(i));
                    }
                }
                Ok(out)
            }
        }
    }

    /// Evaluate over raw columns of length `n`, optionally restricted to
    /// the rows in `sel`. The resulting batch has `sel.len()` (or `n`)
    /// rows, in selection order.
    pub(crate) fn eval_cols<'a>(
        &self,
        cols: &'a [Column],
        n: usize,
        sel: Option<&'a [u32]>,
    ) -> Result<Batch<'a>> {
        let m = sel.map_or(n, |s| s.len());
        match &self.node {
            BoundNode::Col(idx) => match sel {
                None => Ok(Batch::Ref(&cols[*idx])),
                Some(s) => Ok(Batch::Gather(&cols[*idx], s)),
            },
            BoundNode::Lit(v) => Ok(Batch::Scalar(v.clone())),
            BoundNode::Binary { op, left, right } => {
                self.eval_binary_node(*op, left, right, cols, n, sel, m)
            }
            BoundNode::Unary { op, operand } => match operand.eval_cols(cols, n, sel)? {
                Batch::Scalar(v) => {
                    on_one_row(v, operand.ty, self.ty, |b| eval_unary_batch(*op, b))
                }
                b => eval_unary_batch(*op, b),
            },
            BoundNode::Call { func, arg } => {
                let kernel = |b: Batch<'a>| {
                    func_kernel(*func, b.as_col().expect("column batch")).map(Batch::Owned)
                };
                match arg.eval_cols(cols, n, sel)?.force() {
                    Batch::Scalar(v) => on_one_row(v, arg.ty, self.ty, kernel),
                    b => kernel(b),
                }
            }
            BoundNode::Coalesce(args) => self.eval_coalesce(args, cols, n, sel, m),
            BoundNode::If {
                cond,
                then,
                otherwise,
            } => self.eval_if(cond, then, otherwise, cols, n, sel, m),
            BoundNode::Cast { expr, to } => {
                let kernel = |b: Batch<'a>| {
                    cast_kernel(b.as_col().expect("column batch"), *to).map(Batch::Owned)
                };
                match expr.eval_cols(cols, n, sel)?.force() {
                    Batch::Scalar(v) => on_one_row(v, expr.ty, *to, kernel),
                    b => kernel(b),
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_binary_node<'a>(
        &self,
        op: BinOp,
        left: &BoundExpr,
        right: &BoundExpr,
        cols: &'a [Column],
        n: usize,
        sel: Option<&'a [u32]>,
        m: usize,
    ) -> Result<Batch<'a>> {
        let lb = left.eval_cols(cols, n, sel)?;
        if matches!(op, BinOp::And | BinOp::Or) {
            return self.eval_logic(op, lb, right, cols, n, sel, m);
        }
        let rb = right.eval_cols(cols, n, sel)?;
        match (lb, rb) {
            (Batch::Scalar(l), Batch::Scalar(r)) => {
                let r = Batch::Owned(Batch::Scalar(r).into_column(right.ty, 1)?);
                on_one_row(l, left.ty, self.ty, |l| self.binary_kernel(op, l, r, 1))
            }
            (lb, rb) => self.binary_kernel(op, lb, rb, m),
        }
    }

    /// A comparison or arithmetic kernel over two batches of `m` rows, at
    /// most one of them a scalar.
    fn binary_kernel<'a>(
        &self,
        op: BinOp,
        lb: Batch<'a>,
        rb: Batch<'a>,
        m: usize,
    ) -> Result<Batch<'a>> {
        // A null scalar operand nulls every row (after both sides have been
        // evaluated, matching row-path error behavior).
        if lb.as_scalar().is_some_and(Value::is_null) || rb.as_scalar().is_some_and(Value::is_null)
        {
            return Ok(Batch::Owned(all_null(self.ty, m)));
        }
        if op.is_comparison() {
            // Deferred gathers compare in place — `data[sel[i]]` streams
            // against the other operand, so the fused chain's per-morsel
            // filters never clone the rows they are testing.
            match (&lb, &rb) {
                (Batch::Gather(c, s), Batch::Scalar(v)) => {
                    return cmp_gather_scalar(op, c, s, v, true).map(Batch::Owned)
                }
                (Batch::Scalar(v), Batch::Gather(c, s)) => {
                    return cmp_gather_scalar(op, c, s, v, false).map(Batch::Owned)
                }
                (Batch::Gather(lc, ls), Batch::Gather(rc, rs)) => {
                    return cmp_gather_gather(op, lc, ls, rc, rs).map(Batch::Owned)
                }
                _ => {}
            }
            let (lb, rb) = (lb.force(), rb.force());
            cmp_dispatch(op, &lb, &rb).map(Batch::Owned)
        } else {
            let (lb, rb) = (lb.force(), rb.force());
            arith_dispatch(op, self.ty, &lb, &rb, m).map(Batch::Owned)
        }
    }

    /// AND/OR with the row oracle's short-circuit semantics: a false (for
    /// AND) or true (for OR) left operand decides the row without touching
    /// the right side — including any error a fallible right side would
    /// raise there. Infallible right sides take the dense fast lane.
    #[allow(clippy::too_many_arguments)]
    fn eval_logic<'a>(
        &self,
        op: BinOp,
        lb: Batch<'a>,
        right: &BoundExpr,
        cols: &'a [Column],
        n: usize,
        sel: Option<&'a [u32]>,
        m: usize,
    ) -> Result<Batch<'a>> {
        let lb = lb.force();
        let decides = |v: bool| (op == BinOp::And && !v) || (op == BinOp::Or && v);
        if let Some(l) = lb.as_scalar() {
            match l {
                Value::Bool(b) if decides(*b) => return Ok(Batch::Scalar(Value::Bool(*b))),
                _ => {
                    // Left is null or non-deciding: the right side is
                    // evaluated for every row.
                    let rb = right.eval_cols(cols, n, sel)?;
                    if l.is_null() {
                        return match rb.as_scalar() {
                            Some(_) => Ok(Batch::Scalar(Value::Null)),
                            None => Ok(Batch::Owned(all_null(DataType::Bool, m))),
                        };
                    }
                    // Left is the non-deciding constant: AND(true, r) = r,
                    // OR(false, r) = r (null right stays null).
                    return Ok(rb);
                }
            }
        }
        let l_col = lb.as_col().expect("non-scalar batch is a column");
        let (ld, lv) = l_col.as_bools().map_err(FlowError::Data)?;
        if right.fallible {
            // Selection-lazy: evaluate the right side only on rows the left
            // side does not decide.
            let abs = |i: usize| sel.map_or(i as u32, |s| s[i]);
            let mut keep: Vec<u32> = Vec::new();
            for (i, &l) in ld.iter().enumerate().take(m) {
                if !(lv.get(i) && decides(l)) {
                    keep.push(abs(i));
                }
            }
            let r_col = if keep.is_empty() {
                None
            } else {
                let rb = right.eval_cols(cols, n, Some(&keep))?;
                Some(rb.into_column(DataType::Bool, keep.len())?)
            };
            let mut data = Vec::with_capacity(m);
            let mut validity = ValidityBuilder::new();
            let mut j = 0usize;
            for (i, &l) in ld.iter().enumerate().take(m) {
                let lval = lv.get(i).then_some(l);
                let rval = if matches!(lval, Some(v) if decides(v)) {
                    None
                } else {
                    let c = r_col.as_ref().expect("kept rows imply a right column");
                    let (rd, rv) = c.as_bools().map_err(FlowError::Data)?;
                    let v = rv.get(j).then(|| rd[j]);
                    j += 1;
                    v
                };
                push_logic(op, lval, rval, &mut data, &mut validity);
            }
            return Ok(Batch::Owned(Column::Bool {
                data: data.into(),
                validity: validity.finish(),
            }));
        }
        let rb = right.eval_cols(cols, n, sel)?.force();
        let mut data = Vec::with_capacity(m);
        let mut validity = ValidityBuilder::new();
        match rb.as_scalar() {
            Some(r) => {
                let rval = match r {
                    Value::Bool(b) => Some(*b),
                    _ => None,
                };
                for (i, &l) in ld.iter().enumerate().take(m) {
                    push_logic(op, lv.get(i).then_some(l), rval, &mut data, &mut validity);
                }
            }
            None => {
                let r_col = rb.as_col().expect("column batch");
                let (rd, rv) = r_col.as_bools().map_err(FlowError::Data)?;
                for i in 0..m {
                    push_logic(
                        op,
                        lv.get(i).then(|| ld[i]),
                        rv.get(i).then(|| rd[i]),
                        &mut data,
                        &mut validity,
                    );
                }
            }
        }
        Ok(Batch::Owned(Column::Bool {
            data: data.into(),
            validity: validity.finish(),
        }))
    }

    /// COALESCE, evaluated lazily arg-by-arg over the shrinking selection
    /// of still-null rows — later arguments never see (and never fail on)
    /// rows an earlier argument already filled.
    fn eval_coalesce<'a>(
        &self,
        args: &[BoundExpr],
        cols: &'a [Column],
        n: usize,
        sel: Option<&[u32]>,
        m: usize,
    ) -> Result<Batch<'a>> {
        let mut out: Vec<Value> = vec![Value::Null; m];
        let mut pending_abs: Vec<u32> = match sel {
            Some(s) => s.to_vec(),
            None => (0..n as u32).collect(),
        };
        let mut pending_rel: Vec<u32> = (0..m as u32).collect();
        for arg in args {
            if pending_abs.is_empty() {
                break;
            }
            let b = arg.eval_cols(cols, n, Some(&pending_abs))?;
            let c = b.into_column(self.ty, pending_abs.len())?;
            let mut next_abs = Vec::new();
            let mut next_rel = Vec::new();
            for (j, &rel) in pending_rel.iter().enumerate() {
                let v = c.value(j).map_err(FlowError::Data)?;
                if v.is_null() {
                    next_abs.push(pending_abs[j]);
                    next_rel.push(rel);
                } else {
                    out[rel as usize] = v;
                }
            }
            pending_abs = next_abs;
            pending_rel = next_rel;
        }
        Column::from_values(self.ty, &out)
            .map(Batch::Owned)
            .map_err(FlowError::Data)
    }

    /// IF, evaluated by splitting the selection on the condition so each
    /// branch only ever sees its own rows (a failing cast in the untaken
    /// branch must not error — the row oracle never evaluates it there).
    #[allow(clippy::too_many_arguments)]
    fn eval_if<'a>(
        &self,
        cond: &BoundExpr,
        then: &BoundExpr,
        otherwise: &BoundExpr,
        cols: &'a [Column],
        n: usize,
        sel: Option<&[u32]>,
        m: usize,
    ) -> Result<Batch<'a>> {
        let cb = cond.eval_cols(cols, n, sel)?.force();
        if let Some(v) = cb.as_scalar() {
            // Constant condition: only the taken branch is evaluated at all.
            let taken = if matches!(v, Value::Bool(true)) {
                then
            } else {
                otherwise
            };
            // Coerce to the unified branch type up front so the batch type
            // invariant holds for consumers.
            return match taken.eval_cols(cols, n, sel)? {
                Batch::Scalar(v) => Ok(Batch::Scalar(v.coerce(self.ty).map_err(FlowError::Data)?)),
                b => b.into_column(self.ty, m).map(Batch::Owned),
            };
        }
        let c_col = cb.as_col().expect("column batch");
        let (cd, cv) = c_col.as_bools().map_err(FlowError::Data)?;
        let abs = |i: usize| sel.map_or(i as u32, |s| s[i]);
        let mut then_abs = Vec::new();
        let mut else_abs = Vec::new();
        for (i, &c) in cd.iter().enumerate().take(m) {
            if cv.get(i) && c {
                then_abs.push(abs(i));
            } else {
                else_abs.push(abs(i)); // false OR null takes the else branch
            }
        }
        let then_col = if then_abs.is_empty() {
            None
        } else {
            Some(
                then.eval_cols(cols, n, Some(&then_abs))?
                    .into_column(self.ty, then_abs.len())?,
            )
        };
        let else_col = if else_abs.is_empty() {
            None
        } else {
            Some(
                otherwise
                    .eval_cols(cols, n, Some(&else_abs))?
                    .into_column(self.ty, else_abs.len())?,
            )
        };
        let mut out = ColumnBuilder::with_capacity(self.ty, m);
        let (mut tj, mut ej) = (0usize, 0usize);
        for (i, &cond) in cd.iter().enumerate().take(m) {
            let (c, j) = if cv.get(i) && cond {
                let j = tj;
                tj += 1;
                (then_col.as_ref(), j)
            } else {
                let j = ej;
                ej += 1;
                (else_col.as_ref(), j)
            };
            let v = c
                .expect("selected rows imply a branch column")
                .value(j)
                .map_err(FlowError::Data)?;
            out.push(&v).map_err(FlowError::Data)?;
        }
        Ok(Batch::Owned(out.finish()))
    }
}

/// The engine's AND/OR truth table (simplified three-valued logic: a null
/// operand yields null unless the other operand decides the row).
fn push_logic(
    op: BinOp,
    l: Option<bool>,
    r: Option<bool>,
    data: &mut Vec<bool>,
    validity: &mut ValidityBuilder,
) {
    let out = match (op, l) {
        (BinOp::And, Some(false)) => Some(false),
        (BinOp::Or, Some(true)) => Some(true),
        (_, None) => None,
        (BinOp::And, Some(true)) | (BinOp::Or, Some(false)) => r,
        _ => unreachable!("logic kernel only handles And/Or"),
    };
    match out {
        Some(b) => {
            data.push(b);
            validity.push(true);
        }
        None => {
            data.push(false);
            validity.push(false);
        }
    }
}

// ---------------------------------------------------------------- kernels

fn cmp_by(op: BinOp, validity: Validity, m: usize, ord: impl Fn(usize) -> Ordering) -> Column {
    let d = op.comparison();
    let data = (0..m).map(|i| d(ord(i))).collect();
    Column::Bool { data, validity }
}

/// Comparison over two batches (at least one a column). Orderings mirror
/// `Value::total_cmp` exactly: ints compare as ints, any float operand
/// promotes both sides to `f64::total_cmp`.
fn cmp_dispatch(op: BinOp, lb: &Batch<'_>, rb: &Batch<'_>) -> Result<Column> {
    match (lb.as_col(), rb.as_col()) {
        (Some(l), Some(r)) => cmp_col_col(op, l, r),
        (Some(l), None) => cmp_col_scalar(op, l, rb.as_scalar().expect("scalar"), true),
        (None, Some(r)) => cmp_col_scalar(op, r, lb.as_scalar().expect("scalar"), false),
        (None, None) => Err(internal("comparison kernel needs a column operand")),
    }
}

fn cmp_col_col(op: BinOp, l: &Column, r: &Column) -> Result<Column> {
    let m = l.len();
    let v = l.validity().and(r.validity());
    use LaneRef::*;
    Ok(match (l.lane(), r.lane()) {
        (Int(a), Int(b)) => cmp_by(op, v, m, |i| a[i].cmp(&b[i])),
        (Int(a), Float(b)) => cmp_by(op, v, m, |i| (a[i] as f64).total_cmp(&b[i])),
        (Float(a), Int(b)) => cmp_by(op, v, m, |i| a[i].total_cmp(&(b[i] as f64))),
        (Float(a), Float(b)) => cmp_by(op, v, m, |i| a[i].total_cmp(&b[i])),
        (Str(a), Str(b)) => cmp_by(op, v, m, |i| a[i].cmp(&b[i])),
        (Bool(a), Bool(b)) => cmp_by(op, v, m, |i| a[i].cmp(&b[i])),
        (Timestamp(a), Timestamp(b)) => cmp_by(op, v, m, |i| a[i].cmp(&b[i])),
        _ => return Err(internal("comparison lanes disagree with bound types")),
    })
}

/// Compare a column against a non-null scalar. `col_on_left` orients the
/// ordering (`col OP scalar` vs `scalar OP col`).
fn cmp_col_scalar(op: BinOp, c: &Column, s: &Value, col_on_left: bool) -> Result<Column> {
    let m = c.len();
    let v = c.validity().clone();
    let orient = move |o: Ordering| if col_on_left { o } else { o.reverse() };
    use LaneRef::*;
    Ok(match (c.lane(), s) {
        (Int(data), Value::Int(s)) => {
            let s = *s;
            cmp_by(op, v, m, move |i| orient(data[i].cmp(&s)))
        }
        (Int(data), Value::Float(s)) => {
            let s = *s;
            cmp_by(op, v, m, move |i| orient((data[i] as f64).total_cmp(&s)))
        }
        (Float(data), Value::Int(s)) => {
            let s = *s as f64;
            cmp_by(op, v, m, move |i| orient(data[i].total_cmp(&s)))
        }
        (Float(data), Value::Float(s)) => {
            let s = *s;
            cmp_by(op, v, m, move |i| orient(data[i].total_cmp(&s)))
        }
        (Str(data), Value::Str(s)) => {
            cmp_by(op, v, m, move |i| orient(data.bytes(i).cmp(s.as_bytes())))
        }
        (Bool(data), Value::Bool(s)) => {
            let s = *s;
            cmp_by(op, v, m, move |i| orient(data[i].cmp(&s)))
        }
        (Timestamp(data), Value::Timestamp(s)) => {
            let s = *s;
            cmp_by(op, v, m, move |i| orient(data[i].cmp(&s)))
        }
        _ => return Err(internal("comparison lanes disagree with bound types")),
    })
}

/// The validity of `col` at the selected rows (the bitmap a gather of the
/// column would carry, built without gathering the data).
fn gather_validity(v: &Validity, sel: &[u32]) -> Validity {
    if v.null_count() == 0 {
        return Validity::all_valid(sel.len());
    }
    sel.iter().map(|&i| v.get(i as usize)).collect()
}

/// Compare a deferred gather against a non-null scalar in place: the lane
/// kernels read `data[sel[i]]` directly, so `Str` rows are compared without
/// ever cloning them. Orderings mirror [`cmp_col_scalar`] exactly.
fn cmp_gather_scalar(
    op: BinOp,
    c: &Column,
    sel: &[u32],
    s: &Value,
    col_on_left: bool,
) -> Result<Column> {
    let m = sel.len();
    let v = gather_validity(c.validity(), sel);
    let orient = move |o: Ordering| if col_on_left { o } else { o.reverse() };
    let at = |i: usize| sel[i] as usize;
    use LaneRef::*;
    Ok(match (c.lane(), s) {
        (Int(data), Value::Int(s)) => {
            let s = *s;
            cmp_by(op, v, m, move |i| orient(data[at(i)].cmp(&s)))
        }
        (Int(data), Value::Float(s)) => {
            let s = *s;
            cmp_by(op, v, m, move |i| {
                orient((data[at(i)] as f64).total_cmp(&s))
            })
        }
        (Float(data), Value::Int(s)) => {
            let s = *s as f64;
            cmp_by(op, v, m, move |i| orient(data[at(i)].total_cmp(&s)))
        }
        (Float(data), Value::Float(s)) => {
            let s = *s;
            cmp_by(op, v, m, move |i| orient(data[at(i)].total_cmp(&s)))
        }
        (Str(data), Value::Str(s)) => cmp_by(op, v, m, move |i| {
            orient(data.bytes(at(i)).cmp(s.as_bytes()))
        }),
        (Bool(data), Value::Bool(s)) => {
            let s = *s;
            cmp_by(op, v, m, move |i| orient(data[at(i)].cmp(&s)))
        }
        (Timestamp(data), Value::Timestamp(s)) => {
            let s = *s;
            cmp_by(op, v, m, move |i| orient(data[at(i)].cmp(&s)))
        }
        _ => return Err(internal("comparison lanes disagree with bound types")),
    })
}

/// Compare two deferred gathers (each under its own selection — in practice
/// both sides of one predicate share the morsel's selection) in place.
/// Orderings mirror [`cmp_col_col`] exactly.
fn cmp_gather_gather(op: BinOp, l: &Column, ls: &[u32], r: &Column, rs: &[u32]) -> Result<Column> {
    if ls.len() != rs.len() {
        return Err(internal("comparison operands disagree on batch length"));
    }
    let m = ls.len();
    let v = gather_validity(l.validity(), ls).and(&gather_validity(r.validity(), rs));
    let la = |i: usize| ls[i] as usize;
    let ra = |i: usize| rs[i] as usize;
    use LaneRef::*;
    Ok(match (l.lane(), r.lane()) {
        (Int(a), Int(b)) => cmp_by(op, v, m, move |i| a[la(i)].cmp(&b[ra(i)])),
        (Int(a), Float(b)) => cmp_by(op, v, m, move |i| (a[la(i)] as f64).total_cmp(&b[ra(i)])),
        (Float(a), Int(b)) => cmp_by(op, v, m, move |i| a[la(i)].total_cmp(&(b[ra(i)] as f64))),
        (Float(a), Float(b)) => cmp_by(op, v, m, move |i| a[la(i)].total_cmp(&b[ra(i)])),
        (Str(a), Str(b)) => cmp_by(op, v, m, move |i| a[la(i)].cmp(&b[ra(i)])),
        (Bool(a), Bool(b)) => cmp_by(op, v, m, move |i| a[la(i)].cmp(&b[ra(i)])),
        (Timestamp(a), Timestamp(b)) => cmp_by(op, v, m, move |i| a[la(i)].cmp(&b[ra(i)])),
        _ => return Err(internal("comparison lanes disagree with bound types")),
    })
}

/// One arithmetic operand, promoted to the float lane.
enum FloatSide<'a> {
    Col(Cow<'a, [f64]>, &'a Validity),
    Scalar(f64),
}

fn float_side<'a>(b: &'a Batch<'_>) -> Result<FloatSide<'a>> {
    match b {
        Batch::Scalar(v) => Ok(FloatSide::Scalar(v.as_float().map_err(FlowError::Data)?)),
        b => match b.as_col().expect("column batch") {
            Column::Float { data, validity } => Ok(FloatSide::Col(Cow::Borrowed(data), validity)),
            Column::Int { data, validity } => Ok(FloatSide::Col(
                Cow::Owned(data.iter().map(|&i| i as f64).collect()),
                validity,
            )),
            other => Err(internal(&format!(
                "arithmetic float lane got {} column",
                other.data_type()
            ))),
        },
    }
}

fn arith_dispatch(
    op: BinOp,
    out_ty: DataType,
    lb: &Batch<'_>,
    rb: &Batch<'_>,
    m: usize,
) -> Result<Column> {
    if out_ty == DataType::Int {
        return arith_int(op, lb, rb, m);
    }
    // Float lane: Div always lands here (Int/Int included), as do any
    // mixed or float operands, each promoted to f64.
    let l = float_side(lb)?;
    let r = float_side(rb)?;
    let get = |s: &FloatSide<'_>, i: usize| match s {
        FloatSide::Col(d, _) => d[i],
        FloatSide::Scalar(x) => *x,
    };
    let both_valid: Validity = match (&l, &r) {
        (FloatSide::Col(_, a), FloatSide::Col(_, b)) => a.and(b),
        (FloatSide::Col(_, a), FloatSide::Scalar(_)) => (*a).clone(),
        (FloatSide::Scalar(_), FloatSide::Col(_, b)) => (*b).clone(),
        (FloatSide::Scalar(_), FloatSide::Scalar(_)) => {
            return Err(internal("arithmetic kernel needs a column operand"))
        }
    };
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul => {
            let f: fn(f64, f64) -> f64 = match op {
                BinOp::Add => |a, b| a + b,
                BinOp::Sub => |a, b| a - b,
                BinOp::Mul => |a, b| a * b,
                _ => unreachable!(),
            };
            let data = (0..m).map(|i| f(get(&l, i), get(&r, i))).collect();
            Ok(Column::Float {
                data,
                validity: both_valid,
            })
        }
        BinOp::Div | BinOp::Mod => {
            // Data-dependent nulls: a zero divisor nulls the row.
            let mut data = Vec::with_capacity(m);
            let mut validity = ValidityBuilder::new();
            for i in 0..m {
                let b = get(&r, i);
                if !both_valid.get(i) || b == 0.0 {
                    data.push(0.0);
                    validity.push(false);
                } else {
                    let a = get(&l, i);
                    data.push(if op == BinOp::Div { a / b } else { a % b });
                    validity.push(true);
                }
            }
            Ok(Column::Float {
                data: data.into(),
                validity: validity.finish(),
            })
        }
        _ => Err(internal("arith kernel got a non-arithmetic op")),
    }
}

/// Int/Int lane for Add/Sub/Mul/Mod (wrapping, like the row oracle).
fn arith_int(op: BinOp, lb: &Batch<'_>, rb: &Batch<'_>, m: usize) -> Result<Column> {
    enum Side<'a> {
        Col(&'a [i64], &'a Validity),
        Scalar(i64),
    }
    fn side<'a>(b: &'a Batch<'_>) -> Result<Side<'a>> {
        match b {
            Batch::Scalar(v) => Ok(Side::Scalar(v.as_int().map_err(FlowError::Data)?)),
            b => {
                let (d, v) = b
                    .as_col()
                    .expect("column batch")
                    .as_ints()
                    .map_err(FlowError::Data)?;
                Ok(Side::Col(d, v))
            }
        }
    }
    let l = side(lb)?;
    let r = side(rb)?;
    let get = |s: &Side<'_>, i: usize| match s {
        Side::Col(d, _) => d[i],
        Side::Scalar(x) => *x,
    };
    let both_valid: Validity = match (&l, &r) {
        (Side::Col(_, a), Side::Col(_, b)) => a.and(b),
        (Side::Col(_, a), Side::Scalar(_)) => (*a).clone(),
        (Side::Scalar(_), Side::Col(_, b)) => (*b).clone(),
        (Side::Scalar(_), Side::Scalar(_)) => {
            return Err(internal("arithmetic kernel needs a column operand"))
        }
    };
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul => {
            let f: fn(i64, i64) -> i64 = match op {
                BinOp::Add => i64::wrapping_add,
                BinOp::Sub => i64::wrapping_sub,
                BinOp::Mul => i64::wrapping_mul,
                _ => unreachable!(),
            };
            let data = (0..m).map(|i| f(get(&l, i), get(&r, i))).collect();
            Ok(Column::Int {
                data,
                validity: both_valid,
            })
        }
        BinOp::Mod => {
            let mut data = Vec::with_capacity(m);
            let mut validity = ValidityBuilder::new();
            for i in 0..m {
                let b = get(&r, i);
                if !both_valid.get(i) || b == 0 {
                    data.push(0);
                    validity.push(false);
                } else {
                    data.push(get(&l, i).wrapping_rem(b));
                    validity.push(true);
                }
            }
            Ok(Column::Int {
                data: data.into(),
                validity: validity.finish(),
            })
        }
        _ => Err(internal("int lane got a non-int op")),
    }
}

fn eval_unary_batch(op: UnOp, b: Batch<'_>) -> Result<Batch<'_>> {
    // Null tests on a deferred gather stream the validity bitmap at the
    // selected rows — no reason to materialize the data just to drop it.
    if let Batch::Gather(c, sel) = &b {
        if matches!(op, UnOp::IsNull | UnOp::IsNotNull) {
            let v = c.validity();
            let want_valid = op == UnOp::IsNotNull;
            return Ok(Batch::Owned(Column::Bool {
                data: sel
                    .iter()
                    .map(|&i| v.get(i as usize) == want_valid)
                    .collect(),
                validity: Validity::all_valid(sel.len()),
            }));
        }
    }
    let b = b.force();
    let c = b.as_col().expect("column batch");
    let m = c.len();
    Ok(Batch::Owned(match op {
        UnOp::IsNull => {
            let validity = c.validity();
            Column::Bool {
                data: (0..m).map(|i| !validity.get(i)).collect(),
                validity: Validity::all_valid(m),
            }
        }
        UnOp::IsNotNull => {
            let validity = c.validity();
            Column::Bool {
                data: (0..m).map(|i| validity.get(i)).collect(),
                validity: Validity::all_valid(m),
            }
        }
        UnOp::Not => {
            let (d, v) = c.as_bools().map_err(FlowError::Data)?;
            Column::Bool {
                data: d.iter().map(|b| !b).collect(),
                validity: v.clone(),
            }
        }
        UnOp::Neg => match c {
            Column::Int { data, validity } => Column::Int {
                data: data.iter().map(|i| i.wrapping_neg()).collect(),
                validity: validity.clone(),
            },
            Column::Float { data, validity } => Column::Float {
                data: data.iter().map(|x| -x).collect(),
                validity: validity.clone(),
            },
            _ => return Err(internal("negation on a non-numeric column")),
        },
    }))
}

fn func_kernel(func: Func, c: &Column) -> Result<Column> {
    let m = c.len();
    Ok(match func {
        Func::Abs => match c {
            Column::Int { data, validity } => Column::Int {
                data: data.iter().map(|i| i.wrapping_abs()).collect(),
                validity: validity.clone(),
            },
            Column::Float { data, validity } => Column::Float {
                data: data.iter().map(|x| x.abs()).collect(),
                validity: validity.clone(),
            },
            _ => return Err(internal("Abs on a non-numeric column")),
        },
        Func::Floor | Func::Ceil => match c {
            Column::Int { .. } => c.clone(),
            Column::Float { data, validity } => Column::Float {
                data: data
                    .iter()
                    .map(|x| {
                        if func == Func::Floor {
                            x.floor()
                        } else {
                            x.ceil()
                        }
                    })
                    .collect(),
                validity: validity.clone(),
            },
            _ => return Err(internal("Floor/Ceil on a non-numeric column")),
        },
        Func::Sqrt => {
            let (data, validity): (Buffer<f64>, &Validity) = match c {
                Column::Float { data, validity } => {
                    (data.iter().map(|x| x.sqrt()).collect(), validity)
                }
                Column::Int { data, validity } => {
                    (data.iter().map(|&i| (i as f64).sqrt()).collect(), validity)
                }
                _ => return Err(internal("Sqrt on a non-numeric column")),
            };
            Column::Float {
                data,
                validity: validity.clone(),
            }
        }
        Func::Ln => {
            // Ln of a non-positive value is null (data-dependent validity);
            // NaN is not non-positive, so it stays a NaN, as in the row
            // interpreter.
            let get: Box<dyn Fn(usize) -> f64> = match c.lane() {
                LaneRef::Float(data) => Box::new(move |i| data[i]),
                LaneRef::Int(data) => Box::new(move |i| data[i] as f64),
                _ => return Err(internal("Ln on a non-numeric column")),
            };
            let src_valid = c.validity();
            let mut data = Vec::with_capacity(m);
            let mut validity = ValidityBuilder::new();
            for i in 0..m {
                let x = get(i);
                if src_valid.get(i) && (x > 0.0 || x.is_nan()) {
                    data.push(x.ln());
                    validity.push(true);
                } else {
                    data.push(0.0);
                    validity.push(false);
                }
            }
            Column::Float {
                data: data.into(),
                validity: validity.finish(),
            }
        }
        Func::Lower | Func::Upper => {
            let (d, v) = c.as_strs().map_err(FlowError::Data)?;
            Column::Str {
                data: d
                    .iter()
                    .map(|s| {
                        if func == Func::Lower {
                            s.to_lowercase()
                        } else {
                            s.to_uppercase()
                        }
                    })
                    .collect(),
                validity: v.clone(),
            }
        }
        Func::Length => {
            let (d, v) = c.as_strs().map_err(FlowError::Data)?;
            Column::Int {
                data: d.iter().map(|s| s.len() as i64).collect(),
                validity: v.clone(),
            }
        }
        Func::HourOfDay => {
            let (d, v) = c.as_timestamps().map_err(FlowError::Data)?;
            Column::Int {
                data: d.iter().map(|t| (t / 3_600_000).rem_euclid(24)).collect(),
                validity: v.clone(),
            }
        }
        Func::DayIndex => {
            let (d, v) = c.as_timestamps().map_err(FlowError::Data)?;
            Column::Int {
                data: d.iter().map(|t| t / 86_400_000).collect(),
                validity: v.clone(),
            }
        }
    })
}

/// Cast a column element by element: errors surface on the first offending
/// **valid** row (null rows always pass through as null).
fn cast_kernel(c: &Column, to: DataType) -> Result<Column> {
    let m = c.len();
    let cast_err = |v: Value| bad(format!("cannot cast {v:?} to {to}"));
    // A combination no value of the source type converts under errors on
    // the first valid row; an all-null column casts to all nulls.
    let reject = |c: &Column| -> Result<Column> {
        let validity = c.validity();
        for i in 0..m {
            if validity.get(i) {
                return Err(cast_err(c.value(i).map_err(FlowError::Data)?));
            }
        }
        Ok(all_null(to, m))
    };
    Ok(match to {
        DataType::Str => {
            let validity = c.validity().clone();
            let data: StrLane = match c {
                Column::Str { data, .. } => data.clone(),
                Column::Bool { data, validity } => (0..m)
                    .map(|i| {
                        if validity.get(i) {
                            data[i].to_string()
                        } else {
                            String::new()
                        }
                    })
                    .collect(),
                Column::Int { data, validity } | Column::Timestamp { data, validity } => (0..m)
                    .map(|i| {
                        if validity.get(i) {
                            data[i].to_string()
                        } else {
                            String::new()
                        }
                    })
                    .collect(),
                Column::Float { data, validity } => (0..m)
                    .map(|i| {
                        if validity.get(i) {
                            format!("{}", data[i])
                        } else {
                            String::new()
                        }
                    })
                    .collect(),
            };
            Column::Str { data, validity }
        }
        DataType::Int => match c {
            Column::Int { .. } => c.clone(),
            Column::Timestamp { data, validity } => Column::Int {
                data: data.clone(),
                validity: validity.clone(),
            },
            Column::Float { data, validity } => Column::Int {
                data: data.iter().map(|&x| x as i64).collect(),
                validity: validity.clone(),
            },
            Column::Bool { data, validity } => Column::Int {
                data: data.iter().map(|&b| b as i64).collect(),
                validity: validity.clone(),
            },
            Column::Str { data, validity } => {
                let mut out = Vec::with_capacity(m);
                for (i, s) in data.iter().enumerate().take(m) {
                    if validity.get(i) {
                        out.push(
                            s.trim()
                                .parse::<i64>()
                                .map_err(|_| cast_err(Value::Str(s.to_owned())))?,
                        );
                    } else {
                        out.push(0);
                    }
                }
                Column::Int {
                    data: out.into(),
                    validity: validity.clone(),
                }
            }
        },
        DataType::Float => match c {
            Column::Float { .. } => c.clone(),
            Column::Int { data, validity } => Column::Float {
                data: data.iter().map(|&i| i as f64).collect(),
                validity: validity.clone(),
            },
            Column::Str { data, validity } => {
                let mut out = Vec::with_capacity(m);
                for (i, s) in data.iter().enumerate().take(m) {
                    if validity.get(i) {
                        out.push(
                            s.trim()
                                .parse::<f64>()
                                .map_err(|_| cast_err(Value::Str(s.to_owned())))?,
                        );
                    } else {
                        out.push(0.0);
                    }
                }
                Column::Float {
                    data: out.into(),
                    validity: validity.clone(),
                }
            }
            other => return reject(other),
        },
        DataType::Bool => match c {
            Column::Bool { .. } => c.clone(),
            Column::Int { data, validity } => Column::Bool {
                data: data.iter().map(|&i| i != 0).collect(),
                validity: validity.clone(),
            },
            other => return reject(other),
        },
        DataType::Timestamp => match c {
            Column::Timestamp { .. } => c.clone(),
            Column::Int { data, validity } => Column::Timestamp {
                data: data.clone(),
                validity: validity.clone(),
            },
            other => return reject(other),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::lit;

    #[test]
    fn scalar_constant_subtrees_stay_scalar() {
        let eval = |e: Expr| {
            let bound = BoundExpr::bind(&e, &Schema::empty()).unwrap();
            bound.eval_cols(&[], 1, None).unwrap()
        };
        let b = eval(lit(2i64).add(lit(3i64)));
        assert!(matches!(b, Batch::Scalar(Value::Int(5))));
        // Short-circuit on a deciding constant left operand skips the
        // fallible right side entirely.
        let b = eval(lit(false).and(lit("xyz").cast(DataType::Int).gt(lit(0i64))));
        assert!(matches!(b, Batch::Scalar(Value::Bool(false))));
    }
}

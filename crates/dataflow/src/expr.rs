//! Scalar expression AST, type checking, and evaluation.
//!
//! Expressions appear in `Filter`, `Project` and derived-column plan nodes.
//! They are type-checked against the input schema at plan time (so the
//! engine rejects bad pipelines before running them — the BDAaaS premise).
//! The type checker is [`BoundExpr::bind`]; [`Expr::infer_type`] asks it.
//! The engine, constant folding included, executes expressions through
//! [`crate::vexpr`]'s bound batch kernels; the row-at-a-time evaluation
//! here ([`Expr::eval_table`], [`Expr::eval_mask`]) has no production
//! caller and is the reference those kernels are tested against.

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

use toreador_data::column::{Column, ColumnBuilder};
use toreador_data::schema::Schema;
use toreador_data::table::Table;
use toreador_data::value::{DataType, Row, Value};

use crate::error::{FlowError, Result};
use crate::vexpr::BoundExpr;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl BinOp {
    pub(crate) fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::NotEq => "!=",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }

    pub(crate) fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        )
    }

    /// The truth table of a comparison, as a test on `total_cmp`'s ordering.
    pub(crate) fn comparison(self) -> fn(Ordering) -> bool {
        match self {
            BinOp::Eq => |o| o == Ordering::Equal,
            BinOp::NotEq => |o| o != Ordering::Equal,
            BinOp::Lt => |o| o == Ordering::Less,
            BinOp::LtEq => |o| o != Ordering::Greater,
            BinOp::Gt => |o| o == Ordering::Greater,
            BinOp::GtEq => |o| o != Ordering::Less,
            _ => unreachable!("{} is not a comparison", self.symbol()),
        }
    }

    pub(crate) fn is_arithmetic(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnOp {
    Not,
    Neg,
    IsNull,
    IsNotNull,
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Func {
    Abs,
    Floor,
    Ceil,
    Sqrt,
    Ln,
    Lower,
    Upper,
    /// String length in bytes.
    Length,
    /// Hour-of-day (0..24) from a Timestamp in ms.
    HourOfDay,
    /// Day index since the epoch from a Timestamp in ms.
    DayIndex,
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Reference to an input column by name.
    Column(String),
    /// A constant.
    Literal(Value),
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Unary {
        op: UnOp,
        operand: Box<Expr>,
    },
    Call {
        func: Func,
        args: Vec<Expr>,
    },
    /// First non-null argument.
    Coalesce(Vec<Expr>),
    /// `CASE WHEN cond THEN a ELSE b END`.
    If {
        cond: Box<Expr>,
        then: Box<Expr>,
        otherwise: Box<Expr>,
    },
    /// Explicit cast.
    Cast {
        expr: Box<Expr>,
        to: DataType,
    },
}

/// Shorthand constructors, modelled on DataFusion's `Expr` helpers.
/// (`add`/`sub`/`mul`/`div`/`neg`/`not` deliberately mirror the operator
/// names without implementing the std traits — they build AST nodes, not
/// values, and the DSL reads better this way.)
pub fn col(name: impl Into<String>) -> Expr {
    Expr::Column(name.into())
}

pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Literal(v.into())
}

#[allow(clippy::should_implement_trait)]
impl Expr {
    pub fn eq(self, other: Expr) -> Expr {
        self.binary(BinOp::Eq, other)
    }
    pub fn not_eq(self, other: Expr) -> Expr {
        self.binary(BinOp::NotEq, other)
    }
    pub fn lt(self, other: Expr) -> Expr {
        self.binary(BinOp::Lt, other)
    }
    pub fn lt_eq(self, other: Expr) -> Expr {
        self.binary(BinOp::LtEq, other)
    }
    pub fn gt(self, other: Expr) -> Expr {
        self.binary(BinOp::Gt, other)
    }
    pub fn gt_eq(self, other: Expr) -> Expr {
        self.binary(BinOp::GtEq, other)
    }
    pub fn and(self, other: Expr) -> Expr {
        self.binary(BinOp::And, other)
    }
    pub fn or(self, other: Expr) -> Expr {
        self.binary(BinOp::Or, other)
    }
    pub fn add(self, other: Expr) -> Expr {
        self.binary(BinOp::Add, other)
    }
    pub fn sub(self, other: Expr) -> Expr {
        self.binary(BinOp::Sub, other)
    }
    pub fn mul(self, other: Expr) -> Expr {
        self.binary(BinOp::Mul, other)
    }
    pub fn div(self, other: Expr) -> Expr {
        self.binary(BinOp::Div, other)
    }
    pub fn modulo(self, other: Expr) -> Expr {
        self.binary(BinOp::Mod, other)
    }
    pub fn neg(self) -> Expr {
        Expr::Unary {
            op: UnOp::Neg,
            operand: Box::new(self),
        }
    }
    pub fn not(self) -> Expr {
        Expr::Unary {
            op: UnOp::Not,
            operand: Box::new(self),
        }
    }
    pub fn is_null(self) -> Expr {
        Expr::Unary {
            op: UnOp::IsNull,
            operand: Box::new(self),
        }
    }
    pub fn is_not_null(self) -> Expr {
        Expr::Unary {
            op: UnOp::IsNotNull,
            operand: Box::new(self),
        }
    }
    pub fn cast(self, to: DataType) -> Expr {
        Expr::Cast {
            expr: Box::new(self),
            to,
        }
    }
    pub fn call(func: Func, args: Vec<Expr>) -> Expr {
        Expr::Call { func, args }
    }
    pub fn coalesce(args: Vec<Expr>) -> Expr {
        Expr::Coalesce(args)
    }
    pub fn if_then(cond: Expr, then: Expr, otherwise: Expr) -> Expr {
        Expr::If {
            cond: Box::new(cond),
            then: Box::new(then),
            otherwise: Box::new(otherwise),
        }
    }

    fn binary(self, op: BinOp, other: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// Names of all columns referenced by this expression.
    pub fn referenced_columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.visit_columns(&mut |name| out.push(name));
        out.sort_unstable();
        out.dedup();
        out
    }

    fn visit_columns<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        match self {
            Expr::Column(name) => f(name),
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.visit_columns(f);
                right.visit_columns(f);
            }
            Expr::Unary { operand, .. } => operand.visit_columns(f),
            Expr::Call { args, .. } | Expr::Coalesce(args) => {
                for a in args {
                    a.visit_columns(f);
                }
            }
            Expr::If {
                cond,
                then,
                otherwise,
            } => {
                cond.visit_columns(f);
                then.visit_columns(f);
                otherwise.visit_columns(f);
            }
            Expr::Cast { expr, .. } => expr.visit_columns(f),
        }
    }

    /// The output type against `schema`, or a readable type error: what
    /// [`BoundExpr::bind`], the one place the typing rules live, infers.
    pub fn infer_type(&self, schema: &Schema) -> Result<DataType> {
        BoundExpr::bind(self, schema).map(|b| b.output_type())
    }

    /// Evaluate against one row of `schema`. Null propagates through
    /// arithmetic, comparisons and functions (SQL three-valued logic for
    /// AND/OR is simplified: null operands yield null).
    pub fn eval(&self, schema: &Schema, row: &Row) -> Result<Value> {
        match self {
            Expr::Column(name) => {
                let idx = schema
                    .index_of(name)
                    .map_err(|_| FlowError::TypeCheck(format!("unknown column {name:?}")))?;
                Ok(row[idx].clone())
            }
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Binary { op, left, right } => {
                let l = left.eval(schema, row)?;
                // Short-circuit AND/OR on a known left side.
                if *op == BinOp::And {
                    if let Value::Bool(false) = l {
                        return Ok(Value::Bool(false));
                    }
                } else if *op == BinOp::Or {
                    if let Value::Bool(true) = l {
                        return Ok(Value::Bool(true));
                    }
                }
                let r = right.eval(schema, row)?;
                eval_binary(*op, &l, &r)
            }
            Expr::Unary { op, operand } => eval_unary(*op, operand.eval(schema, row)?),
            Expr::Call { func, args } => eval_func(*func, &args[0].eval(schema, row)?),
            // A conditional's value has the node's unified type: the Int
            // branch of an Int/Float mix widens before anything above sees it.
            Expr::Coalesce(args) => {
                let ty = self.infer_type(schema)?;
                for a in args {
                    let v = a.eval(schema, row)?;
                    if !v.is_null() {
                        return v.coerce(ty).map_err(FlowError::Data);
                    }
                }
                Ok(Value::Null)
            }
            Expr::If {
                cond,
                then,
                otherwise,
            } => {
                let taken = match cond.eval(schema, row)? {
                    Value::Bool(true) => then,
                    Value::Bool(false) | Value::Null => otherwise,
                    other => return Err(runtime_type("Bool", &other)),
                };
                let ty = self.infer_type(schema)?;
                taken.eval(schema, row)?.coerce(ty).map_err(FlowError::Data)
            }
            Expr::Cast { expr, to } => {
                let v = expr.eval(schema, row)?;
                cast_value(&v, *to)
            }
        }
    }

    /// Evaluate over a whole table, producing a column of the inferred type.
    pub fn eval_table(&self, table: &Table) -> Result<Column> {
        let ty = self.infer_type(table.schema())?;
        let mut out = ColumnBuilder::with_capacity(ty, table.num_rows());
        for row in table.iter_rows() {
            let v = self.eval(table.schema(), &row)?;
            let v = v.coerce(ty).map_err(FlowError::Data)?;
            out.push(&v)?;
        }
        Ok(out.finish())
    }

    /// Evaluate a boolean predicate over a table into a selection mask.
    /// Null results count as `false` (SQL WHERE semantics).
    pub fn eval_mask(&self, table: &Table) -> Result<Vec<bool>> {
        let ty = self.infer_type(table.schema())?;
        if ty != DataType::Bool {
            return Err(FlowError::TypeCheck(format!(
                "predicate must be Bool, got {ty}"
            )));
        }
        let mut mask = Vec::with_capacity(table.num_rows());
        for row in table.iter_rows() {
            mask.push(matches!(
                self.eval(table.schema(), &row)?,
                Value::Bool(true)
            ));
        }
        Ok(mask)
    }
}

fn runtime_type(expected: &str, found: &Value) -> FlowError {
    FlowError::TypeCheck(format!(
        "runtime type error: expected {expected}, found {:?}",
        found.data_type().map(|t| t.name()).unwrap_or("Null")
    ))
}

pub(crate) fn eval_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use BinOp::*;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if op.is_comparison() {
        return Ok(Value::Bool(op.comparison()(l.total_cmp(r))));
    }
    match op {
        And => Ok(Value::Bool(
            l.as_bool().map_err(FlowError::Data)? && r.as_bool().map_err(FlowError::Data)?,
        )),
        Or => Ok(Value::Bool(
            l.as_bool().map_err(FlowError::Data)? || r.as_bool().map_err(FlowError::Data)?,
        )),
        Add | Sub | Mul | Mod => match (l, r) {
            (Value::Int(a), Value::Int(b)) => {
                let v = match op {
                    Add => a.wrapping_add(*b),
                    Sub => a.wrapping_sub(*b),
                    Mul => a.wrapping_mul(*b),
                    Mod => {
                        if *b == 0 {
                            return Ok(Value::Null);
                        }
                        a.wrapping_rem(*b)
                    }
                    _ => unreachable!(),
                };
                Ok(Value::Int(v))
            }
            _ => {
                let a = l.as_float().map_err(FlowError::Data)?;
                let b = r.as_float().map_err(FlowError::Data)?;
                let v = match op {
                    Add => a + b,
                    Sub => a - b,
                    Mul => a * b,
                    Mod => {
                        if b == 0.0 {
                            return Ok(Value::Null);
                        }
                        a % b
                    }
                    _ => unreachable!(),
                };
                Ok(Value::Float(v))
            }
        },
        Div => {
            let a = l.as_float().map_err(FlowError::Data)?;
            let b = r.as_float().map_err(FlowError::Data)?;
            if b == 0.0 {
                Ok(Value::Null) // SQL-style: division by zero yields null
            } else {
                Ok(Value::Float(a / b))
            }
        }
        _ => unreachable!(),
    }
}

pub(crate) fn eval_unary(op: UnOp, v: Value) -> Result<Value> {
    match op {
        UnOp::IsNull => Ok(Value::Bool(v.is_null())),
        UnOp::IsNotNull => Ok(Value::Bool(!v.is_null())),
        UnOp::Not => match v {
            Value::Null => Ok(Value::Null),
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => Err(runtime_type("Bool", &other)),
        },
        UnOp::Neg => match v {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
            Value::Float(x) => Ok(Value::Float(-x)),
            other => Err(runtime_type("numeric", &other)),
        },
    }
}

/// A scalar function of one argument; NULL in, NULL out.
pub(crate) fn eval_func(func: Func, v: &Value) -> Result<Value> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    Ok(match func {
        Func::Abs => match v {
            Value::Int(i) => Value::Int(i.wrapping_abs()),
            other => Value::Float(other.as_float().map_err(FlowError::Data)?.abs()),
        },
        Func::Floor => match v {
            Value::Int(i) => Value::Int(*i),
            other => Value::Float(other.as_float().map_err(FlowError::Data)?.floor()),
        },
        Func::Ceil => match v {
            Value::Int(i) => Value::Int(*i),
            other => Value::Float(other.as_float().map_err(FlowError::Data)?.ceil()),
        },
        Func::Sqrt => Value::Float(v.as_float().map_err(FlowError::Data)?.sqrt()),
        Func::Ln => {
            let x = v.as_float().map_err(FlowError::Data)?;
            if x <= 0.0 {
                Value::Null
            } else {
                Value::Float(x.ln())
            }
        }
        Func::Lower => Value::Str(v.as_str().map_err(FlowError::Data)?.to_lowercase()),
        Func::Upper => Value::Str(v.as_str().map_err(FlowError::Data)?.to_uppercase()),
        Func::Length => Value::Int(v.as_str().map_err(FlowError::Data)?.len() as i64),
        Func::HourOfDay => {
            Value::Int((v.as_timestamp().map_err(FlowError::Data)? / 3_600_000).rem_euclid(24))
        }
        Func::DayIndex => Value::Int(v.as_timestamp().map_err(FlowError::Data)? / 86_400_000),
    })
}

pub(crate) fn cast_value(v: &Value, to: DataType) -> Result<Value> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    let err = || FlowError::TypeCheck(format!("cannot cast {v:?} to {to}"));
    Ok(match to {
        DataType::Str => Value::Str(v.to_string()),
        DataType::Int => match v {
            Value::Int(i) => Value::Int(*i),
            Value::Float(x) => Value::Int(*x as i64),
            Value::Bool(b) => Value::Int(*b as i64),
            Value::Timestamp(t) => Value::Int(*t),
            Value::Str(s) => Value::Int(s.trim().parse().map_err(|_| err())?),
            Value::Null => unreachable!(),
        },
        DataType::Float => match v {
            Value::Float(x) => Value::Float(*x),
            Value::Int(i) => Value::Float(*i as f64),
            Value::Str(s) => Value::Float(s.trim().parse().map_err(|_| err())?),
            _ => return Err(err()),
        },
        DataType::Bool => match v {
            Value::Bool(b) => Value::Bool(*b),
            Value::Int(i) => Value::Bool(*i != 0),
            _ => return Err(err()),
        },
        DataType::Timestamp => match v {
            Value::Timestamp(t) => Value::Timestamp(*t),
            Value::Int(i) => Value::Timestamp(*i),
            _ => return Err(err()),
        },
    })
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(name) => write!(f, "{name}"),
            Expr::Literal(Value::Str(s)) => write!(f, "{s:?}"),
            Expr::Literal(v) if v.is_null() => write!(f, "NULL"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Binary { op, left, right } => write!(f, "({left} {} {right})", op.symbol()),
            Expr::Unary { op, operand } => match op {
                UnOp::Not => write!(f, "NOT {operand}"),
                UnOp::Neg => write!(f, "-{operand}"),
                UnOp::IsNull => write!(f, "{operand} IS NULL"),
                UnOp::IsNotNull => write!(f, "{operand} IS NOT NULL"),
            },
            Expr::Call { func, args } => write!(f, "{func:?}({})", args[0].clone()),
            Expr::Coalesce(args) => {
                write!(f, "COALESCE(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::If {
                cond,
                then,
                otherwise,
            } => {
                write!(f, "IF {cond} THEN {then} ELSE {otherwise}")
            }
            Expr::Cast { expr, to } => write!(f, "CAST({expr} AS {to})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toreador_data::schema::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("x", DataType::Float),
            Field::new("s", DataType::Str),
            Field::new("b", DataType::Bool),
            Field::new("t", DataType::Timestamp),
        ])
        .unwrap()
    }

    fn row() -> Row {
        vec![
            Value::Int(4),
            Value::Float(2.5),
            Value::Str("Hello".into()),
            Value::Bool(true),
            Value::Timestamp(90_000_000), // 25h -> hour 1, day 1
        ]
    }

    #[test]
    fn type_inference_basics() {
        let s = schema();
        assert_eq!(col("i").infer_type(&s).unwrap(), DataType::Int);
        assert_eq!(
            col("i").add(col("x")).infer_type(&s).unwrap(),
            DataType::Float
        );
        assert_eq!(
            col("i").div(lit(2i64)).infer_type(&s).unwrap(),
            DataType::Float
        );
        assert_eq!(
            col("i").lt(col("x")).infer_type(&s).unwrap(),
            DataType::Bool
        );
        assert_eq!(col("s").is_null().infer_type(&s).unwrap(), DataType::Bool);
        assert!(col("s").add(lit(1i64)).infer_type(&s).is_err());
        assert!(col("missing").infer_type(&s).is_err());
        assert!(col("b").and(col("i").gt(lit(0i64))).infer_type(&s).is_ok());
        assert!(col("i").and(col("b")).infer_type(&s).is_err());
    }

    #[test]
    fn arithmetic_evaluation() {
        let s = schema();
        let r = row();
        assert_eq!(col("i").add(lit(1i64)).eval(&s, &r).unwrap(), Value::Int(5));
        assert_eq!(
            col("i").mul(col("x")).eval(&s, &r).unwrap(),
            Value::Float(10.0)
        );
        assert_eq!(col("i").div(lit(0i64)).eval(&s, &r).unwrap(), Value::Null);
        assert_eq!(
            col("i").modulo(lit(3i64)).eval(&s, &r).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            col("i").modulo(lit(0i64)).eval(&s, &r).unwrap(),
            Value::Null
        );
        assert_eq!(col("i").neg().eval(&s, &r).unwrap(), Value::Int(-4));
    }

    #[test]
    fn comparisons_and_logic() {
        let s = schema();
        let r = row();
        assert_eq!(
            col("i").gt(lit(3i64)).eval(&s, &r).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            col("i").eq(lit(4.0)).eval(&s, &r).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            col("b").and(col("i").lt(lit(0i64))).eval(&s, &r).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            col("b").or(lit(false)).eval(&s, &r).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(col("b").not().eval(&s, &r).unwrap(), Value::Bool(false));
    }

    #[test]
    fn short_circuit_skips_right_errors() {
        let s = schema();
        let r = row();
        // Right side would fail at runtime (unknown column) but is never reached.
        let e = lit(false).and(col("nope"));
        assert_eq!(e.eval(&s, &r).unwrap(), Value::Bool(false));
        let e = lit(true).or(col("nope"));
        assert_eq!(e.eval(&s, &r).unwrap(), Value::Bool(true));
    }

    #[test]
    fn null_propagation() {
        let s = schema();
        let mut r = row();
        r[0] = Value::Null;
        assert_eq!(col("i").add(lit(1i64)).eval(&s, &r).unwrap(), Value::Null);
        assert_eq!(col("i").gt(lit(0i64)).eval(&s, &r).unwrap(), Value::Null);
        assert_eq!(col("i").is_null().eval(&s, &r).unwrap(), Value::Bool(true));
        assert_eq!(
            Expr::coalesce(vec![col("i"), lit(9i64)])
                .eval(&s, &r)
                .unwrap(),
            Value::Int(9)
        );
    }

    #[test]
    fn functions_evaluate() {
        let s = schema();
        let r = row();
        assert_eq!(
            Expr::call(Func::Upper, vec![col("s")])
                .eval(&s, &r)
                .unwrap(),
            Value::Str("HELLO".into())
        );
        assert_eq!(
            Expr::call(Func::Length, vec![col("s")])
                .eval(&s, &r)
                .unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            Expr::call(Func::HourOfDay, vec![col("t")])
                .eval(&s, &r)
                .unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            Expr::call(Func::DayIndex, vec![col("t")])
                .eval(&s, &r)
                .unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            Expr::call(Func::Sqrt, vec![lit(9.0)]).eval(&s, &r).unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(
            Expr::call(Func::Ln, vec![lit(0.0)]).eval(&s, &r).unwrap(),
            Value::Null
        );
        assert_eq!(
            Expr::call(Func::Abs, vec![lit(-3i64)])
                .eval(&s, &r)
                .unwrap(),
            Value::Int(3)
        );
    }

    #[test]
    fn if_then_else() {
        let s = schema();
        let r = row();
        let e = Expr::if_then(col("i").gt(lit(2i64)), lit("big"), lit("small"));
        assert_eq!(e.eval(&s, &r).unwrap(), Value::Str("big".into()));
        assert_eq!(e.infer_type(&s).unwrap(), DataType::Str);
        // The taken Int branch of an Int/Float mix comes back as a Float.
        let e = Expr::if_then(col("b"), col("i"), col("x"));
        assert_eq!(format!("{:?}", e.eval(&s, &r).unwrap()), "Float(4.0)");
        // Null condition takes the else branch.
        let mut r2 = row();
        r2[3] = Value::Null;
        let e = Expr::if_then(col("b"), lit(1i64), lit(0i64));
        assert_eq!(e.eval(&s, &r2).unwrap(), Value::Int(0));
    }

    #[test]
    fn casts() {
        let s = schema();
        let r = row();
        assert_eq!(
            col("x").cast(DataType::Int).eval(&s, &r).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            col("i").cast(DataType::Str).eval(&s, &r).unwrap(),
            Value::Str("4".into())
        );
        assert_eq!(
            lit("42").cast(DataType::Int).eval(&s, &r).unwrap(),
            Value::Int(42)
        );
        assert!(lit("xyz").cast(DataType::Int).eval(&s, &r).is_err());
        assert_eq!(
            col("t").cast(DataType::Int).eval(&s, &r).unwrap(),
            Value::Int(90_000_000)
        );
    }

    #[test]
    fn eval_table_and_mask() {
        let t = Table::from_rows(
            Schema::new(vec![Field::new("v", DataType::Int)]).unwrap(),
            (0..10).map(|i| vec![Value::Int(i)]),
        )
        .unwrap();
        let doubled = col("v").mul(lit(2i64)).eval_table(&t).unwrap();
        assert_eq!(doubled.value(3).unwrap(), Value::Int(6));
        let mask = col("v").gt_eq(lit(5i64)).eval_mask(&t).unwrap();
        assert_eq!(mask.iter().filter(|&&b| b).count(), 5);
        assert!(
            col("v").eval_mask(&t).is_err(),
            "non-bool predicate rejected"
        );
    }

    #[test]
    fn referenced_columns_deduped() {
        let e = col("a").add(col("b")).mul(col("a"));
        assert_eq!(e.referenced_columns(), vec!["a", "b"]);
    }

    #[test]
    fn display_renders_sql_like() {
        let e = col("price").gt(lit(10.0)).and(col("country").eq(lit("IT")));
        assert_eq!(e.to_string(), "((price > 10) AND (country = \"IT\"))");
    }

    #[test]
    fn serde_round_trip() {
        let e = Expr::if_then(col("a").is_null(), lit(0i64), col("a"));
        let j = serde_json::to_string(&e).unwrap();
        let back: Expr = serde_json::from_str(&j).unwrap();
        assert_eq!(e, back);
    }
}

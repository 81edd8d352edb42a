//! Scalar expression AST and type checking.
//!
//! Expressions appear in `Filter`, `Project` and derived-column plan nodes.
//! They are type-checked against the input schema at plan time (so the
//! engine rejects bad pipelines before running them — the BDAaaS premise).
//! The type checker is [`BoundExpr::bind`]; [`Expr::infer_type`] asks it.
//! Evaluation has one implementation: [`crate::vexpr`]'s bound column
//! kernels, which also compute constant subtrees (and so constant
//! folding) on one-row columns. The row-at-a-time interpreter the kernels
//! are tested against is test code, in
//! `crates/dataflow/tests/support/row_oracle.rs`.

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

use toreador_data::schema::Schema;
use toreador_data::value::{DataType, Value};

use crate::error::Result;
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
    use crate::error::FlowError;
    use toreador_data::schema::Field;
    use toreador_data::table::Table;
    use toreador_data::value::Row;

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

    /// `e` on one row of the fixture schema, through the engine's bound
    /// kernels: the production semantics these tests pin.
    fn eval(e: Expr, r: &Row) -> Result<Value> {
        let t = Table::from_rows(schema(), [r.clone()]).unwrap();
        let c = BoundExpr::bind(&e, t.schema())?.eval_column(&t)?;
        c.value(0).map_err(FlowError::Data)
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
        let r = row();
        assert_eq!(eval(col("i").add(lit(1i64)), &r).unwrap(), Value::Int(5));
        assert_eq!(
            eval(col("i").mul(col("x")), &r).unwrap(),
            Value::Float(10.0)
        );
        assert_eq!(eval(col("i").div(lit(0i64)), &r).unwrap(), Value::Null);
        assert_eq!(eval(col("i").modulo(lit(3i64)), &r).unwrap(), Value::Int(1));
        assert_eq!(eval(col("i").modulo(lit(0i64)), &r).unwrap(), Value::Null);
        assert_eq!(eval(col("i").neg(), &r).unwrap(), Value::Int(-4));
    }

    #[test]
    fn comparisons_and_logic() {
        let r = row();
        assert_eq!(eval(col("i").gt(lit(3i64)), &r).unwrap(), Value::Bool(true));
        assert_eq!(eval(col("i").eq(lit(4.0)), &r).unwrap(), Value::Bool(true));
        assert_eq!(
            eval(col("b").and(col("i").lt(lit(0i64))), &r).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval(col("b").or(lit(false)), &r).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(eval(col("b").not(), &r).unwrap(), Value::Bool(false));
    }

    #[test]
    fn short_circuit_skips_right_errors() {
        let r = row();
        // Binding rejects an unknown column before anything runs, so the
        // right side that would fail at run time is a cast that cannot
        // parse; a deciding left side never reaches it.
        assert!(eval(lit(false).and(col("nope")), &r).is_err());
        let fails = || lit("xyz").cast(DataType::Int).gt(lit(0i64));
        assert!(eval(fails(), &r).is_err());
        let e = lit(false).and(fails());
        assert_eq!(eval(e, &r).unwrap(), Value::Bool(false));
        let e = lit(true).or(fails());
        assert_eq!(eval(e, &r).unwrap(), Value::Bool(true));
    }

    #[test]
    fn null_propagation() {
        let mut r = row();
        r[0] = Value::Null;
        assert_eq!(eval(col("i").add(lit(1i64)), &r).unwrap(), Value::Null);
        assert_eq!(eval(col("i").gt(lit(0i64)), &r).unwrap(), Value::Null);
        assert_eq!(eval(col("i").is_null(), &r).unwrap(), Value::Bool(true));
        assert_eq!(
            eval(Expr::coalesce(vec![col("i"), lit(9i64)]), &r).unwrap(),
            Value::Int(9)
        );
    }

    #[test]
    fn functions_evaluate() {
        let r = row();
        let call = |func, arg| eval(Expr::call(func, vec![arg]), &r).unwrap();
        assert_eq!(call(Func::Upper, col("s")), Value::Str("HELLO".into()));
        assert_eq!(call(Func::Length, col("s")), Value::Int(5));
        assert_eq!(call(Func::HourOfDay, col("t")), Value::Int(1));
        assert_eq!(call(Func::DayIndex, col("t")), Value::Int(1));
        assert_eq!(call(Func::Sqrt, lit(9.0)), Value::Float(3.0));
        assert_eq!(call(Func::Ln, lit(0.0)), Value::Null);
        assert_eq!(call(Func::Abs, lit(-3i64)), Value::Int(3));
    }

    #[test]
    fn if_then_else() {
        let s = schema();
        let r = row();
        let e = Expr::if_then(col("i").gt(lit(2i64)), lit("big"), lit("small"));
        assert_eq!(e.infer_type(&s).unwrap(), DataType::Str);
        assert_eq!(eval(e, &r).unwrap(), Value::Str("big".into()));
        // The taken Int branch of an Int/Float mix comes back as a Float.
        let e = Expr::if_then(col("b"), col("i"), col("x"));
        assert_eq!(format!("{:?}", eval(e, &r).unwrap()), "Float(4.0)");
        // Null condition takes the else branch.
        let mut r2 = row();
        r2[3] = Value::Null;
        let e = Expr::if_then(col("b"), lit(1i64), lit(0i64));
        assert_eq!(eval(e, &r2).unwrap(), Value::Int(0));
    }

    #[test]
    fn casts() {
        let r = row();
        assert_eq!(
            eval(col("x").cast(DataType::Int), &r).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            eval(col("i").cast(DataType::Str), &r).unwrap(),
            Value::Str("4".into())
        );
        assert_eq!(
            eval(lit("42").cast(DataType::Int), &r).unwrap(),
            Value::Int(42)
        );
        assert!(eval(lit("xyz").cast(DataType::Int), &r).is_err());
        assert_eq!(
            eval(col("t").cast(DataType::Int), &r).unwrap(),
            Value::Int(90_000_000)
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

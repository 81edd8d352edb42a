//! The row-at-a-time expression interpreter: the reference the engine's
//! column kernels are held to. It evaluates an [`Expr`] one row of
//! [`Value`]s at a time with its own copy of every operator's semantics,
//! and no production path calls it. Test crates include this one file with
//! `#[path = ".../tests/support/row_oracle.rs"] mod row_oracle;`.
//!
//! Null propagates through arithmetic, comparisons and functions (SQL
//! three-valued logic for AND/OR is simplified: null operands yield null).
//! AND/OR short-circuit on a deciding left operand, IF evaluates only its
//! taken branch and COALESCE stops at the first non-null argument, so a
//! failing cast on a row those skip fails nothing.

#![allow(dead_code)]

use std::cmp::Ordering;

use toreador_data::column::{Column, ColumnBuilder};
use toreador_data::schema::Schema;
use toreador_data::table::Table;
use toreador_data::value::{DataType, Row, Value};
use toreador_dataflow::error::{FlowError, Result};
use toreador_dataflow::expr::{BinOp, Expr, Func, UnOp};

/// Evaluate `expr` against one row of `schema`.
pub fn eval(expr: &Expr, schema: &Schema, row: &Row) -> Result<Value> {
    match expr {
        Expr::Column(name) => {
            let idx = schema
                .index_of(name)
                .map_err(|_| FlowError::TypeCheck(format!("unknown column {name:?}")))?;
            Ok(row[idx].clone())
        }
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Binary { op, left, right } => {
            let l = eval(left, schema, row)?;
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
            let r = eval(right, schema, row)?;
            eval_binary(*op, &l, &r)
        }
        Expr::Unary { op, operand } => eval_unary(*op, eval(operand, schema, row)?),
        Expr::Call { func, args } => eval_func(*func, &eval(&args[0], schema, row)?),
        // A conditional's value has the node's unified type: the Int
        // branch of an Int/Float mix widens before anything above sees it.
        Expr::Coalesce(args) => {
            let ty = expr.infer_type(schema)?;
            for a in args {
                let v = eval(a, schema, row)?;
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
            let taken = match eval(cond, schema, row)? {
                Value::Bool(true) => then,
                Value::Bool(false) | Value::Null => otherwise,
                other => return Err(runtime_type("Bool", &other)),
            };
            let ty = expr.infer_type(schema)?;
            eval(taken, schema, row)?
                .coerce(ty)
                .map_err(FlowError::Data)
        }
        Expr::Cast { expr, to } => cast_value(&eval(expr, schema, row)?, *to),
    }
}

/// Evaluate over a whole table, producing a column of the inferred type.
pub fn eval_table(expr: &Expr, table: &Table) -> Result<Column> {
    let ty = expr.infer_type(table.schema())?;
    let mut out = ColumnBuilder::with_capacity(ty, table.num_rows());
    for row in table.iter_rows() {
        let v = eval(expr, table.schema(), &row)?;
        let v = v.coerce(ty).map_err(FlowError::Data)?;
        out.push(&v)?;
    }
    Ok(out.finish())
}

/// Evaluate a boolean predicate over a table into a selection mask.
/// Null results count as `false` (SQL WHERE semantics).
pub fn eval_mask(expr: &Expr, table: &Table) -> Result<Vec<bool>> {
    let ty = expr.infer_type(table.schema())?;
    if ty != DataType::Bool {
        return Err(FlowError::TypeCheck(format!(
            "predicate must be Bool, got {ty}"
        )));
    }
    let mut mask = Vec::with_capacity(table.num_rows());
    for row in table.iter_rows() {
        mask.push(matches!(
            eval(expr, table.schema(), &row)?,
            Value::Bool(true)
        ));
    }
    Ok(mask)
}

fn runtime_type(expected: &str, found: &Value) -> FlowError {
    FlowError::TypeCheck(format!(
        "runtime type error: expected {expected}, found {:?}",
        found.data_type().map(|t| t.name()).unwrap_or("Null")
    ))
}

pub fn eval_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use BinOp::*;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    let ord = l.total_cmp(r);
    match op {
        Eq => Ok(Value::Bool(ord == Ordering::Equal)),
        NotEq => Ok(Value::Bool(ord != Ordering::Equal)),
        Lt => Ok(Value::Bool(ord == Ordering::Less)),
        LtEq => Ok(Value::Bool(ord != Ordering::Greater)),
        Gt => Ok(Value::Bool(ord == Ordering::Greater)),
        GtEq => Ok(Value::Bool(ord != Ordering::Less)),
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
    }
}

pub fn eval_unary(op: UnOp, v: Value) -> Result<Value> {
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
pub fn eval_func(func: Func, v: &Value) -> Result<Value> {
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

pub fn cast_value(v: &Value, to: DataType) -> Result<Value> {
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

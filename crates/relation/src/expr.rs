//! Scalar expressions over tuples.
//!
//! These are the "standard operations on integers etc." of the paper's term
//! language, evaluated row-at-a-time inside selections, projections and
//! aggregate arguments. Expressions may reference columns of the current row
//! by name and positional parameters `$0, $1, …` supplied by parameterized
//! queries (the paper's n-ary function symbols denoting queries).

use std::fmt;

use crate::error::{RelError, Result};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl ArithOp {
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Mod => "%",
        }
    }
}

/// Comparison operators (the paper's θ ∈ {<, ≤, =, ≠, ≥, >}).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpOp {
    Lt,
    Le,
    Eq,
    Ne,
    Ge,
    Gt,
}

impl CmpOp {
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
        }
    }

    /// The comparison with operands swapped: `a op b == b op.flip() a`.
    #[must_use]
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Gt => CmpOp::Lt,
        }
    }

    /// The logical negation: `!(a op b) == a op.negate() b`.
    #[must_use]
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Gt => CmpOp::Le,
        }
    }

    /// Applies the comparison to two values using the total `Value` order
    /// (which already handles `Int`/`Float` coercion).
    ///
    /// SQL convention: a comparison involving `Null` is never satisfied —
    /// `price(IBM) <= 10` must not hold before IBM has a price. Note this
    /// makes [`CmpOp::negate`] valid only for non-null operands.
    pub fn eval(self, a: &Value, b: &Value) -> bool {
        if matches!(a, Value::Null) || matches!(b, Value::Null) {
            return false;
        }
        let ord = a.cmp(b);
        match self {
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Ge => ord.is_ge(),
            CmpOp::Gt => ord.is_gt(),
        }
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ScalarExpr {
    /// A literal value.
    Const(Value),
    /// A column of the current row, by name.
    Col(String),
    /// A positional query parameter `$i`.
    Param(usize),
    /// Arithmetic on two sub-expressions.
    Arith(ArithOp, Box<ScalarExpr>, Box<ScalarExpr>),
    /// Comparison producing a boolean.
    Cmp(CmpOp, Box<ScalarExpr>, Box<ScalarExpr>),
    /// Logical conjunction.
    And(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Logical disjunction.
    Or(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Logical negation.
    Not(Box<ScalarExpr>),
    /// Arithmetic negation.
    Neg(Box<ScalarExpr>),
    /// Absolute value.
    Abs(Box<ScalarExpr>),
}

impl ScalarExpr {
    /// How deep the expression nests, one level per node.
    pub fn depth(&self) -> usize {
        1 + match self {
            ScalarExpr::Const(_) | ScalarExpr::Col(_) | ScalarExpr::Param(_) => 0,
            ScalarExpr::Arith(_, a, b)
            | ScalarExpr::Cmp(_, a, b)
            | ScalarExpr::And(a, b)
            | ScalarExpr::Or(a, b) => a.depth().max(b.depth()),
            ScalarExpr::Not(a) | ScalarExpr::Neg(a) | ScalarExpr::Abs(a) => a.depth(),
        }
    }

    pub fn lit(v: impl Into<Value>) -> ScalarExpr {
        ScalarExpr::Const(v.into())
    }

    pub fn col(name: impl Into<String>) -> ScalarExpr {
        ScalarExpr::Col(name.into())
    }

    pub fn cmp(op: CmpOp, a: ScalarExpr, b: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Cmp(op, Box::new(a), Box::new(b))
    }

    pub fn arith(op: ArithOp, a: ScalarExpr, b: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Arith(op, Box::new(a), Box::new(b))
    }

    pub fn and(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr {
        ScalarExpr::And(Box::new(a), Box::new(b))
    }

    pub fn or(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Or(Box::new(a), Box::new(b))
    }

    /// Builder named for the logical connective, not `std::ops::Not`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(a: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Not(Box::new(a))
    }

    /// Evaluates the expression against a row. `params` supplies `$i`
    /// bindings (empty slice when the query is unparameterized).
    pub fn eval(&self, schema: &Schema, row: &Tuple, params: &[Value]) -> Result<Value> {
        match self {
            ScalarExpr::Const(v) => Ok(v.clone()),
            ScalarExpr::Col(name) => {
                let idx = schema.index_of(name)?;
                Ok(row.values()[idx].clone())
            }
            ScalarExpr::Param(i) => params.get(*i).cloned().ok_or(RelError::UnboundParam(*i)),
            ScalarExpr::Arith(op, a, b) => {
                let a = a.eval(schema, row, params)?;
                let b = b.eval(schema, row, params)?;
                eval_arith(*op, &a, &b)
            }
            ScalarExpr::Cmp(op, a, b) => {
                let a = a.eval(schema, row, params)?;
                let b = b.eval(schema, row, params)?;
                Ok(Value::Bool(op.eval(&a, &b)))
            }
            ScalarExpr::And(a, b) => {
                // Short-circuit so selection predicates may guard type errors.
                if !expect_bool(a.eval(schema, row, params)?)? {
                    return Ok(Value::Bool(false));
                }
                Ok(Value::Bool(expect_bool(b.eval(schema, row, params)?)?))
            }
            ScalarExpr::Or(a, b) => {
                if expect_bool(a.eval(schema, row, params)?)? {
                    return Ok(Value::Bool(true));
                }
                Ok(Value::Bool(expect_bool(b.eval(schema, row, params)?)?))
            }
            ScalarExpr::Not(a) => Ok(Value::Bool(!expect_bool(a.eval(schema, row, params)?)?)),
            ScalarExpr::Neg(a) => match a.eval(schema, row, params)? {
                Value::Int(i) => i.checked_neg().map(Value::Int).ok_or(RelError::Overflow),
                Value::Float(f) => Ok(Value::float(-f)),
                v => Err(RelError::TypeError {
                    op: "neg",
                    value: v.to_string(),
                }),
            },
            ScalarExpr::Abs(a) => match a.eval(schema, row, params)? {
                Value::Int(i) => i.checked_abs().map(Value::Int).ok_or(RelError::Overflow),
                Value::Float(f) => Ok(Value::float(f.abs())),
                v => Err(RelError::TypeError {
                    op: "abs",
                    value: v.to_string(),
                }),
            },
        }
    }

    /// Evaluates a predicate expression to a boolean.
    pub fn eval_bool(&self, schema: &Schema, row: &Tuple, params: &[Value]) -> Result<bool> {
        expect_bool(self.eval(schema, row, params)?)
    }

    /// Column names referenced anywhere in the expression.
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let ScalarExpr::Col(name) = e {
                out.push(name.as_str());
            }
        });
        out
    }

    fn visit<'a>(&'a self, f: &mut impl FnMut(&'a ScalarExpr)) {
        f(self);
        match self {
            ScalarExpr::Const(_) | ScalarExpr::Col(_) | ScalarExpr::Param(_) => {}
            ScalarExpr::Arith(_, a, b)
            | ScalarExpr::Cmp(_, a, b)
            | ScalarExpr::And(a, b)
            | ScalarExpr::Or(a, b) => {
                a.visit(f);
                b.visit(f);
            }
            ScalarExpr::Not(a) | ScalarExpr::Neg(a) | ScalarExpr::Abs(a) => a.visit(f),
        }
    }
}

fn expect_bool(v: Value) -> Result<bool> {
    v.as_bool().ok_or_else(|| RelError::TypeError {
        op: "boolean",
        value: v.to_string(),
    })
}

/// Arithmetic over values: `Int op Int -> Int` (checked), anything involving
/// a float coerces to float. `Time ± Int -> Time` supports the paper's
/// relative-time idioms (`time - 10`). `Null` propagates (SQL convention:
/// `0.5 * price(IBM)` is `Null` before IBM has a price, and the comparison
/// containing it is then unsatisfied).
pub fn eval_arith(op: ArithOp, a: &Value, b: &Value) -> Result<Value> {
    use Value::*;
    if matches!(a, Null) || matches!(b, Null) {
        return Ok(Null);
    }
    match (a, b) {
        (Int(x), Int(y)) => {
            let r = match op {
                ArithOp::Add => x.checked_add(*y),
                ArithOp::Sub => x.checked_sub(*y),
                ArithOp::Mul => x.checked_mul(*y),
                ArithOp::Div => {
                    if *y == 0 {
                        return Err(RelError::DivisionByZero);
                    }
                    x.checked_div(*y)
                }
                ArithOp::Mod => {
                    if *y == 0 {
                        return Err(RelError::DivisionByZero);
                    }
                    x.checked_rem(*y)
                }
            };
            r.map(Int).ok_or(RelError::Overflow)
        }
        (Time(t), Int(d)) => match op {
            ArithOp::Add => Ok(Time(t.plus(*d))),
            ArithOp::Sub => Ok(Time(t.minus(*d))),
            ArithOp::Mod => {
                if *d == 0 {
                    Err(RelError::DivisionByZero)
                } else {
                    Ok(Int(t.0.rem_euclid(*d)))
                }
            }
            _ => Err(RelError::TypeError {
                op: op.symbol(),
                value: a.to_string(),
            }),
        },
        (Int(d), Time(t)) if op == ArithOp::Add => Ok(Time(t.plus(*d))),
        (Time(x), Time(y)) if op == ArithOp::Sub => Ok(Int(x.0.saturating_sub(y.0))),
        _ => {
            let (x, y) = match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => (x, y),
                _ => {
                    let bad = if a.is_numeric() { b } else { a };
                    return Err(RelError::TypeError {
                        op: op.symbol(),
                        value: bad.to_string(),
                    });
                }
            };
            let r = match op {
                ArithOp::Add => x + y,
                ArithOp::Sub => x - y,
                ArithOp::Mul => x * y,
                ArithOp::Div => {
                    if y == 0.0 {
                        return Err(RelError::DivisionByZero);
                    }
                    x / y
                }
                ArithOp::Mod => {
                    if y == 0.0 {
                        return Err(RelError::DivisionByZero);
                    }
                    x % y
                }
            };
            Ok(Value::float(r))
        }
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Const(v) => write!(f, "{v}"),
            ScalarExpr::Col(c) => write!(f, "{c}"),
            ScalarExpr::Param(i) => write!(f, "${i}"),
            ScalarExpr::Arith(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            ScalarExpr::Cmp(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            ScalarExpr::And(a, b) => write!(f, "({a} and {b})"),
            ScalarExpr::Or(a, b) => write!(f, "({a} or {b})"),
            ScalarExpr::Not(a) => write!(f, "(not {a})"),
            ScalarExpr::Neg(a) => write!(f, "(-{a})"),
            ScalarExpr::Abs(a) => write!(f, "abs({a})"),
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use crate::schema::{DType, Schema};
    use crate::tuple;

    fn row_env() -> (Schema, Tuple) {
        (
            Schema::of(&[("name", DType::Str), ("price", DType::Int)]),
            tuple!["IBM", 72i64],
        )
    }

    #[test]
    fn column_and_const() {
        let (s, t) = row_env();
        let e = ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col("price"), ScalarExpr::lit(50i64));
        assert_eq!(e.eval(&s, &t, &[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn params_resolve() {
        let (s, t) = row_env();
        let e = ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col("name"), ScalarExpr::Param(0));
        assert_eq!(
            e.eval(&s, &t, &[Value::str("IBM")]).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(e.eval(&s, &t, &[]).unwrap_err(), RelError::UnboundParam(0));
    }

    #[test]
    fn arithmetic_coercion() {
        let (s, t) = row_env();
        let half = ScalarExpr::arith(ArithOp::Mul, ScalarExpr::col("price"), ScalarExpr::lit(0.5));
        assert_eq!(half.eval(&s, &t, &[]).unwrap(), Value::float(36.0));
    }

    #[test]
    fn checked_integer_arithmetic() {
        let (s, t) = row_env();
        let overflow = ScalarExpr::arith(
            ArithOp::Add,
            ScalarExpr::lit(i64::MAX),
            ScalarExpr::lit(1i64),
        );
        assert_eq!(overflow.eval(&s, &t, &[]).unwrap_err(), RelError::Overflow);
        let div0 = ScalarExpr::arith(ArithOp::Div, ScalarExpr::lit(1i64), ScalarExpr::lit(0i64));
        assert_eq!(
            div0.eval(&s, &t, &[]).unwrap_err(),
            RelError::DivisionByZero
        );
    }

    #[test]
    fn null_propagates_through_arithmetic() {
        assert_eq!(
            eval_arith(ArithOp::Mul, &Value::float(0.5), &Value::Null).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_arith(ArithOp::Add, &Value::Null, &Value::Int(3)).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_arith(ArithOp::Div, &Value::Null, &Value::Null).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn time_arithmetic() {
        use crate::value::Timestamp;
        let t9 = Value::Time(Timestamp(540));
        assert_eq!(
            eval_arith(ArithOp::Sub, &t9, &Value::Int(60)).unwrap(),
            Value::Time(Timestamp(480))
        );
        assert_eq!(
            eval_arith(ArithOp::Mod, &t9, &Value::Int(60)).unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            eval_arith(ArithOp::Sub, &t9, &Value::Time(Timestamp(500))).unwrap(),
            Value::Int(40)
        );
    }

    #[test]
    fn boolean_short_circuit() {
        let (s, t) = row_env();
        // `false and <type error>` must not error.
        let e = ScalarExpr::and(
            ScalarExpr::lit(false),
            ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col("name"), ScalarExpr::lit(1i64)),
        );
        assert_eq!(e.eval(&s, &t, &[]).unwrap(), Value::Bool(false));
    }

    #[test]
    fn cmpop_algebra() {
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Ge,
            CmpOp::Gt,
        ] {
            for (a, b) in [(1i64, 2i64), (2, 2), (3, 2)] {
                let (a, b) = (Value::Int(a), Value::Int(b));
                assert_eq!(op.eval(&a, &b), op.flip().eval(&b, &a), "flip {op:?}");
                assert_eq!(op.eval(&a, &b), !op.negate().eval(&a, &b), "negate {op:?}");
            }
        }
    }

    #[test]
    fn null_comparisons_are_never_satisfied() {
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Ge,
            CmpOp::Gt,
        ] {
            assert!(!op.eval(&Value::Null, &Value::Int(1)));
            assert!(!op.eval(&Value::Int(1), &Value::Null));
            assert!(!op.eval(&Value::Null, &Value::Null));
        }
    }

    #[test]
    fn columns_collects_references() {
        let e = ScalarExpr::and(
            ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col("price"), ScalarExpr::lit(1i64)),
            ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col("name"), ScalarExpr::col("price")),
        );
        assert_eq!(e.columns(), vec!["price", "name", "price"]);
    }

    #[test]
    fn display_roundtrips_visually() {
        let e = ScalarExpr::cmp(
            CmpOp::Ge,
            ScalarExpr::col("price"),
            ScalarExpr::arith(ArithOp::Mul, ScalarExpr::lit(0.5), ScalarExpr::Param(0)),
        );
        assert_eq!(e.to_string(), "(price >= (0.5 * $0))");
    }
}

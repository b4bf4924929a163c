//! PTL terms.
//!
//! "Every variable and constant is a term. If f is an n-ary function then
//! f(t1, …, tn) is a term." Function symbols cover both the standard
//! integer operations and names of database queries; we additionally embed
//! Section 6's temporal aggregate functions `f(q, φ, ψ)` as terms.

use std::fmt;

use tdb_relation::{AggFunc, ArithOp, Value};

use crate::formula::Formula;

/// A PTL term.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A literal constant.
    Const(Value),
    /// A variable — free, or bound by an enclosing assignment operator.
    Var(String),
    /// The global clock, i.e. the `time` data item.
    Time,
    /// Arithmetic application of a standard function symbol.
    Arith(ArithOp, Box<Term>, Box<Term>),
    /// Arithmetic negation.
    Neg(Box<Term>),
    /// Absolute value.
    Abs(Box<Term>),
    /// A named database query applied to arguments — the paper's n-ary
    /// function symbol denoting a query (`price(x)`, `OVERPRICED()`).
    /// Scalar results stay scalar; multi-row/column results become
    /// relation-valued [`Value::Rel`].
    Query { name: String, args: Vec<Term> },
    /// A temporal aggregate `f(q, φ, ψ)` (Section 6).
    Agg(Box<TemporalAgg>),
}

/// A temporal aggregate: the aggregate `func` of the values of `query`,
/// taken at the sampling points where `sample` holds, starting from the
/// latest instant at which `start` held.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TemporalAgg {
    pub func: AggFunc,
    pub query: Term,
    /// The starting formula φ.
    pub start: Formula,
    /// The sampling formula ψ.
    pub sample: Formula,
}

impl Term {
    pub fn lit(v: impl Into<Value>) -> Term {
        Term::Const(v.into())
    }

    pub fn var(name: impl Into<String>) -> Term {
        Term::Var(name.into())
    }

    pub fn query(name: impl Into<String>, args: Vec<Term>) -> Term {
        Term::Query {
            name: name.into(),
            args,
        }
    }

    pub fn arith(op: ArithOp, a: Term, b: Term) -> Term {
        Term::Arith(op, Box::new(a), Box::new(b))
    }

    /// Builder named for the arithmetic symbol, not `std::ops::Add`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(a: Term, b: Term) -> Term {
        Term::arith(ArithOp::Add, a, b)
    }

    #[allow(clippy::should_implement_trait)]
    pub fn sub(a: Term, b: Term) -> Term {
        Term::arith(ArithOp::Sub, a, b)
    }

    #[allow(clippy::should_implement_trait)]
    pub fn mul(a: Term, b: Term) -> Term {
        Term::arith(ArithOp::Mul, a, b)
    }

    pub fn agg(func: AggFunc, query: Term, start: Formula, sample: Formula) -> Term {
        Term::Agg(Box::new(TemporalAgg {
            func,
            query,
            start,
            sample,
        }))
    }

    /// Variables occurring in the term (including inside aggregate
    /// sub-formulas), in first-occurrence order.
    pub fn vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    pub(crate) fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Term::Const(_) | Term::Time => {}
            Term::Var(v) => {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            Term::Arith(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Term::Neg(a) | Term::Abs(a) => a.collect_vars(out),
            Term::Query { args, .. } => {
                for a in args {
                    a.collect_vars(out);
                }
            }
            Term::Agg(agg) => {
                agg.query.collect_vars(out);
                agg.start.collect_free_vars_into(out);
                agg.sample.collect_free_vars_into(out);
            }
        }
    }

    /// True if the term contains no variables at all (aggregates count as
    /// ground only if their query and formulas are variable-free).
    pub fn is_ground(&self) -> bool {
        self.vars().is_empty()
    }

    /// True if the term contains a temporal aggregate.
    pub fn has_aggregate(&self) -> bool {
        match self {
            Term::Agg(_) => true,
            Term::Const(_) | Term::Var(_) | Term::Time => false,
            Term::Arith(_, a, b) => a.has_aggregate() || b.has_aggregate(),
            Term::Neg(a) | Term::Abs(a) => a.has_aggregate(),
            Term::Query { args, .. } => args.iter().any(Term::has_aggregate),
        }
    }

    /// The most formulas and terms on one path down from this term, itself
    /// included.
    pub fn depth(&self) -> usize {
        1 + match self {
            Term::Const(_) | Term::Var(_) | Term::Time => 0,
            Term::Arith(_, a, b) => a.depth().max(b.depth()),
            Term::Neg(a) | Term::Abs(a) => a.depth(),
            Term::Query { args, .. } => args.iter().map(Term::depth).max().unwrap_or(0),
            Term::Agg(a) => a.query.depth().max(a.start.depth()).max(a.sample.depth()),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Const(v) => write!(f, "{v}"),
            Term::Var(v) => write!(f, "{v}"),
            Term::Time => write!(f, "time"),
            Term::Arith(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Term::Neg(a) => write!(f, "(-{a})"),
            Term::Abs(a) => write!(f, "abs({a})"),
            Term::Query { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Term::Agg(agg) => {
                write!(
                    f,
                    "{}({}; {}; {})",
                    agg.func, agg.query, agg.start, agg.sample
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vars_are_collected_once() {
        let t = Term::add(Term::var("x"), Term::mul(Term::var("x"), Term::var("y")));
        assert_eq!(t.vars(), vec!["x".to_string(), "y".into()]);
        assert!(!t.is_ground());
        assert!(Term::lit(3i64).is_ground());
    }

    #[test]
    fn query_args_contribute_vars() {
        let t = Term::query("price", vec![Term::var("stock")]);
        assert_eq!(t.vars(), vec!["stock".to_string()]);
    }

    #[test]
    fn display_forms() {
        let t = Term::sub(Term::Time, Term::lit(10i64));
        assert_eq!(t.to_string(), "(time - 10)");
        let q = Term::query("price", vec![Term::lit("IBM")]);
        assert_eq!(q.to_string(), "price(\"IBM\")");
    }

    #[test]
    fn aggregate_detection() {
        let a = Term::agg(
            AggFunc::Avg,
            Term::query("price", vec![Term::lit("IBM")]),
            Formula::True,
            Formula::True,
        );
        assert!(a.has_aggregate());
        assert!(Term::add(a, Term::lit(1i64)).has_aggregate());
        assert!(!Term::Time.has_aggregate());
    }
}

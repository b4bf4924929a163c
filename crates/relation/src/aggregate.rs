//! Aggregate functions and incremental accumulators.
//!
//! [`AggFunc::apply`] computes an aggregate over a finished stream of values
//! by folding an [`Accumulator`], which maintains the same aggregate one value
//! at a time. The incremental evaluator keeps one per temporal aggregate as
//! formula state (Section 6.1.1's `CUM_PRICE` and `TOTAL_UPDATES`), so it and
//! the naive definition share the fold.

use std::fmt;

use crate::error::{RelError, Result};
use crate::expr::{eval_arith, ArithOp};
use crate::value::Value;

/// The supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
    /// The most recently sampled value (useful for `executed`-style state).
    Last,
}

impl AggFunc {
    /// Parses the textual name used by the query and PTL parsers.
    pub fn parse(name: &str) -> Option<AggFunc> {
        match name.to_ascii_lowercase().as_str() {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "avg" => Some(AggFunc::Avg),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            "last" => Some(AggFunc::Last),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Last => "last",
        }
    }

    /// Computes the aggregate of an iterator of values. Empty input yields
    /// `Int(0)` for `Count`/`Sum` and `Null` for the others (SQL convention).
    pub fn apply(self, values: impl IntoIterator<Item = Value>) -> Result<Value> {
        let mut acc = Accumulator::new(self);
        for v in values {
            acc.push(&v)?;
        }
        Ok(acc.current())
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Incremental state for one aggregate.
///
/// `Avg` is maintained as `Sum`/`Count`, exactly the decomposition the paper
/// performs when rewriting `Avg(price(IBM), …)` into `CUM_PRICE` and
/// `TOTAL_UPDATES` items.
#[derive(Debug, Clone, PartialEq)]
pub struct Accumulator {
    func: AggFunc,
    /// Values folded: rows for `Count`, non-`Null` values otherwise.
    n: u64,
    /// The running sum (`Sum`, `Avg`), extreme (`Min`, `Max`) or last value
    /// (`Last`); `None` before the first fold.
    value: Option<Value>,
}

impl Accumulator {
    pub fn new(func: AggFunc) -> Accumulator {
        Accumulator::from_parts(func, 0, None)
    }

    /// Rebuilds an accumulator from its [`Accumulator::parts`].
    pub fn from_parts(func: AggFunc, n: u64, value: Option<Value>) -> Accumulator {
        Accumulator { func, n, value }
    }

    /// What a checkpoint stores besides the function: the values folded and
    /// the running value.
    pub fn parts(&self) -> (u64, Option<&Value>) {
        (self.n, self.value.as_ref())
    }

    pub fn func(&self) -> AggFunc {
        self.func
    }

    /// Number of values folded since the last reset: rows for `Count`,
    /// non-`Null` values otherwise.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Feeds one value. `Null`s are skipped (SQL convention) except by
    /// `Count`, which counts rows in this substrate, and `Last`.
    pub fn push(&mut self, v: &Value) -> Result<()> {
        if matches!(v, Value::Null) && !matches!(self.func, AggFunc::Count | AggFunc::Last) {
            return Ok(());
        }
        // Fold first: a rejected value leaves the accumulator untouched.
        let folded = match self.func {
            AggFunc::Count => None,
            AggFunc::Sum | AggFunc::Avg if !v.is_numeric() => {
                return Err(RelError::TypeError {
                    op: "sum",
                    value: v.to_string(),
                })
            }
            AggFunc::Sum | AggFunc::Avg => Some(eval_arith(
                ArithOp::Add,
                self.value.as_ref().unwrap_or(&Value::Int(0)),
                v,
            )?),
            AggFunc::Min if self.value.as_ref().is_some_and(|m| m <= v) => None,
            AggFunc::Max if self.value.as_ref().is_some_and(|m| m >= v) => None,
            AggFunc::Min | AggFunc::Max | AggFunc::Last => Some(v.clone()),
        };
        self.n += 1;
        if folded.is_some() {
            self.value = folded;
        }
        Ok(())
    }

    /// The aggregate of everything pushed so far.
    pub fn current(&self) -> Value {
        match (self.func, &self.value) {
            (AggFunc::Count, _) => Value::Int(self.n as i64),
            (AggFunc::Sum, None) => Value::Int(0),
            (AggFunc::Avg, Some(sum)) => Value::float(sum.as_f64().unwrap_or(0.0) / self.n as f64),
            (_, value) => value.clone().unwrap_or(Value::Null),
        }
    }

    /// Resets to the initial state — what the aggregate's *starting
    /// formula* does whenever it holds.
    pub fn reset(&mut self) {
        *self = Accumulator::new(self.func);
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    fn ints(vs: &[i64]) -> Vec<Value> {
        vs.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn apply_basic() {
        assert_eq!(
            AggFunc::Count.apply(ints(&[1, 2, 3])).unwrap(),
            Value::Int(3)
        );
        assert_eq!(AggFunc::Sum.apply(ints(&[1, 2, 3])).unwrap(), Value::Int(6));
        assert_eq!(
            AggFunc::Avg.apply(ints(&[1, 2, 3])).unwrap(),
            Value::float(2.0)
        );
        assert_eq!(AggFunc::Min.apply(ints(&[3, 1, 2])).unwrap(), Value::Int(1));
        assert_eq!(AggFunc::Max.apply(ints(&[3, 1, 2])).unwrap(), Value::Int(3));
        assert_eq!(
            AggFunc::Last.apply(ints(&[3, 1, 2])).unwrap(),
            Value::Int(2)
        );
    }

    #[test]
    fn apply_empty() {
        assert_eq!(AggFunc::Count.apply(ints(&[])).unwrap(), Value::Int(0));
        assert_eq!(AggFunc::Sum.apply(ints(&[])).unwrap(), Value::Int(0));
        assert_eq!(AggFunc::Avg.apply(ints(&[])).unwrap(), Value::Null);
        assert_eq!(AggFunc::Min.apply(ints(&[])).unwrap(), Value::Null);
    }

    #[test]
    fn nulls_skipped_except_count() {
        let vs = vec![Value::Int(4), Value::Null, Value::Int(6)];
        assert_eq!(AggFunc::Sum.apply(vs.clone()).unwrap(), Value::Int(10));
        assert_eq!(AggFunc::Count.apply(vs.clone()).unwrap(), Value::Int(3));
        assert_eq!(AggFunc::Min.apply(vs).unwrap(), Value::Int(4));
    }

    /// `Avg` divides by the values it folded: a `Null` is skipped, not
    /// counted (SQL's `avg`).
    #[test]
    fn avg_divides_by_non_null_values() {
        let vs = vec![Value::Int(10), Value::Null];
        assert_eq!(AggFunc::Avg.apply(vs).unwrap(), Value::float(10.0));
        let mut a = Accumulator::new(AggFunc::Last);
        a.push(&Value::Int(1)).unwrap();
        a.push(&Value::Null).unwrap();
        assert_eq!(a.current(), Value::Null);
    }

    /// A rejected value is not counted: the average stays over what was
    /// folded.
    #[test]
    fn rejected_value_leaves_the_accumulator_alone() {
        let mut a = Accumulator::new(AggFunc::Avg);
        a.push(&Value::Int(10)).unwrap();
        assert!(a.push(&Value::str("x")).is_err());
        assert_eq!((a.count(), a.current()), (1, Value::float(10.0)));
    }

    #[test]
    fn sum_rejects_strings() {
        assert!(AggFunc::Sum.apply(vec![Value::str("x")]).is_err());
    }

    #[test]
    fn accumulator_reset_matches_fresh() {
        let mut a = Accumulator::new(AggFunc::Avg);
        a.push(&Value::Int(100)).unwrap();
        a.reset();
        a.push(&Value::Int(2)).unwrap();
        a.push(&Value::Int(4)).unwrap();
        assert_eq!(a.current(), Value::float(3.0));
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn mixed_int_float_sum() {
        let vs = vec![Value::Int(1), Value::float(0.5)];
        assert_eq!(AggFunc::Sum.apply(vs).unwrap(), Value::float(1.5));
    }

    #[test]
    fn parse_names() {
        assert_eq!(AggFunc::parse("AVG"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::parse("median"), None);
    }
}

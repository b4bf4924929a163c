//! Tuples: immutable, cheaply clonable rows.

use std::fmt;
use std::sync::Arc;

use crate::value::Value;

/// An immutable row of values. Cloning is O(1) (`Arc`-backed), which matters
/// because the temporal evaluator snapshots query results into auxiliary
/// relations on every system state.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(Arc<[Value]>);

impl Tuple {
    pub fn new(values: Vec<Value>) -> Tuple {
        Tuple(values.into())
    }

    /// The zero-arity tuple `()` — the single row of a "true" 0-ary relation.
    pub fn unit() -> Tuple {
        Tuple(Arc::from(Vec::new()))
    }

    pub fn arity(&self) -> usize {
        self.0.len()
    }

    pub fn values(&self) -> &[Value] {
        &self.0
    }

    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.0.get(idx)
    }

    /// A new tuple containing the columns at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple::new(indices.iter().map(|&i| self.0[i].clone()).collect())
    }

    /// Concatenation of two tuples (cross-product row).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(self.0.len() + other.0.len());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Tuple::new(v)
    }

    /// A new tuple equal to `self` with extra values appended.
    pub fn extended(&self, extra: &[Value]) -> Tuple {
        let mut v = Vec::with_capacity(self.0.len() + extra.len());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(extra);
        Tuple::new(v)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

/// Builds a tuple from anything convertible to `Value`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    #[test]
    fn macro_and_accessors() {
        let t = tuple!["IBM", 72i64, 2.5];
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(0), Some(&Value::str("IBM")));
        assert_eq!(t.get(3), None);
        assert_eq!(t.to_string(), "(\"IBM\", 72, 2.5)");
    }

    #[test]
    fn project_reorders() {
        let t = tuple![1i64, 2i64, 3i64];
        let p = t.project(&[2, 0]);
        assert_eq!(p, tuple![3i64, 1i64]);
    }

    #[test]
    fn concat_and_extend() {
        let a = tuple![1i64];
        let b = tuple!["x"];
        assert_eq!(a.concat(&b), tuple![1i64, "x"]);
        assert_eq!(a.extended(&[Value::Bool(true)]), tuple![1i64, true]);
    }

    #[test]
    fn unit_tuple() {
        assert_eq!(Tuple::unit().arity(), 0);
        assert_eq!(Tuple::unit(), Tuple::new(vec![]));
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(tuple![1i64, 9i64] < tuple![2i64, 0i64]);
        assert!(tuple![1i64] < tuple![1i64, 0i64]);
    }
}

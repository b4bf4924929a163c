//! Runtime values.
//!
//! A [`Value`] is the dynamic type stored in tuples, scalar data items and
//! PTL variable bindings. The paper's logic is data-model independent; the
//! concrete domains we provide are booleans, 64-bit integers, 64-bit floats,
//! interned strings, timestamps, and (for the assignment operator, which may
//! bind a variable to the result of a *relational* query) whole relations.
//!
//! `Value` implements a *total* order — including across `Int`/`Float` — so
//! relations can be kept in deterministic ordered sets and residual formulas
//! can canonicalize comparisons.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::relation::Relation;

/// A discrete, totally ordered logical timestamp.
///
/// The paper assumes a fixed global clock whose value is exposed through the
/// `time` data item; we model it as a monotone `i64` so experiments are
/// deterministic. The unit is whatever the workload chooses (the paper's
/// examples use minutes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub i64);

impl Timestamp {
    /// The earliest representable instant.
    pub const MIN: Timestamp = Timestamp(i64::MIN);
    /// The latest representable instant (used as the open `T_end` of a
    /// current auxiliary-relation interval, the paper's `MAX`).
    pub const MAX: Timestamp = Timestamp(i64::MAX);

    /// Saturating addition of a duration in clock units.
    #[must_use]
    pub fn plus(self, delta: i64) -> Timestamp {
        Timestamp(self.0.saturating_add(delta))
    }

    /// Saturating subtraction of a duration in clock units.
    #[must_use]
    pub fn minus(self, delta: i64) -> Timestamp {
        Timestamp(self.0.saturating_sub(delta))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<i64> for Timestamp {
    fn from(v: i64) -> Self {
        Timestamp(v)
    }
}

/// The dynamic value type of the substrate.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL-style missing value. Compares less than everything else.
    Null,
    Bool(bool),
    Int(i64),
    /// Always a non-NaN float; [`Value::float`] canonicalizes NaN to `Null`.
    Float(f64),
    Str(Arc<str>),
    Time(Timestamp),
    /// A relation-valued value, produced when the assignment operator binds a
    /// variable to a non-scalar query.
    Rel(Arc<Relation>),
}

impl Value {
    /// Builds a string value (interned in an `Arc`).
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// Builds a float value, mapping NaN to `Null` so that `Value` stays
    /// totally ordered and hashable.
    pub fn float(f: f64) -> Value {
        if f.is_nan() {
            Value::Null
        } else {
            Value::Float(f)
        }
    }

    /// Rank used to order across variants. `Int`, `Float` and `Time` share a
    /// rank so that mixed numeric comparisons follow numeric order — PTL
    /// freely mixes the `time` item with integer arithmetic (`time >= t - 10`).
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) | Value::Time(_) => 2,
            Value::Str(_) => 3,
            Value::Rel(_) => 4,
        }
    }

    /// True if the value is numeric (`Int`, `Float` or `Time`).
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_) | Value::Time(_))
    }

    /// Numeric view of the value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Time(t) => Some(t.0 as f64),
            _ => None,
        }
    }

    /// Integer view, if the value is an `Int` or an integral `Time`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Time(t) => Some(t.0),
            _ => None,
        }
    }

    /// Boolean view, if the value is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view, if the value is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Timestamp view, accepting both `Time` and raw `Int`.
    pub fn as_time(&self) -> Option<Timestamp> {
        match self {
            Value::Time(t) => Some(*t),
            Value::Int(i) => Some(Timestamp(*i)),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Time(a), Time(b)) => a.cmp(b),
            (Int(a), Time(b)) => a.cmp(&b.0),
            (Time(a), Int(b)) => a.0.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => int_float_cmp(*a, *b),
            (Float(a), Int(b)) => int_float_cmp(*b, *a).reverse(),
            (Time(a), Float(b)) => int_float_cmp(a.0, *b),
            (Float(a), Time(b)) => int_float_cmp(b.0, *a).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            (Rel(a), Rel(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

/// Orders an integer against a float exactly — casting the integer to
/// `f64` would round above 2^53 and make the order intransitive. Consistent
/// with `f64::total_cmp` among floats: the integer 0 equals `0.0` and lies
/// above `-0.0`, and a NaN lies beyond every integer on its sign's side.
fn int_float_cmp(i: i64, f: f64) -> Ordering {
    // 2^63: the floats in [-2^63, 2^63) truncate to an i64 exactly.
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if !(-TWO_63..TWO_63).contains(&f) {
        // ±∞, NaN or beyond the integers' range: the sign decides.
        return if f.is_sign_negative() {
            Ordering::Greater
        } else {
            Ordering::Less
        };
    }
    let whole = f.trunc();
    i.cmp(&(whole as i64)).then_with(|| {
        if f > whole {
            Ordering::Less
        } else if f < whole || f.is_sign_negative() && f == 0.0 {
            Ordering::Greater
        } else {
            Ordering::Equal
        }
    })
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints and floats that compare equal must hash equal: hash every
            // numeric through the bit pattern of its f64 view when it is
            // exactly representable, otherwise through the i64.
            Value::Int(i) => {
                let f = *i as f64;
                if f as i64 == *i {
                    2u8.hash(state);
                    f.to_bits().hash(state);
                } else {
                    3u8.hash(state);
                    i.hash(state);
                }
            }
            Value::Float(f) => {
                // Normalize -0.0 to 0.0 so that equal values hash equal.
                let f = if *f == 0.0 { 0.0 } else { *f };
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            // Time hashes like the equal Int so cross-type equality holds.
            Value::Time(t) => {
                let f = t.0 as f64;
                if f as i64 == t.0 {
                    2u8.hash(state);
                    f.to_bits().hash(state);
                } else {
                    3u8.hash(state);
                    t.0.hash(state);
                }
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
            Value::Rel(r) => {
                6u8.hash(state);
                r.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => {
                // Escaped so that the lexer reads the literal back.
                f.write_str("\"")?;
                for c in s.chars() {
                    if c == '"' || c == '\\' {
                        f.write_str("\\")?;
                    }
                    write!(f, "{c}")?;
                }
                f.write_str("\"")
            }
            Value::Time(t) => write!(f, "{t}"),
            Value::Rel(r) => write!(f, "<relation {} rows>", r.len()),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::str(s)
    }
}
impl From<Timestamp> for Value {
    fn from(t: Timestamp) -> Self {
        Value::Time(t)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn cross_type_numeric_order() {
        assert_eq!(Value::Int(1), Value::Float(1.0));
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(0.5) < Value::Int(1));
        assert!(Value::Int(-3) < Value::Int(2));
    }

    #[test]
    fn equal_numerics_hash_equal() {
        assert_eq!(hash_of(&Value::Int(42)), hash_of(&Value::Float(42.0)));
        assert_eq!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
    }

    /// Above 2^53 an integer is compared with a float exactly, so equality
    /// stays transitive and agrees with the hash; `0.0` and `-0.0` keep the
    /// floats' total order.
    #[test]
    fn int_float_order_is_exact_and_transitive() {
        let big = 1i64 << 53;
        let (above, float, exact) = (
            Value::Int(big + 1),
            Value::Float(big as f64),
            Value::Int(big),
        );
        assert_eq!(float, exact);
        assert_eq!(hash_of(&float), hash_of(&exact));
        assert_ne!(above, float);
        assert_eq!(above.cmp(&float), Ordering::Greater);
        assert_eq!(float.cmp(&above), Ordering::Less);
        assert!(above > exact);
        let set: std::collections::BTreeSet<Value> =
            [above.clone(), float, exact, Value::Time(Timestamp(big + 1))].into();
        assert_eq!(set.len(), 2);
        assert!(set.contains(&above));
        assert!(Value::Int(i64::MAX) < Value::Float(9_223_372_036_854_775_808.0));
        assert!(Value::Int(i64::MIN) == Value::Float(-9_223_372_036_854_775_808.0));
        assert!(Value::Int(3) > Value::Float(2.5) && Value::Int(-3) < Value::Float(-2.5));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::INFINITY));
        // Zero: Int(0) == 0.0 != -0.0, and the order stays total.
        let (zero, pos, neg) = (Value::Int(0), Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(zero, pos);
        assert_eq!(hash_of(&zero), hash_of(&pos));
        assert_ne!(zero, neg);
        assert_eq!(neg.cmp(&zero), Ordering::Less);
        assert_eq!(zero.cmp(&neg), Ordering::Greater);
        assert!(neg < pos);
        assert!(Value::Float(-0.5) < zero && Value::Int(-1) < neg);
    }

    #[test]
    fn nan_is_normalized_to_null() {
        assert_eq!(Value::float(f64::NAN), Value::Null);
    }

    #[test]
    fn rank_order_across_variants() {
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Bool(true) < Value::Int(i64::MIN));
        assert!(Value::Int(i64::MAX) < Value::str("a"));
    }

    #[test]
    fn time_is_numeric_in_the_order() {
        assert_eq!(Value::Time(Timestamp(5)), Value::Int(5));
        assert!(Value::Time(Timestamp(5)) < Value::Int(6));
        assert!(Value::float(4.5) < Value::Time(Timestamp(5)));
        assert_eq!(hash_of(&Value::Time(Timestamp(5))), hash_of(&Value::Int(5)));
    }

    #[test]
    fn timestamp_arithmetic_saturates() {
        assert_eq!(Timestamp::MAX.plus(1), Timestamp::MAX);
        assert_eq!(Timestamp::MIN.minus(1), Timestamp::MIN);
        assert_eq!(Timestamp(10).minus(3), Timestamp(7));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::float(2.5).to_string(), "2.5");
        assert_eq!(Value::str("IBM").to_string(), "\"IBM\"");
        assert_eq!(Value::Time(Timestamp(9)).to_string(), "t9");
    }

    #[test]
    fn views() {
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::Time(Timestamp(7)).as_i64(), Some(7));
        assert_eq!(Value::Int(7).as_time(), Some(Timestamp(7)));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::Null.as_f64(), None);
    }
}

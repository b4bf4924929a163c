//! Error types for the relational substrate.

use std::fmt;

/// Errors raised by schema construction, expression evaluation and query
/// evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelError {
    /// A referenced relation does not exist in the database catalog.
    UnknownTable(String),
    /// A referenced scalar data item does not exist in the database catalog.
    UnknownItem(String),
    /// A referenced column is not part of the input schema.
    UnknownColumn(String),
    /// Two schemas that must agree (e.g. for union) do not.
    SchemaMismatch { expected: String, found: String },
    /// A duplicate column name was used where names must be unique.
    DuplicateColumn(String),
    /// A new relation's name already names a relation or a data item.
    NameTaken(String),
    /// An operation was applied to a value of the wrong type.
    TypeError { op: &'static str, value: String },
    /// A query expected to produce a single scalar produced something else.
    NotScalar { rows: usize, cols: usize },
    /// A function/query was called with the wrong number of arguments.
    Arity {
        name: String,
        expected: usize,
        found: usize,
    },
    /// A parameter placeholder `$i` had no binding in the environment.
    UnboundParam(usize),
    /// Integer or float division by zero.
    DivisionByZero,
    /// Arithmetic overflow on integer operations.
    Overflow,
    /// A parse error in the textual query language.
    Parse(String),
}

impl fmt::Display for RelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelError::UnknownTable(name) => write!(f, "unknown relation `{name}`"),
            RelError::UnknownItem(name) => write!(f, "unknown data item `{name}`"),
            RelError::UnknownColumn(name) => write!(f, "unknown column `{name}`"),
            RelError::SchemaMismatch { expected, found } => {
                write!(f, "schema mismatch: expected {expected}, found {found}")
            }
            RelError::DuplicateColumn(name) => write!(f, "duplicate column name `{name}`"),
            RelError::NameTaken(name) => {
                write!(f, "`{name}` already names a relation or data item")
            }
            RelError::TypeError { op, value } => {
                write!(f, "type error: cannot apply `{op}` to {value}")
            }
            RelError::NotScalar { rows, cols } => {
                write!(
                    f,
                    "expected scalar result, got {rows} row(s) x {cols} column(s)"
                )
            }
            RelError::Arity {
                name,
                expected,
                found,
            } => {
                write!(f, "`{name}` expects {expected} argument(s), found {found}")
            }
            RelError::UnboundParam(i) => write!(f, "unbound query parameter ${i}"),
            RelError::DivisionByZero => write!(f, "division by zero"),
            RelError::Overflow => write!(f, "integer overflow"),
            RelError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for RelError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, RelError>;

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = RelError::UnknownTable("STOCK".into());
        assert_eq!(e.to_string(), "unknown relation `STOCK`");
        let e = RelError::NotScalar { rows: 2, cols: 3 };
        assert!(e.to_string().contains("2 row(s)"));
        let e = RelError::Arity {
            name: "price".into(),
            expected: 1,
            found: 2,
        };
        assert!(e.to_string().contains("expects 1"));
    }
}

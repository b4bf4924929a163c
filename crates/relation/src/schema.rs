//! Relation schemas: ordered, named, (loosely) typed columns.

use std::fmt;
use std::sync::Arc;

use crate::error::{RelError, Result};

/// Column data types. `Any` accepts every value; the substrate is loosely
/// typed like the paper's examples (a column may legitimately hold `Null`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub enum DType {
    #[default]
    Any,
    Bool,
    Int,
    Float,
    Str,
    Time,
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::Any => "any",
            DType::Bool => "bool",
            DType::Int => "int",
            DType::Float => "float",
            DType::Str => "string",
            DType::Time => "time",
        };
        f.write_str(s)
    }
}

/// A single named column.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Column {
    pub name: String,
    pub dtype: DType,
}

impl Column {
    pub fn new(name: impl Into<String>, dtype: DType) -> Column {
        Column {
            name: name.into(),
            dtype,
        }
    }
}

/// An immutable, cheaply clonable schema.
///
/// Column names must be unique within a schema. Schemas compare equal when
/// the column name/type sequences are identical; positional compatibility
/// (same arity and types, names ignored) is checked with
/// [`Schema::compatible`], which is the union/difference rule.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Schema {
    columns: Arc<[Column]>,
}

impl Schema {
    /// Builds a schema, rejecting duplicate column names.
    pub fn new(columns: Vec<Column>) -> Result<Schema> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|d| d.name == c.name) {
                return Err(RelError::DuplicateColumn(c.name.clone()));
            }
        }
        Ok(Schema {
            columns: columns.into(),
        })
    }

    /// Convenience constructor from `(name, dtype)` pairs, for column lists
    /// written in the source; panics on a duplicate name. Column names a
    /// client sends (a decoded catalog) go through the fallible
    /// [`Schema::new`] instead.
    #[allow(clippy::disallowed_methods)] // literal column lists only
    pub fn of(cols: &[(&str, DType)]) -> Schema {
        Schema::new(cols.iter().map(|(n, t)| Column::new(*n, *t)).collect())
            .expect("Schema::of called with duplicate column names")
    }

    /// Convenience constructor for all-`Any` columns, for column lists
    /// written in the source; panics on a duplicate name, as
    /// [`Schema::of`] does.
    #[allow(clippy::disallowed_methods)] // literal column lists only
    pub fn untyped(names: &[&str]) -> Schema {
        Schema::new(names.iter().map(|n| Column::new(*n, DType::Any)).collect())
            .expect("Schema::untyped called with duplicate column names")
    }

    /// The empty schema (zero columns; its relations are `{}` or `{()}`).
    pub fn empty() -> Schema {
        Schema {
            columns: Arc::from(Vec::new()),
        }
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| RelError::UnknownColumn(name.to_string()))
    }

    /// True if `other` has the same arity and positionally compatible types
    /// (`Any` is compatible with everything). Names are ignored, matching the
    /// usual set-operation rule.
    pub fn compatible(&self, other: &Schema) -> bool {
        self.arity() == other.arity()
            && self
                .columns
                .iter()
                .zip(other.columns.iter())
                .all(|(a, b)| a.dtype == DType::Any || b.dtype == DType::Any || a.dtype == b.dtype)
    }

    /// A new schema with the columns renamed (arity must match).
    pub fn renamed(&self, names: &[String]) -> Result<Schema> {
        if names.len() != self.arity() {
            return Err(RelError::Arity {
                name: "rename".into(),
                expected: self.arity(),
                found: names.len(),
            });
        }
        Schema::new(
            self.columns
                .iter()
                .zip(names)
                .map(|(c, n)| Column::new(n.clone(), c.dtype))
                .collect(),
        )
    }

    /// Concatenation of two schemas; on a name clash the right-hand column is
    /// disambiguated with a `rhs.` prefix (cross-product/join rule).
    pub fn concat(&self, other: &Schema) -> Result<Schema> {
        let mut cols: Vec<Column> = self.columns.to_vec();
        for c in other.columns.iter() {
            if cols.iter().any(|d| d.name == c.name) {
                let renamed = format!("rhs.{}", c.name);
                if cols.iter().any(|d| d.name == renamed) {
                    return Err(RelError::DuplicateColumn(renamed));
                }
                cols.push(Column::new(renamed, c.dtype));
            } else {
                cols.push(c.clone());
            }
        }
        Schema::new(cols)
    }

    /// Human-readable `(a: int, b: string)` form.
    pub fn describe(&self) -> String {
        let mut s = String::from("(");
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&c.name);
            s.push_str(": ");
            s.push_str(&c.dtype.to_string());
        }
        s.push(')');
        s
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    #[test]
    fn rejects_duplicate_names() {
        let err = Schema::new(vec![
            Column::new("a", DType::Int),
            Column::new("a", DType::Str),
        ])
        .unwrap_err();
        assert_eq!(err, RelError::DuplicateColumn("a".into()));
    }

    #[test]
    fn index_lookup() {
        let s = Schema::of(&[("name", DType::Str), ("price", DType::Float)]);
        assert_eq!(s.index_of("price").unwrap(), 1);
        assert!(s.index_of("nope").is_err());
    }

    #[test]
    fn compatibility_ignores_names_and_any() {
        let a = Schema::of(&[("x", DType::Int), ("y", DType::Str)]);
        let b = Schema::of(&[("p", DType::Int), ("q", DType::Str)]);
        let c = Schema::of(&[("p", DType::Any), ("q", DType::Any)]);
        let d = Schema::of(&[("p", DType::Str), ("q", DType::Str)]);
        assert!(a.compatible(&b));
        assert!(a.compatible(&c));
        assert!(!a.compatible(&d));
        assert!(!a.compatible(&Schema::empty()));
    }

    #[test]
    fn rename_checks_arity() {
        let s = Schema::of(&[("a", DType::Int)]);
        assert!(s.renamed(&["x".into(), "y".into()]).is_err());
        let r = s.renamed(&["x".into()]).unwrap();
        assert_eq!(r.columns()[0].name, "x");
        assert_eq!(r.columns()[0].dtype, DType::Int);
    }

    #[test]
    fn concat_disambiguates_clashes() {
        let a = Schema::of(&[("id", DType::Int), ("v", DType::Float)]);
        let b = Schema::of(&[("id", DType::Int), ("w", DType::Float)]);
        let c = a.concat(&b).unwrap();
        let names: Vec<_> = c.columns().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["id", "v", "rhs.id", "w"]);
    }

    #[test]
    fn describe_format() {
        let s = Schema::of(&[("a", DType::Int), ("b", DType::Str)]);
        assert_eq!(s.describe(), "(a: int, b: string)");
    }
}

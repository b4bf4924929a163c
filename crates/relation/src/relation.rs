//! Relations: schema'd, deterministic ordered sets of tuples.

use std::collections::BTreeSet;
use std::fmt;

use crate::error::{RelError, Result};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;

/// A relation with *set* semantics, stored in a `BTreeSet` so iteration
/// order — and therefore every experiment in the repo — is deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Relation {
    schema: Schema,
    rows: BTreeSet<Tuple>,
}

impl Relation {
    /// The empty relation over `schema`.
    pub fn empty(schema: Schema) -> Relation {
        Relation {
            schema,
            rows: BTreeSet::new(),
        }
    }

    /// Builds a relation, checking every tuple's arity against the schema.
    pub fn from_rows(schema: Schema, rows: impl IntoIterator<Item = Tuple>) -> Result<Relation> {
        let mut rel = Relation::empty(schema);
        for t in rows {
            rel.insert(t)?;
        }
        Ok(rel)
    }

    /// A 1x1 relation holding a single scalar in column `value` — the
    /// relational embedding of a scalar query result.
    pub fn scalar(v: Value) -> Relation {
        let schema = Schema::untyped(&["value"]);
        let mut rows = BTreeSet::new();
        rows.insert(Tuple::new(vec![v]));
        Relation { schema, rows }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.rows.iter()
    }

    pub fn contains(&self, t: &Tuple) -> bool {
        self.rows.contains(t)
    }

    /// Inserts a tuple; returns true if it was not already present.
    pub fn insert(&mut self, t: Tuple) -> Result<bool> {
        if t.arity() != self.schema.arity() {
            return Err(RelError::SchemaMismatch {
                expected: self.schema.describe(),
                found: format!("tuple of arity {}", t.arity()),
            });
        }
        Ok(self.rows.insert(t))
    }

    /// Removes a tuple; returns true if it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        self.rows.remove(t)
    }

    /// Removes every tuple satisfying the predicate; returns how many.
    pub fn retain(&mut self, mut keep: impl FnMut(&Tuple) -> bool) -> usize {
        let before = self.rows.len();
        self.rows.retain(|t| keep(t));
        before - self.rows.len()
    }

    /// If this relation is exactly one row and one column, its value.
    pub fn scalar_value(&self) -> Result<Value> {
        match (self.schema.arity(), self.rows.len(), self.rows.first()) {
            (1, 1, Some(row)) => Ok(row.values()[0].clone()),
            _ => Err(RelError::NotScalar {
                rows: self.rows.len(),
                cols: self.schema.arity(),
            }),
        }
    }

    /// Set union (schemas must be positionally compatible; the left schema
    /// names the result).
    pub fn union(&self, other: &Relation) -> Result<Relation> {
        self.check_compatible(other)?;
        let mut rows = self.rows.clone();
        rows.extend(other.rows.iter().cloned());
        Ok(Relation {
            schema: self.schema.clone(),
            rows,
        })
    }

    /// Set difference `self - other`.
    pub fn difference(&self, other: &Relation) -> Result<Relation> {
        self.check_compatible(other)?;
        let rows = self.rows.difference(&other.rows).cloned().collect();
        Ok(Relation {
            schema: self.schema.clone(),
            rows,
        })
    }

    /// Set intersection.
    pub fn intersection(&self, other: &Relation) -> Result<Relation> {
        self.check_compatible(other)?;
        let rows = self.rows.intersection(&other.rows).cloned().collect();
        Ok(Relation {
            schema: self.schema.clone(),
            rows,
        })
    }

    /// Cross product, with right-hand columns renamed on clashes.
    pub fn cross(&self, other: &Relation) -> Result<Relation> {
        let schema = self.schema.concat(&other.schema)?;
        let mut out = Relation::empty(schema);
        for a in &self.rows {
            for b in &other.rows {
                out.rows.insert(a.concat(b));
            }
        }
        Ok(out)
    }

    /// Projection onto named columns (may duplicate/reorder).
    pub fn project(&self, cols: &[&str]) -> Result<Relation> {
        let indices: Vec<usize> = cols
            .iter()
            .map(|c| self.schema.index_of(c))
            .collect::<Result<_>>()?;
        let mut names = Vec::with_capacity(cols.len());
        for (i, c) in cols.iter().enumerate() {
            // A repeated projection column would collide; disambiguate.
            let mut name = (*c).to_string();
            while names.contains(&name) {
                name = format!("{name}_{i}");
            }
            names.push(name);
        }
        let schema = Schema::new(
            indices
                .iter()
                .zip(&names)
                .map(|(&i, n)| {
                    crate::schema::Column::new(n.clone(), self.schema.columns()[i].dtype)
                })
                .collect(),
        )?;
        let rows = self.rows.iter().map(|t| t.project(&indices)).collect();
        Ok(Relation { schema, rows })
    }

    /// Renames all columns.
    pub fn rename(&self, names: &[String]) -> Result<Relation> {
        Ok(Relation {
            schema: self.schema.renamed(names)?,
            rows: self.rows.clone(),
        })
    }

    fn check_compatible(&self, other: &Relation) -> Result<()> {
        if self.schema.compatible(&other.schema) {
            Ok(())
        } else {
            Err(RelError::SchemaMismatch {
                expected: self.schema.describe(),
                found: other.schema.describe(),
            })
        }
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for t in &self.rows {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use crate::schema::DType;
    use crate::tuple;

    fn stock() -> Relation {
        let schema = Schema::of(&[("name", DType::Str), ("price", DType::Int)]);
        Relation::from_rows(
            schema,
            vec![
                tuple!["IBM", 72i64],
                tuple!["DEC", 45i64],
                tuple!["HP", 310i64],
            ],
        )
        .unwrap()
    }

    /// Rows are a set ordered by `Value`: numerics that differ only above
    /// 2^53, where an `f64` cannot tell them apart, are still distinct rows.
    #[test]
    fn rows_differing_above_2_pow_53_are_all_kept() {
        let big = 1i64 << 53;
        let rows = [
            tuple![Value::Int(big + 1)],
            tuple![Value::Float(big as f64)],
            tuple![Value::Int(big + 2)],
            tuple![Value::Int(big)],
        ];
        let r = Relation::from_rows(Schema::untyped(&["v"]), rows.clone()).unwrap();
        // `Float(2^53)` and `Int(2^53)` are one value; the rest are distinct.
        assert_eq!(r.len(), 3);
        for row in &rows {
            assert!(r.contains(row), "{row:?} was dropped");
        }
    }

    #[test]
    fn insert_checks_arity() {
        let mut r = stock();
        assert!(r.insert(tuple!["X"]).is_err());
        assert!(r.insert(tuple!["X", 1i64]).unwrap());
        assert!(!r.insert(tuple!["X", 1i64]).unwrap(), "set semantics");
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn union_difference_intersection() {
        let a = stock();
        let schema = a.schema().clone();
        let b =
            Relation::from_rows(schema, vec![tuple!["IBM", 72i64], tuple!["SUN", 9i64]]).unwrap();
        assert_eq!(a.union(&b).unwrap().len(), 4);
        assert_eq!(a.difference(&b).unwrap().len(), 2);
        assert_eq!(a.intersection(&b).unwrap().len(), 1);
    }

    #[test]
    fn incompatible_schemas_rejected() {
        let a = stock();
        let b = Relation::empty(Schema::untyped(&["x"]));
        assert!(a.union(&b).is_err());
    }

    #[test]
    fn project_and_rename() {
        let p = stock().project(&["price"]).unwrap();
        assert_eq!(p.schema().arity(), 1);
        assert_eq!(p.len(), 3);
        let r = stock().rename(&["n".into(), "p".into()]).unwrap();
        assert_eq!(r.schema().index_of("p").unwrap(), 1);
    }

    #[test]
    fn cross_product() {
        let a = stock();
        let b =
            Relation::from_rows(Schema::untyped(&["tag"]), vec![tuple!["x"], tuple!["y"]]).unwrap();
        let c = a.cross(&b).unwrap();
        assert_eq!(c.len(), 6);
        assert_eq!(c.schema().arity(), 3);
    }

    #[test]
    fn scalar_extraction() {
        let s = Relation::scalar(Value::Int(5));
        assert_eq!(s.scalar_value().unwrap(), Value::Int(5));
        assert!(stock().scalar_value().is_err());
    }

    #[test]
    fn retain_removes_matching() {
        let mut r = stock();
        let removed = r.retain(|t| t.get(1).unwrap().as_i64().unwrap() < 100);
        assert_eq!(removed, 1);
        assert_eq!(r.len(), 2);
    }
}

//! The database catalog: named relations, scalar data items and named
//! (parameterized) queries.
//!
//! A [`Database`] value is one *database state* in the paper's sense — "a
//! mapping that associates a value from the appropriate domain with each
//! database item". Snapshots are cheap: the three catalog maps, the
//! relations in them, the names and the query definitions all sit behind
//! `Arc`s and are copied on write, so the engine can retain one snapshot
//! per system state without quadratic memory cost. Taking a snapshot is
//! three reference counts; the first write to a map after a snapshot
//! copies that map's nodes (no string, no relation, no query), and the
//! maps nobody writes stay shared.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::error::{RelError, Result};
use crate::query::Query;
use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::value::Value;

/// A named, parameterized query — the paper's function symbol denoting a
/// database query (e.g. `price(x)`, `OVERPRICED`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryDef {
    /// Number of positional parameters `$0..$n-1` the body expects.
    pub arity: usize,
    pub body: Query,
}

impl QueryDef {
    pub fn new(arity: usize, body: Query) -> QueryDef {
        QueryDef { arity, body }
    }
}

/// An immutable-snapshot-friendly database state.
#[derive(Debug, Clone, Default)]
pub struct Database {
    relations: Arc<BTreeMap<Arc<str>, Arc<Relation>>>,
    items: Arc<BTreeMap<Arc<str>, Value>>,
    queries: Arc<BTreeMap<Arc<str>, Arc<QueryDef>>>,
    /// When tracking is armed, every relation/item written through the
    /// mutation API is recorded here (the per-commit delta source).
    changes: Option<BTreeSet<String>>,
}

/// Equality compares the catalog contents only; the transient
/// change-tracking scratch never participates (two states that hold the
/// same data are the same database state).
impl PartialEq for Database {
    fn eq(&self, other: &Database) -> bool {
        self.relations == other.relations
            && self.items == other.items
            && self.queries == other.queries
    }
}

impl Eq for Database {}

impl Database {
    pub fn new() -> Database {
        Database::default()
    }

    // ---- change tracking -------------------------------------------------

    /// Arms change tracking: subsequent writes record the touched relation
    /// and item names until [`Database::take_changes`] disarms it. The
    /// engine brackets a transaction's `apply_all` with this pair to derive
    /// the commit's [`Delta`](crate::Delta).
    pub fn track_changes(&mut self) {
        self.changes = Some(BTreeSet::new());
    }

    /// Disarms tracking and returns the touched names, sorted and
    /// deduplicated. Empty if tracking was never armed.
    pub fn take_changes(&mut self) -> Vec<String> {
        self.changes
            .take()
            .map(|c| c.into_iter().collect())
            .unwrap_or_default()
    }

    fn note_change(&mut self, name: &str) {
        if let Some(c) = self.changes.as_mut() {
            if !c.contains(name) {
                c.insert(name.to_string());
            }
        }
    }

    // ---- relations -------------------------------------------------------

    /// Registers a new base relation. Fails if the name is taken.
    pub fn create_relation(&mut self, name: impl Into<String>, rel: Relation) -> Result<()> {
        let name = name.into();
        if self.relations.contains_key(&*name) || self.items.contains_key(&*name) {
            return Err(RelError::DuplicateColumn(name));
        }
        self.note_change(&name);
        Arc::make_mut(&mut self.relations).insert(name.into(), Arc::new(rel));
        Ok(())
    }

    pub fn relation(&self, name: &str) -> Result<&Relation> {
        self.relations
            .get(name)
            .map(|a| a.as_ref())
            .ok_or_else(|| RelError::UnknownTable(name.to_string()))
    }

    /// Mutable access to a relation (copy-on-write under the snapshot `Arc`).
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut Relation> {
        // Looked up before `make_mut`, here and below, so that an unknown
        // name does not copy a map some snapshot shares.
        if !self.relations.contains_key(name) {
            return Err(RelError::UnknownTable(name.to_string()));
        }
        self.note_change(name);
        Arc::make_mut(&mut self.relations)
            .get_mut(name)
            .map(Arc::make_mut)
            .ok_or_else(|| RelError::UnknownTable(name.to_string()))
    }

    /// Replaces a relation wholesale.
    pub fn set_relation(&mut self, name: &str, rel: Relation) -> Result<()> {
        if !self.relations.contains_key(name) {
            return Err(RelError::UnknownTable(name.to_string()));
        }
        self.note_change(name);
        if let Some(slot) = Arc::make_mut(&mut self.relations).get_mut(name) {
            *slot = Arc::new(rel);
        }
        Ok(())
    }

    /// Drops a base relation, returning whether there was one.
    pub fn remove_relation(&mut self, name: &str) -> bool {
        self.relations.contains_key(name)
            && Arc::make_mut(&mut self.relations).remove(name).is_some()
    }

    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(|k| &**k)
    }

    pub fn insert_tuple(&mut self, name: &str, t: Tuple) -> Result<bool> {
        self.relation_mut(name)?.insert(t)
    }

    pub fn delete_tuple(&mut self, name: &str, t: &Tuple) -> Result<bool> {
        Ok(self.relation_mut(name)?.remove(t))
    }

    // ---- scalar data items ----------------------------------------------

    /// Registers or overwrites a scalar data item (aggregate registers, the
    /// `time` pseudo-item, etc.).
    pub fn set_item(&mut self, name: impl Into<String>, v: Value) {
        let name = name.into();
        self.note_change(&name);
        Arc::make_mut(&mut self.items).insert(name.into(), v);
    }

    /// Removes a scalar data item, returning its value if there was one.
    pub fn remove_item(&mut self, name: &str) -> Option<Value> {
        if !self.items.contains_key(name) {
            return None;
        }
        Arc::make_mut(&mut self.items).remove(name)
    }

    pub fn item(&self, name: &str) -> Result<Value> {
        self.items
            .get(name)
            .cloned()
            .ok_or_else(|| RelError::UnknownItem(name.to_string()))
    }

    pub fn has_item(&self, name: &str) -> bool {
        self.items.contains_key(name)
    }

    pub fn item_names(&self) -> impl Iterator<Item = &str> {
        self.items.keys().map(|k| &**k)
    }

    // ---- named queries (function symbols) --------------------------------

    /// Registers a named query. Named queries are shared across snapshots
    /// (they are schema-level, not state-level, objects).
    pub fn define_query(&mut self, name: impl Into<String>, def: QueryDef) {
        Arc::make_mut(&mut self.queries).insert(name.into().into(), Arc::new(def));
    }

    /// Removes a named query, returning whether there was one.
    pub fn remove_query(&mut self, name: &str) -> bool {
        self.queries.contains_key(name) && Arc::make_mut(&mut self.queries).remove(name).is_some()
    }

    pub fn query_def(&self, name: &str) -> Result<&QueryDef> {
        self.queries
            .get(name)
            .map(|d| d.as_ref())
            .ok_or_else(|| RelError::UnknownTable(name.to_string()))
    }

    /// Iterates all registered query names (for serialization).
    pub fn query_names(&self) -> impl Iterator<Item = &str> {
        self.queries.keys().map(|k| &**k)
    }

    /// Evaluates a named query with arguments, checking arity.
    pub fn eval_named(&self, name: &str, args: &[Value]) -> Result<Relation> {
        let def = self.query_def(name)?;
        if args.len() != def.arity {
            return Err(RelError::Arity {
                name: name.to_string(),
                expected: def.arity,
                found: args.len(),
            });
        }
        def.body.eval(self, args)
    }

    /// Evaluates a named query to a scalar (`Null` on a 1-column empty
    /// result, consistent with [`Query::eval_scalar`]).
    pub fn eval_named_scalar(&self, name: &str, args: &[Value]) -> Result<Value> {
        let def = self.query_def(name)?;
        if args.len() != def.arity {
            return Err(RelError::Arity {
                name: name.to_string(),
                expected: def.arity,
                found: args.len(),
            });
        }
        def.body.eval_scalar(self, args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, ScalarExpr};
    use crate::schema::{DType, Schema};
    use crate::tuple;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_relation(
            "STOCK",
            Relation::from_rows(
                Schema::of(&[("name", DType::Str), ("price", DType::Int)]),
                vec![tuple!["IBM", 72i64]],
            )
            .unwrap(),
        )
        .unwrap();
        db.define_query(
            "price",
            QueryDef::new(
                1,
                Query::table("STOCK")
                    .select(ScalarExpr::cmp(
                        CmpOp::Eq,
                        ScalarExpr::col("name"),
                        ScalarExpr::Param(0),
                    ))
                    .project_cols(&["price"]),
            ),
        );
        db
    }

    #[test]
    fn named_query_checks_arity() {
        let db = db();
        assert_eq!(
            db.eval_named_scalar("price", &[Value::str("IBM")]).unwrap(),
            Value::Int(72)
        );
        assert!(matches!(
            db.eval_named("price", &[]),
            Err(RelError::Arity { .. })
        ));
        assert!(db.eval_named("nope", &[]).is_err());
    }

    #[test]
    fn snapshots_are_independent() {
        let mut a = db();
        let b = a.clone();
        a.insert_tuple("STOCK", tuple!["DEC", 45i64]).unwrap();
        assert_eq!(a.relation("STOCK").unwrap().len(), 2);
        assert_eq!(
            b.relation("STOCK").unwrap().len(),
            1,
            "snapshot must not see the write"
        );
    }

    #[test]
    fn items_set_and_get() {
        let mut d = db();
        assert!(d.item("CUM_PRICE").is_err());
        d.set_item("CUM_PRICE", Value::Int(0));
        assert_eq!(d.item("CUM_PRICE").unwrap(), Value::Int(0));
        assert!(d.has_item("CUM_PRICE"));
        let names: Vec<_> = d.item_names().collect();
        assert_eq!(names, vec!["CUM_PRICE"]);
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut d = db();
        assert!(d
            .create_relation("STOCK", Relation::empty(Schema::untyped(&["x"])))
            .is_err());
    }

    #[test]
    fn change_tracking_records_writes_between_arm_and_take() {
        let mut d = db();
        // Not armed: writes are not recorded.
        d.set_item("X", Value::Int(1));
        assert!(d.take_changes().is_empty());

        d.track_changes();
        d.set_item("X", Value::Int(2));
        d.insert_tuple("STOCK", tuple!["DEC", 45i64]).unwrap();
        d.delete_tuple("STOCK", &tuple!["DEC", 45i64]).unwrap();
        let mut changes = d.take_changes();
        changes.sort();
        assert_eq!(changes, vec!["STOCK".to_string(), "X".to_string()]);
        // Disarmed again.
        d.set_item("Y", Value::Int(3));
        assert!(d.take_changes().is_empty());
    }

    #[test]
    fn tracking_scratch_does_not_affect_equality() {
        let a = db();
        let mut b = db();
        b.track_changes();
        b.set_item("Z", Value::Int(1));
        let _ = b.take_changes();
        assert_ne!(a, b, "data difference still shows");
        let mut c = db();
        c.track_changes();
        assert_eq!(a, c, "armed-but-unused tracking is invisible");
    }

    #[test]
    fn delete_tuple_roundtrip() {
        let mut d = db();
        assert!(d.delete_tuple("STOCK", &tuple!["IBM", 72i64]).unwrap());
        assert!(!d.delete_tuple("STOCK", &tuple!["IBM", 72i64]).unwrap());
        assert!(d.relation("STOCK").unwrap().is_empty());
    }
}

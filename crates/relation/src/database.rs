//! The database catalog: named relations, scalar data items and named
//! (parameterized) queries.
//!
//! A [`Database`] value is one *database state* in the paper's sense — "a
//! mapping that associates a value from the appropriate domain with each
//! database item". A state costs what it changed, so the engine can retain
//! one snapshot per system state. Each of the three catalogs (relations,
//! items, queries) is a persistent map: a sorted name → slot index that is
//! shared until a name is added or removed, and the slot values in
//! `Arc`-shared chunks of `CHUNK`. Taking a snapshot is six reference
//! counts. Writing a name that exists copies the one chunk holding it and
//! the chunk table's pointers (`n / CHUNK` of them), never the map, a
//! name, or an untouched relation; the written relation itself is copied
//! on write behind its own `Arc`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
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

/// Values per catalog chunk: what one write to an existing name copies.
const CHUNK: usize = 8;

/// A persistent name → value map. Slots are dense (`0..len`); slot `s`
/// lives at `chunks[s / CHUNK][s % CHUNK]`. Equality is by content, not by
/// slot layout.
#[derive(Clone)]
struct Catalog<V> {
    /// Sorted name → slot, shared until a name is added or removed.
    index: Arc<BTreeMap<Arc<str>, usize>>,
    chunks: Arc<Vec<Arc<Vec<V>>>>,
}

impl<V> Default for Catalog<V> {
    fn default() -> Self {
        Catalog {
            index: Arc::default(),
            chunks: Arc::default(),
        }
    }
}

impl<V> Catalog<V> {
    fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    fn get(&self, name: &str) -> Option<&V> {
        self.index
            .get(name)
            .map(|&s| &self.chunks[s / CHUNK][s % CHUNK])
    }

    fn iter(&self) -> impl Iterator<Item = (&str, &V)> {
        self.index
            .iter()
            .map(|(k, &s)| (&**k, &self.chunks[s / CHUNK][s % CHUNK]))
    }

    fn names(&self) -> impl Iterator<Item = &str> {
        self.index.keys().map(|k| &**k)
    }
}

impl<V: Clone> Catalog<V> {
    /// Copies the chunk holding `name` (and the chunk table) if a snapshot
    /// shares it; an unknown name copies nothing.
    fn get_mut(&mut self, name: &str) -> Option<&mut V> {
        let s = *self.index.get(name)?;
        let chunk = &mut Arc::make_mut(&mut self.chunks)[s / CHUNK];
        Some(&mut Arc::make_mut(chunk)[s % CHUNK])
    }

    /// Overwrites `name` in place (its key is kept) or appends a slot.
    fn insert(&mut self, name: String, v: V) {
        if let Some(slot) = self.get_mut(&name) {
            *slot = v;
            return;
        }
        let s = self.index.len();
        Arc::make_mut(&mut self.index).insert(name.into(), s);
        let chunks = Arc::make_mut(&mut self.chunks);
        match chunks.last_mut() {
            Some(last) if last.len() < CHUNK => Arc::make_mut(last).push(v),
            _ => chunks.push(Arc::new(vec![v])),
        }
    }

    /// Removes `name`, moving the last slot into its hole so slots stay
    /// dense (registration rollback leaves no dead slot behind).
    fn remove(&mut self, name: &str) -> Option<V> {
        let s = *self.index.get(name)?;
        let index = Arc::make_mut(&mut self.index);
        index.remove(name);
        let last = index.len();
        if let Some(moved) = index.values_mut().find(|slot| **slot == last) {
            *moved = s;
        }
        let chunks = Arc::make_mut(&mut self.chunks);
        let tail = Arc::make_mut(chunks.last_mut()?);
        let mut v = tail.pop()?;
        if tail.is_empty() {
            chunks.pop();
        }
        if s < last {
            std::mem::swap(
                &mut v,
                &mut Arc::make_mut(&mut chunks[s / CHUNK])[s % CHUNK],
            );
        }
        Some(v)
    }
}

impl<V: PartialEq> PartialEq for Catalog<V> {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.index, &other.index) {
            // Same slot layout: compare chunk by chunk, shared ones for free.
            return self
                .chunks
                .iter()
                .zip(other.chunks.iter())
                .all(|(a, b)| Arc::ptr_eq(a, b) || a == b);
        }
        self.index.len() == other.index.len() && self.iter().eq(other.iter())
    }
}

impl<V: fmt::Debug> fmt::Debug for Catalog<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// An immutable-snapshot-friendly database state.
#[derive(Debug, Clone, Default)]
pub struct Database {
    relations: Catalog<Arc<Relation>>,
    items: Catalog<Value>,
    queries: Catalog<Arc<QueryDef>>,
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
        if self.relations.contains(&name) || self.items.contains(&name) {
            return Err(RelError::NameTaken(name));
        }
        self.note_change(&name);
        self.relations.insert(name, Arc::new(rel));
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
        if !self.relations.contains(name) {
            return Err(RelError::UnknownTable(name.to_string()));
        }
        self.note_change(name);
        self.relations
            .get_mut(name)
            .map(Arc::make_mut)
            .ok_or_else(|| RelError::UnknownTable(name.to_string()))
    }

    /// Drops a base relation, returning whether there was one.
    pub fn remove_relation(&mut self, name: &str) -> bool {
        self.relations.remove(name).is_some()
    }

    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.names()
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
        self.items.insert(name, v);
    }

    /// Removes a scalar data item, returning its value if there was one.
    pub fn remove_item(&mut self, name: &str) -> Option<Value> {
        self.items.remove(name)
    }

    pub fn item(&self, name: &str) -> Result<Value> {
        self.items
            .get(name)
            .cloned()
            .ok_or_else(|| RelError::UnknownItem(name.to_string()))
    }

    pub fn has_item(&self, name: &str) -> bool {
        self.items.contains(name)
    }

    pub fn item_names(&self) -> impl Iterator<Item = &str> {
        self.items.names()
    }

    // ---- named queries (function symbols) --------------------------------

    /// Registers a named query. Named queries are shared across snapshots
    /// (they are schema-level, not state-level, objects).
    pub fn define_query(&mut self, name: impl Into<String>, def: QueryDef) {
        self.queries.insert(name.into(), Arc::new(def));
    }

    /// Removes a named query, returning whether there was one.
    pub fn remove_query(&mut self, name: &str) -> bool {
        self.queries.remove(name).is_some()
    }

    pub fn query_def(&self, name: &str) -> Result<&QueryDef> {
        self.queries
            .get(name)
            .map(|d| d.as_ref())
            .ok_or_else(|| RelError::UnknownTable(name.to_string()))
    }

    /// Iterates all registered query names (for serialization).
    pub fn query_names(&self) -> impl Iterator<Item = &str> {
        self.queries.names()
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
#[allow(clippy::disallowed_methods)] // tests may unwrap
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
        d.set_item("W0", Value::Int(0));
        for taken in ["STOCK", "W0"] {
            let err = d
                .create_relation(taken, Relation::empty(Schema::untyped(&["x"])))
                .unwrap_err();
            assert_eq!(err, RelError::NameTaken(taken.into()));
            assert_eq!(
                err.to_string(),
                format!("`{taken}` already names a relation or data item")
            );
        }
        assert_eq!(d.relation("STOCK").unwrap().len(), 1, "original kept");
    }

    #[test]
    fn removal_keeps_slots_dense_and_equality_ignores_layout() {
        let rel = |n: i64| Relation::from_rows(Schema::untyped(&["x"]), vec![tuple![n]]).unwrap();
        let mut a = Database::new();
        for i in 0..20 {
            a.create_relation(format!("R{i:02}"), rel(i)).unwrap();
        }
        let snapshot = a.clone();
        // Remove from the middle, the front and the back, then re-add: the
        // last slot fills each hole, so 20 names use exactly 20 slots.
        for name in ["R07", "R00", "R19"] {
            assert!(a.remove_relation(name));
            assert!(!a.remove_relation(name));
        }
        assert_eq!(
            a.relations.chunks.iter().map(|c| c.len()).sum::<usize>(),
            17
        );
        for name in ["R19", "R00", "R07"] {
            let i = name[1..].parse().unwrap();
            a.create_relation(name, rel(i)).unwrap();
        }
        assert_eq!(a.relations.chunks.len(), 20usize.div_ceil(CHUNK));
        assert!(!Arc::ptr_eq(&a.relations.index, &snapshot.relations.index));
        assert_eq!(a, snapshot, "same contents, different slot layout");
        let names: Vec<_> = a.relation_names().collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]));
        for i in 0..20 {
            assert_eq!(a.relation(&format!("R{i:02}")).unwrap(), &rel(i));
        }
        a.insert_tuple("R05", tuple![99i64]).unwrap();
        assert_ne!(a, snapshot);
        assert_eq!(snapshot.relation("R05").unwrap().len(), 1);
    }

    #[test]
    fn overwriting_an_item_copies_one_chunk_and_keeps_its_key() {
        let mut a = Database::new();
        for i in 0..3 * CHUNK {
            a.set_item(format!("x{i:02}"), Value::Int(0));
        }
        let snapshot = a.clone();
        a.set_item("x00", Value::Int(1));
        assert!(Arc::ptr_eq(&a.items.index, &snapshot.items.index));
        let shared = a.items.chunks.iter().zip(snapshot.items.chunks.iter());
        let copied = shared.filter(|(x, y)| !Arc::ptr_eq(x, y)).count();
        assert_eq!(copied, 1);
        assert_eq!(snapshot.item("x00").unwrap(), Value::Int(0));
        assert_eq!(a.item("x00").unwrap(), Value::Int(1));
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

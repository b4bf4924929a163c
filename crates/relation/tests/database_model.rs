//! Model-based property test: `Database` against plain `BTreeMap`s.
//!
//! A random sequence of catalog operations drives a `Database` and a model
//! side by side, taking snapshots of both at random points. After every
//! operation the database must read what the model holds, every retained
//! snapshot must still read what the model held when it was taken, the
//! name iterators must come out sorted, and `==` on databases must agree
//! with `==` on models — including equal contents reached by different
//! paths (remove then re-add, a different insertion order).

#![allow(clippy::disallowed_methods)] // tests may unwrap

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use tdb_relation::{Database, Query, QueryDef, Relation, Schema, Tuple, Value};

/// Enough names to spread each catalog over several chunks.
const NAMES: u8 = 20;

#[derive(Debug, Clone, Copy)]
enum Op {
    CreateRelation(u8),
    RemoveRelation(u8),
    Insert(u8, i64),
    Delete(u8, i64),
    SetItem(u8, i64),
    RemoveItem(u8),
    DefineQuery(u8, usize),
    RemoveQuery(u8),
    Snapshot,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..NAMES).prop_map(Op::CreateRelation),
        (0..NAMES).prop_map(Op::RemoveRelation),
        (0..NAMES, 0i64..3).prop_map(|(n, v)| Op::Insert(n, v)),
        (0..NAMES, 0i64..3).prop_map(|(n, v)| Op::Delete(n, v)),
        (0..NAMES, 0i64..3).prop_map(|(n, v)| Op::SetItem(n, v)),
        (0..NAMES).prop_map(Op::RemoveItem),
        (0..NAMES, 0usize..2).prop_map(|(n, a)| Op::DefineQuery(n, a)),
        (0..NAMES).prop_map(Op::RemoveQuery),
        Just(Op::Snapshot),
    ]
}

fn name(n: u8) -> String {
    format!("n{n:02}")
}

fn row(v: i64) -> Tuple {
    Tuple::new(vec![Value::Int(v)])
}

fn query(arity: usize) -> QueryDef {
    QueryDef::new(arity, Query::item("n00"))
}

#[derive(Debug, Clone, Default, PartialEq)]
struct Model {
    relations: BTreeMap<String, BTreeSet<Tuple>>,
    items: BTreeMap<String, Value>,
    queries: BTreeMap<String, QueryDef>,
}

impl Model {
    /// Everything `db` holds, read through the public API only.
    fn read(db: &Database) -> Model {
        for names in [
            db.relation_names().collect::<Vec<_>>(),
            db.item_names().collect(),
            db.query_names().collect(),
        ] {
            assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?} unsorted");
        }
        Model {
            relations: db
                .relation_names()
                .map(|n| {
                    (
                        n.to_string(),
                        db.relation(n).unwrap().iter().cloned().collect(),
                    )
                })
                .collect(),
            items: db
                .item_names()
                .map(|n| (n.to_string(), db.item(n).unwrap()))
                .collect(),
            queries: db
                .query_names()
                .map(|n| (n.to_string(), db.query_def(n).unwrap().clone()))
                .collect(),
        }
    }

    /// The same contents built from scratch, each catalog in reverse order.
    fn build_reversed(&self) -> Database {
        let mut db = Database::new();
        for (n, rows) in self.relations.iter().rev() {
            let rel = Relation::from_rows(Schema::untyped(&["v"]), rows.iter().cloned());
            db.create_relation(n.clone(), rel.unwrap()).unwrap();
        }
        for (n, v) in self.items.iter().rev() {
            db.set_item(n.clone(), v.clone());
        }
        for (n, q) in self.queries.iter().rev() {
            db.define_query(n.clone(), q.clone());
        }
        db
    }
}

/// Applies `op` to both sides, checking the results agree.
fn step(db: &mut Database, m: &mut Model, op: Op) {
    match op {
        Op::CreateRelation(n) => {
            let n = name(n);
            let taken = m.relations.contains_key(&n) || m.items.contains_key(&n);
            let rel = Relation::empty(Schema::untyped(&["v"]));
            assert_eq!(db.create_relation(n.clone(), rel).is_ok(), !taken);
            if !taken {
                m.relations.insert(n, BTreeSet::new());
            }
        }
        Op::RemoveRelation(n) => {
            let n = name(n);
            assert_eq!(db.remove_relation(&n), m.relations.remove(&n).is_some());
        }
        Op::Insert(n, v) => {
            let n = name(n);
            let got = db.insert_tuple(&n, row(v)).ok();
            assert_eq!(got, m.relations.get_mut(&n).map(|r| r.insert(row(v))));
        }
        Op::Delete(n, v) => {
            let n = name(n);
            let got = db.delete_tuple(&n, &row(v)).ok();
            assert_eq!(got, m.relations.get_mut(&n).map(|r| r.remove(&row(v))));
        }
        Op::SetItem(n, v) => {
            db.set_item(name(n), Value::Int(v));
            m.items.insert(name(n), Value::Int(v));
        }
        Op::RemoveItem(n) => {
            assert_eq!(db.remove_item(&name(n)), m.items.remove(&name(n)));
        }
        Op::DefineQuery(n, arity) => {
            db.define_query(name(n), query(arity));
            m.queries.insert(name(n), query(arity));
        }
        Op::RemoveQuery(n) => {
            assert_eq!(
                db.remove_query(&name(n)),
                m.queries.remove(&name(n)).is_some()
            );
        }
        Op::Snapshot => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn database_agrees_with_a_btreemap_model(
        ops in proptest::collection::vec(op_strategy(), 0..200),
    ) {
        let mut db = Database::new();
        let mut model = Model::default();
        let mut snapshots: Vec<(Database, Model)> = vec![(db.clone(), model.clone())];
        for op in ops {
            step(&mut db, &mut model, op);
            prop_assert_eq!(&Model::read(&db), &model, "after {:?}", op);
            if let Op::Snapshot = op {
                snapshots.push((db.clone(), model.clone()));
            }
        }
        snapshots.push((db.clone(), model.clone()));
        for (snap, then) in &snapshots {
            prop_assert_eq!(&Model::read(snap), then, "a snapshot changed");
            prop_assert_eq!(&then.build_reversed(), snap);
        }
        for (a, ma) in &snapshots {
            for (b, mb) in &snapshots {
                prop_assert_eq!(a == b, ma == mb, "{:?} vs {:?}", ma, mb);
            }
        }
    }
}

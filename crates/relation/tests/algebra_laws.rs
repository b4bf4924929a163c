//! Property tests: algebraic laws of the relational substrate.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use proptest::prelude::*;

use tdb_relation::{
    parse_query, tuple, AggFunc, Database, QueryDef, Relation, Schema, Tuple, Value,
};

fn small_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-5i64..5).prop_map(Value::Int),
        "[a-c]".prop_map(Value::str),
        Just(Value::Null),
    ]
}

fn relation_strategy() -> impl Strategy<Value = Relation> {
    proptest::collection::vec((small_value(), small_value()), 0..8).prop_map(|rows| {
        Relation::from_rows(
            Schema::untyped(&["a", "b"]),
            rows.into_iter().map(|(a, b)| Tuple::new(vec![a, b])),
        )
        .expect("arity matches")
    })
}

proptest! {
    #[test]
    fn union_is_commutative_and_idempotent(
        r in relation_strategy(),
        s in relation_strategy(),
    ) {
        prop_assert_eq!(r.union(&s).unwrap(), s.union(&r).unwrap());
        prop_assert_eq!(r.union(&r).unwrap(), r.clone());
    }

    #[test]
    fn difference_laws(r in relation_strategy(), s in relation_strategy()) {
        let d = r.difference(&s).unwrap();
        // d ⊆ r and d ∩ s = ∅.
        prop_assert!(d.iter().all(|t| r.contains(t)));
        prop_assert!(d.iter().all(|t| !s.contains(t)));
        // r = (r − s) ∪ (r ∩ s).
        let back = d.union(&r.intersection(&s).unwrap()).unwrap();
        prop_assert_eq!(back, r.clone());
        // r − r = ∅.
        prop_assert!(r.difference(&r).unwrap().is_empty());
    }

    #[test]
    fn intersection_via_difference(r in relation_strategy(), s in relation_strategy()) {
        // r ∩ s = r − (r − s).
        let lhs = r.intersection(&s).unwrap();
        let rhs = r.difference(&r.difference(&s).unwrap()).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn cross_product_cardinality(r in relation_strategy(), s in relation_strategy()) {
        // |r × s| = |r|·|s| when the row sets have no duplicates — always
        // true here because relations are sets and concatenated rows of
        // distinct pairs stay distinct.
        let c = r.cross(&s).unwrap();
        prop_assert_eq!(c.len(), r.len() * s.len());
    }

    #[test]
    fn projection_never_grows(r in relation_strategy()) {
        let p = r.project(&["b"]).unwrap();
        prop_assert!(p.len() <= r.len());
        let p2 = r.project(&["a", "b"]).unwrap();
        prop_assert_eq!(p2.len(), r.len());
    }

    #[test]
    fn selection_splits_relation(r in relation_strategy()) {
        // σ_pred(r) ∪ σ_¬pred(r) = r for a total predicate.
        let mut db = Database::new();
        db.create_relation("R", r.clone()).unwrap();
        let yes = parse_query("select * from R where a <= 0").unwrap();
        let no = parse_query("select * from R where not (a <= 0)").unwrap();
        let yes = yes.eval(&db, &[]).unwrap();
        let no = no.eval(&db, &[]).unwrap();
        prop_assert_eq!(yes.union(&no).unwrap().len(), r.len());
    }

    #[test]
    fn count_aggregate_matches_len(r in relation_strategy()) {
        let mut db = Database::new();
        db.create_relation("R", r.clone()).unwrap();
        db.define_query(
            "n",
            QueryDef::new(0, parse_query("select count(*) as n from R").unwrap()),
        );
        let v = db.eval_named_scalar("n", &[]).unwrap();
        prop_assert_eq!(v, Value::Int(r.len() as i64));
    }

    #[test]
    fn group_by_partitions(r in relation_strategy()) {
        let mut db = Database::new();
        db.create_relation("R", r.clone()).unwrap();
        let q = parse_query("select a, count(*) as n from R group by a").unwrap();
        let grouped = q.eval(&db, &[]).unwrap();
        let total: i64 = grouped
            .iter()
            .map(|t| t.get(1).unwrap().as_i64().unwrap())
            .sum();
        prop_assert_eq!(total, r.len() as i64);
    }
}

#[test]
fn agg_min_max_bound_every_value() {
    let vals: Vec<Value> = (0..20).map(|i| Value::Int((i * 7) % 13)).collect();
    let min = AggFunc::Min.apply(vals.clone()).unwrap();
    let max = AggFunc::Max.apply(vals.clone()).unwrap();
    for v in &vals {
        assert!(min <= *v && *v <= max);
    }
}

#[test]
fn snapshot_isolation_under_many_writes() {
    let mut db = Database::new();
    db.create_relation("R", Relation::empty(Schema::untyped(&["x"])))
        .unwrap();
    let snaps: Vec<Database> = (0..10)
        .map(|i| {
            db.insert_tuple("R", tuple![i as i64]).unwrap();
            db.clone()
        })
        .collect();
    for (i, s) in snaps.iter().enumerate() {
        assert_eq!(
            s.relation("R").unwrap().len(),
            i + 1,
            "snapshot {i} is frozen"
        );
    }
}

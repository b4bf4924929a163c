//! Property tests: engine invariants under random transaction scripts.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use proptest::prelude::*;

use tdb_engine::{Engine, EngineError, TxnId, WriteOp};
use tdb_relation::{Database, Query, QueryDef, Value};

#[derive(Debug, Clone, Copy)]
enum Step {
    Begin,
    Write { txn: u8, item: u8, value: i8 },
    Commit { txn: u8 },
    Abort { txn: u8 },
    Tick { by: u8 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::Begin),
        (any::<u8>(), 0u8..4, any::<i8>()).prop_map(|(txn, item, value)| Step::Write {
            txn,
            item,
            value
        }),
        any::<u8>().prop_map(|txn| Step::Commit { txn }),
        any::<u8>().prop_map(|txn| Step::Abort { txn }),
        (1u8..5).prop_map(|by| Step::Tick { by }),
    ]
}

fn base_db() -> Database {
    let mut db = Database::new();
    for i in 0..4 {
        db.set_item(format!("x{i}"), Value::Int(0));
        db.define_query(
            format!("x{i}_q"),
            QueryDef::new(0, Query::item(format!("x{i}"))),
        );
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// After any script: timestamps strictly increase, at most one commit
    /// per state, the database changes only at commits, and aborted
    /// transactions leave no trace.
    #[test]
    fn histories_satisfy_the_paper_invariants(
        steps in proptest::collection::vec(step_strategy(), 0..40),
    ) {
        let mut e = Engine::new(base_db());
        let mut open: Vec<TxnId> = Vec::new();
        let mut committed_writes: Vec<(String, i64)> = Vec::new();
        let mut pending: std::collections::BTreeMap<TxnId, Vec<(String, i64)>> =
            Default::default();
        for s in &steps {
            match *s {
                Step::Begin => {
                    let t = e.begin().unwrap();
                    open.push(t);
                    pending.insert(t, Vec::new());
                }
                Step::Write { txn, item, value } => {
                    if open.is_empty() { continue; }
                    let t = open[txn as usize % open.len()];
                    let item = format!("x{}", item % 4);
                    e.write(t, WriteOp::SetItem {
                        item: item.clone(),
                        value: Value::Int(i64::from(value)),
                    }).unwrap();
                    pending.get_mut(&t).unwrap().push((item, i64::from(value)));
                }
                Step::Commit { txn } => {
                    if open.is_empty() { continue; }
                    let k = txn as usize % open.len();
                    let t = open.remove(k);
                    let p = e.prepare_commit(t).unwrap();
                    e.finish_commit(p).unwrap();
                    committed_writes.extend(pending.remove(&t).unwrap());
                }
                Step::Abort { txn } => {
                    if open.is_empty() { continue; }
                    let k = txn as usize % open.len();
                    let t = open.remove(k);
                    e.abort(t).unwrap();
                    pending.remove(&t);
                }
                Step::Tick { by } => {
                    e.advance_clock(i64::from(by)).unwrap();
                }
            }
        }
        // Invariant 1+2 are enforced by History::push (would panic).
        // Invariant 3: db changes only at commits.
        prop_assert!(e.history().validate_transaction_time().is_ok());
        // Invariant 4: the final value of each item is the last committed
        // write (uncommitted/aborted writes invisible).
        let mut expect: std::collections::BTreeMap<String, i64> = Default::default();
        for (item, v) in committed_writes {
            expect.insert(item, v);
        }
        for i in 0..4 {
            let item = format!("x{i}");
            let got = e.db().item(&item).unwrap().as_i64().unwrap();
            prop_assert_eq!(got, *expect.get(&item).unwrap_or(&0), "{}", item);
        }
        // Timestamps strictly increase.
        let mut last = None;
        for (_, s) in e.history().iter() {
            if let Some(prev) = last {
                prop_assert!(s.time() > prev);
            }
            last = Some(s.time());
        }
    }

    /// Prepared commits are all-or-nothing even when interleaved with other
    /// transactions' writes.
    #[test]
    fn prepare_then_abort_leaves_no_trace(values in proptest::collection::vec(any::<i8>(), 1..6)) {
        let mut e = Engine::new(base_db());
        let before = e.db().clone();
        let t = e.begin().unwrap();
        for (i, v) in values.iter().enumerate() {
            e.write(t, WriteOp::SetItem {
                item: format!("x{}", i % 4),
                value: Value::Int(i64::from(*v)),
            }).unwrap();
        }
        let p = e.prepare_commit(t).unwrap();
        e.abort_prepared(p).unwrap();
        for i in 0..4 {
            prop_assert_eq!(
                e.db().item(&format!("x{i}")).unwrap(),
                before.item(&format!("x{i}")).unwrap()
            );
        }
    }
}

#[test]
fn clock_rejection_is_clean() {
    let mut e = Engine::new(base_db());
    e.advance_clock(5).unwrap();
    let err = e.advance_clock_to(tdb_relation::Timestamp(3)).unwrap_err();
    assert!(matches!(err, EngineError::ClockNotMonotonic { .. }));
    // The engine is still usable.
    e.advance_clock(1).unwrap();
    e.tick().unwrap();
}

#[test]
fn capped_history_engine_still_works() {
    let mut e = Engine::new(base_db());
    for i in 0..20i64 {
        let idx = e
            .apply_update([WriteOp::SetItem {
                item: "x0".into(),
                value: Value::Int(i),
            }])
            .unwrap();
        // Keep the last four states, as a holder that dispatched the rest
        // would.
        e.release_before((idx + 1).saturating_sub(4));
    }
    assert_eq!(e.history().len(), 21);
    assert_eq!(e.history().retained(), 4);
    assert_eq!(e.db().item("x0").unwrap(), Value::Int(19));
    // The engine reads only the last state: it keeps emitting in order.
    e.tick().unwrap();
    e.history().validate_transaction_time().unwrap();
}

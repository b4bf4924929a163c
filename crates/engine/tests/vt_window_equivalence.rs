//! Differential property test for the valid-time engine's maintained
//! tentative window: after any interleaving of stream ingests (in-order,
//! late, same-instant), transactional updates, commits, aborts, clock
//! advances, compactions and rejected inputs, the window equals the
//! from-scratch materialization state for state — database, events and
//! timestamp.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use proptest::prelude::*;

use tdb_engine::{TxnId, VtEngine, WriteOp};
use tdb_relation::{tuple, Database, Relation, Schema, Timestamp, Value};

const DELTA: i64 = 6;

#[derive(Debug, Clone, Copy)]
enum Step {
    Advance {
        by: u8,
    },
    /// Stream ingest `lag` instants back (0 = in order; a repeated instant
    /// merges into the existing state).
    Ingest {
        lag: u8,
        item: u8,
        value: i8,
    },
    /// Stream ingest of a row replacement, so relations change too.
    IngestRow {
        lag: u8,
        key: u8,
        value: i8,
    },
    /// An op that cannot apply: must be rejected without a trace.
    IngestUnknownRelation {
        lag: u8,
    },
    Begin,
    UpdateAt {
        txn: u8,
        lag: u8,
        item: u8,
        value: i8,
    },
    Commit {
        txn: u8,
    },
    Abort {
        txn: u8,
    },
    Compact,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u8..4).prop_map(|by| Step::Advance { by }),
        // Listed twice: stream ingests are the common case.
        (0u8..8, 0u8..3, any::<i8>()).prop_map(|(lag, item, value)| Step::Ingest {
            lag,
            item,
            value
        }),
        (0u8..8, 0u8..3, any::<i8>()).prop_map(|(lag, item, value)| Step::Ingest {
            lag,
            item,
            value
        }),
        (0u8..8, 0u8..2, any::<i8>()).prop_map(|(lag, key, value)| Step::IngestRow {
            lag,
            key,
            value
        }),
        (0u8..8).prop_map(|lag| Step::IngestUnknownRelation { lag }),
        Just(Step::Begin),
        (any::<u8>(), 0u8..8, 0u8..3, any::<i8>()).prop_map(|(txn, lag, item, value)| {
            Step::UpdateAt {
                txn,
                lag,
                item,
                value,
            }
        }),
        any::<u8>().prop_map(|txn| Step::Commit { txn }),
        any::<u8>().prop_map(|txn| Step::Abort { txn }),
        Just(Step::Compact),
    ]
}

fn base_db() -> Database {
    let mut db = Database::new();
    for i in 0..3 {
        db.set_item(format!("x{i}"), Value::Int(0));
    }
    db.create_relation("R", Relation::empty(Schema::untyped(&["k", "v"])))
        .unwrap();
    db
}

fn set(item: u8, value: i8) -> WriteOp {
    WriteOp::SetItem {
        item: format!("x{item}"),
        value: Value::Int(i64::from(value)),
    }
}

/// The window must be the from-scratch tentative history, state for state.
fn assert_window_is_materialization(e: &VtEngine, after: &Step) {
    let window = e.tentative_window();
    let oracle = e.tentative_history();
    assert_eq!(window.len(), e.state_count(), "after {after:?}");
    assert_eq!(window.len(), oracle.len(), "after {after:?}");
    for i in 0..oracle.len() {
        assert_eq!(
            window.get(i),
            oracle.get(i),
            "state {i} diverges after {after:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn maintained_window_equals_from_scratch_materialization(
        steps in proptest::collection::vec(step_strategy(), 1..60),
    ) {
        let mut e = VtEngine::new(base_db(), DELTA);
        let mut open: Vec<TxnId> = Vec::new();
        // What the row replacement deletes: the last value written per key.
        let mut rows: [Option<i8>; 2] = [None, None];
        for s in &steps {
            let at = |lag: u8| Timestamp(e.now().0 - i64::from(lag));
            match *s {
                Step::Advance { by } => {
                    e.advance_clock(i64::from(by)).unwrap();
                }
                Step::Ingest { lag, item, value } => {
                    // Outside the Δ window this is a typed rejection.
                    let _ = e.ingest_committed(vec![set(item, value)], at(lag));
                }
                Step::IngestRow { lag, key, value } => {
                    let mut ops = Vec::new();
                    if let Some(old) = rows[usize::from(key)] {
                        ops.push(WriteOp::Delete {
                            relation: "R".into(),
                            tuple: tuple![i64::from(key), i64::from(old)],
                        });
                    }
                    ops.push(WriteOp::Insert {
                        relation: "R".into(),
                        tuple: tuple![i64::from(key), i64::from(value)],
                    });
                    if e.ingest_committed(ops, at(lag)).is_ok() {
                        rows[usize::from(key)] = Some(value);
                    }
                }
                Step::IngestUnknownRelation { lag } => {
                    let before = (e.state_count(), e.tentative_history());
                    let r = e.ingest_committed(
                        vec![
                            set(0, 1),
                            WriteOp::Insert {
                                relation: "nope".into(),
                                tuple: tuple![1i64],
                            },
                        ],
                        at(lag),
                    );
                    prop_assert!(r.is_err());
                    prop_assert_eq!(e.state_count(), before.0);
                    for i in 0..before.1.len() {
                        prop_assert_eq!(e.tentative_window().get(i), before.1.get(i));
                    }
                }
                Step::Begin => {
                    if open.len() < 3 {
                        open.push(e.begin().unwrap());
                    }
                }
                Step::UpdateAt { txn, lag, item, value } => {
                    if !open.is_empty() {
                        let t = open[usize::from(txn) % open.len()];
                        let _ = e.update_at(t, set(item, value), at(lag));
                    }
                }
                Step::Commit { txn } => {
                    if !open.is_empty() {
                        let t = open.remove(usize::from(txn) % open.len());
                        e.commit(t).unwrap();
                    }
                }
                Step::Abort { txn } => {
                    if !open.is_empty() {
                        let t = open.remove(usize::from(txn) % open.len());
                        e.abort(t).unwrap();
                    }
                }
                Step::Compact => {
                    // Blocked while an undecided update sits in the prefix;
                    // either way the views must not move.
                    let _ = e.compact_before(e.definite_frontier());
                }
            }
            assert_window_is_materialization(&e, s);
        }
    }
}

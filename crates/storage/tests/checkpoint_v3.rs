//! Older checkpoint formats still read. `TDBCKPT3` checkpoints were written
//! while temporal aggregates were rewritten into register items and
//! generated helper rules: one without an aggregate restores and resumes;
//! one whose aggregate had helper rules restores as a typed mismatch, not a
//! panic. A `TDBCKPT4` checkpoint (every carried history state written
//! inline) restores and resumes with its aggregate slot. Each fixture was
//! written by its format over the catalogs below after the `drive` script.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use std::path::PathBuf;

use tdb_core::{Action, ActiveDatabase, CoreError, ManagerConfig, Rule};
use tdb_engine::{Event, WriteOp};
use tdb_ptl::parse_formula;
use tdb_relation::{Database, Query, QueryDef, Value};
use tdb_storage::{read_checkpoint, StorageError};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn db() -> Database {
    let mut db = Database::new();
    db.set_item("n", Value::Int(0));
    db.define_query("n", QueryDef::new(0, Query::item("n")));
    db
}

fn catalog(aggregate: bool) -> Vec<Rule> {
    let mut rules = vec![Rule::trigger(
        "high",
        parse_formula("n() >= 60").unwrap(),
        Action::Notify,
    )];
    if aggregate {
        rules.push(Rule::trigger(
            "mean",
            parse_formula("avg(n(); time = 0; @mark) > 50").unwrap(),
            Action::Notify,
        ));
    }
    rules
}

fn drive(adb: &mut ActiveDatabase, values: &[i64]) {
    for &v in values {
        adb.advance_clock(1).unwrap();
        adb.update([WriteOp::SetItem {
            item: "n".into(),
            value: Value::Int(v),
        }])
        .unwrap();
        adb.emit(Event::simple("mark")).unwrap();
    }
}

const SCRIPT: [i64; 6] = [10, 70, 20, 90, 55, 65];

#[test]
fn v3_checkpoint_without_aggregates_restores_and_resumes() {
    let path = fixture("ckpt-v3-plain.bin");
    // The file names its rules; a catalog without them is a typed error.
    let err = read_checkpoint(&path, &[]).unwrap_err();
    assert!(
        matches!(&err, StorageError::Core(CoreError::NoSuchRule(n)) if n == "high"),
        "{err}"
    );
    let (seq, snap) = read_checkpoint(&path, &catalog(false)).unwrap();
    assert_eq!(seq, 0);
    assert!(snap.rules.iter().all(|r| r.evaluator.slots.is_empty()));
    let mut restored = ActiveDatabase::restore(snap, ManagerConfig::default()).unwrap();
    let mut reference = ActiveDatabase::new(db());
    for r in catalog(false) {
        reference.add_rule(r).unwrap();
    }
    drive(&mut reference, &SCRIPT);
    for adb in [&mut restored, &mut reference] {
        drive(adb, &[5, 80]);
    }
    assert_eq!(restored.db(), reference.db());
    assert_eq!(restored.firings(), reference.firings());
    assert_eq!(restored.firings().len(), 4);
}

#[test]
fn v4_checkpoint_with_an_aggregate_restores_and_resumes() {
    let path = fixture("ckpt-v4-aggregate.bin");
    assert_eq!(&std::fs::read(&path).unwrap()[..8], b"TDBCKPT4");
    let (seq, snap) = read_checkpoint(&path, &catalog(true)).unwrap();
    assert_eq!(seq, 0);
    assert!(snap.rules.iter().any(|r| !r.evaluator.slots.is_empty()));
    let mut restored = ActiveDatabase::restore(snap, ManagerConfig::default()).unwrap();
    let mut reference = ActiveDatabase::new(db());
    for r in catalog(true) {
        reference.add_rule(r).unwrap();
    }
    drive(&mut reference, &SCRIPT);
    for adb in [&mut restored, &mut reference] {
        drive(adb, &[5, 80]);
    }
    assert_eq!(restored.db(), reference.db());
    assert_eq!(restored.firings(), reference.firings());
    assert!(restored.firings().iter().any(|f| f.rule == "mean"));
}

#[test]
fn v3_checkpoint_with_aggregate_helpers_is_a_typed_restore_mismatch() {
    let (_, snap) = read_checkpoint(&fixture("ckpt-v3-aggregate.bin"), &catalog(true)).unwrap();
    assert!(
        snap.rules.len() > snap.registered.len(),
        "the fixture's catalog carried helper rules"
    );
    let err = ActiveDatabase::restore(snap, ManagerConfig::default()).unwrap_err();
    assert!(matches!(err, CoreError::RestoreMismatch(_)), "{err}");
}

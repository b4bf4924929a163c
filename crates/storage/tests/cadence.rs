//! Checkpoint cadence of [`FileStorage`]: with no budget, a checkpoint is
//! due once the log since the last one outweighs it and
//! [`MIN_CHECKPOINT_BYTES`] (and a resumed storage knows the newest
//! checkpoint's weight); with the default budget, after 256 input ops or
//! 1 MiB of log, as before.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use std::path::{Path, PathBuf};

use tdb_core::{Action, ActiveDatabase, LogicalOp, ManagerConfig, Rule, SyncPolicy, WalSink};
use tdb_engine::WriteOp;
use tdb_ptl::parse_formula;
use tdb_relation::{parse_query, Database, QueryDef, Relation, Schema, Tuple, Value};
use tdb_storage::checkpoint::{checkpoint_file_name, checkpoint_len};
use tdb_storage::codec::encode_logical_op;
use tdb_storage::wal::{segment_file_name, RECORD_HEADER, WAL_HEADER};
use tdb_storage::{recover, CheckpointPolicy, FileStorage, MIN_CHECKPOINT_BYTES};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tdb-cadence-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn no_budget() -> CheckpointPolicy {
    CheckpointPolicy {
        every_ops: 0,
        every_bytes: 0,
        sync: SyncPolicy::Never,
    }
}

fn base_db() -> Database {
    let mut db = Database::new();
    db.create_relation("R", Relation::empty(Schema::untyped(&["v"])))
        .unwrap();
    db.set_item("cap", Value::Int(10));
    db.define_query("cap_q", QueryDef::new(0, parse_query("item cap").unwrap()));
    db
}

/// A rule no state satisfies, so the checkpoint's firing log stays empty
/// and the checkpoint grows with the rows alone.
fn catalog() -> Vec<Rule> {
    vec![Rule::trigger(
        "never",
        parse_formula("cap_q() > 100").unwrap(),
        Action::Notify,
    )]
}

/// The insert of row `i`: the checkpoint grows with every row, each log
/// record weighs the same.
fn row(i: i64) -> WriteOp {
    WriteOp::Insert {
        relation: "R".into(),
        tuple: Tuple::new(vec![Value::Int(i)]),
    }
}

fn insert(i: i64) -> LogicalOp {
    LogicalOp::Update { ops: vec![row(i)] }
}

fn record_len() -> u64 {
    (RECORD_HEADER + encode_logical_op(&insert(0)).len()) as u64
}

fn segment_bytes(dir: &Path, seq: u64) -> u64 {
    std::fs::metadata(dir.join(segment_file_name(seq)))
        .unwrap()
        .len()
        - WAL_HEADER as u64
}

/// The rule is registered before the storage attaches, so every log record
/// is an insert.
fn durable(dir: &Path, policy: CheckpointPolicy) -> ActiveDatabase {
    let mut adb = ActiveDatabase::new(base_db());
    for r in catalog() {
        adb.add_rule(r).unwrap();
    }
    let storage = FileStorage::create(dir, policy).unwrap();
    adb.attach_wal(Box::new(storage)).unwrap();
    adb
}

fn run(adb: &mut ActiveDatabase, rows: std::ops::Range<i64>) {
    for i in rows {
        adb.update([row(i)]).unwrap();
    }
}

#[test]
fn no_budget_checkpoints_once_the_log_outweighs_the_last_checkpoint() {
    let dir = tempdir("gaps");
    let mut adb = durable(&dir, no_budget());
    run(&mut adb, 0..3000);
    drop(adb);

    // Attaching wrote checkpoint 1; segment k holds the log between
    // checkpoints k and k + 1.
    let record = record_len();
    let mut sealed = 0;
    for k in 1.. {
        if !dir.join(checkpoint_file_name(k + 1)).exists() {
            break;
        }
        let len = checkpoint_len(&dir.join(checkpoint_file_name(k))).unwrap();
        let due = len.max(MIN_CHECKPOINT_BYTES);
        let gap = segment_bytes(&dir, k);
        assert!(
            due <= gap && gap < due + record,
            "segment {k}: {gap} B logged after a {len} B checkpoint"
        );
        sealed += usize::from(len > MIN_CHECKPOINT_BYTES);
    }
    assert!(sealed >= 4, "only {sealed} intervals past the floor");
}

#[test]
fn resumed_storage_waits_for_the_newest_checkpoints_weight() {
    let dir = tempdir("resume");
    let mut adb = durable(&dir, no_budget());
    run(&mut adb, 0..500);
    drop(adb); // crash

    let rec = recover(&dir, &catalog(), ManagerConfig::default()).unwrap();
    let seq = rec.report.checkpoint_seq;
    let len = checkpoint_len(&dir.join(checkpoint_file_name(seq))).unwrap();
    assert!(len > MIN_CHECKPOINT_BYTES);
    let mut storage = FileStorage::resume(&dir, no_budget(), rec.end).unwrap();
    assert!(
        !storage.wants_checkpoint(),
        "a resumed storage must not see a zero threshold"
    );
    let mut i = 500;
    while !storage.wants_checkpoint() {
        storage.append(&insert(i)).unwrap();
        i += 1;
    }
    let logged = segment_bytes(&dir, seq);
    assert!(
        len <= logged && logged < len + record_len(),
        "{logged} B logged against a {len} B checkpoint"
    );
}

#[test]
fn default_policy_checkpoints_after_256_ops_or_one_mebibyte() {
    let policy = CheckpointPolicy::default();
    assert_eq!((policy.every_ops, policy.every_bytes), (256, 1 << 20));

    let mut ops = FileStorage::create(&tempdir("ops"), policy).unwrap();
    for i in 0..255 {
        ops.append(&insert(i)).unwrap();
        assert!(!ops.wants_checkpoint(), "due after {} ops", i + 1);
    }
    ops.append(&insert(255)).unwrap();
    assert!(ops.wants_checkpoint());

    let dir = tempdir("bytes");
    let mut bytes = FileStorage::create(&dir, policy).unwrap();
    let big = LogicalOp::SetItem {
        name: "blob".into(),
        value: Value::str("x".repeat(100 * 1024)),
    };
    let mut appended = 0;
    while !bytes.wants_checkpoint() {
        assert!(appended < 1 << 20);
        bytes.append(&big).unwrap();
        appended = segment_bytes(&dir, 0);
    }
    assert!(appended >= 1 << 20);
    assert!(appended < (1 << 20) + (RECORD_HEADER + encode_logical_op(&big).len()) as u64);
}

//! End-to-end durability: a workload driven through [`FileStorage`] must
//! survive a crash (process death at an arbitrary point) and rebuild a
//! system indistinguishable from one that never crashed — and every
//! corruption mode must surface as a typed [`StorageError`], never a panic.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use tdb_core::{
    Action, ActiveDatabase, LogicalOp, ManagerConfig, Rule, SyncPolicy, SystemSnapshot, WalSink,
};
use tdb_engine::WriteOp;
use tdb_ptl::parse_formula;
use tdb_relation::{parse_query, tuple, Database, QueryDef, Relation, Schema, Value};
use tdb_storage::codec::encode_snapshot;
use tdb_storage::{recover, recover_durable, CheckpointPolicy, FileStorage, StorageError};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tdb-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tempdir");
    dir
}

fn base_db() -> Database {
    let mut db = Database::new();
    db.create_relation(
        "STOCK",
        Relation::empty(Schema::untyped(&["name", "price"])),
    )
    .unwrap();
    db.define_query(
        "price",
        QueryDef::new(
            1,
            parse_query("select price from STOCK where name = $0").unwrap(),
        ),
    );
    db.set_item("balance", Value::Int(100));
    db.define_query(
        "balance_q",
        QueryDef::new(0, parse_query("item balance").unwrap()),
    );
    db
}

fn catalog() -> Vec<Rule> {
    vec![
        Rule::trigger(
            "doubled",
            parse_formula(
                "[t := time] [x := price(\"IBM\")] \
                 previously(price(\"IBM\") <= 0.5 * x and time >= t - 10)",
            )
            .unwrap(),
            Action::Notify,
        ),
        Rule::constraint("non_negative", parse_formula("balance_q() >= 0").unwrap()),
    ]
}

fn set_price(a: &mut ActiveDatabase, name: &str, p: i64) {
    let old = a
        .db()
        .relation("STOCK")
        .unwrap()
        .iter()
        .find_map(|t| (t.get(0) == Some(&Value::str(name))).then(|| t.clone()));
    let mut ops = Vec::new();
    if let Some(old) = old {
        ops.push(WriteOp::Delete {
            relation: "STOCK".into(),
            tuple: old,
        });
    }
    ops.push(WriteOp::Insert {
        relation: "STOCK".into(),
        tuple: tuple![name, p],
    });
    a.advance_clock(1).unwrap();
    a.update(ops).unwrap();
}

/// A checkpoint roughly every other op, so the workload crosses several
/// segment rotations.
fn tight_policy() -> CheckpointPolicy {
    CheckpointPolicy {
        every_ops: 2,
        every_bytes: 0,
        sync: SyncPolicy::Never,
    }
}

/// Drives the reference workload against `a`.
fn workload(a: &mut ActiveDatabase) {
    workload_with(a, |_| {});
}

/// The reference workload, calling `after` once each step is done.
fn workload_with(a: &mut ActiveDatabase, mut after: impl FnMut(&mut ActiveDatabase)) {
    for r in catalog() {
        a.add_rule(r).unwrap();
        after(a);
    }
    for p in [10, 15, 18] {
        set_price(a, "IBM", p);
        after(a);
    }
    let txn = a.begin().unwrap();
    after(a);
    a.write(
        txn,
        WriteOp::SetItem {
            item: "balance".into(),
            value: Value::Int(40),
        },
    )
    .unwrap();
    after(a);
    a.commit(txn).unwrap();
    after(a);
    a.advance_clock(1).unwrap();
    after(a);
    assert!(a
        .update([WriteOp::SetItem {
            item: "balance".into(),
            value: Value::Int(-5)
        }])
        .is_err());
    after(a);
    set_price(a, "IBM", 25); // fires "doubled"
    after(a);
    assert!(a.firings().iter().any(|f| f.rule == "doubled"));
}

fn assert_same(a: &ActiveDatabase, b: &ActiveDatabase) {
    assert_eq!(a.db(), b.db());
    assert_eq!(a.now(), b.now());
    assert_eq!(a.firings(), b.firings());
    assert_eq!(a.history().len(), b.history().len());
    assert_eq!(a.retained_size(), b.retained_size());
}

#[test]
fn crash_and_recover_matches_a_run_that_never_crashed() {
    let dir = tempdir("basic");
    let storage = FileStorage::create(&dir, tight_policy()).unwrap();
    let mut live =
        ActiveDatabase::with_storage(base_db(), ManagerConfig::default(), Box::new(storage))
            .unwrap();
    workload(&mut live);
    // Crash: drop the system without any orderly shutdown.
    drop(live);

    let mut volatile = ActiveDatabase::new(base_db());
    workload(&mut volatile);

    let rec = recover(&dir, &catalog(), ManagerConfig::default()).unwrap();
    assert!(rec.report.bad_checkpoints.is_empty());
    assert_eq!(rec.report.dropped_bytes, 0);
    assert_same(&rec.adb, &volatile);

    // And it keeps behaving identically afterwards.
    let mut recovered = rec.adb;
    set_price(&mut recovered, "IBM", 7);
    set_price(&mut volatile, "IBM", 7);
    set_price(&mut recovered, "IBM", 20);
    set_price(&mut volatile, "IBM", 20);
    assert_same(&recovered, &volatile);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_tail_recovers_the_valid_prefix() {
    let dir = tempdir("torn");
    let storage = FileStorage::create(&dir, tight_policy()).unwrap();
    let mut live =
        ActiveDatabase::with_storage(base_db(), ManagerConfig::default(), Box::new(storage))
            .unwrap();
    workload(&mut live);
    drop(live);

    // Tear the newest segment mid-record (a crash during an append).
    let newest = newest_segment(&dir);
    let len = std::fs::metadata(&newest).unwrap().len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&newest)
        .unwrap();
    f.set_len(len - 3).unwrap();
    drop(f);

    let rec = recover(&dir, &catalog(), ManagerConfig::default()).unwrap();
    assert!(rec.report.dropped_bytes > 0, "the torn bytes were counted");
    // The recovered state equals a fresh replay of the surviving prefix —
    // which recover() itself already is; here we check it is *usable*.
    let mut adb = rec.adb;
    set_price(&mut adb, "IBM", 30);
    assert!(!adb.db().relation("STOCK").unwrap().is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_newest_checkpoint_falls_back_to_the_previous_one() {
    let dir = tempdir("fallback");
    let storage = FileStorage::create(&dir, tight_policy()).unwrap();
    let mut live =
        ActiveDatabase::with_storage(base_db(), ManagerConfig::default(), Box::new(storage))
            .unwrap();
    workload(&mut live);
    drop(live);

    let mut volatile = ActiveDatabase::new(base_db());
    workload(&mut volatile);

    // Flip one payload byte in the newest checkpoint.
    let ckpts = checkpoint_paths(&dir);
    assert!(ckpts.len() >= 2, "workload produced several checkpoints");
    let newest = ckpts.last().unwrap();
    let mut bytes = std::fs::read(newest).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(newest, &bytes).unwrap();

    let rec = recover(&dir, &catalog(), ManagerConfig::default()).unwrap();
    assert_eq!(
        rec.report.bad_checkpoints.len(),
        1,
        "the bad checkpoint was recorded"
    );
    assert!(
        rec.report.ops_replayed > 0,
        "fell back to an older base, replaying more log"
    );
    assert_same(&rec.adb, &volatile);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bit_flip_in_a_sealed_segment_is_a_typed_error() {
    let dir = tempdir("flip");
    let storage = FileStorage::create(&dir, tight_policy()).unwrap();
    let mut live =
        ActiveDatabase::with_storage(base_db(), ManagerConfig::default(), Box::new(storage))
            .unwrap();
    workload(&mut live);
    drop(live);

    // Invalidate every checkpoint except the very first, then damage a
    // sealed segment recovery now must replay through.
    let ckpts = checkpoint_paths(&dir);
    for c in &ckpts[1..] {
        let mut bytes = std::fs::read(c).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(c, &bytes).unwrap();
    }
    let mut wals = segment_paths(&dir);
    wals.pop(); // keep the newest (legitimately lossy) segment intact
    let sealed = wals.last().expect("several sealed segments exist");
    let mut bytes = std::fs::read(sealed).unwrap();
    let mid = 16 + (bytes.len() - 16) / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(sealed, &bytes).unwrap();

    match recover(&dir, &catalog(), ManagerConfig::default()) {
        Err(StorageError::ChecksumMismatch { .. }) | Err(StorageError::Corrupt { .. }) => {}
        other => panic!("expected a typed corruption error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_sealed_segment_is_a_typed_error() {
    let dir = tempdir("hole");
    let storage = FileStorage::create(&dir, tight_policy()).unwrap();
    let mut live =
        ActiveDatabase::with_storage(base_db(), ManagerConfig::default(), Box::new(storage))
            .unwrap();
    workload(&mut live);
    drop(live);

    // Invalidate all checkpoints but the first, then delete a segment in
    // the middle of the replay range.
    let ckpts = checkpoint_paths(&dir);
    for c in &ckpts[1..] {
        let mut bytes = std::fs::read(c).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(c, &bytes).unwrap();
    }
    let wals = segment_paths(&dir);
    assert!(wals.len() >= 3, "workload produced several segments");
    std::fs::remove_file(&wals[wals.len() / 2]).unwrap();

    assert!(matches!(
        recover(&dir, &catalog(), ManagerConfig::default()),
        Err(StorageError::MissingSegment(_))
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_or_checkpoint_free_directory_is_no_checkpoint() {
    let dir = tempdir("empty");
    assert!(matches!(
        recover(&dir, &catalog(), ManagerConfig::default()),
        Err(StorageError::NoCheckpoint)
    ));
    // A WAL with no checkpoint at all (partial setup crash) is the same.
    drop(FileStorage::create(&dir, tight_policy()).unwrap());
    assert!(matches!(
        recover(&dir, &catalog(), ManagerConfig::default()),
        Err(StorageError::NoCheckpoint)
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recover_durable_survives_repeated_crashes() {
    let dir = tempdir("repeat");
    let storage = FileStorage::create(&dir, tight_policy()).unwrap();
    let mut live =
        ActiveDatabase::with_storage(base_db(), ManagerConfig::default(), Box::new(storage))
            .unwrap();
    workload(&mut live);
    drop(live); // crash one

    let mut volatile = ActiveDatabase::new(base_db());
    workload(&mut volatile);

    let rec = recover_durable(&dir, &catalog(), ManagerConfig::default(), tight_policy()).unwrap();
    let mut second = rec.adb;
    set_price(&mut second, "IBM", 7);
    set_price(&mut volatile, "IBM", 7);
    drop(second); // crash two

    set_price(&mut volatile, "IBM", 20);
    let rec = recover_durable(&dir, &catalog(), ManagerConfig::default(), tight_policy()).unwrap();
    let mut third = rec.adb;
    set_price(&mut third, "IBM", 20);
    assert_same(&third, &volatile);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A [`FileStorage`] the test keeps a handle on, so it can append records
/// of its own between facade calls. It never asks the facade for a
/// checkpoint: the test takes one after its own records.
#[derive(Debug, Clone)]
struct SharedStorage(Arc<Mutex<FileStorage>>);

impl WalSink for SharedStorage {
    fn append(&mut self, op: &LogicalOp) -> tdb_core::Result<()> {
        self.0.lock().unwrap().append(op)
    }

    fn append_batch(&mut self, ops: &[LogicalOp]) -> tdb_core::Result<()> {
        self.0.lock().unwrap().append_batch(ops)
    }

    fn checkpoint(&mut self, snap: &SystemSnapshot) -> tdb_core::Result<()> {
        self.0.lock().unwrap().checkpoint(snap)
    }
}

/// Logs written before the log held inputs only carry a `Firing` record
/// per firing, appended after the op that produced it and before any
/// checkpoint that op made due. Such a directory recovers to exactly what
/// the same inputs without those records recover to: replay skips them.
#[test]
fn firing_records_of_an_older_log_are_skipped_on_recovery() {
    let legacy = tempdir("legacy-firings");
    let storage = SharedStorage(Arc::new(Mutex::new(
        FileStorage::create(&legacy, tight_policy()).unwrap(),
    )));
    let mut live = ActiveDatabase::with_storage(
        base_db(),
        ManagerConfig::default(),
        Box::new(storage.clone()),
    )
    .unwrap();
    let mut logged = 0;
    workload_with(&mut live, |a| {
        let mut file = storage.0.lock().unwrap();
        for record in &a.firings()[logged..] {
            let op = LogicalOp::Firing {
                record: record.clone(),
            };
            file.append(&op).unwrap();
        }
        logged = a.firings().len();
        let due = file.wants_checkpoint();
        drop(file);
        if due && a.engine().open_txns().next().is_none() {
            a.checkpoint_now().unwrap();
        }
    });
    let firings = live.firings().to_vec();
    drop(live);

    let log = tdb_storage::read_log(&legacy, 0).unwrap().ops;
    let records: Vec<_> = (log.iter())
        .filter_map(|op| match op {
            LogicalOp::Firing { record } => Some(record.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(records, firings, "every firing has its record");
    assert!(
        records.iter().any(|f| f.rule == "non_negative"),
        "a constraint veto is among them"
    );
    assert!(
        log.iter()
            .position(|op| matches!(op, LogicalOp::Firing { .. }))
            < log.iter().rposition(|op| op.input_ops() > 0),
        "the records interleave with the inputs"
    );

    let plain = tempdir("inputs-only");
    let storage = FileStorage::create(&plain, tight_policy()).unwrap();
    let mut live =
        ActiveDatabase::with_storage(base_db(), ManagerConfig::default(), Box::new(storage))
            .unwrap();
    workload(&mut live);
    drop(live);
    let inputs = tdb_storage::read_log(&plain, 0).unwrap().ops;
    assert!(inputs.iter().all(|op| op.input_ops() > 0), "{inputs:?}");

    let mut volatile = ActiveDatabase::new(base_db());
    workload(&mut volatile);
    let old = recover(&legacy, &[], ManagerConfig::default()).unwrap().adb;
    let new = recover(&plain, &[], ManagerConfig::default()).unwrap().adb;
    assert_same(&old, &volatile);
    assert_same(&new, &volatile);
    assert_eq!(old.firings(), firings);
    assert_eq!(
        encode_snapshot(&old.snapshot().unwrap()),
        encode_snapshot(&new.snapshot().unwrap()),
        "both recover to the same checkpoint bytes"
    );
    std::fs::remove_dir_all(&legacy).unwrap();
    std::fs::remove_dir_all(&plain).unwrap();
}

// ---- group commit -----------------------------------------------------------

/// Lowers a price script to the logical ops of one group commit. `shadow`
/// carries the last applied price across batches (the delete of the old
/// tuple cannot read the live database: earlier ops of the same batch may
/// not be applied yet when the list is built).
fn price_batch(shadow: &mut Option<i64>, prices: &[i64]) -> Vec<LogicalOp> {
    let mut ops = Vec::new();
    for &p in prices {
        ops.push(LogicalOp::AdvanceClock { delta: 1 });
        let mut w = Vec::new();
        if let Some(old) = *shadow {
            w.push(WriteOp::Delete {
                relation: "STOCK".into(),
                tuple: tuple!["IBM", old],
            });
        }
        w.push(WriteOp::Insert {
            relation: "STOCK".into(),
            tuple: tuple!["IBM", p],
        });
        *shadow = Some(p);
        ops.push(LogicalOp::Update { ops: w });
    }
    ops
}

fn assert_same_observable(a: &ActiveDatabase, b: &ActiveDatabase) -> bool {
    a.db() == b.db() && a.now() == b.now() && a.firings() == b.firings()
}

/// The group-commit atomicity property: a batch is ONE WAL record, so a
/// crash that tears the log at *any* byte leaves a prefix of whole batches
/// — recovery must land exactly on a batch boundary, never apply half a
/// batch. Cuts sweep the newest segment from the header boundary to full
/// length (seeded pseudo-random offsets plus the exact boundaries), and
/// every recovered state must equal one of the batch-boundary oracles.
#[test]
fn mid_batch_crash_recovers_to_a_batch_boundary() {
    let dir = tempdir("midbatch");
    let policy = CheckpointPolicy {
        every_ops: 1000, // no checkpoint mid-run: the WAL tail carries every batch
        every_bytes: 0,
        sync: SyncPolicy::Always,
    };
    let storage = FileStorage::create(&dir, policy).unwrap();
    let mut live =
        ActiveDatabase::with_storage(base_db(), ManagerConfig::default(), Box::new(storage))
            .unwrap();
    for r in catalog() {
        live.add_rule(r).unwrap();
    }
    let scripts: Vec<Vec<i64>> = vec![
        vec![10, 11],
        vec![12, 6, 25], // 6 → 25 plants a "doubled" firing inside a batch
        vec![24, 26, 13, 27],
        vec![28, 14],
    ];
    let mut shadow = None;
    for s in &scripts {
        let ops = price_batch(&mut shadow, s);
        let outs = live.commit_batch(&ops).unwrap();
        assert!(outs.iter().all(|o| o.result.is_ok()));
    }
    assert!(
        live.firings().iter().any(|f| f.rule == "doubled"),
        "the script must fire inside a batch (dead property otherwise)"
    );
    drop(live); // crash

    // One oracle per batch boundary: the state after the first `m` batches.
    let oracles: Vec<ActiveDatabase> = (0..=scripts.len())
        .map(|m| {
            let mut adb = ActiveDatabase::new(base_db());
            for r in catalog() {
                adb.add_rule(r).unwrap();
            }
            let mut shadow = None;
            for s in &scripts[..m] {
                let ops = price_batch(&mut shadow, s);
                adb.commit_batch(&ops).unwrap();
            }
            adb
        })
        .collect();

    let newest = newest_segment(&dir);
    let full = std::fs::metadata(&newest).unwrap().len();
    // Seeded LCG cuts across the record region (below 16 the segment
    // *header* is torn — a typed `Corrupt`, not a lossy tail) plus the
    // interesting exact offsets.
    let mut cuts: Vec<u64> = vec![16, full - 1, full];
    let mut seed = 0x5EED_CAFEu64;
    for _ in 0..48 {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        cuts.push(16 + seed % (full - 16));
    }
    let mut boundaries_seen = std::collections::BTreeSet::new();
    for cut in cuts {
        let scratch = tempdir(&format!("midbatch-cut{cut}"));
        for entry in std::fs::read_dir(&dir).unwrap() {
            let p = entry.unwrap().path();
            std::fs::copy(&p, scratch.join(p.file_name().unwrap())).unwrap();
        }
        let torn = scratch.join(newest.file_name().unwrap());
        std::fs::OpenOptions::new()
            .write(true)
            .open(&torn)
            .unwrap()
            .set_len(cut)
            .unwrap();

        let rec = recover(&scratch, &catalog(), ManagerConfig::default()).unwrap();
        let m = oracles
            .iter()
            .position(|o| assert_same_observable(o, &rec.adb));
        match m {
            Some(m) => {
                boundaries_seen.insert(m);
                assert_eq!(
                    rec.adb.history().len(),
                    oracles[m].history().len(),
                    "cut {cut}/{full}: same observables but a different history"
                );
            }
            None => panic!(
                "cut {cut}/{full}: recovered state matches no batch-boundary prefix \
                 (a torn batch was half-applied)"
            ),
        }
        std::fs::remove_dir_all(&scratch).unwrap();
    }
    assert!(
        boundaries_seen.len() > 2,
        "cuts must land on several distinct boundaries, saw {boundaries_seen:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- directory helpers ------------------------------------------------------

fn checkpoint_paths(dir: &PathBuf) -> Vec<PathBuf> {
    let mut v: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            let name = p.file_name()?.to_str()?;
            let seq: u64 = name
                .strip_prefix("ckpt-")?
                .strip_suffix(".bin")?
                .parse()
                .ok()?;
            Some((seq, p.clone()))
        })
        .collect();
    v.sort();
    v.into_iter().map(|(_, p)| p).collect()
}

fn segment_paths(dir: &PathBuf) -> Vec<PathBuf> {
    let mut v: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            let name = p.file_name()?.to_str()?;
            let seq: u64 = name
                .strip_prefix("wal-")?
                .strip_suffix(".log")?
                .parse()
                .ok()?;
            Some((seq, p.clone()))
        })
        .collect();
    v.sort();
    v.into_iter().map(|(_, p)| p).collect()
}

fn newest_segment(dir: &PathBuf) -> PathBuf {
    segment_paths(dir).pop().expect("at least one segment")
}

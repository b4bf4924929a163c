//! Tenant directories written by earlier builds still open. Those written
//! before registrations were logged with their definitions:
//! `fixtures/plain-v5` holds a `TDBCKPT5` checkpoint naming `watch`, a WAL
//! suffix with an `AddRule a` record and a `Firing` record (the log held
//! one per firing then), and a `rules.tdbr` holding a refused
//! `a` before the corrected one; `fixtures/vt-v1` holds `vt.meta`,
//! `rules.tdbr` and a `wal-0.log` with `AddRule` records. Each reopens with
//! the rule names, state count and firing log of a volatile tenant that ran
//! the same script, and fires as it does from there on. Once the plain one
//! has checkpointed, it no longer needs `rules.tdbr`. `fixtures/vt-v2`,
//! written while a valid-time tenant kept a log writer and reader of its
//! own, holds `vt.meta` and a `wal-0.log` of `RegisterRules` records, a
//! group commit and two rejected ingests; it reopens with the stream of
//! its volatile twin. `fixtures/README.md` says how the directories were
//! written.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use std::path::{Path, PathBuf};

use tdb_core::manager::ManagerConfig;
use tdb_core::storage::LogicalOp;
use tdb_core::SyncPolicy;
use tdb_engine::WriteOp;
use tdb_relation::{parse_query, QueryDef, Timestamp, Value};
use tdb_server::tenant::Tenant;
use tdb_storage::CheckpointPolicy;

fn set_n(v: i64) -> Vec<WriteOp> {
    vec![WriteOp::SetItem {
        item: "n".into(),
        value: Value::Int(v),
    }]
}

fn seed(t: &mut Tenant) {
    for op in [
        LogicalOp::SetItem {
            name: "n".into(),
            value: Value::Int(0),
        },
        LogicalOp::DefineQuery {
            name: "n".into(),
            def: QueryDef::new(0, parse_query("item n").unwrap()),
        },
    ] {
        assert!(t.apply(&op).unwrap().ok());
    }
}

fn step(t: &mut Tenant, v: i64) -> Vec<tdb_core::FiringRecord> {
    t.apply(&LogicalOp::AdvanceClock { delta: 1 }).unwrap();
    t.apply(&LogicalOp::Update { ops: set_n(v) })
        .unwrap()
        .firings
}

/// A copy of fixture `name`, which reopening writes to.
fn copy_of(name: &str) -> PathBuf {
    let from = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let to = std::env::temp_dir().join(format!("tdb-legacy-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&to);
    std::fs::create_dir_all(&to).unwrap();
    for e in std::fs::read_dir(from).unwrap() {
        let e = e.unwrap();
        std::fs::copy(e.path(), to.join(e.file_name())).unwrap();
    }
    to
}

fn rule_names(t: &Tenant) -> Vec<String> {
    t.shard().adb().rules().map(|r| r.name.clone()).collect()
}

fn policy() -> CheckpointPolicy {
    CheckpointPolicy {
        every_ops: 0,
        every_bytes: 0,
        sync: SyncPolicy::Always,
    }
}

fn reopen(dir: &Path) -> Tenant {
    Tenant::durable("fx", dir, ManagerConfig::default(), policy()).unwrap()
}

#[test]
fn a_plain_directory_with_a_rule_file_reopens_and_outgrows_it() {
    let dir = copy_of("plain-v5");
    assert_eq!(
        &std::fs::read(dir.join("ckpt-2.bin")).unwrap()[..8],
        b"TDBCKPT5"
    );
    // Its log holds a `Firing` record per firing, as logs did before they
    // held inputs only, and the suffix the reopen replays holds one: the
    // reopen goes through recovery's skip.
    let firing_records = |from| {
        let log = tdb_storage::read_log(&dir, from).unwrap().ops;
        log.iter()
            .filter(|op| matches!(op, LogicalOp::Firing { .. }))
            .count()
    };
    assert_eq!((firing_records(0), firing_records(2)), (2, 1));

    // The script the fixture was written by, on a volatile tenant.
    let mut reference = Tenant::volatile("fx", ManagerConfig::default());
    seed(&mut reference);
    reference
        .register_rules("rule watch { when n() >= 5; then notify; }")
        .unwrap();
    assert_eq!(step(&mut reference, 7).len(), 1);
    reference
        .register_rules("rule a { when ghost() > 0; then notify; }")
        .unwrap_err();
    reference
        .register_rules("rule a { when n() >= 9; then set m := n() + 1; }")
        .unwrap();
    for v in [9, 3] {
        step(&mut reference, v);
    }

    let mut t = reopen(&dir);
    assert_eq!(rule_names(&t), ["watch", "a"]);
    assert_eq!(rule_names(&t), rule_names(&reference));
    assert_eq!(t.stats().states, reference.stats().states);
    assert_eq!(t.firings_from(0), reference.firings_from(0));
    let next = step(&mut t, 10);
    assert_eq!(next.len(), 2, "{next:?}");
    assert_eq!(next, step(&mut reference, 10));

    // Checkpointed, the directory is the whole tenant.
    t.checkpoint_now().unwrap();
    drop(t);
    std::fs::remove_file(dir.join("rules.tdbr")).unwrap();
    let mut t = reopen(&dir);
    assert_eq!(rule_names(&t), rule_names(&reference));
    assert_eq!(t.stats().states, reference.stats().states);
    assert_eq!(t.firings_from(0), reference.firings_from(0));
    assert_eq!(step(&mut t, 2), step(&mut reference, 2));
    assert_eq!(step(&mut t, 12), step(&mut reference, 12));
    drop(t);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_valid_time_directory_with_a_rule_file_reopens() {
    let dir = copy_of("vt-v1");
    let script = [(2, 2, 7), (4, 3, 6), (8, 6, 9), (9, 9, 2)];
    let mut reference = Tenant::volatile_vt("fxvt", 3);
    seed(&mut reference);
    reference
        .register_rules(
            "rule watch { when n() >= 5; then notify; }\nrule cap { when n() <= 10; then abort; }",
        )
        .unwrap();
    for (arrival, valid, v) in script {
        (reference.commit_at(Timestamp(arrival), Timestamp(valid), set_n(v))).unwrap();
    }

    let mut t = Tenant::durable_vt("fxvt", &dir, 0, SyncPolicy::Always).unwrap();
    let vt = t.vt().unwrap().vt();
    assert!(vt.has_rule("watch") && vt.has_rule("cap"));
    assert_eq!(t.stats(), reference.stats());
    assert_eq!(t.firings_from(0), reference.firings_from(0));
    for (arrival, valid, v) in [(10, 8, 99), (12, 12, 8), (20, 19, 1)] {
        let (arrival, valid) = (Timestamp(arrival), Timestamp(valid));
        assert_eq!(
            format!("{:?}", t.commit_at(arrival, valid, set_n(v))),
            format!("{:?}", reference.commit_at(arrival, valid, set_n(v)))
        );
    }
    assert_eq!(t.firings_from(0), reference.firings_from(0));
    assert!(
        t.firings_from(0).len() > 2,
        "the next steps confirm firings"
    );
    drop(t);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The script `fixtures/vt-v2` was written by.
fn vt_v2_script(t: &mut Tenant) {
    seed(t);
    t.register_rules(
        "rule watch { when n() >= 5; then notify; }\nrule cap { when n() <= 10; then abort; }",
    )
    .unwrap();
    t.register_rules("rule ghost { when ghost() > 0; then notify; }")
        .unwrap_err();
    for (arrival, valid, v) in [(2, 2, 7), (4, 3, 6)] {
        (t.commit_at(Timestamp(arrival), Timestamp(valid), set_n(v))).unwrap();
    }
    (t.commit_at(Timestamp(5), Timestamp(4), set_n(99))).unwrap_err();
    let nope = vec![WriteOp::Insert {
        relation: "nope".into(),
        tuple: tdb_relation::tuple![1i64],
    }];
    t.commit_at(Timestamp(5), Timestamp(5), nope).unwrap_err();
    let group = [LogicalOp::AdvanceClock { delta: 1 }, LogicalOp::Tick];
    assert!(t.apply_batch(&group).unwrap().iter().all(|o| o.ok()));
    t.register_rules("rule low { when n() < 5; then notify; }")
        .unwrap();
    for (arrival, valid, v) in [(8, 6, 9), (9, 9, 2), (10, 8, 3), (11, 9, 6)] {
        (t.commit_at(Timestamp(arrival), Timestamp(valid), set_n(v))).unwrap();
    }
}

fn stream(t: &Tenant) -> Vec<tdb_core::VtFiringEvent> {
    t.vt().unwrap().vt().stream_log().to_vec()
}

#[test]
fn a_valid_time_directory_of_registration_records_reopens_with_its_stream() {
    let dir = copy_of("vt-v2");
    let mut reference = Tenant::volatile_vt("fxvt", 3);
    vt_v2_script(&mut reference);
    let phases = |t: &Tenant| stream(t).iter().map(|e| e.phase).collect::<Vec<_>>();
    assert!(phases(&reference).contains(&tdb_core::VtPhase::Retracted));

    let mut t = Tenant::durable_vt("fxvt", &dir, 0, SyncPolicy::Always).unwrap();
    assert_eq!(t.stats(), reference.stats());
    assert_eq!(stream(&t), stream(&reference));
    assert_eq!(t.firings_from(0), reference.firings_from(0));
    for (arrival, valid, v) in [(12, 10, 8), (14, 13, 1), (20, 19, 7)] {
        let (arrival, valid) = (Timestamp(arrival), Timestamp(valid));
        assert_eq!(
            format!("{:?}", t.commit_at(arrival, valid, set_n(v))),
            format!("{:?}", reference.commit_at(arrival, valid, set_n(v)))
        );
    }
    drop(t);
    let t = Tenant::durable_vt("fxvt", &dir, 0, SyncPolicy::Always).unwrap();
    assert_eq!(stream(&t), stream(&reference));
    assert_eq!(t.firings_from(0), reference.firings_from(0));
    let _ = std::fs::remove_dir_all(&dir);
}

//! A registration is one log record. On a durable plain and a durable
//! valid-time tenant, a whole rule source reaches the WAL as one
//! `RegisterRules` record carrying every definition — one append, one
//! fsync — and the directory holds nothing beside log and checkpoints.
//! Because the record is one checksummed frame, a crash that tears it
//! leaves all of the source's rules or none: truncating the segment at
//! every byte offset inside the record and reopening shows exactly that.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use std::path::{Path, PathBuf};

use tdb_core::manager::ManagerConfig;
use tdb_core::rules::Rule;
use tdb_core::storage::LogicalOp;
use tdb_core::SyncPolicy;
use tdb_engine::WriteOp;
use tdb_ptl::{Formula, Term};
use tdb_relation::{parse_query, QueryDef, Value};
use tdb_server::tenant::Tenant;
use tdb_storage::wal::{parse_segment_name, segment_file_name, RECORD_HEADER};
use tdb_storage::{read_segment, CheckpointPolicy};

fn seed_ops() -> Vec<LogicalOp> {
    vec![
        LogicalOp::SetItem {
            name: "n".into(),
            value: Value::Int(0),
        },
        LogicalOp::DefineQuery {
            name: "n".into(),
            def: QueryDef::new(0, parse_query("item n").unwrap()),
        },
    ]
}

/// `rules` notify rules (and, every fourth, an `abort` constraint), each
/// over its own threshold.
fn source(rules: usize) -> String {
    (0..rules)
        .map(|i| match i % 4 {
            3 => format!("rule r{i} {{ when n() <= {}; then abort; }}\n", 1000 + i),
            _ => format!("rule r{i} {{ when n() >= {i}; then notify; }}\n"),
        })
        .collect()
}

/// No checkpoint is due while the test runs: the registration record is
/// the last thing in the newest segment.
fn policy() -> CheckpointPolicy {
    CheckpointPolicy {
        every_ops: 1 << 30,
        every_bytes: 1 << 40,
        sync: SyncPolicy::Always,
    }
}

fn open(dir: &Path, vt: bool) -> Tenant {
    if vt {
        Tenant::durable_vt("t", dir, 2, SyncPolicy::Always).unwrap()
    } else {
        Tenant::durable("t", dir, ManagerConfig::default(), policy()).unwrap()
    }
}

fn newest_segment(dir: &Path) -> PathBuf {
    let names = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name());
    let newest = names
        .filter_map(|n| parse_segment_name(n.to_str()?))
        .max()
        .unwrap();
    dir.join(segment_file_name(newest))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tdb-regrec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A tenant of each kind, seeded, then registering `rules` rules: the
/// directory, the newest segment, and the byte offset its registration
/// record starts at.
fn registered(tag: &str, vt: bool, rules: usize) -> (PathBuf, PathBuf, u64) {
    let dir = scratch(tag);
    let mut t = open(&dir, vt);
    for op in seed_ops() {
        assert!(t.apply(&op).unwrap().ok());
    }
    let segment = newest_segment(&dir);
    let before = read_segment(&segment, false).unwrap();
    let (names, _) = t.register_rules(&source(rules)).unwrap();
    assert_eq!((names.len(), t.stats().rules), (rules, rules));
    drop(t);
    assert_eq!(
        newest_segment(&dir),
        segment,
        "no checkpoint rotated the log"
    );
    let after = read_segment(&segment, false).unwrap();
    let added = &after.ops[before.ops.len()..];
    match added {
        [LogicalOp::RegisterRules { rules: logged }] => assert_eq!(logged.len(), rules),
        other => panic!(
            "expected one registration record, got {} records",
            other.len()
        ),
    }
    let names = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name());
    for name in names {
        let name = name.into_string().unwrap();
        let log = parse_segment_name(&name).is_some();
        let checkpoint = tdb_storage::checkpoint::parse_checkpoint_name(&name).is_some();
        assert!(
            log || checkpoint || name == "vt.meta",
            "unexpected file {name}"
        );
    }
    (dir, segment, before.valid_len)
}

#[test]
fn a_256_rule_source_is_one_wal_record() {
    for vt in [false, true] {
        let (dir, _, _) = registered(&format!("one-{vt}"), vt, 256);
        let t = open(&dir, vt);
        assert_eq!(t.stats().rules, 256, "vt={vt}");
        drop(t);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_torn_registration_record_reopens_with_all_rules_or_none() {
    const RULES: usize = 32;
    for vt in [false, true] {
        let (dir, segment, start) = registered(&format!("torn-{vt}"), vt, RULES);
        let bytes = std::fs::read(&segment).unwrap();
        let end = bytes.len() as u64;
        assert!(end > start + RECORD_HEADER as u64);
        let copy = scratch(&format!("torn-copy-{vt}"));
        for cut in start..=end {
            let _ = std::fs::remove_dir_all(&copy);
            std::fs::create_dir_all(&copy).unwrap();
            for e in std::fs::read_dir(&dir).unwrap() {
                let e = e.unwrap();
                std::fs::copy(e.path(), copy.join(e.file_name())).unwrap();
            }
            let cut_segment = copy.join(segment.file_name().unwrap());
            std::fs::write(&cut_segment, &bytes[..cut as usize]).unwrap();
            let t = open(&copy, vt);
            let want = if cut == end { RULES } else { 0 };
            assert_eq!(t.stats().rules, want, "vt={vt}, cut at byte {cut} of {end}");
        }
        let _ = std::fs::remove_dir_all(&copy);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// String constants PTL text does not spell back — non-ASCII text, a
/// quote, a backslash — register on a durable tenant of each kind and
/// reopen as the same rules: from the log, and on a plain tenant from the
/// checkpoint its reopen writes. The reopened `quote` fires on its
/// constant.
#[test]
fn odd_string_constants_register_and_reopen_unchanged() {
    const SRC: &str = r#"rule zurich { when city() = "Zürich"; then notify; }
rule quote { when city() = "O\"Brien"; then notify; }
rule slash { when city() != "a\\b"; then abort; }
"#;
    let registered = |vt: bool| {
        let dir = scratch(&format!("odd-{vt}"));
        let mut t = open(&dir, vt);
        let seed = [
            LogicalOp::SetItem {
                name: "city".into(),
                value: Value::str("Bern"),
            },
            LogicalOp::DefineQuery {
                name: "city".into(),
                def: QueryDef::new(0, parse_query("item city").unwrap()),
            },
        ];
        for op in &seed {
            assert!(t.apply(op).unwrap().ok());
        }
        t.register_rules(SRC).unwrap();
        (dir, t)
    };

    let (dir, t) = registered(true);
    drop(t);
    let t = open(&dir, true);
    let vt = t.vt().unwrap().vt();
    assert!(["zurich", "quote", "slash"].iter().all(|r| vt.has_rule(r)));
    let _ = std::fs::remove_dir_all(&dir);

    let rules =
        |t: &Tenant| -> Vec<Rule> { t.shard().adb().rules().map(|r| (**r).clone()).collect() };
    let (dir, t) = registered(false);
    let live = rules(&t);
    let quoted = Value::str("O\"Brien");
    assert!(matches!(&live[1].condition, Formula::Cmp(_, _, Term::Const(c)) if *c == quoted));
    drop(t);
    for _ in 0..2 {
        assert_eq!(rules(&open(&dir, false)), live);
    }
    let mut t = open(&dir, false);
    let set = LogicalOp::Update {
        ops: vec![WriteOp::SetItem {
            item: "city".into(),
            value: quoted,
        }],
    };
    assert!(t.apply(&set).unwrap().ok());
    let fired: Vec<_> = t.firings_from(0).into_iter().map(|f| f.rule).collect();
    assert_eq!(fired, ["quote"]);
    let _ = std::fs::remove_dir_all(&dir);
}

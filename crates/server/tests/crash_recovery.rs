//! Crash-recovery acceptance test (satellite 3): SIGKILL the real
//! `tdb-server` binary mid-commit-stream, restart it on the same data
//! directory, and verify every *acked* commit survived — the recovered
//! firing history must extend the acked one and stay consistent with a
//! single-process library oracle run over the same op stream.
//!
//! Durability contract under test: the default server policy syncs on
//! every append, so once a `Committed` response is on the wire the ops
//! (and the firings they produced) are on disk. Ops in flight at the kill
//! may or may not have landed — but recovery must land on a *prefix* of
//! the sent stream, never a mangled interleaving.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};

use tdb_core::manager::ManagerConfig;
use tdb_core::rules::FiringRecord;
use tdb_core::shard::Shard;
use tdb_core::storage::LogicalOp;
use tdb_core::CoreError;
use tdb_core::{VtActiveDatabase, VtPhase};
use tdb_engine::WriteOp;
use tdb_ptl::parse_formula;
use tdb_relation::{parse_query, Database, QueryDef, Timestamp, Value};
use tdb_server::tenant::{rules_from_source, Tenant};
use tdb_server::wire::ErrorCode;
use tdb_server::{Client, ServerError};
use tdb_storage::wal::{parse_segment_name, segment_file_name};
use tdb_storage::{read_segment, CheckpointPolicy, WalWriter};

// `bump` fires on every step (each emitted `bump(x)` event is a fresh
// binding, so the edge-triggered rule re-fires per step); `watch` fires
// once, at the threshold crossing; `cap` never trips in this walk.
const RULES: &str = "rule bump { when @bump(x) and n() >= 0; then notify; }\n\
                     rule watch { when n() >= 5; then notify; }\n\
                     rule cap { when n() <= 10000; then abort; }\n";

/// Kills the child on drop so a failing assertion never leaks a server.
struct ServerProc {
    child: Child,
    addr: String,
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn start_server(data_dir: &std::path::Path) -> ServerProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tdb-server"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--data-dir",
            data_dir.to_str().unwrap(),
            "--quiet",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn tdb-server");
    let stdout = child.stdout.take().expect("child stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();
    ServerProc { child, addr }
}

/// Every file of a tenant directory, by name, with its bytes.
fn dir_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let entries = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap());
    entries
        .map(|e| {
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect()
}

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

fn step_ops(i: i64) -> Vec<LogicalOp> {
    vec![
        LogicalOp::AdvanceClock { delta: 1 },
        LogicalOp::Update {
            ops: vec![WriteOp::SetItem {
                item: "n".into(),
                value: Value::Int(i * 2),
            }],
        },
        LogicalOp::Emit {
            events: tdb_engine::EventSet::of([tdb_engine::Event::new("bump", vec![Value::Int(i)])]),
        },
    ]
}

/// Library oracle seeded + rules registered, ready to replay step ops.
fn oracle_shard() -> Shard {
    let mut shard = Shard::volatile(Database::new(), ManagerConfig::default());
    for op in seed_ops() {
        assert!(shard.apply(&op).unwrap().ok());
    }
    for rule in rules_from_source(RULES).unwrap() {
        shard.add_rule(rule).unwrap();
    }
    shard
}

/// Oracle firings after the first `steps` complete walk steps.
fn oracle_firings(steps: i64) -> Vec<FiringRecord> {
    let mut shard = oracle_shard();
    for i in 1..=steps {
        for op in step_ops(i) {
            shard.apply(&op).unwrap();
        }
    }
    shard.firings_from(0)
}

#[test]
fn sigkill_mid_stream_recovers_every_acked_commit() {
    let data_dir = std::env::temp_dir().join(format!("tdb-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).unwrap();

    // ---- first incarnation: drive commits, then SIGKILL mid-stream -----
    let server = start_server(&data_dir);
    let mut c = Client::connect(&*server.addr).unwrap();
    c.create_tenant("bank", true).unwrap();
    assert!(c.commit("bank", seed_ops()).unwrap().all_ok());
    c.register_rules("bank", RULES).unwrap();

    // Writer thread streams commits as fast as the server acks them; the
    // main thread SIGKILLs the server underneath it.
    let acked: Arc<Mutex<(i64, Vec<FiringRecord>)>> = Arc::new(Mutex::new((0, Vec::new())));
    let writer = {
        let acked = Arc::clone(&acked);
        let addr = server.addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&*addr).expect("writer connect");
            for i in 1.. {
                match c.commit("bank", step_ops(i)) {
                    Ok(out) if out.all_ok() => {
                        let mut a = acked.lock().unwrap();
                        a.0 = i;
                        a.1.extend(out.firings);
                    }
                    // Connection died (or an op raced the kill): stop.
                    _ => return,
                }
            }
        })
    };
    // Let a healthy number of commits through, then pull the plug.
    loop {
        std::thread::sleep(std::time::Duration::from_millis(20));
        if acked.lock().unwrap().0 >= 10 {
            break;
        }
    }
    drop(server); // SIGKILL via the Drop guard
    writer.join().unwrap();
    let (acked_steps, acked_firings) = {
        let a = acked.lock().unwrap();
        (a.0, a.1.clone())
    };
    assert!(acked_steps >= 10, "need a real stream before the kill");
    assert_eq!(
        acked_firings,
        oracle_firings(acked_steps),
        "acked firings must match the library oracle even before recovery"
    );

    // ---- second incarnation: recover and verify ------------------------
    let server = start_server(&data_dir);
    let mut c = Client::connect(&*server.addr).unwrap();
    assert_eq!(
        c.list_tenants().unwrap(),
        vec!["bank".to_string()],
        "durable tenant must be reopened at boot"
    );
    let recovered = c.firings("bank", 0).unwrap();

    // Recovery lands on a prefix of the sent stream that includes every
    // acked commit: the recovered history extends the acked one...
    assert!(
        recovered.len() >= acked_firings.len(),
        "recovery lost acked firings: {} < {}",
        recovered.len(),
        acked_firings.len()
    );
    assert_eq!(&recovered[..acked_firings.len()], &acked_firings[..]);
    // ...and whatever extra landed is a prefix of the sent *op* stream —
    // the kill can split a commit batch mid-step (the WAL logs op by op),
    // so the match is found at op granularity: replay ops into the oracle
    // one at a time until its firing log, history length and clock all
    // equal the recovered tenant's.
    let recovered_stats = c.tenant_stats("bank").unwrap();
    let flat: Vec<LogicalOp> = (1..=acked_steps + 1).flat_map(step_ops).collect();
    let mut oracle = oracle_shard();
    let mut matched = oracle.firings_from(0) == recovered
        && oracle.stats().states as u64 == recovered_stats.states
        && oracle.stats().now == recovered_stats.now;
    let mut replayed = 0usize;
    for op in &flat {
        if matched {
            break;
        }
        oracle.apply(op).unwrap();
        replayed += 1;
        matched = oracle.firings_from(0) == recovered
            && oracle.stats().states as u64 == recovered_stats.states
            && oracle.stats().now == recovered_stats.now;
    }
    assert!(
        matched,
        "recovered tenant does not equal the oracle at any op prefix \
         (recovered {} firings, {} states)",
        recovered.len(),
        recovered_stats.states
    );
    assert!(
        replayed >= acked_steps as usize * 3,
        "recovery must include every acked step: replayed only {replayed} ops"
    );

    // The recovered tenant keeps working: drive more steps through both
    // sides and check the histories stay identical end-to-end.
    for i in acked_steps + 2..=acked_steps + 6 {
        let ops = step_ops(i);
        for op in &ops {
            oracle.apply(op).unwrap();
        }
        assert!(c.commit("bank", ops).unwrap().all_ok());
    }
    let after = c.firings("bank", 0).unwrap();
    let want = oracle.firings_from(0);
    assert_eq!(
        after.len(),
        want.len(),
        "post-recovery firing count diverges from oracle\n last got:  {:?}\n last want: {:?}",
        after.last(),
        want.last()
    );
    for (i, (g, w)) in after.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "post-recovery firing {i} diverges from oracle");
    }
    let stats = c.tenant_stats("bank").unwrap();
    assert_eq!(stats.rules, 3);
    assert!(stats.wal_bytes > 0);

    // Graceful shutdown this time (checkpoints on the way out).
    c.shutdown().unwrap();
    drop(server);
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// A rejected registration leaves nothing behind — not in memory, not on
/// disk, not for recovery to trip on: after a bad `rule a`, a corrected
/// `rule a`, and a refused third `rule a`, the tenant directory is byte
/// for byte what it was before each refusal, and the live tenant and the
/// tenant reopened from disk run the same catalog and report the same
/// firings.
#[test]
fn rejected_then_corrected_rule_survives_reopen() {
    const BAD: &str = "rule a { when n() >= 6 and nosuchq() > 1; then notify; }";
    const GOOD: &str = "rule a { when n() >= 6; then notify; }";
    const OTHER: &str = "rule a { when n() >= 0; then notify; }";

    let data_dir = std::env::temp_dir().join(format!("tdb-crash-rules-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).unwrap();

    let mut oracle = oracle_shard();
    for rule in rules_from_source(GOOD).unwrap() {
        oracle.add_rule(rule).unwrap();
    }

    let server = start_server(&data_dir);
    let mut c = Client::connect(&*server.addr).unwrap();
    c.create_tenant("bank", true).unwrap();
    assert!(c.commit("bank", seed_ops()).unwrap().all_ok());
    c.register_rules("bank", RULES).unwrap();
    let tenant_dir = data_dir.join("bank");
    let before = dir_files(&tenant_dir);
    let err = c.register_rules("bank", BAD).unwrap_err().to_string();
    assert!(err.contains("nosuchq"), "unexpected rejection: {err}");
    assert!(
        dir_files(&tenant_dir) == before,
        "a refused source reached the disk"
    );
    c.register_rules("bank", GOOD)
        .expect("the corrected rule registers under the same name");
    let before = dir_files(&tenant_dir);
    let err = c.register_rules("bank", OTHER).unwrap_err().to_string();
    assert!(err.contains("already registered"), "{err}");
    assert!(
        dir_files(&tenant_dir) == before,
        "a refused source reached the disk"
    );

    for i in 1..=8 {
        let ops = step_ops(i);
        for op in &ops {
            oracle.apply(op).unwrap();
        }
        assert!(c.commit("bank", ops).unwrap().all_ok());
    }
    let live = c.firings("bank", 0).unwrap();
    assert_eq!(live, oracle.firings_from(0));
    assert!(live.iter().any(|f| f.rule == "a"), "`a` must have fired");
    let live_stats = c.tenant_stats("bank").unwrap();
    assert_eq!(live_stats.rules, 4);
    drop(server); // SIGKILL

    // Reopened, the WAL's one record for `a` holds the definition that
    // registered; the directory holds nothing but log and checkpoints.
    assert!(!tenant_dir.join("rules.tdbr").exists());
    let server = start_server(&data_dir);
    let mut c = Client::connect(&*server.addr).unwrap();
    assert_eq!(c.list_tenants().unwrap(), vec!["bank".to_string()]);
    assert_eq!(c.firings("bank", 0).unwrap(), live);
    let stats = c.tenant_stats("bank").unwrap();
    assert_eq!(
        (stats.rules, stats.states, stats.now, stats.batch_safety),
        (
            live_stats.rules,
            live_stats.states,
            live_stats.now,
            live_stats.batch_safety
        )
    );
    for i in 9..=14 {
        let ops = step_ops(i);
        for op in &ops {
            oracle.apply(op).unwrap();
        }
        assert!(c.commit("bank", ops).unwrap().all_ok());
    }
    assert_eq!(c.firings("bank", 0).unwrap(), oracle.firings_from(0));

    c.shutdown().unwrap();
    drop(server);
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// A transaction an acked commit opened and nobody closed, then SIGKILL:
/// the server boots, the tenant is back with the transaction aborted — its
/// firings and database those of a library twin that aborted it — and it
/// commits and reopens again.
#[test]
fn a_transaction_open_at_the_kill_does_not_stop_the_boot() {
    let data_dir = std::env::temp_dir().join(format!("tdb-crash-open-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).unwrap();

    let server = start_server(&data_dir);
    let mut c = Client::connect(&*server.addr).unwrap();
    c.create_tenant("bank", true).unwrap();
    assert!(c.commit("bank", seed_ops()).unwrap().all_ok());
    c.register_rules("bank", RULES).unwrap();
    assert!(c.commit("bank", vec![LogicalOp::Begin]).unwrap().all_ok());
    drop(server); // SIGKILL with the transaction open

    let mut twin = oracle_shard();
    assert!(twin.apply(&LogicalOp::Begin).unwrap().ok());
    let txn = twin.adb().engine().open_txns().next().unwrap();
    assert!(twin.apply(&LogicalOp::Abort { txn }).unwrap().ok());
    for i in 1..=2 {
        let server = start_server(&data_dir);
        let mut c = Client::connect(&*server.addr).unwrap();
        assert_eq!(c.list_tenants().unwrap(), vec!["bank".to_string()]);
        for op in step_ops(i) {
            twin.apply(&op).unwrap();
        }
        assert!(c.commit("bank", step_ops(i)).unwrap().all_ok());
        assert_eq!(c.firings("bank", 0).unwrap(), twin.firings_from(0));
        assert_eq!(
            c.query("bank", "item n", vec![]).unwrap(),
            twin.adb().db().eval_named("n", &[]).unwrap()
        );
        drop(server);
    }
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// A rule source reading a query nobody defined yet: refused at
/// registration, then the query is defined.
const LATE: &str = "rule late { when q() >= 1; then notify; }";

fn define_q() -> LogicalOp {
    LogicalOp::DefineQuery {
        name: "q".into(),
        def: QueryDef::new(0, parse_query("item n").unwrap()),
    }
}

fn durable_policy() -> CheckpointPolicy {
    CheckpointPolicy {
        sync: tdb_core::SyncPolicy::Always,
        ..Default::default()
    }
}

/// One request holding a member the interpreter refuses — valid-time
/// ingest, or an `AddRule` record — used to be logged, fail, and leave a
/// WAL that no later reopen could replay. It is now refused whole before
/// the WAL: the tenant's files are byte for byte what they were, the next
/// op succeeds, and a reopen lands on the live tenant's state count.
#[test]
fn a_refused_batch_member_leaves_the_log_alone_and_the_tenant_reopenable() {
    let dir = std::env::temp_dir().join(format!("tdb-crash-refused-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ManagerConfig::default;
    let mut t = Tenant::durable("bank", &dir, cfg(), durable_policy()).unwrap();
    for op in seed_ops() {
        assert!(t.apply(&op).unwrap().ok());
    }
    t.register_rules(RULES).unwrap();
    for refused in [
        LogicalOp::CommitAt {
            valid: Timestamp(0),
            ops: Vec::new(),
        },
        LogicalOp::AddRule {
            name: "ghost".into(),
        },
    ] {
        let bytes = t.wal_bytes();
        let err = t.apply_batch(&[LogicalOp::Tick, refused]).unwrap_err();
        assert!(
            matches!(err, ServerError::Core(CoreError::RefusedOp { .. })),
            "{err}"
        );
        assert_eq!(t.wal_bytes(), bytes, "a refused batch reached the disk");
        assert!(t.apply(&LogicalOp::Tick).unwrap().ok());
    }
    let (states, firings) = (t.stats().states, t.firings_from(0));
    drop(t);

    let t = Tenant::durable("bank", &dir, cfg(), durable_policy()).expect("reopen");
    assert_eq!(t.stats().states, states);
    assert_eq!(t.firings_from(0), firings);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A log written before batches were checked up front may hold a batch
/// that stopped at a refused member after applying the members before it.
/// Replay absorbs the batch's error as it absorbs any re-failing input,
/// so recovery lands on the state the live tenant had: each batch's `Tick`
/// is there, and so is the `Tick` logged after it.
#[test]
fn a_logged_batch_that_stopped_at_a_refused_member_replays_its_prefix() {
    let dir = std::env::temp_dir().join(format!("tdb-crash-oldbatch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ManagerConfig::default;
    let mut t = Tenant::durable("bank", &dir, cfg(), durable_policy()).unwrap();
    for op in seed_ops() {
        assert!(t.apply(&op).unwrap().ok());
    }
    t.register_rules(RULES).unwrap();
    let states = t.stats().states;
    drop(t);

    let newest = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| parse_segment_name(e.unwrap().file_name().to_str()?))
        .max()
        .unwrap();
    let path = dir.join(segment_file_name(newest));
    let seg = read_segment(&path, true).unwrap();
    let mut wal =
        WalWriter::resume(&path, seg.seq, seg.valid_len, tdb_core::SyncPolicy::Always).unwrap();
    let ghost = LogicalOp::AddRule {
        name: "ghost".into(),
    };
    let commit_at = LogicalOp::CommitAt {
        valid: Timestamp(0),
        ops: Vec::new(),
    };
    for member in [ghost, commit_at] {
        wal.append_batch(&[LogicalOp::Tick, member]).unwrap();
        wal.append(&LogicalOp::Tick).unwrap();
    }
    drop(wal);

    let t = Tenant::durable("bank", &dir, cfg(), durable_policy()).expect("reopen");
    assert_eq!(t.stats().states, states + 4);
    assert_eq!(t.stats().rules, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A valid-time tenant refuses an `AddRule` op before its WAL. It used to
/// log the op and then fail to resolve it live, so the rule was missing
/// before a restart and registered after one.
#[test]
fn vt_add_rule_op_is_refused_before_the_wal() {
    let dir = std::env::temp_dir().join(format!("tdb-crash-vtlate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sync = tdb_core::SyncPolicy::Always;
    let mut t = Tenant::durable_vt("stream", &dir, 2, sync).unwrap();
    for op in seed_ops() {
        assert!(t.apply(&op).unwrap().ok());
    }
    let err = t.register_rules(LATE).unwrap_err().to_string();
    assert!(err.contains('q'), "{err}");
    assert!(t.apply(&define_q()).unwrap().ok());
    let bytes = t.wal_bytes();
    let late = LogicalOp::AddRule {
        name: "late".into(),
    };
    match t.apply(&late) {
        Err(ServerError::Core(CoreError::RefusedOp { .. })) => {}
        other => panic!("expected a refusal, got {other:?}"),
    }
    assert_eq!(t.wal_bytes(), bytes, "a refused op reached the WAL");
    assert_eq!(t.stats().rules, 0);
    drop(t);

    let t = Tenant::durable_vt("stream", &dir, 2, sync).expect("reopen");
    assert_eq!(t.stats().rules, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `RegisterRules`, `AddRule` and `Firing` are log records, not inputs:
/// over the wire, on a plain and on a valid-time tenant, alone and as a
/// batch member, before and after a restart, each is refused with
/// `ErrorCode::Unsupported`, registers nothing — `late`, refused once for
/// the query it lacked and now carried whole by a `RegisterRules` record,
/// included — and leaves the tenant directory byte for byte as it was.
#[test]
fn log_records_are_refused_alike_on_every_tenant_kind_and_across_reopen() {
    let data_dir = std::env::temp_dir().join(format!("tdb-crash-records-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).unwrap();
    let server = start_server(&data_dir);
    let mut c = Client::connect(&*server.addr).unwrap();
    c.create_tenant("plain", true).unwrap();
    c.create_vt_tenant("vt", true, 2).unwrap();
    for tenant in ["plain", "vt"] {
        assert!(c.commit(tenant, seed_ops()).unwrap().all_ok());
        assert!(c.register_rules(tenant, LATE).is_err());
        assert!(c.commit(tenant, vec![define_q()]).unwrap().all_ok());
    }
    let records = [
        LogicalOp::RegisterRules {
            rules: rules_from_source(LATE).unwrap(),
        },
        LogicalOp::AddRule {
            name: "late".into(),
        },
        LogicalOp::Firing {
            record: FiringRecord {
                rule: "late".into(),
                state_index: 0,
                time: Timestamp(0),
                env: Default::default(),
            },
        },
    ];
    let check = |c: &mut Client, phase: &str| {
        for tenant in ["plain", "vt"] {
            for op in &records {
                for batched in [false, true] {
                    let files = dir_files(&data_dir.join(tenant));
                    let sent = if batched {
                        let ops = vec![LogicalOp::AdvanceClock { delta: 1 }, op.clone()];
                        c.commit_batch(tenant, ops)
                    } else {
                        c.commit(tenant, vec![op.clone()])
                    };
                    let cell = format!("{phase} {tenant} batched={batched} {op:?}");
                    match sent {
                        Err(ServerError::Remote { code, .. }) => {
                            assert_eq!(code, ErrorCode::Unsupported, "{cell}")
                        }
                        other => panic!("{cell}: expected a refusal, got {other:?}"),
                    }
                    assert_eq!(c.tenant_stats(tenant).unwrap().rules, 0, "{cell}");
                    assert!(dir_files(&data_dir.join(tenant)) == files, "{cell}");
                }
            }
        }
    };
    check(&mut c, "live");
    drop(server); // SIGKILL

    let server = start_server(&data_dir);
    let mut c = Client::connect(&*server.addr).unwrap();
    check(&mut c, "reopened");
    c.shutdown().unwrap();
    drop(server);
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// A valid-time tenant has one rule namespace too, and finds that out
/// before it writes anything: with trigger `a` registered, a constraint
/// named `a` — and a source defining one name twice — are refused with
/// the tenant directory byte for byte what it was. (Both used to register
/// live, triggers and constraints being checked against separate lists
/// after the source was stored and logged by name; replay then resolved
/// both names to the first `a` stored, absorbed the second as a duplicate,
/// and the constraint was gone after a crash.) An `a` refused earlier for
/// its action must not be the definition replay picks.
#[test]
fn vt_duplicate_rule_name_is_refused_before_anything_is_written() {
    const MAX_DELAY: i64 = 3;
    const WRITER: &str = "rule a { when n() >= 10; then set n := 0; }";
    const TRIGGER: &str = "rule a { when n() >= 60; then notify; }";
    const CONSTRAINT: &str = "rule a { when n() <= 1000; then abort; }";
    const TWICE: &str = "rule b { when n() >= 1; then notify; }\n\
                         rule b { when n() >= 2; then notify; }";

    let data_dir = std::env::temp_dir().join(format!("tdb-crash-vtdup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).unwrap();

    // Step `i`: a value at valid time `i`, arriving up to Δ late.
    let step = |i: i64| {
        let value = (i * 37) % 100;
        let set = WriteOp::SetItem {
            item: "n".into(),
            value: Value::Int(value),
        };
        (Timestamp(i + i % (MAX_DELAY + 1)), Timestamp(i), vec![set])
    };
    let mut base = Database::new();
    base.set_item("n", Value::Int(0));
    base.define_query("n", QueryDef::new(0, parse_query("item n").unwrap()));
    let mut oracle = VtActiveDatabase::new_streaming(base, MAX_DELAY);
    oracle
        .add_trigger("a", parse_formula("n() >= 60").unwrap())
        .unwrap();

    let server = start_server(&data_dir);
    let mut c = Client::connect(&*server.addr).unwrap();
    c.create_vt_tenant("stream", true, MAX_DELAY).unwrap();
    assert!(c.commit("stream", seed_ops()).unwrap().all_ok());
    let err = c.register_rules("stream", WRITER).unwrap_err().to_string();
    assert!(err.contains("valid-time tenants support only"), "{err}");
    c.register_rules("stream", TRIGGER).unwrap();

    let files = || dir_files(&data_dir.join("stream"));
    let before = files();
    assert!(!before.contains_key("rules.tdbr"));
    for refused in [CONSTRAINT, TWICE] {
        let err = c.register_rules("stream", refused).unwrap_err().to_string();
        assert!(err.contains("already registered"), "{err}");
        assert!(files() == before, "a refused source reached the disk");
    }

    // One wire `CommitAt` against the oracle: same events, phases included.
    let mut commit_at = |c: &mut Client, i: i64| {
        let (arrival, valid, ops) = step(i);
        let mut want = oracle.advance_to(arrival.max(oracle.now())).unwrap();
        want.extend(oracle.ingest(ops.clone(), valid).unwrap());
        let (_, got) = c.commit_at("stream", arrival, valid, ops).unwrap();
        assert_eq!(got, want, "step {i}");
        want.iter()
            .filter(|e| e.phase == VtPhase::Confirmed)
            .map(|e| e.record.clone())
            .collect::<Vec<FiringRecord>>()
    };
    let mut confirmed = Vec::new();
    for i in 1..=12 {
        confirmed.extend(commit_at(&mut c, i));
    }
    assert!(!confirmed.is_empty(), "`a` must have confirmed a firing");
    assert_eq!(c.firings("stream", 0).unwrap(), confirmed);
    let live_stats = c.tenant_stats("stream").unwrap();
    assert_eq!(live_stats.rules, 1);
    drop(server); // SIGKILL

    let server = start_server(&data_dir);
    let mut c = Client::connect(&*server.addr).unwrap();
    let stats = c.tenant_stats("stream").unwrap();
    assert_eq!(
        (stats.rules, stats.states, stats.now),
        (live_stats.rules, live_stats.states, live_stats.now)
    );
    assert_eq!(c.firings("stream", 0).unwrap(), confirmed);
    for i in 13..=24 {
        confirmed.extend(commit_at(&mut c, i));
    }
    assert_eq!(c.firings("stream", 0).unwrap(), confirmed);

    c.shutdown().unwrap();
    drop(server);
    let _ = std::fs::remove_dir_all(&data_dir);
}

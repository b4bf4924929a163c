//! Same-tenant concurrent commits through the adaptive coalescer.
//!
//! Eight connections commit to ONE durable tenant (fsync on every append),
//! so commits queue up behind each other's fsync and the worker merges
//! them into group commits. Whatever groups form, every client must be
//! acked exactly its own ops' outcomes and firings, and the tenant's
//! history must equal an in-process [`Tenant`] applying the same commits
//! one op at a time in the order the server serialized them — for an
//! `Exact` catalog, whose groups evaluate as one fused slice, and for a
//! `Stratified` one (a writer rule feeding a reader), whose groups have to
//! fence.
//!
//! Over the wire every trigger rule records its executions, which makes it
//! a writer, so the only `Exact` catalogs are constraint-only ones. Every
//! commit therefore ends in a write the constraint vetoes: a veto is logged
//! as a firing of the constraint, which is what makes the commit order (and
//! any mix-up between clients) observable in that round too.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use std::sync::Mutex;
use std::time::Duration;

use tdb_core::manager::ManagerConfig;
use tdb_core::rules::FiringRecord;
use tdb_core::storage::LogicalOp;
use tdb_engine::WriteOp;
use tdb_relation::{parse_query, QueryDef, Value};
use tdb_server::tenant::Tenant;
use tdb_server::{Client, CommitOutcome, Server, ServerConfig};

const CLIENTS: usize = 8;
const COMMITS: usize = 40;

/// Certificate `exact`: no rule writes. `cap` vetoes the oversized write
/// every commit ends in.
const EXACT: &str = "rule cap { when n() <= 1000000; then abort; }\n";

/// Certificate `stratified`: `relay` writes `m`, which `echo` only reads.
const STRATIFIED: &str = "rule relay { when n() >= 100; then set m := n() + 1; }\n\
                          rule echo { when [v := m()] v >= 100; then notify; }\n\
                          rule cap { when n() <= 1000000; then abort; }\n";

fn seed_ops() -> Vec<LogicalOp> {
    let mut ops = Vec::new();
    for item in ["n", "m"] {
        ops.push(LogicalOp::SetItem {
            name: item.into(),
            value: Value::Int(0),
        });
        ops.push(LogicalOp::DefineQuery {
            name: item.into(),
            def: QueryDef::new(0, parse_query(&format!("item {item}")).unwrap()),
        });
    }
    ops
}

/// Client `d`'s `k`-th commit: a clock tick, one to three dips below the
/// threshold and crossings back to values unique to (d, k) — so an outcome
/// or firing handed to the wrong client cannot go unnoticed — and a final
/// write the constraint vetoes.
fn commit_ops(d: usize, k: usize) -> Vec<LogicalOp> {
    let set = |v: i64| LogicalOp::Update {
        ops: vec![WriteOp::SetItem {
            item: "n".into(),
            value: Value::Int(v),
        }],
    };
    let unique = (100 + d * 10_000 + k * 10) as i64;
    let mut ops = vec![LogicalOp::AdvanceClock { delta: 1 }];
    for j in 0..=(k % 3) as i64 {
        ops.extend([set(-1), set(unique + j)]);
    }
    ops.push(set(2_000_000 + unique));
    ops
}

/// One client's acked commit.
struct Acked {
    ops: Vec<LogicalOp>,
    out: CommitOutcome,
}

/// Drives one full round; `Ok(false)` means every check passed but the
/// scheduler never let two commits queue up, so no group formed.
fn round(tag: &str, rules: &str, is_class: fn(i64) -> bool) -> Result<bool, String> {
    let dir = std::env::temp_dir().join(format!("tdb-coalesce-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    let mut setup = Client::connect(addr).unwrap();
    setup.create_tenant("co", true).unwrap();
    assert!(setup.commit("co", seed_ops()).unwrap().all_ok());
    setup.register_rules("co", rules).unwrap();
    let safety = setup.tenant_stats("co").unwrap().batch_safety;
    assert!(is_class(safety), "{tag}: batch-safety gauge is {safety}");

    let mut sub = Client::connect(addr).unwrap();
    sub.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let sub_id = sub.subscribe("co").unwrap();

    let groups = || {
        tdb_obs::global()
            .snapshot()
            .counter_family("tdb_wal_batch_appends_total")
    };
    let groups_before = groups();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|d| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                (0..COMMITS)
                    .map(|k| {
                        let ops = commit_ops(d, k);
                        let out = c.commit("co", ops.clone()).unwrap();
                        Acked { ops, out }
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut acked: Vec<Acked> = clients
        .into_iter()
        .flat_map(|t| t.join().unwrap())
        .collect();
    let grouped = groups() > groups_before;

    // The server's serialization order, read off the acks: time only
    // moves forward on a tenant and every commit fires at least once (its
    // veto), so first-firing timestamps order the commits.
    if let Some(a) = acked.iter().find(|a| a.out.firings.is_empty()) {
        return Err(format!("{tag}: a commit was acked no firing: {:?}", a.out));
    }
    acked.sort_by_key(|a| a.out.firings[0].time);
    if acked
        .windows(2)
        .any(|w| w[0].out.firings[0].time == w[1].out.firings[0].time)
    {
        return Err(format!("{tag}: two commits fired at the same instant"));
    }

    // The oracle: same commits, same order, one op at a time, no server.
    let mut oracle = Tenant::volatile("oracle", ManagerConfig::default());
    for op in seed_ops() {
        assert!(oracle.apply(&op).unwrap().ok());
    }
    oracle.register_rules(rules).unwrap();
    for (i, a) in acked.iter().enumerate() {
        let mut want = CommitOutcome {
            outcomes: Vec::new(),
            firings: Vec::new(),
        };
        for op in &a.ops {
            let out = oracle.apply(op).unwrap();
            want.outcomes.push(out.result);
            want.firings.extend(out.firings);
        }
        assert!(want.outcomes.last().unwrap().is_err(), "{tag}: no veto");
        if a.out != want {
            return Err(format!(
                "{tag}: commit #{i} acked {:?}, the oracle says {want:?}",
                a.out
            ));
        }
    }

    let log = setup.firings("co", 0).unwrap();
    if log != oracle.firings_from(0) {
        return Err(format!("{tag}: firing log diverges from the oracle"));
    }
    let (got, want) = (setup.tenant_stats("co").unwrap(), oracle.stats());
    if (got.states, got.now) != (want.states as u64, want.now) {
        return Err(format!("{tag}: history is {got:?}, the oracle's {want:?}"));
    }
    let pushed: Vec<FiringRecord> = (0..log.len())
        .map(|_| {
            let (id, record) = sub.recv_firing().unwrap();
            assert_eq!(id, sub_id);
            record
        })
        .collect();
    if pushed != log {
        return Err(format!("{tag}: pushed stream diverges from the log"));
    }

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(grouped)
}

/// A mismatch fails at once; only "no group formed" earns a retry, so a
/// quiet scheduler cannot flake the test.
fn check(tag: &str, rules: &str, is_class: fn(i64) -> bool) {
    // The group-commit counter is process-wide: one round at a time.
    static ROUND: Mutex<()> = Mutex::new(());
    let _one_at_a_time = ROUND.lock().unwrap_or_else(|e| e.into_inner());
    tdb_obs::set_enabled(true);
    for attempt in 1..=3 {
        match round(&format!("{tag}{attempt}"), rules, is_class) {
            Ok(true) => return,
            Ok(false) => eprintln!("{tag}: attempt {attempt} formed no group commit"),
            Err(msg) => panic!("{msg}"),
        }
    }
    panic!("{tag}: 3 rounds of {CLIENTS} concurrent committers never coalesced");
}

#[test]
fn exact_catalog_coalesces_and_matches_the_per_op_oracle() {
    check("exact", EXACT, |safety| safety == 0);
}

#[test]
fn stratified_catalog_coalesces_and_matches_the_per_op_oracle() {
    check("strat", STRATIFIED, |safety| safety >= 1);
}

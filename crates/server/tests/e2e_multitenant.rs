//! End-to-end acceptance test: ≥8 tenants over real TCP, driven
//! concurrently, each compared against a single-process library oracle.
//!
//! Every tenant gets a distinct (deterministic, per-tenant) op stream.
//! The oracle runs the identical stream through a [`tdb_core::Shard`]
//! in-process; the test asserts the tenant's full firing history — rule
//! names, state indices, timestamps, environments — is **identical** to
//! the oracle's, and that both the catch-up read (`Firings`) and the push
//! stream (`SubscribeFirings`) agree with it.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use std::sync::{Arc, Mutex};

use tdb_core::manager::ManagerConfig;
use tdb_core::rules::FiringRecord;
use tdb_core::shard::Shard;
use tdb_core::storage::LogicalOp;
use tdb_core::{VtFiringEvent, VtPhase};
use tdb_engine::WriteOp;
use tdb_relation::{parse_query, Database, QueryDef, Relation, Timestamp, Value};
use tdb_server::tenant::rules_from_source;
use tdb_server::wire::MetricsFormat;
use tdb_server::{Client, Server, ServerConfig, ServerError};

const TENANTS: usize = 8;

const RULES: &str = "rule watch { when n() >= threshold(); then notify; }\n\
                     rule cap { when n() <= 1000; then abort; }\n\
                     rule echo { when n() = 42; then set m := n() + 1; }\n";

/// The deterministic per-tenant op stream. Tenant `i` crosses its
/// threshold at a different step, so firing histories must differ across
/// tenants — a cross-tenant leak would show up as a mismatch.
fn script(i: usize) -> Vec<LogicalOp> {
    let set = |item: &str, v: i64| LogicalOp::Update {
        ops: vec![WriteOp::SetItem {
            item: item.into(),
            value: Value::Int(v),
        }],
    };
    let mut ops = vec![
        LogicalOp::SetItem {
            name: "n".into(),
            value: Value::Int(0),
        },
        LogicalOp::SetItem {
            name: "m".into(),
            value: Value::Int(0),
        },
        LogicalOp::SetItem {
            name: "threshold".into(),
            value: Value::Int(3 + i as i64),
        },
        LogicalOp::DefineQuery {
            name: "n".into(),
            def: QueryDef::new(0, parse_query("item n").unwrap()),
        },
        LogicalOp::DefineQuery {
            name: "m".into(),
            def: QueryDef::new(0, parse_query("item m").unwrap()),
        },
        LogicalOp::DefineQuery {
            name: "threshold".into(),
            def: QueryDef::new(0, parse_query("item threshold").unwrap()),
        },
    ];
    for step in 1..=12i64 {
        ops.push(LogicalOp::AdvanceClock { delta: 1 });
        // A value walk that crosses the threshold, revisits 42 for tenant
        // parity, and pokes the constraint once.
        let v = match step {
            7 => 42,
            9 => 2_000 + i as i64, // vetoed by `cap`
            s => s + (i as i64 % 3),
        };
        ops.push(set("n", v));
    }
    ops
}

/// Runs the identical stream through the library, no server involved.
fn oracle(i: usize) -> Vec<FiringRecord> {
    let mut shard = Shard::volatile(Database::new(), ManagerConfig::default());
    // Seed + rules in the same order the server path uses: seed commit
    // first (the first 6 ops), then rule registration, then the walk.
    let ops = script(i);
    for op in &ops[..6] {
        assert!(shard.apply(op).unwrap().ok());
    }
    for rule in rules_from_source(RULES).unwrap() {
        shard.add_rule(rule).unwrap();
    }
    for op in &ops[6..] {
        shard.apply(op).unwrap();
    }
    shard.firings_from(0)
}

#[test]
fn eight_tenants_match_library_oracle_over_tcp() {
    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let threads: Vec<_> = (0..TENANTS)
        .map(|i| {
            let failures = Arc::clone(&failures);
            std::thread::spawn(move || {
                if let Err(msg) = drive_tenant(addr, i) {
                    failures.lock().unwrap().push(msg);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let failures = failures.lock().unwrap();
    assert!(failures.is_empty(), "{}", failures.join("\n"));

    // The shared exposition sees every tenant's gauges.
    let mut c = Client::connect(addr).unwrap();
    let text = c.metrics(MetricsFormat::Prometheus).unwrap();
    for i in 0..TENANTS {
        assert!(
            text.contains(&format!("tenant=\"e2e-{i}\"")),
            "metrics missing tenant e2e-{i}"
        );
    }
    assert!(c.list_tenants().unwrap().len() >= TENANTS);
    handle.stop();
}

fn drive_tenant(addr: std::net::SocketAddr, i: usize) -> Result<(), String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("tenant {i}: {what}: {e}");
    let tenant = format!("e2e-{i}");
    let mut c = Client::connect(addr).map_err(|e| fail("connect", &e))?;
    c.create_tenant(&tenant, false)
        .map_err(|e| fail("create", &e))?;

    // Separate subscriber connection: push frames must arrive there, not
    // on the driving connection.
    let mut sub_conn = Client::connect(addr).map_err(|e| fail("sub connect", &e))?;
    let ops = script(i);
    let seed = c
        .commit(&tenant, ops[..6].to_vec())
        .map_err(|e| fail("seed", &e))?;
    if !seed.all_ok() {
        return Err(format!("tenant {i}: seed rejected: {:?}", seed.outcomes));
    }
    let (registered, _) = c
        .register_rules(&tenant, RULES)
        .map_err(|e| fail("register", &e))?;
    if registered != ["watch", "cap", "echo"] {
        return Err(format!("tenant {i}: registered {registered:?}"));
    }
    let sub_id = sub_conn
        .subscribe(&tenant)
        .map_err(|e| fail("subscribe", &e))?;

    // Drive the walk one op per commit (interleaves tenants on the wire),
    // accumulating the firings acked in commit responses.
    let mut acked: Vec<FiringRecord> = Vec::new();
    for op in &ops[6..] {
        let out = c
            .commit(&tenant, vec![op.clone()])
            .map_err(|e| fail("commit", &e))?;
        acked.extend(out.firings);
    }

    let expected = oracle(i);
    if acked != expected {
        return Err(format!(
            "tenant {i}: acked firings diverge from oracle\n  acked:  {acked:?}\n  oracle: {expected:?}"
        ));
    }

    // Catch-up read returns the identical history.
    let listed = c.firings(&tenant, 0).map_err(|e| fail("firings", &e))?;
    if listed != expected {
        return Err(format!("tenant {i}: catch-up read diverges from oracle"));
    }

    // And the push stream delivered every firing, in order.
    sub_conn
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .map_err(|e| fail("timeout", &e))?;
    for want in &expected {
        let (id, rec) = sub_conn.recv_firing().map_err(|e| fail("recv", &e))?;
        if id != sub_id || &rec != want {
            return Err(format!(
                "tenant {i}: streamed firing mismatch: ({id}, {rec:?}) vs {want:?}"
            ));
        }
    }

    // Spot-check final state through Query (tenant isolation: the walk's
    // last value depends on i).
    let rel = c
        .query(&tenant, "item n", vec![])
        .map_err(|e| fail("query", &e))?;
    let want = Relation::scalar(Value::Int(12 + (i as i64 % 3)));
    if rel != want {
        return Err(format!("tenant {i}: final n = {rel:?}, oracle {want:?}"));
    }
    let stats = c.tenant_stats(&tenant).map_err(|e| fail("stats", &e))?;
    if stats.rules != 3 || stats.firings != expected.len() as u64 {
        return Err(format!("tenant {i}: stats {stats:?}"));
    }
    // The catalog's writers (recorded executions, echo's impure set) feed
    // only the level-triggered constraint: an acyclic cascade, 2 strata.
    if stats.batch_safety != 2 {
        return Err(format!(
            "tenant {i}: batch_safety = {}, want stratified(2)",
            stats.batch_safety
        ));
    }
    Ok(())
}

/// A snapshot fetched over the wire decodes and restores into a library
/// facade with the same state and firing log.
#[test]
fn wire_snapshot_restores_in_library() {
    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    c.create_tenant("snap", false).unwrap();
    let ops = script(0);
    c.commit("snap", ops[..6].to_vec()).unwrap();
    c.register_rules("snap", RULES).unwrap();
    c.commit("snap", ops[6..].to_vec()).unwrap();
    let server_firings = c.firings("snap", 0).unwrap();

    let bytes = c.snapshot("snap").unwrap();
    let snap = tdb_storage::codec::decode_snapshot(&bytes).unwrap();
    let adb = tdb_core::ActiveDatabase::restore(snap, ManagerConfig::default()).unwrap();
    assert_eq!(adb.firings(), &server_firings[..]);
    assert_eq!(adb.db().item("n").unwrap(), Value::Int(12));
    handle.stop();
}

/// One connection subscribed to a plain and a valid-time tenant receives
/// both kinds of pushed frame: `recv_firing` and `recv_vt_event` each queue
/// the other kind, so together they deliver every frame, and the vt events
/// arrive in the order and phases the `CommitAt` acks reported.
#[test]
fn one_connection_receives_plain_and_valid_time_pushes() {
    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    c.create_tenant("plain", false).unwrap();
    c.create_vt_tenant("vt", false, 4).unwrap();
    for tenant in ["plain", "vt"] {
        assert!(c.commit(tenant, script(0)[..6].to_vec()).unwrap().all_ok());
        c.register_rules(tenant, "rule high { when n() >= 60; then notify; }")
            .unwrap();
    }
    let mut sub = Client::connect(handle.addr()).unwrap();
    sub.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let plain_id = sub.subscribe("plain").unwrap();
    let vt_id = sub.subscribe("vt").unwrap();

    // A subscriber's frames are pushed before the committer is answered,
    // so these commits reach the socket in this order, the two kinds
    // interleaved and a valid-time event first.
    let set_n = |v: i64| {
        vec![WriteOp::SetItem {
            item: "n".into(),
            value: Value::Int(v),
        }]
    };
    // Wire triggers are edge-triggered: dropping n first makes each plain
    // commit cross the threshold once.
    let plain_commit = |c: &mut Client, v: i64| {
        let ops = vec![
            LogicalOp::AdvanceClock { delta: 1 },
            LogicalOp::Update { ops: set_n(0) },
            LogicalOp::Update { ops: set_n(v) },
        ];
        let out = c.commit("plain", ops).unwrap();
        assert!(out.all_ok());
        assert_eq!(out.firings.len(), 1);
        out.firings
    };
    let mut vt_acked = Vec::new();
    let (_, events) = c
        .commit_at("vt", Timestamp(2), Timestamp(2), set_n(70))
        .unwrap();
    vt_acked.extend(events);
    let mut plain_acked = plain_commit(&mut c, 70);
    let (watermark, events) = c
        .commit_at("vt", Timestamp(9), Timestamp(9), set_n(5))
        .unwrap();
    assert_eq!(watermark, Timestamp(5));
    vt_acked.extend(events);
    plain_acked.extend(plain_commit(&mut c, 80));

    let phases: Vec<(VtPhase, Timestamp)> =
        vt_acked.iter().map(|e| (e.phase, e.record.time)).collect();
    assert_eq!(
        phases,
        [
            (VtPhase::Tentative, Timestamp(2)),
            (VtPhase::Confirmed, Timestamp(2))
        ],
        "the watermark passed the tentative firing and confirmed it"
    );

    let mut plain_pushed = Vec::new();
    let mut vt_seen = 0;
    while plain_pushed.len() < plain_acked.len() {
        match sub.recv_firing() {
            Ok((id, record)) => {
                assert_eq!(id, plain_id);
                plain_pushed.push(record);
            }
            // A valid-time event, queued for `recv_vt_event`.
            Err(ServerError::Invalid(_)) => vt_seen += 1,
            Err(e) => panic!("recv_firing: {e}"),
        }
    }
    assert_eq!(plain_pushed, plain_acked);
    assert_eq!(vt_seen, vt_acked.len(), "both vt events came first");
    let vt_pushed: Vec<VtFiringEvent> = vt_acked
        .iter()
        .map(|_| {
            let (id, event) = sub.recv_vt_event().unwrap();
            assert_eq!(id, vt_id);
            event
        })
        .collect();
    assert_eq!(vt_pushed, vt_acked);
    handle.stop();
}

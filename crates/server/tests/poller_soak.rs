//! Soak tests for the readiness-based connection layer: many mostly-idle
//! subscriber connections multiplexed onto the single poller thread, concurrent committers driving pushes through
//! the per-connection outbound queues, and the slow-consumer backpressure
//! path (bounded buffer → typed kill, never unbounded memory).

#![allow(clippy::disallowed_methods)] // tests may unwrap

use std::time::Duration;

use tdb_core::storage::LogicalOp;
use tdb_engine::WriteOp;
use tdb_relation::{parse_query, QueryDef, Value};
use tdb_server::{Client, Request, Response, Runtime, Server, ServerConfig};

const RULE: &str = "rule watch { when n() >= 5; then notify; }";

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

/// One commit that produces exactly `k` edge-triggered firings: each pair
/// drops `n` below the threshold and then crosses it again.
fn toggles(k: usize, v: i64) -> Vec<LogicalOp> {
    let set = |v: i64| LogicalOp::Update {
        ops: vec![WriteOp::SetItem {
            item: "n".into(),
            value: Value::Int(v),
        }],
    };
    let mut ops = vec![LogicalOp::AdvanceClock { delta: 1 }];
    for _ in 0..k {
        ops.push(set(-1));
        ops.push(set(v));
    }
    ops
}

/// 8 tenants, 16 subscribers each (128 mostly-idle connections) plus 8
/// concurrently committing clients, all through one poller thread. Every
/// subscriber must see every firing of its tenant, in order, with no
/// frame corruption from the interleaved writes; the pushed stream must
/// equal the server's own firing log.
#[test]
fn many_idle_subscribers_and_concurrent_committers() {
    const TENANTS: usize = 8;
    const SUBS_PER_TENANT: usize = 16;
    const COMMITS: usize = 20;

    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    let mut setup = Client::connect(addr).unwrap();
    for i in 0..TENANTS {
        let tenant = format!("t{i}");
        setup.create_tenant(&tenant, false).unwrap();
        assert!(setup.commit(&tenant, seed_ops()).unwrap().all_ok());
        setup.register_rules(&tenant, RULE).unwrap();
    }

    // Subscribe everything BEFORE the first firing so every subscriber
    // owes us the full stream.
    let mut subs: Vec<(usize, u64, Client)> = Vec::new();
    for i in 0..TENANTS {
        for _ in 0..SUBS_PER_TENANT {
            let mut c = Client::connect(addr).unwrap();
            c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            let id = c.subscribe(&format!("t{i}")).unwrap();
            subs.push((i, id, c));
        }
    }

    // 8 concurrent committers, one per tenant, each on its own socket.
    let committers: Vec<_> = (0..TENANTS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let tenant = format!("t{i}");
                let mut acked = Vec::new();
                for step in 0..COMMITS {
                    let out = c.commit(&tenant, toggles(1, 10 + step as i64)).unwrap();
                    assert!(out.all_ok(), "tenant {tenant} step {step}");
                    assert_eq!(out.firings.len(), 1, "one edge per commit");
                    acked.extend(out.firings);
                }
                acked
            })
        })
        .collect();
    let acked: Vec<_> = committers.into_iter().map(|t| t.join().unwrap()).collect();

    // The server's own log agrees with what the committers were acked.
    let mut logs = Vec::new();
    for (i, acked) in acked.iter().enumerate() {
        let log = setup.firings(&format!("t{i}"), 0).unwrap();
        assert_eq!(&log, acked, "tenant t{i}: acked firings diverge from log");
        logs.push(log);
    }

    // Every subscriber drained its tenant's full stream, in order, under
    // its own subscription id.
    for (i, id, c) in &mut subs {
        let mut got = Vec::with_capacity(COMMITS);
        for _ in 0..COMMITS {
            let (rid, rec) = c.recv_firing().unwrap();
            assert_eq!(rid, *id, "frame routed to the wrong subscription");
            got.push(rec);
        }
        assert_eq!(got, logs[*i], "tenant t{i}: pushed stream diverges");
    }

    handle.stop();
}

/// A subscriber that never reads gets disconnected once its outbound
/// queue hits the hard limit — after the soft limit counted a
/// backpressure stall — while commits keep flowing for everyone else.
#[test]
fn slow_consumer_is_disconnected_not_buffered_without_bound() {
    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        outbuf_soft_limit: 1024,
        outbuf_hard_limit: 4096,
        ..ServerConfig::default()
    })
    .unwrap();
    let rt = handle.runtime();
    let tenant = || "hose".to_string();
    let created = rt.call(Request::CreateTenant {
        name: tenant(),
        durable: false,
    });
    assert_eq!(created, Response::TenantCreated);
    // In-process commits: the pump below must not depend on its own
    // socket staying writable.
    let commit = |rt: &Runtime, ops| match rt.call(Request::Commit {
        tenant: tenant(),
        ops,
    }) {
        Response::Committed { outcomes, firings } => {
            assert!(outcomes.iter().all(|o| o.is_ok()));
            firings.len()
        }
        other => panic!("commit: {other:?}"),
    };
    commit(rt, seed_ops());
    // A very long rule name makes every pushed firing frame ~1.5KB, so the
    // kernel's socket buffers fill after a few hundred frames and the
    // backpressure reaches the server-side outbound queue quickly.
    let fat_rule = format!(
        "rule {} {{ when n() >= 5; then notify; }}",
        "w".repeat(1500)
    );
    let registered = rt.call(Request::RegisterRule {
        tenant: tenant(),
        source: fat_rule,
    });
    assert!(
        matches!(registered, Response::RulesRegistered { .. }),
        "{registered:?}"
    );

    let mut lazy = Client::connect(handle.addr()).unwrap();
    lazy.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    lazy.subscribe("hose").unwrap();

    let backpressure_before = rt.metrics.conn_backpressure.get();
    // Pump firing bytes at the non-reading subscriber until the outbound
    // queue crosses the soft limit (counted as a stall episode), then keep
    // going well past the hard limit so the kill is certain. The cap only
    // matters if backpressure never engages — which is the failure mode
    // this test exists to catch.
    let mut committed = 0usize;
    let mut step = 0i64;
    let mut pump = |n: usize, committed: &mut usize| {
        for _ in 0..n {
            *committed += commit(rt, toggles(25, 10 + step));
            step += 1;
        }
    };
    for _ in 0..120 {
        pump(1, &mut committed);
        if rt.metrics.conn_backpressure.get() > backpressure_before {
            break;
        }
    }
    assert!(
        rt.metrics.conn_backpressure.get() > backpressure_before,
        "soft limit crossing must count a stall episode \
         ({committed} firings pumped, none stalled)"
    );
    // ~750KB more than the 4KB hard limit can hold: the kill must happen.
    pump(20, &mut committed);

    // Commits after the kill still succeed: the slow consumer cost one
    // bounded buffer, not the tenant.
    committed += commit(rt, toggles(1, 10));

    // The lazy client can only drain what kernel buffers + the bounded
    // queue held before the kill; the stream then ends in a hard error
    // (disconnect), not a timeout and not the full backlog.
    let mut drained = 0usize;
    let err = loop {
        match lazy.recv_firing() {
            Ok(_) => drained += 1,
            Err(e) => break e,
        }
        assert!(
            drained < committed,
            "slow consumer received the full backlog — nothing was dropped, \
             so the buffer was unbounded"
        );
    };
    let msg = err.to_string();
    assert!(
        !msg.contains("timed out") && !msg.contains("TimedOut"),
        "expected a disconnect, hit a read timeout after {drained}/{committed} \
         frames: {msg}"
    );
    handle.stop();
}

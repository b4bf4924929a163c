//! A `CommitAt` whose ops cannot apply (here: an insert into a relation the
//! tenant does not have) is a typed error over the wire, not a dead worker:
//! the tenant keeps serving, and — because the op is logged write-ahead — a
//! durable tenant carrying the record in its WAL recovers past it.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use tdb_core::storage::LogicalOp;
use tdb_core::VtPhase;
use tdb_engine::WriteOp;
use tdb_relation::{parse_query, tuple, QueryDef, Timestamp, Value};
use tdb_server::wire::{ErrorCode, MetricsFormat};
use tdb_server::{Client, Server, ServerConfig, ServerError};

const RULES: &str = "rule high { when n() >= 60; then notify; }\n";

fn set_n(value: i64) -> Vec<WriteOp> {
    vec![WriteOp::SetItem {
        item: "n".into(),
        value: Value::Int(value),
    }]
}

fn start(data_dir: &std::path::Path) -> tdb_server::ServerHandle {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        data_dir: Some(data_dir.to_path_buf()),
        ..ServerConfig::default()
    })
    .unwrap()
}

#[test]
fn unknown_relation_commit_at_is_typed_survivable_and_recoverable() {
    let data_dir = std::env::temp_dir().join(format!("tdb-vt-nope-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).unwrap();

    let server = start(&data_dir);
    let mut c = Client::connect(server.addr()).unwrap();
    c.create_vt_tenant("s", true, 4).unwrap();
    // Counted under its own kind, not as a plain `create_tenant`.
    let scrape = c.metrics(MetricsFormat::Prometheus).unwrap();
    let counted = scrape
        .lines()
        .find_map(|l| l.strip_prefix("tdb_server_requests{kind=\"create_vt_tenant\"} "))
        .and_then(|n| n.parse::<u64>().ok());
    assert!(counted >= Some(1), "create_vt_tenant count: {counted:?}");
    c.commit(
        "s",
        vec![
            LogicalOp::SetItem {
                name: "n".into(),
                value: Value::Int(0),
            },
            LogicalOp::DefineQuery {
                name: "n".into(),
                def: QueryDef::new(0, parse_query("item n").unwrap()),
            },
        ],
    )
    .unwrap();
    c.register_rules("s", RULES).unwrap();
    let (_, events) = c
        .commit_at("s", Timestamp(2), Timestamp(2), set_n(70))
        .unwrap();
    assert!(events.iter().any(|e| e.phase == VtPhase::Tentative));

    // The probe: a typed error response, on a connection that stays usable.
    let err = c
        .commit_at(
            "s",
            Timestamp(3),
            Timestamp(3),
            vec![WriteOp::Insert {
                relation: "nope".into(),
                tuple: tuple![1i64],
            }],
        )
        .unwrap_err();
    match &err {
        ServerError::Remote { code, message } => {
            assert_eq!(*code, ErrorCode::Internal);
            assert!(message.contains("nope"), "{message}");
        }
        other => panic!("expected a typed error response, got {other}"),
    }

    // The worker survived: the same single-worker tenant keeps ingesting,
    // late and in order, and confirms the first firing.
    c.commit_at("s", Timestamp(4), Timestamp(3), set_n(10))
        .unwrap();
    let (watermark, events) = c
        .commit_at("s", Timestamp(9), Timestamp(9), set_n(5))
        .unwrap();
    assert_eq!(watermark, Timestamp(5));
    assert!(events
        .iter()
        .any(|e| e.phase == VtPhase::Confirmed && e.record.time == Timestamp(2)));
    let confirmed = c.firings("s", 0).unwrap();
    let stats = c.tenant_stats("s").unwrap();
    assert_eq!(confirmed.len(), 1);
    assert_eq!(stats.firings, 1);
    drop(c);
    server.stop();

    // Reboot on the same directory: the WAL holds the rejected record, and
    // replay must absorb it instead of panicking on it.
    let server = start(&data_dir);
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.list_tenants().unwrap(), vec!["s".to_string()]);
    assert_eq!(c.firings("s", 0).unwrap(), confirmed);
    let recovered = c.tenant_stats("s").unwrap();
    assert_eq!(recovered.states, stats.states);
    assert_eq!(recovered.now, stats.now);
    c.commit_at("s", Timestamp(10), Timestamp(10), set_n(80))
        .unwrap();
    drop(c);
    server.stop();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// A valid-time trigger the evaluator cannot run — a temporal aggregate
/// over a free variable, which would need an accumulator per binding — is
/// refused at registration with a typed error. Nothing of it reaches the
/// WAL: the rules registered after it, a closed aggregate among them, fire,
/// and a reopen replays the same tenant.
#[test]
fn unrunnable_trigger_is_refused_at_registration() {
    let data_dir = std::env::temp_dir().join(format!("tdb-vt-agg-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).unwrap();

    let server = start(&data_dir);
    let mut c = Client::connect(server.addr()).unwrap();
    c.create_vt_tenant("s", true, 4).unwrap();
    c.commit(
        "s",
        vec![
            LogicalOp::SetItem {
                name: "n".into(),
                value: Value::Int(0),
            },
            LogicalOp::DefineQuery {
                name: "n".into(),
                def: QueryDef::new(0, parse_query("item n").unwrap()),
            },
        ],
    )
    .unwrap();
    let err = c
        .register_rules(
            "s",
            "rule per_user { when @hit(u) and count(n(); @hit(u); true) > 1; then notify; }\n",
        )
        .unwrap_err();
    match &err {
        ServerError::Remote { message, .. } => {
            assert!(message.contains("aggregate"), "{message}");
        }
        other => panic!("expected a typed error response, got {other}"),
    }
    // A rule over an undefined query — trigger or constraint — is refused
    // the same way: it used to register and then fail every later ingest
    // after that ingest's state had landed.
    for src in [
        "rule bad { when nope() > 1; then notify; }\n",
        "rule bad { when nope() <= 1; then abort; }\n",
    ] {
        match c.register_rules("s", src).unwrap_err() {
            ServerError::Remote { message, .. } => {
                assert!(message.contains("nope"), "{message}");
            }
            other => panic!("expected a typed error response, got {other}"),
        }
    }
    let sum = "rule sum { when sum(n(); time <= 2; n() > 0) > 10; then notify; }\n";
    c.register_rules("s", &format!("{RULES}{sum}")).unwrap();
    let (_, events) = c
        .commit_at("s", Timestamp(2), Timestamp(2), set_n(70))
        .unwrap();
    for rule in ["high", "sum"] {
        assert!(
            events
                .iter()
                .any(|e| e.phase == VtPhase::Tentative && e.record.rule == rule),
            "{rule}: {events:?}"
        );
    }
    let (_, events) = c
        .commit_at("s", Timestamp(9), Timestamp(9), set_n(70))
        .unwrap();
    assert!(events.iter().any(|e| e.phase == VtPhase::Confirmed));
    let confirmed = c.firings("s", 0).unwrap();
    let stats = c.tenant_stats("s").unwrap();
    assert_eq!((stats.rules, stats.firings), (2, 2));
    drop(c);
    server.stop();

    let server = start(&data_dir);
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.firings("s", 0).unwrap(), confirmed);
    let recovered = c.tenant_stats("s").unwrap();
    assert_eq!(
        (
            recovered.states,
            recovered.now,
            recovered.rules,
            recovered.firings
        ),
        (stats.states, stats.now, stats.rules, stats.firings)
    );
    drop(c);
    server.stop();
    let _ = std::fs::remove_dir_all(&data_dir);
}

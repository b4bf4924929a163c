//! Crash-recovery acceptance test for durable valid-time tenants: SIGKILL
//! the real `tdb-server` binary mid-`CommitAt`-stream, restart it on the
//! same data directory, and verify every *acked* ingest survived.
//!
//! The vt durability layout has no snapshots — "the log is the tenant" —
//! so recovery is a full WAL replay. Because `ingest` is
//! arrival-independent, the recovered tenant must land on an op prefix of
//! the sent stream whose confirmed firing log byte-extends the acked one
//! and equals a single-process library oracle replayed over the same ops.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};

use tdb_core::rules::FiringRecord;
use tdb_core::storage::LogicalOp;
use tdb_core::{VtActiveDatabase, VtFiringEvent, VtPhase};
use tdb_engine::WriteOp;
use tdb_ptl::parse_formula;
use tdb_relation::{parse_query, Database, QueryDef, Timestamp, Value};
use tdb_server::Client;

const MAX_DELAY: i64 = 5;

const RULES: &str = "rule high { when n() >= 60; then notify; }\n\
                     rule rise { when n() >= 60 and lasttime(n() < 60); then notify; }\n";

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

/// Deterministic Δ-bounded disorder: step `i` carries value `v(i)` at
/// valid time `i`, arriving `d(i) ∈ [0, Δ]` late.
fn step(i: i64) -> (Timestamp, Timestamp, i64) {
    let mut x = (i as u64) | 1;
    x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let value = ((x >> 33) % 100) as i64;
    let delay = ((x >> 13) % (MAX_DELAY as u64 + 1)) as i64;
    (Timestamp(i + delay), Timestamp(i), value)
}

fn set_n(value: i64) -> WriteOp {
    WriteOp::SetItem {
        item: "n".into(),
        value: Value::Int(value),
    }
}

/// Library oracle: the same facade the server's vt shard wraps, seeded and
/// rule-loaded identically.
fn oracle_vt() -> VtActiveDatabase {
    let mut base = Database::new();
    base.set_item("n", Value::Int(0));
    base.define_query("n", QueryDef::new(0, parse_query("item n").unwrap()));
    let mut vt = VtActiveDatabase::new_streaming(base, MAX_DELAY);
    vt.add_trigger("high", parse_formula("n() >= 60").unwrap())
        .unwrap();
    vt.add_trigger(
        "rise",
        parse_formula("n() >= 60 and lasttime(n() < 60)").unwrap(),
    )
    .unwrap();
    vt
}

/// Applies one wire `CommitAt` to the oracle exactly as the server's WAL
/// records it: a clock advance, then the ingest.
fn oracle_commit_at(vt: &mut VtActiveDatabase, arrival: Timestamp, valid: Timestamp, value: i64) {
    vt.advance_to(arrival.max(vt.now())).unwrap();
    vt.ingest(vec![set_n(value)], valid).unwrap();
}

#[test]
fn sigkill_mid_commit_at_stream_recovers_every_acked_ingest() {
    let data_dir = std::env::temp_dir().join(format!("tdb-vt-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).unwrap();

    // ---- first incarnation: stream out-of-order ingests, then SIGKILL --
    let server = start_server(&data_dir);
    let mut c = Client::connect(&*server.addr).unwrap();
    c.create_vt_tenant("stream", true, MAX_DELAY).unwrap();
    assert!(c.commit("stream", seed_ops()).unwrap().all_ok());
    let (registered, findings) = c.register_rules("stream", RULES).unwrap();
    assert_eq!(registered, vec!["high".to_string(), "rise".to_string()]);
    assert!(
        findings.iter().any(|f| f.contains("valid-time")),
        "vt registration should say so: {findings:?}"
    );

    type Acked = (i64, Vec<VtFiringEvent>);
    let acked: Arc<Mutex<Acked>> = Arc::new(Mutex::new((0, Vec::new())));
    let writer = {
        let acked = Arc::clone(&acked);
        let addr = server.addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&*addr).expect("writer connect");
            for i in 1.. {
                let (arrival, valid, value) = step(i);
                match c.commit_at("stream", arrival, valid, vec![set_n(value)]) {
                    Ok((_, events)) => {
                        let mut a = acked.lock().unwrap();
                        a.0 = i;
                        a.1.extend(events);
                    }
                    // Connection died under the kill: stop.
                    Err(_) => return,
                }
            }
        })
    };
    loop {
        std::thread::sleep(std::time::Duration::from_millis(20));
        if acked.lock().unwrap().0 >= 20 {
            break;
        }
    }
    drop(server); // SIGKILL via the Drop guard
    writer.join().unwrap();
    let (acked_steps, acked_events) = {
        let a = acked.lock().unwrap();
        (a.0, a.1.clone())
    };
    assert!(acked_steps >= 20, "need a real stream before the kill");

    // The acked stream itself must match the oracle run over the same
    // steps — tentative announcements included.
    let mut oracle = oracle_vt();
    let mut oracle_events = Vec::new();
    for i in 1..=acked_steps {
        let (arrival, valid, value) = step(i);
        oracle_events.extend(oracle.advance_to(arrival.max(oracle.now())).unwrap());
        oracle_events.extend(oracle.ingest(vec![set_n(value)], valid).unwrap());
    }
    assert_eq!(
        acked_events, oracle_events,
        "acked stream events must match the library oracle pre-crash"
    );
    let acked_confirmed: Vec<FiringRecord> = acked_events
        .iter()
        .filter(|e| e.phase == VtPhase::Confirmed)
        .map(|e| e.record.clone())
        .collect();

    // ---- second incarnation: recover and verify ------------------------
    let server = start_server(&data_dir);
    let mut c = Client::connect(&*server.addr).unwrap();
    assert_eq!(c.list_tenants().unwrap(), vec!["stream".to_string()]);
    let recovered = c.firings("stream", 0).unwrap();
    let recovered_stats = c.tenant_stats("stream").unwrap();

    // Every acked confirmation survived, in order, as a prefix …
    assert!(
        recovered.len() >= acked_confirmed.len(),
        "recovery lost acked confirmations: {} < {}",
        recovered.len(),
        acked_confirmed.len()
    );
    assert_eq!(&recovered[..acked_confirmed.len()], &acked_confirmed[..]);

    // … and the whole recovered tenant equals the oracle at some op prefix
    // of the sent stream (the kill can split a CommitAt between its WAL'd
    // clock advance and the ingest, so the match is op-granular).
    let mut oracle = oracle_vt();
    let mut flat: Vec<LogicalOp> = Vec::new();
    for i in 1..=acked_steps + 1 {
        let (arrival, valid, value) = step(i);
        flat.push(LogicalOp::AdvanceClockTo { t: arrival });
        flat.push(LogicalOp::CommitAt {
            valid,
            ops: vec![set_n(value)],
        });
    }
    // `states` pins the exact number of replayed ingests (each CommitAt
    // appends one state); (confirmed, now) alone plateaus across trailing
    // ops that only advance a lagging clock.
    let matches = |vt: &VtActiveDatabase| {
        vt.confirmed_firings() == recovered
            && vt.now() == recovered_stats.now
            && (vt.engine().state_count() + vt.engine().compacted()) as u64
                == recovered_stats.states
    };
    let mut replayed = 0usize;
    for op in &flat {
        if matches(&oracle) {
            break;
        }
        match op {
            LogicalOp::AdvanceClockTo { t } => {
                oracle.advance_to((*t).max(oracle.now())).unwrap();
            }
            LogicalOp::CommitAt { valid, ops } => {
                oracle.ingest(ops.clone(), *valid).unwrap();
            }
            _ => unreachable!(),
        }
        replayed += 1;
    }
    assert!(
        matches(&oracle),
        "recovered tenant equals the oracle at no op prefix \
         (recovered {} confirmations, now {:?})",
        recovered.len(),
        recovered_stats.now
    );
    assert!(
        replayed >= acked_steps as usize * 2 - 1,
        "recovery must include every acked ingest: replayed only {replayed} ops"
    );

    // The recovered tenant keeps streaming: more out-of-order ingests land
    // identically on both sides, and the returned watermark tracks
    // `now − Δ`.
    for i in acked_steps + 2..=acked_steps + 12 {
        let (arrival, valid, value) = step(i);
        oracle_commit_at(&mut oracle, arrival, valid, value);
        let (watermark, _) = c
            .commit_at("stream", arrival, valid, vec![set_n(value)])
            .unwrap();
        assert_eq!(
            watermark,
            oracle.watermark(),
            "watermark diverges at step {i}"
        );
    }
    let after = c.firings("stream", 0).unwrap();
    assert_eq!(
        after,
        oracle.confirmed_firings(),
        "post-recovery definite log diverges"
    );
    let stats = c.tenant_stats("stream").unwrap();
    assert_eq!(stats.rules, 2);
    assert!(stats.wal_bytes > 0);

    // Graceful shutdown this time.
    c.shutdown().unwrap();
    drop(server);
    let _ = std::fs::remove_dir_all(&data_dir);
}

//! Write-amplification guard: a durable tenant's checkpoints cost no more
//! than the log they replace.
//!
//! Under `ServerConfig::default().checkpoint` (no op or byte budget) a
//! tenant checkpoints once the bytes logged since its last checkpoint reach
//! that checkpoint's payload length, so the payload bytes of every
//! checkpoint but the last are paid for by log bytes. A fixed op budget
//! instead re-writes the whole formula state every few requests, whatever
//! it weighs: on this shape, about 12× the log.
//!
//! The tenant has the `batch_durable` benchmark's shape: 32 single-row
//! relations, 256 rising-edge rules (8 thresholds per relation), and
//! 64-state `CommitBatch` requests, each state a clock tick plus one row
//! replacement. The stream is a fixed splitmix64 sequence, so the counts
//! are the same every run.
//!
//! The log is read back whole: it holds inputs only, one record per
//! request (a `Firing` record fails the test), so the checkpoints are paid
//! for by inputs alone.
//!
//! CI prints the counts, WAL records per request among them: `cargo test
//! --release -p tdb-server --test checkpoint_cadence -- --nocapture`.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use std::path::{Path, PathBuf};

use tdb_core::manager::ManagerConfig;
use tdb_core::storage::LogicalOp;
use tdb_engine::WriteOp;
use tdb_relation::{parse_query, QueryDef, Relation, Schema, Tuple, Value};
use tdb_server::tenant::Tenant;
use tdb_server::ServerConfig;
use tdb_storage::checkpoint::{checkpoint_len, parse_checkpoint_name};

const RELATIONS: usize = 32;
const RULES_PER_RELATION: usize = 8;
const BATCH: usize = 64;
const BATCHES: usize = 312; // 19 968 states

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tdb-cadence-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn row(v: i64) -> Tuple {
    Tuple::new(vec![Value::Int(v)])
}

fn schema_ops() -> Vec<LogicalOp> {
    let mut ops = Vec::new();
    for j in 0..RELATIONS {
        ops.push(LogicalOp::CreateRelation {
            name: format!("W{j}"),
            relation: Relation::from_rows(Schema::untyped(&["v"]), vec![row(50)]).unwrap(),
        });
        ops.push(LogicalOp::DefineQuery {
            name: format!("r{j}_q"),
            def: QueryDef::new(0, parse_query(&format!("select v from W{j}")).unwrap()),
        });
    }
    ops
}

fn rule_source() -> String {
    let mut src = String::new();
    for j in 0..RELATIONS {
        for k in 0..RULES_PER_RELATION {
            let th = (k as i64 + 1) * 100 / (RULES_PER_RELATION as i64 + 1);
            src.push_str(&format!(
                "rule r{j}_{k} {{ when r{j}_q() > {th} and previously(r{j}_q() <= {th}); \
                 then notify; }}\n"
            ));
        }
    }
    src
}

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// Each state moves one relation's value along a 0 → 100 → 0 triangle
/// wave, so every threshold is crossed upwards once per sweep.
struct Stream {
    rng: Rng,
    phase: [i64; RELATIONS],
    value: [i64; RELATIONS],
}

impl Stream {
    fn next_batch(&mut self) -> Vec<LogicalOp> {
        let mut ops = Vec::with_capacity(2 * BATCH);
        for _ in 0..BATCH {
            let j = self.rng.below(RELATIONS as u64) as usize;
            let p = (self.phase[j] + self.rng.below(3) as i64) % 200;
            self.phase[j] = p;
            let (old, new) = (self.value[j], if p < 100 { p } else { 200 - p });
            self.value[j] = new;
            ops.push(LogicalOp::AdvanceClock { delta: 1 });
            ops.push(LogicalOp::Update {
                ops: vec![
                    WriteOp::Delete {
                        relation: format!("W{j}"),
                        tuple: row(old),
                    },
                    WriteOp::Insert {
                        relation: format!("W{j}"),
                        tuple: row(new),
                    },
                ],
            });
        }
        ops
    }
}

/// (checkpoints, their total payload bytes, the newest one's payload
/// bytes, total log bytes) in a tenant directory.
fn disk_counts(dir: &Path) -> (usize, u64, u64, u64) {
    let (mut ckpts, mut wal) = (Vec::new(), 0);
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().into_string().unwrap();
        if let Some(seq) = parse_checkpoint_name(&name) {
            ckpts.push((seq, checkpoint_len(&entry.path()).unwrap()));
        } else if name.starts_with("wal-") {
            wal += entry.metadata().unwrap().len();
        }
    }
    ckpts.sort_unstable();
    let total = ckpts.iter().map(|&(_, len)| len).sum();
    let last = ckpts.last().map_or(0, |&(_, len)| len);
    (ckpts.len(), total, last, wal)
}

#[test]
fn checkpoint_bytes_stay_within_the_log_they_replace() {
    let dir = tempdir("guard");
    let policy = ServerConfig::default().checkpoint;
    let mut t = Tenant::durable("bench", &dir, ManagerConfig::default(), policy).unwrap();
    for op in schema_ops() {
        assert!(t.apply(&op).unwrap().ok());
    }
    t.register_rules(&rule_source()).unwrap();
    let requests = schema_ops().len() + 1 + BATCHES;
    let mut stream = Stream {
        rng: Rng(0x5EED),
        phase: [50; RELATIONS],
        value: [50; RELATIONS],
    };
    let mut firings = 0;
    for _ in 0..BATCHES {
        let outcomes = t.apply_batch(&stream.next_batch()).unwrap();
        firings += outcomes.iter().map(|o| o.firings.len()).sum::<usize>();
    }
    let (count, ckpt_bytes, last, wal_bytes) = disk_counts(&dir);
    let log = tdb_storage::read_log(&dir, 0).unwrap().ops;
    println!(
        "{} states, {firings} firings: {count} checkpoints, {ckpt_bytes} checkpoint bytes \
         (last {last}), {wal_bytes} WAL bytes, ratio {:.2}; {} WAL records for {requests} \
         requests ({:.2} per request)",
        BATCH * BATCHES,
        ckpt_bytes as f64 / wal_bytes as f64,
        log.len(),
        log.len() as f64 / requests as f64,
    );
    assert!(firings > 0, "the stream must cross thresholds");
    assert!(
        !log.iter().any(|op| matches!(op, LogicalOp::Firing { .. })),
        "the log holds a Firing record"
    );
    assert_eq!(log.len(), requests, "one WAL record per request");
    assert!(
        ckpt_bytes <= wal_bytes + last,
        "checkpoints wrote {ckpt_bytes} B against {wal_bytes} B of log + {last} B"
    );
    drop(t);
    let _ = std::fs::remove_dir_all(&dir);
}

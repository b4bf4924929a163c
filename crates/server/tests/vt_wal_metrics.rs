//! A durable valid-time tenant logs through the same writer as a plain
//! one, so its appends count in the `tdb_wal_*` metrics: a `CommitAt` is
//! one batch record, a generic op one record, a registration one record.
//! The only test in its process, so the global counters move by exactly
//! what it does.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use tdb_core::storage::LogicalOp;
use tdb_core::SyncPolicy;
use tdb_engine::WriteOp;
use tdb_relation::{Timestamp, Value};
use tdb_server::tenant::Tenant;

fn counter(name: &str) -> u64 {
    tdb_obs::global().snapshot().counter_family(name)
}

#[test]
fn a_durable_vt_commit_moves_the_wal_append_counters() {
    tdb_obs::set_enabled(true);
    let dir = std::env::temp_dir().join(format!("tdb-vt-walmetrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut t = Tenant::durable_vt("stream", &dir, 2, SyncPolicy::Always).unwrap();
    let counts = || {
        (
            counter("tdb_wal_appends_total"),
            counter("tdb_wal_batch_appends_total"),
        )
    };

    let before = counts();
    let seed = LogicalOp::SetItem {
        name: "n".into(),
        value: Value::Int(0),
    };
    assert!(t.apply(&seed).unwrap().ok());
    assert_eq!(counts(), (before.0 + 1, before.1));

    let set = vec![WriteOp::SetItem {
        item: "n".into(),
        value: Value::Int(7),
    }];
    t.commit_at(Timestamp(3), Timestamp(2), set).unwrap();
    assert_eq!(counts(), (before.0 + 2, before.1 + 1));
    drop(t);
    let _ = std::fs::remove_dir_all(&dir);
}

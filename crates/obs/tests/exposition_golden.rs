//! Golden tests for the Prometheus text exposition and the JSON snapshot.
//!
//! Each scenario builds a private registry deterministically and compares
//! the rendered output byte-for-byte against a checked-in
//! `tests/golden/NAME.expected`. Regenerate after an intentional format
//! change with:
//!
//! ```text
//! TDB_UPDATE_SNAPSHOTS=1 cargo test -p tdb-obs --test exposition_golden
//! ```

#![allow(clippy::disallowed_methods)] // tests may unwrap

use tdb_obs::Registry;

const DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

fn check_snapshot(name: &str, rendered: &str) {
    let expected_path = format!("{DIR}/{name}.expected");
    if std::env::var_os("TDB_UPDATE_SNAPSHOTS").is_some() {
        std::fs::write(&expected_path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&expected_path).unwrap_or_else(|e| {
        panic!("missing snapshot {expected_path} ({e}); run with TDB_UPDATE_SNAPSHOTS=1")
    });
    assert_eq!(
        rendered, expected,
        "exposition for `{name}` diverged from its snapshot; \
         rerun with TDB_UPDATE_SNAPSHOTS=1 if the change is intentional"
    );
}

/// A registry exercising every metric kind and exposition feature: plain
/// counters, labeled counter series, a negative gauge, and histograms
/// hitting bucket 0, interior buckets and the +Inf/u64::MAX edge.
fn populated_registry() -> Registry {
    let r = Registry::new();
    r.counter("tdb_dispatch_commits_total").add(3);
    r.counter("tdb_dispatch_full_evaluations_total").add(7);
    r.counter_with("tdb_parallel_worker_evaluations_total", &[("worker", "0")])
        .add(4);
    r.counter_with("tdb_parallel_worker_evaluations_total", &[("worker", "1")])
        .add(3);
    r.gauge("tdb_retained_residual_nodes").set(-1);
    let h = r.histogram("tdb_rule_eval_ns");
    h.observe(0);
    h.observe(1);
    h.observe(900);
    h.observe(1024);
    h.observe(u64::MAX);
    r.histogram("tdb_wal_append_bytes").observe(48);
    r
}

#[test]
fn prometheus_exposition_matches_golden() {
    check_snapshot("prometheus", &populated_registry().render_prometheus());
}

#[test]
fn json_snapshot_matches_golden() {
    check_snapshot("json", &populated_registry().render_json());
}

#[test]
fn empty_registry_renders_empty_exposition() {
    assert_eq!(Registry::new().render_prometheus(), "");
}

//! Registration probe: what does the n-th rule cost? Two in-process
//! `Tenant::volatile`s — the canonical benchmark's `eval_fanout` catalog
//! (mixed temporal notify rules over 4 items, `cascade-required` from the
//! third rule on) and its `batch_durable` catalog (rising-edge rules over
//! 32 relations, `stratified(1)`) — registered one rule at a time, as
//! `benchmark/`'s traced run does, at 64 / 256 / 1024 rules.
//!
//! Informational: prints µs per rule, the mean of the last decile of
//! registrations over the mean of the first (≈ 1 when a registration costs
//! the new rule, ≈ the catalog's growth when it re-derives something over
//! the whole catalog), and the share of the time spent bringing the
//! batch-safety certificate, fences and read-set index up to date
//! (`tdb_register_certify_ns`).

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use tdb_bench::workload::{
    fanout_rule_source, fanout_seed_ops, rising_edge_rule_source, rising_edge_seed_ops,
    FANOUT_SLOTS, RISING_SLOTS,
};
use tdb_core::{CascadeMode, LogicalOp, ManagerConfig, ObsConfig};
use tdb_server::tenant::Tenant;

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Registers `source` line by line on a fresh tenant as `tdb-server`
/// builds one; prints the catalog's row.
fn probe(catalog: &str, seed: Vec<LogicalOp>, source: &str) {
    let registry = Arc::new(tdb_obs::Registry::new());
    let cfg = ManagerConfig {
        cascade: CascadeMode::Eager,
        obs: ObsConfig::with_registry(Arc::clone(&registry)),
        ..ManagerConfig::default()
    };
    let mut tenant = Tenant::volatile(catalog, cfg);
    for op in seed {
        tenant.apply(&op).expect("seed op applies");
    }
    let us: Vec<f64> = source
        .lines()
        .map(|rule| {
            let t0 = Instant::now();
            tenant.register_rules(rule).expect("rule registers");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let tenth = (us.len() / 10).max(1);
    let certify_us = registry.histogram("tdb_register_certify_ns").sum() as f64 / 1e3;
    println!(
        "registration/{catalog}/{:<5} {:>8.1} µs/rule   last/first decile {:>5.2}   \
         certifying {:>4.1} %   {}",
        us.len(),
        mean(&us),
        mean(&us[us.len() - tenth..]) / mean(&us[..tenth]),
        100.0 * certify_us / us.iter().sum::<f64>(),
        tenant.batch_certificate(),
    );
}

fn bench(_c: &mut Criterion) {
    for rules in [64, 256, 1024] {
        probe(
            "fanout",
            fanout_seed_ops(),
            &fanout_rule_source(rules / FANOUT_SLOTS),
        );
    }
    for rules in [64, 256, 1024] {
        probe(
            "rising_edge",
            rising_edge_seed_ops(),
            &rising_edge_rule_source(rules / RISING_SLOTS),
        );
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);

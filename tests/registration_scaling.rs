//! Registration costs the new rule, not the catalog: the second half of a
//! 1024-rule fan-out catalog must register about as fast as the first.
//!
//! With the batch-safety certificate re-derived over the whole catalog at
//! every registration, rules 513–1024 took ≈ 7× as long as rules 1–512
//! (minutes, in a debug build); maintained incrementally the ratio is ≈ 1.

use std::time::Instant;

use tdb_bench::workload::{fanout_rule_source, fanout_seed_ops, FANOUT_SLOTS};
use tdb_server::tenant::Tenant;
use temporal_adb::core::{BatchCertificate, CascadeMode, ManagerConfig};

#[test]
fn second_half_of_the_catalog_registers_as_fast_as_the_first() {
    const RULES: usize = 1024;
    let cfg = ManagerConfig {
        cascade: CascadeMode::Eager,
        ..ManagerConfig::default()
    };
    let mut tenant = Tenant::volatile("scaling", cfg);
    for op in fanout_seed_ops() {
        assert!(tenant.apply(&op).unwrap().ok());
    }
    let source = fanout_rule_source(RULES / FANOUT_SLOTS);
    let rules: Vec<&str> = source.lines().collect();
    assert_eq!(rules.len(), RULES);

    let mut register = |half: &[&str]| {
        let t0 = Instant::now();
        for rule in half {
            tenant.register_rules(rule).unwrap();
        }
        t0.elapsed().as_secs_f64()
    };
    let first = register(&rules[..RULES / 2]);
    let second = register(&rules[RULES / 2..]);
    assert!(
        second <= 3.0 * first,
        "rules 513–1024 took {second:.3} s, rules 1–512 took {first:.3} s"
    );
    // Recording notify rules over order-sensitive conditions: every writer
    // reaches itself through the state order.
    assert_eq!(
        tenant.batch_certificate(),
        BatchCertificate::CascadeRequired
    );
}

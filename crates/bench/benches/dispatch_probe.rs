//! Dispatch probe: what one state costs the evaluator of a volatile tenant
//! in process — `tenant_scaling`'s set-up, one thread — on the canonical
//! benchmark's `eval_fanout` catalog (256 mixed temporal rules over 4 items,
//! one commit per state) and its `batch_durable` catalog (256 rising-edge
//! rules over 32 relations, 64 states per group commit).
//!
//! Informational: prints µs per state and, per state, the atoms the advance
//! kernel evaluated and kept, and the ground query applications it
//! evaluated and answered from the per-state query memo. The count guard
//! is `tests/dispatch_counts.rs`.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use tdb_bench::workload::{
    fanout_commits, fanout_rule_source, fanout_seed_ops, rising_edge_commits,
    rising_edge_rule_source, rising_edge_seed_ops, FANOUT_SLOTS, RISING_SLOTS,
};
use tdb_core::{ContextStats, LogicalOp, ManagerConfig};
use tdb_server::tenant::Tenant;

const RULES: usize = 256;
const WARMUP: usize = 640;
const STATES: usize = 6400;

/// Drives `commits` through a tenant as `tdb-server` builds one, `batch`
/// states per apply; prints the catalog's row.
fn probe(
    catalog: &str,
    seed: Vec<LogicalOp>,
    source: &str,
    commits: &[[LogicalOp; 2]],
    batch: usize,
) {
    let mut tenant = Tenant::volatile(catalog, ManagerConfig::default());
    for op in seed {
        tenant.apply(&op).expect("seed op applies");
    }
    tenant.register_rules(source).expect("catalog registers");
    let stats = |t: &Tenant| -> (ContextStats, usize) {
        let adb = t.shard().adb();
        (adb.eval_context().stats(), adb.history().len())
    };
    let drive = |t: &mut Tenant, stretch: &[[LogicalOp; 2]]| {
        for group in stretch.chunks(batch) {
            let ops: Vec<LogicalOp> = group.iter().flatten().cloned().collect();
            if batch == 1 {
                for op in &ops {
                    t.apply(op).expect("commit applies");
                }
            } else {
                t.apply_batch(&ops).expect("batch applies");
            }
        }
    };
    let (warm, timed) = commits.split_at(WARMUP);
    drive(&mut tenant, warm);
    let (before, states_before) = stats(&tenant);
    let t0 = Instant::now();
    drive(&mut tenant, timed);
    let elapsed = t0.elapsed();
    let (after, states_after) = stats(&tenant);
    let states = (states_after - states_before) as f64;
    let per_state = |a: u64, b: u64| (a - b) as f64 / states;
    println!(
        "dispatch/{catalog:<14} {:>8.1} µs/state   atoms {:>6.1} evaluated {:>6.1} kept   \
         queries {:>5.2} evaluated {:>6.2} memo hits   (per state)",
        elapsed.as_secs_f64() * 1e6 / states,
        per_state(after.atom_evals, before.atom_evals),
        per_state(after.atoms_reused, before.atoms_reused),
        per_state(after.query_evals, before.query_evals),
        per_state(after.query_memo_hits, before.query_memo_hits),
    );
}

fn bench(_c: &mut Criterion) {
    // The server runs with observability on; so does the probe.
    tdb_obs::set_enabled(true);
    probe(
        "eval_fanout",
        fanout_seed_ops(),
        &fanout_rule_source(RULES / FANOUT_SLOTS),
        &fanout_commits(1, WARMUP + STATES),
        1,
    );
    probe(
        "batch_durable",
        rising_edge_seed_ops(),
        &rising_edge_rule_source(RULES / RISING_SLOTS),
        &rising_edge_commits(1, WARMUP + STATES),
        64,
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! Dispatch probe: what one state costs the evaluator of a volatile tenant
//! in process — `tenant_scaling`'s set-up, one thread — on the canonical
//! benchmark's `eval_fanout` catalog (256 mixed temporal rules over 4 items,
//! one commit per state) and its `batch_durable` catalog (256 rising-edge
//! rules over 32 relations, 64 states per group commit).
//!
//! Informational: prints µs per state and, per state, the full rule
//! evaluations (`ManagerStats::evaluations`), the atoms the advance kernel
//! evaluated and kept, the atom-memo lookups among those evaluations (a
//! closed comparison reads its query slots and makes none), the ground
//! query applications it evaluated and answered from their per-state
//! slot, and the rules it skipped at their fixpoint; then the catalog's firing log as a count and a hash, so
//! a change to the kernel shows whether the firings moved. The count guard
//! is `tests/dispatch_counts.rs`.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use tdb_bench::workload::{
    fanout_commits, fanout_rule_source, fanout_seed_ops, rising_edge_commits,
    rising_edge_rule_source, rising_edge_seed_ops, FANOUT_SLOTS, RISING_SLOTS,
};
use tdb_core::{ContextStats, LogicalOp, ManagerConfig, ManagerStats};
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
    let stats = |t: &Tenant| -> (ContextStats, ManagerStats, usize, u64) {
        let adb = t.shard().adb();
        let skips = tdb_obs::global()
            .snapshot()
            .counter_family("tdb_dispatch_fixpoint_skipped_rules_total");
        let context = adb.eval_context().stats();
        (context, adb.stats(), adb.history().len(), skips)
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
    let (before, rules_before, states_before, skips_before) = stats(&tenant);
    let t0 = Instant::now();
    drive(&mut tenant, timed);
    let elapsed = t0.elapsed();
    let (after, rules_after, states_after, skips_after) = stats(&tenant);
    let states = (states_after - states_before) as f64;
    let per_state = |a: u64, b: u64| (a - b) as f64 / states;
    println!(
        "dispatch/{catalog:<14} {:>8.1} µs/state   rules {:>6.2} evaluated   \
         atoms {:>6.1} evaluated {:>6.1} kept {:>6.1} memo lookups   \
         queries {:>5.2} evaluated {:>6.2} slot hits   \
         {:>6.1} fixpoint skips   since steps {:>5.2} computed {:>6.2} reused   (per state)",
        elapsed.as_secs_f64() * 1e6 / states,
        per_state(rules_after.evaluations, rules_before.evaluations),
        per_state(after.atom_evals, before.atom_evals),
        per_state(after.atoms_reused, before.atoms_reused),
        per_state(after.memo_lookups, before.memo_lookups),
        per_state(after.query_evals, before.query_evals),
        per_state(after.query_memo_hits, before.query_memo_hits),
        per_state(skips_after, skips_before),
        per_state(after.steps_computed, before.steps_computed),
        per_state(after.steps_reused, before.steps_reused),
    );
    let firings = tenant.shard().adb().firings();
    let mut digest = DefaultHasher::new();
    for f in firings {
        format!("{f:?}").hash(&mut digest);
    }
    println!(
        "dispatch/{catalog:<14} firings {} digest {:016x}",
        firings.len(),
        digest.finish()
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

//! Tenant-scaling probe: what does a second tenant on a second thread cost
//! the first? Two in-process `Tenant::volatile`s over the same
//! `eval_fanout`-shaped catalog (256 mixed temporal rules over 4 items),
//! each driven by its own value stream on its own thread — no server, no
//! I/O — against one such tenant alone. Share-nothing tenants should land
//! near a 1.0 ratio (two workers cost what two processes cost); contention
//! on process-global evaluator state shows up as a ratio well above it.
//!
//! Informational: prints µs/state per thread and the 2-thread / 1-thread
//! ratio. Only meaningful on a host with at least two free cores.

use std::sync::Barrier;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use tdb_bench::workload::{fanout_commits, fanout_rule_source, fanout_seed_ops};
use tdb_core::{CascadeMode, ManagerConfig};
use tdb_server::tenant::Tenant;

const PER_SLOT: usize = 64;
const WARMUP: usize = 500;
const STATES: usize = 3000;

/// A tenant as `tdb-server` builds one, catalog registered.
fn tenant(name: &str) -> Tenant {
    let cfg = ManagerConfig {
        cascade: CascadeMode::Eager,
        ..ManagerConfig::default()
    };
    let mut t = Tenant::volatile(name, cfg);
    for op in fanout_seed_ops() {
        t.apply(&op).expect("seed op applies");
    }
    t.register_rules(&fanout_rule_source(PER_SLOT))
        .expect("catalog registers");
    t
}

/// Runs `threads` tenants side by side; returns each one's µs per state
/// over the timed stretch (set-up and warm-up excluded, start aligned).
fn run(threads: usize) -> Vec<f64> {
    let barrier = Barrier::new(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut t = tenant(&format!("scaling{i}"));
                    let commits = fanout_commits(1 + i as u64, WARMUP + STATES);
                    let (warm, timed) = commits.split_at(WARMUP);
                    let mut drive = |stretch: &[[tdb_core::LogicalOp; 2]]| {
                        for op in stretch.iter().flatten() {
                            t.apply(op).expect("commit applies");
                        }
                    };
                    drive(warm);
                    barrier.wait();
                    let t0 = Instant::now();
                    drive(timed);
                    t0.elapsed().as_secs_f64() * 1e6 / STATES as f64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread"))
            .collect()
    })
}

fn bench(_c: &mut Criterion) {
    // The server runs with observability on; so does the probe.
    tdb_obs::set_enabled(true);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let one = run(1)[0];
    let two = run(2);
    let mean_two = two.iter().sum::<f64>() / two.len() as f64;
    println!("tenant_scaling/1_thread            {one:>10.1} µs/state");
    println!(
        "tenant_scaling/2_threads           {:>10.1} / {:.1} µs/state",
        two[0], two[1]
    );
    println!(
        "tenant_scaling/ratio_2_over_1      {:>10.2}   ({cores} cores available)",
        mean_two / one
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);

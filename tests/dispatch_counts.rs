//! What a state costs the evaluator, by count: on an `eval_fanout`-shaped
//! tenant (the canonical benchmark's catalog, in process), an advance
//! re-evaluates only the atoms the state's delta touched, every ground
//! query application is evaluated once per state for the whole tenant —
//! however many of its atoms read it — and a state costs a bounded number
//! of heap allocations.
//!
//! Allocations are counted by a global allocator, so this binary holds one
//! `#[test]`: tests running in parallel would share the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use tdb_bench::workload::{fanout_commits, fanout_rules, fanout_seed_ops};
use temporal_adb::core::{ManagerConfig, Shard};
use temporal_adb::relation::Database;

/// Heap allocations made (a `realloc` counts as one).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const PER_SLOT: usize = 16;
/// States whose evaluation work is counted; they also warm the tenant up
/// for the allocation count.
const STATES: usize = 400;
/// States whose heap allocations are counted, after the first `STATES`.
const ALLOC_STATES: usize = 1000;
/// Allocations a fan-out state may make: the short-circuit advance kernel
/// makes about 200, the kernel that sent every connective through the
/// residual constructors about 425.
const ALLOC_BOUND: f64 = 300.0;

#[test]
fn a_fanout_state_evaluates_each_query_once() {
    let mut shard = Shard::volatile(Database::new(), ManagerConfig::default());
    for op in fanout_seed_ops() {
        assert!(shard.apply(&op).unwrap().ok());
    }
    for rule in fanout_rules(PER_SLOT) {
        shard.add_rule(rule).unwrap();
    }
    let commits = fanout_commits(7, STATES + ALLOC_STATES);
    let (counted, allocating) = commits.split_at(STATES);
    let before = shard.adb().eval_context().stats();
    let states_before = shard.adb().history().len();
    for commit in counted {
        for op in commit {
            assert!(shard.apply(op).unwrap().ok());
        }
    }
    let after = shard.adb().eval_context().stats();
    let states = (shard.adb().history().len() - states_before) as f64;
    let per_state = |n: u64| n as f64 / states;
    let queries = per_state(after.query_evals - before.query_evals);
    let hits = per_state(after.query_memo_hits - before.query_memo_hits);
    let evals = per_state(after.atom_evals - before.atom_evals);
    let reused = per_state(after.atoms_reused - before.atoms_reused);

    let states_before = shard.adb().history().len();
    let allocs_before = ALLOCS.load(Relaxed);
    for commit in allocating {
        for op in commit {
            assert!(shard.apply(op).unwrap().ok());
        }
    }
    let allocs = (ALLOCS.load(Relaxed) - allocs_before) as f64
        / (shard.adb().history().len() - states_before) as f64;
    println!(
        "per state: {queries:.2} query evaluations, {hits:.2} memo hits, \
         {evals:.2} atoms evaluated, {reused:.2} kept, {allocs:.1} allocations"
    );
    assert!(!shard.firings_from(0).is_empty(), "the catalog must fire");
    assert!(
        queries <= 4.0,
        "{queries:.2} query evaluations per state: four items, each read once"
    );
    assert!(hits > 0.0, "atoms of one item share its query");
    assert!(
        reused > evals,
        "most atoms read an item the state did not write: {evals:.2} evaluated, {reused:.2} kept"
    );
    assert!(
        allocs <= ALLOC_BOUND,
        "{allocs:.1} heap allocations per state (bound {ALLOC_BOUND})"
    );
}

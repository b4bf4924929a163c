//! What a state costs the evaluator, by count: on an `eval_fanout`-shaped
//! tenant (the canonical benchmark's catalog, in process), an advance
//! re-evaluates only the atoms the state's delta touched, every ground
//! query application is evaluated once per state for the whole tenant —
//! however many of its atoms read it — and a state costs a bounded number
//! of heap allocations. On the full 256-rule catalog, the clock wakes a
//! rule only when it can change it: a clock reader whose formula states
//! absorbed the clock sits at its fixpoint. And a state that writes what a
//! rule at its fixpoint reads costs it a look at the atoms it touched, not
//! a full evaluation, unless one of its atoms moved: on that catalog and
//! on the `batch_durable` one, few rules are evaluated per state. A closed
//! comparison is a query slot read and a compare: it never consults the
//! atom memo, so only atoms with a variable make memo lookups. A `Since`
//! step is computed once per state and operands: the window rules of the
//! fan-out catalog share it through the context's computed table, which a
//! closed catalog never consults. Both catalogs' firing logs are pinned by
//! count and digest.
//!
//! Allocations are counted by a global allocator, so this binary holds one
//! `#[test]`: tests running in parallel would share the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use tdb_bench::workload::{
    fanout_commits, fanout_rules, fanout_seed_ops, rising_edge_commits, rising_edge_rule_source,
    rising_edge_seed_ops, FANOUT_SLOTS, RISING_SLOTS,
};
use temporal_adb::analysis::{ReadSet, Resource};
use temporal_adb::core::{FiringRecord, LogicalOp, ManagerConfig, Rule, Shard};
use temporal_adb::obs::{ObsConfig, Registry};
use temporal_adb::ptl::{Formula, Term};
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
/// Rules of the canonical `eval_fanout` catalog.
const FANOUT_RULES: usize = 256;
/// Atoms a state of that catalog may evaluate: about 150 when every clock
/// reader was re-advanced at every state, about 132 since a clock reader
/// that absorbed the clock is skipped at its fixpoint, about 123 since a
/// rule at its fixpoint that a state touches looks up only what it touched.
const FANOUT_ATOM_BOUND: f64 = 126.0;
/// Atom-memo lookups a state of that catalog may make: about 123, one per
/// atom evaluated, when a closed comparison went through the memo; about
/// 32 since only the free-variable atom `time >= t - 8` of its 64
/// `[t := time]` window rules does. Its 192 other rules, and the
/// `batch_durable` catalog, all of whose atoms are closed, make none.
const FANOUT_LOOKUP_BOUND: f64 = 36.0;
/// Full rule evaluations a state of that catalog may cost: about 49 when
/// every rule a state touched was advanced, about 7.6 since a rule at its
/// fixpoint whose atoms did not move is skipped.
const FANOUT_RULE_BOUND: f64 = 10.0;
/// The same on the `batch_durable` catalog (256 rising-edge rules over 32
/// relations, 64 states per group commit): about 7.7, then about 0.1.
const RISING_RULE_BOUND: f64 = 0.5;
/// `Since` steps a state of that catalog may compute: about 33, one per
/// window rule advanced, before the computed table; about 1.0 since the 64
/// `[t := time] previously(…)` rules, which reach one residual whatever
/// their threshold, share each state's step.
const FANOUT_STEP_BOUND: f64 = 2.0;
/// The firing logs of the counted runs, as `(records, digest)`: a kernel
/// change that moves a firing fails here.
const FANOUT_FIRINGS: (usize, u64) = (799, 0xc985_cc10_4791_dca5);
const RISING_FIRINGS: (usize, u64) = (124, 0x90e0_def8_c683_da2e);
/// Atoms a state of the 64-rule shard may evaluate: about 40, beside about
/// 28 that its advances keep because the state's delta missed them.
const ATOM_BOUND: f64 = 45.0;

/// Commits that warm a 256-rule shard up, and commits then counted: the
/// dispatch probe's stream (seed 1), shortened.
const FANOUT_WARMUP: usize = 640;
const FANOUT_STATES: usize = 1600;

/// What a stretch of commits cost, per state.
struct Counts {
    atoms: f64,
    lookups: f64,
    rules: f64,
    /// `Since` steps computed, and answered by the computed table, per
    /// state.
    steps: f64,
    reused: f64,
    /// Rules skipped at their fixpoint, over the whole stretch.
    skips: u64,
    /// The shard's whole firing log: its length and [`digest`].
    firings: (usize, u64),
}

/// FNV-1a over the `Debug` text of each firing record: a digest that, unlike
/// `DefaultHasher`, does not change with the Rust release.
fn digest(records: &[FiringRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for record in records {
        for b in format!("{record:?}").bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Drives a shard seeded by `seed` and holding `rules` over `warm` and then
/// `commits`, `batch` commits per group commit (one: each op on its own);
/// returns what `commits` cost.
fn run(
    seed: Vec<LogicalOp>,
    rules: Vec<Rule>,
    warm: &[[LogicalOp; 2]],
    commits: &[[LogicalOp; 2]],
    batch: usize,
) -> Counts {
    let registry = Arc::new(Registry::new());
    let cfg = ManagerConfig {
        obs: ObsConfig::with_registry(registry.clone()),
        ..ManagerConfig::default()
    };
    let mut shard = Shard::volatile(Database::new(), cfg);
    for op in seed {
        assert!(shard.apply(&op).unwrap().ok());
    }
    for rule in rules {
        shard.add_rule(rule).unwrap();
    }
    let drive = |shard: &mut Shard, stretch: &[[LogicalOp; 2]]| {
        for group in stretch.chunks(batch) {
            let ops: Vec<LogicalOp> = group.iter().flatten().cloned().collect();
            if batch == 1 {
                ops.iter()
                    .for_each(|op| assert!(shard.apply(op).unwrap().ok()));
            } else {
                let outcomes = shard.apply_batch(&ops).unwrap();
                assert!(outcomes.iter().all(|o| o.ok()));
            }
        }
    };
    drive(&mut shard, warm);
    let skips =
        || (registry.snapshot()).counter_family("tdb_dispatch_fixpoint_skipped_rules_total");
    let skips_before = skips();
    let before = shard.adb().eval_context().stats();
    let rules_before = shard.adb().stats().evaluations;
    let states_before = shard.adb().history().len();
    drive(&mut shard, commits);
    let states = (shard.adb().history().len() - states_before) as f64;
    let after = shard.adb().eval_context().stats();
    let rules = shard.adb().stats().evaluations - rules_before;
    let firings = shard.firings_from(0);
    Counts {
        atoms: (after.atom_evals - before.atom_evals) as f64 / states,
        lookups: (after.memo_lookups - before.memo_lookups) as f64 / states,
        rules: rules as f64 / states,
        steps: (after.steps_computed - before.steps_computed) as f64 / states,
        reused: (after.steps_reused - before.steps_reused) as f64 / states,
        skips: skips() - skips_before,
        firings: (firings.len(), digest(&firings)),
    }
}

/// Whether every atom of `f` is a closed comparison (or a constant): no
/// variable, no aggregate, no membership or event atom, no assignment.
fn closed_atoms(f: &Formula) -> bool {
    let closed = |t: &Term| t.vars().is_empty() && !t.has_aggregate();
    match f {
        Formula::True | Formula::False => true,
        Formula::Cmp(_, a, b) => closed(a) && closed(b),
        Formula::Not(g) | Formula::Lasttime(g) | Formula::Previously(g) => closed_atoms(g),
        Formula::ThroughoutPast(g) => closed_atoms(g),
        Formula::And(gs) | Formula::Or(gs) => gs.iter().all(closed_atoms),
        Formula::Since(g, h) => closed_atoms(g) && closed_atoms(h),
        _ => false,
    }
}

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
        reused > 0.0 && evals <= ATOM_BOUND,
        "an advance keeps the atoms the state did not write: \
         {evals:.2} evaluated (bound {ATOM_BOUND}), {reused:.2} kept"
    );
    assert!(
        allocs <= ALLOC_BOUND,
        "{allocs:.1} heap allocations per state (bound {ALLOC_BOUND})"
    );

    // The whole catalog, and then its clock readers alone: a
    // `[t := time] previously(…)` rule whose item sits below its threshold
    // once its window has expired absorbs the clock and is skipped.
    let rules = fanout_rules(FANOUT_RULES / FANOUT_SLOTS);
    let stream = fanout_commits(1, FANOUT_WARMUP + FANOUT_STATES);
    let (warm, counted) = stream.split_at(FANOUT_WARMUP);
    let fanout = run(fanout_seed_ops(), rules.clone(), warm, counted, 1);
    let closed_rules: Vec<Rule> = (rules.iter())
        .filter(|r| closed_atoms(&r.condition))
        .cloned()
        .collect();
    let closed_count = closed_rules.len();
    let closed = run(fanout_seed_ops(), closed_rules, warm, counted, 1);
    let clock_readers: Vec<Rule> = (rules.into_iter())
        .filter(|r| ReadSet::of(&r.condition).contains(&Resource::Clock))
        .collect();
    let readers = clock_readers.len();
    let clock_skips = run(fanout_seed_ops(), clock_readers, warm, counted, 1).skips;
    let (atoms, rules) = (fanout.atoms, fanout.rules);
    println!(
        "{FANOUT_RULES} rules: firings {} digest {:016x}",
        fanout.firings.0, fanout.firings.1
    );
    println!(
        "{FANOUT_RULES} rules: {atoms:.2} atoms and {rules:.2} rules evaluated per state; \
         {readers} clock readers: {clock_skips} fixpoint skips; `Since` steps per state: \
         {:.2} computed, {:.2} from the computed table",
        fanout.steps, fanout.reused
    );
    println!(
        "atom-memo lookups per state: {:.2} on the {FANOUT_RULES} rules, {:.2} on their {} \
         closed-atom rules ({:.2} atoms evaluated)",
        fanout.lookups, closed.lookups, closed_count, closed.atoms
    );
    assert!(
        atoms <= FANOUT_ATOM_BOUND,
        "{atoms:.2} atoms evaluated per state (bound {FANOUT_ATOM_BOUND})"
    );
    assert!(
        fanout.lookups <= FANOUT_LOOKUP_BOUND,
        "{:.2} atom-memo lookups per state (bound {FANOUT_LOOKUP_BOUND})",
        fanout.lookups
    );
    assert!(
        closed.atoms > 0.0 && closed.lookups == 0.0,
        "a closed comparison consulted the atom memo: {:.2} lookups per state",
        closed.lookups
    );
    assert!(
        rules <= FANOUT_RULE_BOUND,
        "{rules:.2} rules evaluated per state (bound {FANOUT_RULE_BOUND})"
    );
    assert!(
        clock_skips > 0,
        "a clock reader that absorbed the clock must sit at its fixpoint"
    );
    assert!(
        fanout.steps <= FANOUT_STEP_BOUND && fanout.reused > 0.0,
        "{:.2} `Since` steps computed per state (bound {FANOUT_STEP_BOUND}), {:.2} reused",
        fanout.steps,
        fanout.reused
    );
    assert_eq!(fanout.firings, FANOUT_FIRINGS, "the fan-out firings moved");

    // The `batch_durable` catalog, 64 states per group commit.
    let rising = tdb_server::tenant::rules_from_source(&rising_edge_rule_source(
        FANOUT_RULES / RISING_SLOTS,
    ))
    .unwrap();
    let stream = rising_edge_commits(1, FANOUT_WARMUP + FANOUT_STATES);
    let (warm, counted) = stream.split_at(FANOUT_WARMUP);
    let rising = run(rising_edge_seed_ops(), rising, warm, counted, 64);
    let (rules, lookups) = (rising.rules, rising.lookups);
    println!(
        "{FANOUT_RULES} rising-edge rules: firings {} digest {:016x}",
        rising.firings.0, rising.firings.1
    );
    println!(
        "{FANOUT_RULES} rising-edge rules: {rules:.2} rules evaluated and \
         {lookups:.2} atom-memo lookups per state ({:.2} atoms evaluated)",
        rising.atoms
    );
    assert!(
        rules <= RISING_RULE_BOUND,
        "{rules:.2} rising-edge rules evaluated per state (bound {RISING_RULE_BOUND})"
    );
    assert!(
        rising.atoms > 0.0 && lookups == 0.0,
        "{lookups:.2} atom-memo lookups per rising-edge state: every atom is closed"
    );
    assert!(
        rising.steps == 0.0 && rising.reused == 0.0,
        "a closed catalog looked up the computed table"
    );
    assert_eq!(
        rising.firings, RISING_FIRINGS,
        "the rising-edge firings moved"
    );
}

//! What a state costs the evaluator, by count: on an `eval_fanout`-shaped
//! tenant (the canonical benchmark's catalog, in process), an advance
//! re-evaluates only the atoms the state's delta touched, and every ground
//! query application is evaluated once per state for the whole tenant —
//! however many of its atoms read it.

use tdb_bench::workload::{fanout_commits, fanout_rules, fanout_seed_ops};
use temporal_adb::core::{ManagerConfig, Shard};
use temporal_adb::relation::Database;

const PER_SLOT: usize = 16;
const STATES: usize = 400;

#[test]
fn a_fanout_state_evaluates_each_query_once() {
    let mut shard = Shard::volatile(Database::new(), ManagerConfig::default());
    for op in fanout_seed_ops() {
        assert!(shard.apply(&op).unwrap().ok());
    }
    for rule in fanout_rules(PER_SLOT) {
        shard.add_rule(rule).unwrap();
    }
    let before = shard.adb().eval_context().stats();
    let states_before = shard.adb().history().len();
    for commit in fanout_commits(7, STATES) {
        for op in &commit {
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
    println!(
        "per state: {queries:.2} query evaluations, {hits:.2} memo hits, \
         {evals:.2} atoms evaluated, {reused:.2} kept"
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
}

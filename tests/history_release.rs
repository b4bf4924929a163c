//! A server shard releases dispatched history states; a library
//! `ActiveDatabase` keeps them all. Nothing observable may tell the two
//! apart.
//!
//! The seeded differential step script drives a [`Shard`] (which releases
//! after every op) and a plain `ActiveDatabase` (full history) through the
//! same ops — per op, and regrouped into group commits of 1, 7 and 64
//! steps — over a data-writing catalog, a cascade-required catalog and a
//! catalog with an integrity constraint, and through a WAL with recovery
//! at a seeded cut. Firings, `ManagerStats`, the database and the history
//! length must be identical, and after every op the shard may hold no more
//! than one state plus the states still awaiting dispatch.
//!
//! A catalog whose action evaluates a temporal aggregate reads the whole
//! history at materialization time; the shard must then keep every state.

use rand::{rngs::StdRng, RngExt, SeedableRng};

use temporal_adb::core::storage::LogicalOp;
use temporal_adb::core::{Action, ActiveDatabase, ManagerConfig, Rule, Shard, SharedMemorySink};
use temporal_adb::ptl::parse_formula;

use tdb_bench::workload::{
    apply_diff_step, diff_step_ops, differential_cascade_rules, differential_rules,
    differential_steps, differential_stratified_rules, differential_writer_db, DiffStep,
    DIFF_RELATIONS,
};

const STEP_SEED: u64 = 0x5EED_0F26;
const RULE_SEED: u64 = 0x0B5E_CA4E;
const STEPS: usize = 400;

fn catalogs() -> Vec<(&'static str, Vec<Rule>)> {
    let mut gated: Vec<Rule> = differential_rules(RULE_SEED, 12)
        .into_iter()
        .filter(|r| r.name.starts_with("ptl"))
        .collect();
    gated.push(Rule::constraint(
        "cap_w0",
        parse_formula("w0_q() <= 120").unwrap(),
    ));
    vec![
        ("writer", differential_stratified_rules()),
        ("cascade-required", differential_cascade_rules()),
        ("constraint", gated),
    ]
}

fn oracle(rules: &[Rule]) -> ActiveDatabase {
    let mut adb = ActiveDatabase::new(differential_writer_db());
    for r in rules {
        adb.add_rule(r.clone()).unwrap();
    }
    adb
}

fn shard(rules: &[Rule], sink: Option<&SharedMemorySink>) -> Shard {
    let db = differential_writer_db();
    let mut shard = match sink {
        Some(sink) => Shard::durable(db, ManagerConfig::default(), Box::new(sink.clone())).unwrap(),
        None => Shard::volatile(db, ManagerConfig::default()),
    };
    for r in rules {
        shard.add_rule(r.clone()).unwrap();
    }
    shard
}

/// After every op: the shard holds the last state and nothing already
/// dispatched (the default dispatch batch of 1 leaves nothing pending).
fn assert_released(label: &str, shard: &Shard) {
    let h = shard.adb().history();
    assert_eq!(
        h.retained(),
        1,
        "{label}: {} of {} states held",
        h.retained(),
        h.len()
    );
    assert_eq!(
        shard.quick_stats().live_states,
        1,
        "{label}: live-states gauge"
    );
}

fn assert_same(label: &str, shard: &Shard, oracle: &ActiveDatabase) {
    let adb = shard.adb();
    assert!(!oracle.firings().is_empty(), "{label}: dead workload");
    assert_eq!(adb.firings(), oracle.firings(), "{label}: firings diverge");
    assert_eq!(adb.stats(), oracle.stats(), "{label}: ManagerStats diverge");
    assert_eq!(adb.db(), oracle.db(), "{label}: databases diverge");
    assert_eq!(
        adb.history().len(),
        oracle.history().len(),
        "{label}: history length diverges"
    );
    assert_eq!(
        oracle.history().retained(),
        oracle.history().len(),
        "{label}: the library oracle keeps its whole history"
    );
}

/// The step script regrouped into `batch`-step group commits.
fn batches(steps: &[DiffStep], batch: usize) -> Vec<Vec<LogicalOp>> {
    let mut rows = vec![0i64; DIFF_RELATIONS];
    steps
        .chunks(batch)
        .map(|chunk| {
            chunk
                .iter()
                .flat_map(|s| diff_step_ops(s, &mut rows))
                .collect()
        })
        .collect()
}

#[test]
fn per_op_shard_matches_the_full_history_oracle() {
    let steps = differential_steps(STEP_SEED, STEPS);
    for (label, rules) in catalogs() {
        let mut reference = oracle(&rules);
        for s in &steps {
            apply_diff_step(&mut reference, s);
        }
        let mut subject = shard(&rules, None);
        let mut rows = vec![0i64; DIFF_RELATIONS];
        for s in &steps {
            for op in diff_step_ops(s, &mut rows) {
                subject.apply(&op).unwrap();
                assert_released(label, &subject);
            }
        }
        assert_same(label, &subject, &reference);
    }
}

#[test]
fn batched_shard_matches_the_full_history_oracle() {
    let steps = differential_steps(STEP_SEED, STEPS);
    for (label, rules) in catalogs() {
        for batch in [1usize, 7, 64] {
            let tag = format!("{label} batch={batch}");
            let mut reference = oracle(&rules);
            let mut subject = shard(&rules, None);
            for ops in batches(&steps, batch) {
                let want = reference.commit_batch(&ops, &[]).unwrap();
                let got = subject.apply_batch(&ops).unwrap();
                assert!(
                    got.iter()
                        .map(|o| &o.result)
                        .eq(want.iter().map(|o| &o.result)),
                    "{tag}: op outcomes diverge"
                );
                assert_released(&tag, &subject);
            }
            assert_same(&tag, &subject, &reference);
        }
    }
}

/// A durable shard crashes at a seeded cut, recovers from its latest
/// checkpoint plus log tail, and finishes the script: the recovered shard
/// releases at once and ends identical to the oracle.
#[test]
fn recovered_shard_matches_the_full_history_oracle() {
    let steps = differential_steps(STEP_SEED, STEPS);
    let mut rng = StdRng::seed_from_u64(STEP_SEED);
    for (label, rules) in catalogs() {
        for batch in [1usize, 7] {
            let groups = batches(&steps, batch);
            let cut = rng.random_range(1..groups.len());
            let tag = format!("{label} batch={batch} cut={cut}");
            let mut reference = oracle(&rules);
            for ops in &groups {
                reference.commit_batch(ops, &[]).unwrap();
            }

            let sink = SharedMemorySink::new(97);
            let mut live = shard(&rules, Some(&sink));
            for ops in &groups[..cut] {
                live.apply_batch(ops).unwrap();
            }
            drop(live);
            let (snap, tail) = sink.latest().expect("a checkpoint was taken");
            let recovered =
                ActiveDatabase::recover(snap, &tail, &rules, ManagerConfig::default()).unwrap();
            let mut subject = Shard::new(recovered, rules.clone());
            assert_released(&tag, &subject);
            for ops in &groups[cut..] {
                subject.apply_batch(ops).unwrap();
                assert_released(&tag, &subject);
            }
            assert_eq!(
                subject.adb().firings(),
                reference.firings(),
                "{tag}: firings diverge"
            );
            assert_eq!(
                subject.adb().db(),
                reference.db(),
                "{tag}: databases diverge"
            );
            assert_eq!(
                subject.adb().history().len(),
                reference.history().len(),
                "{tag}: history length diverges"
            );
        }
    }
}

/// `then set m := count(…)` evaluates the aggregate naively over the whole
/// history when the action materializes, so a shard over that catalog keeps
/// every state — and its `m` values match the oracle's.
#[test]
fn aggregate_action_keeps_the_whole_history() {
    let rules = tdb_server::tenant::rules_from_source(
        "rule tally { when w0_q() > 100; then set m := count(w0_q(); time = 0; @mark); }",
    )
    .unwrap();
    assert!(matches!(rules[0].action, Action::DbOps(_)));
    let steps = differential_steps(STEP_SEED, STEPS);
    let mut reference = oracle(&rules);
    let mut subject = shard(&rules, None);
    let mut rows = vec![0i64; DIFF_RELATIONS];
    for s in &steps {
        apply_diff_step(&mut reference, s);
        for op in diff_step_ops(s, &mut rows) {
            subject.apply(&op).unwrap();
        }
    }
    assert!(
        reference.db().item("m").is_ok(),
        "the aggregate action never ran"
    );
    assert_same("aggregate action", &subject, &reference);
    let h = subject.adb().history();
    assert_eq!(h.retained(), h.len(), "every state is kept");
}

//! Property tests: the incremental evaluator (Theorem 1) agrees with the
//! naive reference semantics on randomized histories and a grammar of
//! formulas — the central correctness property of the reproduction.

use proptest::prelude::*;

use temporal_adb::core::{EvalConfig, IncrementalEvaluator};
use temporal_adb::prelude::*;

/// Builds a stock engine and applies a price/event script. Each step is
/// either a price update or a user event.
#[derive(Debug, Clone)]
enum Step {
    Price(i64),
    Event(&'static str),
}

fn apply_script(steps: &[Step]) -> Engine {
    let mut db = Database::new();
    db.create_relation(
        "STOCK",
        Relation::empty(Schema::untyped(&["name", "price"])),
    )
    .unwrap();
    db.define_query(
        "price",
        QueryDef::new(
            1,
            parse_query("select price from STOCK where name = $0").unwrap(),
        ),
    );
    db.define_query(
        "names",
        QueryDef::new(0, parse_query("select name from STOCK").unwrap()),
    );
    let mut e = Engine::new(db);
    for s in steps {
        e.advance_clock(1).unwrap();
        match s {
            Step::Price(p) => {
                let old = e
                    .db()
                    .relation("STOCK")
                    .unwrap()
                    .iter()
                    .find(|t| t.get(0) == Some(&Value::str("IBM")))
                    .cloned();
                let mut ops = Vec::new();
                if let Some(old) = old {
                    ops.push(WriteOp::Delete {
                        relation: "STOCK".into(),
                        tuple: old,
                    });
                }
                ops.push(WriteOp::Insert {
                    relation: "STOCK".into(),
                    tuple: tuple!["IBM", *p],
                });
                e.apply_update(ops).unwrap();
            }
            Step::Event(name) => {
                e.emit_event(Event::simple(*name)).unwrap();
            }
        }
    }
    e
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1i64..60).prop_map(Step::Price),
        Just(Step::Event("ping")),
        Just(Step::Event("pong")),
    ]
}

/// A small grammar of *closed* PTL formulas over the stock schema.
fn formula_strategy() -> impl Strategy<Value = String> {
    let atom = prop_oneof![
        (1i64..60).prop_map(|c| format!("price(\"IBM\") > {c}")),
        (1i64..60).prop_map(|c| format!("price(\"IBM\") <= {c}")),
        Just("@ping".to_string()),
        Just("@pong".to_string()),
        (1i64..40).prop_map(|c| format!("time >= {c}")),
    ];
    let leaf = atom.prop_map(|a| format!("({a})"));
    let tree = leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| format!("(not {f})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} and {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} or {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} since {b})")),
            inner.clone().prop_map(|f| format!("(lasttime {f})")),
            inner.clone().prop_map(|f| format!("(previously {f})")),
            inner.clone().prop_map(|f| format!("(throughout_past {f})")),
        ]
    });
    // A single (optional) top-level assignment keeps the single-assignment
    // normal form while still exercising substitution.
    (tree, any::<bool>()).prop_map(|(f, assign)| {
        if assign {
            format!("[v := price(\"IBM\")] ({f} and (v > 0 or not (v > 0)))")
        } else {
            f
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Incremental firing == naive evaluation, at every state, for random
    /// closed formulas over random histories.
    #[test]
    fn incremental_matches_naive(
        steps in proptest::collection::vec(step_strategy(), 1..24),
        src in formula_strategy(),
    ) {
        let engine = apply_script(&steps);
        let f = parse_formula(&src).unwrap();
        let mut ev = IncrementalEvaluator::compile(&f).unwrap();
        for (i, s) in engine.history().iter() {
            let inc = !ev.advance_and_fire(s, i).unwrap().is_empty();
            let naive = temporal_adb::ptl::eval(&f, engine.history(), i, &Default::default())
                .unwrap();
            prop_assert_eq!(inc, naive, "formula `{}` state {}", src, i);
        }
    }

    /// Pruning never changes the verdict (it only discards clauses no
    /// future substitution can revive).
    #[test]
    fn pruning_is_semantics_preserving(
        steps in proptest::collection::vec(step_strategy(), 1..24),
    ) {
        let engine = apply_script(&steps);
        let f = parse_formula(
            "[t := time] [x := price(\"IBM\")] \
             previously(price(\"IBM\") <= 0.5 * x and time >= t - 7)",
        ).unwrap();
        let mut pruned = IncrementalEvaluator::compile(&f).unwrap();
        let mut unpruned = IncrementalEvaluator::new(
            &f,
            EvalConfig { pruning: false, max_residual: usize::MAX },
        ).unwrap();
        for (i, s) in engine.history().iter() {
            let a = !pruned.advance_and_fire(s, i).unwrap().is_empty();
            let b = !unpruned.advance_and_fire(s, i).unwrap().is_empty();
            prop_assert_eq!(a, b, "state {}", i);
        }
        prop_assert!(pruned.retained_size() <= unpruned.retained_size());
    }

    /// Free-variable binding extraction agrees with the oracle's generator
    /// enumeration.
    #[test]
    fn bindings_match_oracle(
        steps in proptest::collection::vec(step_strategy(), 1..16),
        threshold in 1i64..60,
    ) {
        let engine = apply_script(&steps);
        let f = parse_formula(
            &format!("x in names() and price(x) >= {threshold}"),
        ).unwrap();
        let mut ev = IncrementalEvaluator::compile(&f).unwrap();
        for (i, s) in engine.history().iter() {
            let inc: Vec<_> = ev
                .advance_and_fire(s, i)
                .unwrap()
                .into_iter()
                .map(|e| e["x"].clone())
                .collect();
            let naive: Vec<_> = temporal_adb::ptl::fire_bindings(
                &f, engine.history(), i, &Default::default(),
            )
            .unwrap()
            .into_iter()
            .map(|e| e["x"].clone())
            .collect();
            prop_assert_eq!(&inc, &naive, "state {}", i);
        }
    }

    /// The aux-relation strategy agrees with the formula-state strategy on
    /// decomposable conditions.
    #[test]
    fn auxrel_matches_incremental(
        steps in proptest::collection::vec(step_strategy(), 1..24),
        window in 3i64..12,
    ) {
        let engine = apply_script(&steps);
        let f = parse_formula(&format!(
            "[t := time] [x := price(\"IBM\")] \
             previously(price(\"IBM\") <= 0.5 * x and time >= t - {window})",
        )).unwrap();
        let mut inc = IncrementalEvaluator::compile(&f).unwrap();
        let mut aux = temporal_adb::baseline::AuxEvaluator::new(f.clone(), None).unwrap();
        for (i, s) in engine.history().iter() {
            let a = !inc.advance_and_fire(s, i).unwrap().is_empty();
            let b = aux.advance(s).unwrap();
            prop_assert_eq!(a, b, "state {}", i);
        }
    }
}

// ---- crash-recovery equivalence ---------------------------------------------

mod recovery {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use temporal_adb::prelude::{Action, ActiveDatabase, Rule};

    /// One externally driven operation against the facade.
    #[derive(Debug, Clone)]
    pub enum DStep {
        Price(i64),
        Event(&'static str),
        Balance(i64),
        Skip,
    }

    pub fn dstep_strategy() -> impl Strategy<Value = DStep> {
        prop_oneof![
            (1i64..60).prop_map(DStep::Price),
            Just(DStep::Event("ping")),
            // Negative balances are vetoed by the constraint — the veto
            // itself must replay identically.
            (-20i64..200).prop_map(DStep::Balance),
            Just(DStep::Skip),
        ]
    }

    pub fn base_db() -> Database {
        let mut db = Database::new();
        db.create_relation(
            "STOCK",
            Relation::empty(Schema::untyped(&["name", "price"])),
        )
        .unwrap();
        db.define_query(
            "price",
            QueryDef::new(
                1,
                parse_query("select price from STOCK where name = $0").unwrap(),
            ),
        );
        db.set_item("balance", Value::Int(100));
        db.define_query(
            "balance_q",
            QueryDef::new(0, parse_query("item balance").unwrap()),
        );
        db
    }

    pub fn catalog() -> Vec<Rule> {
        vec![
            Rule::trigger(
                "doubled",
                parse_formula(
                    "[t := time] [x := price(\"IBM\")] \
                     previously(price(\"IBM\") <= 0.5 * x and time >= t - 10)",
                )
                .unwrap(),
                Action::Notify,
            ),
            Rule::constraint("non_negative", parse_formula("balance_q() >= 0").unwrap()),
        ]
    }

    pub fn apply(a: &mut ActiveDatabase, s: &DStep) {
        a.advance_clock(1).unwrap();
        match s {
            DStep::Price(p) => {
                let old = a
                    .db()
                    .relation("STOCK")
                    .unwrap()
                    .iter()
                    .find_map(|t| (t.get(0) == Some(&Value::str("IBM"))).then(|| t.clone()));
                let mut ops = Vec::new();
                if let Some(old) = old {
                    ops.push(WriteOp::Delete {
                        relation: "STOCK".into(),
                        tuple: old,
                    });
                }
                ops.push(WriteOp::Insert {
                    relation: "STOCK".into(),
                    tuple: tuple!["IBM", *p],
                });
                a.update(ops).unwrap();
            }
            DStep::Event(name) => {
                a.emit(Event::simple(*name)).unwrap();
            }
            DStep::Balance(b) => {
                // Vetoed when negative: both runs see the same error.
                let _ = a.update([WriteOp::SetItem {
                    item: "balance".into(),
                    value: Value::Int(*b),
                }]);
            }
            DStep::Skip => {
                a.tick().unwrap();
            }
        }
    }

    pub fn assert_same(a: &ActiveDatabase, b: &ActiveDatabase) {
        assert_eq!(a.db(), b.db());
        assert_eq!(a.now(), b.now());
        assert_eq!(a.firings(), b.firings());
        assert_eq!(a.history().len(), b.history().len());
        assert_eq!(a.retained_size(), b.retained_size());
    }

    pub static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

    pub fn unique_dir() -> std::path::PathBuf {
        let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("tdb-prop-{}-{n}", std::process::id()))
    }
}

// ---- temporal aggregates: nesting + recovery --------------------------------

mod aggregates {
    use super::*;
    use temporal_adb::prelude::{Action, ActiveDatabase, Rule};

    /// Catalog with a flat temporal aggregate and a *nested* one: the outer
    /// `avg` samples only once the inner `count` of `@ping` samples has
    /// reached 2 (Section 6.1.1 allows aggregates in the start/sampling
    /// formulas; nested occurrences are rewritten first).
    pub fn catalog() -> Vec<Rule> {
        vec![
            Rule::trigger(
                "flat_avg",
                parse_formula("avg(price(\"IBM\"); time = 0; @ping) > 30").unwrap(),
                Action::Notify,
            ),
            Rule::trigger(
                "nested_avg",
                parse_formula(
                    "avg(price(\"IBM\"); time = 0; \
                     count(price(\"IBM\"); time = 0; @ping) >= 2) > 30",
                )
                .unwrap(),
                Action::Notify,
            ),
        ]
    }

    pub fn agg_step_strategy() -> impl Strategy<Value = super::recovery::DStep> {
        use super::recovery::DStep;
        prop_oneof![
            (1i64..60).prop_map(DStep::Price),
            Just(DStep::Event("ping")),
            Just(DStep::Skip),
        ]
    }

    pub fn build_volatile() -> ActiveDatabase {
        let mut adb = ActiveDatabase::new(super::recovery::base_db());
        for r in catalog() {
            adb.add_rule(r).unwrap();
        }
        adb
    }
}

/// Named regression: the nested aggregate's firing schedule on a fixed
/// script. Sampling formulas are compiled to edge-triggered helper rules
/// (a level-triggered data condition would re-sample its own register
/// write and cascade), so the outer `avg` samples the price exactly once —
/// on the rising edge of the inner `count` reaching 2 — one state after
/// the second `@ping` (helper actions commit as follow-up transactions).
#[test]
fn nested_temporal_aggregate_fires_on_inner_threshold() {
    use recovery::DStep;
    let mut adb = aggregates::build_volatile();
    let script = [
        DStep::Price(50),
        DStep::Event("ping"), // inner count samples: 1
        DStep::Price(40),
        DStep::Event("ping"), // inner count samples: 2 (visible next state)
        DStep::Skip,
        DStep::Price(10), // too late to matter: the sample is already taken
        DStep::Skip,
    ];
    for s in &script {
        recovery::apply(&mut adb, s);
    }
    let fired = |rule: &str| -> Vec<i64> {
        adb.firings()
            .iter()
            .filter(|f| f.rule == rule)
            .map(|f| f.time.0)
            .collect()
    };
    let flat = fired("flat_avg");
    let nested = fired("nested_avg");
    assert_eq!(
        flat.len(),
        1,
        "flat aggregate fires once, when its first sample (50) lands: {flat:?}"
    );
    assert_eq!(
        nested.len(),
        1,
        "nested aggregate fires once, on the sample taken at the inner \
         count's rising edge (price 40 > 30): {nested:?}"
    );
    assert!(
        nested[0] > flat[0],
        "the nested schedule must trail the flat one (inner register edge \
         plus one follow-up state): flat {flat:?}, nested {nested:?}"
    );
    // Pin the exact clock times so any change to the follow-up-transaction
    // cadence of the Section 6.1.1 rewriting shows up as a diff here.
    assert_eq!((flat[0], nested[0]), (3, 9), "firing clock times moved");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Recovery mid-aggregate: a durable run with flat + nested temporal
    /// aggregates crashes at a random cut (often between the inner
    /// aggregate's samples) and recovers; the registers (database items)
    /// and helper-rule formula states must restore exactly, keeping the
    /// recovered system in lockstep with an uninterrupted volatile run.
    #[test]
    fn recovery_mid_aggregate_is_equivalent_at_any_cut(
        steps in proptest::collection::vec(aggregates::agg_step_strategy(), 4..24),
        cut_pct in 0usize..100,
        every_ops in 1usize..4,
    ) {
        use recovery::*;
        use temporal_adb::core::ManagerConfig;
        use temporal_adb::prelude::ActiveDatabase;
        use temporal_adb::storage::{recover, CheckpointPolicy, FileStorage};

        let cut = steps.len() * cut_pct / 100;
        let dir = unique_dir();
        let _ = std::fs::remove_dir_all(&dir);

        let policy = CheckpointPolicy { every_ops, every_bytes: 0, sync: tdb_core::SyncPolicy::Never };
        let storage = FileStorage::create(&dir, policy).unwrap();
        let mut durable = ActiveDatabase::with_storage(
            base_db(), ManagerConfig::default(), Box::new(storage),
        ).unwrap();
        for r in aggregates::catalog() {
            durable.add_rule(r).unwrap();
        }
        let mut volatile = aggregates::build_volatile();
        for s in &steps[..cut] {
            apply(&mut durable, s);
            apply(&mut volatile, s);
        }
        drop(durable); // crash, possibly between a reset and its samples

        let rec = recover(&dir, &aggregates::catalog(), ManagerConfig::default()).unwrap();
        prop_assert!(rec.report.bad_checkpoints.is_empty());
        let mut recovered = rec.adb;
        assert_same(&recovered, &volatile);

        for s in &steps[cut..] {
            apply(&mut recovered, s);
            apply(&mut volatile, s);
        }
        assert_same(&recovered, &volatile);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash-recovery equivalence at a random cut point: a durable run
    /// killed after `cut` ops and recovered from disk is indistinguishable
    /// from a volatile run of the same prefix — and both stay in lockstep
    /// over the remaining suffix.
    #[test]
    fn recovery_is_equivalent_at_any_cut(
        steps in proptest::collection::vec(recovery::dstep_strategy(), 1..20),
        cut_pct in 0usize..100,
        every_ops in 1usize..5,
    ) {
        use recovery::*;
        use temporal_adb::core::ManagerConfig;
        use temporal_adb::prelude::ActiveDatabase;
        use temporal_adb::storage::{recover, CheckpointPolicy, FileStorage};

        let cut = steps.len() * cut_pct / 100;
        let dir = unique_dir();
        let _ = std::fs::remove_dir_all(&dir);

        let policy = CheckpointPolicy { every_ops, every_bytes: 0, sync: tdb_core::SyncPolicy::Never };
        let storage = FileStorage::create(&dir, policy).unwrap();
        let mut durable = ActiveDatabase::with_storage(
            base_db(), ManagerConfig::default(), Box::new(storage),
        ).unwrap();
        let mut volatile = ActiveDatabase::new(base_db());
        for r in catalog() {
            durable.add_rule(r.clone()).unwrap();
            volatile.add_rule(r).unwrap();
        }
        for s in &steps[..cut] {
            apply(&mut durable, s);
            apply(&mut volatile, s);
        }
        drop(durable); // crash at the cut point

        let rec = recover(&dir, &catalog(), ManagerConfig::default()).unwrap();
        prop_assert!(rec.report.bad_checkpoints.is_empty());
        let mut recovered = rec.adb;
        assert_same(&recovered, &volatile);

        for s in &steps[cut..] {
            apply(&mut recovered, s);
            apply(&mut volatile, s);
        }
        assert_same(&recovered, &volatile);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

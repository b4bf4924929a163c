//! Property tests validating boundedness certificates against the real
//! incremental evaluator:
//!
//! * `Bounded(k)` — drive 1000 states through `IncrementalEvaluator` and
//!   assert the retained residual size never exceeds `k`;
//! * `BoundedByWindow(Δ)` — retained state must plateau: on a long run the
//!   peak is reached well before the end (no tail growth);
//! * `Unbounded` — growth must actually occur on an adversarial history
//!   (a fresh `@login(u)` binding every state).

use proptest::prelude::*;

use temporal_adb::analysis::{certify, Boundedness};
use temporal_adb::core::{EvalConfig, IncrementalEvaluator};
use temporal_adb::engine::{Event, EventSet, SystemState};
use temporal_adb::ptl::parse_formula;
use temporal_adb::relation::{Database, Query, QueryDef, Timestamp, Value};

const STATES: usize = 1000;

/// Drives `src` through `STATES` synthetic states and returns the retained
/// residual size after each state.
///
/// The history is adversarial for unguarded accumulation: the clock ticks
/// every state, `price()` cycles through small positive values, `@pulse`
/// fires every third state, and `@login(uN)` carries a fresh argument at
/// every state so variable-binding disjuncts can never collapse.
fn drive(src: &str) -> Vec<usize> {
    let f = parse_formula(src).unwrap();
    let mut ev = IncrementalEvaluator::new(&f, EvalConfig::default()).unwrap();
    let mut db = Database::new();
    db.define_query("price", QueryDef::new(0, Query::item("P")));
    let mut sizes = Vec::with_capacity(STATES);
    for i in 0..STATES {
        db.set_item("P", Value::Int(1 + (i as i64 % 7)));
        let mut events = EventSet::new();
        if i % 3 == 0 {
            events.insert(Event::new("pulse", vec![]));
        }
        events.insert(Event::new("login", vec![Value::str(format!("u{i}"))]));
        let state = SystemState::new(db.clone(), events, Timestamp(i as i64));
        ev.advance(&state, i).unwrap();
        sizes.push(ev.retained_size());
    }
    sizes
}

/// Always-evaluable ground atoms: no free variables anywhere.
fn ground_atom() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("price() > 3".to_string()),
        Just("price() > 0".to_string()),
        Just("@pulse".to_string()),
        Just("time >= 5".to_string()),
        Just("true".to_string()),
    ]
}

/// Ground formulas closed under the connectives and temporal operators.
fn ground_formula() -> impl Strategy<Value = String> {
    ground_atom().prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} and {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} or {b})")),
            inner.clone().prop_map(|a| format!("not ({a})")),
            inner.clone().prop_map(|a| format!("previously ({a})")),
            inner.clone().prop_map(|a| format!("historically ({a})")),
            inner.clone().prop_map(|a| format!("lasttime ({a})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} since {b})")),
        ]
    })
}

/// Unbounded cores: a variable-binding generator under an unguarded
/// accumulating operator. The `since` bodies keep `g` always true so the
/// accumulated disjuncts are never reset by a false `g`.
fn unbounded_core() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("once @login(u)".to_string()),
        Just("(time >= 0 since @login(u))".to_string()),
        Just("(price() > 0 since @login(u))".to_string()),
    ]
}

/// An unbounded core optionally composed with ground noise (in positions
/// that cannot mask the accumulating subformula's own residuals).
fn unbounded_formula() -> impl Strategy<Value = String> {
    (unbounded_core(), ground_formula(), 0usize..3).prop_map(|(core, g, shape)| match shape {
        0 => core,
        1 => format!("({g} and {core})"),
        _ => format!("({g} or {core})"),
    })
}

/// Window-guarded accumulation: certified `BoundedByWindow(Δ)`.
fn guarded_formula() -> impl Strategy<Value = String> {
    (5i64..50, ground_formula(), 0usize..2).prop_map(|(delta, g, conj)| {
        let conj = conj == 1;
        let core = format!("previously(@login(u) and time >= t0 - {delta})");
        if conj {
            format!("[t0 := time] ({g} and {core})")
        } else {
            format!("[t0 := time] {core}")
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Bounded(k)` is a hard ceiling: 1000 updates never retain more
    /// than `k` residual nodes.
    #[test]
    fn bounded_certificates_hold_over_1000_states(src in ground_formula()) {
        let f = parse_formula(&src).unwrap();
        let cert = certify(&f, None);
        match cert.verdict {
            Boundedness::Bounded { nodes, data_scaled } => {
                prop_assert!(!data_scaled, "ground formulas have no free variables: {src}");
                let sizes = drive(&src);
                let peak = *sizes.iter().max().unwrap();
                prop_assert!(
                    peak <= nodes,
                    "certified k={nodes} but retained {peak} nodes: {src}"
                );
            }
            other => prop_assert!(false, "ground formula certified {other:?}: {src}"),
        }
    }

    /// `Unbounded` verdicts are not false alarms: the adversarial history
    /// (fresh login binding per state) makes retained state actually grow.
    #[test]
    fn unbounded_certificates_exhibit_growth(src in unbounded_formula()) {
        let f = parse_formula(&src).unwrap();
        let cert = certify(&f, None);
        prop_assert_eq!(
            &cert.verdict, &Boundedness::Unbounded,
            "expected unbounded for {}", &src
        );
        prop_assert!(!cert.offenders.is_empty());
        let sizes = drive(&src);
        prop_assert!(
            sizes[STATES - 1] > sizes[STATES / 3],
            "no growth between state {} ({}) and state {} ({}): {}",
            STATES / 3, sizes[STATES / 3], STATES - 1, sizes[STATES - 1], &src
        );
    }

    /// `BoundedByWindow(Δ)` means pruning keeps up: with one state per
    /// clock tick the retained size plateaus — the whole-run peak is
    /// already reached in the first 600 states (Δ < 50 ≪ 600).
    #[test]
    fn window_certificates_plateau(src in guarded_formula()) {
        let f = parse_formula(&src).unwrap();
        let cert = certify(&f, None);
        match cert.verdict {
            Boundedness::BoundedByWindow { delta } => {
                prop_assert!((5..50).contains(&delta), "{}", &src);
            }
            other => prop_assert!(false, "expected window bound, got {other:?}: {src}"),
        }
        let sizes = drive(&src);
        let early_peak = *sizes[..600].iter().max().unwrap();
        let late_peak = *sizes[600..].iter().max().unwrap();
        prop_assert!(
            late_peak <= early_peak,
            "retained state still growing after 600 states ({} -> {}): {}",
            early_peak, late_peak, &src
        );
    }
}

// ---- the maintained batch-safety certificate --------------------------------
//
// `CascadeGraph` keeps the certificate current one `add` / `promote` at a
// time. The oracle below is the all-pairs decision procedure it replaced:
// every (writer, rule) pair intersected, cycles by transitive closure,
// strata by longest path. After every step the graph must agree with it
// field for field.

mod cascade {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use temporal_adb::analysis::{
        BatchCertificate, BatchRule, BatchSafety, CascadeEdge, CascadeGraph, ReadSet, Resource,
    };
    use temporal_adb::core::rules::{Action, ActionOp, Rule};
    use temporal_adb::core::{ManagerConfig, RuleManager, WriterFences};
    use temporal_adb::ptl::{executed_query_name, parse_formula, Term};
    use temporal_adb::relation::{Database, Query, QueryDef, Value};

    fn is_writer(r: &BatchRule) -> bool {
        !r.writes.is_empty()
    }

    /// From-scratch certification by intersecting every pair of rules.
    fn all_pairs(rules: &[BatchRule]) -> BatchSafety {
        let n = rules.len();
        let mut edges = Vec::new();
        let mut reach = vec![vec![false; n]; n];
        for (i, a) in rules.iter().enumerate().filter(|(_, r)| is_writer(r)) {
            for (j, b) in rules.iter().enumerate() {
                let mut via: BTreeSet<Resource> = (b.reads.iter())
                    .filter(|r| a.writes.contains(r))
                    .cloned()
                    .collect();
                // Every writer writes the state order.
                if b.reads.contains(&Resource::Order) {
                    via.insert(Resource::Order);
                }
                if via.is_empty() {
                    continue;
                }
                reach[i][j] = true;
                edges.push(CascadeEdge {
                    writer: a.name.clone(),
                    reader: b.name.clone(),
                    via,
                });
            }
        }
        let direct = reach.clone();
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    reach[i][j] |= reach[i][k] && reach[k][j];
                }
            }
        }
        // Mutually reachable groups of two or more, and self-loops.
        let mut cycles: Vec<Vec<String>> = Vec::new();
        for i in 0..n {
            let mut group: Vec<String> = (0..n)
                .filter(|&j| j == i || (reach[i][j] && reach[j][i]))
                .map(|j| rules[j].name.clone())
                .collect();
            group.sort();
            if group.len() >= 2 {
                cycles.push(group);
            }
            if direct[i][i] {
                cycles.push(vec![rules[i].name.clone()]);
            }
        }
        cycles.sort();
        cycles.dedup();

        let impure = rules
            .iter()
            .filter(|r| is_writer(r) && r.impure_action_values)
            .map(|r| r.name.clone())
            .collect();
        let mut strata = Vec::new();
        let certificate = if !cycles.is_empty() {
            BatchCertificate::CascadeRequired
        } else if !rules.iter().any(is_writer) {
            BatchCertificate::Exact
        } else {
            // Acyclic: a rule's depth is its longest chain of influencing
            // writers, found by relaxing every edge n times.
            let mut depth = vec![0usize; n];
            for _ in 0..n {
                for i in 0..n {
                    for j in 0..n {
                        if direct[i][j] {
                            depth[j] = depth[j].max(depth[i] + 1);
                        }
                    }
                }
            }
            let k = depth.iter().max().map_or(1, |d| d + 1);
            strata = vec![Vec::new(); k];
            for (i, r) in rules.iter().enumerate() {
                strata[depth[i]].push(r.name.clone());
            }
            BatchCertificate::Stratified { strata: k }
        };
        BatchSafety {
            certificate,
            edges,
            cycles,
            impure,
            strata,
        }
    }

    /// One step of a growing catalog, over a vocabulary small enough that
    /// chains, cycles and self-loops all turn up.
    #[derive(Debug, Clone)]
    enum Step {
        Add(BatchRule),
        /// An earlier rule (index modulo the rules so far) starts recording.
        Promote(usize),
    }

    fn resource() -> impl Strategy<Value = Resource> {
        (0usize..6).prop_map(|i| Resource::Item(format!("x{i}")))
    }

    fn step() -> impl Strategy<Value = Step> {
        (
            proptest::collection::vec(resource(), 0..3),
            proptest::collection::vec(resource(), 0..2),
            0u8..16,
            any::<bool>(),
            0usize..256,
        )
            .prop_map(|(reads, writes, flags, notify, pick)| {
                // One step in four promotes an earlier rule.
                if pick % 4 == 0 {
                    return Step::Promote(pick / 4);
                }
                // One rule in four is order-sensitive.
                let order = (flags & 3 == 1).then_some(Resource::Order);
                Step::Add(BatchRule {
                    name: String::new(),
                    reads: reads.into_iter().chain(order).collect(),
                    // Half the rules only notify.
                    writes: if notify {
                        BTreeSet::new()
                    } else {
                        writes.into_iter().collect()
                    },
                    impure_action_values: flags & 4 != 0,
                })
            })
    }

    fn recorder_writes(name: &str) -> [Resource; 2] {
        [
            Resource::Relation(format!("__EXECUTED_{name}")),
            Resource::Event("rule_execute".into()),
        ]
    }

    // ---- the same property through the rule manager --------------------------

    /// What a generated rule's condition looks at.
    #[derive(Debug, Clone, Copy)]
    enum Cond {
        /// `x<j>() > 3` — data only.
        Plain(usize),
        /// … `and lasttime(x<j>() <= 3)` — order-sensitive.
        Edge(usize),
        /// `@e<j>` — an event, order-sensitive.
        Event(usize),
        /// `time > 5` — the clock, order-sensitive.
        Clock,
        /// `executed(r<k>, t) and x<j>() > 3`, `k` modulo the rules so
        /// far: promotes `r<k>` to a recorder.
        Executed(usize, usize),
    }

    #[derive(Debug, Clone, Copy)]
    enum Act {
        Notify,
        /// Notify, recording into the rule's own `executed` relation.
        Record,
        /// `X<j> := 1` — may feed another rule's condition, or its own.
        Set(usize),
        /// `X<j> := x0() + 1` — an impure value.
        SetImpure(usize),
    }

    const ITEMS: usize = 4;

    fn spec() -> impl Strategy<Value = (Cond, Act, bool)> {
        let cond = prop_oneof![
            (0..ITEMS).prop_map(Cond::Plain),
            (0..ITEMS).prop_map(Cond::Plain),
            (0..ITEMS).prop_map(Cond::Edge),
            (0..ITEMS).prop_map(Cond::Event),
            Just(Cond::Clock),
            (0usize..64, 0..ITEMS).prop_map(|(k, j)| Cond::Executed(k, j)),
        ];
        let act = prop_oneof![
            Just(Act::Notify),
            Just(Act::Notify),
            Just(Act::Notify),
            Just(Act::Record),
            (0..ITEMS + 2).prop_map(Act::Set),
            (0..ITEMS + 2).prop_map(Act::SetImpure),
        ];
        // One rule in eight is level-triggered.
        (cond, act, (0u8..8).prop_map(|l| l == 0))
    }

    /// A random catalog. Cycles are easy to hit, so `Exact` and
    /// `Stratified` are not left to chance: one catalog in eight only
    /// notifies, and two more in eight are acyclic. In an acyclic catalog
    /// data writes land on `X4`/`X5`, which no condition reads, no rule
    /// references `executed`, and every writer has a plain, edge-triggered
    /// condition (a writer that reads the state order cycles through it).
    fn catalog() -> impl Strategy<Value = Vec<(Cond, Act, bool)>> {
        let acyclic = |(cond, act, level): (Cond, Act, bool)| {
            let plain = match cond {
                Cond::Plain(j) | Cond::Edge(j) | Cond::Event(j) | Cond::Executed(_, j) => {
                    Cond::Plain(j)
                }
                Cond::Clock => Cond::Plain(0),
            };
            match act {
                Act::Notify if matches!(cond, Cond::Executed(..)) => (plain, act, level),
                Act::Notify => (cond, act, level),
                Act::Record => (plain, act, false),
                Act::Set(j) => (plain, Act::Set(ITEMS + j % 2), false),
                Act::SetImpure(j) => (plain, Act::SetImpure(ITEMS + j % 2), false),
            }
        };
        (proptest::collection::vec(spec(), 1..14), 0u8..8).prop_map(move |(specs, mode)| {
            let specs = specs.into_iter();
            match mode {
                0 => specs
                    .map(acyclic)
                    .map(|(c, _, l)| (c, Act::Notify, l))
                    .collect(),
                1 | 2 => specs.map(acyclic).collect(),
                _ => specs.collect(),
            }
        })
    }

    fn database() -> Database {
        let mut db = Database::new();
        for j in 0..ITEMS + 2 {
            db.set_item(format!("X{j}"), Value::Int(0));
            db.define_query(
                format!("x{j}"),
                QueryDef::new(0, Query::item(format!("X{j}"))),
            );
        }
        db
    }

    /// The rule for one spec, plus what its condition reads (queries and
    /// the items and relations behind them, events, the clock, state order)
    /// and the earlier rule it references, if any.
    fn build(i: usize, (cond, act, level): (Cond, Act, bool)) -> (Rule, ReadSet, Option<usize>) {
        let mut reads = Vec::new();
        let mut target = None;
        let item = |j: usize| {
            [
                Resource::Query(format!("x{j}")),
                Resource::Item(format!("X{j}")),
            ]
        };
        let src = match cond {
            Cond::Plain(j) => {
                reads.extend(item(j));
                format!("x{j}() > 3")
            }
            Cond::Edge(j) => {
                reads.extend(item(j));
                reads.push(Resource::Order);
                format!("x{j}() > 3 and lasttime(x{j}() <= 3)")
            }
            Cond::Event(j) => {
                reads.extend([Resource::Event(format!("e{j}")), Resource::Order]);
                format!("@e{j}")
            }
            Cond::Clock => {
                reads.extend([Resource::Clock, Resource::Order]);
                "time > 5".to_string()
            }
            Cond::Executed(k, j) if i > 0 => {
                let k = k % i;
                target = Some(k);
                reads.extend(item(j));
                reads.push(Resource::Query(executed_query_name(&format!("r{k}"))));
                reads.push(Resource::Relation(format!("__EXECUTED_r{k}")));
                format!("executed(r{k}, t) and x{j}() > 3")
            }
            Cond::Executed(_, j) => {
                reads.extend(item(j));
                format!("x{j}() > 3")
            }
        };
        let set = |j: usize, value: Term| {
            Action::DbOps(vec![ActionOp::SetItem {
                item: format!("X{j}"),
                value,
            }])
        };
        let action = match act {
            Act::Notify | Act::Record => Action::Notify,
            Act::Set(j) => set(j, Term::lit(1i64)),
            Act::SetImpure(j) => set(j, temporal_adb::ptl::parse_term("x0() + 1").unwrap()),
        };
        let mut rule = Rule::trigger(format!("r{i}"), parse_formula(&src).unwrap(), action);
        if matches!(act, Act::Record) {
            rule = rule.recording_executed();
        }
        if level {
            rule = rule.level_triggered();
            reads.push(Resource::Order);
        }
        (rule, reads.into_iter().collect(), target)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// After every `add` and `promote` the maintained certificate and
        /// the explanation built from the graph equal a from-scratch
        /// all-pairs certification of the catalog so far.
        #[test]
        fn maintained_certificate_equals_all_pairs_after_every_step(
            steps in proptest::collection::vec(step(), 1..24),
        ) {
            let mut graph = CascadeGraph::new();
            let mut catalog: Vec<BatchRule> = Vec::new();
            for step in steps {
                match step {
                    Step::Add(mut rule) => {
                        rule.name = format!("r{}", catalog.len());
                        prop_assert_eq!(graph.add(rule.clone()), catalog.len());
                        catalog.push(rule);
                    }
                    Step::Promote(_) if catalog.is_empty() => continue,
                    Step::Promote(k) => {
                        let k = k % catalog.len();
                        let was_writer = is_writer(&catalog[k]);
                        let writes = recorder_writes(&catalog[k].name);
                        catalog[k].writes.extend(writes.clone());
                        prop_assert_eq!(graph.promote(k, writes), !was_writer);
                    }
                }
                let want = all_pairs(&catalog);
                prop_assert_eq!(graph.certificate(), want.certificate, "{:?}", &catalog);
                prop_assert_eq!(graph.explain(), want, "{:?}", &catalog);
            }
        }
    }

    /// The same through `RuleManager::register`: after every prefix of
    /// a random catalog — notify, recording and data-writing actions;
    /// plain and order-sensitive conditions; `executed` references
    /// promoting earlier rules — the manager's maintained certificate and
    /// explanation equal what the whole-rule-set verifier certifies from
    /// scratch over the live catalog, and its fences are the union of the
    /// writers' read sets. The 96 catalogs must between them end in every
    /// certificate class, so none of the three goes unchecked.
    #[test]
    fn registration_keeps_certificate_and_fences_current() {
        const CASES: u32 = 96;
        let name = "registration_keeps_certificate_and_fences_current";
        let mut rng = TestRng::seeded(&format!("{}::{name}", module_path!()));
        let catalogs = catalog();
        // Catalogs ending Exact / Stratified / CascadeRequired.
        let mut classes = [0u32; 3];
        for case in 0..CASES {
            let specs = catalogs.new_value(&mut rng);
            proptest::run_case(name, case, specs, |specs| {
                let class = match check_registration(specs) {
                    BatchCertificate::Exact => 0,
                    BatchCertificate::Stratified { .. } => 1,
                    BatchCertificate::CascadeRequired => 2,
                };
                classes[class] += 1;
            });
        }
        assert!(
            classes.iter().all(|&n| n > 0),
            "exact / stratified / cascade-required catalogs: {classes:?}"
        );
    }

    /// Registers `specs` one by one, checking the maintained certificate,
    /// explanation and fences after each; returns the final certificate.
    fn check_registration(specs: Vec<(Cond, Act, bool)>) -> BatchCertificate {
        let mut db = database();
        let mut manager = RuleManager::new(ManagerConfig::default());
        let mut reads: Vec<ReadSet> = Vec::new();
        let mut writer: Vec<bool> = Vec::new();
        for (i, spec) in specs.into_iter().enumerate() {
            let (rule, r, target) = build(i, spec);
            manager.register(rule, &mut db, None).unwrap();
            reads.push(r);
            writer.push(!matches!(spec.1, Act::Notify));
            if let Some(k) = target {
                writer[k] = true;
            }

            let scratch = manager.lint_rule_set(&db).batch_safety.unwrap();
            assert_eq!(manager.batch_certificate(), scratch.certificate);
            assert_eq!(manager.batch_safety(), scratch);

            let mut fences = WriterFences::default();
            for (r, _) in reads.iter().zip(&writer).filter(|(_, &w)| w) {
                fences.any = true;
                fences.reads.union(r);
            }
            assert_eq!(manager.writer_fences(), &fences);
        }
        manager.batch_certificate()
    }
}

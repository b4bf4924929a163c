//! Delta-driven dispatch is the only dispatch: an advance re-evaluates only
//! the atoms a state's delta touches and keeps the others, and that must be
//! observationally invisible. These tests pin the firing sequence (order
//! included) to the naive full-history oracle of `tdb_baseline`, the
//! commit/abort pattern and final database to their closed form, and every
//! rule's formula states — where no atom captures a snapshot — to an
//! evaluator that evaluates every atom, with §8 relevance filtering both off
//! and on, with items written outside any state, and across a WAL
//! crash/recover cut.

use proptest::prelude::*;

use temporal_adb::baseline::naive_firings;
use temporal_adb::core::{
    Action, ActiveDatabase, FiringRecord, IncrementalEvaluator, ManagerConfig, Rule, RuleKind,
    SharedMemorySink,
};
use temporal_adb::engine::event::names;
use temporal_adb::engine::{Event, EventSet, SystemState, WriteOp, TIME_ITEM};
use temporal_adb::ptl::{analyze, parse_formula};
use temporal_adb::relation::{
    parse_query, tuple, Database, Query, QueryDef, Relation, Schema, Tuple, Value,
};

const ITEMS: usize = 4;
const RELATIONS: usize = 3;
/// Rows (`a`, `b`) of the two-column relation `S(name, price)`.
const NAMES: [&str; 2] = ["a", "b"];

/// One step of a generated workload.
#[derive(Debug, Clone)]
enum Step {
    /// Set scalar watch item `w<i>` in a transaction (per-item delta).
    SetItem {
        item: usize,
        value: i64,
    },
    /// Set `w<i>` outside any state: no transaction, no state of its own;
    /// the next state's delta carries it.
    SetItemOutside {
        item: usize,
        value: i64,
    },
    /// Replace base relation `W<j>`'s single row (per-relation delta).
    SetRow {
        rel: usize,
        value: i64,
    },
    /// Reprice one row of `S` (read through a free-variable query).
    SetPrice {
        name: usize,
        value: i64,
    },
    /// Raise `@login("X")` / `@logout("X")` (event delta).
    Login,
    Logout,
    /// Raise `@mark`, which restarts the catalog's running average.
    Mark,
    /// Write `w<item>`, `W<rel>`'s row and one price of `S`, in one
    /// transaction, to the values they already hold: every atom kind is
    /// touched, and none moves.
    Rewrite {
        item: usize,
        rel: usize,
        name: usize,
    },
    /// Advance the clock without touching data (empty delta).
    Tick,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..ITEMS, 80i64..125).prop_map(|(item, value)| Step::SetItem { item, value }),
        (0..ITEMS, 80i64..125).prop_map(|(item, value)| Step::SetItemOutside { item, value }),
        (0..RELATIONS, 80i64..125).prop_map(|(rel, value)| Step::SetRow { rel, value }),
        (0..NAMES.len(), 80i64..125).prop_map(|(name, value)| Step::SetPrice { name, value }),
        Just(Step::Login),
        Just(Step::Logout),
        Just(Step::Mark),
        (0..ITEMS, 0..RELATIONS, 0..NAMES.len()).prop_map(|(item, rel, name)| Step::Rewrite {
            item,
            rel,
            name
        }),
        Just(Step::Tick),
    ]
}

fn base_db() -> Database {
    let mut db = Database::new();
    for i in 0..ITEMS {
        let item = format!("w{i}");
        db.set_item(item.clone(), Value::Int(0));
        db.define_query(format!("w{i}_q"), QueryDef::new(0, Query::item(item)));
    }
    for j in 0..RELATIONS {
        db.create_relation(
            format!("W{j}"),
            Relation::from_rows(Schema::untyped(&["v"]), vec![tuple![0i64]]).unwrap(),
        )
        .unwrap();
        db.define_query(
            format!("r{j}_q"),
            QueryDef::new(0, parse_query(&format!("select v from W{j}")).unwrap()),
        );
    }
    let rows: Vec<_> = NAMES.iter().map(|n| tuple![*n, 0i64]).collect();
    db.create_relation(
        "S",
        Relation::from_rows(Schema::untyped(&["name", "price"]), rows).unwrap(),
    )
    .unwrap();
    db.define_query(
        "s_names",
        QueryDef::new(0, parse_query("select name from S").unwrap()),
    );
    db.define_query("now_q", QueryDef::new(0, Query::item(TIME_ITEM)));
    db.define_query(
        "s_price",
        QueryDef::new(
            1,
            parse_query("select price from S where name = $0").unwrap(),
        ),
    );
    db
}

/// Catalog mixing every read-set shape the index classifies: item readers,
/// relation readers, event-driven `since` chains, clock windows (which a
/// clock-only state reaches as a sparse step or a fixpoint skip), the clock
/// read through a query over the `time` item, an
/// integrity constraint (gate path), and per atom: a query
/// over a free variable (a snapshot), an assignment that reads data — also
/// data no atom of its rule reads — and an event atom beside a data atom. Plus `eval_fanout`'s running average,
/// whose sampling formula holds at states the delta misses.
fn catalog() -> Vec<Rule> {
    let mut rules = Vec::new();
    for i in 0..ITEMS {
        rules.push(Rule::trigger(
            format!("iw{i}"),
            parse_formula(&format!("w{i}_q() > 100 and previously(w{i}_q() <= 100)")).unwrap(),
            Action::Notify,
        ));
    }
    for j in 0..RELATIONS {
        rules.push(Rule::trigger(
            format!("rw{j}"),
            parse_formula(&format!("lasttime(r{j}_q() <= 100) and r{j}_q() > 100")).unwrap(),
            Action::Notify,
        ));
    }
    rules.push(Rule::trigger(
        "session",
        parse_formula("not @logout(\"X\") since @login(\"X\")").unwrap(),
        Action::Notify,
    ));
    rules.push(Rule::trigger(
        "recent_high",
        parse_formula("[t := time] previously(w0_q() >= 110 and time >= t - 5)").unwrap(),
        Action::Notify,
    ));
    rules.push(Rule::constraint(
        "cap0",
        parse_formula("w0_q() > 118").unwrap(),
    ));
    rules.push(Rule::trigger(
        SNAPSHOT_RULE,
        parse_formula("x in s_names() and s_price(x) > 100").unwrap(),
        Action::Notify,
    ));
    rules.push(Rule::trigger(
        "w0_rise",
        parse_formula("[x := w0_q()] lasttime(w0_q() < x)").unwrap(),
        Action::Notify,
    ));
    rules.push(Rule::trigger(
        "w1_over_w0",
        parse_formula("[x := w1_q()] lasttime(w0_q() < x)").unwrap(),
        Action::Notify,
    ));
    rules.push(Rule::trigger(
        "login_high",
        parse_formula("@login(\"X\") and w1_q() > 100").unwrap(),
        Action::Notify,
    ));
    rules.push(Rule::trigger(
        "r1_window",
        parse_formula("[t := time] previously(r1_q() > 110 and time >= t - 3)").unwrap(),
        Action::Notify,
    ));
    rules.push(Rule::trigger(
        "now_40",
        parse_formula("now_q() >= 40 and lasttime(now_q() < 40)").unwrap(),
        Action::Notify,
    ));
    rules.push(Rule::trigger(
        "w0_mean",
        parse_formula("avg(w0_q(); @mark; w0_q() >= 0) > 60").unwrap(),
        Action::Notify,
    ));
    rules
}

/// The catalog's one rule with a snapshot-capturing atom: its formula
/// states name the states its atoms were evaluated at, so only firings (not
/// formula states) are comparable against an evaluator that evaluates
/// every atom.
const SNAPSHOT_RULE: &str = "s_price_high";

fn config(relevance_filtering: bool) -> ManagerConfig {
    ManagerConfig {
        relevance_filtering,
        ..Default::default()
    }
}

fn build(cfg: ManagerConfig) -> ActiveDatabase {
    let mut adb = ActiveDatabase::with_config(base_db(), cfg);
    for r in catalog() {
        adb.add_rule(r).unwrap();
    }
    adb
}

/// The one row of `relation` whose first column is `key`, or its only
/// row.
fn row(adb: &ActiveDatabase, relation: &str, key: Option<&str>) -> Tuple {
    let rel = adb.db().relation(relation).unwrap();
    let mut rows = rel.iter();
    rows.find(|t| key.is_none_or(|k| t.get(0) == Some(&Value::str(k))))
        .cloned()
        .unwrap()
}

fn apply(adb: &mut ActiveDatabase, s: &Step) -> bool {
    adb.advance_clock(1).unwrap();
    match s {
        Step::SetItem { item, value } => adb
            .update([WriteOp::SetItem {
                item: format!("w{item}"),
                value: Value::Int(*value),
            }])
            .is_ok(),
        Step::SetItemOutside { item, value } => {
            adb.set_item(format!("w{item}"), Value::Int(*value)).is_ok()
        }
        Step::SetPrice { name, value } => {
            let old = row(adb, "S", Some(NAMES[*name]));
            adb.update([
                WriteOp::Delete {
                    relation: "S".into(),
                    tuple: old,
                },
                WriteOp::Insert {
                    relation: "S".into(),
                    tuple: tuple![NAMES[*name], *value],
                },
            ])
            .is_ok()
        }
        Step::SetRow { rel, value } => {
            let name = format!("W{rel}");
            let old = row(adb, &name, None);
            adb.update([
                WriteOp::Delete {
                    relation: name.clone(),
                    tuple: old,
                },
                WriteOp::Insert {
                    relation: name,
                    tuple: tuple![*value],
                },
            ])
            .is_ok()
        }
        Step::Login => adb.emit(Event::new("login", vec![Value::str("X")])).is_ok(),
        Step::Logout => adb
            .emit(Event::new("logout", vec![Value::str("X")]))
            .is_ok(),
        Step::Mark => adb.emit(Event::simple("mark")).is_ok(),
        Step::Rewrite { item, rel, name } => {
            let item = format!("w{item}");
            let value = adb.db().item(&item).unwrap();
            let rel = format!("W{rel}");
            let mut ops = vec![WriteOp::SetItem { item, value }];
            for (relation, tuple) in [
                (rel.clone(), row(adb, &rel, None)),
                ("S".into(), row(adb, "S", Some(NAMES[*name]))),
            ] {
                ops.push(WriteOp::Delete {
                    relation: relation.clone(),
                    tuple: tuple.clone(),
                });
                ops.push(WriteOp::Insert { relation, tuple });
            }
            adb.update(ops).is_ok()
        }
        Step::Tick => adb.tick().is_ok(),
    }
}

/// The values a run leaves in the items, the `W<j>` rows and the prices.
type Finals = ([i64; ITEMS], [i64; RELATIONS], [i64; 2]);

/// The closed form of a run: which steps commit, and the items and rows
/// the database ends with. Only `cap0` vetoes, and it vetoes exactly the
/// updates after which `w0 > 118` fails; out-of-state writes are never
/// gated.
fn closed_form(steps: &[Step]) -> (Vec<bool>, Finals) {
    let (mut items, mut rows, mut prices) = ([0i64; ITEMS], [0i64; RELATIONS], [0i64; 2]);
    let commits = steps
        .iter()
        .map(|s| match *s {
            Step::SetItem { item, value } => {
                let ok = if item == 0 { value } else { items[0] } > 118;
                if ok {
                    items[item] = value;
                }
                ok
            }
            Step::SetRow { rel, value } => {
                let ok = items[0] > 118;
                if ok {
                    rows[rel] = value;
                }
                ok
            }
            Step::SetPrice { name, value } => {
                let ok = items[0] > 118;
                if ok {
                    prices[name] = value;
                }
                ok
            }
            Step::SetItemOutside { item, value } => {
                items[item] = value;
                true
            }
            Step::Rewrite { .. } => items[0] > 118,
            Step::Login | Step::Logout | Step::Mark | Step::Tick => true,
        })
        .collect();
    (commits, (items, rows, prices))
}

/// Section 8 relevance, by the paper's definition: a rule is considered at
/// a state where one of its events occurs, where an `update` names data
/// its queries read, or — for a clock reader (one that assigns `time`, or
/// whose queries read the `time` item) — where the clock ticks.
fn relevant(rule: &Rule, s: &SystemState) -> bool {
    let a = analyze(&rule.condition).unwrap();
    let data: Vec<String> = a
        .query_names
        .iter()
        .flat_map(|q| s.db().query_def(q).unwrap().body.dependencies())
        .collect();
    let updated = |t: &str| data.iter().any(|d| d == t);
    s.events()
        .iter()
        .any(|e| a.event_names.iter().any(|n| n == e.name()))
        || s.events().named(names::UPDATE).any(|e| {
            e.args()
                .first()
                .and_then(|v| v.as_str())
                .is_some_and(updated)
        })
        || ((!a.time_vars.is_empty() || updated(TIME_ITEM))
            && s.events().has_named(names::CLOCK_TICK))
}

/// Checks a finished run against the naive oracle and the closed form.
fn check(adb: &ActiveDatabase, steps: &[Step], commits: &[bool], relevance: bool) {
    let triggers: Vec<Rule> = catalog()
        .into_iter()
        .filter(|r| r.kind == RuleKind::Trigger)
        .collect();
    let expected = if relevance {
        naive_firings(&triggers, adb.history(), relevant)
    } else {
        naive_firings(&triggers, adb.history(), |_, _| true)
    }
    .unwrap();
    let (fired, vetoes): (Vec<FiringRecord>, Vec<FiringRecord>) = adb
        .firings()
        .iter()
        .cloned()
        .partition(|f| f.rule != "cap0");
    assert_eq!(fired, expected, "firings diverge (relevance={relevance})");

    let (want, (items, rows, prices)) = closed_form(steps);
    assert_eq!(commits, want, "commits diverge (relevance={relevance})");
    let aborts = commits.iter().filter(|&&ok| !ok).count();
    assert_eq!(vetoes.len(), aborts, "one cap0 violation per abort");
    for (i, v) in items.iter().enumerate() {
        assert_eq!(adb.db().item(&format!("w{i}")).unwrap(), Value::Int(*v));
    }
    for (j, v) in rows.iter().enumerate() {
        let rel = adb.db().relation(&format!("W{j}")).unwrap();
        assert_eq!(rel.iter().cloned().collect::<Vec<_>>(), vec![tuple![*v]]);
    }
    let s = adb.db().relation("S").unwrap();
    let want: Vec<_> = NAMES
        .iter()
        .zip(prices)
        .map(|(n, p)| tuple![*n, p])
        .collect();
    assert_eq!(s.iter().cloned().collect::<Vec<_>>(), want);
}

/// Beside a run: one evaluator per trigger without a snapshot-capturing
/// atom, compiled against the catalog as registration compiles it (so it
/// knows its dead slots: clock atoms no `lasttime` reads back, which both
/// sides export as `false`), primed as registration primes it and then
/// advanced with no delta — every atom evaluated — over the states
/// dispatch showed the rule.
struct FullMirror {
    relevance: bool,
    rules: Vec<(Rule, IncrementalEvaluator)>,
    /// The next history index to feed.
    next: usize,
}

impl FullMirror {
    /// Call right after the catalog registered on `adb`.
    fn new(adb: &ActiveDatabase, relevance: bool) -> FullMirror {
        let idx = adb.history().last_index().unwrap();
        let prime = SystemState::new(
            adb.db().clone(),
            EventSet::new(),
            adb.history().last().unwrap().time(),
        );
        let rules = catalog()
            .into_iter()
            .filter(|r| r.kind == RuleKind::Trigger && r.name != SNAPSHOT_RULE)
            .map(|r| {
                // In the tenant's context: where the mirror's `Since`
                // operands are the manager's at a state, the computed
                // table answers its step (with debug assertions, checked
                // against a fresh computation).
                let mut ev = IncrementalEvaluator::new_for_catalog(
                    &r.firing_condition(),
                    ManagerConfig::default().eval,
                    adb.eval_context(),
                    adb.db(),
                )
                .unwrap();
                ev.advance(&prime, idx).unwrap();
                (r, ev)
            })
            .collect();
        FullMirror {
            relevance,
            rules,
            next: idx + 1,
        }
    }

    /// Feeds the states dispatched since the last call and compares every
    /// rule's formula states with the manager's.
    fn check(&mut self, adb: &ActiveDatabase) {
        let snap = adb.snapshot().unwrap();
        for i in self.next..snap.next_dispatch {
            let s = adb.history().get(i).unwrap();
            for (rule, ev) in &mut self.rules {
                if !self.relevance || relevant(rule, s) {
                    ev.advance(s, i).unwrap();
                }
            }
        }
        self.next = snap.next_dispatch;
        for (rule, ev) in &self.rules {
            let kept = snap.rules.iter().find(|st| st.name == rule.name).unwrap();
            assert_eq!(
                kept.evaluator,
                ev.export_state(),
                "`{}` formula states diverge before state {} (relevance={})",
                rule.name,
                self.next,
                self.relevance
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Delta dispatch never changes observable behavior, with §8 relevance
    /// filtering both off and on.
    #[test]
    fn delta_dispatch_is_observationally_identical(
        steps in proptest::collection::vec(step_strategy(), 50..200),
    ) {
        for relevance in [false, true] {
            let mut adb = build(config(relevance));
            let mut mirror = FullMirror::new(&adb, relevance);
            let commits: Vec<bool> = steps
                .iter()
                .map(|s| {
                    let ok = apply(&mut adb, s);
                    mirror.check(&adb);
                    ok
                })
                .collect();
            check(&adb, &steps, &commits, relevance);
            // Delta dispatch must actually skip work. (With §8 filtering
            // on, irrelevant rules are skipped before the delta check, so
            // only the unfiltered run pins the sparse counter.)
            if !relevance {
                prop_assert!(adb.stats().sparse_advances > 0, "{:?}", adb.stats());
            }
        }
    }
}

/// An event raised at two consecutive states and then not raised, on a
/// rule at its fixpoint: the event atom holds at both, equal to its slot
/// at the second, yet it has moved — it reverts to `false` at the next state
/// that does not raise it. Counted as unchanged, `session` would keep it
/// true there.
#[test]
fn an_event_held_at_two_states_moves_its_rule() {
    use Step::{Login, Logout, Tick};
    let steps = [
        Tick, Logout, Logout, Tick, Tick, Login, Login, Tick, Logout, Logout, Tick,
    ];
    for relevance in [false, true] {
        let mut adb = build(config(relevance));
        let mut mirror = FullMirror::new(&adb, relevance);
        let commits: Vec<bool> = (steps.iter())
            .map(|s| {
                let ok = apply(&mut adb, s);
                mirror.check(&adb);
                ok
            })
            .collect();
        check(&adb, &steps, &commits, relevance);
    }
}

/// 1000-state deterministic history, including a crash/recover cut: the
/// system is checkpointed to a WAL mid-run, "crashes", recovers from the
/// latest checkpoint + log tail, and finishes the workload — the final
/// trace must be byte-identical to an uninterrupted run, which itself
/// matches the naive oracle.
#[test]
fn thousand_state_history_survives_recovery_cut() {
    let mut rng: u64 = 0x5eed_cafe;
    let mut next = |m: usize| {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
        (rng >> 33) as usize % m
    };
    let steps: Vec<Step> = (0..1000)
        .map(|_| match next(10) {
            0..=2 => Step::SetItem {
                item: next(ITEMS),
                value: 80 + next(45) as i64,
            },
            3..=5 => Step::SetRow {
                rel: next(RELATIONS),
                value: 80 + next(45) as i64,
            },
            6 => [Step::Login, Step::Logout, Step::Mark][next(3)].clone(),
            7 => Step::SetItemOutside {
                item: next(ITEMS),
                value: 80 + next(45) as i64,
            },
            8 => Step::SetPrice {
                name: next(NAMES.len()),
                value: 80 + next(45) as i64,
            },
            _ => Step::Tick,
        })
        .collect();
    let cut = 600;

    // Reference: no WAL, no interruption.
    let mut reference = build(config(false));
    let c_ref: Vec<bool> = steps.iter().map(|s| apply(&mut reference, s)).collect();
    check(&reference, &steps, &c_ref, false);
    for r in catalog() {
        assert!(
            reference.firings().iter().any(|f| f.rule == r.name),
            "`{}` never fired: the differential signal is too weak",
            r.name
        );
    }

    // The same workload with a WAL attached; crash after `cut` steps.
    let sink = SharedMemorySink::new(50);
    let mut live =
        ActiveDatabase::with_storage(base_db(), config(false), Box::new(sink.clone())).unwrap();
    for r in catalog() {
        live.add_rule(r).unwrap();
    }
    let mut commits: Vec<bool> = steps[..cut].iter().map(|s| apply(&mut live, s)).collect();
    drop(live); // crash

    let (snap, tail) = sink
        .latest()
        .expect("a checkpoint was taken before the cut");
    assert!(
        !tail.is_empty(),
        "the cut must land past the last checkpoint"
    );
    let mut recovered = ActiveDatabase::recover(snap, &tail, config(false)).unwrap();
    commits.extend(steps[cut..].iter().map(|s| apply(&mut recovered, s)));

    assert_eq!(
        reference.firings(),
        recovered.firings(),
        "firings diverge across the cut"
    );
    assert_eq!(
        c_ref, commits,
        "commit/abort pattern diverges across the cut"
    );
    assert_eq!(reference.db(), recovered.db(), "final databases diverge");
    assert!(
        recovered.stats().sparse_advances > 0,
        "the recovered system must resume sparse dispatch"
    );
}

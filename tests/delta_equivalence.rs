//! Delta-driven dispatch is a pure optimization: rules whose read set does
//! not intersect a state's delta advance through the sparse path, and that
//! must be observationally invisible. These tests pin the firing sequence
//! (order included), commit/abort pattern, and final database of
//! delta-filtered dispatch to exhaustive dispatch — with §8 relevance
//! filtering both off and on, and across a WAL crash/recover cut.

use proptest::prelude::*;

use temporal_adb::core::{Action, ActiveDatabase, ManagerConfig, Rule, SharedMemorySink};
use temporal_adb::engine::{Event, WriteOp};
use temporal_adb::ptl::parse_formula;
use temporal_adb::relation::{
    parse_query, tuple, Database, Query, QueryDef, Relation, Schema, Value,
};

const ITEMS: usize = 4;
const RELATIONS: usize = 3;

/// One step of a generated workload.
#[derive(Debug, Clone)]
enum Step {
    /// Set scalar watch item `w<i>` (per-item delta).
    SetItem {
        item: usize,
        value: i64,
    },
    /// Replace base relation `W<j>`'s single row (per-relation delta).
    SetRow {
        rel: usize,
        value: i64,
    },
    /// Raise `@login("X")` / `@logout("X")` (event delta).
    Login,
    Logout,
    /// Advance the clock without touching data (empty delta).
    Tick,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..ITEMS, 80i64..125).prop_map(|(item, value)| Step::SetItem { item, value }),
        (0..RELATIONS, 80i64..125).prop_map(|(rel, value)| Step::SetRow { rel, value }),
        Just(Step::Login),
        Just(Step::Logout),
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
    db
}

/// Catalog mixing every read-set shape the index classifies: item readers,
/// relation readers, event-driven `since` chains, a clock user (always
/// affected), and an integrity constraint (gate path).
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
    rules
}

fn config(delta_dispatch: bool, relevance_filtering: bool) -> ManagerConfig {
    ManagerConfig {
        relevance_filtering,
        delta_dispatch,
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

fn apply(adb: &mut ActiveDatabase, s: &Step) -> bool {
    adb.advance_clock(1).unwrap();
    match s {
        Step::SetItem { item, value } => adb
            .update([WriteOp::SetItem {
                item: format!("w{item}"),
                value: Value::Int(*value),
            }])
            .is_ok(),
        Step::SetRow { rel, value } => {
            let name = format!("W{rel}");
            let old = adb
                .db()
                .relation(&name)
                .unwrap()
                .iter()
                .next()
                .cloned()
                .unwrap();
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
        Step::Tick => adb.tick().is_ok(),
    }
}

/// Full observable trace of a run.
fn run(
    adb: &mut ActiveDatabase,
    steps: &[Step],
) -> (Vec<temporal_adb::core::FiringRecord>, Vec<bool>, Database) {
    let commits: Vec<bool> = steps.iter().map(|s| apply(adb, s)).collect();
    (adb.firings().to_vec(), commits, adb.db().clone())
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
            let mut exhaustive = build(config(false, relevance));
            let mut delta = build(config(true, relevance));
            let (f_ex, c_ex, db_ex) = run(&mut exhaustive, &steps);
            let (f_d, c_d, db_d) = run(&mut delta, &steps);
            prop_assert_eq!(&f_ex, &f_d, "firings diverge (relevance={})", relevance);
            prop_assert_eq!(&c_ex, &c_d, "commits diverge (relevance={})", relevance);
            prop_assert_eq!(&db_ex, &db_d, "databases diverge (relevance={})", relevance);
            // Delta dispatch must actually skip work, not silently fall
            // back to exhaustive evaluation. (With §8 filtering on, the
            // skip path already removes irrelevant rules before the delta
            // check, so only the unfiltered run pins the sparse counters.)
            let (se, sd) = (exhaustive.stats(), delta.stats());
            prop_assert_eq!(se.sparse_advances, 0);
            if !relevance {
                prop_assert!(sd.sparse_advances > 0, "sparse path never taken: {:?}", sd);
                prop_assert!(sd.evaluations < se.evaluations);
            }
        }
    }
}

/// 1000-state deterministic history, including a crash/recover cut: the
/// delta-dispatching system is checkpointed to a WAL mid-run, "crashes",
/// recovers from the latest checkpoint + log tail, and finishes the
/// workload — the final trace must still be byte-identical to an
/// uninterrupted exhaustive run.
#[test]
fn thousand_state_history_survives_recovery_cut() {
    let mut rng: u64 = 0x5eed_cafe;
    let mut next = |m: usize| {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
        (rng >> 33) as usize % m
    };
    let steps: Vec<Step> = (0..1000)
        .map(|_| match next(8) {
            0..=2 => Step::SetItem {
                item: next(ITEMS),
                value: 80 + next(45) as i64,
            },
            3..=5 => Step::SetRow {
                rel: next(RELATIONS),
                value: 80 + next(45) as i64,
            },
            6 => {
                if next(2) == 0 {
                    Step::Login
                } else {
                    Step::Logout
                }
            }
            _ => Step::Tick,
        })
        .collect();
    let cut = 600;

    // Exhaustive reference: no deltas, no WAL, no interruption.
    let mut exhaustive = build(config(false, false));
    let (f_ex, c_ex, db_ex) = run(&mut exhaustive, &steps);

    // Delta run with a WAL attached; crash after `cut` steps.
    let sink = SharedMemorySink::new(50);
    let mut live =
        ActiveDatabase::with_storage(base_db(), config(true, false), Box::new(sink.clone()))
            .unwrap();
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
    let mut recovered =
        ActiveDatabase::recover(snap, &tail, &catalog(), config(true, false)).unwrap();
    commits.extend(steps[cut..].iter().map(|s| apply(&mut recovered, s)));

    assert_eq!(f_ex, recovered.firings(), "firings diverge across the cut");
    assert_eq!(
        c_ex, commits,
        "commit/abort pattern diverges across the cut"
    );
    assert_eq!(db_ex, *recovered.db(), "final databases diverge");
    assert!(
        recovered.stats().sparse_advances > 0,
        "the recovered system must resume sparse dispatch"
    );
}

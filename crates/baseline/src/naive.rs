//! The naive trigger detector: re-evaluate the condition from scratch, over
//! the whole retained history, on every update.
//!
//! This is the strawman Theorem 1 improves on — per-update cost grows with
//! the history length, while the incremental evaluator's does not
//! (experiment E1). Firings are identical by construction (both implement
//! the Section 4 semantics; the incremental evaluator is property-tested
//! against the same oracle).

use tdb_core::{FiringRecord, Rule};
use tdb_engine::{History, SystemState};
use tdb_ptl::{fire_bindings, Env, Formula, PtlError};

/// A full-history re-evaluation detector.
#[derive(Debug)]
pub struct NaiveDetector {
    condition: Formula,
    history: History,
}

impl NaiveDetector {
    pub fn new(condition: Formula) -> NaiveDetector {
        NaiveDetector {
            condition,
            history: History::new(),
        }
    }

    /// Number of states accumulated so far.
    pub fn states_seen(&self) -> usize {
        self.history.len()
    }

    /// Appends the new state without evaluating (used to accumulate history
    /// cheaply when only some states are measured).
    pub fn observe(&mut self, state: &SystemState) {
        self.history.push(state.clone());
    }

    /// Appends the new state and re-evaluates the condition at it, reading
    /// as much of the history as the formula requires.
    pub fn advance_and_fire(&mut self, state: &SystemState) -> Result<Vec<Env>, PtlError> {
        self.observe(state);
        self.fire_now()
    }

    /// Re-evaluates the condition at the most recent state.
    pub fn fire_now(&self) -> Result<Vec<Env>, PtlError> {
        let i = self
            .history
            .last_index()
            .expect("at least one state observed");
        fire_bindings(&self.condition, &self.history, i, &Env::new())
    }
}

/// The rule manager's firing semantics for `triggers`, replayed over
/// `history` with one [`NaiveDetector`] per rule. State 0 primes the
/// detectors (a rule registered there discards its priming firings). Every
/// later state a rule finds `relevant` is appended to its detector and
/// fires the sorted satisfying bindings — only those not already satisfied
/// at the rule's previous state, unless the rule is level-triggered. Pass
/// `|_, _| true` to replay the full history; under Section 8 relevance
/// filtering each rule sees only its relevant subhistory.
///
/// Constraints are out of scope: they gate candidate states, and a vetoed
/// candidate never enters the history.
pub fn naive_firings(
    triggers: &[Rule],
    history: &History,
    relevant: impl Fn(&Rule, &SystemState) -> bool,
) -> Result<Vec<FiringRecord>, PtlError> {
    let mut detectors: Vec<NaiveDetector> = triggers
        .iter()
        .map(|r| NaiveDetector::new(r.condition.clone()))
        .collect();
    let mut last_envs: Vec<Vec<Env>> = vec![Vec::new(); triggers.len()];
    let mut out = Vec::new();
    let mut states = history.iter();
    if let Some((_, s0)) = states.next() {
        for d in &mut detectors {
            d.observe(s0);
        }
    }
    for (idx, s) in states {
        for (k, rule) in triggers.iter().enumerate() {
            if !relevant(rule, s) {
                continue;
            }
            let mut satisfied = detectors[k].advance_and_fire(s)?;
            satisfied.sort();
            satisfied.dedup();
            for env in &satisfied {
                if rule.edge_triggered && last_envs[k].binary_search(env).is_ok() {
                    continue;
                }
                out.push(FiringRecord {
                    rule: rule.name.clone(),
                    state_index: idx,
                    time: s.time(),
                    env: env.clone(),
                });
            }
            last_envs[k] = satisfied;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_engine::{Engine, WriteOp};
    use tdb_ptl::parse_formula;
    use tdb_relation::{parse_query, tuple, Database, QueryDef, Relation, Schema, Value};

    fn stock_engine() -> Engine {
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
        Engine::new(db)
    }

    fn set_price_at(e: &mut Engine, p: i64, t: i64) {
        e.advance_clock_to(tdb_relation::Timestamp(t)).unwrap();
        let old = e.db().relation("STOCK").unwrap().iter().next().cloned();
        let mut ops = Vec::new();
        if let Some(old) = old {
            ops.push(WriteOp::Delete {
                relation: "STOCK".into(),
                tuple: old,
            });
        }
        ops.push(WriteOp::Insert {
            relation: "STOCK".into(),
            tuple: tuple!["IBM", p],
        });
        e.apply_update(ops).unwrap();
    }

    #[test]
    fn agrees_with_incremental_evaluator() {
        let f = parse_formula(
            "[t := time] [x := price(\"IBM\")] \
             previously(price(\"IBM\") <= 0.5 * x and time >= t - 10)",
        )
        .unwrap();
        let mut e = stock_engine();
        e.set_auto_tick(false);
        let mut naive = NaiveDetector::new(f.clone());
        let mut inc = tdb_core::IncrementalEvaluator::compile(&f).unwrap();
        let prices = [10, 12, 5, 11, 30, 14, 7, 20, 9, 19, 40, 8, 16];
        for (k, p) in prices.iter().enumerate() {
            set_price_at(&mut e, *p, (k as i64 + 1) * 2);
            let idx = e.history().last_index().unwrap();
            let s = e.history().get(idx).unwrap().clone();
            let a = !naive.advance_and_fire(&s).unwrap().is_empty();
            let b = !inc.advance_and_fire(&s, idx).unwrap().is_empty();
            assert_eq!(a, b, "state {idx}");
        }
        assert_eq!(naive.states_seen(), prices.len());
    }

    #[test]
    fn binding_extraction_matches() {
        let mut db = Database::new();
        db.create_relation(
            "STOCK",
            Relation::from_rows(
                Schema::untyped(&["name", "price"]),
                vec![tuple!["IBM", 350i64], tuple!["DEC", 45i64]],
            )
            .unwrap(),
        )
        .unwrap();
        db.define_query(
            "names",
            QueryDef::new(0, parse_query("select name from STOCK").unwrap()),
        );
        db.define_query(
            "price",
            QueryDef::new(
                1,
                parse_query("select price from STOCK where name = $0").unwrap(),
            ),
        );
        let e = Engine::new(db);
        let f = parse_formula("x in names() and price(x) >= 300").unwrap();
        let mut naive = NaiveDetector::new(f);
        let s = e.history().get(0).unwrap().clone();
        let envs = naive.advance_and_fire(&s).unwrap();
        assert_eq!(envs.len(), 1);
        assert_eq!(envs[0]["x"], Value::str("IBM"));
    }
}

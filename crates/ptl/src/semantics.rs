//! Reference (naive) semantics of PTL over full system histories.
//!
//! This module is the executable form of the paper's Section 4 semantics:
//! formulas are interpreted at a state index of a [`History`], with direct
//! recursion over the structure — including the temporal aggregates of
//! Section 6, evaluated straight from their definition.
//!
//! It is deliberately *not* incremental: evaluating at state `i` may read
//! every state `0..=i`. It serves as
//!
//! 1. the ground truth that the incremental evaluator (`tdb-core`) and the
//!    auxiliary-relation evaluator are property-tested against, and
//! 2. the "re-evaluate from scratch on every update" baseline of
//!    experiment E1.

use std::collections::BTreeMap;

use tdb_engine::{History, SystemState};
use tdb_relation::{eval_arith, Relation, Value};

use crate::error::{PtlError, Result};
use crate::formula::Formula;
use crate::term::{TemporalAgg, Term};

/// A variable binding environment.
pub type Env = BTreeMap<String, Value>;

/// Upper bound on the candidate-binding cross product explored by
/// [`fire_bindings`]; beyond this the formula is effectively unsafe.
const MAX_BINDING_PRODUCT: usize = 250_000;

fn state(h: &History, i: usize) -> Result<&SystemState> {
    h.get(i).ok_or(PtlError::StateEvicted(i))
}

/// Converts a query result relation to a term value: a 1x1 relation is its
/// scalar, an empty 1-column relation is `Null`, anything else is
/// relation-valued.
pub fn relation_to_value(rel: Relation) -> Value {
    if rel.schema().arity() == 1 && rel.is_empty() {
        return Value::Null;
    }
    rel.scalar_value()
        .unwrap_or_else(|_| Value::Rel(std::sync::Arc::new(rel)))
}

/// Evaluates a term at state `i` under `env`.
pub fn eval_term(t: &Term, h: &History, i: usize, env: &Env) -> Result<Value> {
    match t {
        Term::Const(v) => Ok(v.clone()),
        Term::Var(x) => env
            .get(x)
            .cloned()
            .ok_or_else(|| PtlError::UnboundVar(x.clone())),
        Term::Time => Ok(Value::Time(state(h, i)?.time())),
        Term::Arith(op, a, b) => {
            let a = eval_term(a, h, i, env)?;
            let b = eval_term(b, h, i, env)?;
            Ok(eval_arith(*op, &a, &b)?)
        }
        Term::Neg(a) => match eval_term(a, h, i, env)? {
            Value::Null => Ok(Value::Null),
            Value::Int(v) => Ok(Value::Int(-v)),
            Value::Float(v) => Ok(Value::float(-v)),
            v => Err(PtlError::TypeError(format!("cannot negate {v}"))),
        },
        Term::Abs(a) => match eval_term(a, h, i, env)? {
            Value::Null => Ok(Value::Null),
            Value::Int(v) => Ok(Value::Int(v.abs())),
            Value::Float(v) => Ok(Value::float(v.abs())),
            v => Err(PtlError::TypeError(format!("no absolute value for {v}"))),
        },
        Term::Query { name, args } => {
            let args: Vec<Value> = args
                .iter()
                .map(|a| eval_term(a, h, i, env))
                .collect::<Result<_>>()?;
            let rel = state(h, i)?.db().eval_named(name, &args)?;
            Ok(relation_to_value(rel))
        }
        Term::Agg(agg) => eval_aggregate(agg, h, i, env),
    }
}

/// Evaluates a temporal aggregate `f(q, φ, ψ)` from the Section 6
/// definition: let `j` be the latest index ≤ `i` whose prefix satisfies φ;
/// aggregate the values of `q` at every `k ∈ [j, i]` where ψ holds.
pub fn eval_aggregate(agg: &TemporalAgg, h: &History, i: usize, env: &Env) -> Result<Value> {
    let mut start = None;
    for j in (0..=i).rev() {
        if eval(&agg.start, h, j, env)? {
            start = Some(j);
            break;
        }
    }
    let mut values = Vec::new();
    if let Some(j) = start {
        for k in j..=i {
            if eval(&agg.sample, h, k, env)? {
                values.push(eval_term(&agg.query, h, k, env)?);
            }
        }
    }
    Ok(agg.func.apply(values)?)
}

/// Evaluates a formula at state `i` under `env`. Every variable the formula
/// reads must be bound — use [`fire_bindings`] for formulas with free
/// variables.
pub fn eval(f: &Formula, h: &History, i: usize, env: &Env) -> Result<bool> {
    match f {
        Formula::True => Ok(true),
        Formula::False => Ok(false),
        Formula::Cmp(op, a, b) => {
            let a = eval_term(a, h, i, env)?;
            let b = eval_term(b, h, i, env)?;
            Ok(op.eval(&a, &b))
        }
        Formula::Member { source, pattern } => {
            let args: Vec<Value> = source
                .args
                .iter()
                .map(|a| eval_term(a, h, i, env))
                .collect::<Result<_>>()?;
            let rel = state(h, i)?.db().eval_named(&source.name, &args)?;
            let pat: Vec<Value> = pattern
                .iter()
                .map(|t| eval_term(t, h, i, env))
                .collect::<Result<_>>()?;
            if rel.schema().arity() != pat.len() {
                return Err(PtlError::TypeError(format!(
                    "membership pattern arity {} does not match query `{}` arity {}",
                    pat.len(),
                    source.name,
                    rel.schema().arity()
                )));
            }
            let found = rel.iter().any(|row| row.values() == pat.as_slice());
            Ok(found)
        }
        Formula::Event { name, pattern } => {
            let pat: Vec<Value> = pattern
                .iter()
                .map(|t| eval_term(t, h, i, env))
                .collect::<Result<_>>()?;
            Ok(state(h, i)?
                .events()
                .named(name)
                .any(|e| e.args() == pat.as_slice()))
        }
        Formula::Not(g) => Ok(!eval(g, h, i, env)?),
        Formula::And(gs) => {
            for g in gs {
                if !eval(g, h, i, env)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::Or(gs) => {
            for g in gs {
                if eval(g, h, i, env)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::Since(g, hh) => {
            // g Since h at i: scanning down from i, succeed at the first
            // state satisfying h; fail as soon as g fails (no earlier
            // witness can then work).
            for j in (0..=i).rev() {
                if eval(hh, h, j, env)? {
                    return Ok(true);
                }
                if !eval(g, h, j, env)? {
                    return Ok(false);
                }
            }
            Ok(false)
        }
        Formula::Lasttime(g) => {
            if i == 0 {
                Ok(false)
            } else {
                eval(g, h, i - 1, env)
            }
        }
        Formula::Previously(g) => {
            for j in (0..=i).rev() {
                if eval(g, h, j, env)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::ThroughoutPast(g) => {
            for j in 0..=i {
                if !eval(g, h, j, env)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::Assign { var, term, body } => {
            // The assignment captures the term's value at the *current*
            // evaluation state and holds it fixed throughout the body.
            let v = eval_term(term, h, i, env)?;
            let mut env2 = env.clone();
            env2.insert(var.clone(), v);
            eval(body, h, i, &env2)
        }
    }
}

/// All bindings of the free variables of `f` that satisfy it at state `i`.
///
/// Candidates come from generator atoms (membership patterns and event
/// arguments), collected over *every* state `0..=i` — a generator may have
/// held only in the past (e.g. `Previously(x in names() and …)`). Each
/// candidate combination is then checked with [`eval`]. This is the oracle
/// for the incremental evaluator's binding extraction.
pub fn fire_bindings(f: &Formula, h: &History, i: usize, base: &Env) -> Result<Vec<Env>> {
    let free: Vec<String> = f
        .free_vars()
        .into_iter()
        .filter(|v| !base.contains_key(v))
        .collect();
    if free.is_empty() {
        return Ok(if eval(f, h, i, base)? {
            vec![base.clone()]
        } else {
            vec![]
        });
    }

    // Candidate values per free variable.
    let mut candidates: BTreeMap<String, Vec<Value>> =
        free.iter().map(|v| (v.clone(), Vec::new())).collect();
    collect_candidates(f, h, i, base, &mut candidates)?;

    let mut product = 1usize;
    for (v, c) in &mut candidates {
        c.sort();
        c.dedup();
        if c.is_empty() {
            return Ok(vec![]); // no generator ever produced a value
        }
        product = product.saturating_mul(c.len());
        if product > MAX_BINDING_PRODUCT {
            return Err(PtlError::Unsafe {
                var: v.clone(),
                reason: "candidate binding space is too large".into(),
            });
        }
    }

    let mut out = Vec::new();
    let names: Vec<&String> = candidates.keys().collect();
    let lists: Vec<&Vec<Value>> = candidates.values().collect();
    let mut idx = vec![0usize; names.len()];
    loop {
        let mut env = base.clone();
        for (k, name) in names.iter().enumerate() {
            env.insert((*name).clone(), lists[k][idx[k]].clone());
        }
        if eval(f, h, i, &env)? {
            out.push(env);
        }
        // Odometer increment.
        let mut k = 0;
        loop {
            if k == idx.len() {
                return Ok(out);
            }
            idx[k] += 1;
            if idx[k] < lists[k].len() {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
    }
}

fn collect_candidates(
    f: &Formula,
    h: &History,
    i: usize,
    env: &Env,
    candidates: &mut BTreeMap<String, Vec<Value>>,
) -> Result<()> {
    match f {
        Formula::Member { source, pattern } => {
            let args: Vec<Value> = source
                .args
                .iter()
                .map(|a| eval_term(a, h, 0, env))
                .collect::<Result<_>>()
                .map_err(|_| PtlError::NonGroundGeneratorArgs {
                    query: source.name.clone(),
                    var: "?".into(),
                })?;
            for j in 0..=i {
                let Ok(rel) = state(h, j)?.db().eval_named(&source.name, &args) else {
                    continue;
                };
                for (p, t) in pattern.iter().enumerate() {
                    if let Term::Var(v) = t {
                        if let Some(c) = candidates.get_mut(v) {
                            let pidx = p.min(rel.schema().arity().saturating_sub(1));
                            for row in rel.iter() {
                                c.push(row.values()[pidx].clone());
                            }
                        }
                    }
                }
            }
            Ok(())
        }
        Formula::Event { name, pattern } => {
            for j in 0..=i {
                for e in state(h, j)?.events().named(name) {
                    if e.args().len() != pattern.len() {
                        continue;
                    }
                    for (p, t) in pattern.iter().enumerate() {
                        if let Term::Var(v) = t {
                            if let Some(c) = candidates.get_mut(v) {
                                c.push(e.args()[p].clone());
                            }
                        }
                    }
                }
            }
            Ok(())
        }
        Formula::Not(g)
        | Formula::Lasttime(g)
        | Formula::Previously(g)
        | Formula::ThroughoutPast(g) => collect_candidates(g, h, i, env, candidates),
        Formula::And(gs) | Formula::Or(gs) => {
            for g in gs {
                collect_candidates(g, h, i, env, candidates)?;
            }
            Ok(())
        }
        Formula::Since(g, hh) => {
            collect_candidates(g, h, i, env, candidates)?;
            collect_candidates(hh, h, i, env, candidates)
        }
        Formula::Assign { body, .. } => collect_candidates(body, h, i, env, candidates),
        Formula::True | Formula::False | Formula::Cmp(..) => Ok(()),
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use crate::formula::QueryRef;
    use tdb_engine::{Engine, WriteOp};
    use tdb_relation::{parse_query, tuple, CmpOp, Database, QueryDef, Relation, Schema, Value};

    /// A tiny stock engine: relation STOCK(name, price), query price(x),
    /// query names().
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
        db.define_query(
            "names",
            QueryDef::new(0, parse_query("select name from STOCK").unwrap()),
        );
        Engine::new(db)
    }

    /// One price change = one system state (`Engine::apply_update`).
    fn set_price(e: &mut Engine, name: &str, p: i64) {
        let old = e
            .db()
            .relation("STOCK")
            .unwrap()
            .iter()
            .find_map(|t| (t.get(0) == Some(&Value::str(name))).then(|| t.clone()));
        let mut ops = Vec::new();
        if let Some(old) = old {
            ops.push(WriteOp::Delete {
                relation: "STOCK".into(),
                tuple: old,
            });
        }
        ops.push(WriteOp::Insert {
            relation: "STOCK".into(),
            tuple: tuple![name, p],
        });
        e.apply_update(ops).unwrap();
    }

    fn price_term(name: &str) -> Term {
        Term::query("price", vec![Term::lit(name)])
    }

    #[test]
    fn atoms_and_time() {
        let mut e = stock_engine();
        set_price(&mut e, "IBM", 72);
        let h = e.history();
        let i = h.last_index().unwrap();
        let env = Env::new();
        assert!(eval(
            &Formula::cmp(CmpOp::Gt, price_term("IBM"), Term::lit(50i64)),
            h,
            i,
            &env
        )
        .unwrap());
        // time at the last state is > 0 (auto-ticked).
        assert!(eval(
            &Formula::cmp(CmpOp::Gt, Term::Time, Term::lit(Value::Time(0.into()))),
            h,
            i,
            &env
        )
        .unwrap());
    }

    #[test]
    fn previously_finds_past_state() {
        let mut e = stock_engine();
        set_price(&mut e, "IBM", 72);
        set_price(&mut e, "IBM", 30);
        let h = e.history();
        let i = h.last_index().unwrap();
        let now_cheap = Formula::cmp(CmpOp::Lt, price_term("IBM"), Term::lit(50i64));
        let was_dear =
            Formula::previously(Formula::cmp(CmpOp::Gt, price_term("IBM"), Term::lit(50i64)));
        let env = Env::new();
        assert!(eval(&now_cheap, h, i, &env).unwrap());
        assert!(eval(&was_dear, h, i, &env).unwrap());
        // Previously ≡ true Since.
        let core = crate::rewrite::to_core(&was_dear);
        assert!(eval(&core, h, i, &env).unwrap());
    }

    #[test]
    fn since_requires_continuous_left_side() {
        // "price stays above 40 since it was 72": violated once price dips.
        let mut e = stock_engine();
        set_price(&mut e, "IBM", 72); // h
        set_price(&mut e, "IBM", 50); // g ok
        set_price(&mut e, "IBM", 30); // g fails
        set_price(&mut e, "IBM", 60); // g ok again — but chain broken
        let h = e.history();
        let f = Formula::since(
            Formula::cmp(CmpOp::Gt, price_term("IBM"), Term::lit(40i64)),
            Formula::cmp(CmpOp::Eq, price_term("IBM"), Term::lit(72i64)),
        );
        let env = Env::new();
        // At the state after the 50-update the condition held…
        let idx50 = h.last_index().unwrap() - 2;
        assert!(eval(&f, h, idx50, &env).unwrap());
        // …but at the end it does not (the 30-state broke the g chain).
        assert!(!eval(&f, h, h.last_index().unwrap(), &env).unwrap());
    }

    #[test]
    fn lasttime_semantics() {
        let mut e = stock_engine();
        set_price(&mut e, "IBM", 72);
        set_price(&mut e, "IBM", 30);
        let h = e.history();
        let i = h.last_index().unwrap();
        let f = Formula::lasttime(Formula::cmp(CmpOp::Eq, price_term("IBM"), Term::lit(72i64)));
        assert!(eval(&f, h, i, &Env::new()).unwrap());
        assert!(!eval(&f, h, 0, &Env::new()).unwrap());
    }

    /// The paper's worked example, exactly: f fires iff the IBM price
    /// doubled within 10 time units. History (price,time):
    /// (10,1) (15,2) (18,5) (25,8) — fires at the last state.
    #[test]
    fn ibm_doubled_paper_history_fires() {
        let f = ibm_doubled();
        let h = build_price_history(&[(10, 1), (15, 2), (18, 5), (25, 8)]);
        let env = Env::new();
        assert!(!eval(&f, &h, 1, &env).unwrap());
        assert!(!eval(&f, &h, 2, &env).unwrap());
        assert!(!eval(&f, &h, 3, &env).unwrap());
        assert!(eval(&f, &h, 4, &env).unwrap(), "25 >= 2*10 within 10 units");
    }

    /// Same formula on the optimization-section history:
    /// (10,1) (15,2) (18,5) (11,20) — never fires.
    #[test]
    fn ibm_doubled_pruned_history_does_not_fire() {
        let f = ibm_doubled();
        let h = build_price_history(&[(10, 1), (15, 2), (18, 5), (11, 20)]);
        for i in 1..=4 {
            assert!(!eval(&f, &h, i, &Env::new()).unwrap(), "state {i}");
        }
    }

    fn ibm_doubled() -> Formula {
        // [t := time][x := price(IBM)] Previously(price(IBM) <= 0.5x ∧ time >= t-10)
        Formula::assign(
            "t",
            Term::Time,
            Formula::assign(
                "x",
                price_term("IBM"),
                Formula::previously(Formula::and([
                    Formula::cmp(
                        CmpOp::Le,
                        price_term("IBM"),
                        Term::mul(Term::lit(0.5), Term::var("x")),
                    ),
                    Formula::cmp(
                        CmpOp::Ge,
                        Term::Time,
                        Term::sub(Term::var("t"), Term::lit(10i64)),
                    ),
                ])),
            ),
        )
    }

    /// Builds the paper's `(price, time)` histories: the initial state is
    /// index 0 at t0; each point is one state, so state indices match the
    /// paper's `i = 1, 2, 3, 4`.
    fn build_price_history(points: &[(i64, i64)]) -> History {
        let mut e = stock_engine();
        e.set_auto_tick(false);
        for &(p, t) in points {
            e.advance_clock_to(tdb_relation::Timestamp(t)).unwrap();
            let old = e
                .db()
                .relation("STOCK")
                .unwrap()
                .iter()
                .find_map(|tp| (tp.get(0) == Some(&Value::str("IBM"))).then(|| tp.clone()));
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
        e.history().clone()
    }

    #[test]
    fn assignment_captures_current_value() {
        // [x := price] lasttime(price < x): price rose since last state.
        let mut e = stock_engine();
        set_price(&mut e, "IBM", 10);
        set_price(&mut e, "IBM", 20);
        let h = e.history();
        let f = Formula::assign(
            "x",
            price_term("IBM"),
            Formula::lasttime(Formula::cmp(CmpOp::Lt, price_term("IBM"), Term::var("x"))),
        );
        assert!(eval(&f, h, h.last_index().unwrap(), &Env::new()).unwrap());
    }

    #[test]
    fn event_atoms_match_by_name_and_args() {
        let mut e = stock_engine();
        e.emit_event(tdb_engine::Event::new("login", vec![Value::str("alice")]))
            .unwrap();
        let h = e.history();
        let i = h.last_index().unwrap();
        let hit = Formula::event("login", vec![Term::lit("alice")]);
        let miss = Formula::event("login", vec![Term::lit("bob")]);
        assert!(eval(&hit, h, i, &Env::new()).unwrap());
        assert!(!eval(&miss, h, i, &Env::new()).unwrap());
    }

    #[test]
    fn fire_bindings_enumerates_generator_values() {
        let mut e = stock_engine();
        set_price(&mut e, "IBM", 350);
        set_price(&mut e, "DEC", 45);
        set_price(&mut e, "HP", 310);
        let h = e.history();
        let i = h.last_index().unwrap();
        // x in names() and price(x) >= 300 — fires for IBM and HP.
        let f = Formula::and([
            Formula::member(QueryRef::new("names", vec![]), vec![Term::var("x")]),
            Formula::cmp(
                CmpOp::Ge,
                Term::query("price", vec![Term::var("x")]),
                Term::lit(300i64),
            ),
        ]);
        let fired = fire_bindings(&f, h, i, &Env::new()).unwrap();
        let names: Vec<_> = fired.iter().map(|env| env["x"].clone()).collect();
        assert_eq!(names, vec![Value::str("HP"), Value::str("IBM")]);
    }

    #[test]
    fn fire_bindings_sees_past_generators() {
        let mut e = stock_engine();
        e.emit_event(tdb_engine::Event::new("login", vec![Value::str("alice")]))
            .unwrap();
        e.emit_event(tdb_engine::Event::simple("tick")).unwrap();
        let h = e.history();
        let i = h.last_index().unwrap();
        // previously @login(u): u bound from a past state.
        let f = Formula::previously(Formula::event("login", vec![Term::var("u")]));
        let fired = fire_bindings(&f, h, i, &Env::new()).unwrap();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0]["u"], Value::str("alice"));
    }

    #[test]
    fn aggregate_sum_from_definition() {
        let mut e = stock_engine();
        set_price(&mut e, "IBM", 10);
        set_price(&mut e, "IBM", 20);
        set_price(&mut e, "IBM", 30);
        let h = e.history();
        let i = h.last_index().unwrap();
        // start: the very first state (time = t0); sample: price defined & > 0.
        let agg = Term::agg(
            tdb_relation::AggFunc::Sum,
            price_term("IBM"),
            Formula::cmp(CmpOp::Eq, Term::Time, Term::lit(Value::Time(0.into()))),
            Formula::cmp(CmpOp::Gt, price_term("IBM"), Term::lit(0i64)),
        );
        let v = eval_term(&agg, h, i, &Env::new()).unwrap();
        // States: init (no price), then one state per update: 10, 20, 30.
        assert_eq!(v, Value::Int(60));
    }

    #[test]
    fn aggregate_respects_start_reset() {
        let mut e = stock_engine();
        set_price(&mut e, "IBM", 10);
        set_price(&mut e, "IBM", 20);
        let h = e.history();
        let i = h.last_index().unwrap();
        // start: price = 20 (the most recent commit). Only that state samples.
        let agg = Term::agg(
            tdb_relation::AggFunc::Count,
            price_term("IBM"),
            Formula::cmp(CmpOp::Eq, price_term("IBM"), Term::lit(20i64)),
            Formula::cmp(CmpOp::Gt, price_term("IBM"), Term::lit(0i64)),
        );
        assert_eq!(eval_term(&agg, h, i, &Env::new()).unwrap(), Value::Int(1));
    }

    #[test]
    fn unbound_var_errors() {
        let e = stock_engine();
        let f = Formula::cmp(CmpOp::Gt, Term::var("x"), Term::lit(1i64));
        assert_eq!(
            eval(&f, e.history(), 0, &Env::new()).unwrap_err(),
            PtlError::UnboundVar("x".into())
        );
    }
}

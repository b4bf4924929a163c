//! The auxiliary-relation evaluation strategy (Section 5, "Implementation
//! Using Auxiliary Relations") — the approach of the paper's Sybase
//! prototype (ref. 8) and of the rule-translation literature (ref. 38).
//!
//! For every database query `q` a bound variable is assigned to, keep an
//! auxiliary relation `R_x` whose tuples are the rows of `q` extended with
//! a validity interval `[T_start, T_end)`; `T_end = MAX` marks the current
//! version. "The value of the query q at any previous time can be retrieved
//! by performing a selection, followed by a projection, on `R_x`."
//!
//! [`AuxEvaluator`] uses these timestamped stores to evaluate a *decomposable*
//! fragment of PTL directly, without residual formulas: closed conditions
//! whose atoms compare scalar query values (possibly across time via
//! assignment) — enough for the worked examples of the paper. Rows whose
//! validity interval can no longer matter (bounded operators) are vacuumed,
//! which is the paper's "determines which information to save, and for how
//! long". It is a paper-fidelity comparator for the formula-state strategy
//! (experiment E10), not part of the active database.

use std::collections::BTreeMap;

use tdb_engine::SystemState;
use tdb_ptl::{Formula, Term};
use tdb_relation::{Timestamp, Value};

use tdb_core::{CoreError, Result};

/// One timestamped version of a query value.
#[derive(Debug, Clone, PartialEq)]
struct VersionRow {
    value: Value,
    t_start: Timestamp,
    /// `Timestamp::MAX` while current.
    t_end: Timestamp,
}

/// The auxiliary relation `R_x` for one scalar query: its value over time.
#[derive(Debug, Clone, Default)]
pub struct AuxRelation {
    rows: Vec<VersionRow>,
}

impl AuxRelation {
    /// Records the query's value at time `t` (closing the current version
    /// if the value changed).
    fn record(&mut self, v: Value, t: Timestamp) {
        if let Some(last) = self.rows.last_mut() {
            if last.value == v {
                return;
            }
            last.t_end = t;
        }
        self.rows.push(VersionRow {
            value: v,
            t_start: t,
            t_end: Timestamp::MAX,
        });
    }

    /// Selection by timestamp: the value valid at time `t`.
    pub fn value_at(&self, t: Timestamp) -> Value {
        let i = self.rows.partition_point(|r| r.t_start <= t);
        if i == 0 {
            return Value::Null;
        }
        let row = &self.rows[i - 1];
        if t < row.t_end {
            row.value.clone()
        } else {
            Value::Null
        }
    }

    /// Number of retained versions (experiment E10 metric).
    pub fn versions(&self) -> usize {
        self.rows.len()
    }

    /// Drops versions that ended before `horizon` (bounded-operator vacuum).
    fn vacuum(&mut self, horizon: Timestamp) {
        self.rows.retain(|r| r.t_end > horizon);
    }
}

/// Which instants an evaluation visits: the evaluator walks timestamps of
/// recorded states, so it keeps the list of state times seen.
#[derive(Debug, Default, Clone)]
struct Timeline {
    times: Vec<Timestamp>,
}

/// The decomposable-formula evaluator over auxiliary relations.
#[derive(Debug)]
pub struct AuxEvaluator {
    condition: Formula,
    /// Auxiliary relation per scalar query key (`name(args…)`), recorded at
    /// every processed state.
    aux: BTreeMap<String, AuxRelation>,
    /// How to evaluate each tracked query against a state.
    specs: BTreeMap<String, QuerySpec>,
    timeline: Timeline,
    /// Keep only this much past, in clock units (None = unbounded). Set it
    /// to the condition's bound for bounded operators.
    horizon: Option<i64>,
}

impl AuxEvaluator {
    /// Builds an evaluator for a closed condition. Returns an error if the
    /// condition is not decomposable (free variables, membership atoms or
    /// aggregates).
    pub fn new(condition: Formula, horizon: Option<i64>) -> Result<AuxEvaluator> {
        if !condition.free_vars().is_empty() {
            return Err(CoreError::Ptl(tdb_ptl::PtlError::TypeError(
                "aux-relation evaluator handles closed conditions only".into(),
            )));
        }
        let mut decomposable = true;
        condition.visit(&mut |g| {
            if matches!(g, Formula::Member { .. }) {
                decomposable = false;
            }
        });
        if !decomposable {
            return Err(CoreError::Ptl(tdb_ptl::PtlError::TypeError(
                "membership atoms are not decomposable".into(),
            )));
        }
        let mut keys = Vec::new();
        collect_query_keys(&condition, &mut keys)?;
        let aux = keys
            .iter()
            .map(|(k, _)| (k.clone(), AuxRelation::default()))
            .collect();
        let specs = keys.into_iter().collect();
        Ok(AuxEvaluator {
            condition,
            aux,
            specs,
            timeline: Timeline::default(),
            horizon,
        })
    }

    /// Total retained versions across all auxiliary relations.
    pub fn retained_versions(&self) -> usize {
        self.aux.values().map(AuxRelation::versions).sum()
    }

    /// Processes one new system state: snapshots every tracked query into
    /// its auxiliary relation, then evaluates the condition at the new
    /// instant by temporal lookups. Returns whether the condition fired.
    pub fn advance(&mut self, state: &SystemState) -> Result<bool> {
        let t = state.time();
        // Update auxiliary relations (the prototype's "temporal component
        // updates the auxiliary relations").
        let keys: Vec<String> = self.aux.keys().cloned().collect();
        for key in keys {
            let v = self.specs.get(&key).expect("spec per key").eval(state)?;
            self.aux.get_mut(&key).expect("key from map").record(v, t);
        }
        self.timeline.times.push(t);

        // Vacuum beyond the horizon.
        if let Some(h) = self.horizon {
            let horizon = t.minus(h);
            for rel in self.aux.values_mut() {
                rel.vacuum(horizon);
            }
            let keep_from = self.timeline.times.partition_point(|x| *x < horizon);
            self.timeline.times.drain(..keep_from.saturating_sub(1));
        }

        let n = self.timeline.times.len() - 1;
        self.eval(&self.condition, n, state, &BTreeMap::new())
    }

    /// Evaluates at position `k` of the retained timeline.
    fn eval(
        &self,
        f: &Formula,
        k: usize,
        state: &SystemState,
        env: &BTreeMap<String, Value>,
    ) -> Result<bool> {
        match f {
            Formula::True => Ok(true),
            Formula::False => Ok(false),
            Formula::Cmp(op, a, b) => {
                let a = self.eval_term(a, k, env)?;
                let b = self.eval_term(b, k, env)?;
                Ok(op.eval(&a, &b))
            }
            Formula::Event { name, pattern } => {
                // Events are only visible at the current state; the aux
                // strategy records event occurrences as 0/1 queries would.
                if k != self.timeline.times.len() - 1 {
                    return Ok(false);
                }
                let pat: Vec<Value> = pattern
                    .iter()
                    .map(|t| self.eval_term(t, k, env))
                    .collect::<Result<_>>()?;
                Ok(state
                    .events()
                    .named(name)
                    .any(|e| e.args() == pat.as_slice()))
            }
            Formula::Not(g) => Ok(!self.eval(g, k, state, env)?),
            Formula::And(gs) => {
                for g in gs {
                    if !self.eval(g, k, state, env)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Formula::Or(gs) => {
                for g in gs {
                    if self.eval(g, k, state, env)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Formula::Since(g, h) => {
                for j in (0..=k).rev() {
                    if self.eval(h, j, state, env)? {
                        return Ok(true);
                    }
                    if !self.eval(g, j, state, env)? {
                        return Ok(false);
                    }
                }
                Ok(false)
            }
            Formula::Lasttime(g) => {
                if k == 0 {
                    Ok(false)
                } else {
                    self.eval(g, k - 1, state, env)
                }
            }
            Formula::Previously(g) => {
                for j in (0..=k).rev() {
                    if self.eval(g, j, state, env)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Formula::ThroughoutPast(g) => {
                for j in 0..=k {
                    if !self.eval(g, j, state, env)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Formula::Assign { var, term, body } => {
                let v = self.eval_term(term, k, env)?;
                let mut env2 = env.clone();
                env2.insert(var.clone(), v);
                self.eval(body, k, state, &env2)
            }
            Formula::Member { .. } => unreachable!("rejected at construction"),
        }
    }

    fn eval_term(&self, t: &Term, k: usize, env: &BTreeMap<String, Value>) -> Result<Value> {
        match t {
            Term::Const(v) => Ok(v.clone()),
            Term::Var(x) => env
                .get(x)
                .cloned()
                .ok_or_else(|| CoreError::Ptl(tdb_ptl::PtlError::UnboundVar(x.clone()))),
            Term::Time => Ok(Value::Time(self.timeline.times[k])),
            Term::Arith(op, a, b) => Ok(tdb_relation::eval_arith(
                *op,
                &self.eval_term(a, k, env)?,
                &self.eval_term(b, k, env)?,
            )?),
            Term::Neg(a) => match self.eval_term(a, k, env)? {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Float(f) => Ok(Value::float(-f)),
                v => Err(CoreError::Rel(tdb_relation::RelError::TypeError {
                    op: "neg",
                    value: v.to_string(),
                })),
            },
            Term::Abs(a) => match self.eval_term(a, k, env)? {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.abs())),
                Value::Float(f) => Ok(Value::float(f.abs())),
                v => Err(CoreError::Rel(tdb_relation::RelError::TypeError {
                    op: "abs",
                    value: v.to_string(),
                })),
            },
            Term::Query { name, args } => {
                let key = query_key(name, args)?;
                // Selection by timestamp on R_x.
                Ok(self
                    .aux
                    .get(&key)
                    .map(|r| r.value_at(self.timeline.times[k]))
                    .unwrap_or(Value::Null))
            }
            Term::Agg(_) => Err(CoreError::UnrewrittenAggregate),
        }
    }
}

/// Builds the store key for a ground-argument scalar query.
fn query_key(name: &str, args: &[Term]) -> Result<String> {
    let mut key = String::from(name);
    key.push('(');
    for (i, a) in args.iter().enumerate() {
        match a {
            Term::Const(v) => {
                if i > 0 {
                    key.push(',');
                }
                key.push_str(&v.to_string());
            }
            _ => {
                return Err(CoreError::Ptl(tdb_ptl::PtlError::TypeError(
                    "aux-relation queries must have constant arguments".into(),
                )))
            }
        }
    }
    key.push(')');
    Ok(key)
}

fn collect_query_keys(f: &Formula, out: &mut Vec<(String, QuerySpec)>) -> Result<()> {
    fn term_keys(t: &Term, out: &mut Vec<(String, QuerySpec)>) -> Result<()> {
        match t {
            Term::Query { name, args } => {
                let key = query_key(name, args)?;
                if !out.iter().any(|(k, _)| *k == key) {
                    let argv: Vec<tdb_relation::Value> = args
                        .iter()
                        .map(|a| match a {
                            Term::Const(v) => v.clone(),
                            _ => unreachable!("query_key validated constants"),
                        })
                        .collect();
                    out.push((
                        key,
                        QuerySpec {
                            name: name.clone(),
                            args: argv,
                        },
                    ));
                }
                Ok(())
            }
            Term::Arith(_, a, b) => {
                term_keys(a, out)?;
                term_keys(b, out)
            }
            Term::Neg(a) | Term::Abs(a) => term_keys(a, out),
            Term::Agg(_) => Err(CoreError::UnrewrittenAggregate),
            Term::Const(_) | Term::Var(_) | Term::Time => Ok(()),
        }
    }
    let mut err = None;
    f.visit(&mut |g| {
        let r = match g {
            Formula::Cmp(_, a, b) => term_keys(a, out).and_then(|_| term_keys(b, out)),
            Formula::Event { pattern, .. } => pattern.iter().try_for_each(|t| term_keys(t, out)),
            Formula::Assign { term, .. } => term_keys(term, out),
            _ => Ok(()),
        };
        if err.is_none() {
            if let Err(e) = r {
                err = Some(e);
            }
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// A tracked query: name plus constant argument values.
#[derive(Debug, Clone)]
struct QuerySpec {
    name: String,
    args: Vec<Value>,
}

impl QuerySpec {
    /// The query value resolved against the *current* state (used to
    /// populate the auxiliary relation).
    fn eval(&self, state: &SystemState) -> Result<Value> {
        let rel = state.db().eval_named(&self.name, &self.args)?;
        Ok(tdb_ptl::relation_to_value(rel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_engine::{Engine, WriteOp};
    use tdb_ptl::parse_formula;
    use tdb_relation::{parse_query, tuple, Database, QueryDef, Relation, Schema};

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
        e.advance_clock_to(Timestamp(t)).unwrap();
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

    fn ibm_doubled() -> Formula {
        parse_formula(
            "[t := time] [x := price(\"IBM\")] \
             previously(price(\"IBM\") <= 0.5 * x and time >= t - 10)",
        )
        .unwrap()
    }

    #[test]
    fn matches_paper_history() {
        let mut e = stock_engine();
        e.set_auto_tick(false);
        let mut ev = AuxEvaluator::new(ibm_doubled(), None).unwrap();
        let mut fired = Vec::new();
        for (p, t) in [(10, 1), (15, 2), (18, 5), (25, 8)] {
            set_price_at(&mut e, p, t);
            let idx = e.history().last_index().unwrap();
            fired.push(ev.advance(e.history().get(idx).unwrap()).unwrap());
        }
        assert_eq!(fired, vec![false, false, false, true]);
    }

    #[test]
    fn agrees_with_incremental_on_random_walk() {
        let mut e = stock_engine();
        e.set_auto_tick(false);
        let f = ibm_doubled();
        let mut aux = AuxEvaluator::new(f.clone(), None).unwrap();
        let mut inc = tdb_core::IncrementalEvaluator::compile(&f).unwrap();
        // Prime the incremental evaluator on the initial state so both see
        // the same number of states... aux starts at the first update.
        let prices = [10, 12, 5, 11, 30, 14, 7, 20, 9, 19, 40];
        for (k, p) in prices.iter().enumerate() {
            set_price_at(&mut e, *p, (k as i64 + 1) * 2);
            let idx = e.history().last_index().unwrap();
            let s = e.history().get(idx).unwrap().clone();
            let a = aux.advance(&s).unwrap();
            let b = !inc.advance_and_fire(&s, idx).unwrap().is_empty();
            assert_eq!(a, b, "state {idx} (price {p})");
        }
    }

    #[test]
    fn version_store_selection_by_timestamp() {
        let mut r = AuxRelation::default();
        r.record(Value::Int(10), Timestamp(1));
        r.record(Value::Int(10), Timestamp(2)); // unchanged: no new version
        r.record(Value::Int(20), Timestamp(5));
        assert_eq!(r.versions(), 2);
        assert_eq!(r.value_at(Timestamp(0)), Value::Null);
        assert_eq!(r.value_at(Timestamp(1)), Value::Int(10));
        assert_eq!(r.value_at(Timestamp(4)), Value::Int(10));
        assert_eq!(r.value_at(Timestamp(5)), Value::Int(20));
        assert_eq!(r.value_at(Timestamp(99)), Value::Int(20));
    }

    #[test]
    fn vacuum_bounds_retained_versions() {
        let mut e = stock_engine();
        e.set_auto_tick(false);
        let mut bounded = AuxEvaluator::new(ibm_doubled(), Some(12)).unwrap();
        let mut unbounded = AuxEvaluator::new(ibm_doubled(), None).unwrap();
        for k in 0..200i64 {
            set_price_at(&mut e, 10 + (k % 7), k + 1);
            let idx = e.history().last_index().unwrap();
            let s = e.history().get(idx).unwrap().clone();
            bounded.advance(&s).unwrap();
            unbounded.advance(&s).unwrap();
        }
        assert!(bounded.retained_versions() < unbounded.retained_versions());
        assert!(
            bounded.retained_versions() <= 16,
            "bounded horizon keeps O(Δ) versions"
        );
    }

    #[test]
    fn non_decomposable_conditions_rejected() {
        let f = parse_formula("x in price(\"IBM\") and x > 3").unwrap();
        assert!(AuxEvaluator::new(f, None).is_err());
        let f = parse_formula("price(\"IBM\") > 3 and x in price(\"IBM\")").unwrap();
        assert!(AuxEvaluator::new(f, None).is_err());
    }
}

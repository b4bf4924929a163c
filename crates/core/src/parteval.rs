//! Partial evaluation of PTL atoms at one system state.
//!
//! Ground parts of an atom are evaluated immediately against the current
//! database/event set; symbolic parts (free or not-yet-substituted assigned
//! variables) survive into the residual. Queries with symbolic arguments
//! capture a snapshot of the current database so they can be finished later
//! — the in-memory analogue of the paper's auxiliary relations indexed by
//! timestamp.
//!
//! A closed term (no variable) never becomes a partial term: it folds
//! straight to a value, so a closed comparison such as `q() > 40` is `true`
//! or `false` at once. Ground query applications go through a per-state
//! memo keyed by name, then arguments, which answers a hit without
//! allocating.

use std::collections::HashMap;
use std::sync::Arc;

use tdb_engine::SystemState;
use tdb_ptl::{Formula, Term};
use tdb_relation::{eval_arith, CmpOp, Database, Timestamp, Value};

use crate::context::{locked, EvalContext};
use crate::error::{CoreError, Result};
use crate::residual::{eval_unary, PTerm, Residual, Snapshot, Unary};

/// Whether `t` mentions no variable (and no aggregate, which the compiler
/// lifts into a slot): its value is fixed by the state alone.
fn closed(t: &Term) -> bool {
    match t {
        Term::Const(_) | Term::Time => true,
        Term::Var(_) | Term::Agg(_) => false,
        Term::Arith(_, a, b) => closed(a) && closed(b),
        Term::Neg(a) | Term::Abs(a) => closed(a),
        Term::Query { args, .. } => args.iter().all(closed),
    }
}

/// One system state viewed by the partial evaluator.
#[derive(Debug, Clone)]
pub struct StateView<'a> {
    state: &'a SystemState,
    snap: Snapshot,
}

impl<'a> StateView<'a> {
    /// Wraps a state; `index` becomes the snapshot id (one snapshot per
    /// state, shared by every atom evaluated at it).
    pub fn new(state: &'a SystemState, index: usize) -> StateView<'a> {
        StateView {
            state,
            snap: Snapshot {
                id: index as u64,
                db: state.db_arc(),
            },
        }
    }

    pub fn state(&self) -> &SystemState {
        self.state
    }
}

/// What one context's evaluators counted — cumulative since the context
/// was created, or pending publication ([`EvalContext::publish_counters`]):
/// atom memo lookups and hits, atoms evaluated and kept, ground queries
/// evaluated and answered from the memo, and (while observability is on)
/// residual nodes entering and leaving §5 pruning.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MemoCounts {
    pub(crate) atom_lookups: u64,
    pub(crate) atom_hits: u64,
    pub(crate) atom_evals: u64,
    pub(crate) atoms_reused: u64,
    pub(crate) query_evals: u64,
    pub(crate) query_hits: u64,
    pub(crate) preprune: u64,
    pub(crate) postprune: u64,
}

/// Per-state atom and query memo of one [`EvalContext`]. The partial
/// evaluation of a *data* atom is a pure function of the atom and the
/// snapshot — `(index, database, clock)` — so when a tenant's rules share a
/// subformula (the compiler interns atoms per context, see
/// [`crate::incremental`]), the first rule to evaluate it at a state pays
/// for the query and every other rule reuses the residual; likewise for a
/// ground query application that distinct atoms share. One epoch: the memo
/// belongs to one tenant, whose evaluators all look at the same state at a
/// time.
#[derive(Default)]
pub(crate) struct AtomMemo {
    /// The state the entries were computed at. The database `Arc` is held
    /// strong so its address cannot be recycled while the epoch compares by
    /// pointer.
    epoch: Option<(u64, Timestamp, Arc<Database>)>,
    /// Atom address → (the atom held strong, so the address cannot be
    /// reused while the entry lives; its residual at this epoch).
    map: HashMap<usize, (Arc<Formula>, Arc<Residual>)>,
    /// Query name → ground arguments → value at this epoch, keyed in two
    /// levels so that a hit allocates nothing; a new epoch empties the inner
    /// maps and keeps the names. Values only: a failed evaluation is not
    /// remembered, it fails again.
    queries: HashMap<String, HashMap<Vec<Value>, Value>>,
    pub(crate) counts: MemoCounts,
    /// Counted while observability was on and not yet published.
    pub(crate) pending: MemoCounts,
}

impl AtomMemo {
    /// Counts into the totals, and into the pending tally while
    /// observability is on.
    pub(crate) fn count(&mut self, bump: impl Fn(&mut MemoCounts)) {
        bump(&mut self.counts);
        if tdb_obs::enabled() {
            bump(&mut self.pending);
        }
    }

    fn is_current(&self, view: &StateView<'_>) -> bool {
        self.epoch.as_ref().is_some_and(|(id, t, db)| {
            *id == view.snap.id && *t == view.state.time() && Arc::ptr_eq(db, &view.snap.db)
        })
    }

    /// Moves the memo to `view`'s state, forgetting another state's entries.
    fn enter(&mut self, view: &StateView<'_>) {
        if !self.is_current(view) {
            self.map.clear();
            self.queries.values_mut().for_each(HashMap::clear);
            self.epoch = Some((view.snap.id, view.state.time(), view.snap.db.clone()));
        }
    }
}

impl EvalContext {
    /// Forgets the state the memo was filled at, releasing its hold on that
    /// state's database snapshot. For states nothing will be evaluated at
    /// again — a registration's priming state, whose snapshot would
    /// otherwise keep the catalog shared (so the next registration copies
    /// it) until some later state displaces it.
    pub(crate) fn release_memo_state(&self) {
        let mut memo = locked(&self.memo);
        memo.map.clear();
        memo.queries.clear();
        memo.epoch = None;
    }

    /// Builds a partial term at the current state. A closed subterm folds
    /// to its value through `EvalContext::closed_value`, so a query
    /// application whose arguments are ground is evaluated once per state
    /// for the whole tenant, through the query memo.
    pub fn build_pterm(&self, t: &Term, view: &StateView<'_>) -> Result<Arc<PTerm>> {
        match t {
            Term::Var(v) => Ok(PTerm::var(v.clone())),
            Term::Arith(op, a, b) if !closed(t) => {
                PTerm::arith(*op, self.build_pterm(a, view)?, self.build_pterm(b, view)?)
            }
            Term::Neg(a) if !closed(a) => Ok(Arc::new(PTerm::Neg(self.build_pterm(a, view)?))),
            Term::Abs(a) if !closed(a) => Ok(Arc::new(PTerm::Abs(self.build_pterm(a, view)?))),
            Term::Query { name, args } if !closed(t) => Ok(Arc::new(PTerm::QuerySnap {
                name: name.clone(),
                args: args
                    .iter()
                    .map(|a| self.build_pterm(a, view))
                    .collect::<Result<_>>()?,
                snap: view.snap.clone(),
            })),
            _ => Ok(PTerm::val(self.closed_value(t, view)?)),
        }
    }

    /// The value of query `name` on ground `args` at `view`'s state, from
    /// the query memo when some evaluator of the tenant already asked. The
    /// memo lock is released while the query runs.
    fn ground_query(&self, name: &str, args: &[Value], view: &StateView<'_>) -> Result<Value> {
        {
            let mut memo = locked(&self.memo);
            memo.enter(view);
            if let Some(v) = memo.queries.get(name).and_then(|m| m.get(args)).cloned() {
                memo.count(|c| c.query_hits += 1);
                return Ok(v);
            }
        }
        let v = tdb_ptl::relation_to_value(view.snap.db.eval_named(name, args)?);
        let mut memo = locked(&self.memo);
        memo.count(|c| c.query_evals += 1);
        if memo.is_current(view) {
            let values = match memo.queries.get_mut(name) {
                Some(values) => values,
                None => memo.queries.entry(name.to_string()).or_default(),
            };
            values.insert(args.to_vec(), v.clone());
        }
        Ok(v)
    }

    /// The value of `t` at `view`'s state: what [`EvalContext::build_pterm`]
    /// followed by `eval_ground` gives, but a closed term builds no partial
    /// term at all.
    pub(crate) fn term_value(&self, t: &Term, view: &StateView<'_>) -> Result<Value> {
        if closed(t) {
            self.closed_value(t, view)
        } else {
            self.build_pterm(t, view)?.eval_ground()
        }
    }

    /// The value of a closed term at `view`'s state, operands left to
    /// right: the one evaluator of ground terms. A variable or an aggregate
    /// is a typed error.
    fn closed_value(&self, t: &Term, view: &StateView<'_>) -> Result<Value> {
        match t {
            Term::Const(v) => Ok(v.clone()),
            Term::Time => Ok(Value::Time(view.state.time())),
            Term::Arith(op, a, b) => {
                let a = self.closed_value(a, view)?;
                Ok(eval_arith(*op, &a, &self.closed_value(b, view)?)?)
            }
            Term::Neg(a) => eval_unary(Unary::Neg, self.closed_value(a, view)?),
            Term::Abs(a) => eval_unary(Unary::Abs, self.closed_value(a, view)?),
            Term::Query { name, args } => {
                let args: Vec<Value> = args
                    .iter()
                    .map(|a| self.closed_value(a, view))
                    .collect::<Result<_>>()?;
                self.ground_query(name, &args, view)
            }
            Term::Var(v) => Err(CoreError::UnsolvableResidual(v.clone())),
            // The compiler lifts aggregates into slots before atoms get here.
            Term::Agg(_) => Err(CoreError::Ptl(tdb_ptl::PtlError::TypeError(
                "a temporal aggregate outside its slot".into(),
            ))),
        }
    }

    /// Partially evaluates an atomic formula (`true`/`false`, comparison,
    /// membership, event) at the current state.
    pub fn parteval_atom(&self, f: &Formula, view: &StateView<'_>) -> Result<Arc<Residual>> {
        match f {
            Formula::True => Ok(self.rtrue()),
            Formula::False => Ok(self.rfalse()),
            Formula::Cmp(op, a, b) if closed(a) && closed(b) => {
                let a = self.closed_value(a, view)?;
                let holds = op.eval(&a, &self.closed_value(b, view)?);
                Ok(if holds { self.rtrue() } else { self.rfalse() })
            }
            Formula::Cmp(op, a, b) => {
                self.rcmp(*op, self.build_pterm(a, view)?, self.build_pterm(b, view)?)
            }
            Formula::Member { source, pattern } => {
                // Generator arguments are statically required to be ground.
                let args: Vec<tdb_relation::Value> = source
                    .args
                    .iter()
                    .map(|a| self.term_value(a, view))
                    .collect::<Result<_>>()?;
                let rel = view.snap.db.eval_named(&source.name, &args)?;
                if rel.schema().arity() != pattern.len() {
                    return Err(CoreError::Ptl(tdb_ptl::PtlError::TypeError(format!(
                        "membership pattern arity {} does not match query `{}` arity {}",
                        pattern.len(),
                        source.name,
                        rel.schema().arity()
                    ))));
                }
                let pat: Vec<Arc<PTerm>> = pattern
                    .iter()
                    .map(|t| self.build_pterm(t, view))
                    .collect::<Result<_>>()?;
                let mut disjuncts = Vec::new();
                for row in rel.iter() {
                    let mut conj = Vec::with_capacity(pat.len());
                    for (p, cell) in pat.iter().zip(row.values()) {
                        conj.push(self.rcmp(CmpOp::Eq, p.clone(), PTerm::val(cell.clone()))?);
                    }
                    disjuncts.push(self.rand(conj));
                }
                Ok(self.ror(disjuncts))
            }
            Formula::Event { name, pattern } => {
                let pat: Vec<Arc<PTerm>> = pattern
                    .iter()
                    .map(|t| self.build_pterm(t, view))
                    .collect::<Result<_>>()?;
                let mut disjuncts = Vec::new();
                for e in view.state.events().named(name) {
                    if e.args().len() != pat.len() {
                        continue;
                    }
                    let mut conj = Vec::with_capacity(pat.len());
                    for (p, arg) in pat.iter().zip(e.args()) {
                        conj.push(self.rcmp(CmpOp::Eq, p.clone(), PTerm::val(arg.clone()))?);
                    }
                    disjuncts.push(self.rand(conj));
                }
                Ok(self.ror(disjuncts))
            }
            other => Err(CoreError::Ptl(tdb_ptl::PtlError::TypeError(format!(
                "parteval_atom called on non-atomic formula {other}"
            )))),
        }
    }

    /// Memoizing wrapper around [`EvalContext::parteval_atom`], keyed by
    /// the atom's interned address within the current state's epoch. Event
    /// atoms bypass the memo: they read the event set, which the epoch
    /// does not fingerprint, and they never touch the database anyway.
    ///
    /// The memo lock is released while the atom is evaluated.
    pub fn parteval_atom_memo(
        &self,
        atom: &Arc<Formula>,
        view: &StateView<'_>,
    ) -> Result<Arc<Residual>> {
        if matches!(
            &**atom,
            Formula::Event { .. } | Formula::True | Formula::False
        ) {
            return self.parteval_atom(atom, view);
        }
        let key = Arc::as_ptr(atom) as usize;
        {
            let mut memo = locked(&self.memo);
            memo.enter(view);
            let hit = memo
                .map
                .get(&key)
                .filter(|(a, _)| Arc::ptr_eq(a, atom))
                .map(|(_, r)| r.clone());
            let found = hit.is_some();
            memo.count(|c| {
                c.atom_lookups += 1;
                c.atom_hits += u64::from(found);
            });
            if let Some(r) = hit {
                return Ok(r);
            }
        }
        let r = self.parteval_atom(atom, view)?;
        let mut memo = locked(&self.memo);
        if memo.is_current(view) {
            memo.map.insert(key, (atom.clone(), r.clone()));
        }
        Ok(r)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use tdb_engine::{Event, EventSet, SystemState};
    use tdb_ptl::QueryRef;
    use tdb_relation::{
        parse_query, tuple, CmpOp, Database, QueryDef, Relation, Schema, Timestamp, Value,
    };

    fn ctx() -> EvalContext {
        EvalContext::new()
    }

    fn view_state() -> SystemState {
        let mut db = Database::new();
        db.create_relation(
            "STOCK",
            Relation::from_rows(
                Schema::untyped(&["name", "price"]),
                vec![tuple!["IBM", 72i64], tuple!["DEC", 45i64]],
            )
            .unwrap(),
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
        let events = EventSet::of([
            Event::new("login", vec![Value::str("alice")]),
            Event::new("login", vec![Value::str("bob")]),
        ]);
        SystemState::new(db, events, Timestamp(7))
    }

    #[test]
    fn ground_atom_folds_to_constant() {
        let cx = ctx();
        let s = view_state();
        let v = StateView::new(&s, 3);
        let f = Formula::cmp(
            CmpOp::Gt,
            Term::query("price", vec![Term::lit("IBM")]),
            Term::lit(50i64),
        );
        assert_eq!(*cx.parteval_atom(&f, &v).unwrap(), Residual::True);
    }

    #[test]
    fn symbolic_comparison_canonicalizes() {
        let cx = ctx();
        let s = view_state();
        let v = StateView::new(&s, 3);
        // price(IBM) <= 0.5 * x  ⇒  x >= 144.
        let f = Formula::cmp(
            CmpOp::Le,
            Term::query("price", vec![Term::lit("IBM")]),
            Term::mul(Term::lit(0.5), Term::var("x")),
        );
        let r = cx.parteval_atom(&f, &v).unwrap();
        match &*r {
            Residual::Constraint(c) => {
                assert_eq!(c.var, "x");
                assert_eq!(c.op, CmpOp::Ge);
                assert_eq!(c.value, Value::float(144.0));
            }
            other => panic!("expected constraint, got {other}"),
        }
    }

    #[test]
    fn symbolic_query_arg_captures_snapshot() {
        let cx = ctx();
        let s = view_state();
        let v = StateView::new(&s, 9);
        // price(x) > 50 with x free: opaque, evaluable after binding.
        let f = Formula::cmp(
            CmpOp::Gt,
            Term::query("price", vec![Term::var("x")]),
            Term::lit(50i64),
        );
        let r = cx.parteval_atom(&f, &v).unwrap();
        let bound = cx.subst(&r, "x", &Value::str("IBM")).unwrap();
        assert_eq!(*bound, Residual::True);
        let bound = cx.subst(&r, "x", &Value::str("DEC")).unwrap();
        assert_eq!(*bound, Residual::False);
    }

    #[test]
    fn member_atom_expands_rows() {
        let cx = ctx();
        let s = view_state();
        let v = StateView::new(&s, 0);
        let f = Formula::member(QueryRef::new("names", vec![]), vec![Term::var("x")]);
        let r = cx.parteval_atom(&f, &v).unwrap();
        let sols = cx.solve(&r).unwrap();
        let names: Vec<_> = sols.iter().map(|e| e["x"].clone()).collect();
        assert_eq!(names, vec![Value::str("DEC"), Value::str("IBM")]);
    }

    #[test]
    fn member_with_ground_pattern_folds() {
        let cx = ctx();
        let s = view_state();
        let v = StateView::new(&s, 0);
        let f = Formula::member(QueryRef::new("names", vec![]), vec![Term::lit("IBM")]);
        assert_eq!(*cx.parteval_atom(&f, &v).unwrap(), Residual::True);
        let f = Formula::member(QueryRef::new("names", vec![]), vec![Term::lit("XXX")]);
        assert_eq!(*cx.parteval_atom(&f, &v).unwrap(), Residual::False);
    }

    #[test]
    fn event_atom_binds_args() {
        let cx = ctx();
        let s = view_state();
        let v = StateView::new(&s, 0);
        let f = Formula::event("login", vec![Term::var("u")]);
        let r = cx.parteval_atom(&f, &v).unwrap();
        let sols = cx.solve(&r).unwrap();
        assert_eq!(sols.len(), 2);
        let f = Formula::event("logout", vec![Term::var("u")]);
        assert_eq!(*cx.parteval_atom(&f, &v).unwrap(), Residual::False);
    }

    #[test]
    fn time_term_uses_state_clock() {
        let cx = ctx();
        let s = view_state();
        let v = StateView::new(&s, 0);
        let f = Formula::cmp(CmpOp::Eq, Term::Time, Term::lit(Value::Time(Timestamp(7))));
        assert_eq!(*cx.parteval_atom(&f, &v).unwrap(), Residual::True);
    }

    #[test]
    fn aggregates_must_be_rewritten() {
        let cx = ctx();
        let s = view_state();
        let v = StateView::new(&s, 0);
        let agg = Term::agg(
            tdb_relation::AggFunc::Sum,
            Term::lit(1i64),
            Formula::True,
            Formula::True,
        );
        let f = Formula::cmp(CmpOp::Gt, agg, Term::lit(0i64));
        assert!(matches!(
            cx.parteval_atom(&f, &v),
            Err(CoreError::Ptl(tdb_ptl::PtlError::TypeError(_)))
        ));
    }

    /// The memo must not leak one state's residual into another: same atom,
    /// same snapshot id, different database ⇒ fresh evaluation.
    #[test]
    fn atom_memo_respects_state_epochs() {
        let cx = ctx();
        let atom = Arc::new(Formula::cmp(
            CmpOp::Gt,
            Term::query("price", vec![Term::lit("IBM")]),
            Term::lit(50i64),
        ));
        let s1 = view_state(); // IBM at 72
        let r1 = cx
            .parteval_atom_memo(&atom, &StateView::new(&s1, 0))
            .unwrap();
        assert_eq!(*r1, Residual::True);
        let mut db = Database::new();
        db.create_relation(
            "STOCK",
            Relation::from_rows(
                Schema::untyped(&["name", "price"]),
                vec![tuple!["IBM", 10i64]],
            )
            .unwrap(),
        )
        .unwrap();
        db.define_query(
            "price",
            QueryDef::new(
                1,
                parse_query("select price from STOCK where name = $0").unwrap(),
            ),
        );
        let s2 = SystemState::new(db, EventSet::new(), Timestamp(7));
        let r2 = cx
            .parteval_atom_memo(&atom, &StateView::new(&s2, 0))
            .unwrap();
        assert_eq!(*r2, Residual::False);
    }

    /// Back-to-back evaluations of one interned atom at one state hit the
    /// memo — exactly once here, since the context (and so the memo) is
    /// this test's alone.
    #[test]
    fn repeated_evaluation_at_one_state_hits_the_memo() {
        let cx = ctx();
        let s = view_state();
        let atom = Arc::new(Formula::cmp(
            CmpOp::Gt,
            Term::query("price", vec![Term::lit("DEC")]),
            Term::lit(40i64),
        ));
        let v = StateView::new(&s, 100);
        let a = cx.parteval_atom_memo(&atom, &v).unwrap();
        let b = cx.parteval_atom_memo(&atom, &v).unwrap();
        assert_eq!(a, b);
        let stats = cx.stats();
        assert_eq!((stats.memo_lookups, stats.memo_hits), (2, 1));
        // A new state is a new epoch: the entry is not reused.
        cx.parteval_atom_memo(&atom, &StateView::new(&s, 101))
            .unwrap();
        assert_eq!(cx.stats().memo_hits, 1);
    }

    /// Distinct atoms reading one ground query application share its
    /// evaluation at a state; a non-ground one captures a snapshot and is
    /// not memoised; a new state evaluates again.
    #[test]
    fn ground_queries_are_evaluated_once_per_state() {
        let cx = ctx();
        let s = view_state();
        let v = StateView::new(&s, 5);
        for src in [
            "price(\"IBM\") > 50",
            "price(\"IBM\") < 10",
            "price(x) > 50",
        ] {
            let f = tdb_ptl::parse_formula(src).unwrap();
            cx.parteval_atom(&f, &v).unwrap();
        }
        let stats = cx.stats();
        assert_eq!((stats.query_evals, stats.query_memo_hits), (1, 1));
        cx.build_pterm(
            &Term::query("price", vec![Term::lit("IBM")]),
            &StateView::new(&s, 6),
        )
        .unwrap();
        assert_eq!(cx.stats().query_evals, 2);
    }

    /// A closed comparison, and an assignment's term, fold straight to
    /// values: the verdict, the value and the error must be what building
    /// the partial terms and folding them through `rcmp` / `eval_ground`
    /// gives.
    #[test]
    fn closed_terms_match_the_partial_term_path() {
        let cx = ctx();
        let s = view_state();
        let v = StateView::new(&s, 4);
        let sources = [
            "price(\"IBM\") > 50",
            "price(\"DEC\") >= 45.5",
            "price(\"IBM\") = 72.0",
            "price(\"XXX\") = price(\"XXX\")",
            "price(\"XXX\") + 1 < 2",
            "time = 7",
            "time - 2 * price(\"DEC\") < -80",
            "-price(\"DEC\") < abs(0 - 50)",
            "price(\"IBM\") + \"a\" > 0",
            "-\"a\" > 0",
            "price(\"IBM\", 1) > 0",
            "price(\"IBM\") > x + 1",
        ];
        for src in sources {
            let f = tdb_ptl::parse_formula(src).unwrap();
            let Formula::Cmp(op, a, b) = &f else {
                panic!("{src} is not a comparison")
            };
            let built = cx
                .build_pterm(a, &v)
                .and_then(|a| Ok((a, cx.build_pterm(b, &v)?)))
                .and_then(|(a, b)| cx.rcmp(*op, a, b));
            match (cx.parteval_atom(&f, &v), built) {
                (Ok(x), Ok(y)) => assert!(Arc::ptr_eq(&x, &y), "{src}: {x} vs {y}"),
                (x, y) => assert_eq!(x.err(), y.err(), "{src}"),
            }
            for t in [a, b] {
                let built = cx.build_pterm(t, &v).and_then(|p| p.eval_ground());
                assert_eq!(cx.term_value(t, &v), built, "{src}: {t}");
            }
        }
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let cx = ctx();
        let s = view_state();
        let v = StateView::new(&s, 0);
        let f = Formula::member(
            QueryRef::new("names", vec![]),
            vec![Term::var("a"), Term::var("b")],
        );
        assert!(cx.parteval_atom(&f, &v).is_err());
    }
}

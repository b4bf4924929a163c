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
//! or `false` at once. Every ground query application reads a slot of the
//! context's `QuerySlots` — one value per application and state, like the
//! paper's one auxiliary relation `R_x` per bound query application. A
//! closed comparison compiled into an `Atom` names its constant-argument
//! applications by slot number; one with computed arguments (`q(1 + 1)`,
//! `q(time)`) finds its slot by name and arguments at its first evaluation.

use std::collections::HashMap;
use std::sync::Arc;

use tdb_engine::SystemState;
use tdb_ptl::{Formula, Term};
use tdb_relation::{eval_arith, CmpOp, Database, Timestamp, Value};

use crate::context::{locked, EvalContext};
use crate::error::{CoreError, Result};
use crate::residual::{eval_unary, PTerm, Residual, Snapshot, Steps, Unary};

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

/// How a compiled closed comparison reads one of its sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    /// A query application with constant arguments: its query slot.
    Slot(u32),
    /// Any other closed term, through `closed_value`.
    Term,
}

/// An atom as the compiler interns it (one per structurally distinct atom
/// of a tenant, see [`crate::incremental`]): the formula and, for a closed
/// comparison, how to read its two sides. The address keys the atom memo.
#[derive(Debug)]
pub(crate) struct Atom {
    pub(crate) formula: Formula,
    closed: Option<[Operand; 2]>,
}

impl Atom {
    /// Compiles `f`, interning each constant-argument query application of
    /// a closed comparison into a slot that stays pinned while the atom is
    /// interned ([`QuerySlots::repin`]).
    pub(crate) fn compile(f: &Formula, slots: &mut QuerySlots) -> Atom {
        let closed = match f {
            Formula::Cmp(_, a, b) if closed(a) && closed(b) => {
                Some([a, b].map(|t| slots.compile_side(t)))
            }
            _ => None,
        };
        Atom {
            formula: f.clone(),
            closed,
        }
    }

    /// The slots this atom reads.
    fn slots(&self) -> impl Iterator<Item = u32> + '_ {
        (self.closed.iter().flatten()).filter_map(|o| match o {
            Operand::Slot(k) => Some(*k),
            Operand::Term => None,
        })
    }
}

/// What one context's evaluators counted — cumulative since the context
/// was created, or pending publication ([`EvalContext::publish_counters`]):
/// atom memo lookups and hits, atoms evaluated and kept, ground queries
/// evaluated and answered from their slot, and (while observability is on)
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
    pub(crate) steps_computed: u64,
    pub(crate) steps_reused: u64,
}

/// Loose slots (no interned atom names them: computed arguments, assignment
/// terms, partial terms) the table may hold before it frees those of
/// earlier states (and the floor the threshold re-arms at).
const LOOSE_SLOTS: usize = 1024;

/// The stamp of a freed slot; no generation reaches it.
const FREE: u64 = u64::MAX;

/// One ground query application: its name and arguments, and its value at
/// the state its stamp names.
struct QuerySlot {
    name: String,
    args: Vec<Value>,
    value: Value,
    stamp: u64,
    /// Named by an interned atom, so its number must not change hands.
    pinned: bool,
}

/// The one per-state query cache of an [`EvalContext`]: a slot per ground
/// query application, holding its value at the state stamped by
/// `generation`. A new state bumps the generation, which outdates every
/// value at once. Values only: a failed evaluation is not remembered, it
/// fails again. Bounded by the live catalog — [`QuerySlots::repin`] runs
/// with the compile tables' sweep — plus at most [`LOOSE_SLOTS`] loose
/// slots of earlier states.
#[derive(Default)]
pub(crate) struct QuerySlots {
    /// Query name → ground arguments → slot, in two levels so that a
    /// lookup allocates nothing.
    index: HashMap<String, HashMap<Vec<Value>, u32>>,
    slots: Vec<QuerySlot>,
    /// Freed slot numbers, reused first.
    free: Vec<u32>,
    generation: u64,
    /// Live slots that are not pinned, and the count at which the next
    /// loose slot first frees those of earlier states.
    loose: usize,
    loose_limit: usize,
}

impl QuerySlots {
    /// How a compiled closed comparison reads side `t`.
    fn compile_side(&mut self, t: &Term) -> Operand {
        let Term::Query { name, args } = t else {
            return Operand::Term;
        };
        let args: Option<Vec<Value>> = (args.iter())
            .map(|a| match a {
                Term::Const(v) => Some(v.clone()),
                _ => None,
            })
            .collect();
        match args {
            Some(args) => {
                let k = self.intern(name, &args);
                if !std::mem::replace(&mut self.slots[k as usize].pinned, true) {
                    self.loose -= 1;
                }
                Operand::Slot(k)
            }
            None => Operand::Term,
        }
    }

    /// The slot of `name(args)`, a new loose one if there is none.
    fn intern(&mut self, name: &str, args: &[Value]) -> u32 {
        if let Some(&k) = self.index.get(name).and_then(|m| m.get(args)) {
            return k;
        }
        if self.loose >= self.loose_limit.max(LOOSE_SLOTS) {
            self.free_loose();
            self.loose_limit = 2 * self.loose;
        }
        let slot = QuerySlot {
            name: name.to_string(),
            args: args.to_vec(),
            value: Value::Null,
            stamp: 0,
            pinned: false,
        };
        let k = match self.free.pop() {
            Some(k) => {
                self.slots[k as usize] = slot;
                k
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        self.loose += 1;
        let values = match self.index.get_mut(name) {
            Some(values) => values,
            None => self.index.entry(name.to_string()).or_default(),
        };
        values.insert(args.to_vec(), k);
        k
    }

    /// Frees every loose slot that holds no value of the current state.
    fn free_loose(&mut self) {
        for (k, slot) in self.slots.iter_mut().enumerate() {
            if slot.pinned || slot.stamp == self.generation || slot.stamp == FREE {
                continue;
            }
            if let Some(values) = self.index.get_mut(&slot.name) {
                values.remove(&slot.args);
                if values.is_empty() {
                    self.index.remove(&slot.name);
                }
            }
            *slot = QuerySlot {
                name: String::new(),
                args: Vec::new(),
                value: Value::Null,
                stamp: FREE,
                pinned: false,
            };
            self.free.push(k as u32);
            self.loose -= 1;
        }
    }

    /// Pins exactly the slots that `atoms` — every atom still interned —
    /// name, and frees the loose ones of earlier states: what a dropped
    /// rule's constants held goes with it.
    pub(crate) fn repin<'a>(&mut self, atoms: impl Iterator<Item = &'a Arc<Atom>>) {
        for slot in &mut self.slots {
            slot.pinned = false;
        }
        for k in atoms.flat_map(|a| a.slots()) {
            self.slots[k as usize].pinned = true;
        }
        let live = self.slots.len() - self.free.len();
        self.loose = live - self.slots.iter().filter(|s| s.pinned).count();
        self.free_loose();
    }

    /// Drops every value, so that none outlives the state it was read at.
    fn forget_values(&mut self) {
        for slot in self.slots.iter_mut().filter(|s| s.stamp != FREE) {
            (slot.value, slot.stamp) = (Value::Null, 0);
        }
    }
}

/// Per-state atom memo and query slots of one [`EvalContext`]. The partial
/// evaluation of a *data* atom is a pure function of the atom and the
/// snapshot — `(index, database, clock)` — so when a tenant's rules share a
/// subformula (the compiler interns atoms per context, see
/// [`crate::incremental`]), the first rule to evaluate it at a state pays
/// for the query and every other rule reuses the residual; likewise for a
/// ground query application that distinct atoms share, through its slot.
/// A closed comparison skips the atom memo: its slot reads and one compare
/// are cheaper than a lookup. One epoch: the memo belongs to one tenant,
/// whose evaluators all look at the same state at a time.
#[derive(Default)]
pub(crate) struct AtomMemo {
    /// The state the entries were computed at. The database `Arc` is held
    /// strong so its address cannot be recycled while the epoch compares by
    /// pointer.
    epoch: Option<(u64, Timestamp, Arc<Database>)>,
    /// Atom address → (the atom held strong, so the address cannot be
    /// reused while the entry lives; its residual at this epoch).
    map: HashMap<usize, (Arc<Atom>, Arc<Residual>)>,
    pub(crate) slots: QuerySlots,
    /// The computed table: the `Since` steps taken at this epoch.
    pub(crate) steps: Steps,
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

    /// Moves the memo to `view`'s state: forgets another state's atoms and
    /// outdates every query slot.
    pub(crate) fn enter(&mut self, view: &StateView<'_>) {
        if !self.is_current(view) {
            self.map.clear();
            self.steps.clear();
            self.slots.generation += 1;
            self.epoch = Some((view.snap.id, view.state.time(), view.snap.db.clone()));
        }
    }

    /// Slot `k`'s value at the current state, evaluating the query if the
    /// slot holds an earlier state's.
    fn read_slot(&mut self, k: u32, view: &StateView<'_>) -> Result<Value> {
        let generation = self.slots.generation;
        let slot = &mut self.slots.slots[k as usize];
        let hit = slot.stamp == generation;
        if !hit {
            let rel = view.snap.db.eval_named(&slot.name, &slot.args)?;
            slot.value = tdb_ptl::relation_to_value(rel);
            slot.stamp = generation;
        }
        let v = slot.value.clone();
        self.count(|c| {
            c.query_hits += u64::from(hit);
            c.query_evals += u64::from(!hit);
        });
        Ok(v)
    }

    /// The value of a closed term at the current state, operands left to
    /// right: the one evaluator of ground terms. A variable or an aggregate
    /// is a typed error.
    fn closed_value(&mut self, t: &Term, view: &StateView<'_>) -> Result<Value> {
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
                let k = self.slots.intern(name, &args);
                self.read_slot(k, view)
            }
            Term::Var(v) => Err(CoreError::UnsolvableResidual(v.clone())),
            // The compiler lifts aggregates into slots before atoms get here.
            Term::Agg(_) => Err(CoreError::Ptl(tdb_ptl::PtlError::TypeError(
                "a temporal aggregate outside its slot".into(),
            ))),
        }
    }

    /// Side `t` of a closed comparison, read as `how` says.
    fn operand(&mut self, t: &Term, how: Operand, view: &StateView<'_>) -> Result<Value> {
        match how {
            Operand::Slot(k) => self.read_slot(k, view),
            Operand::Term => self.closed_value(t, view),
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
        memo.steps.clear();
        memo.slots.forget_values();
        memo.epoch = None;
    }

    /// Builds a partial term at the current state. A closed subterm folds
    /// to its value through the memo's `closed_value`, so a query
    /// application whose arguments are ground is evaluated once per state
    /// for the whole tenant, through its slot.
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

    fn closed_value(&self, t: &Term, view: &StateView<'_>) -> Result<Value> {
        let mut memo = locked(&self.memo);
        memo.enter(view);
        memo.closed_value(t, view)
    }

    /// A closed comparison at `view`'s state, sides read left to right as
    /// `how` says: this context's canonical `true` or `false`.
    fn closed_cmp(
        &self,
        op: CmpOp,
        sides: [&Term; 2],
        how: [Operand; 2],
        view: &StateView<'_>,
    ) -> Result<Arc<Residual>> {
        let mut memo = locked(&self.memo);
        memo.enter(view);
        let a = memo.operand(sides[0], how[0], view)?;
        let holds = op.eval(&a, &memo.operand(sides[1], how[1], view)?);
        Ok(if holds { self.rtrue() } else { self.rfalse() })
    }

    /// Partially evaluates an atomic formula (`true`/`false`, comparison,
    /// membership, event) at the current state.
    pub fn parteval_atom(&self, f: &Formula, view: &StateView<'_>) -> Result<Arc<Residual>> {
        match f {
            Formula::True => Ok(self.rtrue()),
            Formula::False => Ok(self.rfalse()),
            Formula::Cmp(op, a, b) if closed(a) && closed(b) => {
                self.closed_cmp(*op, [a, b], [Operand::Term; 2], view)
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

    /// [`EvalContext::parteval_atom`] of an interned atom. A closed
    /// comparison reads its slots and compares; event atoms, which read the
    /// event set the epoch does not fingerprint, go straight through; every
    /// other atom goes through the memo, keyed by the atom's address within
    /// the current state's epoch. The memo lock is released while the atom
    /// is evaluated.
    pub(crate) fn atom_at(&self, atom: &Arc<Atom>, view: &StateView<'_>) -> Result<Arc<Residual>> {
        match (&atom.formula, atom.closed) {
            (Formula::Cmp(op, a, b), Some(how)) => return self.closed_cmp(*op, [a, b], how, view),
            (Formula::Event { .. } | Formula::True | Formula::False, _) => {
                return self.parteval_atom(&atom.formula, view)
            }
            _ => {}
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
        let r = self.parteval_atom(&atom.formula, view)?;
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
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use tdb_engine::{Event, EventSet, SystemState};
    use tdb_ptl::QueryRef;
    use tdb_relation::{
        parse_query, tuple, CmpOp, Database, QueryDef, Relation, Schema, Timestamp, Tuple, Value,
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

    /// `f` compiled into `cx` the way the compiler interns an atom.
    fn intern(cx: &EvalContext, f: Formula) -> Arc<Atom> {
        Arc::new(Atom::compile(&f, &mut locked(&cx.memo).slots))
    }

    /// Neither the memo nor a query slot leaks one state's residual into
    /// another: same atom, same snapshot id, different database ⇒ fresh
    /// evaluation.
    #[test]
    fn atoms_respect_state_epochs() {
        let cx = ctx();
        let closed = Formula::cmp(
            CmpOp::Gt,
            Term::query("price", vec![Term::lit("IBM")]),
            Term::lit(50i64),
        );
        let open = Formula::cmp(
            CmpOp::Gt,
            Term::query("price", vec![Term::lit("IBM")]),
            Term::var("x"),
        );
        let atoms = [intern(&cx, closed), intern(&cx, open)];
        let s1 = view_state(); // IBM at 72
        let at = |s, x| {
            let r = cx.atom_at(&atoms[0], &StateView::new(s, 0)).unwrap();
            let open = cx.atom_at(&atoms[1], &StateView::new(s, 0)).unwrap();
            (r, cx.subst(&open, "x", &Value::Int(x)).unwrap())
        };
        let (r1, o1) = at(&s1, 60);
        assert_eq!((&*r1, &*o1), (&Residual::True, &Residual::True));
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
        let (r2, o2) = at(&s2, 60);
        assert_eq!((&*r2, &*o2), (&Residual::False, &Residual::False));
    }

    /// Back-to-back evaluations of one interned atom with a free variable
    /// at one state hit the memo — exactly once here, since the context
    /// (and so the memo) is this test's alone. A closed comparison never
    /// consults it: its second evaluation is a query slot hit.
    #[test]
    fn repeated_evaluation_at_one_state_hits_the_memo() {
        let cx = ctx();
        let s = view_state();
        let atom = intern(
            &cx,
            Formula::cmp(
                CmpOp::Gt,
                Term::query("price", vec![Term::lit("DEC")]),
                Term::var("x"),
            ),
        );
        let v = StateView::new(&s, 100);
        let a = cx.atom_at(&atom, &v).unwrap();
        let b = cx.atom_at(&atom, &v).unwrap();
        assert_eq!(a, b);
        let stats = cx.stats();
        assert_eq!((stats.memo_lookups, stats.memo_hits), (2, 1));
        // A new state is a new epoch: the entry is not reused.
        cx.atom_at(&atom, &StateView::new(&s, 101)).unwrap();
        assert_eq!(cx.stats().memo_hits, 1);

        let closed = intern(&cx, tdb_ptl::parse_formula("price(\"DEC\") > 40").unwrap());
        let before = cx.stats();
        for _ in 0..2 {
            assert_eq!(*cx.atom_at(&closed, &v).unwrap(), Residual::True);
        }
        let after = cx.stats();
        assert_eq!(after.memo_lookups, before.memo_lookups);
        assert_eq!(
            (after.query_evals, after.query_memo_hits),
            (before.query_evals + 1, before.query_memo_hits + 1)
        );
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

    /// A generated closed term of depth at most `depth`: constants of every
    /// kind (`Null` and times included), the clock, arithmetic, and ground
    /// query applications with constant and computed arguments — `val(k)`,
    /// `val(1 + 1)`, `val(time)` — of a query redefined at every state
    /// (`r()`) and of one never defined (`nope()`).
    fn gen_term(rng: &mut StdRng, depth: u32) -> Term {
        use tdb_relation::ArithOp;
        let pick = rng.random_range(0..if depth == 0 { 8 } else { 12 });
        let sub = |rng: &mut StdRng| gen_term(rng, depth.saturating_sub(1));
        match pick {
            0 => Term::Const(gen_value(rng)),
            1 => Term::Time,
            2..=4 => Term::query("val", vec![Term::lit(rng.random_range(0..5i64))]),
            5 => Term::query("r", vec![]),
            6 => Term::query("nope", vec![]),
            7 => Term::query(
                "val",
                vec![match rng.random_range(0..3) {
                    0 => Term::Time,
                    1 => Term::arith(ArithOp::Add, Term::lit(1i64), Term::lit(1i64)),
                    _ => Term::Abs(Box::new(Term::lit(-3i64))),
                }],
            ),
            8 => Term::Neg(Box::new(sub(rng))),
            9 => Term::Abs(Box::new(sub(rng))),
            _ => {
                let op = [
                    ArithOp::Add,
                    ArithOp::Sub,
                    ArithOp::Mul,
                    ArithOp::Div,
                    ArithOp::Mod,
                ][rng.random_range(0..5)];
                let a = sub(rng);
                Term::arith(op, a, sub(rng))
            }
        }
    }

    fn gen_value(rng: &mut StdRng) -> Value {
        match rng.random_range(0..6) {
            0 => Value::Int(rng.random_range(-3..=3i64)),
            1 => Value::float(rng.random_range(-6..=6i64) as f64 / 2.0),
            2 => Value::str(["a", "b"][rng.random_range(0..2)]),
            3 => Value::Null,
            4 => Value::Time(Timestamp(rng.random_range(0..4i64))),
            _ => Value::Int(rng.random_range(0..3i64)),
        }
    }

    /// A generated state: `T(k, v)` holds a generated value under some of
    /// the keys 0–3, `val(k)` reads it, `r()` reads key 0 or key 1 or is
    /// undefined, and the clock is generated.
    fn gen_state(rng: &mut StdRng) -> SystemState {
        let mut rows = Vec::new();
        for k in 0..4i64 {
            if rng.random_range(0..4) > 0 {
                rows.push(Tuple::new(vec![Value::Int(k), gen_value(rng)]));
            }
        }
        let mut db = Database::new();
        db.create_relation(
            "T",
            Relation::from_rows(Schema::untyped(&["k", "v"]), rows).unwrap(),
        )
        .unwrap();
        db.define_query(
            "val",
            QueryDef::new(1, parse_query("select v from T where k = $0").unwrap()),
        );
        if let Some(k) = [Some(0), Some(1), None][rng.random_range(0..3)] {
            let q = format!("select v from T where k = {k}");
            db.define_query("r", QueryDef::new(0, parse_query(&q).unwrap()));
        }
        let t = Timestamp(rng.random_range(0..4i64));
        SystemState::new(db, EventSet::new(), t)
    }

    /// The compiled path equals `parteval_atom`: over generated closed
    /// comparisons at generated states — a state's index sometimes repeated
    /// over a new database, every atom evaluated in a generated order, some
    /// twice — an interned atom of a long-lived context gives the residual
    /// (this context's canonical `true`/`false`), or the error, that
    /// building both sides' partial terms and comparing them with `rcmp`
    /// gives in a fresh context, and so does `parteval_atom`. No closed
    /// comparison consults the atom memo.
    #[test]
    fn compiled_closed_comparisons_equal_parteval_atom() {
        const OPS: [CmpOp; 6] = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Ge,
            CmpOp::Gt,
        ];
        let mut rng = StdRng::seed_from_u64(48);
        let (mut checked, mut failed) = (0, 0);
        for _ in 0..300 {
            let cx = ctx();
            let atoms: Vec<(Formula, Arc<Atom>)> = (0..6)
                .map(|_| {
                    let op = OPS[rng.random_range(0..6)];
                    let a = gen_term(&mut rng, 2);
                    let f = Formula::cmp(op, a, gen_term(&mut rng, 2));
                    (f.clone(), intern(&cx, f))
                })
                .collect();
            let mut index = 0;
            for _ in 0..6 {
                let s = gen_state(&mut rng);
                index += rng.random_range(0..2usize);
                let v = StateView::new(&s, index);
                for _ in 0..atoms.len() + 3 {
                    let (f, atom) = &atoms[rng.random_range(0..atoms.len())];
                    let Formula::Cmp(op, a, b) = f else {
                        unreachable!("generated atoms are comparisons")
                    };
                    let fresh = ctx();
                    let fv = StateView::new(&s, index);
                    let expected = (fresh.build_pterm(a, &fv))
                        .and_then(|a| Ok((a, fresh.build_pterm(b, &fv)?)))
                        .and_then(|(a, b)| fresh.rcmp(*op, a, b));
                    let direct = rng.random_range(0..3) == 0;
                    let got = if direct {
                        cx.parteval_atom(f, &v)
                    } else {
                        cx.atom_at(atom, &v)
                    };
                    match (got, expected) {
                        (Ok(x), Ok(y)) => {
                            let canonical = match *y {
                                Residual::True => cx.rtrue(),
                                Residual::False => cx.rfalse(),
                                ref other => panic!("{f}: closed comparison gave {other}"),
                            };
                            assert!(Arc::ptr_eq(&x, &canonical), "{f} at {index}: {x} vs {y}");
                            checked += 1;
                        }
                        (x, y) => {
                            assert_eq!(x.err(), y.err(), "{f} at {index}");
                            failed += 1;
                        }
                    }
                }
            }
            assert_eq!(
                cx.stats().memo_lookups,
                0,
                "a closed comparison hit the memo"
            );
        }
        assert!(
            checked > 1000 && failed > 1000,
            "{checked} verdicts, {failed} errors"
        );
    }
}

//! The incremental condition-evaluation algorithm (Section 5, Theorem 1).
//!
//! For every subformula `g` of the (core-form) condition the evaluator
//! keeps the formula state `F_{g,i}` as a [`Residual`]. Processing the i-th
//! system state computes all `F_{g,i}` from the current state and the
//! `F_{g,i-1}` alone:
//!
//! ```text
//! F_{atom,i}        = parteval(atom, s_i)
//! F_{¬g,i}          = ¬F_{g,i}
//! F_{g∧h,i}         = F_{g,i} ∧ F_{h,i}        (similarly ∨)
//! F_{Lasttime g,i}  = F_{g,i-1}                (false at i = 0)
//! F_{g Since h,i}   = F_{h,i} ∨ (F_{g,i} ∧ F_{g Since h,i-1})
//! F_{[x:=t]g,i}     = F_{g,i}[x ↦ value of t at s_i]
//! A_i               = (F_{φ,i} ? ∅ : A_{i-1}) ⊕ (F_{ψ,i} ? {q_i} : ∅)
//! ```
//!
//! The last line is a temporal aggregate `f(q; φ; ψ)` (Section 6): its
//! formula state is an accumulator slot `A`, not a residual, and the atom
//! that reads it gets `f(A_i)` substituted the way an assignment is.
//!
//! after which every `F_{g,i-1}` is discarded — per update the algorithm
//! looks only at the new system state, never the history. The trigger fires
//! at state `i` iff `F_{f,i}` is satisfiable; satisfying assignments of the
//! free variables are the firing parameters.
//!
//! With `pruning` enabled the Section 5 optimization runs after every
//! advance, collapsing dead time-variable clauses so that conditions built
//! from bounded temporal operators retain only bounded state.
//!
//! A rule's evaluator also knows what each atom reads — its
//! [`ReadSet`], resolved through the catalog — so
//! [`IncrementalEvaluator::advance_with`] re-runs the recurrences only above
//! the atoms a state's delta touched: `F_{atom,i} = F_{atom,i-1}` whenever
//! the atom's inputs did not change.
//!
//! On a closed subformula `F_{g,i}` is just `true` or `false`, so the
//! kernel decides constants before the residual arena: connectives and
//! `Since` steps go through [`EvalContext::junction`], which answers the
//! constant and single-child cases itself and hands only two or more
//! symbolic children to `rand`/`ror`, and assignment and aggregate terms
//! fold straight to values ([`crate::parteval`]). Every result is the very
//! canonical `Arc` the constructors would return. A `Since` step that does
//! reach them is computed once per state and operands for the whole
//! tenant: the rules that hold the same operands get it from the context's
//! computed table (`EvalContext::since_at`).
//!
//! A closed comparison atom (no variable on either side) is compiled once,
//! when [`CompileTables`] interns it: each query application with constant
//! arguments becomes a slot number of the context's query slots. At a
//! state the atom is its slot reads and one `CmpOp::eval` — no atom memo,
//! no lookup by name — in both [`IncrementalEvaluator::advance_with`] and
//! [`IncrementalEvaluator::unmoved_at`]. It is exact: it gives the residual
//! `parteval_atom` gives, or its error, at the same evaluation, because
//! the sides are read left to right and any other closed side (arithmetic,
//! the clock, computed arguments) goes through the one `closed_value`,
//! whose query applications read the very same slots; a slot holds a value
//! only for the state its generation stamp names, so a query redefined or
//! a database changed between states is read again, and a failed
//! evaluation (an undefined query) is not remembered and fails again.
//! Atoms with a variable, memberships and event atoms keep the memo path.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

use tdb_analysis::{ReadSet, Resource};
use tdb_engine::SystemState;
use tdb_ptl::{analysis, to_core, Formula, PtlError, TemporalAgg, Term};
use tdb_relation::{Accumulator, AggFunc, Database, Delta, Timestamp, Value};

use crate::context::{locked, EvalContext};
use crate::error::{CoreError, Result};
use crate::parteval::{Atom, QuerySlots, StateView};
use crate::residual::{collect_residual_vars, residual_size, Env, Junction, Residual};

/// Evaluator configuration.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Apply the monotone-clock pruning optimization after each state.
    pub pruning: bool,
    /// Hard cap on the total retained residual size, as a safety net for
    /// unbounded conditions.
    pub max_residual: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            pruning: true,
            max_residual: 1_000_000,
        }
    }
}

/// The durable part of an evaluator: the per-node formula states `F_{g,i}`.
/// By Theorem 1 this is a sufficient statistic of the whole history, so a
/// checkpoint that saves it (plus the current database) can resume exactly
/// where the evaluator left off.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluatorState {
    /// `F_{g,i}` per subformula node, in compilation order.
    pub prev: Vec<Arc<Residual>>,
    /// Per temporal aggregate, in compilation order: its accumulator, `None`
    /// until its starting formula first held.
    pub slots: Vec<Option<Accumulator>>,
    /// Whether any state has been processed yet.
    pub started: bool,
    /// Number of system states processed.
    pub states_seen: usize,
}

/// One node of the flattened subformula DAG (children precede parents).
/// Atoms are interned per [`EvalContext`] (see [`CompileTables`]) so that
/// the same atom occurring in different rules of one tenant is one `Arc` —
/// the pointer identity keys the cross-rule per-state memo in
/// [`crate::parteval`], and a closed comparison is compiled once.
#[derive(Debug, Clone)]
enum Node {
    Atom(Arc<Atom>),
    Not(usize),
    And(Vec<usize>),
    Or(Vec<usize>),
    Lasttime(usize),
    Since(usize, usize),
    Assign {
        var: String,
        term: Term,
        body: usize,
    },
    /// A temporal aggregate lifted out of the atom (or assignment) `body`,
    /// which reads it as `var`; `start` and `sample` are its φ and ψ, and
    /// `slot` indexes its accumulator.
    Agg {
        var: String,
        agg: Box<TemporalAgg>,
        start: usize,
        sample: usize,
        body: usize,
        slot: usize,
    },
}

/// A compiled condition: the subformula DAG plus its time-variable set.
/// Compilation is a pure function of the core formula, so programs are
/// shared within a context — a thousand rules instantiated from the same
/// condition template compile once and share one node array.
#[derive(Debug, Clone)]
struct Program {
    nodes: Arc<[Node]>,
    time_vars: Arc<BTreeSet<String>>,
    /// What the nodes read, once a registration resolved it against the
    /// catalog.
    reads: Option<Arc<Reads>>,
}

/// What a program's nodes read, and what follows from that for the clock;
/// computed once at resolve and shared by every evaluator of the program.
#[derive(Debug)]
struct Reads {
    /// Per node, what its atom, assignment term or aggregate query reads
    /// (nothing, for the connectives; an aggregate's φ and ψ are nodes of
    /// their own). A state whose delta misses an atom's set leaves its
    /// partial evaluation what it was at the state before.
    sets: Box<[ReadSet]>,
    /// Per node, whether that read includes the clock; empty when no
    /// node's does, so a program that reads no clock carries nothing.
    clock: Box<[bool]>,
    /// Per node, whether it is a *dead slot*: a clock-reading atom no
    /// `Lasttime` reads back. Its `F_{g,i-1}` is read only to ask whether
    /// it moved, so a fixpoint skip may leave it stale. Empty with `clock`.
    dead: Box<[bool]>,
}

impl Reads {
    fn new(nodes: &[Node], sets: Vec<ReadSet>) -> Reads {
        let clock: Box<[bool]> = sets.iter().map(|r| r.contains(&Resource::Clock)).collect();
        let clock = if clock.contains(&true) {
            clock
        } else {
            Box::default()
        };
        let mut dead: Box<[bool]> = (nodes.iter().zip(&clock))
            .map(|(node, &c)| c && matches!(node, Node::Atom(_)))
            .collect();
        for node in nodes {
            if let (Node::Lasttime(g), false) = (node, dead.is_empty()) {
                dead[*g] = false;
            }
        }
        Reads {
            sets: sets.into(),
            clock,
            dead,
        }
    }

    fn dead(&self, id: usize) -> bool {
        self.dead.get(id) == Some(&true)
    }

    fn clock(&self, id: usize) -> bool {
        self.clock.get(id) == Some(&true)
    }
}

/// Size the intern tables may reach before entries nobody else holds are
/// swept (and the floor the threshold re-arms at).
const COMPILE_MIN_WATERMARK: usize = 1024;

/// One context's atom intern table and compiled-program cache. Both hold
/// their entries strongly; what keeps them bounded by the tenant's *live*
/// rules is a sweep, once the tables outgrow a watermark, of every entry
/// only the tables still own (a rule whose registration failed after it
/// compiled, say), and with it of the query slots only swept atoms named.
/// Existing `Arc`s stay valid either way — sharing simply restarts for a
/// swept shape.
pub(crate) struct CompileTables {
    programs: HashMap<Formula, Program>,
    /// Structurally identical atoms — within one rule or across the
    /// tenant's rules — share one allocation and one compiled form. The
    /// pointer identity keys the per-state atom memo, which is what lets
    /// rule `B` reuse the partial evaluation rule `A` just paid for.
    atoms: HashMap<Formula, Arc<Atom>>,
    watermark: usize,
}

impl Default for CompileTables {
    fn default() -> CompileTables {
        CompileTables {
            programs: HashMap::new(),
            atoms: HashMap::new(),
            watermark: COMPILE_MIN_WATERMARK,
        }
    }
}

/// Registry handle for the intern-table eviction counter. Touched only
/// while [`tdb_obs::enabled`].
fn eviction_counter() -> &'static tdb_obs::Counter {
    static COUNTER: OnceLock<tdb_obs::Counter> = OnceLock::new();
    COUNTER.get_or_init(|| tdb_obs::global().counter("tdb_cache_evictions_total"))
}

impl CompileTables {
    fn intern_atom(&mut self, f: &Formula, slots: &mut QuerySlots) -> Arc<Atom> {
        if let Some(a) = self.atoms.get(f) {
            return a.clone();
        }
        let a = Arc::new(Atom::compile(f, slots));
        self.atoms.insert(f.clone(), a.clone());
        a
    }

    /// Drops programs, then atoms, that only the tables reference, then
    /// the query slots no remaining atom names.
    fn sweep_if_due(&mut self, slots: &mut QuerySlots) {
        let before = self.programs.len() + self.atoms.len();
        if before <= self.watermark {
            return;
        }
        self.programs.retain(|_, p| Arc::strong_count(&p.nodes) > 1);
        self.atoms.retain(|_, a| Arc::strong_count(a) > 1);
        slots.repin(self.atoms.values());
        let after = self.programs.len() + self.atoms.len();
        self.watermark = (after * 2).max(COMPILE_MIN_WATERMARK);
        if tdb_obs::enabled() {
            eviction_counter().add((before - after) as u64);
        }
    }
}

/// Compiles a core-form condition, reusing the context's program cache.
/// With a catalog, the cached program also learns what its atoms read.
fn compile_program(ctx: &EvalContext, core: &Formula, db: Option<&Database>) -> Result<Program> {
    let mut tables = locked(&ctx.compiled);
    let (mut program, mut changed) = match tables.programs.get(core) {
        Some(p) => (p.clone(), false),
        None => {
            let mut nodes = Vec::new();
            let mut memo = HashMap::new();
            let mut atom_memo = locked(&ctx.memo);
            let slots = &mut atom_memo.slots;
            build_nodes(core, &mut tables, slots, &mut nodes, &mut memo)?;
            tables.sweep_if_due(slots);
            let time_vars = Arc::new(analysis::time_vars(core));
            let program = Program {
                nodes: nodes.into(),
                time_vars,
                reads: None,
            };
            (program, true)
        }
    };
    if let Some(db) = db {
        let sets = program
            .nodes
            .iter()
            .map(|node| {
                let reads = match node {
                    Node::Atom(a) => ReadSet::of(&a.formula),
                    Node::Assign { term, .. } => ReadSet::of_term(term),
                    Node::Agg { agg, .. } => ReadSet::of_term(&agg.query),
                    _ => return Ok(ReadSet::default()),
                };
                Ok(reads.resolve(db)?)
            })
            .collect::<Result<Vec<_>>>()?;
        if program.reads.as_ref().map(|r| &*r.sets) != Some(&sets[..]) {
            program.reads = Some(Arc::new(Reads::new(&program.nodes, sets)));
            changed = true;
        }
    }
    if changed {
        tables.programs.insert(core.clone(), program.clone());
    }
    Ok(program)
}

/// The incremental evaluator for one condition.
///
/// The compiled program is immutable after compilation and shared behind
/// `Arc`s, so cloning an evaluator (the gate path speculatively advances a
/// clone per pending commit) costs a few reference bumps plus a shallow
/// copy of the `prev` vector — it never copies formula structure.
#[derive(Debug)]
pub struct IncrementalEvaluator {
    /// Where this evaluator's residuals are interned and its atoms
    /// memoised: the owning tenant's context.
    ctx: Arc<EvalContext>,
    program: Program,
    cfg: EvalConfig,
    /// `F_{g,i-1}` per node, next to its residual size (what
    /// [`IncrementalEvaluator::retained_size`] sums, cached with the very
    /// `Arc` it measures); meaningful once `started`.
    prev: Vec<(Arc<Residual>, usize)>,
    /// Recycled buffer for the next advance's `F_{g,i}`.
    scratch: Vec<(Arc<Residual>, usize)>,
    /// Last value each `Assign` node's ground term evaluated to, which an
    /// advance whose delta misses the term re-substitutes, and each `Agg`
    /// node substituted.
    assign_vals: Vec<Option<Value>>,
    /// The accumulators of the `Agg` nodes, by slot.
    slots: Vec<Option<Accumulator>>,
    /// Index of the state the formula states were last advanced to (a
    /// fixpoint skip counts); `None` until an advance succeeds, and after an
    /// import. Only an advance at the next index may keep atoms.
    last_index: Option<usize>,
    /// See [`IncrementalEvaluator::at_sparse_fixpoint`].
    at_fixpoint: bool,
    started: bool,
    states_seen: usize,
}

/// Written out so that `clone_from` copies field by field into the
/// vectors the target already holds, and neither form copies `scratch`.
impl Clone for IncrementalEvaluator {
    fn clone(&self) -> IncrementalEvaluator {
        IncrementalEvaluator {
            ctx: Arc::clone(&self.ctx),
            program: self.program.clone(),
            cfg: self.cfg.clone(),
            prev: self.prev.clone(),
            scratch: Vec::new(),
            assign_vals: self.assign_vals.clone(),
            slots: self.slots.clone(),
            last_index: self.last_index,
            at_fixpoint: self.at_fixpoint,
            started: self.started,
            states_seen: self.states_seen,
        }
    }

    fn clone_from(&mut self, source: &IncrementalEvaluator) {
        self.ctx.clone_from(&source.ctx);
        self.program.clone_from(&source.program);
        self.cfg.clone_from(&source.cfg);
        self.prev.clone_from(&source.prev);
        self.assign_vals.clone_from(&source.assign_vals);
        self.slots.clone_from(&source.slots);
        self.last_index = source.last_index;
        self.at_fixpoint = source.at_fixpoint;
        self.started = source.started;
        self.states_seen = source.states_seen;
    }
}

impl IncrementalEvaluator {
    /// Compiles a condition into a fresh private [`EvalContext`] — the
    /// stand-alone form (benches, baselines, tests). Evaluators that belong
    /// to a tenant are compiled with [`IncrementalEvaluator::new_in`].
    pub fn new(f: &Formula, cfg: EvalConfig) -> Result<IncrementalEvaluator> {
        IncrementalEvaluator::new_in(f, cfg, &Arc::new(EvalContext::new()))
    }

    /// Compiles a condition into `ctx`. The formula is rewritten to core
    /// form; it must pass the single-assignment check, and assignment terms
    /// must be ground. Every advance evaluates every atom.
    pub fn new_in(
        f: &Formula,
        cfg: EvalConfig,
        ctx: &Arc<EvalContext>,
    ) -> Result<IncrementalEvaluator> {
        IncrementalEvaluator::compile_into(f, cfg, ctx, None)
    }

    /// [`IncrementalEvaluator::new_in`] for a rule: also resolves, through
    /// `db`'s query definitions, what each atom and assignment term reads,
    /// so [`IncrementalEvaluator::advance_with`] can keep the atoms a
    /// state's delta misses.
    pub fn new_for_catalog(
        f: &Formula,
        cfg: EvalConfig,
        ctx: &Arc<EvalContext>,
        db: &Database,
    ) -> Result<IncrementalEvaluator> {
        IncrementalEvaluator::compile_into(f, cfg, ctx, Some(db))
    }

    fn compile_into(
        f: &Formula,
        cfg: EvalConfig,
        ctx: &Arc<EvalContext>,
        db: Option<&Database>,
    ) -> Result<IncrementalEvaluator> {
        analysis::check_single_assignment(f)?;
        let program = compile_program(ctx, &to_core(f), db)?;
        let n = program.nodes.len();
        let aggs = program
            .nodes
            .iter()
            .filter(|node| matches!(node, Node::Agg { .. }));
        Ok(IncrementalEvaluator {
            ctx: Arc::clone(ctx),
            slots: vec![None; aggs.count()],
            program,
            cfg,
            prev: vec![(ctx.rfalse(), residual_size(&ctx.rfalse())); n],
            scratch: Vec::new(),
            assign_vals: vec![None; n],
            last_index: None,
            at_fixpoint: false,
            started: false,
            states_seen: 0,
        })
    }

    /// Compiles with the default configuration.
    pub fn compile(f: &Formula) -> Result<IncrementalEvaluator> {
        IncrementalEvaluator::new(f, EvalConfig::default())
    }

    /// Total size of the retained formula states — the quantity the
    /// Section 5 optimization keeps bounded (experiment E2).
    pub fn retained_size(&self) -> usize {
        self.prev.iter().map(|(_, size)| size).sum()
    }

    /// Whether `other` holds, slot for slot, the very same formula states.
    /// Residuals are hash-consed, so for two evaluators of one condition
    /// in one context pointer equality here (and equal accumulators) is
    /// equality of everything a further [`IncrementalEvaluator::advance`]
    /// reads: both will map equal states to equal results from now on.
    /// Dead slots are not compared: no advance reads them back.
    pub fn same_formula_states(&self, other: &IncrementalEvaluator) -> bool {
        self.started == other.started
            && self.slots == other.slots
            && self.prev.len() == other.prev.len()
            && (self.prev.iter().zip(&other.prev).enumerate())
                .all(|(id, ((a, _), (b, _)))| Arc::ptr_eq(a, b) || self.dead(id))
    }

    /// Extracts the formula states for checkpointing, a dead slot as
    /// `false`: a fixpoint skip leaves it stale, and nothing reads it after
    /// an import.
    pub fn export_state(&self) -> EvaluatorState {
        let mut prev: Vec<_> = self.prev.iter().map(|(r, _)| r.clone()).collect();
        for (_, r) in prev.iter_mut().enumerate().filter(|(id, _)| self.dead(*id)) {
            *r = self.ctx.rfalse();
        }
        EvaluatorState {
            prev,
            slots: self.slots.clone(),
            started: self.started,
            states_seen: self.states_seen,
        }
    }

    /// Installs formula states exported from an evaluator compiled from the
    /// same condition — by any context: the residuals are re-interned into
    /// this evaluator's own, so a decoded checkpoint or another tenant's
    /// snapshot regains the in-memory sharing here. Fails if the node or
    /// slot count disagrees (the snapshot came from a different formula).
    pub fn import_state(&mut self, mut st: EvaluatorState) -> Result<()> {
        if (st.prev.len(), st.slots.len()) != (self.prev.len(), self.slots.len()) {
            return Err(CoreError::RestoreMismatch(format!(
                "evaluator has {} subformula nodes and {} aggregate slots but snapshot carries {} and {}",
                self.prev.len(),
                self.slots.len(),
                st.prev.len(),
                st.slots.len()
            )));
        }
        self.slots = std::mem::take(&mut st.slots);
        self.ctx.intern_all(&mut st.prev);
        self.prev = st
            .prev
            .into_iter()
            .map(|r| (r.clone(), residual_size(&r)))
            .collect();
        self.started = st.started;
        self.states_seen = st.states_seen;
        // Neither the index the states were taken at nor the term values
        // are durable: the next advance evaluates every atom.
        self.last_index = None;
        self.at_fixpoint = false;
        Ok(())
    }

    /// What the condition reads: the union of its nodes' read sets (empty
    /// unless compiled by [`IncrementalEvaluator::new_for_catalog`]).
    pub(crate) fn reads(&self) -> ReadSet {
        let mut all = ReadSet::default();
        for r in self
            .program
            .reads
            .iter()
            .flat_map(|reads| reads.sets.iter())
        {
            all.union(r);
        }
        all
    }

    /// Whether node `id` is a dead slot (see `Reads::dead`).
    fn dead(&self, id: usize) -> bool {
        self.program.reads.as_ref().is_some_and(|r| r.dead(id))
    }

    /// The node of the temporal aggregate that the assignment
    /// `[var := f(q; φ; ψ)]` binds.
    pub(crate) fn aggregate_node(&self, var: &str) -> Option<usize> {
        (self.program.nodes.iter())
            .position(|node| matches!(node, Node::Agg { var: v, .. } if v == var))
    }

    /// The value, at the last state processed, of the aggregate at `node`.
    pub(crate) fn aggregate_value(&self, node: usize) -> Option<Value> {
        match self.program.nodes.get(node)? {
            Node::Agg { agg, slot, .. } => Some(slot_value(agg.func, &self.slots[*slot])),
            _ => None,
        }
    }

    /// Processes one new system state, evaluating every atom, and returns
    /// `F_{f,i}` for the whole condition.
    pub fn advance(&mut self, state: &SystemState, index: usize) -> Result<Arc<Residual>> {
        self.advance_with(state, index, None)
    }

    /// The advance kernel: processes state `index` and returns `F_{f,i}`.
    /// Given the state's `delta`, an evaluator compiled by
    /// [`IncrementalEvaluator::new_for_catalog`] whose last advance was at
    /// `index - 1` re-evaluates only what the delta touched, and ends in the
    /// formula states a full evaluation would:
    ///
    /// * an atom whose read set the delta misses keeps `F_{atom,i-1}` (an
    ///   event atom is `false`) — one that captured a snapshot, which would
    ///   now name this state, only while no atom of the condition is touched;
    /// * an `Assign` whose term is untouched re-substitutes its cached value;
    /// * a connective whose children all kept their `F_{g,i-1}` is copied,
    ///   and so is an aggregate whose value did not move;
    /// * `Lasttime`, `Since` and aggregate slots run their recurrences as
    ///   always: ψ may hold at a state the delta misses, so a slot is never
    ///   kept by read set, and a sample is work (the rule is not idle).
    ///
    /// Without a delta, across a gap (§8 relevance filtering skips states per
    /// rule) and after an import, every atom is evaluated.
    pub fn advance_with(
        &mut self,
        state: &SystemState,
        index: usize,
        delta: Option<&Delta>,
    ) -> Result<Arc<Residual>> {
        let view = StateView::new(state, index);
        let contiguous = index
            .checked_sub(1)
            .is_some_and(|i| self.last_index == Some(i));
        self.last_index = None;
        self.at_fixpoint = false;
        let mut cur = std::mem::take(&mut self.scratch);
        cur.clear();
        // The accumulators advance in a copy, installed with `cur`: a failed
        // advance leaves the formula states as they were.
        let mut slots = self.slots.clone();
        // Field-wise borrows: the program is read while the assign cache is
        // written, without bumping the (shared) program's refcounts.
        let IncrementalEvaluator {
            ctx,
            program,
            prev,
            assign_vals,
            started,
            ..
        } = self;
        let keep = match (delta, &program.reads) {
            (Some(delta), Some(reads)) if contiguous => Some((delta, &*reads.sets)),
            _ => None,
        };
        // Whether the delta misses every atom and assignment term (a slot is
        // not kept by read set): asked by snapshot atoms only.
        let mut quiet = None;
        let (mut evaluated, mut reused, mut moved) = (0, 0, false);
        for (id, node) in program.nodes.iter().enumerate() {
            let copy = |gs: &[usize]| {
                keep.is_some() && gs.iter().all(|&g| Arc::ptr_eq(&cur[g].0, &prev[g].0))
            };
            let r = match node {
                Node::Atom(a) => {
                    let kept = keep.is_some_and(|(delta, reads)| {
                        !reads[id].touched_by(delta)
                            && (!reads[id].snapshot()
                                || *quiet.get_or_insert_with(|| {
                                    (program.nodes.iter().zip(reads)).all(|(node, r)| {
                                        matches!(node, Node::Agg { .. }) || !r.touched_by(delta)
                                    })
                                }))
                    });
                    *if kept { &mut reused } else { &mut evaluated } += 1;
                    match a.formula {
                        _ if !kept => {
                            let r = ctx.atom_at(a, &view)?;
                            // An event that holds reverts at the next state
                            // that does not raise it, however equal its slot.
                            moved |= matches!(a.formula, Formula::Event { .. })
                                && !matches!(*r, Residual::False);
                            r
                        }
                        Formula::Event { .. } => ctx.rfalse(),
                        _ => prev[id].0.clone(),
                    }
                }
                Node::Not(g) if copy(&[*g]) => prev[id].0.clone(),
                Node::And(gs) | Node::Or(gs) if copy(gs) => prev[id].0.clone(),
                Node::Not(g) => ctx.rnot(cur[*g].0.clone()),
                Node::And(gs) => ctx.junction(gs.iter().map(|&g| &cur[g].0), Junction::And),
                Node::Or(gs) => ctx.junction(gs.iter().map(|&g| &cur[g].0), Junction::Or),
                Node::Lasttime(g) if *started => prev[*g].0.clone(),
                Node::Lasttime(_) => ctx.rfalse(),
                Node::Since(g, h) if *started => {
                    ctx.since_at(&view, &cur[*g].0, &cur[*h].0, &prev[id].0)
                }
                Node::Since(_, h) => cur[*h].0.clone(),
                Node::Assign { var, term, body } => {
                    let cached = keep
                        .filter(|(delta, reads)| !reads[id].touched_by(delta))
                        .and(assign_vals[id].as_ref());
                    match cached {
                        Some(_) if copy(&[*body]) => prev[id].0.clone(),
                        Some(v) => ctx.subst(&cur[*body].0, var, v)?,
                        None => {
                            let v = ctx.term_value(term, &view)?;
                            let r = ctx.subst(&cur[*body].0, var, &v)?;
                            assign_vals[id] = Some(v);
                            r
                        }
                    }
                }
                Node::Agg {
                    var,
                    agg,
                    start,
                    sample,
                    body,
                    slot,
                } => {
                    let acc = &mut slots[*slot];
                    if matches!(*cur[*start].0, Residual::True) {
                        // A restart moves the slot as a sample does.
                        moved = true;
                        *acc = Some(Accumulator::new(agg.func));
                    }
                    let sampled = matches!(*cur[*sample].0, Residual::True);
                    if let Some(acc) = acc.as_mut().filter(|_| sampled) {
                        moved = true;
                        acc.push(&ctx.term_value(&agg.query, &view)?)?;
                    }
                    let v = slot_value(agg.func, &slots[*slot]);
                    if copy(&[*body]) && assign_vals[id].as_ref() == Some(&v) {
                        prev[id].0.clone()
                    } else {
                        let r = ctx.subst(&cur[*body].0, var, &v)?;
                        assign_vals[id] = Some(v);
                        r
                    }
                }
            };
            cur.push((r, 0));
        }
        locked(&ctx.memo).count(|c| {
            c.atom_evals += evaluated;
            c.atoms_reused += reused;
        });
        // Idle: no raised event holds and no slot moved. Whether every atom
        // came out as its slot did is `finish_advance`'s `same`.
        let idle = keep.is_some() && !moved;
        self.finish_advance(cur, slots, state.time(), idle, index)
    }

    /// Whether the evaluator advanced since it was compiled or imported:
    /// only then is a step its read set misses a sparse advance.
    pub fn sparse_ready(&self) -> bool {
        self.last_index.is_some()
    }

    /// Whether the last advance was at `index - 1`, kept its atoms as far
    /// as the delta let it, reproduced every live (not dead) slot, raised
    /// no event that holds, moved no aggregate and absorbed the clock.
    /// State `index` is then provably the identity if its delta misses the
    /// read set, or if [`IncrementalEvaluator::unmoved_at`] says it moves
    /// nothing, and the caller may account for it with
    /// [`IncrementalEvaluator::note_noop_states`].
    pub fn at_sparse_fixpoint(&self, index: usize) -> bool {
        self.at_fixpoint && index.checked_sub(1) == self.last_index
    }

    /// At the sparse fixpoint, whether state `index` — whose delta touches
    /// the read set — leaves every formula state as it is: each atom and
    /// assignment term the delta touches, evaluated through the per-state
    /// atom memo and query slots (a closed comparison: its slot reads and a
    /// compare), equals its slot (a pointer-equal residual, an equal value).
    /// No, without a look, when the condition has a snapshot-capturing
    /// atom, or the delta touches a node that also reads the clock or an
    /// aggregate's query. An event atom that holds has moved, but it cannot
    /// equal its slot: at the fixpoint every event slot is `false`. A no
    /// costs only the full advance, whose lookups are then memo and slot
    /// hits.
    pub fn unmoved_at(&self, state: &SystemState, index: usize, delta: &Delta) -> Result<bool> {
        let Some(reads) =
            (self.program.reads.as_deref()).filter(|_| self.at_sparse_fixpoint(index))
        else {
            return Ok(false);
        };
        let view = StateView::new(state, index);
        let mut evaluated = 0;
        let mut unmoved = true;
        for (id, node) in self.program.nodes.iter().enumerate() {
            let set = &reads.sets[id];
            unmoved = match node {
                Node::Atom(_) if set.snapshot() => false,
                _ if !set.touched_by_data(delta) => true,
                _ if reads.clock(id) => false,
                Node::Atom(a) => {
                    evaluated += 1;
                    let r = self.ctx.atom_at(a, &view)?;
                    Arc::ptr_eq(&r, &self.prev[id].0)
                }
                Node::Assign { term, .. } => {
                    self.assign_vals[id].as_ref() == Some(&self.ctx.term_value(term, &view)?)
                }
                _ => false,
            };
            if !unmoved {
                break;
            }
        }
        locked(&self.ctx.memo).count(|c| c.atom_evals += evaluated);
        Ok(unmoved)
    }

    /// Accounts for `n` consecutive states at a sparse fixpoint, each
    /// missing the read set or moving nothing, in O(1): a rule untouched by
    /// a whole commit batch costs the batch one call, whatever its length.
    pub fn note_noop_states(&mut self, n: usize) {
        debug_assert!(
            self.at_fixpoint,
            "note_noop_states requires a sparse fixpoint"
        );
        self.states_seen += n;
        if let Some(last) = &mut self.last_index {
            *last += n;
        }
    }

    /// Common tail of every advance: Section 5 pruning, sizing (a slot that
    /// kept its residual keeps its size), the retained-size safety cap, the
    /// fixpoint test and the `prev` buffer rotation. `idle`: the advance
    /// kept every atom and term but the clock's, and moved no aggregate.
    fn finish_advance(
        &mut self,
        mut cur: Vec<(Arc<Residual>, usize)>,
        slots: Vec<Option<Accumulator>>,
        now: Timestamp,
        idle: bool,
        index: usize,
    ) -> Result<Arc<Residual>> {
        let time_vars = &self.program.time_vars;
        let prunes = self.cfg.pruning && !time_vars.is_empty();
        let observed = prunes && tdb_obs::enabled();
        let (mut pre, mut total, mut same) = (0, 0, true);
        for (id, ((r, size), (old, old_size))) in cur.iter_mut().zip(&self.prev).enumerate() {
            let size_of = |r: &Arc<Residual>| {
                if Arc::ptr_eq(r, old) {
                    *old_size
                } else {
                    residual_size(r)
                }
            };
            if observed {
                *size = size_of(r);
                pre += *size;
            }
            if prunes {
                let pruned = self.ctx.prune_time(r, now, time_vars);
                if !Arc::ptr_eq(&pruned, r) {
                    (*r, *size) = (pruned, 0);
                }
            }
            if *size == 0 {
                *size = size_of(r);
            }
            same &= Arc::ptr_eq(r, old) || self.dead(id);
            total += *size;
        }
        if observed {
            locked(&self.ctx.memo).count(|c| {
                c.preprune += pre as u64;
                c.postprune += total as u64;
            });
        }
        if total > self.cfg.max_residual {
            return Err(CoreError::ResidualTooLarge {
                limit: self.cfg.max_residual,
                size: total,
            });
        }
        let root = cur.last().map(|(r, _)| r.clone()).ok_or_else(|| {
            CoreError::Ptl(tdb_ptl::PtlError::TypeError("empty condition".into()))
        })?;
        self.at_fixpoint = idle && same && self.clock_absorbed(&cur);
        // `cur` becomes the new `prev`; the old `prev` buffer is recycled
        // for the next advance instead of being reallocated per state.
        self.scratch = std::mem::replace(&mut self.prev, cur);
        self.scratch.clear();
        self.slots = slots;
        self.started = true;
        self.states_seen += 1;
        self.last_index = Some(index);
        Ok(root)
    }

    /// Whether the formula states `cur` no longer depend on the clock: no
    /// live slot mentions a time variable (pruning could still move it),
    /// and neither the root nor any node above the atoms depends on a clock
    /// read. A node depends on one when a child is a clock-reading atom or
    /// its own assignment term or aggregate query reads the clock, unless a
    /// constant from a clock-free child absorbs it — `false ∧ …`,
    /// `true ∨ …`, `… since true` — or an assignment's body does not mention
    /// its variable. With the live slots unchanged, a state that only moves
    /// the clock then reproduces every live slot.
    fn clock_absorbed(&self, cur: &[(Arc<Residual>, usize)]) -> bool {
        let Some(reads) = self.program.reads.as_deref() else {
            return false;
        };
        if reads.clock.is_empty() {
            return true;
        }
        let mentions = |r: &Arc<Residual>, var: &dyn Fn(&String) -> bool| {
            let mut vars = BTreeSet::new();
            collect_residual_vars(r, &mut vars);
            vars.iter().any(var)
        };
        let tv = &self.program.time_vars;
        if !tv.is_empty()
            && (cur.iter().enumerate())
                .any(|(id, (r, _))| !reads.dead(id) && mentions(r, &|v| tv.contains(v)))
        {
            return false;
        }
        let nodes = &self.program.nodes;
        // Every node before the one at hand passed, so only an atom can
        // depend on the clock.
        let ticks = |g: usize| reads.clock[g] && matches!(nodes[g], Node::Atom(_));
        let is = |g: usize, c: &Residual| !ticks(g) && *cur[g].0 == *c;
        nodes.iter().enumerate().all(|(id, node)| !match node {
            Node::Atom(_) => id + 1 == nodes.len() && reads.clock[id],
            Node::Not(g) | Node::Lasttime(g) => ticks(*g),
            Node::And(gs) => {
                gs.iter().any(|&g| ticks(g)) && !gs.iter().any(|&g| is(g, &Residual::False))
            }
            Node::Or(gs) => {
                gs.iter().any(|&g| ticks(g)) && !gs.iter().any(|&g| is(g, &Residual::True))
            }
            Node::Since(g, h) => (ticks(*g) || ticks(*h)) && !is(*h, &Residual::True),
            Node::Assign { var, body, .. } => {
                ticks(*body) || (reads.clock[id] && mentions(&cur[*body].0, &|v| v == var))
            }
            Node::Agg {
                start,
                sample,
                body,
                ..
            } => reads.clock[id] || [start, sample, body].iter().any(|&&g| ticks(g)),
        })
    }

    /// Processes a state and extracts the firing bindings: empty vector if
    /// the condition is unsatisfied, one empty environment for a satisfied
    /// closed condition, one environment per satisfying assignment
    /// otherwise.
    pub fn advance_and_fire(&mut self, state: &SystemState, index: usize) -> Result<Vec<Env>> {
        let root = self.advance(state, index)?;
        self.ctx.solve(&root)
    }

    /// The context this evaluator interns into.
    pub fn context(&self) -> &Arc<EvalContext> {
        &self.ctx
    }
}

/// Compiles the formula into a flat node list, children before parents.
/// Structurally identical subformulas share one node (and therefore one
/// `F_{g,i}` slot): by Theorem 1 the formula state is a function of the
/// subformula and the history alone, not of the occurrence site, so the
/// sharing is semantics-preserving and shrinks both per-state work and
/// checkpoint payloads.
fn build_nodes(
    f: &Formula,
    tables: &mut CompileTables,
    slots: &mut QuerySlots,
    nodes: &mut Vec<Node>,
    memo: &mut HashMap<Formula, usize>,
) -> Result<usize> {
    if let Some(&id) = memo.get(f) {
        return Ok(id);
    }
    // A temporal aggregate is a slot that a comparison reads, or that an
    // assignment binds; a generator or event pattern cannot wait for one.
    let misplaced = match f {
        Formula::Member { source, pattern } => {
            source.args.iter().chain(pattern).any(Term::has_aggregate)
        }
        Formula::Event { pattern, .. } => pattern.iter().any(Term::has_aggregate),
        Formula::Assign { term, .. } => !matches!(term, Term::Agg(_)) && term.has_aggregate(),
        _ => false,
    };
    if misplaced {
        return Err(CoreError::Ptl(PtlError::TypeError(format!(
            "a temporal aggregate may only be compared or assigned: `{f}`"
        ))));
    }
    let node = match f {
        Formula::Cmp(op, a, b) if a.has_aggregate() || b.has_aggregate() => {
            // Each aggregate becomes a variable of the comparison, bound by
            // a slot wrapped around it.
            let mut aggs = Vec::new();
            let lifted = Formula::Cmp(*op, lift(a, "#agg", &mut aggs), lift(b, "#agg", &mut aggs));
            let mut id = build_nodes(&lifted, tables, slots, nodes, memo)?;
            for (k, agg) in aggs.iter().enumerate() {
                let node = agg_node(format!("#agg{k}"), agg, id, tables, slots, nodes, memo)?;
                nodes.push(node);
                id = nodes.len() - 1;
            }
            memo.insert(f.clone(), id);
            return Ok(id);
        }
        Formula::Assign {
            var,
            term: Term::Agg(agg),
            body,
        } => {
            let body = build_nodes(body, tables, slots, nodes, memo)?;
            agg_node(var.clone(), agg, body, tables, slots, nodes, memo)?
        }
        Formula::True
        | Formula::False
        | Formula::Cmp(..)
        | Formula::Member { .. }
        | Formula::Event { .. } => Node::Atom(tables.intern_atom(f, slots)),
        Formula::Not(g) => Node::Not(build_nodes(g, tables, slots, nodes, memo)?),
        Formula::And(gs) => {
            let ids = gs
                .iter()
                .map(|g| build_nodes(g, tables, slots, nodes, memo))
                .collect::<Result<_>>()?;
            Node::And(ids)
        }
        Formula::Or(gs) => {
            let ids = gs
                .iter()
                .map(|g| build_nodes(g, tables, slots, nodes, memo))
                .collect::<Result<_>>()?;
            Node::Or(ids)
        }
        Formula::Lasttime(g) => Node::Lasttime(build_nodes(g, tables, slots, nodes, memo)?),
        Formula::Since(g, h) => {
            let g = build_nodes(g, tables, slots, nodes, memo)?;
            let h = build_nodes(h, tables, slots, nodes, memo)?;
            Node::Since(g, h)
        }
        Formula::Previously(_) | Formula::ThroughoutPast(_) => {
            // `to_core` runs in `new`, so this only fires if a rewrite case
            // is missing; fail with a typed error rather than aborting.
            let op = if matches!(f, Formula::Previously(_)) {
                "previously"
            } else {
                "throughout_past"
            };
            return Err(CoreError::UnrewrittenDerived(op.into()));
        }
        Formula::Assign { var, term, body } => {
            if let Some(v) = term.vars().first() {
                return Err(CoreError::NonGroundAssignment {
                    var: var.clone(),
                    mentions: v.clone(),
                });
            }
            let body = build_nodes(body, tables, slots, nodes, memo)?;
            Node::Assign {
                var: var.clone(),
                term: term.clone(),
                body,
            }
        }
    };
    nodes.push(node);
    let id = nodes.len() - 1;
    memo.insert(f.clone(), id);
    Ok(id)
}

/// `t` with each temporal aggregate replaced by the variable `<prefix><k>`,
/// `k` its position in `aggs`, where it is appended.
pub(crate) fn lift(t: &Term, prefix: &str, aggs: &mut Vec<TemporalAgg>) -> Term {
    let mut lift = |t: &Term| lift(t, prefix, aggs);
    match t {
        Term::Agg(agg) => {
            aggs.push((**agg).clone());
            Term::var(format!("{prefix}{}", aggs.len() - 1))
        }
        Term::Arith(op, a, b) => Term::arith(*op, lift(a), lift(b)),
        Term::Neg(a) => Term::Neg(Box::new(lift(a))),
        Term::Abs(a) => Term::Abs(Box::new(lift(a))),
        Term::Query { name, args } => Term::query(name.clone(), args.iter().map(lift).collect()),
        Term::Const(_) | Term::Var(_) | Term::Time => t.clone(),
    }
}

/// The slot node of `agg`, which substitutes its value into node `body` as
/// `var`; φ and ψ join the DAG in core form, children before the slot. The
/// aggregate must be closed: a per-binding accumulator is not supported.
fn agg_node(
    var: String,
    agg: &TemporalAgg,
    body: usize,
    tables: &mut CompileTables,
    slots: &mut QuerySlots,
    nodes: &mut Vec<Node>,
    memo: &mut HashMap<Formula, usize>,
) -> Result<Node> {
    let mut free = agg.query.vars();
    agg.start.collect_free_vars_into(&mut free);
    agg.sample.collect_free_vars_into(&mut free);
    if let Some(v) = free.into_iter().next() {
        return Err(CoreError::Ptl(PtlError::Unsafe {
            var: v,
            reason: "occurs in a temporal aggregate; per-binding aggregates are not supported"
                .into(),
        }));
    }
    if agg.query.has_aggregate() {
        return Err(CoreError::Ptl(PtlError::TypeError(
            "a temporal aggregate's query may not contain another aggregate".into(),
        )));
    }
    let start = build_nodes(&to_core(&agg.start), tables, slots, nodes, memo)?;
    let sample = build_nodes(&to_core(&agg.sample), tables, slots, nodes, memo)?;
    Ok(Node::Agg {
        var,
        agg: Box::new(agg.clone()),
        start,
        sample,
        body,
        slot: nodes
            .iter()
            .filter(|n| matches!(n, Node::Agg { .. }))
            .count(),
    })
}

/// The value of a slot: what an empty window aggregates to until φ holds.
fn slot_value(func: AggFunc, slot: &Option<Accumulator>) -> Value {
    slot.as_ref()
        .map_or_else(|| Accumulator::new(func).current(), Accumulator::current)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
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
        db.define_query(
            "names",
            QueryDef::new(0, parse_query("select name from STOCK").unwrap()),
        );
        Engine::new(db)
    }

    fn set_price_at(e: &mut Engine, name: &str, p: i64, t: i64) {
        e.advance_clock_to(tdb_relation::Timestamp(t)).unwrap();
        let old = e
            .db()
            .relation("STOCK")
            .unwrap()
            .iter()
            .find_map(|tp| (tp.get(0) == Some(&Value::str(name))).then(|| tp.clone()));
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

    fn ibm_doubled() -> Formula {
        parse_formula(
            "[t := time] [x := price(\"IBM\")] \
             previously(price(\"IBM\") <= 0.5 * x and time >= t - 10)",
        )
        .unwrap()
    }

    /// Drives the evaluator over every state of the engine history and
    /// returns, per state, whether the condition fired.
    fn run(f: &Formula, e: &Engine, cfg: EvalConfig) -> Vec<bool> {
        let mut ev = IncrementalEvaluator::new(f, cfg).unwrap();
        let mut fired = Vec::new();
        for (i, s) in e.history().iter() {
            let envs = ev.advance_and_fire(s, i).unwrap();
            fired.push(!envs.is_empty());
        }
        fired
    }

    /// The paper's worked history: (10,1) (15,2) (18,5) (25,8) — the trigger
    /// fires exactly at the fourth update.
    #[test]
    fn paper_history_fires_at_fourth_update() {
        let mut e = stock_engine();
        e.set_auto_tick(false);
        for (p, t) in [(10, 1), (15, 2), (18, 5), (25, 8)] {
            set_price_at(&mut e, "IBM", p, t);
        }
        let fired = run(&ibm_doubled(), &e, EvalConfig::default());
        assert_eq!(fired, vec![false, false, false, false, true]);
    }

    /// The paper's optimization history: (10,1) (15,2) (18,5) (11,20) —
    /// never fires, and with pruning the retained state stays small.
    #[test]
    fn optimization_history_prunes_dead_clauses() {
        let mut e = stock_engine();
        e.set_auto_tick(false);
        for (p, t) in [(10, 1), (15, 2), (18, 5), (11, 20)] {
            set_price_at(&mut e, "IBM", p, t);
        }
        let f = ibm_doubled();
        let mut with = IncrementalEvaluator::new(&f, EvalConfig::default()).unwrap();
        let mut without = IncrementalEvaluator::new(
            &f,
            EvalConfig {
                pruning: false,
                ..EvalConfig::default()
            },
        )
        .unwrap();
        for (i, s) in e.history().iter() {
            assert!(with.advance_and_fire(s, i).unwrap().is_empty());
            assert!(without.advance_and_fire(s, i).unwrap().is_empty());
        }
        assert!(
            with.retained_size() < without.retained_size(),
            "pruning must shrink retained state: {} vs {}",
            with.retained_size(),
            without.retained_size()
        );
    }

    /// A clock-bound variable inside an aggregate's sampling formula is
    /// pruned like one of the condition's own, so its state stays bounded.
    #[test]
    fn aggregate_formulas_prune_their_clock_variables() {
        let mut e = stock_engine();
        e.set_auto_tick(false);
        for k in 1..=40 {
            set_price_at(&mut e, "IBM", 10 + (k % 20), k);
        }
        let f = parse_formula(&format!("count(1; time = 0; {}) > 2", ibm_doubled())).unwrap();
        let cfg = |pruning| EvalConfig {
            pruning,
            ..EvalConfig::default()
        };
        let mut with = IncrementalEvaluator::new(&f, cfg(true)).unwrap();
        let mut without = IncrementalEvaluator::new(&f, cfg(false)).unwrap();
        for (i, s) in e.history().iter() {
            assert_eq!(with.advance_and_fire(s, i), without.advance_and_fire(s, i));
        }
        assert!(2 * with.retained_size() < without.retained_size());
    }

    /// Pruned and unpruned evaluators must agree on firings over a long
    /// history (the optimization is semantics-preserving).
    #[test]
    fn pruning_preserves_firings() {
        let mut e = stock_engine();
        e.set_auto_tick(false);
        let prices = [10, 12, 5, 11, 30, 14, 7, 20, 9, 19, 40, 8, 16];
        for (k, p) in prices.iter().enumerate() {
            set_price_at(&mut e, "IBM", *p, (k as i64 + 1) * 3);
        }
        let f = ibm_doubled();
        let a = run(&f, &e, EvalConfig::default());
        let b = run(
            &f,
            &e,
            EvalConfig {
                pruning: false,
                ..EvalConfig::default()
            },
        );
        assert_eq!(a, b);
        assert!(
            a.iter().any(|x| *x),
            "history contains doublings within 10 units"
        );
    }

    /// Incremental evaluation must agree with the naive oracle on every
    /// state, for several formulas.
    #[test]
    fn matches_naive_oracle() {
        let mut e = stock_engine();
        for (p, t) in [
            (10, 1),
            (30, 3),
            (8, 6),
            (25, 7),
            (25, 9),
            (50, 14),
            (12, 17),
        ] {
            set_price_at(&mut e, "IBM", p, t);
        }
        let formulas = [
            "previously(price(\"IBM\") > 20)",
            "lasttime(price(\"IBM\") >= 25)",
            "price(\"IBM\") < 20 since price(\"IBM\") = 30",
            "throughout_past(price(\"IBM\") < 100)",
            "not previously(price(\"IBM\") > 40)",
            "[x := price(\"IBM\")] lasttime(price(\"IBM\") < x)",
            "[t := time] previously(price(\"IBM\") >= 25 and time >= t - 5)",
            "lasttime(lasttime(price(\"IBM\") = 30))",
            "(price(\"IBM\") > 5 since price(\"IBM\") = 8) or lasttime(price(\"IBM\") = 50)",
            "avg(price(\"IBM\"); time = 0; price(\"IBM\") > 0) > 20",
            "count(1; price(\"IBM\") = 25; true) >= 2 or sum(price(\"IBM\"); @x; true) > 9",
            "[m := max(price(\"IBM\"); previously(time = 3); true)] lasttime(price(\"IBM\") < m)",
        ];
        for src in formulas {
            let f = parse_formula(src).unwrap();
            let mut ev = IncrementalEvaluator::compile(&f).unwrap();
            for (i, s) in e.history().iter() {
                let inc = !ev.advance_and_fire(s, i).unwrap().is_empty();
                let naive = tdb_ptl::eval(&f, e.history(), i, &tdb_ptl::Env::new()).unwrap();
                assert_eq!(inc, naive, "formula `{src}` disagrees at state {i}");
            }
        }
    }

    /// Free-variable firing must agree with the oracle's binding
    /// enumeration.
    #[test]
    fn free_variable_bindings_match_oracle() {
        let mut e = stock_engine();
        set_price_at(&mut e, "IBM", 350, 1);
        set_price_at(&mut e, "DEC", 45, 2);
        set_price_at(&mut e, "HP", 310, 3);
        set_price_at(&mut e, "DEC", 320, 4);
        let f = parse_formula("x in names() and price(x) >= 300").unwrap();
        let mut ev = IncrementalEvaluator::compile(&f).unwrap();
        for (i, s) in e.history().iter() {
            let inc = ev.advance_and_fire(s, i).unwrap();
            let naive = tdb_ptl::fire_bindings(&f, e.history(), i, &tdb_ptl::Env::new()).unwrap();
            let inc_x: Vec<_> = inc.iter().map(|env| env["x"].clone()).collect();
            let naive_x: Vec<_> = naive.iter().map(|env| env["x"].clone()).collect();
            assert_eq!(inc_x, naive_x, "bindings disagree at state {i}");
        }
    }

    /// Temporal generator: a variable bound by a *past* event.
    #[test]
    fn past_event_generator() {
        let mut e = stock_engine();
        e.emit_event(tdb_engine::Event::new("login", vec![Value::str("alice")]))
            .unwrap();
        e.emit_event(tdb_engine::Event::simple("tick")).unwrap();
        e.emit_event(tdb_engine::Event::new("login", vec![Value::str("bob")]))
            .unwrap();
        let f = parse_formula("previously @login(u)").unwrap();
        let mut ev = IncrementalEvaluator::compile(&f).unwrap();
        let mut last = Vec::new();
        for (i, s) in e.history().iter() {
            last = ev.advance_and_fire(s, i).unwrap();
        }
        let users: Vec<_> = last.iter().map(|env| env["u"].clone()).collect();
        assert_eq!(users, vec![Value::str("alice"), Value::str("bob")]);
    }

    /// The login-session condition from the introduction: fires when A
    /// drops non-positive while X is logged in.
    #[test]
    fn login_session_invariant() {
        let mut db = Database::new();
        db.set_item("A", Value::Int(5));
        db.define_query("a", QueryDef::new(0, parse_query("item A").unwrap()));
        let mut e = Engine::new(db);
        // Violation formula: A <= 0 while logged in.
        let f = parse_formula("a() <= 0 and (not @logout(\"X\") since @login(\"X\"))").unwrap();
        let mut ev = IncrementalEvaluator::compile(&f).unwrap();
        let mut fired = Vec::new();
        let drive = |e: &mut Engine, ev: &mut IncrementalEvaluator, fired: &mut Vec<bool>| {
            let (i, s) = {
                let h = e.history();
                let i = h.last_index().unwrap();
                (i, h.get(i).unwrap().clone())
            };
            fired.push(!ev.advance_and_fire(&s, i).unwrap().is_empty());
        };
        drive(&mut e, &mut ev, &mut fired); // initial state
        e.emit_event(tdb_engine::Event::new("login", vec![Value::str("X")]))
            .unwrap();
        drive(&mut e, &mut ev, &mut fired);
        e.apply_update([WriteOp::SetItem {
            item: "A".into(),
            value: Value::Int(-1),
        }])
        .unwrap();
        drive(&mut e, &mut ev, &mut fired); // violation!
        e.emit_event(tdb_engine::Event::new("logout", vec![Value::str("X")]))
            .unwrap();
        drive(&mut e, &mut ev, &mut fired);
        e.apply_update([WriteOp::SetItem {
            item: "A".into(),
            value: Value::Int(-2),
        }])
        .unwrap();
        drive(&mut e, &mut ev, &mut fired); // logged out: no violation
        assert_eq!(fired, vec![false, false, true, false, false]);
    }

    /// A tenant-style evaluator of `f`: compiled against the engine's
    /// catalog, so the kernel knows what each atom reads.
    fn kernel(f: &Formula, e: &Engine) -> IncrementalEvaluator {
        let ctx = Arc::new(EvalContext::new());
        IncrementalEvaluator::new_for_catalog(f, EvalConfig::default(), &ctx, e.db()).unwrap()
    }

    /// A history that writes `STOCK` at some states and only ticks or
    /// raises unrelated events at others.
    fn mixed_history() -> Engine {
        let mut e = stock_engine();
        set_price_at(&mut e, "IBM", 10, 1);
        e.emit_event(tdb_engine::Event::simple("tick")).unwrap();
        e.emit_event(tdb_engine::Event::simple("tick")).unwrap();
        set_price_at(&mut e, "IBM", 25, 10);
        e.emit_event(tdb_engine::Event::simple("tick")).unwrap();
        set_price_at(&mut e, "DEC", 30, 15);
        set_price_at(&mut e, "IBM", 5, 20);
        e.emit_event(tdb_engine::Event::simple("tick")).unwrap();
        e
    }

    /// Advanced with each state's delta, the kernel keeps the atoms the
    /// delta misses, and still produces byte-identical firings *and*
    /// byte-identical retained formula states to evaluating every atom
    /// (dead slots exported as `false` on both sides).
    #[test]
    fn sparse_advance_matches_full_on_unaffected_states() {
        let e = mixed_history();
        let formulas = [
            "(price(\"IBM\") > 20 and previously(price(\"IBM\") <= 20)) \
             or (price(\"IBM\") < 8 since price(\"IBM\") = 25)",
            "[x := price(\"IBM\")] lasttime(price(\"IBM\") < x)",
            "not previously(price(\"IBM\") > 20)",
            "throughout_past(price(\"IBM\") < 100)",
            "[t := time] previously(price(\"IBM\") >= 25 and time >= t - 6)",
            "avg(price(\"IBM\"); time = 0; price(\"IBM\") > 0) > 12",
        ];
        for src in formulas {
            let f = parse_formula(src).unwrap();
            let mut full = kernel(&f, &e);
            let mut kept = kernel(&f, &e);
            for (i, s) in e.history().iter() {
                let a = full.advance_and_fire(s, i).unwrap();
                let root = kept.advance_with(s, i, Some(s.delta())).unwrap();
                let b = kept.ctx.solve(&root).unwrap();
                assert_eq!(a, b, "firings diverge at state {i} for `{src}`");
                assert_eq!(
                    full.export_state(),
                    kept.export_state(),
                    "formula states diverge at state {i} for `{src}`"
                );
                assert_eq!(full.retained_size(), kept.retained_size());
            }
            let stats = kept.ctx.stats();
            assert!(
                stats.atoms_reused >= 4,
                "history must exercise atom reuse for `{src}`: {stats:?}"
            );
        }
    }

    /// An atom that captured a snapshot (a query over a free variable) is
    /// re-evaluated whenever any atom of its condition is touched, and
    /// kept only when none is; firings match evaluating every atom, and
    /// the delta says nothing to an evaluator that skipped a state.
    #[test]
    fn sparse_advance_keeps_snapshot_atoms_only_when_nothing_is_touched() {
        let e = mixed_history();
        let f =
            parse_formula("x in names() and price(x) > 20 and previously(price(x) <= 20)").unwrap();
        let mut full = IncrementalEvaluator::compile(&f).unwrap();
        let mut kept = kernel(&f, &e);
        for (i, s) in e.history().iter() {
            let a = full.advance_and_fire(s, i).unwrap();
            let root = kept.advance_with(s, i, Some(s.delta())).unwrap();
            assert_eq!(a, kept.ctx.solve(&root).unwrap(), "state {i}");
        }
        // Four atoms (`previously` brings a `true`); three read `STOCK`.
        // The first state evaluates all four, the four writes the three
        // readers, and the four ticks keep everything.
        let stats = kept.ctx.stats();
        assert_eq!(
            (stats.atom_evals, stats.atoms_reused),
            (4 + 4 * 3, 4 + 4 * 4)
        );

        // A gap: skipping a state leaves the next delta relative to a state
        // the evaluator never saw, so it must evaluate every atom.
        let mut gapped = kernel(&f, &e);
        let h = e.history();
        let (s0, s2) = (h.get(0).unwrap(), h.get(2).unwrap());
        gapped.advance_with(s0, 0, Some(s0.delta())).unwrap();
        let before = gapped.ctx.stats().atom_evals;
        gapped.advance_with(s2, 2, Some(s2.delta())).unwrap();
        assert_eq!(gapped.ctx.stats().atom_evals - before, 4);
    }

    /// Event atoms collapse to `false` when the delta raises none of their
    /// events, keeping `since` chains exact.
    #[test]
    fn sparse_advance_handles_event_atoms() {
        let mut e = stock_engine();
        e.emit_event(tdb_engine::Event::new("login", vec![Value::str("X")]))
            .unwrap();
        e.emit_event(tdb_engine::Event::simple("tick")).unwrap();
        e.emit_event(tdb_engine::Event::simple("tick")).unwrap();
        e.emit_event(tdb_engine::Event::new("logout", vec![Value::str("X")]))
            .unwrap();
        e.emit_event(tdb_engine::Event::simple("tick")).unwrap();
        let f = parse_formula("not @logout(\"X\") since @login(\"X\")").unwrap();
        let mut full = IncrementalEvaluator::compile(&f).unwrap();
        let mut kept = kernel(&f, &e);
        for (i, s) in e.history().iter() {
            let a = full.advance_and_fire(s, i).unwrap();
            let root = kept.advance_with(s, i, Some(s.delta())).unwrap();
            assert_eq!(
                a,
                kept.ctx.solve(&root).unwrap(),
                "firings diverge at state {i}"
            );
            assert_eq!(full.export_state(), kept.export_state());
        }
        assert!(kept.ctx.stats().atoms_reused > 0);
    }

    /// Once an advance that kept every atom reaches a pointer fixpoint,
    /// skipping further unaffected states entirely (`note_noop_states`)
    /// leaves the evaluator in exactly the state repeated advances would:
    /// same formula states, same counters, same future behavior.
    #[test]
    fn sparse_fixpoint_skip_is_exact() {
        let mut e = stock_engine();
        set_price_at(&mut e, "IBM", 10, 1);
        let f =
            parse_formula("price(\"IBM\") > 100 and previously(price(\"IBM\") <= 100)").unwrap();
        let mut stepped = kernel(&f, &e);
        let mut skipped = kernel(&f, &e);
        let i = e.history().last_index().unwrap();
        let s = e.history().get(i).unwrap().clone();
        let quiet = |t: i64| {
            SystemState::new(
                e.db().clone(),
                tdb_engine::EventSet::new(),
                tdb_relation::Timestamp(t),
            )
        };
        for ev in [&mut stepped, &mut skipped] {
            ev.advance(&s, i).unwrap();
            ev.advance_with(&quiet(2), i + 1, Some(&Delta::empty()))
                .unwrap();
            assert!(ev.at_sparse_fixpoint(i + 2));
        }
        for k in 0..3 {
            let q = quiet(3 + k as i64);
            stepped
                .advance_with(&q, i + 2 + k, Some(q.delta()))
                .unwrap();
            skipped.note_noop_states(1);
        }
        assert_eq!(stepped.export_state(), skipped.export_state());
        assert!(stepped.at_sparse_fixpoint(i + 5) && skipped.at_sparse_fixpoint(i + 5));
        // Both resume identically when the read set is finally written —
        // and the skip kept the index contiguous, so both keep atoms.
        set_price_at(&mut e, "IBM", 120, 9);
        let (i, s) = (
            i + 5,
            e.history().get(e.history().last_index().unwrap()).unwrap(),
        );
        let a = stepped.advance_with(s, i, Some(s.delta())).unwrap();
        let b = skipped.advance_with(s, i, Some(s.delta())).unwrap();
        assert_eq!(a, b);
        assert!(
            !stepped.ctx.solve(&a).unwrap().is_empty(),
            "the crossing fires"
        );
        assert_eq!(stepped.export_state(), skipped.export_state());
        assert_eq!(stepped.last_index, skipped.last_index);
    }

    /// A state that only moves the clock: `e`'s database, no events.
    fn clock_only(e: &Engine, t: i64) -> SystemState {
        SystemState::new(
            e.db().clone(),
            tdb_engine::EventSet::new(),
            tdb_relation::Timestamp(t),
        )
    }

    /// Once its item sits below the threshold and the window has expired,
    /// a time-windowed rule absorbs the clock: `false ∧ (time ≥ t − 8)`,
    /// with the clock atom a dead slot. Skipping the clock-only states from
    /// there on gives the firings and exported states stepping gives, and
    /// the skip needs the next index.
    #[test]
    fn absorbed_clock_window_skips_exactly() {
        let mut e = stock_engine();
        set_price_at(&mut e, "IBM", 25, 1);
        set_price_at(&mut e, "IBM", 10, 2);
        let f = parse_formula("[t := time] previously(price(\"IBM\") >= 20 and time >= t - 8)")
            .unwrap();
        let mut stepped = kernel(&f, &e);
        let mut skipped = kernel(&f, &e);
        let mut root = skipped.ctx.rfalse();
        for (i, s) in e.history().iter() {
            stepped.advance_with(s, i, Some(s.delta())).unwrap();
            root = skipped.advance_with(s, i, Some(s.delta())).unwrap();
        }
        let first = e.history().last_index().unwrap() + 1;
        let mut skips = 0;
        for k in 0..100 {
            let (i, q) = (first + k, clock_only(&e, 3 + k as i64));
            let a = stepped.advance_with(&q, i, Some(q.delta())).unwrap();
            if skipped.at_sparse_fixpoint(i) {
                assert!(!skipped.at_sparse_fixpoint(i + 1), "a gap refuses the skip");
                skipped.note_noop_states(1);
                skips += 1;
            } else {
                root = skipped.advance_with(&q, i, Some(q.delta())).unwrap();
            }
            let (fa, fb) = (stepped.ctx.solve(&a), skipped.ctx.solve(&root));
            assert_eq!(fa.unwrap(), fb.unwrap(), "firings diverge at state {i}");
            assert_eq!(stepped.export_state(), skipped.export_state(), "state {i}");
        }
        assert!(
            skips > 80,
            "the expired window sits at its fixpoint: {skips} skips"
        );
        assert!(stepped.at_sparse_fixpoint(first + 100));
        // The item crosses its threshold again: both fire alike.
        set_price_at(&mut e, "IBM", 30, 200);
        let (i, s) = (first + 100, e.history().last().unwrap());
        let a = stepped.advance_with(s, i, Some(s.delta())).unwrap();
        let b = skipped.advance_with(s, i, Some(s.delta())).unwrap();
        assert_eq!(a, b);
        assert!(
            !stepped.ctx.solve(&a).unwrap().is_empty(),
            "the new high fires"
        );
        assert_eq!(stepped.export_state(), skipped.export_state());
    }

    /// A condition that still depends on the clock never reaches the
    /// fixpoint, whatever its current value: a clock atom at the root,
    /// `previously(time > 100)` is `true since` a clock atom, `time = s +
    /// 10` is not absorbed while `executed(r, s)` holds a row, and a
    /// `lasttime` reads its clock atom back.
    #[test]
    fn clock_dependent_conditions_never_reach_the_fixpoint() {
        let mut db = Database::new();
        let rows = vec![tuple![5i64]];
        db.create_relation(
            "EXEC",
            Relation::from_rows(Schema::untyped(&["t"]), rows).unwrap(),
        )
        .unwrap();
        db.define_query(
            tdb_ptl::executed_query_name("r"),
            QueryDef::new(0, parse_query("select t from EXEC").unwrap()),
        );
        let e = Engine::new(db);
        for (src, fires_at) in [
            ("time = 50", 50),
            ("previously(time > 100)", 101),
            ("executed(r, s) and time = s + 10", 15),
            ("lasttime(time = 5)", 6),
        ] {
            let f = parse_formula(src).unwrap();
            let mut ev = kernel(&f, &e);
            for (i, s) in e.history().iter() {
                ev.advance(s, i).unwrap();
            }
            let first = e.history().last_index().unwrap() + 1;
            for t in 1..=120 {
                let (i, q) = (first + t as usize, clock_only(&e, t));
                let root = ev.advance_with(&q, i, Some(q.delta())).unwrap();
                let fired = !ev.ctx.solve(&root).unwrap().is_empty();
                assert_eq!(
                    fired,
                    t == fires_at || (src.starts_with("prev") && t > fires_at)
                );
                assert!(!ev.at_sparse_fixpoint(i + 1), "`{src}` at time {t}");
            }
        }
    }

    #[test]
    fn import_state_disables_sparse_until_full_advance() {
        let mut e = stock_engine();
        set_price_at(&mut e, "IBM", 10, 1);
        set_price_at(&mut e, "IBM", 25, 2);
        let f = parse_formula("[x := price(\"IBM\")] lasttime(price(\"IBM\") < x)").unwrap();
        let mut ev = IncrementalEvaluator::compile(&f).unwrap();
        for (i, s) in e.history().iter() {
            ev.advance(s, i).unwrap();
        }
        assert!(ev.sparse_ready());
        let snap = ev.export_state();
        let mut restored = IncrementalEvaluator::compile(&f).unwrap();
        restored.import_state(snap).unwrap();
        assert!(
            !restored.sparse_ready(),
            "assign caches are not durable; a full advance must refill them"
        );
        let i = e.history().last_index().unwrap() + 1;
        let s = SystemState::new(
            e.db().clone(),
            tdb_engine::EventSet::new(),
            tdb_relation::Timestamp(9),
        );
        restored.advance(&s, i).unwrap();
        assert!(restored.sparse_ready());
    }

    /// Within one context, evaluators compiled from the same condition
    /// share one program, and evaluators compiled from *different*
    /// conditions share the interned atoms they have in common — the
    /// pointer identities that key the cross-rule memo in `parteval`.
    /// Across contexts nothing is shared.
    #[test]
    fn programs_and_atoms_are_interned_across_evaluators() {
        let ctx = Arc::new(EvalContext::new());
        let compile_in =
            |f: &Formula| IncrementalEvaluator::new_in(f, EvalConfig::default(), &ctx).unwrap();
        let f =
            parse_formula("price(\"IBM\") > 100 and previously(price(\"IBM\") <= 100)").unwrap();
        let a = compile_in(&f);
        let b = compile_in(&f);
        assert!(
            Arc::ptr_eq(&a.program.nodes, &b.program.nodes),
            "same condition must compile to one shared program"
        );
        let elsewhere = IncrementalEvaluator::compile(&f).unwrap();
        assert!(
            !Arc::ptr_eq(&a.program.nodes, &elsewhere.program.nodes),
            "a private context shares nothing with another"
        );
        let g = parse_formula("price(\"IBM\") > 100").unwrap();
        let c = compile_in(&g);
        let c_atom = c
            .program
            .nodes
            .iter()
            .find_map(|n| match n {
                Node::Atom(x) => Some(x.clone()),
                _ => None,
            })
            .expect("atomic condition has an atom node");
        assert!(
            a.program
                .nodes
                .iter()
                .any(|n| matches!(n, Node::Atom(x) if Arc::ptr_eq(x, &c_atom))),
            "shared atom must be one interned Arc across different programs"
        );
    }

    /// Window rules of different thresholds reach one residual, so a state
    /// computes each `Since` step once and the computed table answers the
    /// rest; the table holds the steps of the state at hand only — after
    /// every state, and after a rewind to an earlier state.
    #[test]
    fn the_computed_table_holds_one_states_steps() {
        let mut e = stock_engine();
        for (k, p) in [25, 30, 10, 40, 12, 35, 8, 50].into_iter().enumerate() {
            set_price_at(&mut e, "IBM", p, 1 + 2 * k as i64);
        }
        let ctx = Arc::new(EvalContext::new());
        let mut evs: Vec<IncrementalEvaluator> = [5, 20, 24]
            .map(|th| {
                let src =
                    format!("[t := time] previously(price(\"IBM\") >= {th} and time >= t - 8)");
                let f = parse_formula(&src).unwrap();
                IncrementalEvaluator::new_for_catalog(&f, EvalConfig::default(), &ctx, e.db())
                    .unwrap()
            })
            .into();
        let states: Vec<(usize, SystemState)> =
            e.history().iter().map(|(i, s)| (i, s.clone())).collect();
        // Steps computed by advancing `evs` at state `i`, against the
        // entries the table then holds.
        let step = |evs: &mut Vec<IncrementalEvaluator>, (i, s): &(usize, SystemState)| {
            let before = ctx.stats().steps_computed;
            for ev in evs.iter_mut() {
                ev.advance_with(s, *i, Some(s.delta())).unwrap();
            }
            let held = locked(&ctx.memo).steps.len() as u64;
            (ctx.stats().steps_computed - before, held)
        };
        let mut marks = Vec::new();
        for state in &states {
            marks.push(evs.clone());
            let (computed, held) = step(&mut evs, state);
            assert_eq!(held, computed, "state {}", state.0);
        }
        assert!(ctx.stats().steps_reused > 0, "{:?}", ctx.stats());
        assert!(!locked(&ctx.memo).steps.is_empty());
        let (computed, held) = step(&mut marks[3], &states[3]);
        assert_eq!(held, computed, "a rewind to state {}", states[3].0);
    }

    #[test]
    fn non_ground_assignment_rejected() {
        let f = parse_formula("[x := price(y)] x > 0 and y in names()").unwrap();
        assert!(matches!(
            IncrementalEvaluator::compile(&f),
            Err(CoreError::NonGroundAssignment { .. })
        ));
    }

    #[test]
    fn residual_limit_enforced() {
        let mut e = stock_engine();
        set_price_at(&mut e, "IBM", 10, 1);
        let f = ibm_doubled();
        let mut ev = IncrementalEvaluator::new(
            &f,
            EvalConfig {
                pruning: false,
                max_residual: 1,
            },
        )
        .unwrap();
        let i = e.history().last_index().unwrap();
        let s = e.history().get(i).unwrap().clone();
        assert!(matches!(
            ev.advance(&s, i),
            Err(CoreError::ResidualTooLarge { .. })
        ));
    }
}

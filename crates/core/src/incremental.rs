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
//! ```
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
//! A rule's evaluator also knows what each atom reads, so
//! [`IncrementalEvaluator::advance_with`] re-runs the recurrences only above
//! the atoms a state's delta touched: `F_{atom,i} = F_{atom,i-1}` whenever
//! the atom's inputs did not change.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

use tdb_engine::{SystemState, TIME_ITEM};
use tdb_ptl::{analysis, to_core, Formula, Term};
use tdb_relation::{Database, Delta, Timestamp, Value};

use crate::context::{locked, EvalContext};
use crate::error::{CoreError, Result};
use crate::parteval::StateView;
use crate::residual::{residual_size, Env, Residual};

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
    /// Whether any state has been processed yet.
    pub started: bool,
    /// Number of system states processed.
    pub states_seen: usize,
}

/// One node of the flattened subformula DAG (children precede parents).
/// Atoms are interned per [`EvalContext`] (see [`CompileTables`]) so that
/// the same atom occurring in different rules of one tenant is one `Arc` —
/// the pointer identity keys the cross-rule per-state memo in
/// [`crate::parteval`].
#[derive(Debug, Clone)]
enum Node {
    Atom(Arc<Formula>),
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
}

/// What one atom, or one assignment's term, reads, in the vocabulary of a
/// state's [`Delta`]: catalog names through its queries' definitions, event
/// names, and the clock (the `time` term or item, which every state moves).
/// A state whose delta misses it leaves the atom's partial evaluation (the
/// term's value) what it was at the state before. `snapshot`: it applies a
/// query to a non-ground argument, so its residual names the state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Reads {
    data: Box<[String]>,
    events: Box<[String]>,
    clock: bool,
    snapshot: bool,
}

impl Reads {
    fn of(f: &Formula, db: &Database) -> Result<Reads> {
        let mut data = BTreeSet::new();
        for q in f.query_names() {
            data.extend(db.query_def(&q)?.body.dependencies());
        }
        Ok(Reads {
            clock: data.remove(TIME_ITEM) || tdb_analysis::uses_time(f),
            data: data.into_iter().collect(),
            events: f.event_names().into(),
            // Generator arguments are statically ground.
            snapshot: match f {
                Formula::Cmp(_, a, b) => captures_snapshot(a) || captures_snapshot(b),
                Formula::Member { pattern, .. } | Formula::Event { pattern, .. } => {
                    pattern.iter().any(captures_snapshot)
                }
                _ => false,
            },
        })
    }

    fn touched_by(&self, delta: &Delta) -> bool {
        self.clock
            || self.data.iter().any(|d| delta.touches(d))
            || self.events.iter().any(|e| delta.raises(e))
    }
}

/// Whether partially evaluating `t` leaves a `PTerm::QuerySnap`.
fn captures_snapshot(t: &Term) -> bool {
    match t {
        Term::Query { args, .. } => args.iter().any(|a| !a.is_ground()),
        Term::Arith(_, a, b) => captures_snapshot(a) || captures_snapshot(b),
        Term::Neg(a) | Term::Abs(a) => captures_snapshot(a),
        Term::Const(_) | Term::Var(_) | Term::Time | Term::Agg(_) => false,
    }
}

/// A compiled condition: the subformula DAG plus its time-variable set.
/// Compilation is a pure function of the core formula, so programs are
/// shared within a context — a thousand rules instantiated from the same
/// condition template compile once and share one node array.
#[derive(Debug, Clone)]
struct Program {
    nodes: Arc<[Node]>,
    time_vars: Arc<BTreeSet<String>>,
    /// Per node, what its atom or assignment term reads (nothing, for the
    /// connectives), once a registration resolved it against the catalog.
    reads: Option<Arc<[Reads]>>,
}

/// Size the intern tables may reach before entries nobody else holds are
/// swept (and the floor the threshold re-arms at).
const COMPILE_MIN_WATERMARK: usize = 1024;

/// One context's atom intern table and compiled-program cache. Both hold
/// their entries strongly; what keeps them bounded by the tenant's *live*
/// rules is a sweep, once the tables outgrow a watermark, of every entry
/// only the tables still own (a rule whose registration failed after it
/// compiled, say). Existing `Arc`s stay valid either way — sharing simply
/// restarts for a swept shape.
pub(crate) struct CompileTables {
    programs: HashMap<Formula, Program>,
    /// Structurally identical atoms — within one rule or across the
    /// tenant's rules — share one allocation. The pointer identity keys
    /// the per-state atom memo, which is what lets rule `B` reuse the
    /// partial evaluation rule `A` just paid for.
    atoms: HashMap<Formula, Arc<Formula>>,
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
    fn intern_atom(&mut self, f: &Formula) -> Arc<Formula> {
        if let Some(a) = self.atoms.get(f) {
            return a.clone();
        }
        let a = Arc::new(f.clone());
        self.atoms.insert(f.clone(), a.clone());
        a
    }

    /// Drops programs, then atoms, that only the tables reference.
    fn sweep_if_due(&mut self) {
        let before = self.programs.len() + self.atoms.len();
        if before <= self.watermark {
            return;
        }
        self.programs.retain(|_, p| Arc::strong_count(&p.nodes) > 1);
        self.atoms.retain(|_, a| Arc::strong_count(a) > 1);
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
            build_nodes(core, &mut tables, &mut nodes, &mut memo)?;
            tables.sweep_if_due();
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
        let reads = program
            .nodes
            .iter()
            .map(|node| match node {
                Node::Atom(a) => Reads::of(a, db),
                Node::Assign { var, term, .. } => Reads::of(
                    &Formula::assign(var.clone(), term.clone(), Formula::True),
                    db,
                ),
                _ => Ok(Reads::default()),
            })
            .collect::<Result<Vec<_>>>()?;
        if program.reads.as_deref() != Some(&reads[..]) {
            program.reads = Some(reads.into());
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
#[derive(Debug, Clone)]
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
    /// advance whose delta misses the term re-substitutes.
    assign_vals: Vec<Option<Value>>,
    /// Index of the state the formula states were last advanced to (a
    /// fixpoint skip counts); `None` until an advance succeeds, and after an
    /// import. Only an advance at the next index may keep atoms.
    last_index: Option<usize>,
    /// See [`IncrementalEvaluator::at_sparse_fixpoint`].
    at_fixpoint: bool,
    started: bool,
    states_seen: usize,
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
        Ok(IncrementalEvaluator {
            ctx: Arc::clone(ctx),
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
    /// in one context pointer equality here is equality of everything a
    /// further [`IncrementalEvaluator::advance`] reads: both will map equal
    /// states to equal results from now on.
    pub fn same_formula_states(&self, other: &IncrementalEvaluator) -> bool {
        self.started == other.started
            && self.prev.len() == other.prev.len()
            && self
                .prev
                .iter()
                .zip(&other.prev)
                .all(|((a, _), (b, _))| Arc::ptr_eq(a, b))
    }

    /// Extracts the formula states for checkpointing.
    pub fn export_state(&self) -> EvaluatorState {
        EvaluatorState {
            prev: self.prev.iter().map(|(r, _)| r.clone()).collect(),
            started: self.started,
            states_seen: self.states_seen,
        }
    }

    /// Installs formula states exported from an evaluator compiled from the
    /// same condition — by any context: the residuals are re-interned into
    /// this evaluator's own, so a decoded checkpoint or another tenant's
    /// snapshot regains the in-memory sharing here. Fails if the node count
    /// disagrees (the snapshot came from a different formula).
    pub fn import_state(&mut self, mut st: EvaluatorState) -> Result<()> {
        if st.prev.len() != self.prev.len() {
            return Err(CoreError::RestoreMismatch(format!(
                "evaluator has {} subformula nodes but snapshot carries {}",
                self.prev.len(),
                st.prev.len()
            )));
        }
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
    /// * a connective whose children all kept their `F_{g,i-1}` is copied;
    /// * `Lasttime` and `Since` run their recurrences as always.
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
            (Some(delta), Some(reads)) if contiguous => Some((delta, &**reads)),
            _ => None,
        };
        // Whether the delta misses every atom: asked by snapshot atoms only.
        let mut quiet = None;
        let (mut evaluated, mut reused, mut terms) = (0, 0, 0);
        for (id, node) in program.nodes.iter().enumerate() {
            let copy = |gs: &[usize]| {
                keep.is_some() && gs.iter().all(|&g| Arc::ptr_eq(&cur[g].0, &prev[g].0))
            };
            let r = match node {
                Node::Atom(a) => {
                    let kept = keep.is_some_and(|(delta, reads)| {
                        !reads[id].touched_by(delta)
                            && (!reads[id].snapshot
                                || *quiet.get_or_insert_with(|| {
                                    reads.iter().all(|r| !r.touched_by(delta))
                                }))
                    });
                    *if kept { &mut reused } else { &mut evaluated } += 1;
                    match **a {
                        _ if !kept => ctx.parteval_atom_memo(a, &view)?,
                        Formula::Event { .. } => ctx.rfalse(),
                        _ => prev[id].0.clone(),
                    }
                }
                Node::Not(g) if copy(&[*g]) => prev[id].0.clone(),
                Node::And(gs) | Node::Or(gs) if copy(gs) => prev[id].0.clone(),
                Node::Not(g) => ctx.rnot(cur[*g].0.clone()),
                Node::And(gs) => ctx.rand(gs.iter().map(|&g| cur[g].0.clone())),
                Node::Or(gs) => ctx.ror(gs.iter().map(|&g| cur[g].0.clone())),
                Node::Lasttime(g) if *started => prev[*g].0.clone(),
                Node::Lasttime(_) => ctx.rfalse(),
                Node::Since(g, h) if *started => ctx.ror([
                    cur[*h].0.clone(),
                    ctx.rand([cur[*g].0.clone(), prev[id].0.clone()]),
                ]),
                Node::Since(_, h) => cur[*h].0.clone(),
                Node::Assign { var, term, body } => {
                    let cached = keep
                        .filter(|(delta, reads)| !reads[id].touched_by(delta))
                        .and(assign_vals[id].as_ref());
                    match cached {
                        Some(_) if copy(&[*body]) => prev[id].0.clone(),
                        Some(v) => ctx.subst(&cur[*body].0, var, v)?,
                        None => {
                            terms += 1;
                            let v = ctx.build_pterm(term, &view)?.eval_ground()?;
                            let r = ctx.subst(&cur[*body].0, var, &v)?;
                            assign_vals[id] = Some(v);
                            r
                        }
                    }
                }
            };
            cur.push((r, 0));
        }
        locked(&ctx.memo).count(|c| {
            c.atom_evals += evaluated;
            c.atoms_reused += reused;
        });
        let idle = keep.is_some() && evaluated + terms == 0;
        self.finish_advance(cur, state.time(), idle, index)
    }

    /// Whether the evaluator advanced since it was compiled or imported:
    /// only then is a step its read set misses a sparse advance.
    pub fn sparse_ready(&self) -> bool {
        self.last_index.is_some()
    }

    /// Whether the last advance kept every atom and reproduced the formula
    /// states slot for slot, with no time variables to prune. Another
    /// read-set-disjoint state is then provably the identity, and the caller
    /// may account for it with [`IncrementalEvaluator::note_noop_states`].
    pub fn at_sparse_fixpoint(&self) -> bool {
        self.at_fixpoint
    }

    /// Accounts for `n` consecutive read-set-disjoint states at a sparse
    /// fixpoint in O(1): a rule untouched by a whole commit batch costs the
    /// batch one call, whatever its length.
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
    /// fixpoint test and the `prev` buffer rotation.
    fn finish_advance(
        &mut self,
        mut cur: Vec<(Arc<Residual>, usize)>,
        now: Timestamp,
        idle: bool,
        index: usize,
    ) -> Result<Arc<Residual>> {
        let time_vars = &self.program.time_vars;
        let prunes = self.cfg.pruning && !time_vars.is_empty();
        let observed = prunes && tdb_obs::enabled();
        let (mut pre, mut total, mut same) = (0, 0, true);
        for ((r, size), (old, old_size)) in cur.iter_mut().zip(&self.prev) {
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
            same &= Arc::ptr_eq(r, old);
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
        self.at_fixpoint = idle && same && time_vars.is_empty();
        // `cur` becomes the new `prev`; the old `prev` buffer is recycled
        // for the next advance instead of being reallocated per state.
        self.scratch = std::mem::replace(&mut self.prev, cur);
        self.scratch.clear();
        self.started = true;
        self.states_seen += 1;
        self.last_index = Some(index);
        Ok(root)
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
    nodes: &mut Vec<Node>,
    memo: &mut HashMap<Formula, usize>,
) -> Result<usize> {
    if let Some(&id) = memo.get(f) {
        return Ok(id);
    }
    // Temporal aggregates are rewritten into registers before compilation
    // (Section 6.1.1); one that got this far would fail at the first
    // advance, so refuse it here.
    let unrewritten = match f {
        Formula::Cmp(_, a, b) => a.has_aggregate() || b.has_aggregate(),
        Formula::Member { source, pattern } => {
            source.args.iter().chain(pattern).any(Term::has_aggregate)
        }
        Formula::Event { pattern, .. } => pattern.iter().any(Term::has_aggregate),
        Formula::Assign { term, .. } => term.has_aggregate(),
        _ => false,
    };
    if unrewritten {
        return Err(CoreError::UnrewrittenAggregate);
    }
    let node = match f {
        Formula::True
        | Formula::False
        | Formula::Cmp(..)
        | Formula::Member { .. }
        | Formula::Event { .. } => Node::Atom(tables.intern_atom(f)),
        Formula::Not(g) => Node::Not(build_nodes(g, tables, nodes, memo)?),
        Formula::And(gs) => {
            let ids = gs
                .iter()
                .map(|g| build_nodes(g, tables, nodes, memo))
                .collect::<Result<_>>()?;
            Node::And(ids)
        }
        Formula::Or(gs) => {
            let ids = gs
                .iter()
                .map(|g| build_nodes(g, tables, nodes, memo))
                .collect::<Result<_>>()?;
            Node::Or(ids)
        }
        Formula::Lasttime(g) => Node::Lasttime(build_nodes(g, tables, nodes, memo)?),
        Formula::Since(g, h) => {
            let g = build_nodes(g, tables, nodes, memo)?;
            let h = build_nodes(h, tables, nodes, memo)?;
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
            let body = build_nodes(body, tables, nodes, memo)?;
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
    /// byte-identical retained formula states to evaluating every atom.
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
        ];
        for src in formulas {
            let f = parse_formula(src).unwrap();
            let mut full = IncrementalEvaluator::compile(&f).unwrap();
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
            assert!(ev.at_sparse_fixpoint());
        }
        for k in 0..3 {
            let q = quiet(3 + k as i64);
            stepped
                .advance_with(&q, i + 2 + k, Some(q.delta()))
                .unwrap();
            skipped.note_noop_states(1);
        }
        assert_eq!(stepped.export_state(), skipped.export_state());
        assert!(stepped.at_sparse_fixpoint() && skipped.at_sparse_fixpoint());
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

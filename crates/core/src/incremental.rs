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

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

use tdb_engine::SystemState;
use tdb_ptl::{analysis, to_core, Formula, Term};
use tdb_relation::{Timestamp, Value};

use crate::context::{locked, EvalContext};
use crate::error::{CoreError, Result};
use crate::parteval::{build_pterm, StateView};
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

/// A compiled condition: the subformula DAG plus its time-variable set.
/// Compilation is a pure function of the core formula, so programs are
/// shared within a context — a thousand rules instantiated from the same
/// condition template compile once and share one node array.
#[derive(Debug, Clone)]
struct Program {
    nodes: Arc<[Node]>,
    time_vars: Arc<BTreeSet<String>>,
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
fn compile_program(ctx: &EvalContext, core: &Formula) -> Result<Program> {
    let mut tables = locked(&ctx.compiled);
    if let Some(p) = tables.programs.get(core) {
        return Ok(p.clone());
    }
    let mut nodes = Vec::new();
    let mut memo = HashMap::new();
    build_nodes(core, &mut tables, &mut nodes, &mut memo)?;
    let p = Program {
        nodes: nodes.into(),
        time_vars: Arc::new(analysis::time_vars(core)),
    };
    tables.sweep_if_due();
    tables.programs.insert(core.clone(), p.clone());
    Ok(p)
}

/// The incremental evaluator for one condition.
///
/// The compiled node DAG and time-variable set are immutable after
/// compilation and shared behind `Arc`s, so cloning an evaluator (the gate
/// path speculatively advances a clone per pending commit) costs one
/// reference bump plus a shallow copy of the `prev` pointer vector — it
/// never copies formula structure.
#[derive(Debug, Clone)]
pub struct IncrementalEvaluator {
    /// Where this evaluator's residuals are interned and its atoms
    /// memoised: the owning tenant's context.
    ctx: Arc<EvalContext>,
    nodes: Arc<[Node]>,
    time_vars: Arc<BTreeSet<String>>,
    cfg: EvalConfig,
    /// `F_{g,i-1}` per node; meaningful once `started`.
    prev: Vec<Arc<Residual>>,
    /// Recycled buffer for the next `advance` call's `F_{g,i}` vector.
    scratch: Vec<Arc<Residual>>,
    /// Last value each `Assign` node's ground term evaluated to, cached by
    /// the full path so the sparse path can re-substitute without touching
    /// the database. `None` until the node has been evaluated once (and
    /// after a state import, whose snapshot does not carry term values).
    assign_vals: Vec<Option<Value>>,
    /// Whether the last advance was a *sparse pointer fixpoint*: it
    /// reproduced `prev` slot for slot and the formula mentions no time
    /// variables, so another sparse advance is guaranteed to be the
    /// identity on the evaluator state (see
    /// [`IncrementalEvaluator::at_sparse_fixpoint`]).
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
    /// must be ground.
    pub fn new_in(
        f: &Formula,
        cfg: EvalConfig,
        ctx: &Arc<EvalContext>,
    ) -> Result<IncrementalEvaluator> {
        analysis::check_single_assignment(f)?;
        let core = to_core(f);
        let Program { nodes, time_vars } = compile_program(ctx, &core)?;
        let n = nodes.len();
        Ok(IncrementalEvaluator {
            ctx: Arc::clone(ctx),
            nodes,
            time_vars,
            cfg,
            prev: vec![ctx.rfalse(); n],
            scratch: Vec::new(),
            assign_vals: vec![None; n],
            at_fixpoint: false,
            started: false,
            states_seen: 0,
        })
    }

    /// Compiles with the default configuration.
    pub fn compile(f: &Formula) -> Result<IncrementalEvaluator> {
        IncrementalEvaluator::new(f, EvalConfig::default())
    }

    /// Number of system states processed so far.
    pub fn states_seen(&self) -> usize {
        self.states_seen
    }

    /// Total size of the retained formula states — the quantity the
    /// Section 5 optimization keeps bounded (experiment E2).
    pub fn retained_size(&self) -> usize {
        self.prev.iter().map(residual_size).sum()
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
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// Extracts the formula states for checkpointing.
    pub fn export_state(&self) -> EvaluatorState {
        EvaluatorState {
            prev: self.prev.clone(),
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
        if st.prev.len() != self.nodes.len() {
            return Err(CoreError::RestoreMismatch(format!(
                "evaluator has {} subformula nodes but snapshot carries {}",
                self.nodes.len(),
                st.prev.len()
            )));
        }
        self.ctx.intern_all(&mut st.prev);
        self.prev = st.prev;
        self.started = st.started;
        self.states_seen = st.states_seen;
        // Term-value caches are not part of the durable state; the sparse
        // path stays unavailable until the next full advance refills them.
        self.assign_vals = vec![None; self.nodes.len()];
        self.at_fixpoint = false;
        Ok(())
    }

    /// Processes one new system state and returns `F_{f,i}` for the whole
    /// condition.
    pub fn advance(&mut self, state: &SystemState, index: usize) -> Result<Arc<Residual>> {
        let view = StateView::new(state, index);
        let mut cur = std::mem::take(&mut self.scratch);
        cur.clear();
        cur.reserve(self.nodes.len());
        // Field-wise borrows: the program is read while the assign cache is
        // written, without bumping the (shared) program's refcount.
        let IncrementalEvaluator {
            ctx,
            nodes,
            prev,
            assign_vals,
            started,
            ..
        } = self;
        for (id, node) in nodes.iter().enumerate() {
            let r = match node {
                Node::Atom(a) => ctx.parteval_atom_memo(a, &view)?,
                Node::Not(g) => ctx.rnot(cur[*g].clone()),
                Node::And(gs) => ctx.rand(gs.iter().map(|&g| cur[g].clone())),
                Node::Or(gs) => ctx.ror(gs.iter().map(|&g| cur[g].clone())),
                Node::Lasttime(g) => {
                    if *started {
                        prev[*g].clone()
                    } else {
                        ctx.rfalse()
                    }
                }
                Node::Since(g, h) => {
                    if *started {
                        ctx.ror([
                            cur[*h].clone(),
                            ctx.rand([cur[*g].clone(), prev[id].clone()]),
                        ])
                    } else {
                        cur[*h].clone()
                    }
                }
                Node::Assign { var, term, body } => {
                    let v = build_pterm(term, &view)?.eval_ground()?;
                    let r = ctx.subst(&cur[*body], var, &v)?;
                    assign_vals[id] = Some(v);
                    r
                }
            };
            cur.push(r);
        }
        // A full advance read the database; make no fixpoint claim about
        // the next state.
        self.at_fixpoint = false;
        self.finish_advance(cur, state.time())
    }

    /// Whether [`IncrementalEvaluator::advance_sparse`] may be used for the
    /// next state: at least one full advance has run since compilation or
    /// the last state import, so every `Assign` node has a cached term
    /// value to re-substitute.
    pub fn sparse_ready(&self) -> bool {
        self.started
            && self
                .nodes
                .iter()
                .zip(&self.assign_vals)
                .all(|(n, v)| !matches!(n, Node::Assign { .. }) || v.is_some())
    }

    /// Processes one system state *known not to intersect this condition's
    /// read set* (no referenced event raised, no read relation/item
    /// written, no clock use — established by the caller via the
    /// [`ReadSetIndex`](crate::ReadSetIndex)). Semantics are identical to
    /// [`IncrementalEvaluator::advance`], but no atom touches the database:
    ///
    /// * event atoms are `false` (none of the rule's events was raised);
    /// * every other atom's partial evaluation equals last state's, so
    ///   `F_{g,i} = F_{g,i-1}` is a pointer copy;
    /// * connectives whose children all came out as pointer copies are
    ///   themselves pointer copies — only `Lasttime`/`Since` (and anything
    ///   above a changed child) recompute, via the usual Theorem 1
    ///   recurrences over already-built residuals.
    ///
    /// Pointer equality is an optimization, not a correctness requirement:
    /// when the hash-consing arena has dropped sharing the connective is
    /// recomputed from the (equal) children, yielding the same residual.
    pub fn advance_sparse(&mut self, now: Timestamp) -> Result<Arc<Residual>> {
        assert!(
            self.sparse_ready(),
            "advance_sparse requires a prior full advance"
        );
        let mut cur = std::mem::take(&mut self.scratch);
        cur.clear();
        cur.reserve(self.nodes.len());
        let ctx = &self.ctx;
        for (id, node) in self.nodes.iter().enumerate() {
            let r = match node {
                Node::Atom(a) => match &**a {
                    // No event in the rule's read set occurred.
                    Formula::Event { .. } => ctx.rfalse(),
                    // Data atoms re-evaluate identically: copy `F_{g,i-1}`.
                    _ => self.prev[id].clone(),
                },
                Node::Not(g) => {
                    if Arc::ptr_eq(&cur[*g], &self.prev[*g]) {
                        self.prev[id].clone()
                    } else {
                        ctx.rnot(cur[*g].clone())
                    }
                }
                Node::And(gs) => {
                    if gs.iter().all(|&g| Arc::ptr_eq(&cur[g], &self.prev[g])) {
                        self.prev[id].clone()
                    } else {
                        ctx.rand(gs.iter().map(|&g| cur[g].clone()))
                    }
                }
                Node::Or(gs) => {
                    if gs.iter().all(|&g| Arc::ptr_eq(&cur[g], &self.prev[g])) {
                        self.prev[id].clone()
                    } else {
                        ctx.ror(gs.iter().map(|&g| cur[g].clone()))
                    }
                }
                Node::Lasttime(g) => self.prev[*g].clone(),
                Node::Since(g, h) => ctx.ror([
                    cur[*h].clone(),
                    ctx.rand([cur[*g].clone(), self.prev[id].clone()]),
                ]),
                Node::Assign { var, body, .. } => {
                    if Arc::ptr_eq(&cur[*body], &self.prev[*body]) {
                        self.prev[id].clone()
                    } else {
                        let v = self.assign_vals[id]
                            .as_ref()
                            .expect("sparse_ready checked assign cache");
                        ctx.subst(&cur[*body], var, v)?
                    }
                }
            };
            cur.push(r);
        }
        // Pointer fixpoint: the advance reproduced `prev` exactly, and with
        // no time variables the §5 pruning is the identity too — so until
        // an affecting delta arrives, further sparse advances cannot change
        // the evaluator state and may be skipped outright (the dispatcher
        // bumps `states_seen` via `note_noop_state`).
        self.at_fixpoint =
            self.time_vars.is_empty() && cur.iter().zip(&self.prev).all(|(a, b)| Arc::ptr_eq(a, b));
        self.finish_advance(cur, now)
    }

    /// Whether the evaluator is at a sparse fixpoint: the last advance was
    /// sparse and reproduced the formula states slot for slot. At a
    /// fixpoint, processing another read-set-disjoint state is provably the
    /// identity — same root residual, same satisfying bindings — so the
    /// caller may replace [`IncrementalEvaluator::advance_sparse`] with
    /// [`IncrementalEvaluator::note_noop_state`].
    pub fn at_sparse_fixpoint(&self) -> bool {
        self.at_fixpoint
    }

    /// Accounts for a state processed at a sparse fixpoint without touching
    /// the formula states (which provably would not change).
    pub fn note_noop_state(&mut self) {
        self.note_noop_states(1);
    }

    /// Bulk form of [`IncrementalEvaluator::note_noop_state`]: accounts for
    /// a whole run of consecutive read-set-disjoint states in O(1). The
    /// batched dispatch path collapses a fixpoint run — a rule untouched by
    /// an entire commit batch — into one call, which is what makes the
    /// unaffected-rule cost of a batch independent of its length.
    pub fn note_noop_states(&mut self, n: usize) {
        debug_assert!(
            self.at_fixpoint && self.sparse_ready(),
            "note_noop_states requires a sparse fixpoint"
        );
        self.states_seen += n;
    }

    /// Common tail of the full and sparse paths: Section 5 pruning, the
    /// retained-size safety cap, and the `prev`/`scratch` buffer rotation.
    fn finish_advance(
        &mut self,
        mut cur: Vec<Arc<Residual>>,
        now: Timestamp,
    ) -> Result<Arc<Residual>> {
        let prunes = self.cfg.pruning && !self.time_vars.is_empty();
        let pre: Option<usize> =
            (prunes && tdb_obs::enabled()).then(|| cur.iter().map(residual_size).sum());
        if prunes {
            for r in cur.iter_mut() {
                *r = self.ctx.prune_time(r, now, &self.time_vars);
            }
        }

        let total: usize = cur.iter().map(residual_size).sum();
        if let Some(pre) = pre {
            self.ctx.note_pruning(pre, total);
        }
        if total > self.cfg.max_residual {
            return Err(CoreError::ResidualTooLarge {
                limit: self.cfg.max_residual,
                size: total,
            });
        }

        let root = cur.last().expect("formula has at least one node").clone();
        // `cur` becomes the new `prev`; the old `prev` buffer is recycled
        // for the next advance instead of being reallocated per state.
        self.scratch = std::mem::replace(&mut self.prev, cur);
        self.scratch.clear();
        self.started = true;
        self.states_seen += 1;
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

    /// Sparse counterpart of [`IncrementalEvaluator::advance_and_fire`];
    /// see [`IncrementalEvaluator::advance_sparse`] for the precondition.
    pub fn advance_sparse_and_fire(&mut self, now: Timestamp) -> Result<Vec<Env>> {
        let root = self.advance_sparse(now)?;
        self.ctx.solve(&root)
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

    /// On states that do not write the formula's read set, the sparse path
    /// must produce byte-identical firings *and* byte-identical retained
    /// formula states to a full advance.
    #[test]
    fn sparse_advance_matches_full_on_unaffected_states() {
        let mut e = stock_engine();
        set_price_at(&mut e, "IBM", 10, 1);
        e.emit_event(tdb_engine::Event::simple("tick")).unwrap();
        e.emit_event(tdb_engine::Event::simple("tick")).unwrap();
        set_price_at(&mut e, "IBM", 25, 10);
        e.emit_event(tdb_engine::Event::simple("tick")).unwrap();
        set_price_at(&mut e, "IBM", 5, 20);
        e.emit_event(tdb_engine::Event::simple("tick")).unwrap();

        let formulas = [
            "(price(\"IBM\") > 20 and previously(price(\"IBM\") <= 20)) \
             or (price(\"IBM\") < 8 since price(\"IBM\") = 25)",
            "[x := price(\"IBM\")] lasttime(price(\"IBM\") < x)",
            "not previously(price(\"IBM\") > 20)",
            "throughout_past(price(\"IBM\") < 100)",
        ];
        for src in formulas {
            let f = parse_formula(src).unwrap();
            let mut full = IncrementalEvaluator::compile(&f).unwrap();
            let mut sparse = IncrementalEvaluator::compile(&f).unwrap();
            assert!(!sparse.sparse_ready(), "sparse path needs a full advance");
            let mut sparse_used = 0;
            for (i, s) in e.history().iter() {
                let a = full.advance_and_fire(s, i).unwrap();
                let b = if !s.delta().touches("STOCK") && sparse.sparse_ready() {
                    sparse_used += 1;
                    sparse.advance_sparse_and_fire(s.time()).unwrap()
                } else {
                    sparse.advance_and_fire(s, i).unwrap()
                };
                assert_eq!(a, b, "firings diverge at state {i} for `{src}`");
                assert_eq!(
                    full.export_state(),
                    sparse.export_state(),
                    "formula states diverge at state {i} for `{src}`"
                );
            }
            assert!(sparse_used >= 4, "history must exercise the sparse path");
        }
    }

    /// Event atoms collapse to `false` on the sparse path (the rule's
    /// events were not raised), keeping `since` chains exact.
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
        let mut sparse = IncrementalEvaluator::compile(&f).unwrap();
        for (i, s) in e.history().iter() {
            let relevant = s.delta().raises("login") || s.delta().raises("logout");
            let a = full.advance_and_fire(s, i).unwrap();
            let b = if !relevant && sparse.sparse_ready() {
                sparse.advance_sparse_and_fire(s.time()).unwrap()
            } else {
                sparse.advance_and_fire(s, i).unwrap()
            };
            assert_eq!(a, b, "firings diverge at state {i}");
            assert_eq!(full.export_state(), sparse.export_state());
        }
    }

    /// Once a sparse advance reaches a pointer fixpoint, skipping further
    /// unaffected states entirely (`note_noop_state`) leaves the evaluator
    /// in exactly the state repeated sparse advances would: same formula
    /// states, same counters, same future behavior.
    #[test]
    fn sparse_fixpoint_skip_is_exact() {
        let mut e = stock_engine();
        set_price_at(&mut e, "IBM", 10, 1);
        let f =
            parse_formula("price(\"IBM\") > 100 and previously(price(\"IBM\") <= 100)").unwrap();
        let mut stepped = IncrementalEvaluator::compile(&f).unwrap();
        let mut skipped = IncrementalEvaluator::compile(&f).unwrap();
        let i = e.history().last_index().unwrap();
        let s = e.history().get(i).unwrap().clone();
        for ev in [&mut stepped, &mut skipped] {
            ev.advance(&s, i).unwrap();
            ev.advance_sparse(tdb_relation::Timestamp(2)).unwrap();
            assert!(ev.at_sparse_fixpoint());
        }
        for k in 0..3 {
            stepped
                .advance_sparse(tdb_relation::Timestamp(3 + k))
                .unwrap();
            skipped.note_noop_state();
        }
        assert_eq!(stepped.export_state(), skipped.export_state());
        assert!(stepped.at_sparse_fixpoint() && skipped.at_sparse_fixpoint());
        // Both resume identically when the read set is finally written.
        set_price_at(&mut e, "IBM", 120, 9);
        let i = e.history().last_index().unwrap();
        let s = e.history().get(i).unwrap().clone();
        let a = stepped.advance_and_fire(&s, i).unwrap();
        let b = skipped.advance_and_fire(&s, i).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty(), "the crossing fires");
        assert_eq!(stepped.export_state(), skipped.export_state());
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
            Arc::ptr_eq(&a.nodes, &b.nodes),
            "same condition must compile to one shared program"
        );
        let elsewhere = IncrementalEvaluator::compile(&f).unwrap();
        assert!(
            !Arc::ptr_eq(&a.nodes, &elsewhere.nodes),
            "a private context shares nothing with another"
        );
        let g = parse_formula("price(\"IBM\") > 100").unwrap();
        let c = compile_in(&g);
        let c_atom = c
            .nodes
            .iter()
            .find_map(|n| match n {
                Node::Atom(x) => Some(x.clone()),
                _ => None,
            })
            .expect("atomic condition has an atom node");
        assert!(
            a.nodes
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

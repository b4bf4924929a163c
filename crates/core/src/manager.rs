//! The rule manager — the paper's *temporal component*.
//!
//! Owns every registered rule's incremental evaluator and implements the
//! Section 8 execution model:
//!
//! * detached (T-CA) triggers are evaluated whenever a new system state is
//!   added to the history ([`RuleManager::dispatch_slice`]);
//! * integrity constraints (TCA rules) are evaluated against the *candidate*
//!   commit state ([`RuleManager::gate`]) and veto the commit on violation;
//! * *relevance filtering* — "rules that refer in the condition part to
//!   events are considered only when the respective events occur, and
//!   disregarded otherwise; rules that do not refer to events … are
//!   considered only at commit points" — is available as an opt-in
//!   optimization (when a rule skips a state, its temporal operators range
//!   over the subhistory of states it actually saw);
//! * temporal aggregates — in conditions and in action terms — are slots of
//!   the rule's own evaluator (Section 6.1.1's registers as formula state);
//! * the `executed` relation of Section 7 is maintained for rules that need
//!   it, enabling composite and temporal actions;
//! * a mark of every rule's state lets the valid-time facade rewind the
//!   rules to an earlier state and dispatch a revised suffix again.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use tdb_analysis::{
    lint_rule, BatchCertificate, BatchRule, BatchSafety, CascadeGraph, Diagnostic, LintLevel,
    ReadSet, Report, Resource, RuleInput, Severity,
};
use tdb_engine::event::names::{CLOCK_TICK, UPDATE};
use tdb_engine::SystemState;
use tdb_obs::{Counter, Gauge, Histogram, LocalHistogram, ObsConfig};
use tdb_ptl::{analyze, executed_query_name, Env, Formula, Term};
use tdb_relation::{Column, DType, Database, Query, QueryDef, Relation, Schema};

use crate::context::EvalContext;
use crate::error::{CoreError, Result};
use crate::incremental::{lift, EvalConfig, EvaluatorState, IncrementalEvaluator};
use crate::readset::ReadSetIndex;
use crate::rules::{ActionOp, FiringRecord, Rule, RuleKind};

/// The relation holding a rule's execution history (Section 7).
pub fn executed_relation_name(rule: &str) -> String {
    format!("__EXECUTED_{rule}")
}

/// How batched commits treat write-cascading rules. There is one way:
/// [`CascadeMode::Eager`], and nothing reads [`ManagerConfig::cascade`].
/// The type stays only because the `benchmark/` crate still names it; it
/// goes with the change to that crate that ROADMAP item 5(a) plans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CascadeMode {
    /// Byte-identical to the per-op schedule for every certificate class
    /// (see `ActiveDatabase::commit_batch`).
    #[default]
    Eager,
}

/// What a batched commit must fence on with a `Stratified` certificate:
/// the union of the read sets of every rule whose action writes. An op
/// touching any of these — data, events, the clock — can change a writer's
/// condition, so the pending states are drained right after it — between
/// fences no writer can fire, and the fused sub-slice is exact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriterFences {
    /// What some writer's condition reads.
    pub reads: ReadSet,
    /// Whether any writer is registered at all.
    pub any: bool,
}

/// Manager configuration.
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// Enable Section 8 relevance filtering.
    pub relevance_filtering: bool,
    /// Evaluator configuration shared by all rules.
    pub eval: EvalConfig,
    /// Registration-time static verification. At [`LintLevel::Warn`]
    /// (default) findings are recorded and readable via
    /// [`RuleManager::lint_findings`]; at [`LintLevel::Deny`] a
    /// deny-severity finding (e.g. TDB001 unbounded-state) rejects the
    /// registration with [`CoreError::LintDenied`].
    pub lint: LintLevel,
    /// Observability wiring. The default ([`ObsConfig::inherit`]) follows
    /// the process-global [`tdb_obs::enabled`] flag at construction time;
    /// [`ObsConfig::off`] pins instrumentation off regardless. The
    /// config also carries the slow-rule log threshold
    /// (`obs.slow_rule_ns`): full evaluations slower than it are appended
    /// to [`tdb_obs::trace::slow_rules`].
    pub obs: ObsConfig,
    /// Unread; see [`CascadeMode`].
    pub cascade: CascadeMode,
}

impl Default for ManagerConfig {
    fn default() -> ManagerConfig {
        ManagerConfig {
            relevance_filtering: false,
            eval: EvalConfig::default(),
            lint: LintLevel::default(),
            obs: ObsConfig::inherit(),
            cascade: CascadeMode::default(),
        }
    }
}

/// Pre-resolved metric handles for the dispatch/gate hot paths: fetched
/// from the registry once at manager construction so the steady state
/// never takes a registry lock. The manager holds `Option<DispatchMetrics>`
/// — disabled observability is a single branch on `None`.
#[derive(Debug)]
struct DispatchMetrics {
    slow_rule_ns: u64,
    // dispatch (per processed commit state)
    commits: Counter,
    rule_visits: Counter,
    gated_skips: Counter,
    relevance_skips: Counter,
    full_evaluations: Counter,
    sparse_advances: Counter,
    fixpoint_skips: Counter,
    firings: Counter,
    rule_eval_ns: Arc<Histogram>,
    // registration (per installed rule: filing it under the read-set
    // index, the cascade graph and the fences)
    certify_ns: Arc<Histogram>,
    // gate (per candidate commit state)
    gate_checks: Counter,
    gate_full: Counter,
    gate_sparse: Counter,
    gate_violations: Counter,
    retained_nodes: Gauge,
    /// Dispatch rounds since the retained gauge was last refreshed; the
    /// refresh walks every evaluator's residual DAG, so it only runs every
    /// [`RETAINED_GAUGE_PERIOD`] rounds (and on demand before exposition).
    retained_rounds: std::sync::atomic::AtomicU64,
}

/// Dispatch rounds between `tdb_retained_residual_nodes` refreshes.
const RETAINED_GAUGE_PERIOD: u64 = 64;

impl DispatchMetrics {
    fn new(obs: &ObsConfig) -> DispatchMetrics {
        let r = obs.registry();
        DispatchMetrics {
            slow_rule_ns: obs.slow_rule_ns,
            commits: r.counter("tdb_dispatch_commits_total"),
            rule_visits: r.counter("tdb_dispatch_rule_visits_total"),
            gated_skips: r.counter("tdb_dispatch_gated_constraint_skips_total"),
            relevance_skips: r.counter("tdb_dispatch_relevance_skipped_rules_total"),
            full_evaluations: r.counter("tdb_dispatch_full_evaluations_total"),
            sparse_advances: r.counter("tdb_dispatch_sparse_advances_total"),
            fixpoint_skips: r.counter("tdb_dispatch_fixpoint_skipped_rules_total"),
            firings: r.counter("tdb_firings_total"),
            rule_eval_ns: r.histogram("tdb_rule_eval_ns"),
            certify_ns: r.histogram("tdb_register_certify_ns"),
            gate_checks: r.counter("tdb_gate_checks_total"),
            gate_full: r.counter("tdb_gate_full_evaluations_total"),
            gate_sparse: r.counter("tdb_gate_sparse_advances_total"),
            gate_violations: r.counter("tdb_gate_violations_total"),
            retained_nodes: r.gauge("tdb_retained_residual_nodes"),
            retained_rounds: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

/// Counters for the experiments (E3) and the benchmark's per-layer
/// metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Full rule-state evaluations performed (atoms re-evaluated).
    pub evaluations: u64,
    /// Rule-state evaluations skipped by relevance filtering.
    pub skips: u64,
    /// Total firings.
    pub firings: u64,
    /// Sparse advances: rules moved forward through the fast path because
    /// the state's delta missed their read set.
    pub sparse_advances: u64,
}

/// What one dispatch or gate pass did, counted on the stack and folded into
/// [`ManagerStats`] and the registry once, when the pass ends.
#[derive(Debug, Default)]
struct Tally {
    /// Full evaluations.
    evaluations: u64,
    /// Sparse advances, fixpoint skips included.
    sparse_advances: u64,
    /// Sparse steps that found the rule idle and only counted the state.
    fixpoint_skips: u64,
    /// One `tdb_rule_eval_ns` sample per timed full evaluation.
    eval_ns: LocalHistogram,
}

#[derive(Debug)]
struct RuleRuntime {
    rule: Rule,
    evaluator: IncrementalEvaluator,
    /// What the rule reads: the union of its program's node sets — the
    /// firing condition's and each action aggregate's query, φ and ψ —
    /// with [`Resource::Order`] as the cascade graph sees the rule (see
    /// [`RuleManager::prepare`]). The read-set index, §8 relevance, the
    /// fences, the cascade graph and the lint all read this one set.
    reads: ReadSet,
    /// When an action term holds temporal aggregates: the action's ops with
    /// the `k`-th lifted to the variable `#act<k>`, and the evaluator node
    /// of each `k`'s slot.
    lifted: Option<(Vec<ActionOp>, Vec<usize>)>,
    /// Satisfying bindings at the previous evaluated state (sorted,
    /// deduplicated), for edge-triggered firing.
    last_envs: Vec<tdb_ptl::Env>,
}

impl RuleRuntime {
    /// Whether a state that misses the rule's read set provably changes
    /// nothing: the evaluator is at a sparse fixpoint, so its formula
    /// states and satisfying bindings stay what they are, and those
    /// bindings cannot fire again either — the edge filter holds them back,
    /// and a level-triggered rule only qualifies with nothing satisfied.
    fn idle(&self) -> bool {
        self.evaluator.at_sparse_fixpoint()
            && (self.rule.edge_triggered || self.last_envs.is_empty())
    }

    /// The step body, for one rule at one state: advances the evaluator
    /// (counted as a sparse advance when the state misses the read set,
    /// `!touched`), applies the edge-trigger filter against the previous
    /// state's bindings, and appends the firings to `out`.
    fn step(
        &mut self,
        touched: bool,
        state: &SystemState,
        idx: usize,
        metrics: Option<&DispatchMetrics>,
        tally: &mut Tally,
        out: &mut Vec<FiringRecord>,
    ) -> Result<()> {
        let sparse = !touched && self.evaluator.sparse_ready();
        if sparse && self.idle() {
            // The whole advance degenerates to a counter bump.
            self.evaluator.note_noop_states(1);
            tally.sparse_advances += 1;
            tally.fixpoint_skips += 1;
            return Ok(());
        }
        // Evaluations are timed; sparse advances are too cheap to be.
        let timer = match metrics {
            Some(m) if !sparse => Some((m, tdb_obs::now())),
            _ => None,
        };
        if sparse {
            tally.sparse_advances += 1;
        } else {
            tally.evaluations += 1;
        }
        let root = self
            .evaluator
            .advance_with(state, idx, Some(state.delta()))?;
        let satisfied = self.evaluator.context().solve(&root)?;
        if let Some((m, t0)) = timer {
            let ns = tdb_obs::elapsed_ns(t0);
            tally.eval_ns.observe(ns);
            if m.slow_rule_ns > 0 && ns >= m.slow_rule_ns {
                tdb_obs::trace::record_slow_rule(&self.rule.name, ns, m.slow_rule_ns);
            }
        }
        if satisfied.is_empty() {
            // No-op rule: clear the edge memory in place, touching no
            // allocations on the (common) sparse fast path.
            if !self.last_envs.is_empty() {
                self.last_envs.clear();
            }
            return Ok(());
        }
        for env in &satisfied {
            if self.rule.edge_triggered && self.last_envs.binary_search(env).is_ok() {
                // Still satisfied, but not newly: no rising edge.
                continue;
            }
            out.push(FiringRecord {
                rule: self.rule.name.clone(),
                state_index: idx,
                time: state.time(),
                env: env.clone(),
            });
        }
        self.last_envs = satisfied;
        Ok(())
    }
}

/// A pending constraint check for one candidate commit state: the cloned
/// evaluators must be installed with [`RuleManager::confirm_gate`] iff the
/// commit goes through.
#[derive(Debug)]
pub struct GateOutcome {
    /// Constraint firings (= violations) at the candidate state.
    pub violations: Vec<FiringRecord>,
    clones: Vec<(usize, IncrementalEvaluator)>,
}

impl GateOutcome {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Every rule's formula states and edge memory at one point of a history,
/// in registration order: [`RuleManager::mark`] takes one,
/// [`RuleManager::rewind`] returns to it. A clone of each evaluator, as the
/// gate makes one — it shares the compiled program and the residuals.
#[derive(Debug, Clone, Default)]
pub(crate) struct Mark(Vec<(IncrementalEvaluator, Vec<Env>)>);

impl Mark {
    /// Takes in the rules `rules` registered after this mark was taken, as
    /// they stand there now.
    pub(crate) fn adopt(&mut self, rules: &RuleManager) {
        let new = rules.runtimes.iter().skip(self.0.len());
        self.0
            .extend(new.map(|rt| (rt.evaluator.clone(), rt.last_envs.clone())));
    }
}

/// A rule that passed every check of registration and is ready to be
/// installed: [`RuleManager::prepare`] makes one,
/// [`RuleManager::install`] consumes it.
#[derive(Debug)]
#[must_use = "install the rule or discard its database set-up"]
pub struct PreparedRule {
    name: String,
    /// How to take back what preparing the rule added to the database.
    undo: Vec<Undo>,
    /// The compiled rule, once staging succeeded.
    staged: Option<StagedRule>,
    /// Registered rules the condition references through `executed`.
    promoted: Vec<usize>,
    findings: Vec<Diagnostic>,
}

impl PreparedRule {
    /// The name the rule registers under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether preparing the rule added to the database: it reads
    /// `executed(…)`, so some rule's firings must be recorded.
    pub(crate) fn touches_database(&self) -> bool {
        !self.undo.is_empty()
    }

    /// Gives the rule up: takes its `executed` relations and reader
    /// queries out of `db` again, newest first.
    pub fn discard(self, db: &mut Database) {
        for step in self.undo.into_iter().rev() {
            match step {
                Undo::Query(name, None) => {
                    db.remove_query(&name);
                }
                Undo::Query(name, Some(old)) => db.define_query(name, old),
                Undo::Relation(name) => {
                    db.remove_relation(&name);
                }
            }
        }
    }

    fn define_query(&mut self, db: &mut Database, name: &str, def: QueryDef) {
        let old = db.query_def(name).ok().cloned();
        self.undo.push(Undo::Query(name.to_string(), old));
        db.define_query(name, def);
    }

    /// Creates the `__EXECUTED_<rule>` relation and its reader query if
    /// absent.
    fn ensure_executed_relation(
        &mut self,
        db: &mut Database,
        rule: &str,
        arity: usize,
    ) -> Result<()> {
        let rel_name = executed_relation_name(rule);
        if db.relation(&rel_name).is_err() {
            let mut cols: Vec<Column> = (0..arity)
                .map(|i| Column::new(format!("p{i}"), DType::Any))
                .collect();
            cols.push(Column::new("time", DType::Time));
            let schema = Schema::new(cols)?;
            db.create_relation(rel_name.clone(), Relation::empty(schema))?;
            self.undo.push(Undo::Relation(rel_name.clone()));
        }
        let qname = executed_query_name(rule);
        if db.query_def(&qname).is_err() {
            self.define_query(db, &qname, QueryDef::new(0, Query::table(rel_name)));
        }
        Ok(())
    }
}

/// One step of a prepared rule's database set-up, as its inverse: the
/// query to put back (`None`: there was none), the relation to drop.
#[derive(Debug)]
enum Undo {
    Query(String, Option<QueryDef>),
    Relation(String),
}

#[derive(Debug)]
struct StagedRule {
    runtime: RuleRuntime,
    facts: BatchRule,
}

/// The temporal component.
#[derive(Debug)]
pub struct RuleManager {
    cfg: ManagerConfig,
    /// The tenant's evaluation context: every evaluator this manager
    /// compiles interns, memoises and counts here, and nowhere else.
    ctx: Arc<EvalContext>,
    runtimes: Vec<RuleRuntime>,
    /// Rule name → position in `runtimes`, kept in step with it.
    names: HashMap<String, usize>,
    stats: ManagerStats,
    /// Inverted read-set index for delta-driven dispatch; grows with
    /// `runtimes` (same ids, registration order).
    index: ReadSetIndex,
    /// Scratch bitmap for [`ReadSetIndex::affected`], recycled per state.
    affected: Vec<bool>,
    /// Scratch for [`RuleManager::dispatch_slice`]: `affected` transposed
    /// into one bitmask row per rule, recycled per slice.
    masks: Vec<u64>,
    /// Warn-level (and below) findings accumulated at registration.
    lint_findings: Vec<Diagnostic>,
    /// Write-cascade graph over the registered rule set (same ids as
    /// `runtimes`); it keeps the batch-safety certificate current, one
    /// registration at a time.
    cascade: CascadeGraph,
    /// Union of the writers' read sets, driving the batch fences;
    /// grows whenever the graph gains a writer.
    fences: WriterFences,
    /// Registered integrity constraints (rules never unregister).
    constraints: usize,
    /// Metric handles, resolved once from `cfg.obs`; `None` when
    /// observability is off, which the hot paths test with one branch.
    metrics: Option<DispatchMetrics>,
}

impl RuleManager {
    pub fn new(cfg: ManagerConfig) -> RuleManager {
        let metrics = cfg.obs.is_enabled().then(|| DispatchMetrics::new(&cfg.obs));
        RuleManager {
            cfg,
            ctx: Arc::new(EvalContext::new()),
            runtimes: Vec::new(),
            names: HashMap::new(),
            stats: ManagerStats::default(),
            index: ReadSetIndex::new(),
            affected: Vec::new(),
            masks: Vec::new(),
            lint_findings: Vec::new(),
            cascade: CascadeGraph::new(),
            fences: WriterFences::default(),
            constraints: 0,
            metrics,
        }
    }

    /// The evaluation context shared by this manager's evaluators.
    pub fn context(&self) -> &Arc<EvalContext> {
        &self.ctx
    }

    /// Whether this manager records metrics (resolved from its
    /// [`ObsConfig`] at construction).
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.is_some()
    }

    /// Periodically refreshes the `tdb_retained_residual_nodes` gauge from
    /// the live evaluators: the walk is O(rules × residual size), far more
    /// than the rest of a dispatch round's instrumentation, so only every
    /// `RETAINED_GAUGE_PERIOD`-th call (the first included) does it. A
    /// no-op when observability is off.
    pub fn update_retained_gauge(&self) {
        if let Some(m) = &self.metrics {
            let round = m
                .retained_rounds
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if round % RETAINED_GAUGE_PERIOD == 0 {
                self.force_retained_gauge();
            }
        }
    }

    /// Refreshes the `tdb_retained_residual_nodes` gauge unconditionally
    /// (used right before metric exposition). A no-op when observability
    /// is off.
    pub fn force_retained_gauge(&self) {
        if let Some(m) = &self.metrics {
            m.retained_nodes
                .set(i64::try_from(self.retained_size()).unwrap_or(i64::MAX));
        }
    }

    /// Lint findings recorded at registration (empty under
    /// [`LintLevel::Allow`]).
    pub fn lint_findings(&self) -> &[Diagnostic] {
        &self.lint_findings
    }

    pub fn stats(&self) -> ManagerStats {
        self.stats.clone()
    }

    pub fn config(&self) -> &ManagerConfig {
        &self.cfg
    }

    /// Registered rule names, in registration (dispatch) order.
    pub fn rule_names(&self) -> Vec<&str> {
        self.runtimes.iter().map(|r| r.rule.name.as_str()).collect()
    }

    pub fn rule(&self, name: &str) -> Option<&Rule> {
        self.names.get(name).map(|&id| &self.runtimes[id].rule)
    }

    /// Total retained residual size across all rules (experiment E2).
    pub fn retained_size(&self) -> usize {
        self.runtimes
            .iter()
            .map(|r| r.evaluator.retained_size())
            .sum()
    }

    /// Registers a rule: sets up its `executed` relation if needed,
    /// validates safety, and compiles the incremental evaluator, with a slot
    /// per temporal aggregate of its condition and action. `current` is the
    /// latest system state; new evaluators are primed on it so assignments
    /// and `Since` base cases see the values at registration time (the
    /// paper: auxiliary relations are initialized "on the database at that
    /// time").
    ///
    /// All or nothing: every fallible step runs in [`RuleManager::prepare`],
    /// which leaves the manager alone and takes its database set-up back
    /// on failure, so a rejected rule leaves the manager and the database
    /// exactly as they were.
    pub fn register(
        &mut self,
        rule: Rule,
        db: &mut Database,
        current: Option<(tdb_relation::Timestamp, usize)>,
    ) -> Result<()> {
        let prepared = self.prepare(rule, db, current)?;
        self.install(prepared);
        Ok(())
    }

    /// The fallible half of registration: the rule is validated, linted,
    /// compiled and primed. The manager is not touched. `db` gains the
    /// `executed` relations and reader queries the rule needs — in place,
    /// so a catalog no snapshot shares is not copied — and loses them again
    /// if this fails.
    /// On success hand the result to [`RuleManager::install`], or give the
    /// set-up back with [`PreparedRule::discard`].
    pub fn prepare(
        &self,
        rule: Rule,
        db: &mut Database,
        current: Option<(tdb_relation::Timestamp, usize)>,
    ) -> Result<PreparedRule> {
        let mut prepared = PreparedRule {
            name: rule.name.clone(),
            undo: Vec::new(),
            staged: None,
            promoted: Vec::new(),
            findings: Vec::new(),
        };
        match self.stage(rule, db, current, &mut prepared) {
            Ok(()) => Ok(prepared),
            Err(e) => {
                prepared.discard(db);
                Err(e)
            }
        }
    }

    /// Stages the rule into `p`.
    fn stage(
        &self,
        rule: Rule,
        db: &mut Database,
        current: Option<(tdb_relation::Timestamp, usize)>,
        p: &mut PreparedRule,
    ) -> Result<()> {
        if self.names.contains_key(&rule.name) {
            return Err(CoreError::DuplicateRule(rule.name.clone()));
        }
        let firing = rule.firing_condition();
        // An aggregate in an action term is one more slot of the rule's
        // program: the evaluator runs `firing ∧ [#act<k> := agg_k] true`, so
        // the read sets and static checks below cover the aggregates too,
        // and the action reads `#act<k>` when it materializes.
        let mut aggs = Vec::new();
        let lifted: Vec<ActionOp> = (rule.action.ops().iter())
            .map(|op| op.map_terms(|t| lift(t, "#act", &mut aggs)))
            .collect();
        let actions = aggs.len();
        let slots = aggs.into_iter().enumerate().map(|(k, agg)| {
            Formula::assign(format!("#act{k}"), Term::Agg(Box::new(agg)), Formula::True)
        });
        let program = Formula::and(std::iter::once(firing.clone()).chain(slots));

        // Resolve `executed` references: every referenced rule must exist
        // and gets its relation materialized — which makes it a recorder.
        for q in program.query_names() {
            if let Some(target) = q.strip_prefix("__executed_") {
                let arity = if target == rule.name {
                    rule.params.len()
                } else if let Some(&id) = self.names.get(target) {
                    p.promoted.push(id);
                    self.runtimes[id].rule.params.len()
                } else {
                    return Err(CoreError::NoSuchRule(target.to_string()));
                };
                p.ensure_executed_relation(db, target, arity)?;
            }
        }
        if rule.record_executed {
            p.ensure_executed_relation(db, &rule.name, rule.params.len())?;
        }

        // Validate: safety analysis, and the firing condition's queries are
        // defined (an action aggregate's are checked as it compiles).
        analyze(&program)?;
        let firing_reads = ReadSet::of(&firing).resolve(db)?;

        // Static verification of the condition. Deny-severity findings
        // reject the registration under `LintLevel::Deny`; under `Warn`
        // they are recorded and readable via `lint_findings`.
        if self.cfg.lint != LintLevel::Allow {
            let input = RuleInput {
                facts: BatchRule {
                    name: rule.name.clone(),
                    ..BatchRule::default()
                },
                condition: firing.clone(),
                spans: None,
            };
            let (_, diags) = lint_rule(&input);
            if self.cfg.lint == LintLevel::Deny {
                if let Some(d) = diags.iter().find(|d| d.severity == Severity::Deny) {
                    return Err(CoreError::LintDenied {
                        rule: rule.name.clone(),
                        code: d.code.code().to_string(),
                        message: match &d.subformula {
                            Some(sub) => format!("{} (in `{sub}`)", d.message),
                            None => d.message.clone(),
                        },
                    });
                }
            }
            p.findings.extend(diags);
        }

        let mut evaluator =
            IncrementalEvaluator::new_for_catalog(&program, self.cfg.eval.clone(), &self.ctx, db)?;
        let nodes = (0..actions).map(|k| evaluator.aggregate_node(&format!("#act{k}")));
        let nodes = nodes.collect::<Option<Vec<_>>>().ok_or_else(|| {
            CoreError::Ptl(tdb_ptl::PtlError::TypeError(
                "an action aggregate did not compile to a slot".into(),
            ))
        })?;
        let lifted = (actions > 0).then_some((lifted, nodes));
        // The rule reads what its program's nodes read. Whether it observes
        // state order is a fact of the firing condition alone — and of a
        // level-triggered rule, which fires at every satisfying state, an
        // inserted write state included.
        let order = (firing_reads.contains(&Resource::Order) || !rule.edge_triggered)
            .then_some(Resource::Order);
        let nodes = evaluator.reads();
        let reads = (nodes.iter().filter(|r| **r != Resource::Order).cloned())
            .chain(order)
            .collect();
        if let Some((t, idx)) = current {
            // Prime on a snapshot of the database as of registration (after
            // register/executed-relation setup), so assignments and `Since`
            // base cases see the values at registration time; firings at
            // this instant are intentionally discarded (the rule starts
            // "now"). This matches the paper's initialization of auxiliary
            // relations "on the database at that time".
            let prime = SystemState::new(db.clone(), tdb_engine::EventSet::new(), t);
            let _ = evaluator.advance(&prime, idx)?;
            self.ctx.publish_counters();
            self.ctx.release_memo_state();
        }

        let runtime = RuleRuntime {
            rule,
            evaluator,
            reads,
            lifted,
            last_envs: Vec::new(),
        };
        let facts = batch_facts(&runtime, db);
        p.staged = Some(StagedRule { runtime, facts });
        Ok(())
    }

    /// The infallible half of registration: files the staged rule —
    /// read-set index, name map, cascade graph, fences. Returns the
    /// registered rule's name.
    pub fn install(&mut self, prepared: PreparedRule) -> String {
        self.lint_findings.extend(prepared.findings);
        // Filing costs the rule, not the catalog: the graph is touched at
        // the promoted rules and the new ones, nowhere else.
        let t0 = self.metrics.as_ref().and_then(|_| tdb_obs::now());
        for id in prepared.promoted {
            let writes = recorder_writes(&self.runtimes[id].rule.name);
            if self.cascade.promote(id, writes) {
                self.fence_on(id);
            }
        }
        if let Some(StagedRule { runtime, facts }) = prepared.staged {
            let id = self.runtimes.len();
            self.index.insert(id, &runtime.reads);
            self.constraints += usize::from(runtime.rule.kind == RuleKind::Constraint);
            self.names.insert(runtime.rule.name.clone(), id);
            self.runtimes.push(runtime);
            self.cascade.add(facts);
            if self.cascade.is_writer(id) {
                self.fence_on(id);
            }
        }
        if let Some(m) = &self.metrics {
            m.certify_ns.observe(tdb_obs::elapsed_ns(t0));
        }
        prepared.name
    }

    /// Rule `id` writes: batched commits must fence on what it reads.
    fn fence_on(&mut self, id: usize) {
        self.fences.any = true;
        self.fences.reads.union(&self.runtimes[id].reads);
    }

    /// The batch-safety analysis of the registered rule set — certificate,
    /// cascade edges, cycles, impure rules, strata — explained from
    /// the cascade graph on demand. Commits read only
    /// [`RuleManager::batch_certificate`] and
    /// [`RuleManager::writer_fences`].
    pub fn batch_safety(&self) -> BatchSafety {
        self.cascade.explain()
    }

    /// The batch-safety certificate over the registered rule set.
    pub fn batch_certificate(&self) -> BatchCertificate {
        self.cascade.certificate()
    }

    /// The fences batched commits consult with a `Stratified` certificate.
    pub fn writer_fences(&self) -> &WriterFences {
        &self.fences
    }

    /// Whether the rule must look at this state (Section 8 filtering): one
    /// of its events occurs, a commit updates data it reads, or the clock
    /// ticks and it reads the clock. A degenerate condition, which reads
    /// none of these, is always considered.
    fn relevant(rt: &RuleRuntime, state: &SystemState) -> bool {
        let events = state.events();
        let mut inputs = false;
        for r in rt.reads.iter() {
            let hit = match r {
                Resource::Event(e) => events.has_named(e),
                Resource::Item(d) | Resource::Relation(d) => events
                    .named(UPDATE)
                    .any(|u| u.args().first().and_then(|v| v.as_str()) == Some(d.as_str())),
                Resource::Clock => events.has_named(CLOCK_TICK),
                Resource::Query(_) | Resource::Order => continue,
            };
            if hit {
                return true;
            }
            inputs = true;
        }
        !inputs
    }

    /// The first registered rule whose condition reads the named query.
    pub fn query_reader(&self, query: &str) -> Option<&str> {
        self.runtimes
            .iter()
            .find(|rt| rt.reads.contains(&Resource::Query(query.to_string())))
            .map(|rt| rt.rule.name.as_str())
    }

    /// Whether any registered rule is an integrity constraint. The batched
    /// commit path uses this to decide if a gating op must drain pending
    /// states first (constraint evaluators gate against the candidate from
    /// their *current* formula states, so they must have seen every earlier
    /// state).
    pub fn has_constraints(&self) -> bool {
        self.constraints > 0
    }

    /// `rule`'s action ops, and the bindings they evaluate under: the
    /// firing's `env`, plus each action aggregate's value at the last state
    /// the rule processed.
    pub(crate) fn action<'a>(
        &'a self,
        rule: &str,
        env: &'a Env,
    ) -> Option<(&'a [ActionOp], std::borrow::Cow<'a, Env>)> {
        let rt = &self.runtimes[*self.names.get(rule)?];
        let Some((ops, nodes)) = &rt.lifted else {
            return Some((rt.rule.action.ops(), std::borrow::Cow::Borrowed(env)));
        };
        let mut env = env.clone();
        for (k, &node) in nodes.iter().enumerate() {
            env.insert(format!("#act{k}"), rt.evaluator.aggregate_value(node)?);
        }
        Some((ops, std::borrow::Cow::Owned(env)))
    }

    /// Advances every (relevant) rule across a *slice* of consecutive
    /// pending states — one state per plain commit, a whole group under
    /// `commit_batch` — and returns the firings in the order of the per-op
    /// schedule: state by state, registration order within a state.
    ///
    /// * Classify: the slice's deltas go through the read-set index into
    ///   one bitmask row per rule (bit `i` of row `id` = state `i` touches
    ///   rule `id`'s read set). Gated constraints and relevance are decided
    ///   per `(rule, state)`.
    /// * Step: rules are walked outermost, each replaying its own
    ///   time-ordered steps through `RuleRuntime::step`. By Theorem 1 a
    ///   rule's update touches only that rule's formula states, so
    ///   rule-major order computes what state-major order would, and a
    ///   row keeps a rule's whole slice in one or two cache lines. A rule
    ///   the whole slice misses while it sits idle at its sparse fixpoint
    ///   is retired in O(1)
    ///   ([`IncrementalEvaluator::note_noop_states`]), which makes an idle
    ///   rule's cost independent of the batch length.
    /// * Record: the firings are put back in state order and the pass's
    ///   tally is folded into the counters.
    ///
    /// `constraints_advanced[i]` marks slice states whose constraint
    /// evaluators already advanced at gate time (gated commits).
    pub fn dispatch_slice(
        &mut self,
        states: &[SystemState],
        base: usize,
        constraints_advanced: &[bool],
    ) -> Result<Vec<FiringRecord>> {
        debug_assert_eq!(states.len(), constraints_advanced.len());
        let nstates = states.len();
        let relevance = self.cfg.relevance_filtering;

        let words = nstates.div_ceil(64);
        self.masks.clear();
        self.masks.resize(self.runtimes.len() * words, 0);
        for (i, state) in states.iter().enumerate() {
            self.index.affected(state.delta(), &mut self.affected);
            let (w, bit) = (i / 64, 1u64 << (i % 64));
            for (id, &b) in self.affected.iter().enumerate() {
                if b {
                    self.masks[id * words + w] |= bit;
                }
            }
        }
        let any_gated = constraints_advanced.iter().any(|&b| b);

        let metrics = self.metrics.as_ref();
        let mut tally = Tally::default();
        let mut gated_skips = 0u64;
        let mut relevance_skips = 0u64;
        let mut out = Vec::new();
        for (id, rt) in self.runtimes.iter_mut().enumerate() {
            let row = &self.masks[id * words..(id + 1) * words];
            let constraint = rt.rule.kind == RuleKind::Constraint;
            if rt.evaluator.sparse_ready()
                && !relevance
                && !(any_gated && constraint)
                && row.iter().all(|&w| w == 0)
                && rt.idle()
            {
                // Every step would be a fixpoint skip, and is counted as one.
                rt.evaluator.note_noop_states(nstates);
                tally.sparse_advances += nstates as u64;
                tally.fixpoint_skips += nstates as u64;
                continue;
            }
            for (i, state) in states.iter().enumerate() {
                if constraint && constraints_advanced[i] {
                    gated_skips += 1;
                    continue;
                }
                if relevance && !Self::relevant(rt, state) {
                    relevance_skips += 1;
                    continue;
                }
                let touched = (row[i / 64] >> (i % 64)) & 1 == 1;
                rt.step(touched, state, base + i, metrics, &mut tally, &mut out)?;
            }
        }
        if nstates > 1 {
            // Stable: registration order survives within each state.
            out.sort_by_key(|f| f.state_index);
        }
        self.ctx.publish_counters();

        self.stats.skips += relevance_skips;
        self.stats.evaluations += tally.evaluations;
        self.stats.sparse_advances += tally.sparse_advances;
        self.stats.firings += out.len() as u64;
        if let Some(m) = metrics {
            m.commits.add(nstates as u64);
            m.rule_visits.add((self.runtimes.len() * nstates) as u64);
            m.gated_skips.add(gated_skips);
            m.relevance_skips.add(relevance_skips);
            m.full_evaluations.add(tally.evaluations);
            m.sparse_advances
                .add(tally.sparse_advances - tally.fixpoint_skips);
            m.fixpoint_skips.add(tally.fixpoint_skips);
            m.firings.add(out.len() as u64);
            m.rule_eval_ns.absorb(&tally.eval_ns);
        }
        Ok(out)
    }

    /// Evaluates every constraint against a candidate commit state, on
    /// cloned evaluators (cheap: the compiled node program is shared, only
    /// the previous-state pointers are copied). If the commit is finished,
    /// install the clones with [`RuleManager::confirm_gate`]; if it is
    /// aborted, drop the outcome (the candidate state never happened).
    pub fn gate(&mut self, candidate: &SystemState, idx: usize) -> Result<GateOutcome> {
        self.index.affected(candidate.delta(), &mut self.affected);
        let mut tally = Tally::default();
        let mut violations = Vec::new();
        let mut clones = Vec::new();
        for (k, rt) in self.runtimes.iter().enumerate() {
            if rt.rule.kind != RuleKind::Constraint {
                continue;
            }
            if !self.affected[k] && rt.evaluator.sparse_ready() {
                tally.sparse_advances += 1;
            } else {
                tally.evaluations += 1;
            }
            let mut clone = rt.evaluator.clone();
            let root = clone.advance_with(candidate, idx, Some(candidate.delta()))?;
            // Every satisfying binding is a violation: no edge filter.
            for env in self.ctx.solve(&root)? {
                violations.push(FiringRecord {
                    rule: rt.rule.name.clone(),
                    state_index: idx,
                    time: candidate.time(),
                    env,
                });
            }
            clones.push((k, clone));
        }
        self.ctx.publish_counters();

        self.stats.evaluations += tally.evaluations;
        self.stats.sparse_advances += tally.sparse_advances;
        self.stats.firings += violations.len() as u64;
        if let Some(m) = &self.metrics {
            m.gate_checks.inc();
            m.gate_full.add(tally.evaluations);
            m.gate_sparse.add(tally.sparse_advances);
            m.gate_violations.add(violations.len() as u64);
        }
        Ok(GateOutcome { violations, clones })
    }

    /// Installs the gate's evaluators after a successful commit.
    pub fn confirm_gate(&mut self, outcome: GateOutcome) {
        for (k, clone) in outcome.clones {
            self.runtimes[k].evaluator = clone;
        }
    }

    /// The satisfying bindings, at the last of `states`, of the rules at
    /// positions `ids`: clones of the evaluators `mark` holds advance over
    /// `states` — the states after the mark, in order, from index `first`
    /// on — and every rule is left as it is. No edge filter: a constraint's
    /// every binding is a violation.
    pub(crate) fn probe(
        &self,
        mark: &Mark,
        ids: &[usize],
        states: &[&SystemState],
        first: usize,
    ) -> Result<Vec<FiringRecord>> {
        let mut out = Vec::new();
        let Some(last) = states.last() else {
            return Ok(out);
        };
        for &id in ids {
            let (Some(rt), Some((ev, _))) = (self.runtimes.get(id), mark.0.get(id)) else {
                continue;
            };
            let mut ev = ev.clone();
            let mut root = None;
            for (i, state) in states.iter().enumerate() {
                root = Some(ev.advance_with(state, first + i, Some(state.delta()))?);
            }
            for env in root.map_or(Ok(Vec::new()), |r| self.ctx.solve(&r))? {
                out.push(FiringRecord {
                    rule: rt.rule.name.clone(),
                    state_index: first + states.len() - 1,
                    time: last.time(),
                    env,
                });
            }
        }
        self.ctx.publish_counters();
        Ok(out)
    }

    /// Every rule's formula states and edge memory as they stand now.
    pub(crate) fn mark(&self) -> Mark {
        let mut mark = Mark::default();
        mark.adopt(self);
        mark
    }

    /// Puts every rule `mark` holds back as it stood there.
    pub(crate) fn rewind(&mut self, mark: &Mark) {
        for (rt, (ev, envs)) in self.runtimes.iter_mut().zip(&mark.0) {
            rt.evaluator.clone_from(ev);
            rt.last_envs.clone_from(envs);
        }
    }

    /// Whether every rule stands where `mark` has it: the very same formula
    /// states ([`IncrementalEvaluator::same_formula_states`]) and the same
    /// satisfying bindings. Theorem 1 makes that everything a further
    /// dispatch reads: from equal states on, both fire alike.
    pub(crate) fn same_states(&self, mark: &Mark) -> bool {
        self.runtimes.len() == mark.0.len()
            && (self.runtimes.iter().zip(&mark.0)).all(|(rt, (ev, envs))| {
                rt.evaluator.same_formula_states(ev) && rt.last_envs == *envs
            })
    }

    /// Registration position of the rule called `name`.
    pub(crate) fn position(&self, name: &str) -> Option<usize> {
        self.names.get(name).copied()
    }

    /// Exports the durable per-rule state (formula states plus the
    /// edge-trigger memory), in registration order. Together with the
    /// current database this is everything Theorem 1 says a restart needs.
    pub fn export_states(&self) -> Vec<RuleState> {
        self.runtimes
            .iter()
            .map(|rt| RuleState {
                name: rt.rule.name.clone(),
                evaluator: rt.evaluator.export_state(),
                last_envs: rt.last_envs.clone(),
            })
            .collect()
    }

    /// Installs per-rule states exported by [`RuleManager::export_states`].
    /// The manager must hold the same rules in the same registration order
    /// (re-register the catalog first); mismatches are typed errors, not
    /// silent corruption.
    pub fn import_states(&mut self, states: Vec<RuleState>) -> Result<()> {
        if states.len() != self.runtimes.len() {
            return Err(CoreError::RestoreMismatch(format!(
                "manager has {} registered rules but snapshot carries {}",
                self.runtimes.len(),
                states.len()
            )));
        }
        for (rt, st) in self.runtimes.iter_mut().zip(states) {
            if rt.rule.name != st.name {
                return Err(CoreError::RestoreMismatch(format!(
                    "rule order mismatch: manager has `{}` where snapshot has `{}`",
                    rt.rule.name, st.name
                )));
            }
            rt.evaluator.import_state(st.evaluator)?;
            let mut envs = st.last_envs;
            envs.sort();
            envs.dedup();
            rt.last_envs = envs;
        }
        Ok(())
    }

    /// Overwrites the counters (restored alongside the rule states).
    pub fn set_stats(&mut self, stats: ManagerStats) {
        self.stats = stats;
    }

    /// Runs the whole-rule-set static verifier over every registered rule:
    /// per-rule boundedness certification and lints, plus the
    /// triggering-graph termination/confluence analysis with read sets
    /// resolved through the catalog (`db`) and write sets derived from the
    /// registered actions.
    pub fn lint_rule_set(&self, db: &Database) -> Report {
        let inputs: Vec<RuleInput> = self
            .runtimes
            .iter()
            .map(|rt| RuleInput {
                facts: batch_facts(rt, db),
                condition: rt.rule.firing_condition(),
                spans: None,
            })
            .collect();
        tdb_analysis::analyze_rule_set(&inputs)
    }
}

/// One rule's facts for the rule graphs: its read set; its action's writes,
/// plus its `executed` relation and the `rule_execute` event when its
/// firings are recorded; and whether the action's value terms read database
/// state at materialization time (the `executed` record is pure: it stores
/// the firing's own time and bindings). A later `executed(rule, …)`
/// reference extends the writes ([`recorder_writes`]).
fn batch_facts(rt: &RuleRuntime, db: &Database) -> BatchRule {
    let mut writes = action_writes(&rt.rule);
    if effectively_recording(&rt.rule, db) {
        writes.extend(recorder_writes(&rt.rule.name));
    }
    let mut terms = rt.rule.action.ops().iter().flat_map(ActionOp::terms);
    BatchRule {
        name: rt.rule.name.clone(),
        reads: rt.reads.clone(),
        writes,
        impure_action_values: terms.any(|t| !ReadSet::of_term(t).is_empty()),
    }
}

/// What recording its firings makes a rule write: its `executed` relation
/// and the `rule_execute` event.
fn recorder_writes(rule: &str) -> [Resource; 2] {
    [
        Resource::Relation(executed_relation_name(rule)),
        Resource::Event(tdb_engine::event::names::RULE_EXECUTE.to_string()),
    ]
}

/// Whether a firing of this rule is recorded in its `executed` relation:
/// either the rule opted in, or some other rule referenced `executed(r, …)`
/// and materialized the relation (the facade records into it whenever it
/// exists).
pub(crate) fn effectively_recording(rule: &Rule, db: &Database) -> bool {
    rule.record_executed || db.relation(&executed_relation_name(&rule.name)).is_ok()
}

/// The catalog resources a rule's action writes.
pub(crate) fn action_writes(rule: &Rule) -> BTreeSet<Resource> {
    let ops = rule.action.ops().iter();
    ops.map(|op| match op {
        ActionOp::SetItem { item, .. } => Resource::Item(item.clone()),
        ActionOp::Insert { relation, .. } | ActionOp::Delete { relation, .. } => {
            Resource::Relation(relation.clone())
        }
    })
    .collect()
}

/// The durable state of one registered rule, as captured in a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleState {
    /// Rule name; import verifies it against the registration order.
    pub name: String,
    /// The evaluator's formula states.
    pub evaluator: EvaluatorState,
    /// Bindings satisfied at the last evaluated state (edge-trigger
    /// memory), sorted and deduplicated.
    pub last_envs: Vec<tdb_ptl::Env>,
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use crate::rules::Action;
    use tdb_ptl::{parse_formula, Term};
    use tdb_relation::parse_query;

    fn db() -> Database {
        let mut db = Database::new();
        db.set_item("A", tdb_relation::Value::Int(5));
        db.define_query("a", QueryDef::new(0, parse_query("item A").unwrap()));
        db
    }

    #[test]
    fn duplicate_rules_rejected() {
        let mut m = RuleManager::new(ManagerConfig::default());
        let mut d = db();
        let r = Rule::trigger("r", parse_formula("a() > 0").unwrap(), Action::Notify);
        m.register(r.clone(), &mut d, None).unwrap();
        assert!(matches!(
            m.register(r, &mut d, None),
            Err(CoreError::DuplicateRule(_))
        ));
    }

    #[test]
    fn unknown_query_rejected_at_registration() {
        let mut m = RuleManager::new(ManagerConfig::default());
        let mut d = db();
        let r = Rule::trigger("r", parse_formula("nope() > 0").unwrap(), Action::Notify);
        assert!(m.register(r, &mut d, None).is_err());
    }

    #[test]
    fn executed_reference_requires_target_rule() {
        let mut m = RuleManager::new(ManagerConfig::default());
        let mut d = db();
        let r2 = Rule::trigger(
            "r2",
            parse_formula("executed(r1, t) and time = t + 10").unwrap(),
            Action::Notify,
        );
        assert!(matches!(
            m.register(r2.clone(), &mut d, None),
            Err(CoreError::NoSuchRule(_))
        ));
        let r1 = Rule::trigger("r1", parse_formula("a() > 0").unwrap(), Action::Notify)
            .recording_executed();
        m.register(r1, &mut d, None).unwrap();
        m.register(r2, &mut d, None).unwrap();
        // The executed relation and its reader query now exist.
        assert!(d.relation(&executed_relation_name("r1")).is_ok());
        assert!(d.query_def(&executed_query_name("r1")).is_ok());
    }

    #[test]
    fn failed_registration_leaves_no_trace() {
        let mut m = RuleManager::new(ManagerConfig::default());
        let mut d = db();
        let watch = Rule::trigger("watch", parse_formula("a() > 0").unwrap(), Action::Notify);
        m.register(watch, &mut d, None).unwrap();
        let (db_before, safety_before) = (d.clone(), m.batch_safety());
        let fences_before = m.writer_fences().clone();

        // `watch` is about to become a recorder when the condition turns
        // out to name an unknown query.
        let bad = Rule::trigger(
            "a",
            parse_formula(
                "avg(a(); time = 0; a() >= 0) > 5 and executed(watch, t) and nosuchq() > 1",
            )
            .unwrap(),
            Action::Notify,
        );
        assert!(m.register(bad, &mut d, None).is_err());
        assert_eq!(m.rule_names(), ["watch"]);
        assert_eq!(d, db_before);
        assert_eq!(m.index.len(), 1);
        assert_eq!(m.batch_safety(), safety_before);
        assert_eq!(m.batch_certificate(), BatchCertificate::Exact);
        assert_eq!(m.writer_fences(), &fences_before);
        assert!(m.lint_findings().is_empty());

        // The corrected rule registers under the same name; its aggregate is
        // formula state, so it brings no rule of its own.
        let good = Rule::trigger(
            "a",
            parse_formula("avg(a(); time = 0; a() >= 0) > 5 and executed(watch, t)").unwrap(),
            Action::Notify,
        );
        m.register(good, &mut d, None).unwrap();
        assert_eq!(m.rule_names(), ["watch", "a"]);
        assert!(m.rule("a").is_some());
        // `watch` now records its firings: a writer, fenced on.
        assert!(d.relation(&executed_relation_name("watch")).is_ok());
        assert!(m.writer_fences().reads.reads_data("A"));
    }

    #[test]
    fn lint_deny_rejects_unbounded_rule_with_typed_error() {
        let mut m = RuleManager::new(ManagerConfig {
            lint: LintLevel::Deny,
            ..Default::default()
        });
        let mut d = db();
        let r = Rule::trigger(
            "audit",
            parse_formula("@pulse and once @login(u)").unwrap(),
            Action::Notify,
        );
        match m.register(r, &mut d, None) {
            Err(CoreError::LintDenied { rule, code, .. }) => {
                assert_eq!(rule, "audit");
                assert_eq!(code, "TDB001");
            }
            other => panic!("expected LintDenied, got {other:?}"),
        }
        assert!(m.rule_names().is_empty(), "rejected rule must not register");

        // The time-guarded variant is certified bounded and registers fine.
        let guarded = Rule::trigger(
            "audit",
            parse_formula("[t := time] @pulse and once(@login(u) and time >= t - 30)").unwrap(),
            Action::Notify,
        );
        m.register(guarded, &mut d, None).unwrap();
        assert!(m.lint_findings().is_empty());
    }

    #[test]
    fn lint_warn_records_findings_but_registers() {
        let mut m = RuleManager::new(ManagerConfig::default());
        let mut d = db();
        let r = Rule::trigger(
            "audit",
            parse_formula("@pulse and once @login(u)").unwrap(),
            Action::Notify,
        );
        m.register(r, &mut d, None).unwrap();
        assert_eq!(m.rule_names(), ["audit"]);
        assert_eq!(m.lint_findings().len(), 1);
        assert_eq!(m.lint_findings()[0].code.code(), "TDB001");
    }

    #[test]
    fn lint_rule_set_reports_mutual_trigger_cycle() {
        let mut m = RuleManager::new(ManagerConfig::default());
        let mut d = db();
        d.set_item("B", tdb_relation::Value::Int(0));
        d.define_query("b", QueryDef::new(0, parse_query("item B").unwrap()));
        let bump_b = Rule::trigger(
            "bump_b",
            parse_formula("a() > 0").unwrap(),
            Action::DbOps(vec![ActionOp::SetItem {
                item: "B".into(),
                value: Term::lit(1i64),
            }]),
        );
        let bump_a = Rule::trigger(
            "bump_a",
            parse_formula("b() > 0").unwrap(),
            Action::DbOps(vec![ActionOp::SetItem {
                item: "A".into(),
                value: Term::lit(1i64),
            }]),
        );
        m.register(bump_b, &mut d, None).unwrap();
        m.register(bump_a, &mut d, None).unwrap();
        let report = m.lint_rule_set(&d);
        assert!(report
            .diagnostics
            .iter()
            .any(|diag| diag.code.code() == "TDB010"));
    }

    #[test]
    fn batch_certificate_tracks_registrations() {
        let mut m = RuleManager::new(ManagerConfig::default());
        let mut d = db();
        d.set_item("SINK", tdb_relation::Value::Int(0));
        d.define_query("sink", QueryDef::new(0, parse_query("item SINK").unwrap()));

        // Notify-only catalog: exact, no fences.
        let watch = Rule::trigger("watch", parse_formula("a() > 0").unwrap(), Action::Notify);
        m.register(watch, &mut d, None).unwrap();
        assert_eq!(m.batch_certificate(), BatchCertificate::Exact);
        assert!(!m.writer_fences().any);

        // A pure writer to an item nobody reads yet: stratified (its write
        // state consumes a clock tick, so it must be fence-drained), with
        // the fences covering the writer's read set.
        let mark = Rule::trigger(
            "mark",
            parse_formula("a() > 1").unwrap(),
            Action::DbOps(vec![ActionOp::SetItem {
                item: "SINK".into(),
                value: Term::lit(1i64),
            }]),
        );
        m.register(mark, &mut d, None).unwrap();
        assert_eq!(
            m.batch_certificate(),
            BatchCertificate::Stratified { strata: 1 }
        );
        assert!(m.writer_fences().any);
        assert!(m.writer_fences().reads.reads_data("A"));

        // A reader of the written item: acyclic write cascade, stratified.
        let follow = Rule::trigger(
            "follow",
            parse_formula("sink() > 0").unwrap(),
            Action::Notify,
        );
        m.register(follow, &mut d, None).unwrap();
        assert_eq!(
            m.batch_certificate(),
            BatchCertificate::Stratified { strata: 2 }
        );
        let edges = &m.batch_safety().edges;
        assert!(edges
            .iter()
            .any(|e| e.writer == "mark" && e.reader == "follow"));

        // A rule writing its own read set: cyclic, cascade-required.
        let bump = Rule::trigger(
            "bump",
            parse_formula("a() < 10").unwrap(),
            Action::DbOps(vec![ActionOp::SetItem {
                item: "A".into(),
                value: Term::lit(1i64),
            }]),
        );
        m.register(bump, &mut d, None).unwrap();
        assert_eq!(m.batch_certificate(), BatchCertificate::CascadeRequired);
        assert_eq!(m.batch_safety().cycles, vec![vec!["bump".to_string()]]);
    }

    #[test]
    fn level_triggered_writer_requires_cascade() {
        let mut m = RuleManager::new(ManagerConfig::default());
        let mut d = db();
        // A level-triggered writer fires at every satisfying state — an
        // inserted write state included — so it is order-sensitive and
        // self-cycles through the state-order resource.
        let r = Rule::trigger(
            "persist",
            parse_formula("a() > 0").unwrap(),
            Action::DbOps(vec![ActionOp::SetItem {
                item: "SINK".into(),
                value: Term::lit(1i64),
            }]),
        )
        .level_triggered();
        m.register(r, &mut d, None).unwrap();
        assert_eq!(m.batch_certificate(), BatchCertificate::CascadeRequired);
    }

    #[test]
    fn impure_action_values_demote_to_stratified() {
        let mut m = RuleManager::new(ManagerConfig::default());
        let mut d = db();
        // The written value reads a query at materialization time: a
        // delayed schedule could write a different value even though
        // nobody reads the sink.
        let r = Rule::trigger(
            "snapshot",
            parse_formula("a() > 1").unwrap(),
            Action::DbOps(vec![ActionOp::SetItem {
                item: "SINK".into(),
                value: tdb_ptl::parse_term("a() + 1").unwrap(),
            }]),
        );
        m.register(r, &mut d, None).unwrap();
        assert_eq!(
            m.batch_certificate(),
            BatchCertificate::Stratified { strata: 1 }
        );
        assert_eq!(m.batch_safety().impure, vec!["snapshot".to_string()]);
    }
}

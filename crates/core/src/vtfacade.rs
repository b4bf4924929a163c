//! [`VtActiveDatabase`] — rules over the valid-time engine (Section 9).
//!
//! Every trigger and constraint is a rule of one [`RuleManager`]: a trigger
//! over `c` is a level-triggered notify rule over `c`, a constraint `C` a
//! rule over `not C` whose firings are violations, never streamed. A late
//! update re-evaluates "for each state starting with the oldest system
//! state that was updated": the manager is rewound to the mark taken
//! after the state before it, and the suffix is dispatched again one state
//! per [`RuleManager::dispatch_slice`], each delta reaching the read-set
//! index and the atom-keep kernel.
//!
//! Firings stream phase-tagged ([`VtActiveDatabase::ingest`]): announced
//! [`VtPhase::Tentative`], then **retracted** if a late arrival revises
//! them away, or **confirmed** once the watermark `W = now − Δ` has passed
//! them — the paper's definite trigger: no admissible arrival can change a
//! state strictly behind `W`. A streaming instance folds the definite
//! prefix into the engine's base and replays from the mark after the last
//! folded state: memory O(Δ), not O(history).
//!
//! Constraints are enforced **online**: an ingest advances clones of the
//! constraints' rules from the mark before its state (a folded prefix
//! still counts), a transactional [`VtActiveDatabase::commit`] checks
//! [`online_satisfied`]; [`VtActiveDatabase::offline_report`] audits.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use tdb_engine::{TxnId, VtEngine, WriteOp};
use tdb_ptl::Formula;
use tdb_relation::{Database, QueryDef, Relation, Timestamp, Value};

use crate::context::EvalContext;
use crate::error::{CoreError, Result};
use crate::facade::refusal;
use crate::manager::{ManagerConfig, ManagerStats, Mark, PreparedRule, RuleManager};
use crate::rules::{Action, FiringRecord, Rule, RuleKind};
use crate::storage::LogicalOp;
use crate::validtime::{offline_satisfied, online_satisfied, unchanged_suffix, CheckpointRing};

/// Lifecycle phase of a streamed valid-time firing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VtPhase {
    /// Fired on tentative data; may still be revised by a late arrival.
    Tentative,
    /// The watermark passed the firing's timestamp with the firing intact:
    /// it is definite and will never change.
    Confirmed,
    /// A late arrival re-evaluated the firing's state and the condition no
    /// longer holds (with these bindings): the tentative firing is revoked.
    Retracted,
}

/// One phase-tagged event on the streamed firing channel.
#[derive(Debug, Clone, PartialEq)]
pub struct VtFiringEvent {
    pub phase: VtPhase,
    pub record: FiringRecord,
}

impl VtPhase {
    fn of(self, record: FiringRecord) -> VtFiringEvent {
        VtFiringEvent {
            phase: self,
            record,
        }
    }
}

/// Per-constraint offline-satisfaction verdicts (`offline_report`).
pub type OfflineReport = Vec<(String, bool)>;

/// A trigger or constraint that passed registration's checks.
#[derive(Debug)]
#[must_use = "install the rule or drop it"]
pub struct VtRuleReady {
    prepared: PreparedRule,
    /// A constraint's condition; `None` for a trigger.
    constraint: Option<Formula>,
}

/// Where a pass stopped early: the instant of the state it stopped at, and
/// by how many indices the states after it moved up.
type Kept = (Timestamp, usize);

/// An active database over valid time.
#[derive(Debug)]
pub struct VtActiveDatabase {
    engine: VtEngine,
    /// Every trigger and constraint, as one rule set (module docs).
    rules: RuleManager,
    /// Per rule, by registration position: a trigger's announced but
    /// undecided firings, by state index; `None` for a constraint.
    pending: Vec<Option<Vec<FiringRecord>>>,
    /// Each constraint's name and the condition it holds to.
    constraints: Vec<(String, Formula)>,
    firing_log: Vec<FiringRecord>,
    /// Phase-tagged stream of tentative/confirmed/retracted firings.
    stream_log: Vec<VtFiringEvent>,
    /// Positions in `stream_log` of the `Confirmed` events, in order — the
    /// definite log without a second copy of its records.
    confirmed: Vec<usize>,
    /// The rules after each recent state: it spans every state one fold
    /// can take (at most Δ + 1 instants hold live states at or above `W`).
    marks: CheckpointRing,
    /// The replay point for local index 0: the rules as registered, and as
    /// they stood after the last compacted state once a prefix is folded.
    base: Mark,
    /// Whether the rules are exactly the copy source of the newest mark (of
    /// `base`, with an empty ring): a pass from there needs no rewind.
    at_newest: bool,
    /// The storage of the base a fold retired, reused by the next mark.
    spare: Mark,
    /// First history index not yet (or no longer) processed.
    frontier: usize,
    /// The first rule registered over live states since the last pass.
    fresh: Option<usize>,
    /// Earliest state index touched since the last rule pass.
    dirty_from: Option<usize>,
    /// Fold the definite prefix into the base as the watermark advances.
    compaction: bool,
    /// Bumped on every history mutation; keys the offline-report memo.
    version: u64,
    offline_cache: RefCell<Option<(u64, OfflineReport)>>,
    offline_evals: Cell<u64>,
    /// Test switch: never stop a pass early — the full-suffix replay the
    /// differential tests compare against.
    #[cfg(test)]
    full_replay: bool,
    /// Test probe: every early stop.
    #[cfg(test)]
    early_stops: Vec<Kept>,
}

impl VtActiveDatabase {
    pub fn new(base: Database, max_delay: i64) -> VtActiveDatabase {
        let engine = VtEngine::new(base, max_delay);
        let window = (engine.max_delay() as usize).saturating_add(4).max(8);
        VtActiveDatabase {
            engine,
            rules: RuleManager::new(ManagerConfig::default()),
            pending: Vec::new(),
            constraints: Vec::new(),
            firing_log: Vec::new(),
            stream_log: Vec::new(),
            confirmed: Vec::new(),
            marks: CheckpointRing::new(window),
            base: Mark::default(),
            at_newest: false,
            spare: Mark::default(),
            frontier: 0,
            fresh: None,
            dirty_from: None,
            compaction: false,
            version: 0,
            offline_cache: RefCell::new(None),
            offline_evals: Cell::new(0),
            #[cfg(test)]
            full_replay: false,
            #[cfg(test)]
            early_stops: Vec::new(),
        }
    }

    /// A streaming instance: same semantics, plus the definite prefix is
    /// compacted into a checkpoint as the watermark advances (memory O(Δ)).
    pub fn new_streaming(base: Database, max_delay: i64) -> VtActiveDatabase {
        let mut vt = VtActiveDatabase::new(base, max_delay);
        vt.compaction = true;
        vt
    }

    /// Schema seeding: creates a relation in the base database. Like every
    /// seed, only legal before the first ingest — states materialize lazily
    /// from the base, so a later edit would rewrite history
    /// ([`tdb_engine::EngineError::SeedAfterHistory`]).
    pub fn create_relation(&mut self, name: impl Into<String>, rel: Relation) -> Result<()> {
        self.engine
            .base_mut()?
            .create_relation(name, rel)
            .map_err(CoreError::Rel)?;
        self.version += 1;
        Ok(())
    }

    /// Schema seeding: defines a named query in the base database.
    pub fn define_query(&mut self, name: impl Into<String>, def: QueryDef) -> Result<()> {
        self.engine.base_mut()?.define_query(name, def);
        self.version += 1;
        Ok(())
    }

    /// Schema seeding: sets an item value in the base database.
    pub fn set_item(&mut self, name: impl Into<String>, value: Value) -> Result<()> {
        self.engine.base_mut()?.set_item(name, value);
        self.version += 1;
        Ok(())
    }

    pub fn engine(&self) -> &VtEngine {
        &self.engine
    }

    pub fn now(&self) -> Timestamp {
        self.engine.now()
    }

    /// The watermark `W = now − Δ`: firings with `time < W` are definite.
    pub fn watermark(&self) -> Timestamp {
        self.engine.definite_frontier()
    }

    pub fn firings(&self) -> &[FiringRecord] {
        &self.firing_log
    }

    /// The full phase-tagged stream, in emission order.
    pub fn stream_log(&self) -> &[VtFiringEvent] {
        &self.stream_log
    }

    /// All confirmed (definite) firings, in confirmation order.
    pub fn confirmed_firings(&self) -> Vec<FiringRecord> {
        self.confirmed_from(0)
    }

    /// Number of confirmed (definite) firings so far.
    pub fn confirmed_count(&self) -> usize {
        self.confirmed.len()
    }

    /// The confirmed firings from position `from` of the definite log on.
    pub fn confirmed_from(&self, from: usize) -> Vec<FiringRecord> {
        self.confirmed
            .get(from..)
            .unwrap_or_default()
            .iter()
            .map(|&i| self.stream_log[i].record.clone())
            .collect()
    }

    /// Number of announced tentative firings not yet confirmed or retracted.
    pub fn pending_tentative(&self) -> usize {
        self.pending.iter().flatten().map(Vec::len).sum()
    }

    /// Number of registered rules, triggers and constraints alike.
    pub fn rule_count(&self) -> usize {
        self.pending.len()
    }

    /// The rule manager's counters.
    pub fn stats(&self) -> ManagerStats {
        self.rules.stats()
    }

    /// The evaluation context shared by this database's rules.
    pub fn eval_context(&self) -> &Arc<EvalContext> {
        self.rules.context()
    }

    /// Whether `name` is taken. Triggers and constraints share one
    /// namespace: logs and rule files refer to either by name alone.
    pub fn has_rule(&self, name: &str) -> bool {
        self.rules.rule(name).is_some()
    }

    /// Prepares a source of triggers and constraints (each rule's
    /// [`RuleKind`]; its action is not consulted) against a clone of the
    /// base, unprimed: they start at the window's first state. Every query
    /// they read must resolve, no name may be taken — in the source
    /// included — and none may read `executed(…)`: nothing records a
    /// firing here. All or nothing, and registers nothing: hand the
    /// results, in order, to [`VtActiveDatabase::install`].
    pub fn prepare(&self, rules: &[Rule]) -> Result<Vec<VtRuleReady>> {
        let as_triggers = rules.iter().map(|r| {
            let c = match r.kind {
                RuleKind::Trigger => r.condition.clone(),
                RuleKind::Constraint => Formula::not(r.condition.clone()),
            };
            Rule::trigger(r.name.clone(), c, Action::Notify).level_triggered()
        });
        let mut db = self.engine.base().clone();
        let prepared = self.rules.prepare(as_triggers.collect(), &mut db, None)?;
        if let Some(p) = prepared.iter().find(|p| p.touches_database()) {
            return Err(CoreError::UnrecordedExecutions(p.name().to_string()));
        }
        let ready = prepared
            .into_iter()
            .zip(rules)
            .map(|(prepared, r)| VtRuleReady {
                prepared,
                constraint: (r.kind == RuleKind::Constraint).then(|| r.condition.clone()),
            });
        Ok(ready.collect())
    }

    /// Registers a source of triggers and constraints, all or nothing (see
    /// [`VtActiveDatabase::prepare`]).
    pub fn add_rules(&mut self, rules: &[Rule]) -> Result<()> {
        for ready in self.prepare(rules)? {
            self.install(ready);
        }
        Ok(())
    }

    /// Registers a trigger.
    pub fn add_trigger(&mut self, name: impl Into<String>, condition: Formula) -> Result<()> {
        self.add_rules(&[Rule::trigger(name, condition, Action::Notify)])
    }

    /// Registers a temporal integrity constraint, enforced online at every
    /// commit (and at every stream ingest).
    pub fn add_constraint(&mut self, name: impl Into<String>, condition: Formula) -> Result<()> {
        self.add_rules(&[Rule::constraint(name, condition)])
    }

    /// Installs a prepared rule, fresh, in the manager and the base mark,
    /// and clears the ring: the next pass runs the whole window from the
    /// base, where the new rule reports every state (as if registered
    /// before the first) and the others report what they would anyway.
    pub fn install(&mut self, ready: VtRuleReady) {
        let name = self.rules.install(ready.prepared);
        self.base.adopt(&self.rules);
        self.marks.clear();
        self.at_newest = false;
        if self.engine.state_count() > 0 {
            self.fresh.get_or_insert(self.pending.len());
        }
        self.pending.push(ready.constraint.is_none().then(Vec::new));
        if let Some(c) = ready.constraint {
            self.constraints.push((name, c));
            self.version += 1;
        }
    }

    /// The op interpreter: applies one input through the method it names —
    /// a schema seed, a clock op or a `CommitAt` ingest — and returns the
    /// stream events it produced. What [`VtActiveDatabase::refusal`] refuses
    /// is refused here too, before anything applies. `replay` is set on
    /// recovery only: a logged `RegisterRules` record installs, and a
    /// logged batch applies its members one by one, each member's error
    /// absorbed as a replay absorbs every re-failure.
    pub fn apply(&mut self, op: &LogicalOp, replay: bool) -> Result<Vec<VtFiringEvent>> {
        refusal(op, replay, false, true)?;
        let seeded = |r: Result<()>| r.map(|()| Vec::new());
        match op {
            LogicalOp::CreateRelation { name, relation } => {
                seeded(self.create_relation(name.clone(), relation.clone()))
            }
            LogicalOp::DefineQuery { name, def } => {
                seeded(self.define_query(name.clone(), def.clone()))
            }
            LogicalOp::SetItem { name, value } => {
                seeded(self.set_item(name.clone(), value.clone()))
            }
            LogicalOp::RegisterRules { rules } => seeded(self.add_rules(rules)),
            LogicalOp::AdvanceClock { delta } => self.advance_watermark(*delta),
            LogicalOp::AdvanceClockTo { t } => self.advance_to(*t),
            LogicalOp::Tick => self.advance_watermark(1),
            LogicalOp::CommitAt { valid, ops } => self.ingest(ops.clone(), *valid),
            LogicalOp::Batch { ops } => Ok((ops.iter())
                .filter(|op| refusal(op, replay, true, true).is_ok())
                .flat_map(|op| self.apply(op, replay).unwrap_or_default())
                .collect()),
            // Refused above.
            _ => Ok(Vec::new()),
        }
    }

    /// The refusal [`VtActiveDatabase::apply`] raises for a live op — a
    /// member of a group commit when `member` is set — for a caller that
    /// logs the op before it applies it: every refusal is
    /// [`CoreError::RefusedOp`].
    pub fn refusal(op: &LogicalOp, member: bool) -> Result<()> {
        refusal(op, false, member, true)
    }

    pub fn advance_clock(&mut self, delta: i64) -> Result<Timestamp> {
        let t = self.engine.now().plus(delta.max(0));
        self.advance_to(t)?;
        Ok(self.engine.now())
    }

    /// Advances the watermark by `delta` clock units, returning the events
    /// this produced: tentative firings of newly evaluated states, plus a
    /// Confirmed or Retracted resolution for every pending firing the new
    /// watermark passed.
    pub fn advance_watermark(&mut self, delta: i64) -> Result<Vec<VtFiringEvent>> {
        let t = self.engine.now().plus(delta.max(0));
        self.advance_to(t)
    }

    /// Advances the clock to an absolute instant (idempotent for `t ≤ now`),
    /// firing rules, resolving pending firings behind the new watermark and
    /// compacting the definite prefix when enabled.
    pub fn advance_to(&mut self, t: Timestamp) -> Result<Vec<VtFiringEvent>> {
        if t > self.engine.now() {
            self.engine.advance_clock_to(t)?;
            self.version += 1;
        }
        let mut events = self.run_rules()?;
        events.extend(self.confirm_and_compact()?);
        Ok(events)
    }

    /// Stream-ingests `ops` at an explicit valid time ≤ now (the arrival
    /// instant), committed at its valid instant: the history depends only
    /// on `(valid, ops)`, never on arrival order. Returns the events the
    /// ingest produced (new tentative firings, retractions).
    pub fn ingest(&mut self, ops: Vec<WriteOp>, valid: Timestamp) -> Result<Vec<VtFiringEvent>> {
        // Every constraint must hold at the would-be state, or the ingest is
        // dropped before it leaves a trace: the constraints' rules advance on
        // clones from the newest mark no pending pass revises.
        let guards: Vec<usize> = (self.pending.iter().enumerate())
            .filter_map(|(id, p)| p.is_none().then_some(id))
            .collect();
        let settled = self.settled();
        let compacted = self.engine.compacted();
        let (rules, marks, base) = (&self.rules, &self.marks, &self.base);
        let idx = self
            .engine
            .ingest_committed_gated(ops, valid, |history, idx| {
                if guards.is_empty() {
                    return Ok(());
                }
                let (from, mark) =
                    (marks.before(idx.min(settled))).map_or((0, base), |(i, mark)| (i + 1, mark));
                let states = (from..=idx)
                    .map(|i| history.get(i).ok_or(CoreError::StateNotRetained(i)))
                    .collect::<Result<Vec<_>>>()?;
                match rules
                    .probe(mark, &guards, &states, compacted + from)?
                    .first()
                {
                    Some(v) => Err(CoreError::ConstraintRejected {
                        constraint: v.rule.clone(),
                    }),
                    None => Ok(()),
                }
            })?;
        self.version += 1;
        self.dirty(idx);
        self.run_rules()
    }

    /// The first index the next pass re-evaluates: the marks before it stand.
    fn settled(&self) -> usize {
        self.dirty_from
            .map_or(self.frontier, |d| d.min(self.frontier))
    }

    fn dirty(&mut self, idx: usize) {
        self.dirty_from = Some(self.dirty_from.map_or(idx, |d| d.min(idx)));
    }

    pub fn begin(&mut self) -> Result<TxnId> {
        self.version += 1;
        Ok(self.engine.begin()?)
    }

    /// Posts a (possibly retroactive) update.
    pub fn update_at(&mut self, txn: TxnId, op: WriteOp, valid: Timestamp) -> Result<usize> {
        let idx = self.engine.update_at(txn, op, valid)?;
        self.version += 1;
        self.dirty(idx);
        Ok(idx)
    }

    pub fn update(&mut self, txn: TxnId, op: WriteOp) -> Result<usize> {
        let now = self.engine.now();
        self.update_at(txn, op, now)
    }

    /// Commits, enforcing every constraint online ([`online_satisfied`]
    /// over the committed history with this commit); on violation the
    /// transaction is aborted instead.
    pub fn commit(&mut self, txn: TxnId) -> Result<usize> {
        // VtEngine has no prepared commits: check against a committed clone.
        let mut probe = self.engine.clone_for_probe();
        probe.commit(txn)?;
        for (name, condition) in &self.constraints {
            if !online_satisfied(&probe, condition)? {
                let reason = format!("valid-time constraint `{name}` violated online");
                self.abort(txn)?;
                return Err(tdb_engine::EngineError::Aborted { txn, reason }.into());
            }
        }
        let idx = self.engine.commit(txn)?;
        self.version += 1;
        self.run_rules()?;
        Ok(idx)
    }

    /// Aborts a transaction: the suffix from its earliest update is
    /// re-evaluated, and firings that depended on it are retracted.
    pub fn abort(&mut self, txn: TxnId) -> Result<usize> {
        let first = self.engine.first_update_of(txn);
        let idx = self.engine.abort(txn)?;
        self.version += 1;
        if let Some(d) = first.and_then(|t| self.engine.state_index_at(t)) {
            self.dirty(d);
        }
        self.run_rules()?;
        Ok(idx)
    }

    /// Runs a pass over the window, returning the stream events: new
    /// tentative firings and retractions of revised ones.
    fn run_rules(&mut self) -> Result<Vec<VtFiringEvent>> {
        let start = self.settled();
        self.dirty_from = None;
        let fresh = self.fresh.take();
        let compacted = self.engine.compacted();
        self.frontier = self.engine.tentative_window().len();
        if fresh.map_or(start, |_| 0) >= self.frontier {
            return Ok(Vec::new());
        }
        let (fired, kept) = self.replay(start)?;
        let mut by_rule = vec![Vec::new(); self.pending.len()];
        for rec in fired {
            if let Some(id) = self.rules.position(&rec.rule) {
                by_rule[id].push(rec);
            }
        }
        let mut events = Vec::new();
        for (id, (pending, fired)) in self.pending.iter_mut().zip(by_rule).enumerate() {
            let Some(pending) = pending else {
                continue;
            };
            // The pass (re)fired the states from `start` on (a fresh rule:
            // the whole window). Its firings diff against the pending ones
            // there: an unchanged (time, env) stays silent, a new one is
            // announced, one that vanished is retracted.
            let start = compacted
                + if fresh.is_some_and(|f| id >= f) {
                    0
                } else {
                    start
                };
            let mut old = pending.split_off(pending.partition_point(|p| p.state_index < start));
            // Those of states the pass left alone stand, at their new index.
            let mut kept = kept.map_or(Vec::new(), |(after, shift)| {
                let mut kept = old.split_off(old.partition_point(|p| p.time <= after));
                kept.iter_mut().for_each(|p| p.state_index += shift);
                kept
            });
            for rec in fired.into_iter().filter(|f| f.state_index >= start) {
                let at = old.partition_point(|p| p.time < rec.time);
                let mut same = old[at..].iter().take_while(|p| p.time == rec.time);
                match same.position(|p| p.env == rec.env) {
                    Some(i) => drop(old.remove(at + i)),
                    None => events.push(VtPhase::Tentative.of(rec.clone())),
                }
                self.firing_log.push(rec.clone());
                pending.push(rec);
            }
            events.extend(old.into_iter().map(|r| VtPhase::Retracted.of(r)));
            // The raw log records every (re)firing, the kept ones included.
            self.firing_log.extend(kept.iter().cloned());
            pending.append(&mut kept);
        }
        self.log_events(&events);
        Ok(events)
    }

    /// Rewinds the rules to the newest mark before `start` (or the base)
    /// and dispatches the window from there, marking after each state.
    /// Returns the firings, and where the pass stopped early. A pass that
    /// resumes from the newest mark while the rules stand where it was
    /// taken (an in-order ingest) copies each rule once: into its mark.
    ///
    /// The rules after state *j* are a function of the rules after *j − 1*
    /// and of state *j* alone (Theorem 1). Once (a) the rules stand where
    /// the stale mark of the very same state has them
    /// ([`RuleManager::same_states`]) and (b) every later state is the very
    /// object a later stale mark was taken after, the rest of the pass would
    /// recompute those marks and re-fire those firings verbatim: it stops
    /// and keeps them, renumbered by the states the late arrival inserted.
    /// A snapshot term re-taken at a renumbered state carries its new index
    /// ([`crate::parteval::StateView`]), so (a) fails while one is retained:
    /// the full-suffix replay is the fallback, not a separate mode.
    fn replay(&mut self, start: usize) -> Result<(Vec<FiringRecord>, Option<Kept>)> {
        let window = self.engine.tentative_window();
        let compacted = self.engine.compacted();
        let from = self.marks.before(start).map_or(0, |(i, _)| i + 1);
        // The marks this pass supersedes — unless it meets them again, which
        // it can from where the window ends in exactly their states.
        let mut stale = self.marks.split_off(from);
        if !(stale.is_empty() && self.at_newest) {
            self.rules.rewind(self.marks.newest().unwrap_or(&self.base));
        }
        self.at_newest = false;
        let unchanged_from = window.len() - unchanged_suffix(window, &stale);
        #[cfg(test)]
        let unchanged_from = if self.full_replay {
            window.len()
        } else {
            unchanged_from
        };
        let mut fired = Vec::new();
        for (idx, state) in window.iter().skip(from) {
            // Dispatched under its global index: snapshot terms carry that
            // number as their identity, and local ones repeat after a fold.
            let global = idx + compacted;
            let slice = std::slice::from_ref(state);
            fired.extend(self.rules.dispatch_slice(slice, global, &[false])?);
            if idx >= unchanged_from {
                while stale.front().is_some_and(|c| c.time < state.time()) {
                    stale.pop_front();
                }
                let again = (stale.front())
                    .filter(|c| c.taken_after(state) && self.rules.same_states(&c.mark));
                if let Some(shift) = again.and_then(|c| global.checked_sub(c.idx)) {
                    self.marks.readopt(stale, shift);
                    #[cfg(test)]
                    self.early_stops.push((state.time(), shift));
                    return Ok((fired, Some((state.time(), shift))));
                }
            }
            let mut mark = std::mem::take(&mut self.spare);
            self.rules.mark_into(&mut mark);
            self.marks.push(idx, state, mark);
        }
        self.at_newest = true;
        Ok((fired, None))
    }

    /// Appends `events` to the stream log, indexing the confirmations.
    fn log_events(&mut self, events: &[VtFiringEvent]) {
        for e in events {
            if e.phase == VtPhase::Confirmed {
                self.confirmed.push(self.stream_log.len());
            }
            self.stream_log.push(e.clone());
        }
    }

    /// Confirms every pending tentative firing the watermark has passed
    /// (strictly — a state at exactly `W` can still receive an update with
    /// `valid = now − Δ`), then folds the now-definite prefix into the base
    /// when compaction is enabled. A fold a transaction still blocks
    /// ([`tdb_engine::EngineError::CompactionBlocked`]) folds nothing now,
    /// never part of the prefix: the mark after a deep blocked state may
    /// have left the ring, but the mark just behind `W` is always in it, so
    /// a later advance folds the whole prefix once the transaction decides.
    fn confirm_and_compact(&mut self) -> Result<Vec<VtFiringEvent>> {
        let w = self.engine.definite_frontier();
        let mut confirmed: Vec<(usize, usize, FiringRecord)> = Vec::new();
        for (id, pending) in self.pending.iter_mut().enumerate() {
            if let Some(pending) = pending {
                let split = pending.partition_point(|f| f.time < w);
                confirmed.extend(pending.drain(..split).map(|f| (f.state_index, id, f)));
            }
        }
        // By state, then registration order (the stable sort keeps the
        // solver's within a rule): the same across arrival permutations.
        confirmed.sort_by_key(|&(state, id, _)| (state, id));
        let events: Vec<VtFiringEvent> = (confirmed.into_iter())
            .map(|(_, _, r)| VtPhase::Confirmed.of(r))
            .collect();
        let k = match self.compaction {
            true => match self.engine.compact_before(w) {
                Err(tdb_engine::EngineError::CompactionBlocked { .. }) => 0,
                folded => folded?,
            },
            false => 0,
        };
        if k > 0 {
            self.version += 1;
            // The mark after the last folded state replays local index 0;
            // the base it replaces lends its storage to the next mark.
            let missing = CoreError::CheckpointMissing { index: k - 1 };
            let mark = self.marks.shift_down(k).ok_or(missing)?;
            self.spare = std::mem::replace(&mut self.base, mark);
            self.frontier = self.frontier.saturating_sub(k);
        }
        self.log_events(&events);
        Ok(events)
    }

    /// Audits the (complete) history offline: which constraints are
    /// offline-satisfied? Memoized per history version: repeated audits of
    /// an unchanged watermark perform no re-evaluation.
    pub fn offline_report(&self) -> Result<OfflineReport> {
        if let Some((v, cached)) = self.offline_cache.borrow().as_ref() {
            if *v == self.version {
                return Ok(cached.clone());
            }
        }
        self.offline_evals.set(self.offline_evals.get() + 1);
        let report: OfflineReport = (self.constraints.iter())
            .map(|(name, c)| Ok((name.clone(), offline_satisfied(&self.engine, c)?)))
            .collect::<Result<_>>()?;
        *self.offline_cache.borrow_mut() = Some((self.version, report.clone()));
        Ok(report)
    }

    /// Number of full offline evaluations actually performed.
    pub fn offline_eval_count(&self) -> u64 {
        self.offline_evals.get()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use tdb_ptl::parse_formula;
    use tdb_relation::{Query, QueryDef, Value};

    fn base() -> Database {
        let mut db = Database::new();
        db.set_item("level", Value::Int(0));
        db.define_query("level", QueryDef::new(0, Query::item("level")));
        db
    }

    fn set_level(v: i64) -> WriteOp {
        WriteOp::SetItem {
            item: "level".into(),
            value: Value::Int(v),
        }
    }

    #[test]
    fn tentative_fires_immediately_definite_confirms_delta_late() {
        let mut vt = VtActiveDatabase::new(base(), 5);
        vt.add_trigger("tent", parse_formula("level() >= 10").unwrap())
            .unwrap();
        vt.advance_clock(1).unwrap();
        let t = vt.begin().unwrap();
        vt.update(t, set_level(12)).unwrap();
        vt.commit(t).unwrap();
        let fired: Vec<&str> = vt.firings().iter().map(|f| f.rule.as_str()).collect();
        assert!(fired.contains(&"tent"));
        assert_eq!(vt.confirmed_count(), 0, "definite waits Δ");
        vt.advance_clock(6).unwrap();
        assert!(
            (vt.confirmed_firings().iter()).any(|f| f.rule == "tent" && f.time == Timestamp(1)),
            "the firing is definite once the watermark passed its state"
        );
    }

    #[test]
    fn a_state_at_the_watermark_is_not_definite() {
        // At now = 6, W = 1: a state at t = 1 can still be revised by an
        // admissible ingest (`valid = now − Δ`), so nothing there confirms.
        for streaming in [false, true] {
            let mut vt = if streaming {
                VtActiveDatabase::new_streaming(base(), 5)
            } else {
                VtActiveDatabase::new(base(), 5)
            };
            vt.add_trigger("tent", parse_formula("level() >= 10").unwrap())
                .unwrap();
            let mut log = vt.advance_to(Timestamp(1)).unwrap();
            log.extend(vt.ingest(vec![set_level(12)], Timestamp(1)).unwrap());
            log.extend(vt.advance_to(Timestamp(6)).unwrap());
            let at_1 = |phase| {
                log.iter()
                    .any(|e| e.phase == phase && e.record.time == Timestamp(1))
            };
            assert!(at_1(VtPhase::Tentative));
            assert!(!at_1(VtPhase::Confirmed), "streaming={streaming}");
            let ev = vt.ingest(vec![set_level(0)], Timestamp(1)).unwrap();
            assert!(ev.iter().any(|e| e.phase == VtPhase::Retracted));
            vt.advance_to(Timestamp(30)).unwrap();
            assert!(
                (vt.confirmed_firings().iter()).all(|f| f.time != Timestamp(1)),
                "streaming={streaming}: {:?}",
                vt.confirmed_firings()
            );
        }
    }

    #[test]
    fn retroactive_update_refires_tentative_trigger() {
        let mut vt = VtActiveDatabase::new(base(), 10);
        vt.add_trigger(
            "seen_high",
            parse_formula("previously(level() >= 10)").unwrap(),
        )
        .unwrap();
        vt.advance_clock(8).unwrap();
        assert!(vt.firings().is_empty());
        let t = vt.begin().unwrap();
        vt.update_at(t, set_level(15), Timestamp(3)).unwrap();
        vt.commit(t).unwrap();
        assert!(
            vt.firings().iter().any(|f| f.time == Timestamp(3)),
            "the retroactively planted spike fires at its valid time"
        );
    }

    #[test]
    fn online_constraint_aborts_commit() {
        let mut vt = VtActiveDatabase::new(base(), 10);
        vt.add_constraint("cap", parse_formula("level() <= 100").unwrap())
            .unwrap();
        vt.advance_clock(1).unwrap();
        let t = vt.begin().unwrap();
        vt.update(t, set_level(500)).unwrap();
        assert!(vt.commit(t).is_err());
        // The aborted update is invisible in the committed view.
        let h = vt.engine().committed_history_at_infinity();
        if let Some(s) = h.last() {
            assert_ne!(s.db().item("level").unwrap(), Value::Int(500));
        }
        // A clean transaction still commits.
        vt.advance_clock(1).unwrap();
        let t = vt.begin().unwrap();
        vt.update(t, set_level(50)).unwrap();
        vt.commit(t).unwrap();
    }

    #[test]
    fn offline_report_detects_retroactive_violation() {
        // A run executed WITHOUT the constraint (e.g. the rule is deployed
        // later): a backdated spike creates two consecutive highs that no
        // commit-time view ever contained. The offline audit — which the
        // paper says cannot be *enforced*, only checked after the fact —
        // catches it.
        let mut vt = VtActiveDatabase::new(base(), 10);
        vt.advance_clock(1).unwrap();
        let t1 = vt.begin().unwrap();
        vt.update(t1, set_level(150)).unwrap(); // high at t=1
        vt.advance_clock(2).unwrap();
        vt.update(t1, set_level(50)).unwrap(); // back to normal at t=3
        vt.advance_clock(1).unwrap();
        vt.commit(t1).unwrap(); // committed view: 150@1, 50@3 — no adjacent highs
        vt.advance_clock(3).unwrap();
        let t2 = vt.begin().unwrap();
        // Backdated spike at t=2, adjacent to the 150@1 state.
        vt.update_at(t2, set_level(160), Timestamp(2)).unwrap();
        vt.commit(t2).unwrap();

        // Deploy the constraint after the fact and audit offline.
        vt.add_constraint(
            "never_two_consecutive_highs",
            parse_formula("not previously(level() > 100 and lasttime(level() > 100))").unwrap(),
        )
        .unwrap();
        let report = vt.offline_report().unwrap();
        assert_eq!(report.len(), 1);
        // Full knowledge sees 150@1 immediately followed by 160@2: violated.
        assert!(!report[0].1, "offline audit catches what online never saw");
    }

    #[test]
    fn offline_report_memoized_for_unchanged_watermark() {
        let mut vt = VtActiveDatabase::new(base(), 10);
        vt.add_constraint("cap", parse_formula("level() <= 100").unwrap())
            .unwrap();
        vt.advance_clock(1).unwrap();
        let t = vt.begin().unwrap();
        vt.update(t, set_level(5)).unwrap();
        vt.commit(t).unwrap();
        assert_eq!(vt.offline_eval_count(), 0);
        let first = vt.offline_report().unwrap();
        assert_eq!(vt.offline_eval_count(), 1);
        // Unchanged history/watermark: served from the memo, no
        // re-evaluation.
        let second = vt.offline_report().unwrap();
        let third = vt.offline_report().unwrap();
        assert_eq!(vt.offline_eval_count(), 1);
        assert_eq!(first, second);
        assert_eq!(second, third);
        // Any mutation invalidates the memo.
        vt.advance_clock(1).unwrap();
        vt.offline_report().unwrap();
        assert_eq!(vt.offline_eval_count(), 2);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut vt = VtActiveDatabase::new(base(), 5);
        vt.add_trigger("r", parse_formula("level() > 0").unwrap())
            .unwrap();
        assert!(vt
            .add_trigger("r", parse_formula("level() > 0").unwrap())
            .is_err());
        assert!(vt
            .add_constraint("r", parse_formula("level() >= 0").unwrap())
            .is_err());
        vt.add_constraint("c", parse_formula("level() >= 0").unwrap())
            .unwrap();
        assert!(vt
            .add_constraint("c", parse_formula("level() >= 0").unwrap())
            .is_err());
        assert_eq!(vt.rule_count(), 2, "a constraint counts as a rule");
    }

    #[test]
    fn unrunnable_rules_are_refused_at_registration() {
        let mut vt = VtActiveDatabase::new_streaming(base(), 5);
        vt.add_trigger("watch", parse_formula("level() > 0").unwrap())
            .unwrap();
        let bad = [
            ("undefined", "nope() > 1"),
            ("reads_executed", "executed(watch, t) and level() > 0"),
            ("reads_itself", "executed(reads_itself, t)"),
        ];
        for (name, src) in bad {
            let f = parse_formula(src).unwrap();
            for rule in [
                Rule::trigger(name, f.clone(), Action::Notify),
                Rule::constraint(name, f.clone()),
            ] {
                assert!(vt.prepare(&[rule]).is_err(), "{name}");
            }
            let err = vt.add_trigger(name, f.clone()).unwrap_err();
            assert!(
                matches!(err, CoreError::Rel(_) | CoreError::UnrecordedExecutions(_)),
                "{name}: {err}"
            );
            assert!(vt.add_constraint(name, f).is_err(), "{name}");
            assert!(!vt.has_rule(name));
        }
        assert!(matches!(
            vt.add_trigger("e", parse_formula("executed(watch, t)").unwrap()),
            Err(CoreError::UnrecordedExecutions(rule)) if rule == "e"
        ));
        // Nothing was left behind: the base has no `executed` relation and
        // every later ingest lands and fires.
        assert_eq!(vt.engine().base().relation_names().count(), 0);
        for t in 1..=3 {
            vt.advance_to(Timestamp(t)).unwrap();
            let ev = vt.ingest(vec![set_level(t)], Timestamp(t)).unwrap();
            assert_eq!(ev.len(), 1, "{ev:?}");
        }
        assert_eq!(vt.rule_count(), 1);
    }

    // ---- streaming (watermarked out-of-order ingestion) -------------------

    /// A rising-edge trigger over `level` (`lasttime` = previous state).
    fn edge_formula() -> Formula {
        parse_formula("level() >= 10 and lasttime(level() < 10)").unwrap()
    }

    #[test]
    fn stream_confirms_behind_watermark() {
        let mut vt = VtActiveDatabase::new_streaming(base(), 3);
        vt.add_trigger("edge", edge_formula()).unwrap();
        let mut all = Vec::new();
        // Baseline state at t=0 so the edge has a predecessor.
        all.extend(vt.ingest(Vec::new(), Timestamp(0)).unwrap());
        all.extend(vt.advance_to(Timestamp(1)).unwrap());
        all.extend(vt.ingest(vec![set_level(12)], Timestamp(1)).unwrap());
        assert!(
            all.iter()
                .any(|e| e.phase == VtPhase::Tentative && e.record.time == Timestamp(1)),
            "the edge fires tentatively on arrival"
        );
        assert_eq!(vt.pending_tentative(), 1);
        // Watermark must pass STRICTLY beyond t=1: at now=4, W=1 and the
        // state can still change; at now=5, W=2 > 1 confirms.
        let ev = vt.advance_to(Timestamp(4)).unwrap();
        assert!(ev.iter().all(|e| e.phase != VtPhase::Confirmed));
        assert_eq!(vt.pending_tentative(), 1);
        let ev = vt.advance_to(Timestamp(5)).unwrap();
        assert!(ev
            .iter()
            .any(|e| e.phase == VtPhase::Confirmed && e.record.time == Timestamp(1)));
        assert_eq!(vt.pending_tentative(), 0);
        assert_eq!(vt.confirmed_firings().len(), 1);
    }

    #[test]
    fn late_arrival_retracts_revised_firing() {
        let mut vt = VtActiveDatabase::new_streaming(base(), 5);
        vt.add_trigger("edge", edge_formula()).unwrap();
        vt.ingest(Vec::new(), Timestamp(0)).unwrap();
        vt.advance_to(Timestamp(3)).unwrap();
        let ev = vt.ingest(vec![set_level(12)], Timestamp(3)).unwrap();
        assert!(ev.iter().any(|e| e.phase == VtPhase::Tentative));
        // A late arrival plants level=15 at t=1: the edge at t=3 is no
        // longer a rising edge (level was already ≥ 10 before it).
        vt.advance_to(Timestamp(4)).unwrap();
        let ev = vt.ingest(vec![set_level(15)], Timestamp(1)).unwrap();
        assert!(
            ev.iter()
                .any(|e| e.phase == VtPhase::Retracted && e.record.time == Timestamp(3)),
            "the revised firing is retracted: {ev:?}"
        );
        assert!(
            ev.iter()
                .any(|e| e.phase == VtPhase::Tentative && e.record.time == Timestamp(1)),
            "the edge moved to the late arrival's valid time"
        );
        // Flush: only the t=1 edge confirms.
        vt.advance_to(Timestamp(20)).unwrap();
        let confirmed = vt.confirmed_firings();
        assert_eq!(confirmed.len(), 1);
        assert_eq!(confirmed[0].time, Timestamp(1));
        assert_eq!(vt.pending_tentative(), 0);
    }

    #[test]
    fn abort_retracts_dependent_tentative_firing() {
        let mut vt = VtActiveDatabase::new(base(), 10);
        vt.add_trigger("edge", edge_formula()).unwrap();
        // Baseline committed state at t=1 so the edge has a predecessor.
        vt.advance_clock(1).unwrap();
        let t0 = vt.begin().unwrap();
        vt.update(t0, set_level(2)).unwrap();
        vt.commit(t0).unwrap();
        vt.advance_clock(1).unwrap();
        let t = vt.begin().unwrap();
        vt.update(t, set_level(12)).unwrap();
        vt.advance_clock(1).unwrap();
        assert!(vt
            .stream_log()
            .iter()
            .any(|e| e.phase == VtPhase::Tentative && e.record.time == Timestamp(2)));
        // Aborting the transaction removes the spike: the firing retracts.
        vt.abort(t).unwrap();
        assert!(
            vt.stream_log()
                .iter()
                .any(|e| e.phase == VtPhase::Retracted && e.record.time == Timestamp(2)),
            "abort retracts the dependent firing: {:?}",
            vt.stream_log()
        );
        assert_eq!(vt.pending_tentative(), 0);
    }

    #[test]
    fn constraint_rejects_stream_ingest() {
        let mut vt = VtActiveDatabase::new_streaming(base(), 5);
        vt.add_constraint("cap", parse_formula("level() <= 100").unwrap())
            .unwrap();
        vt.advance_to(Timestamp(1)).unwrap();
        let err = vt.ingest(vec![set_level(500)], Timestamp(1)).unwrap_err();
        assert!(matches!(err, CoreError::ConstraintRejected { .. }));
        // The rejected ingest left no trace.
        assert_eq!(vt.engine().state_count(), 0);
        assert!(vt.ingest(vec![set_level(50)], Timestamp(1)).is_ok());
    }

    #[test]
    fn rejected_ingest_leaves_no_trace() {
        let mut vt = VtActiveDatabase::new_streaming(base(), 5);
        vt.add_trigger("edge", edge_formula()).unwrap();
        vt.add_constraint("cap", parse_formula("level() <= 100").unwrap())
            .unwrap();
        vt.ingest(Vec::new(), Timestamp(0)).unwrap();
        vt.advance_to(Timestamp(4)).unwrap();
        vt.ingest(vec![set_level(2)], Timestamp(2)).unwrap();
        vt.ingest(vec![set_level(12)], Timestamp(4)).unwrap();
        assert_eq!(vt.pending_tentative(), 1);
        vt.offline_report().unwrap();

        let pending_of = |vt: &VtActiveDatabase| vt.pending.clone();
        let window_of = |vt: &VtActiveDatabase| -> Vec<tdb_engine::SystemState> {
            let w = vt.engine().tentative_window();
            (0..w.len()).map(|i| w.get(i).unwrap().clone()).collect()
        };
        let before = (
            window_of(&vt),
            pending_of(&vt),
            vt.stream_log().to_vec(),
            vt.firings().to_vec(),
            vt.version,
        );
        // Vetoed by the constraint (late, same-instant, in-order) and
        // rejected by the engine (an op that does not apply).
        for valid in [3, 2, 4] {
            let err = vt
                .ingest(vec![set_level(500)], Timestamp(valid))
                .unwrap_err();
            assert!(matches!(err, CoreError::ConstraintRejected { .. }), "{err}");
        }
        let err = vt
            .ingest(
                vec![WriteOp::Insert {
                    relation: "nope".into(),
                    tuple: tdb_relation::tuple![1i64],
                }],
                Timestamp(3),
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::Engine(_)), "{err}");
        let after = (
            window_of(&vt),
            pending_of(&vt),
            vt.stream_log().to_vec(),
            vt.firings().to_vec(),
            vt.version,
        );
        assert_eq!(before, after);
        // Same window objects, not just equal ones: the trigger checkpoints
        // still recognise them.
        for (b, a) in before.0.iter().zip(&after.0) {
            assert!(std::sync::Arc::ptr_eq(&b.db_arc(), &a.db_arc()));
        }
        // The audit memo was keyed by an unchanged version: still served.
        let evals = vt.offline_eval_count();
        vt.offline_report().unwrap();
        assert_eq!(vt.offline_eval_count(), evals);
        // And the next good ingest goes through (the edge moves to t=3).
        let ev = vt.ingest(vec![set_level(11)], Timestamp(3)).unwrap();
        assert!(ev
            .iter()
            .any(|e| e.phase == VtPhase::Retracted && e.record.time == Timestamp(4)));
    }

    // ---- the early stop against the full-suffix replay ---------------------

    /// Two items, one relation; every kind of temporal memory a condition
    /// can have, plus (with `rows`) a free-variable query, whose residuals
    /// carry the state index, so it exercises the fallback.
    fn mixed_catalog(streaming: bool, rows: bool, full_replay: bool) -> VtActiveDatabase {
        use tdb_relation::{parse_query, Relation, Schema};
        const DELTA: i64 = 8;
        let mut db = Database::new();
        for item in ["a", "b"] {
            db.set_item(item, Value::Int(0));
            db.define_query(item, QueryDef::new(0, Query::item(item)));
        }
        db.create_relation("R", Relation::empty(Schema::untyped(&["k", "v"])))
            .unwrap();
        db.define_query(
            "keys",
            QueryDef::new(0, parse_query("select k from R").unwrap()),
        );
        db.define_query(
            "val",
            QueryDef::new(1, parse_query("select v from R where k = $0").unwrap()),
        );
        let mut vt = if streaming {
            VtActiveDatabase::new_streaming(db, DELTA)
        } else {
            VtActiveDatabase::new(db, DELTA)
        };
        let catalog = [
            ("rise_a", "a() >= 60 and lasttime(a() < 60)"),
            ("deep", "a() >= 50 and lasttime(lasttime(b() >= 50))"),
            ("since_b", "b() < 80 since b() >= 90"),
            ("seen_a", "previously(a() >= 97)"),
            (
                "recent_b",
                "[t := time] previously(b() >= 60 and time >= t - 3)",
            ),
            ("rows", "x in keys() and lasttime(val(x) >= 50)"),
        ];
        for (name, src) in catalog.into_iter().filter(|(n, _)| rows || *n != "rows") {
            vt.add_trigger(name, parse_formula(src).unwrap()).unwrap();
        }
        vt.full_replay = full_replay;
        vt
    }

    /// How many passes stopped early, and how many of those skipped over
    /// renumbered states (a late arrival at a new instant).
    fn early_stops(vt: &VtActiveDatabase) -> (usize, usize) {
        let renumbered = vt.early_stops.iter().filter(|(_, s)| *s > 0).count();
        (vt.early_stops.len(), renumbered)
    }

    /// Feeds both databases 600 arrivals, a third of them late, and checks
    /// that they stream alike after every one.
    fn stream_late_arrivals(fast: &mut VtActiveDatabase, reference: &mut VtActiveDatabase) {
        const DELTA: i64 = 8;
        let mut rng = 0x5EED_1E57_u64;
        let mut next = |n: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % n
        };
        let mut row: [Option<i64>; 2] = [None, None];
        for t in 1..=600i64 {
            // A third of the events are late; a late one may land on an
            // instant that already has a state (a same-instant merge).
            let lag = if next(3) == 0 {
                1 + next(DELTA as u64) as i64
            } else {
                0
            };
            let valid = Timestamp((t - lag).max(0));
            let value = next(100) as i64;
            let ops = match next(10) {
                // `b` is written rarely: a late write to it often survives
                // to the end of the window (no convergence).
                0 => vec![WriteOp::SetItem {
                    item: "b".into(),
                    value: Value::Int(value),
                }],
                1 | 2 => {
                    let k = next(2) as usize;
                    let mut ops = Vec::new();
                    if let Some(old) = row[k] {
                        ops.push(WriteOp::Delete {
                            relation: "R".into(),
                            tuple: tdb_relation::tuple![k as i64, old],
                        });
                    }
                    ops.push(WriteOp::Insert {
                        relation: "R".into(),
                        tuple: tdb_relation::tuple![k as i64, value],
                    });
                    row[k] = Some(value);
                    ops
                }
                3 => Vec::new(),
                _ => vec![WriteOp::SetItem {
                    item: "a".into(),
                    value: Value::Int(value),
                }],
            };
            let mut a = fast.advance_to(Timestamp(t)).unwrap();
            a.extend(fast.ingest(ops.clone(), valid).unwrap());
            let mut b = reference.advance_to(Timestamp(t)).unwrap();
            b.extend(reference.ingest(ops, valid).unwrap());
            assert_eq!(a, b, "streams diverge at arrival {t} (valid {valid:?})");
        }
        let a = fast.advance_to(Timestamp(700)).unwrap();
        let b = reference.advance_to(Timestamp(700)).unwrap();
        assert_eq!(a, b);
        assert_eq!(fast.stream_log(), reference.stream_log());
        assert_eq!(fast.firings(), reference.firings());
        assert_eq!(fast.confirmed_firings(), reference.confirmed_firings());
        assert_eq!(fast.pending_tentative(), 0);
        assert!(fast
            .stream_log()
            .iter()
            .any(|e| e.phase == VtPhase::Retracted));
        assert_eq!(early_stops(reference), (0, 0));
    }

    #[test]
    fn early_stop_streams_exactly_what_the_full_suffix_replay_streams() {
        // The comparison is between two different computations: the pass
        // stopped early many times, over renumbered states too, the
        // reference never.
        let mut fast = mixed_catalog(true, false, false);
        let mut reference = mixed_catalog(true, false, true);
        stream_late_arrivals(&mut fast, &mut reference);
        let (stops, renumbered) = early_stops(&fast);
        assert!(stops >= 20, "stopped early only {stops} times");
        assert!(renumbered >= 20, "{renumbered} of {stops}");

        // A snapshot-carrying rule blocks the stop over renumbered states
        // wherever its snapshot was re-taken (an untouched one is kept, with
        // the index of the state it was taken at, and compares equal); a
        // same-instant merge still stops.
        let mut fast = mixed_catalog(true, true, false);
        let mut reference = mixed_catalog(true, true, true);
        stream_late_arrivals(&mut fast, &mut reference);
        let (stops_rows, renumbered_rows) = early_stops(&fast);
        assert!(stops_rows >= 20, "stopped early only {stops_rows} times");
        assert!(
            renumbered_rows < renumbered && stops_rows < stops,
            "{renumbered_rows} of {stops_rows} vs {renumbered} of {stops}"
        );
    }

    #[test]
    fn early_stop_matches_full_replay_when_one_pass_covers_several_updates() {
        // Transactions post several retroactive updates and only then run
        // the rules (at commit or abort): the dirty suffix has more than one
        // changed state, with unchanged stretches in between that must not
        // be mistaken for the end of the revision. (They never are: the
        // commit/abort event changes the last state, so such a pass has no
        // unchanged suffix to keep and always runs to the end.)
        const DELTA: i64 = 8;
        let (mut fast, mut reference) = (
            mixed_catalog(false, true, false),
            mixed_catalog(false, true, true),
        );
        let mut rng = 0xAB0A_7ED5_u64;
        let mut next = |n: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % n
        };
        for t in 1..=300i64 {
            let in_order = vec![WriteOp::SetItem {
                item: "a".into(),
                value: Value::Int(next(100) as i64),
            }];
            let updates: Vec<(WriteOp, Timestamp)> = (0..1 + next(3))
                .map(|_| {
                    let item = if next(4) == 0 { "b" } else { "a" };
                    let op = WriteOp::SetItem {
                        item: item.into(),
                        value: Value::Int(next(100) as i64),
                    };
                    (op, Timestamp((t - next(DELTA as u64) as i64).max(0)))
                })
                .collect();
            let transactional = next(3) == 0;
            let abort = next(2) == 0;
            for vt in [&mut fast, &mut reference] {
                vt.advance_to(Timestamp(t)).unwrap();
                vt.ingest(in_order.clone(), Timestamp(t)).unwrap();
                if transactional {
                    let txn = vt.begin().unwrap();
                    for (op, valid) in &updates {
                        vt.update_at(txn, op.clone(), *valid).unwrap();
                    }
                    if abort {
                        vt.abort(txn).unwrap();
                    } else {
                        vt.commit(txn).unwrap();
                    }
                }
            }
            assert_eq!(
                fast.stream_log(),
                reference.stream_log(),
                "streams diverge at {t}"
            );
        }
        fast.advance_to(Timestamp(400)).unwrap();
        reference.advance_to(Timestamp(400)).unwrap();
        assert_eq!(fast.stream_log(), reference.stream_log());
        assert_eq!(fast.firings(), reference.firings());
        assert!(fast
            .stream_log()
            .iter()
            .any(|e| e.phase == VtPhase::Retracted));
    }

    /// Two items `u1`, `u2`, read through `u1_q()`, `u2_q()`.
    fn two_items() -> Database {
        let mut db = Database::new();
        for item in ["u1", "u2"] {
            db.set_item(item, Value::Int(0));
            db.define_query(format!("{item}_q"), QueryDef::new(0, Query::item(item)));
        }
        db
    }

    fn set_to(item: &str, v: i64) -> WriteOp {
        WriteOp::SetItem {
            item: item.into(),
            value: Value::Int(v),
        }
    }

    /// Two databases — one may stop early, the reference replays the full
    /// suffix — fed the same in-order ingests and then one late one. Checks
    /// they stream alike; returns the early stops of the late ingest's
    /// pass and the `(time, state index)` of what its pass fired and kept.
    fn late_ingest_pass(
        condition: &str,
        in_order: &[(i64, &str, i64)],
        late: (i64, &str, i64),
    ) -> (Vec<Kept>, Vec<(i64, usize)>) {
        let build = |full_replay: bool| {
            let mut vt = VtActiveDatabase::new(two_items(), 100);
            vt.add_trigger("r", parse_formula(condition).unwrap())
                .unwrap();
            vt.full_replay = full_replay;
            vt.advance_to(Timestamp(50)).unwrap();
            vt
        };
        let (mut fast, mut reference) = (build(false), build(true));
        let mut logged = 0;
        for &(t, item, v) in in_order.iter().chain([&late]) {
            logged = fast.firings().len();
            let a = fast.ingest(vec![set_to(item, v)], Timestamp(t)).unwrap();
            let b = reference
                .ingest(vec![set_to(item, v)], Timestamp(t))
                .unwrap();
            assert_eq!(a, b);
            assert_eq!(fast.firings(), reference.firings());
        }
        let pass = fast.firings()[logged..].iter();
        let fired = pass.map(|f| (f.time.0, f.state_index)).collect();
        assert!(reference.early_stops.is_empty());
        (fast.early_stops.clone(), fired)
    }

    #[test]
    fn overwritten_late_event_stops_the_pass_once_it_has_converged() {
        // u1 alternates 9, 0, (gap), 0, 9, 0, 9, 0; the late 9 at t=3 is
        // overwritten at t=4, and `lasttime` forgets it one state later.
        let in_order = [1, 2, 4, 5, 6, 7, 8].map(|t| (t, "u1", if t % 2 == 1 { 9 } else { 0 }));
        let (stops, fired) = late_ingest_pass(
            "u1_q() >= 5 and lasttime(u1_q() < 5)",
            &in_order,
            (3, "u1", 9),
        );
        assert_eq!(stops, [(Timestamp(5), 1)]);
        // The new edge at t=3 and the re-confirmed one at t=5; the edge at
        // t=7 lies in the kept suffix, renumbered.
        assert_eq!(fired, [(3, 2), (5, 4), (7, 6)]);
    }

    #[test]
    fn same_instant_late_event_converges_without_a_shift() {
        let in_order = [1, 2, 3, 4, 5, 6].map(|t| (t, "u1", if t % 2 == 1 { 9 } else { 0 }));
        // A second write at t=2 merges into the existing state and takes
        // the edge at t=3 away (7 is no longer below 5).
        let (stops, fired) = late_ingest_pass(
            "u1_q() >= 5 and lasttime(u1_q() < 5)",
            &in_order,
            (2, "u1", 7),
        );
        assert_eq!(stops, [(Timestamp(4), 0)]);
        assert_eq!(fired, [(5, 4)]);
    }

    #[test]
    fn late_event_that_is_never_overwritten_replays_the_full_suffix() {
        // Nobody else writes u2, so every later database differs.
        let in_order = [1, 2, 4, 5, 6].map(|t| (t, "u1", t));
        let (stops, fired) = late_ingest_pass(
            "u2_q() = 1 and lasttime(u1_q() > 0)",
            &in_order,
            (3, "u2", 1),
        );
        assert_eq!(stops, []);
        assert_eq!(fired, [(3, 2), (4, 3), (5, 4), (6, 5)]);
    }

    #[test]
    fn late_event_the_evaluator_remembers_replays_the_full_suffix() {
        // The databases converge at t=4, the evaluator does not:
        // `previously` holds from the late spike on.
        let in_order = [1, 2, 4, 5, 6].map(|t| (t, "u1", t));
        let (stops, fired) = late_ingest_pass("previously(u1_q() >= 50)", &in_order, (3, "u1", 50));
        assert_eq!(stops, []);
        assert_eq!(fired.len(), 4);
    }

    #[test]
    fn snapshot_terms_of_renumbered_states_block_the_early_stop() {
        // `val(x)` with `x` unbound residualizes to a snapshot term tagged
        // with the state index, so a renumbered state never reproduces its
        // old residual: the pass must (and does) run to the end.
        use tdb_relation::{parse_query, Relation, Schema};
        let build = |full_replay: bool| {
            let mut db = two_items();
            db.create_relation("R", Relation::empty(Schema::untyped(&["k", "v"])))
                .unwrap();
            db.define_query(
                "keys",
                QueryDef::new(0, parse_query("select k from R").unwrap()),
            );
            db.define_query(
                "val",
                QueryDef::new(1, parse_query("select v from R where k = $0").unwrap()),
            );
            let mut vt = VtActiveDatabase::new(db, 100);
            let f = parse_formula("x in keys() and previously(val(x) >= 5)").unwrap();
            vt.add_trigger("rows", f).unwrap();
            vt.full_replay = full_replay;
            vt.advance_to(Timestamp(50)).unwrap();
            vt
        };
        let row = |v: i64| tdb_relation::tuple![1i64, v];
        let mut ingests = Vec::new();
        let mut old = None;
        for t in [1, 2, 4, 5, 6] {
            let mut ops = Vec::new();
            if let Some(o) = old {
                ops.push(WriteOp::Delete {
                    relation: "R".into(),
                    tuple: row(o),
                });
            }
            ops.push(WriteOp::Insert {
                relation: "R".into(),
                tuple: row(t),
            });
            old = Some(t);
            ingests.push((ops, t));
        }
        // A late no-op at t=3: every database is as it was, every index from
        // there on is one higher.
        ingests.push((Vec::new(), 3));
        let (mut fast, mut reference) = (build(false), build(true));
        for (ops, t) in ingests {
            let a = fast.ingest(ops.clone(), Timestamp(t)).unwrap();
            let b = reference.ingest(ops, Timestamp(t)).unwrap();
            assert_eq!(a, b);
        }
        assert!(fast.early_stops.is_empty());
        assert_eq!(fast.firings(), reference.firings());
        // The last pass re-fired t=6, renumbered from 4 to 5.
        let last = fast.firings().last().unwrap();
        assert_eq!((last.time, last.state_index), (Timestamp(6), 5));
    }

    #[test]
    fn compaction_rebases_the_replay_on_the_last_folded_state() {
        // Fold a prefix, then re-evaluate from exactly the watermark: the
        // replay must start from the mark after the last folded state — a
        // from-scratch replay would lose the temporal memory of the folded
        // prefix, and `previously(...)` would go quiet (and retract).
        for full_replay in [false, true] {
            let mut vt = VtActiveDatabase::new_streaming(two_items(), 2);
            vt.add_trigger("seen", parse_formula("previously(u1_q() = 1)").unwrap())
                .unwrap();
            vt.full_replay = full_replay;
            // u1 spikes to 1 at t=1 and is reset to 0 at t=2: from t=2 on,
            // only the rules' memory (not the database) knows the spike.
            for (t, v) in [(1, 1), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0)] {
                vt.advance_to(Timestamp(t)).unwrap();
                vt.ingest(vec![set_to("u1", v)], Timestamp(t)).unwrap();
            }
            // Folded: everything before the watermark 6 − 2 = 4.
            assert_eq!(vt.engine().compacted(), 3);
            let logged = vt.firings().len();
            let ev = vt.ingest(Vec::new(), Timestamp(4)).unwrap();
            assert!(ev.is_empty(), "nothing is revised: {ev:?}");
            let pass = &vt.firings()[logged..];
            assert_eq!(pass.len(), 3, "temporal memory survives the fold");
            assert!(pass.iter().all(|f| f.time >= Timestamp(4)));
            assert_eq!(vt.pending_tentative(), 3);
        }
    }

    #[test]
    fn late_registration_runs_the_window_once_and_confirms_nothing_twice() {
        // A rule registered while live states exist starts fresh at the
        // window's first state; the others neither re-announce nor
        // re-confirm what they already did — on a database that keeps its
        // whole history, too.
        for streaming in [false, true] {
            let mut vt = if streaming {
                VtActiveDatabase::new_streaming(base(), 2)
            } else {
                VtActiveDatabase::new(base(), 2)
            };
            vt.add_trigger("edge", edge_formula()).unwrap();
            let levels = [2, 15, 3, 15, 15, 4, 12, 1];
            for (t, level) in (1..).zip(levels) {
                vt.advance_to(Timestamp(t)).unwrap();
                vt.ingest(vec![set_level(level)], Timestamp(t)).unwrap();
            }
            let confirmed = vt.confirmed_count();
            assert!(confirmed > 0);
            vt.add_trigger("high", parse_formula("level() >= 10").unwrap())
                .unwrap();
            let ev = vt.advance_to(Timestamp(9)).unwrap();
            assert!(ev.iter().all(|e| e.record.rule == "high"), "{ev:?}");
            vt.advance_to(Timestamp(20)).unwrap();
            let count = |rule: &str| {
                (vt.confirmed_firings().iter())
                    .filter(|f| f.rule == rule)
                    .count()
            };
            assert_eq!(count("edge"), 3, "streaming={streaming}");
            let live = if streaming { 0 } else { 4 };
            assert!(count("high") >= live, "streaming={streaming}");
            assert_eq!(vt.pending_tentative(), 0);
        }
    }

    #[test]
    fn online_constraint_remembers_the_folded_prefix() {
        // "Once the level reached 50 it never drops below": after t=1 is
        // folded into the base, only the constraint's rule still knows.
        for streaming in [false, true] {
            let mut vt = if streaming {
                VtActiveDatabase::new_streaming(base(), 2)
            } else {
                VtActiveDatabase::new(base(), 2)
            };
            let c = "not (previously(level() >= 50) and level() < 50)";
            vt.add_constraint("sticky", parse_formula(c).unwrap())
                .unwrap();
            vt.advance_to(Timestamp(1)).unwrap();
            vt.ingest(vec![set_level(60)], Timestamp(1)).unwrap();
            vt.advance_to(Timestamp(2)).unwrap();
            let err = vt.ingest(vec![set_level(10)], Timestamp(2)).unwrap_err();
            assert!(matches!(err, CoreError::ConstraintRejected { .. }));
            vt.advance_to(Timestamp(10)).unwrap();
            assert_eq!(vt.engine().compacted(), usize::from(streaming));
            let err = vt.ingest(vec![set_level(10)], Timestamp(10)).unwrap_err();
            assert!(
                matches!(&err, CoreError::ConstraintRejected { constraint } if constraint == "sticky"),
                "streaming={streaming}: {err}"
            );
            vt.ingest(vec![set_level(70)], Timestamp(10)).unwrap();
            assert!(vt.stream_log().is_empty(), "constraints never stream");
            assert_eq!(vt.rule_count(), 1);
        }
    }

    #[test]
    fn aggregate_conditions_never_reach_the_early_stop() {
        // A closed temporal aggregate is formula state, rewound with the
        // rules: it registers and fires. One whose formulas mention a free
        // variable would need an accumulator per binding: a typed error at
        // registration, and the refused rule leaves nothing behind to break
        // later ingests.
        let mut vt = VtActiveDatabase::new_streaming(base(), 4);
        let err = vt
            .add_trigger(
                "per_user",
                parse_formula("@hit(u) and count(level(); @hit(u); true) > 1").unwrap(),
            )
            .unwrap_err();
        assert!(
            matches!(err, CoreError::Ptl(tdb_ptl::PtlError::Unsafe { .. })),
            "{err}"
        );
        assert!(!vt.has_rule("per_user"));
        let sum = parse_formula("sum(level(); level() = 0; level() > 0) > 10").unwrap();
        vt.add_trigger("sum", sum).unwrap();
        let mut log = Vec::new();
        // The first state (level 0) opens the window.
        for (t, level) in [(0, 0), (1, 3), (2, 12), (3, 0)] {
            log.extend(vt.advance_to(Timestamp(t)).unwrap());
            log.extend(vt.ingest(vec![set_level(level)], Timestamp(t)).unwrap());
        }
        log.extend(vt.advance_to(Timestamp(20)).unwrap());
        let sum_at = |phase| {
            log.iter()
                .filter(|e| e.record.rule == "sum" && e.phase == phase)
                .map(|e| e.record.time.0)
                .collect::<Vec<_>>()
        };
        assert_eq!(sum_at(VtPhase::Confirmed), [2]);
        assert_eq!(sum_at(VtPhase::Tentative), [2]);
    }

    #[test]
    fn compaction_bounds_memory_without_changing_the_stream() {
        let run = |compaction: bool| {
            let mut vt = if compaction {
                VtActiveDatabase::new_streaming(base(), 4)
            } else {
                VtActiveDatabase::new(base(), 4)
            };
            vt.add_trigger("edge", edge_formula()).unwrap();
            let mut max_states = 0usize;
            for t in 1..=60i64 {
                vt.advance_to(Timestamp(t)).unwrap();
                let level = if t % 7 == 0 { 15 } else { 2 };
                vt.ingest(vec![set_level(level)], Timestamp(t)).unwrap();
                max_states = max_states.max(vt.engine().state_count());
            }
            vt.advance_to(Timestamp(70)).unwrap();
            (vt.confirmed_firings(), max_states, vt.pending_tentative())
        };
        let (with, bounded, pending_with) = run(true);
        let (without, unbounded, pending_without) = run(false);
        assert_eq!(with, without, "compaction never changes the stream");
        assert_eq!(pending_with, 0);
        assert_eq!(pending_without, 0);
        assert!(
            bounded <= 4 + 2,
            "live states stay O(Δ) under compaction: {bounded}"
        );
        assert!(unbounded >= 50, "without compaction history grows");
        assert!(!with.is_empty(), "the periodic spikes confirm");
    }

    // ---- copies per event (the mark, the rewind) ---------------------------

    /// Rule states copied so far, by marks and rewinds.
    fn copies(vt: &VtActiveDatabase) -> u64 {
        vt.stats().state_copies
    }

    #[test]
    fn an_in_order_event_copies_each_rule_once_and_a_fold_none() {
        let mut vt = VtActiveDatabase::new_streaming(base(), 3);
        vt.add_trigger("edge", edge_formula()).unwrap();
        vt.add_trigger("high", parse_formula("level() >= 10").unwrap())
            .unwrap();
        vt.add_constraint("cap", parse_formula("level() < 1000").unwrap())
            .unwrap();
        let rules = vt.rule_count() as u64;
        for t in 1..=40i64 {
            let (before, folded) = (copies(&vt), vt.engine().compacted());
            vt.advance_to(Timestamp(t)).unwrap();
            assert_eq!(copies(&vt), before, "t={t}: the fold moves its mark");
            assert_eq!(vt.engine().compacted() > folded, t > 4, "t={t}");
            vt.ingest(vec![set_level(t % 13)], Timestamp(t)).unwrap();
            // The first pass rewinds to the base; every later one resumes
            // where the rules stand and copies them into the new mark.
            let want = if t == 1 { 2 * rules } else { rules };
            assert_eq!(copies(&vt) - before, want, "t={t}");
            assert!(vt.at_newest);
        }
        assert!(!vt.firings().is_empty());
    }

    #[test]
    fn the_rules_resume_without_a_rewind_only_where_the_newest_mark_was_taken() {
        let mut vt = VtActiveDatabase::new_streaming(base(), 8);
        vt.add_trigger("edge", edge_formula()).unwrap();
        let ingest = |vt: &mut VtActiveDatabase, arrival: i64, valid: i64, level: i64| {
            let before = copies(vt);
            vt.advance_to(Timestamp(arrival)).unwrap();
            vt.ingest(vec![set_level(level)], Timestamp(valid)).unwrap();
            copies(vt) - before
        };
        for t in [2, 4, 6, 8] {
            ingest(&mut vt, t, t, 1);
        }
        // A late state the next one overwrites: the pass stops early at
        // the state after it, short of the newest mark: a rewind and the
        // late state's mark.
        assert_eq!(ingest(&mut vt, 8, 5, 1), 2);
        assert_eq!(vt.early_stops, [(Timestamp(6), 1)]);
        assert!(!vt.at_newest);
        assert_eq!(ingest(&mut vt, 10, 10, 12), 2, "rewind, then mark");
        assert_eq!(ingest(&mut vt, 11, 11, 1), 1);

        // A late registration clears the ring: the next pass replays the
        // window from the base.
        vt.add_trigger("high", parse_formula("level() >= 10").unwrap())
            .unwrap();
        assert!(!vt.at_newest);
        let window = vt.engine().tentative_window().len() as u64;
        assert_eq!(ingest(&mut vt, 12, 12, 1), 2 * (1 + window + 1));
        assert_eq!(ingest(&mut vt, 13, 13, 1), 2);

        // A fold that takes every live state moves the newest mark into the
        // base, where the rules still stand: no rewind follows.
        vt.advance_to(Timestamp(40)).unwrap();
        assert!(vt.marks.newest().is_none() && vt.at_newest);
        assert_eq!(ingest(&mut vt, 40, 40, 15), 2);
        assert_eq!(vt.stream_log().last().unwrap().record.time, Timestamp(40));

        // Transactions: a retroactive commit or abort rewinds; a commit of
        // a new newest state does not.
        let txn = |vt: &mut VtActiveDatabase, valid: i64, commit: bool| {
            let before = copies(vt);
            let t = vt.begin().unwrap();
            vt.update_at(t, set_level(3), Timestamp(valid)).unwrap();
            if commit {
                vt.commit(t).unwrap();
            } else {
                vt.abort(t).unwrap();
            }
            assert!(vt.at_newest);
            copies(vt) - before
        };
        vt.advance_to(Timestamp(44)).unwrap();
        assert_eq!(txn(&mut vt, 44, true), 2);
        assert!(txn(&mut vt, 42, true) > 2);
        assert!(txn(&mut vt, 43, false) > 2);
        vt.advance_to(Timestamp(46)).unwrap();
        assert_eq!(txn(&mut vt, 46, true), 2);
    }

    /// The op interpreter refuses a transaction-time op, a live
    /// registration record, the log-only records and a batch — live, or
    /// as a member — with `RefusedOp`, before anything applies; a replayed
    /// registration installs, and a replayed batch applies its members.
    #[test]
    fn the_op_interpreter_refuses_alike_and_replays_records() {
        let mut vt = VtActiveDatabase::new_streaming(base(), 2);
        let rules = vec![Rule::trigger(
            "tent",
            parse_formula("level() >= 10").unwrap(),
            Action::Notify,
        )];
        let batch = LogicalOp::Batch {
            ops: vec![LogicalOp::Tick],
        };
        let refused = [
            LogicalOp::Update {
                ops: vec![set_level(12)],
            },
            LogicalOp::RegisterRules {
                rules: rules.clone(),
            },
            LogicalOp::Firing {
                record: FiringRecord {
                    rule: "tent".into(),
                    state_index: 0,
                    time: Timestamp(0),
                    env: Default::default(),
                },
            },
            LogicalOp::AddRule {
                name: "tent".into(),
            },
            batch.clone(),
        ];
        for op in &refused {
            for r in [
                vt.apply(op, false).map(drop),
                VtActiveDatabase::refusal(op, true),
            ] {
                assert!(matches!(r, Err(CoreError::RefusedOp { .. })), "{op:?}");
            }
        }
        let nested = LogicalOp::Batch {
            ops: vec![batch.clone()],
        };
        assert!(matches!(
            VtActiveDatabase::refusal(&batch, true),
            Err(CoreError::RefusedOp { .. })
        ));
        assert_eq!(vt.rule_count(), 0);
        assert_eq!(vt.now(), Timestamp(0));

        vt.apply(&LogicalOp::RegisterRules { rules }, true).unwrap();
        assert!(vt.has_rule("tent"));
        let ingest = LogicalOp::CommitAt {
            valid: Timestamp(1),
            ops: vec![set_level(12)],
        };
        let clock = LogicalOp::AdvanceClockTo { t: Timestamp(1) };
        let replayed = LogicalOp::Batch {
            ops: vec![clock, nested, ingest],
        };
        let events = vt.apply(&replayed, true).unwrap();
        assert_eq!(vt.now(), Timestamp(1), "the nested batch is skipped");
        assert!(events.iter().any(|e| e.phase == VtPhase::Tentative));
    }

    /// A transaction that commits after the watermark passed a state it
    /// updated blocks the fold: the advance folds nothing, and still
    /// confirms and logs what the watermark passed. The stream is the
    /// non-compacting facade's, and once the last transaction decides the
    /// whole definite prefix folds.
    #[test]
    fn a_blocked_fold_still_confirms_and_folds_once_the_transaction_decides() {
        let run = |compaction: bool| {
            let mut vt = match compaction {
                true => VtActiveDatabase::new_streaming(base(), 4),
                false => VtActiveDatabase::new(base(), 4),
            };
            vt.add_trigger("high", parse_formula("level() >= 10").unwrap())
                .unwrap();
            vt.add_trigger("edge", edge_formula()).unwrap();
            let mut seed = 0x2545_f491_4f6c_dd1d_u64;
            let mut next = |n: u64| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed % n
            };
            let mut most = 0;
            for t in 1..=300i64 {
                vt.advance_to(Timestamp(t)).unwrap();
                let txn = vt.begin().unwrap();
                for _ in 0..=next(3) {
                    let valid = Timestamp((t - next(4) as i64).max(1));
                    vt.update_at(txn, set_level(next(20) as i64), valid)
                        .unwrap();
                }
                match next(4) {
                    0 => vt.abort(txn).map(drop).unwrap(),
                    _ => vt.commit(txn).map(drop).unwrap(),
                }
                most = most.max(vt.engine().state_count());
            }
            vt.advance_to(Timestamp(310)).unwrap();
            let live = vt.engine().state_count();
            (vt.stream_log().to_vec(), vt.confirmed_firings(), live, most)
        };
        let (stream, confirmed, live, most) = run(true);
        let (all_stream, all_confirmed, ..) = run(false);
        assert!(confirmed.len() > 100, "{}", confirmed.len());
        assert_eq!(confirmed, all_confirmed);
        assert_eq!(stream, all_stream);
        assert!(most > 4 + 2, "the fold was blocked: {most} live states");
        assert!(live <= 4 + 2, "the prefix folds once decided: {live}");
    }
}

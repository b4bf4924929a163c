//! [`VtActiveDatabase`] — rules over the valid-time engine (Section 9).
//!
//! Triggers registered here are **tentative** or **definite**:
//!
//! * tentative triggers fire on tentative values; retroactive updates
//!   re-evaluate the touched suffix, so a firing may be *revised* (fire
//!   again with different bindings) — callers see every (re)firing;
//! * definite triggers fire only on values older than the maximum delay Δ,
//!   i.e. exactly Δ late, but never based on data that can still change.
//!
//! On top of the raw firing log, the facade maintains a **phase-tagged
//! stream** for watermarked out-of-order ingestion ([`VtActiveDatabase::
//! ingest`] / [`VtActiveDatabase::advance_watermark`]): each tentative
//! firing is announced as [`VtPhase::Tentative`]; when the watermark
//! `W = now − Δ` passes its timestamp it is either **confirmed** (it
//! survived every Δ-bounded revision) or **retracted** (a late arrival
//! re-evaluated its state and it no longer fires). Confirmed firings are
//! definite: no admissible arrival can change a state strictly behind `W`.
//! With compaction enabled the definite prefix is folded into a Theorem-1
//! style checkpoint (base database + per-rule evaluator snapshot), bounding
//! memory by O(Δ) instead of O(history).
//!
//! Temporal integrity constraints are checked **online** at each commit
//! (the only enforceable notion — "practically only online satisfaction
//! can be enforced"); [`VtActiveDatabase::offline_report`] audits the final
//! history offline, memoized per mutation so repeated audits of an
//! unchanged watermark cost nothing.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use tdb_engine::{TxnId, VtEngine, WriteOp};
use tdb_ptl::Formula;
use tdb_relation::{Database, QueryDef, Relation, Timestamp, Value};

use crate::context::EvalContext;
use crate::error::{CoreError, Result};
use crate::incremental::{EvalConfig, IncrementalEvaluator};
use crate::rules::FiringRecord;
use crate::validtime::{online_satisfied, DefiniteTriggerRunner, TentativeTriggerRunner};

/// Firing mode of a valid-time trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VtMode {
    Tentative,
    Definite,
}

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

// Rules are few and registered once; the size gap between the two runners
// is not worth an indirection on the per-event path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum VtRunner {
    Tentative {
        runner: TentativeTriggerRunner,
        /// Announced-but-unconfirmed firings, ordered by state index.
        pending: Vec<FiringRecord>,
    },
    Definite(DefiniteTriggerRunner),
}

#[derive(Debug)]
struct VtRule {
    name: String,
    runner: VtRunner,
}

#[derive(Debug)]
struct VtConstraint {
    name: String,
    condition: Formula,
}

/// Per-constraint offline-satisfaction verdicts (`offline_report`).
pub type OfflineReport = Vec<(String, bool)>;

/// An active database over valid time.
#[derive(Debug)]
pub struct VtActiveDatabase {
    engine: VtEngine,
    rules: Vec<VtRule>,
    constraints: Vec<VtConstraint>,
    firing_log: Vec<FiringRecord>,
    /// Phase-tagged stream of tentative/confirmed/retracted firings.
    stream_log: Vec<VtFiringEvent>,
    /// Positions in `stream_log` of the `Confirmed` events, in order — the
    /// definite log without a second copy of its records.
    confirmed: Vec<usize>,
    cfg: EvalConfig,
    /// The tenant's evaluation context, shared by every rule's runner.
    ctx: Arc<EvalContext>,
    /// Earliest state index touched since the last rule pass.
    dirty_from: Option<usize>,
    /// Fold the definite prefix into the base as the watermark advances.
    compaction: bool,
    /// Bumped on every history mutation; keys the offline-report memo.
    version: u64,
    offline_cache: RefCell<Option<(u64, OfflineReport)>>,
    offline_evals: Cell<u64>,
}

impl VtActiveDatabase {
    pub fn new(base: Database, max_delay: i64) -> VtActiveDatabase {
        VtActiveDatabase {
            engine: VtEngine::new(base, max_delay),
            rules: Vec::new(),
            constraints: Vec::new(),
            firing_log: Vec::new(),
            stream_log: Vec::new(),
            confirmed: Vec::new(),
            cfg: EvalConfig::default(),
            ctx: Arc::new(EvalContext::new()),
            dirty_from: None,
            compaction: false,
            version: 0,
            offline_cache: RefCell::new(None),
            offline_evals: Cell::new(0),
        }
    }

    /// A streaming instance: same semantics, plus the definite prefix is
    /// compacted into a checkpoint as the watermark advances (memory O(Δ)).
    pub fn new_streaming(base: Database, max_delay: i64) -> VtActiveDatabase {
        let mut vt = VtActiveDatabase::new(base, max_delay);
        vt.compaction = true;
        vt
    }

    /// Enables (or disables) definite-prefix compaction.
    pub fn set_compaction(&mut self, on: bool) {
        self.compaction = on;
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
        self.rules
            .iter()
            .map(|r| match &r.runner {
                VtRunner::Tentative { pending, .. } => pending.len(),
                VtRunner::Definite(_) => 0,
            })
            .sum()
    }

    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// The evaluation context shared by this database's rule runners.
    pub fn eval_context(&self) -> &Arc<EvalContext> {
        &self.ctx
    }

    /// Whether `name` is taken. Triggers and constraints share one
    /// namespace: logs and rule files refer to either by name alone.
    pub fn has_rule(&self, name: &str) -> bool {
        self.rules.iter().any(|r| r.name == name) || self.constraints.iter().any(|c| c.name == name)
    }

    /// Compiles `condition` as [`add_trigger`](Self::add_trigger) would,
    /// registering nothing: the error it would refuse the trigger with.
    pub fn check_trigger(&self, condition: &Formula) -> Result<()> {
        IncrementalEvaluator::new_in(condition, self.cfg.clone(), &self.ctx).map(drop)
    }

    /// Registers a tentative or definite trigger.
    pub fn add_trigger(
        &mut self,
        name: impl Into<String>,
        condition: Formula,
        mode: VtMode,
    ) -> Result<()> {
        let name = name.into();
        if self.has_rule(&name) {
            return Err(CoreError::DuplicateRule(name));
        }
        // The checkpoint ring must span every state the watermark can fold
        // in one step (at most Δ+1 instants hold live states above W).
        let window = (self.engine.max_delay() as usize).saturating_add(4).max(8);
        let runner = match mode {
            VtMode::Tentative => VtRunner::Tentative {
                runner: TentativeTriggerRunner::new_in(
                    &condition,
                    self.cfg.clone(),
                    window,
                    &self.ctx,
                )?,
                pending: Vec::new(),
            },
            VtMode::Definite => VtRunner::Definite(DefiniteTriggerRunner::new_in(
                &condition,
                self.cfg.clone(),
                &self.ctx,
            )?),
        };
        self.rules.push(VtRule { name, runner });
        Ok(())
    }

    /// Registers a temporal integrity constraint, enforced online at every
    /// commit (and at every stream ingest).
    pub fn add_constraint(&mut self, name: impl Into<String>, condition: Formula) -> Result<()> {
        let name = name.into();
        if self.has_rule(&name) {
            return Err(CoreError::DuplicateRule(name));
        }
        self.constraints.push(VtConstraint { name, condition });
        self.version += 1;
        Ok(())
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
    /// instant). The update commits instantly at its valid instant, so the
    /// resulting history depends only on `(valid, ops)` — never on arrival
    /// order. Returns the phase-tagged events the ingest produced (new
    /// tentative firings and retractions of revised ones).
    pub fn ingest(&mut self, ops: Vec<WriteOp>, valid: Timestamp) -> Result<Vec<VtFiringEvent>> {
        // Stream events commit at their valid instant: every constraint must
        // hold at that state of the would-be history, or the ingest is
        // dropped before it leaves a trace.
        let constraints = &self.constraints;
        let idx = self
            .engine
            .ingest_committed_gated(ops, valid, |history, idx| {
                for c in constraints {
                    if !crate::validtime::holds_at(&c.condition, history, idx)? {
                        return Err(CoreError::ConstraintRejected {
                            constraint: c.name.clone(),
                        });
                    }
                }
                Ok(())
            })?;
        self.version += 1;
        self.dirty_from = Some(self.dirty_from.map_or(idx, |d| d.min(idx)));
        self.run_rules()
    }

    pub fn begin(&mut self) -> Result<TxnId> {
        self.version += 1;
        Ok(self.engine.begin()?)
    }

    /// Posts a (possibly retroactive) update.
    pub fn update_at(&mut self, txn: TxnId, op: WriteOp, valid: Timestamp) -> Result<usize> {
        let idx = self.engine.update_at(txn, op, valid)?;
        self.version += 1;
        self.dirty_from = Some(self.dirty_from.map_or(idx, |d| d.min(idx)));
        Ok(idx)
    }

    pub fn update(&mut self, txn: TxnId, op: WriteOp) -> Result<usize> {
        let now = self.engine.now();
        self.update_at(txn, op, now)
    }

    /// Commits, enforcing every constraint online: the constraint is
    /// evaluated at each commit point of the committed-history-so-far from
    /// the transaction's earliest update onward ("starting with the one
    /// immediately following the earliest update of the current
    /// transaction"). On violation the transaction is aborted instead.
    pub fn commit(&mut self, txn: TxnId) -> Result<usize> {
        // Tentatively commit, then check; VtEngine has no prepared commits,
        // so we validate on the committed view and roll back via abort
        // semantics is impossible — instead, check against a clone.
        let mut probe = self.engine.clone_for_probe();
        probe.commit(txn)?;
        let t = probe.now();
        let mut violated = None;
        for c in &self.constraints {
            if !online_satisfied(&probe, &c.condition)? {
                violated = Some(c.name.clone());
                break;
            }
        }
        if let Some(name) = violated {
            self.abort(txn)?;
            return Err(CoreError::Engine(tdb_engine::EngineError::Aborted {
                txn,
                reason: format!("valid-time constraint `{name}` violated online"),
            }));
        }
        let idx = self.engine.commit(txn)?;
        self.version += 1;
        debug_assert_eq!(self.engine.now(), t);
        self.run_rules()?;
        Ok(idx)
    }

    /// Aborts a transaction. The abort dirties the txn's earliest updated
    /// state so tentative rules re-evaluate the affected suffix — firings
    /// that depended on the aborted updates are retracted on the stream.
    pub fn abort(&mut self, txn: TxnId) -> Result<usize> {
        let first = self.engine.first_update_of(txn);
        let idx = self.engine.abort(txn)?;
        self.version += 1;
        if let Some(t) = first {
            if let Some(d) = self.engine.state_index_at(t) {
                self.dirty_from = Some(self.dirty_from.map_or(d, |x| x.min(d)));
            }
        }
        self.run_rules()?;
        Ok(idx)
    }

    /// Runs every trigger over the current histories, returning the stream
    /// events (new tentative firings, retractions of revised ones, and
    /// definite-trigger firings, which are confirmed on arrival).
    fn run_rules(&mut self) -> Result<Vec<VtFiringEvent>> {
        let dirty = self.dirty_from.take();
        let tentative = self.engine.tentative_window();
        let compacted = self.engine.compacted();
        let mut events = Vec::new();
        for rule in self.rules.iter_mut() {
            match &mut rule.runner {
                VtRunner::Tentative { runner, pending } => {
                    // `process` (re)fires the states from `start` on.
                    let start = dirty.map_or(runner.frontier(), |d| d.min(runner.frontier()));
                    if start >= tentative.len() {
                        continue;
                    }
                    let pass = runner.process(tentative, dirty)?;
                    let split = pending.partition_point(|p| p.state_index < start + compacted);
                    let mut revise = pending.split_off(split);
                    // Firings of states the pass left alone stand as they
                    // are, at their new index.
                    let mut kept = match pass.kept {
                        Some(k) => {
                            let mut kept =
                                revise.split_off(revise.partition_point(|p| p.time <= k.after));
                            for p in &mut kept {
                                p.state_index += k.shift;
                            }
                            kept
                        }
                        None => Vec::new(),
                    };
                    let fired = pass.firings.into_iter().map(|mut f| {
                        f.rule.clone_from(&rule.name);
                        f.state_index += compacted;
                        f
                    });
                    // Diff the re-evaluated region against the pending set:
                    // unchanged (time, env) pairs are refreshed silently,
                    // new ones are announced, vanished ones retracted. Both
                    // lists are in state order, so this is a merge by instant
                    // (several bindings may fire at one).
                    let mut retracted = Vec::new();
                    let mut old = revise.into_iter().peekable();
                    let mut same_instant: Vec<FiringRecord> = Vec::new();
                    for rec in fired {
                        if same_instant.first().map(|p| p.time) != Some(rec.time) {
                            retracted.append(&mut same_instant);
                            while let Some(p) = old.next_if(|p| p.time <= rec.time) {
                                if p.time < rec.time {
                                    retracted.push(p);
                                } else {
                                    same_instant.push(p);
                                }
                            }
                        }
                        self.firing_log.push(rec.clone());
                        match same_instant.iter().position(|p| p.env == rec.env) {
                            // Still fires: keep it pending with its
                            // (possibly shifted) state index.
                            Some(i) => {
                                same_instant.remove(i);
                            }
                            None => events.push(VtFiringEvent {
                                phase: VtPhase::Tentative,
                                record: rec.clone(),
                            }),
                        }
                        pending.push(rec);
                    }
                    retracted.append(&mut same_instant);
                    retracted.extend(old);
                    events.extend(retracted.into_iter().map(|record| VtFiringEvent {
                        phase: VtPhase::Retracted,
                        record,
                    }));
                    // The raw log records every (re)firing; the kept ones
                    // are what the rest of the pass would have re-fired.
                    self.firing_log.extend(kept.iter().cloned());
                    pending.append(&mut kept);
                }
                VtRunner::Definite(r) => {
                    let fired = r.process(&self.engine)?;
                    for mut f in fired {
                        f.rule.clone_from(&rule.name);
                        f.state_index += compacted;
                        self.firing_log.push(f.clone());
                        events.push(VtFiringEvent {
                            phase: VtPhase::Confirmed,
                            record: f,
                        });
                    }
                }
            }
        }
        self.ctx.publish_counters();
        self.log_events(&events);
        Ok(events)
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
    /// `valid = now − Δ`), then folds the now-definite prefix into the
    /// checkpoint when compaction is enabled.
    fn confirm_and_compact(&mut self) -> Result<Vec<VtFiringEvent>> {
        let w = self.engine.definite_frontier();
        let mut confirmed: Vec<(usize, usize, FiringRecord)> = Vec::new();
        for (pos, rule) in self.rules.iter_mut().enumerate() {
            if let VtRunner::Tentative { pending, .. } = &mut rule.runner {
                let split = pending.partition_point(|f| f.time < w);
                for f in pending.drain(..split) {
                    confirmed.push((f.state_index, pos, f));
                }
            }
        }
        // Deterministic cross-rule order: by state, then registration order
        // (within one rule the solver's order is preserved by the stable
        // sort) — the confirmed stream is byte-identical across arrival
        // permutations.
        confirmed.sort_by_key(|&(state, pos, _)| (state, pos));
        let events: Vec<VtFiringEvent> = confirmed
            .into_iter()
            .map(|(_, _, record)| VtFiringEvent {
                phase: VtPhase::Confirmed,
                record,
            })
            .collect();
        if self.compaction {
            let k = self.engine.compact_before(w)?;
            if k > 0 {
                self.version += 1;
                for rule in self.rules.iter_mut() {
                    match &mut rule.runner {
                        VtRunner::Tentative { runner, .. } => runner.shift_down(k)?,
                        VtRunner::Definite(r) => r.shift_down(k),
                    }
                }
            }
        }
        self.log_events(&events);
        Ok(events)
    }

    /// Audits the (complete) history offline: which constraints are
    /// offline-satisfied? "Ideally, one would like to enforce offline
    /// satisfaction. However, practically only online satisfaction can be
    /// enforced." Memoized per history version: repeated audits of an
    /// unchanged watermark perform no re-evaluation.
    pub fn offline_report(&self) -> Result<OfflineReport> {
        if let Some((v, cached)) = self.offline_cache.borrow().as_ref() {
            if *v == self.version {
                return Ok(cached.clone());
            }
        }
        self.offline_evals.set(self.offline_evals.get() + 1);
        let report: OfflineReport = self
            .constraints
            .iter()
            .map(|c| {
                Ok((
                    c.name.clone(),
                    crate::validtime::offline_satisfied(&self.engine, &c.condition)?,
                ))
            })
            .collect::<Result<_>>()?;
        *self.offline_cache.borrow_mut() = Some((self.version, report.clone()));
        Ok(report)
    }

    /// Number of full offline evaluations actually performed (memoization
    /// observability; see the unit test pinning no re-evaluation for an
    /// unchanged watermark).
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
    fn tentative_fires_immediately_definite_fires_delta_late() {
        let mut vt = VtActiveDatabase::new(base(), 5);
        vt.add_trigger(
            "tent",
            parse_formula("level() >= 10").unwrap(),
            VtMode::Tentative,
        )
        .unwrap();
        vt.add_trigger(
            "def",
            parse_formula("level() >= 10").unwrap(),
            VtMode::Definite,
        )
        .unwrap();
        vt.advance_clock(1).unwrap();
        let t = vt.begin().unwrap();
        vt.update(t, set_level(12)).unwrap();
        vt.commit(t).unwrap();
        let fired: Vec<&str> = vt.firings().iter().map(|f| f.rule.as_str()).collect();
        assert!(fired.contains(&"tent"));
        assert!(!fired.contains(&"def"), "definite waits Δ");
        vt.advance_clock(6).unwrap();
        let fired: Vec<&str> = vt.firings().iter().map(|f| f.rule.as_str()).collect();
        assert!(
            fired.contains(&"def"),
            "definite fires once the state is Δ old"
        );
    }

    #[test]
    fn retroactive_update_refires_tentative_trigger() {
        let mut vt = VtActiveDatabase::new(base(), 10);
        vt.add_trigger(
            "seen_high",
            parse_formula("previously(level() >= 10)").unwrap(),
            VtMode::Tentative,
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
        vt.add_trigger(
            "r",
            parse_formula("level() > 0").unwrap(),
            VtMode::Tentative,
        )
        .unwrap();
        assert!(vt
            .add_trigger("r", parse_formula("level() > 0").unwrap(), VtMode::Definite)
            .is_err());
        vt.add_constraint("c", parse_formula("level() >= 0").unwrap())
            .unwrap();
        assert!(vt
            .add_constraint("c", parse_formula("level() >= 0").unwrap())
            .is_err());
    }

    // ---- streaming (watermarked out-of-order ingestion) -------------------

    /// A rising-edge trigger over `level` (`lasttime` = previous state).
    fn edge_formula() -> Formula {
        parse_formula("level() >= 10 and lasttime(level() < 10)").unwrap()
    }

    #[test]
    fn stream_confirms_behind_watermark() {
        let mut vt = VtActiveDatabase::new_streaming(base(), 3);
        vt.add_trigger("edge", edge_formula(), VtMode::Tentative)
            .unwrap();
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
        vt.add_trigger("edge", edge_formula(), VtMode::Tentative)
            .unwrap();
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
        vt.add_trigger("edge", edge_formula(), VtMode::Tentative)
            .unwrap();
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
        vt.add_trigger("edge", edge_formula(), VtMode::Tentative)
            .unwrap();
        vt.add_constraint("cap", parse_formula("level() <= 100").unwrap())
            .unwrap();
        vt.ingest(Vec::new(), Timestamp(0)).unwrap();
        vt.advance_to(Timestamp(4)).unwrap();
        vt.ingest(vec![set_level(2)], Timestamp(2)).unwrap();
        vt.ingest(vec![set_level(12)], Timestamp(4)).unwrap();
        assert_eq!(vt.pending_tentative(), 1);
        vt.offline_report().unwrap();

        let pending_of = |vt: &VtActiveDatabase| -> Vec<FiringRecord> {
            vt.rules
                .iter()
                .flat_map(|r| match &r.runner {
                    VtRunner::Tentative { pending, .. } => pending.clone(),
                    VtRunner::Definite(_) => Vec::new(),
                })
                .collect()
        };
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
    /// can have, plus a free-variable query (whose residuals carry the
    /// state index, so it exercises the fallback).
    fn mixed_catalog(max_delay: i64, full_replay: bool) -> VtActiveDatabase {
        use tdb_relation::{parse_query, Relation, Schema};
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
        let mut vt = VtActiveDatabase::new_streaming(db, max_delay);
        for (name, src) in [
            ("rise_a", "a() >= 60 and lasttime(a() < 60)"),
            ("deep", "a() >= 50 and lasttime(lasttime(b() >= 50))"),
            ("since_b", "b() < 80 since b() >= 90"),
            ("seen_a", "previously(a() >= 97)"),
            (
                "recent_b",
                "[t := time] previously(b() >= 60 and time >= t - 3)",
            ),
            ("rows", "x in keys() and lasttime(val(x) >= 50)"),
        ] {
            vt.add_trigger(name, parse_formula(src).unwrap(), VtMode::Tentative)
                .unwrap();
        }
        for r in &mut vt.rules {
            if let VtRunner::Tentative { runner, .. } = &mut r.runner {
                runner.full_replay = full_replay;
            }
        }
        vt
    }

    /// Per rule: how many passes stopped early, and how many of those
    /// skipped over renumbered states (a late arrival at a new instant).
    fn early_stops(vt: &VtActiveDatabase) -> Vec<(String, usize, usize)> {
        vt.rules
            .iter()
            .filter_map(|r| match &r.runner {
                VtRunner::Tentative { runner, .. } => Some((
                    r.name.clone(),
                    runner.early_stops.len(),
                    runner.early_stops.iter().filter(|&&s| s > 0).count(),
                )),
                VtRunner::Definite(_) => None,
            })
            .collect()
    }

    #[test]
    fn early_stop_streams_exactly_what_the_full_suffix_replay_streams() {
        const DELTA: i64 = 8;
        let mut fast = mixed_catalog(DELTA, false);
        let mut reference = mixed_catalog(DELTA, true);
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

        // The comparison is between two different computations: every rule
        // stopped early many times, the snapshot-carrying one only where no
        // state was renumbered (a same-instant merge), the reference never.
        for (rule, stops, renumbered) in early_stops(&fast) {
            assert!(stops >= 20, "{rule} stopped early only {stops} times");
            if rule == "rows" {
                assert_eq!(renumbered, 0, "{rule}");
            } else {
                assert!(renumbered >= 20, "{rule}: {renumbered} of {stops}");
            }
        }
        assert!(early_stops(&reference).iter().all(|(_, n, _)| *n == 0));
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
        let build = |full_replay: bool| {
            let mut vt = mixed_catalog(DELTA, full_replay);
            vt.set_compaction(false);
            vt
        };
        let (mut fast, mut reference) = (build(false), build(true));
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

    #[test]
    fn aggregate_conditions_never_reach_the_early_stop() {
        // A closed temporal aggregate is formula state, rewound with the
        // evaluator: it registers in either mode and fires. One whose
        // formulas mention a free variable would need an accumulator per
        // binding: a typed error at registration, in either mode, and the
        // refused rule leaves nothing behind to break later ingests.
        for mode in [VtMode::Tentative, VtMode::Definite] {
            let mut vt = VtActiveDatabase::new_streaming(base(), 4);
            let err = vt
                .add_trigger(
                    "per_user",
                    parse_formula("@hit(u) and count(level(); @hit(u); true) > 1").unwrap(),
                    mode,
                )
                .unwrap_err();
            assert!(
                matches!(err, CoreError::Ptl(tdb_ptl::PtlError::Unsafe { .. })),
                "{err}"
            );
            assert!(!vt.has_rule("per_user"));
            let sum = parse_formula("sum(level(); level() = 0; level() > 0) > 10").unwrap();
            vt.add_trigger("sum", sum, mode).unwrap();
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
            assert_eq!(sum_at(VtPhase::Confirmed), [2], "{mode:?}");
            if mode == VtMode::Tentative {
                assert_eq!(sum_at(VtPhase::Tentative), [2]);
            }
        }
    }

    #[test]
    fn compaction_bounds_memory_without_changing_the_stream() {
        let run = |compaction: bool| {
            let mut vt = if compaction {
                VtActiveDatabase::new_streaming(base(), 4)
            } else {
                VtActiveDatabase::new(base(), 4)
            };
            vt.add_trigger("edge", edge_formula(), VtMode::Tentative)
                .unwrap();
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
}

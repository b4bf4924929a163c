//! [`ActiveDatabase`] — the full active database system: the engine
//! substrate plus the temporal component, wired per the Section 8 execution
//! model.
//!
//! * every new system state is dispatched to the detached rules;
//! * commits are gated by the integrity constraints (TCA rules) against
//!   the candidate state — a violation aborts the transaction;
//! * rule actions run as their own (gated) one-shot transactions, which
//!   append further states and cascade;
//! * rules that need it get their firings recorded in the `executed`
//!   relation, enabling the Section 7 composite/temporal actions;
//! * optional batching delays dispatch until several states are pending
//!   ("trigger firing may be delayed, but not go unrecognized").

use tdb_engine::{
    Engine, EngineError, Event, EventSet, History, PreparedCommit, SystemState, TxnId, WriteOp,
};
use tdb_ptl::Env;
use tdb_relation::{Database, QueryDef, Relation, Timestamp, Value};

use tdb_analysis::{BatchCertificate, Resource};

use crate::error::{CoreError, Result};
use crate::manager::{
    action_writes, effectively_recording, executed_relation_name, ManagerConfig, ManagerStats,
    RuleManager,
};
use crate::rules::{ActionOp, FiringRecord, Rule};
use crate::storage::{LogicalOp, SystemSnapshot, WalSink};

/// Default bound on the number of states processed by one cascade.
const DEFAULT_CASCADE_LIMIT: usize = 10_000;

/// The one refusal of both op interpreters — [`ActiveDatabase::apply`]
/// and [`crate::VtActiveDatabase::apply`] — and of their batches'
/// pre-checks, so a refused op never reaches the WAL. `AddRule` and —
/// outside replay — `RegisterRules` are log records only the system
/// writes (storage reads an `AddRule` as the registration it names), and
/// `Firing` is derived output that older logs recorded; a batch member is
/// never itself a batch. A transaction-time database (`valid_time` unset)
/// refuses valid-time ingest; a valid-time one takes only `CommitAt`,
/// clock and schema ops, and a batch only as a logged record.
pub(crate) fn refusal(op: &LogicalOp, replay: bool, member: bool, valid_time: bool) -> Result<()> {
    const REGISTER: &str = "rules register through register_rules, which logs the record";
    let why = match op {
        LogicalOp::RegisterRules { .. } if !replay => REGISTER,
        LogicalOp::AddRule { .. } => REGISTER,
        LogicalOp::Firing { .. } => "firings are derived from the inputs, not applied",
        LogicalOp::Batch { .. } if member => "a batch member cannot be a batch",
        LogicalOp::CommitAt { .. } if !valid_time => "valid-time ingest needs a valid-time tenant",
        LogicalOp::CreateRelation { .. }
        | LogicalOp::DefineQuery { .. }
        | LogicalOp::SetItem { .. }
        | LogicalOp::RegisterRules { .. }
        | LogicalOp::AdvanceClock { .. }
        | LogicalOp::AdvanceClockTo { .. }
        | LogicalOp::Tick
        | LogicalOp::CommitAt { .. } => return Ok(()),
        LogicalOp::Batch { .. } if replay => return Ok(()),
        _ if valid_time => "a valid-time tenant takes only CommitAt, clock and schema ops",
        _ => return Ok(()),
    };
    Err(CoreError::RefusedOp { op: op.kind(), why })
}

/// Registry handles for the sink-agnostic WAL counters (logical ops
/// appended, checkpoints written), resolved once per process. The physical
/// byte/latency metrics live in `tdb-storage`'s file backend; these count
/// at the facade so in-memory sinks are covered too. Touched only while
/// [`tdb_obs::enabled`].
fn wal_counters() -> &'static (tdb_obs::Counter, tdb_obs::Counter) {
    static COUNTERS: std::sync::OnceLock<(tdb_obs::Counter, tdb_obs::Counter)> =
        std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| {
        let r = tdb_obs::global();
        (
            r.counter("tdb_wal_logical_ops_total"),
            r.counter("tdb_wal_checkpoints_total"),
        )
    })
}

/// What applying one member of a [`ActiveDatabase::commit_batch`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOpOutcome {
    /// `Err(message)` when the op itself was deterministically rejected
    /// (e.g. an update vetoed by an integrity constraint).
    pub result: std::result::Result<(), String>,
    /// History length right after this op applied: a firing with
    /// `state_index < states_end` was produced by this op or an earlier
    /// one, which lets callers attribute the batch's pooled firings back
    /// to individual ops.
    pub states_end: usize,
}

impl BatchOpOutcome {
    pub fn ok(&self) -> bool {
        self.result.is_ok()
    }
}

/// An active database: engine + temporal component.
#[derive(Debug)]
pub struct ActiveDatabase {
    engine: Engine,
    manager: RuleManager,
    firing_log: Vec<FiringRecord>,
    /// First history index not yet dispatched.
    next_dispatch: usize,
    /// States whose constraint evaluators already advanced (gated commits).
    gated: std::collections::BTreeSet<usize>,
    /// Dispatch only when at least this many states are pending.
    batch: usize,
    cascade_limit: usize,
    processing: bool,
    /// Write-ahead log sink; externally driven ops are appended here before
    /// they apply.
    wal: Option<Box<dyn WalSink>>,
}

impl ActiveDatabase {
    pub fn new(db: Database) -> ActiveDatabase {
        ActiveDatabase::with_config(db, ManagerConfig::default())
    }

    pub fn with_config(db: Database, cfg: ManagerConfig) -> ActiveDatabase {
        let engine = Engine::new(db);
        let next_dispatch = engine.history().len();
        ActiveDatabase {
            engine,
            manager: RuleManager::new(cfg),
            firing_log: Vec::new(),
            next_dispatch,
            gated: std::collections::BTreeSet::new(),
            batch: 1,
            cascade_limit: DEFAULT_CASCADE_LIMIT,
            processing: false,
            wal: None,
        }
    }

    /// Builds a durable active database: every externally driven op is
    /// write-ahead logged to `sink`, and an initial checkpoint is taken
    /// immediately so recovery always has a base to start from.
    pub fn with_storage(
        db: Database,
        cfg: ManagerConfig,
        sink: Box<dyn WalSink>,
    ) -> Result<ActiveDatabase> {
        let mut adb = ActiveDatabase::with_config(db, cfg);
        adb.attach_wal(sink)?;
        Ok(adb)
    }

    /// Attaches a sink to an existing system, writing a checkpoint first so
    /// the log that follows has a base. A transaction still open — on a
    /// recovered system, one the log left open when the process died — is
    /// aborted first, through the logged [`ActiveDatabase::abort`]: its
    /// client is gone and none of its writes was acked, and a checkpoint
    /// cannot hold its buffered writes.
    pub fn attach_wal(&mut self, sink: Box<dyn WalSink>) -> Result<()> {
        self.wal = Some(sink);
        let open: Vec<TxnId> = self.engine.open_txns().collect();
        for txn in open {
            self.abort(txn)?;
        }
        self.checkpoint_now()
    }

    // ---- introspection ----------------------------------------------------

    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    pub fn db(&self) -> &Database {
        self.engine.db()
    }

    pub fn history(&self) -> &History {
        self.engine.history()
    }

    pub fn now(&self) -> Timestamp {
        self.engine.now()
    }

    pub fn stats(&self) -> ManagerStats {
        self.manager.stats()
    }

    /// The evaluation context every rule of this database interns,
    /// memoises and counts in (see [`crate::EvalContext`]).
    pub fn eval_context(&self) -> &std::sync::Arc<crate::EvalContext> {
        self.manager.context()
    }

    /// Retained formula-state size across all rules (experiment E2).
    pub fn retained_size(&self) -> usize {
        self.manager.retained_size()
    }

    /// Whether this system records metrics (see `ManagerConfig { obs }`).
    pub fn metrics_enabled(&self) -> bool {
        self.manager.metrics_enabled()
    }

    /// Prometheus text exposition of the metrics registry this system
    /// records into (the process-global registry unless the config
    /// supplied a private one). Layers instrumented through free functions
    /// (parteval memo, readset fan-out, WAL, engine) always record into
    /// the global registry.
    pub fn metrics_prometheus(&self) -> String {
        self.manager.force_retained_gauge();
        self.manager.config().obs.registry().render_prometheus()
    }

    /// JSON snapshot of the same registry as
    /// [`ActiveDatabase::metrics_prometheus`].
    pub fn metrics_json(&self) -> String {
        self.manager.force_retained_gauge();
        self.manager.config().obs.registry().render_json()
    }

    /// Lint findings recorded while registering rules (see
    /// [`ManagerConfig`]'s `lint` level).
    pub fn lint_findings(&self) -> &[tdb_analysis::Diagnostic] {
        self.manager.lint_findings()
    }

    /// Runs the whole-rule-set static verifier over every registered rule
    /// (boundedness certification, per-rule lints, triggering graph).
    pub fn lint_rule_set(&self) -> tdb_analysis::Report {
        self.manager.lint_rule_set(self.engine.db())
    }

    /// The batch-safety certificate for the registered rule set — what
    /// [`commit_batch`](Self::commit_batch) may fuse without diverging from
    /// the per-op schedule. Kept current by every registration.
    pub fn batch_certificate(&self) -> BatchCertificate {
        self.manager.batch_certificate()
    }

    /// The full batch-safety analysis behind
    /// [`batch_certificate`](Self::batch_certificate): cascade edges,
    /// cycles, impure rules, strata. Built on demand.
    pub fn batch_safety(&self) -> tdb_analysis::BatchSafety {
        self.manager.batch_safety()
    }

    /// The registered rules, in registration order.
    pub fn rules(&self) -> impl ExactSizeIterator<Item = &std::sync::Arc<Rule>> {
        self.manager.rules()
    }

    /// The registered rule of that name.
    pub fn rule(&self, name: &str) -> Option<&Rule> {
        self.manager.rule(name)
    }

    /// All firings so far (constraint violations included).
    pub fn firings(&self) -> &[FiringRecord] {
        &self.firing_log
    }

    /// Drains the firing log.
    pub fn take_firings(&mut self) -> Vec<FiringRecord> {
        std::mem::take(&mut self.firing_log)
    }

    // ---- durability ---------------------------------------------------------

    /// Captures the Theorem-1 recovery snapshot: the current database, the
    /// clock, every rule's formula states, and the dispatch bookkeeping.
    /// The history contributes only its undispatched suffix — the snapshot
    /// is O(formula state + batch), not O(history). Fails while a
    /// transaction is open (its buffered writes live outside the log).
    pub fn snapshot(&self) -> Result<SystemSnapshot> {
        let open: Vec<TxnId> = self.engine.open_txns().collect();
        if !open.is_empty() {
            return Err(CoreError::Storage(format!(
                "cannot checkpoint with {} open transaction(s)",
                open.len()
            )));
        }
        let h = self.engine.history();
        let last = h.last_index().ok_or(CoreError::StateNotRetained(0))?;
        let first_carried = self.next_dispatch.min(last);
        let states = (first_carried..=last)
            .map(|i| h.get(i).cloned().ok_or(CoreError::StateNotRetained(i)))
            .collect::<Result<Vec<_>>>()?;
        Ok(SystemSnapshot {
            db: self.engine.db().clone(),
            now: self.engine.now(),
            history_offset: first_carried,
            states,
            next_txn: self.engine.next_txn_id(),
            auto_tick: self.engine.auto_tick(),
            registered: self.rules().cloned().collect(),
            rules: self.manager.export_states(),
            stats: self.manager.stats(),
            firing_log: self.firing_log.clone(),
            next_dispatch: self.next_dispatch,
            gated: self.gated.iter().copied().collect(),
            batch: self.batch,
            cascade_limit: self.cascade_limit,
        })
    }

    /// Forgets every history state outside the suffix
    /// [`snapshot`](Self::snapshot) carries: the states before
    /// `min(next_dispatch, last)`. By Theorem 1 the formula states
    /// summarise them — temporal aggregates included, whose accumulators
    /// are formula state — so nothing evaluates them again.
    /// `history().len()` and global indices are unchanged. Long-lived
    /// holders (the server's [`Shard`](crate::Shard)) call this after every
    /// op; library callers that read `history()` as an oracle simply do not.
    pub fn release_dispatched(&mut self) {
        if let Some(last) = self.engine.history().last_index() {
            self.engine.release_before(self.next_dispatch.min(last));
        }
    }

    /// Rebuilds a system from a snapshot: its rules re-register, then the
    /// formula states in the snapshot are installed verbatim.
    /// Returns typed errors on any mismatch.
    pub fn restore(snap: SystemSnapshot, cfg: ManagerConfig) -> Result<ActiveDatabase> {
        // Re-register against a scratch clone: registration re-runs its
        // side effects (executed-relation creation), which must not clobber
        // the checkpointed values in the real database.
        let mut scratch = snap.db.clone();
        let mut manager = RuleManager::new(cfg);
        for rule in snap.registered {
            manager.register(std::sync::Arc::unwrap_or_clone(rule), &mut scratch, None)?;
        }
        manager.import_states(snap.rules)?;
        manager.set_stats(snap.stats);

        let history = History::from_parts(snap.history_offset, snap.states)?;
        let engine = Engine::from_parts(snap.db, snap.now, history, snap.next_txn, snap.auto_tick)?;
        Ok(ActiveDatabase {
            engine,
            manager,
            firing_log: snap.firing_log,
            next_dispatch: snap.next_dispatch,
            gated: snap.gated.into_iter().collect(),
            batch: snap.batch,
            cascade_limit: snap.cascade_limit,
            processing: false,
            wal: None,
        })
    }

    /// Crash recovery: restores the snapshot, then replays a logged op
    /// suffix through `apply`. Firing records, which logs written before
    /// the log held inputs only carry, are skipped (dispatch re-derives
    /// them). A top-level registration or `CommitAt` record that fails
    /// propagates: it registered in the live run, or the database kind
    /// disagrees with the log. Every other record re-fails exactly as it
    /// failed in the live run (constraint vetoes, cascade limits, a batch
    /// that stopped at a bad member), so its error is absorbed.
    pub fn recover(
        snap: SystemSnapshot,
        ops: &[LogicalOp],
        cfg: ManagerConfig,
    ) -> Result<ActiveDatabase> {
        let mut adb = ActiveDatabase::restore(snap, cfg)?;
        for op in ops {
            match op {
                LogicalOp::Firing { .. } => {}
                LogicalOp::RegisterRules { .. }
                | LogicalOp::AddRule { .. }
                | LogicalOp::CommitAt { .. } => adb.apply(op, true)?,
                _ => {
                    let _ = adb.apply(op, true);
                }
            }
        }
        Ok(adb)
    }

    /// The op interpreter: applies one input through the typed facade
    /// method it names, so a logged op, a shard's op and a batch member all
    /// run the same code. `replay` is set on recovery only; a live caller
    /// is refused a registration record (see [`refusal`]) before anything
    /// is logged.
    pub(crate) fn apply(&mut self, op: &LogicalOp, replay: bool) -> Result<()> {
        refusal(op, replay, false, false)?;
        match op {
            LogicalOp::CreateRelation { name, relation } => {
                self.create_relation(name.clone(), relation.clone())
            }
            LogicalOp::DefineQuery { name, def } => self.define_query(name.clone(), def.clone()),
            LogicalOp::SetItem { name, value } => self.set_item(name.clone(), value.clone()),
            LogicalOp::RegisterRules { rules } => self.register_rules(rules.clone()),
            LogicalOp::SetBatch { n } => self.set_batch(*n),
            LogicalOp::SetCascadeLimit { n } => self.set_cascade_limit(*n),
            LogicalOp::AdvanceClock { delta } => self.advance_clock(*delta).map(drop),
            LogicalOp::AdvanceClockTo { t } => self.advance_clock_to(*t).map(drop),
            LogicalOp::Tick => self.tick(),
            LogicalOp::Emit { events } => self.emit_all(events.clone()).map(drop),
            LogicalOp::Update { ops } => self.update(ops.clone()).map(drop),
            LogicalOp::Begin => self.begin().map(drop),
            LogicalOp::Write { txn, op } => self.write(*txn, op.clone()),
            LogicalOp::Commit { txn } => self.commit(*txn).map(drop),
            LogicalOp::Abort { txn } => self.abort(*txn).map(drop),
            LogicalOp::Flush => self.flush(),
            LogicalOp::Batch { ops } => self.batch(ops, replay).map(drop),
            // Refused above.
            LogicalOp::AddRule { .. } | LogicalOp::Firing { .. } | LogicalOp::CommitAt { .. } => {
                Ok(())
            }
        }
    }

    /// Applies a group-committed batch of externally driven ops. The whole
    /// batch is write-ahead logged as *one* record — one buffered write
    /// and, under [`crate::storage::SyncPolicy::Always`], one fsync for all
    /// of it. Because the batch occupies one WAL record, a crash mid-write
    /// tears the record and recovery drops the whole batch — an acked batch
    /// is fully durable, an unacked one fully absent.
    ///
    /// Dispatch is fused where the batch-safety certificate allows it: the
    /// pending states accumulate and are advanced in one slice pass
    /// ([`RuleManager::dispatch_slice`](crate::RuleManager::dispatch_slice)),
    /// and firings, state indices and the database come out byte-identical
    /// to applying the ops one at a time. The pending states are drained
    /// early
    ///
    /// * before a gating op (`Update` / `Commit`) while integrity
    ///   constraints are registered — constraints gate a candidate from
    ///   their *current* formula states, so they must have seen every
    ///   earlier state;
    /// * before an op that reconfigures dispatch itself (a registration,
    ///   `SetBatch`, `SetCascadeLimit`, `Flush`);
    /// * after a state-producing op that can fire a data-writing rule, as
    ///   the certificate decides (see `fence_after`).
    ///
    /// Section 8's delayed schedule ("trigger firing may be delayed, but not
    /// go unrecognized") is a batch member away: a leading `SetBatch { n }`
    /// holds dispatch back until `n` states are pending, and `Flush` forces
    /// it.
    ///
    /// Every member is checked against the interpreter's one refusal
    /// before the record is written, so a refused member refuses the whole
    /// batch and leaves nothing in the log. Deterministic op-level failures
    /// (constraint vetoes, bad writes) land in the per-op outcomes; any
    /// other error propagates, leaving the ops applied so far in place
    /// exactly as replay would. Errors out of the closing dispatch itself
    /// (e.g. a cascade-limit trip) surface on the returned `Result` after
    /// every outcome was collected.
    pub fn commit_batch(&mut self, ops: &[LogicalOp]) -> Result<Vec<BatchOpOutcome>> {
        self.batch(ops, false)
    }

    /// [`commit_batch`](Self::commit_batch), or a replayed batch record
    /// (see [`apply`](Self::apply)).
    fn batch(&mut self, ops: &[LogicalOp], replay: bool) -> Result<Vec<BatchOpOutcome>> {
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        // A live batch with a refused member is refused whole, before its
        // record is written. A replayed record may predate that check: it
        // applies the members before its first refused one and then fails,
        // as the live run that logged it did.
        let first_refused = ops.iter().enumerate().find_map(|(k, op)| {
            let refused = refusal(op, replay, true, false).err()?;
            Some((k, refused))
        });
        let (ops, mut structural) = match first_refused {
            None => (ops, None),
            Some((_, refused)) if !replay => return Err(refused),
            Some((k, refused)) => (&ops[..k], Some(refused)),
        };
        if let Some(w) = self.wal.as_mut() {
            w.append_batch(ops)?;
            if tdb_obs::enabled() {
                wal_counters().0.add(ops.len() as u64);
            }
        }
        // The batch window: detach the sink (the members are already
        // logged, and checkpoints wait for the batch end, so none can land
        // mid-batch) and suppress dispatch (`process` no-ops re-entrantly
        // while `processing` is set), so the members run through `apply`
        // without re-logging or dispatching.
        let wal = self.wal.take();
        debug_assert!(!self.processing, "commit_batch cannot run from an action");
        self.processing = true;
        let mut out = Vec::with_capacity(ops.len());
        for op in ops {
            let eager = match op {
                LogicalOp::Update { .. } | LogicalOp::Commit { .. } => {
                    self.manager.has_constraints()
                }
                LogicalOp::RegisterRules { .. }
                | LogicalOp::SetBatch { .. }
                | LogicalOp::SetCascadeLimit { .. }
                | LogicalOp::Flush => true,
                _ => false,
            };
            let mut r = if eager {
                self.processing = false;
                let drained = self.process();
                let r = drained.and_then(|()| self.apply(op, replay));
                self.processing = true;
                r
            } else {
                self.apply(op, replay)
            };
            // Drain the pending states right after any op that can fire a
            // data-writing rule, so the writer's action lands at its per-op
            // position (a deterministically rejected op still appended its
            // abort state, so it drains too).
            let applied = match &r {
                Ok(()) => true,
                Err(e) => e.is_deterministic(),
            };
            if applied && self.fence_after(op) {
                self.processing = false;
                let drained = self.process();
                self.processing = true;
                // Mirror the per-op methods, where a dispatch error takes
                // precedence over the op's own result.
                if let Err(e) = drained {
                    r = Err(e);
                }
            }
            match r {
                Ok(()) => out.push(BatchOpOutcome {
                    result: Ok(()),
                    states_end: self.engine.history().len(),
                }),
                Err(e) if e.is_deterministic() => out.push(BatchOpOutcome {
                    result: Err(e.to_string()),
                    states_end: self.engine.history().len(),
                }),
                Err(e) => {
                    structural = Some(e);
                    break;
                }
            }
        }
        self.processing = false;
        self.wal = wal;
        // Close the window: one slice dispatch over everything pending,
        // then a checkpoint if one is due.
        let p = self.process();
        self.maybe_checkpoint()?;
        if let Some(e) = structural {
            return Err(e);
        }
        p?;
        Ok(out)
    }

    /// Whether a batched commit must drain the pending states right after
    /// this op.
    ///
    /// The certificate decides how much fusion survives:
    ///
    /// * `Exact` — no fences; the fused slice is already byte-identical;
    /// * `Stratified` — fence ops that touch a writer's read set (data,
    ///   events, or the clock). Between fences no writer's condition can
    ///   change, so edge-triggered writers cannot fire inside the fused
    ///   sub-slice, and draining *after* the touching op replays the
    ///   per-op interleaving exactly (an action materializes against the
    ///   state that fired it). `Commit` is fenced conservatively: its
    ///   writes live in the transaction, not the op;
    /// * `CascadeRequired` — fence every state-producing op; each drain
    ///   then sees exactly the one state the per-op schedule would have.
    ///
    /// Non-state-producing ops (`SetItem`, clock advances, schema setup)
    /// never fence — the per-op path does not dispatch after them either.
    fn fence_after(&self, op: &LogicalOp) -> bool {
        let state_producing = matches!(
            op,
            LogicalOp::Update { .. }
                | LogicalOp::Emit { .. }
                | LogicalOp::Tick
                | LogicalOp::Begin
                | LogicalOp::Commit { .. }
                | LogicalOp::Abort { .. }
        );
        if !state_producing {
            return false;
        }
        match self.manager.batch_certificate() {
            BatchCertificate::Exact => false,
            BatchCertificate::CascadeRequired => true,
            BatchCertificate::Stratified { .. } => {
                let fences = self.manager.writer_fences();
                let reads = &fences.reads;
                match op {
                    LogicalOp::Update { ops } => {
                        ops.iter().any(|w| reads.reads_data(w.target()))
                            || reads.reads_event(tdb_engine::event::names::UPDATE)
                    }
                    LogicalOp::Commit { .. } => fences.any,
                    LogicalOp::Emit { events } => {
                        events.iter().any(|e| reads.reads_event(e.name()))
                    }
                    LogicalOp::Tick => {
                        reads.contains(&Resource::Clock)
                            || reads.reads_event(tdb_engine::event::names::CLOCK_TICK)
                    }
                    // Begin/abort states change no data and no clock; a
                    // stratified catalog's writers read only data and time
                    // (event-reading writers are order-sensitive and land
                    // in `CascadeRequired`), so they cannot fire here.
                    _ => false,
                }
            }
        }
    }

    /// Writes a checkpoint to the attached sink immediately (no-op when
    /// volatile).
    pub fn checkpoint_now(&mut self) -> Result<()> {
        if self.wal.is_none() {
            return Ok(());
        }
        let snap = self.snapshot()?;
        if let Some(wal) = self.wal.as_mut() {
            wal.checkpoint(&snap)?;
            if tdb_obs::enabled() {
                wal_counters().1.inc();
            }
        }
        Ok(())
    }

    /// Appends one op to the WAL before it applies (write-ahead). The
    /// closure only runs when a sink is attached, so volatile systems pay
    /// nothing for the clones it makes.
    fn log_op(&mut self, op: impl FnOnce() -> LogicalOp) -> Result<()> {
        if let Some(w) = self.wal.as_mut() {
            w.append(&op())?;
            if tdb_obs::enabled() {
                wal_counters().0.inc();
            }
        }
        Ok(())
    }

    /// Checkpoints when the sink wants one and the system is quiescent (no
    /// open transactions; checkpoints between ops are always consistent).
    /// Every logged op ends here, even one that failed: an aborted update
    /// still happened (its abort state is in the history and replays
    /// identically). The log holds inputs only; the firings they produce
    /// live in the firing log, which the checkpoint carries.
    fn maybe_checkpoint(&mut self) -> Result<()> {
        let due = self.wal.as_ref().is_some_and(|w| w.wants_checkpoint());
        if due && self.engine.open_txns().next().is_none() {
            self.checkpoint_now()?;
        }
        Ok(())
    }

    // ---- schema setup ------------------------------------------------------

    pub fn create_relation(&mut self, name: impl Into<String>, rel: Relation) -> Result<()> {
        let name = name.into();
        self.log_op(|| LogicalOp::CreateRelation {
            name: name.clone(),
            relation: rel.clone(),
        })?;
        self.engine.db_mut().create_relation(name, rel)?;
        self.maybe_checkpoint()
    }

    /// Defines a named query. Redefining one that a registered rule's
    /// condition reads is refused with [`CoreError::QueryInUse`]: the rule's
    /// read set, relevance set, batch facts and certificate were all derived
    /// from the old definition. So is one nested deeper than a log decoder
    /// reads back ([`CoreError::QueryNestedTooDeep`]).
    pub fn define_query(&mut self, name: impl Into<String>, def: QueryDef) -> Result<()> {
        let name = name.into();
        let depth = def.body.depth();
        if depth > crate::rules::MAX_NESTING {
            return Err(CoreError::QueryNestedTooDeep { query: name, depth });
        }
        if let Some(rule) = self.manager.query_reader(&name) {
            return Err(CoreError::QueryInUse {
                query: name,
                rule: rule.to_string(),
            });
        }
        self.log_op(|| LogicalOp::DefineQuery {
            name: name.clone(),
            def: def.clone(),
        })?;
        self.engine.db_mut().define_query(name, def);
        self.maybe_checkpoint()
    }

    /// Writes an item outside any transaction. No state is built; the next
    /// state's delta names the item, so rules reading it see the write there.
    pub fn set_item(&mut self, name: impl Into<String>, v: Value) -> Result<()> {
        let name = name.into();
        self.log_op(|| LogicalOp::SetItem {
            name: name.clone(),
            value: v.clone(),
        })?;
        self.engine.db_mut().set_item(name, v);
        self.maybe_checkpoint()
    }

    /// Registers a rule: [`register_rules`](Self::register_rules) of one.
    pub fn add_rule(&mut self, rule: Rule) -> Result<()> {
        self.register_rules(vec![rule])
    }

    /// Registers a source of rules, all or nothing. Each rule's evaluator
    /// is primed on the current database, so its condition's history starts
    /// at registration time, and a later rule may read `executed` of an
    /// earlier one. Every rule is prepared before anything is logged; then
    /// one record carries every definition, and then all of them install.
    /// A rejected rule — a duplicate name, in the source or registered,
    /// included — leaves nothing in the log and nothing in memory.
    pub fn register_rules(&mut self, rules: Vec<Rule>) -> Result<()> {
        let idx = self.engine.history().last_index().unwrap_or(0);
        let t = self
            .engine
            .history()
            .last()
            .map(|s| s.time())
            .unwrap_or_default();
        let prepared = self
            .manager
            .prepare(rules, self.engine.db_mut(), Some((t, idx)))?;
        if let Err(e) = self.log_op(|| LogicalOp::RegisterRules {
            rules: prepared.iter().filter_map(|p| p.rule()).cloned().collect(),
        }) {
            for p in prepared.into_iter().rev() {
                p.discard(self.engine.db_mut());
            }
            return Err(e);
        }
        for p in prepared {
            self.manager.install(p);
        }
        self.maybe_checkpoint()
    }

    /// Dispatch only every `n` pending states (Section 8 batching);
    /// [`ActiveDatabase::flush`] forces dispatch of a partial batch.
    pub fn set_batch(&mut self, n: usize) -> Result<()> {
        self.log_op(|| LogicalOp::SetBatch { n })?;
        self.batch = n.max(1);
        self.maybe_checkpoint()
    }

    pub fn set_cascade_limit(&mut self, n: usize) -> Result<()> {
        self.log_op(|| LogicalOp::SetCascadeLimit { n })?;
        self.cascade_limit = n.max(1);
        self.maybe_checkpoint()
    }

    // ---- time & events ------------------------------------------------------

    pub fn advance_clock(&mut self, delta: i64) -> Result<Timestamp> {
        self.log_op(|| LogicalOp::AdvanceClock { delta })?;
        let t = self.engine.advance_clock(delta)?;
        self.maybe_checkpoint()?;
        Ok(t)
    }

    /// Advances the clock to an absolute time (no-op if `t` is in the past).
    pub fn advance_clock_to(&mut self, t: Timestamp) -> Result<Timestamp> {
        self.log_op(|| LogicalOp::AdvanceClockTo { t })?;
        self.engine.advance_clock_to(t)?;
        self.maybe_checkpoint()?;
        Ok(self.now())
    }

    /// Emits a clock-tick state (timer rules are evaluated at ticks).
    pub fn tick(&mut self) -> Result<()> {
        self.log_op(|| LogicalOp::Tick)?;
        self.engine.tick()?;
        let r = self.process();
        self.maybe_checkpoint()?;
        r
    }

    /// Advances the clock to `t` in steps of `step`, ticking at each step —
    /// the driver for "every 10 minutes"-style temporal actions.
    pub fn run_until(&mut self, t: Timestamp, step: i64) -> Result<()> {
        let step = step.max(1);
        while self.now() < t {
            let next = self.now().plus(step).min(t);
            self.advance_clock_to(next)?;
            self.tick()?;
        }
        Ok(())
    }

    /// Emits a user event: [`emit_all`](Self::emit_all) of one.
    pub fn emit(&mut self, e: Event) -> Result<usize> {
        self.emit_all(EventSet::of([e]))
    }

    /// Emits several simultaneous user events (one system state).
    pub fn emit_all(&mut self, events: EventSet) -> Result<usize> {
        self.log_op(|| LogicalOp::Emit {
            events: events.clone(),
        })?;
        let idx = self.engine.emit(events)?;
        let r = self.process();
        self.maybe_checkpoint()?;
        r?;
        Ok(idx)
    }

    // ---- transactions --------------------------------------------------------

    /// Applies `ops` as one atomic transaction, gated by the integrity
    /// constraints. On violation the transaction is aborted and
    /// `EngineError::Aborted` is returned (violations are also recorded in
    /// the firing log).
    pub fn update(&mut self, ops: impl IntoIterator<Item = WriteOp>) -> Result<usize> {
        let ops: Vec<WriteOp> = ops.into_iter().collect();
        self.log_op(|| LogicalOp::Update { ops: ops.clone() })?;
        let result = self.gated_update(ops, Vec::new());
        // Dispatch whatever was appended (the commit state, or the abort
        // state of a vetoed transaction) before reporting the outcome.
        let p = self.process();
        self.maybe_checkpoint()?;
        p?;
        result
    }

    pub fn begin(&mut self) -> Result<TxnId> {
        self.log_op(|| LogicalOp::Begin)?;
        let t = self.engine.begin()?;
        let r = self.process();
        self.maybe_checkpoint()?;
        r?;
        Ok(t)
    }

    pub fn write(&mut self, txn: TxnId, op: WriteOp) -> Result<()> {
        self.log_op(|| LogicalOp::Write {
            txn,
            op: op.clone(),
        })?;
        self.engine.write(txn, op)?;
        self.maybe_checkpoint()
    }

    /// Commits an open transaction, gated by the constraints.
    pub fn commit(&mut self, txn: TxnId) -> Result<usize> {
        self.log_op(|| LogicalOp::Commit { txn })?;
        let result = self.commit_inner(txn);
        self.maybe_checkpoint()?;
        result
    }

    fn commit_inner(&mut self, txn: TxnId) -> Result<usize> {
        let idx = self.engine.history().len();
        let prepared = self.engine.prepare_commit(txn)?;
        let gate = self.manager.gate(prepared.candidate(), idx)?;
        if gate.ok() {
            let idx = self.engine.finish_commit(prepared)?;
            self.manager.confirm_gate(gate);
            self.gated.insert(idx);
            self.process()?;
            Ok(idx)
        } else {
            let vetoed = self.veto(prepared, gate.violations)?;
            self.process()?;
            Err(vetoed)
        }
    }

    pub fn abort(&mut self, txn: TxnId) -> Result<usize> {
        self.log_op(|| LogicalOp::Abort { txn })?;
        let idx = self.engine.abort(txn)?;
        let r = self.process();
        self.maybe_checkpoint()?;
        r?;
        Ok(idx)
    }

    /// Forces dispatch of any batched-pending states.
    pub fn flush(&mut self) -> Result<()> {
        self.log_op(|| LogicalOp::Flush)?;
        let saved = self.batch;
        self.batch = 1;
        let r = self.process();
        self.batch = saved;
        self.maybe_checkpoint()?;
        r
    }

    // ---- internals -------------------------------------------------------------

    /// One-shot gated transaction (no separate begin state).
    fn gated_update(&mut self, ops: Vec<WriteOp>, extra_events: Vec<Event>) -> Result<usize> {
        let idx = self.engine.history().len();
        let prepared = self.engine.prepare_update(ops, extra_events)?;
        let gate = self.manager.gate(prepared.candidate(), idx)?;
        if gate.ok() {
            let idx = self.engine.finish_commit(prepared)?;
            self.manager.confirm_gate(gate);
            self.gated.insert(idx);
            Ok(idx)
        } else {
            Err(self.veto(prepared, gate.violations)?)
        }
    }

    /// A constraint veto: the violations join the firing log and the
    /// prepared transaction aborts. Returns the error the vetoed commit
    /// reports.
    fn veto(
        &mut self,
        prepared: PreparedCommit,
        violations: Vec<FiringRecord>,
    ) -> Result<CoreError> {
        let txn = prepared.txn();
        let rules: Vec<&str> = violations.iter().map(|v| v.rule.as_str()).collect();
        let reason = format!("integrity constraint(s) violated: {}", rules.join(", "));
        self.firing_log.extend(violations);
        self.engine.abort_prepared(prepared)?;
        Ok(CoreError::Engine(EngineError::Aborted { txn, reason }))
    }

    /// Dispatches every pending state (respecting batching) and executes
    /// the resulting actions, cascading until quiescent.
    fn process(&mut self) -> Result<()> {
        if self.processing {
            // Re-entrant call from an action: the outer loop picks the new
            // states up.
            return Ok(());
        }
        self.processing = true;
        let result = self.process_inner();
        self.processing = false;
        // One gauge refresh per quiescent dispatch round (not per state).
        self.manager.update_retained_gauge();
        result
    }

    fn process_inner(&mut self) -> Result<()> {
        let mut processed = 0usize;
        loop {
            let pending = self
                .engine
                .history()
                .len()
                .saturating_sub(self.next_dispatch);
            if pending < self.batch {
                break;
            }
            // The historical per-state loop dispatched while at least
            // `batch` states stayed pending — i.e. exactly the first
            // `pending - batch + 1` of them. Taking them as one slice
            // preserves that window and lets the manager amortize
            // classification and fixpoint skips across it; a single-state
            // window (the per-op common case) delegates to the per-state
            // dispatcher unchanged.
            let mut take = pending - self.batch + 1;
            let fatal = processed + take > self.cascade_limit;
            if fatal {
                // Mirror the per-state loop bit for bit: dispatch up to the
                // budget, then consume (but do not dispatch) the over-limit
                // state and fail.
                take = self.cascade_limit - processed;
            }
            processed += take;
            let start = self.next_dispatch;
            self.next_dispatch += take;
            if take > 0 {
                let h = self.engine.history();
                let states = (start..start + take)
                    .map(|i| h.get(i).cloned().ok_or(CoreError::StateNotRetained(i)))
                    .collect::<Result<Vec<SystemState>>>()?;
                let constraints_done: Vec<bool> = (start..start + take)
                    .map(|i| self.gated.remove(&i))
                    .collect();
                let firings = self
                    .manager
                    .dispatch_slice(&states, start, &constraints_done)?;
                self.handle_firings(firings)?;
            }
            if fatal {
                self.next_dispatch += 1;
                return Err(CoreError::CascadeLimit(self.cascade_limit));
            }
        }
        Ok(())
    }

    fn handle_firings(&mut self, firings: Vec<FiringRecord>) -> Result<()> {
        for firing in firings {
            self.firing_log.push(firing.clone());
            let rule = self
                .manager
                .rule(&firing.rule)
                .cloned()
                .ok_or_else(|| CoreError::NoSuchRule(firing.rule.clone()))?;

            let ops = self.materialize_ops(&rule.name, &firing.env)?;
            // Soundness tripwire for the batch-safety certificate: every
            // materialized write must sit inside the rule's statically
            // declared write set.
            let declared = action_writes(&rule);
            for w in &ops {
                let resource = match w {
                    WriteOp::SetItem { item, .. } => Resource::Item(item.clone()),
                    WriteOp::Insert { relation, .. } | WriteOp::Delete { relation, .. } => {
                        Resource::Relation(relation.clone())
                    }
                };
                if !declared.contains(&resource) {
                    return Err(CoreError::WriteSetViolation {
                        rule: rule.name.clone(),
                        resource: resource.to_string(),
                    });
                }
            }

            // Record the execution (Section 7) alongside the action.
            let mut all_ops = ops;
            let mut events = Vec::new();
            if effectively_recording(&rule, self.engine.db()) {
                let mut row = firing.params(&rule);
                row.push(Value::Time(firing.time));
                all_ops.push(WriteOp::Insert {
                    relation: executed_relation_name(&rule.name),
                    tuple: tdb_relation::Tuple::new(row.clone()),
                });
                events.push(Event::rule_execute(&rule.name, &row));
            }
            if all_ops.is_empty() {
                continue;
            }
            // Action transactions are themselves gated; a constraint
            // violation cancels the action (and is recorded) but does not
            // poison the dispatch loop.
            match self.gated_update(all_ops, events) {
                Ok(_) => {}
                Err(CoreError::Engine(EngineError::Aborted { .. })) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Evaluates `rule`'s action-op terms at the current state under the
    /// firing bindings. A temporal aggregate reads its slot in the rule's
    /// evaluator: its value at the last state the rule processed.
    fn materialize_ops(&self, rule: &str, env: &Env) -> Result<Vec<WriteOp>> {
        let h = self.engine.history();
        let idx = h.last_index().ok_or(CoreError::StateNotRetained(0))?;
        let (ops, env) = (self.manager.action(rule, env))
            .ok_or_else(|| CoreError::NoSuchRule(rule.to_string()))?;
        let eval =
            |t: &tdb_ptl::Term| -> Result<Value> { Ok(tdb_ptl::eval_term(t, h, idx, &env)?) };
        let mut out = Vec::with_capacity(ops.len());
        for op in ops {
            match op {
                ActionOp::SetItem { item, value } => {
                    out.push(WriteOp::SetItem {
                        item: item.clone(),
                        value: eval(value)?,
                    });
                }
                ActionOp::Insert { relation, tuple } => {
                    let row: Vec<Value> = tuple.iter().map(&eval).collect::<Result<_>>()?;
                    out.push(WriteOp::Insert {
                        relation: relation.clone(),
                        tuple: tdb_relation::Tuple::new(row),
                    });
                }
                ActionOp::Delete { relation, tuple } => {
                    let row: Vec<Value> = tuple.iter().map(&eval).collect::<Result<_>>()?;
                    out.push(WriteOp::Delete {
                        relation: relation.clone(),
                        tuple: tdb_relation::Tuple::new(row),
                    });
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use crate::rules::Action;
    use tdb_ptl::parse_formula;
    use tdb_relation::{parse_query, tuple, CmpOp, Schema};

    fn adb() -> ActiveDatabase {
        ActiveDatabase::new(base_db())
    }

    fn base_db() -> Database {
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
        db.set_item("balance", Value::Int(100));
        db.define_query(
            "balance_q",
            QueryDef::new(0, parse_query("item balance").unwrap()),
        );
        db
    }

    fn set_price(adb: &mut ActiveDatabase, name: &str, p: i64) {
        let old = adb
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
        adb.advance_clock(1).unwrap();
        adb.update(ops).unwrap();
    }

    #[test]
    fn trigger_fires_and_logs() {
        let mut a = adb();
        a.add_rule(Rule::trigger(
            "doubled",
            parse_formula(
                "[t := time] [x := price(\"IBM\")] \
                 previously(price(\"IBM\") <= 0.5 * x and time >= t - 10)",
            )
            .unwrap(),
            Action::Notify,
        ))
        .unwrap();
        for p in [10, 15, 18, 25] {
            set_price(&mut a, "IBM", p);
        }
        let fired: Vec<_> = a.firings().iter().map(|f| f.rule.clone()).collect();
        assert_eq!(
            fired,
            vec!["doubled".to_string()],
            "fires exactly once, at 25"
        );
    }

    #[test]
    fn constraint_aborts_violating_transaction() {
        let mut a = adb();
        a.add_rule(Rule::constraint(
            "non_negative_balance",
            parse_formula("balance_q() >= 0").unwrap(),
        ))
        .unwrap();
        a.advance_clock(1).unwrap();
        // OK update.
        a.update([WriteOp::SetItem {
            item: "balance".into(),
            value: Value::Int(50),
        }])
        .unwrap();
        // Violating update is rolled back.
        a.advance_clock(1).unwrap();
        let err = a
            .update([WriteOp::SetItem {
                item: "balance".into(),
                value: Value::Int(-1),
            }])
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::Engine(EngineError::Aborted { .. })
        ));
        assert_eq!(a.db().item("balance").unwrap(), Value::Int(50));
        // The violation was logged.
        assert!(a.firings().iter().any(|f| f.rule == "non_negative_balance"));
        // And the system remains usable afterwards.
        a.advance_clock(1).unwrap();
        a.update([WriteOp::SetItem {
            item: "balance".into(),
            value: Value::Int(10),
        }])
        .unwrap();
        assert_eq!(a.db().item("balance").unwrap(), Value::Int(10));
    }

    #[test]
    fn temporal_constraint_sees_history() {
        // Constraint: the balance never drops by more than 50 in one step.
        let mut a = adb();
        a.add_rule(Rule::constraint(
            "no_crash",
            parse_formula("[x := balance_q()] not lasttime(balance_q() > x + 50)").unwrap(),
        ))
        .unwrap();
        a.advance_clock(1).unwrap();
        a.update([WriteOp::SetItem {
            item: "balance".into(),
            value: Value::Int(90),
        }])
        .unwrap();
        a.advance_clock(1).unwrap();
        // Drop of 80 violates.
        let err = a.update([WriteOp::SetItem {
            item: "balance".into(),
            value: Value::Int(10),
        }]);
        assert!(err.is_err());
        assert_eq!(a.db().item("balance").unwrap(), Value::Int(90));
        // Drop of 40 is fine.
        a.advance_clock(1).unwrap();
        a.update([WriteOp::SetItem {
            item: "balance".into(),
            value: Value::Int(50),
        }])
        .unwrap();
    }

    #[test]
    fn dbops_action_with_parameter_passing() {
        let mut a = adb();
        a.create_relation("ALERTS", Relation::empty(Schema::untyped(&["stock"])))
            .unwrap();
        a.add_rule(Rule::trigger(
            "overpriced",
            parse_formula("x in names() and price(x) >= 300").unwrap(),
            Action::DbOps(vec![ActionOp::Insert {
                relation: "ALERTS".into(),
                tuple: vec![tdb_ptl::Term::var("x")],
            }]),
        ))
        .unwrap();
        set_price(&mut a, "IBM", 350);
        set_price(&mut a, "DEC", 45);
        let alerts = a.db().relation("ALERTS").unwrap();
        assert!(alerts.contains(&tuple!["IBM"]));
        assert!(!alerts.contains(&tuple!["DEC"]));
    }

    #[test]
    fn executed_predicate_drives_follow_up_rule() {
        // r1: price >= 100 -> (recorded); r2: 10 units after r1 executed -> alert.
        let mut a = adb();
        a.set_item("alerted", Value::Int(0)).unwrap();
        a.add_rule(
            Rule::trigger(
                "r1",
                parse_formula("price(\"IBM\") >= 100").unwrap(),
                Action::Notify,
            )
            .recording_executed(),
        )
        .unwrap();
        a.add_rule(Rule::trigger(
            "r2",
            parse_formula("executed(r1, s) and time = s + 10").unwrap(),
            Action::DbOps(vec![ActionOp::SetItem {
                item: "alerted".into(),
                value: tdb_ptl::Term::lit(1i64),
            }]),
        ))
        .unwrap();
        set_price(&mut a, "IBM", 120); // r1 fires, recorded at its firing time
        let fire_time = a.firings()[0].time;
        // March the clock forward with ticks; r2 must fire exactly at +10.
        a.run_until(fire_time.plus(9), 1).unwrap();
        assert_eq!(a.db().item("alerted").unwrap(), Value::Int(0));
        a.run_until(fire_time.plus(10), 1).unwrap();
        assert_eq!(a.db().item("alerted").unwrap(), Value::Int(1));
    }

    #[test]
    fn aggregate_rule_end_to_end() {
        // Hourly-average style: avg of price(IBM) sampled at @sample events,
        // starting from time = 0 (i.e. from the beginning).
        let mut a = adb();
        a.add_rule(Rule::trigger(
            "avg_high",
            parse_formula("avg(price(\"IBM\"); time = 0; @sample) > 70").unwrap(),
            Action::Notify,
        ))
        .unwrap();
        set_price(&mut a, "IBM", 60);
        a.emit(Event::simple("sample")).unwrap(); // avg = 60
        set_price(&mut a, "IBM", 100);
        a.emit(Event::simple("sample")).unwrap(); // avg = 80 -> fires here
        let sampled = a.history().last_index().unwrap();
        a.tick().unwrap();
        let fired: Vec<usize> = a.firings().iter().map(|f| f.state_index).collect();
        assert_eq!(fired, [sampled]);
        // The slot holds the true average.
        let slot = &a.snapshot().unwrap().rules[0].evaluator.slots[0];
        assert_eq!(slot.as_ref().unwrap().current(), Value::float(80.0));
    }

    #[test]
    fn batching_delays_but_does_not_lose_firings() {
        let mut a = adb();
        a.add_rule(Rule::trigger(
            "watch",
            parse_formula("price(\"IBM\") >= 100").unwrap(),
            Action::Notify,
        ))
        .unwrap();
        a.set_batch(4).unwrap();
        set_price(&mut a, "IBM", 150);
        assert!(a.firings().is_empty(), "batched: not yet dispatched");
        a.flush().unwrap();
        assert_eq!(a.firings().len(), 1, "delayed but recognized");
    }

    #[test]
    fn action_blocked_by_constraint_is_cancelled() {
        let mut a = adb();
        a.add_rule(Rule::constraint(
            "cap",
            parse_formula("balance_q() <= 200").unwrap(),
        ))
        .unwrap();
        // Trigger whose action would push the balance over the cap.
        a.add_rule(Rule::trigger(
            "bonus",
            parse_formula("price(\"IBM\") > 0").unwrap(),
            Action::DbOps(vec![ActionOp::SetItem {
                item: "balance".into(),
                value: tdb_ptl::Term::lit(500i64),
            }]),
        ))
        .unwrap();
        set_price(&mut a, "IBM", 10);
        // The trigger fired, but its action was vetoed.
        assert!(a.firings().iter().any(|f| f.rule == "bonus"));
        assert!(a.firings().iter().any(|f| f.rule == "cap"));
        assert_eq!(a.db().item("balance").unwrap(), Value::Int(100));
    }

    /// The log holds inputs only: a trigger's firing and a constraint's
    /// veto add no record, and replaying the inputs re-derives both.
    #[test]
    fn a_durable_system_logs_only_its_inputs() {
        let sink = crate::storage::SharedMemorySink::new(0);
        let cfg = ManagerConfig::default();
        let mut a =
            ActiveDatabase::with_storage(base_db(), cfg.clone(), Box::new(sink.clone())).unwrap();
        a.add_rule(Rule::trigger(
            "watch",
            parse_formula("price(\"IBM\") >= 100").unwrap(),
            Action::Notify,
        ))
        .unwrap();
        a.add_rule(Rule::constraint(
            "cap",
            parse_formula("balance_q() <= 200").unwrap(),
        ))
        .unwrap();
        set_price(&mut a, "IBM", 150);
        a.advance_clock(1).unwrap();
        let over = WriteOp::SetItem {
            item: "balance".into(),
            value: Value::Int(500),
        };
        assert!(a.update([over.clone()]).is_err());
        let batch = [LogicalOp::Tick, LogicalOp::Update { ops: vec![over] }];
        assert!(!a.commit_batch(&batch).unwrap()[1].ok());
        let fired: Vec<&str> = a.firings().iter().map(|f| f.rule.as_str()).collect();
        assert_eq!(fired, ["watch", "cap", "cap"]);

        let (snap, ops) = sink.latest().unwrap();
        let kinds: Vec<&str> = ops.iter().map(LogicalOp::kind).collect();
        assert_eq!(
            kinds,
            [
                "RegisterRules",
                "RegisterRules",
                "AdvanceClock",
                "Update",
                "AdvanceClock",
                "Update",
                "Batch"
            ]
        );
        let recovered = ActiveDatabase::recover(snap, &ops, cfg).unwrap();
        assert_eq!(recovered.firings(), a.firings());
        assert_eq!(recovered.db(), a.db());
    }

    #[test]
    fn cmp_helper_available() {
        // Smoke test for CmpOp re-export path used in examples.
        let _ = CmpOp::Lt;
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod cascade_tests {
    use super::*;
    use crate::rules::{Action, ActionOp, Rule};
    use tdb_ptl::parse_formula;

    /// A level-triggered rule whose action keeps its own condition true
    /// cascades; the facade's limit stops it with a clear error instead of
    /// spinning forever.
    #[test]
    fn runaway_level_triggered_rule_hits_cascade_limit() {
        let mut db = Database::new();
        db.set_item("n", Value::Int(0));
        db.define_query(
            "n",
            tdb_relation::QueryDef::new(0, tdb_relation::Query::item("n")),
        );
        let mut adb = ActiveDatabase::new(db);
        adb.set_cascade_limit(25).unwrap();
        adb.add_rule(
            Rule::trigger(
                "runaway",
                parse_formula("n() >= 0").unwrap(),
                Action::DbOps(vec![ActionOp::SetItem {
                    item: "n".into(),
                    value: tdb_ptl::Term::add(
                        tdb_ptl::Term::query("n", vec![]),
                        tdb_ptl::Term::lit(1i64),
                    ),
                }]),
            )
            .level_triggered(),
        )
        .unwrap();
        adb.advance_clock(1).unwrap();
        let err = adb
            .update([WriteOp::SetItem {
                item: "n".into(),
                value: Value::Int(1),
            }])
            .unwrap_err();
        assert!(matches!(err, CoreError::CascadeLimit(25)), "{err}");
    }

    /// The same rule, edge-triggered, terminates immediately.
    #[test]
    fn edge_triggering_prevents_the_cascade() {
        let mut db = Database::new();
        db.set_item("n", Value::Int(0));
        db.define_query(
            "n",
            tdb_relation::QueryDef::new(0, tdb_relation::Query::item("n")),
        );
        let mut adb = ActiveDatabase::new(db);
        adb.add_rule(Rule::trigger(
            "tame",
            parse_formula("n() >= 0").unwrap(),
            Action::DbOps(vec![ActionOp::SetItem {
                item: "n".into(),
                value: tdb_ptl::Term::add(
                    tdb_ptl::Term::query("n", vec![]),
                    tdb_ptl::Term::lit(1i64),
                ),
            }]),
        ))
        .unwrap();
        adb.advance_clock(1).unwrap();
        adb.update([WriteOp::SetItem {
            item: "n".into(),
            value: Value::Int(1),
        }])
        .unwrap();
        // Fired once at the update, incremented once; its own action state
        // does not re-fire the still-true condition.
        assert_eq!(adb.db().item("n").unwrap(), Value::Int(2));
        assert_eq!(adb.firings().len(), 1);
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod durability_tests {
    use super::*;
    use crate::rules::Action;
    use crate::storage::SharedMemorySink;
    use tdb_ptl::parse_formula;
    use tdb_relation::{parse_query, tuple, Schema};

    fn base_db() -> Database {
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
        db.set_item("balance", Value::Int(100));
        db.define_query(
            "balance_q",
            QueryDef::new(0, parse_query("item balance").unwrap()),
        );
        db
    }

    fn catalog() -> Vec<Rule> {
        vec![
            Rule::trigger(
                "doubled",
                parse_formula(
                    "[t := time] [x := price(\"IBM\")] \
                     previously(price(\"IBM\") <= 0.5 * x and time >= t - 10)",
                )
                .unwrap(),
                Action::Notify,
            ),
            Rule::constraint("non_negative", parse_formula("balance_q() >= 0").unwrap()),
        ]
    }

    fn set_price(a: &mut ActiveDatabase, name: &str, p: i64) {
        let old = a
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
        a.advance_clock(1).unwrap();
        a.update(ops).unwrap();
    }

    /// Drives a workload through a WAL-attached system, then rebuilds from
    /// the latest in-memory checkpoint + log tail and checks the recovered
    /// system is indistinguishable (database, clock, firing log, and future
    /// behaviour).
    #[test]
    fn recover_from_memory_sink_reproduces_the_run() {
        let sink = SharedMemorySink::new(3);
        let mut live = ActiveDatabase::with_storage(
            base_db(),
            ManagerConfig::default(),
            Box::new(sink.clone()),
        )
        .unwrap();
        for r in catalog() {
            live.add_rule(r).unwrap();
        }
        for p in [10, 15, 18] {
            set_price(&mut live, "IBM", p);
        }
        // An open transaction spanning a would-be checkpoint boundary.
        let txn = live.begin().unwrap();
        live.write(
            txn,
            WriteOp::SetItem {
                item: "balance".into(),
                value: Value::Int(40),
            },
        )
        .unwrap();
        live.commit(txn).unwrap();
        // A constraint-vetoed update (its abort state replays too).
        live.advance_clock(1).unwrap();
        let err = live.update([WriteOp::SetItem {
            item: "balance".into(),
            value: Value::Int(-5),
        }]);
        assert!(err.is_err());
        set_price(&mut live, "IBM", 25); // fires "doubled"
        assert!(live.firings().iter().any(|f| f.rule == "doubled"));

        let (snap, tail) = sink.latest().expect("at least one checkpoint was taken");
        assert!(
            !tail.is_empty(),
            "workload continued past the last checkpoint"
        );
        let mut recovered = ActiveDatabase::recover(snap, &tail, ManagerConfig::default()).unwrap();

        assert_eq!(recovered.db(), live.db());
        assert_eq!(recovered.now(), live.now());
        assert_eq!(recovered.firings(), live.firings());
        assert_eq!(recovered.history().len(), live.history().len());
        assert_eq!(recovered.retained_size(), live.retained_size());

        // The recovered system keeps behaving identically.
        set_price(&mut live, "IBM", 7);
        set_price(&mut recovered, "IBM", 7);
        set_price(&mut live, "IBM", 20);
        set_price(&mut recovered, "IBM", 20);
        assert_eq!(recovered.db(), live.db());
        assert_eq!(recovered.firings(), live.firings());
    }

    /// A checkpoint while a transaction is open must be refused (typed
    /// error), and the facade defers it to the next quiescent op.
    #[test]
    fn checkpoint_waits_for_quiescence() {
        let sink = SharedMemorySink::new(1); // wants a checkpoint after every op
        let mut a = ActiveDatabase::with_storage(
            base_db(),
            ManagerConfig::default(),
            Box::new(sink.clone()),
        )
        .unwrap();
        let before = sink.inner().checkpoints.len();
        let txn = a.begin().unwrap();
        a.write(
            txn,
            WriteOp::SetItem {
                item: "balance".into(),
                value: Value::Int(1),
            },
        )
        .unwrap();
        assert!(matches!(a.snapshot(), Err(CoreError::Storage(_))));
        let during = sink.inner().checkpoints.len();
        assert_eq!(
            during, before,
            "no checkpoint while the transaction is open"
        );
        a.commit(txn).unwrap();
        assert!(
            sink.inner().checkpoints.len() > during,
            "deferred checkpoint lands"
        );
    }

    /// A stratified catalog: a pure writer (`alarm` sets an item from a
    /// constant) feeding a pure reader (`page` watches that item).
    fn cascade_fixture() -> ActiveDatabase {
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
        db.set_item("ALARM", Value::Int(0));
        db.define_query(
            "alarm_q",
            QueryDef::new(0, parse_query("item ALARM").unwrap()),
        );
        let mut a = ActiveDatabase::new(db);
        a.add_rule(Rule::trigger(
            "alarm",
            parse_formula("price(\"IBM\") >= 100").unwrap(),
            Action::DbOps(vec![ActionOp::SetItem {
                item: "ALARM".into(),
                value: tdb_ptl::Term::lit(1i64),
            }]),
        ))
        .unwrap();
        a.add_rule(Rule::trigger(
            "page",
            parse_formula("alarm_q() > 0").unwrap(),
            Action::Notify,
        ))
        .unwrap();
        a
    }

    /// Price swings with a clock advance *after* the firing op, so a
    /// delayed action write lands at a later timestamp than a per-op one.
    fn cascade_ops() -> Vec<LogicalOp> {
        let ins = |p: i64| WriteOp::Insert {
            relation: "STOCK".into(),
            tuple: tuple!["IBM", p],
        };
        let del = |p: i64| WriteOp::Delete {
            relation: "STOCK".into(),
            tuple: tuple!["IBM", p],
        };
        vec![
            LogicalOp::Update { ops: vec![ins(50)] },
            LogicalOp::AdvanceClock { delta: 1 },
            LogicalOp::Update {
                ops: vec![del(50), ins(120)],
            },
            LogicalOp::AdvanceClock { delta: 1 },
            LogicalOp::Update {
                ops: vec![del(120), ins(80)],
            },
        ]
    }

    /// Schedule-independent firing identity: state indexes shift between
    /// schedules, but (rule, time, bindings) must not.
    fn firing_sig(a: &ActiveDatabase) -> Vec<(String, i64, Env)> {
        a.firings()
            .iter()
            .map(|f| (f.rule.clone(), f.time.0, f.env.clone()))
            .collect()
    }

    #[test]
    fn eager_cascade_batch_matches_per_op_schedule() {
        // Per-op oracle.
        let mut oracle = cascade_fixture();
        for op in cascade_ops() {
            match op {
                LogicalOp::Update { ops } => {
                    oracle.update(ops).unwrap();
                }
                LogicalOp::AdvanceClock { delta } => {
                    oracle.advance_clock(delta).unwrap();
                }
                _ => unreachable!(),
            }
        }

        // One batch.
        let mut eager = cascade_fixture();
        assert_eq!(
            eager.batch_certificate(),
            BatchCertificate::Stratified { strata: 2 }
        );
        let outcomes = eager.commit_batch(&cascade_ops()).unwrap();
        assert!(outcomes.iter().all(|o| o.ok()));

        assert_eq!(firing_sig(&eager), firing_sig(&oracle));
        assert_eq!(
            eager.db().item("ALARM").unwrap(),
            oracle.db().item("ALARM").unwrap()
        );
        // The oracle fired `alarm` at the 120-price state (t=2) and `page`
        // at the auto-bumped write state right after it (t=3) — before the
        // batch's second clock advance.
        assert_eq!(
            firing_sig(&oracle)
                .iter()
                .map(|(r, t, _)| (r.as_str(), *t))
                .collect::<Vec<_>>(),
            vec![("alarm", 2), ("page", 3)]
        );
    }

    /// Section 8's delayed schedule is a batch member away: `SetBatch`
    /// holds dispatch back over the whole batch, so the cascaded write
    /// lands after it, at the batch-end clock, and `Flush` dispatches.
    #[test]
    fn set_batch_members_reproduce_the_delayed_schedule() {
        let mut delayed = cascade_fixture();
        let mut ops = vec![LogicalOp::SetBatch { n: 1 << 20 }];
        ops.extend(cascade_ops());
        ops.extend([LogicalOp::Flush, LogicalOp::SetBatch { n: 1 }]);
        let outcomes = delayed.commit_batch(&ops).unwrap();
        assert!(outcomes.iter().all(|o| o.ok()));
        let fired: Vec<(&str, i64, usize)> = delayed
            .firings()
            .iter()
            .map(|f| (f.rule.as_str(), f.time.0, f.state_index))
            .collect();
        assert_eq!(fired, vec![("alarm", 2, 2), ("page", 4, 4)]);
        assert_eq!(delayed.history().len(), 5);
    }

    /// An exact catalog (no writers) stays on the fused fast path: no
    /// drains are inserted, and the fused dispatch already matches.
    #[test]
    fn exact_catalog_stays_fused() {
        let mut a = cascade_fixture();
        // Replace the catalog read: build a fresh fixture without a writer.
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
        let mut b = ActiveDatabase::new(db);
        b.add_rule(Rule::trigger(
            "watch",
            parse_formula("price(\"IBM\") >= 100").unwrap(),
            Action::Notify,
        ))
        .unwrap();
        assert_eq!(b.batch_certificate(), BatchCertificate::Exact);
        assert!(!b.manager.writer_fences().any);
        let outcomes = b.commit_batch(&cascade_ops()).unwrap();
        assert!(outcomes.iter().all(|o| o.ok()));
        assert_eq!(
            firing_sig(&b)
                .iter()
                .map(|(r, t, _)| (r.as_str(), *t))
                .collect::<Vec<_>>(),
            vec![("watch", 2)]
        );
        // The stratified fixture still works when driven per-op.
        a.update(vec![WriteOp::Insert {
            relation: "STOCK".into(),
            tuple: tuple!["IBM", 150],
        }])
        .unwrap();
        assert_eq!(a.firings().len(), 2, "alarm + page per-op");
    }

    /// A checkpoint that decodes (CRC-valid) but whose states go backwards
    /// in time restores as a typed error, never a panic.
    #[test]
    fn malformed_snapshot_restores_as_a_typed_error() {
        let mut snap = ActiveDatabase::new(base_db()).snapshot().unwrap();
        let at = |t: i64| SystemState::new(base_db(), EventSet::new(), Timestamp(t));
        snap.states = vec![at(5), at(3)];
        let err = ActiveDatabase::restore(snap, ManagerConfig::default()).unwrap_err();
        assert!(
            matches!(err, CoreError::Engine(EngineError::MalformedHistory(_))),
            "{err}"
        );
    }

    /// Releasing keeps exactly the suffix a snapshot carries: the pending
    /// states under batching, the last state once everything dispatched.
    #[test]
    fn release_keeps_the_snapshot_suffix() {
        let mut a = ActiveDatabase::new(base_db());
        a.set_batch(3).unwrap();
        for _ in 0..5 {
            a.tick().unwrap();
        }
        a.release_dispatched();
        let h = a.history();
        assert_eq!((h.len(), h.retained()), (6, 2), "two ticks pending");
        let snap = a.snapshot().unwrap();
        assert_eq!((snap.history_offset, snap.states.len()), (4, 2));
        a.flush().unwrap();
        a.release_dispatched();
        assert_eq!((a.history().len(), a.history().retained()), (6, 1));
        assert_eq!(a.snapshot().unwrap().history_offset, 5);
    }

    /// Item `W = 0` (and `V = 200`) with `w_q` reading `W`.
    fn w_db() -> Database {
        let mut db = Database::new();
        db.set_item("W", Value::Int(0));
        db.set_item("V", Value::Int(200));
        db.define_query("w_q", QueryDef::new(0, parse_query("item W").unwrap()));
        db
    }

    /// A stateless rule: after one evaluation it idles at its sparse
    /// fixpoint until a state's delta names `W`.
    fn hi() -> Rule {
        Rule::trigger("hi", parse_formula("w_q() > 100").unwrap(), Action::Notify)
    }

    fn fired(a: &ActiveDatabase) -> Vec<(&str, usize)> {
        a.firings()
            .iter()
            .map(|f| (f.rule.as_str(), f.state_index))
            .collect()
    }

    /// An item written outside any state reaches the next state's delta,
    /// so it wakes a rule idling at its sparse fixpoint.
    #[test]
    fn out_of_state_write_wakes_an_idle_rule() {
        let mut a = ActiveDatabase::new(w_db());
        a.add_rule(hi()).unwrap();
        for _ in 0..4 {
            a.tick().unwrap();
        }
        a.set_item("W", Value::Int(150)).unwrap();
        for _ in 0..3 {
            a.tick().unwrap();
        }
        assert_eq!(fired(&a), [("hi", 5)]);
    }

    /// The same inside one group commit, where all seven ticks dispatch
    /// as one slice.
    #[test]
    fn out_of_state_write_inside_a_batch_wakes_an_idle_rule() {
        let mut a = ActiveDatabase::new(w_db());
        a.add_rule(hi()).unwrap();
        let mut ops = vec![LogicalOp::Tick; 4];
        ops.push(LogicalOp::SetItem {
            name: "W".into(),
            value: Value::Int(150),
        });
        ops.extend([LogicalOp::Tick, LogicalOp::Tick, LogicalOp::Tick]);
        let outcomes = a.commit_batch(&ops).unwrap();
        assert!(outcomes.iter().all(BatchOpOutcome::ok));
        assert_eq!(fired(&a), [("hi", 5)]);
    }

    /// The same across a checkpoint taken between the write and the next
    /// state: the restored rule is ready to go sparse at once, and the
    /// checkpoint records no delta, so the next state must still name `W`.
    #[test]
    fn out_of_state_write_survives_a_checkpoint_cut() {
        let sink = SharedMemorySink::new(1_000);
        let mut live =
            ActiveDatabase::with_storage(w_db(), ManagerConfig::default(), Box::new(sink.clone()))
                .unwrap();
        live.add_rule(hi()).unwrap();
        for _ in 0..4 {
            live.tick().unwrap();
        }
        live.set_item("W", Value::Int(150)).unwrap();
        live.checkpoint_now().unwrap();
        drop(live);
        let (snap, tail) = sink.latest().unwrap();
        assert!(tail.is_empty(), "the write is in the checkpoint");
        let mut a = ActiveDatabase::recover(snap, &tail, ManagerConfig::default()).unwrap();
        for _ in 0..3 {
            a.tick().unwrap();
        }
        assert_eq!(fired(&a), [("hi", 5)]);
    }

    /// A query a registered rule reads cannot be redefined under it; one no
    /// rule reads can. Inside a batch the refusal is the op's outcome, and
    /// recovery replays past it.
    #[test]
    fn redefining_a_query_a_rule_reads_is_a_typed_error() {
        let sink = SharedMemorySink::new(1_000);
        let mut a =
            ActiveDatabase::with_storage(w_db(), ManagerConfig::default(), Box::new(sink.clone()))
                .unwrap();
        a.add_rule(hi()).unwrap();
        let v = QueryDef::new(0, parse_query("item V").unwrap());
        let err = a.define_query("w_q", v.clone()).unwrap_err();
        assert!(
            matches!(&err, CoreError::QueryInUse { query, rule } if query == "w_q" && rule == "hi"),
            "{err}"
        );
        a.define_query("v_q", v.clone()).unwrap();
        let redefine = LogicalOp::DefineQuery {
            name: "w_q".into(),
            def: v,
        };
        let outcomes = a.commit_batch(&[redefine, LogicalOp::Tick]).unwrap();
        assert!(!outcomes[0].ok() && outcomes[1].ok());
        let (snap, tail) = sink.latest().unwrap();
        let recovered = ActiveDatabase::recover(snap, &tail, ManagerConfig::default()).unwrap();
        assert_eq!(recovered.db(), a.db());
        assert_eq!(recovered.history().len(), a.history().len());
    }

    /// Item `y = 0` read by `y_q`, and `now_q` reading the `time` item. `w`
    /// sets `y` once the clock passes 3, `seen` watches `y` and `late` waits
    /// for the clock to pass 6; `clock` spells their clock read either as the
    /// `time` term or through `now_q`.
    fn clock_catalog(clock: &str, relevance_filtering: bool) -> ActiveDatabase {
        let mut db = Database::new();
        db.set_item("y", Value::Int(0));
        db.define_query("y_q", QueryDef::new(0, parse_query("item y").unwrap()));
        db.define_query("now_q", QueryDef::new(0, parse_query("item time").unwrap()));
        let cfg = ManagerConfig {
            relevance_filtering,
            ..ManagerConfig::default()
        };
        let mut a = ActiveDatabase::with_config(db, cfg);
        let set_y = Action::DbOps(vec![ActionOp::SetItem {
            item: "y".into(),
            value: tdb_ptl::Term::lit(1i64),
        }]);
        let clock_rule = |name: &str, bound: i64, action: Action| {
            let f = parse_formula(&format!("{clock} > {bound}")).unwrap();
            Rule::trigger(name, f, action)
        };
        a.add_rule(clock_rule("w", 3, set_y)).unwrap();
        let seen = parse_formula("y_q() = 1").unwrap();
        a.add_rule(Rule::trigger("seen", seen, Action::Notify))
            .unwrap();
        a.add_rule(clock_rule("late", 6, Action::Notify)).unwrap();
        a
    }

    fn clock_firings(a: &ActiveDatabase) -> Vec<(String, usize, i64)> {
        (a.firings().iter())
            .map(|f| (f.rule.clone(), f.state_index, f.time.0))
            .collect()
    }

    /// Reading the `time` item through a query is reading the clock: that
    /// spelling gets the certificate, the fences and the §8 relevance of the
    /// `time` term, so a batch of ticks fires what ticks one at a time fire,
    /// and relevance filtering considers the rules at clock ticks.
    #[test]
    fn clock_read_through_a_query_is_a_clock_read() {
        let ticked = |clock: &str, relevance: bool| {
            let mut a = clock_catalog(clock, relevance);
            for _ in 0..8 {
                a.tick().unwrap();
            }
            clock_firings(&a)
        };
        let per_op = ticked("now_q()", false);
        let at = |rule: &str, i: usize| (rule.to_string(), i, i as i64);
        assert_eq!(per_op, [at("w", 4), at("seen", 5), at("late", 7)]);
        assert_eq!(ticked("time", false), per_op);

        let mut batched = clock_catalog("now_q()", false);
        let term = clock_catalog("time", false);
        assert_eq!(batched.batch_certificate(), term.batch_certificate());
        let clock_fenced =
            |a: &ActiveDatabase| (a.manager.writer_fences().reads).contains(&Resource::Clock);
        assert!(clock_fenced(&batched) && clock_fenced(&term));
        let outcomes = batched.commit_batch(&vec![LogicalOp::Tick; 8]).unwrap();
        assert!(outcomes.iter().all(BatchOpOutcome::ok));
        assert_eq!(clock_firings(&batched), per_op);

        let filtered = ticked("time", true);
        assert!(!filtered.is_empty());
        assert_eq!(ticked("now_q()", true), filtered);
    }

    /// A snapshot carries its rules' definitions, so recovery needs no
    /// catalog.
    #[test]
    fn recovery_needs_no_catalog() {
        let sink = SharedMemorySink::new(1);
        let mut a = ActiveDatabase::with_storage(
            base_db(),
            ManagerConfig::default(),
            Box::new(sink.clone()),
        )
        .unwrap();
        for r in catalog() {
            a.add_rule(r).unwrap();
        }
        set_price(&mut a, "IBM", 10);
        let (snap, tail) = sink.latest().unwrap();
        let recovered = ActiveDatabase::recover(snap, &tail, ManagerConfig::default());
        assert_eq!(recovered.unwrap().firings(), a.firings());
    }
}

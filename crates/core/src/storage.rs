//! Durability hooks: the logical operation log and the Theorem-1 snapshot.
//!
//! The paper's Theorem 1 (Section 5) says the per-rule formula states
//! `F_{g,i}` are a *sufficient statistic* of the whole system history: the
//! evaluator never looks back. That turns crash recovery into a bounded
//! problem — a checkpoint needs only the current database, the clock, each
//! rule's formula states, and a handful of counters, never the history
//! itself. This module defines:
//!
//! * [`LogicalOp`] — one entry of the write-ahead log. The facade appends an
//!   entry *before* applying each externally driven operation (updates,
//!   events, ticks, transaction control, schema changes), so replaying the
//!   log suffix through the normal dispatch path reproduces the exact
//!   post-crash sequence of system states and rule firings. Everything the
//!   rules themselves do (action transactions, cascades) is deterministic
//!   given those inputs and is deliberately *not* logged, firings
//!   included: they are derived data, re-derived by replay and carried by
//!   the checkpoint's firing log. One kind is a log record rather than an
//!   input — `RegisterRules`, one per registration, carrying every rule's
//!   definition — and only the system writes it.
//! * [`WalSink`] — what the facade needs from a storage backend: append an
//!   op, say when a checkpoint is due, and write one.
//! * [`SystemSnapshot`] — the checkpoint payload implied by Theorem 1.
//!
//! The file formats, checksums and torn-tail handling live in the
//! `tdb-storage` crate; this module is deliberately I/O-free so the core
//! stays testable with in-memory sinks.

use std::sync::Arc;

use tdb_engine::{EventSet, SystemState, TxnId, WriteOp};
use tdb_relation::{Database, QueryDef, Relation, Timestamp, Value};

use crate::error::Result;
use crate::manager::{ManagerStats, RuleState};
use crate::rules::{FiringRecord, Rule};

/// One logged occurrence, mirroring the externally driven `ActiveDatabase`
/// API. Replaying these through the facade reproduces the run bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalOp {
    /// `create_relation` (schema setup).
    CreateRelation { name: String, relation: Relation },
    /// `define_query` (schema setup).
    DefineQuery { name: String, def: QueryDef },
    /// `set_item` (schema setup / direct item pokes).
    SetItem { name: String, value: Value },
    /// A rule registered by name alone, as logs written before
    /// [`LogicalOp::RegisterRules`] record one. Nothing writes it any more:
    /// storage rewrites it as the registration it names as it reads the
    /// log, and the op interpreter refuses it.
    AddRule { name: String },
    /// `register_rules` / `add_rule`: one whole registration, every rule's
    /// definition included. A log record only the system writes, once all
    /// of the rules have been prepared, so replay installs all of them or,
    /// when the record is torn, none. A live caller handing it to the op
    /// interpreter is refused.
    RegisterRules { rules: Vec<Rule> },
    /// `set_batch`.
    SetBatch { n: usize },
    /// `set_cascade_limit`.
    SetCascadeLimit { n: usize },
    /// `advance_clock` (relative).
    AdvanceClock { delta: i64 },
    /// `advance_clock_to` (absolute; `run_until` steps log as these).
    AdvanceClockTo { t: Timestamp },
    /// `tick` — a clock-tick system state.
    Tick,
    /// `emit` / `emit_all` — user events (one system state).
    Emit { events: EventSet },
    /// `update` — a gated one-shot transaction.
    Update { ops: Vec<WriteOp> },
    /// `begin`. Transaction ids are allocated deterministically, so the
    /// replayed `begin` yields the id later entries refer to.
    Begin,
    /// `write` — one buffered write inside an open transaction.
    Write { txn: TxnId, op: WriteOp },
    /// `commit` (gated; may deterministically re-abort on replay).
    Commit { txn: TxnId },
    /// `abort`.
    Abort { txn: TxnId },
    /// `flush` — force dispatch of a partial batch.
    Flush,
    /// A rule firing, recorded after the op that produced it by logs
    /// written before the log held inputs only. Nothing writes it any
    /// more: it still decodes, replay skips it (firings are re-derived),
    /// and the op interpreter refuses it.
    Firing { record: FiringRecord },
    /// A group-committed batch: N externally driven ops logged as *one*
    /// record and acknowledged behind a single fsync. The whole batch is
    /// atomic in the log — a crash mid-write tears the one record, which
    /// the lossy tail read drops entirely, so recovery lands on a batch
    /// boundary and never replays half a batch. Replay applies the ops in
    /// order through `commit_batch` semantics (dispatch is delayed to the
    /// batch end, which §8 permits: firings may be delayed, never lost).
    Batch { ops: Vec<LogicalOp> },
    /// Valid-time stream ingest (§9): the ops take effect at the explicit
    /// `valid` timestamp — which may lag the clock by up to the tenant's
    /// maximum delay Δ — and commit instantly. Only valid-time tenants
    /// apply these; a transaction-time database refuses one before logging
    /// it.
    CommitAt { valid: Timestamp, ops: Vec<WriteOp> },
}

impl LogicalOp {
    /// How many replayable inputs this entry carries (a batch counts each
    /// member; an older log's `Firing` record counts zero). Checkpoint
    /// cadences use this so a batched run checkpoints on the same op
    /// budget as a per-op run.
    pub fn input_ops(&self) -> usize {
        match self {
            LogicalOp::Firing { .. } => 0,
            LogicalOp::Batch { ops } => ops.iter().map(LogicalOp::input_ops).sum(),
            _ => 1,
        }
    }

    /// The variant's name, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            LogicalOp::CreateRelation { .. } => "CreateRelation",
            LogicalOp::DefineQuery { .. } => "DefineQuery",
            LogicalOp::SetItem { .. } => "SetItem",
            LogicalOp::AddRule { .. } => "AddRule",
            LogicalOp::RegisterRules { .. } => "RegisterRules",
            LogicalOp::SetBatch { .. } => "SetBatch",
            LogicalOp::SetCascadeLimit { .. } => "SetCascadeLimit",
            LogicalOp::AdvanceClock { .. } => "AdvanceClock",
            LogicalOp::AdvanceClockTo { .. } => "AdvanceClockTo",
            LogicalOp::Tick => "Tick",
            LogicalOp::Emit { .. } => "Emit",
            LogicalOp::Update { .. } => "Update",
            LogicalOp::Begin => "Begin",
            LogicalOp::Write { .. } => "Write",
            LogicalOp::Commit { .. } => "Commit",
            LogicalOp::Abort { .. } => "Abort",
            LogicalOp::Flush => "Flush",
            LogicalOp::Firing { .. } => "Firing",
            LogicalOp::Batch { .. } => "Batch",
            LogicalOp::CommitAt { .. } => "CommitAt",
        }
    }
}

/// When the durable log forces data to disk. Threaded from the facade's
/// storage configuration down to the WAL writer, so callers pick their
/// durability point explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// `sync_data` at every commit boundary: once per appended op, and once
    /// per appended *batch* — the whole group rides a single fsync, which
    /// is the point of group commit. Checkpoint installation also syncs.
    /// Acked writes survive power loss.
    Always,
    /// No implicit fsync on the append or checkpoint paths; the OS decides
    /// when pages reach disk. Crash durability is only as strong as the
    /// page cache, but throughput-bound ingest (and tests) avoid the
    /// per-commit fsync entirely.
    #[default]
    Never,
}

impl SyncPolicy {
    /// Whether appends (and checkpoint installs) must fsync.
    pub fn sync_on_append(self) -> bool {
        matches!(self, SyncPolicy::Always)
    }
}

/// The checkpoint payload: everything Theorem 1 says a restart needs, and
/// nothing sized by the history. `states` carries only the retained suffix
/// still awaiting dispatch (one state when quiescent; up to `batch` states
/// when batching delays dispatch).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSnapshot {
    /// The current committed database.
    pub db: Database,
    /// The logical clock.
    pub now: Timestamp,
    /// Global index of `states[0]`.
    pub history_offset: usize,
    /// The retained history suffix (never empty).
    pub states: Vec<SystemState>,
    /// Next transaction id to allocate.
    pub next_txn: u64,
    /// Engine auto-tick flag.
    pub auto_tick: bool,
    /// The registered rules, in registration order. Restore re-registers
    /// exactly these.
    pub registered: Vec<Arc<Rule>>,
    /// Per-rule formula states, aggregate slots included, in registration
    /// order.
    pub rules: Vec<RuleState>,
    /// Manager counters.
    pub stats: ManagerStats,
    /// Undrained firing log.
    pub firing_log: Vec<FiringRecord>,
    /// First history index not yet dispatched.
    pub next_dispatch: usize,
    /// Pending states whose constraint evaluators already advanced.
    pub gated: Vec<usize>,
    /// Dispatch batch size.
    pub batch: usize,
    /// Cascade limit.
    pub cascade_limit: usize,
}

impl SystemSnapshot {
    /// Total number of states in the logical history this snapshot stands
    /// for (the recovered history resumes at this length).
    pub fn history_len(&self) -> usize {
        self.history_offset + self.states.len()
    }
}

/// A durability backend as seen from the facade: an append-only op log plus
/// a checkpoint writer. Implementations decide the trigger policy
/// ([`WalSink::wants_checkpoint`]) — e.g. every N appended ops or M bytes.
///
/// Sinks must be [`Send`]: a multi-tenant server pins each tenant's
/// [`crate::ActiveDatabase`] (sink included) to a shard worker thread, and
/// tenants may be handed between threads at creation time.
pub trait WalSink: std::fmt::Debug + Send {
    /// Appends one op. Called *before* the op is applied (write-ahead).
    fn append(&mut self, op: &LogicalOp) -> Result<()>;

    /// Appends a whole batch as one atomic log entry, ahead of applying any
    /// of its ops. The default wraps the ops in [`LogicalOp::Batch`]; file
    /// sinks override this to encode the group in place and pay one
    /// buffered write + one fsync for all of it.
    fn append_batch(&mut self, ops: &[LogicalOp]) -> Result<()> {
        self.append(&LogicalOp::Batch { ops: ops.to_vec() })
    }

    /// Whether enough log has accumulated that the facade should checkpoint
    /// at its next quiescent point (no open transactions, dispatch drained).
    fn wants_checkpoint(&self) -> bool {
        false
    }

    /// Writes a checkpoint and starts a fresh log segment for subsequent
    /// appends.
    fn checkpoint(&mut self, snap: &SystemSnapshot) -> Result<()>;
}

/// An in-memory sink for tests: keeps every op and snapshot, checkpoints on
/// a fixed op cadence.
#[derive(Debug, Default)]
pub struct MemorySink {
    /// Appended ops since the last checkpoint.
    pub tail: Vec<LogicalOp>,
    /// Snapshots taken, each paired with the ops logged before it since the
    /// previous checkpoint.
    pub checkpoints: Vec<(SystemSnapshot, Vec<LogicalOp>)>,
    /// Checkpoint every this many input ops (0 = never).
    pub every_ops: usize,
}

impl MemorySink {
    pub fn new(every_ops: usize) -> MemorySink {
        MemorySink {
            tail: Vec::new(),
            checkpoints: Vec::new(),
            every_ops,
        }
    }

    /// The latest snapshot and the ops appended after it.
    pub fn latest(&self) -> Option<(&SystemSnapshot, &[LogicalOp])> {
        self.checkpoints
            .last()
            .map(|(s, _)| (s, self.tail.as_slice()))
    }
}

impl WalSink for MemorySink {
    fn append(&mut self, op: &LogicalOp) -> Result<()> {
        self.tail.push(op.clone());
        Ok(())
    }

    fn wants_checkpoint(&self) -> bool {
        self.every_ops > 0
            && self.tail.iter().map(LogicalOp::input_ops).sum::<usize>() >= self.every_ops
    }

    fn checkpoint(&mut self, snap: &SystemSnapshot) -> Result<()> {
        let since = std::mem::take(&mut self.tail);
        self.checkpoints.push((snap.clone(), since));
        Ok(())
    }
}

/// A cloneable handle over a [`MemorySink`], for tests that need to keep
/// inspecting the log after handing the sink (boxed) to the facade.
#[derive(Debug, Clone, Default)]
pub struct SharedMemorySink(std::sync::Arc<std::sync::Mutex<MemorySink>>);

impl SharedMemorySink {
    pub fn new(every_ops: usize) -> SharedMemorySink {
        SharedMemorySink(std::sync::Arc::new(std::sync::Mutex::new(MemorySink::new(
            every_ops,
        ))))
    }

    /// Locks the underlying sink (never contended from test code running
    /// between facade calls). A panic under the lock leaves the sink as it
    /// was after its last completed push, so the guard is recovered, as
    /// `context::locked` does.
    pub fn inner(&self) -> std::sync::MutexGuard<'_, MemorySink> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The latest snapshot plus the ops appended after it, cloned out.
    pub fn latest(&self) -> Option<(SystemSnapshot, Vec<LogicalOp>)> {
        let inner = self.inner();
        inner.latest().map(|(s, ops)| (s.clone(), ops.to_vec()))
    }
}

impl WalSink for SharedMemorySink {
    fn append(&mut self, op: &LogicalOp) -> Result<()> {
        self.inner().append(op)
    }

    fn wants_checkpoint(&self) -> bool {
        self.inner().wants_checkpoint()
    }

    fn checkpoint(&mut self, snap: &SystemSnapshot) -> Result<()> {
        self.inner().checkpoint(snap)
    }
}

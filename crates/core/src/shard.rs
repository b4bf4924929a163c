//! [`Shard`] — one tenant's active database as a self-contained unit of
//! ownership.
//!
//! The multi-tenant server hosts many independent active databases, each
//! pinned to a worker thread. What a worker needs per tenant is the
//! [`ActiveDatabase`] itself (config, storage sink and dispatch state
//! included) and a cursor over the firing log so every new firing is
//! reported (streamed to subscribers) exactly once. [`Shard`] bundles the
//! two and exposes one uniform entry point, [`Shard::apply`], that hands a
//! [`LogicalOp`] to the facade's one op interpreter — the same vocabulary
//! the WAL records, so a network `Commit` batch, a recovery replay, and a
//! library call all drive identical code paths. A shard holds no rule
//! catalog: a registration is a log record carrying its definitions,
//! written by [`ActiveDatabase::register_rules`] (and [`Shard::add_rule`],
//! its one-rule case) and refused from callers, so a live caller registers
//! rules through those and replay installs what the record carries.
//!
//! Shards share nothing mutable with each other: each owns its
//! [`EvalContext`](crate::EvalContext) — residual interning arena, atom
//! memo, compiled-program cache — through its rule manager, and the only
//! cross-shard state is the optional global metrics registry (see
//! `DESIGN.md` §12).
//!
//! A shard holds what its checkpoint holds: every entry point ends by
//! releasing the dispatched history states
//! ([`ActiveDatabase::release_dispatched`]), so a tenant keeps one state
//! plus whatever still awaits dispatch, not its whole lifetime (`DESIGN.md`
//! §5).
//!
//! [`VtShard`] is the same unit for a valid-time tenant: a streaming
//! [`VtActiveDatabase`] plus the stream events its ops produced, buffered
//! for the subscriber push. Either facade logs its own inputs, and both
//! shards absorb an op's deterministic failure into its [`ApplyOutcome`].

use tdb_analysis::BatchCertificate;
use tdb_relation::{Database, Timestamp};

use crate::error::Result;
use crate::facade::ActiveDatabase;
use crate::manager::ManagerConfig;
use crate::rules::{FiringRecord, Rule};
use crate::storage::{LogicalOp, WalSink};
use crate::vtfacade::{VtActiveDatabase, VtFiringEvent, VtPhase};

/// What applying one logical op produced. Op-level failures (constraint
/// vetoes, cascade limits) are part of normal operation — the shard stays
/// usable — so they are data here, not `Err`.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplyOutcome {
    /// `Err(message)` when the op itself was rejected (e.g. an update
    /// vetoed by an integrity constraint).
    pub result: std::result::Result<(), String>,
    /// Firings appended to the log by this op (actions cascaded included),
    /// in dispatch order.
    pub firings: Vec<FiringRecord>,
}

impl ApplyOutcome {
    pub fn ok(&self) -> bool {
        self.result.is_ok()
    }
}

/// An op's result as its outcome's: a deterministic op-level failure
/// leaves the shard usable and becomes data; any other error propagates.
fn absorbed<T>(applied: Result<T>) -> Result<std::result::Result<T, String>> {
    match applied {
        Ok(v) => Ok(Ok(v)),
        Err(e) if e.is_deterministic() => Ok(Err(e.to_string())),
        Err(e) => Err(e),
    }
}

/// Point-in-time shard statistics (per-tenant gauges).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Length of the logical history (system states appended so far).
    pub states: usize,
    /// System states held in memory: the retained history on a plain
    /// tenant, the live window on a valid-time one.
    pub live_states: usize,
    /// User-registered rules.
    pub rules: usize,
    /// Firings recorded since the shard was opened.
    pub firings: usize,
    /// Retained formula-state size across all rules.
    pub retained: usize,
    /// The shard's logical clock.
    pub now: Timestamp,
    /// Batch-safety certificate for the registered rule set (what group
    /// commits may fuse without diverging from the per-op schedule).
    pub batch_safety: BatchCertificate,
}

/// One tenant: an active database plus a firing cursor. See the module
/// docs.
#[derive(Debug)]
pub struct Shard {
    adb: ActiveDatabase,
    /// Firings at indices `< reported` have been handed out by
    /// [`Shard::apply`] outcomes already. The facade's firing log is never
    /// drained, so it doubles as the stable catch-up history
    /// ([`Shard::firings_from`]); a recovered shard resumes with the log
    /// the checkpoint + WAL replay rebuilt.
    reported: usize,
}

impl Shard {
    /// Wraps an existing system; firings already in the log count as
    /// reported.
    pub fn new(mut adb: ActiveDatabase) -> Shard {
        adb.release_dispatched();
        let reported = adb.firings().len();
        Shard { adb, reported }
    }

    /// A fresh volatile shard over `db`.
    pub fn volatile(db: Database, cfg: ManagerConfig) -> Shard {
        Shard::new(ActiveDatabase::with_config(db, cfg))
    }

    /// A fresh durable shard: every op is write-ahead logged to `sink`.
    pub fn durable(db: Database, cfg: ManagerConfig, sink: Box<dyn WalSink>) -> Result<Shard> {
        Ok(Shard::new(ActiveDatabase::with_storage(db, cfg, sink)?))
    }

    pub fn adb(&self) -> &ActiveDatabase {
        &self.adb
    }

    pub fn adb_mut(&mut self) -> &mut ActiveDatabase {
        &mut self.adb
    }

    /// Registers a rule (see [`ActiveDatabase::add_rule`]).
    pub fn add_rule(&mut self, rule: Rule) -> Result<()> {
        self.adb.add_rule(rule)
    }

    /// Applies one externally driven op through the facade's op
    /// interpreter (so a WAL-attached shard logs it exactly as a direct
    /// call would) and reports the op-level outcome plus every firing it
    /// produced. An op the interpreter refuses — a log record only the
    /// system writes, valid-time ingest — surfaces as `Err` with nothing
    /// logged; op-level rejections are absorbed into the outcome.
    pub fn apply(&mut self, op: &LogicalOp) -> Result<ApplyOutcome> {
        let applied = self.adb.apply(op, false);
        self.adb.release_dispatched();
        let result = absorbed(applied)?;
        Ok(ApplyOutcome {
            result,
            firings: self.drain_new_firings(),
        })
    }

    /// Applies a whole group-committed batch through
    /// [`ActiveDatabase::commit_batch`] — one WAL record, one fsync, one
    /// closing dispatch pass — and buckets the pooled firings back onto
    /// the member ops by their `states_end` watermarks (a firing belongs
    /// to the first op whose watermark covers its state). Firings from the
    /// closing dispatch's own action cascades attach to the last op, which
    /// is where §8's "delayed, not unrecognized" guarantee lands them.
    pub fn apply_batch(&mut self, ops: &[LogicalOp]) -> Result<Vec<ApplyOutcome>> {
        let outcomes = self.adb.commit_batch(ops);
        self.adb.release_dispatched();
        let outcomes = outcomes?;
        let firings = self.drain_new_firings();
        let mut out = Vec::with_capacity(outcomes.len());
        let mut cursor = 0usize;
        for (k, o) in outcomes.iter().enumerate() {
            // Firing state indices are non-decreasing in the log, so each
            // op's bucket is the next contiguous run under its watermark.
            let end = if k + 1 == outcomes.len() {
                firings.len()
            } else {
                let mut end = cursor;
                while end < firings.len() && firings[end].state_index < o.states_end {
                    end += 1;
                }
                end
            };
            out.push(ApplyOutcome {
                result: o.result.clone(),
                firings: firings[cursor..end].to_vec(),
            });
            cursor = end;
        }
        Ok(out)
    }

    /// Firings appended since the last drain, in order.
    fn drain_new_firings(&mut self) -> Vec<FiringRecord> {
        let log = self.adb.firings();
        let new: Vec<FiringRecord> = log[self.reported.min(log.len())..].to_vec();
        self.reported = log.len();
        new
    }

    /// The full firing history from index `from` (for catch-up reads and
    /// oracle comparisons). Indices are stable across the shard's lifetime.
    pub fn firings_from(&self, from: usize) -> Vec<FiringRecord> {
        let log = self.adb.firings();
        log[from.min(log.len())..].to_vec()
    }

    /// Per-tenant gauges, exact.
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            retained: self.adb.retained_size(),
            ..self.quick_stats()
        }
    }

    /// The O(1) part of [`Shard::stats`], cheap enough to publish after
    /// every commit: `retained` — a walk over every evaluator's residual
    /// DAG — is left at 0.
    pub fn quick_stats(&self) -> ShardStats {
        ShardStats {
            states: self.adb.history().len(),
            live_states: self.adb.history().retained(),
            rules: self.adb.rules().len(),
            firings: self.adb.firings().len(),
            retained: 0,
            now: self.adb.now(),
            batch_safety: self.adb.batch_certificate(),
        }
    }
}

/// One valid-time tenant: a streaming [`VtActiveDatabase`] plus the stream
/// events its generic ops produced. See the module docs.
#[derive(Debug)]
pub struct VtShard {
    vt: VtActiveDatabase,
    /// Stream events produced by generic ops, buffered until the caller
    /// drains them for subscriber pushes.
    pending_events: Vec<VtFiringEvent>,
}

impl VtShard {
    /// Wraps an existing database (a durable one has its sink attached).
    pub fn new(vt: VtActiveDatabase) -> VtShard {
        VtShard {
            vt,
            pending_events: Vec::new(),
        }
    }

    pub fn vt(&self) -> &VtActiveDatabase {
        &self.vt
    }

    pub fn vt_mut(&mut self) -> &mut VtActiveDatabase {
        &mut self.vt
    }

    /// Drains the stream events buffered by generic applies.
    pub fn drain_events(&mut self) -> Vec<VtFiringEvent> {
        std::mem::take(&mut self.pending_events)
    }

    /// Applies one generic op ([`VtActiveDatabase::apply`], which logs it).
    /// Deterministic rejections (constraint vetoes, Δ-window violations)
    /// absorb into the outcome; the outcome's `firings` are the op's
    /// *confirmed* records, while the phase-tagged events buffer for the
    /// subscriber push.
    pub fn apply(&mut self, op: &LogicalOp) -> Result<ApplyOutcome> {
        let applied = self.vt.apply(op, false);
        self.outcome(applied)
    }

    /// Applies a group as one log record ([`VtActiveDatabase::commit_batch`]).
    /// The ops still apply and stream one by one: the valid-time facade has
    /// no fused evaluation slice, so a group buys one fsync, which is what
    /// arrival-independence permits.
    pub fn apply_batch(&mut self, ops: &[LogicalOp]) -> Result<Vec<ApplyOutcome>> {
        let applied = self.vt.commit_batch(ops)?;
        (applied.into_iter()).map(|r| self.outcome(r)).collect()
    }

    fn outcome(&mut self, applied: Result<Vec<VtFiringEvent>>) -> Result<ApplyOutcome> {
        let events = absorbed(applied)?;
        let confirmed = (events.iter().flatten()).filter(|e| e.phase == VtPhase::Confirmed);
        let firings = confirmed.map(|e| e.record.clone()).collect();
        let result = events.map(|events| self.pending_events.extend(events));
        Ok(ApplyOutcome { result, firings })
    }

    /// Point-in-time gauges mapped onto the shared [`ShardStats`] shape:
    /// `states` counts the whole logical history (live window + compacted
    /// prefix), `firings` the confirmed log, `retained` the undecided
    /// tentative firings, all cheap to count. The certificate is
    /// `CascadeRequired`: valid-time commits are not certified for fusion.
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            states: self.vt.engine().state_count() + self.vt.engine().compacted(),
            live_states: self.vt.engine().state_count(),
            rules: self.vt.rule_count(),
            firings: self.vt.confirmed_count(),
            retained: self.vt.pending_tentative(),
            now: self.vt.now(),
            batch_safety: BatchCertificate::CascadeRequired,
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::rules::Action;
    use tdb_engine::WriteOp;
    use tdb_ptl::parse_formula;
    use tdb_relation::{parse_query, QueryDef, Value};

    fn item_db() -> Database {
        let mut db = Database::new();
        db.set_item("n", Value::Int(0));
        db.define_query("n", QueryDef::new(0, parse_query("item n").unwrap()));
        db
    }

    /// Shards of both kinds must be movable onto worker threads.
    #[test]
    fn shard_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Shard>();
        assert_send::<VtShard>();
    }

    #[test]
    fn apply_reports_per_op_firings_and_absorbs_vetoes() {
        let mut shard = Shard::volatile(item_db(), ManagerConfig::default());
        shard
            .add_rule(Rule::trigger(
                "watch",
                parse_formula("n() >= 5").unwrap(),
                Action::Notify,
            ))
            .unwrap();
        shard
            .add_rule(Rule::constraint("cap", parse_formula("n() <= 10").unwrap()))
            .unwrap();

        let set = |v: i64| LogicalOp::Update {
            ops: vec![WriteOp::SetItem {
                item: "n".into(),
                value: Value::Int(v),
            }],
        };
        let quiet = shard.apply(&set(3)).unwrap();
        assert!(quiet.ok() && quiet.firings.is_empty());

        shard.apply(&LogicalOp::AdvanceClock { delta: 1 }).unwrap();
        let fired = shard.apply(&set(7)).unwrap();
        assert!(fired.ok());
        assert_eq!(fired.firings.len(), 1);
        assert_eq!(fired.firings[0].rule, "watch");

        shard.apply(&LogicalOp::AdvanceClock { delta: 1 }).unwrap();
        let vetoed = shard.apply(&set(50)).unwrap();
        assert!(!vetoed.ok(), "constraint veto is an op-level outcome");
        assert!(vetoed.firings.iter().any(|f| f.rule == "cap"));
        assert_eq!(shard.adb().db().item("n").unwrap(), Value::Int(7));

        // Firing history is stable and complete.
        let all = shard.firings_from(0);
        assert_eq!(all.len(), shard.adb().firings().len());
        assert_eq!(shard.firings_from(all.len()), Vec::new());
        assert_eq!(shard.firings_from(1), all[1..].to_vec());
    }

    /// `RegisterRules`, `AddRule` and `Firing` are log records, never
    /// inputs: a caller handing one to a shard, alone or as a batch
    /// member, is refused before anything reaches the log — a registered
    /// name and a definition included, so a rule registers only through
    /// `add_rule`.
    #[test]
    fn log_records_are_refused_before_the_log() {
        let sink = crate::storage::SharedMemorySink::new(0);
        let mut shard =
            Shard::durable(item_db(), ManagerConfig::default(), Box::new(sink.clone())).unwrap();
        let watch = Rule::trigger("watch", parse_formula("n() >= 5").unwrap(), Action::Notify);
        shard.add_rule(watch.clone()).unwrap();
        let logged = sink.inner().tail.len();
        let firing = crate::rules::FiringRecord {
            rule: "watch".into(),
            state_index: 0,
            time: Timestamp(0),
            env: Default::default(),
        };
        let ghost = Rule {
            name: "ghost".into(),
            ..watch
        };
        for op in [
            LogicalOp::RegisterRules { rules: vec![ghost] },
            LogicalOp::AddRule {
                name: "watch".into(),
            },
            LogicalOp::AddRule {
                name: "ghost".into(),
            },
            LogicalOp::Firing { record: firing },
        ] {
            let alone = shard.apply(&op);
            assert!(
                matches!(alone, Err(CoreError::RefusedOp { .. })),
                "{alone:?}"
            );
            let batch = shard.apply_batch(&[LogicalOp::Tick, op]);
            assert!(
                matches!(batch, Err(CoreError::RefusedOp { .. })),
                "{batch:?}"
            );
        }
        assert_eq!(sink.inner().tail.len(), logged, "a refused op was logged");
        assert_eq!(shard.stats().rules, 1);
        assert_eq!(shard.stats().states, 1, "a refused batch applied its Tick");
    }
}

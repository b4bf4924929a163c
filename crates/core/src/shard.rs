//! [`Shard`] — one tenant's active database as a self-contained unit of
//! ownership.
//!
//! The multi-tenant server hosts many independent active databases, each
//! pinned to a worker thread. What a worker needs per tenant is exactly the
//! trio the facade APIs otherwise leave to the caller: the
//! [`ActiveDatabase`] itself (config, storage sink and dispatch state
//! included), the rule *catalog* that recovery resolves `AddRule` records
//! against, and a cursor over the firing log so every new firing is
//! reported (streamed to subscribers) exactly once. [`Shard`] bundles the
//! three and exposes one uniform entry point, [`Shard::apply`], that maps a
//! [`LogicalOp`] onto the corresponding facade method — the same vocabulary
//! the WAL records, so a network `Commit` batch, a recovery replay, and a
//! library call all drive identical code paths.
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

use std::collections::HashMap;

use tdb_relation::{Database, Timestamp};

use crate::error::{CoreError, Result};
use crate::facade::{added_rules, ActiveDatabase};
use crate::manager::ManagerConfig;
use crate::rules::{FiringRecord, Rule};
use crate::storage::{LogicalOp, WalSink};

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
    pub batch_safety: tdb_analysis::BatchCertificate,
}

/// One tenant: an active database plus its rule catalog and a firing
/// cursor. See the module docs.
#[derive(Debug)]
pub struct Shard {
    adb: ActiveDatabase,
    catalog: Vec<Rule>,
    /// Rule name → position in `catalog`, kept in step with it. Where a
    /// recovered catalog defines a name twice the last definition wins —
    /// the one recovery registered (see [`ActiveDatabase::recover`]).
    by_name: HashMap<String, usize>,
    /// Firings at indices `< reported` have been handed out by
    /// [`Shard::apply`] outcomes already. The facade's firing log is never
    /// drained, so it doubles as the stable catch-up history
    /// ([`Shard::firings_from`]); a recovered shard resumes with the log
    /// the checkpoint + WAL replay rebuilt.
    reported: usize,
}

impl Shard {
    /// Wraps an existing system. `catalog` must contain every rule already
    /// registered on `adb` (recovery passes the catalog it replayed with);
    /// firings already in the log count as reported.
    pub fn new(mut adb: ActiveDatabase, catalog: Vec<Rule>) -> Shard {
        adb.release_dispatched();
        let reported = adb.firings().len();
        let by_name = catalog
            .iter()
            .enumerate()
            .map(|(i, r)| (r.name.clone(), i))
            .collect();
        Shard {
            adb,
            catalog,
            by_name,
            reported,
        }
    }

    /// A fresh volatile shard over `db`.
    pub fn volatile(db: Database, cfg: ManagerConfig) -> Shard {
        Shard::new(ActiveDatabase::with_config(db, cfg), Vec::new())
    }

    /// A fresh durable shard: every op is write-ahead logged to `sink`.
    pub fn durable(db: Database, cfg: ManagerConfig, sink: Box<dyn WalSink>) -> Result<Shard> {
        Ok(Shard::new(
            ActiveDatabase::with_storage(db, cfg, sink)?,
            Vec::new(),
        ))
    }

    pub fn adb(&self) -> &ActiveDatabase {
        &self.adb
    }

    pub fn adb_mut(&mut self) -> &mut ActiveDatabase {
        &mut self.adb
    }

    pub fn catalog(&self) -> &[Rule] {
        &self.catalog
    }

    /// Registers a rule and records it in the catalog so later recovery
    /// (and `AddRule` replay) can resolve it by name. Re-registering a name
    /// is a typed error from the manager; the catalog stays consistent.
    pub fn add_rule(&mut self, rule: Rule) -> Result<()> {
        self.adb.add_rule(rule.clone())?;
        self.by_name.insert(rule.name.clone(), self.catalog.len());
        self.catalog.push(rule);
        Ok(())
    }

    fn rule(&self, name: &str) -> Option<&Rule> {
        self.by_name.get(name).map(|&i| &self.catalog[i])
    }

    /// Applies one externally driven op through the typed facade API (so a
    /// WAL-attached shard logs it exactly as a direct call would) and
    /// reports the op-level outcome plus every firing it produced.
    /// Structural errors — an `AddRule` naming a rule missing from the
    /// catalog — surface as `Err`; op-level rejections are absorbed into
    /// the outcome.
    pub fn apply(&mut self, op: &LogicalOp) -> Result<ApplyOutcome> {
        let applied = self.apply_inner(op);
        self.adb.release_dispatched();
        let result = match applied {
            Ok(()) => Ok(()),
            // Deterministic op-level failures leave the shard usable.
            Err(e) if e.is_deterministic() => Err(e.to_string()),
            Err(e) => return Err(e),
        };
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
        let added = added_rules(ops, |name| self.rule(name));
        let outcomes = self.adb.commit_batch(ops, &added);
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

    fn apply_inner(&mut self, op: &LogicalOp) -> Result<()> {
        match op {
            LogicalOp::CreateRelation { name, relation } => {
                self.adb.create_relation(name.clone(), relation.clone())
            }
            LogicalOp::DefineQuery { name, def } => {
                self.adb.define_query(name.clone(), def.clone())
            }
            LogicalOp::SetItem { name, value } => self.adb.set_item(name.clone(), value.clone()),
            LogicalOp::AddRule { name } => {
                let rule = self
                    .rule(name)
                    .cloned()
                    .ok_or_else(|| CoreError::NoSuchRule(name.clone()))?;
                self.adb.add_rule(rule)
            }
            LogicalOp::SetBatch { n } => self.adb.set_batch(*n),
            LogicalOp::SetCascadeLimit { n } => self.adb.set_cascade_limit(*n),
            LogicalOp::AdvanceClock { delta } => self.adb.advance_clock(*delta).map(|_| ()),
            LogicalOp::AdvanceClockTo { t } => self.adb.advance_clock_to(*t).map(|_| ()),
            LogicalOp::Tick => self.adb.tick(),
            LogicalOp::Emit { events } => self.adb.emit_all(events.clone()).map(|_| ()),
            LogicalOp::Update { ops } => self.adb.update(ops.clone()).map(|_| ()),
            LogicalOp::Begin => self.adb.begin().map(|_| ()),
            LogicalOp::Write { txn, op } => self.adb.write(*txn, op.clone()),
            LogicalOp::Commit { txn } => self.adb.commit(*txn).map(|_| ()),
            LogicalOp::Abort { txn } => self.adb.abort(*txn).map(|_| ()),
            LogicalOp::Flush => self.adb.flush(),
            // Audit records are outputs, not inputs.
            LogicalOp::Firing { .. } => Ok(()),
            LogicalOp::Batch { ops } => {
                let added = added_rules(ops, |name| self.rule(name));
                self.adb.commit_batch(ops, &added).map(|_| ())
            }
            LogicalOp::CommitAt { .. } => Err(CoreError::Storage(
                "CommitAt (valid-time ingest) requires a valid-time tenant".into(),
            )),
        }
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
            rules: self.adb.registered_rules().len(),
            firings: self.adb.firings().len(),
            retained: 0,
            now: self.adb.now(),
            batch_safety: self.adb.batch_certificate(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
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

    /// Shards must be movable onto worker threads.
    #[test]
    fn shard_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Shard>();
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

    #[test]
    fn add_rule_extends_catalog_for_replay() {
        let mut shard = Shard::volatile(item_db(), ManagerConfig::default());
        shard
            .add_rule(Rule::trigger(
                "watch",
                parse_formula("n() >= 5").unwrap(),
                Action::Notify,
            ))
            .unwrap();
        assert_eq!(shard.catalog().len(), 1);
        // An AddRule op for an unknown name is a structural error.
        let err = shard.apply(&LogicalOp::AddRule {
            name: "ghost".into(),
        });
        assert!(matches!(err, Err(CoreError::NoSuchRule(_))));
    }
}

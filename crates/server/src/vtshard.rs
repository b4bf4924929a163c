//! One valid-time tenant: a [`VtActiveDatabase`] streaming instance plus,
//! when durable, the [`FileStorage`] its log goes through.
//!
//! Valid-time tenants trade the transaction-time shard's checkpoints for
//! arrival-independence (§9): every logged input — schema seeds, rule
//! registrations, clock advances, `CommitAt` stream ingests — replays
//! through the facade's op interpreter ([`VtActiveDatabase::apply`]), and
//! because ingest depends only on `(valid, ops)` the rebuilt history (and
//! thus the whole tentative/confirmed/retracted firing stream) is
//! byte-identical to the pre-crash run. The log is written and read as a
//! plain tenant's is — appended through the [`WalSink`] of a
//! [`FileStorage`], read back by [`tdb_storage::read_log`] — but from its
//! first segment on, and never checkpointed: `wal-0.log` *is* the tenant.
//! A replay absorbs every re-failure, as the live run absorbed it.
//!
//! The directory layout marks the tenant kind on disk: `vt.meta` (the
//! max-delay Δ as decimal text) distinguishes a valid-time tenant from a
//! transaction-time one at reopen time. It is written first, so a
//! directory cut before its segment exists reopens as an empty valid-time
//! tenant. A registration is one `RegisterRules` record carrying every
//! definition of its source, so the segment needs nothing beside it; a
//! directory written before that names its rules in `AddRule` records,
//! resolved against the `rules.tdbr` it kept. `RegisterRules` is a log
//! record the tenant writes itself, and `AddRule` and `Firing` are records
//! only older logs hold; none is an input a client may send, so a live
//! tenant keeps no rule catalog.

use std::path::Path;

use tdb_core::rules::{Action, FiringRecord, Rule, RuleKind};
use tdb_core::shard::{ApplyOutcome, ShardStats};
use tdb_core::storage::LogicalOp;
use tdb_core::{BatchCertificate, SyncPolicy, VtActiveDatabase, VtFiringEvent, VtPhase, WalSink};
use tdb_engine::WriteOp;
use tdb_relation::{Database, Timestamp};
use tdb_storage::codec::define_legacy;
use tdb_storage::{read_log, sync_parent, CheckpointPolicy, FileStorage};

use crate::tenant::{holds_checkpoint, holds_vt_meta, legacy_catalog, storage_err};
use crate::wire::ErrorCode;
use crate::{Result, ServerError};

/// Marker file inside a durable valid-time tenant's directory: its
/// max-delay Δ as decimal text. Existence is what routes a reopen to
/// [`VtShard`] instead of the transaction-time [`crate::tenant::Tenant`]
/// recovery path.
pub const VT_META_FILE: &str = "vt.meta";

/// One valid-time tenant's live state.
#[derive(Debug)]
pub struct VtShard {
    vt: VtActiveDatabase,
    /// `Some` for durable tenants. It is never asked to checkpoint.
    wal: Option<FileStorage>,
    /// Stream events produced by generic `Commit` ops, buffered until the
    /// worker drains them for subscriber pushes.
    pending_events: Vec<VtFiringEvent>,
}

impl VtShard {
    /// A fresh in-memory valid-time tenant.
    pub fn volatile(max_delay: i64) -> VtShard {
        VtShard {
            vt: VtActiveDatabase::new_streaming(Database::new(), max_delay.max(0)),
            wal: None,
            pending_events: Vec::new(),
        }
    }

    /// Creates a durable valid-time tenant under `dir`, or reopens the
    /// previous incarnation when `dir` already holds one (`vt.meta`
    /// present — the persisted Δ wins over the argument), replaying its
    /// whole log and appending from where it ends. A directory holding a
    /// transaction-time tenant is a typed error.
    pub fn durable(dir: &Path, max_delay: i64, sync: SyncPolicy) -> Result<VtShard> {
        let meta = dir.join(VT_META_FILE);
        if !holds_vt_meta(dir)? {
            if holds_checkpoint(dir)? {
                return Err(ServerError::Remote {
                    code: ErrorCode::TenantExists,
                    message: format!(
                        "{}: directory holds a transaction-time tenant, not a valid-time one",
                        dir.display()
                    ),
                });
            }
            tdb_storage::create_dir(dir, sync).map_err(|e| storage_err(dir, e))?;
            std::fs::write(&meta, format!("{}\n", max_delay.max(0)))
                .and_then(|()| match sync.sync_on_append() {
                    true => (std::fs::File::open(&meta)?.sync_all()).map(|()| sync_parent(&meta)),
                    false => Ok(()),
                })
                .map_err(|e| storage_err(dir, e))?;
        }
        let persisted = std::fs::read_to_string(&meta).map_err(|e| storage_err(dir, e))?;
        let persisted: i64 = persisted.trim().parse().map_err(|_| {
            ServerError::Storage(format!("{}: corrupt {VT_META_FILE}", dir.display()))
        })?;
        let mut shard = VtShard::volatile(persisted);
        // Replay the whole log. An `AddRule` naming no rule the legacy
        // catalog defines was a client's op that failed in the live run.
        let log = read_log(dir, 0).map_err(|e| storage_err(dir, e))?;
        let catalog = legacy_catalog(dir)?;
        for op in log.ops {
            if let Ok(op) = define_legacy(op, &catalog) {
                let _ = shard.vt.apply(&op, true);
            }
        }
        let policy = CheckpointPolicy {
            sync,
            ..CheckpointPolicy::default()
        };
        let wal = FileStorage::resume(dir, policy, log.end).map_err(|e| storage_err(dir, e))?;
        shard.wal = Some(wal);
        Ok(shard)
    }

    pub fn max_delay(&self) -> i64 {
        self.vt.engine().max_delay()
    }

    /// The watermark `W = now − Δ`.
    pub fn watermark(&self) -> Timestamp {
        self.vt.watermark()
    }

    /// Announced-but-undecided tentative firings.
    pub fn pending_tentative(&self) -> usize {
        self.vt.pending_tentative()
    }

    /// Drains the stream events buffered by generic `Commit` applies.
    pub fn drain_events(&mut self) -> Vec<VtFiringEvent> {
        std::mem::take(&mut self.pending_events)
    }

    /// Registers parsed rules: triggers become *tentative* valid-time
    /// triggers (the stream's confirm/retract protocol is what turns them
    /// definite), `abort` rules become online-checked constraints.
    /// Database-writing actions are unsupported — a retroactively revised
    /// firing cannot un-write the database. The source registers whole or
    /// not at all: every rule is prepared, then one `RegisterRules` record
    /// reaches the WAL, then all of them install.
    pub fn register_rules(&mut self, rules: Vec<Rule>) -> Result<Vec<String>> {
        let writes = |r: &&Rule| r.kind == RuleKind::Trigger && !matches!(r.action, Action::Notify);
        if let Some(rule) = rules.iter().find(writes) {
            return Err(ServerError::Remote {
                code: ErrorCode::Unsupported,
                message: format!(
                    "rule `{}`: valid-time tenants support only `notify` triggers \
                     and `abort` constraints",
                    rule.name
                ),
            });
        }
        let ready = self.vt.prepare(&rules)?;
        let registered = rules.iter().map(|r| r.name.clone()).collect();
        if let Some(wal) = &mut self.wal {
            wal.append(&LogicalOp::RegisterRules { rules })?;
        }
        for ready in ready {
            self.vt.install(ready);
        }
        Ok(registered)
    }

    /// Applies one logical op from a generic `Commit`. Deterministic
    /// rejections (constraint vetoes, Δ-window violations, non-monotone
    /// clock moves) absorb into the outcome; the outcome's `firings` are
    /// the op's *confirmed* records, while the full phase-tagged events
    /// buffer for the worker's subscriber push.
    pub fn apply(&mut self, op: &LogicalOp) -> Result<ApplyOutcome> {
        VtActiveDatabase::refusal(op, false)?;
        if let Some(wal) = &mut self.wal {
            wal.append(op)?;
        }
        self.apply_absorbed(op)
    }

    /// Applies a whole group as one WAL record / one fsync. The ops still
    /// apply (and stream) individually — the valid-time facade has no
    /// fused evaluation slice, so grouping here buys fsync amortization
    /// only, which is exactly what arrival-independence permits.
    pub fn apply_batch(&mut self, ops: &[LogicalOp]) -> Result<Vec<ApplyOutcome>> {
        for op in ops {
            VtActiveDatabase::refusal(op, true)?;
        }
        if let Some(wal) = &mut self.wal {
            wal.append_batch(ops)?;
        }
        ops.iter().map(|op| self.apply_absorbed(op)).collect()
    }

    fn apply_absorbed(&mut self, op: &LogicalOp) -> Result<ApplyOutcome> {
        match self.vt.apply(op, false) {
            Ok(events) => {
                let firings = events
                    .iter()
                    .filter(|e| e.phase == VtPhase::Confirmed)
                    .map(|e| e.record.clone())
                    .collect();
                self.pending_events.extend(events);
                Ok(ApplyOutcome {
                    result: Ok(()),
                    firings,
                })
            }
            Err(e) if e.is_deterministic() => Ok(ApplyOutcome {
                result: Err(e.to_string()),
                firings: Vec::new(),
            }),
            Err(e) => Err(ServerError::Core(e)),
        }
    }

    /// The streaming ingest path: advances the tenant clock to the arrival
    /// instant (monotone max — replays and redeliveries may re-present an
    /// old arrival), ingests `ops` at `valid`, and reports the resulting
    /// watermark plus every stream event the two steps produced. Both ops
    /// ride one WAL record and one fsync.
    pub fn commit_at(
        &mut self,
        arrival: Timestamp,
        valid: Timestamp,
        ops: Vec<WriteOp>,
    ) -> Result<(Timestamp, Vec<VtFiringEvent>)> {
        let clock = LogicalOp::AdvanceClockTo {
            t: arrival.max(self.vt.now()),
        };
        let ingest = LogicalOp::CommitAt { valid, ops };
        if let Some(wal) = &mut self.wal {
            wal.append_batch(&[clock.clone(), ingest.clone()])?;
        }
        let mut events = self.vt.apply(&clock, false)?;
        events.extend(self.vt.apply(&ingest, false)?);
        Ok((self.vt.watermark(), events))
    }

    /// The definite firing log from index `from` (what the wire's
    /// `Firings` request means on a valid-time tenant).
    pub fn firings_from(&self, from: usize) -> Vec<FiringRecord> {
        self.vt.confirmed_from(from)
    }

    /// Point-in-time gauges mapped onto the shared [`ShardStats`] shape:
    /// `states` counts the whole logical history (live window + compacted
    /// prefix), `firings` the confirmed log, `retained` the undecided
    /// tentative firings. The certificate is `CascadeRequired`:
    /// valid-time commits are not certified for fused evaluation.
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            retained: self.vt.pending_tentative(),
            ..self.quick_stats()
        }
    }

    /// [`VtShard::stats`] with `retained` left at 0 (see
    /// [`tdb_core::Shard::quick_stats`]).
    pub fn quick_stats(&self) -> ShardStats {
        ShardStats {
            states: self.vt.engine().state_count() + self.vt.engine().compacted(),
            live_states: self.vt.engine().state_count(),
            rules: self.vt.rule_count(),
            firings: self.vt.confirmed_count(),
            retained: 0,
            now: self.vt.now(),
            batch_safety: BatchCertificate::CascadeRequired,
        }
    }

    /// Forces buffered WAL bytes to disk (graceful-shutdown path; there is
    /// no checkpoint to cut — the log is the tenant).
    pub fn sync(&mut self) -> Result<()> {
        if let Some(wal) = &mut self.wal {
            wal.sync().map_err(|e| storage_err(wal.dir(), e))?;
        }
        Ok(())
    }

    /// Test/inspection access to the underlying facade.
    pub fn vt(&self) -> &VtActiveDatabase {
        &self.vt
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use crate::tenant::rules_from_source;
    use tdb_relation::Value;

    const SRC: &str = "rule watch { when n() >= 5; then notify; }\n\
                       rule cap { when n() <= 10; then abort; }\n";

    fn seed(shard: &mut VtShard) {
        for op in [
            LogicalOp::SetItem {
                name: "n".into(),
                value: Value::Int(0),
            },
            LogicalOp::DefineQuery {
                name: "n".into(),
                def: tdb_relation::QueryDef::new(0, tdb_relation::parse_query("item n").unwrap()),
            },
        ] {
            assert!(shard.apply(&op).unwrap().ok());
        }
    }

    fn set_n(v: i64) -> Vec<WriteOp> {
        vec![WriteOp::SetItem {
            item: "n".into(),
            value: Value::Int(v),
        }]
    }

    #[test]
    fn stream_ingest_fires_and_confirms() {
        let mut shard = VtShard::volatile(2);
        seed(&mut shard);
        let names = shard
            .register_rules(rules_from_source(SRC).unwrap())
            .unwrap();
        assert_eq!(names, vec!["watch".to_string(), "cap".to_string()]);

        let (_, events) = shard
            .commit_at(Timestamp(3), Timestamp(3), set_n(7))
            .unwrap();
        assert!(events.iter().any(|e| e.phase == VtPhase::Tentative));
        // Push the watermark past the firing: it must confirm.
        let (wm, events) = shard
            .commit_at(Timestamp(9), Timestamp(9), set_n(6))
            .unwrap();
        assert!(wm > Timestamp(3));
        assert!(events
            .iter()
            .any(|e| e.phase == VtPhase::Confirmed && e.record.rule == "watch"));
        assert_eq!(shard.firings_from(0).len(), 1);
    }

    #[test]
    fn constraint_vetoes_ingest() {
        let mut shard = VtShard::volatile(4);
        seed(&mut shard);
        shard
            .register_rules(rules_from_source(SRC).unwrap())
            .unwrap();
        let err = shard
            .commit_at(Timestamp(2), Timestamp(2), set_n(99))
            .unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
    }

    fn insert_into_nope() -> Vec<WriteOp> {
        vec![WriteOp::Insert {
            relation: "nope".into(),
            tuple: tdb_relation::tuple![1i64],
        }]
    }

    #[test]
    fn inapplicable_ingest_is_a_typed_rejection() {
        let mut shard = VtShard::volatile(4);
        seed(&mut shard);
        shard
            .register_rules(rules_from_source(SRC).unwrap())
            .unwrap();
        shard
            .commit_at(Timestamp(2), Timestamp(2), set_n(7))
            .unwrap();
        let window = shard.vt().engine().tentative_history();
        let stream = shard.vt().stream_log().to_vec();

        let err = shard
            .commit_at(Timestamp(3), Timestamp(3), insert_into_nope())
            .unwrap_err();
        assert!(
            matches!(&err, ServerError::Core(e) if e.is_deterministic()),
            "{err}"
        );
        assert!(err.to_string().contains("nope"), "{err}");
        // Only the clock moved: window and stream are as they were.
        assert_eq!(shard.vt().now(), Timestamp(3));
        let after = shard.vt().engine().tentative_window();
        assert_eq!(after.len(), window.len());
        assert_eq!(after.get(0), window.get(0));
        assert_eq!(shard.vt().stream_log(), &stream[..]);

        // The shard keeps ingesting, at the rejected instant too.
        let (_, events) = shard
            .commit_at(Timestamp(3), Timestamp(3), set_n(8))
            .unwrap();
        assert!(events.iter().any(|e| e.phase == VtPhase::Tentative));
    }

    #[test]
    fn durable_tenant_recovers_past_a_logged_inapplicable_ingest() {
        let dir = std::env::temp_dir().join(format!("tdb-vtshard-nope-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut shard = VtShard::durable(&dir, 3, SyncPolicy::Always).unwrap();
        let mut oracle = VtShard::volatile(3);
        for s in [&mut shard, &mut oracle] {
            seed(s);
            s.register_rules(rules_from_source(SRC).unwrap()).unwrap();
            s.commit_at(Timestamp(2), Timestamp(2), set_n(7)).unwrap();
            // Logged write-ahead, then rejected.
            s.commit_at(Timestamp(4), Timestamp(3), insert_into_nope())
                .unwrap_err();
            s.commit_at(Timestamp(8), Timestamp(6), set_n(9)).unwrap();
        }
        drop(shard);

        // The record is in the log; replay rejects it again and carries on.
        let mut shard = VtShard::durable(&dir, 3, SyncPolicy::Always).unwrap();
        assert_eq!(shard.watermark(), oracle.watermark());
        assert_eq!(shard.firings_from(0), oracle.firings_from(0));
        assert_eq!(shard.stats().states, oracle.stats().states);
        assert_eq!(shard.vt().stream_log(), oracle.vt().stream_log());
        for s in [&mut shard, &mut oracle] {
            s.commit_at(Timestamp(12), Timestamp(12), set_n(2)).unwrap();
        }
        assert_eq!(shard.firings_from(0), oracle.firings_from(0));
        assert_eq!(shard.firings_from(1), oracle.firings_from(0)[1..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_transaction_time_ops_before_the_wal() {
        let mut shard = VtShard::volatile(2);
        let err = shard
            .apply(&LogicalOp::Update { ops: set_n(1) })
            .unwrap_err();
        assert!(matches!(
            err,
            ServerError::Core(tdb_core::CoreError::RefusedOp { .. })
        ));
    }

    /// A directory cut while `CreateVtTenant` wrote it — `vt.meta` alone,
    /// or beside the empty `rules.tdbr` older builds wrote next — reopens
    /// as an empty valid-time tenant, and keeps what it logs from then on.
    #[test]
    fn a_directory_cut_during_creation_reopens_empty() {
        for (k, extra) in [None, Some("rules.tdbr")].into_iter().enumerate() {
            let dir =
                std::env::temp_dir().join(format!("tdb-vtshard-cut{k}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(VT_META_FILE), "3\n").unwrap();
            if let Some(file) = extra {
                std::fs::write(dir.join(file), "").unwrap();
            }
            let mut shard = VtShard::durable(&dir, 9, SyncPolicy::Always).unwrap();
            assert_eq!((shard.max_delay(), shard.stats().rules), (3, 0));
            seed(&mut shard);
            shard
                .register_rules(rules_from_source(SRC).unwrap())
                .unwrap();
            shard
                .commit_at(Timestamp(2), Timestamp(2), set_n(7))
                .unwrap();
            let stats = shard.stats();
            drop(shard);
            let shard = VtShard::durable(&dir, 9, SyncPolicy::Always).unwrap();
            assert_eq!(shard.stats(), stats);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn durable_vt_tenant_recovers_watermark_and_stream() {
        let dir = std::env::temp_dir().join(format!("tdb-vtshard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut shard = VtShard::durable(&dir, 3, SyncPolicy::Always).unwrap();
        seed(&mut shard);
        shard
            .register_rules(rules_from_source(SRC).unwrap())
            .unwrap();
        shard
            .commit_at(Timestamp(2), Timestamp(2), set_n(7))
            .unwrap();
        shard
            .commit_at(Timestamp(8), Timestamp(6), set_n(3))
            .unwrap();
        let confirmed = shard.firings_from(0);
        let wm = shard.watermark();
        drop(shard);

        // Reopen: Δ comes from vt.meta (the argument is ignored), and the
        // replayed history reproduces watermark + confirmed log exactly.
        let shard2 = VtShard::durable(&dir, 999, SyncPolicy::Always).unwrap();
        assert_eq!(shard2.max_delay(), 3);
        assert_eq!(shard2.watermark(), wm);
        assert_eq!(shard2.firings_from(0), confirmed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

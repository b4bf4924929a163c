//! One tenant: a [`Shard`] plus its durability root and rule-source store.
//!
//! Rules cross the wire as rule-file *text* (the `tdb-analysis` format),
//! which is also what a durable tenant stores; [`rule_from_parsed`] maps
//! it onto core rules:
//!
//! * `abort` (alone) → [`Rule::constraint`] — the paper's integrity
//!   constraint desugaring;
//! * `set` / `insert` / `delete` → [`Action::DbOps`];
//! * `notify` → [`Action::Notify`] (and is implied when combined with
//!   database operations — every firing is recorded regardless);
//! * `signal` → a typed `Unsupported` error: signaling foreign events from
//!   actions is not part of the server's execution model.
//!
//! Anything else is not a rule-file action and fails to parse.
//!
//! A durable tenant owns one directory: its log (+ checkpoints, on a plain
//! tenant), and nothing else. Its facade — [`tdb_core::ActiveDatabase`]
//! behind a [`Shard`], a streaming [`VtActiveDatabase`] behind a
//! [`VtShard`] — logs its own inputs, and [`tdb_storage::open_durable`]
//! tells the two kinds of directory apart, creates a tenant of either kind
//! and reopens one; this module names neither the log's writer nor its
//! reader. A rule source registers whole or not at all: every rule is
//! prepared, then one `RegisterRules` record carries every definition to
//! the log, then all of them install — and checkpoints carry the
//! definitions too, so the directory is the whole tenant and a live tenant
//! keeps no rule catalog. A valid-time tenant takes `notify` triggers and
//! `abort` constraints only ([`tdb_core::CoreError::WritingTrigger`],
//! `ErrorCode::Unsupported` on the wire). A directory written before that
//! names its rules in `AddRule` records and older checkpoints, and holds
//! their sources in `rules.tdbr`, refused attempts included; a reopen
//! reads that file once as the catalog those names resolve against (the
//! last definition of a name is the one that registered), and nothing
//! writes it. `RegisterRules` is a log record the tenant writes itself;
//! sent as an op, alone or in a batch, it is refused before the WAL
//! (`CoreError::RefusedOp`, `ErrorCode::Unsupported` on the wire), and so
//! are `AddRule` and `Firing`, which only older logs hold.

use std::path::{Path, PathBuf};

use tdb_analysis::{parse_rule_file_full, ParsedAction, ParsedRule};
use tdb_core::manager::ManagerConfig;
use tdb_core::rules::{Action, ActionOp, FiringRecord, Rule};
use tdb_core::shard::{ApplyOutcome, Shard, ShardStats, VtShard};
use tdb_core::storage::LogicalOp;
use tdb_core::{SyncPolicy, VtActiveDatabase, VtFiringEvent};
use tdb_engine::WriteOp;
use tdb_relation::{parse_query, Relation, Timestamp, Value};
use tdb_storage::{CheckpointPolicy, Durable, RecoveryReport, StorageError};

use crate::metrics::TenantGauges;
use crate::wire::ErrorCode;
use crate::{Result, ServerError};

/// Maps one parsed rule onto a core [`Rule`]. See the module docs for the
/// action mapping.
pub fn rule_from_parsed(p: &ParsedRule) -> Result<Rule> {
    let name = &p.input.facts.name;
    let mut ops: Vec<ActionOp> = Vec::new();
    let mut abort = false;
    let mut notify = false;
    for a in &p.actions {
        match a {
            ParsedAction::Set { item, value } => ops.push(ActionOp::SetItem {
                item: item.clone(),
                value: value.clone(),
            }),
            ParsedAction::Insert { relation, tuple } => ops.push(ActionOp::Insert {
                relation: relation.clone(),
                tuple: tuple.clone(),
            }),
            ParsedAction::Delete { relation, tuple } => ops.push(ActionOp::Delete {
                relation: relation.clone(),
                tuple: tuple.clone(),
            }),
            ParsedAction::Notify => notify = true,
            ParsedAction::Abort => abort = true,
            ParsedAction::Signal { event } => {
                return Err(ServerError::Remote {
                    code: ErrorCode::Unsupported,
                    message: format!(
                        "rule `{name}`: `signal {event}` is not executable over the wire"
                    ),
                });
            }
        }
    }
    if abort {
        if !ops.is_empty() || notify {
            return Err(ServerError::Remote {
                code: ErrorCode::Unsupported,
                message: format!(
                    "rule `{name}`: `abort` makes the rule an integrity constraint and \
                     cannot be combined with other actions"
                ),
            });
        }
        return Ok(Rule::constraint(name.clone(), p.input.condition.clone()));
    }
    let action = if ops.is_empty() {
        Action::Notify
    } else {
        Action::DbOps(ops)
    };
    Ok(Rule::trigger(name.clone(), p.input.condition.clone(), action).recording_executed())
}

/// Parses rule-file text into core rules, rejecting unsupported actions.
pub fn rules_from_source(source: &str) -> Result<Vec<Rule>> {
    let parsed = parse_rule_file_full(source).map_err(|e| ServerError::Remote {
        code: ErrorCode::Parse,
        message: e.to_string(),
    })?;
    parsed.rules.iter().map(rule_from_parsed).collect()
}

/// The catalog the rule names of a directory written before registrations
/// were logged with their definitions resolve against: the sources it kept
/// in `rules.tdbr`. Empty where there is no such file.
fn legacy_catalog(dir: &Path) -> Result<Vec<Rule>> {
    match std::fs::read_to_string(dir.join("rules.tdbr")) {
        Ok(source) => rules_from_source(&source),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(storage_err(dir, e)),
    }
}

/// Which execution model backs a tenant: the transaction-time [`Shard`]
/// (checkpointed WAL, in-order commits) or the valid-time [`VtShard`]
/// (watermarked out-of-order stream ingest).
// Tenants are few and map-owned; the Plain/Vt size gap is not worth a
// double indirection on every request dispatch.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Backend {
    Plain(Shard),
    Vt(VtShard),
}

/// One tenant: shard + (for durable tenants) its directory.
#[derive(Debug)]
pub struct Tenant {
    name: String,
    backend: Backend,
    /// `Some` for durable tenants: the directory holding WAL segments and
    /// checkpoints.
    dir: Option<PathBuf>,
    /// How the tenant came back, when it was recovered from disk.
    pub recovery: Option<RecoveryReport>,
    /// The tenant's labelled gauges, resolved here once so no commit ever
    /// looks one up.
    gauges: TenantGauges,
}

impl Tenant {
    fn assemble(name: String, backend: Backend, dir: Option<&Path>) -> Tenant {
        let gauges = TenantGauges::resolve(&name, matches!(backend, Backend::Vt(_)));
        Tenant {
            name,
            backend,
            dir: dir.map(Path::to_path_buf),
            recovery: None,
            gauges,
        }
    }

    /// A fresh in-memory tenant.
    pub fn volatile(name: impl Into<String>, cfg: ManagerConfig) -> Tenant {
        let shard = Shard::volatile(tdb_relation::Database::new(), cfg);
        Tenant::assemble(name.into(), Backend::Plain(shard), None)
    }

    /// A fresh in-memory *valid-time* tenant with disorder bound Δ.
    pub fn volatile_vt(name: impl Into<String>, max_delay: i64) -> Tenant {
        let vt = VtActiveDatabase::new_streaming(tdb_relation::Database::new(), max_delay.max(0));
        let shard = VtShard::new(vt);
        Tenant::assemble(name.into(), Backend::Vt(shard), None)
    }

    /// Creates a durable tenant under `dir` — or, when `dir` holds a
    /// checkpoint of a previous incarnation, recovers it: replays
    /// checkpoint + WAL and resumes appending. A directory that holds a
    /// valid-time tenant reopens as one (the kind is a property of the
    /// data, not of the request that happened to trigger the reopen).
    pub fn durable(
        name: impl Into<String>,
        dir: &Path,
        cfg: ManagerConfig,
        policy: CheckpointPolicy,
    ) -> Result<Tenant> {
        Tenant::open(name.into(), dir, None, cfg, policy)
    }

    /// Creates (or reopens) a durable *valid-time* tenant under `dir`; a
    /// reopen keeps the persisted Δ. A directory holding a
    /// transaction-time tenant is `ErrorCode::TenantExists`.
    pub fn durable_vt(
        name: impl Into<String>,
        dir: &Path,
        max_delay: i64,
        sync: SyncPolicy,
    ) -> Result<Tenant> {
        let policy = CheckpointPolicy {
            sync,
            ..CheckpointPolicy::default()
        };
        let cfg = ManagerConfig::default();
        Tenant::open(name.into(), dir, Some(max_delay), cfg, policy)
    }

    /// [`tdb_storage::open_durable`] over the catalog of an older directory.
    fn open(
        name: String,
        dir: &Path,
        max_delay: Option<i64>,
        cfg: ManagerConfig,
        policy: CheckpointPolicy,
    ) -> Result<Tenant> {
        let catalog = legacy_catalog(dir)?;
        let opened = tdb_storage::open_durable(dir, max_delay, cfg, policy, &catalog);
        let (backend, recovery) = match opened.map_err(|e| match e {
            StorageError::KindMismatch { .. } => ServerError::Remote {
                code: ErrorCode::TenantExists,
                message: e.to_string(),
            },
            e => storage_err(dir, e),
        })? {
            Durable::Plain(adb, report) => (Backend::Plain(Shard::new(adb)), report),
            Durable::ValidTime(vt) => (Backend::Vt(VtShard::new(vt)), None),
        };
        let mut tenant = Tenant::assemble(name, backend, Some(dir));
        tenant.recovery = recovery;
        Ok(tenant)
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn durable_dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Whether this is a valid-time (watermarked stream) tenant.
    pub fn is_vt(&self) -> bool {
        matches!(self.backend, Backend::Vt(_))
    }

    /// The valid-time backend, when this is a valid-time tenant.
    pub fn vt(&self) -> Option<&VtShard> {
        match &self.backend {
            Backend::Vt(v) => Some(v),
            Backend::Plain(_) => None,
        }
    }

    /// The transaction-time shard. Panics on a valid-time tenant — callers
    /// on mixed paths must branch on [`Tenant::is_vt`] first.
    pub fn shard(&self) -> &Shard {
        match &self.backend {
            Backend::Plain(s) => s,
            Backend::Vt(_) => panic!("valid-time tenant has no transaction-time shard"),
        }
    }

    /// Registers every rule in `source`, all or nothing, returning the
    /// registered names and any lint findings recorded for them (rendered
    /// as text). A durable tenant logs the source as one record (see the
    /// module docs); a refused source — a name registered or taken twice
    /// included — logs nothing.
    pub fn register_rules(&mut self, source: &str) -> Result<(Vec<String>, Vec<String>)> {
        let rules = rules_from_source(source)?;
        if rules.is_empty() {
            return Err(ServerError::Remote {
                code: ErrorCode::Parse,
                message: "rule source contains no rules".into(),
            });
        }
        let registered: Vec<String> = rules.iter().map(|r| r.name.clone()).collect();
        match &mut self.backend {
            Backend::Vt(v) => {
                v.vt_mut().add_rules(&rules)?;
                // Valid-time rules skip the transaction-time lint pass; the
                // stream's confirm/retract protocol is the safety story.
                let findings = vec![format!(
                    "valid-time: {} rule(s) registered as tentative stream rules (Δ = {})",
                    registered.len(),
                    v.vt().engine().max_delay()
                )];
                Ok((registered, findings))
            }
            Backend::Plain(shard) => {
                let findings_before = shard.adb().lint_findings().len();
                (shard.adb_mut().register_rules(rules)).map_err(|e| match e {
                    tdb_core::CoreError::LintDenied { .. } => ServerError::Remote {
                        code: ErrorCode::Lint,
                        message: e.to_string(),
                    },
                    other => ServerError::Core(other),
                })?;
                let mut findings: Vec<String> = shard.adb().lint_findings()[findings_before..]
                    .iter()
                    .map(|d| d.to_string())
                    .collect();
                // Report the post-registration batch-safety certificate with
                // the findings so clients learn what group commits may fuse.
                findings.push(format!("batch-safety: {}", shard.adb().batch_certificate()));
                Ok((registered, findings))
            }
        }
    }

    /// The tenant's current batch-safety certificate. Valid-time commits
    /// are never certified for fused evaluation, so vt tenants report
    /// `CascadeRequired`.
    pub fn batch_certificate(&self) -> tdb_core::BatchCertificate {
        match &self.backend {
            Backend::Plain(s) => s.adb().batch_certificate(),
            Backend::Vt(_) => tdb_core::BatchCertificate::CascadeRequired,
        }
    }

    /// Applies one logical op (see [`Shard::apply`]). The server commits
    /// through [`Tenant::apply_batch`]; this is the per-op oracle it is
    /// checked against.
    pub fn apply(&mut self, op: &LogicalOp) -> Result<ApplyOutcome> {
        let applied = match &mut self.backend {
            Backend::Plain(s) => s.apply(op),
            Backend::Vt(v) => v.apply(op),
        };
        applied.map_err(ServerError::Core)
    }

    /// Applies `ops` as one atomic group commit (see [`Shard::apply_batch`]):
    /// one WAL record, one fsync, one evaluation slice. Returns one outcome
    /// per op, firings attributed to the op whose state produced them. A
    /// refused member refuses the whole group before anything is logged.
    pub fn apply_batch(&mut self, ops: &[LogicalOp]) -> Result<Vec<ApplyOutcome>> {
        let applied = match &mut self.backend {
            Backend::Plain(s) => s.apply_batch(ops),
            Backend::Vt(v) => v.apply_batch(ops),
        };
        applied.map_err(ServerError::Core)
    }

    /// The streaming ingest path (valid-time tenants only): clock to the
    /// arrival instant, ingest at the explicit valid time, return the new
    /// watermark plus the phase-tagged stream events.
    pub fn commit_at(
        &mut self,
        arrival: Timestamp,
        valid: Timestamp,
        ops: Vec<WriteOp>,
    ) -> Result<(Timestamp, Vec<VtFiringEvent>)> {
        match &mut self.backend {
            Backend::Vt(v) => {
                let events = v.vt_mut().commit_at(arrival, valid, ops)?;
                Ok((v.vt().watermark(), events))
            }
            Backend::Plain(_) => Err(ServerError::Remote {
                code: ErrorCode::Unsupported,
                message: format!(
                    "tenant `{}` is not a valid-time tenant; CommitAt needs CreateVtTenant",
                    self.name
                ),
            }),
        }
    }

    /// The watermark `W = now − Δ`, when this is a valid-time tenant.
    pub fn watermark(&self) -> Option<Timestamp> {
        match &self.backend {
            Backend::Vt(v) => Some(v.vt().watermark()),
            Backend::Plain(_) => None,
        }
    }

    /// Drains stream events buffered by generic applies on a valid-time
    /// tenant (empty on plain tenants).
    pub fn drain_vt_events(&mut self) -> Vec<VtFiringEvent> {
        match &mut self.backend {
            Backend::Vt(v) => v.drain_events(),
            Backend::Plain(_) => Vec::new(),
        }
    }

    /// The firing log from index `from`: executed triggers on plain
    /// tenants, the *confirmed* (definite) stream on valid-time tenants.
    pub fn firings_from(&self, from: usize) -> Vec<FiringRecord> {
        match &self.backend {
            Backend::Plain(s) => s.firings_from(from),
            Backend::Vt(v) => v.vt().confirmed_from(from),
        }
    }

    /// Graceful-shutdown persistence: cut a checkpoint on a durable plain
    /// tenant, fsync the log on a durable valid-time one.
    pub fn checkpoint_now(&mut self) -> Result<()> {
        match &mut self.backend {
            Backend::Plain(s) => {
                if self.dir.is_some() {
                    s.adb_mut().checkpoint_now().map_err(ServerError::Core)?;
                }
                Ok(())
            }
            Backend::Vt(v) => v.vt_mut().sync().map_err(ServerError::Core),
        }
    }

    /// Evaluates ad-hoc query text against the tenant's current database.
    pub fn query(&self, text: &str, params: &[Value]) -> Result<Relation> {
        let db = match &self.backend {
            Backend::Plain(s) => s.adb().db(),
            Backend::Vt(_) => {
                return Err(ServerError::Remote {
                    code: ErrorCode::Unsupported,
                    message: format!(
                        "tenant `{}` is a valid-time tenant; ad-hoc queries over the \
                         versioned history are not served over the wire",
                        self.name
                    ),
                })
            }
        };
        let q = parse_query(text).map_err(|e| ServerError::Remote {
            code: ErrorCode::Parse,
            message: e.to_string(),
        })?;
        q.eval(db, params).map_err(|e| ServerError::Remote {
            code: ErrorCode::Internal,
            message: e.to_string(),
        })
    }

    /// Total bytes under the tenant's durable directory (0 when volatile).
    pub fn wal_bytes(&self) -> u64 {
        let Some(dir) = &self.dir else { return 0 };
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .flatten()
            .filter_map(|e| e.metadata().ok())
            .filter(|m| m.is_file())
            .map(|m| m.len())
            .sum()
    }

    pub fn stats(&self) -> ShardStats {
        match &self.backend {
            Backend::Plain(s) => s.stats(),
            Backend::Vt(v) => v.stats(),
        }
    }

    /// Sets the O(1) gauges — states, live states, rules, firings,
    /// certificate, watermark — from the tenant's current state. Called after every
    /// commit.
    pub fn publish_gauges(&self) {
        let quick = match &self.backend {
            Backend::Plain(s) => s.quick_stats(),
            Backend::Vt(v) => v.stats(),
        };
        self.gauges.set_quick(&quick, self.watermark());
    }

    /// Computes the exact stats — including `retained` (a walk over every
    /// evaluator's residual DAG) and the on-disk byte count (a `read_dir`)
    /// — publishes all gauges from them, and returns them. Called on the
    /// poller's sweep tick and to answer `TenantStats`.
    pub fn refresh_gauges(&self) -> (ShardStats, u64) {
        let (stats, wal_bytes) = (self.stats(), self.wal_bytes());
        self.gauges.set_quick(&stats, self.watermark());
        self.gauges.set_slow(stats.retained, wal_bytes);
        (stats, wal_bytes)
    }
}

pub(crate) fn storage_err(path: &Path, e: impl std::fmt::Display) -> ServerError {
    ServerError::Storage(format!("{}: {e}", path.display()))
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use tdb_core::rules::RuleKind;
    use tdb_core::VtPhase;
    use tdb_engine::WriteOp;

    const SRC: &str = "rule watch { when n() >= 5; then notify; }\n\
                       rule cap { when n() <= 10; then abort; }\n";

    fn seed_ops() -> Vec<LogicalOp> {
        vec![
            LogicalOp::SetItem {
                name: "n".into(),
                value: Value::Int(0),
            },
            LogicalOp::DefineQuery {
                name: "n".into(),
                def: tdb_relation::QueryDef::new(0, parse_query("item n").unwrap()),
            },
        ]
    }

    #[test]
    fn maps_actions_onto_core_rules() {
        let rules = rules_from_source(SRC).unwrap();
        assert_eq!(rules[0].kind, RuleKind::Trigger);
        assert!(matches!(rules[0].action, Action::Notify));
        assert_eq!(rules[1].kind, RuleKind::Constraint);

        let dbops =
            rules_from_source("rule r { when n() > 0; then set m := n() + 1, insert log(time); }")
                .unwrap();
        match &dbops[0].action {
            Action::DbOps(ops) => assert_eq!(ops.len(), 2),
            other => panic!("expected DbOps, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_actions_are_typed_errors() {
        for (then, expected, frag) in [
            // A rule is data: there is no host-program action to refuse.
            ("program p", ErrorCode::Parse, "expected an action"),
            ("signal s", ErrorCode::Unsupported, "signal"),
            ("notify, abort", ErrorCode::Unsupported, "abort"),
        ] {
            let src = format!("rule r {{ when true; then {then}; }}");
            match rules_from_source(&src).unwrap_err() {
                ServerError::Remote { code, message } => {
                    assert_eq!(code, expected, "{message}");
                    assert!(message.contains(frag), "{message}");
                }
                other => panic!("expected remote error, got {other}"),
            }
        }
    }

    /// Dropping a tenant frees what it interned — its arena goes with its
    /// context — and touches nothing a neighbour holds.
    #[test]
    fn dropping_a_tenant_frees_its_context() {
        const RETAINING: &str = "rule held { when (n() >= 5) since (n() >= 20); then notify; }\n\
             rule seen { when [t := time] previously(n() >= 20 and time >= t - 8); \
             then notify; }\n";
        let build = |name: &str| {
            let mut t = Tenant::volatile(name, ManagerConfig::default());
            for op in seed_ops() {
                assert!(t.apply(&op).unwrap().ok());
            }
            t.register_rules(RETAINING).unwrap();
            for v in [25, 7, 3] {
                t.apply(&LogicalOp::AdvanceClock { delta: 1 }).unwrap();
                let set = WriteOp::SetItem {
                    item: "n".into(),
                    value: Value::Int(v),
                };
                assert!(t.apply(&LogicalOp::Update { ops: vec![set] }).unwrap().ok());
            }
            assert!(t.stats().retained > 0, "the catalog retains formula state");
            t
        };
        let (gone, stays) = (build("gone"), build("stays"));
        let ctx = std::sync::Arc::downgrade(gone.shard().adb().eval_context());
        let neighbour = stays.shard().adb().eval_context().stats();
        assert!(neighbour.nodes_resident > 2, "{neighbour:?}");
        drop(gone);
        assert!(
            ctx.upgrade().is_none(),
            "a dropped tenant must not leave its arena behind"
        );
        assert_eq!(stays.shard().adb().eval_context().stats(), neighbour);
    }

    /// A source registers whole or not at all, on a volatile and on a
    /// durable tenant: a second rule reading an undefined query refuses
    /// the first too, logs nothing, and the corrected source registers
    /// both.
    #[test]
    fn a_refused_source_registers_none_of_its_rules() {
        let dir = std::env::temp_dir().join(format!("tdb-tenant-whole-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = CheckpointPolicy {
            sync: tdb_core::SyncPolicy::Always,
            ..Default::default()
        };
        let durable = Tenant::durable("acme", &dir, ManagerConfig::default(), policy).unwrap();
        for mut t in [Tenant::volatile("acme", ManagerConfig::default()), durable] {
            for op in seed_ops() {
                assert!(t.apply(&op).unwrap().ok());
            }
            let (rules, bytes) = (t.stats().rules, t.wal_bytes());
            let bad = "rule a { when n() >= 5; then notify; }\n\
                       rule b { when undefined_q() > 0; then notify; }";
            assert!(t.register_rules(bad).is_err());
            assert_eq!((t.stats().rules, t.wal_bytes()), (rules, bytes));
            let good = "rule a { when n() >= 5; then notify; }\n\
                        rule b { when n() > 0; then notify; }";
            let (names, _) = t.register_rules(good).unwrap();
            assert_eq!(names, ["a", "b"]);
            assert_eq!(t.stats().rules, rules + 2);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A later rule of a source may read `executed` of an earlier one.
    #[test]
    fn a_rule_may_read_executed_of_an_earlier_rule_of_its_source() {
        let mut t = Tenant::volatile("acme", ManagerConfig::default());
        for op in seed_ops() {
            assert!(t.apply(&op).unwrap().ok());
        }
        let src = "rule a { when n() >= 5; then notify; }\n\
                   rule b { when executed(a, s) and n() >= 6; then notify; }";
        let (names, _) = t.register_rules(src).unwrap();
        assert_eq!(names, ["a", "b"]);
        for v in [5, 6] {
            t.apply(&LogicalOp::AdvanceClock { delta: 1 }).unwrap();
            let set = WriteOp::SetItem {
                item: "n".into(),
                value: Value::Int(v),
            };
            assert!(t.apply(&LogicalOp::Update { ops: vec![set] }).unwrap().ok());
        }
        let fired: Vec<String> = t.firings_from(0).into_iter().map(|f| f.rule).collect();
        assert_eq!(fired, ["a", "b"]);
    }

    /// A transaction open when the process dies is aborted at reopen,
    /// through a logged abort: the tenant reopens, commits and reopens
    /// again, and the transaction's buffered write never lands.
    #[test]
    fn a_transaction_open_at_a_crash_is_aborted_at_reopen() {
        let dir = std::env::temp_dir().join(format!("tdb-tenant-open-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = CheckpointPolicy::default();
        let open = |t: &Tenant| t.shard().adb().engine().open_txns().count();
        let n = |t: &Tenant| t.query("item n", &[]).unwrap();
        let set = |v| LogicalOp::Update {
            ops: vec![WriteOp::SetItem {
                item: "n".into(),
                value: Value::Int(v),
            }],
        };

        let mut t = Tenant::durable("acme", &dir, ManagerConfig::default(), policy).unwrap();
        for op in seed_ops() {
            assert!(t.apply(&op).unwrap().ok());
        }
        assert!(t.apply(&LogicalOp::Begin).unwrap().ok());
        let txn = t.shard().adb().engine().open_txns().next().unwrap();
        let op = WriteOp::SetItem {
            item: "n".into(),
            value: Value::Int(9),
        };
        assert!(t.apply(&LogicalOp::Write { txn, op }).unwrap().ok());
        drop(t); // crash with the transaction open

        let mut t = Tenant::durable("acme", &dir, ManagerConfig::default(), policy).unwrap();
        assert_eq!((open(&t), n(&t)), (0, Relation::scalar(Value::Int(0))));
        assert!(t.apply(&set(3)).unwrap().ok());
        drop(t);

        let t = Tenant::durable("acme", &dir, ManagerConfig::default(), policy).unwrap();
        assert_eq!((open(&t), n(&t)), (0, Relation::scalar(Value::Int(3))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_tenant_recovers_rules_and_firings() {
        let dir = std::env::temp_dir().join(format!("tdb-tenant-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = CheckpointPolicy {
            sync: tdb_core::SyncPolicy::Always,
            ..Default::default()
        };

        let mut t = Tenant::durable("acme", &dir, ManagerConfig::default(), policy).unwrap();
        for op in seed_ops() {
            assert!(t.apply(&op).unwrap().ok());
        }
        let (names, _) = t.register_rules(SRC).unwrap();
        assert_eq!(names, vec!["watch".to_string(), "cap".to_string()]);
        t.apply(&LogicalOp::AdvanceClock { delta: 1 }).unwrap();
        let out = t
            .apply(&LogicalOp::Update {
                ops: vec![WriteOp::SetItem {
                    item: "n".into(),
                    value: Value::Int(7),
                }],
            })
            .unwrap();
        assert_eq!(out.firings.len(), 1);
        let firings = t.shard().firings_from(0);
        assert!(t.wal_bytes() > 0);
        drop(t);

        let t2 = Tenant::durable("acme", &dir, ManagerConfig::default(), policy).unwrap();
        assert!(t2.recovery.is_some());
        assert_eq!(t2.stats().rules, 2);
        assert_eq!(t2.shard().firings_from(0), firings);
        assert_eq!(
            t2.query("item n", &[]).unwrap(),
            Relation::scalar(Value::Int(7))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- valid-time tenants ------------------------------------------------

    fn seed_vt(t: &mut Tenant) {
        for op in seed_ops() {
            assert!(t.apply(&op).unwrap().ok());
        }
    }

    fn set_n(v: i64) -> Vec<WriteOp> {
        vec![WriteOp::SetItem {
            item: "n".into(),
            value: Value::Int(v),
        }]
    }

    fn insert_into_nope() -> Vec<WriteOp> {
        vec![WriteOp::Insert {
            relation: "nope".into(),
            tuple: tdb_relation::tuple![1i64],
        }]
    }

    fn vt(t: &Tenant) -> &tdb_core::VtActiveDatabase {
        t.vt().unwrap().vt()
    }

    /// Every file of `dir` with its bytes.
    fn dir_files(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
        (std::fs::read_dir(dir).unwrap())
            .map(|e| e.unwrap())
            .map(|e| {
                (
                    e.file_name().into_string().unwrap(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn stream_ingest_fires_and_confirms() {
        let mut t = Tenant::volatile_vt("vt", 2);
        seed_vt(&mut t);
        let (names, _) = t.register_rules(SRC).unwrap();
        assert_eq!(names, vec!["watch".to_string(), "cap".to_string()]);

        let (_, events) = t.commit_at(Timestamp(3), Timestamp(3), set_n(7)).unwrap();
        assert!(events.iter().any(|e| e.phase == VtPhase::Tentative));
        // Push the watermark past the firing: it must confirm.
        let (wm, events) = t.commit_at(Timestamp(9), Timestamp(9), set_n(6)).unwrap();
        assert!(wm > Timestamp(3));
        assert!(events
            .iter()
            .any(|e| e.phase == VtPhase::Confirmed && e.record.rule == "watch"));
        assert_eq!(t.firings_from(0).len(), 1);
    }

    #[test]
    fn constraint_vetoes_ingest() {
        let mut t = Tenant::volatile_vt("vt", 4);
        seed_vt(&mut t);
        t.register_rules(SRC).unwrap();
        let err = t
            .commit_at(Timestamp(2), Timestamp(2), set_n(99))
            .unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
    }

    #[test]
    fn inapplicable_ingest_is_a_typed_rejection() {
        let mut t = Tenant::volatile_vt("vt", 4);
        seed_vt(&mut t);
        t.register_rules(SRC).unwrap();
        t.commit_at(Timestamp(2), Timestamp(2), set_n(7)).unwrap();
        let window = vt(&t).engine().tentative_history();
        let stream = vt(&t).stream_log().to_vec();

        let err = t
            .commit_at(Timestamp(3), Timestamp(3), insert_into_nope())
            .unwrap_err();
        assert!(
            matches!(&err, ServerError::Core(e) if e.is_deterministic()),
            "{err}"
        );
        assert!(err.to_string().contains("nope"), "{err}");
        // Only the clock moved: window and stream are as they were.
        assert_eq!(vt(&t).now(), Timestamp(3));
        let after = vt(&t).engine().tentative_window();
        assert_eq!(after.len(), window.len());
        assert_eq!(after.get(0), window.get(0));
        assert_eq!(vt(&t).stream_log(), &stream[..]);

        // The tenant keeps ingesting, at the rejected instant too.
        let (_, events) = t.commit_at(Timestamp(3), Timestamp(3), set_n(8)).unwrap();
        assert!(events.iter().any(|e| e.phase == VtPhase::Tentative));
    }

    #[test]
    fn rejects_transaction_time_ops_before_the_wal() {
        let mut t = Tenant::volatile_vt("vt", 2);
        let err = t.apply(&LogicalOp::Update { ops: set_n(1) }).unwrap_err();
        assert!(matches!(
            err,
            ServerError::Core(tdb_core::CoreError::RefusedOp { .. })
        ));
    }

    #[test]
    fn durable_tenant_recovers_past_a_logged_inapplicable_ingest() {
        let dir = std::env::temp_dir().join(format!("tdb-vtshard-nope-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut t = Tenant::durable_vt("vt", &dir, 3, SyncPolicy::Always).unwrap();
        let mut oracle = Tenant::volatile_vt("vt", 3);
        for s in [&mut t, &mut oracle] {
            seed_vt(s);
            s.register_rules(SRC).unwrap();
            s.commit_at(Timestamp(2), Timestamp(2), set_n(7)).unwrap();
            // Logged write-ahead, then rejected.
            s.commit_at(Timestamp(4), Timestamp(3), insert_into_nope())
                .unwrap_err();
            s.commit_at(Timestamp(8), Timestamp(6), set_n(9)).unwrap();
        }
        drop(t);

        // The record is in the log; replay rejects it again and carries on.
        let mut t = Tenant::durable_vt("vt", &dir, 3, SyncPolicy::Always).unwrap();
        assert_eq!(t.watermark(), oracle.watermark());
        assert_eq!(t.firings_from(0), oracle.firings_from(0));
        assert_eq!(t.stats().states, oracle.stats().states);
        assert_eq!(vt(&t).stream_log(), vt(&oracle).stream_log());
        for s in [&mut t, &mut oracle] {
            s.commit_at(Timestamp(12), Timestamp(12), set_n(2)).unwrap();
        }
        assert_eq!(t.firings_from(0), oracle.firings_from(0));
        assert_eq!(t.firings_from(1), oracle.firings_from(0)[1..]);
        let _ = std::fs::remove_dir_all(&dir);
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
            std::fs::write(dir.join(tdb_storage::VT_META_FILE), "3\n").unwrap();
            if let Some(file) = extra {
                std::fs::write(dir.join(file), "").unwrap();
            }
            let mut t = Tenant::durable_vt("vt", &dir, 9, SyncPolicy::Always).unwrap();
            assert_eq!((vt(&t).engine().max_delay(), t.stats().rules), (3, 0));
            seed_vt(&mut t);
            t.register_rules(SRC).unwrap();
            t.commit_at(Timestamp(2), Timestamp(2), set_n(7)).unwrap();
            let stats = t.stats();
            drop(t);
            let t = Tenant::durable_vt("vt", &dir, 9, SyncPolicy::Always).unwrap();
            assert_eq!(t.stats(), stats);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn durable_vt_tenant_recovers_watermark_and_stream() {
        let dir = std::env::temp_dir().join(format!("tdb-vtshard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut t = Tenant::durable_vt("vt", &dir, 3, SyncPolicy::Always).unwrap();
        seed_vt(&mut t);
        t.register_rules(SRC).unwrap();
        t.commit_at(Timestamp(2), Timestamp(2), set_n(7)).unwrap();
        t.commit_at(Timestamp(8), Timestamp(6), set_n(3)).unwrap();
        let confirmed = t.firings_from(0);
        let wm = t.watermark();
        drop(t);

        // Reopen: Δ comes from vt.meta (the argument is ignored), and the
        // replayed history reproduces watermark + confirmed log exactly.
        let t2 = Tenant::durable_vt("vt", &dir, 999, SyncPolicy::Always).unwrap();
        assert_eq!(vt(&t2).engine().max_delay(), 3);
        assert_eq!(t2.watermark(), wm);
        assert_eq!(t2.firings_from(0), confirmed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Opening a directory that holds a transaction-time tenant as a
    /// valid-time one is `TenantExists`, and leaves every byte of it as it
    /// was; the directory still reopens as the plain tenant it is.
    #[test]
    fn a_transaction_time_directory_is_refused_as_a_valid_time_tenant() {
        let dir = std::env::temp_dir().join(format!("tdb-tenant-kind-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = CheckpointPolicy {
            sync: SyncPolicy::Always,
            ..Default::default()
        };
        let mut t = Tenant::durable("acme", &dir, ManagerConfig::default(), policy).unwrap();
        seed_vt(&mut t);
        t.register_rules(SRC).unwrap();
        drop(t);
        let before = dir_files(&dir);

        match Tenant::durable_vt("acme", &dir, 3, SyncPolicy::Always).unwrap_err() {
            ServerError::Remote { code, message } => {
                assert_eq!(code, ErrorCode::TenantExists, "{message}");
                assert!(message.contains("transaction-time"), "{message}");
            }
            other => panic!("expected TenantExists, got {other}"),
        }
        assert!(
            dir_files(&dir) == before,
            "a refused open touched the directory"
        );
        let t = Tenant::durable("acme", &dir, ManagerConfig::default(), policy).unwrap();
        assert!(!t.is_vt());
        assert_eq!(t.stats().rules, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

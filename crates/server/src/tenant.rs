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
//! A durable tenant owns one directory: the WAL + checkpoints managed by
//! [`FileStorage`], plus `rules.tdbr` — an append-only file of every rule
//! source a registration got as far as attempting. The source is appended
//! and synced *before* the first `AddRule` record reaches the WAL, so
//! recovery can always rebuild a catalog holding every rule the log's
//! `AddRule` records name (a crash between the two leaves an unused catalog
//! entry, never a dangling `AddRule`). The WAL only ever names rules that registered
//! (`ActiveDatabase::add_rule` logs after validation), and a source naming
//! an already-registered rule is refused before it is appended — so where
//! the file defines a name more than once, the earlier definitions are
//! rejected or never-attempted leftovers and the **last** one is the rule
//! that registered. Recovery resolves names that way, and only recovery
//! reads the file: a live tenant keeps no rule catalog. `AddRule` and
//! `Firing` are log records the tenant writes itself; sent as ops, alone
//! or in a batch, they are refused before the WAL (`ErrorCode::Unsupported`).

use std::io::Write as _;
use std::path::{Path, PathBuf};

use tdb_analysis::{parse_rule_file_full, ParsedAction, ParsedRule};
use tdb_core::manager::ManagerConfig;
use tdb_core::rules::{Action, ActionOp, FiringRecord, Rule};
use tdb_core::shard::{ApplyOutcome, Shard, ShardStats};
use tdb_core::storage::LogicalOp;
use tdb_core::{SyncPolicy, VtFiringEvent};
use tdb_engine::WriteOp;
use tdb_relation::{parse_query, Relation, Timestamp, Value};
use tdb_storage::{CheckpointPolicy, FileStorage, RecoveryReport};

use crate::metrics::TenantGauges;
use crate::vtshard::{VtShard, VT_META_FILE};
use crate::wire::ErrorCode;
use crate::{Result, ServerError};

/// File (inside a durable tenant's directory) accumulating registered rule
/// sources, one newline-separated block per registration.
pub const RULES_FILE: &str = "rules.tdbr";

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
    /// `Some` for durable tenants: the directory holding WAL segments,
    /// checkpoints and `rules.tdbr`.
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
        let shard = VtShard::volatile(max_delay);
        Tenant::assemble(name.into(), Backend::Vt(shard), None)
    }

    /// Creates a durable tenant under `dir` (which must not already hold
    /// one) — or, when `dir` contains a previous incarnation, recovers it:
    /// re-parses `rules.tdbr` into the catalog, replays checkpoint + WAL,
    /// and resumes appending. A directory marked by `vt.meta` reopens as a
    /// valid-time tenant (the kind is a property of the data, not of the
    /// request that happened to trigger the reopen).
    pub fn durable(
        name: impl Into<String>,
        dir: &Path,
        cfg: ManagerConfig,
        policy: CheckpointPolicy,
    ) -> Result<Tenant> {
        let name = name.into();
        if dir.join(VT_META_FILE).exists() {
            // Δ comes from the marker file; the argument 0 is ignored.
            return Tenant::reopen_vt(name, dir, policy.sync);
        }
        let rules_path = dir.join(RULES_FILE);
        if rules_path.exists() {
            return Tenant::reopen(name, dir, cfg, policy);
        }
        std::fs::create_dir_all(dir).map_err(|e| storage_err(dir, e))?;
        let storage = FileStorage::create(dir, policy)
            .map_err(|e| ServerError::Storage(format!("{}: {e}", dir.display())))?;
        std::fs::write(&rules_path, b"").map_err(|e| storage_err(dir, e))?;
        let shard = Shard::durable(tdb_relation::Database::new(), cfg, Box::new(storage))?;
        Ok(Tenant::assemble(name, Backend::Plain(shard), Some(dir)))
    }

    /// Creates (or reopens) a durable *valid-time* tenant under `dir`.
    pub fn durable_vt(
        name: impl Into<String>,
        dir: &Path,
        max_delay: i64,
        sync: SyncPolicy,
    ) -> Result<Tenant> {
        let shard = VtShard::durable(dir, max_delay, sync)?;
        Ok(Tenant::assemble(name.into(), Backend::Vt(shard), Some(dir)))
    }

    fn reopen_vt(name: String, dir: &Path, sync: SyncPolicy) -> Result<Tenant> {
        let shard = VtShard::durable(dir, 0, sync)?;
        Ok(Tenant::assemble(name, Backend::Vt(shard), Some(dir)))
    }

    fn reopen(
        name: String,
        dir: &Path,
        cfg: ManagerConfig,
        policy: CheckpointPolicy,
    ) -> Result<Tenant> {
        let source =
            std::fs::read_to_string(dir.join(RULES_FILE)).map_err(|e| storage_err(dir, e))?;
        // The persisted catalog may be a superset of the replayed `AddRule`
        // records (rejected sources, a crash between rule-file sync and WAL
        // append) — that is fine: recovery resolves ops against it by name,
        // the last definition of a name winning.
        let catalog = rules_from_source(&source)?;
        let recovered = tdb_storage::recover_durable(dir, &catalog, cfg, policy)
            .map_err(|e| ServerError::Storage(format!("{}: {e}", dir.display())))?;
        let shard = Shard::new(recovered.adb);
        let mut tenant = Tenant::assemble(name, Backend::Plain(shard), Some(dir));
        tenant.recovery = Some(recovered.report);
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

    /// Registers every rule in `source`, returning the registered names and
    /// any lint findings recorded for them (rendered as text). For durable
    /// tenants the source is appended to `rules.tdbr` and synced *before*
    /// the first registration logs its `AddRule`. A source that names a
    /// registered rule, or one name twice, is refused whole and leaves the
    /// file alone (the module docs say what recovery makes of that).
    pub fn register_rules(&mut self, source: &str) -> Result<(Vec<String>, Vec<String>)> {
        let rules = rules_from_source(source)?;
        if rules.is_empty() {
            return Err(ServerError::Remote {
                code: ErrorCode::Parse,
                message: "rule source contains no rules".into(),
            });
        }
        let mut names = std::collections::HashSet::new();
        for rule in &rules {
            let registered = match &self.backend {
                Backend::Plain(shard) => shard.adb().rule(&rule.name).is_some(),
                Backend::Vt(v) => v.vt().has_rule(&rule.name),
            };
            if registered || !names.insert(rule.name.as_str()) {
                return Err(ServerError::Core(tdb_core::CoreError::DuplicateRule(
                    rule.name.clone(),
                )));
            }
        }
        if let Some(dir) = &self.dir {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join(RULES_FILE))
                .map_err(|e| storage_err(dir, e))?;
            f.write_all(source.as_bytes())
                .and_then(|()| f.write_all(b"\n"))
                .and_then(|()| f.sync_all())
                .map_err(|e| storage_err(dir, e))?;
        }
        match &mut self.backend {
            Backend::Vt(v) => {
                let registered = v.register_rules(rules)?;
                // Valid-time rules skip the transaction-time lint pass; the
                // stream's confirm/retract protocol is the safety story.
                let findings = vec![format!(
                    "valid-time: {} rule(s) registered as tentative stream rules (Δ = {})",
                    registered.len(),
                    v.max_delay()
                )];
                Ok((registered, findings))
            }
            Backend::Plain(shard) => {
                let findings_before = shard.adb().lint_findings().len();
                let mut registered = Vec::with_capacity(rules.len());
                for rule in rules {
                    let name = rule.name.clone();
                    shard.add_rule(rule).map_err(|e| match e {
                        tdb_core::CoreError::LintDenied { .. } => ServerError::Remote {
                            code: ErrorCode::Lint,
                            message: e.to_string(),
                        },
                        other => ServerError::Core(other),
                    })?;
                    registered.push(name);
                }
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
        match &mut self.backend {
            Backend::Plain(s) => s.apply(op).map_err(ServerError::Core),
            Backend::Vt(v) => v.apply(op),
        }
    }

    /// Applies `ops` as one atomic group commit (see [`Shard::apply_batch`]):
    /// one WAL record, one fsync, one evaluation slice. Returns one outcome
    /// per op, firings attributed to the op whose state produced them. A
    /// refused member refuses the whole group before anything is logged.
    pub fn apply_batch(&mut self, ops: &[LogicalOp]) -> Result<Vec<ApplyOutcome>> {
        match &mut self.backend {
            Backend::Plain(s) => s.apply_batch(ops).map_err(ServerError::Core),
            Backend::Vt(v) => v.apply_batch(ops),
        }
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
            Backend::Vt(v) => v.commit_at(arrival, valid, ops),
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
            Backend::Vt(v) => Some(v.watermark()),
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
            Backend::Vt(v) => v.firings_from(from),
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
            Backend::Vt(v) => v.sync(),
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
            Backend::Vt(v) => v.quick_stats(),
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

fn storage_err(dir: &Path, e: std::io::Error) -> ServerError {
    ServerError::Storage(format!("{}: {e}", dir.display()))
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use tdb_core::rules::RuleKind;
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
}

//! In-process tenants: the server's own [`Tenant`] layer driven directly,
//! sequentially and per op. The end-to-end run checks the server's first
//! firings against it (the oracle); the traced run uses it as the request
//! total the per-layer spans must add up to.

use std::path::Path;

use tdb_core::{CascadeMode, LintLevel, LogicalOp, ManagerConfig, SyncPolicy};
use tdb_server::tenant::Tenant;
use tdb_server::Request;
use tdb_storage::CheckpointPolicy;

use crate::drive::{Fired, Result};
use crate::gen::{self, Shape, Workload};

/// The manager configuration `tdb-server` gives every tenant by default.
pub fn manager_config() -> ManagerConfig {
    ManagerConfig {
        lint: LintLevel::Warn,
        cascade: CascadeMode::Eager,
        ..ManagerConfig::default()
    }
}

/// The checkpoint policy `tdb-server` gives durable tenants by default.
pub fn checkpoint_policy(sync: SyncPolicy) -> CheckpointPolicy {
    CheckpointPolicy {
        sync,
        ..CheckpointPolicy::default()
    }
}

/// A tenant without schema or rules: volatile, or durable under `dir`.
pub fn bare_tenant(w: &Workload, dir: Option<&Path>) -> Result<Tenant> {
    let t = match (w.shape, dir) {
        (Shape::CommitAt, None) => Tenant::volatile_vt("local", w.max_delay),
        (Shape::CommitAt, Some(d)) => {
            Tenant::durable_vt("local", d, w.max_delay, SyncPolicy::Always)
                .map_err(|e| e.to_string())?
        }
        (_, None) => Tenant::volatile("local", manager_config()),
        (_, Some(d)) => Tenant::durable(
            "local",
            d,
            manager_config(),
            checkpoint_policy(SyncPolicy::Always),
        )
        .map_err(|e| e.to_string())?,
    };
    Ok(t)
}

/// Applies the schema seed (every op must succeed).
pub fn seed(t: &mut Tenant, w: &Workload) -> Result<()> {
    for op in gen::seed_ops(w) {
        let out = t.apply(&op).map_err(|e| e.to_string())?;
        out.result
            .map_err(|e| format!("schema seed rejected: {e}"))?;
    }
    Ok(())
}

/// A tenant set up exactly as the wire set-up leaves one.
pub fn tenant(w: &Workload, dir: Option<&Path>) -> Result<Tenant> {
    let mut t = bare_tenant(w, dir)?;
    seed(&mut t, w)?;
    t.register_rules(&gen::rule_source(w))
        .map_err(|e| e.to_string())?;
    Ok(t)
}

/// The logical ops a commit request carries (empty for `CommitAt`, which
/// has its own entry point).
pub fn request_ops(req: &Request) -> &[LogicalOp] {
    match req {
        Request::Commit { ops, .. } | Request::CommitBatch { ops, .. } => ops,
        _ => &[],
    }
}

/// Applies one generated request op by op — the sequential schedule every
/// server path (coalesced, batched, pipelined) must reproduce — and returns
/// what it fired, in the shape the wire acks it.
pub fn apply_per_op(t: &mut Tenant, req: &Request) -> Result<Vec<Fired>> {
    if let Request::CommitAt {
        arrival,
        valid,
        ops,
        ..
    } = req
    {
        let (_, events) = t
            .commit_at(*arrival, *valid, ops.clone())
            .map_err(|e| e.to_string())?;
        return Ok(events.into_iter().map(Fired::Vt).collect());
    }
    let mut fired = Vec::new();
    for op in request_ops(req) {
        let out = t.apply(op).map_err(|e| e.to_string())?;
        out.result.map_err(|e| format!("op rejected: {e}"))?;
        fired.extend(out.firings.into_iter().map(Fired::Plain));
    }
    Ok(fired)
}

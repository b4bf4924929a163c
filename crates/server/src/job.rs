//! What travels a worker queue: the one request-carrying [`Job`] (plus the
//! housekeeping sweep), the [`Reply`] that says where its answer goes, and
//! the small request/response helpers both the router and the workers use.

use std::time::Instant;

use crate::config::SharedWriter;
use crate::metrics::ServerMetrics;
use crate::wire::{encode_response, write_frame, ErrorCode, Request, Response};
use crate::ServerError;

/// Where a request's one answer goes: onto its connection's writer, under
/// the request's id, counted under the request's kind.
pub(crate) struct Reply {
    pub(crate) id: u64,
    pub(crate) kind: &'static str,
    pub(crate) writer: SharedWriter,
    pub(crate) t0: Option<Instant>,
}

impl Reply {
    /// The single reply site: observe the request, write its frame.
    pub(crate) fn send(self, metrics: &ServerMetrics, resp: &Response) {
        let ok = !matches!(resp, Response::Error { .. });
        metrics.observe_request(self.kind, self.t0, ok);
        send_response(&self.writer, self.id, resp);
    }
}

/// One unit of work for a shard worker.
pub(crate) enum Job {
    /// A client request: the worker services it and writes the response
    /// frame to the connection itself — nobody blocks on the shard pool.
    Request { req: Request, reply: Reply },
    /// Periodic housekeeping: drop subscribers whose connection is
    /// already known dead (killed outbound queues), so a tenant that
    /// stops firing doesn't pin dead buffers or inflate the gauge; and
    /// refresh each tenant's `retained` / `wal_bytes` gauges, which cost a
    /// walk and a `read_dir` and so are not set per commit.
    Sweep,
}

pub(crate) fn internal(msg: &str) -> ServerError {
    ServerError::Remote {
        code: ErrorCode::Internal,
        message: msg.into(),
    }
}

pub(crate) fn no_such_tenant(tenant: &str) -> ServerError {
    ServerError::Remote {
        code: ErrorCode::NoSuchTenant,
        message: format!("no tenant `{tenant}`"),
    }
}

/// The tenant a wire request addresses, if any.
pub(crate) fn request_tenant(req: &Request) -> Option<&str> {
    match req {
        Request::RegisterRule { tenant, .. }
        | Request::Commit { tenant, .. }
        | Request::CommitAt { tenant, .. }
        | Request::CommitBatch { tenant, .. }
        | Request::Query { tenant, .. }
        | Request::Snapshot { tenant }
        | Request::Firings { tenant, .. }
        | Request::SubscribeFirings { tenant }
        | Request::TenantStats { tenant } => Some(tenant),
        _ => None,
    }
}

/// Every label [`request_kind`] can return; [`ServerMetrics`] resolves one
/// counter + histogram pair per entry up front.
pub(crate) const REQUEST_KINDS: [&str; 15] = [
    "hello",
    "create_tenant",
    "create_vt_tenant",
    "list_tenants",
    "register_rule",
    "commit",
    "commit_at",
    "commit_batch",
    "query",
    "snapshot",
    "firings",
    "subscribe",
    "tenant_stats",
    "metrics",
    "shutdown",
];

/// The per-kind label a request is observed under.
pub(crate) fn request_kind(req: &Request) -> &'static str {
    match req {
        Request::Hello { .. } => "hello",
        Request::CreateTenant { .. } => "create_tenant",
        Request::CreateVtTenant { .. } => "create_vt_tenant",
        Request::ListTenants => "list_tenants",
        Request::RegisterRule { .. } => "register_rule",
        Request::Commit { .. } => "commit",
        Request::CommitAt { .. } => "commit_at",
        Request::CommitBatch { .. } => "commit_batch",
        Request::Query { .. } => "query",
        Request::Snapshot { .. } => "snapshot",
        Request::Firings { .. } => "firings",
        Request::SubscribeFirings { .. } => "subscribe",
        Request::TenantStats { .. } => "tenant_stats",
        Request::Metrics { .. } => "metrics",
        Request::Shutdown => "shutdown",
    }
}

/// Maps a [`ServerError`] onto the wire's error vocabulary.
pub(crate) fn error_response(e: ServerError) -> Response {
    let (code, message) = match e {
        ServerError::Remote { code, message } => (code, message),
        ServerError::Protocol(p) => (ErrorCode::Protocol, p.to_string()),
        ServerError::Core(c) => {
            let code = match &c {
                tdb_core::CoreError::LintDenied { .. } => ErrorCode::Lint,
                tdb_core::CoreError::Storage(_) => ErrorCode::Storage,
                tdb_core::CoreError::RefusedOp { .. } | tdb_core::CoreError::WritingTrigger(_) => {
                    ErrorCode::Unsupported
                }
                _ => ErrorCode::Internal,
            };
            (code, c.to_string())
        }
        ServerError::Storage(m) => (ErrorCode::Storage, m),
        ServerError::Invalid(m) => (ErrorCode::Protocol, m),
    };
    Response::Error { code, message }
}

/// Writes one response frame under the connection's writer lock, with
/// one flush. A dead connection is the poller's to notice; nothing here
/// waits on the outcome.
pub(crate) fn send_response(writer: &SharedWriter, id: u64, resp: &Response) {
    let payload = encode_response(id, resp);
    if let Ok(mut w) = writer.lock() {
        let _ = write_frame(&mut *w, &payload);
    }
}

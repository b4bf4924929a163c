//! # tdb-server
//!
//! A multi-tenant network server for temporal active databases. Each
//! *tenant* is one independent [`tdb_core::Shard`] — its own
//! [`tdb_core::ActiveDatabase`], rule catalog, and (when durable) its own
//! write-ahead log directory — pinned to one of a fixed pool of OS worker
//! threads and fed through a per-shard MPSC queue. Tenants on different
//! shards proceed in parallel with no shared mutable state — each owns its
//! [`tdb_core::EvalContext`] (residual arena, atom memo, program cache)
//! and its labelled gauge handles, and stays on the worker that created it;
//! tenants on the same shard serialize, which is exactly the ordering the
//! firing-log determinism guarantee needs.
//!
//! Clients speak a length-prefixed binary protocol over TCP
//! ([`wire`]): every frame is `len | crc32 | payload`, the same checksum
//! discipline the WAL uses, and payloads reuse the `tdb-storage` codec so
//! a committed batch on the wire is literally a vector of the
//! [`tdb_core::LogicalOp`]s the WAL would record. Requests: `CreateTenant`,
//! `RegisterRule` (rule-file text, lint-gated at the server's
//! [`tdb_analysis::LintLevel`]), `Commit` (a batch of logical ops),
//! `Query`, `Snapshot`, `Firings` (catch-up reads), `SubscribeFirings`
//! (firings stream back on the same connection as they happen), plus admin
//! `Metrics` (Prometheus text or JSON from the shared `tdb-obs` registry,
//! with per-tenant gauges) and `Shutdown`.
//!
//! Entry points: [`Server::start`] / [`ServerHandle`] (in-process, used by
//! tests), the `tdb-server` binary (the real daemon), and [`Client`] (a
//! blocking client). See `DESIGN.md` §12 for the shard/ownership model and
//! the wire format.

// `deny` (not `forbid`) so the one audited FFI block in [`poll`] can opt
// out locally; everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod client;
mod config;
pub mod conn;
mod job;
pub mod metrics;
pub mod poll;
pub mod runtime;
pub mod server;
pub mod tenant;
pub mod wire;
mod worker;

use std::fmt;

pub use client::{Client, CommitOutcome, TenantStats};
pub use runtime::{FrameSink, Runtime, ServerConfig, SharedWriter};
pub use server::{Server, ServerHandle};
pub use wire::{ErrorCode, ProtocolError, Request, Response, PROTOCOL_VERSION};

/// Everything that can go wrong on either side of the wire.
#[derive(Debug)]
pub enum ServerError {
    /// Transport or framing failure (I/O, checksum, malformed frame).
    Protocol(ProtocolError),
    /// The server answered with a typed error response.
    Remote { code: ErrorCode, message: String },
    /// A local (library-side) failure while servicing a request.
    Core(tdb_core::CoreError),
    /// Storage backend failure (tenant WAL, rule-source file).
    Storage(String),
    /// Invalid input that never reached a tenant (bad name, bad rule text).
    Invalid(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Protocol(e) => write!(f, "protocol failure: {e}"),
            ServerError::Remote { code, message } => {
                write!(f, "server error [{code:?}]: {message}")
            }
            ServerError::Core(e) => write!(f, "core failure: {e}"),
            ServerError::Storage(m) => write!(f, "storage failure: {m}"),
            ServerError::Invalid(m) => write!(f, "invalid input: {m}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<ProtocolError> for ServerError {
    fn from(e: ProtocolError) -> Self {
        ServerError::Protocol(e)
    }
}

impl From<tdb_core::CoreError> for ServerError {
    fn from(e: tdb_core::CoreError) -> Self {
        ServerError::Core(e)
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Protocol(ProtocolError::Io(e.to_string()))
    }
}

/// Shorthand result type.
pub type Result<T> = std::result::Result<T, ServerError>;

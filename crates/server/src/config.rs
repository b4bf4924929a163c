//! Server configuration, and the writer abstraction every reply and every
//! pushed frame goes through.

use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use tdb_analysis::LintLevel;
use tdb_core::manager::ManagerConfig;
use tdb_core::SyncPolicy;
use tdb_storage::CheckpointPolicy;

use crate::conn::{DEFAULT_OUTBUF_HARD, DEFAULT_OUTBUF_SOFT};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP listen address; use port 0 to let the OS pick (tests).
    pub addr: String,
    /// Worker threads in the shard pool.
    pub workers: usize,
    /// Root directory for durable tenants (one subdirectory each). `None`
    /// makes `CreateTenant { durable: true }` a typed error.
    pub data_dir: Option<PathBuf>,
    /// Registration-time lint level applied to every tenant's manager.
    pub lint: LintLevel,
    /// Checkpoint/sync policy for durable tenants. The default syncs on
    /// every append: an acked commit survives `SIGKILL`.
    pub checkpoint: CheckpointPolicy,
    /// Outbound queue backpressure thresholds per connection: past `soft`
    /// a stall episode is counted, past `hard` the connection is killed
    /// instead of buffering without bound.
    pub outbuf_soft_limit: usize,
    pub outbuf_hard_limit: usize,
    /// Default disorder bound Δ for valid-time tenants created without an
    /// explicit one (`CreateVtTenant { max_delay: 0 }`): out-of-order
    /// `CommitAt` ingests may arrive up to Δ ticks after their valid time,
    /// and the watermark `W = now − Δ` trails the clock by the same bound.
    pub max_delay: i64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7171".into(),
            workers: 4,
            data_dir: None,
            lint: LintLevel::Warn,
            checkpoint: CheckpointPolicy {
                sync: SyncPolicy::Always,
                ..CheckpointPolicy::default()
            },
            outbuf_soft_limit: DEFAULT_OUTBUF_SOFT,
            outbuf_hard_limit: DEFAULT_OUTBUF_HARD,
            max_delay: 32,
        }
    }
}

impl ServerConfig {
    pub(crate) fn manager_config(&self) -> ManagerConfig {
        ManagerConfig {
            lint: self.lint,
            ..ManagerConfig::default()
        }
    }
}

/// What a connection's outbound half can do beyond `Write`: report that
/// the connection is already known dead, so workers can prune subscribers
/// without waiting for a push to fail. Sinks that cannot tell keep the
/// default (death is then only discovered by a failed write).
pub trait FrameSink: Write + Send {
    fn is_dead(&self) -> bool {
        false
    }
}

/// A connection's outbound half — the one representation of "where a reply
/// goes" — shared between the poller's inline answers and the workers
/// writing responses and subscription frames at it. The mutex is the
/// per-connection write serialization point.
pub type SharedWriter = Arc<Mutex<dyn FrameSink>>;

//! A blocking client for the wire protocol.
//!
//! One [`Client`] is one connection. Requests are synchronous
//! (request/response, correlated by id); streamed firings from
//! [`Client::subscribe`] arrive on the same socket and are queued while a
//! response is awaited, then drained with [`Client::recv_firing`] (plain
//! `Firing` frames) and [`Client::recv_vt_event`] (valid-time `VtFiring`
//! frames). Each of the two queues a frame of the other kind and returns
//! an error, so one connection may subscribe to both kinds of tenant.

use std::collections::VecDeque;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use tdb_core::rules::FiringRecord;
use tdb_core::storage::LogicalOp;
use tdb_core::VtFiringEvent;
use tdb_engine::WriteOp;
use tdb_relation::{Relation, Timestamp, Value};

use crate::wire::{
    decode_response, encode_request, read_frame_into, write_frame, FrameScratch, MetricsFormat,
    Request, Response, PROTOCOL_VERSION,
};
use crate::{Result, ServerError};

/// What one `Commit` batch did.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitOutcome {
    /// Per-op results in submission order (`Err` = op-level rejection,
    /// e.g. an integrity-constraint veto).
    pub outcomes: Vec<std::result::Result<(), String>>,
    /// Every firing the batch produced, in dispatch order.
    pub firings: Vec<FiringRecord>,
}

impl CommitOutcome {
    /// True when no op in the batch was rejected.
    pub fn all_ok(&self) -> bool {
        self.outcomes.iter().all(|o| o.is_ok())
    }
}

/// Per-tenant gauges as reported by `TenantStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantStats {
    pub states: u64,
    pub rules: u64,
    pub firings: u64,
    pub retained: u64,
    pub now: Timestamp,
    pub wal_bytes: u64,
    /// Batch-safety certificate, scalar-encoded: 0 = exact, k ≥ 1 =
    /// stratified with k strata, -1 = cascade-required.
    pub batch_safety: i64,
}

/// A blocking connection to a tdb-server.
#[derive(Debug)]
pub struct Client {
    reader: TcpStream,
    writer: TcpStream,
    next_id: u64,
    /// Streamed `Firing` frames that arrived while awaiting a response:
    /// `(subscription id, record)`.
    queued: VecDeque<(u64, FiringRecord)>,
    /// Streamed valid-time `VtFiring` frames, queued the same way.
    queued_vt: VecDeque<(u64, VtFiringEvent)>,
    /// Reusable frame-read buffer (grow-only with evict, see
    /// [`FrameScratch`]).
    scratch: FrameScratch,
}

impl Client {
    /// Connects and performs the version handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut c = Client {
            writer: stream.try_clone()?,
            reader: stream,
            next_id: 1,
            queued: VecDeque::new(),
            queued_vt: VecDeque::new(),
            scratch: FrameScratch::new(),
        };
        match c.request(Request::Hello {
            version: PROTOCOL_VERSION,
        })? {
            Response::HelloOk { .. } => Ok(c),
            other => Err(unexpected("HelloOk", &other)),
        }
    }

    /// Read timeout for [`Client::recv_firing`] (and everything else).
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> Result<()> {
        self.reader.set_read_timeout(dur)?;
        Ok(())
    }

    /// Sends `req` and waits for its response, queueing any streamed
    /// firing frames that arrive in between.
    pub fn request(&mut self, req: Request) -> Result<Response> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.writer, &encode_request(id, &req))?;
        loop {
            let payload = read_frame_into(&mut self.reader, &mut self.scratch)?;
            let (rid, resp) = decode_response(payload)?;
            match resp {
                Response::Firing { record } => self.queued.push_back((rid, record)),
                Response::VtFiring { event } => self.queued_vt.push_back((rid, event)),
                Response::Error { code, message } if rid == id || rid == 0 => {
                    return Err(ServerError::Remote { code, message })
                }
                _ if rid == id => return Ok(resp),
                // A response to an id we never issued: protocol breakage.
                other => {
                    return Err(ServerError::Invalid(format!(
                        "response for unknown request id {rid}: {other:?}"
                    )))
                }
            }
        }
    }

    /// The next streamed firing: `(subscription id, record)`. Blocks until
    /// one arrives (subject to the read timeout).
    pub fn recv_firing(&mut self) -> Result<(u64, FiringRecord)> {
        if let Some(f) = self.queued.pop_front() {
            return Ok(f);
        }
        let payload = read_frame_into(&mut self.reader, &mut self.scratch)?;
        let (rid, resp) = decode_response(payload)?;
        match resp {
            Response::Firing { record } => Ok((rid, record)),
            Response::VtFiring { event } => {
                self.queued_vt.push_back((rid, event));
                Err(ServerError::Invalid(
                    "expected a streamed firing, got a valid-time event (queued)".into(),
                ))
            }
            Response::Error { code, message } => Err(ServerError::Remote { code, message }),
            other => Err(ServerError::Invalid(format!(
                "expected a streamed firing, got {other:?}"
            ))),
        }
    }

    pub fn create_tenant(&mut self, name: &str, durable: bool) -> Result<()> {
        match self.request(Request::CreateTenant {
            name: name.into(),
            durable,
        })? {
            Response::TenantCreated => Ok(()),
            other => Err(unexpected("TenantCreated", &other)),
        }
    }

    /// Creates a valid-time tenant: out-of-order `commit_at` ingests with
    /// disorder bound Δ = `max_delay` (`<= 0` takes the server default).
    pub fn create_vt_tenant(&mut self, name: &str, durable: bool, max_delay: i64) -> Result<()> {
        match self.request(Request::CreateVtTenant {
            name: name.into(),
            durable,
            max_delay,
        })? {
            Response::TenantCreated => Ok(()),
            other => Err(unexpected("TenantCreated", &other)),
        }
    }

    pub fn list_tenants(&mut self) -> Result<Vec<String>> {
        match self.request(Request::ListTenants)? {
            Response::Tenants { names } => Ok(names),
            other => Err(unexpected("Tenants", &other)),
        }
    }

    /// Registers rule-file text; returns `(registered names, lint
    /// findings)`.
    pub fn register_rules(
        &mut self,
        tenant: &str,
        source: &str,
    ) -> Result<(Vec<String>, Vec<String>)> {
        match self.request(Request::RegisterRule {
            tenant: tenant.into(),
            source: source.into(),
        })? {
            Response::RulesRegistered {
                registered,
                findings,
            } => Ok((registered, findings)),
            other => Err(unexpected("RulesRegistered", &other)),
        }
    }

    pub fn commit(&mut self, tenant: &str, ops: Vec<LogicalOp>) -> Result<CommitOutcome> {
        match self.request(Request::Commit {
            tenant: tenant.into(),
            ops,
        })? {
            Response::Committed { outcomes, firings } => Ok(CommitOutcome { outcomes, firings }),
            other => Err(unexpected("Committed", &other)),
        }
    }

    /// Streaming ingest on a valid-time tenant: applies `ops` at the
    /// explicit valid time `valid` (which may trail `arrival` by up to the
    /// tenant's Δ). Returns the post-ingest watermark and the phase-tagged
    /// stream events — tentative announcements, confirmations, retractions
    /// — the ingest produced.
    pub fn commit_at(
        &mut self,
        tenant: &str,
        arrival: Timestamp,
        valid: Timestamp,
        ops: Vec<WriteOp>,
    ) -> Result<(Timestamp, Vec<VtFiringEvent>)> {
        match self.request(Request::CommitAt {
            tenant: tenant.into(),
            arrival,
            valid,
            ops,
        })? {
            Response::VtCommitted { watermark, events } => Ok((watermark, events)),
            other => Err(unexpected("VtCommitted", &other)),
        }
    }

    /// Applies `ops` as one atomic group commit: the server writes a single
    /// WAL record, fsyncs once, and dispatches one evaluation slice. The
    /// `Ok` means the entire batch is durable; a crash mid-batch recovers
    /// none of it.
    pub fn commit_batch(&mut self, tenant: &str, ops: Vec<LogicalOp>) -> Result<CommitOutcome> {
        match self.request(Request::CommitBatch {
            tenant: tenant.into(),
            ops,
        })? {
            Response::Committed { outcomes, firings } => Ok(CommitOutcome { outcomes, firings }),
            other => Err(unexpected("Committed", &other)),
        }
    }

    pub fn query(&mut self, tenant: &str, text: &str, params: Vec<Value>) -> Result<Relation> {
        match self.request(Request::Query {
            tenant: tenant.into(),
            text: text.into(),
            params,
        })? {
            Response::Rows { relation } => Ok(relation),
            other => Err(unexpected("Rows", &other)),
        }
    }

    /// The tenant's encoded Theorem-1 snapshot
    /// (`tdb_storage::codec::decode_snapshot` reads it).
    pub fn snapshot(&mut self, tenant: &str) -> Result<Vec<u8>> {
        match self.request(Request::Snapshot {
            tenant: tenant.into(),
        })? {
            Response::SnapshotData { bytes } => Ok(bytes),
            other => Err(unexpected("SnapshotData", &other)),
        }
    }

    /// The next streamed valid-time event: `(subscription id, event)`.
    /// Blocks until one arrives (subject to the read timeout).
    pub fn recv_vt_event(&mut self) -> Result<(u64, VtFiringEvent)> {
        if let Some(e) = self.queued_vt.pop_front() {
            return Ok(e);
        }
        let payload = read_frame_into(&mut self.reader, &mut self.scratch)?;
        let (rid, resp) = decode_response(payload)?;
        match resp {
            Response::VtFiring { event } => Ok((rid, event)),
            Response::Firing { record } => {
                self.queued.push_back((rid, record));
                Err(ServerError::Invalid(
                    "expected a streamed valid-time event, got a plain firing (queued)".into(),
                ))
            }
            Response::Error { code, message } => Err(ServerError::Remote { code, message }),
            other => Err(ServerError::Invalid(format!(
                "expected a streamed valid-time event, got {other:?}"
            ))),
        }
    }

    pub fn firings(&mut self, tenant: &str, from: u64) -> Result<Vec<FiringRecord>> {
        match self.request(Request::Firings {
            tenant: tenant.into(),
            from,
        })? {
            Response::FiringsList { records, .. } => Ok(records),
            other => Err(unexpected("FiringsList", &other)),
        }
    }

    /// Subscribes this connection to the tenant's future firings; returns
    /// the subscription id streamed frames will carry.
    pub fn subscribe(&mut self, tenant: &str) -> Result<u64> {
        let id = self.next_id; // the id `request` will assign
        match self.request(Request::SubscribeFirings {
            tenant: tenant.into(),
        })? {
            Response::Subscribed => Ok(id),
            other => Err(unexpected("Subscribed", &other)),
        }
    }

    pub fn tenant_stats(&mut self, tenant: &str) -> Result<TenantStats> {
        match self.request(Request::TenantStats {
            tenant: tenant.into(),
        })? {
            Response::Stats {
                states,
                rules,
                firings,
                retained,
                now,
                wal_bytes,
                batch_safety,
            } => Ok(TenantStats {
                states,
                rules,
                firings,
                retained,
                now,
                wal_bytes,
                batch_safety,
            }),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Metrics exposition from the server's shared registry.
    pub fn metrics(&mut self, format: MetricsFormat) -> Result<String> {
        match self.request(Request::Metrics { format })? {
            Response::MetricsText { text } => Ok(text),
            other => Err(unexpected("MetricsText", &other)),
        }
    }

    /// Asks the server to checkpoint and exit.
    pub fn shutdown(&mut self) -> Result<()> {
        match self.request(Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ServerError {
    ServerError::Invalid(format!("expected {wanted}, got {got:?}"))
}

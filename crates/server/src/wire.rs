//! The length-prefixed binary wire protocol.
//!
//! Every frame on the socket is
//!
//! ```text
//! u32 len | u32 crc32(payload) | payload          (little-endian)
//! ```
//!
//! — the same checksum discipline as the WAL, so a flipped bit anywhere is
//! a typed [`ProtocolError`], never a mis-parse. `len` is capped at
//! [`MAX_FRAME`]; an oversized header is rejected *before* any allocation,
//! so a malicious length cannot OOM the server.
//!
//! A payload is `u64 request-id | u8 tag | body`. Request ids are chosen by
//! the client (any values; they only correlate responses) and echoed on
//! every response frame. One request produces exactly one response, except
//! `SubscribeFirings`, whose id is additionally reused for every streamed
//! [`Response::Firing`] frame that follows.
//!
//! Bodies reuse the `tdb-storage` codec ([`Enc`]/[`Dec`] plus the
//! `put_*`/`get_*` helpers), so the values crossing the wire — logical
//! ops, firing records, relations, snapshots — are encoded byte-identically
//! to their WAL/checkpoint representation. Decoding is fully defensive:
//! unknown tags, truncated bodies and trailing garbage all surface as
//! [`ProtocolError::Decode`].

use std::fmt;
use std::io::{Read, Write};

use tdb_core::rules::FiringRecord;
use tdb_core::storage::LogicalOp;
use tdb_core::{VtFiringEvent, VtPhase};
use tdb_engine::WriteOp;
use tdb_relation::{Relation, Timestamp, Value};
use tdb_storage::codec::{
    decode_logical_op, encode_logical_op, get_firing, get_relation, get_timestamp, get_value,
    get_write_op, put_firing, put_relation, put_timestamp, put_value, put_write_op, Dec, Enc,
};
use tdb_storage::crc::crc32;

/// Protocol version spoken by this build; `Hello` negotiates (exact match).
pub const PROTOCOL_VERSION: u32 = 1;

/// Hard cap on one frame's payload (checked before allocating).
pub const MAX_FRAME: u32 = 64 << 20;

/// Transport-level failures. These are about *bytes*, not about what a
/// request meant — semantic failures travel as [`Response::Error`].
#[derive(Debug)]
pub enum ProtocolError {
    /// Underlying socket failure (message form: sockets aren't cloneable
    /// into errors).
    Io(String),
    /// The peer closed the connection mid-frame (a clean close between
    /// frames is `Closed`).
    Truncated { wanted: usize, got: usize },
    /// The peer closed the connection at a frame boundary.
    Closed,
    /// Frame header announced more than [`MAX_FRAME`] bytes.
    Oversized { len: u32 },
    /// Payload failed its checksum.
    Checksum,
    /// Checksum-valid payload did not decode.
    Decode(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "i/o: {e}"),
            ProtocolError::Truncated { wanted, got } => {
                write!(f, "connection closed mid-frame ({got}/{wanted} bytes)")
            }
            ProtocolError::Closed => write!(f, "connection closed"),
            ProtocolError::Oversized { len } => {
                write!(f, "frame of {len} bytes exceeds cap of {MAX_FRAME}")
            }
            ProtocolError::Checksum => write!(f, "frame payload failed checksum"),
            ProtocolError::Decode(m) => write!(f, "frame did not decode: {m}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Semantic error classes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed or unsupported request (the connection stays usable).
    Protocol,
    /// Named tenant does not exist.
    NoSuchTenant,
    /// `CreateTenant` for a name that is taken.
    TenantExists,
    /// Rule text or query text failed to parse.
    Parse,
    /// Registration rejected by the static verifier (`LintLevel::Deny`).
    Lint,
    /// Rule uses a feature the wire cannot express (e.g. `program`).
    Unsupported,
    /// Tenant WAL / rule store failure.
    Storage,
    /// Anything else (the message says what).
    Internal,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Protocol => 0,
            ErrorCode::NoSuchTenant => 1,
            ErrorCode::TenantExists => 2,
            ErrorCode::Parse => 3,
            ErrorCode::Lint => 4,
            ErrorCode::Unsupported => 5,
            ErrorCode::Storage => 6,
            ErrorCode::Internal => 7,
        }
    }

    fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            0 => ErrorCode::Protocol,
            1 => ErrorCode::NoSuchTenant,
            2 => ErrorCode::TenantExists,
            3 => ErrorCode::Parse,
            4 => ErrorCode::Lint,
            5 => ErrorCode::Unsupported,
            6 => ErrorCode::Storage,
            7 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// Metrics exposition format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    Prometheus,
    Json,
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Version handshake (optional but recommended as the first frame).
    Hello { version: u32 },
    /// Create a tenant. `durable` requires the server to run with a data
    /// directory; the tenant gets its own WAL + checkpoint subdirectory.
    CreateTenant { name: String, durable: bool },
    /// Names of live tenants.
    ListTenants,
    /// Register every rule in `source` (rule-file text, see
    /// `tdb-analysis`), lint-gated at the server's configured level.
    RegisterRule { tenant: String, source: String },
    /// Apply a batch of logical ops in order. Op-level failures (constraint
    /// vetoes) are reported per-op; the batch does not stop. Each op is its
    /// own WAL record and fsync (under `SyncPolicy::Always`).
    Commit { tenant: String, ops: Vec<LogicalOp> },
    /// Apply `ops` as one *group commit*: a single WAL record, a single
    /// fsync, and one batched evaluation slice. The ack means the whole
    /// batch is durable; a crash mid-batch recovers none of it. Responds
    /// with the same [`Response::Committed`] shape as `Commit`.
    CommitBatch { tenant: String, ops: Vec<LogicalOp> },
    /// Evaluate a relational query against the tenant's current database.
    Query {
        tenant: String,
        text: String,
        params: Vec<Value>,
    },
    /// The tenant's Theorem-1 snapshot, codec-encoded.
    Snapshot { tenant: String },
    /// Catch-up read of the firing log from index `from`.
    Firings { tenant: String, from: u64 },
    /// Stream every future firing of this tenant back on this connection,
    /// correlated by this request's id.
    SubscribeFirings { tenant: String },
    /// Per-tenant gauges (states, rules, firings, retained size, clock,
    /// WAL bytes).
    TenantStats { tenant: String },
    /// Exposition of the shared metrics registry.
    Metrics { format: MetricsFormat },
    /// Graceful stop: checkpoint durable tenants and exit.
    Shutdown,
    /// Valid-time stream ingest (§9): apply `ops` at the explicit `valid`
    /// timestamp on a valid-time tenant. `arrival` is the event's arrival
    /// (transaction) time — the server advances the tenant clock to it
    /// (monotone max) before ingesting, so the watermark `W = now − Δ`
    /// tracks the arrival stream and `valid` must lie in `[W, now]`.
    /// Responds with [`Response::VtCommitted`].
    CommitAt {
        tenant: String,
        arrival: Timestamp,
        valid: Timestamp,
        ops: Vec<WriteOp>,
    },
    /// Create a *valid-time* tenant: out-of-order ingest via [`Request::CommitAt`],
    /// tentative/confirmed/retracted firing streams over `SubscribeFirings`.
    /// `max_delay` is the tenant's disorder bound Δ; values ≤ 0 select the
    /// server default (`--max-delay`).
    CreateVtTenant {
        name: String,
        durable: bool,
        max_delay: i64,
    },
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    HelloOk {
        version: u32,
    },
    TenantCreated,
    Tenants {
        names: Vec<String>,
    },
    /// Rules registered, with any lint findings rendered as text.
    RulesRegistered {
        registered: Vec<String>,
        findings: Vec<String>,
    },
    /// One outcome per submitted op (`Ok` or the op-level rejection
    /// message), plus every firing the batch produced, in dispatch order.
    Committed {
        outcomes: Vec<std::result::Result<(), String>>,
        firings: Vec<FiringRecord>,
    },
    Rows {
        relation: Relation,
    },
    /// `tdb_storage::codec::encode_snapshot` bytes.
    SnapshotData {
        bytes: Vec<u8>,
    },
    FiringsList {
        from: u64,
        records: Vec<FiringRecord>,
    },
    Subscribed,
    /// One streamed firing (id = the subscription's request id).
    Firing {
        record: FiringRecord,
    },
    Stats {
        states: u64,
        rules: u64,
        firings: u64,
        retained: u64,
        now: Timestamp,
        wal_bytes: u64,
        /// Batch-safety certificate, scalar-encoded: 0 = exact, k ≥ 1 =
        /// stratified with k strata, -1 = cascade-required.
        batch_safety: i64,
    },
    MetricsText {
        text: String,
    },
    ShuttingDown,
    Error {
        code: ErrorCode,
        message: String,
    },
    /// One streamed valid-time firing event (id = the subscription's
    /// request id): the record plus its lifecycle phase. A `Tentative`
    /// event may later be refined by a `Confirmed` or `Retracted` event
    /// carrying the same `(time, env)`; once the watermark passes a
    /// firing's valid instant its `Confirmed` event is final.
    VtFiring {
        event: VtFiringEvent,
    },
    /// Ack for [`Request::CommitAt`] (and for clock ops committed on a
    /// valid-time tenant): the tenant's watermark after the op, plus every
    /// firing-stream event the op produced, in emission order.
    VtCommitted {
        watermark: Timestamp,
        events: Vec<VtFiringEvent>,
    },
}

// ---- framing ----------------------------------------------------------------

/// Capacity a read scratch starts at (and shrinks back to after a large
/// frame inflated it past [`SCRATCH_EVICT`]).
const SCRATCH_BASE: usize = 16 * 1024;

/// Capacity threshold above which a fully drained scratch releases its
/// allocation: one 64 MiB snapshot frame must not pin 64 MiB per
/// connection forever.
const SCRATCH_EVICT: usize = 1 << 20;

/// A connection's reusable frame-read buffer. One frame read used to
/// allocate a fresh payload `Vec`; a scratch is grow-only across frames
/// (amortizing the allocation to zero on steady state) with an evict
/// threshold so a single oversized frame does not pin its high-water mark.
#[derive(Debug, Default)]
pub struct FrameScratch {
    buf: Vec<u8>,
}

impl FrameScratch {
    pub fn new() -> FrameScratch {
        FrameScratch {
            buf: Vec::with_capacity(SCRATCH_BASE),
        }
    }

    /// Current backing capacity (tests, metrics).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    fn maybe_evict(&mut self) {
        if self.buf.capacity() > SCRATCH_EVICT {
            self.buf = Vec::with_capacity(SCRATCH_BASE);
        }
    }
}

/// Reads one frame's payload into `scratch`, verifying length cap and
/// checksum. The returned slice borrows the scratch; the next call reuses
/// the same allocation.
pub fn read_frame_into<'a>(
    r: &mut impl Read,
    scratch: &'a mut FrameScratch,
) -> std::result::Result<&'a [u8], ProtocolError> {
    let mut head = [0u8; 8];
    read_exact_or_close(r, &mut head, true)?;
    let len = u32::from_le_bytes(tdb_storage::codec::first_n(&head[..4]));
    let crc = u32::from_le_bytes(tdb_storage::codec::first_n(&head[4..]));
    if len > MAX_FRAME {
        return Err(ProtocolError::Oversized { len });
    }
    scratch.maybe_evict();
    scratch.buf.clear();
    scratch.buf.resize(len as usize, 0);
    read_exact_or_close(r, &mut scratch.buf, false)?;
    if crc32(&scratch.buf) != crc {
        return Err(ProtocolError::Checksum);
    }
    Ok(&scratch.buf)
}

/// Incremental frame reassembly for nonblocking reads: the poller appends
/// whatever bytes the socket had ([`FrameAssembler::ingest`]) and drains
/// complete frames ([`FrameAssembler::next_frame`]); partial frames stay
/// buffered until the next readiness event. The buffer is grow-only with
/// the same evict discipline as [`FrameScratch`].
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Bytes at the front already handed out as complete frames.
    pos: usize,
}

impl FrameAssembler {
    pub fn new() -> FrameAssembler {
        FrameAssembler {
            buf: Vec::with_capacity(SCRATCH_BASE),
            pos: 0,
        }
    }

    /// Appends raw bytes read off the socket.
    pub fn ingest(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next complete frame's payload, or `None` when more bytes are
    /// needed. Framing failures (oversized header, checksum mismatch) are
    /// typed errors — the stream is unrecoverable past them.
    pub fn next_frame(&mut self) -> std::result::Result<Option<&[u8]>, ProtocolError> {
        self.compact();
        let avail = self.buf.len() - self.pos;
        if avail < 8 {
            return Ok(None);
        }
        let head = &self.buf[self.pos..self.pos + 8];
        let len = u32::from_le_bytes(tdb_storage::codec::first_n(&head[..4]));
        let crc = u32::from_le_bytes(tdb_storage::codec::first_n(&head[4..]));
        if len > MAX_FRAME {
            return Err(ProtocolError::Oversized { len });
        }
        let total = 8 + len as usize;
        if avail < total {
            return Ok(None);
        }
        let start = self.pos + 8;
        let end = start + len as usize;
        if crc32(&self.buf[start..end]) != crc {
            return Err(ProtocolError::Checksum);
        }
        self.pos = end;
        Ok(Some(&self.buf[start..end]))
    }

    /// Reclaims consumed front space: cheap `clear` when fully drained
    /// (plus the evict check), `drain` when the consumed prefix dominates.
    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            if self.buf.capacity() > SCRATCH_EVICT {
                self.buf = Vec::with_capacity(SCRATCH_BASE);
            }
        } else if self.pos > SCRATCH_BASE && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// Writes one frame (`id`/`payload` already encoded by
/// [`encode_request`]/[`encode_response`]) and flushes.
pub fn write_frame<W: Write + ?Sized>(
    w: &mut W,
    payload: &[u8],
) -> std::result::Result<(), ProtocolError> {
    put_frame(w, payload).and_then(|()| w.flush().map_err(|e| ProtocolError::Io(e.to_string())))
}

/// [`write_frame`] without the flush, for a writer that sends several
/// frames and then flushes once.
pub fn put_frame<W: Write + ?Sized>(
    w: &mut W,
    payload: &[u8],
) -> std::result::Result<(), ProtocolError> {
    debug_assert!(payload.len() as u64 <= MAX_FRAME as u64);
    let mut head = [0u8; 8];
    head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&head)
        .and_then(|()| w.write_all(payload))
        .map_err(|e| ProtocolError::Io(e.to_string()))
}

/// Reads one frame's payload as an owned `Vec`, verifying length cap and
/// checksum. Steady-state readers should hold a [`FrameScratch`] and call
/// [`read_frame_into`] instead — this allocates per frame.
pub fn read_frame(r: &mut impl Read) -> std::result::Result<Vec<u8>, ProtocolError> {
    let mut scratch = FrameScratch::default();
    read_frame_into(r, &mut scratch)?;
    Ok(scratch.buf)
}

/// `read_exact` that distinguishes a clean close at a frame boundary
/// (`Closed`, only when `at_boundary` and nothing was read yet) from a
/// close mid-frame (`Truncated`).
fn read_exact_or_close(
    r: &mut impl Read,
    buf: &mut [u8],
    at_boundary: bool,
) -> std::result::Result<(), ProtocolError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(if at_boundary && got == 0 {
                    ProtocolError::Closed
                } else {
                    ProtocolError::Truncated {
                        wanted: buf.len(),
                        got,
                    }
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtocolError::Io(e.to_string())),
        }
    }
    Ok(())
}

// ---- payload codec ----------------------------------------------------------

fn dec_err(e: tdb_storage::StorageError) -> ProtocolError {
    ProtocolError::Decode(e.to_string())
}

fn put_string_vec(e: &mut Enc, v: &[String]) {
    e.len(v.len());
    for s in v {
        e.str(s);
    }
}

fn get_string_vec(d: &mut Dec, what: &str) -> std::result::Result<Vec<String>, ProtocolError> {
    let n = d.seq_len(what, 8).map_err(dec_err)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(d.str(what).map_err(dec_err)?);
    }
    Ok(out)
}

fn put_vt_event(e: &mut Enc, ev: &VtFiringEvent) {
    e.u8(match ev.phase {
        VtPhase::Tentative => 0,
        VtPhase::Confirmed => 1,
        VtPhase::Retracted => 2,
    });
    put_firing(e, &ev.record);
}

fn get_vt_event(d: &mut Dec) -> std::result::Result<VtFiringEvent, ProtocolError> {
    let phase = match d.u8("vt phase").map_err(dec_err)? {
        0 => VtPhase::Tentative,
        1 => VtPhase::Confirmed,
        2 => VtPhase::Retracted,
        other => return Err(ProtocolError::Decode(format!("unknown vt phase {other}"))),
    };
    Ok(VtFiringEvent {
        phase,
        record: get_firing(d).map_err(dec_err)?,
    })
}

fn put_bytes(e: &mut Enc, b: &[u8]) {
    e.len(b.len());
    e.raw(b);
}

fn get_bytes(d: &mut Dec, what: &str) -> std::result::Result<Vec<u8>, ProtocolError> {
    let n = d.seq_len(what, 1).map_err(dec_err)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(d.u8(what).map_err(dec_err)?);
    }
    Ok(out)
}

/// Encodes one request into a frame payload.
pub fn encode_request(id: u64, req: &Request) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(id);
    match req {
        Request::Hello { version } => {
            e.u8(1);
            e.u32(*version);
        }
        Request::CreateTenant { name, durable } => {
            e.u8(2);
            e.str(name);
            e.boolean(*durable);
        }
        Request::ListTenants => e.u8(3),
        Request::RegisterRule { tenant, source } => {
            e.u8(4);
            e.str(tenant);
            e.str(source);
        }
        Request::Commit { tenant, ops } => {
            e.u8(5);
            e.str(tenant);
            e.len(ops.len());
            for op in ops {
                put_bytes(&mut e, &encode_logical_op(op));
            }
        }
        Request::Query {
            tenant,
            text,
            params,
        } => {
            e.u8(6);
            e.str(tenant);
            e.str(text);
            e.len(params.len());
            for p in params {
                put_value(&mut e, p);
            }
        }
        Request::Snapshot { tenant } => {
            e.u8(7);
            e.str(tenant);
        }
        Request::Firings { tenant, from } => {
            e.u8(8);
            e.str(tenant);
            e.u64(*from);
        }
        Request::SubscribeFirings { tenant } => {
            e.u8(9);
            e.str(tenant);
        }
        Request::TenantStats { tenant } => {
            e.u8(10);
            e.str(tenant);
        }
        Request::Metrics { format } => {
            e.u8(11);
            e.u8(match format {
                MetricsFormat::Prometheus => 0,
                MetricsFormat::Json => 1,
            });
        }
        Request::Shutdown => e.u8(12),
        Request::CommitBatch { tenant, ops } => {
            e.u8(13);
            e.str(tenant);
            e.len(ops.len());
            for op in ops {
                put_bytes(&mut e, &encode_logical_op(op));
            }
        }
        Request::CommitAt {
            tenant,
            arrival,
            valid,
            ops,
        } => {
            e.u8(14);
            e.str(tenant);
            put_timestamp(&mut e, *arrival);
            put_timestamp(&mut e, *valid);
            e.len(ops.len());
            for op in ops {
                put_write_op(&mut e, op);
            }
        }
        Request::CreateVtTenant {
            name,
            durable,
            max_delay,
        } => {
            e.u8(15);
            e.str(name);
            e.boolean(*durable);
            e.i64(*max_delay);
        }
    }
    e.into_bytes()
}

/// Decodes a frame payload as a request.
pub fn decode_request(payload: &[u8]) -> std::result::Result<(u64, Request), ProtocolError> {
    let mut d = Dec::new(payload);
    let id = d.u64("request id").map_err(dec_err)?;
    let tag = d.u8("request tag").map_err(dec_err)?;
    let req = match tag {
        1 => Request::Hello {
            version: d.u32("hello version").map_err(dec_err)?,
        },
        2 => Request::CreateTenant {
            name: d.str("tenant name").map_err(dec_err)?,
            durable: d.boolean("durable flag").map_err(dec_err)?,
        },
        3 => Request::ListTenants,
        4 => Request::RegisterRule {
            tenant: d.str("tenant name").map_err(dec_err)?,
            source: d.str("rule source").map_err(dec_err)?,
        },
        5 => {
            let tenant = d.str("tenant name").map_err(dec_err)?;
            let n = d.seq_len("ops", 9).map_err(dec_err)?;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                let bytes = get_bytes(&mut d, "op bytes")?;
                ops.push(decode_logical_op(&bytes).map_err(dec_err)?);
            }
            Request::Commit { tenant, ops }
        }
        6 => {
            let tenant = d.str("tenant name").map_err(dec_err)?;
            let text = d.str("query text").map_err(dec_err)?;
            let n = d.seq_len("query params", 1).map_err(dec_err)?;
            let mut params = Vec::with_capacity(n);
            for _ in 0..n {
                params.push(get_value(&mut d).map_err(dec_err)?);
            }
            Request::Query {
                tenant,
                text,
                params,
            }
        }
        7 => Request::Snapshot {
            tenant: d.str("tenant name").map_err(dec_err)?,
        },
        8 => Request::Firings {
            tenant: d.str("tenant name").map_err(dec_err)?,
            from: d.u64("firing index").map_err(dec_err)?,
        },
        9 => Request::SubscribeFirings {
            tenant: d.str("tenant name").map_err(dec_err)?,
        },
        10 => Request::TenantStats {
            tenant: d.str("tenant name").map_err(dec_err)?,
        },
        11 => Request::Metrics {
            format: match d.u8("metrics format").map_err(dec_err)? {
                0 => MetricsFormat::Prometheus,
                1 => MetricsFormat::Json,
                other => {
                    return Err(ProtocolError::Decode(format!(
                        "unknown metrics format {other}"
                    )))
                }
            },
        },
        12 => Request::Shutdown,
        13 => {
            let tenant = d.str("tenant name").map_err(dec_err)?;
            let n = d.seq_len("batch ops", 9).map_err(dec_err)?;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                let bytes = get_bytes(&mut d, "op bytes")?;
                ops.push(decode_logical_op(&bytes).map_err(dec_err)?);
            }
            Request::CommitBatch { tenant, ops }
        }
        14 => {
            let tenant = d.str("tenant name").map_err(dec_err)?;
            let arrival = get_timestamp(&mut d).map_err(dec_err)?;
            let valid = get_timestamp(&mut d).map_err(dec_err)?;
            let n = d.seq_len("commit-at ops", 2).map_err(dec_err)?;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                ops.push(get_write_op(&mut d).map_err(dec_err)?);
            }
            Request::CommitAt {
                tenant,
                arrival,
                valid,
                ops,
            }
        }
        15 => Request::CreateVtTenant {
            name: d.str("tenant name").map_err(dec_err)?,
            durable: d.boolean("durable flag").map_err(dec_err)?,
            max_delay: d.i64("max delay").map_err(dec_err)?,
        },
        other => {
            return Err(ProtocolError::Decode(format!(
                "unknown request tag {other}"
            )))
        }
    };
    d.finish("request payload").map_err(dec_err)?;
    Ok((id, req))
}

/// Encodes one response into a frame payload.
pub fn encode_response(id: u64, resp: &Response) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(id);
    match resp {
        Response::HelloOk { version } => {
            e.u8(32);
            e.u32(*version);
        }
        Response::TenantCreated => e.u8(33),
        Response::Tenants { names } => {
            e.u8(34);
            put_string_vec(&mut e, names);
        }
        Response::RulesRegistered {
            registered,
            findings,
        } => {
            e.u8(35);
            put_string_vec(&mut e, registered);
            put_string_vec(&mut e, findings);
        }
        Response::Committed { outcomes, firings } => {
            e.u8(36);
            e.len(outcomes.len());
            for o in outcomes {
                match o {
                    Ok(()) => e.u8(0),
                    Err(m) => {
                        e.u8(1);
                        e.str(m);
                    }
                }
            }
            e.len(firings.len());
            for f in firings {
                put_firing(&mut e, f);
            }
        }
        Response::Rows { relation } => {
            e.u8(37);
            put_relation(&mut e, relation);
        }
        Response::SnapshotData { bytes } => {
            e.u8(38);
            put_bytes(&mut e, bytes);
        }
        Response::FiringsList { from, records } => {
            e.u8(39);
            e.u64(*from);
            e.len(records.len());
            for f in records {
                put_firing(&mut e, f);
            }
        }
        Response::Subscribed => e.u8(40),
        Response::Firing { record } => {
            e.u8(41);
            put_firing(&mut e, record);
        }
        Response::Stats {
            states,
            rules,
            firings,
            retained,
            now,
            wal_bytes,
            batch_safety,
        } => {
            e.u8(42);
            e.u64(*states);
            e.u64(*rules);
            e.u64(*firings);
            e.u64(*retained);
            put_timestamp(&mut e, *now);
            e.u64(*wal_bytes);
            e.i64(*batch_safety);
        }
        Response::MetricsText { text } => {
            e.u8(43);
            e.str(text);
        }
        Response::ShuttingDown => e.u8(44),
        Response::Error { code, message } => {
            e.u8(45);
            e.u8(code.to_u8());
            e.str(message);
        }
        Response::VtFiring { event } => {
            e.u8(46);
            put_vt_event(&mut e, event);
        }
        Response::VtCommitted { watermark, events } => {
            e.u8(47);
            put_timestamp(&mut e, *watermark);
            e.len(events.len());
            for ev in events {
                put_vt_event(&mut e, ev);
            }
        }
    }
    e.into_bytes()
}

/// Decodes a frame payload as a response.
pub fn decode_response(payload: &[u8]) -> std::result::Result<(u64, Response), ProtocolError> {
    let mut d = Dec::new(payload);
    let id = d.u64("response id").map_err(dec_err)?;
    let tag = d.u8("response tag").map_err(dec_err)?;
    let resp = match tag {
        32 => Response::HelloOk {
            version: d.u32("hello version").map_err(dec_err)?,
        },
        33 => Response::TenantCreated,
        34 => Response::Tenants {
            names: get_string_vec(&mut d, "tenant names")?,
        },
        35 => Response::RulesRegistered {
            registered: get_string_vec(&mut d, "registered rules")?,
            findings: get_string_vec(&mut d, "lint findings")?,
        },
        36 => {
            let n = d.seq_len("op outcomes", 1).map_err(dec_err)?;
            let mut outcomes = Vec::with_capacity(n);
            for _ in 0..n {
                outcomes.push(match d.u8("outcome tag").map_err(dec_err)? {
                    0 => Ok(()),
                    1 => Err(d.str("outcome message").map_err(dec_err)?),
                    other => {
                        return Err(ProtocolError::Decode(format!(
                            "unknown outcome tag {other}"
                        )))
                    }
                });
            }
            let n = d.seq_len("firings", 8).map_err(dec_err)?;
            let mut firings = Vec::with_capacity(n);
            for _ in 0..n {
                firings.push(get_firing(&mut d).map_err(dec_err)?);
            }
            Response::Committed { outcomes, firings }
        }
        37 => Response::Rows {
            relation: get_relation(&mut d).map_err(dec_err)?,
        },
        38 => Response::SnapshotData {
            bytes: get_bytes(&mut d, "snapshot bytes")?,
        },
        39 => {
            let from = d.u64("firing index").map_err(dec_err)?;
            let n = d.seq_len("firings", 8).map_err(dec_err)?;
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                records.push(get_firing(&mut d).map_err(dec_err)?);
            }
            Response::FiringsList { from, records }
        }
        40 => Response::Subscribed,
        41 => Response::Firing {
            record: get_firing(&mut d).map_err(dec_err)?,
        },
        42 => Response::Stats {
            states: d.u64("states").map_err(dec_err)?,
            rules: d.u64("rules").map_err(dec_err)?,
            firings: d.u64("firings").map_err(dec_err)?,
            retained: d.u64("retained").map_err(dec_err)?,
            now: get_timestamp(&mut d).map_err(dec_err)?,
            wal_bytes: d.u64("wal bytes").map_err(dec_err)?,
            batch_safety: d.i64("batch safety").map_err(dec_err)?,
        },
        43 => Response::MetricsText {
            text: d.str("metrics text").map_err(dec_err)?,
        },
        44 => Response::ShuttingDown,
        45 => {
            let code = d.u8("error code").map_err(dec_err)?;
            let code = ErrorCode::from_u8(code)
                .ok_or_else(|| ProtocolError::Decode(format!("unknown error code {code}")))?;
            Response::Error {
                code,
                message: d.str("error message").map_err(dec_err)?,
            }
        }
        46 => Response::VtFiring {
            event: get_vt_event(&mut d)?,
        },
        47 => {
            let watermark = get_timestamp(&mut d).map_err(dec_err)?;
            let n = d.seq_len("vt events", 2).map_err(dec_err)?;
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                events.push(get_vt_event(&mut d)?);
            }
            Response::VtCommitted { watermark, events }
        }
        other => {
            return Err(ProtocolError::Decode(format!(
                "unknown response tag {other}"
            )))
        }
    };
    d.finish("response payload").map_err(dec_err)?;
    Ok((id, resp))
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let payload = encode_request(7, &Request::Hello { version: 1 });
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut r = &buf[..];
        let got = read_frame(&mut r).unwrap();
        assert_eq!(got, payload);
        assert!(matches!(
            read_frame(&mut r).unwrap_err(),
            ProtocolError::Closed
        ));
    }

    #[test]
    fn corrupt_frame_is_checksum_error() {
        let payload = encode_request(1, &Request::ListTenants);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        assert!(matches!(
            read_frame(&mut &buf[..]).unwrap_err(),
            ProtocolError::Checksum
        ));
    }

    #[test]
    fn oversized_header_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &buf[..]).unwrap_err(),
            ProtocolError::Oversized { .. }
        ));
    }

    #[test]
    fn scratch_reuses_one_allocation_across_frames() {
        let mut buf = Vec::new();
        for i in 0..4u64 {
            write_frame(&mut buf, &encode_request(i, &Request::ListTenants)).unwrap();
        }
        let mut scratch = FrameScratch::new();
        let mut r = &buf[..];
        let mut caps = Vec::new();
        for i in 0..4u64 {
            let payload = read_frame_into(&mut r, &mut scratch).unwrap();
            let (id, req) = decode_request(payload).unwrap();
            assert_eq!((id, req), (i, Request::ListTenants));
            caps.push(scratch.capacity());
        }
        assert!(
            caps.windows(2).all(|w| w[0] == w[1]),
            "no regrowth: {caps:?}"
        );
        assert!(matches!(
            read_frame_into(&mut r, &mut scratch).unwrap_err(),
            ProtocolError::Closed
        ));
    }

    #[test]
    fn scratch_evicts_after_oversized_frame() {
        let big = Request::RegisterRule {
            tenant: "t".into(),
            source: "x".repeat(2 * SCRATCH_EVICT),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &encode_request(1, &big)).unwrap();
        write_frame(&mut buf, &encode_request(2, &Request::ListTenants)).unwrap();
        let mut scratch = FrameScratch::new();
        let mut r = &buf[..];
        read_frame_into(&mut r, &mut scratch).unwrap();
        assert!(scratch.capacity() > SCRATCH_EVICT);
        read_frame_into(&mut r, &mut scratch).unwrap();
        assert!(
            scratch.capacity() <= SCRATCH_EVICT,
            "capacity {} still pinned",
            scratch.capacity()
        );
    }

    #[test]
    fn assembler_reassembles_byte_at_a_time() {
        let mut stream = Vec::new();
        for i in 0..3u64 {
            write_frame(
                &mut stream,
                &encode_request(i, &Request::Hello { version: 1 }),
            )
            .unwrap();
        }
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for b in &stream {
            asm.ingest(std::slice::from_ref(b));
            while let Some(payload) = asm.next_frame().unwrap() {
                got.push(decode_request(payload).unwrap().0);
            }
        }
        assert_eq!(got, vec![0, 1, 2]);
        assert_eq!(asm.buffered(), 0);
    }

    #[test]
    fn assembler_surfaces_corruption_and_oversize() {
        let mut stream = Vec::new();
        write_frame(&mut stream, &encode_request(1, &Request::ListTenants)).unwrap();
        let last = stream.len() - 1;
        stream[last] ^= 0x01;
        let mut asm = FrameAssembler::new();
        asm.ingest(&stream);
        assert!(matches!(
            asm.next_frame().unwrap_err(),
            ProtocolError::Checksum
        ));

        let mut asm = FrameAssembler::new();
        let mut head = Vec::new();
        head.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        head.extend_from_slice(&0u32.to_le_bytes());
        asm.ingest(&head);
        assert!(matches!(
            asm.next_frame().unwrap_err(),
            ProtocolError::Oversized { .. }
        ));
    }

    #[test]
    fn vt_messages_roundtrip() {
        let reqs = vec![
            Request::CommitAt {
                tenant: "vt".into(),
                arrival: Timestamp(12),
                valid: Timestamp(9),
                ops: vec![WriteOp::SetItem {
                    item: "level".into(),
                    value: Value::Int(11),
                }],
            },
            Request::CreateVtTenant {
                name: "vt".into(),
                durable: true,
                max_delay: 5,
            },
        ];
        for req in reqs {
            let payload = encode_request(3, &req);
            assert_eq!(decode_request(&payload).unwrap(), (3, req));
        }
        let record = FiringRecord {
            rule: "spike".into(),
            state_index: 4,
            time: Timestamp(9),
            env: [("x".to_string(), Value::Int(1))].into_iter().collect(),
        };
        let resps = vec![
            Response::VtFiring {
                event: VtFiringEvent {
                    phase: VtPhase::Retracted,
                    record: record.clone(),
                },
            },
            Response::VtCommitted {
                watermark: Timestamp(7),
                events: vec![
                    VtFiringEvent {
                        phase: VtPhase::Tentative,
                        record: record.clone(),
                    },
                    VtFiringEvent {
                        phase: VtPhase::Confirmed,
                        record,
                    },
                ],
            },
        ];
        for resp in resps {
            let payload = encode_response(8, &resp);
            assert_eq!(decode_response(&payload).unwrap(), (8, resp));
        }
    }

    #[test]
    fn trailing_garbage_is_decode_error() {
        let mut payload = encode_request(1, &Request::ListTenants);
        payload.push(0);
        assert!(matches!(
            decode_request(&payload).unwrap_err(),
            ProtocolError::Decode(_)
        ));
    }
}

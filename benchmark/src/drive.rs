//! The end-to-end side: spawn the real `tdb-server` binary, set the
//! tenants up over TCP, and drive the closed-loop measured phase from one
//! thread per connection.
//!
//! Connection `i` commits to tenant `i` and subscribes to tenant `1 - i`,
//! so every pushed firing crosses connections without a third socket. The
//! threads only log (send instant, ack instant, firings) per request and
//! (arrival instant, record) per pushed frame; latencies, windows and the
//! ack-stream/push-stream comparison are computed after the run, off the
//! measured path.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use tdb_core::rules::FiringRecord;
use tdb_core::VtFiringEvent;
use tdb_server::wire::{
    decode_response, encode_request, read_frame_into, write_frame, FrameScratch, MetricsFormat,
};
use tdb_server::{Request, Response, PROTOCOL_VERSION};

use crate::gen::{self, Requests, Shape, Workload, TENANTS};

/// A hung server ends the run as failed requests after this long, instead
/// of hanging the benchmark.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// How long the server may take to print its `listening on` banner
/// (recovery of aged durable tenants included).
const BANNER_TIMEOUT: Duration = Duration::from_secs(60);

pub type Result<T> = std::result::Result<T, String>;

fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

// ---- scratch directory --------------------------------------------------------

/// The run's private directory (server data dir, in-process WALs). Removed
/// on drop, so every exit path — error returns and panics included — leaves
/// nothing behind.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create(root: &Path) -> Result<Scratch> {
        let dir = root.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(err("create scratch dir"))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> Result<PathBuf> {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(err("create data dir"))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---- the server child ---------------------------------------------------------

/// The spawned server. Killed and reaped on drop.
#[derive(Debug)]
pub struct Server {
    child: Child,
    /// Kept open so a later print cannot hit a closed pipe.
    _stdout: Option<BufReader<std::process::ChildStdout>>,
    pub addr: String,
    /// Spawn → `listening on` banner.
    pub boot: Duration,
}

impl Server {
    /// Spawns the server with its default configuration (poll mode,
    /// adaptive coalescing, rebalance on, `SyncPolicy::Always`) on an
    /// OS-chosen port and waits for the banner.
    pub fn spawn(bin: &Path, data_dir: &Path) -> Result<Server> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(["--workers", "2", "--addr", "127.0.0.1:0", "--quiet"])
            .arg("--data-dir")
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut server = Server {
            child,
            _stdout: None,
            addr: String::new(),
            boot: Duration::ZERO,
        };
        // The banner is read on a helper thread so a server that never
        // prints it costs BANNER_TIMEOUT, not forever: on a timeout the child
        // is killed, which ends the read and with it the thread.
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut stdout = BufReader::new(stdout);
            let mut line = String::new();
            let _ = stdout.read_line(&mut line);
            let _ = tx.send(());
            (line, stdout)
        });
        let ready = rx.recv_timeout(BANNER_TIMEOUT);
        server.boot = t0.elapsed();
        if ready.is_err() {
            server.stop();
        }
        let (line, stdout) = reader
            .join()
            .map_err(|_| "banner reader panicked".to_string())?;
        if ready.is_err() {
            return Err("server printed no banner in time".to_string());
        }
        server._stdout = Some(stdout);
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected server banner: {line:?}"))?
            .to_string();
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `SIGKILL` + reap.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// User + system CPU time the child has consumed, in microseconds.
    pub fn cpu_us(&self) -> Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(err("read /proc stat"))?;
        // Fields after the parenthesised command name; utime and stime are
        // the 14th and 15th overall, in clock ticks (100 Hz on Linux).
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(u), Some(s)) => Ok((u + s) * 10_000.0),
            _ => Err(format!("unparsable /proc stat: {stat:?}")),
        }
    }
}

/// Peak resident set size (`VmHWM`) of process `pid` in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64> {
    let status =
        std::fs::read_to_string(format!("/proc/{pid}/status")).map_err(err("read /proc status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc status".to_string())
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---- one connection -----------------------------------------------------------

/// One pushed or acked firing, on either kind of tenant.
#[derive(Debug, Clone, PartialEq)]
pub enum Fired {
    Plain(FiringRecord),
    Vt(VtFiringEvent),
}

impl Fired {
    /// The record of a plain tenant's firing.
    pub fn plain(&self) -> Option<&FiringRecord> {
        match self {
            Fired::Plain(r) => Some(r),
            Fired::Vt(_) => None,
        }
    }

    /// The event of a valid-time tenant's firing.
    pub fn vt(&self) -> Option<&VtFiringEvent> {
        match self {
            Fired::Vt(e) => Some(e),
            Fired::Plain(_) => None,
        }
    }
}

/// A blocking connection speaking `tdb_server::wire` directly.
#[derive(Debug)]
pub struct Conn {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
    scratch: FrameScratch,
    next_id: u64,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn> {
        let stream = TcpStream::connect(addr).map_err(err("connect"))?;
        stream.set_nodelay(true).map_err(err("nodelay"))?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(err("read timeout"))?;
        let mut c = Conn {
            writer: BufWriter::new(stream.try_clone().map_err(err("clone socket"))?),
            reader: stream,
            scratch: FrameScratch::new(),
            next_id: 1,
        };
        match c.call(&Request::Hello {
            version: PROTOCOL_VERSION,
        })? {
            Response::HelloOk { .. } => Ok(c),
            other => Err(format!("expected HelloOk, got {other:?}")),
        }
    }

    fn send(&mut self, req: &Request) -> Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.writer, &encode_request(id, req)).map_err(err("write frame"))?;
        Ok(id)
    }

    fn recv(&mut self) -> Result<(u64, Response)> {
        let payload =
            read_frame_into(&mut self.reader, &mut self.scratch).map_err(err("read frame"))?;
        decode_response(payload).map_err(err("decode response"))
    }

    /// One synchronous request. Only used while no pushed frame can be in
    /// flight on this connection (set-up, and after the streams drained).
    pub fn call(&mut self, req: &Request) -> Result<Response> {
        let id = self.send(req)?;
        match self.recv()? {
            (_, Response::Error { code, message }) => {
                Err(format!("server error [{code:?}]: {message}"))
            }
            (rid, resp) if rid == id => Ok(resp),
            (rid, resp) => Err(format!("response for id {rid}, expected {id}: {resp:?}")),
        }
    }

    pub fn stats(&mut self, tenant: &str) -> Result<tdb_server::TenantStats> {
        match self.call(&Request::TenantStats {
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
            } => Ok(tdb_server::TenantStats {
                states,
                rules,
                firings,
                retained,
                now,
                wal_bytes,
                batch_safety,
            }),
            other => Err(format!("expected Stats, got {other:?}")),
        }
    }

    pub fn firings(&mut self, tenant: &str) -> Result<Vec<FiringRecord>> {
        match self.call(&Request::Firings {
            tenant: tenant.into(),
            from: 0,
        })? {
            Response::FiringsList { records, .. } => Ok(records),
            other => Err(format!("expected FiringsList, got {other:?}")),
        }
    }

    pub fn metrics(&mut self) -> Result<String> {
        match self.call(&Request::Metrics {
            format: MetricsFormat::Prometheus,
        })? {
            Response::MetricsText { text } => Ok(text),
            other => Err(format!("expected MetricsText, got {other:?}")),
        }
    }
}

// ---- set-up ---------------------------------------------------------------------

pub fn tenant_name(i: usize) -> String {
    format!("t{i}")
}

/// Everything a client does before its first measured commit: create the
/// tenant, commit the schema seed, register the catalog.
fn setup_tenant(conn: &mut Conn, w: &Workload, tenant: &str) -> Result<()> {
    let create = if w.shape == Shape::CommitAt {
        Request::CreateVtTenant {
            name: tenant.into(),
            durable: w.durable,
            max_delay: w.max_delay,
        }
    } else {
        Request::CreateTenant {
            name: tenant.into(),
            durable: w.durable,
        }
    };
    match conn.call(&create)? {
        Response::TenantCreated => {}
        other => return Err(format!("expected TenantCreated, got {other:?}")),
    }
    match conn.call(&Request::Commit {
        tenant: tenant.into(),
        ops: gen::seed_ops(w),
    })? {
        Response::Committed { outcomes, .. } if outcomes.iter().all(|o| o.is_ok()) => {}
        other => return Err(format!("schema seed rejected: {other:?}")),
    }
    match conn.call(&Request::RegisterRule {
        tenant: tenant.into(),
        source: gen::rule_source(w),
    })? {
        Response::RulesRegistered { .. } => Ok(()),
        other => Err(format!("expected RulesRegistered, got {other:?}")),
    }
}

/// A set-up server with its two connections; `subs[i]` is the id pushed
/// frames carry on connection `i`.
#[derive(Debug)]
pub struct Rig {
    pub server: Server,
    pub conns: Vec<Conn>,
    pub subs: Vec<u64>,
    pub setup: Duration,
}

/// Server spawn → tenants created, seeded, rules registered, subscriptions
/// open. The two tenants are set up concurrently, one per connection, as
/// two clients would.
pub fn setup(bin: &Path, data_dir: &Path, w: &'static Workload) -> Result<Rig> {
    let t0 = Instant::now();
    let server = Server::spawn(bin, data_dir)?;
    let mut conns = Vec::with_capacity(TENANTS);
    for _ in 0..TENANTS {
        conns.push(Conn::connect(&server.addr)?);
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, c)| s.spawn(move || setup_tenant(c, w, &tenant_name(i))))
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().map_err(|_| "set-up thread panicked".to_string())?)
    })?;
    let mut subs = Vec::with_capacity(TENANTS);
    for (i, c) in conns.iter_mut().enumerate() {
        let id = c.next_id;
        match c.call(&Request::SubscribeFirings {
            tenant: tenant_name(TENANTS - 1 - i),
        })? {
            Response::Subscribed => subs.push(id),
            other => return Err(format!("expected Subscribed, got {other:?}")),
        }
    }
    Ok(Rig {
        server,
        conns,
        subs,
        setup: t0.elapsed(),
    })
}

// ---- the measured phase ---------------------------------------------------------

/// One request's life, in nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub sent_ns: u64,
    /// 0 while unanswered (a failed request stays 0).
    pub acked_ns: u64,
    /// Firings the ack carried.
    pub firings: u32,
}

/// What one connection saw.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// Per request, in send order.
    pub samples: Vec<Sample>,
    /// Concatenation of every ack's firings (own tenant).
    pub acked: Vec<Fired>,
    /// The pushed stream (other tenant) with each frame's arrival instant.
    pub pushed: Vec<Fired>,
    pub push_ns: Vec<u64>,
    /// The first failure — transport error, `Error` response, rejected op,
    /// timeout — which ends this connection's run; the requests still
    /// unanswered then are the failed ones.
    pub failure: Option<String>,
    /// The server's `VmHWM` when [`Lane::rss_after`] requests were acked.
    pub rss_mb: Option<f64>,
}

impl ConnLog {
    /// Requests sent but never successfully answered.
    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| s.acked_ns == 0).count() as u64
    }
}

/// When a [`drive`] call stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Requests(usize),
    Deadline(Instant),
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Folds one received frame into the log. Returns `Ok(true)` for an ack.
fn absorb(
    log: &mut ConnLog,
    epoch: Instant,
    sub: u64,
    expect: Option<&(u64, usize)>,
    frame: (u64, Response),
) -> Result<bool> {
    let (rid, resp) = frame;
    if rid == sub {
        log.push_ns.push(ns_since(epoch));
        log.pushed.push(match resp {
            Response::Firing { record } => Fired::Plain(record),
            Response::VtFiring { event } => Fired::Vt(event),
            other => return Err(format!("unexpected frame on the subscription: {other:?}")),
        });
        return Ok(false);
    }
    let Some(&(id, idx)) = expect else {
        return Err(format!("frame for id {rid} with nothing in flight"));
    };
    if rid != id {
        return Err(format!(
            "ack for id {rid}, expected {id} (acks come in order)"
        ));
    }
    let now = ns_since(epoch);
    let before = log.acked.len();
    match resp {
        Response::Committed { outcomes, firings } => {
            if let Some(Err(why)) = outcomes.iter().find(|o| o.is_err()) {
                return Err(format!("op rejected: {why}"));
            }
            log.acked.extend(firings.into_iter().map(Fired::Plain));
        }
        Response::VtCommitted { events, .. } => {
            log.acked.extend(events.into_iter().map(Fired::Vt));
        }
        Response::Error { code, message } => {
            return Err(format!("server error [{code:?}]: {message}"))
        }
        other => return Err(format!("unexpected ack: {other:?}")),
    }
    log.samples[idx].acked_ns = now;
    log.samples[idx].firings = (log.acked.len() - before) as u32;
    Ok(true)
}

/// What stays the same across one connection's [`drive`] calls.
#[derive(Debug, Clone, Copy)]
pub struct Lane {
    /// Requests kept in flight.
    pub depth: usize,
    /// Id the subscription's pushed frames carry.
    pub sub: u64,
    pub epoch: Instant,
    /// Read the server's peak RSS when this many requests are acked.
    pub rss_after: usize,
    pub server_pid: u32,
}

/// Closed loop at pipeline depth `lane.depth`: keep that many requests in
/// flight until `until`, then drain the acks. Pushed frames of the
/// subscription interleave on the same socket and are logged as they arrive.
pub fn drive(conn: &mut Conn, reqs: &mut Requests, lane: Lane, until: Until, log: &mut ConnLog) {
    let Lane {
        depth, sub, epoch, ..
    } = lane;
    if log.failure.is_some() {
        return;
    }
    let mut inflight: VecDeque<(u64, usize)> = VecDeque::with_capacity(depth);
    let mut sent = 0usize;
    let keep_sending = |sent: usize| match until {
        Until::Requests(n) => sent < n,
        Until::Deadline(t) => Instant::now() < t,
    };
    let result = (|| -> Result<()> {
        loop {
            while inflight.len() < depth && keep_sending(sent) {
                let req = reqs.next_request();
                log.samples.push(Sample {
                    sent_ns: ns_since(epoch),
                    acked_ns: 0,
                    firings: 0,
                });
                let id = conn.send(req)?;
                inflight.push_back((id, log.samples.len() - 1));
                sent += 1;
            }
            if inflight.is_empty() {
                return Ok(());
            }
            let frame = conn.recv()?;
            if absorb(log, epoch, sub, inflight.front(), frame)? {
                let acked = inflight.pop_front().map_or(0, |(_, idx)| idx + 1);
                if acked == lane.rss_after {
                    log.rss_mb = Some(peak_rss_mb(lane.server_pid)?);
                }
            }
        }
    })();
    if let Err(e) = result {
        log.failure = Some(e);
    }
}

/// Reads pushed frames until the log holds `expected` of them (the other
/// connection's acked firing count) or the read times out.
pub fn drain_pushes(conn: &mut Conn, sub: u64, expected: usize, epoch: Instant, log: &mut ConnLog) {
    while log.pushed.len() < expected && log.failure.is_none() {
        let r = conn
            .recv()
            .and_then(|frame| absorb(log, epoch, sub, None, frame));
        if let Err(e) = r {
            log.failure = Some(format!(
                "push stream ended at {} of {expected} frames: {e}",
                log.pushed.len()
            ));
        }
    }
}

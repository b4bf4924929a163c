//! The shard pool: a fixed set of OS worker threads, each owning the
//! tenants routed to it, fed through per-worker MPSC queues.
//!
//! Ownership model (see `DESIGN.md` §12/§15): a tenant lives on exactly one
//! worker thread at a time — the worker's queue serializes every op against
//! it, so a tenant's firing log is as deterministic as a single-process
//! library run. Tenants on *different* workers share no mutable state (the
//! residual interning arena and compiled-program cache are process-wide but
//! internally synchronized and bounded), so workers never contend beyond
//! the global metrics registry.
//!
//! Requests travel as [`Job`]s inside [`Envelope`]s: the envelope carries a
//! per-tenant pending guard so the router always knows whether a tenant has
//! queued or in-flight work. That is what makes *re-pinning* safe: an idle
//! tenant (pending count zero, observed under the route lock) can be moved
//! from the hottest worker to the coldest with an `Expect`/`Extract`/
//! `Install` handshake that preserves the per-tenant FIFO (§15 argues the
//! ordering). Per-worker queue-depth and busy EWMAs ([`WorkerLoad`]) feed
//! the rebalance planner and the `tdb_server_worker_*` gauges.
//!
//! Every client request takes one path: [`Runtime::submit_net`] answers the
//! tenant-free kinds on the caller's thread and turns everything else into
//! the single request-carrying [`Job`]; the owning worker services it and
//! writes the response frame to the connection's [`SharedWriter`] itself,
//! through the one [`Reply`]. In-process callers ([`Runtime::call`]: boot
//! recovery, tests) ride the same path with a channel behind the writer.
//!
//! Commits coalesce over an *adaptive* window sized per tenant from the
//! observed group-apply latency and discounted by the batch-safety
//! certificate (`CascadeRequired` → no window, `Stratified` → discounted by
//! the observed fence-hit rate). The window only opens while the worker
//! queue is non-empty, so a lone serial client never pays window latency.

use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tdb_analysis::LintLevel;
use tdb_core::manager::{CascadeMode, ManagerConfig};
use tdb_core::rules::FiringRecord;
use tdb_core::storage::LogicalOp;
use tdb_core::{ApplyOutcome, BatchCertificate, ShardStats, SyncPolicy, VtFiringEvent, VtPhase};
use tdb_engine::WriteOp;
use tdb_obs::global;
use tdb_relation::Timestamp;
use tdb_storage::codec::encode_snapshot;
use tdb_storage::CheckpointPolicy;

use crate::conn::{DEFAULT_OUTBUF_HARD, DEFAULT_OUTBUF_SOFT};
use crate::metrics::{publish_tenant_gauges, publish_vt_watermark, ServerMetrics};
use crate::tenant::Tenant;
use crate::wire::{
    decode_response, encode_response, read_frame, write_frame, ErrorCode, MetricsFormat, Request,
    Response, PROTOCOL_VERSION,
};
use crate::{Result, ServerError};

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
    fn manager_config(&self) -> ManagerConfig {
        ManagerConfig {
            lint: self.lint,
            // Tenants run the eager cascade mode: group commits (and the
            // coalescer) stay byte-identical to the per-op schedule for
            // every batch-safety certificate class — fences are inserted
            // only where the certificate says the fused slice could
            // diverge.
            cascade: CascadeMode::Eager,
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

// ---- adaptive coalescing ----------------------------------------------------

/// Widest window the adaptive coalescer will ever open.
const ADAPTIVE_MAX_WINDOW_US: u64 = 5_000;
/// First-commit bootstrap window (no latency observation yet).
const ADAPTIVE_BOOTSTRAP_US: u64 = 100;

/// Per-tenant observations driving the adaptive commit coalescer. Lives on
/// the owning worker (no locks) and migrates with the tenant.
#[derive(Debug, Clone, Default)]
pub(crate) struct AdaptiveState {
    /// EWMA of ns one group apply takes — dominated by the WAL fsync for
    /// durable tenants, by the evaluation slice for volatile ones.
    apply_ns: u64,
    /// `batch_fence_drains()` value at the last observation.
    fences_at: u64,
    /// EWMA of fence drains per 1000 ops (the stratified discount).
    fence_permille: u64,
}

impl AdaptiveState {
    fn observe(&mut self, ops: u64, dt_ns: u64, fences_total: u64) {
        self.apply_ns = if self.apply_ns == 0 {
            dt_ns
        } else {
            (self.apply_ns * 3 + dt_ns) / 4
        };
        let delta = fences_total.saturating_sub(self.fences_at);
        self.fences_at = fences_total;
        if ops > 0 {
            let inst = delta
                .saturating_mul(1000)
                .checked_div(ops)
                .unwrap_or(0)
                .min(1000);
            self.fence_permille = (self.fence_permille * 3 + inst) / 4;
        }
    }

    /// The window this tenant's commits should coalesce over:
    /// `discount(certificate) × clamp(apply_ewma)`. Waiting about one
    /// group-apply time collects everything that would otherwise queue
    /// behind the fsync anyway, so the window buys batching without adding
    /// latency beyond what the slowest-path op already costs.
    fn window_us(&self, cert: &BatchCertificate) -> u64 {
        let discount_permille = match cert {
            BatchCertificate::CascadeRequired => return 0,
            BatchCertificate::Exact => 1000,
            // A stratified tenant loses fusion at every fence; discount
            // the window by the observed fence-hit rate.
            BatchCertificate::Stratified { .. } => 1000 - self.fence_permille.min(1000),
        };
        let base = if self.apply_ns == 0 {
            ADAPTIVE_BOOTSTRAP_US
        } else {
            (self.apply_ns / 1000).clamp(ADAPTIVE_BOOTSTRAP_US / 2, ADAPTIVE_MAX_WINDOW_US)
        };
        base * discount_permille / 1000
    }
}

// ---- load tracking ----------------------------------------------------------

/// One worker's load signals, shared lock-free between the worker, the
/// router, and the rebalance planner.
#[derive(Debug, Default)]
pub struct WorkerLoad {
    /// Envelopes enqueued and not yet dequeued.
    depth: AtomicI64,
    /// EWMA of the worker's busy fraction over ~100 ms buckets, ‰.
    busy_permille: AtomicU64,
}

impl WorkerLoad {
    pub fn queue_depth(&self) -> i64 {
        self.depth.load(Ordering::Acquire)
    }

    pub fn busy_permille(&self) -> u64 {
        self.busy_permille.load(Ordering::Relaxed)
    }
}

/// Busy/idle accumulator a worker folds into its [`WorkerLoad`] EWMA.
#[derive(Debug, Default)]
struct BusyMeter {
    busy: Duration,
    idle: Duration,
}

impl BusyMeter {
    fn flush_if_due(&mut self, load: &WorkerLoad) {
        if self.busy + self.idle >= Duration::from_millis(100) {
            self.flush(load);
        }
    }

    fn flush(&mut self, load: &WorkerLoad) {
        let total = self.busy + self.idle;
        if total.is_zero() {
            return;
        }
        let inst = (self.busy.as_nanos() * 1000 / total.as_nanos()) as u64;
        let old = load.busy_permille.load(Ordering::Relaxed);
        load.busy_permille
            .store((old * 3 + inst) / 4, Ordering::Relaxed);
        self.busy = Duration::ZERO;
        self.idle = Duration::ZERO;
    }
}

// ---- jobs -------------------------------------------------------------------

/// Where a request's one answer goes: onto its connection's writer, under
/// the request's id, counted under the request's kind.
struct Reply {
    id: u64,
    kind: &'static str,
    writer: SharedWriter,
    t0: Option<Instant>,
}

impl Reply {
    /// The single reply site: observe the request, write its frame.
    fn send(self, metrics: &ServerMetrics, resp: &Response) {
        let ok = !matches!(resp, Response::Error { .. });
        metrics.observe_request(self.kind, self.t0, ok);
        send_response(&self.writer, self.id, resp);
    }
}

/// One unit of work for a shard worker.
enum Job {
    /// A client request: the worker services it and writes the response
    /// frame to the connection itself — nobody blocks on the shard pool.
    Request { req: Request, reply: Reply },
    /// Migration, step 1 (to the destination worker): buffer every job for
    /// `tenant` until its shard arrives via `Install`.
    Expect { tenant: String },
    /// Migration, step 2 (to the source worker): remove the tenant and
    /// ship it to `dest`.
    Extract {
        tenant: String,
        dest: Sender<Envelope>,
        dest_load: Arc<WorkerLoad>,
        /// The route's in-flight-migration latch; cleared once `Install`
        /// lands (or here, if the handoff cannot be shipped).
        migrating: Arc<AtomicBool>,
    },
    /// Migration, step 3 (back on the destination): install the shard and
    /// drain the jobs buffered since `Expect`.
    Install { transfer: Box<TenantTransfer> },
    /// Periodic housekeeping: drop subscribers whose connection is
    /// already known dead (killed outbound queues), so a tenant that
    /// stops firing doesn't pin dead buffers or inflate the gauge.
    Sweep,
}

/// Everything that moves with a tenant during re-pinning.
pub(crate) struct TenantTransfer {
    name: String,
    /// `None` only if the source worker no longer had the shard (a bug
    /// upstream); the destination then answers `NoSuchTenant` naturally.
    tenant: Option<Tenant>,
    subscribers: Vec<(u64, SharedWriter)>,
    adaptive: Option<AdaptiveState>,
    migrating: Arc<AtomicBool>,
}

impl Job {
    /// The tenant whose per-tenant order this job participates in — used
    /// to buffer jobs during migration. Control jobs and creates (whose
    /// route was fixed at reservation time) return `None`.
    fn tenant(&self) -> Option<&str> {
        match self {
            Job::Request { req, .. } => request_tenant(req),
            _ => None,
        }
    }
}

/// Decrements a tenant's pending count when dropped — the router's "no
/// queued or in-flight work" signal that gates re-pinning.
struct PendingGuard(Arc<AtomicU64>);

impl PendingGuard {
    fn acquire(pending: &Arc<AtomicU64>) -> PendingGuard {
        pending.fetch_add(1, Ordering::AcqRel);
        PendingGuard(Arc::clone(pending))
    }
}

impl Drop for PendingGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// What actually travels a worker queue: the job plus its tenant's pending
/// guard (held until the worker finishes the job).
struct Envelope {
    job: Job,
    _guard: Option<PendingGuard>,
}

/// [`Runtime::call`]'s writer: collects one frame and hands it to the
/// blocked caller on flush.
struct ChannelSink {
    frame: Vec<u8>,
    tx: Sender<Vec<u8>>,
}

impl Write for ChannelSink {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.frame.extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.tx
            .send(std::mem::take(&mut self.frame))
            .map_err(|_| std::io::ErrorKind::BrokenPipe.into())
    }
}

impl FrameSink for ChannelSink {}

// ---- routing ----------------------------------------------------------------

/// Where a tenant lives, plus the signals the rebalance planner needs.
#[derive(Debug)]
struct TenantRoute {
    worker: usize,
    /// Queued + in-flight jobs for this tenant (see [`PendingGuard`]).
    pending: Arc<AtomicU64>,
    /// `ms` (since runtime start) of the last job submitted.
    last_active: AtomicU64,
    /// Set by [`Runtime::repin`] when a migration starts and cleared only
    /// once the destination worker processes `Install`. The pending count
    /// cannot gate this window: `Expect`/`Extract`/`Install` are control
    /// jobs without guards, so without the latch a second re-pin accepted
    /// mid-handoff would make the second `Extract` find no shard and
    /// strand the tenant wherever the first `Install` put it.
    migrating: Arc<AtomicBool>,
}

/// The routing table, shared with workers so a failed create can roll
/// back the entry reserved for it.
type RouteTable = Arc<Mutex<HashMap<String, TenantRoute>>>;

/// Don't re-pin again within this long of the last move.
const REBALANCE_COOLDOWN: Duration = Duration::from_millis(500);
/// Busy thresholds (‰) for the hottest/coldest worker pair.
const REBALANCE_HOT_PERMILLE: u64 = 600;
const REBALANCE_COLD_PERMILLE: u64 = 200;

/// The shard pool. Cheap to share (`Arc` it); [`Runtime::shutdown`]
/// consumes the last owner, drains the queues, checkpoints durable tenants
/// and joins the workers.
#[derive(Debug)]
pub struct Runtime {
    cfg: ServerConfig,
    queues: Vec<Sender<Envelope>>,
    workers: Vec<JoinHandle<()>>,
    /// tenant name → route. Entries are reserved before the Create job
    /// runs (and rolled back on failure) so two racing creates of one
    /// name serialize here, not on the worker.
    route: RouteTable,
    next_worker: AtomicUsize,
    loads: Vec<Arc<WorkerLoad>>,
    epoch: Instant,
    last_repin: Mutex<Option<Instant>>,
    pub metrics: ServerMetrics,
}

impl Runtime {
    /// Spawns the pool and reopens any durable tenants found under
    /// `data_dir` (each subdirectory is one tenant, recovered via
    /// checkpoint + WAL replay before the server accepts connections).
    pub fn start(cfg: ServerConfig) -> Result<Runtime> {
        let workers = cfg.workers.max(1);
        let route: RouteTable = Arc::new(Mutex::new(HashMap::new()));
        let mut queues = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        let mut loads = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = channel::<Envelope>();
            let load = Arc::new(WorkerLoad::default());
            let wcfg = cfg.clone();
            let wload = Arc::clone(&load);
            let wroute = Arc::clone(&route);
            let handle = std::thread::Builder::new()
                .name(format!("tdb-shard-{i}"))
                .spawn(move || worker_loop(rx, wcfg, wload, wroute))
                .map_err(|e| ServerError::Storage(format!("spawning worker: {e}")))?;
            queues.push(tx);
            handles.push(handle);
            loads.push(load);
        }
        let rt = Runtime {
            cfg,
            queues,
            workers: handles,
            route,
            next_worker: AtomicUsize::new(0),
            loads,
            epoch: Instant::now(),
            last_repin: Mutex::new(None),
            metrics: ServerMetrics::resolve(),
        };
        rt.reopen_existing()?;
        Ok(rt)
    }

    /// Recovers every tenant directory under `data_dir`.
    fn reopen_existing(&self) -> Result<()> {
        let Some(root) = self.cfg.data_dir.clone() else {
            return Ok(());
        };
        if !root.exists() {
            std::fs::create_dir_all(&root)
                .map_err(|e| ServerError::Storage(format!("{}: {e}", root.display())))?;
            return Ok(());
        }
        let mut names: Vec<String> = std::fs::read_dir(&root)
            .map_err(|e| ServerError::Storage(format!("{}: {e}", root.display())))?
            .flatten()
            .filter(|e| e.path().is_dir())
            .filter_map(|e| e.file_name().to_str().map(String::from))
            .collect();
        names.sort();
        for name in names {
            // Blocking on purpose: recovery finishes before the server
            // announces itself.
            if let Response::Error { code, message } = self.call(Request::CreateTenant {
                name,
                durable: true,
            }) {
                return Err(ServerError::Remote { code, message });
            }
        }
        Ok(())
    }

    /// The configuration the pool was started with.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Validates the name and reserves a route entry for a new tenant.
    /// The reservation makes two racing creates of one name serialize on
    /// the route lock, not on a worker; the worker rolls the entry back
    /// if the create fails.
    fn reserve_route(&self, name: &str, durable: bool) -> Result<(usize, PendingGuard)> {
        validate_tenant_name(name)?;
        if durable && self.cfg.data_dir.is_none() {
            return Err(ServerError::Remote {
                code: ErrorCode::Storage,
                message: "server started without --data-dir; durable tenants unavailable".into(),
            });
        }
        // The routing table has no multi-step invariants (single
        // insert/remove per holder), so a poisoned lock — a panic on
        // some other connection thread — leaves it fully usable.
        let mut route = self.route.lock().unwrap_or_else(PoisonError::into_inner);
        if route.contains_key(name) {
            return Err(ServerError::Remote {
                code: ErrorCode::TenantExists,
                message: format!("tenant `{name}` already exists"),
            });
        }
        let w = self.next_worker.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        let pending = Arc::new(AtomicU64::new(0));
        let guard = PendingGuard::acquire(&pending);
        route.insert(
            name.to_string(),
            TenantRoute {
                worker: w,
                pending,
                last_active: AtomicU64::new(self.now_ms()),
                migrating: Arc::new(AtomicBool::new(false)),
            },
        );
        Ok((w, guard))
    }

    /// Live tenant names, sorted.
    pub fn tenants(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .route
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    fn enqueue(&self, worker: usize, job: Job, guard: Option<PendingGuard>) -> Result<()> {
        self.loads[worker].depth.fetch_add(1, Ordering::AcqRel);
        self.queues[worker]
            .send(Envelope { job, _guard: guard })
            .map_err(|_| {
                self.loads[worker].depth.fetch_sub(1, Ordering::AcqRel);
                internal("worker queue closed")
            })
    }

    /// The worker owning `tenant`, with the tenant marked busy.
    fn route_of(&self, tenant: &str) -> Result<(usize, PendingGuard)> {
        let route = self.route.lock().unwrap_or_else(PoisonError::into_inner);
        match route.get(tenant) {
            Some(r) => {
                r.last_active.store(self.now_ms(), Ordering::Relaxed);
                Ok((r.worker, PendingGuard::acquire(&r.pending)))
            }
            None => Err(no_such_tenant(tenant)),
        }
    }

    /// The one entry point for client requests. Cheap tenant-free kinds
    /// are answered here, on the caller's thread; everything else is
    /// queued for the owning worker, which writes the response to `writer`
    /// itself — the caller (the poller) never blocks on the shard pool.
    /// That includes creates: one queued behind a deep worker queue or a
    /// slow durable recovery must not stall every other connection.
    pub fn submit_net(&self, id: u64, req: Request, writer: &SharedWriter, t0: Option<Instant>) {
        let kind = request_kind(&req);
        let reply = || Reply {
            id,
            kind,
            writer: Arc::clone(writer),
            t0,
        };
        let resp = match req {
            Request::Hello { version } if version == PROTOCOL_VERSION => Response::HelloOk {
                version: PROTOCOL_VERSION,
            },
            Request::Hello { version } => Response::Error {
                code: ErrorCode::Protocol,
                message: format!(
                    "protocol version {version} not supported (server speaks {PROTOCOL_VERSION})"
                ),
            },
            Request::ListTenants => Response::Tenants {
                names: self.tenants(),
            },
            Request::Metrics { format } => {
                let snap = global().snapshot();
                let text = match format {
                    MetricsFormat::Prometheus => snap.render_prometheus(),
                    MetricsFormat::Json => snap.to_json(),
                };
                Response::MetricsText { text }
            }
            Request::Shutdown => Response::ShuttingDown,
            routed => match self.dispatch(routed, reply()) {
                Ok(()) => return,
                Err(e) => error_response(e),
            },
        };
        reply().send(&self.metrics, &resp);
    }

    /// Queues a tenant-scoped request on the worker that owns (or, for a
    /// create, will own) its tenant. A create's route entry is reserved
    /// here; the worker rolls it back if the create fails.
    fn dispatch(&self, req: Request, reply: Reply) -> Result<()> {
        let (worker, guard, reserved) = match &req {
            Request::CreateTenant { name, durable }
            | Request::CreateVtTenant { name, durable, .. } => {
                let (worker, guard) = self.reserve_route(name, *durable)?;
                (worker, guard, Some(name.clone()))
            }
            other => {
                let tenant = request_tenant(other)
                    .ok_or_else(|| internal("request is not worker-routable"))?;
                let (worker, guard) = self.route_of(tenant)?;
                (worker, guard, None)
            }
        };
        self.enqueue(worker, Job::Request { req, reply }, Some(guard))
            .inspect_err(|_| {
                if let Some(name) = &reserved {
                    unreserve(&self.route, name);
                }
            })
    }

    /// A blocking in-process request (boot recovery, tests): the same path
    /// a network client takes, with the response frame landing in a channel
    /// instead of a socket. To receive *pushed* frames, hand
    /// [`Runtime::submit_net`] a writer of your own instead.
    pub fn call(&self, req: Request) -> Response {
        let (tx, rx) = channel();
        let frame = Vec::new();
        let writer: SharedWriter = Arc::new(Mutex::new(ChannelSink { frame, tx }));
        self.submit_net(0, req, &writer, None);
        rx.recv()
            .ok()
            .and_then(|bytes| read_frame(&mut &bytes[..]).ok())
            .and_then(|payload| decode_response(&payload).ok())
            .map(|(_, resp)| resp)
            .unwrap_or_else(|| error_response(internal("worker dropped the request")))
    }

    /// Per-worker load signals (planner, gauges, tests).
    pub fn worker_loads(&self) -> &[Arc<WorkerLoad>] {
        &self.loads
    }

    /// Publishes the `tdb_server_worker_*` gauges.
    pub fn publish_worker_gauges(&self) {
        let r = global();
        for (i, load) in self.loads.iter().enumerate() {
            let label = i.to_string();
            let labels: &[(&str, &str)] = &[("worker", &label)];
            r.gauge_with("tdb_server_worker_queue_depth", labels)
                .set(load.queue_depth());
            r.gauge_with("tdb_server_worker_busy_permille", labels)
                .set(i64::try_from(load.busy_permille()).unwrap_or(i64::MAX));
        }
    }

    /// Asks every worker to drop subscribers whose connection is already
    /// known dead. Without this, a dead subscriber of a tenant that stops
    /// firing would be detected only by a failed push — pinning its
    /// killed outbound buffer and inflating the subscriptions gauge
    /// indefinitely. Called from the connection layer's planner tick.
    pub fn sweep_subscribers(&self) {
        for w in 0..self.queues.len() {
            let _ = self.enqueue(w, Job::Sweep, None);
        }
    }

    /// Moves `tenant` to worker `to` at a safe boundary. Refuses (typed
    /// error) while the tenant has queued or in-flight work — the caller
    /// retries on a later tick. See `DESIGN.md` §15 for why the
    /// `Expect`/`Extract`/`Install` handshake preserves per-tenant order.
    pub fn repin(&self, tenant: &str, to: usize) -> Result<()> {
        if to >= self.queues.len() {
            return Err(internal("no such worker"));
        }
        let mut route = self.route.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(r) = route.get_mut(tenant) else {
            return Err(no_such_tenant(tenant));
        };
        if r.worker == to {
            return Ok(());
        }
        if r.pending.load(Ordering::Acquire) != 0 {
            return Err(internal(
                "tenant has queued or in-flight work; re-pin refused",
            ));
        }
        // The pending count only covers guarded (tenant-scoped) jobs; the
        // previous move's Expect/Extract/Install control jobs may still be
        // queued — a saturated source worker can hold Extract past any
        // wall-clock cooldown. Accepting a second move in that window
        // would make its Extract find no shard (TenantTransfer { tenant:
        // None }) and strand the data on the first move's destination
        // while the route points elsewhere. The latch closes that window:
        // set here, cleared by the destination worker once Install lands.
        if r.migrating.swap(true, Ordering::AcqRel) {
            return Err(internal("tenant migration in flight; re-pin refused"));
        }
        let from = r.worker;
        let migrating = Arc::clone(&r.migrating);
        // Order matters, and the route lock is held across all three
        // steps: `Expect` reaches the destination queue before the route
        // flips, so every job submitted after the flip queues behind it
        // and gets buffered until `Install` delivers the shard. The source
        // queue holds no job for this tenant (pending == 0), so `Extract`
        // is its next and last touch there.
        let sent = self
            .enqueue(
                to,
                Job::Expect {
                    tenant: tenant.to_string(),
                },
                None,
            )
            .and_then(|()| {
                self.enqueue(
                    from,
                    Job::Extract {
                        tenant: tenant.to_string(),
                        dest: self.queues[to].clone(),
                        dest_load: Arc::clone(&self.loads[to]),
                        migrating: Arc::clone(&migrating),
                    },
                    None,
                )
            });
        if let Err(e) = sent {
            // Queues only close at shutdown; release the latch so the
            // error is not sticky.
            migrating.store(false, Ordering::Release);
            return Err(e);
        }
        r.worker = to;
        self.metrics.repins.inc();
        Ok(())
    }

    /// One planner tick: if the busiest worker is saturated and the
    /// calmest one is idle, move the longest-idle tenant (no queued or
    /// in-flight work) from hot to cold. Called periodically by the
    /// connection layer; cheap when balanced.
    pub fn maybe_rebalance(&self) {
        if self.queues.len() < 2 {
            return;
        }
        {
            let last = self
                .last_repin
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(t) = *last {
                if t.elapsed() < REBALANCE_COOLDOWN {
                    return;
                }
            }
        }
        let busy: Vec<u64> = self.loads.iter().map(|l| l.busy_permille()).collect();
        let (mut hot, mut cold) = (0usize, 0usize);
        for i in 1..busy.len() {
            if busy[i] > busy[hot] {
                hot = i;
            }
            if busy[i] < busy[cold] {
                cold = i;
            }
        }
        if hot == cold || busy[hot] < REBALANCE_HOT_PERMILLE || busy[cold] > REBALANCE_COLD_PERMILLE
        {
            return;
        }
        let victim = {
            let route = self.route.lock().unwrap_or_else(PoisonError::into_inner);
            let on_hot = route.values().filter(|r| r.worker == hot).count();
            if on_hot < 2 {
                // Moving the only tenant just relocates the hotspot.
                return;
            }
            route
                .iter()
                .filter(|(_, r)| {
                    r.worker == hot
                        && r.pending.load(Ordering::Acquire) == 0
                        && !r.migrating.load(Ordering::Acquire)
                })
                .min_by(|(an, ar), (bn, br)| {
                    ar.last_active
                        .load(Ordering::Relaxed)
                        .cmp(&br.last_active.load(Ordering::Relaxed))
                        .then_with(|| an.cmp(bn))
                })
                .map(|(name, _)| name.clone())
        };
        let Some(victim) = victim else { return };
        if self.repin(&victim, cold).is_ok() {
            *self
                .last_repin
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(Instant::now());
        }
    }

    /// Drains every queue, checkpoints durable tenants, joins the workers.
    pub fn shutdown(self) {
        drop(self.queues);
        for h in self.workers {
            let _ = h.join();
        }
    }
}

fn internal(msg: &str) -> ServerError {
    ServerError::Remote {
        code: ErrorCode::Internal,
        message: msg.into(),
    }
}

fn no_such_tenant(tenant: &str) -> ServerError {
    ServerError::Remote {
        code: ErrorCode::NoSuchTenant,
        message: format!("no tenant `{tenant}`"),
    }
}

/// Rolls back a route entry reserved for a create that did not happen.
fn unreserve(route: &RouteTable, name: &str) {
    route
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .remove(name);
}

/// Tenant names become directory names; keep them path-safe.
fn validate_tenant_name(name: &str) -> Result<()> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    if ok {
        Ok(())
    } else {
        Err(ServerError::Remote {
            code: ErrorCode::Protocol,
            message: format!("invalid tenant name `{name}`: use 1-64 chars of [A-Za-z0-9_-]"),
        })
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
                _ => ErrorCode::Internal,
            };
            (code, c.to_string())
        }
        ServerError::Storage(m) => (ErrorCode::Storage, m),
        ServerError::Invalid(m) => (ErrorCode::Protocol, m),
    };
    Response::Error { code, message }
}

/// Writes one response frame under the connection's writer lock.
pub(crate) fn send_response(writer: &SharedWriter, id: u64, resp: &Response) -> bool {
    let payload = encode_response(id, resp);
    let mut w = match writer.lock() {
        Ok(w) => w,
        Err(_) => return false,
    };
    write_frame(&mut *w, &payload).is_ok() && w.flush().is_ok()
}

// ---- worker -----------------------------------------------------------------

/// A commit's answer: one result per op, and the firings they produced.
type Committed = (Vec<std::result::Result<(), String>>, Vec<FiringRecord>);

/// Splits apply outcomes into the wire's `Committed` shape, in op order.
fn split_outcomes(outs: impl IntoIterator<Item = ApplyOutcome>) -> Committed {
    let mut outcomes = Vec::new();
    let mut firings = Vec::new();
    for out in outs {
        outcomes.push(out.result);
        firings.extend(out.firings);
    }
    (outcomes, firings)
}

struct WorkerState {
    cfg: ServerConfig,
    tenants: HashMap<String, Tenant>,
    /// Per-tenant firing subscribers: (subscription request id, writer).
    subscribers: HashMap<String, Vec<(u64, SharedWriter)>>,
    /// Per-tenant adaptive-coalescing observations.
    adaptive: HashMap<String, AdaptiveState>,
    /// Tenants migrating *to* this worker: jobs buffered until `Install`.
    expected: HashMap<String, Vec<Envelope>>,
    load: Arc<WorkerLoad>,
    /// Shared routing table — only touched to roll back a reserved entry
    /// when a create fails.
    route: RouteTable,
    metrics: ServerMetrics,
}

fn worker_loop(
    rx: Receiver<Envelope>,
    cfg: ServerConfig,
    load: Arc<WorkerLoad>,
    route: RouteTable,
) {
    let mut st = WorkerState {
        cfg,
        tenants: HashMap::new(),
        subscribers: HashMap::new(),
        adaptive: HashMap::new(),
        expected: HashMap::new(),
        load: Arc::clone(&load),
        route,
        metrics: ServerMetrics::resolve(),
    };
    // When coalescing, a non-matching envelope dequeued while a group was
    // open carries over to the next iteration instead of being dropped.
    let mut carry: Option<Envelope> = None;
    let mut meter = BusyMeter::default();
    loop {
        let env = match carry.take() {
            Some(e) => e,
            None => {
                let t_wait = Instant::now();
                // A bounded wait keeps the busy EWMA fresh even while the
                // worker sits idle (the planner must see it as cold).
                match rx.recv_timeout(Duration::from_millis(100)) {
                    Ok(e) => {
                        load.depth.fetch_sub(1, Ordering::AcqRel);
                        meter.idle += t_wait.elapsed();
                        e
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        meter.idle += t_wait.elapsed();
                        meter.flush(&load);
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        };
        // Jobs for a tenant whose shard has not arrived yet wait in the
        // buffer; `Install` drains them in arrival order.
        if let Some(t) = env.job.tenant() {
            if let Some(buf) = st.expected.get_mut(t) {
                buf.push(env);
                continue;
            }
        }
        let t_busy = Instant::now();
        let Envelope { job, _guard } = env;
        let window = match &job {
            Job::Request {
                req: Request::Commit { tenant, .. },
                ..
            } => st.commit_window_us(tenant),
            _ => 0,
        };
        match job {
            Job::Request {
                req: Request::Commit { tenant, ops },
                reply,
            } if window > 0 => {
                carry = st.coalesced_commit(&rx, window, tenant, ops, reply);
            }
            other => st.handle(other),
        }
        meter.busy += t_busy.elapsed();
        meter.flush_if_due(&load);
    }
    // Queue closed: graceful shutdown. Checkpoint durable tenants so the
    // next start recovers from a fresh snapshot instead of a long replay
    // (valid-time tenants just fsync — their log is their state).
    for tenant in st.tenants.values_mut() {
        if tenant.durable_dir().is_some() {
            let _ = tenant.checkpoint_now();
        }
    }
}

impl WorkerState {
    fn tenant_mut(&mut self, name: &str) -> Result<&mut Tenant> {
        self.tenants
            .get_mut(name)
            .ok_or_else(|| no_such_tenant(name))
    }

    /// How long this commit should linger collecting followers: the
    /// tenant's adaptive window — but only while other work is queued (an
    /// empty queue means a window is pure added latency for a serial
    /// client). A `CascadeRequired` rule set (and every valid-time tenant)
    /// gets 0: the eager cascade re-enters dispatch after every
    /// state-producing op anyway, so a wider slice would buy only fsync
    /// amortization with added latency.
    fn commit_window_us(&self, tenant: &str) -> u64 {
        if self.load.queue_depth() <= 0 {
            return 0;
        }
        let Some(t) = self.tenants.get(tenant) else {
            return 0;
        };
        let cert = t.batch_certificate();
        self.adaptive
            .get(tenant)
            .cloned()
            .unwrap_or_default()
            .window_us(&cert)
    }

    fn handle(&mut self, job: Job) {
        match job {
            Job::Request { req, reply } => {
                let resp = self.service(req, &reply).unwrap_or_else(error_response);
                reply.send(&self.metrics, &resp);
            }
            Job::Expect { tenant } => {
                self.expected.entry(tenant).or_default();
            }
            Job::Extract {
                tenant,
                dest,
                dest_load,
                migrating,
            } => {
                let transfer = TenantTransfer {
                    name: tenant.clone(),
                    tenant: self.tenants.remove(&tenant),
                    subscribers: self.subscribers.remove(&tenant).unwrap_or_default(),
                    adaptive: self.adaptive.remove(&tenant),
                    migrating,
                };
                dest_load.depth.fetch_add(1, Ordering::AcqRel);
                if let Err(e) = dest.send(Envelope {
                    job: Job::Install {
                        transfer: Box::new(transfer),
                    },
                    _guard: None,
                }) {
                    dest_load.depth.fetch_sub(1, Ordering::AcqRel);
                    // Destination gone (shutdown): the move will never
                    // complete, so don't leave the latch stuck.
                    if let Envelope {
                        job: Job::Install { transfer },
                        ..
                    } = e.0
                    {
                        transfer.migrating.store(false, Ordering::Release);
                    }
                }
            }
            Job::Install { transfer } => {
                let TenantTransfer {
                    name,
                    tenant,
                    subscribers,
                    adaptive,
                    migrating,
                } = *transfer;
                if let Some(t) = tenant {
                    self.tenants.insert(name.clone(), t);
                }
                if !subscribers.is_empty() {
                    self.subscribers.insert(name.clone(), subscribers);
                }
                if let Some(a) = adaptive {
                    self.adaptive.insert(name.clone(), a);
                }
                if let Some(buffered) = self.expected.remove(&name) {
                    for env in buffered {
                        let Envelope { job, _guard } = env;
                        // Buffered jobs replay in arrival order; no
                        // coalescing inside the drain (it is short).
                        self.handle(job);
                    }
                }
                // The shard (and its buffered backlog) now lives here;
                // only now may the router accept the tenant's next move.
                migrating.store(false, Ordering::Release);
            }
            Job::Sweep => self.sweep_dead_subscribers(),
        }
    }

    /// Drops subscribers whose connection reports itself dead (killed
    /// outbound queues), freeing their buffers and keeping the
    /// subscriptions gauge honest even for tenants that never fire again.
    fn sweep_dead_subscribers(&mut self) {
        let metrics = &self.metrics;
        self.subscribers.retain(|_, subs| {
            subs.retain(|(_, writer)| {
                let dead = match writer.lock() {
                    Ok(w) => w.is_dead(),
                    Err(_) => true,
                };
                if dead {
                    metrics.subscriptions.add(-1);
                }
                !dead
            });
            !subs.is_empty()
        });
    }

    /// The one function from a worker-routed request to its response.
    /// `reply` is only consulted by `SubscribeFirings`, which keeps the
    /// connection's writer for the pushes that follow.
    fn service(&mut self, req: Request, reply: &Reply) -> Result<Response> {
        Ok(match req {
            Request::CreateTenant { name, durable } => self.create(&name, durable, None)?,
            Request::CreateVtTenant {
                name,
                durable,
                max_delay,
            } => {
                let delta = if max_delay <= 0 {
                    self.cfg.max_delay
                } else {
                    max_delay
                };
                self.create(&name, durable, Some(delta))?
            }
            Request::RegisterRule { tenant, source } => {
                let (registered, findings) = self.tenant_mut(&tenant)?.register_rules(&source)?;
                Response::RulesRegistered {
                    registered,
                    findings,
                }
            }
            Request::Commit { tenant, ops } => {
                let (outcomes, firings) = self.commit(&tenant, &ops, false)?;
                Response::Committed { outcomes, firings }
            }
            Request::CommitBatch { tenant, ops } => {
                let (outcomes, firings) = self.commit(&tenant, &ops, true)?;
                Response::Committed { outcomes, firings }
            }
            Request::CommitAt {
                tenant,
                arrival,
                valid,
                ops,
            } => {
                let (watermark, events) = self.commit_at(&tenant, arrival, valid, ops)?;
                Response::VtCommitted { watermark, events }
            }
            Request::Query {
                tenant,
                text,
                params,
            } => Response::Rows {
                relation: self.tenant_mut(&tenant)?.query(&text, &params)?,
            },
            Request::Snapshot { tenant } => Response::SnapshotData {
                bytes: self.snapshot(&tenant)?,
            },
            Request::Firings { tenant, from } => {
                let start = usize::try_from(from).unwrap_or(usize::MAX);
                let records = self.tenant_mut(&tenant)?.firings_from(start);
                Response::FiringsList { from, records }
            }
            Request::SubscribeFirings { tenant } => {
                self.tenant_mut(&tenant)?;
                self.subscribers
                    .entry(tenant)
                    .or_default()
                    .push((reply.id, Arc::clone(&reply.writer)));
                self.metrics.subscriptions.add(1);
                Response::Subscribed
            }
            Request::TenantStats { tenant } => {
                let (s, wal_bytes) = self.publish_gauges(&tenant)?;
                Response::Stats {
                    states: s.states as u64,
                    rules: s.rules as u64,
                    firings: s.firings as u64,
                    retained: s.retained as u64,
                    now: s.now,
                    wal_bytes,
                    batch_safety: s.batch_safety.gauge_value(),
                }
            }
            other => {
                return Err(internal(&format!(
                    "request `{}` is not worker-routable",
                    request_kind(&other)
                )))
            }
        })
    }

    fn snapshot(&mut self, tenant: &str) -> Result<Vec<u8>> {
        self.tenant_mut(tenant).and_then(|t| {
            if t.is_vt() {
                return Err(ServerError::Remote {
                    code: ErrorCode::Unsupported,
                    message: format!(
                        "tenant `{tenant}` is a valid-time tenant; its log is its snapshot"
                    ),
                });
            }
            let snap = t.shard().adb().snapshot().map_err(ServerError::Core)?;
            Ok(encode_snapshot(&snap))
        })
    }

    /// Publishes the tenant's point-in-time gauges (and, on a valid-time
    /// tenant, its watermark) and returns what was published.
    fn publish_gauges(&mut self, tenant: &str) -> Result<(ShardStats, u64)> {
        let t = self.tenant_mut(tenant)?;
        let (stats, wal) = (t.stats(), t.wal_bytes());
        publish_tenant_gauges(tenant, &stats, wal);
        if let Some(wm) = t.watermark() {
            publish_vt_watermark(tenant, wm);
        }
        Ok((stats, wal))
    }

    /// Creates (or, at startup, reopens) a tenant on this worker. `vt:
    /// Some(Δ)` makes it a valid-time tenant with that disorder bound. The
    /// route entry was reserved by the router; a failed create gives it
    /// back.
    fn create(&mut self, name: &str, durable: bool, vt: Option<i64>) -> Result<Response> {
        match self.open_tenant(name, durable, vt) {
            Ok(tenant) => {
                self.tenants.insert(name.to_string(), tenant);
                self.metrics.tenants.add(1);
                Ok(Response::TenantCreated)
            }
            Err(e) => {
                unreserve(&self.route, name);
                Err(e)
            }
        }
    }

    fn open_tenant(&self, name: &str, durable: bool, vt: Option<i64>) -> Result<Tenant> {
        let mcfg = self.cfg.manager_config();
        Ok(match (durable, vt) {
            (true, vt) => {
                let root = self
                    .cfg
                    .data_dir
                    .clone()
                    .ok_or_else(|| internal("durable create routed without data_dir"))?;
                let dir = root.join(name);
                match vt {
                    // `Tenant::durable` dispatches on the on-disk `vt.meta`
                    // marker itself, so startup recovery reopens valid-time
                    // tenants without knowing their kind in advance.
                    None => Tenant::durable(name, &dir, mcfg, self.cfg.checkpoint)?,
                    Some(delta) => Tenant::durable_vt(name, &dir, delta, self.cfg.checkpoint.sync)?,
                }
            }
            (false, None) => Tenant::volatile(name, mcfg),
            (false, Some(delta)) => Tenant::volatile_vt(name, delta),
        })
    }

    /// Applies `ops` — one at a time, or `grouped` into one WAL record,
    /// one fsync and one evaluation slice — and times the apply. Also
    /// hands back the stream events a valid-time tenant buffered for it.
    #[allow(clippy::type_complexity)]
    fn apply(
        &mut self,
        tenant: &str,
        ops: &[LogicalOp],
        grouped: bool,
    ) -> Result<(Vec<ApplyOutcome>, Vec<VtFiringEvent>, Duration)> {
        let t0 = Instant::now();
        let t = self.tenant_mut(tenant)?;
        let outs = if grouped {
            t.apply_batch(ops)?
        } else {
            ops.iter().map(|op| t.apply(op)).collect::<Result<_>>()?
        };
        let dt = t0.elapsed();
        Ok((outs, t.drain_vt_events(), dt))
    }

    fn commit(&mut self, tenant: &str, ops: &[LogicalOp], grouped: bool) -> Result<Committed> {
        let (outs, events, dt) = self.apply(tenant, ops, grouped)?;
        let (outcomes, firings) = split_outcomes(outs);
        self.after_apply(tenant, ops.len(), dt, &firings, &events);
        Ok((outcomes, firings))
    }

    /// The streaming ingest path: clock to the arrival instant, ingest at
    /// the explicit valid time, stream the phase-tagged events to
    /// subscribers, and answer with watermark + events.
    fn commit_at(
        &mut self,
        tenant: &str,
        arrival: Timestamp,
        valid: Timestamp,
        ops: Vec<WriteOp>,
    ) -> Result<(Timestamp, Vec<VtFiringEvent>)> {
        let t0 = Instant::now();
        let (watermark, events) = self.tenant_mut(tenant)?.commit_at(arrival, valid, ops)?;
        self.after_apply(tenant, 1, t0.elapsed(), &[], &events);
        Ok((watermark, events))
    }

    /// The one post-apply step, whatever the commit flavour: publish the
    /// tenant's gauges, fold the apply's duration and fence count into its
    /// adaptive state, and push what it produced to the subscribers.
    fn after_apply(
        &mut self,
        tenant: &str,
        ops: usize,
        dt: Duration,
        firings: &[FiringRecord],
        events: &[VtFiringEvent],
    ) {
        // The apply just succeeded, so the tenant exists; the lookups stay
        // fallible to keep this path panic-free.
        if self.publish_gauges(tenant).is_err() {
            return;
        }
        let Some(t) = self.tenants.get(tenant) else {
            return;
        };
        let (is_vt, fences) = (t.is_vt(), t.batch_fence_drains());
        let dt_ns = u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX);
        self.adaptive
            .entry(tenant.to_string())
            .or_default()
            .observe(ops as u64, dt_ns, fences);
        for e in events {
            match e.phase {
                VtPhase::Tentative => self.metrics.vt_tentative.inc(),
                VtPhase::Confirmed => self.metrics.vt_confirmed.inc(),
                VtPhase::Retracted => self.metrics.vt_retractions.inc(),
            }
        }
        self.push_frames(tenant, events, |e| Response::VtFiring { event: e.clone() });
        // On a valid-time tenant the subscriber stream is the phase-tagged
        // event stream; the confirmed records answer the request but are
        // not re-pushed as plain `Firing` frames.
        if !is_vt {
            self.push_frames(tenant, firings, |f| Response::Firing { record: f.clone() });
        }
    }

    /// Time-window coalescer: starting from one dequeued commit, keeps
    /// draining *consecutive commits for the same tenant* from the worker
    /// queue for up to `window_us`, applies them as one group commit, and
    /// answers each original request with its own slice of the outcomes and
    /// firings. The first non-matching envelope closes the group and is
    /// returned to the worker loop as carry-over.
    fn coalesced_commit(
        &mut self,
        rx: &Receiver<Envelope>,
        window_us: u64,
        tenant: String,
        ops: Vec<LogicalOp>,
        reply: Reply,
    ) -> Option<Envelope> {
        let mut all_ops = ops;
        let mut group: Vec<(usize, Reply)> = vec![(all_ops.len(), reply)];
        // Members' pending guards stay alive until their replies are sent,
        // so the router keeps seeing the tenant as busy.
        let mut guards: Vec<Option<PendingGuard>> = Vec::new();
        let mut carry = None;
        let deadline = Instant::now() + Duration::from_micros(window_us);
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            let Ok(env) = rx.recv_timeout(left) else {
                break;
            };
            self.load.depth.fetch_sub(1, Ordering::AcqRel);
            if let Some(t) = env.job.tenant() {
                if let Some(buf) = self.expected.get_mut(t) {
                    buf.push(env);
                    continue;
                }
            }
            let Envelope { job, _guard } = env;
            match job {
                Job::Request {
                    req: Request::Commit { tenant: t2, ops },
                    reply,
                } if t2 == tenant => {
                    group.push((ops.len(), reply));
                    all_ops.extend(ops);
                    guards.push(_guard);
                }
                other => {
                    carry = Some(Envelope { job: other, _guard });
                    break;
                }
            }
        }
        match self.apply(&tenant, &all_ops, true) {
            Ok((outs, events, dt)) => {
                let mut firings = Vec::new();
                let mut outs = outs.into_iter();
                for (n, reply) in group {
                    let (outcomes, own) = split_outcomes(outs.by_ref().take(n));
                    firings.extend_from_slice(&own);
                    let firings = own;
                    reply.send(&self.metrics, &Response::Committed { outcomes, firings });
                }
                self.after_apply(&tenant, all_ops.len(), dt, &firings, &events);
            }
            Err(e) => {
                // A structural failure fails every commit in the group.
                let resp = error_response(e);
                for (_, reply) in group {
                    reply.send(&self.metrics, &resp);
                }
            }
        }
        drop(guards);
        carry
    }

    /// Streams one frame per item to every subscriber of `tenant`,
    /// dropping dead connections.
    fn push_frames<T>(&mut self, tenant: &str, items: &[T], frame: impl Fn(&T) -> Response) {
        if items.is_empty() {
            return;
        }
        let Some(subs) = self.subscribers.get_mut(tenant) else {
            return;
        };
        let metrics = &self.metrics;
        subs.retain(|(id, writer)| {
            let pushed = writer.lock().is_ok_and(|mut w| {
                for item in items {
                    let payload = encode_response(*id, &frame(item));
                    if write_frame(&mut *w, &payload).is_err() {
                        return false;
                    }
                    metrics.firings_streamed.inc();
                }
                let _ = w.flush();
                true
            });
            if !pushed {
                metrics.subscriptions.add(-1);
            }
            pushed
        });
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use tdb_relation::{QueryDef, Relation, Value};

    /// A fake connection: everything written at it lands in a shared buffer.
    #[derive(Debug, Default, Clone)]
    struct VecWriter(Arc<Mutex<Vec<u8>>>);
    impl Write for VecWriter {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    impl FrameSink for VecWriter {}

    impl VecWriter {
        fn shared(&self) -> SharedWriter {
            Arc::new(Mutex::new(self.clone()))
        }

        /// Every frame written so far, decoded.
        fn frames(&self) -> Vec<(u64, Response)> {
            let bytes = self.0.lock().unwrap().clone();
            let mut rd: &[u8] = &bytes;
            let mut out = Vec::new();
            while let Ok(payload) = read_frame(&mut rd) {
                out.push(decode_response(&payload).unwrap());
            }
            out
        }

        /// The pushed firing records, after the `Subscribed` answer.
        fn pushed(&self, sub_id: u64) -> Vec<FiringRecord> {
            let mut frames = self.frames().into_iter();
            assert_eq!(frames.next(), Some((sub_id, Response::Subscribed)));
            frames
                .map(|(id, resp)| match resp {
                    Response::Firing { record } if id == sub_id => record,
                    other => panic!("expected firing under id {sub_id}, got {id}: {other:?}"),
                })
                .collect()
        }
    }

    fn start(workers: usize) -> Runtime {
        Runtime::start(ServerConfig {
            workers,
            ..ServerConfig::default()
        })
        .unwrap()
    }

    fn create(rt: &Runtime, name: &str) -> Response {
        rt.call(Request::CreateTenant {
            name: name.into(),
            durable: false,
        })
    }

    fn commit(rt: &Runtime, tenant: &str, ops: Vec<LogicalOp>) -> Committed {
        match rt.call(Request::Commit {
            tenant: tenant.into(),
            ops,
        }) {
            Response::Committed { outcomes, firings } => (outcomes, firings),
            other => panic!("commit on `{tenant}`: {other:?}"),
        }
    }

    fn register(rt: &Runtime, tenant: &str, source: &str) -> Vec<String> {
        match rt.call(Request::RegisterRule {
            tenant: tenant.into(),
            source: source.into(),
        }) {
            Response::RulesRegistered { findings, .. } => findings,
            other => panic!("register on `{tenant}`: {other:?}"),
        }
    }

    fn item_n(rt: &Runtime, tenant: &str) -> Relation {
        match rt.call(Request::Query {
            tenant: tenant.into(),
            text: "item n".into(),
            params: vec![],
        }) {
            Response::Rows { relation } => relation,
            other => panic!("query on `{tenant}`: {other:?}"),
        }
    }

    fn firings(rt: &Runtime, tenant: &str) -> Vec<FiringRecord> {
        match rt.call(Request::Firings {
            tenant: tenant.into(),
            from: 0,
        }) {
            Response::FiringsList { records, .. } => records,
            other => panic!("firings of `{tenant}`: {other:?}"),
        }
    }

    /// `TenantStats` — also the rendezvous that proves every job queued
    /// before it on the tenant's worker has run.
    fn stats(rt: &Runtime, tenant: &str) -> Response {
        let resp = rt.call(Request::TenantStats {
            tenant: tenant.into(),
        });
        assert!(matches!(resp, Response::Stats { .. }), "{resp:?}");
        resp
    }

    fn subscribe(rt: &Runtime, tenant: &str, id: u64, writer: &SharedWriter) {
        let tenant = tenant.to_string();
        rt.submit_net(id, Request::SubscribeFirings { tenant }, writer, None);
    }

    fn seed(rt: &Runtime, tenant: &str) {
        assert_eq!(create(rt, tenant), Response::TenantCreated);
        let (outcomes, _) = commit(
            rt,
            tenant,
            vec![
                LogicalOp::SetItem {
                    name: "n".into(),
                    value: Value::Int(0),
                },
                LogicalOp::DefineQuery {
                    name: "n".into(),
                    def: QueryDef::new(0, tdb_relation::parse_query("item n").unwrap()),
                },
            ],
        );
        assert!(outcomes.iter().all(|o| o.is_ok()));
    }

    fn set_n(v: i64) -> LogicalOp {
        LogicalOp::Update {
            ops: vec![WriteOp::SetItem {
                item: "n".into(),
                value: Value::Int(v),
            }],
        }
    }

    fn bump(v: i64) -> Vec<LogicalOp> {
        vec![LogicalOp::AdvanceClock { delta: 1 }, set_n(v)]
    }

    /// Firings are edge-triggered, so this drops n below the threshold
    /// and then crosses it again: exactly one firing per commit.
    fn toggle(v: i64) -> Vec<LogicalOp> {
        vec![LogicalOp::AdvanceClock { delta: 1 }, set_n(-1), set_n(v)]
    }

    const WATCH: &str = "rule watch { when n() >= 5; then notify; }";

    /// `tdb_server_tenant_repins_total` is process-wide: the tests that
    /// count re-pins take turns.
    static COUNTING_REPINS: Mutex<()> = Mutex::new(());

    /// Pokes at a tenant's route entry (simulated in-flight work, latch).
    fn with_route<R>(rt: &Runtime, tenant: &str, f: impl FnOnce(&TenantRoute) -> R) -> R {
        f(rt.route.lock().unwrap().get(tenant).unwrap())
    }

    #[test]
    fn tenants_route_and_serialize_independently() {
        let rt = start(2);
        for name in ["a", "b", "c"] {
            seed(&rt, name);
            register(&rt, name, WATCH);
        }
        assert_eq!(rt.tenants(), vec!["a", "b", "c"]);
        assert!(matches!(
            create(&rt, "a"),
            Response::Error {
                code: ErrorCode::TenantExists,
                ..
            }
        ));

        let (_, firings_a) = commit(&rt, "a", bump(7));
        assert_eq!(firings_a.len(), 1);
        let (_, firings_b) = commit(&rt, "b", bump(3));
        assert!(firings_b.is_empty(), "tenant b must not see a's state");
        assert_eq!(item_n(&rt, "a"), Relation::scalar(Value::Int(7)));
        assert_eq!(firings(&rt, "a").len(), 1);
        assert_eq!(firings(&rt, "b").len(), 0);
        assert!(matches!(
            stats(&rt, "a"),
            Response::Stats {
                rules: 1,
                wal_bytes: 0,
                ..
            }
        ));
        rt.shutdown();
    }

    /// A `CascadeRequired` tenant never opens a coalescing window, and its
    /// commits stay exact: the eager cascade mode re-enters dispatch
    /// mid-commit, so a self-writing rule fires at the state that
    /// satisfied it.
    #[test]
    fn coalescer_consults_certificate_and_stays_exact() {
        let rt = start(1);
        seed(&rt, "t");
        let findings = register(&rt, "t", "rule bump { when n() = 1; then set n := 2; }");
        assert!(
            findings
                .iter()
                .any(|f| f.contains("batch-safety: cascade-required")),
            "register reports the certificate: {findings:?}"
        );
        let (outcomes, firings) = commit(&rt, "t", bump(1));
        assert!(outcomes.iter().all(|o| o.is_ok()));
        assert_eq!(firings.len(), 1);
        assert_eq!(firings[0].rule, "bump");
        assert_eq!(
            item_n(&rt, "t"),
            Relation::scalar(Value::Int(2)),
            "the fired action's write applied"
        );
        assert!(matches!(
            stats(&rt, "t"),
            Response::Stats {
                batch_safety: -1,
                ..
            }
        ));
        rt.shutdown();
    }

    #[test]
    fn subscriptions_receive_pushed_firing_frames() {
        let rt = start(4);
        seed(&rt, "t");
        register(&rt, "t", WATCH);
        let conn = VecWriter::default();
        subscribe(&rt, "t", 99, &conn.shared());
        commit(&rt, "t", bump(9));
        let pushed = conn.pushed(99);
        assert_eq!(pushed.len(), 1);
        assert_eq!(pushed[0].rule, "watch");
        rt.shutdown();
    }

    /// Re-pinning a tenant across workers preserves results, firing order,
    /// and live subscriptions (the shard, its subscribers and its adaptive
    /// state all move together).
    #[test]
    fn repin_preserves_order_and_subscriptions() {
        let _turn = COUNTING_REPINS
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let rt = start(2);
        seed(&rt, "mv");
        register(&rt, "mv", WATCH);
        let conn = VecWriter::default();
        subscribe(&rt, "mv", 7, &conn.shared());

        // A reply races the worker's pending-guard drop by a few µs, so an
        // immediate re-pin can be (correctly) refused; the planner would
        // just retry next tick. Spin like the planner does.
        let repin = |tenant: &str, to: usize| {
            for _ in 0..1000 {
                match rt.repin(tenant, to) {
                    Ok(()) => return,
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
            panic!("re-pin of `{tenant}` to worker {to} never became safe");
        };

        let before = rt.metrics.repins.get();
        // Bounce the tenant between both workers, committing in between:
        // every commit must land on exactly one owner, in order.
        for (i, dst) in [(1i64, 1usize), (2, 0), (3, 1), (4, 0)] {
            repin("mv", dst);
            let (outcomes, firings) = commit(&rt, "mv", toggle(i * 10));
            assert!(outcomes.iter().all(|o| o.is_ok()), "after repin to {dst}");
            assert_eq!(firings.len(), 1);
        }
        assert_eq!(rt.metrics.repins.get(), before + 4);
        assert_eq!(item_n(&rt, "mv"), Relation::scalar(Value::Int(40)));
        let all = firings(&rt, "mv");
        assert_eq!(all.len(), 4, "one firing per post-repin commit");
        let times: Vec<_> = all.iter().map(|f| f.time).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted, "per-tenant firing order survived moves");

        // The subscriber moved with the shard: 4 pushed frames, in order.
        assert_eq!(conn.pushed(7), all, "pushed stream matches the firing log");

        // Busy tenants refuse to move: simulate in-flight work.
        with_route(&rt, "mv", |r| r.pending.fetch_add(1, Ordering::SeqCst));
        assert!(rt.repin("mv", 1).is_err());
        with_route(&rt, "mv", |r| r.pending.fetch_sub(1, Ordering::SeqCst));

        // A migration already in flight also refuses: Expect/Extract/
        // Install carry no pending guard, so the latch is the only gate
        // against a second overlapping move stranding the shard.
        with_route(&rt, "mv", |r| r.migrating.store(true, Ordering::SeqCst));
        assert!(rt.repin("mv", 1).is_err());
        with_route(&rt, "mv", |r| r.migrating.store(false, Ordering::SeqCst));
        // Cleared latch: moves work again (Install released it after each
        // bounce above, or no successful repin could have followed).
        repin("mv", 1);
        rt.shutdown();
    }

    /// The planner tick itself: with worker 0 saturated and worker 1 idle
    /// it moves exactly one tenant — the longest-idle one without queued
    /// work or a move in flight — then holds still for the cooldown.
    #[test]
    fn planner_repins_the_longest_idle_tenant() {
        let _turn = COUNTING_REPINS
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let rt = start(2);
        // Round-robin placement: a0, a2, a4 land on worker 0.
        let names = ["a0", "a1", "a2", "a3", "a4"];
        for name in names {
            seed(&rt, name);
            register(&rt, name, WATCH);
        }
        let conn = VecWriter::default();
        subscribe(&rt, "a2", 5, &conn.shared());
        stats(&rt, "a2");
        let worker_of = |tenant: &str| with_route(&rt, tenant, |r| r.worker);
        assert_eq!(["a0", "a2", "a4"].map(worker_of), [0, 0, 0]);
        // Idle for real: every reply's pending guard has been dropped.
        for name in names {
            while with_route(&rt, name, |r| r.pending.load(Ordering::SeqCst)) != 0 {
                std::thread::yield_now();
            }
        }
        for (name, idle_since) in [("a0", 50), ("a2", 10), ("a4", 30)] {
            with_route(&rt, name, |r| {
                r.last_active.store(idle_since, Ordering::SeqCst)
            });
        }
        // The workers' own meters would decay this within a few 100 ms
        // buckets; each tick below runs right after the store.
        let skew = || {
            rt.loads[0].busy_permille.store(1000, Ordering::SeqCst);
            rt.loads[1].busy_permille.store(0, Ordering::SeqCst);
        };

        let before = rt.metrics.repins.get();
        skew();
        rt.maybe_rebalance();
        assert_eq!(rt.metrics.repins.get(), before + 1);
        assert_eq!(["a0", "a2", "a4"].map(worker_of), [0, 1, 0]);
        // The moved tenant answers from its new worker, subscription intact.
        let (_, fired) = commit(&rt, "a2", toggle(9));
        assert_eq!(fired.len(), 1);
        assert_eq!(firings(&rt, "a2"), fired);
        assert_eq!(conn.pushed(5), fired);

        // Inside the cooldown the same skew moves nothing.
        skew();
        rt.maybe_rebalance();
        assert_eq!(rt.metrics.repins.get(), before + 1);

        // Past it (simulated), a tenant with queued work or a move in
        // flight is never the victim, however long it has been idle.
        *rt.last_repin.lock().unwrap() = None;
        with_route(&rt, "a4", |r| r.pending.fetch_add(1, Ordering::SeqCst));
        with_route(&rt, "a0", |r| r.migrating.store(true, Ordering::SeqCst));
        skew();
        rt.maybe_rebalance();
        assert_eq!(rt.metrics.repins.get(), before + 1, "no eligible victim");
        with_route(&rt, "a0", |r| r.migrating.store(false, Ordering::SeqCst));
        skew();
        rt.maybe_rebalance();
        assert_eq!(rt.metrics.repins.get(), before + 2);
        assert_eq!(["a0", "a4"].map(worker_of), [1, 0], "busy a4 stayed put");
        with_route(&rt, "a4", |r| r.pending.fetch_sub(1, Ordering::SeqCst));
        rt.shutdown();
    }

    /// A subscriber whose connection is already dead is pruned by the
    /// periodic sweep, not only by the next failed firing push — so a
    /// tenant that stops firing doesn't pin dead writers or inflate the
    /// subscriptions gauge indefinitely.
    #[test]
    fn sweep_prunes_dead_subscribers_without_a_firing() {
        let rt = start(1);
        seed(&rt, "swp");
        #[derive(Debug)]
        struct DeadWriter;
        impl Write for DeadWriter {
            fn write(&mut self, _b: &[u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        impl FrameSink for DeadWriter {
            fn is_dead(&self) -> bool {
                true
            }
        }
        let dead: SharedWriter = Arc::new(Mutex::new(DeadWriter));
        subscribe(&rt, "swp", 1, &dead);
        stats(&rt, "swp");
        let before = rt.metrics.subscriptions.get();
        rt.sweep_subscribers();
        // Rendezvous behind the sweep job so it has definitely run.
        stats(&rt, "swp");
        assert_eq!(rt.metrics.subscriptions.get(), before - 1);
        rt.shutdown();
    }

    /// The adaptive window follows the certificate: cascade-required
    /// tenants never open one, stratified tenants discount by fence rate,
    /// exact tenants track the observed apply latency.
    #[test]
    fn adaptive_window_respects_certificate_and_latency() {
        let mut a = AdaptiveState::default();
        assert_eq!(
            a.window_us(&BatchCertificate::Exact),
            ADAPTIVE_BOOTSTRAP_US,
            "bootstrap before any observation"
        );
        assert_eq!(a.window_us(&BatchCertificate::CascadeRequired), 0);

        // Observe ~2ms applies with no fences: window tracks latency.
        for _ in 0..8 {
            a.observe(10, 2_000_000, 0);
        }
        let w = a.window_us(&BatchCertificate::Exact);
        assert!((1_000..=3_000).contains(&w), "window {w}µs tracks ~2ms");

        // Every op fences: a stratified tenant's window collapses.
        let mut fences = 0;
        for _ in 0..8 {
            fences += 10;
            a.observe(10, 2_000_000, fences);
        }
        let w = a.window_us(&BatchCertificate::Stratified { strata: 2 });
        assert!(
            w < 300,
            "fence-saturated stratified window should collapse, got {w}µs"
        );
        // Latency is capped so a pathological fsync can't freeze a worker.
        let mut b = AdaptiveState::default();
        b.observe(1, u64::MAX / 2, 0);
        assert!(b.window_us(&BatchCertificate::Exact) <= ADAPTIVE_MAX_WINDOW_US);
    }

    /// `submit_net` answers tenant-free requests on the caller's thread
    /// and routes tenant-scoped ones to workers; both answer on the wire.
    #[test]
    fn submit_net_answers_inline_or_from_the_worker() {
        let rt = start(1);
        seed(&rt, "net");
        let conn = VecWriter::default();
        let writer = conn.shared();
        rt.submit_net(1, Request::ListTenants, &writer, None);
        assert!(
            matches!(conn.frames()[..], [(1, Response::Tenants { .. })]),
            "answered before submit_net returned"
        );
        let tenant = "net".to_string();
        let ops = bump(5);
        rt.submit_net(2, Request::Commit { tenant, ops }, &writer, None);
        // Rendezvous behind it to make sure the worker serviced it.
        stats(&rt, "net");
        let frames = conn.frames();
        assert_eq!(frames.len(), 2);
        assert!(
            matches!(frames[1], (2, Response::Committed { .. })),
            "{frames:?}"
        );
        rt.shutdown();
    }
}

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
//! Requests travel as `Job`s inside `Envelope`s (`job.rs`): the envelope
//! carries a per-tenant pending guard so the router always knows whether a
//! tenant has queued or in-flight work. That is what makes *re-pinning* safe: an idle
//! tenant (pending count zero, observed under the route lock) can be moved
//! from the hottest worker to the coldest with an `Expect`/`Extract`/
//! `Install` handshake that preserves the per-tenant FIFO (§15 argues the
//! ordering). Per-worker queue-depth and busy EWMAs ([`WorkerLoad`]) feed
//! the rebalance planner and the `tdb_server_worker_*` gauges.
//!
//! Every client request takes one path: [`Runtime::submit_net`] answers the
//! tenant-free kinds on the caller's thread and turns everything else into
//! the single request-carrying `Job`; the owning worker (`worker.rs`)
//! services it and writes the response frame to the connection's
//! [`SharedWriter`] itself, through the one `Reply`. In-process callers
//! ([`Runtime::call`]: boot recovery, tests) ride the same path with a
//! channel behind the writer.
//!
//! This module is the router's half: the routing table, the request entry
//! points, and the re-pin planner. Configuration lives in `config.rs`, the
//! adaptive commit-coalescing window in `coalesce.rs`.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tdb_obs::global;

pub use crate::config::{FrameSink, ServerConfig, SharedWriter};
use crate::job::{
    error_response, internal, no_such_tenant, request_kind, request_tenant, Envelope, Job,
    PendingGuard, Reply,
};
use crate::metrics::ServerMetrics;
use crate::wire::{
    decode_response, read_frame, ErrorCode, MetricsFormat, Request, Response, PROTOCOL_VERSION,
};
use crate::worker::worker_loop;
use crate::{Result, ServerError};

/// One worker's load signals, shared lock-free between the worker, the
/// router, and the rebalance planner.
#[derive(Debug, Default)]
pub struct WorkerLoad {
    /// Envelopes enqueued and not yet dequeued.
    pub(crate) depth: AtomicI64,
    /// EWMA of the worker's busy fraction over ~100 ms buckets, ‰.
    pub(crate) busy_permille: AtomicU64,
}

impl WorkerLoad {
    pub fn queue_depth(&self) -> i64 {
        self.depth.load(Ordering::Acquire)
    }

    pub fn busy_permille(&self) -> u64 {
        self.busy_permille.load(Ordering::Relaxed)
    }
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

/// Where a tenant lives, plus the signals the rebalance planner needs.
#[derive(Debug)]
pub(crate) struct TenantRoute {
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
pub(crate) type RouteTable = Arc<Mutex<HashMap<String, TenantRoute>>>;

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
        let writer: SharedWriter = Arc::new(Mutex::new(ChannelSink {
            frame: Vec::new(),
            tx,
        }));
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
    /// indefinitely. The same job refreshes each tenant's `retained` and
    /// `wal_bytes` gauges. Called from the connection layer's planner tick.
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

/// Rolls back a route entry reserved for a create that did not happen.
pub(crate) fn unreserve(route: &RouteTable, name: &str) {
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

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use crate::worker::Committed;
    use tdb_core::rules::FiringRecord;
    use tdb_core::storage::LogicalOp;
    use tdb_engine::WriteOp;
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

    fn seed_ops() -> Vec<LogicalOp> {
        vec![
            LogicalOp::SetItem {
                name: "n".into(),
                value: Value::Int(0),
            },
            LogicalOp::DefineQuery {
                name: "n".into(),
                def: QueryDef::new(0, tdb_relation::parse_query("item n").unwrap()),
            },
        ]
    }

    fn seed(rt: &Runtime, tenant: &str) {
        assert_eq!(create(rt, tenant), Response::TenantCreated);
        let (outcomes, _) = commit(rt, tenant, seed_ops());
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

    /// A `SetItem` inside a `Commit` writes outside any state; the next
    /// state's delta still names the item, so a rule idling at its sparse
    /// fixpoint fires there.
    #[test]
    fn out_of_state_set_item_wakes_an_idle_rule() {
        let rt = start(1);
        seed(&rt, "t");
        register(&rt, "t", "rule hi { when n() > 100; then notify; }");
        let fired = |ops| -> Vec<(String, usize)> {
            let (outcomes, firings) = commit(&rt, "t", ops);
            assert!(outcomes.iter().all(|o| o.is_ok()));
            firings
                .into_iter()
                .map(|f| (f.rule, f.state_index))
                .collect()
        };
        for _ in 0..4 {
            assert!(fired(vec![LogicalOp::Tick]).is_empty());
        }
        let write = LogicalOp::SetItem {
            name: "n".into(),
            value: Value::Int(150),
        };
        assert!(fired(vec![write]).is_empty());
        assert_eq!(fired(vec![LogicalOp::Tick]), [("hi".to_string(), 5)]);
        assert!(fired(vec![LogicalOp::Tick]).is_empty());
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

    /// A catalog that retains formula state between commits — a `since`,
    /// a time-windowed `previously`, an aggregate — next to the plain
    /// threshold watch.
    const RETAINING: &str = "rule watch { when n() >= 5; then notify; }\n\
         rule held { when (n() >= 5) since (n() >= 20); then notify; }\n\
         rule recent { when [t := time] previously(n() >= 30 and time >= t - 8); then notify; }\n\
         rule mean { when avg(n(); time = 0; n() >= 0) > 10; then notify; }\n";

    /// Re-pinning a tenant across workers preserves results, firing order,
    /// and live subscriptions (the shard — evaluation context included —
    /// its subscribers and its adaptive state all move together): the
    /// firings equal those of an in-process tenant that never moved.
    #[test]
    fn repin_preserves_order_and_subscriptions() {
        let _turn = COUNTING_REPINS
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let rt = start(2);
        seed(&rt, "mv");
        register(&rt, "mv", RETAINING);
        let mut oracle =
            crate::tenant::Tenant::volatile("oracle", ServerConfig::default().manager_config());
        for op in seed_ops() {
            assert!(oracle.apply(&op).unwrap().ok());
        }
        oracle.register_rules(RETAINING).unwrap();
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
            let expected: Vec<FiringRecord> = toggle(i * 10)
                .iter()
                .flat_map(|op| oracle.apply(op).unwrap().firings)
                .collect();
            assert_eq!(firings, expected, "after repin to {dst}");
            assert!(firings.iter().any(|f| f.rule == "watch"));
        }
        assert_eq!(rt.metrics.repins.get(), before + 4);
        assert_eq!(item_n(&rt, "mv"), Relation::scalar(Value::Int(40)));
        let all = firings(&rt, "mv");
        assert_eq!(all, oracle.firings_from(0), "the moves changed a firing");
        for rule in ["held", "recent", "mean"] {
            assert!(all.iter().any(|f| f.rule == rule), "`{rule}` never fired");
        }
        match stats(&rt, "mv") {
            Response::Stats { retained, .. } => {
                assert_eq!(retained as usize, oracle.stats().retained);
                assert!(retained > 0, "the catalog retains formula state");
            }
            other => panic!("{other:?}"),
        }
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

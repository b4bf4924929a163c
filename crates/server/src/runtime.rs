//! The shard pool: a fixed set of OS worker threads, each owning the
//! tenants routed to it, fed through per-worker MPSC queues.
//!
//! Ownership model (see `DESIGN.md` §12/§15): a tenant lives on the worker
//! that round-robin placement gave it at create time, until the server
//! stops. The worker's queue serializes every op against it, so a tenant's
//! firing log is as deterministic as a single-process library run. Tenants
//! share no evaluator state: each owns its `EvalContext` — residual
//! arena, atom and query memo, compiled-program cache — so workers never
//! contend beyond the global metrics registry. Per-worker queue-depth and busy EWMAs ([`WorkerLoad`])
//! feed the `tdb_server_worker_*` gauges.
//!
//! Every client request takes one path: [`Runtime::submit_net`] answers the
//! tenant-free kinds on the caller's thread and turns everything else into
//! the single request-carrying `Job`; the owning worker (`worker.rs`)
//! services it and writes the response frame to the connection's
//! [`SharedWriter`] itself, through the one `Reply`. In-process callers
//! ([`Runtime::call`]: boot recovery, tests) ride the same path with a
//! channel behind the writer.
//!
//! This module is the router's half: the routing table and the request
//! entry points. Configuration lives in `config.rs`;
//! group commit, which takes the commits already queued and waits for
//! none, lives in `worker.rs`.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use tdb_obs::global;

pub use crate::config::{FrameSink, ServerConfig, SharedWriter};
use crate::job::{
    error_response, internal, no_such_tenant, request_kind, request_tenant, Job, Reply,
};
use crate::metrics::ServerMetrics;
use crate::wire::{
    decode_response, read_frame, ErrorCode, MetricsFormat, Request, Response, PROTOCOL_VERSION,
};
use crate::worker::worker_loop;
use crate::{Result, ServerError};

/// One worker's load signals, shared lock-free between the worker and the
/// router, which publishes them as gauges.
#[derive(Debug, Default)]
pub struct WorkerLoad {
    /// Jobs enqueued and not yet dequeued.
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

/// The routing table, tenant name → owning worker, shared with workers so
/// a failed create can roll back the entry reserved for it.
pub(crate) type RouteTable = Arc<Mutex<HashMap<String, usize>>>;

/// The shard pool. Cheap to share (`Arc` it); [`Runtime::shutdown`]
/// consumes the last owner, drains the queues, checkpoints durable tenants
/// and joins the workers.
#[derive(Debug)]
pub struct Runtime {
    cfg: ServerConfig,
    queues: Vec<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    /// tenant name → worker. Entries are reserved before the Create job
    /// runs (and rolled back on failure) so two racing creates of one
    /// name serialize here, not on the worker.
    route: RouteTable,
    next_worker: AtomicUsize,
    loads: Vec<Arc<WorkerLoad>>,
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
            let (tx, rx) = channel::<Job>();
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

    /// Validates the name and reserves a route entry for a new tenant on
    /// the next worker in round-robin order, where it stays. The
    /// reservation makes two racing creates of one name serialize on the
    /// route lock, not on a worker; the worker rolls the entry back if the
    /// create fails.
    fn reserve_route(&self, name: &str, durable: bool) -> Result<usize> {
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
        route.insert(name.to_string(), w);
        Ok(w)
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

    fn enqueue(&self, worker: usize, job: Job) -> Result<()> {
        self.loads[worker].depth.fetch_add(1, Ordering::AcqRel);
        self.queues[worker].send(job).map_err(|_| {
            self.loads[worker].depth.fetch_sub(1, Ordering::AcqRel);
            internal("worker queue closed")
        })
    }

    /// The worker owning `tenant`.
    fn route_of(&self, tenant: &str) -> Result<usize> {
        let route = self.route.lock().unwrap_or_else(PoisonError::into_inner);
        route
            .get(tenant)
            .copied()
            .ok_or_else(|| no_such_tenant(tenant))
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
        let (worker, reserved) = match &req {
            Request::CreateTenant { name, durable }
            | Request::CreateVtTenant { name, durable, .. } => {
                (self.reserve_route(name, *durable)?, Some(name.clone()))
            }
            other => {
                let tenant = request_tenant(other)
                    .ok_or_else(|| internal("request is not worker-routable"))?;
                (self.route_of(tenant)?, None)
            }
        };
        self.enqueue(worker, Job::Request { req, reply })
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
    /// `wal_bytes` gauges. Called from the connection layer's poller tick.
    pub fn sweep_subscribers(&self) {
        for w in 0..self.queues.len() {
            let _ = self.enqueue(w, Job::Sweep);
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

    /// A fake connection: everything written at it lands in a shared
    /// buffer, and its flushes (each a wake of the poller on a real
    /// connection) are counted.
    #[derive(Debug, Default, Clone)]
    struct VecWriter(Arc<Mutex<Vec<u8>>>, Arc<Mutex<usize>>);
    impl Write for VecWriter {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            *self.1.lock().unwrap() += 1;
            Ok(())
        }
    }
    impl FrameSink for VecWriter {}

    impl VecWriter {
        fn shared(&self) -> SharedWriter {
            Arc::new(Mutex::new(self.clone()))
        }

        fn flushes(&self) -> usize {
            *self.1.lock().unwrap()
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

    const WATCH: &str = "rule watch { when n() >= 5; then notify; }";

    /// The worker `tenant` is routed to.
    fn worker_of(rt: &Runtime, tenant: &str) -> usize {
        rt.route.lock().unwrap()[tenant]
    }

    /// Round-robin placement puts `a`, `b`, `c` on workers 0, 1, 0, and
    /// each tenant stays there: its state and firings are its own.
    #[test]
    fn tenants_route_and_serialize_independently() {
        let rt = start(2);
        for name in ["a", "b", "c"] {
            seed(&rt, name);
            register(&rt, name, WATCH);
        }
        assert_eq!(rt.tenants(), vec!["a", "b", "c"]);
        let placement = || ["a", "b", "c"].map(|t| worker_of(&rt, t));
        assert_eq!(placement(), [0, 1, 0]);
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
        commit(&rt, "c", bump(9));
        assert_eq!(
            placement(),
            [0, 1, 0],
            "a tenant stays where it was created"
        );
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

    /// A `CascadeRequired` tenant's commits stay exact: its register answer
    /// and stats report the certificate, and group commit drains the
    /// cascade after every state-producing op, so a self-writing rule fires
    /// at the state that satisfied it.
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

    /// A durable in-process runtime on `dir`, one worker.
    fn start_durable(dir: &std::path::Path) -> Runtime {
        Runtime::start(ServerConfig {
            workers: 1,
            data_dir: Some(dir.to_path_buf()),
            ..ServerConfig::default()
        })
        .unwrap()
    }

    fn create_durable(rt: &Runtime, name: &str) {
        let resp = rt.call(Request::CreateTenant {
            name: name.into(),
            durable: true,
        });
        assert_eq!(resp, Response::TenantCreated);
    }

    /// A `Commit` whose second op the interpreter refuses is refused whole:
    /// the `Tick` before it is neither applied nor logged. Live and after a
    /// reopen the tenant equals a twin that never saw the commit.
    #[test]
    fn a_refused_op_refuses_its_whole_commit() {
        let dir = std::env::temp_dir().join(format!("tdb-rt-refused-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rt = start_durable(&dir);
        for name in ["hit", "twin"] {
            create_durable(&rt, name);
            let (outcomes, _) = commit(&rt, name, seed_ops());
            assert!(outcomes.iter().all(|o| o.is_ok()));
        }
        let before = stats(&rt, "hit");
        let firing = LogicalOp::Firing {
            record: FiringRecord {
                rule: "watch".into(),
                state_index: 0,
                time: tdb_relation::Timestamp(0),
                env: Default::default(),
            },
        };
        let resp = rt.call(Request::Commit {
            tenant: "hit".into(),
            ops: vec![LogicalOp::Tick, firing],
        });
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::Unsupported,
                    ..
                }
            ),
            "{resp:?}"
        );
        assert_eq!(stats(&rt, "hit"), before, "the refused commit left a trace");
        assert_eq!(stats(&rt, "hit"), stats(&rt, "twin"));
        rt.shutdown();

        // The shutdown checkpoint rewrote the files; the history did not.
        let history = |r: Response| match r {
            Response::Stats { states, now, .. } => (states, now),
            other => panic!("{other:?}"),
        };
        let rt = start_durable(&dir);
        assert_eq!(history(stats(&rt, "hit")), history(before));
        assert_eq!(stats(&rt, "hit"), stats(&rt, "twin"), "after reopen");
        rt.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Records in every WAL segment of durable tenant `name`, so a
    /// checkpoint rotating the segment between two counts changes nothing.
    fn wal_records(dir: &std::path::Path, name: &str) -> usize {
        tdb_storage::read_log(&dir.join(name), 0).unwrap().ops.len()
    }

    /// A lone `Commit` to a durable tenant is one WAL record (so one fsync
    /// under `SyncPolicy::Always`), whatever its op count or its firings: a
    /// two-op bump, a 64-op seed and a bump that fires `watch` each add
    /// exactly one, and the log holds no `Firing` record.
    #[test]
    fn a_lone_durable_commit_is_one_wal_record() {
        let dir = std::env::temp_dir().join(format!("tdb-rt-onerec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rt = start_durable(&dir);
        create_durable(&rt, "d");
        let wide: Vec<LogicalOp> = (0..32)
            .flat_map(|i| {
                let item = format!("i{i}");
                [
                    LogicalOp::SetItem {
                        name: item.clone(),
                        value: Value::Int(i),
                    },
                    LogicalOp::DefineQuery {
                        name: item.clone(),
                        def: QueryDef::new(
                            0,
                            tdb_relation::parse_query(&format!("item {item}")).unwrap(),
                        ),
                    },
                ]
            })
            .collect();
        assert_eq!(wide.len(), 64);
        for ops in [seed_ops(), wide, bump(3)] {
            let records = wal_records(&dir, "d");
            let (outcomes, _) = commit(&rt, "d", ops);
            assert!(outcomes.iter().all(|o| o.is_ok()));
            assert_eq!(wal_records(&dir, "d"), records + 1);
        }
        register(&rt, "d", WATCH);
        let records = wal_records(&dir, "d");
        let (outcomes, firings) = commit(&rt, "d", bump(7));
        assert!(outcomes.iter().all(|o| o.is_ok()));
        assert_eq!(firings.len(), 1, "watch fires");
        assert_eq!(wal_records(&dir, "d"), records + 1);
        let log = tdb_storage::read_log(&dir.join("d"), 0).unwrap().ops;
        assert!(
            !log.iter().any(|op| matches!(op, LogicalOp::Firing { .. })),
            "{log:?}"
        );
        rt.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
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

    /// A reply is one flush, and so is one commit's batch of pushed
    /// firings to a subscriber.
    #[test]
    fn a_reply_or_a_push_batch_flushes_once() {
        let rt = start(1);
        seed(&rt, "fl");
        let also = "rule also { when n() >= 7; then notify; }";
        register(&rt, "fl", &format!("{WATCH}\n{also}"));
        let conn = VecWriter::default();
        let writer = conn.shared();
        subscribe(&rt, "fl", 7, &writer);
        stats(&rt, "fl");
        assert_eq!((conn.frames().len(), conn.flushes()), (1, 1));
        let (tenant, ops) = ("fl".to_string(), bump(9));
        rt.submit_net(8, Request::Commit { tenant, ops }, &writer, None);
        stats(&rt, "fl");
        // Two firings pushed under 7, and the commit's reply under 8.
        assert_eq!((conn.frames().len(), conn.flushes()), (4, 3));
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

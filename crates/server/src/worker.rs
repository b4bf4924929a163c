//! One shard worker: the thread that owns a set of tenants, services
//! their requests in queue order, groups their commits, and pushes their
//! firings to subscribers.
//!
//! Group commit has no timer. A dequeued `Commit` takes every consecutive
//! same-tenant `Commit` already queued behind it, and the group is applied
//! through `Tenant::apply_batch`: one WAL record and (under
//! `SyncPolicy::Always`) one fsync. A lone commit is a group of one. The
//! worker never waits for a commit that has not arrived: commits that
//! queue up during one group's fsync make up the next group.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdb_core::rules::FiringRecord;
use tdb_core::storage::LogicalOp;
use tdb_core::{ApplyOutcome, VtFiringEvent, VtPhase};
use tdb_engine::WriteOp;
use tdb_relation::Timestamp;
use tdb_storage::codec::encode_snapshot;

use crate::config::{ServerConfig, SharedWriter};
use crate::job::{error_response, internal, no_such_tenant, request_kind, Job, Reply};
use crate::metrics::ServerMetrics;
use crate::runtime::{unreserve, RouteTable, WorkerLoad};
use crate::tenant::Tenant;
use crate::wire::{encode_response, write_frame, ErrorCode, Request, Response};
use crate::{Result, ServerError};

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

/// A commit's answer: one result per op, and the firings they produced.
pub(crate) type Committed = (Vec<std::result::Result<(), String>>, Vec<FiringRecord>);

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
    load: Arc<WorkerLoad>,
    /// Shared routing table — only touched to roll back a reserved entry
    /// when a create fails.
    route: RouteTable,
    metrics: ServerMetrics,
}

pub(crate) fn worker_loop(
    rx: Receiver<Job>,
    cfg: ServerConfig,
    load: Arc<WorkerLoad>,
    route: RouteTable,
) {
    let mut st = WorkerState {
        cfg,
        tenants: HashMap::new(),
        subscribers: HashMap::new(),
        load: Arc::clone(&load),
        route,
        metrics: ServerMetrics::resolve(),
    };
    // A non-matching job dequeued while a commit group was being gathered
    // carries over to the next iteration instead of being dropped.
    let mut carry: Option<Job> = None;
    let mut meter = BusyMeter::default();
    loop {
        let job = match carry.take() {
            Some(j) => j,
            None => {
                let t_wait = Instant::now();
                // A bounded wait keeps the busy EWMA fresh even while the
                // worker sits idle (the busy gauge must show it as cold).
                match rx.recv_timeout(Duration::from_millis(100)) {
                    Ok(j) => {
                        load.depth.fetch_sub(1, Ordering::AcqRel);
                        meter.idle += t_wait.elapsed();
                        j
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
        let t_busy = Instant::now();
        match job {
            Job::Request {
                req: Request::Commit { tenant, ops },
                reply,
            } => carry = st.coalesced_commit(&rx, tenant, ops, reply),
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

    fn handle(&mut self, job: Job) {
        match job {
            Job::Request { req, reply } => {
                let resp = self.service(req, &reply).unwrap_or_else(error_response);
                reply.send(&self.metrics, &resp);
            }
            Job::Sweep => {
                self.sweep_dead_subscribers();
                for t in self.tenants.values() {
                    t.refresh_gauges();
                }
            }
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
            Request::Commit { tenant, ops } | Request::CommitBatch { tenant, ops } => {
                let (outcomes, firings) = split_outcomes(self.commit(&tenant, &ops)?);
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
                let (s, wal_bytes) = self.tenant_mut(&tenant)?.refresh_gauges();
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

    /// Applies `ops` as one group commit — one WAL record, one fsync, one
    /// evaluation slice — then sets the tenant's gauges and pushes what it
    /// produced to the subscribers, before anyone is answered.
    fn commit(&mut self, tenant: &str, ops: &[LogicalOp]) -> Result<Vec<ApplyOutcome>> {
        let t = self.tenant_mut(tenant)?;
        let outs = t.apply_batch(ops)?;
        let events = t.drain_vt_events();
        self.after_apply(tenant, outs.iter().flat_map(|o| &o.firings), &events);
        Ok(outs)
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
        let (watermark, events) = self.tenant_mut(tenant)?.commit_at(arrival, valid, ops)?;
        self.after_apply(tenant, std::iter::empty(), &events);
        Ok((watermark, events))
    }

    /// The one post-apply step, whatever the commit flavour: set the
    /// tenant's O(1) gauges (the walked ones wait for the sweep tick) and
    /// push what it produced to the subscribers.
    fn after_apply<'a>(
        &mut self,
        tenant: &str,
        firings: impl Iterator<Item = &'a FiringRecord> + Clone,
        events: &[VtFiringEvent],
    ) {
        // The apply just succeeded, so the tenant exists; the lookup stays
        // fallible to keep this path panic-free.
        let Some(t) = self.tenants.get(tenant) else {
            return;
        };
        t.publish_gauges();
        let is_vt = t.is_vt();
        for e in events {
            match e.phase {
                VtPhase::Tentative => self.metrics.vt_tentative.inc(),
                VtPhase::Confirmed => self.metrics.vt_confirmed.inc(),
                VtPhase::Retracted => self.metrics.vt_retractions.inc(),
            }
        }
        self.push_frames(tenant, events.iter(), |e| Response::VtFiring {
            event: e.clone(),
        });
        // On a valid-time tenant the subscriber stream is the phase-tagged
        // event stream; the confirmed records answer the request but are
        // not re-pushed as plain `Firing` frames.
        if !is_vt {
            self.push_frames(tenant, firings, |f| Response::Firing { record: f.clone() });
        }
    }

    /// Group commit: starting from one dequeued commit, takes every
    /// *consecutive commit for the same tenant* already in the worker queue
    /// — never waiting for one that has not arrived — applies them as one
    /// group, and answers each request with its own slice of the outcomes
    /// and firings. The first non-matching job closes the group and is
    /// returned to the worker loop as carry-over.
    fn coalesced_commit(
        &mut self,
        rx: &Receiver<Job>,
        tenant: String,
        ops: Vec<LogicalOp>,
        reply: Reply,
    ) -> Option<Job> {
        let mut all_ops = ops;
        let mut members: Vec<(usize, Reply)> = vec![(all_ops.len(), reply)];
        let mut carry = None;
        while let Ok(job) = rx.try_recv() {
            self.load.depth.fetch_sub(1, Ordering::AcqRel);
            match job {
                Job::Request {
                    req: Request::Commit { tenant: t2, ops },
                    reply,
                } if t2 == tenant => {
                    members.push((ops.len(), reply));
                    all_ops.extend(ops);
                }
                other => {
                    carry = Some(other);
                    break;
                }
            }
        }
        self.commit_group(&tenant, &all_ops, members);
        carry
    }

    /// Applies a group's concatenated `ops` as one commit and answers each
    /// member — `(op count, reply)`, in order — with its own slice. When
    /// the op interpreter refused a member, which it does before the
    /// group's WAL record, nothing was logged or applied: each member then
    /// commits as its own group, so only the offender is refused. Any other
    /// error may come after members applied, so every member gets it and
    /// nothing is retried.
    fn commit_group(&mut self, tenant: &str, ops: &[LogicalOp], members: Vec<(usize, Reply)>) {
        match self.commit(tenant, ops) {
            Ok(outs) => {
                let mut outs = outs.into_iter();
                for (n, reply) in members {
                    let (outcomes, firings) = split_outcomes(outs.by_ref().take(n));
                    reply.send(&self.metrics, &Response::Committed { outcomes, firings });
                }
            }
            Err(e) if members.len() > 1 && refused(&e) => {
                let mut start = 0;
                for (n, reply) in members {
                    self.commit_group(tenant, &ops[start..start + n], vec![(n, reply)]);
                    start += n;
                }
            }
            Err(e) => {
                let resp = error_response(e);
                for (_, reply) in members {
                    reply.send(&self.metrics, &resp);
                }
            }
        }
    }

    /// Streams one frame per item to every subscriber of `tenant`,
    /// dropping dead connections.
    fn push_frames<'a, T: 'a>(
        &mut self,
        tenant: &str,
        items: impl Iterator<Item = &'a T> + Clone,
        frame: impl Fn(&T) -> Response,
    ) {
        if items.clone().next().is_none() {
            return;
        }
        let Some(subs) = self.subscribers.get_mut(tenant) else {
            return;
        };
        let metrics = &self.metrics;
        subs.retain(|(id, writer)| {
            let pushed = writer.lock().is_ok_and(|mut w| {
                for item in items.clone() {
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

/// Whether `e` is the op interpreter's refusal of a commit member:
/// `CoreError::RefusedOp` on a plain tenant, `VtShard`'s loggability gate
/// (`Unsupported`) on a valid-time one. Both are raised before the
/// commit's WAL record is written and before any member applies.
fn refused(e: &ServerError) -> bool {
    matches!(
        e,
        ServerError::Core(tdb_core::CoreError::RefusedOp { .. })
            | ServerError::Remote {
                code: ErrorCode::Unsupported,
                ..
            }
    )
}

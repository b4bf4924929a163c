//! The traced run (`--trace 1`): per-layer metrics, every one taken from
//! outside the layers.
//!
//! Two sources. A short end-to-end phase against the real server gives what
//! only a scrape can (`server.*`, the WAL counters). Everything else comes
//! from replaying the workload's own generated request stream in-process
//! through each layer's public functions, wrapped in spans:
//!
//! ```text
//! request
//! ├─ wire.encode_req      encode_request + write_frame        (client side)
//! ├─ wire.assemble        FrameAssembler::ingest + next_frame
//! ├─ wire.decode_req      decode_request
//! ├─ storage.append       WalWriter::append / append_batch    (durable only)
//! ├─ storage.sync         WalWriter::sync per synced record   (durable only)
//! ├─ core.apply           Tenant::apply / apply_batch / commit_at, volatile
//! ├─ storage.append       the firings' audit records          (durable only)
//! ├─ storage.checkpoint   snapshot + checkpoint + rotation    (durable only)
//! ├─ wire.encode_resp     encode_response + write_frame
//! └─ wire.decode_resp     read_frame_into + decode_response   (client side)
//! ```
//!
//! The storage spans mirror what a durable tenant does under
//! `SyncPolicy::Always` (one fsync per input record, audit records
//! unsynced, a checkpoint every 256 input ops); the replay is checked
//! against the real thing — `Tenant::durable` applying each request right
//! after its replay — and the run fails when the two totals differ by more
//! than 15 %.

use std::path::Path;
use std::time::{Duration, Instant};

use tdb_core::{LogicalOp, SyncPolicy, VtPhase};
use tdb_server::tenant::{rules_from_source, Tenant};
use tdb_server::wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame_into, write_frame,
    FrameAssembler, FrameScratch,
};
use tdb_server::{Request, Response};
use tdb_storage::checkpoint::write_checkpoint_with;
use tdb_storage::wal::segment_file_name;
use tdb_storage::WalWriter;

use crate::drive::{self, Fired, Result, Scratch};
use crate::gen::{self, Requests, Shape, Workload};
use crate::trace::{Name, Recorder, NAMES};
use crate::{e2e, local, stats, Metric, Report};

/// Most spans `trace-<workload>.json` holds (the rest are counted in its
/// `dropped` field; the metrics always use all of them).
const TRACE_FILE_SPANS: usize = 400_000;

/// Largest gap allowed between the traced layers' sum and the real durable
/// tenant's total.
const LAYER_SUM_TOLERANCE: f64 = 0.15;

/// Round trips timed on the idle server for `server.rtt_floor_us`.
const RTT_PROBES: usize = 300;

/// Every per-layer metric the traced run reports, in output order, with
/// its unit. `BENCHMARK.json` lists the same names (pinned by a test).
pub const PER_LAYER: [(&str, &str); 50] = [
    ("wire.encode_req_ns", "ns"),
    ("wire.assemble_ns", "ns"),
    ("wire.decode_req_ns", "ns"),
    ("wire.encode_resp_ns", "ns"),
    ("wire.decode_resp_ns", "ns"),
    ("wire.req_bytes_per_state", "B"),
    ("wire.resp_bytes_per_state", "B"),
    ("storage.append_us", "us"),
    ("storage.sync_us", "us"),
    ("storage.checkpoint_ms", "ms"),
    ("storage.checkpoint_bytes", "B"),
    ("storage.recover_us_per_state", "us"),
    ("storage.syncs_per_state", "count"),
    ("storage.coalesced_ops_per_append", "count"),
    ("storage.wal_bytes_per_state", "B"),
    ("storage.disk_bytes_per_state", "B"),
    ("engine.state_us", "us"),
    ("engine.age_ratio", "ratio"),
    ("engine.rss_kb_per_state", "KiB"),
    ("core.apply_us", "us"),
    ("core.rules_us", "us"),
    ("core.age_ratio", "ratio"),
    ("core.rss_kb_per_state", "KiB"),
    ("core.evals_per_state", "count"),
    ("core.sparse_per_state", "count"),
    ("core.firings_per_state", "count"),
    ("core.retained_nodes", "count"),
    ("vt.ingest_us", "us"),
    ("vt.ingest_inorder_us", "us"),
    ("vt.ingest_late_us", "us"),
    ("vt.max_live_states", "count"),
    ("vt.events_out_per_event", "count"),
    ("vt.confirm_lag_ticks", "ticks"),
    ("analysis.register_ms_per_rule", "ms"),
    ("analysis.register_last_over_first", "ratio"),
    ("server.rtt_floor_us", "us"),
    ("server.ack_p50_us", "us"),
    ("server.ack_tail_us", "us"),
    ("server.overhead_us", "us"),
    ("server.busy_permille", "permille"),
    ("server.backpressure_events", "count"),
    ("server.repins", "count"),
    ("server.request_errors", "count"),
    ("server.recovery_s", "s"),
    ("trace.request_p50_us", "us"),
    ("trace.layer_sum_us", "us"),
    ("trace.reference_us", "us"),
    ("trace.layer_gap_pct", "%"),
    ("trace.requests", "count"),
    ("obs.trace_overhead_pct", "%"),
];

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Resident set size of this process in KiB.
fn rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |pages| pages * 4.0)
}

/// Mean of the last decile over mean of the first decile.
fn age_ratio(per_request: &[f64]) -> f64 {
    let d = per_request.len() / 10;
    if d == 0 {
        return 0.0;
    }
    let first = stats::mean(&per_request[..d]);
    let last = stats::mean(&per_request[per_request.len() - d..]);
    if first > 0.0 {
        last / first
    } else {
        0.0
    }
}

/// Applies one request the way the server's worker does (per op for
/// `Commit`, one group for `CommitBatch`).
fn apply_as_server(t: &mut Tenant, req: &Request) -> Result<Vec<Fired>> {
    if let Request::CommitBatch { ops, .. } = req {
        let outs = t.apply_batch(ops).map_err(|e| e.to_string())?;
        let mut fired = Vec::new();
        for out in outs {
            out.result.map_err(|e| format!("op rejected: {e}"))?;
            fired.extend(out.firings.into_iter().map(Fired::Plain));
        }
        return Ok(fired);
    }
    local::apply_per_op(t, req)
}

fn response_for(fired: &[Fired], ops: usize, t: &Tenant) -> Response {
    if t.is_vt() {
        Response::VtCommitted {
            watermark: t.watermark().unwrap_or_default(),
            events: fired.iter().filter_map(Fired::vt).cloned().collect(),
        }
    } else {
        Response::Committed {
            outcomes: vec![Ok(()); ops],
            firings: fired.iter().filter_map(Fired::plain).cloned().collect(),
        }
    }
}

/// The storage half of the replay: a bare WAL segment written the way a
/// durable tenant's `FileStorage` writes it, with the fsyncs split out.
struct Wal {
    dir: std::path::PathBuf,
    writer: WalWriter,
    ops_since: usize,
    checkpoints: u64,
    checkpoint_bytes: u64,
}

impl Wal {
    fn create(dir: &Path) -> Result<Wal> {
        let writer = WalWriter::create(&dir.join(segment_file_name(0)), 0, SyncPolicy::Never)
            .map_err(|e| e.to_string())?;
        Ok(Wal {
            dir: dir.to_path_buf(),
            writer,
            ops_since: 0,
            checkpoints: 0,
            checkpoint_bytes: 0,
        })
    }

    /// One input record: the append, then the fsync `SyncPolicy::Always`
    /// would have folded into it, each in a span of its own.
    fn synced(
        &mut self,
        rec: &mut Recorder,
        append: impl FnOnce(&mut WalWriter) -> tdb_storage::Result<u64>,
    ) -> Result<()> {
        rec.enter(Name::Append);
        let appended = append(&mut self.writer);
        rec.exit();
        appended.map_err(|e| e.to_string())?;
        rec.enter(Name::Sync);
        let synced = self.writer.sync();
        rec.exit();
        synced.map_err(|e| e.to_string())
    }

    /// Appends the request's input records as a durable tenant logs them:
    /// one record per op, or one for the whole group commit.
    fn log_inputs(&mut self, req: &Request, rec: &mut Recorder) -> Result<()> {
        let ops = local::request_ops(req);
        if let Request::CommitBatch { .. } = req {
            self.synced(rec, |w| w.append_batch(ops))?;
        } else {
            for op in ops {
                self.synced(rec, |w| w.append(op))?;
            }
        }
        self.ops_since += ops.len();
        Ok(())
    }

    /// Appends the firings' audit records (never synced on their own), then
    /// checkpoints when the default policy would.
    fn log_outputs(&mut self, fired: &[Fired], tenant: &Tenant, rec: &mut Recorder) -> Result<()> {
        if !fired.is_empty() {
            rec.enter(Name::Append);
            for f in fired {
                if let Some(record) = f.plain() {
                    let op = LogicalOp::Firing {
                        record: record.clone(),
                    };
                    self.writer.append(&op).map_err(|e| e.to_string())?;
                }
            }
            rec.exit();
        }
        let policy = local::checkpoint_policy(SyncPolicy::Always);
        if self.ops_since >= policy.every_ops || self.writer.len() >= policy.every_bytes {
            rec.enter(Name::Checkpoint);
            let r = self.checkpoint(tenant);
            rec.exit();
            r?;
        }
        Ok(())
    }

    /// What `FileStorage::checkpoint` does under `SyncPolicy::Always`:
    /// sync the segment, write and sync the snapshot, rotate.
    fn checkpoint(&mut self, tenant: &Tenant) -> Result<()> {
        let snap = tenant.shard().adb().snapshot().map_err(|e| e.to_string())?;
        self.writer.sync().map_err(|e| e.to_string())?;
        let next = self.writer.seq() + 1;
        self.checkpoint_bytes +=
            write_checkpoint_with(&self.dir, next, &snap, true).map_err(|e| e.to_string())?;
        // `Never` keeps the fsyncs in spans of their own; the header sync a
        // `SyncPolicy::Always` segment starts with is issued here instead.
        self.writer = WalWriter::create(
            &self.dir.join(segment_file_name(next)),
            next,
            SyncPolicy::Never,
        )
        .map_err(|e| e.to_string())?;
        self.writer.sync().map_err(|e| e.to_string())?;
        self.checkpoints += 1;
        self.ops_since = 0;
        Ok(())
    }
}

/// What one replay pass measured besides its spans.
#[derive(Default)]
struct Pass {
    requests: usize,
    /// Time spent in the replay proper (the reference tenant's share taken
    /// out).
    wall: Duration,
    /// Per request, microseconds the reference tenant took to apply it.
    reference_us: Vec<f64>,
    req_bytes: u64,
    resp_bytes: u64,
    events_out: u64,
    confirm_lag_ticks: Vec<f64>,
    max_live_states: usize,
    rss_kb: f64,
}

/// When a replay pass stops.
#[derive(Clone, Copy)]
enum Stop {
    After(Duration),
    AtRequest(usize),
}

/// One replay of the request stream through wire → storage → core → wire.
/// A `reference` tenant — the real fused path the spans must add up to —
/// applies each request right after its replay, so both totals see the
/// same moments of this bursty host.
fn replay(
    w: &'static Workload,
    seed: u64,
    tenant: &mut Tenant,
    mut wal: Option<&mut Wal>,
    mut reference: Option<&mut Tenant>,
    rec: &mut Recorder,
    stop: Stop,
) -> Result<Pass> {
    let mut reqs = Requests::new(w, seed, 0, "local");
    let mut pass = Pass::default();
    let mut assembler = FrameAssembler::new();
    let mut scratch = FrameScratch::new();
    let (mut frame, mut resp_frame) = (Vec::new(), Vec::new());
    let rss0 = rss_kb();
    let t0 = Instant::now();
    loop {
        match stop {
            Stop::After(d) if t0.elapsed() >= d => break,
            Stop::AtRequest(n) if pass.requests >= n => break,
            _ => {}
        }
        let id = pass.requests as u64;
        rec.set_request(pass.requests as u32);
        rec.enter(Name::Request);

        rec.enter(Name::EncodeReq);
        frame.clear();
        let r = write_frame(&mut frame, &encode_request(id, reqs.next_request()));
        rec.exit();
        r.map_err(|e| e.to_string())?;
        pass.req_bytes += frame.len() as u64;

        rec.enter(Name::Assemble);
        assembler.ingest(&frame);
        let payload = assembler.next_frame();
        rec.exit();
        let payload = payload
            .map_err(|e| e.to_string())?
            .ok_or("assembler wants more than a whole frame")?;

        rec.enter(Name::DecodeReq);
        let decoded = decode_request(payload);
        rec.exit();
        let (_, req) = decoded.map_err(|e| e.to_string())?;

        if let Some(wal) = wal.as_deref_mut() {
            wal.log_inputs(&req, rec)?;
        }
        rec.enter(Name::Apply);
        let fired = apply_as_server(tenant, &req);
        rec.exit();
        let fired = fired?;
        if let Some(wal) = wal.as_deref_mut() {
            wal.log_outputs(&fired, tenant, rec)?;
        }

        pass.events_out += fired.len() as u64;
        if let Some(vt) = tenant.vt() {
            let now = vt.vt().now().0;
            pass.max_live_states = pass.max_live_states.max(vt.vt().engine().state_count());
            for e in fired.iter().filter_map(Fired::vt) {
                if e.phase == VtPhase::Confirmed {
                    pass.confirm_lag_ticks.push((now - e.record.time.0) as f64);
                }
            }
        }
        let resp = response_for(&fired, local::request_ops(&req).len(), tenant);

        rec.enter(Name::EncodeResp);
        resp_frame.clear();
        let r = write_frame(&mut resp_frame, &encode_response(id, &resp));
        rec.exit();
        r.map_err(|e| e.to_string())?;
        pass.resp_bytes += resp_frame.len() as u64;

        rec.enter(Name::DecodeResp);
        let decoded = read_frame_into(&mut &resp_frame[..], &mut scratch).and_then(decode_response);
        rec.exit();
        std::hint::black_box(decoded.map_err(|e| e.to_string())?);

        rec.exit();
        pass.requests += 1;

        if let Some(reference) = reference.as_deref_mut() {
            let r0 = Instant::now();
            let r = apply_as_server(reference, &req);
            pass.reference_us.push(micros(r0.elapsed()));
            std::hint::black_box(r?);
        }
    }
    let reference_total: f64 = pass.reference_us.iter().sum();
    pass.wall = t0
        .elapsed()
        .saturating_sub(Duration::from_secs_f64(reference_total / 1e6));
    pass.rss_kb = (rss_kb() - rss0).max(0.0);
    Ok(pass)
}

/// Per-request apply time (µs) of `n` requests on `tenant`, plus the RSS the
/// pass added (KiB).
fn timed_applies(
    w: &'static Workload,
    seed: u64,
    tenant: &mut Tenant,
    n: usize,
) -> Result<(Vec<f64>, f64)> {
    let mut reqs = Requests::new(w, seed, 0, "local");
    let mut times = Vec::with_capacity(n);
    let rss0 = rss_kb();
    for _ in 0..n {
        let req = reqs.next_request();
        let t0 = Instant::now();
        let r = apply_as_server(tenant, req);
        times.push(micros(t0.elapsed()));
        std::hint::black_box(r?);
    }
    Ok((times, (rss_kb() - rss0).max(0.0)))
}

/// Registers the catalog one rule at a time, timing each (parse + add,
/// which re-certifies the whole rule set). Returns milliseconds per rule.
fn register_timed(t: &mut Tenant, w: &Workload) -> Result<Vec<f64>> {
    let mut ms = Vec::with_capacity(w.rules + 1);
    for line in gen::rule_source(w).lines() {
        let t0 = Instant::now();
        t.register_rules(line).map_err(|e| e.to_string())?;
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(ms)
}

/// Sum of every series of a metric family in a Prometheus exposition.
fn scraped(text: &str, family: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let name = series.split('{').next()?;
            (name == family).then(|| value.parse::<f64>().ok())?
        })
        .fold(0.0, |sum, v| sum + v)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

pub fn run(
    w: &'static Workload,
    seed: u64,
    seconds: u64,
    server_bin: &Path,
    scratch: &Scratch,
    out_dir: &Path,
) -> Result<Report> {
    let mut problems = Vec::new();
    let mut notes = Vec::new();
    let mut metrics: Vec<Metric> = Vec::new();
    // Metrics are reported in `PER_LAYER` order; `put` takes the next slot.
    let mut put = |name: &str, value: f64| {
        let (expected, unit) = PER_LAYER[metrics.len().min(PER_LAYER.len() - 1)];
        assert_eq!(
            name, expected,
            "per-layer metrics are reported in PER_LAYER order"
        );
        metrics.push(Metric::new(name, value, unit));
    };

    // ---- server phase: idle round trips, a short loaded run, the scrape ------
    let mut rig = drive::setup(server_bin, &scratch.fresh("data")?, w)?;
    let mut rtt = Vec::with_capacity(RTT_PROBES);
    for _ in 0..RTT_PROBES {
        let t0 = Instant::now();
        rig.conns[0].stats(&drive::tenant_name(0))?;
        rtt.push(micros(t0.elapsed()));
    }
    stats::sort(&mut rtt);
    let load_seconds = (seconds * 3).div_ceil(10).max(1);
    let before = e2e::tenant_stats(&mut rig)?;
    let scrape_before = rig.conns[0].metrics()?;
    let measured = e2e::measure(&mut rig, w, seed, load_seconds)?;
    let after = e2e::tenant_stats(&mut rig)?;
    let scrape = rig.conns[0].metrics()?;
    let (attempted, failed) = measured.tally(&mut problems);
    let win = measured.windows(w.batch);
    let ack_p50_us = e2e::good(&win.ack_p50_us, false);
    let states: f64 = after
        .iter()
        .zip(&before)
        .map(|(a, b)| (a.states - b.states) as f64)
        .sum();
    let firings: f64 = after
        .iter()
        .zip(&before)
        .map(|(a, b)| (a.firings - b.firings) as f64)
        .sum();
    let disk_bytes: f64 = after.iter().map(|a| a.wal_bytes as f64).sum();
    let recovery_s = stats::median(e2e::respawn(rig, server_bin, &scratch.path().join("data"))?.1);

    // ---- in-process replays --------------------------------------------------------
    let budget = Duration::from_millis(seconds * 250);

    // Pass 1: recorder on. The tenant is registered rule by rule, which is
    // the `analysis` measurement.
    let mut rec = Recorder::new(true);
    let mut traced = local::bare_tenant(w, None)?;
    local::seed(&mut traced, w)?;
    let register_ms = register_timed(&mut traced, w)?;
    let mut wal = if w.durable {
        Some(Wal::create(&scratch.fresh("replay-wal")?)?)
    } else {
        None
    };
    // The reference: the real tenant of the workload's kind, durable under
    // `SyncPolicy::Always` where the workload is.
    let reference_dir = scratch.fresh("replay-reference")?;
    let mut reference = local::tenant(w, w.durable.then_some(reference_dir.as_path()))?;
    let on = replay(
        w,
        seed,
        &mut traced,
        wal.as_mut(),
        Some(&mut reference),
        &mut rec,
        Stop::After(budget),
    )?;
    let n = on.requests;
    let states_n = (n * w.batch) as f64;

    // Pass 2: the same replay, recorder off and no reference — the
    // tracing-overhead baseline, and (nothing else growing meanwhile) the
    // core layer's memory.
    let mut off_rec = Recorder::new(false);
    let mut plain = local::tenant(w, None)?;
    let mut off_wal = if w.durable {
        Some(Wal::create(&scratch.fresh("replay-wal-off")?)?)
    } else {
        None
    };
    let off = replay(
        w,
        seed,
        &mut plain,
        off_wal.as_mut(),
        None,
        &mut off_rec,
        Stop::AtRequest(n),
    )?;

    // Pass 3: engine + relation alone — the same ops on a tenant without rules.
    let mut bare = local::bare_tenant(w, None)?;
    local::seed(&mut bare, w)?;
    let (engine_us, engine_rss_kb) = timed_applies(w, seed, &mut bare, n)?;

    // Durable workloads: what the reference tenant left on disk, recovered.
    let mut recover_us_per_state = 0.0;
    if w.durable {
        let recovered_states = reference.stats().states as f64;
        drop(reference);
        let catalog = rules_from_source(&gen::rule_source(w)).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let recovered = tdb_storage::recover_durable(
            &reference_dir,
            &catalog,
            local::manager_config(),
            local::checkpoint_policy(SyncPolicy::Always),
        )
        .map_err(|e| e.to_string())?;
        recover_us_per_state = ratio(micros(t0.elapsed()), recovered_states);
        if recovered.adb.history().len() as f64 != recovered_states {
            problems.push(format!(
                "in-process recovery rebuilt {} states of {recovered_states}",
                recovered.adb.history().len()
            ));
        }
    }

    // ---- per-layer numbers from the spans ---------------------------------------------
    let own = rec.self_time_by_name_ns();
    let per_request_ns = |name: Name| ratio(own[name as usize] as f64, n as f64);
    let per_request_us = |name: Name| per_request_ns(name) / 1e3;
    let apply_us: Vec<f64> = rec
        .spans
        .iter()
        .filter(|s| s.name == Name::Apply as u8)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    let request_us: Vec<f64> = {
        let mut v: Vec<f64> = rec
            .spans
            .iter()
            .filter(|s| s.name == Name::Request as u8)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        stats::sort(&mut v);
        v
    };

    put("wire.encode_req_ns", per_request_ns(Name::EncodeReq));
    put("wire.assemble_ns", per_request_ns(Name::Assemble));
    put("wire.decode_req_ns", per_request_ns(Name::DecodeReq));
    put("wire.encode_resp_ns", per_request_ns(Name::EncodeResp));
    put("wire.decode_resp_ns", per_request_ns(Name::DecodeResp));
    put(
        "wire.req_bytes_per_state",
        ratio(on.req_bytes as f64, states_n),
    );
    put(
        "wire.resp_bytes_per_state",
        ratio(on.resp_bytes as f64, states_n),
    );

    let (ckpts, ckpt_bytes) = wal.as_ref().map_or((0.0, 0.0), |w| {
        (w.checkpoints as f64, w.checkpoint_bytes as f64)
    });
    put("storage.append_us", per_request_us(Name::Append));
    put("storage.sync_us", per_request_us(Name::Sync));
    put(
        "storage.checkpoint_ms",
        ratio(own[Name::Checkpoint as usize] as f64 / 1e6, ckpts),
    );
    put("storage.checkpoint_bytes", ratio(ckpt_bytes, ckpts));
    put("storage.recover_us_per_state", recover_us_per_state);
    // Counter growth over the loaded phase. Synced appends are the WAL
    // appends that are not a firing's audit record.
    let grew = |family: &str| scraped(&scrape, family) - scraped(&scrape_before, family);
    let appends = grew("tdb_wal_appends_total");
    put(
        "storage.syncs_per_state",
        ratio((appends - firings).max(0.0), states),
    );
    put(
        "storage.coalesced_ops_per_append",
        ratio(
            grew("tdb_wal_batched_ops_total"),
            grew("tdb_wal_batch_appends_total"),
        ),
    );
    put(
        "storage.wal_bytes_per_state",
        ratio(grew("tdb_wal_append_bytes_total"), states),
    );
    put("storage.disk_bytes_per_state", ratio(disk_bytes, states));

    let engine_state_us = ratio(engine_us.iter().sum::<f64>(), states_n);
    put("engine.state_us", engine_state_us);
    put("engine.age_ratio", age_ratio(&engine_us));
    put("engine.rss_kb_per_state", ratio(engine_rss_kb, states_n));

    let core_apply_us = ratio(own[Name::Apply as usize] as f64 / 1e3, states_n);
    put("core.apply_us", core_apply_us);
    put("core.rules_us", (core_apply_us - engine_state_us).max(0.0));
    put("core.age_ratio", age_ratio(&apply_us));
    put("core.rss_kb_per_state", ratio(off.rss_kb, states_n));
    let (evals, sparse, fired) = if plain.is_vt() {
        (0.0, 0.0, off.events_out as f64)
    } else {
        let s = plain.shard().adb().stats();
        (
            s.evaluations as f64,
            s.sparse_advances as f64,
            s.firings as f64,
        )
    };
    put("core.evals_per_state", ratio(evals, states_n));
    put("core.sparse_per_state", ratio(sparse, states_n));
    put("core.firings_per_state", ratio(fired, states_n));
    put("core.retained_nodes", plain.stats().retained as f64);

    // The valid-time layer: the same spans, split by arrival order.
    let mut vt = [Vec::new(), Vec::new()];
    if w.shape == Shape::CommitAt {
        let mut reqs = Requests::new(w, seed, 0, "local");
        for us in &apply_us {
            if let Request::CommitAt { arrival, valid, .. } = reqs.next_request() {
                vt[usize::from(arrival > valid)].push(*us);
            }
        }
    }
    let vt_all: Vec<f64> = vt.concat();
    put("vt.ingest_us", stats::mean(&vt_all));
    put("vt.ingest_inorder_us", stats::mean(&vt[0]));
    put("vt.ingest_late_us", stats::mean(&vt[1]));
    put("vt.max_live_states", off.max_live_states as f64);
    let vt_events = if w.shape == Shape::CommitAt {
        off.events_out as f64
    } else {
        0.0
    };
    put("vt.events_out_per_event", ratio(vt_events, n as f64));
    put("vt.confirm_lag_ticks", stats::mean(&off.confirm_lag_ticks));

    let tenth = (register_ms.len() / 10).max(1);
    put("analysis.register_ms_per_rule", stats::mean(&register_ms));
    put(
        "analysis.register_last_over_first",
        ratio(
            stats::mean(&register_ms[register_ms.len() - tenth..]),
            stats::mean(&register_ms[..tenth]),
        ),
    );

    let in_process_p50_us = stats::quantile(&request_us, 0.5);
    put("server.rtt_floor_us", stats::quantile(&rtt, 0.5));
    put("server.ack_p50_us", ack_p50_us);
    put("server.ack_tail_us", e2e::good(&win.ack_tail_us, false));
    put("server.overhead_us", ack_p50_us - in_process_p50_us);
    put(
        "server.busy_permille",
        scraped(&scrape, "tdb_server_worker_busy_permille") / 2.0,
    );
    put(
        "server.backpressure_events",
        grew("tdb_server_conn_backpressure_total"),
    );
    put("server.repins", grew("tdb_server_tenant_repins_total"));
    put(
        "server.request_errors",
        grew("tdb_server_request_errors_total"),
    );
    put("server.recovery_s", recovery_s);

    // ---- the decomposition check and the tracing overhead ------------------------------
    let layer_sum_us = [Name::Append, Name::Sync, Name::Apply, Name::Checkpoint]
        .iter()
        .map(|&name| per_request_us(name))
        .sum::<f64>();
    let reference_mean_us = stats::mean(&on.reference_us);
    let gap = ratio((layer_sum_us - reference_mean_us).abs(), reference_mean_us);
    put("trace.request_p50_us", in_process_p50_us);
    put("trace.layer_sum_us", layer_sum_us);
    put("trace.reference_us", reference_mean_us);
    put("trace.layer_gap_pct", gap * 100.0);
    put("trace.requests", n as f64);
    if gap > LAYER_SUM_TOLERANCE {
        problems.push(format!(
            "layer_sum_us {layer_sum_us:.1} differs from the in-process request total \
             {reference_mean_us:.1} by {:.0} % (limit {:.0} %)",
            gap * 100.0,
            LAYER_SUM_TOLERANCE * 100.0
        ));
    }
    put(
        "obs.trace_overhead_pct",
        100.0
            * ratio(
                on.wall.as_secs_f64() - off.wall.as_secs_f64(),
                off.wall.as_secs_f64(),
            ),
    );

    let trace_path = out_dir.join(format!("trace-{}.json", w.name));
    rec.flush(&trace_path, TRACE_FILE_SPANS)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    notes.push(format!(
        "replayed {n} requests ({} states) per pass; {} spans, written to {}",
        n * w.batch,
        rec.spans.len(),
        trace_path.display()
    ));
    notes.push(format!(
        "server phase: {load_seconds} s loaded, {} acks, ack tail is each window's {}; in-process \
         request p50 {in_process_p50_us:.1} us (wire + storage + core)",
        win.acks, win.tail_label
    ));
    let shares: Vec<String> = NAMES
        .iter()
        .zip(own)
        .map(|(name, ns)| format!("{name} {:.1}", ns as f64 / 1e3 / n.max(1) as f64))
        .collect();
    notes.push(format!("self time per request, us: {}", shares.join(", ")));
    Ok(Report {
        metrics,
        attempted,
        failed,
        problems,
        notes,
    })
}

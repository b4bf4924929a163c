//! Directory-level storage: the [`FileStorage`] sink both facades log
//! through, [`open_durable`], which creates or reopens a durable tenant of
//! either kind, and [`recover`] / [`recover_durable`], which rebuild an
//! [`ActiveDatabase`] from a storage directory after a crash.
//!
//! Sequencing discipline: while segment `wal-k.log` is current, a
//! checkpoint request writes `ckpt-(k+1).bin` (atomically) and then rotates
//! to `wal-(k+1).log`. Checkpoint `k` therefore summarizes everything up
//! to the start of `wal-k`, and recovery is: newest checkpoint that
//! validates, plus replay of `wal-k.log .. wal-max.log` in order. Older
//! checkpoints and segments are retained, so recovery can fall back past a
//! corrupt newest checkpoint by replaying a longer suffix.
//!
//! [`read_log`] is the one reader of a directory's log, for both tenant
//! kinds: recovery reads from its checkpoint's sequence number, a
//! valid-time tenant (which never checkpoints) from 0. Each read runs once
//! per reopen, and [`FileStorage::resume`] appends from the [`LogEnd`] it
//! found without reading the segment again. A transaction-time replay
//! propagates a failing registration; a valid-time one absorbs every
//! re-failure, as the live run absorbed it.
//!
//! A directory's kind is on disk: a transaction-time tenant has a
//! checkpoint from its creation on, a valid-time one a [`VT_META_FILE`]
//! (its Δ as decimal text), written before anything else so that a
//! directory cut during creation reopens as an empty valid-time tenant.
//! Either facade logs its own inputs once its sink is attached; this
//! module only opens, reads and reattaches.

use std::path::{Path, PathBuf};

use tdb_core::storage::SyncPolicy;
use tdb_core::{
    ActiveDatabase, CoreError, LogicalOp, ManagerConfig, Rule, SystemSnapshot, VtActiveDatabase,
    WalSink,
};
use tdb_relation::Database;

use crate::checkpoint::{
    checkpoint_file_name, checkpoint_len, parse_checkpoint_name, read_checkpoint,
    write_checkpoint_with,
};
use crate::codec::define_legacy;
use crate::wal::{
    parse_segment_name, read_segment, segment_file_name, sync_parent, TailStatus, WalWriter,
    WAL_HEADER,
};
use crate::{Result, StorageError};

/// Under the no-budget [`CheckpointPolicy`], no checkpoint is due before
/// this many bytes were logged, however little the last one weighed. A new
/// tenant's base checkpoint holds an empty database (a few hundred bytes);
/// chasing it would checkpoint — four fsyncs under [`SyncPolicy::Always`] —
/// on each of its first requests while its schema and rules arrive.
pub const MIN_CHECKPOINT_BYTES: u64 = 4096;

/// When the sink asks the facade for a checkpoint. Explicit
/// [`ActiveDatabase::checkpoint_now`] calls always work.
///
/// With a budget (either field non-zero), a checkpoint is due once that many
/// ops or bytes were logged since the last one; a `0` disables that trigger.
/// With **no budget** (`every_ops == 0 && every_bytes == 0`), a checkpoint
/// is due once the bytes logged since the last checkpoint reach that
/// checkpoint's payload length (and at least [`MIN_CHECKPOINT_BYTES`]).
/// Writing a checkpoint then costs no more than the log it replaces, so
/// total checkpoint bytes stay at most the log bytes plus one checkpoint,
/// and a crash replays at most one checkpoint's worth of log. This is the
/// server's default cadence.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointPolicy {
    /// Checkpoint after this many logged input ops (a batch counts each
    /// member).
    pub every_ops: usize,
    /// Checkpoint after this many logged bytes.
    pub every_bytes: u64,
    /// When appends (and checkpoint installs) force data to disk. Group
    /// commits pay the [`SyncPolicy::Always`] fsync once per *batch*.
    pub sync: SyncPolicy,
}

impl Default for CheckpointPolicy {
    fn default() -> CheckpointPolicy {
        CheckpointPolicy {
            every_ops: 256,
            every_bytes: 1 << 20,
            sync: SyncPolicy::Never,
        }
    }
}

/// A [`WalSink`] backed by a directory of log segments and checkpoints.
#[derive(Debug)]
pub struct FileStorage {
    dir: PathBuf,
    policy: CheckpointPolicy,
    writer: WalWriter,
    /// Input ops appended since the last checkpoint.
    ops_since: usize,
    /// Bytes appended since the last checkpoint.
    bytes_since: u64,
    /// Payload length of the last checkpoint (after [`FileStorage::resume`],
    /// of the newest one on disk); `0` before any. The no-budget threshold,
    /// floored at [`MIN_CHECKPOINT_BYTES`].
    last_checkpoint_len: u64,
}

impl FileStorage {
    /// Creates (or reuses) `dir` and opens a fresh segment numbered one
    /// past anything already present, so existing files are never clobbered.
    pub fn create(dir: &Path, policy: CheckpointPolicy) -> Result<FileStorage> {
        create_dir(dir, policy.sync)?;
        let (ckpts, wals) = scan(dir)?;
        let seq = ckpts
            .iter()
            .chain(wals.iter())
            .max()
            .map(|m| m + 1)
            .unwrap_or(0);
        let writer = WalWriter::create(&dir.join(segment_file_name(seq)), seq, policy.sync)?;
        Ok(FileStorage {
            dir: dir.to_path_buf(),
            policy,
            writer,
            ops_since: 0,
            bytes_since: 0,
            last_checkpoint_len: 0,
        })
    }

    /// Appends to `dir`'s log from `end`, where [`read_log`] found its last
    /// whole record: any torn tail is truncated away first, and a segment
    /// that is missing (a crash between the two steps of a rotation, or
    /// before a new tenant's first) or torn in its own header is created.
    /// The no-budget threshold is the newest checkpoint whose header reads.
    pub fn resume(dir: &Path, policy: CheckpointPolicy, end: LogEnd) -> Result<FileStorage> {
        let (ckpts, _) = scan(dir)?;
        let last_checkpoint_len = ckpts
            .iter()
            .rev()
            .find_map(|&seq| checkpoint_len(&dir.join(checkpoint_file_name(seq))).ok())
            .unwrap_or(0);
        let path = dir.join(segment_file_name(end.seq));
        let writer = match end.len < WAL_HEADER as u64 {
            true => WalWriter::create(&path, end.seq, policy.sync)?,
            false => WalWriter::resume(&path, end.seq, end.len, policy.sync)?,
        };
        Ok(FileStorage {
            dir: dir.to_path_buf(),
            policy,
            bytes_since: writer.len().saturating_sub(WAL_HEADER as u64),
            writer,
            ops_since: end.input_ops,
            last_checkpoint_len,
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one op, or — `batch` set — a group commit: the whole batch
    /// is one record, one buffered write, and (under [`SyncPolicy::Always`])
    /// one `sync_data`. Checkpoint cadence counts every member op so batched
    /// ingest checkpoints on the same budget as per-op ingest.
    fn append_impl(&mut self, ops: &[LogicalOp], batch: bool) -> Result<()> {
        let observe = tdb_obs::enabled();
        let t0 = if observe { tdb_obs::now() } else { None };
        let bytes = match ops {
            [op] if !batch => self.writer.append(op)?,
            _ => self.writer.append_batch(ops)?,
        };
        if observe {
            let m = wal_metrics();
            m.appends.inc();
            if batch {
                m.batch_appends.inc();
                m.batched_ops.add(ops.len() as u64);
            }
            m.append_bytes.add(bytes);
            m.append_ns.observe(tdb_obs::elapsed_ns(t0));
        }
        self.bytes_since += bytes;
        self.ops_since += ops.iter().map(LogicalOp::input_ops).sum::<usize>();
        Ok(())
    }

    fn checkpoint_impl(&mut self, snap: &SystemSnapshot) -> Result<()> {
        let observe = tdb_obs::enabled();
        let t0 = if observe { tdb_obs::now() } else { None };
        let sync = self.policy.sync.sync_on_append();
        if sync {
            self.writer.sync()?;
        }
        let next = self.writer.seq() + 1;
        let ckpt_bytes = write_checkpoint_with(&self.dir, next, snap, sync)?;
        self.writer = WalWriter::create(
            &self.dir.join(segment_file_name(next)),
            next,
            self.policy.sync,
        )?;
        if observe {
            let m = wal_metrics();
            m.checkpoints.inc();
            m.checkpoint_bytes
                .set(i64::try_from(ckpt_bytes).unwrap_or(i64::MAX));
            m.checkpoint_ns.observe(tdb_obs::elapsed_ns(t0));
        }
        self.ops_since = 0;
        self.bytes_since = 0;
        self.last_checkpoint_len = ckpt_bytes;
        Ok(())
    }
}

/// Registry handles for the durability-layer instrumentation, resolved
/// once per process. Touched only while [`tdb_obs::enabled`].
struct WalMetrics {
    appends: tdb_obs::Counter,
    batch_appends: tdb_obs::Counter,
    batched_ops: tdb_obs::Counter,
    append_bytes: tdb_obs::Counter,
    append_ns: std::sync::Arc<tdb_obs::Histogram>,
    checkpoints: tdb_obs::Counter,
    /// Size of the most recent checkpoint file.
    checkpoint_bytes: tdb_obs::Gauge,
    checkpoint_ns: std::sync::Arc<tdb_obs::Histogram>,
}

fn wal_metrics() -> &'static WalMetrics {
    static METRICS: std::sync::OnceLock<WalMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let r = tdb_obs::global();
        WalMetrics {
            appends: r.counter("tdb_wal_appends_total"),
            batch_appends: r.counter("tdb_wal_batch_appends_total"),
            batched_ops: r.counter("tdb_wal_batched_ops_total"),
            append_bytes: r.counter("tdb_wal_append_bytes_total"),
            append_ns: r.histogram("tdb_wal_append_ns"),
            checkpoints: r.counter("tdb_checkpoint_total"),
            checkpoint_bytes: r.gauge("tdb_checkpoint_bytes"),
            checkpoint_ns: r.histogram("tdb_checkpoint_ns"),
        }
    })
}

impl WalSink for FileStorage {
    fn append(&mut self, op: &LogicalOp) -> tdb_core::Result<()> {
        (self.append_impl(std::slice::from_ref(op), false))
            .map_err(|e| CoreError::Storage(e.to_string()))
    }

    fn append_batch(&mut self, ops: &[LogicalOp]) -> tdb_core::Result<()> {
        (self.append_impl(ops, true)).map_err(|e| CoreError::Storage(e.to_string()))
    }

    fn wants_checkpoint(&self) -> bool {
        let p = &self.policy;
        if p.every_ops == 0 && p.every_bytes == 0 {
            return self.bytes_since >= self.last_checkpoint_len.max(MIN_CHECKPOINT_BYTES);
        }
        (p.every_ops > 0 && self.ops_since >= p.every_ops)
            || (p.every_bytes > 0 && self.bytes_since >= p.every_bytes)
    }

    fn checkpoint(&mut self, snap: &SystemSnapshot) -> tdb_core::Result<()> {
        self.checkpoint_impl(snap)
            .map_err(|e| CoreError::Storage(e.to_string()))
    }

    fn sync(&mut self) -> tdb_core::Result<()> {
        (self.writer.sync()).map_err(|e| CoreError::Storage(e.to_string()))
    }
}

// ---- opening a tenant directory ---------------------------------------------

/// Marker file of a durable valid-time tenant: its max-delay Δ as decimal
/// text.
pub const VT_META_FILE: &str = "vt.meta";

/// A durable tenant as [`open_durable`] hands it back.
#[derive(Debug)]
pub enum Durable {
    /// A transaction-time tenant, and how it came back when it was
    /// recovered.
    Plain(ActiveDatabase, Option<RecoveryReport>),
    /// A valid-time tenant.
    ValidTime(VtActiveDatabase),
}

/// Opens the durable tenant `dir` holds, or creates one there: a
/// valid-time one with disorder bound Δ when `max_delay` is `Some(Δ)`,
/// else a transaction-time one. The kind on disk wins, and so does a
/// persisted Δ, but a valid-time request for a transaction-time directory
/// is [`StorageError::KindMismatch`] and leaves it as it was. A valid-time
/// reopen replays the whole log, absorbing every re-failure, and appends
/// from where it ends. `catalog` need only define the rules an older log
/// names in `AddRule` records; on a valid-time tenant an `AddRule` it does
/// not define was a client's op that failed in the live run.
pub fn open_durable(
    dir: &Path,
    max_delay: Option<i64>,
    cfg: ManagerConfig,
    policy: CheckpointPolicy,
    catalog: &[Rule],
) -> Result<Durable> {
    let meta = dir.join(VT_META_FILE);
    if !meta.try_exists()? {
        let holds_checkpoint = match scan(dir) {
            Ok((ckpts, _)) => !ckpts.is_empty(),
            Err(StorageError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => false,
            Err(e) => return Err(e),
        };
        match (holds_checkpoint, max_delay) {
            (true, Some(_)) => {
                let path = dir.display().to_string();
                return Err(StorageError::KindMismatch { path });
            }
            (true, None) => {
                let recovered = recover_durable(dir, catalog, cfg, policy)?;
                return Ok(Durable::Plain(recovered.adb, Some(recovered.report)));
            }
            (false, None) => {
                let storage = Box::new(FileStorage::create(dir, policy)?);
                let adb = ActiveDatabase::with_storage(Database::new(), cfg, storage)?;
                return Ok(Durable::Plain(adb, None));
            }
            (false, Some(max_delay)) => {
                create_dir(dir, policy.sync)?;
                std::fs::write(&meta, format!("{}\n", max_delay.max(0)))?;
                if policy.sync.sync_on_append() {
                    std::fs::File::open(&meta)?.sync_all()?;
                    sync_parent(&meta);
                }
            }
        }
    }
    let persisted = std::fs::read_to_string(&meta)?;
    let persisted: i64 = persisted
        .trim()
        .parse()
        .map_err(|_| StorageError::Corrupt {
            path: meta.display().to_string(),
            why: "not a decimal max-delay".into(),
        })?;
    let mut vt = VtActiveDatabase::new_streaming(Database::new(), persisted.max(0));
    let log = read_log(dir, 0)?;
    for op in log.ops {
        if let Ok(op) = define_legacy(op, catalog) {
            let _ = vt.apply(&op, true);
        }
    }
    let policy = CheckpointPolicy {
        sync: policy.sync,
        ..CheckpointPolicy::default()
    };
    vt.attach_wal(Box::new(FileStorage::resume(dir, policy, log.end)?));
    Ok(Durable::ValidTime(vt))
}

// ---- recovery ---------------------------------------------------------------

/// What [`recover`] found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number of the checkpoint recovery started from.
    pub checkpoint_seq: u64,
    /// Log records read on top of it, the `Firing` records of an older
    /// log (which replay skips) included.
    pub ops_replayed: usize,
    /// Bytes of torn tail dropped from the final segment.
    pub dropped_bytes: u64,
    /// Newer checkpoints that failed validation, with the reason; recovery
    /// fell back past them.
    pub bad_checkpoints: Vec<(u64, String)>,
}

/// A recovered system plus the report of how it was rebuilt.
#[derive(Debug)]
pub struct Recovery {
    pub adb: ActiveDatabase,
    pub report: RecoveryReport,
    /// Where the replayed log ends: [`FileStorage::resume`] appends there.
    pub end: LogEnd,
}

/// Creates `dir` (and any missing parent); under [`SyncPolicy::Always`] its
/// entry in its parent reaches the disk before this returns.
pub fn create_dir(dir: &Path, sync: SyncPolicy) -> Result<()> {
    std::fs::create_dir_all(dir)?;
    if sync.sync_on_append() {
        sync_parent(dir);
    }
    Ok(())
}

/// Where appends to a log resume: segment `seq`, just past its last whole
/// record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogEnd {
    /// The newest segment read — or, when there is none, the sequence
    /// number the read started from.
    pub seq: u64,
    /// The offset just past the segment's last whole record. Shorter than
    /// a segment header when the segment is missing or was torn while it
    /// was created: appends then start it afresh.
    pub len: u64,
    /// The replayable inputs the segment's whole records carry (see
    /// [`LogicalOp::input_ops`]), which the checkpoint cadence counts.
    pub input_ops: usize,
}

/// What [`read_log`] found.
#[derive(Debug)]
pub struct LogRead {
    /// Every whole record, in log order, as written: a legacy `AddRule`
    /// is the caller's to resolve ([`define_legacy`]).
    pub ops: Vec<LogicalOp>,
    /// Bytes of torn tail dropped from the final segment.
    pub dropped_bytes: u64,
    /// Where appends resume.
    pub end: LogEnd,
}

/// Reads segments `wal-first_seq .. wal-max` of `dir` in order — strict for
/// sealed segments, lossy for the final one. A hole in that range loses
/// committed ops, so it is an error; no segment at or after `first_seq`
/// is an empty log. A final segment shorter than its own header is a crash
/// while it was created (during a rotation, or before a new tenant's first
/// record): an empty tail, not corruption.
pub fn read_log(dir: &Path, first_seq: u64) -> Result<LogRead> {
    let (_, wals) = scan(dir)?;
    let mut log = LogRead {
        ops: Vec::new(),
        dropped_bytes: 0,
        end: LogEnd {
            seq: first_seq,
            ..LogEnd::default()
        },
    };
    let Some(&max_wal) = wals.last().filter(|&&w| w >= first_seq) else {
        return Ok(log);
    };
    for seq in first_seq..=max_wal {
        if wals.binary_search(&seq).is_err() {
            return Err(StorageError::MissingSegment(seq));
        }
        let path = dir.join(segment_file_name(seq));
        let last = seq == max_wal;
        let file_len = std::fs::metadata(&path)?.len();
        if last && file_len < WAL_HEADER as u64 {
            log.dropped_bytes = file_len;
            log.end = LogEnd {
                seq,
                ..LogEnd::default()
            };
            break;
        }
        let r = read_segment(&path, last)?;
        if r.seq != seq {
            return Err(StorageError::Corrupt {
                path: path.display().to_string(),
                why: format!("header claims sequence {}, name says {seq}", r.seq),
            });
        }
        if let TailStatus::Truncated { dropped_bytes } = r.tail {
            log.dropped_bytes = dropped_bytes;
        }
        log.end = LogEnd {
            seq,
            len: r.valid_len,
            input_ops: r.ops.iter().map(LogicalOp::input_ops).sum(),
        };
        log.ops.extend(r.ops);
    }
    Ok(log)
}

fn scan(dir: &Path) -> Result<(Vec<u64>, Vec<u64>)> {
    let mut ckpts = Vec::new();
    let mut wals = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = parse_checkpoint_name(name) {
            ckpts.push(seq);
        } else if let Some(seq) = parse_segment_name(name) {
            wals.push(seq);
        }
    }
    ckpts.sort_unstable();
    wals.sort_unstable();
    Ok((ckpts, wals))
}

/// Rebuilds the system from `dir`: loads the newest checkpoint that
/// validates (recording any newer ones that did not), replays every later
/// log segment in order — strict for sealed segments, lossy for the final
/// one — and returns the recovered [`ActiveDatabase`]. Registrations
/// are logged and checkpointed with their definitions; `catalog` need
/// only define the rules older directories name without defining them —
/// in `AddRule` records and `TDBCKPT3`–`5` checkpoints — so a directory
/// written since recovers with an empty one.
pub fn recover(dir: &Path, catalog: &[Rule], cfg: ManagerConfig) -> Result<Recovery> {
    let (ckpts, _) = scan(dir)?;

    // Newest checkpoint that validates wins; remember why newer ones lost.
    let mut bad_checkpoints = Vec::new();
    let mut chosen: Option<(u64, SystemSnapshot)> = None;
    for &seq in ckpts.iter().rev() {
        let path = dir.join(checkpoint_file_name(seq));
        match read_checkpoint(&path, catalog) {
            Ok((file_seq, snap)) if file_seq == seq => {
                chosen = Some((seq, snap));
                break;
            }
            // A rule the catalog does not define: the file is whole.
            Err(e @ StorageError::Core(_)) => return Err(e),
            Ok((file_seq, _)) => {
                bad_checkpoints.push((
                    seq,
                    format!("header claims sequence {file_seq}, name says {seq}"),
                ));
            }
            Err(e) => bad_checkpoints.push((seq, e.to_string())),
        }
    }
    let Some((checkpoint_seq, snap)) = chosen else {
        return Err(StorageError::NoCheckpoint);
    };

    let log = read_log(dir, checkpoint_seq)?;
    let ops = (log.ops.into_iter())
        .map(|op| define_legacy(op, catalog))
        .collect::<Result<Vec<_>>>()?;
    let adb = ActiveDatabase::recover(snap, &ops, cfg)?;
    let report = RecoveryReport {
        checkpoint_seq,
        ops_replayed: ops.len(),
        dropped_bytes: log.dropped_bytes,
        bad_checkpoints,
    };
    Ok(Recovery {
        adb,
        report,
        end: log.end,
    })
}

/// [`recover`], then reattach durable storage: appends resume where the
/// replayed log ends (torn tail truncated), and attaching takes a fresh
/// checkpoint so the next crash replays only from here.
pub fn recover_durable(
    dir: &Path,
    catalog: &[Rule],
    cfg: ManagerConfig,
    policy: CheckpointPolicy,
) -> Result<Recovery> {
    let mut recovered = recover(dir, catalog, cfg)?;
    let storage = FileStorage::resume(dir, policy, recovered.end)?;
    recovered.adb.attach_wal(Box::new(storage))?;
    Ok(recovered)
}

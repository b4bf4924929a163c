//! Directory-level storage: the [`FileStorage`] sink the facade logs
//! through, and [`recover`] / [`recover_durable`] which rebuild an
//! [`ActiveDatabase`] from a storage directory after a crash.
//!
//! Sequencing discipline: while segment `wal-k.log` is current, a
//! checkpoint request writes `ckpt-(k+1).bin` (atomically) and then rotates
//! to `wal-(k+1).log`. Checkpoint `k` therefore summarizes everything up
//! to the start of `wal-k`, and recovery is: newest checkpoint that
//! validates, plus replay of `wal-k.log .. wal-max.log` in order. Older
//! checkpoints and segments are retained, so recovery can fall back past a
//! corrupt newest checkpoint by replaying a longer suffix.

use std::path::{Path, PathBuf};

use tdb_core::storage::SyncPolicy;
use tdb_core::{
    ActiveDatabase, CoreError, LogicalOp, ManagerConfig, Rule, SystemSnapshot, WalSink,
};

use crate::checkpoint::{
    checkpoint_file_name, checkpoint_len, parse_checkpoint_name, read_checkpoint,
    write_checkpoint_with,
};
use crate::codec::define_legacy;
use crate::wal::{
    parse_segment_name, read_segment, segment_file_name, TailStatus, WalWriter, WAL_HEADER,
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
    /// Checkpoint after this many logged (non-audit) ops.
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
    /// Non-audit ops appended since the last checkpoint.
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
        std::fs::create_dir_all(dir)?;
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

    /// Reopens the newest segment for appending after [`recover`] validated
    /// the directory. Any torn tail is truncated away first. If the
    /// directory has checkpoints but no segment (crash between the two
    /// steps of a rotation), the missing segment is created. The no-budget
    /// threshold is the newest checkpoint whose header reads.
    pub fn resume(dir: &Path, policy: CheckpointPolicy) -> Result<FileStorage> {
        let (ckpts, wals) = scan(dir)?;
        let last_checkpoint_len = ckpts
            .iter()
            .rev()
            .find_map(|&seq| checkpoint_len(&dir.join(checkpoint_file_name(seq))).ok())
            .unwrap_or(0);
        let (writer, ops_since) = match wals.iter().max() {
            Some(&seq) => {
                let path = dir.join(segment_file_name(seq));
                // A segment torn during its own creation is recreated.
                if std::fs::metadata(&path)?.len() < WAL_HEADER as u64 {
                    (WalWriter::create(&path, seq, policy.sync)?, 0)
                } else {
                    let r = read_segment(&path, true)?;
                    let ops_since = r.ops.iter().map(LogicalOp::input_ops).sum();
                    let w = WalWriter::resume(&path, seq, r.valid_len, policy.sync)?;
                    (w, ops_since)
                }
            }
            None => {
                let seq = ckpts.iter().max().copied().unwrap_or(0);
                let w = WalWriter::create(&dir.join(segment_file_name(seq)), seq, policy.sync)?;
                (w, 0)
            }
        };
        Ok(FileStorage {
            dir: dir.to_path_buf(),
            policy,
            bytes_since: writer.len().saturating_sub(WAL_HEADER as u64),
            writer,
            ops_since,
            last_checkpoint_len,
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Forces buffered records to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.writer.sync()
    }

    fn append_impl(&mut self, op: &LogicalOp) -> Result<()> {
        let observe = tdb_obs::enabled();
        let t0 = if observe { tdb_obs::now() } else { None };
        let bytes = self.writer.append(op)?;
        if observe {
            let m = wal_metrics();
            m.appends.inc();
            m.append_bytes.add(bytes);
            m.append_ns.observe(tdb_obs::elapsed_ns(t0));
        }
        self.bytes_since += bytes;
        self.ops_since += op.input_ops();
        Ok(())
    }

    /// Group commit: the whole batch is one record, one buffered write, and
    /// (under [`SyncPolicy::Always`]) one `sync_data`. Checkpoint cadence
    /// counts every member op so batched ingest checkpoints on the same
    /// budget as per-op ingest.
    fn append_batch_impl(&mut self, ops: &[LogicalOp]) -> Result<()> {
        let observe = tdb_obs::enabled();
        let t0 = if observe { tdb_obs::now() } else { None };
        let bytes = self.writer.append_batch(ops)?;
        if observe {
            let m = wal_metrics();
            m.appends.inc();
            m.batch_appends.inc();
            m.batched_ops.add(ops.len() as u64);
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
        self.append_impl(op)
            .map_err(|e| CoreError::Storage(e.to_string()))
    }

    fn append_batch(&mut self, ops: &[LogicalOp]) -> tdb_core::Result<()> {
        self.append_batch_impl(ops)
            .map_err(|e| CoreError::Storage(e.to_string()))
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
}

// ---- recovery ---------------------------------------------------------------

/// What [`recover`] found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number of the checkpoint recovery started from.
    pub checkpoint_seq: u64,
    /// Logged ops replayed on top of it (audit records included).
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
    let (ckpts, wals) = scan(dir)?;

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

    // Replay wal-k .. wal-max. A hole in that range loses committed ops,
    // so it is an error; no segments at or after k just means an empty tail.
    let mut ops: Vec<LogicalOp> = Vec::new();
    let mut dropped_bytes = 0;
    if let Some(max_wal) = wals.iter().filter(|&&w| w >= checkpoint_seq).max().copied() {
        for seq in checkpoint_seq..=max_wal {
            if !wals.contains(&seq) {
                return Err(StorageError::MissingSegment(seq));
            }
            let path = dir.join(segment_file_name(seq));
            let last = seq == max_wal;
            // A final segment shorter than its own header is a crash during
            // rotation (the checkpoint landed, the new segment did not):
            // an empty tail, not corruption.
            let file_len = std::fs::metadata(&path)?.len();
            if last && file_len < WAL_HEADER as u64 {
                dropped_bytes = file_len;
                continue;
            }
            let r = read_segment(&path, last)?;
            if r.seq != seq {
                return Err(StorageError::Corrupt {
                    path: path.display().to_string(),
                    why: format!("header claims sequence {}, name says {seq}", r.seq),
                });
            }
            if let TailStatus::Truncated { dropped_bytes: d } = r.tail {
                dropped_bytes = d;
            }
            for op in r.ops {
                ops.push(define_legacy(op, catalog)?);
            }
        }
    }

    let ops_replayed = ops.len();
    let adb = ActiveDatabase::recover(snap, &ops, cfg)?;
    Ok(Recovery {
        adb,
        report: RecoveryReport {
            checkpoint_seq,
            ops_replayed,
            dropped_bytes,
            bad_checkpoints,
        },
    })
}

/// [`recover`], then reattach durable storage: the newest segment is
/// reopened (torn tail truncated), and attaching takes a fresh checkpoint
/// so the next crash replays only from here.
pub fn recover_durable(
    dir: &Path,
    catalog: &[Rule],
    cfg: ManagerConfig,
    policy: CheckpointPolicy,
) -> Result<Recovery> {
    let mut recovered = recover(dir, catalog, cfg)?;
    let storage = FileStorage::resume(dir, policy)?;
    recovered.adb.attach_wal(Box::new(storage))?;
    Ok(recovered)
}

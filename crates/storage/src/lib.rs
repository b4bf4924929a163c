//! # tdb-storage
//!
//! Durability for the active database: a write-ahead log of engine
//! occurrences plus *Theorem-1 checkpoints* with crash recovery.
//!
//! The paper's Theorem 1 (Section 5) proves that the per-rule formula
//! states `F_{g,i}` summarize the entire update history: the incremental
//! evaluator never needs an old system state again. That makes durability
//! cheap — a checkpoint holds the current database, the clock, each rule's
//! residual formulas and a handful of counters, and its size is
//! O(formula state), **not** O(history). Between checkpoints, the facade
//! appends one logical record per externally driven operation; replaying
//! that suffix through the normal dispatch path reproduces the pre-crash
//! run exactly, firings included, because everything the rules themselves
//! do is deterministic.
//!
//! On-disk layout (one directory per system):
//!
//! ```text
//! ckpt-<k>.bin   "TDBCKPT6" seq len crc payload        (temp + rename)
//! wal-<k>.log    "TDBWAL01" seq { len crc payload }*   (append-only)
//! ```
//!
//! Checksums are CRC-32 ([`crc`], slicing-by-8). The checkpoint magic's
//! digit is the payload layout: `3` has no aggregate slots, `4` added
//! them, `5` writes a carried history state whose database equals the
//! snapshot's own as a back-reference, `6` carries each registered rule's
//! definition where the others name it. All four still read; only `6` is
//! written. A registration is one log record carrying every definition
//! of its source, so a directory is the whole tenant: recovery needs no
//! rule catalog except for what older directories only name, and
//! resolves those names as it reads them ([`codec::define_legacy`]).
//!
//! When to checkpoint is a [`CheckpointPolicy`]: after a budget of logged
//! ops or bytes, or — with **no budget** (both zero, the server's default)
//! — once the bytes logged since the last checkpoint reach that
//! checkpoint's payload length, and at least [`MIN_CHECKPOINT_BYTES`].
//! Then total checkpoint bytes stay at most the log bytes plus one
//! checkpoint, and a crash replays at most one checkpoint's (or 4 KiB's)
//! worth of log.
//!
//! Checkpoint `k` is written at the boundary between `wal-(k-1)` and
//! `wal-k`, so recovery loads the newest checkpoint that validates and
//! replays every later log segment in order. Only the final segment may
//! legitimately end mid-record (a torn append); there the valid prefix is
//! kept and the tail dropped. Anywhere else, a short file or checksum
//! mismatch is corruption and surfaces as a typed [`StorageError`] — this
//! crate never panics on bad bytes.
//!
//! Entry points: [`FileStorage`] (a [`tdb_core::WalSink`]),
//! [`CheckpointPolicy`], [`recover`] / [`recover_durable`], [`read_log`]
//! (the one log reader, which recovery runs from its checkpoint and a
//! valid-time tenant from segment 0), and the [`codec`] for the
//! hand-rolled binary format.

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod codec;
pub mod crc;
pub mod store;
pub mod wal;

use std::fmt;

pub use checkpoint::{read_checkpoint, write_checkpoint};
pub use store::{
    create_dir, open_durable, read_log, recover, recover_durable, CheckpointPolicy, Durable,
    FileStorage, LogEnd, LogRead, Recovery, RecoveryReport, MIN_CHECKPOINT_BYTES, VT_META_FILE,
};
pub use wal::{read_segment, sync_parent, SegmentRead, TailStatus, WalWriter};

/// Everything that can go wrong between the facade and the disk.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the expected magic string.
    BadMagic { path: String },
    /// A record or checkpoint payload failed its CRC.
    ChecksumMismatch { path: String, offset: u64 },
    /// Structurally invalid bytes (short header, impossible length, …).
    Corrupt { path: String, why: String },
    /// A checksum-valid payload did not decode (format/version mismatch).
    Decode(String),
    /// Recovery was asked for but no checkpoint validates.
    NoCheckpoint,
    /// A log segment between the checkpoint and the newest segment is gone.
    MissingSegment(u64),
    /// Replay or snapshot restore failed inside the core.
    Core(tdb_core::CoreError),
    /// A valid-time tenant was asked of a directory that holds a
    /// transaction-time one.
    KindMismatch { path: String },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o failure: {e}"),
            StorageError::BadMagic { path } => write!(f, "{path}: bad magic"),
            StorageError::ChecksumMismatch { path, offset } => {
                write!(f, "{path}: checksum mismatch at offset {offset}")
            }
            StorageError::Corrupt { path, why } => write!(f, "{path}: corrupt: {why}"),
            StorageError::Decode(why) => write!(f, "decode failure: {why}"),
            StorageError::NoCheckpoint => write!(f, "no valid checkpoint found"),
            StorageError::MissingSegment(k) => write!(f, "log segment wal-{k}.log is missing"),
            StorageError::Core(e) => write!(f, "recovery failed in core: {e}"),
            StorageError::KindMismatch { path } => write!(
                f,
                "{path}: directory holds a transaction-time tenant, not a valid-time one"
            ),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<tdb_core::CoreError> for StorageError {
    fn from(e: tdb_core::CoreError) -> Self {
        StorageError::Core(e)
    }
}

/// Shorthand result type.
pub type Result<T> = std::result::Result<T, StorageError>;

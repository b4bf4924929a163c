//! Append-only log segments of [`LogicalOp`] records.
//!
//! A segment is the 16-byte header `"TDBWAL01"` + `seq: u64` followed by
//! zero or more records, each `[u32 len][u32 crc32(payload)][payload]`.
//! Appends go through [`WalWriter`]; [`read_segment`] walks a segment back
//! into ops, in either *strict* mode (any defect is an error — used for
//! every segment recovery has already sealed) or *lossy* mode (a torn or
//! checksum-bad tail ends the read, keeping the valid prefix — legitimate
//! only for the final segment, where a crash mid-append is expected).

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use tdb_core::storage::SyncPolicy;
use tdb_core::LogicalOp;

use crate::codec::{decode_logical_op, encode_logical_op, encode_logical_op_batch, first_n};
use crate::crc::crc32;
use crate::{Result, StorageError};

/// Magic string opening every log segment.
pub const WAL_MAGIC: &[u8; 8] = b"TDBWAL01";

/// Bytes of segment header (magic + sequence number).
pub const WAL_HEADER: usize = 16;

/// Per-record framing overhead (length + checksum).
pub const RECORD_HEADER: usize = 8;

/// Records larger than this are rejected as corrupt rather than allocated.
/// Checkpoints carry the big state; a single logical op stays small.
const MAX_RECORD: u32 = 256 * 1024 * 1024;

/// Name of segment `seq` inside a storage directory.
pub fn segment_file_name(seq: u64) -> String {
    format!("wal-{seq}.log")
}

/// Parses `wal-<seq>.log` back to `seq`.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// Forces the directory entries of `path`'s parent — a file created or
/// renamed there — to stable storage. Directory fsync is unsupported on
/// some platforms, so failing to open or sync the directory is not fatal.
pub fn sync_parent(path: &Path) {
    if let Some(Ok(dir)) = path.parent().map(File::open) {
        let _ = dir.sync_all();
    }
}

// ---- writing ----------------------------------------------------------------

/// An open, append-only log segment.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    seq: u64,
    /// Bytes of the file known valid (header + whole records).
    len: u64,
    sync: SyncPolicy,
}

impl WalWriter {
    /// Creates segment `seq` at `path` (truncating any previous file) and
    /// writes its header. Under [`SyncPolicy::Always`] the header and the
    /// segment's directory entry reach the disk before this returns.
    pub fn create(path: &Path, seq: u64, sync: SyncPolicy) -> Result<WalWriter> {
        let mut file = File::create(path)?;
        file.write_all(WAL_MAGIC)?;
        file.write_all(&seq.to_le_bytes())?;
        if sync.sync_on_append() {
            file.sync_data()?;
            sync_parent(path);
        }
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            seq,
            len: WAL_HEADER as u64,
            sync,
        })
    }

    /// Reopens an existing segment for appending after recovery validated
    /// its prefix. Any torn tail beyond `valid_len` is truncated away.
    pub fn resume(path: &Path, seq: u64, valid_len: u64, sync: SyncPolicy) -> Result<WalWriter> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::End(0))?;
        if sync.sync_on_append() {
            file.sync_data()?;
        }
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            seq,
            len: valid_len,
            sync,
        })
    }

    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Bytes of valid log written so far (including header).
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len <= WAL_HEADER as u64
    }

    /// Appends one record; returns the bytes it occupies on disk. Under
    /// [`SyncPolicy::Always`] it reaches the disk before this returns.
    pub fn append(&mut self, op: &LogicalOp) -> Result<u64> {
        self.append_payload(encode_logical_op(op))
    }

    /// Group commit: appends a whole batch of ops as **one** record (the
    /// [`LogicalOp::Batch`] encoding), so the group costs one buffered
    /// write and — under [`SyncPolicy::Always`] — one `sync_data` total.
    /// Because the batch is a single checksummed record, a crash mid-write
    /// tears the whole record and the lossy tail read drops the entire
    /// batch: recovery always lands on a batch boundary. Returns the bytes
    /// the record occupies on disk.
    pub fn append_batch(&mut self, ops: &[LogicalOp]) -> Result<u64> {
        self.append_payload(encode_logical_op_batch(ops))
    }

    fn append_payload(&mut self, payload: Vec<u8>) -> Result<u64> {
        if payload.len() as u64 > MAX_RECORD as u64 {
            return Err(StorageError::Corrupt {
                path: self.path.display().to_string(),
                why: format!(
                    "record payload of {} bytes exceeds the {MAX_RECORD}-byte limit",
                    payload.len()
                ),
            });
        }
        let mut frame = Vec::with_capacity(RECORD_HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        if self.sync.sync_on_append() {
            self.file.sync_data()?;
        }
        self.len += frame.len() as u64;
        Ok(frame.len() as u64)
    }

    /// Forces buffered records to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

// ---- reading ----------------------------------------------------------------

/// How a segment read ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailStatus {
    /// The segment ended exactly on a record boundary.
    Clean,
    /// A torn or checksum-bad tail was dropped (lossy mode only).
    Truncated {
        /// Bytes discarded after the last whole record.
        dropped_bytes: u64,
    },
}

/// The contents of one log segment.
#[derive(Debug)]
pub struct SegmentRead {
    /// Sequence number from the header.
    pub seq: u64,
    /// Decoded records, in append order.
    pub ops: Vec<LogicalOp>,
    /// Whether the tail was clean or truncated.
    pub tail: TailStatus,
    /// File offset just past the last whole record (where appends resume).
    pub valid_len: u64,
}

/// Reads a whole segment.
///
/// In strict mode (`lossy = false`) any defect — short header, bad magic,
/// torn record, checksum mismatch — is an error. In lossy mode a torn or
/// checksum-bad **tail** ends the read and the valid prefix is returned;
/// defects in the header are still errors, and a checksum-valid record
/// that fails to decode is always an error (that is a format bug, not a
/// crash artifact).
pub fn read_segment(path: &Path, lossy: bool) -> Result<SegmentRead> {
    let display = path.display().to_string();
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;

    if bytes.len() < WAL_HEADER {
        return Err(StorageError::Corrupt {
            path: display,
            why: format!(
                "segment header needs {WAL_HEADER} bytes, file has {}",
                bytes.len()
            ),
        });
    }
    if &bytes[..8] != WAL_MAGIC {
        return Err(StorageError::BadMagic { path: display });
    }
    let seq = u64::from_le_bytes(first_n(&bytes[8..16]));

    // Walk whole records; the first defect ends the walk at `pos`.
    let mut ops = Vec::new();
    let mut pos = WAL_HEADER;
    let defect = loop {
        if pos == bytes.len() {
            break None;
        }
        let corrupt = |why: String| {
            Some(StorageError::Corrupt {
                path: display.clone(),
                why,
            })
        };
        if bytes.len() - pos < RECORD_HEADER {
            break corrupt(format!("torn record header at offset {pos}"));
        }
        let len = u32::from_le_bytes(first_n(&bytes[pos..pos + 4]));
        let crc = u32::from_le_bytes(first_n(&bytes[pos + 4..pos + 8]));
        // An impossible length at the tail reads as a torn append.
        if len > MAX_RECORD {
            break corrupt(format!("record length {len} at offset {pos} exceeds limit"));
        }
        let body_start = pos + RECORD_HEADER;
        let body_end = body_start + len as usize;
        if body_end > bytes.len() {
            break corrupt(format!("torn record body at offset {pos}"));
        }
        let payload = &bytes[body_start..body_end];
        if crc32(payload) != crc {
            break Some(StorageError::ChecksumMismatch {
                path: display.clone(),
                offset: pos as u64,
            });
        }
        // A record whose checksum holds but whose bytes do not decode is a
        // format incompatibility — never silently dropped.
        ops.push(decode_logical_op(payload)?);
        pos = body_end;
    };
    let tail = match defect {
        None => TailStatus::Clean,
        Some(_) if lossy => TailStatus::Truncated {
            dropped_bytes: (bytes.len() - pos) as u64,
        },
        Some(e) => return Err(e),
    };
    Ok(SegmentRead {
        seq,
        ops,
        tail,
        valid_len: pos as u64,
    })
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use tdb_relation::Value;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tdb-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tempdir");
        dir
    }

    fn sample_ops() -> Vec<LogicalOp> {
        vec![
            LogicalOp::SetItem {
                name: "x".into(),
                value: Value::Int(1),
            },
            LogicalOp::Tick,
            LogicalOp::SetItem {
                name: "x".into(),
                value: Value::str("two"),
            },
            LogicalOp::AdvanceClock { delta: 5 },
        ]
    }

    #[test]
    fn roundtrip_segment() {
        let dir = tempdir("roundtrip");
        let path = dir.join(segment_file_name(7));
        let mut w = WalWriter::create(&path, 7, SyncPolicy::Never).unwrap();
        for op in &sample_ops() {
            w.append(op).unwrap();
        }
        w.sync().unwrap();
        let r = read_segment(&path, false).unwrap();
        assert_eq!(r.seq, 7);
        assert_eq!(r.tail, TailStatus::Clean);
        assert_eq!(r.ops.len(), 4);
        assert_eq!(r.valid_len, w.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lossy_read_drops_torn_tail_strict_read_errors() {
        let dir = tempdir("torn");
        let path = dir.join(segment_file_name(0));
        let mut w = WalWriter::create(&path, 0, SyncPolicy::Never).unwrap();
        for op in &sample_ops() {
            w.append(op).unwrap();
        }
        let full = w.len();
        drop(w);
        // Chop the last record in half.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 3).unwrap();
        drop(f);

        let r = read_segment(&path, true).unwrap();
        assert_eq!(r.ops.len(), 3);
        assert!(matches!(r.tail, TailStatus::Truncated { .. }));
        assert!(matches!(
            read_segment(&path, false),
            Err(StorageError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_is_checksum_mismatch_in_strict_mode() {
        let dir = tempdir("flip");
        let path = dir.join(segment_file_name(0));
        let mut w = WalWriter::create(&path, 0, SyncPolicy::Never).unwrap();
        for op in &sample_ops() {
            w.append(op).unwrap();
        }
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        match read_segment(&path, false) {
            Err(StorageError::ChecksumMismatch { .. }) | Err(StorageError::Corrupt { .. }) => {}
            other => panic!("expected corruption error, got {other:?}"),
        }
        // Lossy mode keeps whatever prefix still validates.
        let r = read_segment(&path, true).unwrap();
        assert!(r.ops.len() < 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_truncates_and_appends() {
        let dir = tempdir("resume");
        let path = dir.join(segment_file_name(2));
        let mut w = WalWriter::create(&path, 2, SyncPolicy::Never).unwrap();
        for op in &sample_ops() {
            w.append(op).unwrap();
        }
        let full = w.len();
        drop(w);
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 2).unwrap();
        drop(f);

        let r = read_segment(&path, true).unwrap();
        let mut w = WalWriter::resume(&path, r.seq, r.valid_len, SyncPolicy::Never).unwrap();
        w.append(&LogicalOp::Flush).unwrap();
        w.sync().unwrap();

        let r2 = read_segment(&path, false).unwrap();
        assert_eq!(r2.tail, TailStatus::Clean);
        assert_eq!(r2.ops.len(), 4); // 3 surviving + 1 new
        assert!(matches!(r2.ops.last(), Some(LogicalOp::Flush)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_roundtrips_as_one_record() {
        let dir = tempdir("batch");
        let path = dir.join(segment_file_name(1));
        let mut w = WalWriter::create(&path, 1, SyncPolicy::Never).unwrap();
        let before = w.len();
        let frame = w.append_batch(&sample_ops()).unwrap();
        w.sync().unwrap();
        assert_eq!(w.len(), before + frame, "the batch is exactly one frame");

        let r = read_segment(&path, false).unwrap();
        assert_eq!(r.tail, TailStatus::Clean);
        assert_eq!(r.ops, vec![LogicalOp::Batch { ops: sample_ops() }]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A batch torn at *any* byte cut must drop entirely: a lossy read never
    /// surfaces a half-applied batch.
    #[test]
    fn torn_batch_is_all_or_nothing() {
        let dir = tempdir("torn-batch");
        let path = dir.join(segment_file_name(0));
        let mut w = WalWriter::create(&path, 0, SyncPolicy::Never).unwrap();
        w.append(&LogicalOp::Tick).unwrap();
        let boundary = w.len();
        w.append_batch(&sample_ops()).unwrap();
        let full = w.len();
        drop(w);
        let original = std::fs::read(&path).unwrap();
        assert_eq!(original.len() as u64, full);

        for cut in boundary..full {
            std::fs::write(&path, &original[..cut as usize]).unwrap();
            let r = read_segment(&path, true).unwrap();
            assert_eq!(
                r.ops,
                vec![LogicalOp::Tick],
                "cut at {cut}: the torn batch must vanish whole"
            );
            assert_eq!(r.valid_len, boundary, "cut at {cut}");
            if cut == boundary {
                assert_eq!(r.tail, TailStatus::Clean);
            } else {
                assert!(matches!(r.tail, TailStatus::Truncated { .. }));
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_is_typed() {
        let dir = tempdir("magic");
        let path = dir.join("wal-0.log");
        std::fs::write(&path, b"NOTAWAL!\0\0\0\0\0\0\0\0").unwrap();
        assert!(matches!(
            read_segment(&path, true),
            Err(StorageError::BadMagic { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! Atomic checkpoint files holding one encoded [`SystemSnapshot`].
//!
//! Layout: the magic `"TDBCKPT6"`, then `seq: u64`, `len: u64`,
//! `crc32(payload): u32`, then the payload. The file is written to a
//! temporary sibling, fsynced, then renamed into place (and the directory
//! fsynced), so a crash during checkpointing leaves either the old world
//! or the new one — never a half-written file that validates.

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

use tdb_core::rules::Rule;
use tdb_core::SystemSnapshot;

use crate::codec::{decode_snapshot_with, encode_snapshot, first_n};
use crate::crc::crc32;
use crate::wal::sync_parent;
use crate::{Result, StorageError};

/// Magic string opening every checkpoint file. The trailing digit is the
/// payload format version: `2` added the residual node table (backref
/// dedup) and the parallel-dispatch counters to the stats block; `3` added
/// the delta-dispatch counters (sparse advances, adaptive demotions). The
/// worker pool's slots are still there, written as zero
/// ([`crate::codec::put_stats`]). `4` added each evaluator's aggregate
/// slots; a `3` file still reads, with none. `5` writes a carried history
/// state whose database equals the snapshot's as a back-reference
/// ([`crate::codec`]); `4` files still read, with every state inline. `6`
/// carries each registered rule's definition where `5` had its name; a
/// `5` file still reads, its names defined by a catalog.
pub const CKPT_MAGIC: &[u8; 8] = b"TDBCKPT6";

/// Bytes of checkpoint header (magic + seq + len + crc).
pub const CKPT_HEADER: usize = 8 + 8 + 8 + 4;

/// Name of checkpoint `seq` inside a storage directory.
pub fn checkpoint_file_name(seq: u64) -> String {
    format!("ckpt-{seq}.bin")
}

/// Parses `ckpt-<seq>.bin` back to `seq`.
pub fn parse_checkpoint_name(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?
        .strip_suffix(".bin")?
        .parse()
        .ok()
}

/// Writes checkpoint `seq` into `dir` atomically; returns the payload size
/// in bytes (the Theorem-1 footprint the bench reports on).
pub fn write_checkpoint(dir: &Path, seq: u64, snap: &SystemSnapshot) -> Result<u64> {
    write_checkpoint_with(dir, seq, snap, true)
}

/// [`write_checkpoint`] with an explicit durability switch. With `sync`
/// off, the temp-write/rename dance still guarantees no half-written file
/// ever validates, but nothing forces the bytes (or the rename) to disk —
/// the [`tdb_core::storage::SyncPolicy::Never`] contract, where crash
/// durability is only as strong as the page cache.
pub fn write_checkpoint_with(
    dir: &Path,
    seq: u64,
    snap: &SystemSnapshot,
    sync: bool,
) -> Result<u64> {
    let payload = encode_snapshot(snap);
    let mut bytes = Vec::with_capacity(CKPT_HEADER + payload.len());
    bytes.extend_from_slice(CKPT_MAGIC);
    bytes.extend_from_slice(&seq.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);

    let tmp = dir.join(format!(".ckpt-{seq}.tmp"));
    let done = dir.join(checkpoint_file_name(seq));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        if sync {
            f.sync_all()?;
        }
    }
    std::fs::rename(&tmp, &done)?;
    // Persist the rename itself.
    if sync {
        sync_parent(&done);
    }
    Ok(payload.len() as u64)
}

/// The fixed-size header of a checkpoint file.
struct Header {
    /// Payload layout version, from the magic's trailing digit.
    version: u8,
    seq: u64,
    len: u64,
    crc: u32,
}

fn parse_header(bytes: &[u8], display: &str) -> Result<Header> {
    if bytes.len() < CKPT_HEADER {
        return Err(StorageError::Corrupt {
            path: display.to_string(),
            why: format!(
                "checkpoint header needs {CKPT_HEADER} bytes, file has {}",
                bytes.len()
            ),
        });
    }
    let version = match &bytes[..8] {
        magic if magic == CKPT_MAGIC => 6,
        b"TDBCKPT5" => 5,
        b"TDBCKPT4" => 4,
        b"TDBCKPT3" => 3,
        _ => {
            return Err(StorageError::BadMagic {
                path: display.to_string(),
            })
        }
    };
    Ok(Header {
        version,
        seq: u64::from_le_bytes(first_n(&bytes[8..16])),
        len: u64::from_le_bytes(first_n(&bytes[16..24])),
        crc: u32::from_le_bytes(first_n(&bytes[24..28])),
    })
}

/// The payload length a checkpoint file's header promises, read without
/// the payload (the payload is not validated).
pub fn checkpoint_len(path: &Path) -> Result<u64> {
    let mut bytes = Vec::with_capacity(CKPT_HEADER);
    File::open(path)?
        .take(CKPT_HEADER as u64)
        .read_to_end(&mut bytes)?;
    Ok(parse_header(&bytes, &path.display().to_string())?.len)
}

/// Reads and validates one checkpoint file, returning its sequence number
/// and decoded snapshot. `catalog` defines the rules a `TDBCKPT3`–`5` file
/// names ([`crate::codec::legacy_rule`]); a name it lacks is
/// [`StorageError::Core`], not damage to the file.
pub fn read_checkpoint(path: &Path, catalog: &[Rule]) -> Result<(u64, SystemSnapshot)> {
    let display = path.display().to_string();
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;

    let Header {
        version,
        seq,
        len,
        crc,
    } = parse_header(&bytes, &display)?;
    let payload = &bytes[CKPT_HEADER..];
    if payload.len() as u64 != len {
        return Err(StorageError::Corrupt {
            path: display,
            why: format!("payload is {} bytes, header promises {len}", payload.len()),
        });
    }
    if crc32(payload) != crc {
        return Err(StorageError::ChecksumMismatch {
            path: display,
            offset: CKPT_HEADER as u64,
        });
    }
    Ok((seq, decode_snapshot_with(payload, version, catalog)?))
}

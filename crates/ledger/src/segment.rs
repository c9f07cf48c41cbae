//! Append-only segment files: the on-disk record log behind the durable ledger.
//!
//! A ledger directory holds a sorted sequence of segment files named
//! `seg-<first_block:020>.log`. Each file starts with an 8-byte magic plus the height of its
//! first block, followed by framed block records: `u32 payload length | u32 CRC-32 | payload`
//! (see [`crate::codec`]). Appends go to the newest segment until it reaches the configured
//! rotation size, then a fresh segment is started — so old segments are immutable and the
//! only file a crash can tear is the last one.
//!
//! Scanning applies the standard write-ahead-log tail rule: the first invalid record
//! (truncated frame, impossible length, CRC mismatch) in the *last* segment marks a torn
//! trailing write — everything from that offset on is dropped and physically truncated on
//! repair, never a panic. The same damage in any *earlier* segment cannot be a torn write
//! (earlier segments were sealed before later ones existed) and surfaces as a typed
//! [`LedgerError::CorruptRecord`].

use crate::block::Block;
use crate::codec::{self, ByteWriter};
use crate::error::LedgerError;
use std::fs;
use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every segment file (format version 1).
const SEGMENT_MAGIC: &[u8; 8] = b"EOVSEG01";
/// Bytes of segment header: magic + first-block height.
const HEADER_LEN: u64 = 16;
/// Sanity cap on a single record payload; a "length" above this in the tail is torn garbage.
const MAX_RECORD_LEN: u32 = 1 << 28;

/// Flushes a directory's entries to stable storage: a file created in or renamed into `dir`
/// survives a crash only once the directory itself is synced. Callers gate this on the fsync
/// knob — the fsync-off path never pays for it.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), LedgerError> {
    fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| LedgerError::io(dir, e))
}

/// Encodes `block` straight into its on-disk record, `u32 length | u32 CRC-32 | payload`.
/// A payload the scanner's sanity cap would read back as a torn tail is refused here, before
/// the caller commits to anything.
pub(crate) fn frame_record(block: &Block) -> Result<Vec<u8>, LedgerError> {
    let mut w = ByteWriter::new();
    w.put_u64(0);
    codec::encode_block(&mut w, block);
    codec::seal_frame(w, 0, "record", MAX_RECORD_LEN)
}

/// File name of the segment whose first block is `first_block` (zero-padded so the
/// lexicographic directory order is the numeric block order for any u64 height).
pub(crate) fn segment_file_name(first_block: u64) -> String {
    format!("seg-{first_block:020}.log")
}

/// A torn trailing write found while scanning the last segment: everything at or after
/// `valid_len` is dropped when the tail is repaired.
#[derive(Clone, Debug)]
pub struct TornTail {
    /// The segment file holding the torn record.
    pub segment: PathBuf,
    /// Bytes of the file that remain valid (the repair truncates to this length; `0` means
    /// even the header was torn and the whole file is removed).
    pub valid_len: u64,
    /// Bytes dropped by the repair.
    pub dropped_bytes: u64,
}

/// Result of scanning a ledger directory: the decoded blocks in order, the torn tail (if
/// any), and where the writer should resume.
pub(crate) struct SegmentScan {
    /// Every decoded block, in segment/record order. Chain rules are enforced by replay.
    pub blocks: Vec<Block>,
    /// Torn trailing record of the last segment, if one was found.
    pub torn: Option<TornTail>,
    /// The last segment and its valid length (post-repair), for the writer to resume into.
    /// `None` when the directory has no (surviving) segment.
    pub tail: Option<(PathBuf, u64)>,
    /// Number of segment files seen.
    pub segment_count: usize,
}

/// Lists the segment files of `dir` in block order.
fn segment_paths(dir: &Path) -> Result<Vec<PathBuf>, LedgerError> {
    let entries = fs::read_dir(dir).map_err(|e| LedgerError::io(dir, e))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| LedgerError::io(dir, e))?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("seg-") && name.ends_with(".log") {
            paths.push(path);
        }
    }
    // Zero-padded heights: lexicographic file-name order is numeric block order.
    paths.sort();
    Ok(paths)
}

/// Scans every segment of `dir`, decoding blocks and classifying damage (torn tail vs
/// corrupt record) per the module rules. The directory must exist.
pub(crate) fn scan_dir(dir: &Path) -> Result<SegmentScan, LedgerError> {
    let paths = segment_paths(dir)?;
    let segment_count = paths.len();
    let mut blocks: Vec<Block> = Vec::new();
    let mut torn: Option<TornTail> = None;
    let mut tail: Option<(PathBuf, u64)> = None;

    // One record's payload at a time, whatever the rotation size: the scan's memory is the
    // largest record, not the largest segment.
    let mut payload: Vec<u8> = Vec::new();
    for (index, path) in paths.iter().enumerate() {
        let is_last = index + 1 == segment_count;
        let io = |e| LedgerError::io(path, e);
        let file = fs::File::open(path).map_err(io)?;
        let file_len = file.metadata().map_err(io)?.len();
        let mut reader = BufReader::new(file);

        // Header: magic + first block height.
        let mut header = [0u8; HEADER_LEN as usize];
        let header_ok = file_len >= HEADER_LEN && {
            reader.read_exact(&mut header).map_err(io)?;
            &header[..8] == SEGMENT_MAGIC
        };
        if !header_ok {
            if is_last {
                torn = Some(TornTail {
                    segment: path.clone(),
                    valid_len: 0,
                    dropped_bytes: file_len,
                });
                break;
            }
            return Err(LedgerError::CorruptRecord {
                segment: path.clone(),
                offset: 0,
                detail: "missing or invalid segment header".into(),
            });
        }
        let first_block = u64::from_be_bytes(header[8..16].try_into().unwrap());
        let expected_first = blocks.last().map(|b| b.number() + 1).unwrap_or(first_block);
        if first_block != expected_first {
            return Err(LedgerError::CorruptRecord {
                segment: path.clone(),
                offset: 8,
                detail: format!(
                    "segment claims first block {first_block}, expected {expected_first}"
                ),
            });
        }

        let mut offset = HEADER_LEN;
        while offset < file_len {
            let remaining = file_len - offset;
            let frame_ok = remaining >= 8;
            let (len, stored_crc) = if frame_ok {
                let mut frame = [0u8; 8];
                reader.read_exact(&mut frame).map_err(io)?;
                (
                    u32::from_be_bytes(frame[..4].try_into().unwrap()),
                    u32::from_be_bytes(frame[4..].try_into().unwrap()),
                )
            } else {
                (0, 0)
            };
            let payload_ok = frame_ok && len <= MAX_RECORD_LEN && remaining - 8 >= len as u64;
            let crc_ok = payload_ok && {
                payload.resize(len as usize, 0);
                reader.read_exact(&mut payload).map_err(io)?;
                codec::crc32(&payload) == stored_crc
            };
            if !crc_ok {
                let detail = if !frame_ok {
                    "incomplete record frame"
                } else if !payload_ok {
                    "record length exceeds remaining bytes"
                } else {
                    "CRC mismatch"
                };
                if is_last {
                    torn = Some(TornTail {
                        segment: path.clone(),
                        valid_len: offset,
                        dropped_bytes: file_len - offset,
                    });
                    break;
                }
                return Err(LedgerError::CorruptRecord {
                    segment: path.clone(),
                    offset,
                    detail: detail.into(),
                });
            }
            // CRC-valid bytes that fail structural decoding are corruption (or a format bug),
            // never a torn write — typed error regardless of position.
            let block =
                codec::decode_block(&payload).map_err(|detail| LedgerError::CorruptRecord {
                    segment: path.clone(),
                    offset,
                    detail,
                })?;
            blocks.push(block);
            offset += 8 + len as u64;
        }

        if is_last {
            let surviving_len = match &torn {
                Some(t) => t.valid_len,
                None => file_len,
            };
            // A tail torn before the header survives as no file at all.
            tail = (surviving_len >= HEADER_LEN).then(|| (path.clone(), surviving_len));
        }
    }

    Ok(SegmentScan {
        blocks,
        torn,
        tail,
        segment_count,
    })
}

/// Physically repairs a torn tail: truncates the segment to its valid length, or removes the
/// file entirely when even the header was torn.
pub(crate) fn repair_torn_tail(torn: &TornTail) -> Result<(), LedgerError> {
    if torn.valid_len >= HEADER_LEN {
        let file = fs::OpenOptions::new()
            .write(true)
            .open(&torn.segment)
            .map_err(|e| LedgerError::io(&torn.segment, e))?;
        file.set_len(torn.valid_len)
            .map_err(|e| LedgerError::io(&torn.segment, e))?;
    } else {
        fs::remove_file(&torn.segment).map_err(|e| LedgerError::io(&torn.segment, e))?;
    }
    Ok(())
}

/// The appending half: writes framed records into the newest segment, rotating to a fresh
/// file once the current one reaches `rotate_bytes`.
#[derive(Debug)]
pub(crate) struct SegmentWriter {
    dir: PathBuf,
    rotate_bytes: u64,
    fsync: bool,
    /// The open tail segment and its current length, if any.
    current: Option<(fs::File, PathBuf, u64)>,
}

impl SegmentWriter {
    /// A writer over `dir`, resuming into `tail` (the scan's post-repair tail segment).
    pub fn resume(
        dir: &Path,
        rotate_bytes: u64,
        fsync: bool,
        tail: Option<(PathBuf, u64)>,
    ) -> Result<Self, LedgerError> {
        let current = match tail {
            None => None,
            Some((path, len)) => {
                let file = fs::OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .map_err(|e| LedgerError::io(&path, e))?;
                Some((file, path, len))
            }
        };
        Ok(SegmentWriter {
            dir: dir.to_path_buf(),
            rotate_bytes: rotate_bytes.max(1),
            fsync,
            current,
        })
    }

    /// Appends one record (as framed by [`frame_record`]), rotating first if the tail segment
    /// is full.
    pub fn append(&mut self, block_number: u64, record: &[u8]) -> Result<(), LedgerError> {
        let needs_rotation = match &self.current {
            None => true,
            Some((_, _, len)) => *len >= self.rotate_bytes,
        };
        if needs_rotation {
            let path = self.dir.join(segment_file_name(block_number));
            let mut file = fs::OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(&path)
                .map_err(|e| LedgerError::io(&path, e))?;
            let mut header = Vec::with_capacity(HEADER_LEN as usize);
            header.extend_from_slice(SEGMENT_MAGIC);
            header.extend_from_slice(&block_number.to_be_bytes());
            file.write_all(&header)
                .map_err(|e| LedgerError::io(&path, e))?;
            if self.fsync {
                // The record's own `sync_data` below covers the file; its directory entry
                // needs the directory.
                sync_dir(&self.dir)?;
            }
            self.current = Some((file, path, HEADER_LEN));
        }
        let (file, path, len) = self.current.as_mut().expect("rotation installs a segment");
        file.write_all(record)
            .map_err(|e| LedgerError::io(&*path, e))?;
        if self.fsync {
            file.sync_data().map_err(|e| LedgerError::io(&*path, e))?;
        }
        *len += record.len() as u64;
        Ok(())
    }

    /// Number of bytes in the current tail segment (diagnostics/tests).
    pub fn tail_len(&self) -> u64 {
        self.current.as_ref().map(|(_, _, len)| *len).unwrap_or(0)
    }
}

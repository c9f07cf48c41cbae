//! Append-only segment files: the on-disk record log behind the durable ledger.
//!
//! A ledger directory holds a sequence of segment files named `seg-<first_block:020>.log`:
//!
//! ```text
//! segment = "EOVSEG03" | frame*
//! frame   = u32 payload length | u32 CRC-32(payload) | payload    — one block record
//! ```
//!
//! The payload is a block record (see [`crate::codec`]); its data hash covers every byte of it
//! but the status trailer, which only the frame's CRC covers. The file name is the one place a
//! segment's first block is stated, and the scan checks it against the segment's first record.
//! Appends go to the newest segment until it reaches the configured rotation size, then a
//! fresh segment is started — so old segments are immutable and the only file a crash can
//! tear is the last one. A segment carrying another magic is refused, not read, and the
//! refusal names the header found (`EOVSEG01` or `EOVSEG02`, the previous formats).
//!
//! Scanning applies the standard write-ahead-log tail rule: the first invalid record
//! (truncated frame, impossible length, CRC mismatch) in the *last* segment marks a torn
//! trailing write — everything from that offset on is dropped and physically truncated on
//! repair, never a panic; a last segment left without a record (torn before its first record
//! landed, or shorter than its header) is removed. The same damage in any *earlier* segment
//! cannot be a torn write (earlier segments were sealed before later ones existed) and
//! surfaces as a typed [`LedgerError::CorruptRecord`], as does a whole header that is not
//! `EOVSEG03` with bytes behind it, wherever it is: a crash cannot write one.
//!
//! A record write that fails part-way is cut back off the segment before the error returns,
//! so the next append lands where the failed one began; a segment that cannot be cut back
//! refuses every later append ([`LedgerError::WriterPoisoned`]). Once appended, a record
//! never moves: [`RecordAt`] names it for as long as the directory exists, which is how the
//! durable ledger reads evicted blocks back ([`read_record`]).

use crate::block::Block;
use crate::codec::{self, ByteWriter};
use crate::error::LedgerError;
use crate::sha256::Digest;
use std::fs;
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every segment file (format version 3).
const SEGMENT_MAGIC: &[u8; 8] = b"EOVSEG03";
/// Bytes of segment header: the magic alone.
const HEADER_LEN: u64 = 8;
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

/// `block`'s record behind room for its frame, and the hash of the record's body: the data
/// hash its header must carry. [`seal_record`] completes the frame.
pub(crate) fn encode_record(block: &Block) -> (ByteWriter, Digest) {
    let mut w = ByteWriter::new();
    w.put_u64(0);
    let body_hash = codec::encode_block(&mut w, block);
    (w, body_hash)
}

/// Frames a record [`encode_record`] made, `u32 length | u32 CRC-32 | payload`. A payload the
/// scanner's sanity cap would read back as a torn tail is refused here, before the caller
/// commits to anything.
pub(crate) fn seal_record(w: ByteWriter) -> Result<Vec<u8>, LedgerError> {
    codec::seal_frame(w, 0, "record", MAX_RECORD_LEN)
}

/// File name of the segment whose first block is `first_block` (zero-padded so the
/// lexicographic directory order is the numeric block order for any u64 height).
pub(crate) fn segment_file_name(first_block: u64) -> String {
    format!("seg-{first_block:020}.log")
}

/// The first block a segment file name states, if it is one [`segment_file_name`] makes.
fn first_block_in_name(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let first_block = name
        .strip_prefix("seg-")?
        .strip_suffix(".log")?
        .parse()
        .ok()?;
    (segment_file_name(first_block) == name).then_some(first_block)
}

/// Where one record sits: the segment holding it (named by its first block) and the byte
/// offset of its frame in that file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RecordAt {
    /// First block of the segment file.
    pub(crate) segment: u64,
    /// Offset of the record's `length | CRC` frame.
    pub(crate) offset: u64,
}

/// Reads back the CRC-checked payload of the record at `at` in the segment directory `dir`.
pub(crate) fn read_record(dir: &Path, at: RecordAt) -> Result<Vec<u8>, LedgerError> {
    let path = dir.join(segment_file_name(at.segment));
    let io = |e| LedgerError::io(&path, e);
    let corrupt = |detail: &str| LedgerError::CorruptRecord {
        segment: path.clone(),
        offset: at.offset,
        detail: detail.into(),
    };
    let mut file = fs::File::open(&path).map_err(io)?;
    let file_len = file.metadata().map_err(io)?.len();
    file.seek(SeekFrom::Start(at.offset)).map_err(io)?;
    let mut frame = [0u8; 8];
    file.read_exact(&mut frame)
        .map_err(|_| corrupt("incomplete record frame"))?;
    let len = u32::from_be_bytes(frame[..4].try_into().unwrap());
    let stored_crc = u32::from_be_bytes(frame[4..].try_into().unwrap());
    if len > MAX_RECORD_LEN || at.offset + 8 + len as u64 > file_len {
        return Err(corrupt("record length exceeds remaining bytes"));
    }
    let mut payload = vec![0u8; len as usize];
    file.read_exact(&mut payload).map_err(io)?;
    if codec::crc32(&payload) != stored_crc {
        return Err(corrupt("CRC mismatch"));
    }
    Ok(payload)
}

/// A torn trailing write found while scanning the last segment: everything at or after
/// `valid_len` is dropped when the tail is repaired.
#[derive(Clone, Debug)]
pub struct TornTail {
    /// The segment file holding the torn record.
    pub(crate) segment: PathBuf,
    /// Bytes of the file that remain valid (the repair truncates to this length; `0` means
    /// no record survives and the whole file is removed).
    pub(crate) valid_len: u64,
    /// Bytes dropped by the repair.
    pub dropped_bytes: u64,
}

/// Result of scanning a ledger directory: the torn tail (if any) and where the writer should
/// resume. The records themselves went to the scan's visitor.
pub(crate) struct SegmentScan {
    /// Torn trailing record of the last segment, if one was found.
    pub(crate) torn: Option<TornTail>,
    /// The last segment as it survives the repair, for the writer to resume into. `None` when
    /// the directory has no (surviving) segment.
    pub(crate) tail: Option<TailSegment>,
    /// Number of segment files seen.
    pub(crate) segment_count: usize,
}

/// The last segment of a directory: its file, first block and valid length.
pub(crate) struct TailSegment {
    pub(crate) path: PathBuf,
    pub(crate) first_block: u64,
    pub(crate) len: u64,
}

/// Lists the segment files of `dir` with their first blocks, in block order.
fn segment_paths(dir: &Path) -> Result<Vec<(u64, PathBuf)>, LedgerError> {
    let entries = fs::read_dir(dir).map_err(|e| LedgerError::io(dir, e))?;
    let mut paths: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| LedgerError::io(dir, e))?.path();
        if let Some(first_block) = first_block_in_name(&path) {
            paths.push((first_block, path));
        }
    }
    paths.sort();
    Ok(paths)
}

/// Scans every segment of `dir`, classifying damage (torn tail vs corrupt record) per the
/// module rules and handing every CRC-valid record to `visit` in log order: the segment file,
/// where the record sits, and its payload. `visit` checks that each record follows the one
/// before it and returns its block height, which for a segment's first record must be the
/// height in the file name, or the error that ends the scan. The directory must exist.
pub(crate) fn scan_dir(
    dir: &Path,
    mut visit: impl FnMut(&Path, RecordAt, &[u8]) -> Result<u64, LedgerError>,
) -> Result<SegmentScan, LedgerError> {
    let paths = segment_paths(dir)?;
    let segment_count = paths.len();
    let mut torn: Option<TornTail> = None;
    let mut tail: Option<TailSegment> = None;

    // One record's payload at a time, whatever the rotation size: the scan's memory is the
    // largest record, not the largest segment.
    let mut payload: Vec<u8> = Vec::new();
    for (index, &(first_block, ref path)) in paths.iter().enumerate() {
        let is_last = index + 1 == segment_count;
        let io = |e| LedgerError::io(path, e);
        let corrupt = |offset, detail: String| LedgerError::CorruptRecord {
            segment: path.clone(),
            offset,
            detail,
        };
        let file = fs::File::open(path).map_err(io)?;
        let file_len = file.metadata().map_err(io)?.len();
        let mut reader = BufReader::new(file);

        // A header with nothing behind it holds no record, whatever its bytes: as the last
        // segment, a rotation torn before its first record landed.
        if file_len <= HEADER_LEN {
            if is_last {
                torn = Some(TornTail {
                    segment: path.clone(),
                    valid_len: 0,
                    dropped_bytes: file_len,
                });
                break;
            }
            return Err(corrupt(0, "segment holds no record".into()));
        }
        // Bytes follow the header, so a header that does not match is no torn write.
        let mut magic = [0u8; HEADER_LEN as usize];
        reader.read_exact(&mut magic).map_err(io)?;
        if &magic != SEGMENT_MAGIC {
            // Another format's magic is printable and names itself.
            let found = match magic.iter().all(u8::is_ascii_graphic) {
                true => String::from_utf8_lossy(&magic).into_owned(),
                false => format!("{magic:02x?}"),
            };
            let expected = String::from_utf8_lossy(SEGMENT_MAGIC);
            let detail =
                format!("invalid segment header {found}: this reader reads {expected} only");
            return Err(corrupt(0, detail));
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
                    // A segment whose first record is torn keeps no record: it goes whole.
                    let valid_len = if offset > HEADER_LEN { offset } else { 0 };
                    torn = Some(TornTail {
                        segment: path.clone(),
                        valid_len,
                        dropped_bytes: file_len - valid_len,
                    });
                    break;
                }
                return Err(corrupt(offset, detail.into()));
            }
            // CRC-valid bytes that fail structural decoding are corruption (or a format bug),
            // never a torn write: the visitor's typed error ends the scan wherever it is.
            let at = RecordAt {
                segment: first_block,
                offset,
            };
            let number = visit(path, at, &payload)?;
            if offset == HEADER_LEN && number != first_block {
                return Err(corrupt(
                    offset,
                    format!("segment named for block {first_block} starts with block {number}"),
                ));
            }
            offset += 8 + len as u64;
        }

        if is_last {
            let surviving_len = torn.as_ref().map_or(file_len, |t| t.valid_len);
            tail = (surviving_len > 0).then(|| TailSegment {
                path: path.clone(),
                first_block,
                len: surviving_len,
            });
        }
    }

    Ok(SegmentScan {
        torn,
        tail,
        segment_count,
    })
}

/// Physically repairs a torn tail: truncates the segment to its valid length, or removes the
/// file entirely when no record of it survives.
pub(crate) fn repair_torn_tail(torn: &TornTail) -> Result<(), LedgerError> {
    if torn.valid_len > 0 {
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
    /// The open tail segment, if any.
    current: Option<OpenSegment>,
    /// Set when a failed append left bytes behind that could not be cut back off: every later
    /// append is refused with it.
    poisoned: Option<LedgerError>,
    /// Test-only fault injection: bytes the writer may still write before a write fails.
    #[cfg(test)]
    pub(crate) write_budget: Option<u64>,
    /// Test-only fault injection: cutting a failed record back off fails too.
    #[cfg(test)]
    pub(crate) fail_truncate: bool,
}

/// The segment appends go to.
#[derive(Debug)]
struct OpenSegment {
    file: fs::File,
    path: PathBuf,
    first_block: u64,
    /// Bytes of whole records (and header) in the file.
    len: u64,
}

impl SegmentWriter {
    /// A writer over `dir`, resuming into `tail` (the scan's post-repair tail segment).
    pub(crate) fn resume(
        dir: &Path,
        rotate_bytes: u64,
        fsync: bool,
        tail: Option<TailSegment>,
    ) -> Result<Self, LedgerError> {
        let current = match tail {
            None => None,
            Some(TailSegment {
                path,
                first_block,
                len,
            }) => {
                let file = fs::OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .map_err(|e| LedgerError::io(&path, e))?;
                Some(OpenSegment {
                    file,
                    path,
                    first_block,
                    len,
                })
            }
        };
        Ok(SegmentWriter {
            dir: dir.to_path_buf(),
            rotate_bytes: rotate_bytes.max(1),
            fsync,
            current,
            poisoned: None,
            #[cfg(test)]
            write_budget: None,
            #[cfg(test)]
            fail_truncate: false,
        })
    }

    /// Appends one record (as framed by [`seal_record`]), rotating first if the tail segment
    /// is full, and returns where it landed. A write that fails part-way is cut back off, so
    /// the segment ends at its last whole record again.
    pub(crate) fn append(
        &mut self,
        block_number: u64,
        record: &[u8],
    ) -> Result<RecordAt, LedgerError> {
        if let Some(poisoned) = &self.poisoned {
            return Err(poisoned.clone());
        }
        // A segment holding no record yet takes the next one whatever the rotation size: it
        // was made for that block, and a new file for it would take its name.
        let needs_rotation = match &self.current {
            None => true,
            Some(segment) => segment.len > HEADER_LEN && segment.len >= self.rotate_bytes,
        };
        if needs_rotation {
            let path = self.dir.join(segment_file_name(block_number));
            let mut file = fs::OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(&path)
                .map_err(|e| LedgerError::io(&path, e))?;
            file.write_all(SEGMENT_MAGIC)
                .map_err(|e| LedgerError::io(&path, e))?;
            if self.fsync {
                // The record's own `sync_data` below covers the file; its directory entry
                // needs the directory.
                sync_dir(&self.dir)?;
            }
            self.current = Some(OpenSegment {
                file,
                path,
                first_block: block_number,
                len: HEADER_LEN,
            });
        }
        let written = self.write_record(record);
        let segment = self.current.as_mut().expect("rotation installs a segment");
        if let Err(e) = written {
            // Bytes of a failed write may have reached the file. Left there, the next record
            // would land behind them and reopen as torn garbage, taking every later record
            // with it: cut the file back to its last whole record first.
            #[cfg(test)]
            let truncated = if self.fail_truncate {
                Err(std::io::Error::other("injected truncate failure"))
            } else {
                segment.file.set_len(segment.len)
            };
            #[cfg(not(test))]
            let truncated = segment.file.set_len(segment.len);
            if let Err(cut) = truncated {
                self.poisoned = Some(LedgerError::WriterPoisoned {
                    segment: segment.path.clone(),
                    valid_len: segment.len,
                    detail: cut.to_string(),
                });
            }
            return Err(LedgerError::io(&segment.path, e));
        }
        let at = RecordAt {
            segment: segment.first_block,
            offset: segment.len,
        };
        segment.len += record.len() as u64;
        Ok(at)
    }

    /// Writes (and, with fsync on, syncs) `record` at the end of the current segment.
    fn write_record(&mut self, record: &[u8]) -> std::io::Result<()> {
        let segment = self.current.as_mut().expect("rotation installs a segment");
        #[cfg(test)]
        if let Some(budget) = self.write_budget.as_mut() {
            if (record.len() as u64) > *budget {
                let allowed = *budget as usize;
                *budget = 0;
                segment.file.write_all(&record[..allowed])?;
                return Err(std::io::Error::other("injected short write"));
            }
            *budget -= record.len() as u64;
        }
        segment.file.write_all(record)?;
        if self.fsync {
            segment.file.sync_data()?;
        }
        Ok(())
    }

    /// Number of bytes in the current tail segment.
    #[cfg(test)]
    pub(crate) fn tail_len(&self) -> u64 {
        self.current.as_ref().map_or(0, |segment| segment.len)
    }
}

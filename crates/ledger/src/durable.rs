//! The durable ledger: segment-file persistence behind the in-memory reference [`Ledger`].
//!
//! [`DurableLedger`] couples an append-only segment log (see `segment`) with a
//! [`Ledger`] mirror that enforces the chain rules. Every append encodes the block's record
//! once and validates it against the mirror, the data hash against the record's own body: a
//! block that violates no-skipping, the hash link or body integrity is rejected *before* any
//! byte reaches disk. Then that buffer is CRC-framed and written.
//!
//! The mirror keeps only its live window decoded: the last `DurableOptions::window` blocks
//! (`CcConfig::max_span`, all the concurrency control ever looks back on, Section 4.6). Older
//! heights keep their header, commit counts and record position, and [`Ledger::block`] reads
//! their bodies back from the segments on demand.
//!
//! Opening a directory walks every record once without building a block: CRC, every field,
//! the data hash (of the body slice just parsed), the height and the `prev_hash` link are
//! checked exactly as decoding and appending would check them, and cold recovery
//! ([`crate::recover_from_disk`]) hands the committed writes to a store on the way. Only the
//! window is decoded. A torn trailing record (the only damage a crash mid-append can cause) is
//! repaired by physical truncation; everything else is a typed [`LedgerError`].
//!
//! [`LedgerBackend`] keeps the in-memory [`Ledger`] as the zero-cost reference: callers that
//! never configure a directory pay nothing, and every read goes through the same `Ledger`
//! surface either way.

use crate::chain::{walk_record, Ledger, RecordFault};
use crate::error::LedgerError;
use crate::segment::{self, SegmentWriter, TornTail};
use crate::Block;
use eov_common::config::CcConfig;
use eov_vstore::MultiVersionStore;
use std::path::{Path, PathBuf};

/// Tuning for the segment log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DurableOptions {
    /// Rotate to a fresh segment file once the current one reaches this many bytes.
    pub(crate) rotate_bytes: u64,
    /// Fsync after every append (see `CcConfig::durable_fsync`).
    pub(crate) fsync: bool,
    /// Blocks the mirror keeps decoded, counting back from the tip (`CcConfig::max_span`).
    pub(crate) window: u64,
}

impl Default for DurableOptions {
    fn default() -> Self {
        Self::from_cc_config(&CcConfig::default())
    }
}

impl DurableOptions {
    /// The durability knobs carried by a [`CcConfig`], and its `max_span` as the window.
    pub fn from_cc_config(config: &CcConfig) -> Self {
        DurableOptions {
            rotate_bytes: config.segment_rotate_kib as u64 * 1024,
            fsync: config.durable_fsync,
            window: config.max_span,
        }
    }
}

/// What [`DurableLedger::open`] found on disk.
#[derive(Clone, Debug, Default)]
pub struct OpenReport {
    /// Blocks recovered from the segment files (the mirror's height after open).
    pub blocks_recovered: u64,
    /// Segment files scanned.
    pub segments: usize,
    /// The torn trailing record that was truncated away, if any.
    pub torn: Option<TornTail>,
}

/// A hash-chained ledger persisted as CRC-framed records in rotating segment files.
#[derive(Debug)]
pub struct DurableLedger {
    dir: PathBuf,
    mirror: Ledger,
    writer: SegmentWriter,
    window: u64,
}

impl DurableLedger {
    /// Opens (or creates) the ledger directory, walking its segments into a fresh mirror. A
    /// torn trailing record is truncated — physically — and reported; any other damage
    /// (mid-log CRC failure, unparseable record, broken chain link) is a typed error.
    pub fn open(
        dir: impl AsRef<Path>,
        options: DurableOptions,
    ) -> Result<(Self, OpenReport), LedgerError> {
        Self::open_inner(dir.as_ref(), options, None)
    }

    /// [`Self::open`], applying the committed writes of every block above
    /// `store.last_block()` to `store` as the walk passes them: cold recovery's replay onto a
    /// checkpoint, without decoding a block. On an error the store is left part-way.
    pub(crate) fn open_replaying(
        dir: impl AsRef<Path>,
        options: DurableOptions,
        store: &mut MultiVersionStore,
    ) -> Result<(Self, OpenReport), LedgerError> {
        Self::open_inner(dir.as_ref(), options, Some(store))
    }

    fn open_inner(
        dir: &Path,
        options: DurableOptions,
        mut replay: Option<&mut MultiVersionStore>,
    ) -> Result<(Self, OpenReport), LedgerError> {
        std::fs::create_dir_all(dir).map_err(|e| LedgerError::io(dir, e))?;
        let mut mirror = Ledger::on_segments(dir);
        let scan = segment::scan_dir(dir, |path, at, payload| {
            let number = mirror.height() + 1;
            let walked = walk_record(payload, number, mirror.tip_hash(), replay.as_deref_mut())
                .map_err(|fault| match fault {
                    RecordFault::Malformed(detail) => LedgerError::CorruptRecord {
                        segment: path.to_path_buf(),
                        offset: at.offset,
                        detail,
                    },
                    RecordFault::Chain(e) => LedgerError::Chain(e),
                })?;
            mirror.push_walked(walked, at);
            Ok(number)
        })?;
        if let Some(torn) = &scan.torn {
            segment::repair_torn_tail(torn)?;
        }
        let height = mirror.height();
        for number in height.saturating_sub(options.window) + 1..=height {
            mirror.block(number)?;
        }
        let writer = SegmentWriter::resume(dir, options.rotate_bytes, options.fsync, scan.tail)?;
        let report = OpenReport {
            blocks_recovered: height,
            segments: scan.segment_count,
            torn: scan.torn,
        };
        Ok((
            DurableLedger {
                dir: dir.to_path_buf(),
                mirror,
                writer,
                window: options.window,
            },
            report,
        ))
    }

    /// Appends a block: encoded once and chain-validated against the mirror (its body hashed
    /// from the record), then framed and written (rotating segments as configured), and only
    /// once the write succeeded pushed into the mirror — a failed write leaves the height where
    /// it was. The block leaving the live window is evicted.
    pub fn append(&mut self, block: Block) -> Result<(), LedgerError> {
        let (record, body_hash) = segment::encode_record(&block);
        self.mirror.check_next(&block, body_hash)?;
        let record = segment::seal_record(record)?;
        let at = self.writer.append(block.number(), &record)?;
        self.mirror.push_checked(block, Some(at));
        if let Some(leaving) = self.mirror.height().checked_sub(self.window) {
            self.mirror.evict(leaving);
        }
        Ok(())
    }

    /// The mirror: the authoritative read surface over everything appended (evicted blocks
    /// are read back from the segments).
    pub fn ledger(&self) -> &Ledger {
        &self.mirror
    }

    /// The directory holding the segment files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Height of the last appended block.
    pub fn height(&self) -> u64 {
        self.mirror.height()
    }
}

/// The ledger behind the engine: the in-memory reference, or the segment-backed store of
/// record. Reads always go through the same [`Ledger`] surface via [`Self::as_ledger`].
#[derive(Debug)]
pub enum LedgerBackend {
    /// The in-memory reference ledger (no persistence).
    Memory(Ledger),
    /// The durable segment-file ledger.
    Durable(DurableLedger),
}

impl LedgerBackend {
    /// An empty in-memory backend.
    pub fn memory() -> Self {
        LedgerBackend::Memory(Ledger::new())
    }

    /// Opens a durable backend over `dir` (see [`DurableLedger::open`]).
    pub fn durable(
        dir: impl AsRef<Path>,
        options: DurableOptions,
    ) -> Result<(Self, OpenReport), LedgerError> {
        let (ledger, report) = DurableLedger::open(dir, options)?;
        Ok((LedgerBackend::Durable(ledger), report))
    }

    /// Appends a block to whichever backend is active.
    pub fn append(&mut self, block: Block) -> Result<(), LedgerError> {
        match self {
            LedgerBackend::Memory(ledger) => ledger.append(block).map_err(LedgerError::Chain),
            LedgerBackend::Durable(ledger) => ledger.append(block),
        }
    }

    /// The in-memory view of the chain (the ledger itself, or the durable mirror).
    pub fn as_ledger(&self) -> &Ledger {
        match self {
            LedgerBackend::Memory(ledger) => ledger,
            LedgerBackend::Durable(ledger) => ledger.ledger(),
        }
    }

    /// Height of the last appended block.
    pub fn height(&self) -> u64 {
        self.as_ledger().height()
    }

    /// Unwraps into the in-memory view: the ledger itself, or a clone of the durable mirror
    /// (the segment files stay on disk untouched, and the clone reads evicted blocks from
    /// them).
    pub fn into_ledger(self) -> Ledger {
        match self {
            LedgerBackend::Memory(ledger) => ledger,
            LedgerBackend::Durable(ledger) => ledger.ledger().clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::Digest;
    use eov_common::abort::AbortReason;
    use eov_common::error::CommonError;
    use eov_common::rwset::{Key, Value};
    use eov_common::txn::{Transaction, TxnStatus};
    use eov_common::version::SeqNo;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "eov-durable-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn block_at(number: u64, prev: Digest) -> Block {
        let txn = Transaction::from_parts(
            number * 100,
            number.saturating_sub(1),
            [(Key::new("A"), SeqNo::new(0, 1))],
            [(
                Key::new(format!("K{number}")),
                Value::from_i64(number as i64),
            )],
        );
        let mut block = Block::build(number, prev, vec![txn]);
        block.entries[0].status = TxnStatus::Committed;
        block
    }

    fn fill(ledger: &mut DurableLedger, blocks: u64) {
        for _ in 0..blocks {
            let number = ledger.height() + 1;
            let block = block_at(number, ledger.ledger().tip_hash());
            ledger.append(block).expect("append");
        }
    }

    #[test]
    fn reopen_recovers_every_block_bit_identically() {
        let dir = temp_dir("reopen");
        let tip = {
            let (mut ledger, report) =
                DurableLedger::open(&dir, DurableOptions::default()).unwrap();
            assert_eq!(report.blocks_recovered, 0);
            fill(&mut ledger, 8);
            ledger.ledger().tip_hash()
        };
        let (ledger, report) = DurableLedger::open(&dir, DurableOptions::default()).unwrap();
        assert_eq!(report.blocks_recovered, 8);
        assert!(report.torn.is_none());
        assert_eq!(ledger.height(), 8);
        assert_eq!(ledger.ledger().tip_hash(), tip);
        assert!(ledger.ledger().verify_integrity().is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn small_rotation_size_spreads_blocks_over_many_segments() {
        // fsync on additionally syncs each new segment's directory entry: same files.
        for fsync in [false, true] {
            let dir = temp_dir(if fsync { "rotate-sync" } else { "rotate" });
            let options = DurableOptions {
                rotate_bytes: 256,
                fsync,
                ..DurableOptions::default()
            };
            {
                let (mut ledger, _) = DurableLedger::open(&dir, options).unwrap();
                fill(&mut ledger, 10);
            }
            let (ledger, report) = DurableLedger::open(&dir, options).unwrap();
            assert!(report.segments > 1, "expected rotation, got 1 segment");
            assert_eq!(ledger.height(), 10);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn append_after_reopen_continues_the_chain() {
        let dir = temp_dir("resume");
        {
            let (mut ledger, _) = DurableLedger::open(&dir, DurableOptions::default()).unwrap();
            fill(&mut ledger, 3);
        }
        {
            let (mut ledger, _) = DurableLedger::open(&dir, DurableOptions::default()).unwrap();
            fill(&mut ledger, 3);
            assert_eq!(ledger.height(), 6);
        }
        let (ledger, _) = DurableLedger::open(&dir, DurableOptions::default()).unwrap();
        assert_eq!(ledger.height(), 6);
        assert!(ledger.ledger().verify_integrity().is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_sequence_append_is_rejected_before_touching_disk() {
        let dir = temp_dir("reject");
        let (mut ledger, _) = DurableLedger::open(&dir, DurableOptions::default()).unwrap();
        fill(&mut ledger, 2);
        let tail_before = ledger.writer.tail_len();
        let skipped = block_at(9, ledger.ledger().tip_hash());
        let err = ledger.append(skipped).unwrap_err();
        assert!(matches!(err, LedgerError::Chain(_)), "got {err}");
        assert_eq!(ledger.writer.tail_len(), tail_before, "disk was touched");
        assert_eq!(ledger.height(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_write_leaves_the_height_and_the_directory_intact() {
        let dir = temp_dir("failed-write");
        let options = DurableOptions {
            rotate_bytes: 1,
            fsync: false,
            ..DurableOptions::default()
        };
        let (mut ledger, _) = DurableLedger::open(&dir, options).unwrap();
        fill(&mut ledger, 3);
        // Every append rotates; a directory squatting on the next segment's name makes the
        // rotation's `create_new` fail.
        let squatter = dir.join(segment::segment_file_name(4));
        std::fs::create_dir(&squatter).unwrap();
        let err = ledger
            .append(block_at(4, ledger.ledger().tip_hash()))
            .unwrap_err();
        assert!(matches!(err, LedgerError::Io { .. }), "got {err}");
        assert_eq!(ledger.height(), 3);

        std::fs::remove_dir(&squatter).unwrap();
        fill(&mut ledger, 2);
        let tip = ledger.ledger().tip_hash();
        drop(ledger);
        let (ledger, report) = DurableLedger::open(&dir, options).unwrap();
        assert_eq!(report.blocks_recovered, 5);
        assert_eq!(ledger.ledger().tip_hash(), tip);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn backend_enum_dispatches_both_ways() {
        let dir = temp_dir("backend");
        let mut memory = LedgerBackend::memory();
        let (mut durable, _) = LedgerBackend::durable(&dir, DurableOptions::default()).unwrap();
        for backend in [&mut memory, &mut durable] {
            let block = block_at(1, Digest::ZERO);
            backend.append(block).unwrap();
            assert_eq!(backend.height(), 1);
        }
        assert_eq!(
            memory.as_ledger().tip_hash(),
            durable.as_ledger().tip_hash()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every record of `dir` in log order: its segment, frame offset and payload length.
    fn records(dir: &Path) -> Vec<(PathBuf, u64, usize)> {
        let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "log"))
            .collect();
        segments.sort();
        let mut found = Vec::new();
        for path in segments {
            let bytes = std::fs::read(&path).unwrap();
            // Records start behind the 8-byte magic.
            let mut at = 8;
            while at + 8 <= bytes.len() {
                let len = u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
                found.push((path.clone(), at as u64, len));
                at += 8 + len;
            }
        }
        found
    }

    /// Overwrites payload bytes (positions taken modulo the payload length) of the record at
    /// `offset` in `segment` and recomputes its CRC, so the damage gets past the frame check.
    fn damage_record(
        segment: &Path,
        offset: u64,
        overwrites: impl IntoIterator<Item = (usize, u8)>,
    ) {
        let mut bytes = std::fs::read(segment).unwrap();
        let at = offset as usize;
        let len = u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let payload = &mut bytes[at + 8..at + 8 + len];
        for (i, byte) in overwrites {
            payload[i % len] = byte;
        }
        let crc = crate::codec::crc32(payload);
        bytes[at + 4..at + 8].copy_from_slice(&crc.to_be_bytes());
        std::fs::write(segment, bytes).unwrap();
    }

    #[test]
    fn the_mirror_keeps_only_the_window_decoded_and_reads_the_rest_back() {
        let dir = temp_dir("window");
        let options = DurableOptions {
            rotate_bytes: 512,
            fsync: false,
            window: 4,
        };
        let (mut ledger, _) = DurableLedger::open(&dir, options).unwrap();
        let mut appended = Vec::new();
        for number in 1..=3 * options.window {
            let block = block_at(number, ledger.ledger().tip_hash());
            appended.push(block.clone());
            ledger.append(block).unwrap();
            let resident = ledger.ledger().resident_blocks() as u64;
            assert!(
                resident <= options.window,
                "{resident} resident after block {number}"
            );
        }
        assert_eq!(ledger.ledger().resident_blocks() as u64, options.window);
        let (reopened, report) = DurableLedger::open(&dir, options).unwrap();
        assert!(report.segments > 1, "expected rotation");
        assert_eq!(reopened.ledger().resident_blocks() as u64, options.window);
        for view in [ledger.ledger(), reopened.ledger()] {
            for block in &appended {
                let read = view.block(block.number()).unwrap();
                assert_eq!(read, block);
                assert_eq!(
                    crate::codec::block_payload(read),
                    crate::codec::block_payload(block)
                );
            }
            assert!(view.verify_integrity().is_ok());
            assert_eq!(view.committed_txn_count(), appended.len());
            assert_eq!(view.raw_txn_count(), appended.len());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_integrity_rereads_evicted_blocks_and_catches_a_damaged_one() {
        let dir = temp_dir("evicted-flip");
        let one_block_per_segment = DurableOptions {
            rotate_bytes: 1,
            fsync: false,
            window: 2,
        };
        let (mut ledger, _) = DurableLedger::open(&dir, one_block_per_segment).unwrap();
        fill(&mut ledger, 6);
        assert!(ledger.ledger().verify_integrity().is_ok());
        assert_eq!(
            ledger.ledger().resident_blocks(),
            2,
            "verification keeps nothing decoded"
        );

        // Block 3 is evicted. Rename its write key `K3` to `J3` on disk, CRC recomputed: the
        // record still parses, but its body no longer matches its data hash.
        let (segment, offset, len) = records(&dir)[2].clone();
        let bytes = std::fs::read(&segment).unwrap();
        let body = offset as usize + 8 + 76;
        let key_at = bytes[body..offset as usize + 8 + len]
            .windows(6)
            .position(|w| w == b"\0\0\0\x02K3")
            .expect("block 3 writes K3");
        damage_record(&segment, offset, [(76 + key_at + 4, b'J')]);

        let err = ledger.ledger().verify_integrity().unwrap_err();
        assert!(
            matches!(err, CommonError::ChainIntegrity { block: 3, .. }),
            "got {err}"
        );
        let err = ledger.ledger().block(3).unwrap_err();
        assert!(
            matches!(err, CommonError::ChainIntegrity { block: 3, .. }),
            "got {err}"
        );
        assert_eq!(ledger.ledger().block(2).unwrap().number(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A record write that fails part-way is cut back off: the appends after it land where it
    /// began, and every acknowledged block reopens, inside one segment and when the failed
    /// write was the first of a fresh segment.
    #[test]
    fn a_short_write_is_cut_back_and_every_acknowledged_block_reopens() {
        for rotate_bytes in [1 << 20, 1] {
            let dir = temp_dir(&format!("short-write-{rotate_bytes}"));
            let options = DurableOptions {
                rotate_bytes,
                fsync: false,
                window: 2,
            };
            let (mut ledger, _) = DurableLedger::open(&dir, options).unwrap();
            fill(&mut ledger, 3);
            ledger.writer.write_budget = Some(20);
            let err = ledger
                .append(block_at(4, ledger.ledger().tip_hash()))
                .unwrap_err();
            assert!(matches!(err, LedgerError::Io { .. }), "got {err}");
            assert_eq!(ledger.height(), 3);

            ledger.writer.write_budget = None;
            fill(&mut ledger, 5);
            let tip = ledger.ledger().tip_hash();
            drop(ledger);
            let (reopened, report) = DurableLedger::open(&dir, options).unwrap();
            assert!(report.torn.is_none(), "a partial record was left behind");
            assert_eq!(report.blocks_recovered, 8);
            assert_eq!(reopened.ledger().tip_hash(), tip);
            assert!(reopened.ledger().verify_integrity().is_ok());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_short_write_that_cannot_be_cut_back_refuses_every_later_append() {
        let dir = temp_dir("poisoned");
        let (mut ledger, _) = DurableLedger::open(&dir, DurableOptions::default()).unwrap();
        fill(&mut ledger, 3);
        let tip = ledger.ledger().tip_hash();
        ledger.writer.write_budget = Some(20);
        ledger.writer.fail_truncate = true;
        let next = block_at(4, tip);
        let err = ledger.append(next.clone()).unwrap_err();
        assert!(matches!(err, LedgerError::Io { .. }), "got {err}");
        ledger.writer.write_budget = None;
        let err = ledger.append(next).unwrap_err();
        assert!(
            matches!(err, LedgerError::WriterPoisoned { .. }),
            "got {err}"
        );
        assert_eq!(ledger.height(), 3);
        drop(ledger);

        // Reopening repairs the partial record as a torn tail, and the chain goes on.
        let (mut reopened, report) = DurableLedger::open(&dir, DurableOptions::default()).unwrap();
        assert!(report.torn.is_some());
        assert_eq!(reopened.ledger().tip_hash(), tip);
        fill(&mut reopened, 2);
        assert_eq!(reopened.height(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Three transactions reading and writing a shared key, two of them committed: a slot
    /// or status the damage moves reorders versions of one key.
    fn busy_block(number: u64, prev: Digest) -> Block {
        let txns = (0..3u64)
            .map(|i| {
                Transaction::from_parts(
                    number * 10 + i,
                    number - 1,
                    [(Key::new("A"), SeqNo::new(number - 1, 1))],
                    [
                        (Key::new("A"), Value::from_i64(i as i64)),
                        (Key::new(format!("K{i}")), Value::from_i64(number as i64)),
                    ],
                )
            })
            .collect();
        let mut block = Block::build(number, prev, txns);
        block.entries[0].status = TxnStatus::Committed;
        block.entries[1].status = TxnStatus::Aborted(AbortReason::StaleRead);
        block.entries[2].status = TxnStatus::Committed;
        block
    }

    /// The record stores no slot, so entries that trade places still decode, each taking the
    /// slot of its new position. The data hash binds entry order, so opening refuses them.
    #[test]
    fn swapped_entries_fail_the_data_hash_check_on_open() {
        let dir = temp_dir("swapped");
        let (mut ledger, _) = DurableLedger::open(&dir, DurableOptions::default()).unwrap();
        fill(&mut ledger, 2);
        let mut swapped = busy_block(3, ledger.ledger().tip_hash());
        ledger.append(swapped.clone()).unwrap();
        swapped.entries.swap(0, 1);
        let record = segment::seal_record(segment::encode_record(&swapped).0).unwrap();
        let decoded = crate::codec::decode_block(&record[8..]).unwrap();
        let slots: Vec<_> = decoded
            .entries
            .iter()
            .map(|e| (e.txn.id.0, e.txn.end_ts))
            .collect();
        let slot = |seq| Some(SeqNo::new(3, seq));
        assert_eq!(slots, [(31, slot(1)), (30, slot(2)), (32, slot(3))]);

        let (path, offset, len) = records(&dir)[2].clone();
        assert_eq!(record.len(), 8 + len, "same entries, same length");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[offset as usize..][..record.len()].copy_from_slice(&record);
        std::fs::write(&path, bytes).unwrap();
        let err = DurableLedger::open(&dir, DurableOptions::default()).unwrap_err();
        assert!(
            matches!(&err, LedgerError::Chain(CommonError::ChainIntegrity { block: 3, detail })
                if detail.contains("data hash")),
            "got {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A last segment that holds no record, whatever its header bytes, is a torn rotation and
    /// is removed: a bare header, a short one, a mismatched one, or one whose first record is
    /// torn. (With records behind it, a mismatched header is refused: `tests/durable_ledger.rs`.)
    #[test]
    fn a_header_is_torn_only_with_nothing_behind_it() {
        let options = DurableOptions {
            rotate_bytes: 1,
            ..DurableOptions::default()
        };
        let headers = [
            &b"EOVSEG03"[..],
            b"EOVSEG02",
            b"EOV",
            b"EOVSEG12",
            b"EOVSEG03\0\0\0\x09",
        ];
        for header in headers {
            let dir = temp_dir("bare-header");
            let (mut ledger, _) = DurableLedger::open(&dir, options).unwrap();
            fill(&mut ledger, 2);
            let tip = ledger.ledger().tip_hash();
            drop(ledger);
            let third = dir.join(segment::segment_file_name(3));
            std::fs::write(&third, header).unwrap();
            let (ledger, report) = DurableLedger::open(&dir, options).unwrap();
            assert_eq!((ledger.height(), ledger.ledger().tip_hash()), (2, tip));
            let dropped = report.torn.map(|t| t.dropped_bytes);
            assert_eq!(dropped, Some(header.len() as u64), "{header:?}");
            assert!(!third.exists(), "{header:?}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// CRC-valid damage to any record of a multi-segment directory — in a sealed
            /// segment or in the tail — makes the open walk, the replaying walk and the window
            /// decode return `Ok` or a typed error, never panic; the two walks agree.
            #[test]
            fn segment_scan_never_panics_on_a_damaged_record(
                record in any::<prop::sample::Index>(),
                overwrites in prop::collection::vec((any::<usize>(), any::<u8>()), 1..5),
            ) {
                let dir = temp_dir("scan-damage");
                let options = DurableOptions {
                    rotate_bytes: 600,
                    fsync: false,
                    window: 3,
                };
                {
                    let (mut ledger, _) = DurableLedger::open(&dir, options).unwrap();
                    for number in 1..=8 {
                        let block = busy_block(number, ledger.ledger().tip_hash());
                        ledger.append(block).unwrap();
                    }
                }
                let all = records(&dir);
                let (segment, offset, _) = all[record.index(all.len())].clone();
                damage_record(&segment, offset, overwrites);
                let outcome = std::panic::catch_unwind(|| {
                    let opened = DurableLedger::open(&dir, options).map(|(l, _)| l.height());
                    let mut store = MultiVersionStore::new();
                    let replayed = DurableLedger::open_replaying(&dir, options, &mut store)
                        .map(|(l, _)| l.height());
                    (opened.ok(), replayed.ok())
                });
                std::fs::remove_dir_all(&dir).unwrap();
                let (opened, replayed) = outcome.expect("a damaged record made open panic");
                prop_assert_eq!(opened, replayed);
            }
        }
    }
}

//! The durable ledger: segment-file persistence behind the in-memory reference [`Ledger`].
//!
//! [`DurableLedger`] couples an append-only segment log (see [`crate::segment`]) with an
//! in-memory mirror that enforces the chain rules. Every append validates against the mirror
//! first — a block that violates no-skipping, the hash link or body integrity is rejected
//! *before* any byte reaches disk — then writes one CRC-framed record. Opening a directory
//! replays its segments back through the mirror, repairing a torn trailing record (the only
//! damage a crash mid-append can cause) by physical truncation and reporting everything else
//! as a typed [`LedgerError`].
//!
//! [`LedgerBackend`] keeps the in-memory [`Ledger`] as the zero-cost reference: callers that
//! never configure a directory pay nothing, and every read goes through the same `Ledger`
//! surface either way.

use crate::chain::Ledger;
use crate::error::LedgerError;
use crate::segment::{self, SegmentWriter, TornTail};
use crate::Block;
use eov_common::config::CcConfig;
use std::path::{Path, PathBuf};

/// Tuning for the segment log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DurableOptions {
    /// Rotate to a fresh segment file once the current one reaches this many bytes.
    pub rotate_bytes: u64,
    /// Fsync after every append (see `CcConfig::durable_fsync`).
    pub fsync: bool,
}

impl Default for DurableOptions {
    fn default() -> Self {
        Self::from_cc_config(&CcConfig::default())
    }
}

impl DurableOptions {
    /// The durability knobs carried by a [`CcConfig`].
    pub fn from_cc_config(config: &CcConfig) -> Self {
        DurableOptions {
            rotate_bytes: config.segment_rotate_kib as u64 * 1024,
            fsync: config.durable_fsync,
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
}

impl DurableLedger {
    /// Opens (or creates) the ledger directory, replaying its segments into a fresh in-memory
    /// mirror. A torn trailing record is truncated — physically — and reported; any other
    /// damage (mid-log CRC failure, undecodable record, broken chain link) is a typed error.
    pub fn open(
        dir: impl AsRef<Path>,
        options: DurableOptions,
    ) -> Result<(Self, OpenReport), LedgerError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| LedgerError::io(dir, e))?;
        let scan = segment::scan_dir(dir)?;
        if let Some(torn) = &scan.torn {
            segment::repair_torn_tail(torn)?;
        }
        let mut mirror = Ledger::new();
        for block in scan.blocks {
            mirror.append(block)?;
        }
        let writer = SegmentWriter::resume(dir, options.rotate_bytes, options.fsync, scan.tail)?;
        let report = OpenReport {
            blocks_recovered: mirror.height(),
            segments: scan.segment_count,
            torn: scan.torn,
        };
        Ok((
            DurableLedger {
                dir: dir.to_path_buf(),
                mirror,
                writer,
            },
            report,
        ))
    }

    /// Appends a block: chain-validated against the mirror first, then written as one framed
    /// record (rotating segments as configured).
    pub fn append(&mut self, block: Block) -> Result<(), LedgerError> {
        let record = segment::frame_record(&block)?;
        let number = block.number();
        self.mirror.append(block)?;
        self.writer.append(number, &record)
    }

    /// The in-memory mirror: the authoritative read surface over everything appended.
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

    /// Bytes in the current tail segment (diagnostics/tests).
    pub fn tail_segment_len(&self) -> u64 {
        self.writer.tail_len()
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
    /// (the segment files stay on disk untouched).
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
        let tail_before = ledger.tail_segment_len();
        let skipped = block_at(9, ledger.ledger().tip_hash());
        let err = ledger.append(skipped).unwrap_err();
        assert!(matches!(err, LedgerError::Chain(_)), "got {err}");
        assert_eq!(ledger.tail_segment_len(), tail_before, "disk was touched");
        assert_eq!(ledger.height(), 2);
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
}

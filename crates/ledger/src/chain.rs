//! The hash-chained, append-only block store.
//!
//! Section 3.5 of the paper lists Fabric's ordering-service safety properties: *agreement*,
//! *hash chain integrity*, *no skipping*, and *no creation*. The [`Ledger`] enforces the last
//! three structurally (blocks must arrive in sequence, chained to the previous header hash,
//! and with a body hash matching their header), and the integration tests check *agreement* by
//! comparing the ledgers produced by independently replicated orderers.
//!
//! A ledger need not hold every block decoded. Each height keeps its header and commit counts;
//! the body of a block whose record sits in a segment file (a durable ledger's, see
//! [`crate::durable`]) may be *evicted* and is then read back, CRC-checked and re-verified
//! against its header when something asks for it — the reenactment view of the audit
//! literature: history is re-derived from the log on demand. An in-memory ledger evicts
//! nothing.

use crate::block::{Block, BlockHeader};
use crate::codec::{self, RecordParser};
use crate::segment::{self, RecordAt};
use crate::sha256::Digest;
use eov_common::error::{CommonError, Result};
use eov_common::rwset::Value;
use eov_common::txn::TxnStatus;
use eov_common::version::SeqNo;
use eov_vstore::MultiVersionStore;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// An append-only, hash-chained sequence of blocks starting at height 1 (height 0 is the
/// implicit genesis state seeded directly into the state store).
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Height `i + 1` at index `i`.
    blocks: Vec<Stored>,
    /// The segment directory evicted blocks are read back from; `None` for an in-memory
    /// ledger, which evicts nothing.
    segments: Option<Arc<Path>>,
}

/// One height of the chain: what every read needs without the body, and the body while it is
/// resident.
#[derive(Clone, Debug)]
struct Stored {
    header: BlockHeader,
    raw: usize,
    committed: usize,
    /// Where the block's record sits, when it is on disk.
    record: Option<RecordAt>,
    /// The decoded block: set while resident, and by a read of an evicted block, which keeps
    /// it for the life of the ledger (a `&Block` handed out must stay valid).
    body: OnceLock<Block>,
}

/// What walking a block's record established: its header and commit counts.
pub(crate) struct WalkedRecord {
    pub(crate) header: BlockHeader,
    pub(crate) raw: usize,
    pub(crate) committed: usize,
}

/// Why a record failed its walk.
pub(crate) enum RecordFault {
    /// The bytes do not parse as a block record: corruption, never a chain-rule question.
    Malformed(String),
    /// The record parses but breaks a chain rule.
    Chain(CommonError),
}

impl RecordFault {
    /// The fault as a chain error at block `number`.
    fn at(self, number: u64) -> CommonError {
        match self {
            RecordFault::Malformed(detail) => {
                chain_fault(number, format!("record on disk does not parse: {detail}"))
            }
            RecordFault::Chain(e) => e,
        }
    }
}

fn chain_fault(block: u64, detail: impl Into<String>) -> CommonError {
    CommonError::ChainIntegrity {
        block,
        detail: detail.into(),
    }
}

/// *No skipping*, *hash chain integrity* and a body matching its data hash, for the block
/// with `header` whose body hashes to `body_hash`, at height `number` after a block hashing to
/// `prev_hash`.
fn check_chain(
    header: &BlockHeader,
    body_hash: Digest,
    number: u64,
    prev_hash: Digest,
) -> Result<()> {
    if header.number != number {
        return Err(chain_fault(
            header.number,
            format!("expected height {number} (no skipping)"),
        ));
    }
    if header.prev_hash != prev_hash {
        return Err(chain_fault(
            number,
            "prev_hash does not match the previous block's hash",
        ));
    }
    if body_hash != header.data_hash {
        return Err(chain_fault(number, "data hash does not match block body"));
    }
    Ok(())
}

/// The chain rules for `block`, whose body hashes to `body_hash`, at height `number` after a
/// block hashing to `prev_hash` ([`check_chain`]), and every entry's `end_ts` its slot
/// `(number, position)`, as [`Block::build`] assigns it and decoding derives it.
fn check_block(block: &Block, body_hash: Digest, number: u64, prev_hash: Digest) -> Result<()> {
    check_chain(&block.header, body_hash, number, prev_hash)?;
    let misplaced = (1..)
        .zip(&block.entries)
        .find(|(seq, e)| e.txn.end_ts != Some(SeqNo::new(number, *seq)));
    if let Some((seq, entry)) = misplaced {
        return Err(chain_fault(
            number,
            format!("entry {seq} carries end_ts {:?}", entry.txn.end_ts),
        ));
    }
    Ok(())
}

/// [`check_block`] over a block's record, without building the block: the record parser
/// checks every field, the body slice it parsed is hashed, and nothing is allocated per
/// transaction. With `replay`, the committed writes of a block above `replay.last_block()`
/// are applied to that store at their commit versions, as `apply_block` would; a record that
/// fails a check leaves the store part-way through it.
pub(crate) fn walk_record(
    payload: &[u8],
    number: u64,
    prev_hash: Digest,
    replay: Option<&mut MultiVersionStore>,
) -> std::result::Result<WalkedRecord, RecordFault> {
    let mut parser = RecordParser::new(payload).map_err(RecordFault::Malformed)?;
    let header = parser.header().clone();
    // Only at the height it must hold is a record's version order the store's.
    let mut replay = replay.filter(|store| header.number == number && number > store.last_block());
    let (mut raw, mut committed) = (0, 0);
    while let Some(entry) = parser.next_entry().map_err(RecordFault::Malformed)? {
        raw += 1;
        if entry.status.is_committed() {
            committed += 1;
            if let Some(store) = replay.as_deref_mut() {
                for (key, value) in entry.writes() {
                    store.put_utf8(key, entry.slot, Value::from_slice(value));
                }
            }
        }
    }
    if let Some(store) = replay {
        store.commit_empty_block(number);
    }
    check_chain(&header, parser.body_hash(), number, prev_hash).map_err(RecordFault::Chain)?;
    Ok(WalkedRecord {
        header,
        raw,
        committed,
    })
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty ledger whose evicted blocks are read back from the segment files in `dir`.
    pub(crate) fn on_segments(dir: &Path) -> Self {
        Ledger {
            blocks: Vec::new(),
            segments: Some(Arc::from(dir)),
        }
    }

    /// The height of the last appended block, or 0 if the ledger is empty.
    pub fn height(&self) -> u64 {
        self.blocks.last().map_or(0, |b| b.header.number)
    }

    /// The header hash the next block must chain to.
    pub fn tip_hash(&self) -> Digest {
        self.blocks.last().map_or(Digest::ZERO, |b| b.header.hash())
    }

    /// Appends a block, enforcing *no skipping* (height must be exactly `height() + 1`),
    /// *hash chain integrity* (its `prev_hash` must equal the current tip hash) and body
    /// integrity (its data hash must match its entries, whose `end_ts` must be their slots
    /// `(height, 1..)`).
    pub fn append(&mut self, block: Block) -> Result<()> {
        self.check_next(&block, Block::data_hash(&block.entries))?;
        self.push_checked(block, None);
        Ok(())
    }

    /// The checks of [`Self::append`] alone, for `block` whose body hashes to `body_hash`:
    /// `block` may be appended next.
    pub(crate) fn check_next(&self, block: &Block, body_hash: Digest) -> Result<()> {
        check_block(block, body_hash, self.height() + 1, self.tip_hash())
    }

    /// The push of [`Self::append`] alone, for a block [`Self::check_next`] accepted with
    /// nothing appended since; `record` is where it was written, if it was.
    pub(crate) fn push_checked(&mut self, block: Block, record: Option<RecordAt>) {
        debug_assert_eq!(
            block.number(),
            self.height() + 1,
            "push_checked without check_next"
        );
        self.blocks.push(Stored {
            header: block.header.clone(),
            raw: block.raw_count(),
            committed: block.committed_count(),
            record,
            body: OnceLock::from(block),
        });
    }

    /// Pushes a block [`walk_record`] accepted at the next height, evicted: its body stays in
    /// the record at `record` until something reads it.
    pub(crate) fn push_walked(&mut self, walked: WalkedRecord, record: RecordAt) {
        self.blocks.push(Stored {
            header: walked.header,
            raw: walked.raw,
            committed: walked.committed,
            record: Some(record),
            body: OnceLock::new(),
        });
    }

    /// Drops the decoded body of block `number` if its record is on disk to read it back from.
    pub(crate) fn evict(&mut self, number: u64) {
        let index = number.checked_sub(1).map(|i| i as usize);
        if let Some(stored) = index.and_then(|i| self.blocks.get_mut(i)) {
            if stored.record.is_some() {
                stored.body.take();
            }
        }
    }

    /// How many blocks are held decoded: all of them in an in-memory ledger; in a durable one,
    /// the live window plus any evicted block read since.
    #[cfg(test)]
    pub(crate) fn resident_blocks(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| b.body.get().is_some())
            .count()
    }

    fn stored(&self, number: u64) -> Result<&Stored> {
        number
            .checked_sub(1)
            .and_then(|i| self.blocks.get(i as usize))
            .ok_or(CommonError::BlockNotFound(number))
    }

    /// Fetches a block by height. An evicted block is read back from its segment, CRC-checked,
    /// decoded and checked against the header it was appended with (and its body against its
    /// data hash); it stays decoded from then on.
    pub fn block(&self, number: u64) -> Result<&Block> {
        let stored = self.stored(number)?;
        if let Some(block) = stored.body.get() {
            return Ok(block);
        }
        let payload = self.read_record(number, stored)?;
        let (block, body_hash) = codec::decode_record(&payload)
            .map_err(|detail| RecordFault::Malformed(detail).at(number))?;
        if block.header != stored.header {
            return Err(chain_fault(
                number,
                "record on disk is not the block appended at this height",
            ));
        }
        if body_hash != block.header.data_hash {
            return Err(chain_fault(number, "data hash does not match block body"));
        }
        Ok(stored.body.get_or_init(|| block))
    }

    /// The CRC-checked payload of an evicted block's record.
    fn read_record(&self, number: u64, stored: &Stored) -> Result<Vec<u8>> {
        match (&self.segments, stored.record) {
            (Some(dir), Some(at)) => segment::read_record(dir, at)
                .map_err(|e| chain_fault(number, format!("record cannot be read back: {e}"))),
            _ => Err(CommonError::Internal(format!(
                "block {number} is neither decoded nor on disk"
            ))),
        }
    }

    /// Iterates over all blocks in order, reading evicted ones back as [`Self::block`] does.
    ///
    /// # Panics
    ///
    /// If an evicted block cannot be read back — its segment was removed or damaged after the
    /// block was verified. [`Self::block`] and [`Self::verify_integrity`] report that as an
    /// error instead.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        (1..=self.height()).map(|number| {
            self.block(number)
                .unwrap_or_else(|e| panic!("ledger history unreadable: {e}"))
        })
    }

    /// Total number of transactions appearing in the ledger (the numerator of raw throughput).
    pub fn raw_txn_count(&self) -> usize {
        self.blocks.iter().map(|b| b.raw).sum()
    }

    /// Total number of committed transactions (the numerator of effective throughput).
    pub fn committed_txn_count(&self) -> usize {
        self.blocks.iter().map(|b| b.committed).sum()
    }

    /// Walks the whole chain and re-verifies every link and body: decoded blocks in memory,
    /// evicted ones by streaming their records from disk (without keeping them decoded), each
    /// also checked against the header it was appended with. Returns the first violation
    /// found, if any.
    pub fn verify_integrity(&self) -> Result<()> {
        let mut prev = Digest::ZERO;
        for (number, stored) in (1..).zip(&self.blocks) {
            let header = match stored.body.get() {
                Some(block) => {
                    check_block(block, Block::data_hash(&block.entries), number, prev)?;
                    &block.header
                }
                None => {
                    let payload = self.read_record(number, stored)?;
                    let walked = walk_record(&payload, number, prev, None)
                        .map_err(|fault| fault.at(number))?;
                    if walked.header != stored.header {
                        return Err(chain_fault(
                            number,
                            "record on disk is not the block appended at this height",
                        ));
                    }
                    &stored.header
                }
            };
            prev = header.hash();
        }
        Ok(())
    }

    /// Convenience used by tests and metrics: the commit status of every transaction in ledger
    /// order (reading evicted blocks back as [`Self::iter`] does).
    pub fn statuses(&self) -> Vec<(u64, TxnStatus)> {
        self.iter()
            .flat_map(|b| b.entries.iter().map(|e| (e.txn.id.0, e.status)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::abort::AbortReason;
    use eov_common::rwset::{Key, Value};
    use eov_common::txn::Transaction;
    use eov_common::version::SeqNo;

    fn txn(id: u64) -> Transaction {
        Transaction::from_parts(
            id,
            0,
            [(Key::new("A"), SeqNo::new(0, 1))],
            [(Key::new("A"), Value::from_i64(id as i64))],
        )
    }

    fn chain_of(n: u64) -> Ledger {
        let mut ledger = Ledger::new();
        for height in 1..=n {
            let block = Block::build(
                height,
                ledger.tip_hash(),
                vec![txn(height * 10), txn(height * 10 + 1)],
            );
            ledger.append(block).unwrap();
        }
        ledger
    }

    #[test]
    fn append_builds_a_valid_chain() {
        let ledger = chain_of(5);
        assert_eq!(ledger.height(), 5);
        assert_eq!(ledger.raw_txn_count(), 10);
        assert!(ledger.verify_integrity().is_ok());
        assert_eq!(ledger.iter().count(), 5);
    }

    #[test]
    fn no_skipping_is_enforced() {
        let mut ledger = chain_of(2);
        let skipped = Block::build(4, ledger.tip_hash(), vec![txn(99)]);
        let err = ledger.append(skipped).unwrap_err();
        assert!(matches!(err, CommonError::ChainIntegrity { block: 4, .. }));
    }

    #[test]
    fn hash_chain_integrity_is_enforced() {
        let mut ledger = chain_of(2);
        let bad_prev = Block::build(3, Digest::ZERO, vec![txn(99)]);
        let err = ledger.append(bad_prev).unwrap_err();
        assert!(matches!(err, CommonError::ChainIntegrity { block: 3, .. }));
    }

    #[test]
    fn tampered_body_is_rejected_on_append_and_on_verify() {
        let mut ledger = chain_of(1);
        let mut block = Block::build(2, ledger.tip_hash(), vec![txn(20)]);
        block.entries[0]
            .txn
            .write_set
            .record(Key::new("A"), Value::from_i64(-1));
        assert!(ledger.append(block).is_err());

        // Tamper after append (simulating a corrupted replica) — verify_integrity catches it.
        let mut ledger = chain_of(3);
        ledger.blocks[1].body.get_mut().unwrap().entries[0]
            .txn
            .write_set
            .record(Key::new("A"), Value::from_i64(-1));
        assert!(ledger.verify_integrity().is_err());
    }

    #[test]
    fn block_lookup_and_bounds() {
        let ledger = chain_of(3);
        assert_eq!(ledger.block(2).unwrap().number(), 2);
        assert!(matches!(
            ledger.block(0),
            Err(CommonError::BlockNotFound(0))
        ));
        assert!(matches!(
            ledger.block(9),
            Err(CommonError::BlockNotFound(9))
        ));
    }

    #[test]
    fn committed_counts_follow_validation_flags() {
        let mut ledger = chain_of(1);
        let mut block = Block::build(2, ledger.tip_hash(), vec![txn(20), txn(21)]);
        block.entries[0].status = TxnStatus::Committed;
        block.entries[1].status = TxnStatus::Aborted(AbortReason::StaleRead);
        ledger.append(block).unwrap();
        assert_eq!(ledger.committed_txn_count(), 1);
        assert_eq!(ledger.raw_txn_count(), 4);
        let statuses = ledger.statuses();
        assert_eq!(statuses.len(), 4);
        assert!(statuses.iter().any(|(id, s)| *id == 21 && s.is_aborted()));
    }

    #[test]
    fn identical_input_produces_identical_chains() {
        // Agreement building block: two replicas applying the same blocks end with the same tip.
        let a = chain_of(4);
        let b = chain_of(4);
        assert_eq!(a.tip_hash().to_hex(), b.tip_hash().to_hex());
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The open walk accepts exactly the records that decoding and appending accept:
            /// a payload with 1–4 bytes overwritten passes both or neither.
            #[test]
            fn the_record_walk_accepts_what_decode_and_append_accept(
                overwrites in prop::collection::vec((any::<usize>(), any::<u8>()), 1..5),
            ) {
                let ledger = chain_of(1);
                let txns = (0..3u64).map(|i| {
                    Transaction::from_parts(
                        20 + i,
                        1,
                        [(Key::new("A"), SeqNo::new(1, 1)), (Key::new("B"), SeqNo::new(1, 2))],
                        [(Key::new("A"), Value::from_i64(1)), (Key::new("C"), Value::from_i64(2))],
                    )
                });
                let mut block = Block::build(2, ledger.tip_hash(), txns.collect());
                block.entries[0].status = TxnStatus::Committed;
                block.entries[1].status = TxnStatus::Aborted(AbortReason::StaleRead);
                let mut bytes = codec::block_payload(&block);
                let len = bytes.len();
                for (at, byte) in overwrites {
                    bytes[at % len] = byte;
                }
                let walked = walk_record(&bytes, 2, ledger.tip_hash(), None).is_ok();
                let appended = codec::decode_block(&bytes)
                    .is_ok_and(|decoded| ledger.clone().append(decoded).is_ok());
                prop_assert_eq!(walked, appended);
            }
        }
    }
}

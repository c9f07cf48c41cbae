//! Blocks and block headers.
//!
//! A block batches the transactions delivered by the ordering service in their final commit
//! order. Following Fabric's design, *invalid* transactions are not removed from the block —
//! they are marked with a validity flag during the validation phase. This is why the paper
//! distinguishes raw throughput (transactions appearing in the ledger) from effective
//! throughput (transactions whose validity flag is set and whose writes were applied).

use crate::sha256::{sha256, Digest, Sha256};
use eov_common::txn::{Transaction, TxnStatus};
use eov_common::version::SeqNo;

/// A block's data hash, fed one transaction at a time: its id and snapshot block, then every
/// read's key and version and every write's key and value, in order. [`Block::data_hash`]
/// hashes a decoded block through it and the record parser hashes a record's bytes through it
/// as it checks them, so the two cannot drift apart.
pub(crate) struct BodyHasher(Sha256);

impl BodyHasher {
    pub(crate) fn new() -> Self {
        BodyHasher(Sha256::new())
    }

    pub(crate) fn txn(&mut self, id: u64, snapshot_block: u64) {
        let mut head = [0u8; 16];
        head[..8].copy_from_slice(&id.to_be_bytes());
        head[8..].copy_from_slice(&snapshot_block.to_be_bytes());
        self.0.update(&head);
    }

    pub(crate) fn read(&mut self, key: &[u8], version: SeqNo) {
        let mut at = [0u8; 12];
        at[..8].copy_from_slice(&version.block.to_be_bytes());
        at[8..].copy_from_slice(&version.seq.to_be_bytes());
        self.0.update(key);
        self.0.update(&at);
    }

    pub(crate) fn write(&mut self, key: &[u8], value: &[u8]) {
        self.0.update(key);
        self.0.update(value);
    }

    pub(crate) fn finish(self) -> Digest {
        self.0.finalize()
    }
}

/// The header of a block: everything that is hashed into the chain.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockHeader {
    /// Block height (the genesis block is 0).
    pub(crate) number: u64,
    /// Hash of the previous block's header; [`Digest::ZERO`] for the genesis block.
    pub(crate) prev_hash: Digest,
    /// Hash over the ordered transaction ids and read/write sets in this block.
    pub(crate) data_hash: Digest,
}

impl BlockHeader {
    /// The header hash that the next block chains to.
    pub(crate) fn hash(&self) -> Digest {
        let mut buf = [0u8; 72];
        buf[..8].copy_from_slice(&self.number.to_be_bytes());
        buf[8..40].copy_from_slice(self.prev_hash.as_bytes());
        buf[40..].copy_from_slice(self.data_hash.as_bytes());
        sha256(&buf)
    }
}

/// One transaction slot inside a block: the transaction and the validity flag filled in by
/// the validation phase. The slot is the entry's position: entry `i` of block `n` occupies
/// `(n, i + 1)`, which [`Block::build`] stamps into the transaction's `end_ts`.
#[derive(Clone, Debug, PartialEq)]
pub struct TxnEntry {
    /// The endorsed transaction.
    pub txn: Transaction,
    /// Validation outcome. Entries start `Pending` when the block is cut and are finalised by
    /// the validation phase.
    pub status: TxnStatus,
}

/// A block: header plus ordered transaction entries.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// The hashed header.
    pub(crate) header: BlockHeader,
    /// Transactions in their final commit order: entry `i` occupies slot `(number, i + 1)`.
    pub entries: Vec<TxnEntry>,
}

impl Block {
    /// Builds a block at height `number` chaining to `prev_hash`, assigning slots
    /// `(number, 1..)` to `txns` in order: the one place a commit slot is assigned (Fabric#
    /// stamps the same slots at formation, which its conflict index needs). All entries start
    /// as [`TxnStatus::Pending`].
    pub fn build(number: u64, prev_hash: Digest, txns: Vec<Transaction>) -> Self {
        let entries: Vec<TxnEntry> = (1..)
            .zip(txns)
            .map(|(seq, mut txn)| {
                txn.end_ts = Some(SeqNo::new(number, seq));
                TxnEntry {
                    txn,
                    status: TxnStatus::Pending,
                }
            })
            .collect();
        let data_hash = Self::data_hash(&entries);
        Block {
            header: BlockHeader {
                number,
                prev_hash,
                data_hash,
            },
            entries,
        }
    }

    /// Hash over the block body: transaction ids, snapshot blocks, and read/write set keys and
    /// versions, in order. Any change to the batched transactions changes this digest.
    pub(crate) fn data_hash(entries: &[TxnEntry]) -> Digest {
        let mut hasher = BodyHasher::new();
        for entry in entries {
            let txn = &entry.txn;
            hasher.txn(txn.id.0, txn.snapshot_block);
            for read in txn.read_set.iter() {
                hasher.read(read.key.as_bytes(), read.version);
            }
            for write in txn.write_set.iter() {
                hasher.write(write.key.as_bytes(), write.value.as_bytes());
            }
        }
        hasher.finish()
    }

    /// Block height.
    pub fn number(&self) -> u64 {
        self.header.number
    }

    /// Header hash of this block.
    pub fn hash(&self) -> Digest {
        self.header.hash()
    }

    /// Number of transactions in the block (committed or not): the block's contribution to
    /// *raw* throughput.
    pub(crate) fn raw_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of committed transactions: the block's contribution to *effective* throughput.
    pub fn committed_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.status.is_committed())
            .count()
    }

    /// Iterates over the committed transactions together with their intra-block sequence.
    pub fn committed(&self) -> impl Iterator<Item = (&Transaction, u32)> {
        (1..)
            .zip(&self.entries)
            .filter(|(_, e)| e.status.is_committed())
            .map(|(seq, e)| (&e.txn, seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::abort::AbortReason;
    use eov_common::rwset::{Key, Value};

    fn sample_txn(id: u64) -> Transaction {
        Transaction::from_parts(
            id,
            0,
            [(Key::new("A"), SeqNo::new(0, 1))],
            [(Key::new("B"), Value::from_i64(id as i64))],
        )
    }

    #[test]
    fn build_assigns_slots_and_end_timestamps() {
        let block = Block::build(3, Digest::ZERO, vec![sample_txn(1), sample_txn(2)]);
        assert_eq!(block.number(), 3);
        assert_eq!(block.entries[0].txn.end_ts, Some(SeqNo::new(3, 1)));
        assert_eq!(block.entries[1].txn.end_ts, Some(SeqNo::new(3, 2)));
        assert_eq!(block.raw_count(), 2);
        assert_eq!(block.committed_count(), 0);
    }

    #[test]
    fn commit_flags_drive_raw_vs_effective_counts() {
        let mut block = Block::build(
            1,
            Digest::ZERO,
            vec![sample_txn(1), sample_txn(2), sample_txn(3)],
        );
        block.entries[0].status = TxnStatus::Committed;
        block.entries[1].status = TxnStatus::Aborted(AbortReason::StaleRead);
        block.entries[2].status = TxnStatus::Committed;

        assert_eq!(block.raw_count(), 3);
        assert_eq!(block.committed_count(), 2);
        let committed: Vec<(u64, u32)> = block.committed().map(|(t, seq)| (t.id.0, seq)).collect();
        assert_eq!(committed, vec![(1, 1), (3, 3)]);
    }

    #[test]
    fn data_hash_detects_tampering() {
        let mut block = Block::build(1, Digest::ZERO, vec![sample_txn(1)]);
        assert_eq!(Block::data_hash(&block.entries), block.header.data_hash);
        // Tamper with a write value after the block was formed.
        block.entries[0]
            .txn
            .write_set
            .record(Key::new("B"), Value::from_i64(9999));
        assert_ne!(Block::data_hash(&block.entries), block.header.data_hash);
    }

    /// Streaming the body into the hasher must give the digest of the body staged in one
    /// buffer (what every ledger on disk was hashed with), and likewise for the header.
    #[test]
    fn streamed_hashes_equal_the_hash_of_the_staged_bytes() {
        let block = Block::build(
            5,
            sha256(b"prev"),
            (1..=40).map(sample_txn).collect::<Vec<_>>(),
        );
        let mut body = Vec::new();
        for entry in &block.entries {
            body.extend_from_slice(&entry.txn.id.0.to_be_bytes());
            body.extend_from_slice(&entry.txn.snapshot_block.to_be_bytes());
            for read in entry.txn.read_set.iter() {
                body.extend_from_slice(read.key.as_bytes());
                body.extend_from_slice(&read.version.block.to_be_bytes());
                body.extend_from_slice(&read.version.seq.to_be_bytes());
            }
            for write in entry.txn.write_set.iter() {
                body.extend_from_slice(write.key.as_bytes());
                body.extend_from_slice(write.value.as_bytes());
            }
        }
        assert!(body.len() > 1_000, "several compression blocks");
        assert_eq!(block.header.data_hash, sha256(&body));

        let mut header = block.header.number.to_be_bytes().to_vec();
        header.extend_from_slice(block.header.prev_hash.as_bytes());
        header.extend_from_slice(block.header.data_hash.as_bytes());
        assert_eq!(block.hash(), sha256(&header));
    }

    #[test]
    fn header_hash_depends_on_every_field() {
        let block = Block::build(1, Digest::ZERO, vec![sample_txn(1)]);
        let base = block.hash();

        let mut different_number = block.clone();
        different_number.header.number = 2;
        assert_ne!(base, different_number.hash());

        let mut different_prev = block.clone();
        different_prev.header.prev_hash = sha256(b"something else");
        assert_ne!(base, different_prev.hash());
    }
}

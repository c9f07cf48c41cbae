//! Blocks and block headers.
//!
//! A block batches the transactions delivered by the ordering service in their final commit
//! order. Following Fabric's design, *invalid* transactions are not removed from the block —
//! they are marked with a validity flag during the validation phase. This is why the paper
//! distinguishes raw throughput (transactions appearing in the ledger) from effective
//! throughput (transactions whose validity flag is set and whose writes were applied).

use crate::codec::{self, ByteWriter};
use crate::sha256::{sha256, Digest};
use eov_common::txn::{Transaction, TxnStatus};
use eov_common::version::SeqNo;

/// The header of a block: everything that is hashed into the chain.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockHeader {
    /// Block height (the genesis block is 0).
    pub(crate) number: u64,
    /// Hash of the previous block's header; [`Digest::ZERO`] for the genesis block.
    pub(crate) prev_hash: Digest,
    /// SHA-256 over the block body as its record stores it: the entry count and every
    /// transaction's encoding, in order (see [`crate::codec`]).
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

    /// SHA-256 over the body of the record that stores `entries`: `u32 entries | txn*`, as
    /// [`codec::encode_body`], the one encoder of a transaction's bytes, writes it.
    /// Any change to a batched transaction, or to their order, changes this digest; the
    /// entries' statuses are not part of it.
    pub(crate) fn data_hash(entries: &[TxnEntry]) -> Digest {
        let mut w = ByteWriter::new();
        codec::encode_body(&mut w, entries);
        sha256(&w.into_bytes())
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

    /// The data hash is SHA-256 over the record's own body bytes, `u32 entries | txn*`: the
    /// range between the 72-byte header and the one-byte-per-entry status trailer. The header
    /// hash is SHA-256 over number, previous hash and data hash.
    #[test]
    fn data_hash_is_the_sha256_of_the_record_body() {
        let mut block = Block::build(
            5,
            sha256(b"prev"),
            (1..=40).map(sample_txn).collect::<Vec<_>>(),
        );
        block.entries[3].status = TxnStatus::Committed;
        let record = codec::block_payload(&block);
        let body = &record[72..record.len() - block.entries.len()];
        assert!(body.len() > 1_000, "several compression blocks");
        assert_eq!(body[..4], 40u32.to_be_bytes());
        assert_eq!(block.header.data_hash, sha256(body));

        let mut header = block.header.number.to_be_bytes().to_vec();
        header.extend_from_slice(block.header.prev_hash.as_bytes());
        header.extend_from_slice(block.header.data_hash.as_bytes());
        assert_eq!(block.hash(), sha256(&header));
    }

    /// One-transaction blocks whose fields run together the same way: a write of `("ab",
    /// "c")` and one of `("a", "bc")`; a read of `A` at `(0, 1)` and a write to `A` of those 12
    /// version bytes. Every key, value and count is length-prefixed in the hashed bytes, so
    /// each pair hashes differently.
    #[test]
    fn blocks_whose_fields_run_together_hash_differently() {
        let write = |key: &str, value: &[u8]| {
            Transaction::from_parts(1, 0, [], [(Key::new(key), Value::from_slice(value))])
        };
        let read = Transaction::from_parts(1, 0, [(Key::new("A"), SeqNo::new(0, 1))], []);
        let version_bytes = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1];
        let pairs = [
            (write("ab", b"c"), write("a", b"bc")),
            (read, write("A", &version_bytes)),
        ];
        for (a, b) in pairs {
            let a = Block::build(1, Digest::ZERO, vec![a]);
            let b = Block::build(1, Digest::ZERO, vec![b]);
            assert_ne!(a.header.data_hash, b.header.data_hash);
            assert_ne!(a.hash(), b.hash());
        }
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

//! The hash-chained, append-only block store.
//!
//! Section 3.5 of the paper lists Fabric's ordering-service safety properties: *agreement*,
//! *hash chain integrity*, *no skipping*, and *no creation*. The [`Ledger`] enforces the last
//! three structurally (blocks must arrive in sequence, chained to the previous header hash,
//! and with a body hash matching their header), and the integration tests check *agreement* by
//! comparing the ledgers produced by independently replicated orderers.

use crate::block::Block;
use crate::sha256::Digest;
use eov_common::error::{CommonError, Result};
use eov_common::txn::TxnStatus;

/// An append-only, hash-chained sequence of blocks starting at height 1 (height 0 is the
/// implicit genesis state seeded directly into the state store).
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    blocks: Vec<Block>,
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// The height of the last appended block, or 0 if the ledger is empty.
    pub fn height(&self) -> u64 {
        self.blocks.last().map(|b| b.number()).unwrap_or(0)
    }

    /// The header hash the next block must chain to.
    pub fn tip_hash(&self) -> Digest {
        self.blocks.last().map(|b| b.hash()).unwrap_or(Digest::ZERO)
    }

    /// Appends a block, enforcing *no skipping* (height must be exactly `height() + 1`),
    /// *hash chain integrity* (its `prev_hash` must equal the current tip hash) and body
    /// integrity (its data hash must match its entries).
    pub fn append(&mut self, block: Block) -> Result<()> {
        self.check_next(&block)?;
        self.push_checked(block);
        Ok(())
    }

    /// The checks of [`Self::append`] alone: `block` may be appended next.
    pub(crate) fn check_next(&self, block: &Block) -> Result<()> {
        let expected_number = self.height() + 1;
        if block.number() != expected_number {
            return Err(CommonError::ChainIntegrity {
                block: block.number(),
                detail: format!("expected height {expected_number} (no skipping)"),
            });
        }
        if block.header.prev_hash != self.tip_hash() {
            return Err(CommonError::ChainIntegrity {
                block: block.number(),
                detail: "prev_hash does not match the current tip".into(),
            });
        }
        if !block.verify_data_hash() {
            return Err(CommonError::ChainIntegrity {
                block: block.number(),
                detail: "data hash does not match block body".into(),
            });
        }
        Ok(())
    }

    /// The push of [`Self::append`] alone, for a block [`Self::check_next`] accepted with
    /// nothing appended since.
    pub(crate) fn push_checked(&mut self, block: Block) {
        debug_assert_eq!(
            block.number(),
            self.height() + 1,
            "push_checked without check_next"
        );
        self.blocks.push(block);
    }

    /// Fetches a block by height.
    pub fn block(&self, number: u64) -> Result<&Block> {
        if number == 0 || number > self.height() {
            return Err(CommonError::BlockNotFound(number));
        }
        Ok(&self.blocks[(number - 1) as usize])
    }

    /// Iterates over all blocks in order.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }

    /// Total number of transactions appearing in the ledger (the numerator of raw throughput).
    pub fn raw_txn_count(&self) -> usize {
        self.blocks.iter().map(Block::raw_count).sum()
    }

    /// Total number of committed transactions (the numerator of effective throughput).
    pub fn committed_txn_count(&self) -> usize {
        self.blocks.iter().map(Block::committed_count).sum()
    }

    /// Walks the whole chain and re-verifies every link and body hash. Returns the first
    /// violation found, if any.
    pub fn verify_integrity(&self) -> Result<()> {
        let mut prev = Digest::ZERO;
        for (i, block) in self.blocks.iter().enumerate() {
            let expected_number = i as u64 + 1;
            if block.number() != expected_number {
                return Err(CommonError::ChainIntegrity {
                    block: block.number(),
                    detail: format!("height {} out of sequence", block.number()),
                });
            }
            if block.header.prev_hash != prev {
                return Err(CommonError::ChainIntegrity {
                    block: block.number(),
                    detail: "broken hash link".into(),
                });
            }
            if !block.verify_data_hash() {
                return Err(CommonError::ChainIntegrity {
                    block: block.number(),
                    detail: "body does not match data hash".into(),
                });
            }
            prev = block.hash();
        }
        Ok(())
    }

    /// Convenience used by tests and metrics: the commit status of every transaction in ledger
    /// order.
    pub fn statuses(&self) -> Vec<(u64, TxnStatus)> {
        self.blocks
            .iter()
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
        ledger.blocks[1].entries[0]
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
}

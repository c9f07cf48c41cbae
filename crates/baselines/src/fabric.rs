//! Vanilla Hyperledger Fabric v1.3.
//!
//! Fabric's ordering service is completely oblivious to transaction semantics: transactions
//! are batched in consensus order, and all concurrency control happens in the validation phase
//! at the peers (the MVCC staleness check of Section 2.1). During the execute phase Fabric
//! holds a read-write lock so a simulation always runs against the latest block — it can never
//! read across blocks, but the lock serialises endorsement against block commit (the
//! performance cliff under long-running transactions seen in Figure 14). The lock's timing
//! effect is modelled by the simulator's Fabric profile; this type only implements the
//! (trivial) orderer-side behaviour.

use crate::api::{ConcurrencyControl, SystemKind};
use eov_common::txn::{CommitDecision, Transaction};

/// The vanilla Fabric "concurrency control": FIFO batching, validation at the peers.
#[derive(Debug, Default)]
pub(crate) struct FabricCC {
    pending: Vec<Transaction>,
}

impl ConcurrencyControl for FabricCC {
    fn kind(&self) -> SystemKind {
        SystemKind::Fabric
    }

    fn on_arrival(&mut self, txn: Transaction) -> CommitDecision {
        self.pending.push(txn);
        CommitDecision::Accept
    }

    fn pending_len(&self) -> usize {
        self.pending.len()
    }

    fn cut_block(&mut self) -> Vec<Transaction> {
        std::mem::take(&mut self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::rwset::{Key, Value};
    use eov_common::version::SeqNo;
    use eov_ledger::{Block, Digest};

    fn txn(id: u64) -> Transaction {
        Transaction::from_parts(
            id,
            0,
            [(Key::new("A"), SeqNo::new(0, 1))],
            [(Key::new("B"), Value::from_i64(1))],
        )
    }

    #[test]
    fn fifo_order_is_preserved_and_slots_assigned() {
        let mut cc = FabricCC::default();
        for id in [5u64, 3, 9] {
            assert!(cc.on_arrival(txn(id)).is_accept());
        }
        assert_eq!(cc.pending_len(), 3);
        let block = cc.cut_block();
        let ids: Vec<u64> = block.iter().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![5, 3, 9]);
        assert_eq!(cc.pending_len(), 0);
        // The block assigns slots in the cut's order.
        let block = Block::build(1, Digest::ZERO, block);
        let slots: Vec<_> = block
            .entries
            .iter()
            .map(|e| (e.txn.id.0, e.txn.end_ts))
            .collect();
        let slot = |seq| Some(SeqNo::new(1, seq));
        assert_eq!(slots, [(5, slot(1)), (3, slot(2)), (9, slot(3))]);
    }

    #[test]
    fn empty_cut_does_not_advance_the_block_number() {
        let mut cc = FabricCC::default();
        assert!(cc.cut_block().is_empty());
        // Heights come from the ledger: a cut with nothing pending appends no block.
        let mut chain = crate::SimpleChain::new(SystemKind::Fabric);
        assert_eq!(chain.seal_block().block_number, None);
        let _ = chain.submit(txn(1));
        assert_eq!(chain.seal_block().block_number, Some(1));
    }

    #[test]
    fn fabric_requires_peer_validation_and_never_aborts_early() {
        let mut cc = FabricCC::default();
        assert!(cc.needs_peer_validation());
        assert!(cc.on_endorsement(&txn(1), 10).is_accept());
        assert!(cc.early_aborts().is_empty());
        assert_eq!(cc.kind(), SystemKind::Fabric);
    }
}

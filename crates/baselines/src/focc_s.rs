//! Focc-s — the standard serializable-OCC baseline (Cahill et al., SIGMOD 2008).
//!
//! The paper builds this comparison system by dropping the textbook "serializable snapshot
//! isolation" rules into Fabric's ordering phase: an incoming transaction is aborted
//! immediately when it either
//!
//! * has a **concurrent write-write conflict** (snapshot isolation's first-committer-wins
//!   rule), or
//! * forms the **dangerous structure** of two consecutive concurrent read-write conflicts with
//!   at least one anti-dependency — the transaction is a "pivot" with both an incoming and an
//!   outgoing rw edge among its concurrent neighbours.
//!
//! Nothing happens at block formation (the paper: "Focc-s does nothing on block formation").
//! This is a *preventive* scheme: it may abort transactions that FabricSharp can still
//! serialize, but it never lets an unserializable pivot through — which is exactly the
//! behavioural contrast Figures 10–14 measure.

use crate::api::{ConcurrencyControl, SystemKind};
use eov_common::abort::{AbortCounts, AbortReason};
use eov_common::rwset::Key;
use eov_common::txn::{CommitDecision, Transaction, TxnStatus};
use eov_common::version::{concurrent, SeqNo};

/// Footprint of a committed transaction kept for concurrency checks against later arrivals.
#[derive(Clone, Debug)]
struct CommittedFootprint {
    start_ts: SeqNo,
    end_ts: SeqNo,
    read_keys: Vec<Key>,
    write_keys: Vec<Key>,
}

/// The Focc-s orderer-side concurrency control.
#[derive(Debug, Default)]
pub(crate) struct FoccSerializableCC {
    pending: Vec<Transaction>,
    /// Recently committed transactions, kept for `history_blocks` blocks.
    committed: Vec<CommittedFootprint>,
    /// The block being assembled: its number gives an arrival its assumed end slot.
    next_block: u64,
    /// How many past blocks of committed footprints to retain for concurrency checks.
    history_blocks: u64,
    early_aborts: AbortCounts,
}

impl FoccSerializableCC {
    /// Creates a new instance starting at block 1, retaining 10 blocks of history (the same
    /// horizon FabricSharp uses for `max_span`).
    pub(crate) fn new() -> Self {
        FoccSerializableCC {
            pending: Vec::new(),
            committed: Vec::new(),
            next_block: 1,
            history_blocks: 10,
            early_aborts: AbortCounts::default(),
        }
    }

    /// Committed transactions concurrent with a transaction having the given timestamps.
    fn concurrent_committed(
        &self,
        start_ts: SeqNo,
        assumed_end: SeqNo,
    ) -> impl Iterator<Item = &CommittedFootprint> {
        self.committed
            .iter()
            .filter(move |c| concurrent((start_ts, assumed_end), (c.start_ts, c.end_ts)))
    }

    /// Whether the incoming transaction has a concurrent write-write conflict.
    fn has_concurrent_ww(&self, txn: &Transaction, assumed_end: SeqNo) -> bool {
        // Against committed, concurrent transactions.
        let committed_hit = self
            .concurrent_committed(txn.start_ts(), assumed_end)
            .any(|c| c.write_keys.iter().any(|k| txn.write_set.contains(k)));
        if committed_hit {
            return true;
        }
        // Against pending transactions (all pending transactions are concurrent with the
        // incoming one — Proposition 2).
        self.pending
            .iter()
            .any(|p| p.write_set.keys().any(|k| txn.write_set.contains(k)))
    }

    /// Whether the incoming transaction is a pivot: it has both an outgoing rw conflict (it
    /// reads something a concurrent transaction writes) and an incoming rw conflict (it writes
    /// something a concurrent transaction reads).
    fn has_dangerous_structure(&self, txn: &Transaction, assumed_end: SeqNo) -> bool {
        let outgoing = self
            .concurrent_committed(txn.start_ts(), assumed_end)
            .any(|c| c.write_keys.iter().any(|k| txn.read_set.contains(k)))
            || self
                .pending
                .iter()
                .any(|p| p.write_set.keys().any(|k| txn.read_set.contains(k)));
        if !outgoing {
            return false;
        }
        let incoming = self
            .concurrent_committed(txn.start_ts(), assumed_end)
            .any(|c| c.read_keys.iter().any(|k| txn.write_set.contains(k)))
            || self
                .pending
                .iter()
                .any(|p| p.read_set.keys().any(|k| txn.write_set.contains(k)));
        outgoing && incoming
    }
}

impl ConcurrencyControl for FoccSerializableCC {
    fn kind(&self) -> SystemKind {
        SystemKind::FoccS
    }

    fn on_arrival(&mut self, txn: Transaction) -> CommitDecision {
        // The transaction, if accepted, will commit somewhere in the block being assembled.
        let assumed_end = SeqNo::new(self.next_block, self.pending.len() as u32 + 1);

        if self.has_concurrent_ww(&txn, assumed_end) {
            self.early_aborts.add(AbortReason::ConcurrentWriteWrite, 1);
            CommitDecision::Reject(AbortReason::ConcurrentWriteWrite)
        } else if self.has_dangerous_structure(&txn, assumed_end) {
            self.early_aborts.add(AbortReason::DangerousStructure, 1);
            CommitDecision::Reject(AbortReason::DangerousStructure)
        } else {
            self.pending.push(txn);
            CommitDecision::Accept
        }
    }

    fn pending_len(&self) -> usize {
        self.pending.len()
    }

    fn cut_block(&mut self) -> Vec<Transaction> {
        if !self.pending.is_empty() {
            self.next_block += 1;
        }
        std::mem::take(&mut self.pending)
    }

    fn on_block_committed(&mut self, block_no: u64, outcome: &[(Transaction, TxnStatus)]) {
        self.next_block = self.next_block.max(block_no + 1);
        // The outcome is the block's entries in order: entry `i` committed at `(block, i + 1)`.
        for (seq, (txn, status)) in (1..).zip(outcome) {
            if status.is_committed() {
                self.committed.push(CommittedFootprint {
                    start_ts: txn.start_ts(),
                    end_ts: SeqNo::new(block_no, seq),
                    read_keys: txn.read_set.keys().cloned().collect(),
                    write_keys: txn.write_set.keys().cloned().collect(),
                });
            }
        }
        // Retire footprints older than the history window.
        let horizon = block_no.saturating_sub(self.history_blocks);
        self.committed.retain(|c| c.end_ts.block >= horizon);
    }

    fn early_aborts(&self) -> Vec<(AbortReason, u64)> {
        self.early_aborts.nonzero().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::rwset::Value;

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    fn txn(id: u64, snapshot: u64, reads: &[(&str, (u64, u32))], writes: &[&str]) -> Transaction {
        Transaction::from_parts(
            id,
            snapshot,
            reads.iter().map(|(key, v)| (k(key), SeqNo::new(v.0, v.1))),
            writes
                .iter()
                .map(|key| (k(key), Value::from_i64(id as i64))),
        )
    }

    #[test]
    fn concurrent_write_write_is_aborted() {
        let mut cc = FoccSerializableCC::new();
        assert!(cc.on_arrival(txn(1, 0, &[], &["H"])).is_accept());
        let decision = cc.on_arrival(txn(2, 0, &[], &["H"]));
        assert_eq!(
            decision,
            CommitDecision::Reject(AbortReason::ConcurrentWriteWrite)
        );
        assert_eq!(
            cc.early_aborts(),
            vec![(AbortReason::ConcurrentWriteWrite, 1)]
        );
        // FabricSharp would accept both (Lemma 4) — this over-abortion is exactly the gap the
        // write-hot-ratio experiment (Figure 11) exposes.
    }

    #[test]
    fn dangerous_structure_is_aborted_but_single_rw_is_not() {
        let mut cc = FoccSerializableCC::new();
        // Pending txn1 reads A and writes B.
        assert!(cc
            .on_arrival(txn(1, 0, &[("A", (0, 1))], &["B"]))
            .is_accept());
        // txn2 reads B (outgoing rw vs txn1's write) but writes nothing anyone reads: accepted.
        assert!(cc
            .on_arrival(txn(2, 0, &[("B", (0, 2))], &["C"]))
            .is_accept());
        // txn3 reads C (outgoing rw vs txn2) AND writes A (incoming rw vs txn1): pivot → abort.
        let decision = cc.on_arrival(txn(3, 0, &[("C", (0, 3))], &["A"]));
        assert_eq!(
            decision,
            CommitDecision::Reject(AbortReason::DangerousStructure)
        );
    }

    #[test]
    fn conflicts_with_concurrent_committed_transactions_are_detected() {
        let mut cc = FoccSerializableCC::new();
        // A committed transaction in block 1 that wrote H and was concurrent with anything
        // simulated against block 0.
        let committed = txn(9, 0, &[("Z", (0, 9))], &["H"]);
        cc.on_block_committed(1, &[(committed, TxnStatus::Committed)]);

        // An incoming transaction simulated against block 0 writing H: concurrent c-ww.
        let decision = cc.on_arrival(txn(2, 0, &[], &["H"]));
        assert_eq!(
            decision,
            CommitDecision::Reject(AbortReason::ConcurrentWriteWrite)
        );

        // The same write from a snapshot *after* the committed transaction is not concurrent
        // and is accepted.
        assert!(cc.on_arrival(txn(3, 1, &[], &["H"])).is_accept());
    }

    #[test]
    fn history_window_prunes_old_footprints() {
        let mut cc = FoccSerializableCC::new();
        let old = txn(1, 0, &[], &["H"]);
        cc.on_block_committed(1, &[(old, TxnStatus::Committed)]);
        assert_eq!(cc.committed.len(), 1);
        // Committing block 20 retires footprints older than 20 - 10.
        cc.on_block_committed(20, &[]);
        assert!(cc.committed.is_empty());
    }

    #[test]
    fn fifo_block_formation() {
        let mut cc = FoccSerializableCC::new();
        assert!(cc.on_arrival(txn(1, 0, &[], &["A"])).is_accept());
        assert!(cc.on_arrival(txn(2, 0, &[], &["B"])).is_accept());
        let block = cc.cut_block();
        assert_eq!(block.iter().map(|t| t.id.0).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(cc.next_block, 2);
        assert!(cc.cut_block().is_empty());
        assert_eq!(cc.next_block, 2, "an empty cut forms no block");
        assert!(cc.needs_peer_validation());
    }
}

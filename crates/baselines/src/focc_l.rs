//! Focc-l — batch reordering with a sort-based greedy algorithm (Ding et al., VLDB 2019).
//!
//! The paper's second database-derived comparison system takes the opposite trade-off from
//! Focc-s: it never aborts anything early ("Focc-l does not filter any transactions in
//! Algorithm 2") and instead, at block formation, reorders the batch so that as many
//! transactions as possible survive the peers' MVCC validation. The reordering is the
//! light-weight sort-based greedy pass the paper describes: build the read-write dependency
//! graph over the pending batch, then repeatedly emit transactions without unresolved
//! dependencies; when a cycle blocks progress, emit the least-conflicting transaction anyway
//! (it will be the one validation sacrifices). Because the whole pass is a couple of linear
//! scans per round it stays fast even for 500-transaction blocks — the 0.12 ms vs 401 ms
//! contrast with Fabric++ reported in Section 5.3.

use crate::api::{reader_to_writers, ConcurrencyControl, SystemKind};
use eov_common::txn::{CommitDecision, Transaction};
use std::collections::HashSet;

/// The Focc-l orderer-side concurrency control.
#[derive(Debug, Default)]
pub(crate) struct FoccLightCC {
    pending: Vec<Transaction>,
}

impl FoccLightCC {
    /// The sort-based greedy reordering: returns the indices of `txns` in emission order.
    fn greedy_order(txns: &[Transaction]) -> Vec<usize> {
        let n = txns.len();
        // Edge reader → writer: the reader must be emitted before the writer to survive
        // validation (same constraint Fabric++ uses, but resolved greedily instead of via
        // exhaustive cycle enumeration). A writer's in-degree counts each key it writes that a
        // reader reads.
        let succ = reader_to_writers(txns);
        let mut indegree: Vec<usize> = vec![0; n];
        for &w_idx in succ.iter().flatten() {
            indegree[w_idx] += 1;
        }

        let mut emitted: Vec<usize> = Vec::with_capacity(n);
        let mut done: Vec<bool> = vec![false; n];
        let mut remaining = n;
        while remaining > 0 {
            // Round: emit every transaction whose constraints are satisfied, in arrival order.
            let ready: Vec<usize> = (0..n).filter(|&i| !done[i] && indegree[i] == 0).collect();
            let batch = if ready.is_empty() {
                // Cycle: greedily sacrifice the transaction with the fewest unresolved
                // incoming constraints (ties broken by arrival order). It stays in the block —
                // peers will abort it — but releasing it lets the rest proceed.
                let victim = (0..n)
                    .filter(|&i| !done[i])
                    .min_by_key(|&i| (indegree[i], i))
                    .expect("remaining > 0");
                vec![victim]
            } else {
                ready
            };
            for i in batch {
                done[i] = true;
                remaining -= 1;
                emitted.push(i);
                for &j in &succ[i] {
                    if !done[j] {
                        indegree[j] = indegree[j].saturating_sub(1);
                    }
                }
            }
        }
        emitted
    }
}

impl ConcurrencyControl for FoccLightCC {
    fn kind(&self) -> SystemKind {
        SystemKind::FoccL
    }

    fn on_arrival(&mut self, txn: Transaction) -> CommitDecision {
        self.pending.push(txn);
        CommitDecision::Accept
    }

    fn pending_len(&self) -> usize {
        self.pending.len()
    }

    fn cut_block(&mut self) -> Vec<Transaction> {
        let batch = std::mem::take(&mut self.pending);
        let order = Self::greedy_order(&batch);

        debug_assert_eq!(
            order.iter().copied().collect::<HashSet<_>>().len(),
            batch.len()
        );
        let mut slots: Vec<Option<Transaction>> = batch.into_iter().map(Some).collect();
        order
            .into_iter()
            .map(|idx| slots[idx].take().expect("each index emitted once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::rwset::{Key, Value};
    use eov_common::version::SeqNo;

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    fn txn(id: u64, reads: &[(&str, (u64, u32))], writes: &[&str]) -> Transaction {
        Transaction::from_parts(
            id,
            0,
            reads.iter().map(|(key, v)| (k(key), SeqNo::new(v.0, v.1))),
            writes
                .iter()
                .map(|key| (k(key), Value::from_i64(id as i64))),
        )
    }

    #[test]
    fn nothing_is_ever_aborted_early() {
        let mut cc = FoccLightCC::default();
        for id in 1..=10u64 {
            assert!(cc.on_arrival(txn(id, &[("A", (0, 1))], &["A"])).is_accept());
        }
        assert_eq!(cc.pending_len(), 10);
        assert!(cc.early_aborts().is_empty());
        assert!(cc.needs_peer_validation());
    }

    #[test]
    fn readers_are_reordered_before_writers() {
        let mut cc = FoccLightCC::default();
        // Writer of X arrives first, reader of X second — greedy pass flips them.
        assert!(cc.on_arrival(txn(1, &[], &["X"])).is_accept());
        assert!(cc.on_arrival(txn(2, &[("X", (0, 1))], &["Y"])).is_accept());
        let block = cc.cut_block();
        assert_eq!(block.iter().map(|t| t.id.0).collect::<Vec<_>>(), vec![2, 1]);
    }

    #[test]
    fn cycles_keep_every_transaction_in_the_block() {
        let mut cc = FoccLightCC::default();
        // Write skew cycle: both stay in the block (Focc-l leaves the abort to validation).
        assert!(cc.on_arrival(txn(1, &[("A", (0, 1))], &["B"])).is_accept());
        assert!(cc.on_arrival(txn(2, &[("B", (0, 2))], &["A"])).is_accept());
        let block = cc.cut_block();
        assert_eq!(block.len(), 2);
    }

    #[test]
    fn independent_transactions_keep_arrival_order() {
        let mut cc = FoccLightCC::default();
        for id in [4u64, 2, 7] {
            assert!(cc.on_arrival(txn(id, &[], &["K"])).is_accept());
        }
        // All three write the same key but nobody reads it: no reader→writer edges, so the
        // greedy pass emits them in arrival order.
        let block = cc.cut_block();
        assert_eq!(
            block.iter().map(|t| t.id.0).collect::<Vec<_>>(),
            vec![4, 2, 7]
        );
    }

    #[test]
    fn every_transaction_is_emitted_exactly_once_under_heavy_conflict() {
        let mut cc = FoccLightCC::default();
        for id in 1..=20u64 {
            // Everyone reads and writes the same two keys: maximal conflict.
            assert!(cc
                .on_arrival(txn(id, &[("A", (0, 1)), ("B", (0, 2))], &["A", "B"]))
                .is_accept());
        }
        let block = cc.cut_block();
        assert_eq!(block.len(), 20);
        let ids: HashSet<u64> = block.iter().map(|t| t.id.0).collect();
        assert_eq!(ids.len(), 20);
    }
}

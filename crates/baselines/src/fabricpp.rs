//! Fabric++ (Sharma et al., SIGMOD 2019).
//!
//! Fabric++ keeps Fabric's architecture but adds two optimisations:
//!
//! 1. **Early abort of cross-block reads** — the read-write lock is removed from the execute
//!    phase, and any simulation that observed a block commit while it was running (i.e. whose
//!    snapshot is older than the latest block at submission time) is aborted immediately
//!    ("simulation abort" in Figure 14).
//! 2. **Within-block reordering** — just before a block is cut, the orderer (a) drops
//!    transactions whose reads are already stale with respect to the committed state (they
//!    could never pass validation no matter the order), (b) builds the conflict graph among the
//!    block's transactions, (c) breaks cycles by greedily aborting the most-conflicting
//!    transactions, and (d) emits the rest in an order that puts readers before the writers
//!    that would invalidate them.
//!
//! The crucial limitation the paper exploits: the reordering scope is a *single block*, and
//! dependencies on transactions in earlier blocks (which are still concurrent, Proposition 3)
//! are not considered.

use crate::api::{reader_to_writers, ConcurrencyControl, SystemKind};
use eov_common::abort::{AbortCounts, AbortReason};
use eov_common::rwset::Key;
use eov_common::txn::{CommitDecision, Transaction, TxnStatus};
use eov_common::version::SeqNo;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// The Fabric++ orderer-side concurrency control.
#[derive(Debug, Default)]
pub(crate) struct FabricPlusPlusCC {
    pending: Vec<Transaction>,
    /// Latest committed version per key, learnt from `on_block_committed`; used for the
    /// early-abort-of-stale-reads step of the reordering.
    latest_versions: HashMap<Key, SeqNo>,
    early_aborts: AbortCounts,
}

impl FabricPlusPlusCC {
    /// The within-block reordering of Fabric++: returns the surviving transactions in their
    /// new order; the dropped ones are counted as early aborts.
    fn reorder_block(&mut self, txns: Vec<Transaction>) -> Vec<Transaction> {
        // Step (a): drop transactions whose reads are already stale against committed state.
        let mut candidates: Vec<Transaction> = Vec::with_capacity(txns.len());
        for txn in txns {
            let stale = txn.read_set.iter().any(|read| {
                self.latest_versions
                    .get(&read.key)
                    .map(|latest| *latest > read.version)
                    .unwrap_or(false)
            });
            if stale {
                self.early_aborts.add(AbortReason::StaleRead, 1);
            } else {
                candidates.push(txn);
            }
        }

        // Step (b): conflict graph. Edge reader → writer whenever a transaction in the block
        // writes a key another transaction in the block read: the reader must be ordered
        // before the writer or it becomes invalid.
        let n = candidates.len();
        // Deterministic (ascending, duplicate-free) edge lists: the cycle-finding DFS below
        // walks these, and which cycle it reports decides the abort victim. A `HashSet` here
        // made the victim depend on the per-instance hash seed — two identically-fed orderers
        // could cut different blocks, violating the Section 3.5 agreement property (caught by
        // the pipeline determinism harness). `reader_to_writers` lists writers in block order,
        // so dropping adjacent repeats leaves each edge once.
        let mut edges = reader_to_writers(&candidates);
        for targets in &mut edges {
            targets.dedup();
        }
        // The same edges from the other end: `preds[j]` lists every `i` with an edge i → j.
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, targets) in edges.iter().enumerate() {
            for &j in targets {
                preds[j].push(i);
            }
        }

        // Step (c): break cycles greedily — while the graph has a cycle, abort the transaction
        // with the highest total degree among nodes on some cycle.
        let mut alive: Vec<bool> = vec![true; n];
        let alive_degree =
            |alive: &[bool], nodes: &[usize]| nodes.iter().filter(|&&j| alive[j]).count();
        while let Some(cycle_nodes) = find_cycle_nodes(&edges, &alive) {
            let victim = cycle_nodes
                .iter()
                .copied()
                .max_by_key(|&i| {
                    let degree = alive_degree(&alive, &edges[i]) + alive_degree(&alive, &preds[i]);
                    (degree, i)
                })
                .expect("cycle is non-empty");
            alive[victim] = false;
            self.early_aborts.add(AbortReason::InBlockCycle, 1);
        }

        // Step (d): topological order of the survivors (readers before writers), the lowest
        // original position first among the ready ones so replicas agree.
        let mut indegree: Vec<usize> = (0..n).map(|j| alive_degree(&alive, &preds[j])).collect();
        let mut ready: BinaryHeap<Reverse<usize>> = (0..n)
            .filter(|&i| alive[i] && indegree[i] == 0)
            .map(Reverse)
            .collect();
        let mut order: Vec<usize> = Vec::with_capacity(n);
        while let Some(Reverse(i)) = ready.pop() {
            order.push(i);
            for &j in &edges[i] {
                if alive[j] {
                    indegree[j] -= 1;
                    if indegree[j] == 0 {
                        ready.push(Reverse(j));
                    }
                }
            }
        }

        let mut slots: Vec<Option<Transaction>> = candidates.into_iter().map(Some).collect();
        order.into_iter().filter_map(|i| slots[i].take()).collect()
    }
}

/// Returns the set of alive nodes that sit on at least one cycle, or `None` if the alive
/// sub-graph is acyclic. Uses a DFS colouring and reports the grey stack when a back edge is
/// found. Each node's children are taken by index from the end of its edge list.
fn find_cycle_nodes(edges: &[Vec<usize>], alive: &[bool]) -> Option<Vec<usize>> {
    #[derive(Clone, Copy, PartialEq)]
    enum C {
        White,
        Grey,
        Black,
    }
    let n = edges.len();
    let mut colour = vec![C::White; n];
    for start in 0..n {
        if !alive[start] || colour[start] != C::White {
            continue;
        }
        // Iterative DFS with explicit path tracking: each frame is a node and how many of its
        // children are still to visit.
        let mut stack: Vec<(usize, usize)> = vec![(start, edges[start].len())];
        colour[start] = C::Grey;
        let mut path = vec![start];
        while let Some((node, unvisited)) = stack.last_mut() {
            if *unvisited > 0 {
                *unvisited -= 1;
                let child = edges[*node][*unvisited];
                if !alive[child] {
                    continue;
                }
                match colour[child] {
                    C::Grey => {
                        // Found a cycle: everything on the current path from `child` onward.
                        let pos = path.iter().position(|&x| x == child).unwrap_or(0);
                        return Some(path[pos..].to_vec());
                    }
                    C::White => {
                        colour[child] = C::Grey;
                        path.push(child);
                        stack.push((child, edges[child].len()));
                    }
                    C::Black => {}
                }
            } else {
                colour[*node] = C::Black;
                path.pop();
                stack.pop();
            }
        }
    }
    None
}

impl ConcurrencyControl for FabricPlusPlusCC {
    fn kind(&self) -> SystemKind {
        SystemKind::FabricPlusPlus
    }

    fn on_endorsement(&mut self, txn: &Transaction, latest_block: u64) -> CommitDecision {
        // Simulations that observed a block commit while running are aborted (Fabric++ removes
        // the execute-phase lock but refuses cross-block reads). Read-free transactions have
        // nothing to read across blocks, so they are exempt.
        if latest_block > txn.snapshot_block && !txn.read_set.is_empty() {
            self.early_aborts.add(AbortReason::CrossBlockRead, 1);
            CommitDecision::Reject(AbortReason::CrossBlockRead)
        } else {
            CommitDecision::Accept
        }
    }

    fn on_arrival(&mut self, txn: Transaction) -> CommitDecision {
        self.pending.push(txn);
        CommitDecision::Accept
    }

    fn pending_len(&self) -> usize {
        self.pending.len()
    }

    fn cut_block(&mut self) -> Vec<Transaction> {
        // When every transaction is dropped the cut is empty, and no block is appended.
        let batch = std::mem::take(&mut self.pending);
        self.reorder_block(batch)
    }

    fn on_block_committed(&mut self, block_no: u64, outcome: &[(Transaction, TxnStatus)]) {
        // The outcome is the block's entries in order: entry `i` committed at `(block, i + 1)`.
        for (seq, (txn, status)) in (1..).zip(outcome) {
            if status.is_committed() {
                for write in txn.write_set.iter() {
                    self.latest_versions
                        .insert(write.key.clone(), SeqNo::new(block_no, seq));
                }
            }
        }
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
    fn cross_block_reads_are_aborted_at_endorsement() {
        let mut cc = FabricPlusPlusCC::default();
        let t = txn(1, 3, &[("A", (1, 1))], &["B"]);
        assert!(cc.on_endorsement(&t, 3).is_accept());
        assert_eq!(
            cc.on_endorsement(&t, 4),
            CommitDecision::Reject(AbortReason::CrossBlockRead)
        );
        assert_eq!(cc.early_aborts(), vec![(AbortReason::CrossBlockRead, 1)]);
    }

    #[test]
    fn table1_reordering_commits_txn4_and_txn5_instead_of_txn3() {
        // The paper's Table 1: within block 3, Fabric++ reorders Txn3 behind Txn4 and Txn5,
        // committing those two and aborting Txn3 (Txn2 is already stale and dropped outright
        // once the committed state is known).
        let mut cc = FabricPlusPlusCC::default();
        // Teach the CC the committed state after block 2 (B and C at version (2,1)).
        let block2_writer = txn(90, 1, &[], &["B", "C"]);
        cc.on_block_committed(2, &[(block2_writer, TxnStatus::Committed)]);

        let txn2 = txn(2, 1, &[("A", (1, 1)), ("B", (1, 2))], &["C"]);
        let txn3 = txn(3, 2, &[("B", (2, 1))], &["C"]);
        let txn4 = txn(4, 2, &[("C", (2, 1))], &["B"]);
        let txn5 = txn(5, 2, &[("C", (2, 1))], &["A"]);
        for t in [txn2, txn3, txn4, txn5] {
            assert!(cc.on_arrival(t).is_accept());
        }
        let block = cc.cut_block();
        let ids: Vec<u64> = block.iter().map(|t| t.id.0).collect();
        // Txn2 dropped (stale read of B); one of {3} aborted to break the cycle with 4
        // (3 writes C which 4/5 read; 4 writes B which 3 reads).
        assert!(
            !ids.contains(&2),
            "stale Txn2 must be dropped before reordering"
        );
        assert!(
            ids.contains(&4) && ids.contains(&5),
            "Txn4 and Txn5 must survive, got {ids:?}"
        );
        assert!(
            !ids.contains(&3),
            "Txn3 is the cycle-breaking victim, got {ids:?}"
        );
        // Readers of C (4, 5) must come before any writer of C — trivially true since 3 was
        // dropped; the block is just [4, 5] in some order.
        assert_eq!(block.len(), 2);
    }

    #[test]
    fn readers_are_ordered_before_writers_within_a_block() {
        let mut cc = FabricPlusPlusCC::default();
        // Arrival order: writer of X first, then a reader of X — reordering must flip them so
        // the reader survives validation.
        assert!(cc.on_arrival(txn(1, 0, &[], &["X"])).is_accept());
        assert!(cc
            .on_arrival(txn(2, 0, &[("X", (0, 1))], &["Y"]))
            .is_accept());
        let block = cc.cut_block();
        let ids: Vec<u64> = block.iter().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![2, 1]);
    }

    #[test]
    fn unbreakable_two_txn_cycle_aborts_one_victim() {
        let mut cc = FabricPlusPlusCC::default();
        // t1 reads A writes B, t2 reads B writes A → reader-before-writer constraints both
        // ways → cycle → exactly one of them is aborted.
        assert!(cc
            .on_arrival(txn(1, 0, &[("A", (0, 1))], &["B"]))
            .is_accept());
        assert!(cc
            .on_arrival(txn(2, 0, &[("B", (0, 2))], &["A"]))
            .is_accept());
        let block = cc.cut_block();
        assert_eq!(block.len(), 1);
        let aborted: u64 = cc.early_aborts().iter().map(|(_, c)| c).sum();
        assert_eq!(aborted, 1);
    }

    /// Regression test: two independently constructed orderers fed the same arrival stream
    /// must cut byte-identical blocks. With hash-seeded edge sets the cycle-breaking victim
    /// depended on the per-instance hash seed, so replicas could disagree (a Section 3.5
    /// agreement violation surfaced by the pipeline determinism harness).
    #[test]
    fn replicated_instances_break_cycles_identically() {
        // A batch with several overlapping rw cycles so the victim choice is genuinely
        // contested: t_i reads k_{i} and writes k_{i+1 mod 5}.
        let batch: Vec<Transaction> = (0..5u64)
            .map(|i| {
                let read_key = format!("k{i}");
                let write_key = format!("k{}", (i + 1) % 5);
                txn(
                    i + 1,
                    0,
                    &[(read_key.as_str(), (0, 1))],
                    &[write_key.as_str()],
                )
            })
            .collect();
        let cut = |mut cc: FabricPlusPlusCC| -> Vec<u64> {
            for t in batch.clone() {
                assert!(cc.on_arrival(t).is_accept());
            }
            cc.cut_block().iter().map(|t| t.id.0).collect()
        };
        let reference = cut(FabricPlusPlusCC::default());
        for _ in 0..10 {
            assert_eq!(cut(FabricPlusPlusCC::default()), reference);
        }
    }

    fn txn_with_key_refs(id: u64, reads: &[&str], writes: &[&str]) -> Transaction {
        Transaction::from_parts(
            id,
            0,
            reads.iter().map(|key| (k(key), SeqNo::new(0, 1))),
            writes
                .iter()
                .map(|key| (k(key), Value::from_i64(id as i64))),
        )
    }

    #[test]
    fn replicated_instances_agree_on_dense_conflict_batches() {
        let keys = ["A", "B", "C", "D"];
        let batch: Vec<Transaction> = (0..8u64)
            .map(|i| {
                let r = keys[(i % 4) as usize];
                let w = keys[((i + 1) % 4) as usize];
                txn_with_key_refs(i + 1, &[r], &[w])
            })
            .collect();
        let cut = |mut cc: FabricPlusPlusCC| -> Vec<u64> {
            for t in batch.clone() {
                let _ = cc.on_arrival(t);
            }
            cc.cut_block().iter().map(|t| t.id.0).collect()
        };
        let reference = cut(FabricPlusPlusCC::default());
        for _ in 0..10 {
            assert_eq!(cut(FabricPlusPlusCC::default()), reference);
        }
    }

    #[test]
    fn empty_cut_and_all_dropped_cut_produce_no_block() {
        let mut cc = FabricPlusPlusCC::default();
        assert!(cc.cut_block().is_empty());
        // A single transaction that is already stale: dropped, no block.
        let writer = txn(9, 0, &[], &["A"]);
        cc.on_block_committed(1, &[(writer, TxnStatus::Committed)]);
        assert!(cc
            .on_arrival(txn(1, 0, &[("A", (0, 1))], &["B"]))
            .is_accept());
        assert!(cc.cut_block().is_empty());
        assert_eq!(cc.early_aborts(), vec![(AbortReason::StaleRead, 1)]);
    }
}

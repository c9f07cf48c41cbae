//! Dependency-graph pruning (Section 4.6).
//!
//! The graph would otherwise grow without bound, so FabricSharp prunes transactions that can
//! no longer matter:
//!
//! 1. **Stale snapshots** — a parameter `max_span` bounds how many blocks a transaction's
//!    simulation snapshot may lag behind the next block. With the next block being `M`, the
//!    snapshot threshold is `H = M − max_span`; transactions simulated against block `H` or
//!    earlier are aborted outright (this check lives in the arrival path, see
//!    [`snapshot_threshold`]).
//! 2. **Unreachable-from-the-future transactions** — a committed transaction whose *age*
//!    (the highest block whose transactions can still reach it) has fallen behind the snapshot
//!    threshold can never participate in a cycle with any future transaction, because future
//!    transactions only acquire anti-rw edges into writers at or after their start timestamp.
//!    Such nodes are removed, together with any dangling successor references.

use crate::graph::DependencyGraph;
use eov_common::txn::TxnId;

/// The snapshot threshold `H = next_block − max_span` (saturating at 0).
pub fn snapshot_threshold(next_block: u64, max_span: u64) -> u64 {
    next_block.saturating_sub(max_span)
}

impl DependencyGraph {
    /// Removes every *committed* node whose age is strictly below `threshold`. Pending nodes
    /// are never pruned (they are about to be committed in the next block, so their age equals
    /// the next block number by construction). Returns the pruned transaction ids.
    pub fn prune_stale(&mut self, threshold: u64) -> Vec<TxnId> {
        // Collected in slot order — an allocation artifact — so sort before anything
        // sequences on it (`remove_many` releases slots in the order given).
        let mut pruned: Vec<TxnId> = self
            .nodes()
            .filter(|n| !n.is_pending() && n.age < threshold)
            .map(|n| n.id)
            .collect();
        pruned.sort_unstable();
        self.remove_many(&pruned);
        pruned
    }

    /// Convenience used by the orderer: computes the threshold from the next block number and
    /// the configured `max_span`, then prunes. Returns the number of nodes removed.
    pub fn prune_for_next_block(&mut self, next_block: u64) -> usize {
        let threshold = snapshot_threshold(next_block, self.config().max_span);
        self.prune_stale(threshold).len()
    }

    /// Test helper: directly overrides a node's age.
    #[cfg(test)]
    pub(crate) fn set_age_for_test(&mut self, id: TxnId, age: u64) {
        if let Some(node) = self.node_mut(id) {
            node.age = age;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::config::CcConfig;
    use eov_common::version::SeqNo;

    fn graph() -> DependencyGraph {
        DependencyGraph::new(CcConfig {
            max_span: 10,
            ..CcConfig::default()
        })
    }

    #[test]
    fn threshold_saturates_at_zero() {
        assert_eq!(snapshot_threshold(5, 10), 0);
        assert_eq!(snapshot_threshold(15, 10), 5);
        assert_eq!(snapshot_threshold(100, 10), 90);
    }

    #[test]
    fn old_committed_nodes_are_pruned_and_links_cleaned() {
        let mut g = graph();
        // Node 1 committed long ago (age 1); node 2 is a recent committed successor (age 8);
        // node 3 is pending.
        g.insert_pending(TxnId(1), &[], &[], 1);
        g.mark_committed(TxnId(1), SeqNo::new(1, 1));
        g.insert_pending(TxnId(2), &[TxnId(1)], &[], 8);
        g.mark_committed(TxnId(2), SeqNo::new(8, 1));
        g.insert_pending(TxnId(3), &[TxnId(2)], &[], 9);
        g.set_age_for_test(TxnId(1), 1);
        g.set_age_for_test(TxnId(2), 8);

        let pruned = g.prune_stale(5);
        assert_eq!(pruned, vec![TxnId(1)]);
        assert!(!g.contains(TxnId(1)));
        assert!(g.contains(TxnId(2)));
        assert!(g.contains(TxnId(3)));
        // No dangling successor references remain anywhere.
        for node in g.nodes() {
            for &s in &node.succ {
                assert!(g.node_at(s).is_some(), "dangling successor slot {s}");
            }
        }
    }

    #[test]
    fn pending_nodes_are_never_pruned() {
        let mut g = graph();
        g.insert_pending(TxnId(1), &[], &[], 1);
        g.set_age_for_test(TxnId(1), 0);
        let pruned = g.prune_stale(100);
        assert!(pruned.is_empty());
        assert!(g.contains(TxnId(1)));
    }

    #[test]
    fn figure9_txn1_is_prunable_others_are_not() {
        // Figure 9: ages — Txn1: 1, all others: 4; the snapshot threshold has passed 1 so Txn1
        // (red) is subject to pruning while the rest stay.
        let mut g = graph();
        for id in 0..10u64 {
            g.insert_pending(TxnId(id), &[], &[], 4);
            if id != 3 && id != 5 && id != 7 && id != 4 && id != 0 {
                g.mark_committed(TxnId(id), SeqNo::new(3, id as u32 + 1));
            }
        }
        g.set_age_for_test(TxnId(1), 1);
        let pruned = g.prune_stale(2);
        assert_eq!(pruned, vec![TxnId(1)]);
        assert_eq!(g.len(), 9);
    }

    #[test]
    fn prune_for_next_block_uses_configured_max_span() {
        let mut g = graph();
        g.insert_pending(TxnId(1), &[], &[], 2);
        g.mark_committed(TxnId(1), SeqNo::new(2, 1));
        g.set_age_for_test(TxnId(1), 2);
        // next block 5 → threshold max(5-10, 0)=0: nothing pruned.
        assert_eq!(g.prune_for_next_block(5), 0);
        // next block 20 → threshold 10 > age 2: pruned.
        assert_eq!(g.prune_for_next_block(20), 1);
        assert!(g.is_empty());
    }
}

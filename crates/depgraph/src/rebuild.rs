//! Reachability rebuilding — a maintenance operation that exists but is **not deployed**.
//!
//! The per-node `anti_reachable` bloom filters only ever gain bits: unions at insert time
//! (Algorithm 4), restored ww edges (Algorithm 5), and bits inherited from transactions that
//! have since been pruned. Over a long run the filters saturate and the false-positive rate —
//! and with it the preventive-abort rate — creeps up. Section 4.4 bounds this with the
//! two-filter relay; an equivalent (and simpler to replicate deterministically) remedy would
//! be to periodically *rebuild* every filter from the current successor edges, which discards
//! every bit that belongs to pruned transactions; honest orderers triggering the rebuild at
//! the same block heights would keep determinism exactly as the relay does.
//!
//! Nothing outside tests calls [`DependencyGraph::rebuild_reachability`]: no orderer path, no
//! block-height trigger, no configuration field schedules it, and the two-filter relay is not
//! implemented either, so the filters of a long run saturate and a filter false positive aborts
//! a transaction that could have committed. The remedy ROADMAP item 2 plans is not a periodic
//! rebuild but exact slot-indexed reach sets that forget a transaction when it is pruned, with
//! this recompute as its debug-build check.

use crate::graph::DependencyGraph;
use eov_common::txn::TxnId;

impl DependencyGraph {
    /// Recomputes every node's `anti_reachable` set from scratch using the current successor
    /// edges. Returns the number of nodes whose filters were rebuilt.
    ///
    /// Every set starts empty, then one downstream pass from every node pushes each node's
    /// closure (itself plus everything that reaches it) into its successors in topological
    /// order — the pass Algorithm 5 runs from the heads of its restored edges.
    pub(crate) fn rebuild_reachability(&mut self) -> usize {
        let ids: Vec<TxnId> = self.nodes().map(|n| n.id).collect();
        for &id in &ids {
            let empty = self.empty_reach_set();
            if let Some(node) = self.node_mut(id) {
                node.anti_reachable = empty;
            }
        }
        let slots: Vec<u32> = ids.iter().filter_map(|&id| self.slot_of(id)).collect();
        self.propagate_from(&slots);
        slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::config::CcConfig;
    use eov_common::version::SeqNo;

    fn graph() -> DependencyGraph {
        DependencyGraph::new(CcConfig::default())
    }

    #[test]
    fn rebuild_preserves_reachability_semantics() {
        let mut g = graph();
        // Chain 1 → 2 → 3 plus a side edge 1 → 4.
        g.insert_pending(TxnId(1), &[], &[], 1);
        g.insert_pending(TxnId(2), &[TxnId(1)], &[], 1);
        g.insert_pending(TxnId(3), &[TxnId(2)], &[], 1);
        g.insert_pending(TxnId(4), &[TxnId(1)], &[], 1);

        let rebuilt = g.rebuild_reachability();
        assert_eq!(rebuilt, 4);
        // Exactly the same reachability facts hold after the rebuild.
        for (from, to, expected) in [
            (1u64, 3u64, true),
            (1, 4, true),
            (2, 3, true),
            (3, 1, false),
            (4, 2, false),
        ] {
            assert_eq!(
                g.reaches_exact(TxnId(from), TxnId(to)),
                expected,
                "{from}->{to}"
            );
            if expected {
                assert!(
                    g.node(TxnId(to)).unwrap().anti_reachable.contains(from),
                    "filter must still report {from} reaches {to}"
                );
            }
        }
    }

    #[test]
    fn rebuild_discards_bits_of_pruned_transactions() {
        let mut g = graph();
        // A long committed chain feeding one survivor.
        for id in 1..=30u64 {
            let preds: Vec<TxnId> = if id == 1 { vec![] } else { vec![TxnId(id - 1)] };
            g.insert_pending(TxnId(id), &preds, &[], 1);
            g.mark_committed(TxnId(id), SeqNo::new(1, id as u32));
        }
        g.insert_pending(TxnId(31), &[TxnId(30)], &[], 2);

        let before = g.node(TxnId(31)).unwrap().anti_reachable.popcount();
        // Prune everything but the last committed ancestor and the pending node.
        for id in 1..=29u64 {
            g.set_age_for_test(TxnId(id), 0);
        }
        g.prune_stale(1);
        assert_eq!(g.len(), 2);

        g.rebuild_reachability();
        let after = g.node(TxnId(31)).unwrap().anti_reachable.popcount();
        assert!(
            after < before,
            "rebuild should shrink the filter ({after} >= {before})"
        );
        // The surviving dependency is still represented.
        assert!(g.node(TxnId(31)).unwrap().anti_reachable.contains(30));
    }

    #[test]
    fn rebuild_on_an_empty_graph_is_a_noop() {
        let mut g = graph();
        assert_eq!(g.rebuild_reachability(), 0);
    }
}

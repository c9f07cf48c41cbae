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
//! implemented either. The saturation it would remedy is therefore what a run at HEAD shows —
//! about 99 % of early aborts on the contended `perf_report` workloads are filter false
//! positives (ROADMAP, "Where we stand"). The remedy ROADMAP item 2 plans is not a periodic
//! rebuild but exact slot-indexed reach sets that forget a transaction when it is pruned;
//! until that lands, this module is the from-scratch recompute item 1(iii) wants as an
//! independent check, and [`DependencyGraph::mean_fill_ratio`] is the signal that shows the
//! saturation.

use crate::graph::DependencyGraph;
use eov_common::txn::TxnId;
use std::collections::HashMap;

impl DependencyGraph {
    /// Recomputes every node's `anti_reachable` set from scratch using the current successor
    /// edges. Returns the number of nodes whose filters were rebuilt.
    ///
    /// The rebuild walks nodes in reverse topological order (ancestors before descendants is
    /// not required — each node's set is the union over *predecessor* closures, so we process
    /// in topological order and push forward, mirroring Algorithm 4's propagation).
    pub fn rebuild_reachability(&mut self) -> usize {
        let ids: Vec<TxnId> = self.nodes().map(|n| n.id).collect();
        if ids.is_empty() {
            return 0;
        }

        // Fresh, empty reach sets for every node.
        let config = *self.config();
        for &id in &ids {
            if let Some(node) = self.node_mut(id) {
                node.anti_reachable = crate::graph::ReachSet::new(&config);
            }
        }

        // Process every node in topological order over successor edges and push its closure
        // (itself plus everything that reaches it) into each successor.
        let order = self.reachable_in_topo_order(&ids);
        for &from in &order {
            for to in self.successors(from) {
                self.propagate_reachability(from, to);
            }
        }
        order.len()
    }

    /// Mean bloom-filter fill ratio across all nodes — the saturation signal a deployment
    /// would use (together with the block height) to decide when to rebuild; like the rebuild
    /// itself, read by tests only.
    pub fn mean_fill_ratio(&self) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for node in self.nodes() {
            total += node.anti_reachable.bloom_popcount() as f64 / self.config().bloom_bits as f64;
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    /// Diagnostic: per-node popcounts keyed by transaction id (used by the saturation tests).
    pub fn popcounts(&self) -> HashMap<TxnId, u32> {
        self.nodes()
            .map(|n| (n.id, n.anti_reachable.bloom_popcount()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PendingTxnSpec;
    use eov_common::config::CcConfig;
    use eov_common::version::SeqNo;

    fn spec(id: u64) -> PendingTxnSpec {
        PendingTxnSpec {
            id: TxnId(id),
            start_ts: SeqNo::snapshot_after(0),
        }
    }

    fn exact_graph() -> DependencyGraph {
        DependencyGraph::new(CcConfig {
            track_exact_reachability: true,
            ..CcConfig::default()
        })
    }

    #[test]
    fn rebuild_preserves_reachability_semantics() {
        let mut g = exact_graph();
        // Chain 1 → 2 → 3 plus a side edge 1 → 4.
        g.insert_pending(spec(1), &[], &[], 1);
        g.insert_pending(spec(2), &[TxnId(1)], &[], 1);
        g.insert_pending(spec(3), &[TxnId(2)], &[], 1);
        g.insert_pending(spec(4), &[TxnId(1)], &[], 1);

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
                    g.node(TxnId(to))
                        .unwrap()
                        .anti_reachable
                        .contains(TxnId(from)),
                    "filter must still report {from} reaches {to}"
                );
            }
        }
    }

    #[test]
    fn rebuild_discards_bits_of_pruned_transactions() {
        let mut g = exact_graph();
        // A long committed chain feeding one survivor.
        for id in 1..=30u64 {
            let preds: Vec<TxnId> = if id == 1 { vec![] } else { vec![TxnId(id - 1)] };
            g.insert_pending(spec(id), &preds, &[], 1);
            g.mark_committed(TxnId(id), SeqNo::new(1, id as u32));
        }
        g.insert_pending(spec(31), &[TxnId(30)], &[], 2);

        let before = g.node(TxnId(31)).unwrap().anti_reachable.bloom_popcount();
        // Prune everything but the last committed ancestor and the pending node.
        for id in 1..=29u64 {
            g.set_age_for_test(TxnId(id), 0);
        }
        g.prune_stale(1);
        assert_eq!(g.len(), 2);

        g.rebuild_reachability();
        let after = g.node(TxnId(31)).unwrap().anti_reachable.bloom_popcount();
        assert!(
            after < before,
            "rebuild should shrink the filter ({after} >= {before})"
        );
        // The surviving dependency is still represented.
        assert!(g
            .node(TxnId(31))
            .unwrap()
            .anti_reachable
            .contains(TxnId(30)));
        assert!(g.mean_fill_ratio() > 0.0);
        assert_eq!(g.popcounts().len(), 2);
    }

    #[test]
    fn rebuild_on_an_empty_graph_is_a_noop() {
        let mut g = exact_graph();
        assert_eq!(g.rebuild_reachability(), 0);
        assert_eq!(g.mean_fill_ratio(), 0.0);
    }
}

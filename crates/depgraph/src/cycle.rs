//! Exact cycle detection — the test oracle behind the bloom-filter fast path.
//!
//! Production FabricSharp never materialises full reachability; it relies on the bloom filters
//! (Section 4.4), accepting occasional false-positive aborts. The successor edges are the only
//! exact answer, and this module asks them: whole-graph acyclicity (a colouring DFS over dense
//! slot tables) for the tests that assert the graph stays acyclic, and an exact version of the
//! arrival-time cycle test, one [`DependencyGraph::reaches_exact`] probe per (successor,
//! predecessor) pair, for the tests and `depgraph_bench`'s exact-probe row.

use crate::graph::DependencyGraph;
use eov_common::txn::TxnId;

/// DFS colouring for cycle detection.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Colour {
    White,
    Grey,
    Black,
}

impl DependencyGraph {
    /// Exact whole-graph acyclicity check over successor edges. The FabricSharp invariant
    /// (Algorithm 2 keeps the graph acyclic) is asserted against this in tests and property
    /// tests.
    pub fn is_acyclic_exact(&self) -> bool {
        let capacity = self.capacity();
        let mut colour = vec![Colour::White; capacity];

        // Iterative DFS from every white live slot.
        let mut dfs: Vec<(u32, u32)> = Vec::new();
        for start in 0..capacity as u32 {
            if self.node_at(start).is_none() || colour[start as usize] != Colour::White {
                continue;
            }
            colour[start as usize] = Colour::Grey;
            dfs.push((start, 0));
            while let Some((slot, child_idx)) = dfs.last_mut() {
                let node = self.node_at(*slot).expect("grey slots are live");
                if let Some(&child) = node.succ.get(*child_idx as usize) {
                    *child_idx += 1;
                    match colour[child as usize] {
                        Colour::Grey => return false,
                        Colour::White => {
                            colour[child as usize] = Colour::Grey;
                            dfs.push((child, 0));
                        }
                        Colour::Black => {}
                    }
                } else {
                    colour[*slot as usize] = Colour::Black;
                    dfs.pop();
                }
            }
        }
        true
    }

    /// Exact version of [`DependencyGraph::would_close_cycle`]: inserting a transaction with
    /// the given predecessors and successors closes a cycle iff some successor can reach some
    /// predecessor through existing edges, or one id is on both sides (tracked or not, as the
    /// bloom probe answers).
    pub fn would_close_cycle_exact(&self, preds: &[TxnId], succs: &[TxnId]) -> bool {
        preds
            .iter()
            .any(|&p| succs.iter().any(|&s| self.reaches_exact(s, p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::config::CcConfig;

    fn graph() -> DependencyGraph {
        DependencyGraph::new(CcConfig::default())
    }

    #[test]
    fn chains_and_diamonds_are_acyclic() {
        let mut g = graph();
        g.insert_pending(TxnId(1), &[], &[], 1);
        g.insert_pending(TxnId(2), &[TxnId(1)], &[], 1);
        g.insert_pending(TxnId(3), &[TxnId(1)], &[], 1);
        g.insert_pending(TxnId(4), &[TxnId(2), TxnId(3)], &[], 1);
        assert!(g.is_acyclic_exact());
    }

    #[test]
    fn manually_forced_cycle_is_detected() {
        let mut g = graph();
        g.insert_pending(TxnId(1), &[], &[], 1);
        g.insert_pending(TxnId(2), &[TxnId(1)], &[], 1);
        // Force 2 → 1 by adding the edge directly (bypassing Algorithm 2's guard).
        g.link(g.slot_of(TxnId(2)).unwrap(), g.slot_of(TxnId(1)).unwrap());
        assert!(!g.is_acyclic_exact());
    }

    #[test]
    fn exact_would_close_cycle_agrees_with_reachability() {
        let mut g = graph();
        g.insert_pending(TxnId(1), &[], &[], 1);
        g.insert_pending(TxnId(2), &[TxnId(1)], &[], 1);
        g.insert_pending(TxnId(3), &[TxnId(2)], &[], 1);
        // succ 1, pred 3 closes 1→2→3→new→1.
        assert!(g.would_close_cycle_exact(&[TxnId(3)], &[TxnId(1)]));
        // succ 3, pred 1 does not (1 already reaches 3, new extends the chain).
        assert!(!g.would_close_cycle_exact(&[TxnId(1)], &[TxnId(3)]));
        // Same node on both sides is a cycle, tracked or not, and the bloom probe agrees.
        assert!(g.would_close_cycle_exact(&[TxnId(2)], &[TxnId(2)]));
        assert!(g.would_close_cycle_exact(&[TxnId(9)], &[TxnId(9)]));
        assert!(g.would_close_cycle(&[TxnId(9)], &[TxnId(9)]));
        // An unknown id on one side only never closes a cycle.
        assert!(!g.would_close_cycle_exact(&[TxnId(9)], &[TxnId(1)]));
        assert!(!g.would_close_cycle_exact(&[], &[TxnId(1)]));
    }

    #[test]
    fn empty_graph_is_acyclic() {
        let g = graph();
        assert!(g.is_acyclic_exact());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use eov_common::config::CcConfig;
    use proptest::prelude::*;

    proptest! {
        /// The bloom-filter cycle check never reports "acyclic" when the exact check finds a
        /// cycle (no false negatives), on randomly grown DAGs with random probe edges.
        #[test]
        fn bloom_check_has_no_false_negatives(
            edges in proptest::collection::vec((0u64..10, 0u64..10), 0..30),
            probe_preds in proptest::collection::vec(0u64..10, 1..4),
            probe_succs in proptest::collection::vec(0u64..10, 1..4),
        ) {
            let mut g = DependencyGraph::new(CcConfig::default());
            let mut preds: std::collections::HashMap<u64, Vec<TxnId>> = Default::default();
            for (a, b) in edges {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                if lo != hi {
                    preds.entry(hi).or_default().push(TxnId(lo));
                }
            }
            for id in 0u64..10 {
                let p = preds.remove(&id).unwrap_or_default();
                g.insert_pending(TxnId(id), &p, &[], 1);
            }
            prop_assert!(g.is_acyclic_exact());

            let pred_ids: Vec<TxnId> = probe_preds.into_iter().map(TxnId).collect();
            let succ_ids: Vec<TxnId> = probe_succs.into_iter().map(TxnId).collect();
            if g.would_close_cycle_exact(&pred_ids, &succ_ids) {
                prop_assert!(g.would_close_cycle(&pred_ids, &succ_ids),
                    "bloom check missed a genuine cycle");
            }
        }
    }
}

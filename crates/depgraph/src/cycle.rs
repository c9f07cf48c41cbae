//! Exact cycle detection — the test oracle behind the bloom-filter fast path.
//!
//! Production FabricSharp never materialises full reachability; it relies on the bloom filters
//! (Section 4.4), accepting occasional false-positive aborts. For testing, benchmarking the
//! ablation, and validating Theorem 2 end-to-end, this module provides exact graph algorithms
//! over the successor edges: whole-graph acyclicity and an exact version of the arrival-time
//! cycle check. Both run directly on interned slots — dense colour tables and the epoch-tagged
//! scratch replace the per-call hash maps of the seed implementation.

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
    /// predecessor through existing edges (or a transaction appears on both sides).
    pub fn would_close_cycle_exact(&self, preds: &[TxnId], succs: &[TxnId]) -> bool {
        let mut scratch = self.scratch().borrow_mut();
        let capacity = self.capacity();
        // Mark the (tracked) predecessor slots; the DFS below tests membership in O(1).
        scratch.marks.reset(capacity);
        let mut any_pred = false;
        for &p in preds {
            if let Some(slot) = self.slot_of(p) {
                scratch.marks.insert(slot);
                any_pred = true;
            }
        }
        if !any_pred {
            return false;
        }
        for &s in succs {
            let Some(s_slot) = self.slot_of(s) else {
                continue;
            };
            if scratch.marks.contains(s_slot) {
                return true;
            }
            // DFS from s looking for any predecessor.
            scratch.visited.reset(capacity);
            scratch.visited.insert(s_slot);
            scratch.stack.clear();
            scratch.stack.push(s_slot);
            while let Some(current) = scratch.stack.pop() {
                let node = self.node_at(current).expect("adjacency never dangles");
                for &nxt in &node.succ {
                    if scratch.marks.contains(nxt) {
                        return true;
                    }
                    if scratch.visited.insert(nxt) {
                        scratch.stack.push(nxt);
                    }
                }
            }
        }
        false
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
    fn chains_and_diamonds_are_acyclic() {
        let mut g = exact_graph();
        g.insert_pending(spec(1), &[], &[], 1);
        g.insert_pending(spec(2), &[TxnId(1)], &[], 1);
        g.insert_pending(spec(3), &[TxnId(1)], &[], 1);
        g.insert_pending(spec(4), &[TxnId(2), TxnId(3)], &[], 1);
        assert!(g.is_acyclic_exact());
    }

    #[test]
    fn manually_forced_cycle_is_detected() {
        let mut g = exact_graph();
        g.insert_pending(spec(1), &[], &[], 1);
        g.insert_pending(spec(2), &[TxnId(1)], &[], 1);
        // Force 2 → 1 by adding the edge directly (bypassing Algorithm 2's guard).
        g.add_edge_with_union(TxnId(2), TxnId(1));
        assert!(!g.is_acyclic_exact());
    }

    #[test]
    fn exact_would_close_cycle_agrees_with_reachability() {
        let mut g = exact_graph();
        g.insert_pending(spec(1), &[], &[], 1);
        g.insert_pending(spec(2), &[TxnId(1)], &[], 1);
        g.insert_pending(spec(3), &[TxnId(2)], &[], 1);
        // succ 1, pred 3 closes 1→2→3→new→1.
        assert!(g.would_close_cycle_exact(&[TxnId(3)], &[TxnId(1)]));
        // succ 3, pred 1 does not (1 already reaches 3, new extends the chain).
        assert!(!g.would_close_cycle_exact(&[TxnId(1)], &[TxnId(3)]));
        // Same node on both sides is a cycle.
        assert!(g.would_close_cycle_exact(&[TxnId(2)], &[TxnId(2)]));
        // Unknown ids never close cycles.
        assert!(!g.would_close_cycle_exact(&[TxnId(9)], &[TxnId(1)]));
        assert!(!g.would_close_cycle_exact(&[], &[TxnId(1)]));
    }

    #[test]
    fn empty_graph_is_acyclic() {
        let g = exact_graph();
        assert!(g.is_acyclic_exact());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::graph::{CycleCheck, PendingTxnSpec};
    use eov_common::config::CcConfig;
    use eov_common::version::SeqNo;
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
            let mut g = DependencyGraph::new(CcConfig {
                track_exact_reachability: true,
                ..CcConfig::default()
            });
            let mut preds: std::collections::HashMap<u64, Vec<TxnId>> = Default::default();
            for (a, b) in edges {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                if lo != hi {
                    preds.entry(hi).or_default().push(TxnId(lo));
                }
            }
            for id in 0u64..10 {
                let p = preds.remove(&id).unwrap_or_default();
                g.insert_pending(PendingTxnSpec {
                    id: TxnId(id),
                    start_ts: SeqNo::snapshot_after(0),
                }, &p, &[], 1);
            }
            prop_assert!(g.is_acyclic_exact());

            let pred_ids: Vec<TxnId> = probe_preds.into_iter().map(TxnId).collect();
            let succ_ids: Vec<TxnId> = probe_succs.into_iter().map(TxnId).collect();
            let exact = g.would_close_cycle_exact(&pred_ids, &succ_ids);
            let bloom = g.would_close_cycle(&pred_ids, &succ_ids);
            if exact {
                prop_assert!(matches!(bloom, CycleCheck::Cycle { .. }),
                    "bloom check missed a genuine cycle");
            }
        }
    }
}

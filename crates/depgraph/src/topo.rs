//! Topological ordering of the pending transaction set (Algorithm 3, line 1).
//!
//! On block formation, FabricSharp retrieves a commit order for the pending transactions that
//! respects every dependency recorded in the graph. Two pending transactions may be ordered
//! through committed intermediaries (`a → committed → b`), so the ordering is computed from
//! *reachability* over successor edges, not just direct edges within the pending set.
//!
//! Determinism matters: every honest orderer must produce the same order from the same input
//! (the agreement property of Section 3.5). Ties are therefore broken by arrival order, which
//! is itself replicated because it is derived from the consensus stream. The caller owns the
//! pending set and passes it in arrival order; an id the graph has no node for (the template
//! fast path never inserts one) sorts as an edge-free transaction.
//!
//! The closure is computed in O(V + E) set-union work instead of one DFS per pending
//! transaction: a single postorder sweep over the sub-graph reachable from the pending set
//! unions dense pending-bitsets bottom-up (each node's "reachable pending set" is the OR of
//! its successors' sets plus the pending successors themselves), and Kahn's algorithm then
//! runs on a `BinaryHeap` keyed by arrival index instead of a shift-on-pop sorted vector.
//! Ties break by arrival index, so the order is a pure function of the graph and the pending
//! list; `topo_order_respects_every_dependency` and the pinned ledger tips hold it there.

use crate::graph::DependencyGraph;
use eov_common::txn::TxnId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel for "slot is not a pending transaction" in the dense arrival-index table.
const NOT_PENDING: u32 = u32::MAX;

impl DependencyGraph {
    /// Returns `pending` — the pending set in arrival order — in a topological order consistent
    /// with reachability in the full graph, breaking ties by arrival order. An id with no node
    /// (a transaction that bypassed the graph) is edge-free: nothing reaches it and it reaches
    /// nothing, so it is ready from the first step and keeps its arrival rank among the ready
    /// transactions. When at most one listed id has a node there is no edge to respect and the
    /// list comes back unchanged.
    ///
    /// The pending sub-graph is acyclic by construction (Algorithm 2 rejects cycle-closing
    /// transactions), so an order always exists; if the exact structure were ever cyclic
    /// (which would indicate a bug), the remaining transactions are appended in arrival order
    /// so the orderer still makes progress deterministically.
    pub fn topo_sort_pending(&self, pending: &[TxnId]) -> Vec<TxnId> {
        // (arrival index, slot) of every listed id that has a node.
        let tracked: Vec<(u32, u32)> = pending
            .iter()
            .enumerate()
            .filter_map(|(i, id)| Some((i as u32, self.slot_of(*id)?)))
            .collect();
        if tracked.len() <= 1 {
            return pending.to_vec();
        }
        let p = pending.len();
        let capacity = self.capacity();

        // Dense side table over the slot space: arrival index per pending slot.
        let mut arrival: Vec<u32> = vec![NOT_PENDING; capacity];
        for &(i, slot) in &tracked {
            arrival[slot as usize] = i;
        }

        // Everything reachable from the pending set (committed intermediaries included), in
        // postorder.
        let postorder = self.postorder(tracked.iter().map(|&(_, slot)| slot), p);

        // Bottom-up closure: row i (a bitset over arrival indices) holds the pending
        // transactions reachable from postorder[i]. Successors precede their parents in a
        // DAG's postorder, so each row is the OR of already-final successor rows plus the
        // pending successors' own bits — every edge is visited exactly once.
        let words = p.div_ceil(64);
        let mut row_of: Vec<u32> = vec![NOT_PENDING; capacity];
        for (i, &slot) in postorder.iter().enumerate() {
            row_of[slot as usize] = i as u32;
        }
        let mut reach: Vec<u64> = vec![0u64; postorder.len() * words];
        for (i, &slot) in postorder.iter().enumerate() {
            let node = self.node_at(slot).expect("visited slots are live");
            let (done, rest) = reach.split_at_mut(i * words);
            let row = &mut rest[..words];
            for &s in &node.succ {
                let s_row = row_of[s as usize] as usize;
                // `s_row < i` always holds on a DAG; the guard only matters for the
                // defensive-cyclic case, where the fallback below still emits everything.
                if s_row < i {
                    for (w, src) in row.iter_mut().zip(&done[s_row * words..]) {
                        *w |= src;
                    }
                }
                let a = arrival[s as usize];
                if a != NOT_PENDING {
                    row[(a / 64) as usize] |= 1u64 << (a % 64);
                }
            }
        }

        // Closure in-degrees: pending `b` has one incoming closure edge per pending `a` that
        // reaches it.
        let mut indegree: Vec<u32> = vec![0; p];
        for &(_, slot) in &tracked {
            let row = &reach[row_of[slot as usize] as usize * words..][..words];
            for (wi, &word) in row.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let b = wi * 64 + bits.trailing_zeros() as usize;
                    indegree[b] += 1;
                    bits &= bits - 1;
                }
            }
        }

        // Closure row of each listed id by arrival index; an id without a node has none.
        let mut row_at: Vec<u32> = vec![NOT_PENDING; p];
        for &(i, slot) in &tracked {
            row_at[i as usize] = row_of[slot as usize];
        }

        // Kahn's algorithm with arrival-order tie-breaking: among ready transactions always
        // emit the earliest-arrived one (min-heap on arrival index).
        let mut heap: BinaryHeap<Reverse<u32>> = indegree
            .iter()
            .enumerate()
            .filter(|(_, d)| **d == 0)
            .map(|(i, _)| Reverse(i as u32))
            .collect();
        let mut order: Vec<TxnId> = Vec::with_capacity(p);
        let mut emitted = vec![false; p];
        while let Some(Reverse(next)) = heap.pop() {
            emitted[next as usize] = true;
            order.push(pending[next as usize]);
            let r = row_at[next as usize];
            if r == NOT_PENDING {
                continue;
            }
            let row = &reach[r as usize * words..][..words];
            for (wi, &word) in row.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let b = wi * 64 + bits.trailing_zeros() as usize;
                    let d = &mut indegree[b];
                    *d -= 1;
                    if *d == 0 {
                        heap.push(Reverse(b as u32));
                    }
                    bits &= bits - 1;
                }
            }
        }

        // Defensive fallback: if anything was left (exact cycle — should be impossible), append
        // it in arrival order so every pending transaction still receives a slot.
        if order.len() < p {
            for (i, &t) in pending.iter().enumerate() {
                if !emitted[i] {
                    order.push(t);
                }
            }
        }
        order
    }

    /// Every transaction reachable from `roots` (roots included), returned in a topological
    /// order over successor edges. Used by Algorithm 5 to propagate restored ww reachability
    /// downstream exactly once per node.
    pub fn reachable_in_topo_order(&self, roots: &[TxnId]) -> Vec<TxnId> {
        // Reversing the postorder of a DAG yields a topological order. The reachable sub-graph
        // is acyclic because the whole graph is.
        let postorder = self.postorder(roots.iter().filter_map(|&id| self.slot_of(id)), 0);
        postorder
            .iter()
            .rev()
            .map(|&slot| self.id_at(slot))
            .collect()
    }

    /// Iterative postorder DFS over every slot reachable from `roots` (roots included), each
    /// emitted once; on a DAG every node's successors finish before it does. `capacity` sizes
    /// the result up front. The visited set is the reusable epoch scratch.
    fn postorder(&self, roots: impl IntoIterator<Item = u32>, capacity: usize) -> Vec<u32> {
        let mut postorder: Vec<u32> = Vec::with_capacity(capacity);
        let mut scratch = self.scratch().borrow_mut();
        scratch.visited.reset(self.capacity());
        // Stack of (slot, next-child-index).
        let mut dfs: Vec<(u32, u32)> = Vec::new();
        for root in roots {
            if !scratch.visited.insert(root) {
                continue;
            }
            dfs.push((root, 0));
            while let Some((slot, child_idx)) = dfs.last_mut() {
                let node = self.node_at(*slot).expect("visited slots are live");
                if let Some(&child) = node.succ.get(*child_idx as usize) {
                    *child_idx += 1;
                    if scratch.visited.insert(child) {
                        dfs.push((child, 0));
                    }
                } else {
                    postorder.push(*slot);
                    dfs.pop();
                }
            }
        }
        postorder
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

    fn ids(raw: &[u64]) -> Vec<TxnId> {
        raw.iter().copied().map(TxnId).collect()
    }

    #[test]
    fn topo_respects_direct_dependencies() {
        let mut g = graph();
        // Arrival order 3, 2, 1 but dependencies 1 → 2 → 3.
        g.insert_pending(TxnId(3), &[], &[], 1);
        g.insert_pending(TxnId(2), &[], &[TxnId(3)], 1);
        g.insert_pending(TxnId(1), &[], &[TxnId(2)], 1);

        let order = g.topo_sort_pending(&ids(&[3, 2, 1]));
        let pos = |id: u64| order.iter().position(|t| t.0 == id).unwrap();
        assert!(pos(1) < pos(2));
        assert!(pos(2) < pos(3));
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn topo_breaks_ties_by_arrival_order() {
        let mut g = graph();
        for id in [7, 5, 9] {
            g.insert_pending(TxnId(id), &[], &[], 1);
        }
        // No dependencies at all: the order must be exactly the arrival order.
        assert_eq!(g.topo_sort_pending(&ids(&[7, 5, 9])), ids(&[7, 5, 9]));
    }

    #[test]
    fn topo_orders_through_committed_intermediaries() {
        let mut g = graph();
        // committed node 100 sits between pending 1 and pending 2: 1 → 100 → 2.
        g.insert_pending(TxnId(100), &[], &[], 1);
        g.mark_committed(TxnId(100), SeqNo::new(1, 1));
        g.insert_pending(TxnId(2), &[TxnId(100)], &[], 2);
        g.insert_pending(TxnId(1), &[], &[TxnId(100)], 2);

        let order = g.topo_sort_pending(&ids(&[2, 1]));
        assert_eq!(order, ids(&[1, 2]));
    }

    #[test]
    fn empty_and_singleton_pending_sets() {
        let mut g = graph();
        assert!(g.topo_sort_pending(&[]).is_empty());
        g.insert_pending(TxnId(1), &[], &[], 1);
        assert_eq!(g.topo_sort_pending(&ids(&[1])), ids(&[1]));
    }

    /// Ids without a node are edge-free: ready from the start, they pop at their arrival
    /// rank among the ready transactions, and with at most one tracked id the list is
    /// returned as given.
    #[test]
    fn ids_without_a_node_keep_their_arrival_rank() {
        let mut g = graph();
        // Arrival order 2, 1 but dependency 1 → 2; 5, 6 and 7 have no node.
        g.insert_pending(TxnId(2), &[], &[], 1);
        g.insert_pending(TxnId(1), &[], &[TxnId(2)], 1);
        assert_eq!(
            g.topo_sort_pending(&ids(&[5, 2, 6, 1, 7])),
            ids(&[5, 6, 1, 2, 7])
        );
        assert_eq!(g.topo_sort_pending(&ids(&[5, 2, 6])), ids(&[5, 2, 6]));
        assert_eq!(g.topo_sort_pending(&ids(&[5, 6])), ids(&[5, 6]));
    }

    /// More pending transactions than one bitset word, with dependencies crossing the word
    /// boundary — exercises the multi-word OR path of the closure sweep.
    #[test]
    fn topo_handles_more_than_64_pending_transactions() {
        let mut g = graph();
        // 100 transactions in a chain: 99 → 98 → ... → 0 by id, inserted in reverse order so
        // arrival order disagrees with dependency order everywhere.
        for id in (0..100u64).rev() {
            let succs: Vec<TxnId> = if id == 99 {
                vec![]
            } else {
                vec![TxnId(id + 1)]
            };
            g.insert_pending(TxnId(id), &[], &succs, 1);
        }
        let order = g.topo_sort_pending(&(0..100u64).rev().map(TxnId).collect::<Vec<_>>());
        let expected: Vec<TxnId> = (0..100u64).map(TxnId).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn reachable_in_topo_order_visits_each_node_once_in_dependency_order() {
        let mut g = graph();
        // Diamond: 1 → {2, 3} → 4.
        g.insert_pending(TxnId(1), &[], &[], 1);
        g.insert_pending(TxnId(2), &[TxnId(1)], &[], 1);
        g.insert_pending(TxnId(3), &[TxnId(1)], &[], 1);
        g.insert_pending(TxnId(4), &[TxnId(2), TxnId(3)], &[], 1);

        let order = g.reachable_in_topo_order(&[TxnId(1)]);
        assert_eq!(order.len(), 4);
        let pos = |id: u64| order.iter().position(|t| t.0 == id).unwrap();
        assert!(pos(1) < pos(2));
        assert!(pos(1) < pos(3));
        assert!(pos(2) < pos(4));
        assert!(pos(3) < pos(4));

        // Starting from the middle only visits the downstream part.
        let partial = g.reachable_in_topo_order(&[TxnId(2)]);
        assert_eq!(partial.len(), 2);
        assert_eq!(partial[0], TxnId(2));
        assert_eq!(partial[1], TxnId(4));
    }

    #[test]
    fn reachable_in_topo_order_ignores_unknown_roots() {
        let g = graph();
        assert!(g.reachable_in_topo_order(&[TxnId(42)]).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use eov_common::config::CcConfig;
    use eov_common::version::SeqNo;
    use proptest::prelude::*;

    /// Ids of the random graphs: `0..NODES`, inserted in id order.
    const NODES: u64 = 12;

    /// A random DAG over `0..NODES`: edge (a, b) becomes the dependency min → max, given as
    /// "max's predecessors include min" at insert time.
    fn random_dag(edges: &[(u64, u64)]) -> DependencyGraph {
        let mut g = DependencyGraph::new(CcConfig::default());
        let mut preds: std::collections::HashMap<u64, Vec<TxnId>> = Default::default();
        for &(a, b) in edges {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            if lo != hi {
                preds.entry(hi).or_default().push(TxnId(lo));
            }
        }
        for id in 0..NODES {
            let p = preds.remove(&id).unwrap_or_default();
            g.insert_pending(TxnId(id), &p, &[], 1);
        }
        g
    }

    proptest! {
        /// The topological order always respects exact reachability between pending
        /// transactions, for random DAGs built by only adding edges from older to newer ids.
        #[test]
        fn topo_order_respects_every_dependency(
            edges in proptest::collection::vec((0..NODES, 0..NODES), 0..40)
        ) {
            let g = random_dag(&edges);
            let order = g.topo_sort_pending(&(0..NODES).map(TxnId).collect::<Vec<_>>());
            prop_assert_eq!(order.len(), NODES as usize);
            let pos: std::collections::HashMap<TxnId, usize> =
                order.iter().enumerate().map(|(i, t)| (*t, i)).collect();
            for a in 0..NODES {
                for b in 0..NODES {
                    if a != b && g.reaches_exact(TxnId(a), TxnId(b)) {
                        prop_assert!(pos[&TxnId(a)] < pos[&TxnId(b)],
                            "order violates {} -> {}", a, b);
                    }
                }
            }
        }

        /// Ids the graph has no node for sort exactly like edge-free pending nodes: interleave
        /// absent ids into a random DAG's pending list at random positions (some graph nodes
        /// committed, so they order the rest only as intermediaries) and the order equals the
        /// one of a copy of the graph where those ids were inserted without edges.
        #[test]
        fn absent_ids_sort_like_edge_free_pending_nodes(
            edges in proptest::collection::vec((0..NODES, 0..NODES), 0..40),
            committed in proptest::collection::vec(any::<bool>(), NODES as usize..NODES as usize + 1),
            absent_at in proptest::collection::vec(0..NODES as usize + 1, 0..10),
        ) {
            let mut g = random_dag(&edges);
            let mut pending = Vec::new();
            for id in 0..NODES {
                if committed[id as usize] {
                    g.mark_committed(TxnId(id), SeqNo::new(1, id as u32 + 1));
                } else {
                    pending.push(TxnId(id));
                }
            }
            let mut with_nodes = g.clone();
            for (k, &at) in absent_at.iter().enumerate() {
                let id = 100 + k as u64;
                pending.insert(at.min(pending.len()), TxnId(id));
                with_nodes.insert_pending(TxnId(id), &[], &[], 1);
            }
            prop_assert_eq!(
                g.topo_sort_pending(&pending),
                with_nodes.topo_sort_pending(&pending)
            );
        }
    }
}

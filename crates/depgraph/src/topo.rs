//! Block formation's graph work: the commit order of the pending set (Algorithm 3, line 1)
//! and the restoration of the pending c-ww edges along it (Algorithm 5, on interned slots).
//!
//! On block formation, FabricSharp retrieves a commit order for the pending transactions that
//! respects every dependency recorded in the graph. Two pending transactions may be ordered
//! through committed intermediaries (`a → committed → b`), so the ordering follows
//! *reachability* over successor edges, not just direct edges within the pending set.
//!
//! Determinism matters: every honest orderer must produce the same order from the same input
//! (the agreement property of Section 3.5). Ties are therefore broken by arrival order, which
//! is itself replicated because it is derived from the consensus stream. The caller owns the
//! pending set and passes it in arrival order; an id the graph has no node for (the template
//! fast path never inserts one) sorts as an edge-free transaction.
//!
//! The sort is Kahn's algorithm over the sub-graph reachable from the listed ids, committed
//! intermediaries included: one DFS counts every in-degree inside that sub-graph, an unlisted
//! node is released from a plain stack once its last predecessor is, and the stack is drained
//! before each pop of the min-heap of ready listed ids keyed by arrival index. A listed id thus
//! becomes ready exactly when every listed id that reaches it has been emitted, so the order is
//! the greedy "earliest-arrived id that no remaining id reaches" order, in O(V + E) plus
//! O(P log P) for the heap. `topo_sort_matches_the_greedy_specification` and the pinned ledger
//! tips hold it there.

use crate::graph::DependencyGraph;
use eov_common::txn::TxnId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel for "no entry" in the dense per-slot tables.
const NONE: u32 = u32::MAX;

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
        let slot_at: Vec<Option<u32>> = pending.iter().map(|&id| self.slot_of(id)).collect();
        if slot_at.iter().flatten().count() <= 1 {
            return pending.to_vec();
        }

        // Dense side table over the slot space: arrival index per listed slot.
        let mut arrival: Vec<u32> = vec![NONE; self.capacity()];
        for (i, slot) in slot_at.iter().enumerate() {
            if let Some(slot) = slot {
                arrival[*slot as usize] = i as u32;
            }
        }
        let mut indegree = self.subgraph_indegrees(slot_at.iter().flatten().copied());

        // Kahn's algorithm. The heap holds the ready listed ids by arrival index; the stack
        // holds emitted or released nodes whose out-edges are still to be released. Draining
        // the stack before each pop releases every committed intermediary that can be released,
        // so the heap always holds every ready listed id when the earliest one is chosen.
        let mut heap: BinaryHeap<Reverse<u32>> = slot_at
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.is_none_or(|s| indegree[s as usize] == 0))
            .map(|(i, _)| Reverse(i as u32))
            .collect();
        let mut stack: Vec<u32> = Vec::new();
        let mut order: Vec<TxnId> = Vec::with_capacity(pending.len());
        loop {
            while let Some(slot) = stack.pop() {
                for &s in &self.node_at(slot).expect("visited slots are live").succ {
                    let d = &mut indegree[s as usize];
                    *d -= 1;
                    if *d == 0 {
                        match arrival[s as usize] {
                            NONE => stack.push(s),
                            a => heap.push(Reverse(a)),
                        }
                    }
                }
            }
            let Some(Reverse(next)) = heap.pop() else {
                break;
            };
            order.push(pending[next as usize]);
            stack.extend(slot_at[next as usize]);
        }

        // Defensive fallback: a listed id never released (exact cycle — should be impossible)
        // is appended in arrival order, so every pending transaction still receives a slot.
        order.extend(
            pending
                .iter()
                .zip(&slot_at)
                .filter(|(_, slot)| slot.is_some_and(|s| indegree[s as usize] > 0))
                .map(|(&t, _)| t),
        );
        order
    }

    /// Algorithm 5: restores the c-ww dependencies among pending writers that arrival left out,
    /// oriented along `order`, the commit order from [`DependencyGraph::topo_sort_pending`].
    /// `chains` holds one key's pending writers per entry, in a key order every replica agrees
    /// on; a writer absent from `order` (or from the graph) is skipped. Every consecutive pair
    /// of a chain in commit order that is not already connected gains an edge and a reach-set
    /// union, and the new reachability then flows downstream once per node.
    ///
    /// "Already connected" is the later writer's reach filter answering yes *and* the exact
    /// edge walk confirming it ([`DependencyGraph::reaches_exact`]). A filter positive is a
    /// safe reason to abort, never a reason to do less: skipping on a false positive would
    /// leave the pair unlinked and every reach set downstream of it short, so a later arrival
    /// could close a cycle the probe never sees. A filter negative keeps the cheap path.
    pub fn restore_ww(&mut self, order: &[TxnId], chains: &[&[TxnId]]) {
        let mut position: Vec<u32> = vec![NONE; self.capacity()];
        for (i, &id) in order.iter().enumerate() {
            if let Some(slot) = self.slot_of(id) {
                position[slot as usize] = i as u32;
            }
        }
        let mut heads: Vec<u32> = Vec::new();
        for chain in chains {
            let mut writers: Vec<u32> = chain
                .iter()
                .filter_map(|&id| self.slot_of(id))
                .filter(|&slot| position[slot as usize] != NONE)
                .collect();
            writers.sort_unstable_by_key(|&slot| position[slot as usize]);
            // Connect every consecutive pair that is not already connected; pairs already
            // connected (like Txn0 → Txn3 in Figure 9) are implicit. The paper's Algorithm 5
            // restores only the *first* unconnected pair per key, but with three or more
            // pending writers of one key that leaves the ww chain incomplete and a later
            // arrival can close an undetected cycle through the committed tail of the chain
            // (caught by the `formation_properties` property test). Restoring every
            // consecutive pair keeps the graph acyclic (edges always follow the commit order)
            // and is therefore a strictly safe strengthening.
            for pair in writers.windows(2) {
                let (first, second) = (pair[0], pair[1]);
                let later = self.node_at(second).expect("interned slots are live");
                let (first_id, second_id) = (self.id_at(first), self.id_at(second));
                if later.anti_reachable.contains(first_id.0)
                    && self.reaches_exact(first_id, second_id)
                {
                    continue;
                }
                self.link(first, second);
                heads.push(second);
            }
        }
        heads.sort_unstable();
        heads.dedup();
        self.propagate_from(&heads);
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

    /// The defensive fallback: ids on or below a forced cycle are never released and follow
    /// the others in arrival order.
    #[test]
    fn ids_on_a_forced_cycle_are_appended_in_arrival_order() {
        let mut g = graph();
        for id in 1..=4 {
            g.insert_pending(TxnId(id), &[], &[], 1);
        }
        // 1 → 2 → 1 (bypassing Algorithm 2's guard) and 2 → 3; 4 is free.
        let slot = |id| g.slot_of(TxnId(id)).unwrap();
        let (one, two, three) = (slot(1), slot(2), slot(3));
        g.link(one, two);
        g.link(two, one);
        g.link(two, three);
        assert_eq!(g.topo_sort_pending(&ids(&[3, 2, 4, 1])), ids(&[4, 3, 2, 1]));
    }

    /// A 100-transaction chain whose arrival order is its dependency order reversed: every
    /// pop releases exactly the next transaction, so the heap never holds more than one id.
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

    /// Algorithm 5 on Figure 9's shape: two pending writers of one key with no edge between
    /// them and a diamond downstream of the later one. Restoration links them along the commit
    /// order (not the chain's record order) and pushes the earlier writer and its upstream
    /// into every downstream filter, once; a node upstream keeps its filter.
    #[test]
    fn restore_ww_links_the_writers_and_propagates_downstream_once() {
        let mut g = graph();
        // 0 → 1; 2 → {3, 4} → 5. Key H is written by 1 and 2.
        g.insert_pending(TxnId(0), &[], &[], 1);
        g.insert_pending(TxnId(1), &[TxnId(0)], &[], 1);
        g.insert_pending(TxnId(2), &[], &[], 1);
        g.insert_pending(TxnId(3), &[TxnId(2)], &[], 1);
        g.insert_pending(TxnId(4), &[TxnId(2)], &[], 1);
        g.insert_pending(TxnId(5), &[TxnId(3), TxnId(4)], &[], 1);

        g.restore_ww(&ids(&[0, 1, 2, 3, 4, 5]), &[&ids(&[2, 1])]);
        assert!(g.reaches_exact(TxnId(1), TxnId(2)));
        assert!(!g.reaches_exact(TxnId(2), TxnId(1)));
        let filter = |id: u64| g.node(TxnId(id)).unwrap().anti_reachable.clone();
        assert_eq!(filter(0), g.reach_set_of(&[]));
        assert_eq!(filter(1), g.reach_set_of(&[0]));
        assert_eq!(filter(2), g.reach_set_of(&[0, 1]));
        assert_eq!(filter(3), g.reach_set_of(&[0, 1, 2]));
        assert_eq!(filter(4), g.reach_set_of(&[0, 1, 2]));
        assert_eq!(filter(5), g.reach_set_of(&[0, 1, 2, 3, 4]));
        assert!(g.is_acyclic_exact());
    }

    /// A writer absent from the order or from the graph is skipped, so its neighbours in the
    /// chain pair up around it; a pair the filter already connects gains no second edge.
    #[test]
    fn restore_ww_skips_absent_writers_and_connected_pairs() {
        let mut g = graph();
        g.insert_pending(TxnId(1), &[], &[], 1);
        g.insert_pending(TxnId(2), &[], &[], 1);
        g.insert_pending(TxnId(3), &[], &[], 1);
        g.insert_pending(TxnId(4), &[TxnId(1)], &[], 1);
        // 3 has a node but is not in the order; 99 has no node.
        g.restore_ww(&ids(&[1, 2, 4, 99]), &[&ids(&[2, 99, 3, 1]), &ids(&[1, 4])]);
        assert!(g.reaches_exact(TxnId(1), TxnId(2)));
        let node = |id: u64| g.node(TxnId(id)).unwrap();
        assert_eq!(
            node(1).succ.len(),
            2,
            "edges to 4 (arrival) and 2 (restored) only"
        );
        assert!(node(3).succ.is_empty() && node(3).pred.is_empty());
        assert_eq!(node(3).anti_reachable, g.reach_set_of(&[]));
        assert!(!g.contains(TxnId(99)));
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

    /// Marks the nodes flagged in `committed` committed and returns the others, in id order,
    /// as the pending list: committed nodes order the rest only as intermediaries.
    fn commit_some(g: &mut DependencyGraph, committed: &[bool]) -> Vec<TxnId> {
        let mut pending = Vec::new();
        for id in 0..NODES {
            if committed[id as usize] {
                g.mark_committed(TxnId(id), SeqNo::new(1, id as u32 + 1));
            } else {
                pending.push(TxnId(id));
            }
        }
        pending
    }

    /// Inserts one id without a node (`100`, `101`, …) into `pending` per entry of
    /// `absent_at`, at that position; returns the inserted ids.
    fn interleave_absent(pending: &mut Vec<TxnId>, absent_at: &[usize]) -> Vec<TxnId> {
        let absent: Vec<TxnId> = (0..absent_at.len() as u64)
            .map(|k| TxnId(100 + k))
            .collect();
        for (&at, &id) in absent_at.iter().zip(&absent) {
            pending.insert(at.min(pending.len()), id);
        }
        absent
    }

    /// The specification of the commit order: repeatedly emit the earliest-arrived listed id
    /// that no other remaining listed id reaches over the exact edges.
    fn greedy_order(g: &DependencyGraph, pending: &[TxnId]) -> Vec<TxnId> {
        let mut left = pending.to_vec();
        let mut order = Vec::with_capacity(left.len());
        while !left.is_empty() {
            let k = (0..left.len())
                .find(|&k| {
                    left.iter()
                        .all(|&o| o == left[k] || !g.reaches_exact(o, left[k]))
                })
                .expect("an acyclic graph always has a ready id");
            order.push(left.remove(k));
        }
        order
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
            let mut pending = commit_some(&mut g, &committed);
            let mut with_nodes = g.clone();
            for id in interleave_absent(&mut pending, &absent_at) {
                with_nodes.insert_pending(id, &[], &[], 1);
            }
            prop_assert_eq!(
                g.topo_sort_pending(&pending),
                with_nodes.topo_sort_pending(&pending)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The tie-break rule, pinned against its specification ([`greedy_order`]): random
        /// DAGs, a random subset committed (ordering the rest only as intermediaries), the
        /// pending list in a shuffled arrival order, and ids without a node interleaved.
        #[test]
        fn topo_sort_matches_the_greedy_specification(
            edges in proptest::collection::vec((0..NODES, 0..NODES), 0..40),
            committed in proptest::collection::vec(any::<bool>(), NODES as usize..NODES as usize + 1),
            arrival_keys in proptest::collection::vec(any::<u64>(), NODES as usize..NODES as usize + 1),
            absent_at in proptest::collection::vec(0..NODES as usize + 1, 0..6),
        ) {
            let mut g = random_dag(&edges);
            let mut pending = commit_some(&mut g, &committed);
            pending.sort_by_key(|t| arrival_keys[t.0 as usize]);
            interleave_absent(&mut pending, &absent_at);
            prop_assert_eq!(g.topo_sort_pending(&pending), greedy_order(&g, &pending));
        }
    }
}

//! The retained naive reference implementation of the dependency graph.
//!
//! This is (essentially) the pre-interning engine: nodes in a `HashMap<u64, _>`, adjacency as
//! `Vec<TxnId>`, a fresh `HashSet` visited set per reachability query, per-insert `ReachSet`
//! clones, and a per-pair DFS topological sort. It exists for two reasons:
//!
//! 1. **Equivalence oracle** — the `equivalence` proptest suite drives random
//!    build/commit/remove/prune/rebuild interleavings through this module and the production
//!    [`DependencyGraph`](crate::graph::DependencyGraph) side by side and asserts bit-for-bit
//!    identical `topo_sort_pending` output, `would_close_cycle` verdicts (bloom false
//!    positives included — both sides share the same filter geometry and insertion sets),
//!    `reaches_exact` answers and insert hop counts.
//! 2. **Speedup baseline** — the `reachability_engine` bench group and the `bench_gate`
//!    binary measure the dense engine against this module on identical graphs, which keeps
//!    the claimed complexity win honest on every machine the benches run on.
//!
//! It is deliberately *not* optimised; do not use it outside tests and benchmarks.

use crate::graph::{CycleCheck, PendingTxnSpec, ReachSet};
use eov_common::config::CcConfig;
use eov_common::txn::TxnId;
use eov_common::version::SeqNo;
use std::collections::{HashMap, HashSet};

/// A node of the naive graph.
#[derive(Clone, Debug)]
pub struct NaiveNode {
    /// The transaction this node represents.
    pub id: TxnId,
    /// Start timestamp.
    pub start_ts: SeqNo,
    /// End timestamp once committed.
    pub end_ts: Option<SeqNo>,
    /// Immediate successors in dependency order.
    pub succ: Vec<TxnId>,
    /// Immediate predecessors (mirror of `succ`).
    pub pred: Vec<TxnId>,
    /// Every transaction that can reach this node.
    pub anti_reachable: ReachSet,
    /// Pruning age (Section 4.6).
    pub age: u64,
}

impl NaiveNode {
    /// Whether the node is still pending.
    pub fn is_pending(&self) -> bool {
        self.end_ts.is_none()
    }
}

/// The naive-DFS dependency graph: same semantics as the production engine, seed-era data
/// structures.
#[derive(Clone, Debug)]
pub struct NaiveGraph {
    nodes: HashMap<u64, NaiveNode>,
    /// Pending transactions in arrival order (seed representation: `Vec::retain` removal).
    pending: Vec<TxnId>,
    config: CcConfig,
}

impl NaiveGraph {
    /// Creates an empty graph.
    pub fn new(config: CcConfig) -> Self {
        NaiveGraph {
            nodes: HashMap::new(),
            pending: Vec::new(),
            config,
        }
    }

    /// Number of tracked nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `id` is tracked.
    pub fn contains(&self, id: TxnId) -> bool {
        self.nodes.contains_key(&id.0)
    }

    /// Immutable access to a node.
    pub fn node(&self, id: TxnId) -> Option<&NaiveNode> {
        self.nodes.get(&id.0)
    }

    /// The pending transactions in arrival order.
    pub fn pending_ids(&self) -> Vec<TxnId> {
        self.pending.clone()
    }

    /// Section 4.4's pair-wise cycle test, seed-style: one hash lookup and one full bloom
    /// probe per (pred, succ) pair.
    pub fn would_close_cycle(&self, preds: &[TxnId], succs: &[TxnId]) -> CycleCheck {
        for &p in preds {
            for &s in succs {
                if p == s {
                    return CycleCheck::Cycle {
                        confirmed_exact: Some(true),
                    };
                }
                let Some(p_node) = self.nodes.get(&p.0) else {
                    continue;
                };
                if !self.nodes.contains_key(&s.0) {
                    continue;
                }
                if p_node.anti_reachable.contains(s) {
                    let confirmed = p_node
                        .anti_reachable
                        .contains_exact(s)
                        .map(|exact| exact || self.reaches_exact(s, p));
                    return CycleCheck::Cycle {
                        confirmed_exact: confirmed,
                    };
                }
            }
        }
        CycleCheck::Acyclic
    }

    /// Algorithm 4, seed-style: clones the new node's reach set and walks downstream with a
    /// fresh `HashSet` visited set. Returns the hop count (which the equivalence harness pins
    /// against the engine's). Re-inserting a tracked id is a no-op, matching the production
    /// engine's contract.
    pub fn insert_pending(
        &mut self,
        spec: PendingTxnSpec,
        preds: &[TxnId],
        succs: &[TxnId],
        next_block: u64,
    ) -> usize {
        let id = spec.id;
        if self.nodes.contains_key(&id.0) {
            return 0;
        }
        let mut node = NaiveNode {
            id,
            start_ts: spec.start_ts,
            end_ts: None,
            succ: Vec::new(),
            pred: Vec::new(),
            anti_reachable: ReachSet::new(&self.config),
            age: next_block,
        };

        for &p in preds {
            if p == id {
                continue;
            }
            let Some(p_node) = self.nodes.get_mut(&p.0) else {
                continue;
            };
            if !p_node.succ.contains(&id) {
                p_node.succ.push(id);
                node.pred.push(p);
            }
            node.anti_reachable.insert(p);
            let p_reach = &self.nodes[&p.0].anti_reachable;
            node.anti_reachable.union_with(p_reach);
        }

        for &s in succs {
            if s == id || node.succ.contains(&s) {
                continue;
            }
            if let Some(s_node) = self.nodes.get_mut(&s.0) {
                node.succ.push(s);
                s_node.pred.push(id);
            }
        }

        let succ_roots = node.succ.clone();
        let delta = node.anti_reachable.clone();
        self.nodes.insert(id.0, node);
        if !self.pending.contains(&id) {
            self.pending.push(id);
        }

        let mut hops = 0usize;
        let mut visited: HashSet<u64> = HashSet::new();
        visited.insert(id.0);
        let mut stack: Vec<TxnId> = succ_roots;
        while let Some(current) = stack.pop() {
            if !visited.insert(current.0) {
                continue;
            }
            let Some(n) = self.nodes.get_mut(&current.0) else {
                continue;
            };
            hops += 1;
            n.anti_reachable.union_with(&delta);
            n.anti_reachable.insert(id);
            n.age = n.age.max(next_block);
            stack.extend(n.succ.iter().copied());
        }
        hops
    }

    /// Adds `from → to` and unions `from`'s reachability (plus `from`) into `to`.
    pub fn add_edge_with_union(&mut self, from: TxnId, to: TxnId) {
        if from == to || !self.nodes.contains_key(&from.0) || !self.nodes.contains_key(&to.0) {
            return;
        }
        let from_node = self.nodes.get_mut(&from.0).expect("checked above");
        if !from_node.succ.contains(&to) {
            from_node.succ.push(to);
            self.nodes
                .get_mut(&to.0)
                .expect("checked above")
                .pred
                .push(from);
        }
        self.union_through(from, to);
    }

    /// Unions `source`'s reachability (plus `source`) into `target` without adding an edge.
    pub fn propagate_reachability(&mut self, source: TxnId, target: TxnId) {
        if source == target
            || !self.nodes.contains_key(&source.0)
            || !self.nodes.contains_key(&target.0)
        {
            return;
        }
        self.union_through(source, target);
    }

    fn union_through(&mut self, source: TxnId, target: TxnId) {
        let delta = self.nodes[&source.0].anti_reachable.clone();
        let t = self.nodes.get_mut(&target.0).expect("caller checked");
        t.anti_reachable.union_with(&delta);
        t.anti_reachable.insert(source);
    }

    /// Whether `earlier` is recorded as reaching `later`.
    pub fn already_connected(&self, earlier: TxnId, later: TxnId) -> bool {
        self.nodes
            .get(&later.0)
            .map(|n| n.anti_reachable.contains(earlier))
            .unwrap_or(false)
    }

    /// Marks a pending transaction committed.
    pub fn mark_committed(&mut self, id: TxnId, end_ts: SeqNo) {
        if let Some(node) = self.nodes.get_mut(&id.0) {
            node.end_ts = Some(end_ts);
        }
        self.pending.retain(|t| *t != id);
    }

    /// Removes a transaction and cleans its neighbours' edge lists.
    pub fn remove(&mut self, id: TxnId) {
        self.pending.retain(|t| *t != id);
        let Some(node) = self.nodes.remove(&id.0) else {
            return;
        };
        for p in node.pred {
            if let Some(p_node) = self.nodes.get_mut(&p.0) {
                p_node.succ.retain(|s| *s != id);
            }
        }
        for s in node.succ {
            if let Some(s_node) = self.nodes.get_mut(&s.0) {
                s_node.pred.retain(|p| *p != id);
            }
        }
    }

    /// Removes every committed node with `age < threshold`; returns the victims (sorted by id
    /// for deterministic comparison — the engine's return order is slot order).
    pub fn prune_stale(&mut self, threshold: u64) -> Vec<TxnId> {
        let victims: Vec<TxnId> = self
            .nodes
            .values()
            .filter(|n| !n.is_pending() && n.age < threshold)
            .map(|n| n.id)
            .collect();
        for v in &victims {
            self.remove(*v);
        }
        let mut sorted = victims;
        sorted.sort();
        sorted
    }

    /// Exact reachability by per-query DFS with a fresh `HashSet`.
    pub fn reaches_exact(&self, from: TxnId, to: TxnId) -> bool {
        if from == to {
            return true;
        }
        let mut visited: HashSet<u64> = HashSet::new();
        let mut stack = vec![from];
        while let Some(current) = stack.pop() {
            if !visited.insert(current.0) {
                continue;
            }
            let Some(node) = self.nodes.get(&current.0) else {
                continue;
            };
            for &s in &node.succ {
                if s == to {
                    return true;
                }
                stack.push(s);
            }
        }
        false
    }

    /// The seed topological sort: one reachability DFS per pending transaction (O(pending²)
    /// pair work), then Kahn's algorithm over the closure edges with a shift-on-pop sorted
    /// ready queue.
    pub fn topo_sort_pending(&self) -> Vec<TxnId> {
        let pending = self.pending_ids();
        if pending.len() <= 1 {
            return pending;
        }
        let index_of: HashMap<TxnId, usize> =
            pending.iter().enumerate().map(|(i, t)| (*t, i)).collect();

        let mut edges: HashMap<TxnId, Vec<TxnId>> = HashMap::new();
        let mut indegree: HashMap<TxnId, usize> = pending.iter().map(|t| (*t, 0)).collect();
        for &a in &pending {
            let reachable = self.pending_reachable_from(a, &index_of);
            for b in reachable {
                edges.entry(a).or_default().push(b);
                *indegree.get_mut(&b).expect("pending node") += 1;
            }
        }

        let mut ready: Vec<TxnId> = pending
            .iter()
            .filter(|t| indegree[t] == 0)
            .copied()
            .collect();
        ready.sort_by_key(|t| index_of[t]);

        let mut order = Vec::with_capacity(pending.len());
        let mut emitted: HashSet<TxnId> = HashSet::new();
        while let Some(&next) = ready.first() {
            ready.remove(0);
            order.push(next);
            emitted.insert(next);
            if let Some(succs) = edges.get(&next) {
                for &b in succs {
                    let d = indegree.get_mut(&b).expect("pending node");
                    *d -= 1;
                    if *d == 0 {
                        let pos = ready
                            .binary_search_by_key(&index_of[&b], |t| index_of[t])
                            .unwrap_or_else(|p| p);
                        ready.insert(pos, b);
                    }
                }
            }
        }

        if order.len() < pending.len() {
            for &t in &pending {
                if !emitted.contains(&t) {
                    order.push(t);
                }
            }
        }
        order
    }

    fn pending_reachable_from(
        &self,
        from: TxnId,
        pending_index: &HashMap<TxnId, usize>,
    ) -> Vec<TxnId> {
        let mut result = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        let mut stack = vec![from];
        visited.insert(from.0);
        while let Some(current) = stack.pop() {
            let Some(node) = self.nodes.get(&current.0) else {
                continue;
            };
            for &s in &node.succ {
                if visited.insert(s.0) {
                    if s != from && pending_index.contains_key(&s) {
                        result.push(s);
                    }
                    stack.push(s);
                }
            }
        }
        result
    }

    /// Every transaction reachable from `roots` in topological order (reverse postorder).
    pub fn reachable_in_topo_order(&self, roots: &[TxnId]) -> Vec<TxnId> {
        let mut visited: HashSet<u64> = HashSet::new();
        let mut postorder: Vec<TxnId> = Vec::new();
        for &root in roots {
            if visited.contains(&root.0) || !self.contains(root) {
                continue;
            }
            let mut stack: Vec<(TxnId, usize)> = vec![(root, 0)];
            visited.insert(root.0);
            while let Some((current, child_idx)) = stack.last_mut() {
                let node = self.node(*current).expect("visited nodes exist");
                if let Some(&child) = node.succ.get(*child_idx) {
                    *child_idx += 1;
                    if !visited.contains(&child.0) && self.contains(child) {
                        visited.insert(child.0);
                        stack.push((child, 0));
                    }
                } else {
                    postorder.push(*current);
                    stack.pop();
                }
            }
        }
        postorder.reverse();
        postorder
    }

    /// Rebuilds every reach set from the current successor edges (the maintenance counterpart
    /// of the two-filter relay, naive edition).
    pub fn rebuild_reachability(&mut self) -> usize {
        // lint-determinism: allow (sorted immediately below)
        let mut ids: Vec<TxnId> = self.nodes.values().map(|n| n.id).collect();
        ids.sort_unstable();
        if ids.is_empty() {
            return 0;
        }
        let config = self.config;
        for &id in &ids {
            if let Some(node) = self.nodes.get_mut(&id.0) {
                node.anti_reachable = ReachSet::new(&config);
            }
        }
        let order = self.reachable_in_topo_order(&ids);
        for &from in &order {
            let succs: Vec<TxnId> = self.node(from).map(|n| n.succ.clone()).unwrap_or_default();
            for to in succs {
                self.propagate_reachability(from, to);
            }
        }
        order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_exact() -> CcConfig {
        CcConfig {
            track_exact_reachability: true,
            ..CcConfig::default()
        }
    }

    fn spec(id: u64) -> PendingTxnSpec {
        PendingTxnSpec {
            id: TxnId(id),
            start_ts: SeqNo::snapshot_after(0),
        }
    }

    #[test]
    fn naive_graph_basic_semantics() {
        let mut g = NaiveGraph::new(cfg_exact());
        g.insert_pending(spec(1), &[], &[], 1);
        g.insert_pending(spec(2), &[TxnId(1)], &[], 1);
        assert_eq!(g.len(), 2);
        assert!(g.reaches_exact(TxnId(1), TxnId(2)));
        assert!(!g.reaches_exact(TxnId(2), TxnId(1)));
        assert!(!g.would_close_cycle(&[TxnId(2)], &[TxnId(1)]).is_acyclic());
        assert_eq!(g.topo_sort_pending(), vec![TxnId(1), TxnId(2)]);

        g.mark_committed(TxnId(1), SeqNo::new(1, 1));
        assert_eq!(g.pending_ids(), vec![TxnId(2)]);
        let mut pruned = g.prune_stale(10);
        pruned.sort();
        assert_eq!(pruned, vec![TxnId(1)]);
        assert!(!g.contains(TxnId(1)));
        assert!(g.node(TxnId(2)).unwrap().pred.is_empty());
        assert_eq!(g.rebuild_reachability(), 1);
    }
}

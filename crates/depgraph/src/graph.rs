//! The transaction dependency graph (Sections 4.3–4.5).
//!
//! Every transaction accepted by the FabricSharp orderer becomes a node. Node storage is a
//! slab indexed by dense interned slots (`crate::interner::Interner`): edges follow the
//! *dependency order* (`from` must be serialized before `to`) and are stored as immediate
//! successor lists (`succ`) of `u32` slots mirrored by predecessor lists (`pred`), so removals
//! touch only a node's own lists and traversals index a `Vec` instead of hashing. Each
//! node carries `anti_reachable`: a bloom filter of every transaction that can reach it. Cycle
//! detection for a new transaction then reduces to membership tests between its prospective
//! predecessors and successors (Section 4.4), and Algorithm 4's reachability maintenance
//! reduces to bit-vector unions. The successor edges are the only exact answer: exact
//! reachability queries walk them on a reusable `crate::visited::EpochVisited` scratch set, so
//! the per-transaction path allocates nothing once the slab is warm.

use crate::bloom::BloomFilter;
use crate::interner::Interner;
use crate::visited::EpochVisited;
use eov_common::config::CcConfig;
use eov_common::txn::TxnId;
use eov_common::version::SeqNo;
use std::cell::RefCell;

/// A node of the dependency graph.
#[derive(Clone, Debug)]
pub struct TxnNode {
    /// The transaction this node represents.
    pub id: TxnId,
    /// End timestamp (Definition 4) once the transaction has been placed in a block; `None`
    /// while it is still pending.
    pub(crate) end_ts: Option<SeqNo>,
    /// Immediate successors in dependency order, as interned slots. Only the graph's own
    /// walks read them; nothing outside the crate sees an edge.
    pub(crate) succ: Vec<u32>,
    /// Immediate predecessors as `(slot, generation)` — the mirror of `succ`, kept so removing
    /// a node finds the successor lists that name it without scanning the graph. Removal
    /// leaves a removed predecessor's entry here; its generation is then older than its slot's
    /// ([`Interner::generation`]), which marks it stale.
    pub(crate) pred: Vec<(u32, u32)>,
    /// Every transaction that can reach this node, as a bloom filter: it may hold
    /// transactions that cannot reach the node (false positives), never miss one that can.
    pub anti_reachable: BloomFilter,
    /// Age (Section 4.6): the highest block number such that a transaction destined for that
    /// block can reach this node. Nodes whose age falls behind the pruning threshold can never
    /// join a future cycle and are removed.
    pub(crate) age: u64,
}

impl TxnNode {
    /// Whether the node is still pending (not yet assigned a block slot).
    pub fn is_pending(&self) -> bool {
        self.end_ts.is_none()
    }
}

/// Report returned by [`DependencyGraph::insert_pending`]; feeds the Figure 13 statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InsertReport {
    /// Number of nodes visited while propagating reachability to the new transaction's
    /// descendants ("# of hops" in Figure 13).
    pub hops: usize,
}

/// A minimal throwaway filter that displaces a stored reach set while it is borrowed as a
/// union source (see [`DependencyGraph::insert_pending`]); never unioned or queried.
fn placeholder() -> BloomFilter {
    BloomFilter::new(64, 1)
}

/// Reusable traversal scratch shared by the query paths. One instance lives inside the graph
/// behind a `RefCell` (queries take `&self`); mutating entry points reach it without runtime
/// borrow checks through `RefCell::get_mut`.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// Visited set for DFS walks.
    visited: EpochVisited,
    /// DFS stack of slots.
    stack: Vec<u32>,
    /// Per-successor (slot, bloom hash pair) cache for the arrival-time cycle test.
    succ_info: Vec<(Option<u32>, (u64, u64))>,
}

/// The transaction dependency graph `G` with nodes `U` and successor edges `V`.
#[derive(Clone, Debug)]
pub struct DependencyGraph {
    interner: Interner,
    /// Node slab, parallel to the interner's slot space; `None` marks a recyclable slot.
    nodes: Vec<Option<TxnNode>>,
    config: CcConfig,
    scratch: RefCell<Scratch>,
}

impl DependencyGraph {
    /// Creates an empty graph with the given concurrency-control configuration.
    pub fn new(config: CcConfig) -> Self {
        DependencyGraph {
            interner: Interner::new(),
            nodes: Vec::new(),
            config,
            scratch: RefCell::new(Scratch::default()),
        }
    }

    /// The configuration the graph was built with.
    pub(crate) fn config(&self) -> &CcConfig {
        &self.config
    }

    /// An empty reach set in the configured bloom geometry.
    pub(crate) fn empty_reach_set(&self) -> BloomFilter {
        BloomFilter::new(self.config.bloom_bits, self.config.bloom_hashes)
    }

    /// Number of nodes currently tracked (pending + committed, before pruning).
    pub fn len(&self) -> usize {
        self.interner.len()
    }

    /// Whether the graph tracks no transactions.
    pub fn is_empty(&self) -> bool {
        self.interner.is_empty()
    }

    /// Whether `id` is currently tracked.
    pub fn contains(&self, id: TxnId) -> bool {
        self.interner.get(id).is_some()
    }

    /// Immutable access to a node.
    pub fn node(&self, id: TxnId) -> Option<&TxnNode> {
        let slot = self.interner.get(id)?;
        self.nodes[slot as usize].as_ref()
    }

    /// Iterates over all nodes in slot order.
    pub fn nodes(&self) -> impl Iterator<Item = &TxnNode> {
        self.nodes.iter().filter_map(Option::as_ref)
    }

    /// Total slot space (live + recyclable); sizes the dense per-slot side tables used by the
    /// traversal modules.
    pub(crate) fn capacity(&self) -> usize {
        self.nodes.len()
    }

    /// The node stored at a slot (`None` for vacant slots).
    #[inline]
    pub(crate) fn node_at(&self, slot: u32) -> Option<&TxnNode> {
        self.nodes[slot as usize].as_ref()
    }

    /// The transaction id of a **live** slot.
    #[inline]
    pub(crate) fn id_at(&self, slot: u32) -> TxnId {
        self.interner.id_at(slot)
    }

    /// The slot of a tracked transaction.
    #[inline]
    pub(crate) fn slot_of(&self, id: TxnId) -> Option<u32> {
        self.interner.get(id)
    }

    /// Section 4.4's cycle test: for each pair `(p, s)` of a predecessor and a successor of the
    /// new transaction, a cycle would be closed iff `s` can already reach `p` (the new
    /// transaction would supply the missing `p → new → s` segment). Membership is tested on
    /// the predecessor's `anti_reachable` filter; a predecessor that is itself a successor is
    /// an immediate two-node cycle. `true` may be a filter false positive, which still aborts
    /// the transaction (preventive abort, Section 4.4); `false` is never wrong.
    ///
    /// The pair loop resolves each id to its interned slot once and precomputes each
    /// successor's bloom probe hashes once, so a scan over `|preds| × |succs|` pairs costs one
    /// filter probe per pair — no hashing, no map lookups — and bails out on the first
    /// (possible) hit.
    pub fn would_close_cycle(&self, preds: &[TxnId], succs: &[TxnId]) -> bool {
        let mut scratch = self.scratch.borrow_mut();
        scratch.succ_info.clear();
        for s in succs {
            scratch
                .succ_info
                .push((self.interner.get(*s), BloomFilter::hash_pair(s.0)));
        }
        for &p in preds {
            let p_node = self
                .interner
                .get(p)
                .and_then(|slot| self.nodes[slot as usize].as_ref());
            for (i, &s) in succs.iter().enumerate() {
                if p == s {
                    return true;
                }
                let Some(p_node) = p_node else {
                    continue;
                };
                let (s_slot, s_hashes) = scratch.succ_info[i];
                if s_slot.is_some() && p_node.anti_reachable.contains_prehashed(s_hashes) {
                    return true;
                }
            }
        }
        false
    }

    /// Algorithm 4: inserts a pending transaction with the given immediate predecessors and
    /// successors, then propagates reachability to every node reachable from the successors
    /// and bumps their age to `next_block` (the block the new transaction will commit in).
    ///
    /// Predecessor / successor ids that are no longer tracked (already pruned) are ignored —
    /// their edges can no longer participate in any cycle involving future transactions, which
    /// is exactly why pruning was safe.
    ///
    /// The downstream delta (the new node's reachability plus the new node itself) is moved
    /// out of the new node for the duration of the walk instead of being cloned per insertion
    /// — the per-insert filter clone was the dominant arrival-path cost at production
    /// bloom sizes. The walk itself runs on the epoch-tagged scratch, so a warm graph inserts
    /// without allocating.
    ///
    /// Re-inserting an id that is still tracked is a **no-op** (the node already carries its
    /// edges). Overwriting the slot would leave the old incarnation's neighbour adjacency
    /// pointing at a slot that, once freed and recycled, would silently attach those edges to
    /// an unrelated transaction — callers that replay deliveries (consensus duplicates) rely
    /// on this guard.
    pub fn insert_pending(
        &mut self,
        id: TxnId,
        preds: &[TxnId],
        succs: &[TxnId],
        next_block: u64,
    ) -> InsertReport {
        if self.interner.get(id).is_some() {
            return InsertReport::default();
        }
        let slot = self.interner.intern(id);
        if slot as usize == self.nodes.len() {
            self.nodes.push(None);
        }
        let mut node = TxnNode {
            id,
            end_ts: None,
            succ: Vec::new(),
            pred: Vec::new(),
            anti_reachable: self.empty_reach_set(),
            age: next_block,
        };

        // Wire predecessors: p.succ ∪= {txn}; txn.anti_reachable ∪= {p} ∪ p.anti_reachable.
        for &p in preds {
            if p == id {
                continue;
            }
            let Some(p_slot) = self.interner.get(p) else {
                continue;
            };
            let p_node = self.nodes[p_slot as usize]
                .as_mut()
                .expect("interned slots are live");
            if !p_node.succ.contains(&slot) {
                p_node.succ.push(slot);
                node.pred.push((p_slot, self.interner.generation(p_slot)));
            }
            node.anti_reachable.insert(p.0);
            // Split borrow: clone nothing — union from an immutable re-borrow after the push.
            let p_reach = &self.nodes[p_slot as usize]
                .as_ref()
                .expect("interned slots are live")
                .anti_reachable;
            // The borrow above is fine because `node` is a local, not part of the slab yet.
            node.anti_reachable.union_with(p_reach);
        }

        // Wire successors: txn.succ ∪= succs (deduplicated, existing nodes only), mirroring
        // each edge in the successor's predecessor list.
        for &s in succs {
            if s == id {
                continue;
            }
            let Some(s_slot) = self.interner.get(s) else {
                continue;
            };
            if node.succ.contains(&s_slot) {
                continue;
            }
            node.succ.push(s_slot);
            self.nodes[s_slot as usize]
                .as_mut()
                .expect("interned slots are live")
                .pred
                .push((slot, self.interner.generation(slot)));
        }

        // Propagate to every node reachable from the successors (Algorithm 4 lines 5–7): each
        // visited node learns the new transaction's reachability plus the new transaction
        // itself. The walk starts from the successors and the delta is moved out of the node
        // before it enters the slab (the graph is acyclic, so the new node can never appear
        // in its own downstream); the delta is moved back after the walk.
        let scratch = self.scratch.get_mut();
        scratch.visited.reset(self.nodes.len());
        scratch.visited.insert(slot);
        scratch.stack.clear();
        scratch.stack.extend_from_slice(&node.succ);
        let delta = std::mem::replace(&mut node.anti_reachable, placeholder());
        self.nodes[slot as usize] = Some(node);

        let mut hops = 0usize;
        while let Some(current) = scratch.stack.pop() {
            if !scratch.visited.insert(current) {
                continue;
            }
            let n = self.nodes[current as usize]
                .as_mut()
                .expect("adjacency never dangles");
            hops += 1;
            n.anti_reachable.union_with(&delta);
            n.anti_reachable.insert(id.0);
            n.age = n.age.max(next_block);
            scratch.stack.extend_from_slice(&n.succ);
        }
        self.nodes[slot as usize]
            .as_mut()
            .expect("inserted above")
            .anti_reachable = delta;

        InsertReport { hops }
    }

    /// Adds the edge `from → to` between two live slots (once, mirrored in `to`'s
    /// predecessor list) and unions `from`'s reachability plus `from` itself into `to`:
    /// Algorithm 5's restored ww edge. Callers guarantee `from != to`.
    pub(crate) fn link(&mut self, from: u32, to: u32) {
        let from_node = self.nodes[from as usize]
            .as_mut()
            .expect("interned slots are live");
        if !from_node.succ.contains(&to) {
            from_node.succ.push(to);
            self.nodes[to as usize]
                .as_mut()
                .expect("interned slots are live")
                .pred
                .push((from, self.interner.generation(from)));
        }
        self.union_into(from, &[to]);
    }

    /// In-degree of every node of the sub-graph reachable from the slots `roots` (roots
    /// included), counted inside that sub-graph, indexed by slot; one DFS over its edges.
    pub(crate) fn subgraph_indegrees(&self, roots: impl IntoIterator<Item = u32>) -> Vec<u32> {
        let mut indegree = vec![0; self.nodes.len()];
        let mut scratch = self.scratch.borrow_mut();
        let Scratch { visited, stack, .. } = &mut *scratch;
        visited.reset(self.nodes.len());
        stack.clear();
        stack.extend(roots.into_iter().filter(|&slot| visited.insert(slot)));
        while let Some(slot) = stack.pop() {
            let node = self.nodes[slot as usize]
                .as_ref()
                .expect("adjacency never dangles");
            for &s in &node.succ {
                indegree[s as usize] += 1;
                if visited.insert(s) {
                    stack.push(s);
                }
            }
        }
        indegree
    }

    /// Pushes reachability downstream from the distinct slots `roots`: every node reachable
    /// from them (roots included) unions its reach set plus itself into each immediate
    /// successor once every predecessor inside that sub-graph has done so (Kahn's order), so
    /// each set is final before it is passed on and each node is visited once (Figure 9:
    /// Txn8, reachable through both restored edges, is updated once).
    pub(crate) fn propagate_from(&mut self, roots: &[u32]) {
        let mut indegree = self.subgraph_indegrees(roots.iter().copied());
        let mut ready: Vec<u32> = roots
            .iter()
            .copied()
            .filter(|&slot| indegree[slot as usize] == 0)
            .collect();
        while let Some(slot) = ready.pop() {
            let node = self.nodes[slot as usize].as_mut().expect("live");
            let succ = std::mem::take(&mut node.succ);
            self.union_into(slot, &succ);
            for &s in &succ {
                indegree[s as usize] -= 1;
                if indegree[s as usize] == 0 {
                    ready.push(s);
                }
            }
            self.nodes[slot as usize].as_mut().expect("live").succ = succ;
        }
    }

    /// `t.anti_reachable ∪= source.anti_reachable ∪ {source}` for every slot `t` of `targets`,
    /// without cloning: the source set is moved out for the duration of the unions and moved
    /// back. Callers guarantee that every slot is live and that `source` is not a target.
    fn union_into(&mut self, source: u32, targets: &[u32]) {
        if targets.is_empty() {
            return;
        }
        let source_id = self.interner.id_at(source);
        let delta = std::mem::replace(
            &mut self.nodes[source as usize]
                .as_mut()
                .expect("caller checked")
                .anti_reachable,
            placeholder(),
        );
        for &t in targets {
            let t = self.nodes[t as usize].as_mut().expect("caller checked");
            t.anti_reachable.union_with(&delta);
            t.anti_reachable.insert(source_id.0);
        }
        self.nodes[source as usize]
            .as_mut()
            .expect("caller checked")
            .anti_reachable = delta;
    }

    /// Marks a pending transaction as committed at `end_ts`. The node stays in the graph (its
    /// dependencies may still matter for future cycles) until pruning removes it.
    pub fn mark_committed(&mut self, id: TxnId, end_ts: SeqNo) {
        if let Some(node) = self.node_mut(id) {
            node.end_ts = Some(end_ts);
        }
    }

    /// Exact reachability over successor edges (DFS on the epoch-tagged scratch): whether
    /// `from` reaches `to`, counting every id as reaching itself. The one exact pairwise probe;
    /// the test oracles and [`DependencyGraph::would_close_cycle_exact`] ask it.
    pub fn reaches_exact(&self, from: TxnId, to: TxnId) -> bool {
        if from == to {
            return true;
        }
        let Some(from_slot) = self.interner.get(from) else {
            return false;
        };
        let Some(to_slot) = self.interner.get(to) else {
            return false;
        };
        let mut scratch = self.scratch.borrow_mut();
        let Scratch { visited, stack, .. } = &mut *scratch;
        visited.reset(self.nodes.len());
        visited.insert(from_slot);
        stack.clear();
        stack.push(from_slot);
        while let Some(current) = stack.pop() {
            let node = self.nodes[current as usize]
                .as_ref()
                .expect("adjacency never dangles");
            for &s in &node.succ {
                if s == to_slot {
                    return true;
                }
                if visited.insert(s) {
                    stack.push(s);
                }
            }
        }
        false
    }

    /// The filter a node would store if exactly the transactions `members` could reach it.
    #[cfg(test)]
    pub(crate) fn reach_set_of(&self, members: &[u64]) -> BloomFilter {
        let mut set = self.empty_reach_set();
        for &m in members {
            set.insert(m);
        }
        set
    }

    /// Mutable access to a node — only exposed to the pruning/rebuild modules and tests.
    pub(crate) fn node_mut(&mut self, id: TxnId) -> Option<&mut TxnNode> {
        let slot = self.interner.get(id)?;
        self.nodes[slot as usize].as_mut()
    }

    /// Internal: removes the given nodes and every edge into them. An edge lives in its tail's
    /// `succ` list, so only the removed nodes' live predecessors are visited — none at all
    /// when pruning, which removes a node only with every predecessor (a predecessor's age
    /// never exceeds its successor's). A survivor's `pred` list keeps its entries for removed
    /// nodes; they are stale by generation, and its own removal skips them.
    ///
    /// `ids` must be sorted: slots are released in the order given and the interner recycles
    /// them LIFO, so the order decides future slot assignments (and thus slot-ordered node
    /// walks) — ascending id order is the one every replica agrees on.
    pub(crate) fn remove_many(&mut self, ids: &[TxnId]) {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids sorted and distinct"
        );
        let removed = &mut self.scratch.get_mut().visited;
        removed.reset(self.nodes.len());
        let mut gone = Vec::with_capacity(ids.len());
        for &id in ids {
            let Some(slot) = self.interner.release(id) else {
                continue;
            };
            removed.insert(slot);
            gone.push(
                self.nodes[slot as usize]
                    .take()
                    .expect("interned slots are live"),
            );
        }
        for node in &gone {
            for &(p, generation) in &node.pred {
                if !removed.contains(p) && self.interner.generation(p) == generation {
                    let survivor = self.nodes[p as usize]
                        .as_mut()
                        .expect("a current generation is live");
                    survivor.succ.retain(|&s| !removed.contains(s));
                }
            }
        }
    }

    /// The live predecessors of a node: its `pred` entries minus the stale ones.
    #[cfg(test)]
    pub(crate) fn live_preds<'a>(&'a self, node: &'a TxnNode) -> impl Iterator<Item = u32> + 'a {
        node.pred
            .iter()
            .filter(|&&(p, generation)| self.interner.generation(p) == generation)
            .map(|&(p, _)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> DependencyGraph {
        DependencyGraph::new(CcConfig::default())
    }

    /// The immediate successors of `id`, as transaction ids (empty if `id` is untracked).
    fn successors(g: &DependencyGraph, id: TxnId) -> Vec<TxnId> {
        g.node(id)
            .map(|n| n.succ.iter().map(|&s| g.interner.id_at(s)).collect())
            .unwrap_or_default()
    }

    /// The immediate predecessors of `id`, as transaction ids (empty if `id` is untracked).
    fn predecessors(g: &DependencyGraph, id: TxnId) -> Vec<TxnId> {
        g.node(id)
            .map(|n| g.live_preds(n).map(|p| g.interner.id_at(p)).collect())
            .unwrap_or_default()
    }

    /// Checks the succ/pred mirror invariant: every edge appears in exactly both lists and
    /// never dangles.
    fn assert_edge_mirror(g: &DependencyGraph) {
        for node in g.nodes() {
            for s in successors(g, node.id) {
                assert!(
                    predecessors(g, s).contains(&node.id),
                    "edge {:?} → {:?} missing from pred mirror",
                    node.id,
                    s
                );
            }
            for p in predecessors(g, node.id) {
                assert!(
                    successors(g, p).contains(&node.id),
                    "edge {:?} → {:?} missing from succ list",
                    p,
                    node.id
                );
            }
        }
    }

    #[test]
    fn insert_wires_predecessors_and_successors() {
        let mut g = graph();
        g.insert_pending(TxnId(1), &[], &[], 1);
        g.insert_pending(TxnId(2), &[TxnId(1)], &[], 1);

        assert_eq!(g.len(), 2);
        assert_eq!(successors(&g, TxnId(1)), vec![TxnId(2)]);
        assert_eq!(predecessors(&g, TxnId(2)), vec![TxnId(1)]);
        assert!(g.node(TxnId(2)).unwrap().anti_reachable.contains(1));
        assert!(g.reaches_exact(TxnId(1), TxnId(2)));
        assert!(!g.reaches_exact(TxnId(2), TxnId(1)));
        assert!(g.nodes().all(TxnNode::is_pending));
        assert_edge_mirror(&g);
    }

    #[test]
    fn reachability_is_transitive_through_unions() {
        let mut g = graph();
        g.insert_pending(TxnId(1), &[], &[], 1);
        g.insert_pending(TxnId(2), &[TxnId(1)], &[], 1);
        g.insert_pending(TxnId(3), &[TxnId(2)], &[], 1);
        // 1 → 2 → 3: node 3's anti_reachable must contain both 1 and 2.
        let n3 = g.node(TxnId(3)).unwrap();
        assert!(n3.anti_reachable.contains(1));
        assert!(n3.anti_reachable.contains(2));
    }

    #[test]
    fn inserting_with_successors_propagates_downstream() {
        let mut g = graph();
        // Existing chain 10 → 11.
        g.insert_pending(TxnId(10), &[], &[], 1);
        g.insert_pending(TxnId(11), &[TxnId(10)], &[], 1);
        // New transaction 5 whose successor is 10: everything downstream of 10 must now know
        // that 5 can reach it.
        let report = g.insert_pending(TxnId(5), &[], &[TxnId(10)], 1);
        assert!(
            report.hops >= 2,
            "should traverse 10 and 11, got {}",
            report.hops
        );
        assert!(g.node(TxnId(10)).unwrap().anti_reachable.contains(5));
        assert!(g.node(TxnId(11)).unwrap().anti_reachable.contains(5));
        assert!(g.reaches_exact(TxnId(5), TxnId(11)));
        assert_edge_mirror(&g);
    }

    /// Regression test for the delta borrow dance: after the downstream walk, the new node
    /// must still own its full reachability set (its predecessors and their reachability) —
    /// taking the set for the walk and failing to restore it would silently disable future
    /// cycle detection through the new node.
    #[test]
    fn insert_restores_the_new_nodes_reach_set_after_propagation() {
        let mut g = graph();
        g.insert_pending(TxnId(1), &[], &[], 1);
        g.insert_pending(TxnId(2), &[TxnId(1)], &[], 1);
        g.insert_pending(TxnId(7), &[], &[], 1);
        g.insert_pending(TxnId(8), &[TxnId(7)], &[], 1);
        // New node 5: preds {2}, succs {7} — its stored set must contain 1 and 2 after the
        // downstream walk through 7 and 8.
        g.insert_pending(TxnId(5), &[TxnId(2)], &[TxnId(7)], 1);
        let n5 = g.node(TxnId(5)).unwrap();
        // Exactly {1, 2}: not itself, not its downstream.
        assert_eq!(n5.anti_reachable, g.reach_set_of(&[1, 2]));
        // Downstream nodes learned the full delta {1, 2, 5} on top of their own predecessors.
        assert_eq!(
            g.node(TxnId(7)).unwrap().anti_reachable,
            g.reach_set_of(&[1, 2, 5])
        );
        assert_eq!(
            g.node(TxnId(8)).unwrap().anti_reachable,
            g.reach_set_of(&[1, 2, 5, 7])
        );
    }

    #[test]
    fn cycle_detection_catches_pred_reachable_from_succ() {
        let mut g = graph();
        // 1 → 2 (1 is a predecessor of 2).
        g.insert_pending(TxnId(1), &[], &[], 1);
        g.insert_pending(TxnId(2), &[TxnId(1)], &[], 1);
        // A new transaction with predecessor 2 and successor 1 would close 1 → 2 → new → 1.
        assert!(g.would_close_cycle(&[TxnId(2)], &[TxnId(1)]));
        assert!(g.would_close_cycle_exact(&[TxnId(2)], &[TxnId(1)]));
        // The reverse direction (pred 1, succ 2) is fine: new sits between them.
        assert!(!g.would_close_cycle(&[TxnId(1)], &[TxnId(2)]));
    }

    #[test]
    fn same_txn_as_pred_and_succ_is_a_two_node_cycle() {
        let mut g = graph();
        g.insert_pending(TxnId(1), &[], &[], 1);
        assert!(g.would_close_cycle(&[TxnId(1)], &[TxnId(1)]));
    }

    #[test]
    fn unknown_ids_are_ignored_by_cycle_test_and_insert() {
        let mut g = graph();
        g.insert_pending(TxnId(1), &[], &[], 1);
        assert!(!g.would_close_cycle(&[TxnId(99)], &[TxnId(1)]));
        let report = g.insert_pending(TxnId(2), &[TxnId(77)], &[TxnId(88)], 1);
        assert_eq!(report.hops, 0);
        assert!(successors(&g, TxnId(2)).is_empty());
        assert!(predecessors(&g, TxnId(2)).is_empty());
    }

    #[test]
    fn mark_committed_moves_out_of_pending_but_keeps_the_node() {
        let mut g = graph();
        g.insert_pending(TxnId(1), &[], &[], 1);
        g.mark_committed(TxnId(1), SeqNo::new(1, 1));
        assert!(g.contains(TxnId(1)));
        assert!(!g.node(TxnId(1)).unwrap().is_pending());
        assert_eq!(g.node(TxnId(1)).unwrap().end_ts, Some(SeqNo::new(1, 1)));
    }

    #[test]
    fn remove_cleans_successor_references() {
        let mut g = graph();
        g.insert_pending(TxnId(1), &[], &[], 1);
        g.insert_pending(TxnId(2), &[TxnId(1)], &[], 1);
        g.remove_many(&[TxnId(2)]);
        assert!(!g.contains(TxnId(2)));
        assert!(successors(&g, TxnId(1)).is_empty());
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn remove_cleans_predecessor_references_too() {
        let mut g = graph();
        g.insert_pending(TxnId(1), &[], &[], 1);
        g.insert_pending(TxnId(2), &[TxnId(1)], &[], 1);
        g.insert_pending(TxnId(3), &[TxnId(2)], &[], 1);
        g.remove_many(&[TxnId(2)]);
        assert!(successors(&g, TxnId(1)).is_empty());
        assert!(predecessors(&g, TxnId(3)).is_empty());
        assert_edge_mirror(&g);
    }

    /// Regression test (PR 3 review): re-inserting a still-tracked id must be a no-op.
    /// Overwriting the slot used to leave the old incarnation's neighbour adjacency pointing
    /// at the slot, which after removal either panicked traversals (vacant slot) or — once the
    /// free list recycled it — silently wired the stale edge to an unrelated transaction.
    /// The path is reachable from the orderer: a replayed consensus delivery of a transaction
    /// that was cut into a block but not yet pruned.
    #[test]
    fn reinserting_a_tracked_id_is_a_noop() {
        let mut g = graph();
        g.insert_pending(TxnId(0), &[], &[], 1);
        g.insert_pending(TxnId(1), &[], &[], 1);
        g.insert_pending(TxnId(2), &[TxnId(1)], &[], 1);
        g.mark_committed(TxnId(2), SeqNo::new(1, 1));

        // Replay of txn 2 (still tracked, no longer pending): must change nothing.
        let report = g.insert_pending(TxnId(2), &[], &[], 2);
        assert_eq!(report, InsertReport::default());
        assert_eq!(g.len(), 3);
        assert!(g.node(TxnId(0)).unwrap().is_pending() && g.node(TxnId(1)).unwrap().is_pending());
        assert!(!g.node(TxnId(2)).unwrap().is_pending());
        assert_eq!(successors(&g, TxnId(1)), vec![TxnId(2)]);
        assert_eq!(predecessors(&g, TxnId(2)), vec![TxnId(1)]);
        assert_edge_mirror(&g);

        // The reviewer's corruption scenario: remove the replayed node, then let a fresh
        // transaction recycle its slot — no panic, no phantom reachability.
        g.remove_many(&[TxnId(2)]);
        assert!(successors(&g, TxnId(1)).is_empty());
        g.insert_pending(TxnId(3), &[], &[], 2);
        assert!(!g.reaches_exact(TxnId(1), TxnId(0)));
        assert!(!g.reaches_exact(TxnId(1), TxnId(3)));
        assert_eq!(g.node(TxnId(3)).unwrap().anti_reachable.popcount(), 0);
        assert_edge_mirror(&g);
    }

    /// Slot recycling must never leak edges from the slot's previous occupant: a new
    /// transaction that inherits a freed slot starts with clean adjacency and a clean filter.
    #[test]
    fn recycled_slots_start_clean() {
        let mut g = graph();
        g.insert_pending(TxnId(1), &[], &[], 1);
        g.insert_pending(TxnId(2), &[TxnId(1)], &[], 1);
        g.remove_many(&[TxnId(2)]);
        // Txn 3 reuses txn 2's slot (free-list LIFO) but has no relation to txn 1.
        g.insert_pending(TxnId(3), &[], &[], 1);
        assert!(successors(&g, TxnId(1)).is_empty());
        assert!(predecessors(&g, TxnId(3)).is_empty());
        assert_eq!(g.node(TxnId(3)).unwrap().anti_reachable.popcount(), 0);
        assert!(!g.reaches_exact(TxnId(1), TxnId(3)));
        assert_edge_mirror(&g);
    }

    /// A survivor keeps its `pred` entry for a removed node. Removing the survivor later must
    /// skip that entry, whether the slot is vacant or holds a new node, and still clean the
    /// edge from the slot's new occupant when that one is a real predecessor.
    #[test]
    fn stale_predecessor_entries_are_skipped_on_removal() {
        let mut g = graph();
        g.insert_pending(TxnId(1), &[], &[], 1);
        g.insert_pending(TxnId(2), &[TxnId(1)], &[], 1);
        g.insert_pending(TxnId(3), &[TxnId(1)], &[], 1);
        let one = g.slot_of(TxnId(1));
        g.remove_many(&[TxnId(1)]);
        // Txn 1's slot is vacant: removing txn 2 must not visit it.
        g.remove_many(&[TxnId(2)]);
        assert_edge_mirror(&g);
        // Txn 5 takes txn 2's slot (the free list is LIFO), and txn 4 takes txn 1's and
        // precedes txn 3: txn 3 now holds a stale and a live entry for the same slot.
        g.insert_pending(TxnId(5), &[], &[], 1);
        g.insert_pending(TxnId(4), &[], &[TxnId(3)], 1);
        assert_eq!(g.slot_of(TxnId(4)), one);
        assert_eq!(predecessors(&g, TxnId(3)), vec![TxnId(4)]);
        g.remove_many(&[TxnId(3)]);
        assert!(successors(&g, TxnId(4)).is_empty());
        assert_edge_mirror(&g);
    }

    #[test]
    fn remove_many_only_touches_neighbours_and_keeps_the_mirror_consistent() {
        let mut g = graph();
        // Chain 1 → 2 → 3 → 4 plus a cross edge 1 → 4.
        g.insert_pending(TxnId(1), &[], &[], 1);
        g.insert_pending(TxnId(2), &[TxnId(1)], &[], 1);
        g.insert_pending(TxnId(3), &[TxnId(2)], &[], 1);
        g.insert_pending(TxnId(4), &[TxnId(3), TxnId(1)], &[], 1);
        g.remove_many(&[TxnId(2), TxnId(3)]);
        assert_eq!(g.len(), 2);
        assert_eq!(successors(&g, TxnId(1)), vec![TxnId(4)]);
        assert_eq!(predecessors(&g, TxnId(4)), vec![TxnId(1)]);
        assert!(g.contains(TxnId(1)) && g.contains(TxnId(4)));
        assert_edge_mirror(&g);
    }

    #[test]
    fn link_adds_one_mirrored_edge_and_unions_reachability() {
        let mut g = graph();
        g.insert_pending(TxnId(1), &[], &[], 1);
        g.insert_pending(TxnId(2), &[], &[], 1);
        let (one, two) = (g.slot_of(TxnId(1)).unwrap(), g.slot_of(TxnId(2)).unwrap());
        assert!(!g.node(TxnId(2)).unwrap().anti_reachable.contains(1));
        g.link(one, two);
        assert!(g.node(TxnId(2)).unwrap().anti_reachable.contains(1));
        assert!(g.reaches_exact(TxnId(1), TxnId(2)));
        assert_eq!(predecessors(&g, TxnId(2)), vec![TxnId(1)]);
        // Re-linking the same pair does not duplicate the mirror entry.
        g.link(one, two);
        assert_eq!(predecessors(&g, TxnId(2)), vec![TxnId(1)]);
        assert_eq!(successors(&g, TxnId(1)), vec![TxnId(2)]);
        assert_edge_mirror(&g);
    }

    #[test]
    fn propagate_from_keeps_the_source_set_intact() {
        let mut g = graph();
        g.insert_pending(TxnId(1), &[], &[], 1);
        g.insert_pending(TxnId(2), &[TxnId(1)], &[], 1);
        g.insert_pending(TxnId(3), &[], &[], 1);
        // An edge 2 → 3 whose union has not happened yet: the downstream pass from 2 supplies
        // it. Target learned exactly {1, 2}; source still holds exactly {1}.
        let (two, three) = (g.slot_of(TxnId(2)).unwrap(), g.slot_of(TxnId(3)).unwrap());
        g.nodes[two as usize].as_mut().unwrap().succ.push(three);
        g.propagate_from(&[two]);
        assert_eq!(
            g.node(TxnId(3)).unwrap().anti_reachable,
            g.reach_set_of(&[1, 2])
        );
        assert_eq!(
            g.node(TxnId(2)).unwrap().anti_reachable,
            g.reach_set_of(&[1])
        );
    }

    #[test]
    fn ages_are_bumped_on_downstream_nodes() {
        let mut g = graph();
        g.insert_pending(TxnId(1), &[], &[], 3);
        g.mark_committed(TxnId(1), SeqNo::new(3, 1));
        assert_eq!(g.node(TxnId(1)).unwrap().age, 3);
        // New transaction for block 7 whose successor is 1: 1's age must be bumped to 7.
        g.insert_pending(TxnId(2), &[], &[TxnId(1)], 7);
        assert_eq!(g.node(TxnId(1)).unwrap().age, 7);
        assert_eq!(g.node(TxnId(2)).unwrap().age, 7);
    }
}

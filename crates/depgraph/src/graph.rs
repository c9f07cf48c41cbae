//! The transaction dependency graph (Sections 4.3–4.5).
//!
//! Every transaction accepted by the FabricSharp orderer becomes a node. Node storage is a
//! slab indexed by dense interned slots ([`crate::interner::Interner`]): edges follow the
//! *dependency order* (`from` must be serialized before `to`) and are stored as immediate
//! successor lists (`succ`) of `u32` slots mirrored by predecessor lists (`pred`), so removals
//! touch only a node's neighbourhood and traversals index a `Vec` instead of hashing. Each
//! node carries `anti_reachable`: a set — a bloom filter, optionally shadowed by an exact set
//! for the ablation experiments — of every transaction that can reach it. Cycle detection for
//! a new transaction then reduces to membership tests between its prospective predecessors and
//! successors (Section 4.4), and Algorithm 4's reachability maintenance reduces to bit-vector
//! unions. Exact reachability queries run on a reusable [`crate::visited::EpochVisited`]
//! scratch set, so the per-transaction path allocates nothing once the slab is warm.

use crate::bloom::BloomFilter;
use crate::interner::Interner;
use crate::visited::EpochVisited;
use eov_common::config::CcConfig;
use eov_common::txn::TxnId;
use eov_common::version::SeqNo;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// The set of transactions that can reach a node.
///
/// Always backed by a bloom filter (the production representation); when
/// [`CcConfig::track_exact_reachability`] is enabled an exact `HashSet` is maintained
/// alongside, which lets tests and the ablation benchmarks distinguish genuine cycles from
/// bloom false positives.
#[derive(Clone, Debug)]
pub struct ReachSet {
    bloom: BloomFilter,
    exact: Option<HashSet<u64>>,
}

impl ReachSet {
    /// Creates an empty reach set with the given bloom geometry.
    pub fn new(config: &CcConfig) -> Self {
        ReachSet {
            bloom: BloomFilter::new(config.bloom_bits, config.bloom_hashes),
            exact: config.track_exact_reachability.then(HashSet::new),
        }
    }

    /// A minimal throwaway set used to temporarily displace a stored set while it is borrowed
    /// as a union source (see [`DependencyGraph::insert_pending`]); never unioned or queried.
    pub(crate) fn placeholder() -> Self {
        ReachSet {
            bloom: BloomFilter::new(64, 1),
            exact: None,
        }
    }

    /// Inserts a transaction id.
    pub fn insert(&mut self, id: TxnId) {
        self.bloom.insert(id.0);
        if let Some(exact) = &mut self.exact {
            exact.insert(id.0);
        }
    }

    /// Membership test against the bloom filter (may be a false positive).
    pub fn contains(&self, id: TxnId) -> bool {
        self.bloom.contains(id.0)
    }

    /// Membership test with the double-hashing pair precomputed by
    /// [`BloomFilter::hash_pair`]. Equivalent to [`ReachSet::contains`]; lets the cycle test
    /// hash each candidate successor once instead of once per (pred, succ) pair.
    #[inline]
    pub(crate) fn contains_prehashed(&self, hashes: (u64, u64)) -> bool {
        self.bloom.contains_prehashed(hashes)
    }

    /// Exact membership, if exact tracking is enabled.
    pub fn contains_exact(&self, id: TxnId) -> Option<bool> {
        self.exact.as_ref().map(|s| s.contains(&id.0))
    }

    /// Unions `other` into `self`.
    pub fn union_with(&mut self, other: &ReachSet) {
        self.bloom.union_with(&other.bloom);
        if let (Some(mine), Some(theirs)) = (&mut self.exact, &other.exact) {
            mine.extend(theirs.iter().copied());
        }
    }

    /// Number of set bits in the bloom filter (saturation diagnostics).
    pub fn bloom_popcount(&self) -> u32 {
        self.bloom.popcount()
    }
}

/// A node of the dependency graph.
#[derive(Clone, Debug)]
pub struct TxnNode {
    /// The transaction this node represents.
    pub id: TxnId,
    /// Start timestamp (Definition 3): the snapshot the transaction was simulated against.
    pub start_ts: SeqNo,
    /// End timestamp (Definition 4) once the transaction has been placed in a block; `None`
    /// while it is still pending.
    pub end_ts: Option<SeqNo>,
    /// Immediate successors in dependency order, as interned slots. External callers read
    /// transaction ids through [`DependencyGraph::successors`].
    pub(crate) succ: Vec<u32>,
    /// Immediate predecessors — the mirror of `succ`, maintained so removing a node only has
    /// to visit its neighbours instead of scanning every successor list in the graph.
    pub(crate) pred: Vec<u32>,
    /// Every transaction that can reach this node (bloom-filter representation).
    pub anti_reachable: ReachSet,
    /// Age (Section 4.6): the highest block number such that a transaction destined for that
    /// block can reach this node. Nodes whose age falls behind the pruning threshold can never
    /// join a future cycle and are removed.
    pub age: u64,
}

impl TxnNode {
    /// Whether the node is still pending (not yet assigned a block slot).
    pub fn is_pending(&self) -> bool {
        self.end_ts.is_none()
    }
}

/// Specification of a new pending transaction to be inserted into the graph.
#[derive(Clone, Debug)]
pub struct PendingTxnSpec {
    /// Transaction id.
    pub id: TxnId,
    /// Start timestamp (snapshot sequence number).
    pub start_ts: SeqNo,
}

/// Outcome of the cycle test performed before inserting a new transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CycleCheck {
    /// No predecessor is reachable from any successor: inserting the transaction keeps the
    /// graph acyclic.
    Acyclic,
    /// Some successor (possibly) reaches some predecessor. `confirmed_exact` reports whether
    /// the exact shadow structure (if enabled) agrees — `Some(false)` marks a bloom false
    /// positive, which still aborts the transaction (preventive abort, Section 4.4).
    Cycle {
        /// `Some(true)` — the exact structure confirms the cycle; `Some(false)` — bloom false
        /// positive; `None` — exact tracking disabled.
        confirmed_exact: Option<bool>,
    },
}

impl CycleCheck {
    /// Whether the transaction may be inserted.
    pub fn is_acyclic(&self) -> bool {
        matches!(self, CycleCheck::Acyclic)
    }
}

/// Report returned by [`DependencyGraph::insert_pending`]; feeds the Figure 13 statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InsertReport {
    /// Number of nodes visited while propagating reachability to the new transaction's
    /// descendants ("# of hops" in Figure 13).
    pub hops: usize,
}

/// The pending transactions in arrival order (the set `P` of Algorithms 2 and 3).
///
/// An order-preserving index: arrival order is kept in a slot vector whose entries are
/// tombstoned on removal (`mark_committed` / `remove` are O(1) amortised instead of the
/// `Vec::retain` O(n) scan per commit the seed shipped with), while a hash index maps each id
/// to its slot. The slot vector is compacted once more than half of it is tombstones, so
/// iteration stays O(live) amortised.
#[derive(Clone, Debug, Default)]
struct PendingList {
    slots: Vec<Option<TxnId>>,
    index: HashMap<u64, usize>,
    live: usize,
}

impl PendingList {
    /// Appends `id` at the end of the arrival order. Ignores ids already present.
    fn push(&mut self, id: TxnId) {
        if self.index.contains_key(&id.0) {
            return;
        }
        self.index.insert(id.0, self.slots.len());
        self.slots.push(Some(id));
        self.live += 1;
    }

    /// Removes `id`, preserving the relative order of everything else. Returns whether the id
    /// was present.
    fn remove(&mut self, id: TxnId) -> bool {
        let Some(slot) = self.index.remove(&id.0) else {
            return false;
        };
        self.slots[slot] = None;
        self.live -= 1;
        self.maybe_compact();
        true
    }

    /// Removes every id in `ids`, preserving the relative order of the survivors.
    fn remove_all(&mut self, ids: &[TxnId]) {
        for id in ids {
            if let Some(slot) = self.index.remove(&id.0) {
                self.slots[slot] = None;
                self.live -= 1;
            }
        }
        self.maybe_compact();
    }

    fn maybe_compact(&mut self) {
        if self.slots.len() > 32 && self.live * 2 < self.slots.len() {
            self.slots.retain(Option::is_some);
            for (slot, id) in self.slots.iter().enumerate() {
                let id = id.expect("tombstones were just dropped");
                self.index.insert(id.0, slot);
            }
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    fn iter(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.slots.iter().filter_map(|slot| *slot)
    }
}

/// Reusable traversal scratch shared by the query paths. One instance lives inside the graph
/// behind a `RefCell` (queries take `&self`); mutating entry points reach it without runtime
/// borrow checks through `RefCell::get_mut`.
#[derive(Clone, Debug, Default)]
pub(crate) struct Scratch {
    /// Visited set for DFS walks.
    pub(crate) visited: EpochVisited,
    /// Second mark set for queries that need membership and visited simultaneously (the exact
    /// cycle oracle marks predecessor slots here while `visited` tracks the DFS).
    pub(crate) marks: EpochVisited,
    /// DFS stack of slots.
    pub(crate) stack: Vec<u32>,
    /// Per-successor (slot, bloom hash pair) cache for the arrival-time cycle test.
    succ_info: Vec<(Option<u32>, (u64, u64))>,
}

/// The transaction dependency graph `G` with nodes `U` and successor edges `V`.
#[derive(Clone, Debug)]
pub struct DependencyGraph {
    interner: Interner,
    /// Node slab, parallel to the interner's slot space; `None` marks a recyclable slot.
    nodes: Vec<Option<TxnNode>>,
    pending: PendingList,
    config: CcConfig,
    scratch: RefCell<Scratch>,
}

impl DependencyGraph {
    /// Creates an empty graph with the given concurrency-control configuration.
    pub fn new(config: CcConfig) -> Self {
        DependencyGraph {
            interner: Interner::new(),
            nodes: Vec::new(),
            pending: PendingList::default(),
            config,
            scratch: RefCell::new(Scratch::default()),
        }
    }

    /// The configuration the graph was built with.
    pub fn config(&self) -> &CcConfig {
        &self.config
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

    /// The immediate successors of `id`, as transaction ids (empty if `id` is untracked).
    pub fn successors(&self, id: TxnId) -> Vec<TxnId> {
        self.node(id)
            .map(|n| n.succ.iter().map(|&s| self.interner.id_at(s)).collect())
            .unwrap_or_default()
    }

    /// The immediate predecessors of `id`, as transaction ids (empty if `id` is untracked).
    pub fn predecessors(&self, id: TxnId) -> Vec<TxnId> {
        self.node(id)
            .map(|n| n.pred.iter().map(|&p| self.interner.id_at(p)).collect())
            .unwrap_or_default()
    }

    /// The pending transactions in arrival order.
    pub fn pending_ids(&self) -> Vec<TxnId> {
        self.pending.iter().collect()
    }

    /// Number of pending transactions.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Iterates over all nodes in slot order.
    pub fn nodes(&self) -> impl Iterator<Item = &TxnNode> {
        self.nodes.iter().filter_map(Option::as_ref)
    }

    /// Every tracked transaction id (pending and committed-but-unpruned), in slot order.
    /// Membership snapshots only — slot order is an allocation artifact, not a schedule.
    pub fn tracked_ids(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.nodes().map(|n| n.id)
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

    /// The traversal scratch (shared with the `topo` and `cycle` modules).
    pub(crate) fn scratch(&self) -> &RefCell<Scratch> {
        &self.scratch
    }

    /// The earliest commit block among committed nodes still in the graph (`C` in the
    /// two-filter-relay discussion of Section 4.4), if any committed node remains.
    pub fn earliest_committed_block(&self) -> Option<u64> {
        self.nodes().filter_map(|n| n.end_ts.map(|e| e.block)).min()
    }

    /// Section 4.4's cycle test: for each pair `(p, s)` of a predecessor and a successor of the
    /// new transaction, a cycle would be closed iff `s` can already reach `p` (the new
    /// transaction would supply the missing `p → new → s` segment). Membership is tested on
    /// the predecessor's `anti_reachable` filter; a predecessor that is itself a successor is
    /// an immediate two-node cycle.
    ///
    /// The pair loop resolves each id to its interned slot once and precomputes each
    /// successor's bloom probe hashes once, so a scan over `|preds| × |succs|` pairs costs one
    /// filter probe per pair — no hashing, no map lookups — and bails out on the first
    /// (possible) hit.
    pub fn would_close_cycle(&self, preds: &[TxnId], succs: &[TxnId]) -> CycleCheck {
        let mut hit: Option<(TxnId, TxnId)> = None;
        {
            let mut scratch = self.scratch.borrow_mut();
            scratch.succ_info.clear();
            for s in succs {
                scratch
                    .succ_info
                    .push((self.interner.get(*s), BloomFilter::hash_pair(s.0)));
            }
            'pairs: for &p in preds {
                let p_node = self
                    .interner
                    .get(p)
                    .and_then(|slot| self.nodes[slot as usize].as_ref());
                for (i, &s) in succs.iter().enumerate() {
                    if p == s {
                        return CycleCheck::Cycle {
                            confirmed_exact: Some(true),
                        };
                    }
                    let Some(p_node) = p_node else {
                        continue;
                    };
                    let (s_slot, s_hashes) = scratch.succ_info[i];
                    if s_slot.is_none() {
                        continue;
                    }
                    if p_node.anti_reachable.contains_prehashed(s_hashes) {
                        hit = Some((p, s));
                        break 'pairs;
                    }
                }
            }
        }
        match hit {
            None => CycleCheck::Acyclic,
            Some((p, s)) => {
                let p_node = self.node(p).expect("bloom hit implies a tracked pred");
                let confirmed = p_node
                    .anti_reachable
                    .contains_exact(s)
                    .map(|exact| exact || self.reaches_exact(s, p));
                CycleCheck::Cycle {
                    confirmed_exact: confirmed,
                }
            }
        }
    }

    /// Algorithm 4: inserts a pending transaction with the given immediate predecessors and
    /// successors, then propagates reachability to every node reachable from the successors
    /// and bumps their age to `next_block` (the block the new transaction will commit in).
    ///
    /// Predecessor / successor ids that are no longer tracked (already pruned) are ignored —
    /// their edges can no longer participate in any cycle involving future transactions, which
    /// is exactly why pruning was safe.
    ///
    /// The downstream delta (the new node's reachability plus the new node itself) is borrowed
    /// from the stored node for the duration of the walk instead of being cloned per insertion
    /// — the per-insert `ReachSet` clone was the dominant arrival-path cost at production
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
        spec: PendingTxnSpec,
        preds: &[TxnId],
        succs: &[TxnId],
        next_block: u64,
    ) -> InsertReport {
        let id = spec.id;
        if self.interner.get(id).is_some() {
            return InsertReport::default();
        }
        let slot = self.interner.intern(id);
        if slot as usize == self.nodes.len() {
            self.nodes.push(None);
        }
        let mut node = TxnNode {
            id,
            start_ts: spec.start_ts,
            end_ts: None,
            succ: Vec::new(),
            pred: Vec::new(),
            anti_reachable: ReachSet::new(&self.config),
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
                node.pred.push(p_slot);
            }
            node.anti_reachable.insert(p);
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
                .push(slot);
        }

        let succ_roots = node.succ.clone();
        self.nodes[slot as usize] = Some(node);
        self.pending.push(id);

        // Propagate to every node reachable from the successors (Algorithm 4 lines 5–7): each
        // visited node learns the new transaction's reachability plus the new transaction
        // itself. The delta is moved out of the stored node (the graph is acyclic, so the new
        // node can never appear in its own downstream) and moved back after the walk.
        let delta = {
            let n = self.nodes[slot as usize].as_mut().expect("inserted above");
            std::mem::replace(&mut n.anti_reachable, ReachSet::placeholder())
        };
        let mut hops = 0usize;
        let capacity = self.nodes.len();
        let scratch = self.scratch.get_mut();
        scratch.visited.reset(capacity);
        scratch.visited.insert(slot);
        scratch.stack.clear();
        scratch.stack.extend_from_slice(&succ_roots);
        while let Some(current) = scratch.stack.pop() {
            if !scratch.visited.insert(current) {
                continue;
            }
            let n = self.nodes[current as usize]
                .as_mut()
                .expect("adjacency never dangles");
            hops += 1;
            n.anti_reachable.union_with(&delta);
            n.anti_reachable.insert(id);
            n.age = n.age.max(next_block);
            scratch.stack.extend_from_slice(&n.succ);
        }
        self.nodes[slot as usize]
            .as_mut()
            .expect("inserted above")
            .anti_reachable = delta;

        InsertReport { hops }
    }

    /// Adds a dependency edge `from → to` between two existing nodes *without* touching any
    /// reachability set. Self edges, unknown endpoints and duplicate edges are ignored. Used by
    /// the cross-shard coordinator, which wires a border transaction's per-shard edges first
    /// and then runs one global reachability walk over all of them.
    pub fn add_edge(&mut self, from: TxnId, to: TxnId) {
        if from == to {
            return;
        }
        let (Some(from_slot), Some(to_slot)) = (self.interner.get(from), self.interner.get(to))
        else {
            return;
        };
        let from_node = self.nodes[from_slot as usize]
            .as_mut()
            .expect("interned slots are live");
        if !from_node.succ.contains(&to_slot) {
            from_node.succ.push(to_slot);
            self.nodes[to_slot as usize]
                .as_mut()
                .expect("interned slots are live")
                .pred
                .push(from_slot);
        }
    }

    /// Unions `delta` into `id`'s reachability set, optionally inserting `source` as well, and
    /// raises the node's age to at least `min_age`. This is exactly the per-node update of
    /// Algorithm 4's downstream walk, exposed so the cross-shard coordinator can drive one
    /// *global* walk across several shard graphs while each shard applies the update to its
    /// own copy of the node. A no-op for untracked ids.
    pub fn absorb_reach(
        &mut self,
        id: TxnId,
        delta: &ReachSet,
        source: Option<TxnId>,
        min_age: u64,
    ) {
        let Some(slot) = self.interner.get(id) else {
            return;
        };
        let node = self.nodes[slot as usize]
            .as_mut()
            .expect("interned slots are live");
        node.anti_reachable.union_with(delta);
        if let Some(source) = source {
            node.anti_reachable.insert(source);
        }
        node.age = node.age.max(min_age);
    }

    /// Replaces `id`'s reachability set wholesale. Used by the cross-shard coordinator to keep
    /// every shard's copy of a border transaction carrying the *merged* (global) set — the
    /// invariant that makes per-shard cycle probes give globally correct answers.
    pub fn replace_reach(&mut self, id: TxnId, set: ReachSet) {
        if let Some(slot) = self.interner.get(id) {
            self.nodes[slot as usize]
                .as_mut()
                .expect("interned slots are live")
                .anti_reachable = set;
        }
    }

    /// Moves `id`'s reachability set out of the node, leaving a placeholder. The cross-shard
    /// coordinator borrows a node's set as the downstream-walk delta this way instead of
    /// cloning it (the clone was the dominant coordinator cost at production bloom sizes);
    /// callers must hand the set back via [`DependencyGraph::replace_reach`] before anyone
    /// can observe the placeholder.
    pub fn take_reach(&mut self, id: TxnId) -> Option<ReachSet> {
        let slot = self.interner.get(id)?;
        let node = self.nodes[slot as usize]
            .as_mut()
            .expect("interned slots are live");
        Some(std::mem::replace(
            &mut node.anti_reachable,
            ReachSet::placeholder(),
        ))
    }

    /// Calls `f` with each immediate successor id of `id` — the allocation-free counterpart of
    /// [`DependencyGraph::successors`], used by the cross-shard coordinator's epoch-scratch
    /// walks. A no-op for untracked ids.
    pub(crate) fn for_each_successor(&self, id: TxnId, mut f: impl FnMut(TxnId)) {
        if let Some(node) = self.node(id) {
            for &s in &node.succ {
                f(self.interner.id_at(s));
            }
        }
    }

    /// Adds a dependency edge `from → to` between two existing nodes and unions `from`'s
    /// reachability (plus `from` itself) into `to`. Used by the ww-restoration step
    /// (Algorithm 5), which then propagates further downstream itself in topological order.
    pub fn add_edge_with_union(&mut self, from: TxnId, to: TxnId) {
        if from == to {
            return;
        }
        let (Some(from_slot), Some(to_slot)) = (self.interner.get(from), self.interner.get(to))
        else {
            return;
        };
        let from_node = self.nodes[from_slot as usize]
            .as_mut()
            .expect("interned slots are live");
        if !from_node.succ.contains(&to_slot) {
            from_node.succ.push(to_slot);
            self.nodes[to_slot as usize]
                .as_mut()
                .expect("interned slots are live")
                .pred
                .push(from_slot);
        }
        self.union_through(from_slot, to_slot);
    }

    /// Unions the reachability of `source` (plus `source` itself) into `target` without adding
    /// an edge; used by Algorithm 5's downstream propagation loop.
    pub fn propagate_reachability(&mut self, source: TxnId, target: TxnId) {
        if source == target {
            return;
        }
        let (Some(source_slot), Some(target_slot)) =
            (self.interner.get(source), self.interner.get(target))
        else {
            return;
        };
        self.union_through(source_slot, target_slot);
    }

    /// `target.anti_reachable ∪= source.anti_reachable ∪ {source}` without cloning: the source
    /// set is moved out for the duration of the union and moved back. Callers guarantee
    /// `source != target` and that both slots are live.
    fn union_through(&mut self, source: u32, target: u32) {
        let source_id = self.interner.id_at(source);
        let delta = {
            let s = self.nodes[source as usize]
                .as_mut()
                .expect("caller checked");
            std::mem::replace(&mut s.anti_reachable, ReachSet::placeholder())
        };
        {
            let t = self.nodes[target as usize]
                .as_mut()
                .expect("caller checked");
            t.anti_reachable.union_with(&delta);
            t.anti_reachable.insert(source_id);
        }
        self.nodes[source as usize]
            .as_mut()
            .expect("caller checked")
            .anti_reachable = delta;
    }

    /// Whether the pending pair `(earlier, later)` is already connected in the reachability
    /// structure, i.e. `earlier` can reach `later`. Used by Algorithm 5 to skip redundant ww
    /// edges (the Txn0 → Txn3 case of Figure 9).
    pub fn already_connected(&self, earlier: TxnId, later: TxnId) -> bool {
        self.node(later)
            .map(|n| n.anti_reachable.contains(earlier))
            .unwrap_or(false)
    }

    /// Marks a pending transaction as committed at `end_ts`. The node stays in the graph (its
    /// dependencies may still matter for future cycles) until pruning removes it.
    pub fn mark_committed(&mut self, id: TxnId, end_ts: SeqNo) {
        if let Some(slot) = self.interner.get(id) {
            if let Some(node) = self.nodes[slot as usize].as_mut() {
                node.end_ts = Some(end_ts);
            }
        }
        self.pending.remove(id);
    }

    /// Removes a pending transaction entirely (used by adversarial tests and by callers that
    /// drop a transaction after accepting it). Only the removed node's neighbours are visited
    /// — the predecessor lists make the cleanup O(degree) instead of a full graph scan — and
    /// the freed slot returns to the interner's free list for reuse.
    pub fn remove(&mut self, id: TxnId) {
        self.pending.remove(id);
        let Some(slot) = self.interner.release(id) else {
            return;
        };
        let node = self.nodes[slot as usize]
            .take()
            .expect("interned slots are live");
        for p in node.pred {
            if let Some(p_node) = self.nodes[p as usize].as_mut() {
                p_node.succ.retain(|s| *s != slot);
            }
        }
        for s in node.succ {
            if let Some(s_node) = self.nodes[s as usize].as_mut() {
                s_node.pred.retain(|p| *p != slot);
            }
        }
    }

    /// Exact reachability query over successor edges (DFS on the epoch-tagged scratch). Used
    /// by the test oracles and to classify bloom false positives.
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

    /// Mutable access to a node — only exposed to the pruning/rebuild modules and tests.
    pub(crate) fn node_mut(&mut self, id: TxnId) -> Option<&mut TxnNode> {
        let slot = self.interner.get(id)?;
        self.nodes[slot as usize].as_mut()
    }

    /// Internal: removes the given nodes and cleans dangling edge references. Cleanup only
    /// visits the neighbours of removed nodes (via the predecessor mirror), so bulk pruning is
    /// O(removed × degree) instead of O(survivors × successor-list length).
    ///
    /// `ids` must be sorted: slots are released in the order given and the interner recycles
    /// them LIFO, so the order decides future slot assignments (and thus slot-ordered node
    /// walks) — ascending id order is the one every replica agrees on.
    pub(crate) fn remove_many(&mut self, ids: &[TxnId]) {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids sorted and distinct"
        );
        if ids.is_empty() {
            return;
        }
        self.pending.remove_all(ids);
        for &id in ids {
            let Some(slot) = self.interner.release(id) else {
                continue;
            };
            let node = self.nodes[slot as usize]
                .take()
                .expect("interned slots are live");
            for p in node.pred {
                if let Some(p_node) = self.nodes[p as usize].as_mut() {
                    p_node.succ.retain(|s| *s != slot);
                }
            }
            for s in node.succ {
                if let Some(s_node) = self.nodes[s as usize].as_mut() {
                    s_node.pred.retain(|p| *p != slot);
                }
            }
        }
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

    fn spec(id: u64, snapshot_block: u64) -> PendingTxnSpec {
        PendingTxnSpec {
            id: TxnId(id),
            start_ts: SeqNo::snapshot_after(snapshot_block),
        }
    }

    /// Checks the succ/pred mirror invariant: every edge appears in exactly both lists and
    /// never dangles.
    fn assert_edge_mirror(g: &DependencyGraph) {
        for node in g.nodes() {
            for s in g.successors(node.id) {
                assert!(
                    g.predecessors(s).contains(&node.id),
                    "edge {:?} → {:?} missing from pred mirror",
                    node.id,
                    s
                );
            }
            for p in g.predecessors(node.id) {
                assert!(
                    g.successors(p).contains(&node.id),
                    "edge {:?} → {:?} missing from succ list",
                    p,
                    node.id
                );
            }
        }
    }

    #[test]
    fn insert_wires_predecessors_and_successors() {
        let mut g = DependencyGraph::new(cfg_exact());
        g.insert_pending(spec(1, 0), &[], &[], 1);
        g.insert_pending(spec(2, 0), &[TxnId(1)], &[], 1);

        assert_eq!(g.len(), 2);
        assert_eq!(g.successors(TxnId(1)), vec![TxnId(2)]);
        assert_eq!(g.predecessors(TxnId(2)), vec![TxnId(1)]);
        assert!(g.node(TxnId(2)).unwrap().anti_reachable.contains(TxnId(1)));
        assert!(g.reaches_exact(TxnId(1), TxnId(2)));
        assert!(!g.reaches_exact(TxnId(2), TxnId(1)));
        assert_eq!(g.pending_ids(), vec![TxnId(1), TxnId(2)]);
        assert_edge_mirror(&g);
    }

    #[test]
    fn reachability_is_transitive_through_unions() {
        let mut g = DependencyGraph::new(cfg_exact());
        g.insert_pending(spec(1, 0), &[], &[], 1);
        g.insert_pending(spec(2, 0), &[TxnId(1)], &[], 1);
        g.insert_pending(spec(3, 0), &[TxnId(2)], &[], 1);
        // 1 → 2 → 3: node 3's anti_reachable must contain both 1 and 2.
        let n3 = g.node(TxnId(3)).unwrap();
        assert!(n3.anti_reachable.contains(TxnId(1)));
        assert!(n3.anti_reachable.contains(TxnId(2)));
    }

    #[test]
    fn inserting_with_successors_propagates_downstream() {
        let mut g = DependencyGraph::new(cfg_exact());
        // Existing chain 10 → 11.
        g.insert_pending(spec(10, 0), &[], &[], 1);
        g.insert_pending(spec(11, 0), &[TxnId(10)], &[], 1);
        // New transaction 5 whose successor is 10: everything downstream of 10 must now know
        // that 5 can reach it.
        let report = g.insert_pending(spec(5, 0), &[], &[TxnId(10)], 1);
        assert!(
            report.hops >= 2,
            "should traverse 10 and 11, got {}",
            report.hops
        );
        assert!(g.node(TxnId(10)).unwrap().anti_reachable.contains(TxnId(5)));
        assert!(g.node(TxnId(11)).unwrap().anti_reachable.contains(TxnId(5)));
        assert!(g.reaches_exact(TxnId(5), TxnId(11)));
        assert_edge_mirror(&g);
    }

    /// Regression test for the delta borrow dance: after the downstream walk, the new node
    /// must still own its full reachability set (its predecessors and their reachability) —
    /// taking the set for the walk and failing to restore it would silently disable future
    /// cycle detection through the new node.
    #[test]
    fn insert_restores_the_new_nodes_reach_set_after_propagation() {
        let mut g = DependencyGraph::new(cfg_exact());
        g.insert_pending(spec(1, 0), &[], &[], 1);
        g.insert_pending(spec(2, 0), &[TxnId(1)], &[], 1);
        g.insert_pending(spec(7, 0), &[], &[], 1);
        g.insert_pending(spec(8, 0), &[TxnId(7)], &[], 1);
        // New node 5: preds {2}, succs {7} — its stored set must contain 1 and 2 after the
        // downstream walk through 7 and 8.
        g.insert_pending(spec(5, 0), &[TxnId(2)], &[TxnId(7)], 1);
        let n5 = g.node(TxnId(5)).unwrap();
        assert!(n5.anti_reachable.contains(TxnId(1)));
        assert!(n5.anti_reachable.contains(TxnId(2)));
        assert_eq!(n5.anti_reachable.contains_exact(TxnId(1)), Some(true));
        // ...and must NOT contain itself or its downstream.
        assert_eq!(n5.anti_reachable.contains_exact(TxnId(5)), Some(false));
        assert_eq!(n5.anti_reachable.contains_exact(TxnId(7)), Some(false));
        // Downstream nodes learned the full delta: {1, 2, 5}.
        for downstream in [TxnId(7), TxnId(8)] {
            let n = g.node(downstream).unwrap();
            for member in [TxnId(1), TxnId(2), TxnId(5)] {
                assert_eq!(
                    n.anti_reachable.contains_exact(member),
                    Some(true),
                    "{downstream:?} must know {member:?} reaches it"
                );
            }
        }
    }

    #[test]
    fn cycle_detection_catches_pred_reachable_from_succ() {
        let mut g = DependencyGraph::new(cfg_exact());
        // 1 → 2 (1 is a predecessor of 2).
        g.insert_pending(spec(1, 0), &[], &[], 1);
        g.insert_pending(spec(2, 0), &[TxnId(1)], &[], 1);
        // A new transaction with predecessor 2 and successor 1 would close 1 → 2 → new → 1.
        let check = g.would_close_cycle(&[TxnId(2)], &[TxnId(1)]);
        assert!(!check.is_acyclic());
        assert_eq!(
            check,
            CycleCheck::Cycle {
                confirmed_exact: Some(true)
            }
        );
        // The reverse direction (pred 1, succ 2) is fine: new sits between them.
        assert!(g.would_close_cycle(&[TxnId(1)], &[TxnId(2)]).is_acyclic());
    }

    #[test]
    fn same_txn_as_pred_and_succ_is_a_two_node_cycle() {
        let mut g = DependencyGraph::new(cfg_exact());
        g.insert_pending(spec(1, 0), &[], &[], 1);
        let check = g.would_close_cycle(&[TxnId(1)], &[TxnId(1)]);
        assert_eq!(
            check,
            CycleCheck::Cycle {
                confirmed_exact: Some(true)
            }
        );
    }

    #[test]
    fn unknown_ids_are_ignored_by_cycle_test_and_insert() {
        let mut g = DependencyGraph::new(cfg_exact());
        g.insert_pending(spec(1, 0), &[], &[], 1);
        assert!(g.would_close_cycle(&[TxnId(99)], &[TxnId(1)]).is_acyclic());
        let report = g.insert_pending(spec(2, 0), &[TxnId(77)], &[TxnId(88)], 1);
        assert_eq!(report.hops, 0);
        assert!(g.successors(TxnId(2)).is_empty());
        assert!(g.predecessors(TxnId(2)).is_empty());
    }

    #[test]
    fn mark_committed_moves_out_of_pending_but_keeps_the_node() {
        let mut g = DependencyGraph::new(cfg_exact());
        g.insert_pending(spec(1, 0), &[], &[], 1);
        g.mark_committed(TxnId(1), SeqNo::new(1, 1));
        assert_eq!(g.pending_len(), 0);
        assert!(g.contains(TxnId(1)));
        assert!(!g.node(TxnId(1)).unwrap().is_pending());
        assert_eq!(g.earliest_committed_block(), Some(1));
    }

    #[test]
    fn remove_cleans_successor_references() {
        let mut g = DependencyGraph::new(cfg_exact());
        g.insert_pending(spec(1, 0), &[], &[], 1);
        g.insert_pending(spec(2, 0), &[TxnId(1)], &[], 1);
        g.remove(TxnId(2));
        assert!(!g.contains(TxnId(2)));
        assert!(g.successors(TxnId(1)).is_empty());
        assert_eq!(g.pending_len(), 1);
    }

    #[test]
    fn remove_cleans_predecessor_references_too() {
        let mut g = DependencyGraph::new(cfg_exact());
        g.insert_pending(spec(1, 0), &[], &[], 1);
        g.insert_pending(spec(2, 0), &[TxnId(1)], &[], 1);
        g.insert_pending(spec(3, 0), &[TxnId(2)], &[], 1);
        g.remove(TxnId(2));
        assert!(g.successors(TxnId(1)).is_empty());
        assert!(g.predecessors(TxnId(3)).is_empty());
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
        let mut g = DependencyGraph::new(cfg_exact());
        g.insert_pending(spec(0, 0), &[], &[], 1);
        g.insert_pending(spec(1, 0), &[], &[], 1);
        g.insert_pending(spec(2, 0), &[TxnId(1)], &[], 1);
        g.mark_committed(TxnId(2), SeqNo::new(1, 1));

        // Replay of txn 2 (still tracked, no longer pending): must change nothing.
        let report = g.insert_pending(spec(2, 0), &[], &[], 2);
        assert_eq!(report, InsertReport::default());
        assert_eq!(g.len(), 3);
        assert_eq!(g.pending_ids(), vec![TxnId(0), TxnId(1)]);
        assert!(!g.node(TxnId(2)).unwrap().is_pending());
        assert_eq!(g.successors(TxnId(1)), vec![TxnId(2)]);
        assert_eq!(g.predecessors(TxnId(2)), vec![TxnId(1)]);
        assert_edge_mirror(&g);

        // The reviewer's corruption scenario: remove the replayed node, then let a fresh
        // transaction recycle its slot — no panic, no phantom reachability.
        g.remove(TxnId(2));
        assert!(g.successors(TxnId(1)).is_empty());
        g.insert_pending(spec(3, 0), &[], &[], 2);
        assert!(!g.reaches_exact(TxnId(1), TxnId(0)));
        assert!(!g.reaches_exact(TxnId(1), TxnId(3)));
        assert_eq!(g.node(TxnId(3)).unwrap().anti_reachable.bloom_popcount(), 0);
        assert_edge_mirror(&g);
    }

    /// Slot recycling must never leak edges from the slot's previous occupant: a new
    /// transaction that inherits a freed slot starts with clean adjacency and a clean filter.
    #[test]
    fn recycled_slots_start_clean() {
        let mut g = DependencyGraph::new(cfg_exact());
        g.insert_pending(spec(1, 0), &[], &[], 1);
        g.insert_pending(spec(2, 0), &[TxnId(1)], &[], 1);
        g.remove(TxnId(2));
        // Txn 3 reuses txn 2's slot (free-list LIFO) but has no relation to txn 1.
        g.insert_pending(spec(3, 0), &[], &[], 1);
        assert!(g.successors(TxnId(1)).is_empty());
        assert!(g.predecessors(TxnId(3)).is_empty());
        assert_eq!(g.node(TxnId(3)).unwrap().anti_reachable.bloom_popcount(), 0);
        assert!(!g.reaches_exact(TxnId(1), TxnId(3)));
        assert_edge_mirror(&g);
    }

    #[test]
    fn remove_many_only_touches_neighbours_and_keeps_the_mirror_consistent() {
        let mut g = DependencyGraph::new(cfg_exact());
        // Chain 1 → 2 → 3 → 4 plus a cross edge 1 → 4.
        g.insert_pending(spec(1, 0), &[], &[], 1);
        g.insert_pending(spec(2, 0), &[TxnId(1)], &[], 1);
        g.insert_pending(spec(3, 0), &[TxnId(2)], &[], 1);
        g.insert_pending(spec(4, 0), &[TxnId(3), TxnId(1)], &[], 1);
        g.remove_many(&[TxnId(2), TxnId(3)]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.successors(TxnId(1)), vec![TxnId(4)]);
        assert_eq!(g.predecessors(TxnId(4)), vec![TxnId(1)]);
        assert_eq!(g.pending_ids(), vec![TxnId(1), TxnId(4)]);
        assert_edge_mirror(&g);
    }

    /// Regression test for the pending-list index: removals (commits) must preserve arrival
    /// order for the survivors, across enough churn to trigger slot compaction several times.
    #[test]
    fn pending_order_survives_heavy_commit_churn() {
        let mut g = DependencyGraph::new(cfg_exact());
        for id in 0..200u64 {
            g.insert_pending(spec(id, 0), &[], &[], 1);
        }
        // Commit every even id (forces compaction: >50% tombstones).
        for id in (0..200u64).step_by(2) {
            g.mark_committed(TxnId(id), SeqNo::new(1, 1));
        }
        let expected: Vec<TxnId> = (0..200u64).filter(|id| id % 2 == 1).map(TxnId).collect();
        assert_eq!(g.pending_ids(), expected);
        assert_eq!(g.pending_len(), 100);

        // New arrivals land at the end of the order.
        g.insert_pending(spec(500, 0), &[], &[], 2);
        let ids = g.pending_ids();
        assert_eq!(*ids.last().unwrap(), TxnId(500));
        assert_eq!(ids.len(), 101);

        // Commit everything; pending drains to empty and re-fills cleanly.
        for id in ids {
            g.mark_committed(id, SeqNo::new(2, 1));
        }
        assert_eq!(g.pending_len(), 0);
        g.insert_pending(spec(900, 0), &[], &[], 3);
        assert_eq!(g.pending_ids(), vec![TxnId(900)]);
    }

    #[test]
    fn add_edge_with_union_and_already_connected() {
        let mut g = DependencyGraph::new(cfg_exact());
        g.insert_pending(spec(1, 0), &[], &[], 1);
        g.insert_pending(spec(2, 0), &[], &[], 1);
        assert!(!g.already_connected(TxnId(1), TxnId(2)));
        g.add_edge_with_union(TxnId(1), TxnId(2));
        assert!(g.already_connected(TxnId(1), TxnId(2)));
        assert!(g.reaches_exact(TxnId(1), TxnId(2)));
        assert_eq!(g.predecessors(TxnId(2)), vec![TxnId(1)]);
        // Re-adding the same edge does not duplicate the mirror entry.
        g.add_edge_with_union(TxnId(1), TxnId(2));
        assert_eq!(g.predecessors(TxnId(2)), vec![TxnId(1)]);
        // Self edges and unknown nodes are no-ops.
        g.add_edge_with_union(TxnId(1), TxnId(1));
        g.add_edge_with_union(TxnId(9), TxnId(1));
        assert_eq!(g.len(), 2);
        assert_edge_mirror(&g);
    }

    #[test]
    fn propagate_reachability_keeps_the_source_set_intact() {
        let mut g = DependencyGraph::new(cfg_exact());
        g.insert_pending(spec(1, 0), &[], &[], 1);
        g.insert_pending(spec(2, 0), &[TxnId(1)], &[], 1);
        g.insert_pending(spec(3, 0), &[], &[], 1);
        g.propagate_reachability(TxnId(2), TxnId(3));
        // Target learned {1, 2}; source still knows {1}.
        let n3 = g.node(TxnId(3)).unwrap();
        assert_eq!(n3.anti_reachable.contains_exact(TxnId(1)), Some(true));
        assert_eq!(n3.anti_reachable.contains_exact(TxnId(2)), Some(true));
        let n2 = g.node(TxnId(2)).unwrap();
        assert_eq!(n2.anti_reachable.contains_exact(TxnId(1)), Some(true));
    }

    #[test]
    fn ages_are_bumped_on_downstream_nodes() {
        let mut g = DependencyGraph::new(cfg_exact());
        g.insert_pending(spec(1, 0), &[], &[], 3);
        g.mark_committed(TxnId(1), SeqNo::new(3, 1));
        assert_eq!(g.node(TxnId(1)).unwrap().age, 3);
        // New transaction for block 7 whose successor is 1: 1's age must be bumped to 7.
        g.insert_pending(spec(2, 5), &[], &[TxnId(1)], 7);
        assert_eq!(g.node(TxnId(1)).unwrap().age, 7);
        assert_eq!(g.node(TxnId(2)).unwrap().age, 7);
    }

    #[test]
    fn bloom_only_configuration_reports_unconfirmed_cycles() {
        let mut g = DependencyGraph::new(CcConfig::default());
        g.insert_pending(spec(1, 0), &[], &[], 1);
        g.insert_pending(spec(2, 0), &[TxnId(1)], &[], 1);
        match g.would_close_cycle(&[TxnId(2)], &[TxnId(1)]) {
            CycleCheck::Cycle { confirmed_exact } => assert_eq!(confirmed_exact, None),
            CycleCheck::Acyclic => panic!("expected a cycle"),
        }
    }
}

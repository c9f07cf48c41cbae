//! [`GraphEngine`]: the orderer-facing dependency graph — one flat [`DependencyGraph`] plus the
//! untracked-commit log.
//!
//! `FabricSharpCC` holds one of these, so the concurrency control's algorithms run over one
//! global graph as in Section 4.4.
//!
//! Besides the tracked graph, the engine keeps an **untracked-commit log**: transactions the
//! orderer committed *without* ever inserting them into the graph (the template fast path —
//! statically safe transaction classes skip insertion entirely). The log answers the
//! idempotence questions the graph would otherwise answer (`is_untracked` backs the arrival
//! guard and `register_committed`'s already-seen check) and is pruned on the same
//! `snapshot_threshold` schedule as committed graph nodes, so recovery and replay behave
//! identically whether a committed transaction was tracked or not. Its ids are also kept
//! grouped by commit block, oldest first, so a prune pops the aged-out groups and touches only
//! the entries it removes.

use crate::graph::{CycleCheck, DependencyGraph, InsertReport, PendingTxnSpec, TxnNode};
use crate::prune::snapshot_threshold;
use eov_common::config::CcConfig;
use eov_common::hash::FoldState;
use eov_common::txn::TxnId;
use eov_common::version::SeqNo;
use std::collections::{HashMap, VecDeque};

/// The dependency-graph engine behind the FabricSharp orderer: the tracked graph plus the
/// untracked-commit log for graph-bypassing transactions.
#[derive(Clone, Debug)]
pub struct GraphEngine {
    graph: DependencyGraph,
    /// Commit block of every transaction committed without graph insertion, pruned on the
    /// committed-node schedule.
    untracked: HashMap<TxnId, u64, FoldState>,
    /// The ids of `untracked` grouped by commit block, in ascending block order. A group may
    /// still name an id that was withdrawn or re-logged under another block since; pruning
    /// removes an id only while the map still records it under that group's block.
    untracked_by_block: VecDeque<(u64, Vec<TxnId>)>,
}

impl GraphEngine {
    /// Builds an empty engine.
    pub fn new(config: CcConfig) -> Self {
        GraphEngine {
            graph: DependencyGraph::new(config),
            untracked: HashMap::default(),
            untracked_by_block: VecDeque::new(),
        }
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &CcConfig {
        self.graph.config()
    }

    /// Number of distinct transactions currently tracked (the untracked log is not counted —
    /// its entries were never graph-resident).
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Whether no transaction is tracked.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Whether `id` is currently tracked in the graph.
    pub fn contains(&self, id: TxnId) -> bool {
        self.graph.contains(id)
    }

    /// Records that `id` committed in `block` without ever being graph-inserted (template
    /// fast path). The entry ages out exactly when a committed graph node of that block
    /// would ([`GraphEngine::prune_for_next_block`]).
    pub fn note_untracked_commit(&mut self, id: TxnId, block: u64) {
        self.untracked.insert(id, block);
        // Formation and replay log blocks in ascending order, so this is almost always the
        // last group or a new one after it.
        let at = self.untracked_by_block.partition_point(|(b, _)| *b < block);
        match self.untracked_by_block.get_mut(at) {
            Some((b, ids)) if *b == block => ids.push(id),
            _ => self.untracked_by_block.insert(at, (block, vec![id])),
        }
    }

    /// Whether `id` committed via the untracked (graph-bypassing) path and has not yet aged
    /// out of the log.
    pub fn is_untracked(&self, id: TxnId) -> bool {
        self.untracked.contains_key(&id)
    }

    /// Whether the engine knows `id` at all — tracked in the graph or in the untracked log.
    /// This is the idempotence question arrival and replay ask.
    pub fn knows(&self, id: TxnId) -> bool {
        self.contains(id) || self.is_untracked(id)
    }

    /// Number of not-yet-pruned untracked commits (tests and stats).
    pub fn untracked_len(&self) -> usize {
        self.untracked.len()
    }

    /// Immutable access to a node.
    pub fn node(&self, id: TxnId) -> Option<&TxnNode> {
        self.graph.node(id)
    }

    /// Section 4.4's arrival-time cycle probe.
    pub fn would_close_cycle(&self, preds: &[TxnId], succs: &[TxnId]) -> CycleCheck {
        self.graph.would_close_cycle(preds, succs)
    }

    /// Algorithm 4: inserts a pending transaction.
    pub fn insert_pending(
        &mut self,
        spec: PendingTxnSpec,
        preds: &[TxnId],
        succs: &[TxnId],
        next_block: u64,
    ) -> InsertReport {
        self.graph.insert_pending(spec, preds, succs, next_block)
    }

    /// Marks a transaction committed at `end_ts`.
    pub fn mark_committed(&mut self, id: TxnId, end_ts: SeqNo) {
        self.graph.mark_committed(id, end_ts);
    }

    /// Removes a transaction entirely (withdrawals), from the graph and the untracked log.
    pub fn remove(&mut self, id: TxnId) {
        self.untracked.remove(&id);
        self.graph.remove(id);
    }

    /// Algorithm 3, line 1: the deterministic topological order of the pending set.
    pub fn topo_sort_pending(&self) -> Vec<TxnId> {
        self.graph.topo_sort_pending()
    }

    /// Whether `earlier` already reaches `later` (Algorithm 5's redundant-edge skip).
    pub fn already_connected(&self, earlier: TxnId, later: TxnId) -> bool {
        self.graph.already_connected(earlier, later)
    }

    /// Algorithm 5's restored ww edge.
    pub fn add_ww_edge(&mut self, from: TxnId, to: TxnId) {
        self.graph.add_edge_with_union(from, to);
    }

    /// The tail of Algorithm 5: propagates the restored reachability downstream of `heads`
    /// exactly once per node, in topological order.
    pub fn propagate_from(&mut self, heads: &[TxnId]) {
        for txn in self.graph.reachable_in_topo_order(heads) {
            for s in self.graph.successors(txn) {
                self.graph.propagate_reachability(txn, s);
            }
        }
    }

    /// Section 4.6 pruning: evicts committed graph nodes *and* untracked-commit entries older
    /// than `snapshot_threshold(next_block, max_span)`. Returns the number of transactions
    /// removed across both stores, so the count is independent of which path committed them.
    pub fn prune_for_next_block(&mut self, next_block: u64) -> usize {
        let threshold = snapshot_threshold(next_block, self.config().max_span);
        let mut untracked_pruned = 0;
        while self
            .untracked_by_block
            .front()
            .is_some_and(|(block, _)| *block < threshold)
        {
            let (block, ids) = self.untracked_by_block.pop_front().expect("front checked");
            for id in ids {
                if self.untracked.get(&id) == Some(&block) {
                    self.untracked.remove(&id);
                    untracked_pruned += 1;
                }
            }
        }
        self.graph.prune_for_next_block(next_block) + untracked_pruned
    }

    /// Exact reachability query (test oracles, false-positive classification).
    pub fn reaches_exact(&self, from: TxnId, to: TxnId) -> bool {
        self.graph.reaches_exact(from, to)
    }

    /// Exact whole-graph acyclicity (test oracle).
    pub fn is_acyclic_exact(&self) -> bool {
        self.graph.is_acyclic_exact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untracked_commits_are_known_and_age_out_on_the_committed_schedule() {
        let mut engine = GraphEngine::new(CcConfig::default());
        let max_span = engine.config().max_span;
        engine.note_untracked_commit(TxnId(1), 1);
        engine.note_untracked_commit(TxnId(2), 5);
        assert!(engine.is_untracked(TxnId(1)));
        assert!(engine.knows(TxnId(2)));
        assert!(
            !engine.contains(TxnId(1)),
            "log entries are not graph nodes"
        );
        assert_eq!(engine.untracked_len(), 2);
        assert_eq!(engine.len(), 0);

        // Pruning for block `1 + max_span + 1` evicts the block-1 commit (its age fell below
        // the snapshot threshold) but keeps the block-5 one.
        let pruned = engine.prune_for_next_block(1 + max_span + 1);
        assert_eq!(pruned, 1);
        assert!(!engine.knows(TxnId(1)));
        assert!(engine.is_untracked(TxnId(2)));

        // Withdrawal removes log entries too.
        engine.remove(TxnId(2));
        assert!(!engine.knows(TxnId(2)));
        assert_eq!(engine.untracked_len(), 0);
    }

    /// A withdrawn id stays named in its block's group; pruning that group must neither count
    /// it nor evict the same id logged again under a later block.
    #[test]
    fn pruning_skips_withdrawn_and_relogged_ids() {
        let mut engine = GraphEngine::new(CcConfig::default());
        let max_span = engine.config().max_span;
        for (id, block) in [(1, 1), (2, 1), (3, 2), (4, 3)] {
            engine.note_untracked_commit(TxnId(id), block);
        }
        engine.remove(TxnId(2));
        engine.remove(TxnId(3));
        engine.note_untracked_commit(TxnId(3), 4);
        // Logged out of block order: still pruned on its own block's schedule.
        engine.note_untracked_commit(TxnId(5), 2);
        assert_eq!(engine.untracked_len(), 4);

        // The threshold passes blocks 1 and 2: ids 1 and 5 go; 2 was withdrawn, 3 now
        // belongs to block 4.
        assert_eq!(engine.prune_for_next_block(2 + max_span + 1), 2);
        assert!(!engine.knows(TxnId(1)) && !engine.knows(TxnId(5)));
        assert!(engine.is_untracked(TxnId(3)) && engine.is_untracked(TxnId(4)));

        assert_eq!(engine.prune_for_next_block(4 + max_span + 1), 2);
        assert_eq!(engine.untracked_len(), 0);
        assert!(engine.untracked_by_block.is_empty());
    }
}

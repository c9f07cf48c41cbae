//! [`GraphEngine`]: the orderer-facing dispatch between the unsharded reference graph and the
//! key-space sharded graph.
//!
//! `FabricSharpCC` holds one of these; `CcConfig::store_shards` selects the variant at
//! construction time. Both variants answer every query identically (the sharded one by
//! construction — see [`crate::sharded`]), so the concurrency control's algorithms are written
//! once against this surface.
//!
//! Besides the tracked graph, the engine keeps an **untracked-commit log**: transactions the
//! orderer committed *without* ever inserting them into the graph (the template fast path —
//! statically safe transaction classes skip insertion entirely). The log answers the
//! idempotence questions the graph would otherwise answer (`is_untracked` backs the arrival
//! guard and `register_committed`'s already-seen check) and is pruned on the same
//! `snapshot_threshold` schedule as committed graph nodes, so recovery and replay behave
//! identically whether a committed transaction was tracked or not.

use crate::graph::{CycleCheck, DependencyGraph, InsertReport, PendingTxnSpec, TxnNode};
use crate::prune::snapshot_threshold;
use crate::sharded::{ShardDeps, ShardedDependencyGraph};
use eov_common::config::CcConfig;
use eov_common::txn::TxnId;
use eov_common::version::SeqNo;
use std::collections::HashMap;

/// The tracked-graph variant behind a [`GraphEngine`].
#[derive(Clone, Debug)]
enum EngineKind {
    /// One global graph — the unsharded reference engine (`store_shards == 0`).
    Global(DependencyGraph),
    /// Per-shard graphs with the cross-shard coordinator (`store_shards >= 1`).
    Sharded(ShardedDependencyGraph),
}

/// The dependency-graph engine behind the FabricSharp orderer: the tracked graph (global or
/// sharded) plus the untracked-commit log for graph-bypassing transactions.
#[derive(Clone, Debug)]
pub struct GraphEngine {
    kind: EngineKind,
    /// Commit block of every transaction committed without graph insertion, pruned on the
    /// committed-node schedule.
    untracked: HashMap<TxnId, u64>,
}

impl GraphEngine {
    /// Builds the engine selected by `config.store_shards`; `config.formation_threads` attaches
    /// the sharded engine's worker pool (inert for the flat engine, which has no per-shard
    /// decomposition to fan out).
    pub fn new(config: CcConfig) -> Self {
        let kind = if config.store_shards == 0 {
            EngineKind::Global(DependencyGraph::new(config))
        } else {
            EngineKind::Sharded(
                ShardedDependencyGraph::new(config, config.store_shards)
                    .with_formation_threads(config.formation_threads),
            )
        };
        GraphEngine {
            kind,
            untracked: HashMap::new(),
        }
    }

    /// Number of worker threads the sharded engine fans per-shard work out on (0 = inline,
    /// and always 0 for the flat engine).
    pub fn formation_threads(&self) -> usize {
        match &self.kind {
            EngineKind::Global(_) => 0,
            EngineKind::Sharded(g) => g.formation_threads(),
        }
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &CcConfig {
        match &self.kind {
            EngineKind::Global(g) => g.config(),
            EngineKind::Sharded(g) => g.config(),
        }
    }

    /// Number of key-space shards (1 for the global engine).
    pub fn shard_count(&self) -> usize {
        match &self.kind {
            EngineKind::Global(_) => 1,
            EngineKind::Sharded(g) => g.shard_count(),
        }
    }

    /// Number of live border (multi-shard) transactions; always 0 for the global engine.
    pub fn border_count(&self) -> usize {
        match &self.kind {
            EngineKind::Global(_) => 0,
            EngineKind::Sharded(g) => g.border_count(),
        }
    }

    /// Number of distinct transactions currently tracked (the untracked log is not counted —
    /// its entries were never graph-resident).
    pub fn len(&self) -> usize {
        match &self.kind {
            EngineKind::Global(g) => g.len(),
            EngineKind::Sharded(g) => g.len(),
        }
    }

    /// Whether no transaction is tracked.
    pub fn is_empty(&self) -> bool {
        match &self.kind {
            EngineKind::Global(g) => g.is_empty(),
            EngineKind::Sharded(g) => g.is_empty(),
        }
    }

    /// Whether `id` is currently tracked in the graph.
    pub fn contains(&self, id: TxnId) -> bool {
        match &self.kind {
            EngineKind::Global(g) => g.contains(id),
            EngineKind::Sharded(g) => g.contains(id),
        }
    }

    /// Records that `id` committed in `block` without ever being graph-inserted (template
    /// fast path). The entry ages out exactly when a committed graph node of that block
    /// would ([`GraphEngine::prune_for_next_block`]).
    pub fn note_untracked_commit(&mut self, id: TxnId, block: u64) {
        self.untracked.insert(id, block);
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

    /// Membership snapshot of every id the engine currently knows (tracked graph nodes plus
    /// the untracked-commit log). Pipelined formation seals this set at the cut so the driver
    /// can keep answering [`GraphEngine::knows`]-style idempotence questions while the graph
    /// itself is away on the formation worker.
    pub fn known_ids(&self) -> std::collections::HashSet<TxnId> {
        let mut known: std::collections::HashSet<TxnId> = match &self.kind {
            EngineKind::Global(g) => g.tracked_ids().collect(),
            EngineKind::Sharded(g) => g.tracked_ids().collect(),
        };
        // lint-determinism: allow (membership set; no consumer sequences on iteration order)
        known.extend(self.untracked.keys().copied());
        known
    }

    /// Number of not-yet-pruned untracked commits (tests and stats).
    pub fn untracked_len(&self) -> usize {
        self.untracked.len()
    }

    /// Immutable access to a node (for the sharded engine: one of its copies — all copies
    /// agree on timestamps, age and the reach set).
    pub fn node(&self, id: TxnId) -> Option<&TxnNode> {
        match &self.kind {
            EngineKind::Global(g) => g.node(id),
            EngineKind::Sharded(g) => g.node(id),
        }
    }

    /// The immediate successors of `id` (union across shards for border transactions).
    pub fn successors(&self, id: TxnId) -> Vec<TxnId> {
        match &self.kind {
            EngineKind::Global(g) => g.successors(id),
            EngineKind::Sharded(g) => g.successors_global(id),
        }
    }

    /// Number of pending transactions.
    pub fn pending_len(&self) -> usize {
        match &self.kind {
            EngineKind::Global(g) => g.pending_len(),
            EngineKind::Sharded(g) => g.pending_len(),
        }
    }

    /// Section 4.4's arrival-time cycle probe.
    pub fn would_close_cycle(&self, preds: &[TxnId], succs: &[TxnId]) -> CycleCheck {
        match &self.kind {
            EngineKind::Global(g) => g.would_close_cycle(preds, succs),
            EngineKind::Sharded(g) => g.would_close_cycle(preds, succs),
        }
    }

    /// Algorithm 4: inserts a pending transaction. The global engine uses the flat dependency
    /// lists; the sharded engine uses `per_shard` (or, when it is empty, treats the spec as a
    /// single-shard transaction homed on shard 0 with the flat lists).
    pub fn insert_pending(
        &mut self,
        spec: PendingTxnSpec,
        global_preds: &[TxnId],
        global_succs: &[TxnId],
        per_shard: &[ShardDeps],
        next_block: u64,
    ) -> InsertReport {
        match &mut self.kind {
            EngineKind::Global(g) => g.insert_pending(spec, global_preds, global_succs, next_block),
            EngineKind::Sharded(g) => {
                g.insert_pending(spec, global_preds, global_succs, per_shard, next_block)
            }
        }
    }

    /// Marks a transaction committed at `end_ts`.
    pub fn mark_committed(&mut self, id: TxnId, end_ts: SeqNo) {
        match &mut self.kind {
            EngineKind::Global(g) => g.mark_committed(id, end_ts),
            EngineKind::Sharded(g) => g.mark_committed(id, end_ts),
        }
    }

    /// Removes a transaction entirely (withdrawals), from the graph and the untracked log.
    pub fn remove(&mut self, id: TxnId) {
        self.untracked.remove(&id);
        match &mut self.kind {
            EngineKind::Global(g) => g.remove(id),
            EngineKind::Sharded(g) => g.remove(id),
        }
    }

    /// Algorithm 3, line 1: the deterministic topological order of the pending set.
    pub fn topo_sort_pending(&self) -> Vec<TxnId> {
        match &self.kind {
            EngineKind::Global(g) => g.topo_sort_pending(),
            EngineKind::Sharded(g) => g.topo_sort_pending(),
        }
    }

    /// Worker-pool variant of [`GraphEngine::topo_sort_pending`]: the sharded engine fans its
    /// per-shard sorts out when a pool is attached; output is bit-identical either way. This
    /// is what block formation calls.
    pub fn topo_sort_pending_par(&mut self) -> Vec<TxnId> {
        match &mut self.kind {
            EngineKind::Global(g) => g.topo_sort_pending(),
            EngineKind::Sharded(g) => g.topo_sort_pending_par(),
        }
    }

    /// Whether Algorithm 5's ww restoration may be decomposed per shard and fanned out on the
    /// worker pool ([`GraphEngine::restore_ww_chains`]); always false for the flat engine.
    pub fn can_restore_ww_per_shard(&self) -> bool {
        match &self.kind {
            EngineKind::Global(_) => false,
            EngineKind::Sharded(g) => g.can_restore_ww_per_shard(),
        }
    }

    /// Algorithm 5 decomposed per shard (valid only when
    /// [`GraphEngine::can_restore_ww_per_shard`] holds): restores the per-key writer chains
    /// grouped by owning shard and propagates downstream inside each shard, fanning the
    /// independent shards out on the worker pool.
    pub fn restore_ww_chains(&mut self, chains_by_shard: Vec<(usize, Vec<Vec<TxnId>>)>) {
        match &mut self.kind {
            EngineKind::Global(_) => {
                unreachable!("callers gate on can_restore_ww_per_shard, which is false here")
            }
            EngineKind::Sharded(g) => g.restore_ww_chains(chains_by_shard),
        }
    }

    /// Whether `earlier` already reaches `later` (Algorithm 5's redundant-edge skip).
    pub fn already_connected(&self, earlier: TxnId, later: TxnId) -> bool {
        match &self.kind {
            EngineKind::Global(g) => g.already_connected(earlier, later),
            EngineKind::Sharded(g) => g.already_connected(earlier, later),
        }
    }

    /// Algorithm 5's restored ww edge; `shard` is the shard owning the restored key (ignored
    /// by the global engine).
    pub fn add_ww_edge(&mut self, shard: usize, from: TxnId, to: TxnId) {
        match &mut self.kind {
            EngineKind::Global(g) => g.add_edge_with_union(from, to),
            EngineKind::Sharded(g) => g.add_ww_edge(shard, from, to),
        }
    }

    /// The tail of Algorithm 5: propagates the restored reachability downstream of `heads`
    /// exactly once per node, in topological order.
    pub fn propagate_from(&mut self, heads: &[TxnId]) {
        match &mut self.kind {
            EngineKind::Global(g) => {
                let iteration = g.reachable_in_topo_order(heads);
                for txn in iteration {
                    for s in g.successors(txn) {
                        g.propagate_reachability(txn, s);
                    }
                }
            }
            EngineKind::Sharded(g) => g.propagate_from(heads),
        }
    }

    /// Section 4.6 pruning: evicts committed graph nodes *and* untracked-commit entries older
    /// than `snapshot_threshold(next_block, max_span)`. Returns the number of transactions
    /// removed across both stores, so the count is independent of which path committed them.
    pub fn prune_for_next_block(&mut self, next_block: u64) -> usize {
        let threshold = snapshot_threshold(next_block, self.config().max_span);
        let before = self.untracked.len();
        // lint-determinism: allow (pure filter; the predicate has no side effects)
        self.untracked.retain(|_, block| *block >= threshold);
        let untracked_pruned = before - self.untracked.len();
        let graph_pruned = match &mut self.kind {
            EngineKind::Global(g) => g.prune_for_next_block(next_block),
            EngineKind::Sharded(g) => g.prune_for_next_block(next_block),
        };
        graph_pruned + untracked_pruned
    }

    /// Exact reachability query (test oracles, false-positive classification).
    pub fn reaches_exact(&self, from: TxnId, to: TxnId) -> bool {
        match &self.kind {
            EngineKind::Global(g) => g.reaches_exact(from, to),
            EngineKind::Sharded(g) => g.reaches_exact(from, to),
        }
    }

    /// Exact whole-graph acyclicity (test oracle).
    pub fn is_acyclic_exact(&self) -> bool {
        match &self.kind {
            EngineKind::Global(g) => g.is_acyclic_exact(),
            EngineKind::Sharded(g) => g.is_acyclic_exact(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_variant_follows_the_store_shards_knob() {
        let global = GraphEngine::new(CcConfig::default());
        assert!(matches!(global.kind, EngineKind::Global(_)));
        assert_eq!(global.shard_count(), 1);
        assert_eq!(global.border_count(), 0);

        let sharded = GraphEngine::new(CcConfig {
            store_shards: 4,
            ..CcConfig::default()
        });
        assert!(matches!(sharded.kind, EngineKind::Sharded(_)));
        assert_eq!(sharded.shard_count(), 4);
        assert!(sharded.is_empty());
    }

    #[test]
    fn both_variants_agree_on_a_tiny_workload() {
        let mut engines = [
            GraphEngine::new(CcConfig {
                track_exact_reachability: true,
                ..CcConfig::default()
            }),
            GraphEngine::new(CcConfig {
                track_exact_reachability: true,
                store_shards: 2,
                ..CcConfig::default()
            }),
        ];
        for engine in &mut engines {
            let spec = |id: u64| PendingTxnSpec {
                id: TxnId(id),
                start_ts: SeqNo::snapshot_after(0),
            };
            engine.insert_pending(spec(1), &[], &[], &[], 1);
            engine.insert_pending(spec(2), &[TxnId(1)], &[], &[], 1);
            assert!(engine.contains(TxnId(2)));
            assert_eq!(engine.len(), 2);
            assert_eq!(engine.pending_len(), 2);
            assert!(engine.reaches_exact(TxnId(1), TxnId(2)));
            assert!(engine.is_acyclic_exact());
            assert!(!engine
                .would_close_cycle(&[TxnId(2)], &[TxnId(1)])
                .is_acyclic());
            assert_eq!(engine.topo_sort_pending(), vec![TxnId(1), TxnId(2)]);
            engine.mark_committed(TxnId(1), SeqNo::new(1, 1));
            assert_eq!(engine.pending_len(), 1);
            assert_eq!(engine.successors(TxnId(1)), vec![TxnId(2)]);
        }
    }

    #[test]
    fn untracked_commits_are_known_and_age_out_on_the_committed_schedule() {
        for shards in [0usize, 2] {
            let mut engine = GraphEngine::new(CcConfig {
                store_shards: shards,
                ..CcConfig::default()
            });
            let max_span = engine.config().max_span;
            engine.note_untracked_commit(TxnId(1), 1);
            engine.note_untracked_commit(TxnId(2), 5);
            assert!(engine.is_untracked(TxnId(1)), "shards={shards}");
            assert!(engine.knows(TxnId(2)));
            assert!(
                !engine.contains(TxnId(1)),
                "log entries are not graph nodes"
            );
            assert_eq!(engine.untracked_len(), 2);
            assert_eq!(engine.len(), 0);

            // Pruning for block `1 + max_span + 1` evicts the block-1 commit (its age fell
            // below the snapshot threshold) but keeps the block-5 one.
            let pruned = engine.prune_for_next_block(1 + max_span + 1);
            assert_eq!(pruned, 1, "shards={shards}");
            assert!(!engine.knows(TxnId(1)));
            assert!(engine.is_untracked(TxnId(2)));

            // Withdrawal removes log entries too.
            engine.remove(TxnId(2));
            assert!(!engine.knows(TxnId(2)));
            assert_eq!(engine.untracked_len(), 0);
        }
    }
}

//! `FabricSharpCC`: the orderer-side fine-grained concurrency control (Section 3.4 / Figure 8).
//!
//! This struct owns everything the FabricSharp ordering service adds to a vanilla orderer:
//!
//! * the transaction dependency graph `G` with bloom-filter reachability, called directly,
//! * the committed-transaction indices CW / CR and the pending indices PW / PR, as one key
//!   table (`keys`),
//! * the accepted-but-not-yet-blocked transactions — the pending set `P`, kept once, in
//!   acceptance order, graph-tracked and template-fast-path transactions alike, each beside
//!   the key-table ids of its keys; block formation's topological sort reads it whole,
//! * the log of fast-path commits that never had a graph node, pruned like committed nodes,
//! * the statistics the evaluation section reports.
//!
//! The two entry points mirror Figure 8: [`FabricSharpCC::on_arrival`] (Algorithm 2, called
//! for every transaction delivered by consensus, in order) and [`FabricSharpCC::cut_block`]
//! (Algorithm 3, called when the block-formation condition fires). Peers running FabricSharp
//! skip the per-transaction concurrency validation entirely — every transaction placed in a
//! block is guaranteed serializable, which is checked end-to-end by the property tests against
//! the offline oracle in [`crate::serializability`].

use crate::dependency::{debug_assert_dependency_free, resolve};
use crate::keys::{Found, KeyTable, RecordId};
use crate::stats::CcStats;
use crate::untracked::UntrackedLog;
use eov_common::config::CcConfig;
use eov_common::hash::FoldState;
use eov_common::txn::{Transaction, TxnId};
use eov_depgraph::DependencyGraph;
use std::collections::HashMap;
use std::ops::Range;

/// The FabricSharp orderer-side concurrency control: one [`DependencyGraph`], one table of
/// the CW/CR/PW/PR indices and the pending set `P`.
#[derive(Debug)]
pub struct FabricSharpCC {
    pub(crate) config: CcConfig,
    pub(crate) graph: DependencyGraph,
    /// Commits that bypassed the graph (template fast path), pruned on its schedule.
    pub(crate) untracked: UntrackedLog,
    /// The CW/CR/PW/PR indices of Section 4.3.
    pub(crate) keys: KeyTable,
    /// What the last dependency resolution found in `keys`, for admitting that transaction.
    pub(crate) found: Found,
    /// The pending set `P` of Algorithms 2 and 3: every accepted transaction waiting for the
    /// next block, graph-tracked and fast-path alike, in acceptance order. A transaction's
    /// position is the arrival rank block formation's topological sort breaks ties by.
    pub(crate) pending: Vec<PendingTxn>,
    /// The key-table ids of the pending transactions' keys, each transaction's reads then its
    /// writes, in acceptance order ([`PendingTxn::keys`] ranges over it).
    pub(crate) pending_keys: Vec<RecordId>,
    /// Position of every pending transaction in `pending`, keyed by id.
    pub(crate) pending_at: HashMap<u64, usize, FoldState>,
    /// Number of the block currently being assembled (the first block is 1).
    pub(crate) next_block: u64,
    pub(crate) stats: CcStats,
}

/// One member of the pending set `P`.
#[derive(Debug)]
pub(crate) struct PendingTxn {
    pub(crate) txn: Transaction,
    /// Where the record ids of its keys are in `pending_keys`: reads first, then writes; empty
    /// for a fast-path transaction, which the key table never sees.
    pub(crate) keys: Range<usize>,
}

impl FabricSharpCC {
    /// Creates a controller with the given configuration, starting at block 1.
    pub fn new(config: CcConfig) -> Self {
        FabricSharpCC {
            graph: DependencyGraph::new(config),
            untracked: UntrackedLog::default(),
            keys: KeyTable::default(),
            found: Found::default(),
            config,
            pending: Vec::new(),
            pending_keys: Vec::new(),
            pending_at: HashMap::default(),
            next_block: 1,
            stats: CcStats::default(),
        }
    }

    /// Creates a controller with the default configuration (`max_span = 10`, 4096-bit blooms).
    pub fn with_defaults() -> Self {
        Self::new(CcConfig::default())
    }

    /// The number of the block currently being assembled.
    pub fn next_block(&self) -> u64 {
        self.next_block
    }

    /// Number of transactions accepted and waiting for the next block.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &CcStats {
        &self.stats
    }

    /// Read access to the dependency graph (tests, diagnostics, benches).
    pub fn graph(&self) -> &DependencyGraph {
        &self.graph
    }

    /// Whether the controller still knows `id` as committed — a graph node, or a fast-path
    /// commit in the untracked log — until it ages out. This is the idempotence question
    /// arrival and replay ask.
    pub fn knows(&self, id: TxnId) -> bool {
        self.graph.contains(id) || self.untracked.contains(id)
    }

    /// Number of not-yet-pruned fast-path commits (tests and stats).
    pub fn untracked_len(&self) -> usize {
        self.untracked.len()
    }

    /// Bootstrap / recovery: registers a transaction that committed *outside* this controller
    /// (e.g. in blocks formed before the orderer joined, or blocks replayed from the ledger).
    /// The transaction's dependencies are resolved against the current indices, it is inserted
    /// into the graph as a committed node, and the committed-read/-write indices are updated
    /// (through the same key-table ids) so future arrivals see its conflicts. Transactions
    /// already known to the controller (i.e. ones it cut itself) are ignored, as are
    /// transactions without a commit slot.
    pub fn register_committed(&mut self, txn: &Transaction) {
        let Some(slot) = txn.end_ts else { return };
        // `knows` also covers transactions this controller committed via the template fast
        // path: they were never graph-inserted, but the untracked-commit log remembers them,
        // so a replayed delivery of the block must not re-register them.
        if self.knows(txn.id) {
            return;
        }
        let mut ids = Vec::new();
        if txn.template_class.is_safe() {
            // Template fast path: a statically safe transaction never participates in any
            // dependency, so replaying it needs no graph node and no committed-index entries —
            // nothing ever resolves against its keys.
            debug_assert_dependency_free(txn, &self.keys);
        } else {
            let deps = resolve(txn, &self.keys, &mut self.found);
            self.graph
                .insert_pending(txn.id, &deps.predecessors, &deps.successors, slot.block);
            self.keys.intern_found(txn, &self.found, &mut ids);
        }
        self.record_commit(txn, slot, &ids);
        self.next_block = self.next_block.max(slot.block + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_defaults() {
        let cc = FabricSharpCC::with_defaults();
        assert_eq!(cc.next_block(), 1);
        assert_eq!(cc.pending_len(), 0);
        assert_eq!(cc.config.max_span, 10);
        assert_eq!(cc.stats().arrivals, 0);
        assert!(cc.graph().is_empty());
    }
}

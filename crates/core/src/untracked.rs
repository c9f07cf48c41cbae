//! The untracked-commit log: transactions the orderer committed *without* ever inserting them
//! into the dependency graph (the template fast path — statically safe transaction classes skip
//! insertion entirely).
//!
//! The log answers the idempotence questions the graph would otherwise answer (it backs
//! [`FabricSharpCC::knows`], which the arrival guard and `register_committed`'s already-seen
//! check ask) and is pruned on the same `snapshot_threshold` schedule as committed graph
//! nodes, so recovery and replay behave identically whether a committed transaction was
//! tracked or not. Its ids are also kept grouped by commit block, oldest first, so a prune pops
//! the aged-out groups and touches only the entries it removes.
//!
//! [`FabricSharpCC::knows`]: crate::FabricSharpCC::knows

use eov_common::hash::FoldState;
use eov_common::txn::TxnId;
use std::collections::{HashMap, VecDeque};

/// Commit block of every transaction committed without graph insertion.
#[derive(Clone, Debug, Default)]
pub(crate) struct UntrackedLog {
    block_of: HashMap<TxnId, u64, FoldState>,
    /// The ids of `block_of` grouped by commit block, in ascending block order. A group may
    /// still name an id that was re-logged under another block since; pruning removes an id
    /// only while the map still records it under that group's block.
    by_block: VecDeque<(u64, Vec<TxnId>)>,
}

impl UntrackedLog {
    /// Records that `id` committed in `block`. The entry ages out exactly when a committed
    /// graph node of that block would ([`UntrackedLog::prune_below`]).
    pub(crate) fn note(&mut self, id: TxnId, block: u64) {
        self.block_of.insert(id, block);
        // Formation and replay log blocks in ascending order, so this is almost always the
        // last group or a new one after it.
        let at = self.by_block.partition_point(|(b, _)| *b < block);
        match self.by_block.get_mut(at) {
            Some((b, ids)) if *b == block => ids.push(id),
            _ => self.by_block.insert(at, (block, vec![id])),
        }
    }

    /// Whether `id` is logged and has not yet aged out.
    pub(crate) fn contains(&self, id: TxnId) -> bool {
        self.block_of.contains_key(&id)
    }

    /// Number of not-yet-pruned entries.
    pub(crate) fn len(&self) -> usize {
        self.block_of.len()
    }

    /// Section 4.6 pruning: drops every entry whose commit block is below `threshold`
    /// (`snapshot_threshold(next_block, max_span)`). Returns the number of entries removed.
    pub(crate) fn prune_below(&mut self, threshold: u64) -> usize {
        let mut pruned = 0;
        while self
            .by_block
            .front()
            .is_some_and(|(block, _)| *block < threshold)
        {
            let (block, ids) = self.by_block.pop_front().expect("front checked");
            for id in ids {
                if self.block_of.get(&id) == Some(&block) {
                    self.block_of.remove(&id);
                    pruned += 1;
                }
            }
        }
        pruned
    }
}

#[cfg(test)]
mod tests {
    use crate::FabricSharpCC;
    use eov_common::txn::TxnId;
    use eov_depgraph::snapshot_threshold;

    #[test]
    fn untracked_commits_are_known_and_age_out_on_the_committed_schedule() {
        let mut cc = FabricSharpCC::with_defaults();
        let max_span = cc.config.max_span;
        cc.untracked.note(TxnId(1), 1);
        cc.untracked.note(TxnId(2), 5);
        assert!(cc.untracked.contains(TxnId(1)));
        assert!(cc.knows(TxnId(2)));
        assert!(
            !cc.graph().contains(TxnId(1)),
            "log entries are not graph nodes"
        );
        assert_eq!(cc.untracked_len(), 2);
        assert_eq!(cc.graph().len(), 0);

        // Pruning for block `1 + max_span + 1` evicts the block-1 commit (its age fell below
        // the snapshot threshold) but keeps the block-5 one.
        let pruned = cc
            .untracked
            .prune_below(snapshot_threshold(1 + max_span + 1, max_span));
        assert_eq!(pruned, 1);
        assert!(!cc.knows(TxnId(1)));
        assert!(cc.untracked.contains(TxnId(2)));
    }

    /// An id logged again under a later block stays named in its first block's group; pruning
    /// that group must neither count it nor evict it.
    #[test]
    fn pruning_skips_relogged_ids() {
        let mut cc = FabricSharpCC::with_defaults();
        let max_span = cc.config.max_span;
        let log = &mut cc.untracked;
        for (id, block) in [(1, 1), (3, 2), (4, 3)] {
            log.note(TxnId(id), block);
        }
        log.note(TxnId(3), 4);
        // Logged out of block order: still pruned on its own block's schedule.
        log.note(TxnId(5), 2);
        assert_eq!(log.len(), 4);

        // The threshold passes blocks 1 and 2: ids 1 and 5 go; 3 now belongs to block 4.
        assert_eq!(
            log.prune_below(snapshot_threshold(2 + max_span + 1, max_span)),
            2
        );
        assert!(!cc.knows(TxnId(1)) && !cc.knows(TxnId(5)));
        assert!(cc.untracked.contains(TxnId(3)) && cc.untracked.contains(TxnId(4)));

        let log = &mut cc.untracked;
        assert_eq!(
            log.prune_below(snapshot_threshold(4 + max_span + 1, max_span)),
            2
        );
        assert_eq!(log.len(), 0);
        assert!(log.by_block.is_empty());
    }
}

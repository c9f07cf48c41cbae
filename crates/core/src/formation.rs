//! Algorithm 3 — abort-free reordering at block formation, plus Algorithm 5 (ww restoration).
//!
//! When the block-formation condition fires, the orderer:
//!
//! 1. topologically sorts the pending transactions according to reachability in the dependency
//!    graph — this *is* the reordering: every dependency recorded since the transactions
//!    arrived is respected, so no pending transaction needs to be aborted;
//! 2. restores the c-ww dependencies among pending transactions that were deliberately ignored
//!    at arrival time, orienting each one along the commit order just computed (Algorithm 5),
//!    so that *future* arrivals see the complete dependency information;
//! 3. persists the block's effects into the committed-transaction indices (CW / CR), marks the
//!    transactions committed in the graph, and clears the pending indices;
//! 4. prunes the graph and the committed indices below the `max_span` horizon (Section 4.6).
//!
//! Both graph steps live in the graph
//! ([`eov_depgraph::DependencyGraph::topo_sort_pending`] and
//! [`eov_depgraph::DependencyGraph::restore_ww`]); this module supplies the pending list and
//! the per-key writer chains from PW, and owns the persistence and pruning around them. Every
//! key-table step works through the record ids kept beside each pending transaction.

use crate::keys::{KeyTable, RecordId};
use crate::orderer_cc::{FabricSharpCC, PendingTxn};
use eov_common::txn::{Transaction, TxnId};
use eov_common::version::SeqNo;
use eov_depgraph::snapshot_threshold;

impl FabricSharpCC {
    /// Algorithm 3: forms the next block from the pending set. Returns the transactions in
    /// their final commit order with `end_ts` assigned; returns an empty vector (and does not
    /// advance the block number) when nothing is pending.
    pub fn cut_block(&mut self) -> Vec<Transaction> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let block_no = self.next_block;

        // Step 1: compute the commit order (topological sort over reachability). Fast-path
        // transactions have no graph node, so the sort places them by acceptance rank alone.
        let accepted: Vec<TxnId> = self.pending.iter().map(|p| p.txn.id).collect();
        let order = self.graph.topo_sort_pending(&accepted);

        // Step 2: restore ww dependencies among pending transactions along that order.
        let chains = ww_chains(&self.keys, &self.pending, &self.pending_keys);
        self.graph.restore_ww(&order, &chains);

        // Step 3: persist — assign slots, update CW/CR, mark committed in the graph.
        let pending_keys = std::mem::take(&mut self.pending_keys);
        let mut pending: Vec<Option<PendingTxn>> = std::mem::take(&mut self.pending)
            .into_iter()
            .map(Some)
            .collect();
        let mut block_txns = Vec::with_capacity(order.len());
        for (i, id) in order.iter().enumerate() {
            let PendingTxn { mut txn, keys } = pending[self.pending_at[&id.0]]
                .take()
                .expect("the order lists each pending transaction once");
            let slot = SeqNo::new(block_no, i as u32 + 1);
            txn.end_ts = Some(slot);
            self.record_commit(&txn, slot, &pending_keys[keys]);
            block_txns.push(txn);
        }
        self.pending_at.clear();
        self.keys.clear_pending(&pending_keys);
        self.pending_keys = pending_keys;
        self.pending_keys.clear();

        // Step 4: prune everything that can no longer matter.
        let next = block_no + 1;
        self.graph.prune_for_next_block(next);
        let horizon = snapshot_threshold(next, self.config.max_span);
        self.untracked.prune_below(horizon);
        self.keys.prune_below(horizon);

        self.next_block = next;
        block_txns
    }

    /// Records `txn` as committed at `slot` (block formation and ledger replay alike); `ids`
    /// are the key-table ids of its keys, reads first. A fast-path transaction has no graph
    /// node to mark, and nothing ever resolves against its keys, so the CW/CR updates are
    /// skipped; the untracked-commit log keeps replay idempotent until the commit ages past
    /// the pruning horizon.
    pub(crate) fn record_commit(&mut self, txn: &Transaction, slot: SeqNo, ids: &[RecordId]) {
        if txn.template_class.is_safe() {
            self.untracked.note(txn.id, slot.block);
        } else {
            self.graph.mark_committed(txn.id, slot);
            self.keys.record_commit(txn, slot, ids);
        }
    }
}

/// The raw per-key pending-writer chains that can induce a ww edge, in key order: for every
/// key with at least two pending writers, the writers in PW record order, borrowed from the
/// key table. A key with one writer is left out — it can never yield the two ordered writers
/// [`eov_depgraph::DependencyGraph::restore_ww`] needs, and leaving it out leaves the relative
/// order of the others alone, so the same edges are restored in the same order. Only
/// graph-tracked writers are here: a statically safe transaction never enters PW.
///
/// The keys are sorted, so every replica restores the same edges in the same order (the
/// replication requirement of Section 3.5).
fn ww_chains<'a>(
    keys: &'a KeyTable,
    pending: &[PendingTxn],
    pending_keys: &[RecordId],
) -> Vec<&'a [TxnId]> {
    keys.ww_chains(pending.iter().flat_map(|p| {
        let ids = &pending_keys[p.keys.clone()];
        let writes = ids.get(p.txn.read_set.len()..).unwrap_or_default();
        writes.iter().map(move |&id| (p.txn.id, id))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::config::CcConfig;
    use eov_common::rwset::{Key, Value};
    use eov_common::version::SeqNo as V;

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    fn txn(id: u64, snapshot: u64, reads: &[(&str, (u64, u32))], writes: &[&str]) -> Transaction {
        Transaction::from_parts(
            id,
            snapshot,
            reads.iter().map(|(key, v)| (k(key), V::new(v.0, v.1))),
            writes
                .iter()
                .map(|key| (k(key), Value::from_i64(id as i64))),
        )
    }

    fn default_cc() -> FabricSharpCC {
        FabricSharpCC::new(CcConfig::default())
    }

    #[test]
    fn empty_cut_is_a_noop() {
        let mut cc = default_cc();
        assert!(cc.cut_block().is_empty());
        assert_eq!(cc.next_block(), 1);
    }

    #[test]
    fn cut_assigns_slots_in_dependency_respecting_order() {
        let mut cc = default_cc();
        // Consensus order: t2 then t1, but t2 depends on t1 (t2 writes A which t1 read, giving
        // t1 → t2 via rw when t1 arrives first... here we arrange the reverse): t1 reads A,
        // t2 writes A. Arrival order t2, t1: when t1 arrives, PW[A] contains t2, so t1 gains an
        // anti-rw successor t2 → order must place t1 before t2.
        assert!(cc.on_arrival(txn(2, 0, &[], &["A"])).is_accept());
        assert!(cc
            .on_arrival(txn(1, 0, &[("A", (0, 1))], &["B"]))
            .is_accept());
        let block = cc.cut_block();
        assert_eq!(block.len(), 2);
        assert_eq!(
            block[0].id.0, 1,
            "the reader must be serialized before the writer"
        );
        assert_eq!(block[1].id.0, 2);
        assert_eq!(block[0].end_ts, Some(V::new(1, 1)));
        assert_eq!(block[1].end_ts, Some(V::new(1, 2)));
        assert_eq!(cc.next_block(), 2);
        assert_eq!(cc.pending_len(), 0);
    }

    #[test]
    fn committed_indices_are_updated_for_later_arrivals() {
        let mut cc = default_cc();
        assert!(cc
            .on_arrival(txn(1, 0, &[("A", (0, 1))], &["B"]))
            .is_accept());
        let block1 = cc.cut_block();
        assert_eq!(block1.len(), 1);

        // A new transaction that read B at the *genesis* version even though txn1 just wrote
        // B in block 1: its readset is stale relative to the committed write, which shows up
        // as an anti-rw successor pointing at a committed transaction. On its own that is
        // harmless (accepted)...
        assert!(cc
            .on_arrival(txn(2, 0, &[("B", (0, 1))], &["C"]))
            .is_accept());
        // ...but a third transaction that also closes the loop back to txn2 is rejected:
        // txn3 reads C (stale vs txn2's pending write → succ txn2) and writes B
        // (rw: committed reader txn... and ww to committed writer txn1). The cycle
        // txn2 → txn3 → txn2 has no pending c-ww, so it is unreorderable.
        let decision = cc.on_arrival(txn(3, 0, &[("C", (0, 1))], &["B"]));
        assert!(!decision.is_accept());
    }

    #[test]
    fn ww_restoration_orders_pending_writers_of_the_same_key() {
        let mut cc = default_cc();
        // Three blind writers of the same key H: no dependencies at arrival (c-ww ignored), so
        // the commit order is the arrival order and the restoration links the first
        // unconnected pair.
        assert!(cc.on_arrival(txn(1, 0, &[], &["H"])).is_accept());
        assert!(cc.on_arrival(txn(2, 0, &[], &["H"])).is_accept());
        assert!(cc.on_arrival(txn(3, 0, &[], &["H"])).is_accept());
        let block = cc.cut_block();
        let ids: Vec<u64> = block.iter().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        // The restored edge connects txn1 → txn2 in the graph.
        assert!(cc
            .graph()
            .reaches_exact(eov_common::txn::TxnId(1), eov_common::txn::TxnId(2)));
    }

    #[test]
    fn dropping_single_writer_chains_restores_exactly_the_unfiltered_edges() {
        let mut cc = default_cc();
        // Keys H and K have several pending writers, every S* key exactly one; the reader of H
        // puts itself ahead of H's writers, so the commit order is not the arrival order.
        for (id, reads, writes) in [
            (1, &[][..], &["H", "S1"][..]),
            (2, &[], &["K", "H", "S2"]),
            (3, &[], &["S3", "K"]),
            (4, &[("H", (0, 1))], &["S4"]),
            (5, &[], &["H", "S5"]),
            (6, &[], &["K"]),
        ] {
            assert!(cc.on_arrival(txn(id, 0, reads, writes)).is_accept());
        }
        let accepted: Vec<TxnId> = cc.pending.iter().map(|p| p.txn.id).collect();
        let order = cc.graph.topo_sort_pending(&accepted);
        let every_chain: Vec<&[TxnId]> = ["H", "K", "S1", "S2", "S3", "S4", "S5"]
            .map(|key| cc.keys.record_of(&k(key)).unwrap().pw.as_slice())
            .into_iter()
            .filter(|pw| !pw.is_empty())
            .collect();
        let mut reference = cc.graph.clone();
        reference.restore_ww(&order, &every_chain);

        let chains = ww_chains(&cc.keys, &cc.pending, &cc.pending_keys);
        assert_eq!(chains.len(), 2, "only H and K have two writers");
        assert_eq!(every_chain.len(), 7);
        cc.graph.restore_ww(&order, &chains);
        for &id in &order {
            assert_eq!(
                format!("{:?}", cc.graph.node(id)),
                format!("{:?}", reference.node(id)),
                "edges and reachability of {id:?}"
            );
        }
        assert!(cc.graph.reaches_exact(TxnId(1), TxnId(5)));
        assert!(cc.graph.reaches_exact(TxnId(3), TxnId(6)));
    }

    /// A reach-filter false positive must not skip a ww pair. Two blind writers of `H` are
    /// pending together; `second` also overwrites a key 600 filler transactions read, so every
    /// filler precedes it and its 64-bit, one-hash reach filter saturates. Its filter then
    /// holds `first` as a false positive — nothing connects the two — and Algorithm 5 must
    /// still restore the ww edge and its reachability (it skips a pair only when the exact
    /// edge walk confirms the filter).
    #[test]
    fn ww_restoration_survives_a_bloom_false_positive() {
        use eov_common::txn::TxnId;
        let mut cc = FabricSharpCC::new(CcConfig {
            bloom_bits: 64,
            bloom_hashes: 1,
            ..CcConfig::default()
        });
        let (first, second) = (TxnId(1), TxnId(1_000));
        assert!(cc.on_arrival(txn(first.0, 0, &[], &["H"])).is_accept());
        for filler in 2..602u64 {
            let own = format!("filler:{filler}");
            assert!(cc
                .on_arrival(txn(filler, 0, &[("R", (0, 1))], &[own.as_str()]))
                .is_accept());
        }
        assert!(cc
            .on_arrival(txn(second.0, 0, &[], &["H", "R"]))
            .is_accept());
        let filter = &cc.graph().node(second).unwrap().anti_reachable;
        assert!(
            filter.contains(first.0) && !cc.graph().reaches_exact(first, second),
            "the set-up must make the filter answer yes where the graph says no"
        );

        let block = cc.cut_block();
        let position = |id: TxnId| block.iter().position(|t| t.id == id).expect("committed");
        assert!(position(first) < position(second));
        assert!(
            cc.graph().reaches_exact(first, second),
            "the ww pair of H must be connected after restoration, filter positive or not"
        );
    }

    #[test]
    fn block_numbers_and_spans_accumulate_across_blocks() {
        let mut cc = default_cc();
        assert!(cc.on_arrival(txn(1, 0, &[], &["A"])).is_accept());
        let b1 = cc.cut_block();
        assert_eq!(b1[0].end_ts.unwrap().block, 1);

        assert!(cc.on_arrival(txn(2, 0, &[], &["B"])).is_accept());
        assert!(cc.on_arrival(txn(3, 1, &[], &["C"])).is_accept());
        let b2 = cc.cut_block();
        assert_eq!(b2.len(), 2);
        assert_eq!(b2[0].end_ts.unwrap().block, 2);
        // Spans: txn1 committed in block 1 from snapshot 0 (span 1); txn2 block 2 from
        // snapshot 0 (span 2); txn3 block 2 from snapshot 1 (span 1). Total 4.
        let spans: u64 = b1.iter().chain(&b2).filter_map(|t| t.block_span()).sum();
        assert_eq!(spans, 4);
        assert_eq!(cc.next_block(), 3);
    }

    #[test]
    fn graph_is_pruned_once_transactions_age_out() {
        let mut cc = FabricSharpCC::new(CcConfig {
            max_span: 2,
            ..CcConfig::default()
        });
        assert!(cc.on_arrival(txn(1, 0, &[], &["A"])).is_accept());
        cc.cut_block(); // block 1
        assert!(cc.graph().contains(eov_common::txn::TxnId(1)));

        // Keep cutting blocks with fresh snapshots; after the horizon passes block 1, txn1 is
        // pruned from the graph and from the committed indices.
        for (id, snapshot) in [(2u64, 1u64), (3, 2), (4, 3)] {
            assert!(cc.on_arrival(txn(id, snapshot, &[], &["B"])).is_accept());
            cc.cut_block();
        }
        assert!(!cc.graph().contains(eov_common::txn::TxnId(1)));
    }
}

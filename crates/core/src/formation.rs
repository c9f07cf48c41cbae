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

use crate::orderer_cc::FabricSharpCC;
use eov_common::txn::{Transaction, TxnId};
use eov_common::version::SeqNo;
use eov_depgraph::{snapshot_threshold, GraphEngine};
use eov_vstore::ShardedIndices;
use std::collections::HashMap;
use std::time::Instant;

impl FabricSharpCC {
    /// Algorithm 3: forms the next block from the pending set. Returns the transactions in
    /// their final commit order with `end_ts` assigned; returns an empty vector (and does not
    /// advance the block number) when nothing is pending.
    ///
    /// With [`CcConfig::pipelined_formation`] on, this degenerates to a synchronous
    /// seal-then-join round trip through the formation worker — same contract, same bits —
    /// so drivers that never overlap (tests, the phased chains) keep working unchanged.
    ///
    /// [`CcConfig::pipelined_formation`]: eov_common::config::CcConfig::pipelined_formation
    pub fn cut_block(&mut self) -> Vec<Transaction> {
        if self.config.pipelined_formation {
            if self.begin_cut() == 0 {
                return Vec::new();
            }
            return self.finish_cut().txns;
        }
        if self.pending_txns.is_empty() {
            return Vec::new();
        }
        let block_no = self.next_block;

        // Step 1: compute the commit order (topological sort over reachability). The `_par`
        // entry point fans the sharded engine's per-shard sorts out across the formation
        // worker pool when one is configured; the k-way merge behind it re-imposes the same
        // deterministic order the inline sort computes.
        let t_order = Instant::now();
        let tracked_order: Vec<TxnId> = self
            .graph
            .topo_sort_pending_par()
            .into_iter()
            .filter(|id| self.pending_txns.contains_key(&id.0))
            .collect();
        // Template fast path: splice the untracked (safe-class) transactions back in at their
        // acceptance positions. With the fast path off, `safe_pending` is always empty and
        // `tracked_order` passes through untouched.
        let order = merge_safe_into_order(tracked_order, &self.safe_pending, &self.pending_seq);
        self.stats.reorder_compute_order += t_order.elapsed();

        // Step 2: restore ww dependencies among pending transactions along that order.
        let t_ww = Instant::now();
        let raw_chains = raw_ww_chains(&self.indices);
        restore_ww_from_chains(&mut self.graph, &order, &raw_chains);
        self.stats.reorder_restore_ww += t_ww.elapsed();

        // Step 3: persist — assign slots, update CW/CR, mark committed in the graph.
        let t_persist = Instant::now();
        let (block_txns, span_sum) = persist_block_graph_side(
            &mut self.graph,
            &mut self.pending_txns,
            &order,
            block_no,
            self.config.template_fastpath,
        );
        persist_block_index_side(
            &mut self.indices,
            &block_txns,
            self.config.template_fastpath,
        );
        for txn in &block_txns {
            self.pending_seq.remove(&txn.id.0);
        }
        self.stats.block_span_sum += span_sum;
        self.safe_pending.clear();
        self.indices.clear_pending();
        self.stats.reorder_persist += t_persist.elapsed();

        // Step 4: prune everything that can no longer matter.
        let t_prune = Instant::now();
        let next = block_no + 1;
        self.graph.prune_for_next_block(next);
        let horizon = snapshot_threshold(next, self.config.max_span);
        self.indices.prune_committed_below(horizon);
        self.stats.reorder_prune += t_prune.elapsed();

        self.stats.blocks_formed += 1;
        self.stats.committed += block_txns.len() as u64;
        self.next_block = next;
        block_txns
    }
}

/// Merges the fast-path (untracked) pending transactions into the tracked topological
/// order by acceptance sequence, reproducing the reference order bit for bit.
///
/// Why this is exact: the reference topo sort is a Kahn sort whose ready-heap is keyed by
/// pending-list slot — i.e. acceptance order. A safe transaction's node is edge-free, so
/// in the reference run it is ready from the first step and pops exactly when its slot is
/// the minimum among ready nodes: immediately before the first tracked transaction that
/// *follows* it in acceptance order pops. Emitting safe transactions changes no tracked
/// transaction's readiness (no edges), so the tracked subsequence is unchanged. Hence:
/// walk the tracked order, and before each tracked transaction emit every remaining safe
/// transaction accepted earlier than it; leftovers go at the end.
pub(crate) fn merge_safe_into_order(
    tracked: Vec<TxnId>,
    safe_pending: &[TxnId],
    pending_seq: &HashMap<u64, u64>,
) -> Vec<TxnId> {
    if safe_pending.is_empty() {
        return tracked;
    }
    let mut merged = Vec::with_capacity(tracked.len() + safe_pending.len());
    let mut safe = safe_pending.iter().copied().peekable();
    for id in tracked {
        let tracked_seq = pending_seq[&id.0];
        while let Some(next_safe) = safe.peek().copied() {
            if pending_seq[&next_safe.0] < tracked_seq {
                merged.push(next_safe);
                safe.next();
            } else {
                break;
            }
        }
        merged.push(id);
    }
    merged.extend(safe);
    merged
}

/// Snapshots the raw per-key pending-writer chains in deterministic key order: for every key
/// with at least one pending writer, the writers in PW record order tagged with the owning
/// shard. Position filtering against the commit order happens later, in
/// [`restore_ww_from_chains`] — keeping the snapshot order-free lets pipelined formation take
/// it at seal time, before the commit order exists.
///
/// Deterministic iteration: the keys are sorted (PendingIndex iteration order is not
/// deterministic across replicas, but the set of keys is identical, so sorting fixes the
/// replication requirement of Section 3.5). Each key routes to exactly one shard, so the
/// (shard, key) pairs are unique and the key order is total. Only the `TxnId` lists are
/// copied — the keys themselves stay borrowed (the ROADMAP-named per-block `String` clone
/// hot spot stays gone).
pub(crate) fn raw_ww_chains(indices: &ShardedIndices) -> Vec<(usize, Vec<TxnId>)> {
    let mut keyed: Vec<(usize, &eov_common::rwset::Key, &[TxnId])> = indices.iter_pw().collect();
    keyed.sort_by(|a, b| a.1.cmp(b.1));
    keyed
        .into_iter()
        .map(|(shard, _key, txns)| (shard, txns.to_vec()))
        .collect()
}

/// Algorithm 5: for every key written by pending transactions, walk its writers in the
/// computed commit order, connect every consecutive pair that is not already connected in
/// the reachability structure, and propagate the updated reachability downstream once, in
/// topological order. `raw_chains` is the key-ordered snapshot from [`raw_ww_chains`].
pub(crate) fn restore_ww_from_chains(
    graph: &mut GraphEngine,
    order: &[TxnId],
    raw_chains: &[(usize, Vec<TxnId>)],
) {
    let position: HashMap<TxnId, usize> =
        order.iter().enumerate().map(|(i, id)| (*id, i)).collect();

    // Per-key writer chains, one construction shared by both execution paths below: only
    // pending writers that made it into the order matter, and a chain needs at least two
    // of them to induce an edge.
    let chains: Vec<(usize, Vec<TxnId>)> = raw_chains
        .iter()
        .filter_map(|(shard, txns)| {
            let mut writers: Vec<TxnId> = txns
                .iter()
                .copied()
                .filter(|t| position.contains_key(t))
                .collect();
            if writers.len() < 2 {
                return None;
            }
            writers.sort_by_key(|t| position[t]);
            Some((*shard, writers))
        })
        .collect();

    // Parallel decomposition: with a formation worker pool attached and no live border
    // transaction, every per-key writer chain and its downstream closure stays inside the
    // shard owning the key, so the whole restoration + propagation step decomposes into
    // independent per-shard jobs (operations on disjoint shards commute, hence the result
    // is bit-identical to the sequential interleaving below — pinned by the depgraph
    // proptests and end-to-end by `tests/parallel_formation_determinism.rs`).
    if graph.can_restore_ww_per_shard() {
        let mut chains_by_shard: std::collections::BTreeMap<usize, Vec<Vec<TxnId>>> =
            std::collections::BTreeMap::new();
        for (shard, writers) in chains {
            chains_by_shard.entry(shard).or_default().push(writers);
        }
        graph.restore_ww_chains(chains_by_shard.into_iter().collect());
        return;
    }

    // Heads in first-restored order, deduplicated by commit position (dense `0..order.len()`).
    let mut head_txns: Vec<TxnId> = Vec::new();
    let mut is_head = vec![false; order.len()];
    for (shard, writers) in chains {
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
            if graph.already_connected(first, second) {
                continue;
            }
            graph.add_ww_edge(shard, first, second);
            if !std::mem::replace(&mut is_head[position[&second]], true) {
                head_txns.push(second);
            }
        }
    }

    // Propagate the new reachability downstream exactly once per node, in topological
    // order (Figure 9: Txn8 is reachable through both restored edges but is updated once).
    graph.propagate_from(&head_txns);
}

/// The graph half of block persistence: walks the commit order, moves each transaction out of
/// `pending_txns` with its slot assigned, and marks it committed (or logs the untracked
/// commit for fast-path transactions). Returns the block plus the summed block span. The
/// graph and the CW/CR indices are disjoint structures, so splitting the reference
/// interleaving into a graph pass here and an index pass in [`persist_block_index_side`]
/// leaves every observable bit identical — which is what lets pipelined formation run this
/// half on the worker while the indices stay with the driver.
pub(crate) fn persist_block_graph_side(
    graph: &mut GraphEngine,
    pending_txns: &mut HashMap<u64, Transaction>,
    order: &[TxnId],
    block_no: u64,
    template_fastpath: bool,
) -> (Vec<Transaction>, u64) {
    let mut block_txns = Vec::with_capacity(order.len());
    let mut span_sum = 0u64;
    for (i, id) in order.iter().enumerate() {
        let mut txn = pending_txns
            .remove(&id.0)
            .expect("order only contains pending transactions");
        let slot = SeqNo::new(block_no, i as u32 + 1);
        txn.end_ts = Some(slot);
        if template_fastpath && txn.template_class.is_safe() {
            // Fast-path transaction: it has no graph node to mark and no conflicts any
            // future arrival could resolve against. The untracked-commit log keeps replay
            // idempotent until the commit ages past the pruning horizon.
            graph.note_untracked_commit(txn.id, block_no);
        } else {
            graph.mark_committed(txn.id, slot);
        }
        span_sum += txn.block_span().unwrap_or(0);
        block_txns.push(txn);
    }
    (block_txns, span_sum)
}

/// The index half of block persistence: records the committed reads and writes of every
/// non-fast-path transaction, in commit order, dropping stale readers of each overwritten
/// key. See [`persist_block_graph_side`] for why the split is exact.
pub(crate) fn persist_block_index_side(
    indices: &mut ShardedIndices,
    block_txns: &[Transaction],
    template_fastpath: bool,
) {
    for txn in block_txns {
        if template_fastpath && txn.template_class.is_safe() {
            // Fast-path transaction: nothing ever resolves against its keys, so the CW/CR
            // updates are skipped wholesale.
            continue;
        }
        let slot = txn.end_ts.expect("block transactions carry their slot");
        persist_txn_index_side(indices, txn, slot);
    }
}

/// Records one transaction committed at `slot` in CR and CW (shared by block formation and by
/// [`FabricSharpCC::register_committed`]'s ledger replay).
pub(crate) fn persist_txn_index_side(indices: &mut ShardedIndices, txn: &Transaction, slot: SeqNo) {
    // Committed-read index: record this transaction as a reader of each key it read.
    for read in txn.read_set.iter() {
        indices.record_cr(read.key.clone(), slot, txn.id);
    }
    // Committed-write index: record the writes and drop readers of the overwritten values
    // (they no longer read the latest version).
    for write in txn.write_set.iter() {
        indices.record_cw(write.key.clone(), slot, txn.id);
        indices.drop_stale_readers(&write.key, slot);
    }
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

    fn exact_cc() -> FabricSharpCC {
        FabricSharpCC::new(CcConfig {
            track_exact_reachability: true,
            ..CcConfig::default()
        })
    }

    #[test]
    fn empty_cut_is_a_noop() {
        let mut cc = exact_cc();
        assert!(cc.cut_block().is_empty());
        assert_eq!(cc.next_block(), 1);
        assert_eq!(cc.stats().blocks_formed, 0);
    }

    #[test]
    fn cut_assigns_slots_in_dependency_respecting_order() {
        let mut cc = exact_cc();
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
        assert_eq!(cc.stats().committed, 2);
    }

    #[test]
    fn committed_indices_are_updated_for_later_arrivals() {
        let mut cc = exact_cc();
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
        let mut cc = exact_cc();
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

    /// ROADMAP item 1, the defect in isolation. Two blind writers of `H` are pending together;
    /// `second` also overwrites a key 600 filler transactions read, so every filler precedes
    /// it and its 64-bit, one-hash reach filter saturates. `already_connected(first, second)`
    /// is then a false positive — nothing connects the two — and Algorithm 5, taking the
    /// positive as leave to skip the pair, restores neither the ww edge nor its reachability.
    #[test]
    #[ignore = "known defect: ROADMAP item 1, bloom-positive skip in Algorithm 5"]
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
        assert!(
            cc.graph().already_connected(first, second) && !cc.graph().reaches_exact(first, second),
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
        let mut cc = exact_cc();
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
        assert_eq!(cc.stats().block_span_sum, 4);
        assert_eq!(cc.stats().blocks_formed, 2);
    }

    #[test]
    fn graph_is_pruned_once_transactions_age_out() {
        let mut cc = FabricSharpCC::new(CcConfig {
            max_span: 2,
            track_exact_reachability: true,
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

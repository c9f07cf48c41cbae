//! Algorithm 2 — the reorderability test on transaction arrival.
//!
//! For every transaction delivered by consensus (in consensus order), the orderer:
//!
//! 1. rejects it outright if its simulation snapshot is older than the `max_span` horizon
//!    (Section 4.6 — such transactions would pin the graph arbitrarily far into the past);
//! 2. resolves its dependencies against committed and pending transactions, *excluding* c-ww
//!    between pending transactions (Section 4.3);
//! 3. tests whether adding it would close a dependency cycle (Section 4.4); if so the
//!    transaction can never be serialized by reordering (Theorem 2) and is dropped before it
//!    ever occupies a block slot;
//! 4. otherwise inserts it into the graph (Algorithm 4) and into the pending indices, through
//!    the key-table ids step 2 looked up.
//!
//! A transaction tagged `TemplateClass::Safe` (the template fast path) takes step 1 and then
//! skips steps 2–4: it cannot acquire a dependency, so it is only queued for the next block.

use crate::dependency::{debug_assert_dependency_free, resolve};
use crate::orderer_cc::{FabricSharpCC, PendingTxn};
use eov_common::abort::AbortReason;
use eov_common::txn::{CommitDecision, Transaction};

impl FabricSharpCC {
    /// Algorithm 2: decides whether `txn` is reorderable. Accepted transactions join the
    /// pending set and will be placed in the next block by [`FabricSharpCC::cut_block`];
    /// rejected transactions never reach the ledger (early abort).
    pub fn on_arrival(&mut self, txn: Transaction) -> CommitDecision {
        self.stats.arrivals += 1;

        // Idempotence guard: consensus deduplicates in practice, but a replayed transaction
        // must not end up in the pending set (or the graph) twice. The `knows` check also
        // covers transactions already cut into a block but not yet pruned — whether they were
        // graph-tracked or committed via the template fast path — re-accepting one of those
        // must not re-enter it into the pending set (it would be committed twice) or
        // re-insert its graph node.
        if self.pending_at.contains_key(&txn.id.0) || self.knows(txn.id) {
            return CommitDecision::Accept;
        }

        // Step 1: max_span horizon. A transaction simulated against block `b` commits (at the
        // earliest) in block `next_block`, giving it a span of `next_block - b`; spans of
        // max_span or more are rejected.
        if txn.snapshot_block + self.config.max_span <= self.next_block {
            self.stats.early_aborts.add(AbortReason::SnapshotTooOld, 1);
            return CommitDecision::Reject(AbortReason::SnapshotTooOld);
        }

        // Template fast path: a statically safe transaction cannot participate in any
        // dependency (its template's read families have no writers anywhere in the mix, and
        // its writes — if any — are fresh keys nobody else touches), so resolution would
        // return empty lists, the cycle probe would trivially pass, the graph node would be
        // edge-free (0 reachability hops) and the PW/PR/CW/CR entries would never be
        // consulted. Skip all of it: only queue it in the pending set, where block formation's
        // topological sort places it by its acceptance rank as an edge-free transaction.
        if txn.template_class.is_safe() {
            debug_assert_dependency_free(&txn, &self.keys);
            self.stats.fastpath_accepted += 1;
            return self.accept(txn);
        }

        // Step 2: dependency resolution (all kinds except pending-pending c-ww), one key-table
        // lookup per key.
        let deps = resolve(&txn, &self.keys, &mut self.found);

        // Step 3: cycle test on the reachability filters. A filter false positive aborts too
        // (preventive abort, Section 4.4), under the same reason.
        if self
            .graph
            .would_close_cycle(&deps.predecessors, &deps.successors)
        {
            self.stats
                .early_aborts
                .add(AbortReason::UnreorderableCycle, 1);
            return CommitDecision::Reject(AbortReason::UnreorderableCycle);
        }

        // Step 4a: insert into the dependency graph (Algorithm 4).
        let report = self.graph.insert_pending(
            txn.id,
            &deps.predecessors,
            &deps.successors,
            self.next_block,
        );
        self.stats.total_hops += report.hops as u64;

        // Step 4b: index the pending transaction's accesses for later arrivals and for the ww
        // restoration at block formation, through the ids step 2 found; keep the ids.
        self.keys.admit(&txn, &self.found, &mut self.pending_keys);
        self.accept(txn)
    }

    /// Appends an accepted transaction to the pending set `P`, after everything accepted
    /// before it, with the key-table ids recorded for it since the last one.
    fn accept(&mut self, txn: Transaction) -> CommitDecision {
        let from = self.pending.last().map_or(0, |last| last.keys.end);
        let keys = from..self.pending_keys.len();
        self.pending_at.insert(txn.id.0, self.pending.len());
        self.pending.push(PendingTxn { txn, keys });
        CommitDecision::Accept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::config::CcConfig;
    use eov_common::rwset::{Key, Value};
    use eov_common::txn::{TemplateClass, TxnId};
    use eov_common::version::SeqNo;

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    /// A transaction simulated against `snapshot` that reads `reads` (at the genesis version of
    /// each key unless stated) and writes `writes`.
    fn txn(id: u64, snapshot: u64, reads: &[(&str, (u64, u32))], writes: &[&str]) -> Transaction {
        Transaction::from_parts(
            id,
            snapshot,
            reads.iter().map(|(key, v)| (k(key), SeqNo::new(v.0, v.1))),
            writes
                .iter()
                .map(|key| (k(key), Value::from_i64(id as i64))),
        )
    }

    fn default_cc() -> FabricSharpCC {
        FabricSharpCC::new(CcConfig::default())
    }

    #[test]
    fn independent_transactions_are_accepted() {
        let mut cc = default_cc();
        let keys = ["K1", "K2", "K3", "K4", "K5"];
        for id in 1..=5u64 {
            let t = txn(id, 0, &[("A", (0, 1))], &[keys[(id - 1) as usize]]);
            assert!(cc.on_arrival(t).is_accept());
        }
        assert_eq!(cc.pending_len(), 5);
        assert_eq!(cc.stats().early_aborts.total(), 0);
        assert!(cc.graph().is_acyclic_exact());
    }

    #[test]
    fn write_skew_between_pending_transactions_is_rejected() {
        // Txn1 reads A writes B; Txn2 reads B writes A — a cycle of two rw conflicts with no
        // pending c-ww edge: Theorem 2 says it can never be reordered, so the second
        // transaction must be rejected.
        let mut cc = default_cc();
        let t1 = txn(1, 0, &[("A", (0, 1))], &["B"]);
        let t2 = txn(2, 0, &[("B", (0, 2))], &["A"]);
        assert!(cc.on_arrival(t1).is_accept());
        let decision = cc.on_arrival(t2);
        assert_eq!(
            decision,
            CommitDecision::Reject(AbortReason::UnreorderableCycle)
        );
        assert_eq!(cc.pending_len(), 1);
        assert_eq!(
            cc.stats().early_aborts.get(AbortReason::UnreorderableCycle),
            1
        );
    }

    #[test]
    fn pending_write_write_conflicts_are_accepted() {
        // Two pending transactions writing the same key have a c-ww dependency, which is
        // exactly the kind reordering can flip (Lemma 4) — both must be accepted.
        let mut cc = default_cc();
        let t1 = txn(1, 0, &[("A", (0, 1))], &["H"]);
        let t2 = txn(2, 0, &[("B", (0, 2))], &["H"]);
        assert!(cc.on_arrival(t1).is_accept());
        assert!(cc.on_arrival(t2).is_accept());
        assert_eq!(cc.pending_len(), 2);
    }

    #[test]
    fn figure7b_reorderable_cycle_with_cww_is_accepted() {
        // Figure 7b: Txn1 reads X which Txn2 overwrites (rw), Txn2 and Txn3 write the same key
        // (c-ww), Txn3's write is read... — the cycle involves a pending c-ww, so every
        // transaction stays and reordering resolves it at block formation.
        let mut cc = default_cc();
        // Txn1: reads X, writes nothing else relevant.
        let t1 = txn(1, 0, &[("X", (0, 1))], &["OUT1"]);
        // Txn2: writes X (rw edge t1 → t2) and writes W.
        let t2 = txn(2, 0, &[], &["X", "W"]);
        // Txn3: writes W (c-ww with t2, ignored at arrival) and writes something t1 reads?
        // Give t3 a write to a key t1 reads to close the would-be cycle only through the c-ww.
        let t3 = txn(3, 0, &[], &["W", "OUT1"]);
        assert!(cc.on_arrival(t1).is_accept());
        assert!(cc.on_arrival(t2).is_accept());
        assert!(cc.on_arrival(t3).is_accept());
        assert_eq!(cc.pending_len(), 3);
    }

    #[test]
    fn stale_snapshots_are_rejected_by_max_span() {
        let mut cc = FabricSharpCC::new(CcConfig {
            max_span: 2,
            ..CcConfig::default()
        });
        cc.next_block = 5;
        // Snapshot 3 → span 2 ≥ max_span → rejected; snapshot 4 → span 1 → accepted.
        let stale = txn(1, 3, &[("A", (0, 1))], &["B"]);
        let fresh = txn(2, 4, &[("A", (0, 1))], &["C"]);
        assert_eq!(
            cc.on_arrival(stale),
            CommitDecision::Reject(AbortReason::SnapshotTooOld)
        );
        assert!(cc.on_arrival(fresh).is_accept());
    }

    #[test]
    fn hops_statistics_accumulate() {
        let mut cc = default_cc();
        // Chain of dependencies through a shared key: each new reader/writer pair grows the
        // graph and the reachability updates traverse it.
        assert!(cc
            .on_arrival(txn(1, 0, &[("A", (0, 1))], &["B"]))
            .is_accept());
        assert!(cc
            .on_arrival(txn(2, 0, &[("B", (0, 2))], &["C"]))
            .is_accept());
        assert!(cc
            .on_arrival(txn(3, 0, &[("C", (0, 3))], &["D"]))
            .is_accept());
        // Now a transaction that writes A: its successors include txn1 (anti-rw through A is
        // not possible — A was only read); its predecessors include readers of A.
        assert!(cc.on_arrival(txn(4, 0, &[], &["A"])).is_accept());
        assert_eq!(cc.graph().len(), 4);
    }

    #[test]
    fn safe_arrivals_bypass_the_graph_and_the_indices() {
        let mut cc = default_cc();
        assert!(cc
            .on_arrival(txn(1, 0, &[("A", (0, 1))], &["B"]))
            .is_accept());
        let safe = txn(2, 0, &[("R", (0, 1))], &["FRESH"]).with_template_class(TemplateClass::Safe);
        assert!(cc.on_arrival(safe).is_accept());
        assert_eq!(cc.stats().fastpath_accepted, 1);
        assert_eq!(cc.pending_len(), 2);
        assert!(!cc.graph().contains(TxnId(2)));
        assert!(cc.keys.record_of(&k("FRESH")).is_none());
        let ids: Vec<TxnId> = cc.cut_block().iter().map(|t| t.id).collect();
        assert_eq!(ids, [TxnId(1), TxnId(2)]);
        assert!(cc.knows(TxnId(2)));
    }

    /// The shadow check: a transaction that reads a key a tracked pending transaction writes has
    /// an anti-rw successor, so tagging it `Safe` is a false static-safety claim.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is tagged Safe but depends on tracked transactions")]
    fn a_conflicting_arrival_tagged_safe_fails_the_debug_check() {
        let mut cc = default_cc();
        assert!(cc.on_arrival(txn(1, 0, &[], &["A"])).is_accept());
        let _ = cc.on_arrival(
            txn(2, 0, &[("A", (0, 1))], &["C"]).with_template_class(TemplateClass::Safe),
        );
    }

    /// The same check on ledger replay: a committed writer of `A` is registered, then a
    /// `Safe`-tagged transaction that overwrites `A` (a ww predecessor) is replayed.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is tagged Safe but depends on tracked transactions")]
    fn a_conflicting_replay_tagged_safe_fails_the_debug_check() {
        let mut cc = default_cc();
        let mut writer = txn(1, 0, &[], &["A"]);
        writer.end_ts = Some(SeqNo::new(1, 1));
        cc.register_committed(&writer);
        let mut overwriter = txn(2, 1, &[], &["A"]).with_template_class(TemplateClass::Safe);
        overwriter.end_ts = Some(SeqNo::new(2, 1));
        cc.register_committed(&overwriter);
    }

    #[test]
    fn duplicate_arrivals_do_not_double_count_pending() {
        let mut cc = default_cc();
        let t = txn(1, 0, &[("A", (0, 1))], &["B"]);
        assert!(cc.on_arrival(t.clone()).is_accept());
        // The same id arriving again simply replaces the stored pending transaction; the graph
        // ignores self-dependencies. (The consensus layer de-duplicates in practice.)
        let _ = cc.on_arrival(t);
        assert_eq!(cc.pending_len(), 1);
    }

    /// Regression test (PR 3 review): a replayed delivery of a transaction that was already
    /// cut into a block — but whose node is still tracked in the graph for cycle detection —
    /// must not re-enter the pending set (it would be committed twice) or disturb the graph.
    #[test]
    fn replayed_arrival_of_a_cut_transaction_is_ignored() {
        let mut cc = default_cc();
        let t = txn(1, 0, &[("A", (0, 1))], &["B"]);
        assert!(cc.on_arrival(t.clone()).is_accept());
        let block = cc.cut_block();
        assert_eq!(block.len(), 1);
        assert_eq!(cc.pending_len(), 0);
        assert!(cc.graph().contains(eov_common::txn::TxnId(1)));

        // Replay: accepted (idempotent) but nothing re-enters the pending set, and the next
        // block is empty rather than committing txn 1 a second time.
        assert!(cc.on_arrival(t).is_accept());
        assert_eq!(cc.pending_len(), 0);
        assert!(cc.cut_block().is_empty());
        assert!(!cc
            .graph()
            .node(eov_common::txn::TxnId(1))
            .unwrap()
            .is_pending());
        assert!(cc.graph().is_acyclic_exact());
    }
}

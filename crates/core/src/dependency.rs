//! Dependency resolution for an incoming transaction (Section 4.3).
//!
//! Given the committed-transaction indices (CW / CR), the pending indices (PW / PR) and the
//! new transaction's read keys, write keys and start timestamp, the orderer computes:
//!
//! ```text
//! anti-rw(txn) = ⋃_{r ∈ R}  CW[r][startTS:]  ∪  PW[r]      (successors of txn)
//! rw(txn)      = ⋃_{w ∈ W}  CR[w]            ∪  PR[w]      (predecessors)
//! n-wr(txn)    = ⋃_{r ∈ R}  CW.Before(r, startTS)          (predecessors)
//! ww(txn)      = ⋃_{w ∈ W}  CW.Last(w)                     (predecessors)
//! ```
//!
//! Predecessors must be serialized before the new transaction, successors after it. The c-ww
//! dependencies *between pending transactions* are deliberately ignored here — Theorem 2 shows
//! they are the only edges reordering can flip, so they are restored later (Algorithm 5) once
//! the block's commit order has been fixed.

use eov_common::txn::{Transaction, TxnId};
use eov_vstore::{CommittedReadIndex, CommittedWriteIndex, PendingIndex, ShardedIndices};

/// The dependencies of a newly arrived transaction, split into the two roles they play in the
/// cycle test of Algorithm 2.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResolvedDeps {
    /// Transactions that must be serialized *before* the new one (ww ∪ n-wr ∪ rw).
    pub predecessors: Vec<TxnId>,
    /// Transactions that must be serialized *after* the new one (anti-rw).
    pub successors: Vec<TxnId>,
}

impl ResolvedDeps {
    /// Whether the transaction has no dependencies at all (the common case under uniform
    /// workloads, which is what makes the arrival path cheap on average).
    pub fn is_empty(&self) -> bool {
        self.predecessors.is_empty() && self.successors.is_empty()
    }
}

/// Per-key view over the four dependency-resolution indices. Implemented by the flat
/// (unsharded) borrow bundle and by [`ShardedIndices`], so a single copy of the four-phase
/// resolution semantics ([`resolve_with`]) serves both public entry points.
trait KeyIndexView {
    fn cw(&self, key: &eov_common::rwset::Key) -> &CommittedWriteIndex;
    fn cr(&self, key: &eov_common::rwset::Key) -> &CommittedReadIndex;
    fn pw(&self, key: &eov_common::rwset::Key) -> &PendingIndex;
    fn pr(&self, key: &eov_common::rwset::Key) -> &PendingIndex;
}

/// The unsharded view: one index of each kind, whatever the key.
struct FlatView<'a> {
    cw: &'a CommittedWriteIndex,
    cr: &'a CommittedReadIndex,
    pw: &'a PendingIndex,
    pr: &'a PendingIndex,
}

impl KeyIndexView for FlatView<'_> {
    fn cw(&self, _: &eov_common::rwset::Key) -> &CommittedWriteIndex {
        self.cw
    }
    fn cr(&self, _: &eov_common::rwset::Key) -> &CommittedReadIndex {
        self.cr
    }
    fn pw(&self, _: &eov_common::rwset::Key) -> &PendingIndex {
        self.pw
    }
    fn pr(&self, _: &eov_common::rwset::Key) -> &PendingIndex {
        self.pr
    }
}

impl KeyIndexView for ShardedIndices {
    fn cw(&self, key: &eov_common::rwset::Key) -> &CommittedWriteIndex {
        ShardedIndices::cw(self, key)
    }
    fn cr(&self, key: &eov_common::rwset::Key) -> &CommittedReadIndex {
        ShardedIndices::cr(self, key)
    }
    fn pw(&self, key: &eov_common::rwset::Key) -> &PendingIndex {
        ShardedIndices::pw(self, key)
    }
    fn pr(&self, key: &eov_common::rwset::Key) -> &PendingIndex {
        ShardedIndices::pr(self, key)
    }
}

/// Computes the dependencies of `txn` against the committed and pending indices.
///
/// The transaction's own id never appears in the result (a transaction cannot depend on
/// itself), and each side is deduplicated while preserving first-seen order so the downstream
/// graph insertion is deterministic across replicated orderers.
pub fn resolve_dependencies(
    txn: &Transaction,
    cw: &CommittedWriteIndex,
    cr: &CommittedReadIndex,
    pw: &PendingIndex,
    pr: &PendingIndex,
) -> ResolvedDeps {
    resolve_with(txn, &FlatView { cw, cr, pw, pr })
}

/// Computes the dependencies of `txn` against the orderer's CW/CR/PW/PR indices — what
/// arrival and ledger replay both call. Partitioning the per-key maps by shard changes no
/// per-key answer, so the lists are identical, entry for entry, to what
/// [`resolve_dependencies`] computes against unsharded indices.
pub fn resolve(txn: &Transaction, indices: &ShardedIndices) -> ResolvedDeps {
    resolve_with(txn, indices)
}

/// The single copy of Section 4.3's four-phase resolution, shared by both entry points.
///
/// Each read key's CW entries are looked up once and split at the snapshot: the tail holds
/// the anti-rw successors, the last entry of the head the n-wr predecessor. The rw pass runs
/// first, since rw is the only phase that pushes predecessors before n-wr; each list then
/// comes out in the order of the four phases above.
fn resolve_with<V: KeyIndexView>(txn: &Transaction, view: &V) -> ResolvedDeps {
    let start_ts = txn.start_ts();
    let mut successors = Dedup::new(txn.id);
    let mut predecessors = Dedup::new(txn.id);

    // rw: committed or pending readers of keys we overwrite — they read the previous value, so
    // they come before us.
    for write in txn.write_set.iter() {
        for &(_, r) in view.cr(&write.key).entries(&write.key) {
            predecessors.push(r);
        }
        for &r in view.pr(&write.key).get(&write.key) {
            predecessors.push(r);
        }
    }

    for read in txn.read_set.iter() {
        let writes = view.cw(&read.key).entries(&read.key);
        let (before, from) = writes.split_at(writes.partition_point(|&(s, _)| s < start_ts));
        // anti-rw: committed or pending writers that overwrite something we read at or after
        // our snapshot — we must come before them in any serializable order.
        for &(_, w) in from {
            successors.push(w);
        }
        for &w in view.pw(&read.key).get(&read.key) {
            successors.push(w);
        }
        // n-wr: the committed writer that installed the version we read.
        if let Some(&(_, w)) = before.last() {
            predecessors.push(w);
        }
    }

    // ww: the last committed writer of each key we overwrite.
    for write in txn.write_set.iter() {
        if let Some(w) = view.cw(&write.key).last(&write.key) {
            predecessors.push(w);
        }
    }

    ResolvedDeps {
        predecessors: predecessors.into_vec(),
        successors: successors.into_vec(),
    }
}

/// Order-preserving deduplicating collector that also filters out the transaction itself.
struct Dedup {
    own: TxnId,
    seen: Vec<TxnId>,
}

impl Dedup {
    fn new(own: TxnId) -> Self {
        Dedup {
            own,
            seen: Vec::new(),
        }
    }

    fn push(&mut self, id: TxnId) {
        if id != self.own && !self.seen.contains(&id) {
            self.seen.push(id);
        }
    }

    fn into_vec(self) -> Vec<TxnId> {
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::rwset::{Key, Value};
    use eov_common::version::SeqNo;

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    /// A transaction reading A (observed at version (1,1)) and writing B, simulated against
    /// block 2 (start timestamp (3,0)).
    fn sample_txn() -> Transaction {
        Transaction::from_parts(
            100,
            2,
            [(k("A"), SeqNo::new(1, 1))],
            [(k("B"), Value::from_i64(7))],
        )
    }

    #[test]
    fn empty_indices_give_no_dependencies() {
        let deps = resolve_dependencies(
            &sample_txn(),
            &CommittedWriteIndex::new(),
            &CommittedReadIndex::new(),
            &PendingIndex::new(),
            &PendingIndex::new(),
        );
        assert!(deps.is_empty());
    }

    #[test]
    fn anti_rw_picks_up_committed_and_pending_writers_of_read_keys() {
        let mut cw = CommittedWriteIndex::new();
        // A committed writer of A *after* our snapshot (3,0) → anti-rw successor.
        cw.record(k("A"), SeqNo::new(3, 1), TxnId(1));
        // A committed writer of A *before* our snapshot → n-wr predecessor, not anti-rw.
        cw.record(k("A"), SeqNo::new(1, 1), TxnId(2));
        let mut pw = PendingIndex::new();
        pw.record(k("A"), TxnId(3));

        let deps = resolve_dependencies(
            &sample_txn(),
            &cw,
            &CommittedReadIndex::new(),
            &pw,
            &PendingIndex::new(),
        );
        assert_eq!(deps.successors, vec![TxnId(1), TxnId(3)]);
        assert_eq!(deps.predecessors, vec![TxnId(2)]);
    }

    #[test]
    fn rw_and_ww_pick_up_accessors_of_written_keys() {
        let mut cr = CommittedReadIndex::new();
        cr.record(k("B"), SeqNo::new(2, 1), TxnId(4)); // committed reader of B
        let mut pr = PendingIndex::new();
        pr.record(k("B"), TxnId(5)); // pending reader of B
        let mut cw = CommittedWriteIndex::new();
        cw.record(k("B"), SeqNo::new(2, 2), TxnId(6)); // last committed writer of B

        let deps = resolve_dependencies(&sample_txn(), &cw, &cr, &PendingIndex::new(), &pr);
        assert_eq!(deps.predecessors, vec![TxnId(4), TxnId(5), TxnId(6)]);
        assert!(deps.successors.is_empty());
    }

    #[test]
    fn own_id_and_duplicates_are_filtered() {
        let mut pw = PendingIndex::new();
        pw.record(k("A"), TxnId(100)); // the transaction itself
        pw.record(k("A"), TxnId(7));
        let mut pr = PendingIndex::new();
        pr.record(k("B"), TxnId(7)); // same id also a predecessor via a different key
        pr.record(k("B"), TxnId(100));

        let deps = resolve_dependencies(
            &sample_txn(),
            &CommittedWriteIndex::new(),
            &CommittedReadIndex::new(),
            &pw,
            &pr,
        );
        assert_eq!(deps.successors, vec![TxnId(7)]);
        assert_eq!(deps.predecessors, vec![TxnId(7)]);
    }

    /// Resolution over sharded indices must produce the *same* lists — entry for entry, in
    /// order — as the unsharded reference when both see the same per-key records. This is the
    /// arrival-path half of the ledger-identity argument for `store_shards`.
    #[test]
    fn sharded_resolution_matches_the_flat_reference() {
        use eov_common::shard::ShardRouter;

        let mut cw = CommittedWriteIndex::new();
        let mut cr = CommittedReadIndex::new();
        let mut pw = PendingIndex::new();
        let mut pr = PendingIndex::new();
        let mut sharded = ShardedIndices::new(ShardRouter::hash(3));

        // Records over a wider key population than the sample txn touches, so shard routing
        // actually scatters the lookups.
        for i in 0..12u64 {
            let key = k(&format!("key:{}", i % 4));
            let seq = SeqNo::new(i / 4 + 1, (i % 4) as u32 + 1);
            cw.record(key.clone(), seq, TxnId(i));
            sharded.record_cw(key.clone(), seq, TxnId(i));
            cr.record(key.clone(), seq, TxnId(100 + i));
            sharded.record_cr(key, seq, TxnId(100 + i));
        }
        for i in 0..4u64 {
            let key = k(&format!("key:{i}"));
            pw.record(key.clone(), TxnId(200 + i));
            sharded.record_pw(key.clone(), TxnId(200 + i));
            pr.record(key.clone(), TxnId(300 + i));
            sharded.record_pr(key, TxnId(300 + i));
        }

        let txn = Transaction::from_parts(
            999,
            1,
            (0..3).map(|i| (k(&format!("key:{i}")), SeqNo::new(1, i + 1))),
            (1..4).map(|i| (k(&format!("key:{i}")), Value::from_i64(i as i64))),
        );

        let flat = resolve_dependencies(&txn, &cw, &cr, &pw, &pr);
        assert!(!flat.is_empty());
        assert_eq!(resolve(&txn, &sharded), flat, "lists must be identical");
    }

    #[test]
    fn blind_writes_have_no_successors() {
        // A transaction with no reads can never be on the reading end of an anti-rw.
        let txn = Transaction::from_parts(1, 0, [], [(k("X"), Value::from_i64(1))]);
        let mut cw = CommittedWriteIndex::new();
        cw.record(k("X"), SeqNo::new(1, 1), TxnId(9));
        let deps = resolve_dependencies(
            &txn,
            &cw,
            &CommittedReadIndex::new(),
            &PendingIndex::new(),
            &PendingIndex::new(),
        );
        assert!(deps.successors.is_empty());
        assert_eq!(deps.predecessors, vec![TxnId(9)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use eov_common::rwset::{Key, Value};
    use eov_common::version::SeqNo;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Section 4.3's resolution as four passes, probing CW twice per read key (once for
    /// anti-rw, once for n-wr): the model the one-probe [`resolve_with`] must reproduce.
    fn resolve_four_pass(
        txn: &Transaction,
        cw: &CommittedWriteIndex,
        cr: &CommittedReadIndex,
        pw: &PendingIndex,
        pr: &PendingIndex,
    ) -> ResolvedDeps {
        let start_ts = txn.start_ts();
        let mut successors = Dedup::new(txn.id);
        let mut predecessors = Dedup::new(txn.id);
        for read in txn.read_set.iter() {
            for &(_, w) in cw.entries_from(&read.key, start_ts) {
                successors.push(w);
            }
            for &w in pw.get(&read.key) {
                successors.push(w);
            }
        }
        for write in txn.write_set.iter() {
            for &(_, r) in cr.entries(&write.key) {
                predecessors.push(r);
            }
            for &r in pr.get(&write.key) {
                predecessors.push(r);
            }
        }
        for read in txn.read_set.iter() {
            if let Some(w) = cw.before(&read.key, start_ts) {
                predecessors.push(w);
            }
        }
        for write in txn.write_set.iter() {
            if let Some(w) = cw.last(&write.key) {
                predecessors.push(w);
            }
        }
        ResolvedDeps {
            predecessors: predecessors.into_vec(),
            successors: successors.into_vec(),
        }
    }

    fn k(i: u8) -> Key {
        Key::new(format!("k{i}"))
    }

    const KEYS: u8 = 6;
    const IDS: u64 = 24;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random index contents and transactions (ids shared with the indices, so the own-id
        /// filter and deduplication both fire): both resolutions give the same lists, entry
        /// for entry.
        #[test]
        fn one_probe_resolution_matches_the_four_pass_model(
            committed in vec((0u8..KEYS, 0u64..8, 1u32..4, 0u64..IDS, any::<bool>()), 0..40),
            pending in vec((0u8..KEYS, 0u64..IDS, any::<bool>()), 0..16),
            txns in vec((0u64..IDS, 0u64..8, vec(0u8..KEYS, 0..5), vec(0u8..KEYS, 0..5)), 1..8),
        ) {
            let (mut cw, mut cr) = (CommittedWriteIndex::new(), CommittedReadIndex::new());
            for (key, block, seq, id, is_write) in committed {
                let seq = SeqNo::new(block, seq);
                if is_write {
                    cw.record(k(key), seq, TxnId(id));
                } else {
                    cr.record(k(key), seq, TxnId(id));
                }
            }
            let (mut pw, mut pr) = (PendingIndex::new(), PendingIndex::new());
            for (key, id, is_write) in pending {
                let index = if is_write { &mut pw } else { &mut pr };
                index.record(k(key), TxnId(id));
            }
            for (id, snapshot, reads, writes) in txns {
                let txn = Transaction::from_parts(
                    id,
                    snapshot,
                    reads.iter().map(|&key| (k(key), SeqNo::new(snapshot, 1))),
                    writes.iter().map(|&key| (k(key), Value::from_i64(id as i64))),
                );
                prop_assert_eq!(
                    resolve_dependencies(&txn, &cw, &cr, &pw, &pr),
                    resolve_four_pass(&txn, &cw, &cr, &pw, &pr)
                );
            }
        }
    }
}

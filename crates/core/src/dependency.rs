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
use eov_vstore::DependencyIndices;

/// The dependencies of a newly arrived transaction, split into the two roles they play in the
/// cycle test of Algorithm 2.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct ResolvedDeps {
    /// Transactions that must be serialized *before* the new one (ww ∪ n-wr ∪ rw).
    pub(crate) predecessors: Vec<TxnId>,
    /// Transactions that must be serialized *after* the new one (anti-rw).
    pub(crate) successors: Vec<TxnId>,
}

impl ResolvedDeps {
    /// Whether the transaction has no dependencies at all (the common case under uniform
    /// workloads, which is what makes the arrival path cheap on average).
    pub(crate) fn is_empty(&self) -> bool {
        self.predecessors.is_empty() && self.successors.is_empty()
    }
}

/// Computes the dependencies of `txn` against the orderer's CW/CR/PW/PR indices — what
/// arrival and ledger replay both call.
///
/// The transaction's own id never appears in the result (a transaction cannot depend on
/// itself), and each side is deduplicated while preserving first-seen order so the downstream
/// graph insertion is deterministic across replicated orderers.
///
/// Each read key's CW entries are looked up once and split at the snapshot: the tail holds
/// the anti-rw successors, the last entry of the head the n-wr predecessor. The rw pass runs
/// first, since rw is the only phase that pushes predecessors before n-wr; each list then
/// comes out in the order of the four phases above.
pub(crate) fn resolve(txn: &Transaction, indices: &DependencyIndices) -> ResolvedDeps {
    let DependencyIndices { cw, cr, pw, pr } = indices;
    let start_ts = txn.start_ts();
    let mut successors = Dedup::new(txn.id);
    let mut predecessors = Dedup::new(txn.id);

    // rw: committed or pending readers of keys we overwrite — they read the previous value, so
    // they come before us.
    for write in txn.write_set.iter() {
        for &(_, r) in cr.entries(&write.key) {
            predecessors.push(r);
        }
        for &r in pr.get(&write.key) {
            predecessors.push(r);
        }
    }

    for read in txn.read_set.iter() {
        let writes = cw.entries(&read.key);
        let (before, from) = writes.split_at(writes.partition_point(|&(s, _)| s < start_ts));
        // anti-rw: committed or pending writers that overwrite something we read at or after
        // our snapshot — we must come before them in any serializable order.
        for &(_, w) in from {
            successors.push(w);
        }
        for &w in pw.get(&read.key) {
            successors.push(w);
        }
        // n-wr: the committed writer that installed the version we read.
        if let Some(&(_, w)) = before.last() {
            predecessors.push(w);
        }
    }

    // ww: the last committed writer of each key we overwrite.
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

/// The runtime check behind the template fast path, in debug builds only: a transaction
/// tagged [`eov_common::txn::TemplateClass::Safe`] skips resolution, so resolve it anyway
/// and insist it depends on no tracked transaction. Release builds never run the resolution.
pub(crate) fn debug_assert_dependency_free(txn: &Transaction, indices: &DependencyIndices) {
    debug_assert!(
        resolve(txn, indices).is_empty(),
        "{:?} is tagged Safe but depends on tracked transactions: {:?}",
        txn.id,
        resolve(txn, indices)
    );
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
        let deps = resolve(&sample_txn(), &DependencyIndices::default());
        assert!(deps.is_empty());
    }

    #[test]
    fn anti_rw_picks_up_committed_and_pending_writers_of_read_keys() {
        let mut indices = DependencyIndices::default();
        // A committed writer of A *after* our snapshot (3,0) → anti-rw successor.
        indices.cw.record(k("A"), SeqNo::new(3, 1), TxnId(1));
        // A committed writer of A *before* our snapshot → n-wr predecessor, not anti-rw.
        indices.cw.record(k("A"), SeqNo::new(1, 1), TxnId(2));
        indices.pw.record(k("A"), TxnId(3));

        let deps = resolve(&sample_txn(), &indices);
        assert_eq!(deps.successors, vec![TxnId(1), TxnId(3)]);
        assert_eq!(deps.predecessors, vec![TxnId(2)]);
    }

    #[test]
    fn rw_and_ww_pick_up_accessors_of_written_keys() {
        let mut indices = DependencyIndices::default();
        indices.cr.record(k("B"), SeqNo::new(2, 1), TxnId(4)); // committed reader of B
        indices.pr.record(k("B"), TxnId(5)); // pending reader of B
        indices.cw.record(k("B"), SeqNo::new(2, 2), TxnId(6)); // last committed writer of B

        let deps = resolve(&sample_txn(), &indices);
        assert_eq!(deps.predecessors, vec![TxnId(4), TxnId(5), TxnId(6)]);
        assert!(deps.successors.is_empty());
    }

    #[test]
    fn own_id_and_duplicates_are_filtered() {
        let mut indices = DependencyIndices::default();
        indices.pw.record(k("A"), TxnId(100)); // the transaction itself
        indices.pw.record(k("A"), TxnId(7));
        indices.pr.record(k("B"), TxnId(7)); // same id also a predecessor via a different key
        indices.pr.record(k("B"), TxnId(100));

        let deps = resolve(&sample_txn(), &indices);
        assert_eq!(deps.successors, vec![TxnId(7)]);
        assert_eq!(deps.predecessors, vec![TxnId(7)]);
    }

    #[test]
    fn blind_writes_have_no_successors() {
        // A transaction with no reads can never be on the reading end of an anti-rw.
        let txn = Transaction::from_parts(1, 0, [], [(k("X"), Value::from_i64(1))]);
        let mut indices = DependencyIndices::default();
        indices.cw.record(k("X"), SeqNo::new(1, 1), TxnId(9));
        let deps = resolve(&txn, &indices);
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
    /// anti-rw, once for n-wr): the model the one-probe [`resolve`] must reproduce.
    fn resolve_four_pass(txn: &Transaction, indices: &DependencyIndices) -> ResolvedDeps {
        let DependencyIndices { cw, cr, pw, pr } = indices;
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
            let mut indices = DependencyIndices::default();
            for (key, block, seq, id, is_write) in committed {
                let seq = SeqNo::new(block, seq);
                if is_write {
                    indices.cw.record(k(key), seq, TxnId(id));
                } else {
                    indices.cr.record(k(key), seq, TxnId(id));
                }
            }
            for (key, id, is_write) in pending {
                let index = if is_write { &mut indices.pw } else { &mut indices.pr };
                index.record(k(key), TxnId(id));
            }
            for (id, snapshot, reads, writes) in txns {
                let txn = Transaction::from_parts(
                    id,
                    snapshot,
                    reads.iter().map(|&key| (k(key), SeqNo::new(snapshot, 1))),
                    writes.iter().map(|&key| (k(key), Value::from_i64(id as i64))),
                );
                prop_assert_eq!(resolve(&txn, &indices), resolve_four_pass(&txn, &indices));
            }
        }
    }
}

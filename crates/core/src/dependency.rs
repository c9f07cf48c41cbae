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

use crate::keys::{Found, KeyTable};
use eov_common::txn::{Transaction, TxnId};

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

/// Computes the dependencies of `txn` against the orderer's CW/CR/PW/PR key table — what
/// arrival and ledger replay both call. It looks each key up once ([`KeyTable::find`]) into
/// `found`, which the caller then interns the keys by.
///
/// The transaction's own id never appears in the result (a transaction cannot depend on
/// itself), and each side is deduplicated while preserving first-seen order so the downstream
/// graph insertion is deterministic across replicated orderers.
///
/// Each read key's CW entries are split at the snapshot: the tail holds the anti-rw
/// successors, the last entry of the head the n-wr predecessor. The rw pass runs first, since
/// rw is the only phase that pushes predecessors before n-wr; each list then comes out in the
/// order of the four phases above.
pub(crate) fn resolve(txn: &Transaction, keys: &KeyTable, found: &mut Found) -> ResolvedDeps {
    keys.find(txn, found);
    let start_ts = txn.start_ts();
    let reads = 0..txn.read_set.len();
    let writes = reads.end..reads.end + txn.write_set.len();
    let mut successors = Dedup::new(txn.id);
    let mut predecessors = Dedup::new(txn.id);

    // rw: committed or pending readers of keys we overwrite — they read the previous value, so
    // they come before us.
    for record in writes.clone().filter_map(|i| keys.found_record(found, i)) {
        for &(_, r) in &record.cr {
            predecessors.push(r);
        }
        for &r in &record.pr {
            predecessors.push(r);
        }
    }

    for record in reads.filter_map(|i| keys.found_record(found, i)) {
        let writes = &record.cw;
        let (before, from) = writes.split_at(writes.partition_point(|&(s, _)| s < start_ts));
        // anti-rw: committed or pending writers that overwrite something we read at or after
        // our snapshot — we must come before them in any serializable order.
        for &(_, w) in from {
            successors.push(w);
        }
        for &w in &record.pw {
            successors.push(w);
        }
        // n-wr: the committed writer that installed the version we read.
        if let Some(&(_, w)) = before.last() {
            predecessors.push(w);
        }
    }

    // ww: the last committed writer of each key we overwrite.
    for record in writes.filter_map(|i| keys.found_record(found, i)) {
        if let Some(&(_, w)) = record.cw.last() {
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
pub(crate) fn debug_assert_dependency_free(txn: &Transaction, keys: &KeyTable) {
    if cfg!(debug_assertions) {
        let deps = resolve(txn, keys, &mut Found::default());
        assert!(
            deps.is_empty(),
            "{:?} is tagged Safe but depends on tracked transactions: {deps:?}",
            txn.id,
        );
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

    fn committed(keys: &mut KeyTable, key: &str, write: bool, seq: SeqNo, txn: u64) {
        let id = keys.id_of(&k(key));
        keys.record_committed(id, write, seq, TxnId(txn));
    }

    #[test]
    fn empty_indices_give_no_dependencies() {
        let deps = resolve(&sample_txn(), &KeyTable::default(), &mut Found::default());
        assert!(deps.is_empty());
    }

    #[test]
    fn anti_rw_picks_up_committed_and_pending_writers_of_read_keys() {
        let mut keys = KeyTable::default();
        // A committed writer of A *after* our snapshot (3,0) → anti-rw successor.
        committed(&mut keys, "A", true, SeqNo::new(3, 1), 1);
        // A committed writer of A *before* our snapshot → n-wr predecessor, not anti-rw.
        committed(&mut keys, "A", true, SeqNo::new(1, 1), 2);
        keys.add_pending(&k("A"), true, TxnId(3));

        let deps = resolve(&sample_txn(), &keys, &mut Found::default());
        assert_eq!(deps.successors, vec![TxnId(1), TxnId(3)]);
        assert_eq!(deps.predecessors, vec![TxnId(2)]);
    }

    #[test]
    fn rw_and_ww_pick_up_accessors_of_written_keys() {
        let mut keys = KeyTable::default();
        committed(&mut keys, "B", false, SeqNo::new(2, 1), 4); // committed reader of B
        keys.add_pending(&k("B"), false, TxnId(5)); // pending reader of B
        committed(&mut keys, "B", true, SeqNo::new(2, 2), 6); // last committed writer of B

        let deps = resolve(&sample_txn(), &keys, &mut Found::default());
        assert_eq!(deps.predecessors, vec![TxnId(4), TxnId(5), TxnId(6)]);
        assert!(deps.successors.is_empty());
    }

    #[test]
    fn own_id_and_duplicates_are_filtered() {
        let mut keys = KeyTable::default();
        keys.add_pending(&k("A"), true, TxnId(100)); // the transaction itself
        keys.add_pending(&k("A"), true, TxnId(7));
        keys.add_pending(&k("B"), false, TxnId(7)); // same id also a predecessor via another key
        keys.add_pending(&k("B"), false, TxnId(100));

        let deps = resolve(&sample_txn(), &keys, &mut Found::default());
        assert_eq!(deps.successors, vec![TxnId(7)]);
        assert_eq!(deps.predecessors, vec![TxnId(7)]);
    }

    #[test]
    fn blind_writes_have_no_successors() {
        // A transaction with no reads can never be on the reading end of an anti-rw.
        let txn = Transaction::from_parts(1, 0, [], [(k("X"), Value::from_i64(1))]);
        let mut keys = KeyTable::default();
        committed(&mut keys, "X", true, SeqNo::new(1, 1), 9);
        let deps = resolve(&txn, &keys, &mut Found::default());
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

    /// Section 4.3's resolution as four passes, looking every key up by name and querying
    /// CW twice per read key (`CW[key][startTS:]` for anti-rw, `CW.Before(key, startTS)` for
    /// n-wr): the model the one-lookup [`resolve`] must reproduce.
    fn resolve_four_pass(txn: &Transaction, keys: &KeyTable) -> ResolvedDeps {
        let start_ts = txn.start_ts();
        let cw = |key: &Key| keys.record_of(key).map_or(&[][..], |r| r.cw.as_slice());
        let cr = |key: &Key| keys.record_of(key).map_or(&[][..], |r| r.cr.as_slice());
        let pw = |key: &Key| keys.record_of(key).map_or(&[][..], |r| r.pw.as_slice());
        let pr = |key: &Key| keys.record_of(key).map_or(&[][..], |r| r.pr.as_slice());
        let mut successors = Dedup::new(txn.id);
        let mut predecessors = Dedup::new(txn.id);
        for read in txn.read_set.iter() {
            for &(_, w) in cw(&read.key).iter().filter(|&&(s, _)| s >= start_ts) {
                successors.push(w);
            }
            for &w in pw(&read.key) {
                successors.push(w);
            }
        }
        for write in txn.write_set.iter() {
            for &(_, r) in cr(&write.key) {
                predecessors.push(r);
            }
            for &r in pr(&write.key) {
                predecessors.push(r);
            }
        }
        for read in txn.read_set.iter() {
            if let Some(&(_, w)) = cw(&read.key).iter().rev().find(|&&(s, _)| s < start_ts) {
                predecessors.push(w);
            }
        }
        for write in txn.write_set.iter() {
            if let Some(&(_, w)) = cw(&write.key).last() {
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
            let mut keys = KeyTable::default();
            for (key, block, seq, id, is_write) in committed {
                let record = keys.id_of(&k(key));
                keys.record_committed(record, is_write, SeqNo::new(block, seq), TxnId(id));
            }
            for (key, id, is_write) in pending {
                keys.add_pending(&k(key), is_write, TxnId(id));
            }
            let mut found = Found::default();
            for (id, snapshot, reads, writes) in txns {
                let txn = Transaction::from_parts(
                    id,
                    snapshot,
                    reads.iter().map(|&key| (k(key), SeqNo::new(snapshot, 1))),
                    writes.iter().map(|&key| (k(key), Value::from_i64(id as i64))),
                );
                prop_assert_eq!(resolve(&txn, &keys, &mut found), resolve_four_pass(&txn, &keys));
            }
        }
    }
}

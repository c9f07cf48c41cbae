//! Committed-transaction indices: `CommittedWriteTxns` (CW) and `CommittedReadTxns` (CR).
//!
//! Section 4.3 of the paper introduces two multi-versioned storages kept by each orderer to
//! resolve dependencies against *committed* transactions:
//!
//! * **CW** maps `key ++ commit-seq → txn` for every committed write, so that the orderer can
//!   answer `CW.Before(key, seq)` (the last committed writer of `key` before `seq`),
//!   `CW.Last(key)` (the last committed writer overall) and the range query `CW[key][seq:]`
//!   (every committed writer of `key` from `seq` onward — these are the anti-rw candidates).
//! * **CR** maps `key ++ commit-seq → txn` for committed transactions that read the latest
//!   value of `key`; `CR[key]` enumerates the committed readers whose reads a new writer of
//!   `key` would invalidate (rw dependencies).
//!
//! The paper stores both in LevelDB, placing the record key before the commit sequence so that
//! every query is a seek to the record key's prefix followed by a short scan in commit order.
//! The documented LevelDB substitution is the **key-major** layout of [`KeyMajor`]: a hash
//! map from record key to that key's `(commit seq, txn)` entries, kept sorted by commit
//! sequence. The hash probe plays the role of the prefix seek and the per-key vector is the
//! prefix's ordered run, so the query surface — and the order of every answer — is exactly
//! what the ordered store gives per key. Nothing in Section 4.3 ever scans *across* record
//! keys, so the cross-key order LevelDB also provides is deliberately not kept. What the
//! layout buys is the paper's cost model (Figure 11, "persist to storage" / "prune G"): every
//! operation costs in proportion to the entries of the keys it names, never to the size of
//! the index.
//!
//! Pruning (Section 4.6) needs the one cross-key question "which keys still hold entries of
//! blocks below the horizon?". A per-block log of touched keys answers it without scanning
//! the map (and without iterating a hash map, whose order is seeded per process): pruning
//! walks the logs of the blocks that age out and trims only the keys named there.

use eov_common::rwset::Key;
use eov_common::txn::TxnId;
use eov_common::version::SeqNo;
use std::collections::{BTreeMap, HashMap};

/// The layout shared by both indices: per record key, its entries in commit order; per commit
/// block, the keys recorded at that block.
///
/// Invariant: for every entry `(seq, _)` under `key`, `key` appears in `touched[seq.block]`.
/// The log may name a key more often than that (entries dropped or replaced since) — stale
/// references cost one hash probe when their block ages out and are otherwise harmless.
#[derive(Clone, Debug, Default)]
struct KeyMajor {
    by_key: HashMap<Key, Vec<(SeqNo, TxnId)>>,
    touched: BTreeMap<u64, Vec<Key>>,
    len: usize,
}

impl KeyMajor {
    /// Records `(seq, txn)` under `key`. Appends in the common case (commit sequences arrive
    /// in increasing order); an out-of-order `seq` is inserted at its sorted position and a
    /// repeated `(key, seq)` replaces the earlier transaction (last wins).
    fn record(&mut self, key: Key, seq: SeqNo, txn: TxnId) {
        let entries = self.by_key.entry(key.clone()).or_default();
        let at = match entries.last() {
            Some(&(last, _)) if last >= seq => entries.partition_point(|&(s, _)| s < seq),
            _ => entries.len(),
        };
        if let Some(existing) = entries.get_mut(at).filter(|(s, _)| *s == seq) {
            existing.1 = txn;
            return;
        }
        // A neighbour from the same block means this key is already in that block's log.
        let logged = (at > 0 && entries[at - 1].0.block == seq.block)
            || entries.get(at).is_some_and(|(s, _)| s.block == seq.block);
        entries.insert(at, (seq, txn));
        self.len += 1;
        if !logged {
            self.touched.entry(seq.block).or_default().push(key);
        }
    }

    /// Every entry of `key`, in commit order.
    fn entries(&self, key: &Key) -> &[(SeqNo, TxnId)] {
        self.by_key.get(key).map_or(&[], Vec::as_slice)
    }

    /// The entries of `key` with commit sequence at or after `seq`, in commit order.
    fn entries_from(&self, key: &Key, seq: SeqNo) -> &[(SeqNo, TxnId)] {
        let entries = self.entries(key);
        &entries[entries.partition_point(|&(s, _)| s < seq)..]
    }

    /// The last entry of `key` with commit sequence strictly before `seq`.
    fn before(&self, key: &Key, seq: SeqNo) -> Option<TxnId> {
        let entries = self.entries(key);
        let end = entries.partition_point(|&(s, _)| s < seq);
        entries[..end].last().map(|&(_, txn)| txn)
    }

    /// Drops the leading entries of `key` for which `is_stale` holds (the predicate must be
    /// monotone in commit order, so the stale entries form a prefix); returns how many.
    fn drop_prefix(&mut self, key: &Key, is_stale: impl Fn(SeqNo) -> bool) -> usize {
        let Some(entries) = self.by_key.get_mut(key) else {
            return 0;
        };
        let stale = entries.partition_point(|&(s, _)| is_stale(s));
        if stale == entries.len() {
            self.by_key.remove(key);
        } else {
            entries.drain(..stale);
        }
        self.len -= stale;
        stale
    }

    /// Drops every entry whose commit block is strictly below `block`, visiting only the keys
    /// logged under the blocks that age out; returns how many entries were removed.
    fn prune_below(&mut self, block: u64) -> usize {
        let mut removed = 0;
        while let Some(oldest) = self.touched.first_entry() {
            if *oldest.key() >= block {
                break;
            }
            for key in oldest.remove() {
                removed += self.drop_prefix(&key, |s| s.block < block);
            }
        }
        removed
    }
}

/// Index over committed writes: `(key, commit seq) → writer`.
#[derive(Clone, Debug, Default)]
pub struct CommittedWriteIndex {
    index: KeyMajor,
}

impl CommittedWriteIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `txn`, committed at `seq`, wrote `key`.
    pub fn record(&mut self, key: Key, seq: SeqNo, txn: TxnId) {
        self.index.record(key, seq, txn);
    }

    /// `CW.Before(key, seq)`: the last committed transaction that updated `key` with a commit
    /// sequence strictly earlier than `seq`.
    pub fn before(&self, key: &Key, seq: SeqNo) -> Option<TxnId> {
        self.index.before(key, seq)
    }

    /// `CW.Last(key)`: the last committed transaction that updated `key`, if any.
    pub fn last(&self, key: &Key) -> Option<TxnId> {
        self.index.entries(key).last().map(|&(_, txn)| txn)
    }

    /// `CW[key][seq:]`, borrowed: every committed write of `key` with a commit sequence at or
    /// after `seq`, in commit order. The arrival path resolves anti-rw candidates through this
    /// form; it allocates nothing.
    pub fn entries_from(&self, key: &Key, seq: SeqNo) -> &[(SeqNo, TxnId)] {
        self.index.entries_from(key, seq)
    }

    /// `CW[key][seq:]` as an owned list of writers (tests and benches).
    pub fn from(&self, key: &Key, seq: SeqNo) -> Vec<TxnId> {
        txns(self.entries_from(key, seq))
    }

    /// Every committed writer of `key` in commit order (used by tests and diagnostics).
    pub fn all(&self, key: &Key) -> Vec<(SeqNo, TxnId)> {
        self.index.entries(key).to_vec()
    }

    /// Drops every entry whose commit block is strictly below `block` (Section 4.6 pruning).
    /// Returns the number of entries removed.
    pub fn prune_below(&mut self, block: u64) -> usize {
        self.index.prune_below(block)
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.index.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.index.len == 0
    }
}

/// Index over committed reads: `(key, commit seq) → reader`.
///
/// Only reads of the *latest* value of a key are recorded (as in the paper's example entry
/// `{A_4_1 : Txn7}`): once a later transaction overwrites the key, new readers of the old
/// value would already fail validation, so they never reach the index.
#[derive(Clone, Debug, Default)]
pub struct CommittedReadIndex {
    index: KeyMajor,
}

impl CommittedReadIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `txn`, committed at `seq`, read the latest value of `key`.
    pub fn record(&mut self, key: Key, seq: SeqNo, txn: TxnId) {
        self.index.record(key, seq, txn);
    }

    /// `CR[key]`, borrowed: every committed read of `key` on record, in commit order. The
    /// arrival path resolves rw predecessors through this form; it allocates nothing.
    pub fn entries(&self, key: &Key) -> &[(SeqNo, TxnId)] {
        self.index.entries(key)
    }

    /// `CR[key]` as an owned list of readers (tests and benches).
    pub fn readers(&self, key: &Key) -> Vec<TxnId> {
        txns(self.entries(key))
    }

    /// Readers of `key` with commit sequence at or after `seq`.
    pub fn readers_from(&self, key: &Key, seq: SeqNo) -> Vec<TxnId> {
        txns(self.index.entries_from(key, seq))
    }

    /// Drops readers of `key` that observed values older than the newest committed write, i.e.
    /// entries whose commit sequence is at or before `overwritten_at`. Called when a new write
    /// to `key` commits so the index only tracks readers of the latest value.
    pub fn drop_stale_readers(&mut self, key: &Key, overwritten_at: SeqNo) -> usize {
        self.index.drop_prefix(key, |s| s <= overwritten_at)
    }

    /// Drops every entry whose commit block is strictly below `block` (Section 4.6 pruning).
    /// Returns the number of entries removed.
    pub fn prune_below(&mut self, block: u64) -> usize {
        self.index.prune_below(block)
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.index.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.index.len == 0
    }
}

fn txns(entries: &[(SeqNo, TxnId)]) -> Vec<TxnId> {
    entries.iter().map(|&(_, txn)| txn).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    #[test]
    fn cw_point_queries_match_paper_examples() {
        // Paper example: Txn1 with commit sequence (3,2) writes key A → entry {A_3_2: Txn1}.
        let mut cw = CommittedWriteIndex::new();
        cw.record(k("A"), SeqNo::new(3, 2), TxnId(1));
        cw.record(k("A"), SeqNo::new(5, 1), TxnId(9));
        cw.record(k("B"), SeqNo::new(4, 1), TxnId(3));

        assert_eq!(cw.last(&k("A")), Some(TxnId(9)));
        assert_eq!(cw.last(&k("B")), Some(TxnId(3)));
        assert_eq!(cw.last(&k("C")), None);

        // Before(key, seq) is strict: a write at exactly `seq` is not "before" it.
        assert_eq!(cw.before(&k("A"), SeqNo::new(5, 1)), Some(TxnId(1)));
        assert_eq!(cw.before(&k("A"), SeqNo::new(3, 2)), None);
        assert_eq!(cw.before(&k("A"), SeqNo::new(9, 0)), Some(TxnId(9)));
    }

    #[test]
    fn cw_range_from_returns_commit_ordered_writers() {
        let mut cw = CommittedWriteIndex::new();
        for (block, txn) in [(2u64, 1u64), (3, 2), (4, 3), (6, 4)] {
            cw.record(k("A"), SeqNo::new(block, 1), TxnId(txn));
        }
        // CW[A][(4,0):] — writers from block 4 onward.
        assert_eq!(cw.from(&k("A"), SeqNo::new(4, 0)), vec![TxnId(3), TxnId(4)]);
        // Keys never bleed into each other.
        cw.record(k("AB"), SeqNo::new(1, 1), TxnId(99));
        assert_eq!(cw.from(&k("A"), SeqNo::new(0, 0)).len(), 4);
        assert_eq!(cw.all(&k("A")).len(), 4);
    }

    #[test]
    fn cw_pruning_removes_old_blocks_only() {
        let mut cw = CommittedWriteIndex::new();
        cw.record(k("A"), SeqNo::new(1, 1), TxnId(1));
        cw.record(k("A"), SeqNo::new(5, 1), TxnId(2));
        let removed = cw.prune_below(3);
        assert_eq!(removed, 1);
        assert_eq!(cw.last(&k("A")), Some(TxnId(2)));
        assert_eq!(cw.len(), 1);
        assert!(!cw.is_empty());
    }

    #[test]
    fn cr_readers_and_stale_dropping() {
        // Paper example: {A_4_1: Txn7} — Txn7 is the first transaction of block 4 reading the
        // latest value of A.
        let mut cr = CommittedReadIndex::new();
        cr.record(k("A"), SeqNo::new(4, 1), TxnId(7));
        cr.record(k("A"), SeqNo::new(4, 3), TxnId(8));
        cr.record(k("B"), SeqNo::new(4, 2), TxnId(9));

        assert_eq!(cr.readers(&k("A")), vec![TxnId(7), TxnId(8)]);
        assert_eq!(cr.readers_from(&k("A"), SeqNo::new(4, 2)), vec![TxnId(8)]);

        // A new write to A committed at (5,1): readers of the previous value are dropped.
        let dropped = cr.drop_stale_readers(&k("A"), SeqNo::new(5, 1));
        assert_eq!(dropped, 2);
        assert!(cr.readers(&k("A")).is_empty());
        assert_eq!(cr.readers(&k("B")), vec![TxnId(9)]);
    }

    #[test]
    fn cr_pruning() {
        let mut cr = CommittedReadIndex::new();
        cr.record(k("A"), SeqNo::new(1, 1), TxnId(1));
        cr.record(k("A"), SeqNo::new(9, 1), TxnId(2));
        assert_eq!(cr.prune_below(5), 1);
        assert_eq!(cr.len(), 1);
        assert!(!cr.is_empty());
    }

    /// The per-block key log accumulates stale references when a key is dropped and
    /// re-recorded inside one block; neither `drop_stale_readers` nor `prune_below` may let
    /// them disturb other keys' entries or the entry count.
    #[test]
    fn stale_log_references_leave_other_keys_and_len_exact() {
        let mut cr = CommittedReadIndex::new();
        cr.record(k("A"), SeqNo::new(3, 1), TxnId(1));
        cr.record(k("B"), SeqNo::new(3, 1), TxnId(1));
        // A is overwritten and re-read twice within block 3: block 3's log now names A three
        // times, two of them for entries that no longer exist.
        assert_eq!(cr.drop_stale_readers(&k("A"), SeqNo::new(3, 2)), 1);
        assert_eq!(cr.len(), 1);
        cr.record(k("A"), SeqNo::new(3, 3), TxnId(3));
        assert_eq!(cr.drop_stale_readers(&k("A"), SeqNo::new(3, 4)), 1);
        cr.record(k("A"), SeqNo::new(3, 5), TxnId(5));
        assert_eq!(cr.drop_stale_readers(&k("Z"), SeqNo::new(9, 9)), 0);
        assert_eq!(cr.len(), 2);
        assert_eq!(cr.readers(&k("A")), vec![TxnId(5)]);
        assert_eq!(cr.readers(&k("B")), vec![TxnId(1)]);

        cr.record(k("A"), SeqNo::new(4, 1), TxnId(6));
        cr.record(k("C"), SeqNo::new(4, 2), TxnId(7));
        assert_eq!(cr.prune_below(4), 2);
        assert_eq!(cr.len(), 2);
        assert_eq!(cr.readers(&k("A")), vec![TxnId(6)]);
        assert!(cr.readers(&k("B")).is_empty());
        assert_eq!(cr.readers(&k("C")), vec![TxnId(7)]);
        assert_eq!(cr.prune_below(4), 0);
        assert_eq!(cr.prune_below(5), 2);
        assert!(cr.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::ops::Bound;

    /// The composite-key `BTreeMap<(Key, SeqNo), TxnId>` layout both indices shipped with
    /// before the key-major one, kept as the model the property test checks them against.
    #[derive(Default)]
    struct CompositeKeyOracle {
        entries: BTreeMap<(Key, SeqNo), TxnId>,
    }

    impl CompositeKeyOracle {
        fn record(&mut self, key: Key, seq: SeqNo, txn: TxnId) {
            self.entries.insert((key, seq), txn);
        }

        fn before(&self, key: &Key, seq: SeqNo) -> Option<TxnId> {
            self.entries
                .range((
                    Bound::Included((key.clone(), SeqNo::zero())),
                    Bound::Excluded((key.clone(), seq)),
                ))
                .next_back()
                .map(|(_, txn)| *txn)
        }

        fn from(&self, key: &Key, seq: SeqNo) -> Vec<(SeqNo, TxnId)> {
            self.entries
                .range((
                    Bound::Included((key.clone(), seq)),
                    Bound::Included((key.clone(), SeqNo::new(u64::MAX, u32::MAX))),
                ))
                .map(|((_, seq), txn)| (*seq, *txn))
                .collect()
        }

        fn drop_stale_readers(&mut self, key: &Key, overwritten_at: SeqNo) -> usize {
            let before = self.entries.len();
            self.entries
                .retain(|(k, seq), _| k != key || *seq > overwritten_at);
            before - self.entries.len()
        }

        fn prune_below(&mut self, block: u64) -> usize {
            let before = self.entries.len();
            self.entries.retain(|(_, seq), _| seq.block >= block);
            before - self.entries.len()
        }
    }

    const KEYS: u8 = 5;

    proptest! {
        /// Random interleavings of every mutation — in-order, out-of-order and duplicate
        /// `(key, seq)` records, stale-reader drops, pruning at arbitrary horizons — leave
        /// both indices answering every query, for every key, exactly like the oracle.
        #[test]
        fn indices_match_the_composite_key_oracle(
            ops in proptest::collection::vec((0u8..8, 0u8..KEYS, 0u64..8, 0u32..4, 0u64..50), 0..80),
            probe in (0u64..9, 0u32..5),
        ) {
            let mut cw = CommittedWriteIndex::new();
            let mut cr = CommittedReadIndex::new();
            let mut cw_model = CompositeKeyOracle::default();
            let mut cr_model = CompositeKeyOracle::default();
            let probe = SeqNo::new(probe.0, probe.1);

            for (op, key, block, seq, txn) in ops {
                let key = Key::new(format!("k{key}"));
                let seq = SeqNo::new(block, seq);
                match op {
                    0..=4 => {
                        cw.record(key.clone(), seq, TxnId(txn));
                        cw_model.record(key.clone(), seq, TxnId(txn));
                        cr.record(key.clone(), seq, TxnId(txn + 100));
                        cr_model.record(key, seq, TxnId(txn + 100));
                    }
                    5 => prop_assert_eq!(
                        cr.drop_stale_readers(&key, seq),
                        cr_model.drop_stale_readers(&key, seq)
                    ),
                    6 => prop_assert_eq!(cw.prune_below(block), cw_model.prune_below(block)),
                    _ => prop_assert_eq!(cr.prune_below(block), cr_model.prune_below(block)),
                }

                prop_assert_eq!(cw.len(), cw_model.entries.len());
                prop_assert_eq!(cr.len(), cr_model.entries.len());
                prop_assert_eq!(cw.is_empty(), cw_model.entries.is_empty());
                prop_assert_eq!(cr.is_empty(), cr_model.entries.is_empty());
                for key in (0..KEYS).map(|i| Key::new(format!("k{i}"))) {
                    let cw_all = cw_model.from(&key, SeqNo::zero());
                    let cw_from = cw_model.from(&key, probe);
                    prop_assert_eq!(cw.before(&key, probe), cw_model.before(&key, probe));
                    prop_assert_eq!(cw.last(&key), cw_all.last().map(|&(_, txn)| txn));
                    prop_assert_eq!(cw.entries_from(&key, probe), cw_from.as_slice());
                    prop_assert_eq!(cw.from(&key, probe), txns(&cw_from));
                    prop_assert_eq!(cw.all(&key), cw_all);

                    let cr_all = cr_model.from(&key, SeqNo::zero());
                    prop_assert_eq!(cr.entries(&key), cr_all.as_slice());
                    prop_assert_eq!(cr.readers(&key), txns(&cr_all));
                    prop_assert_eq!(cr.readers_from(&key, probe), txns(&cr_model.from(&key, probe)));
                }
            }
        }
    }
}

//! Multi-versioned key-value store.
//!
//! The state of an EOV blockchain after each block is a versioned key-value store: every entry
//! is a `(key, ver, val)` tuple where `ver = (block, seq)` identifies the transaction that
//! last updated the key (Section 2.1, Figure 2a). Vanilla Fabric only materialises the latest
//! version; FabricSharp additionally needs to *read old block snapshots* during endorsement
//! (Algorithm 1 / Section 4.2), so this store retains the full version history per key and can
//! answer "what was the value of `key` as of the snapshot after block `b`?" directly.
//!
//! The paper implements this with LevelDB storage snapshots; an in-memory multi-version map
//! provides the same query surface (latest read, snapshot read, version history); the
//! README's "State store layout" section documents the substitution.
//!
//! # Layout
//!
//! Every Smallbank transaction touches the store 8–12 times, all of them point operations,
//! so the layout is built for the point operation (FastFabric, arXiv:1901.00910, made the
//! same move for Fabric's world state):
//!
//! * **Slab.** The version chains live in one append-only `Vec<(Key, Chain)>`. A chain's
//!   position is its id; ids are handed out in first-write order and, because a key is never
//!   deleted, never reused. A `Chain` holds a key's first version inline and moves to a heap
//!   vector with the second write, so a key written once costs no allocation of its own.
//! * **Index.** An [`IdIndex`] — an open-addressed, linearly probed table of 8-byte slots,
//!   shared with the orderer's key table — finds the id: each slot is the upper half of the
//!   64-bit hash of the key's bytes above the 32-bit id, and a slot's home position is the top
//!   bits of that half. A probe therefore compares hashes before it dereferences a key, and
//!   growing the table re-places its entries from the slots alone, without touching a string.
//!   The hash is [`eov_common::hash`]'s folded multiply, keyed per store from the process's
//!   random state (that module's header gives the keying argument), and slot positions never
//!   reach anything observable.
//!
//! `read_at`, `latest`, `history` and a `put` to an existing key are therefore one hash and
//! one probe, independent of how many keys the store holds, where an ordered map pays a
//! descent of string compares that deepens with it.
//!
//! Nothing ordered is read off the index. The ordered walk ([`MultiVersionStore::iter_history`])
//! collects from the slab — whose order is the deterministic first-write order, not a hash
//! order — and sorts **what it emits** by key;
//! the checkpoint writer, whose deltas emit a small part of a large store, takes
//! [`MultiVersionStore::chains_in_write_order`], filters first and sorts the rest. Equality is
//! content equality: two stores holding the same chains are equal whatever order their keys
//! were first written in (a recovered store is filled in checkpoint order, the live one in
//! commit order).
//!
//! Memory per key, beside the bytes of a key or value longer than 22: a 64-byte slab entry
//! (the 24-byte key with its bytes inline, and a 40-byte chain; ×1–2 while the slab's vector
//! has room to grow into) and 13–26 bytes of index (8-byte slots at a load between 5/16 and
//! 5/8). The ordered map spent 40 bytes of node space per entry at a node fill between one
//! half and full, and every chain began with a 160-byte heap vector of its own — which is
//! most of the 37 % `create_account_durable`'s peak RSS fell by.
//!
//! The index hashes and compares the key's bytes ([`Key::as_bytes`]), never its `&str`, which
//! an inline key can only build by checking its UTF-8 again.

use eov_common::error::{CommonError, Result};
use eov_common::hash::FoldState;
use eov_common::id_index::IdIndex;
use eov_common::rwset::{Key, Value};
use eov_common::txn::Transaction;
use eov_common::version::SeqNo;
use std::fmt;

/// A single version of a value: the commit slot that installed it plus the bytes themselves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VersionedValue {
    /// The commit slot `(block, seq)` of the transaction that wrote this version.
    pub version: SeqNo,
    /// The stored value.
    pub value: Value,
}

/// One key's versions, ascending and never empty.
#[derive(Clone)]
enum Chain {
    /// The only version the key has ever had, held in the slab entry itself.
    One(VersionedValue),
    /// Two or more versions (or what pruning left of them).
    Many(Vec<VersionedValue>),
}

impl Chain {
    fn as_slice(&self) -> &[VersionedValue] {
        match self {
            Chain::One(only) => std::slice::from_ref(only),
            Chain::Many(versions) => versions,
        }
    }

    fn newest(&self) -> &VersionedValue {
        match self {
            Chain::One(only) => only,
            Chain::Many(versions) => versions.last().expect("a chain is never empty"),
        }
    }

    fn push(&mut self, next: VersionedValue) {
        if let Chain::Many(versions) = self {
            versions.push(next);
            return;
        }
        let Chain::One(first) = std::mem::replace(self, Chain::Many(Vec::new())) else {
            unreachable!("not `Many`, so `One`");
        };
        *self = Chain::Many(vec![first, next]);
    }
}

/// A multi-versioned key-value store with per-block snapshot reads.
///
/// Writes are applied block by block (commits are totally ordered), so the per-key version
/// vectors are naturally sorted by version and snapshot reads are a binary search.
#[derive(Clone, Default)]
pub struct MultiVersionStore {
    /// Every key with its version chain, in first-write order (see the module header).
    chains: Vec<(Key, Chain)>,
    /// The hash index over `chains`.
    index: IdIndex,
    /// Key of the index's hash, shared by this store and its clones.
    hasher: FoldState,
    /// Bits tests clear from every hash to make unrelated keys share hashes; none otherwise.
    #[cfg(test)]
    hash_cleared: u64,
    /// Height of the last committed block (0 = only the genesis state exists).
    last_block: u64,
    /// Versions strictly below this block height may have been garbage collected; snapshot
    /// reads below it are refused.
    pruned_below: u64,
}

/// Content equality: same heights, same keys, same chains — whatever order the keys were
/// first written in and wherever the index placed them.
impl PartialEq for MultiVersionStore {
    fn eq(&self, other: &Self) -> bool {
        // Chains are never empty, so a key `other` lacks fails the history comparison.
        self.last_block == other.last_block
            && self.pruned_below == other.pruned_below
            && self.chains.len() == other.chains.len()
            && self
                .chains
                .iter()
                .all(|(key, chain)| other.history(key) == chain.as_slice())
    }
}

impl Eq for MultiVersionStore {}

/// Prints the content in key order (what two stores that compare unequal differ in), not the
/// layout.
impl fmt::Debug for MultiVersionStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Chains<'a>(&'a MultiVersionStore);
        impl fmt::Debug for Chains<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter_history()).finish()
            }
        }
        f.debug_struct("MultiVersionStore")
            .field("chains", &Chains(self))
            .field("last_block", &self.last_block)
            .field("pruned_below", &self.pruned_below)
            .finish()
    }
}

impl MultiVersionStore {
    /// Creates an empty store at height 0 (genesis).
    pub fn new() -> Self {
        Self::default()
    }

    /// A store whose key hashes are cut down to the bits of `mask`, so that unrelated keys
    /// share a hash (and, with few bits, a home slot): lookups must still tell them apart.
    #[cfg(test)]
    pub(crate) fn with_hash_mask(mask: u64) -> Self {
        MultiVersionStore {
            hash_cleared: !mask,
            ..Self::default()
        }
    }

    /// Seeds the genesis state (block 0). Each key receives version `(0, i+1)` in iteration
    /// order, mirroring how a bootstrap block would install them.
    pub fn seed_genesis(&mut self, entries: impl IntoIterator<Item = (Key, Value)>) {
        for (i, (key, value)) in entries.into_iter().enumerate() {
            self.put(&key, SeqNo::new(0, i as u32 + 1), value);
        }
    }

    /// Height of the last committed block.
    pub fn last_block(&self) -> u64 {
        self.last_block
    }

    /// Number of distinct keys ever written.
    pub fn key_count(&self) -> usize {
        self.chains.len()
    }

    /// Total number of retained versions across all keys (used by pruning tests).
    #[cfg(test)]
    pub(crate) fn version_count(&self) -> usize {
        self.chains
            .iter()
            .map(|(_, chain)| chain.as_slice().len())
            .sum()
    }

    fn hash_of(&self, key: &[u8]) -> u64 {
        let hash = self.hasher.hash_bytes(key);
        #[cfg(test)]
        let hash = hash & !self.hash_cleared;
        hash
    }

    /// Probes the index for `key`: the id of its chain, or the vacant slot a new entry for it
    /// belongs in.
    #[inline]
    fn probe(&self, key: &[u8], hash: u64) -> std::result::Result<usize, usize> {
        self.index
            .find(hash, |id| self.chains[id as usize].0.as_bytes() == key)
            .map(|id| id as usize)
    }

    /// The chain of `key`, if it was ever written.
    #[inline]
    fn chain(&self, key: &Key) -> Option<&Chain> {
        let key = key.as_bytes();
        let id = self.probe(key, self.hash_of(key)).ok()?;
        Some(&self.chains[id].1)
    }

    /// Installs a single versioned value. Versions must be installed in non-decreasing order
    /// per key; this is guaranteed by the block-at-a-time commit protocol.
    ///
    /// The store copies `key` only when it is new, straight from the caller's key into the
    /// slab entry: taking the 24-byte key by value made every call write it to the stack and
    /// read it back, which cost a fresh key's `put` about a third more.
    ///
    /// # Panics
    ///
    /// If `version` is older than the key's newest version: snapshot reads binary-search the
    /// chain, so an unsorted chain would answer them wrongly from then on.
    pub fn put(&mut self, key: &Key, version: SeqNo, value: Value) {
        self.put_with(key.as_bytes(), || key.clone(), version, value);
    }

    /// [`Self::put`] by the key's UTF-8 bytes: a [`Key`] is made (and the bytes checked) only
    /// when the key is new, so replaying writes read straight off disk neither allocates nor
    /// re-checks anything for a key already held.
    ///
    /// # Panics
    ///
    /// As [`Self::put`], and if the key is new and its bytes are not UTF-8.
    pub fn put_utf8(&mut self, key: &[u8], version: SeqNo, value: Value) {
        let new_key = || Key::from_utf8(key).expect("a key is UTF-8");
        self.put_with(key, new_key, version, value);
    }

    /// Installs `value` under the key whose bytes are `key`; `new_key` makes the [`Key`] a new
    /// slab entry keeps.
    fn put_with(
        &mut self,
        key: &[u8],
        new_key: impl FnOnce() -> Key,
        version: SeqNo,
        value: Value,
    ) {
        let hash = self.hash_of(key);
        let next = VersionedValue { version, value };
        match self.probe(key, hash) {
            Ok(id) => {
                let chain = &mut self.chains[id].1;
                assert!(
                    chain.newest().version <= version,
                    "versions must be installed in order"
                );
                chain.push(next);
            }
            Err(vacant) => {
                let id = u32::try_from(self.chains.len()).expect("chain ids fit in 32 bits");
                self.index.insert(vacant, hash, id);
                self.chains.push((new_key(), Chain::One(next)));
            }
        }
    }

    /// Applies the write sets of the committed transactions of block `block_no`, in order.
    /// The `committed` slice must already exclude aborted transactions. Advances the store's
    /// height to `block_no`.
    pub fn apply_block<'a>(
        &mut self,
        block_no: u64,
        committed: impl IntoIterator<Item = (&'a Transaction, u32)>,
    ) {
        for (txn, seq) in committed {
            let version = SeqNo::new(block_no, seq);
            for item in txn.write_set.iter() {
                self.put(&item.key, version, item.value.clone());
            }
        }
        self.last_block = self.last_block.max(block_no);
    }

    /// Marks a block as committed without any writes (e.g. a block whose transactions all
    /// aborted). The height still advances so later snapshots exist.
    pub fn commit_empty_block(&mut self, block_no: u64) {
        self.last_block = self.last_block.max(block_no);
    }

    /// The latest version of `key`, if any.
    pub fn latest(&self, key: &Key) -> Option<&VersionedValue> {
        self.chain(key).map(Chain::newest)
    }

    /// The latest value of `key`, if any (convenience wrapper over [`Self::latest`]).
    pub fn latest_value(&self, key: &Key) -> Option<&Value> {
        self.latest(key).map(|v| &v.value)
    }

    /// Reads `key` as of the snapshot after block `block`: the newest version whose block
    /// component is `<= block`. Returns an error if that snapshot has been pruned.
    ///
    /// The walk starts at the newest version: endorsement reads a snapshot a few blocks behind
    /// the tip, so the answer is at most those blocks' writes of the key away, where a binary
    /// search of a hot key's long chain takes a dependent cache miss per probe. Reads at any
    /// height binary-search in [`Self::value_as_of`].
    pub fn read_at(&self, key: &Key, block: u64) -> Result<Option<&VersionedValue>> {
        if block < self.pruned_below {
            return Err(CommonError::SnapshotPruned(block));
        }
        let bound = SeqNo::new(block, u32::MAX);
        Ok(self.history(key).iter().rev().find(|v| v.version <= bound))
    }

    /// Full version history of `key` (oldest first). Empty if the key was never written.
    pub fn history(&self, key: &Key) -> &[VersionedValue] {
        self.chain(key).map_or(&[], Chain::as_slice)
    }

    /// Garbage-collects versions that are no longer reachable from any snapshot at or above
    /// `block`: for each key, every version strictly older than the newest version visible at
    /// `block` is dropped. Snapshot reads below `block` are refused afterwards.
    pub fn prune_versions_below(&mut self, block: u64) {
        let bound = SeqNo::new(block, u32::MAX);
        for (_, chain) in &mut self.chains {
            // A single version is the newest visible one or not visible yet: it stays.
            if let Chain::Many(versions) = chain {
                let idx = versions.partition_point(|v| v.version <= bound);
                if idx > 1 {
                    versions.drain(..idx - 1);
                }
            }
        }
        self.pruned_below = self.pruned_below.max(block);
    }

    /// The lowest block height whose snapshot is still readable.
    pub fn pruned_below(&self) -> u64 {
        self.pruned_below
    }

    /// Every `(key, full version chain)` pair in the order the keys were first written —
    /// deterministic, but not key order. For walks that emit a small part of the store and
    /// sort that (a delta checkpoint); everything else wants `Self::iter_history`.
    pub fn chains_in_write_order(&self) -> impl Iterator<Item = (&Key, &[VersionedValue])> {
        self.chains
            .iter()
            .map(|(key, chain)| (key, chain.as_slice()))
    }

    /// Iterates over every `(key, full version chain)` pair in key order — the deterministic
    /// walk the durable checkpoint codec serializes.
    pub(crate) fn iter_history(&self) -> impl Iterator<Item = (&Key, &[VersionedValue])> {
        let mut chains: Vec<(&Key, &[VersionedValue])> = self.chains_in_write_order().collect();
        chains.sort_unstable_by(|a, b| a.0.cmp(b.0));
        chains.into_iter()
    }

    /// Restores the height and pruning horizon recorded in a checkpoint. Only meaningful
    /// right after rebuilding the version chains via [`Self::put`]; never regresses either
    /// counter, so a misordered call cannot un-prune anything.
    pub fn restore_heights(&mut self, last_block: u64, pruned_below: u64) {
        self.last_block = self.last_block.max(last_block);
        self.pruned_below = self.pruned_below.max(pruned_below);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::rwset::{ReadSet, WriteSet};
    use eov_common::txn::TxnId;

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    fn txn_writing(id: u64, snapshot: u64, writes: &[(&str, i64)]) -> Transaction {
        let mut ws = WriteSet::new();
        for (key, val) in writes {
            ws.record(k(key), Value::from_i64(*val));
        }
        Transaction::new(TxnId(id), snapshot, ReadSet::new(), ws)
    }

    /// Reproduces the state evolution of Figure 2a: after block 1 the keys A/B/C hold versions
    /// (1,1)/(1,2)/(1,3); block 2's first transaction rewrites B and C to version (2,1).
    #[test]
    fn figure2a_state_evolution() {
        let mut store = MultiVersionStore::new();
        store.put(&k("A"), SeqNo::new(1, 1), Value::from_i64(100));
        store.put(&k("B"), SeqNo::new(1, 2), Value::from_i64(101));
        store.put(&k("C"), SeqNo::new(1, 3), Value::from_i64(102));
        store.commit_empty_block(1);

        let t = txn_writing(1, 0, &[("B", 201), ("C", 201)]);
        store.apply_block(2, [(&t, 1)]);

        // State after block 2 (the paper's middle table).
        assert_eq!(store.latest(&k("A")).unwrap().version, SeqNo::new(1, 1));
        assert_eq!(store.latest(&k("B")).unwrap().version, SeqNo::new(2, 1));
        assert_eq!(store.latest(&k("C")).unwrap().version, SeqNo::new(2, 1));
        assert_eq!(store.latest_value(&k("C")).unwrap().as_i64(), Some(201));

        // Snapshot reads: as of block 1, C still holds 102 at version (1,3).
        let c1 = store.read_at(&k("C"), 1).unwrap().unwrap();
        assert_eq!(c1.version, SeqNo::new(1, 3));
        assert_eq!(c1.value.as_i64(), Some(102));
        // As of block 2 it holds the new value.
        let c2 = store.read_at(&k("C"), 2).unwrap().unwrap();
        assert_eq!(c2.value.as_i64(), Some(201));
        assert_eq!(store.last_block(), 2);
    }

    #[test]
    fn read_at_missing_key_or_future_key_is_none() {
        let mut store = MultiVersionStore::new();
        assert!(store.read_at(&k("X"), 5).unwrap().is_none());
        store.put(&k("X"), SeqNo::new(3, 1), Value::from_i64(1));
        // Before block 3 the key did not exist.
        assert!(store.read_at(&k("X"), 2).unwrap().is_none());
        assert!(store.read_at(&k("X"), 3).unwrap().is_some());
    }

    #[test]
    fn genesis_seed_assigns_block_zero_versions() {
        let mut store = MultiVersionStore::new();
        store.seed_genesis([(k("A"), Value::from_i64(5)), (k("B"), Value::from_i64(6))]);
        assert_eq!(store.latest(&k("A")).unwrap().version, SeqNo::new(0, 1));
        assert_eq!(store.latest(&k("B")).unwrap().version, SeqNo::new(0, 2));
        assert_eq!(store.key_count(), 2);
        assert_eq!(store.last_block(), 0);
    }

    #[test]
    fn apply_block_skips_nothing_and_orders_versions() {
        let mut store = MultiVersionStore::new();
        store.seed_genesis([(k("A"), Value::from_i64(0))]);
        let t1 = txn_writing(1, 0, &[("A", 10)]);
        let t2 = txn_writing(2, 0, &[("A", 20)]);
        store.apply_block(1, [(&t1, 1), (&t2, 2)]);
        let hist = store.history(&k("A"));
        assert_eq!(hist.len(), 3);
        assert_eq!(hist[2].version, SeqNo::new(1, 2));
        assert_eq!(store.latest_value(&k("A")).unwrap().as_i64(), Some(20));
        assert_eq!(store.version_count(), 3);
    }

    #[test]
    fn pruning_drops_old_versions_but_keeps_visible_ones() {
        let mut store = MultiVersionStore::new();
        store.seed_genesis([(k("A"), Value::from_i64(0))]);
        for b in 1..=5u64 {
            let t = txn_writing(b, b - 1, &[("A", b as i64)]);
            store.apply_block(b, [(&t, 1)]);
        }
        assert_eq!(store.history(&k("A")).len(), 6);
        store.prune_versions_below(3);
        // The newest version visible at block 3 (written in block 3) must survive, plus the
        // later ones.
        let hist = store.history(&k("A"));
        assert_eq!(hist.first().unwrap().version.block, 3);
        assert_eq!(hist.len(), 3);
        // Snapshot reads below the pruning horizon are refused.
        assert_eq!(
            store.read_at(&k("A"), 2),
            Err(CommonError::SnapshotPruned(2))
        );
        // Reads at or above the horizon still work.
        assert_eq!(
            store.read_at(&k("A"), 4).unwrap().unwrap().value.as_i64(),
            Some(4)
        );
        assert_eq!(store.pruned_below(), 3);
    }

    /// An out-of-order version would leave the chain unsorted under `read_at`'s binary search:
    /// refused in release builds too, not only where `debug_assert!` is compiled in.
    #[test]
    #[should_panic(expected = "versions must be installed in order")]
    fn put_refuses_a_version_older_than_the_chain_tail() {
        let mut store = MultiVersionStore::new();
        store.put(&k("A"), SeqNo::new(3, 1), Value::from_i64(1));
        store.put(&k("A"), SeqNo::new(2, 9), Value::from_i64(2));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Reference model: a naive map from (key, block) to the value as of that block, built by
    /// replaying writes in order.
    fn reference_read(
        writes: &[(u8, u64, i64)], // (key id, block, value), sorted by block
        key: u8,
        block: u64,
    ) -> Option<i64> {
        writes
            .iter()
            .rfind(|(k, b, _)| *k == key && *b <= block)
            .map(|(_, _, v)| *v)
    }

    proptest! {
        /// Snapshot reads from the multi-version store always agree with a naive replay.
        #[test]
        fn snapshot_reads_match_reference(
            raw_writes in proptest::collection::vec((0u8..6, 1u64..12, -100i64..100), 0..60),
            queries in proptest::collection::vec((0u8..6, 0u64..12), 1..30),
        ) {
            // Sort by block so versions are installed in order, and give each write within a
            // block a distinct sequence slot.
            let mut writes = raw_writes;
            writes.sort_by_key(|(_, b, _)| *b);

            let mut store = MultiVersionStore::new();
            let mut seq_in_block: HashMap<u64, u32> = HashMap::new();
            for (key, block, val) in &writes {
                let seq = seq_in_block.entry(*block).or_insert(0);
                *seq += 1;
                store.put(&Key::new(format!("k{key}")), SeqNo::new(*block, *seq), Value::from_i64(*val));
            }

            for (key, block) in queries {
                let got = store
                    .read_at(&Key::new(format!("k{key}")), block)
                    .unwrap()
                    .map(|v| v.value.as_i64().unwrap());
                let expected = reference_read(&writes, key, block);
                prop_assert_eq!(got, expected);
            }
        }

        /// Pruning never changes the result of reads at or above the pruning horizon.
        #[test]
        fn pruning_preserves_visible_reads(
            raw_writes in proptest::collection::vec((0u8..4, 1u64..10, -50i64..50), 1..40),
            horizon in 0u64..10,
        ) {
            let mut writes = raw_writes;
            writes.sort_by_key(|(_, b, _)| *b);
            let mut store = MultiVersionStore::new();
            let mut seq_in_block: HashMap<u64, u32> = HashMap::new();
            for (key, block, val) in &writes {
                let seq = seq_in_block.entry(*block).or_insert(0);
                *seq += 1;
                store.put(&Key::new(format!("k{key}")), SeqNo::new(*block, *seq), Value::from_i64(*val));
            }

            let before: Vec<Option<i64>> = (0u8..4)
                .flat_map(|k| (horizon..10).map(move |b| (k, b)))
                .map(|(k, b)| {
                    store
                        .read_at(&Key::new(format!("k{k}")), b)
                        .unwrap()
                        .map(|v| v.value.as_i64().unwrap())
                })
                .collect();

            store.prune_versions_below(horizon);

            let after: Vec<Option<i64>> = (0u8..4)
                .flat_map(|k| (horizon..10).map(move |b| (k, b)))
                .map(|(k, b)| {
                    store
                        .read_at(&Key::new(format!("k{k}")), b)
                        .unwrap()
                        .map(|v| v.value.as_i64().unwrap())
                })
                .collect();

            prop_assert_eq!(before, after);
        }
    }
}

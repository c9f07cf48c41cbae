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
//! * **Slab.** Every key lives in one append-only `Vec<(Key, Version)>` together with its
//!   newest version. An entry's position is its id; ids are handed out in first-write order
//!   and, because a key is never deleted, never reused.
//! * **Log.** A write to a key already held moves the old newest version to the tail of one
//!   log of fixed-size pages (4 096 versions each) and writes the new one in its place. Every
//!   version carries a `link`: 1 + the log position of the version it superseded, 0 for none.
//!   Positions count modulo 2³², so a store may supersede any number of versions over its
//!   life as long as fewer than 2³² − 1 are held at once. A key's history is the walk from
//!   its slab entry down the links, newest first. The log holds versions in the order they
//!   were superseded, and each page records the newest block that superseded one of them (a
//!   store loaded from a checkpoint fills it key by key, not in block order).
//! * **Index.** An [`IdIndex`] — an open-addressed, linearly probed table of 8-byte slots,
//!   shared with the orderer's key table — finds the id: each slot is the upper half of the
//!   64-bit hash of the key's bytes above the 32-bit id, and a slot's home position is the top
//!   bits of that half. A probe therefore compares hashes before it dereferences a key, and
//!   growing the table re-places its entries from the slots alone, without touching a string.
//!   The hash is [`eov_common::hash`]'s folded multiply, keyed per store from the process's
//!   random state (that module's header gives the keying argument), and slot positions never
//!   reach anything observable.
//!
//! `latest`, a `put` to an existing key and a `read_at` whose snapshot sees the newest version
//! (nine endorsement reads in ten on Smallbank) are therefore one hash, one probe and the slab
//! entry, independent of how many keys the store holds. An older snapshot walks one link per
//! newer write of the key.
//!
//! Pruning below a horizon `h` makes every version superseded in a block `<= h` unreachable: a
//! walk does not follow the link of a version written at or below `h`. Leading log pages whose
//! every version was superseded at or below `h` are freed, so a prune costs O(pages), not
//! O(keys).
//!
//! Nothing ordered is read off the index. The ordered walk ([`MultiVersionStore::iter_history`])
//! collects from the slab — whose order is the deterministic first-write order, not a hash
//! order — and sorts **what it emits** by key;
//! the checkpoint writer, whose deltas emit a small part of a large store, takes
//! [`MultiVersionStore::chains_in_write_order`], filters first and sorts the rest. Equality is
//! content equality: two stores holding the same histories are equal whatever order their keys
//! were first written in (a recovered store is filled in checkpoint order, the live one in
//! commit order) and wherever their log placed the versions.
//!
//! Memory, beside the bytes of a key longer than 22 or a value longer than 14: 56 bytes of
//! slab per key (the 24-byte key with its bytes inline, and its 32-byte newest version, whose
//! 16-byte value holds a balance inline; ×1–2 while the slab's vector has room to grow into),
//! 9–18 bytes of index per key (8-byte slots at a load between 7/16 and 7/8), and 32 bytes
//! of log per superseded version, with at most one page (128 KiB) allocated ahead. No key
//! owns an allocation of its own: the per-key version vectors this replaced held 54.1 MB of
//! capacity for 35.6 MB of versions on `fabric_mvcc_smallbank`. A store loaded from a checkpoint
//! is allocated for the key count the checkpoint records ([`MultiVersionStore::with_capacity`]),
//! so its index never holds an old and a new table at once during the load.
//!
//! The index hashes the key's bytes ([`Key::as_bytes`]), never its `&str`, which an inline key
//! can only build by checking its UTF-8 again, and compares whole keys where it holds one.

use eov_common::error::{CommonError, Result};
use eov_common::hash::FoldState;
use eov_common::id_index::IdIndex;
use eov_common::rwset::{Key, Value};
use eov_common::txn::Transaction;
use eov_common::version::SeqNo;
use std::fmt;

/// One version of a key as a read returns it: the commit slot that installed it, and the
/// value, borrowed from the store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VersionRef<'a> {
    /// The commit slot `(block, seq)` of the transaction that wrote this version.
    pub version: SeqNo,
    /// The stored value.
    pub value: &'a Value,
}

/// One version as the store holds it: a key's newest version in its slab entry, every
/// superseded one in the log.
#[derive(Clone)]
struct Version {
    block: u64,
    seq: u32,
    /// 1 + the log position of the version this one superseded; 0 when there is none.
    link: u32,
    value: Value,
}

const _: () = assert!(std::mem::size_of::<Version>() == 32);
const _: () = assert!(std::mem::size_of::<(Key, Version)>() == 56);
const _: () = assert!(std::mem::size_of::<Value>() == 16);

impl Version {
    fn slot(&self) -> SeqNo {
        SeqNo::new(self.block, self.seq)
    }

    fn as_ref(&self) -> VersionRef<'_> {
        VersionRef {
            version: self.slot(),
            value: &self.value,
        }
    }
}

/// log2 of the versions per log page: 4 096 versions, 128 KiB.
const PAGE_BITS: u32 = 12;

/// Superseded versions in the order they were superseded: a page of the log.
struct Page {
    versions: Vec<Version>,
    /// The newest block in which one of `versions` was superseded.
    superseded_by: u64,
}

/// Keeps a clone's capacity at a whole page, so the log's tail page does not regrow.
impl Clone for Page {
    fn clone(&self) -> Self {
        let mut versions = Vec::with_capacity(self.versions.capacity());
        versions.extend_from_slice(&self.versions);
        Page {
            versions,
            superseded_by: self.superseded_by,
        }
    }
}

/// Every superseded version the store has not freed, in pages of `1 << page_bits`.
///
/// Log positions count modulo 2³², so only the live log (fewer than 2³² − 1 versions) is
/// bounded, not how many versions the store supersedes over its life. A link is 1 + a
/// position, wrapping; the one position in 2³² whose link would be 0 ("none") holds a filler
/// that no link names.
#[derive(Clone)]
struct Log {
    pages: Vec<Page>,
    /// Log position of the first version of `pages[0]`: the pages before it were freed.
    first: u32,
    /// [`PAGE_BITS`], or fewer in tests so that short histories span pages.
    page_bits: u32,
}

impl Default for Log {
    fn default() -> Self {
        Log {
            pages: Vec::new(),
            first: 0,
            page_bits: PAGE_BITS,
        }
    }
}

impl Log {
    fn page_len(&self) -> usize {
        1 << self.page_bits
    }

    /// Appends `version`, superseded by a write in block `by`, and returns its link.
    fn push(&mut self, version: Version, by: u64) -> u32 {
        let mut link = self.next_link();
        if link == 0 {
            let filler = Version {
                block: 0,
                seq: 0,
                link: 0,
                value: Value::default(),
            };
            self.append(filler, 0);
            link = self.next_link();
        }
        self.append(version, by);
        link
    }

    /// The link of the next version appended: 1 + its position, modulo 2³².
    fn next_link(&self) -> u32 {
        let held = self.pages.last().map_or(0, |tail| {
            ((self.pages.len() - 1) << self.page_bits) + tail.versions.len()
        });
        let held = u32::try_from(held)
            .ok()
            .filter(|&held| held < u32::MAX)
            .expect("the live log holds fewer than 2^32 - 1 versions");
        self.first.wrapping_add(held).wrapping_add(1)
    }

    /// Puts `version` at the tail, opening a page when the last one is full.
    fn append(&mut self, version: Version, by: u64) {
        let page_len = self.page_len();
        if self
            .pages
            .last()
            .is_none_or(|page| page.versions.len() == page_len)
        {
            self.pages.push(Page {
                versions: Vec::with_capacity(page_len),
                superseded_by: 0,
            });
        }
        let page = self.pages.last_mut().expect("a page was just ensured");
        page.versions.push(version);
        page.superseded_by = page.superseded_by.max(by);
    }

    /// The version `link` names.
    #[inline]
    fn get(&self, link: u32) -> &Version {
        let at = link.wrapping_sub(1).wrapping_sub(self.first) as usize;
        &self.pages[at >> self.page_bits].versions[at & (self.page_len() - 1)]
    }

    /// Frees the leading full pages whose every version was superseded below block `live_from`.
    fn free_below(&mut self, live_from: u64) {
        let page_len = self.page_len();
        let dead = self
            .pages
            .iter()
            .take_while(|page| page.versions.len() == page_len && page.superseded_by < live_from)
            .count();
        self.pages.drain(..dead);
        let freed = u32::try_from(dead << self.page_bits)
            .expect("the live log holds fewer than 2^32 - 1 versions");
        self.first = self.first.wrapping_add(freed);
    }
}

/// A key's versions, newest first, down to the pruning horizon.
#[derive(Clone)]
struct Walk<'a> {
    store: &'a MultiVersionStore,
    next: Option<&'a Version>,
}

impl<'a> Iterator for Walk<'a> {
    type Item = VersionRef<'a>;

    fn next(&mut self) -> Option<VersionRef<'a>> {
        let version = self.next?;
        self.next = self.store.predecessor(version);
        Some(version.as_ref())
    }
}

/// A multi-versioned key-value store with per-block snapshot reads.
///
/// Writes are applied block by block (commits are totally ordered), so each key's versions
/// arrive in version order, and a snapshot read walks back from the newest one.
#[derive(Clone, Default)]
pub struct MultiVersionStore {
    /// Every key with its newest version, in first-write order (see the module header).
    entries: Vec<(Key, Version)>,
    /// Every superseded version whose page is not freed, pruned ones among them.
    log: Log,
    /// The hash index over `entries`.
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
    /// 1 + the highest horizon pruned at (0 before the first prune): a version superseded in
    /// a block below this is pruned, so a walk does not follow the link of a version written
    /// below it.
    live_from: u64,
}

/// Content equality: same heights, same keys, same histories — whatever order the keys were
/// first written in and wherever the index and the log placed them.
impl PartialEq for MultiVersionStore {
    fn eq(&self, other: &Self) -> bool {
        // A history is never empty, so a key `other` lacks fails the comparison.
        self.last_block == other.last_block
            && self.pruned_below == other.pruned_below
            && self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .all(|(key, newest)| self.walk(newest).eq(other.history(key)))
    }
}

impl Eq for MultiVersionStore {}

/// Prints the content in key order, each history newest first (what two stores that compare
/// unequal differ in), not the layout.
impl fmt::Debug for MultiVersionStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Histories<'a>(&'a MultiVersionStore);
        impl fmt::Debug for Histories<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map()
                    .entries(
                        self.0
                            .iter_history()
                            .map(|(key, walk)| (key, walk.collect::<Vec<_>>())),
                    )
                    .finish()
            }
        }
        f.debug_struct("MultiVersionStore")
            .field("histories", &Histories(self))
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

    /// An empty store sized for `keys` keys: its slab and its index are allocated once, and
    /// filling it with that many keys grows neither. How a recovered store is built from a
    /// checkpoint that records its key count.
    pub fn with_capacity(keys: usize) -> Self {
        MultiVersionStore {
            entries: Vec::with_capacity(keys),
            index: IdIndex::with_capacity(keys),
            ..Self::default()
        }
    }

    /// A store whose key hashes are cut down to the bits of `mask`, so that unrelated keys
    /// share a hash (and, with few bits, a home slot): lookups must still tell them apart. Its
    /// log pages hold `1 << page_bits` versions, so that short histories span pages, and its
    /// first superseded version takes log position `first`, so that a short history can cross
    /// the positions' wrap at 2³².
    #[cfg(test)]
    pub(crate) fn with_test_layout(mask: u64, page_bits: u32, first: u32) -> Self {
        let mut store = MultiVersionStore {
            hash_cleared: !mask,
            ..Self::default()
        };
        store.log.page_bits = page_bits;
        store.log.first = first;
        store
    }

    /// Log pages held, freed ones not counted.
    #[cfg(test)]
    pub(crate) fn log_pages(&self) -> usize {
        self.log.pages.len()
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
        self.entries.len()
    }

    /// Total number of retained versions across all keys (used by pruning tests).
    #[cfg(test)]
    pub(crate) fn version_count(&self) -> usize {
        self.entries
            .iter()
            .map(|(_, newest)| self.walk(newest).count())
            .sum()
    }

    fn hash_of(&self, key: &[u8]) -> u64 {
        let hash = self.hasher.hash_bytes(key);
        #[cfg(test)]
        let hash = hash & !self.hash_cleared;
        hash
    }

    /// Probes the index for the key `is_key` picks out, whose bytes hash to `hash`: the id of
    /// its entry, or the vacant slot a new entry for it belongs in.
    ///
    /// A caller holding a [`Key`] picks it out with `==`, which compares an inline key's
    /// fixed-size array in place. Comparing `as_bytes` slices calls `memcmp`, whose 32-byte
    /// loads straddle a cache line for half of the 56-byte slab entries: a hot `latest` read
    /// of such a key took 10–15 % longer.
    #[inline]
    fn probe(&self, hash: u64, is_key: impl Fn(&Key) -> bool) -> std::result::Result<usize, usize> {
        self.index
            .find(hash, |id| is_key(&self.entries[id as usize].0))
            .map(|id| id as usize)
    }

    /// The newest version of `key`, if it was ever written.
    #[inline]
    fn newest(&self, key: &Key) -> Option<&Version> {
        let id = self
            .probe(self.hash_of(key.as_bytes()), |held| held == key)
            .ok()?;
        Some(&self.entries[id].1)
    }

    /// The version `version` superseded, unless there is none or it is pruned.
    #[inline]
    fn predecessor(&self, version: &Version) -> Option<&Version> {
        (version.link != 0 && version.block >= self.live_from).then(|| self.log.get(version.link))
    }

    /// The history that starts at `newest`, newest first.
    fn walk<'a>(&'a self, newest: &'a Version) -> Walk<'a> {
        Walk {
            store: self,
            next: Some(newest),
        }
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
    /// If `version` is older than the key's newest version: snapshot reads walk a key's
    /// versions newest first, so an unsorted history would answer them wrongly from then on.
    pub fn put(&mut self, key: &Key, version: SeqNo, value: Value) {
        let hash = self.hash_of(key.as_bytes());
        self.put_with(hash, |held| held == key, || key.clone(), version, value);
    }

    /// [`Self::put`] by the key's UTF-8 bytes: a [`Key`] is made (and the bytes checked) only
    /// when the key is new, so replaying writes read straight off disk neither allocates nor
    /// re-checks anything for a key already held.
    ///
    /// # Panics
    ///
    /// As [`Self::put`], and if the key is new and its bytes are not UTF-8.
    pub fn put_utf8(&mut self, key: &[u8], version: SeqNo, value: Value) {
        let hash = self.hash_of(key);
        let new_key = || Key::from_utf8(key).expect("a key is UTF-8");
        self.put_with(hash, |held| held.as_bytes() == key, new_key, version, value);
    }

    /// Installs `value` under the key [`Self::probe`] finds with `hash` and `is_key`;
    /// `new_key` makes the [`Key`] a new slab entry keeps.
    fn put_with(
        &mut self,
        hash: u64,
        is_key: impl Fn(&Key) -> bool,
        new_key: impl FnOnce() -> Key,
        version: SeqNo,
        value: Value,
    ) {
        let next = Version {
            block: version.block,
            seq: version.seq,
            link: 0,
            value,
        };
        match self.probe(hash, is_key) {
            Ok(id) => {
                let newest = &mut self.entries[id].1;
                assert!(
                    newest.slot() <= version,
                    "versions must be installed in order"
                );
                let superseded = std::mem::replace(newest, next);
                newest.link = self.log.push(superseded, version.block);
            }
            Err(vacant) => {
                let id = u32::try_from(self.entries.len()).expect("key ids fit in 32 bits");
                self.index.insert(vacant, hash, id);
                self.entries.push((new_key(), next));
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
    pub fn latest(&self, key: &Key) -> Option<VersionRef<'_>> {
        self.newest(key).map(Version::as_ref)
    }

    /// The latest value of `key`, if any (convenience wrapper over [`Self::latest`]).
    pub fn latest_value(&self, key: &Key) -> Option<&Value> {
        self.newest(key).map(|newest| &newest.value)
    }

    /// Reads `key` as of the snapshot after block `block`: the newest version whose block
    /// component is `<= block`. Returns an error if that snapshot has been pruned.
    ///
    /// The newest version is in the key's slab entry; an older snapshot walks back one link
    /// per newer write of the key. Endorsement reads a snapshot a few blocks behind the tip,
    /// so the answer is at most those blocks' writes of the key away.
    pub fn read_at(&self, key: &Key, block: u64) -> Result<Option<VersionRef<'_>>> {
        if block < self.pruned_below {
            return Err(CommonError::SnapshotPruned(block));
        }
        let mut at = self.newest(key);
        while let Some(version) = at {
            if version.block <= block {
                return Ok(Some(version.as_ref()));
            }
            at = self.predecessor(version);
        }
        Ok(None)
    }

    /// Every retained version of `key`, newest first. Empty if the key was never written.
    pub fn history(&self, key: &Key) -> impl Iterator<Item = VersionRef<'_>> + Clone {
        Walk {
            store: self,
            next: self.newest(key),
        }
    }

    /// Garbage-collects versions that are no longer reachable from any snapshot at or above
    /// `block`: every version superseded in a block `<= block` is dropped, so each key keeps
    /// the newest version visible at `block` and everything newer. A later write in a block
    /// `<= block` (a prune that ran ahead of the store's height) drops what it supersedes at
    /// once. Snapshot reads below `block` are refused afterwards.
    ///
    /// Frees the leading log pages that hold only dropped versions: O(pages), not O(keys).
    pub fn prune_versions_below(&mut self, block: u64) {
        self.live_from = self.live_from.max(block.saturating_add(1));
        self.log.free_below(self.live_from);
        self.pruned_below = self.pruned_below.max(block);
    }

    /// The lowest block height whose snapshot is still readable.
    pub fn pruned_below(&self) -> u64 {
        self.pruned_below
    }

    /// Every key written in a block above `base` (every key for `None`) with its history
    /// newest first, in the order the keys were first written — deterministic, but not key
    /// order. For walks that emit a small part of the store and sort that (a delta
    /// checkpoint): a key with nothing above `base` costs one compare on its slab entry.
    pub fn chains_in_write_order(
        &self,
        base: Option<u64>,
    ) -> impl Iterator<Item = (&Key, impl Iterator<Item = VersionRef<'_>> + Clone)> {
        self.entries
            .iter()
            .filter(move |(_, newest)| base.is_none_or(|h| newest.block > h))
            .map(|(key, newest)| (key, self.walk(newest)))
    }

    /// Iterates over every key with its history (newest first) in key order.
    pub(crate) fn iter_history(
        &self,
    ) -> impl Iterator<Item = (&Key, impl Iterator<Item = VersionRef<'_>> + Clone)> {
        let mut entries: Vec<&(Key, Version)> = self.entries.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        entries
            .into_iter()
            .map(|(key, newest)| (key, self.walk(newest)))
    }

    /// Restores the height and pruning horizon recorded in a checkpoint. Only meaningful
    /// right after rebuilding the histories via [`Self::put`]; never regresses either
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

    /// A sized store keeps its one slab allocation while it fills, and holds what a store grown
    /// key by key holds.
    #[test]
    fn a_store_sized_for_its_keys_fills_without_regrowing() {
        let keys: Vec<Key> = (0..1000).map(|i| k(&format!("acct:{i}"))).collect();
        let mut sized = MultiVersionStore::with_capacity(keys.len());
        let mut grown = MultiVersionStore::new();
        let capacity = sized.entries.capacity();
        for (i, key) in keys.iter().enumerate() {
            sized.put(key, SeqNo::new(0, i as u32 + 1), Value::from_i64(i as i64));
            grown.put(key, SeqNo::new(0, i as u32 + 1), Value::from_i64(i as i64));
        }
        assert_eq!(sized.entries.capacity(), capacity);
        assert_eq!(sized, grown);
        assert!(keys
            .iter()
            .all(|key| sized.latest(key) == grown.latest(key)));
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
        let hist: Vec<_> = store.history(&k("A")).collect();
        assert_eq!(hist.len(), 3);
        assert_eq!(hist[0].version, SeqNo::new(1, 2));
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
        assert_eq!(store.history(&k("A")).count(), 6);
        store.prune_versions_below(3);
        // The newest version visible at block 3 (written in block 3) must survive, plus the
        // later ones.
        let hist: Vec<_> = store.history(&k("A")).collect();
        assert_eq!(hist.last().unwrap().version.block, 3);
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

    /// One key written in 10 000 blocks: its history spans three log pages, and a read at
    /// any height walks back across page boundaries to the version of that block. Pruning
    /// frees the first two pages (every version in them was superseded below the horizon);
    /// the version visible at the horizon stays, its link into the freed pages unfollowed.
    #[test]
    fn a_history_spans_log_pages_and_a_prune_frees_the_dead_ones() {
        let mut store = MultiVersionStore::new();
        for b in 1..=10_000u64 {
            store.put(&k("hot"), SeqNo::new(b, 1), Value::from_i64(b as i64));
            store.put(&k("cold"), SeqNo::new(b, 2), Value::from_i64(-(b as i64)));
            store.commit_empty_block(b);
        }
        assert_eq!(store.log_pages(), 5);
        for b in [1, 2, 4095, 4096, 4097, 8191, 8192, 8193, 9_999, 10_000] {
            let read = store.read_at(&k("hot"), b).unwrap().unwrap();
            assert_eq!(
                (read.version.block, read.value.as_i64()),
                (b, Some(b as i64))
            );
        }
        store.prune_versions_below(8_200);
        assert_eq!(store.log_pages(), 1);
        let kept: Vec<u64> = store.history(&k("hot")).map(|v| v.version.block).collect();
        assert_eq!(kept, (8_200..=10_000).rev().collect::<Vec<_>>());
        assert_eq!(
            store
                .read_at(&k("cold"), 8_200)
                .unwrap()
                .unwrap()
                .version
                .block,
            8_200
        );
        assert_eq!(store.version_count(), 2 * 1_801);
    }

    /// A page is freed only when every version in it was superseded at or below the horizon,
    /// whatever order the versions entered it in (a checkpoint load appends key by key): one
    /// version superseded just above the horizon keeps its page.
    #[test]
    fn a_page_holding_a_live_version_is_not_freed() {
        let mut store = MultiVersionStore::with_test_layout(u64::MAX, 1, 0);
        // Log: [A1 (superseded in 4), B1 (in 2)], [B2 (in 3), B3 (in 4)].
        store.put(&k("A"), SeqNo::new(1, 1), Value::from_i64(1));
        store.put(&k("A"), SeqNo::new(4, 1), Value::from_i64(4));
        for b in 1..=4u64 {
            store.put(&k("B"), SeqNo::new(b, 2), Value::from_i64(b as i64));
        }
        store.commit_empty_block(4);
        store.prune_versions_below(3);
        assert_eq!(store.log_pages(), 2);
        let a = store.read_at(&k("A"), 3).unwrap().unwrap();
        assert_eq!((a.version.block, a.value.as_i64()), (1, Some(1)));
        store.prune_versions_below(4);
        assert_eq!(store.log_pages(), 0);
        assert_eq!(store.history(&k("A")).count(), 1);
        assert_eq!(store.history(&k("B")).count(), 1);
    }

    /// Log positions wrap at 2³² instead of running out. Two-version pages, the first
    /// position five below the wrap: a history written across it reads back at every height,
    /// the filler at the position whose link would be 0 is never walked, and prunes free pages
    /// on both sides of the wrap.
    #[test]
    fn log_positions_wrap_past_2_pow_32() {
        let mut store = MultiVersionStore::with_test_layout(u64::MAX, 1, u32::MAX - 4);
        for b in 1..=24u64 {
            store.put(&k("hot"), SeqNo::new(b, 1), Value::from_i64(b as i64));
            store.commit_empty_block(b);
            if matches!(b, 12 | 20) {
                store.prune_versions_below(b - 6);
            }
            let lowest = store.pruned_below().max(1);
            for r in lowest..=b {
                let read = store.read_at(&k("hot"), r).unwrap().unwrap();
                assert_eq!(
                    (read.version.block, read.value.as_i64()),
                    (r, Some(r as i64))
                );
            }
            let walked: Vec<u64> = store.history(&k("hot")).map(|v| v.version.block).collect();
            assert_eq!(walked, (lowest..=b).rev().collect::<Vec<_>>());
        }
        // 23 superseded versions and the filler in twelve pages; the prune below 14 freed the
        // seven that hold the filler and blocks 1..=13.
        assert_eq!(store.pruned_below(), 14);
        assert_eq!(store.log_pages(), 5);
    }

    /// Values past the 14-byte inline limit sit boxed in the slab and the log beside inline
    /// ones: a history of 14-, 15- and 200-byte values reads back at every height, walks
    /// newest first, survives a clone and a prune, and frees with its pages.
    #[test]
    fn a_history_of_long_values_reads_walks_and_prunes() {
        let value = |b: u64| Value::from_bytes(vec![b as u8; [14, 15, 200][b as usize % 3]]);
        let mut store = MultiVersionStore::with_test_layout(u64::MAX, 2, 0);
        for b in 1..=12u64 {
            store.put(&k("long"), SeqNo::new(b, 1), value(b));
            store.put(&k("short"), SeqNo::new(b, 2), Value::from_i64(b as i64));
            store.commit_empty_block(b);
        }
        for b in 1..=12u64 {
            let read = store.read_at(&k("long"), b).unwrap().unwrap();
            assert_eq!((read.version.block, read.value), (b, &value(b)));
        }
        let history = |store: &MultiVersionStore| -> Vec<Value> {
            store.history(&k("long")).map(|v| v.value.clone()).collect()
        };
        assert_eq!(
            history(&store),
            (1..=12).rev().map(value).collect::<Vec<_>>()
        );
        let copy = store.clone();
        store.prune_versions_below(9);
        assert_eq!(
            history(&store),
            (9..=12).rev().map(value).collect::<Vec<_>>()
        );
        assert_eq!(
            store.read_at(&k("long"), 8),
            Err(CommonError::SnapshotPruned(8))
        );
        // 22 superseded versions in four-version pages; those of blocks 1..=8 filled four.
        assert_eq!(store.log_pages(), 2);
        assert_eq!(
            history(&copy),
            (1..=12).rev().map(value).collect::<Vec<_>>()
        );
    }

    /// An out-of-order version would leave the history unsorted under `read_at`'s walk:
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

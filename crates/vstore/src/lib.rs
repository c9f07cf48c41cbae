//! # eov-vstore
//!
//! The versioned state substrate of the EOV blockchain:
//!
//! * [`mvstore::MultiVersionStore`] — the peers' state database. Every entry is a
//!   `(key, version, value)` tuple whose version is the `(block, seq)` slot of the transaction
//!   that installed it (Figure 2a of the paper). The store keeps *all* versions so that any
//!   block snapshot can be read back, which is exactly the storage-snapshot mechanism
//!   Algorithm 1 relies on (Section 4.2): each key's newest version in its slab entry, every
//!   superseded one in a single log of fixed-size pages, linked newest to oldest. Reads
//!   answer with a [`VersionRef`], the slot and a borrowed value.
//! * [`SnapshotManager`] — a name only: the endorser reads the snapshot height from
//!   [`MultiVersionStore::last_block`], and the name goes with ROADMAP item 4.
//! * `timetravel` — the reenactment query surface over the retained history:
//!   [`MultiVersionStore::read_at`] answers "value of `key` as of block `h`", with the commit
//!   slot behind it, and [`MultiVersionStore::history_range`] gives block-range histories.
//!
//! There is one store, owned by the thread that drives it: the
//! paper's single global multi-version store (Sections 4.2–4.4), with no key-space
//! partitioning and no lock around it.

mod mvstore;
#[cfg(test)]
mod mvstore_model;
mod timetravel;

pub use mvstore::{MultiVersionStore, VersionRef};

/// The name the state store had while it could be sharded. Kept, with
/// [`MultiVersionStore::for_shards`], only for `perf/src/driver.rs`; both go once the
/// benchmark names `MultiVersionStore::new()` (ROADMAP).
pub type StoreBackend = MultiVersionStore;

/// A name with no methods and no implementor, kept only because `perf/src/driver.rs` imports
/// it; it goes with [`StoreBackend`] once the benchmark stops naming it (ROADMAP).
pub trait StateRead {}

/// A name with no methods and no implementor, kept only because `perf/src/driver.rs` imports
/// it; it goes with [`StoreBackend`] once the benchmark stops naming it (ROADMAP).
pub trait StateStore {}

/// A name with nothing behind it, kept only because `perf/src/driver.rs` names it; it goes with
/// [`StoreBackend`] (ROADMAP item 4). The endorser reads the snapshot height from
/// [`MultiVersionStore::last_block`], so [`SnapshotManager::register_block`] does nothing.
#[derive(Clone, Debug, Default)]
pub struct SnapshotManager;

impl SnapshotManager {
    /// The empty handle.
    pub fn new() -> Self {
        SnapshotManager
    }

    /// Does nothing: the store's own height is the snapshot height.
    pub fn register_block(&self, _block: u64) {}
}

impl MultiVersionStore {
    /// `MultiVersionStore::new()` under its old constructor name; `shards` must be 0.
    pub fn for_shards(shards: usize) -> Self {
        assert_eq!(shards, 0, "the state store is never sharded");
        MultiVersionStore::new()
    }
}

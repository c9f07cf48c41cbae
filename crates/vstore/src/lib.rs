//! # eov-vstore
//!
//! The versioned state substrate of the EOV blockchain:
//!
//! * [`mvstore::MultiVersionStore`] — the peers' state database. Every entry is a
//!   `(key, version, value)` tuple whose version is the `(block, seq)` slot of the transaction
//!   that installed it (Figure 2a of the paper). The store keeps *all* versions so that any
//!   block snapshot can be read back, which is exactly the storage-snapshot mechanism
//!   Algorithm 1 relies on (Section 4.2).
//! * [`snapshot`] — [`SnapshotManager`], the latest committed height the endorsers read.
//! * `index` — the orderer-side committed-transaction indices `CommittedWriteTxns` (CW) and
//!   `CommittedReadTxns` (CR) of Section 4.3. The paper stores these in LevelDB; here they are
//!   in-memory key-major maps (record key → its entries in commit order) exposing the same
//!   query surface (`Before`, `Last`, range-from) at a cost that scales with the keys named.
//! * [`pending`] — the in-memory `PendingWriteTxns` (PW) / `PendingReadTxns` (PR) indices over
//!   the not-yet-ordered transactions.
//! * [`DependencyIndices`] — the four indices above in one plain struct: what the orderer
//!   resolves an arriving transaction against.
//! * `timetravel` — the reenactment query surface over the retained history, as
//!   `MultiVersionStore` methods: [`MultiVersionStore::value_as_of`] ("value of `key` as of
//!   block `h`", with the commit slot behind it) and [`MultiVersionStore::history_range`]
//!   (block-range histories).
//!
//! There is one store and one set of indices, owned by the thread that drives them: the
//! paper's single global multi-version store (Sections 4.2–4.4), with no key-space
//! partitioning and no lock around it.

#![forbid(unsafe_code)]

mod index;
mod mvstore;
#[cfg(test)]
mod mvstore_model;
pub mod pending;
pub mod snapshot;
mod timetravel;

pub use index::{CommittedReadIndex, CommittedWriteIndex};
pub use mvstore::{MultiVersionStore, VersionedValue};
pub use pending::PendingIndex;
pub use snapshot::SnapshotManager;

/// The four dependency-resolution indices of Section 4.3: committed writes (CW), committed
/// reads (CR), pending writes (PW) and pending reads (PR), one of each.
#[derive(Clone, Debug, Default)]
pub struct DependencyIndices {
    /// Committed writers per key, in commit order.
    pub cw: CommittedWriteIndex,
    /// Committed readers of each key's latest value, in commit order.
    pub cr: CommittedReadIndex,
    /// Pending (accepted, not yet in a block) writers per key.
    pub pw: PendingIndex,
    /// Pending readers per key.
    pub pr: PendingIndex,
}

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

impl MultiVersionStore {
    /// `MultiVersionStore::new()` under its old constructor name; `shards` must be 0.
    pub fn for_shards(shards: usize) -> Self {
        assert_eq!(shards, 0, "the state store is never sharded");
        MultiVersionStore::new()
    }
}

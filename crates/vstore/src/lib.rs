//! # eov-vstore
//!
//! The versioned state substrate of the EOV blockchain:
//!
//! * [`mvstore::MultiVersionStore`] — the peers' state database. Every entry is a
//!   `(key, version, value)` tuple whose version is the `(block, seq)` slot of the transaction
//!   that installed it (Figure 2a of the paper). The store keeps *all* versions so that any
//!   block snapshot can be read back, which is exactly the storage-snapshot mechanism
//!   Algorithm 1 relies on (Section 4.2).
//! * [`snapshot`] — block snapshot handles and the snapshot manager that pins/prunes them.
//! * [`index`] — the orderer-side committed-transaction indices `CommittedWriteTxns` (CW) and
//!   `CommittedReadTxns` (CR) of Section 4.3. The paper stores these in LevelDB; here they are
//!   in-memory key-major maps (record key → its entries in commit order) exposing the same
//!   query surface (`Before`, `Last`, range-from) at a cost that scales with the keys named.
//! * [`pending`] — the in-memory `PendingWriteTxns` (PW) / `PendingReadTxns` (PR) indices over
//!   the not-yet-ordered transactions.
//! * [`shared`] — the [`shared::SharedStore`] handle used by the concurrent pipeline to share
//!   one store between endorser shards (readers) and the committer (writer), plus the
//!   compile-time `Send + Sync` audit of every stage-crossing substrate type.
//! * [`state`] — the [`state::StateRead`] / [`state::StateStore`] traits every backend
//!   implements, so the endorsement and commit paths are backend-agnostic.
//! * [`sharded`] — the key-space sharding layer: [`sharded::ShardedStore`] partitions the
//!   multi-version store across `S` shards behind a deterministic
//!   [`eov_common::shard::ShardRouter`], and [`sharded::ShardedIndices`] partitions the
//!   CW/CR/PW/PR dependency-resolution indices the same way.
//! * [`timetravel`] — the reenactment query surface over the retained history:
//!   [`timetravel::TimeTravel`] answers "value of `key` as of block `h`", block-range
//!   histories, and the commit slot behind any visible value, identically on every backend.

#![forbid(unsafe_code)]

pub mod index;
pub mod mvstore;
#[cfg(test)]
mod mvstore_model;
pub mod pending;
pub mod sharded;
pub mod shared;
pub mod snapshot;
pub mod state;
pub mod timetravel;

pub use index::{CommittedReadIndex, CommittedWriteIndex};
pub use mvstore::{MultiVersionStore, VersionedValue};
pub use pending::PendingIndex;
pub use sharded::{ShardedIndices, ShardedStore};
pub use shared::{into_shared, into_shared_backend, SharedStore, StoreBackend};
pub use snapshot::{SnapshotManager, SnapshotView};
pub use state::{StateRead, StateStore};
pub use timetravel::TimeTravel;

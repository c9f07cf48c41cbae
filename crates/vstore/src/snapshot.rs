//! Block snapshots and the latest snapshot height.
//!
//! Definition 1 of the paper: a *blockchain snapshot* is the state of the blockchain after a
//! block has committed. Algorithm 1 simulates every contract invocation against such a
//! snapshot, the one of "the last block". The multi-version store keeps every version, so each
//! block's snapshot stays readable without being copied. This module provides:
//!
//! * [`SnapshotView`] — a read handle over a [`MultiVersionStore`](crate::MultiVersionStore)
//!   frozen at one block height, which also records every read into a [`ReadSet`] so
//!   endorsement produces the transaction's version dependencies as a side effect.
//! * [`SnapshotManager`] — the height of the latest committed block, registered by the commit
//!   path and read by the endorsers.

#[cfg(test)]
use crate::mvstore::MultiVersionStore;
use crate::state::StateRead;
use eov_common::error::Result;
use eov_common::rwset::{Key, ReadSet, Value};
use eov_common::version::SeqNo;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A read-only view of the state as of the snapshot after a specific block.
///
/// Reads performed through [`SnapshotView::read_recording`] are recorded into the supplied
/// [`ReadSet`] with the version they observed, mirroring how an endorsing peer builds the
/// readset during simulation. Keys that do not exist at the snapshot are recorded with the
/// genesis version `(0,0)` so that validation can still detect later creations (phantom
/// protection, matching Fabric's behaviour of recording absent reads).
///
/// The view holds the store behind one `&dyn` [`StateRead`], so contract simulation closures
/// stay non-generic.
#[derive(Clone, Copy)]
pub struct SnapshotView<'a> {
    store: &'a dyn StateRead,
    block: u64,
}

impl std::fmt::Debug for SnapshotView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotView")
            .field("block", &self.block)
            .finish_non_exhaustive()
    }
}

impl<'a> SnapshotView<'a> {
    /// Creates a view of `store` frozen at the snapshot after `block`.
    pub fn new<S: StateRead>(store: &'a S, block: u64) -> Self {
        SnapshotView { store, block }
    }

    /// Reads `key` and records the observation (key + version) into `reads`.
    pub fn read_recording(&self, key: &Key, reads: &mut ReadSet) -> Result<Option<Value>> {
        match self.store.read_at(key, self.block)? {
            Some(vv) => {
                reads.record(key.clone(), vv.version);
                Ok(Some(vv.value.clone()))
            }
            None => {
                reads.record(key.clone(), SeqNo::zero());
                Ok(None)
            }
        }
    }
}

/// The height of the latest registered block snapshot, shared between the commit path (which
/// registers each block once its writes are applied) and the endorsers (which simulate against
/// it). Clones share one height, and reading it takes no lock, so endorsement and validation
/// proceed in parallel — the extra parallelism over vanilla Fabric's read-write lock that
/// Section 4.2 highlights.
#[derive(Clone, Debug, Default)]
pub struct SnapshotManager {
    latest: Arc<AtomicU64>,
}

impl SnapshotManager {
    /// Creates a manager with only the genesis snapshot (block 0) registered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the snapshot created by committing `block`. Called by the commit path after
    /// applying a block's writes; the height never goes back.
    pub fn register_block(&self, block: u64) {
        self.latest.fetch_max(block, Ordering::Release);
    }

    /// The latest registered snapshot height (Algorithm 1 line 1: "fetch the number of the last
    /// block").
    pub fn latest(&self) -> u64 {
        self.latest.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_store() -> MultiVersionStore {
        let mut store = MultiVersionStore::new();
        store.seed_genesis([(Key::new("A"), Value::from_i64(100))]);
        store
    }

    #[test]
    fn snapshot_view_reads_frozen_state_and_records_versions() {
        let mut store = seeded_store();
        store.put(Key::new("A"), SeqNo::new(1, 1), Value::from_i64(200));
        store.commit_empty_block(1);

        let snap0 = SnapshotView::new(&store, 0);
        let snap1 = SnapshotView::new(&store, 1);

        let mut reads = ReadSet::new();
        let v0 = snap0.read_recording(&Key::new("A"), &mut reads).unwrap();
        assert_eq!(v0.unwrap().as_i64(), Some(100));
        assert_eq!(reads.version_of(&Key::new("A")), Some(SeqNo::new(0, 1)));

        let mut reads = ReadSet::new();
        let v1 = snap1.read_recording(&Key::new("A"), &mut reads).unwrap();
        assert_eq!(v1.unwrap().as_i64(), Some(200));
        assert_eq!(reads.version_of(&Key::new("A")), Some(SeqNo::new(1, 1)));
    }

    #[test]
    fn missing_keys_are_recorded_with_genesis_version() {
        let store = seeded_store();
        let snap = SnapshotView::new(&store, 0);
        let mut reads = ReadSet::new();
        let v = snap
            .read_recording(&Key::new("missing"), &mut reads)
            .unwrap();
        assert!(v.is_none());
        assert_eq!(reads.version_of(&Key::new("missing")), Some(SeqNo::zero()));
    }

    #[test]
    fn register_never_regresses_latest() {
        let mgr = SnapshotManager::new();
        assert_eq!(mgr.latest(), 0);
        mgr.register_block(5);
        mgr.register_block(3);
        assert_eq!(mgr.latest(), 5);
    }

    #[test]
    fn manager_clones_share_state() {
        let mgr = SnapshotManager::new();
        let other = mgr.clone();
        mgr.register_block(7);
        assert_eq!(other.latest(), 7);
    }

    /// One thread registers blocks while others read the height: every reader sees it only
    /// grow, and the last registration wins.
    #[test]
    fn snapshot_manager_survives_concurrent_registers_and_reads() {
        use std::thread;
        let mgr = SnapshotManager::new();
        let register = {
            let mgr = mgr.clone();
            thread::spawn(move || {
                for block in 1..=100u64 {
                    mgr.register_block(block);
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let mgr = mgr.clone();
                thread::spawn(move || {
                    let mut seen = 0;
                    for _ in 0..200 {
                        let block = mgr.latest();
                        assert!(block >= seen, "height went back from {seen} to {block}");
                        seen = block;
                    }
                })
            })
            .collect();
        register.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(mgr.latest(), 100);
    }
}

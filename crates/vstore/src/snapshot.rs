//! Block snapshots and the snapshot manager.
//!
//! Definition 1 of the paper: a *blockchain snapshot* is the state of the blockchain after a
//! block has committed. Algorithm 1 simulates every contract invocation against such a
//! snapshot; Section 4.2 explains that FabricSharp creates a storage snapshot after each block
//! commit, lets simulations pin it, and periodically prunes snapshots that no simulation uses
//! any longer. This module provides exactly that:
//!
//! * [`SnapshotView`] — a read handle over a [`MultiVersionStore`] frozen at one block height,
//!   which also records every read into a [`ReadSet`] so endorsement produces the transaction's
//!   version dependencies as a side effect.
//! * [`SnapshotManager`] — tracks which block snapshots are pinned by in-flight simulations and
//!   prunes stale ones, refusing reads from pruned snapshots.

#[cfg(test)]
use crate::mvstore::MultiVersionStore;
use crate::state::StateRead;
use eov_common::error::Result;
use eov_common::rwset::{Key, ReadSet, Value};
use eov_common::version::SeqNo;
use parking_lot::RwLock;
use std::collections::HashMap;
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

    /// The block height this view is frozen at.
    pub fn block(&self) -> u64 {
        self.block
    }

    /// Reads `key` as of this snapshot without recording it.
    pub fn read(&self, key: &Key) -> Result<Option<(SeqNo, Value)>> {
        Ok(self
            .store
            .read_at(key, self.block)?
            .map(|vv| (vv.version, vv.value.clone())))
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

/// Tracks which block snapshots are pinned by in-flight simulations and which have been pruned.
///
/// The manager is shared between the endorsement path (which pins a snapshot for the duration
/// of a simulation) and the commit path (which registers new snapshots and periodically prunes
/// old, unpinned ones). It is internally synchronised so endorsement and validation can proceed
/// in parallel — the extra parallelism over vanilla Fabric's read-write lock that Section 4.2
/// highlights.
#[derive(Debug, Default)]
pub struct SnapshotManager {
    inner: Arc<RwLock<ManagerState>>,
}

#[derive(Debug, Default)]
struct ManagerState {
    /// Pin counts per block height. A block may have zero pins and still be retained until the
    /// next prune pass.
    pins: HashMap<u64, usize>,
    /// Latest registered snapshot height.
    latest: u64,
    /// Snapshots strictly below this height have been pruned.
    pruned_below: u64,
}

impl Clone for SnapshotManager {
    fn clone(&self) -> Self {
        SnapshotManager {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl SnapshotManager {
    /// Creates a manager with only the genesis snapshot (block 0) registered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the snapshot created by committing `block`. Called by the validation/commit
    /// path after applying a block's writes.
    pub fn register_block(&self, block: u64) {
        let mut st = self.inner.write();
        if block > st.latest {
            st.latest = block;
        }
    }

    /// The latest registered snapshot height (Algorithm 1 line 1: "fetch the number of the last
    /// block").
    pub fn latest(&self) -> u64 {
        self.inner.read().latest
    }

    /// Pins the latest snapshot for a new simulation and returns its height.
    pub fn pin_latest(&self) -> u64 {
        let mut st = self.inner.write();
        let block = st.latest;
        *st.pins.entry(block).or_insert(0) += 1;
        block
    }

    /// Releases a pin taken by [`SnapshotManager::pin_latest`].
    pub fn unpin(&self, block: u64) {
        let mut st = self.inner.write();
        if let Some(count) = st.pins.get_mut(&block) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                st.pins.remove(&block);
            }
        }
    }

    /// Number of active pins on `block`.
    #[cfg(test)]
    pub(crate) fn pin_count(&self, block: u64) -> usize {
        self.inner.read().pins.get(&block).copied().unwrap_or(0)
    }

    /// Prunes every snapshot strictly below `horizon` that has no active pins. Returns the new
    /// effective pruning floor (which may be lower than `horizon` if a pinned snapshot blocks
    /// it). The corresponding versions can then be garbage collected from the store with
    /// [`MultiVersionStore::prune_versions_below`].
    pub fn prune_below(&self, horizon: u64) -> u64 {
        let mut st = self.inner.write();
        // The floor cannot pass the oldest pinned snapshot.
        // lint-determinism: allow (the minimum does not depend on iteration order)
        let oldest_pinned = st.pins.keys().copied().min().unwrap_or(u64::MAX);
        let floor = horizon.min(oldest_pinned).min(st.latest + 1);
        if floor > st.pruned_below {
            st.pruned_below = floor;
        }
        st.pruned_below
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
        assert_eq!(snap0.block(), 0);

        let mut reads = ReadSet::new();
        let v0 = snap0.read_recording(&Key::new("A"), &mut reads).unwrap();
        assert_eq!(v0.unwrap().as_i64(), Some(100));
        assert_eq!(reads.version_of(&Key::new("A")), Some(SeqNo::new(0, 1)));

        let (ver, val) = snap1.read(&Key::new("A")).unwrap().unwrap();
        assert_eq!(ver, SeqNo::new(1, 1));
        assert_eq!(val.as_i64(), Some(200));
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
    fn manager_tracks_latest_and_pins() {
        let mgr = SnapshotManager::new();
        assert_eq!(mgr.latest(), 0);
        mgr.register_block(1);
        mgr.register_block(2);
        assert_eq!(mgr.latest(), 2);

        let pinned = mgr.pin_latest();
        assert_eq!(pinned, 2);
        assert_eq!(mgr.pin_count(2), 1);
        mgr.unpin(2);
        assert_eq!(mgr.pin_count(2), 0);
    }

    #[test]
    fn pruning_respects_pins() {
        let mgr = SnapshotManager::new();
        mgr.register_block(1);
        mgr.register_block(2);
        assert_eq!(mgr.pin_latest(), 2);
        for b in 3..=5 {
            mgr.register_block(b);
        }
        // Pruning up to 4 is capped by the pin on block 2.
        assert_eq!(mgr.prune_below(4), 2);

        mgr.unpin(2);
        assert_eq!(mgr.prune_below(4), 4);
    }

    #[test]
    fn register_never_regresses_latest() {
        let mgr = SnapshotManager::new();
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

    /// The snapshot manager's pin/unpin/register/prune surface is exercised from many threads
    /// at once; afterwards no pins may leak and the pruning floor must respect every pin that
    /// was active when it was computed.
    #[test]
    fn snapshot_manager_survives_concurrent_pin_churn() {
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
        let pinners: Vec<_> = (0..4)
            .map(|_| {
                let mgr = mgr.clone();
                thread::spawn(move || {
                    for _ in 0..200 {
                        let block = mgr.pin_latest();
                        assert!(mgr.pin_count(block) >= 1);
                        mgr.unpin(block);
                    }
                })
            })
            .collect();
        register.join().unwrap();
        for p in pinners {
            p.join().unwrap();
        }
        // All pins released: pruning can advance to the horizon.
        assert_eq!(mgr.latest(), 100);
        assert_eq!(mgr.prune_below(90), 90);
        for block in 0..100u64 {
            assert_eq!(mgr.pin_count(block), 0, "leaked pin on block {block}");
        }
    }
}

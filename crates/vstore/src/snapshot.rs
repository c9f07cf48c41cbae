//! The latest committed block height.
//!
//! Definition 1 of the paper: a *blockchain snapshot* is the state of the blockchain after a
//! block has committed. Algorithm 1 simulates every contract invocation against such a
//! snapshot, the one of "the last block". The multi-version store keeps every version, so each
//! block's snapshot stays readable without being copied; all that needs sharing is which block
//! is the last one. [`SnapshotManager`] holds that height: the commit path registers each block
//! and `SnapshotEndorser::simulate` reads it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The latest committed block height: the commit path registers each block once its writes are
/// applied, and `SnapshotEndorser::simulate` reads it as the snapshot to simulate against.
/// Clones share one height.
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

//! Time-travel (reenactment) queries over the retained version history.
//!
//! The multi-version store already holds everything a historical audit needs: every key's
//! newest version links back to the one before it, down to its first. The methods here turn
//! that into the reenactment query surface of Arab et al. (PAPERS.md): *what was the value of
//! `key` as of block `h`?* (the snapshot read [`MultiVersionStore::read_at`]), *how did it
//! evolve between `h0` and `h1`?* (`history_range`), and *which commit slot produced the
//! visible value?* (the `version` of the `read_at` answer — the store half of provenance;
//! `eov_ledger::reenact` joins the slot back to the committing transaction). Answers below the
//! pruning horizon are refused with the
//! [`CommonError::SnapshotPruned`](eov_common::error::CommonError::SnapshotPruned) contract,
//! because pruned histories no longer hold the evidence.

use crate::mvstore::{MultiVersionStore, VersionRef};
use eov_common::error::{CommonError, Result};
use eov_common::rwset::Key;

impl MultiVersionStore {
    /// Every version of `key` committed in blocks `h0..=h1` (oldest first). Errors if `h0` is
    /// below the pruning horizon (versions there may already be gone).
    pub fn history_range(&self, key: &Key, h0: u64, h1: u64) -> Result<Vec<VersionRef<'_>>> {
        if h0 < self.pruned_below() {
            return Err(CommonError::SnapshotPruned(h0));
        }
        let mut range: Vec<VersionRef<'_>> = self
            .history(key)
            .skip_while(|v| v.version.block > h1)
            .take_while(|v| v.version.block >= h0)
            .collect();
        range.reverse();
        Ok(range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::rwset::Value;
    use eov_common::txn::Transaction;
    use eov_common::version::SeqNo;

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    /// A store with key `A` rewritten in blocks 1..=5 (value = block) plus genesis 0.
    fn populated() -> MultiVersionStore {
        let mut store = MultiVersionStore::new();
        store.seed_genesis([(k("A"), Value::from_i64(0)), (k("B"), Value::from_i64(-1))]);
        for b in 1..=5u64 {
            let txn = Transaction::from_parts(b, b - 1, [], [(k("A"), Value::from_i64(b as i64))]);
            store.apply_block(b, [(&txn, 1)]);
        }
        store
    }

    #[test]
    fn history_range_slices_the_chain_by_block() {
        let store = populated();
        let mid = store.history_range(&k("A"), 2, 4).unwrap();
        let blocks: Vec<u64> = mid.iter().map(|v| v.version.block).collect();
        assert_eq!(blocks, vec![2, 3, 4]);
        // Degenerate and out-of-range windows are empty, not errors.
        assert!(store.history_range(&k("A"), 4, 2).unwrap().is_empty());
        assert!(store.history_range(&k("A"), 9, 12).unwrap().is_empty());
        // Full range covers genesis too.
        assert_eq!(store.history_range(&k("A"), 0, 5).unwrap().len(), 6);
    }

    #[test]
    fn version_as_of_returns_the_committing_slot() {
        let store = populated();
        let version_as_of = |key: &str| store.read_at(&k(key), 3).unwrap().map(|v| v.version);
        assert_eq!(version_as_of("A"), Some(SeqNo::new(3, 1)));
        assert_eq!(version_as_of("B"), Some(SeqNo::new(0, 2)));
        assert_eq!(version_as_of("missing"), None);
    }

    #[test]
    fn queries_below_the_pruning_horizon_are_refused() {
        let mut store = populated();
        store.prune_versions_below(3);
        assert_eq!(
            store.read_at(&k("A"), 2),
            Err(CommonError::SnapshotPruned(2))
        );
        assert_eq!(
            store.history_range(&k("A"), 1, 5),
            Err(CommonError::SnapshotPruned(1))
        );
        // At or above the horizon still answers.
        assert!(store.read_at(&k("A"), 3).unwrap().is_some());
        assert!(!store.history_range(&k("A"), 3, 5).unwrap().is_empty());
    }
}

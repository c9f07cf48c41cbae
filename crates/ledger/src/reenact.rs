//! Provenance: joining a time-travel answer back to the committing transaction.
//!
//! [`MultiVersionStore::read_at`] yields the commit slot `(block, seq)` behind any historical
//! value; this module resolves that slot against the ledger to recover *who* wrote it — the
//! reenactment query of the audit literature ("which transaction, in which block, produced the
//! balance the auditor is looking at?"). Slot `(0, _)` denotes genesis state, which no
//! transaction produced. For any later slot the ledger entry at that position is cross-checked
//! against the store: it must exist, be committed, and write the queried key — a mismatch
//! means the store and the ledger have diverged, which is reported as an internal chain error
//! rather than trusted.

use crate::chain::Ledger;
use crate::error::LedgerError;
use eov_common::error::CommonError;
use eov_common::rwset::{Key, Value};
use eov_common::txn::TxnId;
use eov_common::version::SeqNo;
use eov_vstore::MultiVersionStore;

/// The full answer to "where did the value of `key` at height `h` come from?".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Provenance {
    /// The commit slot that installed the visible version.
    pub slot: SeqNo,
    /// The committing transaction, or `None` for genesis state (slot block 0).
    pub txn: Option<TxnId>,
    /// The value that was installed.
    pub value: Value,
}

/// Resolves the provenance of `key` as of block `height`: the visible value, its commit slot,
/// and the transaction that wrote it (`None` for genesis seed values). Returns `Ok(None)` if
/// the key had no value at that height, and an error below the pruning horizon or if the store
/// and ledger disagree.
pub fn provenance(
    ledger: &Ledger,
    store: &MultiVersionStore,
    key: &Key,
    height: u64,
) -> Result<Option<Provenance>, LedgerError> {
    let Some(version) = store.read_at(key, height)? else {
        return Ok(None);
    };
    let slot = version.version;
    let value = version.value.clone();
    if slot.block == 0 {
        return Ok(Some(Provenance {
            slot,
            txn: None,
            value,
        }));
    }
    let block = ledger.block(slot.block)?;
    let entry = block
        .entries
        .get((slot.seq as usize).wrapping_sub(1))
        .ok_or_else(|| diverged(key, slot, "no entry at that slot"))?;
    if !entry.status.is_committed() {
        return Err(diverged(key, slot, "entry is not committed"));
    }
    if !entry.txn.write_set.iter().any(|w| &w.key == key) {
        return Err(diverged(key, slot, "entry does not write the key"));
    }
    Ok(Some(Provenance {
        slot,
        txn: Some(entry.txn.id),
        value,
    }))
}

fn diverged(key: &Key, slot: SeqNo, detail: &str) -> LedgerError {
    LedgerError::Chain(CommonError::Internal(format!(
        "store/ledger divergence resolving {key} at slot ({}, {}): {detail}",
        slot.block, slot.seq
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use eov_common::abort::AbortReason;
    use eov_common::txn::{Transaction, TxnStatus};
    use eov_vstore::MultiVersionStore;

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    /// A ledger of 3 blocks over keys A/B, with the matching store; block 2's second entry
    /// aborts so committed slots are sparse.
    fn fixture() -> (Ledger, MultiVersionStore) {
        let mut ledger = Ledger::new();
        let mut store = MultiVersionStore::new();
        store.seed_genesis([(k("A"), Value::from_i64(0)), (k("B"), Value::from_i64(0))]);
        for b in 1..=3u64 {
            let writer =
                Transaction::from_parts(b * 10, b - 1, [], [(k("A"), Value::from_i64(b as i64))]);
            let loser =
                Transaction::from_parts(b * 10 + 1, b - 1, [], [(k("B"), Value::from_i64(-1))]);
            let mut block = Block::build(b, ledger.tip_hash(), vec![writer, loser]);
            block.entries[0].status = TxnStatus::Committed;
            block.entries[1].status = if b == 2 {
                TxnStatus::Aborted(AbortReason::StaleRead)
            } else {
                TxnStatus::Committed
            };
            store.apply_block(b, block.committed());
            ledger.append(block).unwrap();
        }
        (ledger, store)
    }

    #[test]
    fn provenance_resolves_the_committing_transaction() {
        let (ledger, store) = fixture();
        let p = provenance(&ledger, &store, &k("A"), 2).unwrap().unwrap();
        assert_eq!(p.txn, Some(TxnId(20)));
        assert_eq!(p.slot, SeqNo::new(2, 1));
        assert_eq!(p.value, Value::from_i64(2));
        // B's block-2 write aborted, so as of height 2 its provenance is the block-1 writer.
        let p = provenance(&ledger, &store, &k("B"), 2).unwrap().unwrap();
        assert_eq!(p.txn, Some(TxnId(11)));
        assert_eq!(p.slot, SeqNo::new(1, 2));
    }

    #[test]
    fn genesis_values_have_no_committing_transaction() {
        let (ledger, store) = fixture();
        let p = provenance(&ledger, &store, &k("B"), 0).unwrap().unwrap();
        assert_eq!(p.txn, None);
        assert_eq!(p.slot.block, 0);
        assert_eq!(p.value, Value::from_i64(0));
    }

    #[test]
    fn missing_keys_resolve_to_none() {
        let (ledger, store) = fixture();
        assert_eq!(provenance(&ledger, &store, &k("missing"), 3).unwrap(), None);
    }

    #[test]
    fn store_ledger_divergence_is_an_error_not_a_panic() {
        let (ledger, mut store) = fixture();
        // Plant a version claiming a slot that holds an aborted entry.
        store.put(&k("B"), SeqNo::new(3, 9), Value::from_i64(99));
        let err = provenance(&ledger, &store, &k("B"), 3).unwrap_err();
        assert!(matches!(err, LedgerError::Chain(CommonError::Internal(_))));
    }
}

//! Pending-transaction indices: `PendingWriteTxns` (PW) and `PendingReadTxns` (PR).
//!
//! Section 4.3: besides the committed-transaction indices, the orderer keeps two in-memory
//! indices over the transactions that have been accepted for the *next* block but are not yet
//! committed. `PW` maps each key to the pending transactions that will write it, `PR` to the
//! pending transactions that read it. Both are consulted when resolving the dependencies of a
//! newly arrived transaction and are cleared when the block is formed.

use eov_common::hash::FoldState;
use eov_common::rwset::Key;
use eov_common::txn::TxnId;
use std::collections::HashMap;

/// An index from keys to the pending transactions that access them. One instance is used for
/// writes (PW) and one for reads (PR).
#[derive(Clone, Debug, Default)]
pub struct PendingIndex {
    by_key: HashMap<Key, Vec<TxnId>, FoldState>,
}

impl PendingIndex {
    /// Records that pending transaction `txn` accesses `key`. Arrival order is preserved per
    /// key; duplicates (the same transaction touching the same key twice) are ignored.
    pub fn record(&mut self, key: Key, txn: TxnId) {
        let txns = self.by_key.entry(key).or_default();
        if !txns.contains(&txn) {
            txns.push(txn);
        }
    }

    /// The pending transactions that access `key`, in arrival order.
    pub fn get(&self, key: &Key) -> &[TxnId] {
        self.by_key.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Iterates over `(key, pending transactions)` pairs in arbitrary order. Used by the
    /// ww-restoration step (Algorithm 5) which walks every key written by pending transactions.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &[TxnId])> {
        // lint-determinism: allow (ww-restoration sorts the collected keys before use)
        self.by_key.iter().map(|(k, v)| (k, v.as_slice()))
    }

    /// Clears the index (block formation empties the pending set).
    pub fn clear(&mut self) {
        self.by_key.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    #[test]
    fn records_preserve_arrival_order_and_dedupe() {
        let mut pw = PendingIndex::default();
        pw.record(k("A"), TxnId(3));
        pw.record(k("A"), TxnId(1));
        pw.record(k("A"), TxnId(3)); // duplicate
        pw.record(k("B"), TxnId(2));

        assert_eq!(pw.get(&k("A")), &[TxnId(3), TxnId(1)]);
        assert_eq!(pw.get(&k("B")), &[TxnId(2)]);
        assert_eq!(pw.get(&k("C")), &[] as &[TxnId]);
    }

    #[test]
    fn clear_empties_the_index() {
        let mut pr = PendingIndex::default();
        pr.record(k("A"), TxnId(1));
        pr.clear();
        assert!(pr.get(&k("A")).is_empty());
        assert_eq!(pr.iter().count(), 0);
    }

    #[test]
    fn iter_visits_every_key_once() {
        let mut pw = PendingIndex::default();
        pw.record(k("A"), TxnId(1));
        pw.record(k("B"), TxnId(2));
        pw.record(k("B"), TxnId(3));
        let mut seen: Vec<(String, usize)> = pw
            .iter()
            .map(|(key, txns)| (key.as_str().to_string(), txns.len()))
            .collect();
        seen.sort();
        assert_eq!(seen, vec![("A".to_string(), 1), ("B".to_string(), 2)]);
    }
}

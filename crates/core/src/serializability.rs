//! Offline serializability oracle.
//!
//! Given a committed history — transactions with their read sets (keys + observed versions),
//! write sets and commit slots — this module decides whether the history is (one-copy)
//! serializable by building the multi-version serialization graph and testing it for cycles:
//!
//! * **wr**: the transaction that installed the version a reader observed precedes the reader.
//! * **ww**: writers of the same key are ordered by their commit slots.
//! * **rw**: a reader of version `v` of a key precedes every transaction that installed a
//!   later version of that key (it logically read "before" the overwrite) — this captures
//!   anti-dependencies regardless of commit order.
//!
//! The history is serializable iff this graph is acyclic. The oracle is deliberately
//! independent of the dependency-graph machinery in `eov-depgraph`, so the property tests that
//! assert "everything FabricSharp commits is serializable" are not circular.

use eov_common::hash::FoldState;
use eov_common::rwset::Key;
use eov_common::txn::{Transaction, TxnId};
use eov_common::version::SeqNo;
use std::collections::{HashMap, HashSet};

/// Whether the committed history is serializable. Transactions must have their `end_ts` set;
/// entries without a commit slot are ignored (they never became part of the history).
pub fn is_serializable(history: &[Transaction]) -> bool {
    serialization_order(history).is_some()
}

/// Computes a serial order witnessing serializability (a topological order of the
/// serialization graph), or `None` if the history is not serializable.
pub(crate) fn serialization_order(history: &[Transaction]) -> Option<Vec<TxnId>> {
    let committed: Vec<&Transaction> = history.iter().filter(|t| t.end_ts.is_some()).collect();
    let ids: Vec<TxnId> = committed.iter().map(|t| t.id).collect();
    let id_set: HashSet<TxnId, FoldState> = ids.iter().copied().collect();
    if ids.len() != id_set.len() {
        // Duplicate transaction ids make the history ill-formed.
        return None;
    }

    // Index writers per key, ordered by commit slot, so ww and rw edges are cheap to derive.
    let mut writers_by_key: HashMap<&Key, Vec<(SeqNo, TxnId)>, FoldState> = HashMap::default();
    let mut version_installer: HashMap<(&Key, SeqNo), TxnId, FoldState> = HashMap::default();
    for txn in &committed {
        let end = txn.end_ts.expect("filtered to committed");
        for w in txn.write_set.iter() {
            writers_by_key
                .entry(&w.key)
                .or_default()
                .push((end, txn.id));
            version_installer.insert((&w.key, end), txn.id);
        }
    }
    // lint-determinism: allow (each value is sorted independently; visit order is irrelevant)
    for writers in writers_by_key.values_mut() {
        writers.sort();
    }

    let mut edges: Edges = ids.iter().map(|id| (*id, HashSet::default())).collect();
    let add_edge = |from: TxnId, to: TxnId, edges: &mut Edges| {
        if from != to {
            edges.get_mut(&from).expect("known id").insert(to);
        }
    };

    // ww edges: consecutive writers of the same key in commit order.
    // lint-determinism: allow (edges are a set; insertion order cannot change its contents)
    for writers in writers_by_key.values() {
        for pair in writers.windows(2) {
            add_edge(pair[0].1, pair[1].1, &mut edges);
        }
    }

    // wr and rw edges from each read.
    for txn in &committed {
        for read in txn.read_set.iter() {
            let key = &read.key;
            // wr: whoever installed the observed version precedes the reader. Genesis versions
            // (block 0) have no installer in the history.
            if let Some(&installer) = version_installer.get(&(key, read.version)) {
                add_edge(installer, txn.id, &mut edges);
            }
            // rw: the reader precedes every writer that installed a *later* version.
            if let Some(writers) = writers_by_key.get(key) {
                for &(slot, writer) in writers {
                    if slot > read.version {
                        add_edge(txn.id, writer, &mut edges);
                    }
                }
            }
        }
    }

    topological_order(&ids, &edges)
}

/// The serialization graph: each committed transaction's successors.
type Edges = HashMap<TxnId, HashSet<TxnId, FoldState>, FoldState>;

/// Kahn's algorithm; returns `None` when the graph has a cycle. Ties are broken by the order
/// ids appear in `ids` (commit order), so the witness is stable.
fn topological_order(ids: &[TxnId], edges: &Edges) -> Option<Vec<TxnId>> {
    let mut indegree: HashMap<TxnId, usize, FoldState> = ids.iter().map(|id| (*id, 0)).collect();
    // lint-determinism: allow (indegree increments are commutative)
    for targets in edges.values() {
        for t in targets {
            *indegree.get_mut(t).expect("known id") += 1;
        }
    }
    let mut ready: Vec<TxnId> = ids.iter().filter(|id| indegree[id] == 0).copied().collect();
    let mut order = Vec::with_capacity(ids.len());
    while let Some(next) = ready.first().copied() {
        ready.remove(0);
        order.push(next);
        if let Some(targets) = edges.get(&next) {
            // Deterministic release order: follow the original id order.
            for id in ids {
                if targets.contains(id) {
                    let d = indegree.get_mut(id).expect("known id");
                    *d -= 1;
                    if *d == 0 {
                        ready.push(*id);
                    }
                }
            }
        }
    }
    if order.len() == ids.len() {
        Some(order)
    } else {
        None
    }
}

/// Whether the committed history is *strongly* serializable (Definition 6): serializable with
/// the commit order itself as the witness. This is what Fabric and Fabric++ enforce; the gap
/// between this predicate and [`is_serializable`] is exactly the set of schedules FabricSharp
/// can additionally accept.
pub fn is_strongly_serializable(history: &[Transaction]) -> bool {
    let mut committed: Vec<&Transaction> = history.iter().filter(|t| t.end_ts.is_some()).collect();
    committed.sort_by_key(|t| t.end_ts.expect("committed"));

    // Replay in commit order: every read must observe the latest version installed so far (or
    // its own snapshot version if the key was never touched), i.e. no anti-rw edge exists.
    let mut latest: HashMap<&Key, SeqNo, FoldState> = HashMap::default();
    for txn in &committed {
        for read in txn.read_set.iter() {
            if let Some(&installed) = latest.get(&read.key) {
                if installed > read.version {
                    return false;
                }
            }
        }
        let end = txn.end_ts.expect("committed");
        for w in txn.write_set.iter() {
            latest.insert(&w.key, end);
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::rwset::Value;

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    fn committed(
        id: u64,
        end: (u64, u32),
        reads: Vec<(&str, (u64, u32))>,
        writes: Vec<&str>,
    ) -> Transaction {
        let mut txn = Transaction::from_parts(
            id,
            end.0.saturating_sub(1),
            reads
                .into_iter()
                .map(|(key, v)| (k(key), SeqNo::new(v.0, v.1))),
            writes
                .into_iter()
                .map(|key| (k(key), Value::from_i64(id as i64))),
        );
        txn.end_ts = Some(SeqNo::new(end.0, end.1));
        txn
    }

    #[test]
    fn empty_and_singleton_histories_are_serializable() {
        assert!(is_serializable(&[]));
        let t = committed(1, (1, 1), vec![("A", (0, 1))], vec!["B"]);
        assert!(is_serializable(std::slice::from_ref(&t)));
        assert!(is_strongly_serializable(&[t]));
    }

    #[test]
    fn lost_update_style_cycle_is_rejected() {
        // Both transactions read A at the genesis version and overwrite it: each reads the
        // value the other overwrites → rw cycles with ww, not serializable.
        let t1 = committed(1, (1, 1), vec![("A", (0, 1))], vec!["A"]);
        let t2 = committed(2, (1, 2), vec![("A", (0, 1))], vec!["A"]);
        assert!(!is_serializable(&[t1, t2]));
    }

    #[test]
    fn write_skew_is_rejected() {
        // Classic write skew: t1 reads A writes B, t2 reads B writes A, both from the same
        // snapshot. rw edges both ways → cycle.
        let t1 = committed(1, (1, 1), vec![("A", (0, 1))], vec!["B"]);
        let t2 = committed(2, (1, 2), vec![("B", (0, 2))], vec!["A"]);
        assert!(!is_serializable(&[t1, t2]));
    }

    #[test]
    fn anti_rw_alone_is_serializable_but_not_strongly() {
        // t1 (committed first) reads A at the genesis version; t2 (committed second) wrote A
        // before t1's read was sequenced... i.e. t2 overwrites what t1 read, and t1 reads the
        // OLD version even though it commits AFTER t2. Serializable (t1 before t2 in the
        // serial order) but not strongly serializable.
        let t2 = committed(2, (1, 1), vec![], vec!["A"]);
        let t1 = committed(1, (1, 2), vec![("A", (0, 1))], vec!["B"]);
        let history = [t1, t2];
        assert!(is_serializable(&history));
        assert!(!is_strongly_serializable(&history));
        let order = serialization_order(&history).unwrap();
        let pos = |id: u64| order.iter().position(|t| t.0 == id).unwrap();
        assert!(
            pos(1) < pos(2),
            "reader must be serialized before the overwriting writer"
        );
    }

    #[test]
    fn wr_dependencies_are_respected() {
        // t1 installs A at (1,1); t2 reads that exact version: t1 must precede t2.
        let t1 = committed(1, (1, 1), vec![], vec!["A"]);
        let t2 = committed(2, (2, 1), vec![("A", (1, 1))], vec!["B"]);
        let order = serialization_order(&[t2.clone(), t1.clone()]).unwrap();
        let pos = |id: u64| order.iter().position(|t| t.0 == id).unwrap();
        assert!(pos(1) < pos(2));
        assert!(is_strongly_serializable(&[t1, t2]));
    }

    #[test]
    fn three_txn_unreorderable_cycle_is_rejected() {
        // Figure 7a shape: a cycle made only of rw conflicts across three transactions.
        // t1 reads X (old) which t2 overwrites; t2 reads Y (old) which t3 overwrites; t3 reads
        // Z (old) which t1 overwrites.
        let t1 = committed(1, (2, 1), vec![("X", (0, 1))], vec!["Z"]);
        let t2 = committed(2, (2, 2), vec![("Y", (0, 2))], vec!["X"]);
        let t3 = committed(3, (2, 3), vec![("Z", (0, 3))], vec!["Y"]);
        assert!(!is_serializable(&[t1, t2, t3]));
    }

    #[test]
    fn pending_transactions_are_ignored() {
        let committed_txn = committed(1, (1, 1), vec![], vec!["A"]);
        let mut pending = committed(2, (9, 9), vec![("A", (0, 1))], vec!["A"]);
        pending.end_ts = None;
        assert!(is_serializable(&[committed_txn, pending]));
    }

    #[test]
    fn table1_fabric_plus_plus_outcome_is_serializable() {
        // Fabric++ commits Txn4 and Txn5 from the paper's Table 1 (after reordering them ahead
        // of Txn3, which is aborted). Verify that outcome is indeed serializable.
        // State: B=(1,2), C=(2,1) after block 2. Txn4 reads C(2,1) writes B; Txn5 reads C(2,1)
        // writes A.
        let txn4 = committed(4, (3, 1), vec![("C", (2, 1))], vec!["B"]);
        let txn5 = committed(5, (3, 2), vec![("C", (2, 1))], vec!["A"]);
        assert!(is_serializable(&[txn4, txn5]));
    }
}

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
///
/// Transactions and keys are numbered densely in history order; the hash maps below only
/// look positions up, so nothing depends on their iteration order.
pub(crate) fn serialization_order(history: &[Transaction]) -> Option<Vec<TxnId>> {
    let committed: Vec<&Transaction> = history.iter().filter(|t| t.end_ts.is_some()).collect();
    let mut ids: HashSet<TxnId, FoldState> = HashSet::default();
    if !committed.iter().all(|t| ids.insert(t.id)) {
        // Duplicate transaction ids make the history ill-formed.
        return None;
    }

    // Writers per key (keys numbered by first write), ordered by commit slot, so ww and rw
    // edges are cheap to derive.
    let mut key_index: HashMap<&Key, usize, FoldState> = HashMap::default();
    let mut writers_by_key: Vec<Vec<(SeqNo, usize)>> = Vec::new();
    let mut version_installer: HashMap<(&Key, SeqNo), usize, FoldState> = HashMap::default();
    for (at, txn) in committed.iter().enumerate() {
        let end = txn.end_ts.expect("filtered to committed");
        for w in txn.write_set.iter() {
            let next = writers_by_key.len();
            let k = *key_index.entry(&w.key).or_insert(next);
            if k == next {
                writers_by_key.push(Vec::new());
            }
            writers_by_key[k].push((end, at));
            version_installer.insert((&w.key, end), at);
        }
    }
    for writers in &mut writers_by_key {
        writers.sort_by_key(|&(slot, at)| (slot, committed[at].id));
    }

    let mut successors: Vec<Vec<usize>> = vec![Vec::new(); committed.len()];
    let mut add_edge = |from: usize, to: usize| {
        if from != to {
            successors[from].push(to);
        }
    };

    // ww edges: consecutive writers of the same key in commit order.
    for writers in &writers_by_key {
        for pair in writers.windows(2) {
            add_edge(pair[0].1, pair[1].1);
        }
    }

    // wr and rw edges from each read.
    for (at, txn) in committed.iter().enumerate() {
        for read in txn.read_set.iter() {
            let key = &read.key;
            // wr: whoever installed the observed version precedes the reader. Genesis versions
            // (block 0) have no installer in the history.
            if let Some(&installer) = version_installer.get(&(key, read.version)) {
                add_edge(installer, at);
            }
            // rw: the reader precedes every writer that installed a *later* version.
            if let Some(&k) = key_index.get(key) {
                let writers = &writers_by_key[k];
                let later = writers.partition_point(|&(slot, _)| slot <= read.version);
                for &(_, writer) in &writers[later..] {
                    add_edge(at, writer);
                }
            }
        }
    }

    for targets in &mut successors {
        targets.sort_unstable();
        targets.dedup();
    }
    let order = topological_order(&successors)?;
    Some(order.into_iter().map(|at| committed[at].id).collect())
}

/// Kahn's algorithm over positions `0..successors.len()`, each with its successors sorted;
/// returns `None` when the graph has a cycle. Ready vertices leave in the order they became
/// ready, the roots and each vertex's released successors by position (commit order), so the
/// witness is stable.
fn topological_order(successors: &[Vec<usize>]) -> Option<Vec<usize>> {
    let mut indegree = vec![0usize; successors.len()];
    for &t in successors.iter().flatten() {
        indegree[t] += 1;
    }
    // `order` doubles as the ready queue: `order[next..]` are ready but not yet released.
    let mut order: Vec<usize> = (0..successors.len())
        .filter(|&v| indegree[v] == 0)
        .collect();
    let mut next = 0;
    while let Some(&v) = order.get(next) {
        next += 1;
        for &t in &successors[v] {
            indegree[t] -= 1;
            if indegree[t] == 0 {
                order.push(t);
            }
        }
    }
    (order.len() == successors.len()).then_some(order)
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

//! Executable forms of the paper's definitions, propositions and worked examples (Section 3).
//!
//! Besides documenting the theory, this module builds the concrete fixtures the paper uses —
//! the Figure 2a / Table 1 five-transaction scenario and the Figure 3a cross-block-read
//! example — so that unit tests, integration tests, the Table 1 harness binary and the
//! `reorder_walkthrough` example all share one source of truth.

#[cfg(test)]
use eov_common::dep::DependencyKind;
use eov_common::rwset::{Key, Value};
use eov_common::txn::Transaction;
use eov_common::version::SeqNo;
use eov_vstore::MultiVersionStore;

/// Definition 2 — snapshot consistency: a transaction is snapshot consistent if there exists a
/// block snapshot from which *all* its reads could have been served. Returns the snapshot
/// block number of the latest such snapshot, or `None` if no snapshot matches.
///
/// The search only needs to consider the snapshot immediately implied by each read's version:
/// the candidate snapshot must be at least as new as every version read (otherwise that value
/// did not exist yet) and, at the candidate, every read key must still have exactly the
/// version that was observed.
pub fn snapshot_consistency(txn: &Transaction, store: &MultiVersionStore) -> Option<u64> {
    if txn.read_set.is_empty() {
        // A transaction with no reads is trivially consistent with its simulation snapshot.
        return Some(txn.snapshot_block);
    }
    let newest_read_block = txn
        .read_set
        .iter()
        .map(|r| r.version.block)
        .max()
        .expect("non-empty read set");

    // Candidate snapshots from the newest observed version up to the store's current height;
    // the latest consistent one is the transaction's effective snapshot (Proposition 1 says
    // it is determined by the last read).
    let mut best = None;
    for candidate in newest_read_block..=store.last_block() {
        let consistent =
            txn.read_set
                .iter()
                .all(|read| match store.read_at(&read.key, candidate) {
                    Ok(Some(vv)) => vv.version == read.version,
                    Ok(None) => read.version == SeqNo::zero(),
                    Err(_) => false,
                });
        if consistent {
            best = Some(candidate);
        }
    }
    best
}

/// Classifies the dependency between two transactions on a single key, if any, following
/// Figure 5. `first` and `second` must both have commit slots; `first` is the one that commits
/// earlier. Returns the edge *direction* implicitly: for every kind except
/// [`DependencyKind::AntiReadWrite`] the edge points `first → second`; for anti-rw it points
/// `second → first` (the later-committed reader depends on the earlier-committed writer).
///
/// Nothing on the orderer path calls it: it is the test oracle the arrival path's dependency
/// resolution is checked against.
#[cfg(test)]
pub(crate) fn classify_dependency_on_key(
    first: &Transaction,
    second: &Transaction,
    key: &Key,
) -> Option<DependencyKind> {
    let concurrent = first.is_concurrent_with(second);
    let first_writes = first.write_set.contains(key);
    let second_writes = second.write_set.contains(key);
    let first_reads = first.read_set.contains(key);
    let second_reads = second.read_set.contains(key);

    if first_writes && second_writes {
        return Some(if concurrent {
            DependencyKind::ConcurrentWriteWrite
        } else {
            DependencyKind::NonConcurrentWriteWrite
        });
    }
    if first_writes && second_reads {
        // The later transaction reads the key the earlier one wrote. If they are concurrent the
        // reader cannot have seen the writer's value (it read from an older snapshot), so the
        // read-write conflict points backwards: anti-rw. Otherwise it is a plain wr dependency.
        return Some(if concurrent {
            DependencyKind::AntiReadWrite
        } else {
            DependencyKind::NonConcurrentWriteRead
        });
    }
    if first_reads && second_writes {
        return Some(if concurrent {
            DependencyKind::ConcurrentReadWrite
        } else {
            DependencyKind::NonConcurrentReadWrite
        });
    }
    None
}

/// The Figure 2a / Table 1 fixture: the state after block 1 and block 2, plus transactions
/// Txn2–Txn5 exactly as tabulated in Table 1 (Txn1, which reads across blocks, is not allowed
/// in vanilla Fabric and is represented separately by [`figure3a_txn1`]).
///
/// Returns the multi-version store positioned after block 2 and the four transactions in
/// consensus order `[Txn2, Txn3, Txn4, Txn5]`.
pub fn figure2a_fixture() -> (MultiVersionStore, Vec<Transaction>) {
    let mut store = MultiVersionStore::new();
    // State after block 1: A=(1,1)=100, B=(1,2)=101, C=(1,3)=102.
    store.put(&Key::new("A"), SeqNo::new(1, 1), Value::from_i64(100));
    store.put(&Key::new("B"), SeqNo::new(1, 2), Value::from_i64(101));
    store.put(&Key::new("C"), SeqNo::new(1, 3), Value::from_i64(102));
    store.commit_empty_block(1);
    // Block 2, transaction 1 updates B and C to 201 (versions (2,1)).
    let block2_txn = Transaction::from_parts(
        90,
        1,
        [
            (Key::new("B"), SeqNo::new(1, 2)),
            (Key::new("C"), SeqNo::new(1, 3)),
        ],
        [
            (Key::new("B"), Value::from_i64(201)),
            (Key::new("C"), Value::from_i64(201)),
        ],
    );
    store.apply_block(2, [(&block2_txn, 1)]);

    // Table 1 read/write sets (stale reads kept exactly as printed).
    let txn2 = Transaction::from_parts(
        2,
        1, // simulated against block 1: reads A(1,1), B(1,2) — B is stale by commit time
        [
            (Key::new("A"), SeqNo::new(1, 1)),
            (Key::new("B"), SeqNo::new(1, 2)),
        ],
        [(Key::new("C"), Value::from_i64(302))],
    );
    let txn3 = Transaction::from_parts(
        3,
        2,
        [(Key::new("B"), SeqNo::new(2, 1))],
        [(Key::new("C"), Value::from_i64(303))],
    );
    let txn4 = Transaction::from_parts(
        4,
        2,
        [(Key::new("C"), SeqNo::new(2, 1))],
        [(Key::new("B"), Value::from_i64(304))],
    );
    let txn5 = Transaction::from_parts(
        5,
        2,
        [(Key::new("C"), SeqNo::new(2, 1))],
        [(Key::new("A"), Value::from_i64(305))],
    );
    (store, vec![txn2, txn3, txn4, txn5])
}

/// Figure 3a's Txn1: reads A at version (1,1) and B at version (2,1) — a cross-block read that
/// is nevertheless snapshot consistent with the block-2 snapshot (Proposition 1's witness).
pub fn figure3a_txn1() -> Transaction {
    Transaction::from_parts(
        1,
        1, // started simulating right after block 1
        [
            (Key::new("A"), SeqNo::new(1, 1)),
            (Key::new("B"), SeqNo::new(2, 1)),
        ],
        [(Key::new("C"), Value::from_i64(301))],
    )
}

/// Figure 3a's Txn2: reads B at version (1,2) and C at version (2,1) — its early read of B was
/// overwritten by block 2, so no snapshot serves both reads.
pub fn figure3a_txn2() -> Transaction {
    Transaction::from_parts(
        2,
        1,
        [
            (Key::new("B"), SeqNo::new(1, 2)),
            (Key::new("C"), SeqNo::new(2, 1)),
        ],
        [(Key::new("C"), Value::from_i64(302))],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposition1_cross_block_read_can_be_snapshot_consistent() {
        let (store, _) = figure2a_fixture();
        // Txn1 of Figure 3a reads A from snapshot 1 and B from snapshot 2; both versions are
        // exactly the block-2 versions, so it is consistent with snapshot 2.
        assert_eq!(snapshot_consistency(&figure3a_txn1(), &store), Some(2));
        // Txn2's early read of B (1,2) was overwritten in block 2 — no snapshot serves it.
        assert_eq!(snapshot_consistency(&figure3a_txn2(), &store), None);
    }

    #[test]
    fn read_free_transactions_are_trivially_consistent() {
        let (store, _) = figure2a_fixture();
        let blind = Transaction::from_parts(9, 2, [], [(Key::new("Z"), Value::from_i64(1))]);
        assert_eq!(snapshot_consistency(&blind, &store), Some(2));
    }

    #[test]
    fn table1_stale_reads_are_detected_against_block2_state() {
        let (store, txns) = figure2a_fixture();
        // Txn2 read B at (1,2) but the latest committed version after block 2 is (2,1).
        let txn2 = &txns[0];
        let latest_b = store.latest(&Key::new("B")).unwrap().version;
        assert_eq!(latest_b, SeqNo::new(2, 1));
        assert_eq!(
            txn2.read_set.version_of(&Key::new("B")),
            Some(SeqNo::new(1, 2))
        );
        // Txn3/4/5 read the up-to-date versions of their keys.
        for txn in &txns[1..] {
            for read in txn.read_set.iter() {
                assert_eq!(store.latest(&read.key).unwrap().version, read.version);
            }
        }
    }

    #[test]
    fn dependency_classification_matches_figure5() {
        // Build two committed transactions sharing key A with controllable overlap.
        let mut writer_early =
            Transaction::from_parts(1, 0, [], [(Key::new("A"), Value::from_i64(1))]);
        writer_early.end_ts = Some(SeqNo::new(1, 1));

        // Non-concurrent reader of A (simulated after block 1): n-wr.
        let mut reader_late =
            Transaction::from_parts(2, 1, [(Key::new("A"), SeqNo::new(1, 1))], []);
        reader_late.end_ts = Some(SeqNo::new(2, 1));
        assert_eq!(
            classify_dependency_on_key(&writer_early, &reader_late, &Key::new("A")),
            Some(DependencyKind::NonConcurrentWriteRead)
        );

        // Concurrent reader (simulated against block 0, committed later): anti-rw.
        let mut reader_concurrent =
            Transaction::from_parts(3, 0, [(Key::new("A"), SeqNo::new(0, 1))], []);
        reader_concurrent.end_ts = Some(SeqNo::new(1, 2));
        assert_eq!(
            classify_dependency_on_key(&writer_early, &reader_concurrent, &Key::new("A")),
            Some(DependencyKind::AntiReadWrite)
        );

        // Concurrent write-write.
        let mut writer_concurrent =
            Transaction::from_parts(4, 0, [], [(Key::new("A"), Value::from_i64(2))]);
        writer_concurrent.end_ts = Some(SeqNo::new(1, 3));
        assert_eq!(
            classify_dependency_on_key(&writer_early, &writer_concurrent, &Key::new("A")),
            Some(DependencyKind::ConcurrentWriteWrite)
        );

        // Non-concurrent write-write.
        let mut writer_late =
            Transaction::from_parts(5, 1, [], [(Key::new("A"), Value::from_i64(3))]);
        writer_late.end_ts = Some(SeqNo::new(2, 2));
        assert_eq!(
            classify_dependency_on_key(&writer_early, &writer_late, &Key::new("A")),
            Some(DependencyKind::NonConcurrentWriteWrite)
        );

        // Reader first, writer second, concurrent: c-rw; non-concurrent: n-rw.
        let mut reader_first =
            Transaction::from_parts(6, 0, [(Key::new("A"), SeqNo::new(0, 1))], []);
        reader_first.end_ts = Some(SeqNo::new(1, 1));
        let mut concurrent_writer =
            Transaction::from_parts(7, 0, [], [(Key::new("A"), Value::from_i64(9))]);
        concurrent_writer.end_ts = Some(SeqNo::new(1, 2));
        assert_eq!(
            classify_dependency_on_key(&reader_first, &concurrent_writer, &Key::new("A")),
            Some(DependencyKind::ConcurrentReadWrite)
        );
        let mut later_writer =
            Transaction::from_parts(8, 1, [], [(Key::new("A"), Value::from_i64(9))]);
        later_writer.end_ts = Some(SeqNo::new(2, 3));
        assert_eq!(
            classify_dependency_on_key(&reader_first, &later_writer, &Key::new("A")),
            Some(DependencyKind::NonConcurrentReadWrite)
        );

        // No shared access → no dependency.
        assert_eq!(
            classify_dependency_on_key(&writer_early, &reader_late, &Key::new("Z")),
            None
        );
    }
}

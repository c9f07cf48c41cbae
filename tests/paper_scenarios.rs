//! The paper's worked examples and theorems, end to end: Table 1 / Figure 2a, the Figure 3a
//! snapshot-consistency examples, Theorem 1 (Strong Serializability of anti-rw-free systems)
//! and Theorem 2 (unreorderable cycles are rejected before ordering, reorderable ones are not).

use fabricsharp::baselines::api::{table1_commits, SystemKind};
use fabricsharp::core::theory::{
    figure2a_fixture, figure3a_txn1, figure3a_txn2, snapshot_consistency,
};
use fabricsharp::prelude::*;

#[test]
fn table1_fabric_commits_only_txn3() {
    assert_eq!(table1_commits(SystemKind::Fabric), vec![3]);
}

#[test]
fn table1_fabricpp_commits_txn4_and_txn5() {
    let mut commits = table1_commits(SystemKind::FabricPlusPlus);
    commits.sort();
    assert_eq!(commits, vec![4, 5]);
}

#[test]
fn table1_fabricsharp_commits_two_serializable_transactions() {
    // FabricSharp is not pinned to the same pair as Fabric++, but it must commit at least as
    // many transactions as vanilla Fabric and its choice must be serializable together with
    // the block-2 writer it knows about.
    let commits = table1_commits(SystemKind::FabricSharp);
    assert!(
        commits.len() >= 2,
        "Fabric# should save at least two of the four, got {commits:?}"
    );
    assert!(
        !commits.contains(&2),
        "Txn2 closes a cycle with the committed block-2 writer"
    );
}

#[test]
fn figure3a_snapshot_consistency_examples() {
    let (store, _) = figure2a_fixture();
    // Proposition 1: Txn1 reads across blocks yet is consistent with snapshot 2.
    assert_eq!(snapshot_consistency(&figure3a_txn1(), &store), Some(2));
    // Txn2's early read was overwritten: no snapshot serves both reads.
    assert_eq!(snapshot_consistency(&figure3a_txn2(), &store), None);
}

#[test]
fn theorem1_anti_rw_free_systems_are_strongly_serializable() {
    // The vanilla-Fabric history from the Table 1 scenario (only Txn3 commits after the block-2
    // writer) must be strongly serializable; so must any prefix of commits produced by Fabric.
    let (_, txns) = figure2a_fixture();
    let mut history: Vec<Transaction> = Vec::new();
    let mut block2_writer = Transaction::from_parts(
        90,
        1,
        [],
        [
            (Key::new("B"), Value::from_i64(201)),
            (Key::new("C"), Value::from_i64(201)),
        ],
    );
    block2_writer.end_ts = Some(SeqNo::new(2, 1));
    history.push(block2_writer);
    let mut txn3 = txns[1].clone();
    txn3.end_ts = Some(SeqNo::new(3, 1));
    history.push(txn3);
    assert!(is_strongly_serializable(&history));
    assert!(is_serializable(&history));
}

#[test]
fn theorem2_unreorderable_cycle_is_rejected_but_cww_cycle_is_not() {
    // Figure 7a: a cycle made purely of read-write conflicts between pending transactions can
    // never be serialized by reordering → the closing transaction is rejected.
    let mut cc = FabricSharpCC::with_defaults();
    let t1 = Transaction::from_parts(
        1,
        0,
        [(Key::new("X"), SeqNo::new(0, 1))],
        [(Key::new("Y"), Value::from_i64(1))],
    );
    let t2 = Transaction::from_parts(
        2,
        0,
        [(Key::new("Y"), SeqNo::new(0, 2))],
        [(Key::new("X"), Value::from_i64(2))],
    );
    assert!(cc.on_arrival(t1).is_accept());
    assert!(
        !cc.on_arrival(t2).is_accept(),
        "pure rw cycle must be rejected (Theorem 2)"
    );

    // Figure 7b: when the cycle involves a c-ww between pending transactions, reordering can
    // flip that edge, so everything is accepted and the block commit order resolves it.
    let mut cc = FabricSharpCC::with_defaults();
    let a = Transaction::from_parts(
        10,
        0,
        [(Key::new("P"), SeqNo::new(0, 1))],
        [(Key::new("Q"), Value::from_i64(1))],
    );
    let b = Transaction::from_parts(
        11,
        0,
        [],
        [
            (Key::new("P"), Value::from_i64(2)),
            (Key::new("R"), Value::from_i64(2)),
        ],
    );
    let c = Transaction::from_parts(
        12,
        0,
        [],
        [
            (Key::new("R"), Value::from_i64(3)),
            (Key::new("Q"), Value::from_i64(3)),
        ],
    );
    assert!(cc.on_arrival(a).is_accept());
    assert!(cc.on_arrival(b).is_accept());
    assert!(cc.on_arrival(c).is_accept());
    let block = cc.cut_block();
    assert_eq!(block.len(), 3);
    // The committed block must itself be serializable.
    assert!(is_serializable(&block));
    // And the reader of P must be ordered before the pending writer of P.
    let pos = |id: u64| block.iter().position(|t| t.id.0 == id).unwrap();
    assert!(
        pos(10) < pos(11),
        "anti-rw order must be respected by the reordering"
    );
}

#[test]
fn lemma2_reordering_preserves_concurrency_relationships() {
    // Take a pending set, record pairwise concurrency before the cut (treating "would commit in
    // the next block" as the end timestamp), and verify the relationship is unchanged by the
    // slots the reordering actually assigns.
    let mut cc = FabricSharpCC::with_defaults();
    let txns: Vec<Transaction> = (0..6u64)
        .map(|i| {
            Transaction::from_parts(
                i + 1,
                0,
                [(Key::new(format!("r{i}")), SeqNo::new(0, 1))],
                [(Key::new(format!("w{}", i % 3)), Value::from_i64(i as i64))],
            )
        })
        .collect();
    for txn in &txns {
        assert!(cc.on_arrival(txn.clone()).is_accept());
    }
    let block = cc.cut_block();
    // All transactions were simulated against block 0 and all commit in block 1, so every pair
    // must be concurrent both before and after reordering.
    for a in &block {
        for b in &block {
            if a.id != b.id {
                assert!(a.is_concurrent_with(b));
            }
        }
    }
    assert_eq!(block.len(), txns.len());
}

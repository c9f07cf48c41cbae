//! Property-based end-to-end tests: for randomly generated contended workloads, every history
//! committed by FabricSharp (which skips peer validation entirely) is serializable according to
//! the independent multi-version serialization-graph oracle, and the validating systems never
//! commit a non-serializable history either.

use fabricsharp::prelude::*;
use proptest::prelude::*;

/// A compact description of one generated transaction: which of 6 keys it reads and writes.
#[derive(Clone, Debug)]
struct TxnShape {
    reads: Vec<u8>,
    writes: Vec<u8>,
}

/// One transaction in three writes without reading: blind writers of one key form ww pairs
/// that no read orders, the pairs Algorithm 5 restores at formation.
fn txn_shape_strategy() -> impl Strategy<Value = TxnShape> {
    prop_oneof![
        1 => proptest::collection::vec(0u8..6, 1..4)
            .prop_map(|writes| TxnShape { reads: Vec::new(), writes }),
        2 => (
            proptest::collection::vec(0u8..6, 0..3),
            proptest::collection::vec(0u8..6, 1..3),
        )
            .prop_map(|(reads, writes)| TxnShape { reads, writes }),
    ]
}

/// The 64-bit, one-hash reach filters of the accept-rule specification: a few dozen
/// transactions saturate them, so Algorithm 5 meets filter false positives on ww pairs.
fn tiny_filters() -> CcConfig {
    CcConfig {
        bloom_bits: 64,
        bloom_hashes: 1,
        ..CcConfig::default()
    }
}

/// Runs the generated workload through `chain`, endorsing every transaction on the snapshot
/// `lag` blocks behind the tip and sealing a block every `block_size` submissions, and returns
/// the chain.
fn run_workload(
    mut chain: SimpleChain,
    shapes: &[TxnShape],
    block_size: usize,
    lag: u64,
) -> SimpleChain {
    let keys: Vec<Key> = (0..6).map(|i| Key::new(format!("k{i}"))).collect();
    chain.seed(keys.iter().map(|k| (k.clone(), Value::from_i64(100))));

    for (i, shape) in shapes.iter().enumerate() {
        let reads: Vec<Key> = shape
            .reads
            .iter()
            .map(|r| keys[*r as usize].clone())
            .collect();
        let writes: Vec<Key> = shape
            .writes
            .iter()
            .map(|w| keys[*w as usize].clone())
            .collect();
        let snapshot = chain.ledger().height().saturating_sub(lag);
        let txn = chain.execute_at(snapshot, |ctx| {
            let mut acc = 0i64;
            for key in &reads {
                acc += ctx.read_balance(key);
            }
            for key in &writes {
                ctx.write(key.clone(), Value::from_i64(acc + 1));
            }
        });
        let _ = chain.submit(txn);
        if (i + 1) % block_size == 0 {
            chain.seal_block();
        }
    }
    chain.seal_block();
    chain
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FabricSharp never commits a non-serializable history, even though its peers skip the
    /// MVCC validation entirely. Endorsing up to three blocks behind the tip lands anti-rw
    /// edges on committed transactions, the case Algorithm 5's ww restoration must get right.
    #[test]
    fn fabricsharp_histories_are_always_serializable(
        shapes in proptest::collection::vec(txn_shape_strategy(), 1..60),
        block_size in 2usize..12,
        lag in 0u64..4,
    ) {
        let chain = run_workload(SimpleChain::new(SystemKind::FabricSharp), &shapes, block_size, lag);
        prop_assert!(is_serializable(&chain.committed_history()));
        prop_assert!(chain.ledger().verify_integrity().is_ok());
        // FabricSharp places only guaranteed-serializable transactions in blocks, so raw and
        // effective counts coincide.
        prop_assert_eq!(chain.ledger().raw_txn_count(), chain.ledger().committed_txn_count());
    }

    /// The validating baselines also always produce serializable (indeed strongly serializable)
    /// histories — their MVCC check is the safety net.
    #[test]
    fn validating_baselines_are_strongly_serializable(
        shapes in proptest::collection::vec(txn_shape_strategy(), 1..40),
        block_size in 2usize..10,
    ) {
        for kind in [SystemKind::Fabric, SystemKind::FabricPlusPlus, SystemKind::FoccS, SystemKind::FoccL] {
            let chain = run_workload(SimpleChain::new(kind), &shapes, block_size, 0);
            prop_assert!(is_strongly_serializable(&chain.committed_history()),
                "{} committed a non-strongly-serializable history", kind);
        }
    }

    /// FabricSharp commits at least as many transactions as vanilla Fabric on the same input —
    /// the paper's core claim, at the level of a single-node pipeline.
    #[test]
    fn fabricsharp_never_commits_fewer_than_fabric(
        shapes in proptest::collection::vec(txn_shape_strategy(), 1..60),
        block_size in 2usize..12,
    ) {
        let fabric = run_workload(SimpleChain::new(SystemKind::Fabric), &shapes, block_size, 0);
        let sharp = run_workload(SimpleChain::new(SystemKind::FabricSharp), &shapes, block_size, 0);
        prop_assert!(
            sharp.ledger().committed_txn_count() >= fabric.ledger().committed_txn_count(),
            "Fabric# committed {} but Fabric committed {}",
            sharp.ledger().committed_txn_count(),
            fabric.ledger().committed_txn_count()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// FabricSharp's histories stay serializable under 64-bit, one-hash reach filters, where
    /// most ww pairs Algorithm 5 meets answer "maybe connected": a pair must still be linked
    /// unless the edge walk confirms the connection. Longer histories than above, so that the
    /// filters saturate and a skipped pair has later arrivals to close a cycle through.
    #[test]
    fn fabricsharp_histories_are_serializable_under_tiny_filters(
        shapes in proptest::collection::vec(txn_shape_strategy(), 1..300),
        block_size in 2usize..12,
        lag in 0u64..4,
    ) {
        let chain = SimpleChain::with_cc_config(SystemKind::FabricSharp, tiny_filters());
        let chain = run_workload(chain, &shapes, block_size, lag);
        prop_assert!(is_serializable(&chain.committed_history()));
        prop_assert_eq!(chain.ledger().raw_txn_count(), chain.ledger().committed_txn_count());
    }
}

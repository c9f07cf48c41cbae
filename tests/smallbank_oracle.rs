//! Randomized Zipfian Smallbank workloads through the full FabricSharp pipeline, checked
//! block-by-block against the independent multi-version serialization-graph oracle
//! (`fabricsharp_core::serializability`). FabricSharp's peers skip MVCC validation entirely —
//! the orderer-side concurrency control is the *only* thing standing between a contended
//! Smallbank workload and a non-serializable ledger, so every sealed block must keep the
//! committed history serializable.
//!
//! The proptests endorse at the tip. The snapshot-lag tests endorse whole batches a fixed
//! number of blocks behind it, as a real endorser's stale snapshot does; they must pass at
//! every lag. At `LAG` 1–3 they are what caught Algorithm 5 taking a reach-filter positive as
//! leave to skip a ww pair.

use fabricsharp::prelude::*;
use fabricsharp::workload::YcsbProfile;
use proptest::prelude::*;
use std::ops::RangeInclusive;

/// Drives `num_txns` generated templates through a FabricSharp `SimpleChain`, sealing a block
/// every `block_size` submissions and asserting the oracle after every seal.
fn run_and_check_oracle(
    kind: WorkloadKind,
    num_accounts: usize,
    num_txns: usize,
    block_size: usize,
    seed: u64,
) -> SimpleChain {
    let mut params = WorkloadParams::default();
    params.num_accounts = num_accounts;
    let mut generator = WorkloadGenerator::new(kind, params, seed);
    let mut chain = SimpleChain::new(SystemKind::FabricSharp);
    chain.seed(generator.genesis());

    for i in 0..num_txns {
        let template = generator.next_template();
        let txn = chain.execute(|ctx| template.run(ctx));
        let _ = chain.submit(txn);
        if (i + 1) % block_size == 0 {
            chain.seal_block();
            // The satellite invariant: every block FabricSharpCC commits keeps the whole
            // committed history serializable (not just the latest block in isolation).
            assert!(
                is_serializable(&chain.committed_history()),
                "history became non-serializable after sealing block {}",
                chain.ledger().height()
            );
        }
    }
    chain.seal_block();
    assert!(is_serializable(&chain.committed_history()));
    chain
}

/// Transactions per block of the snapshot-lag runs (the paper's default block size).
const LAG_BLOCK_SIZE: usize = 100;
/// Blocks per run at the tip, where every run must pass inside tier-1's time budget.
const TIP_BLOCKS: usize = 15;
/// Seeds the run at the tip covers.
const TIP_SEEDS: RangeInclusive<u64> = 1..=10;
/// Blocks per snapshot-lag run behind the tip, and the seeds each lag covers. Release builds
/// run the length `perf/README.md` counted the non-serializable seeds at.
#[cfg(not(debug_assertions))]
const BEHIND_TIP: (usize, RangeInclusive<u64>) = (100, 1..=10);
/// Debug builds run a twelfth of it: a slice on which a `restore_ww` that skips a ww pair on a
/// reach-filter positive alone still commits a non-serializable history for every workload
/// and lag tested here.
#[cfg(debug_assertions)]
const BEHIND_TIP: (usize, RangeInclusive<u64>) = (20, 1..=4);

/// Drives `blocks` blocks through a FabricSharp `SimpleChain` at Table 2 defaults, each
/// batch endorsed against the snapshot `lag` blocks behind the tip (`SimpleChain::execute_at`),
/// and returns whether the committed history is serializable. Endorsing at the tip (`lag` 0,
/// what every test above does) never lands an anti-rw edge on a committed transaction, so the
/// reachability Algorithm 5 restores at formation is never consulted; behind the tip it is.
fn lagged_history_is_serializable(kind: WorkloadKind, seed: u64, lag: u64, blocks: usize) -> bool {
    let mut generator = WorkloadGenerator::new(kind, WorkloadParams::default(), seed);
    let mut chain = SimpleChain::new(SystemKind::FabricSharp);
    chain.seed(generator.genesis());
    for _ in 0..blocks {
        let snapshot = chain.ledger().height().saturating_sub(lag);
        let endorsed: Vec<Transaction> = (0..LAG_BLOCK_SIZE)
            .map(|_| {
                let template = generator.next_template();
                chain.execute_at(snapshot, |ctx| template.run(ctx))
            })
            .collect();
        for txn in endorsed {
            let _ = chain.submit(txn);
        }
        chain.seal_block();
    }
    is_serializable(&chain.committed_history())
}

/// The seeds of `(blocks, seeds)` on which `kind` at `lag` commits a non-serializable history.
fn non_serializable_seeds(
    kind: WorkloadKind,
    lag: u64,
    (blocks, seeds): (usize, RangeInclusive<u64>),
) -> Vec<u64> {
    seeds
        .filter(|seed| !lagged_history_is_serializable(kind.clone(), *seed, lag, blocks))
        .collect()
}

#[test]
fn lag_0_histories_are_serializable() {
    for kind in [
        WorkloadKind::Ycsb(YcsbProfile::a()),
        WorkloadKind::ModifiedSmallbank,
    ] {
        assert_eq!(
            non_serializable_seeds(kind.clone(), 0, (TIP_BLOCKS, TIP_SEEDS)),
            [],
            "{kind:?}"
        );
    }
}

#[test]
fn ycsb_a_histories_are_serializable_behind_the_tip() {
    for lag in 1..=3 {
        assert_eq!(
            non_serializable_seeds(WorkloadKind::Ycsb(YcsbProfile::a()), lag, BEHIND_TIP),
            [],
            "LAG {lag}"
        );
    }
}

#[test]
fn modified_smallbank_histories_are_serializable_at_lag_2() {
    assert_eq!(
        non_serializable_seeds(WorkloadKind::ModifiedSmallbank, 2, BEHIND_TIP),
        []
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The Section 5.4 mixed Smallbank workload under Zipfian account selection: high skew
    /// concentrates reads and writes on a handful of hot accounts, which is exactly the regime
    /// where a broken cycle check would let a non-serializable block through.
    #[test]
    fn mixed_smallbank_zipfian_blocks_are_serializable(
        theta in 0.0f64..0.99,
        num_accounts in 4usize..24,
        num_txns in 20usize..100,
        block_size in 2usize..10,
        seed in any::<u64>(),
    ) {
        let chain = run_and_check_oracle(
            WorkloadKind::MixedSmallbank { theta },
            num_accounts,
            num_txns,
            block_size,
            seed,
        );
        // FabricSharp blocks contain only guaranteed-serializable transactions, so the ledger
        // carries no invalidated entries, and the hash chain must verify.
        prop_assert_eq!(chain.ledger().raw_txn_count(), chain.ledger().committed_txn_count());
        prop_assert!(chain.ledger().verify_integrity().is_ok());
    }

    /// The Section 5.2 modified Smallbank workload (4 reads + 4 writes per transaction, hot
    /// account ratios) — denser read/write sets than the mixed workload, so the dependency
    /// graph sees far more rw/ww edges per transaction.
    #[test]
    fn modified_smallbank_blocks_are_serializable(
        num_accounts in 8usize..24,
        num_txns in 20usize..80,
        block_size in 2usize..8,
        seed in any::<u64>(),
    ) {
        let chain = run_and_check_oracle(
            WorkloadKind::ModifiedSmallbank,
            num_accounts,
            num_txns,
            block_size,
            seed,
        );
        prop_assert_eq!(chain.ledger().raw_txn_count(), chain.ledger().committed_txn_count());
        prop_assert!(chain.ledger().verify_integrity().is_ok());
    }

    /// Under extreme skew (theta fixed at 0.95, very few accounts) FabricSharp must still
    /// commit strictly serializable blocks AND make progress: at least one transaction of a
    /// non-trivial stream commits — the reorderer exists precisely so hotspot contention does
    /// not abort everything.
    #[test]
    fn hotspot_contention_still_commits_serializably(
        num_txns in 30usize..90,
        block_size in 3usize..8,
        seed in any::<u64>(),
    ) {
        let chain = run_and_check_oracle(
            WorkloadKind::MixedSmallbank { theta: 0.95 },
            4,
            num_txns,
            block_size,
            seed,
        );
        prop_assert!(
            chain.ledger().committed_txn_count() > 0,
            "hotspot workload committed nothing at all"
        );
    }
}

//! Cold-replay recovery under the template fast path.
//!
//! With `CcConfig::template_fastpath` on, statically safe transactions commit without ever
//! being graph-inserted — but they still land in the ledger, and an orderer that restarts
//! must rebuild a correct controller from that ledger alone. This battery pins the recovery
//! contract three ways:
//!
//! 1. a ledger produced with the fast path **on** is bit-identical to the fastpath-off ledger
//!    (the knob never leaks into the persisted artefact);
//! 2. recovering from that ledger with the fast path on and off yields controllers that
//!    resume at the same block and make identical decisions on fresh in-contract arrivals,
//!    cut for cut;
//! 3. replaying the ledger's committed writes into a genesis-seeded store reproduces the live
//!    chain's store (the "identical stores" half of a cold replay).

use fabricsharp::baselines::{SimpleChain, SystemKind};
use fabricsharp::common::config::{CcConfig, WorkloadParams};
use fabricsharp::common::rwset::{Key, Value};
use fabricsharp::common::txn::{TemplateClass, Transaction};
use fabricsharp::core::recovery::recover_from_ledger;
use fabricsharp::core::FabricSharpCC;
use fabricsharp::ledger::Ledger;
use fabricsharp::vstore::MultiVersionStore;
use fabricsharp::workload::generator::{WorkloadGenerator, WorkloadKind};
use fabricsharp::workload::YcsbProfile;
use proptest::prelude::*;

/// Drives a live FabricSharp chain over a classified workload stream — tagging every
/// transaction exactly like the simulator does — and returns it.
fn build_chain(
    kind: WorkloadKind,
    num_accounts: usize,
    num_txns: usize,
    block_size: usize,
    seed: u64,
    fastpath: bool,
) -> SimpleChain {
    let params = WorkloadParams {
        num_accounts,
        ..WorkloadParams::default()
    };
    let mut generator = WorkloadGenerator::new(kind, params, seed);
    let analyzer = generator.analyzer();
    let mut chain = SimpleChain::with_template_fastpath(SystemKind::FabricSharp, fastpath);
    chain.seed(generator.genesis());
    for i in 0..num_txns {
        let template = generator.next_template();
        let class = analyzer.classify_instance(&template);
        let txn = chain
            .execute(|ctx| template.run(ctx))
            .with_template_class(class);
        let _ = chain.submit(txn);
        if (i + 1) % block_size == 0 {
            chain.seal_block();
        }
    }
    chain.seal_block();
    chain
}

/// [`build_chain`]'s ledger.
fn build_ledger(
    kind: WorkloadKind,
    num_accounts: usize,
    num_txns: usize,
    block_size: usize,
    seed: u64,
    fastpath: bool,
) -> Ledger {
    build_chain(kind, num_accounts, num_txns, block_size, seed, fastpath)
        .ledger()
        .clone()
}

fn recovered(ledger: &Ledger, fastpath: bool) -> FabricSharpCC {
    let (cc, report) = recover_from_ledger(
        ledger,
        CcConfig {
            template_fastpath: fastpath,
            track_exact_reachability: true,
            ..CcConfig::default()
        },
    )
    .expect("ledger verifies");
    assert_eq!(report.ledger_height, ledger.height());
    cc
}

/// An in-contract probe for the CreateAccount mix: a fresh write-only account nobody else
/// touches, i.e. exactly the traffic the classifier marked safe.
fn fresh_probe(id: u64, snapshot: u64) -> Transaction {
    Transaction::from_parts(
        id,
        snapshot,
        [],
        [
            (Key::new(format!("checking:{id}")), Value::from_i64(1_000)),
            (Key::new(format!("savings:{id}")), Value::from_i64(1_000)),
        ],
    )
    .with_template_class(TemplateClass::Safe)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A cold replay of a fastpath-on ledger must rebuild equivalent controllers whether the
    /// recovering orderer has the fast path on or off — same resume block, same verdicts on
    /// fresh in-contract arrivals, same post-recovery blocks.
    #[test]
    fn cold_replay_rebuilds_identical_controllers(
        seed in any::<u64>(),
        num_txns in 20usize..48,
        block_size in 3usize..7,
    ) {
        let num_accounts = 16usize;
        // The safe-writer mix: every transaction is classified safe, so with the fast path on
        // *nothing* in the ledger suffix was ever graph-inserted — the adversarial case for
        // recovery.
        let ledger_on = build_ledger(
            WorkloadKind::CreateAccount, num_accounts, num_txns, block_size, seed, true,
        );
        let ledger_off = build_ledger(
            WorkloadKind::CreateAccount, num_accounts, num_txns, block_size, seed, false,
        );
        // (1) The knob never leaks into the persisted artefact.
        prop_assert_eq!(ledger_on.tip_hash(), ledger_off.tip_hash());
        prop_assert!(ledger_on.height() >= 2, "degenerate run: height {}", ledger_on.height());

        let mut with_fastpath = recovered(&ledger_on, true);
        let mut without = recovered(&ledger_on, false);

        // (2) Same resume point. The fastpath recoverer logged the safe suffix as
        // untracked commits instead of graph nodes; the reference recoverer inserted
        // committed nodes — both must know every replayed transaction.
        prop_assert_eq!(with_fastpath.next_block(), without.next_block());
        prop_assert!(with_fastpath.graph().len() <= without.graph().len());
        // Only the replayed suffix matters: recovery (and the untracked-commit log's
        // pruning schedule) both cut off `max_span` blocks below the tip.
        let replay_from = ledger_on
            .height()
            .saturating_sub(CcConfig::default().max_span)
            .max(1);
        for block in ledger_on.iter().filter(|b| b.number() >= replay_from) {
            for entry in &block.entries {
                if entry.status.is_committed() {
                    prop_assert!(
                        with_fastpath.graph().knows(entry.txn.id),
                        "fastpath recoverer must know replayed txn {:?}",
                        entry.txn.id
                    );
                }
            }
        }

        // Identical decisions on fresh in-contract arrivals...
        let base = 100_000u64;
        let snapshot = ledger_on.height();
        for i in 0..6u64 {
            let probe = fresh_probe(base + i, snapshot.saturating_sub(i % 3));
            let d_on = with_fastpath.on_arrival(probe.clone()).is_accept();
            let d_off = without.on_arrival(probe).is_accept();
            prop_assert_eq!(d_on, d_off, "probe {} diverged", i);
        }

        // ...and identical blocks when the recovered controllers keep running.
        let cut_on = with_fastpath.cut_block();
        let cut_off = without.cut_block();
        let ids_on: Vec<_> = cut_on.iter().map(|t| (t.id, t.end_ts)).collect();
        let ids_off: Vec<_> = cut_off.iter().map(|t| (t.id, t.end_ts)).collect();
        prop_assert_eq!(ids_on, ids_off, "post-recovery block diverged");
    }

    /// Same contract on an *instance-rescued* ledger: write-partitioned YCSB-B interleaves
    /// untracked commits (reads the analyzer proved miss the write tail) with graph-inserted
    /// ones (writers and tail reads) inside every block — the adversarial case for the
    /// splice-preserving recovery rebuild. The ledger must not depend on the knob, and
    /// recovered controllers must agree on resume point, replayed-suffix knowledge, verdicts
    /// on fresh rescued/unknown arrivals, and the next cut.
    #[test]
    fn cold_replay_of_an_instance_rescued_ledger_is_equivalent(
        seed in any::<u64>(),
        num_txns in 24usize..44,
        block_size in 4usize..8,
    ) {
        use fabricsharp::common::version::SeqNo;

        let num_accounts = 64usize;
        // Partition the top quarter: reads below index 48 are provably safe instances.
        let kind = WorkloadKind::Ycsb(YcsbProfile::b().with_write_partition(0.25));
        let ledger_on =
            build_ledger(kind.clone(), num_accounts, num_txns, block_size, seed, true);
        let ledger_off = build_ledger(kind, num_accounts, num_txns, block_size, seed, false);
        prop_assert_eq!(ledger_on.tip_hash(), ledger_off.tip_hash());
        prop_assert!(ledger_on.height() >= 2, "degenerate run: height {}", ledger_on.height());

        let mut with_fastpath = recovered(&ledger_on, true);
        let mut without = recovered(&ledger_on, false);
        prop_assert_eq!(with_fastpath.next_block(), without.next_block());
        prop_assert!(with_fastpath.graph().len() <= without.graph().len());
        let replay_from = ledger_on
            .height()
            .saturating_sub(CcConfig::default().max_span)
            .max(1);
        for block in ledger_on.iter().filter(|b| b.number() >= replay_from) {
            for entry in &block.entries {
                if entry.status.is_committed() {
                    prop_assert!(
                        with_fastpath.graph().knows(entry.txn.id),
                        "fastpath recoverer must know replayed txn {:?}",
                        entry.txn.id
                    );
                }
            }
        }

        // Fresh in-contract arrivals: rescued reads (below the partition, tagged Safe by
        // the instance rule) interleaved with unknown writers into the tail.
        let base = 200_000u64;
        let snapshot = ledger_on.height();
        for i in 0..6u64 {
            let probe = if i % 2 == 0 {
                Transaction::from_parts(
                    base + i,
                    snapshot,
                    [(Key::new(format!("usertable:{}", i % 48)), SeqNo::zero())],
                    [],
                )
                .with_template_class(TemplateClass::Safe)
            } else {
                Transaction::from_parts(
                    base + i,
                    snapshot,
                    [],
                    [(Key::new(format!("usertable:{}", 48 + i % 16)), Value::from_i64(1))],
                )
            };
            let d_on = with_fastpath.on_arrival(probe.clone()).is_accept();
            let d_off = without.on_arrival(probe).is_accept();
            prop_assert_eq!(d_on, d_off, "probe {} diverged", i);
        }
        let cut_on = with_fastpath.cut_block();
        let cut_off = without.cut_block();
        let ids_on: Vec<_> = cut_on.iter().map(|t| (t.id, t.end_ts)).collect();
        let ids_off: Vec<_> = cut_off.iter().map(|t| (t.id, t.end_ts)).collect();
        prop_assert_eq!(ids_on, ids_off, "post-recovery block diverged");
    }

    /// The state-store half of the cold replay: the committed writes of a fastpath-on ledger,
    /// replayed into a genesis-seeded store, reproduce the live chain's store.
    #[test]
    fn store_replay_of_a_fastpath_ledger_matches_the_live_store(
        seed in any::<u64>(),
        num_txns in 20usize..40,
        block_size in 3usize..7,
    ) {
        let num_accounts = 12usize;
        let chain = build_chain(
            WorkloadKind::CreateAccount, num_accounts, num_txns, block_size, seed, true,
        );
        let ledger = chain.ledger();
        prop_assert!(ledger.height() >= 2);

        let params = WorkloadParams { num_accounts, ..WorkloadParams::default() };
        let generator = WorkloadGenerator::new(WorkloadKind::CreateAccount, params, seed);
        let mut replayed = MultiVersionStore::new();
        replayed.seed_genesis(generator.genesis());
        for block in ledger.iter() {
            let committed: Vec<_> = block.committed().collect();
            replayed.apply_block(block.number(), committed);
        }
        prop_assert_eq!(replayed.last_block(), ledger.height());
        prop_assert_eq!(&replayed, chain.store());
    }
}

//! Cold-replay recovery under the template fast path.
//!
//! Statically safe transactions (tagged `TemplateClass::Safe`) commit without ever being
//! graph-inserted — but they still land in the ledger, tag included, and an orderer that
//! restarts must rebuild a correct controller from that ledger alone. The reference is the
//! same input with every tag replaced by `TemplateClass::Unknown`, which takes the full path.
//! This battery pins the recovery contract four ways:
//!
//! 1. a ledger produced from tagged inputs, its tags cleared, has the same tip as the one
//!    produced from the same inputs untagged (the bypass leaks into the persisted artefact
//!    only as the tags themselves);
//! 2. recovering each of the two ledgers yields controllers that resume at the same block and
//!    make identical decisions on fresh in-contract arrivals, cut for cut — on an all-`Safe`
//!    ledger and on one where `Safe` and tracked commits interleave inside every block;
//! 3. replaying the ledger's committed writes into a genesis-seeded store reproduces the live
//!    chain's store (the "identical stores" half of a cold replay);
//! 4. the benchmark's `create_account_durable` shape — Create-Account endorsed two blocks
//!    behind the tip, a checkpoint every 500 blocks, cold recovery from disk — reaches the same
//!    tip (tags cleared) and recovered store tagged and untagged.

use fabricsharp::baselines::{SimpleChain, SystemKind};
use fabricsharp::common::config::{CcConfig, WorkloadParams};
use fabricsharp::common::rwset::{Key, Value};
use fabricsharp::common::txn::{TemplateClass, Transaction};
use fabricsharp::core::recovery::recover_from_ledger;
use fabricsharp::core::FabricSharpCC;
use fabricsharp::ledger::{recover_from_disk, Digest, Ledger};
use fabricsharp::vstore::MultiVersionStore;
use fabricsharp::workload::generator::{TxnTemplate, WorkloadGenerator, WorkloadKind};
use proptest::prelude::*;

mod common;
use common::untagged_tip;

/// Drives a live FabricSharp chain over a classified workload stream — tagging every
/// transaction exactly like the simulator does when `tagged`, leaving every one `Unknown`
/// otherwise — and returns it.
fn build_chain(
    kind: WorkloadKind,
    num_accounts: usize,
    num_txns: usize,
    block_size: usize,
    seed: u64,
    tagged: bool,
) -> SimpleChain {
    let mut params = WorkloadParams::default();
    params.num_accounts = num_accounts;
    let mut generator = WorkloadGenerator::new(kind, params, seed);
    let classifier = generator.analyzer();
    let genesis = generator.genesis();
    let txns = (0..num_txns)
        .map(|_| {
            let template = generator.next_template();
            let class = classifier.classify_instance(&template);
            (template, class)
        })
        .collect();
    drive_chain(&(genesis, txns), block_size, tagged)
}

/// A genesis and the classified templates to run on it.
type Stream = (Vec<(Key, Value)>, Vec<(TxnTemplate, TemplateClass)>);

/// Feeds `stream` to a fresh FabricSharp chain seeded with its genesis, each transaction
/// carrying its class when `tagged` and `Unknown` otherwise, sealing a block every
/// `block_size`.
fn drive_chain((genesis, txns): &Stream, block_size: usize, tagged: bool) -> SimpleChain {
    let mut chain = SimpleChain::new(SystemKind::FabricSharp);
    chain.seed(genesis.clone());
    for (i, (template, class)) in txns.iter().enumerate() {
        let txn = chain
            .execute(|ctx| template.run(ctx))
            .with_template_class(tag(*class, tagged));
        let _ = chain.submit(txn);
        if (i + 1) % block_size == 0 {
            chain.seal_block();
        }
    }
    chain.seal_block();
    chain
}

/// Create-Account instances tagged `Safe` alternating with modified-Smallbank instances tagged
/// `Unknown`, over one Smallbank genesis of `num_accounts` accounts. The tags are set by hand
/// (the family rule would demote Create-Account in this mix) and are sound: Create-Account ids
/// start at `num_accounts` and Smallbank draws accounts below it, so no Smallbank instance
/// touches a key a Create-Account writes. Debug builds re-check every `Safe` arrival.
fn interleaved_stream(num_accounts: usize, num_txns: usize, seed: u64) -> Stream {
    let mut params = WorkloadParams::default();
    params.num_accounts = num_accounts;
    let mut create = WorkloadGenerator::new(WorkloadKind::CreateAccount, params, seed);
    let mut smallbank = WorkloadGenerator::new(WorkloadKind::ModifiedSmallbank, params, seed);
    let txns = (0..num_txns)
        .map(|i| {
            if i % 2 == 0 {
                (create.next_template(), TemplateClass::Safe)
            } else {
                (smallbank.next_template(), TemplateClass::Unknown)
            }
        })
        .collect();
    (smallbank.genesis(), txns)
}

/// `class` on the tagged side, `Unknown` on the reference side.
fn tag(class: TemplateClass, tagged: bool) -> TemplateClass {
    if tagged {
        class
    } else {
        TemplateClass::Unknown
    }
}

/// `txn` as the reference side sees it: every tag `Unknown`.
fn untagged(txn: Transaction) -> Transaction {
    txn.with_template_class(TemplateClass::Unknown)
}

/// Whether some block of `ledger` commits both a `Safe`-tagged and an `Unknown` transaction.
fn interleaves(ledger: &Ledger) -> bool {
    ledger.iter().any(|block| {
        let safe: Vec<bool> = block
            .entries
            .iter()
            .filter(|e| e.status.is_committed())
            .map(|e| e.txn.template_class.is_safe())
            .collect();
        safe.contains(&true) && safe.contains(&false)
    })
}

fn recovered(ledger: &Ledger) -> FabricSharpCC {
    let cc = recover_from_ledger(ledger, CcConfig::default()).expect("ledger verifies");
    assert_eq!(cc.next_block(), ledger.height() + 1);
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

    /// A cold replay of a tagged ledger must rebuild a controller equivalent to the one a
    /// replay of the untagged ledger builds — same resume block, same verdicts on fresh
    /// in-contract arrivals (tagged on one side, untagged on the other), same post-recovery
    /// blocks.
    #[test]
    fn cold_replay_rebuilds_identical_controllers(
        seed in any::<u64>(),
        num_txns in 20usize..48,
        block_size in 3usize..7,
    ) {
        let num_accounts = 16usize;
        // The safe-writer mix: every transaction is classified safe, so on the tagged side
        // *nothing* in the ledger suffix was ever graph-inserted — the adversarial case for
        // recovery.
        let build = |tagged| {
            build_chain(WorkloadKind::CreateAccount, num_accounts, num_txns, block_size, seed, tagged)
                .into_parts()
                .0
        };
        let (ledger_on, ledger_off) = (build(true), build(false));
        // (1) The bypass leaks into the persisted artefact only as the tags.
        prop_assert_eq!(untagged_tip(&ledger_on), ledger_off.tip_hash());
        prop_assert!(ledger_on.height() >= 2, "degenerate run: height {}", ledger_on.height());

        let mut with_fastpath = recovered(&ledger_on);
        let mut without = recovered(&ledger_off);

        // (2) Same resume point. The tagged recoverer logged the safe suffix as untracked
        // commits instead of graph nodes; the reference recoverer inserted committed nodes —
        // both must know every replayed transaction.
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
                        with_fastpath.knows(entry.txn.id),
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
            let d_off = without.on_arrival(untagged(probe)).is_accept();
            prop_assert_eq!(d_on, d_off, "probe {} diverged", i);
        }

        // ...and identical blocks when the recovered controllers keep running.
        let cut_on = with_fastpath.cut_block();
        let cut_off = without.cut_block();
        let ids_on: Vec<_> = cut_on.iter().map(|t| (t.id, t.end_ts)).collect();
        let ids_off: Vec<_> = cut_off.iter().map(|t| (t.id, t.end_ts)).collect();
        prop_assert_eq!(ids_on, ids_off, "post-recovery block diverged");
    }

    /// Same contract on a ledger where untracked commits (Create-Account, tagged `Safe`)
    /// interleave with graph-inserted ones (modified Smallbank, `Unknown`) inside every block —
    /// the adversarial case for the order-preserving recovery rebuild. The tip must not depend
    /// on the tags, and the recovered controllers must agree on resume point, replayed-suffix
    /// knowledge, verdicts on fresh `Safe` and `Unknown` arrivals, and the next cut.
    #[test]
    fn cold_replay_of_an_instance_rescued_ledger_is_equivalent(
        seed in any::<u64>(),
        num_txns in 24usize..44,
        block_size in 4usize..8,
    ) {
        use fabricsharp::common::version::SeqNo;

        let num_accounts = 64usize;
        let stream = interleaved_stream(num_accounts, num_txns, seed);
        let ledger_on = drive_chain(&stream, block_size, true).ledger().clone();
        let ledger_off = drive_chain(&stream, block_size, false).ledger().clone();
        prop_assert_eq!(untagged_tip(&ledger_on), ledger_off.tip_hash());
        prop_assert!(ledger_on.height() >= 2, "degenerate run: height {}", ledger_on.height());
        prop_assert!(interleaves(&ledger_on), "no block mixes Safe and tracked commits");

        let mut with_fastpath = recovered(&ledger_on);
        let mut without = recovered(&ledger_off);
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
                        with_fastpath.knows(entry.txn.id),
                        "fastpath recoverer must know replayed txn {:?}",
                        entry.txn.id
                    );
                }
            }
        }

        // Fresh in-contract arrivals: new accounts (tagged Safe) interleaved with unknown
        // read-writes of genesis accounts.
        let base = 200_000u64;
        let snapshot = ledger_on.height();
        for i in 0..6u64 {
            let probe = if i % 2 == 0 {
                fresh_probe(base + i, snapshot)
            } else {
                let key = Key::new(format!("checking:{}", i % num_accounts as u64));
                Transaction::from_parts(
                    base + i,
                    snapshot,
                    [(key.clone(), SeqNo::zero())],
                    [(key, Value::from_i64(1))],
                )
            };
            let d_on = with_fastpath.on_arrival(probe.clone()).is_accept();
            let d_off = without.on_arrival(untagged(probe)).is_accept();
            prop_assert_eq!(d_on, d_off, "probe {} diverged", i);
        }
        let cut_on = with_fastpath.cut_block();
        let cut_off = without.cut_block();
        let ids_on: Vec<_> = cut_on.iter().map(|t| (t.id, t.end_ts)).collect();
        let ids_off: Vec<_> = cut_off.iter().map(|t| (t.id, t.end_ts)).collect();
        prop_assert_eq!(ids_on, ids_off, "post-recovery block diverged");
    }

    /// The state-store half of the cold replay: the committed writes of a tagged ledger,
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

        let mut params = WorkloadParams::default();
        params.num_accounts = num_accounts;
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

/// Blocks in the `create_account_durable`-shaped run: past the first periodic checkpoint, so
/// recovery loads a delta checkpoint and replays the suffix above it.
const DURABLE_BLOCKS: u64 = 620;
/// Transactions per block of that run (the benchmark uses 100; the shape does not need them).
const DURABLE_BLOCK_TXNS: usize = 10;
/// Blocks of snapshot staleness at endorsement, as in the benchmark.
const LAG: u64 = 2;
/// Blocks between store checkpoints, as in the benchmark.
const CHECKPOINT_EVERY: u64 = 500;

/// What one `create_account_durable`-shaped run leaves behind.
struct DurableRun {
    tip: Digest,
    /// [`untagged_tip`] of the live ledger.
    untagged_tip: Digest,
    store: MultiVersionStore,
    accepted: u64,
    bypassed: u64,
    recovered_tip: Digest,
    recovered_store: MultiVersionStore,
    checkpoint_height: u64,
    recovered_cc: FabricSharpCC,
}

/// Create-Account endorsed `LAG` blocks behind the tip on a persisted chain with a checkpoint
/// every `CHECKPOINT_EVERY` blocks, then a cold recovery of the directory.
fn create_account_durable(seed: u64, tagged: bool) -> DurableRun {
    let dir = std::env::temp_dir().join(format!(
        "eov-fastpath-durable-{tagged}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = CcConfig {
        checkpoint_interval: CHECKPOINT_EVERY,
        ..CcConfig::default()
    };
    let mut generator =
        WorkloadGenerator::new(WorkloadKind::CreateAccount, WorkloadParams::default(), seed);
    let classifier = generator.analyzer();
    let mut chain = SimpleChain::with_cc_config(SystemKind::FabricSharp, config);
    chain.seed(generator.genesis());
    chain.persist_to(&dir).unwrap();

    let mut accepted = 0u64;
    for _ in 0..DURABLE_BLOCKS {
        let snapshot = chain.ledger().height().saturating_sub(LAG);
        for _ in 0..DURABLE_BLOCK_TXNS {
            let template = generator.next_template();
            let class = tag(classifier.classify_instance(&template), tagged);
            let txn = chain
                .execute_at(snapshot, |ctx| template.run(ctx))
                .with_template_class(class);
            accepted += u64::from(chain.submit(txn).is_accept());
        }
        let txns = chain.cut();
        let report = chain.commit(txns).unwrap();
        assert!(report.block_number.is_some(), "every batch commits");
    }

    let recovered = recover_from_disk(&dir, config).expect("cold recovery");
    let recovered_cc = recover_from_ledger(recovered.ledger.ledger(), config).expect("verifies");
    // Blocks outside the live window are read back from the directory.
    let live_untagged_tip = untagged_tip(chain.ledger());
    std::fs::remove_dir_all(&dir).unwrap();
    DurableRun {
        tip: chain.ledger().tip_hash(),
        untagged_tip: live_untagged_tip,
        store: chain.store().clone(),
        accepted,
        bypassed: chain.cc().fastpath_accepted(),
        recovered_tip: recovered.ledger.ledger().tip_hash(),
        recovered_store: recovered.store,
        checkpoint_height: recovered.checkpoint_height,
        recovered_cc,
    }
}

/// The path the benchmark's `create_account_durable` workload takes: every arrival bypasses the
/// graph, and the run — live and cold-recovered — is the one the untagged input produces.
#[test]
fn create_account_durable_runs_tagged_and_untagged_alike() {
    let tagged = create_account_durable(42, true);
    let reference = create_account_durable(42, false);

    let offered = DURABLE_BLOCKS * DURABLE_BLOCK_TXNS as u64;
    assert_eq!(tagged.accepted, offered, "Create-Account never conflicts");
    assert_eq!(
        tagged.bypassed, tagged.accepted,
        "every tagged arrival bypasses"
    );
    assert_eq!(reference.accepted, offered);
    assert_eq!(reference.bypassed, 0, "no untagged arrival bypasses");

    assert_eq!(tagged.untagged_tip, reference.tip);
    assert_eq!(tagged.store, reference.store);
    for run in [&tagged, &reference] {
        assert_eq!(run.recovered_tip, run.tip);
        assert_eq!(run.recovered_store, run.store);
        assert_eq!(run.checkpoint_height, CHECKPOINT_EVERY);
        assert_eq!(run.recovered_cc.next_block(), DURABLE_BLOCKS + 1);
    }
    assert_eq!(tagged.recovered_store, reference.recovered_store);
    // The tagged recovery replays the suffix into the untracked log, the reference into the
    // graph.
    assert!(tagged.recovered_cc.graph().is_empty());
    assert!(tagged.recovered_cc.untracked_len() > 0);
    assert!(!reference.recovered_cc.graph().is_empty());
    assert_eq!(reference.recovered_cc.untracked_len(), 0);
}

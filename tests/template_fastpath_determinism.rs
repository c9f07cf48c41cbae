//! Determinism harness for the template-robustness fast path.
//!
//! Transactions classified statically safe — per template by `eov_workload::templates`, and per
//! *instance* by the key-granular `eov_workload::conflict` analyzer — carry
//! `TemplateClass::Safe` and always bypass the dependency graph: no node insertion, no cycle
//! probing, no CW/CR/PW/PR entries, no ww-restoration participation. The bypass is a pure
//! execution-path optimisation — the paper's Algorithms 2/3/5 semantics must be preserved
//! **bit for bit**. The tag is the input, so the reference is the same input re-tagged
//! `TemplateClass::Unknown`, which takes the full path. This battery pins that contract end to
//! end: the simulator's Fabric# ledgers equal the ones recorded before the fast path became
//! unconditional, on workloads covering safe-heavy (YCSB-C: 100% reads), safe-fresh-writer
//! (CreateAccount), instance-rescued (write-partitioned YCSB-B: read arrivals whose sampled
//! keys miss the write tail are safe even though their template is not), and all-unknown
//! (YCSB-A, ModifiedSmallbank — the fast path never engages) mixes. It also pins
//! transaction-level decisions through `SimpleChain`, the structural claim that the fast path
//! actually engages (graph stays empty on read-only traffic), and — via a randomized proptest
//! over partition geometry — that instance-safe bypass preserves the raw orderer's commit
//! sequence exactly.

use fabricsharp::baselines::{SimpleChain, SystemKind};
use fabricsharp::common::config::WorkloadParams;
use fabricsharp::common::txn::{TemplateClass, TxnId};
use fabricsharp::core::serializability::is_serializable;
use fabricsharp::core::FabricSharpCC;
use fabricsharp::sim::runner::{SimulationConfig, Simulator};
use fabricsharp::workload::generator::{WorkloadGenerator, WorkloadKind};
use fabricsharp::workload::YcsbProfile;

fn base_config(workload: WorkloadKind, seed: u64) -> SimulationConfig {
    let mut config = SimulationConfig::new(SystemKind::FabricSharp, workload);
    config.duration_s = 1.2;
    config.params.num_accounts = 400;
    config.params.request_rate_tps = 400;
    config.block.max_txns_per_block = 40;
    config.seed = seed;
    config
}

/// The simulator's workloads by short name: safe-heavy, safe-fresh-writer, instance-rescued and
/// two all-unknown mixes.
fn sim_workload(name: &str) -> WorkloadKind {
    match name {
        "ycsb-c" => WorkloadKind::Ycsb(YcsbProfile::c()),
        "create" => WorkloadKind::CreateAccount,
        "ycsb-b-part" => WorkloadKind::Ycsb(YcsbProfile::b().with_write_partition(0.125)),
        "ycsb-a" => WorkloadKind::Ycsb(YcsbProfile::a()),
        "smallbank" => WorkloadKind::ModifiedSmallbank,
        other => unreachable!("no workload {other}"),
    }
}

/// The simulator tags every instance itself, so its reference is a record: per workload and
/// seed, the Fabric# tip from the last revision where the fast path could be switched off (the
/// same with it off and on), and the number of arrivals the fast path admitted there with it on.
const PINNED_TIPS: [(&str, u64, &str, u64); 10] = [
    (
        "ycsb-c",
        7,
        "32f82c228643229c5378eac137e8e6cd25acab5e7a9677789530b11eff5edf60",
        480,
    ),
    (
        "ycsb-c",
        42,
        "45604e661f00b0d1bfb9cec04f354f9bca82b1de619988c66eb321984d030eb3",
        480,
    ),
    (
        "create",
        7,
        "12c6fbd3739a6f9cd95d8feb7d0b2ecce8a1a14a13b1317214aafb54eeeefa00",
        480,
    ),
    (
        "create",
        42,
        "12c6fbd3739a6f9cd95d8feb7d0b2ecce8a1a14a13b1317214aafb54eeeefa00",
        480,
    ),
    (
        "ycsb-b-part",
        7,
        "f7cf7ed84181d402c551da5d05f37906573a9bda11952287775672c465bfffeb",
        369,
    ),
    (
        "ycsb-b-part",
        42,
        "21806602ae19e791fdd352514b6bf96b74b00cd70c282bd16a2205c8dcf672ee",
        342,
    ),
    (
        "ycsb-a",
        7,
        "3010ea7c95dc53de411ff201e270f0f2a8b0234b987988df19fd6a9ecb3186ca",
        0,
    ),
    (
        "ycsb-a",
        42,
        "12b4f03c1f21910e6226f413ebd1ee03cc658e0b92a2c1d6faf2f550849f52fe",
        0,
    ),
    (
        "smallbank",
        7,
        "5069de87096e36bfdbb8d006112cc72b8f82cf991bc31abcc8b1111dd04ff2e0",
        0,
    ),
    (
        "smallbank",
        42,
        "fbca9385a6871dfb5bd497f744b2b1dfc3fb5f69425ffdbbfc6290e799d51591",
        0,
    ),
];

#[test]
fn fastpath_ledgers_are_bit_identical_across_the_grid() {
    for (name, seed, tip, bypassed) in PINNED_TIPS {
        let context = format!("{name}/seed{seed}");
        let (report, ledger) = Simulator::run_with_ledger(&base_config(sim_workload(name), seed));
        assert!(report.committed > 0, "{context}: the run must commit work");
        assert_eq!(ledger.height(), 12, "{context}: ledger height");
        assert_eq!(ledger.tip_hash().to_hex(), tip, "{context}: tip hash");
        assert_eq!(
            report.fastpath_accepted, bypassed,
            "{context}: bypassed arrivals"
        );
        assert!(ledger.verify_integrity().is_ok(), "{context}: integrity");
    }
}

/// Transaction-level pinning through the `SimpleChain` facade: on a mix that interleaves safe
/// (read-only YCSB-C) and generic traffic, every submission's decision, every block's commit
/// order, the chain hashes and the early-abort sequences must agree between a chain fed the
/// analyzer's tags and a reference chain fed the same transactions untagged. FabricSharp peers
/// skip MVCC validation, so the serializability oracle on the fast-path chain's history is the
/// end-to-end safety check.
#[test]
fn decisions_and_commit_orders_match_transaction_for_transaction() {
    for (name, workload) in [
        ("ycsb-c", WorkloadKind::Ycsb(YcsbProfile::c())),
        ("ycsb-a", WorkloadKind::Ycsb(YcsbProfile::a())),
        (
            "ycsb-b part.",
            WorkloadKind::Ycsb(YcsbProfile::b().with_write_partition(0.125)),
        ),
        ("create-account", WorkloadKind::CreateAccount),
    ] {
        let params = WorkloadParams {
            num_accounts: 24,
            ..WorkloadParams::default()
        };
        let mut generator = WorkloadGenerator::new(workload, params, 99);
        let analyzer = generator.analyzer();

        let mut reference = SimpleChain::new(SystemKind::FabricSharp);
        let mut fast = SimpleChain::new(SystemKind::FabricSharp);
        for chain in [&mut reference, &mut fast] {
            chain.seed(generator.genesis());
        }

        for i in 0..120usize {
            let template = generator.next_template();
            let class = analyzer.classify_instance(&template);
            let txn_ref = reference.execute(|ctx| template.run(ctx));
            let txn_fast = fast
                .execute(|ctx| template.run(ctx))
                .with_template_class(class);
            assert_eq!(
                txn_ref.clone().with_template_class(class),
                txn_fast,
                "{name}: endorsement diverged at txn {i}"
            );

            let d_ref = reference.submit(txn_ref);
            let d_fast = fast.submit(txn_fast);
            assert_eq!(d_ref, d_fast, "{name}: decision diverged at txn {i}");

            if (i + 1) % 10 == 0 {
                let b_ref = reference.seal_block();
                let b_fast = fast.seal_block();
                assert_eq!(
                    b_ref.committed, b_fast.committed,
                    "{name}: commit order diverged at block {:?}",
                    b_ref.block_number
                );
                assert!(
                    is_serializable(fast.committed_history()),
                    "{name}: history became non-serializable after block {:?}",
                    b_fast.block_number
                );
            }
        }
        for chain in [&mut reference, &mut fast] {
            chain.seal_block();
        }
        assert!(is_serializable(fast.committed_history()));
        assert_eq!(
            reference.ledger().tip_hash(),
            fast.ledger().tip_hash(),
            "{name}: tip hash"
        );
        assert!(
            reference.ledger().committed_txn_count() > 0,
            "{name}: traffic must commit"
        );
        assert_eq!(
            reference.early_aborted(),
            fast.early_aborted(),
            "{name}: early-abort sequences must be identical"
        );
    }
}

/// Structural check that the fast path actually engages: on pure read-only traffic tagged
/// `Safe` the controller's graph stays empty (everything lands in the untracked-commit log),
/// while a controller fed the same traffic untagged grows its graph — and both still cut
/// identical blocks.
#[test]
fn fastpath_keeps_safe_transactions_out_of_the_graph() {
    use fabricsharp::common::rwset::Key;
    use fabricsharp::common::txn::Transaction;
    use fabricsharp::common::version::SeqNo;

    let mut fast = FabricSharpCC::with_defaults();
    let mut reference = FabricSharpCC::with_defaults();

    for batch in 0..4u64 {
        for i in 0..10u64 {
            let id = batch * 10 + i + 1;
            let txn = Transaction::from_parts(
                id,
                batch,
                [(Key::new(format!("u:{}", id % 7)), SeqNo::zero())],
                [],
            );
            assert!(fast
                .on_arrival(txn.clone().with_template_class(TemplateClass::Safe))
                .is_accept());
            assert!(reference.on_arrival(txn).is_accept());
        }
        let cut_fast = fast.cut_block();
        let cut_ref = reference.cut_block();
        let ids_fast: Vec<TxnId> = cut_fast.iter().map(|t| t.id).collect();
        let ids_ref: Vec<TxnId> = cut_ref.iter().map(|t| t.id).collect();
        assert_eq!(ids_fast, ids_ref, "batch {batch}: commit order diverged");
        assert_eq!(
            cut_fast.iter().map(|t| t.end_ts).collect::<Vec<_>>(),
            cut_ref.iter().map(|t| t.end_ts).collect::<Vec<_>>(),
            "batch {batch}: slots diverged"
        );

        assert_eq!(
            fast.graph().len(),
            0,
            "fast path must not populate the graph"
        );
        assert!(
            fast.graph().untracked_len() > 0,
            "fast path must log untracked commits"
        );
        assert!(
            !reference.graph().is_empty(),
            "reference must track every transaction"
        );
    }
}

mod instance_soundness {
    //! Randomized soundness: for arbitrary write-partition geometry, instance-safe bypass
    //! must preserve the raw orderer's commit sequence (ids *and* slots) exactly.

    use fabricsharp::common::config::{CcConfig, WorkloadParams};
    use fabricsharp::common::txn::{TemplateClass, Transaction, TxnId};
    use fabricsharp::common::version::SeqNo;
    use fabricsharp::core::endorser::SnapshotEndorser;
    use fabricsharp::core::FabricSharpCC;
    use fabricsharp::vstore::{MultiVersionStore, SnapshotManager};
    use fabricsharp::workload::generator::{WorkloadGenerator, WorkloadKind};
    use fabricsharp::workload::YcsbProfile;
    use proptest::prelude::*;

    /// Endorses `count` write-partitioned YCSB-B transactions, instance-tagged by the
    /// conflict analyzer, and returns them plus the analyzer's predicted safe count.
    fn endorsed(seed: u64, records: usize, fraction: f64, count: usize) -> (Vec<Transaction>, u64) {
        let kind = WorkloadKind::Ycsb(YcsbProfile::b().with_write_partition(fraction));
        let params = WorkloadParams {
            num_accounts: records,
            ..WorkloadParams::default()
        };
        let mut generator = WorkloadGenerator::new(kind, params, seed);
        let analyzer = generator.analyzer();
        let mut store = MultiVersionStore::new();
        store.seed_genesis(generator.genesis());
        let snapshots = SnapshotManager::new();
        snapshots.register_block(0);
        let endorser = SnapshotEndorser::new(snapshots);
        let mut predicted = 0u64;
        let txns = (0..count)
            .map(|i| {
                let template = generator.next_template();
                let class = analyzer.classify_instance(&template);
                if class.is_safe() {
                    predicted += 1;
                }
                endorser
                    .simulate_at(&store, TxnId(i as u64 + 1), 0, |ctx| template.run(ctx))
                    .with_template_class(class)
            })
            .collect();
        (txns, predicted)
    }

    /// Runs every arrival, with each transaction's tag replaced by `retag` if given, plus one
    /// cut, and returns the committed (id, slot) sequence and the runtime fast-path bypass
    /// count.
    fn commit_sequence(
        txns: &[Transaction],
        retag: Option<TemplateClass>,
    ) -> (Vec<(TxnId, SeqNo)>, u64) {
        let mut cc = FabricSharpCC::new(CcConfig::default());
        for txn in txns {
            let class = retag.unwrap_or(txn.template_class);
            let _ = cc.on_arrival(txn.clone().with_template_class(class));
        }
        let sequence = cc
            .cut_block()
            .iter()
            .map(|t| (t.id, t.end_ts.expect("cut transactions carry a slot")))
            .collect();
        (sequence, cc.stats().fastpath_accepted)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// For any partition geometry, the tagged input reproduces the commit sequence of the
        /// same input untagged, and the bypass count matches the analyzer's prediction
        /// exactly.
        #[test]
        fn instance_fastpath_preserves_the_commit_sequence(
            seed in 0u64..10_000,
            records in 50usize..500,
            fraction in 0.02f64..0.9,
        ) {
            let (txns, predicted) = endorsed(seed, records, fraction, 120);
            let (reference, untagged_bypassed) =
                commit_sequence(&txns, Some(TemplateClass::Unknown));
            prop_assert!(!reference.is_empty(), "reference run must commit work");
            prop_assert_eq!(untagged_bypassed, 0);

            let (fast, bypassed) = commit_sequence(&txns, None);
            prop_assert_eq!(&reference, &fast, "commit sequence diverged");
            prop_assert_eq!(
                predicted, bypassed,
                "analyzer predicted {} safe but the fast path bypassed {}",
                predicted, bypassed
            );
        }
    }
}

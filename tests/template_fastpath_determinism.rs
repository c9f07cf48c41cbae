//! Determinism harness for the template-robustness fast path.
//!
//! `CcConfig::template_fastpath` lets transactions classified statically safe — per template
//! by `eov_workload::templates`, and per *instance* by the key-granular
//! `eov_workload::conflict` analyzer — bypass the dependency graph entirely: no node
//! insertion, no cycle probing, no CW/CR/PW/PR entries, no ww-restoration participation. The
//! knob is a pure execution-path optimisation — the paper's Algorithms 2/3/5 semantics must
//! be preserved **bit for bit**. This battery pins that contract end to end: with the fast
//! path on, the simulator must reproduce the fastpath-off reference ledger block for block,
//! hash for hash, for all five systems, two seeds, and workloads covering safe-heavy
//! (YCSB-C: 100% reads), safe-fresh-writer (CreateAccount), instance-rescued
//! (write-partitioned YCSB-B: read arrivals whose sampled keys miss the write tail are safe
//! even though their template is not), and all-unknown (YCSB-A, ModifiedSmallbank — the knob
//! must be perfectly inert) mixes. It also pins transaction-level decisions through
//! `SimpleChain`, the structural claim that the fast path actually engages
//! (graph stays empty on read-only traffic), and — via a randomized proptest over partition
//! geometry — that instance-safe bypass preserves the raw orderer's commit sequence exactly.

use fabricsharp::baselines::{SimpleChain, SystemKind};
use fabricsharp::common::config::{CcConfig, WorkloadParams};
use fabricsharp::common::txn::TxnId;
use fabricsharp::core::serializability::is_serializable;
use fabricsharp::core::FabricSharpCC;
use fabricsharp::sim::runner::{SimulationConfig, Simulator};
use fabricsharp::sim::SimReport;
use fabricsharp::workload::generator::{WorkloadGenerator, WorkloadKind};
use fabricsharp::workload::YcsbProfile;

const SEEDS: [u64; 2] = [7, 42];

fn workloads() -> Vec<(&'static str, WorkloadKind)> {
    vec![
        // 100% reads: every transaction is statically safe — the maximal-bypass case.
        ("ycsb-c", WorkloadKind::Ycsb(YcsbProfile::c())),
        // Blind writers of fresh keys: safe through the fresh-write rule.
        ("create-account", WorkloadKind::CreateAccount),
        // Instance-rescued: the read template conflicts with the writer template, but reads
        // whose sampled keys land below the write partition are provably safe per instance.
        (
            "ycsb-b part.",
            WorkloadKind::Ycsb(YcsbProfile::b().with_write_partition(0.125)),
        ),
        // 50% updates over the full population: every instance unknown, knob inert.
        ("ycsb-a", WorkloadKind::Ycsb(YcsbProfile::a())),
        // Every template unknown: the knob must change nothing at all.
        ("modified-smallbank", WorkloadKind::ModifiedSmallbank),
    ]
}

fn base_config(system: SystemKind, workload: WorkloadKind, seed: u64) -> SimulationConfig {
    let mut config = SimulationConfig::new(system, workload);
    config.duration_s = 1.2;
    config.params.num_accounts = 400;
    config.params.request_rate_tps = 400;
    config.block.max_txns_per_block = 40;
    config.seed = seed;
    config
}

fn assert_reports_match(context: &str, reference: &SimReport, candidate: &SimReport) {
    assert_eq!(reference.offered, candidate.offered, "{context}: offered");
    assert_eq!(
        reference.committed, candidate.committed,
        "{context}: committed"
    );
    assert_eq!(
        reference.in_ledger, candidate.in_ledger,
        "{context}: in_ledger"
    );
    assert_eq!(reference.blocks, candidate.blocks, "{context}: blocks");
    // Abort counts by reason pin the verdicts: a single divergent accept/reject shifts a
    // reason bucket.
    assert_eq!(reference.aborts, candidate.aborts, "{context}: aborts");
    assert_eq!(
        reference.committed_with_anti_rw, candidate.committed_with_anti_rw,
        "{context}: anti-rw commits"
    );
}

/// The acceptance criterion: for every system × workload × seed, the fast path reproduces
/// the fastpath-off reference ledger block for block.
#[test]
fn fastpath_ledgers_are_bit_identical_across_the_grid() {
    for system in SystemKind::all() {
        for (name, workload) in workloads() {
            for seed in SEEDS {
                let reference_cfg = base_config(system, workload.clone(), seed);
                let (reference_report, reference_ledger) =
                    Simulator::run_with_ledger(&reference_cfg);
                assert!(
                    reference_report.committed > 0,
                    "{system}/{name}/seed{seed}: reference run must commit work"
                );

                let mut cfg = reference_cfg.clone();
                cfg.cc.template_fastpath = true;
                let (report, ledger) = Simulator::run_with_ledger(&cfg);
                let context = format!("{system}/{name}/seed{seed}/fastpath");

                assert_reports_match(&context, &reference_report, &report);
                assert_eq!(
                    reference_ledger.height(),
                    ledger.height(),
                    "{context}: ledger height"
                );
                for (expected, actual) in reference_ledger.iter().zip(ledger.iter()) {
                    assert_eq!(
                        expected,
                        actual,
                        "{context}: block {} diverged",
                        expected.number()
                    );
                }
                assert_eq!(
                    reference_ledger.tip_hash(),
                    ledger.tip_hash(),
                    "{context}: tip hash"
                );
                assert!(ledger.verify_integrity().is_ok(), "{context}: integrity");
            }
        }
    }
}

/// Transaction-level pinning through the `SimpleChain` facade: on a mix that interleaves safe
/// (read-only YCSB-C) and generic traffic, every submission's decision, every block's commit
/// order, the chain hashes and the early-abort sequences must agree between the fastpath-off
/// reference and the fastpath-on chain. FabricSharp peers skip MVCC validation, so the
/// serializability oracle on the fast-path chain's history is the end-to-end safety check.
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

        let mut reference = SimpleChain::with_template_fastpath(SystemKind::FabricSharp, false);
        let mut fast = SimpleChain::with_template_fastpath(SystemKind::FabricSharp, true);
        for chain in [&mut reference, &mut fast] {
            chain.seed(generator.genesis());
        }

        for i in 0..120usize {
            let template = generator.next_template();
            let class = analyzer.classify_instance(&template);
            let txn_ref = reference
                .execute(|ctx| template.run(ctx))
                .with_template_class(class);
            let txn_fast = fast
                .execute(|ctx| template.run(ctx))
                .with_template_class(class);
            assert_eq!(txn_ref, txn_fast, "{name}: endorsement diverged at txn {i}");

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

/// Structural check that the fast path actually engages: on pure read-only traffic the
/// fast-path controller's graph stays empty (everything lands in the untracked-commit log)
/// while the reference controller's graph grows — and both still cut identical blocks.
#[test]
fn fastpath_keeps_safe_transactions_out_of_the_graph() {
    use fabricsharp::common::rwset::Key;
    use fabricsharp::common::txn::{TemplateClass, Transaction};
    use fabricsharp::common::version::SeqNo;

    let mut fast = FabricSharpCC::new(CcConfig {
        template_fastpath: true,
        ..CcConfig::default()
    });
    let mut reference = FabricSharpCC::with_defaults();

    for batch in 0..4u64 {
        for i in 0..10u64 {
            let id = batch * 10 + i + 1;
            let txn = Transaction::from_parts(
                id,
                batch,
                [(Key::new(format!("u:{}", id % 7)), SeqNo::zero())],
                [],
            )
            .with_template_class(TemplateClass::Safe);
            assert!(fast.on_arrival(txn.clone()).is_accept());
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
    use fabricsharp::common::txn::{Transaction, TxnId};
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

    /// Runs every arrival plus one cut and returns the committed (id, slot) sequence and the
    /// runtime fast-path bypass count.
    fn commit_sequence(txns: &[Transaction], config: CcConfig) -> (Vec<(TxnId, SeqNo)>, u64) {
        let mut cc = FabricSharpCC::new(config);
        for txn in txns {
            let _ = cc.on_arrival(txn.clone());
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

        /// For any partition geometry, fast path on reproduces the fastpath-off commit
        /// sequence, and the bypass count matches the analyzer's prediction exactly.
        #[test]
        fn instance_fastpath_preserves_the_commit_sequence(
            seed in 0u64..10_000,
            records in 50usize..500,
            fraction in 0.02f64..0.9,
        ) {
            let (txns, predicted) = endorsed(seed, records, fraction, 120);
            let (reference, _) = commit_sequence(&txns, CcConfig::default());
            prop_assert!(!reference.is_empty(), "reference run must commit work");

            let (fast, bypassed) = commit_sequence(
                &txns,
                CcConfig {
                    template_fastpath: true,
                    ..CcConfig::default()
                },
            );
            prop_assert_eq!(&reference, &fast, "commit sequence diverged");
            prop_assert_eq!(
                predicted, bypassed,
                "analyzer predicted {} safe but the fast path bypassed {}",
                predicted, bypassed
            );
        }
    }
}

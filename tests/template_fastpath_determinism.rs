//! Determinism harness for the template-robustness fast path.
//!
//! Transactions whose template `eov_workload::templates` classifies statically safe carry
//! `TemplateClass::Safe` and always bypass the dependency graph: no node insertion, no cycle
//! probing, no CW/CR/PW/PR entries, no ww-restoration participation. The bypass is a pure
//! execution-path optimisation — the paper's Algorithms 2/3/5 semantics must be preserved
//! **bit for bit**. The tag is the input, so the reference is the same input re-tagged
//! `TemplateClass::Unknown`, which takes the full path. This battery pins that contract end to
//! end: the simulator's Fabric# ledgers equal the ones recorded before the fast path became
//! unconditional, on workloads covering safe-heavy (YCSB-C: 100% reads), safe-fresh-writer
//! (CreateAccount) and all-unknown (YCSB-A, ModifiedSmallbank — the fast path never engages)
//! mixes. It also pins transaction-level decisions through `SimpleChain`, at snapshots up to
//! three blocks behind the tip, and the structural claim that the fast path actually engages
//! (graph stays empty on read-only traffic).

use fabricsharp::baselines::{SimpleChain, SystemKind};
use fabricsharp::common::config::WorkloadParams;
use fabricsharp::common::txn::{TemplateClass, TxnId};
use fabricsharp::core::serializability::is_serializable;
use fabricsharp::core::FabricSharpCC;
use fabricsharp::sim::runner::{SimulationConfig, Simulator};
use fabricsharp::workload::generator::{WorkloadGenerator, WorkloadKind};
use fabricsharp::workload::YcsbProfile;

mod common;
use common::untagged_tip;

fn base_config(workload: WorkloadKind, seed: u64) -> SimulationConfig {
    let mut config = SimulationConfig::new(SystemKind::FabricSharp, workload);
    config.duration_s = 1.2;
    config.params.num_accounts = 400;
    config.params.request_rate_tps = 400;
    config.block.max_txns_per_block = 40;
    config.seed = seed;
    config
}

/// The simulator's workloads by short name: safe-heavy, safe-fresh-writer and two all-unknown
/// mixes.
fn sim_workload(name: &str) -> WorkloadKind {
    match name {
        "ycsb-c" => WorkloadKind::Ycsb(YcsbProfile::c()),
        "create" => WorkloadKind::CreateAccount,
        "ycsb-a" => WorkloadKind::Ycsb(YcsbProfile::a()),
        "smallbank" => WorkloadKind::ModifiedSmallbank,
        other => unreachable!("no workload {other}"),
    }
}

/// The simulator tags every instance itself, so its reference is a record: per workload and
/// seed, the Fabric# tip, and the number of arrivals the fast path admitted. The contents were
/// recorded at the last revision where the fast path could be switched off (the same ledger
/// with it off and on). The tips were re-pinned once, when the data hash came to cover every
/// transaction byte a record stores; these ledgers, re-chained with the previous data hash,
/// reproduce the recorded tips.
const PINNED_TIPS: [(&str, u64, &str, u64); 8] = [
    (
        "ycsb-c",
        7,
        "38a380bcb0150803d8d6183c042d636832d1be353c5e8e4c8412ba0452a3c9ca",
        480,
    ),
    (
        "ycsb-c",
        42,
        "a89eb872801e41379c9a351c1dc9fa924e3666d3862a5cb76273a35d7f15144c",
        480,
    ),
    (
        "create",
        7,
        "c65a7a27121f89f990def06eb285373adaa33429e68b0864b1002bea4119fef4",
        480,
    ),
    (
        "create",
        42,
        "c65a7a27121f89f990def06eb285373adaa33429e68b0864b1002bea4119fef4",
        480,
    ),
    (
        "ycsb-a",
        7,
        "cff8cd0c42d74be2986785aeaf23a840a99038ab2f571319091a0b7673eecd13",
        0,
    ),
    (
        "ycsb-a",
        42,
        "81831e301b8ac0f409b9b6af6597a95f5dafcc103bb05b8c6b9611b3fe81b1ce",
        0,
    ),
    (
        "smallbank",
        7,
        "033e60b5e24866ac48ec2fda7dafd69c7ccca0f99ce765a4e1eee4ec957235b4",
        0,
    ),
    (
        "smallbank",
        42,
        "b8b0a56cf1a20dc06bcf1328be8146b947263e1fbccbf4e77f8e75947ae03f55",
        0,
    ),
];

#[test]
fn fastpath_ledgers_are_bit_identical_across_the_grid() {
    for (name, seed, tip, bypassed) in PINNED_TIPS {
        let context = format!("{name}/seed{seed}");
        let (report, ledger, _) = Simulator::run_full(&base_config(sim_workload(name), seed));
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

/// Transaction-level pinning through the `SimpleChain` facade: every submission's decision,
/// every block's commit order, the chain hashes and the early-abort sequences must agree
/// between a chain fed the classifier's tags and a reference chain fed the same transactions
/// untagged. The mixes that tag anything `Safe` (YCSB-C, Create-Account) are endorsed `lag`
/// blocks behind the tip for every lag in 0..=3, so in debug builds the arrival path's shadow
/// check vouches for every `Safe` tag against stale snapshots too; YCSB-A (nothing tagged) runs
/// at the tip. FabricSharp peers skip MVCC validation, so the serializability oracle on the
/// fast-path chain's history is the end-to-end safety check.
#[test]
fn decisions_and_commit_orders_match_transaction_for_transaction() {
    let mut runs = vec![("ycsb-a", WorkloadKind::Ycsb(YcsbProfile::a()), 0)];
    for lag in 0..=3u64 {
        runs.push(("ycsb-c", WorkloadKind::Ycsb(YcsbProfile::c()), lag));
        runs.push(("create-account", WorkloadKind::CreateAccount, lag));
    }
    for (name, workload, lag) in runs {
        let name = format!("{name}/lag{lag}");
        let mut params = WorkloadParams::default();
        params.num_accounts = 24;
        let mut generator = WorkloadGenerator::new(workload, params, 99);
        let classifier = generator.analyzer();

        let mut reference = SimpleChain::new(SystemKind::FabricSharp);
        let mut fast = SimpleChain::new(SystemKind::FabricSharp);
        for chain in [&mut reference, &mut fast] {
            chain.seed(generator.genesis());
        }

        let mut safe_accepted = 0u64;
        for i in 0..120usize {
            let template = generator.next_template();
            let class = classifier.classify_instance(&template);
            let snapshot = reference.ledger().height().saturating_sub(lag);
            let txn_ref = reference.execute_at(snapshot, |ctx| template.run(ctx));
            let txn_fast = fast
                .execute_at(snapshot, |ctx| template.run(ctx))
                .with_template_class(class);
            assert_eq!(
                txn_ref.clone().with_template_class(class),
                txn_fast,
                "{name}: endorsement diverged at txn {i}"
            );

            let d_ref = reference.submit(txn_ref);
            let d_fast = fast.submit(txn_fast);
            assert_eq!(d_ref, d_fast, "{name}: decision diverged at txn {i}");
            safe_accepted += u64::from(class.is_safe() && d_fast.is_accept());

            if (i + 1) % 10 == 0 {
                let b_ref = reference.seal_block();
                let b_fast = fast.seal_block();
                assert_eq!(
                    b_ref.committed, b_fast.committed,
                    "{name}: commit order diverged at block {:?}",
                    b_ref.block_number
                );
                assert!(
                    is_serializable(&fast.committed_history()),
                    "{name}: history became non-serializable after block {:?}",
                    b_fast.block_number
                );
            }
        }
        for chain in [&mut reference, &mut fast] {
            chain.seal_block();
        }
        assert!(is_serializable(&fast.committed_history()));
        assert_eq!(
            reference.ledger().tip_hash(),
            untagged_tip(fast.ledger()),
            "{name}: tip hash with the tags cleared"
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
        assert_eq!(reference.cc().fastpath_accepted(), 0, "{name}");
        assert_eq!(
            fast.cc().fastpath_accepted(),
            safe_accepted,
            "{name}: every accepted Safe arrival must take the fast path"
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
            fast.untracked_len() > 0,
            "fast path must log untracked commits"
        );
        assert!(
            !reference.graph().is_empty(),
            "reference must track every transaction"
        );
    }
}

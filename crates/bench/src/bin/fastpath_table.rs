//! Template-fastpath measurement table: whole-orderer arrival + formation medians for each
//! workload mix, untagged vs tagged.
//!
//! ```text
//! cargo run --release -p eov-bench --bin fastpath_table
//! ```
//!
//! Replays 200 endorsed transactions of each mix through `FabricSharpCC::on_arrival` plus one
//! `cut_block`, median of 15 runs, once with every transaction tagged `Unknown` (the reference
//! path through the dependency graph) and once tagged by the template classifier exactly like
//! the simulator tags them, so the "tagged" column reflects what the fast path buys on that
//! mix: YCSB-C (100% reads) and Create-Account (fresh writes) are entirely safe and bypass the
//! graph wholesale; YCSB-A/B/F and the Smallbank mixes classify unknown throughout, so their
//! numbers must stay at ~1.0× (the fast path never engages there — and the
//! `template_fastpath_determinism` battery pins that the ledgers are bit-identical either
//! way). This binary produces the BASELINES.md "Template fast path" table.

use eov_bench::{bench_params, endorsed_txns, untagged};
use eov_common::config::CcConfig;
use eov_common::txn::Transaction;
use eov_workload::generator::WorkloadKind;
use eov_workload::YcsbProfile;
use fabricsharp_core::FabricSharpCC;
use std::time::Instant;

const RUNS: usize = 15;
const TXNS: usize = 200;

fn median_ns(txns: &[Transaction]) -> f64 {
    let body = || {
        let mut cc = FabricSharpCC::new(CcConfig::default());
        for txn in txns {
            let _ = cc.on_arrival(txn.clone());
        }
        cc.cut_block().len() as u64
    };
    std::hint::black_box(body()); // warm-up
    let mut samples: Vec<u128> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(body());
            start.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

fn main() {
    let workloads: Vec<(&str, WorkloadKind)> = vec![
        ("ycsb-a", WorkloadKind::Ycsb(YcsbProfile::a())),
        ("ycsb-b", WorkloadKind::Ycsb(YcsbProfile::b())),
        ("ycsb-c", WorkloadKind::Ycsb(YcsbProfile::c())),
        ("ycsb-f", WorkloadKind::Ycsb(YcsbProfile::f())),
        ("modified-smallbank", WorkloadKind::ModifiedSmallbank),
        (
            "mixed-smallbank θ=0.7",
            WorkloadKind::MixedSmallbank { theta: 0.7 },
        ),
        ("create-account", WorkloadKind::CreateAccount),
    ];

    println!("FabricSharp arrival + cut, {TXNS} txns, median of {RUNS} runs");
    println!("| workload | untagged (ns) | tagged (ns) | untagged/tagged |");
    println!("|---|---|---|---|");
    for (name, kind) in workloads {
        let txns = endorsed_txns(kind, bench_params(), TXNS);
        let safe = txns.iter().filter(|t| t.template_class.is_safe()).count();
        let off = median_ns(&untagged(&txns));
        let on = median_ns(&txns);
        println!(
            "| {name} ({safe}/{TXNS} safe) | {off:.0} | {on:.0} | {:.2}x |",
            off / on
        );
    }
}

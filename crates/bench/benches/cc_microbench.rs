//! Criterion micro-benchmarks of the five concurrency controls: per-transaction arrival cost
//! (the right panel of Figure 12) and per-block reordering cost (the right panel of Figure 11),
//! measured on real pending sets produced by the modified Smallbank workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eov_baselines::api::SystemKind;
use eov_bench::{bench_params, endorsed_txns};
use eov_common::config::CcConfig;
use eov_common::txn::Transaction;
use eov_workload::generator::WorkloadKind;
use std::time::Duration;

/// `count` endorsed Smallbank transactions with the given write-hot ratio.
fn sample_txns(count: usize, write_hot_ratio: f64) -> Vec<Transaction> {
    let mut params = bench_params();
    params.write_hot_ratio = write_hot_ratio;
    endorsed_txns(WorkloadKind::ModifiedSmallbank, params, count)
}

fn bench_arrival(c: &mut Criterion) {
    let txns = sample_txns(200, 0.2);
    let mut group = c.benchmark_group("arrival_processing");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    for system in SystemKind::all() {
        group.bench_with_input(
            BenchmarkId::new("200_txns", system.label()),
            &system,
            |b, &system| {
                b.iter(|| {
                    let mut cc = system.build(CcConfig::default());
                    for txn in &txns {
                        let _ = cc.on_arrival(txn.clone());
                    }
                    cc.pending_len()
                });
            },
        );
    }
    group.finish();
}

fn bench_block_formation(c: &mut Criterion) {
    let mut group = c.benchmark_group("block_formation");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    for batch in [50usize, 200] {
        let txns = sample_txns(batch, 0.2);
        for system in SystemKind::all() {
            group.bench_with_input(
                BenchmarkId::new(format!("batch_{batch}"), system.label()),
                &system,
                |b, &system| {
                    b.iter(|| {
                        let mut cc = system.build(CcConfig::default());
                        for txn in &txns {
                            let _ = cc.on_arrival(txn.clone());
                        }
                        cc.cut_block().len()
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_arrival, bench_block_formation);
criterion_main!(benches);

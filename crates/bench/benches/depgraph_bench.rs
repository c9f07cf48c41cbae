//! Criterion micro-benchmarks of the dependency-graph substrate: bloom-filter operations,
//! reachability maintenance (Algorithm 4), cycle detection (bloom vs exact) and the pending-set
//! topological sort (Algorithm 3, line 1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eov_common::config::CcConfig;
use eov_common::txn::TxnId;
use eov_common::version::SeqNo;
use eov_depgraph::{BloomFilter, DependencyGraph};
use std::time::Duration;

/// Builds a layered DAG of `n` pending transactions where each node depends on the previous
/// `fanin` nodes — a dense-but-acyclic shape similar to a contended Smallbank block.
fn layered_graph(n: u64, fanin: u64, config: CcConfig) -> DependencyGraph {
    let mut g = DependencyGraph::new(config);
    for id in 0..n {
        let preds: Vec<TxnId> = (id.saturating_sub(fanin)..id).map(TxnId).collect();
        g.insert_pending(TxnId(id), &preds, &[], 1);
    }
    g
}

fn bench_bloom(c: &mut Criterion) {
    let mut group = c.benchmark_group("bloom_filter");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2));
    group.bench_function("insert_1000", |b| {
        b.iter(|| {
            let mut f = BloomFilter::new(4096, 3);
            for i in 0..1_000u64 {
                f.insert(i);
            }
            f.popcount()
        });
    });
    let mut a = BloomFilter::new(4096, 3);
    let mut other = BloomFilter::new(4096, 3);
    for i in 0..500u64 {
        a.insert(i);
        other.insert(i + 10_000);
    }
    group.bench_function("union_4096_bits", |b| {
        b.iter(|| {
            let mut target = a.clone();
            target.union_with(&other);
            target.popcount()
        });
    });
    group.bench_function("contains_hit_and_miss", |b| {
        b.iter(|| {
            let mut hits = 0;
            for i in 0..1_000u64 {
                if a.contains(i) {
                    hits += 1;
                }
            }
            hits
        });
    });
    group.finish();
}

fn bench_graph_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("dependency_graph");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    for &n in &[100u64, 400] {
        group.bench_with_input(BenchmarkId::new("build_layered", n), &n, |b, &n| {
            b.iter(|| layered_graph(n, 3, CcConfig::default()).len());
        });
        let g = layered_graph(n, 3, CcConfig::default());
        let pending: Vec<TxnId> = (0..n).map(TxnId).collect();
        group.bench_with_input(BenchmarkId::new("topo_sort_pending", n), &n, |b, _| {
            b.iter(|| g.topo_sort_pending(&pending).len());
        });
        group.bench_with_input(BenchmarkId::new("cycle_check_bloom", n), &n, |b, _| {
            b.iter(|| g.would_close_cycle(&[TxnId(n - 1)], &[TxnId(0)]));
        });
        group.bench_with_input(BenchmarkId::new("cycle_check_exact", n), &n, |b, _| {
            b.iter(|| g.would_close_cycle_exact(&[TxnId(n - 1)], &[TxnId(0)]));
        });
    }
    group.finish();
}

/// The commit hot path: `mark_committed` was O(pending) per call (a `Vec::retain` scan) in the
/// seed and is now one slot lookup, since the graph keeps no pending list (numbers tracked in
/// BASELINES.md). Removal is timed where production performs it, in `graph_pruning`.
fn bench_commit_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_commit_path");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    for &n in &[400u64, 1600] {
        let built = layered_graph(n, 3, CcConfig::default());
        // Committing every node: one slot lookup per call.
        group.bench_with_input(BenchmarkId::new("mark_committed_all", n), &n, |b, &n| {
            b.iter(|| {
                let mut g = built.clone();
                for id in 0..n {
                    g.mark_committed(TxnId(id), SeqNo::new(1, id as u32 + 1));
                }
                g.len()
            });
        });
        // The baseline cost of the clone the bench above pays per iteration.
        group.bench_with_input(BenchmarkId::new("clone_only", n), &n, |b, _| {
            b.iter(|| built.clone().len());
        });
    }
    group.finish();
}

/// The dense reachability engine on layered graphs: `topo_sort_pending` at 512 pending is the
/// headline number; `would_close_cycle_miss` scans a preds×succs pair matrix whose probes all
/// miss, the worst case for the arrival-path pre-filter.
fn bench_reachability_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("reachability_engine");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    for &n in &[128u64, 512] {
        let dense = layered_graph(n, 3, CcConfig::default());
        let pending: Vec<TxnId> = (0..n).map(TxnId).collect();
        group.bench_with_input(BenchmarkId::new("topo_sort_pending", n), &n, |b, _| {
            b.iter(|| dense.topo_sort_pending(&pending).len());
        });
        // Early ids have (near-)empty filters, so every probe is a definite miss and the
        // whole pair matrix is scanned — the arrival-path worst case.
        let miss_preds: Vec<TxnId> = (0..8).map(TxnId).collect();
        let miss_succs: Vec<TxnId> = (n - 8..n).map(TxnId).collect();
        group.bench_with_input(BenchmarkId::new("would_close_cycle_miss", n), &n, |b, _| {
            b.iter(|| dense.would_close_cycle(&miss_preds, &miss_succs));
        });
    }
    group.finish();
}

fn bench_pruning(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_pruning");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    // A 400-node chain whose first half arrived for block 1 and second half for block 10, all
    // committed: the block-5 threshold prunes the first half.
    let aged = || {
        let mut g = DependencyGraph::new(CcConfig::default());
        for id in 0..400u64 {
            let preds: Vec<TxnId> = (id.saturating_sub(2)..id).map(TxnId).collect();
            g.insert_pending(TxnId(id), &preds, &[], if id < 200 { 1 } else { 10 });
            g.mark_committed(TxnId(id), SeqNo::new(1, id as u32 + 1));
        }
        g
    };
    assert_eq!(aged().prune_stale(5).len(), 200);
    group.bench_function("prune_half_of_400", |b| {
        b.iter(|| aged().prune_stale(5).len());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_bloom,
    bench_graph_ops,
    bench_commit_path,
    bench_reachability_engine,
    bench_pruning
);
criterion_main!(benches);

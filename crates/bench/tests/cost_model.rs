//! The cost model, as ratios between timings of one run on one host: each test times two
//! inputs that differ in the one thing its claim is about and bounds the ratio, so the host's
//! speed cancels out.
//!
//! ```text
//! cargo test --release -p eov-bench --test cost_model -- --nocapture   # prints every ratio
//! ```
//!
//! Only optimised builds carry these tests: a debug build re-checks every `Safe` arrival
//! against the dependency indices, which is the work the fast path exists to skip, and its
//! unoptimised store reads sit at the `latest()` bound. Every timing is the median of
//! [`RUNS`] runs after one warm-up (the two `latest()` passes timed in alternation); a ratio
//! that misses its bound is measured once more, so a transient load spike clears and a real
//! regression fails both times. The tests take one
//! lock, so no two of them run at once.

#![cfg(not(debug_assertions))]

use eov_bench::{
    bench_params, endorsed_txns, hot_keys_scattered, latest_pass, smallbank_store, untagged,
    GROWN_ACCOUNTS, HOT_ACCOUNTS,
};
use eov_common::config::CcConfig;
use eov_common::txn::Transaction;
use eov_workload::generator::WorkloadKind;
use eov_workload::YcsbProfile;
use fabricsharp_core::FabricSharpCC;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Timed runs per measurement; the reported number is the median.
const RUNS: usize = 15;

/// Held by every test for its whole body, fixtures included: a timed section shares the host
/// with nothing else this file runs. A failed test poisons the lock; the `()` it guards holds
/// nothing a panic could leave half-updated, so the next test takes it anyway.
fn exclusive() -> MutexGuard<'static, ()> {
    static TIMING: Mutex<()> = Mutex::new(());
    TIMING
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn median_of(mut samples: Vec<u128>) -> f64 {
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

/// Median wall-clock nanoseconds of [`RUNS`] executions of `body` (one warm-up excluded).
fn median_ns<F: FnMut() -> u64>(mut body: F) -> f64 {
    std::hint::black_box(body());
    let samples = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(body());
            start.elapsed().as_nanos()
        })
        .collect();
    median_of(samples)
}

/// Median wall-clock nanoseconds of [`RUNS`] executions of `body` and of `reference`, timed
/// in alternation (one warm-up of each excluded): a drift in the host's speed reaches both
/// alike, where timing one body's runs and then the other's compared two moments.
fn interleaved_median_ns<F: FnMut() -> u64, R: FnMut() -> u64>(
    mut body: F,
    mut reference: R,
) -> (f64, f64) {
    std::hint::black_box(body());
    std::hint::black_box(reference());
    let timed = |run: &mut dyn FnMut() -> u64| {
        let start = Instant::now();
        std::hint::black_box(run());
        start.elapsed().as_nanos()
    };
    let (samples, reference_samples) = (0..RUNS)
        .map(|_| (timed(&mut body), timed(&mut reference)))
        .unzip();
    (median_of(samples), median_of(reference_samples))
}

/// Asserts that `measure`'s `(cost, reference cost)` stand at most `bound` apart, measuring a
/// second time if the first reading misses. Prints every reading.
fn assert_cost_ratio(what: &str, bound: f64, mut measure: impl FnMut() -> (f64, f64)) {
    let mut best = f64::INFINITY;
    for attempt in 1..=2 {
        let (cost, reference) = measure();
        let ratio = cost / reference;
        println!(
            "{what}: {cost:.0} ns vs {reference:.0} ns, ratio {ratio:.3} (need <= {bound:.3}), \
             attempt {attempt}"
        );
        best = best.min(ratio);
        if best <= bound {
            return;
        }
    }
    panic!("{what}: ratio {best:.3} in the better of two readings (need <= {bound:.3})");
}

/// Every arrival plus one block cut on a fresh controller; returns the block's length.
fn arrival_and_cut_len(txns: &[Transaction]) -> u64 {
    let mut cc = FabricSharpCC::new(CcConfig::default());
    for txn in txns {
        let _ = cc.on_arrival(txn.clone());
    }
    cc.cut_block().len() as u64
}

/// Read-only YCSB-C as the template classifier tags it (all `Safe`) arrives and is cut at
/// least 1.3 times as fast as the same transactions tagged `Unknown`: the fast path skips the
/// graph, the cycle probe and the dependency indices.
#[test]
fn template_fast_path_runs_ycsb_c_at_least_1_3_times_as_fast() {
    let _only = exclusive();
    let tagged = endorsed_txns(WorkloadKind::Ycsb(YcsbProfile::c()), bench_params(), 200);
    let reference = untagged(&tagged);
    assert_cost_ratio(
        "ycsb-c arrival + cut 200, tagged / untagged",
        1.0 / 1.3,
        || {
            let reference_ns = median_ns(|| arrival_and_cut_len(&reference));
            (median_ns(|| arrival_and_cut_len(&tagged)), reference_ns)
        },
    );
}

/// Transactions per block in the history check.
const HISTORY_BATCH: usize = 100;

/// Median wall-clock nanoseconds of `cut_block` on `batch`, on a controller that first forms
/// one block per [`HISTORY_BATCH`]-sized chunk of `history`; every transaction is re-stamped
/// as endorsed against the tip it arrives at. Only the final cut is timed; with `max_span`
/// history blocks it is the first cut whose prune has a block to age out.
fn cut_after_history_ns(history: &[Transaction], batch: &[Transaction]) -> f64 {
    let arrive = |cc: &mut FabricSharpCC, txns: &[Transaction]| {
        let snapshot_block = cc.next_block() - 1;
        for txn in txns {
            let _ = cc.on_arrival(Transaction {
                snapshot_block,
                ..txn.clone()
            });
        }
    };
    let samples = (0..=RUNS)
        .map(|_| {
            let mut cc = FabricSharpCC::new(CcConfig::default());
            for chunk in history.chunks(HISTORY_BATCH) {
                arrive(&mut cc, chunk);
                cc.cut_block();
            }
            arrive(&mut cc, batch);
            let start = Instant::now();
            std::hint::black_box(cc.cut_block().len());
            start.elapsed().as_nanos()
        })
        .skip(1) // warm-up
        .collect();
    median_of(samples)
}

/// Cutting a 100-transaction Smallbank block on a controller carrying `max_span` blocks of
/// committed history costs at most twice the same cut on a fresh one: persist, prune and the
/// committed-index lookups scale with the block's footprint, not with the CW/CR indices.
#[test]
fn cut_block_cost_does_not_grow_with_committed_history() {
    let _only = exclusive();
    let max_span = CcConfig::default().max_span as usize;
    let txns = endorsed_txns(
        WorkloadKind::ModifiedSmallbank,
        bench_params(),
        (max_span + 1) * HISTORY_BATCH,
    );
    let (batch, history) = txns.split_at(HISTORY_BATCH);
    assert_cost_ratio(
        &format!("cut_block after {max_span} blocks of history / on a fresh controller"),
        2.0,
        || {
            let fresh_ns = cut_after_history_ns(&[], batch);
            (cut_after_history_ns(history, batch), fresh_ns)
        },
    );
}

/// A hot `latest()` inside a store holding 840 k further keys (`create_account_durable`'s
/// grown state) costs at most 1.5 times the same read inside the 20 k hot keys alone: a point
/// read is a hash and a probe, not a descent that deepens with the store.
#[test]
fn hot_latest_cost_does_not_grow_with_the_store() {
    let _only = exclusive();
    let hot = hot_keys_scattered();
    let small = smallbank_store(HOT_ACCOUNTS);
    let grown = smallbank_store(GROWN_ACCOUNTS);
    assert_cost_ratio("hot latest() pass, 860k-key / 20k-key store", 1.5, || {
        interleaved_median_ns(|| latest_pass(&grown, &hot), || latest_pass(&small, &hot))
    });
}

//! Simulation metrics: everything the paper's figures report.

use eov_baselines::api::SystemKind;
use eov_common::abort::AbortCounts;
use eov_ledger::LedgerError;

/// Wall-clock statistics of the per-block formation step (`cut_block`), measured — not
/// modelled — on the driver thread. This is the end-to-end view of the dependency-graph
/// topological sort + ww restoration + persistence + pruning; the p99 is what bounds the
/// orderer's tail stall when a block is cut under contention.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FormationTiming {
    /// Number of blocks whose formation was measured.
    pub(crate) blocks: u64,
    /// Total formation wall-clock across the run, in milliseconds.
    pub total_ms: f64,
    /// Median per-block formation time, in microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-block formation time, in microseconds.
    pub p99_us: f64,
}

impl FormationTiming {
    /// Builds the summary from raw per-block samples in microseconds. The slice is sorted in
    /// place; an empty slice yields the zero summary.
    pub(crate) fn from_samples(samples: &mut [u64]) -> Self {
        if samples.is_empty() {
            return FormationTiming::default();
        }
        samples.sort_unstable();
        let total_us: u128 = samples.iter().map(|&s| s as u128).sum();
        FormationTiming {
            blocks: samples.len() as u64,
            total_ms: total_us as f64 / 1_000.0,
            p50_us: percentile(samples, 0.50),
            p99_us: percentile(samples, 0.99),
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted slice, `q` in `[0, 1]`.
fn percentile(sorted: &[u64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// The result of one simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Which system was simulated.
    pub system: SystemKind,
    /// Simulated run length in seconds.
    pub(crate) duration_s: f64,
    /// Requests issued by clients.
    pub offered: u64,
    /// Transactions that appeared in the ledger (committed or validation-aborted) — the
    /// numerator of *raw* throughput (Figure 1).
    pub in_ledger: u64,
    /// Transactions that committed — the numerator of *effective* throughput.
    pub committed: u64,
    /// Aborts by reason, combining early aborts (endorsement / ordering phase) and
    /// validation-phase aborts (Figure 14's breakdown).
    pub aborts: AbortCounts,
    /// Blocks appended to the ledger.
    pub blocks: u64,
    /// Mean end-to-end latency of committed transactions, in ms (Figure 10 right).
    pub avg_latency_ms: f64,
    /// Mean block span of committed transactions (Figure 13 right).
    pub avg_block_span: f64,
    /// Mean dependency-graph hops per arrival, FabricSharp only (Figure 13 right).
    pub avg_hops: f64,
    /// Measured (not modelled) arrival wall-clock per transaction delivered to the orderer,
    /// in µs on this machine: the simulator times every `SimpleChain::arrive` call (Figure 12
    /// right).
    pub measured_arrival_us_per_txn: f64,
    /// Committed transactions whose commit required tolerating an anti-rw dependency (i.e.
    /// transactions a Strong-Serializability system would have aborted); highlighted in
    /// Figure 15 as "FastFabric#-antiRW". The simulator counts them itself, against the store
    /// just before each block commits, and only for systems that skip peer validation: the
    /// others abort such a transaction at validation.
    pub committed_with_anti_rw: u64,
    /// Measured per-block formation wall-clock (p50/p99/total) on this machine.
    pub formation: FormationTiming,
    /// Measured per-block validate → append wall-clock (p50/p99/total) on this machine — the
    /// execution-stage companion of `formation`: one `SimpleChain::commit` call, covering MVCC
    /// validation, write installation, building and appending the block and, on a persisted
    /// run, its checkpoint.
    pub commit: FormationTiming,
    /// Accepted transactions that actually rode the orderer's template fast path (zero for
    /// systems without one).
    pub fastpath_accepted: u64,
    /// The ledger failure that ended a persisted run early (`persist_to` refusing the
    /// durability directory, or a failed append or checkpoint); the counters above cover the
    /// run up to it. Always `None` for an in-memory run.
    pub ledger_error: Option<LedgerError>,
}

impl SimReport {
    /// Raw throughput in transactions per second.
    pub fn raw_tps(&self) -> f64 {
        if self.duration_s <= 0.0 {
            0.0
        } else {
            self.in_ledger as f64 / self.duration_s
        }
    }

    /// Effective throughput in transactions per second.
    pub fn effective_tps(&self) -> f64 {
        if self.duration_s <= 0.0 {
            0.0
        } else {
            self.committed as f64 / self.duration_s
        }
    }

    /// Total aborted transactions (early + validation).
    pub fn aborted(&self) -> u64 {
        self.aborts.total()
    }

    /// Abort rate relative to the offered load, in `[0, 1]`.
    pub fn abort_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.aborted() as f64 / self.offered as f64
        }
    }

    /// The Figure 14 abort breakdown: fraction of all aborts falling into each of the paper's
    /// four buckets, in the paper's order (`Concurrent-ww`, `2 consecutive rw`,
    /// `Simulation abort`, `Others`).
    pub fn abort_breakdown(&self) -> Vec<(&'static str, f64)> {
        let total = self.aborted().max(1) as f64;
        [
            "Concurrent-ww",
            "2 consecutive rw",
            "Simulation abort",
            "Others",
        ]
        .into_iter()
        .map(|bucket| {
            let count: u64 = self
                .aborts
                .nonzero()
                .filter(|(reason, _)| reason.figure14_bucket() == bucket)
                .map(|(_, n)| n)
                .sum();
            (bucket, count as f64 / total)
        })
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::abort::AbortReason;

    fn report() -> SimReport {
        let mut aborts = AbortCounts::default();
        aborts.add(AbortReason::StaleRead, 30);
        aborts.add(AbortReason::ConcurrentWriteWrite, 10);
        aborts.add(AbortReason::CrossBlockRead, 10);
        SimReport {
            system: SystemKind::Fabric,
            duration_s: 10.0,
            offered: 1_000,
            in_ledger: 900,
            committed: 850,
            aborts,
            blocks: 9,
            avg_latency_ms: 800.0,
            avg_block_span: 1.5,
            avg_hops: 0.0,
            measured_arrival_us_per_txn: 0.0,
            committed_with_anti_rw: 0,
            formation: FormationTiming::default(),
            commit: FormationTiming::default(),
            fastpath_accepted: 0,
            ledger_error: None,
        }
    }

    #[test]
    fn throughput_and_abort_rates() {
        let r = report();
        assert_eq!(r.raw_tps(), 90.0);
        assert_eq!(r.effective_tps(), 85.0);
        assert_eq!(r.aborted(), 50);
        assert!((r.abort_rate() - 0.05).abs() < 1e-12);
        assert_eq!(r.aborts.get(AbortReason::StaleRead), 30);
        assert_eq!(r.aborts.get(AbortReason::UnreorderableCycle), 0);
    }

    #[test]
    fn abort_breakdown_sums_to_one_over_the_four_buckets() {
        let r = report();
        let breakdown = r.abort_breakdown();
        assert_eq!(breakdown.len(), 4);
        let total: f64 = breakdown.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let ww = breakdown
            .iter()
            .find(|(n, _)| *n == "Concurrent-ww")
            .unwrap()
            .1;
        assert!((ww - 0.2).abs() < 1e-9);
    }

    #[test]
    fn formation_timing_summarises_samples() {
        let mut samples: Vec<u64> = (1..=100).rev().collect(); // 100, 99, ..., 1 µs
        let timing = FormationTiming::from_samples(&mut samples);
        assert_eq!(timing.blocks, 100);
        assert_eq!(timing.p50_us, 50.0);
        assert_eq!(timing.p99_us, 99.0);
        assert!((timing.total_ms - 5.05).abs() < 1e-9); // 5050 µs
    }

    #[test]
    fn formation_timing_handles_empty_and_singleton() {
        assert_eq!(
            FormationTiming::from_samples(&mut []),
            FormationTiming::default()
        );
        let timing = FormationTiming::from_samples(&mut [7]);
        assert_eq!(timing.blocks, 1);
        assert_eq!(timing.p50_us, 7.0);
        assert_eq!(timing.p99_us, 7.0);
    }

    #[test]
    fn zero_duration_and_zero_offered_are_safe() {
        let mut r = report();
        r.duration_s = 0.0;
        r.offered = 0;
        assert_eq!(r.raw_tps(), 0.0);
        assert_eq!(r.effective_tps(), 0.0);
        assert_eq!(r.abort_rate(), 0.0);
    }
}

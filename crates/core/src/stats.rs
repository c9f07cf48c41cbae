//! Concurrency-control statistics.
//!
//! The paper's evaluation reports several internal metrics besides throughput: the number of
//! reachability hops traversed per arrival (Figure 13 right) and the abort-rate breakdown by
//! cause (Figure 14 right). [`CcStats`] accumulates them as counts, so they are deterministic.
//! The transaction block span of Figure 13 is read off the committed blocks instead, and the
//! wall-clock panels (Figures 11 and 12 right) are timed by the caller around `on_arrival` /
//! `cut_block`.

use eov_common::abort::AbortCounts;

/// Cumulative statistics of a concurrency-control instance.
#[derive(Clone, Debug, Default)]
pub struct CcStats {
    /// Transactions presented to the arrival path.
    pub(crate) arrivals: u64,
    /// Of the accepted transactions, how many were admitted through the template fast path
    /// (tagged [`TemplateClass::Safe`]) and therefore skipped dependency resolution, the cycle
    /// probe and the graph entirely: exactly the accepted arrivals tagged `Safe`, as the
    /// template fast-path tests check.
    ///
    /// [`TemplateClass::Safe`]: eov_common::txn::TemplateClass::Safe
    pub fastpath_accepted: u64,
    /// Early aborts by reason (before the transaction was sequenced into a block).
    pub early_aborts: AbortCounts,
    /// Total reachability-update hops across all arrivals (Figure 13, "# of hops").
    pub total_hops: u64,
}

impl CcStats {
    /// Mean reachability hops per arrival.
    pub fn avg_hops(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.arrivals as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::abort::AbortReason;

    #[test]
    fn abort_accounting() {
        let mut stats = CcStats::default();
        stats.early_aborts.add(AbortReason::UnreorderableCycle, 2);
        stats.early_aborts.add(AbortReason::SnapshotTooOld, 1);
        assert_eq!(stats.early_aborts.total(), 3);
        assert_eq!(stats.early_aborts.get(AbortReason::UnreorderableCycle), 2);
        assert_eq!(stats.early_aborts.get(AbortReason::StaleRead), 0);
    }

    #[test]
    fn averages_handle_zero_denominators() {
        let stats = CcStats::default();
        assert_eq!(stats.avg_hops(), 0.0);
    }

    #[test]
    fn averages_and_totals() {
        let stats = CcStats {
            arrivals: 4,
            total_hops: 12,
            ..CcStats::default()
        };
        assert_eq!(stats.avg_hops(), 3.0);
    }
}

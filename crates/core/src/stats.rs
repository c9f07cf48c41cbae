//! Concurrency-control statistics.
//!
//! The paper's evaluation reports several internal metrics besides throughput: the number of
//! reachability hops traversed per arrival and the transaction block span (Figure 13 right),
//! and the abort-rate breakdown by cause (Figure 14 right). [`CcStats`] accumulates them as
//! counts, so they are deterministic. The wall-clock panels (Figures 11 and 12 right) are
//! timed by the caller around `on_arrival` / `cut_block`, not here.

use eov_common::abort::AbortReason;
use std::collections::HashMap;

/// Cumulative statistics of a concurrency-control instance.
#[derive(Clone, Debug, Default)]
pub struct CcStats {
    /// Transactions presented to the arrival path.
    pub arrivals: u64,
    /// Transactions accepted into the pending set.
    pub accepted: u64,
    /// Of the accepted transactions, how many were admitted through the template fast path
    /// (tagged [`TemplateClass::Safe`]) and therefore skipped dependency resolution, the cycle
    /// probe and the graph entirely: exactly the accepted arrivals tagged `Safe`, as the
    /// template fast-path tests check.
    ///
    /// [`TemplateClass::Safe`]: eov_common::txn::TemplateClass::Safe
    pub fastpath_accepted: u64,
    /// Early aborts by reason (before the transaction was sequenced into a block).
    pub early_aborts: HashMap<AbortReason, u64>,
    /// Blocks formed.
    pub blocks_formed: u64,
    /// Transactions committed into blocks.
    pub committed: u64,
    /// Total reachability-update hops across all arrivals (Figure 13, "# of hops").
    pub total_hops: u64,
    /// Sum of block spans of committed transactions (Figure 13, "Txn blk span").
    pub block_span_sum: u64,
    /// Peak number of nodes in the dependency graph.
    pub graph_size_peak: usize,
}

impl CcStats {
    /// Records an early abort.
    pub fn record_abort(&mut self, reason: AbortReason) {
        *self.early_aborts.entry(reason).or_insert(0) += 1;
    }

    /// Early aborts for one reason.
    pub fn aborts_for(&self, reason: AbortReason) -> u64 {
        self.early_aborts.get(&reason).copied().unwrap_or(0)
    }

    /// Mean reachability hops per arrival.
    pub fn avg_hops(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.arrivals as f64
        }
    }

    /// Mean block span per committed transaction.
    pub fn avg_block_span(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.block_span_sum as f64 / self.committed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_accounting() {
        let mut stats = CcStats::default();
        stats.record_abort(AbortReason::UnreorderableCycle);
        stats.record_abort(AbortReason::UnreorderableCycle);
        stats.record_abort(AbortReason::SnapshotTooOld);
        assert_eq!(stats.early_aborts.values().sum::<u64>(), 3);
        assert_eq!(stats.aborts_for(AbortReason::UnreorderableCycle), 2);
        assert_eq!(stats.aborts_for(AbortReason::StaleRead), 0);
    }

    #[test]
    fn averages_handle_zero_denominators() {
        let stats = CcStats::default();
        assert_eq!(stats.avg_hops(), 0.0);
        assert_eq!(stats.avg_block_span(), 0.0);
    }

    #[test]
    fn averages_and_totals() {
        let stats = CcStats {
            arrivals: 4,
            total_hops: 12,
            committed: 2,
            block_span_sum: 6,
            ..CcStats::default()
        };
        assert_eq!(stats.avg_hops(), 3.0);
        assert_eq!(stats.avg_block_span(), 3.0);
    }
}

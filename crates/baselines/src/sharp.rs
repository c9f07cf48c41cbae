//! `ConcurrencyControl` implementation for FabricSharp.
//!
//! [`fabricsharp_core::FabricSharpCC`] already exposes the arrival and block-formation entry
//! points with the right shapes; this impl adapts them to the common trait so the simulator,
//! the `SimpleChain` facade and the benchmark harness can drive FabricSharp through the same
//! interface as the four baselines. The only behavioural difference expressed here is
//! `needs_peer_validation() == false`: FabricSharp's ordering guarantees serializability, so
//! peers skip the MVCC re-check (Figure 8, "No Concurrency Validation").

use crate::api::{ConcurrencyControl, SystemKind};
use eov_common::abort::AbortReason;
use eov_common::txn::{CommitDecision, Transaction, TxnStatus};
use fabricsharp_core::FabricSharpCC;

impl ConcurrencyControl for FabricSharpCC {
    fn kind(&self) -> SystemKind {
        SystemKind::FabricSharp
    }

    fn on_arrival(&mut self, txn: Transaction) -> CommitDecision {
        FabricSharpCC::on_arrival(self, txn)
    }

    fn pending_len(&self) -> usize {
        FabricSharpCC::pending_len(self)
    }

    fn cut_block(&mut self) -> Vec<Transaction> {
        FabricSharpCC::cut_block(self)
    }

    fn needs_peer_validation(&self) -> bool {
        false
    }

    fn on_block_committed(&mut self, _block_no: u64, outcome: &[(Transaction, TxnStatus)]) {
        // Blocks the controller cut itself are already tracked; anything else (bootstrap,
        // ledger replay) is registered so its conflicts are visible to future arrivals.
        for (txn, status) in outcome {
            if status.is_committed() {
                self.register_committed(txn);
            }
        }
    }

    fn early_aborts(&self) -> Vec<(AbortReason, u64)> {
        self.stats().early_aborts.nonzero().collect()
    }

    fn avg_hops(&self) -> f64 {
        self.stats().avg_hops()
    }

    fn fastpath_accepted(&self) -> u64 {
        self.stats().fastpath_accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::config::CcConfig;
    use eov_common::rwset::{Key, Value};
    use eov_common::version::SeqNo;

    fn boxed() -> Box<dyn ConcurrencyControl> {
        SystemKind::FabricSharp.build(CcConfig::default())
    }

    #[test]
    fn trait_object_dispatch_matches_inherent_behaviour() {
        let mut cc = boxed();
        assert_eq!(cc.kind(), SystemKind::FabricSharp);
        assert!(!cc.needs_peer_validation());

        let t1 = Transaction::from_parts(
            1,
            0,
            [(Key::new("A"), SeqNo::new(0, 1))],
            [(Key::new("B"), Value::from_i64(1))],
        );
        let t2 = Transaction::from_parts(
            2,
            0,
            [(Key::new("B"), SeqNo::new(0, 2))],
            [(Key::new("A"), Value::from_i64(2))],
        );
        assert!(cc.on_arrival(t1).is_accept());
        // The write-skew partner is rejected through the trait object too.
        assert!(!cc.on_arrival(t2).is_accept());
        assert_eq!(cc.pending_len(), 1);
        assert_eq!(cc.early_aborts().len(), 1);

        let block = cc.cut_block();
        assert_eq!(block.len(), 1);
        assert_eq!(block[0].end_ts.unwrap().block, 1);
    }

    #[test]
    fn endorsement_hook_is_permissive() {
        // FabricSharp never aborts at endorsement time: snapshot reads across blocks are the
        // whole point (Proposition 1).
        let mut cc = boxed();
        let stale_snapshot = Transaction::from_parts(1, 0, [(Key::new("A"), SeqNo::new(0, 1))], []);
        assert!(cc.on_endorsement(&stale_snapshot, 5).is_accept());
    }
}

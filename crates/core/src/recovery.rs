//! Orderer recovery: rebuilding a FabricSharp controller from an existing ledger.
//!
//! The paper assumes every orderer observes the transaction stream from genesis, but a real
//! deployment must also handle orderers that restart or join late: they hold the (replicated,
//! hash-chained) ledger but none of the in-memory concurrency-control state. That state is
//! never persisted. [`recover_from_ledger`] re-derives it by replaying the committed
//! transactions of the recent ledger suffix — only the last `max_span` blocks matter, because
//! anything older can never participate in a future cycle (Section 4.6) — into a fresh
//! controller via [`FabricSharpCC::register_committed`], leaving it ready to process new
//! arrivals exactly as if it had been running all along.
//!
//! A cold-started peer first restores its persisted state, ledger and store, with
//! [`eov_ledger::recover_from_disk`]; an orderer that runs Fabric# then hands the recovered
//! ledger to [`recover_from_ledger`].

use crate::orderer_cc::FabricSharpCC;
use eov_common::config::CcConfig;
use eov_common::error::Result;
use eov_ledger::Ledger;

/// Rebuilds a FabricSharp controller from `ledger`, verifying the chain first.
///
/// Only committed transactions of the last `config.max_span` blocks are replayed; the
/// controller's block counter resumes at `ledger.height() + 1`.
pub fn recover_from_ledger(ledger: &Ledger, config: CcConfig) -> Result<FabricSharpCC> {
    ledger.verify_integrity()?;
    let mut cc = FabricSharpCC::new(config);
    let height = ledger.height();
    for block_no in height.saturating_sub(config.max_span).max(1)..=height {
        for entry in &ledger.block(block_no)?.entries {
            if entry.status.is_committed() {
                cc.register_committed(&entry.txn);
            }
        }
    }
    // Even if the recent blocks were empty (or the ledger is empty), the controller must resume
    // numbering after the ledger tip.
    cc.set_next_block_at_least(height + 1);
    Ok(cc)
}

impl FabricSharpCC {
    /// Ensures the controller's block counter is at least `next_block` (recovery: resume after
    /// the ledger tip even when the replayed suffix contained no committed transactions).
    pub(crate) fn set_next_block_at_least(&mut self, next_block: u64) {
        self.next_block = self.next_block.max(next_block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::rwset::{Key, Value};
    use eov_common::txn::{Transaction, TxnId, TxnStatus};
    use eov_common::version::SeqNo;
    use eov_ledger::Block;

    /// Builds a ledger whose block `b` contains one committed transaction writing `K{b}` and
    /// reading the key written by the previous block.
    fn chained_ledger(blocks: u64) -> Ledger {
        let mut ledger = Ledger::new();
        for b in 1..=blocks {
            let reads = if b == 1 {
                vec![]
            } else {
                vec![(Key::new(format!("K{}", b - 1)), SeqNo::new(b - 1, 1))]
            };
            let txn = Transaction::from_parts(
                b,
                b - 1,
                reads,
                [(Key::new(format!("K{b}")), Value::from_i64(b as i64))],
            );
            let mut block = Block::build(b, ledger.tip_hash(), vec![txn]);
            block.entries[0].status = TxnStatus::Committed;
            ledger.append(block).unwrap();
        }
        ledger
    }

    #[test]
    fn recovery_replays_only_the_recent_suffix() {
        let ledger = chained_ledger(20);
        let config = CcConfig {
            max_span: 5,
            ..CcConfig::default()
        };
        let cc = recover_from_ledger(&ledger, config).unwrap();
        assert_eq!(cc.next_block(), 21);
        // The controller knows the writers of blocks 15..=20...
        assert_eq!(cc.graph().len(), 6);
        assert_eq!(cc.untracked_len(), 0);
        assert!(cc.graph().contains(TxnId(15)));
        assert!(cc.graph().contains(TxnId(20)));
        // ...but not the older ones.
        assert!(!cc.graph().contains(TxnId(14)));
        assert!(!cc.graph().contains(TxnId(3)));
    }

    #[test]
    fn recovered_controller_detects_conflicts_with_replayed_transactions() {
        let ledger = chained_ledger(6);
        let mut cc = recover_from_ledger(&ledger, CcConfig::default()).unwrap();

        // A new transaction that read K6 at a stale version (it was written by block 6) and
        // overwrites K6: it conflicts with the replayed writer both ways (anti-rw + ww) and
        // must be rejected, exactly as if the controller had never restarted.
        let stale = Transaction::from_parts(
            100,
            2,
            [(Key::new("K6"), SeqNo::new(2, 1))],
            [(Key::new("K6"), Value::from_i64(0))],
        );
        assert!(!cc.on_arrival(stale).is_accept());

        // A transaction based on the current tip is accepted and committed into block 7.
        let fresh = Transaction::from_parts(
            101,
            6,
            [(Key::new("K6"), SeqNo::new(6, 1))],
            [(Key::new("K7"), Value::from_i64(7))],
        );
        assert!(cc.on_arrival(fresh).is_accept());
        let block = cc.cut_block();
        assert_eq!(block.len(), 1);
        assert_eq!(block[0].end_ts.unwrap().block, 7);
    }

    #[test]
    fn recovery_from_an_empty_ledger_starts_fresh() {
        let ledger = Ledger::new();
        let cc = recover_from_ledger(&ledger, CcConfig::default()).unwrap();
        assert_eq!(cc.next_block(), 1);
        assert!(cc.graph().is_empty());
        assert_eq!(cc.untracked_len(), 0);
    }

    #[test]
    fn recovered_controller_matches_a_continuously_running_one() {
        // Drive one controller live through six blocks; recover a second one from the ledger
        // those blocks produced. Both must make the same decision about the next arrivals.
        let mut live = FabricSharpCC::with_defaults();
        let mut ledger = Ledger::new();
        for b in 1..=6u64 {
            let reads = if b == 1 {
                vec![]
            } else {
                vec![(Key::new(format!("K{}", b - 1)), SeqNo::new(b - 1, 1))]
            };
            let txn = Transaction::from_parts(
                b,
                b - 1,
                reads,
                [(Key::new(format!("K{b}")), Value::from_i64(b as i64))],
            );
            assert!(live.on_arrival(txn).is_accept());
            let block_txns = live.cut_block();
            let mut block = Block::build(b, ledger.tip_hash(), block_txns);
            for entry in &mut block.entries {
                entry.status = TxnStatus::Committed;
            }
            ledger.append(block).unwrap();
        }

        let mut recovered = recover_from_ledger(&ledger, CcConfig::default()).unwrap();
        assert_eq!(recovered.next_block(), live.next_block());

        let probe_conflicting = Transaction::from_parts(
            200,
            3,
            [(Key::new("K5"), SeqNo::new(3, 1))],
            [(Key::new("K5"), Value::from_i64(0))],
        );
        let probe_clean = Transaction::from_parts(
            201,
            6,
            [(Key::new("K6"), SeqNo::new(6, 1))],
            [(Key::new("K9"), Value::from_i64(9))],
        );
        assert_eq!(
            live.on_arrival(probe_conflicting.clone()).is_accept(),
            recovered.on_arrival(probe_conflicting).is_accept()
        );
        assert_eq!(
            live.on_arrival(probe_clean.clone()).is_accept(),
            recovered.on_arrival(probe_clean).is_accept()
        );
    }

    #[test]
    fn set_next_block_never_regresses() {
        let mut cc = FabricSharpCC::with_defaults();
        cc.set_next_block_at_least(5);
        assert_eq!(cc.next_block(), 5);
        cc.set_next_block_at_least(3);
        assert_eq!(cc.next_block(), 5);
    }
}

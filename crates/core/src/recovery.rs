//! Orderer recovery: rebuilding a FabricSharp controller from an existing ledger.
//!
//! The paper assumes every orderer observes the transaction stream from genesis, but a real
//! deployment must also handle orderers that restart or join late: they hold the (replicated,
//! hash-chained) ledger but none of the in-memory concurrency-control state. Recovery replays
//! the committed transactions of the recent ledger suffix — only the last `max_span` blocks
//! matter, because anything older can never participate in a future cycle (Section 4.6) — into
//! a fresh controller via [`FabricSharpCC::register_committed`], leaving it ready to process
//! new arrivals exactly as if it had been running all along.
//!
//! [`recover_from_disk`] is the cold-start path on top of the same machinery: open the
//! durable segment files (repairing a torn trailing record), load the newest valid store
//! checkpoint at or below the recovered height, replay the segment suffix into the store, and
//! rebuild the controller from the in-memory mirror. Every failure mode is a typed
//! [`RecoveryError`] — a corrupt ledger is *reported*, never a panic.

use crate::orderer_cc::FabricSharpCC;
use eov_common::config::CcConfig;
use eov_common::error::CommonError;
use eov_ledger::durable::{DurableLedger, DurableOptions, OpenReport};
use eov_ledger::{discard_unusable_checkpoints, latest_checkpoint_at_most, Ledger, LedgerError};
use eov_vstore::{StateStore, StoreBackend};
use std::fmt;
use std::path::Path;

/// Everything that can fail while rebuilding an orderer, typed end-to-end: durable-substrate
/// failures (I/O, corrupt records or checkpoints) and chain-rule violations.
#[derive(Debug)]
pub enum RecoveryError {
    /// A durable-ledger failure: I/O, a corrupt record before the tail, a bad checkpoint.
    Ledger(LedgerError),
    /// A chain-rule violation in the (recovered or handed-in) ledger.
    Chain(CommonError),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Ledger(e) => write!(f, "recovery failed: {e}"),
            RecoveryError::Chain(e) => write!(f, "recovery failed: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Ledger(e) => Some(e),
            RecoveryError::Chain(e) => Some(e),
        }
    }
}

impl From<LedgerError> for RecoveryError {
    fn from(e: LedgerError) -> Self {
        RecoveryError::Ledger(e)
    }
}

impl From<CommonError> for RecoveryError {
    fn from(e: CommonError) -> Self {
        RecoveryError::Chain(e)
    }
}

/// Summary of a recovery run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Height of the ledger the controller was recovered from.
    pub ledger_height: u64,
    /// First block whose transactions were replayed (older blocks are irrelevant by the
    /// `max_span` argument).
    pub replay_from_block: u64,
    /// Number of committed transactions registered into the controller.
    pub transactions_registered: usize,
}

/// Rebuilds a FabricSharp controller from `ledger`, verifying the chain first.
///
/// Only committed transactions of the last `config.max_span` blocks are replayed; the
/// controller's block counter resumes at `ledger.height() + 1`.
pub fn recover_from_ledger(
    ledger: &Ledger,
    config: CcConfig,
) -> Result<(FabricSharpCC, RecoveryReport), RecoveryError> {
    ledger.verify_integrity()?;
    Ok(rebuild_controller(ledger, config)?)
}

/// The controller rebuild proper, over a ledger whose chain rules the caller has already
/// established.
fn rebuild_controller(
    ledger: &Ledger,
    config: CcConfig,
) -> Result<(FabricSharpCC, RecoveryReport), CommonError> {
    let mut cc = FabricSharpCC::new(config);
    let height = ledger.height();
    let replay_from = height.saturating_sub(config.max_span).max(1);

    let mut registered = 0usize;
    for block_no in replay_from..=height {
        if height == 0 {
            break;
        }
        let block = ledger.block(block_no)?;
        for entry in &block.entries {
            if entry.status.is_committed() {
                cc.register_committed(&entry.txn);
                registered += 1;
            }
        }
    }
    // Even if the recent blocks were empty (or the ledger is empty), the controller must resume
    // numbering after the ledger tip.
    cc.set_next_block_at_least(height + 1);

    Ok((
        cc,
        RecoveryReport {
            ledger_height: height,
            replay_from_block: if height == 0 { 0 } else { replay_from },
            transactions_registered: registered,
        },
    ))
}

/// The full state a cold-started orderer resumes from: the reopened durable ledger, the
/// replayed store, and a controller rebuilt exactly as [`recover_from_ledger`] would from the
/// equivalent in-memory ledger.
#[derive(Debug)]
pub struct ColdRecovery {
    /// The rebuilt controller, ready for new arrivals at block `ledger.height() + 1`.
    pub cc: FabricSharpCC,
    /// The reopened durable ledger (torn tail repaired, ready to append).
    pub ledger: DurableLedger,
    /// The state store: newest valid checkpoint plus the replayed segment suffix.
    pub store: StoreBackend,
    /// The controller-rebuild summary.
    pub report: RecoveryReport,
    /// Height of the checkpoint the store was loaded from (0 = genesis or none found).
    pub checkpoint_height: u64,
    /// Checkpoint files removed because this recovery ruled them out (above the recovered
    /// height, or failed verification): no later delta checkpoint may be built on one.
    pub checkpoints_discarded: usize,
    /// What opening the segment files found (blocks, segments, any repaired torn tail).
    pub open: OpenReport,
}

/// Cold-starts an orderer from its durability directory: opens the segment files (truncating a
/// torn trailing record), loads the newest valid checkpoint at or below the recovered height
/// whose shape matches `config.store_shards`, replays the remaining blocks into the store, and
/// rebuilds the controller from the recovered ledger.
///
/// Every block is chain-verified exactly once: [`DurableLedger::open`] pushes each decoded
/// record through [`Ledger::append`] (height sequence, `prev_hash` link, body hash) on its way
/// into the mirror, so the controller is rebuilt from that mirror without the second
/// whole-chain pass [`recover_from_ledger`] makes over a ledger it was merely handed.
///
/// A directory holding no checkpoint at all is replayed from an empty block-0 state. One whose
/// checkpoints all fail to load is an error ([`LedgerError::CorruptCheckpoint`]), not a
/// replay: seeded genesis values exist in no block, only in the genesis image every later
/// checkpoint chains down to (the simulator always writes one), so replaying without it would
/// return a store that quietly lacks them.
///
/// Checkpoint files the recovery ruled out — leftovers above a repaired torn tail, links that
/// failed verification — are removed before returning, so the deltas written from here on
/// build on the chain that was just verified.
pub fn recover_from_disk(
    dir: impl AsRef<Path>,
    config: CcConfig,
) -> Result<ColdRecovery, RecoveryError> {
    let (ledger, open) = DurableLedger::open(&dir, DurableOptions::from_cc_config(&config))?;
    let height = ledger.height();

    let (checkpoint_height, mut store) =
        match latest_checkpoint_at_most(&dir, height, config.store_shards)? {
            Some((h, store)) => (h, store),
            None => (0, StoreBackend::for_shards(config.store_shards)),
        };
    for block_no in (checkpoint_height + 1)..=height {
        let block = ledger.ledger().block(block_no)?;
        store.apply_block(block_no, block.committed());
    }

    let checkpoints_discarded =
        discard_unusable_checkpoints(&dir, checkpoint_height, height, config.store_shards)?;

    let (cc, report) = rebuild_controller(ledger.ledger(), config)?;
    Ok(ColdRecovery {
        cc,
        ledger,
        store,
        report,
        checkpoint_height,
        checkpoints_discarded,
        open,
    })
}

impl FabricSharpCC {
    /// Ensures the controller's block counter is at least `next_block` (recovery: resume after
    /// the ledger tip even when the replayed suffix contained no committed transactions).
    pub fn set_next_block_at_least(&mut self, next_block: u64) {
        self.next_block = self.next_block.max(next_block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::rwset::{Key, Value};
    use eov_common::txn::{Transaction, TxnStatus};
    use eov_common::version::SeqNo;
    use eov_ledger::Block;

    /// Builds a ledger whose block `b` contains one committed transaction writing `K{b}` and
    /// reading the key written by the previous block.
    fn chained_ledger(blocks: u64) -> Ledger {
        chained_ledger_with_ids_from(0, blocks)
    }

    /// [`chained_ledger`] with transaction ids offset by `id_base`: the same shape, a
    /// different history (every block hash differs).
    fn chained_ledger_with_ids_from(id_base: u64, blocks: u64) -> Ledger {
        let mut ledger = Ledger::new();
        for b in 1..=blocks {
            let reads = if b == 1 {
                vec![]
            } else {
                vec![(Key::new(format!("K{}", b - 1)), SeqNo::new(b - 1, 1))]
            };
            let txn = Transaction::from_parts(
                id_base + b,
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
        let (cc, report) = recover_from_ledger(&ledger, config).unwrap();
        assert_eq!(report.ledger_height, 20);
        assert_eq!(report.replay_from_block, 15);
        assert_eq!(report.transactions_registered, 6);
        assert_eq!(cc.next_block(), 21);
        // The controller knows the recent writers...
        assert!(cc.graph().contains(eov_common::txn::TxnId(20)));
        // ...but not the ancient ones.
        assert!(!cc.graph().contains(eov_common::txn::TxnId(3)));
    }

    #[test]
    fn recovered_controller_detects_conflicts_with_replayed_transactions() {
        let ledger = chained_ledger(6);
        let (mut cc, _) = recover_from_ledger(&ledger, CcConfig::default()).unwrap();

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
        let (cc, report) = recover_from_ledger(&ledger, CcConfig::default()).unwrap();
        assert_eq!(report.ledger_height, 0);
        assert_eq!(report.transactions_registered, 0);
        assert_eq!(cc.next_block(), 1);
        assert!(cc.graph().is_empty());
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

        let (mut recovered, _) = recover_from_ledger(&ledger, CcConfig::default()).unwrap();
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

    /// `recover_from_disk` skips the whole-chain `verify_integrity` pass because opening the
    /// durable ledger already chain-validated every block. Pin that the one remaining pass is
    /// real: a record that is intact as far as its CRC and codec can tell, but does not link
    /// to its predecessor, must surface as a typed chain error.
    #[test]
    fn a_crc_valid_record_with_a_broken_hash_link_is_a_typed_chain_error() {
        let one_block_per_segment = DurableOptions {
            rotate_bytes: 1,
            fsync: false,
        };
        let dirs = ["graft-a", "graft-b"].map(|tag| {
            let dir = std::env::temp_dir().join(format!("eov-rec-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        });
        for (dir, id_base) in dirs.iter().zip([0, 1000]) {
            let (mut durable, _) = DurableLedger::open(dir, one_block_per_segment).unwrap();
            for block in chained_ledger_with_ids_from(id_base, 5).iter() {
                durable.append(block.clone()).unwrap();
            }
        }
        // Graft the other history's block 3 — valid header, CRC and encoding — into this one.
        let segment = format!("seg-{:020}.log", 3);
        std::fs::copy(dirs[1].join(&segment), dirs[0].join(&segment)).unwrap();

        let err = recover_from_disk(&dirs[0], CcConfig::default()).unwrap_err();
        assert!(
            matches!(
                err,
                RecoveryError::Ledger(LedgerError::Chain(CommonError::ChainIntegrity {
                    block: 3,
                    ..
                }))
            ),
            "got {err}"
        );
        for dir in dirs {
            std::fs::remove_dir_all(dir).unwrap();
        }
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

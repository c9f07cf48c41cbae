//! Cold recovery: the persisted state a restarted peer resumes from.
//!
//! A peer's durable state is the hash-chained ledger plus the multi-version store, and
//! [`recover_from_disk`] restores exactly that: the newest valid store checkpoint, the segment
//! files walked once (repairing a torn trailing record) while the blocks above the checkpoint
//! are replayed into the store, and the checkpoint files the walk ruled out removed. The
//! orderer's concurrency-control state is not part of it: Section 4.6 derives that from the
//! last `max_span` blocks, so a Fabric# orderer rebuilds it from the recovered ledger on demand
//! (`fabricsharp_core::recovery::recover_from_ledger`). Every failure is a typed
//! [`LedgerError`]; a corrupt directory is reported, never a panic.

use crate::checkpoint::{discard_unusable_checkpoints, latest_checkpoint_at_most};
use crate::durable::{DurableLedger, DurableOptions, OpenReport};
use crate::error::LedgerError;
use eov_common::config::CcConfig;
use eov_vstore::MultiVersionStore;
use std::path::Path;

/// The persisted state a cold-started peer resumes from: the reopened durable ledger and the
/// replayed store.
#[derive(Debug)]
pub struct ColdRecovery {
    /// The reopened durable ledger (torn tail repaired, ready to append).
    pub ledger: DurableLedger,
    /// The state store: newest valid checkpoint plus the replayed segment suffix.
    pub store: MultiVersionStore,
    /// Height of the checkpoint the store was loaded from (0 = genesis or none found).
    pub checkpoint_height: u64,
    /// Checkpoint files removed because this recovery ruled them out (above the recovered
    /// height, or failed verification): no later delta checkpoint may be built on one.
    pub checkpoints_discarded: usize,
    /// What opening the segment files found (blocks, segments, any repaired torn tail).
    pub open: OpenReport,
}

/// Cold-starts from a durability directory: loads the newest valid checkpoint and opens the
/// segment files (truncating a torn trailing record) while replaying the blocks above the
/// checkpoint into its store.
///
/// Every record is checked exactly once, on the one walk [`DurableLedger::open`] makes: CRC,
/// every field, data hash, height and `prev_hash` link — the checks of decoding a block and
/// [`Ledger::append`](crate::Ledger::append)ing it — with the committed writes handed straight
/// to the store.
///
/// The checkpoint is picked before the walk, when the ledger height is not known yet. If a
/// torn tail leaves the log below it, the newest checkpoint at or below the recovered height
/// is loaded instead and the log walked again; so the store always comes from the newest valid
/// checkpoint at or below the recovered height.
///
/// A directory holding no checkpoint at all is replayed from an empty block-0 state. One whose
/// checkpoints all fail to load is an error ([`LedgerError::CorruptCheckpoint`]), not a
/// replay: seeded genesis values exist in no block, only in the genesis image every later
/// checkpoint chains down to (the simulator always writes one), so replaying without it would
/// return a store that quietly lacks them. Checkpoints in the previous format (`EOVCKP02`) are
/// such failures, refused by name; so are segments in previous formats (`EOVSEG01`,
/// `EOVSEG02`), which the walk reports before anything is removed.
///
/// Checkpoint files the recovery ruled out — leftovers above a repaired torn tail, links that
/// failed verification — are removed before returning, so the deltas written from here on
/// build on the chain that was just verified.
pub fn recover_from_disk(
    dir: impl AsRef<Path>,
    config: CcConfig,
) -> Result<ColdRecovery, LedgerError> {
    let dir = dir.as_ref();
    let options = DurableOptions::from_cc_config(&config);
    let empty = || (0, MultiVersionStore::new());

    // When no checkpoint loads, walk from an empty store: that is the right start if none is
    // at or below the height either, and the lookup below reports the error otherwise.
    let newest = latest_checkpoint_at_most(dir, u64::MAX);
    let none_loads = newest.is_err();
    let (mut checkpoint_height, mut store) = newest.unwrap_or(None).unwrap_or_else(empty);
    let (mut ledger, open) = DurableLedger::open_replaying(dir, options, &mut store)?;
    let height = ledger.height();
    if none_loads {
        latest_checkpoint_at_most(dir, height)?;
    } else if checkpoint_height > height {
        drop(ledger);
        (checkpoint_height, store) = latest_checkpoint_at_most(dir, height)?.unwrap_or_else(empty);
        ledger = DurableLedger::open_replaying(dir, options, &mut store)?.0;
    }

    let checkpoints_discarded = discard_unusable_checkpoints(dir, checkpoint_height)?;
    Ok(ColdRecovery {
        ledger,
        store,
        checkpoint_height,
        checkpoints_discarded,
        open,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Block, Ledger};
    use eov_common::error::CommonError;
    use eov_common::rwset::{Key, Value};
    use eov_common::txn::{Transaction, TxnStatus};

    /// Five one-transaction blocks whose transaction ids start above `id_base`: the same
    /// shape for every base, a different history (every block hash differs).
    fn history(id_base: u64) -> Ledger {
        let mut ledger = Ledger::new();
        for b in 1..=5 {
            let txn = Transaction::from_parts(
                id_base + b,
                b - 1,
                [],
                [(Key::new(format!("K{b}")), Value::from_i64(b as i64))],
            );
            let mut block = Block::build(b, ledger.tip_hash(), vec![txn]);
            block.entries[0].status = TxnStatus::Committed;
            ledger.append(block).unwrap();
        }
        ledger
    }

    /// Opening the durable ledger is the one pass that chain-validates the records. Pin that
    /// it is real: a record that is intact as far as its CRC and codec can tell, but does not
    /// link to its predecessor, must surface as a typed chain error.
    #[test]
    fn a_crc_valid_record_with_a_broken_hash_link_is_a_typed_chain_error() {
        let one_block_per_segment = DurableOptions {
            rotate_bytes: 1,
            fsync: false,
            ..DurableOptions::default()
        };
        let dirs = ["graft-a", "graft-b"].map(|tag| {
            let dir = std::env::temp_dir().join(format!("eov-rec-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        });
        for (dir, id_base) in dirs.iter().zip([0, 1000]) {
            let (mut durable, _) = DurableLedger::open(dir, one_block_per_segment).unwrap();
            for block in history(id_base).iter() {
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
                LedgerError::Chain(CommonError::ChainIntegrity { block: 3, .. })
            ),
            "got {err}"
        );
        for dir in dirs {
            std::fs::remove_dir_all(dir).unwrap();
        }
    }
}

//! Serial commit semantics for one delivered block — the validate phase of the EOV pipeline.
//!
//! These routines are the one committer: transactions are validated and applied strictly in
//! block order against the one `MultiVersionStore`, as the paper's single serial validator does.
//! The baselines crate re-exports them; `SimpleChain::commit`, the step the examples, tests
//! and the simulator all drive, calls [`mvcc_validate_and_apply`] for a system that validates
//! at the peers and [`apply_without_validation`] for FabricSharp, once per block.

use eov_common::abort::AbortReason;
use eov_common::txn::{Transaction, TxnStatus};
use eov_common::version::SeqNo;
use eov_vstore::MultiVersionStore;

/// Peer-side validation of a delivered block (the validate phase of the EOV pipeline), shared
/// by every system that needs it.
///
/// Transactions are validated *serially in block order*: a transaction is valid iff every key
/// it read still carries the version it observed, taking into account the writes of valid
/// transactions earlier in the same block. Valid transactions immediately apply their writes
/// to the store at version `(block_no, slot)`. The store's height advances to `block_no`
/// regardless, so later snapshots exist even for blocks whose transactions all aborted.
pub fn mvcc_validate_and_apply(
    store: &mut MultiVersionStore,
    block_no: u64,
    txns: &[Transaction],
) -> Vec<TxnStatus> {
    let mut statuses = Vec::with_capacity(txns.len());
    for (i, txn) in txns.iter().enumerate() {
        let slot = i as u32 + 1;
        let stale = txn.read_set.iter().any(|read| {
            let latest = store
                .latest(&read.key)
                .map(|vv| vv.version)
                .unwrap_or(SeqNo::zero());
            latest != read.version
        });
        if stale {
            statuses.push(TxnStatus::Aborted(AbortReason::StaleRead));
        } else {
            for write in txn.write_set.iter() {
                store.put(&write.key, SeqNo::new(block_no, slot), write.value.clone());
            }
            statuses.push(TxnStatus::Committed);
        }
    }
    store.commit_empty_block(block_no);
    statuses
}

/// Applies every transaction of a block without validation (used for FabricSharp, whose
/// ordering already guarantees serializability). Writes are installed in block order.
pub fn apply_without_validation(
    store: &mut MultiVersionStore,
    block_no: u64,
    txns: &[Transaction],
) -> Vec<TxnStatus> {
    for (i, txn) in txns.iter().enumerate() {
        for write in txn.write_set.iter() {
            store.put(
                &write.key,
                SeqNo::new(block_no, i as u32 + 1),
                write.value.clone(),
            );
        }
    }
    store.commit_empty_block(block_no);
    vec![TxnStatus::Committed; txns.len()]
}

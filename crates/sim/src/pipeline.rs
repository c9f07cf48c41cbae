//! The validate step of the runner's pipeline, timed.
//!
//! The runner's event loop is the *driver*: it owns simulated time, the workload generator,
//! the concurrency control and the state store, and it runs every stage itself, on its one
//! thread.
//! Endorsement simulates against the block snapshot at dispatch time; validation/commit runs
//! at the event that consumes the block, through [`timed_commit`], whose wall-clock is the
//! per-block sample behind `SimReport::commit`.

use eov_common::txn::Transaction;
use eov_vstore::MultiVersionStore;
use fabricsharp_core::commit::{commit_block, CommitOutcome};
use std::time::Instant;

/// Validates and applies one block, returning the outcome and its wall-clock in µs.
pub(crate) fn timed_commit(
    store: &mut MultiVersionStore,
    block_no: u64,
    txns: &[Transaction],
    needs_validation: bool,
) -> (CommitOutcome, u64) {
    let started = Instant::now();
    let outcome = commit_block(store, block_no, txns, needs_validation);
    let us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    (outcome, us)
}

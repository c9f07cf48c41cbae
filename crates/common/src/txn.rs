//! Transactions as seen by the ordering and validation phases.
//!
//! A [`Transaction`] carries the simulation results (readset + writeset) produced during the
//! execute phase, the snapshot block it was simulated against, and — once consensus has
//! decided — the commit slot assigned to it. The orderer-side concurrency controls only ever
//! consult these fields; the contract logic itself never leaves the endorsing peers.

use crate::abort::AbortReason;
use crate::rwset::{Key, ReadSet, Value, WriteSet};
use crate::version::{concurrent, EndTs, SeqNo, StartTs};
use std::fmt;

/// A unique transaction identifier, assigned by the client/driver when the proposal is created.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Txn{}", self.0)
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Txn{}", self.0)
    }
}

impl From<u64> for TxnId {
    fn from(v: u64) -> Self {
        TxnId(v)
    }
}

/// Static classification of the transaction *template* a transaction was generated from
/// (Vandevoort-style template robustness; see `eov_workload::templates`).
///
/// `Safe` asserts that, given the whole template mix the workload draws from, no instance of
/// this template can ever participate in a serializability-violating cycle — so the orderer
/// skips dependency-graph insertion and cycle probing for it entirely. `Unknown` is the
/// conservative default: the transaction takes the full Algorithm 2 path. The tag is an input
/// the orderer trusts (debug builds re-check it against the dependency indices on every
/// arrival and replay); re-tagging a transaction `Unknown` yields the same verdicts, commit
/// order and ledger, only slower.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TemplateClass {
    /// No static guarantee: full dependency tracking applies.
    #[default]
    Unknown,
    /// Proven unable to close a dependency cycle within its workload's template mix.
    Safe,
}

impl TemplateClass {
    /// Whether the class is `Safe`.
    pub fn is_safe(&self) -> bool {
        matches!(self, TemplateClass::Safe)
    }
}

/// An endorsed transaction: the unit that flows from peers through the ordering service into a
/// block and finally through validation.
#[derive(Clone, Debug, PartialEq)]
pub struct Transaction {
    /// Unique identifier.
    pub id: TxnId,
    /// Keys read during simulation, with the versions observed.
    pub read_set: ReadSet,
    /// Keys written during simulation, with the new values.
    pub write_set: WriteSet,
    /// The block number of the snapshot the simulation ran against (Algorithm 1's `b`).
    pub snapshot_block: u64,
    /// Commit slot `(block, position)`, once the transaction has been sequenced. A block
    /// assigns it from the entry's position (`eov_ledger::Block::build`), and the ledger
    /// codec derives it from that position instead of storing it.
    pub end_ts: Option<EndTs>,
    /// Static template classification (defaults to [`TemplateClass::Unknown`], the fully
    /// tracked path).
    pub template_class: TemplateClass,
    /// Index of the workload template this instance was generated from: its position in the
    /// workload's template catalog (`eov_workload::templates::catalog`). `None` (the default)
    /// means "template unknown". The ledger codec persists it; nothing in the workspace reads
    /// it back.
    pub template_id: Option<u16>,
}

impl Transaction {
    /// Creates a transaction from its simulation results.
    pub fn new(id: TxnId, snapshot_block: u64, read_set: ReadSet, write_set: WriteSet) -> Self {
        Transaction {
            id,
            read_set,
            write_set,
            snapshot_block,
            end_ts: None,
            template_class: TemplateClass::Unknown,
            template_id: None,
        }
    }

    /// Returns the transaction with its template classification set.
    pub fn with_template_class(mut self, class: TemplateClass) -> Self {
        self.template_class = class;
        self
    }

    /// Returns the transaction with its conflict-matrix template index set.
    pub fn with_template_id(mut self, template_id: Option<u16>) -> Self {
        self.template_id = template_id;
        self
    }

    /// Convenience constructor used throughout tests and the worked paper examples: builds a
    /// transaction from `(key, version)` reads and `(key, value)` writes.
    pub fn from_parts(
        id: u64,
        snapshot_block: u64,
        reads: impl IntoIterator<Item = (Key, SeqNo)>,
        writes: impl IntoIterator<Item = (Key, Value)>,
    ) -> Self {
        Transaction::new(
            TxnId(id),
            snapshot_block,
            reads.into_iter().collect(),
            writes.into_iter().collect(),
        )
    }

    /// Definition 3: the start timestamp is the sequence number of the read snapshot,
    /// `(snapshot_block + 1, 0)`.
    pub fn start_ts(&self) -> StartTs {
        SeqNo::snapshot_after(self.snapshot_block)
    }

    /// Definition 5: whether this transaction's execution overlaps `other`'s. Both must have
    /// been assigned end timestamps.
    pub fn is_concurrent_with(&self, other: &Transaction) -> bool {
        match (self.end_ts, other.end_ts) {
            (Some(a), Some(b)) => concurrent((self.start_ts(), a), (other.start_ts(), b)),
            // A transaction without a commit slot is still pending, so it overlaps every other
            // pending or not-yet-pruned transaction whose end lies after this one's start.
            _ => true,
        }
    }

    /// The block span of the transaction: how many blocks elapsed between the snapshot it was
    /// simulated against and the block it commits in (footnote 2 of the paper). Returns `None`
    /// until the transaction is sequenced.
    pub fn block_span(&self) -> Option<u64> {
        self.end_ts
            .map(|e| e.block.saturating_sub(self.snapshot_block))
    }
}

/// The outcome of a transaction as recorded by the driver / simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnStatus {
    /// Still in flight (executing, waiting for ordering, or waiting for validation).
    Pending,
    /// Passed validation; its writes were applied to the state database.
    Committed,
    /// Aborted, with the reason recorded for the abort-breakdown experiments (Figure 14).
    Aborted(AbortReason),
}

impl TxnStatus {
    /// Whether the transaction committed.
    pub fn is_committed(&self) -> bool {
        matches!(self, TxnStatus::Committed)
    }

    /// Whether the transaction aborted (for any reason).
    pub fn is_aborted(&self) -> bool {
        matches!(self, TxnStatus::Aborted(_))
    }
}

/// The decision a concurrency control returns when a transaction arrives at the orderer
/// (Algorithm 2) or is validated at a peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitDecision {
    /// Keep the transaction.
    Accept,
    /// Drop the transaction with the given reason.
    Reject(AbortReason),
}

impl CommitDecision {
    /// Whether the decision is `Accept`.
    pub fn is_accept(&self) -> bool {
        matches!(self, CommitDecision::Accept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(id: u64, snapshot: u64, end: Option<(u64, u32)>) -> Transaction {
        let mut t = Transaction::from_parts(id, snapshot, [], []);
        t.end_ts = end.map(|(b, s)| SeqNo::new(b, s));
        t
    }

    #[test]
    fn start_ts_is_snapshot_plus_one() {
        let t = txn(1, 2, None);
        assert_eq!(t.start_ts(), SeqNo::new(3, 0));
    }

    #[test]
    fn figure4_concurrency_relationships() {
        // Figure 4: Txn1 commits at (M,1) with snapshot M-1; Txn2 commits at (M+1,1) with
        // snapshot <= M-1; Txn3 commits at (M+1,2) with snapshot M.
        let m = 10;
        let txn1 = txn(1, m - 1, Some((m, 1)));
        let txn2 = txn(2, m - 2, Some((m + 1, 1)));
        let txn3 = txn(3, m, Some((m + 1, 2)));
        assert!(txn1.is_concurrent_with(&txn2));
        assert!(txn2.is_concurrent_with(&txn3));
        assert!(!txn1.is_concurrent_with(&txn3));
    }

    #[test]
    fn block_span_counts_blocks_between_snapshot_and_commit() {
        let t = txn(1, 4, Some((5, 3)));
        assert_eq!(t.block_span(), Some(1));
        let pending = txn(2, 4, None);
        assert_eq!(pending.block_span(), None);
    }

    #[test]
    fn commit_decision_helpers() {
        assert!(CommitDecision::Accept.is_accept());
        let rej = CommitDecision::Reject(AbortReason::StaleRead);
        assert!(!rej.is_accept());
    }

    #[test]
    fn template_class_defaults_to_unknown() {
        let t = Transaction::from_parts(1, 0, [], []);
        assert_eq!(t.template_class, TemplateClass::Unknown);
        assert!(!t.template_class.is_safe());
        let tagged = t.with_template_class(TemplateClass::Safe);
        assert!(tagged.template_class.is_safe());
    }

    #[test]
    fn status_helpers() {
        assert!(TxnStatus::Committed.is_committed());
        assert!(TxnStatus::Aborted(AbortReason::ConcurrentWriteWrite).is_aborted());
        assert!(!TxnStatus::Pending.is_committed());
        assert!(!TxnStatus::Pending.is_aborted());
    }
}

//! Sequence numbers, record versions and transaction timestamps.
//!
//! The paper (Section 3.1) observes that a blockchain's `(block, seq)` sequence numbers have
//! the same properties as database timestamps: atomicity, monotony, total order and a unique
//! mapping to snapshots. We therefore use one type, [`SeqNo`], for
//!
//! * record versions — "key `C` was last written by the 1st transaction of block 2" is
//!   version `(2, 1)` (Figure 2a);
//! * start timestamps — a transaction simulated against the snapshot after block `M` has
//!   `StartTs = (M + 1, 0)` (Definition 3 and footnote 1);
//! * end timestamps — the commit position assigned by consensus, `EndTs = (block, seq)` with
//!   `seq >= 1` (Definition 4).
//!
//! Sequence numbers are ordered lexicographically, e.g. `(2,1) < (2,2) < (3,0)`.

use std::fmt;

/// A two-component blockchain sequence number `(block, seq)`.
///
/// `seq == 0` denotes the *snapshot* position right after `block - 1` committed (the paper
/// writes the snapshot of block `M` as `(M + 1, 0)`); positions `seq >= 1` are transaction
/// slots inside `block`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeqNo {
    /// Block height component.
    pub block: u64,
    /// Intra-block transaction position (0 is reserved for snapshots).
    pub seq: u32,
}

impl SeqNo {
    /// Creates a sequence number from its two components.
    pub const fn new(block: u64, seq: u32) -> Self {
        SeqNo { block, seq }
    }

    /// The snapshot sequence number of the state *after* `block` has committed, i.e.
    /// `(block + 1, 0)` per the paper's footnote 1.
    pub(crate) const fn snapshot_after(block: u64) -> Self {
        SeqNo {
            block: block + 1,
            seq: 0,
        }
    }

    /// The zero sequence number `(0, 0)`, used as the genesis version.
    pub const fn zero() -> Self {
        SeqNo { block: 0, seq: 0 }
    }
}

impl fmt::Debug for SeqNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.block, self.seq)
    }
}

impl fmt::Display for SeqNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.block, self.seq)
    }
}

impl From<(u64, u32)> for SeqNo {
    fn from((block, seq): (u64, u32)) -> Self {
        SeqNo { block, seq }
    }
}

/// A transaction's start timestamp (Definition 3): the sequence number of the snapshot it
/// read from. Always a snapshot position `(M + 1, 0)`.
pub type StartTs = SeqNo;

/// A transaction's end timestamp (Definition 4): its commit slot `(block, seq)` as decided by
/// consensus, with `seq >= 1`.
pub type EndTs = SeqNo;

/// Definition 5 (concurrent transactions): two transactions are concurrent when their
/// executions overlap — the one that ends later must have started before the other ended.
///
/// Both arguments are `(StartTs, EndTs)` pairs. The predicate is symmetric.
pub fn concurrent(a: (StartTs, EndTs), b: (StartTs, EndTs)) -> bool {
    let (start_a, end_a) = a;
    let (start_b, end_b) = b;
    if end_a < end_b {
        start_b < end_a
    } else if end_b < end_a {
        start_a < end_b
    } else {
        // Same end timestamp means the same commit slot, which only happens when comparing a
        // transaction with itself; a transaction trivially overlaps itself.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexicographic_order_matches_paper_example() {
        // The paper: (2,1) < (2,2) = (2,2) < (3,0).
        assert!(SeqNo::new(2, 1) < SeqNo::new(2, 2));
        assert_eq!(SeqNo::new(2, 2), SeqNo::new(2, 2));
        assert!(SeqNo::new(2, 2) < SeqNo::new(3, 0));
    }

    #[test]
    fn snapshot_after_block() {
        assert_eq!(SeqNo::snapshot_after(2), SeqNo::new(3, 0));
    }

    #[test]
    fn same_block_transactions_are_concurrent() {
        // Proposition 2: two transactions committed in the same block M (positions p < q) are
        // concurrent because the later one can read at most from block M-1.
        let m = 5;
        let txn1 = (SeqNo::snapshot_after(m - 1), SeqNo::new(m, 1));
        let txn2 = (SeqNo::snapshot_after(m - 1), SeqNo::new(m, 2));
        assert!(concurrent(txn1, txn2));
        assert!(concurrent(txn2, txn1));
    }

    #[test]
    fn cross_block_transactions_can_be_concurrent() {
        // Proposition 3 / Figure 4: Txn1 committed at (M,1) and Txn2 committed at (M+1,1) but
        // simulated against a block earlier than M are still concurrent.
        let m = 7;
        let txn1 = (SeqNo::snapshot_after(m - 2), SeqNo::new(m, 1));
        let txn2 = (SeqNo::snapshot_after(m - 1), SeqNo::new(m + 1, 1));
        assert!(concurrent(txn1, txn2));

        // Figure 4 also shows Txn1 and Txn3 are NOT concurrent: Txn3 reads the snapshot after
        // block M, i.e. after Txn1 committed.
        let txn3 = (SeqNo::snapshot_after(m), SeqNo::new(m + 1, 2));
        assert!(!concurrent(txn1, txn3));
        assert!(!concurrent(txn3, txn1));
        // ...while Txn2 and Txn3 share block M+1 and are concurrent (Proposition 2).
        assert!(concurrent(txn2, txn3));
    }

    #[test]
    fn non_overlapping_transactions_are_not_concurrent() {
        let early = (SeqNo::snapshot_after(0), SeqNo::new(1, 1));
        let late = (SeqNo::snapshot_after(1), SeqNo::new(2, 1));
        assert!(!concurrent(early, late));
    }

    #[test]
    fn display_and_debug_render_pairs() {
        let s = SeqNo::new(3, 2);
        assert_eq!(format!("{s}"), "(3,2)");
        assert_eq!(format!("{s:?}"), "(3,2)");
    }
}

//! Abort reason taxonomy.
//!
//! Each concurrency control aborts transactions for different reasons, and the paper's
//! evaluation (Figure 14 in particular) breaks the abort rate down by cause. The variants of
//! [`AbortReason`] cover every cause that appears in any of the five systems implemented in
//! this repository; [`AbortCounts`] tallies them.

use std::fmt;

/// Why a transaction was aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// Peer-side MVCC validation failure: the transaction read a key whose version is older
    /// than the latest committed version (vanilla Fabric's validation-phase abort).
    StaleRead,
    /// The simulation read across blocks (the state changed mid-simulation); Fabric++ aborts
    /// these during the execute phase ("simulation abort" in Figure 14).
    CrossBlockRead,
    /// The transaction's snapshot is older than `max_span` blocks (Section 4.6).
    SnapshotTooOld,
    /// Focc-s: the transaction writes a key also written by a concurrent transaction
    /// ("Concurrent-ww" in Figure 14).
    ConcurrentWriteWrite,
    /// Focc-s: the transaction forms the dangerous structure of two consecutive read-write
    /// conflicts with at least one anti-rw ("2 consecutive rw" in Figure 14).
    DangerousStructure,
    /// FabricSharp (Theorem 2): the transaction closes a dependency cycle with no c-ww edge
    /// between pending transactions, so no reordering can ever serialize it. The cycle test
    /// probes bloom filters, so a filter false positive is booked here too (a preventive
    /// abort, Section 4.4).
    UnreorderableCycle,
    /// A bloom-filter false positive in FabricSharp's cycle test (Section 4.4). No code path
    /// builds this variant: Fabric# books every positive of its filter probe, false or not,
    /// as [`AbortReason::UnreorderableCycle`], and only the ledger codec's decode table maps
    /// code 6 to it. It stays because `perf/src/driver.rs` names it for the
    /// `arrival.abort.BloomFalsePositive` metric, until ROADMAP items 1(e) and 2 retire both.
    BloomFalsePositive,
    /// Fabric++: the transaction was aborted by the in-block cycle-elimination step of the
    /// reordering algorithm.
    InBlockCycle,
}

impl AbortReason {
    /// Every reason in declaration order, so `reason as usize` is its position here.
    /// [`AbortCounts`] indexes by that position and the ledger codec writes it as the reason's
    /// wire code, so a variant is only ever appended.
    pub const ALL: [AbortReason; 8] = [
        AbortReason::StaleRead,
        AbortReason::CrossBlockRead,
        AbortReason::SnapshotTooOld,
        AbortReason::ConcurrentWriteWrite,
        AbortReason::DangerousStructure,
        AbortReason::UnreorderableCycle,
        AbortReason::BloomFalsePositive,
        AbortReason::InBlockCycle,
    ];

    /// The bucket this reason falls into in the Figure 14 abort-rate breakdown.
    pub fn figure14_bucket(&self) -> &'static str {
        match self {
            AbortReason::ConcurrentWriteWrite => "Concurrent-ww",
            AbortReason::DangerousStructure => "2 consecutive rw",
            AbortReason::CrossBlockRead => "Simulation abort",
            _ => "Others",
        }
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AbortReason::StaleRead => "stale read (MVCC validation failure)",
            AbortReason::CrossBlockRead => "read across blocks during simulation",
            AbortReason::SnapshotTooOld => "snapshot older than max_span",
            AbortReason::ConcurrentWriteWrite => "concurrent write-write conflict",
            AbortReason::DangerousStructure => "two consecutive rw conflicts (dangerous structure)",
            AbortReason::UnreorderableCycle => "unreorderable dependency cycle",
            AbortReason::BloomFalsePositive => {
                "bloom-filter reachability hit (possible false positive)"
            }
            AbortReason::InBlockCycle => "in-block dependency cycle (Fabric++ reordering)",
        };
        f.write_str(s)
    }
}

/// Abort counts per reason. A fixed array in [`AbortReason::ALL`] order rather than a hash
/// map, so every walk over the counts visits the reasons in the same order in every process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AbortCounts([u64; AbortReason::ALL.len()]);

impl AbortCounts {
    /// Adds `n` aborts for `reason`.
    pub fn add(&mut self, reason: AbortReason, n: u64) {
        self.0[reason as usize] += n;
    }

    /// The aborts recorded for `reason`.
    pub fn get(&self, reason: AbortReason) -> u64 {
        self.0[reason as usize]
    }

    /// The aborts over every reason.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Each reason with a non-zero count, and the count, in declaration order.
    pub fn nonzero(&self) -> impl Iterator<Item = (AbortReason, u64)> {
        AbortReason::ALL
            .into_iter()
            .zip(self.0)
            .filter(|&(_, n)| n > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure14_buckets() {
        assert_eq!(
            AbortReason::ConcurrentWriteWrite.figure14_bucket(),
            "Concurrent-ww"
        );
        assert_eq!(
            AbortReason::DangerousStructure.figure14_bucket(),
            "2 consecutive rw"
        );
        assert_eq!(
            AbortReason::CrossBlockRead.figure14_bucket(),
            "Simulation abort"
        );
        assert_eq!(AbortReason::StaleRead.figure14_bucket(), "Others");
        assert_eq!(AbortReason::UnreorderableCycle.figure14_bucket(), "Others");
    }

    #[test]
    fn display_is_human_readable() {
        let s = AbortReason::UnreorderableCycle.to_string();
        assert!(s.contains("cycle"));
    }
}

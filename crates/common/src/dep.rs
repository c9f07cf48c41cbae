//! The six canonical dependencies between snapshot transactions (Figure 5).
//!
//! Three of them relate non-concurrent transactions (`n-ww`, `n-wr`, `n-rw`) and three relate
//! concurrent transactions (`c-ww`, `c-rw`, `anti-rw`). The distinction drives the whole
//! paper: `anti-rw` is the only dependency that points from a later-committed transaction to
//! an earlier-committed one (Theorem 1), and `c-ww` is the only dependency whose direction
//! flips when the commit order of its endpoints is switched (Lemma 4).

use std::fmt;

/// The kind of a dependency edge `from → to` in a transaction dependency graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DependencyKind {
    /// Non-concurrent write-write: `from` wrote a key, `to` later overwrote it, and the two do
    /// not overlap.
    NonConcurrentWriteWrite,
    /// Non-concurrent write-read: `to` read the value installed by `from`.
    NonConcurrentWriteRead,
    /// Non-concurrent read-write: `from` read a key that `to` later overwrote, with no overlap.
    NonConcurrentReadWrite,
    /// Concurrent write-write: both overlap and `to` overwrites `from`'s value.
    ConcurrentWriteWrite,
    /// Concurrent read-write: `from` reads a key that the concurrent `to` writes, and `from`
    /// commits first.
    ConcurrentReadWrite,
    /// Anti-dependency (rw where the reader commits *after* the writer): `from` reads a key
    /// that the concurrent `to` writes, but `to` commits first. This is the only edge that
    /// points "backwards" in commit order.
    AntiReadWrite,
}

impl DependencyKind {
    /// Short label used in traces and experiment output.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            DependencyKind::NonConcurrentWriteWrite => "n-ww",
            DependencyKind::NonConcurrentWriteRead => "n-wr",
            DependencyKind::NonConcurrentReadWrite => "n-rw",
            DependencyKind::ConcurrentWriteWrite => "c-ww",
            DependencyKind::ConcurrentReadWrite => "c-rw",
            DependencyKind::AntiReadWrite => "anti-rw",
        }
    }
}

impl fmt::Display for DependencyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use DependencyKind::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(AntiReadWrite.to_string(), "anti-rw");
        assert_eq!(ConcurrentWriteWrite.label(), "c-ww");
        assert_eq!(NonConcurrentWriteRead.label(), "n-wr");
    }
}

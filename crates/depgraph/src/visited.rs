//! Epoch-tagged visited sets for allocation-free graph traversals.
//!
//! Every reachability query used to allocate a fresh `HashSet<u64>` per call — the dominant
//! arrival-path cost once the per-insert reach-set clone was gone. [`EpochVisited`]
//! replaces that with one reusable array of epoch marks over the interned slot space
//! ([`crate::interner::Interner`]): "clearing" the set is a single epoch-counter bump, and
//! membership is one array read, so a DFS costs exactly its touched edges with no hashing and
//! no per-query allocation once the array has grown to the slab's capacity.

/// A visited set over dense `u32` slots, cleared in O(1) by bumping an epoch counter.
/// [`EpochVisited::reset`] must be called (with the current slot capacity) before each
/// traversal.
#[derive(Clone, Debug, Default)]
pub(crate) struct EpochVisited {
    marks: Vec<u32>,
    epoch: u32,
}

impl EpochVisited {
    /// Starts a new traversal over `capacity` slots: grows the mark array if the slot space
    /// grew and invalidates every previous mark by bumping the epoch. On the (practically
    /// unreachable) epoch wrap-around the marks are hard-cleared so stale marks from 4 billion
    /// traversals ago cannot alias the new epoch.
    pub(crate) fn reset(&mut self, capacity: usize) {
        if self.marks.len() < capacity {
            self.marks.resize(capacity, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.marks.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `slot` visited; returns `true` if it was not already visited in this traversal.
    #[inline]
    pub(crate) fn insert(&mut self, slot: u32) -> bool {
        let mark = &mut self.marks[slot as usize];
        if *mark == self.epoch {
            false
        } else {
            *mark = self.epoch;
            true
        }
    }

    /// Whether `slot` was visited in the current traversal.
    #[inline]
    pub(crate) fn contains(&self, slot: u32) -> bool {
        self.marks[slot as usize] == self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains_within_one_epoch() {
        let mut v = EpochVisited::default();
        v.reset(4);
        assert!(v.insert(2));
        assert!(!v.insert(2), "second insert reports already-visited");
        assert!(v.contains(2));
        assert!(!v.contains(0));
    }

    #[test]
    fn reset_clears_in_constant_time() {
        let mut v = EpochVisited::default();
        v.reset(8);
        for slot in 0..8 {
            assert!(v.insert(slot));
        }
        v.reset(8);
        for slot in 0..8 {
            assert!(
                !v.contains(slot),
                "marks from the previous epoch must be gone"
            );
            assert!(v.insert(slot));
        }
    }

    #[test]
    fn reset_grows_with_the_slot_space() {
        let mut v = EpochVisited::default();
        v.reset(2);
        v.insert(1);
        v.reset(10);
        assert!(!v.contains(1));
        assert!(v.insert(9));
    }

    #[test]
    fn epoch_wraparound_hard_clears() {
        let mut v = EpochVisited {
            marks: vec![u32::MAX - 1, u32::MAX],
            epoch: u32::MAX,
        };
        // Slot 1 is visited in the current (u32::MAX) epoch.
        assert!(v.contains(1));
        v.reset(2);
        // The epoch wrapped: nothing may appear visited, including marks that happen to equal
        // small epoch values from the distant past.
        assert!(!v.contains(0));
        assert!(!v.contains(1));
        assert!(v.insert(0));
    }
}

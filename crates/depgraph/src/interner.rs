//! Transaction-id interning: `TxnId` → dense `u32` slot.
//!
//! The dependency graph's hot paths (reachability walks, cycle tests, the pending-set
//! topological sort) used to address nodes through `HashMap<u64, TxnNode>` lookups. Interning
//! every tracked transaction into a dense slot turns those into direct `Vec` indexing:
//! adjacency lists store `u32` slots, visited sets become epoch-tagged arrays
//! ([`crate::visited::EpochVisited`]) and block formation's in-degree and commit-position
//! tables become dense arrays over the slot space. Slots of removed transactions are recycled through a free list, so the
//! slot space stays as small as the peak number of live nodes — the property the pruning of
//! Section 4.6 already guarantees is bounded.

use eov_common::hash::FoldState;
use eov_common::txn::TxnId;
use std::collections::HashMap;

/// A slab-style interner with a free list. `intern` hands out the smallest recycled slot if
/// one is available, otherwise appends a fresh one; `release` returns a slot to the free list.
#[derive(Clone, Debug, Default)]
pub(crate) struct Interner {
    map: HashMap<u64, u32, FoldState>,
    /// Raw transaction id stored per slot; stale for vacant slots (callers only index live
    /// slots, which the graph guarantees by cleaning adjacency on removal).
    ids: Vec<u64>,
    /// Per slot, how many times it has been released: a reference to a slot taken with an
    /// older count names one of its former occupants.
    generations: Vec<u32>,
    free: Vec<u32>,
}

impl Interner {
    /// Creates an empty interner.
    pub(crate) fn new() -> Self {
        Interner::default()
    }

    /// Number of live (interned, not released) ids.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no id is interned.
    pub(crate) fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The slot of `id`, if interned.
    #[inline]
    pub(crate) fn get(&self, id: TxnId) -> Option<u32> {
        self.map.get(&id.0).copied()
    }

    /// Interns `id`, returning its (possibly pre-existing) slot. Recycles released slots
    /// before growing the slot space.
    pub(crate) fn intern(&mut self, id: TxnId) -> u32 {
        if let Some(&slot) = self.map.get(&id.0) {
            return slot;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.ids[slot as usize] = id.0;
                slot
            }
            None => {
                let slot = u32::try_from(self.ids.len()).expect("slot space exceeds u32");
                self.ids.push(id.0);
                self.generations.push(0);
                slot
            }
        };
        self.map.insert(id.0, slot);
        slot
    }

    /// Releases `id`, returning its now-recyclable slot (or `None` if it was not interned).
    pub(crate) fn release(&mut self, id: TxnId) -> Option<u32> {
        let slot = self.map.remove(&id.0)?;
        let generation = &mut self.generations[slot as usize];
        *generation = generation.wrapping_add(1);
        self.free.push(slot);
        Some(slot)
    }

    /// How many times `slot` has been released; it changes exactly when the slot's occupant
    /// does.
    #[inline]
    pub(crate) fn generation(&self, slot: u32) -> u32 {
        self.generations[slot as usize]
    }

    /// The transaction id stored at a **live** slot.
    #[inline]
    pub(crate) fn id_at(&self, slot: u32) -> TxnId {
        TxnId(self.ids[slot as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut i = Interner::new();
        let a = i.intern(TxnId(100));
        let b = i.intern(TxnId(200));
        assert_eq!(i.intern(TxnId(100)), a);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
        assert_eq!(i.ids.len(), 2);
        assert_eq!(i.get(TxnId(200)), Some(b));
        assert_eq!(i.id_at(a), TxnId(100));
    }

    #[test]
    fn release_recycles_slots_before_growing() {
        let mut i = Interner::new();
        let a = i.intern(TxnId(1));
        i.intern(TxnId(2));
        assert_eq!(i.release(TxnId(1)), Some(a));
        assert_eq!(i.get(TxnId(1)), None);
        assert_eq!(i.len(), 1);
        // The freed slot is handed out again; capacity does not grow.
        let c = i.intern(TxnId(3));
        assert_eq!(c, a);
        assert_eq!(i.ids.len(), 2);
        assert_eq!(i.id_at(c), TxnId(3));
        // The slot's generation moved with its occupant.
        assert_eq!(
            (i.generation(c), i.generation(i.get(TxnId(2)).unwrap())),
            (1, 0)
        );
        // Releasing an unknown id is a no-op.
        assert_eq!(i.release(TxnId(77)), None);
    }

    #[test]
    fn heavy_churn_keeps_capacity_at_peak_live() {
        let mut i = Interner::new();
        for round in 0..50u64 {
            for k in 0..10 {
                i.intern(TxnId(round * 10 + k));
            }
            for k in 0..10 {
                i.release(TxnId(round * 10 + k));
            }
        }
        assert!(i.is_empty());
        assert_eq!(i.ids.len(), 10, "free-list reuse must cap the slot space");
    }
}

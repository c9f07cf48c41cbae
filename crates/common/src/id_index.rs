//! An id index over key bytes: the hash table behind the state store's chains and the
//! orderer's key table.
//!
//! Both keep their entries in a slab and look an entry up by its key's bytes, so one
//! open-addressed, linearly probed table of 8-byte slots maps a key's 64-bit hash to the
//! entry's 32-bit id. Each slot is the upper half of the hash above the id, and a slot's home
//! position is the top bits of that half: a probe compares hash tags before it asks the slab
//! to compare a key, and growing the table re-places its slots from the slots alone. The
//! table never holds a key; the caller's slab does, and [`IdIndex::find`] asks it through a
//! closure whether an id holds the key being probed. Removal shifts later slots back, so there
//! are no tombstones.

/// The id index (see the module header). The caller hashes the key (with
/// [`crate::hash::FoldState`]) and passes the hash to every call.
#[derive(Clone, Debug)]
pub struct IdIndex {
    /// Length a power of two; each slot [`VACANT`] or `tag | id`.
    slots: Vec<u64>,
    /// Ids in the index.
    len: usize,
}

/// A slot holding nothing. No id is `u32::MAX`, so no taken slot reads all ones.
const VACANT: u64 = u64::MAX;
/// Slots of an empty index.
const MIN_SLOTS: usize = 8;
/// The index doubles when more than `MAX_LOAD.0 / MAX_LOAD.1` of its slots are taken, so it
/// holds 8/7 to 16/7 slots per id (9–18 bytes). At a load α, a linear probe expects to
/// inspect ½(1 + 1/(1 − α)) slots to find an id and ½(1 + 1/(1 − α)²) to find none (Knuth):
/// at most 4.5 and 32.5 at the bound. A probe compares eight 8-byte hash tags per cache line
/// and asks the slab for a key only on a tag match, so even a miss seldom reads more than a
/// few lines; hashbrown runs at the same bound.
const MAX_LOAD: (usize, usize) = (7, 8);

impl Default for IdIndex {
    fn default() -> Self {
        IdIndex::with_capacity(0)
    }
}

/// Home position of `hash` (or of a slot made from it) in a table of `1 << bits` slots.
#[inline]
fn home(hash: u64, bits: u32) -> usize {
    (hash >> (64 - bits)) as usize
}

impl IdIndex {
    /// An empty index that takes `ids` ids before it first grows: its one table is allocated
    /// here, so filling it never holds two.
    ///
    /// # Panics
    ///
    /// If `ids` ids would need more than `2^32` slots.
    pub fn with_capacity(ids: usize) -> Self {
        let mut slots = MIN_SLOTS;
        while ids.saturating_mul(MAX_LOAD.1) > slots * MAX_LOAD.0 {
            assert!(
                slots.trailing_zeros() < 32,
                "a slot carries 32 bits of its key's hash"
            );
            slots *= 2;
        }
        IdIndex {
            slots: vec![VACANT; slots],
            len: 0,
        }
    }

    /// The id of the key hashing to `hash` — the first id under `hash`'s tag for which
    /// `is_key` holds — or, if there is none, the position a new id for the key belongs in
    /// (for [`IdIndex::insert`]). The load bound keeps slots vacant, so the walk ends.
    #[inline]
    pub fn find(&self, hash: u64, mut is_key: impl FnMut(u32) -> bool) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut at = home(hash, self.slots.len().trailing_zeros());
        loop {
            let slot = self.slots[at];
            if slot == VACANT {
                return Err(at);
            }
            let id = slot as u32;
            if (slot ^ hash) >> 32 == 0 && is_key(id) {
                return Ok(id);
            }
            at = (at + 1) & mask;
        }
    }

    /// Puts `id` for the key hashing to `hash` at `vacant`, which a [`IdIndex::find`] of that
    /// key returned with no insert or removal since.
    ///
    /// # Panics
    ///
    /// If `id` is `u32::MAX`, or the index would need more than `2^32` slots.
    #[inline]
    pub fn insert(&mut self, vacant: usize, hash: u64, id: u32) {
        assert!(id != u32::MAX, "ids fit in 32 bits, u32::MAX excluded");
        debug_assert_eq!(self.slots[vacant], VACANT);
        self.slots[vacant] = hash & !u64::from(u32::MAX) | u64::from(id);
        self.len += 1;
        if self.len * MAX_LOAD.1 > self.slots.len() * MAX_LOAD.0 {
            self.grow();
        }
    }

    /// Takes `id`, which is in the index for a key hashing to `hash`, out of it, shifting the
    /// slots after it back so every probe path stays unbroken.
    pub fn remove(&mut self, hash: u64, id: u32) {
        let (mask, bits) = (self.slots.len() - 1, self.slots.len().trailing_zeros());
        let mut hole = home(hash, bits);
        loop {
            let slot = self.slots[hole];
            assert!(slot != VACANT, "a removed id is in the index");
            if slot as u32 == id {
                break;
            }
            hole = (hole + 1) & mask;
        }
        let mut at = (hole + 1) & mask;
        while self.slots[at] != VACANT {
            // The slot at `at` may fill the hole if the hole is on its probe path, i.e. no
            // further from `at` than its home is.
            let from_home = at.wrapping_sub(home(self.slots[at], bits)) & mask;
            if from_home >= (at.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[at];
                hole = at;
            }
            at = (at + 1) & mask;
        }
        self.slots[hole] = VACANT;
        self.len -= 1;
    }

    /// Doubles the index, re-placing every slot by the hash bits it carries.
    fn grow(&mut self) {
        let bits = self.slots.len().trailing_zeros() + 1;
        assert!(bits <= 32, "a slot carries 32 bits of its key's hash");
        let mask = (1usize << bits) - 1;
        let mut slots = vec![VACANT; mask + 1];
        for &slot in self.slots.iter().filter(|&&slot| slot != VACANT) {
            let mut at = home(slot, bits);
            while slots[at] != VACANT {
                at = (at + 1) & mask;
            }
            slots[at] = slot;
        }
        self.slots = slots;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// A hash with `homes` distinct home regions and three tags, so many keys share a hash.
    fn hash(key: u64, homes: u64) -> u64 {
        (key % homes) << 58 | (key % 3) << 32
    }

    /// A seeded stream of well-mixed 64-bit hashes (splitmix64).
    fn hash_stream(seed: u64) -> impl Iterator<Item = u64> {
        let mut state = seed;
        std::iter::repeat_with(move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ state >> 30).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ z >> 27).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ z >> 31
        })
    }

    /// Inserts an id for each of `hashes`, in order, taking each hash as a new key.
    fn fill(index: &mut IdIndex, hashes: impl Iterator<Item = u64>) {
        for (id, hash) in hashes.enumerate() {
            let vacant = index.find(hash, |_| false).unwrap_err();
            index.insert(vacant, hash, id as u32);
        }
    }

    #[test]
    fn with_capacity_takes_its_ids_without_growing() {
        for ids in [0usize, 1, 7, 8, 100, 896, 897, 57_344, 57_345] {
            let mut index = IdIndex::with_capacity(ids);
            let slots = index.slots.len();
            fill(&mut index, hash_stream(ids as u64).take(ids));
            assert_eq!(index.slots.len(), slots, "{ids} ids");
            assert_eq!(index.len, ids);
            // The smallest table that holds them: half as many slots would not.
            assert!(
                slots == MIN_SLOTS || ids * MAX_LOAD.1 > slots / 2 * MAX_LOAD.0,
                "{ids} ids in {slots} slots"
            );
        }
    }

    /// Linear probing at the load bound: a table grown from empty to the most ids its 2^16
    /// slots take (7/8 of them) from a seeded hash stream. Knuth's expectations there are 4.5
    /// slots per successful probe and 32.5 per unsuccessful one. The counts are exact for the
    /// stream, so a bound or a `home` that clusters slots more fails here.
    #[test]
    fn probes_stay_short_at_the_load_bound() {
        const SLOTS: usize = 1 << 16;
        let ids = SLOTS * MAX_LOAD.0 / MAX_LOAD.1;
        let mut index = IdIndex::default();
        fill(&mut index, hash_stream(42).take(ids));
        assert_eq!(index.slots.len(), SLOTS);
        let (mask, bits) = (SLOTS - 1, SLOTS.trailing_zeros());
        // A successful probe inspects the slots from its id's home to the id's own.
        let hits: usize = (0..SLOTS)
            .filter(|&at| index.slots[at] != VACANT)
            .map(|at| (at.wrapping_sub(home(index.slots[at], bits)) & mask) + 1)
            .sum();
        // An unsuccessful one, from each home in turn, inspects up to the first vacant slot.
        let misses: usize = (0..SLOTS)
            .map(|start| (0..SLOTS).find(|step| index.slots[(start + step) & mask] == VACANT))
            .map(|steps| steps.expect("the bound keeps slots vacant") + 1)
            .sum();
        let (hit, miss) = (hits as f64 / ids as f64, misses as f64 / SLOTS as f64);
        assert!(hit <= 5.0, "{hit:.2} slots per successful probe");
        assert!(miss <= 40.0, "{miss:.2} slots per unsuccessful probe");
    }

    proptest! {
        /// Inserts and removals of keys whose hashes collide (so probe runs are long, share
        /// homes and wrap around the table): after every step each key of the model is found
        /// with its id, a removed key is not found, and the vacant slot `find` gives a new key
        /// takes it.
        #[test]
        fn index_matches_a_map(ops in vec((0u64..48, any::<bool>()), 1..400), homes in 1u64..9) {
            let mut index = IdIndex::default();
            let mut keys: Vec<u64> = Vec::new();
            let mut model: BTreeMap<u64, u32> = BTreeMap::new();
            for (key, insert) in ops {
                let h = hash(key, homes);
                let found = index.find(h, |id| keys[id as usize] == key);
                prop_assert_eq!(found.ok(), model.get(&key).copied());
                match (insert, found) {
                    (true, Err(vacant)) => {
                        let id = keys.len() as u32;
                        keys.push(key);
                        index.insert(vacant, h, id);
                        model.insert(key, id);
                    }
                    (false, Ok(id)) => {
                        index.remove(h, id);
                        model.remove(&key);
                    }
                    _ => {}
                }
                for (&key, &id) in &model {
                    prop_assert_eq!(index.find(hash(key, homes), |i| keys[i as usize] == key), Ok(id));
                }
                prop_assert_eq!(index.len, model.len());
            }
        }
    }
}

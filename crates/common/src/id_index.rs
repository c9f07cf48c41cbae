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
/// The index doubles when more than `MAX_LOAD.0 / MAX_LOAD.1` of its slots are taken: a probe
/// walks eight slots per cache line and rarely leaves its first line up to there.
const MAX_LOAD: (usize, usize) = (5, 8);

impl Default for IdIndex {
    fn default() -> Self {
        IdIndex {
            slots: vec![VACANT; MIN_SLOTS],
            len: 0,
        }
    }
}

/// Home position of `hash` (or of a slot made from it) in a table of `1 << bits` slots.
#[inline]
fn home(hash: u64, bits: u32) -> usize {
    (hash >> (64 - bits)) as usize
}

impl IdIndex {
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

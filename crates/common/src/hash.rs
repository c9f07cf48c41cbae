//! One keyed hash for the state store and every orderer map on the per-transaction path.
//!
//! The mixing step is the folded multiply of wyhash / foldhash: the 128-bit product of two
//! words, its halves XORed together. [`FoldState`] builds [`FoldHasher`]s for `HashMap`s;
//! the state store ([`FoldState::hash_bytes`]) keys its own open-addressed index with it.
//! A key string of up to 16 bytes costs one multiplication (two as a map key: `str`'s `Hash`
//! writes a terminator byte after it) and an integer id one, where the standard library's
//! SipHash-1-3 runs several rounds per 8 bytes plus four finishing rounds.
//!
//! # Keying
//!
//! Record keys arrive in transactions, so whoever submits them could aim them at one bucket
//! if the hash were known. Every [`FoldState`] therefore draws two secret words from the
//! standard library's per-process random state, and both multiplicands of every fold carry
//! one of them (directly or through the chained state), so without the seed no input can be
//! chosen to zero a product. There is deliberately no fixed-seed or unkeyed constructor.
//!
//! Iteration order of a map built on this hash is as random per process as with
//! `RandomState`, so clippy refuses to iterate one (see `clippy.toml`).

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hasher};

/// `(a * b)` folded to 64 bits: the mixing step of wyhash / foldhash.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// A keyed hash of `bytes` costing one multiplication per 16 bytes. `seed.0` is XORed into
/// every word, `seed.1` starts the state.
#[inline]
fn hash_bytes(seed: (u64, u64), bytes: &[u8]) -> u64 {
    let len = bytes.len();
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let half = |at: usize| {
        u64::from(u32::from_le_bytes(
            bytes[at..at + 4].try_into().expect("4 bytes"),
        ))
    };
    let mut state = seed.1;
    // The last 1..=16 bytes as two (possibly overlapping) words; whole 16-byte blocks before
    // them are folded into the state.
    let (a, b) = if len > 16 {
        let mut at = 0;
        while len - at > 16 {
            state = fold(word(at) ^ seed.0, word(at + 8) ^ state);
            at += 16;
        }
        (word(len - 16), word(len - 8))
    } else if len >= 8 {
        (word(0), word(len - 8))
    } else if len >= 4 {
        (half(0), half(len - 4))
    } else if len > 0 {
        let spread = u64::from(bytes[0]) << 16 | u64::from(bytes[len / 2]) << 8;
        (spread | u64::from(bytes[len - 1]), 0)
    } else {
        (0, 0)
    };
    fold(a ^ seed.0, b ^ state ^ (len as u64).rotate_left(56))
}

/// Two words nobody outside the process knows, drawn from the generator `HashMap` seeds from.
fn random_seed() -> (u64, u64) {
    let word = || RandomState::new().build_hasher().finish();
    (word(), word())
}

/// The keyed state behind one map (or one store index) and its clones: a `BuildHasher`
/// whose `Default` draws fresh secret words for every map. Its `Debug` form, like
/// `RandomState`'s, leaves the words out.
#[derive(Clone)]
pub struct FoldState {
    seed: (u64, u64),
}

impl Default for FoldState {
    fn default() -> Self {
        FoldState {
            seed: random_seed(),
        }
    }
}

impl fmt::Debug for FoldState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FoldState").finish_non_exhaustive()
    }
}

impl FoldState {
    /// The hash of `bytes` under this state: what a [`FoldHasher`] built from it finishes
    /// with after one `write(bytes)`.
    #[inline]
    pub fn hash_bytes(&self, bytes: &[u8]) -> u64 {
        hash_bytes(self.seed, bytes)
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            secret: self.seed.0,
            state: self.seed.1,
        }
    }
}

/// A hasher from a [`FoldState`]: byte strings chain [`FoldState::hash_bytes`] through the
/// state, and each integer costs one fold. Its `Debug` form leaves the secret out.
#[derive(Clone)]
pub struct FoldHasher {
    /// The secret word XORed into every input word.
    secret: u64,
    /// Everything written so far; starts as the state's second secret word.
    state: u64,
}

impl fmt::Debug for FoldHasher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FoldHasher").finish_non_exhaustive()
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.state = hash_bytes((self.secret, self.state), bytes);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = fold(n ^ self.secret, self.state);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rwset::Key;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

    #[test]
    fn two_states_hash_a_key_differently_and_clones_alike() {
        let key = Key::new("checking:42");
        let (one, other) = (FoldState::default(), FoldState::default());
        assert_ne!(one.hash_one(&key), other.hash_one(&key));
        assert_ne!(one.hash_one(42u64), other.hash_one(42u64));
        let clone = one.clone();
        assert_eq!(one.hash_one(&key), clone.hash_one(&key));
        assert_eq!(one.hash_one(42u64), clone.hash_one(42u64));
    }

    #[test]
    fn debug_output_keeps_the_secret_words_out() {
        let state = FoldState::default();
        let hasher = state.build_hasher();
        assert_eq!(format!("{state:?}"), "FoldState { .. }");
        assert_eq!(format!("{hasher:?}"), "FoldHasher { .. }");
        let printed = format!("{state:?} {state:#?} {hasher:?} {hasher:#?}");
        for word in [state.seed.0, state.seed.1] {
            assert!(!printed.contains(&word.to_string()));
            assert!(!printed.contains(&format!("{word:x}")));
        }
    }

    #[test]
    fn hash_bytes_is_one_write() {
        let state = FoldState::default();
        for len in [0, 1, 3, 4, 7, 8, 15, 16, 17, 32, 33, 64] {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let mut hasher = state.build_hasher();
            hasher.write(&bytes);
            assert_eq!(hasher.finish(), state.hash_bytes(&bytes), "{len} bytes");
        }
    }

    /// Keys of 0–64 bytes, crossing every length branch of `hash_bytes`, over a small
    /// alphabet so that they share prefixes and suffixes.
    fn keys() -> impl Strategy<Value = Vec<Key>> {
        let key = (0usize..65, any::<u64>()).prop_map(|(len, bits)| {
            let text: String = (0..len)
                .map(|i| char::from(b'a' + (bits.rotate_left(i as u32 * 2) & 3) as u8))
                .collect();
            Key::new(text)
        });
        vec(key, 1..24)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A map on this hash answers insert / get / remove like an ordered map, for string
        /// keys of every length class.
        #[test]
        fn keyed_map_matches_an_ordered_map(
            keys in keys(),
            ops in vec((0u8..3, any::<prop::sample::Index>(), any::<u32>()), 0..200),
        ) {
            let mut map: HashMap<Key, u32, FoldState> = HashMap::default();
            let mut model: BTreeMap<Key, u32> = BTreeMap::new();
            for (op, at, value) in ops {
                let key = &keys[at.index(keys.len())];
                match op {
                    0 => prop_assert_eq!(
                        map.insert(key.clone(), value),
                        model.insert(key.clone(), value)
                    ),
                    1 => prop_assert_eq!(map.get(key), model.get(key)),
                    _ => prop_assert_eq!(map.remove(key), model.remove(key)),
                }
                prop_assert_eq!(map.len(), model.len());
            }
            for (k, v) in &model {
                prop_assert_eq!(map.get(k), Some(v));
            }
        }

        /// The same for `u64` ids, sequential (as the orderer hands them out) and random.
        #[test]
        fn id_map_matches_an_ordered_map(
            start in any::<u64>(),
            random in vec(any::<u64>(), 0..200),
            removed in vec(0usize..400, 0..100),
        ) {
            let ids: Vec<u64> = (0..200).map(|i| start.wrapping_add(i)).chain(random).collect();
            let mut map: HashMap<u64, u32, FoldState> = HashMap::default();
            let mut model: BTreeMap<u64, u32> = BTreeMap::new();
            for (i, &id) in ids.iter().enumerate() {
                prop_assert_eq!(map.insert(id, i as u32), model.insert(id, i as u32));
            }
            for at in removed {
                let id = ids[at % ids.len()];
                prop_assert_eq!(map.remove(&id), model.remove(&id));
            }
            prop_assert_eq!(map.len(), model.len());
            for &id in &ids {
                prop_assert_eq!(map.get(&id), model.get(&id));
            }
        }
    }
}

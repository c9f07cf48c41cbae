//! Bloom filters for reachability tracking (Section 4.4).
//!
//! FabricSharp represents "all transactions that can reach `txn`" with a bloom filter
//! (`txn.anti_reachable`), because the dominant operation — unioning a predecessor's
//! reachability into a successor's (Algorithm 4) — becomes a bitwise OR over the underlying
//! bit vectors. False positives are possible and lead to preventive aborts; false negatives
//! are impossible, which is what the serializability guarantee relies on.
//!
//! [`BloomFilter`] is a fixed-size double-hashing bloom filter with O(words) union.

/// A fixed-size bloom filter over `u64` items (transaction identifiers).
///
/// Two filters can be unioned only if they share the same geometry (bit count and hash count);
/// the dependency graph always builds them from one [`eov_common::CcConfig`], so this holds by
/// construction, and [`BloomFilter::union_with`] asserts it in every build.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BloomFilter {
    words: Vec<u64>,
    num_bits: usize,
    num_hashes: usize,
}

impl BloomFilter {
    /// Creates an empty filter with `num_bits` bits (raised to at least 64) and `num_hashes`
    /// probes per item.
    ///
    /// # Panics
    ///
    /// Panics unless the bit count is a power of two: a probe reduces its hash to a bit with a
    /// mask. This is the one check a `CcConfig::bloom_bits` gets.
    pub fn new(num_bits: usize, num_hashes: usize) -> Self {
        let num_bits = num_bits.max(64);
        assert!(
            num_bits.is_power_of_two(),
            "bloom filter bit count {num_bits} is not a power of two"
        );
        let words = vec![0u64; num_bits / 64];
        BloomFilter {
            words,
            num_bits,
            num_hashes: num_hashes.clamp(1, 16),
        }
    }

    /// Inserts an item.
    pub fn insert(&mut self, item: u64) {
        let (h1, h2) = Self::hash_pair(item);
        for i in 0..self.num_hashes {
            let bit = self.probe(h1, h2, i);
            self.words[bit / 64] |= 1u64 << (bit % 64);
        }
    }

    /// Tests membership. May return a false positive, never a false negative.
    pub fn contains(&self, item: u64) -> bool {
        self.contains_prehashed(Self::hash_pair(item))
    }

    /// Membership test with the double-hashing pair already computed by
    /// [`BloomFilter::hash_pair`]. Identical to [`BloomFilter::contains`]; callers probing one
    /// item against many filters (the arrival-time cycle test) hash once and probe N times.
    #[inline]
    pub(crate) fn contains_prehashed(&self, (h1, h2): (u64, u64)) -> bool {
        (0..self.num_hashes).all(|i| {
            let bit = self.probe(h1, h2, i);
            self.words[bit / 64] & (1u64 << (bit % 64)) != 0
        })
    }

    /// Unions `other` into `self` (bitwise OR). Both filters must share the same geometry.
    ///
    /// # Panics
    ///
    /// Panics — in release builds too — when the geometries differ. A mismatched union would
    /// silently zip over the shorter word vector and drop set bits, i.e. manufacture bloom
    /// *false negatives*, which is the one failure mode the serializability guarantee cannot
    /// tolerate (false positives merely cause preventive aborts).
    pub fn union_with(&mut self, other: &BloomFilter) {
        assert_eq!(
            (self.num_bits, self.num_hashes),
            (other.num_bits, other.num_hashes),
            "bloom geometry mismatch: unioning filters of different geometry loses set bits"
        );
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Number of set bits (diagnostics / saturation metrics).
    pub fn popcount(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    #[inline]
    fn probe(&self, h1: u64, h2: u64, i: usize) -> usize {
        // Kirsch–Mitzenmacher double hashing: g_i(x) = h1 + i * h2, reduced modulo the bit
        // count, a power of two, by a mask.
        (h1.wrapping_add((i as u64).wrapping_mul(h2)) & (self.num_bits as u64 - 1)) as usize
    }

    #[inline]
    pub(crate) fn hash_pair(item: u64) -> (u64, u64) {
        (
            splitmix64(item ^ 0x9e37_79b9_7f4a_7c15),
            splitmix64(item.wrapping_add(0x2545_f491_4f6c_dd1d)) | 1,
        )
    }
}

/// The 64-bit finaliser of SplitMix64; a cheap, well-mixed hash for integer keys.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_contains_never_false_negative() {
        let mut f = BloomFilter::new(1024, 3);
        for i in 0..200u64 {
            f.insert(i * 7 + 1);
        }
        for i in 0..200u64 {
            assert!(f.contains(i * 7 + 1), "false negative for {}", i * 7 + 1);
        }
        assert!(f.popcount() > 0);
    }

    #[test]
    fn union_is_superset_of_both() {
        let mut a = BloomFilter::new(512, 3);
        let mut b = BloomFilter::new(512, 3);
        for i in 0..50u64 {
            a.insert(i);
            b.insert(1000 + i);
        }
        a.union_with(&b);
        for i in 0..50u64 {
            assert!(a.contains(i));
            assert!(a.contains(1000 + i));
        }
    }

    #[test]
    fn false_positive_rate_is_reasonable_when_sized_properly() {
        // 4096 bits / 3 hashes / 200 items → theoretical FPR well under 2%.
        let mut f = BloomFilter::new(4096, 3);
        for i in 0..200u64 {
            f.insert(i);
        }
        let false_positives = (10_000u64..20_000).filter(|i| f.contains(*i)).count();
        assert!(
            false_positives < 300,
            "false positive rate too high: {false_positives}/10000"
        );
    }

    /// Regression test: geometry mismatches must abort in *release* builds too. The previous
    /// `debug_assert` compiled away under `--release`, and a mismatched union silently zipped
    /// to the shorter word vector — dropping set bits and producing bloom false negatives.
    #[test]
    #[should_panic(expected = "bloom geometry mismatch")]
    fn union_with_mismatched_bit_count_panics() {
        let mut a = BloomFilter::new(512, 3);
        let b = BloomFilter::new(1024, 3);
        a.union_with(&b);
    }

    #[test]
    #[should_panic(expected = "bloom geometry mismatch")]
    fn union_with_mismatched_hash_count_panics() {
        let mut a = BloomFilter::new(512, 3);
        let b = BloomFilter::new(512, 4);
        a.union_with(&b);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn a_bit_count_off_a_power_of_two_is_refused() {
        BloomFilter::new(1000, 3);
    }

    #[test]
    fn geometry_is_rounded_and_clamped() {
        let f = BloomFilter::new(10, 99);
        assert_eq!(f.num_bits, 64);
        assert_eq!(f.num_hashes, 16);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// No false negatives, ever.
        #[test]
        fn no_false_negatives(items in proptest::collection::vec(any::<u64>(), 1..300)) {
            let mut f = BloomFilter::new(2048, 4);
            for &i in &items {
                f.insert(i);
            }
            for &i in &items {
                prop_assert!(f.contains(i));
            }
        }

        /// Union never loses members from either side.
        #[test]
        fn union_preserves_membership(
            left in proptest::collection::vec(any::<u64>(), 0..100),
            right in proptest::collection::vec(any::<u64>(), 0..100),
        ) {
            let mut a = BloomFilter::new(2048, 3);
            let mut b = BloomFilter::new(2048, 3);
            for &i in &left { a.insert(i); }
            for &i in &right { b.insert(i); }
            a.union_with(&b);
            for &i in left.iter().chain(right.iter()) {
                prop_assert!(a.contains(i));
            }
        }

        /// The mask picks the same bit as the modulo at every power-of-two size from 64 to
        /// 65 536 bits.
        #[test]
        fn mask_probe_equals_the_modulo(h1 in any::<u64>(), h2 in any::<u64>(), i in 0usize..16) {
            for shift in 6..=16 {
                let f = BloomFilter::new(1 << shift, 1);
                prop_assert_eq!(f.probe(h1, h2, i), modulo_probe(h1, h2, i, 1 << shift));
            }
        }
    }

    /// The probe as it was before the mask: `(h1 + i * h2) mod n`.
    fn modulo_probe(h1: u64, h2: u64, i: usize, n: usize) -> usize {
        (h1.wrapping_add((i as u64).wrapping_mul(h2)) % n as u64) as usize
    }
}

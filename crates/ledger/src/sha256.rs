//! A small, dependency-free SHA-256 implementation (FIPS 180-4) with two compression kernels.
//!
//! The ledger only needs a collision-resistant hash to chain block headers; pulling in a full
//! crypto crate is unnecessary for the reproduction and is not on the approved dependency
//! list, so the hash is implemented here directly. [`sha256`] hashes one contiguous buffer
//! in one shot: every block hash, body hash and commitment is a single call over bytes the
//! codec has already laid out.
//!
//! Every whole 64-byte block of the message goes to one compression kernel in one call, and
//! the padded tail (one or two blocks on the stack) in a second. The kernel is picked per call
//! from CPUID:
//!
//! * **SHA-NI** (`sha_ni::compress_blocks`, x86-64 only) runs on the CPU's SHA extensions
//!   (`sha256rnds2`, `sha256msg1`, `sha256msg2`) whenever CPUID reports `sha`, `ssse3` and
//!   `sse4.1`. It keeps the state in two registers across every block of one call.
//! * **Portable** (`compress_portable`) runs everywhere else: FIPS 180-4 §6.2.2 as written, a
//!   64-word message schedule and 64 rounds. The tests use it as the oracle for the other.
//!
//! Both give the same digest for every message, so which one ran never shows in a ledger.
//!
//! This module also holds the ledger's single entry into hardware kernels, `KernelCall::run`,
//! which reaches both the SHA-NI kernel and the CRC-32 one (`codec::clmul::fold`, on the
//! carry-less multiply). Each is a safe `#[target_feature]` function, and calling one from
//! code compiled without those features is this crate's one `unsafe` block, in `run`. It is
//! sound because every `KernelCall` variant holds its kernel's own `Detected`, which only that
//! kernel's CPUID check can make. CPUs that are not x86-64 always take the portable paths, as
//! do x86-64 CPUs whose CPUID lacks `sha`, `ssse3` or `sse4.1` (SHA-256) or `pclmulqdq` or
//! `sse4.1` (CRC-32).

/// A 32-byte SHA-256 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used as the previous-hash of the genesis block.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Renders the digest as lowercase hex.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for byte in self.0 {
            s.push_str(&format!("{byte:02x}"));
        }
        s
    }

    /// Raw digest bytes.
    pub(crate) fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({}…)", &self.to_hex()[..8])
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// SHA-256 round constants (first 32 bits of the fractional parts of the cube roots of the
/// first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state (first 32 bits of the fractional parts of the square roots of the first
/// 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A compression kernel: folds full 64-byte blocks into the hash state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    /// [`compress_portable`], on every CPU.
    Portable,
    /// The SHA extensions, holding the proof that CPUID reported them.
    #[cfg(target_arch = "x86_64")]
    ShaNi(sha_ni::Detected),
}

impl Kernel {
    /// SHA-NI when CPUID reports it, portable otherwise.
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if let Some(detected) = sha_ni::detect() {
            return Kernel::ShaNi(detected);
        }
        Kernel::Portable
    }

    /// Folds `blocks`, in order, into `state`.
    fn compress_blocks(self, state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        match self {
            Kernel::Portable => {
                for block in blocks {
                    compress_portable(state, block);
                }
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi(detected) => KernelCall::ShaNi(detected, state, blocks).run(),
        }
    }
}

/// A call into one of the ledger's hardware kernels. Each variant holds its own kernel's
/// `Detected`, which only that kernel's `detect` can make, so a call exists only on a CPU
/// whose CPUID reported every feature the kernel it names is compiled for.
#[cfg(target_arch = "x86_64")]
pub(crate) enum KernelCall<'a> {
    /// Folds the blocks, in order, into the SHA-256 state.
    ShaNi(sha_ni::Detected, &'a mut [u32; 8], &'a [[u8; 64]]),
    /// Folds the chunks, in order, into the CRC-32 register.
    Clmul(crate::codec::clmul::Detected, &'a mut u32, &'a [[u8; 16]]),
}

#[cfg(target_arch = "x86_64")]
impl KernelCall<'_> {
    /// Runs the call: the ledger's one entry into code compiled for CPU features the rest of
    /// the crate is not compiled for.
    pub(crate) fn run(self) {
        // SAFETY: each kernel is a safe `#[target_feature]` function, and calling it is sound
        // once the CPU has its features. `sha_ni::compress_blocks` needs `sha`, `sse2`, `ssse3`
        // and `sse4.1`; `clmul::fold` needs `pclmulqdq`, `sse2` and `sse4.1`. `sse2` is part of
        // x86-64 itself, and the variant's `Detected` says CPUID reported the rest.
        #[allow(unsafe_code)]
        unsafe {
            match self {
                KernelCall::ShaNi(_, state, blocks) => sha_ni::compress_blocks(state, blocks),
                KernelCall::Clmul(_, crc, chunks) => crate::codec::clmul::fold(crc, chunks),
            }
        }
    }
}

/// The portable compression function: folds one 64-byte block into the state, as FIPS 180-4
/// §6.2.2 states it — a 64-word message schedule, then 64 rounds over the eight working
/// variables.
fn compress_portable(h: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *word = u32::from_be_bytes(*bytes);
    }
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16]
            .wrapping_add(s0)
            .wrapping_add(w[t - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for (k, w) in K.iter().zip(w) {
        let temp1 = hh
            .wrapping_add(e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25))
            .wrapping_add((e & f) ^ (!e & g))
            .wrapping_add(*k)
            .wrapping_add(w);
        let temp2 = (a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22))
            .wrapping_add((a & b) ^ (a & c) ^ (b & c));
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    for (word, add) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *word = word.wrapping_add(add);
    }
}

/// The compression kernel on the x86-64 SHA extensions.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_cvtsi128_si32, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32,
        _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8,
    };

    /// Proof that CPUID reported every feature [`compress_blocks`] is compiled for. Its field
    /// is private to this module, so [`detect`] is the only way to get one.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) struct Detected(());

    /// `Some` when this CPU can run [`compress_blocks`].
    pub(super) fn detect() -> Option<Detected> {
        let supported = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        supported.then_some(Detected(()))
    }

    /// Folds `blocks`, in order, into `state`. The state stays in two registers for the whole
    /// call, in the lane order `sha256rnds2` works on: ABEF and CDGH, highest lane first.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w0 = message_words(block, 0);
            let mut w1 = message_words(block, 1);
            let mut w2 = message_words(block, 2);
            let mut w3 = message_words(block, 3);
            four_rounds(&mut abef, &mut cdgh, w0, 0);
            four_rounds(&mut abef, &mut cdgh, w1, 1);
            four_rounds(&mut abef, &mut cdgh, w2, 2);
            four_rounds(&mut abef, &mut cdgh, w3, 3);
            // w0..w3 hold the last sixteen schedule words; each step overwrites the oldest
            // four with the next four.
            for quad in (4..16).step_by(4) {
                w0 = next_words(w0, w1, w2, w3);
                four_rounds(&mut abef, &mut cdgh, w0, quad);
                w1 = next_words(w1, w2, w3, w0);
                four_rounds(&mut abef, &mut cdgh, w1, quad + 1);
                w2 = next_words(w2, w3, w0, w1);
                four_rounds(&mut abef, &mut cdgh, w2, quad + 2);
                w3 = next_words(w3, w0, w1, w2);
                four_rounds(&mut abef, &mut cdgh, w3, quad + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_cvtsi128_si32(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_cvtsi128_si32(cdgh),
        ]
        .map(|word| word as u32);
    }

    /// Message words `4 * quad .. 4 * quad + 4` of `block`, the first in the lowest lane.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn message_words(block: &[u8; 64], quad: usize) -> __m128i {
        let bytes = &block[16 * quad..16 * quad + 16];
        let low = i64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let high = i64::from_le_bytes(bytes[8..].try_into().expect("8 bytes"));
        // Message words are big-endian: reverse the bytes of every 32-bit lane.
        let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        _mm_shuffle_epi8(_mm_set_epi64x(high, low), byte_swap)
    }

    /// Schedule words W[t..t + 4] from W[t - 16..t], given oldest four first.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn next_words(w16: __m128i, w12: __m128i, w8: __m128i, w4: __m128i) -> __m128i {
        // W[t - 16] + s0(W[t - 15]), plus W[t - 7]; `sha256msg2` adds s1(W[t - 2]) lane by
        // lane, using the lanes it has just computed for the upper two.
        let w7 = _mm_alignr_epi8::<4>(w4, w8);
        _mm_sha256msg2_epu32(_mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), w7), w4)
    }

    /// Rounds `4 * quad .. 4 * quad + 4` over schedule words `w`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn four_rounds(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, quad: usize) {
        let k = &K[4 * quad..4 * quad + 4];
        let k = _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32);
        let wk = _mm_add_epi32(w, k);
        // `sha256rnds2` runs two rounds on the low two lanes of `wk` and returns the new ABEF;
        // the old ABEF is the new CDGH, so the two registers swap roles in between.
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0e>(wk));
    }
}

/// Computes the SHA-256 digest of `data`, on the fastest kernel this CPU runs.
pub fn sha256(data: &[u8]) -> Digest {
    sha256_on(Kernel::detect(), data)
}

/// [`sha256`] on `kernel`: every whole 64-byte block of `data` goes to the kernel in one call,
/// then the tail, padded (0x80, zeros, the 64-bit message length in bits) to one block, or to
/// two when it leaves no room for the length.
fn sha256_on(kernel: Kernel, data: &[u8]) -> Digest {
    let mut state = H0;
    let (blocks, tail) = data.as_chunks::<64>();
    kernel.compress_blocks(&mut state, blocks);

    let mut last = [[0u8; 64]; 2];
    let padded = if tail.len() < 56 { 1 } else { 2 };
    let bytes = last.as_flattened_mut();
    bytes[..tail.len()].copy_from_slice(tail);
    bytes[tail.len()] = 0x80;
    let bit_len = (data.len() as u64).wrapping_mul(8);
    bytes[64 * padded - 8..64 * padded].copy_from_slice(&bit_len.to_be_bytes());
    kernel.compress_blocks(&mut state, &last[..padded]);

    let mut out = [0u8; 32];
    for (bytes, word) in out.as_chunks_mut::<4>().0.iter_mut().zip(state) {
        *bytes = word.to_be_bytes();
    }
    Digest(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NIST / RFC 6234 test vectors.
    #[test]
    fn known_test_vectors() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256(&data).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn padding_boundaries() {
        // Lengths around the 55/56/64-byte padding boundaries exercise the two-block path.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120] {
            let data = vec![0x61u8; len];
            let d1 = sha256(&data);
            let d2 = sha256(&data);
            assert_eq!(d1, d2, "deterministic at length {len}");
        }
        // 64 bytes of 'a' — cross-checked with an external implementation.
        assert_eq!(
            sha256(&[b'a'; 64]).to_hex(),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"
        );
    }

    /// Every kernel this CPU runs, portable first.
    pub(super) fn kernels() -> Vec<Kernel> {
        let mut kernels = vec![Kernel::Portable];
        if Kernel::detect() != Kernel::Portable {
            kernels.push(Kernel::detect());
        }
        kernels
    }

    /// On a CPU whose CPUID reports the SHA extensions every hash runs on the hardware kernel,
    /// so a silent fall-back to the portable one fails here and not only in the benchmark.
    #[test]
    fn dispatch_picks_sha_ni_whenever_cpuid_reports_it() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1") {
            assert!(matches!(Kernel::detect(), Kernel::ShaNi(_)));
            assert_eq!(kernels().len(), 2);
            return;
        }
        assert_eq!(Kernel::detect(), Kernel::Portable);
    }

    /// The textbook message padding on the portable kernel, kept as the oracle: copy the whole
    /// message, pad the copy, compress it block by block.
    fn sha256_padded_copy(data: &[u8]) -> Digest {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64).wrapping_mul(8).to_be_bytes());
        let mut h = H0;
        for block in padded.as_chunks::<64>().0 {
            compress_portable(&mut h, block);
        }
        let mut out = [0u8; 32];
        for (i, word) in h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    /// Every kernel this CPU runs, through the one-shot path: every length 0..=200 of an
    /// irregular message against the padded-copy oracle (every tail length, across the 55/56
    /// and 63/64/65 padding boundaries, behind zero to three whole blocks), and the million-'a'
    /// and 64 x 'a' vectors.
    #[test]
    fn every_kernel_matches_the_padded_copy_at_every_tail_length() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 7 + i / 13) as u8).collect();
        let million_a = vec![b'a'; 1_000_000];
        for kernel in kernels() {
            for len in 0..=data.len() {
                let message = &data[..len];
                let expected = sha256_padded_copy(message);
                assert_eq!(
                    sha256_on(kernel, message),
                    expected,
                    "{kernel:?}, length {len}"
                );
            }
            assert_eq!(
                sha256_on(kernel, &million_a).to_hex(),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{kernel:?}"
            );
            assert_eq!(
                sha256_on(kernel, &[b'a'; 64]).to_hex(),
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn digest_formatting() {
        let d = sha256(b"abc");
        assert_eq!(d.to_hex().len(), 64);
        assert!(format!("{d:?}").starts_with("Digest(ba7816bf"));
        assert_eq!(format!("{d}").len(), 64);
        assert_eq!(Digest::ZERO.as_bytes(), &[0u8; 32]);
    }

    #[test]
    fn single_bit_difference_changes_digest() {
        let a = sha256(b"transaction-1");
        let b = sha256(b"transaction-2");
        assert_ne!(a, b);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Hashing is deterministic and any single-byte tamper changes the digest.
        #[test]
        fn deterministic_and_tamper_evident(mut data in proptest::collection::vec(any::<u8>(), 1..512), idx in any::<prop::sample::Index>()) {
            let original = sha256(&data);
            prop_assert_eq!(original, sha256(&data));

            let i = idx.index(data.len());
            data[i] ^= 0xff;
            prop_assert_ne!(original, sha256(&data));
        }

        /// Every kernel folds any blocks into any state exactly as the portable one does.
        #[test]
        fn kernels_agree_on_random_states_and_blocks(
            state in proptest::collection::vec(any::<u32>(), 8..9),
            bytes in proptest::collection::vec(any::<u8>(), 0..260),
        ) {
            let state: [u32; 8] = state.try_into().unwrap();
            let blocks = bytes.as_chunks::<64>().0;
            let mut expected = state;
            for block in blocks {
                compress_portable(&mut expected, block);
            }
            for kernel in super::tests::kernels() {
                let mut folded = state;
                kernel.compress_blocks(&mut folded, blocks);
                prop_assert_eq!(folded, expected);
            }
        }
    }
}

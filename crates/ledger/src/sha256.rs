//! A small, dependency-free SHA-256 implementation (FIPS 180-4).
//!
//! The ledger only needs a collision-resistant hash to chain block headers; pulling in a full
//! crypto crate is unnecessary for the reproduction and is not on the approved dependency
//! list, so the compression function is implemented here directly. The compression function
//! is the straightforward textbook one — correctness is what matters (it is checked against
//! the NIST test vectors below). What the callers are spared is staging: [`Sha256`] takes the
//! message piece by piece and buffers at most one 64-byte block, so a block body is hashed
//! field by field without first being copied into one buffer (it is hashed twice per block on
//! the write path and once more on recovery).

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
    pub fn as_bytes(&self) -> &[u8; 32] {
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

/// Incremental SHA-256: feed the message in any number of [`Sha256::update`] calls, then
/// [`Sha256::finalize`]. Only a partial trailing block is ever buffered, so hashing a block
/// body never stages the body itself.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes of the current, not yet compressed block (`buffered` of them are valid).
    block: [u8; 64],
    buffered: usize,
    /// Message bytes fed so far.
    len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A hasher over the empty message.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            block: [0u8; 64],
            buffered: 0,
            len: 0,
        }
    }

    /// Appends `data` to the message.
    ///
    /// Inlined so that the common call — a field of a few bytes that fits the buffered block —
    /// is a length check and a fixed-size store at the call site.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        if data.len() < 64 - self.buffered {
            self.block[self.buffered..self.buffered + data.len()].copy_from_slice(data);
            self.buffered += data.len();
            self.len = self.len.wrapping_add(data.len() as u64);
        } else {
            self.update_across_blocks(data);
        }
    }

    /// [`Self::update`] for data that completes the buffered block.
    fn update_across_blocks(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let (head, data) = data.split_at(64 - self.buffered);
        self.block[self.buffered..].copy_from_slice(head);
        compress(&mut self.state, &self.block);
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("chunks_exact(64)"));
        }
        let rest = blocks.remainder();
        self.block[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Pads the final block (0x80, zeros, the 64-bit message length in bits) and returns the
    /// digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        self.block[self.buffered] = 0x80;
        self.block[self.buffered + 1..].fill(0);
        if self.buffered >= 56 {
            // No room for the length: it goes into one more, otherwise empty, block.
            compress(&mut self.state, &self.block);
            self.block.fill(0);
        }
        self.block[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.block);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// The SHA-256 compression function: folds one 64-byte block into the state.
///
/// Sixteen rounds per loop iteration, written out with the eight working variables renamed
/// from round to round instead of shifted, over a sixteen-word schedule extended in place.
fn compress(h: &mut [u32; 8], block: &[u8; 64]) {
    /// One round; the caller rotates the roles of the working variables.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {
            let temp1 = $h
                .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                .wrapping_add(($e & $f) ^ (!$e & $g))
                .wrapping_add($kw);
            let temp2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
            $d = $d.wrapping_add(temp1);
            $h = temp1.wrapping_add(temp2);
        };
    }

    let mut w = [0u32; 16];
    for (i, word) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for (sixteen, k) in K.chunks_exact(16).enumerate() {
        if sixteen > 0 {
            // w[i] becomes W[t] for t = 16 * sixteen + i: W[t-16] + s0(W[t-15]) + W[t-7] +
            // s1(W[t-2]), every index taken modulo 16.
            for i in 0..16 {
                let w15 = w[(i + 1) & 15];
                let w2 = w[(i + 14) & 15];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[i] = w[i]
                    .wrapping_add(s0)
                    .wrapping_add(w[(i + 9) & 15])
                    .wrapping_add(s1);
            }
        }
        round!(a, b, c, d, e, f, g, hh, k[0].wrapping_add(w[0]));
        round!(hh, a, b, c, d, e, f, g, k[1].wrapping_add(w[1]));
        round!(g, hh, a, b, c, d, e, f, k[2].wrapping_add(w[2]));
        round!(f, g, hh, a, b, c, d, e, k[3].wrapping_add(w[3]));
        round!(e, f, g, hh, a, b, c, d, k[4].wrapping_add(w[4]));
        round!(d, e, f, g, hh, a, b, c, k[5].wrapping_add(w[5]));
        round!(c, d, e, f, g, hh, a, b, k[6].wrapping_add(w[6]));
        round!(b, c, d, e, f, g, hh, a, k[7].wrapping_add(w[7]));
        round!(a, b, c, d, e, f, g, hh, k[8].wrapping_add(w[8]));
        round!(hh, a, b, c, d, e, f, g, k[9].wrapping_add(w[9]));
        round!(g, hh, a, b, c, d, e, f, k[10].wrapping_add(w[10]));
        round!(f, g, hh, a, b, c, d, e, k[11].wrapping_add(w[11]));
        round!(e, f, g, hh, a, b, c, d, k[12].wrapping_add(w[12]));
        round!(d, e, f, g, hh, a, b, c, k[13].wrapping_add(w[13]));
        round!(c, d, e, f, g, hh, a, b, k[14].wrapping_add(w[14]));
        round!(b, c, d, e, f, g, hh, a, k[15].wrapping_add(w[15]));
    }

    for (word, add) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *word = word.wrapping_add(add);
    }
}

/// Computes the SHA-256 digest of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

/// Convenience: hash the concatenation of several byte slices (avoids intermediate buffers at
/// call sites that assemble block headers).
pub fn sha256_concat<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> Digest {
    let mut hasher = Sha256::new();
    for p in parts {
        hasher.update(p);
    }
    hasher.finalize()
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

    /// The pre-streaming implementation, kept as the oracle: copy the whole message, pad the
    /// copy, compress it block by block.
    pub(super) fn sha256_padded_copy(data: &[u8]) -> Digest {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64).wrapping_mul(8).to_be_bytes());
        let mut h = H0;
        for chunk in padded.chunks_exact(64) {
            compress(&mut h, chunk.try_into().unwrap());
        }
        let mut out = [0u8; 32];
        for (i, word) in h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    /// NIST vectors fed through `update` in two pieces, split at every offset 0..=130 the
    /// message has: the digest never depends on where the message was cut.
    #[test]
    fn nist_vectors_split_at_every_offset() {
        let long = vec![b'a'; 1_000];
        let vectors: [(&[u8], String); 5] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855".into()),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad".into()),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1".into(),
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1".into(),
            ),
            // Not a NIST vector: long enough for every offset up to 130, checked by the oracle.
            (&long, sha256_padded_copy(&long).to_hex()),
        ];
        for (message, expected) in &vectors {
            for split in 0..=message.len().min(130) {
                let mut hasher = Sha256::new();
                hasher.update(&message[..split]);
                hasher.update(&message[split..]);
                assert_eq!(&hasher.finalize().to_hex(), expected, "split at {split}");
            }
        }
        // The million-'a' vector, fed in pieces whose size never divides the block size.
        let mut hasher = Sha256::new();
        for piece in vec![b'a'; 1_000_000].chunks(130) {
            hasher.update(piece);
        }
        assert_eq!(
            hasher.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn concat_matches_single_buffer() {
        let whole = sha256(b"hello world");
        let parts = sha256_concat([b"hello".as_slice(), b" ".as_slice(), b"world".as_slice()]);
        assert_eq!(whole, parts);
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

        /// However a random message is cut into `update` calls, the digest is the one-shot's,
        /// and the one-shot's is the padded-copy oracle's.
        #[test]
        fn streamed_pieces_match_the_one_shot(
            data in proptest::collection::vec(any::<u8>(), 0..700),
            cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c.index(data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut hasher = Sha256::new();
            let mut from = 0;
            for cut in cuts {
                hasher.update(&data[from..cut]);
                from = cut;
            }
            hasher.update(&data[from..]);
            let one_shot = sha256(&data);
            prop_assert_eq!(hasher.finalize(), one_shot);
            prop_assert_eq!(one_shot, super::tests::sha256_padded_copy(&data));
        }
    }
}

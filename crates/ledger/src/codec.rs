//! Deterministic binary codec for durable ledger records and checkpoints.
//!
//! The durable formats are hand-rolled, with no serialization library: fixed-width big-endian
//! integers, length-prefixed byte strings, and a dependency-free CRC-32 (IEEE 802.3) over
//! every framed payload. [`crc32`] runs on a carry-less-multiply kernel where CPUID reports one
//! and on the byte-at-a-time table loop elsewhere, with the same checksum either way.
//!
//! Every encoder iterates its inputs in a deterministic order (entry order inside blocks; in
//! checkpoints, key order, which `put_store` gets by sorting the chain suffixes it picks from
//! the store's write-ordered slab), so identical states always produce identical bytes — the
//! foundation of the bit-identity assertions in the cold-recovery batteries.
//!
//! A block record (the payload of one segment frame, see `segment`) states each fact once:
//!
//! ```text
//! record = u64 number | prev_hash (32) | data_hash (32) | body | status[entries]
//! body   = u32 entries | txn*
//! txn    = u64 id | u64 snapshot_block | u8 template class | u8 has-template-id [| u16 id]
//!        | u32 reads  | (key | u64 block | u32 seq)*
//!        | u32 writes | (key | value)*
//! status = u8: 0 pending | 1 committed | 2 + abort-reason code
//! key, value = u32 length | bytes
//! ```
//!
//! `data_hash` is SHA-256 over `body`, exactly as the record stores it. One encoder writes
//! those bytes (`encode_body`): building a block, appending it, opening a directory, reading an
//! evicted block back and verifying the chain all hash what it writes (or the slice a parser
//! has just checked), so the hash binds every field of every transaction, every length and
//! count, and the order of the entries. **The statuses are covered by the record CRC alone.**
//! They sit in a fixed-width trailer outside the hashed body, and nothing binds them to the
//! chain yet: the CRC catches damage, not a status rewritten and the CRC recomputed.
//!
//! An entry's commit slot is not stored: entry `i` of block `n` occupies `(n, i + 1)`, and
//! decoding sets the transaction's `end_ts` to it. The data hash binds entry order, so entries
//! that trade places no longer match their header.

use crate::block::{Block, BlockHeader, TxnEntry};
use crate::error::LedgerError;
use crate::sha256::{sha256, Digest};
use eov_common::abort::AbortReason;
use eov_common::rwset::{Key, Value};
use eov_common::txn::{TemplateClass, Transaction, TxnId, TxnStatus};
use eov_common::version::SeqNo;

/// CRC-32 (IEEE 802.3, reflected) table, built at compile time: entry `b` is the CRC of byte
/// `b`, what one byte-at-a-time step folds into the register.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
///
/// From 64 bytes up, on a CPU whose CPUID reports `pclmulqdq` and `sse4.1`, every whole
/// 16-byte chunk goes to the carry-less-multiply kernel and the under-16-byte tail to the
/// byte-at-a-time loop; shorter inputs and other CPUs run on the loop alone. Both paths give
/// the same checksum, so which one ran never shows on disk.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= 64 {
        if let Some(detected) = clmul::detect() {
            return !crc32_clmul(detected, !0, bytes);
        }
    }
    !crc32_bytewise(!0, bytes)
}

/// Folds `bytes` into the CRC register `crc` (the caller inverts before and after), one table
/// read per byte: the portable path, the kernel's tail, and the tests' oracle for the kernel.
fn crc32_bytewise(crc: u32, bytes: &[u8]) -> u32 {
    bytes.iter().fold(crc, |crc, &b| {
        (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize]
    })
}

/// [`crc32_bytewise`] with the whole 16-byte chunks of `bytes` (at least four) folded by the
/// carry-less-multiply kernel, through the ledger's one hardware-kernel dispatch.
#[cfg(target_arch = "x86_64")]
fn crc32_clmul(detected: clmul::Detected, mut crc: u32, bytes: &[u8]) -> u32 {
    let (chunks, tail) = bytes.as_chunks::<16>();
    crate::sha256::KernelCall::Clmul(detected, &mut crc, chunks).run();
    crc32_bytewise(crc, tail)
}

/// The CRC-32 kernel on the x86-64 carry-less multiply (`pclmulqdq`).
///
/// A CRC is the message, read as a polynomial over GF(2), modulo P(x). Four 128-bit lanes
/// take 64-byte strides: a lane moves 512 bits further down the message by two carry-less
/// multiplications with x^n mod P(x) constants, and the next 16 bytes are XORed in. The four
/// lanes then fold into one, the leftover 16-byte chunks fold in one at a time, and the
/// 128-bit remainder shrinks to 64 bits by two more folds and to the 32-bit CRC by Barrett
/// reduction. Everything is in this CRC's bit-reflected order (bit 0 of byte 0 is the
/// highest power of x), which makes every load a plain little-endian one.
#[cfg(target_arch = "x86_64")]
pub(crate) mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Proof that CPUID reported every feature [`fold`] is compiled for. Its field is private
    /// to this module, so [`detect`] is the only way to get one.
    pub(crate) struct Detected(());

    /// `Some` when this CPU can run [`fold`].
    pub(crate) fn detect() -> Option<Detected> {
        let supported = is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
        supported.then_some(Detected(()))
    }

    /// P(x) without its x^32 term, highest power first.
    const POLY: u64 = 0x04C1_1DB7;

    /// A polynomial of degree at most 32 in the bit-reflected order: x^32 in bit 0, x^0 in
    /// bit 32. A carry-less product of two reflected values comes out reflected and shifted
    /// one bit, which this 33-bit width absorbs.
    const fn reflect33(p: u64) -> i64 {
        (p.reverse_bits() >> 31) as i64
    }

    /// x^n mod P(x), reflected.
    const fn x_pow_mod_p(n: u32) -> i64 {
        let mut r = 1u64;
        let mut i = 0;
        while i < n {
            r <<= 1;
            if r & (1 << 32) != 0 {
                r ^= (1 << 32) | POLY;
            }
            i += 1;
        }
        reflect33(r)
    }

    /// Multipliers that move a lane's low and high halves 4 x 128 bits down the message.
    const FOLD_BY_4: (i64, i64) = (x_pow_mod_p(4 * 128 + 32), x_pow_mod_p(4 * 128 - 32));
    /// The same for 128 bits: one lane onto the next.
    const FOLD_BY_1: (i64, i64) = (x_pow_mod_p(128 + 32), x_pow_mod_p(128 - 32));
    /// Folds the low 32 bits of a 96-bit remainder onto the bits above them.
    const FOLD_32: i64 = x_pow_mod_p(64);
    /// P(x) itself, reflected.
    const P: i64 = reflect33((1 << 32) | POLY);
    /// Barrett's constant floor(x^64 / P(x)), reflected.
    const MU: i64 = {
        let mut rem = 1u128 << 64;
        let mut quotient = 0u64;
        let mut bit = 64;
        while bit >= 32 {
            if rem & (1 << bit) != 0 {
                rem ^= ((1 << 32) | POLY as u128) << (bit - 32);
                quotient |= 1 << (bit - 32);
            }
            bit -= 1;
        }
        reflect33(quotient)
    };

    /// Folds `chunks`, in order, into the CRC register `crc`. Needs at least four chunks.
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    pub(crate) fn fold(crc: &mut u32, chunks: &[[u8; 16]]) {
        let (first, rest) = chunks
            .split_first_chunk::<4>()
            .expect("the kernel folds at least 64 bytes");
        let mut lanes = [
            load(&first[0]),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(*crc as i32));
        let (strides, rest) = rest.as_chunks::<4>();
        let by_4 = _mm_set_epi64x(FOLD_BY_4.1, FOLD_BY_4.0);
        for stride in strides {
            for (lane, chunk) in lanes.iter_mut().zip(stride) {
                *lane = fold_onto(*lane, load(chunk), by_4);
            }
        }
        let by_1 = _mm_set_epi64x(FOLD_BY_1.1, FOLD_BY_1.0);
        let mut x = lanes[0];
        for lane in &lanes[1..] {
            x = fold_onto(x, *lane, by_1);
        }
        for chunk in rest {
            x = fold_onto(x, load(chunk), by_1);
        }

        // 128 -> 96 bits: the low 64 onto the high 64; then 96 -> 64: the low 32 onto the rest.
        let low_32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, by_1),
            _mm_srli_si128::<8>(x),
        );
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low_32), _mm_set_epi64x(0, FOLD_32)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett: the quotient's low 32 bits times P(x) cancel the remainder's low 32 bits,
        // leaving the CRC in the next 32.
        let p_mu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low_32), p_mu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low_32), p_mu);
        *crc = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
    }

    /// `lane` moved down the message by the distance `k` encodes, with `next` XORed in.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    fn fold_onto(lane: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128::<0x00>(lane, k);
        let high = _mm_clmulepi64_si128::<0x11>(lane, k);
        _mm_xor_si128(_mm_xor_si128(low, high), next)
    }

    /// Sixteen message bytes, the first in the lowest lane.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    fn load(chunk: &[u8; 16]) -> __m128i {
        let low = u64::from_le_bytes(chunk[..8].try_into().expect("8 bytes"));
        let high = u64::from_le_bytes(chunk[8..].try_into().expect("8 bytes"));
        _mm_set_epi64x(high as i64, low as i64)
    }
}

/// The `u32` length field for a `len`-byte payload, or a typed error when the payload is
/// larger than `max`.
fn frame_len(what: &'static str, len: usize, max: u32) -> Result<u32, LedgerError> {
    u32::try_from(len)
        .ok()
        .filter(|&len| len <= max)
        .ok_or(LedgerError::PayloadTooLarge {
            what,
            len: len as u64,
            max: max as u64,
        })
}

/// Completes a `u32 length | u32 CRC-32 | payload` frame built in place: `w` holds eight
/// reserved bytes at `frame_at` and the payload after them; length and CRC are patched in
/// and the buffer returned — one buffer, one pass over the payload. A payload longer than
/// `max` is a typed error before a byte reaches disk, because a frame whose length field
/// wrapped (or that the scanner's sanity cap would read as a torn tail) is silently wrong
/// data.
pub(crate) fn seal_frame(
    w: ByteWriter,
    frame_at: usize,
    what: &'static str,
    max: u32,
) -> Result<Vec<u8>, LedgerError> {
    let mut bytes = w.into_bytes();
    let payload_at = frame_at + 8;
    let len = frame_len(what, bytes.len() - payload_at, max)?;
    let crc = crc32(&bytes[payload_at..]);
    bytes[frame_at..frame_at + 4].copy_from_slice(&len.to_be_bytes());
    bytes[frame_at + 4..payload_at].copy_from_slice(&crc.to_be_bytes());
    Ok(bytes)
}

/// Append-only big-endian byte sink for the durable formats.
#[derive(Default)]
pub(crate) struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far — the position a later [`Self::set_u64_at`] patches.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Overwrites the `u64` written at byte offset `at` (a count known only after the items
    /// it counts have been streamed out).
    pub(crate) fn set_u64_at(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_be_bytes());
    }

    /// Raw bytes, no length prefix.
    pub(crate) fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub(crate) fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub(crate) fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub(crate) fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub(crate) fn put_digest(&mut self, d: &Digest) {
        self.buf.extend_from_slice(d.as_bytes());
    }

    /// Length-prefixed (u32) raw bytes.
    pub(crate) fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
    }

    pub(crate) fn put_seqno(&mut self, s: SeqNo) {
        self.put_u64(s.block);
        self.put_u32(s.seq);
    }
}

/// Cursor over an encoded payload. Every accessor fails with a message instead of panicking —
/// a decode error on CRC-valid bytes means a format bug or deliberate tampering, and either
/// way it must surface as a typed error upstream.
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    pub(crate) fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes not read yet.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("truncated {what}: need {n} bytes at offset {}", self.pos))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn get_u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn get_u16(&mut self, what: &str) -> Result<u16, String> {
        Ok(u16::from_be_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    pub(crate) fn get_u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_be_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    pub(crate) fn get_u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_be_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    pub(crate) fn get_digest(&mut self, what: &str) -> Result<Digest, String> {
        Ok(Digest(self.take(32, what)?.try_into().unwrap()))
    }

    pub(crate) fn get_bytes(&mut self, what: &str) -> Result<&'a [u8], String> {
        let len = self.get_u32(what)? as usize;
        self.take(len, what)
    }

    pub(crate) fn get_key(&mut self, what: &str) -> Result<Key, String> {
        self.get_str(what).map(Key::new)
    }

    /// A length-prefixed UTF-8 string, borrowed from the payload.
    pub(crate) fn get_str(&mut self, what: &str) -> Result<&'a str, String> {
        let bytes = self.get_bytes(what)?;
        std::str::from_utf8(bytes).map_err(|_| format!("{what}: key is not UTF-8"))
    }

    pub(crate) fn get_seqno(&mut self, what: &str) -> Result<SeqNo, String> {
        let block = self.get_u64(what)?;
        let seq = self.get_u32(what)?;
        Ok(SeqNo::new(block, seq))
    }
}

/// A status as its one trailer byte; an abort is 2 + its reason's position in
/// [`AbortReason::ALL`], pinned by tests.
fn status_byte(status: TxnStatus) -> u8 {
    match status {
        TxnStatus::Pending => 0,
        TxnStatus::Committed => 1,
        TxnStatus::Aborted(reason) => 2 + reason as u8,
    }
}

fn status_from_byte(byte: u8) -> Result<TxnStatus, String> {
    match byte {
        0 => Ok(TxnStatus::Pending),
        1 => Ok(TxnStatus::Committed),
        code => AbortReason::ALL
            .get(usize::from(code - 2))
            .map(|&reason| TxnStatus::Aborted(reason))
            .ok_or_else(|| format!("unknown status byte {code}")),
    }
}

/// Encodes a block's record — header, body and status trailer — and returns the SHA-256 of
/// its body: the data hash the header must carry.
pub(crate) fn encode_block(w: &mut ByteWriter, block: &Block) -> Digest {
    w.put_u64(block.header.number);
    w.put_digest(&block.header.prev_hash);
    w.put_digest(&block.header.data_hash);
    let body_at = w.len();
    encode_body(w, &block.entries);
    let body_hash = sha256(&w.buf[body_at..]);
    for entry in &block.entries {
        w.put_u8(status_byte(entry.status));
    }
    body_hash
}

/// Encodes a block body, `u32 entries | txn*`.
pub(crate) fn encode_body(w: &mut ByteWriter, entries: &[TxnEntry]) {
    w.put_u32(entries.len() as u32);
    for entry in entries {
        encode_txn(w, &entry.txn);
    }
}

/// Encodes one transaction: every field a block entry stores apart from its status (and its
/// `end_ts`, the entry's slot). The one definition of a transaction's bytes.
fn encode_txn(w: &mut ByteWriter, txn: &Transaction) {
    w.put_u64(txn.id.0);
    w.put_u64(txn.snapshot_block);
    w.put_u8(match txn.template_class {
        TemplateClass::Unknown => 0,
        TemplateClass::Safe => 1,
    });
    match txn.template_id {
        None => w.put_u8(0),
        Some(id) => {
            w.put_u8(1);
            w.put_u16(id);
        }
    }
    w.put_u32(txn.read_set.len() as u32);
    for read in txn.read_set.iter() {
        w.put_bytes(read.key.as_bytes());
        w.put_seqno(read.version);
    }
    w.put_u32(txn.write_set.len() as u32);
    for write in txn.write_set.iter() {
        w.put_bytes(write.key.as_bytes());
        w.put_bytes(write.value.as_bytes());
    }
}

/// The encoding of `txn` alone, exactly as it appears inside a block record. Every key and
/// value is length-prefixed, so distinct transactions never share an encoding.
pub(crate) fn txn_payload(txn: &Transaction) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode_txn(&mut w, txn);
    w.into_bytes()
}

/// The record payload of `block` alone, unframed: what [`decode_block`] reads back.
pub fn block_payload(block: &Block) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode_block(&mut w, block);
    w.into_bytes()
}

/// Bytes of the smallest transaction: the fixed-width fields, no template id, no read and no
/// write.
const MIN_TXN_LEN: usize = 8 + 8 + 1 + 1 + 4 + 4;

/// One block record, parsed field by field without building a [`Block`]: the header first,
/// then one entry at a time. Every tag, count, length and UTF-8 key is checked, a read or
/// write set may not name a key twice, and the last transaction must end where the status
/// trailer begins. Entry `i` gets slot `(number, i + 1)`, what [`Block::build`] assigns.
/// [`Self::body_hash`] hashes the body slice once it is parsed. [`decode_block`] builds blocks
/// from it and the durable ledger's open walk checks records with it, so the two accept
/// exactly the same records.
pub(crate) struct RecordParser<'a> {
    /// Reads the body: the record up to its status trailer.
    r: ByteReader<'a>,
    header: BlockHeader,
    /// One byte per entry, at the end of the record.
    statuses: &'a [u8],
    parsed: u32,
    /// The keys of the read or write set being parsed (reused: one allocation per record).
    seen: Vec<&'a [u8]>,
}

/// Where a record's body begins: behind its number and two digests.
const BODY_AT: usize = 8 + 32 + 32;

impl<'a> RecordParser<'a> {
    /// Parses the record's header and entry count, and finds its status trailer.
    pub(crate) fn new(payload: &'a [u8]) -> Result<Self, String> {
        let mut r = ByteReader::new(payload);
        let header = BlockHeader {
            number: r.get_u64("block number")?,
            prev_hash: r.get_digest("prev_hash")?,
            data_hash: r.get_digest("data_hash")?,
        };
        let entries = r.get_u32("entry count")? as usize;
        let trailer_at = payload
            .len()
            .checked_sub(entries)
            .filter(|&at| at >= r.pos)
            .ok_or_else(|| format!("{entries} entries leave no room for their statuses"))?;
        Ok(RecordParser {
            r: ByteReader {
                buf: &payload[..trailer_at],
                pos: r.pos,
            },
            header,
            statuses: &payload[trailer_at..],
            parsed: 0,
            seen: Vec::new(),
        })
    }

    pub(crate) fn header(&self) -> &BlockHeader {
        &self.header
    }

    /// SHA-256 over the record's body: once [`Self::next_entry`] returned `None`, what the
    /// header's data hash must be.
    pub(crate) fn body_hash(&self) -> Digest {
        sha256(&self.r.buf[BODY_AT..])
    }

    /// The next entry, or `None` once every entry was parsed and the body ends there.
    pub(crate) fn next_entry(&mut self) -> Result<Option<EntryView<'a>>, String> {
        let RecordParser {
            r,
            header,
            statuses,
            parsed,
            seen,
        } = self;
        let Some(&status) = statuses.get(*parsed as usize) else {
            if !r.is_exhausted() {
                return Err("bytes between the last transaction and the statuses".into());
            }
            return Ok(None);
        };
        let id = r.get_u64("txn id")?;
        let snapshot_block = r.get_u64("snapshot block")?;
        let template_class = match r.get_u8("template class")? {
            0 => TemplateClass::Unknown,
            1 => TemplateClass::Safe,
            other => return Err(format!("unknown template class {other}")),
        };
        let template_id = match r.get_u8("template id tag")? {
            0 => None,
            1 => Some(r.get_u16("template id")?),
            other => return Err(format!("unknown template id tag {other}")),
        };
        let reads = Items::take(r, seen, "read", |r| r.get_seqno("read version").map(drop))?;
        let writes = Items::take(r, seen, "write", |r| r.get_bytes("write value").map(drop))?;
        let status = status_from_byte(status)?;
        *parsed += 1;
        Ok(Some(EntryView {
            id,
            snapshot_block,
            template_class,
            template_id,
            reads,
            writes,
            slot: SeqNo::new(header.number, *parsed),
            status,
        }))
    }
}

/// A parsed, checked run of read or write items inside a record: `count` length-prefixed
/// keys, each followed by its version (reads) or its length-prefixed value (writes).
#[derive(Clone, Copy)]
struct Items<'a> {
    bytes: &'a [u8],
    count: u32,
}

impl<'a> Items<'a> {
    /// Parses a count and that many items, `rest` reading what follows each key. Every key
    /// must be UTF-8 and none may repeat (`seen` collects them): a read or write set holds
    /// each key once.
    fn take(
        r: &mut ByteReader<'a>,
        seen: &mut Vec<&'a [u8]>,
        what: &str,
        rest: impl Fn(&mut ByteReader<'a>) -> Result<(), String>,
    ) -> Result<Self, String> {
        let count = r.get_u32(what)?;
        let start = r.pos;
        seen.clear();
        for _ in 0..count {
            let key = r.get_bytes(what)?;
            if !key.is_ascii() && std::str::from_utf8(key).is_err() {
                return Err(format!("{what}: key is not UTF-8"));
            }
            if seen.contains(&key) {
                let key = String::from_utf8_lossy(key);
                return Err(format!("{what} key {key:?} appears twice"));
            }
            seen.push(key);
            rest(r)?;
        }
        Ok(Items {
            bytes: &r.buf[start..r.pos],
            count,
        })
    }

    /// Iterates the items, reading what follows each key with `rest`. [`Self::take`] checked
    /// the bytes, so no read fails; each key comes back as its bytes, already checked as UTF-8
    /// there, so only a caller that makes a new [`Key`] of them checks them again.
    fn iter<T>(
        self,
        rest: impl Fn(&mut ByteReader<'a>) -> Option<T>,
    ) -> impl Iterator<Item = (&'a [u8], T)> {
        let mut r = ByteReader::new(self.bytes);
        (0..self.count).map_while(move |_| Some((r.get_bytes("").ok()?, rest(&mut r)?)))
    }
}

/// One entry of a record, checked by [`RecordParser::next_entry`]; its reads and writes are
/// borrowed from the payload, and its slot comes from its position.
pub(crate) struct EntryView<'a> {
    pub(crate) id: u64,
    pub(crate) snapshot_block: u64,
    pub(crate) template_class: TemplateClass,
    pub(crate) template_id: Option<u16>,
    reads: Items<'a>,
    writes: Items<'a>,
    pub(crate) slot: SeqNo,
    pub(crate) status: TxnStatus,
}

impl<'a> EntryView<'a> {
    /// `(key bytes, version)` of every read, in record order.
    pub(crate) fn reads(&self) -> impl Iterator<Item = (&'a [u8], SeqNo)> {
        self.reads.iter(|r| r.get_seqno("").ok())
    }

    /// `(key bytes, value bytes)` of every write, in record order.
    pub(crate) fn writes(&self) -> impl Iterator<Item = (&'a [u8], &'a [u8])> {
        self.writes.iter(|r| r.get_bytes("").ok())
    }

    /// The entry as a block holds it.
    fn to_entry(&self) -> TxnEntry {
        let key = |bytes| Key::from_utf8(bytes).expect("`Items::take` checked every key");
        let mut txn = Transaction::new(
            TxnId(self.id),
            self.snapshot_block,
            self.reads().map(|(k, v)| (key(k), v)).collect(),
            self.writes()
                .map(|(k, v)| (key(k), Value::from_slice(v)))
                .collect(),
        );
        txn.end_ts = Some(self.slot);
        txn.template_class = self.template_class;
        txn.template_id = self.template_id;
        TxnEntry {
            txn,
            status: self.status,
        }
    }
}

/// Decodes a block from a CRC-validated record payload ([`RecordParser`] checks every field)
/// and returns it with the hash of its body. Chain rules (height sequencing, `prev_hash` link,
/// data-hash match) are *not* checked here.
pub(crate) fn decode_record(payload: &[u8]) -> Result<(Block, Digest), String> {
    let mut parser = RecordParser::new(payload)?;
    // A count is only a claim until the entries are there: reserve no more than the bytes
    // left could hold.
    let claimed = parser.statuses.len();
    let mut entries = Vec::with_capacity(claimed.min(parser.r.remaining() / MIN_TXN_LEN));
    while let Some(entry) = parser.next_entry()? {
        entries.push(entry.to_entry());
    }
    let header = parser.header.clone();
    Ok((Block { header, entries }, parser.body_hash()))
}

/// Decodes a block from a CRC-validated record payload, checking every field.
/// Chain rules (height sequencing, `prev_hash` link, data-hash match) are *not* checked here —
/// replaying the decoded block through [`crate::chain::Ledger::append`] enforces them.
pub fn decode_block(payload: &[u8]) -> Result<Block, String> {
    decode_record(payload).map(|(block, _)| block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::rwset::{Key, Value};

    fn sample_block(number: u64, prev: Digest) -> Block {
        let t1 = Transaction::from_parts(
            number * 10,
            number.saturating_sub(1),
            [(Key::new("A"), SeqNo::new(0, 1))],
            [(Key::new("B"), Value::from_i64(number as i64))],
        )
        .with_template_class(TemplateClass::Safe)
        .with_template_id(Some(3));
        // Values on both sides of the 14-byte inline limit, and one far past it.
        let t2 = Transaction::from_parts(
            number * 10 + 1,
            0,
            [],
            [(Key::new("C"), Value::from_i64(-1))]
                .into_iter()
                .chain([0usize, 14, 15, 4096].map(|len| {
                    let bytes = (0..len).map(|i| (i * 7 + len) as u8).collect::<Vec<u8>>();
                    (Key::new(format!("len{len}")), Value::from_bytes(bytes))
                })),
        );
        let mut block = Block::build(number, prev, vec![t1, t2]);
        block.entries[0].status = TxnStatus::Committed;
        block.entries[1].status = TxnStatus::Aborted(AbortReason::UnreorderableCycle);
        block
    }

    #[test]
    fn block_roundtrip_preserves_every_field() {
        let block = sample_block(3, Digest::ZERO);
        let decoded = decode_block(&block_payload(&block)).expect("roundtrip");
        assert_eq!(decoded, block);
        assert_eq!(Block::data_hash(&decoded.entries), decoded.header.data_hash);
        // The record stores no slot: every decoded `end_ts` is `(block, position)`.
        for (seq, entry) in (1..).zip(&decoded.entries) {
            assert_eq!(entry.txn.end_ts, Some(SeqNo::new(3, seq)));
        }
    }

    /// Keys on both sides of the 22-byte inline limit, and one far past it, in reads and
    /// writes: each decodes to the key it was, and the body hashes as before.
    #[test]
    fn keys_across_the_inline_limit_roundtrip() {
        let texts = [22usize, 23, 200].map(|len| "k".repeat(len));
        // 20 + 2 and 21 + 2 bytes: a two-byte character across the limit.
        let wide = ["é".repeat(10) + "ab", "é".repeat(10) + "abc"];
        let keys: Vec<Key> = texts.iter().chain(&wide).map(Key::new).collect();
        let txn = Transaction::from_parts(
            7,
            0,
            keys.iter().map(|key| (key.clone(), SeqNo::new(0, 1))),
            keys.iter()
                .map(|key| (Key::new(format!("w{key}")), Value::from_i64(1))),
        );
        let block = Block::build(1, Digest::ZERO, vec![txn]);
        let decoded = decode_block(&block_payload(&block)).expect("roundtrip");
        assert_eq!(decoded, block);
        let read: Vec<&Key> = decoded.entries[0].txn.read_set.keys().collect();
        assert_eq!(read, keys.iter().collect::<Vec<_>>());
        assert_eq!(Block::data_hash(&decoded.entries), block.header.data_hash);
    }

    #[test]
    fn encoding_is_deterministic() {
        let block = sample_block(1, Digest::ZERO);
        assert_eq!(block_payload(&block), block_payload(&block));
    }

    #[test]
    fn block_records_embed_each_txn_payload_verbatim() {
        let block = sample_block(2, Digest::ZERO);
        let bytes = block_payload(&block);
        // Header: number, two digests; then the entry count, each transaction and the trailer.
        let mut at = 8 + 32 + 32;
        assert_eq!(bytes[at..at + 4], 2u32.to_be_bytes());
        at += 4;
        for entry in &block.entries {
            let txn = txn_payload(&entry.txn);
            assert_eq!(&bytes[at..at + txn.len()], txn.as_slice());
            at += txn.len();
        }
        // Committed, then aborted as `UnreorderableCycle` (code 5).
        assert_eq!(&bytes[at..], [1, 2 + 5]);
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_bytes() {
        let bytes = block_payload(&sample_block(1, Digest::ZERO));
        assert!(decode_block(&bytes[..bytes.len() - 1]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_block(&extended).is_err());
        // A corrupt value length — past the end, or short enough to be read inline — is an
        // error, not a panic.
        let at = bytes.windows(7).position(|w| w == b"len4096").unwrap() + 7;
        for len in [u32::MAX, 4097, 14] {
            let mut corrupt = bytes.clone();
            corrupt[at..at + 4].copy_from_slice(&len.to_be_bytes());
            assert!(decode_block(&corrupt).is_err(), "length {len}");
        }
    }

    /// A short record claiming a huge count is an error, and a count reserves no more than the
    /// bytes left could hold (the smallest transaction is `MIN_TXN_LEN` bytes).
    #[test]
    fn a_short_record_claiming_huge_counts_is_an_error() {
        let header = |w: &mut ByteWriter, entries: u32| {
            w.put_u64(1);
            w.put_digest(&Digest::ZERO);
            w.put_digest(&Digest::ZERO);
            w.put_u32(entries);
        };
        let mut w = ByteWriter::new();
        header(&mut w, u32::MAX);
        assert!(decode_block(&w.into_bytes()).is_err());

        for count_field in 0..2 {
            let mut w = ByteWriter::new();
            header(&mut w, 1);
            w.put_u64(7);
            w.put_u64(0);
            w.put_raw(&[0, 0]);
            if count_field == 1 {
                w.put_u32(0);
            }
            w.put_u32(u32::MAX);
            w.put_u8(0); // the entry's status
            assert!(
                decode_block(&w.into_bytes()).is_err(),
                "count {count_field}"
            );
        }

        let smallest = Transaction::new(TxnId(1), 0, Default::default(), Default::default());
        let mut w = ByteWriter::new();
        encode_txn(&mut w, &smallest);
        assert_eq!(w.len(), MIN_TXN_LEN);
    }

    #[test]
    fn a_key_repeated_in_a_read_or_write_set_is_an_error() {
        let block = sample_block(1, Digest::ZERO);
        let bytes = block_payload(&block);
        // Entry 1 writes `len0`, `len14`, `len15`, ...: make `len15` a second `len14`.
        let at = bytes.windows(5).position(|w| w == b"len15").unwrap();
        let mut repeated = bytes.clone();
        repeated[at + 3..at + 5].copy_from_slice(b"14");
        let err = decode_block(&repeated).unwrap_err();
        assert!(err.contains("twice"), "{err}");
    }

    #[test]
    fn every_abort_reason_roundtrips() {
        let pinned = [
            (AbortReason::StaleRead, 2),
            (AbortReason::CrossBlockRead, 3),
            (AbortReason::SnapshotTooOld, 4),
            (AbortReason::ConcurrentWriteWrite, 5),
            (AbortReason::DangerousStructure, 6),
            (AbortReason::UnreorderableCycle, 7),
            (AbortReason::BloomFalsePositive, 8),
            (AbortReason::InBlockCycle, 9),
        ];
        assert_eq!(pinned.len(), AbortReason::ALL.len());
        for (reason, byte) in pinned {
            let status = TxnStatus::Aborted(reason);
            assert_eq!(status_byte(status), byte, "{reason:?}");
            assert_eq!(status_from_byte(byte), Ok(status));
        }
        assert!(status_from_byte(10).is_err());
    }

    /// The byte-at-a-time reference CRC-32 of `bytes`.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        !crc32_bytewise(!0, bytes)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// `bytes`' CRC from every path this CPU runs, each named: the dispatch, the byte-at-a-time
    /// loop, and, from 64 bytes up where CPUID reports it, the carry-less-multiply kernel.
    fn crc32_every_path(bytes: &[u8]) -> Vec<(&'static str, u32)> {
        let mut paths = vec![
            ("crc32", crc32(bytes)),
            ("bytewise", crc32_reference(bytes)),
        ];
        #[cfg(target_arch = "x86_64")]
        if let (Some(detected), true) = (clmul::detect(), bytes.len() >= 64) {
            paths.push(("clmul", !crc32_clmul(detected, !0, bytes)));
        }
        paths
    }

    /// `len` irregular bytes from an xorshift stream seeded with `seed` (non-zero).
    fn xorshift_bytes(mut seed: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed >> 32) as u8
            })
            .collect()
    }

    /// Every path gives the IEEE check value, and zlib's CRC-32 of three inputs long enough
    /// for the kernel: one fold-by-4 stride and a tail, many strides, and 64 KiB of zeros.
    #[test]
    fn crc32_paths_match_known_vectors() {
        let digits = b"123456789".repeat(8);
        let pattern: Vec<u8> = (0..4099u32).map(|i| (i * 7 + i / 256) as u8).collect();
        let zeros = vec![0u8; 1 << 16];
        let vectors: [(&[u8], u32); 4] = [
            (b"123456789", 0xCBF4_3926),
            (&digits, 0x8811_A440),
            (&pattern, 0xC3FD_BC3A),
            (&zeros, 0xD797_8EEB),
        ];
        for (bytes, expected) in vectors {
            for (path, crc) in crc32_every_path(bytes) {
                assert_eq!(crc, expected, "{path}, length {}", bytes.len());
            }
        }
    }

    /// Every length 0..=1 KiB at every start offset 0..16: across the 64-byte threshold, the
    /// 63/64/65- and 127/128/129-byte fold boundaries and every tail length, each path gives
    /// the byte-at-a-time reference's CRC.
    #[test]
    fn crc32_paths_match_the_bytewise_reference_at_every_length_and_offset() {
        let data = xorshift_bytes(0x2545_F491_4F6C_DD1D, 1024 + 16);
        for len in 0..=1024 {
            for start in 0..16 {
                let slice = &data[start..start + len];
                let expected = crc32_reference(slice);
                for (path, crc) in crc32_every_path(slice) {
                    assert_eq!(crc, expected, "{path}, length {len}, offset {start}");
                }
            }
        }
    }

    /// On a CPU whose CPUID reports `pclmulqdq` and `sse4.1` the kernel is detected, and so
    /// checked by the tests above: a silent fall-back to the loop fails here, not only in the
    /// benchmark.
    #[test]
    fn crc32_kernel_is_detected_whenever_cpuid_reports_it() {
        #[cfg(target_arch = "x86_64")]
        let reported = is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
        #[cfg(not(target_arch = "x86_64"))]
        let reported = false;
        let paths = crc32_every_path(&[0; 64]);
        assert_eq!(paths.iter().any(|&(path, _)| path == "clmul"), reported);
    }

    #[test]
    fn seal_frame_patches_length_and_crc_behind_a_prefix() {
        let mut w = ByteWriter::new();
        w.put_raw(b"MAGIC");
        w.put_u64(0);
        w.put_raw(b"123456789");
        let bytes = seal_frame(w, 5, "record", 9).unwrap();
        assert_eq!(&bytes[..5], b"MAGIC");
        assert_eq!(bytes[5..9], 9u32.to_be_bytes());
        assert_eq!(bytes[9..13], 0xCBF4_3926u32.to_be_bytes());
        assert_eq!(&bytes[13..], b"123456789");
    }

    #[test]
    fn frame_len_rejects_payloads_the_length_field_cannot_carry() {
        assert_eq!(frame_len("record", 0, 16).unwrap(), 0);
        assert_eq!(frame_len("record", 16, 16).unwrap(), 16);
        let err = frame_len("record", 17, 16).unwrap_err();
        assert!(
            matches!(
                err,
                LedgerError::PayloadTooLarge {
                    what: "record",
                    len: 17,
                    max: 16
                }
            ),
            "got {err}"
        );
        // A checkpoint of 4 GiB or more would wrap its u32 length field.
        if let Ok(four_gib) = usize::try_from(1u64 << 32) {
            assert!(frame_len("checkpoint", four_gib, u32::MAX).is_err());
            assert!(frame_len("checkpoint", four_gib - 1, u32::MAX).is_ok());
        }
    }

    /// `decode_block` on `bytes` returns `Ok` or `Err`; a panic fails with the input.
    fn assert_decodes_without_panic(bytes: &[u8]) {
        let outcome = std::panic::catch_unwind(|| decode_block(bytes));
        assert!(outcome.is_ok(), "decode_block panicked on {bytes:?}");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Random buffers up to 64 KiB at a random start offset: every path gives the
            /// byte-at-a-time reference's CRC.
            #[test]
            fn crc32_paths_match_the_bytewise_reference_on_random_buffers(
                len in 0usize..64 * 1024 + 1,
                start in 0usize..16,
                seed in any::<u64>(),
            ) {
                let data = xorshift_bytes(seed | 1, start + len);
                let slice = &data[start..];
                let expected = crc32_reference(slice);
                for (path, crc) in crc32_every_path(slice) {
                    prop_assert_eq!(crc, expected, "{}, length {}", path, len);
                }
            }

            /// Bytes from a damaged disk: anything at all decodes to a block or an error.
            #[test]
            fn decode_never_panics_on_arbitrary_bytes(
                bytes in prop::collection::vec(any::<u8>(), 0..512),
            ) {
                assert_decodes_without_panic(&bytes);
            }

            /// Bytes that are nearly a block: a valid payload with 1–4 bytes overwritten hits
            /// the tags, counts and lengths deep inside the format. The block holds small
            /// transactions in every status, so most overwrites land on framing, not on value
            /// bytes.
            #[test]
            fn decode_never_panics_on_a_damaged_block(
                number in 1u64..1_000,
                overwrites in prop::collection::vec(
                    (any::<prop::sample::Index>(), any::<u8>()),
                    1..5,
                ),
            ) {
                let txns = (0..3u64).map(|i| {
                    Transaction::from_parts(
                        number * 10 + i,
                        number - 1,
                        [(Key::new(format!("r{i}")), SeqNo::new(0, i as u32))],
                        [(Key::new(format!("w{i}")), Value::from_i64(i as i64))],
                    )
                    .with_template_id(Some(i as u16))
                });
                let mut block = Block::build(number, Digest::ZERO, txns.collect());
                block.entries[0].status = TxnStatus::Committed;
                block.entries[1].status = TxnStatus::Aborted(AbortReason::StaleRead);
                let mut bytes = block_payload(&block);
                for (at, byte) in overwrites {
                    let at = at.index(bytes.len());
                    bytes[at] = byte;
                }
                assert_decodes_without_panic(&bytes);
            }
        }
    }
}

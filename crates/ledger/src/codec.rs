//! Deterministic binary codec for durable ledger records and checkpoints.
//!
//! The workspace's serde shim is declaration-only (no serialization backend ships in the
//! offline container), so the durable formats are hand-rolled: fixed-width big-endian
//! integers, length-prefixed byte strings, and a dependency-free CRC-32 (IEEE 802.3) over
//! every framed payload. The CRC matters beyond torn-write detection: a block's `data_hash`
//! deliberately covers only the transaction ids and read/write sets — *not* the validation
//! statuses or template metadata — so the record CRC is the sole integrity check for those
//! fields on disk.
//!
//! Every encoder iterates its inputs in a deterministic order (entry order inside blocks,
//! `BTreeMap` key order inside checkpoints), so identical states always produce identical
//! bytes — the foundation of the bit-identity assertions in the cold-recovery batteries.

use crate::block::{Block, BlockHeader, TxnEntry};
use crate::error::LedgerError;
use crate::sha256::Digest;
use eov_common::abort::AbortReason;
use eov_common::rwset::{Key, Value};
use eov_common::txn::{TemplateClass, Transaction, TxnId, TxnStatus};
use eov_common::version::SeqNo;

/// CRC-32 (IEEE 802.3, reflected) slicing-by-8 tables, built at compile time. `[0]` is the
/// classic byte-at-a-time table; `[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so eight table reads fold eight input bytes into the register at once.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`, eight bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
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
    pub fn new() -> Self {
        Self::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far — the position a later [`Self::set_u64_at`] patches.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Overwrites the `u64` written at byte offset `at` (a count known only after the items
    /// it counts have been streamed out).
    pub fn set_u64_at(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_be_bytes());
    }

    /// Raw bytes, no length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_digest(&mut self, d: &Digest) {
        self.buf.extend_from_slice(d.as_bytes());
    }

    /// Length-prefixed (u32) raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
    }

    pub fn put_seqno(&mut self, s: SeqNo) {
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
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
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

    pub fn get_u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    pub fn get_u16(&mut self, what: &str) -> Result<u16, String> {
        Ok(u16::from_be_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    pub fn get_u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_be_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_be_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    pub fn get_digest(&mut self, what: &str) -> Result<Digest, String> {
        Ok(Digest(self.take(32, what)?.try_into().unwrap()))
    }

    pub fn get_bytes(&mut self, what: &str) -> Result<&'a [u8], String> {
        let len = self.get_u32(what)? as usize;
        self.take(len, what)
    }

    pub fn get_key(&mut self, what: &str) -> Result<Key, String> {
        let bytes = self.get_bytes(what)?;
        let s = std::str::from_utf8(bytes).map_err(|_| format!("{what}: key is not UTF-8"))?;
        Ok(Key::new(s))
    }

    pub fn get_seqno(&mut self, what: &str) -> Result<SeqNo, String> {
        let block = self.get_u64(what)?;
        let seq = self.get_u32(what)?;
        Ok(SeqNo::new(block, seq))
    }
}

/// `AbortReason` → stable wire code (the enum's declaration order, pinned by tests).
fn abort_code(reason: AbortReason) -> u8 {
    match reason {
        AbortReason::StaleRead => 0,
        AbortReason::CrossBlockRead => 1,
        AbortReason::SnapshotTooOld => 2,
        AbortReason::ConcurrentWriteWrite => 3,
        AbortReason::DangerousStructure => 4,
        AbortReason::UnreorderableCycle => 5,
        AbortReason::BloomFalsePositive => 6,
        AbortReason::InBlockCycle => 7,
        AbortReason::GreedyVictim => 8,
        AbortReason::EndorsementPolicy => 9,
        AbortReason::Dropped => 10,
        AbortReason::Other => 11,
    }
}

fn abort_from_code(code: u8) -> Result<AbortReason, String> {
    Ok(match code {
        0 => AbortReason::StaleRead,
        1 => AbortReason::CrossBlockRead,
        2 => AbortReason::SnapshotTooOld,
        3 => AbortReason::ConcurrentWriteWrite,
        4 => AbortReason::DangerousStructure,
        5 => AbortReason::UnreorderableCycle,
        6 => AbortReason::BloomFalsePositive,
        7 => AbortReason::InBlockCycle,
        8 => AbortReason::GreedyVictim,
        9 => AbortReason::EndorsementPolicy,
        10 => AbortReason::Dropped,
        11 => AbortReason::Other,
        other => return Err(format!("unknown abort-reason code {other}")),
    })
}

fn put_status(w: &mut ByteWriter, status: TxnStatus) {
    match status {
        TxnStatus::Pending => w.put_u8(0),
        TxnStatus::Committed => w.put_u8(1),
        TxnStatus::Aborted(reason) => {
            w.put_u8(2);
            w.put_u8(abort_code(reason));
        }
    }
}

fn get_status(r: &mut ByteReader<'_>) -> Result<TxnStatus, String> {
    Ok(match r.get_u8("status tag")? {
        0 => TxnStatus::Pending,
        1 => TxnStatus::Committed,
        2 => TxnStatus::Aborted(abort_from_code(r.get_u8("abort reason")?)?),
        other => return Err(format!("unknown status tag {other}")),
    })
}

/// Encodes a block — header, then every entry with its full transaction (including the
/// status and template metadata the data hash does not cover).
pub(crate) fn encode_block(w: &mut ByteWriter, block: &Block) {
    w.put_u64(block.header.number);
    w.put_digest(&block.header.prev_hash);
    w.put_digest(&block.header.data_hash);
    w.put_u32(block.entries.len() as u32);
    for entry in &block.entries {
        let txn = &entry.txn;
        w.put_u64(txn.id.0);
        w.put_u64(txn.snapshot_block);
        w.put_u32(txn.endorsements);
        match txn.end_ts {
            None => w.put_u8(0),
            Some(ts) => {
                w.put_u8(1);
                w.put_seqno(ts);
            }
        }
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
            w.put_bytes(read.key.as_str().as_bytes());
            w.put_seqno(read.version);
        }
        w.put_u32(txn.write_set.len() as u32);
        for write in txn.write_set.iter() {
            w.put_bytes(write.key.as_str().as_bytes());
            w.put_bytes(write.value.as_bytes());
        }
        w.put_seqno(entry.slot);
        put_status(w, entry.status);
    }
}

/// Decodes a block from a CRC-validated record payload. Chain rules (height sequencing,
/// `prev_hash` link, data-hash match) are *not* checked here — replaying the decoded block
/// through [`crate::chain::Ledger::append`] enforces them.
pub(crate) fn decode_block(payload: &[u8]) -> Result<Block, String> {
    let mut r = ByteReader::new(payload);
    let number = r.get_u64("block number")?;
    let prev_hash = r.get_digest("prev_hash")?;
    let data_hash = r.get_digest("data_hash")?;
    let entry_count = r.get_u32("entry count")?;
    let mut entries = Vec::with_capacity(entry_count.min(1 << 20) as usize);
    for _ in 0..entry_count {
        let id = r.get_u64("txn id")?;
        let snapshot_block = r.get_u64("snapshot block")?;
        let endorsements = r.get_u32("endorsements")?;
        let end_ts = match r.get_u8("end_ts tag")? {
            0 => None,
            1 => Some(r.get_seqno("end_ts")?),
            other => return Err(format!("unknown end_ts tag {other}")),
        };
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
        let read_count = r.get_u32("read count")?;
        let mut reads = Vec::with_capacity(read_count.min(1 << 20) as usize);
        for _ in 0..read_count {
            let key = r.get_key("read key")?;
            let version = r.get_seqno("read version")?;
            reads.push((key, version));
        }
        let write_count = r.get_u32("write count")?;
        let mut writes = Vec::with_capacity(write_count.min(1 << 20) as usize);
        for _ in 0..write_count {
            let key = r.get_key("write key")?;
            let value = Value::from_bytes(r.get_bytes("write value")?.to_vec());
            writes.push((key, value));
        }
        let slot = r.get_seqno("slot")?;
        let status = get_status(&mut r)?;
        let mut txn = Transaction::new(
            TxnId(id),
            snapshot_block,
            reads.into_iter().collect(),
            writes.into_iter().collect(),
        );
        txn.endorsements = endorsements;
        txn.end_ts = end_ts;
        txn.template_class = template_class;
        txn.template_id = template_id;
        entries.push(TxnEntry { txn, slot, status });
    }
    if !r.is_exhausted() {
        return Err("trailing bytes after block payload".into());
    }
    Ok(Block {
        header: BlockHeader {
            number,
            prev_hash,
            data_hash,
        },
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::rwset::{Key, Value};

    fn encoded(block: &Block) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode_block(&mut w, block);
        w.into_bytes()
    }

    fn sample_block(number: u64, prev: Digest) -> Block {
        let t1 = Transaction::from_parts(
            number * 10,
            number.saturating_sub(1),
            [(Key::new("A"), SeqNo::new(0, 1))],
            [(Key::new("B"), Value::from_i64(number as i64))],
        )
        .with_template_class(TemplateClass::Safe)
        .with_template_id(Some(3));
        let t2 = Transaction::from_parts(
            number * 10 + 1,
            0,
            [],
            [(Key::new("C"), Value::from_i64(-1))],
        );
        let mut block = Block::build(number, prev, vec![t1, t2]);
        block.entries[0].status = TxnStatus::Committed;
        block.entries[1].status = TxnStatus::Aborted(AbortReason::UnreorderableCycle);
        block
    }

    #[test]
    fn block_roundtrip_preserves_every_field() {
        let block = sample_block(3, Digest::ZERO);
        let decoded = decode_block(&encoded(&block)).expect("roundtrip");
        assert_eq!(decoded, block);
        assert!(decoded.verify_data_hash());
    }

    #[test]
    fn encoding_is_deterministic() {
        let block = sample_block(1, Digest::ZERO);
        assert_eq!(encoded(&block), encoded(&block));
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_bytes() {
        let bytes = encoded(&sample_block(1, Digest::ZERO));
        assert!(decode_block(&bytes[..bytes.len() - 1]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_block(&extended).is_err());
    }

    #[test]
    fn every_abort_reason_roundtrips() {
        for code in 0u8..12 {
            let reason = abort_from_code(code).expect("declared variant");
            assert_eq!(abort_code(reason), code);
        }
        assert!(abort_from_code(12).is_err());
    }

    /// The byte-at-a-time CRC-32 the sliced implementation replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_reference_at_every_alignment() {
        // Every length 0..=4 KiB covers every remainder of the 8-byte stride; the xorshift
        // stream keeps the bytes irregular without a generator dependency.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..4096 + 7)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect();
        for len in 0..=4096 {
            let start = len % 8;
            let slice = &data[start..start + len];
            assert_eq!(crc32(slice), crc32_bytewise(slice), "length {len}");
        }
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
}

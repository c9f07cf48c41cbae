//! Multi-version-store checkpoints: the base state cold recovery replays from.
//!
//! A checkpoint file `ckpt-<height:020>.bin` captures a [`MultiVersionStore`] as it stood after
//! applying blocks `1..=height` — as a **delta** over the newest older checkpoint in the same
//! directory. A state at height `h` is an older state plus the writes logged since, so a
//! checkpoint never repeats what an earlier one already holds: it names its base by
//! `(height, payload CRC)` and carries only the version-chain suffixes newer than the base
//! height, plus the heights, the pruning horizon and the total key count. With no older
//! checkpoint to build on (the genesis checkpoint, an empty directory) the same format
//! degenerates to a full image: no base, every chain whole.
//!
//! ```text
//! file    = "EOVCKP03" | u32 payload length | u32 CRC-32(payload) | payload
//! payload = u64 height | u8 has-base | u64 base height | u32 base payload CRC | store
//! store   = u64 last_block | u64 pruned_below | u64 total keys | u64 chains
//!         | (key | u32 versions | (seqno | value)*)*      — ascending key order
//! ```
//!
//! A file carrying the previous format's magic, `EOVCKP02`, is refused as corrupt, naming the
//! format: it is never read. Every chain of such files ends in a full image of the same format,
//! so a directory of them reports the error instead of replaying from an empty store.
//!
//! Writes encode into one buffer and go through a temp file plus rename, so a crash
//! mid-checkpoint leaves either the old file set or the new one, never a half-written
//! checkpoint under the final name.
//!
//! Loading walks the base pointers down to a full image, then applies the links oldest-first
//! onto one store, allocated up front for the total key count the top link records, so that
//! the store never grows (and its index never holds two tables) during the load. That count
//! is read with the heads, before any CRC check, so it is capped at the keys the chain's
//! payload bytes can encode (`MIN_CHAIN_LEN` bytes each); whatever it claims, the key count
//! check below decides whether the chain loads.
//!
//! Every link must pass its magic, its CRC and the *base CRC* its successor recorded (a base
//! file swapped for a different — even valid — checkpoint is rejected), its chain suffixes
//! must start above the base height, and after re-applying the recorded prune horizon the
//! store must hold exactly the recorded number of keys. Re-pruning reproduces the live store
//! bit for bit: a prune drops every version superseded at or below its horizon, whenever the
//! superseding write came, so pruning all writes once at the newest horizon keeps exactly what
//! pruning along the way kept.
//!
//! Recovery tries the candidates at or below the ledger height newest first and takes the
//! first whose whole chain loads: a bad link costs the links above it, never the restart —
//! every older link is itself a candidate, its chain a prefix, and the segment log replays the
//! rest. Every chain ends in the same full image, though, so when checkpoints exist and
//! *none* loads, the error is reported: seeded genesis values live in no block, and a replay
//! from an empty store would be a quietly wrong restart. Only a directory with no candidate
//! at all is replayed from block 0.
//!
//! So that a damaged file is not built on either, the writer accepts a base only if the
//! heads of its chain walk down to a full image (each link naming the next by height and
//! CRC), and recovery removes the files it has ruled out ([`discard_unusable_checkpoints`]).

use crate::codec::{crc32, seal_frame, ByteReader, ByteWriter};
use crate::error::LedgerError;
use crate::segment::sync_dir;
use eov_common::rwset::{Key, Value};
use eov_common::version::SeqNo;
use eov_vstore::{MultiVersionStore, VersionRef};
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every checkpoint file (format version 3: delta chains).
const CHECKPOINT_MAGIC: &[u8; 8] = b"EOVCKP03";
/// The previous format's magic, named when a file carrying it is refused.
const PREVIOUS_MAGIC: &[u8; 8] = b"EOVCKP02";
/// Bytes of file frame: magic + payload length + payload CRC.
const FRAME_LEN: usize = 16;
/// Bytes of the fixed payload head: height and base pointer.
const HEAD_LEN: usize = 21;
/// Bytes a checkpoint's heads-only read takes: the frame, the payload head and the store's
/// three counters (`last_block`, `pruned_below`, total keys).
const PEEK_LEN: usize = FRAME_LEN + HEAD_LEN + 24;
/// The fewest payload bytes that add a key to a store: an empty key, a version count and one
/// version with an empty value (4 + 4 + 12 + 4).
const MIN_CHAIN_LEN: u64 = 24;

/// File name of the checkpoint at `height`.
pub(crate) fn checkpoint_file_name(height: u64) -> String {
    format!("ckpt-{height:020}.bin")
}

/// The height a checkpoint file name encodes, if it is one.
fn height_in_name(path: &Path) -> Option<u64> {
    path.file_name()?
        .to_str()?
        .strip_prefix("ckpt-")?
        .strip_suffix(".bin")?
        .parse()
        .ok()
}

/// A checkpoint's identity as its successor records it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct LinkId {
    height: u64,
    /// CRC-32 of the file's payload — two different checkpoints at one height differ here.
    crc: u32,
}

/// The fixed head of a checkpoint payload.
#[derive(Clone, Copy, Debug)]
struct LinkHead {
    id: LinkId,
    base: Option<LinkId>,
}

fn put_head(w: &mut ByteWriter, height: u64, base: Option<LinkId>) {
    w.put_u64(height);
    w.put_u8(base.is_some() as u8);
    let base = base.unwrap_or(LinkId { height: 0, crc: 0 });
    w.put_u64(base.height);
    w.put_u32(base.crc);
}

/// Decodes the payload head; `crc` is the payload CRC from the file frame.
fn get_head(r: &mut ByteReader<'_>, crc: u32) -> Result<LinkHead, String> {
    let height = r.get_u64("checkpoint height")?;
    let has_base = match r.get_u8("base flag")? {
        0 => false,
        1 => true,
        other => return Err(format!("unknown base flag {other}")),
    };
    let base = LinkId {
        height: r.get_u64("base height")?,
        crc: r.get_u32("base CRC")?,
    };
    if has_base && base.height >= height {
        return Err(format!(
            "base height {} is not below the checkpoint's own {height}",
            base.height
        ));
    }
    Ok(LinkHead {
        id: LinkId { height, crc },
        base: has_base.then_some(base),
    })
}

/// Encodes the store: counters, then every chain suffix newer than `base_height` (every whole
/// chain when there is no base) in key order. The store keeps its keys in first-write order,
/// so the keys written above the base are picked first (one compare on a slab entry each) and
/// only those sorted: a delta over a large store costs a scan plus the sort of what changed.
fn put_store(w: &mut ByteWriter, store: &MultiVersionStore, base_height: Option<u64>) {
    let mut suffixes: Vec<_> = store.chains_in_write_order(base_height).collect();
    suffixes.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let above_base = move |v: &VersionRef<'_>| base_height.is_none_or(|h| v.version.block > h);
    put_chains(
        w,
        [
            store.last_block(),
            store.pruned_below(),
            store.key_count() as u64,
        ],
        suffixes
            .into_iter()
            .map(|(key, history)| (key, history.take_while(above_base))),
    );
}

/// Encodes the store's three counters (`last_block`, `pruned_below`, total keys) and `chains`:
/// each key, in key order, with the versions to write, newest first and at least one. They
/// are written oldest first.
fn put_chains<'a, S: Iterator<Item = VersionRef<'a>>>(
    w: &mut ByteWriter,
    counters: [u64; 3],
    chains: impl IntoIterator<Item = (&'a Key, S)>,
) {
    for counter in counters {
        w.put_u64(counter);
    }
    let chains_at = w.len();
    w.put_u64(0);
    let mut count = 0u64;
    let mut chain: Vec<VersionRef<'a>> = Vec::new();
    for (key, newest_first) in chains {
        count += 1;
        chain.clear();
        chain.extend(newest_first);
        w.put_bytes(key.as_bytes());
        w.put_u32(chain.len() as u32);
        for version in chain.iter().rev() {
            w.put_seqno(version.version);
            w.put_bytes(version.value.as_bytes());
        }
    }
    w.set_u64_at(chains_at, count);
}

/// Applies the encoded store on top of `store` (the base state, or empty for a full image).
fn get_store(
    r: &mut ByteReader<'_>,
    store: &mut MultiVersionStore,
    base_height: Option<u64>,
) -> Result<(), String> {
    let last_block = r.get_u64("store last_block")?;
    let pruned_below = r.get_u64("store pruned_below")?;
    let total_keys = r.get_u64("store key count")?;
    let chains = r.get_u64("store chain count")?;
    let mut previous: Option<Key> = None;
    for _ in 0..chains {
        let key = r.get_key("chain key")?;
        // Strictly ascending keys: a key listed twice would append to its own chain.
        if previous.as_ref().is_some_and(|p| *p >= key) {
            return Err(format!("chain of {key:?} is out of key order"));
        }
        let versions = r.get_u32("chain length")?;
        let mut newest: Option<SeqNo> = None;
        for _ in 0..versions {
            let version = r.get_seqno("chain version")?;
            // Everything at or below the base height is the base's to hold, and nothing is
            // above this link's own height, which the link above builds on; a suffix outside
            // those bounds (or running backwards) would break the chain's sort order.
            if base_height.is_some_and(|h| version.block <= h)
                || version.block > last_block
                || newest.is_some_and(|n| n > version)
            {
                return Err(format!("chain of {key:?} is out of order at {version:?}"));
            }
            newest = Some(version);
            let value = Value::from_slice(r.get_bytes("chain value")?);
            store.put(&key, version, value);
        }
        previous = Some(key);
    }
    if pruned_below > store.pruned_below() {
        store.prune_versions_below(pruned_below);
    }
    store.restore_heights(last_block, pruned_below);
    if store.key_count() as u64 != total_keys {
        return Err(format!(
            "store holds {} keys after the delta, the checkpoint recorded {total_keys}",
            store.key_count()
        ));
    }
    Ok(())
}

/// The newest checkpoint in `dir` strictly below `height` that a delta can build on: the heads
/// of its chain walk down to a full image (37 bytes per link; payloads are verified when a
/// chain is loaded, not here). A file with a torn frame or a refused head, or one leaning on
/// such a file, is passed over — what is written next must be loadable.
fn newest_base(dir: &Path, height: u64) -> Result<Option<LinkId>, LedgerError> {
    let candidates = checkpoint_heights(dir)?;
    Ok(candidates
        .iter()
        .rev()
        .filter(|(h, _)| *h < height)
        .find_map(|(_, path)| {
            let head = peek(path).ok()?.head;
            chain_paths(path).is_ok().then_some(head.id)
        }))
}

/// Writes a checkpoint of `store` at its current height into `dir` (atomically: temp file +
/// rename) as a delta over the newest older checkpoint there, or as a full image when there
/// is none. Returns the height and the final path.
pub fn write_checkpoint(
    dir: impl AsRef<Path>,
    store: &MultiVersionStore,
    fsync: bool,
) -> Result<(u64, PathBuf), LedgerError> {
    let dir = dir.as_ref();
    let height = store.last_block();
    let base = newest_base(dir, height)?;

    // One buffer: the frame is reserved up front and patched once the payload behind it is
    // complete, so the writer never holds the payload twice.
    let mut w = ByteWriter::new();
    w.put_raw(CHECKPOINT_MAGIC);
    w.put_u64(0);
    put_head(&mut w, height, base);
    put_store(&mut w, store, base.map(|b| b.height));
    let bytes = seal_frame(w, CHECKPOINT_MAGIC.len(), "checkpoint", u32::MAX)?;

    let path = dir.join(checkpoint_file_name(height));
    let tmp = dir.join(format!("{}.tmp", checkpoint_file_name(height)));
    let mut file = fs::File::create(&tmp).map_err(|e| LedgerError::io(&tmp, e))?;
    file.write_all(&bytes)
        .map_err(|e| LedgerError::io(&tmp, e))?;
    if fsync {
        file.sync_all().map_err(|e| LedgerError::io(&tmp, e))?;
    }
    drop(file);
    fs::rename(&tmp, &path).map_err(|e| LedgerError::io(&path, e))?;
    if fsync {
        sync_dir(dir)?;
    }
    Ok((height, path))
}

fn corrupt(path: &Path, detail: impl Into<String>) -> LedgerError {
    LedgerError::CorruptCheckpoint {
        path: path.to_path_buf(),
        detail: detail.into(),
    }
}

/// Validates a file's frame and returns its payload CRC and payload (CRC not yet checked).
fn split_frame<'a>(
    path: &Path,
    bytes: &'a [u8],
    file_len: u64,
) -> Result<(u32, &'a [u8]), LedgerError> {
    if bytes.len() < FRAME_LEN || &bytes[..8] != CHECKPOINT_MAGIC {
        let detail = if bytes.starts_with(PREVIOUS_MAGIC) {
            "checkpoint is in the previous format EOVCKP02; this reader reads EOVCKP03 only"
        } else {
            "missing or invalid checkpoint header"
        };
        return Err(corrupt(path, detail));
    }
    let len = u32::from_be_bytes(bytes[8..12].try_into().unwrap()) as u64;
    let crc = u32::from_be_bytes(bytes[12..16].try_into().unwrap());
    if file_len != FRAME_LEN as u64 + len {
        return Err(corrupt(path, "checkpoint length does not match its frame"));
    }
    Ok((crc, &bytes[FRAME_LEN..]))
}

/// A checkpoint's front, read without reading (or verifying) the rest.
struct Peek {
    head: LinkHead,
    payload_len: u64,
    /// The total key count the store records.
    total_keys: u64,
}

/// Reads a checkpoint's frame, payload head and store counters without reading (or verifying)
/// the rest: how the writer finds its base and how the loader discovers a chain and sizes its
/// store. The recorded height must be the file name's; whatever else this returns is confirmed
/// against the CRC-verified payload when the link is applied.
fn peek(path: &Path) -> Result<Peek, LedgerError> {
    let mut file = fs::File::open(path).map_err(|e| LedgerError::io(path, e))?;
    let file_len = file.metadata().map_err(|e| LedgerError::io(path, e))?.len();
    let mut bytes = [0u8; PEEK_LEN];
    if file.read_exact(&mut bytes).is_err() {
        return Err(corrupt(path, "missing or invalid checkpoint header"));
    }
    let (crc, front) = split_frame(path, &bytes, file_len)?;
    let head =
        get_head(&mut ByteReader::new(front), crc).map_err(|detail| corrupt(path, detail))?;
    if height_in_name(path) != Some(head.id.height) {
        return Err(corrupt(path, "recorded height differs from the file name"));
    }
    let total_keys = u64::from_be_bytes(front[HEAD_LEN + 16..].try_into().unwrap());
    Ok(Peek {
        head,
        payload_len: file_len - FRAME_LEN as u64,
        total_keys,
    })
}

/// The files of the chain ending at `top`, oldest (the full image) first, and the keys to size
/// the store for: the count `top` records, capped at what the chain's payload bytes can encode.
/// Heads only: every link must exist with a whole frame and carry the CRC its successor
/// recorded.
fn chain_paths(top: &Path) -> Result<(Vec<PathBuf>, usize), LedgerError> {
    let dir = top.parent().unwrap_or(Path::new(""));
    let mut paths = vec![top.to_path_buf()];
    let top = peek(top)?;
    let (mut head, mut payload_bytes) = (top.head, top.payload_len);
    // Base heights strictly descend (`get_head`), so the walk ends.
    while let Some(base) = head.base {
        let path = dir.join(checkpoint_file_name(base.height));
        let link = peek(&path)?;
        if link.head.id != base {
            return Err(corrupt(
                &path,
                format!("not the checkpoint its successor built on ({base:?})"),
            ));
        }
        (head, payload_bytes) = (link.head, payload_bytes + link.payload_len);
        paths.push(path);
    }
    paths.reverse();
    let keys = top.total_keys.min(payload_bytes / MIN_CHAIN_LEN);
    Ok((paths, usize::try_from(keys).unwrap_or(usize::MAX)))
}

/// Verifies one link of a [`chain_paths`] walk — magic, CRC, head, structure; the walk has
/// matched its frame CRC to its successor's base pointer — and applies it on top of `below`
/// (the links under it, already applied; `None` for the full image, which is applied to an
/// empty store sized for `keys`).
fn apply_link(
    path: &Path,
    below: Option<MultiVersionStore>,
    keys: usize,
) -> Result<MultiVersionStore, LedgerError> {
    let bytes = fs::read(path).map_err(|e| LedgerError::io(path, e))?;
    let (crc, payload) = split_frame(path, &bytes, bytes.len() as u64)?;
    if crc32(payload) != crc {
        return Err(corrupt(path, "CRC mismatch"));
    }
    let mut r = ByteReader::new(payload);
    let head = get_head(&mut r, crc).map_err(|detail| corrupt(path, detail))?;
    let mut store = match (below, head.base) {
        (None, None) => MultiVersionStore::with_capacity(keys),
        (Some(store), Some(_)) => store,
        _ => return Err(corrupt(path, "link does not fit the state below it")),
    };
    get_store(&mut r, &mut store, head.base.map(|b| b.height))
        .map_err(|detail| corrupt(path, detail))?;
    if !r.is_exhausted() {
        return Err(corrupt(path, "trailing bytes after checkpoint payload"));
    }
    if store.last_block() != head.id.height {
        return Err(corrupt(path, "store height differs from the checkpoint's"));
    }
    Ok(store)
}

/// Loads the checkpoint at `path`: its whole chain, base image first, every link validated
/// (magic, CRC, head, base CRC, structure). Any bad link is an error.
pub(crate) fn load_checkpoint(
    path: impl AsRef<Path>,
) -> Result<(u64, MultiVersionStore), LedgerError> {
    let (links, keys) = chain_paths(path.as_ref())?;
    let mut store = None;
    for link in links {
        store = Some(apply_link(&link, store, keys)?);
    }
    let store = store.expect("a chain holds at least its top link");
    Ok((store.last_block(), store))
}

/// The heights of every checkpoint file in `dir`, ascending (parsed from file names; files
/// whose names do not parse are ignored).
pub(crate) fn checkpoint_heights(
    dir: impl AsRef<Path>,
) -> Result<Vec<(u64, PathBuf)>, LedgerError> {
    let dir = dir.as_ref();
    let entries = fs::read_dir(dir).map_err(|e| LedgerError::io(dir, e))?;
    let mut found: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| LedgerError::io(dir, e))?.path();
        if let Some(height) = height_in_name(&path) {
            found.push((height, path));
        }
    }
    found.sort();
    Ok(found)
}

/// Loads the newest *valid* checkpoint at or below `max_height`. Candidates are tried newest
/// first; one whose chain does not load is passed over for the next older one — the chain
/// below a bad link is that of an older candidate.
///
/// `Ok(None)` means there is no candidate, so a replay from block 0 is sound as far as this
/// directory can tell. When candidates failed to load and nothing usable is left, the newest
/// one's error is returned instead — every chain ends in the same full image, and the genesis
/// values it holds are in no block to replay.
pub(crate) fn latest_checkpoint_at_most(
    dir: impl AsRef<Path>,
    max_height: u64,
) -> Result<Option<(u64, MultiVersionStore)>, LedgerError> {
    let mut candidates = checkpoint_heights(dir.as_ref())?;
    candidates.retain(|(height, _)| *height <= max_height);
    let mut first_error = None;
    for (_, path) in candidates.into_iter().rev() {
        match load_checkpoint(&path) {
            Ok(found) => return Ok(Some(found)),
            Err(e) => first_error = first_error.or(Some(e)),
        }
    }
    first_error.map_or(Ok(None), Err)
}

/// Removes the checkpoint files a recovery has ruled out, so that no later delta is built on
/// one; returns how many. `used_height` is the checkpoint the recovery started from (0 when
/// it replayed from block 0). Every file above it is ruled out: either it lies above the
/// recovered log — a leftover of a torn tail, and the chain may grow differently from here —
/// or it failed verification, else it would have been the one used.
pub(crate) fn discard_unusable_checkpoints(
    dir: impl AsRef<Path>,
    used_height: u64,
) -> Result<usize, LedgerError> {
    let mut removed = 0;
    for (height, path) in checkpoint_heights(dir.as_ref())? {
        if height <= used_height {
            continue;
        }
        fs::remove_file(&path).map_err(|e| LedgerError::io(&path, e))?;
        removed += 1;
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::txn::Transaction;
    use proptest::prelude::*;

    /// [`peek`]'s head alone.
    fn peek_head(path: &Path) -> Result<LinkHead, LedgerError> {
        peek(path).map(|peeked| peeked.head)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "eov-ckpt-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn populated(blocks: u64) -> MultiVersionStore {
        let mut store = MultiVersionStore::new();
        store.seed_genesis((0..6).map(|i| (Key::new(format!("k{i}")), Value::from_i64(i))));
        for b in 1..=blocks {
            let txn = Transaction::from_parts(
                b,
                b - 1,
                [],
                (0..3).map(|i| {
                    (
                        Key::new(format!("k{}", (b as usize + i) % 6)),
                        Value::from_i64(b as i64 * 10 + i as i64),
                    )
                }),
            );
            store.apply_block(b, [(&txn, 1)]);
        }
        store
    }

    #[test]
    fn checkpoint_roundtrip_is_bit_identical() {
        // fsync on additionally syncs the temp file and the directory: same file.
        for fsync in [false, true] {
            let dir = temp_dir(&format!("rt{fsync}"));
            let mut store = populated(7);
            // Values on both sides of the 14-byte inline limit, and one far past it.
            let sized = Transaction::from_parts(
                80,
                7,
                [],
                [0usize, 14, 15, 4096].map(|len| {
                    let bytes: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
                    (Key::new(format!("len{len}")), Value::from_bytes(bytes))
                }),
            );
            store.apply_block(8, [(&sized, 1)]);
            let (height, path) = write_checkpoint(&dir, &store, fsync).unwrap();
            assert_eq!(height, 8);
            let (loaded_height, loaded) = load_checkpoint(&path).unwrap();
            assert_eq!(loaded_height, 8);
            assert_eq!(loaded, store, "fsync {fsync}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn latest_checkpoint_respects_height_bound_and_shape() {
        let dir = temp_dir("latest");
        for blocks in [2u64, 5, 9] {
            write_checkpoint(&dir, &populated(blocks), false).unwrap();
        }
        // Newest at or below the bound wins.
        let (height, _) = latest_checkpoint_at_most(&dir, 7).unwrap().unwrap();
        assert_eq!(height, 5);
        let (height, _) = latest_checkpoint_at_most(&dir, 100).unwrap().unwrap();
        assert_eq!(height, 9);
        assert!(latest_checkpoint_at_most(&dir, 1).unwrap().is_none());
        // A file opening with the previous format's magic is refused by path and format,
        // never passed over for a replay from an empty store.
        let paths: Vec<PathBuf> = checkpoint_heights(&dir)
            .unwrap()
            .into_iter()
            .map(|(_, path)| path)
            .collect();
        for path in &paths {
            let mut bytes = std::fs::read(path).unwrap();
            bytes[..8].copy_from_slice(PREVIOUS_MAGIC);
            std::fs::write(path, &bytes).unwrap();
        }
        for max_height in [2u64, 100] {
            let err = latest_checkpoint_at_most(&dir, max_height).unwrap_err();
            assert!(
                matches!(&err, LedgerError::CorruptCheckpoint { path, detail }
                    if paths.contains(path) && detail.contains("EOVCKP02")),
                "got {err}"
            );
        }
        // Nor does a writer build on one.
        let (_, at_12) = write_checkpoint(&dir, &populated(12), false).unwrap();
        assert_eq!(peek_head(&at_12).unwrap().base, None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Flips one payload byte of `path` (a CRC failure, frame intact).
    fn flip_payload_byte(path: &Path) {
        let mut bytes = std::fs::read(path).unwrap();
        let target = bytes.len() - 5;
        bytes[target] ^= 0x40;
        std::fs::write(path, &bytes).unwrap();
    }

    /// Writes the chain of `populated(h)` checkpoints at `heights` into a fresh dir.
    fn chain_at(tag: &str, heights: &[u64]) -> (PathBuf, Vec<PathBuf>) {
        let dir = temp_dir(tag);
        let paths = heights
            .iter()
            .map(|&h| write_checkpoint(&dir, &populated(h), false).unwrap().1)
            .collect();
        (dir, paths)
    }

    #[test]
    fn periodic_checkpoints_are_deltas_over_the_one_before() {
        let (dir, paths) = chain_at("delta", &[0, 3, 6]);
        let heads: Vec<LinkHead> = paths.iter().map(|p| peek_head(p).unwrap()).collect();
        assert_eq!(heads[0].base, None, "nothing to build on: a full image");
        assert_eq!(heads[1].base, Some(heads[0].id));
        assert_eq!(heads[2].base, Some(heads[1].id));
        // Three blocks of three writes each, whatever the store has grown to.
        let len = |p: &PathBuf| std::fs::metadata(p).unwrap().len();
        assert_eq!(len(&paths[1]), len(&paths[2]));
        for (path, height) in paths.iter().zip([0u64, 3, 6]) {
            assert_eq!(load_checkpoint(path).unwrap(), (height, populated(height)));
        }
        std::fs::remove_dir_all(&dir).unwrap();

        // A store that gains 200 fresh keys per interval: a full image would grow with the
        // store (the 8th near 4x the 2nd), a delta costs what changed.
        let dir = temp_dir("delta-growth");
        let mut store = MultiVersionStore::new();
        store.seed_genesis((0..64).map(|i| (Key::new(format!("acct:{i}")), Value::from_i64(100))));
        write_checkpoint(&dir, &store, false).unwrap();
        let sizes: Vec<u64> = (1..=8u64)
            .map(|period| {
                for block in (period - 1) * 10 + 1..=period * 10 {
                    let txn = Transaction::from_parts(
                        block,
                        block - 1,
                        [],
                        (0..20).map(|i| (Key::new(format!("new:{block}:{i}")), Value::from_i64(i))),
                    );
                    store.apply_block(block, [(&txn, 1)]);
                }
                len(&write_checkpoint(&dir, &store, false).unwrap().1)
            })
            .collect();
        assert!(
            sizes[7] <= sizes[1],
            "8th checkpoint {} B, 2nd {} B",
            sizes[7],
            sizes[1]
        );
        let newest = dir.join(checkpoint_file_name(80));
        assert_eq!(load_checkpoint(newest).unwrap(), (80, store));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_bad_link_costs_the_links_above_it_and_nothing_else() {
        // Victim newest, middle, first delta: recovery gets the newest intact chain's state.
        for (victim, survivor) in [(3usize, 6u64), (2, 3), (1, 0)] {
            let (dir, paths) = chain_at(&format!("badlink{victim}"), &[0, 3, 6, 9]);
            flip_payload_byte(&paths[victim]);
            for above in &paths[victim..] {
                assert!(
                    matches!(
                        load_checkpoint(above),
                        Err(LedgerError::CorruptCheckpoint { .. })
                    ),
                    "victim {victim}: {} must not load",
                    above.display()
                );
            }
            let found = latest_checkpoint_at_most(&dir, 100).unwrap();
            assert_eq!(
                found,
                Some((survivor, populated(survivor))),
                "victim {victim}"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_corrupt_full_image_is_an_error_not_a_replay_from_nothing() {
        // Every chain ends in the genesis image; the values seeded there are in no block. With
        // it gone a block-0 replay would quietly lose them, so the failure is reported.
        let (dir, paths) = chain_at("badroot", &[0, 3, 6]);
        flip_payload_byte(&paths[0]);
        for max_height in [0u64, 4, 100] {
            let err = latest_checkpoint_at_most(&dir, max_height).unwrap_err();
            assert!(
                matches!(&err, LedgerError::CorruptCheckpoint { path, .. } if *path == paths[0]),
                "got {err}"
            );
        }
        // A directory that never held a checkpoint is still a plain genesis replay.
        let empty = temp_dir("noroot");
        assert_eq!(latest_checkpoint_at_most(&empty, 100).unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&empty).unwrap();
    }

    #[test]
    fn a_checkpoint_written_after_a_damaged_link_loads() {
        let (dir, paths) = chain_at("tornlink", &[0, 3, 6, 9]);
        // Cut the middle link short: its frame no longer matches its length, so neither it nor
        // the link above it has a chain; the candidates below it still do.
        let bytes = std::fs::read(&paths[2]).unwrap();
        std::fs::write(&paths[2], &bytes[..bytes.len() / 2]).unwrap();
        let found = latest_checkpoint_at_most(&dir, 100).unwrap();
        assert_eq!(found, Some((3, populated(3))));
        // A writer arriving now builds on the newest link whose chain is still whole, not on
        // the one above the damage, so what it writes — and everything after — loads.
        let (_, at_12) = write_checkpoint(&dir, &populated(12), false).unwrap();
        assert_eq!(
            peek_head(&at_12).unwrap().base,
            Some(peek_head(&paths[1]).unwrap().id)
        );
        assert_eq!(load_checkpoint(&at_12).unwrap(), (12, populated(12)));
        let (_, at_15) = write_checkpoint(&dir, &populated(15), false).unwrap();
        assert_eq!(
            peek_head(&at_15).unwrap().base,
            Some(peek_head(&at_12).unwrap().id)
        );
        assert_eq!(
            latest_checkpoint_at_most(&dir, 100).unwrap(),
            Some((15, populated(15)))
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_discards_what_it_ruled_out_and_nothing_else() {
        // Heights 0..=12 on disk, the log recovered to height 10, the link at 6 corrupt:
        // recovery uses 3. The link at 6 failed, 9 leans on it, 12 is above the log.
        let (dir, paths) = chain_at("discard", &[0, 3, 6, 9, 12]);
        flip_payload_byte(&paths[2]);
        let (used, _) = latest_checkpoint_at_most(&dir, 10).unwrap().unwrap();
        assert_eq!(used, 3);
        assert_eq!(discard_unusable_checkpoints(&dir, used).unwrap(), 3);
        let left: Vec<PathBuf> = checkpoint_heights(&dir)
            .unwrap()
            .into_iter()
            .map(|(_, path)| path)
            .collect();
        assert_eq!(left, paths[..2]);
        assert_eq!(discard_unusable_checkpoints(&dir, used).unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_base_swapped_for_another_valid_checkpoint_is_rejected_by_its_crc() {
        let (dir, paths) = chain_at("swapped", &[0, 3, 6]);
        // Same height, same shape, same base, valid CRC — but a different history.
        let mut other = populated(2);
        let stray = Transaction::from_parts(99, 2, [], [(Key::new("k0"), Value::from_i64(-1))]);
        other.apply_block(3, [(&stray, 1)]);
        let foreign_dir = temp_dir("swapped-foreign");
        write_checkpoint(&foreign_dir, &populated(0), false).unwrap();
        let (_, foreign) = write_checkpoint(&foreign_dir, &other, false).unwrap();
        std::fs::copy(&foreign, &paths[1]).unwrap();

        let err = load_checkpoint(&paths[2]).unwrap_err();
        assert!(
            matches!(&err, LedgerError::CorruptCheckpoint { detail, .. } if detail.contains("its successor built on")),
            "got {err}"
        );
        let (height, _) = latest_checkpoint_at_most(&dir, 100).unwrap().unwrap();
        assert_eq!(
            height, 3,
            "the link above the swapped base must not be used"
        );
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&foreign_dir).unwrap();
    }

    #[test]
    fn pruned_stores_checkpoint_their_horizon() {
        let dir = temp_dir("pruned");
        let mut store = populated(6);
        store.prune_versions_below(4);
        let (_, path) = write_checkpoint(&dir, &store, false).unwrap();
        let (_, loaded) = load_checkpoint(&path).unwrap();
        assert_eq!(loaded, store);
        assert_eq!(loaded.pruned_below(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Writes a link at `height` over `base` whose store records `last_block` and
    /// `total_keys` and holds `chains` (one version `(block, 1)` each) in the order given: the
    /// CRC is valid whatever rule of the format the chains or the count break.
    fn write_raw_link(
        dir: &Path,
        height: u64,
        base: Option<LinkId>,
        last_block: u64,
        chains: &[(&str, u64)],
        total_keys: u64,
    ) -> (LinkId, PathBuf) {
        let values: Vec<Value> = chains
            .iter()
            .map(|&(_, block)| Value::from_i64(block as i64))
            .collect();
        let chains: Vec<(Key, [VersionRef<'_>; 1])> = chains
            .iter()
            .zip(&values)
            .map(|(&(key, block), value)| {
                let version = SeqNo::new(block, 1);
                (Key::new(key), [VersionRef { version, value }])
            })
            .collect();
        let mut w = ByteWriter::new();
        w.put_raw(CHECKPOINT_MAGIC);
        w.put_u64(0);
        put_head(&mut w, height, base);
        let versions = chains
            .iter()
            .map(|(key, chain)| (key, chain.iter().copied()));
        put_chains(&mut w, [last_block, 0, total_keys], versions);
        let path = dir.join(checkpoint_file_name(height));
        std::fs::write(&path, seal_frame(w, 8, "checkpoint", u32::MAX).unwrap()).unwrap();
        (peek_head(&path).unwrap().id, path)
    }

    #[test]
    fn links_that_would_misorder_a_chain_are_corrupt_not_a_panic() {
        let is_corrupt_at = |path: &Path, err: LedgerError| matches!(&err, LedgerError::CorruptCheckpoint { path: at, .. } if at == path);
        // A full image listing key `a` twice, the second time with an older version.
        let dir = temp_dir("repeated-key");
        let (_, image) = write_raw_link(&dir, 5, None, 5, &[("a", 5), ("a", 3)], 1);
        let err = load_checkpoint(&image).unwrap_err();
        assert!(err.to_string().contains("out of key order"), "got {err}");
        assert!(is_corrupt_at(&image, err));
        std::fs::remove_dir_all(&dir).unwrap();

        // A base holding a version above its own height, under a delta with an older version
        // of the same key that is still above the base height.
        let dir = temp_dir("version-above-height");
        let (base, base_path) = write_raw_link(&dir, 3, None, 3, &[("a", 5)], 1);
        let (_, delta) = write_raw_link(&dir, 6, Some(base), 6, &[("a", 4)], 1);
        assert!(is_corrupt_at(
            &base_path,
            load_checkpoint(&delta).unwrap_err()
        ));
        assert!(is_corrupt_at(
            &base_path,
            latest_checkpoint_at_most(&dir, 100).unwrap_err()
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The top link's total key count sizes the loaded store before any CRC is checked. A
    /// count past what the chain's bytes can encode neither aborts the load nor sizes the
    /// store past those bytes: the chain loads, or fails, as the count check after the last
    /// link decides, and recovery passes a refused top over for the link below it.
    #[test]
    fn a_key_count_past_the_chain_bytes_is_capped_then_refused() {
        let dir = temp_dir("key-claim");
        let (base, base_path) = write_raw_link(&dir, 3, None, 3, &[("a", 1), ("b", 2)], 2);
        for claim in [u64::MAX, 1 << 40, 4, 3, 0] {
            let (_, top) = write_raw_link(&dir, 6, Some(base), 6, &[("c", 4)], claim);
            let (paths, keys) = chain_paths(&top).unwrap();
            assert_eq!(paths, [base_path.clone(), top.clone()]);
            let payload_bytes: u64 = paths
                .iter()
                .map(|path| std::fs::metadata(path).unwrap().len() - FRAME_LEN as u64)
                .sum();
            assert_eq!(keys as u64, claim.min(payload_bytes / MIN_CHAIN_LEN));
            let recovered = latest_checkpoint_at_most(&dir, 100).unwrap().unwrap();
            match load_checkpoint(&top) {
                Ok((6, store)) if claim == 3 => {
                    assert_eq!(store.key_count(), 3);
                    assert_eq!(recovered, (6, store));
                }
                Err(err) if claim != 3 => {
                    let refusal = format!(
                        "store holds 3 keys after the delta, the checkpoint recorded {claim}"
                    );
                    assert!(err.to_string().contains(&refusal), "got {err}");
                    assert_eq!(recovered.0, 3);
                }
                other => panic!("claim {claim}: {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();

        // A full image alone, claiming every key there is.
        let dir = temp_dir("key-claim-image");
        let (_, image) = write_raw_link(&dir, 5, None, 5, &[("a", 5)], u64::MAX);
        let payload_bytes = std::fs::metadata(&image).unwrap().len() - FRAME_LEN as u64;
        assert_eq!(
            chain_paths(&image).unwrap().1 as u64,
            payload_bytes / MIN_CHAIN_LEN
        );
        let err = load_checkpoint(&image).unwrap_err();
        assert!(err.to_string().contains("store holds 1 keys"), "got {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// What the ordered-map store wrote for its chains, from an ordered map: walk the keys in
    /// order, cut each chain at the base height, skip the empty suffixes.
    fn put_store_from_ordered_map(
        w: &mut ByteWriter,
        counters: [u64; 3],
        chains: &std::collections::BTreeMap<Key, Vec<(SeqNo, Value)>>,
        base_height: Option<u64>,
    ) {
        let suffixes = chains.iter().filter_map(|(key, chain)| {
            let start = base_height.map_or(0, |h| chain.partition_point(|v| v.0.block <= h));
            let newest_first = chain[start..]
                .iter()
                .rev()
                .map(|(version, value)| VersionRef {
                    version: *version,
                    value,
                });
            (start < chain.len()).then_some((key, newest_first))
        });
        put_chains(w, counters, suffixes);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The bytes of a store do not depend on its layout: after every step of a random
        /// history, the full image and the delta over every earlier height are byte-identical
        /// to what the walk of an ordered map holding the same chains encodes.
        #[test]
        fn store_bytes_equal_those_of_an_ordered_map_walk(
            ops in proptest::collection::vec((0u8..5, any::<u64>()), 1..40),
        ) {
            let mut store = MultiVersionStore::new();
            let mut oracle: std::collections::BTreeMap<Key, Vec<(SeqNo, Value)>> = Default::default();
            for &(op, arg) in &ops {
                let block = store.last_block() + 1;
                if op == 4 {
                    let horizon = arg % block;
                    store.prune_versions_below(horizon);
                    let bound = SeqNo::new(horizon, u32::MAX);
                    for chain in oracle.values_mut() {
                        let idx = chain.partition_point(|v| v.0 <= bound);
                        if idx > 1 {
                            chain.drain(..idx - 1);
                        }
                    }
                } else {
                    // Keys arrive in an order that is not key order; some are rewritten.
                    for t in 0..1 + arg % 4 {
                        for name in [format!("k{}", (arg >> (8 * t)) % 9), format!("n{}-{t}", u64::MAX - block)] {
                            let (key, version) = (Key::new(name), SeqNo::new(block, t as u32 + 1));
                            let value = Value::from_i64(arg as i64);
                            store.put(&key, version, value.clone());
                            oracle.entry(key).or_default().push((version, value));
                        }
                    }
                    store.commit_empty_block(block);
                }
                let counters = [store.last_block(), store.pruned_below(), store.key_count() as u64];
                for base_height in std::iter::once(None).chain((0..=store.last_block()).map(Some)) {
                    let mut from_store = ByteWriter::new();
                    put_store(&mut from_store, &store, base_height);
                    let mut from_map = ByteWriter::new();
                    put_store_from_ordered_map(&mut from_map, counters, &oracle, base_height);
                    prop_assert_eq!(
                        from_store.into_bytes(),
                        from_map.into_bytes(),
                        "base {:?} at height {}", base_height, store.last_block()
                    );
                }
            }
        }

        /// Model-based: over a random interleaving of block commits, prunes and checkpoints,
        /// every checkpoint ever written loads to exactly the live store as it stood when it
        /// was taken — chains, heights, `pruned_below`.
        #[test]
        fn every_checkpoint_of_a_random_history_loads_the_store_it_was_taken_from(
            ops in proptest::collection::vec((0u8..6, any::<u64>()), 1..40),
            case in any::<u32>(),
        ) {
            let dir = temp_dir(&format!("model-{case}"));
            let mut store = MultiVersionStore::new();
            store.seed_genesis((0..6).map(|i| (Key::new(format!("k{i}")), Value::from_i64(i))));
            // The model: height -> the live store when that height was last checkpointed.
            let mut taken: std::collections::BTreeMap<u64, MultiVersionStore> = Default::default();
            for &(op, arg) in &ops {
                let height = store.last_block();
                match op {
                    // Commit a block: overwrite a few old keys, create one new one.
                    0..=2 => {
                        let block = height + 1;
                        let txns: Vec<Transaction> = (0..1 + arg % 3)
                            .map(|t| {
                                Transaction::from_parts(
                                    block * 10 + t,
                                    height,
                                    [],
                                    [
                                        (Key::new(format!("k{}", (arg >> (8 * t)) % 6)), Value::from_i64(block as i64)),
                                        (Key::new(format!("n{block}-{t}")), Value::from_i64(t as i64)),
                                    ],
                                )
                            })
                            .collect();
                        store.apply_block(block, txns.iter().zip(1u32..));
                    }
                    // Prune at a horizon the store has reached.
                    3 => store.prune_versions_below(arg % (height + 1)),
                    _ => {
                        write_checkpoint(&dir, &store, false).unwrap();
                        taken.insert(height, store.clone());
                    }
                }
            }
            for (height, expected) in &taken {
                let path = dir.join(checkpoint_file_name(*height));
                let (loaded_height, loaded) = load_checkpoint(&path).unwrap();
                prop_assert_eq!(loaded_height, *height);
                prop_assert_eq!(loaded.pruned_below(), expected.pruned_below());
                prop_assert_eq!(&loaded, expected, "height {}", height);
                let found = latest_checkpoint_at_most(&dir, *height).unwrap();
                prop_assert_eq!(found.as_ref(), Some(&(*height, expected.clone())));
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    proptest! {
        /// A valid chain with 1–4 payload bytes of one link overwritten and that link's CRC
        /// recomputed, so that the damage reaches the decoder: loading it, or recovering from
        /// the directory, is an error or a store, never a panic.
        #[test]
        fn load_never_panics_on_a_damaged_link(
            link in 0usize..3,
            overwrites in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..5),
        ) {
            let (dir, paths) = chain_at("damaged", &[0, 3, 6]);
            let mut bytes = std::fs::read(&paths[link]).unwrap();
            for (at, byte) in overwrites {
                let at = FRAME_LEN + at.index(bytes.len() - FRAME_LEN);
                bytes[at] = byte;
            }
            let crc = crc32(&bytes[FRAME_LEN..]);
            bytes[12..16].copy_from_slice(&crc.to_be_bytes());
            std::fs::write(&paths[link], &bytes).unwrap();
            let _ = load_checkpoint(&paths[link]);
            let _ = latest_checkpoint_at_most(&dir, 100);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

//! Multi-version-store checkpoints: the base state cold recovery replays from.
//!
//! A checkpoint file `ckpt-<height:020>.bin` captures a [`StoreBackend`] as it stood after
//! applying blocks `1..=height` — as a **delta** over the newest older checkpoint in the same
//! directory. A state at height `h` is an older state plus the writes logged since, so a
//! checkpoint never repeats what an earlier one already holds: it names its base by
//! `(height, payload CRC)` and carries, per shard, only the version-chain suffixes newer than
//! the base height, plus the heights, the pruning horizon and the total key count. With no
//! older checkpoint to build on (the genesis checkpoint, an empty directory) the same format
//! degenerates to a full image: no base, every chain whole.
//!
//! ```text
//! file    = "EOVCKP02" | u32 payload length | u32 CRC-32(payload) | payload
//! payload = u64 height | u32 shards (0 = unsharded) | u8 partitioning
//!         | u8 has-base | u64 base height | u32 base payload CRC
//!         | shard*            (one when unsharded, else `shards`)
//! shard   = u64 last_block | u64 pruned_below | u64 total keys | u64 chains
//!         | (key | u32 versions | (seqno | value)*)*      — ascending key order
//! ```
//!
//! Writes encode into one buffer and go through a temp file plus rename, so a crash
//! mid-checkpoint leaves either the old file set or the new one, never a half-written
//! checkpoint under the final name.
//!
//! Loading walks the base pointers down to a full image, then applies the links oldest-first.
//! Every link must pass its magic, its CRC and the *base CRC* its successor recorded (a base
//! file swapped for a different — even valid — checkpoint is rejected), its chain suffixes
//! must start above the base height, and after re-applying the recorded prune horizon the
//! shard must hold exactly the recorded number of keys. Re-pruning reproduces the live store
//! bit for bit as long as no horizon ran ahead of the store's height when it was applied
//! (pruning all writes once at the newest horizon then keeps exactly what pruning along the
//! way kept); a store pruned ahead of its height loads with fewer versions than it had, all
//! of them below the horizon, where no snapshot read is answered anyway.
//!
//! Recovery tries the candidates at or below the ledger height newest first and takes the
//! first whose whole chain loads and whose shape matches the configured sharding: a bad link
//! costs the links above it, never the restart — every older link is itself a candidate, its
//! chain a prefix, and the segment log replays the rest. Too-new or mis-shaped candidates are
//! skipped as before. Every chain ends in the same full image, though, so when checkpoints
//! exist and *none* loads, the error is reported: seeded genesis values live in no block, and
//! a replay from an empty store would be a quietly wrong restart. Only a directory with no
//! candidate at all is replayed from block 0.
//!
//! So that a damaged file is not built on either, the writer accepts a base only if the
//! heads of its chain walk down to a full image (each link naming the next by height and
//! CRC), and recovery removes the files it has ruled out ([`discard_unusable_checkpoints`]).

use crate::codec::{crc32, seal_frame, ByteReader, ByteWriter};
use crate::error::LedgerError;
use crate::segment::sync_dir;
use eov_common::rwset::{Key, Value};
use eov_common::shard::{Partitioning, ShardRouter};
use eov_common::version::SeqNo;
use eov_vstore::{MultiVersionStore, ShardedStore, StateRead, StoreBackend, VersionedValue};
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every checkpoint file (format version 2: delta chains).
const CHECKPOINT_MAGIC: &[u8; 8] = b"EOVCKP02";
/// Bytes of file frame: magic + payload length + payload CRC.
const FRAME_LEN: usize = 16;
/// Bytes of the fixed payload head: height, shape, base pointer.
const HEAD_LEN: usize = 26;
/// Fewest payload bytes one encoded shard occupies (its four counters).
const MIN_SHARD_LEN: usize = 32;

/// File name of the checkpoint at `height`.
pub fn checkpoint_file_name(height: u64) -> String {
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

/// Backend shape: shard count (`0` = unsharded) and router kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Shape {
    shards: u32,
    partitioning: Partitioning,
}

impl Shape {
    fn of(store: &StoreBackend) -> Self {
        match store {
            StoreBackend::Unsharded(_) => Shape {
                shards: 0,
                partitioning: Partitioning::Hash,
            },
            StoreBackend::Sharded(s) => Shape {
                shards: s.shard_count() as u32,
                partitioning: s.router().partitioning(),
            },
        }
    }

    fn empty_store(self) -> StoreBackend {
        match (self.shards as usize, self.partitioning) {
            (0, _) => StoreBackend::Unsharded(MultiVersionStore::new()),
            (n, Partitioning::Hash) => {
                StoreBackend::Sharded(ShardedStore::new(ShardRouter::hash(n)))
            }
            (n, Partitioning::Range) => {
                StoreBackend::Sharded(ShardedStore::new(ShardRouter::range(n)))
            }
        }
    }
}

/// The fixed head of a checkpoint payload.
#[derive(Clone, Copy, Debug)]
struct LinkHead {
    id: LinkId,
    shape: Shape,
    base: Option<LinkId>,
}

fn put_head(w: &mut ByteWriter, height: u64, shape: Shape, base: Option<LinkId>) {
    w.put_u64(height);
    w.put_u32(shape.shards);
    w.put_u8(match shape.partitioning {
        Partitioning::Hash => 0,
        Partitioning::Range => 1,
    });
    w.put_u8(base.is_some() as u8);
    let base = base.unwrap_or(LinkId { height: 0, crc: 0 });
    w.put_u64(base.height);
    w.put_u32(base.crc);
}

/// Decodes the payload head; `crc` is the payload CRC from the file frame.
fn get_head(r: &mut ByteReader<'_>, crc: u32) -> Result<LinkHead, String> {
    let height = r.get_u64("checkpoint height")?;
    let shards = r.get_u32("shard count")?;
    let partitioning = match r.get_u8("partitioning")? {
        0 => Partitioning::Hash,
        1 => Partitioning::Range,
        other => return Err(format!("unknown partitioning tag {other}")),
    };
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
        shape: Shape {
            shards,
            partitioning,
        },
        base: has_base.then_some(base),
    })
}

/// Encodes one shard: counters, then every chain suffix newer than `base_height` (every whole
/// chain when there is no base) in key order. The store keeps its chains in first-write order,
/// so the suffixes are picked first and only those sorted: a delta over a large store costs a
/// scan plus the sort of what changed.
fn put_shard(w: &mut ByteWriter, shard: &MultiVersionStore, base_height: Option<u64>) {
    let mut suffixes: Vec<(&Key, &[VersionedValue])> = shard
        .chains_in_write_order()
        .map(|(key, chain)| {
            let start = base_height.map_or(0, |h| chain.partition_point(|v| v.version.block <= h));
            (key, &chain[start..])
        })
        .filter(|(_, suffix)| !suffix.is_empty())
        .collect();
    suffixes.sort_unstable_by(|a, b| a.0.cmp(b.0));
    put_chains(
        w,
        [
            shard.last_block(),
            shard.pruned_below(),
            shard.key_count() as u64,
        ],
        suffixes,
    );
}

/// Encodes a shard's three counters (`last_block`, `pruned_below`, total keys) and `chains`,
/// which arrive in key order and non-empty.
fn put_chains<'a>(
    w: &mut ByteWriter,
    counters: [u64; 3],
    chains: impl IntoIterator<Item = (&'a Key, &'a [VersionedValue])>,
) {
    for counter in counters {
        w.put_u64(counter);
    }
    let chains_at = w.len();
    w.put_u64(0);
    let mut count = 0u64;
    for (key, chain) in chains {
        count += 1;
        w.put_bytes(key.as_str().as_bytes());
        w.put_u32(chain.len() as u32);
        for version in chain {
            w.put_seqno(version.version);
            w.put_bytes(version.value.as_bytes());
        }
    }
    w.set_u64_at(chains_at, count);
}

/// Applies one encoded shard on top of `shard` (the base state, or empty for a full image).
fn get_shard(
    r: &mut ByteReader<'_>,
    shard: &mut MultiVersionStore,
    base_height: Option<u64>,
) -> Result<(), String> {
    let last_block = r.get_u64("shard last_block")?;
    let pruned_below = r.get_u64("shard pruned_below")?;
    let total_keys = r.get_u64("shard key count")?;
    let chains = r.get_u64("shard chain count")?;
    for _ in 0..chains {
        let key = r.get_key("chain key")?;
        let versions = r.get_u32("chain length")?;
        let mut newest: Option<SeqNo> = None;
        for _ in 0..versions {
            let version = r.get_seqno("chain version")?;
            // Everything at or below the base height is the base's to hold; a suffix that
            // reaches into it (or runs backwards) would break the chain's sort order.
            if base_height.is_some_and(|h| version.block <= h)
                || newest.is_some_and(|n| n > version)
            {
                return Err(format!("chain of {key:?} is out of order at {version:?}"));
            }
            newest = Some(version);
            let value = Value::from_bytes(r.get_bytes("chain value")?.to_vec());
            shard.put(key.clone(), version, value);
        }
    }
    if pruned_below > shard.pruned_below() {
        shard.prune_versions_below(pruned_below);
    }
    shard.restore_heights(last_block, pruned_below);
    if shard.key_count() as u64 != total_keys {
        return Err(format!(
            "shard holds {} keys after the delta, the checkpoint recorded {total_keys}",
            shard.key_count()
        ));
    }
    Ok(())
}

/// The newest checkpoint in `dir` strictly below `height` that a delta can build on: its
/// shape is `shape` and the heads of its chain walk down to a full image (42 bytes per link;
/// payloads are verified when a chain is loaded, not here). A file with a torn frame, or one
/// leaning on such a file, is passed over — what is written next must be loadable.
fn newest_base(dir: &Path, height: u64, shape: Shape) -> Result<Option<LinkId>, LedgerError> {
    let candidates = checkpoint_heights(dir)?;
    Ok(candidates
        .iter()
        .rev()
        .filter(|(h, _)| *h < height)
        .find_map(|(_, path)| {
            let head = peek_head(path).ok()?;
            (head.shape == shape && chain_paths(path).is_ok()).then_some(head.id)
        }))
}

/// Writes a checkpoint of `store` at its current height into `dir` (atomically: temp file +
/// rename) as a delta over the newest older checkpoint there, or as a full image when there
/// is none. Returns the height and the final path.
pub fn write_checkpoint(
    dir: impl AsRef<Path>,
    store: &StoreBackend,
    fsync: bool,
) -> Result<(u64, PathBuf), LedgerError> {
    let dir = dir.as_ref();
    let height = store.last_block();
    let shape = Shape::of(store);
    let base = newest_base(dir, height, shape)?;
    let base_height = base.map(|b| b.height);

    // One buffer: the frame is reserved up front and patched once the payload behind it is
    // complete, so the writer never holds the payload twice.
    let mut w = ByteWriter::new();
    w.put_raw(CHECKPOINT_MAGIC);
    w.put_u64(0);
    put_head(&mut w, height, shape, base);
    match store {
        StoreBackend::Unsharded(s) => put_shard(&mut w, s, base_height),
        StoreBackend::Sharded(s) => {
            for i in 0..s.shard_count() {
                put_shard(&mut w, s.shard(i), base_height);
            }
        }
    }
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
        return Err(corrupt(path, "missing or invalid checkpoint header"));
    }
    let len = u32::from_be_bytes(bytes[8..12].try_into().unwrap()) as u64;
    let crc = u32::from_be_bytes(bytes[12..16].try_into().unwrap());
    if file_len != FRAME_LEN as u64 + len {
        return Err(corrupt(path, "checkpoint length does not match its frame"));
    }
    Ok((crc, &bytes[FRAME_LEN..]))
}

/// Reads a checkpoint's frame and payload head without reading (or verifying) the rest: how
/// the writer finds its base and how the loader discovers a chain. The recorded height must be
/// the file name's; whatever else this returns is confirmed against the CRC-verified payload
/// when the link is applied.
fn peek_head(path: &Path) -> Result<LinkHead, LedgerError> {
    let mut file = fs::File::open(path).map_err(|e| LedgerError::io(path, e))?;
    let file_len = file.metadata().map_err(|e| LedgerError::io(path, e))?.len();
    let mut bytes = [0u8; FRAME_LEN + HEAD_LEN];
    if file.read_exact(&mut bytes).is_err() {
        return Err(corrupt(path, "missing or invalid checkpoint header"));
    }
    let (crc, head) = split_frame(path, &bytes, file_len)?;
    let head = get_head(&mut ByteReader::new(head), crc).map_err(|detail| corrupt(path, detail))?;
    if height_in_name(path) != Some(head.id.height) {
        return Err(corrupt(path, "recorded height differs from the file name"));
    }
    Ok(head)
}

/// The files of the chain ending at `top`, oldest (the full image) first. Heads only: every
/// link must exist with a whole frame and carry the CRC its successor recorded.
fn chain_paths(top: &Path) -> Result<Vec<PathBuf>, LedgerError> {
    let dir = top.parent().unwrap_or(Path::new(""));
    let mut paths = vec![top.to_path_buf()];
    let mut head = peek_head(top)?;
    // Base heights strictly descend (`get_head`), so the walk ends.
    while let Some(base) = head.base {
        let path = dir.join(checkpoint_file_name(base.height));
        head = peek_head(&path)?;
        if head.id != base {
            return Err(corrupt(
                &path,
                format!("not the checkpoint its successor built on ({base:?})"),
            ));
        }
        paths.push(path);
    }
    paths.reverse();
    Ok(paths)
}

/// Verifies one link of a [`chain_paths`] walk — magic, CRC, structure; the walk has matched
/// its frame CRC to its successor's base pointer — and applies it on top of `below` (the links
/// under it, already applied; `None` for the full image).
fn apply_link(path: &Path, below: Option<StoreBackend>) -> Result<StoreBackend, LedgerError> {
    let bytes = fs::read(path).map_err(|e| LedgerError::io(path, e))?;
    let (crc, payload) = split_frame(path, &bytes, bytes.len() as u64)?;
    if crc32(payload) != crc {
        return Err(corrupt(path, "CRC mismatch"));
    }
    let mut r = ByteReader::new(payload);
    let head = get_head(&mut r, crc).map_err(|detail| corrupt(path, detail))?;
    let shard_count = (head.shape.shards as usize).max(1);
    if shard_count.saturating_mul(MIN_SHARD_LEN) > payload.len() {
        return Err(corrupt(path, "shard count exceeds the payload"));
    }
    let mut store = match (below, head.base) {
        (None, None) => head.shape.empty_store(),
        (Some(store), Some(_)) if Shape::of(&store) == head.shape => store,
        _ => return Err(corrupt(path, "link does not fit the state below it")),
    };

    let base_height = head.base.map(|b| b.height);
    let applied = match &mut store {
        StoreBackend::Unsharded(s) => get_shard(&mut r, s, base_height),
        StoreBackend::Sharded(s) => {
            s.restore_height(head.id.height);
            (0..shard_count).try_for_each(|i| get_shard(&mut r, s.shard_mut(i), base_height))
        }
    };
    applied.map_err(|detail| corrupt(path, detail))?;
    if !r.is_exhausted() {
        return Err(corrupt(path, "trailing bytes after checkpoint payload"));
    }
    if store.last_block() != head.id.height {
        return Err(corrupt(path, "store height differs from the checkpoint's"));
    }
    Ok(store)
}

/// Loads the checkpoint at `path`: its whole chain, base image first, every link validated
/// (magic, CRC, base CRC, structure). Any bad link is an error.
pub fn load_checkpoint(path: impl AsRef<Path>) -> Result<(u64, StoreBackend), LedgerError> {
    let mut store = None;
    for link in chain_paths(path.as_ref())? {
        store = Some(apply_link(&link, store)?);
    }
    let store = store.expect("a chain holds at least its top link");
    Ok((store.last_block(), store))
}

/// The heights of every checkpoint file in `dir`, ascending (parsed from file names; files
/// whose names do not parse are ignored).
pub fn checkpoint_heights(dir: impl AsRef<Path>) -> Result<Vec<(u64, PathBuf)>, LedgerError> {
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

/// Loads the newest *valid* checkpoint at or below `max_height` whose shape matches
/// `expected_shards` (the `CcConfig::store_shards` knob: `0` = unsharded). Candidates are
/// tried newest first; one whose chain does not load is passed over for the next older one —
/// the chain below a bad link is that of an older candidate — and a mis-shaped one is skipped.
///
/// `Ok(None)` means a replay from block 0 is sound as far as this directory can tell: there is
/// no candidate, or only intact ones of another shape (as before). When candidates failed to
/// load and nothing usable is left, the newest one's error is returned instead — every chain
/// ends in the same full image, and the genesis values it holds are in no block to replay.
pub fn latest_checkpoint_at_most(
    dir: impl AsRef<Path>,
    max_height: u64,
    expected_shards: usize,
) -> Result<Option<(u64, StoreBackend)>, LedgerError> {
    let mut candidates = checkpoint_heights(dir.as_ref())?;
    candidates.retain(|(height, _)| *height <= max_height);
    let mut first_error = None;
    for (_, path) in candidates.into_iter().rev() {
        match load_checkpoint(&path) {
            Ok((height, store)) if Shape::of(&store).shards as usize == expected_shards => {
                return Ok(Some((height, store)));
            }
            Ok(_) => {}
            Err(e) => first_error = first_error.or(Some(e)),
        }
    }
    first_error.map_or(Ok(None), Err)
}

/// Removes the checkpoint files a recovery has ruled out, so that no later delta is built on
/// one; returns how many. `used_height` is the checkpoint the recovery started from (0 when
/// it replayed from block 0), `ledger_height` the height of the recovered log. Removed are
/// every file above `ledger_height` — leftovers of a torn tail: the chain may grow differently
/// from here — and every file above `used_height` that is unreadable or of the shape the
/// recovery asked for: it failed verification, else it would have been the one used. Intact
/// checkpoints of another shape within the log are left for the configuration that wrote them.
pub fn discard_unusable_checkpoints(
    dir: impl AsRef<Path>,
    used_height: u64,
    ledger_height: u64,
    expected_shards: usize,
) -> Result<usize, LedgerError> {
    let mut removed = 0;
    for (height, path) in checkpoint_heights(dir.as_ref())? {
        let other_shape =
            || peek_head(&path).is_ok_and(|head| head.shape.shards as usize != expected_shards);
        if height <= used_height || (height <= ledger_height && other_shape()) {
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
    use eov_vstore::StateStore;
    use proptest::prelude::*;

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

    fn populated(shards: usize, blocks: u64) -> StoreBackend {
        let mut store = StoreBackend::for_shards(shards);
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
    fn checkpoint_roundtrip_is_bit_identical_for_every_backend() {
        // fsync on (S=4) additionally syncs the temp file and the directory: same file.
        for shards in [0usize, 2, 4] {
            let dir = temp_dir(&format!("rt{shards}"));
            let store = populated(shards, 7);
            let (height, path) = write_checkpoint(&dir, &store, shards == 4).unwrap();
            assert_eq!(height, 7);
            let (loaded_height, loaded) = load_checkpoint(&path).unwrap();
            assert_eq!(loaded_height, 7);
            assert_eq!(loaded, store, "S={shards}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn latest_checkpoint_respects_height_bound_and_shape() {
        let dir = temp_dir("latest");
        for blocks in [2u64, 5, 9] {
            write_checkpoint(&dir, &populated(2, blocks), false).unwrap();
        }
        // Newest at or below the bound wins.
        let (height, _) = latest_checkpoint_at_most(&dir, 7, 2).unwrap().unwrap();
        assert_eq!(height, 5);
        let (height, _) = latest_checkpoint_at_most(&dir, 100, 2).unwrap().unwrap();
        assert_eq!(height, 9);
        // Shape mismatch (recovering unsharded, checkpoints are 2-sharded): genesis replay.
        assert!(latest_checkpoint_at_most(&dir, 100, 0).unwrap().is_none());
        assert!(latest_checkpoint_at_most(&dir, 1, 2).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Flips one payload byte of `path` (a CRC failure, frame intact).
    fn flip_payload_byte(path: &Path) {
        let mut bytes = std::fs::read(path).unwrap();
        let target = bytes.len() - 5;
        bytes[target] ^= 0x40;
        std::fs::write(path, &bytes).unwrap();
    }

    /// Writes the chain of `populated(shards, h)` checkpoints at `heights` into a fresh dir.
    fn chain_at(tag: &str, shards: usize, heights: &[u64]) -> (PathBuf, Vec<PathBuf>) {
        let dir = temp_dir(tag);
        let paths = heights
            .iter()
            .map(|&h| {
                write_checkpoint(&dir, &populated(shards, h), false)
                    .unwrap()
                    .1
            })
            .collect();
        (dir, paths)
    }

    #[test]
    fn periodic_checkpoints_are_deltas_over_the_one_before() {
        let (dir, paths) = chain_at("delta", 0, &[0, 3, 6]);
        let heads: Vec<LinkHead> = paths.iter().map(|p| peek_head(p).unwrap()).collect();
        assert_eq!(heads[0].base, None, "nothing to build on: a full image");
        assert_eq!(heads[1].base, Some(heads[0].id));
        assert_eq!(heads[2].base, Some(heads[1].id));
        // Three blocks of three writes each, whatever the store has grown to.
        let len = |p: &PathBuf| std::fs::metadata(p).unwrap().len();
        assert_eq!(len(&paths[1]), len(&paths[2]));
        for (path, height) in paths.iter().zip([0u64, 3, 6]) {
            assert_eq!(
                load_checkpoint(path).unwrap(),
                (height, populated(0, height))
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_bad_link_costs_the_links_above_it_and_nothing_else() {
        // Victim newest, middle, first delta: recovery gets the newest intact chain's state.
        for (victim, survivor) in [(3usize, 6u64), (2, 3), (1, 0)] {
            let (dir, paths) = chain_at(&format!("badlink{victim}"), 2, &[0, 3, 6, 9]);
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
            let found = latest_checkpoint_at_most(&dir, 100, 2).unwrap();
            assert_eq!(
                found,
                Some((survivor, populated(2, survivor))),
                "victim {victim}"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_corrupt_full_image_is_an_error_not_a_replay_from_nothing() {
        // Every chain ends in the genesis image; the values seeded there are in no block. With
        // it gone a block-0 replay would quietly lose them, so the failure is reported.
        let (dir, paths) = chain_at("badroot", 0, &[0, 3, 6]);
        flip_payload_byte(&paths[0]);
        for max_height in [0u64, 4, 100] {
            let err = latest_checkpoint_at_most(&dir, max_height, 0).unwrap_err();
            assert!(
                matches!(&err, LedgerError::CorruptCheckpoint { path, .. } if *path == paths[0]),
                "got {err}"
            );
        }
        // A directory that never held a checkpoint is still a plain genesis replay.
        let empty = temp_dir("noroot");
        assert_eq!(latest_checkpoint_at_most(&empty, 100, 0).unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&empty).unwrap();
    }

    #[test]
    fn a_checkpoint_written_after_a_damaged_link_loads() {
        let (dir, paths) = chain_at("tornlink", 0, &[0, 3, 6, 9]);
        // Cut the middle link short: its frame no longer matches its length, so neither it nor
        // the link above it has a chain; the candidates below it still do.
        let bytes = std::fs::read(&paths[2]).unwrap();
        std::fs::write(&paths[2], &bytes[..bytes.len() / 2]).unwrap();
        let found = latest_checkpoint_at_most(&dir, 100, 0).unwrap();
        assert_eq!(found, Some((3, populated(0, 3))));
        // A writer arriving now builds on the newest link whose chain is still whole, not on
        // the one above the damage, so what it writes — and everything after — loads.
        let (_, at_12) = write_checkpoint(&dir, &populated(0, 12), false).unwrap();
        assert_eq!(
            peek_head(&at_12).unwrap().base,
            Some(peek_head(&paths[1]).unwrap().id)
        );
        assert_eq!(load_checkpoint(&at_12).unwrap(), (12, populated(0, 12)));
        let (_, at_15) = write_checkpoint(&dir, &populated(0, 15), false).unwrap();
        assert_eq!(
            peek_head(&at_15).unwrap().base,
            Some(peek_head(&at_12).unwrap().id)
        );
        assert_eq!(
            latest_checkpoint_at_most(&dir, 100, 0).unwrap(),
            Some((15, populated(0, 15)))
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_discards_what_it_ruled_out_and_nothing_else() {
        // Heights 0..=12 on disk, the log recovered to height 10, the link at 6 corrupt:
        // recovery uses 3. A 2-sharded checkpoint at 4 belongs to another configuration.
        let (dir, paths) = chain_at("discard", 0, &[0, 3, 6, 9, 12]);
        let (_, other_shape) = write_checkpoint(&dir, &populated(2, 4), false).unwrap();
        flip_payload_byte(&paths[2]);
        let (used, _) = latest_checkpoint_at_most(&dir, 10, 0).unwrap().unwrap();
        assert_eq!(used, 3);
        assert_eq!(discard_unusable_checkpoints(&dir, used, 10, 0).unwrap(), 3);
        let left: Vec<PathBuf> = checkpoint_heights(&dir)
            .unwrap()
            .into_iter()
            .map(|(_, path)| path)
            .collect();
        assert_eq!(
            left,
            [paths[0].clone(), paths[1].clone(), other_shape.clone()]
        );
        assert_eq!(discard_unusable_checkpoints(&dir, used, 10, 0).unwrap(), 0);
        // Above the log nothing stays, whatever its shape: the chain may grow differently.
        assert_eq!(discard_unusable_checkpoints(&dir, used, 3, 0).unwrap(), 1);
        assert!(!other_shape.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_base_swapped_for_another_valid_checkpoint_is_rejected_by_its_crc() {
        let (dir, paths) = chain_at("swapped", 0, &[0, 3, 6]);
        // Same height, same shape, same base, valid CRC — but a different history.
        let mut other = populated(0, 2);
        let stray = Transaction::from_parts(99, 2, [], [(Key::new("k0"), Value::from_i64(-1))]);
        other.apply_block(3, [(&stray, 1)]);
        let foreign_dir = temp_dir("swapped-foreign");
        write_checkpoint(&foreign_dir, &populated(0, 0), false).unwrap();
        let (_, foreign) = write_checkpoint(&foreign_dir, &other, false).unwrap();
        std::fs::copy(&foreign, &paths[1]).unwrap();

        let err = load_checkpoint(&paths[2]).unwrap_err();
        assert!(
            matches!(&err, LedgerError::CorruptCheckpoint { detail, .. } if detail.contains("its successor built on")),
            "got {err}"
        );
        let (height, _) = latest_checkpoint_at_most(&dir, 100, 0).unwrap().unwrap();
        assert_eq!(
            height, 3,
            "the link above the swapped base must not be used"
        );
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&foreign_dir).unwrap();
    }

    #[test]
    fn a_delta_is_never_built_on_a_differently_shaped_base() {
        let dir = temp_dir("reshape");
        write_checkpoint(&dir, &populated(0, 3), false).unwrap();
        let (_, path) = write_checkpoint(&dir, &populated(2, 6), false).unwrap();
        assert_eq!(peek_head(&path).unwrap().base, None);
        assert_eq!(load_checkpoint(&path).unwrap(), (6, populated(2, 6)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pruned_stores_checkpoint_their_horizon() {
        let dir = temp_dir("pruned");
        let mut store = populated(0, 6);
        store.prune_versions_below(4);
        let (_, path) = write_checkpoint(&dir, &store, false).unwrap();
        let (_, loaded) = load_checkpoint(&path).unwrap();
        assert_eq!(loaded, store);
        assert_eq!(loaded.pruned_below(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// What the ordered-map store wrote for a shard, from an ordered map: walk the keys in
    /// order, cut each chain at the base height, skip the empty suffixes.
    fn put_shard_from_ordered_map(
        w: &mut ByteWriter,
        counters: [u64; 3],
        chains: &std::collections::BTreeMap<Key, Vec<VersionedValue>>,
        base_height: Option<u64>,
    ) {
        let suffixes = chains.iter().filter_map(|(key, chain)| {
            let start = base_height.map_or(0, |h| chain.partition_point(|v| v.version.block <= h));
            (start < chain.len()).then_some((key, &chain[start..]))
        });
        put_chains(w, counters, suffixes);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The bytes of a shard do not depend on the store's layout: after every step of a
        /// random history, the full image and the delta over every earlier height are
        /// byte-identical to what the walk of an ordered map holding the same chains encodes.
        #[test]
        fn shard_bytes_equal_those_of_an_ordered_map_walk(
            ops in proptest::collection::vec((0u8..5, any::<u64>()), 1..40),
        ) {
            let mut store = MultiVersionStore::new();
            let mut oracle: std::collections::BTreeMap<Key, Vec<VersionedValue>> = Default::default();
            for &(op, arg) in &ops {
                let block = store.last_block() + 1;
                if op == 4 {
                    let horizon = arg % block;
                    store.prune_versions_below(horizon);
                    let bound = SeqNo::new(horizon, u32::MAX);
                    for chain in oracle.values_mut() {
                        let idx = chain.partition_point(|v| v.version <= bound);
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
                            store.put(key.clone(), version, value.clone());
                            oracle.entry(key).or_default().push(VersionedValue { version, value });
                        }
                    }
                    store.commit_empty_block(block);
                }
                let counters = [store.last_block(), store.pruned_below(), store.key_count() as u64];
                for base_height in std::iter::once(None).chain((0..=store.last_block()).map(Some)) {
                    let mut from_store = ByteWriter::new();
                    put_shard(&mut from_store, &store, base_height);
                    let mut from_map = ByteWriter::new();
                    put_shard_from_ordered_map(&mut from_map, counters, &oracle, base_height);
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
        /// was taken — chains, heights, `pruned_below` — at every sharding.
        #[test]
        fn every_checkpoint_of_a_random_history_loads_the_store_it_was_taken_from(
            ops in proptest::collection::vec((0u8..6, any::<u64>()), 1..40),
            case in any::<u32>(),
        ) {
            for shards in [0usize, 2, 4] {
                let dir = temp_dir(&format!("model{shards}-{case}"));
                let mut store = StoreBackend::for_shards(shards);
                store.seed_genesis((0..6).map(|i| (Key::new(format!("k{i}")), Value::from_i64(i))));
                // The model: height -> the live store when that height was last checkpointed.
                let mut taken: std::collections::BTreeMap<u64, StoreBackend> = Default::default();
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
                    prop_assert_eq!(&loaded, expected, "S={} height {}", shards, height);
                    let found = latest_checkpoint_at_most(&dir, *height, shards).unwrap();
                    prop_assert_eq!(found.as_ref(), Some(&(*height, expected.clone())));
                }
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }
}

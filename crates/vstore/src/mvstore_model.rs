//! Test-only oracle for [`MultiVersionStore`]: the ordered-map layout the store had before its
//! chains moved into a slab behind a hash index, kept verbatim so the model-based proptest
//! below can hold the new layout to the old one's every answer — point reads, counts, ordered
//! walks (order included) and equality — after every operation.

use crate::mvstore::{MultiVersionStore, VersionedValue};
use crate::sharded::ShardedStore;
use crate::state::StateStore;
use eov_common::error::{CommonError, Result};
use eov_common::rwset::{Key, Value};
use eov_common::version::SeqNo;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// `BTreeMap<Key, Vec<VersionedValue>>` plus the two heights: ordered walks are the map's own.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct ModelStore {
    data: BTreeMap<Key, Vec<VersionedValue>>,
    last_block: u64,
    pruned_below: u64,
}

impl ModelStore {
    fn put(&mut self, key: Key, version: SeqNo, value: Value) {
        self.data
            .entry(key)
            .or_default()
            .push(VersionedValue { version, value });
    }

    fn commit_empty_block(&mut self, block_no: u64) {
        self.last_block = self.last_block.max(block_no);
    }

    fn prune_versions_below(&mut self, block: u64) {
        let bound = SeqNo::new(block, u32::MAX);
        for chain in self.data.values_mut() {
            let idx = chain.partition_point(|v| v.version <= bound);
            if idx > 1 {
                chain.drain(..idx - 1);
            }
        }
        self.pruned_below = self.pruned_below.max(block);
    }

    fn latest(&self, key: &Key) -> Option<&VersionedValue> {
        self.data.get(key).and_then(|chain| chain.last())
    }

    fn read_at(&self, key: &Key, block: u64) -> Result<Option<&VersionedValue>> {
        if block < self.pruned_below {
            return Err(CommonError::SnapshotPruned(block));
        }
        let Some(chain) = self.data.get(key) else {
            return Ok(None);
        };
        let bound = SeqNo::new(block, u32::MAX);
        let idx = chain.partition_point(|v| v.version <= bound);
        Ok(if idx == 0 {
            None
        } else {
            Some(&chain[idx - 1])
        })
    }

    fn history(&self, key: &Key) -> &[VersionedValue] {
        self.data.get(key).map(|c| c.as_slice()).unwrap_or(&[])
    }

    fn version_count(&self) -> usize {
        self.data.values().map(Vec::len).sum()
    }
}

/// What the proptest needs of a store under test beyond the [`StateStore`] surface.
trait Subject: StateStore + Clone + PartialEq + std::fmt::Debug {
    /// An empty store of the same shape.
    fn empty_like(&self) -> Self;
    fn history_of(&self, key: &Key) -> &[VersionedValue];
    fn pruned(&self) -> u64;
    fn latest_walk(&self) -> Vec<(&Key, &VersionedValue)>;
    /// The `iter_history` walk — of every shard, each of which must come out in key order.
    fn history_walks(&self) -> Vec<Vec<(&Key, &[VersionedValue])>>;
}

impl Subject for MultiVersionStore {
    fn empty_like(&self) -> Self {
        MultiVersionStore::new()
    }
    fn history_of(&self, key: &Key) -> &[VersionedValue] {
        self.history(key)
    }
    fn pruned(&self) -> u64 {
        self.pruned_below()
    }
    fn latest_walk(&self) -> Vec<(&Key, &VersionedValue)> {
        self.iter_latest().collect()
    }
    fn history_walks(&self) -> Vec<Vec<(&Key, &[VersionedValue])>> {
        vec![self.iter_history().collect()]
    }
}

impl Subject for ShardedStore {
    fn empty_like(&self) -> Self {
        ShardedStore::new(*self.router())
    }
    fn history_of(&self, key: &Key) -> &[VersionedValue] {
        self.history(key)
    }
    fn pruned(&self) -> u64 {
        self.pruned_below()
    }
    fn latest_walk(&self) -> Vec<(&Key, &VersionedValue)> {
        self.iter_latest().collect()
    }
    fn history_walks(&self) -> Vec<Vec<(&Key, &[VersionedValue])>> {
        (0..self.shard_count())
            .map(|shard| self.shard(shard).iter_history().collect())
            .collect()
    }
}

/// Every observable answer of `store` against the oracle's.
fn assert_agrees<S: Subject>(store: &S, model: &ModelStore, probes: &[Key]) {
    assert_eq!(store.key_count(), model.data.len());
    assert_eq!(store.version_count(), model.version_count());
    assert_eq!(store.last_block(), model.last_block);
    assert_eq!(store.pruned(), model.pruned_below);
    let top = model.last_block + 1;
    for key in probes {
        assert_eq!(store.latest(key), model.latest(key), "latest({key})");
        assert_eq!(store.history_of(key), model.history(key), "history({key})");
        for block in [0, model.pruned_below.saturating_sub(1), top / 2, top] {
            assert_eq!(
                store.read_at(key, block),
                model.read_at(key, block),
                "read_at({key}, {block})"
            );
        }
    }
    // Ordered walks: the same pairs in the same order as the ordered map yields them.
    let latest: Vec<(&Key, &VersionedValue)> = model
        .data
        .iter()
        .map(|(key, chain)| (key, chain.last().expect("model chains are never empty")))
        .collect();
    assert_eq!(store.latest_walk(), latest);
    let walks = store.history_walks();
    for walk in &walks {
        assert!(walk.windows(2).all(|pair| pair[0].0 < pair[1].0));
    }
    let mut merged: Vec<(&Key, &[VersionedValue])> = walks.into_iter().flatten().collect();
    merged.sort_by(|a, b| a.0.cmp(b.0));
    let histories: Vec<(&Key, &[VersionedValue])> = model
        .data
        .iter()
        .map(|(key, chain)| (key, chain.as_slice()))
        .collect();
    assert_eq!(merged, histories);
}

/// Applies `ops` to `store` and to the oracle side by side, checking every answer after every
/// operation. `(op, key, arg)`: puts to a small key space (existing and fresh keys both come
/// up), puts of keys past 16 bytes, guaranteed-fresh puts, block commits, prunes and clones
/// (the run continues on the clone).
fn run_model<S: Subject>(mut store: S, ops: &[(u8, u8, u8)]) {
    let mut model = ModelStore::default();
    // A copy taken at the last clone op: equal to the live pair exactly until either mutates.
    let mut snapshot = (store.clone(), model.clone());
    let mut probes: Vec<Key> = vec![Key::new("never-written")];
    let mut seq = 0u32;
    for &(op, key, arg) in ops {
        let block = model.last_block + 1;
        let put_key = match op {
            0..=3 => Some(format!("k{}", key % 24)),
            4 => Some(format!("a/key/longer/than/one/hash/block/{}", key % 8)),
            5 => Some(format!("fresh{}", probes.len())),
            _ => None,
        };
        match (put_key, op) {
            (Some(key), _) => {
                let key = Key::new(key);
                seq += 1;
                let (version, value) = (SeqNo::new(block, seq), Value::from_i64(i64::from(arg)));
                store.put(key.clone(), version, value.clone());
                model.put(key.clone(), version, value);
                if !probes.contains(&key) {
                    probes.push(key);
                }
            }
            (None, 6 | 7) => {
                store.commit_empty_block(block);
                model.commit_empty_block(block);
                seq = 0;
            }
            (None, 8) => {
                let horizon = u64::from(arg) % block;
                store.prune_versions_below(horizon);
                model.prune_versions_below(horizon);
            }
            (None, _) => {
                store = store.clone();
                snapshot = (store.clone(), model.clone());
            }
        }
        assert_agrees(&store, &model, &probes);
        assert_eq!(store == snapshot.0, model == snapshot.1, "== after {op}");
    }
    // Content equality: the same chains written in key order into a new store (another
    // first-write order, another hash seed) compare equal, and stop doing so with one more.
    let mut rebuilt = store.empty_like();
    for (key, chain) in &model.data {
        for v in chain {
            rebuilt.put(key.clone(), v.version, v.value.clone());
        }
    }
    rebuilt.commit_empty_block(model.last_block);
    rebuilt.prune_versions_below(model.pruned_below);
    assert_eq!(rebuilt, store);
    rebuilt.put(
        Key::new("one-more"),
        SeqNo::new(u64::MAX, 1),
        Value::from_i64(0),
    );
    assert_ne!(rebuilt, store);
}

/// The same content reaches `==` whatever order its keys were first written in.
#[test]
fn equality_ignores_first_write_order() {
    let keys: Vec<Key> = (0..100).map(|i| Key::new(format!("k{i}"))).collect();
    let mut forward = MultiVersionStore::new();
    let mut backward = MultiVersionStore::new();
    for (i, key) in keys.iter().enumerate() {
        forward.put(
            key.clone(),
            SeqNo::new(0, i as u32),
            Value::from_i64(i as i64),
        );
    }
    for (i, key) in keys.iter().enumerate().rev() {
        backward.put(
            key.clone(),
            SeqNo::new(0, i as u32),
            Value::from_i64(i as i64),
        );
    }
    assert_eq!(forward, backward);
    assert_eq!(format!("{forward:?}"), format!("{backward:?}"));
    backward.put(keys[7].clone(), SeqNo::new(1, 1), Value::from_i64(0));
    assert_ne!(forward, backward);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The slab + hash-index store answers like the ordered map after every operation —
    /// unsharded with its real hash, unsharded with hashes forced to collide (two hash values
    /// for every key, then one), and behind the sharded store at S = 2 and 4.
    #[test]
    fn store_agrees_with_the_ordered_map_after_every_op(
        ops in proptest::collection::vec((0u8..10, any::<u8>(), any::<u8>()), 1..70),
    ) {
        run_model(MultiVersionStore::new(), &ops);
        run_model(MultiVersionStore::with_hash_mask(1), &ops);
        run_model(MultiVersionStore::with_hash_mask(0), &ops);
        run_model(ShardedStore::with_hash_shards(2), &ops);
        run_model(ShardedStore::with_hash_shards(4), &ops);
    }
}

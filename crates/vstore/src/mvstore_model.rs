//! Test-only oracle for [`MultiVersionStore`]: the ordered-map layout the store had before its
//! histories moved into a slab and a log behind a hash index, kept as it was but for the type of
//! a read's answer, so the model-based proptest below can hold the new layout to the old one's
//! every answer — point reads, counts, ordered walks (order included) and equality — after
//! every operation.

use crate::mvstore::{MultiVersionStore, VersionRef};
use eov_common::error::{CommonError, Result};
use eov_common::rwset::{Key, Value};
use eov_common::version::SeqNo;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One version, owned by the model.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ModelVersion {
    version: SeqNo,
    value: Value,
}

impl ModelVersion {
    fn as_ref(&self) -> VersionRef<'_> {
        VersionRef {
            version: self.version,
            value: &self.value,
        }
    }
}

/// `BTreeMap<Key, Vec<ModelVersion>>` plus the two heights: ordered walks are the map's own.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct ModelStore {
    data: BTreeMap<Key, Vec<ModelVersion>>,
    last_block: u64,
    pruned_below: u64,
}

impl ModelStore {
    fn put(&mut self, key: Key, version: SeqNo, value: Value) {
        self.data
            .entry(key)
            .or_default()
            .push(ModelVersion { version, value });
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

    fn latest(&self, key: &Key) -> Option<VersionRef<'_>> {
        self.data
            .get(key)
            .and_then(|chain| chain.last())
            .map(ModelVersion::as_ref)
    }

    fn read_at(&self, key: &Key, block: u64) -> Result<Option<VersionRef<'_>>> {
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
            Some(chain[idx - 1].as_ref())
        })
    }

    /// The history of `key`, newest first, as the store walks it.
    fn history(&self, key: &Key) -> Vec<VersionRef<'_>> {
        let chain = self.data.get(key).map_or(&[][..], Vec::as_slice);
        chain.iter().rev().map(ModelVersion::as_ref).collect()
    }

    fn version_count(&self) -> usize {
        self.data.values().map(Vec::len).sum()
    }
}

/// Every observable answer of `store` against the oracle's: snapshot reads at every height.
fn assert_agrees(store: &MultiVersionStore, model: &ModelStore, probes: &[Key]) {
    assert_eq!(store.key_count(), model.data.len());
    assert_eq!(store.version_count(), model.version_count());
    assert_eq!(store.last_block(), model.last_block);
    assert_eq!(store.pruned_below(), model.pruned_below);
    for key in probes {
        assert_eq!(store.latest(key), model.latest(key), "latest({key})");
        assert_eq!(
            store.history(key).collect::<Vec<_>>(),
            model.history(key),
            "history({key})"
        );
        for block in 0..=model.last_block + 1 {
            assert_eq!(
                store.read_at(key, block),
                model.read_at(key, block),
                "read_at({key}, {block})"
            );
        }
    }
    // The ordered walk: the same pairs in the same order as the ordered map yields them.
    let histories: Vec<(&Key, Vec<VersionRef<'_>>)> = model
        .data
        .keys()
        .map(|key| (key, model.history(key)))
        .collect();
    let walked: Vec<(&Key, Vec<VersionRef<'_>>)> = store
        .iter_history()
        .map(|(key, walk)| (key, walk.collect()))
        .collect();
    assert_eq!(walked, histories);
}

/// What loading a checkpoint of `store` builds: every history written oldest first, key by
/// key in key order, into a store of another layout (whose log positions wrap after nine
/// superseded versions), then pruned at the recorded horizon.
fn reloaded(store: &MultiVersionStore) -> MultiVersionStore {
    let mut loaded = MultiVersionStore::with_test_layout(u64::MAX, 3, u32::MAX - 9);
    for (key, walk) in store.iter_history() {
        let mut chain: Vec<VersionRef<'_>> = walk.collect();
        chain.reverse();
        for v in chain {
            loaded.put(key, v.version, v.value.clone());
        }
    }
    if store.pruned_below() > loaded.pruned_below() {
        loaded.prune_versions_below(store.pruned_below());
    }
    loaded.restore_heights(store.last_block(), store.pruned_below());
    loaded
}

/// Applies `ops` to `store` and to the oracle side by side, checking every answer after every
/// operation. `(op, key, arg)`: puts to a small key space (existing and fresh keys both come
/// up), puts of keys past 16 bytes, guaranteed-fresh puts, puts to one hot key (whose history
/// spans log pages), block commits, prunes and clones (the run continues on the clone).
fn run_model(mut store: MultiVersionStore, ops: &[(u8, u8, u8)]) {
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
            10 | 11 => Some("hot".to_owned()),
            _ => None,
        };
        match (put_key, op) {
            (Some(key), _) => {
                let key = Key::new(key);
                seq += 1;
                let (version, value) = (SeqNo::new(block, seq), Value::from_i64(i64::from(arg)));
                store.put(&key, version, value.clone());
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
        assert_eq!(reloaded(&store), store, "reloaded after {op}");
    }
    // Content equality: the same histories written in key order into a new store (another
    // first-write order, another hash seed) compare equal, and stop doing so with one more.
    let mut rebuilt = MultiVersionStore::new();
    for (key, chain) in &model.data {
        for v in chain {
            rebuilt.put(key, v.version, v.value.clone());
        }
    }
    rebuilt.commit_empty_block(model.last_block);
    rebuilt.prune_versions_below(model.pruned_below);
    assert_eq!(rebuilt, store);
    rebuilt.put(
        &Key::new("one-more"),
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
        forward.put(key, SeqNo::new(0, i as u32), Value::from_i64(i as i64));
    }
    for (i, key) in keys.iter().enumerate().rev() {
        backward.put(key, SeqNo::new(0, i as u32), Value::from_i64(i as i64));
    }
    assert_eq!(forward, backward);
    assert_eq!(format!("{forward:?}"), format!("{backward:?}"));
    backward.put(&keys[7], SeqNo::new(1, 1), Value::from_i64(0));
    assert_ne!(forward, backward);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The slab + log + hash-index store answers like the ordered map after every operation —
    /// with its real hash and pages, with one-, two- and four-version log pages, with hashes
    /// forced to collide (two hash values for every key, then one), and with log positions
    /// that wrap past 2³² three pages in, prunes freeing pages on both sides of the wrap.
    #[test]
    fn store_agrees_with_the_ordered_map_after_every_op(
        ops in proptest::collection::vec((0u8..12, any::<u8>(), any::<u8>()), 1..70),
    ) {
        run_model(MultiVersionStore::new(), &ops);
        run_model(MultiVersionStore::with_test_layout(u64::MAX, 0, 0), &ops);
        run_model(MultiVersionStore::with_test_layout(1, 1, u32::MAX - (3 << 1)), &ops);
        run_model(MultiVersionStore::with_test_layout(0, 2, u32::MAX - (3 << 2)), &ops);
    }
}

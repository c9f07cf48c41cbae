//! Dependency resolution for an incoming transaction (Section 4.3).
//!
//! Given the committed-transaction indices (CW / CR), the pending indices (PW / PR) and the
//! new transaction's read keys, write keys and start timestamp, the orderer computes:
//!
//! ```text
//! anti-rw(txn) = ⋃_{r ∈ R}  CW[r][startTS:]  ∪  PW[r]      (successors of txn)
//! rw(txn)      = ⋃_{w ∈ W}  CR[w]            ∪  PR[w]      (predecessors)
//! n-wr(txn)    = ⋃_{r ∈ R}  CW.Before(r, startTS)          (predecessors)
//! ww(txn)      = ⋃_{w ∈ W}  CW.Last(w)                     (predecessors)
//! ```
//!
//! Predecessors must be serialized before the new transaction, successors after it. The c-ww
//! dependencies *between pending transactions* are deliberately ignored here — Theorem 2 shows
//! they are the only edges reordering can flip, so they are restored later (Algorithm 5) once
//! the block's commit order has been fixed.

use eov_common::txn::{Transaction, TxnId};
use eov_depgraph::ShardDeps;
use eov_vstore::{CommittedReadIndex, CommittedWriteIndex, PendingIndex, ShardedIndices};
use std::collections::BTreeMap;

/// The dependencies of a newly arrived transaction, split into the two roles they play in the
/// cycle test of Algorithm 2.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResolvedDeps {
    /// Transactions that must be serialized *before* the new one (ww ∪ n-wr ∪ rw).
    pub predecessors: Vec<TxnId>,
    /// Transactions that must be serialized *after* the new one (anti-rw).
    pub successors: Vec<TxnId>,
}

impl ResolvedDeps {
    /// Whether the transaction has no dependencies at all (the common case under uniform
    /// workloads, which is what makes the arrival path cheap on average).
    pub fn is_empty(&self) -> bool {
        self.predecessors.is_empty() && self.successors.is_empty()
    }
}

/// Per-key view over the four dependency-resolution indices. Implemented by the flat
/// (unsharded) borrow bundle and by [`ShardedIndices`], so a single copy of the four-phase
/// resolution semantics ([`resolve_with`]) serves both public entry points.
trait KeyIndexView {
    fn cw(&self, key: &eov_common::rwset::Key) -> &CommittedWriteIndex;
    fn cr(&self, key: &eov_common::rwset::Key) -> &CommittedReadIndex;
    fn pw(&self, key: &eov_common::rwset::Key) -> &PendingIndex;
    fn pr(&self, key: &eov_common::rwset::Key) -> &PendingIndex;
}

/// The unsharded view: one index of each kind, whatever the key.
struct FlatView<'a> {
    cw: &'a CommittedWriteIndex,
    cr: &'a CommittedReadIndex,
    pw: &'a PendingIndex,
    pr: &'a PendingIndex,
}

impl KeyIndexView for FlatView<'_> {
    fn cw(&self, _: &eov_common::rwset::Key) -> &CommittedWriteIndex {
        self.cw
    }
    fn cr(&self, _: &eov_common::rwset::Key) -> &CommittedReadIndex {
        self.cr
    }
    fn pw(&self, _: &eov_common::rwset::Key) -> &PendingIndex {
        self.pw
    }
    fn pr(&self, _: &eov_common::rwset::Key) -> &PendingIndex {
        self.pr
    }
}

impl KeyIndexView for ShardedIndices {
    fn cw(&self, key: &eov_common::rwset::Key) -> &CommittedWriteIndex {
        ShardedIndices::cw(self, key)
    }
    fn cr(&self, key: &eov_common::rwset::Key) -> &CommittedReadIndex {
        ShardedIndices::cr(self, key)
    }
    fn pw(&self, key: &eov_common::rwset::Key) -> &PendingIndex {
        ShardedIndices::pw(self, key)
    }
    fn pr(&self, key: &eov_common::rwset::Key) -> &PendingIndex {
        ShardedIndices::pr(self, key)
    }
}

/// Computes the dependencies of `txn` against the committed and pending indices.
///
/// The transaction's own id never appears in the result (a transaction cannot depend on
/// itself), and each side is deduplicated while preserving first-seen order so the downstream
/// graph insertion is deterministic across replicated orderers.
pub fn resolve_dependencies(
    txn: &Transaction,
    cw: &CommittedWriteIndex,
    cr: &CommittedReadIndex,
    pw: &PendingIndex,
    pr: &PendingIndex,
) -> ResolvedDeps {
    resolve_with(txn, &FlatView { cw, cr, pw, pr }, None)
}

/// A transaction's dependencies resolved against the sharded CW/CR/PW/PR indices: the flat
/// global lists (identical, entry for entry, to what [`resolve_dependencies`] computes against
/// unsharded indices — per-key answers don't change when the per-key maps are partitioned)
/// plus, when more than one index shard exists, the same dependencies split by owning shard
/// for the sharded dependency graph's per-shard edge wiring.
#[derive(Clone, Debug, Default)]
pub struct ShardedResolution {
    /// The flat dependency lists (the cycle test's input).
    pub global: ResolvedDeps,
    /// Per-shard slices: touched shards in ascending order, each with the dependencies its
    /// keys induced. Empty when the indices have a single shard (the unsharded reference
    /// path needs no split).
    pub per_shard: Vec<ShardDeps>,
}

/// Computes the dependencies of `txn` against sharded indices, preserving exactly the
/// resolution order of [`resolve_dependencies`] (both run the same [`resolve_with`] core):
/// anti-rw over read keys, rw over write keys, n-wr over read keys, ww over write keys — so
/// the global lists (and therefore the verdict and the pair the cycle test reports first) are
/// bit-identical to the unsharded reference.
pub fn resolve_sharded(txn: &Transaction, indices: &ShardedIndices) -> ShardedResolution {
    if indices.shard_count() <= 1 {
        // The unsharded reference path needs no per-shard split.
        return ShardedResolution {
            global: resolve_with(txn, indices, None),
            per_shard: Vec::new(),
        };
    }
    let mut collector = ShardCollector {
        router: *indices.router(),
        own: txn.id,
        acc: BTreeMap::new(),
    };
    let global = resolve_with(txn, indices, Some(&mut collector));
    let per_shard: Vec<ShardDeps> = if collector.acc.is_empty() {
        // A keyless transaction still needs a home for its graph node.
        vec![ShardDeps {
            shard: 0,
            ..ShardDeps::default()
        }]
    } else {
        collector
            .acc
            .into_iter()
            .map(|(shard, a)| ShardDeps {
                shard,
                predecessors: a.preds,
                successors: a.succs,
            })
            .collect()
    };
    ShardedResolution { global, per_shard }
}

/// Per-shard accumulator used by [`resolve_sharded`] (only materialised for multi-shard
/// indices).
#[derive(Default)]
struct ShardAcc {
    preds: Vec<TxnId>,
    succs: Vec<TxnId>,
}

/// Splits the dependencies [`resolve_with`] discovers by the shard of the inducing key.
struct ShardCollector {
    router: eov_common::shard::ShardRouter,
    own: TxnId,
    acc: BTreeMap<usize, ShardAcc>,
}

impl ShardCollector {
    /// The shard of `key` — hashed once per key per resolution loop; the `note_*` calls below
    /// take the precomputed shard so a contended key is not re-hashed per dependency.
    fn shard_of(&self, key: &eov_common::rwset::Key) -> usize {
        self.router.shard_of(key)
    }

    /// Owning a key makes `shard` a home of the transaction, dependencies or not.
    fn note_home(&mut self, shard: usize) {
        self.acc.entry(shard).or_default();
    }

    fn note_pred(&mut self, shard: usize, id: TxnId) {
        Self::push_dedup(self.own, &mut self.acc.entry(shard).or_default().preds, id);
    }

    fn note_succ(&mut self, shard: usize, id: TxnId) {
        Self::push_dedup(self.own, &mut self.acc.entry(shard).or_default().succs, id);
    }

    fn push_dedup(own: TxnId, list: &mut Vec<TxnId>, id: TxnId) {
        if id != own && !list.contains(&id) {
            list.push(id);
        }
    }
}

/// The single copy of Section 4.3's four-phase resolution, shared by the flat and the sharded
/// entry points. `collector`, when present, additionally attributes every discovered
/// dependency to the shard of the inducing key and notes every shard owning a key.
fn resolve_with<V: KeyIndexView>(
    txn: &Transaction,
    view: &V,
    mut collector: Option<&mut ShardCollector>,
) -> ResolvedDeps {
    let start_ts = txn.start_ts();
    let mut successors = Dedup::new(txn.id);
    let mut predecessors = Dedup::new(txn.id);

    // anti-rw: committed or pending writers that overwrite something we read at or after our
    // snapshot — we must come before them in any serializable order.
    for read in txn.read_set.iter() {
        let shard = collector.as_deref_mut().map(|c| {
            let shard = c.shard_of(&read.key);
            c.note_home(shard);
            shard
        });
        for &(_, w) in view.cw(&read.key).entries_from(&read.key, start_ts) {
            successors.push(w);
            if let (Some(c), Some(shard)) = (collector.as_deref_mut(), shard) {
                c.note_succ(shard, w);
            }
        }
        for &w in view.pw(&read.key).get(&read.key) {
            successors.push(w);
            if let (Some(c), Some(shard)) = (collector.as_deref_mut(), shard) {
                c.note_succ(shard, w);
            }
        }
    }

    // rw: committed or pending readers of keys we overwrite — they read the previous value, so
    // they come before us.
    for write in txn.write_set.iter() {
        let shard = collector.as_deref_mut().map(|c| {
            let shard = c.shard_of(&write.key);
            c.note_home(shard);
            shard
        });
        for &(_, r) in view.cr(&write.key).entries(&write.key) {
            predecessors.push(r);
            if let (Some(c), Some(shard)) = (collector.as_deref_mut(), shard) {
                c.note_pred(shard, r);
            }
        }
        for &r in view.pr(&write.key).get(&write.key) {
            predecessors.push(r);
            if let (Some(c), Some(shard)) = (collector.as_deref_mut(), shard) {
                c.note_pred(shard, r);
            }
        }
    }

    // n-wr: the committed writer that installed each version we read.
    for read in txn.read_set.iter() {
        if let Some(w) = view.cw(&read.key).before(&read.key, start_ts) {
            predecessors.push(w);
            if let Some(c) = collector.as_deref_mut() {
                let shard = c.shard_of(&read.key);
                c.note_pred(shard, w);
            }
        }
    }

    // ww: the last committed writer of each key we overwrite.
    for write in txn.write_set.iter() {
        if let Some(w) = view.cw(&write.key).last(&write.key) {
            predecessors.push(w);
            if let Some(c) = collector.as_deref_mut() {
                let shard = c.shard_of(&write.key);
                c.note_pred(shard, w);
            }
        }
    }

    ResolvedDeps {
        predecessors: predecessors.into_vec(),
        successors: successors.into_vec(),
    }
}

/// Order-preserving deduplicating collector that also filters out the transaction itself.
struct Dedup {
    own: TxnId,
    seen: Vec<TxnId>,
}

impl Dedup {
    fn new(own: TxnId) -> Self {
        Dedup {
            own,
            seen: Vec::new(),
        }
    }

    fn push(&mut self, id: TxnId) {
        if id != self.own && !self.seen.contains(&id) {
            self.seen.push(id);
        }
    }

    fn into_vec(self) -> Vec<TxnId> {
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::rwset::{Key, Value};
    use eov_common::version::SeqNo;

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    /// A transaction reading A (observed at version (1,1)) and writing B, simulated against
    /// block 2 (start timestamp (3,0)).
    fn sample_txn() -> Transaction {
        Transaction::from_parts(
            100,
            2,
            [(k("A"), SeqNo::new(1, 1))],
            [(k("B"), Value::from_i64(7))],
        )
    }

    #[test]
    fn empty_indices_give_no_dependencies() {
        let deps = resolve_dependencies(
            &sample_txn(),
            &CommittedWriteIndex::new(),
            &CommittedReadIndex::new(),
            &PendingIndex::new(),
            &PendingIndex::new(),
        );
        assert!(deps.is_empty());
    }

    #[test]
    fn anti_rw_picks_up_committed_and_pending_writers_of_read_keys() {
        let mut cw = CommittedWriteIndex::new();
        // A committed writer of A *after* our snapshot (3,0) → anti-rw successor.
        cw.record(k("A"), SeqNo::new(3, 1), TxnId(1));
        // A committed writer of A *before* our snapshot → n-wr predecessor, not anti-rw.
        cw.record(k("A"), SeqNo::new(1, 1), TxnId(2));
        let mut pw = PendingIndex::new();
        pw.record(k("A"), TxnId(3));

        let deps = resolve_dependencies(
            &sample_txn(),
            &cw,
            &CommittedReadIndex::new(),
            &pw,
            &PendingIndex::new(),
        );
        assert_eq!(deps.successors, vec![TxnId(1), TxnId(3)]);
        assert_eq!(deps.predecessors, vec![TxnId(2)]);
    }

    #[test]
    fn rw_and_ww_pick_up_accessors_of_written_keys() {
        let mut cr = CommittedReadIndex::new();
        cr.record(k("B"), SeqNo::new(2, 1), TxnId(4)); // committed reader of B
        let mut pr = PendingIndex::new();
        pr.record(k("B"), TxnId(5)); // pending reader of B
        let mut cw = CommittedWriteIndex::new();
        cw.record(k("B"), SeqNo::new(2, 2), TxnId(6)); // last committed writer of B

        let deps = resolve_dependencies(&sample_txn(), &cw, &cr, &PendingIndex::new(), &pr);
        assert_eq!(deps.predecessors, vec![TxnId(4), TxnId(5), TxnId(6)]);
        assert!(deps.successors.is_empty());
    }

    #[test]
    fn own_id_and_duplicates_are_filtered() {
        let mut pw = PendingIndex::new();
        pw.record(k("A"), TxnId(100)); // the transaction itself
        pw.record(k("A"), TxnId(7));
        let mut pr = PendingIndex::new();
        pr.record(k("B"), TxnId(7)); // same id also a predecessor via a different key
        pr.record(k("B"), TxnId(100));

        let deps = resolve_dependencies(
            &sample_txn(),
            &CommittedWriteIndex::new(),
            &CommittedReadIndex::new(),
            &pw,
            &pr,
        );
        assert_eq!(deps.successors, vec![TxnId(7)]);
        assert_eq!(deps.predecessors, vec![TxnId(7)]);
    }

    /// The sharded resolver must produce the *same* flat lists — entry for entry, in order —
    /// as the unsharded reference when both see the same per-key records, and its per-shard
    /// slices must partition them by key shard. This is the arrival-path half of the
    /// ledger-identity argument.
    #[test]
    fn sharded_resolution_matches_the_flat_reference() {
        use eov_common::shard::ShardRouter;

        let mut cw = CommittedWriteIndex::new();
        let mut cr = CommittedReadIndex::new();
        let mut pw = PendingIndex::new();
        let mut pr = PendingIndex::new();
        let mut sharded = ShardedIndices::new(ShardRouter::hash(3));

        // Records over a wider key population than the sample txn touches, so shard routing
        // actually scatters the lookups.
        for i in 0..12u64 {
            let key = k(&format!("key:{}", i % 4));
            let seq = SeqNo::new(i / 4 + 1, (i % 4) as u32 + 1);
            cw.record(key.clone(), seq, TxnId(i));
            sharded.record_cw(key.clone(), seq, TxnId(i));
            cr.record(key.clone(), seq, TxnId(100 + i));
            sharded.record_cr(key, seq, TxnId(100 + i));
        }
        for i in 0..4u64 {
            let key = k(&format!("key:{i}"));
            pw.record(key.clone(), TxnId(200 + i));
            sharded.record_pw(key.clone(), TxnId(200 + i));
            pr.record(key.clone(), TxnId(300 + i));
            sharded.record_pr(key, TxnId(300 + i));
        }

        let txn = Transaction::from_parts(
            999,
            1,
            (0..3).map(|i| (k(&format!("key:{i}")), SeqNo::new(1, i + 1))),
            (1..4).map(|i| (k(&format!("key:{i}")), Value::from_i64(i as i64))),
        );

        let flat = resolve_dependencies(&txn, &cw, &cr, &pw, &pr);
        let resolved = resolve_sharded(&txn, &sharded);
        assert_eq!(resolved.global, flat, "flat lists must be identical");
        assert!(!resolved.per_shard.is_empty());

        // The per-shard slices partition the global sets (no dependency lost, none invented)
        // and name exactly the shards the transaction's keys route to.
        let router = *sharded.router();
        let homes: std::collections::BTreeSet<usize> = txn
            .read_set
            .keys()
            .chain(txn.write_set.keys())
            .map(|key| router.shard_of(key))
            .collect();
        assert!(resolved
            .per_shard
            .iter()
            .map(|d| d.shard)
            .eq(homes.iter().copied()));
        let mut preds_union: Vec<TxnId> = Vec::new();
        let mut succs_union: Vec<TxnId> = Vec::new();
        for d in &resolved.per_shard {
            for p in &d.predecessors {
                if !preds_union.contains(p) {
                    preds_union.push(*p);
                }
            }
            for s in &d.successors {
                if !succs_union.contains(s) {
                    succs_union.push(*s);
                }
            }
        }
        let sort = |mut v: Vec<TxnId>| {
            v.sort();
            v
        };
        assert_eq!(sort(preds_union), sort(flat.predecessors.clone()));
        assert_eq!(sort(succs_union), sort(flat.successors.clone()));

        // Single-shard indices skip the per-shard split entirely.
        let mut single = ShardedIndices::new(ShardRouter::unsharded());
        for i in 0..4u64 {
            single.record_pw(k(&format!("key:{i}")), TxnId(200 + i));
        }
        let single_resolved = resolve_sharded(&txn, &single);
        assert!(single_resolved.per_shard.is_empty());
    }

    #[test]
    fn blind_writes_have_no_successors() {
        // A transaction with no reads can never be on the reading end of an anti-rw.
        let txn = Transaction::from_parts(1, 0, [], [(k("X"), Value::from_i64(1))]);
        let mut cw = CommittedWriteIndex::new();
        cw.record(k("X"), SeqNo::new(1, 1), TxnId(9));
        let deps = resolve_dependencies(
            &txn,
            &cw,
            &CommittedReadIndex::new(),
            &PendingIndex::new(),
            &PendingIndex::new(),
        );
        assert!(deps.successors.is_empty());
        assert_eq!(deps.predecessors, vec![TxnId(9)]);
    }
}

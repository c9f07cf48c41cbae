//! The key table: the four keyed indices of Section 4.3 — committed writes (CW), committed
//! reads (CR), pending writes (PW) and pending reads (PR) — as one key-major table.
//!
//! The paper keeps CW and CR in LevelDB, the record key before the commit sequence, so every
//! query is a seek to the key's prefix and a short scan in commit order; PW and PR are
//! in-memory maps. Here one hash index maps each record key to a *record id* — the state
//! store's [`IdIndex`], over `Key::as_bytes` hashed with a [`FoldState`] — and a slab holds one
//! [`Record`] per key with all four of its runs:
//!
//! * CW: `(commit seq, writer)` in commit order — `CW.Before(key, seq)`, `CW.Last(key)` and
//!   `CW[key][seq:]` are a partition point and a slice of it;
//! * CR: `(commit seq, reader)` of the readers of the key's latest value, in commit order;
//! * PW / PR: the pending writers / readers of the key, in arrival order.
//!
//! The hash probe plays the prefix seek and the run the prefix's ordered scan, so every answer
//! comes back in the order the ordered store gives it. Nothing in Section 4.3 scans *across*
//! record keys, so no cross-key order is kept; the one place that needs one (Algorithm 5's
//! per-key ww chains) sorts the few keys it names.
//!
//! Each key is hashed once per transaction. An arrival looks its keys up ([`KeyTable::find`])
//! into a [`Found`] list the caller owns; resolution reads the records found, and a rejected
//! arrival inserts nothing. An accepted one hands the list to [`KeyTable::admit`], which
//! interns the missing keys and records the transaction in PW/PR through the ids, and the
//! orderer keeps those ids beside the pending transaction: block formation records CW/CR,
//! drops stale readers, builds the ww chains and clears PW/PR by id.
//!
//! Pruning (Section 4.6) asks the one cross-key question "which keys hold entries of blocks
//! below the horizon?". A ring of per-block id logs answers it: a record is logged under each
//! block it gets a CW/CR entry in, and pruning walks the logs of the blocks that age out.
//!
//! A record's runs keep their buffers from block to block while the key is in use (PW and PR
//! are emptied at every cut, not freed). A record whose four runs are all empty is freed: it
//! leaves the hash index, gives its buffers back, and its id goes on a free list for the next
//! new key. A log may therefore still name an id that now belongs to another key; that is
//! harmless, because "drop the entries below the horizon" is right for any key.

use eov_common::hash::FoldState;
use eov_common::id_index::IdIndex;
use eov_common::rwset::Key;
use eov_common::txn::{Transaction, TxnId};
use eov_common::version::SeqNo;
use std::collections::VecDeque;

/// Index of a record in the table's slab.
pub(crate) type RecordId = u32;

/// One record key's entries in the four indices.
#[derive(Clone, Debug)]
pub(crate) struct Record {
    key: Key,
    /// The key's hash, kept so the record leaves the index without rehashing.
    hash: u64,
    /// CW: the committed writers of the key, in commit order.
    pub(crate) cw: Vec<(SeqNo, TxnId)>,
    /// CR: the committed readers of the key's latest value, in commit order.
    pub(crate) cr: Vec<(SeqNo, TxnId)>,
    /// PW: the pending writers of the key, in arrival order.
    pub(crate) pw: Vec<TxnId>,
    /// PR: the pending readers of the key, in arrival order.
    pub(crate) pr: Vec<TxnId>,
    /// The block whose id log last took this record ([`NOT_LOGGED`] if that log is gone).
    logged: u64,
    /// Whether the record is in the hash index, rather than on the free list.
    live: bool,
}

impl Record {
    fn is_empty(&self) -> bool {
        self.cw.is_empty() && self.cr.is_empty() && self.pw.is_empty() && self.pr.is_empty()
    }
}

/// No block: the record is in no id log that pruning has not yet walked.
const NOT_LOGGED: u64 = u64::MAX;

/// The CW/CR/PW/PR indices of Section 4.3 over one hash index and one slab of records.
#[derive(Debug, Default)]
pub(crate) struct KeyTable {
    records: Vec<Record>,
    /// Ids of the records not in the index, reused before the slab grows.
    free: Vec<RecordId>,
    /// The hash index over the live records.
    index: IdIndex,
    hasher: FoldState,
    /// The ids of the records that got a CW/CR entry in each block, in ascending block order.
    /// A log may name an id twice, or an id freed (and reused) since.
    logs: VecDeque<(u64, Vec<RecordId>)>,
}

/// What [`KeyTable::find`] found for each key of one transaction, reads first: the key's hash
/// and its record id, if it has one. The caller keeps it from the lookup to
/// [`KeyTable::admit`] or [`KeyTable::intern_found`] of the same transaction, and reuses it
/// for the next one.
#[derive(Debug, Default)]
pub(crate) struct Found(Vec<(u64, Option<RecordId>)>);

/// Drops the entries of `run` committed below `block` — a few at its front, if any.
fn drop_below(run: &mut Vec<(SeqNo, TxnId)>, block: u64) {
    let aged = run.iter().take_while(|(s, _)| s.block < block).count();
    if aged > 0 {
        run.drain(..aged);
    }
}

impl KeyTable {
    /// The record `id` names.
    fn record(&self, id: RecordId) -> &Record {
        &self.records[id as usize]
    }

    /// Probes the index for the key whose bytes are `key`: its record id, or the vacant slot a
    /// new record for it belongs in.
    fn probe(&self, key: &[u8], hash: u64) -> Result<RecordId, usize> {
        self.index
            .find(hash, |id| self.record(id).key.as_bytes() == key)
    }

    /// Looks each key of `txn` up once, reads first, into `found`.
    pub(crate) fn find(&self, txn: &Transaction, found: &mut Found) {
        found.0.clear();
        for key in txn.read_set.keys().chain(txn.write_set.keys()) {
            let hash = self.hasher.hash_bytes(key.as_bytes());
            found.0.push((hash, self.probe(key.as_bytes(), hash).ok()));
        }
    }

    /// The record of the `i`-th key `found` lists, if that key has one.
    pub(crate) fn found_record(&self, found: &Found, i: usize) -> Option<&Record> {
        found.0[i].1.map(|id| self.record(id))
    }

    /// Appends the record id of every key of `txn`, reads first, to `ids`, inserting a record
    /// for each key `found` (a [`KeyTable::find`] of `txn`) lists without one.
    pub(crate) fn intern_found(
        &mut self,
        txn: &Transaction,
        found: &Found,
        ids: &mut Vec<RecordId>,
    ) {
        debug_assert_eq!(found.0.len(), txn.read_set.len() + txn.write_set.len());
        for (key, &(hash, id)) in txn
            .read_set
            .keys()
            .chain(txn.write_set.keys())
            .zip(&found.0)
        {
            // Probe again for a key found missing: an earlier key of `txn` (a key both read and
            // written) may have inserted it since.
            ids.push(id.unwrap_or_else(|| self.intern(key, hash)));
        }
    }

    /// [`KeyTable::intern_found`], and records `txn` as a pending reader (PR) of its read keys
    /// and a pending writer (PW) of its write keys.
    pub(crate) fn admit(&mut self, txn: &Transaction, found: &Found, ids: &mut Vec<RecordId>) {
        let from = ids.len();
        self.intern_found(txn, found, ids);
        let (reads, writes) = ids[from..].split_at(txn.read_set.len());
        for &id in reads {
            self.records[id as usize].pr.push(txn.id);
        }
        for &id in writes {
            self.records[id as usize].pw.push(txn.id);
        }
    }

    /// The record id of `key`, inserting an empty record if it has none.
    fn intern(&mut self, key: &Key, hash: u64) -> RecordId {
        let vacant = match self.probe(key.as_bytes(), hash) {
            Ok(id) => return id,
            Err(vacant) => vacant,
        };
        let id = match self.free.pop() {
            Some(id) => {
                let record = &mut self.records[id as usize];
                record.key = key.clone();
                record.hash = hash;
                record.logged = NOT_LOGGED;
                record.live = true;
                id
            }
            None => {
                let id = RecordId::try_from(self.records.len()).expect("record ids fit in 32 bits");
                self.records.push(Record {
                    key: key.clone(),
                    hash,
                    cw: Vec::new(),
                    cr: Vec::new(),
                    pw: Vec::new(),
                    pr: Vec::new(),
                    logged: NOT_LOGGED,
                    live: true,
                });
                id
            }
        };
        self.index.insert(vacant, hash, id);
        id
    }

    /// Frees record `id` if it is live and its four runs are empty: it leaves the index, its
    /// runs give their buffers back and its id goes on the free list.
    fn release(&mut self, id: RecordId) {
        let record = &mut self.records[id as usize];
        if !record.live || !record.is_empty() {
            return;
        }
        record.live = false;
        // Only records in use hold heap: a freed one gives its runs' buffers back.
        (record.cw, record.cr, record.pw, record.pr) = Default::default();
        self.index.remove(record.hash, id);
        self.free.push(id);
    }

    /// Adds `id` to the id log of `block`, unless it is the last log that took it.
    fn log(&mut self, id: RecordId, block: u64) {
        let record = &mut self.records[id as usize];
        if record.logged == block {
            return;
        }
        record.logged = block;
        // Formation and replay commit blocks in ascending order, so this is almost always the
        // last log or a new one after it.
        let at = self.logs.partition_point(|(b, _)| *b < block);
        match self.logs.get_mut(at) {
            Some((b, ids)) if *b == block => ids.push(id),
            _ => self.logs.insert(at, (block, vec![id])),
        }
    }

    /// Records `(seq, txn)` in CW (`write`) or CR of record `id`. Appends in the common case
    /// (commit sequences arrive in increasing order); an out-of-order `seq` is inserted at its
    /// sorted position and a repeated `seq` replaces the earlier transaction (last wins).
    pub(crate) fn record_committed(&mut self, id: RecordId, write: bool, seq: SeqNo, txn: TxnId) {
        let record = &mut self.records[id as usize];
        let run = if write {
            &mut record.cw
        } else {
            &mut record.cr
        };
        let at = match run.last() {
            Some(&(last, _)) if last >= seq => run.partition_point(|&(s, _)| s < seq),
            _ => run.len(),
        };
        match run.get_mut(at) {
            Some(existing) if existing.0 == seq => existing.1 = txn,
            _ => run.insert(at, (seq, txn)),
        }
        self.log(id, seq.block);
    }

    /// Drops the CR entries of record `id` at or before `overwritten_at`: the readers of values
    /// a write committed at `overwritten_at` replaced no longer read the latest version.
    fn drop_stale_readers(&mut self, id: RecordId, overwritten_at: SeqNo) {
        let cr = &mut self.records[id as usize].cr;
        cr.drain(..cr.partition_point(|&(s, _)| s <= overwritten_at));
    }

    /// Records `txn`, committed at `slot`, in CR for each key it read and in CW for each key it
    /// wrote, dropping the readers each write makes stale. `ids` are its keys' record ids,
    /// reads first.
    pub(crate) fn record_commit(&mut self, txn: &Transaction, slot: SeqNo, ids: &[RecordId]) {
        let (reads, writes) = ids.split_at(txn.read_set.len());
        for &id in reads {
            self.record_committed(id, false, slot, txn.id);
        }
        for &id in writes {
            self.record_committed(id, true, slot, txn.id);
            self.drop_stale_readers(id, slot);
        }
    }

    /// Empties PW and PR of every record in `ids` (block formation empties the pending set),
    /// freeing each record left with no entries.
    pub(crate) fn clear_pending(&mut self, ids: &[RecordId]) {
        for &id in ids {
            let record = &mut self.records[id as usize];
            record.pw.clear();
            record.pr.clear();
            self.release(id);
        }
    }

    /// Drops every CW and CR entry whose commit block is strictly below `block` (Section 4.6
    /// pruning), walking only the id logs of the blocks that age out, and frees each record
    /// left with no entries.
    pub(crate) fn prune_below(&mut self, block: u64) {
        while self.logs.front().is_some_and(|(b, _)| *b < block) {
            let (logged, ids) = self.logs.pop_front().expect("front checked");
            for id in ids {
                let record = &mut self.records[id as usize];
                if !record.live {
                    continue;
                }
                if record.logged == logged {
                    record.logged = NOT_LOGGED;
                }
                drop_below(&mut record.cw, block);
                drop_below(&mut record.cr, block);
                self.release(id);
            }
        }
    }

    /// Algorithm 5's input, in key order: the PW run of every key with two or more pending
    /// writers. `writes` lists each pending writer with the record id of a key it writes; a
    /// key's run is taken once, from its first writer.
    pub(crate) fn ww_chains(
        &self,
        writes: impl Iterator<Item = (TxnId, RecordId)>,
    ) -> Vec<&[TxnId]> {
        let mut chains: Vec<&Record> = writes
            .map(|(txn, id)| (txn, self.record(id)))
            .filter(|(txn, record)| record.pw.len() >= 2 && record.pw[0] == *txn)
            .map(|(_, record)| record)
            .collect();
        chains.sort_unstable_by(|a, b| a.key.cmp(&b.key));
        chains
            .into_iter()
            .map(|record| record.pw.as_slice())
            .collect()
    }
}

#[cfg(test)]
impl KeyTable {
    /// The record of `key`, looked up by name, if it has one.
    pub(crate) fn record_of(&self, key: &Key) -> Option<&Record> {
        let hash = self.hasher.hash_bytes(key.as_bytes());
        self.probe(key.as_bytes(), hash)
            .ok()
            .map(|id| self.record(id))
    }

    /// The record id of `key`, inserting an empty record if it has none.
    pub(crate) fn id_of(&mut self, key: &Key) -> RecordId {
        let hash = self.hasher.hash_bytes(key.as_bytes());
        self.intern(key, hash)
    }

    /// Records `txn` as a pending writer (PW) or reader (PR) of `key`.
    pub(crate) fn add_pending(&mut self, key: &Key, write: bool, txn: TxnId) {
        let id = self.id_of(key);
        let record = &mut self.records[id as usize];
        if write {
            &mut record.pw
        } else {
            &mut record.pr
        }
        .push(txn);
    }

    /// Number of records in the index.
    pub(crate) fn live_records(&self) -> usize {
        self.records.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependency::resolve;
    use eov_common::rwset::Value;

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    fn committed(keys: &mut KeyTable, key: &str, write: bool, seq: (u64, u32), txn: u64) {
        let id = keys.id_of(&k(key));
        keys.record_committed(id, write, SeqNo::new(seq.0, seq.1), TxnId(txn));
    }

    fn run(keys: &KeyTable, key: &str, write: bool) -> Vec<TxnId> {
        keys.record_of(&k(key)).map_or(Vec::new(), |record| {
            let run = if write { &record.cw } else { &record.cr };
            run.iter().map(|&(_, txn)| txn).collect()
        })
    }

    fn txn(id: u64, snapshot: u64, reads: &[&str], writes: &[&str]) -> Transaction {
        Transaction::from_parts(
            id,
            snapshot,
            reads.iter().map(|key| (k(key), SeqNo::new(snapshot, 1))),
            writes.iter().map(|key| (k(key), Value::from_i64(1))),
        )
    }

    #[test]
    fn cw_point_queries_match_paper_examples() {
        // Paper example: Txn1 with commit sequence (3,2) writes key A → entry {A_3_2: Txn1}.
        let mut keys = KeyTable::default();
        committed(&mut keys, "A", true, (3, 2), 1);
        committed(&mut keys, "A", true, (5, 1), 9);
        committed(&mut keys, "B", true, (4, 1), 3);

        // Snapshot 4 (start (5,0)): CW.Before(A, (5,0)) = Txn1 is the n-wr predecessor,
        // CW[A][(5,0):] = Txn9 the anti-rw successor, CW.Last(B) = Txn3 the ww predecessor.
        let deps = resolve(&txn(100, 4, &["A"], &["B"]), &keys, &mut Found::default());
        assert_eq!(deps.predecessors, [TxnId(1), TxnId(3)]);
        assert_eq!(deps.successors, [TxnId(9)]);
        // Before(key, seq) is strict: a write at exactly `seq` is not "before" it.
        let deps = resolve(&txn(100, 2, &["A", "C"], &[]), &keys, &mut Found::default());
        assert!(deps.predecessors.is_empty());
        assert_eq!(deps.successors, [TxnId(1), TxnId(9)]);
        let deps = resolve(&txn(100, 9, &["A"], &[]), &keys, &mut Found::default());
        assert_eq!(deps.predecessors, [TxnId(9)]);
    }

    #[test]
    fn cw_range_from_returns_commit_ordered_writers() {
        let mut keys = KeyTable::default();
        // Recorded out of commit order: the run is still sorted.
        for (block, txn) in [(2u64, 1u64), (4, 3), (3, 2), (6, 4)] {
            committed(&mut keys, "A", true, (block, 1), txn);
        }
        // CW[A][(4,0):] — writers from block 4 onward.
        let deps = resolve(&txn(100, 3, &["A"], &[]), &keys, &mut Found::default());
        assert_eq!(deps.successors, [TxnId(3), TxnId(4)]);
        // Keys never bleed into each other; a repeated seq replaces its writer.
        committed(&mut keys, "AB", true, (1, 1), 99);
        committed(&mut keys, "A", true, (6, 1), 5);
        assert_eq!(run(&keys, "A", true), [1, 2, 3, 5].map(TxnId));
        assert_eq!(run(&keys, "AB", true), [TxnId(99)]);
    }

    #[test]
    fn cw_pruning_removes_old_blocks_only() {
        let mut keys = KeyTable::default();
        committed(&mut keys, "A", true, (1, 1), 1);
        committed(&mut keys, "A", true, (5, 1), 2);
        keys.prune_below(3);
        assert_eq!(run(&keys, "A", true), [TxnId(2)]);
        keys.prune_below(6);
        assert!(
            keys.record_of(&k("A")).is_none(),
            "an empty record is freed"
        );
    }

    #[test]
    fn cr_readers_and_stale_dropping() {
        // Paper example: {A_4_1: Txn7} — Txn7 is the first transaction of block 4 reading the
        // latest value of A.
        let mut keys = KeyTable::default();
        committed(&mut keys, "A", false, (4, 1), 7);
        committed(&mut keys, "A", false, (4, 3), 8);
        committed(&mut keys, "B", false, (4, 2), 9);
        assert_eq!(run(&keys, "A", false), [TxnId(7), TxnId(8)]);

        // A new write to A committed at (5,1): readers of the previous value are dropped.
        let a = keys.id_of(&k("A"));
        keys.drop_stale_readers(a, SeqNo::new(5, 1));
        assert!(run(&keys, "A", false).is_empty());
        assert_eq!(run(&keys, "B", false), [TxnId(9)]);
    }

    #[test]
    fn cr_pruning() {
        let mut keys = KeyTable::default();
        committed(&mut keys, "A", false, (1, 1), 1);
        committed(&mut keys, "A", false, (9, 1), 2);
        keys.prune_below(5);
        assert_eq!(run(&keys, "A", false), [TxnId(2)]);
    }

    /// The id logs accumulate stale references when a key's entries are dropped and recorded
    /// again inside one block, and when a freed id is reused for another key; pruning must
    /// neither disturb other keys' entries nor lose one of its own.
    #[test]
    fn stale_log_references_leave_other_keys_and_len_exact() {
        let len = |keys: &KeyTable| -> usize {
            ["A", "B", "C"]
                .map(|key| run(keys, key, false).len())
                .iter()
                .sum()
        };
        let mut keys = KeyTable::default();
        committed(&mut keys, "A", false, (3, 1), 1);
        committed(&mut keys, "B", false, (3, 1), 1);
        let a = keys.id_of(&k("A"));
        // A is overwritten and re-read twice within block 3.
        keys.drop_stale_readers(a, SeqNo::new(3, 2));
        assert_eq!(len(&keys), 1);
        committed(&mut keys, "A", false, (3, 3), 3);
        keys.drop_stale_readers(a, SeqNo::new(3, 4));
        committed(&mut keys, "A", false, (3, 5), 5);
        assert_eq!(len(&keys), 2);
        assert_eq!(run(&keys, "A", false), [TxnId(5)]);
        assert_eq!(run(&keys, "B", false), [TxnId(1)]);

        committed(&mut keys, "A", false, (4, 1), 6);
        committed(&mut keys, "C", false, (4, 2), 7);
        keys.prune_below(4);
        assert_eq!(len(&keys), 2);
        assert_eq!(run(&keys, "A", false), [TxnId(6)]);
        assert!(keys.record_of(&k("B")).is_none());
        assert_eq!(run(&keys, "C", false), [TxnId(7)]);
        // B's freed id goes to D, which block 3's log no longer names; block 4's log still
        // names C's and A's ids.
        committed(&mut keys, "D", false, (5, 1), 8);
        assert_eq!(keys.live_records(), 3);
        assert_eq!(keys.records.len(), 3, "D reuses B's record");
        keys.prune_below(4);
        keys.prune_below(5);
        assert_eq!(len(&keys), 0);
        assert_eq!(run(&keys, "D", false), [TxnId(8)]);
        keys.prune_below(6);
        assert_eq!(keys.live_records(), 0);
    }

    /// A replay out of commit order can record into a block whose log pruning has already
    /// walked; the record is logged there again, so the next prune still drops the entry.
    #[test]
    fn a_record_into_a_walked_block_is_logged_again() {
        let mut keys = KeyTable::default();
        committed(&mut keys, "A", false, (7, 1), 1);
        committed(&mut keys, "A", false, (3, 1), 2);
        keys.prune_below(4);
        assert_eq!(run(&keys, "A", false), [TxnId(1)]);
        committed(&mut keys, "A", false, (3, 2), 3);
        keys.prune_below(4);
        assert_eq!(run(&keys, "A", false), [TxnId(1)]);
    }

    #[test]
    fn pending_runs_preserve_arrival_order() {
        let mut keys = KeyTable::default();
        let mut ids = Vec::new();
        for t in [txn(3, 0, &["B"], &["A"]), txn(1, 0, &["A"], &["A", "C"])] {
            let mut found = Found::default();
            resolve(&t, &keys, &mut found);
            keys.admit(&t, &found, &mut ids);
        }
        let a = keys.record_of(&k("A")).unwrap();
        assert_eq!(
            (a.pw.as_slice(), a.pr.as_slice()),
            (&[TxnId(3), TxnId(1)][..], &[TxnId(1)][..])
        );
        assert_eq!(keys.record_of(&k("B")).unwrap().pr, [TxnId(3)]);
        assert_eq!(keys.record_of(&k("C")).unwrap().pw, [TxnId(1)]);
        // Reads first, then writes; A read and written by one transaction is one record.
        let (b, a, c) = (ids[0], ids[1], ids[4]);
        assert_eq!(ids, [b, a, a, a, c]);
        assert!(a != b && a != c && b != c);
        assert_eq!(keys.live_records(), 3);
    }

    #[test]
    fn clear_pending_frees_records_left_empty() {
        let mut keys = KeyTable::default();
        let mut ids = Vec::new();
        let t = txn(1, 0, &["A"], &["B"]);
        let mut found = Found::default();
        resolve(&t, &keys, &mut found);
        keys.admit(&t, &found, &mut ids);
        committed(&mut keys, "B", true, (1, 1), 1);
        keys.clear_pending(&ids);
        assert!(keys.record_of(&k("A")).is_none());
        let b = keys.record_of(&k("B")).unwrap();
        assert!(b.pw.is_empty() && b.pr.is_empty());
        assert_eq!(b.cw, [(SeqNo::new(1, 1), TxnId(1))]);
        assert_eq!(keys.live_records(), 1);
        // A new key takes A's freed id.
        assert_eq!(keys.id_of(&k("Z")), ids[0]);
    }

    #[test]
    fn ww_chains_list_each_multi_writer_key_once_in_key_order() {
        let mut keys = KeyTable::default();
        let mut ids = Vec::new();
        let txns = [
            txn(1, 0, &[], &["K", "S"]),
            txn(2, 0, &[], &["H", "K"]),
            txn(3, 0, &[], &["K", "H"]),
        ];
        for t in &txns {
            let mut found = Found::default();
            resolve(t, &keys, &mut found);
            keys.admit(t, &found, &mut ids);
        }
        let writes = txns
            .iter()
            .zip(ids.chunks(2))
            .flat_map(|(t, ids)| ids.iter().map(|&id| (t.id, id)));
        let chains = keys.ww_chains(writes);
        assert_eq!(
            chains,
            [&[TxnId(2), TxnId(3)][..], &[1, 2, 3].map(TxnId)[..]]
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::dependency::{resolve, ResolvedDeps};
    use eov_common::rwset::Value;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::ops::{Bound, Range};

    /// The model: CW and CR in the composite-key `BTreeMap<(Key, SeqNo), TxnId>` layout they
    /// shipped with before the key-major one, PW and PR as per-key lists in an ordered map,
    /// and Section 4.3's resolution as four passes over them.
    #[derive(Default)]
    struct Model {
        cw: BTreeMap<(Key, SeqNo), TxnId>,
        cr: BTreeMap<(Key, SeqNo), TxnId>,
        pw: BTreeMap<Key, Vec<TxnId>>,
        pr: BTreeMap<Key, Vec<TxnId>>,
    }

    fn committed_run(map: &BTreeMap<(Key, SeqNo), TxnId>, key: &Key) -> Vec<(SeqNo, TxnId)> {
        map.range((
            Bound::Included((key.clone(), SeqNo::zero())),
            Bound::Included((key.clone(), SeqNo::new(u64::MAX, u32::MAX))),
        ))
        .map(|((_, seq), txn)| (*seq, *txn))
        .collect()
    }

    fn push_once(list: &mut Vec<TxnId>, own: TxnId, id: TxnId) {
        if id != own && !list.contains(&id) {
            list.push(id);
        }
    }

    impl Model {
        fn pending(map: &BTreeMap<Key, Vec<TxnId>>, key: &Key) -> Vec<TxnId> {
            map.get(key).cloned().unwrap_or_default()
        }

        fn resolve(&self, txn: &Transaction) -> ResolvedDeps {
            let start = txn.start_ts();
            let (mut succ, mut pred) = (Vec::new(), Vec::new());
            for key in txn.read_set.keys() {
                for (_, w) in committed_run(&self.cw, key)
                    .into_iter()
                    .filter(|(s, _)| *s >= start)
                {
                    push_once(&mut succ, txn.id, w);
                }
                for w in Self::pending(&self.pw, key) {
                    push_once(&mut succ, txn.id, w);
                }
            }
            for key in txn.write_set.keys() {
                for (_, r) in committed_run(&self.cr, key) {
                    push_once(&mut pred, txn.id, r);
                }
                for r in Self::pending(&self.pr, key) {
                    push_once(&mut pred, txn.id, r);
                }
            }
            for key in txn.read_set.keys() {
                let before = self
                    .cw
                    .range((
                        Bound::Included((key.clone(), SeqNo::zero())),
                        Bound::Excluded((key.clone(), start)),
                    ))
                    .next_back();
                if let Some((_, &w)) = before {
                    push_once(&mut pred, txn.id, w);
                }
            }
            for key in txn.write_set.keys() {
                if let Some(&(_, w)) = committed_run(&self.cw, key).last() {
                    push_once(&mut pred, txn.id, w);
                }
            }
            ResolvedDeps {
                predecessors: pred,
                successors: succ,
            }
        }

        fn admit(&mut self, txn: &Transaction) {
            for key in txn.read_set.keys() {
                self.pr.entry(key.clone()).or_default().push(txn.id);
            }
            for key in txn.write_set.keys() {
                self.pw.entry(key.clone()).or_default().push(txn.id);
            }
        }

        fn commit(&mut self, txn: &Transaction, slot: SeqNo) {
            for key in txn.read_set.keys() {
                self.cr.insert((key.clone(), slot), txn.id);
            }
            for key in txn.write_set.keys() {
                self.cw.insert((key.clone(), slot), txn.id);
                self.cr.retain(|(k, seq), _| k != key || *seq > slot);
            }
        }

        fn prune_below(&mut self, block: u64) {
            self.cw.retain(|(_, seq), _| seq.block >= block);
            self.cr.retain(|(_, seq), _| seq.block >= block);
        }

        fn live_keys(&self, keys: &[Key]) -> usize {
            keys.iter()
                .filter(|key| {
                    !committed_run(&self.cw, key).is_empty()
                        || !committed_run(&self.cr, key).is_empty()
                        || self.pw.contains_key(*key)
                        || self.pr.contains_key(*key)
                })
                .count()
        }
    }

    /// Keys of inline and heap lengths, some sharing a prefix.
    fn universe() -> Vec<Key> {
        [
            "a",
            "b",
            "acc:1",
            "acc:10",
            "checking:0000000000000000001",
            "savings:42",
        ]
        .map(Key::new)
        .to_vec()
    }

    /// What one step does: an arrival (accepted or rejected), a block cut, a replayed commit
    /// (in or out of commit order), or a prune at an arbitrary horizon.
    #[derive(Clone, Debug)]
    enum Op {
        Arrive {
            lag: u64,
            reads: Vec<usize>,
            writes: Vec<usize>,
            accept: bool,
        },
        Cut {
            rotate: usize,
            span: u64,
        },
        Replay {
            reads: Vec<usize>,
            writes: Vec<usize>,
            back: u64,
            seq: u32,
        },
        Prune {
            back: u64,
        },
    }

    fn op() -> impl Strategy<Value = Op> {
        let keys = || vec(0usize..6, 0..4);
        prop_oneof![
            6 => (0u64..4, keys(), keys(), 0u8..10).prop_map(|(lag, reads, writes, a)| {
                Op::Arrive { lag, reads, writes, accept: a < 7 }
            }),
            2 => (0usize..8, 1u64..4).prop_map(|(rotate, span)| Op::Cut { rotate, span }),
            2 => (keys(), keys(), 0u64..4, 1u32..4).prop_map(|(reads, writes, back, seq)| {
                Op::Replay { reads, writes, back, seq }
            }),
            1 => (0u64..4).prop_map(|back| Op::Prune { back }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arrival / cut / replay / prune sequences long enough that records are freed and
        /// their ids reused, with replays out of commit order and onto taken slots: every resolution, and every key's CW, CR, PW and PR run, equals
        /// the model's after every step, and the slab never holds more records than there are
        /// keys.
        #[test]
        fn key_table_matches_the_model(ops in vec(op(), 1..160)) {
            let keys = universe();
            let mut table = KeyTable::default();
            let mut found = Found::default();
            let mut model = Model::default();
            let mut pending: Vec<(Transaction, Range<usize>)> = Vec::new();
            let mut pending_keys: Vec<RecordId> = Vec::new();
            let (mut block, mut next_id) = (1u64, 1u64);
            let mut make = |snapshot: u64, reads: &[usize], writes: &[usize]| {
                next_id += 1;
                Transaction::from_parts(
                    next_id,
                    snapshot,
                    reads.iter().map(|&i| (keys[i].clone(), SeqNo::new(snapshot, 1))),
                    writes.iter().map(|&i| (keys[i].clone(), Value::from_i64(1))),
                )
            };
            for op in ops {
                match op {
                    Op::Arrive { lag, reads, writes, accept } => {
                        let txn = make(block.saturating_sub(1 + lag), &reads, &writes);
                        prop_assert_eq!(resolve(&txn, &table, &mut found), model.resolve(&txn));
                        if accept {
                            let from = pending_keys.len();
                            table.admit(&txn, &found, &mut pending_keys);
                            model.admit(&txn);
                            pending.push((txn, from..pending_keys.len()));
                        }
                    }
                    Op::Cut { rotate, span } => {
                        let mut order: Vec<_> = std::mem::take(&mut pending);
                        let turn = rotate % order.len().max(1);
                        order.rotate_left(turn);
                        for (i, (txn, ids)) in order.iter().enumerate() {
                            let slot = SeqNo::new(block, i as u32 + 1);
                            table.record_commit(txn, slot, &pending_keys[ids.clone()]);
                            model.commit(txn, slot);
                        }
                        table.clear_pending(&pending_keys);
                        pending_keys.clear();
                        model.pw.clear();
                        model.pr.clear();
                        block += 1;
                        table.prune_below(block.saturating_sub(span));
                        model.prune_below(block.saturating_sub(span));
                    }
                    Op::Replay { reads, writes, back, seq } if pending.is_empty() => {
                        // `back` > 0 replays into an earlier block: out of commit order, maybe
                        // below the horizon or onto a taken slot (which it replaces).
                        let at = block.saturating_sub(back).max(1);
                        let txn = make(at - 1, &reads, &writes);
                        prop_assert_eq!(resolve(&txn, &table, &mut found), model.resolve(&txn));
                        let mut ids = Vec::new();
                        table.intern_found(&txn, &found, &mut ids);
                        table.record_commit(&txn, SeqNo::new(at, seq), &ids);
                        model.commit(&txn, SeqNo::new(at, seq));
                        if at == block {
                            block += 1;
                        }
                    }
                    Op::Replay { .. } => {}
                    Op::Prune { back } => {
                        table.prune_below(block.saturating_sub(back));
                        model.prune_below(block.saturating_sub(back));
                    }
                }

                for key in &keys {
                    let record = table.record_of(key);
                    let run = |f: fn(&Record) -> Vec<(SeqNo, TxnId)>| record.map_or(Vec::new(), f);
                    prop_assert_eq!(run(|r| r.cw.clone()), committed_run(&model.cw, key));
                    prop_assert_eq!(run(|r| r.cr.clone()), committed_run(&model.cr, key));
                    let list = |f: fn(&Record) -> Vec<TxnId>| record.map_or(Vec::new(), f);
                    prop_assert_eq!(list(|r| r.pw.clone()), Model::pending(&model.pw, key));
                    prop_assert_eq!(list(|r| r.pr.clone()), Model::pending(&model.pr, key));
                }
                prop_assert_eq!(table.live_records(), model.live_keys(&keys));
                prop_assert!(table.records.len() <= keys.len());
            }
        }
    }
}

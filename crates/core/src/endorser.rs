//! Algorithm 1 — snapshot-consistent contract simulation (the execute phase).
//!
//! An endorsing peer fetches the number of the last committed block — the store's own height,
//! [`MultiVersionStore::last_block`] — simulates the contract invocation against that block's
//! snapshot, and returns the readset, the writeset and the snapshot block number. Unlike
//! vanilla Fabric, no read-write lock is held against the commit path: the multi-version store
//! serves the frozen snapshot while validation keeps committing new blocks (Section 4.2), at
//! the price of possibly producing a transaction whose snapshot is already a few blocks behind
//! by the time it reaches the orderer.

use eov_common::rwset::{Key, ReadSet, Value, WriteSet};
use eov_common::txn::{Transaction, TxnId};
use eov_common::version::SeqNo;
use eov_vstore::{MultiVersionStore, SnapshotManager};

/// The mutable effects a contract accumulates while simulating: reads (with observed versions)
/// and buffered writes. Writes are visible to subsequent reads *within the same simulation*
/// (read-your-own-writes), matching chaincode semantics.
#[derive(Debug, Default)]
pub(crate) struct TxnEffects {
    reads: ReadSet,
    writes: WriteSet,
}

impl TxnEffects {
    /// Records a write of `value` to `key`.
    pub(crate) fn write(&mut self, key: Key, value: Value) {
        self.writes.record(key, value);
    }
}

/// A contract execution context handed to the simulation closure: the store read as of the
/// snapshot after block `snapshot_block`, plus buffered writes.
pub struct SimulationContext<'a> {
    store: &'a MultiVersionStore,
    snapshot_block: u64,
    effects: &'a mut TxnEffects,
}

impl<'a> SimulationContext<'a> {
    /// Reads `key`, observing the buffered write if the simulation already wrote it, otherwise
    /// the snapshot value. A snapshot read is recorded into the readset with the version it
    /// observed; a key absent at the snapshot is recorded at `(0, 0)`, so validation still sees
    /// a later creation of it (Fabric records absent reads the same way).
    pub(crate) fn read(&mut self, key: &Key) -> Option<Value> {
        if let Some(v) = self.effects.writes.value_of(key) {
            return Some(v.clone());
        }
        let observed = self
            .store
            .read_at(key, self.snapshot_block)
            .expect("no run prunes store versions, so every snapshot stays readable");
        let version = observed.map_or(SeqNo::zero(), |vv| vv.version);
        self.effects.reads.record(key.clone(), version);
        observed.map(|vv| vv.value.clone())
    }

    /// Reads `key` as an `i64` balance, defaulting to 0 when absent (Smallbank convention).
    pub fn read_balance(&mut self, key: &Key) -> i64 {
        self.read(key).and_then(|v| v.as_i64()).unwrap_or(0)
    }

    /// Buffers a write of `value` to `key`.
    pub fn write(&mut self, key: Key, value: Value) {
        self.effects.write(key, value);
    }
}

/// The endorsing peer's simulation entry point. It holds nothing: every snapshot it reads,
/// the latest one included, comes from the multi-version store it is handed.
#[derive(Clone, Copy, Debug, Default)]
pub struct SnapshotEndorser;

impl SnapshotEndorser {
    /// The endorser; the handle is ignored. Kept in this form only because
    /// `perf/src/driver.rs` calls it, and goes with [`SnapshotManager`] (ROADMAP item 4).
    pub fn new(_snapshots: SnapshotManager) -> Self {
        SnapshotEndorser
    }

    /// Algorithm 1: simulates `logic` against the snapshot of the last block `store` has
    /// committed (line 1, "fetch the number of the last block", is
    /// [`MultiVersionStore::last_block`]) and packages the result as an endorsed transaction
    /// with the given id.
    pub fn simulate<F>(&self, store: &MultiVersionStore, id: TxnId, logic: F) -> Transaction
    where
        F: FnOnce(&mut SimulationContext<'_>),
    {
        self.simulate_at(store, id, store.last_block(), logic)
    }

    /// Simulates against an explicit snapshot block — used by tests and by the simulator when
    /// it needs to model a stale snapshot (e.g. a long-running simulation that started several
    /// blocks ago).
    pub fn simulate_at<F>(
        &self,
        store: &MultiVersionStore,
        id: TxnId,
        snapshot_block: u64,
        logic: F,
    ) -> Transaction
    where
        F: FnOnce(&mut SimulationContext<'_>),
    {
        let mut effects = TxnEffects::default();
        {
            let mut ctx = SimulationContext {
                store,
                snapshot_block,
                effects: &mut effects,
            };
            logic(&mut ctx);
        }
        Transaction::new(id, snapshot_block, effects.reads, effects.writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MultiVersionStore, SnapshotEndorser) {
        let mut store = MultiVersionStore::new();
        store.seed_genesis([
            (Key::new("alice"), Value::from_i64(100)),
            (Key::new("bob"), Value::from_i64(50)),
        ]);
        (store, SnapshotEndorser)
    }

    #[test]
    fn simulation_produces_read_and_write_sets() {
        let (store, endorser) = setup();
        let txn = endorser.simulate(&store, TxnId(1), |ctx| {
            let a = ctx.read_balance(&Key::new("alice"));
            let b = ctx.read_balance(&Key::new("bob"));
            ctx.write(Key::new("alice"), Value::from_i64(a - 10));
            ctx.write(Key::new("bob"), Value::from_i64(b + 10));
        });
        assert_eq!(txn.snapshot_block, 0);
        assert_eq!(txn.read_set.len(), 2);
        assert_eq!(
            txn.read_set.version_of(&Key::new("alice")),
            Some(SeqNo::new(0, 1))
        );
        assert_eq!(
            txn.write_set.value_of(&Key::new("alice")).unwrap().as_i64(),
            Some(90)
        );
        assert_eq!(
            txn.write_set.value_of(&Key::new("bob")).unwrap().as_i64(),
            Some(60)
        );
    }

    #[test]
    fn read_your_own_writes_within_a_simulation() {
        let (store, endorser) = setup();
        let txn = endorser.simulate(&store, TxnId(2), |ctx| {
            ctx.write(Key::new("counter"), Value::from_i64(1));
            let v = ctx.read_balance(&Key::new("counter"));
            ctx.write(Key::new("counter"), Value::from_i64(v + 1));
        });
        // The buffered read does not touch the snapshot, so the readset stays empty.
        assert!(txn.read_set.is_empty());
        assert_eq!(
            txn.write_set
                .value_of(&Key::new("counter"))
                .unwrap()
                .as_i64(),
            Some(2)
        );
    }

    #[test]
    fn simulation_uses_the_latest_registered_snapshot() {
        let (mut store, endorser) = setup();
        // Commit block 1 updating alice: the store's height is now the latest snapshot.
        let writer = Transaction::from_parts(9, 0, [], [(Key::new("alice"), Value::from_i64(999))]);
        store.apply_block(1, [(&writer, 1)]);

        let txn = endorser.simulate(&store, TxnId(3), |ctx| {
            let a = ctx.read_balance(&Key::new("alice"));
            ctx.write(Key::new("alice"), Value::from_i64(a));
        });
        assert_eq!(txn.snapshot_block, 1);
        assert_eq!(
            txn.read_set.version_of(&Key::new("alice")),
            Some(SeqNo::new(1, 1))
        );
        assert_eq!(
            txn.write_set.value_of(&Key::new("alice")).unwrap().as_i64(),
            Some(999)
        );
    }

    #[test]
    fn simulate_at_reads_old_snapshots() {
        let (mut store, endorser) = setup();
        let writer = Transaction::from_parts(9, 0, [], [(Key::new("alice"), Value::from_i64(999))]);
        store.apply_block(1, [(&writer, 1)]);

        // Simulating against block 0 still sees the genesis value — that is exactly the stale
        // snapshot scenario the client-delay / read-interval experiments create.
        let txn = endorser.simulate_at(&store, TxnId(4), 0, |ctx| {
            let a = ctx.read_balance(&Key::new("alice"));
            ctx.write(Key::new("alice"), Value::from_i64(a + 1));
        });
        assert_eq!(txn.snapshot_block, 0);
        assert_eq!(
            txn.read_set.version_of(&Key::new("alice")),
            Some(SeqNo::new(0, 1))
        );
        assert_eq!(
            txn.write_set.value_of(&Key::new("alice")).unwrap().as_i64(),
            Some(101)
        );
    }

    #[test]
    fn missing_keys_read_as_default_balance() {
        let (store, endorser) = setup();
        let txn = endorser.simulate(&store, TxnId(5), |ctx| {
            let v = ctx.read_balance(&Key::new("nobody"));
            ctx.write(Key::new("nobody"), Value::from_i64(v + 5));
        });
        assert_eq!(
            txn.read_set.version_of(&Key::new("nobody")),
            Some(SeqNo::zero())
        );
        assert_eq!(
            txn.write_set
                .value_of(&Key::new("nobody"))
                .unwrap()
                .as_i64(),
            Some(5)
        );
    }
}

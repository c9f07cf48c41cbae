//! The single-key update contract of the motivation experiment (Figure 1).
//!
//! A contract runs in an endorsing peer's [`SimulationContext`]: it reads and writes keys, and
//! the context records the read/write sets. Figure 1 uses this one to show that Fabric's *raw*
//! throughput is flat while its *effective* throughput collapses under skew. The no-op
//! workload runs no contract at all, and the Smallbank family is in [`crate::smallbank`].

use eov_common::rwset::{Key, Value};
use fabricsharp_core::endorser::SimulationContext;

/// The single-modification contract of Figure 1: read one key (chosen by the workload
/// generator with Zipfian skew) and write it back incremented. Under skew, concurrent
/// invocations pile up on the hot keys and fail Fabric's validation.
#[derive(Clone, Debug)]
pub(crate) struct KvUpdateContract {
    /// The key this invocation updates.
    pub(crate) key: Key,
}

impl KvUpdateContract {
    /// Creates an update of key index `i` in the generator's key space.
    pub(crate) fn for_index(i: usize) -> Self {
        KvUpdateContract {
            key: Key::from_fmt(format_args!("kv:{i}")),
        }
    }

    /// Runs the contract logic inside a simulation context.
    pub(crate) fn run(&self, ctx: &mut SimulationContext<'_>) {
        let current = ctx.read_balance(&self.key);
        ctx.write(self.key.clone(), Value::from_i64(current + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::txn::TxnId;
    use eov_vstore::MultiVersionStore;
    use fabricsharp_core::endorser::SnapshotEndorser;

    fn endorse(
        contract: &KvUpdateContract,
        store: &MultiVersionStore,
    ) -> eov_common::txn::Transaction {
        SnapshotEndorser.simulate(store, TxnId(1), |ctx| contract.run(ctx))
    }

    #[test]
    fn kv_update_reads_then_increments() {
        let mut store = MultiVersionStore::new();
        store.seed_genesis([(Key::new("kv:7"), Value::from_i64(41))]);
        let contract = KvUpdateContract::for_index(7);
        let txn = endorse(&contract, &store);
        assert_eq!(txn.read_set.len(), 1);
        assert_eq!(
            txn.write_set.value_of(&Key::new("kv:7")).unwrap().as_i64(),
            Some(42)
        );
    }

    #[test]
    fn kv_update_on_missing_key_starts_from_zero() {
        let store = MultiVersionStore::new();
        let contract = KvUpdateContract::for_index(3);
        let txn = endorse(&contract, &store);
        assert_eq!(
            txn.write_set.value_of(&Key::new("kv:3")).unwrap().as_i64(),
            Some(1)
        );
    }
}

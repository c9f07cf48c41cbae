//! `SimpleChain`: a single-process EOV blockchain for examples, doctests and integration tests.
//!
//! The full discrete-event simulator in `eov-sim` models time, request rates and pipeline
//! bottlenecks; `SimpleChain` strips all of that away and exposes the bare workflow —
//! *execute* (simulate a contract against the latest snapshot), *order* (submit to the chosen
//! concurrency control), *validate* (seal a block, validate if the system requires it, commit
//! the writes, append to the hash-chained ledger). It is the quickest way to see any of the
//! five systems make commit/abort decisions on a concrete scenario.

use crate::api::{
    apply_without_validation, mvcc_validate_and_apply, ConcurrencyControl, SystemKind,
};
use eov_common::abort::AbortReason;
use eov_common::config::CcConfig;
use eov_common::rwset::{Key, Value};
use eov_common::txn::{CommitDecision, Transaction, TxnId, TxnStatus};
use eov_ledger::{Block, Ledger};
use eov_vstore::{MultiVersionStore, SnapshotManager};
use fabricsharp_core::endorser::{SimulationContext, SnapshotEndorser};

/// Outcome of sealing one block.
#[derive(Clone, Debug, Default)]
pub struct BlockReport {
    /// Height of the block that was appended, or `None` if nothing was pending (or everything
    /// was dropped before block formation).
    pub block_number: Option<u64>,
    /// Transactions that committed (passed validation, writes applied).
    pub committed: Vec<TxnId>,
    /// Transactions that were included in the block but aborted during validation.
    pub aborted: Vec<(TxnId, AbortReason)>,
}

/// A single-node EOV blockchain driven synchronously.
pub struct SimpleChain {
    kind: SystemKind,
    store: MultiVersionStore,
    ledger: Ledger,
    endorser: SnapshotEndorser,
    cc: Box<dyn ConcurrencyControl>,
    next_txn_id: u64,
    /// Every transaction that ever committed, in commit order (for serializability checks).
    committed_history: Vec<Transaction>,
    /// Early aborts observed at submission time (endorsement or arrival), by transaction.
    early_aborted: Vec<(TxnId, AbortReason)>,
}

impl SimpleChain {
    /// Creates a chain running the given system with default concurrency-control settings.
    pub fn new(kind: SystemKind) -> Self {
        Self::with_cc_config(kind, CcConfig::default())
    }

    /// Creates a chain with an explicit concurrency-control configuration.
    pub fn with_cc_config(kind: SystemKind, cc_config: CcConfig) -> Self {
        let snapshots = SnapshotManager::new();
        SimpleChain {
            kind,
            store: MultiVersionStore::new(),
            ledger: Ledger::new(),
            endorser: SnapshotEndorser::new(snapshots),
            cc: kind.build(cc_config),
            next_txn_id: 1,
            committed_history: Vec::new(),
            early_aborted: Vec::new(),
        }
    }

    /// Which system this chain runs.
    pub fn kind(&self) -> SystemKind {
        self.kind
    }

    /// Seeds the genesis state (block 0).
    pub fn seed(&mut self, entries: impl IntoIterator<Item = (Key, Value)>) {
        self.store.seed_genesis(entries);
        self.endorser.snapshots().register_block(0);
    }

    /// Execute phase: simulates `logic` against the latest snapshot and returns the endorsed
    /// transaction (not yet submitted).
    pub fn execute<F>(&mut self, logic: F) -> Transaction
    where
        F: FnOnce(&mut SimulationContext<'_>),
    {
        let id = TxnId(self.next_txn_id);
        self.next_txn_id += 1;
        self.endorser.simulate(&self.store, id, logic)
    }

    /// Execute phase against an explicit (possibly stale) snapshot — used to reproduce the
    /// paper's cross-block-read scenarios.
    pub fn execute_at<F>(&mut self, snapshot_block: u64, logic: F) -> Transaction
    where
        F: FnOnce(&mut SimulationContext<'_>),
    {
        let id = TxnId(self.next_txn_id);
        self.next_txn_id += 1;
        self.endorser
            .simulate_at(&self.store, id, snapshot_block, logic)
    }

    /// Order phase: submits an endorsed transaction to the system's concurrency control.
    /// Returns the early decision (endorsement-time or arrival-time abort, if any).
    pub fn submit(&mut self, txn: Transaction) -> CommitDecision {
        let id = txn.id;
        let endorse = self.cc.on_endorsement(&txn, self.store.last_block());
        if let CommitDecision::Reject(reason) = endorse {
            self.early_aborted.push((id, reason));
            return endorse;
        }
        let arrival = self.cc.on_arrival(txn);
        if let CommitDecision::Reject(reason) = arrival {
            self.early_aborted.push((id, reason));
        }
        arrival
    }

    /// Convenience: execute and submit in one call, returning the transaction id and decision.
    pub fn execute_and_submit<F>(&mut self, logic: F) -> (TxnId, CommitDecision)
    where
        F: FnOnce(&mut SimulationContext<'_>),
    {
        let txn = self.execute(logic);
        let id = txn.id;
        (id, self.submit(txn))
    }

    /// Validate phase: cuts a block from everything pending, validates it if the system
    /// requires peer validation, applies the committed writes, and appends the block to the
    /// hash-chained ledger.
    pub fn seal_block(&mut self) -> BlockReport {
        let ordered = self.cc.cut_block();
        if ordered.is_empty() {
            return BlockReport::default();
        }
        let block_no = self.ledger.height() + 1;
        let needs_validation = self.cc.needs_peer_validation();

        let statuses = if needs_validation {
            mvcc_validate_and_apply(&mut self.store, block_no, &ordered)
        } else {
            apply_without_validation(&mut self.store, block_no, &ordered)
        };

        let mut block = Block::build(block_no, self.ledger.tip_hash(), ordered.clone());
        let mut report = BlockReport {
            block_number: Some(block_no),
            ..BlockReport::default()
        };
        let mut outcome: Vec<(Transaction, TxnStatus)> = Vec::with_capacity(ordered.len());
        for (entry, status) in block.entries.iter_mut().zip(statuses) {
            entry.status = status;
            match status {
                TxnStatus::Committed => {
                    report.committed.push(entry.txn.id);
                    self.committed_history.push(entry.txn.clone());
                }
                TxnStatus::Aborted(reason) => report.aborted.push((entry.txn.id, reason)),
                TxnStatus::Pending => unreachable!("validation assigns a final status"),
            }
            outcome.push((entry.txn.clone(), status));
        }
        self.ledger
            .append(block)
            .expect("locally built blocks always chain correctly");
        self.endorser.snapshots().register_block(block_no);
        self.cc.on_block_committed(block_no, &outcome);
        report
    }

    /// The latest committed value of `key`, if any.
    pub fn latest(&self, key: &Key) -> Option<Value> {
        self.store.latest_value(key).cloned()
    }

    /// The underlying hash-chained ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The underlying state store.
    pub fn store(&self) -> &MultiVersionStore {
        &self.store
    }

    /// The concurrency control driving this chain (for stats inspection).
    pub fn cc(&self) -> &dyn ConcurrencyControl {
        self.cc.as_ref()
    }

    /// Every committed transaction so far, in commit order.
    pub fn committed_history(&self) -> &[Transaction] {
        &self.committed_history
    }

    /// Early aborts recorded at submission time (endorsement or arrival).
    pub fn early_aborted(&self) -> &[(TxnId, AbortReason)] {
        &self.early_aborted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabricsharp_core::serializability::is_serializable;

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    fn transfer_chain(kind: SystemKind) -> SimpleChain {
        let mut chain = SimpleChain::new(kind);
        chain.seed([
            (k("alice"), Value::from_i64(100)),
            (k("bob"), Value::from_i64(50)),
        ]);
        chain
    }

    #[test]
    fn quickstart_flow_commits_a_transfer() {
        for kind in SystemKind::all() {
            let mut chain = transfer_chain(kind);
            let alice = k("alice");
            let bob = k("bob");
            let txn = chain.execute(|ctx| {
                let a = ctx.read_balance(&alice);
                let b = ctx.read_balance(&bob);
                ctx.write(alice.clone(), Value::from_i64(a - 10));
                ctx.write(bob.clone(), Value::from_i64(b + 10));
            });
            assert!(chain.submit(txn).is_accept(), "{kind}: submission failed");
            let report = chain.seal_block();
            assert_eq!(report.block_number, Some(1), "{kind}");
            assert_eq!(report.committed.len(), 1, "{kind}");
            assert_eq!(chain.latest(&bob).unwrap().as_i64(), Some(60), "{kind}");
            assert!(chain.ledger().verify_integrity().is_ok(), "{kind}");
        }
    }

    #[test]
    fn conflicting_updates_in_one_block_differ_by_system() {
        // Two transfers read the same snapshot and both debit alice. Fabric aborts the second
        // at validation; FabricSharp commits both because the second's read of alice is what
        // creates a c-ww + rw pattern that reordering can serialize... in fact with identical
        // read/write sets the two transactions form an unreorderable rw cycle, so FabricSharp
        // early-aborts one instead of wasting a block slot. Either way exactly one commits.
        for kind in [SystemKind::Fabric, SystemKind::FabricSharp] {
            let mut chain = transfer_chain(kind);
            let alice = k("alice");
            for _ in 0..2 {
                let txn = chain.execute(|ctx| {
                    let a = ctx.read_balance(&alice);
                    ctx.write(alice.clone(), Value::from_i64(a - 10));
                });
                let _ = chain.submit(txn);
            }
            let report = chain.seal_block();
            let early = chain.early_aborted().len();
            assert_eq!(
                report.committed.len() + report.aborted.len() + early,
                2,
                "{kind}: every submission is accounted for"
            );
            assert_eq!(
                report.committed.len(),
                1,
                "{kind}: exactly one debit commits"
            );
            assert_eq!(chain.latest(&alice).unwrap().as_i64(), Some(90), "{kind}");
        }
    }

    #[test]
    fn fabricsharp_commits_serializable_history_across_blocks() {
        let mut chain = transfer_chain(SystemKind::FabricSharp);
        let keys: Vec<Key> = (0..6).map(|i| k(&format!("acct{i}"))).collect();
        chain.seed(keys.iter().map(|key| (key.clone(), Value::from_i64(100))));

        for round in 0..5u64 {
            for i in 0..4usize {
                let from = keys[i].clone();
                let to = keys[(i + round as usize + 1) % keys.len()].clone();
                let txn = chain.execute(|ctx| {
                    let f = ctx.read_balance(&from);
                    let t = ctx.read_balance(&to);
                    ctx.write(from.clone(), Value::from_i64(f - 1));
                    ctx.write(to.clone(), Value::from_i64(t + 1));
                });
                let _ = chain.submit(txn);
            }
            chain.seal_block();
        }
        assert!(is_serializable(chain.committed_history()));
        assert!(chain.ledger().verify_integrity().is_ok());
        assert!(chain.ledger().committed_txn_count() > 0);
    }

    #[test]
    fn sealing_with_nothing_pending_is_a_noop() {
        let mut chain = transfer_chain(SystemKind::Fabric);
        let report = chain.seal_block();
        assert_eq!(report.block_number, None);
        assert_eq!(chain.ledger().height(), 0);
    }

    #[test]
    fn execute_at_reproduces_stale_snapshot_aborts_in_fabric() {
        let mut chain = transfer_chain(SystemKind::Fabric);
        let alice = k("alice");
        // Commit a block that bumps alice.
        let (_, d) = chain.execute_and_submit(|ctx| {
            let a = ctx.read_balance(&k("alice"));
            ctx.write(k("alice"), Value::from_i64(a + 1));
        });
        assert!(d.is_accept());
        chain.seal_block();

        // Now simulate against the stale genesis snapshot: Fabric's validation must abort it.
        let stale = chain.execute_at(0, |ctx| {
            let a = ctx.read_balance(&alice);
            ctx.write(alice.clone(), Value::from_i64(a + 1000));
        });
        assert!(chain.submit(stale).is_accept());
        let report = chain.seal_block();
        assert_eq!(report.committed.len(), 0);
        assert_eq!(report.aborted.len(), 1);
        assert_eq!(report.aborted[0].1, AbortReason::StaleRead);
    }
}

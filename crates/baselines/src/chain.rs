//! `SimpleChain`: the one node that runs the EOV step on the caller's thread. Examples,
//! doctests and tests drive it directly; the simulator in `eov-sim` drives the same calls from
//! its event clock, which only decides *when* each happens.
//!
//! * execute — [`SimpleChain::execute`] / [`SimpleChain::execute_at`] (an explicit, possibly
//!   stale snapshot);
//! * order — [`SimpleChain::endorse_check`] then [`SimpleChain::arrive`], or both as
//!   [`SimpleChain::submit`];
//! * validate — [`SimpleChain::cut`] then [`SimpleChain::commit`] (validate if the system
//!   requires it, apply, append, notify the CC), or both as [`SimpleChain::seal_block`].
//!
//! [`SimpleChain::persist_to`] moves the ledger to segment files; `commit` then also
//! checkpoints every `CcConfig::checkpoint_interval` blocks and returns I/O failures as a
//! [`LedgerError`].

use crate::api::{
    apply_without_validation, mvcc_validate_and_apply, ConcurrencyControl, SystemKind,
};
use eov_common::abort::AbortReason;
use eov_common::config::CcConfig;
use eov_common::error::CommonError;
use eov_common::rwset::{Key, Value};
use eov_common::txn::{CommitDecision, Transaction, TxnId, TxnStatus};
use eov_ledger::durable::{DurableOptions, LedgerBackend};
use eov_ledger::{write_checkpoint, Block, Ledger, LedgerError};
use eov_vstore::MultiVersionStore;
use fabricsharp_core::endorser::{SimulationContext, SnapshotEndorser};
use std::path::Path;

/// Outcome of committing one block.
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
    cc_config: CcConfig,
    store: MultiVersionStore,
    ledger: LedgerBackend,
    cc: Box<dyn ConcurrencyControl>,
    next_txn_id: u64,
    /// Early aborts observed at submission time (endorsement or arrival), by transaction.
    early_aborted: Vec<(TxnId, AbortReason)>,
    /// The block whose commit failed after its writes reached the store. The store is then
    /// ahead of the ledger of record, so every later commit is refused.
    failed_block: Option<u64>,
}

impl SimpleChain {
    /// Creates a chain running the given system with default concurrency-control settings.
    pub fn new(kind: SystemKind) -> Self {
        Self::with_cc_config(kind, CcConfig::default())
    }

    /// Creates a chain with an explicit concurrency-control configuration (its durability
    /// knobs apply once the chain is persisted).
    pub fn with_cc_config(kind: SystemKind, cc_config: CcConfig) -> Self {
        SimpleChain {
            cc_config,
            store: MultiVersionStore::new(),
            ledger: LedgerBackend::memory(),
            cc: kind.build(cc_config),
            next_txn_id: 1,
            early_aborted: Vec::new(),
            failed_block: None,
        }
    }

    /// Seeds the genesis state (block 0).
    pub fn seed(&mut self, entries: impl IntoIterator<Item = (Key, Value)>) {
        self.store.seed_genesis(entries);
    }

    /// Persists the chain from here on: the ledger moves to CRC-framed segment files in `dir`
    /// (rotation and fsync per the chain's `CcConfig`), the genesis state is checkpointed — its
    /// seeded values live in no block, so replay alone cannot recreate them — and every
    /// `checkpoint_interval` blocks [`Self::commit`] checkpoints the store again. Call it after
    /// [`Self::seed`] and before the first block. `dir` must not exist or be empty: resuming a
    /// directory is cold recovery's job (`eov_ledger::recover_from_disk`).
    pub fn persist_to(&mut self, dir: impl AsRef<Path>) -> Result<(), LedgerError> {
        let dir = dir.as_ref();
        if self.ledger.height() > 0 {
            return Err(LedgerError::Chain(CommonError::InvalidConfig(
                "persist_to needs a chain with no blocks".into(),
            )));
        }
        let used = std::fs::read_dir(dir).map_or_else(
            |e| e.kind() != std::io::ErrorKind::NotFound,
            |mut entries| entries.next().is_some(),
        );
        if used {
            return Err(LedgerError::Io {
                path: dir.to_path_buf(),
                detail: "persist_to needs an absent or empty directory".into(),
            });
        }
        let (ledger, _) =
            LedgerBackend::durable(dir, DurableOptions::from_cc_config(&self.cc_config))?;
        write_checkpoint(dir, &self.store, self.cc_config.durable_fsync)?;
        self.ledger = ledger;
        Ok(())
    }

    /// Execute phase: simulates `logic` against the latest snapshot and returns the endorsed
    /// transaction (not yet submitted).
    pub fn execute<F>(&mut self, logic: F) -> Transaction
    where
        F: FnOnce(&mut SimulationContext<'_>),
    {
        let id = TxnId(self.next_txn_id);
        self.next_txn_id += 1;
        SnapshotEndorser.simulate(&self.store, id, logic)
    }

    /// Execute phase against an explicit (possibly stale) snapshot — used to reproduce the
    /// paper's cross-block-read scenarios.
    pub fn execute_at<F>(&mut self, snapshot_block: u64, logic: F) -> Transaction
    where
        F: FnOnce(&mut SimulationContext<'_>),
    {
        let id = TxnId(self.next_txn_id);
        self.next_txn_id += 1;
        SnapshotEndorser.simulate_at(&self.store, id, snapshot_block, logic)
    }

    /// Order phase, first half: the peer-side early-abort decision taken when the endorsement
    /// result is about to be submitted (Fabric++ aborts reads across blocks here).
    pub fn endorse_check(&mut self, txn: &Transaction) -> CommitDecision {
        let decision = self.cc.on_endorsement(txn, self.store.last_block());
        self.record_early(txn.id, decision)
    }

    /// Order phase, second half: delivers an endorsed transaction to the orderer's
    /// concurrency control and returns its arrival-time decision.
    pub fn arrive(&mut self, txn: Transaction) -> CommitDecision {
        let id = txn.id;
        let decision = self.cc.on_arrival(txn);
        self.record_early(id, decision)
    }

    /// Order phase: [`Self::endorse_check`], then [`Self::arrive`] if it accepted. Returns the
    /// early decision (endorsement-time or arrival-time abort, if any).
    pub fn submit(&mut self, txn: Transaction) -> CommitDecision {
        let endorse = self.endorse_check(&txn);
        if !endorse.is_accept() {
            return endorse;
        }
        self.arrive(txn)
    }

    fn record_early(&mut self, id: TxnId, decision: CommitDecision) -> CommitDecision {
        if let CommitDecision::Reject(reason) = decision {
            self.early_aborted.push((id, reason));
        }
        decision
    }

    /// Block formation: cuts the next block from everything pending, in final commit order.
    /// Empty when nothing was pending.
    pub fn cut(&mut self) -> Vec<Transaction> {
        self.cc.cut_block()
    }

    /// Validate phase for one cut block: validate (if the system requires it) and apply, which
    /// makes the block's snapshot the one [`Self::execute`] reads; append; notify the CC; on a
    /// persisted chain, checkpoint every `checkpoint_interval` blocks. An empty `txns` appends
    /// nothing. `perf/src/driver.rs` times the same calls, one layer each.
    ///
    /// A failed append or checkpoint comes back as the [`LedgerError`]. The store holds the
    /// block's writes by then, so every later `commit` fails too rather than append on top of
    /// a state the disk lacks.
    pub fn commit(&mut self, txns: Vec<Transaction>) -> Result<BlockReport, LedgerError> {
        if let Some(block) = self.failed_block {
            return Err(LedgerError::Chain(CommonError::ChainIntegrity {
                block,
                detail: "this block's commit failed after its writes reached the store".into(),
            }));
        }
        if txns.is_empty() {
            return Ok(BlockReport::default());
        }
        let block_no = self.ledger.height() + 1;
        let statuses = if self.cc.needs_peer_validation() {
            mvcc_validate_and_apply(&mut self.store, block_no, &txns)
        } else {
            apply_without_validation(&mut self.store, block_no, &txns)
        };
        let mut block = Block::build(block_no, self.ledger.as_ledger().tip_hash(), txns);
        let mut report = BlockReport {
            block_number: Some(block_no),
            ..BlockReport::default()
        };
        let mut validated: Vec<(Transaction, TxnStatus)> = Vec::with_capacity(block.entries.len());
        for (entry, status) in block.entries.iter_mut().zip(statuses) {
            entry.status = status;
            match status {
                TxnStatus::Committed => report.committed.push(entry.txn.id),
                TxnStatus::Aborted(reason) => report.aborted.push((entry.txn.id, reason)),
                TxnStatus::Pending => unreachable!("validation assigns a final status"),
            }
            validated.push((entry.txn.clone(), status));
        }
        // An interval of 0 divides no height: no periodic checkpoints.
        let persisted = self.ledger.append(block).and_then(|()| match &self.ledger {
            LedgerBackend::Durable(durable)
                if block_no.is_multiple_of(self.cc_config.checkpoint_interval) =>
            {
                write_checkpoint(durable.dir(), &self.store, self.cc_config.durable_fsync).map(drop)
            }
            _ => Ok(()),
        });
        if let Err(e) = persisted {
            self.failed_block = Some(block_no);
            return Err(e);
        }
        self.cc.on_block_committed(block_no, &validated);
        Ok(report)
    }

    /// Validate phase: [`Self::cut`] then [`Self::commit`], for in-memory chains, whose appends
    /// cannot fail. A persisted chain calls the two itself; this panics on a [`LedgerError`].
    pub fn seal_block(&mut self) -> BlockReport {
        let txns = self.cut();
        self.commit(txns)
            .expect("in-memory blocks always append; persisted chains call cut + commit")
    }

    /// The latest committed value of `key`, if any.
    pub fn latest(&self, key: &Key) -> Option<Value> {
        self.store.latest_value(key).cloned()
    }

    /// The hash-chained ledger (the durable ledger's mirror once persisted: blocks outside
    /// its live window are read back from disk).
    pub fn ledger(&self) -> &Ledger {
        self.ledger.as_ledger()
    }

    /// The underlying state store.
    pub fn store(&self) -> &MultiVersionStore {
        &self.store
    }

    /// Consumes the chain, returning its ledger and store.
    pub fn into_parts(self) -> (Ledger, MultiVersionStore) {
        (self.ledger.into_ledger(), self.store)
    }

    /// The concurrency control driving this chain (for stats inspection).
    pub fn cc(&self) -> &dyn ConcurrencyControl {
        self.cc.as_ref()
    }

    /// Every committed transaction so far, in commit order, read off the ledger.
    pub fn committed_history(&self) -> Vec<Transaction> {
        self.ledger()
            .iter()
            .flat_map(|block| block.committed().map(|(txn, _)| txn.clone()))
            .collect()
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
    use std::path::PathBuf;

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
        assert!(is_serializable(&chain.committed_history()));
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

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "eov-chain-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn persist_to_refuses_a_used_directory_and_a_chain_with_blocks() {
        let dir = temp_dir("refuse");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("leftover"), b"x").unwrap();
        let mut chain = transfer_chain(SystemKind::FabricSharp);
        let err = chain.persist_to(&dir).unwrap_err();
        assert!(matches!(err, LedgerError::Io { .. }), "got {err}");
        std::fs::remove_dir_all(&dir).unwrap();

        let txn = chain.execute(|ctx| ctx.write(k("carol"), Value::from_i64(1)));
        chain.submit(txn);
        chain.seal_block();
        let err = chain.persist_to(&dir).unwrap_err();
        assert!(matches!(err, LedgerError::Chain(_)), "got {err}");
        assert!(!dir.exists(), "a refused persist_to creates nothing");
    }

    #[test]
    fn a_failed_durable_append_fails_every_later_commit() {
        let dir = temp_dir("failed-append");
        let config = CcConfig {
            segment_rotate_kib: 1,
            ..CcConfig::default()
        };
        let mut chain = SimpleChain::with_cc_config(SystemKind::Fabric, config);
        chain.seed([(k("alice"), Value::from_i64(100))]);
        chain.persist_to(&dir).unwrap();
        // Block 1's record fills the first 1 KiB segment, so block 2 opens a new one; a
        // directory squatting on that segment's name makes the append fail.
        let txn = chain.execute(|ctx| ctx.write(k("big"), Value::from_bytes(vec![7u8; 1500])));
        chain.submit(txn);
        let txns = chain.cut();
        assert_eq!(chain.commit(txns).unwrap().block_number, Some(1));
        let squatter = dir.join(format!("seg-{:020}.log", 2));
        std::fs::create_dir(&squatter).unwrap();

        let txn = chain.execute(|ctx| ctx.write(k("alice"), Value::from_i64(1)));
        chain.submit(txn);
        let txns = chain.cut();
        let err = chain.commit(txns).unwrap_err();
        assert!(matches!(err, LedgerError::Io { .. }), "got {err}");
        assert_eq!(chain.ledger().height(), 1);

        // The store already holds block 2's write: nothing may be appended on top of it.
        std::fs::remove_dir(&squatter).unwrap();
        let txn = chain.execute(|ctx| ctx.write(k("bob"), Value::from_i64(1)));
        chain.submit(txn);
        let txns = chain.cut();
        let err = chain.commit(txns).unwrap_err();
        assert!(matches!(err, LedgerError::Chain(_)), "got {err}");
        assert!(chain.commit(Vec::new()).is_err());
        assert_eq!(chain.ledger().height(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn execute_at_reproduces_stale_snapshot_aborts_in_fabric() {
        let mut chain = transfer_chain(SystemKind::Fabric);
        let alice = k("alice");
        // Commit a block that bumps alice.
        let txn = chain.execute(|ctx| {
            let a = ctx.read_balance(&k("alice"));
            ctx.write(k("alice"), Value::from_i64(a + 1));
        });
        assert!(chain.submit(txn).is_accept());
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

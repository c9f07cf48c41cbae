//! The common interface every evaluated system implements, plus the shared peer-side MVCC
//! validation routine.
//!
//! The paper compares five systems that differ only in their concurrency control: vanilla
//! Fabric, Fabric++, FabricSharp, Focc-s and Focc-l. The `SimpleChain` node drives all of them
//! through this trait — for the examples, the tests and the simulator alike — so every
//! experiment exercises exactly the same pipeline with only the CC swapped out, mirroring how
//! the paper implemented each variant inside the same Fabric codebase.

use eov_common::abort::AbortReason;
use eov_common::config::CcConfig;
use eov_common::hash::FoldState;
use eov_common::rwset::{Key, Value};
use eov_common::txn::{CommitDecision, Transaction, TxnStatus};
use eov_common::version::SeqNo;
use fabricsharp_core::theory::figure2a_fixture;
use std::collections::HashMap;

// The shared commit semantics live in `fabricsharp_core::commit`; re-exported here because
// every baseline and the chain facade import them through this module.
pub use fabricsharp_core::commit::{apply_without_validation, mvcc_validate_and_apply};

/// Which of the paper's five systems a concurrency control implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Vanilla Hyperledger Fabric v1.3: no orderer-side logic, MVCC validation at the peers.
    Fabric,
    /// Fabric++ (Sharma et al.): early abort of cross-block reads plus within-block reordering.
    FabricPlusPlus,
    /// FabricSharp — the paper's contribution.
    FabricSharp,
    /// Focc-s: the standard serializable-OCC approach (Cahill et al.) — abort on concurrent
    /// write-write conflicts or dangerous rw structures at arrival.
    FoccS,
    /// Focc-l: Ding et al.'s sort-based greedy batch reordering at block formation.
    FoccL,
}

impl SystemKind {
    /// Display name matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::Fabric => "Fabric",
            SystemKind::FabricPlusPlus => "Fabric++",
            SystemKind::FabricSharp => "Fabric#",
            SystemKind::FoccS => "Focc-s",
            SystemKind::FoccL => "Focc-l",
        }
    }

    /// All five systems, in the order the paper's legends list them.
    pub fn all() -> [SystemKind; 5] {
        [
            SystemKind::Fabric,
            SystemKind::FabricPlusPlus,
            SystemKind::FabricSharp,
            SystemKind::FoccS,
            SystemKind::FoccL,
        ]
    }

    /// Builds a boxed concurrency-control instance for this system.
    pub fn build(self, cc_config: CcConfig) -> Box<dyn ConcurrencyControl> {
        match self {
            SystemKind::Fabric => Box::new(crate::fabric::FabricCC::default()),
            SystemKind::FabricPlusPlus => Box::new(crate::fabricpp::FabricPlusPlusCC::default()),
            SystemKind::FabricSharp => Box::new(fabricsharp_core::FabricSharpCC::new(cc_config)),
            SystemKind::FoccS => Box::new(crate::focc_s::FoccSerializableCC::new()),
            SystemKind::FoccL => Box::new(crate::focc_l::FoccLightCC::default()),
        }
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Table 1: drives Txn2–Txn5 of Figure 2a ([`figure2a_fixture`]) through `system` as block 3
/// and returns the ids that commit, in block order.
pub fn table1_commits(system: SystemKind) -> Vec<u64> {
    let (mut store, txns) = figure2a_fixture();
    let mut cc = system.build(CcConfig::default());
    // Teach the controller about the block-2 writer so dependency analysis sees the committed
    // state of Figure 2a (the paper's orderers observed blocks 1 and 2 live).
    let mut block2_writer = Transaction::from_parts(
        90,
        1,
        [],
        [
            (Key::new("B"), Value::from_i64(201)),
            (Key::new("C"), Value::from_i64(201)),
        ],
    );
    block2_writer.end_ts = Some(SeqNo::new(2, 1));
    cc.on_block_committed(2, &[(block2_writer, TxnStatus::Committed)]);
    for txn in txns {
        if cc.on_endorsement(&txn, store.last_block()).is_accept() {
            let _ = cc.on_arrival(txn);
        }
    }
    let block = cc.cut_block();
    let statuses = if cc.needs_peer_validation() {
        mvcc_validate_and_apply(&mut store, 3, &block)
    } else {
        vec![TxnStatus::Committed; block.len()]
    };
    block
        .iter()
        .zip(statuses)
        .filter(|(_, status)| status.is_committed())
        .map(|(txn, _)| txn.id.0)
        .collect()
}

/// The in-block conflict graph Fabric++ and Focc-l reorder by: entry `r` lists the positions of
/// the transactions in `txns` that write a key transaction `r` reads (edge reader → writer: the
/// reader must come first to pass validation). Writers appear in block order, each once per key
/// of its write set that `r` reads.
pub(crate) fn reader_to_writers(txns: &[Transaction]) -> Vec<Vec<usize>> {
    // A read set holds each key once, so each reader is listed once per key.
    let mut readers: HashMap<&Key, Vec<usize>, FoldState> = HashMap::default();
    for (r, reader) in txns.iter().enumerate() {
        for key in reader.read_set.keys() {
            readers.entry(key).or_default().push(r);
        }
    }
    let mut writers = vec![Vec::new(); txns.len()];
    for (w, writer) in txns.iter().enumerate() {
        for key in writer.write_set.keys() {
            for &r in readers.get(key).map_or(&[][..], Vec::as_slice) {
                if r != w {
                    writers[r].push(w);
                }
            }
        }
    }
    writers
}

/// The orderer/peer-side concurrency-control interface shared by all five systems.
pub trait ConcurrencyControl {
    /// Which system this is.
    fn kind(&self) -> SystemKind;

    /// Peer-side early-abort decision taken when the endorsement result is about to be
    /// submitted. `latest_block` is the height of the last block committed at that moment;
    /// Fabric++ uses it to abort simulations that read across blocks.
    fn on_endorsement(&mut self, _txn: &Transaction, _latest_block: u64) -> CommitDecision {
        CommitDecision::Accept
    }

    /// Orderer-side decision when the transaction is delivered by consensus.
    fn on_arrival(&mut self, txn: Transaction) -> CommitDecision;

    /// Number of transactions accepted and waiting for the next block.
    fn pending_len(&self) -> usize;

    /// Forms the next block: returns the transactions in final commit order. An empty return
    /// means no block: nothing was pending, or everything was dropped. Slots are not this
    /// method's to assign: [`eov_ledger::Block::build`] gives entry `i` the slot
    /// `(block, i + 1)`, and `on_block_committed` sees the block's entries in that order.
    /// (Fabric# stamps the same slots at formation, which its conflict index needs.)
    fn cut_block(&mut self) -> Vec<Transaction>;

    /// Whether peers must still run MVCC validation on delivered blocks. FabricSharp returns
    /// `false` — its ordering guarantees serializability.
    fn needs_peer_validation(&self) -> bool {
        true
    }

    /// Notifies the CC of the validation outcome of a delivered block so it can track the
    /// latest committed versions (used by the baselines for staleness checks). `outcome` lists
    /// the block's entries in order, so entry `i` committed at slot `(block_no, i + 1)`.
    fn on_block_committed(&mut self, _block_no: u64, _outcome: &[(Transaction, TxnStatus)]) {}

    /// Early aborts performed by this CC so far: each reason with a non-zero count, in
    /// [`AbortReason::ALL`] order.
    fn early_aborts(&self) -> Vec<(AbortReason, u64)> {
        Vec::new()
    }

    /// Mean dependency-graph hops per arrival (Figure 13 right); zero for systems that do not
    /// maintain a graph.
    fn avg_hops(&self) -> f64 {
        0.0
    }

    /// How many accepted transactions rode the template fast path (skipping the dependency
    /// graph); zero for systems without one. The simulator reports it, so the count of
    /// `Safe`-tagged arrivals can be checked against runtime behaviour.
    fn fastpath_accepted(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::rwset::{Key, Value};
    use eov_common::version::SeqNo;
    use eov_vstore::MultiVersionStore;

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    fn seeded_store() -> MultiVersionStore {
        let mut store = MultiVersionStore::new();
        store.seed_genesis([(k("A"), Value::from_i64(1)), (k("B"), Value::from_i64(2))]);
        store
    }

    #[test]
    fn labels_and_enumeration() {
        assert_eq!(SystemKind::FabricSharp.label(), "Fabric#");
        assert_eq!(SystemKind::all().len(), 5);
        assert_eq!(SystemKind::FoccS.to_string(), "Focc-s");
    }

    #[test]
    fn every_system_can_be_built() {
        for kind in SystemKind::all() {
            let cc = kind.build(CcConfig::default());
            assert_eq!(cc.kind(), kind);
            assert_eq!(cc.pending_len(), 0);
            // FabricSharp is the only system that skips peer validation.
            assert_eq!(cc.needs_peer_validation(), kind != SystemKind::FabricSharp);
        }
    }

    #[test]
    fn mvcc_validation_rejects_stale_reads_and_applies_fresh_ones() {
        let mut store = seeded_store();
        // txn1 read A at its genesis version (0,1) — valid. txn2 read A at a wrong version.
        let fresh = Transaction::from_parts(
            1,
            0,
            [(k("A"), SeqNo::new(0, 1))],
            [(k("A"), Value::from_i64(10))],
        );
        let stale = Transaction::from_parts(
            2,
            0,
            [(k("A"), SeqNo::new(0, 1))], // now stale: txn1 just rewrote A in this block
            [(k("B"), Value::from_i64(20))],
        );
        let statuses = mvcc_validate_and_apply(&mut store, 1, &[fresh, stale]);
        assert_eq!(statuses[0], TxnStatus::Committed);
        assert_eq!(statuses[1], TxnStatus::Aborted(AbortReason::StaleRead));
        assert_eq!(store.latest_value(&k("A")).unwrap().as_i64(), Some(10));
        assert_eq!(store.latest_value(&k("B")).unwrap().as_i64(), Some(2));
        assert_eq!(store.last_block(), 1);
    }

    #[test]
    fn validation_of_missing_key_reads() {
        let mut store = seeded_store();
        // Reading a key that does not exist is recorded at version (0,0); it stays valid as
        // long as nobody creates the key first.
        let reader = Transaction::from_parts(
            1,
            0,
            [(k("new"), SeqNo::zero())],
            [(k("C"), Value::from_i64(1))],
        );
        let statuses = mvcc_validate_and_apply(&mut store, 1, &[reader]);
        assert_eq!(statuses[0], TxnStatus::Committed);
    }

    #[test]
    fn apply_without_validation_commits_everything() {
        let mut store = seeded_store();
        let t1 = Transaction::from_parts(
            1,
            0,
            [(k("A"), SeqNo::new(9, 9))],
            [(k("A"), Value::from_i64(5))],
        );
        let statuses = apply_without_validation(&mut store, 1, &[t1]);
        assert_eq!(statuses, vec![TxnStatus::Committed]);
        assert_eq!(store.latest_value(&k("A")).unwrap().as_i64(), Some(5));
    }

    /// Builds a transaction whose reads name `(key, block, seq)` versions.
    fn txn(id: u64, snapshot: u64, reads: &[(&str, u64, u32)], writes: &[&str]) -> Transaction {
        Transaction::from_parts(
            id,
            snapshot,
            reads.iter().map(|&(key, b, s)| (k(key), SeqNo::new(b, s))),
            writes
                .iter()
                .map(|key| (k(key), Value::from_i64(id as i64))),
        )
    }

    #[test]
    fn reader_to_writers_lists_writers_in_block_order_once_per_shared_key() {
        let block = [
            txn(1, 0, &[("A", 0, 1), ("B", 0, 2)], &["C"]),
            txn(2, 0, &[("C", 0, 3)], &["A", "B"]),
            txn(3, 0, &[("A", 0, 1)], &["A"]),
            txn(4, 0, &[], &["B", "C"]),
        ];
        // Txn 3 reads and writes A: a transaction is never its own writer.
        let expected: Vec<Vec<usize>> = vec![vec![1, 1, 2, 3], vec![0, 3], vec![1], vec![]];
        assert_eq!(reader_to_writers(&block), expected);
    }

    /// Drives a fresh instance of `kind` into two or three early-abort reasons and returns
    /// its `early_aborts()`.
    fn early_aborts_after_conflicts(kind: SystemKind) -> Vec<(AbortReason, u64)> {
        let mut cc = kind.build(CcConfig {
            max_span: 1,
            ..CcConfig::default()
        });
        match kind {
            SystemKind::FabricPlusPlus => {
                // A simulation that saw block 1 commit is a cross-block read.
                let _ = cc.on_endorsement(&txn(1, 0, &[("A", 0, 1)], &[]), 1);
                // Block 1 overwrites A, so txn 3's genesis read of A is stale at the next cut,
                // where txns 4 and 5 read what the other writes: an in-block cycle.
                let _ = cc.on_arrival(txn(2, 0, &[], &["A"]));
                let outcome: Vec<(Transaction, TxnStatus)> = cc
                    .cut_block()
                    .into_iter()
                    .map(|t| (t, TxnStatus::Committed))
                    .collect();
                cc.on_block_committed(1, &outcome);
                let _ = cc.on_arrival(txn(3, 1, &[("A", 0, 1)], &[]));
                let _ = cc.on_arrival(txn(4, 1, &[("B", 0, 2)], &["C"]));
                let _ = cc.on_arrival(txn(5, 1, &[("C", 0, 3)], &["B"]));
                cc.cut_block();
            }
            SystemKind::FoccS => {
                let _ = cc.on_arrival(txn(1, 0, &[], &["H"]));
                let _ = cc.on_arrival(txn(2, 0, &[], &["H"]));
                // Txn 5 reads what txn 4 writes and writes what txn 3 reads: a pivot.
                let _ = cc.on_arrival(txn(3, 0, &[("A", 0, 1)], &["B"]));
                let _ = cc.on_arrival(txn(4, 0, &[("B", 0, 2)], &["C"]));
                let _ = cc.on_arrival(txn(5, 0, &[("C", 0, 3)], &["A"]));
            }
            SystemKind::FabricSharp => {
                // With `max_span` 1, a block-0 snapshot is too old for block 1.
                let _ = cc.on_arrival(txn(1, 0, &[], &["A"]));
                // Write skew: rw edges both ways and no c-ww edge to reorder by.
                let _ = cc.on_arrival(txn(2, 1, &[("A", 0, 1)], &["B"]));
                let _ = cc.on_arrival(txn(3, 1, &[("B", 0, 2)], &["A"]));
            }
            SystemKind::Fabric | SystemKind::FoccL => {}
        }
        cc.early_aborts()
    }

    #[test]
    fn early_aborts_are_listed_in_declaration_order() {
        use AbortReason::*;
        let expected = [
            (
                SystemKind::FabricPlusPlus,
                vec![(StaleRead, 1), (CrossBlockRead, 1), (InBlockCycle, 1)],
            ),
            (
                SystemKind::FoccS,
                vec![(ConcurrentWriteWrite, 1), (DangerousStructure, 1)],
            ),
            (
                SystemKind::FabricSharp,
                vec![(SnapshotTooOld, 1), (UnreorderableCycle, 1)],
            ),
        ];
        // Each instance once hashed its counts with its own seed; eight fresh builds would
        // have listed them in more than one order.
        for _ in 0..8 {
            for (kind, aborts) in &expected {
                assert_eq!(&early_aborts_after_conflicts(*kind), aborts, "{kind}");
            }
        }
    }
}

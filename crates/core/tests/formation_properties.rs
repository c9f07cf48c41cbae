//! Property-based tests of the FabricSharp controller itself (Algorithms 2, 3 and 5), driven
//! directly — no simulator, no chain — with randomly generated read/write sets. The invariants
//! checked here are the paper's correctness core:
//!
//! 1. every block the controller cuts is serializable on its own and in sequence;
//! 2. the dependency graph stays acyclic (exactly, not just probabilistically);
//! 3. the commit order of each block respects every recorded dependency (anti-rw readers are
//!    serialized before the writers that overwrite their reads);
//! 4. nothing is lost or duplicated: accepted transactions appear in exactly one block.

use eov_common::config::CcConfig;
use eov_common::rwset::{Key, Value};
use eov_common::txn::{TemplateClass, Transaction, TxnId};
use eov_common::version::SeqNo;
use eov_vstore::MultiVersionStore;
use fabricsharp_core::serializability::is_serializable;
use fabricsharp_core::FabricSharpCC;
use proptest::prelude::*;
use std::collections::HashSet;

/// A compact transaction description over a small key universe.
#[derive(Clone, Debug)]
struct Shape {
    reads: Vec<u8>,
    writes: Vec<u8>,
    /// How many blocks behind the controller's current block the snapshot pretends to be.
    snapshot_lag: u64,
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (
        proptest::collection::vec(0u8..8, 0..4),
        proptest::collection::vec(0u8..8, 0..4),
        0u64..3,
    )
        .prop_map(|(reads, writes, snapshot_lag)| Shape {
            reads,
            writes,
            snapshot_lag,
        })
}

/// Materialises a transaction the way an endorsing peer would: the snapshot block is the
/// controller's previous block minus the requested lag, and every read records the version
/// actually visible at that snapshot in the shadow state store (genesis `(0,0)` if the key has
/// never been written).
fn materialise(id: u64, shape: &Shape, next_block: u64, store: &MultiVersionStore) -> Transaction {
    let snapshot = next_block.saturating_sub(1 + shape.snapshot_lag);
    Transaction::from_parts(
        id,
        snapshot,
        shape.reads.iter().map(|r| {
            let key = Key::new(format!("k{r}"));
            let version = store
                .read_at(&key, snapshot)
                .ok()
                .flatten()
                .map(|vv| vv.version)
                .unwrap_or(SeqNo::zero());
            (key, version)
        }),
        shape
            .writes
            .iter()
            .map(|w| (Key::new(format!("k{w}")), Value::from_i64(id as i64))),
    )
}

/// Applies a cut block's writes to the shadow store at the slots the controller assigned.
fn apply_block(store: &mut MultiVersionStore, block: &[Transaction]) {
    if let Some(first) = block.first() {
        let block_no = first.end_ts.expect("cut transactions carry slots").block;
        for txn in block {
            let slot = txn.end_ts.expect("cut transactions carry slots");
            for write in txn.write_set.iter() {
                store.put(&write.key, slot, write.value.clone());
            }
        }
        store.commit_empty_block(block_no);
    }
}

/// One transaction of a randomized template mix that obeys the static-safety contract of
/// `eov_workload::templates`: safe read-only transactions read only the `ro*` family, which no
/// transaction ever writes; safe fresh-writers write one previously-unused key nobody else
/// touches; tracked transactions do arbitrary reads/writes over the contended `k*` pool.
#[derive(Clone, Debug)]
enum MixOp {
    SafeRead { keys: Vec<u8>, snapshot_lag: u64 },
    SafeFresh { snapshot_lag: u64 },
    Tracked(Shape),
}

fn mix_strategy() -> impl Strategy<Value = MixOp> {
    prop_oneof![
        2 => (proptest::collection::vec(0u8..6, 1..4), 0u64..6)
            .prop_map(|(keys, snapshot_lag)| MixOp::SafeRead { keys, snapshot_lag }),
        1 => (0u64..6).prop_map(|snapshot_lag| MixOp::SafeFresh { snapshot_lag }),
        3 => shape_strategy().prop_map(MixOp::Tracked),
    ]
}

/// Materialises a mix transaction exactly like [`materialise`], tagging the statically safe
/// shapes with [`TemplateClass::Safe`] when `tagged` — the reference side leaves every tag
/// `Unknown`, which sends the same transactions down the full path.
fn materialise_mix(
    id: u64,
    op: &MixOp,
    next_block: u64,
    store: &MultiVersionStore,
    tagged: bool,
) -> Transaction {
    let safe = if tagged {
        TemplateClass::Safe
    } else {
        TemplateClass::Unknown
    };
    match op {
        MixOp::SafeRead { keys, snapshot_lag } => {
            let snapshot = next_block.saturating_sub(1 + snapshot_lag);
            Transaction::from_parts(
                id,
                snapshot,
                keys.iter()
                    .map(|r| (Key::new(format!("ro{r}")), SeqNo::zero())),
                [],
            )
            .with_template_class(safe)
        }
        MixOp::SafeFresh { snapshot_lag } => {
            let snapshot = next_block.saturating_sub(1 + snapshot_lag);
            Transaction::from_parts(
                id,
                snapshot,
                [],
                [(Key::new(format!("fresh{id}")), Value::from_i64(id as i64))],
            )
            .with_template_class(safe)
        }
        MixOp::Tracked(shape) => materialise(id, shape, next_block, store),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn template_fastpath_is_bit_identical_to_the_reference(
        ops in proptest::collection::vec(mix_strategy(), 1..100),
        block_size in 3usize..12,
    ) {
        // The same randomized, contract-obeying stream drives a controller fed the safe tags
        // and a reference controller fed the stream untagged: every arrival verdict, every
        // block's commit order, every slot, and the cross-run statistics must agree bit for
        // bit.
        let config = CcConfig {
            max_span: 4,
            ..CcConfig::default()
        };
        let mut fast = FabricSharpCC::new(config);
        let mut reference = FabricSharpCC::new(config);
        let mut store_fast = MultiVersionStore::new();
        let mut store_ref = MultiVersionStore::new();

        let compare_cut = |fast: &mut FabricSharpCC,
                               reference: &mut FabricSharpCC,
                               store_fast: &mut MultiVersionStore,
                               store_ref: &mut MultiVersionStore| {
            let cut_fast = fast.cut_block();
            let cut_ref = reference.cut_block();
            let slots_fast: Vec<(TxnId, Option<SeqNo>)> =
                cut_fast.iter().map(|t| (t.id, t.end_ts)).collect();
            let slots_ref: Vec<(TxnId, Option<SeqNo>)> =
                cut_ref.iter().map(|t| (t.id, t.end_ts)).collect();
            prop_assert_eq!(slots_fast, slots_ref, "commit order diverged");
            apply_block(store_fast, &cut_fast);
            apply_block(store_ref, &cut_ref);
        };

        for (i, op) in ops.iter().enumerate() {
            let id = i as u64 + 1;
            let txn_fast = materialise_mix(id, op, fast.next_block(), &store_fast, true);
            let txn_ref = materialise_mix(id, op, reference.next_block(), &store_ref, false);
            let verdict_fast = fast.on_arrival(txn_fast).is_accept();
            let verdict_ref = reference.on_arrival(txn_ref).is_accept();
            prop_assert_eq!(
                verdict_fast, verdict_ref,
                "verdict diverged at txn {}", id
            );
            if fast.pending_len() >= block_size {
                compare_cut(&mut fast, &mut reference, &mut store_fast, &mut store_ref);
            }
        }
        compare_cut(&mut fast, &mut reference, &mut store_fast, &mut store_ref);

        // The hop counts agree too (safe transactions are dependency-free, so they contribute
        // zero on both paths). Only the graph size may differ — the fast path exists to keep
        // safe transactions out of the graph.
        prop_assert_eq!(fast.stats().total_hops, reference.stats().total_hops);
        prop_assert!(fast.graph().len() <= reference.graph().len());
        prop_assert_eq!(reference.stats().fastpath_accepted, 0);
    }

    #[test]
    fn blocks_are_serializable_and_respect_dependencies(
        shapes in proptest::collection::vec(shape_strategy(), 1..80),
        block_size in 3usize..15,
    ) {
        let mut cc = FabricSharpCC::new(CcConfig::default());
        let mut store = MultiVersionStore::new();
        let mut accepted: HashSet<u64> = HashSet::new();
        let mut all_blocks: Vec<Vec<Transaction>> = Vec::new();

        for (i, shape) in shapes.iter().enumerate() {
            let id = i as u64 + 1;
            let txn = materialise(id, shape, cc.next_block(), &store);
            if cc.on_arrival(txn).is_accept() {
                accepted.insert(id);
            }
            prop_assert!(cc.graph().is_acyclic_exact(), "graph must stay acyclic after every arrival");
            if cc.pending_len() >= block_size {
                let block = cc.cut_block();
                apply_block(&mut store, &block);
                all_blocks.push(block);
            }
        }
        let tail = cc.cut_block();
        if !tail.is_empty() {
            apply_block(&mut store, &tail);
            all_blocks.push(tail);
        }

        // (4) Every accepted transaction appears in exactly one block.
        let mut seen: HashSet<u64> = HashSet::new();
        for block in &all_blocks {
            for txn in block {
                prop_assert!(seen.insert(txn.id.0), "transaction {} appears twice", txn.id.0);
            }
        }
        prop_assert_eq!(&seen, &accepted);

        // (1) The concatenated committed history is serializable.
        let history: Vec<Transaction> = all_blocks.iter().flatten().cloned().collect();
        prop_assert!(is_serializable(&history), "committed history must be serializable");

        // (3) Within each block, a transaction that read a key is never placed after a pending
        // writer of that key that it was known to precede: check slots are strictly increasing
        // and that every block is serializable in isolation too.
        for block in &all_blocks {
            for pair in block.windows(2) {
                prop_assert!(pair[0].end_ts < pair[1].end_ts);
            }
            prop_assert!(is_serializable(block));
        }
    }

    #[test]
    fn graph_stays_bounded_by_pruning(
        shapes in proptest::collection::vec(shape_strategy(), 20..120),
    ) {
        // With max_span = 3 the graph can only retain a few blocks' worth of committed
        // transactions, no matter how long the run is.
        let mut cc = FabricSharpCC::new(CcConfig {
            max_span: 3,
            ..CcConfig::default()
        });
        let mut store = MultiVersionStore::new();
        let mut max_graph = 0usize;
        for (i, shape) in shapes.iter().enumerate() {
            let id = i as u64 + 1;
            let txn = materialise(id, shape, cc.next_block(), &store);
            let _ = cc.on_arrival(txn);
            if cc.pending_len() >= 5 {
                let block = cc.cut_block();
                apply_block(&mut store, &block);
            }
            max_graph = max_graph.max(cc.graph().len());
        }
        // Bound: pending (≤5) plus a few blocks of committed history plus slack. The exact
        // constant is irrelevant; what matters is that it does not grow with the input length.
        prop_assert!(
            max_graph <= 5 + 5 * 6,
            "graph grew to {max_graph} nodes despite pruning"
        );
    }

    #[test]
    fn arrival_decisions_are_replica_deterministic(
        shapes in proptest::collection::vec(shape_strategy(), 1..60),
    ) {
        // Two controllers fed the identical stream make identical decisions and cut identical
        // blocks — the agreement requirement of Section 3.5 at the CC level.
        let build = || FabricSharpCC::new(CcConfig::default());
        let mut a = build();
        let mut b = build();
        let mut store_a = MultiVersionStore::new();
        let mut store_b = MultiVersionStore::new();
        let mut decisions_a = Vec::new();
        let mut decisions_b = Vec::new();
        for (i, shape) in shapes.iter().enumerate() {
            let id = i as u64 + 1;
            let txn_a = materialise(id, shape, a.next_block(), &store_a);
            let txn_b = materialise(id, shape, b.next_block(), &store_b);
            decisions_a.push(a.on_arrival(txn_a).is_accept());
            decisions_b.push(b.on_arrival(txn_b).is_accept());
            if a.pending_len() >= 7 {
                let cut_a = a.cut_block();
                let cut_b = b.cut_block();
                apply_block(&mut store_a, &cut_a);
                apply_block(&mut store_b, &cut_b);
                let block_a: Vec<TxnId> = cut_a.iter().map(|t| t.id).collect();
                let block_b: Vec<TxnId> = cut_b.iter().map(|t| t.id).collect();
                prop_assert_eq!(block_a, block_b);
            }
        }
        prop_assert_eq!(decisions_a, decisions_b);
    }
}

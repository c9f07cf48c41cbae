//! Old-vs-new equivalence harness for the dense reachability engine.
//!
//! The PR that introduced interned slots, epoch-tagged visited sets and the O(V+E) pending
//! topological sort promised *bit-for-bit identical behaviour* — same commit orders, same
//! (bloom-false-positive-included) abort verdicts, same reachability answers. This suite
//! drives random interleavings of build / commit / remove / prune / rebuild operations through
//! the production [`DependencyGraph`] and the retained naive reference ([`NaiveGraph`],
//! essentially the seed implementation) side by side and asserts that every observable agrees:
//!
//! * `topo_sort_pending` output (the commit order — the ledger-identity-critical one),
//! * `would_close_cycle` verdicts, including the `confirmed_exact` classification,
//! * `reaches_exact` for every tracked pair,
//! * insert hop counts (the Figure 13 statistic),
//! * pending arrival order and the tracked node set.

use eov_common::config::CcConfig;
use eov_common::txn::TxnId;
use eov_common::version::SeqNo;
use eov_depgraph::{DependencyGraph, NaiveGraph, PendingTxnSpec};
use proptest::prelude::*;

const ID_SPACE: u64 = 24;

/// One step of the random workload.
#[derive(Clone, Debug)]
enum Op {
    /// Try to insert `id` with the given candidate predecessor/successor ids (only applied if
    /// both engines agree the insertion keeps the graph acyclic — mirroring Algorithm 2).
    Insert {
        id: u64,
        preds: Vec<u64>,
        succs: Vec<u64>,
    },
    /// Commit the `nth` pending transaction (modulo the pending count).
    Commit { nth: usize },
    /// Remove the `nth` pending transaction entirely.
    Remove { nth: usize },
    /// Prune committed nodes older than `threshold`.
    Prune { threshold: u64 },
    /// Rebuild every reachability filter from the current edges.
    Rebuild,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (
            0..ID_SPACE,
            proptest::collection::vec(0..ID_SPACE, 0..4),
            proptest::collection::vec(0..ID_SPACE, 0..3),
        )
            .prop_map(|(id, preds, succs)| Op::Insert { id, preds, succs }),
        2 => (0usize..16).prop_map(|nth| Op::Commit { nth }),
        1 => (0usize..16).prop_map(|nth| Op::Remove { nth }),
        1 => (0u64..8).prop_map(|threshold| Op::Prune { threshold }),
        1 => Just(Op::Rebuild),
    ]
}

fn spec(id: u64) -> PendingTxnSpec {
    PendingTxnSpec {
        id: TxnId(id),
        start_ts: SeqNo::snapshot_after(0),
    }
}

/// Applies `ops` to both engines, asserting agreement after every step and a deep
/// reachability/verdict comparison at the end.
fn run_equivalence(config: CcConfig, ops: Vec<Op>) {
    let mut engine = DependencyGraph::new(config);
    let mut naive = NaiveGraph::new(config);
    let mut next_block = 1u64;

    for op in ops {
        match op {
            Op::Insert { id, preds, succs } => {
                // Duplicate ids are applied on purpose: re-inserting a tracked transaction is
                // a contract-level no-op in both engines (hops 0, nothing disturbed), which
                // the step assertions below verify.
                let preds: Vec<TxnId> = preds.into_iter().map(TxnId).collect();
                let succs: Vec<TxnId> = succs.into_iter().map(TxnId).collect();

                // Both cycle tests must agree bit-for-bit (including the exact-confirmation
                // classification that distinguishes bloom false positives).
                let engine_verdict = engine.would_close_cycle(&preds, &succs);
                let naive_verdict = naive.would_close_cycle(&preds, &succs);
                prop_assert_eq!(
                    engine_verdict,
                    naive_verdict,
                    "cycle verdicts diverge for preds {:?} succs {:?}",
                    &preds,
                    &succs
                );
                if !engine_verdict.is_acyclic() {
                    continue;
                }

                let report = engine.insert_pending(spec(id), &preds, &succs, next_block);
                let naive_hops = naive.insert_pending(spec(id), &preds, &succs, next_block);
                prop_assert_eq!(
                    report.hops,
                    naive_hops,
                    "hop counts diverge on insert {}",
                    id
                );
            }
            Op::Commit { nth } => {
                let pending = engine.pending_ids();
                if pending.is_empty() {
                    continue;
                }
                let id = pending[nth % pending.len()];
                let slot = SeqNo::new(next_block, 1);
                engine.mark_committed(id, slot);
                naive.mark_committed(id, slot);
                next_block += 1;
            }
            Op::Remove { nth } => {
                let pending = engine.pending_ids();
                if pending.is_empty() {
                    continue;
                }
                let id = pending[nth % pending.len()];
                engine.remove(id);
                naive.remove(id);
            }
            Op::Prune { threshold } => {
                let mut engine_pruned = engine.prune_stale(threshold);
                engine_pruned.sort();
                let naive_pruned = naive.prune_stale(threshold);
                prop_assert_eq!(engine_pruned, naive_pruned, "prune victims diverge");
            }
            Op::Rebuild => {
                let engine_rebuilt = engine.rebuild_reachability();
                let naive_rebuilt = naive.rebuild_reachability();
                prop_assert_eq!(engine_rebuilt, naive_rebuilt, "rebuild counts diverge");
            }
        }

        // Invariants checked after every step.
        prop_assert_eq!(
            engine.pending_ids(),
            naive.pending_ids(),
            "pending order diverges"
        );
        prop_assert_eq!(engine.len(), naive.len(), "tracked node counts diverge");
        prop_assert_eq!(
            engine.topo_sort_pending(),
            naive.topo_sort_pending(),
            "commit orders diverge"
        );
    }

    // Final deep comparison: every reachability fact and a probe matrix of cycle verdicts.
    for a in 0..ID_SPACE {
        prop_assert_eq!(
            engine.contains(TxnId(a)),
            naive.contains(TxnId(a)),
            "tracked set diverges at {}",
            a
        );
        for b in 0..ID_SPACE {
            prop_assert_eq!(
                engine.reaches_exact(TxnId(a), TxnId(b)),
                naive.reaches_exact(TxnId(a), TxnId(b)),
                "reaches_exact diverges for {} -> {}",
                a,
                b
            );
        }
    }
    for a in 0..ID_SPACE {
        for b in 0..ID_SPACE {
            let probe_preds = [TxnId(a)];
            let probe_succs = [TxnId(b)];
            prop_assert_eq!(
                engine.would_close_cycle(&probe_preds, &probe_succs),
                naive.would_close_cycle(&probe_preds, &probe_succs),
                "probe cycle verdict diverges for pred {} succ {}",
                a,
                b
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Equivalence with exact reachability shadowing enabled (the configuration every test
    /// oracle runs with): commit orders, hop counts, prune victims, rebuild counts, pending
    /// order, reachability answers and exact-confirmed cycle verdicts all match the retained
    /// naive implementation on random interleavings.
    #[test]
    fn engine_matches_naive_reference_with_exact_tracking(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        run_equivalence(
            CcConfig {
                track_exact_reachability: true,
                ..CcConfig::default()
            },
            ops,
        );
    }

    /// Equivalence in the production configuration (bloom filters only). Verdicts carry
    /// `confirmed_exact: None`, and any bloom false positive must appear in both engines —
    /// the filters are built from identical member sets, so their bits are identical.
    #[test]
    fn engine_matches_naive_reference_bloom_only(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        run_equivalence(CcConfig::default(), ops);
    }

    /// Small-bloom stress: 64-bit filters saturate quickly, so false positives are common —
    /// exactly the regime where a divergence between the prehashed probe path and the naive
    /// per-pair probe would show up.
    #[test]
    fn engine_matches_naive_reference_under_bloom_saturation(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        run_equivalence(
            CcConfig {
                bloom_bits: 64,
                bloom_hashes: 2,
                track_exact_reachability: true,
                ..CcConfig::default()
            },
            ops,
        );
    }
}

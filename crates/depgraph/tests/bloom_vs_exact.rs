//! Property tests pitting the bloom-filter reachability representation against the exact
//! answer: a DFS over the graph's successor edges (`reaches_exact`).
//!
//! The contract under test (Section 4.4 of the paper): the bloom filter is a conservative
//! over-approximation of true reachability. Cycle verdicts derived from it may therefore
//! differ from the exact answer only in one direction — a bloom *false positive* turns a
//! genuinely acyclic insertion into a preventive abort — and never report "acyclic" for a
//! real cycle (a false negative would let a non-serializable schedule through).

use eov_common::config::CcConfig;
use eov_common::txn::TxnId;
use eov_depgraph::graph::DependencyGraph;
use proptest::prelude::*;
use proptest::sample::Index;

/// One randomly generated insertion: which existing nodes become predecessors / successors.
type InsertOp = (Vec<Index>, Vec<Index>);

fn insert_ops() -> impl Strategy<Value = Vec<InsertOp>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(any::<Index>(), 0..4),
            proptest::collection::vec(any::<Index>(), 0..3),
        ),
        1..40,
    )
}

/// The verdict recorded for one replayed op, together with the ground truth ("would this
/// insertion really close a cycle?") computed by DFS *at verdict time*.
struct ObservedOp {
    closes_cycle: bool,
    truly_cyclic: bool,
}

/// Replays `ops` into a graph with the given config, mimicking the orderer: each candidate is
/// inserted only if `would_close_cycle` (on that graph's own bloom filter) says it closes none,
/// so
/// the successor-edge relation stays a DAG by construction. Returns the graph and, per op,
/// the verdict observed alongside the exact DFS answer at that moment.
fn replay(config: CcConfig, ops: &[InsertOp]) -> (DependencyGraph, Vec<ObservedOp>) {
    let mut graph = DependencyGraph::new(config);
    let mut inserted: Vec<TxnId> = Vec::new();
    let mut observed = Vec::new();
    for (i, (pred_picks, succ_picks)) in ops.iter().enumerate() {
        let pick = |picks: &[Index]| -> Vec<TxnId> {
            if inserted.is_empty() {
                return vec![];
            }
            let mut seen = std::collections::HashSet::new();
            picks
                .iter()
                .map(|p| inserted[p.index(inserted.len())])
                .filter(|id| seen.insert(*id))
                .collect()
        };
        let preds = pick(pred_picks);
        let succs = pick(succ_picks);
        let closes_cycle = graph.would_close_cycle(&preds, &succs);
        // Ground truth must be evaluated now — later insertions may add paths that did not
        // exist when the verdict was taken.
        let truly_cyclic = graph.would_close_cycle_exact(&preds, &succs);
        if !closes_cycle {
            let id = TxnId(i as u64 + 1);
            graph.insert_pending(id, &preds, &succs, 1);
            inserted.push(id);
        }
        observed.push(ObservedOp {
            closes_cycle,
            truly_cyclic,
        });
    }
    (graph, observed)
}

/// A deliberately starved bloom geometry (the smallest `BloomFilter::new` builds) so that false
/// positives actually occur at these graph sizes.
fn tiny_bloom_config() -> CcConfig {
    CcConfig {
        bloom_bits: 64,
        bloom_hashes: 3,
        ..CcConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The bloom filter is a superset of the reachability the successor edges hold: whenever
    /// the DFS finds a path `a → … → b`, `b`'s filter reports `a`. A missing bloom bit would
    /// be a false negative, which the representation must never produce.
    #[test]
    fn bloom_is_a_superset_of_exact_reachability(ops in insert_ops()) {
        let (graph, _) = replay(CcConfig::default(), &ops);
        let ids: Vec<TxnId> = graph.nodes().map(|n| n.id).collect();
        for &a in &ids {
            for &b in &ids {
                if a != b && graph.reaches_exact(a, b) {
                    prop_assert!(
                        graph.node(b).unwrap().anti_reachable.contains(a.0),
                        "bloom false negative: {:?} reaches {:?} but the filter misses it", a, b
                    );
                }
            }
        }
    }

    /// Cycle verdicts misfire only toward aborting, at the default filters and at a starved
    /// 64-bit one that produces many false positives: a real cycle (some successor reaches
    /// some predecessor over the edges, or one id on both sides) is always reported, and
    /// accepting only the insertions reported cycle-free keeps the graph a DAG.
    #[test]
    fn cycle_verdicts_misfire_only_as_false_positives(ops in insert_ops()) {
        for config in [CcConfig::default(), tiny_bloom_config()] {
            let (graph, observed) = replay(config, &ops);
            for op in observed {
                // No false negatives: a real cycle must never pass the filter.
                prop_assert!(
                    op.closes_cycle || !op.truly_cyclic,
                    "bloom ({} bits) missed a real cycle", config.bloom_bits
                );
            }
            // DAG invariant: the successor-edge relation never holds a cycle.
            prop_assert!(
                graph.is_acyclic_exact(),
                "a cycle slipped past the {}-bit bloom-filter gate", config.bloom_bits
            );
        }
    }
}

/// Deterministic (non-property) check that the starved geometry really does produce at least
/// one bloom false positive somewhere in a dense insertion pattern — otherwise the starved
/// half of the property above would be testing nothing.
#[test]
fn starved_bloom_produces_observable_false_positives() {
    let mut graph = DependencyGraph::new(tiny_bloom_config());
    let mut fp_seen = false;
    // Dense chains: each new node depends on all of the previous few, saturating 64 bits.
    let mut recent: Vec<TxnId> = Vec::new();
    for next_id in 1u64..=200 {
        let id = TxnId(next_id);
        let preds: Vec<TxnId> = recent.iter().rev().take(4).copied().collect();
        assert!(
            !graph.would_close_cycle(&preds, &[]),
            "pred-only insertions never close a cycle"
        );
        graph.insert_pending(id, &preds, &[], 1);
        recent.push(id);
        // Now probe reachability pairs that are truly unreachable and count bloom hits.
        for &old in recent.iter().take(8) {
            if !graph.reaches_exact(id, old)
                && graph.node(old).unwrap().anti_reachable.contains(id.0)
            {
                fp_seen = true;
            }
        }
        if fp_seen {
            break;
        }
    }
    assert!(
        fp_seen,
        "64-bit bloom filter never produced a false positive across 200 dense insertions"
    );
}

//! Property tests pitting the bloom-filter reachability representation against the exact
//! `HashSet` shadow enabled by `CcConfig::track_exact_reachability`.
//!
//! The contract under test (Section 4.4 of the paper): the bloom filter is a conservative
//! over-approximation of true reachability. Cycle verdicts derived from it may therefore
//! differ from the exact answer only in one direction — a bloom *false positive* turns a
//! genuinely acyclic insertion into a preventive abort — and never report `Acyclic` for a
//! real cycle (a false negative would let a non-serializable schedule through).

use eov_common::config::CcConfig;
use eov_common::txn::TxnId;
use eov_depgraph::graph::{CycleCheck, DependencyGraph};
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
    verdict: CycleCheck,
    truly_cyclic: bool,
}

/// Replays `ops` into a graph with the given config, mimicking the orderer: each candidate is
/// inserted only if `would_close_cycle` (on that graph's own bloom filter) says `Acyclic`, so
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
        let verdict = graph.would_close_cycle(&preds, &succs);
        // Ground truth must be evaluated now — later insertions may add paths that did not
        // exist when the verdict was taken.
        let truly_cyclic = preds.iter().any(|&p| {
            succs.iter().any(|&s| {
                p == s || (graph.contains(p) && graph.contains(s) && graph.reaches_exact(s, p))
            })
        });
        if verdict.is_acyclic() {
            let id = TxnId(i as u64 + 1);
            graph.insert_pending(id, &preds, &succs, 1);
            inserted.push(id);
        }
        observed.push(ObservedOp {
            verdict,
            truly_cyclic,
        });
    }
    (graph, observed)
}

fn exact_config() -> CcConfig {
    CcConfig {
        track_exact_reachability: true,
        ..CcConfig::default()
    }
}

/// A deliberately starved bloom geometry (the smallest `BloomFilter::new` builds) so that false
/// positives actually occur at these graph sizes.
fn tiny_bloom_config() -> CcConfig {
    CcConfig {
        bloom_bits: 64,
        bloom_hashes: 3,
        track_exact_reachability: true,
        ..CcConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The exact shadow agrees with a from-scratch DFS over successor edges, and the bloom
    /// filter is a superset of it: whenever the DFS finds a path `a → … → b`, both the shadow
    /// and the bloom report `a` reachable-to `b`. A missing bloom bit would be a false
    /// negative, which the representation must never produce.
    #[test]
    fn bloom_is_a_superset_of_exact_reachability(ops in insert_ops()) {
        let (graph, _) = replay(exact_config(), &ops);
        let ids: Vec<TxnId> = graph.nodes().map(|n| n.id).collect();
        for &a in &ids {
            for &b in &ids {
                if a == b {
                    continue;
                }
                let node_b = graph.node(b).unwrap();
                let shadow = node_b.anti_reachable.contains_exact(a).expect("exact tracking on");
                prop_assert_eq!(
                    shadow,
                    graph.reaches_exact(a, b),
                    "exact shadow of {:?} disagrees with DFS for predecessor {:?}", b, a
                );
                if shadow {
                    prop_assert!(
                        node_b.anti_reachable.contains(a),
                        "bloom false negative: {:?} reaches {:?} but the filter misses it", a, b
                    );
                }
            }
        }
    }

    /// Cycle verdicts are sound in both directions: `Acyclic` implies no successor truly
    /// reaches any predecessor (no false negatives), and every `Cycle` verdict is correctly
    /// classified by the exact shadow — `Some(true)` iff a real path (or `p == s`) exists,
    /// `Some(false)` iff it was a bloom false positive.
    #[test]
    fn cycle_verdicts_misfire_only_as_false_positives(ops in insert_ops()) {
        let (graph, observed) = replay(exact_config(), &ops);
        for op in observed {
            match op.verdict {
                CycleCheck::Acyclic => {
                    // No false negatives: Acyclic must never be reported for a real cycle.
                    prop_assert!(!op.truly_cyclic, "bloom reported Acyclic for a real cycle");
                }
                CycleCheck::Cycle { confirmed_exact } => {
                    let confirmed = confirmed_exact.expect("exact tracking on");
                    // A confirmed cycle must really exist. The converse does not hold:
                    // `Some(false)` only classifies the first pair the filter fired on, and a
                    // different pair may still form a real cycle — either way the transaction
                    // is aborted, so serializability is preserved.
                    if confirmed {
                        prop_assert!(op.truly_cyclic, "verdict confirmed a cycle DFS cannot find");
                    }
                }
            }
        }
        // DAG invariant: accepting only Acyclic verdicts must keep the graph truly acyclic.
        let ids: Vec<TxnId> = graph.nodes().map(|n| n.id).collect();
        for &a in &ids {
            for &b in &ids {
                if a != b {
                    prop_assert!(
                        !(graph.reaches_exact(a, b) && graph.reaches_exact(b, a)),
                        "cycle {:?} <-> {:?} slipped past the bloom-filter gate", a, b
                    );
                }
            }
        }
    }

    /// Differential run: a starved 64-bit bloom filter produces (many) false-positive aborts,
    /// but still never a false negative — every verdict it reports as a *confirmed* cycle is
    /// confirmed by the generously-sized filter's exact shadow too, and its graph stays a DAG.
    #[test]
    fn starved_bloom_errs_only_toward_aborting(ops in insert_ops()) {
        let (tiny_graph, tiny_observed) = replay(tiny_bloom_config(), &ops);
        for op in &tiny_observed {
            match op.verdict {
                // Even a saturated filter must never miss a real cycle.
                CycleCheck::Acyclic => prop_assert!(!op.truly_cyclic, "starved bloom missed a real cycle"),
                CycleCheck::Cycle { confirmed_exact } => {
                    let confirmed = confirmed_exact.expect("exact tracking on");
                    if confirmed {
                        prop_assert!(op.truly_cyclic, "starved bloom confirmed a phantom cycle");
                    }
                }
            }
        }
        let ids: Vec<TxnId> = tiny_graph.nodes().map(|n| n.id).collect();
        for &a in &ids {
            for &b in &ids {
                if a != b {
                    prop_assert!(!(tiny_graph.reaches_exact(a, b) && tiny_graph.reaches_exact(b, a)));
                }
            }
        }
    }
}

/// Deterministic (non-property) check that the starved geometry really does produce at least
/// one bloom false positive somewhere in a dense insertion pattern — otherwise the
/// differential property above would be testing nothing.
#[test]
fn starved_bloom_produces_observable_false_positives() {
    let mut graph = DependencyGraph::new(tiny_bloom_config());
    let mut fp_seen = false;
    // Dense chains: each new node depends on all of the previous few, saturating 64 bits.
    let mut recent: Vec<TxnId> = Vec::new();
    for next_id in 1u64..=200 {
        let id = TxnId(next_id);
        let preds: Vec<TxnId> = recent.iter().rev().take(4).copied().collect();
        let verdict = graph.would_close_cycle(&preds, &[]);
        assert!(
            verdict.is_acyclic(),
            "pred-only insertions never close a cycle"
        );
        graph.insert_pending(id, &preds, &[], 1);
        recent.push(id);
        // Now probe reachability pairs that are truly unreachable and count bloom hits.
        for &old in recent.iter().take(8) {
            if graph.reaches_exact(id, old) {
                continue;
            }
            let old_node = graph.node(old).unwrap();
            if old_node.anti_reachable.contains(id)
                && old_node.anti_reachable.contains_exact(id) == Some(false)
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

//! An executable specification of Fabric#'s accept rule, checked at every arrival of every
//! small history.
//!
//! The paper's claim is that "unserializable transactions are aborted before ordering and the
//! remaining transactions are guaranteed to be serializable". Once Fabric# accepts `T`, `T` and
//! every transaction still pending will be committed in the next block, in some order that
//! formation picks. So an acceptance is sound only if *some* order of `pending ∪ {T}`, appended
//! to the committed history, is serializable. [`spec_accepts`] decides exactly that, by brute
//! force over the orders, with nothing but the facade's `is_serializable`: it shares no code
//! with the dependency graph or with `FabricSharpCC`.
//!
//! Every history is driven through `SimpleChain`: each transaction is endorsed `lag` blocks
//! behind the tip (`execute_at`), submitted, and optionally followed by a block cut. At every
//! Fabric# arrival the harness checks "Fabric# accepts ⇒ the specification accepts", and at the
//! end of every run that the committed history is serializable. The same history runs through
//! Fabric, Fabric++, Focc-s and Focc-l, whose committed histories must be strongly
//! serializable. A rejection the specification would have accepted is a *conservative* abort:
//! Fabric#'s rule is greedy by design, so these are counted under their `AbortReason` and
//! printed, not gated.
//!
//! * Exhaustive: every history of up to three transactions over two keys (four read sets ×
//!   three non-empty write sets), at every lag 0–2 and every cut point. Debug builds run the
//!   histories of one and two transactions (2 628 runs); optimised builds add the 186 624 runs
//!   of three.
//! * Sampled: histories of 4–40 transactions over three keys at lag 0–3, at most five
//!   transactions per block (so at most 5! orders per arrival): 20 000 at the default filters
//!   and 200 000 at 64-bit, one-hash filters with transaction ids offset by 0–2 000, so that
//!   false positives actually occur. Debug builds sample 1 000 histories of 4–15 transactions
//!   per row. Fabric# books a filter false positive as
//!   `UnreorderableCycle`, like every other positive of its cycle test, so the conservative
//!   aborts of the tiny-filter run are counted under that label.
//!
//! ```text
//! cargo test --release --test accept_rule_spec -- --nocapture   # prints the abort table
//! ```

use fabricsharp::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The keys a history may touch; a [`Shape`]'s masks index into it.
const KEYS: [&str; 3] = ["k0", "k1", "k2"];

/// One transaction of a history.
#[derive(Clone, Copy, Debug)]
struct Shape {
    /// Bit `i` set: the transaction reads `KEYS[i]`.
    reads: u8,
    /// Bit `i` set: the transaction writes `KEYS[i]` (never empty).
    writes: u8,
    /// How many blocks behind the tip the transaction is endorsed (clamped at genesis).
    lag: u64,
    /// Whether a block is cut right after this transaction is submitted. The last
    /// transaction of a history is always followed by a cut.
    cut_after: bool,
}

/// A history and the number of transaction ids burned before it starts, which moves every
/// id to a different bloom bit.
type Run = (u64, Vec<Shape>);

fn keys(mask: u8) -> impl Iterator<Item = Key> {
    (0..KEYS.len())
        .filter(move |i| mask >> i & 1 == 1)
        .map(|i| Key::new(KEYS[i]))
}

/// The specification: whether some order of `pending ∪ {t}`, given the slots
/// `(next_block, 1..)` after `committed`, makes a serializable history.
fn spec_accepts(
    committed: &[Transaction],
    pending: &[Transaction],
    t: &Transaction,
    next_block: u64,
) -> bool {
    let mut block: Vec<Transaction> = pending.iter().chain([t]).cloned().collect();
    let mut history = committed.to_vec();
    some_order(&mut block, 0, &mut |order| {
        history.truncate(committed.len());
        history.extend(order.iter().zip(1..).map(|(txn, seq)| {
            let mut txn = txn.clone();
            txn.end_ts = Some(SeqNo::new(next_block, seq));
            txn
        }));
        is_serializable(&history)
    })
}

/// Whether `holds` is true of some order of `txns` whose first `fixed` places are as given.
fn some_order(
    txns: &mut [Transaction],
    fixed: usize,
    holds: &mut impl FnMut(&[Transaction]) -> bool,
) -> bool {
    if fixed == txns.len() {
        return holds(txns);
    }
    for i in fixed..txns.len() {
        txns.swap(fixed, i);
        let found = some_order(txns, fixed + 1, holds);
        txns.swap(fixed, i);
        if found {
            return true;
        }
    }
    false
}

fn seeded_chain(kind: SystemKind, config: CcConfig) -> SimpleChain {
    let mut chain = SimpleChain::with_cc_config(kind, config);
    chain.seed(KEYS.iter().map(|k| (Key::new(k), Value::from_i64(0))));
    chain
}

/// Endorses `shape` against the snapshot `shape.lag` blocks behind the tip.
fn endorse(chain: &mut SimpleChain, shape: Shape) -> Transaction {
    let snapshot = chain.ledger().height().saturating_sub(shape.lag);
    chain.execute_at(snapshot, |ctx| {
        for key in keys(shape.reads) {
            ctx.read_balance(&key);
        }
        for key in keys(shape.writes) {
            ctx.write(key, Value::from_i64(1));
        }
    })
}

/// What a judged set of runs observed.
#[derive(Default)]
struct Tally {
    runs: u64,
    arrivals: u64,
    accepted: u64,
    /// Fabric# rejections the specification would have accepted, by reason.
    conservative: BTreeMap<String, u64>,
    /// Violations by kind, each with its count and the run it first occurred in.
    violations: BTreeMap<String, (u64, Run)>,
}

impl Tally {
    fn violation(&mut self, what: String, run: &Run) {
        self.violations.entry(what).or_insert((0, run.clone())).0 += 1;
    }
}

/// Drives `run` through Fabric# under `config`, checking the specification at every arrival.
fn judge_fabric_sharp(config: CcConfig, run: &Run, tally: &mut Tally) {
    let (burn, shapes) = run;
    let mut chain = seeded_chain(SystemKind::FabricSharp, config);
    for _ in 0..*burn {
        chain.execute(|_| {});
    }
    let mut pending = Vec::new();
    for (i, &shape) in shapes.iter().enumerate() {
        let txn = endorse(&mut chain, shape);
        let next_block = chain.ledger().height() + 1;
        let spec = spec_accepts(&chain.committed_history(), &pending, &txn, next_block);
        tally.arrivals += 1;
        match chain.submit(txn.clone()) {
            CommitDecision::Accept => {
                tally.accepted += 1;
                if !spec {
                    tally.violation("Fabric# accepted what no order serializes".into(), run);
                }
                pending.push(txn);
            }
            CommitDecision::Reject(reason) => {
                if spec {
                    *tally.conservative.entry(format!("{reason:?}")).or_default() += 1;
                }
            }
        }
        if shape.cut_after || i + 1 == shapes.len() {
            chain.seal_block();
            pending.clear();
        }
    }
    if !is_serializable(&chain.committed_history()) {
        tally.violation("Fabric# committed a non-serializable history".into(), run);
    }
}

/// Drives `run` through each validating baseline; their histories must be strongly
/// serializable.
fn judge_baselines(run: &Run, tally: &mut Tally) {
    for kind in [
        SystemKind::Fabric,
        SystemKind::FabricPlusPlus,
        SystemKind::FoccS,
        SystemKind::FoccL,
    ] {
        let mut chain = seeded_chain(kind, CcConfig::default());
        for (i, &shape) in run.1.iter().enumerate() {
            let txn = endorse(&mut chain, shape);
            let _ = chain.submit(txn);
            if shape.cut_after || i + 1 == run.1.len() {
                chain.seal_block();
            }
        }
        if !is_strongly_serializable(&chain.committed_history()) {
            tally.violation(
                format!("{kind} committed a non-strongly-serializable history"),
                run,
            );
        }
    }
}

/// Judges every run, prints one line of the conservative-abort table, and fails with the
/// first witness of every violation.
fn judge(label: &str, config: CcConfig, runs: impl Iterator<Item = Run>) {
    let mut tally = Tally::default();
    for run in runs {
        tally.runs += 1;
        judge_fabric_sharp(config, &run, &mut tally);
        judge_baselines(&run, &mut tally);
    }
    let conservative: Vec<String> = tally
        .conservative
        .iter()
        .map(|(reason, n)| format!("{reason} {n}"))
        .collect();
    println!(
        "{label}: {} runs, {} Fabric# arrivals, {} accepted, {} violations; \
         conservative aborts: {}",
        tally.runs,
        tally.arrivals,
        tally.accepted,
        tally.violations.values().map(|(n, _)| n).sum::<u64>(),
        if conservative.is_empty() {
            "none".to_string()
        } else {
            conservative.join(", ")
        }
    );
    let report: Vec<String> = tally
        .violations
        .iter()
        .map(|(what, (n, witness))| format!("{what}: {n} times, first in {witness:?}"))
        .collect();
    assert!(report.is_empty(), "{label}:\n{}", report.join("\n"));
}

/// Every history of `len` transactions over the first two keys, at lag 0–2 per transaction
/// and every set of cut points between them.
fn every_history(len: u32) -> impl Iterator<Item = Run> {
    const PER_TXN: u64 = 4 * 3 * 3; // read sets × non-empty write sets × lags
    let cut_sets = 1u64 << (len - 1);
    (0..PER_TXN.pow(len) * cut_sets).map(move |code| {
        let cuts = code % cut_sets;
        let mut code = code / cut_sets;
        let shapes = (0..len)
            .map(|i| {
                let c = code % PER_TXN;
                code /= PER_TXN;
                Shape {
                    reads: (c % 4) as u8,
                    writes: (c / 4 % 3 + 1) as u8,
                    lag: c / 12,
                    cut_after: cuts >> i & 1 == 1,
                }
            })
            .collect();
        (0, shapes)
    })
}

/// Histories sampled per run of [`sampled`] at the default and at tiny filters, and the
/// longest history: shorter and fewer in unoptimised builds. At tiny filters the optimised
/// run needs its long histories and its sample count: with Algorithm 5 skipping a ww pair on
/// any filter positive (the unconfirmed skip this suite failed to see at 4–15 transactions),
/// it finds unsound acceptances and non-serializable commits (BASELINES.md).
#[cfg(debug_assertions)]
const SAMPLED_RUNS: (u64, u64) = (1_000, 1_000);
#[cfg(not(debug_assertions))]
const SAMPLED_RUNS: (u64, u64) = (20_000, 200_000);
#[cfg(debug_assertions)]
const MAX_LEN: usize = 15;
#[cfg(not(debug_assertions))]
const MAX_LEN: usize = 40;

/// Most transactions a sampled block holds, so an arrival orders at most this many.
const MAX_BLOCK: usize = 5;

/// `runs` histories of 4–[`MAX_LEN`] transactions over three keys at lag 0–3, each after
/// `burn(rng)` burned ids.
fn sampled(seed: u64, runs: u64, burn: fn(&mut StdRng) -> u64) -> impl Iterator<Item = Run> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..runs).map(move |_| {
        let len = rng.gen_range(4..MAX_LEN + 1);
        let mut in_block = 0;
        let shapes = (0..len)
            .map(|_| {
                in_block += 1;
                let cut_after = in_block == MAX_BLOCK || rng.gen_bool(0.3);
                if cut_after {
                    in_block = 0;
                }
                Shape {
                    reads: rng.gen_range(0u8..8),
                    writes: rng.gen_range(1u8..8),
                    lag: rng.gen_range(0u64..4),
                    cut_after,
                }
            })
            .collect();
        (burn(&mut rng), shapes)
    })
}

/// The smallest legal filters, so that bloom false positives occur. Fabric# books them as
/// `UnreorderableCycle`, so that is the label of this run's conservative aborts.
fn tiny_filters() -> CcConfig {
    CcConfig {
        bloom_bits: 64,
        bloom_hashes: 1,
        ..CcConfig::default()
    }
}

#[test]
fn every_history_of_up_to_two_transactions_meets_the_specification() {
    judge(
        "exhaustive, 1-2 txns",
        CcConfig::default(),
        every_history(1).chain(every_history(2)),
    );
}

#[cfg(not(debug_assertions))]
#[test]
fn every_history_of_three_transactions_meets_the_specification() {
    judge("exhaustive, 3 txns", CcConfig::default(), every_history(3));
}

#[test]
fn sampled_histories_meet_the_specification_at_default_filters() {
    judge(
        "sampled, default filters",
        CcConfig::default(),
        sampled(44, SAMPLED_RUNS.0, |_| 0),
    );
}

#[test]
fn sampled_histories_meet_the_specification_at_tiny_filters() {
    judge(
        "sampled, 64-bit 1-hash filters, ids offset 0-2000",
        tiny_filters(),
        sampled(4_400, SAMPLED_RUNS.1, |rng| rng.gen_range(0u64..2_001)),
    );
}

#[test]
fn the_specification_rejects_write_skew_and_accepts_a_reorderable_pair() {
    let mut chain = seeded_chain(SystemKind::FabricSharp, CcConfig::default());
    let mut endorse_now = |reads, writes| {
        let shape = Shape {
            reads,
            writes,
            lag: 0,
            cut_after: false,
        };
        endorse(&mut chain, shape)
    };
    let (a, b) = (endorse_now(0b01, 0b10), endorse_now(0b10, 0b01));
    assert!(spec_accepts(&[], &[], &a, 1));
    assert!(!spec_accepts(&[], std::slice::from_ref(&a), &b, 1));
    // A reader of k0 and a blind writer of k0 serialize only reader-first: the specification
    // must find that order whichever of the two is pending.
    let (reader, writer) = (endorse_now(0b01, 0b10), endorse_now(0, 0b01));
    assert!(spec_accepts(&[], std::slice::from_ref(&writer), &reader, 1));
    assert!(spec_accepts(&[], std::slice::from_ref(&reader), &writer, 1));
}

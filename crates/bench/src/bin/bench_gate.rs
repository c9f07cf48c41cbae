//! Automated bench regression gate for the dependency-graph hot paths.
//!
//! ```text
//! cargo run --release -p eov-bench --bin bench_gate            # compare against baseline
//! cargo run --release -p eov-bench --bin bench_gate -- --record # (re)record the baseline
//! ```
//!
//! Re-times the `graph_commit_path` operations, the `reachability_engine` group
//! (`topo_sort_pending` / `would_close_cycle`, dense engine vs the retained naive reference)
//! and the whole-orderer arrival + formation path — including the ww-restoration-heavy input
//! — with a median-of-runs harness, then compares each median against `BENCH_BASELINE.json`
//! at the repository root. A benchmark fails the gate when it lands outside the tolerance band
//! (±20% by default; `FABRICSHARP_GATE_TOLERANCE=0.35` widens it to ±35%). A baseline ↔
//! results mismatch is fatal in **both** directions: a measured benchmark missing from the
//! baseline and a baseline entry no benchmark produces each fail the gate — a stale baseline
//! is a silent hole, not a note. The structural checks are machine-independent and always
//! enforced:
//!
//! * `topo_sort_pending` on the dense engine must be ≥ 5× faster than the naive reference at
//!   512 pending transactions (the tentpole acceptance criterion),
//! * the miss-path `would_close_cycle` must not be slower than the naive pair scan,
//! * the template fast path must run the read-only YCSB-C arrival + cut input, as the template
//!   classifier tags it, ≥ 1.3× faster than the same input re-tagged `Unknown` (the reference
//!   path) while committing the identical id order and bypassing **exactly** the transactions
//!   tagged `Safe` (runtime `fastpath_accepted` == static safe-tag count, ±0),
//! * `cut_block` on a 100-transaction Smallbank batch must cost at most 2× as much on a
//!   controller carrying `max_span` blocks of committed history as on a fresh one (persist,
//!   prune and the committed-index lookups scale with the block's footprint, not with the
//!   size of the CW/CR indices), and
//! * the durable ledger is gated both on wall-clock (`ledger_append_seg_200`: 200 blocks
//!   through the CRC-framed segment writer; `recover_cold_1600`: full cold restart —
//!   checkpoint load + segment suffix replay + controller rebuild over 1600 txns) and
//!   structurally: the disk-recovered ledger tip, store bytes and controller must be
//!   identical to the uninterrupted in-memory run's, and the 8th periodic checkpoint of a
//!   store growing by a constant number of fresh keys per interval must write at most 1.5×
//!   the bytes of the 2nd (a checkpoint costs what changed, not what exists), and
//! * a hot `latest()` must cost at most 1.5× as much inside a store holding 840 k further keys
//!   as inside one holding the 20 k hot keys alone (a point read is a hash and a probe, not a
//!   descent that deepens with the store).
//!
//! Exit codes: 0 — pass (or baseline recorded); 1 — regression / structural failure;
//! 2 — baseline missing or unreadable (run with `--record` first). CI runs this as a
//! **blocking** job: a band failure is retried once to filter transient runner-load spikes,
//! and `FABRICSHARP_GATE_TOLERANCE` widens the band if a runner generation proves noisier
//! than ±20%.

use eov_bench::{
    bench_params, blind_write_chain, endorsed_txns, hot_keys_scattered, latest_pass,
    smallbank_store, untagged, GROWN_ACCOUNTS, HOT_ACCOUNTS,
};
use eov_common::config::CcConfig;
use eov_common::rwset::{Key, Value};
use eov_common::txn::{Transaction, TxnId};
use eov_common::version::SeqNo;
use eov_depgraph::{DependencyGraph, NaiveGraph, PendingTxnSpec};
use eov_ledger::durable::{DurableLedger, DurableOptions};
use eov_ledger::{write_checkpoint, Block, Ledger};
use eov_vstore::MultiVersionStore;
use eov_workload::generator::WorkloadKind;
use eov_workload::YcsbProfile;
use fabricsharp_core::{recover_from_disk, recover_from_ledger, FabricSharpCC};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Timed runs per benchmark; the reported number is the median.
const RUNS: usize = 15;
/// Default tolerance band around the recorded median.
const DEFAULT_TOLERANCE: f64 = 0.20;
/// Required dense-vs-naive speedup for `topo_sort_pending` at 512 pending.
const REQUIRED_TOPO_SPEEDUP: f64 = 5.0;
/// Required untagged / tagged speedup for the read-only YCSB-C arrival + cut path: safe
/// transactions skip graph insertion, cycle probing and index bookkeeping wholesale, so the
/// whole-orderer path must be at least this much faster on all-safe traffic.
const REQUIRED_FASTPATH_SPEEDUP: f64 = 1.3;

/// Most a hot `latest()` may cost inside `create_account_durable`'s grown store (840 k keys
/// beyond the 20 k hot ones), as a multiple of the same read inside a 20 k-key store.
const MAX_GROWN_LATEST_RATIO: f64 = 1.5;

fn spec(id: u64) -> PendingTxnSpec {
    PendingTxnSpec {
        id: TxnId(id),
        start_ts: SeqNo::snapshot_after(0),
    }
}

fn layered(n: u64, fanin: u64) -> DependencyGraph {
    let mut g = DependencyGraph::new(CcConfig::default());
    for id in 0..n {
        let preds: Vec<TxnId> = (id.saturating_sub(fanin)..id).map(TxnId).collect();
        g.insert_pending(spec(id), &preds, &[], 1);
    }
    g
}

fn naive_layered(n: u64, fanin: u64) -> NaiveGraph {
    let mut g = NaiveGraph::new(CcConfig::default());
    for id in 0..n {
        let preds: Vec<TxnId> = (id.saturating_sub(fanin)..id).map(TxnId).collect();
        g.insert_pending(spec(id), &preds, &[], 1);
    }
    g
}

/// Median wall-clock nanoseconds of `RUNS` executions of `body` (one warm-up excluded).
fn median_ns<F: FnMut() -> u64>(mut body: F) -> f64 {
    std::hint::black_box(body()); // warm-up
    let samples = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(body());
            start.elapsed().as_nanos()
        })
        .collect();
    median_of(samples)
}

fn median_of(mut samples: Vec<u128>) -> f64 {
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

/// 400 blind writers over 40 keys: `cut_block` on this input is dominated by Algorithm 5's
/// ww restoration (10-writer chains per key), which gates the `restore_ww_dependencies`
/// hot-spot fix (borrowed PW iteration instead of per-block key-list clones).
fn ww_heavy_txns() -> Vec<Transaction> {
    (0..400u64)
        .map(|i| {
            Transaction::from_parts(
                i + 1,
                0,
                [],
                [(
                    Key::new(format!("hot:{}", i % 40)),
                    Value::from_i64(i as i64),
                )],
            )
        })
        .collect()
}

/// Runs the full FabricSharp orderer path — every arrival plus one block cut — and returns
/// the controller and the block. The template-fastpath benches run it on tagged inputs and on
/// the same inputs re-tagged by [`untagged`].
fn arrival_and_cut(txns: &[Transaction]) -> (FabricSharpCC, Vec<Transaction>) {
    let mut cc = FabricSharpCC::new(CcConfig::default());
    for txn in txns {
        let _ = cc.on_arrival(txn.clone());
    }
    let block = cc.cut_block();
    (cc, block)
}

/// [`arrival_and_cut`]'s committed count (keeps the optimiser honest).
fn arrival_and_cut_len(txns: &[Transaction]) -> u64 {
    arrival_and_cut(txns).1.len() as u64
}

/// Transactions per block in the history-independence check.
const HISTORY_BATCH: usize = 100;
/// Allowed cost of a cut over `max_span` blocks of committed history, relative to the same
/// cut on a fresh controller.
const MAX_HISTORY_CUT_RATIO: f64 = 2.0;

/// Median wall-clock nanoseconds of `cut_block` on `batch`, on a controller that first forms
/// one block per [`HISTORY_BATCH`]-sized chunk of `history`; every transaction is re-stamped
/// as endorsed against the tip it arrives at. Only the final cut is timed; with `max_span`
/// history blocks it is the first cut whose prune has a block to age out.
fn cut_after_history_ns(history: &[Transaction], batch: &[Transaction]) -> f64 {
    let arrive = |cc: &mut FabricSharpCC, txns: &[Transaction]| {
        let snapshot_block = cc.next_block() - 1;
        for txn in txns {
            let _ = cc.on_arrival(Transaction {
                snapshot_block,
                ..txn.clone()
            });
        }
    };
    let samples = (0..=RUNS)
        .map(|_| {
            let mut cc = FabricSharpCC::new(CcConfig::default());
            for chunk in history.chunks(HISTORY_BATCH) {
                arrive(&mut cc, chunk);
                cc.cut_block();
            }
            arrive(&mut cc, batch);
            let start = Instant::now();
            std::hint::black_box(cc.cut_block().len());
            start.elapsed().as_nanos()
        })
        .skip(1) // warm-up
        .collect();
    median_of(samples)
}

/// Shared inputs for the gated benchmarks, built once so individual benchmarks can be
/// re-measured (the band comparison retries a failing benchmark to filter transient
/// machine-load spikes).
struct BenchContext {
    dense512: DependencyGraph,
    naive512: NaiveGraph,
    built1600: DependencyGraph,
    miss_preds: Vec<TxnId>,
    miss_succs: Vec<TxnId>,
    smallbank200: Vec<Transaction>,
    /// 200 read-only YCSB-C transactions, tagged `Safe` by the template classifier — the
    /// all-bypass input for the template-fastpath benches — and the same input untagged.
    ycsb_c200: Vec<Transaction>,
    ycsb_c200_untagged: Vec<Transaction>,
    ww_heavy: Vec<Transaction>,
    /// 200 committed blocks (1600 txns) for the durable-ledger benches: the append input,
    /// the in-memory reference, the uninterrupted-run store, and a persisted directory with
    /// a mid-chain checkpoint at [`DURABLE_CKPT_HEIGHT`] for the cold-recovery bench.
    durable_blocks: Vec<Block>,
    durable_reference: Ledger,
    durable_reference_store: MultiVersionStore,
    recover_dir: PathBuf,
}

/// Blocks in the durable-ledger fixture (× [`DURABLE_TXNS_PER_BLOCK`] txns = 1600).
const DURABLE_BLOCKS: u64 = 200;
/// Transactions per durable-fixture block.
const DURABLE_TXNS_PER_BLOCK: u64 = 8;
/// Height of the mid-chain checkpoint in the cold-recovery fixture: recovery loads it and
/// replays the 80-block segment suffix on top.
const DURABLE_CKPT_HEIGHT: u64 = 120;

/// The durable fixture: [`blind_write_chain`]'s 200 blocks persisted to a directory with
/// checkpoints at genesis and at [`DURABLE_CKPT_HEIGHT`]; also its blocks, ledger and store.
fn durable_fixture() -> (Vec<Block>, Ledger, MultiVersionStore, PathBuf) {
    let dir = std::env::temp_dir().join(format!("eov-bench-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let persist = Some((dir.as_path(), DURABLE_CKPT_HEIGHT));
    let chain = blind_write_chain(DURABLE_BLOCKS, DURABLE_TXNS_PER_BLOCK, persist);
    let (ledger, store) = chain.into_parts();
    (ledger.iter().cloned().collect(), ledger, store, dir)
}

/// Largest allowed size of the 8th periodic checkpoint relative to the 2nd when every
/// interval adds the same number of fresh keys (full images would sit near 4×).
const MAX_CHECKPOINT_GROWTH: f64 = 1.5;

/// Bytes of the 2nd and the 8th periodic checkpoint of a store that gains 200 fresh keys
/// between checkpoints, on top of a genesis checkpoint.
fn periodic_checkpoint_bytes() -> (u64, u64) {
    let dir = std::env::temp_dir().join(format!("eov-bench-ckpt-growth-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut store = MultiVersionStore::new();
    store.seed_genesis((0..64).map(|i| (Key::new(format!("acct:{i}")), Value::from_i64(100))));
    write_checkpoint(&dir, &store, false).unwrap();
    let sizes: Vec<u64> = (1..=8u64)
        .map(|period| {
            for block in (period - 1) * 10 + 1..=period * 10 {
                let txn = Transaction::from_parts(
                    block,
                    block - 1,
                    [],
                    (0..20).map(|i| (Key::new(format!("new:{block}:{i}")), Value::from_i64(i))),
                );
                store.apply_block(block, [(&txn, 1)]);
            }
            let (_, path) = write_checkpoint(&dir, &store, false).unwrap();
            std::fs::metadata(path).unwrap().len()
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (sizes[1], sizes[7])
}

impl BenchContext {
    fn new() -> Self {
        let (durable_blocks, durable_reference, durable_reference_store, recover_dir) =
            durable_fixture();
        let ycsb_c200 = endorsed_txns(WorkloadKind::Ycsb(YcsbProfile::c()), bench_params(), 200);
        BenchContext {
            dense512: layered(512, 3),
            naive512: naive_layered(512, 3),
            built1600: layered(1600, 3),
            miss_preds: (0..8).map(TxnId).collect(),
            miss_succs: (504..512).map(TxnId).collect(),
            smallbank200: endorsed_txns(WorkloadKind::ModifiedSmallbank, bench_params(), 200),
            ycsb_c200_untagged: untagged(&ycsb_c200),
            ycsb_c200,
            ww_heavy: ww_heavy_txns(),
            durable_blocks,
            durable_reference,
            durable_reference_store,
            recover_dir,
        }
    }

    /// Removes the on-disk cold-recovery fixture (call before every exit path).
    fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(&self.recover_dir);
    }

    /// Every gated benchmark name, in reporting order.
    fn names() -> &'static [&'static str] {
        &[
            "build_layered_512",
            "formation_ww_restore_400",
            "ledger_append_seg_200",
            "mark_committed_all_1600",
            "recover_cold_1600",
            "remove_half_1600",
            "sharp_smallbank200_unsharded",
            "sharp_ycsb_c_fastpath_off_200",
            "sharp_ycsb_c_fastpath_on_200",
            "topo_sort_pending_512",
            "topo_sort_pending_naive_512",
            "would_close_cycle_miss_512",
            "would_close_cycle_miss_naive_512",
        ]
    }

    /// Measures one benchmark (median of `RUNS`).
    fn measure(&self, name: &str) -> f64 {
        match name {
            "topo_sort_pending_512" => median_ns(|| self.dense512.topo_sort_pending().len() as u64),
            "topo_sort_pending_naive_512" => {
                median_ns(|| self.naive512.topo_sort_pending().len() as u64)
            }
            "would_close_cycle_miss_512" => median_ns(|| {
                let mut acyclic = 0u64;
                for _ in 0..64 {
                    if self
                        .dense512
                        .would_close_cycle(&self.miss_preds, &self.miss_succs)
                        .is_acyclic()
                    {
                        acyclic += 1;
                    }
                }
                acyclic
            }),
            "would_close_cycle_miss_naive_512" => median_ns(|| {
                let mut acyclic = 0u64;
                for _ in 0..64 {
                    if self
                        .naive512
                        .would_close_cycle(&self.miss_preds, &self.miss_succs)
                        .is_acyclic()
                    {
                        acyclic += 1;
                    }
                }
                acyclic
            }),
            "mark_committed_all_1600" => median_ns(|| {
                let mut g = self.built1600.clone();
                for id in 0..1600 {
                    g.mark_committed(TxnId(id), SeqNo::new(1, id as u32 + 1));
                }
                g.pending_len() as u64
            }),
            "remove_half_1600" => median_ns(|| {
                let mut g = self.built1600.clone();
                for id in (0..1600).step_by(2) {
                    g.remove(TxnId(id));
                }
                g.len() as u64
            }),
            "build_layered_512" => median_ns(|| layered(512, 3).len() as u64),
            "ledger_append_seg_200" => {
                // Fresh directory per run: open, append all 200 blocks through the segment
                // writer (CRC framing + rotation, no fsync), report the height.
                let dir =
                    std::env::temp_dir().join(format!("eov-bench-append-{}", std::process::id()));
                let ns = median_ns(|| {
                    let _ = std::fs::remove_dir_all(&dir);
                    let (mut durable, _) =
                        DurableLedger::open(&dir, DurableOptions::default()).unwrap();
                    for block in &self.durable_blocks {
                        durable.append(block.clone()).unwrap();
                    }
                    durable.height()
                });
                let _ = std::fs::remove_dir_all(&dir);
                ns
            }
            "recover_cold_1600" => median_ns(|| {
                // Full cold restart against the prepared directory: newest checkpoint (height
                // 120) + 80-block segment suffix replay + controller rebuild, 1600 txns total.
                recover_from_disk(&self.recover_dir, CcConfig::default())
                    .unwrap()
                    .ledger
                    .height()
            }),
            "formation_ww_restore_400" => median_ns(|| arrival_and_cut_len(&self.ww_heavy)),
            "sharp_smallbank200_unsharded" => median_ns(|| arrival_and_cut_len(&self.smallbank200)),
            "sharp_ycsb_c_fastpath_off_200" => {
                median_ns(|| arrival_and_cut_len(&self.ycsb_c200_untagged))
            }
            "sharp_ycsb_c_fastpath_on_200" => median_ns(|| arrival_and_cut_len(&self.ycsb_c200)),
            other => unreachable!("unknown benchmark {other}"),
        }
    }
}

/// Runs every gated benchmark and returns name → median ns.
fn run_benchmarks(ctx: &BenchContext) -> BTreeMap<String, f64> {
    BenchContext::names()
        .iter()
        .map(|name| (name.to_string(), ctx.measure(name)))
        .collect()
}

/// `BENCH_BASELINE.json` lives at the workspace root, two levels above this crate.
fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_BASELINE.json")
}

/// Serialises name → median as a flat JSON object (no external deps in this workspace, so the
/// format is written by hand and read back by [`parse_baseline`]).
fn format_baseline(results: &BTreeMap<String, f64>) -> String {
    let mut out = String::from("{\n");
    let entries: Vec<String> = results
        .iter()
        .map(|(name, ns)| format!("  \"{name}\": {ns:.0}"))
        .collect();
    out.push_str(&entries.join(",\n"));
    out.push_str("\n}\n");
    out
}

/// Parses the flat `"name": number` object written by [`format_baseline`].
fn parse_baseline(text: &str) -> Option<BTreeMap<String, f64>> {
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let (name, value) = rest.split_once("\":")?;
        map.insert(name.to_string(), value.trim().parse::<f64>().ok()?);
    }
    if map.is_empty() {
        None
    } else {
        Some(map)
    }
}

fn tolerance() -> f64 {
    std::env::var("FABRICSHARP_GATE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(DEFAULT_TOLERANCE)
}

fn main() {
    let record = std::env::args().any(|a| a == "--record");
    println!("bench_gate: dependency-graph hot-path regression gate");
    println!("  median of {RUNS} runs per benchmark\n");

    let ctx = BenchContext::new();
    let results = run_benchmarks(&ctx);
    for (name, ns) in &results {
        println!("  {name:<36} {ns:>12.0} ns");
    }
    println!();

    // Structural checks first: machine-independent ratios between benches of this very run.
    let mut failures = 0usize;
    let topo = results["topo_sort_pending_512"];
    let topo_naive = results["topo_sort_pending_naive_512"];
    let speedup = topo_naive / topo;
    if speedup >= REQUIRED_TOPO_SPEEDUP {
        println!("  OK   topo_sort_pending 512: {speedup:.1}x over naive (need >= {REQUIRED_TOPO_SPEEDUP:.0}x)");
    } else {
        println!("  FAIL topo_sort_pending 512: only {speedup:.1}x over naive (need >= {REQUIRED_TOPO_SPEEDUP:.0}x)");
        failures += 1;
    }
    let cycle = results["would_close_cycle_miss_512"];
    let cycle_naive = results["would_close_cycle_miss_naive_512"];
    if cycle <= cycle_naive {
        println!(
            "  OK   would_close_cycle miss path: {:.2}x over naive",
            cycle_naive / cycle
        );
    } else {
        println!(
            "  FAIL would_close_cycle miss path regressed vs naive ({cycle:.0} ns > {cycle_naive:.0} ns)"
        );
        failures += 1;
    }
    // Template fast path: on all-safe (read-only YCSB-C) traffic the bypass must deliver a
    // real structural speedup over the same input untagged — and commit the identical id
    // order.
    let fp_off = results["sharp_ycsb_c_fastpath_off_200"];
    let fp_on = results["sharp_ycsb_c_fastpath_on_200"];
    let fp_speedup = fp_off / fp_on;
    if fp_speedup >= REQUIRED_FASTPATH_SPEEDUP {
        println!(
            "  OK   ycsb-c template fastpath: {fp_speedup:.2}x over reference (need >= {REQUIRED_FASTPATH_SPEEDUP:.1}x)"
        );
    } else {
        println!(
            "  FAIL ycsb-c template fastpath: only {fp_speedup:.2}x over reference (need >= {REQUIRED_FASTPATH_SPEEDUP:.1}x)"
        );
        failures += 1;
    }
    {
        let ids = |block: &[Transaction]| block.iter().map(|t| t.id).collect::<Vec<_>>();
        let (_, reference) = arrival_and_cut(&ctx.ycsb_c200_untagged);
        let (cc, fastpath) = arrival_and_cut(&ctx.ycsb_c200);
        if ids(&reference) == ids(&fastpath) {
            println!(
                "  OK   ycsb_c200: tagged/untagged commit orders identical ({} txns)",
                reference.len()
            );
        } else {
            println!("  FAIL ycsb_c200: commit orders diverged between tagged and untagged");
            failures += 1;
        }
        // Exactness: the orderer must bypass precisely the arrivals the classifier tagged
        // Safe — no more (soundness hole), no fewer (tag not wired through).
        let predicted = ctx
            .ycsb_c200
            .iter()
            .filter(|t| t.template_class.is_safe())
            .count() as u64;
        let runtime = cc.stats().fastpath_accepted;
        if predicted == runtime {
            println!(
                "  OK   ycsb_c200: classifier-predicted safe count == runtime fastpath count ({runtime})"
            );
        } else {
            println!(
                "  FAIL ycsb_c200: classifier predicted {predicted} safe but the orderer bypassed {runtime}"
            );
            failures += 1;
        }
    }
    // Committed-index cost model — machine-independent, always enforced: the cost of forming a
    // block must not grow with the committed history the controller carries.
    {
        let max_span = CcConfig::default().max_span as usize;
        let txns = endorsed_txns(
            WorkloadKind::ModifiedSmallbank,
            bench_params(),
            (max_span + 1) * HISTORY_BATCH,
        );
        let (batch, history) = txns.split_at(HISTORY_BATCH);
        let fresh = cut_after_history_ns(&[], batch);
        let mut loaded = cut_after_history_ns(history, batch);
        if loaded > MAX_HISTORY_CUT_RATIO * fresh {
            // One retry to filter a transient load spike, as for the band comparisons.
            loaded = cut_after_history_ns(history, batch).min(loaded);
        }
        let ratio = loaded / fresh;
        if ratio <= MAX_HISTORY_CUT_RATIO {
            println!(
                "  OK   cut_block over {max_span} blocks of history: {ratio:.2}x of a fresh controller (need <= {MAX_HISTORY_CUT_RATIO:.0}x)"
            );
        } else {
            println!(
                "  FAIL cut_block over {max_span} blocks of history: {ratio:.2}x of a fresh controller ({loaded:.0} ns vs {fresh:.0} ns, need <= {MAX_HISTORY_CUT_RATIO:.0}x)"
            );
            failures += 1;
        }
    }
    // Durable ledger, structural check — machine-independent, always enforced: a cold
    // recovery from disk (checkpoint + segment suffix) must land on exactly the state the
    // uninterrupted in-memory run produced — same ledger tip, same store bytes, and a
    // controller equivalent to `recover_from_ledger` over the in-memory reference.
    {
        let recovered =
            recover_from_disk(&ctx.recover_dir, CcConfig::default()).expect("cold recovery");
        let (from_memory, _) = recover_from_ledger(&ctx.durable_reference, CcConfig::default())
            .expect("memory recovery");
        let tip_ok = recovered.ledger.ledger().tip_hash() == ctx.durable_reference.tip_hash();
        let store_ok = recovered.store == ctx.durable_reference_store;
        let cc_ok = recovered.cc.next_block() == from_memory.next_block();
        let ckpt_ok = recovered.checkpoint_height == DURABLE_CKPT_HEIGHT;
        if tip_ok && store_ok && cc_ok && ckpt_ok {
            println!(
                "  OK   recover_cold_1600: disk recovery (ckpt {} + {}-block suffix) identical to the in-memory run",
                recovered.checkpoint_height,
                DURABLE_BLOCKS - recovered.checkpoint_height
            );
        } else {
            println!(
                "  FAIL recover_cold_1600: disk recovery diverged from the in-memory run (tip {tip_ok}, store {store_ok}, cc {cc_ok}, ckpt {ckpt_ok})"
            );
            failures += 1;
        }
    }
    {
        let (second, eighth) = periodic_checkpoint_bytes();
        let ratio = eighth as f64 / second as f64;
        if ratio <= MAX_CHECKPOINT_GROWTH {
            println!(
                "  OK   checkpoint growth: 8th periodic checkpoint {ratio:.2}x the 2nd ({eighth} B vs {second} B, need <= {MAX_CHECKPOINT_GROWTH}x)"
            );
        } else {
            println!(
                "  FAIL checkpoint growth: 8th periodic checkpoint {ratio:.2}x the 2nd ({eighth} B vs {second} B, need <= {MAX_CHECKPOINT_GROWTH}x)"
            );
            failures += 1;
        }
    }
    // State-store layout, structural check — machine-independent, always enforced: a point
    // read costs a hash and a probe, so reading the 20 k hot keys must not get dearer because
    // 840 k other keys share the store (an ordered map's descent does: 3.3x at PR 20).
    {
        let hot = hot_keys_scattered();
        let small = smallbank_store(HOT_ACCOUNTS);
        let grown = smallbank_store(GROWN_ACCOUNTS);
        let measure = || {
            let in_small = median_ns(|| latest_pass(&small, &hot));
            let in_grown = median_ns(|| latest_pass(&grown, &hot));
            (in_grown / in_small, in_small, in_grown)
        };
        let mut measured = measure();
        if measured.0 > MAX_GROWN_LATEST_RATIO {
            // One retry to filter a transient load spike, as for the band comparisons.
            let retry = measure();
            if retry.0 < measured.0 {
                measured = retry;
            }
        }
        let (ratio, in_small, in_grown) = measured;
        let per_read = |pass_ns: f64| pass_ns / hot.len() as f64;
        if ratio <= MAX_GROWN_LATEST_RATIO {
            println!(
                "  OK   mvstore hot latest(): {:.0} ns inside 840k keys, {ratio:.2}x of {:.0} ns inside 20k (need <= {MAX_GROWN_LATEST_RATIO}x)",
                per_read(in_grown),
                per_read(in_small)
            );
        } else {
            println!(
                "  FAIL mvstore hot latest(): {:.0} ns inside 840k keys, {ratio:.2}x of {:.0} ns inside 20k (need <= {MAX_GROWN_LATEST_RATIO}x)",
                per_read(in_grown),
                per_read(in_small)
            );
            failures += 1;
        }
    }
    println!();

    let path = baseline_path();
    if record {
        std::fs::write(&path, format_baseline(&results)).expect("write BENCH_BASELINE.json");
        println!("recorded baseline to {}", path.display());
        ctx.cleanup();
        std::process::exit(if failures == 0 { 0 } else { 1 });
    }

    let Some(baseline) = std::fs::read_to_string(&path)
        .ok()
        .as_deref()
        .and_then(parse_baseline)
    else {
        eprintln!(
            "no readable baseline at {} — run `cargo run --release -p eov-bench --bin bench_gate -- --record`",
            path.display()
        );
        ctx.cleanup();
        std::process::exit(2);
    };

    let band = tolerance();
    println!(
        "comparing against {} (tolerance +/-{:.0}%):",
        path.display(),
        band * 100.0
    );
    for (name, ns) in &results {
        match baseline.get(name) {
            Some(base) => {
                let mut ns = *ns;
                let mut ratio = ns / base;
                if ratio > 1.0 + band {
                    // One retry: a transient load spike clears on re-measure, a real
                    // regression fails both attempts. Keep the better of the two medians.
                    let retry = ctx.measure(name);
                    if retry < ns {
                        ns = retry;
                        ratio = ns / base;
                    }
                }
                if ratio > 1.0 + band {
                    println!("  FAIL {name:<36} {ratio:>6.2}x of baseline ({base:.0} ns, retried)");
                    failures += 1;
                } else if ratio < 1.0 - band {
                    println!("  NOTE {name:<36} {ratio:>6.2}x of baseline — faster; re-record to tighten the band");
                } else {
                    println!("  OK   {name:<36} {ratio:>6.2}x of baseline");
                }
            }
            None => {
                // A measured benchmark the baseline has never seen means the baseline is
                // stale — an ungated benchmark is a silent hole in the gate, so this fails
                // hard in both directions (see the reverse check below).
                println!(
                    "  FAIL {name:<36} not in baseline — re-record with `-- --record` to gate it"
                );
                failures += 1;
            }
        }
    }
    // Reverse direction: a baseline entry no benchmark produces means a benchmark was
    // renamed or deleted without re-recording — equally a stale gate, equally fatal.
    for name in baseline.keys() {
        if !results.contains_key(name) {
            println!(
                "  FAIL {name:<36} in baseline but not measured — stale entry; re-record with `-- --record`"
            );
            failures += 1;
        }
    }

    ctx.cleanup();
    if failures > 0 {
        eprintln!("\nbench_gate: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("\nbench_gate: all checks passed");
}

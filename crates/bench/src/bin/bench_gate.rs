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
//! (unsharded, sharded, and parallel-formation `S=4/W=2` variants), the sharded
//! (`store_shards = 2`) vs unsharded engines, and the worker-pool coordinator
//! (`S=4/W=2` cross-shard YCSB) — with a median-of-runs harness, then compares each median
//! against `BENCH_BASELINE.json` at the repository root. A benchmark fails the gate when it lands outside the tolerance band
//! (±20% by default; `FABRICSHARP_GATE_TOLERANCE=0.35` widens it to ±35%). A baseline ↔
//! results mismatch is fatal in **both** directions: a measured benchmark missing from the
//! baseline and a baseline entry no benchmark produces each fail the gate — a stale baseline
//! is a silent hole, not a note. The structural checks are machine-independent and always
//! enforced:
//!
//! * `topo_sort_pending` on the dense engine must be ≥ 5× faster than the naive reference at
//!   512 pending transactions (the tentpole acceptance criterion),
//! * the miss-path `would_close_cycle` must not be slower than the naive pair scan,
//! * the template fast path must run the read-only YCSB-C arrival + cut input ≥ 1.3× faster
//!   than the fastpath-off reference while committing the identical id order,
//! * the *instance* fast path must run the write-partitioned YCSB-B input ≥ 1.3× faster than
//!   the fastpath-off reference, commit the identical id order, and bypass **exactly** the
//!   number of transactions the conflict analyzer predicted (runtime `fastpath_accepted` ==
//!   static safe-tag count, ±0), and
//! * the inline, sharded and parallel-formation paths must commit the **identical** id order
//!   on the ww-heavy and cross-shard inputs (the determinism hard check),
//! * the pipelined formation driver must commit the **identical** per-block id order as the
//!   phased reference on the generation-chunked overlap input, and a fixed-seed end-to-end
//!   simulation must produce the identical ledger tip hash with the knob on and off; — **only
//!   when the runner has ≥ 2 cores** — the pipelined chunked run must not be slower than the
//!   phased one (on a single-core runner the check is reported as SKIP: the overlap has no
//!   second core to land on),
//! * the commit scheduler's wave decomposition must be reproducible and have the statically
//!   known shape (one maximal wave on the disjoint block, ~40-wide waves on the hot block),
//!   the `E = 4` wave commit must leave the store byte-identical to the `E = 0` serial
//!   reference, and — **only when the runner has ≥ 2 cores** — the parallel commit of the
//!   disjoint block must beat the serial one (on a single-core runner the check is reported
//!   as SKIP: there is no parallelism to win), and
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

use eov_baselines::api::SystemKind;
use eov_bench::{hot_keys_scattered, latest_pass, smallbank_store, GROWN_ACCOUNTS, HOT_ACCOUNTS};
use eov_common::config::{CcConfig, WorkloadParams};
use eov_common::rwset::{Key, Value};
use eov_common::txn::TxnStatus;
use eov_common::txn::{Transaction, TxnId};
use eov_common::version::SeqNo;
use eov_depgraph::{DependencyGraph, NaiveGraph, PendingTxnSpec};
use eov_ledger::durable::{DurableLedger, DurableOptions};
use eov_ledger::{write_checkpoint, Block, Ledger};
use eov_sim::{SimulationConfig, Simulator};
use eov_vstore::{
    into_shared_backend, MultiVersionStore, SnapshotManager, StateStore, StoreBackend,
};
use eov_workload::generator::{WorkloadGenerator, WorkloadKind};
use eov_workload::YcsbProfile;
use fabricsharp_core::endorser::SnapshotEndorser;
use fabricsharp_core::scheduler::{plan_waves, CommitScheduler, WideningTable};
use fabricsharp_core::{recover_from_disk, recover_from_ledger, FabricSharpCC};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Timed runs per benchmark; the reported number is the median.
const RUNS: usize = 15;
/// Default tolerance band around the recorded median.
const DEFAULT_TOLERANCE: f64 = 0.20;
/// Required dense-vs-naive speedup for `topo_sort_pending` at 512 pending.
const REQUIRED_TOPO_SPEEDUP: f64 = 5.0;
/// Required fastpath-off / fastpath-on speedup for the read-only YCSB-C arrival + cut path:
/// safe transactions skip graph insertion, cycle probing and index bookkeeping wholesale, so
/// the whole-orderer path must be at least this much faster on all-safe traffic.
const REQUIRED_FASTPATH_SPEEDUP: f64 = 1.3;

/// Most a hot `latest()` may cost inside `create_account_durable`'s grown store (860 k keys),
/// as a multiple of the same read inside a 20 k-key store.
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

/// Endorses `count` transactions of `kind` against a seeded store (the realistic input for
/// the whole-orderer arrival + formation benchmarks).
fn endorsed_txns(kind: WorkloadKind, count: usize) -> Vec<Transaction> {
    let params = WorkloadParams {
        num_accounts: 2_000,
        ..WorkloadParams::default()
    };
    let mut generator = WorkloadGenerator::new(kind, params, 7);
    let analyzer = generator.analyzer();
    let mut store = MultiVersionStore::new();
    store.seed_genesis(generator.genesis());
    let snapshots = SnapshotManager::new();
    snapshots.register_block(0);
    let endorser = SnapshotEndorser::new(snapshots);
    (0..count)
        .map(|i| {
            let template = generator.next_template();
            let class = analyzer.classify_instance(&template);
            endorser
                .simulate_at(&store, TxnId(i as u64 + 1), 0, |ctx| template.run(ctx))
                .with_template_class(class)
        })
        .collect()
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
/// the committed count (keeps the optimiser honest).
fn arrival_and_cut(txns: &[Transaction], store_shards: usize, formation_threads: usize) -> u64 {
    arrival_and_cut_cfg(
        txns,
        CcConfig {
            store_shards,
            formation_threads,
            ..CcConfig::default()
        },
    )
}

/// [`arrival_and_cut`] with an explicit configuration (the template-fastpath benches toggle
/// `CcConfig::template_fastpath` on identically tagged inputs).
fn arrival_and_cut_cfg(txns: &[Transaction], config: CcConfig) -> u64 {
    let mut cc = FabricSharpCC::new(config);
    for txn in txns {
        let _ = cc.on_arrival(txn.clone());
    }
    cc.cut_block().len() as u64
}

/// Like [`arrival_and_cut`] but returns the committed transaction ids in block order — the
/// artefact the structural inline-vs-parallel identity check compares exactly.
fn arrival_and_cut_ids(
    txns: &[Transaction],
    store_shards: usize,
    formation_threads: usize,
) -> Vec<u64> {
    arrival_and_cut_ids_cfg(
        txns,
        CcConfig {
            store_shards,
            formation_threads,
            ..CcConfig::default()
        },
    )
}

/// [`arrival_and_cut_ids`] with an explicit configuration, for the fastpath identity check.
fn arrival_and_cut_ids_cfg(txns: &[Transaction], config: CcConfig) -> Vec<u64> {
    let mut cc = FabricSharpCC::new(config);
    for txn in txns {
        let _ = cc.on_arrival(txn.clone());
    }
    cc.cut_block().iter().map(|t| t.id.0).collect()
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

/// Generations per chunked pipeline input.
const PIPE_CHUNKS: usize = 4;
/// Transactions per generation.
const PIPE_CHUNK_TXNS: usize = 400;

/// `PIPE_CHUNKS` generations of `PIPE_CHUNK_TXNS` transactions with disjoint per-generation
/// key ranges: blind ww writes over 25 hot keys per generation keep the formation step (ww
/// restoration) expensive, while the disjoint footprints keep every next-generation arrival
/// eagerly admissible during the formation window — the input the overlap is designed for.
fn pipeline_chunk_txns() -> Vec<Vec<Transaction>> {
    (0..PIPE_CHUNKS)
        .map(|c| {
            (0..PIPE_CHUNK_TXNS)
                .map(|j| {
                    let id = (c * PIPE_CHUNK_TXNS + j + 1) as u64;
                    Transaction::from_parts(
                        id,
                        0,
                        [(Key::new(format!("p{c}:r{}", j % 50)), SeqNo::new(0, 1))],
                        [(
                            Key::new(format!("p{c}:h{}", j % 25)),
                            Value::from_i64(j as i64),
                        )],
                    )
                })
                .collect()
        })
        .collect()
}

/// Phased reference over the generation-chunked input: each generation's arrivals then its
/// cut, strictly in sequence. Returns the per-block committed id orders.
fn chunked_phased_ids(chunks: &[Vec<Transaction>]) -> Vec<Vec<u64>> {
    let mut cc = FabricSharpCC::new(CcConfig::default());
    let mut blocks = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        for txn in chunk {
            let _ = cc.on_arrival(txn.clone());
        }
        blocks.push(cc.cut_block().iter().map(|t| t.id.0).collect());
    }
    blocks
}

/// The pipelined driver over the same input: each generation's arrivals stream in while the
/// previous generation's block is forming on the worker thread (at most one block in
/// formation — the driver joins before sealing the next, exactly the sim's back-pressure).
fn chunked_pipelined_ids(chunks: &[Vec<Transaction>]) -> Vec<Vec<u64>> {
    let mut cc = FabricSharpCC::new(CcConfig {
        pipelined_formation: true,
        ..CcConfig::default()
    });
    let mut blocks = Vec::with_capacity(chunks.len());
    let mut inflight = false;
    for chunk in chunks {
        for txn in chunk {
            let _ = cc.on_arrival(txn.clone());
        }
        if inflight {
            blocks.push(cc.finish_cut().txns.iter().map(|t| t.id.0).collect());
        }
        inflight = cc.begin_cut() > 0;
    }
    if inflight {
        blocks.push(cc.finish_cut().txns.iter().map(|t| t.id.0).collect());
    }
    blocks
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
    ycsb_cross200: Vec<Transaction>,
    /// 200 read-only YCSB-C transactions, tagged `Safe` by the conflict analyzer — the
    /// all-bypass input for the template-fastpath benches.
    ycsb_c200: Vec<Transaction>,
    /// 200 write-partitioned YCSB-B transactions: reads Zipfian over the full population,
    /// writes uniform in the top 1/8 tail. The read template still conflicts with the writer
    /// template, so only *instance* classification (bound keys provably below the partition)
    /// tags the ~75% rescued arrivals `Safe`.
    ycsb_b200: Vec<Transaction>,
    ww_heavy: Vec<Transaction>,
    /// Generation-chunked, footprint-disjoint input for the pipelined-formation overlap
    /// benches (see [`pipeline_chunk_txns`]).
    pipeline_chunks: Vec<Vec<Transaction>>,
    /// 2048 conflict-free read-modify-write transactions (one maximal wave): the
    /// embarrassingly parallel upper bound for the wave-commit scheduler.
    commit_disjoint: Arc<Vec<Transaction>>,
    /// The sharded (`S = 4`) genesis-seeded backend the disjoint block commits against.
    commit_disjoint_seed: StoreBackend,
    /// 2048 blind writers over 40 hot keys (~40-wide waves): the coordination-bound case.
    commit_hot: Arc<Vec<Transaction>>,
    /// 200 committed blocks (1600 txns) for the durable-ledger benches: the append input,
    /// the in-memory reference, the uninterrupted-run store, and a persisted directory with
    /// a mid-chain checkpoint at [`DURABLE_CKPT_HEIGHT`] for the cold-recovery bench.
    durable_blocks: Vec<Block>,
    durable_reference: Ledger,
    durable_reference_store: StoreBackend,
    recover_dir: PathBuf,
}

/// Blocks in the durable-ledger fixture (× [`DURABLE_TXNS_PER_BLOCK`] txns = 1600).
const DURABLE_BLOCKS: u64 = 200;
/// Transactions per durable-fixture block.
const DURABLE_TXNS_PER_BLOCK: u64 = 8;
/// Height of the mid-chain checkpoint in the cold-recovery fixture: recovery loads it and
/// replays the 80-block segment suffix on top.
const DURABLE_CKPT_HEIGHT: u64 = 120;

/// Builds the durable fixture: 200 committed blocks appended to both an in-memory reference
/// and a segment-file directory, checkpointed at genesis and at [`DURABLE_CKPT_HEIGHT`].
fn durable_fixture() -> (Vec<Block>, Ledger, StoreBackend, PathBuf) {
    let dir = std::env::temp_dir().join(format!("eov-bench-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut ledger = Ledger::new();
    let mut store = StoreBackend::for_shards(0);
    store.seed_genesis((0..64).map(|i| (Key::new(format!("acct:{i}")), Value::from_i64(100))));
    let (mut durable, _) = DurableLedger::open(&dir, DurableOptions::default()).unwrap();
    write_checkpoint(&dir, &store, false).unwrap();
    let mut blocks = Vec::with_capacity(DURABLE_BLOCKS as usize);
    let mut id = 0u64;
    for number in 1..=DURABLE_BLOCKS {
        let txns: Vec<Transaction> = (0..DURABLE_TXNS_PER_BLOCK)
            .map(|_| {
                id += 1;
                Transaction::from_parts(
                    id,
                    number - 1,
                    [],
                    [(
                        Key::new(format!("acct:{}", id % 64)),
                        Value::from_i64(id as i64),
                    )],
                )
            })
            .collect();
        let mut block = Block::build(number, ledger.tip_hash(), txns);
        for entry in &mut block.entries {
            entry.status = TxnStatus::Committed;
        }
        store.apply_block(number, block.committed());
        durable.append(block.clone()).unwrap();
        ledger.append(block.clone()).unwrap();
        if number == DURABLE_CKPT_HEIGHT {
            write_checkpoint(&dir, &store, false).unwrap();
        }
        blocks.push(block);
    }
    (blocks, ledger, store, dir)
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
    let mut store = StoreBackend::for_shards(0);
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

/// Transactions per synthetic wave-commit block.
const COMMIT_BLOCK: usize = 2048;

/// `COMMIT_BLOCK` transactions, each reading its own genesis key and writing it back.
fn commit_disjoint_txns() -> Vec<Transaction> {
    (0..COMMIT_BLOCK as u64)
        .map(|i| {
            Transaction::from_parts(
                i + 1,
                0,
                [(Key::new(format!("acct:{i}")), SeqNo::new(0, i as u32 + 1))],
                [(Key::new(format!("acct:{i}")), Value::from_i64(2))],
            )
        })
        .collect()
}

/// `COMMIT_BLOCK` blind writers over 40 hot keys.
fn commit_hot_txns() -> Vec<Transaction> {
    (0..COMMIT_BLOCK as u64)
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

impl BenchContext {
    fn new() -> Self {
        let (durable_blocks, durable_reference, durable_reference_store, recover_dir) =
            durable_fixture();
        BenchContext {
            dense512: layered(512, 3),
            naive512: naive_layered(512, 3),
            built1600: layered(1600, 3),
            miss_preds: (0..8).map(TxnId).collect(),
            miss_succs: (504..512).map(TxnId).collect(),
            smallbank200: endorsed_txns(WorkloadKind::ModifiedSmallbank, 200),
            ycsb_cross200: endorsed_txns(
                WorkloadKind::Ycsb(YcsbProfile::a().with_cross_shard(2, 0.5)),
                200,
            ),
            ycsb_c200: endorsed_txns(WorkloadKind::Ycsb(YcsbProfile::c()), 200),
            ycsb_b200: endorsed_txns(
                WorkloadKind::Ycsb(YcsbProfile::b().with_write_partition(0.125)),
                200,
            ),
            ww_heavy: ww_heavy_txns(),
            pipeline_chunks: pipeline_chunk_txns(),
            commit_disjoint: Arc::new(commit_disjoint_txns()),
            commit_disjoint_seed: {
                let mut backend = StoreBackend::for_shards(4);
                backend.seed_genesis(
                    (0..COMMIT_BLOCK).map(|i| (Key::new(format!("acct:{i}")), Value::from_i64(1))),
                );
                backend
            },
            commit_hot: Arc::new(commit_hot_txns()),
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

    /// Median wall-clock of committing `txns` as block 1 on a clone of `seed` with an
    /// `E`-thread wave scheduler (pool spawned outside the timed region).
    fn measure_commit(&self, seed: &StoreBackend, txns: &Arc<Vec<Transaction>>, e: usize) -> f64 {
        let mut scheduler = CommitScheduler::new(e);
        let txns = Arc::clone(txns);
        median_ns(move || {
            let store = into_shared_backend(seed.clone());
            let outcome = scheduler.commit_block(&store, 1, &txns, true);
            outcome.statuses.len() as u64
        })
    }

    /// Every gated benchmark name, in reporting order.
    fn names() -> &'static [&'static str] {
        &[
            "build_layered_512",
            "commit_wave_disjoint2048_e0",
            "commit_wave_disjoint2048_e4",
            "commit_wave_hot2048_e0",
            "commit_wave_hot2048_e4",
            "formation_ww_restore_400",
            "formation_ww_restore_400_s4",
            "formation_ww_restore_400_s4_w2",
            "ledger_append_seg_200",
            "mark_committed_all_1600",
            "recover_cold_1600",
            "remove_half_1600",
            "sharp_pipeline_chunks1600_phased",
            "sharp_pipeline_chunks1600_pipelined",
            "sharp_smallbank200_sharded_s2",
            "sharp_smallbank200_unsharded",
            "sharp_ycsb_b_fastpath_off_200",
            "sharp_ycsb_b_fastpath_on_200",
            "sharp_ycsb_c_fastpath_off_200",
            "sharp_ycsb_c_fastpath_on_200",
            "sharp_ycsb_cross200_sharded_s2",
            "sharp_ycsb_cross200_sharded_s4_w2",
            "sharp_ycsb_cross200_unsharded",
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
            "commit_wave_disjoint2048_e0" => {
                self.measure_commit(&self.commit_disjoint_seed, &self.commit_disjoint, 0)
            }
            "commit_wave_disjoint2048_e4" => {
                self.measure_commit(&self.commit_disjoint_seed, &self.commit_disjoint, 4)
            }
            "commit_wave_hot2048_e0" => {
                self.measure_commit(&StoreBackend::for_shards(4), &self.commit_hot, 0)
            }
            "commit_wave_hot2048_e4" => {
                self.measure_commit(&StoreBackend::for_shards(4), &self.commit_hot, 4)
            }
            "formation_ww_restore_400" => median_ns(|| arrival_and_cut(&self.ww_heavy, 0, 0)),
            "formation_ww_restore_400_s4" => median_ns(|| arrival_and_cut(&self.ww_heavy, 4, 0)),
            "formation_ww_restore_400_s4_w2" => median_ns(|| arrival_and_cut(&self.ww_heavy, 4, 2)),
            "sharp_pipeline_chunks1600_phased" => median_ns(|| {
                chunked_phased_ids(&self.pipeline_chunks)
                    .iter()
                    .map(|b| b.len() as u64)
                    .sum()
            }),
            "sharp_pipeline_chunks1600_pipelined" => median_ns(|| {
                chunked_pipelined_ids(&self.pipeline_chunks)
                    .iter()
                    .map(|b| b.len() as u64)
                    .sum()
            }),
            "sharp_smallbank200_unsharded" => {
                median_ns(|| arrival_and_cut(&self.smallbank200, 0, 0))
            }
            "sharp_smallbank200_sharded_s2" => {
                median_ns(|| arrival_and_cut(&self.smallbank200, 2, 0))
            }
            "sharp_ycsb_cross200_unsharded" => {
                median_ns(|| arrival_and_cut(&self.ycsb_cross200, 0, 0))
            }
            "sharp_ycsb_cross200_sharded_s2" => {
                median_ns(|| arrival_and_cut(&self.ycsb_cross200, 2, 0))
            }
            "sharp_ycsb_cross200_sharded_s4_w2" => {
                median_ns(|| arrival_and_cut(&self.ycsb_cross200, 4, 2))
            }
            "sharp_ycsb_b_fastpath_off_200" => {
                median_ns(|| arrival_and_cut_cfg(&self.ycsb_b200, CcConfig::default()))
            }
            "sharp_ycsb_b_fastpath_on_200" => median_ns(|| {
                arrival_and_cut_cfg(
                    &self.ycsb_b200,
                    CcConfig {
                        template_fastpath: true,
                        ..CcConfig::default()
                    },
                )
            }),
            "sharp_ycsb_c_fastpath_off_200" => {
                median_ns(|| arrival_and_cut_cfg(&self.ycsb_c200, CcConfig::default()))
            }
            "sharp_ycsb_c_fastpath_on_200" => median_ns(|| {
                arrival_and_cut_cfg(
                    &self.ycsb_c200,
                    CcConfig {
                        template_fastpath: true,
                        ..CcConfig::default()
                    },
                )
            }),
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
    // Structural determinism check, machine-independent and always enforced: the parallel
    // formation path (S shards × W workers) must produce the *identical* committed id order
    // as the inline sharded path and the unsharded reference, on both the ww-restoration-heavy
    // input (per-shard decomposed restore) and the cross-shard YCSB input (coordinator path).
    for (input_name, txns) in [
        ("ww_heavy_400", &ctx.ww_heavy),
        ("ycsb_cross200", &ctx.ycsb_cross200),
    ] {
        let reference = arrival_and_cut_ids(txns, 0, 0);
        let inline_s4 = arrival_and_cut_ids(txns, 4, 0);
        let parallel_s4_w2 = arrival_and_cut_ids(txns, 4, 2);
        if reference == inline_s4 && reference == parallel_s4_w2 {
            println!(
                "  OK   {input_name}: inline/sharded/parallel commit orders identical ({} txns)",
                reference.len()
            );
        } else {
            println!(
                "  FAIL {input_name}: commit orders diverged between inline and parallel formation"
            );
            failures += 1;
        }
    }
    // Wave-commit scheduler, machine-independent checks first: the wave decomposition must be
    // a reproducible pure function of the block with the statically known shape — one maximal
    // wave on the conflict-free block, exactly 40-wide waves on the hot-key block.
    let widening = WideningTable::from_conflicts(&[]);
    for (input_name, txns, expected_waves) in [
        ("commit_disjoint2048", &ctx.commit_disjoint, 1usize),
        (
            "commit_hot2048",
            &ctx.commit_hot,
            ctx.commit_hot.len().div_ceil(40),
        ),
    ] {
        let plan_a = plan_waves(txns, &widening);
        let plan_b = plan_waves(txns, &widening);
        if plan_a == plan_b && plan_a.wave_count() == expected_waves {
            println!(
                "  OK   {input_name}: wave decomposition reproducible ({} waves, expected {expected_waves})",
                plan_a.wave_count()
            );
        } else {
            println!(
                "  FAIL {input_name}: wave decomposition not reproducible or wrong shape ({} vs {} waves, expected {expected_waves})",
                plan_a.wave_count(),
                plan_b.wave_count()
            );
            failures += 1;
        }
    }
    // The E = 4 wave commit must leave the store byte-identical to the E = 0 serial
    // reference (the determinism hard check on the execution stage).
    {
        let commit_store = |e: usize| {
            let mut scheduler = CommitScheduler::new(e);
            let store = into_shared_backend(ctx.commit_disjoint_seed.clone());
            let outcome = scheduler.commit_block(&store, 1, &ctx.commit_disjoint, true);
            (outcome.statuses, format!("{:?}", store.read()))
        };
        let (statuses_serial, store_serial) = commit_store(0);
        let (statuses_waved, store_waved) = commit_store(4);
        if statuses_serial == statuses_waved && store_serial == store_waved {
            println!(
                "  OK   commit_disjoint2048: E=4 statuses and store byte-identical to E=0 ({} txns)",
                statuses_serial.len()
            );
        } else {
            println!(
                "  FAIL commit_disjoint2048: E=4 commit diverged from the E=0 serial reference"
            );
            failures += 1;
        }
    }
    // The scaling claim itself — only meaningful when the runner actually has cores to use.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 2 {
        let serial = results["commit_wave_disjoint2048_e0"];
        let mut waved = results["commit_wave_disjoint2048_e4"];
        if waved >= serial {
            // One retry to filter a transient load spike, as for the band comparisons.
            waved = ctx.measure("commit_wave_disjoint2048_e4").min(waved);
        }
        if waved < serial {
            println!(
                "  OK   wave commit scaling: E=4 {:.2}x over serial on the disjoint block ({cores} cores)",
                serial / waved
            );
        } else {
            println!(
                "  FAIL wave commit scaling: E=4 not faster than serial on the disjoint block ({:.0} ns >= {:.0} ns, {cores} cores)",
                waved, serial
            );
            failures += 1;
        }
    } else {
        println!(
            "  SKIP wave commit scaling: single-core runner ({cores} core) — nothing to parallelise"
        );
    }
    // Pipelined formation, structural identity checks — machine-independent, always enforced.
    // (1) The pipelined driver must commit the identical per-block id order as the phased
    // reference on the generation-chunked overlap input (arrivals streaming into open
    // formation windows).
    {
        let phased = chunked_phased_ids(&ctx.pipeline_chunks);
        let pipelined = chunked_pipelined_ids(&ctx.pipeline_chunks);
        if phased == pipelined {
            println!(
                "  OK   pipeline_chunks1600: phased/pipelined per-block commit orders identical ({} blocks)",
                phased.len()
            );
        } else {
            println!(
                "  FAIL pipeline_chunks1600: commit orders diverged between phased and pipelined formation"
            );
            failures += 1;
        }
    }
    // (2) Fixed-seed end-to-end ledger identity: the same simulation with the knob on and off
    // must produce the identical ledger tip hash.
    {
        let mut cfg = SimulationConfig::new(
            SystemKind::FabricSharp,
            WorkloadKind::Ycsb(YcsbProfile::b().with_write_partition(0.2)),
        );
        cfg.duration_s = 1.0;
        cfg.params.num_accounts = 300;
        cfg.params.request_rate_tps = 300;
        cfg.block.max_txns_per_block = 30;
        cfg.seed = 11;
        let (phased_report, phased_ledger) = Simulator::run_with_ledger(&cfg);
        cfg.pipelined_formation = true;
        let (pipelined_report, pipelined_ledger) = Simulator::run_with_ledger(&cfg);
        if phased_ledger.tip_hash() == pipelined_ledger.tip_hash()
            && phased_report.blocks == pipelined_report.blocks
            && phased_report.blocks > 0
        {
            println!(
                "  OK   pipelined formation: fixed-seed end-to-end ledger identical to phased ({} blocks)",
                phased_report.blocks
            );
        } else {
            println!(
                "  FAIL pipelined formation: fixed-seed end-to-end ledger diverged from phased"
            );
            failures += 1;
        }
    }
    // (3) The overlap claim itself — only meaningful when there is a second core for the
    // formation worker to run on.
    if cores >= 2 {
        let phased = results["sharp_pipeline_chunks1600_phased"];
        let mut pipelined = results["sharp_pipeline_chunks1600_pipelined"];
        if pipelined >= phased {
            // One retry to filter a transient load spike, as for the band comparisons.
            pipelined = ctx
                .measure("sharp_pipeline_chunks1600_pipelined")
                .min(pipelined);
        }
        if pipelined < phased {
            println!(
                "  OK   pipelined formation throughput: {:.2}x over phased on the chunked input ({cores} cores)",
                phased / pipelined
            );
        } else {
            println!(
                "  FAIL pipelined formation throughput: not faster than phased on the chunked input ({:.0} ns >= {:.0} ns, {cores} cores)",
                pipelined, phased
            );
            failures += 1;
        }
    } else {
        println!(
            "  SKIP pipelined formation throughput: single-core runner ({cores} core) — the overlap has no second core to land on"
        );
    }
    // Template fast path: on all-safe (read-only YCSB-C) traffic the bypass must deliver a
    // real structural speedup — and commit the identical id order as the reference.
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
    // Instance fast path: the write-partitioned YCSB-B input is ~75% instance-safe (reads
    // whose sampled keys provably miss the write tail), so the bypass must deliver the same
    // structural speedup there as on all-safe traffic.
    let fpb_off = results["sharp_ycsb_b_fastpath_off_200"];
    let fpb_on = results["sharp_ycsb_b_fastpath_on_200"];
    let fpb_speedup = fpb_off / fpb_on;
    if fpb_speedup >= REQUIRED_FASTPATH_SPEEDUP {
        println!(
            "  OK   ycsb-b (partitioned) instance fastpath: {fpb_speedup:.2}x over reference (need >= {REQUIRED_FASTPATH_SPEEDUP:.1}x)"
        );
    } else {
        println!(
            "  FAIL ycsb-b (partitioned) instance fastpath: only {fpb_speedup:.2}x over reference (need >= {REQUIRED_FASTPATH_SPEEDUP:.1}x)"
        );
        failures += 1;
    }
    for (input_name, txns) in [("ycsb_c200", &ctx.ycsb_c200), ("ycsb_b200", &ctx.ycsb_b200)] {
        let reference = arrival_and_cut_ids_cfg(txns, CcConfig::default());
        let fastpath = arrival_and_cut_ids_cfg(
            txns,
            CcConfig {
                template_fastpath: true,
                ..CcConfig::default()
            },
        );
        if reference == fastpath {
            println!(
                "  OK   {input_name}: fastpath/reference commit orders identical ({} txns)",
                reference.len()
            );
        } else {
            println!("  FAIL {input_name}: commit orders diverged between fastpath and reference");
            failures += 1;
        }
        // Exactness: the orderer must bypass precisely the arrivals the static analyzer
        // tagged Safe — no more (soundness hole), no fewer (rescue not wired through).
        let predicted = txns.iter().filter(|t| t.template_class.is_safe()).count() as u64;
        let mut cc = FabricSharpCC::new(CcConfig {
            template_fastpath: true,
            ..CcConfig::default()
        });
        for txn in txns.iter() {
            let _ = cc.on_arrival(txn.clone());
        }
        let _ = cc.cut_block();
        let runtime = cc.stats().fastpath_accepted;
        if predicted == runtime {
            println!(
                "  OK   {input_name}: analyzer-predicted safe count == runtime fastpath count ({runtime})"
            );
        } else {
            println!(
                "  FAIL {input_name}: analyzer predicted {predicted} safe but the orderer bypassed {runtime}"
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
    println!(
        "  INFO sharded s2 / unsharded arrival+cut: smallbank {:.2}x, ycsb-cross {:.2}x",
        results["sharp_smallbank200_sharded_s2"] / results["sharp_smallbank200_unsharded"],
        results["sharp_ycsb_cross200_sharded_s2"] / results["sharp_ycsb_cross200_unsharded"],
    );
    println!(
        "  INFO parallel formation (S=4): ww-restore W2/W0 {:.2}x, ycsb-cross W2/unsharded {:.2}x",
        results["formation_ww_restore_400_s4_w2"] / results["formation_ww_restore_400_s4"],
        results["sharp_ycsb_cross200_sharded_s4_w2"] / results["sharp_ycsb_cross200_unsharded"],
    );
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

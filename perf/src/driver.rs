//! The closed-loop driver: one client, one block of [`BLOCK_SIZE`] transactions in flight.
//!
//! One block cycle composes exactly the public calls `SimpleChain::seal_block` composes with
//! `CcConfig::default()` — endorse, arrive, cut, commit, build, append, feed back — with the
//! in-memory ledger swapped for a [`DurableLedger`], and afterwards cold-recovers the
//! directory it wrote. Every call into a layer goes through [`Tracer::span`], so the traced
//! repetition is this same code with span recording switched on. The driver names no
//! concurrency knob of `CcConfig`: it measures the shipped default path.

use crate::json::Json;
use crate::stats::{median, percentile};
use crate::trace::{Layer, Tracer};
use crate::workloads::{Workload, BLOCK_SIZE, FACADE_BLOCKS, LAG, ORACLE_BLOCKS};
use eov_baselines::{apply_without_validation, mvcc_validate_and_apply, SimpleChain};
use eov_common::abort::AbortReason;
use eov_common::config::{CcConfig, WorkloadParams};
use eov_common::txn::{TemplateClass, Transaction, TxnId, TxnStatus};
use eov_ledger::{write_checkpoint, Block, Digest, DurableLedger, DurableOptions};
use eov_vstore::{SnapshotManager, StateRead, StateStore, StoreBackend};
use eov_workload::{TxnTemplate, WorkloadGenerator};
use fabricsharp_core::{is_serializable, recover_from_disk, SnapshotEndorser};
use std::error::Error;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub type Res<T> = Result<T, Box<dyn Error>>;

/// Removes a repetition's scratch directory when dropped: on success, failure and panic.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Claims `path`, clearing anything a killed earlier run left there.
    pub fn new(path: PathBuf) -> Self {
        let _ = std::fs::remove_dir_all(&path);
        ScratchDir(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub struct Repetition<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    pub blocks: u64,
    pub traced: bool,
    /// Fresh directory for segments and checkpoints.
    pub dir: &'a Path,
    /// Where the traced repetition writes its spans.
    pub trace_file: Option<&'a Path>,
    /// Also run the two checks that cost more than a repetition should carry, so that one
    /// discarded repetition pays for them: the serializability oracle over the first
    /// [`ORACLE_BLOCKS`] blocks, and the first [`FACADE_BLOCKS`] blocks driven through
    /// `SimpleChain` and compared with the driver's chain.
    pub audit: bool,
}

/// A generated input with the static tags the endorsing peer attaches to it.
type Tagged = (TxnTemplate, TemplateClass, Option<u16>);

fn tagged_templates(generator: &mut WorkloadGenerator, count: usize) -> Vec<Tagged> {
    let analyzer = generator.analyzer();
    (0..count)
        .map(|_| {
            let template = generator.next_template();
            let class = analyzer.classify_instance(&template);
            let index = analyzer.template_index(&template);
            (template, class, index)
        })
        .collect()
}

/// `durable_fsync` stays at its default, off: this sandbox's fsync cost drifts by a third
/// within a session, which no bound the contract allows survives (README, caveats).
fn cc_config(workload: &Workload) -> CcConfig {
    CcConfig {
        checkpoint_interval: workload.checkpoint_every,
        ..CcConfig::default()
    }
}

/// Counts taken at the layer boundaries; every one repeats exactly for a seed.
#[derive(Default)]
struct Counts {
    offered: u64,
    reads: u64,
    arrival_calls: u64,
    accepted: u64,
    formation_calls: u64,
    txns_out: u64,
    blocks: u64,
    committed: u64,
    writes_applied: u64,
    validation_aborts: u64,
    checkpoint_calls: u64,
}

/// Bytes and files a repetition left on disk.
#[derive(Default)]
struct DiskUse {
    segment_bytes: u64,
    segments: u64,
    checkpoint_bytes: u64,
}

fn disk_use(dir: &Path) -> Res<DiskUse> {
    let mut used = DiskUse::default();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let len = std::fs::metadata(&path)?.len();
        match path.extension().and_then(|e| e.to_str()) {
            Some("log") => {
                used.segment_bytes += len;
                used.segments += 1;
            }
            Some("bin") => used.checkpoint_bytes += len,
            _ => {}
        }
    }
    Ok(used)
}

/// Peak resident set of this process so far (`VmHWM` in `/proc/self/status`), in MiB.
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Tip hash and committed count after driving the first `blocks` batches of the workload
/// through the `SimpleChain` facade, the way an example or test would.
fn facade_tip(workload: &Workload, seed: u64, blocks: u64) -> (Digest, usize) {
    let mut generator = WorkloadGenerator::new(workload.kind(), WorkloadParams::default(), seed);
    let mut chain = SimpleChain::new(workload.system);
    chain.seed(generator.genesis());
    let templates = tagged_templates(&mut generator, blocks as usize * BLOCK_SIZE);
    for batch in templates.chunks(BLOCK_SIZE) {
        let snapshot = chain.ledger().height().saturating_sub(LAG);
        let endorsed: Vec<Transaction> = batch
            .iter()
            .map(|(template, class, index)| {
                chain
                    .execute_at(snapshot, |ctx| template.run(ctx))
                    .with_template_class(*class)
                    .with_template_id(*index)
            })
            .collect();
        for txn in endorsed {
            chain.submit(txn);
        }
        chain.seal_block();
    }
    (
        chain.ledger().tip_hash(),
        chain.ledger().committed_txn_count(),
    )
}

/// Runs one repetition — set-up, timed loop, recovery, correctness checks — and returns its
/// result: `ledger_tip`, `failed_checks`, `offered`, and a flat `metrics` object holding
/// every end-to-end metric plus, when traced, every per-layer metric except
/// `trace.overhead_ratio` (which needs the untraced repetitions too).
pub fn run_repetition(rep: &Repetition<'_>) -> Res<Json> {
    let workload = rep.workload;
    let config = cc_config(workload);
    let mut failed_checks: Vec<String> = Vec::new();

    // Set-up: everything before the first endorsement. The program under test receives
    // only generated inputs, so templates and their static tags are made here.
    let setup_started = Instant::now();
    let mut generator =
        WorkloadGenerator::new(workload.kind(), WorkloadParams::default(), rep.seed);
    let mut store = StoreBackend::for_shards(0);
    store.seed_genesis(generator.genesis());
    let snapshots = SnapshotManager::new();
    snapshots.register_block(0);
    let endorser = SnapshotEndorser::new(snapshots.clone());
    let mut cc = workload.system.build(config);
    let options = DurableOptions::from_cc_config(&config);
    let (mut ledger, _) = DurableLedger::open(rep.dir, options)?;
    write_checkpoint(rep.dir, &store, config.durable_fsync)?;
    let templates = tagged_templates(&mut generator, rep.blocks as usize * BLOCK_SIZE);
    let setup_s = setup_started.elapsed().as_secs_f64();

    let mut tracer = Tracer::new(rep.traced);
    let mut counts = Counts::default();
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(rep.blocks as usize);
    let mut checkpoint_ms: Vec<f64> = Vec::new();
    let mut next_id = 1u64;

    let loop_started = Instant::now();
    for batch in templates.chunks(BLOCK_SIZE) {
        let block_started = Instant::now();
        let height = ledger.height();
        let block_no = height + 1;
        let snapshot = height.saturating_sub(LAG);
        tracer.begin_block(block_no);

        let endorsed: Vec<Transaction> = tracer.span(Layer::Endorser, block_no, || {
            batch
                .iter()
                .map(|(template, class, index)| {
                    let id = TxnId(next_id);
                    next_id += 1;
                    endorser
                        .simulate_at(&store, id, snapshot, |ctx| template.run(ctx))
                        .with_template_class(*class)
                        .with_template_id(*index)
                })
                .collect()
        });
        counts.offered += endorsed.len() as u64;
        counts.reads += endorsed
            .iter()
            .map(|t| t.read_set.len() as u64)
            .sum::<u64>();

        let (arrived, accepted) = tracer.span(Layer::Arrival, block_no, || {
            let latest = store.last_block();
            let (mut arrived, mut accepted) = (0u64, 0u64);
            for txn in endorsed {
                if cc.on_endorsement(&txn, latest).is_accept() {
                    arrived += 1;
                    accepted += u64::from(cc.on_arrival(txn).is_accept());
                }
            }
            (arrived, accepted)
        });
        counts.arrival_calls += arrived;
        counts.accepted += accepted;

        let ordered = tracer.span(Layer::Formation, block_no, || cc.cut_block());
        counts.formation_calls += 1;
        counts.txns_out += ordered.len() as u64;
        if ordered.is_empty() {
            // Like `seal_block`: a batch with no survivor appends no block.
            tracer.end_block();
            continue;
        }

        let statuses = tracer.span(Layer::Commit, block_no, || {
            if cc.needs_peer_validation() {
                mvcc_validate_and_apply(&mut store, block_no, &ordered)
            } else {
                apply_without_validation(&mut store, block_no, &ordered)
            }
        });

        let (block, outcome) = tracer.span(Layer::LedgerBuild, block_no, || {
            let mut block = Block::build(block_no, ledger.ledger().tip_hash(), ordered);
            let mut outcome: Vec<(Transaction, TxnStatus)> = Vec::with_capacity(statuses.len());
            for (entry, status) in block.entries.iter_mut().zip(statuses) {
                entry.status = status;
                outcome.push((entry.txn.clone(), status));
            }
            (block, outcome)
        });
        for (txn, status) in &outcome {
            match status {
                TxnStatus::Committed => {
                    counts.committed += 1;
                    counts.writes_applied += txn.write_set.len() as u64;
                }
                TxnStatus::Aborted(_) => counts.validation_aborts += 1,
                TxnStatus::Pending => return Err("commit left a transaction pending".into()),
            }
        }

        tracer.span(Layer::LedgerAppend, block_no, || ledger.append(block))?;
        counts.blocks += 1;

        tracer.span(Layer::CcFeedback, block_no, || {
            snapshots.register_block(block_no);
            cc.on_block_committed(block_no, &outcome);
        });
        // Freed inside the block span, so the cycle's spans and self time add up to the loop.
        drop(outcome);

        if config.checkpoint_interval > 0 && block_no % config.checkpoint_interval == 0 {
            let started = Instant::now();
            tracer.span(Layer::LedgerCheckpoint, block_no, || {
                write_checkpoint(rep.dir, &store, config.durable_fsync)
            })?;
            checkpoint_ms.push(started.elapsed().as_secs_f64() * 1e3);
            counts.checkpoint_calls += 1;
        }

        tracer.end_block();
        latencies_ms.push(block_started.elapsed().as_secs_f64() * 1e3);
    }
    let loop_s = loop_started.elapsed().as_secs_f64();
    if latencies_ms.is_empty() || counts.committed == 0 {
        return Err("the timed loop committed nothing".into());
    }

    // Live-side facts the recovered state is compared against.
    if let Err(e) = ledger.ledger().verify_integrity() {
        failed_checks.push(format!("verify_integrity: {e}"));
    }
    let live_height = ledger.height();
    let live_tip = ledger.ledger().tip_hash();
    if !cc.needs_peer_validation() && counts.validation_aborts != 0 {
        failed_checks.push(format!(
            "{} validation aborts on a system that skips validation",
            counts.validation_aborts
        ));
    }
    let mut oracle = Json::Null;
    if rep.audit {
        let mut history: Vec<Transaction> = Vec::new();
        for number in 1..=live_height.min(ORACLE_BLOCKS) {
            let block = ledger.ledger().block(number)?;
            history.extend(block.committed().map(|(txn, _)| txn.clone()));
        }
        oracle = Json::Bool(is_serializable(&history));

        let blocks = live_height.min(FACADE_BLOCKS);
        let driver_tip = ledger.ledger().block(blocks)?.hash();
        let driver_committed: usize = (1..=blocks)
            .map(|n| ledger.ledger().block(n).map(Block::committed_count))
            .sum::<Result<usize, _>>()?;
        if facade_tip(workload, rep.seed, blocks) != (driver_tip, driver_committed) {
            failed_checks.push(format!(
                "SimpleChain facade diverges from the driver within {blocks} blocks"
            ));
        }
    }
    let early_aborts = cc.early_aborts();
    let avg_hops = cc.avg_hops();
    drop(ledger);
    let disk = disk_use(rep.dir)?;

    // Cold recovery of the directory just written.
    let recovery_started = Instant::now();
    let recovered = tracer.span(Layer::Recovery, live_height, || {
        recover_from_disk(rep.dir, config)
    })?;
    let recover_s = recovery_started.elapsed().as_secs_f64();
    if recovered.ledger.height() != live_height || recovered.ledger.ledger().tip_hash() != live_tip
    {
        failed_checks.push("recovered ledger tip differs from the live one".into());
    }
    if recovered.store != store {
        failed_checks.push("recovered store differs from the live one".into());
    }
    let blocks_on_disk = recovered.open.blocks_recovered;
    let checkpoint_height = recovered.checkpoint_height;
    drop(recovered);
    if rep.traced {
        tracer.span(Layer::RecoveryScan, live_height, || {
            DurableLedger::open(rep.dir, options).map(drop)
        })?;
    }

    let p50 = percentile(&latencies_ms, 0.50);
    let p99 = percentile(&latencies_ms, 0.99);
    let mut metrics: Vec<(String, Json)> = Vec::new();
    let mut put = |name: &str, value: f64| metrics.push((name.to_string(), Json::Num(value)));
    put("committed_tps", counts.committed as f64 / loop_s);
    put("commit_latency_p50_ms", p50.value);
    put("recover_s", recover_s);
    put("peak_rss_mb", peak_rss_mb()?);
    put("setup_s", setup_s);

    if rep.traced {
        let offered = counts.offered as f64;
        let abort_count = |reason: AbortReason| {
            early_aborts
                .iter()
                .find(|(r, _)| *r == reason)
                .map_or(0, |(_, n)| *n)
        };
        let named = [
            AbortReason::UnreorderableCycle,
            AbortReason::BloomFalsePositive,
            AbortReason::SnapshotTooOld,
        ];
        let named_total: u64 = named.iter().map(|r| abort_count(*r)).sum();
        let all_early: u64 = early_aborts.iter().map(|(_, n)| *n).sum();
        let formation_us = tracer.durations_us(Layer::Formation);
        let commit_us = tracer.durations_us(Layer::Commit);
        let append_us = tracer.durations_us(Layer::LedgerAppend);
        let recovery_busy = tracer.busy_s(Layer::Recovery);

        put("endorser.busy_s", tracer.busy_s(Layer::Endorser));
        put("endorser.calls", offered);
        put("endorser.reads", counts.reads as f64);
        put(
            "endorser.us_per_txn",
            tracer.busy_s(Layer::Endorser) * 1e6 / offered,
        );
        put("arrival.busy_s", tracer.busy_s(Layer::Arrival));
        put("arrival.calls", counts.arrival_calls as f64);
        put("arrival.accepted", counts.accepted as f64);
        put("arrival.accept_ratio", counts.accepted as f64 / offered);
        put(
            "arrival.us_per_txn",
            tracer.busy_s(Layer::Arrival) * 1e6 / offered,
        );
        put("arrival.avg_hops", avg_hops);
        for reason in named {
            put(
                &format!("arrival.abort.{reason:?}"),
                abort_count(reason) as f64,
            );
        }
        put("arrival.abort.other", (all_early - named_total) as f64);
        put("formation.busy_s", tracer.busy_s(Layer::Formation));
        put("formation.calls", counts.formation_calls as f64);
        put("formation.txns_out", counts.txns_out as f64);
        put("formation.block_p50_us", median(&formation_us));
        put(
            "formation.block_p99_us",
            percentile(&formation_us, 0.99).value,
        );
        put("commit.busy_s", tracer.busy_s(Layer::Commit));
        put("commit.calls", counts.blocks as f64);
        put("commit.writes_applied", counts.writes_applied as f64);
        put("commit.validation_aborts", counts.validation_aborts as f64);
        put("commit.block_p50_us", median(&commit_us));
        put("ledger.build.busy_s", tracer.busy_s(Layer::LedgerBuild));
        put("ledger.build.calls", counts.blocks as f64);
        put("ledger.append.busy_s", tracer.busy_s(Layer::LedgerAppend));
        put("ledger.append.calls", counts.blocks as f64);
        put("ledger.append.p99_us", percentile(&append_us, 0.99).value);
        put("ledger.append.bytes", disk.segment_bytes as f64);
        put("ledger.segments", disk.segments as f64);
        put(
            "ledger.checkpoint.busy_s",
            tracer.busy_s(Layer::LedgerCheckpoint),
        );
        put("ledger.checkpoint.calls", counts.checkpoint_calls as f64);
        put("ledger.checkpoint.bytes", disk.checkpoint_bytes as f64);
        put(
            "ledger.checkpoint.max_ms",
            checkpoint_ms.iter().copied().fold(0.0, f64::max),
        );
        put("cc_feedback.busy_s", tracer.busy_s(Layer::CcFeedback));
        put("recovery.busy_s", recovery_busy);
        put("recovery.scan_s", tracer.busy_s(Layer::RecoveryScan));
        put("recovery.blocks_on_disk", blocks_on_disk as f64);
        put(
            "recovery.blocks_replayed",
            (live_height - checkpoint_height) as f64,
        );
        put("recovery.checkpoint_height", checkpoint_height as f64);
        put(
            "recovery.us_per_block",
            recovery_busy * 1e6 / blocks_on_disk as f64,
        );
        put("driver.self_s", tracer.self_s(Layer::Block));
        put("driver.loop_s", loop_s);
        put("driver.blocks", counts.blocks as f64);
        put("driver.block_p95_ms", percentile(&latencies_ms, 0.95).value);
        put("driver.block_p99_ms", p99.value);
        put("driver.offered", offered);
        put("driver.committed", counts.committed as f64);
        put(
            "driver.abort_share",
            (offered - counts.committed as f64) / offered,
        );
        put(
            "driver.disk_bytes_per_committed_txn",
            (disk.segment_bytes + disk.checkpoint_bytes) as f64 / counts.committed as f64,
        );
        if let Some(path) = rep.trace_file {
            tracer.write_jsonl(path)?;
        }
    }

    Ok(Json::obj([
        ("ledger_tip", Json::str(live_tip.to_hex())),
        (
            "failed_checks",
            Json::Arr(failed_checks.into_iter().map(Json::Str).collect()),
        ),
        ("oracle_serializable", oracle),
        ("oracle_blocks", Json::from(live_height.min(ORACLE_BLOCKS))),
        ("offered", Json::from(counts.offered)),
        ("latency_samples", Json::from(p99.samples as u64)),
        ("p99_supported", Json::Bool(p99.is_supported())),
        ("loop_s", Json::from(loop_s)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

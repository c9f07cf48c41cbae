//! The discrete-event simulation of the EOV pipeline.
//!
//! One [`Simulator::run`] call plays a single system (one of the five concurrency controls) on
//! one workload for a configured simulated duration and returns a [`SimReport`]. The pipeline
//! stages and their costs come from the [`PipelineProfile`]; the commit/abort decisions come
//! from the *actual* concurrency-control implementations — nothing about serializability is
//! modelled statistically.
//!
//! The event flow mirrors Figure 2 of the paper: clients submit at a fixed request rate →
//! endorsing peers simulate against a block snapshot (taking `endorse_base + read_interval ×
//! reads` simulated ms) → after the client delay and consensus latency the transaction reaches
//! the ordering service, which runs the system's arrival logic → the block-formation condition
//! (size or timeout) cuts a block, paying the system's reordering cost → the block enters the
//! single validator, which is the pipeline's bottleneck → validation applies the MVCC check
//! (except under FabricSharp) and commits the writes, advancing the chain that subsequent
//! endorsements read from.
//!
//! The work is one [`SimpleChain`], the node the examples and tests drive: the event loop calls
//! its `execute_at`, `endorse_check`, `arrive`, `cut` and `commit` at the events above. Simulated
//! time models the pipeline's overlap; the real work is done in event order, on one thread.
//!
//! Two report fields are the event loop's own. A committed transaction's latency runs from its
//! request's submission, which its id fixes: request `n` is issued at `(n − 1)` inter-arrival
//! gaps and becomes transaction `n`. [`SimReport::committed_with_anti_rw`] is counted when a
//! block's `BlockValidated` event fires, against the chain's store just before the block
//! commits, and only for the systems that skip peer validation.

use crate::events::{ms, Event, EventQueue, SimTime};
use crate::metrics::{FormationTiming, SimReport};
use crate::profiles::PipelineProfile;
use eov_baselines::api::SystemKind;
use eov_baselines::chain::SimpleChain;
use eov_common::abort::AbortCounts;
use eov_common::config::{BlockConfig, CcConfig, WorkloadParams};
use eov_common::hash::FoldState;
use eov_common::rwset::{Key, ReadSet};
use eov_common::txn::{Transaction, TxnId, TxnStatus};
use eov_common::version::SeqNo;
use eov_ledger::Ledger;
use eov_vstore::MultiVersionStore;
use eov_workload::generator::{WorkloadGenerator, WorkloadKind};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Everything one simulation run needs.
#[derive(Clone, Debug)]
pub struct SimulationConfig {
    /// Which concurrency control to run.
    pub system: SystemKind,
    /// Which workload to generate.
    pub workload: WorkloadKind,
    /// Workload parameters (Table 2).
    pub params: WorkloadParams,
    /// Block-formation parameters.
    pub block: BlockConfig,
    /// FabricSharp concurrency-control parameters (ignored by the baselines, except the
    /// durability knobs, which every system's run uses).
    pub cc: CcConfig,
    /// Pipeline cost profile (Fabric or FastFabric testbed).
    pub profile: PipelineProfile,
    /// Simulated run length in seconds (clients stop submitting after this; the pipeline then
    /// drains).
    pub duration_s: f64,
    /// RNG seed for the workload generator.
    pub seed: u64,
    /// Persist the run to this directory with `SimpleChain::persist_to`: segment files (per
    /// [`CcConfig::segment_rotate_kib`] / [`CcConfig::durable_fsync`]) and checkpoints at
    /// genesis and every [`CcConfig::checkpoint_interval`] blocks. `None` (the default) keeps
    /// the run in memory; the ledger is bit-identical either way. The directory must not exist
    /// or be empty: resuming is `eov_ledger::recover_from_disk`'s job. A used
    /// directory, or a failed append or checkpoint, ends the run with the error in
    /// [`SimReport::ledger_error`].
    pub durability_dir: Option<std::path::PathBuf>,
}

impl SimulationConfig {
    /// A configuration with the paper's defaults (Fabric testbed, Table 2 defaults, 15
    /// simulated seconds).
    pub fn new(system: SystemKind, workload: WorkloadKind) -> Self {
        SimulationConfig {
            system,
            workload,
            params: WorkloadParams::default(),
            block: BlockConfig::default(),
            cc: CcConfig::default(),
            profile: PipelineProfile::fabric(),
            duration_s: 15.0,
            seed: 42,
            durability_dir: None,
        }
    }

    /// Same as [`SimulationConfig::new`] but on the FastFabric testbed profile (Section 5.4).
    pub fn fast_fabric(system: SystemKind, workload: WorkloadKind) -> Self {
        SimulationConfig {
            profile: PipelineProfile::fast_fabric(),
            ..Self::new(system, workload)
        }
    }
}

/// The simulator. Stateless — all state lives inside a single `run` call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Simulator;

impl Simulator {
    /// Runs one configuration to completion and reports the metrics.
    pub fn run(config: &SimulationConfig) -> SimReport {
        Self::run_full(config).0
    }

    /// Runs one configuration to completion, returning the metrics, the ledger *and* the
    /// final state store — the artefacts the determinism and recovery harnesses compare.
    pub fn run_full(config: &SimulationConfig) -> (SimReport, Ledger, MultiVersionStore) {
        let profile = PipelineProfile::for_system(config.profile, config.system);
        let mut generator =
            WorkloadGenerator::new(config.workload.clone(), config.params, config.seed);

        // The node: store, endorser, concurrency control and the ledger of record,
        // on disk when a durability directory is configured. A ledger failure ends the run
        // there and is carried in the report.
        let mut chain = SimpleChain::with_cc_config(config.system, config.cc);
        chain.seed(generator.genesis());
        let mut ledger_error = config
            .durability_dir
            .as_ref()
            .and_then(|dir| chain.persist_to(dir).err());

        // Template classifier (see `eov_workload::templates`): every endorsed transaction is
        // tagged at dispatch, for every system; Fabric# sends every `Safe` one down its template
        // fast path, the other systems ignore the tag.
        let classifier = generator.analyzer();
        let mut commit_us: Vec<u64> = Vec::new();
        let mut arrivals: u64 = 0;
        let mut arrival_time = Duration::ZERO;

        // Event loop state.
        let mut queue = EventQueue::new();
        let horizon: SimTime = ms(config.duration_s * 1_000.0);
        let interarrival_us: SimTime = (1_000_000f64 / config.params.request_rate_tps as f64)
            .round()
            .max(1.0) as SimTime;
        let submitted_at = |id: TxnId| (id.0 - 1) * interarrival_us;
        let mut last_event_at: SimTime = 0;

        // Counters.
        let mut offered: u64 = 0;
        let mut in_ledger: u64 = 0;
        let mut committed: u64 = 0;
        let mut committed_with_anti_rw: u64 = 0;
        let mut arrivals_since_cut: usize = 0;
        let mut latency_sum_us: u128 = 0;
        let mut block_span_sum: u64 = 0;
        let mut aborts = AbortCounts::default();
        // All block-cut state (trigger counter and formation samples) lives in one driver so
        // both cut triggers — batch-size and cadence — share a single code path.
        let mut cut = CutDriver::default();
        let mut validator_free_at: SimTime = 0;
        // For the vanilla-Fabric execute-phase lock: before a block can commit (write lock),
        // the in-flight simulations holding the read lock must drain, which on average costs
        // one full simulation duration per block. Every other system replaced the lock with
        // snapshot reads and pays nothing.
        let lock_penalty_ms: f64 = if profile.endorsement_lock {
            profile.endorse_base_ms
                + config.params.read_interval_ms as f64 * config.params.reads_per_txn as f64
        } else {
            0.0
        };

        if ledger_error.is_none() {
            queue.schedule(0, Event::ClientSubmit { request_no: 1 });
        }

        while let Some((at, event)) = queue.pop() {
            let now = at;
            last_event_at = last_event_at.max(now);
            match event {
                Event::ClientSubmit { request_no } => {
                    if now >= horizon {
                        continue;
                    }
                    offered += 1;
                    let template = generator.next_template();
                    let endorse_ms = profile.endorse_base_ms
                        + config.params.read_interval_ms as f64 * template.read_count() as f64;
                    let done_at = now + ms(endorse_ms);
                    // Simulate now, against the snapshot of the last committed block; the result
                    // is broadcast when the EndorseDone event fires. Requests are endorsed in
                    // request order, so the chain's transaction ids are the request numbers.
                    let txn = chain
                        .execute_at(chain.ledger().height(), |ctx| template.run(ctx))
                        .with_template_class(classifier.classify_instance(&template))
                        .with_template_id(classifier.template_index(&template));
                    debug_assert_eq!(txn.id, TxnId(request_no), "ids follow request order");
                    debug_assert_eq!(submitted_at(txn.id), now, "requests follow the id clock");
                    queue.schedule(done_at, Event::EndorseDone { txn });
                    // Next client request.
                    queue.schedule(
                        now + interarrival_us,
                        Event::ClientSubmit {
                            request_no: request_no + 1,
                        },
                    );
                }

                Event::EndorseDone { mut txn } => {
                    // Under the vanilla-Fabric lock the simulation effectively ran against the
                    // latest block at completion time; re-simulate if the chain advanced.
                    let height = chain.ledger().height();
                    if profile.endorsement_lock && txn.snapshot_block < height {
                        txn = Self::resimulate(chain.store(), &txn, height);
                    }
                    if chain.endorse_check(&txn).is_accept() {
                        let broadcast_ms =
                            config.params.client_delay_ms as f64 + profile.ordering_latency_ms;
                        queue.schedule(now + ms(broadcast_ms), Event::OrdererReceive { txn });
                    }
                }

                Event::OrdererReceive { txn } => {
                    // The orderer's batching policy counts every delivered transaction,
                    // exactly like Fabric's MaxMessageCount: an early abort still consumes a
                    // slot in the current batch window. (Counting only accepted transactions
                    // would stretch Fabric#'s batch windows under contention and starve hot
                    // keys of commit opportunities — a cadence artifact, not a CC property.)
                    arrivals_since_cut += 1;
                    arrivals += 1;
                    let started = Instant::now();
                    let decision = chain.arrive(txn);
                    arrival_time += started.elapsed();
                    if decision.is_accept() && chain.cc().pending_len() == 1 {
                        queue.schedule(
                            now + ms(config.block.block_timeout_ms as f64),
                            Event::BlockTimeout {
                                blocks_formed_at_arming: cut.blocks_formed,
                            },
                        );
                    }
                    if arrivals_since_cut >= config.block.max_txns_per_block {
                        arrivals_since_cut = 0;
                        cut.trigger(&mut chain, &profile, &mut queue, now);
                    }
                }

                Event::BlockTimeout {
                    blocks_formed_at_arming,
                } => {
                    if cut.blocks_formed == blocks_formed_at_arming && chain.cc().pending_len() > 0
                    {
                        arrivals_since_cut = 0;
                        cut.trigger(&mut chain, &profile, &mut queue, now);
                    }
                }

                Event::BlockDelivered { txns } => {
                    // The single validator serves delivered blocks in order; each one occupies
                    // it for the modelled service time.
                    let start = now.max(validator_free_at);
                    let service = profile.validation_ms(txns.len()) + lock_penalty_ms;
                    validator_free_at = start + ms(service);
                    // The block's effects are applied, and become visible, at the
                    // BlockValidated event.
                    queue.schedule(validator_free_at, Event::BlockValidated { txns });
                }

                Event::BlockValidated { txns } => {
                    // Commits that tolerate an anti-rw dependency (a Strong-Serializability
                    // system would have aborted them); only systems without peer validation
                    // actually commit them.
                    if !chain.cc().needs_peer_validation() {
                        committed_with_anti_rw += count_anti_rw_commits(chain.store(), &txns);
                    }
                    let started = Instant::now();
                    let report = match chain.commit(txns) {
                        Ok(report) => report,
                        Err(e) => {
                            ledger_error = Some(e);
                            break;
                        }
                    };
                    commit_us.push(elapsed_us(started));
                    let block_no = report.block_number.expect("cut blocks are never empty");
                    let block = chain.ledger().block(block_no).expect("block just appended");
                    for entry in &block.entries {
                        in_ledger += 1;
                        match entry.status {
                            TxnStatus::Committed => {
                                committed += 1;
                                latency_sum_us +=
                                    now.saturating_sub(submitted_at(entry.txn.id)) as u128;
                                block_span_sum += block_no.saturating_sub(entry.txn.snapshot_block);
                            }
                            TxnStatus::Aborted(reason) => {
                                aborts.add(reason, 1);
                            }
                            TxnStatus::Pending => unreachable!("validation assigns final statuses"),
                        }
                    }
                }
            }
        }

        // Assemble the report.
        let cc = chain.cc();
        for (reason, count) in cc.early_aborts() {
            aborts.add(reason, count);
        }
        let blocks = chain.ledger().height();
        let duration_s = (last_event_at as f64 / 1_000_000.0).max(config.duration_s);
        let committed_f = committed.max(1) as f64;
        let mut formation_us = cut.formation_us;
        let report = SimReport {
            system: config.system,
            duration_s,
            offered,
            in_ledger,
            committed,
            aborts,
            blocks,
            avg_latency_ms: latency_sum_us as f64 / 1_000.0 / committed_f,
            avg_block_span: block_span_sum as f64 / committed_f,
            avg_hops: cc.avg_hops(),
            measured_arrival_us_per_txn: arrival_time.as_secs_f64() * 1_000_000.0
                / arrivals.max(1) as f64,
            committed_with_anti_rw,
            formation: FormationTiming::from_samples(&mut formation_us),
            commit: FormationTiming::from_samples(&mut commit_us),
            fastpath_accepted: cc.fastpath_accepted(),
            ledger_error,
        };
        let (ledger, store) = chain.into_parts();
        (report, ledger, store)
    }

    /// Runs the same configuration for every system and returns the reports in
    /// [`SystemKind::all`] order — the shape of every multi-system figure.
    pub fn run_all_systems(base: &SimulationConfig) -> Vec<SimReport> {
        SystemKind::all()
            .into_iter()
            .map(|system| {
                let config = SimulationConfig {
                    system,
                    ..base.clone()
                };
                Self::run(&config)
            })
            .collect()
    }

    /// Re-simulates a transaction against a newer snapshot (vanilla Fabric's lock semantics:
    /// the simulation always completes against the latest block). The original template is not
    /// retained, so only the read versions are refreshed, in place, and the write set is kept
    /// as endorsed: the key sets are what matter to the concurrency analysis.
    fn resimulate(store: &MultiVersionStore, txn: &Transaction, latest_block: u64) -> Transaction {
        let mut refreshed = txn.clone();
        refreshed.snapshot_block = latest_block;
        let mut reads = ReadSet::new();
        for item in txn.read_set.iter() {
            let version = store
                .read_at(&item.key, latest_block)
                .ok()
                .flatten()
                .map(|vv| vv.version)
                .unwrap_or(SeqNo::zero());
            reads.record(item.key.clone(), version);
        }
        refreshed.read_set = reads;
        refreshed
    }
}

/// How many transactions of a block about to be committed read a version that is no longer the
/// latest: commits that tolerate an anti-rw dependency. Evaluated serially in block order
/// against the pre-block state plus earlier in-block writes, exactly like the MVCC check
/// would be. Feeds the Figure 15 "commits a Strong-Serializability system would abort" metric.
fn count_anti_rw_commits(store: &MultiVersionStore, txns: &[Transaction]) -> u64 {
    let mut in_block_writes: HashSet<&Key, FoldState> = HashSet::default();
    let mut count = 0;
    for txn in txns {
        let stale = txn.read_set.iter().any(|read| {
            let overwritten_in_block = in_block_writes.contains(&read.key);
            let latest = store
                .latest(&read.key)
                .map(|vv| vv.version)
                .unwrap_or(SeqNo::zero());
            overwritten_in_block || latest != read.version
        });
        if stale {
            count += 1;
        }
        for write in txn.write_set.iter() {
            in_block_writes.insert(&write.key);
        }
    }
    count
}

/// Wall-clock since `started`, in µs.
fn elapsed_us(started: Instant) -> u64 {
    started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// Driver-side owner of the block-cut path: the trigger counter and the measured formation
/// samples. Both cut triggers (batch size and cadence timeout) funnel through
/// [`CutDriver::trigger`], the single place a block leaves the pending set.
#[derive(Default)]
struct CutDriver {
    /// Blocks cut so far — the cadence trigger's staleness guard.
    blocks_formed: u64,
    /// Measured wall-clock per formed block, in µs (one sample per non-empty block).
    formation_us: Vec<u64>,
}

impl CutDriver {
    /// Fires the block-cut condition: cuts inline and schedules the delivery after the
    /// modelled reordering delay.
    fn trigger(
        &mut self,
        chain: &mut SimpleChain,
        profile: &PipelineProfile,
        queue: &mut EventQueue,
        now: SimTime,
    ) {
        if chain.cc().pending_len() == 0 {
            return;
        }
        let formation_started = Instant::now();
        let txns = chain.cut();
        if txns.is_empty() {
            return;
        }
        self.formation_us.push(elapsed_us(formation_started));
        self.blocks_formed += 1;
        let delay = profile.reorder_ms(chain.cc().kind(), txns.len()) + 2.0;
        queue.schedule(now + ms(delay), Event::BlockDelivered { txns });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::rwset::Value;
    use eov_ledger::LedgerError;

    fn quick_config(system: SystemKind) -> SimulationConfig {
        let mut config = SimulationConfig::new(system, WorkloadKind::ModifiedSmallbank);
        config.duration_s = 3.0;
        config.params.num_accounts = 1_000;
        config.params.request_rate_tps = 400;
        config.block.max_txns_per_block = 50;
        config
    }

    #[test]
    fn anti_rw_commits_count_stale_reads_and_in_block_overwrites() {
        let k = |s: &str| Key::new(s);
        let mut store = MultiVersionStore::new();
        store.seed_genesis([(k("A"), Value::from_i64(1)), (k("B"), Value::from_i64(2))]);
        // fresh reads A at its current version; stale read A at a version that never existed;
        // in_block reads B which the first transaction overwrites within the block.
        let fresh = Transaction::from_parts(
            1,
            0,
            [(k("A"), SeqNo::new(0, 1))],
            [(k("B"), Value::from_i64(9))],
        );
        let stale = Transaction::from_parts(2, 0, [(k("A"), SeqNo::new(5, 5))], []);
        let in_block = Transaction::from_parts(3, 0, [(k("B"), SeqNo::new(0, 2))], []);
        assert_eq!(count_anti_rw_commits(&store, &[fresh, stale, in_block]), 2);
    }

    #[test]
    fn noop_workload_commits_everything_for_every_system() {
        for system in SystemKind::all() {
            let mut config = quick_config(system);
            config.workload = WorkloadKind::NoOp;
            let report = Simulator::run(&config);
            assert!(report.offered > 0, "{system}");
            assert_eq!(
                report.aborted(),
                0,
                "{system}: no-op transactions never conflict"
            );
            assert_eq!(report.committed, report.in_ledger, "{system}");
            assert!(report.effective_tps() > 0.0, "{system}");
            assert!(report.blocks > 0, "{system}");
            assert!(report.ledger_error.is_none(), "{system}");
        }
    }

    #[test]
    fn a_ledger_failure_ends_the_run_in_the_report_not_in_a_panic() {
        let dir = std::env::temp_dir().join(format!("eov-sim-used-dir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("leftover"), b"not a ledger").unwrap();
        let mut config = quick_config(SystemKind::FabricSharp);
        config.durability_dir = Some(dir.clone());
        let (report, ledger, _) = Simulator::run_full(&config);
        assert!(
            matches!(&report.ledger_error, Some(LedgerError::Io { path, .. }) if *path == dir),
            "got {:?}",
            report.ledger_error
        );
        assert_eq!((report.offered, report.blocks, ledger.height()), (0, 0, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn skewed_kv_updates_abort_under_fabric_but_not_under_fabricsharp_raw() {
        let mut fabric_cfg = quick_config(SystemKind::Fabric);
        fabric_cfg.workload = WorkloadKind::KvUpdate { theta: 1.0 };
        let fabric = Simulator::run(&fabric_cfg);

        let mut sharp_cfg = quick_config(SystemKind::FabricSharp);
        sharp_cfg.workload = WorkloadKind::KvUpdate { theta: 1.0 };
        let sharp = Simulator::run(&sharp_cfg);

        // Under skew Fabric loses a visible fraction of its raw throughput to validation
        // aborts, while FabricSharp's effective throughput stays at (or above) Fabric's.
        assert!(
            fabric.aborted() > 0,
            "skewed updates must abort under Fabric"
        );
        assert!(fabric.effective_tps() < fabric.raw_tps());
        assert!(
            sharp.effective_tps() >= fabric.effective_tps() * 0.95,
            "Fabric# {:.0} tps should not trail Fabric {:.0} tps",
            sharp.effective_tps(),
            fabric.effective_tps()
        );
    }

    #[test]
    fn cadence_and_count_triggered_cuts_produce_identical_ledgers() {
        // Both block-cut triggers funnel through the single `CutDriver::trigger` path; this
        // pins that the *trigger reason* is invisible to the cut itself. A no-op workload at
        // exactly 100 tps arrives on a fixed 10 ms cadence (constant endorsement cost, no
        // conflicts), so a 10-txn count trigger and a 95 ms cadence trigger partition the
        // arrival stream into the very same blocks — the ledgers must be bit-identical.
        let mut count_cfg = SimulationConfig::new(SystemKind::FabricSharp, WorkloadKind::NoOp);
        count_cfg.duration_s = 1.0;
        count_cfg.params.request_rate_tps = 100;
        count_cfg.block.max_txns_per_block = 10;
        count_cfg.block.block_timeout_ms = 60_000;

        let mut cadence_cfg = count_cfg.clone();
        cadence_cfg.block.max_txns_per_block = 10_000;
        cadence_cfg.block.block_timeout_ms = 95;

        let (count_report, count_ledger, _) = Simulator::run_full(&count_cfg);
        let (cadence_report, cadence_ledger, _) = Simulator::run_full(&cadence_cfg);
        assert!(count_report.blocks > 1, "blocks cut");
        assert_eq!(count_report.blocks, cadence_report.blocks, "block count");
        assert_eq!(
            count_report.in_ledger, cadence_report.in_ledger,
            "committed-to-ledger count"
        );
        assert_eq!(
            count_ledger.tip_hash(),
            cadence_ledger.tip_hash(),
            "cadence- and count-triggered cuts must agree"
        );
    }

    #[test]
    fn run_all_systems_returns_one_report_per_system() {
        let mut base = quick_config(SystemKind::Fabric);
        base.duration_s = 1.0;
        let reports = Simulator::run_all_systems(&base);
        assert_eq!(reports.len(), 5);
        let kinds: Vec<SystemKind> = reports.iter().map(|r| r.system).collect();
        assert_eq!(kinds, SystemKind::all().to_vec());
        // The simulator times every `arrive` and `cut` itself, so the wall-clock panels read
        // for every system, not only those whose controller kept a clock.
        for r in &reports {
            assert!(r.measured_arrival_us_per_txn > 0.0, "{}", r.system);
            assert_eq!(r.formation.blocks, r.blocks, "{}", r.system);
        }
    }

    #[test]
    fn fast_fabric_profile_reaches_a_much_higher_ceiling() {
        let mut slow = SimulationConfig::new(SystemKind::Fabric, WorkloadKind::CreateAccount);
        slow.duration_s = 3.0;
        slow.params.request_rate_tps = 4_000;
        slow.params.num_accounts = 1_000;

        let mut fast =
            SimulationConfig::fast_fabric(SystemKind::Fabric, WorkloadKind::CreateAccount);
        fast.duration_s = 3.0;
        fast.params.request_rate_tps = 4_000;
        fast.params.num_accounts = 1_000;

        let slow_report = Simulator::run(&slow);
        let fast_report = Simulator::run(&fast);
        assert!(
            fast_report.effective_tps() > 2.0 * slow_report.effective_tps(),
            "FastFabric ({:.0} tps) should far exceed Fabric ({:.0} tps)",
            fast_report.effective_tps(),
            slow_report.effective_tps()
        );
    }
}

//! The cold-recovery grid: simulator runs persisted to disk, killed mid-write, and recovered
//! to bit-identity with the uninterrupted reference.
//!
//! Contracts pinned here, with `template_fastpath` and `pipelined_formation` both on:
//!
//! 1. persisting a run (`durability_dir`) never perturbs it — the durable ledger is
//!    bit-identical to the in-memory reference for the same seed, across the full
//!    `S×W×E` grid (store shards × formation threads × execution threads);
//! 2. killing the log at a byte offset and cold-recovering (newest valid checkpoint + segment
//!    suffix replay) yields a ledger prefix and store bit-identical to the reference replayed
//!    to the same height, and the resumed log reaches full bit-identity;
//! 3. the controller rebuilt by `recover_from_disk` is equivalent to `recover_from_ledger`
//!    over the same in-memory prefix — same resume block, same verdicts, same next cut —
//!    including on an *instance-rescued* ledger (write-partitioned YCSB-B), where untracked
//!    fastpath commits interleave with graph-inserted ones inside every block.

use fabricsharp::baselines::{SimpleChain, SystemKind};
use fabricsharp::common::config::{CcConfig, WorkloadParams};
use fabricsharp::common::rwset::{Key, Value};
use fabricsharp::common::txn::{TemplateClass, Transaction};
use fabricsharp::common::version::SeqNo;
use fabricsharp::core::recovery::{recover_from_disk, recover_from_ledger, ColdRecovery};
use fabricsharp::core::FabricSharpCC;
use fabricsharp::ledger::durable::{DurableLedger, DurableOptions};
use fabricsharp::ledger::{write_checkpoint, Ledger};
use fabricsharp::sim::{SimulationConfig, Simulator};
use fabricsharp::vstore::{StateStore, StoreBackend};
use fabricsharp::workload::generator::{WorkloadGenerator, WorkloadKind};
use fabricsharp::workload::YcsbProfile;
use proptest::prelude::*;
use std::path::PathBuf;

const STORE_SHARDS: [usize; 3] = [0, 2, 4];
const FORMATION_THREADS: [usize; 2] = [0, 2];
const EXECUTION_THREADS: [usize; 2] = [0, 2];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "eov-cold-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sim_config(shards: usize, formation: usize, execution: usize, seed: u64) -> SimulationConfig {
    let mut config = SimulationConfig::new(
        SystemKind::FabricSharp,
        WorkloadKind::MixedSmallbank { theta: 0.7 },
    );
    config.duration_s = 0.4;
    config.seed = seed;
    config.params.num_accounts = 64;
    config.params.request_rate_tps = 600;
    config.block.max_txns_per_block = 12;
    config.store_shards = shards;
    config.formation_threads = formation;
    config.execution_threads = execution;
    config.pipelined_formation = true;
    config.cc.template_fastpath = true;
    config.cc.checkpoint_interval = 3;
    config.cc.segment_rotate_kib = 1;
    config
}

/// The CcConfig a restarted orderer would bring to `recover_from_disk` for this grid point.
fn recovery_config(config: &SimulationConfig) -> CcConfig {
    CcConfig {
        store_shards: config.store_shards,
        formation_threads: config.formation_threads,
        execution_threads: config.execution_threads,
        pipelined_formation: true,
        ..config.cc
    }
}

/// Replays the reference ledger's first `up_to` blocks into a genesis-seeded backend.
fn replay_oracle(config: &SimulationConfig, ledger: &Ledger, up_to: u64) -> StoreBackend {
    let generator = WorkloadGenerator::new(config.workload.clone(), config.params, config.seed);
    let mut store = StoreBackend::for_shards(config.store_shards);
    store.seed_genesis(generator.genesis());
    for block in ledger.iter().take(up_to as usize) {
        let committed: Vec<_> = block.committed().collect();
        store.apply_block(block.number(), committed);
    }
    store
}

/// Chops `chopped` bytes (clamped to leave at least one byte) off the newest segment file.
fn tear_tail(dir: &PathBuf, chopped: u64) {
    let mut segments: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    segments.sort();
    let tail = segments.last().expect("at least one segment");
    let len = std::fs::metadata(tail).unwrap().len();
    let cut = chopped.min(len - 1).max(1);
    std::fs::OpenOptions::new()
        .write(true)
        .open(tail)
        .unwrap()
        .set_len(len - cut)
        .unwrap();
}

/// The in-memory prefix of `reference` up to `height`.
fn prefix_of(reference: &Ledger, height: u64) -> Ledger {
    let mut prefix = Ledger::new();
    for block in reference.iter().take(height as usize) {
        prefix.append(block.clone()).unwrap();
    }
    prefix
}

/// Asserts the disk-recovered controller is equivalent to the in-memory-replayed one: same
/// resume block, same verdicts on fresh arrivals, same next cut.
fn assert_controllers_equivalent(
    mut from_disk: FabricSharpCC,
    mut from_memory: FabricSharpCC,
    probes: impl IntoIterator<Item = Transaction>,
    context: &str,
) {
    assert_eq!(
        from_disk.next_block(),
        from_memory.next_block(),
        "{context}"
    );
    for (i, probe) in probes.into_iter().enumerate() {
        let d_disk = from_disk.on_arrival(probe.clone()).is_accept();
        let d_mem = from_memory.on_arrival(probe).is_accept();
        assert_eq!(d_disk, d_mem, "{context}: probe {i} diverged");
    }
    let cut_disk: Vec<_> = from_disk
        .cut_block()
        .iter()
        .map(|t| (t.id, t.end_ts))
        .collect();
    let cut_mem: Vec<_> = from_memory
        .cut_block()
        .iter()
        .map(|t| (t.id, t.end_ts))
        .collect();
    assert_eq!(cut_disk, cut_mem, "{context}: post-recovery cut diverged");
}

/// Smallbank probes against the recovered tip: a stale read-write pair and a fresh writer.
fn smallbank_probes(height: u64) -> Vec<Transaction> {
    (0..6u64)
        .map(|i| {
            if i % 2 == 0 {
                Transaction::from_parts(
                    900_000 + i,
                    height.saturating_sub(i % 3),
                    [(Key::new(format!("checking:{i}")), SeqNo::zero())],
                    [(Key::new(format!("checking:{i}")), Value::from_i64(1))],
                )
            } else {
                Transaction::from_parts(
                    900_000 + i,
                    height,
                    [],
                    [(Key::new(format!("checking:fresh{i}")), Value::from_i64(1))],
                )
            }
        })
        .collect()
}

/// One grid point end to end: persist, tear, recover, compare, resume.
fn crash_and_recover(shards: usize, formation: usize, execution: usize, seed: u64, chopped: u64) {
    let config = sim_config(shards, formation, execution, seed);
    let context = format!("S={shards} W={formation} E={execution} seed={seed} cut={chopped}");

    let (_, reference, reference_store) = Simulator::run_full(&config);
    assert!(reference.height() >= 4, "{context}: degenerate run");

    let dir = temp_dir(&format!("g{shards}{formation}{execution}-{seed}-{chopped}"));
    let mut persisted_config = config.clone();
    persisted_config.durability_dir = Some(dir.clone());
    let (_, persisted, _) = Simulator::run_full(&persisted_config);
    // (1) Durability never perturbs the run.
    assert_eq!(persisted.tip_hash(), reference.tip_hash(), "{context}");

    // (2) Kill mid-write, cold-recover, compare against the replayed reference prefix.
    tear_tail(&dir, chopped);
    let recovered: ColdRecovery =
        recover_from_disk(&dir, recovery_config(&config)).expect("cold recovery");
    let height = recovered.ledger.height();
    assert!(
        height < reference.height(),
        "{context}: tail must be dropped"
    );
    let prefix = prefix_of(&reference, height);
    assert_eq!(
        recovered.ledger.ledger().tip_hash(),
        prefix.tip_hash(),
        "{context}"
    );
    assert_eq!(
        recovered.ledger.ledger().statuses(),
        prefix.statuses(),
        "{context}"
    );
    assert_eq!(
        recovered.store,
        replay_oracle(&config, &reference, height),
        "{context}: recovered store != replayed oracle"
    );
    if height >= config.cc.checkpoint_interval {
        assert!(
            recovered.checkpoint_height > 0,
            "{context}: periodic checkpoint should have been used"
        );
    }

    // (3) Disk and in-memory recovery build equivalent controllers.
    let (from_memory, _) =
        recover_from_ledger(&prefix, recovery_config(&config)).expect("memory recovery");
    assert_controllers_equivalent(
        recovered.cc,
        from_memory,
        smallbank_probes(height),
        &context,
    );

    // (4) The log resumes: append the dropped blocks, reach full bit-identity on disk and in
    // the store.
    let mut durable = recovered.ledger;
    let mut store = recovered.store;
    for block in reference.iter().skip(height as usize) {
        let committed: Vec<_> = block.committed().collect();
        store.apply_block(block.number(), committed);
        durable.append(block.clone()).expect("resume append");
    }
    assert_eq!(
        durable.ledger().tip_hash(),
        reference.tip_hash(),
        "{context}"
    );
    assert_eq!(store, reference_store, "{context}: resumed store diverged");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The full grid at a fixed seed and torn offset — the blocking CI matrix.
#[test]
fn crash_recovery_is_bit_identical_across_the_grid() {
    for shards in STORE_SHARDS {
        for formation in FORMATION_THREADS {
            for execution in EXECUTION_THREADS {
                crash_and_recover(shards, formation, execution, 42, 9);
            }
        }
    }
}

/// Kills land everywhere along the chain, not only in its last blocks: keep tearing the tail
/// of the same directory, so each recovery finds fewer blocks, stale too-new checkpoints above
/// them (which it removes: the chain may grow differently from here), and must start from the
/// delta link just below — whose own chain runs through every older link down to the genesis
/// image.
#[test]
fn kills_between_any_two_delta_checkpoints_recover_from_the_chain_below() {
    for shards in STORE_SHARDS {
        let config = sim_config(shards, 0, 0, 7);
        let interval = config.cc.checkpoint_interval;
        let (_, reference, _) = Simulator::run_full(&config);
        assert!(
            reference.height() > 3 * interval,
            "S={shards}: degenerate run"
        );

        let dir = temp_dir(&format!("walk{shards}"));
        let mut persisted_config = config.clone();
        persisted_config.durability_dir = Some(dir.clone());
        Simulator::run_full(&persisted_config);

        let mut height = reference.height();
        while height > 0 {
            tear_tail(&dir, 9);
            let recovered =
                recover_from_disk(&dir, recovery_config(&config)).expect("cold recovery");
            let context = format!("S={shards} after the kill below block {height}");
            // A tear that only removes an already-empty tail segment drops no block.
            assert!(recovered.ledger.height() <= height, "{context}");
            height = recovered.ledger.height();
            assert_eq!(
                recovered.ledger.ledger().tip_hash(),
                prefix_of(&reference, height).tip_hash(),
                "{context}"
            );
            assert_eq!(
                recovered.store,
                replay_oracle(&config, &reference, height),
                "{context}: recovered store != replayed oracle"
            );
            assert_eq!(
                recovered.checkpoint_height,
                height - height % interval,
                "{context}: the newest delta link at or below the height must be the one used"
            );
            let newest_left = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .filter(|name| name.starts_with("ckpt-"))
                .max();
            assert_eq!(
                newest_left,
                Some(format!("ckpt-{:020}.bin", recovered.checkpoint_height)),
                "{context}: no checkpoint may outlive the blocks it covers"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random seeds and random kill offsets on a mid-grid configuration.
    #[test]
    fn random_kill_offsets_recover_bit_identically(
        seed in any::<u64>(),
        chopped in 1u64..2_000,
    ) {
        crash_and_recover(2, 2, 2, seed, chopped);
    }
}

/// Satellite regression: an *instance-rescued* ledger (write-partitioned YCSB-B, fastpath on)
/// cold-recovered from disk produces the same post-recovery cuts as in-memory replay, at
/// every store sharding. This is the adversarial case for the splice-preserving rebuild:
/// untracked commits and graph-inserted ones interleave inside every block, and the disk
/// round-trip (encode → CRC → decode) must not disturb the replay order the rebuild sees.
#[test]
fn rescued_instance_ledger_recovers_identically_from_disk() {
    let seed = 23;
    let num_accounts = 64usize;
    let params = WorkloadParams {
        num_accounts,
        ..WorkloadParams::default()
    };
    let kind = WorkloadKind::Ycsb(YcsbProfile::b().with_write_partition(0.25));
    let mut generator = WorkloadGenerator::new(kind.clone(), params, seed);
    let analyzer = generator.analyzer();
    let mut chain = SimpleChain::with_template_fastpath(SystemKind::FabricSharp, 0, true);
    chain.seed(generator.genesis());

    let dir = temp_dir("rescued");
    let (mut durable, _) = DurableLedger::open(&dir, DurableOptions::default()).unwrap();
    let mut store = StoreBackend::for_shards(0);
    store.seed_genesis(WorkloadGenerator::new(kind, params, seed).genesis());
    write_checkpoint(&dir, &store, false).unwrap();

    for i in 0..40 {
        let template = generator.next_template();
        let class = analyzer.classify_instance(&template);
        let txn = chain
            .execute(|ctx| template.run(ctx))
            .with_template_class(class);
        let _ = chain.submit(txn);
        if (i + 1) % 5 == 0 {
            if let Some(height) = chain.seal_block().block_number {
                durable
                    .append(chain.ledger().block(height).unwrap().clone())
                    .unwrap();
            }
        }
    }
    if let Some(height) = chain.seal_block().block_number {
        durable
            .append(chain.ledger().block(height).unwrap().clone())
            .unwrap();
    }
    drop(durable);
    let reference = chain.ledger().clone();
    assert!(reference.height() >= 2);

    for shards in STORE_SHARDS {
        let config = CcConfig {
            store_shards: shards,
            template_fastpath: true,
            track_exact_reachability: true,
            ..CcConfig::default()
        };
        let recovered = recover_from_disk(&dir, config).expect("cold recovery");
        assert_eq!(recovered.ledger.height(), reference.height(), "S={shards}");
        assert_eq!(
            recovered.ledger.ledger().tip_hash(),
            reference.tip_hash(),
            "S={shards}"
        );
        let (from_memory, _) = recover_from_ledger(&reference, config).expect("memory recovery");
        // Rescued reads below the write partition interleaved with unknown tail writers.
        let snapshot = reference.height();
        let probes: Vec<Transaction> = (0..6u64)
            .map(|i| {
                if i % 2 == 0 {
                    Transaction::from_parts(
                        800_000 + i,
                        snapshot,
                        [(Key::new(format!("usertable:{}", i % 48)), SeqNo::zero())],
                        [],
                    )
                    .with_template_class(TemplateClass::Safe)
                } else {
                    Transaction::from_parts(
                        800_000 + i,
                        snapshot,
                        [],
                        [(
                            Key::new(format!("usertable:{}", 48 + i % 16)),
                            Value::from_i64(1),
                        )],
                    )
                }
            })
            .collect();
        assert_controllers_equivalent(
            recovered.cc,
            from_memory,
            probes,
            &format!("rescued S={shards}"),
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

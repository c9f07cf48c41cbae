//! The cold-recovery grid: simulator runs persisted to disk, killed mid-write, and recovered
//! to bit-identity with the uninterrupted reference.
//!
//! Contracts pinned here:
//!
//! 1. persisting a run (`durability_dir`) never perturbs it — the durable ledger is
//!    bit-identical to the in-memory reference for the same seed;
//! 2. killing the log at a byte offset and cold-recovering (newest valid checkpoint + segment
//!    suffix replay) yields a ledger prefix and store bit-identical to the reference replayed
//!    to the same height, and the resumed log reaches full bit-identity;
//! 3. the controller `recover_from_ledger` rebuilds from the ledger `recover_from_disk`
//!    reopened (its evicted blocks read back from disk) is equivalent to the one it rebuilds
//!    from the same in-memory prefix — same resume block, same verdicts, same next cut —
//!    including on a ledger where untracked fastpath commits interleave with graph-inserted
//!    ones inside every block;
//! 4. a directory in the previous durable formats is refused with a typed error naming the
//!    format, rather than read or replayed from nothing, and keeps every byte.

use fabricsharp::baselines::{SimpleChain, SystemKind};
use fabricsharp::common::config::{CcConfig, WorkloadParams};
use fabricsharp::common::rwset::{Key, Value};
use fabricsharp::common::txn::{TemplateClass, Transaction};
use fabricsharp::common::version::SeqNo;
use fabricsharp::core::recovery::recover_from_ledger;
use fabricsharp::core::FabricSharpCC;
use fabricsharp::ledger::durable::{DurableLedger, DurableOptions};
use fabricsharp::ledger::{recover_from_disk, ColdRecovery, Ledger, LedgerError};
use fabricsharp::sim::{SimulationConfig, Simulator};
use fabricsharp::vstore::MultiVersionStore;
use fabricsharp::workload::generator::{WorkloadGenerator, WorkloadKind};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

mod common;
use common::untagged_tip;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "eov-cold-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sim_config(seed: u64) -> SimulationConfig {
    let mut config = SimulationConfig::new(
        SystemKind::FabricSharp,
        WorkloadKind::MixedSmallbank { theta: 0.7 },
    );
    config.duration_s = 0.4;
    config.seed = seed;
    config.params.num_accounts = 64;
    config.params.request_rate_tps = 600;
    config.block.max_txns_per_block = 12;
    config.cc.checkpoint_interval = 3;
    config.cc.segment_rotate_kib = 1;
    config
}

/// Replays the reference ledger's first `up_to` blocks into a genesis-seeded store.
fn replay_oracle(config: &SimulationConfig, ledger: &Ledger, up_to: u64) -> MultiVersionStore {
    let generator = WorkloadGenerator::new(config.workload.clone(), config.params, config.seed);
    replay_from(generator.genesis(), ledger, up_to)
}

/// Replays the first `up_to` blocks of `ledger` into a store seeded with `genesis`.
fn replay_from(
    genesis: impl IntoIterator<Item = (Key, Value)>,
    ledger: &Ledger,
    up_to: u64,
) -> MultiVersionStore {
    let mut store = MultiVersionStore::new();
    store.seed_genesis(genesis);
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

/// Whether some block of `ledger` commits both a `Safe`-tagged and an `Unknown` transaction.
fn interleaves(ledger: &Ledger) -> bool {
    ledger.iter().any(|block| {
        let safe: Vec<bool> = block
            .entries
            .iter()
            .filter(|e| e.status.is_committed())
            .map(|e| e.txn.template_class.is_safe())
            .collect();
        safe.contains(&true) && safe.contains(&false)
    })
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
fn crash_and_recover(seed: u64, chopped: u64) {
    let config = sim_config(seed);
    let context = format!("seed={seed} cut={chopped}");

    let (_, reference, reference_store) = Simulator::run_full(&config);
    assert!(reference.height() >= 4, "{context}: degenerate run");

    let dir = temp_dir(&format!("g{seed}-{chopped}"));
    let mut persisted_config = config.clone();
    persisted_config.durability_dir = Some(dir.clone());
    let (_, persisted, _) = Simulator::run_full(&persisted_config);
    // (1) Durability never perturbs the run.
    assert_eq!(persisted.tip_hash(), reference.tip_hash(), "{context}");

    // (2) Kill mid-write, cold-recover, compare against the replayed reference prefix.
    tear_tail(&dir, chopped);
    let recovered: ColdRecovery = recover_from_disk(&dir, config.cc).expect("cold recovery");
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

    // (3) The recovered ledger and the in-memory prefix rebuild equivalent controllers.
    let from_disk = recover_from_ledger(recovered.ledger.ledger(), config.cc).expect("disk");
    let from_memory = recover_from_ledger(&prefix, config.cc).expect("memory recovery");
    assert_controllers_equivalent(from_disk, from_memory, smallbank_probes(height), &context);

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

/// The full grid of fixed seeds and torn offsets — the blocking CI matrix.
#[test]
fn crash_recovery_is_bit_identical_across_the_grid() {
    for (seed, chopped) in [(42, 9), (42, 700), (7, 9)] {
        crash_and_recover(seed, chopped);
    }
}

/// Kills land everywhere along the chain, not only in its last blocks: keep tearing the tail
/// of the same directory, so each recovery finds fewer blocks, stale too-new checkpoints above
/// them (which it removes: the chain may grow differently from here), and must start from the
/// delta link just below — whose own chain runs through every older link down to the genesis
/// image.
#[test]
fn kills_between_any_two_delta_checkpoints_recover_from_the_chain_below() {
    let config = sim_config(7);
    let interval = config.cc.checkpoint_interval;
    let (_, reference, _) = Simulator::run_full(&config);
    assert!(reference.height() > 3 * interval, "degenerate run");

    let dir = temp_dir("walk");
    let mut persisted_config = config.clone();
    persisted_config.durability_dir = Some(dir.clone());
    let (report, _, _) = Simulator::run_full(&persisted_config);
    assert!(report.ledger_error.is_none(), "{:?}", report.ledger_error);

    let mut height = reference.height();
    while height > 0 {
        tear_tail(&dir, 9);
        let recovered = recover_from_disk(&dir, config.cc).expect("cold recovery");
        let context = format!("after the kill below block {height}");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random seeds and random kill offsets on a mid-grid configuration.
    #[test]
    fn random_kill_offsets_recover_bit_identically(
        seed in any::<u64>(),
        chopped in 1u64..2_000,
    ) {
        crash_and_recover(seed, chopped);
    }
}

/// A ledger where untracked commits and graph-inserted ones interleave inside every block,
/// cold-recovered from disk, produces the same post-recovery cuts as in-memory replay. This is
/// the adversarial case for the order-preserving rebuild: the disk round-trip (encode → CRC →
/// decode) must not disturb the replay order the rebuild sees. The stream alternates
/// Create-Account instances tagged `Safe` by hand with modified-Smallbank instances left
/// `Unknown`, over one genesis; the tags are sound because Create-Account ids start at
/// `num_accounts` and Smallbank draws accounts below it (debug builds re-check every `Safe`
/// arrival). The same transactions untagged build a chain with the same tip and store.
#[test]
fn rescued_instance_ledger_recovers_identically_from_disk() {
    let seed = 23;
    let num_accounts = 64usize;
    let mut params = WorkloadParams::default();
    params.num_accounts = num_accounts;
    let mut create = WorkloadGenerator::new(WorkloadKind::CreateAccount, params, seed);
    let mut smallbank = WorkloadGenerator::new(WorkloadKind::ModifiedSmallbank, params, seed);
    let mut chain = SimpleChain::new(SystemKind::FabricSharp);
    let mut untagged = SimpleChain::new(SystemKind::FabricSharp);
    chain.seed(smallbank.genesis());
    untagged.seed(smallbank.genesis());

    let dir = temp_dir("rescued");
    chain.persist_to(&dir).unwrap();

    for i in 0..40 {
        let (template, class) = if i % 2 == 0 {
            (create.next_template(), TemplateClass::Safe)
        } else {
            (smallbank.next_template(), TemplateClass::Unknown)
        };
        let txn = chain.execute(|ctx| template.run(ctx));
        let _ = untagged.submit(txn.clone());
        let _ = chain.submit(txn.with_template_class(class));
        if (i + 1) % 5 == 0 {
            untagged.seal_block();
            let txns = chain.cut();
            chain.commit(txns).unwrap();
        }
    }
    let txns = chain.cut();
    chain.commit(txns).unwrap();
    untagged.seal_block();
    let reference = chain.ledger().clone();
    assert!(reference.height() >= 2);
    assert!(
        interleaves(&reference),
        "no block mixes Safe and tracked commits"
    );
    assert_eq!(untagged.ledger().tip_hash(), untagged_tip(&reference));
    assert_eq!(untagged.store(), chain.store());

    let config = CcConfig::default();
    let recovered = recover_from_disk(&dir, config).expect("cold recovery");
    assert_eq!(recovered.ledger.height(), reference.height());
    assert_eq!(recovered.ledger.ledger().tip_hash(), reference.tip_hash());
    assert_eq!(recovered.store, *chain.store());
    let from_disk = recover_from_ledger(recovered.ledger.ledger(), config).expect("disk");
    let from_memory = recover_from_ledger(&reference, config).expect("memory recovery");
    // New accounts (tagged Safe) interleaved with unknown read-writes of genesis accounts.
    let snapshot = reference.height();
    let probes: Vec<Transaction> = (0..6u64)
        .map(|i| {
            if i % 2 == 0 {
                let id = 800_000 + i;
                Transaction::from_parts(
                    id,
                    snapshot,
                    [],
                    [
                        (Key::new(format!("checking:{id}")), Value::from_i64(1_000)),
                        (Key::new(format!("savings:{id}")), Value::from_i64(1_000)),
                    ],
                )
                .with_template_class(TemplateClass::Safe)
            } else {
                let key = Key::new(format!("checking:{i}"));
                Transaction::from_parts(
                    800_000 + i,
                    snapshot,
                    [(key.clone(), SeqNo::zero())],
                    [(key, Value::from_i64(1))],
                )
            }
        })
        .collect();
    assert_controllers_equivalent(from_disk, from_memory, probes, "rescued");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Vanilla Fabric writes validation-aborted entries into its blocks, which a Fabric# ledger
/// never holds. Persist such a run with periodic checkpoints, tear the last block off, and
/// the recovery must still match the reference: the same statuses in the ledger prefix, a
/// store holding only the committed writes, and the checkpoint above the torn tail replaced
/// by the one below it.
#[test]
fn a_fabric_ledger_with_validation_aborts_recovers_to_the_replayed_oracle() {
    const BLOCKS: u64 = 12;
    let config = CcConfig {
        checkpoint_interval: 4,
        segment_rotate_kib: 1,
        ..CcConfig::default()
    };
    let mut params = WorkloadParams::default();
    params.num_accounts = 16;
    let mut generator = WorkloadGenerator::new(WorkloadKind::ModifiedSmallbank, params, 11);
    let mut chain = SimpleChain::with_cc_config(SystemKind::Fabric, config);
    chain.seed(generator.genesis());
    let dir = temp_dir("fabric-aborts");
    chain.persist_to(&dir).unwrap();
    for _ in 0..BLOCKS {
        // Every transaction of a block is endorsed on the same snapshot, so a later one that
        // reads what an earlier one writes fails MVCC validation.
        let snapshot = chain.ledger().height();
        for _ in 0..10 {
            let template = generator.next_template();
            let txn = chain.execute_at(snapshot, |ctx| template.run(ctx));
            assert!(chain.submit(txn).is_accept(), "Fabric orders everything");
        }
        let txns = chain.cut();
        chain.commit(txns).unwrap();
    }
    let reference = prefix_of(chain.ledger(), BLOCKS);
    assert_eq!(reference.height(), BLOCKS);

    tear_tail(&dir, 9);
    let recovered = recover_from_disk(&dir, config).expect("cold recovery");
    let height = recovered.ledger.height();
    assert_eq!(height, BLOCKS - 1, "the torn block is dropped");
    let prefix = prefix_of(&reference, height);
    assert!(
        prefix
            .statuses()
            .iter()
            .any(|(_, status)| status.is_aborted()),
        "no validation abort below the tear"
    );
    assert_eq!(recovered.ledger.ledger().tip_hash(), prefix.tip_hash());
    assert_eq!(recovered.ledger.ledger().statuses(), prefix.statuses());
    assert_eq!(
        recovered.store,
        replay_from(generator.genesis(), &reference, height),
        "recovered store != replayed oracle"
    );
    assert_eq!(recovered.checkpoint_height, 8);
    assert_eq!(
        recovered.checkpoints_discarded, 1,
        "checkpoint 12 outlived its block"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `tests/fixtures/checkpoint_s0` is a directory in the previous durable formats (`EOVSEG01`
/// segments, `EOVCKP02` checkpoints), written by revision 57703dc: Fabric# on modified
/// Smallbank, 8 accounts, 40 tps for 0.5 simulated seconds, 4-transaction blocks and a
/// checkpoint every 2 blocks — 5 blocks in one segment, checkpoints at 0, 2 and 4. At that
/// revision, as the body of an example's `main`:
///
/// ```text
/// let mut cfg = SimulationConfig::new(SystemKind::FabricSharp, WorkloadKind::ModifiedSmallbank);
/// cfg.duration_s = 0.5;
/// cfg.params.num_accounts = 8;
/// cfg.params.request_rate_tps = 40;
/// cfg.block.max_txns_per_block = 4;
/// cfg.cc.checkpoint_interval = 2;
/// cfg.durability_dir = Some("tests/fixtures/checkpoint_s0".into());
/// Simulator::run_full(&cfg);
/// ```
///
/// Copied to a scratch directory, since a recovery that went wrong could remove files.
fn copy_fixture(name: &str) -> PathBuf {
    let from = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let to = temp_dir(name);
    std::fs::create_dir_all(&to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
    }
    to
}

/// Every file of `dir` with its bytes, by name.
fn dir_bytes(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .map(|p| (p.clone(), std::fs::read(p).unwrap()))
        .collect();
    files.sort();
    files
}

/// There is no reader for the previous formats. Opening a previous-format directory, or
/// recovering from it, is a typed error naming the format, never a replay from nothing, and
/// the refusal leaves every file byte-identical. Without its segment the directory still
/// refuses: its checkpoints name their own format.
#[test]
fn a_previous_format_directory_is_a_typed_error_that_changes_no_byte() {
    let dir = copy_fixture("checkpoint_s0");
    let before = dir_bytes(&dir);
    let segment = dir.join("seg-00000000000000000001.log");
    let errors = [
        DurableLedger::open(&dir, DurableOptions::default()).map(drop),
        recover_from_disk(&dir, CcConfig::default()).map(drop),
    ];
    for err in errors {
        let err = err.expect_err("no previous-format reader");
        assert!(
            matches!(&err, LedgerError::CorruptRecord { segment: at, detail, .. }
                if *at == segment && detail.contains("EOVSEG01")),
            "got {err}"
        );
        assert_eq!(dir_bytes(&dir), before, "a refused open changes nothing");
    }

    std::fs::remove_file(&segment).unwrap();
    let before = dir_bytes(&dir);
    let err = recover_from_disk(&dir, CcConfig::default()).unwrap_err();
    assert!(
        matches!(&err, LedgerError::CorruptCheckpoint { detail, .. } if detail.contains("EOVCKP02")),
        "got {err}"
    );
    assert_eq!(
        dir_bytes(&dir),
        before,
        "a refused recovery changes nothing"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

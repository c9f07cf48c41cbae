//! The durable-substrate battery: segment persistence, crash damage, checkpoints, and the
//! time-travel/provenance surface — all against real workload-driven chains.
//!
//! Contracts pinned here:
//!
//! 1. a workload ledger persisted through [`DurableLedger`] reopens bit-identically (tip
//!    hash, per-transaction statuses);
//! 2. truncating the tail segment at *any* byte offset — a torn trailing write — recovers a
//!    valid prefix, never panics, and the reopened ledger resumes appending the missing
//!    blocks to bit-identity with the uninterrupted reference;
//! 3. a bit flip in an *earlier* segment is a typed [`LedgerError::CorruptRecord`], reported
//!    and never silently truncated;
//! 4. a corrupt checkpoint link makes cold recovery fall back to the intact chain below it,
//!    still rebuild the exact store and drop the links it could not use; a corrupt genesis
//!    image — the one file every chain ends in — is a typed error, never a store that quietly
//!    lacks the seeded values;
//! 5. `value_as_of` / `history_range` / `provenance` on the cold-recovered state match an
//!    oracle that replays the reference ledger block by block.

use fabricsharp::baselines::{SimpleChain, SystemKind};
use fabricsharp::common::config::{CcConfig, WorkloadParams};
use fabricsharp::common::rwset::Key;
use fabricsharp::core::recovery::{recover_from_disk, RecoveryError};
use fabricsharp::ledger::durable::{DurableLedger, DurableOptions};
use fabricsharp::ledger::{provenance, write_checkpoint, Ledger, LedgerError};
use fabricsharp::vstore::{StateRead, StateStore, StoreBackend, TimeTravel};
use fabricsharp::workload::generator::{WorkloadGenerator, WorkloadKind};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

const NUM_ACCOUNTS: usize = 24;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "eov-dlt-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn workload(seed: u64) -> WorkloadGenerator {
    let params = WorkloadParams {
        num_accounts: NUM_ACCOUNTS,
        ..WorkloadParams::default()
    };
    WorkloadGenerator::new(WorkloadKind::MixedSmallbank { theta: 0.7 }, params, seed)
}

/// Replays the committed writes of `ledger` into a fresh genesis-seeded backend — the oracle
/// every recovered store is compared against.
fn replay_oracle(ledger: &Ledger, seed: u64, shards: usize, up_to: u64) -> StoreBackend {
    let mut store = StoreBackend::for_shards(shards);
    store.seed_genesis(workload(seed).genesis());
    for block in ledger.iter().take(up_to as usize) {
        let committed: Vec<_> = block.committed().collect();
        store.apply_block(block.number(), committed);
    }
    store
}

/// Drives a FabricSharp chain over the Smallbank mix, mirroring every sealed block into a
/// durable ledger under `dir` (small segments so rotation is exercised) with a genesis
/// checkpoint plus one every `ckpt_every` blocks. Returns the in-memory reference ledger.
fn build_and_persist(
    dir: &Path,
    seed: u64,
    num_txns: usize,
    block_size: usize,
    ckpt_every: u64,
    shards: usize,
) -> Ledger {
    let mut generator = workload(seed);
    let analyzer = generator.analyzer();
    let mut chain = SimpleChain::new(SystemKind::FabricSharp);
    chain.seed(generator.genesis());

    let options = DurableOptions {
        rotate_bytes: 512,
        fsync: false,
    };
    let (mut durable, _) = DurableLedger::open(dir, options).expect("fresh dir");
    let mut store = StoreBackend::for_shards(shards);
    store.seed_genesis(workload(seed).genesis());
    write_checkpoint(dir, &store, false).expect("genesis checkpoint");

    let seal = |chain: &mut SimpleChain, durable: &mut DurableLedger, store: &mut StoreBackend| {
        if let Some(height) = chain.seal_block().block_number {
            let block = chain.ledger().block(height).unwrap().clone();
            let committed: Vec<_> = block.committed().collect();
            store.apply_block(height, committed);
            durable.append(block).expect("mirror append");
            if ckpt_every > 0 && height % ckpt_every == 0 {
                write_checkpoint(dir, store, false).expect("periodic checkpoint");
            }
        }
    };
    for i in 0..num_txns {
        let template = generator.next_template();
        let class = analyzer.classify_instance(&template);
        let txn = chain
            .execute(|ctx| template.run(ctx))
            .with_template_class(class);
        let _ = chain.submit(txn);
        if (i + 1) % block_size == 0 {
            seal(&mut chain, &mut durable, &mut store);
        }
    }
    seal(&mut chain, &mut durable, &mut store);
    chain.ledger().clone()
}

/// The keys this workload ever touches: the seeded account keys.
fn account_keys(seed: u64) -> Vec<Key> {
    workload(seed)
        .genesis()
        .into_iter()
        .map(|(k, _)| k)
        .collect()
}

/// The provenance oracle: scan the ledger backwards for the last committed entry at or below
/// `height` that writes `key`.
fn provenance_oracle(ledger: &Ledger, key: &Key, height: u64) -> Option<(u64, u32)> {
    for block in ledger
        .iter()
        .take(height as usize)
        .collect::<Vec<_>>()
        .iter()
        .rev()
    {
        for entry in block.entries.iter().rev() {
            if entry.status.is_committed() && entry.txn.write_set.iter().any(|w| &w.key == key) {
                return Some((entry.txn.id.0, entry.slot.seq));
            }
        }
    }
    None
}

#[test]
fn persisted_workload_ledger_reopens_bit_identically() {
    let dir = temp_dir("reopen");
    let reference = build_and_persist(&dir, 7, 60, 5, 4, 0);
    assert!(reference.height() >= 4);

    let (durable, report) = DurableLedger::open(
        &dir,
        DurableOptions {
            rotate_bytes: 512,
            fsync: false,
        },
    )
    .expect("reopen");
    assert!(report.torn.is_none());
    assert!(report.segments >= 2, "512-byte rotation must have rotated");
    assert_eq!(durable.height(), reference.height());
    assert_eq!(durable.ledger().tip_hash(), reference.tip_hash());
    assert_eq!(durable.ledger().statuses(), reference.statuses());
    assert!(durable.ledger().verify_integrity().is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bit_flip_in_an_earlier_segment_is_a_typed_error_not_a_panic() {
    let dir = temp_dir("bitflip");
    build_and_persist(&dir, 11, 60, 5, 0, 0);
    let mut segments: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    segments.sort();
    assert!(segments.len() >= 2, "need a non-tail segment to corrupt");

    // Flip one payload byte in the middle of the FIRST segment: damage that cannot be a torn
    // trailing write and therefore must surface as CorruptRecord.
    let victim = &segments[0];
    let mut bytes = std::fs::read(victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(victim, &bytes).unwrap();

    let err = DurableLedger::open(&dir, DurableOptions::default()).unwrap_err();
    match err {
        LedgerError::CorruptRecord { segment, .. } => assert_eq!(&segment, victim),
        other => panic!("expected CorruptRecord, got {other}"),
    }
    // The typed error propagates through cold recovery too.
    let err = recover_from_disk(&dir, CcConfig::default()).unwrap_err();
    assert!(err.to_string().contains("corrupt record"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The checkpoint files of `dir`, ascending by height.
fn checkpoint_files(dir: &Path) -> Vec<PathBuf> {
    let mut checkpoints: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "bin"))
        .collect();
    checkpoints.sort();
    checkpoints
}

/// Flips bits near the end of `path`'s payload (a CRC failure, frame intact).
fn corrupt_payload(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let last = bytes.len() - 3;
    bytes[last] ^= 0xFF;
    std::fs::write(path, &bytes).unwrap();
}

#[test]
fn a_corrupt_checkpoint_link_falls_back_and_recovery_still_matches_the_oracle() {
    // Checkpoints are deltas chained down to the genesis image. Corrupt the newest link or one
    // in the middle: recovery starts from the newest link whose whole chain below is intact,
    // replays the rest of the log, and removes the links it could not use.
    for victim in ["newest", "middle"] {
        let dir = temp_dir(&format!("ckptfall-{victim}"));
        let reference = build_and_persist(&dir, 13, 60, 5, 3, 0);

        let checkpoints = checkpoint_files(&dir);
        assert!(
            checkpoints.len() >= 4,
            "genesis + three periodic checkpoints"
        );
        let index = match victim {
            "newest" => checkpoints.len() - 1,
            _ => checkpoints.len() / 2,
        };
        corrupt_payload(&checkpoints[index]);

        let recovered = recover_from_disk(&dir, CcConfig::default()).expect("fallback");
        // Checkpoints sit at heights 0, 3, 6, …: the survivor is the link below the victim.
        assert_eq!(
            recovered.checkpoint_height,
            3 * (index as u64 - 1),
            "{victim}"
        );
        assert_eq!(recovered.ledger.height(), reference.height(), "{victim}");
        assert_eq!(
            recovered.ledger.ledger().tip_hash(),
            reference.tip_hash(),
            "{victim}"
        );
        assert_eq!(
            recovered.store,
            replay_oracle(&reference, 13, 0, reference.height()),
            "{victim}"
        );
        // The victim and everything leaning on it are gone, so the next checkpoint builds on
        // the verified chain — and the restart after it starts from that checkpoint.
        assert_eq!(
            recovered.checkpoints_discarded,
            checkpoints.len() - index,
            "{victim}"
        );
        assert_eq!(checkpoint_files(&dir), checkpoints[..index], "{victim}");
        write_checkpoint(&dir, &recovered.store, false).expect("checkpoint after recovery");
        drop(recovered);
        let again = recover_from_disk(&dir, CcConfig::default()).expect("second restart");
        assert_eq!(again.checkpoint_height, reference.height(), "{victim}");
        assert_eq!(again.checkpoints_discarded, 0, "{victim}");
        assert_eq!(
            again.store,
            replay_oracle(&reference, 13, 0, reference.height()),
            "{victim}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_corrupt_genesis_image_is_a_typed_error_not_a_store_without_the_seeded_values() {
    // Every delta chains down to the genesis image, and the values seeded there are in no
    // block: with that one file bad, a block-0 replay would hand back a store that lacks them.
    let dir = temp_dir("ckptfall-genesis");
    build_and_persist(&dir, 13, 60, 5, 3, 0);
    let checkpoints = checkpoint_files(&dir);
    corrupt_payload(&checkpoints[0]);

    let err = recover_from_disk(&dir, CcConfig::default()).unwrap_err();
    assert!(
        matches!(
            &err,
            RecoveryError::Ledger(LedgerError::CorruptCheckpoint { path, .. })
                if *path == checkpoints[0]
        ),
        "got {err}"
    );
    // Reported, not repaired: the files stay for the operator.
    assert_eq!(checkpoint_files(&dir), checkpoints);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn time_travel_and_provenance_match_the_replayed_oracle() {
    let seed = 17;
    let dir = temp_dir("reenact");
    let reference = build_and_persist(&dir, seed, 70, 6, 4, 0);
    let recovered = recover_from_disk(&dir, CcConfig::default()).expect("cold recovery");
    assert_eq!(recovered.ledger.height(), reference.height());

    let keys = account_keys(seed);
    for height in 0..=reference.height() {
        let oracle = replay_oracle(&reference, seed, 0, height);
        for key in &keys {
            // value_as_of against the block-by-block replay oracle's latest value.
            assert_eq!(
                recovered.store.value_as_of(key, height).unwrap(),
                oracle.latest(key),
                "{key} @ {height}"
            );
            // provenance against the backwards ledger scan.
            let p = provenance(recovered.ledger.ledger(), &recovered.store, key, height)
                .unwrap()
                .expect("seeded keys always resolve");
            match provenance_oracle(&reference, key, height) {
                Some((id, seq)) => {
                    assert_eq!(p.txn.map(|t| t.0), Some(id), "{key} @ {height}");
                    assert_eq!(p.slot.seq, seq, "{key} @ {height}");
                }
                None => assert_eq!(p.txn, None, "{key} @ {height} should be genesis"),
            }
        }
    }

    // history_range over the full run covers genesis plus every oracle version.
    for key in &keys {
        let full = recovered
            .store
            .history_range(key, 0, reference.height())
            .unwrap();
        let oracle = replay_oracle(&reference, seed, 0, reference.height());
        assert_eq!(full, oracle.history(key), "{key}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Kill the log at any byte offset: reopening recovers a valid prefix (never panics),
    /// and appending the missing reference blocks resumes to full bit-identity.
    #[test]
    fn truncation_at_any_offset_recovers_a_valid_resumable_prefix(
        seed in any::<u64>(),
        chopped in 1u64..600,
    ) {
        let dir = temp_dir(&format!("torn{seed}-{chopped}"));
        let reference = build_and_persist(&dir, seed, 50, 4, 0, 0);
        prop_assert!(reference.height() >= 3);

        let mut segments: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "log"))
            .collect();
        segments.sort();
        let tail = segments.last().unwrap();
        let len = std::fs::metadata(tail).unwrap().len();
        let cut = chopped.min(len - 1).max(1);
        std::fs::OpenOptions::new()
            .write(true)
            .open(tail)
            .unwrap()
            .set_len(len - cut)
            .unwrap();

        let options = DurableOptions { rotate_bytes: 512, fsync: false };
        let (mut durable, report) = DurableLedger::open(&dir, options).expect("torn tail repairs");
        let height = durable.height();
        prop_assert!(height < reference.height(), "truncation must drop the tail record");
        // The recovered prefix is bit-identical to the reference prefix...
        let mut prefix = Ledger::new();
        for block in reference.iter().take(height as usize) {
            prefix.append(block.clone()).unwrap();
        }
        prop_assert_eq!(durable.ledger().tip_hash(), prefix.tip_hash());
        prop_assert!(durable.ledger().verify_integrity().is_ok());
        // ...and the log resumes: appending the dropped blocks restores full bit-identity,
        // surviving one more reopen.
        for block in reference.iter().skip(height as usize) {
            durable.append(block.clone()).expect("resume append");
        }
        prop_assert_eq!(durable.ledger().tip_hash(), reference.tip_hash());
        drop(durable);
        let (reopened, report2) = DurableLedger::open(&dir, options).expect("reopen after resume");
        prop_assert!(report2.torn.is_none());
        prop_assert_eq!(reopened.ledger().tip_hash(), reference.tip_hash());
        prop_assert_eq!(reopened.ledger().statuses(), reference.statuses());
        // Record what the first open found, for the curious failure case.
        let _ = report;
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

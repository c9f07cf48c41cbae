//! The durable-substrate battery: segment persistence, crash damage, checkpoints, and the
//! time-travel/provenance surface — all against real workload-driven chains.
//!
//! Contracts pinned here:
//!
//! 1. a workload ledger persisted by `SimpleChain::persist_to` reopens bit-identically (tip
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
//! 5. `read_at` / `history_range` / `provenance` on the cold-recovered state match an oracle
//!    that replays the reference ledger block by block;
//! 6. a record damaged behind a recomputed CRC, in a sealed segment or the tail, makes opening
//!    and cold recovery return `Ok` or a typed error, never panic;
//! 7. a segment whose header is not the format's magic — a previous format's included — or
//!    whose file name states a first block its first record does not carry, is a typed error
//!    that leaves every byte of the directory as it was;
//! 8. the data hash covers every transaction byte a record stores: a template class flipped
//!    behind a recomputed CRC is a chain error, and nothing is changed.

use fabricsharp::baselines::{SimpleChain, SystemKind};
use fabricsharp::common::config::{CcConfig, WorkloadParams};
use fabricsharp::common::error::CommonError;
use fabricsharp::common::rwset::Key;
use fabricsharp::ledger::durable::{DurableLedger, DurableOptions};
use fabricsharp::ledger::{provenance, recover_from_disk, write_checkpoint, Ledger, LedgerError};
use fabricsharp::vstore::MultiVersionStore;
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
    let mut params = WorkloadParams::default();
    params.num_accounts = NUM_ACCOUNTS;
    WorkloadGenerator::new(WorkloadKind::MixedSmallbank { theta: 0.7 }, params, seed)
}

/// Replays the committed writes of `ledger` into a fresh genesis-seeded store — the oracle
/// every recovered store is compared against.
fn replay_oracle(ledger: &Ledger, seed: u64, up_to: u64) -> MultiVersionStore {
    let mut store = MultiVersionStore::new();
    store.seed_genesis(workload(seed).genesis());
    for block in ledger.iter().take(up_to as usize) {
        let committed: Vec<_> = block.committed().collect();
        store.apply_block(block.number(), committed);
    }
    store
}

/// Drives a FabricSharp chain over the Smallbank mix, persisted under `dir` in 1 KiB segments
/// (so rotation is exercised) with a genesis checkpoint plus one every `ckpt_every` blocks.
/// Returns the chain's ledger.
fn build_and_persist(
    dir: &Path,
    seed: u64,
    num_txns: usize,
    block_size: usize,
    ckpt_every: u64,
) -> Ledger {
    let mut generator = workload(seed);
    let classifier = generator.analyzer();
    let config = CcConfig {
        segment_rotate_kib: 1,
        checkpoint_interval: ckpt_every,
        ..CcConfig::default()
    };
    let mut chain = SimpleChain::with_cc_config(SystemKind::FabricSharp, config);
    chain.seed(generator.genesis());
    chain.persist_to(dir).expect("fresh dir");

    let seal = |chain: &mut SimpleChain| {
        let txns = chain.cut();
        chain.commit(txns).expect("durable commit");
    };
    for i in 0..num_txns {
        let template = generator.next_template();
        let class = classifier.classify_instance(&template);
        let txn = chain
            .execute(|ctx| template.run(ctx))
            .with_template_class(class);
        let _ = chain.submit(txn);
        if (i + 1) % block_size == 0 {
            seal(&mut chain);
        }
    }
    seal(&mut chain);
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
        for (i, entry) in block.entries.iter().enumerate().rev() {
            if entry.status.is_committed() && entry.txn.write_set.iter().any(|w| &w.key == key) {
                return Some((entry.txn.id.0, i as u32 + 1));
            }
        }
    }
    None
}

#[test]
fn persisted_workload_ledger_reopens_bit_identically() {
    let dir = temp_dir("reopen");
    let reference = build_and_persist(&dir, 7, 60, 5, 4);
    assert!(reference.height() >= 4);

    let (durable, report) = DurableLedger::open(&dir, DurableOptions::default()).expect("reopen");
    assert!(report.torn.is_none());
    assert!(report.segments >= 2, "1 KiB rotation must have rotated");
    assert_eq!(durable.height(), reference.height());
    assert_eq!(durable.ledger().tip_hash(), reference.tip_hash());
    assert_eq!(durable.ledger().statuses(), reference.statuses());
    assert!(durable.ledger().verify_integrity().is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bit_flip_in_an_earlier_segment_is_a_typed_error_not_a_panic() {
    let dir = temp_dir("bitflip");
    build_and_persist(&dir, 11, 60, 5, 0);
    let segments = segment_files(&dir);
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

/// The segment files of `dir`, ascending by first block.
fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut segments: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    segments.sort();
    segments
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

/// Opening and cold-recovering `dir` both fail with a [`LedgerError::CorruptRecord`] in
/// `segment` whose detail contains `detail`, and leave every byte of the directory as it was.
fn assert_refused_unchanged(dir: &Path, segment: &Path, detail: &str) {
    let before = dir_bytes(dir);
    let errors = [
        DurableLedger::open(dir, DurableOptions::default()).map(drop),
        recover_from_disk(dir, CcConfig::default()).map(drop),
    ];
    for err in errors {
        let err = err.expect_err("a refused directory");
        assert!(
            matches!(&err, LedgerError::CorruptRecord { segment: at, detail: d, .. }
                if at == segment && d.contains(detail)),
            "got {err}"
        );
        assert_eq!(dir_bytes(dir), before, "a refused open changes nothing");
    }
}

/// One flipped bit in the magic of the last segment, which holds CRC-valid records, is no
/// torn rotation: opening and recovery refuse it and neither truncates nor removes anything.
#[test]
fn a_flipped_magic_bit_in_the_last_segment_is_a_typed_error_and_removes_nothing() {
    let dir = temp_dir("magic-flip");
    build_and_persist(&dir, 19, 60, 5, 4);
    let last = segment_files(&dir).pop().unwrap();
    let mut bytes = std::fs::read(&last).unwrap();
    assert!(bytes.len() > 8 + 8, "the last segment holds a record");
    bytes[3] ^= 0x04;
    std::fs::write(&last, &bytes).unwrap();
    assert_refused_unchanged(&dir, &last, "invalid segment header");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A segment in the previous format, `EOVSEG02`, written here from its bytes: a header and one
/// CRC-valid record. Nothing reads it; opening and recovery name the format and change no
/// byte.
#[test]
fn a_previous_format_segment_is_a_typed_error_that_names_its_format() {
    let dir = temp_dir("eovseg02");
    std::fs::create_dir_all(&dir).unwrap();
    // number 1 | prev_hash | data_hash | 0 entries
    let mut record = 1u64.to_be_bytes().to_vec();
    record.extend_from_slice(&[0; 32 + 32 + 4]);
    let mut segment = b"EOVSEG02".to_vec();
    segment.extend_from_slice(&(record.len() as u32).to_be_bytes());
    segment.extend_from_slice(&fabricsharp::ledger::codec::crc32(&record).to_be_bytes());
    segment.extend_from_slice(&record);
    let path = dir.join("seg-00000000000000000001.log");
    std::fs::write(&path, segment).unwrap();
    assert_refused_unchanged(&dir, &path, "EOVSEG02");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The template class is a byte of its transaction, and the data hash covers every
/// transaction byte a record stores: flipped behind a recomputed CRC, it makes opening fail the
/// data-hash check, and nothing is changed.
#[test]
fn a_flipped_template_class_behind_a_resealed_crc_fails_the_data_hash() {
    let dir = temp_dir("template-flip");
    build_and_persist(&dir, 29, 60, 5, 4);
    let frames = record_frames(&dir);
    let (segment, at) = &frames[frames.len() / 2];
    let mut bytes = std::fs::read(segment).unwrap();
    let len = u32::from_be_bytes(bytes[*at..at + 4].try_into().unwrap()) as usize;
    let payload = &mut bytes[at + 8..at + 8 + len];
    // number | prev_hash | data_hash | entry count, then the first transaction's id and
    // snapshot block: its template class is the next byte.
    assert!(payload[72..76] != [0; 4], "the record holds a transaction");
    payload[72 + 4 + 16] ^= 1;
    let crc = fabricsharp::ledger::codec::crc32(payload);
    bytes[at + 4..at + 8].copy_from_slice(&crc.to_be_bytes());
    std::fs::write(segment, &bytes).unwrap();

    let before = dir_bytes(&dir);
    let err = DurableLedger::open(&dir, DurableOptions::default()).unwrap_err();
    assert!(
        matches!(&err, LedgerError::Chain(CommonError::ChainIntegrity { detail, .. })
            if detail.contains("data hash does not match block body")),
        "got {err}"
    );
    assert_eq!(dir_bytes(&dir), before, "a refused open changes nothing");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A segment's first block is its file name: renamed to a height its first record does not
/// carry, the segment is refused — the first segment renamed to 0, the last one past the tip.
#[test]
fn a_segment_renamed_away_from_its_first_record_is_a_typed_error() {
    for victim in ["first", "last"] {
        let dir = temp_dir(&format!("renamed-{victim}"));
        build_and_persist(&dir, 23, 60, 5, 4);
        let segments = segment_files(&dir);
        assert!(segments.len() >= 2, "1 KiB rotation must have rotated");
        let (from, to) = match victim {
            "first" => (&segments[0], 0),
            _ => (segments.last().unwrap(), 1_000),
        };
        let renamed = dir.join(format!("seg-{to:020}.log"));
        std::fs::rename(from, &renamed).unwrap();
        assert_refused_unchanged(&dir, &renamed, &format!("named for block {to}"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
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
        let reference = build_and_persist(&dir, 13, 60, 5, 3);

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
            replay_oracle(&reference, 13, reference.height()),
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
            replay_oracle(&reference, 13, reference.height()),
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
    build_and_persist(&dir, 13, 60, 5, 3);
    let checkpoints = checkpoint_files(&dir);
    corrupt_payload(&checkpoints[0]);

    let err = recover_from_disk(&dir, CcConfig::default()).unwrap_err();
    assert!(
        matches!(
            &err,
            LedgerError::CorruptCheckpoint { path, .. }
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
    let reference = build_and_persist(&dir, seed, 70, 6, 4);
    let recovered = recover_from_disk(&dir, CcConfig::default()).expect("cold recovery");
    assert_eq!(recovered.ledger.height(), reference.height());

    let keys = account_keys(seed);
    for height in 0..=reference.height() {
        let oracle = replay_oracle(&reference, seed, height);
        for key in &keys {
            // read_at against the block-by-block replay oracle's latest value.
            assert_eq!(
                recovered.store.read_at(key, height).unwrap(),
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
        let oracle = replay_oracle(&reference, seed, reference.height());
        let mut expected: Vec<_> = oracle.history(key).collect();
        expected.reverse();
        assert_eq!(full, expected, "{key}");
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
        let reference = build_and_persist(&dir, seed, 50, 4, 0);
        prop_assert!(reference.height() >= 3);

        let segments = segment_files(&dir);
        let tail = segments.last().unwrap();
        let len = std::fs::metadata(tail).unwrap().len();
        let cut = chopped.min(len - 1).max(1);
        std::fs::OpenOptions::new()
            .write(true)
            .open(tail)
            .unwrap()
            .set_len(len - cut)
            .unwrap();

        let options = DurableOptions::default();
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

/// Every record of `dir` in log order: its segment and the byte offset of its frame.
fn record_frames(dir: &Path) -> Vec<(PathBuf, usize)> {
    let mut frames = Vec::new();
    for segment in segment_files(dir) {
        let bytes = std::fs::read(&segment).unwrap();
        // Records start behind the 8-byte magic.
        let mut at = 8;
        while at + 8 <= bytes.len() {
            frames.push((segment.clone(), at));
            at += 8 + u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        }
    }
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Overwrite 1–4 payload bytes of one record and recompute its CRC, so the damage gets
    /// past the frame check into the record walk and the window decode: opening the ledger
    /// and cold recovery both return `Ok` or a typed error, agree on the height, and never
    /// panic.
    #[test]
    fn a_damaged_record_behind_a_valid_crc_never_panics_open_or_recovery(
        record in any::<prop::sample::Index>(),
        overwrites in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..5),
    ) {
        let dir = temp_dir("crc-damage");
        build_and_persist(&dir, 5, 60, 5, 4);
        let frames = record_frames(&dir);
        let (segment, at) = &frames[record.index(frames.len())];
        let mut bytes = std::fs::read(segment).unwrap();
        let len = u32::from_be_bytes(bytes[*at..at + 4].try_into().unwrap()) as usize;
        let payload = &mut bytes[at + 8..at + 8 + len];
        for (i, byte) in overwrites {
            payload[i.index(len)] = byte;
        }
        let crc = fabricsharp::ledger::codec::crc32(payload);
        bytes[at + 4..at + 8].copy_from_slice(&crc.to_be_bytes());
        std::fs::write(segment, &bytes).unwrap();

        let outcome = std::panic::catch_unwind(|| {
            let opened = DurableLedger::open(&dir, DurableOptions::default())
                .map(|(ledger, _)| ledger.height());
            let recovered = recover_from_disk(&dir, CcConfig::default())
                .map(|recovered| recovered.ledger.height());
            (opened.ok(), recovered.ok())
        });
        std::fs::remove_dir_all(&dir).unwrap();
        let (opened, recovered) = outcome.expect("a damaged record made recovery panic");
        prop_assert_eq!(opened, recovered);
    }
}

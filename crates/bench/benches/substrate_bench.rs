//! Criterion micro-benchmarks of the substrates: multi-version store reads and the store
//! layout's point operations at 20 k keys and with 840 k more, SHA-256 block hashing, record
//! CRC-32, block decoding, Zipfian sampling and Smallbank endorsement.
//!
//! Every Smallbank key is at most 22 bytes, so every key here is inline: the store cases
//! measure the hash index, the slab and the log, not key allocation.
//!
//! Each `mvstore/*` row moves by less than 10 % over ten runs of one binary on a 2-vCPU host
//! (BASELINES.md records the spreads). A hot `latest()` pass over the 20 k-key store alone and a `put` of
//! 840 k fresh keys moved by 12–28 % and are not rows: `cost_model`'s release-mode ratio times
//! the first against the grown store in alternation, and `perf_report`'s
//! `create_account_durable` times the second end to end.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use eov_bench::{hot_keys_scattered, latest_pass, smallbank_store, GROWN_ACCOUNTS, HOT_ACCOUNTS};
use eov_common::config::WorkloadParams;
use eov_common::rwset::{Key, Value};
use eov_common::txn::{Transaction, TxnId};
use eov_common::version::SeqNo;
use eov_ledger::codec::{block_payload, crc32, decode_block};
use eov_ledger::{sha256, Block, Digest};
use eov_vstore::MultiVersionStore;
use eov_workload::smallbank::{genesis_accounts, SmallbankContract, SmallbankOp};
use eov_workload::zipf::Zipfian;
use eov_workload::{TxnTemplate, WorkloadGenerator, WorkloadKind};
use fabricsharp_core::endorser::SnapshotEndorser;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench_mvstore(c: &mut Criterion) {
    let mut store = MultiVersionStore::new();
    store.seed_genesis(genesis_accounts(10_000));
    // Ten blocks of updates to the first 500 accounts so snapshot reads have history to skip.
    for block in 1..=10u64 {
        for i in 0..500usize {
            store.put(
                &Key::new(format!("checking:{i}")),
                SeqNo::new(block, i as u32 + 1),
                Value::from_i64(block as i64),
            );
        }
        store.commit_empty_block(block);
    }

    // Built once: the rows time the store's hash, probe and walk, not the key's construction.
    let key = Key::new("checking:123");
    let mut group = c.benchmark_group("mvstore");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2));
    group.bench_function("latest_read", |b| {
        b.iter(|| store.latest(black_box(&key)).map(|v| v.version))
    });
    group.bench_function("snapshot_read_block_3", |b| {
        b.iter(|| {
            store
                .read_at(black_box(&key), 3)
                .unwrap()
                .map(|v| v.version)
        })
    });
    group.finish();
}

/// The store's point operations at the two sizes `perf_report` runs it at: the 20 k keys of a
/// Smallbank state, and the same 20 k inside `create_account_durable`'s grown state. One
/// iteration is one pass over the 20 k keys.
fn bench_mvstore_layout(c: &mut Criterion) {
    let hot = hot_keys_scattered();
    let small = smallbank_store(HOT_ACCOUNTS);

    let mut group = c.benchmark_group("mvstore");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2));
    {
        let grown = smallbank_store(GROWN_ACCOUNTS);
        group.bench_function("latest_hot20k_in_840k", |b| {
            b.iter(|| latest_pass(&grown, &hot))
        });
    }
    // Every iteration starts from the same state: each hot key holds two versions, its genesis
    // one in the log. The body writes a third and prunes the first, so it moves 20 k newest
    // versions to the log tail (five pages) and frees the four full pages of genesis ones.
    // A long-lived store grown and pruned by the timed body left the row bimodal (2 vs 5 ms).
    let mut two_versions = small.clone();
    for key in &hot {
        two_versions.put(key, SeqNo::new(1, 1), Value::from_i64(1));
    }
    two_versions.commit_empty_block(1);
    group.bench_function("put_existing_20k", |b| {
        b.iter_batched(
            || two_versions.clone(),
            |mut store| {
                for key in &hot {
                    store.put(key, SeqNo::new(2, 1), Value::from_i64(2));
                }
                store.commit_empty_block(2);
                store.prune_versions_below(1);
                store
            },
            BatchSize::LargeInput,
        )
    });
    // The endorser's access pattern: a snapshot two blocks behind the tip, over keys rewritten
    // in every block, so each read walks two links from the newest version. Every iteration
    // reads a fresh clone, as the endorser reads a store the last commits just wrote.
    let mut long_histories = small.clone();
    for block in 1..=10 {
        for key in &hot {
            long_histories.put(key, SeqNo::new(block, 1), Value::from_i64(block as i64));
        }
        long_histories.commit_empty_block(block);
    }
    group.bench_function("read_at_lag2", |b| {
        b.iter_batched(
            || long_histories.clone(),
            |store| {
                let found = hot
                    .iter()
                    .filter_map(|key| store.read_at(key, 8).unwrap())
                    .filter(|read| read.version.block == 8)
                    .count();
                (store, found)
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_ledger_and_zipf(c: &mut Criterion) {
    let mut group = c.benchmark_group("ledger_and_workload");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2));

    group.bench_function("sha256_1kib", |b| {
        let data = vec![0xabu8; 1024];
        b.iter(|| sha256(&data))
    });

    // The size of one 100-transaction block record: every durable append and every recovery
    // scan pays this once per block.
    group.bench_function("crc32_29kib", |b| {
        let data: Vec<u8> = (0..29 * 1024u32).map(|i| ((i * 31) >> 3) as u8).collect();
        b.iter(|| crc32(&data))
    });

    let txns: Vec<Transaction> = (0..100u64)
        .map(|i| {
            Transaction::from_parts(
                i,
                0,
                [(Key::new(format!("r{i}")), SeqNo::new(0, 1))],
                [(Key::new(format!("w{i}")), Value::from_i64(i as i64))],
            )
        })
        .collect();
    group.bench_function("build_block_100_txns", |b| {
        b.iter(|| Block::build(1, Digest::ZERO, txns.clone()).hash())
    });

    // What recovery does per block record once its CRC checks out.
    let payload = block_payload(&Block::build(1, Digest::ZERO, txns));
    group.bench_function("decode_block_100_txns", |b| {
        b.iter(|| decode_block(&payload).map(|block| block.entries.len()))
    });

    let zipf = Zipfian::new(10_000, 1.0);
    let mut rng = StdRng::seed_from_u64(3);
    group.bench_function("zipfian_sample", |b| b.iter(|| zipf.sample(&mut rng)));

    // Smallbank endorsement of a SendPayment against a 10k-account snapshot.
    let mut store = MultiVersionStore::new();
    store.seed_genesis(genesis_accounts(10_000));
    let endorser = SnapshotEndorser;
    group.bench_function("smallbank_endorse_send_payment", |b| {
        b.iter(|| {
            endorser.simulate_at(&store, TxnId(1), 0, |ctx| {
                SmallbankContract.run(
                    ctx,
                    &SmallbankOp::SendPayment {
                        from: 1,
                        to: 2,
                        amount: 5,
                    },
                )
            })
        })
    });

    // The endorser's share of `smallbank_default`: 100 modified-Smallbank simulations (4 reads,
    // 4 writes, 1 % hot) against a 20 k-key store.
    let store = smallbank_store(HOT_ACCOUNTS);
    let mut gen = WorkloadGenerator::new(
        WorkloadKind::ModifiedSmallbank,
        WorkloadParams::default(),
        42,
    );
    let ops: Vec<SmallbankOp> = (0..100)
        .map(|_| match gen.next_template() {
            TxnTemplate::Smallbank(op) => op,
            other => unreachable!("modified Smallbank drew {other:?}"),
        })
        .collect();
    group.bench_function("endorse_modified_smallbank_100", |b| {
        b.iter(|| {
            ops.iter()
                .zip(1u64..)
                .map(|(op, id)| {
                    endorser
                        .simulate_at(&store, TxnId(id), 0, |ctx| SmallbankContract.run(ctx, op))
                        .write_set
                        .len()
                })
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_mvstore,
    bench_mvstore_layout,
    bench_ledger_and_zipf
);
criterion_main!(benches);

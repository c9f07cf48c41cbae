//! Criterion micro-benchmarks of the substrates: multi-version store reads and the store
//! layout's point operations at 20 k and 860 k keys, committed-index queries, SHA-256 block
//! hashing, record CRC-32, Zipfian sampling and Smallbank endorsement.

use criterion::{criterion_group, criterion_main, Criterion};
use eov_bench::{
    hot_keys_scattered, latest_pass, smallbank_keys, smallbank_store, GROWN_ACCOUNTS, HOT_ACCOUNTS,
};
use eov_common::rwset::{Key, Value};
use eov_common::txn::{Transaction, TxnId};
use eov_common::version::SeqNo;
use eov_ledger::codec::crc32;
use eov_ledger::{sha256, Block, Digest};
use eov_vstore::{CommittedReadIndex, CommittedWriteIndex, MultiVersionStore, SnapshotManager};
use eov_workload::smallbank::{genesis_accounts, SmallbankContract, SmallbankOp};
use eov_workload::zipf::Zipfian;
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
                Key::new(format!("checking:{i}")),
                SeqNo::new(block, i as u32 + 1),
                Value::from_i64(block as i64),
            );
        }
        store.commit_empty_block(block);
    }

    let mut group = c.benchmark_group("mvstore");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2));
    group.bench_function("latest_read", |b| {
        b.iter(|| store.latest(&Key::new("checking:123")).map(|v| v.version))
    });
    group.bench_function("snapshot_read_block_3", |b| {
        b.iter(|| {
            store
                .read_at(&Key::new("checking:123"), 3)
                .unwrap()
                .map(|v| v.version)
        })
    });
    group.finish();
}

/// The store's point operations at the two sizes `perf_report` runs it at: the 20 k keys of a
/// Smallbank state, and the same 20 k inside `create_account_durable`'s grown state. One
/// iteration is one pass over 20 k keys (840 k for `put_fresh_840k`).
fn bench_mvstore_layout(c: &mut Criterion) {
    let hot = hot_keys_scattered();
    let fresh = smallbank_keys(HOT_ACCOUNTS, GROWN_ACCOUNTS);
    let small = smallbank_store(HOT_ACCOUNTS);

    let mut group = c.benchmark_group("mvstore");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2));
    group.bench_function("latest_hot20k_in_20k", |b| {
        b.iter(|| latest_pass(&small, &hot))
    });
    {
        let grown = smallbank_store(GROWN_ACCOUNTS);
        group.bench_function("latest_hot20k_in_840k", |b| {
            b.iter(|| latest_pass(&grown, &hot))
        });
    }
    group.bench_function("put_fresh_840k", |b| {
        b.iter(|| {
            let mut store = small.clone();
            for (i, key) in fresh.iter().enumerate() {
                store.put(
                    key.clone(),
                    SeqNo::new(1 + i as u64 / 200, 1),
                    Value::from_i64(1_000),
                );
            }
            store.key_count()
        })
    });
    let mut store = small.clone();
    let mut block = 0u64;
    group.bench_function("put_existing_20k", |b| {
        b.iter(|| {
            block += 1;
            for key in &hot {
                store.put(key.clone(), SeqNo::new(block, 1), Value::from_i64(1));
            }
            store.commit_empty_block(block);
            // Keep two versions per key, as a pruning node would.
            store.prune_versions_below(block - 1);
        })
    });
    group.finish();
}

fn bench_indices(c: &mut Criterion) {
    let mut cw = CommittedWriteIndex::new();
    for block in 1..=50u64 {
        for key in 0..200u64 {
            cw.record(
                Key::new(format!("k{key}")),
                SeqNo::new(block, key as u32 + 1),
                TxnId(block * 1_000 + key),
            );
        }
    }
    let mut group = c.benchmark_group("committed_write_index");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2));
    group.bench_function("last", |b| b.iter(|| cw.last(&Key::new("k42"))));
    group.bench_function("before", |b| {
        b.iter(|| cw.before(&Key::new("k42"), SeqNo::new(25, 0)))
    });
    group.bench_function("range_from", |b| {
        b.iter(|| cw.from(&Key::new("k42"), SeqNo::new(40, 0)).len())
    });
    group.finish();

    // Formation's persist pattern on one hot key: a committed read is recorded, then a write
    // commits and drops it — against an index holding 2 500 entries of other keys, which the
    // drop must not visit.
    let mut cr = CommittedReadIndex::new();
    for block in 1..=10u64 {
        for key in 0..250u64 {
            cr.record(
                Key::new(format!("k{key}")),
                SeqNo::new(block, key as u32 + 1),
                TxnId(block * 1_000 + key),
            );
        }
    }
    let hot = Key::new("k42");
    let mut slot = 0u32;
    let mut group = c.benchmark_group("committed_read_index");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2));
    group.bench_function("cr_drop_stale_hot", |b| {
        b.iter(|| {
            slot += 2;
            cr.record(hot.clone(), SeqNo::new(11, slot), TxnId(u64::from(slot)));
            cr.drop_stale_readers(&hot, SeqNo::new(11, slot + 1))
        })
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

    let zipf = Zipfian::new(10_000, 1.0);
    let mut rng = StdRng::seed_from_u64(3);
    group.bench_function("zipfian_sample", |b| b.iter(|| zipf.sample(&mut rng)));

    // Smallbank endorsement of a SendPayment against a 10k-account snapshot.
    let mut store = MultiVersionStore::new();
    store.seed_genesis(genesis_accounts(10_000));
    let snapshots = SnapshotManager::new();
    snapshots.register_block(0);
    let endorser = SnapshotEndorser::new(snapshots);
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
    group.finish();
}

criterion_group!(
    benches,
    bench_mvstore,
    bench_mvstore_layout,
    bench_indices,
    bench_ledger_and_zipf
);
criterion_main!(benches);

//! Durable-ledger sweep: the four tables behind BASELINES.md "Durable ledger".
//!
//! ```text
//! cargo run --release -p eov-bench --bin durable_sweep
//! ```
//!
//! 1. **Append throughput** — 200 committed blocks (8 txns each) through the CRC-framed
//!    segment writer, fsync off vs on (fsync on = one `fsync(2)` per block).
//! 2. **Checkpoint interval sweep** — persist the same 200-block chain with checkpoints at
//!    genesis + every `k` blocks; report checkpoint count/bytes and the cold-recovery time
//!    from that directory (newest checkpoint + suffix replay + controller rebuild).
//! 3. **Recovery time vs suffix length** — a single mid-chain checkpoint at height `h`;
//!    recovery replays the `200 − h` block suffix on top.
//! 4. **Rotation size sweep** — 1 000 blocks of 100 transactions (the ~20 KB records the
//!    `perf_report` workloads append) at `segment_rotate_kib` 64 … 16 384: time per append
//!    and segment files created. Why the default is 1 MiB.

use eov_common::config::CcConfig;
use eov_common::rwset::{Key, Value};
use eov_common::txn::{Transaction, TxnStatus};
use eov_ledger::durable::{DurableLedger, DurableOptions};
use eov_ledger::{write_checkpoint, Block, Ledger};
use eov_vstore::{StateStore, StoreBackend};
use fabricsharp_core::recover_from_disk;
use std::path::PathBuf;
use std::time::Instant;

const BLOCKS: u64 = 200;
const TXNS_PER_BLOCK: u64 = 8;
const RUNS: usize = 5;

fn fixture_blocks() -> Vec<Block> {
    let mut ledger = Ledger::new();
    let mut blocks = Vec::with_capacity(BLOCKS as usize);
    let mut id = 0u64;
    for number in 1..=BLOCKS {
        let txns: Vec<Transaction> = (0..TXNS_PER_BLOCK)
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
        ledger.append(block.clone()).unwrap();
        blocks.push(block);
    }
    blocks
}

/// 1 000 chained blocks of 100 blind single-key writers each — about 20 KB per record.
fn wide_blocks() -> Vec<Block> {
    let mut ledger = Ledger::new();
    for number in 1..=1_000u64 {
        let txns: Vec<Transaction> = (0..100u64)
            .map(|i| {
                let id = number * 100 + i;
                Transaction::from_parts(
                    id,
                    number - 1,
                    [],
                    [
                        (Key::new(format!("checking:{id}")), Value::from_i64(1_000)),
                        (Key::new(format!("savings:{id}")), Value::from_i64(1_000)),
                    ],
                )
            })
            .collect();
        let mut block = Block::build(number, ledger.tip_hash(), txns);
        for entry in &mut block.entries {
            entry.status = TxnStatus::Committed;
        }
        ledger.append(block).unwrap();
    }
    ledger.iter().cloned().collect()
}

fn genesis_store() -> StoreBackend {
    let mut store = StoreBackend::for_shards(0);
    store.seed_genesis((0..64).map(|i| (Key::new(format!("acct:{i}")), Value::from_i64(100))));
    store
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eov-dsweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn median_ms(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn dir_stats(dir: &PathBuf) -> (usize, u64, u64) {
    let (mut ckpts, mut ckpt_bytes, mut seg_bytes) = (0usize, 0u64, 0u64);
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let len = std::fs::metadata(&path).unwrap().len();
        match path.extension().and_then(|e| e.to_str()) {
            Some("bin") => {
                ckpts += 1;
                ckpt_bytes += len;
            }
            Some("log") => seg_bytes += len,
            _ => {}
        }
    }
    (ckpts, ckpt_bytes, seg_bytes)
}

/// Persists the fixture chain with a checkpoint at genesis, at every `interval` blocks
/// (0 = genesis only), and additionally at `extra_height` if nonzero.
fn persist(dir: &PathBuf, blocks: &[Block], interval: u64, extra_height: u64) {
    let (mut durable, _) = DurableLedger::open(dir, DurableOptions::default()).unwrap();
    let mut store = genesis_store();
    write_checkpoint(dir, &store, false).unwrap();
    for block in blocks {
        let number = block.number();
        store.apply_block(number, block.committed());
        durable.append(block.clone()).unwrap();
        if (interval > 0 && number % interval == 0) || (extra_height > 0 && number == extra_height)
        {
            write_checkpoint(dir, &store, false).unwrap();
        }
    }
}

fn recovery_ms(dir: &PathBuf) -> f64 {
    let mut samples: Vec<f64> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            let recovered = recover_from_disk(dir, CcConfig::default()).unwrap();
            assert_eq!(recovered.ledger.height(), BLOCKS);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median_ms(&mut samples)
}

fn main() {
    let blocks = fixture_blocks();
    println!("durable_sweep: {BLOCKS} blocks x {TXNS_PER_BLOCK} txns, median of {RUNS} runs\n");

    // 1. Append throughput, fsync off vs on.
    println!("append throughput (200 blocks through the segment writer):");
    println!("| fsync | total ms | blocks/s | MB/s |");
    println!("|---|---|---|---|");
    for fsync in [false, true] {
        let dir = temp_dir(if fsync { "app-sync" } else { "app" });
        let options = DurableOptions {
            fsync,
            ..DurableOptions::default()
        };
        let mut samples: Vec<f64> = (0..RUNS)
            .map(|_| {
                let _ = std::fs::remove_dir_all(&dir);
                let (mut durable, _) = DurableLedger::open(&dir, options).unwrap();
                let start = Instant::now();
                for block in &blocks {
                    durable.append(block.clone()).unwrap();
                }
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let ms = median_ms(&mut samples);
        let (_, _, seg_bytes) = dir_stats(&dir);
        println!(
            "| {} | {ms:.1} | {:.0} | {:.1} |",
            if fsync { "on" } else { "off" },
            BLOCKS as f64 / (ms / 1e3),
            seg_bytes as f64 / 1e6 / (ms / 1e3)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // 2. Checkpoint interval sweep.
    println!("\ncheckpoint interval sweep (cold recovery of the full 200-block chain):");
    println!("| interval | checkpoints | ckpt KiB | newest ckpt | suffix blocks | recovery ms |");
    println!("|---|---|---|---|---|---|");
    for interval in [0u64, 2, 5, 10, 25, 50] {
        let dir = temp_dir(&format!("int{interval}"));
        persist(&dir, &blocks, interval, 0);
        let (ckpts, ckpt_bytes, _) = dir_stats(&dir);
        let newest = if interval == 0 {
            0
        } else {
            BLOCKS - (BLOCKS % interval)
        };
        let ms = recovery_ms(&dir);
        println!(
            "| {} | {ckpts} | {:.0} | {newest} | {} | {ms:.1} |",
            if interval == 0 {
                "genesis only".to_string()
            } else {
                interval.to_string()
            },
            ckpt_bytes as f64 / 1024.0,
            BLOCKS - newest
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // 3. Recovery time vs suffix length (single mid-chain checkpoint).
    println!("\nrecovery time vs segment-suffix length (one checkpoint at height h):");
    println!("| ckpt height h | suffix blocks | recovery ms |");
    println!("|---|---|---|");
    for height in [0u64, 50, 100, 150, 190] {
        let dir = temp_dir(&format!("sfx{height}"));
        persist(&dir, &blocks, 0, height);
        let ms = recovery_ms(&dir);
        println!("| {height} | {} | {ms:.1} |", BLOCKS - height);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // 4. Rotation size sweep on block records of realistic size.
    let wide = wide_blocks();
    println!("\nrotation size sweep (1000 appends of 100-txn blocks, fsync off):");
    println!("| segment_rotate_kib | segment files | KB / record | us / append | us / append that rotates |");
    println!("|---|---|---|---|---|");
    for rotate_kib in [64u64, 256, 1024, 4096, 16384] {
        let dir = temp_dir(&format!("rot{rotate_kib}"));
        let options = DurableOptions {
            rotate_bytes: rotate_kib * 1024,
            fsync: false,
        };
        let mut rotating_us: Vec<f64> = Vec::new();
        let mut samples: Vec<f64> = (0..RUNS)
            .map(|_| {
                let _ = std::fs::remove_dir_all(&dir);
                let (mut durable, _) = DurableLedger::open(&dir, options).unwrap();
                let start = Instant::now();
                for block in &wide {
                    let tail_before = durable.tail_segment_len();
                    let append_start = Instant::now();
                    durable.append(block.clone()).unwrap();
                    if durable.tail_segment_len() < tail_before {
                        rotating_us.push(append_start.elapsed().as_secs_f64() * 1e6);
                    }
                }
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let ms = median_ms(&mut samples);
        let (_, _, seg_bytes) = dir_stats(&dir);
        let segments = std::fs::read_dir(&dir).unwrap().count();
        println!(
            "| {rotate_kib} | {segments} | {:.1} | {:.1} | {} |",
            seg_bytes as f64 / 1e3 / wide.len() as f64,
            ms * 1e3 / wide.len() as f64,
            if rotating_us.is_empty() {
                "-".to_string()
            } else {
                format!("{:.1}", median_ms(&mut rotating_us))
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! End-to-end integration tests of the execute → order → validate pipeline for all five
//! systems: the synchronous `SimpleChain` facade on contended workloads, with the committed
//! histories checked against the independent serializability oracle, and the discrete-event
//! simulator pinned run for run — ledger tip and every deterministic `SimReport` field — in
//! memory and persisted to disk.

use fabricsharp::ledger::Ledger;
use fabricsharp::prelude::*;
use fabricsharp::workload::YcsbProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a chain seeded with `n` accounts of 1,000 coins each.
fn seeded_chain(kind: SystemKind, n: usize) -> (SimpleChain, Vec<Key>) {
    let mut chain = SimpleChain::new(kind);
    let keys: Vec<Key> = (0..n).map(|i| Key::new(format!("acct:{i}"))).collect();
    chain.seed(keys.iter().map(|k| (k.clone(), Value::from_i64(1_000))));
    (chain, keys)
}

/// Runs `rounds` blocks of `per_block` random transfers over a small, hot account set.
fn run_contended_workload(
    kind: SystemKind,
    seed: u64,
    rounds: usize,
    per_block: usize,
) -> SimpleChain {
    let (mut chain, keys) = seeded_chain(kind, 8);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..rounds {
        for _ in 0..per_block {
            let from = keys[rng.gen_range(0..keys.len())].clone();
            let to = keys[rng.gen_range(0..keys.len())].clone();
            let amount = rng.gen_range(1..10i64);
            let txn = chain.execute(|ctx| {
                let f = ctx.read_balance(&from);
                let t = ctx.read_balance(&to);
                ctx.write(from.clone(), Value::from_i64(f - amount));
                if from != to {
                    ctx.write(to.clone(), Value::from_i64(t + amount));
                }
            });
            let _ = chain.submit(txn);
        }
        chain.seal_block();
    }
    chain
}

#[test]
fn every_system_produces_a_serializable_history_under_contention() {
    for kind in SystemKind::all() {
        for seed in [1u64, 7, 42] {
            let chain = run_contended_workload(kind, seed, 6, 10);
            assert!(
                is_serializable(&chain.committed_history()),
                "{kind} produced a non-serializable history (seed {seed})"
            );
            assert!(
                chain.ledger().verify_integrity().is_ok(),
                "{kind}: broken ledger"
            );
        }
    }
}

#[test]
fn fabric_and_fabricpp_histories_are_strongly_serializable() {
    // Theorem 1: systems that forbid anti-rw commit strongly serializable schedules.
    for kind in [
        SystemKind::Fabric,
        SystemKind::FabricPlusPlus,
        SystemKind::FoccL,
    ] {
        let chain = run_contended_workload(kind, 3, 5, 10);
        assert!(
            is_strongly_serializable(&chain.committed_history()),
            "{kind}: validation-gated systems must be strongly serializable"
        );
    }
}

#[test]
fn fabricsharp_commits_at_least_as_much_as_fabric_under_contention() {
    for seed in [11u64, 23, 59] {
        let fabric = run_contended_workload(SystemKind::Fabric, seed, 8, 12);
        let sharp = run_contended_workload(SystemKind::FabricSharp, seed, 8, 12);
        let fabric_commits = fabric.ledger().committed_txn_count();
        let sharp_commits = sharp.ledger().committed_txn_count();
        assert!(
            sharp_commits >= fabric_commits,
            "seed {seed}: Fabric# committed {sharp_commits} < Fabric {fabric_commits}"
        );
    }
}

#[test]
fn balances_are_conserved_when_every_transfer_is_balanced() {
    // Transfers move money between accounts without creating or destroying it, so the total
    // balance is invariant no matter which transactions commit — for every system.
    for kind in SystemKind::all() {
        let (mut chain, keys) = seeded_chain(kind, 6);
        let total_before: i64 = keys
            .iter()
            .map(|k| chain.latest(k).unwrap().as_i64().unwrap())
            .sum();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..4 {
            for _ in 0..8 {
                let from = keys[rng.gen_range(0..keys.len())].clone();
                let to = keys[rng.gen_range(0..keys.len())].clone();
                if from == to {
                    continue;
                }
                let txn = chain.execute(|ctx| {
                    let f = ctx.read_balance(&from);
                    let t = ctx.read_balance(&to);
                    ctx.write(from.clone(), Value::from_i64(f - 5));
                    ctx.write(to.clone(), Value::from_i64(t + 5));
                });
                let _ = chain.submit(txn);
            }
            chain.seal_block();
        }
        let total_after: i64 = keys
            .iter()
            .map(|k| chain.latest(k).unwrap().as_i64().unwrap())
            .sum();
        assert_eq!(
            total_before, total_after,
            "{kind}: money was created or destroyed"
        );
    }
}

#[test]
fn raw_count_exceeds_committed_count_only_for_validating_systems() {
    // FabricSharp never places doomed transactions into blocks, so its raw ledger count equals
    // its committed count; Fabric's raw count includes validation aborts.
    let fabric = run_contended_workload(SystemKind::Fabric, 5, 6, 12);
    let sharp = run_contended_workload(SystemKind::FabricSharp, 5, 6, 12);
    assert!(fabric.ledger().raw_txn_count() >= fabric.ledger().committed_txn_count());
    assert_eq!(
        sharp.ledger().raw_txn_count(),
        sharp.ledger().committed_txn_count()
    );
}

#[test]
fn read_only_transactions_commit_under_every_system() {
    for kind in SystemKind::all() {
        let (mut chain, keys) = seeded_chain(kind, 4);
        for key in &keys {
            let txn = chain.execute(|ctx| {
                let _ = ctx.read_balance(key);
            });
            assert!(
                chain.submit(txn).is_accept(),
                "{kind}: read-only submission rejected"
            );
        }
        let report = chain.seal_block();
        assert_eq!(
            report.committed.len(),
            keys.len(),
            "{kind}: read-only txns must commit"
        );
    }
}

/// One simulator run per system and workload at seed 42: a second of Table 2 traffic over 400
/// accounts in 40-transaction blocks. The durability knobs only matter to the persisted rerun,
/// where they rotate segments and write checkpoints.
fn pinned_sim_config(workload: &str, system: SystemKind) -> SimulationConfig {
    let workload = match workload {
        "smallbank" => WorkloadKind::ModifiedSmallbank,
        "ycsb-a" => WorkloadKind::Ycsb(YcsbProfile::a()),
        other => unreachable!("no workload {other}"),
    };
    let mut config = SimulationConfig::new(system, workload);
    config.duration_s = 1.2;
    config.params.num_accounts = 400;
    config.params.request_rate_tps = 400;
    config.block.max_txns_per_block = 40;
    config.cc.checkpoint_interval = 4;
    config.cc.segment_rotate_kib = 1;
    config.seed = 42;
    config
}

/// One [`SIMULATOR_PINS`] row: the run's ledger tip, then its deterministic report fields,
/// aborts sorted by reason.
fn pin_row(workload: &str, report: &SimReport, ledger: &Ledger) -> String {
    let mut aborts: Vec<String> = report
        .aborts
        .nonzero()
        .map(|(reason, n)| format!("{reason:?}:{n}"))
        .collect();
    aborts.sort();
    format!(
        "{workload} {} {}\n  offered={} in_ledger={} committed={} blocks={} anti_rw={} \
         fastpath={} hops={:.3}\n  latency_ms={:.3} block_span={:.3}\n  aborts {}\n",
        report.system,
        ledger.tip_hash().to_hex(),
        report.offered,
        report.in_ledger,
        report.committed,
        report.blocks,
        report.committed_with_anti_rw,
        report.fastpath_accepted,
        report.avg_hops,
        report.avg_latency_ms,
        report.avg_block_span,
        aborts.join(",")
    )
}

/// [`pin_row`] for every system on modified Smallbank and YCSB-A, recorded while the simulator
/// still composed its own commit → append → checkpoint step. The tips were re-pinned once, when
/// the data hash came to cover every transaction byte a record stores; these ledgers,
/// re-chained with the previous data hash, reproduce the recorded tips. The latency and block
/// span fields were added later, recorded while the simulator still carried each request's
/// submission time through its events and the chain's commit still counted anti-rw commits.
const SIMULATOR_PINS: &str = "\
smallbank Fabric e7e944c7f454ab169c125ecc2bb8b8c3bb7b506d01c3793fed7f107bf109b52d
  offered=480 in_ledger=480 committed=170 blocks=12 anti_rw=0 fastpath=0 hops=0.000
  latency_ms=160.597 block_span=1.918
  aborts StaleRead:310
smallbank Fabric++ 613a7f29a97ec34f90818033ef60e6c0dc68a2e2e392e67d5a7b70a8dc5d8a23
  offered=480 in_ledger=237 committed=237 blocks=12 anti_rw=0 fastpath=0 hops=0.000
  latency_ms=178.340 block_span=1.540
  aborts CrossBlockRead:12,InBlockCycle:19,StaleRead:212
smallbank Fabric# b8b0a56cf1a20dc06bcf1328be8146b947263e1fbccbf4e77f8e75947ae03f55
  offered=480 in_ledger=267 committed=267 blocks=12 anti_rw=82 fastpath=0 hops=2.244
  latency_ms=134.891 block_span=1.685
  aborts UnreorderableCycle:213
smallbank Focc-s df88a3ac18deac5a94513c51104276374cadf4967ab03bcf3153d7059d390730
  offered=480 in_ledger=215 committed=116 blocks=12 anti_rw=0 fastpath=0 hops=0.000
  latency_ms=142.789 block_span=1.784
  aborts ConcurrentWriteWrite:230,DangerousStructure:35,StaleRead:99
smallbank Focc-l 17938462a607402d8873be802b70fddc5a427aff6e37a939d6707cdb6874abc5
  offered=480 in_ledger=480 committed=190 blocks=12 anti_rw=0 fastpath=0 hops=0.000
  latency_ms=153.545 block_span=1.874
  aborts StaleRead:290
ycsb-a Fabric b40f83816be68a7bed79904e8ee4a63fb67013f4763eea01f9d2f1f09a0cecff
  offered=480 in_ledger=480 committed=168 blocks=12 anti_rw=0 fastpath=0 hops=0.000
  latency_ms=158.001 block_span=1.905
  aborts StaleRead:312
ycsb-a Fabric++ 144866375befaec961fa034350cc3be2f06c8168cefa82c46f7ffc4d5193650a
  offered=480 in_ledger=236 committed=236 blocks=12 anti_rw=0 fastpath=0 hops=0.000
  latency_ms=185.085 block_span=1.521
  aborts CrossBlockRead:11,InBlockCycle:12,StaleRead:221
ycsb-a Fabric# 81831e301b8ac0f409b9b6af6597a95f5dafcc103bb05b8c6b9611b3fe81b1ce
  offered=480 in_ledger=305 committed=305 blocks=12 anti_rw=111 fastpath=0 hops=3.558
  latency_ms=137.586 block_span=1.767
  aborts UnreorderableCycle:175
ycsb-a Focc-s e566225d87efa7222b965d04a7294474dd69fb94ca3f0b43890fc7ec4b519e51
  offered=480 in_ledger=222 committed=100 blocks=12 anti_rw=0 fastpath=0 hops=0.000
  latency_ms=140.684 block_span=1.740
  aborts ConcurrentWriteWrite:223,DangerousStructure:35,StaleRead:122
ycsb-a Focc-l 71674cf8422b1e9a54782ec960795b06fd21f1c36cb8fbd560c626f46508748a
  offered=480 in_ledger=480 committed=189 blocks=12 anti_rw=0 fastpath=0 hops=0.000
  latency_ms=152.991 block_span=1.847
  aborts StaleRead:291
";

/// Every system on modified Smallbank and YCSB-A reproduces its pinned simulator run, and
/// persisting the run to a fresh directory changes none of it.
#[test]
fn simulator_runs_match_their_pins_for_every_system_in_memory_and_on_disk() {
    let (mut in_memory, mut persisted) = (String::new(), String::new());
    for workload in ["smallbank", "ycsb-a"] {
        for system in SystemKind::all() {
            let config = pinned_sim_config(workload, system);
            let (report, ledger, _) = Simulator::run_full(&config);
            in_memory += &pin_row(workload, &report, &ledger);

            let dir = std::env::temp_dir().join(format!(
                "eov-pins-{workload}-{system:?}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let config = SimulationConfig {
                durability_dir: Some(dir.clone()),
                ..config
            };
            let (report, ledger, _) = Simulator::run_full(&config);
            persisted += &pin_row(workload, &report, &ledger);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
    assert_eq!(in_memory, SIMULATOR_PINS);
    assert_eq!(persisted, SIMULATOR_PINS);
}

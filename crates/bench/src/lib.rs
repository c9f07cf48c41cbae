//! Shared plumbing for the experiment harness binaries.
//!
//! Every paper figure/table has its own binary under `src/bin/` (see `DESIGN.md` §4 for the
//! index); this library holds the pieces they share — default run length, the standard
//! "systems × sweep" runner, and plain-text table printing, so that each binary reads like the
//! experiment it reproduces.

#![forbid(unsafe_code)]

use eov_baselines::api::SystemKind;
use eov_common::rwset::Key;
use eov_sim::{SimReport, SimulationConfig, Simulator};
use eov_vstore::MultiVersionStore;
use eov_workload::smallbank;

/// Simulated seconds per data point. Overridden with the `FABRICSHARP_BENCH_SECS` environment
/// variable (e.g. `FABRICSHARP_BENCH_SECS=3` for a quick smoke run of every figure).
pub fn sweep_duration_s() -> f64 {
    std::env::var("FABRICSHARP_BENCH_SECS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(10.0)
}

/// Runs one configuration for every system, with the sweep duration applied.
pub fn run_all_systems(mut base: SimulationConfig) -> Vec<SimReport> {
    base.duration_s = sweep_duration_s();
    Simulator::run_all_systems(&base)
}

/// Runs a single system/configuration with the sweep duration applied.
pub fn run_one(mut config: SimulationConfig) -> SimReport {
    config.duration_s = sweep_duration_s();
    Simulator::run(&config)
}

/// Prints a figure banner with the paper reference.
pub fn banner(figure: &str, description: &str) {
    println!("==================================================================");
    println!("{figure}: {description}");
    println!(
        "(simulated {}s per data point; set FABRICSHARP_BENCH_SECS to change)",
        sweep_duration_s()
    );
    println!("==================================================================");
}

/// Prints one table: rows are sweep points, columns are the five systems.
pub fn print_throughput_table<T: std::fmt::Display>(
    x_label: &str,
    rows: &[(T, Vec<SimReport>)],
    value: impl Fn(&SimReport) -> f64,
    value_label: &str,
) {
    print!("{x_label:<22}");
    for system in SystemKind::all() {
        print!("{:>12}", system.label());
    }
    println!("   ({value_label})");
    for (x, reports) in rows {
        print!("{:<22}", format!("{x}"));
        for report in reports {
            print!("{:>12.0}", value(report));
        }
        println!();
    }
    println!();
}

/// Prints a per-sweep-point scalar panel (for single-system statistics such as Figure 13's
/// hops / block-span panel).
pub fn print_scalar_rows<T: std::fmt::Display>(label: &str, rows: &[(T, f64)]) {
    println!("{label}");
    for (x, v) in rows {
        println!("  {x:<20} {v:>10.2}");
    }
    println!();
}

/// Prints the measured per-block formation wall-clock (p50 / p99 / total) for every system at
/// every sweep point — the end-to-end view of the dependency-graph engine's block-formation
/// cost on this machine.
pub fn print_formation_table<T: std::fmt::Display>(x_label: &str, rows: &[(T, Vec<SimReport>)]) {
    println!("measured block formation wall-clock (this machine): p50 µs / p99 µs / total ms");
    print!("{x_label:<22}");
    for system in SystemKind::all() {
        print!("{:>22}", system.label());
    }
    println!();
    for (x, reports) in rows {
        print!("{:<22}", format!("{x}"));
        for report in reports {
            let f = &report.formation;
            print!(
                "{:>22}",
                format!("{:.0}/{:.0}/{:.1}", f.p50_us, f.p99_us, f.total_ms)
            );
        }
        println!();
    }
    println!();
}

/// Prints the measured per-block validate/commit wall-clock (p50 / p99 / total) for every
/// system at every sweep point — the execution-stage companion of
/// [`print_formation_table`], covering MVCC validation plus write installation (serial at
/// `execution_threads = 0`, wave-parallel otherwise).
pub fn print_commit_table<T: std::fmt::Display>(x_label: &str, rows: &[(T, Vec<SimReport>)]) {
    println!(
        "measured block validate/commit wall-clock (this machine): p50 µs / p99 µs / total ms"
    );
    print!("{x_label:<22}");
    for system in SystemKind::all() {
        print!("{:>22}", system.label());
    }
    println!();
    for (x, reports) in rows {
        print!("{:<22}", format!("{x}"));
        for report in reports {
            let c = &report.commit;
            print!(
                "{:>22}",
                format!("{:.0}/{:.0}/{:.1}", c.p50_us, c.p99_us, c.total_ms)
            );
        }
        println!();
    }
    println!();
}

/// Prints the per-stage pipeline occupancy for every system at every sweep point: how many
/// simulated milliseconds the formation stage and the validate/commit stage were busy, and
/// what fraction of the formation time overlapped commit work. Under the phased driver the
/// overlap is what the event cadence alone produces; with `pipelined_formation` on, the
/// formation stage runs concurrently with arrivals and the overlap (plus the forced-join
/// count) shows how well the three-stage pipeline is balanced.
pub fn print_occupancy_table<T: std::fmt::Display>(x_label: &str, rows: &[(T, Vec<SimReport>)]) {
    println!("pipeline occupancy (simulated time): formation-busy ms / commit-busy ms / overlap %");
    print!("{x_label:<22}");
    for system in SystemKind::all() {
        print!("{:>22}", system.label());
    }
    println!();
    for (x, reports) in rows {
        print!("{:<22}", format!("{x}"));
        for report in reports {
            let o = &report.occupancy;
            print!(
                "{:>22}",
                format!(
                    "{:.0}/{:.0}/{:.0}%",
                    o.formation_busy_ms,
                    o.commit_busy_ms,
                    o.overlap_fraction() * 100.0
                )
            );
        }
        println!();
    }
    println!();
}

/// Accounts whose keys the state-store benches read and update: `create_account_durable`'s
/// genesis (two keys each, 20 k keys in all).
pub const HOT_ACCOUNTS: usize = 10_000;
/// Accounts of the large state-store bench input: the hot ones plus the 420 k that
/// `create_account_durable` adds over a 12-second run (840 k fresh keys).
pub const GROWN_ACCOUNTS: usize = HOT_ACCOUNTS + 420_000;

/// The Smallbank keys of accounts `from..to`, in the order a run first writes them.
pub fn smallbank_keys(from: usize, to: usize) -> Vec<Key> {
    smallbank::genesis_accounts(to)
        .into_iter()
        .skip(from * 2)
        .map(|(key, _)| key)
        .collect()
}

/// A store holding one version of every Smallbank key of `accounts` accounts.
pub fn smallbank_store(accounts: usize) -> MultiVersionStore {
    let mut store = MultiVersionStore::new();
    store.seed_genesis(smallbank::genesis_accounts(accounts));
    store
}

/// The hot keys in a fixed scattered order (a stride coprime to their count), so that a pass
/// over them has the locality of a transaction mix and not that of a key-order scan.
pub fn hot_keys_scattered() -> Vec<Key> {
    let keys = smallbank_keys(0, HOT_ACCOUNTS);
    (0..keys.len())
        .map(|i| keys[i * 7_919 % keys.len()].clone())
        .collect()
}

/// One `latest()` per key; returns how many were found (keeps the optimiser honest).
pub fn latest_pass(store: &MultiVersionStore, keys: &[Key]) -> u64 {
    keys.iter()
        .filter(|key| store.latest(key).is_some())
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_workload::generator::WorkloadKind;

    #[test]
    fn run_one_produces_a_report() {
        std::env::set_var("FABRICSHARP_BENCH_SECS", "0.5");
        let mut config = SimulationConfig::new(SystemKind::Fabric, WorkloadKind::NoOp);
        config.params.request_rate_tps = 200;
        let report = run_one(config);
        assert!(report.offered > 0);
        std::env::remove_var("FABRICSHARP_BENCH_SECS");
    }
}

//! Runs every experiment harness in sequence (Figure 1, Table 1, Figures 10–15) — the one
//! command that regenerates the data behind every paper figure.
//!
//! ```text
//! cargo run --release -p eov-bench --bin all_experiments            # full sweeps
//! FABRICSHARP_BENCH_SECS=3 cargo run --release -p eov-bench --bin all_experiments   # quick pass
//! cargo run --release -p eov-bench --bin all_experiments -- --grid  # just print Table 2
//! ```

use eov_common::config::ExperimentGrid;
use std::process::Command;

fn main() {
    if std::env::args().any(|a| a == "--grid") {
        let grid = ExperimentGrid::default();
        println!("Table 2 — experiment parameters (defaults underlined in the paper):");
        println!(
            "  # of transactions per block : {:?} (default 100)",
            grid.block_sizes
        );
        println!(
            "  Write hot ratio (%)         : {:?} (default 10)",
            grid.write_hot_ratios
        );
        println!(
            "  Read hot ratio (%)          : {:?} (default 10)",
            grid.read_hot_ratios
        );
        println!(
            "  Client delay (ms)           : {:?} (default 0)",
            grid.client_delays_ms
        );
        println!(
            "  Read interval (ms)          : {:?} (default 0)",
            grid.read_intervals_ms
        );
        println!("  Figure 1 Zipfian θ          : {:?}", grid.figure1_thetas);
        println!("  Figure 15 Zipfian θ         : {:?}", grid.figure15_thetas);
        return;
    }

    let binaries = [
        "fig01_motivation",
        "table1_example",
        "fig10_block_size",
        "fig11_write_hot",
        "fig12_read_hot",
        "fig13_client_delay",
        "fig14_read_interval",
        "fig15_fastfabric",
    ];
    for binary in binaries {
        println!("\n################ {binary} ################\n");
        // Re-invoking through cargo would rebuild; run the sibling binary directly from the
        // same target directory this binary was launched from.
        let current = std::env::current_exe().expect("current executable path");
        let sibling = current.parent().expect("target directory").join(binary);
        let status = Command::new(&sibling)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {}: {e}", sibling.display()));
        if !status.success() {
            eprintln!("{binary} exited with {status}");
            std::process::exit(1);
        }
    }
}

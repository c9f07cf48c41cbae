//! The paper's evaluation: Figure 1, Tables 1 and 2, Figures 10–15, on the simulator.
//!
//! ```text
//! cargo run --release -p eov-bench --bin paper_report                     # every figure
//! cargo run --release -p eov-bench --bin paper_report -- fig10 fig14      # some figures
//! cargo run --release -p eov-bench --bin paper_report -- --secs 0.5       # quick pass
//! ```
//!
//! Figure names: `fig1`, `table1`, `table2`, `fig10` … `fig15`; none means all of them.
//! `--secs S` sets the simulated seconds per data point (default 10).

use eov_bench::paper::{render, DEFAULT_SECS, FIGURES};
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut secs = DEFAULT_SECS;
    let mut figures = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--secs" {
            match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 => secs = v,
                _ => return usage("--secs takes a positive number of seconds"),
            }
        } else if let Some(name) = FIGURES.iter().find(|name| **name == arg) {
            figures.push(*name);
        } else {
            return usage(&format!("unknown argument `{arg}`"));
        }
    }
    if figures.is_empty() {
        figures = FIGURES.to_vec();
    }
    let mut out = std::io::stdout().lock();
    for name in figures {
        let written = writeln!(out, "\n################ {name} ################\n")
            .and_then(|()| render(name, secs, &mut out));
        if let Err(e) = written {
            eprintln!("paper_report: {name}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("paper_report: {problem}");
    eprintln!("usage: paper_report [--secs S] [{}]...", FIGURES.join("|"));
    ExitCode::from(2)
}

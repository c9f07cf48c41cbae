//! The paper's evaluation as one harness: Figure 1, Tables 1 and 2, Figures 10–15.
//!
//! [`render`] writes one figure, by name, as plain-text tables to any [`Write`]. Figures
//! 10–14 are rows of one table (`SWEEPS`): each sweeps one `WorkloadParams` / `BlockConfig`
//! field over its [`ExperimentGrid`] values on modified Smallbank, runs all five systems at
//! every point, and prints its panels as "sweep point × system → value" tables. Figure 1,
//! Figure 15 and Table 1 are small functions of their own.
//!
//! Every number is simulated time, and deterministic, except the three wall-clock panels
//! (block formation, validate → append, arrival µs/txn): the simulator times the
//! `cut` / `commit` / `arrive` calls it makes on the machine that runs it.

use eov_baselines::api::{table1_commits, SystemKind};
use eov_common::config::ExperimentGrid;
use eov_sim::{FormationTiming, SimReport, SimulationConfig, Simulator};
use eov_workload::generator::WorkloadKind;
use std::io::{self, Write};

/// Every figure [`render`] knows, in the order a full report prints them.
pub const FIGURES: [&str; 9] = [
    "fig1", "table1", "table2", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
];

/// Simulated seconds per data point when the caller does not pick a run length.
pub const DEFAULT_SECS: f64 = 10.0;

/// Writes figure `name` (one of [`FIGURES`]) to `out`, simulating `secs` seconds per data
/// point.
pub fn render(name: &str, secs: f64, out: &mut dyn Write) -> io::Result<()> {
    match name {
        "fig1" => fig1(secs, out),
        "table1" => table1(out),
        "table2" => table2(out),
        "fig15" => fig15(secs, out),
        _ => match SWEEPS.iter().find(|sweep| sweep.name == name) {
            Some(sweep) => sweep.render(secs, out),
            None => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown figure `{name}`"),
            )),
        },
    }
}

/// One of Figures 10–14: a Table 2 parameter swept over its grid values for all five systems.
struct Sweep {
    /// The figure's name in [`FIGURES`].
    name: &'static str,
    caption: &'static str,
    x_label: &'static str,
    /// The sweep points: row label and configuration.
    points: fn(&ExperimentGrid) -> Vec<(String, SimulationConfig)>,
    panels: &'static [Panel],
    shape: &'static str,
}

/// One table of a sweep figure.
enum Panel {
    /// Sweep point × system → `cell` of that system's report, right-aligned in `width`.
    Systems {
        caption: &'static str,
        width: usize,
        cell: fn(&SimReport) -> String,
    },
    /// Sweep point → one of Fabric#'s own statistics (Figure 13 right).
    Sharp {
        caption: &'static str,
        value: fn(&SimReport) -> f64,
    },
    /// Sweep point → Figure 14's abort breakdown of one system.
    Aborts(SystemKind),
}

const EFFECTIVE_TPS: Panel = Panel::Systems {
    caption: "effective tps",
    width: 12,
    cell: |r| format!("{:.0}", r.effective_tps()),
};
const FORMATION: Panel = Panel::Systems {
    caption: "measured block formation wall-clock (this machine): p50 µs / p99 µs / total ms",
    width: 22,
    cell: |r| timing(&r.formation),
};
const COMMIT: Panel = Panel::Systems {
    caption:
        "measured block validate -> append wall-clock (this machine): p50 µs / p99 µs / total ms",
    width: 22,
    cell: |r| timing(&r.commit),
};

fn timing(t: &FormationTiming) -> String {
    format!("{:.0}/{:.0}/{:.1}", t.p50_us, t.p99_us, t.total_ms)
}

/// Modified Smallbank at Table 2's defaults, once per grid value: `set` puts the value in the
/// configuration, `label` names the row.
fn smallbank<T: Copy>(
    values: &[T],
    label: impl Fn(T) -> String,
    set: impl Fn(&mut SimulationConfig, T),
) -> Vec<(String, SimulationConfig)> {
    let point = |value| {
        let mut config = SimulationConfig::new(SystemKind::Fabric, WorkloadKind::ModifiedSmallbank);
        set(&mut config, value);
        (label(value), config)
    };
    values.iter().copied().map(point).collect()
}

fn percent(ratio: f64) -> String {
    format!("{:.0}%", ratio * 100.0)
}

/// Figures 10–14.
const SWEEPS: [Sweep; 5] = [
    Sweep {
        name: "fig10",
        caption: "Figure 10: throughput (left) and latency (right) under varying block size, \
                  modified Smallbank",
        x_label: "# txns per block",
        points: |grid| {
            smallbank(
                &grid.block_sizes,
                |b| b.to_string(),
                |c, b| c.block.max_txns_per_block = b,
            )
        },
        panels: &[
            EFFECTIVE_TPS,
            Panel::Systems {
                caption: "latency, ms",
                width: 12,
                cell: |r| format!("{:.0}", r.avg_latency_ms),
            },
            FORMATION,
            COMMIT,
        ],
        shape: "Paper's shape: Fabric# peaks at 100-txn blocks (542 tps) and stays highest \
                everywhere;\nFabric/Fabric++/Focc-s peak at 200 (411/437/327 tps) and Focc-l at \
                400 (415 tps);\nlatency grows with block size and is worst for the systems that \
                ship doomed transactions\ninto the validation phase.",
    },
    Sweep {
        name: "fig11",
        caption: "Figure 11: throughput (left) and measured block formation (right) under \
                  varying write hot ratio",
        x_label: "write hot ratio",
        points: |grid| {
            smallbank(&grid.write_hot_ratios, percent, |c, r| {
                c.params.write_hot_ratio = r
            })
        },
        panels: &[EFFECTIVE_TPS, FORMATION, COMMIT],
        shape: "Paper's shape: Fabric# stays highest at every ratio; Focc-s collapses as the \
                write hot\nratio grows (it aborts every concurrent write-write conflict); \
                Fabric++'s reordering\nlatency is large and flat, Focc-l's is small and grows \
                with skew, Fabric#'s block-formation\nwork stays small because the heavy lifting \
                happened at arrival time.",
    },
    Sweep {
        name: "fig12",
        caption: "Figure 12: throughput (left) and measured per-txn arrival latency (right) \
                  under varying read hot ratio",
        x_label: "read hot ratio",
        points: |grid| {
            smallbank(&grid.read_hot_ratios, percent, |c, r| {
                c.params.read_hot_ratio = r
            })
        },
        panels: &[
            EFFECTIVE_TPS,
            Panel::Systems {
                caption: "measured arrival µs/txn (this machine)",
                width: 12,
                cell: |r| format!("{:.1}", r.measured_arrival_us_per_txn),
            },
        ],
        shape: "Paper's shape: read-write cycles cannot be rescued by reordering (Theorem 2), so \
                every\nsystem's throughput falls at a similar rate — except Focc-s, whose \
                stricter-but-different\ndangerous-structure rule lets it recover some \
                transactions under heavy read contention.\nIn the paper, Fabric#'s arrival-time \
                processing (reachability updates) dominates the right\npanel, while \
                Fabric++/Focc-s arrival costs are near zero.\nMeasured here: the right panel is \
                this machine's wall-clock per `arrive` call, timed the\nsame way for all five \
                systems, and need not keep the paper's order (on a 2-core x86-64\nhost at 0.5 s \
                per point, Focc-s read 5–7 µs/txn and Fabric# 1–2 µs/txn).",
    },
    Sweep {
        name: "fig13",
        caption: "Figure 13: throughput (left) and Fabric# statistics (right) under varying \
                  client delay",
        x_label: "client delay",
        points: |grid| {
            smallbank(
                &grid.client_delays_ms,
                |d| format!("{d} ms"),
                |c, d| c.params.client_delay_ms = d,
            )
        },
        panels: &[
            EFFECTIVE_TPS,
            Panel::Sharp {
                caption: "Fabric# — average reachability hops per arrival",
                value: |r| r.avg_hops,
            },
            Panel::Sharp {
                caption: "Fabric# — average transaction block span",
                value: |r| r.avg_block_span,
            },
        ],
        shape: "Paper's shape: longer client delays widen every transaction's block span, \
                creating more\nconcurrency and more dependencies; throughput falls for everyone, \
                Fabric# traverses more\nof its dependency graph per arrival, yet remains the \
                best-performing system.",
    },
    Sweep {
        name: "fig14",
        caption: "Figure 14: throughput (left) and abort-rate breakdown (right) under varying \
                  read interval",
        x_label: "read interval",
        points: |grid| {
            smallbank(
                &grid.read_intervals_ms,
                |i| format!("{i} ms"),
                |c, i| c.params.read_interval_ms = i,
            )
        },
        panels: &[
            EFFECTIVE_TPS,
            Panel::Aborts(SystemKind::FoccS),
            Panel::Aborts(SystemKind::FabricPlusPlus),
            Panel::Aborts(SystemKind::FabricSharp),
        ],
        shape: "Paper's shape: vanilla Fabric collapses (its execute-phase lock serialises long\n\
                simulations against block commit); Fabric++ loses throughput to simulation \
                aborts\n(cross-block reads); Focc-s accumulates concurrent-ww and \
                dangerous-structure aborts;\nFabric# degrades the most gracefully.",
    },
];

impl Sweep {
    fn render(&self, secs: f64, out: &mut dyn Write) -> io::Result<()> {
        banner(out, self.caption, secs)?;
        let rows: Vec<(String, Vec<SimReport>)> = (self.points)(&ExperimentGrid::default())
            .into_iter()
            .map(|(x, mut config)| {
                config.duration_s = secs;
                (x, Simulator::run_all_systems(&config))
            })
            .collect();
        for panel in self.panels {
            match panel {
                Panel::Systems {
                    caption,
                    width,
                    cell,
                } => {
                    writeln!(out, "{caption}")?;
                    let widths = [22, *width, *width, *width, *width, *width];
                    let labels = SystemKind::all().map(|s| s.label());
                    write_row(out, &widths, [self.x_label].iter().chain(&labels))?;
                    for (x, reports) in &rows {
                        let cells = reports.iter().map(cell);
                        write_row(out, &widths, [x.clone()].into_iter().chain(cells))?;
                    }
                }
                Panel::Sharp { caption, value } => {
                    writeln!(out, "{caption}")?;
                    for (x, reports) in &rows {
                        let value = value(report_of(reports, SystemKind::FabricSharp));
                        write_row(out, &[22, 11], [format!("  {x}"), format!("{value:.2}")])?;
                    }
                }
                Panel::Aborts(system) => {
                    writeln!(out, "Abort breakdown — {}", system.label())?;
                    let head = [
                        self.x_label,
                        "Concurrent-ww",
                        "2 consecutive rw",
                        "Simulation abort",
                        "Others",
                        "abort rate",
                    ];
                    let widths = [14, 17, 19, 19, 11, 13];
                    write_row(out, &widths, head)?;
                    for (x, reports) in &rows {
                        let report = report_of(reports, *system);
                        let shares = report.abort_breakdown().into_iter().map(|(_, s)| s);
                        let rates = shares.chain([report.abort_rate()]);
                        let cells = rates.map(|r| format!("{:.1}%", r * 100.0));
                        write_row(out, &widths, [x.clone()].into_iter().chain(cells))?;
                    }
                }
            }
            writeln!(out)?;
        }
        writeln!(out, "{}", self.shape)
    }
}

/// The report of `system` among the five that [`Simulator::run_all_systems`] returns.
fn report_of(reports: &[SimReport], system: SystemKind) -> &SimReport {
    let report = reports.iter().find(|r| r.system == system);
    report.expect("run_all_systems runs every system")
}

/// Writes one table row: the first cell left-aligned in `widths[0]`, every other one after a
/// space and right-aligned in the rest of its width.
fn write_row<S: AsRef<str>>(
    out: &mut dyn Write,
    widths: &[usize],
    row: impl IntoIterator<Item = S>,
) -> io::Result<()> {
    for (i, (cell, width)) in row.into_iter().zip(widths).enumerate() {
        let cell = cell.as_ref();
        match i {
            0 => write!(out, "{cell:<width$}")?,
            _ => write!(out, " {cell:>w$}", w = width - 1)?,
        }
    }
    writeln!(out)
}

fn banner(out: &mut dyn Write, caption: &str, secs: f64) -> io::Result<()> {
    let rule = "=".repeat(66);
    writeln!(out, "{rule}\n{caption}")?;
    writeln!(
        out,
        "(simulated {secs}s per data point; `--secs S` to change)\n{rule}"
    )
}

/// Figure 1: vanilla Fabric's raw throughput is flat while its effective throughput collapses
/// as the update workload gets more skewed.
fn fig1(secs: f64, out: &mut dyn Write) -> io::Result<()> {
    banner(
        out,
        "Figure 1: Fabric raw vs effective throughput: no-op and single-modification txns under \
         Zipfian skew",
        secs,
    )?;
    let workloads = std::iter::once(("No-op".to_string(), WorkloadKind::NoOp)).chain(
        ExperimentGrid::default()
            .figure1_thetas
            .into_iter()
            .map(|theta| {
                (
                    format!("update, θ={theta}"),
                    WorkloadKind::KvUpdate { theta },
                )
            }),
    );
    let widths = [18, 11, 13, 11, 13];
    let head = ["workload", "raw tps", "effective", "aborted", "abort rate"];
    write_row(out, &widths, head)?;
    for (label, workload) in workloads {
        let mut config = SimulationConfig::new(SystemKind::Fabric, workload);
        config.duration_s = secs;
        let r = Simulator::run(&config);
        let row = [
            label,
            format!("{:.0}", r.raw_tps()),
            format!("{:.0}", r.effective_tps()),
            r.aborted().to_string(),
            format!("{:.1}%", r.abort_rate() * 100.0),
        ];
        write_row(out, &widths, row)?;
    }
    writeln!(
        out,
        "\nPaper's shape: raw throughput stays ≈677 tps regardless of skew, while the effective\n\
         throughput falls as an increasing fraction of in-ledger transactions is aborted for\n\
         serializability."
    )
}

/// Table 1: the commit status of Txn2–Txn5 of Figure 2a under each system.
fn table1(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Table 1: commit status of Txn2..Txn5 from Figure 2a (X = commit, x = abort)\n"
    )?;
    let widths = [10, 9, 9, 9, 9];
    write_row(out, &widths, ["System", "Txn2", "Txn3", "Txn4", "Txn5"])?;
    for system in SystemKind::all() {
        let committed = table1_commits(system);
        let cell = |id: u64| if committed.contains(&id) { "X" } else { "x" };
        write_row(
            out,
            &widths,
            [system.label(), cell(2), cell(3), cell(4), cell(5)],
        )?;
    }
    writeln!(out, "\nPaper's Table 1:")?;
    write_row(out, &widths, ["Fabric", "x", "X", "x", "x"])?;
    write_row(out, &widths, ["Fabric++", "x", "x", "X", "X"])?;
    writeln!(
        out,
        "\n(The paper does not tabulate Fabric#/Focc-s/Focc-l on this example; they are shown\n \
         here for completeness. Fabric# commits two transactions, like Fabric++, but drops the\n \
         unserializable ones before they occupy block slots.)"
    )
}

/// Table 2: the experiment parameters the sweeps run over.
fn table2(out: &mut dyn Write) -> io::Result<()> {
    let grid = ExperimentGrid::default();
    let rows = [
        (
            "# of transactions per block",
            format!("{:?} (default 100)", grid.block_sizes),
        ),
        (
            "Write hot ratio (%)",
            format!("{:?} (default 10)", grid.write_hot_ratios),
        ),
        (
            "Read hot ratio (%)",
            format!("{:?} (default 10)", grid.read_hot_ratios),
        ),
        (
            "Client delay (ms)",
            format!("{:?} (default 0)", grid.client_delays_ms),
        ),
        (
            "Read interval (ms)",
            format!("{:?} (default 0)", grid.read_intervals_ms),
        ),
        ("Figure 1 Zipfian θ", format!("{:?}", grid.figure1_thetas)),
        ("Figure 15 Zipfian θ", format!("{:?}", grid.figure15_thetas)),
    ];
    writeln!(
        out,
        "Table 2 — experiment parameters (defaults underlined in the paper):"
    )?;
    for (parameter, values) in rows {
        writeln!(out, "  {parameter:<27} : {values}")?;
    }
    Ok(())
}

/// Figure 15: FastFabric vs FastFabric# on contention-free Create-Account and on mixed
/// Smallbank with Zipfian skew, with the commits that tolerate an anti-rw dependency.
fn fig15(secs: f64, out: &mut dyn Write) -> io::Result<()> {
    banner(
        out,
        "Figure 15: FastFabric vs FastFabric# effective throughput (Create Account + mixed \
         Smallbank)",
        secs,
    )?;
    let run = |system, workload| {
        let mut config = SimulationConfig::fast_fabric(system, workload);
        // FastFabric is driven well past Fabric's 700 tps; the paper reports ≈3100 tps raw.
        config.params.request_rate_tps = 3_500;
        config.block.max_txns_per_block = 200;
        config.duration_s = secs;
        Simulator::run(&config)
    };
    let workloads = std::iter::once(("Create Account".to_string(), WorkloadKind::CreateAccount))
        .chain(
            ExperimentGrid::default()
                .figure15_thetas
                .into_iter()
                .map(|theta| {
                    let label = format!("Mixed Smallbank, θ={theta}");
                    (label, WorkloadKind::MixedSmallbank { theta })
                }),
        );
    let widths = [26, 15, 17, 21];
    let head = [
        "workload",
        "FastFabric",
        "FastFabric#",
        "Fabric# anti-rw commits",
    ];
    write_row(out, &widths, head)?;
    for (label, workload) in workloads {
        let fast = run(SystemKind::Fabric, workload.clone());
        let sharp = run(SystemKind::FabricSharp, workload);
        let row = [
            label,
            format!("{:.0}", fast.effective_tps()),
            format!("{:.0}", sharp.effective_tps()),
            sharp.committed_with_anti_rw.to_string(),
        ];
        write_row(out, &widths, row)?;
    }
    writeln!(
        out,
        "\nPaper's shape: on Create Account FastFabric# pays <5% overhead (2960 vs 3114 tps);\n\
         under the mixed workload the gap grows with skew and FastFabric# reaches up to 66% more\n\
         effective throughput at θ=1, most of the gain coming from serialized transactions with\n\
         anti-rw dependencies that FastFabric would have aborted."
    )
}

//! Renders every figure of the paper harness at a tiny run length and checks the shape of its
//! tables: one row per sweep point, and in every "sweep point × system" table one column per
//! system.

use eov_baselines::api::SystemKind;
use eov_bench::paper::{render, FIGURES};
use eov_common::config::ExperimentGrid;
use std::collections::HashMap;

/// Simulated seconds per data point: enough for a few blocks per run.
const SECS: f64 = 0.1;

fn rendered(name: &str) -> String {
    let mut out = Vec::new();
    render(name, SECS, &mut out).unwrap_or_else(|e| panic!("{name}: {e}"));
    String::from_utf8(out).expect("figures are UTF-8")
}

/// The lines after the first line that `is_head` accepts, up to the next blank line.
fn rows_after(text: &str, is_head: impl Fn(&str) -> bool) -> Vec<&str> {
    let mut lines = text.lines();
    assert!(lines.by_ref().any(&is_head), "no table header in:\n{text}");
    lines.take_while(|line| !line.is_empty()).collect()
}

/// The rows of every table whose header names the five systems, in print order.
fn system_tables(text: &str) -> Vec<Vec<&str>> {
    let labels = SystemKind::all().map(|s| s.label());
    let lines: Vec<&str> = text.lines().collect();
    let is_head = |line: &str| {
        line.get(22..)
            .is_some_and(|rest| rest.split_whitespace().eq(labels))
    };
    (0..lines.len())
        .filter(|&i| is_head(lines[i]))
        .map(|i| {
            let rows = lines[i + 1..].iter().take_while(|line| !line.is_empty());
            rows.copied().collect()
        })
        .collect()
}

/// Asserts one row per sweep point: `points` rows with distinct first cells (the first `width`
/// bytes) and `cells` more cells each.
fn assert_rows(figure: &str, rows: &[&str], points: usize, width: usize, cells: usize) {
    assert_eq!(rows.len(), points, "{figure}: {rows:#?}");
    let mut xs: Vec<&str> = rows.iter().map(|row| row[..width].trim()).collect();
    xs.sort_unstable();
    xs.dedup();
    assert_eq!(xs.len(), points, "{figure}: sweep points repeat: {rows:#?}");
    for row in rows {
        let count = row[width..].split_whitespace().count();
        assert_eq!(count, cells, "{figure}: row `{row}`");
    }
}

#[test]
fn every_figure_renders_one_row_per_sweep_point_and_one_column_per_system() {
    let grid = ExperimentGrid::default();
    let text: HashMap<&str, String> = FIGURES.iter().map(|&f| (f, rendered(f))).collect();
    let sweeps = [
        ("fig10", grid.block_sizes.len(), 4),
        ("fig11", grid.write_hot_ratios.len(), 3),
        ("fig12", grid.read_hot_ratios.len(), 2),
        ("fig13", grid.client_delays_ms.len(), 1),
        ("fig14", grid.read_intervals_ms.len(), 1),
    ];
    for (figure, points, tables) in sweeps {
        let text = &text[figure];
        let found = system_tables(text);
        assert_eq!(found.len(), tables, "{figure}:\n{text}");
        for rows in found {
            assert_rows(figure, &rows, points, 22, 5);
        }
        assert!(text.contains("Paper's shape"), "{figure}:\n{text}");
    }

    for panel in ["hops per arrival", "block span"] {
        let rows = rows_after(&text["fig13"], |line| line.ends_with(panel));
        assert_rows("fig13", &rows, grid.client_delays_ms.len(), 22, 1);
    }
    for system in [
        SystemKind::FoccS,
        SystemKind::FabricPlusPlus,
        SystemKind::FabricSharp,
    ] {
        let caption = format!("Abort breakdown — {}", system.label());
        let rows = rows_after(&text["fig14"], |line| line == caption);
        // The header row, then the four Figure 14 buckets and the abort rate per point.
        assert_rows("fig14", &rows[1..], grid.read_intervals_ms.len(), 14, 5);
    }

    let is_head = |line: &str| line.starts_with("workload");
    let rows = rows_after(&text["fig1"], is_head);
    assert_rows("fig1", &rows, 1 + grid.figure1_thetas.len(), 18, 4);
    let rows = rows_after(&text["fig15"], is_head);
    assert_rows("fig15", &rows, 1 + grid.figure15_thetas.len(), 26, 3);

    let rows = rows_after(&text["table1"], |line| line.starts_with("System"));
    let systems: Vec<&str> = rows.iter().map(|row| row[..10].trim()).collect();
    assert_eq!(systems, SystemKind::all().map(|s| s.label()));
    assert_rows("table1", &rows, 5, 10, 4);
    assert!(text["table2"].contains(&format!("{:?}", grid.block_sizes)));
}

#[test]
fn an_unknown_figure_is_an_error_and_prints_nothing() {
    let mut out = Vec::new();
    let err = render("fig2", SECS, &mut out).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(out.is_empty());
}

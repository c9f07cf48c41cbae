//! Harness self-tests: determinism of the driver and agreement with `BENCHMARK.json`.
//! (`cargo test --offline --manifest-path perf/Cargo.toml`)

use crate::driver::{run_repetition, Repetition, ScratchDir};
use crate::json::Json;
use crate::workloads::{Workload, END_TO_END, PER_LAYER, SMOKE_BLOCKS, WORKLOADS};
use crate::{assemble, contract_line};
use std::path::Path;

fn repetition(workload: &Workload, tag: &str, traced: bool, audit: bool) -> Json {
    let scratch = ScratchDir::new(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out/scratch")
            .join(format!(
                "test-{}-{}-{tag}",
                std::process::id(),
                workload.name
            )),
    );
    run_repetition(&Repetition {
        workload,
        seed: 42,
        blocks: SMOKE_BLOCKS,
        traced,
        dir: scratch.path(),
        trace_file: None,
        audit,
    })
    .expect("repetition runs")
}

fn number(result: &Json, metric: &str) -> f64 {
    let value = result.get("metrics").and_then(|m| m.get(metric));
    value
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no metric {metric}"))
}

fn names(list: &Json) -> Vec<String> {
    let items = list.as_array().expect("a list");
    items
        .iter()
        .map(|item| {
            item.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

/// Every metric whose unit is `count` or `B`: these must repeat exactly for a seed.
fn exact_metrics() -> impl Iterator<Item = &'static str> {
    PER_LAYER
        .iter()
        .filter(|def| matches!(def.unit, "count" | "B"))
        .map(|def| def.name)
        // Filled in by the parent from the warm-up repetition.
        .filter(|name| !name.starts_with("oracle."))
}

#[test]
fn two_runs_of_each_workload_give_identical_counts_and_tip() {
    for workload in WORKLOADS {
        let first = repetition(workload, "a", true, false);
        let second = repetition(workload, "b", true, false);
        let untraced = repetition(workload, "c", false, false);
        assert_eq!(
            first.get("failed_checks"),
            Some(&Json::Arr(vec![])),
            "{}",
            workload.name
        );
        assert_eq!(
            first.get("ledger_tip"),
            second.get("ledger_tip"),
            "{}",
            workload.name
        );
        assert_eq!(
            first.get("ledger_tip"),
            untraced.get("ledger_tip"),
            "{}",
            workload.name
        );
        for metric in exact_metrics() {
            assert_eq!(
                number(&first, metric),
                number(&second, metric),
                "{} {metric}",
                workload.name
            );
        }
        assert_eq!(number(&first, "driver.blocks"), SMOKE_BLOCKS as f64);
    }
}

#[test]
fn audit_passes_where_the_oracle_gates() {
    for workload in WORKLOADS.iter().filter(|w| w.oracle_gates) {
        let result = repetition(workload, "audit", false, true);
        assert_eq!(
            result.get("failed_checks"),
            Some(&Json::Arr(vec![])),
            "{}",
            workload.name
        );
        assert_eq!(
            result.get("oracle_serializable"),
            Some(&Json::Bool(true)),
            "{}",
            workload.name
        );
    }
}

/// Known defect of the system at the commit the benchmark was written on (README): with
/// endorsement `LAG` blocks behind the tip, Fabric# commits histories the oracle rejects on
/// the workloads that blind-write. Un-ignore when fixed, and set `oracle_gates` on them.
#[test]
#[ignore = "known defect: Fabric# commits non-serializable histories under stale blind writes"]
fn fabric_sharp_history_is_serializable_on_every_workload() {
    for workload in WORKLOADS.iter().filter(|w| !w.oracle_gates) {
        let result = repetition(workload, "defect", false, true);
        assert_eq!(
            result.get("oracle_serializable"),
            Some(&Json::Bool(true)),
            "{}",
            workload.name
        );
    }
}

#[test]
fn benchmark_json_and_the_emitted_metrics_name_the_same_things() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let bench = Json::parse(&text).expect("BENCHMARK.json parses");

    let workload_names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(names(bench.get("workloads").unwrap()), workload_names);

    // Names, units, directions and bounds agree with the tables the harness emits from.
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = bench.get(key).and_then(Json::as_array).unwrap();
        assert_eq!(listed.len(), table.len(), "{key}");
        for (entry, def) in listed.iter().zip(table) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(def.better),
                "{}",
                def.name
            );
            if key == "end_to_end" {
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    Some(def.bound),
                    "{}",
                    def.name
                );
            }
        }
    }
    assert!(names(bench.get("end_to_end").unwrap()).contains(&"setup_s".to_string()));

    let all_names = workload_names
        .iter()
        .cloned()
        .chain(names(bench.get("end_to_end").unwrap()))
        .chain(names(bench.get("per_layer").unwrap()));
    for name in all_names {
        assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name} has a character outside letters, digits, '_', '.', '-'"
        );
    }

    // What a run prints carries exactly the listed metrics, in both trace modes.
    let workload = &WORKLOADS[0];
    let warm_up = repetition(workload, "schema-w", false, true);
    let timed = [repetition(workload, "schema-t", false, false)];
    let traced = repetition(workload, "schema-x", true, false);
    let run = assemble(workload, &warm_up, &timed, Some(&traced)).unwrap();
    for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let line = Json::parse(&contract_line(&run, traced).to_string()).unwrap();
        let Json::Obj(fields) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("no metrics")
        };
        let emitted: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(emitted, names(bench.get(key).unwrap()), "{key}");
        for (name, metric) in metrics {
            assert!(
                metric.get("value").and_then(Json::as_f64).is_some(),
                "{name}"
            );
            assert!(
                metric.get("unit").and_then(Json::as_str).is_some(),
                "{name}"
            );
        }
    }
}

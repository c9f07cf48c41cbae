//! `perf_report`: the repository's benchmark. See `perf/README.md`.
//!
//! ```text
//! perf_report                                   every workload, full report
//! perf_report --smoke                           20 blocks per workload, all checks on
//! perf_report --workload W --seed N --seconds S --trace 0|1    one result line
//! ```
//!
//! Every repetition runs in a fresh child process of this binary, one at a time, so each
//! starts with a clean allocator and its own `VmHWM`. Progress goes to stderr; stdout
//! carries only the final JSON.

#![forbid(unsafe_code)]

mod driver;
mod json;
mod stats;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use driver::{run_repetition, Repetition, Res, ScratchDir};
use json::Json;
use stats::median;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{
    workload, MetricDef, Workload, BLOCK_SIZE, END_TO_END, ORACLE_BLOCKS, PER_LAYER, SMOKE_BLOCKS,
    WORKLOADS,
};

/// Untraced repetitions behind every end-to-end median.
const REPETITIONS: usize = 3;
/// `run_seconds` of `BENCHMARK.json`: the `--seconds` a plain run uses.
const DEFAULT_SECONDS: u64 = 12;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
    smoke: bool,
    trace_out: Option<PathBuf>,
    // Child-only.
    child: bool,
    blocks: Option<u64>,
    dir: Option<PathBuf>,
    trace_file: Option<PathBuf>,
    audit: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .ok_or_else(|| format!("{flag} needs a value ({what})"))
        };
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: '{text}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = Some(number(value("u64")?)?),
            "--seconds" => args.seconds = Some(number(value("whole seconds")?)?.max(1)),
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            "--smoke" => args.smoke = true,
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("a directory")?)),
            "--child" => args.child = true,
            "--blocks" => args.blocks = Some(number(value("block count")?)?),
            "--dir" => args.dir = Some(PathBuf::from(value("a directory")?)),
            "--trace-file" => args.trace_file = Some(PathBuf::from(value("a file")?)),
            "--audit" => args.audit = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn progress(message: &str) {
    let _ = writeln!(std::io::stderr(), "perf_report: {message}");
}

/// Body of a child process: one repetition, its result as one line on stdout.
fn child_main(args: &Args) -> Res<()> {
    let name = args.workload.as_deref().ok_or("--child needs --workload")?;
    let rep = Repetition {
        workload: workload(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
        seed: args.seed.ok_or("--child needs --seed")?,
        blocks: args.blocks.ok_or("--child needs --blocks")?,
        traced: args.trace.unwrap_or(false),
        dir: args.dir.as_deref().ok_or("--child needs --dir")?,
        trace_file: args.trace_file.as_deref(),
        audit: args.audit,
    };
    let result = run_repetition(&rep)?;
    writeln!(std::io::stdout(), "{result}")?;
    Ok(())
}

struct Plan<'a> {
    workload: &'a Workload,
    seed: u64,
    blocks: u64,
    repetitions: usize,
    traced: bool,
    out_dir: &'a Path,
}

/// What one child is asked to do beyond the plan it belongs to.
struct ChildJob<'a> {
    label: &'a str,
    blocks: u64,
    traced: bool,
    audit: bool,
}

/// Spawns one repetition as a child process, waits for it, and parses its result line. The
/// scratch directory is named by this process's id and the label, and removed whatever
/// happens to the child.
fn spawn_repetition(plan: &Plan<'_>, job: &ChildJob<'_>) -> Res<Json> {
    let scratch = ScratchDir::new(plan.out_dir.join("scratch").join(format!(
        "{}-{}-{}",
        plan.workload.name,
        std::process::id(),
        job.label
    )));
    let mut command = Command::new(std::env::current_exe()?);
    command
        .arg("--child")
        .args(["--workload", plan.workload.name])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--blocks", &job.blocks.to_string()])
        .args(["--trace", if job.traced { "1" } else { "0" }])
        .arg("--dir")
        .arg(scratch.path());
    if job.traced {
        command
            .arg("--trace-file")
            .arg(trace_file(plan.out_dir, plan.workload));
    }
    if job.audit {
        command.arg("--audit");
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    if !output.status.success() {
        return Err(format!(
            "{} {}: child exited with {}",
            plan.workload.name, job.label, output.status
        )
        .into());
    }
    let stdout = String::from_utf8(output.stdout)?;
    let line = stdout.lines().last().ok_or("child printed no result")?;
    Ok(Json::parse(line)?)
}

fn trace_file(out_dir: &Path, workload: &Workload) -> PathBuf {
    out_dir.join(format!("{}.trace.jsonl", workload.name))
}

fn metric_of(result: &Json, name: &str) -> Res<f64> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("repetition result lacks metric '{name}'").into())
}

/// Everything measured on one workload.
struct WorkloadRun {
    /// Failed correctness checks, each prefixed with the repetition it failed in.
    failed_checks: Vec<String>,
    ledger_tip: String,
    /// Transactions offered over the timed (untraced) repetitions.
    attempted: u64,
    latency_samples: u64,
    p99_supported: bool,
    /// Per end-to-end metric: the value of each untraced repetition, in order.
    raw: Vec<(&'static MetricDef, Vec<f64>)>,
    /// Per-layer metrics of the traced repetition (empty when none ran).
    per_layer: Vec<(&'static MetricDef, f64)>,
}

/// The correctness checks a repetition reported as failed, prefixed with its label.
fn failures_of(label: &str, result: &Json) -> Vec<String> {
    let checks = result.get("failed_checks").and_then(Json::as_array);
    checks
        .unwrap_or(&[])
        .iter()
        .map(|check| format!("{label}: {}", check.as_str().unwrap_or("?")))
        .collect()
}

/// Warm-up, `repetitions` untraced repetitions, then (if asked) one traced repetition, each
/// in its own child process, one at a time.
fn run_workload(plan: &Plan<'_>) -> Res<WorkloadRun> {
    let name = plan.workload.name;
    // The discarded warm-up also carries the audit (oracle + facade comparison), so its
    // cost stays out of every reported number. Same seed, so its chain is a prefix of the
    // timed repetitions' chain.
    let warm_up = spawn_repetition(
        plan,
        &ChildJob {
            label: "warmup",
            blocks: (plan.blocks / 10).max(ORACLE_BLOCKS).min(plan.blocks),
            traced: false,
            audit: true,
        },
    )?;
    let mut timed = Vec::with_capacity(plan.repetitions);
    for i in 0..plan.repetitions {
        progress(&format!(
            "{name}: repetition {}/{} ({} blocks)",
            i + 1,
            plan.repetitions,
            plan.blocks
        ));
        timed.push(spawn_repetition(
            plan,
            &ChildJob {
                label: &format!("rep{i}"),
                blocks: plan.blocks,
                traced: false,
                audit: false,
            },
        )?);
    }
    let traced = if plan.traced {
        progress(&format!("{name}: traced repetition"));
        Some(spawn_repetition(
            plan,
            &ChildJob {
                label: "traced",
                blocks: plan.blocks,
                traced: true,
                audit: false,
            },
        )?)
    } else {
        None
    };
    let run = assemble(plan.workload, &warm_up, &timed, traced.as_ref())?;
    for check in &run.failed_checks {
        progress(&format!("FAILED {name}: {check}"));
    }
    Ok(run)
}

/// Folds the repetitions' results into one workload's result: gathers the failed checks,
/// compares the ledger tips, and lines the metrics up with the metric tables.
fn assemble(
    workload: &Workload,
    warm_up: &Json,
    timed: &[Json],
    traced: Option<&Json>,
) -> Res<WorkloadRun> {
    let mut failed_checks = failures_of("warm-up", warm_up);
    for (i, result) in timed.iter().enumerate() {
        failed_checks.extend(failures_of(&format!("rep{i}"), result));
    }
    failed_checks.extend(traced.map_or_else(Vec::new, |t| failures_of("traced", t)));

    let number = |key: &str| warm_up.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let oracle_blocks = number("oracle_blocks");
    let oracle_serializable = warm_up.get("oracle_serializable") == Some(&Json::Bool(true));
    if !oracle_serializable {
        let finding =
            format!("committed history of the first {oracle_blocks} blocks is not serializable");
        if workload.oracle_gates {
            failed_checks.push(format!("warm-up: {finding}"));
        } else {
            progress(&format!(
                "{}: known defect, not gated: {finding}",
                workload.name
            ));
        }
    }

    let tip_of = |result: &Json| {
        let tip = result.get("ledger_tip").and_then(Json::as_str);
        tip.unwrap_or("").to_string()
    };
    let first = timed.first().ok_or("no timed repetition ran")?;
    let ledger_tip = tip_of(first);
    if timed.iter().chain(traced).any(|r| tip_of(r) != ledger_tip) {
        failed_checks.push("ledger tip differs between repetitions".into());
    }

    let mut raw = Vec::with_capacity(END_TO_END.len());
    for def in END_TO_END {
        let values: Vec<f64> = timed
            .iter()
            .map(|r| metric_of(r, def.name))
            .collect::<Res<_>>()?;
        raw.push((def, values));
    }
    let mut per_layer = Vec::new();
    if let Some(traced) = traced {
        let untraced_loops: Vec<f64> = timed
            .iter()
            .filter_map(|r| r.get("loop_s").and_then(Json::as_f64))
            .collect();
        for def in PER_LAYER {
            let value = match def.name {
                "trace.overhead_ratio" => {
                    metric_of(traced, "driver.loop_s")? / median(&untraced_loops)
                }
                "oracle.serializable" => f64::from(u8::from(oracle_serializable)),
                "oracle.blocks" => oracle_blocks,
                name => metric_of(traced, name)?,
            };
            per_layer.push((def, value));
        }
    }
    let count = |key: &str| first.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    Ok(WorkloadRun {
        failed_checks,
        ledger_tip,
        attempted: count("offered") * timed.len() as u64,
        latency_samples: count("latency_samples"),
        p99_supported: first.get("p99_supported") == Some(&Json::Bool(true)),
        raw,
        per_layer,
    })
}

fn value_and_unit(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::from(value)), ("unit", Json::str(unit))])
}

/// The one-line result the benchmark contract asks for. Aborts are the concurrency
/// control's verdicts, not failed operations: an operation fails only when a layer returns
/// an error or leaves a transaction without a verdict, and that fails the run.
fn contract_line(run: &WorkloadRun, traced: bool) -> Json {
    let metrics: Vec<(String, Json)> = if traced {
        run.per_layer
            .iter()
            .map(|(def, value)| (def.name.to_string(), value_and_unit(*value, def.unit)))
            .collect()
    } else {
        run.raw
            .iter()
            .map(|(def, values)| {
                (
                    def.name.to_string(),
                    value_and_unit(median(values), def.unit),
                )
            })
            .collect()
    };
    Json::obj([
        ("correct", Json::Bool(run.failed_checks.is_empty())),
        ("attempted", Json::from(run.attempted)),
        ("failed", Json::from(0u64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn full_entry(workload: &Workload, run: &WorkloadRun, blocks: u64, trace_path: &Path) -> Json {
    let end_to_end = run.raw.iter().map(|(def, values)| {
        (
            def.name,
            Json::obj([
                ("value", Json::from(median(values))),
                ("unit", Json::str(def.unit)),
                ("better", Json::str(def.better)),
                ("bound", Json::from(def.bound)),
                (
                    "raw",
                    Json::Arr(values.iter().map(|v| Json::from(*v)).collect()),
                ),
            ]),
        )
    });
    let per_layer = run
        .per_layer
        .iter()
        .map(|(def, value)| (def.name, value_and_unit(*value, def.unit)));
    Json::obj([
        ("why", Json::str(workload.why)),
        ("correct", Json::Bool(run.failed_checks.is_empty())),
        (
            "failed_checks",
            Json::Arr(run.failed_checks.iter().map(Json::str).collect()),
        ),
        ("ledger_tip", Json::str(&run.ledger_tip)),
        ("blocks_per_repetition", Json::from(blocks)),
        ("attempted", Json::from(run.attempted)),
        ("failed", Json::from(0u64)),
        ("latency_samples", Json::from(run.latency_samples)),
        ("p99_supported", Json::Bool(run.p99_supported)),
        ("end_to_end", Json::obj(end_to_end)),
        ("per_layer", Json::obj(per_layer)),
        ("trace_file", Json::str(trace_path.display().to_string())),
    ])
}

fn commit_hash() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn parent_main(args: &Args) -> Res<bool> {
    let seed = args.seed.unwrap_or(42);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let out_dir = args
        .trace_out
        .clone()
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("out"));
    let selected: Vec<&Workload> = match &args.workload {
        Some(name) => vec![workload(name).ok_or_else(|| format!("unknown workload '{name}'"))?],
        None => WORKLOADS.iter().collect(),
    };
    let plan_for = |workload| Plan {
        workload,
        seed,
        blocks: if args.smoke {
            SMOKE_BLOCKS
        } else {
            workload.blocks_for(seconds)
        },
        // The traced run of the contract needs one untraced loop to state its overhead.
        repetitions: if args.smoke || args.trace == Some(true) {
            1
        } else {
            REPETITIONS
        },
        traced: args.trace != Some(false),
        out_dir: &out_dir,
    };

    if let Some(traced) = args.trace {
        let [workload] = selected[..] else {
            return Err("--trace needs --workload".into());
        };
        let run = run_workload(&plan_for(workload))?;
        writeln!(std::io::stdout(), "{}", contract_line(&run, traced))?;
        return Ok(run.failed_checks.is_empty());
    }

    let mut all_correct = true;
    let mut entries = Vec::new();
    for workload in selected {
        let plan = plan_for(workload);
        let run = run_workload(&plan)?;
        all_correct &= run.failed_checks.is_empty();
        entries.push((
            workload.name,
            full_entry(workload, &run, plan.blocks, &trace_file(&out_dir, workload)),
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let report = Json::obj([
        ("benchmark", Json::str("perf_report")),
        ("commit", Json::str(commit_hash())),
        ("nproc", Json::from(nproc)),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("block_size", Json::from(BLOCK_SIZE as u64)),
        ("correct", Json::Bool(all_correct)),
        ("workloads", Json::obj(entries)),
    ]);
    writeln!(std::io::stdout(), "{report}")?;
    Ok(all_correct)
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1))
        .map_err(Into::into)
        .and_then(|args| {
            if args.child {
                child_main(&args).map(|()| true)
            } else {
                parent_main(&args)
            }
        });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            progress(&format!("error: {e}"));
            ExitCode::FAILURE
        }
    }
}

//! Offline shim for the subset of `criterion` used by this workspace's
//! benches. It executes every benchmark closure for its group's
//! `measurement_time` (or `BUDGET`) and prints the ns/iter of the fastest
//! sample — a smoke-bench harness, not a statistics engine. `sample_size` is
//! accepted for API parity.
//!
//! The fastest sample, not the mean: on a shared host, preemption and a
//! neighbour's load only ever add time, and they come in phases longer than
//! a fraction of a second. A mean over a fixed 40 ms moved by 20–50 % from
//! run to run of one binary; the fastest sample of two seconds moves by
//! 5–10 % on the store's point-operation passes. A sample of [`Bencher::iter`]
//! is a batch of calls lasting at least `BATCH`, so the clock is read once
//! per batch, not once per call (reading it per call added about 50 ns to
//! every call of a fast body).

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Per-benchmark wall-clock budget (after one warm-up iteration) outside a group that sets its
/// `measurement_time`.
const BUDGET: Duration = Duration::from_millis(400);
/// Shortest sample of [`Bencher::iter`]: calls are batched until one batch takes this long.
const BATCH: Duration = Duration::from_micros(50);

/// Whether `CRITERION_SMOKE` requests single-iteration smoke mode: every benchmark body runs
/// exactly once (after the warm-up), so CI can prove the bench binaries still compile and
/// execute without paying for measurement. Any value other than `0` enables it.
fn smoke_mode() -> bool {
    std::env::var_os("CRITERION_SMOKE").is_some_and(|v| v != "0")
}

/// Top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Accepted for API parity with upstream's generated `criterion_group!`.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("group: {name}");
        BenchmarkGroup {
            _criterion: self,
            name,
            budget: BUDGET,
        }
    }

    /// Runs a single stand-alone benchmark.
    pub fn bench_function<D: fmt::Display, F: FnMut(&mut Bencher)>(
        &mut self,
        id: D,
        f: F,
    ) -> &mut Self {
        run_one(&id.to_string(), BUDGET, f);
        self
    }
}

/// A named group of benchmarks sharing display context and a time budget.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    budget: Duration,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API parity; the shim samples for the whole `measurement_time`.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// How long each benchmark of the group is sampled (after its warm-up).
    pub fn measurement_time(&mut self, budget: Duration) -> &mut Self {
        self.budget = budget;
        self
    }

    /// Runs a benchmark within this group.
    pub fn bench_function<D: fmt::Display, F: FnMut(&mut Bencher)>(
        &mut self,
        id: D,
        f: F,
    ) -> &mut Self {
        run_one(&format!("{}/{}", self.name, id), self.budget, f);
        self
    }

    /// Runs a benchmark parameterised by `input`.
    pub fn bench_with_input<D: fmt::Display, I: ?Sized, F>(
        &mut self,
        id: D,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_one(&format!("{}/{}", self.name, id), self.budget, |b| {
            f(b, input)
        });
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// A function + parameter benchmark identifier, displayed as `name/param`.
pub struct BenchmarkId {
    full: String,
}

impl BenchmarkId {
    /// Identifier combining a function name and a parameter value.
    pub fn new<S: Into<String>, P: fmt::Display>(function_name: S, parameter: P) -> Self {
        BenchmarkId {
            full: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Identifier consisting of the parameter value alone.
    pub fn from_parameter<P: fmt::Display>(parameter: P) -> Self {
        BenchmarkId {
            full: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.full)
    }
}

/// Handed to benchmark closures; [`Bencher::iter`] performs the measurement.
pub struct Bencher {
    /// How long to sample; zero in `CRITERION_SMOKE` mode.
    budget: Duration,
    iters: u64,
    /// Nanoseconds per call in the fastest sample.
    ns: f64,
}

impl Bencher {
    /// Times repeated calls of `routine` for the budget, in batches lasting at least `BATCH`
    /// (or exactly once in `CRITERION_SMOKE` mode).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        black_box(routine()); // warm-up, excluded from timing
        let mut per_batch = 1u64;
        if !self.budget.is_zero() {
            let start = Instant::now();
            while start.elapsed() < BATCH {
                black_box(routine());
                per_batch += 1;
            }
        }
        let start = Instant::now();
        let mut samples = Vec::new();
        loop {
            let begin = Instant::now();
            for _ in 0..per_batch {
                black_box(routine());
            }
            samples.push(begin.elapsed().as_nanos() as f64 / per_batch as f64);
            if start.elapsed() >= self.budget {
                break;
            }
        }
        self.iters = samples.len() as u64 * per_batch;
        self.ns = fastest(samples);
    }
}

fn fastest(samples: Vec<f64>) -> f64 {
    samples.into_iter().fold(f64::INFINITY, f64::min)
}

/// How many inputs [`Bencher::iter_batched`] prepares at a time. Accepted for API parity:
/// the shim always prepares one input per iteration. Only the variant a bench uses is here.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Inputs too large to hold many of.
    LargeInput,
}

impl Bencher {
    /// Times `routine` on a fresh input from `setup` per call: only `routine` is timed, and
    /// both making the input and dropping the output are left out, so a body that would
    /// otherwise grow one long-lived state starts from the same state every iteration.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        drop(black_box(routine(setup()))); // warm-up, excluded from timing
        let start = Instant::now();
        let mut samples = Vec::new();
        loop {
            let input = setup();
            let begin = Instant::now();
            let output = black_box(routine(input));
            samples.push(begin.elapsed().as_nanos() as f64);
            drop(output);
            if start.elapsed() >= self.budget {
                break;
            }
        }
        self.iters = samples.len() as u64;
        self.ns = fastest(samples);
    }
}

fn run_one<F: FnMut(&mut Bencher)>(label: &str, budget: Duration, mut f: F) {
    let mut bencher = Bencher {
        budget: if smoke_mode() { Duration::ZERO } else { budget },
        iters: 0,
        ns: 0.0,
    };
    f(&mut bencher);
    if bencher.iters > 0 {
        println!(
            "  {label}: {:.0} ns/iter ({} iters)",
            bencher.ns, bencher.iters
        );
    } else {
        println!("  {label}: benchmark body never called Bencher::iter");
    }
}

/// Declares a function running the listed benchmarks in order.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` for a bench target (`harness = false`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim");
        group
            .sample_size(10)
            .measurement_time(Duration::from_secs(1));
        group.bench_function("add", |b| b.iter(|| black_box(1u64) + black_box(2u64)));
        group.bench_with_input(BenchmarkId::new("mul", 3u64), &3u64, |b, &x| {
            b.iter(|| black_box(x) * 2)
        });
        group.finish();
    }

    criterion_group!(benches, trivial);

    #[test]
    fn group_runs_to_completion() {
        benches();
    }
}

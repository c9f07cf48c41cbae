//! Offline shim for the subset of `criterion` used by this workspace's
//! benches. It executes every benchmark closure under a small fixed time
//! budget and prints mean ns/iter — a smoke-bench harness, not a statistics
//! engine. `sample_size` / `measurement_time` are accepted for API parity
//! but the budget below keeps `cargo bench` fast regardless.

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Per-benchmark wall-clock budget (after one warm-up iteration).
const BUDGET: Duration = Duration::from_millis(40);
/// Iteration cap per benchmark, for very fast bodies.
const MAX_ITERS: u64 = 1_000;

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
        }
    }

    /// Runs a single stand-alone benchmark.
    pub fn bench_function<D: fmt::Display, F: FnMut(&mut Bencher)>(
        &mut self,
        id: D,
        f: F,
    ) -> &mut Self {
        run_one(&id.to_string(), f);
        self
    }
}

/// A named group of benchmarks sharing display context.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API parity; this shim uses its own fixed budget.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API parity; this shim uses its own fixed budget.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Runs a benchmark within this group.
    pub fn bench_function<D: fmt::Display, F: FnMut(&mut Bencher)>(
        &mut self,
        id: D,
        f: F,
    ) -> &mut Self {
        run_one(&format!("{}/{}", self.name, id), f);
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
        run_one(&format!("{}/{}", self.name, id), |b| f(b, input));
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
    iters: u64,
    mean_ns: f64,
}

impl Bencher {
    /// Times repeated calls of `routine` under the shim's fixed budget (or exactly once in
    /// `CRITERION_SMOKE` mode).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        black_box(routine()); // warm-up, excluded from timing
        let (max_iters, budget) = if smoke_mode() {
            (1, Duration::ZERO)
        } else {
            (MAX_ITERS, BUDGET)
        };
        let start = Instant::now();
        let mut iters = 0u64;
        while iters < max_iters {
            black_box(routine());
            iters += 1;
            if start.elapsed() >= budget {
                break;
            }
        }
        self.iters = iters;
        self.mean_ns = start.elapsed().as_nanos() as f64 / iters as f64;
    }
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
        let (max_iters, budget) = if smoke_mode() {
            (1, Duration::ZERO)
        } else {
            (MAX_ITERS, BUDGET)
        };
        let start = Instant::now();
        let (mut iters, mut timed) = (0u64, Duration::ZERO);
        while iters < max_iters {
            let input = setup();
            let begin = Instant::now();
            let output = black_box(routine(input));
            timed += begin.elapsed();
            drop(output);
            iters += 1;
            if start.elapsed() >= budget {
                break;
            }
        }
        self.iters = iters;
        self.mean_ns = timed.as_nanos() as f64 / iters as f64;
    }
}

fn run_one<F: FnMut(&mut Bencher)>(label: &str, mut f: F) {
    let mut bencher = Bencher {
        iters: 0,
        mean_ns: 0.0,
    };
    f(&mut bencher);
    if bencher.iters > 0 {
        println!(
            "  {label}: {:.0} ns/iter ({} iters)",
            bencher.mean_ns, bencher.iters
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

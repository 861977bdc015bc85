//! In-tree, offline stand-in for the `criterion` benchmark harness.
//!
//! Provides the API surface the workspace's benches use — [`Criterion`],
//! [`BenchmarkGroup`], [`BenchmarkId`], [`Bencher::iter`], [`black_box`],
//! [`criterion_group!`] and [`criterion_main!`] — with the same call-site
//! syntax as criterion 0.5, so swapping in the real crate later is a
//! manifest-only change.
//!
//! The measurement model is deliberately simple: each `iter` target is warmed
//! up, then timed in batches until a fixed wall-clock budget is reached, and
//! the mean ns/iter is printed. There is no statistical analysis, plotting,
//! or result persistence — CI only compiles benches (`cargo bench --no-run`),
//! and local runs just need a stable order-of-magnitude signal.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "timing shim: wall-clock measurement is this crate's entire purpose"
)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Per-target wall-clock measurement budget.
const MEASURE_BUDGET: Duration = Duration::from_millis(200);
/// Warm-up budget before measurement starts.
const WARMUP_BUDGET: Duration = Duration::from_millis(50);

/// Top-level harness handle, passed to every benchmark function.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("group {name}");
        BenchmarkGroup { _criterion: self, name }
    }

    /// Runs a single named benchmark outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        run_target(id, f);
        self
    }
}

/// A named set of benchmarks sharing a prefix (mirrors criterion's groups).
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; this shim's budget-based sampling
    /// ignores the requested sample count.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Runs one benchmark inside the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let id = id.into();
        run_target(&format!("{}/{}", self.name, id), f);
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        run_target(&format!("{}/{}", self.name, id), |b| f(b, input));
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// A benchmark identifier: a function name plus an optional parameter label.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Builds an id like `"name/parameter"`.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId { label: format!("{}/{}", name.into(), parameter) }
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> Self {
        BenchmarkId { label: name.to_owned() }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label)
    }
}

/// Timing driver handed to each benchmark closure.
#[derive(Debug, Default)]
pub struct Bencher {
    total: Duration,
    iters: u64,
}

impl Bencher {
    /// Measures `f` repeatedly; the routine's return value is black-boxed so
    /// the optimizer cannot delete the work.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm up and size the batch so each timed batch is ≫ timer overhead.
        let warm_start = Instant::now();
        let mut batch = 1u64;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = t.elapsed();
            if warm_start.elapsed() >= WARMUP_BUDGET {
                break;
            }
            if elapsed < Duration::from_millis(1) && batch < (1 << 20) {
                batch *= 2;
            }
        }
        // Measure.
        let start = Instant::now();
        while start.elapsed() < MEASURE_BUDGET {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            self.total += t.elapsed();
            self.iters += batch;
        }
    }
}

/// Runs one target and prints its mean time.
fn run_target<F: FnMut(&mut Bencher)>(label: &str, mut f: F) {
    let mut bencher = Bencher::default();
    f(&mut bencher);
    if bencher.iters == 0 {
        println!("  {label}: no iterations recorded");
        return;
    }
    let ns_per_iter = bencher.total.as_nanos() as f64 / bencher.iters as f64;
    println!("  {label}: {ns_per_iter:.1} ns/iter ({} iters)", bencher.iters);
}

/// Declares a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        #[doc = ::core::concat!(
            "Benchmark group `", ::core::stringify!($group),
            "` (generated by `criterion_group!`)."
        )]
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` from one or more [`criterion_group!`] groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

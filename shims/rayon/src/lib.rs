//! In-tree, dependency-free stand-in for the `rayon` crate.
//!
//! The build environment for this repository is offline: nothing may be
//! fetched from crates.io. This shim implements exactly the slice of the
//! `rayon 1.10` API the workspace uses — [`ThreadPoolBuilder`],
//! [`ThreadPool::install`], [`current_num_threads`], and the
//! `slice.par_iter().map(f).collect::<Vec<_>>()` / `.sum()` call-site shape
//! via [`prelude`] — so swapping in the real crate later is a one-line
//! manifest change.
//!
//! # Determinism contract
//!
//! Unlike real rayon, which work-steals, this shim splits the input into
//! **contiguous per-thread chunks** and concatenates the chunk results in
//! chunk order. Two consequences the workspace relies on:
//!
//! * `collect::<Vec<_>>()` preserves input order at **any** thread count —
//!   a parallel map is a permutation-free reordering of the serial map.
//! * [`ParMap::sum`] first collects the mapped values in input order and
//!   then folds them **sequentially left-to-right**, so a floating-point
//!   sum is bit-identical whether the pool has 1 thread or 64. (Real rayon
//!   trades this away for tree reductions; callers here are simulation
//!   code whose tick output must be bit-reproducible across `threads=k`.)
//!
//! Threads are plain `std::thread::scope` workers spawned per call — there
//! is no persistent pool. For the coarse-grained row computations this
//! workspace shards (hundreds of microseconds to milliseconds each), spawn
//! overhead is noise. Nested `par_iter` inside a worker runs serially: the
//! pool's thread-count is a thread-local of the installing thread only.

use std::cell::Cell;
use std::fmt;
use std::num::NonZeroUsize;

thread_local! {
    /// Thread count installed by the innermost [`ThreadPool::install`] on
    /// this thread; `None` means "no pool installed" (use the default).
    static INSTALLED_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn default_num_threads() -> usize {
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Returns the number of threads the current scope's pool would use: the
/// installed pool's count inside [`ThreadPool::install`], otherwise the
/// machine's available parallelism.
pub fn current_num_threads() -> usize {
    INSTALLED_THREADS.get().unwrap_or_else(default_num_threads)
}

/// Error from [`ThreadPoolBuilder::build`]. The shim never actually fails
/// to build; the type exists so call sites match the real crate.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the thread count; `0` (the default) means "available
    /// parallelism".
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool. Infallible in the shim, `Result` for API parity.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads == 0 { default_num_threads() } else { self.num_threads };
        Ok(ThreadPool { threads })
    }
}

/// A logical thread pool: a thread count plus an [`install`] scope.
/// Workers are spawned per parallel call, not kept alive.
///
/// [`install`]: ThreadPool::install
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

/// Restores the previous installed thread count even if `op` panics.
struct InstallGuard {
    prev: Option<usize>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        INSTALLED_THREADS.set(self.prev);
    }
}

impl ThreadPool {
    /// The pool's thread count.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }

    /// Runs `op` with this pool installed: `par_iter` chains evaluated
    /// inside split their work across this pool's thread count. `op` itself
    /// runs on the calling thread.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        let _guard = InstallGuard { prev: INSTALLED_THREADS.replace(Some(self.threads)) };
        op()
    }
}

/// Traits imported by call sites: `use rayon::prelude::*;`.
pub mod prelude {
    pub use crate::IntoParallelRefIterator;
}

/// Entry point mirroring `rayon::iter::IntoParallelRefIterator`: borrows a
/// collection as a parallel iterator over `&T`.
pub trait IntoParallelRefIterator<'data> {
    /// The borrowed element type.
    type Item: Sync + 'data;

    /// Returns the parallel iterator.
    fn par_iter(&'data self) -> ParIter<'data, Self::Item>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = T;

    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { items: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = T;

    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { items: self }
    }
}

/// Parallel iterator over `&T` items of a slice.
#[derive(Debug)]
pub struct ParIter<'data, T> {
    items: &'data [T],
}

impl<'data, T: Sync> ParIter<'data, T> {
    /// Maps each item through `f`; the stage that actually fans out.
    pub fn map<R, F>(self, f: F) -> ParMap<'data, T, F>
    where
        R: Send,
        F: Fn(&'data T) -> R + Sync,
    {
        ParMap { items: self.items, f }
    }
}

/// The mapped stage of a parallel iterator chain; terminal operations
/// ([`collect`], [`sum`]) execute it.
///
/// [`collect`]: ParMap::collect
/// [`sum`]: ParMap::sum
pub struct ParMap<'data, T, F> {
    items: &'data [T],
    f: F,
}

impl<'data, T, R, F> ParMap<'data, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'data T) -> R + Sync,
{
    /// Runs the map across the installed pool and collects results **in
    /// input order** (see the crate docs' determinism contract).
    pub fn collect<C: FromParallelIterator<R>>(self) -> C {
        C::from_ordered_vec(run_ordered(self.items, &self.f))
    }

    /// Runs the map across the installed pool, then folds the results
    /// **sequentially in input order** — bit-identical at any thread count.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<R>,
    {
        run_ordered(self.items, &self.f).into_iter().sum()
    }
}

/// Collection types a parallel map can [`collect`](ParMap::collect) into.
pub trait FromParallelIterator<R> {
    /// Builds the collection from results already in input order.
    fn from_ordered_vec(v: Vec<R>) -> Self;
}

impl<R> FromParallelIterator<R> for Vec<R> {
    fn from_ordered_vec(v: Vec<R>) -> Self {
        v
    }
}

/// Maps `items` through `f` on up to [`current_num_threads`] scoped
/// threads, each taking one contiguous chunk, and returns the results in
/// input order.
fn run_ordered<'data, T, R, F>(items: &'data [T], f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'data T) -> R + Sync,
{
    let len = items.len();
    let threads = current_num_threads().min(len).max(1);
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let chunk = len.div_ceil(threads);
    let mut out = Vec::with_capacity(len);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        let mut chunks = items.chunks(chunk);
        // The first chunk runs on the calling thread after the workers for
        // the remaining chunks are spawned.
        let first = chunks.next().unwrap_or(&[]);
        for rest in chunks {
            handles.push(scope.spawn(move || rest.iter().map(f).collect::<Vec<R>>()));
        }
        out.extend(first.iter().map(f));
        for h in handles {
            // A worker panic propagates to the caller, like real rayon.
            out.extend(h.join().expect("rayon shim worker panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(n).build().expect("build pool")
    }

    #[test]
    fn collect_preserves_input_order_at_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 3, 7, 8, 64, 1000, 1024] {
            let got: Vec<u64> =
                pool(threads).install(|| items.par_iter().map(|&x| x * x).collect::<Vec<_>>());
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn float_sum_is_bit_identical_across_thread_counts() {
        // Values chosen so reassociation would visibly change the sum.
        let items: Vec<f64> = (0..4096).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let serial: f64 = items.iter().map(|&x| x * 1.000000119).sum();
        for threads in [1, 2, 5, 8, 32] {
            let par: f64 =
                pool(threads).install(|| items.par_iter().map(|&x| x * 1.000000119).sum());
            assert_eq!(par.to_bits(), serial.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn install_scopes_thread_count_and_restores_on_exit() {
        let outside = current_num_threads();
        let inside = pool(5).install(|| {
            let five = current_num_threads();
            let three = pool(3).install(current_num_threads);
            (five, three, current_num_threads())
        });
        assert_eq!(inside, (5, 3, 5), "nested installs scope correctly");
        assert_eq!(current_num_threads(), outside, "count restored after install");
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        let p = ThreadPoolBuilder::new().build().expect("default pool");
        assert_eq!(p.current_num_threads(), default_num_threads());
        assert!(p.current_num_threads() >= 1);
    }

    #[test]
    fn empty_and_tiny_inputs_work() {
        let empty: Vec<u32> = Vec::new();
        let got: Vec<u32> = pool(8).install(|| empty.par_iter().map(|&x| x).collect::<Vec<_>>());
        assert!(got.is_empty());
        let one = [41u32];
        let got: Vec<u32> = pool(8).install(|| one.par_iter().map(|&x| x + 1).collect::<Vec<_>>());
        assert_eq!(got, vec![42]);
    }

    #[test]
    fn uninstalled_par_iter_still_runs() {
        // No install() in scope: falls back to the machine default.
        let items: Vec<u32> = (0..100).collect();
        let got: Vec<u32> = items.par_iter().map(|&x| x + 1).collect::<Vec<_>>();
        assert_eq!(got, (1..101).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            pool(4).install(|| {
                items
                    .par_iter()
                    .map(|&x| if x == 63 { panic!("boom") } else { x })
                    .collect::<Vec<_>>()
            })
        });
        assert!(result.is_err(), "panic in a worker chunk must reach the caller");
        // The install guard must have restored the thread-local.
        assert_eq!(INSTALLED_THREADS.get(), None);
    }
}

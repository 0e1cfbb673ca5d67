//! The scoped thread pool: fixed worker count, one shared task queue,
//! and panic propagation.
//!
//! The pool spawns scoped threads per parallel region rather than keeping
//! a resident worker set: scoped threads may borrow from the caller's
//! stack (records, lanes and the model are shared by reference, without
//! `unsafe`), and nested regions — a task that itself calls into the pool
//! — cannot deadlock because every region brings its own workers. The
//! spawn cost (~tens of microseconds) is amortized by parallelising only
//! coarse grains: chunked record batches in `eventhit-core::infer`,
//! lanes, grid cells and sessions — never the inside of a matrix product.
//! A training step is the one fine grain: its row blocks and whole
//! weight-gradient products take ~0.1–0.5 ms each, thousands of times a
//! run, so training keeps its workers resident in a
//! [`Crew`](crate::Crew) instead of spawning them per region.
//!
//! The outer grain wins: a worker thread starts with its ambient count
//! pinned to 1, so a [`Pool::current`] resolved inside a task runs
//! inline instead of multiplying the thread count. An explicit
//! `Pool::new(n)` inside a task still brings its own `n` workers.

use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

thread_local! {
    static WORKER_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

fn env_workers() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("EVENTHIT_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&w| w >= 1)
            .unwrap_or_else(|| {
                thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
                    .min(8)
            })
    })
}

/// The worker count [`Pool::current`] resolves on this thread: the
/// innermost [`with_workers`] override, else `EVENTHIT_WORKERS`, else
/// `available_parallelism()` capped at 8.
pub fn current_workers() -> usize {
    WORKER_OVERRIDE.with(Cell::get).unwrap_or_else(env_workers)
}

/// Runs `f` with this thread's default worker count pinned to `workers`
/// (minimum 1). Every `Pool::current()` resolved inside `f` on this
/// thread — including the implicit pool behind `score_records` — uses
/// that count; inside a task of such a pool the ambient count is 1, so a
/// nested ambient region runs inline on the worker that reached it. The
/// previous override is restored on exit, panic included.
///
/// This is how the thread-count-invariance suite varies the worker count
/// in-process; production code sets `EVENTHIT_WORKERS` instead.
pub fn with_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            WORKER_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = WORKER_OVERRIDE.with(|c| c.replace(Some(workers.max(1))));
    let _restore = Restore(prev);
    f()
}

/// Splits `0..n` into contiguous chunks of at most `chunk` indices, in
/// order. Every index is covered exactly once (property-tested).
pub fn chunk_ranges(n: usize, chunk: usize) -> Vec<Range<usize>> {
    assert!(chunk > 0, "chunk size must be positive");
    (0..n.div_ceil(chunk))
        .map(|c| c * chunk..((c + 1) * chunk).min(n))
        .collect()
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A deterministic scoped thread pool with a fixed worker count.
///
/// Cheap to construct (one word); the threads live only for the duration
/// of each parallel region. See the crate docs for the determinism
/// argument and [`Pool::current`] for worker-count resolution.
///
/// ```
/// use eventhit_parallel::Pool;
///
/// // map() preserves input order no matter which worker computes what.
/// let doubled = Pool::new(4).map(5, |i| i * 2);
/// assert_eq!(doubled, vec![0, 2, 4, 6, 8]);
/// assert_eq!(doubled, Pool::sequential().map(5, |i| i * 2));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool with exactly `workers` workers (minimum 1).
    pub fn new(workers: usize) -> Self {
        Pool {
            workers: workers.max(1),
        }
    }

    /// The single-worker pool: every task runs inline on the calling
    /// thread, in submission order.
    pub fn sequential() -> Self {
        Pool::new(1)
    }

    /// The pool for the calling thread's resolved worker count
    /// ([`current_workers`]).
    pub fn current() -> Self {
        Pool::new(current_workers())
    }

    /// Number of workers this pool runs.
    pub fn workers(&self) -> usize {
        self.workers.max(1)
    }

    /// The core primitive: runs `run(index, task)` exactly once for every
    /// task, on up to `workers` scoped threads.
    ///
    /// Tasks wait in one shared queue; an idle worker takes the next
    /// unstarted task in submission order, so uneven task durations
    /// rebalance and no task waits behind a busy worker. If a task
    /// panics, the first panic payload is captured, remaining *unstarted*
    /// tasks are abandoned, in-flight tasks finish, all workers join, and
    /// the panic resumes exactly once on the caller.
    ///
    /// Determinism: `index` is the task's submission position. The pool
    /// guarantees each task runs at most once and (absent panics) exactly
    /// once; it makes no ordering guarantee between tasks, which is why
    /// callers merge results through
    /// [`DeterministicReduce`](crate::DeterministicReduce) keyed on
    /// `index`.
    pub fn run_tasks<I: Send>(&self, tasks: Vec<I>, run: impl Fn(usize, I) + Sync) {
        let n = tasks.len();
        if n == 0 {
            return;
        }
        let workers = self.workers().min(n);
        if workers <= 1 {
            for (i, task) in tasks.into_iter().enumerate() {
                run(i, task);
            }
            return;
        }

        let queue = Mutex::new(tasks.into_iter().enumerate());
        let queue = &queue;
        let run = &run;
        let poisoned = AtomicBool::new(false);
        let poisoned = &poisoned;
        let panic_slot: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let panic_slot = &panic_slot;

        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(move || {
                    // The outer grain wins: an ambient pool resolved
                    // inside a task runs inline on this worker.
                    WORKER_OVERRIDE.with(|c| c.set(Some(1)));
                    while !poisoned.load(Ordering::Acquire) {
                        // The guard is a temporary of this statement: the
                        // queue is unlocked before the task runs.
                        let Some((idx, task)) = lock(queue).next() else {
                            break;
                        };
                        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(idx, task))) {
                            let mut slot = lock(panic_slot);
                            if slot.is_none() {
                                *slot = Some(payload);
                            }
                            poisoned.store(true, Ordering::Release);
                            break;
                        }
                    }
                });
            }
        });

        let payload = lock(panic_slot).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// The chunk size [`Pool::map`] uses for `n` items: ~4 chunks per
    /// worker, so the queue can rebalance uneven durations without
    /// drowning in per-chunk overhead.
    pub fn default_chunk(&self, n: usize) -> usize {
        if self.workers() <= 1 {
            n.max(1)
        } else {
            n.div_ceil(self.workers() * 4).max(1)
        }
    }

    /// Computes `f(i)` for every `i in 0..n` and returns the results in
    /// index order — bit-identical for any worker count when `f` is pure
    /// per index.
    pub fn map<T: Send, F: Fn(usize) -> T + Sync>(&self, n: usize, f: F) -> Vec<T> {
        self.map_chunked(n, self.default_chunk(n), f)
    }

    /// [`Pool::map`] with an explicit chunk size (one task per chunk of
    /// indices). The chunking never affects the output, only scheduling
    /// granularity (property-tested).
    pub fn map_chunked<T: Send, F: Fn(usize) -> T + Sync>(
        &self,
        n: usize,
        chunk: usize,
        f: F,
    ) -> Vec<T> {
        let ranges = chunk_ranges(n, chunk);
        let reduce = crate::DeterministicReduce::with_capacity(ranges.len());
        self.run_tasks(ranges, |ci, range| {
            reduce.submit(ci, range.map(&f).collect::<Vec<T>>());
        });
        let mut out = Vec::with_capacity(n);
        for part in reduce.into_ordered() {
            out.extend(part);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_returns_results_in_index_order() {
        for workers in [1, 2, 4, 8] {
            let pool = Pool::new(workers);
            let got = pool.map(100, |i| i * i);
            let want: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        let pool = Pool::new(4);
        assert_eq!(pool.map(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn run_tasks_executes_each_task_exactly_once() {
        let n = 257;
        let counts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let pool = Pool::new(4);
        pool.run_tasks((0..n).collect(), |idx, task| {
            assert_eq!(idx, task);
            counts[task].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn chunk_ranges_partition() {
        assert_eq!(chunk_ranges(0, 3), Vec::<Range<usize>>::new());
        assert_eq!(chunk_ranges(7, 3), vec![0..3, 3..6, 6..7]);
        assert_eq!(chunk_ranges(6, 3), vec![0..3, 3..6]);
        assert_eq!(chunk_ranges(2, 10), vec![0..2]);
    }

    #[test]
    fn with_workers_overrides_and_restores() {
        let outer = current_workers();
        let inner = with_workers(3, || {
            assert_eq!(current_workers(), 3);
            with_workers(5, current_workers)
        });
        assert_eq!(inner, 5);
        assert_eq!(current_workers(), outer);
    }

    #[test]
    fn ambient_pool_inside_a_task_runs_inline() {
        let nested = with_workers(4, || {
            let pool = Pool::current();
            assert_eq!(pool.workers(), 4);
            pool.map_chunked(8, 1, |_| Pool::current().workers())
        });
        assert_eq!(nested, vec![1; 8]);
    }

    #[test]
    fn with_workers_restores_on_panic() {
        let outer = current_workers();
        let result = catch_unwind(|| with_workers(6, || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(current_workers(), outer);
    }
}

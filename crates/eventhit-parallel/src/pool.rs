//! The pool: a worker count, its resolution, and the one-shot region.
//!
//! A [`Pool`] holds no threads. Every region runs on a
//! [`Crew`](crate::Crew): [`Pool::crew`] keeps `workers - 1` threads
//! resident for a closure of many short regions (a training run's
//! steps), and [`Pool::run`] is one crew with one run (a scoring batch,
//! a lane group, a grid cell, a served session). Either way the caller
//! works as one of the workers and the threads are scoped, so jobs may
//! borrow from the caller's stack (records, lanes and the model are
//! shared by reference, without `unsafe`), and a job that itself opens
//! an explicit pool's region cannot deadlock: that region brings its own
//! workers.
//!
//! The outer grain wins: a job runs with its thread's ambient count
//! pinned to 1, so a [`Pool::current`] resolved inside it runs inline
//! instead of multiplying the thread count. An explicit `Pool::new(n)`
//! inside a job still brings its own `n` workers.

use std::cell::Cell;
use std::sync::OnceLock;
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
/// that count; inside a job of such a pool the ambient count is 1, so a
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

/// A deterministic thread pool with a fixed worker count.
///
/// Cheap to construct (one word); threads live only as long as a region.
/// See the crate docs for the determinism argument and
/// [`Pool::current`] for worker-count resolution.
///
/// ```
/// use eventhit_parallel::Pool;
///
/// // run() returns outputs in job order no matter which thread ran what.
/// let doubled = Pool::new(4).run((0..5).collect(), |i: usize| i * 2);
/// assert_eq!(doubled, vec![0, 2, 4, 6, 8]);
/// assert_eq!(doubled, Pool::sequential().run((0..5).collect(), |i: usize| i * 2));
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

    /// The single-worker pool: every job runs inline on the calling
    /// thread, in order.
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

    /// Calls `job` once on each of `jobs` and returns the outputs in job
    /// order, on a one-shot [`Crew`](crate::Crew) of `min(workers, jobs)`
    /// threads, the caller one of them. One job or one worker spawns
    /// nothing and runs inline, in order. An idle thread takes the next
    /// unstarted job, so uneven jobs rebalance and none waits behind a
    /// busy thread.
    ///
    /// If a job panics, the jobs not yet started are dropped, the running
    /// ones finish, and the first panic resumes once on the caller.
    pub fn run<J: Send, O: Send>(&self, jobs: Vec<J>, job: impl Fn(J) -> O + Sync) -> Vec<O> {
        Pool::new(self.workers().min(jobs.len())).crew(job, |crew| crew.run(jobs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn run_executes_each_job_exactly_once() {
        let n = 257;
        let counts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let out = Pool::new(4).run((0..n).collect(), |job: usize| {
            counts[job].fetch_add(1, Ordering::Relaxed);
            job
        });
        assert_eq!(out, (0..n).collect::<Vec<_>>());
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
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
            pool.run(vec![(); 8], |()| Pool::current().workers())
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

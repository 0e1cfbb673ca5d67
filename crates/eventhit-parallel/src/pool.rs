//! The scoped thread pool: fixed worker count, chunked work-stealing
//! deques, panic propagation, and optional telemetry.
//!
//! The pool spawns scoped threads per parallel region rather than keeping
//! a resident worker set: scoped threads may borrow from the caller's
//! stack (records, lanes and the model are shared by reference, without
//! `unsafe`), and nested regions — a task that itself calls into the pool
//! — cannot deadlock because every region brings its own workers. The
//! spawn cost (~tens of microseconds) is amortized by parallelising only
//! coarse grains: chunked record batches in `eventhit-core::infer`,
//! lanes, grid cells and sessions — never the inside of a matrix product.
//!
//! The outer grain wins: a worker thread starts with its ambient count
//! pinned to 1, so a [`Pool::current`] resolved inside a task runs
//! inline instead of multiplying the thread count. An explicit
//! `Pool::new(n)` inside a task still brings its own `n` workers.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

use eventhit_telemetry::Telemetry;

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

/// Wall-clock trace of one worker, replayed into telemetry after the
/// region joins (worker threads cannot share the recorder's scoped span
/// stack, so spans are recorded post-hoc, worker by worker, in index
/// order).
#[derive(Default)]
struct WorkerLog {
    start: f64,
    end: f64,
    tasks: Vec<(f64, f64)>,
}

/// A deterministic scoped thread pool with a fixed worker count.
///
/// Cheap to construct (two words); the threads live only for the duration
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
    telemetry: Option<Arc<Telemetry>>,
}

impl Pool {
    /// A pool with exactly `workers` workers (minimum 1).
    pub fn new(workers: usize) -> Self {
        Pool {
            workers: workers.max(1),
            telemetry: None,
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

    /// Attaches a telemetry recorder for pool diagnostics: a
    /// `pool.run` → `pool.worker` → `pool.task` span forest per region, a
    /// `pool.queue_depth` gauge, and `pool.tasks` / `pool.steals`
    /// counters.
    ///
    /// Pool diagnostics are **wall-clock scheduling facts** (which worker
    /// ran which task, when), so they are *not* invariant across worker
    /// counts or replays. Keep this recorder separate from the
    /// pipeline's fingerprinted recorder; the instrumented hot paths
    /// never attach one to their internal pools.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// Builder form of [`Pool::set_telemetry`].
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.set_telemetry(telemetry);
        self
    }

    /// The core primitive: runs `run(index, task)` exactly once for every
    /// task, on up to `workers` scoped threads.
    ///
    /// Tasks are dealt into per-worker deques in contiguous submission
    /// blocks; a worker pops its own deque from the front and steals from
    /// other deques' backs when empty, so uneven task durations
    /// rebalance. If a task panics, the first panic payload is captured,
    /// remaining *unstarted* tasks are abandoned, in-flight tasks finish,
    /// all workers join, and the panic resumes exactly once on the
    /// caller.
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

        let mut queues: Vec<Mutex<VecDeque<(usize, I)>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, task) in tasks.into_iter().enumerate() {
            // Contiguous blocks: worker w starts on tasks [w*n/W, (w+1)*n/W).
            let w = i * workers / n;
            queues[w]
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .push_back((i, task));
        }

        let queues = &queues;
        let run = &run;
        let pending = AtomicUsize::new(n);
        let pending = &pending;
        let steals = AtomicUsize::new(0);
        let steals = &steals;
        let poisoned = AtomicBool::new(false);
        let poisoned = &poisoned;
        let panic_slot: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let panic_slot = &panic_slot;
        let tel = self.telemetry.as_deref();
        let t0 = tel.map(Telemetry::now);
        let logs: Vec<Mutex<WorkerLog>> = (0..workers).map(|_| Mutex::default()).collect();
        let logs = &logs;

        thread::scope(|scope| {
            for (w, worker_log) in logs.iter().enumerate() {
                scope.spawn(move || {
                    // The outer grain wins: an ambient pool resolved
                    // inside a task runs inline on this worker.
                    WORKER_OVERRIDE.with(|c| c.set(Some(1)));
                    let mut log = WorkerLog {
                        start: tel.map_or(0.0, Telemetry::now),
                        ..WorkerLog::default()
                    };
                    while !poisoned.load(Ordering::Acquire) {
                        let Some((idx, task)) = pop_task(queues, w, steals) else {
                            break;
                        };
                        let task_start = tel.map(Telemetry::now);
                        let outcome = catch_unwind(AssertUnwindSafe(|| run(idx, task)));
                        let remaining = pending.fetch_sub(1, Ordering::AcqRel) - 1;
                        if let (Some(t), Some(s)) = (tel, task_start) {
                            log.tasks.push((s, t.now()));
                            t.gauge_set("pool.queue_depth", remaining as f64);
                        }
                        if let Err(payload) = outcome {
                            let mut slot = lock(panic_slot);
                            if slot.is_none() {
                                *slot = Some(payload);
                            }
                            poisoned.store(true, Ordering::Release);
                            break;
                        }
                    }
                    if let Some(t) = tel {
                        log.end = t.now();
                        *lock(worker_log) = log;
                    }
                });
            }
        });

        if let Some(t) = tel {
            let run_id = t.record_closed_span("pool.run", t0.unwrap_or(0.0), t.now(), None);
            t.add("pool.tasks", (n - pending.load(Ordering::Acquire)) as u64);
            t.add("pool.steals", steals.load(Ordering::Acquire) as u64);
            t.gauge_set("pool.workers", workers as f64);
            for log in logs {
                let log = lock(log);
                let worker_id = t.record_closed_span("pool.worker", log.start, log.end, run_id);
                for &(s, e) in &log.tasks {
                    t.record_closed_span("pool.task", s, e, worker_id);
                }
            }
        }

        let payload = lock(panic_slot).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// The chunk size [`Pool::map`] uses for `n` items: ~4 chunks per
    /// worker, so stealing can rebalance uneven durations without
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

/// Pops the next task for worker `w`: own deque front first, then steal
/// from the back of the other deques in ring order.
fn pop_task<I>(
    queues: &[Mutex<VecDeque<(usize, I)>>],
    w: usize,
    steals: &AtomicUsize,
) -> Option<(usize, I)> {
    if let Some(task) = lock(&queues[w]).pop_front() {
        return Some(task);
    }
    for offset in 1..queues.len() {
        let victim = (w + offset) % queues.len();
        if let Some(task) = lock(&queues[victim]).pop_back() {
            steals.fetch_add(1, Ordering::Relaxed);
            return Some(task);
        }
    }
    None
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

    #[test]
    fn telemetry_records_worker_span_forest_and_counters() {
        let tel = Arc::new(Telemetry::new());
        let pool = Pool::new(3).with_telemetry(Arc::clone(&tel));
        pool.run_tasks((0..24).collect::<Vec<usize>>(), |_, v| {
            std::hint::black_box(v);
        });
        let snap = tel.snapshot();
        assert_eq!(snap.counter("pool.tasks"), Some(24));
        assert_eq!(snap.gauge("pool.workers").unwrap().last, 3.0);
        assert!(snap.gauge("pool.queue_depth").is_some());
        let runs = snap.spans.iter().filter(|s| s.name == "pool.run").count();
        let workers = snap
            .spans
            .iter()
            .filter(|s| s.name == "pool.worker")
            .count();
        let tasks = snap.spans.iter().filter(|s| s.name == "pool.task").count();
        assert_eq!(runs, 1);
        assert_eq!(workers, 3);
        assert_eq!(tasks, 24);
        // Every pool.task span parents to a pool.worker span, which
        // parents to the pool.run span.
        let run_id = snap.spans.iter().find(|s| s.name == "pool.run").unwrap().id;
        for s in snap.spans.iter().filter(|s| s.name == "pool.worker") {
            assert_eq!(s.parent, Some(run_id));
        }
    }
}

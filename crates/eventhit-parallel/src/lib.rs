//! # eventhit-parallel
//!
//! A std-only deterministic parallel execution layer for the EventHit
//! workspace: a scoped thread pool with a fixed worker count, one shared
//! task queue, and panic propagation — plus the
//! [`DeterministicReduce`] combinator that folds partial results in
//! submission order, so every parallel region produces **bit-identical
//! output for any worker count, including 1**.
//!
//! ## The determinism argument
//!
//! Parallelism in this workspace is only ever applied to computations of
//! the shape *independent tasks → ordered merge*:
//!
//! 1. Each task `i` is a pure function of inputs that no other task
//!    mutates (a batch of inference windows, a grid cell with its own
//!    RNG substream, one stream lane, one served session, a training
//!    step's block of rows or run of whole weight-gradient products).
//! 2. Within a task, the floating-point operation order is exactly the
//!    order the sequential code uses for the same indices.
//! 3. Partial results are folded by [`DeterministicReduce`] in task
//!    *submission* order, never completion order.
//!
//! (1) and (2) make each partial result bit-identical to its sequential
//! counterpart; (3) makes the merge independent of scheduling. The worker
//! count therefore only decides *where* a task runs, never *what* it
//! computes — which is what `tests/parallel_determinism.rs` at the
//! workspace root asserts end to end (loss curves, conformal quantiles,
//! marshalling decisions, and telemetry fingerprints across worker counts
//! {1, 2, 4, 8}).
//!
//! A [`Crew`] ([`Pool::crew`]) keeps a pool's workers resident across
//! many short regions — a training run's steps — and holds to the same
//! three properties: its jobs are values moved in, and each run returns
//! their outputs in job order.
//!
//! ## Worker-count resolution
//!
//! [`Pool::current`] resolves, in order: the calling thread's
//! [`with_workers`] override → the `EVENTHIT_WORKERS` environment
//! variable → `available_parallelism()` capped at 8. A pool with one
//! worker runs every task inline on the calling thread — the sequential
//! baseline is the exact same code path. On a pool worker thread the
//! ambient count is 1: the outer grain wins, and a nested ambient region
//! runs inline rather than multiplying the thread count.
//!
//! ## Example
//!
//! A parallel map whose output is the same `Vec` at any worker count:
//!
//! ```
//! use eventhit_parallel::{DeterministicReduce, Pool};
//!
//! let inputs: Vec<u64> = (0..100).collect();
//! let square_sum = |pool: &Pool| {
//!     let chunks: Vec<&[u64]> = inputs.chunks(7).collect();
//!     let reduce = DeterministicReduce::with_capacity(chunks.len());
//!     pool.run_tasks(chunks, |i, chunk| {
//!         reduce.submit(i, chunk.iter().map(|&x| x * x).sum::<u64>());
//!     });
//!     reduce.into_ordered()
//! };
//! assert_eq!(square_sum(&Pool::new(1)), square_sum(&Pool::new(4)));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod crew;
pub mod pool;
pub mod reduce;

pub use crew::Crew;
pub use pool::{chunk_ranges, current_workers, with_workers, Pool};
pub use reduce::DeterministicReduce;

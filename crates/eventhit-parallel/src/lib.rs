//! # eventhit-parallel
//!
//! A std-only deterministic parallel execution layer for the EventHit
//! workspace: a thread pool with a fixed worker count whose every region
//! runs on a [`Crew`] — scoped workers beside the caller, one shared job
//! queue, panic propagation, outputs in job order — so every parallel
//! region produces **bit-identical output for any worker count,
//! including 1**.
//!
//! ## The determinism argument
//!
//! Parallelism in this workspace is only ever applied to computations of
//! the shape *independent jobs → ordered merge*:
//!
//! 1. Each job `i` is a pure function of inputs that no other job
//!    mutates (a batch of inference windows, a grid cell with its own
//!    RNG substream, one stream lane, one served session, a training
//!    step's block of rows or run of whole weight-gradient products).
//! 2. Within a job, the floating-point operation order is exactly the
//!    order the sequential code uses for the same indices.
//! 3. Outputs come back in job order ([`Pool::run`], [`Crew::run`]),
//!    never completion order, and callers fold them in that order.
//!
//! (1) and (2) make each partial result bit-identical to its sequential
//! counterpart; (3) makes the merge independent of scheduling. The worker
//! count therefore only decides *where* a job runs, never *what* it
//! computes — which is what `tests/parallel_determinism.rs` at the
//! workspace root asserts end to end (loss curves, conformal quantiles,
//! marshalling decisions, and telemetry fingerprints across worker counts
//! {1, 2, 4, 8}).
//!
//! [`Pool::run`] is the one-shot region: one crew, one run. A crew of
//! its own ([`Pool::crew`]) keeps the workers resident across many short
//! regions — a training run's steps — under the same three properties.
//!
//! ## Worker-count resolution
//!
//! [`Pool::current`] resolves, in order: the calling thread's
//! [`with_workers`] override → the `EVENTHIT_WORKERS` environment
//! variable → `available_parallelism()` capped at 8. A pool with one
//! worker runs every job inline on the calling thread — the sequential
//! baseline is the exact same code path. Inside a job the ambient count
//! is 1: the outer grain wins, and a nested ambient region runs inline
//! rather than multiplying the thread count.
//!
//! ## Example
//!
//! Per-chunk partial sums that are the same `Vec` at any worker count:
//!
//! ```
//! use eventhit_parallel::Pool;
//!
//! let inputs: Vec<u64> = (0..100).collect();
//! let square_sums = |pool: &Pool| {
//!     let chunks: Vec<&[u64]> = inputs.chunks(7).collect();
//!     pool.run(chunks, |chunk| chunk.iter().map(|&x| x * x).sum::<u64>())
//! };
//! assert_eq!(square_sums(&Pool::new(1)), square_sums(&Pool::new(4)));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod crew;
pub mod pool;

pub use crew::Crew;
pub use pool::{current_workers, with_workers, Pool};

//! # EventHit — Marshalling Model Inference in Video Streams
//!
//! A from-scratch Rust reproduction of the ICDE 2023 paper: a lightweight
//! local predictor (shared LSTM encoder + per-event heads) that decides
//! which video segments are worth sending to a per-frame-priced cloud
//! inference service, with conformal-prediction knobs (`c`, `α`) that
//! trade spillage for probabilistic recall guarantees.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`nn`] — neural substrate (matrices, Dense/LSTM/GRU with hand-written
//!   backprop, dropout, losses, the Adam optimizer).
//! * [`video`] — synthetic streams matching the paper's Table I, simulated
//!   detector features, records/splits, online frame buffers.
//! * [`conformal`] — C-CLASSIFY / C-REGRESS machinery plus Mondrian
//!   (category-conditional) classification.
//! * [`survival`] — Cox proportional hazards with the Breslow baseline.
//! * [`core`] — the EventHit model, training, strategies, metrics, tasks,
//!   CI cost/queue simulators, marshalling, drift detection.
//! * [`baselines`] — VQS, APP-VAE-style point process, COX adapter.
//! * [`telemetry`] — deterministic spans, counters/gauges/histograms,
//!   JSONL traces, and run dashboards.
//! * [`parallel`] — a thread pool whose regions run on crews of scoped
//!   workers and return outputs in job order; every parallel path in the workspace is bit-identical for any worker
//!   count (set `EVENTHIT_WORKERS`, or `with_workers` in-process).
//! * [`serve`] — the stream-serving frontend: a versioned binary wire
//!   protocol, a TCP server with admission control and bounded queues, and
//!   the matching client library (`docs/PROTOCOL.md` for the wire spec).
//! * [`durable`] — crash-safe serving state: an append-only checksummed
//!   session log, periodic snapshots, and bit-identical replay so a
//!   killed server resumes exactly where it stopped (DESIGN.md §14).
//!
//! ## End to end in six lines
//!
//! ```no_run
//! use eventhit::core::experiment::{ExperimentConfig, TaskRun};
//! use eventhit::core::pipeline::Strategy;
//! use eventhit::core::tasks::task;
//!
//! let run = TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::default());
//! let outcome = run.evaluate(&Strategy::Ehcr { c: 0.95, alpha: 0.9 });
//! println!("REC={:.3} SPL={:.3}", outcome.rec, outcome.spl);
//! ```
//!
//! A fast (seconds-scale) variant of the same flow, exercised as a doctest:
//!
//! ```
//! use eventhit::core::experiment::{ExperimentConfig, TaskRun};
//! use eventhit::core::pipeline::Strategy;
//! use eventhit::core::tasks::task;
//!
//! let cfg = ExperimentConfig {
//!     scale: 0.05,
//!     train: eventhit::core::train::TrainConfig { epochs: 1, ..Default::default() },
//!     ..ExperimentConfig::quick(1)
//! };
//! let run = TaskRun::execute(&task("TA10").unwrap(), &cfg);
//! let outcome = run.evaluate(&Strategy::Eho { tau1: 0.5 });
//! assert!(outcome.spl <= 1.0);
//! ```

#![forbid(unsafe_code)]

pub use eventhit_baselines as baselines;
pub use eventhit_conformal as conformal;
pub use eventhit_core as core;
pub use eventhit_durable as durable;
pub use eventhit_nn as nn;
pub use eventhit_parallel as parallel;
pub use eventhit_serve as serve;
pub use eventhit_survival as survival;
pub use eventhit_telemetry as telemetry;
pub use eventhit_video as video;

/// Commonly used items, for `use eventhit::prelude::*`.
pub mod prelude {
    pub use eventhit_conformal::{ConformalClassifier, IntervalCalibration, Nonconformity};
    pub use eventhit_core::{
        all_tasks, task, CiConfig, EvalOutcome, EventHit, EventHitConfig, ExperimentConfig,
        IntervalPrediction, ScoredRecord, Strategy, Task, TaskRun,
    };
    pub use eventhit_video::{
        Dataset, DatasetProfile, EventClass, EventLabel, Record, SplitSpec, VideoStream,
    };
}

//! # eventhit-core
//!
//! The EventHit system (ICDE 2023, "Marshalling Model Inference in Video
//! Streams"): the shared-LSTM / per-event-head network of §III, end-to-end
//! training with the paper's `L1 + L2` losses, the EHO / EHC / EHR / EHCR
//! decision strategies (§VI.B) built on conformal calibration, the §VI.C
//! evaluation measures (`REC`, `SPL`, `REC_c`, `REC_r`, `FPS`), the Table II
//! task definitions, a cloud-inference cost simulator, and the online
//! marshaller of Fig. 1.
//!
//! The typical flow mirrors [`experiment::TaskRun::execute`]:
//!
//! 1. generate a stream and features ([`eventhit_video`]),
//! 2. train [`model::EventHit`] with [`train::train`],
//! 3. score calibration and test splits with [`infer::score_records`],
//! 4. fit [`pipeline::ConformalState`],
//! 5. evaluate any [`pipeline::Strategy`] with [`metrics::evaluate`], or
//!    deploy online with [`marshal::Marshaller`].

#![deny(missing_docs)]

pub mod capacity;
pub mod ci;
pub mod ci_queue;
pub mod codec;
pub mod drift;
pub mod error;
pub mod experiment;
pub mod faults;
pub mod infer;
pub mod marshal;
pub mod metrics;
pub mod model;
pub mod model_io;
pub mod multi;
pub mod pipeline;
pub mod report;
pub mod resilient;
pub mod sampling;
pub mod streaming;
pub mod tasks;
pub mod train;
pub mod tune;

pub use ci::{CiConfig, CostReport};
pub use error::{CoreError, CoreResult};
pub use experiment::{ExperimentConfig, TaskRun};
pub use faults::{FaultConfig, FaultInjector, FaultKind, FaultTrace};
pub use infer::{EventScores, IntervalPrediction, ScoredRecord};
pub use metrics::{evaluate, try_evaluate, EvalOutcome};
pub use model::{EventHit, EventHitConfig, InferencePlan, InferenceScratch};
pub use pipeline::{ConformalState, Strategy};
pub use report::TelemetrySnapshot;
pub use resilient::{
    BreakerConfig, BreakerState, CircuitBreaker, DegradationMode, DegradationTag, ResilienceConfig,
    ResilienceStats, ResilientCiClient, RetryPolicy, SubmissionOutcome,
};
pub use sampling::{GateParams, SamplingPolicy, WindowParams};
pub use tasks::{all_tasks, task, DatasetKind, Task};
pub use train::{train, TrainConfig, TrainReport};

pub use eventhit_telemetry::Telemetry;

pub use eventhit_nn::quant::InferenceLane;

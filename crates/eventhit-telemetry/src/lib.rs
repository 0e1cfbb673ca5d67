//! # eventhit-telemetry
//!
//! Deterministic, std-only observability substrate for the EventHit
//! workspace: a metric registry (counters, gauges, log-bucketed
//! histograms), lightweight nested spans recorded into an in-memory trace
//! buffer, JSONL export, and an FNV-1a fingerprint so determinism tests
//! can assert bit-identical telemetry across seed replays.
//!
//! Two clocks are supported, mirroring the workspace's two notions of
//! time:
//!
//! * **wall clock** — real elapsed seconds since the [`Telemetry`] value
//!   was created; the right choice for profiling real work (training
//!   steps, decision latency).
//! * **manual (sim) clock** — the discrete-event simulated seconds used
//!   by `ci_queue`. Instrumented simulators call
//!   [`Telemetry::set_time`] as their event clock advances, so spans and
//!   gauge samples line up with the simulation timeline and the whole
//!   telemetry stream is a pure function of the inputs (bit-reproducible).
//!
//! Every recording call is a no-op on a disabled recorder
//! ([`Telemetry::disabled`]), so instrumented hot paths can stay
//! instrumented in production builds; the bench suite measures the
//! residual overhead.
//!
//! ```
//! use eventhit_telemetry::Telemetry;
//!
//! let tel = Telemetry::with_manual_clock();
//! {
//!     let _run = tel.span("demo.run");
//!     tel.set_time(1.5);
//!     tel.add("demo.items", 3);
//!     tel.observe("demo.latency_seconds", 0.25);
//! }
//! let snap = tel.snapshot();
//! assert_eq!(snap.counter("demo.items"), Some(3));
//! assert_eq!(snap.fingerprint(), tel.snapshot().fingerprint());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod hist;
pub mod percentile;
pub mod registry;
pub mod report;
pub mod slo;
pub mod slowlog;
pub mod window;

pub use clock::ClockKind;
pub use hist::LogHistogram;
pub use percentile::{percentile, percentiles};
pub use registry::{SpanGuard, SpanRecord, Telemetry};
pub use report::{fnv1a, TelemetrySnapshot};
pub use slo::SloStat;
pub use slowlog::{SlowDecision, SlowLog, SLOW_LOG_CAP};
pub use window::{WindowStat, WindowedSeries, DEFAULT_WINDOW_SECS, MAX_WINDOWS};

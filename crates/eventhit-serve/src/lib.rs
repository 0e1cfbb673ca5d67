//! EventHit's stream-serving frontend: the system boundary where external
//! clients feed frames in and get marshalling decisions out.
//!
//! The in-process pipeline marshals streams it already owns; deployment
//! needs a *serving* boundary — admission, bounded batches, explicit
//! backpressure, a versioned wire format — because that boundary is where
//! filter-before-cloud systems win or lose their cost advantage. This
//! crate provides it with nothing beyond `std::net` and the workspace's
//! own crates:
//!
//! - [`protocol`] — the length-prefixed, versioned binary wire format and
//!   its pure codec. Deterministic byte-for-byte; `f32` features and
//!   scores cross the wire bit-exactly.
//! - [`admission`] — the per-shard stream caps behind the
//!   reject-with-retry-after backpressure policy, plus the cross-shard
//!   aggregate totals.
//! - [`router`] — the deterministic stream → shard router (jump
//!   consistent hashing over mixed stream ids) that makes scale-out
//!   partitioning invisible on the wire.
//! - [`server`] — the TCP frontend: sessions multiplexed onto an
//!   `eventhit-parallel` [`Pool`](eventhit_parallel::Pool), one request
//!   loop and one submit path for plain and durable serving alike, one
//!   `OnlinePredictor` lane per admitted stream, stream ownership
//!   partitioned across shards, optional resilient-CI wiring so
//!   degradation tags reach clients, `serve.*` telemetry.
//! - [`fleet`] — the deterministic synthetic-fleet load harness behind
//!   `eventhit-cli bench-fleet`: thousands of seeded streams, uniform or
//!   bursty arrivals, admission rejects and retry waits tallied.
//! - [`client`] — the matching blocking client library used by the CLI's
//!   `bench-client` and the loopback tests; its typed [`Disconnected`]
//!   error tells callers a dead server apart from a protocol violation.
//! - [`convert`] — lossless mapping between core decisions and their wire
//!   images.
//! - [`testkit`] — an in-memory duplex pipe: `Server::serve_on` and
//!   `ServeClient::over` take any `Read + Write`, so a session can be
//!   driven — cut at any byte — without a socket.
//!
//! Decisions served over the wire are bit-identical to the in-process
//! `run_lanes` path for the same model, state, and frames, at any worker
//! count — see the determinism notes on [`server`] and the loopback soak
//! test in the workspace's `tests/serve.rs`.
//!
//! With [`ServeConfig::durable`](server::ServeConfig) set, the server
//! event-sources every session through `eventhit-durable`: each admitted
//! stream, accepted batch, and emitted decision is committed to an
//! append-only log before the reply is written, snapshots bound replay
//! time, and a restarted server recovers bit-identical lane state so
//! clients can reconnect and `Resume` where they left off (protocol
//! minor 1). The durability model is specified in `docs/DESIGN.md`.
//!
//! With [`ServeConfig::sampling`](server::ServeConfig) set to a
//! non-`Fixed` policy, every admitted stream runs behind the
//! content-adaptive gate from `eventhit-core`'s `sampling` module:
//! low-motion frames are acknowledged and counted
//! (`stream.frames_skipped`) but not encoded, the collection window
//! adapts to recent event density (`stream.window_len`), and decisions
//! stay bit-identical across worker counts. Non-`Fixed` policies are
//! rejected in combination with `durable` — gate state is not captured
//! by snapshots. The model is specified in `docs/SAMPLING.md`.
//!
//! Protocol minor 2 adds the observability plane: `SubmitTraced` carries
//! a client-assigned trace id that is echoed on `TracedDecisions` and
//! attached to stage histograms as exemplars, and `MetricsQuery` /
//! `MetricsReply` expose the server's windowed time-series, counters,
//! and SLO burn state live over the wire (the `eventhit-cli top`
//! dashboard polls it).
//!
//! The wire format is specified in `docs/PROTOCOL.md`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod client;
pub mod convert;
pub mod fleet;
pub mod protocol;
pub mod router;
pub mod server;
pub mod testkit;

pub use admission::{ServeTotals, SlotGuard};
pub use client::{
    is_disconnected, Disconnected, HealthInfo, MetricsInfo, Negotiated, Rejection, Response,
    ServeClient,
};
pub use fleet::{ArrivalPattern, FleetReport, FleetSpec};
pub use router::ShardRouter;
pub use server::{DurableOptions, LaneFactory, ResilienceSpec, ServeConfig, Server};

//! The deterministic synthetic-fleet load harness behind
//! `eventhit-cli bench-fleet`.
//!
//! A fleet run drives hundreds to thousands of synthetic streams against
//! a live server over real loopback sockets, with a deterministic
//! *arrival schedule*: every stream's identity, feature rows, and arrival
//! slot are pure functions of the run's seed and spec, so the decision
//! set a run produces is bit-identical to the in-process `run_lanes`
//! baseline (wall-clock effects — rejects, retries — vary, and the
//! harness tallies them).
//!
//! Arrivals come in two patterns: [`ArrivalPattern::Uniform`] spaces
//! streams one slot apart, and [`ArrivalPattern::Bursty`] drives the
//! slots from a Gilbert–Elliott chain (the `eventhit-core` fault
//! injector), packing whole outage-style bursts of streams into the same
//! slot — the arrival shape that saturates per-shard admission and makes
//! `TooManyStreams` rejects and retry-after behavior observable.
//!
//! The harness reports what the driver side sees: admission rejects and
//! honored retry-after hints. Stage latencies are the server's own
//! `serve.*_seconds` series (`eventhit-cli top`, the benchmark's
//! `serve.server.*` rows).

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use eventhit_core::faults::{FaultConfig, FaultInjector};

use crate::client::{Response, ServeClient};
use crate::protocol::{RejectCode, WireDecision};

/// How fleet arrivals are spread over the slot axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalPattern {
    /// One arrival per slot: steady offered load.
    Uniform,
    /// Gilbert–Elliott bursts: while the chain is in its Bad state,
    /// consecutive arrivals share a slot, producing the correlated
    /// arrival clumps that saturate a shard's admission slice.
    Bursty,
}

/// Spec of one fleet run. Everything that affects *which decisions* are
/// produced is in here plus the feature rows; wall-clock pacing knobs
/// (`slot_micros`, `retry_cap_ms`) only shape the offered load.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Number of synthetic streams (ids `0..streams`).
    pub streams: u32,
    /// Concurrent driver sessions (connections); stream `s` is driven by
    /// session `s % sessions`.
    pub sessions: usize,
    /// Streams each session holds open concurrently (its admission
    /// window); `sessions * window` above the server's cap is what makes
    /// saturation observable.
    pub window: usize,
    /// Frames per `SubmitFrames` batch.
    pub batch: usize,
    /// Batches submitted per stream (`batch * rounds` frames total).
    pub rounds: usize,
    /// Arrival shape over the slot axis.
    pub pattern: ArrivalPattern,
    /// Seed of the bursty arrival chain (ignored for uniform arrivals).
    pub seed: u64,
    /// Wall-clock width of one arrival slot, in microseconds.
    pub slot_micros: u64,
    /// Cap on how long a driver honors a `retry_after_ms` hint before
    /// retrying, in milliseconds (keeps saturated runs fast).
    pub retry_cap_ms: u64,
}

impl Default for FleetSpec {
    fn default() -> Self {
        FleetSpec {
            streams: 1024,
            sessions: 8,
            window: 4,
            batch: 64,
            rounds: 4,
            pattern: ArrivalPattern::Uniform,
            seed: 1,
            slot_micros: 100,
            retry_cap_ms: 2,
        }
    }
}

impl FleetSpec {
    /// Frames each stream submits over its lifetime.
    pub fn frames_per_stream(&self) -> usize {
        self.batch * self.rounds
    }
}

/// What one fleet run observed, aggregated across driver sessions.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// Streams driven to completion.
    pub streams_driven: u64,
    /// Frames accepted by the server.
    pub frames_sent: u64,
    /// Every decision served, sorted by `(anchor, stream_id)` — the same
    /// global order `run_lanes` returns, so divergence checks are a
    /// straight comparison.
    pub decisions: Vec<(u32, WireDecision)>,
    /// `TooManyStreams` rejections observed on `OpenStream`.
    pub admission_rejects: u64,
    /// Sum of `retry_after_ms` hints the drivers honored (after the
    /// `retry_cap_ms` cap), in milliseconds.
    pub retry_waited_ms: u64,
}

/// The arrival slot of every stream, in stream-id order; slots are
/// non-decreasing. A pure function of `(streams, pattern, seed)`.
pub fn arrival_slots(streams: u32, pattern: ArrivalPattern, seed: u64) -> Vec<u64> {
    match pattern {
        ArrivalPattern::Uniform => (0..streams as u64).collect(),
        ArrivalPattern::Bursty => {
            // Gilbert–Elliott chain with total loss in Bad: an attempt
            // that "fails" is a burst member and shares the current slot;
            // a success opens the next slot. Sticky Bad state (0.25
            // recovery) gives bursts of ~4 arrivals.
            let cfg = FaultConfig {
                p_good_to_bad: 0.1,
                p_bad_to_good: 0.25,
                bad_loss: 1.0,
                ..FaultConfig::reliable()
            };
            let mut chain = FaultInjector::new(cfg, seed);
            let mut slot = 0u64;
            (0..streams)
                .map(|_| {
                    if chain.attempt(0.0).is_success() {
                        slot += 1;
                    }
                    slot
                })
                .collect()
        }
    }
}

/// The row the synthetic stream `stream` starts at inside the shared
/// feature pool of `total_rows` rows. Streams wrap around the pool, each
/// from its own offset, so a fleet of thousands of distinct streams is
/// regenerated from one extracted feature matrix — the same
/// seed-regeneration trick `bench-client` uses, shared here so the
/// `run_lanes` divergence baseline reproduces every stream exactly.
pub fn stream_row_start(stream: u32, total_rows: usize) -> usize {
    assert!(total_rows > 0, "the feature pool cannot be empty");
    (stream as usize).wrapping_mul(17) % total_rows
}

/// The `r`-th feature row of synthetic stream `stream`, borrowed from the
/// shared pool.
pub fn stream_row(rows: &[Vec<f32>], stream: u32, r: usize) -> &[f32] {
    &rows[(stream_row_start(stream, rows.len()) + r) % rows.len()]
}

/// Shared atomic tallies the driver sessions accumulate into.
#[derive(Default)]
struct Tallies {
    frames: AtomicU64,
    admission_rejects: AtomicU64,
    retry_waited_ms: AtomicU64,
}

/// Drives the whole fleet against the server at `addr` and returns the
/// aggregated report. `rows` is the shared feature pool every stream's
/// frames are drawn from (see [`stream_row`]); its row width must match
/// the serving model's input dimension.
///
/// Admission rejects are retried until the stream is admitted — every
/// session's open streams always run to completion and release their
/// slots, so the fleet always drains. Rejects and honored hints are
/// tallied, not hidden. A rejection without a retry hint is permanent
/// (a batch over the server's `max_queue_frames`, say) and fails the
/// drive.
pub fn drive(addr: &str, rows: &[Vec<f32>], spec: &FleetSpec) -> io::Result<FleetReport> {
    assert!(spec.sessions > 0, "a fleet needs at least one session");
    assert!(spec.window > 0, "a session needs a nonzero stream window");
    assert!(spec.batch > 0, "batches cannot be empty");
    let slots = arrival_slots(spec.streams, spec.pattern, spec.seed);
    let tallies = Tallies::default();
    let start = Instant::now();
    let mut all: Vec<(u32, WireDecision)> = Vec::new();
    let session_results: Vec<io::Result<Vec<(u32, WireDecision)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.sessions)
            .map(|k| {
                let slots = &slots;
                let tallies = &tallies;
                scope.spawn(move || drive_session(addr, rows, spec, slots, k, start, tallies))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut streams_driven = 0u64;
    for r in session_results {
        let decisions = r?;
        streams_driven += decisions
            .iter()
            .map(|(s, _)| *s)
            .collect::<std::collections::BTreeSet<_>>()
            .len() as u64;
        all.extend(decisions);
    }
    // The global `run_lanes` order: anchor first, stream id second.
    all.sort_by_key(|(stream, d)| (d.anchor, *stream));
    Ok(FleetReport {
        streams_driven,
        frames_sent: tallies.frames.load(Ordering::Relaxed),
        decisions: all,
        admission_rejects: tallies.admission_rejects.load(Ordering::Relaxed),
        retry_waited_ms: tallies.retry_waited_ms.load(Ordering::Relaxed),
    })
}

/// One driver session: opens its streams in arrival order under a
/// sliding window, round-robins batches across the open set, and closes
/// each stream after its last round.
fn drive_session(
    addr: &str,
    rows: &[Vec<f32>],
    spec: &FleetSpec,
    slots: &[u64],
    session: usize,
    start: Instant,
    tallies: &Tallies,
) -> io::Result<Vec<(u32, WireDecision)>> {
    let mine: Vec<u32> = (0..spec.streams)
        .filter(|s| *s as usize % spec.sessions == session)
        .collect();
    if mine.is_empty() {
        return Ok(Vec::new());
    }
    let dim = rows[0].len() as u32;
    let mut client = ServeClient::connect(addr)?;
    let mut pending: VecDeque<u32> = mine.into();
    let mut open: VecDeque<(u32, usize)> = VecDeque::new(); // (stream, rounds done)
    let mut decisions: Vec<(u32, WireDecision)> = Vec::new();

    while !pending.is_empty() || !open.is_empty() {
        // Fill the window, honoring the arrival schedule. An admission
        // reject stops filling for this pass — the open streams below
        // keep making progress, which is what eventually frees capacity.
        while open.len() < spec.window && !pending.is_empty() {
            let s = *pending.front().unwrap();
            let due = Duration::from_micros(slots[s as usize].saturating_mul(spec.slot_micros));
            let since_start = start.elapsed();
            if since_start < due {
                std::thread::sleep(due - since_start);
            }
            match client.open_stream(s)? {
                Response::Ok(()) => {
                    pending.pop_front();
                    open.push_back((s, 0));
                }
                Response::Rejected(r) if r.code == RejectCode::TooManyStreams => {
                    tallies.admission_rejects.fetch_add(1, Ordering::Relaxed);
                    honor_hint(r.retry_after_ms, spec.retry_cap_ms, tallies);
                    break;
                }
                Response::Rejected(r) => {
                    return Err(io::Error::other(format!("open stream {s}: {r}")));
                }
            }
        }
        if open.is_empty() {
            continue; // everything rejected this pass; the hint wait above paced us
        }
        // One batch per open stream, oldest first; finished streams close
        // and leave the window.
        for _ in 0..open.len() {
            let (s, done) = open.pop_front().unwrap();
            let mut data = Vec::with_capacity(spec.batch * dim as usize);
            for r in done * spec.batch..(done + 1) * spec.batch {
                data.extend_from_slice(stream_row(rows, s, r));
            }
            loop {
                match client.submit(s, dim, data.clone())? {
                    Response::Ok(batch_decisions) => {
                        tallies
                            .frames
                            .fetch_add(spec.batch as u64, Ordering::Relaxed);
                        decisions.extend(batch_decisions.into_iter().map(|d| (s, d)));
                        break;
                    }
                    Response::Rejected(r) if r.retry_after_ms > 0 => {
                        honor_hint(r.retry_after_ms, spec.retry_cap_ms, tallies);
                    }
                    Response::Rejected(r) => {
                        return Err(io::Error::other(format!("submit to stream {s}: {r}")));
                    }
                }
            }
            if done + 1 == spec.rounds {
                client.close_stream(s)?.expect_ok("close fleet stream");
            } else {
                open.push_back((s, done + 1));
            }
        }
    }
    Ok(decisions)
}

/// Sleeps out a server retry-after hint, capped, and tallies the wait.
fn honor_hint(hint_ms: u32, cap_ms: u64, tallies: &Tallies) {
    let wait = (hint_ms as u64).min(cap_ms);
    if wait > 0 {
        std::thread::sleep(Duration::from_millis(wait));
    }
    tallies.retry_waited_ms.fetch_add(wait, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_arrivals_are_one_per_slot() {
        assert_eq!(
            arrival_slots(5, ArrivalPattern::Uniform, 99),
            [0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn bursty_arrivals_are_deterministic_and_clumped() {
        let a = arrival_slots(2_000, ArrivalPattern::Bursty, 7);
        let b = arrival_slots(2_000, ArrivalPattern::Bursty, 7);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "slots are monotone");
        let shared = a.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(
            shared > 100,
            "bursts must pack arrivals: {shared} shared slots"
        );
        assert_ne!(
            a,
            arrival_slots(2_000, ArrivalPattern::Bursty, 8),
            "different seed, different schedule"
        );
    }

    #[test]
    fn stream_rows_wrap_the_pool_deterministically() {
        let rows: Vec<Vec<f32>> = (0..10).map(|i| vec![i as f32]).collect();
        assert_eq!(stream_row_start(0, 10), 0);
        assert_eq!(stream_row_start(1, 10), 7);
        assert_eq!(stream_row_start(3, 10), 1);
        assert_eq!(stream_row(&rows, 1, 0), [7.0]);
        assert_eq!(stream_row(&rows, 1, 3), [0.0], "wraps at the pool edge");
        // The same (stream, r) always resolves the same row.
        for s in 0..50u32 {
            for r in 0..30 {
                assert_eq!(stream_row(&rows, s, r), stream_row(&rows, s, r));
            }
        }
    }
}

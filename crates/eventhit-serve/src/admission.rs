//! Admission control and per-stream ingest bounds.
//!
//! Three mechanisms keep the server's memory proportional to its
//! configuration instead of its traffic:
//!
//! 1. [`AdmissionController`] — a per-shard cap on concurrently open
//!    streams. `OpenStream` beyond the owning shard's cap is rejected
//!    with `TooManyStreams` and a retry-after hint; slots are released on
//!    `CloseStream` *and* when a session dies mid-stream, so a crashed
//!    client can never leak capacity. An unsharded server is simply the
//!    one-shard case.
//! 2. The per-batch bound — a `SubmitFrames` of more than
//!    [`MAX_BATCH_FRAMES`](crate::server::MAX_BATCH_FRAMES) rows is
//!    rejected whole with `BatchTooLarge` (explicit backpressure: the
//!    client holds the data), never buffered.
//!    The server feeds an accepted batch straight from the decoded
//!    message and holds no [`FrameQueue`] any more.
//! 3. [`ServeTotals`] — the cross-shard aggregate: lifetime totals served
//!    by `Health` queries plus the live stream count behind the
//!    `serve.active_streams` gauge, so dashboards keep one fleet-wide
//!    number no matter how many shards sit underneath.
//!
//! All three are plain counters — no clocks, no threads — so the
//! admission decisions a test observes are a pure function of the
//! request sequence.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use eventhit_telemetry::Telemetry;

/// One shard's admission state: the open-stream cap and the live count.
///
/// All methods take `&self`; the controller is shared across session
/// threads behind an `Arc`.
#[derive(Debug)]
pub struct AdmissionController {
    max_streams: u32,
    active: AtomicU32,
}

impl AdmissionController {
    /// A controller admitting at most `max_streams` concurrent streams.
    pub fn new(max_streams: u32) -> Self {
        AdmissionController {
            max_streams,
            active: AtomicU32::new(0),
        }
    }

    /// The configured stream cap.
    pub fn max_streams(&self) -> u32 {
        self.max_streams
    }

    /// Tries to claim one stream slot. Returns `false` when the shard is
    /// at capacity; on `true` the caller owes a matching [`release`].
    ///
    /// [`release`]: AdmissionController::release
    pub fn try_admit(&self) -> bool {
        let mut cur = self.active.load(Ordering::Relaxed);
        loop {
            if cur >= self.max_streams {
                return false;
            }
            match self.active.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Returns one stream slot claimed by [`try_admit`].
    ///
    /// [`try_admit`]: AdmissionController::try_admit
    pub fn release(&self) {
        let prev = self.active.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "release without a matching admit");
    }

    /// Streams currently open on this shard.
    pub fn active(&self) -> u32 {
        self.active.load(Ordering::Acquire)
    }
}

/// Cross-shard aggregate state: lifetime totals behind `Health` plus the
/// fleet-wide live stream count behind the `serve.active_streams` gauge.
///
/// One instance per server, shared by every shard; shard-local capacity
/// decisions never touch it, so it is a pure observer of the fleet.
#[derive(Debug, Default)]
pub struct ServeTotals {
    active: AtomicU32,
    sessions: AtomicU64,
    frames: AtomicU64,
    decisions: AtomicU64,
}

impl ServeTotals {
    /// A zeroed aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one stream attaching (slot claimed on some shard); returns
    /// the new fleet-wide live count.
    pub fn stream_attached(&self) -> u32 {
        self.active.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Records one stream detaching; returns the new fleet-wide count.
    pub fn stream_detached(&self) -> u32 {
        let prev = self.active.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "detach without a matching attach");
        prev - 1
    }

    /// Streams currently open across all shards and sessions.
    pub fn active(&self) -> u32 {
        self.active.load(Ordering::Acquire)
    }

    /// Records the start of a session; returns the new session total.
    pub fn session_started(&self) -> u64 {
        self.sessions.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Adds to the lifetime frame total.
    pub fn add_frames(&self, n: u64) {
        self.frames.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds to the lifetime decision total.
    pub fn add_decisions(&self, n: u64) {
        self.decisions.fetch_add(n, Ordering::Relaxed);
    }

    /// Lifetime totals `(sessions, frames, decisions)`.
    pub fn totals(&self) -> (u64, u64, u64) {
        (
            self.sessions.load(Ordering::Relaxed),
            self.frames.load(Ordering::Relaxed),
            self.decisions.load(Ordering::Relaxed),
        )
    }
}

/// RAII ownership of one admitted stream slot.
///
/// Holding a `SlotGuard` *is* holding the slot: [`SlotGuard::claim`]
/// pairs the owning shard's `try_admit` with updates to that shard's
/// `serve.shard{N}.active_streams` gauge *and* the cross-shard
/// `serve.active_streams` aggregate, and dropping the guard pairs the
/// `release` with the matching updates. Every exit path — clean close,
/// session teardown, durable park, even an error return between
/// admission and lane insertion — releases the slot and keeps both
/// gauges honest by construction.
#[derive(Debug)]
pub struct SlotGuard {
    admission: Arc<AdmissionController>,
    totals: Arc<ServeTotals>,
    telemetry: Arc<Telemetry>,
    shard_gauge: &'static str,
}

/// Name of the cross-shard aggregate gauge: the fleet-wide live stream
/// count `eventhit-cli top` and the telemetry tests read.
pub const ACTIVE_STREAMS_GAUGE: &str = "serve.active_streams";

impl SlotGuard {
    /// Tries to claim one stream slot on `admission` (the owning shard's
    /// controller), updating the shard's `shard_gauge` and the aggregate
    /// [`ACTIVE_STREAMS_GAUGE`] on success. `None` means the shard is at
    /// capacity.
    pub fn claim(
        admission: &Arc<AdmissionController>,
        totals: &Arc<ServeTotals>,
        telemetry: &Arc<Telemetry>,
        shard_gauge: &'static str,
    ) -> Option<Self> {
        if !admission.try_admit() {
            return None;
        }
        totals.stream_attached();
        let guard = SlotGuard {
            admission: Arc::clone(admission),
            totals: Arc::clone(totals),
            telemetry: Arc::clone(telemetry),
            shard_gauge,
        };
        guard.record_gauges();
        Some(guard)
    }

    fn record_gauges(&self) {
        self.telemetry
            .gauge_set(self.shard_gauge, self.admission.active() as f64);
        self.telemetry
            .gauge_set(ACTIVE_STREAMS_GAUGE, self.totals.active() as f64);
    }
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.admission.release();
        self.totals.stream_detached();
        self.record_gauges();
    }
}

/// A bounded FIFO of feature rows between the wire and one stream's
/// predictor. Batches are admitted whole or not at all, so a rejected
/// client never has to guess how much of its batch survived.
///
/// The server no longer holds one: it filled and emptied the queue inside
/// a single submit, so the bound is now checked on the batch itself. The
/// type stays exported because the benchmark's ledger builds one.
#[derive(Debug)]
pub struct FrameQueue {
    rows: VecDeque<Vec<f32>>,
    capacity: usize,
}

impl FrameQueue {
    /// A queue holding at most `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        FrameQueue {
            rows: VecDeque::new(),
            capacity,
        }
    }

    /// Frames the queue can still accept.
    pub fn free(&self) -> usize {
        self.capacity - self.rows.len()
    }

    /// Frames currently queued.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Enqueues a whole batch of rows, or rejects it untouched when it
    /// does not fit; the error is the number of frames that would not fit.
    pub fn try_enqueue(&mut self, batch: Vec<Vec<f32>>) -> Result<(), usize> {
        if batch.len() > self.free() {
            return Err(batch.len() - self.free());
        }
        self.rows.extend(batch);
        Ok(())
    }

    /// Dequeues the oldest frame.
    pub fn pop(&mut self) -> Option<Vec<f32>> {
        self.rows.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_caps_and_releases() {
        let a = AdmissionController::new(2);
        assert!(a.try_admit());
        assert!(a.try_admit());
        assert!(!a.try_admit(), "third stream must be refused");
        assert_eq!(a.active(), 2);
        a.release();
        assert!(a.try_admit(), "released slot must be reusable");
    }

    #[test]
    fn totals_accumulate_across_shards() {
        let t = ServeTotals::new();
        assert_eq!(t.session_started(), 1);
        assert_eq!(t.session_started(), 2);
        t.add_frames(10);
        t.add_decisions(3);
        t.add_frames(5);
        assert_eq!(t.totals(), (2, 15, 3));
        assert_eq!(t.stream_attached(), 1);
        assert_eq!(t.stream_attached(), 2);
        assert_eq!(t.stream_detached(), 1);
        assert_eq!(t.active(), 1);
    }

    #[test]
    fn slot_guard_releases_on_every_drop_path() {
        let a = Arc::new(AdmissionController::new(1));
        let totals = Arc::new(ServeTotals::new());
        let t = Arc::new(Telemetry::with_manual_clock());
        let g = SlotGuard::claim(&a, &totals, &t, "serve.shard0.active_streams").expect("slot");
        assert!(
            SlotGuard::claim(&a, &totals, &t, "serve.shard0.active_streams").is_none(),
            "cap reached"
        );
        assert_eq!(a.active(), 1);
        assert_eq!(totals.active(), 1);
        drop(g);
        assert_eq!(a.active(), 0);
        assert_eq!(totals.active(), 0);
        // Both the per-shard gauge and the aggregate saw the claim (1)
        // and the release (0).
        let snap = t.snapshot();
        for name in ["serve.shard0.active_streams", ACTIVE_STREAMS_GAUGE] {
            let gauge = snap.gauge(name).unwrap_or_else(|| panic!("gauge {name}"));
            assert_eq!(
                (gauge.last, gauge.max, gauge.samples),
                (0.0, 1.0, 2),
                "{name}"
            );
        }
    }

    #[test]
    fn shard_guards_share_one_aggregate() {
        // Two shards, one aggregate: each shard caps independently while
        // the fleet-wide count sums both.
        let shard0 = Arc::new(AdmissionController::new(1));
        let shard1 = Arc::new(AdmissionController::new(1));
        let totals = Arc::new(ServeTotals::new());
        let t = Arc::new(Telemetry::with_manual_clock());
        let g0 = SlotGuard::claim(&shard0, &totals, &t, "serve.shard0.active_streams").unwrap();
        let g1 = SlotGuard::claim(&shard1, &totals, &t, "serve.shard1.active_streams").unwrap();
        assert!(
            SlotGuard::claim(&shard0, &totals, &t, "serve.shard0.active_streams").is_none(),
            "shard 0 is full even though shard 1 has capacity counted elsewhere"
        );
        assert_eq!(totals.active(), 2);
        let agg = t.snapshot().gauge(ACTIVE_STREAMS_GAUGE).unwrap();
        assert_eq!((agg.last, agg.max), (2.0, 2.0));
        drop(g0);
        drop(g1);
        assert_eq!(totals.active(), 0);
    }

    #[test]
    fn queue_admits_whole_batches_only() {
        let mut q = FrameQueue::new(4);
        assert!(q.try_enqueue(vec![vec![1.0]; 3]).is_ok());
        assert_eq!(q.free(), 1);
        // A 2-frame batch overflows by 1 and must leave the queue alone.
        assert_eq!(q.try_enqueue(vec![vec![2.0]; 2]), Err(1));
        assert_eq!(q.len(), 3);
        assert!(q.try_enqueue(vec![vec![3.0]]).is_ok());
        assert_eq!(q.free(), 0);
        // Draining restores capacity.
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 4);
        assert!(q.is_empty());
        assert_eq!(q.free(), 4);
    }
}

//! Frame-by-frame online prediction.
//!
//! [`OnlinePredictor`] consumes frames in stream order (a detector's
//! per-frame feature vectors), maintains the collection-window ring buffer, and emits a relay decision
//! once per horizon — the push-based complement to the batch
//! [`Marshaller`](crate::marshal::Marshaller), for deployments where frames
//! arrive from a live camera rather than a stored stream. Every caller
//! feeds it through one batch entry, [`OnlinePredictor::push_frames`];
//! [`OnlinePredictor::push_frame`] is its one-row case.
//!
//! Under the default [`SamplingPolicy::Fixed`] every frame an anchor
//! reads is encoded into the window, and a batch passes over the frames
//! no anchor reads without copying them; so does any policy whose gate
//! cannot close ([`SamplingPolicy::gates`]: a threshold of 0). A
//! [`SamplingPolicy::DeltaGate`] or [`SamplingPolicy::Adaptive`] policy
//! with a positive threshold (see [`crate::sampling`]) gates
//! low-motion frames in front of the encoder — they are acknowledged
//! (the anchor cadence still advances) but not encoded, and anchors
//! whose window content did not change reuse the previous anchor's
//! predictions (duplicate-carry), skipping the model forward entirely.
//!
//! The cadence and the carry-or-score rule are not written here: the
//! predictor holds the one anchor stepper of [`crate::sampling`], the
//! same type gated calibration drives, and supplies only the scorer.
//!
//! A batch runs in two halves: advance to the next anchor whose window
//! needs the encoder (deciding every carried anchor on the way), then
//! finish that anchor from its window's scores. `push_frames` scores
//! each window alone between the two;
//! [`run_lanes`](crate::multi::run_lanes) drives the same halves and
//! scores the windows of co-timed lanes in batches.

use std::sync::Arc;

use eventhit_nn::matrix::Matrix;
use eventhit_nn::quant::InferenceLane;
use eventhit_telemetry::{fnv1a, Telemetry};
use eventhit_video::online::WindowBuffer;
use eventhit_video::records::EventLabel;

use crate::codec::F32Run;
use crate::error::{CoreError, CoreResult};
use crate::infer::{scores_into, IntervalPrediction, ScoredRecord};
use crate::model::{EventHit, InferencePlan, InferenceScratch};
use crate::pipeline::{ConformalState, Strategy};
use crate::sampling::{AnchorStepper, SamplingPolicy, HIT_TAU1};

/// How (if at all) a decision was degraded on its way to the CI. Every
/// decision EventHit emits is delivered as predicted, so `None` is the
/// only value; the field stays on [`HorizonDecision`] until the callers
/// that still name it are gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationTag {
    /// Delivered as predicted.
    None,
}

/// A relay decision emitted at a prediction anchor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HorizonDecision {
    /// The anchor frame (0-based index of the last window frame).
    pub anchor: u64,
    /// Per-event predicted intervals (offsets relative to the anchor,
    /// 1-based, as everywhere else).
    pub predictions: Vec<IntervalPrediction>,
    /// Always [`DegradationTag::None`]: the online predictor never
    /// consults the cloud.
    pub degradation: DegradationTag,
}

impl HorizonDecision {
    /// Absolute frame segments to relay, `(event, start, end)`.
    pub fn segments(&self) -> Vec<(usize, u64, u64)> {
        self.predictions
            .iter()
            .enumerate()
            .filter(|(_, p)| p.present)
            .map(|(k, p)| (k, self.anchor + p.start as u64, self.anchor + p.end as u64))
            .collect()
    }
}

/// The complete *dynamic* state of an [`OnlinePredictor`] — everything
/// that changes as frames are pushed. A predictor rescores its window
/// at every content-changing anchor (no recurrent state is carried
/// between anchors), so the buffered rows, the frames-seen counter, and
/// the anchor countdown are sufficient: restoring them into a predictor
/// built from the same (model, conformal state, strategy, lane)
/// reproduces the original's future decisions bit-for-bit under the
/// default `Fixed` sampling policy. This is what durable serving
/// snapshots persist and what crash recovery replays into (durable
/// serving rejects non-`Fixed` policies at bind time precisely because
/// the gate/window state below is not captured here).
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorState {
    /// Buffered window rows, oldest first (at most `window` rows).
    pub rows: Vec<Vec<f32>>,
    /// Total frames ever *pushed* through the predictor (including any
    /// gated frames, which advance the cadence without being encoded;
    /// under the default `Fixed` sampling policy every pushed frame is
    /// also buffered, so this equals the buffer's push count).
    pub frames_seen: u64,
    /// Frames remaining until the next prediction anchor.
    pub countdown: u64,
}

impl PredictorState {
    /// FNV-1a fingerprint over the state's canonical byte image
    /// (`frames_seen`, `countdown`, then each row's length and f32 bit
    /// patterns, all little-endian). Two states fingerprint equal iff
    /// they are bit-identical — the equality recovery asserts after a
    /// snapshot restore.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes =
            Vec::with_capacity(16 + self.rows.iter().map(|r| 4 + r.len() * 4).sum::<usize>());
        bytes.extend_from_slice(&self.frames_seen.to_le_bytes());
        bytes.extend_from_slice(&self.countdown.to_le_bytes());
        for row in &self.rows {
            bytes.extend_from_slice(&(row.len() as u32).to_le_bytes());
            for v in row {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        fnv1a(&bytes)
    }
}

/// Push-based online predictor: feed frames, get one decision per horizon.
///
/// The predictor keeps the model only in compiled form (an
/// [`InferencePlan`] for its lane, built once at construction and again
/// on [`OnlinePredictor::reload_model`]); the trainable [`EventHit`] it
/// was built from — gradients, optimizer-facing buffers — is dropped.
/// After the first anchor has sized the reusable buffers, a batch
/// allocates only the decisions it hands out: a non-anchor frame
/// allocates nothing, and an anchor under a policy whose gate cannot
/// close allocates only its decision.
pub struct OnlinePredictor {
    /// The one scorer: the model compiled for this predictor's lane.
    plan: InferencePlan,
    /// The plan's working buffers, reused by every anchor.
    scratch: InferenceScratch,
    /// The anchor being decided: scores are overwritten in place, labels
    /// stay absent (a live stream has no ground truth).
    scored: ScoredRecord,
    state: ConformalState,
    strategy: Strategy,
    /// The stream's stepping state — sampler, window ring, anchor
    /// countdown, stream position — and, under a gate that can close,
    /// the duplicate-carry memo of the last scored anchor with its
    /// predictions. A policy whose gate cannot close admits everything
    /// and keeps no memo; [`SamplingPolicy::Fixed`] is bit-identical to
    /// the pre-sampling predictor.
    stepper: AnchorStepper<Vec<IntervalPrediction>>,
    /// The one row a wire-form frame is decoded into.
    row: Vec<f32>,
    /// `stream.frames_skipped` already flushed to telemetry. Skips are
    /// counted in the sampler and flushed in batches at decision time so
    /// gated streams pay no per-frame telemetry the `Fixed` policy
    /// doesn't.
    skipped_flushed: u64,
    /// Optional recorder; `None` keeps the hot path free of telemetry
    /// branches beyond one pointer check.
    telemetry: Option<Arc<Telemetry>>,
    /// Ambient trace id attached to stage observations while set (the
    /// serving layer sets it per traced batch). Not part of the exported
    /// predictor state: tracing never influences decisions or replay.
    trace: Option<u64>,
    /// The pending anchor's inference stage so far, in seconds on the
    /// recorder's clock: building and drift-testing its window, then its
    /// share of the forward that scores it. `0` without a recorder.
    inference: f64,
    /// When the forward scoring the pending anchor started.
    mark: Option<f64>,
}

impl OnlinePredictor {
    /// Creates a predictor that fires its first decision as soon as the
    /// collection window fills, then once every `horizon` frames. Scores
    /// on the exact f32 lane; see [`OnlinePredictor::with_lane`] for the
    /// int8 fast lane.
    pub fn new(model: EventHit, state: ConformalState, strategy: Strategy) -> Self {
        Self::with_lane(model, state, strategy, InferenceLane::Exact)
    }

    /// Like [`OnlinePredictor::new`], but scoring on an explicit
    /// [`InferenceLane`]. `Quantized` scores on the model's int8 plan
    /// (compiled by the first predictor built from the model or a clone
    /// of it, shared by the rest) — pair it with a [`ConformalState`]
    /// refitted from quantized calibration scores (see
    /// [`TaskRun::state_for_lane`](crate::experiment::TaskRun::state_for_lane))
    /// so the conformal guarantee covers the quantization error.
    pub fn with_lane(
        model: EventHit,
        state: ConformalState,
        strategy: Strategy,
        lane: InferenceLane,
    ) -> Self {
        Self::with_policy(model, state, strategy, lane, SamplingPolicy::Fixed)
    }

    /// Like [`OnlinePredictor::with_lane`], plus an explicit
    /// [`SamplingPolicy`]. Non-`Fixed` policies gate low-motion frames
    /// and (for `Adaptive`) shrink the scored window — pair them with a
    /// [`ConformalState`] refitted on gated trajectories (see
    /// [`TaskRun::state_for_sampling`](crate::experiment::TaskRun::state_for_sampling))
    /// so the coverage guarantee covers the sampling distortion.
    pub fn with_policy(
        model: EventHit,
        state: ConformalState,
        strategy: Strategy,
        lane: InferenceLane,
        policy: SamplingPolicy,
    ) -> Self {
        let plan = InferencePlan::compile(&model, lane);
        let cfg = plan.config();
        OnlinePredictor {
            stepper: AnchorStepper::new(policy, cfg.window, cfg.input_dim, cfg.horizon as u64),
            row: Vec::with_capacity(cfg.input_dim),
            skipped_flushed: 0,
            scratch: plan.scratch(),
            scored: ScoredRecord {
                anchor: 0,
                scores: Vec::new(),
                labels: vec![EventLabel::absent(); state.num_events()],
            },
            plan,
            state,
            strategy,
            telemetry: None,
            trace: None,
            inference: 0.0,
            mark: None,
        }
    }

    /// The inference lane this predictor scores on.
    pub fn lane(&self) -> InferenceLane {
        self.plan.lane()
    }

    /// The sampling policy this predictor runs.
    pub fn policy(&self) -> &SamplingPolicy {
        self.stepper.sampler.policy()
    }

    /// Replaces the sampling policy, resetting the gate state, the
    /// duplicate-carry memo, and the adaptive window. Intended at
    /// stream-open time (the serving layer applies its per-stream
    /// [`ServeConfig`](../../eventhit_serve/server/struct.ServeConfig.html)
    /// policy to factory-built predictors here); switching mid-stream is
    /// deterministic but re-warms the gate from the next frame.
    pub fn set_policy(&mut self, policy: SamplingPolicy) {
        self.stepper.set_policy(policy);
        self.skipped_flushed = 0;
    }

    /// Frames gated (acknowledged but not encoded) so far.
    pub fn frames_skipped(&self) -> u64 {
        self.stepper.sampler.frames_skipped()
    }

    /// The window length `m` the encoder consumes at the next anchor
    /// (the configured `M` under non-adaptive policies).
    pub fn window_len(&self) -> usize {
        self.stepper.sampler.window_len()
    }

    /// Changes the operating strategy on the fly.
    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.strategy = strategy;
    }

    /// Feature dimensionality each pushed frame must have — used by
    /// serving frontends to validate submissions before feeding the
    /// window buffer.
    pub fn input_dim(&self) -> usize {
        self.plan.config().input_dim
    }

    /// Exports the predictor's dynamic state (see [`PredictorState`]).
    ///
    /// Complete under the default `Fixed` sampling policy (the durable
    /// serving path, which rejects non-`Fixed` policies at bind time).
    /// Under a gating policy the snapshot captures the window, cadence,
    /// and stream position but not the gate's reference frame or the
    /// adaptive window EMA — a restore re-warms those.
    pub fn export_state(&self) -> PredictorState {
        PredictorState {
            rows: self.stepper.buffer.snapshot_rows(),
            frames_seen: self.stepper.stream_pos,
            countdown: self.stepper.countdown,
        }
    }

    /// Restores dynamic state exported by [`OnlinePredictor::export_state`]
    /// (possibly from another process: the durable recovery path). The
    /// predictor must have been built from the same model configuration;
    /// mismatched row counts or dimensionalities are rejected with a typed
    /// error before anything is mutated, and so is a state that disagrees
    /// with its own cadence ([`CoreError::CadenceMismatch`]): it must
    /// buffer `min(frames_seen, M)` rows, and carry the countdown feeding
    /// `frames_seen` frames leaves — `0` until the window fills, then
    /// `H − 1 − (frames_seen − M) mod H`. The batch path passes frames
    /// over on the strength of both.
    pub fn restore_state(&mut self, st: &PredictorState) -> CoreResult<()> {
        let cfg = self.plan.config();
        if st.rows.len() > cfg.window {
            return Err(CoreError::ShapeMismatch {
                what: "restored window rows",
                expected: cfg.window,
                got: st.rows.len(),
            });
        }
        if let Some(row) = st.rows.iter().find(|r| r.len() != cfg.input_dim) {
            return Err(CoreError::ShapeMismatch {
                what: "restored window row dim",
                expected: cfg.input_dim,
                got: row.len(),
            });
        }
        let window = cfg.window as u64;
        let rows = st.frames_seen.min(window);
        if st.rows.len() as u64 != rows {
            return Err(CoreError::CadenceMismatch {
                what: "restored window rows",
                expected: rows,
                got: st.rows.len() as u64,
            });
        }
        let horizon = self.stepper.horizon;
        let countdown = match st.frames_seen.checked_sub(window) {
            None => 0,
            Some(since_full) => horizon - 1 - since_full % horizon,
        };
        if st.countdown != countdown {
            return Err(CoreError::CadenceMismatch {
                what: "restored countdown",
                expected: countdown,
                got: st.countdown,
            });
        }
        self.stepper.buffer =
            WindowBuffer::restore(cfg.window, cfg.input_dim, &st.rows, st.frames_seen);
        self.stepper.countdown = st.countdown;
        self.stepper.stream_pos = st.frames_seen;
        // Sampling state is not part of the snapshot (see
        // `export_state`): reset the gate and carry. A no-op under the
        // `Fixed` policy durable serving requires.
        self.set_policy(self.policy().clone());
        Ok(())
    }

    /// Hot-swaps the predictor's model and conformal state in place,
    /// keeping the window buffer and anchor cadence — the serving-layer
    /// model reload. Subsequent decisions score the *existing* window on
    /// the new weights, so the decision sequence around the swap is a
    /// pure function of (frames, old model, swap point, new model) and
    /// replays exactly. The new model must share the shape-relevant
    /// config (input dim, window, horizon, events); pair it with a state
    /// refitted for it (see `TaskRun::state_for_model`) or the coverage
    /// guarantees are void. The new weights are compiled for the
    /// predictor's lane here, once.
    pub fn reload_model(&mut self, model: EventHit, state: ConformalState) -> CoreResult<()> {
        let old = self.plan.config();
        let new = model.config();
        if (new.input_dim, new.window, new.horizon, new.num_events)
            != (old.input_dim, old.window, old.horizon, old.num_events)
        {
            return Err(CoreError::InvalidConfig(format!(
                "reloaded model shape (dim {}, window {}, horizon {}, events {}) \
                 does not match the serving shape (dim {}, window {}, horizon {}, events {})",
                new.input_dim,
                new.window,
                new.horizon,
                new.num_events,
                old.input_dim,
                old.window,
                old.horizon,
                old.num_events
            )));
        }
        if state.num_events() != new.num_events {
            return Err(CoreError::ShapeMismatch {
                what: "reloaded conformal state events",
                expected: new.num_events,
                got: state.num_events(),
            });
        }
        self.plan = InferencePlan::compile(&model, self.plan.lane());
        self.state = state;
        Ok(())
    }

    /// Attaches a telemetry recorder. Every batch adds its frame count
    /// to `stream.frames`; gated frames accumulate in the sampler and flush
    /// into `stream.frames_skipped` in one batch per decision (so the
    /// counter trails the true skip count by at most one horizon's
    /// frames); each decision records its latency into
    /// `stream.decision_seconds`, its model-forward and conformal stage
    /// latencies into the `inference` / `conformal` series of
    /// `stream.stage_seconds` (a window scored in a batch of `b` windows
    /// takes `1/b` of the batch's forward as its share; carried decisions
    /// skip the stage series and bump `stream.decisions_carried`
    /// instead), sets the
    /// `stream.window_len` gauge to the window length it scored, and
    /// splits the horizon's frames into `stream.frames_relayed` /
    /// `stream.frames_filtered`.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// Sets (or clears) the ambient trace id. While set, stage
    /// observations carry it as a histogram exemplar, tying tail-latency
    /// buckets back to the client push that produced them. Purely
    /// observational: decisions are bit-identical with or without it.
    pub fn set_trace(&mut self, trace: Option<u64>) {
        self.trace = trace;
    }

    /// Feeds one frame's features. Returns a decision when this frame is a
    /// prediction anchor: the one-row case of
    /// [`OnlinePredictor::push_frames`].
    ///
    /// Under a [`SamplingPolicy`] whose gate can close a low-motion frame is
    /// acknowledged but not encoded: the stream position (and hence the
    /// anchor cadence) advances, the window buffer does not. An anchor
    /// whose candidate window drifted less than the gate threshold from
    /// the last scored anchor's window (per-dimension window means, see
    /// [`window_drift`](crate::sampling::window_drift)) reuses that
    /// anchor's predictions without a model forward. Carried predictions
    /// are an approximation the conformal guarantee still covers,
    /// because calibration drives the same stepper over the
    /// calibration split (see
    /// [`sampled_records`](crate::sampling::sampled_records)) — and the
    /// whole trajectory remains a pure function of the frame sequence
    /// and the policy, so decisions are bit-reproducible at any worker
    /// count. The gate stays open until the window first fills, so
    /// warmup is identical under every policy.
    pub fn push_frame(&mut self, features: impl FrameRow) -> Option<HorizonDecision> {
        let mut decision = None;
        self.push_frames(std::iter::once(features), |d| decision = Some(d));
        decision
    }

    /// Feeds a batch of frames in stream order, handing each decision to
    /// `emit` as its anchor fires. The decisions, and the state the batch
    /// leaves ([`OnlinePredictor::export_state`], snapshots, every
    /// fingerprint), are those of [`OnlinePredictor::push_frame`] called
    /// once per row: the batch end is a read point.
    ///
    /// Under a policy whose gate cannot close (`Fixed`, a threshold of
    /// 0) a full ring keeps only the frames a read will see — the
    /// `M`-frame window before each anchor, and the last `M` frames of
    /// the batch. The frames before those are passed over by position
    /// (see [`crate::sampling`]'s anchor stepper): never copied, and a
    /// row still in wire form is never decoded. A gate that can close
    /// reads every frame, so it is fed every frame.
    pub fn push_frames<I>(&mut self, rows: I, mut emit: impl FnMut(HorizonDecision))
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
        I::Item: FrameRow,
    {
        let mut rows = rows.into_iter();
        self.count_frames(rows.len());
        let mut scratch = std::mem::take(&mut self.scratch);
        while let Some(m) = self.advance(&mut rows, &mut emit) {
            self.inference_started();
            let scores = self.plan.forward(self.window(m), &mut scratch);
            self.inference_ended(1);
            emit(self.finish(m, scores));
        }
        self.scratch = scratch;
    }

    /// Adds a batch of `frames` frames to `stream.frames`.
    pub(crate) fn count_frames(&self, frames: usize) {
        if let Some(t) = &self.telemetry {
            t.add("stream.frames", frames as u64);
        }
    }

    /// Feeds `rows` up to the next anchor whose window needs the encoder,
    /// handing every anchor carried on the way to `emit`, and returns
    /// that window's length `m`: the window is
    /// [`OnlinePredictor::window`]`(m)`, and [`OnlinePredictor::finish`]
    /// decides the anchor from its scores. `None` once `rows` runs out.
    ///
    /// Under a policy whose gate cannot close a full ring keeps only the
    /// frames a read will see (see [`OnlinePredictor::push_frames`]).
    pub(crate) fn advance<I>(
        &mut self,
        rows: &mut I,
        emit: &mut impl FnMut(HorizonDecision),
    ) -> Option<usize>
    where
        I: ExactSizeIterator,
        I::Item: FrameRow,
    {
        let gates = self.stepper.sampler.policy().gates();
        loop {
            let unread = self.stepper.skip_unread(rows.len());
            if unread > 0 {
                rows.nth(unread - 1);
            }
            let row = rows.next()?;
            let Some(m) = self.stepper.step(row.features(&mut self.row)) else {
                continue;
            };
            // A gate that cannot close carries no anchor: every anchor is
            // scored straight off the ring — no candidate window to build
            // and no memo to keep.
            if !gates {
                self.inference = 0.0;
                return Some(m);
            }
            let started = self.now();
            let Some(memo) = self.stepper.carry(m) else {
                self.inference = self.since(started);
                return Some(m);
            };
            let predictions = memo.payload.clone();
            let decision = self.decision(predictions);
            self.observe(&decision, m, self.since(started), None);
            emit(decision);
        }
    }

    /// The window of the anchor [`OnlinePredictor::advance`] stopped at:
    /// the ring's last `m` rows, oldest first.
    pub(crate) fn window(&self, m: usize) -> impl Iterator<Item = &[f32]> + Clone {
        self.stepper.buffer.last_rows(m)
    }

    /// Decides the anchor [`OnlinePredictor::advance`] stopped at, of
    /// window length `m`, from its window's `scores` (`K x (1 + H)`, as
    /// [`InferencePlan::forward_rows`] writes one window's).
    pub(crate) fn finish(&mut self, m: usize, scores: &[f32]) -> HorizonDecision {
        let started = self.now();
        scores_into(&mut self.scored.scores, scores, self.plan.head_len());
        self.scored.anchor = self.stepper.stream_pos - 1;
        let mut predictions = self.state.predict(&self.scored, &self.strategy);
        let hit = self.scored.scores.iter().any(|s| s.b >= HIT_TAU1);
        if self.stepper.sampler.policy().gates() {
            predictions = self.stepper.memoize(m, predictions, hit).payload.clone();
        } else {
            self.stepper.sampler.observe_hit(hit);
        }
        let decision = self.decision(predictions);
        let conformal = self.since(started);
        let stages = (self.inference, conformal);
        self.observe(&decision, m, self.inference + conformal, Some(stages));
        decision
    }

    /// The plan this predictor scores on.
    pub(crate) fn plan(&self) -> &InferencePlan {
        &self.plan
    }

    /// How many anchors the next `frames` frames hold.
    pub(crate) fn anchors_in(&self, frames: usize) -> usize {
        self.stepper.anchors_in(frames as u64) as usize
    }

    /// Marks the start of the forward that scores the pending window.
    pub(crate) fn inference_started(&mut self) {
        self.mark = self.now();
    }

    /// Adds the pending window's share of the forward marked by
    /// [`OnlinePredictor::inference_started`], one of `b` windows it
    /// scored, to the window's inference stage.
    pub(crate) fn inference_ended(&mut self, b: usize) {
        self.inference += self.since(self.mark) / b as f64;
    }

    /// The recorder's clock, when there is a recorder.
    fn now(&self) -> Option<f64> {
        self.telemetry.as_deref().map(Telemetry::now)
    }

    /// Seconds on the recorder's clock since `t0` (`0` without one).
    fn since(&self, t0: Option<f64>) -> f64 {
        self.now().zip(t0).map_or(0.0, |(t, t0)| t - t0)
    }

    /// The decision at the anchor the stepper just reached.
    fn decision(&self, predictions: Vec<IntervalPrediction>) -> HorizonDecision {
        HorizonDecision {
            anchor: self.stepper.stream_pos - 1,
            predictions,
            degradation: DegradationTag::None,
        }
    }

    /// Records a decision of window length `m` that took `seconds`:
    /// `stages` holds a scored anchor's `(inference, conformal)` stage
    /// seconds, and a carried anchor has none.
    fn observe(
        &mut self,
        decision: &HorizonDecision,
        m: usize,
        seconds: f64,
        stages: Option<(f64, f64)>,
    ) {
        let Some(t) = &self.telemetry else { return };
        t.add("stream.decisions", 1);
        // Skips accumulate in the sampler and flush here in one batch
        // per decision, keeping gated streams' per-frame cost identical
        // to Fixed's.
        let skipped = self.stepper.sampler.frames_skipped();
        if skipped > self.skipped_flushed {
            t.add("stream.frames_skipped", skipped - self.skipped_flushed);
            self.skipped_flushed = skipped;
        }
        t.gauge_set("stream.window_len", m as f64);
        t.observe("stream.decision_seconds", seconds);
        match (stages, self.trace) {
            (Some((infer, conformal)), Some(id)) => {
                t.observe_traced("stream.stage_seconds", "inference", infer, id);
                t.observe_traced("stream.stage_seconds", "conformal", conformal, id);
            }
            (Some((infer, conformal)), None) => {
                t.observe_labeled("stream.stage_seconds", "inference", infer);
                t.observe_labeled("stream.stage_seconds", "conformal", conformal);
            }
            (None, _) => t.add("stream.decisions_carried", 1),
        }
        let relayed: u64 = decision
            .segments()
            .iter()
            .map(|&(_, s, e)| e.saturating_sub(s) + 1)
            .sum();
        t.add("stream.frames_relayed", relayed);
        t.add(
            "stream.frames_filtered",
            self.stepper.horizon.saturating_sub(relayed),
        );
    }

    /// Drains a full feature matrix through the predictor, starting at
    /// row `from`, collecting every decision: one
    /// [`OnlinePredictor::push_frames`] batch, so under a policy whose
    /// gate cannot close only the rows an anchor reads are copied into
    /// the ring.
    pub fn run_over(&mut self, features: &Matrix, from: usize) -> Vec<HorizonDecision> {
        let mut out = Vec::new();
        // The rows as whole chunks of the storage, so passing over them
        // costs nothing per row. A matrix with no columns holds no rows.
        let rows = features.as_slice().chunks_exact(features.cols().max(1));
        self.push_frames(rows.skip(from), |d| out.push(d));
        out
    }
}

/// One frame's features as a batch hands them to
/// [`OnlinePredictor::push_frames`]: a slice of `f32`s in memory, or a
/// row still in wire form ([`F32Run`]), decoded only if a read will see
/// it.
pub trait FrameRow {
    /// The features as a slice, decoding into `scratch` if they are not
    /// one already.
    fn features<'a>(&'a self, scratch: &'a mut Vec<f32>) -> &'a [f32];
}

impl<T: AsRef<[f32]>> FrameRow for T {
    #[inline]
    fn features<'a>(&'a self, _: &'a mut Vec<f32>) -> &'a [f32] {
        self.as_ref()
    }
}

impl FrameRow for F32Run<'_> {
    #[inline]
    fn features<'a>(&'a self, scratch: &'a mut Vec<f32>) -> &'a [f32] {
        scratch.clear();
        scratch.extend(self.iter());
        scratch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{ExperimentConfig, TaskRun};
    use crate::tasks::task;

    #[test]
    fn decisions_fire_once_per_horizon() {
        let run = TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(61));
        let horizon = run.horizon;
        let window = run.window;
        let features = run.features.clone();
        let mut online =
            OnlinePredictor::new(run.model, run.state, Strategy::Ehcr { c: 0.9, alpha: 0.5 });

        let n = window + horizon * 3 + 10;
        let mut anchors = Vec::new();
        for r in 0..n {
            if let Some(d) = online.push_frame(features.row(r)) {
                anchors.push(d.anchor);
            }
        }
        // First anchor when the window fills, then every `horizon` frames.
        assert_eq!(anchors.len(), 4);
        assert_eq!(anchors[0], (window - 1) as u64);
        for w in anchors.windows(2) {
            assert_eq!(w[1] - w[0], horizon as u64);
        }
    }

    #[test]
    fn online_matches_batch_predictions() {
        // Feeding the same frames online must reproduce the batch pipeline's
        // predictions for the same anchors.
        let run = TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(62));
        let strategy = Strategy::Ehcr { c: 0.9, alpha: 0.5 };
        let features = run.features.clone();
        let state = run.state.clone();

        let mut online = OnlinePredictor::new(run.model, state.clone(), strategy);
        let decisions = online.run_over(&features, 0);
        assert!(!decisions.is_empty());

        // Batch path: extract the record at the first online anchor.
        use eventhit_video::records::extract_record;
        let d = &decisions[1];
        let record = extract_record(&run.stream, &features, d.anchor, run.window, run.horizon);
        // Re-load the model via a fresh run? The model moved into `online`;
        // instead compare against scores recomputed through the online
        // model by replaying.
        let mut online2 = OnlinePredictor::new(
            {
                // Rebuild an identical model from the same experiment.
                let run2 = TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(62));
                run2.model
            },
            state,
            strategy,
        );
        let decisions2 = online2.run_over(&features, 0);
        assert_eq!(decisions[1], decisions2[1]);
        assert_eq!(record.anchor, d.anchor);
    }

    #[test]
    fn telemetry_counts_frames_and_decisions() {
        use eventhit_telemetry::Telemetry;
        use std::sync::Arc;

        let run = TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(61));
        let horizon = run.horizon;
        let window = run.window;
        let features = run.features.clone();
        let mut online =
            OnlinePredictor::new(run.model, run.state, Strategy::Ehcr { c: 0.9, alpha: 0.5 });
        let tel = Arc::new(Telemetry::new());
        online.set_telemetry(Arc::clone(&tel));

        let n = window + horizon * 2 + 1;
        let decisions = (0..n)
            .filter_map(|r| online.push_frame(features.row(r)))
            .count();
        let snap = tel.snapshot();
        assert_eq!(snap.counter("stream.frames"), Some(n as u64));
        assert_eq!(snap.counter("stream.decisions"), Some(decisions as u64));
        let h = snap.histogram("stream.decision_seconds").unwrap();
        assert_eq!(h.count(), decisions as u64);
        // Per decision, relayed + filtered covers at least the horizon
        // (overlapping event segments can only push it above).
        let relayed = snap.counter("stream.frames_relayed").unwrap_or(0);
        let filtered = snap.counter("stream.frames_filtered").unwrap_or(0);
        assert!(relayed + filtered >= decisions as u64 * horizon as u64);
    }

    #[test]
    fn export_restore_resumes_bit_identically() {
        // Predictor A runs straight through; predictor B is checkpointed
        // mid-stream, rebuilt from scratch, restored, and resumed. Their
        // decisions must match bit-for-bit — the invariant durable
        // serving recovery relies on.
        let strategy = Strategy::Ehcr { c: 0.9, alpha: 0.5 };
        let run = TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(64));
        let features = run.features.clone();
        let cut = run.window + run.horizon + 3; // mid-horizon, buffer full
        let n = (run.window + run.horizon * 4).min(features.rows());

        let mut straight = OnlinePredictor::new(run.model.clone(), run.state.clone(), strategy);
        let baseline: Vec<_> = (0..n)
            .filter_map(|r| straight.push_frame(features.row(r)))
            .collect();

        let mut first = OnlinePredictor::new(run.model.clone(), run.state.clone(), strategy);
        let mut decisions: Vec<_> = (0..cut)
            .filter_map(|r| first.push_frame(features.row(r)))
            .collect();
        let st = first.export_state();
        assert_eq!(st.fingerprint(), first.export_state().fingerprint());
        drop(first);

        let mut resumed = OnlinePredictor::new(run.model, run.state, strategy);
        resumed.restore_state(&st).unwrap();
        assert_eq!(resumed.export_state(), st, "restore must round-trip");
        decisions.extend((cut..n).filter_map(|r| resumed.push_frame(features.row(r))));

        assert_eq!(decisions, baseline);
    }

    #[test]
    fn fingerprint_of_a_wrapped_ring_is_the_deque_versions() {
        // Eleven frames through a four-slot ring leave it wrapped with the
        // oldest row in slot 3. The constant is what the `VecDeque`-backed
        // buffer produced for the same frames (computed at the commit
        // before the flat ring), so snapshots written then still verify.
        let mut buf = WindowBuffer::new(4, 3);
        for i in 0..11u32 {
            buf.push([i as f32 * 0.25 - 1.0, (i * i) as f32, -(i as f32) / 3.0]);
        }
        let st = PredictorState {
            rows: buf.snapshot_rows(),
            frames_seen: buf.frames_seen(),
            countdown: 2,
        };
        assert_eq!(st.rows[0][1], 49.0, "oldest buffered frame is frame 7");
        assert_eq!(st.fingerprint(), 0x4598_609b_8fce_bf7d);
    }

    #[test]
    fn restore_rejects_mismatched_state() {
        let run = TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(64));
        let horizon = run.horizon as u64;
        let dim = run.features.cols();
        let mut p =
            OnlinePredictor::new(run.model, run.state, Strategy::Ehcr { c: 0.9, alpha: 0.5 });
        let bad_dim = PredictorState {
            rows: vec![vec![0.0; dim + 1]],
            frames_seen: 1,
            countdown: 0,
        };
        assert!(p.restore_state(&bad_dim).is_err());
        let bad_countdown = PredictorState {
            rows: vec![],
            frames_seen: 0,
            countdown: horizon,
        };
        assert!(p.restore_state(&bad_countdown).is_err());
    }

    #[test]
    fn restore_rejects_a_state_off_its_own_cadence() {
        let run = TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(64));
        let (window, horizon) = (run.window as u64, run.horizon as u64);
        let features = run.features.clone();
        let mut p =
            OnlinePredictor::new(run.model, run.state, Strategy::Ehcr { c: 0.9, alpha: 0.5 });
        // A true state, mid-horizon with a full ring: 7 frames past the
        // second anchor, so its countdown is H - 1 - 7.
        let seen = window + horizon + 7;
        p.push_frames((0..seen as usize).map(|r| features.row(r)), drop);
        let good = p.export_state();
        assert_eq!(good.countdown, horizon - 8);
        let rows = |n: usize| good.rows[..n].to_vec();
        let cadence = |p: &mut OnlinePredictor, st: &PredictorState| match p.restore_state(st) {
            Err(CoreError::CadenceMismatch {
                what,
                expected,
                got,
            }) => Some((what, expected, got)),
            Ok(()) => None,
            Err(e) => panic!("{e}"),
        };
        let m = window as usize;
        for (st, want) in [
            // A full ring claimed by a stream that has not filled one.
            (
                PredictorState {
                    rows: rows(m),
                    frames_seen: window - 1,
                    countdown: 0,
                },
                ("restored window rows", window - 1, window),
            ),
            // A full stream that lost a row.
            (
                PredictorState {
                    rows: rows(m - 1),
                    ..good.clone()
                },
                ("restored window rows", window, window - 1),
            ),
            // The countdown shifted by one frame, either way.
            (
                PredictorState {
                    countdown: good.countdown + 1,
                    ..good.clone()
                },
                ("restored countdown", horizon - 8, horizon - 7),
            ),
            (
                PredictorState {
                    countdown: good.countdown - 1,
                    ..good.clone()
                },
                ("restored countdown", horizon - 8, horizon - 9),
            ),
            // A countdown before the window fills.
            (
                PredictorState {
                    rows: rows(3),
                    frames_seen: 3,
                    countdown: 1,
                },
                ("restored countdown", 0, 1),
            ),
        ] {
            assert_eq!(cadence(&mut p, &st), Some(want), "{st:?}");
            assert_eq!(p.export_state(), good, "a refused restore mutates nothing");
        }
        // The edges of the rule: the ring just full, one horizon later,
        // and a stream still filling.
        for (frames_seen, countdown, n) in [
            (window, horizon - 1, m),
            (window + horizon - 1, 0, m),
            (window + horizon, horizon - 1, m),
            (3, 0, 3),
            (0, 0, 0),
        ] {
            let st = PredictorState {
                rows: rows(n),
                frames_seen,
                countdown,
            };
            assert_eq!(cadence(&mut p, &st), None, "{st:?}");
            assert_eq!(p.export_state(), st);
        }
    }

    #[test]
    fn reload_model_swaps_weights_and_keeps_cadence() {
        let strategy = Strategy::Ehcr { c: 0.9, alpha: 0.5 };
        let run_a = TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(65));
        let run_b = TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(66));
        let features = run_a.features.clone();
        let n = run_a.window + run_a.horizon * 3;
        let swap_at = run_a.window + run_a.horizon + 1;

        let mut p = OnlinePredictor::new(run_a.model.clone(), run_a.state.clone(), strategy);
        let mut anchors = Vec::new();
        for r in 0..n {
            if r == swap_at {
                p.reload_model(run_b.model.clone(), run_b.state.clone())
                    .unwrap();
            }
            if let Some(d) = p.push_frame(features.row(r)) {
                anchors.push(d.anchor);
            }
        }
        // The anchor cadence is untouched by the swap.
        assert_eq!(anchors[0], (run_a.window - 1) as u64);
        for w in anchors.windows(2) {
            assert_eq!(w[1] - w[0], run_a.horizon as u64);
        }

        // A config-incompatible model is rejected.
        let run_small = TaskRun::execute(&task("TA1").unwrap(), &ExperimentConfig::quick(67));
        let cfg_a = run_a.model.config().clone();
        let cfg_s = run_small.model.config().clone();
        let mut q = OnlinePredictor::new(run_a.model, run_a.state, strategy);
        if (
            cfg_s.input_dim,
            cfg_s.window,
            cfg_s.horizon,
            cfg_s.num_events,
        ) != (
            cfg_a.input_dim,
            cfg_a.window,
            cfg_a.horizon,
            cfg_a.num_events,
        ) {
            assert!(q.reload_model(run_small.model, run_small.state).is_err());
        }
    }

    #[test]
    fn predictors_built_from_clones_score_on_one_plan() {
        let strategy = Strategy::Ehcr { c: 0.9, alpha: 0.5 };
        let run_a = TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(65));
        let run_b = TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(66));
        for lane in [InferenceLane::Exact, InferenceLane::Quantized] {
            let mut lanes: Vec<OnlinePredictor> = (0..4)
                .map(|_| {
                    OnlinePredictor::with_lane(
                        run_a.model.clone(),
                        run_a.state.clone(),
                        strategy,
                        lane,
                    )
                })
                .collect();
            let (first, rest) = lanes.split_first().unwrap();
            assert!(rest.iter().all(|p| p.plan.shares_weights_with(&first.plan)));

            // A hot reload hands every lane a clone of the new model, as
            // the server does: one compile, and the old plan is let go.
            let old = first.plan.clone();
            for p in &mut lanes {
                p.reload_model(run_b.model.clone(), run_b.state.clone())
                    .unwrap();
            }
            let (first, rest) = lanes.split_first().unwrap();
            assert!(!first.plan.shares_weights_with(&old));
            assert_eq!(first.plan.lane(), lane);
            assert!(rest.iter().all(|p| p.plan.shares_weights_with(&first.plan)));
        }
    }

    #[test]
    fn segments_are_absolute() {
        let d = HorizonDecision {
            anchor: 100,
            predictions: vec![
                IntervalPrediction {
                    present: true,
                    start: 5,
                    end: 10,
                },
                IntervalPrediction::absent(),
            ],
            degradation: DegradationTag::None,
        };
        assert_eq!(d.segments(), vec![(0usize, 105u64, 110u64)]);
    }
}

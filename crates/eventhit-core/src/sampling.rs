//! Content-adaptive frame sampling and query-aware windowing.
//!
//! Every stream used to be encoded frame-by-frame at a fixed cadence.
//! This module adds the two measurement-driven levers from the
//! RedunCut / Opinfer / VID-WIN line of work (see `PAPERS.md`):
//!
//! - a **feature-delta gate** in front of the encoder: a frame whose
//!   covariates barely moved relative to the last *accepted* frame is
//!   acknowledged but not pushed into the collection window (the window
//!   keeps carrying the previous content — "duplicate-carry"). A
//!   deterministic hysteresis band keeps near-threshold streams from
//!   oscillating, and an optional `max_run` bound force-refreshes the
//!   reference after too many consecutive skips. A second,
//!   window-level drift test drives the **anchor-level carry**: a
//!   decision anchor whose candidate window's per-dimension means moved
//!   less than the threshold from the last *scored* anchor's window
//!   ([`window_drift`]) reuses that anchor's scores and predictions
//!   without running the encoder at all, up to `max_carry` consecutive
//!   anchors — this is where the frames/sec win comes from, because the
//!   encoder forward dominates a lane's per-frame cost. Averaging over
//!   the window rows suppresses per-frame noise by `~sqrt(m)` while a
//!   sustained event shift moves the mean almost one-for-one, so
//!   carries survive static stretches but break when event content
//!   enters the window.
//! - a **query-aware collection window**: the number of window rows the
//!   encoder actually consumes per anchor, `m`, shrinks toward `m_min`
//!   while the stream is quiet and grows back toward `m_max` when events
//!   fire, driven by an EMA of the raw existence-score hit rate.
//!
//! Both levers are pure functions of the frame sequence and the policy
//! parameters — no clocks, no randomness — so decisions stay
//! bit-reproducible per seed and across worker counts (the property
//! every other layer of this workspace is built on). The anchor cadence
//! is *identical* under every policy: gated frames still advance the
//! stream position, so a gated lane emits decisions at exactly the
//! frames a `Fixed` lane would — only the window content (and hence the
//! scores) differs.
//!
//! Conformal validity transfers by recalibration, exactly as for the
//! int8 lane: [`TaskRun::state_for_sampling`](crate::experiment::TaskRun::state_for_sampling)
//! rescores the calibration split on *gated* trajectories (simulated by
//! [`sampled_records`]) and refits, so the nonconformity quantiles come
//! from the same score distribution the deployed gated lane produces.
//! The anchor cadence and the carry-or-score rule are written once, in
//! this module's crate-private anchor stepper: the deployed predictor
//! holds one and [`sampled_records`] drives one, so the two cannot
//! drift apart. The model and worked numbers live in `docs/SAMPLING.md`.

use eventhit_nn::matrix::Matrix;
use eventhit_nn::quant::InferenceLane;
use eventhit_video::online::WindowBuffer;
use eventhit_video::records::Record;

use crate::model::{window_rows, EventHit, InferencePlan};

/// Raw-score existence threshold used for the window-adaptation hit
/// indicator (`hit = max_k b_k >= HIT_TAU1`). Deliberately taken from
/// the *raw* model scores, not the conformal decision, so the `m`
/// trajectory never depends on the conformal state — which is what
/// keeps gated calibration non-circular.
pub const HIT_TAU1: f64 = 0.5;

/// Parameters of the feature-delta gate.
#[derive(Debug, Clone, PartialEq)]
pub struct GateParams {
    /// Mean-absolute-delta threshold below which a frame is gated
    /// (skipped). Features here are ~unit scale; see `docs/SAMPLING.md`
    /// for how to pick this for your detector.
    pub threshold: f32,
    /// Hysteresis exit multiplier (`>= 1`). While the gate is closed
    /// (skipping), a frame must move by at least
    /// `threshold * hysteresis` to re-open it — the band that keeps
    /// near-threshold streams from oscillating.
    pub hysteresis: f32,
    /// Force-accept after this many consecutive skips (`0` = unbounded).
    /// Bounds how stale the *window content* can get.
    pub max_run: u32,
    /// Largest run of consecutive *carried anchors*: an anchor whose
    /// candidate window drifted less than `threshold` from the last
    /// scored anchor's window (per-dimension window means, see
    /// [`window_drift`]) reuses that anchor's scores and predictions
    /// outright (duplicate-carry), skipping the encoder forward
    /// entirely. After `max_carry` consecutive carries the next anchor
    /// is force-scored, bounding decision staleness to `max_carry`
    /// horizons. `0` disables carrying (every anchor is scored).
    pub max_carry: u32,
}

impl Default for GateParams {
    fn default() -> Self {
        GateParams {
            threshold: 0.1,
            hysteresis: 1.25,
            max_run: 64,
            max_carry: 4,
        }
    }
}

impl GateParams {
    /// Whether an anchor whose candidate window drifted by `drift`
    /// (per-dimension window means, see [`window_drift`]) from the last
    /// *scored* anchor's window may carry that anchor's scores, given
    /// `run` anchors have already been carried consecutively.
    pub fn carries(&self, drift: f32, run: u32) -> bool {
        self.max_carry > 0 && run < self.max_carry && drift < self.threshold
    }
}

/// Parameters of the adaptive collection window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowParams {
    /// Smallest window the encoder consumes per anchor (`>= 1`).
    pub m_min: usize,
    /// Largest window (`0` resolves to the model's configured `M` when
    /// the policy is attached to a predictor).
    pub m_max: usize,
    /// EMA smoothing factor in `(0, 1]` for the hit-rate estimate
    /// (`ema = (1 - beta) * ema + beta * hit`, updated once per anchor).
    pub beta: f64,
}

impl Default for WindowParams {
    fn default() -> Self {
        WindowParams {
            m_min: 4,
            m_max: 0,
            beta: 0.2,
        }
    }
}

/// Per-stream sampling policy: how frames are admitted into the
/// collection window and how many window rows the encoder consumes.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum SamplingPolicy {
    /// Every frame is encoded, full `M`-row windows — the historical
    /// behaviour, bit-identical to builds without this module.
    #[default]
    Fixed,
    /// Feature-delta gating with a fixed `M`-row window.
    DeltaGate(GateParams),
    /// Feature-delta gating plus the query-aware window: `m` adapts in
    /// `[m_min, m_max]` from the EMA of the raw hit rate.
    Adaptive {
        /// The gate in front of the encoder.
        gate: GateParams,
        /// The window-adaptation law.
        window: WindowParams,
    },
}

impl SamplingPolicy {
    /// True for the [`SamplingPolicy::Fixed`] policy.
    pub fn is_fixed(&self) -> bool {
        matches!(self, SamplingPolicy::Fixed)
    }

    /// The gate parameters, when the policy gates at all.
    pub fn gate(&self) -> Option<&GateParams> {
        match self {
            SamplingPolicy::Fixed => None,
            SamplingPolicy::DeltaGate(g) => Some(g),
            SamplingPolicy::Adaptive { gate, .. } => Some(gate),
        }
    }

    /// Parses a CLI policy spec:
    ///
    /// - `fixed`
    /// - `delta:THRESHOLD[:HYSTERESIS[:MAX_RUN[:MAX_CARRY]]]`
    /// - `adaptive:THRESHOLD:M_MIN[:M_MAX[:BETA]]` (`M_MAX` `0` = model `M`)
    ///
    /// Omitted fields take the [`GateParams`] / [`WindowParams`]
    /// defaults. Returns a human-readable message on malformed specs.
    pub fn parse(spec: &str) -> Result<SamplingPolicy, String> {
        let mut parts = spec.split(':');
        let kind = parts.next().unwrap_or("");
        let fields: Vec<&str> = parts.collect();
        let num = |s: &str, what: &str| -> Result<f64, String> {
            s.parse::<f64>()
                .map_err(|_| format!("bad {what} {s:?} in sampling spec {spec:?}"))
        };
        match kind {
            "fixed" if fields.is_empty() => Ok(SamplingPolicy::Fixed),
            "fixed" => Err(format!("fixed takes no parameters, got {spec:?}")),
            "delta" | "adaptive" => {
                if fields.is_empty() {
                    return Err(format!("{kind} needs a threshold, e.g. {kind}:0.1"));
                }
                let mut gate = GateParams {
                    threshold: num(fields[0], "threshold")? as f32,
                    ..GateParams::default()
                };
                if !(gate.threshold >= 0.0 && gate.threshold.is_finite()) {
                    return Err(format!("threshold must be finite and >= 0 in {spec:?}"));
                }
                if kind == "delta" {
                    if let Some(h) = fields.get(1) {
                        gate.hysteresis = num(h, "hysteresis")? as f32;
                    }
                    if let Some(r) = fields.get(2) {
                        gate.max_run = num(r, "max_run")? as u32;
                    }
                    if let Some(c) = fields.get(3) {
                        gate.max_carry = num(c, "max_carry")? as u32;
                    }
                    if fields.len() > 4 {
                        return Err(format!("too many fields in {spec:?}"));
                    }
                    if !(gate.hysteresis >= 1.0 && gate.hysteresis.is_finite()) {
                        return Err(format!("hysteresis must be >= 1 in {spec:?}"));
                    }
                    Ok(SamplingPolicy::DeltaGate(gate))
                } else {
                    if fields.len() < 2 {
                        return Err(
                            "adaptive needs threshold and m_min, e.g. adaptive:0.1:4".to_string()
                        );
                    }
                    let mut window = WindowParams {
                        m_min: num(fields[1], "m_min")? as usize,
                        ..WindowParams::default()
                    };
                    if let Some(m) = fields.get(2) {
                        window.m_max = num(m, "m_max")? as usize;
                    }
                    if let Some(b) = fields.get(3) {
                        window.beta = num(b, "beta")?;
                    }
                    if fields.len() > 4 {
                        return Err(format!("too many fields in {spec:?}"));
                    }
                    if window.m_min == 0 {
                        return Err(format!("m_min must be >= 1 in {spec:?}"));
                    }
                    if !(window.beta > 0.0 && window.beta <= 1.0) {
                        return Err(format!("beta must be in (0, 1] in {spec:?}"));
                    }
                    Ok(SamplingPolicy::Adaptive { gate, window })
                }
            }
            _ => Err(format!(
                "unknown sampling policy {spec:?} \
                 (expected fixed | delta:… | adaptive:…)"
            )),
        }
    }

    /// A short stable label for telemetry, TSV columns, and logs
    /// (`fixed`, `delta@0.1`, `adaptive@0.1/4-10`).
    pub fn label(&self) -> String {
        match self {
            SamplingPolicy::Fixed => "fixed".into(),
            SamplingPolicy::DeltaGate(g) => format!("delta@{}", g.threshold),
            SamplingPolicy::Adaptive { gate, window } => {
                format!(
                    "adaptive@{}/{}-{}",
                    gate.threshold,
                    window.m_min,
                    if window.m_max == 0 {
                        "M".into()
                    } else {
                        window.m_max.to_string()
                    }
                )
            }
        }
    }
}

/// Mean absolute per-dimension difference between two feature vectors —
/// the gate's motion proxy. `0` for identical frames; features in this
/// workspace are ~unit scale, so deltas land in roughly `[0, 1]`.
pub fn mean_abs_delta(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    if a.is_empty() {
        return 0.0;
    }
    let sum: f32 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
    sum / a.len() as f32
}

/// Mean absolute difference between the per-dimension *window means* of
/// two covariate windows — the anchor-level carry's drift metric.
/// Averaging the `m` window rows first suppresses zero-mean per-frame
/// noise by roughly `sqrt(m)` while a sustained content shift moves the
/// mean almost one-for-one, which is exactly the separation the carry
/// needs: static-but-noisy windows read near zero, windows that event
/// content has entered read near the event amplitude. Windows of
/// different shapes never carry (`f32::INFINITY`). Costs `2·m·d` adds
/// per call — noise against the tens of microseconds of encoder forward
/// it can elide.
pub fn window_drift(a: &Matrix, b: &Matrix) -> f32 {
    let (m, d) = (a.rows(), a.cols());
    if m != b.rows() || d != b.cols() || m == 0 || d == 0 {
        return f32::INFINITY;
    }
    let mut sums = vec![0.0f32; d];
    for r in 0..m {
        for (s, (x, y)) in sums.iter_mut().zip(a.row(r).iter().zip(b.row(r))) {
            *s += x - y;
        }
    }
    let total: f32 = sums.iter().map(|s| s.abs()).sum();
    total / (m * d) as f32
}

/// The per-stream sampling state machine: gate state, skip-run length,
/// the last accepted reference frame, and the adaptive window length.
/// Deterministic by construction — every transition is a pure function
/// of the pushed frames and the policy parameters. One lives inside
/// the anchor stepper that each
/// [`OnlinePredictor`](crate::streaming::OnlinePredictor) holds and the
/// offline calibration simulation ([`sampled_records`]) drives.
#[derive(Debug, Clone)]
pub struct Sampler {
    policy: SamplingPolicy,
    /// The model's configured collection window `M` (buffer capacity and
    /// the resolved `m_max`).
    base_window: usize,
    /// True while the gate is closed (currently skipping frames).
    gating: bool,
    /// Length of the current consecutive-skip run.
    run: u32,
    /// The last accepted frame — the delta reference.
    reference: Vec<f32>,
    /// Current window length `m` the encoder consumes per anchor.
    m: usize,
    /// EMA of the anchor hit rate (adaptive policy only).
    ema: f64,
    /// Resolved `[m_min, m_max]` bounds.
    m_min: usize,
    m_max: usize,
    beta: f64,
    skipped: u64,
    admitted: u64,
}

impl Sampler {
    /// Builds the state machine for `policy` against a model whose
    /// collection window is `base_window` frames. An adaptive policy's
    /// `m_max = 0` resolves to `base_window`; bounds are clamped into
    /// `[1, base_window]`.
    pub fn new(policy: SamplingPolicy, base_window: usize) -> Sampler {
        assert!(base_window > 0, "collection window must be positive");
        let (m_min, m_max, beta) = match &policy {
            SamplingPolicy::Adaptive { window, .. } => {
                let m_max = if window.m_max == 0 {
                    base_window
                } else {
                    window.m_max.min(base_window)
                };
                (window.m_min.clamp(1, m_max), m_max, window.beta)
            }
            _ => (base_window, base_window, 1.0),
        };
        Sampler {
            policy,
            base_window,
            gating: false,
            run: 0,
            reference: Vec::new(),
            // Start at the full window: conservative until the hit EMA
            // says the stream is quiet.
            m: m_max,
            ema: 1.0,
            m_min,
            m_max,
            beta,
            skipped: 0,
            admitted: 0,
        }
    }

    /// The policy this sampler runs.
    pub fn policy(&self) -> &SamplingPolicy {
        &self.policy
    }

    /// Decides whether a frame is admitted into the collection window.
    /// `warmed` is whether the window buffer was already full *before*
    /// this frame — the gate stays open until the first full window so
    /// the buffer always fills on schedule. Updates the gate state, the
    /// delta reference, and the skip/admit counters.
    pub fn admit(&mut self, features: &[f32], warmed: bool) -> bool {
        let gate = match self.policy.gate() {
            None => {
                self.admitted += 1;
                return true;
            }
            Some(g) => g.clone(),
        };
        if !warmed {
            self.reference = features.to_vec();
            self.admitted += 1;
            return true;
        }
        let delta = mean_abs_delta(features, &self.reference);
        // Hysteresis: once skipping, the exit bar is higher.
        let bar = if self.gating {
            gate.threshold * gate.hysteresis
        } else {
            gate.threshold
        };
        let mut skip = delta < bar;
        if skip && gate.max_run > 0 && self.run >= gate.max_run {
            skip = false; // force-refresh: bound the carry staleness
        }
        if skip {
            self.gating = true;
            self.run += 1;
            self.skipped += 1;
            false
        } else {
            self.gating = false;
            self.run = 0;
            self.reference = features.to_vec();
            self.admitted += 1;
            true
        }
    }

    /// Feeds one anchor's hit indicator (`max_k b_k >= `[`HIT_TAU1`])
    /// into the window-adaptation law. No-op for non-adaptive policies.
    /// Called once per anchor, *after* the anchor was scored (or its
    /// carried scores reused), so the window used at an anchor is always
    /// the pre-update `m`.
    pub fn observe_hit(&mut self, hit: bool) {
        if !matches!(self.policy, SamplingPolicy::Adaptive { .. }) {
            return;
        }
        self.ema = (1.0 - self.beta) * self.ema + self.beta * f64::from(u8::from(hit));
        let span = (self.m_max - self.m_min) as f64;
        self.m = self.m_min + (self.ema * span).round() as usize;
    }

    /// The window length `m` the encoder consumes at the next anchor.
    pub fn window_len(&self) -> usize {
        self.m
    }

    /// The model's configured collection window `M`.
    pub fn base_window(&self) -> usize {
        self.base_window
    }

    /// Frames gated (acknowledged but not encoded) so far.
    pub fn frames_skipped(&self) -> u64 {
        self.skipped
    }

    /// Frames admitted into the window buffer so far.
    pub fn frames_admitted(&self) -> u64 {
        self.admitted
    }

    /// The last accepted frame — the delta reference the gate compares
    /// against, and the anchor-level carry decision's content fingerprint.
    /// Empty until the first frame is admitted.
    pub fn reference(&self) -> &[f32] {
        &self.reference
    }
}

/// The duplicate-carry memo: what the last *scored* anchor saw and what
/// it decided, so a carried anchor can reuse both.
pub(crate) struct CarryMemo<P> {
    /// What scoring produced for the caller to reuse at carried anchors:
    /// the predictions in deployment, nothing in calibration.
    pub(crate) payload: P,
    /// `max_k b_k >= HIT_TAU1` of the scored window (feeds the adaptive
    /// window EMA at carried anchors without rescoring).
    hit: bool,
    /// Window length the memo was scored at.
    m: usize,
    /// The covariate window the memo was scored on — the reference
    /// candidate windows are drift-tested against, and the window a
    /// carried anchor is calibrated on.
    pub(crate) covariates: Matrix,
    /// Consecutive anchors carried off this memo so far.
    run: u32,
}

/// The anchor rule, written once: one stream's stepping state (sampler,
/// window ring, anchor countdown, stream position) and the
/// carry-or-score decision over the memo of the last scored anchor.
/// [`OnlinePredictor`](crate::streaming::OnlinePredictor) holds one and
/// [`sampled_records`] drives one, so calibration scores exactly the
/// windows deployment scores — the identity the conformal guarantee
/// under a gating policy rests on.
pub(crate) struct AnchorStepper<P> {
    /// Gate state, skip runs and the adaptive `m`.
    pub(crate) sampler: Sampler,
    /// The collection-window ring of admitted rows.
    pub(crate) buffer: WindowBuffer,
    /// Frames between anchors.
    pub(crate) horizon: u64,
    /// Frames remaining until the next prediction anchor.
    pub(crate) countdown: u64,
    /// Total frames pushed, *including* gated frames: the anchor cadence
    /// follows the stream, not the ring's push count, so a gated stream
    /// anchors at exactly the frames a `Fixed` one would.
    pub(crate) stream_pos: u64,
    memo: Option<CarryMemo<P>>,
}

impl<P> AnchorStepper<P> {
    /// A stepper at the start of a stream: the first anchor falls on the
    /// frame that fills the `window`-row ring, then one every `horizon`
    /// frames.
    pub(crate) fn new(policy: SamplingPolicy, window: usize, dim: usize, horizon: u64) -> Self {
        AnchorStepper {
            sampler: Sampler::new(policy, window),
            buffer: WindowBuffer::new(window, dim),
            horizon,
            countdown: 0,
            stream_pos: 0,
            memo: None,
        }
    }

    /// Replaces the policy: a fresh gate and adaptive window, no memo.
    /// The ring, the countdown and the stream position stay.
    pub(crate) fn set_policy(&mut self, policy: SamplingPolicy) {
        self.sampler = Sampler::new(policy, self.sampler.base_window());
        self.memo = None;
    }

    /// Feeds one frame: admits it into the ring (or gates it) and
    /// advances the cadence. When this frame is an anchor, returns the
    /// window length `m` to decide it on — read here, *before* the
    /// anchor's EMA update. The warmup frames are always admitted, so
    /// the cadence is identical under every policy.
    #[inline]
    pub(crate) fn step(&mut self, features: &[f32]) -> Option<usize> {
        self.stream_pos += 1;
        let warmed = self.buffer.is_full();
        if self.sampler.admit(features, warmed) {
            self.buffer.push(features);
        }
        if !self.buffer.is_full() {
            return None;
        }
        if self.countdown > 0 {
            self.countdown -= 1;
            return None;
        }
        self.countdown = self.horizon - 1;
        Some(self.sampler.window_len())
    }

    /// Decides a gated anchor on its last `m` admitted rows: if that
    /// window drifted less than the gate threshold from the memo's
    /// (per-dimension window means, same `m`, at most `max_carry` in a
    /// row) the anchor is carried off the memo; otherwise `score` runs on
    /// the window, returning the payload to memoize and the raw hit bit,
    /// and the memo is replaced. Either way the hit bit then feeds the
    /// adaptive window. Returns the memo the anchor resolved to.
    pub(crate) fn carry_or_score(
        &mut self,
        m: usize,
        score: impl FnOnce(&Matrix) -> (P, bool),
    ) -> &CarryMemo<P> {
        let candidate = self.buffer.covariates_last(m);
        let carried = match (self.sampler.policy().gate(), &self.memo) {
            (Some(gate), Some(c)) => {
                c.m == m && gate.carries(window_drift(&candidate, &c.covariates), c.run)
            }
            _ => false,
        };
        if carried {
            self.memo.as_mut().expect("carried implies memo").run += 1;
        } else {
            let (payload, hit) = score(&candidate);
            self.memo = Some(CarryMemo {
                payload,
                hit,
                m,
                covariates: candidate,
                run: 0,
            });
        }
        let memo = self.memo.as_ref().expect("anchor scored or carried");
        self.sampler.observe_hit(memo.hit);
        memo
    }
}

/// Simulates a sampling policy over a full feature matrix and returns
/// each input record rebuilt with the window its anchor would see in
/// deployment: the last `m` admitted rows at a *scored* anchor (where
/// `m` is the adaptive window length at that point of the stream), or
/// the previous scored anchor's window verbatim at a *carried* anchor —
/// scoring a duplicated window reproduces exactly the scores deployment
/// reuses.
///
/// The simulation drives the stepper an
/// [`OnlinePredictor`](crate::streaming::OnlinePredictor) holds through
/// rows `0..=max_anchor` — the same cadence and the same anchor-level
/// carry by construction — so gated calibration windows are
/// bit-identical to what a predictor under the same policy scores.
/// `model`/`lane` are only consulted by the adaptive policy (the hit EMA
/// needs raw scores); `Fixed` returns the records unchanged. A record
/// whose anchor does not fall on the decision cadence gets the fresh
/// last-`m`-rows window at its row.
///
/// # Panics
/// Panics if any record anchor lies outside the feature matrix or
/// before the first full window.
pub fn sampled_records(
    model: &EventHit,
    features: &Matrix,
    records: &[Record],
    policy: &SamplingPolicy,
    lane: InferenceLane,
) -> Vec<Record> {
    if policy.is_fixed() || records.is_empty() {
        return records.to_vec();
    }
    let cfg = model.config();
    let window = cfg.window;
    let max_anchor = records.iter().map(|r| r.anchor).max().unwrap();
    assert!(
        (max_anchor as usize) < features.rows(),
        "record anchor {max_anchor} outside the feature matrix"
    );
    // anchor -> indices of records wanting a window there.
    let mut wanted: std::collections::HashMap<u64, Vec<usize>> = std::collections::HashMap::new();
    for (i, r) in records.iter().enumerate() {
        assert!(
            r.anchor + 1 >= window as u64,
            "record anchor {} precedes the first full window",
            r.anchor
        );
        wanted.entry(r.anchor).or_default().push(i);
    }

    // Only the adaptive policy scores here (the hit EMA needs raw
    // scores), on the plan deployment compiles for the same lane.
    let mut scorer = matches!(policy, SamplingPolicy::Adaptive { .. }).then(|| {
        let plan = InferencePlan::compile(model, lane);
        let scratch = plan.scratch();
        (plan, scratch)
    });

    let mut stepper =
        AnchorStepper::<()>::new(policy.clone(), window, cfg.input_dim, cfg.horizon as u64);
    let mut out: Vec<Option<Record>> = vec![None; records.len()];

    for row in 0..=max_anchor {
        let memo = stepper.step(features.row(row as usize)).map(|m| {
            stepper.carry_or_score(m, |covariates| {
                let hit = scorer.as_mut().is_some_and(|(plan, scratch)| {
                    plan.forward(window_rows(covariates), scratch)
                        .chunks_exact(plan.head_len())
                        .any(|head| f64::from(head[0]) >= HIT_TAU1)
                });
                ((), hit)
            })
        });
        if let Some(idxs) = wanted.get(&row) {
            let covariates = match memo {
                Some(memo) => memo.covariates.clone(),
                None => stepper.buffer.covariates_last(stepper.sampler.window_len()),
            };
            for &i in idxs {
                out[i] = Some(Record {
                    anchor: row,
                    covariates: covariates.clone(),
                    labels: records[i].labels.clone(),
                });
            }
        }
    }
    out.into_iter()
        .map(|r| r.expect("every requested anchor visited"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_the_three_kinds() {
        assert_eq!(SamplingPolicy::parse("fixed"), Ok(SamplingPolicy::Fixed));
        match SamplingPolicy::parse("delta:0.2:1.5:8").unwrap() {
            SamplingPolicy::DeltaGate(g) => {
                assert_eq!(g.threshold, 0.2);
                assert_eq!(g.hysteresis, 1.5);
                assert_eq!(g.max_run, 8);
                assert_eq!(g.max_carry, GateParams::default().max_carry);
            }
            p => panic!("expected DeltaGate, got {p:?}"),
        }
        match SamplingPolicy::parse("adaptive:0.1:3:8:0.5").unwrap() {
            SamplingPolicy::Adaptive { gate, window } => {
                assert_eq!(gate.threshold, 0.1);
                assert_eq!(window.m_min, 3);
                assert_eq!(window.m_max, 8);
                assert_eq!(window.beta, 0.5);
            }
            p => panic!("expected Adaptive, got {p:?}"),
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "bogus",
            "fixed:1",
            "delta",
            "delta:x",
            "delta:-1",
            "delta:0.1:0.5", // hyst < 1
            "adaptive:0.1",
            "adaptive:0.1:0",      // m_min 0
            "adaptive:0.1:4:10:0", // beta 0
            "delta:0.1:1.2:4:9:2", // too many fields
        ] {
            assert!(SamplingPolicy::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn delta_is_mean_abs_difference() {
        assert_eq!(mean_abs_delta(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert_eq!(mean_abs_delta(&[1.0, 3.0], &[2.0, 1.0]), 1.5);
        assert_eq!(mean_abs_delta(&[], &[]), 0.0);
    }

    #[test]
    fn gate_skips_below_threshold_and_admits_motion() {
        let mut s = Sampler::new(
            SamplingPolicy::DeltaGate(GateParams {
                threshold: 0.5,
                hysteresis: 1.0,
                max_run: 0,
                ..GateParams::default()
            }),
            3,
        );
        // Warmup frames always admitted.
        assert!(s.admit(&[0.0], false));
        // Still frame: gated.
        assert!(!s.admit(&[0.1], true));
        assert!(!s.admit(&[0.2], true));
        // Motion relative to the *reference* (0.0), not the last frame.
        assert!(s.admit(&[0.9], true));
        assert_eq!(s.frames_skipped(), 2);
        assert_eq!(s.frames_admitted(), 2);
    }

    #[test]
    fn hysteresis_raises_the_exit_bar() {
        let gate = GateParams {
            threshold: 0.4,
            hysteresis: 2.0,
            max_run: 0,
            ..GateParams::default()
        };
        let mut s = Sampler::new(SamplingPolicy::DeltaGate(gate), 3);
        assert!(s.admit(&[0.0], false)); // reference = 0.0
        assert!(!s.admit(&[0.3], true)); // below 0.4 -> start skipping
                                         // 0.5 clears the base threshold but not the 0.8 exit bar.
        assert!(!s.admit(&[0.5], true));
        assert!(s.admit(&[0.9], true)); // clears the exit bar
                                        // Gate open again: base threshold applies (ref = 0.9 now).
        assert!(s.admit(&[0.4], true));
    }

    #[test]
    fn max_run_bounds_consecutive_skips() {
        let gate = GateParams {
            threshold: 1.0,
            hysteresis: 1.0,
            max_run: 3,
            ..GateParams::default()
        };
        let mut s = Sampler::new(SamplingPolicy::DeltaGate(gate), 2);
        assert!(s.admit(&[0.0], false));
        let pattern: Vec<bool> = (0..8).map(|_| s.admit(&[0.0], true)).collect();
        // 3 skips, then a forced accept, repeating.
        assert_eq!(
            pattern,
            vec![false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    fn window_drift_averages_out_noise_but_sees_sustained_shifts() {
        let a = Matrix::from_rows(&[vec![0.0, 0.0], vec![0.0, 0.0]]);
        // Zero-mean per-row noise cancels in the window means.
        let noisy = Matrix::from_rows(&[vec![0.2, -0.1], vec![-0.2, 0.1]]);
        assert_eq!(window_drift(&a, &noisy), 0.0);
        // A sustained shift of 0.3 in one of two dims reads 0.15.
        let shifted = Matrix::from_rows(&[vec![0.3, 0.0], vec![0.3, 0.0]]);
        assert!((window_drift(&a, &shifted) - 0.15).abs() < 1e-6);
        // Shape mismatch never carries.
        let wider = Matrix::zeros(2, 3);
        assert_eq!(window_drift(&a, &wider), f32::INFINITY);
        let taller = Matrix::zeros(3, 2);
        assert_eq!(window_drift(&a, &taller), f32::INFINITY);
    }

    #[test]
    fn carry_gate_bounds_run_and_threshold() {
        let g = GateParams {
            threshold: 0.1,
            hysteresis: 1.0,
            max_run: 0,
            max_carry: 2,
        };
        assert!(g.carries(0.05, 0));
        assert!(g.carries(0.05, 1));
        assert!(!g.carries(0.05, 2), "max_carry forces a re-score");
        assert!(!g.carries(0.2, 0), "content moved: score");
        let off = GateParams { max_carry: 0, ..g };
        assert!(!off.carries(0.0, 0), "max_carry 0 disables carrying");
    }

    #[test]
    fn adaptive_window_tracks_hit_ema_within_bounds() {
        let policy = SamplingPolicy::Adaptive {
            gate: GateParams::default(),
            window: WindowParams {
                m_min: 2,
                m_max: 0, // resolves to base window
                beta: 0.5,
            },
        };
        let mut s = Sampler::new(policy, 10);
        assert_eq!(s.window_len(), 10); // starts at m_max
        for _ in 0..64 {
            s.observe_hit(false);
        }
        assert_eq!(s.window_len(), 2, "quiet stream shrinks to m_min");
        for _ in 0..64 {
            s.observe_hit(true);
        }
        assert_eq!(s.window_len(), 10, "busy stream grows back to m_max");
    }

    #[test]
    fn non_adaptive_policies_keep_the_full_window() {
        let mut s = Sampler::new(SamplingPolicy::Fixed, 7);
        s.observe_hit(false);
        assert_eq!(s.window_len(), 7);
        let mut s = Sampler::new(SamplingPolicy::DeltaGate(GateParams::default()), 7);
        for _ in 0..10 {
            s.observe_hit(false);
        }
        assert_eq!(s.window_len(), 7);
    }

    #[test]
    fn fixed_policy_admits_everything() {
        let mut s = Sampler::new(SamplingPolicy::Fixed, 4);
        for i in 0..100 {
            assert!(s.admit(&[i as f32 * 1e-6], i >= 4));
        }
        assert_eq!(s.frames_skipped(), 0);
        assert_eq!(s.frames_admitted(), 100);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SamplingPolicy::Fixed.label(), "fixed");
        assert_eq!(
            SamplingPolicy::parse("delta:0.25").unwrap().label(),
            "delta@0.25"
        );
        assert_eq!(
            SamplingPolicy::parse("adaptive:0.1:4").unwrap().label(),
            "adaptive@0.1/4-M"
        );
    }
}

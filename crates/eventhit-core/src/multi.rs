//! Multiple event instances per time horizon — the paper's footnote 1
//! extension — and multi-stream marshalling lanes.
//!
//! §II simplifies to "at most one instance per horizon" but notes the
//! framework handles the general case by letting each event sub-network
//! make multiple predictions. This module provides that pathway: ground
//! truth as a *set* of intervals per horizon, θ-run splitting at inference
//! time (instead of Eq. 6's single min/max span), per-run conformal
//! widening, and frame-level metrics over interval sets.
//!
//! It also hosts the multi-*stream* execution path: a deployment
//! marshalling several cameras runs one [`StreamLane`] per stream, each
//! an independent [`OnlinePredictor`] over its own feature matrix.
//! [`run_lanes`] runs the lanes in parallel groups, scoring each group's
//! co-timed anchors in batched forwards, and merges their decisions
//! into one deterministic timeline ordered by `(anchor, stream_id)` —
//! the order a sequential loop interleaving the streams would produce.

use std::iter::Skip;
use std::slice::ChunksExact;

use eventhit_conformal::regress::IntervalCalibration;
use eventhit_nn::matrix::Matrix;
use eventhit_parallel::Pool;
use eventhit_video::stream::VideoStream;

use crate::infer::EventScores;
use crate::model::{InferenceScratch, BATCH_WINDOWS};
use crate::streaming::{HorizonDecision, OnlinePredictor};

/// Ground truth of one (horizon, event) pair in the multi-instance
/// setting: every instance interval clipped to `[1, H]` offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiLabel {
    /// Clipped occurrence intervals, in start order; may be empty.
    pub intervals: Vec<(u32, u32)>,
    /// True iff the last instance runs past the horizon end.
    pub censored_last: bool,
}

impl MultiLabel {
    /// Total number of true event frames in the horizon.
    pub fn true_frames(&self) -> u64 {
        self.intervals
            .iter()
            .map(|&(s, e)| (e - s + 1) as u64)
            .sum()
    }

    /// True iff at least one instance intersects the horizon.
    pub fn any(&self) -> bool {
        !self.intervals.is_empty()
    }
}

/// Computes the multi-instance label of `class` for the horizon
/// `(anchor, anchor + h]`.
pub fn multi_horizon_label(
    stream: &VideoStream,
    class: usize,
    anchor: u64,
    h: usize,
) -> MultiLabel {
    let lo = anchor + 1;
    let hi = anchor + h as u64;
    let mut intervals = Vec::new();
    let mut censored_last = false;
    for inst in stream.all_intersecting(class, lo, hi) {
        let s = (inst.interval.start.max(lo) - anchor) as u32;
        let e = (inst.interval.end.min(hi) - anchor) as u32;
        intervals.push((s, e));
        censored_last = inst.interval.end > hi;
    }
    intervals.sort_unstable();
    MultiLabel {
        intervals,
        censored_last,
    }
}

/// Splits the θ scores into maximal runs above `tau2`, merging runs
/// separated by at most `merge_gap` frames (detector flicker), each run
/// becoming one predicted instance interval. With `merge_gap = H` this
/// degenerates to Eq. 6's single span.
pub fn theta_runs(scores: &EventScores, tau2: f32, merge_gap: u32) -> Vec<(u32, u32)> {
    let mut runs: Vec<(u32, u32)> = Vec::new();
    let mut current: Option<(u32, u32)> = None;
    for (idx, &t) in scores.theta.iter().enumerate() {
        let v = (idx + 1) as u32;
        if t >= tau2 {
            current = match current {
                None => Some((v, v)),
                Some((s, _)) => Some((s, v)),
            };
        } else if let Some((s, e)) = current {
            if v > e + merge_gap {
                runs.push((s, e));
                current = None;
            }
        }
    }
    if let Some(run) = current {
        runs.push(run);
    }
    runs
}

/// Multi-instance prediction for one event: existence by `b >= tau1`,
/// instances from θ runs, each optionally widened by C-REGRESS
/// calibration.
pub fn multi_predict(
    scores: &EventScores,
    tau1: f64,
    tau2: f32,
    merge_gap: u32,
    calibration: Option<(&IntervalCalibration, f64)>,
    horizon: u32,
) -> Vec<(u32, u32)> {
    if scores.b < tau1 {
        return Vec::new();
    }
    let runs = theta_runs(scores, tau2, merge_gap);
    match calibration {
        None => runs,
        Some((cal, alpha)) => {
            let widened: Vec<(u32, u32)> = runs
                .into_iter()
                .map(|(s, e)| cal.adjust(s, e, horizon, alpha))
                .collect();
            merge_overlapping(widened)
        }
    }
}

/// Merges overlapping/adjacent sorted-or-not interval sets.
pub fn merge_overlapping(mut intervals: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    if intervals.is_empty() {
        return intervals;
    }
    intervals.sort_unstable();
    let mut out = vec![intervals[0]];
    for (s, e) in intervals.into_iter().skip(1) {
        let last = out.last_mut().expect("non-empty");
        if s <= last.1 + 1 {
            last.1 = last.1.max(e);
        } else {
            out.push((s, e));
        }
    }
    out
}

/// One logical lane of a multi-stream deployment: a predictor bound to
/// one stream's feature matrix. Lanes are independent by construction —
/// each owns its predictor (clone a trained model per lane) — which is
/// what lets [`run_lanes`] score them on separate threads with no shared
/// mutable state.
///
/// The inference lane (exact f32 vs the int8 fast lane) and the
/// [`SamplingPolicy`](crate::sampling::SamplingPolicy) both ride in
/// through the predictor: build it with
/// [`OnlinePredictor::with_lane`](crate::streaming::OnlinePredictor::with_lane)
/// or
/// [`OnlinePredictor::with_policy`](crate::streaming::OnlinePredictor::with_policy)
/// and [`run_lanes`] scores that configuration unchanged — the merge
/// logic is lane-agnostic, every policy's gate state is lane-local, and
/// all combinations stay bit-identical across worker counts.
pub struct StreamLane {
    /// Stable identifier of the stream; ties in the merged timeline break
    /// on it.
    pub stream_id: usize,
    /// The lane's predictor (owns its model and conformal state).
    pub predictor: OnlinePredictor,
    /// Per-frame feature matrix of this stream.
    pub features: Matrix,
    /// First feature row to feed.
    pub from: usize,
}

/// A [`HorizonDecision`] attributed to the stream that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneDecision {
    /// The lane's [`StreamLane::stream_id`].
    pub stream_id: usize,
    /// The decision, with anchors relative to that lane's stream.
    pub decision: HorizonDecision,
}

/// Runs every lane to completion and merges the decisions into a single
/// timeline sorted by `(anchor, stream_id)`.
///
/// The lanes are cut into `min(workers, lanes)` contiguous groups, one
/// [`Pool::run`] job each. A group runs its lanes in lockstep: each lane
/// advances to its next anchor that needs the encoder (deciding the
/// anchors it carries on the way), the pending windows that share a plan
/// and a window length are scored together, up to 16 at a time, in
/// [`forward_rows`](crate::model::InferencePlan::forward_rows) batches,
/// and each lane decides its anchor from its window's scores. A window
/// scores the same bits in any batch, and every other piece of state is
/// its lane's own, so each lane decides exactly as
/// [`OnlinePredictor::push_frames`] over its rows would; the merge key
/// is a total order over decisions, so the output is bit-identical for
/// any worker count.
pub fn run_lanes(lanes: Vec<StreamLane>, pool: &Pool) -> Vec<LaneDecision> {
    let n = lanes.len();
    let groups = pool.workers().clamp(1, n.max(1));
    let mut lanes = lanes.into_iter();
    let tasks: Vec<Vec<StreamLane>> = (0..groups)
        .map(|g| {
            lanes
                .by_ref()
                .take((g + 1) * n / groups - g * n / groups)
                .collect()
        })
        .collect();
    let parts = pool.run(tasks, |mut group| run_group(&mut group));
    let mut all = Vec::with_capacity(parts.iter().flatten().map(Vec::len).sum());
    all.extend(parts.into_iter().flatten().flatten());
    all.sort_by_key(|d| (d.decision.anchor, d.stream_id));
    all
}

/// One lane of a [`run_lanes`] group in flight.
struct Cursor<'a> {
    predictor: &'a mut OnlinePredictor,
    /// The rows the lane has yet to take.
    rows: Skip<ChunksExact<'a, f32>>,
    stream_id: usize,
    decisions: Vec<LaneDecision>,
    /// The window length of the anchor the lane waits at for its scores.
    pending: Option<usize>,
}

/// Runs a group of lanes in lockstep (see [`run_lanes`]) and returns
/// each lane's decisions, in lane order.
fn run_group(lanes: &mut [StreamLane]) -> Vec<Vec<LaneDecision>> {
    let mut cursors: Vec<Cursor<'_>> = lanes
        .iter_mut()
        .map(|lane| {
            let StreamLane {
                stream_id,
                predictor,
                features,
                from,
            } = lane;
            // The rows as whole chunks of the storage, so passing over
            // them costs nothing per row. A matrix with no columns holds
            // no rows.
            let rows = features.as_slice().chunks_exact(features.cols().max(1));
            let rows = rows.skip(*from);
            predictor.count_frames(rows.len());
            Cursor {
                decisions: Vec::with_capacity(predictor.anchors_in(rows.len())),
                predictor,
                rows,
                stream_id: *stream_id,
                pending: None,
            }
        })
        .collect();
    let mut scratch = InferenceScratch::default();
    let mut batch = Vec::with_capacity(cursors.len());
    loop {
        for c in cursors.iter_mut().filter(|c| c.pending.is_none()) {
            let (stream_id, decisions) = (c.stream_id, &mut c.decisions);
            c.pending = c.predictor.advance(&mut c.rows, &mut |decision| {
                decisions.push(LaneDecision {
                    stream_id,
                    decision,
                })
            });
        }
        if cursors.iter().all(|c| c.pending.is_none()) {
            break;
        }
        while let Some(first) = cursors.iter().position(|c| c.pending.is_some()) {
            let (m, plan) = (cursors[first].pending, cursors[first].predictor.plan());
            batch.clear();
            let alike = (first..cursors.len()).filter(|&i| {
                cursors[i].pending == m && cursors[i].predictor.plan().shares_weights_with(plan)
            });
            batch.extend(alike.take(BATCH_WINDOWS));
            score_batch(&mut cursors, &batch, &mut scratch);
        }
    }
    cursors.into_iter().map(|c| c.decisions).collect()
}

/// Scores the pending windows of the `batch` cursors — one plan, one
/// window length — as one forward, and decides each lane's anchor.
fn score_batch(cursors: &mut [Cursor<'_>], batch: &[usize], scratch: &mut InferenceScratch) {
    let m = cursors[batch[0]]
        .pending
        .expect("a batch holds pending lanes");
    for &i in batch {
        cursors[i].predictor.inference_started();
    }
    let windows = batch.iter().map(|&i| cursors[i].predictor.window(m));
    let scores = cursors[batch[0]]
        .predictor
        .plan()
        .forward_rows(windows, scratch);
    for &i in batch {
        cursors[i].predictor.inference_ended(batch.len());
    }
    for (&i, scores) in batch
        .iter()
        .zip(scores.chunks_exact(scores.len() / batch.len()))
    {
        let c = &mut cursors[i];
        let decision = c.predictor.finish(m, scores);
        c.decisions.push(LaneDecision {
            stream_id: c.stream_id,
            decision,
        });
        c.pending = None;
    }
}

/// Frame-level evaluation over interval sets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiOutcome {
    /// Fraction of true event frames covered by predictions.
    pub rec: f64,
    /// Fraction of non-event frames relayed.
    pub spl: f64,
    /// Fraction of true instances with at least one covered frame.
    pub instance_recall: f64,
    /// Total frames relayed.
    pub frames_relayed: u64,
}

/// Evaluates multi-instance predictions against multi-instance labels for
/// a batch of horizons of length `h`.
pub fn evaluate_multi(preds: &[Vec<(u32, u32)>], labels: &[MultiLabel], h: u32) -> MultiOutcome {
    assert_eq!(preds.len(), labels.len(), "one prediction set per horizon");
    let mut true_frames = 0u64;
    let mut covered_frames = 0u64;
    let mut relayed = 0u64;
    let mut spill = 0u64;
    let mut non_event = 0u64;
    let mut instances = 0u64;
    let mut found = 0u64;

    for (pred, label) in preds.iter().zip(labels) {
        let pred = merge_overlapping(pred.clone());
        let covered = |v: u32| pred.iter().any(|&(s, e)| (s..=e).contains(&v));
        let truth = |v: u32| label.intervals.iter().any(|&(s, e)| (s..=e).contains(&v));
        for v in 1..=h {
            let (p, t) = (covered(v), truth(v));
            if t {
                true_frames += 1;
                if p {
                    covered_frames += 1;
                }
            } else {
                non_event += 1;
                if p {
                    spill += 1;
                }
            }
            if p {
                relayed += 1;
            }
        }
        for &(s, e) in &label.intervals {
            instances += 1;
            if (s..=e).any(covered) {
                found += 1;
            }
        }
    }

    MultiOutcome {
        rec: if true_frames > 0 {
            covered_frames as f64 / true_frames as f64
        } else {
            1.0
        },
        spl: if non_event > 0 {
            spill as f64 / non_event as f64
        } else {
            0.0
        },
        instance_recall: if instances > 0 {
            found as f64 / instances as f64
        } else {
            1.0
        },
        frames_relayed: relayed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventhit_video::event::{EventClass, EventInstance, OccurrenceInterval};

    fn scores(theta: Vec<f32>) -> EventScores {
        EventScores { b: 0.9, theta }
    }

    fn stream_with(instances: Vec<(u64, u64)>) -> VideoStream {
        VideoStream {
            len: 10_000,
            classes: vec![EventClass {
                name: "c".into(),
                paper_id: "E1".into(),
                occurrences: 1,
                duration_mean: 10.0,
                duration_std: 1.0,
                lead_mean: 10.0,
                lead_std: 1.0,
                feature_noise: 0.0,
            }],
            instances: instances
                .into_iter()
                .map(|(s, e)| EventInstance {
                    class: 0,
                    interval: OccurrenceInterval::new(s, e),
                })
                .collect(),
        }
    }

    #[test]
    fn multi_label_collects_all_instances() {
        let s = stream_with(vec![(110, 120), (150, 400), (480, 700)]);
        let l = multi_horizon_label(&s, 0, 100, 500);
        assert_eq!(l.intervals, vec![(10, 20), (50, 300), (380, 500)]);
        assert!(l.censored_last);
        assert_eq!(l.true_frames(), 11 + 251 + 121);
        assert!(l.any());
    }

    #[test]
    fn multi_label_empty_when_no_instances() {
        let s = stream_with(vec![(5000, 5100)]);
        let l = multi_horizon_label(&s, 100, 500, 500);
        assert!(!l.any());
        assert_eq!(l.true_frames(), 0);
    }

    #[test]
    fn theta_runs_split_on_gaps() {
        // θ over offsets 1..=10: high at 2-3 and 7-9.
        let s = scores(vec![0.1, 0.9, 0.9, 0.1, 0.1, 0.1, 0.9, 0.9, 0.9, 0.1]);
        assert_eq!(theta_runs(&s, 0.5, 1), vec![(2, 3), (7, 9)]);
        // Large merge gap joins them (Eq. 6 behaviour).
        assert_eq!(theta_runs(&s, 0.5, 10), vec![(2, 9)]);
    }

    #[test]
    fn theta_runs_merge_small_flicker() {
        let s = scores(vec![0.9, 0.1, 0.9, 0.9, 0.0, 0.0, 0.0, 0.0]);
        // Gap of one frame at offset 2 is bridged with merge_gap 2.
        assert_eq!(theta_runs(&s, 0.5, 2), vec![(1, 4)]);
        assert_eq!(theta_runs(&s, 0.5, 0), vec![(1, 1), (3, 4)]);
    }

    #[test]
    fn theta_runs_empty_when_nothing_clears() {
        let s = scores(vec![0.1, 0.2, 0.3]);
        assert!(theta_runs(&s, 0.5, 1).is_empty());
    }

    #[test]
    fn multi_predict_respects_tau1_and_widens() {
        let s = scores(vec![0.1, 0.9, 0.9, 0.1, 0.1, 0.9, 0.9, 0.1, 0.1, 0.1]);
        assert!(multi_predict(&s, 0.95, 0.5, 1, None, 10).is_empty());
        let plain = multi_predict(&s, 0.5, 0.5, 1, None, 10);
        assert_eq!(plain, vec![(2, 3), (6, 7)]);
        let cal = IntervalCalibration::fit(vec![2.0, 2.0], vec![2.0, 2.0]);
        let widened = multi_predict(&s, 0.5, 0.5, 1, Some((&cal, 0.9)), 10);
        // Each run widened by 2 both ways, then merged: [1,5]+[4,9] -> [1,9].
        assert_eq!(widened, vec![(1, 9)]);
    }

    #[test]
    fn merge_overlapping_cases() {
        assert_eq!(merge_overlapping(vec![]), vec![]);
        assert_eq!(
            merge_overlapping(vec![(5, 6), (1, 2)]),
            vec![(1, 2), (5, 6)]
        );
        assert_eq!(merge_overlapping(vec![(1, 3), (3, 6)]), vec![(1, 6)]);
        assert_eq!(merge_overlapping(vec![(1, 3), (4, 6)]), vec![(1, 6)]); // adjacent
    }

    #[test]
    fn evaluate_multi_perfect_and_miss() {
        let labels = vec![MultiLabel {
            intervals: vec![(2, 4), (8, 9)],
            censored_last: false,
        }];
        let perfect = evaluate_multi(&[vec![(2, 4), (8, 9)]], &labels, 10);
        assert_eq!(perfect.rec, 1.0);
        assert_eq!(perfect.spl, 0.0);
        assert_eq!(perfect.instance_recall, 1.0);
        assert_eq!(perfect.frames_relayed, 5);

        let partial = evaluate_multi(&[vec![(2, 4)]], &labels, 10);
        assert!((partial.rec - 3.0 / 5.0).abs() < 1e-12);
        assert_eq!(partial.instance_recall, 0.5);

        let nothing = evaluate_multi(&[vec![]], &labels, 10);
        assert_eq!(nothing.rec, 0.0);
        assert_eq!(nothing.frames_relayed, 0);
    }

    #[test]
    fn evaluate_multi_spillage_only_on_non_event_frames() {
        let labels = vec![MultiLabel {
            intervals: vec![(1, 5)],
            censored_last: false,
        }];
        let o = evaluate_multi(&[vec![(1, 10)]], &labels, 10);
        assert_eq!(o.rec, 1.0);
        assert_eq!(o.spl, 1.0); // all 5 non-event frames relayed
    }

    #[test]
    fn single_span_equivalence_with_eq6() {
        // With merge_gap = H, theta_runs equals Eq. 6's single interval.
        use crate::infer::raw_interval;
        let s = scores(vec![0.1, 0.9, 0.1, 0.1, 0.9, 0.1]);
        let (lo, hi) = raw_interval(&s, 0.5);
        assert_eq!(theta_runs(&s, 0.5, 6), vec![(lo, hi)]);
    }
}

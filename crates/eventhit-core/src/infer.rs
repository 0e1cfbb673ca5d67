//! Inference-time scoring and the plain EHO decision rule (Eqs. 4–6).

use eventhit_nn::matrix::Matrix;
use eventhit_nn::quant::InferenceLane;
use eventhit_parallel::Pool;
use eventhit_video::records::{EventLabel, Record};

use crate::model::{window_rows, EventHit, InferencePlan, InferenceScratch, BATCH_WINDOWS};

/// Per-event scores of one record: the existence score `b_k` and the
/// per-offset occurrence scores `θ_{k,1..H}` (index `v - 1` holds offset
/// `v`).
#[derive(Debug, Clone, PartialEq)]
pub struct EventScores {
    /// Existence score `b_k ∈ [0, 1]`.
    pub b: f64,
    /// Occurrence scores, length `H`.
    pub theta: Vec<f32>,
}

/// A record with its model scores and ground-truth labels — the unit on
/// which calibration, strategy sweeps, and metrics operate. Computing these
/// once per record lets every `(c, α, τ)` sweep reuse the same forward
/// passes.
#[derive(Debug, Clone)]
pub struct ScoredRecord {
    /// Anchor frame of the record.
    pub anchor: u64,
    /// One score set per event type.
    pub scores: Vec<EventScores>,
    /// Ground-truth labels per event type.
    pub labels: Vec<EventLabel>,
}

/// Runs the model over `records` in minibatches on the exact lane and
/// the ambient [`Pool::current`] and collects scores:
/// [`score_records_lane_with`] with both choices defaulted.
pub fn score_records(model: &EventHit, records: &[Record], batch_size: usize) -> Vec<ScoredRecord> {
    score_records_lane_with(
        model,
        records,
        batch_size,
        InferenceLane::Exact,
        &Pool::current(),
    )
}

/// Scores `records` on an explicit [`InferenceLane`] and [`Pool`].
///
/// Scoring runs on the model's [`InferencePlan`] for the lane (compiled
/// on first use, then shared) — `Exact` on packed f32 panels,
/// `Quantized` on int8 codes in the same panels. Each minibatch is one
/// [`Pool::run`] job, and each run of records of equal window length in it is
/// scored in [`InferencePlan::forward_rows`] batches, whose every window
/// scores as it would alone; so batching only decides how the work is
/// split, and the scores, merged in record order, are bit-identical for
/// any batch size and worker count. Records may have different window
/// lengths (the adaptive-window calibration path).
pub fn score_records_lane_with(
    model: &EventHit,
    records: &[Record],
    batch_size: usize,
    lane: InferenceLane,
    pool: &Pool,
) -> Vec<ScoredRecord> {
    assert!(batch_size > 0);
    let plan = InferencePlan::compile(model, lane);
    let chunks: Vec<&[Record]> = records.chunks(batch_size).collect();
    let parts = pool.run(chunks, |chunk| {
        let mut scratch = InferenceScratch::default();
        let mut scored = Vec::with_capacity(chunk.len());
        let runs = chunk.chunk_by(|a, b| a.covariates.rows() == b.covariates.rows());
        for run in runs.flat_map(|run| run.chunks(BATCH_WINDOWS)) {
            let windows = run.iter().map(|r| window_rows(&r.covariates));
            let outputs = plan.forward_rows(windows, &mut scratch);
            let width = outputs.len() / run.len();
            for (record, window) in run.iter().zip(outputs.chunks_exact(width)) {
                let mut scores = Vec::new();
                scores_into(&mut scores, window, plan.head_len());
                scored.push(ScoredRecord {
                    anchor: record.anchor,
                    scores,
                    labels: record.labels.clone(),
                });
            }
        }
        scored
    });
    let mut out = Vec::with_capacity(records.len());
    for part in parts {
        out.extend(part);
    }
    out
}

/// Overwrites `scores` with one window's head outputs, `K x head_len`
/// row-major as [`InferencePlan::forward_rows`] writes them: in place,
/// so once `scores` has held a window's scores this allocates nothing.
pub(crate) fn scores_into(scores: &mut Vec<EventScores>, outputs: &[f32], head_len: usize) {
    scores.resize_with(outputs.len() / head_len, || EventScores {
        b: 0.0,
        theta: Vec::new(),
    });
    for (s, head) in scores.iter_mut().zip(outputs.chunks_exact(head_len)) {
        s.b = head[0] as f64;
        s.theta.clear();
        s.theta.extend_from_slice(&head[1..]);
    }
}

/// Scores one record on `plan`, keeping its anchor and labels.
pub fn score_record(
    plan: &InferencePlan,
    record: &Record,
    scratch: &mut InferenceScratch,
) -> ScoredRecord {
    let mut scores = Vec::new();
    let outputs = plan.forward(window_rows(&record.covariates), scratch);
    scores_into(&mut scores, outputs, plan.head_len());
    ScoredRecord {
        anchor: record.anchor,
        scores,
        labels: record.labels.clone(),
    }
}

/// Assembles the [`ScoredRecord`] of row `i` from a set of per-head
/// forward outputs (`outputs[k]: batch x (1 + H)`), as
/// [`EventHit::forward_inference`] and
/// [`InferencePlan::forward_inference`] return them.
pub fn scored_from_outputs(outputs: &[Matrix], i: usize, record: &Record) -> ScoredRecord {
    let scores = outputs
        .iter()
        .map(|head| {
            let row = head.row(i);
            EventScores {
                b: row[0] as f64,
                theta: row[1..].to_vec(),
            }
        })
        .collect();
    ScoredRecord {
        anchor: record.anchor,
        scores,
        labels: record.labels.clone(),
    }
}

/// A predicted occurrence interval for one event in one horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalPrediction {
    /// True iff the event is predicted to occur in the horizon.
    pub present: bool,
    /// Predicted start offset in `[1, H]` (meaningful when `present`).
    pub start: u32,
    /// Predicted end offset in `[1, H]` (meaningful when `present`).
    pub end: u32,
}

impl IntervalPrediction {
    /// The "no event" prediction.
    pub fn absent() -> Self {
        IntervalPrediction {
            present: false,
            start: 0,
            end: 0,
        }
    }

    /// Number of frames relayed for this prediction.
    pub fn frames(&self) -> u64 {
        if self.present {
            (self.end - self.start + 1) as u64
        } else {
            0
        }
    }
}

/// The raw occurrence-interval estimate of Eq. (6): the span from the first
/// to the last offset whose `θ` clears `tau2`. When no offset clears the
/// threshold the argmax offset is used as a single-frame interval, so a
/// positive existence decision always yields a non-empty relay (the paper
/// leaves this corner unspecified).
pub fn raw_interval(scores: &EventScores, tau2: f32) -> (u32, u32) {
    let mut first = None;
    let mut last = 0usize;
    for (idx, &t) in scores.theta.iter().enumerate() {
        if t >= tau2 {
            if first.is_none() {
                first = Some(idx);
            }
            last = idx;
        }
    }
    match first {
        Some(f) => ((f + 1) as u32, (last + 1) as u32),
        None => {
            let argmax = scores
                .theta
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0);
            ((argmax + 1) as u32, (argmax + 1) as u32)
        }
    }
}

/// The plain EHO decision (Eqs. 4–6): event predicted present iff
/// `b >= tau1`; interval from [`raw_interval`] with threshold `tau2`.
pub fn eho_predict(scores: &EventScores, tau1: f64, tau2: f32) -> IntervalPrediction {
    if scores.b < tau1 {
        return IntervalPrediction::absent();
    }
    let (start, end) = raw_interval(scores, tau2);
    IntervalPrediction {
        present: true,
        start,
        end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scores(b: f64, theta: Vec<f32>) -> EventScores {
        EventScores { b, theta }
    }

    #[test]
    fn raw_interval_span_of_threshold_crossings() {
        let s = scores(0.9, vec![0.1, 0.6, 0.2, 0.7, 0.8, 0.1]);
        // Offsets (1-based) above 0.5: 2, 4, 5 => span [2, 5] (Eq. 6 takes
        // min/max even across gaps).
        assert_eq!(raw_interval(&s, 0.5), (2, 5));
    }

    #[test]
    fn raw_interval_all_above() {
        let s = scores(0.9, vec![0.9, 0.9, 0.9]);
        assert_eq!(raw_interval(&s, 0.5), (1, 3));
    }

    #[test]
    fn raw_interval_falls_back_to_argmax() {
        let s = scores(0.9, vec![0.1, 0.4, 0.2]);
        assert_eq!(raw_interval(&s, 0.5), (2, 2));
    }

    #[test]
    fn eho_respects_tau1() {
        let s = scores(0.4, vec![0.9, 0.9]);
        assert_eq!(eho_predict(&s, 0.5, 0.5), IntervalPrediction::absent());
        let p = eho_predict(&s, 0.3, 0.5);
        assert!(p.present);
        assert_eq!((p.start, p.end), (1, 2));
    }

    #[test]
    fn frames_counts_inclusive_span() {
        let p = IntervalPrediction {
            present: true,
            start: 3,
            end: 7,
        };
        assert_eq!(p.frames(), 5);
        assert_eq!(IntervalPrediction::absent().frames(), 0);
    }

    #[test]
    fn score_records_shapes() {
        use crate::model::{EventHit, EventHitConfig};
        use eventhit_nn::matrix::Matrix;
        let cfg = EventHitConfig {
            input_dim: 3,
            window: 4,
            horizon: 6,
            num_events: 2,
            hidden_dim: 5,
            shared_dim: 4,
            dropout: 0.0,
        };
        let model = EventHit::new(cfg, 0);
        let records: Vec<Record> = (0..5)
            .map(|i| Record {
                anchor: i,
                covariates: Matrix::filled(4, 3, i as f32 / 5.0),
                labels: vec![EventLabel::absent(); 2],
            })
            .collect();
        let scored = score_records(&model, &records, 2);
        assert_eq!(scored.len(), 5);
        for (s, r) in scored.iter().zip(&records) {
            assert_eq!(s.anchor, r.anchor);
            assert_eq!(s.scores.len(), 2);
            assert_eq!(s.scores[0].theta.len(), 6);
            assert!((0.0..=1.0).contains(&s.scores[0].b));
        }
        // Batching must not change results.
        let scored_full = score_records(&model, &records, 64);
        for (a, b) in scored.iter().zip(&scored_full) {
            assert_eq!(a.scores, b.scores);
        }
        // Nor does compiling: the plan's scores are the batched reference
        // forward's, bit for bit.
        let batch: Vec<&Record> = records.iter().collect();
        let outputs = model.forward_inference(&batch);
        for (i, (s, r)) in scored.iter().zip(&records).enumerate() {
            assert_eq!(s.scores, scored_from_outputs(&outputs, i, r).scores);
        }
    }

    #[test]
    fn scores_into_reuses_its_output() {
        use crate::model::{EventHit, EventHitConfig};
        let model = EventHit::new(EventHitConfig::new(3, 4, 6, 2), 1);
        let plan = InferencePlan::compile(&model, InferenceLane::Exact);
        let mut scratch = plan.scratch();
        let mut scores = Vec::new();
        let mut score = |window: &Matrix, scores: &mut Vec<EventScores>| {
            let outputs = plan.forward(window_rows(window), &mut scratch);
            scores_into(scores, outputs, plan.head_len());
        };
        let window = Matrix::filled(4, 3, 0.25);
        score(&window, &mut scores);
        let first = scores.clone();
        let theta_at = scores[0].theta.as_ptr();
        score(&Matrix::filled(2, 3, -0.5), &mut scores);
        assert_ne!(scores, first);
        assert_eq!(scores[0].theta.as_ptr(), theta_at, "theta buffer reused");
        score(&window, &mut scores);
        assert_eq!(scores, first, "no state leaks between windows");
    }
}

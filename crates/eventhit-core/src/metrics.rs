//! Evaluation measures of §VI.C: frame-level recall `REC` (Eq. 12),
//! spillage `SPL` (Eq. 13), and the component measures `REC_c` / `REC_r`.

use eventhit_video::records::EventLabel;

use crate::error::CoreError;
use crate::infer::{IntervalPrediction, ScoredRecord};
use crate::pipeline::ConformalState;

/// Frame-level recall `η` of one prediction against one label: the fraction
/// of the true occurrence interval covered by the prediction. Zero when the
/// event is predicted absent; undefined (returns `None`) when the event is
/// truly absent.
pub fn eta(pred: &IntervalPrediction, label: &EventLabel) -> Option<f64> {
    if !label.present {
        return None;
    }
    if !pred.present {
        return Some(0.0);
    }
    let lo = pred.start.max(label.start);
    let hi = pred.end.min(label.end);
    let overlap = if lo <= hi { (hi - lo + 1) as f64 } else { 0.0 };
    Some(overlap / (label.end - label.start + 1) as f64)
}

/// Per-(record, event) spillage contribution of Eq. 13: the fraction of
/// non-event horizon frames that the prediction relays.
pub fn spillage_term(pred: &IntervalPrediction, label: &EventLabel, horizon: u32) -> f64 {
    if !pred.present {
        return 0.0;
    }
    let pred_frames = (pred.end - pred.start + 1) as f64;
    if label.present {
        let lo = pred.start.max(label.start);
        let hi = pred.end.min(label.end);
        let overlap = if lo <= hi { (hi - lo + 1) as f64 } else { 0.0 };
        let true_frames = (label.end - label.start + 1) as f64;
        let non_event = (horizon as f64 - true_frames).max(1.0);
        (pred_frames - overlap) / non_event
    } else {
        pred_frames / horizon as f64
    }
}

/// Aggregate evaluation of one strategy over a test split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalOutcome {
    /// End-to-end frame-level recall (Eq. 12).
    pub rec: f64,
    /// Spillage — frame-level false-positive rate (Eq. 13).
    pub spl: f64,
    /// Existence-prediction recall `REC_c`.
    pub rec_c: f64,
    /// Interval recall over true-positive existence predictions `REC_r`.
    pub rec_r: f64,
    /// Total frames relayed to the CI (per record, the union over events of
    /// the predicted intervals).
    pub frames_relayed: u64,
    /// Total frames belonging to true occurrence intervals.
    pub true_frames: u64,
    /// Number of (record, event) pairs with the event truly present.
    pub positives: usize,
    /// Number of records evaluated.
    pub records: usize,
}

/// Evaluates per-record predictions (`preds[i][k]` for record `i`, event
/// `k`) against the records' ground truth.
///
/// Panicking wrapper around [`try_evaluate`], kept for call sites that
/// treat mismatched shapes as a programming error.
pub fn evaluate(
    preds: &[Vec<IntervalPrediction>],
    records: &[ScoredRecord],
    horizon: u32,
) -> EvalOutcome {
    try_evaluate(preds, records, horizon).unwrap_or_else(|e| panic!("evaluate failed: {e}"))
}

/// Fallible form of [`evaluate`]: a prediction set that does not line up
/// with the records (one set per record, one prediction per event)
/// surfaces as a typed [`CoreError::ShapeMismatch`] instead of an abort.
pub fn try_evaluate(
    preds: &[Vec<IntervalPrediction>],
    records: &[ScoredRecord],
    horizon: u32,
) -> Result<EvalOutcome, CoreError> {
    if preds.len() != records.len() {
        return Err(CoreError::ShapeMismatch {
            what: "one prediction set per record",
            expected: records.len(),
            got: preds.len(),
        });
    }
    let mut eta_sum = 0.0;
    let mut positives = 0usize;
    let mut hits = 0usize;
    let mut eta_hits_sum = 0.0;
    let mut spl_sum = 0.0;
    let mut pairs = 0usize;
    let mut frames_relayed = 0u64;
    let mut true_frames = 0u64;

    for (pred_vec, rec) in preds.iter().zip(records) {
        if pred_vec.len() != rec.labels.len() {
            return Err(CoreError::ShapeMismatch {
                what: "one prediction per event",
                expected: rec.labels.len(),
                got: pred_vec.len(),
            });
        }
        // Union of relayed intervals across events, for cost accounting.
        frames_relayed += union_frames(pred_vec);
        for (pred, label) in pred_vec.iter().zip(&rec.labels) {
            pairs += 1;
            spl_sum += spillage_term(pred, label, horizon);
            if label.present {
                positives += 1;
                true_frames += (label.end - label.start + 1) as u64;
                let e = eta(pred, label).expect("label present");
                eta_sum += e;
                if pred.present {
                    hits += 1;
                    eta_hits_sum += e;
                }
            }
        }
    }

    Ok(EvalOutcome {
        rec: if positives > 0 {
            eta_sum / positives as f64
        } else {
            0.0
        },
        spl: if pairs > 0 {
            spl_sum / pairs as f64
        } else {
            0.0
        },
        rec_c: if positives > 0 {
            hits as f64 / positives as f64
        } else {
            0.0
        },
        rec_r: if hits > 0 {
            eta_hits_sum / hits as f64
        } else {
            0.0
        },
        frames_relayed,
        true_frames,
        positives,
        records: records.len(),
    })
}

/// Per-event evaluation: one [`EvalOutcome`] per event index, computed on
/// the same predictions. Useful for the paper's observation that a
/// multi-event task "is bound by the event with the worst performance"
/// (§VI.D).
pub fn evaluate_per_event(
    preds: &[Vec<IntervalPrediction>],
    records: &[ScoredRecord],
    horizon: u32,
) -> Vec<EvalOutcome> {
    try_evaluate_per_event(preds, records, horizon)
        .unwrap_or_else(|e| panic!("evaluate_per_event failed: {e}"))
}

/// Fallible form of [`evaluate_per_event`], with the same shape contract
/// as [`try_evaluate`] plus: every record must carry the same number of
/// events as the first.
pub fn try_evaluate_per_event(
    preds: &[Vec<IntervalPrediction>],
    records: &[ScoredRecord],
    horizon: u32,
) -> Result<Vec<EvalOutcome>, CoreError> {
    if preds.len() != records.len() {
        return Err(CoreError::ShapeMismatch {
            what: "one prediction set per record",
            expected: records.len(),
            got: preds.len(),
        });
    }
    if records.is_empty() {
        return Ok(Vec::new());
    }
    let k_events = records[0].labels.len();
    for (pred_vec, rec) in preds.iter().zip(records) {
        let per_record = rec.labels.len().min(rec.scores.len());
        if per_record != k_events || pred_vec.len() != k_events {
            return Err(CoreError::ShapeMismatch {
                what: "same event count on every record and prediction set",
                expected: k_events,
                got: per_record.min(pred_vec.len()),
            });
        }
    }
    (0..k_events)
        .map(|k| {
            let single_preds: Vec<Vec<IntervalPrediction>> =
                preds.iter().map(|p| vec![p[k]]).collect();
            let single_records: Vec<ScoredRecord> = records
                .iter()
                .map(|r| ScoredRecord {
                    anchor: r.anchor,
                    scores: vec![r.scores[k].clone()],
                    labels: vec![r.labels[k]],
                })
                .collect();
            try_evaluate(&single_preds, &single_records, horizon)
        })
        .collect()
}

/// Existence-prediction precision: among (record, event) pairs predicted
/// positive, the fraction whose event truly occurs. Complements `REC_c` in
/// the precision/recall trade-off that C-CLASSIFY tunes (§IV.B). Returns 1
/// when nothing is predicted positive.
pub fn existence_precision(preds: &[Vec<IntervalPrediction>], records: &[ScoredRecord]) -> f64 {
    assert_eq!(preds.len(), records.len());
    let mut predicted = 0usize;
    let mut correct = 0usize;
    for (pred_vec, rec) in preds.iter().zip(records) {
        for (pred, label) in pred_vec.iter().zip(&rec.labels) {
            if pred.present {
                predicted += 1;
                if label.present {
                    correct += 1;
                }
            }
        }
    }
    if predicted == 0 {
        1.0
    } else {
        correct as f64 / predicted as f64
    }
}

/// C-CLASSIFY miss and positive counts `(misses, positives)` for event 0
/// at confidence `c`: the records where the event occurs, and those among
/// them the classifier calls absent. Raw counts, so callers can pool them
/// across seeds before taking a rate: single-seed test splits at smoke
/// scale hold only a few dozen positives, far too few to resolve a
/// one-percentage-point drift.
pub fn miss_counts(state: &ConformalState, test: &[ScoredRecord], c: f64) -> (usize, usize) {
    let mut misses = 0usize;
    let mut positives = 0usize;
    for rec in test {
        if !rec.labels[0].present {
            continue;
        }
        positives += 1;
        if !state.classifier(0).predict(rec.scores[0].b, c) {
            misses += 1;
        }
    }
    (misses, positives)
}

/// Where each ground-truth event instance of a (possibly faulted) run
/// ended up. Under fault injection a miss has two distinct causes — the
/// local predictor filtered the frames out, or the predictor relayed them
/// but the cloud path dropped the submission — and the distinction decides
/// whether to retune the predictor or harden the link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MissAttribution {
    /// Instances with at least one frame confirmed by the CI.
    pub detected: usize,
    /// Instances covered only by the local-only fallback (no CI
    /// confirmation; counted as covered but flagged).
    pub local_unconfirmed: usize,
    /// Instances missed because the predictor never relayed any of their
    /// frames.
    pub filtered_by_predictor: usize,
    /// Instances whose frames were relayed but lost to faults
    /// (dead-lettered or degraded submissions).
    pub dropped_by_faults: usize,
}

impl MissAttribution {
    /// Total ground-truth instances accounted for.
    pub fn total(&self) -> usize {
        self.detected + self.local_unconfirmed + self.filtered_by_predictor + self.dropped_by_faults
    }

    /// Instance recall counting only CI-confirmed coverage.
    pub fn confirmed_recall(&self) -> f64 {
        if self.total() == 0 {
            return 1.0;
        }
        self.detected as f64 / self.total() as f64
    }

    /// Instance recall counting local-only coverage as found.
    pub fn effective_recall(&self) -> f64 {
        if self.total() == 0 {
            return 1.0;
        }
        (self.detected + self.local_unconfirmed) as f64 / self.total() as f64
    }
}

/// Number of distinct horizon frames covered by at least one predicted
/// interval.
pub fn union_frames(preds: &[IntervalPrediction]) -> u64 {
    let mut spans: Vec<(u32, u32)> = preds
        .iter()
        .filter(|p| p.present)
        .map(|p| (p.start, p.end))
        .collect();
    if spans.is_empty() {
        return 0;
    }
    spans.sort_unstable();
    let mut total = 0u64;
    let (mut cur_s, mut cur_e) = spans[0];
    for &(s, e) in &spans[1..] {
        if s <= cur_e + 1 {
            cur_e = cur_e.max(e);
        } else {
            total += (cur_e - cur_s + 1) as u64;
            (cur_s, cur_e) = (s, e);
        }
    }
    total + (cur_e - cur_s + 1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::EventScores;

    fn label(start: u32, end: u32) -> EventLabel {
        EventLabel {
            present: true,
            start,
            end,
            censored: false,
        }
    }

    fn pred(start: u32, end: u32) -> IntervalPrediction {
        IntervalPrediction {
            present: true,
            start,
            end,
        }
    }

    fn scored(labels: Vec<EventLabel>) -> ScoredRecord {
        let scores = labels
            .iter()
            .map(|_| EventScores {
                b: 0.5,
                theta: vec![],
            })
            .collect();
        ScoredRecord {
            anchor: 0,
            scores,
            labels,
        }
    }

    #[test]
    fn eta_full_partial_none() {
        let l = label(10, 19);
        assert_eq!(eta(&pred(10, 19), &l), Some(1.0));
        assert_eq!(eta(&pred(1, 100), &l), Some(1.0));
        assert_eq!(eta(&pred(15, 19), &l), Some(0.5));
        assert_eq!(eta(&pred(30, 40), &l), Some(0.0));
        assert_eq!(eta(&IntervalPrediction::absent(), &l), Some(0.0));
        assert_eq!(eta(&pred(1, 5), &EventLabel::absent()), None);
    }

    #[test]
    fn spillage_true_positive_case() {
        // H = 100, true [11, 20] (10 frames), predicted [6, 25] (20 frames,
        // 10 excess): SPL term = 10 / (100 - 10).
        let t = spillage_term(&pred(6, 25), &label(11, 20), 100);
        assert!((t - 10.0 / 90.0).abs() < 1e-12);
    }

    #[test]
    fn spillage_false_positive_case() {
        // Event absent, predicted 20 frames of 100: term = 0.2.
        let t = spillage_term(&pred(1, 20), &EventLabel::absent(), 100);
        assert!((t - 0.2).abs() < 1e-12);
    }

    #[test]
    fn spillage_zero_for_absent_prediction() {
        assert_eq!(
            spillage_term(&IntervalPrediction::absent(), &label(1, 10), 100),
            0.0
        );
        assert_eq!(
            spillage_term(&IntervalPrediction::absent(), &EventLabel::absent(), 100),
            0.0
        );
    }

    #[test]
    fn spillage_guards_full_horizon_event() {
        // Event covers the whole horizon: denominator guard kicks in.
        let t = spillage_term(&pred(1, 100), &label(1, 100), 100);
        assert_eq!(t, 0.0);
    }

    #[test]
    fn evaluate_mixed_records() {
        let records = vec![
            scored(vec![label(11, 20)]),
            scored(vec![EventLabel::absent()]),
            scored(vec![label(1, 10)]),
        ];
        let preds = vec![
            vec![pred(11, 20)],                 // perfect
            vec![pred(1, 50)],                  // pure false positive
            vec![IntervalPrediction::absent()], // miss
        ];
        let out = evaluate(&preds, &records, 100);
        assert!((out.rec - 0.5).abs() < 1e-12); // (1 + 0) / 2
        assert!((out.rec_c - 0.5).abs() < 1e-12); // 1 of 2 found
        assert!((out.rec_r - 1.0).abs() < 1e-12); // found one is perfect
        assert!((out.spl - 0.5 / 3.0).abs() < 1e-12); // only the FP spills
        assert_eq!(out.frames_relayed, 10 + 50);
        assert_eq!(out.true_frames, 20);
        assert_eq!(out.positives, 2);
    }

    #[test]
    fn evaluate_oracle_has_perfect_scores() {
        let records = vec![
            scored(vec![label(5, 14)]),
            scored(vec![EventLabel::absent()]),
        ];
        let preds = vec![vec![pred(5, 14)], vec![IntervalPrediction::absent()]];
        let out = evaluate(&preds, &records, 50);
        assert_eq!(out.rec, 1.0);
        assert_eq!(out.spl, 0.0);
        assert_eq!(out.rec_c, 1.0);
        assert_eq!(out.rec_r, 1.0);
    }

    #[test]
    fn evaluate_brute_force_has_full_recall_and_spillage() {
        let records = vec![
            scored(vec![label(5, 14)]),
            scored(vec![EventLabel::absent()]),
        ];
        let preds = vec![vec![pred(1, 50)], vec![pred(1, 50)]];
        let out = evaluate(&preds, &records, 50);
        assert_eq!(out.rec, 1.0);
        // SPL = mean(40/40, 50/50) = 1.
        assert_eq!(out.spl, 1.0);
    }

    #[test]
    fn per_event_breakdown_isolates_events() {
        // Event 0 predicted perfectly; event 1 always missed.
        let records = vec![
            scored(vec![label(1, 10), label(20, 29)]),
            scored(vec![label(5, 14), EventLabel::absent()]),
        ];
        let preds = vec![
            vec![pred(1, 10), IntervalPrediction::absent()],
            vec![pred(5, 14), IntervalPrediction::absent()],
        ];
        let per = evaluate_per_event(&preds, &records, 100);
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].rec, 1.0);
        assert_eq!(per[1].rec, 0.0);
        // Overall REC is the positive-weighted mean of the two.
        let overall = evaluate(&preds, &records, 100);
        assert!((overall.rec - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn existence_precision_counts_true_positives() {
        let records = vec![
            scored(vec![label(1, 10)]),
            scored(vec![EventLabel::absent()]),
        ];
        // One correct positive, one false positive.
        let preds = vec![vec![pred(1, 10)], vec![pred(1, 10)]];
        assert!((existence_precision(&preds, &records) - 0.5).abs() < 1e-12);
        // Nothing predicted: precision defined as 1.
        let none = vec![vec![IntervalPrediction::absent()]; 2];
        assert_eq!(existence_precision(&none, &records), 1.0);
    }

    #[test]
    fn shape_mismatches_surface_as_typed_errors() {
        let records = vec![scored(vec![label(1, 10)])];
        // Wrong number of prediction sets.
        let err = try_evaluate(&[], &records, 100).unwrap_err();
        assert!(matches!(
            err,
            CoreError::ShapeMismatch {
                expected: 1,
                got: 0,
                ..
            }
        ));
        // Wrong number of predictions within a set.
        let err = try_evaluate(&[vec![pred(1, 2), pred(3, 4)]], &records, 100).unwrap_err();
        assert!(matches!(
            err,
            CoreError::ShapeMismatch {
                expected: 1,
                got: 2,
                ..
            }
        ));
        // Per-event form rejects ragged event counts.
        let ragged = vec![
            scored(vec![label(1, 10), label(20, 29)]),
            scored(vec![label(1, 10)]),
        ];
        let preds = vec![
            vec![pred(1, 10), pred(20, 29)],
            vec![pred(1, 10), pred(20, 29)],
        ];
        assert!(try_evaluate_per_event(&preds, &ragged, 100).is_err());
        // The happy path agrees with the panicking wrapper.
        let ok_records = vec![scored(vec![label(1, 10)])];
        let ok_preds = vec![vec![pred(1, 10)]];
        assert_eq!(
            try_evaluate(&ok_preds, &ok_records, 100).unwrap(),
            evaluate(&ok_preds, &ok_records, 100)
        );
    }

    #[test]
    fn union_frames_merges_overlaps() {
        assert_eq!(union_frames(&[pred(1, 10), pred(5, 15)]), 15);
        assert_eq!(union_frames(&[pred(1, 10), pred(11, 20)]), 20); // adjacent
        assert_eq!(union_frames(&[pred(1, 10), pred(20, 29)]), 20); // disjoint
        assert_eq!(union_frames(&[IntervalPrediction::absent()]), 0);
        assert_eq!(union_frames(&[]), 0);
    }

    #[test]
    fn miss_attribution_recalls() {
        let a = MissAttribution {
            detected: 6,
            local_unconfirmed: 1,
            filtered_by_predictor: 2,
            dropped_by_faults: 1,
        };
        assert_eq!(a.total(), 10);
        assert!((a.confirmed_recall() - 0.6).abs() < 1e-12);
        assert!((a.effective_recall() - 0.7).abs() < 1e-12);
        let empty = MissAttribution::default();
        assert_eq!(empty.confirmed_recall(), 1.0);
        assert_eq!(empty.effective_recall(), 1.0);
    }

    #[test]
    fn multi_event_record_averages_over_pairs() {
        let records = vec![scored(vec![label(1, 10), EventLabel::absent()])];
        let preds = vec![vec![pred(1, 10), pred(1, 25)]];
        let out = evaluate(&preds, &records, 100);
        assert_eq!(out.rec, 1.0);
        assert!((out.spl - 0.125).abs() < 1e-12); // (0 + 0.25) / 2
        assert_eq!(out.frames_relayed, 25); // union of [1,10] and [1,25]
    }
}

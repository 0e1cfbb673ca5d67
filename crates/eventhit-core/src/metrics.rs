//! Evaluation measures of §VI.C: frame-level recall `REC` (Eq. 12),
//! spillage `SPL` (Eq. 13), and the component measures `REC_c` / `REC_r`.

use std::iter::Sum;

use eventhit_video::records::EventLabel;

use crate::error::CoreError;
use crate::infer::{raw_interval, IntervalPrediction, ScoredRecord};
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
///
/// The shape contract is [`try_evaluate`]'s, plus: every record must carry
/// the same number of events as the first.
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

/// Conformal coverage counts of one event (or of several, pooled) over a
/// test split: how often the guarantees of Theorems 4.2 and 5.2 held.
///
/// Raw counts, so pooling across runs or events is a sum (see the [`Sum`]
/// impl) and a rate is taken only after pooling: single-seed test splits
/// at smoke scale hold only a few dozen positives, far too few to resolve
/// a one-percentage-point drift.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageCounts {
    /// Records where the event truly occurs.
    pub positives: usize,
    /// Per requested confidence `c` (in request order): positives
    /// C-CLASSIFY calls absent.
    pub misses: Vec<usize>,
    /// Per requested level `α`: positives whose true start lies within
    /// `±q̂` of the raw (EHO, `τ_2`) start estimate.
    pub starts_covered: Vec<usize>,
    /// Per requested level `α`: the same for the true end.
    pub ends_covered: Vec<usize>,
}

impl CoverageCounts {
    /// `count` as a share of the positives (0 when there are none).
    pub fn rate(&self, count: usize) -> f64 {
        count as f64 / self.positives.max(1) as f64
    }
}

impl Sum for CoverageCounts {
    /// Pools count sets taken at the same levels.
    fn sum<I: Iterator<Item = CoverageCounts>>(iter: I) -> Self {
        fn add(total: &mut [usize], part: &[usize]) {
            assert_eq!(total.len(), part.len(), "counts taken at different levels");
            total.iter_mut().zip(part).for_each(|(t, p)| *t += p);
        }
        iter.reduce(|mut total, part| {
            total.positives += part.positives;
            add(&mut total.misses, &part.misses);
            add(&mut total.starts_covered, &part.starts_covered);
            add(&mut total.ends_covered, &part.ends_covered);
            total
        })
        .unwrap_or_default()
    }
}

/// The conformal coverage of `state` over the scored `test` split, one
/// [`CoverageCounts`] per event, at each confidence in `cs` and each
/// level in `alphas`: the one place the guarantees' empirical side is
/// counted.
///
/// A positive is missed at `c` when C-CLASSIFY calls it absent
/// (Theorem 4.2 bounds the miss rate by `1 - c`). Its start (end) is
/// covered at `α` when the true offset lies within the level-`α`
/// quantile of the raw estimate taken at the state's own `τ_2`, the
/// threshold its residuals were fitted at (Theorem 5.2 covers each with
/// probability `≥ α`).
pub fn coverage(
    state: &ConformalState,
    test: &[ScoredRecord],
    cs: &[f64],
    alphas: &[f64],
) -> Vec<CoverageCounts> {
    (0..state.num_events())
        .map(|k| {
            let mut counts = CoverageCounts {
                positives: 0,
                misses: vec![0; cs.len()],
                starts_covered: vec![0; alphas.len()],
                ends_covered: vec![0; alphas.len()],
            };
            for rec in test.iter().filter(|rec| rec.labels[k].present) {
                let (label, scores) = (&rec.labels[k], &rec.scores[k]);
                counts.positives += 1;
                for (missed, &c) in counts.misses.iter_mut().zip(cs) {
                    *missed += usize::from(!state.classifier(k).predict(scores.b, c));
                }
                let (s_hat, e_hat) = raw_interval(scores, state.tau2());
                let start_residual = (label.start as f64 - s_hat as f64).abs();
                let end_residual = (label.end as f64 - e_hat as f64).abs();
                for (i, &alpha) in alphas.iter().enumerate() {
                    let (qs, qe) = state.interval_calibration(k).quantiles(alpha);
                    counts.starts_covered[i] += usize::from(start_residual <= qs);
                    counts.ends_covered[i] += usize::from(end_residual <= qe);
                }
            }
            counts
        })
        .collect()
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
        let per = try_evaluate_per_event(&preds, &records, 100).unwrap();
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

    /// A scored record whose θ clears 0.3 over offsets 2..=8 and 0.5 over
    /// 4..=6 only, so the raw interval depends on `τ_2`.
    fn graded(b: f64, label: EventLabel) -> ScoredRecord {
        let theta = (1..=10)
            .map(|offset| match offset {
                4..=6 => 0.9,
                2..=8 => 0.4,
                _ => 0.0,
            })
            .collect();
        ScoredRecord {
            anchor: 0,
            scores: vec![EventScores { b, theta }],
            labels: vec![label],
        }
    }

    /// A state fitted at `τ_2 = 0.3` (raw interval [2, 8]) on b scores
    /// 0.9, 0.7, 0.5, 0.3: start residuals {0, 1, 2, 3} and end residuals
    /// {0, 0, 1, 3}, so `q̂ = (2, 1)` at α = 0.5 and `(3, 3)` at α = 0.9.
    fn state_at_tau2_0_3() -> ConformalState {
        let calib: Vec<_> = [(0.9, 2, 8), (0.7, 3, 8), (0.5, 4, 7), (0.3, 5, 5)]
            .iter()
            .map(|&(b, start, end)| graded(b, label(start, end)))
            .collect();
        ConformalState::try_fit(&calib, 1, 0.3, 10).unwrap()
    }

    /// Positives with p-values 1, 0.6, 0.4, 0.2, start residuals
    /// 0, 2, 3, 4 and end residuals 0, 1, 0, 2 from [2, 8], plus one
    /// negative.
    fn test_split() -> Vec<ScoredRecord> {
        vec![
            graded(0.95, label(2, 8)),
            graded(0.6, label(4, 7)),
            graded(0.4, label(5, 8)),
            graded(0.2, label(6, 6)),
            graded(0.9, EventLabel::absent()),
        ]
    }

    #[test]
    fn coverage_counts_at_the_states_own_tau2() {
        let state = state_at_tau2_0_3();
        let cov = coverage(&state, &test_split(), &[0.5, 0.7], &[0.5, 0.9]);
        let expected = CoverageCounts {
            positives: 4,
            // p < 0.5 twice, p < 0.3 once.
            misses: vec![2, 1],
            // Taken from [4, 6] (τ_2 = 0.5) the start residuals would be
            // 2, 0, 1, 2: four starts covered at α = 0.5, not two.
            starts_covered: vec![2, 3],
            ends_covered: vec![3, 4],
        };
        assert_eq!(cov, vec![expected.clone()]);
        assert_eq!(expected.rate(expected.misses[0]), 0.5);
        assert_eq!(CoverageCounts::default().rate(0), 0.0);
    }

    #[test]
    fn coverage_of_concatenated_splits_is_the_sum() {
        let state = state_at_tau2_0_3();
        let (cs, alphas) = ([0.5, 0.7, 0.95], [0.5, 0.9]);
        let split = test_split();
        let (a, b) = split.split_at(2);
        let whole = coverage(&state, &split, &cs, &alphas);
        let parts: CoverageCounts = [a, b]
            .iter()
            .map(|part| coverage(&state, part, &cs, &alphas).remove(0))
            .sum();
        assert_eq!(whole, vec![parts]);
        assert_eq!(whole[0].positives, 4);
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

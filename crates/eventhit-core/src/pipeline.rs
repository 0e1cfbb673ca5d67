//! Prediction strategies: EHO, EHC, EHR, EHCR (§VI.B items 1–4).
//!
//! [`ConformalState`] is fitted once per task from the calibration split's
//! scored records (Algorithm 1 lines 4–6 and Algorithm 2 lines 5–16); a
//! [`Strategy`] then turns any scored record into per-event
//! [`IntervalPrediction`]s. Because the state holds the full calibration
//! score sets, sweeping `c` and `α` costs nothing beyond the per-record
//! decision.

use eventhit_conformal::classify::ConformalClassifier;
use eventhit_conformal::nonconformity::Nonconformity;
use eventhit_conformal::regress::IntervalCalibration;

use crate::error::{CoreError, CoreResult};
use crate::infer::{eho_predict, raw_interval, IntervalPrediction, ScoredRecord};

/// Which algorithm variant decides existence and interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Thresholds only (Eq. 4–6): `b >= tau1`, raw interval.
    Eho {
        /// Existence threshold `τ_1`.
        tau1: f64,
    },
    /// C-CLASSIFY existence (Eq. 9), raw interval.
    Ehc {
        /// Confidence level `c`.
        c: f64,
    },
    /// Threshold existence, C-REGRESS interval (Eq. 11).
    Ehr {
        /// Existence threshold `τ_1`.
        tau1: f64,
        /// Coverage level `α`.
        alpha: f64,
    },
    /// C-CLASSIFY existence and C-REGRESS interval.
    Ehcr {
        /// Confidence level `c`.
        c: f64,
        /// Coverage level `α`.
        alpha: f64,
    },
}

impl Strategy {
    /// Short display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Eho { .. } => "EHO",
            Strategy::Ehc { .. } => "EHC",
            Strategy::Ehr { .. } => "EHR",
            Strategy::Ehcr { .. } => "EHCR",
        }
    }
}

/// Fitted calibration state for one task: per-event conformal classifier
/// and interval calibration.
#[derive(Debug, Clone)]
pub struct ConformalState {
    classifiers: Vec<ConformalClassifier>,
    intervals: Vec<IntervalCalibration>,
    tau2: f32,
    horizon: u32,
}

impl ConformalState {
    /// Fits from the calibration split's scored records.
    ///
    /// For each event `k`:
    /// * the conformal classifier is fitted on the `b_k` scores of records
    ///   where `E_k` truly occurs (Algorithm 1);
    /// * interval residuals `|ŝ - s|`, `|ê - e|` are computed from the raw
    ///   (EHO, `τ_2`) interval estimate on the same records (Algorithm 2).
    ///
    /// Rejects calibration records whose score or label vectors are
    /// shorter than `num_events` with [`CoreError::ShapeMismatch`].
    pub fn try_fit(
        calib: &[ScoredRecord],
        num_events: usize,
        tau2: f32,
        horizon: usize,
    ) -> CoreResult<Self> {
        for rec in calib {
            if rec.scores.len() < num_events {
                return Err(CoreError::ShapeMismatch {
                    what: "calibration record scores",
                    expected: num_events,
                    got: rec.scores.len(),
                });
            }
            if rec.labels.len() < num_events {
                return Err(CoreError::ShapeMismatch {
                    what: "calibration record labels",
                    expected: num_events,
                    got: rec.labels.len(),
                });
            }
        }
        let mut classifiers = Vec::with_capacity(num_events);
        let mut intervals = Vec::with_capacity(num_events);
        for k in 0..num_events {
            let mut b_scores = Vec::new();
            let mut start_residuals = Vec::new();
            let mut end_residuals = Vec::new();
            for rec in calib {
                let label = &rec.labels[k];
                if !label.present {
                    continue;
                }
                b_scores.push(rec.scores[k].b);
                let (s_hat, e_hat) = raw_interval(&rec.scores[k], tau2);
                start_residuals.push((s_hat as f64 - label.start as f64).abs());
                end_residuals.push((e_hat as f64 - label.end as f64).abs());
            }
            classifiers.push(ConformalClassifier::fit(
                &b_scores,
                Nonconformity::OneMinusScore,
            ));
            intervals.push(IntervalCalibration::fit(start_residuals, end_residuals));
        }
        Ok(ConformalState {
            classifiers,
            intervals,
            tau2,
            horizon: horizon as u32,
        })
    }

    /// Number of event types.
    pub fn num_events(&self) -> usize {
        self.classifiers.len()
    }

    /// The θ threshold `τ_2` this state was fitted with — needed to refit
    /// an equivalent state from rescored calibration records (e.g. on the
    /// quantized inference lane).
    pub fn tau2(&self) -> f32 {
        self.tau2
    }

    /// The prediction horizon `H` this state was fitted for.
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// Reassembles a state from its fitted parts — the inverse of reading
    /// them back through [`ConformalState::classifier`] /
    /// [`ConformalState::interval_calibration`] / [`ConformalState::tau2`]
    /// / [`ConformalState::horizon`]. The durable serving layer uses this
    /// to restore a persisted state bit-identically without re-scoring
    /// the calibration split.
    pub fn from_parts(
        classifiers: Vec<ConformalClassifier>,
        intervals: Vec<IntervalCalibration>,
        tau2: f32,
        horizon: u32,
    ) -> CoreResult<Self> {
        if classifiers.len() != intervals.len() {
            return Err(CoreError::ShapeMismatch {
                what: "conformal state parts",
                expected: classifiers.len(),
                got: intervals.len(),
            });
        }
        Ok(ConformalState {
            classifiers,
            intervals,
            tau2,
            horizon,
        })
    }

    /// Per-event positive calibration-set sizes.
    pub fn calibration_sizes(&self) -> Vec<usize> {
        self.classifiers
            .iter()
            .map(ConformalClassifier::calibration_size)
            .collect()
    }

    /// The fitted conformal classifier of event `k`.
    pub fn classifier(&self, k: usize) -> &ConformalClassifier {
        &self.classifiers[k]
    }

    /// The fitted interval calibration of event `k`.
    pub fn interval_calibration(&self, k: usize) -> &IntervalCalibration {
        &self.intervals[k]
    }

    /// Predicts all events of one record under `strategy`.
    pub fn predict(&self, rec: &ScoredRecord, strategy: &Strategy) -> Vec<IntervalPrediction> {
        (0..self.num_events())
            .map(|k| self.predict_event(rec, k, strategy))
            .collect()
    }

    /// Fallible [`ConformalState::predict`]: rejects records scored for
    /// fewer events than this state was fitted on.
    pub fn try_predict(
        &self,
        rec: &ScoredRecord,
        strategy: &Strategy,
    ) -> CoreResult<Vec<IntervalPrediction>> {
        if rec.scores.len() < self.num_events() {
            return Err(CoreError::ShapeMismatch {
                what: "scored record events",
                expected: self.num_events(),
                got: rec.scores.len(),
            });
        }
        Ok(self.predict(rec, strategy))
    }

    /// Predicts one event of one record under `strategy`.
    pub fn predict_event(
        &self,
        rec: &ScoredRecord,
        k: usize,
        strategy: &Strategy,
    ) -> IntervalPrediction {
        let scores = &rec.scores[k];
        match *strategy {
            Strategy::Eho { tau1 } => eho_predict(scores, tau1, self.tau2),
            Strategy::Ehc { c } => {
                if !self.classifiers[k].predict(scores.b, c) {
                    return IntervalPrediction::absent();
                }
                let (start, end) = raw_interval(scores, self.tau2);
                IntervalPrediction {
                    present: true,
                    start,
                    end,
                }
            }
            Strategy::Ehr { tau1, alpha } => {
                if scores.b < tau1 {
                    return IntervalPrediction::absent();
                }
                let (s, e) = raw_interval(scores, self.tau2);
                let (start, end) = self.intervals[k].adjust(s, e, self.horizon, alpha);
                IntervalPrediction {
                    present: true,
                    start,
                    end,
                }
            }
            Strategy::Ehcr { c, alpha } => {
                if !self.classifiers[k].predict(scores.b, c) {
                    return IntervalPrediction::absent();
                }
                let (s, e) = raw_interval(scores, self.tau2);
                let (start, end) = self.intervals[k].adjust(s, e, self.horizon, alpha);
                IntervalPrediction {
                    present: true,
                    start,
                    end,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::EventScores;
    use eventhit_video::records::EventLabel;

    /// A calibration set whose positives have b scores 0.9, 0.7, 0.5, 0.3
    /// and true interval [4, 6] with raw estimates [3, 7].
    fn calib_set() -> Vec<ScoredRecord> {
        [0.9, 0.7, 0.5, 0.3]
            .iter()
            .map(|&b| {
                let mut theta = vec![0.0f32; 10];
                for t in theta.iter_mut().take(7).skip(2) {
                    *t = 0.9; // offsets 3..=7
                }
                ScoredRecord {
                    anchor: 0,
                    scores: vec![EventScores { b, theta }],
                    labels: vec![EventLabel {
                        present: true,
                        start: 4,
                        end: 6,
                        censored: false,
                    }],
                }
            })
            .collect()
    }

    fn test_record(b: f64) -> ScoredRecord {
        let mut theta = vec![0.0f32; 10];
        theta[4] = 0.9; // offset 5 only
        ScoredRecord {
            anchor: 1,
            scores: vec![EventScores { b, theta }],
            labels: vec![EventLabel::absent()],
        }
    }

    #[test]
    fn fit_collects_positive_scores_and_residuals() {
        let state = ConformalState::try_fit(&calib_set(), 1, 0.5, 10).unwrap();
        assert_eq!(state.calibration_sizes(), vec![4]);
        // Residuals: |3-4| = 1 (start), |7-6| = 1 (end) for all records.
        let (qs, qe) = state.interval_calibration(0).quantiles(0.9);
        assert_eq!((qs, qe), (1.0, 1.0));
    }

    #[test]
    fn eho_strategy_uses_threshold() {
        let state = ConformalState::try_fit(&calib_set(), 1, 0.5, 10).unwrap();
        let rec = test_record(0.6);
        let p = state.predict(&rec, &Strategy::Eho { tau1: 0.5 })[0];
        assert!(p.present);
        assert_eq!((p.start, p.end), (5, 5));
        let p = state.predict(&rec, &Strategy::Eho { tau1: 0.7 })[0];
        assert!(!p.present);
    }

    #[test]
    fn ehc_strategy_uses_p_values() {
        let state = ConformalState::try_fit(&calib_set(), 1, 0.5, 10).unwrap();
        // b = 0.2 => a = 0.8, all 4 calib non-conformities (0.1..0.7) below
        // => p = 1/5 = 0.2. Predicted positive iff 0.2 >= 1 - c.
        let rec = test_record(0.2);
        assert!(!state.predict(&rec, &Strategy::Ehc { c: 0.7 })[0].present);
        assert!(state.predict(&rec, &Strategy::Ehc { c: 0.8 })[0].present);
        assert!(state.predict(&rec, &Strategy::Ehc { c: 0.95 })[0].present);
    }

    #[test]
    fn ehr_widens_interval() {
        let state = ConformalState::try_fit(&calib_set(), 1, 0.5, 10).unwrap();
        let rec = test_record(0.9);
        let eho = state.predict(&rec, &Strategy::Eho { tau1: 0.5 })[0];
        let ehr = state.predict(
            &rec,
            &Strategy::Ehr {
                tau1: 0.5,
                alpha: 0.9,
            },
        )[0];
        assert!(ehr.start <= eho.start && ehr.end >= eho.end);
        assert_eq!((ehr.start, ehr.end), (4, 6)); // widened by q = 1 each side
    }

    #[test]
    fn ehcr_combines_both() {
        let state = ConformalState::try_fit(&calib_set(), 1, 0.5, 10).unwrap();
        let rec = test_record(0.2);
        // Existence via conformal (c = 0.9 admits), interval widened.
        let p = state.predict(&rec, &Strategy::Ehcr { c: 0.9, alpha: 0.9 })[0];
        assert!(p.present);
        assert_eq!((p.start, p.end), (4, 6));
        // Low c rejects.
        let p = state.predict(&rec, &Strategy::Ehcr { c: 0.5, alpha: 0.9 })[0];
        assert!(!p.present);
    }

    #[test]
    fn higher_c_never_shrinks_prediction_set() {
        let state = ConformalState::try_fit(&calib_set(), 1, 0.5, 10).unwrap();
        for b in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let rec = test_record(b);
            for (c_lo, c_hi) in [(0.5, 0.7), (0.7, 0.9), (0.9, 0.99)] {
                let lo = state.predict(&rec, &Strategy::Ehc { c: c_lo })[0];
                let hi = state.predict(&rec, &Strategy::Ehc { c: c_hi })[0];
                if lo.present {
                    assert!(hi.present, "b={b} c={c_lo}->{c_hi}");
                }
            }
        }
    }

    #[test]
    fn try_fit_rejects_short_records() {
        let mut calib = calib_set();
        calib[1].scores.clear();
        let err = ConformalState::try_fit(&calib, 1, 0.5, 10).unwrap_err();
        assert!(matches!(
            err,
            CoreError::ShapeMismatch {
                what: "calibration record scores",
                expected: 1,
                got: 0,
            }
        ));
    }

    #[test]
    fn try_predict_rejects_short_records() {
        let state = ConformalState::try_fit(&calib_set(), 1, 0.5, 10).unwrap();
        let mut rec = test_record(0.5);
        assert!(state
            .try_predict(&rec, &Strategy::Eho { tau1: 0.5 })
            .is_ok());
        rec.scores.clear();
        let err = state
            .try_predict(&rec, &Strategy::Eho { tau1: 0.5 })
            .unwrap_err();
        assert!(matches!(err, CoreError::ShapeMismatch { .. }));
    }

    #[test]
    fn strategy_names() {
        assert_eq!(Strategy::Eho { tau1: 0.5 }.name(), "EHO");
        assert_eq!(Strategy::Ehcr { c: 0.9, alpha: 0.5 }.name(), "EHCR");
    }
}

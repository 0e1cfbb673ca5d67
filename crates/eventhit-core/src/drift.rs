//! Drift detection and adaptation — the paper's §VIII future-work item
//! ("detect and adapt to changes in the occurrence distribution over
//! time").
//!
//! Conformal p-values offer a principled handle: under exchangeability
//! (the stationary regime the paper assumes) the p-values of *positive*
//! test examples are (super-)uniform on `[0, 1]`. When the stream drifts —
//! precursors change shape, event dynamics shift — the model's scores
//! degrade, positives' non-conformity rises, and their p-values pile up
//! near 0.
//!
//! [`DriftDetector`] monitors a power martingale over incoming p-values
//! (Vovk et al.: `M_n = Π ε p_i^{ε-1}`): under exchangeability `M_n` is a
//! non-negative martingale with mean 1, so by Ville's inequality
//! `P(sup M_n ≥ λ) ≤ 1/λ` — an alarm at `M_n ≥ 1/δ` has false-alarm
//! probability at most `δ` over the whole run. [`Recalibrator`] keeps a
//! sliding buffer of recent labelled records and refits the conformal
//! state when the detector fires.

use std::collections::VecDeque;

use crate::error::CoreResult;
use crate::infer::ScoredRecord;
use crate::pipeline::ConformalState;

/// State of the drift monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftStatus {
    /// Martingale within bounds: no evidence against exchangeability.
    Stationary,
    /// Martingale crossed the alarm threshold: the p-value stream is no
    /// longer exchangeable — recalibrate or retrain.
    Drift,
}

/// A power-martingale drift detector over conformal p-values.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    epsilon: f64,
    log_martingale: f64,
    log_threshold: f64,
    max_log: f64,
    observations: u64,
}

impl DriftDetector {
    /// Creates a detector with betting exponent `epsilon` in (0, 1)
    /// (0.1–0.3 is customary) and false-alarm bound `delta` in (0, 1):
    /// the probability of ever alarming on an exchangeable stream is ≤
    /// `delta`.
    pub fn new(epsilon: f64, delta: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&epsilon) && epsilon > 0.0,
            "epsilon in (0,1)"
        );
        assert!((0.0..1.0).contains(&delta) && delta > 0.0, "delta in (0,1)");
        DriftDetector {
            epsilon,
            log_martingale: 0.0,
            log_threshold: (1.0 / delta).ln(),
            max_log: 0.0,
            observations: 0,
        }
    }

    /// Feeds one conformal p-value; returns the current status.
    pub fn observe(&mut self, p: f64) -> DriftStatus {
        let p = p.clamp(1e-9, 1.0);
        // Betting function: ε p^{ε-1}; integrates to 1 over [0,1].
        self.log_martingale += self.epsilon.ln() + (self.epsilon - 1.0) * p.ln();
        self.observations += 1;
        if self.log_martingale > self.max_log {
            self.max_log = self.log_martingale;
        }
        self.status()
    }

    /// Current status without feeding a new value.
    pub fn status(&self) -> DriftStatus {
        if self.max_log >= self.log_threshold {
            DriftStatus::Drift
        } else {
            DriftStatus::Stationary
        }
    }

    /// Current martingale value (may overflow to `inf` after long drifts;
    /// the log is tracked internally).
    pub fn martingale(&self) -> f64 {
        self.log_martingale.exp()
    }

    /// Natural log of the current martingale value.
    pub fn log_martingale(&self) -> f64 {
        self.log_martingale
    }

    /// Number of p-values observed.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Resets the martingale (after acting on an alarm).
    pub fn reset(&mut self) {
        self.log_martingale = 0.0;
        self.max_log = 0.0;
        self.observations = 0;
    }
}

/// Sliding-window recalibration: buffers recent labelled records and refits
/// the conformal state on demand (e.g. when [`DriftDetector`] fires).
pub struct Recalibrator {
    buffer: VecDeque<ScoredRecord>,
    capacity: usize,
    num_events: usize,
    tau2: f32,
    horizon: usize,
}

impl Recalibrator {
    /// Creates a recalibrator holding up to `capacity` recent records.
    pub fn new(capacity: usize, num_events: usize, tau2: f32, horizon: usize) -> Self {
        assert!(capacity > 0);
        Recalibrator {
            buffer: VecDeque::with_capacity(capacity),
            capacity,
            num_events,
            tau2,
            horizon,
        }
    }

    /// Adds a labelled record (oldest evicted beyond capacity).
    pub fn push(&mut self, record: ScoredRecord) {
        if self.buffer.len() == self.capacity {
            self.buffer.pop_front();
        }
        self.buffer.push_back(record);
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// Refits the conformal state from the buffered window. Fails with
    /// [`CoreError::ShapeMismatch`](crate::error::CoreError::ShapeMismatch)
    /// when a buffered record carries fewer than `num_events` scores or
    /// labels.
    pub fn refit(&self) -> CoreResult<ConformalState> {
        let records: Vec<ScoredRecord> = self.buffer.iter().cloned().collect();
        ConformalState::try_fit(&records, self.num_events, self.tau2, self.horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::EventScores;
    use eventhit_rng::rngs::StdRng;
    use eventhit_rng::{Rng, SeedableRng};
    use eventhit_video::records::EventLabel;

    #[test]
    fn stationary_uniform_p_values_rarely_alarm() {
        // Over several independent uniform streams, the delta = 0.01 bound
        // means alarms should be (essentially) absent.
        let mut rng = StdRng::seed_from_u64(1);
        let mut alarms = 0;
        for _ in 0..50 {
            let mut det = DriftDetector::new(0.2, 0.01);
            for _ in 0..2_000 {
                if det.observe(rng.random::<f64>()) == DriftStatus::Drift {
                    alarms += 1;
                    break;
                }
            }
        }
        assert!(alarms <= 2, "false alarms: {alarms}/50 (bound: ~1%)");
    }

    #[test]
    fn drifted_small_p_values_alarm_quickly() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut det = DriftDetector::new(0.2, 0.01);
        let mut steps = 0;
        // p-values concentrated near zero: model no longer conforms.
        while det.observe(rng.random::<f64>() * 0.05) == DriftStatus::Stationary {
            steps += 1;
            assert!(steps < 200, "detector failed to alarm under heavy drift");
        }
        assert_eq!(det.status(), DriftStatus::Drift);
    }

    #[test]
    fn alarm_latches_until_reset() {
        let mut det = DriftDetector::new(0.2, 0.1);
        for _ in 0..100 {
            det.observe(0.001);
        }
        assert_eq!(det.status(), DriftStatus::Drift);
        // Even after good p-values, the max is latched.
        for _ in 0..100 {
            det.observe(0.9);
        }
        assert_eq!(det.status(), DriftStatus::Drift);
        det.reset();
        assert_eq!(det.status(), DriftStatus::Stationary);
        assert_eq!(det.observations(), 0);
    }

    #[test]
    fn log_martingale_drifts_down_under_uniform() {
        // Under exchangeability the martingale has mean 1 but (as for any
        // positive martingale with variance) its LOG drifts downward:
        // E[ln(ε p^{ε-1})] = ln ε + (ε-1) E[ln p] = ln ε + (1 - ε).
        // For ε = 0.3 that is ≈ -0.504 per observation.
        let mut rng = StdRng::seed_from_u64(3);
        let n = 40_000;
        let mut det = DriftDetector::new(0.3, f64::MIN_POSITIVE);
        for _ in 0..n {
            det.observe(rng.random::<f64>());
        }
        let per_obs = det.log_martingale() / n as f64;
        let expected = 0.3f64.ln() + 0.7;
        assert!(
            (per_obs - expected).abs() < 0.02,
            "per-observation log drift {per_obs} vs expected {expected}"
        );
    }

    #[test]
    #[should_panic(expected = "epsilon in (0,1)")]
    fn rejects_bad_epsilon() {
        let _ = DriftDetector::new(1.0, 0.1);
    }

    fn record(b: f64, present: bool) -> ScoredRecord {
        ScoredRecord {
            anchor: 0,
            scores: vec![EventScores {
                b,
                theta: vec![0.9; 10],
            }],
            labels: vec![if present {
                EventLabel {
                    present: true,
                    start: 1,
                    end: 5,
                    censored: false,
                }
            } else {
                EventLabel::absent()
            }],
        }
    }

    #[test]
    fn recalibrator_evicts_and_refits() {
        let mut rc = Recalibrator::new(3, 1, 0.5, 10);
        assert!(rc.is_empty());
        for b in [0.9, 0.8, 0.7, 0.6] {
            rc.push(record(b, true));
        }
        assert_eq!(rc.len(), 3); // 0.9 evicted
        let state = rc.refit().unwrap();
        assert_eq!(state.calibration_sizes(), vec![3]);
    }

    #[test]
    fn refit_adapts_to_new_score_regime() {
        // Old regime: positives score ~0.9. After drift they score ~0.4.
        // A refit calibration admits 0.4-scoring positives at moderate c.
        let mut rc = Recalibrator::new(50, 1, 0.5, 10);
        for _ in 0..50 {
            rc.push(record(0.4, true));
        }
        let state = rc.refit().unwrap();
        let drifted = record(0.4, true);
        let p = state.predict(&drifted, &crate::pipeline::Strategy::Ehc { c: 0.6 });
        assert!(p[0].present, "refit calibration must accept the new regime");
    }

    #[test]
    fn refit_rejects_a_short_record() {
        let mut rc = Recalibrator::new(4, 2, 0.5, 10);
        rc.push(record(0.9, true));
        match rc.refit() {
            Err(crate::error::CoreError::ShapeMismatch { expected, got, .. }) => {
                assert_eq!((expected, got), (2, 1));
            }
            other => panic!("a one-event record cannot refit two events: {other:?}"),
        }
    }
}

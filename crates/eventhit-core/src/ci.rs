//! The cloud-inference (CI) simulator: per-frame pricing and stage timing.
//!
//! The paper's CI is a subscription service (Amazon Rekognition-class)
//! hosting an accurate, heavyweight event-detection model. We simulate it
//! as an oracle (it detects exactly the planted ground truth on the frames
//! it receives) with the paper's pricing (US $0.001/frame, §VI.G) and a
//! throughput model calibrated to Fig. 10's stage proportions.

use eventhit_video::detector::StageModel;

/// Amazon Rekognition pricing used in the paper's case study (§VI.G).
pub const PRICE_PER_FRAME_USD: f64 = 0.001;

/// Cost/throughput model of the full pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct CiConfig {
    /// Price charged per frame relayed to the CI.
    pub price_per_frame: f64,
    /// Throughput of the CI's event-detection model.
    pub ci: StageModel,
    /// Throughput of local feature extraction (lightweight detector).
    pub feature_extraction: StageModel,
}

impl Default for CiConfig {
    fn default() -> Self {
        CiConfig {
            price_per_frame: PRICE_PER_FRAME_USD,
            ci: StageModel::i3d_ci(),
            feature_extraction: StageModel::new("YOLOv3-class feature extraction", 100.0),
        }
    }
}

/// Accounted cost of processing a set of horizons.
#[derive(Debug, Clone, PartialEq)]
pub struct CostReport {
    /// Frames relayed to the CI.
    pub frames_relayed: u64,
    /// Total monetary expense (USD).
    pub expense: f64,
    /// Simulated seconds spent in feature extraction.
    pub feature_seconds: f64,
    /// Measured (or estimated) seconds spent in EventHit inference.
    pub predictor_seconds: f64,
    /// Simulated seconds spent in the CI.
    pub ci_seconds: f64,
    /// Frames covered by the processed horizons.
    pub frames_covered: u64,
}

impl CostReport {
    /// Total wall-clock seconds across all stages.
    pub fn total_seconds(&self) -> f64 {
        self.feature_seconds + self.predictor_seconds + self.ci_seconds
    }

    /// End-to-end throughput: stream frames covered per second of total
    /// processing (the paper's `FPS` measure, §VI.C).
    pub fn fps(&self) -> f64 {
        let t = self.total_seconds();
        if t <= 0.0 {
            f64::INFINITY
        } else {
            self.frames_covered as f64 / t
        }
    }

    /// Fraction of total time per stage:
    /// `(feature extraction, predictor, CI)` — Fig. 10's quantities.
    pub fn stage_fractions(&self) -> (f64, f64, f64) {
        let t = self.total_seconds();
        if t <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.feature_seconds / t,
            self.predictor_seconds / t,
            self.ci_seconds / t,
        )
    }
}

impl CiConfig {
    /// Accounts the cost of `num_horizons` prediction episodes:
    /// each extracts features for a collection window of `window` frames,
    /// runs the predictor (`predictor_seconds` measured externally), covers
    /// `horizon` stream frames, and relays `frames_relayed` frames total to
    /// the CI.
    pub fn account(
        &self,
        num_horizons: usize,
        window: usize,
        horizon: usize,
        frames_relayed: u64,
        predictor_seconds: f64,
    ) -> CostReport {
        let feature_frames = (num_horizons * window) as u64;
        CostReport {
            frames_relayed,
            expense: frames_relayed as f64 * self.price_per_frame,
            feature_seconds: self.feature_extraction.seconds_for(feature_frames),
            predictor_seconds,
            ci_seconds: self.ci.seconds_for(frames_relayed),
            frames_covered: (num_horizons * horizon) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expense_follows_pricing() {
        let ci = CiConfig::default();
        let report = ci.account(10, 25, 500, 1000, 0.5);
        assert!((report.expense - 1.0).abs() < 1e-12); // 1000 * $0.001
        assert_eq!(report.frames_covered, 5000);
        assert_eq!(report.frames_relayed, 1000);
    }

    #[test]
    fn stage_times_follow_throughputs() {
        let ci = CiConfig {
            price_per_frame: 0.001,
            ci: StageModel::new("ci", 10.0),
            feature_extraction: StageModel::new("fe", 100.0),
        };
        let report = ci.account(4, 50, 200, 400, 1.0);
        assert!((report.feature_seconds - 2.0).abs() < 1e-12); // 200 / 100
        assert!((report.ci_seconds - 40.0).abs() < 1e-12); // 400 / 10
        assert!((report.total_seconds() - 43.0).abs() < 1e-12);
        assert!((report.fps() - 800.0 / 43.0).abs() < 1e-9);
    }

    #[test]
    fn stage_fractions_sum_to_one() {
        let report = CiConfig::default().account(10, 25, 500, 800, 0.2);
        let (fe, pr, ci) = report.stage_fractions();
        assert!((fe + pr + ci - 1.0).abs() < 1e-12);
        // CI should dominate with these settings (Fig. 10 shape).
        assert!(ci > 0.8, "ci fraction {ci}");
    }

    #[test]
    fn relaying_less_is_faster_and_cheaper() {
        let ci = CiConfig::default();
        let lean = ci.account(100, 25, 500, 2_000, 1.0);
        let heavy = ci.account(100, 25, 500, 30_000, 1.0);
        assert!(lean.fps() > heavy.fps());
        assert!(lean.expense < heavy.expense);
    }

    #[test]
    fn zero_work_report() {
        let report = CiConfig::default().account(0, 25, 500, 0, 0.0);
        assert_eq!(report.expense, 0.0);
        assert_eq!(report.total_seconds(), 0.0);
        assert!(report.fps().is_infinite());
        assert_eq!(report.stage_fractions(), (0.0, 0.0, 0.0));
    }
}

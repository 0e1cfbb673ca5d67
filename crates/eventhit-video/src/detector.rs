//! Throughput models of the vision-model stages.
//!
//! The paper accounts wall-clock time in three stages (Fig. 10): feature
//! extraction (a lightweight detector such as YOLOv3, ~25 fps per §VI.D
//! footnote 8), the EventHit network itself (negligible), and the CI's heavy
//! event-detection model (I3D-class, the dominant cost). We cannot run the
//! actual models, so each stage carries a frames-per-second rating used to
//! convert frame counts into simulated seconds; EventHit inference time is
//! measured for real.

/// Throughput rating of one processing stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageModel {
    /// Human-readable stage name.
    pub name: String,
    /// Frames processed per second.
    pub fps: f64,
}

impl StageModel {
    /// Creates a stage model.
    pub fn new(name: &str, fps: f64) -> Self {
        assert!(fps > 0.0, "fps must be positive");
        StageModel {
            name: name.to_string(),
            fps,
        }
    }

    /// I3D-class event-detection model served by the cloud infrastructure.
    /// Rated ≈8 fps so that CI time dominates as in Fig. 10 (95.9% of total
    /// at REC=0.9 on TA10).
    pub fn i3d_ci() -> Self {
        StageModel::new("CI event detection (I3D)", 8.0)
    }

    /// Seconds needed to process `frames` frames.
    pub fn seconds_for(&self, frames: u64) -> f64 {
        frames as f64 / self.fps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_scale_linearly() {
        let m = StageModel::new("x", 25.0);
        assert!((m.seconds_for(25) - 1.0).abs() < 1e-12);
        assert!((m.seconds_for(250) - 10.0).abs() < 1e-12);
        assert_eq!(m.seconds_for(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "fps must be positive")]
    fn rejects_zero_fps() {
        let _ = StageModel::new("bad", 0.0);
    }
}

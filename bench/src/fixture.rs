//! Set-up shared by every workload: train the fixed model, calibrate it
//! for the workload's (lane, sampling policy), evaluate the paper's
//! quality measures on the test split, and build the feature pool every
//! generated stream draws its rows from.
//!
//! The model is a fixture, trained from [`MODEL_SEED`] whatever `--seed`
//! says: the benchmark's seed generates the *inputs* (which streams are
//! fed, see [`StreamIds`]), and the program under test receives only
//! those. Quality measures are therefore the same on every run of one
//! build, and any change to them is a change to the program.

use eventhit_core::experiment::{ExperimentConfig, TaskRun};
use eventhit_core::multi::StreamLane;
use eventhit_core::pipeline::{ConformalState, Strategy};
use eventhit_core::streaming::OnlinePredictor;
use eventhit_core::tasks::task;
use eventhit_core::{evaluate, EventHit, InferenceLane, SamplingPolicy};
use eventhit_nn::matrix::Matrix;
use eventhit_serve::fleet::stream_row;

/// Task every workload runs: THUMOS profile, D=5, M=10, H=200, one event.
pub const TASK: &str = "TA10";
/// Dataset scale of the fixture.
pub const SCALE: f64 = 0.3;
/// Seed the fixture model is trained from.
pub const MODEL_SEED: u64 = 7;
/// C-CLASSIFY confidence of the served strategy.
pub const CONFIDENCE: f64 = 0.95;
/// C-REGRESS coverage of the served strategy.
pub const COVERAGE: f64 = 0.9;
/// Sampling policy of the `inproc-fast` workload.
pub const FAST_POLICY: &str = "adaptive:0:2";
/// Slack on the conformal miss-rate contract `1 - rec_c <= 1 - c + slack`.
pub const MISS_SLACK: f64 = 0.02;

/// Everything a workload needs after set-up.
pub struct Fixture {
    /// The trained model.
    pub model: EventHit,
    /// Conformal state fitted for (`lane`, `policy`).
    pub state: ConformalState,
    /// Inference lane the workload scores on.
    pub lane: InferenceLane,
    /// Sampling policy the workload's lanes run.
    pub policy: SamplingPolicy,
    /// The served strategy.
    pub strategy: Strategy,
    /// The feature pool: one row per frame of the task's stream.
    pub rows: Vec<Vec<f32>>,
    /// Feature dimensionality `D`.
    pub dim: usize,
    /// Collection window `M`.
    pub window: usize,
    /// Horizon `H`.
    pub horizon: usize,
    /// Existence recall `REC_c` on the test split for (`lane`, `policy`).
    pub rec_c: f64,
    /// Share of test-split frames relayed to the cloud service.
    pub relay_share: f64,
    /// Positive (record, event) pairs behind `rec_c`.
    pub positives: usize,
}

impl Fixture {
    /// Trains, calibrates and evaluates for one (lane, policy).
    pub fn build(lane: InferenceLane, policy: SamplingPolicy) -> Fixture {
        let t = task(TASK).expect("TA10 is a Table II task");
        let run = TaskRun::execute(
            &t,
            &ExperimentConfig {
                scale: SCALE,
                seed: MODEL_SEED,
                ..Default::default()
            },
        );
        let strategy = Strategy::Ehcr {
            c: CONFIDENCE,
            alpha: COVERAGE,
        };
        let state = run.state_for_sampling(&policy, lane);
        let test = run.sampled_test(&policy, lane);
        let preds: Vec<_> = test.iter().map(|r| state.predict(r, &strategy)).collect();
        let outcome = evaluate(&preds, &test, run.horizon as u32);
        let rows: Vec<Vec<f32>> = (0..run.features.rows())
            .map(|r| run.features.row(r).to_vec())
            .collect();
        Fixture {
            dim: run.features.cols(),
            window: run.window,
            horizon: run.horizon,
            rec_c: outcome.rec_c,
            relay_share: outcome.frames_relayed as f64
                / (outcome.records.max(1) * run.horizon) as f64,
            positives: outcome.positives,
            model: run.model,
            state,
            lane,
            policy,
            strategy,
            rows,
        }
    }

    /// A fresh predictor exactly as `run_lanes` and the server's lane
    /// factory build them.
    pub fn predictor(&self) -> OnlinePredictor {
        OnlinePredictor::with_policy(
            self.model.clone(),
            self.state.clone(),
            self.strategy,
            self.lane,
            self.policy.clone(),
        )
    }

    /// The lane of generated stream `stream` over its first `frames`
    /// rows — the unit `run_lanes` consumes, both as a workload and as
    /// the oracle the served decisions are compared with.
    pub fn lane_of(&self, stream: u32, frames: usize) -> StreamLane {
        let mut features = Matrix::zeros(frames, self.dim);
        for r in 0..frames {
            features.set_row(r, stream_row(&self.rows, stream, r));
        }
        StreamLane {
            stream_id: stream as usize,
            predictor: self.predictor(),
            features,
            from: 0,
        }
    }

    /// Appends rows `from .. from + n` of generated stream `stream` to
    /// `out`, row-major — the payload of one submit.
    pub fn fill_rows(&self, stream: u32, from: usize, n: usize, out: &mut Vec<f32>) {
        for r in from..from + n {
            out.extend_from_slice(stream_row(&self.rows, stream, r));
        }
    }

    /// Decisions a lane emits over `frames` frames: the first when the
    /// window fills, then one per horizon.
    pub fn decisions_in(&self, frames: usize) -> usize {
        if frames < self.window {
            0
        } else {
            1 + (frames - self.window) / self.horizon
        }
    }

    /// The conformal contract the harness asserts on every run:
    /// `1 - rec_c <= 1 - c + MISS_SLACK`.
    pub fn miss_rate_within_contract(&self) -> bool {
        1.0 - self.rec_c <= 1.0 - CONFIDENCE + MISS_SLACK + 1e-12
    }
}

/// The stream ids a run feeds, derived from `--seed`: stream `i` of the
/// run is generated stream `base + i`, whose frame `r` is pool row
/// `(17 * (base + i) + r) mod rows` (the `fleet::stream_row` rule). The
/// same seed gives the same inputs; another seed gives other streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamIds {
    base: u32,
}

impl StreamIds {
    /// Stream ids for `seed`.
    pub fn from_seed(seed: u64) -> Self {
        // One SplitMix64 step: neighbouring seeds land far apart.
        let z = eventhit_rng::mix64(seed);
        // Leave headroom for the streams a run opens on top of the base.
        StreamIds {
            base: (z % (1 << 30)) as u32,
        }
    }

    /// The id of the run's `i`-th stream.
    pub fn id(&self, i: u32) -> u32 {
        self.base + i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_ids_are_a_pure_function_of_the_seed() {
        assert_eq!(StreamIds::from_seed(7), StreamIds::from_seed(7));
        assert_ne!(StreamIds::from_seed(7), StreamIds::from_seed(8));
        let ids = StreamIds::from_seed(7);
        assert_eq!(ids.id(5), ids.id(0) + 5);
        assert!(
            ids.id(0) < 1 << 30,
            "room for a run's streams above the base"
        );
    }
}

//! End-to-end task execution: generate a synthetic stream for a task,
//! extract features, build splits, train EventHit, fit the conformal state,
//! and score the calibration and test splits — after which any number of
//! strategy/parameter sweeps can be evaluated without re-training.

use std::time::Instant;

use eventhit_nn::matrix::Matrix;
use eventhit_nn::quant::InferenceLane;
use eventhit_parallel::Pool;
use eventhit_telemetry::Telemetry;
use eventhit_video::dataset::{Dataset, SplitSpec};
use eventhit_video::features::{extract, FeatureConfig};
use eventhit_video::records::{EventLabel, Record};
use eventhit_video::stream::VideoStream;
use eventhit_video::synthetic::DatasetProfile;

use crate::ci::{CiConfig, CostReport};
use crate::error::{CoreError, CoreResult};
use crate::infer::{score_records, score_records_lane_with, IntervalPrediction, ScoredRecord};
use crate::metrics::{coverage, evaluate, CoverageCounts, EvalOutcome};
use crate::model::{EncoderKind, EventHit, EventHitConfig};
use crate::pipeline::{ConformalState, Strategy};
use crate::sampling::SamplingPolicy;
use crate::tasks::Task;
use crate::train::{train, TrainConfig, TrainReport};

/// Everything needed to run one task once.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Dataset scale factor (1.0 = the reference stream lengths of
    /// DESIGN.md; smaller = proportionally shorter streams with the same
    /// event density).
    pub scale: f64,
    /// Master seed; stream, features, model init, and training shuffle
    /// derive distinct sub-seeds from it.
    pub seed: u64,
    /// Split fractions and anchor stride.
    pub split: SplitSpec,
    /// Training hyper-parameters.
    pub train: TrainConfig,
    /// Occurrence-interval threshold `τ_2` (Eq. 5), paper default 0.5.
    pub tau2: f32,
    /// Override the dataset's collection-window size `M`.
    pub override_window: Option<usize>,
    /// Override the dataset's horizon length `H`.
    pub override_horizon: Option<usize>,
    /// Feature-generator knobs.
    pub features: FeatureConfig,
    /// LSTM hidden size.
    pub hidden_dim: usize,
    /// Latent `z` dimension.
    pub shared_dim: usize,
    /// Dropout probability.
    pub dropout: f32,
    /// Recurrent encoder (LSTM per the paper; GRU for the ablation).
    pub encoder: EncoderKind,
    /// Multiplier on per-class occurrence counts at fixed stream length
    /// (1.0 = Table I density). Used by the footnote-1 experiment to create
    /// horizons containing several instances.
    pub occurrence_boost: f64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scale: 0.5,
            seed: 1,
            split: SplitSpec::default(),
            train: TrainConfig::default(),
            tau2: 0.5,
            override_window: None,
            override_horizon: None,
            features: FeatureConfig::default(),
            hidden_dim: 48,
            shared_dim: 32,
            dropout: 0.2,
            encoder: EncoderKind::Lstm,
            occurrence_boost: 1.0,
        }
    }
}

impl ExperimentConfig {
    /// A down-scaled configuration for fast tests: tiny stream, small
    /// model, few epochs.
    pub fn quick(seed: u64) -> Self {
        ExperimentConfig {
            scale: 0.06,
            seed,
            split: SplitSpec {
                train_frac: 0.5,
                calib_frac: 0.25,
                stride: 25,
            },
            train: TrainConfig {
                epochs: 6,
                batch_size: 32,
                ..Default::default()
            },
            hidden_dim: 16,
            shared_dim: 12,
            dropout: 0.1,
            ..Default::default()
        }
    }
}

/// The result of executing a task once: the trained model, fitted conformal
/// state, and scored splits.
pub struct TaskRun {
    /// The task that was executed.
    pub task: Task,
    /// The per-task dataset profile (possibly scaled / overridden).
    pub profile: DatasetProfile,
    /// The generated stream (kept for oracle baselines).
    pub stream: VideoStream,
    /// The full frame-feature matrix (kept for the VQS baseline).
    pub features: Matrix,
    /// Collection-window size used.
    pub window: usize,
    /// Horizon length used.
    pub horizon: usize,
    /// The trained model.
    pub model: EventHit,
    /// Fitted conformal calibration state.
    pub state: ConformalState,
    /// Raw training records (kept for baselines that fit their own model,
    /// e.g. COX and the point-process predictor).
    pub train_records: Vec<Record>,
    /// Raw calibration records (kept for the COX baseline's covariates).
    pub calib_records: Vec<Record>,
    /// Raw test records.
    pub test_records: Vec<Record>,
    /// Scored calibration split.
    pub calib: Vec<ScoredRecord>,
    /// Scored test split.
    pub test: Vec<ScoredRecord>,
    /// Training summary.
    pub train_report: TrainReport,
    /// Measured EventHit inference seconds per record (for the FPS model).
    pub predictor_seconds_per_record: f64,
}

impl TaskRun {
    /// Executes a task under `cfg`: generate → extract → split → train →
    /// calibrate → score.
    pub fn execute(task: &Task, cfg: &ExperimentConfig) -> TaskRun {
        Self::try_execute(task, cfg).unwrap_or_else(|e| panic!("task execution failed: {e}"))
    }

    /// Fallible [`TaskRun::execute`]: invalid configuration (non-positive
    /// occurrence boost, non-finite or non-positive scale) and splits left
    /// empty by an over-aggressive scale come back as typed errors instead
    /// of panics.
    pub fn try_execute(task: &Task, cfg: &ExperimentConfig) -> CoreResult<TaskRun> {
        let (profile, stream, features) = stream_and_features(task, cfg)?;
        let window = cfg.override_window.unwrap_or(profile.collection_window);
        let horizon = cfg.override_horizon.unwrap_or(profile.horizon);
        let dataset = Dataset::build(&stream, &features, window, horizon, &cfg.split);
        if dataset.train.is_empty() || dataset.calib.is_empty() || dataset.test.is_empty() {
            return Err(CoreError::EmptySplit {
                task: task.id.to_string(),
            });
        }

        let model_cfg = EventHitConfig {
            input_dim: dataset.d,
            window,
            horizon,
            num_events: task.num_events(),
            hidden_dim: cfg.hidden_dim,
            shared_dim: cfg.shared_dim,
            dropout: cfg.dropout,
        };
        let mut model = EventHit::with_encoder(
            model_cfg,
            cfg.encoder,
            cfg.seed.wrapping_mul(41).wrapping_add(3),
        );
        let mut train_cfg = cfg.train.clone();
        train_cfg.seed = cfg.seed.wrapping_mul(43).wrapping_add(4);
        let train_report = train(
            &mut model,
            &dataset.train,
            &train_cfg,
            &Telemetry::disabled(),
        );

        let calib = score_records(&model, &dataset.calib, 128);
        let t0 = Instant::now();
        let test = score_records(&model, &dataset.test, 128);
        let predictor_seconds_per_record =
            t0.elapsed().as_secs_f64() / dataset.test.len().max(1) as f64;

        let state = ConformalState::try_fit(&calib, task.num_events(), cfg.tau2, horizon)?;

        Ok(TaskRun {
            task: task.clone(),
            profile,
            stream,
            features,
            window,
            horizon,
            model,
            state,
            train_records: dataset.train,
            calib_records: dataset.calib,
            test_records: dataset.test,
            calib,
            test,
            train_report,
            predictor_seconds_per_record,
        })
    }

    /// A conformal state matched to an inference lane.
    ///
    /// `Exact` returns a clone of the state fitted by
    /// [`TaskRun::execute`]. `Quantized` re-scores the calibration split
    /// on the int8 fast lane and refits — the nonconformity quantiles are
    /// then computed from the *same* score distribution the deployed lane
    /// produces, so the split-conformal coverage guarantee holds on the
    /// quantized scores exactly as it does on the exact ones (quantization
    /// error is absorbed into the calibrated quantiles, not assumed away).
    pub fn state_for_lane(&self, lane: InferenceLane) -> ConformalState {
        match lane {
            InferenceLane::Exact => self.state.clone(),
            InferenceLane::Quantized => self
                .state_for_model(&self.model, lane)
                .expect("the run's own model scores one head per task event"),
        }
    }

    /// Refits the conformal state for an arbitrary model on `lane` by
    /// rescoring this run's calibration split — the hot-reload path:
    /// swapping served weights without refitting their conformal state
    /// would void the coverage guarantees, exactly as pairing a loaded
    /// model with another model's state would (see the CLI's `serve
    /// --model`). Unlike [`TaskRun::state_for_lane`], this always
    /// rescores, even on the exact lane, because the given model's scores
    /// need not match the run's own. The refit keeps the run's own `τ_2`.
    ///
    /// A `model` that does not fit the run — another feature width or
    /// horizon, or fewer heads than the task has events, as a model file
    /// of another task has — is an error.
    pub fn state_for_model(
        &self,
        model: &EventHit,
        lane: InferenceLane,
    ) -> CoreResult<ConformalState> {
        let cfg = model.config();
        for (what, expected, got) in [
            ("model input width", self.features.cols(), cfg.input_dim),
            ("model horizon", self.horizon, cfg.horizon),
        ] {
            if got != expected {
                return Err(CoreError::ShapeMismatch {
                    what,
                    expected,
                    got,
                });
            }
        }
        let calib =
            score_records_lane_with(model, &self.calib_records, 128, lane, &Pool::current());
        ConformalState::try_fit(
            &calib,
            self.task.num_events(),
            self.state.tau2(),
            self.horizon,
        )
    }

    /// A conformal state matched to a [`SamplingPolicy`] on `lane`: the
    /// calibration split is rescored on *gated trajectories* — each
    /// calibration record's window replaced by the window a deployed
    /// gated predictor would see at that anchor (simulated by
    /// [`sampled_records`](crate::sampling::sampled_records) with the
    /// exact online state machine) — and the state refitted. The
    /// nonconformity quantiles then come from the same score
    /// distribution the gated lane produces, so split-conformal coverage
    /// transfers to gated serving exactly as
    /// [`TaskRun::state_for_lane`] transfers it to the int8 lane.
    /// `Fixed` delegates to [`TaskRun::state_for_lane`] unchanged.
    pub fn state_for_sampling(
        &self,
        policy: &SamplingPolicy,
        lane: InferenceLane,
    ) -> ConformalState {
        if policy.is_fixed() {
            return self.state_for_lane(lane);
        }
        let calib = self.sampled_split(&self.calib_records, policy, lane);
        ConformalState::try_fit(
            &calib,
            self.task.num_events(),
            self.state.tau2(),
            self.horizon,
        )
        .expect("the run's own model scores one head per task event")
    }

    /// The test split scored on gated trajectories under `policy` — the
    /// counterpart of [`TaskRun::state_for_sampling`] for evaluating
    /// REC/SPL and conformal coverage under a sampling policy. `Fixed`
    /// reproduces the plain lane scores.
    pub fn sampled_test(&self, policy: &SamplingPolicy, lane: InferenceLane) -> Vec<ScoredRecord> {
        self.sampled_split(&self.test_records, policy, lane)
    }

    /// The per-event conformal coverage
    /// ([`metrics::coverage`](crate::metrics::coverage)) of the state
    /// [`TaskRun::state_for_sampling`] fits for `policy` on `lane`, over
    /// the test split [`TaskRun::sampled_test`] scores the same way, at
    /// each confidence in `cs` and each level in `alphas`. `Fixed` on
    /// `Exact` counts exactly what `coverage(&run.state, &run.test, ..)`
    /// counts.
    pub fn coverage(
        &self,
        policy: &SamplingPolicy,
        lane: InferenceLane,
        cs: &[f64],
        alphas: &[f64],
    ) -> Vec<CoverageCounts> {
        let state = self.state_for_sampling(policy, lane);
        coverage(&state, &self.sampled_test(policy, lane), cs, alphas)
    }

    /// Rebuilds a split's records with their gated windows and scores
    /// them.
    fn sampled_split(
        &self,
        records: &[Record],
        policy: &SamplingPolicy,
        lane: InferenceLane,
    ) -> Vec<ScoredRecord> {
        let gated =
            crate::sampling::sampled_records(&self.model, &self.features, records, policy, lane);
        score_records_lane_with(&self.model, &gated, 128, lane, &Pool::current())
    }

    /// Predictions of a strategy over the test split.
    pub fn predictions(&self, strategy: &Strategy) -> Vec<Vec<IntervalPrediction>> {
        self.test
            .iter()
            .map(|r| self.state.predict(r, strategy))
            .collect()
    }

    /// Evaluates a strategy over the test split.
    pub fn evaluate(&self, strategy: &Strategy) -> EvalOutcome {
        evaluate(&self.predictions(strategy), &self.test, self.horizon as u32)
    }

    /// Evaluates many strategies (sweeps share the scored records), one
    /// grid cell per job on `pool`. Each cell is a pure function of the
    /// already-scored splits, so the grid evaluates in parallel with
    /// bit-identical results, returned in grid order.
    pub fn sweep(&self, strategies: &[Strategy], pool: &Pool) -> Vec<(Strategy, EvalOutcome)> {
        pool.run(strategies.to_vec(), |s| (s, self.evaluate(&s)))
    }

    /// The OPT oracle: relays exactly the true occurrence intervals.
    pub fn oracle_outcome(&self) -> EvalOutcome {
        let preds: Vec<Vec<IntervalPrediction>> = self
            .test
            .iter()
            .map(|r| r.labels.iter().map(label_as_prediction).collect())
            .collect();
        evaluate(&preds, &self.test, self.horizon as u32)
    }

    /// The BF baseline: relays every frame of every horizon.
    pub fn brute_force_outcome(&self) -> EvalOutcome {
        let all = IntervalPrediction {
            present: true,
            start: 1,
            end: self.horizon as u32,
        };
        let preds: Vec<Vec<IntervalPrediction>> = self
            .test
            .iter()
            .map(|r| vec![all; r.labels.len()])
            .collect();
        evaluate(&preds, &self.test, self.horizon as u32)
    }

    /// Converts an evaluation into a cost report under a CI model, using
    /// the measured predictor time.
    pub fn cost(&self, outcome: &EvalOutcome, ci: &CiConfig) -> CostReport {
        ci.account(
            outcome.records,
            self.window,
            self.horizon,
            outcome.frames_relayed,
            self.predictor_seconds_per_record * outcome.records as f64,
        )
    }
}

/// The dataset profile, synthetic stream and per-frame features a run of
/// `task` under `cfg` works on: a pure function of the task, the scale,
/// the occurrence boost, the feature knobs and the seed. The stream and
/// feature sub-seeds derive from `cfg.seed` here and nowhere else, so a
/// client that regenerates a served run's rows feeds exactly the frames
/// the served model was trained and calibrated on.
///
/// A non-positive or non-finite scale or occurrence boost is an error.
pub fn stream_and_features(
    task: &Task,
    cfg: &ExperimentConfig,
) -> CoreResult<(DatasetProfile, VideoStream, Matrix)> {
    if !(cfg.occurrence_boost > 0.0 && cfg.occurrence_boost.is_finite()) {
        return Err(CoreError::InvalidConfig(format!(
            "occurrence boost must be positive and finite, got {}",
            cfg.occurrence_boost
        )));
    }
    if !(cfg.scale > 0.0 && cfg.scale.is_finite()) {
        return Err(CoreError::InvalidConfig(format!(
            "scale must be positive and finite, got {}",
            cfg.scale
        )));
    }
    let mut profile = task.profile().scaled(cfg.scale);
    if cfg.occurrence_boost != 1.0 {
        for class in &mut profile.classes {
            class.occurrences =
                ((class.occurrences as f64 * cfg.occurrence_boost).round() as u32).max(1);
        }
    }
    let stream = VideoStream::generate(&profile, cfg.seed.wrapping_mul(31).wrapping_add(1));
    let features = extract(
        &stream,
        &cfg.features,
        cfg.seed.wrapping_mul(37).wrapping_add(2),
    );
    Ok((profile, stream, features))
}

/// Represents a ground-truth label as the ideal prediction (used by OPT).
pub fn label_as_prediction(label: &EventLabel) -> IntervalPrediction {
    if label.present {
        IntervalPrediction {
            present: true,
            start: label.start,
            end: label.end,
        }
    } else {
        IntervalPrediction::absent()
    }
}

/// The standard sweep grids used throughout the evaluation section.
pub mod grids {
    use super::Strategy;

    /// Confidence levels swept for C-CLASSIFY curves.
    pub fn confidence_levels() -> Vec<f64> {
        vec![0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999]
    }

    /// Coverage levels swept for C-REGRESS curves.
    pub fn coverage_levels() -> Vec<f64> {
        vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99]
    }

    /// The EHC curve: sweep `c`.
    pub fn ehc() -> Vec<Strategy> {
        confidence_levels()
            .into_iter()
            .map(|c| Strategy::Ehc { c })
            .collect()
    }

    /// The EHR curve: sweep `α` at `τ_1 = 0.5`.
    pub fn ehr() -> Vec<Strategy> {
        coverage_levels()
            .into_iter()
            .map(|alpha| Strategy::Ehr { tau1: 0.5, alpha })
            .collect()
    }

    /// The EHCR curve: sweep `(c, α)` jointly, including the max-recall
    /// corner (`c, α → 1`) where EHCR reaches any required REC (§VI.D).
    pub fn ehcr() -> Vec<Strategy> {
        let mut out = Vec::new();
        for c in confidence_levels() {
            for alpha in [0.3, 0.6, 0.9, 0.99] {
                out.push(Strategy::Ehcr { c, alpha });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::task;

    fn quick_run() -> TaskRun {
        // THUMOS tasks are the cheapest (H=200, M=10).
        TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(3))
    }

    #[test]
    fn execute_produces_consistent_shapes() {
        let run = quick_run();
        assert_eq!(run.calib.len(), run.calib_records.len());
        assert_eq!(run.test.len(), run.test_records.len());
        assert!(!run.test.is_empty());
        assert_eq!(run.state.num_events(), 1);
        assert!(run.predictor_seconds_per_record >= 0.0);
        assert!(run.train_report.final_loss.is_finite());
    }

    #[test]
    fn oracle_is_perfect_and_brute_force_is_exhaustive() {
        let run = quick_run();
        let opt = run.oracle_outcome();
        assert_eq!(opt.rec, 1.0);
        assert_eq!(opt.spl, 0.0);
        let bf = run.brute_force_outcome();
        assert_eq!(bf.rec, 1.0);
        assert_eq!(bf.spl, 1.0);
        assert!(bf.frames_relayed > opt.frames_relayed);
    }

    #[test]
    fn training_actually_reduces_loss() {
        let run = quick_run();
        let losses = &run.train_report.epoch_losses;
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "losses: {losses:?}"
        );
    }

    #[test]
    fn ehcr_recall_dominates_eho() {
        let run = quick_run();
        let eho = run.evaluate(&Strategy::Eho { tau1: 0.5 });
        let ehcr = run.evaluate(&Strategy::Ehcr {
            c: 0.99,
            alpha: 0.9,
        });
        assert!(
            ehcr.rec >= eho.rec,
            "EHCR at high (c, alpha) must reach at least EHO recall: {} vs {}",
            ehcr.rec,
            eho.rec
        );
    }

    #[test]
    fn cost_report_uses_measured_predictor_time() {
        let run = quick_run();
        let outcome = run.evaluate(&Strategy::Eho { tau1: 0.5 });
        let report = run.cost(&outcome, &CiConfig::default());
        assert_eq!(report.frames_relayed, outcome.frames_relayed);
        assert!(report.total_seconds() > 0.0);
    }

    #[test]
    fn state_for_model_rejects_a_model_of_another_shape() {
        let run = quick_run();
        let own = run.model.config();
        let wider = EventHitConfig {
            input_dim: own.input_dim + 1,
            ..own.clone()
        };
        let longer = EventHitConfig {
            horizon: own.horizon + 1,
            ..own.clone()
        };
        for cfg in [wider, longer] {
            let model = EventHit::new(cfg, 1);
            assert!(run.state_for_model(&model, InferenceLane::Exact).is_err());
        }
        assert!(run
            .state_for_model(&run.model, InferenceLane::Exact)
            .is_ok());
    }

    #[test]
    fn try_execute_rejects_bad_configs_as_values() {
        use crate::error::CoreError;
        let t = task("TA10").unwrap();

        let bad_boost = ExperimentConfig {
            occurrence_boost: -1.0,
            ..ExperimentConfig::quick(1)
        };
        assert!(matches!(
            TaskRun::try_execute(&t, &bad_boost).err(),
            Some(CoreError::InvalidConfig(_))
        ));

        let bad_scale = ExperimentConfig {
            scale: 0.0,
            ..ExperimentConfig::quick(1)
        };
        assert!(matches!(
            TaskRun::try_execute(&t, &bad_scale).err(),
            Some(CoreError::InvalidConfig(_))
        ));

        // A scale so small no test anchors survive the stride collapses a
        // split; that must surface as EmptySplit, not a panic.
        let tiny = ExperimentConfig {
            scale: 0.001,
            ..ExperimentConfig::quick(1)
        };
        match TaskRun::try_execute(&t, &tiny) {
            Err(CoreError::EmptySplit { task }) => assert_eq!(task, "TA10"),
            Err(e) => panic!("expected EmptySplit, got {e}"),
            Ok(_) => panic!("expected EmptySplit, got a successful run"),
        }
    }

    #[test]
    fn fixed_exact_coverage_counts_the_runs_own_state_and_test() {
        let run = quick_run();
        let (cs, alphas) = ([0.7, 0.9], [0.5, 0.9]);
        let fixed = run.coverage(&SamplingPolicy::Fixed, InferenceLane::Exact, &cs, &alphas);
        assert_eq!(fixed, coverage(&run.state, &run.test, &cs, &alphas));
        assert!(fixed[0].positives > 0);
    }

    #[test]
    fn grids_are_sorted_and_in_range() {
        for c in grids::confidence_levels() {
            assert!((0.0..1.0).contains(&c));
        }
        for a in grids::coverage_levels() {
            assert!((0.0..1.0).contains(&a));
        }
        assert!(!grids::ehc().is_empty());
        assert!(!grids::ehr().is_empty());
        assert!(!grids::ehcr().is_empty());
    }
}

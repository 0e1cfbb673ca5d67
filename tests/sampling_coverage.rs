//! Conformal coverage under content-adaptive sampling.
//!
//! Gating perturbs the trajectories the model scores: skipped frames
//! leave the window staler, carried anchors reuse the previous anchor's
//! scores, and the adaptive policy shrinks the window while the stream
//! is quiet. As with the int8 lane, the system's answer is
//! *recalibration*: [`TaskRun::state_for_sampling`] replays the
//! identical sampling trajectory over the calibration split (simulated
//! by `sampled_records`, bit-for-bit the deployed behaviour) and refits
//! the conformal state on those gated scores, so the nonconformity
//! quantiles come from the same distribution the deployed gated lane
//! produces.
//!
//! This suite pools `metrics::coverage` (through [`TaskRun::coverage`])
//! over several independent runs and pins both absolute validity (the
//! C-CLASSIFY miss bound) and relative validity: the gated lane's
//! empirical coverage must track the ungated lane's within ±1% — the
//! workspace's standard lane-equivalence tolerance (see
//! `quantized_coverage.rs`).

use std::sync::Arc;

use eventhit::core::experiment::{ExperimentConfig, TaskRun};
use eventhit::core::infer::score_records_lane_with;
use eventhit::core::metrics::CoverageCounts;
use eventhit::core::pipeline::Strategy;
use eventhit::core::sampling::{sampled_records, SamplingPolicy};
use eventhit::core::streaming::OnlinePredictor;
use eventhit::core::tasks::task;
use eventhit::core::InferenceLane;
use eventhit::nn::matrix::Matrix;
use eventhit::parallel::Pool;
use eventhit::telemetry::Telemetry;
use eventhit::video::records::{EventLabel, Record};

/// The policies whose coverage the suite pins: a conservative delta
/// gate (below the feature noise floor, so event frames still reach the
/// window) and the pure query-aware-windowing point (threshold 0 never
/// gates or carries; all effect is the shrunken quiet-stream window).
fn policies() -> Vec<SamplingPolicy> {
    vec![
        SamplingPolicy::parse("delta:0.01").unwrap(),
        SamplingPolicy::parse("adaptive:0:4").unwrap(),
    ]
}

fn runs() -> Vec<TaskRun> {
    // Several tasks / seeds so the marginal guarantees are pooled over
    // independent streams, features, and model initialisations.
    [("TA10", 100u64), ("TA10", 101), ("TA3", 102)]
        .iter()
        .map(|&(id, seed)| {
            let cfg = ExperimentConfig {
                scale: 0.4,
                ..ExperimentConfig::quick(seed)
            };
            TaskRun::execute(&task(id).unwrap(), &cfg)
        })
        .collect()
}

/// Coverage of event 0 at c = 0.9 pooled over `runs` under `policy`,
/// each run's state refitted on its gated calibration split.
fn pooled(runs: &[TaskRun], policy: &SamplingPolicy) -> CoverageCounts {
    runs.iter()
        .map(|run| {
            run.coverage(policy, InferenceLane::Exact, &[0.9], &[])
                .remove(0)
        })
        .sum()
}

/// Frames the deployed gate skips over `run`'s stream. The gate reads
/// the features alone, so the run's own conformal state serves.
fn frames_skipped(run: &TaskRun, policy: &SamplingPolicy) -> u64 {
    let mut online = OnlinePredictor::with_policy(
        run.model.clone(),
        run.state.clone(),
        Strategy::Ehcr { c: 0.9, alpha: 0.5 },
        InferenceLane::Exact,
        policy.clone(),
    );
    online.run_over(&run.features, 0);
    online.frames_skipped()
}

#[test]
fn gated_miss_rate_is_bounded_and_tracks_ungated() {
    let runs = runs();
    let base = pooled(&runs, &SamplingPolicy::Fixed);
    let (base_rate, base_positives) = (base.rate(base.misses[0]), base.positives);
    assert!(
        base_positives > 20,
        "need enough positives ({base_positives})"
    );
    for policy in policies() {
        let gated = pooled(&runs, &policy);
        let (rate, positives) = (gated.rate(gated.misses[0]), gated.positives);
        assert_eq!(
            positives,
            base_positives,
            "{}: gating must not change the test split",
            policy.label()
        );
        // Absolute validity on the gated lane, same tolerance as the
        // ungated harness in conformal_guarantees.rs.
        assert!(
            rate <= 0.1 + 0.10,
            "{}: gated miss rate {rate} badly exceeds the c=0.9 bound",
            policy.label()
        );
        // And relative validity: recalibration keeps the gated lane's
        // coverage within one percentage point of the ungated lane's.
        assert!(
            (rate - base_rate).abs() <= 0.01 + 1e-12,
            "{}: gated miss rate {rate} drifted from ungated {base_rate}",
            policy.label()
        );
        // A gate with a positive threshold that skips nothing is dead,
        // and the two bounds above were then checked on an ungated lane.
        if policy.gates() {
            let skipped: u64 = runs.iter().map(|r| frames_skipped(r, &policy)).sum();
            assert!(skipped > 0, "{}: skipped no frames", policy.label());
        }
    }
}

#[test]
fn gated_calibration_is_deterministic() {
    // The recalibration story rests on `sampled_records` being a pure
    // function of (model, features, policy): two simulations of the
    // same run must produce bit-identical gated scores.
    let cfg = ExperimentConfig {
        scale: 0.2,
        ..ExperimentConfig::quick(100)
    };
    let run = TaskRun::execute(&task("TA10").unwrap(), &cfg);
    for policy in policies() {
        let a = run.sampled_test(&policy, InferenceLane::Exact);
        let b = run.sampled_test(&policy, InferenceLane::Exact);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.anchor, y.anchor);
            for (sx, sy) in x.scores.iter().zip(&y.scores) {
                assert_eq!(
                    sx.b.to_bits(),
                    sy.b.to_bits(),
                    "gated simulation must be bit-deterministic"
                );
                assert!(
                    sx.theta
                        .iter()
                        .zip(&sy.theta)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "gated simulation must be bit-deterministic"
                );
            }
        }
    }
}

#[test]
fn calibration_sees_what_deployment_scores() {
    // The guarantee under a gating policy holds only if calibration
    // scores exactly the windows deployment scores. Serve a stream, then
    // ask the calibration simulation for the windows at the anchors the
    // predictor decided at: scoring those must reproduce every served
    // prediction, carried anchors (which reuse an earlier anchor's
    // window) included.
    let cfg = ExperimentConfig {
        scale: 0.2,
        ..ExperimentConfig::quick(100)
    };
    let run = TaskRun::execute(&task("TA10").unwrap(), &cfg);
    let strategy = Strategy::Ehcr { c: 0.9, alpha: 0.5 };
    let policies = [
        SamplingPolicy::parse("delta:0.1").unwrap(),
        SamplingPolicy::parse("adaptive:0.1:4").unwrap(),
    ];
    for policy in &policies {
        for lane in [InferenceLane::Exact, InferenceLane::Quantized] {
            let what = format!("{} on {lane:?}", policy.label());
            let state = run.state_for_lane(lane);
            let mut online = OnlinePredictor::with_policy(
                run.model.clone(),
                state.clone(),
                strategy,
                lane,
                policy.clone(),
            );
            let tel = Arc::new(Telemetry::new());
            online.set_telemetry(Arc::clone(&tel));
            let served = online.run_over(&run.features, 0);

            let carried = tel
                .snapshot()
                .counter("stream.decisions_carried")
                .unwrap_or(0);
            assert!(carried >= 1, "{what}: no carried anchor in the run");
            assert!(
                (carried as usize) < served.len(),
                "{what}: no scored anchor in the run"
            );

            let anchors: Vec<Record> = served
                .iter()
                .map(|d| Record {
                    anchor: d.anchor,
                    covariates: Matrix::zeros(0, 0),
                    labels: vec![EventLabel::absent(); run.task.num_events()],
                })
                .collect();
            let windows = sampled_records(&run.model, &run.features, &anchors, policy, lane);
            let scored = score_records_lane_with(&run.model, &windows, 128, lane, &Pool::current());
            assert_eq!(scored.len(), served.len());
            for (s, d) in scored.iter().zip(&served) {
                assert_eq!(s.anchor, d.anchor);
                assert_eq!(
                    state.predict(s, &strategy),
                    d.predictions,
                    "{what}: anchor {} calibrates on a window deployment did not score",
                    d.anchor
                );
            }
        }
    }
}

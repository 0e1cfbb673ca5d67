//! Conformal coverage on the int8 quantized inference lane.
//!
//! The quantized fast lane perturbs every score by a small, bounded
//! quantization error. The system's answer is *recalibration*: the
//! conformal state served with the quantized lane is refitted from
//! calibration records re-scored on that lane
//! ([`TaskRun::state_for_lane`]), so the nonconformity quantiles are
//! computed from the same score distribution the deployed lane produces
//! and the split-conformal guarantee holds unchanged.
//!
//! This suite pools `metrics::coverage` (through [`TaskRun::coverage`])
//! over several Table II tasks on both lanes, pins the quantized lane to
//! the bounds `conformal_guarantees.rs` pins the exact lane to, and
//! additionally pins the quantized lane's empirical coverage to the
//! exact lane's within a ±1% pooled tolerance.

use eventhit::core::experiment::{ExperimentConfig, TaskRun};
use eventhit::core::infer::score_records_lane_with;
use eventhit::core::metrics::CoverageCounts;
use eventhit::core::sampling::SamplingPolicy;
use eventhit::core::tasks::task;
use eventhit::core::InferenceLane;
use eventhit::parallel::Pool;

const CS: [f64; 3] = [0.7, 0.9, 0.95];
const ALPHAS: [f64; 2] = [0.5, 0.9];

fn runs() -> Vec<TaskRun> {
    // Several tasks / seeds so the marginal guarantees are pooled over
    // independent streams, features, and model initialisations.
    [("TA10", 100u64), ("TA10", 101), ("TA3", 102)]
        .iter()
        .map(|&(id, seed)| {
            let cfg = ExperimentConfig {
                scale: 0.2,
                ..ExperimentConfig::quick(seed)
            };
            TaskRun::execute(&task(id).unwrap(), &cfg)
        })
        .collect()
}

/// Coverage of event 0 pooled over `runs` on `lane`, each run's state
/// fitted on that lane's calibration scores.
fn pooled(runs: &[TaskRun], lane: InferenceLane) -> CoverageCounts {
    runs.iter()
        .map(|run| {
            run.coverage(&SamplingPolicy::Fixed, lane, &CS, &ALPHAS)
                .remove(0)
        })
        .sum()
}

#[test]
fn quantized_lane_miss_rate_is_bounded_and_tracks_exact() {
    let runs = runs();
    let (quant, exact) = (
        pooled(&runs, InferenceLane::Quantized),
        pooled(&runs, InferenceLane::Exact),
    );
    for (i, &c) in CS.iter().enumerate() {
        let q_rate = quant.rate(quant.misses[i]);
        let e_rate = exact.rate(exact.misses[i]);
        let positives = quant.positives;
        assert!(positives > 20, "need enough positives ({positives})");
        // Absolute validity on the quantized lane, same tolerance as the
        // exact-lane harness in conformal_guarantees.rs.
        assert!(
            q_rate <= (1.0 - c) + 0.10,
            "c={c}: quantized miss rate {q_rate} badly exceeds bound {}",
            1.0 - c
        );
        // And relative validity: recalibration keeps the quantized lane's
        // coverage within one percentage point of the exact lane's.
        assert!(
            (q_rate - e_rate).abs() <= 0.01 + 1e-12,
            "c={c}: quantized miss rate {q_rate} drifted from exact {e_rate}"
        );
    }
}

#[test]
fn quantized_lane_endpoint_coverage_holds_and_tracks_exact() {
    let runs = runs();
    let (quant, exact) = (
        pooled(&runs, InferenceLane::Quantized),
        pooled(&runs, InferenceLane::Exact),
    );
    for (i, &alpha) in ALPHAS.iter().enumerate() {
        let (qs, qe) = (
            quant.rate(quant.starts_covered[i]),
            quant.rate(quant.ends_covered[i]),
        );
        let (es, ee) = (
            exact.rate(exact.starts_covered[i]),
            exact.rate(exact.ends_covered[i]),
        );
        assert!(
            qs >= alpha - 0.12,
            "alpha={alpha}: quantized start coverage {qs}"
        );
        assert!(
            qe >= alpha - 0.12,
            "alpha={alpha}: quantized end coverage {qe}"
        );
        assert!(
            (qs - es).abs() <= 0.01 + 1e-12,
            "alpha={alpha}: start coverage quantized {qs} vs exact {es}"
        );
        assert!(
            (qe - ee).abs() <= 0.01 + 1e-12,
            "alpha={alpha}: end coverage quantized {qe} vs exact {ee}"
        );
    }
}

#[test]
fn quantized_scores_stay_close_to_exact_scores() {
    // The recalibration story rests on the quantized lane being a small
    // perturbation of the exact lane; pin that here so a quantizer
    // regression surfaces as a score drift, not only as coverage decay.
    let cfg = ExperimentConfig {
        scale: 0.2,
        ..ExperimentConfig::quick(100)
    };
    let run = TaskRun::execute(&task("TA10").unwrap(), &cfg);
    let quant = score_records_lane_with(
        &run.model,
        &run.test_records,
        128,
        InferenceLane::Quantized,
        &Pool::current(),
    );
    assert_eq!(quant.len(), run.test.len());
    let mut max_db = 0f64;
    let mut max_dtheta = 0f32;
    for (q, e) in quant.iter().zip(&run.test) {
        assert_eq!(q.anchor, e.anchor);
        for (qs, es) in q.scores.iter().zip(&e.scores) {
            max_db = max_db.max((qs.b - es.b).abs());
            for (qt, et) in qs.theta.iter().zip(&es.theta) {
                max_dtheta = max_dtheta.max((qt - et).abs());
            }
        }
    }
    assert!(max_db > 0.0, "quantized lane should not be bit-equal");
    assert!(max_db < 0.05, "existence score drift {max_db} too large");
    assert!(max_dtheta < 0.05, "θ score drift {max_dtheta} too large");
}

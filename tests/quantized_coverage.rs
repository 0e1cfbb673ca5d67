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
//! This suite re-runs the coverage harness of `conformal_guarantees.rs`
//! on the quantized lane across several Table II tasks and additionally
//! pins the quantized lane's empirical coverage to the exact lane's
//! within a ±1% pooled tolerance.

use eventhit::core::experiment::{ExperimentConfig, TaskRun};
use eventhit::core::infer::{raw_interval, score_records_lane_with, ScoredRecord};
use eventhit::core::metrics::miss_counts;
use eventhit::core::pipeline::ConformalState;
use eventhit::core::tasks::task;
use eventhit::core::InferenceLane;
use eventhit::parallel::Pool;

/// One task executed once, with both lanes' test scores and conformal
/// states materialised.
struct LaneRun {
    exact_state: ConformalState,
    exact_test: Vec<ScoredRecord>,
    quant_state: ConformalState,
    quant_test: Vec<ScoredRecord>,
}

fn lane_runs() -> Vec<LaneRun> {
    // Several tasks / seeds so the marginal guarantees are pooled over
    // independent streams, features, and model initialisations.
    [("TA10", 100u64), ("TA10", 101), ("TA3", 102)]
        .iter()
        .map(|&(id, seed)| {
            let cfg = ExperimentConfig {
                scale: 0.2,
                ..ExperimentConfig::quick(seed)
            };
            let run = TaskRun::execute(&task(id).unwrap(), &cfg);
            let quant_state = run.state_for_lane(InferenceLane::Quantized);
            let quant_test = score_records_lane_with(
                &run.model,
                &run.test_records,
                128,
                InferenceLane::Quantized,
                &Pool::current(),
            );
            LaneRun {
                exact_state: run.state,
                exact_test: run.test,
                quant_state,
                quant_test,
            }
        })
        .collect()
}

/// Pooled C-CLASSIFY miss rate of event 0 at confidence `c` over one
/// lane's (state, test scores).
fn miss_rate(runs: &[(&ConformalState, &[ScoredRecord])], c: f64) -> (f64, usize) {
    let (misses, positives) = runs
        .iter()
        .map(|(state, test)| miss_counts(state, test, c))
        .fold((0, 0), |(m, p), (mi, pi)| (m + mi, p + pi));
    (misses as f64 / positives.max(1) as f64, positives)
}

/// Pooled C-REGRESS endpoint coverage (start, end) at level `alpha`.
fn endpoint_coverage(runs: &[(&ConformalState, &[ScoredRecord])], alpha: f64) -> (f64, f64) {
    let mut start_cov = 0usize;
    let mut end_cov = 0usize;
    let mut positives = 0usize;
    for (state, test) in runs {
        for rec in test.iter() {
            let label = &rec.labels[0];
            if !label.present {
                continue;
            }
            positives += 1;
            let (s_hat, e_hat) = raw_interval(&rec.scores[0], 0.5);
            let (qs, qe) = state.interval_calibration(0).quantiles(alpha);
            if (label.start as f64 - s_hat as f64).abs() <= qs {
                start_cov += 1;
            }
            if (label.end as f64 - e_hat as f64).abs() <= qe {
                end_cov += 1;
            }
        }
    }
    let n = positives.max(1) as f64;
    (start_cov as f64 / n, end_cov as f64 / n)
}

#[test]
fn quantized_lane_miss_rate_is_bounded_and_tracks_exact() {
    let runs = lane_runs();
    let exact: Vec<_> = runs
        .iter()
        .map(|r| (&r.exact_state, r.exact_test.as_slice()))
        .collect();
    let quant: Vec<_> = runs
        .iter()
        .map(|r| (&r.quant_state, r.quant_test.as_slice()))
        .collect();
    for &c in &[0.7, 0.9, 0.95] {
        let (q_rate, positives) = miss_rate(&quant, c);
        let (e_rate, _) = miss_rate(&exact, c);
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
    let runs = lane_runs();
    let exact: Vec<_> = runs
        .iter()
        .map(|r| (&r.exact_state, r.exact_test.as_slice()))
        .collect();
    let quant: Vec<_> = runs
        .iter()
        .map(|r| (&r.quant_state, r.quant_test.as_slice()))
        .collect();
    for &alpha in &[0.5, 0.9] {
        let (qs, qe) = endpoint_coverage(&quant, alpha);
        let (es, ee) = endpoint_coverage(&exact, alpha);
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

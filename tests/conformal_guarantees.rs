//! Integration check of Theorems 4.2 and 5.2 on the *actual* pipeline:
//! conformal calibration fitted on EventHit's calibration split must bound
//! the miss rate / cover the interval endpoints on the held-out test split.
//!
//! The guarantees are marginal, so each assertion pools several independent
//! trials (different streams, features, model seeds) and allows a small
//! finite-sample / temporal-split tolerance.

use eventhit::core::experiment::{ExperimentConfig, TaskRun};
use eventhit::core::infer::raw_interval;
use eventhit::core::metrics::miss_counts;
use eventhit::core::tasks::task;

fn runs() -> Vec<TaskRun> {
    (0..3)
        .map(|i| {
            let cfg = ExperimentConfig {
                scale: 0.2,
                ..ExperimentConfig::quick(100 + i)
            };
            TaskRun::execute(&task("TA10").unwrap(), &cfg)
        })
        .collect()
}

#[test]
fn c_classify_miss_rate_is_bounded() {
    let runs = runs();
    for &c in &[0.7, 0.9, 0.95] {
        let (misses, positives) = runs
            .iter()
            .map(|run| miss_counts(&run.state, &run.test, c))
            .fold((0, 0), |(m, p), (mi, pi)| (m + mi, p + pi));
        assert!(
            positives > 20,
            "need enough positives to test ({positives})"
        );
        let miss_rate = misses as f64 / positives as f64;
        // Tolerance: marginal guarantee + temporal-split drift + noise.
        assert!(
            miss_rate <= (1.0 - c) + 0.10,
            "c={c}: miss rate {miss_rate} badly exceeds bound {}",
            1.0 - c
        );
    }
}

#[test]
fn c_regress_endpoint_coverage_holds() {
    let runs = runs();
    for &alpha in &[0.5, 0.9] {
        let mut start_cov = 0usize;
        let mut end_cov = 0usize;
        let mut positives = 0usize;
        for run in &runs {
            for rec in &run.test {
                let label = &rec.labels[0];
                if !label.present {
                    continue;
                }
                positives += 1;
                let (s_hat, e_hat) = raw_interval(&rec.scores[0], 0.5);
                let (qs, qe) = run.state.interval_calibration(0).quantiles(alpha);
                if (label.start as f64 - s_hat as f64).abs() <= qs {
                    start_cov += 1;
                }
                if (label.end as f64 - e_hat as f64).abs() <= qe {
                    end_cov += 1;
                }
            }
        }
        assert!(positives > 20);
        let s_rate = start_cov as f64 / positives as f64;
        let e_rate = end_cov as f64 / positives as f64;
        assert!(
            s_rate >= alpha - 0.12,
            "alpha={alpha}: start coverage {s_rate}"
        );
        assert!(
            e_rate >= alpha - 0.12,
            "alpha={alpha}: end coverage {e_rate}"
        );
    }
}

#[test]
fn widening_alpha_never_shrinks_the_relay() {
    let run = &runs()[0];
    for rec in run.test.iter().take(50) {
        let mut prev_frames = 0u64;
        for alpha in [0.1, 0.5, 0.9] {
            let p = run.state.predict(
                rec,
                &eventhit::core::pipeline::Strategy::Ehr { tau1: 0.0, alpha },
            )[0];
            assert!(p.frames() >= prev_frames, "relay must grow with alpha");
            prev_frames = p.frames();
        }
    }
}

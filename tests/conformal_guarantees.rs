//! Integration check of Theorems 4.2 and 5.2 on the *actual* pipeline:
//! conformal calibration fitted on EventHit's calibration split must bound
//! the miss rate / cover the interval endpoints on the held-out test split.
//!
//! The guarantees are marginal, so each assertion pools several independent
//! trials (different streams, features, model seeds) and allows a small
//! finite-sample / temporal-split tolerance.

use eventhit::core::experiment::{ExperimentConfig, TaskRun};
use eventhit::core::metrics::{coverage, CoverageCounts};
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

/// Coverage of event 0 pooled over `runs`' own states and test splits.
fn pooled(runs: &[TaskRun], cs: &[f64], alphas: &[f64]) -> CoverageCounts {
    runs.iter()
        .map(|run| coverage(&run.state, &run.test, cs, alphas).remove(0))
        .sum()
}

#[test]
fn c_classify_miss_rate_is_bounded() {
    let cs = [0.7, 0.9, 0.95];
    let counts = pooled(&runs(), &cs, &[]);
    for (i, &c) in cs.iter().enumerate() {
        let positives = counts.positives;
        assert!(
            positives > 20,
            "need enough positives to test ({positives})"
        );
        let miss_rate = counts.rate(counts.misses[i]);
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
    let alphas = [0.5, 0.9];
    let counts = pooled(&runs(), &[], &alphas);
    for (i, &alpha) in alphas.iter().enumerate() {
        assert!(counts.positives > 20);
        let s_rate = counts.rate(counts.starts_covered[i]);
        let e_rate = counts.rate(counts.ends_covered[i]);
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

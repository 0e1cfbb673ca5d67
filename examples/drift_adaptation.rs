//! Drift detection and adaptation (the paper's §VIII future-work item).
//!
//! Trains EventHit on a volleyball stream, then simulates a camera/scene
//! change by corrupting the feature distribution of the live stream. The
//! conformal p-values of true events collapse toward zero, a power
//! martingale raises an alarm with a provable false-alarm bound, and a
//! sliding-window recalibration restores the recall guarantee.
//!
//! ```text
//! cargo run --release --example drift_adaptation
//! ```

use eventhit::core::drift::{DriftDetector, DriftStatus, Recalibrator};
use eventhit::core::experiment::{ExperimentConfig, TaskRun};
use eventhit::core::infer::score_records;
use eventhit::core::metrics::coverage;
use eventhit::core::pipeline::Strategy;
use eventhit::core::tasks::task;
use eventhit::video::records::Record;

fn corrupt(records: &[Record]) -> Vec<Record> {
    // Scene change: the precursor signal disappears almost entirely (e.g. the
    // camera angle changed) — the trained model scores positives like noise.
    records
        .iter()
        .map(|r| {
            let mut cov = r.covariates.clone();
            for row in 0..cov.rows() {
                for col in 3..cov.cols() {
                    cov[(row, col)] = cov[(row, col)] * 0.05 + 0.02;
                }
            }
            Record {
                anchor: r.anchor,
                covariates: cov,
                labels: r.labels.clone(),
            }
        })
        .collect()
}

fn main() {
    let t = task("TA10").expect("built-in task");
    println!("Training EventHit on {} ...", t.id);
    let cfg = ExperimentConfig {
        scale: 0.3,
        seed: 21,
        ..Default::default()
    };
    let run = TaskRun::execute(&t, &cfg);

    // Phase 1: stationary operation — p-values of positives behave.
    let mut detector = DriftDetector::new(0.2, 0.01);
    let c = 0.9;
    for rec in &run.test {
        if rec.labels[0].present {
            detector.observe(run.state.classifier(0).p_value(rec.scores[0].b));
        }
    }
    let phase1 = coverage(&run.state, &run.test, &[c], &[]).remove(0);
    println!(
        "\nPhase 1 (stationary): miss rate {:.3} (bound {:.3}), drift status {:?}",
        phase1.rate(phase1.misses[0]),
        1.0 - c,
        detector.status()
    );

    // Phase 2: the scene changes. Deployments restart the martingale
    // periodically (each epoch carries its own `delta` false-alarm bound);
    // without restarts, long stationary stretches build up a negative
    // log-martingale buffer that delays detection.
    detector.reset();
    println!("\n-- scene change: detector gain drops --");
    let drifted_records = corrupt(&run.test_records);
    let drifted = score_records(&run.model, &drifted_records, 128);
    let mut recalibrator = Recalibrator::new(400, 1, 0.5, run.horizon);
    let mut alarm_at = None;
    for (i, rec) in drifted.iter().enumerate() {
        recalibrator.push(rec.clone());
        if !rec.labels[0].present {
            continue;
        }
        let p = run.state.classifier(0).p_value(rec.scores[0].b);
        if detector.observe(p) == DriftStatus::Drift && alarm_at.is_none() {
            alarm_at = Some(i);
        }
    }
    let phase2 = coverage(&run.state, &drifted, &[c], &[]).remove(0);
    println!(
        "Phase 2 (drifted, stale calibration): miss rate {:.3} — guarantee broken",
        phase2.rate(phase2.misses[0])
    );
    match alarm_at {
        Some(i) => println!("Martingale alarm after {i} drifted records"),
        None => println!("(no alarm raised — drift too mild at this scale)"),
    }

    // Phase 3: refit the conformal state from the recent window.
    let fresh = recalibrator
        .refit()
        .expect("every buffered record carries the task's one event");
    let relayed: u64 = drifted
        .iter()
        .map(|rec| fresh.predict(rec, &Strategy::Ehcr { c, alpha: 0.9 })[0].frames())
        .sum();
    let phase3 = coverage(&fresh, &drifted, &[c], &[]).remove(0);
    println!(
        "\nPhase 3 (recalibrated): miss rate {:.3} (bound {:.3}), {} frames relayed",
        phase3.rate(phase3.misses[0]),
        1.0 - c,
        relayed
    );
    println!("Recalibration restores the conformal guarantee without retraining.");
}

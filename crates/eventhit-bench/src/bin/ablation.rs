//! Ablation studies for the design decisions called out in DESIGN.md §12:
//!
//! 1. **L1-only vs L1+L2 training** — dropping the per-frame occurrence
//!    loss (γ = 0) should leave existence prediction roughly intact but
//!    destroy interval estimation (REC_r collapses).
//! 2. **Shared encoder vs per-event models** — EventHit's shared LSTM +
//!    per-event heads vs one full network per event, on the same records:
//!    accuracy should be comparable while the shared model uses fewer
//!    parameters and less training time.
//! 3. **Calibration-set size** — conformal guarantees need surprisingly
//!    few positives; quantify how REC_c at c = 0.9 degrades as the
//!    calibration split shrinks.
//! 4. **Non-conformity measure** — Theorem 4.1 holds for any measure, and
//!    monotone measures give *identical* predictions; verified on real
//!    calibration scores.
//!
//! ```text
//! cargo run --release -p eventhit-bench --bin ablation [--scale F] [--seed N]
//! ```

use std::time::Instant;

use eventhit_bench::{f, CommonArgs};
use eventhit_conformal::classify::ConformalClassifier;
use eventhit_conformal::nonconformity::Nonconformity;
use eventhit_core::experiment::{ExperimentConfig, TaskRun};
use eventhit_core::infer::score_records;
use eventhit_core::metrics::evaluate;
use eventhit_core::model::{EventHit, EventHitConfig};
use eventhit_core::pipeline::{ConformalState, Strategy};
use eventhit_core::tasks::task;
use eventhit_core::train::{train, TrainConfig};
use eventhit_telemetry::Telemetry;
use eventhit_video::records::Record;

fn main() {
    let args = CommonArgs::parse();
    println!("# Ablation studies (DESIGN.md §12)");
    println!("# scale={} seed={}", args.scale, args.seed);

    ablation_l2_loss(&args);
    ablation_shared_encoder(&args);
    ablation_calibration_size(&args);
    ablation_nonconformity(&args);
    ablation_encoder_kind(&args);
}

/// 5. LSTM vs GRU encoder under the same budget.
fn ablation_encoder_kind(args: &CommonArgs) {
    use eventhit_core::model::EncoderKind;
    println!("\n## 5. Recurrent encoder choice (TA10)");
    println!("#encoder\tREC\tSPL\tREC_c\tparams");
    let t = task("TA10").unwrap();
    for (name, kind) in [("LSTM", EncoderKind::Lstm), ("GRU", EncoderKind::Gru)] {
        let mut cfg = args.config(0);
        cfg.encoder = kind;
        let run = TaskRun::execute(&t, &cfg);
        let o = run.evaluate(&Strategy::Eho { tau1: 0.5 });
        println!(
            "{name}\t{}\t{}\t{}\t{}",
            f(o.rec),
            f(o.spl),
            f(o.rec_c),
            run.model.param_count()
        );
    }
    println!("# expectation: comparable accuracy; GRU uses ~25% fewer encoder params");
}

/// 1. Train with and without the occurrence loss L2.
fn ablation_l2_loss(args: &CommonArgs) {
    println!("\n## 1. L1-only vs L1+L2 training (TA10)");
    println!("#variant\tREC\tSPL\tREC_c\tREC_r");
    let t = task("TA10").unwrap();
    for (name, gamma) in [("L1+L2", 1.0f32), ("L1-only", 0.0)] {
        let mut cfg = args.config(0);
        cfg.train.gamma = vec![gamma];
        let run = TaskRun::execute(&t, &cfg);
        let o = run.evaluate(&Strategy::Eho { tau1: 0.5 });
        println!(
            "{name}\t{}\t{}\t{}\t{}",
            f(o.rec),
            f(o.spl),
            f(o.rec_c),
            f(o.rec_r)
        );
    }
    println!("# expectation: REC_c similar (L1 drives existence); without L2 the");
    println!("# theta head is untrained, so intervals degenerate to wide spans and");
    println!("# SPL is several times higher for the same recall");
}

/// 2. Shared encoder (EventHit, K=2) vs two independent networks on the
///    same TA7 records.
fn ablation_shared_encoder(args: &CommonArgs) {
    println!("\n## 2. Shared encoder vs per-event networks (TA7)");
    let t = task("TA7").unwrap();
    let cfg = args.config(0);

    // Shared model: the normal pipeline.
    let t0 = Instant::now();
    let shared = TaskRun::execute(&t, &cfg);
    let shared_time = t0.elapsed().as_secs_f64();
    let shared_params = shared.model.param_count();
    let shared_out = shared.evaluate(&Strategy::Ehcr { c: 0.9, alpha: 0.6 });

    // Independent models: one K=1 network per event, trained on the same
    // records with labels restricted to that event.
    let restrict = |records: &[Record], k: usize| -> Vec<Record> {
        records
            .iter()
            .map(|r| Record {
                anchor: r.anchor,
                covariates: r.covariates.clone(),
                labels: vec![r.labels[k]],
            })
            .collect()
    };
    let t0 = Instant::now();
    let mut per_event_params = 0usize;
    let mut merged_preds: Vec<Vec<eventhit_core::infer::IntervalPrediction>> =
        vec![Vec::new(); shared.test.len()];
    for k in 0..t.num_events() {
        let train_k = restrict(&shared.train_records, k);
        let calib_k = restrict(&shared.calib_records, k);
        let test_k = restrict(&shared.test_records, k);
        let model_cfg = EventHitConfig {
            input_dim: shared.model.config().input_dim,
            window: shared.window,
            horizon: shared.horizon,
            num_events: 1,
            hidden_dim: cfg.hidden_dim,
            shared_dim: cfg.shared_dim,
            dropout: cfg.dropout,
        };
        let mut model = EventHit::new(model_cfg, cfg.seed.wrapping_add(900 + k as u64));
        let mut tc: TrainConfig = cfg.train.clone();
        tc.seed = cfg.seed.wrapping_add(950 + k as u64);
        train(&mut model, &train_k, &tc, &Telemetry::disabled());
        per_event_params += model.param_count();
        let calib_scored = score_records(&model, &calib_k, 128);
        let test_scored = score_records(&model, &test_k, 128);
        let state = ConformalState::try_fit(&calib_scored, 1, 0.5, shared.horizon)
            .expect("a one-event model scores one head");
        for (i, rec) in test_scored.iter().enumerate() {
            merged_preds[i].push(state.predict(rec, &Strategy::Ehcr { c: 0.9, alpha: 0.6 })[0]);
        }
    }
    let split_time = t0.elapsed().as_secs_f64();
    let split_out = evaluate(&merged_preds, &shared.test, shared.horizon as u32);

    println!("#variant\tREC\tSPL\tparams\ttrain_seconds");
    println!(
        "shared\t{}\t{}\t{}\t{}",
        f(shared_out.rec),
        f(shared_out.spl),
        shared_params,
        f(shared_time)
    );
    println!(
        "per-event\t{}\t{}\t{}\t{}",
        f(split_out.rec),
        f(split_out.spl),
        per_event_params,
        f(split_time)
    );
    println!("# expectation: comparable accuracy; the shared encoder uses fewer\n# parameters and roughly half the training time");
}

/// 3. Conformal calibration-set size sensitivity.
fn ablation_calibration_size(args: &CommonArgs) {
    println!("\n## 3. Calibration-set size (TA10, EHC at c = 0.9)");
    println!("#calib_fraction\tpositives\tREC_c\tSPL");
    let t = task("TA10").unwrap();
    let run = TaskRun::execute(&t, &args.config(0));
    for frac in [1.0f64, 0.5, 0.25, 0.1, 0.05] {
        let n = ((run.calib.len() as f64) * frac).ceil() as usize;
        let subset = &run.calib[..n.min(run.calib.len())];
        let state =
            ConformalState::try_fit(subset, 1, 0.5, run.horizon).expect("TA10 is a one-event task");
        let preds: Vec<_> = run
            .test
            .iter()
            .map(|r| state.predict(r, &Strategy::Ehc { c: 0.9 }))
            .collect();
        let o = evaluate(&preds, &run.test, run.horizon as u32);
        println!(
            "{frac}\t{}\t{}\t{}",
            state.calibration_sizes()[0],
            f(o.rec_c),
            f(o.spl)
        );
    }
    println!("# expectation: REC_c stays near/above c until positives get very scarce");
}

/// 4. Non-conformity measures produce identical decisions.
fn ablation_nonconformity(args: &CommonArgs) {
    println!("\n## 4. Non-conformity measure equivalence (TA10)");
    let t = task("TA10").unwrap();
    let cfg: ExperimentConfig = args.config(0);
    let run = TaskRun::execute(&t, &cfg);
    let positives: Vec<f64> = run
        .calib
        .iter()
        .filter(|r| r.labels[0].present)
        .map(|r| r.scores[0].b)
        .collect();
    let measures = [
        ("1-b", Nonconformity::OneMinusScore),
        ("-ln(b)", Nonconformity::NegLogScore),
        ("margin", Nonconformity::Margin),
    ];
    let classifiers: Vec<(&str, ConformalClassifier)> = measures
        .iter()
        .map(|&(n, m)| (n, ConformalClassifier::fit(&positives, m)))
        .collect();
    let mut disagreements = 0usize;
    let mut total = 0usize;
    for rec in &run.test {
        let decisions: Vec<bool> = classifiers
            .iter()
            .map(|(_, cc)| cc.predict(rec.scores[0].b, 0.9))
            .collect();
        total += 1;
        if decisions.iter().any(|&d| d != decisions[0]) {
            disagreements += 1;
        }
    }
    println!("#measures\ttest_records\tdisagreements");
    println!(
        "{}\t{total}\t{disagreements}",
        measures
            .iter()
            .map(|&(n, _)| n)
            .collect::<Vec<_>>()
            .join(",")
    );
    println!("# expectation: 0 disagreements (footnote 5: monotone measures are equivalent)");
}

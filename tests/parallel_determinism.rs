//! Thread-count invariance: every parallel path in the workspace must
//! produce bit-identical outputs for any worker count, including the
//! inline `workers = 1` path. The baseline is always the sequential
//! result; worker counts {2, 4, 8} are compared against it bit for bit
//! — loss curves, conformal quantiles, marshalling decisions, and
//! telemetry trace fingerprints.

use eventhit::core::experiment::{ExperimentConfig, TaskRun};
use eventhit::core::infer::{score_records, score_records_lane_with};
use eventhit::core::multi::{run_lanes, LaneDecision, StreamLane};
use eventhit::core::pipeline::Strategy;
use eventhit::core::streaming::OnlinePredictor;
use eventhit::core::tasks::task;
use eventhit::core::tune::{search, Candidate, Objective};
use eventhit::core::InferenceLane;
use eventhit::parallel::{with_workers, Pool};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn quick_run(seed: u64) -> TaskRun {
    let cfg = ExperimentConfig {
        scale: 0.08,
        ..ExperimentConfig::quick(seed)
    };
    TaskRun::execute(&task("TA10").unwrap(), &cfg)
}

/// The full training pipeline — stream synthesis, feature generation,
/// model init, SGD — yields a bit-identical loss curve under every
/// worker count.
#[test]
fn loss_curve_is_worker_count_invariant() {
    let baseline = with_workers(1, || quick_run(31));
    for w in WORKER_COUNTS {
        let run = with_workers(w, || quick_run(31));
        assert_eq!(
            run.train_report.epoch_losses, baseline.train_report.epoch_losses,
            "loss curve diverged at {w} workers"
        );
        assert_eq!(
            run.train_report.final_loss.to_bits(),
            baseline.train_report.final_loss.to_bits()
        );
    }
}

/// Fitted conformal state — calibration sizes, p-values, and interval
/// quantiles — is invariant to the worker count used during the run.
#[test]
fn conformal_state_is_worker_count_invariant() {
    let baseline = with_workers(1, || quick_run(32));
    for w in [2usize, 4, 8] {
        let run = with_workers(w, || quick_run(32));
        assert_eq!(
            run.state.calibration_sizes(),
            baseline.state.calibration_sizes()
        );
        for k in 0..baseline.state.num_events() {
            for probe in [0.1, 0.5, 0.9] {
                assert_eq!(
                    run.state.classifier(k).p_value(probe).to_bits(),
                    baseline.state.classifier(k).p_value(probe).to_bits(),
                    "p-value diverged at event {k}, probe {probe}, {w} workers"
                );
            }
            for alpha in [0.5, 0.9, 0.95] {
                let qa = run.state.interval_calibration(k).quantiles(alpha);
                let qb = baseline.state.interval_calibration(k).quantiles(alpha);
                assert_eq!(
                    (qa.0.to_bits(), qa.1.to_bits()),
                    (qb.0.to_bits(), qb.1.to_bits()),
                    "quantiles diverged at event {k}, alpha {alpha}, {w} workers"
                );
            }
        }
    }
}

/// Marshalling decisions from the streaming predictor are identical
/// under every worker count.
#[test]
fn marshalling_decisions_are_worker_count_invariant() {
    let run = quick_run(33);
    let drive = |w: usize| {
        with_workers(w, || {
            let mut p = OnlinePredictor::new(
                run.model.clone(),
                run.state.clone(),
                Strategy::Ehcr { c: 0.9, alpha: 0.5 },
            );
            p.run_over(&run.features, run.window)
        })
    };
    let baseline = drive(1);
    assert!(!baseline.is_empty(), "the run must produce decisions");
    for w in [2usize, 4, 8] {
        assert_eq!(drive(w), baseline, "decisions diverged at {w} workers");
    }
}

/// The manual-clock telemetry trace of a full resilient-marshalling run
/// has the same fingerprint under every worker count: pool wall-clock
/// diagnostics live in a separate recorder and never touch the
/// pipeline's trace.
#[test]
fn telemetry_fingerprint_is_worker_count_invariant() {
    use std::sync::Arc;

    use eventhit::core::ci::CiConfig;
    use eventhit::core::faults::FaultConfig;
    use eventhit::core::marshal::Marshaller;
    use eventhit::core::resilient::{ResilienceConfig, ResilientCiClient};
    use eventhit::telemetry::Telemetry;
    use eventhit::video::detector::StageModel;

    let faults = FaultConfig {
        transient_prob: 0.1,
        ..FaultConfig::reliable()
    };
    let trace = |w: usize| {
        with_workers(w, || {
            let run = quick_run(34);
            let stream = run.stream.clone();
            let features = run.features.clone();
            let from = run.window as u64;
            let to = stream.len;

            let tel = Arc::new(Telemetry::with_manual_clock());
            let mut m = Marshaller::new(
                run.model,
                run.state,
                Strategy::Ehcr { c: 0.9, alpha: 0.5 },
                run.window,
                run.horizon,
                CiConfig::default(),
            );
            m.set_telemetry(Arc::clone(&tel));
            let mut client = ResilientCiClient::new(
                faults.clone(),
                ResilienceConfig::default(),
                StageModel::new("ci", 1000.0),
                34,
            )
            .unwrap();
            client.set_telemetry(Arc::clone(&tel));
            m.run_resilient(&stream, &features, from, to, 30.0, &mut client)
                .unwrap();
            let snap = tel.snapshot();
            (snap.to_jsonl(), snap.fingerprint())
        })
    };

    let (jsonl_1, fp_1) = trace(1);
    for w in [2usize, 4, 8] {
        let (jsonl_w, fp_w) = trace(w);
        assert_eq!(jsonl_w, jsonl_1, "telemetry JSONL diverged at {w} workers");
        assert_eq!(fp_w, fp_1);
    }
}

/// Batched inference on an explicit pool matches the sequential scorer
/// even when the batch size does not divide the record count.
#[test]
fn batched_inference_matches_sequential_for_odd_batches() {
    let run = quick_run(35);
    let records = &run.test_records;
    assert!(records.len() > 7, "need enough records for several batches");
    let baseline = score_records(&run.model, records, records.len());
    for w in WORKER_COUNTS {
        for batch in [1usize, 7, 13] {
            let got = score_records_lane_with(
                &run.model,
                records,
                batch,
                InferenceLane::Exact,
                &Pool::new(w),
            );
            assert_eq!(got.len(), baseline.len());
            for (g, b) in got.iter().zip(&baseline) {
                assert_eq!(g.anchor, b.anchor);
                for (gs, bs) in g.scores.iter().zip(&b.scores) {
                    assert_eq!(gs.b.to_bits(), bs.b.to_bits(), "{w} workers, batch {batch}");
                    let gt: Vec<u32> = gs.theta.iter().map(|t| t.to_bits()).collect();
                    let bt: Vec<u32> = bs.theta.iter().map(|t| t.to_bits()).collect();
                    assert_eq!(gt, bt, "{w} workers, batch {batch}");
                }
            }
        }
    }
}

/// A strategy sweep evaluates its grid cells in parallel with results in
/// grid order, bit-identical for any pool.
#[test]
fn strategy_sweep_is_pool_invariant() {
    let run = quick_run(36);
    let strategies = [
        Strategy::Eho { tau1: 0.5 },
        Strategy::Ehc { c: 0.9 },
        Strategy::Ehcr { c: 0.9, alpha: 0.9 },
        Strategy::Ehcr {
            c: 0.95,
            alpha: 0.5,
        },
    ];
    let baseline = run.sweep(&strategies, &Pool::sequential());
    for w in [2usize, 4, 8] {
        let got = run.sweep(&strategies, &Pool::new(w));
        assert_eq!(got.len(), baseline.len());
        for ((gs, go), (bs, bo)) in got.iter().zip(&baseline) {
            assert_eq!(gs, bs, "grid order must be preserved at {w} workers");
            assert_eq!(go.rec.to_bits(), bo.rec.to_bits());
            assert_eq!(go.spl.to_bits(), bo.spl.to_bits());
            assert_eq!(go.frames_relayed, bo.frames_relayed);
        }
    }
}

/// Hyper-parameter search trains each grid cell on its own RNG
/// substream, so the ranked results are bit-identical for any pool.
#[test]
fn hyper_parameter_search_is_pool_invariant() {
    use eventhit::core::model::EventHitConfig;

    let run = quick_run(37);
    let cfg = EventHitConfig {
        input_dim: run.model.config().input_dim,
        window: run.window,
        horizon: run.horizon,
        num_events: run.model.config().num_events,
        hidden_dim: 8,
        shared_dim: 6,
        dropout: 0.0,
    };
    let candidates = vec![
        Candidate {
            beta: 1.0,
            gamma: 1.0,
            lr: 3e-3,
            epochs: 2,
        },
        Candidate {
            beta: 2.0,
            gamma: 0.5,
            lr: 1e-3,
            epochs: 2,
        },
        Candidate {
            beta: 0.5,
            gamma: 2.0,
            lr: 1e-2,
            epochs: 2,
        },
    ];
    let go = |pool: &Pool| {
        search(
            &candidates,
            &cfg,
            &run.train_records,
            &run.calib_records,
            11,
            Objective::RecMinusSpl { lambda: 1.0 },
            pool,
        )
    };
    let baseline = go(&Pool::sequential());
    for w in [2usize, 4, 8] {
        let got = go(&Pool::new(w));
        assert_eq!(got.len(), baseline.len());
        for (g, b) in got.iter().zip(&baseline) {
            assert_eq!(g.candidate, b.candidate, "ranking diverged at {w} workers");
            assert_eq!(g.score.to_bits(), b.score.to_bits());
        }
    }
}

/// Multi-stream lanes merge into one deterministic timeline: the same
/// decisions, in `(anchor, stream_id)` order, for any pool.
#[test]
fn multi_stream_lanes_merge_deterministically() {
    let run = quick_run(38);
    let lanes = || -> Vec<StreamLane> {
        (0..4usize)
            .map(|stream_id| StreamLane {
                stream_id,
                predictor: OnlinePredictor::new(
                    run.model.clone(),
                    run.state.clone(),
                    Strategy::Ehcr { c: 0.9, alpha: 0.5 },
                ),
                // Lanes stagger their start rows so they see different
                // frame sequences and produce offset anchors.
                features: run.features.clone(),
                from: run.window + stream_id * 16,
            })
            .collect()
    };
    let baseline: Vec<LaneDecision> = run_lanes(lanes(), &Pool::sequential());
    assert!(!baseline.is_empty(), "lanes must produce decisions");
    // The merged timeline is sorted by (anchor, stream_id).
    for pair in baseline.windows(2) {
        assert!(
            (pair[0].decision.anchor, pair[0].stream_id)
                <= (pair[1].decision.anchor, pair[1].stream_id)
        );
    }
    // Every lane contributed.
    for id in 0..4 {
        assert!(baseline.iter().any(|d| d.stream_id == id));
    }
    for w in [2usize, 4, 8] {
        assert_eq!(
            run_lanes(lanes(), &Pool::new(w)),
            baseline,
            "merged timeline diverged at {w} workers"
        );
    }
}

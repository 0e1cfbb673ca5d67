//! Thread-count invariance: every parallel path in the workspace must
//! produce bit-identical outputs for any worker count, including the
//! inline `workers = 1` path. The baseline is always the sequential
//! result; worker counts {2, 4, 8} are compared against it bit for bit
//! — loss curves and trained weights (at batches no worker count
//! divides, at a last batch shorter than the worker count, and with
//! either encoder), conformal quantiles, marshalling decisions, and
//! telemetry trace fingerprints.

use eventhit::core::experiment::{ExperimentConfig, TaskRun};
use eventhit::core::infer::{score_records, score_records_lane_with};
use eventhit::core::model::EncoderKind;
use eventhit::core::model_io;
use eventhit::core::multi::{run_lanes, LaneDecision, StreamLane};
use eventhit::core::pipeline::Strategy;
use eventhit::core::streaming::OnlinePredictor;
use eventhit::core::tasks::task;
use eventhit::core::train::{train, TrainConfig};
use eventhit::core::tune::{search, Candidate, Objective};
use eventhit::core::EventHit;
use eventhit::core::InferenceLane;
use eventhit::parallel::{with_workers, Pool};
use eventhit::telemetry::Telemetry;
use eventhit::video::records::Record;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn quick_run(seed: u64) -> TaskRun {
    let cfg = ExperimentConfig {
        scale: 0.08,
        ..ExperimentConfig::quick(seed)
    };
    TaskRun::execute(&task("TA10").unwrap(), &cfg)
}

/// The model file of `model`: every weight, bit for bit.
fn model_bytes(model: &EventHit) -> Vec<u8> {
    let mut bytes = Vec::new();
    model_io::save(model, &mut bytes).expect("a model saves to memory");
    bytes
}

/// `quick_run(seed)` under `cfg`'s changes at every worker count: the
/// loss curve and the trained weights are the one-worker run's, bit for
/// bit.
fn assert_training_is_worker_count_invariant(seed: u64, cfg: impl Fn(&mut ExperimentConfig)) {
    let run = |w: usize| {
        let mut c = ExperimentConfig {
            scale: 0.08,
            ..ExperimentConfig::quick(seed)
        };
        cfg(&mut c);
        with_workers(w, || TaskRun::execute(&task("TA10").unwrap(), &c))
    };
    let baseline = run(1);
    let weights = model_bytes(&baseline.model);
    for w in WORKER_COUNTS {
        let run = run(w);
        assert_eq!(
            run.train_report.epoch_losses, baseline.train_report.epoch_losses,
            "loss curve diverged at {w} workers"
        );
        assert_eq!(
            run.train_report.final_loss.to_bits(),
            baseline.train_report.final_loss.to_bits()
        );
        assert!(
            model_bytes(&run.model) == weights,
            "trained weights diverged at {w} workers"
        );
    }
}

/// The full training pipeline — stream synthesis, feature generation,
/// model init, SGD — yields a bit-identical loss curve and bit-identical
/// weights under every worker count.
#[test]
fn loss_curve_is_worker_count_invariant() {
    assert_training_is_worker_count_invariant(31, |_| {});
}

/// A batch no worker count divides: the blocks of a step are uneven.
#[test]
fn training_with_a_batch_no_worker_count_divides_is_worker_count_invariant() {
    assert_training_is_worker_count_invariant(34, |c| c.train.batch_size = 33);
}

/// The GRU encoder takes the same blocked step as the LSTM.
#[test]
fn gru_training_is_worker_count_invariant() {
    assert_training_is_worker_count_invariant(35, |c| c.encoder = EncoderKind::Gru);
}

/// An epoch whose last batch has fewer rows than there are workers:
/// that step runs one block per row.
#[test]
fn a_last_batch_shorter_than_the_worker_count_trains_invariantly() {
    let run = quick_run(36);
    // Negatives only, so the epoch's pool is the records themselves:
    // 43 = 5 x 8 + 3.
    let records: Vec<Record> = run
        .train_records
        .iter()
        .filter(|r| r.labels.iter().all(|l| !l.present))
        .take(43)
        .cloned()
        .collect();
    assert_eq!(records.len(), 43, "the split holds 43 negatives");
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 8,
        ..TrainConfig::default()
    };
    let fit = |w: usize| {
        let mut model = EventHit::new(run.model.config().clone(), 9);
        let report = with_workers(w, || {
            train(&mut model, &records, &cfg, &Telemetry::disabled())
        });
        (report.epoch_losses, model_bytes(&model))
    };
    let baseline = fit(1);
    for w in WORKER_COUNTS {
        assert!(fit(w) == baseline, "training diverged at {w} workers");
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

/// The manual-clock telemetry trace of a full marshalling run has the
/// same fingerprint under every worker count: pool wall-clock
/// diagnostics live in a separate recorder and never touch the
/// pipeline's trace.
#[test]
fn telemetry_fingerprint_is_worker_count_invariant() {
    use std::sync::Arc;

    use eventhit::core::ci::CiConfig;
    use eventhit::core::marshal::Marshaller;

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
                CiConfig::default(),
            );
            m.set_telemetry(Arc::clone(&tel));
            m.try_run(&stream, &features, from, to).unwrap();
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

/// `run_lanes` batches the co-timed anchors of a lane group into one
/// forward; every lane must still decide exactly as it does alone. The
/// first lanes mix start rows, stream lengths, policies, both inference
/// lanes and two models (two plans); twenty more share one of
/// everything, more co-timed windows than one batch takes. Some lanes
/// record, with and without a trace id. Each lane's decisions and its
/// whole telemetry snapshot (a manual clock, so every count, label and
/// exemplar is compared) equal those of its own `push_frames` pass, at
/// 1, 2, 4 and 8 workers.
#[test]
fn run_lanes_decides_mixed_lanes_as_each_lane_alone() {
    use eventhit::core::SamplingPolicy;
    use eventhit::nn::matrix::Matrix;
    use std::sync::Arc;

    let runs = [quick_run(38), quick_run(39)];
    let policies =
        ["fixed", "delta:0.1", "adaptive:0.1:3"].map(|p| SamplingPolicy::parse(p).unwrap());
    let (window, horizon, rows) = (runs[0].window, runs[0].horizon, runs[0].features.rows());
    let froms = [0, 3, window - 1, window + 7, 40, 2 * horizon + 1];
    let (mixed, lanes) = (14, 34);
    // Lane `i`'s (run, policy, inference lane, first row).
    let spec = |i: usize| match i < mixed {
        true => (
            usize::from(i % 5 == 4),
            i % 3,
            [InferenceLane::Exact, InferenceLane::Quantized][(i / 3) % 2],
            froms[i % froms.len()],
        ),
        false => (0, 0, InferenceLane::Exact, 0),
    };
    let states: Vec<_> = (0..lanes)
        .map(|i| {
            let (run, policy, lane, _) = spec(i);
            runs[run].state_for_sampling(&policies[policy], lane)
        })
        .collect();
    // Each lane on a fresh predictor, with its recorder: lanes 0, 4, 8, ...
    // trace, lanes 1, 5, 9, ... record without a trace id.
    let build = |i: usize| {
        let (run, policy, lane, from) = spec(i);
        let run = &runs[run];
        let mut predictor = OnlinePredictor::with_policy(
            run.model.clone(),
            states[i].clone(),
            Strategy::Ehcr { c: 0.9, alpha: 0.5 },
            lane,
            policies[policy].clone(),
        );
        let telemetry = (i % 4 < 2).then(|| Arc::new(Telemetry::with_manual_clock()));
        if let Some(t) = &telemetry {
            predictor.set_telemetry(Arc::clone(t));
            if i.is_multiple_of(4) {
                predictor.set_trace(Some(1000 + i as u64));
            }
        }
        let len = rows - (i * 37) % (rows / 3);
        let dim = run.features.cols();
        let features = Matrix::from_vec(len, dim, run.features.as_slice()[..len * dim].to_vec());
        let lane = StreamLane {
            stream_id: (i * 5) % lanes,
            predictor,
            features,
            from,
        };
        (lane, telemetry)
    };

    let (mut alone, mut alone_telemetry) = (Vec::new(), Vec::new());
    for i in 0..lanes {
        let (mut lane, telemetry) = build(i);
        for decision in lane.predictor.run_over(&lane.features, lane.from) {
            alone.push(LaneDecision {
                stream_id: lane.stream_id,
                decision,
            });
        }
        alone_telemetry.push(telemetry.map(|t| t.snapshot()));
    }
    alone.sort_by_key(|d| (d.decision.anchor, d.stream_id));
    assert!(alone.len() > 10 * lanes, "{} decisions", alone.len());

    for w in WORKER_COUNTS {
        let (batch, telemetry): (Vec<StreamLane>, Vec<_>) = (0..lanes).map(build).unzip();
        assert!(
            run_lanes(batch, &Pool::new(w)) == alone,
            "decisions at {w} workers"
        );
        for (i, (t, want)) in telemetry.iter().zip(&alone_telemetry).enumerate() {
            assert_eq!(
                t.as_ref().map(|t| t.snapshot()),
                *want,
                "lane {i}'s telemetry at {w} workers"
            );
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

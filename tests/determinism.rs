//! Reproducibility of the full pipeline: the same master seed must yield
//! bit-identical artefacts at every layer — synthetic stream, training
//! loss curve, and fitted conformal state. Golden values are pinned to
//! the in-repo xoshiro256++ generator, so any change to the RNG, the
//! seeding discipline, or the order in which components consume
//! randomness shows up here first.

use eventhit::core::experiment::{ExperimentConfig, TaskRun};
use eventhit::core::tasks::task;
use eventhit::video::stream::VideoStream;
use eventhit::video::synthetic::thumos;

fn quick_run(seed: u64) -> TaskRun {
    let cfg = ExperimentConfig {
        scale: 0.08,
        ..ExperimentConfig::quick(seed)
    };
    TaskRun::execute(&task("TA10").unwrap(), &cfg)
}

/// Synthetic stream generation is bit-stable: golden values for the
/// THUMOS profile at seed 1.
#[test]
fn synthetic_stream_golden_values() {
    let s = VideoStream::generate(&thumos(), 1);
    assert_eq!(s.len, 240_000);
    assert_eq!(s.classes.len(), 3);
    assert_eq!(s.instances.len(), 190);
    let first = &s.instances[0];
    assert_eq!(
        (first.class, first.interval.start, first.interval.end),
        (0, 4842, 4996)
    );
}

/// Same seed ⇒ identical stream instance-for-instance; different seed ⇒
/// a different realisation.
#[test]
fn synthetic_stream_is_seed_deterministic() {
    let a = VideoStream::generate(&thumos(), 3);
    let b = VideoStream::generate(&thumos(), 3);
    assert_eq!(a.len, b.len);
    assert_eq!(a.instances, b.instances);
    let c = VideoStream::generate(&thumos(), 4);
    assert_ne!(a.instances, c.instances);
}

/// Same seed ⇒ bit-identical training loss curve and final loss. This is
/// the strongest end-to-end reproducibility statement: it covers stream
/// generation, feature synthesis, model init, and the training shuffle.
#[test]
fn training_loss_curve_is_bit_identical() {
    let a = quick_run(21);
    let b = quick_run(21);
    assert_eq!(a.train_report.epoch_losses, b.train_report.epoch_losses);
    assert_eq!(
        a.train_report.final_loss.to_bits(),
        b.train_report.final_loss.to_bits()
    );
    // Sanity: the curve is non-trivial (training actually happened).
    assert!(a.train_report.epoch_losses.len() > 1);
    assert!(a.train_report.epoch_losses.iter().all(|l| l.is_finite()));
}

/// Same seed ⇒ identical fitted conformal state: classifier calibration
/// sizes, p-values on a probe score, and interval quantiles.
#[test]
fn conformal_state_is_bit_identical() {
    let a = quick_run(22);
    let b = quick_run(22);
    assert_eq!(a.state.calibration_sizes(), b.state.calibration_sizes());
    for k in 0..a.state.num_events() {
        for probe in [0.1, 0.5, 0.9] {
            assert_eq!(
                a.state.classifier(k).p_value(probe).to_bits(),
                b.state.classifier(k).p_value(probe).to_bits(),
                "p-value diverged at event {k}, probe {probe}"
            );
        }
        for alpha in [0.5, 0.9, 0.95] {
            let qa = a.state.interval_calibration(k).quantiles(alpha);
            let qb = b.state.interval_calibration(k).quantiles(alpha);
            assert_eq!(
                (qa.0.to_bits(), qa.1.to_bits()),
                (qb.0.to_bits(), qb.1.to_bits()),
                "interval quantiles diverged at event {k}, alpha {alpha}"
            );
        }
    }
}

/// A fault trace is a pure function of `(config, seed)`: replaying the
/// same seed reproduces every attempt outcome bit-for-bit, and a
/// different seed realises a different trace.
#[test]
fn fault_traces_replay_bit_identically() {
    use eventhit::core::faults::{FaultConfig, FaultInjector};

    let cfg = FaultConfig::lossy();
    let drive = |seed: u64| {
        let mut inj = FaultInjector::new(cfg.clone(), seed);
        for _ in 0..500 {
            inj.attempt(2.0);
        }
        inj.trace.fingerprint()
    };
    assert_eq!(drive(77), drive(77));
    assert_ne!(drive(77), drive(78));
}

/// The full resilient marshalling path under correlated outages: the run
/// completes without panicking, reports availability below 1.0,
/// attributes every ground-truth instance to exactly one bucket, and
/// replaying the same seed yields a bit-identical fault trace, stats,
/// and report.
#[test]
fn faulted_marshalling_is_reproducible_and_accounted() {
    use eventhit::core::ci::CiConfig;
    use eventhit::core::faults::FaultConfig;
    use eventhit::core::marshal::Marshaller;
    use eventhit::core::pipeline::Strategy;
    use eventhit::core::report::ResilienceReport;
    use eventhit::core::resilient::{ResilienceConfig, ResilientCiClient};
    use eventhit::video::detector::StageModel;

    let run = quick_run(24);
    let stream = run.stream.clone();
    let features = run.features.clone();
    let from = run.window as u64;
    let to = stream.len;
    let mut m = Marshaller::new(
        run.model,
        run.state,
        Strategy::Ehcr { c: 0.9, alpha: 0.5 },
        run.window,
        run.horizon,
        CiConfig::default(),
    );

    let faults = FaultConfig {
        p_good_to_bad: 0.25,
        p_bad_to_good: 0.25,
        bad_loss: 1.0,
        transient_prob: 0.05,
        ..FaultConfig::reliable()
    };
    let mut go = || {
        let mut client = ResilientCiClient::new(
            faults.clone(),
            ResilienceConfig::default(),
            StageModel::new("ci", 1000.0),
            24,
        )
        .unwrap();
        m.run_resilient(&stream, &features, from, to, 30.0, &mut client)
            .unwrap()
    };

    let a = go();
    assert!(a.availability() < 1.0, "outages must degrade availability");
    assert_eq!(
        a.attribution.total(),
        a.ground_truth.len(),
        "every ground-truth instance lands in exactly one bucket"
    );

    let b = go();
    assert_eq!(a.fault_fingerprint, b.fault_fingerprint);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.attribution, b.attribution);
    assert_eq!(a.horizon_tags, b.horizon_tags);
    assert_eq!(
        ResilienceReport::from_stats(&a.stats, a.attribution).to_markdown(),
        ResilienceReport::from_stats(&b.stats, b.attribution).to_markdown()
    );
}

/// Under the manual clock, the telemetry trace is a pure function of the
/// run's inputs: replaying resilient marshalling plus an instrumented
/// queue simulation with the same seeds yields a bit-identical JSONL
/// export and FNV-1a fingerprint, while a different fault seed realises
/// a different trace.
#[test]
fn telemetry_trace_replays_bit_identically() {
    use std::sync::Arc;

    use eventhit::core::ci::CiConfig;
    use eventhit::core::ci_queue::{simulate, QueueConfig, Submission};
    use eventhit::core::faults::FaultConfig;
    use eventhit::core::marshal::Marshaller;
    use eventhit::core::pipeline::Strategy;
    use eventhit::core::resilient::{ResilienceConfig, ResilientCiClient};
    use eventhit::telemetry::Telemetry;
    use eventhit::video::detector::StageModel;

    let faults = FaultConfig {
        transient_prob: 0.1,
        ..FaultConfig::reliable()
    };
    let subs: Vec<Submission> = (0..40)
        .map(|i| Submission {
            arrival_frame: i * 90,
            frames: 60,
        })
        .collect();

    let trace = |fault_seed: u64| {
        let run = quick_run(25);
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
            fault_seed,
        )
        .unwrap();
        client.set_telemetry(Arc::clone(&tel));
        m.run_resilient(&stream, &features, from, to, 30.0, &mut client)
            .unwrap();
        simulate(&subs, &QueueConfig::default(), &tel).unwrap();

        let snap = tel.snapshot();
        (snap.to_jsonl(), snap.fingerprint())
    };

    let (jsonl_a, fp_a) = trace(24);
    let (jsonl_b, fp_b) = trace(24);
    assert_eq!(
        jsonl_a, jsonl_b,
        "telemetry JSONL must replay bit-identically"
    );
    assert_eq!(fp_a, fp_b);
    assert!(jsonl_a.contains("\"clock\":\"manual\""));
    assert!(jsonl_a.contains("marshal.run_resilient"));
    assert!(jsonl_a.contains("ciq.latency_seconds"));

    let (_, fp_c) = trace(26);
    assert_ne!(fp_a, fp_c, "a different fault seed must change the trace");
}

/// Evaluation outcomes are a pure function of the run: two identically
/// seeded runs agree on every reported metric.
#[test]
fn evaluation_outcomes_are_identical() {
    use eventhit::core::pipeline::Strategy;
    let a = quick_run(23);
    let b = quick_run(23);
    for s in [
        Strategy::Eho { tau1: 0.5 },
        Strategy::Ehc { c: 0.9 },
        Strategy::Ehcr { c: 0.9, alpha: 0.9 },
    ] {
        let oa = a.evaluate(&s);
        let ob = b.evaluate(&s);
        assert_eq!(oa.rec.to_bits(), ob.rec.to_bits(), "{s:?}");
        assert_eq!(oa.spl.to_bits(), ob.spl.to_bits(), "{s:?}");
        assert_eq!(oa.frames_relayed, ob.frames_relayed, "{s:?}");
    }
}

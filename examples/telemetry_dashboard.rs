//! Telemetry quickstart: thread one recorder through training, resilient
//! marshalling, and the CI queue simulator, then render the run dashboard
//! — counters, gauges, latency quantiles (p50/p95/p99), and a span
//! flamegraph — and export the canonical JSONL trace.
//!
//! The wall-clock recorder gives real span timings; the manual-clock coda
//! at the end shows the determinism contract: with the simulation driving
//! the clock, the trace fingerprint is a pure function of the seed.
//!
//! ```bash
//! cargo run --release --example telemetry_dashboard          # seed 42
//! cargo run --release --example telemetry_dashboard -- 7     # another seed
//! ```

use std::sync::Arc;

use eventhit::core::ci_queue::{simulate, QueueConfig, Submission};
use eventhit::core::experiment::{ExperimentConfig, TaskRun};
use eventhit::core::marshal::Marshaller;
use eventhit::core::pipeline::Strategy;
use eventhit::core::resilient::{ResilienceConfig, ResilientCiClient};
use eventhit::core::tasks::task;
use eventhit::core::train::{train, TrainConfig};
use eventhit::core::{CiConfig, FaultConfig};
use eventhit::telemetry::Telemetry;
use eventhit::video::detector::StageModel;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    // One wall-clock recorder shared by every stage of the run.
    let tel = Arc::new(Telemetry::new());

    println!("Training EventHit on a THUMOS-like stream (seed {seed})...");
    let mut run = TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(seed));

    // A short instrumented fine-tune: `train` / `train.epoch` spans,
    // per-step timing histogram, loss and throughput gauges.
    train(
        &mut run.model,
        &run.train_records,
        &TrainConfig {
            epochs: 2,
            ..Default::default()
        },
        &tel,
    );

    // Resilient marshalling over a bursty channel, with the marshaller and
    // the CI client reporting to the same recorder: degradation tags,
    // fault kinds, retries, breaker transitions, delivery latencies.
    let (stream, features) = (run.stream.clone(), run.features.clone());
    let (from, to) = (run.window as u64, run.stream.len);
    let mut m = Marshaller::new(
        run.model,
        run.state,
        Strategy::Ehcr { c: 0.9, alpha: 0.5 },
        run.window,
        run.horizon,
        CiConfig::default(),
    );
    m.set_telemetry(Arc::clone(&tel));

    let faults = FaultConfig {
        p_good_to_bad: 0.2,
        p_bad_to_good: 0.3,
        bad_loss: 1.0,
        transient_prob: 0.05,
        ..FaultConfig::reliable()
    };
    let mut client = ResilientCiClient::new(
        faults,
        ResilienceConfig::default(),
        StageModel::new("ci", 1000.0),
        seed,
    )
    .unwrap();
    client.set_telemetry(Arc::clone(&tel));

    let res = m
        .run_resilient(&stream, &features, from, to, 30.0, &mut client)
        .unwrap();
    println!(
        "Marshalled {} horizons (availability {:.3}).",
        res.horizons,
        res.stats.availability()
    );

    // A CI queue simulation on the same recorder: backlog gauge plus the
    // `ciq.latency_seconds` histogram behind the dashboard's quantiles.
    let subs: Vec<Submission> = (0..120)
        .map(|i| Submission {
            arrival_frame: i * 45,
            frames: 60,
        })
        .collect();
    simulate(&subs, &QueueConfig::default(), &tel).unwrap();

    // The run dashboard.
    let snap = tel.snapshot();
    println!("\n{}", snap.render());

    let jsonl = snap.to_jsonl();
    println!(
        "JSONL trace: {} lines, fingerprint {:#018x} (wall clock — timings vary run to run).",
        jsonl.lines().count(),
        snap.fingerprint()
    );

    // Determinism coda: drive the clock from the simulation instead of the
    // wall, and the whole trace becomes a pure function of the inputs.
    let replay = |s: u64| {
        let t = Telemetry::with_manual_clock();
        let subs: Vec<Submission> = (0..60)
            .map(|i| Submission {
                arrival_frame: i * (45 + s % 7),
                frames: 60,
            })
            .collect();
        simulate(&subs, &QueueConfig::default(), &t).unwrap();
        t.snapshot().fingerprint()
    };
    let (a, b) = (replay(seed), replay(seed));
    assert_eq!(a, b, "manual-clock traces replay bit-identically");
    println!("Manual-clock replay: fingerprint {a:#018x} twice — bit-identical.");
}

//! Fault-injection quickstart: marshal a stream over an unreliable cloud
//! path and watch availability, retries, and miss attribution.
//!
//! The channel is a seed-driven Gilbert–Elliott model (correlated outage
//! bursts) plus independent transient/timeout/throttle bands; the client
//! answers with capped-exponential backoff, a circuit breaker, and a
//! dead-letter degradation policy. Re-running with the same seed replays
//! the fault trace bit-for-bit.
//!
//! ```bash
//! cargo run --release --example fault_injection          # seed 42
//! cargo run --release --example fault_injection -- 7     # another seed
//! ```

use eventhit::core::experiment::{ExperimentConfig, TaskRun};
use eventhit::core::marshal::Marshaller;
use eventhit::core::pipeline::Strategy;
use eventhit::core::report::ResilienceReport;
use eventhit::core::resilient::{ResilienceConfig, ResilientCiClient};
use eventhit::core::tasks::task;
use eventhit::core::{CiConfig, FaultConfig};
use eventhit::video::detector::StageModel;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    println!("Training EventHit on a THUMOS-like stream (seed {seed})...");
    let run = TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(seed));
    let (stream, features) = (run.stream.clone(), run.features.clone());
    let (from, to) = (run.window as u64, run.stream.len);
    let mut m = Marshaller::new(
        run.model,
        run.state,
        Strategy::Ehcr { c: 0.9, alpha: 0.5 },
        CiConfig::default(),
    );

    // A bursty channel: correlated outages plus occasional transient errors.
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

    let res = m
        .run_resilient(&stream, &features, from, to, 30.0, &mut client)
        .unwrap();

    println!(
        "\nMarshalled {} horizons over a faulted channel (trace fingerprint {:#018x}):\n",
        res.horizons, res.fault_fingerprint
    );
    println!(
        "{}",
        ResilienceReport::from_stats(&res.stats, res.attribution).to_markdown()
    );
}

//! Surveillance automation: marshal a VIRAT-like multi-event stream
//! online — the deployment loop of the paper's Fig. 1.
//!
//! Trains EventHit for two events ("Person Opening a Vehicle" and "Person
//! getting out of a Vehicle"), then walks the held-out tail of the stream
//! horizon by horizon, relaying only predicted occurrence intervals to the
//! simulated cloud service, and reports detections, recall, and spend.
//!
//! ```text
//! cargo run --release --example surveillance
//! ```

use eventhit::core::ci::CiConfig;
use eventhit::core::experiment::{ExperimentConfig, TaskRun};
use eventhit::core::marshal::Marshaller;
use eventhit::core::pipeline::Strategy;
use eventhit::core::tasks::task;

fn main() {
    // TA7 = {E1: Person Opening a Vehicle, E5: Person getting out of a
    // Vehicle} on the VIRAT profile (M = 25, H = 500).
    let task = task("TA7").expect("built-in task");
    println!("Surveillance task {}: {:?}", task.id, task.events);

    let cfg = ExperimentConfig {
        scale: 0.2,
        seed: 11,
        ..Default::default()
    };
    println!("Training EventHit on the stream prefix ...");
    let run = TaskRun::execute(&task, &cfg);

    // Deploy with a high-recall conformal configuration: the 1 - c = 5%
    // miss bound and the α = 0.9 interval coverage are the paper's knobs.
    let strategy = Strategy::Ehcr {
        c: 0.95,
        alpha: 0.9,
    };
    let stream = run.stream.clone();
    let features = run.features.clone();
    let mut marshaller = Marshaller::new(run.model, run.state, strategy, CiConfig::default());

    // Marshal the final quarter of the stream (the model never saw it).
    let from = (stream.len * 3) / 4;
    println!("Marshalling frames {from}..{} ...", stream.len);
    let result = marshaller
        .try_run(&stream, &features, from, stream.len)
        .expect("range inside the stream");

    println!("\n  horizons walked      : {}", result.horizons);
    println!("  events in region     : {}", result.ground_truth.len());
    println!("  segments relayed     : {}", result.segments.len());
    println!("  frames relayed       : {}", result.cost.frames_relayed);
    println!("  frames covered       : {}", result.cost.frames_covered);
    println!(
        "  instance recall      : {:.1}%",
        result.instance_recall() * 100.0
    );
    println!(
        "  frame recall         : {:.1}%",
        result.frame_recall() * 100.0
    );
    println!("  cloud expense        : ${:.2}", result.cost.expense);
    let bf_expense = result.cost.frames_covered as f64 * CiConfig::default().price_per_frame;
    println!("  brute-force expense  : ${bf_expense:.2}");
    let (fe, pr, ci) = result.cost.stage_fractions();
    println!(
        "  time split           : {:.1}% features, {:.1}% EventHit, {:.1}% cloud",
        fe * 100.0,
        pr * 100.0,
        ci * 100.0
    );

    for seg in result.segments.iter().take(5) {
        println!(
            "  e.g. relayed frames {}..{} for event {}",
            seg.start, seg.end, task.events[seg.event]
        );
    }
}

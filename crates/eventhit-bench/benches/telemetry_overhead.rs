//! Telemetry overhead smoke bench: per-frame cost of the online
//! predictor's hot path with (a) no recorder, (b) a disabled recorder,
//! and (c) a live wall-clock recorder with a trace id attached to every
//! batch — the exact shape the traced serving path (`SubmitTraced`)
//! runs. Results are written to `BENCH_telemetry.json` at the workspace
//! root.
//!
//! This is the CI-gated companion to `telemetry_benches` (which uses the
//! Criterion-style harness for local exploration): a plain `main` so the
//! job can enforce a ceiling and exit non-zero.
//!
//! Flags (after `--`): `--smoke` cuts repetitions for CI; with
//! `--enforce-ceiling` the process exits non-zero if the live-traced
//! path costs more than [`CEILING`]× the plain path per frame. The
//! ceiling is deliberately loose — shared CI runners are noisy and the
//! absolute overhead is tens of nanoseconds against a ~hundreds-of-ns
//! frame — so only a pathological regression (a lock in the disabled
//! path, an allocation per frame) trips it.

use std::sync::Arc;
use std::time::Instant;

use eventhit_core::experiment::{ExperimentConfig, TaskRun};
use eventhit_core::pipeline::Strategy;
use eventhit_core::streaming::OnlinePredictor;
use eventhit_core::tasks::task;
use eventhit_core::train::TrainConfig;
use eventhit_telemetry::Telemetry;

/// Live-traced per-frame cost must stay under this multiple of plain.
const CEILING: f64 = 8.0;

/// Frames pushed per timed repetition.
const FRAMES_PER_REP: usize = 4096;

/// Frames per simulated batch between trace-id changes (the serving
/// path re-stamps the lane's trace id once per `SubmitTraced` batch).
const BATCH: usize = 97;

/// Median wall-clock seconds of `reps` runs of `f`.
fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn quick_run() -> TaskRun {
    let cfg = ExperimentConfig {
        scale: 0.1,
        train: TrainConfig {
            epochs: 2,
            ..Default::default()
        },
        ..ExperimentConfig::quick(9)
    };
    TaskRun::execute(&task("TA10").unwrap(), &cfg)
}

fn predictor(run: &TaskRun) -> OnlinePredictor {
    OnlinePredictor::new(
        run.model.clone(),
        run.state.clone(),
        Strategy::Ehcr { c: 0.9, alpha: 0.9 },
    )
}

/// Pushes [`FRAMES_PER_REP`] frames, cycling the run's feature rows and
/// (when `traced`) re-stamping a fresh trace id every [`BATCH`] frames.
fn drive(p: &mut OnlinePredictor, run: &TaskRun, traced: bool) -> usize {
    let features = &run.features;
    let mut decisions = 0;
    for i in 0..FRAMES_PER_REP {
        if traced && i % BATCH == 0 {
            p.set_trace(Some((i / BATCH) as u64 + 1));
        }
        let r = i % features.rows();
        if p.push_frame(features.row(r)).is_some() {
            decisions += 1;
        }
    }
    p.set_trace(None);
    decisions
}

/// One configuration's measured per-frame cost.
struct Lane {
    name: &'static str,
    ns_per_frame: f64,
}

impl Lane {
    fn to_json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"ns_per_frame\":{:.1}}}",
            self.name, self.ns_per_frame
        )
    }
}

fn measure(name: &'static str, run: &TaskRun, reps: usize, tel: Option<Telemetry>) -> Lane {
    let mut p = predictor(run);
    let traced = tel.as_ref().is_some_and(Telemetry::is_enabled);
    if let Some(t) = tel {
        p.set_telemetry(Arc::new(t));
    }
    let secs = time_median(reps, || drive(&mut p, run, traced));
    Lane {
        name,
        ns_per_frame: secs * 1e9 / FRAMES_PER_REP as f64,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let enforce = args.iter().any(|a| a == "--enforce-ceiling");
    let reps = if smoke { 5 } else { 15 };

    println!(
        "telemetry overhead ({} mode, {FRAMES_PER_REP} frames/rep, median of {reps})\n",
        if smoke { "smoke" } else { "full" }
    );

    let run = quick_run();
    let results = [
        measure("plain", &run, reps, None),
        measure("disabled_recorder", &run, reps, Some(Telemetry::disabled())),
        measure("live_traced", &run, reps, Some(Telemetry::new())),
    ];
    let plain = results[0].ns_per_frame.max(1e-3);
    for r in &results {
        println!(
            "{:<20} {:>8.1} ns/frame ({:.2}x plain)",
            r.name,
            r.ns_per_frame,
            r.ns_per_frame / plain
        );
    }
    let ratio = results[2].ns_per_frame / plain;

    let body: Vec<String> = results.iter().map(Lane::to_json).collect();
    let json = format!(
        "{{\"smoke\":{smoke},\"frames_per_rep\":{FRAMES_PER_REP},\
         \"live_traced_over_plain\":{ratio:.3},\"ceiling\":{CEILING},\
         \"benchmarks\":[{}]}}\n",
        body.join(",")
    );
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let path = root.join("BENCH_telemetry.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
    }

    if enforce {
        if ratio > CEILING {
            eprintln!(
                "CEILING VIOLATION: live_traced costs {ratio:.2}x plain per frame (ceiling {CEILING}x)"
            );
            std::process::exit(1);
        }
        println!("ceiling ok: live_traced at {ratio:.2}x plain (ceiling {CEILING}x)");
    }
}

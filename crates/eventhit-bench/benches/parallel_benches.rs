//! Scaling benchmarks for the parallel execution layer: batched
//! inference and multi-stream marshalling at 1/2/4/8 workers — the
//! grains the pool runs at. (A matrix product never enters the pool;
//! DESIGN §9 keeps the measurement that retired the row-blocked path.)
//!
//! Unlike the criterion-style targets, this harness times regions with
//! raw [`Instant`] so it can report *speedups* relative to the 1-worker
//! baseline and the per-task scheduling overhead, and it writes the
//! whole table to `results/parallel_benches.json` alongside the machine
//! core count — a 1-core box will honestly report speedup ≈ 1.

use std::time::Instant;

use eventhit_core::experiment::{ExperimentConfig, TaskRun};
use eventhit_core::infer::score_records_lane_with;
use eventhit_core::multi::{run_lanes, StreamLane};
use eventhit_core::pipeline::Strategy;
use eventhit_core::streaming::OnlinePredictor;
use eventhit_core::tasks::task;
use eventhit_core::train::TrainConfig;
use eventhit_nn::quant::InferenceLane;
use eventhit_parallel::Pool;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

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

struct Scaling {
    name: String,
    /// Number of pool tasks one run submits (for overhead accounting).
    tasks: usize,
    /// `(workers, median_seconds)` per worker count.
    times: Vec<(usize, f64)>,
}

impl Scaling {
    fn speedup(&self, workers: usize) -> f64 {
        let base = self.times[0].1;
        let t = self
            .times
            .iter()
            .find(|&&(w, _)| w == workers)
            .map(|&(_, t)| t)
            .unwrap_or(base);
        base / t.max(1e-12)
    }

    /// Scheduling overhead per task: the extra wall-clock of the
    /// 2-worker run over the 1-worker run, amortized over tasks. On a
    /// single-core machine this is the full cost of the pool machinery.
    fn per_task_overhead_seconds(&self) -> f64 {
        let base = self.times[0].1;
        let two = self.times.get(1).map(|&(_, t)| t).unwrap_or(base);
        ((two - base) / self.tasks.max(1) as f64).max(0.0)
    }

    fn to_json(&self) -> String {
        let times: Vec<String> = self
            .times
            .iter()
            .map(|&(w, t)| {
                format!(
                    "{{\"workers\":{w},\"seconds\":{t:.9},\"speedup\":{:.4}}}",
                    self.speedup(w)
                )
            })
            .collect();
        format!(
            "{{\"name\":\"{}\",\"tasks\":{},\"per_task_overhead_seconds\":{:.9},\"runs\":[{}]}}",
            self.name,
            self.tasks,
            self.per_task_overhead_seconds(),
            times.join(",")
        )
    }

    fn print(&self) {
        for &(w, t) in &self.times {
            println!(
                "{:<40} workers={w} time: {:>10.3} ms  speedup: {:.2}x",
                self.name,
                t * 1e3,
                self.speedup(w)
            );
        }
        println!(
            "{:<40} per-task overhead: {:.2} µs",
            self.name,
            self.per_task_overhead_seconds() * 1e6
        );
    }
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

fn bench_batched_inference(run: &TaskRun) -> Scaling {
    let records = &run.test_records;
    let batch = 16usize;
    let tasks = records.len().div_ceil(batch);
    let times = WORKER_COUNTS
        .iter()
        .map(|&w| {
            let pool = Pool::new(w);
            (
                w,
                time_median(7, || {
                    score_records_lane_with(&run.model, records, batch, InferenceLane::Exact, &pool)
                }),
            )
        })
        .collect();
    Scaling {
        name: format!("score_records_{}rec_batch{batch}", records.len()),
        tasks,
        times,
    }
}

fn bench_multi_stream(run: &TaskRun) -> Scaling {
    let lanes = || -> Vec<StreamLane> {
        (0..4usize)
            .map(|stream_id| StreamLane {
                stream_id,
                predictor: OnlinePredictor::new(
                    run.model.clone(),
                    run.state.clone(),
                    Strategy::Ehcr { c: 0.9, alpha: 0.5 },
                ),
                features: run.features.clone(),
                from: run.window + stream_id * 16,
            })
            .collect()
    };
    let times = WORKER_COUNTS
        .iter()
        .map(|&w| {
            let pool = Pool::new(w);
            (w, time_median(5, || run_lanes(lanes(), &pool)))
        })
        .collect();
    Scaling {
        name: "run_lanes_4streams".into(),
        tasks: 4,
        times,
    }
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("parallel scaling benchmarks ({cores} cores available)\n");

    let run = quick_run();
    let results = [bench_batched_inference(&run), bench_multi_stream(&run)];
    for r in &results {
        r.print();
        println!();
    }

    let body: Vec<String> = results.iter().map(Scaling::to_json).collect();
    let json = format!(
        "{{\"cores\":{cores},\"worker_counts\":[1,2,4,8],\"benchmarks\":[{}]}}\n",
        body.join(",")
    );
    // Anchor at the workspace root (two levels above this crate) so the
    // JSON lands next to the committed results/*.tsv tables regardless
    // of where cargo was invoked.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let path = root.join("results").join("parallel_benches.json");
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

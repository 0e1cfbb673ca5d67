//! Telemetry overhead benchmarks: the online predictor's `push_frame`
//! hot path with no recorder, a disabled recorder, and a live wall-clock
//! recorder (the numbers quoted in DESIGN.md §8), plus micro-benchmarks
//! of the raw recorder operations.

use eventhit_rng::bench::Criterion;
use eventhit_rng::{bench_group, bench_main};
use std::hint::black_box;
use std::sync::Arc;

use eventhit_core::experiment::{ExperimentConfig, TaskRun};
use eventhit_core::pipeline::Strategy;
use eventhit_core::streaming::OnlinePredictor;
use eventhit_core::tasks::task;
use eventhit_core::train::TrainConfig;
use eventhit_telemetry::Telemetry;

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

fn predictor(run: TaskRun) -> OnlinePredictor {
    OnlinePredictor::new(run.model, run.state, Strategy::Ehcr { c: 0.9, alpha: 0.9 })
}

const FRAMES_PER_ITER: usize = 256;

/// Pushes `FRAMES_PER_ITER` frames through the predictor, cycling over
/// the run's feature rows.
fn drive(p: &mut OnlinePredictor, features: &eventhit_nn::matrix::Matrix) -> usize {
    let mut decisions = 0;
    for i in 0..FRAMES_PER_ITER {
        let r = i % features.rows();
        if p.push_frame(features.row(r)).is_some() {
            decisions += 1;
        }
    }
    decisions
}

fn bench_push_frame_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(20);
    group.throughput(eventhit_rng::bench::Throughput::Elements(
        FRAMES_PER_ITER as u64,
    ));

    // Baseline: no recorder attached — the hot path's natural cost.
    let run = quick_run();
    let features = run.features.clone();
    let mut plain = predictor(run);
    group.bench_function("push_frame_no_telemetry", |b| {
        b.iter(|| black_box(drive(&mut plain, &features)))
    });

    // Disabled recorder: every record call is a single enabled-flag check.
    let run = quick_run();
    let features = run.features.clone();
    let mut off = predictor(run);
    off.set_telemetry(Arc::new(Telemetry::disabled()));
    group.bench_function("push_frame_disabled_recorder", |b| {
        b.iter(|| black_box(drive(&mut off, &features)))
    });

    // Live wall-clock recorder: mutex + BTreeMap counter bumps per frame,
    // histogram observe + gauge per decision.
    let run = quick_run();
    let features = run.features.clone();
    let mut on = predictor(run);
    on.set_telemetry(Arc::new(Telemetry::new()));
    group.bench_function("push_frame_live_recorder", |b| {
        b.iter(|| black_box(drive(&mut on, &features)))
    });

    group.finish();
}

fn bench_recorder_ops(c: &mut Criterion) {
    let tel = Telemetry::new();
    let mut group = c.benchmark_group("telemetry_ops");
    group.sample_size(50);
    group.bench_function("counter_add", |b| {
        b.iter(|| tel.add(black_box("bench.counter"), black_box(1)))
    });
    group.bench_function("hist_observe", |b| {
        b.iter(|| tel.observe(black_box("bench.hist"), black_box(0.0125)))
    });
    // Fresh recorder per iteration so the trace never hits the span cap
    // (a capped recorder hands out inert guards, which would understate
    // the cost); 1024 spans amortise the recorder's construction.
    group.bench_function("span_open_close_x1024", |b| {
        b.iter(|| {
            let t = Telemetry::new();
            for _ in 0..1024 {
                black_box(t.span("bench.span"));
            }
        })
    });
    group.finish();
}

bench_group!(benches, bench_push_frame_overhead, bench_recorder_ops);
bench_main!(benches);

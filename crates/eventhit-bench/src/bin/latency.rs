//! Detection-latency experiment (beyond the paper): feed each algorithm's
//! relay segments through the CI's FIFO queue and measure how long a
//! relayed frame waits for its verdict. The paper's FPS metric (Fig. 9) is
//! a throughput average; this shows the queueing consequence — brute force
//! doesn't just cost more, it falls behind a live stream.
//!
//! ```text
//! cargo run --release -p eventhit-bench --bin latency [--scale F] [--task TAi]
//! ```

use eventhit_bench::{f, tsv_header, CommonArgs};
use eventhit_core::ci_queue::{simulate, submissions_from_segments, QueueConfig};
use eventhit_core::experiment::TaskRun;
use eventhit_core::pipeline::Strategy;
use eventhit_telemetry::Telemetry;

fn main() {
    let args = CommonArgs::parse();
    let qcfg = QueueConfig::default();
    println!(
        "# Detection latency through the CI queue (stream {} fps, CI {} fps)",
        qcfg.stream_fps, qcfg.ci.fps
    );
    println!("# scale={} seed={}", args.scale, args.seed);
    tsv_header(&[
        "task",
        "algorithm",
        "REC",
        "mean_latency_s",
        "p95_latency_s",
        "max_backlog_frames",
        "utilization",
    ]);

    for task in args.tasks_or(&["TA10", "TA11"]) {
        let run = TaskRun::execute(&task, &args.config(0));

        // A deployment predicts once per horizon; the test split's anchors
        // overlap (stride < H), so keep only non-overlapping horizons.
        let mut keep = Vec::new();
        let mut next_anchor = 0u64;
        for (i, rec) in run.test.iter().enumerate() {
            if rec.anchor >= next_anchor {
                keep.push(i);
                next_anchor = rec.anchor + run.horizon as u64;
            }
        }
        let test: Vec<eventhit_core::infer::ScoredRecord> =
            keep.iter().map(|&i| run.test[i].clone()).collect();

        let evaluate = |name: &str, preds: Vec<Vec<eventhit_core::infer::IntervalPrediction>>| {
            let outcome = eventhit_core::metrics::evaluate(&preds, &test, run.horizon as u32);
            let segments: Vec<(u64, u64)> = preds
                .iter()
                .zip(&test)
                .flat_map(|(ps, rec)| {
                    ps.iter()
                        .filter(|p| p.present)
                        .map(move |p| (rec.anchor + p.start as u64, rec.anchor + p.end as u64))
                })
                .collect();
            let subs = submissions_from_segments(&segments);
            match simulate(&subs, &qcfg, &Telemetry::disabled()) {
                Some(r) => println!(
                    "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                    task.id,
                    name,
                    f(outcome.rec),
                    f(r.mean_latency),
                    f(r.p95_latency),
                    r.max_backlog_frames,
                    f(r.utilization)
                ),
                None => println!("{}\t{}\t{}\tNA\tNA\tNA\tNA", task.id, name, f(outcome.rec)),
            }
        };

        let predict = |s: &Strategy| -> Vec<Vec<eventhit_core::infer::IntervalPrediction>> {
            test.iter().map(|r| run.state.predict(r, s)).collect()
        };
        evaluate(
            "EHCR(c=0.95,a=0.9)",
            predict(&Strategy::Ehcr {
                c: 0.95,
                alpha: 0.9,
            }),
        );
        // Capacity-aware choice: the cheapest EHCR point reaching REC 0.9
        // (a deployment should pick the operating point that both meets the
        // recall target and keeps the queue stable).
        if let Some((s, _)) = eventhit_bench::ehcr_at_target_rec(std::slice::from_ref(&run), 0.9) {
            evaluate("EHCR@REC>=0.9", predict(&s));
        }
        evaluate("EHO", predict(&Strategy::Eho { tau1: 0.5 }));
        // Brute force: every horizon fully relayed.
        let bf: Vec<Vec<eventhit_core::infer::IntervalPrediction>> = test
            .iter()
            .map(|r| {
                vec![
                    eventhit_core::infer::IntervalPrediction {
                        present: true,
                        start: 1,
                        end: run.horizon as u32,
                    };
                    r.labels.len()
                ]
            })
            .collect();
        evaluate("BF", bf);
    }
    println!("# expectation: BF saturates the CI (utilization ~1, runaway latency);");
    println!("# EHCR keeps the queue drained with second-scale latency.");
}

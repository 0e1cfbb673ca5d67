//! Per-event breakdown of the multi-event tasks — the data behind the
//! paper's §VI.D observation that "the overall performance is bound by the
//! event with the worst performance".
//!
//! ```text
//! cargo run --release -p eventhit-bench --bin per_event [--scale F]
//! ```

use eventhit_bench::{f, tsv_header, CommonArgs};
use eventhit_core::experiment::TaskRun;
use eventhit_core::metrics::{existence_precision, try_evaluate_per_event};
use eventhit_core::pipeline::Strategy;

fn main() {
    let args = CommonArgs::parse();
    println!("# Per-event breakdown of multi-event tasks (EHO at tau=0.5)");
    println!("# scale={} seed={}", args.scale, args.seed);
    tsv_header(&[
        "task",
        "event",
        "REC",
        "SPL",
        "REC_c",
        "precision",
        "positives",
    ]);

    for task in args.tasks_or(&["TA7", "TA8", "TA9", "TA15", "TA16"]) {
        let run = TaskRun::execute(&task, &args.config(0));
        let preds = run.predictions(&Strategy::Eho { tau1: 0.5 });
        let per = try_evaluate_per_event(&preds, &run.test, run.horizon as u32)
            .expect("one prediction set per test record");
        let overall = run.evaluate(&Strategy::Eho { tau1: 0.5 });
        let precision = existence_precision(&preds, &run.test);

        for (k, o) in per.iter().enumerate() {
            println!(
                "{}\t{}\t{}\t{}\t{}\t-\t{}",
                task.id,
                task.events[k],
                f(o.rec),
                f(o.spl),
                f(o.rec_c),
                o.positives
            );
        }
        println!(
            "{}\toverall\t{}\t{}\t{}\t{}\t{}",
            task.id,
            f(overall.rec),
            f(overall.spl),
            f(overall.rec_c),
            f(precision),
            overall.positives
        );
        let worst = per.iter().map(|o| o.rec).fold(f64::INFINITY, f64::min);
        println!(
            "# {}: overall REC {} vs worst event {} — bounded by the worst event",
            task.id,
            f(overall.rec),
            f(worst)
        );
    }
}

//! Empirical validation of the conformal guarantees (Theorems 4.2 and 5.2)
//! on the actual EventHit pipeline: the test split plays the role of the
//! exchangeable new data.
//!
//! * Theorem 4.2: among records whose horizon truly contains the event, the
//!   fraction *not* flagged by C-CLASSIFY at confidence `c` must be ≤ 1-c
//!   (up to exchangeability violations from the temporal split and
//!   finite-sample noise).
//! * Theorem 5.2: among true positives, the true start (end) offset must
//!   fall within ±q̂ of the raw estimate with probability ≥ α.
//!
//! ```text
//! cargo run --release -p eventhit-bench --bin coverage [--task TA10] [--scale F]
//! ```

use eventhit_bench::{f, run_trials, tsv_header, CommonArgs};
use eventhit_core::metrics::{coverage, CoverageCounts};

/// Confidence levels `c` whose miss rate is reported.
const CS: [f64; 4] = [0.5, 0.7, 0.9, 0.95];
/// Coverage levels `α` whose endpoint coverage is reported.
const ALPHAS: [f64; 3] = [0.5, 0.8, 0.9];

fn main() {
    let args = CommonArgs::parse();
    println!("# Conformal coverage: empirical vs nominal (Theorems 4.2 / 5.2)");
    println!(
        "# scale={} seed={} trials={}",
        args.scale, args.seed, args.trials
    );
    tsv_header(&["task", "guarantee", "level", "nominal_bound", "empirical"]);

    for task in args.tasks_or(&["TA1", "TA10", "TA13"]) {
        let runs = run_trials(&task, &args);
        for run in &runs {
            // Pooled over the task's events.
            let counts: CoverageCounts = coverage(&run.state, &run.test, &CS, &ALPHAS)
                .into_iter()
                .sum();
            if counts.positives == 0 {
                continue;
            }
            // Theorem 4.2 — miss rate of C-CLASSIFY at confidence c.
            for (&c, &misses) in CS.iter().zip(&counts.misses) {
                println!(
                    "{}\tmiss_rate(c)\t{c}\t{}\t{}",
                    task.id,
                    f(1.0 - c),
                    f(counts.rate(misses))
                );
            }
            // Theorem 5.2 — start/end coverage of the ±q̂ band at level α.
            for (i, &alpha) in ALPHAS.iter().enumerate() {
                println!(
                    "{}\tstart_coverage(alpha)\t{alpha}\t{}\t{}",
                    task.id,
                    f(alpha),
                    f(counts.rate(counts.starts_covered[i]))
                );
                println!(
                    "{}\tend_coverage(alpha)\t{alpha}\t{}\t{}",
                    task.id,
                    f(alpha),
                    f(counts.rate(counts.ends_covered[i]))
                );
            }
        }
    }
    println!("# miss_rate should be <= the nominal bound; coverages should be >= alpha");
    println!("# (both up to finite-sample noise and the temporal-split");
    println!("# exchangeability approximation).");
}

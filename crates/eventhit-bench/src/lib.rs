//! # eventhit-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation section (see DESIGN.md §4 for the index). This library
//! holds the shared plumbing: CLI parsing, TSV output, multi-trial
//! averaging, and operating-point search.

#![forbid(unsafe_code)]

use eventhit_core::experiment::{grids, ExperimentConfig, TaskRun};
use eventhit_core::metrics::EvalOutcome;
use eventhit_core::pipeline::Strategy;
use eventhit_core::tasks::{task, Task};
use eventhit_parallel::Pool;

/// Command-line arguments shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Dataset scale factor (`--scale`, default 0.35).
    pub scale: f64,
    /// Master seed (`--seed`, default 1).
    pub seed: u64,
    /// Number of independent trials to average (`--trials`, default 2;
    /// the paper uses 10).
    pub trials: usize,
    /// Restrict to one task (`--task TA5`).
    pub task: Option<String>,
    /// Quick mode (`--quick`): tiny streams and models, for smoke runs.
    pub quick: bool,
}

impl Default for CommonArgs {
    fn default() -> Self {
        CommonArgs {
            scale: 0.35,
            seed: 1,
            trials: 2,
            task: None,
            quick: false,
        }
    }
}

impl CommonArgs {
    /// Parses `std::env::args()`; unknown flags abort with a usage message.
    pub fn parse() -> CommonArgs {
        let mut args = CommonArgs::default();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--scale" => args.scale = expect_value(&mut it, "--scale"),
                "--seed" => args.seed = expect_value(&mut it, "--seed"),
                "--trials" => args.trials = expect_value(&mut it, "--trials"),
                "--task" => {
                    args.task = Some(it.next().unwrap_or_else(|| usage("--task needs a value")))
                }
                "--quick" => args.quick = true,
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        args
    }

    /// The experiment configuration for trial `trial`.
    pub fn config(&self, trial: usize) -> ExperimentConfig {
        let seed = self.seed.wrapping_add(trial as u64 * 1000);
        if self.quick {
            ExperimentConfig::quick(seed)
        } else {
            ExperimentConfig {
                scale: self.scale,
                seed,
                ..Default::default()
            }
        }
    }

    /// Tasks to run: the one named by `--task`, or all of `default`.
    pub fn tasks_or(&self, default: &[&str]) -> Vec<Task> {
        match &self.task {
            Some(id) => vec![task(id).unwrap_or_else(|| usage(&format!("unknown task {id}")))],
            None => default
                .iter()
                .map(|id| task(id).expect("built-in task id"))
                .collect(),
        }
    }
}

fn expect_value<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a numeric value")))
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: <experiment> [--scale F] [--seed N] [--trials N] [--task TAi] [--quick]");
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

/// An averaged evaluation outcome across trials.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeanOutcome {
    /// Mean end-to-end recall.
    pub rec: f64,
    /// Mean spillage.
    pub spl: f64,
    /// Mean existence recall.
    pub rec_c: f64,
    /// Mean interval recall.
    pub rec_r: f64,
    /// Mean frames relayed.
    pub frames_relayed: f64,
    /// Number of trials averaged.
    pub trials: usize,
}

/// Averages outcomes across trials.
pub fn mean_outcome(outcomes: &[EvalOutcome]) -> MeanOutcome {
    let n = outcomes.len().max(1) as f64;
    MeanOutcome {
        rec: outcomes.iter().map(|o| o.rec).sum::<f64>() / n,
        spl: outcomes.iter().map(|o| o.spl).sum::<f64>() / n,
        rec_c: outcomes.iter().map(|o| o.rec_c).sum::<f64>() / n,
        rec_r: outcomes.iter().map(|o| o.rec_r).sum::<f64>() / n,
        frames_relayed: outcomes
            .iter()
            .map(|o| o.frames_relayed as f64)
            .sum::<f64>()
            / n,
        trials: outcomes.len(),
    }
}

/// Executes all trials of a task (at least one), one job each on the
/// ambient pool. The outer grain wins: beside other trials, a trial
/// trains at an ambient width of 1, so trials never multiply the thread
/// count; a lone trial runs inline at the full width.
pub fn run_trials(task: &Task, args: &CommonArgs) -> Vec<TaskRun> {
    let trials = (0..args.trials.max(1)).collect();
    Pool::current().run(trials, |trial| TaskRun::execute(task, &args.config(trial)))
}

/// Evaluates one strategy across trials and averages.
pub fn evaluate_trials(runs: &[TaskRun], strategy: &Strategy) -> MeanOutcome {
    let outcomes: Vec<EvalOutcome> = runs.iter().map(|r| r.evaluate(strategy)).collect();
    mean_outcome(&outcomes)
}

/// Finds the EHCR operating point with the smallest mean spillage whose
/// mean recall reaches `target` — the "SPL at REC ≥ x" quantity of Fig. 7
/// and the FPS/expense comparisons.
pub fn ehcr_at_target_rec(runs: &[TaskRun], target: f64) -> Option<(Strategy, MeanOutcome)> {
    grids::ehcr()
        .into_iter()
        .map(|s| (s, evaluate_trials(runs, &s)))
        .filter(|(_, o)| o.rec >= target)
        .min_by(|a, b| a.1.spl.total_cmp(&b.1.spl))
}

/// Prints a TSV header line prefixed with `#`.
pub fn tsv_header(cols: &[&str]) {
    println!("#{}", cols.join("\t"));
}

/// Formats a float with 4 decimals for TSV cells.
pub fn f(x: f64) -> String {
    format!("{x:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventhit_core::metrics::EvalOutcome;

    fn outcome(rec: f64, spl: f64) -> EvalOutcome {
        EvalOutcome {
            rec,
            spl,
            rec_c: rec,
            rec_r: rec,
            frames_relayed: 100,
            true_frames: 50,
            positives: 10,
            records: 20,
        }
    }

    #[test]
    fn mean_outcome_averages() {
        let m = mean_outcome(&[outcome(0.4, 0.1), outcome(0.6, 0.3)]);
        assert!((m.rec - 0.5).abs() < 1e-12);
        assert!((m.spl - 0.2).abs() < 1e-12);
        assert_eq!(m.trials, 2);
    }

    #[test]
    fn mean_outcome_empty_is_zero() {
        let m = mean_outcome(&[]);
        assert_eq!(m.rec, 0.0);
        assert_eq!(m.trials, 0);
    }

    #[test]
    fn default_args() {
        let a = CommonArgs::default();
        assert_eq!(a.trials, 2);
        assert!(a.task.is_none());
        let cfg = a.config(1);
        assert_eq!(cfg.seed, 1001);
    }

    #[test]
    fn quick_config_is_small() {
        let a = CommonArgs {
            quick: true,
            ..Default::default()
        };
        let cfg = a.config(0);
        assert!(cfg.scale < 0.2);
    }

    #[test]
    fn tasks_or_resolves_names() {
        let a = CommonArgs::default();
        let ts = a.tasks_or(&["TA1", "TA10"]);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[1].id, "TA10");
        let b = CommonArgs {
            task: Some("TA5".into()),
            ..Default::default()
        };
        assert_eq!(b.tasks_or(&["TA1"])[0].id, "TA5");
    }
}

//! `bench run` and `bench compare`: the whole benchmark in one command,
//! and two sets of its results held against the bounds.
//!
//! `run` starts one child process per workload and trace mode — exactly
//! the command the driver runs — so a workload's peak memory is its own,
//! the in-process workloads can pin the library's worker count, and what
//! the suite reports is what the driver will measure.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::host;
use crate::json::{self, Json};
use crate::loopback::out_dir;
use crate::spec::{self, Better};
use crate::stats;

/// Seconds a smoke run measures each workload for.
const SMOKE_SECONDS: f64 = 0.4;

/// What one child run printed: its result line and its detail line.
struct ChildResult {
    result: Json,
    detail: Json,
}

/// Runs one workload in a child process, echoing what it prints.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end; stderr goes straight through.
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines() {
        println!("  {line}");
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            u8::from(trace),
            output.status
        ));
    }
    let last = stdout.lines().last().unwrap_or("");
    let result = json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let detail = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("detail "))
        .map(json::parse)
        .transpose()
        .map_err(|e| format!("{workload}: bad detail line: {e}"))?
        .unwrap_or(Json::Obj(Vec::new()));
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{workload}: result line does not say correct"));
    }
    Ok(ChildResult { result, detail })
}

fn value_of(metrics: &Json, name: &str) -> Option<f64> {
    metrics.get(name)?.get("value")?.as_f64()
}

/// The value of `--key`, `default` when the flag is absent, `None` when
/// it does not parse.
fn flag<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Option<T> {
    flags.get(key).map_or(Some(default), |v| v.parse().ok())
}

/// `bench run`.
pub fn run(flags: &BTreeMap<String, String>) -> ExitCode {
    let smoke = flags.contains_key("smoke");
    let default_seconds = if smoke {
        SMOKE_SECONDS
    } else {
        spec::RUN_SECONDS as f64
    };
    let (Some(seed), Some(seconds), Some(repeat)) = (
        flag(flags, "seed", 7u64),
        flag(flags, "seconds", default_seconds),
        flag(flags, "repeat", 1u64),
    ) else {
        eprintln!("bench run: --seed, --seconds and --repeat take numbers");
        return ExitCode::from(2);
    };
    let dir = flags.get("out").map_or_else(out_dir, PathBuf::from);
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    for rep in 0..repeat {
        // Every repetition feeds other streams, like the driver's runs.
        let seed = seed + rep;
        match run_once(seed, seconds, smoke, &root) {
            Ok(result) => {
                let path = dir.join(format!("result-seed{seed}.json"));
                if let Err(e) = std::fs::create_dir_all(&dir)
                    .and_then(|()| std::fs::write(&path, result.render_pretty()))
                {
                    eprintln!("bench run: writing {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!("wrote {}", path.display());
            }
            Err(e) => {
                // No result file: a run that failed a check has no numbers.
                eprintln!("bench run: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Every workload, untraced then traced, as one result document.
fn run_once(seed: u64, seconds: f64, smoke: bool, root: &Path) -> Result<Json, String> {
    let mut workloads = Vec::new();
    let mut derived = Vec::new();
    for w in &spec::WORKLOADS {
        println!("== {} (untraced, seed {seed})", w.name);
        let plain = child(w.name, seed, seconds, false, smoke)?;
        println!("== {} (traced, seed {seed})", w.name);
        let traced = child(w.name, seed, seconds, true, smoke)?;
        let e2e = plain.result.get("metrics").cloned().unwrap_or(Json::Null);
        let layers = traced.result.get("metrics").cloned().unwrap_or(Json::Null);
        // Untraced over traced: what looking costs. No untraced metric
        // may move when only the traced side does.
        if let (Some(a), Some(b)) = (
            value_of(&e2e, "frames_per_s"),
            value_of(&layers, "telemetry.traced.frames_per_s"),
        ) {
            if w.name != "paced" && b > 0.0 {
                derived.push((
                    format!("telemetry.overhead_ratio.{}", w.name),
                    Json::Num(a / b),
                ));
            }
        }
        if let (Some(a), Some(b)) = (
            value_of(&e2e, "cpu_ns_per_frame"),
            value_of(&layers, "telemetry.traced.cpu_ns_per_frame"),
        ) {
            if a > 0.0 {
                derived.push((
                    format!("telemetry.cpu_overhead_ratio.{}", w.name),
                    Json::Num(b / a),
                ));
            }
        }
        // The ledger's sum against what the *untraced* run paid per frame
        // (the traced run's own reconciliation carries the recorder's
        // cost): busy cores x wall time per frame, one core in process.
        if let (Some(sum), Some(fps)) = (
            value_of(&layers, "ledger.sum_ns_per_frame"),
            value_of(&e2e, "frames_per_s"),
        ) {
            let cores = match w.name {
                "steady" | "durable" => plain.detail.get("connections").and_then(Json::as_f64),
                "paced" => None,
                _ => Some(1.0),
            };
            if let Some(cores) = cores.filter(|_| fps > 0.0) {
                derived.push((
                    format!("ledger.unattributed_share.untraced.{}", w.name),
                    Json::Num(1.0 - sum / (cores * 1e9 / fps)),
                ));
            }
        }
        let counts = |r: &Json| {
            Json::obj([
                (
                    "attempted",
                    r.get("attempted").cloned().unwrap_or(Json::Null),
                ),
                ("failed", r.get("failed").cloned().unwrap_or(Json::Null)),
            ])
        };
        workloads.push((
            w.name.to_string(),
            Json::obj([
                ("end_to_end", e2e),
                ("per_layer", layers),
                ("untraced", counts(&plain.result)),
                ("traced", counts(&traced.result)),
                ("untraced_detail", plain.detail),
                ("traced_detail", traced.detail),
            ]),
        ));
    }
    // The host block: the machine, then what the runs themselves found
    // out about how they were run.
    let from_detail = |workload: &str, key: &str| -> Json {
        workloads
            .iter()
            .find(|(name, _)| name == workload)
            .and_then(|(_, w)| w.get("untraced_detail")?.get(key).cloned())
            .unwrap_or(Json::Null)
    };
    let per_workload = |key: &str| {
        Json::Obj(
            spec::WORKLOADS
                .iter()
                .map(|w| (w.name.to_string(), from_detail(w.name, key)))
                .collect(),
        )
    };
    let mut host = host::host_block(root);
    if let Json::Obj(pairs) = &mut host {
        pairs.extend([
            ("seed".to_string(), Json::Num(seed as f64)),
            ("seconds".to_string(), Json::Num(seconds)),
            ("smoke".to_string(), Json::Bool(smoke)),
            (
                "connections".to_string(),
                from_detail("steady", "connections"),
            ),
            (
                "server_workers".to_string(),
                from_detail("steady", "server_workers"),
            ),
            (
                "eventhit_workers".to_string(),
                per_workload("eventhit_workers"),
            ),
            (
                "durable_fs_type".to_string(),
                from_detail("durable", "durable_fs_type"),
            ),
            (
                "measured_frames".to_string(),
                per_workload("measured_frames"),
            ),
            ("host_speed".to_string(), per_workload("host_speed")),
            (
                "paced_generator_lateness_p50_us".to_string(),
                from_detail("paced", "generator_lateness_p50_us"),
            ),
            (
                "paced_generator_lateness_p99_us".to_string(),
                from_detail("paced", "generator_lateness_p99_us"),
            ),
        ]);
    }
    let result = Json::obj([
        ("host", host),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        ("workloads", Json::Obj(workloads)),
        ("derived", Json::Obj(derived)),
    ]);
    print_summary(&result);
    Ok(result)
}

/// Every metric of a result by name with its unit, workload by workload.
fn print_summary(result: &Json) {
    println!("== summary");
    for (name, w) in result.get("workloads").map_or(&[][..], Json::members) {
        for section in ["end_to_end", "per_layer"] {
            for (metric, m) in w.get(section).map_or(&[][..], Json::members) {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                println!("{name:<13} {metric:<52} {value:>18.4} {unit}");
            }
        }
    }
    for (name, v) in result.get("derived").map_or(&[][..], Json::members) {
        println!(
            "{:<13} {name:<52} {:>18.4} ratio",
            "derived",
            v.as_f64().unwrap_or(0.0)
        );
    }
}

/// The result files an argument of `compare` names: the file itself, or
/// every `result-*.json` of a directory.
fn result_files(arg: &str) -> Result<Vec<PathBuf>, String> {
    let path = PathBuf::from(arg);
    if !path.is_dir() {
        return Ok(vec![path]);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(&path)
        .map_err(|e| format!("{arg}: {e}"))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("result-") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{arg}: no result-*.json files"));
    }
    Ok(files)
}

/// One side of a comparison: per (workload, metric), the median over the
/// set's result files.
fn load_set(arg: &str) -> Result<BTreeMap<(String, String), f64>, String> {
    let mut samples: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for file in result_files(arg)? {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        if doc.get("smoke") == Some(&Json::Bool(true)) {
            return Err(format!(
                "{} is a smoke run; its numbers are not measurements",
                file.display()
            ));
        }
        for (workload, w) in doc.get("workloads").map_or(&[][..], Json::members) {
            for (metric, m) in w.get("end_to_end").map_or(&[][..], Json::members) {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    samples
                        .entry((workload.clone(), metric.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(samples
        .into_iter()
        .map(|(k, v)| (k, stats::median(&v)))
        .collect())
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// it is better).
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// `bench compare A B`: each end-to-end metric's relative difference per
/// workload beside its bound; non-zero exit when any is outside it.
pub fn compare(a: &str, b: &str) -> ExitCode {
    let (a, b) = match (load_set(a), load_set(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench compare: {e}");
            return ExitCode::from(2);
        }
    };
    let metrics = spec::end_to_end();
    let mut outside = 0;
    println!(
        "{:<13} {:<18} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for w in &spec::WORKLOADS {
        for m in &metrics {
            let key = (w.name.to_string(), m.name.clone());
            let (Some(&va), Some(&vb)) = (a.get(&key), b.get(&key)) else {
                println!("{:<13} {:<18} missing from one side", w.name, m.name);
                outside += 1;
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let worse = worse_by(va, vb, m.better);
            let verdict = if worse > bound {
                outside += 1;
                "  OUTSIDE"
            } else {
                ""
            };
            println!(
                "{:<13} {:<18} {va:>16.4} {vb:>16.4} {:>8.2}% {:>6.0}%{verdict}",
                w.name,
                m.name,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    if outside > 0 {
        println!("{outside} metric(s) outside their bound");
        ExitCode::FAILURE
    } else {
        println!("every metric within its bound");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, Better::Lower) + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 120.0, Better::Higher) + 0.20).abs() < 1e-12);
    }
}

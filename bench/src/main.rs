//! EventHit's benchmark.
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! bench run [--seed <n>] [--seconds <s>] [--repeat <n>] [--smoke] [--out <dir>]
//! bench compare <a.json> <b.json>
//! bench spec
//! ```
//!
//! The first form is what the driver runs: one workload, one process.
//! It sets the system up, drives the workload for `--seconds`, checks
//! every output against the `run_lanes` oracle, prints each metric by
//! name with its unit, and ends with one line of JSON. Any failed check
//! exits non-zero before a single number is printed as a result.
//! `run` does that for every workload, untraced then traced, and writes
//! one result file per repetition; `compare` holds two result files
//! against the bounds; `spec` prints `BENCHMARK.json`.

mod calib;
mod fixture;
mod host;
mod inproc;
mod json;
mod ledger;
mod loopback;
mod pace;
mod paced;
mod report;
mod span;
mod spec;
mod stats;
mod suite;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use eventhit_core::{InferenceLane, SamplingPolicy};
use eventhit_serve::Server;
use eventhit_telemetry::Telemetry;

use crate::fixture::{Fixture, StreamIds, FAST_POLICY};
use crate::json::Json;
use crate::loopback::ClosedLoop;
use crate::report::{Plan, RunReport};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Runs of the host-speed kernel on each side of a set-up.
const SETUP_KERNELS: usize = 8;
/// Share of the run length the traced re-run of a closed-loop or
/// in-process workload measures for.
const TRACED_SHARE: f64 = 0.25;
/// Slabs timed at each worker count for `parallel.run_lanes.scaling`.
const SCALING_SLABS: u32 = 20;

/// Arguments of the single-workload form.
#[derive(Debug, Clone)]
pub struct WorkloadArgs {
    /// Workload name.
    pub workload: String,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
    /// Smoke run: one set-up, a short ledger.
    pub smoke: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n       \
         bench run [--seed <n>] [--seconds <s>] [--repeat <n>] [--smoke] [--out <dir>]\n       \
         bench compare <a.json> <b.json>\n       \
         bench spec",
        spec::WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs (and bare `--smoke`) into a map.
fn flags(args: &[String]) -> Option<BTreeMap<String, String>> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag.strip_prefix("--")?;
        let value = match name {
            "smoke" => "1".to_string(),
            _ => it.next()?.clone(),
        };
        out.insert(name.to_string(), value);
    }
    Some(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("spec") => match spec::check() {
            Ok(()) => {
                print!("{}", spec::benchmark_json().render_pretty());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench spec: {e}");
                ExitCode::FAILURE
            }
        },
        Some("compare") if args.len() == 3 => suite::compare(&args[1], &args[2]),
        Some("run") => match flags(&args[1..]) {
            Some(f) => suite::run(&f),
            None => usage(),
        },
        Some(first) if first.starts_with("--") => {
            let Some(f) = flags(&args) else {
                return usage();
            };
            let parsed = (|| {
                Some(WorkloadArgs {
                    workload: f.get("workload")?.clone(),
                    seed: f.get("seed")?.parse().ok()?,
                    seconds: f.get("seconds")?.parse().ok().filter(|s| *s > 0.0)?,
                    trace: match f.get("trace")?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return None,
                    },
                    smoke: f.contains_key("smoke"),
                })
            })();
            match parsed {
                Some(a) if spec::workload(&a.workload).is_some() => match run_workload(&a) {
                    Ok(()) => ExitCode::SUCCESS,
                    Err(e) => {
                        eprintln!("bench: {} failed: {e}", a.workload);
                        ExitCode::FAILURE
                    }
                },
                _ => usage(),
            }
        }
        _ => usage(),
    }
}

/// What set-up leaves behind for the run.
struct Ready {
    fix: Fixture,
    server: Option<Server>,
    durable_dir: Option<PathBuf>,
}

/// One complete set-up of `workload`: train, calibrate, evaluate, build
/// the feature pool and, for the serving workloads, bind the server.
fn set_up(workload: &str, telemetry: Option<Arc<Telemetry>>, rep: usize) -> Result<Ready, String> {
    let (lane, policy) = match workload {
        "inproc-fast" => (
            InferenceLane::Quantized,
            SamplingPolicy::parse(FAST_POLICY).expect("the fast policy parses"),
        ),
        _ => (InferenceLane::Exact, SamplingPolicy::Fixed),
    };
    let fix = Fixture::build(lane, policy);
    let durable_dir = (workload == "durable")
        .then(|| loopback::out_dir().join(format!("durable-{}-{rep}", std::process::id())));
    if let Some(dir) = &durable_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let server = match workload {
        "steady" | "durable" => Some(loopback::bind(&fix, 64, durable_dir.as_deref(), telemetry)),
        "paced" => Some(loopback::bind(&fix, 2 * paced::STREAMS, None, telemetry)),
        _ => None,
    }
    .transpose()
    .map_err(|e| format!("bind: {e}"))?;
    Ok(Ready {
        fix,
        server,
        durable_dir,
    })
}

/// Drives the workload once.
fn drive(
    workload: &str,
    ready: Ready,
    ids: StreamIds,
    plan: &Plan,
    traced: bool,
) -> Result<(Fixture, RunReport), String> {
    let Ready {
        fix,
        server,
        durable_dir,
    } = ready;
    let closed = |frames_per_stream, durable_dir| ClosedLoop {
        open_per_conn: 4,
        batch: 64,
        frames_per_stream,
        durable_dir,
    };
    let report = match (workload, server) {
        ("inproc-exact" | "inproc-fast", _) => inproc::run(&fix, ids, plan, traced),
        ("steady", Some(server)) => {
            loopback::run(&fix, ids, plan, traced, &closed(1 << 18, None), server)
        }
        ("durable", Some(server)) => loopback::run(
            &fix,
            ids,
            plan,
            traced,
            &closed(1 << 15, durable_dir.clone()),
            server,
        ),
        ("paced", Some(server)) => paced::run(&fix, ids, plan, traced, server),
        _ => Err(format!("no such workload: {workload}")),
    };
    if let Some(dir) = &durable_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok((fix, report?))
}

/// Which layers the workload's frames pass through, for the ledger.
fn usage_of(workload: &str) -> ledger::Usage {
    ledger::Usage {
        fast: workload == "inproc-fast",
        batch: match workload {
            "steady" | "durable" => Some(64),
            "paced" => Some(1),
            _ => None,
        },
        durable: workload == "durable",
    }
}

fn print_phases(report: &RunReport) {
    for p in &report.phases {
        println!(
            "phase {:<12} attempted {:>10} succeeded {:>10} failed {}",
            p.name,
            p.attempted,
            p.attempted - p.failed,
            p.failed
        );
    }
}

/// The `metrics` member of the result line: every declared metric in
/// declaration order, `{name: {"value": v, "unit": u}}`. A per-layer
/// metric the workload does not exercise reads 0 (adding 0.0 turns the
/// -0.0 an empty float sum yields into plain 0).
fn metrics_json(declared: &[spec::Metric], values: &BTreeMap<String, f64>) -> Json {
    Json::Obj(
        declared
            .iter()
            .map(|m| {
                let value = values.get(&m.name).copied().unwrap_or(0.0) + 0.0;
                (
                    m.name.clone(),
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    )
}

/// The last line of standard output: the result object of the contract.
fn print_result(report: &RunReport, metrics: Json) {
    let line = Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(report.attempted().max(1) as f64)),
        ("failed", Json::Num(report.failed() as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
}

fn run_workload(args: &WorkloadArgs) -> Result<(), String> {
    // The in-process workloads are the single-threaded baseline: pin the
    // library's ambient pools to one worker before anything resolves them.
    let inproc = args.workload.starts_with("inproc-");
    if inproc {
        std::env::set_var("EVENTHIT_WORKERS", "1");
    }
    println!(
        "workload {} seed {} seconds {} trace {} smoke {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        host::nproc()
    );
    let ids = StreamIds::from_seed(args.seed);
    let plan = Plan::for_seconds(args.seconds);
    if args.trace {
        traced_run(args, ids, &plan)
    } else {
        untraced_run(args, ids, &plan)
    }
}

fn untraced_run(args: &WorkloadArgs, ids: StreamIds, plan: &Plan) -> Result<(), String> {
    let reps = if args.smoke { 1 } else { SETUP_REPS };
    let (mut setups, mut setups_raw) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    let mut ready = None;
    for rep in 0..reps {
        // Each repetition is a complete set-up; the last one is kept.
        if let Some(Ready {
            server,
            durable_dir: Some(dir),
            ..
        }) = ready.take()
        {
            drop(server);
            let _ = std::fs::remove_dir_all(dir);
        }
        // Set-up is all CPU work, so like every CPU-bound timing it is
        // restated at the reference host speed, read off the yardstick
        // just before and just after.
        let mut kernel: Vec<f64> = (0..SETUP_KERNELS).map(|_| calib::kernel()).collect();
        let t0 = Instant::now();
        ready = Some(set_up(&args.workload, None, rep)?);
        let raw = t0.elapsed().as_secs_f64();
        kernel.extend((0..SETUP_KERNELS).map(|_| calib::kernel()));
        setups_raw.push(raw);
        setups.push(raw * calib::speed_index(&kernel));
    }
    let ready = ready.expect("at least one set-up");
    if !ready.fix.miss_rate_within_contract() {
        return Err(format!(
            "conformal contract broken: miss rate {:.4} on {} positives exceeds 1 - c + {}",
            1.0 - ready.fix.rec_c,
            ready.fix.positives,
            fixture::MISS_SLACK
        ));
    }
    let rss_reset = host::reset_peak_rss();
    let (fix, report) = drive(&args.workload, ready, ids, plan, false)?;
    let t = report::timings(&report);

    print_phases(&report);
    let setup_s = stats::median(&setups);
    let values: BTreeMap<String, f64> = [
        ("setup_s", setup_s),
        ("frames_per_s", t.frames_per_s.value),
        ("cpu_ns_per_frame", t.cpu_ns_per_frame.value),
        ("latency_p50_us", t.latency_p50_us.value),
        ("peak_rss_mb", report.peak_rss_mb),
        ("rec_c", fix.rec_c),
        ("relay_share", fix.relay_share),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .collect();

    println!(
        "setup_s          {setup_s:.4} s   (median of {reps} at the reference host speed; as the clock read them: {})",
        setups_raw
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let beside = |r: &report::Reduced| {
        format!(
            "quartile spread {:.2}%; as the clock read it {:.2}, spread {:.2}%",
            r.spread * 100.0,
            r.raw,
            r.raw_spread * 100.0
        )
    };
    println!(
        "frames_per_s     {:.1} frames/s   (median of {} segments at the reference host speed, {})",
        t.frames_per_s.value,
        t.segments,
        beside(&t.frames_per_s)
    );
    println!(
        "cpu_ns_per_frame {:.2} ns   (likewise, {}; generator included)",
        t.cpu_ns_per_frame.value,
        beside(&t.cpu_ns_per_frame)
    );
    println!(
        "latency_p50_us   {:.2} us   (likewise, of the segment medians, {}; {} samples)",
        t.latency_p50_us.value,
        beside(&t.latency_p50_us),
        t.latency_samples
    );
    println!(
        "host             speed {:.3} of the reference, {:.0}% of the segment on CPU (medians over the segments)",
        t.host_speed,
        t.cpu_share * 100.0
    );
    println!(
        "latency_p99_us   {:.2} us   (whole run, as the clock read it, not gated)",
        t.latency_p99_us
    );
    if let Some((p, v)) = t.latency_tail {
        println!(
            "latency_tail     {v:.2} us   (p{}, the highest percentile with >= {} samples beyond it)",
            p * 100.0,
            stats::TAIL_SAMPLES
        );
    }
    println!(
        "peak_rss_mb      {:.2} MiB   (VmHWM{})",
        report.peak_rss_mb,
        if rss_reset {
            ", reset after set-up"
        } else {
            ", set-up included"
        }
    );
    println!(
        "rec_c            {:.6} ratio   (miss rate {:.4} on {} positives, contract <= {:.4})",
        fix.rec_c,
        1.0 - fix.rec_c,
        fix.positives,
        1.0 - fixture::CONFIDENCE + fixture::MISS_SLACK
    );
    println!("relay_share      {:.6} ratio", fix.relay_share);
    let e2e = spec::end_to_end();
    if let Some(m) = e2e.iter().find(|m| {
        !values
            .get(&m.name)
            .is_some_and(|v| *v > 0.0 && v.is_finite())
    }) {
        return Err(format!(
            "end-to-end metric {} is missing, zero or not finite",
            m.name
        ));
    }

    let mut detail = report.detail.clone();
    detail.extend([
        (
            "measured_frames".to_string(),
            Json::Num(report.measured_frames() as f64),
        ),
        ("latency_p99_us".to_string(), Json::Num(t.latency_p99_us)),
        ("host_speed".to_string(), Json::Num(t.host_speed)),
        (
            "raw_setup_s".to_string(),
            Json::Num(stats::median(&setups_raw)),
        ),
        ("cpu_share".to_string(), Json::Num(t.cpu_share)),
        (
            "raw_frames_per_s".to_string(),
            Json::Num(t.frames_per_s.raw),
        ),
        (
            "raw_cpu_ns_per_frame".to_string(),
            Json::Num(t.cpu_ns_per_frame.raw),
        ),
        (
            "raw_latency_p50_us".to_string(),
            Json::Num(t.latency_p50_us.raw),
        ),
        ("rss_reset".to_string(), Json::Bool(rss_reset)),
        (
            "eventhit_workers".to_string(),
            std::env::var("EVENTHIT_WORKERS").map_or(Json::Null, Json::Str),
        ),
    ]);
    println!("detail {}", Json::Obj(detail).render());
    print_result(&report, metrics_json(&e2e, &values));
    Ok(())
}

fn traced_run(args: &WorkloadArgs, ids: StreamIds, plan: &Plan) -> Result<(), String> {
    let recorder = Arc::new(Telemetry::new());
    let ready = set_up(&args.workload, Some(recorder), 0)?;
    let conns = loopback::connections();
    // The open loop spends its time on the ladder; the others re-run a
    // quarter of the untraced length under the recorder.
    let traced_plan = if args.workload == "paced" {
        *plan
    } else {
        plan.scaled(TRACED_SHARE)
    };
    let (fix, mut report) = drive(&args.workload, ready, ids, &traced_plan, true)?;
    let t = report::timings(&report);
    print_phases(&report);

    let usage = usage_of(&args.workload);
    let ledger_dir = usage
        .durable
        .then(|| loopback::out_dir().join(format!("ledger-{}", std::process::id())));
    let anchors = if args.smoke {
        ledger::ANCHORS / 20
    } else {
        ledger::ANCHORS
    };
    let mut layer = ledger::pass(
        &fix,
        ids.id(0),
        anchors,
        usage,
        ledger_dir.as_deref(),
        &mut report.spans,
    )?;
    layer.extend(std::mem::take(&mut report.layer));

    let slabs = if args.smoke { 4 } else { SCALING_SLABS };
    layer.insert(
        "parallel.run_lanes.scaling".into(),
        inproc::scaling(&fix, ids, slabs),
    );

    layer.insert("telemetry.traced.frames_per_s".into(), t.frames_per_s.value);
    layer.insert(
        "telemetry.traced.cpu_ns_per_frame".into(),
        t.cpu_ns_per_frame.value,
    );
    layer.insert(
        "telemetry.traced.latency_p50_us".into(),
        t.latency_p50_us.value,
    );
    layer.insert("telemetry.traced.latency_p99_us".into(), t.latency_p99_us);

    // Harness spans around the client calls: self time per frame.
    let self_times = report.spans.self_times();
    if let (Some(submit), Some(batch)) = (self_times.get("serve.client.submit"), usage.batch) {
        let frames = (submit.count * batch as u64).max(1) as f64;
        layer.insert(
            "serve.client.submit.self_ns_per_frame".into(),
            submit.self_ns as f64 / frames,
        );
        let gen = self_times
            .get("serve.client.gen_rows")
            .map_or(0, |s| s.self_ns);
        layer.insert(
            "serve.client.gen_rows.self_ns_per_frame".into(),
            gen as f64 / frames,
        );
    }

    // Reconciliation: the ledger's sum against what the traced run paid
    // per frame. Closed loops: busy cores x wall time per frame (the
    // connections keep that many cores busy). The open loop idles
    // between frames, so its wall time per frame is the schedule, not a
    // cost: CPU time per frame stands in.
    let measured = match args.workload.as_str() {
        "paced" => t.cpu_ns_per_frame.value,
        "steady" | "durable" => conns as f64 * 1e9 / t.frames_per_s.value.max(1e-9),
        _ => 1e9 / t.frames_per_s.value.max(1e-9),
    };
    let sum = layer.get("ledger.sum_ns_per_frame").copied().unwrap_or(0.0);
    layer.insert("ledger.measured_ns_per_frame".into(), measured);
    layer.insert(
        "ledger.unattributed_share".into(),
        if measured > 0.0 {
            1.0 - sum / measured
        } else {
            0.0
        },
    );

    let trace_path = loopback::out_dir().join(format!("trace-{}.jsonl", args.workload));
    report
        .spans
        .write_jsonl(&trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    println!(
        "spans {} written to {}",
        report.spans.len(),
        trace_path.display()
    );
    println!("span self times (name, count, total ms, self ms):");
    for (name, st) in &self_times {
        println!(
            "  {name:<44} {:>9} {:>12.3} {:>12.3}",
            st.count,
            st.total_ns as f64 / 1e6,
            st.self_ns as f64 / 1e6
        );
    }

    let declared = spec::per_layer();
    let unknown: Vec<&String> = layer
        .keys()
        .filter(|k| !declared.iter().any(|m| &m.name == *k))
        .collect();
    if !unknown.is_empty() {
        return Err(format!(
            "per-layer metrics not declared in spec.rs: {unknown:?}"
        ));
    }
    for m in &declared {
        let value = layer.get(&m.name).copied().unwrap_or(0.0) + 0.0;
        println!("{:<52} {value:>16.4} {}", m.name, m.unit);
    }
    println!("detail {}", Json::Obj(report.detail.clone()).render());
    print_result(&report, metrics_json(&declared, &layer));
    Ok(())
}

//! The benchmark's contract in one place: workload names and reasons,
//! every metric with its unit, direction and regression bound. The root
//! `BENCHMARK.json` is this module rendered (`bench spec`), and a test
//! keeps the two identical.

use crate::json::Json;

/// How long one driver run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;

/// The command the driver runs from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "bench/Cargo.toml",
    "--",
];

/// Directories the benchmark owns.
pub const PATHS: [&str; 1] = ["bench"];

/// A workload: a permanent name and the reason it exists.
pub struct Workload {
    /// Permanent name.
    pub name: &'static str,
    /// One line on why it was chosen.
    pub why: &'static str,
}

/// The five workloads.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "inproc-exact",
        why: "run_lanes on the exact f32 lane, fixed sampling, 1 worker, no sockets: the paper's predictor FPS and the single-threaded baseline; window assembly, the encoder and conformal do all the work",
    },
    Workload {
        name: "inproc-fast",
        why: "the same job on the int8 lane with adaptive:0:2 sampling: the two shipped fast paths; a kernel or gate change that helps f32 but hurts int8 shows here and not on inproc-exact",
    },
    Workload {
        name: "steady",
        why: "loopback closed loop, 2 connections x 4 open streams, 64-frame submits, not durable: the serving headline; protocol decode and copies share the time with the predictor",
    },
    Workload {
        name: "durable",
        why: "steady with the session log on the repo's filesystem, then a re-bind and Resume: one sync_data per event under the hub mutex dominates; group commit should move this and nothing else",
    },
    Workload {
        name: "paced",
        why: "loopback open loop on one core, 256 open streams, one frame per submit at 20k frames/s, timed from due time: how cameras arrive; per-message syscall, decode and reply cost dominate, not the encoder",
    },
];

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the contract.
pub struct Metric {
    /// Name, `[A-Za-z0-9][A-Za-z0-9_.-]*`, at most 64 characters.
    pub name: String,
    /// Unit, at most 16 characters.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change is rejected.
    pub bound: Option<f64>,
}

fn metric(name: &str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        bound: None,
    }
}

/// The end-to-end metrics, every one reported by every workload with
/// tracing off. None of them is ever zero.
pub fn end_to_end() -> Vec<Metric> {
    use Better::{Higher, Lower};
    [
        ("setup_s", "s", Lower, 0.25),
        ("frames_per_s", "frames/s", Higher, 0.25),
        ("cpu_ns_per_frame", "ns", Lower, 0.25),
        ("latency_p50_us", "us", Lower, 0.25),
        ("peak_rss_mb", "MiB", Lower, 0.15),
        ("rec_c", "ratio", Higher, 0.01),
        ("relay_share", "ratio", Lower, 0.01),
    ]
    .into_iter()
    .map(|(name, unit, better, bound)| Metric {
        bound: Some(bound),
        ..metric(name, unit, better)
    })
    .collect()
}

/// The server stages read back over `MetricsQuery` in the traced run.
pub const SERVER_STAGES: [&str; 5] = [
    "session_read",
    "queue_wait",
    "reply_write",
    "durable_commit",
    "decision",
];

/// The offered rates of the `paced` ladder, in frames per second.
pub const PACED_RATES: [u32; 5] = [20_000, 40_000, 60_000, 80_000, 100_000];

/// The rate the untraced `paced` run offers.
pub const PACED_BASE_RATE: u32 = PACED_RATES[0];

/// Layers whose per-frame cost the ledger composes.
pub const LEDGER_LAYERS: [&str; 7] = [
    "core_sampling",
    "video_online",
    "core_infer",
    "conformal",
    "serve_protocol",
    "serve_admission",
    "durable",
];

/// The per-layer metrics, every one reported by every workload with
/// tracing on. A metric a workload does not exercise reads 0 there.
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut out = vec![
        // serve.protocol — the pure codec, single thread.
        metric("serve.protocol.encode_submit.b64.ns_per_frame", "ns", Lower),
        metric("serve.protocol.decode_submit.b64.ns_per_frame", "ns", Lower),
        metric("serve.protocol.encode_submit.b1.ns_per_frame", "ns", Lower),
        metric("serve.protocol.decode_submit.b1.ns_per_frame", "ns", Lower),
        metric(
            "serve.protocol.encode_decisions.ns_per_decision",
            "ns",
            Lower,
        ),
        metric(
            "serve.protocol.decode_decisions.ns_per_decision",
            "ns",
            Lower,
        ),
        metric("serve.protocol.wire_bytes_per_frame.b64", "B", Lower),
        metric("serve.protocol.wire_bytes_per_frame.b1", "B", Lower),
    ];
    // serve.server — the server's own series and counters.
    for stage in SERVER_STAGES {
        out.push(metric(
            &format!("serve.server.{stage}.count"),
            "count",
            Lower,
        ));
        out.push(metric(&format!("serve.server.{stage}.sum_s"), "s", Lower));
        out.push(metric(&format!("serve.server.{stage}.p50_us"), "us", Lower));
        out.push(metric(&format!("serve.server.{stage}.p99_us"), "us", Lower));
    }
    out.extend([
        metric("serve.server.frames", "count", Higher),
        metric("serve.server.decisions", "count", Higher),
        metric("serve.server.rejected", "count", Lower),
        metric("serve.server.io_ns_per_frame", "ns", Lower),
        // serve.client — harness spans around the client calls.
        metric("serve.client.connect.us", "us", Lower),
        metric("serve.client.open_stream.p50_us", "us", Lower),
        metric("serve.client.close_stream.p50_us", "us", Lower),
        metric("serve.client.submit.self_ns_per_frame", "ns", Lower),
        metric("serve.client.gen_rows.self_ns_per_frame", "ns", Lower),
        // serve.admission / router / convert.
        metric("serve.admission.try_admit_release.ns_per_call", "ns", Lower),
        metric("serve.admission.frame_queue.ns_per_frame", "ns", Lower),
        metric("serve.router.route.ns_per_call", "ns", Lower),
        metric(
            "serve.convert.decision_to_wire.ns_per_decision",
            "ns",
            Lower,
        ),
        // core.sampling.
        metric("core.sampling.admit.fixed.ns_per_frame", "ns", Lower),
        metric("core.sampling.admit.gated.ns_per_frame", "ns", Lower),
        metric("core.sampling.window_drift.ns_per_call", "ns", Lower),
        metric("core.sampling.skip_share", "ratio", Higher),
        metric("core.sampling.carried_share", "ratio", Higher),
        metric("core.sampling.window_len.median", "count", Lower),
        // video.online.
        metric("video.online.window_push.ns_per_frame", "ns", Lower),
        metric("video.online.covariates_last.ns_per_anchor", "ns", Lower),
        // core.streaming — the cross-check for the rows around it.
        metric(
            "core.streaming.push_frame.nonanchor.ns_per_frame",
            "ns",
            Lower,
        ),
        metric("core.streaming.push_frame.anchor.us", "us", Lower),
        // core.infer + nn.
        metric("core.infer.score_one.exact.us_per_anchor", "us", Lower),
        metric("core.infer.score_one.int8.us_per_anchor", "us", Lower),
        metric(
            "core.infer.score_one.int8_adaptive.us_per_anchor",
            "us",
            Lower,
        ),
        metric("core.infer.macs_per_anchor", "count", Lower),
        metric("core.infer.weight_bytes", "B", Lower),
        // conformal.
        metric("conformal.predict.ns_per_decision", "ns", Lower),
        // durable.
        metric("durable.append.frames_pushed.us_per_call", "us", Lower),
        metric("durable.append.decision.us_per_call", "us", Lower),
        metric("durable.appends_per_frame", "count", Lower),
        metric("durable.log_bytes_per_frame", "B", Lower),
        metric("durable.snapshot_write.ms", "ms", Lower),
        metric("durable.recovery_s", "s", Lower),
        metric("durable.replay.events_per_s", "1/s", Higher),
        // parallel.
        metric("parallel.run_lanes.scaling", "ratio", Higher),
        // telemetry — the traced run's own end-to-end numbers; the suite
        // divides the untraced ones by them for the overhead ratio.
        metric("telemetry.traced.frames_per_s", "frames/s", Higher),
        metric("telemetry.traced.cpu_ns_per_frame", "ns", Lower),
        metric("telemetry.traced.latency_p50_us", "us", Lower),
        metric("telemetry.traced.latency_p99_us", "us", Lower),
        metric("telemetry.metrics_query.ms", "ms", Lower),
        // ledger — the reconciliation of layer sums with the end-to-end.
        metric("ledger.predictor_sum_ns_per_frame", "ns", Lower),
        metric("ledger.push_frame_ns_per_frame", "ns", Lower),
        metric("ledger.sum_ns_per_frame", "ns", Lower),
        metric("ledger.measured_ns_per_frame", "ns", Lower),
        metric("ledger.unattributed_share", "ratio", Lower),
        metric("ledger.host_speed", "ratio", Higher),
    ]);
    for layer in LEDGER_LAYERS {
        out.push(metric(&format!("ledger.share.{layer}"), "ratio", Lower));
    }
    // paced — the rate ladder and the generator's own lateness.
    out.extend([
        metric("paced.sustained_rate", "frames/s", Higher),
        metric("paced.latency_p999_us", "us", Lower),
        metric("paced.lateness_p50_us", "us", Lower),
        metric("paced.lateness_p99_us", "us", Lower),
    ]);
    for rate in PACED_RATES {
        let k = rate / 1000;
        out.push(metric(&format!("paced.step{k}k.p99_us"), "us", Lower));
        out.push(metric(&format!("paced.step{k}k.unsent"), "count", Lower));
    }
    out
}

/// Whether `name` is a legal metric or workload name: starts with a
/// letter or digit, then letters, digits, `_`, `.`, `-`; 1 to 64 long.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: letters, digits, `_ / % . -`; 1 to 16.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Holds the declarations above against the limits of the contract:
/// legal names and units, each name used once, bounds in `(0, 0.25]`, a
/// `setup_s`, and the counts allowed. `bench spec` refuses to print a
/// `BENCHMARK.json` that would be refused.
pub fn check() -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    let mut once = |name: &str| -> Result<(), String> {
        if !valid_name(name) {
            return Err(format!("illegal name {name:?}"));
        }
        if !seen.insert(name.to_string()) {
            return Err(format!("name {name:?} is used twice"));
        }
        Ok(())
    };
    for w in &WORKLOADS {
        once(w.name)?;
        if w.why.len() > 200 || w.why.contains('\n') {
            return Err(format!(
                "the why of {} is not one line of at most 200 characters",
                w.name
            ));
        }
    }
    let (e2e, layers) = (end_to_end(), per_layer());
    if !(1..=16).contains(&e2e.len()) || !(1..=128).contains(&layers.len()) {
        return Err(format!(
            "{} end-to-end and {} per-layer metrics",
            e2e.len(),
            layers.len()
        ));
    }
    for m in e2e.iter().chain(&layers) {
        once(&m.name)?;
        if !valid_unit(m.unit) {
            return Err(format!("illegal unit {:?} on {}", m.unit, m.name));
        }
    }
    for m in &e2e {
        match m.bound {
            Some(b) if b > 0.0 && b <= 0.25 => {}
            other => return Err(format!("{} has bound {other:?}", m.name)),
        }
    }
    if let Some(m) = layers.iter().find(|m| m.bound.is_some()) {
        return Err(format!("per-layer metric {} carries a bound", m.name));
    }
    match e2e.iter().find(|m| m.name == "setup_s") {
        Some(m) if m.unit == "s" && m.better == Better::Lower => Ok(()),
        _ => Err("no setup_s in seconds, lower is better".to_string()),
    }
}

/// The workload of that name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `BENCHMARK.json`, rendered from this module.
pub fn benchmark_json() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let metrics = |list: Vec<Metric>| {
        Json::Arr(
            list.into_iter()
                .map(|m| {
                    let mut pairs = vec![
                        ("name", Json::Str(m.name)),
                        ("unit", Json::str(m.unit)),
                        ("better", Json::str(m.better.label())),
                    ];
                    if let Some(bound) = m.bound {
                        pairs.push(("bound", Json::Num(bound)));
                    }
                    Json::obj(pairs)
                })
                .collect(),
        )
    };
    Json::obj([
        ("command", strings(&COMMAND)),
        ("paths", strings(&PATHS)),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        ("end_to_end", metrics(end_to_end())),
        ("per_layer", metrics(per_layer())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validation_follows_the_contract() {
        for good in [
            "a",
            "9",
            "inproc-exact",
            "serve.server.session_read.p99_us",
            "A_b-3.c",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".a", "-a", "_a", "a b", "a/b", "a%", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for good in ["ms", "s", "1/s", "count", "frames/s", "MiB", "%"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "a b", "µs", "seventeen-letters"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn the_declarations_meet_the_contract() {
        assert_eq!(check(), Ok(()));
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_module_rendered() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB");
        let on_disk = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: cargo run --release --offline --manifest-path bench/Cargo.toml -- spec > BENCHMARK.json"
        );
    }
}

//! Snapshot, export, fingerprint, and rendered dashboards.
//!
//! A [`TelemetrySnapshot`] is a frozen copy of everything a recorder has
//! seen. It serialises to JSONL in a canonical order (meta line, then
//! counters, gauges, histograms, exemplars, windowed series, and SLO
//! trackers sorted by `(name, label)`, then slow-decision entries in
//! retention order, then spans in trace order), and the run fingerprint
//! is FNV-1a over those exact bytes — so two runs fingerprint equal iff
//! their telemetry is bit-identical.

use crate::clock::ClockKind;
use crate::hist::LogHistogram;
use crate::registry::{GaugeStat, SpanRecord};
use crate::slo::SloStat;
use crate::slowlog::SlowDecision;
use crate::window::WindowStat;

/// FNV-1a over a byte stream — the workspace's fingerprinting
/// primitive, kept dependency-free on purpose.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Aggregated statistics for one span path (`"marshal.run/ci.submit"`).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Slash-joined ancestry, unique per tree position.
    pub path: String,
    /// Leaf span name.
    pub name: &'static str,
    /// Nesting depth (roots are 0).
    pub depth: usize,
    /// Number of span records aggregated into this path.
    pub calls: u64,
    /// Total seconds across all calls.
    pub total: f64,
    /// Seconds not attributed to child spans.
    pub self_time: f64,
}

/// `(bucket index, minimum trace id)` exemplar pairs for one labeled
/// histogram, sorted by bucket index.
pub type ExemplarBuckets = Vec<(usize, u64)>;

/// A frozen copy of a recorder's state. Produced by
/// [`crate::Telemetry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Clock the recorder was running on.
    pub clock: ClockKind,
    /// `(name, label, value)` sorted by `(name, label)`.
    pub counters: Vec<(String, String, u64)>,
    /// `(name, label, stat)` sorted by `(name, label)`.
    pub gauges: Vec<(String, String, GaugeStat)>,
    /// `(name, label, histogram)` sorted by `(name, label)`.
    pub histograms: Vec<(String, String, LogHistogram)>,
    /// Width in clock seconds of the time-series windows below.
    pub window_secs: f64,
    /// `(name, label, per-window stats)` sorted by `(name, label)` —
    /// the windowed time-series ring behind every observed histogram.
    pub windows: Vec<(String, String, Vec<WindowStat>)>,
    /// `(name, label, (bucket index, trace id) exemplars)` sorted by
    /// `(name, label)`; each bucket remembers the minimum trace id seen.
    pub exemplars: Vec<(String, String, ExemplarBuckets)>,
    /// `(name, label, SLO state)` sorted by `(name, label)`.
    pub slos: Vec<(String, String, SloStat)>,
    /// Retained slow-decision log entries, slowest first.
    pub slow: Vec<SlowDecision>,
    /// Closed spans in trace order.
    pub spans: Vec<SpanRecord>,
    /// Spans still open when the snapshot was taken (not exported).
    pub open_spans: usize,
    /// Spans discarded after the trace buffer filled.
    pub dropped_spans: u64,
}

impl TelemetrySnapshot {
    /// Value of the unlabeled counter `name`.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counter_labeled(name, "")
    }

    /// Value of the `label` series of counter `name`.
    pub fn counter_labeled(&self, name: &str, label: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, l, _)| n == name && l == label)
            .map(|&(_, _, v)| v)
    }

    /// Sum of counter `name` across all labels (0 if absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _, _)| n == name)
            .map(|&(_, _, v)| v)
            .sum()
    }

    /// Stat of the gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<GaugeStat> {
        self.gauges
            .iter()
            .find(|(n, l, _)| n == name && l.is_empty())
            .map(|&(_, _, g)| g)
    }

    /// The histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms
            .iter()
            .find(|(n, l, _)| n == name && l.is_empty())
            .map(|(_, _, h)| h)
    }

    /// The windowed time-series for the `label` series of `name`.
    pub fn window_series(&self, name: &str, label: &str) -> Option<&[WindowStat]> {
        self.windows
            .iter()
            .find(|(n, l, _)| n == name && l == label)
            .map(|(_, _, w)| w.as_slice())
    }

    /// The `(bucket index, trace id)` exemplars of the `label` series of
    /// `name`.
    pub fn exemplar(&self, name: &str, label: &str) -> Option<&[(usize, u64)]> {
        self.exemplars
            .iter()
            .find(|(n, l, _)| n == name && l == label)
            .map(|(_, _, e)| e.as_slice())
    }

    /// The SLO state registered on the `label` series of `name`.
    pub fn slo(&self, name: &str, label: &str) -> Option<SloStat> {
        self.slos
            .iter()
            .find(|(n, l, _)| n == name && l == label)
            .map(|&(_, _, s)| s)
    }

    /// Canonical JSONL export: one `meta` line, then counters, gauges,
    /// histograms, exemplars, windowed series, and SLO trackers (each
    /// sorted by name/label), then slow-decision entries in retention
    /// order, then spans in trace order. Floats use Rust's
    /// shortest-roundtrip `Display`, so the bytes are a deterministic
    /// function of the recorded values.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"type\":\"meta\",\"clock\":\"{}\",\"open_spans\":{},\"dropped_spans\":{}}}\n",
            match self.clock {
                ClockKind::Wall => "wall",
                ClockKind::Manual => "manual",
            },
            self.open_spans,
            self.dropped_spans
        ));
        for (name, label, value) in &self.counters {
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":{},\"label\":{},\"value\":{}}}\n",
                json_str(name),
                json_str(label),
                value
            ));
        }
        for (name, label, g) in &self.gauges {
            out.push_str(&format!(
                "{{\"type\":\"gauge\",\"name\":{},\"label\":{},\"last\":{},\"min\":{},\"max\":{},\"samples\":{}}}\n",
                json_str(name),
                json_str(label),
                json_f64(g.last),
                json_f64(g.min),
                json_f64(g.max),
                g.samples
            ));
        }
        for (name, label, h) in &self.histograms {
            let buckets: Vec<String> = h
                .nonzero_buckets()
                .iter()
                .map(|&(i, c)| format!("[{i},{c}]"))
                .collect();
            out.push_str(&format!(
                "{{\"type\":\"hist\",\"name\":{},\"label\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{}]}}\n",
                json_str(name),
                json_str(label),
                h.count(),
                json_f64(h.sum()),
                opt_f64(h.min()),
                opt_f64(h.max()),
                buckets.join(",")
            ));
        }
        for (name, label, ex) in &self.exemplars {
            let pairs: Vec<String> = ex.iter().map(|&(b, t)| format!("[{b},{t}]")).collect();
            out.push_str(&format!(
                "{{\"type\":\"exemplar\",\"name\":{},\"label\":{},\"buckets\":[{}]}}\n",
                json_str(name),
                json_str(label),
                pairs.join(",")
            ));
        }
        for (name, label, windows) in &self.windows {
            let ws: Vec<String> = windows
                .iter()
                .map(|w| {
                    format!(
                        "[{},{},{},{},{}]",
                        w.index,
                        w.count,
                        json_f64(w.sum),
                        json_f64(w.p50),
                        json_f64(w.p99)
                    )
                })
                .collect();
            out.push_str(&format!(
                "{{\"type\":\"window\",\"name\":{},\"label\":{},\"window_secs\":{},\"windows\":[{}]}}\n",
                json_str(name),
                json_str(label),
                json_f64(self.window_secs),
                ws.join(",")
            ));
        }
        for (name, label, s) in &self.slos {
            out.push_str(&format!(
                "{{\"type\":\"slo\",\"name\":{},\"label\":{},\"threshold\":{},\"objective\":{},\"total\":{},\"violations\":{},\"burn_rate\":{}}}\n",
                json_str(name),
                json_str(label),
                json_f64(s.threshold),
                json_f64(s.objective),
                s.total,
                s.violations,
                json_f64(s.burn_rate())
            ));
        }
        out.push_str(&self.slow_jsonl());
        for s in &self.spans {
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":{},\"start\":{},\"end\":{}}}\n",
                s.id,
                parent,
                json_str(s.name),
                json_f64(s.start),
                json_f64(s.end)
            ));
        }
        out
    }

    /// Just the `"slow"` lines of [`TelemetrySnapshot::to_jsonl`]: one
    /// JSON object per retained slow decision, slowest first. The serve
    /// frontend uses this to export a standalone slow-decision log file.
    pub fn slow_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.slow {
            let stages: Vec<String> = e
                .stages
                .iter()
                .map(|(n, v)| format!("[{},{}]", json_str(n), json_f64(*v)))
                .collect();
            out.push_str(&format!(
                "{{\"type\":\"slow\",\"duration\":{},\"stream\":{},\"anchor\":{},\"trace\":{},\"stages\":[{}]}}\n",
                json_f64(e.duration_seconds),
                e.stream_id,
                e.anchor,
                e.trace_id,
                stages.join(",")
            ));
        }
        out
    }

    /// FNV-1a over the canonical JSONL bytes. Equal fingerprints ⇔
    /// bit-identical telemetry.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.to_jsonl().as_bytes())
    }

    /// Spans aggregated by tree path, sorted by path (which is pre-order
    /// when sibling names differ). `self_time` is each record's duration
    /// minus its direct children's durations.
    pub fn span_stats(&self) -> Vec<SpanStat> {
        use std::collections::BTreeMap;
        let n = self.spans.len();
        // Trace order guarantees parents precede children, so one forward
        // pass can build paths and a backward attribution can subtract
        // child time.
        let mut paths: Vec<String> = Vec::with_capacity(n);
        let mut depths: Vec<usize> = Vec::with_capacity(n);
        let mut index_of = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            index_of.insert(s.id, i);
            match s.parent.and_then(|p| index_of.get(&p).copied()) {
                Some(pi) => {
                    paths.push(format!("{}/{}", paths[pi], s.name));
                    depths.push(depths[pi] + 1);
                }
                None => {
                    paths.push(s.name.to_string());
                    depths.push(0);
                }
            }
            let _ = i;
        }
        let mut child_time = vec![0.0f64; n];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(pi) = s.parent.and_then(|p| index_of.get(&p).copied()) {
                child_time[pi] += s.duration();
            }
            let _ = i;
        }
        let mut agg: BTreeMap<String, SpanStat> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.duration();
            let stat = agg.entry(paths[i].clone()).or_insert(SpanStat {
                path: paths[i].clone(),
                name: s.name,
                depth: depths[i],
                calls: 0,
                total: 0.0,
                self_time: 0.0,
            });
            stat.calls += 1;
            stat.total += dur;
            stat.self_time += (dur - child_time[i]).max(0.0);
        }
        agg.into_values().collect()
    }

    /// The `n` span paths with the largest aggregate self-time,
    /// descending (ties broken by path for determinism).
    pub fn top_spans_by_self_time(&self, n: usize) -> Vec<SpanStat> {
        let mut stats = self.span_stats();
        stats.sort_by(|a, b| {
            b.self_time
                .partial_cmp(&a.self_time)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.path.cmp(&b.path))
        });
        stats.truncate(n);
        stats
    }

    /// A text flamegraph: one line per span path, indented by depth, with
    /// a bar proportional to total time.
    pub fn flamegraph(&self) -> String {
        let stats = self.span_stats();
        let scale = stats
            .iter()
            .map(|s| s.total)
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        let label_w = stats
            .iter()
            .map(|s| 2 * s.depth + s.name.len())
            .max()
            .unwrap_or(0)
            .max(12);
        let mut out = String::new();
        for s in &stats {
            let bar_len = ((s.total / scale) * 30.0).round() as usize;
            out.push_str(&format!(
                "{:indent$}{:<width$}  {:>9}  x{:<5} {}\n",
                "",
                s.name,
                fmt_secs(s.total),
                s.calls,
                "#".repeat(bar_len.max(1)),
                indent = 2 * s.depth,
                width = label_w - 2 * s.depth
            ));
        }
        out
    }

    /// The full run dashboard: counters, gauges, histogram quantiles, top
    /// spans by self-time, and the flamegraph. Pure text, fixed layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== telemetry dashboard ==\n");
        out.push_str(&format!(
            "clock: {:?}  spans: {} closed / {} open / {} dropped\n",
            self.clock,
            self.spans.len(),
            self.open_spans,
            self.dropped_spans
        ));
        if !self.counters.is_empty() {
            out.push_str("\n-- counters --\n");
            let w = self
                .counters
                .iter()
                .map(|(n, l, _)| display_key(n, l).len())
                .max()
                .unwrap_or(0);
            for (name, label, value) in &self.counters {
                out.push_str(&format!("  {:<w$}  {}\n", display_key(name, label), value));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("\n-- gauges --\n");
            let w = self
                .gauges
                .iter()
                .map(|(n, l, _)| display_key(n, l).len())
                .max()
                .unwrap_or(0);
            for (name, label, g) in &self.gauges {
                out.push_str(&format!(
                    "  {:<w$}  last={} min={} max={} n={}\n",
                    display_key(name, label),
                    fmt_f64(g.last),
                    fmt_f64(g.min),
                    fmt_f64(g.max),
                    g.samples
                ));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("\n-- histograms --\n");
            let w = self
                .histograms
                .iter()
                .map(|(n, l, _)| display_key(n, l).len())
                .max()
                .unwrap_or(0);
            for (name, label, h) in &self.histograms {
                if let Some((p50, p95, p99)) = h.percentiles() {
                    out.push_str(&format!(
                        "  {:<w$}  n={} mean={} p50={} p95={} p99={} max={}\n",
                        display_key(name, label),
                        h.count(),
                        fmt_secs(h.mean().unwrap_or(0.0)),
                        fmt_secs(p50),
                        fmt_secs(p95),
                        fmt_secs(p99),
                        fmt_secs(h.max().unwrap_or(0.0))
                    ));
                } else {
                    out.push_str(&format!("  {:<w$}  (empty)\n", display_key(name, label)));
                }
            }
        }
        if !self.spans.is_empty() {
            out.push_str("\n-- top spans by self-time --\n");
            for s in self.top_spans_by_self_time(5) {
                out.push_str(&format!(
                    "  {:<30}  self={:>9}  total={:>9}  x{}\n",
                    s.path,
                    fmt_secs(s.self_time),
                    fmt_secs(s.total),
                    s.calls
                ));
            }
            out.push_str("\n-- flamegraph --\n");
            out.push_str(&self.flamegraph());
        }
        out
    }
}

fn display_key(name: &str, label: &str) -> String {
    if label.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{label}}}")
    }
}

/// JSON string literal with the escapes our metric names can need.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Shortest-roundtrip float, with non-finite values mapped to `null`
/// (JSON has no NaN/inf).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn opt_f64(v: Option<f64>) -> String {
    match v {
        Some(v) => json_f64(v),
        None => "null".to_string(),
    }
}

/// Human-friendly seconds for dashboards (not part of the canonical
/// export, so rounding here cannot affect fingerprints).
fn fmt_secs(v: f64) -> String {
    if !v.is_finite() {
        "n/a".to_string()
    } else if v == 0.0 {
        "0s".to_string()
    } else if v < 1e-3 {
        format!("{:.1}us", v * 1e6)
    } else if v < 1.0 {
        format!("{:.2}ms", v * 1e3)
    } else {
        format!("{:.3}s", v)
    }
}

fn fmt_f64(v: f64) -> String {
    if v.abs() >= 1e4 || (v != 0.0 && v.abs() < 1e-3) {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Telemetry;

    fn sample_snapshot() -> TelemetrySnapshot {
        let tel = Telemetry::with_manual_clock();
        tel.set_time(0.0);
        {
            let _run = tel.span("run");
            tel.add("frames", 10);
            tel.add_labeled("faults", "outage", 2);
            tel.gauge_set("depth", 3.0);
            tel.observe("latency_seconds", 0.25);
            tel.observe("latency_seconds", 0.5);
            tel.set_time(1.0);
            {
                let _step = tel.span("run.step");
                tel.set_time(4.0);
            }
            tel.set_time(5.0);
        }
        tel.snapshot()
    }

    #[test]
    fn fnv1a_matches_reference_values() {
        // Classic FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn jsonl_is_canonical_and_fingerprint_stable() {
        let a = sample_snapshot();
        let b = sample_snapshot();
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.fingerprint(), b.fingerprint());
        let jsonl = a.to_jsonl();
        assert!(jsonl.starts_with("{\"type\":\"meta\",\"clock\":\"manual\""));
        assert!(jsonl
            .contains("\"type\":\"counter\",\"name\":\"faults\",\"label\":\"outage\",\"value\":2"));
        assert!(jsonl.contains(
            "\"type\":\"span\",\"id\":1,\"parent\":0,\"name\":\"run.step\",\"start\":1,\"end\":4"
        ));
        // Every line parses as a flat JSON object shape (cheap sanity:
        // balanced braces, no raw newlines inside).
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn fingerprint_changes_with_content() {
        let a = sample_snapshot();
        let tel = Telemetry::with_manual_clock();
        tel.add("frames", 11);
        assert_ne!(a.fingerprint(), tel.snapshot().fingerprint());
    }

    #[test]
    fn span_stats_compute_self_time() {
        let snap = sample_snapshot();
        let stats = snap.span_stats();
        assert_eq!(stats.len(), 2);
        let run = stats.iter().find(|s| s.path == "run").unwrap();
        let step = stats.iter().find(|s| s.path == "run/run.step").unwrap();
        assert_eq!(run.total, 5.0);
        assert_eq!(step.total, 3.0);
        assert_eq!(run.self_time, 2.0);
        assert_eq!(step.self_time, 3.0);
        assert_eq!(step.depth, 1);
        let top = snap.top_spans_by_self_time(1);
        assert_eq!(top[0].path, "run/run.step");
    }

    #[test]
    fn render_mentions_all_sections() {
        let out = sample_snapshot().render();
        for needle in [
            "telemetry dashboard",
            "counters",
            "gauges",
            "histograms",
            "top spans by self-time",
            "flamegraph",
            "faults{outage}",
            "latency_seconds",
        ] {
            assert!(out.contains(needle), "missing {needle:?} in:\n{out}");
        }
    }

    #[test]
    fn json_str_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn observability_plane_lines_are_exported() {
        let tel = Telemetry::with_manual_clock();
        tel.set_slo("latency_seconds", "", 0.3, 0.99);
        tel.observe_traced("latency_seconds", "", 0.25, 41);
        tel.observe_traced("latency_seconds", "", 0.5, 40);
        tel.slow_decision(crate::slowlog::SlowDecision {
            duration_seconds: 0.5,
            stream_id: 2,
            anchor: 8,
            trace_id: 40,
            stages: vec![("inference", 0.4)],
        });
        let jsonl = tel.snapshot().to_jsonl();
        assert!(jsonl.contains("\"type\":\"exemplar\",\"name\":\"latency_seconds\""));
        assert!(jsonl.contains("\"type\":\"window\",\"name\":\"latency_seconds\""));
        assert!(jsonl.contains(
            "\"type\":\"slo\",\"name\":\"latency_seconds\",\"label\":\"\",\"threshold\":0.3,\
             \"objective\":0.99,\"total\":2,\"violations\":1"
        ));
        assert!(jsonl
            .contains("\"type\":\"slow\",\"duration\":0.5,\"stream\":2,\"anchor\":8,\"trace\":40"));
        assert!(jsonl.contains("[\"inference\",0.4]"));
        // Fingerprint covers the new sections: same inputs, same bytes.
        let again = {
            let t = Telemetry::with_manual_clock();
            t.set_slo("latency_seconds", "", 0.3, 0.99);
            t.observe_traced("latency_seconds", "", 0.25, 41);
            t.observe_traced("latency_seconds", "", 0.5, 40);
            t.slow_decision(crate::slowlog::SlowDecision {
                duration_seconds: 0.5,
                stream_id: 2,
                anchor: 8,
                trace_id: 40,
                stages: vec![("inference", 0.4)],
            });
            t.snapshot()
        };
        assert_eq!(tel.snapshot().fingerprint(), again.fingerprint());
    }
}

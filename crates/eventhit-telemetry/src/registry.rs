//! The telemetry recorder: metric registry plus span stack.
//!
//! A [`Telemetry`] value is shared by reference (or `Arc`) across the
//! instrumented stack; all mutation happens behind one internal mutex, so
//! call sites need only `&self`. Metric maps are `BTreeMap`s keyed by
//! `(name, label)`, which makes every snapshot iterate in one
//! deterministic order — a precondition for the fingerprinting scheme.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::clock::ClockKind;
use crate::hist::LogHistogram;
use crate::report::TelemetrySnapshot;
use crate::slo::SloStat;
use crate::slowlog::{SlowDecision, SlowLog};
use crate::window::{WindowedSeries, DEFAULT_WINDOW_SECS};

/// Hard cap on the span trace buffer; spans beyond it are counted in
/// `dropped_spans` instead of recorded, bounding memory on long runs.
pub const MAX_SPANS: usize = 1 << 16;

/// Last/min/max/sample-count summary of a gauge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeStat {
    /// Most recently set value.
    pub last: f64,
    /// Smallest value ever set.
    pub min: f64,
    /// Largest value ever set.
    pub max: f64,
    /// Number of times the gauge was set.
    pub samples: u64,
}

/// One recorded span: a named region of (wall or simulated) time with an
/// optional parent, forming a forest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Position in the trace buffer (stable identifier).
    pub id: u32,
    /// Enclosing span at the time this one started.
    pub parent: Option<u32>,
    /// Static span name (e.g. `"train.epoch"`).
    pub name: &'static str,
    /// Clock seconds when the span opened.
    pub start: f64,
    /// Clock seconds when the span closed (`NaN` while open).
    pub end: f64,
}

impl SpanRecord {
    /// Span duration in seconds; 0 for still-open spans.
    pub fn duration(&self) -> f64 {
        if self.end.is_finite() {
            (self.end - self.start).max(0.0)
        } else {
            0.0
        }
    }
}

type MetricKey = (String, String);

#[derive(Debug, Default)]
struct Inner {
    manual_now: f64,
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, GaugeStat>,
    hists: BTreeMap<MetricKey, LogHistogram>,
    windows: BTreeMap<MetricKey, WindowedSeries>,
    exemplars: BTreeMap<MetricKey, BTreeMap<usize, u64>>,
    slos: BTreeMap<MetricKey, SloStat>,
    slow: SlowLog,
    spans: Vec<SpanRecord>,
    open: Vec<u32>,
    dropped_spans: u64,
}

/// The recorder. See the crate docs for the clock semantics; a disabled
/// recorder turns every call into a cheap early return.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    clock: ClockKind,
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    fn build(enabled: bool, clock: ClockKind) -> Self {
        Telemetry {
            enabled,
            clock,
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// An enabled recorder on the wall clock (seconds since creation).
    pub fn new() -> Self {
        Telemetry::build(true, ClockKind::Wall)
    }

    /// An enabled recorder on the manual (simulated) clock: time only
    /// moves via [`Telemetry::set_time`], so identical computations
    /// record bit-identical telemetry.
    pub fn with_manual_clock() -> Self {
        Telemetry::build(true, ClockKind::Manual)
    }

    /// A no-op recorder: every call returns immediately. Instrumented
    /// code can take `&Telemetry` unconditionally and stay near-zero-cost
    /// when observability is off (the bench suite measures the residue).
    pub fn disabled() -> Self {
        Telemetry::build(false, ClockKind::Wall)
    }

    /// Whether this recorder records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Which clock the recorder reads.
    pub fn clock_kind(&self) -> ClockKind {
        self.clock
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn now_locked(&self, inner: &Inner) -> f64 {
        match self.clock {
            ClockKind::Wall => self.epoch.elapsed().as_secs_f64(),
            ClockKind::Manual => inner.manual_now,
        }
    }

    /// Current clock reading in seconds. A disabled recorder always
    /// reads 0 so timing arithmetic around it stays finite.
    pub fn now(&self) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let inner = self.lock();
        self.now_locked(&inner)
    }

    /// Advances the manual clock to `t` simulated seconds (no-op on the
    /// wall clock; the simulators call this unconditionally as their
    /// event clock moves).
    pub fn set_time(&self, t: f64) {
        if !self.enabled || self.clock != ClockKind::Manual {
            return;
        }
        self.lock().manual_now = t;
    }

    /// Opens a span; it closes (and is recorded) when the returned guard
    /// drops. Spans nest by scope: a span opened while another is open
    /// becomes its child.
    #[must_use = "a span closes when its guard drops"]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tel: self,
                id: u32::MAX,
            };
        }
        let mut inner = self.lock();
        if inner.spans.len() >= MAX_SPANS {
            inner.dropped_spans += 1;
            return SpanGuard {
                tel: self,
                id: u32::MAX,
            };
        }
        let id = inner.spans.len() as u32;
        let start = self.now_locked(&inner);
        let parent = inner.open.last().copied();
        inner.spans.push(SpanRecord {
            id,
            parent,
            name,
            start,
            end: f64::NAN,
        });
        inner.open.push(id);
        SpanGuard { tel: self, id }
    }

    fn finish_span(&self, id: u32) {
        let mut inner = self.lock();
        let end = self.now_locked(&inner);
        // Guards drop LIFO under normal scoping; if an outer guard is
        // dropped early, close any still-open descendants with it.
        if let Some(pos) = inner.open.iter().rposition(|&x| x == id) {
            let closing: Vec<u32> = inner.open.split_off(pos);
            for sid in closing {
                let rec = &mut inner.spans[sid as usize];
                if !rec.end.is_finite() {
                    rec.end = end;
                }
            }
        }
    }

    /// Adds `delta` to the counter `name`.
    pub fn add(&self, name: &'static str, delta: u64) {
        self.add_labeled(name, "", delta);
    }

    /// Adds `delta` to the `label` series of counter `name` (e.g.
    /// `add_labeled("ci.faults", "outage", 1)`).
    pub fn add_labeled(&self, name: &'static str, label: &str, delta: u64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.lock();
        match inner
            .counters
            .get_mut(&(name.to_string(), label.to_string()))
        {
            Some(c) => *c += delta,
            None => {
                inner
                    .counters
                    .insert((name.to_string(), label.to_string()), delta);
            }
        }
    }

    /// Sets gauge `name` to `v`, tracking last/min/max. Non-finite values
    /// are ignored.
    pub fn gauge_set(&self, name: &'static str, v: f64) {
        if !self.enabled || !v.is_finite() {
            return;
        }
        let mut inner = self.lock();
        let entry = inner
            .gauges
            .entry((name.to_string(), String::new()))
            .or_insert(GaugeStat {
                last: v,
                min: v,
                max: v,
                samples: 0,
            });
        entry.last = v;
        entry.min = entry.min.min(v);
        entry.max = entry.max.max(v);
        entry.samples += 1;
    }

    /// Records `v` into the log-bucketed histogram `name`.
    pub fn observe(&self, name: &'static str, v: f64) {
        self.observe_labeled(name, "", v);
    }

    /// Records `v` into the `label` series of histogram `name` (e.g.
    /// `observe_labeled("serve.stage_seconds", "inference", dt)`).
    pub fn observe_labeled(&self, name: &'static str, label: &str, v: f64) {
        self.observe_impl(name, label, v, None);
    }

    /// Records `v` like [`Telemetry::observe_labeled`] and additionally
    /// attaches `trace_id` as the exemplar of the bucket the sample lands
    /// in (each bucket remembers the *minimum* trace id it has seen, so
    /// the exemplar set is independent of observation order and therefore
    /// bit-identical across worker counts).
    pub fn observe_traced(&self, name: &'static str, label: &str, v: f64, trace_id: u64) {
        self.observe_impl(name, label, v, Some(trace_id));
    }

    fn observe_impl(&self, name: &'static str, label: &str, v: f64, trace: Option<u64>) {
        if !self.enabled {
            return;
        }
        let mut inner = self.lock();
        let now = self.now_locked(&inner);
        let key = (name.to_string(), label.to_string());
        inner.hists.entry(key.clone()).or_default().observe(v);
        inner
            .windows
            .entry(key.clone())
            .or_insert_with(|| WindowedSeries::new(DEFAULT_WINDOW_SECS))
            .observe(now, v);
        if let Some(trace) = trace {
            if let Some(bucket) = LogHistogram::bucket_index(v) {
                let slot = inner
                    .exemplars
                    .entry(key.clone())
                    .or_default()
                    .entry(bucket)
                    .or_insert(trace);
                *slot = (*slot).min(trace);
            }
        }
        if let Some(slo) = inner.slos.get_mut(&key) {
            slo.observe(v);
        }
    }

    /// Registers (idempotently) an SLO on the `label` series of histogram
    /// `name`: at least `objective` of observed samples must land at or
    /// under `threshold` seconds. Subsequent observations of that series
    /// feed the tracker; re-registering keeps the accumulated counts.
    pub fn set_slo(&self, name: &'static str, label: &str, threshold: f64, objective: f64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.lock();
        inner
            .slos
            .entry((name.to_string(), label.to_string()))
            .or_insert_with(|| SloStat::new(threshold, objective));
    }

    /// Records a candidate entry into the bounded slow-decision log (the
    /// log itself decides retention; see [`crate::slowlog::SlowLog`]).
    pub fn slow_decision(&self, entry: SlowDecision) {
        if !self.enabled {
            return;
        }
        self.lock().slow.record(entry);
    }

    /// A point-in-time copy of everything recorded so far. Only closed
    /// spans are exported (still-open ones are counted), so a snapshot
    /// taken after the instrumented region is a complete, deterministic
    /// artefact.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let inner = self.lock();
        TelemetrySnapshot {
            clock: self.clock,
            counters: inner
                .counters
                .iter()
                .map(|((n, l), &v)| (n.clone(), l.clone(), v))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|((n, l), &g)| (n.clone(), l.clone(), g))
                .collect(),
            histograms: inner
                .hists
                .iter()
                .map(|((n, l), h)| (n.clone(), l.clone(), h.clone()))
                .collect(),
            window_secs: DEFAULT_WINDOW_SECS,
            windows: inner
                .windows
                .iter()
                .map(|((n, l), w)| (n.clone(), l.clone(), w.stats()))
                .collect(),
            exemplars: inner
                .exemplars
                .iter()
                .map(|((n, l), ex)| {
                    (
                        n.clone(),
                        l.clone(),
                        ex.iter().map(|(&b, &t)| (b, t)).collect(),
                    )
                })
                .collect(),
            slos: inner
                .slos
                .iter()
                .map(|((n, l), &s)| (n.clone(), l.clone(), s))
                .collect(),
            slow: inner.slow.entries().to_vec(),
            spans: inner
                .spans
                .iter()
                .filter(|s| s.end.is_finite())
                .copied()
                .collect(),
            open_spans: inner.open.len(),
            dropped_spans: inner.dropped_spans,
        }
    }
}

/// RAII guard returned by [`Telemetry::span`]; records the span on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tel: &'a Telemetry,
    id: u32,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id != u32::MAX {
            self.tel.finish_span(self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label() {
        let tel = Telemetry::with_manual_clock();
        tel.add("frames", 3);
        tel.add("frames", 4);
        tel.add_labeled("faults", "outage", 2);
        tel.add_labeled("faults", "timeout", 1);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("frames"), Some(7));
        assert_eq!(snap.counter_labeled("faults", "outage"), Some(2));
        assert_eq!(snap.counter_total("faults"), 3);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn gauges_track_last_min_max() {
        let tel = Telemetry::with_manual_clock();
        tel.gauge_set("depth", 5.0);
        tel.gauge_set("depth", 2.0);
        tel.gauge_set("depth", 9.0);
        tel.gauge_set("depth", f64::NAN); // ignored
        let g = tel.snapshot().gauge("depth").unwrap();
        assert_eq!((g.last, g.min, g.max, g.samples), (9.0, 2.0, 9.0, 3));
    }

    #[test]
    fn spans_nest_and_record_on_manual_clock() {
        let tel = Telemetry::with_manual_clock();
        tel.set_time(1.0);
        {
            let _outer = tel.span("outer");
            tel.set_time(2.0);
            {
                let _inner = tel.span("inner");
                tel.set_time(5.0);
            }
            tel.set_time(7.0);
        }
        let spans = tel.snapshot().spans;
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!((outer.start, outer.end), (1.0, 7.0));
        assert_eq!((inner.start, inner.end), (2.0, 5.0));
        assert_eq!(inner.duration(), 3.0);
    }

    #[test]
    fn open_spans_are_excluded_from_snapshots() {
        let tel = Telemetry::with_manual_clock();
        let _open = tel.span("still.open");
        let snap = tel.snapshot();
        assert!(snap.spans.is_empty());
        assert_eq!(snap.open_spans, 1);
    }

    #[test]
    fn dropping_outer_guard_first_closes_descendants() {
        let tel = Telemetry::with_manual_clock();
        let outer = tel.span("outer");
        let inner = tel.span("inner");
        tel.set_time(3.0);
        drop(outer); // out of order: inner must still end up closed
        drop(inner);
        let spans = tel.snapshot().spans;
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.end == 3.0));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let tel = Telemetry::disabled();
        let _g = tel.span("never");
        tel.add("c", 1);
        tel.gauge_set("g", 1.0);
        tel.observe("h", 1.0);
        tel.set_time(9.0);
        assert_eq!(tel.now(), 0.0);
        let snap = tel.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn span_buffer_is_capped() {
        let tel = Telemetry::with_manual_clock();
        for _ in 0..MAX_SPANS + 10 {
            let _s = tel.span("s");
        }
        let snap = tel.snapshot();
        assert_eq!(snap.spans.len(), MAX_SPANS);
        assert_eq!(snap.dropped_spans, 10);
    }

    #[test]
    fn wall_clock_moves_forward() {
        let tel = Telemetry::new();
        let a = tel.now();
        let b = tel.now();
        assert!(b >= a && a >= 0.0);
    }

    #[test]
    fn observations_feed_windowed_series() {
        let tel = Telemetry::with_manual_clock();
        tel.observe("lat", 0.010);
        tel.set_time(2.5);
        tel.observe_labeled("lat", "read", 0.020);
        tel.observe_labeled("lat", "read", 0.040);
        let snap = tel.snapshot();
        let w0 = snap.window_series("lat", "").unwrap();
        assert_eq!((w0[0].index, w0[0].count), (0, 1));
        let w1 = snap.window_series("lat", "read").unwrap();
        assert_eq!((w1[0].index, w1[0].count), (2, 2));
        assert!((w1[0].sum - 0.060).abs() < 1e-12);
        assert!(snap.window_series("lat", "missing").is_none());
    }

    #[test]
    fn exemplars_keep_the_minimum_trace_id_per_bucket() {
        let tel = Telemetry::with_manual_clock();
        // Same bucket, different traces: min wins regardless of order.
        tel.observe_traced("lat", "", 0.010, 900);
        tel.observe_traced("lat", "", 0.010, 7);
        tel.observe_traced("lat", "", 0.010, 55);
        // A different bucket keeps its own exemplar.
        tel.observe_traced("lat", "", 100.0, 3);
        // Non-finite samples never produce exemplars.
        tel.observe_traced("lat", "", f64::NAN, 1);
        let snap = tel.snapshot();
        let ex = snap.exemplar("lat", "").unwrap();
        assert_eq!(ex.len(), 2);
        assert!(ex.iter().any(|&(_, t)| t == 7));
        assert!(ex.iter().any(|&(_, t)| t == 3));
        assert!(!ex.iter().any(|&(_, t)| t == 1));
    }

    #[test]
    fn slo_counts_only_its_registered_series() {
        let tel = Telemetry::with_manual_clock();
        tel.set_slo("lat", "", 0.050, 0.99);
        tel.observe("lat", 0.010);
        tel.observe("lat", 0.500); // violation
        tel.observe_labeled("lat", "other", 9.0); // different series: ignored
        let snap = tel.snapshot();
        let slo = snap.slo("lat", "").unwrap();
        assert_eq!((slo.total, slo.violations), (2, 1));
        assert!(slo.burn_rate() > 1.0);
        assert!(snap.slo("lat", "other").is_none());
    }

    #[test]
    fn slow_decisions_flow_into_snapshots() {
        let tel = Telemetry::with_manual_clock();
        tel.slow_decision(SlowDecision {
            duration_seconds: 0.2,
            stream_id: 1,
            anchor: 16,
            trace_id: 42,
            stages: vec![("inference", 0.15)],
        });
        let snap = tel.snapshot();
        assert_eq!(snap.slow.len(), 1);
        assert_eq!(snap.slow[0].trace_id, 42);
    }

    #[test]
    fn disabled_recorder_ignores_observability_plane_calls() {
        let tel = Telemetry::disabled();
        tel.observe_labeled("lat", "x", 1.0);
        tel.observe_traced("lat", "x", 1.0, 9);
        tel.set_slo("lat", "x", 0.05, 0.99);
        tel.slow_decision(SlowDecision {
            duration_seconds: 1.0,
            stream_id: 0,
            anchor: 0,
            trace_id: 0,
            stages: Vec::new(),
        });
        let snap = tel.snapshot();
        assert!(snap.windows.is_empty());
        assert!(snap.exemplars.is_empty());
        assert!(snap.slos.is_empty());
        assert!(snap.slow.is_empty());
    }
}

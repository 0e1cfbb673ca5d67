//! What one workload run hands back to `main`: boundary samples, the
//! latency sample, operation counts per phase, spans, and whatever the
//! workload alone knows (server series, generator lateness, …).

use std::collections::BTreeMap;

use crate::calib;
use crate::json::Json;
use crate::span::SpanLog;
use crate::stats::{self, Sample};

/// Warm-up and measured length of one run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Discarded warm-up, nanoseconds.
    pub warmup_ns: u64,
    /// Measured time, nanoseconds, split into [`SEGMENTS`] equal parts.
    pub measure_ns: u64,
}

/// Measured segments per run. Many short ones rather than a few long
/// ones: the reference host has a fast and a slow state a quarter apart
/// and switches between them every few seconds, so each segment is
/// restated at the host speed sampled inside it (see [`crate::calib`])
/// before the median over the segments is taken.
pub const SEGMENTS: u64 = 20;

impl Plan {
    /// A plan measuring for `seconds`, with a tenth of that (at least a
    /// tenth of a second, at most one) of warm-up in front.
    pub fn for_seconds(seconds: f64) -> Plan {
        let measure_ns = (seconds * 1e9) as u64;
        Plan {
            warmup_ns: (measure_ns / 10).clamp(100_000_000, 1_000_000_000),
            measure_ns,
        }
    }

    /// The same plan at a fraction of the length (the traced re-run).
    pub fn scaled(&self, share: f64) -> Plan {
        Plan::for_seconds(self.measure_ns as f64 / 1e9 * share)
    }

    /// Boundary instants: end of warm-up, then the end of each segment.
    pub fn boundaries(&self) -> Vec<u64> {
        stats::boundaries(self.warmup_ns, self.measure_ns, SEGMENTS)
    }
}

/// Operation counts of one phase of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// `warm-up`, `measured`, `re-bind`, `verify`, …
    pub name: &'static str,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (rejects, I/O errors, divergences, unsent).
    pub failed: u64,
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct RunReport {
    /// Boundary samples; the first closes the warm-up.
    pub samples: Vec<Sample>,
    /// `(start_ns, latency_ns)` of every operation started after the
    /// warm-up; the start is on the same clock as the samples (for the
    /// open loop it is the due time), so operations bin into segments.
    pub ops: Vec<(u64, f64)>,
    /// `(at_ns, duration_ns)` of every run of the host-speed kernel
    /// (see [`crate::calib`]), on the same clock as the samples.
    pub calib: Vec<(u64, f64)>,
    /// Cores the workload's threads can keep busy: 1 in process, the
    /// connection count over loopback. CPU time over this many cores is
    /// the share of a segment spent on CPU.
    pub cores: f64,
    /// The time the workload spends off the CPU follows the host's speed
    /// as its CPU time does. True of `durable`: a flush of the virtual
    /// disk is host software on the same processors, and its time per
    /// frame rose 3.7 to 4.8 us as the kernel went 119 to 140 us, with
    /// the process on CPU for 29% of it.
    pub waits_on_host: bool,
    /// Open loop: the frame rate is the schedule's, not the system's, so
    /// it is reported as read. (Work-conserving workloads finish more
    /// frames on a faster host; a paced one just idles longer.)
    pub rate_is_offered: bool,
    /// Peak resident set at the end of the measured phase, MiB.
    pub peak_rss_mb: f64,
    /// Operation counts, phase by phase.
    pub phases: Vec<Phase>,
    /// Harness spans (traced runs only).
    pub spans: SpanLog,
    /// Per-layer metrics only this workload can report.
    pub layer: BTreeMap<String, f64>,
    /// Facts for the host block (frame counts, filesystem, lateness).
    pub detail: Vec<(String, Json)>,
}

impl RunReport {
    /// Operations attempted over all phases.
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    /// Operations failed over all phases.
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// Frames completed inside the measured segments.
    pub fn measured_frames(&self) -> u64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) => b.frames - a.frames,
            _ => 0,
        }
    }
}

/// One timing reduced over the segments of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reduced {
    /// The reported value: the median over the segments of the timing
    /// restated at the reference host speed.
    pub value: f64,
    /// Quartile spread of the restated timing over the segments.
    pub spread: f64,
    /// Median over the segments of the timing as the clock read it.
    pub raw: f64,
    /// Quartile spread of the raw timing over the segments.
    pub raw_spread: f64,
}

fn reduce(raw: &[f64], adjusted: &[f64]) -> Reduced {
    Reduced {
        value: stats::median(adjusted),
        spread: stats::quartile_spread(adjusted),
        raw: stats::median(raw),
        raw_spread: stats::quartile_spread(raw),
    }
}

/// The end-to-end timings of a run, each reduced over its segments, and
/// the latency percentiles pooled over the whole measured time.
#[derive(Debug, Clone, PartialEq)]
pub struct Timings {
    /// Frames per second of wall time.
    pub frames_per_s: Reduced,
    /// Process CPU nanoseconds per frame.
    pub cpu_ns_per_frame: Reduced,
    /// Median latency of a segment's operations, microseconds.
    pub latency_p50_us: Reduced,
    /// 99th percentile latency over the whole run, microseconds, raw.
    pub latency_p99_us: f64,
    /// The highest percentile with ten samples beyond it, and its value
    /// in microseconds, over the whole run, raw.
    pub latency_tail: Option<(f64, f64)>,
    /// Latency samples behind the percentiles.
    pub latency_samples: usize,
    /// Segments behind the reductions.
    pub segments: usize,
    /// Median host speed over the segments, relative to the reference.
    pub host_speed: f64,
    /// Median share of a segment the process spent on CPU.
    pub cpu_share: f64,
}

/// Values of `events` (`(at_ns, value)`) binned into the segments that
/// `samples` delimit; events before the first or after the last sample
/// fall outside every segment.
fn bin_by_segment(samples: &[Sample], events: &[(u64, f64)]) -> Vec<Vec<f64>> {
    let mut bins = vec![Vec::new(); samples.len().saturating_sub(1)];
    for &(at_ns, value) in events {
        let k = samples.partition_point(|s| s.at_ns <= at_ns);
        if (1..=bins.len()).contains(&k) {
            bins[k - 1].push(value);
        }
    }
    bins
}

/// Reduces a run's samples and operations to its timings.
pub fn timings(report: &RunReport) -> Timings {
    let segs = stats::segments(&report.samples);
    let all_calib: Vec<f64> = report.calib.iter().map(|&(_, d)| d).collect();
    let calib = bin_by_segment(&report.samples, &report.calib);
    let mut ops = bin_by_segment(&report.samples, &report.ops);

    let (mut fps, mut cpu, mut p50) = (Vec::new(), Vec::new(), Vec::new());
    let (mut fps_adj, mut cpu_adj, mut p50_adj) = (Vec::new(), Vec::new(), Vec::new());
    let (mut speeds, mut shares) = (Vec::new(), Vec::new());
    for (k, seg) in segs.iter().enumerate() {
        // A segment too short to have caught the kernel borrows the
        // run's overall speed.
        let speed = calib::speed_index(if calib[k].is_empty() {
            &all_calib
        } else {
            &calib[k]
        });
        let share = seg.cpu_ns as f64 / (seg.seconds * 1e9 * report.cores.max(1.0));
        let factor = if report.waits_on_host {
            speed
        } else {
            calib::time_factor(speed, share)
        };
        speeds.push(speed);
        shares.push(share.min(1.0));
        fps.push(seg.frames_per_s());
        fps_adj.push(seg.frames_per_s() / if report.rate_is_offered { 1.0 } else { factor });
        cpu.push(seg.cpu_ns_per_frame());
        cpu_adj.push(seg.cpu_ns_per_frame() * speed);
        if !ops[k].is_empty() {
            stats::sort(&mut ops[k]);
            let median_us = stats::quantile_sorted(&ops[k], 0.5) / 1e3;
            p50.push(median_us);
            // An operation's latency has no idle gap inside it (the gaps
            // of the open loop lie between operations): all of it
            // follows the host's speed.
            p50_adj.push(median_us * speed);
        }
    }
    let mut pooled: Vec<f64> = report.ops.iter().map(|&(_, l)| l).collect();
    stats::sort(&mut pooled);
    let us = |q: f64| stats::quantile_sorted(&pooled, q) / 1e3;
    Timings {
        frames_per_s: reduce(&fps, &fps_adj),
        cpu_ns_per_frame: reduce(&cpu, &cpu_adj),
        latency_p50_us: reduce(&p50, &p50_adj),
        latency_p99_us: us(0.99),
        latency_tail: stats::highest_supported_percentile(pooled.len()).map(|p| (p, us(p))),
        latency_samples: pooled.len(),
        segments: segs.len(),
        host_speed: stats::median(&speeds),
        cpu_share: stats::median(&shares),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::REFERENCE_NS;

    fn sample(at_ns: u64, frames: u64, cpu_ns: u64) -> Sample {
        Sample {
            at_ns,
            frames,
            cpu_ns,
        }
    }

    #[test]
    fn operations_bin_into_the_segment_they_started_in() {
        let report = RunReport {
            // Warm-up ends at 100; segments [100, 200) and [200, 300).
            samples: vec![sample(100, 10, 0), sample(200, 30, 0), sample(300, 40, 0)],
            ops: vec![
                (50, 9e9),      // warm-up: ignored
                (100, 1_000.0), // first segment
                (150, 3_000.0),
                (199, 2_000.0),
                (200, 8_000.0), // second segment
                (300, 9e9),     // after the last boundary: ignored
            ],
            cores: 1.0,
            ..RunReport::default()
        };
        let t = timings(&report);
        assert_eq!(t.segments, 2);
        // Per-segment medians 2 us and 8 us; no kernel samples, so the host
        // reads as the reference and nothing is restated.
        assert_eq!(t.latency_p50_us.raw, 5.0);
        assert_eq!(t.latency_p50_us.value, 5.0);
        // 20 and 10 frames in 100 ns each.
        assert!((t.frames_per_s.raw - 1.5e8).abs() < 1.0);
        assert_eq!(t.latency_samples, 6);
    }

    #[test]
    fn cpu_bound_segments_are_restated_at_the_reference_speed() {
        // Two equal stretches of work; the host ran the second at half
        // speed (the kernel took twice as long), so it did half the
        // frames, all of it on CPU.
        let report = RunReport {
            samples: vec![
                sample(0, 0, 0),
                sample(1_000, 100, 1_000),
                sample(2_000, 150, 2_000),
            ],
            calib: vec![(500, REFERENCE_NS), (1_500, REFERENCE_NS * 2.0)],
            ops: vec![(500, 10_000.0), (1_500, 20_000.0)],
            cores: 1.0,
            ..RunReport::default()
        };
        let t = timings(&report);
        // Raw: 1e8 and 5e7 frames/s; restated both read 1e8.
        assert!((t.frames_per_s.raw - 7.5e7).abs() < 1.0);
        assert!((t.frames_per_s.value - 1e8).abs() < 1.0);
        assert!(t.frames_per_s.spread < 1e-9 && t.frames_per_s.raw_spread > 0.5);
        // CPU per frame 10 and 20 ns raw; 10 both restated. Latency alike.
        assert!((t.cpu_ns_per_frame.value - 10.0).abs() < 1e-9);
        assert!((t.latency_p50_us.value - 10.0).abs() < 1e-9);
        assert!((t.host_speed - 0.75).abs() < 1e-9);
        assert_eq!(t.cpu_share, 1.0);
    }

    #[test]
    fn waiting_is_not_restated() {
        // The same slow second half, but the process was on CPU for a
        // tenth of the time: nine tenths of every timing stay as read.
        let report = RunReport {
            samples: vec![
                sample(0, 0, 0),
                sample(1_000, 100, 100),
                sample(2_000, 200, 200),
            ],
            calib: vec![(500, REFERENCE_NS), (1_500, REFERENCE_NS * 2.0)],
            cores: 1.0,
            ..RunReport::default()
        };
        let t = timings(&report);
        // Second segment: factor 0.1 * 0.5 + 0.9 = 0.95.
        let expect = (1e8 + 1e8 / 0.95) / 2.0;
        assert!((t.frames_per_s.value - expect).abs() < 1.0);
        // Unless the wait is on the host's processors too: then the
        // second segment is restated by the full 0.5.
        let t = timings(&RunReport {
            waits_on_host: true,
            ..report
        });
        assert!((t.frames_per_s.value - 1.5e8).abs() < 1.0);
    }
}

//! Run summaries: the resilience summary of a faulted deployment run, and
//! the telemetry layer's run dashboard.

use crate::metrics::MissAttribution;
use crate::resilient::ResilienceStats;

/// The run dashboard of the telemetry layer, re-exported where the other
/// run summaries live: counters, gauges, histogram quantiles, and top
/// spans by self-time, with JSONL export and an FNV-1a fingerprint.
pub use eventhit_telemetry::TelemetrySnapshot;

/// The resilience summary of one faulted run: availability, retry
/// pressure, faulted latency percentiles, and the miss-attribution split.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// Fraction of submissions delivered.
    pub availability: f64,
    /// Submissions issued.
    pub submissions: u64,
    /// Total retries across all submissions.
    pub retries: u64,
    /// Submissions rejected by the open circuit breaker.
    pub breaker_rejections: u64,
    /// Submissions that blew their deadline.
    pub deadline_blown: u64,
    /// Frames abandoned to the dead-letter queue.
    pub frames_dropped: u64,
    /// Faulted end-to-end latency percentiles `(p50, p95, p99)` over
    /// delivered submissions; `None` when nothing was delivered.
    pub latency: Option<(f64, f64, f64)>,
    /// Where every ground-truth instance ended up.
    pub attribution: MissAttribution,
}

impl ResilienceReport {
    /// Builds a report from a client's counters and a run's attribution.
    pub fn from_stats(stats: &ResilienceStats, attribution: MissAttribution) -> Self {
        ResilienceReport {
            availability: stats.availability(),
            submissions: stats.submissions,
            retries: stats.retries,
            breaker_rejections: stats.breaker_rejections,
            deadline_blown: stats.deadline_blown,
            frames_dropped: stats.frames_dropped,
            latency: stats.latency_percentiles(),
            attribution,
        }
    }

    /// Renders the report as a compact markdown table.
    pub fn to_markdown(&self) -> String {
        let (p50, p95, p99) = self.latency.unwrap_or((f64::NAN, f64::NAN, f64::NAN));
        let a = &self.attribution;
        format!(
            "| measure | value |\n|---|---|\n\
             | availability | {:.4} |\n\
             | submissions | {} |\n\
             | retries | {} |\n\
             | breaker rejections | {} |\n\
             | deadline blown | {} |\n\
             | frames dead-lettered | {} |\n\
             | latency p50/p95/p99 (s) | {:.3} / {:.3} / {:.3} |\n\
             | instances detected | {} |\n\
             | instances local-only | {} |\n\
             | missed: filtered by predictor | {} |\n\
             | missed: dropped by faults | {} |\n",
            self.availability,
            self.submissions,
            self.retries,
            self.breaker_rejections,
            self.deadline_blown,
            self.frames_dropped,
            p50,
            p95,
            p99,
            a.detected,
            a.local_unconfirmed,
            a.filtered_by_predictor,
            a.dropped_by_faults,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resilience_report_renders_and_round_trips_stats() {
        let stats = ResilienceStats {
            submissions: 10,
            delivered: 8,
            degraded: 2,
            retries: 3,
            frames_dropped: 120,
            latencies: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            ..ResilienceStats::default()
        };
        let attribution = MissAttribution {
            detected: 4,
            local_unconfirmed: 0,
            filtered_by_predictor: 1,
            dropped_by_faults: 2,
        };
        let r = ResilienceReport::from_stats(&stats, attribution);
        assert!((r.availability - 0.8).abs() < 1e-12);
        let (p50, p95, p99) = r.latency.unwrap();
        assert!(p50 <= p95 && p95 <= p99);
        let md = r.to_markdown();
        assert!(md.contains("| availability | 0.8000 |"));
        assert!(md.contains("| missed: dropped by faults | 2 |"));
        assert!(md.contains("| retries | 3 |"));
    }

    #[test]
    fn resilience_report_handles_zero_deliveries() {
        let stats = ResilienceStats {
            submissions: 4,
            degraded: 4,
            ..ResilienceStats::default()
        };
        let r = ResilienceReport::from_stats(&stats, MissAttribution::default());
        assert_eq!(r.availability, 0.0);
        assert!(r.latency.is_none());
        assert!(r.to_markdown().contains("NaN / NaN / NaN"));
    }
}

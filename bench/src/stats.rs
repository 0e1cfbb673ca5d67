//! Order statistics the benchmark reports: medians, the quartile spread
//! printed beside every timing, the "highest percentile that still has
//! at least ten samples beyond it" rule, and the per-segment rates.

/// Minimum number of samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Sorts a sample in place (total order; the harness never records NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// The `q`-quantile of an ascending-sorted sample by the workspace's one
/// nearest-rank rule (`eventhit_telemetry::percentile`); `0.0` for an
/// empty sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    eventhit_telemetry::percentile(sorted, q).unwrap_or(0.0)
}

/// Median of an unsorted sample (mean of the two middle values for an
/// even count); `0.0` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the driver computes over repeated runs, and the
/// one printed next to every per-segment median. Quartiles follow
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) so a
/// spread computed here equals the driver's. `0.0` below two samples.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let cut = |k: usize| -> f64 {
        // Exclusive method: position k*(n+1)/4 on a 1-based axis.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    ((cut(3) - cut(1)) / med).abs()
}

/// The highest percentile, among the conventional ladder, that still has
/// at least [`TAIL_SAMPLES`] samples beyond it in a sample of `n`
/// values; `None` when even the median does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // (percentile, samples beyond it per 10 000) — whole numbers, so the
    // count beyond is exact where `(1.0 - 0.9) * 100.0` would read 9.99.
    const LADDER: [(f64, usize); 6] = [
        (0.9999, 1),
        (0.999, 10),
        (0.99, 100),
        (0.95, 500),
        (0.9, 1_000),
        (0.5, 5_000),
    ];
    LADDER
        .into_iter()
        .find(|&(_, beyond)| n * beyond / 10_000 >= TAIL_SAMPLES)
        .map(|(p, _)| p)
}

/// One boundary sample of a run: when it was taken and the cumulative
/// work and CPU time at that moment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Nanoseconds since the run's origin.
    pub at_ns: u64,
    /// Frames completed so far.
    pub frames: u64,
    /// Process CPU time (user + system) so far, in nanoseconds.
    pub cpu_ns: u64,
}

/// One measured segment: the difference of two consecutive samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Frames completed inside the segment.
    pub frames: u64,
    /// Wall time of the segment in seconds.
    pub seconds: f64,
    /// CPU nanoseconds spent inside the segment.
    pub cpu_ns: u64,
}

impl Segment {
    /// Frames per second of wall time.
    pub fn frames_per_s(&self) -> f64 {
        if self.seconds > 0.0 {
            self.frames as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// CPU nanoseconds per frame.
    pub fn cpu_ns_per_frame(&self) -> f64 {
        if self.frames > 0 {
            self.cpu_ns as f64 / self.frames as f64
        } else {
            0.0
        }
    }
}

/// Splits a run into segments from its boundary samples. The first
/// sample closes the warm-up, which is discarded; every later sample
/// closes one measured segment.
pub fn segments(samples: &[Sample]) -> Vec<Segment> {
    samples
        .windows(2)
        .map(|w| Segment {
            frames: w[1].frames - w[0].frames,
            seconds: (w[1].at_ns - w[0].at_ns) as f64 / 1e9,
            cpu_ns: w[1].cpu_ns.saturating_sub(w[0].cpu_ns),
        })
        .collect()
}

/// The boundary instants of a run measured for `measure_ns` after a
/// warm-up of `warmup_ns`: the end of the warm-up, then the end of each
/// of `parts` equal segments. The last boundary is exactly
/// `warmup_ns + measure_ns`, whatever the rounding of the others.
pub fn boundaries(warmup_ns: u64, measure_ns: u64, parts: u64) -> Vec<u64> {
    (0..=parts)
        .map(|k| warmup_ns + measure_ns * k / parts.max(1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(5), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(999), Some(0.95));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(highest_supported_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn quantiles_follow_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        let v = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0]), 0.0);
    }

    #[test]
    fn segments_discard_the_warm_up_and_difference_the_rest() {
        let at = boundaries(1_000, 10_000, 5);
        assert_eq!(at, vec![1_000, 3_000, 5_000, 7_000, 9_000, 11_000]);
        // Rounding never moves the final boundary.
        assert_eq!(boundaries(7, 10, 3).last(), Some(&17));
        let samples: Vec<Sample> = at
            .iter()
            .enumerate()
            .map(|(k, &at_ns)| Sample {
                at_ns,
                frames: 100 + 50 * k as u64,
                cpu_ns: 10 * k as u64,
            })
            .collect();
        let segs = segments(&samples);
        assert_eq!(segs.len(), 5, "the warm-up is not a segment");
        for s in &segs {
            assert_eq!(s.frames, 50);
            assert_eq!(s.cpu_ns, 10);
            assert!((s.seconds - 2e-6).abs() < 1e-15);
            assert!((s.frames_per_s() - 25e6).abs() < 1.0);
            assert!((s.cpu_ns_per_frame() - 0.2).abs() < 1e-12);
        }
    }
}

//! Nearest-rank percentiles over exact sample sets.
//!
//! The single source of truth for the `⌈q·n⌉`-th order statistic used by
//! the queue simulator and the telemetry snapshot.

/// Nearest-rank percentile of an **ascending-sorted** slice: the
/// `⌈q·n⌉`-th smallest sample (`q` clamped into `[0, 1]`, rank clamped
/// into `[1, n]`). Returns `None` on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// `(p50, p95, p99)` of an ascending-sorted slice; `None` when empty.
pub fn percentiles(sorted: &[f64]) -> Option<(f64, f64, f64)> {
    Some((
        percentile(sorted, 0.50)?,
        percentile(sorted, 0.95)?,
        percentile(sorted, 0.99)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_yields_none() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentiles(&[]), None);
    }

    #[test]
    fn nearest_rank_matches_hand_values() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.50), Some(50.0));
        assert_eq!(percentile(&v, 0.95), Some(95.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(percentile(&[7.5], q), Some(7.5));
        }
        assert_eq!(percentiles(&[7.5]), Some((7.5, 7.5, 7.5)));
    }

    #[test]
    fn out_of_range_q_is_clamped() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&v, -0.5), Some(1.0));
        assert_eq!(percentile(&v, 2.0), Some(3.0));
    }
}

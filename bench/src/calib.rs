//! The host-speed yardstick.
//!
//! The reference host is a 2-vCPU virtual machine whose cores run in one
//! of two states about a quarter apart in speed, switching every few
//! seconds and sometimes staying in one for a whole run: the same
//! single-threaded loop reads 530 or 660 Mops/s depending on when it is
//! asked. Left alone, that is a 15-45% run-to-run spread on every
//! CPU-bound timing, wider than any regression bound worth having.
//!
//! So the measuring thread runs a small fixed kernel every few
//! milliseconds, between operations. The kernel's duration is the host's
//! speed at that moment, and each segment's timings are restated at the
//! reference speed in proportion to the share of the segment the process
//! spent on CPU (waiting on a disk or a timer does not get faster when
//! the core does). Raw timings are printed beside the adjusted ones.

use std::time::Instant;

/// Iterations of the kernel's dependent multiply-add chain.
const ITERATIONS: u32 = 65_536;

/// Duration of one kernel on the reference host in its fast state,
/// nanoseconds (1.55 ns per iteration). A fixed yardstick: on another
/// host every adjusted timing shifts by one constant factor and
/// comparisons between builds are unaffected.
pub const REFERENCE_NS: f64 = 101_600.0;

/// How often the measuring thread runs the kernel, nanoseconds.
pub const PERIOD_NS: u64 = 10_000_000;

/// Runs the kernel once and returns how long it took, nanoseconds. A
/// serial floating-point chain: it cannot be vectorised or reordered,
/// touches no memory, and so times the core and nothing else.
pub fn kernel() -> f64 {
    let t = Instant::now();
    let mut acc = 1.0f32;
    for i in 0..ITERATIONS {
        acc = acc * 0.999 + std::hint::black_box(i as f32);
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as f64
}

/// Host speed relative to the reference (above 1 is faster) given the
/// kernel durations sampled over a stretch of time. The median shrugs
/// off the samples a preemption stretched.
pub fn speed_index(durations_ns: &[f64]) -> f64 {
    let median = crate::stats::median(durations_ns);
    if median > 0.0 {
        REFERENCE_NS / median
    } else {
        1.0
    }
}

/// The factor that restates a wall-clock time measured at host speed
/// `speed` as the time it would have taken at the reference speed, when
/// the share `cpu_share` of it was spent on CPU: the CPU part scales
/// with the host's speed, the waiting part does not.
pub fn time_factor(speed: f64, cpu_share: f64) -> f64 {
    let u = cpu_share.clamp(0.0, 1.0);
    u * speed + (1.0 - u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fast_host_has_its_cpu_time_stretched_and_its_waits_left_alone() {
        // Twice the reference speed, all CPU: the same work would have
        // taken twice as long at the reference.
        assert_eq!(time_factor(2.0, 1.0), 2.0);
        // All waiting: host speed is irrelevant.
        assert_eq!(time_factor(2.0, 0.0), 1.0);
        // A quarter on CPU, host 20% slow: 0.25 * 0.8 + 0.75.
        assert!((time_factor(0.8, 0.25) - 0.95).abs() < 1e-12);
        // At the reference speed nothing moves.
        assert_eq!(time_factor(1.0, 0.6), 1.0);
        assert_eq!(time_factor(1.5, 7.0), 1.5, "a share above 1 is clamped");
    }

    #[test]
    fn speed_index_is_the_reference_over_the_median_duration() {
        assert_eq!(speed_index(&[REFERENCE_NS]), 1.0);
        // One preempted sample among three does not move the median.
        assert_eq!(
            speed_index(&[REFERENCE_NS * 2.0, 9e9, REFERENCE_NS * 2.0]),
            0.5
        );
        assert_eq!(speed_index(&[]), 1.0);
        assert!(kernel() > 0.0);
    }
}

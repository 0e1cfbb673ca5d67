//! The open-loop generator behind the `paced` workload: operations are
//! due on a fixed schedule that does not slow when the system does, and
//! every operation is timed from when it was *due*, so the wait a stall
//! imposes on the operations queued behind it is counted.

use std::time::{Duration, Instant};

/// The generator's view of time, so the scheduler can be tested on a
/// clock that only moves when the test says so.
pub trait Clock {
    /// Nanoseconds since the clock's origin.
    fn now_ns(&self) -> u64;
    /// Blocks until `now_ns() >= at_ns` (returns at once if already past).
    fn sleep_until(&self, at_ns: u64);
}

/// Wall clock anchored at construction.
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose origin is now.
    pub fn start() -> Self {
        WallClock(Instant::now())
    }

    /// A clock sharing another's origin (client threads share the run's).
    pub fn from_origin(origin: Instant) -> Self {
        WallClock(origin)
    }
}

/// Asks the kernel to fire the calling (main) thread's timers on time
/// instead of up to 50 us late, the default slack; threads it spawns
/// afterwards inherit the setting. Keeps the generator's own lateness
/// small beside the latencies it measures. Returns whether it took; the
/// lateness is reported either way.
pub fn tighten_timer_slack() -> bool {
    std::fs::write("/proc/self/timerslack_ns", "1").is_ok()
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Sleeps rather than spins: generator and server share the same
    /// cores, so a spinning generator would take the CPU it is trying to
    /// measure. The price is timer overshoot, reported as lateness.
    fn sleep_until(&self, at_ns: u64) {
        let now = self.now_ns();
        if at_ns > now {
            std::thread::sleep(Duration::from_nanos(at_ns - now));
        }
    }
}

/// A fixed-rate schedule: operation `i` is due at
/// `start_ns + i * interval_ns`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    /// When operation 0 is due.
    pub start_ns: u64,
    /// Gap between consecutive due times.
    pub interval_ns: f64,
    /// Operations on the schedule.
    pub count: u64,
    /// The generator gives up on operations it has not started by this
    /// instant; they are reported as unsent.
    pub give_up_ns: u64,
}

impl Schedule {
    /// `rate_per_s` operations per second for `duration_ns`, starting at
    /// `start_ns`, with `grace_ns` after the last due time to catch up.
    pub fn at_rate(start_ns: u64, rate_per_s: f64, duration_ns: u64, grace_ns: u64) -> Self {
        let interval_ns = 1e9 / rate_per_s;
        Schedule {
            start_ns,
            interval_ns,
            count: (duration_ns as f64 / interval_ns).floor() as u64,
            give_up_ns: start_ns + duration_ns + grace_ns,
        }
    }

    /// Due time of operation `i`.
    pub fn due_ns(&self, i: u64) -> u64 {
        self.start_ns + (i as f64 * self.interval_ns) as u64
    }
}

/// What happened to one scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTiming {
    /// When it was due.
    pub due_ns: u64,
    /// When the generator actually started it (never before `due_ns`).
    pub sent_ns: u64,
    /// When its reply arrived.
    pub done_ns: u64,
}

impl OpTiming {
    /// Reply time measured from the due time.
    pub fn latency_from_due_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }

    /// How late the generator started the operation.
    pub fn lateness_ns(&self) -> u64 {
        self.sent_ns - self.due_ns
    }
}

/// Runs a schedule: waits for each operation's due time, never sends
/// early, sends at once when behind, and stops at `give_up_ns`. Returns
/// the timing of every operation sent; `schedule.count - result.len()`
/// operations were never sent.
pub fn run_schedule(
    clock: &impl Clock,
    schedule: &Schedule,
    mut send: impl FnMut(u64),
) -> Vec<OpTiming> {
    let mut out = Vec::with_capacity(schedule.count as usize);
    for i in 0..schedule.count {
        let due_ns = schedule.due_ns(i);
        if clock.now_ns() < due_ns {
            clock.sleep_until(due_ns);
        }
        let sent_ns = clock.now_ns();
        if sent_ns >= schedule.give_up_ns {
            break;
        }
        send(i);
        out.push(OpTiming {
            due_ns,
            sent_ns,
            done_ns: clock.now_ns(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that moves only when slept on or advanced by the test.
    struct FakeClock {
        now: Cell<u64>,
        /// Every sleep overshoots by this much, like a real timer.
        overshoot: u64,
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.now.get()
        }
        fn sleep_until(&self, at_ns: u64) {
            if at_ns > self.now.get() {
                self.now.set(at_ns + self.overshoot);
            }
        }
    }

    fn fake(overshoot: u64) -> FakeClock {
        FakeClock {
            now: Cell::new(0),
            overshoot,
        }
    }

    #[test]
    fn a_fast_system_is_timed_from_due_and_never_sent_early() {
        let clock = fake(0);
        // 1000 ops/s for 10 ms: due at 0, 1, ..., 9 ms.
        let s = Schedule::at_rate(0, 1_000.0, 10_000_000, 1_000_000);
        assert_eq!(s.count, 10);
        let ops = run_schedule(&clock, &s, |_| clock.now.set(clock.now.get() + 200_000));
        assert_eq!(ops.len(), 10);
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(op.due_ns, i as u64 * 1_000_000);
            assert_eq!(op.sent_ns, op.due_ns, "on time: sent exactly when due");
            assert_eq!(op.lateness_ns(), 0);
            assert_eq!(op.latency_from_due_ns(), 200_000);
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_operations_queued_behind_it() {
        let clock = fake(0);
        let s = Schedule::at_rate(0, 1_000.0, 5_000_000, 10_000_000);
        // Operation 1 stalls for 3 ms; the rest take 0.1 ms.
        let ops = run_schedule(&clock, &s, |i| {
            let service = if i == 1 { 3_000_000 } else { 100_000 };
            clock.now.set(clock.now.get() + service);
        });
        assert_eq!(ops.len(), 5);
        // Op 1: due 1 ms, done 4 ms.
        assert_eq!(ops[1].latency_from_due_ns(), 3_000_000);
        // Op 2 was due at 2 ms but could only start at 4 ms: the stall
        // shows in its lateness and in its latency from due, although
        // its own service took 0.1 ms.
        assert_eq!(ops[2].sent_ns, 4_000_000);
        assert_eq!(ops[2].lateness_ns(), 2_000_000);
        assert_eq!(ops[2].latency_from_due_ns(), 2_100_000);
        // Op 3 (due 3 ms) starts at 4.1 ms, op 4 (due 4 ms) at 4.2 ms:
        // the generator catches up by sending back to back.
        assert_eq!(ops[3].lateness_ns(), 1_100_000);
        assert_eq!(ops[4].lateness_ns(), 200_000);
    }

    #[test]
    fn timer_overshoot_is_reported_as_lateness() {
        let clock = fake(60_000);
        let s = Schedule::at_rate(1_000_000, 1_000.0, 3_000_000, 1_000_000);
        let ops = run_schedule(&clock, &s, |_| clock.now.set(clock.now.get() + 10_000));
        assert_eq!(ops.len(), 3);
        assert!(ops.iter().all(|op| op.lateness_ns() == 60_000));
        assert!(ops.iter().all(|op| op.latency_from_due_ns() == 70_000));
    }

    #[test]
    fn an_overloaded_system_leaves_operations_unsent() {
        let clock = fake(0);
        // 10 ops due over 10 ms, 1 ms of grace, each takes 5 ms.
        let s = Schedule::at_rate(0, 1_000.0, 10_000_000, 1_000_000);
        let ops = run_schedule(&clock, &s, |_| clock.now.set(clock.now.get() + 5_000_000));
        // Starts at 0, 5, 10 ms; at 15 ms the generator has given up.
        assert_eq!(ops.len(), 3);
        assert_eq!(s.count - ops.len() as u64, 7, "seven operations never sent");
        assert_eq!(ops[2].lateness_ns(), 8_000_000);
    }
}

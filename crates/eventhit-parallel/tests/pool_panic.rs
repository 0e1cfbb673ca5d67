//! Panic propagation: a panicking job must surface exactly once at the
//! call site, must not lose sibling jobs silently (the region stops
//! picking up new jobs but joins cleanly), and must leave the pool
//! reusable. Kept in its own test binary so the temporary no-op panic
//! hook cannot swallow backtraces from unrelated tests.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use eventhit_parallel::Pool;

/// Installs a silent panic hook for the duration of `f` so expected
/// panics do not spam test output.
fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

#[test]
fn panic_propagates_once_and_pool_stays_usable() {
    with_quiet_panics(|| {
        for workers in [1usize, 2, 4, 8] {
            let pool = Pool::new(workers);
            for _ in 0..25 {
                let ran = AtomicUsize::new(0);
                let err = catch_unwind(AssertUnwindSafe(|| {
                    pool.run((0..16usize).collect(), |idx| {
                        if idx == 5 {
                            panic!("boom from task {idx}");
                        }
                        ran.fetch_add(1, Ordering::SeqCst);
                    });
                }));
                let payload = err.expect_err("panic must propagate to the caller");
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .expect("payload should be the formatted panic message");
                assert_eq!(msg, "boom from task 5");
                // Jobs that ran completed exactly once; none ran twice.
                assert!(ran.load(Ordering::SeqCst) <= 15);

                // Clean shutdown: the same pool value works immediately
                // afterwards and produces ordered results.
                let out = pool.run((0..8).collect(), |i: usize| i * 2);
                assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12, 14]);
            }
        }
    });
}

#[test]
fn first_of_many_panics_wins_and_only_one_propagates() {
    with_quiet_panics(|| {
        let pool = Pool::new(4);
        for _ in 0..25 {
            let err = catch_unwind(AssertUnwindSafe(|| {
                pool.run((0..32usize).collect(), |idx| {
                    if idx % 3 == 0 {
                        panic!("multi-panic {idx}");
                    }
                });
            }));
            // Exactly one payload reaches the caller even though many
            // jobs panic; which one is first is scheduling-dependent,
            // but it is always one of ours.
            let payload = err.expect_err("panic must propagate");
            let msg = payload.downcast_ref::<String>().expect("formatted message");
            assert!(msg.starts_with("multi-panic "), "unexpected payload: {msg}");
        }
    });
}

#[test]
fn panic_in_nested_region_unwinds_through_outer_region() {
    with_quiet_panics(|| {
        let outer = Pool::new(2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            outer.run((0..4usize).collect(), |i| {
                let inner = Pool::new(2);
                inner.run((0..4usize).collect(), |j| {
                    if i == 2 && j == 3 {
                        panic!("nested boom");
                    }
                });
            });
        }));
        let payload = err.expect_err("nested panic must reach the caller");
        // A literal panic message arrives as &'static str, not String.
        let msg = payload.downcast_ref::<&str>().expect("literal message");
        assert_eq!(*msg, "nested boom");
        // Both pools remain usable.
        assert_eq!(outer.run(vec![0, 1, 2], |i: usize| i + 1), vec![1, 2, 3]);
    });
}

//! Pool stress test: uneven task durations, nested spawns, and repeated
//! runs. Every iteration checks exactly-once execution and ordered
//! results; the loop count is high enough to shake out scheduling races.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use eventhit_parallel::{DeterministicReduce, Pool};

/// Burns CPU proportional to `units` and returns a value derived from
/// the work so the optimizer cannot elide it.
fn spin(units: usize) -> u64 {
    let mut acc = 0u64;
    for i in 0..units {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
    }
    acc | 1
}

#[test]
fn uneven_durations_execute_exactly_once_in_order() {
    const ITERS: usize = 100;
    const TASKS: usize = 33;
    for iter in 0..ITERS {
        let counts: Vec<AtomicUsize> = (0..TASKS).map(|_| AtomicUsize::new(0)).collect();
        let reduce = DeterministicReduce::with_capacity(TASKS);
        let pool = Pool::new(1 + iter % 8);
        pool.run_tasks((0..TASKS).collect(), |i, idx| {
            // Task cost varies ~300x across indices so workers actually
            // rebalance: early tasks are heavy, late ones nearly free.
            let heavy = (TASKS - idx) * (TASKS - idx) * 50;
            let _ = spin(heavy);
            counts[idx].fetch_add(1, Ordering::SeqCst);
            reduce.submit(i, idx as u64 * 7 + 1);
        });
        for (idx, c) in counts.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::SeqCst),
                1,
                "iter {iter}: task {idx} ran {} times",
                c.load(Ordering::SeqCst)
            );
        }
        let got = reduce.into_ordered();
        let want: Vec<u64> = (0..TASKS as u64).map(|i| i * 7 + 1).collect();
        assert_eq!(got, want, "iter {iter}: out-of-order results");
    }
}

#[test]
fn no_task_is_stranded_behind_a_busy_worker() {
    // Task 0 holds its worker until every other task has finished, so
    // the region completes only if the remaining workers take everything
    // else — including tasks submitted right behind task 0.
    const TASKS: usize = 16;
    for workers in [2, 4] {
        let done = AtomicUsize::new(0);
        Pool::new(workers).run_tasks((0..TASKS).collect(), |_, idx| {
            if idx == 0 {
                let deadline = Instant::now() + Duration::from_secs(30);
                while done.load(Ordering::SeqCst) < TASKS - 1 {
                    assert!(
                        Instant::now() < deadline,
                        "workers={workers}: {} of {} tasks stranded behind task 0",
                        TASKS - 1 - done.load(Ordering::SeqCst),
                        TASKS - 1
                    );
                    std::thread::yield_now();
                }
            } else {
                done.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(done.load(Ordering::SeqCst), TASKS - 1, "workers={workers}");
    }
}

#[test]
fn nested_spawns_complete_without_deadlock() {
    // Each outer task runs its own inner pool region. Scoped threads are
    // created per region, so inner regions cannot starve waiting on
    // workers held by outer regions.
    const ITERS: usize = 100;
    for iter in 0..ITERS {
        let outer = Pool::new(4);
        let results = outer.map(6, |i| {
            let inner = Pool::new(2);
            let parts = inner.map_chunked(10, 3, move |j| (i * 100 + j) as u64);
            parts.iter().sum::<u64>()
        });
        let want: Vec<u64> = (0..6u64)
            .map(|i| (0..10).map(|j| i * 100 + j).sum())
            .collect();
        assert_eq!(results, want, "iter {iter}");
    }
}

#[test]
fn pool_survives_repeated_reuse() {
    // One Pool value driving many regions back to back — no worker
    // residue can leak between regions because threads are scoped.
    let pool = Pool::new(3);
    let mut total = 0u64;
    for round in 0..200usize {
        let out = pool.map_chunked(round % 17, 2, |i| i as u64 + round as u64);
        total += out.iter().sum::<u64>();
        assert_eq!(out.len(), round % 17);
    }
    assert!(total > 0);
}

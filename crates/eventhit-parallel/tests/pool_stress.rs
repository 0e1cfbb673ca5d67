//! Pool stress test: uneven job durations, nested regions, and repeated
//! runs. Every iteration checks exactly-once execution and job-ordered
//! outputs; the loop count is high enough to shake out scheduling races.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use eventhit_parallel::Pool;

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
        let pool = Pool::new(1 + iter % 8);
        let got = pool.run((0..TASKS).collect(), |idx: usize| {
            // Job cost varies ~300x across indices so workers actually
            // rebalance: early jobs are heavy, late ones nearly free.
            let heavy = (TASKS - idx) * (TASKS - idx) * 50;
            let _ = spin(heavy);
            counts[idx].fetch_add(1, Ordering::SeqCst);
            idx as u64 * 7 + 1
        });
        for (idx, c) in counts.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::SeqCst),
                1,
                "iter {iter}: job {idx} ran {} times",
                c.load(Ordering::SeqCst)
            );
        }
        let want: Vec<u64> = (0..TASKS as u64).map(|i| i * 7 + 1).collect();
        assert_eq!(got, want, "iter {iter}: out-of-order results");
    }
}

#[test]
fn no_task_is_stranded_behind_a_busy_worker() {
    // Job 0 holds its thread until every other job has finished, so the
    // region completes only if the remaining threads take everything
    // else — including the jobs right behind job 0.
    const TASKS: usize = 16;
    for workers in [2, 4] {
        let done = AtomicUsize::new(0);
        Pool::new(workers).run((0..TASKS).collect(), |idx: usize| {
            if idx == 0 {
                let deadline = Instant::now() + Duration::from_secs(30);
                while done.load(Ordering::SeqCst) < TASKS - 1 {
                    assert!(
                        Instant::now() < deadline,
                        "workers={workers}: {} of {} jobs stranded behind job 0",
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
    // Each outer job runs its own explicit inner pool's region. Every
    // region brings its own workers, so inner regions cannot starve
    // waiting on threads held by outer ones.
    const ITERS: usize = 100;
    for iter in 0..ITERS {
        let outer = Pool::new(4);
        let results = outer.run((0..6).collect(), |i: u64| {
            let inner = Pool::new(2);
            let parts = inner.run((0..10).collect(), move |j: u64| i * 100 + j);
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
        let out = pool.run((0..round % 17).collect(), |i: usize| (i + round) as u64);
        total += out.iter().sum::<u64>();
        assert_eq!(out.len(), round % 17);
    }
    assert!(total > 0);
}

#[test]
fn a_region_runs_on_the_caller_and_at_most_min_workers_jobs_threads() {
    let caller = thread::current().id();
    let threads_of = |workers: usize, jobs: usize| {
        let seen = Mutex::new(HashSet::<ThreadId>::new());
        Pool::new(workers).run(vec![(); jobs], |()| {
            seen.lock().unwrap().insert(thread::current().id());
            // Long enough that the spawned threads take jobs too.
            thread::sleep(Duration::from_millis(2));
        });
        seen.into_inner().unwrap()
    };
    // One job, or one worker: the caller's thread only.
    for (workers, jobs) in [(1, 1), (1, 9), (4, 1), (8, 1)] {
        let seen = threads_of(workers, jobs);
        assert_eq!(
            seen,
            HashSet::from([caller]),
            "{workers} workers, {jobs} jobs"
        );
    }
    // n jobs on w workers: at most min(w, n) threads, the caller's among
    // them.
    for (workers, jobs) in [(2, 2), (2, 7), (3, 2), (4, 9), (8, 3)] {
        let seen = threads_of(workers, jobs);
        assert!(seen.contains(&caller), "{workers} workers, {jobs} jobs");
        assert!(
            seen.len() <= workers.min(jobs),
            "{workers} workers, {jobs} jobs ran on {} threads",
            seen.len()
        );
    }
}

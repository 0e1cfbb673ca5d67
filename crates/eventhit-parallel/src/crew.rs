//! A crew: a pool's workers kept resident across many short regions.
//!
//! Every region in the workspace runs on a crew. [`Pool::crew`] spawns
//! `workers - 1` threads once for the closure it runs; every
//! [`Crew::run`] inside it hands them a list of jobs, the caller working
//! beside them, and waits for all of them. The jobs are values of one
//! type, moved in and out, so they may carry anything the closure owns,
//! and one handler, borrowed for the crew's life, runs them all. A
//! training run keeps one crew for its thousands of millisecond-long
//! step regions; [`Pool::run`] is the one-shot form, one crew with one
//! run, for coarse regions that happen once.
//!
//! The determinism contract: jobs are independent, a job computes the
//! same output on any thread, and [`Crew::run`] returns the outputs in
//! job order, so the worker count decides where a job runs, never what
//! the run returns.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

use crate::pool::{with_workers, Pool};

/// Workers resident for the life of a [`Pool::crew`] closure. See the
/// module docs.
pub struct Crew<'c, J, O> {
    workers: usize,
    handler: &'c (dyn Fn(J) -> O + Sync),
    shared: &'c Shared<J, O>,
}

struct Shared<J, O> {
    state: Mutex<State<J, O>>,
    /// Signalled when jobs arrive or the crew is dismissed.
    work: Condvar,
    /// Signalled when the last job of a run finishes.
    idle: Condvar,
}

struct State<J, O> {
    queue: VecDeque<(usize, J)>,
    outputs: Vec<Option<O>>,
    /// Jobs of the current run not yet finished (queued or running).
    pending: usize,
    panic: Option<Box<dyn Any + Send>>,
    dismissed: bool,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Pool {
    /// Runs `body` with this pool's workers resident: `workers - 1`
    /// threads are spawned once, and every [`Crew::run`] inside `body`
    /// runs `handler` on its jobs on them and on the calling thread. On
    /// one worker nothing is spawned and every job runs inline, in order.
    ///
    /// ```
    /// use eventhit_parallel::Pool;
    ///
    /// let sums = Pool::new(4).crew(
    ///     |range: std::ops::Range<u64>| range.sum::<u64>(),
    ///     |crew| (0..3).map(|_| crew.run(vec![0..10, 10..20])).collect::<Vec<_>>(),
    /// );
    /// assert_eq!(sums, vec![vec![45, 145]; 3]);
    /// ```
    pub fn crew<J: Send, O: Send, R>(
        &self,
        handler: impl Fn(J) -> O + Sync,
        body: impl FnOnce(&Crew<'_, J, O>) -> R,
    ) -> R {
        let shared = Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                outputs: Vec::new(),
                pending: 0,
                panic: None,
                dismissed: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        };
        let crew = Crew {
            workers: self.workers(),
            handler: &handler,
            shared: &shared,
        };
        thread::scope(|scope| {
            // Dismissed however `body` ends, so the scope can join.
            let _dismiss = Dismiss(&shared);
            for _ in 1..crew.workers {
                scope.spawn(|| with_workers(1, || crew.serve()));
            }
            body(&crew)
        })
    }
}

/// Dismisses the crew when dropped.
struct Dismiss<'a, J, O>(&'a Shared<J, O>);

impl<J, O> Drop for Dismiss<'_, J, O> {
    fn drop(&mut self) {
        lock(&self.0.state).dismissed = true;
        self.0.work.notify_all();
    }
}

impl<J: Send, O: Send> Crew<'_, J, O> {
    /// The number of threads that run jobs, the caller's included.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs the handler once on every job and returns the outputs in job
    /// order. The caller takes jobs from the queue like a worker and
    /// returns when the last one is done. If a job panics, the jobs not
    /// yet started are dropped, the running ones finish, and the first
    /// panic resumes here; the crew stays usable.
    ///
    /// # Panics
    /// Besides a job's panic: if another `run` of this crew is in
    /// progress.
    pub fn run(&self, jobs: Vec<J>) -> Vec<O> {
        if self.workers <= 1 || jobs.len() <= 1 {
            return jobs.into_iter().map(self.handler).collect();
        }
        let n = jobs.len();
        let mut state = lock(&self.shared.state);
        assert_eq!(state.pending, 0, "Crew::run is not reentrant");
        state.outputs = (0..n).map(|_| None).collect();
        state.queue.extend(jobs.into_iter().enumerate());
        state.pending = n;
        self.shared.work.notify_all();
        loop {
            if let Some((i, job)) = state.queue.pop_front() {
                drop(state);
                let out =
                    catch_unwind(AssertUnwindSafe(|| with_workers(1, || (self.handler)(job))));
                state = lock(&self.shared.state);
                self.finish(&mut state, i, out);
            } else if state.pending == 0 {
                break;
            } else {
                state = self
                    .shared
                    .idle
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        let outputs = std::mem::take(&mut state.outputs);
        if let Some(payload) = state.panic.take() {
            drop(state);
            resume_unwind(payload);
        }
        outputs
            .into_iter()
            .map(|o| o.expect("every job of a run finishes"))
            .collect()
    }

    /// A resident worker's loop: run jobs as they come until dismissed.
    fn serve(&self) {
        let mut state = lock(&self.shared.state);
        while !state.dismissed {
            if let Some((i, job)) = state.queue.pop_front() {
                drop(state);
                let out = catch_unwind(AssertUnwindSafe(|| (self.handler)(job)));
                state = lock(&self.shared.state);
                self.finish(&mut state, i, out);
            } else {
                state = self
                    .shared
                    .work
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// Records job `i`'s outcome; the first panic drops the jobs not yet
    /// started.
    fn finish(&self, state: &mut State<J, O>, i: usize, out: thread::Result<O>) {
        match out {
            Ok(out) => state.outputs[i] = Some(out),
            Err(payload) => {
                state.panic.get_or_insert(payload);
                state.pending -= state.queue.len();
                state.queue.clear();
            }
        }
        state.pending -= 1;
        if state.pending == 0 {
            self.shared.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::current_workers;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_return_outputs_in_job_order_at_any_worker_count() {
        for workers in [1, 2, 4, 8] {
            let got = Pool::new(workers).crew(
                |i: usize| i * i,
                |crew| {
                    assert_eq!(crew.workers(), workers);
                    (0..20)
                        .map(|r| crew.run((0..r).collect()))
                        .collect::<Vec<_>>()
                },
            );
            let want: Vec<Vec<usize>> = (0..20).map(|r| (0..r).map(|i| i * i).collect()).collect();
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn jobs_run_beside_the_caller_and_see_an_ambient_count_of_one() {
        let threads = Mutex::new(HashSet::new());
        let ambient = Pool::new(3).crew(
            |_: usize| {
                lock(&threads).insert(thread::current().id());
                thread::sleep(std::time::Duration::from_millis(5));
                current_workers()
            },
            |crew| crew.run((0..6).collect()),
        );
        assert_eq!(ambient, vec![1; 6]);
        let threads = threads.into_inner().unwrap();
        // Six 5 ms jobs: the resident workers took some, and no thread
        // beyond the caller and its two workers ran one.
        assert!((2..=3).contains(&threads.len()), "{threads:?}");
    }

    #[test]
    fn a_panicking_job_surfaces_once_and_the_crew_stays_usable() {
        let ran = AtomicUsize::new(0);
        Pool::new(4).crew(
            |i: usize| {
                if i == 3 {
                    panic!("job {i} failed");
                }
                ran.fetch_add(1, Ordering::SeqCst);
                i
            },
            |crew| {
                let err = catch_unwind(AssertUnwindSafe(|| crew.run((0..64).collect())));
                let payload = err.expect_err("the panic reaches the caller");
                assert_eq!(payload.downcast_ref::<String>().unwrap(), "job 3 failed");
                assert!(ran.load(Ordering::SeqCst) < 64);
                assert_eq!(crew.run(vec![5, 6, 7]), vec![5, 6, 7]);
            },
        );
    }

    #[test]
    fn a_panicking_body_dismisses_the_crew() {
        let err = catch_unwind(|| {
            Pool::new(4).crew(
                |i: usize| i,
                |crew| {
                    crew.run(vec![1, 2]);
                    panic!("body failed");
                },
            )
        });
        assert!(err.is_err(), "the scope joined and the panic went on");
    }
}

//! The scoped thread pool.
//!
//! A [`ThreadPool`] owns a fixed set of persistent worker threads fed
//! from one shared FIFO queue. Work enters through [`ThreadPool::scoped`],
//! which hands the caller a [`Scope`] whose jobs may borrow from the
//! caller's stack: the scope blocks until every job it spawned has
//! finished, so those borrows never outlive the data they point into
//! (the same contract as [`std::thread::scope`], amortised over
//! long-lived workers instead of fresh OS threads per call).
//!
//! While a scope waits it *helps*: it pops queued jobs — its own or
//! another scope's — and runs them inline. That keeps nested scopes
//! (a parallel job that itself fans out) deadlock-free even when every
//! worker is busy, and lets a pool of one worker still drain arbitrarily
//! many queued jobs.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// A type-erased unit of work. Jobs are `'static` from the queue's point
/// of view; [`Scope::spawn`] is the only producer of non-`'static`
/// closures and guarantees they complete before their borrows expire.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Queue state shared between the pool handle and its workers.
struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
    shutdown: AtomicBool,
}

impl PoolShared {
    fn push(&self, job: Job) {
        self.queue.lock().expect("gmlfm-par: queue poisoned").push_back(job);
        self.job_ready.notify_one();
    }

    fn try_pop(&self) -> Option<Job> {
        self.queue.lock().expect("gmlfm-par: queue poisoned").pop_front()
    }
}

/// A fixed-size pool of persistent worker threads with scoped execution.
///
/// [`crate::global`] lazily builds the one process-wide pool, sized by
/// [`crate::Parallelism::auto`], and [`crate::par_blocks`] runs on it;
/// this module's tests build private pools for an isolated worker set.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns a pool with exactly `threads` persistent workers.
    pub fn new(threads: NonZeroUsize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..threads.get())
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("gmlfm-par-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("gmlfm-par: failed to spawn worker thread")
            })
            .collect();
        Self { shared, workers }
    }

    /// Runs `f` with a [`Scope`] whose jobs may borrow from the current
    /// stack frame. Returns once `f` *and every job it spawned* have
    /// completed. Panics (after all jobs finish) if any job panicked.
    pub fn scoped<'pool, 'scope, R>(&'pool self, f: impl FnOnce(&Scope<'pool, 'scope>) -> R) -> R {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState {
                pending: Mutex::new(0),
                done: Condvar::new(),
                panicked: AtomicBool::new(false),
            }),
            _scope: PhantomData,
        };
        let out = f(&scope);
        scope.wait();
        // ORDERING: Acquire pairs with the Release store in
        // `ScopeState::run` — a panic flag raised by any job is visible
        // here once `wait` has observed that job's completion.
        if scope.state.panicked.load(Ordering::Acquire) {
            panic!("gmlfm-par: a scoped job panicked");
        }
        out
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // ORDERING: Release pairs with the workers' Acquire load — any
        // writes made before requesting shutdown are visible to a worker
        // that observes the flag and exits.
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.job_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("gmlfm-par: queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                // ORDERING: Acquire pairs with the Release store in
                // `ThreadPool::drop`; a worker that sees the flag also
                // sees everything the dropping thread did before it.
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared.job_ready.wait(queue).expect("gmlfm-par: queue poisoned");
            }
        };
        job();
    }
}

/// Completion tracking for one scope: a count of in-flight jobs plus a
/// flag recording whether any of them panicked.
struct ScopeState {
    pending: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl ScopeState {
    /// Runs a job body, recording a panic instead of unwinding into the
    /// worker, then marks the job complete.
    fn run(&self, body: impl FnOnce()) {
        if catch_unwind(AssertUnwindSafe(body)).is_err() {
            // ORDERING: Release pairs with the Acquire load in
            // `ThreadPool::scoped`; the flag is published before the
            // pending count below signals this job's completion.
            self.panicked.store(true, Ordering::Release);
        }
        let mut pending = self.pending.lock().expect("gmlfm-par: scope poisoned");
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }
}

/// Spawn handle passed to the closure of [`ThreadPool::scoped`]. Jobs
/// spawned here may borrow anything that outlives `'scope`.
pub struct Scope<'pool, 'scope> {
    pool: &'pool ThreadPool,
    state: Arc<ScopeState>,
    /// Invariant over `'scope`, so the borrow checker pins spawned
    /// closures to the exact scope lifetime (the [`std::thread::scope`]
    /// trick).
    _scope: PhantomData<&'scope mut &'scope ()>,
}

impl<'pool, 'scope> Scope<'pool, 'scope> {
    /// Queues `f` on the pool. The closure may borrow data living at
    /// least as long as `'scope`; the scope's exit blocks on its
    /// completion.
    pub fn spawn<F: FnOnce() + Send + 'scope>(&self, f: F) {
        *self.state.pending.lock().expect("gmlfm-par: scope poisoned") += 1;
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || state.run(f));
        // SAFETY: the job is erased to `'static` so it can sit in the
        // shared queue, but it never outlives `'scope`: `wait` (called by
        // `scoped` and again by `Drop` as an unwind guard) blocks until
        // `pending` reaches zero, i.e. until this closure has run to
        // completion, before any `'scope` borrow it captured can expire.
        let job: Job = unsafe { std::mem::transmute(job) };
        self.pool.shared.push(job);
    }

    /// Blocks until every job spawned on this scope has completed,
    /// helping to drain the pool's queue while waiting (which keeps
    /// nested scopes deadlock-free).
    fn wait(&self) {
        loop {
            {
                let pending = self.state.pending.lock().expect("gmlfm-par: scope poisoned");
                if *pending == 0 {
                    return;
                }
            }
            // Help: run any queued job (ours or another scope's).
            if let Some(job) = self.pool.shared.try_pop() {
                job();
                continue;
            }
            // Nothing runnable here — our remaining jobs are in flight on
            // workers. Sleep briefly; the timed wait sidesteps any missed
            // wake-up between the pending check and the condvar park.
            let pending = self.state.pending.lock().expect("gmlfm-par: scope poisoned");
            if *pending == 0 {
                return;
            }
            let _ = self
                .state
                .done
                .wait_timeout(pending, Duration::from_millis(1))
                .expect("gmlfm-par: scope poisoned");
        }
    }
}

impl Drop for Scope<'_, '_> {
    fn drop(&mut self) {
        // Unwind guard: if the `scoped` closure panics with jobs still in
        // flight, their stack borrows must stay valid until they finish.
        self.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn pool(n: usize) -> ThreadPool {
        ThreadPool::new(NonZeroUsize::new(n).unwrap())
    }

    #[test]
    fn scoped_jobs_borrow_stack_data() {
        let pool = pool(3);
        let mut out = vec![0usize; 8];
        pool.scoped(|s| {
            for (i, slot) in out.iter_mut().enumerate() {
                s.spawn(move || *slot = i * i);
            }
        });
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn more_jobs_than_workers_all_run() {
        let pool = pool(2);
        let counter = AtomicUsize::new(0);
        pool.scoped(|s| {
            for _ in 0..100 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn single_worker_pool_drains_many_jobs() {
        let pool = pool(1);
        let counter = AtomicUsize::new(0);
        pool.scoped(|s| {
            for _ in 0..50 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = pool(2);
        let counter = AtomicUsize::new(0);
        pool.scoped(|outer| {
            for _ in 0..4 {
                outer.spawn(|| {
                    // A job that itself fans out on the same pool.
                    crate::global().scoped(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                counter.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn panicking_job_propagates_after_all_jobs_finish() {
        let pool = pool(2);
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scoped(|s| {
                s.spawn(|| panic!("boom"));
                for _ in 0..10 {
                    let c = Arc::clone(&c2);
                    s.spawn(move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "scope must re-raise the job panic");
        assert_eq!(counter.load(Ordering::Relaxed), 10, "surviving jobs still ran");
    }

    #[test]
    fn scoped_returns_closure_value() {
        let pool = pool(2);
        let got = pool.scoped(|_| 42);
        assert_eq!(got, 42);
    }
}

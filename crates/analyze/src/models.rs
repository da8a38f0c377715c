//! Interleaving model of the workspace's one unsafe concurrency
//! protocol, checked exhaustively by [`crate::sched`].
//!
//! The model mirrors the protocol step for step at the granularity of
//! its shared-memory operations:
//!
//! * [`LatchModel`] — `gmlfm-par`'s scope completion latch: workers pop
//!   queued jobs and decrement the pending count under the lock; the
//!   waiting scope helps drain the queue and rechecks the count under
//!   the same lock before parking. Checked: the scope always
//!   terminates (no lost wakeup) and every job runs exactly once.
//!
//! It has a deliberately broken **hazard variant**,
//! [`LostWakeupLatchModel`], reintroducing the bug the real structure
//! rules out — parking on a stale check made outside the lock. The
//! regression tests assert the checker *finds* it (so "the model
//! passes" stays falsifiable), and the passing model documents *why*
//! the real structure is the fix.
//!
//! `gmlfm-service`'s hot-swap slot has no model here: it is safe Rust
//! (write-once cells behind one atomic index), so the compiler checks
//! what a model would.

use crate::sched::Model;

// ---------------------------------------------------------------------
// Scope completion latch with help-draining
// ---------------------------------------------------------------------

/// Where the waiting scope is in its wait loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum WaiterState {
    /// About to check the pending count (top of the loop).
    Checking,
    /// Helped itself to a queued job; completion step pending.
    Helping,
    /// Parked on the condvar; runnable only after a notify.
    Parked,
    /// Pending count observed zero — the scope returned.
    Done,
    /// (Hazard variant only) decided to park from a stale check made
    /// outside the lock; the park step itself is still to come.
    DecidedPark,
}

/// Per-worker progress.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum WorkerState {
    /// Looking at the queue.
    Idle,
    /// Popped a job; completion (decrement + notify) pending.
    Running,
}

/// The correct protocol, mirroring `Scope::wait` + `ScopeState::run`:
///
/// * workers pop a job (queue op) and complete it (pending decrement +
///   notify, one step — the real code does both under the scope lock);
/// * the waiter checks pending, helps drain the queue when it can, and
///   otherwise *rechecks pending and parks in one atomic step* — the
///   model of "condvar wait under the same mutex the completing worker
///   holds for its decrement + notify". That atomicity is exactly what
///   the lock buys, and exactly what [`LostWakeupLatchModel`] gives up.
///
/// The real `wait` additionally uses a 1 ms `wait_timeout`, a belt over
/// these braces; the model shows the braces alone suffice.
#[derive(Clone)]
pub struct LatchModel {
    /// Jobs queued and not yet popped.
    queue: usize,
    /// Jobs spawned and not yet completed (the latch).
    pending: usize,
    workers: Vec<WorkerState>,
    waiter: WaiterState,
    /// Total completions (each job must run exactly once).
    completed: usize,
    jobs: usize,
}

impl LatchModel {
    /// `workers` pool workers draining `jobs` pre-queued jobs, plus the
    /// waiting scope as the last thread.
    pub fn new(workers: usize, jobs: usize) -> Self {
        Self {
            queue: jobs,
            pending: jobs,
            workers: vec![WorkerState::Idle; workers],
            waiter: WaiterState::Checking,
            completed: 0,
            jobs,
        }
    }

    /// A worker's completion: decrement under the lock, notify when the
    /// latch hits zero (waking a parked waiter). One step — the real
    /// decrement and notify both run under the scope mutex.
    fn complete(&mut self) {
        self.pending -= 1;
        self.completed += 1;
        if self.pending == 0 && self.waiter == WaiterState::Parked {
            self.waiter = WaiterState::Checking;
        }
    }
}

impl Model for LatchModel {
    fn thread_count(&self) -> usize {
        self.workers.len() + 1
    }

    fn done(&self, tid: usize) -> bool {
        if tid < self.workers.len() {
            self.workers[tid] == WorkerState::Idle && self.queue == 0
        } else {
            self.waiter == WaiterState::Done
        }
    }

    fn enabled(&self, tid: usize) -> bool {
        if tid < self.workers.len() {
            !self.done(tid)
        } else {
            self.waiter != WaiterState::Parked && self.waiter != WaiterState::Done
        }
    }

    fn step(&mut self, tid: usize) -> Result<(), String> {
        if tid < self.workers.len() {
            match self.workers[tid] {
                WorkerState::Idle => {
                    // Pop (the queue mutex makes this atomic).
                    if self.queue > 0 {
                        self.queue -= 1;
                        self.workers[tid] = WorkerState::Running;
                    }
                }
                WorkerState::Running => {
                    self.complete();
                    self.workers[tid] = WorkerState::Idle;
                }
            }
            return Ok(());
        }
        match self.waiter {
            WaiterState::Checking => {
                if self.pending == 0 {
                    self.waiter = WaiterState::Done;
                } else if self.queue > 0 {
                    // Help: pop a job to run inline.
                    self.queue -= 1;
                    self.waiter = WaiterState::Helping;
                } else {
                    // Lock; recheck; park — atomic, because the real
                    // condvar wait holds the same mutex the completing
                    // worker's decrement + notify runs under.
                    if self.pending == 0 {
                        self.waiter = WaiterState::Done;
                    } else {
                        self.waiter = WaiterState::Parked;
                    }
                }
            }
            WaiterState::Helping => {
                self.complete();
                self.waiter = WaiterState::Checking;
            }
            state => return Err(format!("waiter stepped in unexpected state {state:?}")),
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        if self.waiter != WaiterState::Done {
            return Err(format!("scope did not terminate (waiter {:?})", self.waiter));
        }
        if self.completed != self.jobs {
            return Err(format!("{} completions for {} jobs", self.completed, self.jobs));
        }
        Ok(())
    }
}

/// Hazard variant: the waiter decides to park from a pending check made
/// *outside* the lock, then parks in a separate step — the classic lost
/// wakeup. The last completion's notify can land in the window between
/// the stale check and the park; the waiter then sleeps forever, which
/// the checker reports as a deadlock.
#[derive(Clone)]
pub struct LostWakeupLatchModel {
    inner: LatchModel,
}

impl LostWakeupLatchModel {
    pub fn new(workers: usize, jobs: usize) -> Self {
        Self { inner: LatchModel::new(workers, jobs) }
    }
}

impl Model for LostWakeupLatchModel {
    fn thread_count(&self) -> usize {
        self.inner.thread_count()
    }

    fn done(&self, tid: usize) -> bool {
        self.inner.done(tid)
    }

    fn enabled(&self, tid: usize) -> bool {
        self.inner.enabled(tid)
    }

    fn step(&mut self, tid: usize) -> Result<(), String> {
        let workers = self.inner.workers.len();
        if tid < workers {
            return self.inner.step(tid);
        }
        match self.inner.waiter {
            WaiterState::Checking => {
                if self.inner.pending == 0 {
                    self.inner.waiter = WaiterState::Done;
                } else if self.inner.queue > 0 {
                    self.inner.queue -= 1;
                    self.inner.waiter = WaiterState::Helping;
                } else {
                    // BUG: commit to parking on the value read here,
                    // without holding the lock for the park itself.
                    self.inner.waiter = WaiterState::DecidedPark;
                }
            }
            WaiterState::DecidedPark => {
                // BUG: park unconditionally; a notify that fired since
                // the check is lost.
                self.inner.waiter = WaiterState::Parked;
            }
            WaiterState::Helping => {
                self.inner.complete();
                self.inner.waiter = WaiterState::Checking;
            }
            state => return Err(format!("waiter stepped in unexpected state {state:?}")),
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        self.inner.check_final()
    }
}

//! A bounded, deterministic model checker for thread interleavings —
//! the loom idea (exhaustively enumerate schedules of an explicit state
//! machine) vendored down to the ~150 lines this workspace needs.
//!
//! A protocol under test is expressed as a [`Model`]: a cloneable state
//! machine whose threads advance one *atomic step* at a time. The
//! checker runs a depth-first search over every schedule (every
//! sequence of "which thread steps next" choices), cloning the state at
//! each branch point. A step may fail (an invariant observed mid-flight
//! was violated), and the final state is checked once every thread is
//! done. The search is:
//!
//! * **exhaustive** within the model's bounds — every interleaving of
//!   the declared steps is visited, so a bug that needs a specific
//!   3-thread timing *will* be found, unlike stress tests that merely
//!   make it likely;
//! * **deterministic** — no clocks, no real threads, no randomness; a
//!   failure replays from its schedule every time;
//! * **bounded** — models take size parameters, and the checker takes a
//!   schedule budget so CI time stays predictable. Exceeding the budget
//!   is reported as its own verdict, never silently passed.
//!
//! What this checks is the *protocol* (the ordering of loads, stores,
//! and CAS operations), not the compiled code: the models in
//! [`crate::models`] mirror the unsafe core of `gmlfm-par` step for
//! step, under sequential consistency. That is deliberately stronger
//! than the declared orderings — see each model's
//! docs for why the checked interleavings still cover the failure modes
//! the weaker orderings admit (torn publication, lost wakeups, dropped
//! updates), which are reorderings *of these same steps*.

/// An explicit-state concurrent protocol: `thread_count` threads, each
/// advanced by [`Model::step`] until [`Model::done`].
pub trait Model: Clone {
    /// Number of threads in the model (fixed for a given instance).
    fn thread_count(&self) -> usize;

    /// Whether thread `tid` has finished all its steps.
    fn done(&self, tid: usize) -> bool;

    /// Whether thread `tid` can take a step *now* (false models a
    /// blocked thread — e.g. parked on a condvar awaiting a notify).
    /// Must be true whenever the thread has a non-blocking step left;
    /// a thread that is not `done` and never becomes `enabled` again is
    /// reported as a deadlock.
    fn enabled(&self, tid: usize) -> bool {
        !self.done(tid)
    }

    /// Advances thread `tid` by one atomic step. Returns `Err` when the
    /// step observes a violated invariant (the checker reports it with
    /// the schedule that led here).
    fn step(&mut self, tid: usize) -> Result<(), String>;

    /// Invariants of the final state, once every thread is done.
    fn check_final(&self) -> Result<(), String>;
}

/// Exploration statistics for a passing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Complete schedules explored (root-to-leaf paths).
    pub schedules: usize,
    /// Total steps executed across all schedules.
    pub steps: usize,
}

/// Outcome of checking one model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every schedule within budget ran to completion and passed.
    Pass(Stats),
    /// Some schedule failed; `schedule` is the thread-id sequence that
    /// reproduces it deterministically.
    Fail { schedule: Vec<usize>, error: String },
    /// The schedule budget was exhausted before the space was covered.
    /// Treated as a configuration error by callers — shrink the model
    /// or raise the budget; never report it as a pass.
    BudgetExceeded { budget: usize },
}

impl Verdict {
    /// True only for [`Verdict::Pass`].
    pub fn passed(&self) -> bool {
        matches!(self, Verdict::Pass(_))
    }
}

/// Exhaustively explores every interleaving of `model`, up to `budget`
/// complete schedules.
pub fn check<M: Model>(model: &M, budget: usize) -> Verdict {
    let mut explorer = Explorer { budget, stats: Stats { schedules: 0, steps: 0 }, schedule: Vec::new() };
    match explorer.dfs(model.clone()) {
        Ok(()) if explorer.stats.schedules > budget => Verdict::BudgetExceeded { budget },
        Ok(()) => Verdict::Pass(explorer.stats),
        Err(Exhausted::Budget) => Verdict::BudgetExceeded { budget },
        Err(Exhausted::Failed(error)) => Verdict::Fail { schedule: explorer.schedule, error },
    }
}

enum Exhausted {
    Budget,
    Failed(String),
}

struct Explorer {
    budget: usize,
    stats: Stats,
    /// On failure: the schedule prefix that reproduces it (maintained
    /// during DFS, left in place when an error propagates up).
    schedule: Vec<usize>,
}

impl Explorer {
    fn dfs<M: Model>(&mut self, state: M) -> Result<(), Exhausted> {
        let n = state.thread_count();
        let runnable: Vec<usize> = (0..n).filter(|&t| !state.done(t) && state.enabled(t)).collect();
        if runnable.is_empty() {
            if (0..n).all(|t| state.done(t)) {
                // A complete schedule.
                self.stats.schedules += 1;
                if self.stats.schedules > self.budget {
                    return Err(Exhausted::Budget);
                }
                return state.check_final().map_err(Exhausted::Failed);
            }
            // Not all done, none enabled: a deadlock is a finding, not
            // an exploration dead end.
            let stuck: Vec<usize> = (0..n).filter(|&t| !state.done(t)).collect();
            return Err(Exhausted::Failed(format!("deadlock: threads {stuck:?} blocked forever")));
        }
        for tid in runnable {
            let mut next = state.clone();
            self.schedule.push(tid);
            self.stats.steps += 1;
            match next.step(tid) {
                Ok(()) => self.dfs(next)?,
                Err(error) => return Err(Exhausted::Failed(error)),
            }
            self.schedule.pop();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads each increment a "non-atomic" counter via a
    /// read-then-write pair of steps: the classic lost update. The
    /// checker must find the interleaving where both read before either
    /// writes.
    #[derive(Clone)]
    struct LostUpdate {
        value: u32,
        /// Per-thread: None = not read yet; Some(v) = read v, write
        /// pending; u32::MAX sentinel via `wrote` flag below.
        read: [Option<u32>; 2],
        wrote: [bool; 2],
    }

    impl Model for LostUpdate {
        fn thread_count(&self) -> usize {
            2
        }
        fn done(&self, tid: usize) -> bool {
            self.wrote[tid]
        }
        fn step(&mut self, tid: usize) -> Result<(), String> {
            match self.read[tid] {
                None => self.read[tid] = Some(self.value),
                Some(v) => {
                    self.value = v + 1;
                    self.wrote[tid] = true;
                }
            }
            Ok(())
        }
        fn check_final(&self) -> Result<(), String> {
            if self.value == 2 {
                Ok(())
            } else {
                Err(format!("lost update: final value {} != 2", self.value))
            }
        }
    }

    #[test]
    fn finds_the_lost_update_interleaving() {
        let model = LostUpdate { value: 0, read: [None; 2], wrote: [false; 2] };
        match check(&model, 1_000) {
            Verdict::Fail { schedule, error } => {
                assert!(error.contains("lost update"), "{error}");
                // Replay: the reported schedule must reproduce the bug.
                let mut replay = model.clone();
                for &tid in &schedule {
                    replay.step(tid).unwrap();
                }
                assert!(replay.check_final().is_err(), "schedule {schedule:?} must replay the failure");
            }
            other => panic!("expected a failure, got {other:?}"),
        }
    }

    /// The same counter with an atomic single-step increment passes.
    #[derive(Clone)]
    struct AtomicUpdate {
        value: u32,
        stepped: [bool; 3],
    }

    impl Model for AtomicUpdate {
        fn thread_count(&self) -> usize {
            3
        }
        fn done(&self, tid: usize) -> bool {
            self.stepped[tid]
        }
        fn step(&mut self, tid: usize) -> Result<(), String> {
            self.value += 1;
            self.stepped[tid] = true;
            Ok(())
        }
        fn check_final(&self) -> Result<(), String> {
            (self.value == 3).then_some(()).ok_or_else(|| "missed increment".into())
        }
    }

    #[test]
    fn atomic_steps_pass_and_count_schedules() {
        match check(&AtomicUpdate { value: 0, stepped: [false; 3] }, 1_000) {
            Verdict::Pass(stats) => {
                // 3 threads × 1 step each → 3! = 6 interleavings.
                assert_eq!(stats.schedules, 6);
            }
            other => panic!("expected a pass, got {other:?}"),
        }
    }

    /// A thread that is never enabled while another must still finish is
    /// a deadlock, and the checker says so.
    #[derive(Clone)]
    struct Stuck {
        first_done: bool,
    }

    impl Model for Stuck {
        fn thread_count(&self) -> usize {
            2
        }
        fn done(&self, tid: usize) -> bool {
            tid == 0 && self.first_done
        }
        fn enabled(&self, tid: usize) -> bool {
            tid == 0 && !self.first_done
        }
        fn step(&mut self, tid: usize) -> Result<(), String> {
            assert_eq!(tid, 0);
            self.first_done = true;
            Ok(())
        }
        fn check_final(&self) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn deadlocks_are_reported_not_skipped() {
        match check(&Stuck { first_done: false }, 1_000) {
            Verdict::Fail { error, .. } => assert!(error.contains("deadlock"), "{error}"),
            other => panic!("expected a deadlock finding, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_is_its_own_verdict() {
        assert_eq!(
            check(&AtomicUpdate { value: 0, stepped: [false; 3] }, 3),
            Verdict::BudgetExceeded { budget: 3 }
        );
    }
}

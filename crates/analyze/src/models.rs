//! Interleaving models of the workspace's two unsafe concurrency
//! protocols, checked exhaustively by [`crate::sched`].
//!
//! Each model mirrors one protocol step for step at the granularity of
//! its shared-memory operations:
//!
//! * [`SlotModel`] — `gmlfm-service`'s `ModelServer` hot-swap slot:
//!   writer allocates a `(generation, snapshot)` state, retains it in
//!   the append-only table, publishes it through one atomic pointer;
//!   readers pin with one atomic load. Checked: no reader ever observes
//!   a torn generation/snapshot pairing, no pinned state is freed, and
//!   generations are monotone per reader.
//! * [`LatchModel`] — `gmlfm-par`'s scope completion latch: workers pop
//!   queued jobs and decrement the pending count under the lock; the
//!   waiting scope helps drain the queue and rechecks the count under
//!   the same lock before parking. Checked: the scope always
//!   terminates (no lost wakeup) and every job runs exactly once.
//!
//! Each has deliberately broken **hazard variants** reintroducing a
//! bug its real counterpart's structure rules out — torn publication
//! through split cells, freeing a superseded state on swap, parking on
//! a stale check outside the lock. The regression tests assert
//! the checker *finds* those (so "the models pass" stays falsifiable),
//! and the passing models document *why* the real structure is the fix.

use crate::sched::Model;

// ---------------------------------------------------------------------
// ModelServer swap/read slot
// ---------------------------------------------------------------------

/// What one retained state holds: the generation and a "snapshot" value
/// stamped to match it at allocation (standing in for the model
/// pointer; any torn pairing shows up as a mismatch).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct SlotState {
    generation: u64,
    snapshot: u64,
}

/// The correct protocol: states are immutable after construction,
/// retained forever (append-only table), and published through a single
/// atomic `current` index — so a reader's one-load pin is atomic with
/// respect to everything the state carries.
#[derive(Clone)]
pub struct SlotModel {
    /// The retained-state table (`Slot::states` — append-only).
    states: Vec<SlotState>,
    /// The atomic `current` pointer, as an index into `states`.
    current: usize,
    /// Writer: swaps remaining, and the allocation staged between the
    /// alloc step and the publish step (swap is two shared-memory
    /// steps, exactly like `Box::into_raw` + `AtomicPtr::store`).
    swaps_left: usize,
    staged: Option<usize>,
    /// Per-reader: reads remaining and the last generation observed
    /// (for the monotonicity invariant).
    reads_left: Vec<usize>,
    last_gen: Vec<u64>,
}

impl SlotModel {
    /// `readers` reader threads doing `reads` pins each, against one
    /// writer doing `swaps` hot-swaps. Thread 0 is the writer.
    pub fn new(readers: usize, reads: usize, swaps: usize) -> Self {
        Self {
            states: vec![SlotState { generation: 1, snapshot: 1 }],
            current: 0,
            swaps_left: swaps,
            staged: None,
            reads_left: vec![reads; readers],
            last_gen: vec![0; readers],
        }
    }
}

impl Model for SlotModel {
    fn thread_count(&self) -> usize {
        1 + self.reads_left.len()
    }

    fn done(&self, tid: usize) -> bool {
        if tid == 0 {
            self.swaps_left == 0 && self.staged.is_none()
        } else {
            self.reads_left[tid - 1] == 0
        }
    }

    fn step(&mut self, tid: usize) -> Result<(), String> {
        if tid == 0 {
            match self.staged.take() {
                // Alloc step: build the immutable state and retain it.
                None => {
                    let generation = self.states[self.current].generation + 1;
                    self.states.push(SlotState { generation, snapshot: generation });
                    self.staged = Some(self.states.len() - 1);
                }
                // Publish step: one atomic store of `current`.
                Some(idx) => {
                    self.current = idx;
                    self.swaps_left -= 1;
                }
            }
            return Ok(());
        }
        // Reader pin: ONE atomic load of `current`, then reads of the
        // pointed-to state. Merged into one step because the state is
        // immutable once reachable through `current` — there is no
        // second shared-memory access whose timing could matter.
        let r = tid - 1;
        let state = self.states.get(self.current).copied().ok_or("reader pinned a freed state")?;
        if state.snapshot != state.generation {
            return Err(format!(
                "torn read: generation {} paired with snapshot {}",
                state.generation, state.snapshot
            ));
        }
        if state.generation < self.last_gen[r] {
            return Err(format!(
                "generation went backwards: {} after {}",
                state.generation, self.last_gen[r]
            ));
        }
        self.last_gen[r] = state.generation;
        self.reads_left[r] -= 1;
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        let want = 1 + self.states.len() - 1;
        let got = self.states[self.current].generation as usize;
        if got == want {
            Ok(())
        } else {
            Err(format!("final generation {got}, expected {want}"))
        }
    }
}

/// Hazard variant: generation and snapshot published through two
/// *separate* shared cells with two separate stores (what you would get
/// by keeping a `generation: AtomicU64` next to the pointer instead of
/// inside the retained state). A reader's two loads can straddle a
/// writer's two stores — the torn pairing the one-pointer protocol
/// makes unrepresentable.
#[derive(Clone)]
pub struct TornSlotModel {
    gen_cell: u64,
    snapshot_cell: u64,
    swaps_left: usize,
    /// Writer mid-swap: generation stored, snapshot store pending.
    gen_stored: bool,
    reads_left: Vec<usize>,
    /// Reader mid-read: the generation it loaded first.
    pinned_gen: Vec<Option<u64>>,
}

impl TornSlotModel {
    pub fn new(readers: usize, reads: usize, swaps: usize) -> Self {
        Self {
            gen_cell: 1,
            snapshot_cell: 1,
            swaps_left: swaps,
            gen_stored: false,
            reads_left: vec![reads; readers],
            pinned_gen: vec![None; readers],
        }
    }
}

impl Model for TornSlotModel {
    fn thread_count(&self) -> usize {
        1 + self.reads_left.len()
    }

    fn done(&self, tid: usize) -> bool {
        if tid == 0 {
            self.swaps_left == 0 && !self.gen_stored
        } else {
            self.reads_left[tid - 1] == 0
        }
    }

    fn step(&mut self, tid: usize) -> Result<(), String> {
        if tid == 0 {
            if !self.gen_stored {
                self.gen_cell += 1;
                self.gen_stored = true;
            } else {
                self.snapshot_cell = self.gen_cell;
                self.gen_stored = false;
                self.swaps_left -= 1;
            }
            return Ok(());
        }
        let r = tid - 1;
        match self.pinned_gen[r].take() {
            None => self.pinned_gen[r] = Some(self.gen_cell),
            Some(generation) => {
                let snapshot = self.snapshot_cell;
                if snapshot != generation {
                    return Err(format!(
                        "torn read: generation {generation} paired with snapshot {snapshot}"
                    ));
                }
                self.reads_left[r] -= 1;
            }
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        Ok(())
    }
}

/// Hazard variant: the writer frees the previous state on swap instead
/// of retaining it (no append-only table). A reader that pinned the old
/// state dereferences freed memory — the use-after-free the retention
/// table exists to prevent.
#[derive(Clone)]
pub struct FreeOnSwapSlotModel {
    /// `live[idx]` — whether state `idx` is still allocated.
    live: Vec<bool>,
    states: Vec<SlotState>,
    current: usize,
    swaps_left: usize,
    reads_left: Vec<usize>,
    /// Reader mid-read: the index it pinned (pin and deref are two
    /// steps here, as they are for any real reader that does more than
    /// one instruction's work with the snapshot).
    pinned: Vec<Option<usize>>,
}

impl FreeOnSwapSlotModel {
    pub fn new(readers: usize, reads: usize, swaps: usize) -> Self {
        Self {
            live: vec![true],
            states: vec![SlotState { generation: 1, snapshot: 1 }],
            current: 0,
            swaps_left: swaps,
            reads_left: vec![reads; readers],
            pinned: vec![None; readers],
        }
    }
}

impl Model for FreeOnSwapSlotModel {
    fn thread_count(&self) -> usize {
        1 + self.reads_left.len()
    }

    fn done(&self, tid: usize) -> bool {
        if tid == 0 {
            self.swaps_left == 0
        } else {
            self.reads_left[tid - 1] == 0
        }
    }

    fn step(&mut self, tid: usize) -> Result<(), String> {
        if tid == 0 {
            // Swap-and-free as one writer step: publish the new state,
            // free the old one. (Splitting it would only add schedules;
            // the hazard needs just one reader pinned across the free.)
            let old = self.current;
            let generation = self.states[old].generation + 1;
            self.states.push(SlotState { generation, snapshot: generation });
            self.live.push(true);
            self.current = self.states.len() - 1;
            self.live[old] = false;
            self.swaps_left -= 1;
            return Ok(());
        }
        let r = tid - 1;
        match self.pinned[r].take() {
            None => self.pinned[r] = Some(self.current),
            Some(idx) => {
                if !self.live[idx] {
                    return Err(format!("use-after-free: reader dereferenced freed state {idx}"));
                }
                self.reads_left[r] -= 1;
            }
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        Ok(())
    }
}

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

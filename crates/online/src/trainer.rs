//! Warm-start retraining on a background thread, published through the
//! eval gate.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

use crate::error::OnlineError;
use crate::gate::{EvalGate, GateMetrics, GateReport};
use crate::handle::OnlineHandle;
use crate::log::InteractionLog;
use gmlfm_data::{Instance, LooTestCase};
use gmlfm_par::Parallelism;
use gmlfm_serve::FrozenModel;
use gmlfm_service::{exec, Interaction, ModelServer, ModelSnapshot, SeenItems};
use gmlfm_train::TrainConfig;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A model the online loop can keep training from its current weights.
///
/// Implementations hold *trainable* parameters whose current values
/// match the serving snapshot (the snapshot was frozen from them), so
/// calling [`warm_fit`](OnlineModel::warm_fit) again continues SGD from
/// the published weights — the warm start — and
/// [`freeze`](OnlineModel::freeze) extracts the next serving candidate.
///
/// `gmlfm-engine` adapts its `Estimator`s onto this trait, so
/// `Recommender::serve_online` retrains the model it serves; an
/// engine-free deployment, a test or a bench implements it on its own
/// model.
pub trait OnlineModel: Send {
    /// Continues training from the current parameters over `train`:
    /// the round's fresh instances, then a replay sample of earlier ones
    /// ([`REPLAY_RATIO`]). Never empty. `cfg` carries the per-round
    /// knobs; SGD trainers with their own epoch configuration may
    /// ignore it.
    fn warm_fit(&mut self, train: &[Instance], cfg: &TrainConfig) -> Result<(), OnlineError>;

    /// Extracts the frozen serving candidate at the current weights.
    fn freeze(&self) -> Result<FrozenModel, OnlineError>;
}

/// Replayed instances per fresh instance in a round's warm fit: a round
/// trains on what its drained events folded, then on `REPLAY_RATIO ×
/// |fresh|` draws with replacement from a pool of the base set and
/// earlier rounds' instances, held at the base set's length by a seeded
/// reservoir — so a round costs what changed, not all history. The
/// smallest of {1, 2, 4, 8} whose `online_loop` HR@10 stayed inside the
/// full re-fit's bound, with no more gate rejections, on four seeds.
pub const REPLAY_RATIO: usize = 1;

/// Tuning knobs of the online loop.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Event count that triggers a background retrain round.
    pub min_events: usize,
    /// Retrain at least this often while any events are pending.
    pub cadence: Duration,
    /// Background thread poll interval (upper bound on trigger latency).
    pub poll: Duration,
    /// Capacity of the bounded [`InteractionLog`].
    pub log_capacity: usize,
    /// Ranking cutoff of the eval gate.
    pub gate_k: usize,
    /// Allowed absolute per-metric regression before the gate rejects.
    pub gate_tolerance: f64,
    /// Per-round training knobs handed to [`OnlineModel::warm_fit`].
    pub train: TrainConfig,
    /// Sampled negatives per positive event (label `-1`, drawn from
    /// items the user has not seen), matching the paper's
    /// implicit-feedback protocol. `0` trains on positives only.
    pub negatives_per_event: usize,
    /// Seed of the deterministic negative-sampling stream and, mixed
    /// with the round number, of each round's replay sample.
    pub seed: u64,
    /// Whether to spawn the background trainer thread. `false` gives a
    /// loop driven only by explicit [`OnlineTrainer::run_once`] calls
    /// (deterministic tests, benches).
    pub background: bool,
    /// Worker count for gate evaluation and index rebuilds.
    pub par: Parallelism,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            min_events: 64,
            cadence: Duration::from_secs(30),
            poll: Duration::from_millis(50),
            log_capacity: 65_536,
            gate_k: 10,
            gate_tolerance: 0.01,
            train: TrainConfig::default(),
            negatives_per_event: 2,
            seed: 0x6f6e_6c69,
            background: true,
            par: Parallelism::serial(),
        }
    }
}

/// What one retrain round did.
#[derive(Debug, Clone, PartialEq)]
pub enum RoundOutcome {
    /// The candidate passed the gate and now serves as `generation`.
    Published {
        /// The generation installed by the swap.
        generation: u64,
        /// The gate comparison that admitted it.
        report: GateReport,
    },
    /// The candidate regressed past the tolerance and was **not**
    /// published; the serving snapshot is unchanged.
    Rejected {
        /// The gate comparison that refused it.
        report: GateReport,
    },
    /// Nothing to do: no events arrived since the last round.
    Skipped,
    /// The round failed before reaching the gate (trainer error, swap
    /// validation); the serving snapshot is unchanged.
    Failed {
        /// What went wrong.
        error: String,
    },
}

/// Point-in-time observability of the loop.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineStatus {
    /// Retrain rounds run (including skipped/failed ones).
    pub rounds: u64,
    /// Rounds that published through the gate.
    pub published: u64,
    /// Rounds the gate rejected.
    pub rejected: u64,
    /// Events dropped because they no longer validated at round time.
    pub skipped_events: u64,
    /// Events awaiting the next round.
    pub pending: usize,
    /// Instances in the replay pool (a reservoir holds it at `base`'s length).
    pub replay_pool: usize,
    /// Outcome of the most recent non-skipped round.
    pub last: Option<RoundOutcome>,
}

/// Mutable round state, serialised by its mutex: the trainable model,
/// the replay pool, the latest fresh instances, and the cached baseline
/// metrics.
struct RoundState {
    model: Box<dyn OnlineModel>,
    /// The base set and earlier rounds' instances, held at the base
    /// set's length by a reservoir over everything ever offered to it.
    pool: Vec<Instance>,
    /// Instances ever offered to the pool, base set included.
    offered: u64,
    /// The latest drained events' instances, in fold order. They join
    /// the pool when the next round that drains events starts, so a
    /// retry after a rejection trains on them again.
    fresh: Vec<Instance>,
    /// Cached `(generation, metrics)` of the serving baseline, so the
    /// gate scores the baseline once per published generation.
    baseline: Option<(u64, GateMetrics)>,
    /// Deterministic xorshift state of the negative sampler.
    neg_rng: u64,
}

/// Wake-up channel between the public API and the background thread.
struct Signal {
    kicked: bool,
}

struct Shared {
    server: ModelServer,
    log: Arc<InteractionLog>,
    gate: EvalGate,
    cfg: OnlineConfig,
    round: Mutex<RoundState>,
    /// Outcome of the most recent non-skipped round. Its own lock,
    /// written once at the end of a round, so [`OnlineTrainer::status`]
    /// copies it without waiting behind the round mutex — which a
    /// retrain holds for its whole warm fit.
    last: Mutex<Option<RoundOutcome>>,
    signal: Mutex<Signal>,
    wake: Condvar,
    shutdown: AtomicBool,
    rounds: AtomicU64,
    published: AtomicU64,
    rejected: AtomicU64,
    skipped_events: AtomicU64,
    replay_pool: AtomicUsize,
}

impl Shared {
    fn lock_round(&self) -> MutexGuard<'_, RoundState> {
        self.round.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    fn lock_last(&self) -> MutexGuard<'_, Option<RoundOutcome>> {
        self.last.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    fn lock_signal(&self) -> MutexGuard<'_, Signal> {
        self.signal.lock().unwrap_or_else(|poison| poison.into_inner())
    }
}

/// The retrain half of the online loop: drains the [`InteractionLog`],
/// warm-starts the model from its current (published) weights over the
/// drained events plus a bounded replay sample, freezes the candidate and has
/// the [`EvalGate`] judge it. **Only** a passed candidate becomes the
/// pinned snapshot's [`successor`](ModelSnapshot::successor) — which
/// rebuilds the IVF index of a metric-mode snapshot — and is published
/// via [`ModelServer::swap`]; a rejected round builds nothing. Readers
/// are never blocked: all heavy work happens off the request path, and
/// the swap itself is one cell write and one index store in the server.
pub struct OnlineTrainer {
    shared: Arc<Shared>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl OnlineTrainer {
    /// Launches the trainer over `server`, draining `log`; validates
    /// what [`OnlineServing::launch`] documents.
    pub(crate) fn launch(
        server: ModelServer,
        log: Arc<InteractionLog>,
        model: Box<dyn OnlineModel>,
        base: Vec<Instance>,
        holdout: Vec<LooTestCase>,
        cfg: OnlineConfig,
    ) -> Result<Self, OnlineError> {
        if server.snapshot().1.catalog.is_none() {
            return Err(OnlineError::Launch("serving snapshot carries no catalog".into()));
        }
        if base.is_empty() {
            return Err(OnlineError::Launch("base training set is empty".into()));
        }
        if cfg.train.batch_size == 0 {
            // Every fit would panic on its first chunk; on the background
            // thread that panic ends the loop without a `RoundOutcome`.
            return Err(OnlineError::Launch("train.batch_size is 0".into()));
        }
        let gate = EvalGate::new(holdout, cfg.gate_k, cfg.gate_tolerance)?;
        let replay_pool = base.len();
        let shared = Arc::new(Shared {
            server,
            log,
            gate,
            round: Mutex::new(RoundState {
                model,
                offered: replay_pool as u64,
                pool: base,
                fresh: Vec::new(),
                baseline: None,
                neg_rng: cfg.seed | 1, // xorshift state must be non-zero
            }),
            last: Mutex::new(None),
            signal: Mutex::new(Signal { kicked: false }),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            rounds: AtomicU64::new(0),
            published: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            skipped_events: AtomicU64::new(0),
            replay_pool: AtomicUsize::new(replay_pool),
            cfg,
        });
        let worker = if shared.cfg.background {
            let thread_shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("gmlfm-online-trainer".into())
                    .spawn(move || worker_loop(thread_shared))
                    .map_err(|e| OnlineError::Launch(format!("cannot spawn trainer thread: {e}")))?,
            )
        } else {
            None
        };
        Ok(Self { shared, worker })
    }

    /// Runs one retrain round synchronously in the calling thread
    /// (serialised with the background thread on the round mutex) and
    /// returns its outcome. Rounds with no new events are
    /// [`RoundOutcome::Skipped`] unless a previous round was rejected —
    /// a rejected candidate keeps training on the same fresh events
    /// (with a new replay sample) until it either passes or new events
    /// arrive.
    pub fn run_once(&self) -> RoundOutcome {
        run_round(&self.shared)
    }

    /// Nudges the background thread to consider a round now instead of
    /// at the next poll tick.
    pub fn kick(&self) {
        self.shared.lock_signal().kicked = true;
        self.shared.wake.notify_all();
    }

    /// Point-in-time counters and the last *finished* round's outcome.
    /// Never waits for a round in flight.
    pub fn status(&self) -> OnlineStatus {
        // Independent monitoring counters; no reader derives
        // cross-variable invariants from them.
        OnlineStatus {
            rounds: self.shared.rounds.load(Ordering::Relaxed), // ORDERING: Relaxed — monitoring counter.
            published: self.shared.published.load(Ordering::Relaxed), // ORDERING: Relaxed — monitoring counter.
            rejected: self.shared.rejected.load(Ordering::Relaxed), // ORDERING: Relaxed — monitoring counter.
            skipped_events: self.shared.skipped_events.load(Ordering::Relaxed), // ORDERING: Relaxed — monitoring counter.
            pending: self.shared.log.pending(),
            replay_pool: self.shared.replay_pool.load(Ordering::Relaxed), // ORDERING: Relaxed — monitoring counter.
            last: self.shared.lock_last().clone(),
        }
    }

    /// The serving handle the loop publishes to.
    pub fn server(&self) -> &ModelServer {
        &self.shared.server
    }

    /// Stops the background thread (if any) after its current round and
    /// returns the final status.
    pub fn shutdown(mut self) -> OnlineStatus {
        self.stop_worker();
        self.status()
    }

    fn stop_worker(&mut self) {
        // ORDERING: Relaxed store is sufficient — the worker re-checks
        // the flag under the signal mutex, whose lock/unlock pair
        // already orders the store before the wait-side load.
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.wake.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for OnlineTrainer {
    fn drop(&mut self) {
        self.stop_worker();
    }
}

impl std::fmt::Debug for OnlineTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let status = self.status();
        f.debug_struct("OnlineTrainer")
            .field("rounds", &status.rounds)
            .field("published", &status.published)
            .field("rejected", &status.rejected)
            .field("pending", &status.pending)
            .field("background", &self.worker.is_some())
            .finish_non_exhaustive()
    }
}

/// The background cadence loop: waits for the event-count trigger, the
/// cadence timer, or a [`OnlineTrainer::kick`], then runs a round.
fn worker_loop(shared: Arc<Shared>) {
    let mut last_round = Instant::now();
    loop {
        // ORDERING: Relaxed — the flag is a latch set once; the signal
        // mutex below synchronises the wake-up itself.
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let due = {
            let mut signal = shared.lock_signal();
            let pending = shared.log.pending();
            let due = signal.kicked
                || pending >= shared.cfg.min_events
                || (pending > 0 && last_round.elapsed() >= shared.cfg.cadence);
            if due {
                signal.kicked = false;
            } else {
                let (guard, _) = shared
                    .wake
                    .wait_timeout(signal, shared.cfg.poll)
                    .unwrap_or_else(|poison| poison.into_inner());
                drop(guard);
            }
            due
        };
        if due {
            run_round(&shared);
            last_round = Instant::now();
        }
    }
}

/// One complete retrain round; serialised on the round mutex.
fn run_round(shared: &Shared) -> RoundOutcome {
    let mut st = shared.lock_round();
    // ORDERING: Relaxed — monitoring counter, no invariants derived.
    let round = shared.rounds.fetch_add(1, Ordering::Relaxed) + 1;

    // Pin one snapshot for the whole round: events validate against it,
    // the candidate's schema/catalog/seen assemble from it, and the gate
    // baseline is its frozen model.
    let (generation, snap) = shared.server.snapshot();
    let drained = shared.log.drain();
    let retry_rejected = matches!(*shared.lock_last(), Some(RoundOutcome::Rejected { .. }));
    if drained.is_empty() && !retry_rejected {
        return RoundOutcome::Skipped;
    }
    // The round's replay stream: one per seed and round number.
    let mut rng = (shared.cfg.seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
    if !drained.is_empty() {
        st.retire_fresh(&mut rng);
        // ORDERING: Relaxed — monitoring counter.
        shared.replay_pool.store(st.pool.len(), Ordering::Relaxed);
    }

    // The round's seen sets: the snapshot's, folded with the overlay.
    // Read after the drain, the overlay holds every drained event (a
    // feed records it there before enqueueing it), so negatives are
    // drawn from items the user has not fed either, and the candidate
    // publishes the same sets.
    let seen = shared
        .server
        .seen_with_overlay(snap)
        .unwrap_or_else(|| SeenItems::new(Vec::new()));
    for event in &drained {
        if fold_event(&mut st, shared, snap, &seen, event).is_err() {
            // The event validated at feed time but not against the
            // round's snapshot (e.g. an operator swapped in a different
            // catalog since): drop it, counted.
            // ORDERING: Relaxed — monitoring counter.
            shared.skipped_events.fetch_add(1, Ordering::Relaxed);
        }
    }

    let outcome = retrain_and_publish(&mut st, shared, generation, snap, seen, &mut rng);
    match &outcome {
        RoundOutcome::Published { .. } => {
            // ORDERING: Relaxed — monitoring counter.
            shared.published.fetch_add(1, Ordering::Relaxed);
        }
        RoundOutcome::Rejected { .. } => {
            // ORDERING: Relaxed — monitoring counter.
            shared.rejected.fetch_add(1, Ordering::Relaxed);
        }
        _ => {}
    }
    *shared.lock_last() = Some(outcome.clone());
    outcome
}

/// Converts one drained event into training instances: the validated
/// positive plus `negatives_per_event` sampled negatives outside `seen`.
fn fold_event(
    st: &mut RoundState,
    shared: &Shared,
    snap: &ModelSnapshot,
    seen: &SeenItems,
    event: &Interaction,
) -> Result<(), OnlineError> {
    let feats = exec::resolve_interaction(&snap.schema, snap.catalog.as_ref(), event)?;
    st.fresh.push(Instance::new(feats, event.label()));
    let catalog = snap.catalog.as_ref().ok_or(gmlfm_service::RequestError::MissingCatalog)?;
    let n_items = catalog.n_items() as u32;
    if n_items <= 1 {
        return Ok(());
    }
    for _ in 0..shared.cfg.negatives_per_event {
        // A few rejection-sampling attempts; on a dense user the
        // negative is simply skipped rather than looping unboundedly.
        for _ in 0..8 {
            let candidate = (next_u64(&mut st.neg_rng) % u64::from(n_items)) as u32;
            if candidate == event.item || seen.contains(event.user, candidate) {
                continue;
            }
            if let Some(neg_feats) = catalog.feats(event.user, candidate) {
                st.fresh.push(Instance::new(neg_feats, -1.0));
            }
            break;
        }
    }
    Ok(())
}

impl RoundState {
    /// Offers the fresh instances to the pool (reservoir sampling: the
    /// `n`-th instance ever offered replaces a uniform slot with
    /// probability `|pool| / n`) and empties the fresh set.
    fn retire_fresh(&mut self, rng: &mut u64) {
        for inst in std::mem::take(&mut self.fresh) {
            self.offered += 1;
            if let Some(slot) = self.pool.get_mut((next_u64(rng) % self.offered) as usize) {
                *slot = inst;
            }
        }
    }

    /// The round's training set: the fresh instances in fold order, then
    /// [`REPLAY_RATIO`] draws per fresh instance, with replacement, from
    /// the pool (never empty: launch refuses an empty base set).
    fn round_set(&self, rng: &mut u64) -> Vec<Instance> {
        let draws = self.fresh.len() * REPLAY_RATIO;
        let mut train = Vec::with_capacity(self.fresh.len() + draws);
        train.extend_from_slice(&self.fresh);
        let pool_len = self.pool.len() as u64;
        train.extend((0..draws).map(|_| self.pool[(next_u64(rng) % pool_len) as usize].clone()));
        train
    }
}

/// Warm-fit (skipped when no event folded), freeze, judge, and only on
/// a pass publish the pinned snapshot's successor with the round's
/// `seen` sets.
fn retrain_and_publish(
    st: &mut RoundState,
    shared: &Shared,
    generation: u64,
    snap: &ModelSnapshot,
    seen: SeenItems,
    rng: &mut u64,
) -> RoundOutcome {
    if !st.fresh.is_empty() {
        let train = st.round_set(rng);
        if let Err(e) = st.model.warm_fit(&train, &shared.cfg.train) {
            return RoundOutcome::Failed { error: e.to_string() };
        }
    }
    let frozen = match st.model.freeze() {
        Ok(frozen) => frozen,
        Err(e) => return RoundOutcome::Failed { error: e.to_string() },
    };
    // Memoised once, here: the gate scores through the memo and the
    // install that follows a pass keeps it.
    let frozen = match snap.catalog.as_ref() {
        Some(catalog) => frozen.with_group_memo(catalog),
        None => frozen,
    };

    // Gate: candidate vs (cached) baseline on the pinned holdout. A
    // snapshot without a catalog fails here, typed.
    let baseline = match st.baseline {
        Some((cached_generation, metrics)) if cached_generation == generation => metrics,
        _ => match shared.gate.score(&snap.frozen, snap.catalog.as_ref(), shared.cfg.par) {
            Ok(metrics) => {
                st.baseline = Some((generation, metrics));
                metrics
            }
            Err(e) => return RoundOutcome::Failed { error: format!("baseline eval failed: {e}") },
        },
    };
    let candidate = match shared.gate.score(&frozen, snap.catalog.as_ref(), shared.cfg.par) {
        Ok(metrics) => metrics,
        Err(e) => return RoundOutcome::Failed { error: format!("candidate eval failed: {e}") },
    };
    let report = shared.gate.judge(baseline, candidate);
    if !report.passed {
        return RoundOutcome::Rejected { report };
    }

    // Only a passed candidate is re-indexed (metric-mode snapshots).
    match shared.server.swap(snap.successor(frozen, Some(seen), shared.cfg.par)) {
        Ok(new_generation) => {
            st.baseline = Some((new_generation, candidate));
            RoundOutcome::Published { generation: new_generation, report }
        }
        Err(e) => RoundOutcome::Failed { error: format!("swap rejected: {e}") },
    }
}

/// xorshift64*: tiny deterministic sampling stream (not cryptographic).
fn next_u64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// The online loop, wired together: the serving handle, the ingest
/// [`OnlineHandle`] and the [`OnlineTrainer`] over one
/// [`InteractionLog`]. What `Recommender::serve_online` returns.
pub struct OnlineServing {
    handle: OnlineHandle,
    trainer: OnlineTrainer,
}

impl OnlineServing {
    /// Builds the log + handle + trainer stack over an already-serving
    /// `server`.
    ///
    /// `model` must hold the weights the serving snapshot was frozen
    /// from (that is what makes re-fitting a *warm* start); `base` is
    /// the original training set, which seeds the replay pool and fixes
    /// its length ([`REPLAY_RATIO`]).
    /// Fails typed when the server has no catalog (events could never
    /// validate), the gate holdout is empty, `base` is, or
    /// `cfg.train.batch_size` is 0.
    pub fn launch(
        server: ModelServer,
        model: Box<dyn OnlineModel>,
        base: Vec<Instance>,
        holdout: Vec<LooTestCase>,
        cfg: OnlineConfig,
    ) -> Result<Self, OnlineError> {
        let log = Arc::new(InteractionLog::new(cfg.log_capacity));
        let handle = OnlineHandle::new(server.clone(), Arc::clone(&log));
        let trainer = OnlineTrainer::launch(server, log, model, base, holdout, cfg)?;
        Ok(Self { handle, trainer })
    }

    /// The serving handle (cheap to clone into transports).
    pub fn server(&self) -> &ModelServer {
        self.trainer.server()
    }

    /// The ingest endpoint (cheap to clone; implements
    /// [`gmlfm_service::FeedSink`]).
    pub fn handle(&self) -> &OnlineHandle {
        &self.handle
    }

    /// The retrain loop.
    pub fn trainer(&self) -> &OnlineTrainer {
        &self.trainer
    }

    /// Stops the loop and returns its final status.
    pub fn shutdown(self) -> OnlineStatus {
        self.trainer.shutdown()
    }
}

impl std::fmt::Debug for OnlineServing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineServing")
            .field("trainer", &self.trainer)
            .finish_non_exhaustive()
    }
}

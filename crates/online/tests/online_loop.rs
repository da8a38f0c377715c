//! End-to-end tests of the online loop: ingest folds exclusions before
//! any retrain, warm-start rounds publish only through the eval gate, a
//! planted regression is refused with a typed report, and readers
//! hammering the serving handle through real trainer-driven swaps never
//! block or observe a torn generation.

use gmlfm_data::{FieldKind, Instance, LooTestCase, Schema};
use gmlfm_models::fm::FmConfig;
use gmlfm_models::FactorizationMachine;
use gmlfm_online::{OnlineConfig, OnlineError, OnlineModel, OnlineServing, RoundOutcome};
use gmlfm_serve::{Freeze, FrozenModel, SecondOrder};
use gmlfm_service::{
    Interaction, ModelServer, ModelSnapshot, RequestError, ScoreRequest, SeenItems, TopNRequest,
};
use gmlfm_tensor::Matrix;
use gmlfm_train::TrainConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const N_USERS: usize = 6;
const N_ITEMS: usize = 10;
const N_FEATS: usize = N_USERS + N_ITEMS;

fn schema() -> Schema {
    Schema::from_specs(&[("user", N_USERS, FieldKind::User), ("item", N_ITEMS, FieldKind::Item)])
}

fn catalog() -> gmlfm_service::Catalog {
    gmlfm_service::Catalog::new(
        vec![1],
        (0..N_USERS as u32).map(|u| vec![u, N_USERS as u32]).collect(),
        (0..N_ITEMS as u32).map(|i| vec![N_USERS as u32 + i]).collect(),
    )
}

fn feats(user: u32, item: u32) -> Vec<u32> {
    vec![user, N_USERS as u32 + item]
}

/// Base training set: each user has interacted with items `u` and
/// `(u+1) % N_ITEMS` (positives) and disliked `(u+5) % N_ITEMS`.
fn base_train() -> Vec<Instance> {
    let mut out = Vec::new();
    for u in 0..N_USERS as u32 {
        out.push(Instance::new(feats(u, u % N_ITEMS as u32), 1.0));
        out.push(Instance::new(feats(u, (u + 1) % N_ITEMS as u32), 1.0));
        out.push(Instance::new(feats(u, (u + 5) % N_ITEMS as u32), -1.0));
    }
    out
}

/// Seen sets matching the base positives.
fn base_seen() -> SeenItems {
    SeenItems::new(
        (0..N_USERS as u32)
            .map(|u| {
                let mut row = vec![u % N_ITEMS as u32, (u + 1) % N_ITEMS as u32];
                row.sort_unstable();
                row
            })
            .collect(),
    )
}

/// One leave-one-out case per user; with `gate_tolerance: 1.0` any
/// candidate passes, so the cases only need to be *valid*.
fn holdout() -> Vec<LooTestCase> {
    (0..N_USERS as u32)
        .map(|u| LooTestCase {
            user: u,
            pos_item: (u + 2) % N_ITEMS as u32,
            negatives: vec![(u + 3) % N_ITEMS as u32, (u + 6) % N_ITEMS as u32],
        })
        .collect()
}

/// A warm-fitted FM plus the snapshot frozen from its current weights —
/// the invariant `OnlineTrainer::launch` documents.
fn fitted_fm(base: &[Instance]) -> (FactorizationMachine, ModelSnapshot) {
    let mut fm =
        FactorizationMachine::new(N_FEATS, FmConfig { k: 4, lr: 0.05, reg: 0.01, epochs: 5, seed: 7 });
    fm.fit(base);
    let snapshot = ModelSnapshot {
        schema: schema(),
        frozen: Freeze::freeze(&fm),
        catalog: Some(catalog()),
        seen: Some(base_seen()),
        index: None,
    };
    (fm, snapshot)
}

fn topn_items(server: &ModelServer, user: u32, n: usize) -> Vec<u32> {
    server
        .top_n(&TopNRequest::new(user, n))
        .expect("top-n serves")
        .value
        .into_iter()
        .map(|(item, _)| item)
        .collect()
}

#[test]
fn fed_events_leave_topn_immediately_and_publish_through_the_gate() {
    let base = base_train();
    let (fm, snapshot) = fitted_fm(&base);
    let server = ModelServer::new(snapshot).expect("consistent snapshot");
    let cfg = OnlineConfig {
        background: false,
        min_events: 1,
        gate_tolerance: 1.0,
        negatives_per_event: 1,
        ..OnlineConfig::default()
    };
    let serving =
        OnlineServing::launch(server.clone(), Box::new(fm), base, holdout(), cfg).expect("launch validates");

    // User 0 has seen {0, 1}; item 5 is still recommendable.
    assert!(topn_items(&server, 0, N_ITEMS).contains(&5), "item 5 starts recommendable");

    // Feed (user 0, item 5): acknowledged at the current generation and
    // excluded by the very next ranking request — before any retrain.
    let ack = serving.handle().feed(&Interaction::new(0, 5).id(1)).expect("feed validates");
    assert_eq!(ack.generation, 1);
    assert!(ack.value.accepted);
    assert_eq!(ack.value.pending, 1);
    assert!(!topn_items(&server, 0, N_ITEMS).contains(&5), "fed item leaves top-n immediately");
    assert_eq!(server.generation(), 1, "no retrain has happened yet");

    // A retried feed carrying the same id is acknowledged idempotently.
    let dup = serving
        .handle()
        .feed(&Interaction::new(0, 5).id(1))
        .expect("duplicate validates");
    assert!(!dup.value.accepted, "duplicate id is not enqueued twice");
    assert_eq!(dup.value.pending, 1);

    // The round warm-fits over base + the fed event and publishes.
    match serving.trainer().run_once() {
        RoundOutcome::Published { generation, report } => {
            assert_eq!(generation, 2);
            assert!(report.passed);
            assert_eq!(report.tolerance, 1.0);
        }
        other => panic!("expected a published round, got {other:?}"),
    }
    assert_eq!(server.generation(), 2);

    // The published snapshot's own seen sets carry the fed event, so the
    // exclusion survives even without the overlay.
    let (_, snap) = server.snapshot();
    let seen = snap.seen.as_ref().expect("published snapshot keeps seen sets");
    assert!(seen.contains(0, 5), "fed interaction folded into the published seen sets");

    // With nothing new pending, the next round is a no-op.
    assert_eq!(serving.trainer().run_once(), RoundOutcome::Skipped);

    let status = serving.shutdown();
    assert_eq!(status.published, 1);
    assert_eq!(status.rejected, 0);
    assert_eq!(status.pending, 0);
}

#[test]
fn backpressure_is_typed_and_retains_the_exclusion() {
    let base = base_train();
    let (fm, snapshot) = fitted_fm(&base);
    let server = ModelServer::new(snapshot).expect("consistent snapshot");
    let cfg =
        OnlineConfig { background: false, log_capacity: 1, gate_tolerance: 1.0, ..OnlineConfig::default() };
    let serving =
        OnlineServing::launch(server.clone(), Box::new(fm), base, holdout(), cfg).expect("launch validates");

    assert!(
        serving
            .handle()
            .feed(&Interaction::new(0, 5))
            .expect("fills the log")
            .value
            .accepted
    );
    let err = serving.handle().feed(&Interaction::new(1, 5)).expect_err("log is full");
    assert_eq!(err, RequestError::Backpressure { capacity: 1 });
    // The overlay fold happened before the log rejected the event: the
    // caller retries, but the exclusion is already serving.
    assert!(!topn_items(&server, 1, N_ITEMS).contains(&5), "exclusion survives backpressure");

    // Draining the log (one round) clears the pressure.
    assert!(matches!(serving.trainer().run_once(), RoundOutcome::Published { .. }));
    assert!(
        serving
            .handle()
            .feed(&Interaction::new(1, 5))
            .expect("room again")
            .value
            .accepted
    );
}

#[test]
fn a_zero_batch_size_is_refused_at_launch() {
    // Unchecked, the first background round panics inside `chunks(0)`,
    // the trainer thread is gone without a `RoundOutcome::Failed`, and
    // the server keeps serving its first generation while events pile up.
    let base = base_train();
    let (fm, snapshot) = fitted_fm(&base);
    let server = ModelServer::new(snapshot).expect("consistent snapshot");
    let cfg = OnlineConfig {
        background: true,
        train: TrainConfig { batch_size: 0, ..TrainConfig::default() },
        ..OnlineConfig::default()
    };
    let refused = OnlineServing::launch(server, Box::new(fm), base, holdout(), cfg);
    assert!(matches!(refused, Err(OnlineError::Launch(_))), "batch_size 0 must not launch a trainer");
}

/// A trainer whose candidate is always the planted `worse` model —
/// simulating a retrain gone wrong (bad data, diverged SGD).
struct Saboteur {
    worse: FrozenModel,
}

impl OnlineModel for Saboteur {
    fn warm_fit(&mut self, _train: &[Instance], _cfg: &TrainConfig) -> Result<(), OnlineError> {
        Ok(())
    }

    fn freeze(&self) -> Result<FrozenModel, OnlineError> {
        Ok(self.worse.clone())
    }
}

/// A purely linear model whose item weights are `weight(i)`; ranking is
/// then exactly the descending order of `weight`.
fn linear_items(weight: impl Fn(u32) -> f64) -> FrozenModel {
    let mut w = vec![0.0; N_FEATS];
    for i in 0..N_ITEMS as u32 {
        w[N_USERS + i as usize] = weight(i);
    }
    FrozenModel::from_parts(0.0, w, Matrix::zeros(N_FEATS, 2), SecondOrder::Dot)
}

#[test]
fn a_planted_regression_is_refused_with_a_typed_report() {
    // Baseline ranks item 0 first for every user; every holdout case
    // has pos_item 0, so baseline HR@1 is exactly 1. The saboteur's
    // candidate reverses the ranking: its HR@1 is exactly 0.
    let baseline = linear_items(|i| (N_ITEMS as u32 - i) as f64);
    let saboteur = Saboteur { worse: linear_items(f64::from) };
    let cases: Vec<LooTestCase> = (0..N_USERS as u32)
        .map(|u| LooTestCase { user: u, pos_item: 0, negatives: vec![7, 8, 9] })
        .collect();

    let snapshot = ModelSnapshot {
        schema: schema(),
        frozen: baseline,
        catalog: Some(catalog()),
        seen: None,
        index: None,
    };
    let server = ModelServer::new(snapshot).expect("consistent snapshot");
    let cfg = OnlineConfig {
        background: false,
        min_events: 1,
        gate_k: 1,
        gate_tolerance: 0.0,
        negatives_per_event: 0,
        ..OnlineConfig::default()
    };
    let serving = OnlineServing::launch(server.clone(), Box::new(saboteur), base_train(), cases, cfg)
        .expect("launch validates");

    serving.handle().feed(&Interaction::new(0, 5)).expect("feed validates");
    match serving.trainer().run_once() {
        RoundOutcome::Rejected { report } => {
            assert!(!report.passed);
            assert_eq!(report.baseline.hr, 1.0, "baseline finds the pinned positive");
            assert_eq!(report.candidate.hr, 0.0, "the regression is measured, not assumed");
        }
        other => panic!("expected the gate to refuse, got {other:?}"),
    }

    // The regression never served: generation and ranking are untouched.
    assert_eq!(server.generation(), 1);
    assert_eq!(topn_items(&server, 0, 1), vec![0], "baseline ranking still serves");

    // A rejected round retries on the same data even with no new events
    // — and is refused again, deterministically.
    assert!(matches!(serving.trainer().run_once(), RoundOutcome::Rejected { .. }));
    let status = serving.shutdown();
    assert_eq!(status.published, 0);
    assert_eq!(status.rejected, 2);
}

/// A trainer whose warm fit announces itself and then parks until the
/// test lets it go — a retrain of arbitrary length.
struct Parked {
    entered: mpsc::Sender<()>,
    release: mpsc::Receiver<()>,
    frozen: FrozenModel,
}

impl OnlineModel for Parked {
    fn warm_fit(&mut self, _train: &[Instance], _cfg: &TrainConfig) -> Result<(), OnlineError> {
        self.entered.send(()).expect("the test is listening");
        self.release.recv().expect("the test releases the fit");
        Ok(())
    }

    fn freeze(&self) -> Result<FrozenModel, OnlineError> {
        Ok(self.frozen.clone())
    }
}

#[test]
fn status_answers_while_a_round_is_still_training() {
    let frozen = linear_items(f64::from);
    let snapshot = ModelSnapshot {
        schema: schema(),
        frozen: frozen.clone(),
        catalog: Some(catalog()),
        seen: None,
        index: None,
    };
    let server = ModelServer::new(snapshot).expect("consistent snapshot");
    let (entered, fit_entered) = mpsc::channel();
    let (release_fit, release) = mpsc::channel();
    let cfg = OnlineConfig { background: false, gate_tolerance: 1.0, ..OnlineConfig::default() };
    let model = Parked { entered, release, frozen };
    let serving = OnlineServing::launch(server, Box::new(model), base_train(), holdout(), cfg)
        .expect("launch validates");
    serving.handle().feed(&Interaction::new(0, 5)).expect("feed validates");

    let trainer = serving.trainer();
    std::thread::scope(|s| {
        let round = s.spawn(|| trainer.run_once());
        fit_entered.recv().expect("the round reaches its warm fit");

        // The round is parked inside `warm_fit`; a status call from
        // another thread must come back without it.
        let (answer, answered) = mpsc::channel();
        s.spawn(move || answer.send(trainer.status()));
        let mid_round = answered.recv_timeout(Duration::from_secs(5));
        // Let the fit go before asserting, so a failure reports instead
        // of leaving the scope waiting on a parked round.
        release_fit.send(()).expect("the fit is waiting");
        let status = mid_round.expect("status() waited for the round in flight");
        assert_eq!(status.rounds, 1, "the round in flight is counted");
        assert_eq!(status.pending, 0, "its events are drained");
        assert_eq!(status.last, None, "no round has finished yet");

        let outcome = round.join().expect("round thread");
        assert!(matches!(outcome, RoundOutcome::Published { generation: 2, .. }), "{outcome:?}");
        assert_eq!(trainer.status().last, Some(outcome));
    });
}

#[test]
fn readers_never_block_or_tear_through_trainer_driven_swaps() {
    let base = base_train();
    let (fm, snapshot) = fitted_fm(&base);
    let server = ModelServer::new(snapshot).expect("consistent snapshot");
    let cfg = OnlineConfig {
        background: true,
        min_events: 1,
        poll: Duration::from_millis(2),
        cadence: Duration::from_millis(10),
        gate_tolerance: 1.0,
        negatives_per_event: 1,
        ..OnlineConfig::default()
    };
    let serving =
        OnlineServing::launch(server.clone(), Box::new(fm), base, holdout(), cfg).expect("launch validates");

    // Readers hammer scoring and ranking through whatever swaps the
    // background trainer publishes; every request must succeed and the
    // observed generation must never run backwards.
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3u32)
        .map(|r| {
            let server = server.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last_generation = 0u64;
                let mut served = 0u64;
                // ORDERING: Relaxed — a stop latch; no data is published
                // through it.
                while !stop.load(Ordering::Relaxed) {
                    let user = (r + served as u32) % N_USERS as u32;
                    let scored = server.score(&ScoreRequest::pair(user, served as u32 % N_ITEMS as u32));
                    let resp = scored.expect("scores serve throughout retrains");
                    assert!(resp.value.is_finite());
                    assert!(resp.generation >= last_generation, "generation ran backwards");
                    last_generation = resp.generation;
                    let ranked = server.top_n(&TopNRequest::new(user, 3));
                    let resp = ranked.expect("top-n serves throughout retrains");
                    assert!(resp.generation >= last_generation, "generation ran backwards");
                    last_generation = resp.generation;
                    served += 2;
                }
                served
            })
        })
        .collect();

    // Feed two fresh items per user; each must be excluded by the very
    // next ranking request, before any retrain lands.
    let mut fed: Vec<(u32, u32)> = Vec::new();
    for (step, user) in (0..N_USERS as u32).chain(0..N_USERS as u32).enumerate() {
        let item = (user + 2 + 2 * (step / N_USERS) as u32) % N_ITEMS as u32;
        let ack = serving
            .handle()
            .feed(&Interaction::new(user, item).id(1000 + step as u64))
            .expect("feed validates");
        assert!(ack.value.accepted);
        assert!(!topn_items(&server, user, N_ITEMS).contains(&item), "excluded before retrain");
        fed.push((user, item));
        std::thread::sleep(Duration::from_millis(2));
    }

    // Wait for the background loop to publish at least one round.
    let deadline = Instant::now() + Duration::from_secs(10);
    while serving.trainer().status().published == 0 {
        assert!(Instant::now() < deadline, "background trainer never published");
        serving.trainer().kick();
        std::thread::sleep(Duration::from_millis(5));
    }

    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        let served = reader.join().expect("reader saw no failure");
        assert!(served > 0, "readers made progress during retrains");
    }

    // Exclusions survive every published swap: the retrained snapshots
    // merged the overlay, and reads union it regardless.
    for &(user, item) in &fed {
        assert!(!topn_items(&server, user, N_ITEMS).contains(&item), "exclusion lost in a swap");
    }

    let status = serving.shutdown();
    assert!(status.published >= 1, "at least one gated publish: {status:?}");
    assert_eq!(server.generation(), 1 + status.published, "one generation per publish");
}

//! Regression suite for the interleaving checker: the real protocol
//! passes *exhaustively* at sizes larger than the CI-facing suite runs,
//! and its planted-bug variant is *found* — with a schedule that
//! replays the failure deterministically. A model checker whose failure
//! path is never exercised proves nothing by passing; these tests are
//! the teeth.

use gmlfm_analyze::models::{LatchModel, LostWakeupLatchModel};
use gmlfm_analyze::sched::{check, Model, Stats, Verdict};

const BUDGET: usize = 2_000_000;

fn expect_pass<M: Model>(model: &M, what: &str) -> Stats {
    match check(model, BUDGET) {
        Verdict::Pass(stats) => stats,
        other => panic!("{what}: expected exhaustive pass, got {other:?}"),
    }
}

/// The reported schedule must reproduce the failure from a fresh clone
/// of the model — stepping it through the schedule either trips the
/// same mid-flight invariant or leaves a final state that fails.
fn expect_fail_with_replay<M: Model>(model: &M, what: &str) -> String {
    let (schedule, error) = match check(model, BUDGET) {
        Verdict::Fail { schedule, error } => (schedule, error),
        other => panic!("{what}: expected the planted bug to be found, got {other:?}"),
    };
    let mut replay = model.clone();
    let mut tripped = false;
    for &tid in &schedule {
        if replay.step(tid).is_err() {
            tripped = true;
            break;
        }
    }
    // Deadlock findings replay as "schedule ends with threads stuck";
    // invariant findings replay as a step error or final-check failure.
    let stuck_at_end = (0..replay.thread_count()).any(|t| !replay.done(t) && !replay.enabled(t));
    assert!(
        tripped || stuck_at_end || replay.check_final().is_err(),
        "{what}: schedule {schedule:?} did not replay failure `{error}`"
    );
    error
}

// --- pool completion latch -------------------------------------------

#[test]
fn latch_terminates_under_every_schedule() {
    expect_pass(&LatchModel::new(2, 3), "latch 2 workers / 3 jobs");
    expect_pass(&LatchModel::new(3, 2), "latch 3 workers / 2 jobs");
}

#[test]
fn latch_help_draining_runs_every_job_exactly_once() {
    // check_final asserts completed == jobs on every schedule, including
    // the ones where the waiter helps; an exhaustive pass IS the claim.
    expect_pass(&LatchModel::new(1, 3), "latch with a helping waiter");
}

#[test]
fn lost_wakeup_park_is_found_as_a_deadlock() {
    let error = expect_fail_with_replay(&LostWakeupLatchModel::new(1, 1), "lost wakeup");
    assert!(error.contains("deadlock"), "{error}");
    // Also at a size where helping interleaves with the stale check.
    expect_fail_with_replay(&LostWakeupLatchModel::new(2, 2), "lost wakeup, 2 workers");
}

#[test]
fn recheck_under_lock_is_what_fixes_the_lost_wakeup() {
    // Identical structure except the atomicity of (recheck, park):
    // holding the completion lock across the recheck is the fix.
    expect_pass(&LatchModel::new(1, 1), "locked recheck");
    expect_fail_with_replay(&LostWakeupLatchModel::new(1, 1), "unlocked check");
}

// --- checker discipline ----------------------------------------------

#[test]
fn budget_exhaustion_is_never_reported_as_a_pass() {
    // A correct model under a starved budget must NOT pass.
    match check(&LatchModel::new(2, 3), 10) {
        Verdict::BudgetExceeded { budget } => assert_eq!(budget, 10),
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

#[test]
fn failing_schedules_are_deterministic_run_to_run() {
    let a = check(&LostWakeupLatchModel::new(1, 1), BUDGET);
    let b = check(&LostWakeupLatchModel::new(1, 1), BUDGET);
    assert_eq!(a, b, "the checker must be schedule-deterministic");
}

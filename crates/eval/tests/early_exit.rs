//! The leave-one-out protocol's early exit on the online loop's shape:
//! MovieLens synth (the user plus three user attributes as context, the
//! item id and its genre as the candidate group), 99 sampled negatives
//! per case, and a trained GML-FM_md frozen with its per-catalogue group
//! memo. A frozen model stops scoring a case once `k` negatives reached
//! the positive; the per-user metrics must keep every bit of the full
//! scan, and validation must still see every candidate.

use gmlfm_core::{GmlFm, GmlFmConfig};
use gmlfm_data::{generate, loo_split, DatasetSpec, FieldMask, LooTestCase};
use gmlfm_eval::{evaluate_topn_backend, hit_ratio_at, ndcg_at};
use gmlfm_par::Parallelism;
use gmlfm_serve::{kernel::CAND_BLOCK, Freeze, FrozenModel};
use gmlfm_service::{Catalog, RequestError, ScoringBackend};
use gmlfm_train::{fit_regression, TrainConfig};
use std::sync::OnceLock;

struct World {
    catalog: Catalog,
    model: FrozenModel,
    cases: Vec<LooTestCase>,
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let dataset = generate(&DatasetSpec::MovieLens.config(2024).scaled(0.4));
        let mask = FieldMask::all(&dataset.schema);
        let split = loo_split(&dataset, &mask, 2, 99, 7);
        let mut base = split.train;
        base.truncate(4_096);
        let mut model = GmlFm::new(dataset.schema.total_dim(), &GmlFmConfig::mahalanobis(16).with_seed(3));
        let cfg = TrainConfig { epochs: 1, patience: 0, seed: 4, ..TrainConfig::default() };
        fit_regression(&mut model, &base, None, &cfg);
        let catalog = Catalog::from_dataset(&dataset, &mask);
        let model = Freeze::freeze(&model).with_group_memo(&catalog);
        World { catalog, model, cases: split.test }
    })
}

/// Every score of a case, positive first: the full scan's vector.
fn full_scores(w: &World, case: &LooTestCase) -> Vec<f64> {
    let template = w.catalog.template(case.user).expect("user in range");
    let candidates: Vec<u32> = std::iter::once(case.pos_item).chain(case.negatives.iter().copied()).collect();
    w.model.candidate_scores(&w.catalog, template, &candidates)
}

/// Index among the negatives of the `k`-th one scoring `>=` the
/// positive, if there is one: where the early exit may stop.
fn kth_reaching(scores: &[f64], k: usize) -> Option<usize> {
    scores[1..]
        .iter()
        .enumerate()
        .filter(|&(_, &s)| s >= scores[0])
        .nth(k.checked_sub(1)?)
        .map(|(i, _)| i)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn per_user_metrics_keep_the_full_scan_bits() {
    let w = world();
    assert!(w.cases.iter().all(|case| case.negatives.len() == 99));
    let scores: Vec<Vec<f64>> = w.cases.iter().map(|case| full_scores(w, case)).collect();
    for k in [1usize, 10, 100] {
        let want_hr: Vec<f64> = scores.iter().map(|s| hit_ratio_at(s, k)).collect();
        let want_ndcg: Vec<f64> = scores.iter().map(|s| ndcg_at(s, k)).collect();
        for threads in [1usize, 2] {
            let m =
                evaluate_topn_backend(&w.model, Some(&w.catalog), &w.cases, k, Parallelism::threads(threads))
                    .expect("valid cases");
            assert_eq!(bits(&m.per_user_hr), bits(&want_hr), "hr k={k} threads={threads}");
            assert_eq!(bits(&m.per_user_ndcg), bits(&want_ndcg), "ndcg k={k} threads={threads}");
        }
        // The fixture exercises the exit: at k < 100 some cases miss
        // before their last block of negatives, and some cases hit.
        let early = scores
            .iter()
            .filter(|s| kth_reaching(s, k).is_some_and(|i| i < 99 / CAND_BLOCK * CAND_BLOCK));
        let hits = want_hr.iter().filter(|&&hr| hr == 1.0).count();
        if k < 100 {
            assert!(early.count() > 0 && hits > 0, "k={k}: the fixture must both hit and stop early");
        }
    }
}

#[test]
fn an_out_of_range_item_past_the_stop_is_still_a_typed_error() {
    let w = world();
    let n_items = w.catalog.n_items();
    let beyond = n_items as u32;
    // A case whose scoring stops in its first block at k = 1, with an
    // unknown item appended to its last block.
    let stops_early = w
        .cases
        .iter()
        .find(|case| kth_reaching(&full_scores(w, case), 1).is_some_and(|i| i < CAND_BLOCK))
        .expect("a case that misses within its first block");
    let mut bad = stops_early.clone();
    bad.negatives.push(beyond);
    let mut unknown_user = stops_early.clone();
    unknown_user.user = w.catalog.n_users() as u32;
    let cases = [w.cases[..3].to_vec(), vec![bad]].concat();
    for threads in [1usize, 2] {
        let par = Parallelism::threads(threads);
        let err =
            evaluate_topn_backend(&w.model, Some(&w.catalog), &cases, 1, par).expect_err("item out of range");
        assert_eq!(err, RequestError::UnknownItem { item: beyond, n_items }, "threads={threads}");
        let err =
            evaluate_topn_backend(&w.model, Some(&w.catalog), std::slice::from_ref(&unknown_user), 1, par)
                .expect_err("user out of range");
        assert!(matches!(err, RequestError::UnknownUser { .. }), "threads={threads}: {err:?}");
    }
}

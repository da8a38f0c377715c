//! End-to-end evaluation protocols over a trained [`Scorer`].
//!
//! There is one leave-one-out protocol, [`evaluate_topn_backend`]: each
//! test case (`[positive] + negatives`) is validated against the catalog
//! and ranked by any [`ScoringBackend`] through
//! [`exec::execute_case_rank`], which returns only what HR@k and NDCG@k
//! read — the positive's rank, capped at `k`. The other top-n entry
//! points only pick the backend and the catalog: a frozen model
//! ([`evaluate_topn_frozen_with`]), a served snapshot
//! ([`evaluate_topn_service_with`]), or any [`Scorer`] behind
//! [`ScorerBackend`] ([`evaluate_topn`]).

use crate::metrics::{case_metrics, mae, rmse};
use gmlfm_data::{Dataset, FieldMask, Instance, LooTestCase};
use gmlfm_par::Parallelism;
use gmlfm_serve::{FrozenModel, ItemFeatureSource};
use gmlfm_service::{exec, Catalog, ModelServer, RequestError, ScoringBackend};
use gmlfm_train::Scorer;

/// Rating-prediction results (Table 3 reports RMSE).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatingMetrics {
    /// Root mean squared error.
    pub rmse: f64,
    /// Mean absolute error.
    pub mae: f64,
    /// Per-instance squared errors are not retained; this is the count.
    pub n: usize,
}

/// Evaluates a scorer on held-out rating instances.
///
/// The test set is handed to the scorer in one call, so scorers with a
/// parallel batch path (notably [`FrozenModel::scores`], which fans the
/// batch out with `gmlfm-par`) parallelise the whole
/// evaluation; the metrics are computed from the ordered score vector
/// and are bit-identical at every thread count.
pub fn evaluate_rating<S: Scorer + ?Sized>(scorer: &S, test: &[Instance]) -> RatingMetrics {
    assert!(!test.is_empty(), "evaluate_rating: empty test set");
    let preds = scorer.scores(test);
    let targets: Vec<f64> = test.iter().map(|i| i.label).collect();
    RatingMetrics { rmse: rmse(&preds, &targets), mae: mae(&preds, &targets), n: test.len() }
}

/// Top-n results (Table 4 reports HR@10 and NDCG@10).
#[derive(Debug, Clone, PartialEq)]
pub struct TopnMetrics {
    /// Mean Hit Ratio@k across users.
    pub hr: f64,
    /// Mean NDCG@k across users.
    pub ndcg: f64,
    /// Per-user HR values (for significance tests).
    pub per_user_hr: Vec<f64>,
    /// Per-user NDCG values (for significance tests).
    pub per_user_ndcg: Vec<f64>,
}

/// A [`ScoringBackend`] over any [`Scorer`], so models without a frozen
/// form run the same leave-one-out protocol as frozen ones. Each case
/// is one [`Scorer::scores`] call over the candidates' full feature
/// rows (the user's template with each candidate's item group spliced
/// in); the scorer's own batch path decides how it runs.
pub struct ScorerBackend<'a, S: Scorer + ?Sized>(pub &'a S);

impl<S: Scorer + ?Sized> ScoringBackend for ScorerBackend<'_, S> {
    fn score_feats(&self, feats: &[u32]) -> f64 {
        self.0.score_one(&Instance::new(feats.to_vec(), 0.0))
    }

    fn candidate_scores(&self, catalog: &Catalog, template: &[u32], candidates: &[u32]) -> Vec<f64> {
        let instances: Vec<Instance> = candidates
            .iter()
            .map(|&item| Instance::new(catalog.splice(template, catalog.features_of(item)), 0.0))
            .collect();
        self.0.scores(&instances)
    }
}

/// Leave-one-out evaluation of any scorer: for each test case, scores
/// the positive item against its sampled negatives and truncates the
/// ranking at `k` (k = 10 in the paper). Serial; the scorer sees one
/// batch per case.
pub fn evaluate_topn<S: Scorer + Sync + ?Sized>(
    scorer: &S,
    dataset: &Dataset,
    mask: &FieldMask,
    cases: &[LooTestCase],
    k: usize,
) -> TopnMetrics {
    let catalog = Catalog::from_dataset(dataset, mask);
    evaluate_topn_backend(&ScorerBackend(scorer), Some(&catalog), cases, k, Parallelism::serial())
        .expect("leave-one-out cases come from the dataset")
}

/// Leave-one-out evaluation of a frozen model with an explicit
/// [`Parallelism`] over the test cases; per case, the ranker stages the
/// user/context side once and scores each candidate by item delta only.
pub fn evaluate_topn_frozen_with(
    model: &FrozenModel,
    dataset: &Dataset,
    mask: &FieldMask,
    cases: &[LooTestCase],
    k: usize,
    par: Parallelism,
) -> TopnMetrics {
    let catalog = Catalog::from_dataset(dataset, mask);
    evaluate_topn_backend(model, Some(&catalog), cases, k, par)
        .expect("leave-one-out cases come from the dataset")
}

/// Leave-one-out evaluation through a [`ModelServer`], pinned to
/// **one** model snapshot up front, so a hot swap racing the evaluation
/// cannot mix generations into one metric vector.
pub fn evaluate_topn_service_with(
    server: &ModelServer,
    cases: &[LooTestCase],
    k: usize,
    par: Parallelism,
) -> TopnMetrics {
    let (_, snap) = server.snapshot();
    evaluate_topn_backend(&snap.frozen, snap.catalog.as_ref(), cases, k, par)
        .expect("leave-one-out cases come from the served catalog")
}

/// The leave-one-out protocol: evaluates `cases` over any
/// [`ScoringBackend`] (a frozen model, a served snapshot, or a
/// [`ScorerBackend`]). Each case is validated — its user, then every
/// candidate, before any score — and ranked by
/// [`exec::execute_case_rank`]: the number of negatives scoring `>=` the
/// positive, capped at `k`, which [`case_metrics`] maps to the bits of
/// [`crate::hit_ratio_at`]/[`crate::ndcg_at`] over the full score
/// vector, conservative tie handling and NaN scores included. Seen
/// items are not excluded: the protocol fixes the candidate set. Cases
/// are split into one contiguous block per requested thread and the
/// per-user metric vectors are merged in input order — bit-identical to
/// the serial evaluation at every thread count. A case whose user or
/// items fall outside the catalog is a typed [`RequestError`].
pub fn evaluate_topn_backend<B: ScoringBackend + Sync + ?Sized>(
    backend: &B,
    catalog: Option<&Catalog>,
    cases: &[LooTestCase],
    k: usize,
    par: Parallelism,
) -> Result<TopnMetrics, RequestError> {
    assert!(!cases.is_empty(), "evaluate_topn_backend: no test cases");
    let per_user: Vec<Result<(f64, f64), RequestError>> = gmlfm_par::par_blocks(par, cases.len(), |range| {
        cases[range]
            .iter()
            .map(|case| exec::execute_case_rank(backend, catalog, case, k).map(|rank| case_metrics(rank, k)))
            .collect()
    });
    let mut per_user_hr = Vec::with_capacity(cases.len());
    let mut per_user_ndcg = Vec::with_capacity(cases.len());
    for result in per_user {
        let (hr, ndcg) = result?;
        per_user_hr.push(hr);
        per_user_ndcg.push(ndcg);
    }
    let hr = per_user_hr.iter().sum::<f64>() / per_user_hr.len() as f64;
    let ndcg = per_user_ndcg.iter().sum::<f64>() / per_user_ndcg.len() as f64;
    Ok(TopnMetrics { hr, ndcg, per_user_hr, per_user_ndcg })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{hit_ratio_at, ndcg_at};
    use gmlfm_data::{generate, loo_split, DatasetSpec};

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// A scorer that knows the ground truth: scores the held-out positive
    /// item of each user highest.
    struct Oracle {
        item_offset: usize,
        favourite: Vec<u32>,
    }

    impl Scorer for Oracle {
        fn scores(&self, instances: &[Instance]) -> Vec<f64> {
            instances
                .iter()
                .map(|inst| {
                    let user = inst.feats[0] as usize;
                    let item = inst.feats[1] as usize - self.item_offset;
                    if self.favourite[user] == item as u32 {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect()
        }
    }

    struct Antioracle(Oracle);
    impl Scorer for Antioracle {
        fn scores(&self, instances: &[Instance]) -> Vec<f64> {
            self.0.scores(instances).into_iter().map(|s| -s).collect()
        }
    }

    #[test]
    fn oracle_achieves_perfect_topn_and_antioracle_zero() {
        let d = generate(&DatasetSpec::AmazonAuto.config(131).scaled(0.2));
        let mask = FieldMask::all(&d.schema);
        let split = loo_split(&d, &mask, 2, 30, 3);
        let mut favourite = vec![u32::MAX; d.n_users];
        for case in &split.test {
            favourite[case.user as usize] = case.pos_item;
        }
        let oracle = Oracle { item_offset: d.schema.offset(1), favourite };
        let m = evaluate_topn(&oracle, &d, &mask, &split.test, 10);
        assert_eq!(m.hr, 1.0);
        assert_eq!(m.ndcg, 1.0);

        let anti = Antioracle(oracle);
        let m = evaluate_topn(&anti, &d, &mask, &split.test, 10);
        assert_eq!(m.hr, 0.0);
        assert_eq!(m.ndcg, 0.0);
    }

    #[test]
    fn rating_metrics_for_constant_scorer() {
        struct Zero;
        impl Scorer for Zero {
            fn scores(&self, instances: &[Instance]) -> Vec<f64> {
                vec![0.0; instances.len()]
            }
        }
        let test = vec![Instance::new(vec![0, 1], 1.0), Instance::new(vec![0, 2], -1.0)];
        let m = evaluate_rating(&Zero, &test);
        assert!((m.rmse - 1.0).abs() < 1e-12);
        assert!((m.mae - 1.0).abs() < 1e-12);
        assert_eq!(m.n, 2);
    }

    /// A frozen model's item-delta ranker and its full-vector scorer
    /// give the same metrics, to the bit.
    #[test]
    fn frozen_protocol_matches_generic_protocol() {
        use gmlfm_core::{GmlFm, GmlFmConfig};
        use gmlfm_serve::Freeze;
        let d = generate(&DatasetSpec::AmazonAuto.config(135).scaled(0.2));
        let mask = FieldMask::all(&d.schema);
        let split = loo_split(&d, &mask, 2, 20, 5);
        let model = GmlFm::new(d.schema.total_dim(), &GmlFmConfig::mahalanobis(6).with_seed(9));
        let frozen = model.freeze();
        let generic = evaluate_topn(&frozen, &d, &mask, &split.test, 10);
        let fast = evaluate_topn_frozen_with(&frozen, &d, &mask, &split.test, 10, Parallelism::auto());
        assert_eq!(fast.per_user_hr, generic.per_user_hr);
        assert_eq!(bits(&fast.per_user_ndcg), bits(&generic.per_user_ndcg));
        // And both agree with the autograd path's metrics.
        let graph = evaluate_topn(&model, &d, &mask, &split.test, 10);
        assert_eq!(fast.per_user_hr, graph.per_user_hr);
    }

    /// The served snapshot and the dataset-addressed frozen model give
    /// the same bits: one catalog from the same dataset, one protocol.
    #[test]
    fn service_protocol_matches_frozen_protocol() {
        use gmlfm_core::{GmlFm, GmlFmConfig};
        use gmlfm_serve::Freeze;
        use gmlfm_service::{Catalog, ModelServer, ModelSnapshot};
        let d = generate(&DatasetSpec::AmazonAuto.config(137).scaled(0.2));
        let mask = FieldMask::all(&d.schema);
        let split = loo_split(&d, &mask, 2, 20, 5);
        let model = GmlFm::new(d.schema.total_dim(), &GmlFmConfig::dnn(6, 1).with_seed(11));
        let frozen = model.freeze();
        let fast = evaluate_topn_frozen_with(&frozen, &d, &mask, &split.test, 10, Parallelism::auto());
        let server = ModelServer::new(ModelSnapshot {
            schema: d.schema.clone(),
            frozen,
            catalog: Some(Catalog::from_dataset(&d, &mask)),
            seen: None,
            index: None,
        })
        .expect("consistent snapshot");
        let served = evaluate_topn_service_with(&server, &split.test, 10, Parallelism::auto());
        assert_eq!(served.per_user_hr, fast.per_user_hr);
        assert_eq!(bits(&served.per_user_ndcg), bits(&fast.per_user_ndcg));
        // And explicit thread counts do not change a bit.
        for t in [1usize, 2, 5] {
            let par = evaluate_topn_service_with(&server, &split.test, 10, Parallelism::threads(t));
            assert_eq!(par.per_user_hr, served.per_user_hr, "threads={t}");
        }
    }

    #[test]
    fn per_user_vectors_align_with_cases() {
        let d = generate(&DatasetSpec::AmazonAuto.config(133).scaled(0.2));
        let mask = FieldMask::all(&d.schema);
        let split = loo_split(&d, &mask, 2, 20, 5);
        struct Rand;
        impl Scorer for Rand {
            fn scores(&self, instances: &[Instance]) -> Vec<f64> {
                instances
                    .iter()
                    .map(|i| {
                        // Hash-mix user and item so the score is independent
                        // of item popularity (head items are more often the
                        // positives).
                        let mix = (i.feats[0] as u64)
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add((i.feats[1] as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
                        (mix >> 11) as f64 / (1u64 << 53) as f64
                    })
                    .collect()
            }
        }
        let m = evaluate_topn(&Rand, &d, &mask, &split.test, 10);
        assert_eq!(m.per_user_hr.len(), split.test.len());
        assert_eq!(m.per_user_ndcg.len(), split.test.len());
        // Random scorer ranking 1 positive among 20 negatives at k = 10:
        // HR@10 ≈ 10/21 in expectation; allow wide slack.
        assert!(m.hr > 0.2 && m.hr < 0.8, "random HR {0}", m.hr);
        assert!(m.ndcg < m.hr, "NDCG discounts position, so it must not exceed HR");
    }

    /// A scorer that hashes every feature of the row, so any slot the
    /// protocol filled wrongly moves the score.
    struct RowHash;
    impl Scorer for RowHash {
        fn scores(&self, instances: &[Instance]) -> Vec<f64> {
            instances
                .iter()
                .map(|i| {
                    let mix = i.feats.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &f| {
                        (h ^ u64::from(f)).wrapping_mul(0x0000_0100_0000_01B3)
                    });
                    (mix >> 11) as f64 / (1u64 << 53) as f64
                })
                .collect()
        }
    }

    /// Under masks that hide a user-side and an item-side field (Table
    /// 6), the protocol scores exactly the masked rows a full-vector
    /// oracle builds from the dataset.
    #[test]
    fn masked_protocol_matches_full_vector_oracle() {
        use gmlfm_data::{generate_scale, FieldKind, ScaleConfig};
        use FieldKind::{Category, Condition, Item, User, UserAttr};
        // user | item | segment (user attr) | category | condition
        let d = generate_scale(&ScaleConfig::new(60, 400, 139));
        let masks = [
            FieldMask::of_kinds(&d.schema, &[User, Item, Category]),
            FieldMask::of_kinds(&d.schema, &[User, Item, UserAttr, Condition]),
        ];
        for mask in &masks {
            let split = loo_split(&d, mask, 2, 20, 7);
            let mut oracle_hr = Vec::new();
            let mut oracle_ndcg = Vec::new();
            for case in &split.test {
                let mut rows = vec![d.instance_masked(case.user, case.pos_item, 1.0, mask)];
                rows.extend(case.negatives.iter().map(|&neg| d.instance_masked(case.user, neg, 0.0, mask)));
                let scores = RowHash.scores(&rows);
                oracle_hr.push(hit_ratio_at(&scores, 10));
                oracle_ndcg.push(ndcg_at(&scores, 10));
            }
            let m = evaluate_topn(&RowHash, &d, mask, &split.test, 10);
            assert_eq!(bits(&m.per_user_hr), bits(&oracle_hr), "{mask:?}");
            assert_eq!(bits(&m.per_user_ndcg), bits(&oracle_ndcg), "{mask:?}");
        }
    }
}

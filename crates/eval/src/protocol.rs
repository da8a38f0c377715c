//! End-to-end evaluation protocols over a trained [`Scorer`].
//!
//! Two top-n paths are provided: the generic [`evaluate_topn`], which
//! scores every candidate through whatever [`Scorer`] it is given, and
//! [`evaluate_topn_frozen`], which exploits a frozen model's
//! [`gmlfm_serve::TopNRanker`] to compute each user's context partial
//! sums once and
//! score candidates by item delta only. Both produce identical metrics
//! for the same model (pinned by tests here); the frozen path is the one
//! the experiment runners use.

use crate::metrics::{hit_ratio_at, mae, ndcg_at, rmse, topk_case_metrics};
use gmlfm_data::{Dataset, FieldKind, FieldMask, Instance, LooTestCase};
use gmlfm_par::Parallelism;
use gmlfm_serve::{FrozenModel, TopNHeap};
use gmlfm_service::{exec, Catalog, ModelServer, RequestError, ScoringBackend, SeenItems, TopNRequest};
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

/// Leave-one-out evaluation: for each test case, scores the positive item
/// against its sampled negatives and truncates the ranking at `k`
/// (k = 10 in the paper).
pub fn evaluate_topn<S: Scorer + ?Sized>(
    scorer: &S,
    dataset: &Dataset,
    mask: &FieldMask,
    cases: &[LooTestCase],
    k: usize,
) -> TopnMetrics {
    assert!(!cases.is_empty(), "evaluate_topn: no test cases");
    let mut per_user_hr = Vec::with_capacity(cases.len());
    let mut per_user_ndcg = Vec::with_capacity(cases.len());
    let mut candidates: Vec<Instance> = Vec::new();
    for case in cases {
        candidates.clear();
        candidates.push(dataset.instance_masked(case.user, case.pos_item, 1.0, mask));
        for &neg in &case.negatives {
            candidates.push(dataset.instance_masked(case.user, neg, 0.0, mask));
        }
        let scores = scorer.scores(&candidates);
        per_user_hr.push(hit_ratio_at(&scores, k));
        per_user_ndcg.push(ndcg_at(&scores, k));
    }
    let hr = per_user_hr.iter().sum::<f64>() / per_user_hr.len() as f64;
    let ndcg = per_user_ndcg.iter().sum::<f64>() / per_user_ndcg.len() as f64;
    TopnMetrics { hr, ndcg, per_user_hr, per_user_ndcg }
}

/// Positions (within the active fields of `mask`) that carry item-side
/// values and therefore change between ranking candidates. These are the
/// `item_slots` to hand to [`FrozenModel::ranker`] for instances built by
/// [`Dataset::feats`] under the same mask.
pub fn item_side_slots(dataset: &Dataset, mask: &FieldMask) -> Vec<usize> {
    dataset
        .schema
        .fields()
        .iter()
        .enumerate()
        .filter(|(field, _)| mask.is_active(*field))
        .map(|(_, f)| f.kind)
        .enumerate()
        .filter(|(_, kind)| !matches!(kind, FieldKind::User | FieldKind::UserAttr))
        .map(|(slot, _)| slot)
        .collect()
}

/// Leave-one-out evaluation through the frozen serving path: one
/// [`gmlfm_serve::TopNRanker`] per test case stages the user/context
/// side once and scores the positive plus its sampled negatives
/// by item delta only. Metrics match [`evaluate_topn`] on the same
/// frozen model.
///
/// Runs with [`Parallelism::auto`]; see [`evaluate_topn_frozen_with`]
/// for an explicit thread count.
pub fn evaluate_topn_frozen(
    model: &FrozenModel,
    dataset: &Dataset,
    mask: &FieldMask,
    cases: &[LooTestCase],
    k: usize,
) -> TopnMetrics {
    evaluate_topn_frozen_with(model, dataset, mask, cases, k, Parallelism::auto())
}

/// [`evaluate_topn_frozen`] with an explicit [`Parallelism`]: the test
/// cases are split into one contiguous block per requested thread, each
/// worker evaluates its block with its own scratch buffers and
/// [`gmlfm_serve::TopNRanker`] state, and the per-user metric vectors
/// are merged in input order — so the result is **bit-identical** to the
/// serial evaluation at every thread count.
///
/// Per case, the negatives run through a bounded top-`k` [`TopNHeap`] —
/// the same selection the serving retrieval path uses — instead of a
/// materialised score vector; [`topk_case_metrics`] proves the metrics
/// identical to the full scan, conservative tie handling included.
pub fn evaluate_topn_frozen_with(
    model: &FrozenModel,
    dataset: &Dataset,
    mask: &FieldMask,
    cases: &[LooTestCase],
    k: usize,
    par: Parallelism,
) -> TopnMetrics {
    assert!(!cases.is_empty(), "evaluate_topn_frozen: no test cases");
    let item_slots = item_side_slots(dataset, mask);
    let per_user: Vec<(f64, f64)> = gmlfm_par::par_blocks(par, cases.len(), |range| {
        // Per-worker scratch, reused across the whole block.
        let mut out = Vec::with_capacity(range.len());
        let mut feats: Vec<u32> = Vec::new();
        let mut item_feats: Vec<u32> = Vec::new();
        for case in &cases[range] {
            let template = dataset.feats(case.user, case.pos_item, mask);
            let mut ranker = model.ranker(&template, &item_slots);
            item_feats.clear();
            item_feats.extend(item_slots.iter().map(|&s| template[s]));
            let pos_score = ranker.score(&item_feats);
            let mut heap = TopNHeap::new(k);
            for (i, &neg) in case.negatives.iter().enumerate() {
                dataset.feats_into(case.user, neg, mask, &mut feats);
                item_feats.clear();
                item_feats.extend(item_slots.iter().map(|&s| feats[s]));
                heap.push(i as u32, ranker.score(&item_feats));
            }
            out.push(topk_case_metrics(pos_score, heap.retained(), k));
        }
        out
    });
    let (per_user_hr, per_user_ndcg): (Vec<f64>, Vec<f64>) = per_user.into_iter().unzip();
    let hr = per_user_hr.iter().sum::<f64>() / per_user_hr.len() as f64;
    let ndcg = per_user_ndcg.iter().sum::<f64>() / per_user_ndcg.len() as f64;
    TopnMetrics { hr, ndcg, per_user_hr, per_user_ndcg }
}

/// Leave-one-out evaluation through the online serving API: each test
/// case becomes a candidate-restricted ranking request (`[positive] +
/// negatives`, seen-exclusion off — the protocol fixes the candidate
/// set) answered by the [`ModelServer`], so the evaluated path is the
/// *same* request path production traffic takes.
///
/// Metrics match [`evaluate_topn_frozen`] for the same frozen model;
/// runs with [`Parallelism::auto`] — see
/// [`evaluate_topn_service_with`] for an explicit thread count.
pub fn evaluate_topn_service(server: &ModelServer, cases: &[LooTestCase], k: usize) -> TopnMetrics {
    evaluate_topn_service_with(server, cases, k, Parallelism::auto())
}

/// [`evaluate_topn_service`] with an explicit [`Parallelism`]. The whole
/// evaluation is pinned to **one** model snapshot up front, so a hot
/// swap racing the evaluation cannot mix generations into one metric
/// vector.
pub fn evaluate_topn_service_with(
    server: &ModelServer,
    cases: &[LooTestCase],
    k: usize,
    par: Parallelism,
) -> TopnMetrics {
    assert!(!cases.is_empty(), "evaluate_topn_service: no test cases");
    let (_, snap) = server.snapshot();
    evaluate_topn_backend(&snap.frozen, snap.catalog.as_ref(), snap.seen.as_ref(), cases, k, par)
        .expect("leave-one-out cases come from the served catalog")
}

/// The shared request-path leave-one-out core: evaluates `cases` through
/// [`exec::execute_candidate_scores`] over any [`ScoringBackend`]
/// (frozen snapshot or the engine's live estimators). Cases are split
/// into one contiguous block per requested thread (each request itself
/// runs serially) and the per-user metric vectors are merged in input
/// order — bit-identical to the serial evaluation at every thread count.
/// A case whose user or items fall outside the catalog is a typed
/// [`RequestError`]. Per case, the positive's rank comes from a bounded
/// top-`k` [`TopNHeap`] over the negatives ([`topk_case_metrics`]) —
/// the serving retrieval selection, with full-scan-identical metrics.
pub fn evaluate_topn_backend<B: ScoringBackend + Sync + ?Sized>(
    backend: &B,
    catalog: Option<&Catalog>,
    seen: Option<&SeenItems>,
    cases: &[LooTestCase],
    k: usize,
    par: Parallelism,
) -> Result<TopnMetrics, RequestError> {
    assert!(!cases.is_empty(), "evaluate_topn_backend: no test cases");
    let per_user: Vec<Result<(f64, f64), RequestError>> = gmlfm_par::par_blocks(par, cases.len(), |range| {
        cases[range]
            .iter()
            .map(|case| {
                let req = TopNRequest::new(case.user, 1 + case.negatives.len())
                    .candidates(
                        std::iter::once(case.pos_item).chain(case.negatives.iter().copied()).collect(),
                    )
                    .include_seen()
                    .parallelism(Parallelism::serial());
                let scored =
                    exec::execute_candidate_scores(backend, catalog, seen, &[], &req, Parallelism::serial())?;
                let mut heap = TopNHeap::new(k);
                for (i, &(_, s)) in scored[1..].iter().enumerate() {
                    heap.push(i as u32, s);
                }
                Ok(topk_case_metrics(scored[0].1, heap.retained(), k))
            })
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
    use gmlfm_data::{generate, loo_split, DatasetSpec};

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

    /// The frozen ranking protocol must produce the same metrics as the
    /// generic candidate-scoring protocol for the same frozen model.
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
        let fast = evaluate_topn_frozen(&frozen, &d, &mask, &split.test, 10);
        assert_eq!(fast.per_user_hr, generic.per_user_hr);
        for (a, b) in fast.per_user_ndcg.iter().zip(&generic.per_user_ndcg) {
            assert!((a - b).abs() < 1e-12);
        }
        // And both agree with the autograd path's metrics.
        let graph = evaluate_topn(&model, &d, &mask, &split.test, 10);
        assert_eq!(fast.per_user_hr, graph.per_user_hr);
    }

    /// The serving-API protocol must match the frozen protocol
    /// bit-for-bit: both rank the same candidates through the same
    /// ranker machinery, one addressed by request, one by dataset.
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
        let fast = evaluate_topn_frozen(&frozen, &d, &mask, &split.test, 10);
        let server = ModelServer::new(ModelSnapshot {
            schema: d.schema.clone(),
            frozen,
            catalog: Some(Catalog::from_dataset(&d, &mask)),
            seen: None,
            index: None,
        })
        .expect("consistent snapshot");
        let served = evaluate_topn_service(&server, &split.test, 10);
        assert_eq!(served.per_user_hr, fast.per_user_hr);
        assert_eq!(
            served.per_user_ndcg.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            fast.per_user_ndcg.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
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
}

//! Property tests pinning every parallel serving/eval path **bit-identical**
//! to its serial evaluation, across all freezable [`ModelSpec`] variants
//! and thread counts {1, 2, 5}.
//!
//! The guarantee under test is structural: the `gmlfm-par` helpers
//! partition work into contiguous blocks and merge the per-block outputs
//! in input order, and every per-item computation is pure — so no thread
//! count, not even one larger than the machine's core count, may change
//! a single bit of any score or per-user metric.

mod common;

use common::freezable_specs;
use gmlfm_data::{generate, loo_split, DatasetSpec, FieldMask, Instance, LooSplit};
use gmlfm_engine::{Engine, ModelSpec, SplitPlan};
use gmlfm_eval::{evaluate_rating, evaluate_topn_frozen_with};
use gmlfm_par::Parallelism;
use gmlfm_serve::FrozenModel;
use gmlfm_train::{Scorer, TrainConfig};
use proptest::prelude::*;
use std::sync::OnceLock;

const THREAD_COUNTS: [usize; 3] = [1, 2, 5];

struct Fixture {
    dataset: gmlfm_data::Dataset,
    mask: FieldMask,
    split: LooSplit,
    /// `(display name, frozen model)` for every freezable spec.
    frozen: Vec<(&'static str, FrozenModel)>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = generate(&DatasetSpec::AmazonAuto.config(91).scaled(0.15));
        let mask = FieldMask::all(&dataset.schema);
        let split = loo_split(&dataset, &mask, 2, 20, 6);
        // Untrained estimators are enough: scoring parity is independent
        // of the parameter values, and freezing at init keeps the
        // fixture fast.
        let frozen = freezable_specs()
            .into_iter()
            .map(|spec| {
                let name = spec.display_name();
                let estimator = spec.build(&dataset.schema, &mask);
                (name, estimator.freeze_if_supported().expect("freezable spec"))
            })
            .collect();
        Fixture { dataset, mask, split, frozen }
    })
}

/// A scorer that forces a fixed parallelism through the frozen batch
/// path, so `evaluate_rating` can be compared across thread counts.
struct ParScorer<'m>(&'m FrozenModel, Parallelism);

impl Scorer for ParScorer<'_> {
    fn scores(&self, instances: &[Instance]) -> Vec<f64> {
        self.0.scores_with(instances, self.1)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Parallel batch scoring is bit-identical to per-instance `predict`
    /// for random instance batches and thread counts.
    #[test]
    fn scores_with_parallel_is_bit_identical(
        variant in 0usize..10,
        raw in proptest::collection::vec(proptest::collection::vec(0u32..100_000, 1..5), 1..60),
    ) {
        let f = fixture();
        let (name, model) = &f.frozen[variant];
        let n = model.n_features() as u32;
        let instances: Vec<Instance> = raw
            .into_iter()
            .map(|feats| {
                let mut feats: Vec<u32> = feats.into_iter().map(|x| x % n).collect();
                feats.sort_unstable();
                feats.dedup();
                Instance::new(feats, 1.0)
            })
            .collect();
        let serial: Vec<f64> = instances.iter().map(|inst| model.predict(inst)).collect();
        for t in THREAD_COUNTS {
            let par = model.scores_with(&instances, Parallelism::threads(t));
            prop_assert_eq!(
                par.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                serial.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                "{} at {} threads", name, t
            );
        }
    }

    /// The frozen leave-one-out protocol produces bit-identical per-user
    /// metric vectors at every thread count.
    #[test]
    fn evaluate_topn_frozen_parallel_is_bit_identical(variant in 0usize..10) {
        let f = fixture();
        let (name, model) = &f.frozen[variant];
        let serial = evaluate_topn_frozen_with(
            model, &f.dataset, &f.mask, &f.split.test, 10, Parallelism::serial(),
        );
        for t in THREAD_COUNTS {
            let par = evaluate_topn_frozen_with(
                model, &f.dataset, &f.mask, &f.split.test, 10, Parallelism::threads(t),
            );
            prop_assert_eq!(&par.per_user_hr, &serial.per_user_hr, "{} HR at {} threads", name, t);
            prop_assert_eq!(
                par.per_user_ndcg.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                serial.per_user_ndcg.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                "{} NDCG at {} threads", name, t
            );
            prop_assert_eq!(par.hr.to_bits(), serial.hr.to_bits());
            prop_assert_eq!(par.ndcg.to_bits(), serial.ndcg.to_bits());
        }
    }

    /// Rating evaluation through the parallel batch scorer matches the
    /// serial scorer bit-for-bit at every thread count.
    #[test]
    fn evaluate_rating_parallel_is_bit_identical(variant in 0usize..10) {
        let f = fixture();
        let (name, model) = &f.frozen[variant];
        let test: Vec<Instance> = f.split.train.iter().take(300).cloned().collect();
        let serial = evaluate_rating(&ParScorer(model, Parallelism::serial()), &test);
        for t in THREAD_COUNTS {
            let par = evaluate_rating(&ParScorer(model, Parallelism::threads(t)), &test);
            prop_assert_eq!(par.rmse.to_bits(), serial.rmse.to_bits(), "{} RMSE at {} threads", name, t);
            prop_assert_eq!(par.mae.to_bits(), serial.mae.to_bits(), "{} MAE at {} threads", name, t);
            prop_assert_eq!(par.n, serial.n);
        }
    }
}

/// The engine's builder-level `threads(..)` knob must not change
/// rankings or holdout metrics either.
#[test]
fn engine_threads_knob_is_output_invariant() {
    let dataset = generate(&DatasetSpec::AmazonAuto.config(93).scaled(0.15));
    let build = |threads: usize| {
        Engine::builder()
            .dataset(dataset.clone())
            .split(SplitPlan::topn(5))
            .spec(ModelSpec::gml_fm_md(6))
            .train_config(TrainConfig { epochs: 1, ..TrainConfig::default() })
            .threads(threads)
            .fit()
            .expect("pipeline")
    };
    let serial = build(1);
    let parallel = build(5);
    assert_eq!(parallel.threads(), 5);
    for user in 0..8u32 {
        assert_eq!(serial.top_n(user, 10).unwrap(), parallel.top_n(user, 10).unwrap(), "user {user}");
    }
    let a = serial.evaluate_topn(10).unwrap();
    let b = parallel.evaluate_topn(10).unwrap();
    assert_eq!(a.per_user_hr, b.per_user_hr);
    assert_eq!(a.per_user_ndcg, b.per_user_ndcg);
}

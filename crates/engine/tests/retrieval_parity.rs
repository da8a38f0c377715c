//! Property tests pinning sharded bounded-heap top-N retrieval
//! **item-for-item identical** — scores bitwise, tie order included — to
//! the full-sort reference, across all 10 freezable [`ModelSpec`]
//! variants, thread (= shard) counts {1, 2, 5} and
//! `n ∈ {1, 5, catalog_size, catalog_size + 10}`.
//!
//! The reference is the pre-retrieval-redesign path, re-implemented
//! here: score every candidate with one ranker, stable-sort the full
//! vector under the shared total order ([`gmlfm_serve::rank_cmp`]:
//! score desc, item id asc), truncate. The fast path must reproduce it
//! exactly — no approximation budget — both when called directly
//! ([`gmlfm_serve::scan_top_n`]) and through the serving request path
//! (`ModelServer::top_n`).

mod common;

use common::{freezable_specs, reference_top_n};
use gmlfm_data::{generate, DatasetSpec, FieldMask};
use gmlfm_par::Parallelism;
use gmlfm_serve::{scan_top_n, FrozenModel, Precision};
use gmlfm_service::{Catalog, ModelServer, ModelSnapshot, TopNRequest};
use proptest::prelude::*;
use std::sync::OnceLock;

const THREAD_COUNTS: [usize; 3] = [1, 2, 5];

struct Fixture {
    catalog: Catalog,
    /// `(display name, frozen model, server over the same snapshot)` per
    /// freezable spec.
    frozen: Vec<(&'static str, FrozenModel, ModelServer)>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = generate(&DatasetSpec::AmazonAuto.config(97).scaled(0.15));
        let mask = FieldMask::all(&dataset.schema);
        let catalog = Catalog::from_dataset(&dataset, &mask);
        // Untrained estimators are enough: retrieval parity is
        // independent of the parameter values, and freezing at init
        // keeps the fixture fast.
        let frozen = freezable_specs()
            .into_iter()
            .map(|spec| {
                let name = spec.display_name();
                let estimator = spec.build(&dataset.schema, &mask);
                let frozen = estimator.freeze_if_supported().expect("freezable spec");
                let server = ModelServer::new(ModelSnapshot {
                    schema: dataset.schema.clone(),
                    frozen: frozen.clone(),
                    catalog: Some(catalog.clone()),
                    seen: None,
                    index: None,
                })
                .expect("consistent snapshot");
                (name, frozen, server)
            })
            .collect();
        Fixture { catalog, frozen }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Direct sharded retrieval equals the full sort at every
    /// (thread count × n) combination.
    #[test]
    fn sharded_heap_matches_full_sort(variant in 0usize..10, user in 0u32..200, n_kind in 0usize..4) {
        let f = fixture();
        let (name, model, _) = &f.frozen[variant];
        let user = user % f.catalog.n_users() as u32;
        let catalog_size = f.catalog.n_items();
        let n = [1, 5, catalog_size, catalog_size + 10][n_kind];
        let reference = reference_top_n(model, &f.catalog, user, n);
        let candidates: Vec<u32> = (0..catalog_size as u32).collect();
        for threads in THREAD_COUNTS {
            let got = scan_top_n(
                model,
                &f.catalog,
                f.catalog.template(user).expect("user"),
                f.catalog.item_slots(),
                &candidates,
                n,
                Precision::F64,
                Parallelism::threads(threads),
            );
            prop_assert_eq!(got.len(), reference.len(), "{} threads={}", name, threads);
            for (g, r) in got.iter().zip(&reference) {
                prop_assert_eq!(g.0, r.0, "{} item order drifted (threads={}, n={})", name, threads, n);
                prop_assert_eq!(g.1.to_bits(), r.1.to_bits(), "{} score drifted (threads={}, n={})", name, threads, n);
            }
        }
    }

    /// The serving request path — default sharding = the request's
    /// worker count — equals the same reference.
    #[test]
    fn request_path_matches_full_sort(variant in 0usize..10, user in 0u32..200, n_kind in 0usize..4) {
        let f = fixture();
        let (name, model, server) = &f.frozen[variant];
        let user = user % f.catalog.n_users() as u32;
        let catalog_size = f.catalog.n_items();
        let n = [1, 5, catalog_size, catalog_size + 10][n_kind];
        let reference = reference_top_n(model, &f.catalog, user, n);
        for threads in THREAD_COUNTS {
            let req = TopNRequest::new(user, n).include_seen().parallelism(Parallelism::threads(threads));
            let got = server.top_n(&req).expect("valid request").value;
            prop_assert_eq!(&got, &reference, "{} request path drifted (threads={}, n={})", name, threads, n);
        }
    }
}

/// Equal-score candidates must rank by ascending item id on both paths:
/// a model with zero interaction weights scores every item identically,
/// so the whole ranking is decided by the tie contract.
#[test]
fn exact_ties_rank_by_item_id_on_both_paths() {
    use gmlfm_serve::SecondOrder;
    use gmlfm_tensor::Matrix;
    let n_items = 57usize;
    let dim = 1 + n_items;
    let frozen = FrozenModel::from_parts(0.5, vec![0.0; dim], Matrix::zeros(dim, 4), SecondOrder::Dot);
    let catalog =
        Catalog::new(vec![1], vec![vec![0u32, 1]], (0..n_items as u32).map(|i| vec![1 + i]).collect());
    let reference = reference_top_n(&frozen, &catalog, 0, 10);
    let expected: Vec<(u32, f64)> = (0..10u32).map(|i| (i, 0.5)).collect();
    assert_eq!(reference, expected, "full sort ranks ties by ascending item id");
    let candidates: Vec<u32> = (0..n_items as u32).collect();
    for threads in THREAD_COUNTS {
        let got = scan_top_n(
            &frozen,
            &catalog,
            catalog.template(0).expect("user"),
            catalog.item_slots(),
            &candidates,
            10,
            Precision::F64,
            Parallelism::threads(threads),
        );
        assert_eq!(got, expected, "threads={threads}");
    }
}

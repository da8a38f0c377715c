//! Property test pinning the serving request path (`ModelServer::top_n`)
//! **item-for-item identical** — scores bitwise, tie order included — to
//! the full-sort reference, across all 10 freezable [`ModelSpec`]
//! variants frozen at initialisation, thread (= shard) counts {1, 2, 5}
//! and `n ∈ {1, 5, catalog_size, catalog_size + 10}`.
//!
//! The reference scores every candidate, stable-sorts the full vector
//! under the shared total order ([`gmlfm_serve::rank_cmp`]: score desc,
//! item id asc) and truncates. The same routes of trained models are held
//! to it in `parity.rs`.

mod common;

use common::{freezable_specs, reference_top_n};
use gmlfm_data::{generate, DatasetSpec, FieldMask};
use gmlfm_par::Parallelism;
use gmlfm_serve::FrozenModel;
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

    /// The serving request path — default sharding = the request's
    /// worker count — equals the full-sort reference.
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

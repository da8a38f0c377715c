//! `candidate_scores` of a frozen model — the scorer behind every
//! evaluation protocol and the online gate — scores the list through
//! `TopNRanker::score_block`, which builds per-request slot tables and
//! reads the group memo. Whatever it stages, it must return the per-id
//! `TopNRanker::score` bits, in candidate order: in every second-order
//! mode, with and without the memo, on lists with duplicate ids and on
//! lists shorter than an attribute slot's width. The inert `Precision`
//! and `Parallelism` shims are held here too: in every mode, a narrow
//! precision or a thread count returns the serial `F64` reply.

use gmlfm_core::Distance;
use gmlfm_par::Parallelism;
use gmlfm_serve::{FrozenModel, Precision, SecondOrder};
use gmlfm_service::{Catalog, ScoringBackend};
use gmlfm_tensor::init::normal;
use gmlfm_tensor::seeded_rng;

const N_USERS: u32 = 4;
const N_ITEMS: u32 = 200;
/// Attribute slots narrow enough to be tabled per request (width × 4 ≤
/// items), and user attributes.
const N_GENRES: u32 = 9;
const N_BRANDS: u32 = 40;
const N_USER_ATTRS: u32 = 3;
const GENRE_LO: u32 = N_USERS + N_ITEMS;
const BRAND_LO: u32 = GENRE_LO + N_GENRES;
const USER_ATTR_LO: u32 = BRAND_LO + N_BRANDS;
const DIM: usize = (USER_ATTR_LO + N_USER_ATTRS) as usize;

/// Items are `[id, genre, brand]`; a user's template interleaves the
/// item slots with the context (`[user, item, genre, user attr,
/// brand]`), so TransFM's slot-oriented pairs face both directions.
fn catalog() -> Catalog {
    let group =
        |i: u32| vec![N_USERS + i, GENRE_LO + (i * 7 + 3) % N_GENRES, BRAND_LO + (i * 13 + 5) % N_BRANDS];
    let first = group(0);
    Catalog::new(
        vec![1, 2, 4],
        (0..N_USERS)
            .map(|u| vec![u, first[0], first[1], USER_ATTR_LO + u % N_USER_ATTRS, first[2]])
            .collect(),
        (0..N_ITEMS).map(group).collect(),
    )
}

/// One model per second-order mode the ranker serves.
fn models(seed: u64) -> Vec<(&'static str, FrozenModel)> {
    let k = 9;
    let mut rng = seeded_rng(seed);
    let v = normal(&mut rng, DIM, k, 0.0, 0.4);
    let v_hat = normal(&mut rng, DIM, k, 0.0, 0.4);
    let h = normal(&mut rng, 1, k, 0.0, 0.4).into_vec();
    let w = normal(&mut rng, 1, DIM, 0.0, 0.1).into_vec();
    let v_trans = normal(&mut rng, DIM, k, 0.0, 0.3);
    let q: Vec<f64> = (0..DIM).map(|r| v_hat.row(r).iter().map(|x| x * x).sum()).collect();
    let metric = |h: Option<Vec<f64>>, d| SecondOrder::metric(v_hat.clone(), q.clone(), h, d);
    [
        ("dot", SecondOrder::Dot),
        ("weighted squared Euclidean", metric(Some(h.clone()), Distance::SquaredEuclidean)),
        ("squared Euclidean", metric(None, Distance::SquaredEuclidean)),
        ("weighted Manhattan", metric(Some(h.clone()), Distance::Manhattan)),
        ("Chebyshev", metric(None, Distance::Chebyshev)),
        ("weighted cosine", metric(Some(h), Distance::Cosine)),
        ("TransFM", SecondOrder::Translated { v_trans }),
    ]
    .into_iter()
    .map(|(name, second)| (name, FrozenModel::from_parts(0.1, w.clone(), v.clone(), second)))
    .collect()
}

/// The memo has no accessor, so its presence is read off `Debug`.
fn carries_memo(frozen: &FrozenModel) -> bool {
    format!("{frozen:?}").contains("group_memo: Some(GroupMemo {")
}

#[test]
fn candidate_scores_are_the_per_id_ranker_bits() {
    let catalog = catalog();
    let lists: Vec<(&str, Vec<u32>)> = vec![
        ("whole catalogue", (0..N_ITEMS).collect()),
        ("reversed with duplicates", (0..N_ITEMS).rev().chain([5, 5, 17, 5, 199, 0, 0]).collect()),
        ("shorter than the genre slot", vec![3, 150, 42]),
        ("one duplicated id", vec![77, 77]),
        ("empty", Vec::new()),
    ];
    for seed in [1, 2] {
        for (mode, plain) in models(seed) {
            let memoised = plain.clone().with_group_memo(&catalog);
            assert_eq!(
                carries_memo(&memoised),
                mode != "TransFM",
                "{mode}: the memo is built where it can be"
            );
            for user in 0..N_USERS {
                let template = catalog.template(user).expect("user in range");
                let mut ranker = plain.ranker(template, catalog.item_slots());
                for (list, ids) in &lists {
                    let want: Vec<u64> = ids
                        .iter()
                        .map(|&id| ranker.score(catalog.item_features(id).expect("item in range")).to_bits())
                        .collect();
                    for (memo, model) in [("plain", &plain), ("memoised", &memoised)] {
                        let got: Vec<u64> = model
                            .candidate_scores(&catalog, template, ids)
                            .into_iter()
                            .map(f64::to_bits)
                            .collect();
                        assert_eq!(got, want, "{mode}, {memo}, {list}, user {user}");
                    }
                }
            }
        }
    }
}

/// `with_precision` and `select_top_n_prec`'s precision and `par`
/// select nothing: at `F32` and at `I8`, on a model passed through
/// `with_precision(Precision::I8)`, and at three threads, the top 10 is
/// the serial `F64` reply's ids and bits.
#[test]
fn a_narrow_precision_returns_the_f64_reply() {
    let catalog = catalog();
    let lists: [Vec<u32>; 2] = [(0..N_ITEMS).collect(), (0..N_ITEMS).rev().chain([5, 5, 17]).collect()];
    let bits =
        |ranked: Vec<(u32, f64)>| ranked.into_iter().map(|(i, s)| (i, s.to_bits())).collect::<Vec<_>>();
    for (mode, plain) in models(3) {
        let narrowed = plain.clone().with_precision(Precision::I8);
        for user in 0..N_USERS {
            let template = catalog.template(user).expect("user in range");
            for ids in &lists {
                let serial = Parallelism::serial();
                let want = bits(plain.select_top_n_prec(&catalog, template, ids, 10, Precision::F64, serial));
                for precision in [Precision::F32, Precision::I8] {
                    for par in [serial, Parallelism::threads(3)] {
                        let got =
                            bits(narrowed.select_top_n_prec(&catalog, template, ids, 10, precision, par));
                        assert_eq!(got, want, "{mode}, user {user}, {precision:?}, {par:?}");
                    }
                }
            }
        }
    }
}

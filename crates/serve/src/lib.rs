//! # gmlfm-serve
//!
//! Autograd-free serving for trained models: the production-side answer
//! to the paper's efficiency claim (Section 3.3).
//!
//! Training needs the tape — every batch builds a reverse-mode graph.
//! Serving does not: a trained model is just numbers, and its
//! second-order term evaluates directly on a sparse instance's active
//! features, with one exact form per mode whatever their number. This
//! crate freezes any supported model into that form and routes all
//! inference through it:
//!
//! * [`Freeze`] — extracts a [`FrozenModel`] from a trained
//!   [`gmlfm_core::GmlFm`] (all transform/distance/weight variants), a
//!   [`gmlfm_models::FactorizationMachine`], or a
//!   [`gmlfm_models::TransFm`]. Freezing precomputes `V̂ = ψ(V)` and the
//!   per-feature norms, so the Mahalanobis and DNN transforms cost the
//!   same at serving time.
//! * [`FrozenModel`] — tape-free scoring of sparse instances; implements
//!   [`gmlfm_train::Scorer`], so every evaluation protocol in
//!   `gmlfm-eval` consumes it unchanged. Batch scoring
//!   ([`FrozenModel::scores_with`]) fans the instances out with
//!   `gmlfm-par`; results are bit-identical to serial at every
//!   thread count, and `GMLFM_THREADS=1` forces the serial path. The
//!   precomputed tables live in the packed [`HatQ`] layout
//!   (`[v̂ᵢ | qᵢ]` rows), so each worker's candidate delta is one
//!   linear scan.
//! * [`TopNRanker`] — leave-one-out ranking with the context staged once
//!   per user and only an `O(|ctx|·k)` (vanilla FM: `O(k)`) delta per
//!   candidate feature; every distance, the order-dependent TransFM mode
//!   included, scores by item delta.
//! * [`topn`] — top-N retrieval: the one sharded scan driver
//!   (per-shard scanner + bounded [`TopNHeap`], threshold-rejecting,
//!   merged under the deterministic [`rank_cmp`] total order — score
//!   desc, item id asc), so a whole-catalogue request costs
//!   `O(C·k + C·log n)` instead of a full `O(C·log C)` sort — and
//!   returns the *identical* ranking. [`scan_top_n`] feeds it an
//!   explicit candidate list.
//! * [`index`] — the metric-space [`IvfIndex`]: sublinear candidate
//!   generation for the squared-Euclidean metric modes, feeding the same
//!   driver a probe list under sound Cauchy–Schwarz bounds
//!   ([`RetrievalStrategy`] selects between the two sources).
//! * [`kernel`] — the fixed-width chunked `dot`/`axpy`/`sq_dist`
//!   primitives every scoring loop runs on.
//! * [`lowp`] — the opt-in `f32`/`i8` candidate tables behind the
//!   [`Precision`] scan knob.
//!
//! Parity with the autograd path is pinned to ≤1e-9 by the tests in this
//! crate and by `tests/frozen_parity.rs`. The slow side of every served
//! score check is [`FrozenModel::predict_pairwise`], which evaluates Eq. 3
//! through [`gmlfm_core::reference`]; `bench_e2e` in `gmlfm-bench`
//! measures the frozen path (`serve.predict_ns`, `eval.topn_cases_per_s`).
#![forbid(unsafe_code)]

pub mod freeze;
pub mod frozen;
pub mod index;
pub mod kernel;
pub mod lowp;
pub mod rank;
pub mod topn;

pub use freeze::Freeze;
pub use frozen::{FrozenModel, HatQ, SecondOrder};
pub use index::{ItemFeatureSource, IvfBuildOptions, IvfIndex, RetrievalStrategy};
pub use lowp::Precision;
pub use rank::TopNRanker;
pub use topn::{rank_cmp, scan_top_n, TopNHeap};

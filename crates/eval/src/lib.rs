//! # gmlfm-eval
//!
//! Evaluation protocols and metrics from Section 4.3 of the paper:
//!
//! * **Rating prediction** — RMSE (and MAE) over the held-out 10% test
//!   instances ([`evaluate_rating`]).
//! * **Top-n recommendation** — leave-one-out HR@10 and NDCG@10 over 99
//!   sampled negatives per user. One protocol, [`evaluate_topn_backend`],
//!   runs every case as a candidate-restricted request on the serving
//!   request path; [`evaluate_topn`] (any scorer, through
//!   [`ScorerBackend`]), [`evaluate_topn_frozen_with`] and
//!   [`evaluate_topn_service_with`] only choose its backend and catalog.
//! * **Significance** — Welch's two-sided t-test ([`stats::welch_t_test`]),
//!   used for the †/∗ markers in Tables 3 and 4.
//! * **Reporting** — markdown/CSV table builders shared by the `repro`
//!   binary and EXPERIMENTS.md ([`table`]).
#![forbid(unsafe_code)]

pub mod metrics;
pub mod protocol;
pub mod stats;
pub mod table;

pub use metrics::{auc, hit_ratio_at, mae, ndcg_at, reciprocal_rank, rmse};
pub use protocol::{
    evaluate_rating, evaluate_topn, evaluate_topn_backend, evaluate_topn_frozen_with,
    evaluate_topn_service_with, RatingMetrics, ScorerBackend, TopnMetrics,
};
pub use stats::{welch_t_test, TTestResult};
pub use table::Table;

//! # gmlfm-data
//!
//! Data substrate for the GML-FM reproduction: attribute schemas, sparse
//! instances, synthetic dataset generators calibrated to the paper's
//! Table 2, train/validation/test splitting, and negative sampling.
//!
//! ## Why synthetic data
//!
//! The paper evaluates on three Amazon 5-core categories, MovieLens-1M and
//! two proprietary Mercari categories. The Mercari data was never released,
//! and shipping the public datasets inside a source repository is neither
//! possible nor useful for CI. Instead, [`synth`] generates seeded datasets
//! whose *mechanisms* match what the paper attributes its results to:
//!
//! * a metric (distance-based) ground-truth preference model, with planted
//!   **intra-attribute feature correlations** — linear for some datasets,
//!   non-linear (tanh-mixed) for others — which is exactly the structure
//!   GML-FM claims to capture and inner-product FMs cannot;
//! * Zipf-distributed item popularity and a long-tailed per-user activity
//!   distribution, preserving the 5-core property;
//! * per-dataset sparsity levels whose *ordering* matches Table 2
//!   (MovieLens densest → Mercari-Books sparsest), so the paper's
//!   "sparser data ⇒ larger GML-FM advantage" trend is testable.
//!
//! Sizes are scaled (≈ ÷10 users/items) to keep the full experiment grid
//! laptop-runnable; the resulting statistics are printed by the `repro
//! table2` command next to the paper's originals.
#![forbid(unsafe_code)]
// Hash sets here answer membership only; every walk into a Vec sorts first.
#![allow(clippy::disallowed_types)]

pub mod dataset;
pub mod instance;
pub mod sampling;
pub mod schema;
pub mod split;
pub mod synth;

pub use dataset::{Dataset, DatasetStats};
pub use instance::Instance;
pub use sampling::{NegativeSampler, ZipfSampler};
pub use schema::{FieldKind, FieldMask, Schema};
pub use split::{loo_split, rating_split, LooSplit, LooTestCase, RatingSplit};
pub use synth::{
    generate, generate_scale, generate_with_truth, DatasetSpec, GroundTruth, ScaleConfig, SynthConfig,
};

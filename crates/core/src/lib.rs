//! # gmlfm-core
//!
//! The paper's primary contribution: **Factorization Machines with
//! Generalized Metric Learning** (GML-FM).
//!
//! ## Model (paper Eq. 3)
//!
//! ```text
//! ŷ(x) = w₀ + Σᵢ wᵢxᵢ + Σᵢ Σ_{j>i} w_ij · D(vᵢ, vⱼ) · xᵢxⱼ
//! w_ij = hᵀ (vᵢ ⊙ vⱼ)                       (transformation weight, Eq. 2)
//! ```
//!
//! where `D` is a distance between *transformed* embeddings `v̂ = ψ(v)`:
//!
//! * [`Transform::Identity`] — plain squared Euclidean (TransFM's world,
//!   no intra-attribute correlations);
//! * [`Transform::Mahalanobis`] — `D = (vᵢ−vⱼ)ᵀ LLᵀ (vᵢ−vⱼ)`, positive
//!   semi-definite by construction (paper Eq. 4–6), capturing *linear*
//!   feature correlations → **GML-FM_md**;
//! * [`Transform::Dnn`] — `v̂ = tanh(W_L(…tanh(W₁v + b₁)) + b_L)`
//!   (paper Eq. 7/8), capturing *non-linear* correlations → **GML-FM_dnn**.
//!
//! The distance itself generalises per Section 3.5 ([`Distance`]):
//! squared Euclidean (default), Manhattan (p=1), Chebyshev (p=∞) and
//! cosine.
//!
//! ## Efficient evaluation (paper Section 3.3)
//!
//! [`efficient`] implements both the naive `O(k²n²)` double-loop
//! evaluation of the second-order term for dense real-valued inputs and
//! the paper's simplified `O(k²n)` forms (Eq. 10 for Mahalanobis, Eq. 11
//! for DNN). Property tests pin their exact equality; `repro efficiency`
//! reproduces the claimed linear-vs-quadratic scaling.
//!
//! ## Relation to vanilla FMs (paper Section 3.6)
//!
//! With `w_ij = 1`, `D` squared Euclidean, and all embeddings constrained
//! to equal norm, GML-FM reduces to a vanilla FM up to affine constants —
//! verified numerically in [`relation`].
//!
//! [`reference`](mod@reference) is the one slow evaluator of Eq. 3 (and
//! of the FM and TransFM pair terms) that every fast path is tested
//! against.
#![forbid(unsafe_code)]

pub mod distance;
pub mod efficient;
pub mod model;
pub mod reference;
pub mod relation;

pub use distance::{Distance, Transform};
pub use efficient::{DenseGmlFm, DenseTransform, DnnTransform};
pub use model::{GmlFm, GmlFmConfig, TransformKind};

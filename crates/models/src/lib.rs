//! # gmlfm-models
//!
//! Every baseline the paper compares against (Section 4.2), implemented
//! from scratch:
//!
//! | Model | Task(s) | Module | Training path |
//! |---|---|---|---|
//! | MF | rating | [`mf`] | hand-derived SGD |
//! | PMF | rating | [`mf`] | hand-derived SGD + Gaussian priors |
//! | BPR-MF | top-n | [`bpr`] | hand-derived pairwise SGD |
//! | NCF (NeuMF) | top-n | [`ncf`] | autograd |
//! | NGCF | top-n | [`ngcf`] | hand-derived BPR through linear propagation |
//! | FM (LibFM) | both | [`fm`] | hand-derived SGD, O(k·m) per instance |
//! | NFM | both | [`nfm`] | autograd |
//! | AFM | both | [`afm`] | autograd |
//! | DeepFM | both | [`deepfm`] | autograd |
//! | xDeepFM (CIN) | both | [`xdeepfm`] | autograd |
//! | TransFM | both | [`transfm`] | autograd |
//! | MAMO-lite | cold-start | [`mamo`] | Reptile-style meta-learning |
//!
//! All FM-family models consume the field-major [`gmlfm_data::Instance`]
//! encoding; MF-family models additionally decode `(user, item)` pairs via
//! [`common::PairCodec`].
//!
//! ### Substitutions
//!
//! Where this reproduction departs from the paper's set-up, on purpose:
//!
//! * **NGCF** uses the simplified linear propagation of LightGCN
//!   (He et al., SIGIR'20): the per-layer `W₁/W₂` feature transforms are
//!   dropped, which LightGCN showed to match or improve the original NGCF.
//!   Backpropagation through the propagation is exact (it is linear).
//! * **MAMO** is implemented as *MAMO-lite*: a Reptile-style meta-learner
//!   with an attribute-conditioned user-embedding initialiser (the paper's
//!   "personalised initialisation" memory) and per-user local adaptation,
//!   rather than the full dual-memory architecture.
//! * **Datasets** are synthetic (`gmlfm_data::synth`): the six of Table 2
//!   with users and items scaled ≈ ÷10 (scale factor 1.0) and the
//!   paper's sparsity *ordering* kept, so measured numbers are compared
//!   with the paper's by shape — who wins, in which order — not by
//!   value. Figure 4's cold-start protocol (hold-out share, warm/cold
//!   thresholds) is adapted to that substrate and stated in
//!   `gmlfm_experiments::fig4`.
#![forbid(unsafe_code)]
// BPR and NGCF take the split's per-user item sets, read for membership only.
#![allow(clippy::disallowed_types)]

pub mod afm;
pub mod bpr;
pub mod common;
pub mod deepfm;
pub mod fm;
pub mod graphfm;
pub mod mamo;
pub mod mf;
pub mod ncf;
pub mod nfm;
pub mod ngcf;
pub mod transfm;
pub mod xdeepfm;

pub use afm::Afm;
pub use bpr::BprMf;
pub use common::{PairCodec, Scorer};
pub use deepfm::DeepFm;
pub use fm::FactorizationMachine;
pub use mamo::MamoLite;
pub use mf::{MatrixFactorization, Pmf};
pub use ncf::Ncf;
pub use nfm::Nfm;
pub use ngcf::Ngcf;
pub use transfm::TransFm;
pub use xdeepfm::XDeepFm;

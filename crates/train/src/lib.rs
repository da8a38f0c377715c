//! # gmlfm-train
//!
//! Optimisation and training loops shared by every model in the
//! workspace.
//!
//! * [`optim`] — SGD and Adam over a [`gmlfm_autograd::ParamSet`]. The
//!   paper trains all models with Adam (Section 4.4) after initialising
//!   parameters from `N(0, 0.01²)`; the plain SGD update of Eq. 14 is also
//!   provided and benchmarked.
//! * [`loss`] — scalar squared-error (Eq. 13) and BPR loss helpers for the
//!   hand-derived (non-autograd) models.
//! * [`trainer`] — a mini-batch regression trainer for [`GraphModel`]s
//!   (models that build an autograd graph per batch), with validation
//!   early stopping.
//! * [`batch`] — field-major batching utilities turning a slice of sparse
//!   instances into per-field index vectors for embedding gathers.
#![forbid(unsafe_code)]

pub mod batch;
pub mod loss;
pub mod optim;
pub mod trainer;

pub use batch::{field_index_columns, labels_column, unique_with_inverse};
pub use optim::{Adam, Optimizer, Sgd};
pub use trainer::{fit_bpr, fit_regression, GraphModel, Scorer, TrainConfig, TrainReport};

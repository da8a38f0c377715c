//! # gmlfm-autograd
//!
//! Tape-based reverse-mode automatic differentiation over
//! [`gmlfm_tensor::Matrix`].
//!
//! The GML-FM paper trains a dozen models (FM variants, MLP towers, an
//! attention network, a compressed interaction network, metric-learning
//! distances) with SGD/Adam. The authors used PyTorch; the Rust deep
//! learning ecosystem is thin for this kind of custom, small-scale dense
//! training, so this crate provides the minimal engine those models need:
//!
//! * a [`ParamSet`] registry of named trainable matrices,
//! * a [`Graph`] that records operations eagerly (values computed at
//!   construction) and replays the tape backwards to accumulate exact
//!   gradients,
//! * a finite-difference [`check`] module that certifies every operator's
//!   backward rule against central differences.
//!
//! The operator inventory is deliberately exactly what the workspace's
//! models require — dense matmul, broadcasting adds/muls, element-wise
//! non-linearities, reductions, row gathers for embedding lookups, dropout,
//! and row-wise softmax — rather than a general tensor IR.
//!
//! ## Embedding lookups backpropagate row-sparse
//!
//! A [`Graph::gather_rows`] whose source is a parameter leaf — every
//! embedding lookup of every model in the workspace — does not build a
//! table-sized adjoint: [`Graph::backward`] scatter-adds its `B` rows
//! straight into that parameter's entry of [`Gradients`], which is
//! zero-filled once per parameter per step. When the gathers of one table
//! read disjoint index sets (each field of a one-hot schema owns its own
//! index range) every row is summed in the order the dense rule summed
//! it, so the gradient is the same bits; gathers that share rows agree
//! with the dense rule to rounding. `Gradients` still hands out dense
//! matrices.
//!
//! ```
//! use gmlfm_autograd::{Graph, ParamSet};
//! use gmlfm_tensor::Matrix;
//!
//! let mut params = ParamSet::new();
//! let w = params.add("w", Matrix::from_rows(&[&[2.0], &[3.0]]));
//! let mut g = Graph::new();
//! let wv = g.param(&params, w);
//! let x = g.constant(Matrix::row_vector(&[4.0, 5.0]));
//! let y = g.matmul(x, wv); // 1x1 = [4*2 + 5*3] = [23]
//! let loss = g.square(y);
//! let grads = g.backward(loss);
//! // d(y^2)/dw = 2*y*x = [184, 230]
//! let gw = grads.get(w).unwrap();
//! assert_eq!(gw.as_slice(), &[184.0, 230.0]);
//! ```
#![forbid(unsafe_code)]

pub mod check;
pub mod graph;
pub mod params;

pub use check::gradient_check;
pub use graph::{Graph, Var};
pub use params::{Gradients, ParamId, ParamSet};

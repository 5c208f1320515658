//! Minimal neural-network stack for training BlockGNN's compressed GNNs.
//!
//! The paper's Table III trains two-layer GNNs whose weight matrices are
//! constrained to block-circulant structure ("this block-circulant
//! property is guaranteed by adding certain constraints during model
//! training", §III-A). This crate supplies exactly the machinery that
//! takes: batched layers with explicit forward/backward passes, a dense
//! [`Dense`] layer, its compressed counterpart [`CirculantDense`] whose
//! parameters *are* the circulant kernels (gradients are computed
//! directly in kernel space via FFT correlation, so the constraint can
//! never be violated), the activations of Table I, softmax cross-entropy,
//! and the Adam optimizer.
//!
//! No autograd tape: GNN layers compose a handful of primitives, and
//! explicit backward passes keep every gradient inspectable (the
//! test-only `gradcheck` module verifies them against finite
//! differences).
//!
//! # Example
//!
//! ```
//! use blockgnn_linalg::Matrix;
//! use blockgnn_nn::{CirculantDense, Layer};
//!
//! let mut layer = CirculantDense::new(8, 6, 4, 42).unwrap();
//! let x = Matrix::from_fn(3, 6, |i, j| (i + j) as f64 * 0.1);
//! let y = layer.forward(&x, true);
//! assert_eq!(y.shape(), (3, 8));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod activation;
pub mod circulant;
pub mod dense;
pub mod error;
#[cfg(test)]
mod gradcheck;
pub mod layer;
pub mod loss;
pub mod optim;
pub mod param;

pub use activation::{Activation, Elu, Relu, Sigmoid};
pub use circulant::CirculantDense;
pub use dense::Dense;
pub use error::NnError;
pub use layer::{Compression, ExecMode, Layer, LinearLayer};
pub use loss::softmax_cross_entropy;
pub use optim::{Adam, Optimizer};
pub use param::Param;

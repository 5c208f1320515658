//! Dense linear algebra substrate for the BlockGNN reproduction.
//!
//! Everything the uncompressed baseline needs: a row-major [`Matrix`] with
//! GEMM/GEMV kernels, slice-level vector operations ([`vector`]), and the
//! weight initializers used when training GNNs ([`init`]) — and, because
//! this is the one crate every kernel crate depends on, [`isa::dispatch`],
//! which runs a lane kernel compiled for the vectors the CPU has.
//!
//! The paper compares block-circulant O(n log n) inference against dense
//! O(n²) matrix–vector products (its CPU and HyGCN baselines); the kernels
//! here *are* that dense baseline, so they are written straightforwardly —
//! a cache-friendly i-k-j GEMM, no SIMD intrinsics — to keep the
//! comparison honest and portable.
//!
//! # Example
//!
//! ```
//! use blockgnn_linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
//! let x = vec![1.0, 1.0];
//! assert_eq!(a.matvec(&x), vec![3.0, 7.0]);
//! ```

#![deny(missing_docs)]
// The workspace's only `unsafe` blocks are the calls into the
// `target_feature` functions of `isa::Arm::run`; every other crate
// forbids the keyword outright.
#![deny(unsafe_code, clippy::undocumented_unsafe_blocks)]

pub mod init;
pub mod isa;
pub mod matrix;
pub mod vector;

pub use matrix::{Matrix, ShapeError};

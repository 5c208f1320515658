//! Block-circulant weight matrices — the algorithmic core of BlockGNN
//! (Zhou et al., DAC 2021).
//!
//! A weight matrix `W ∈ ℝ^{N×M}` is partitioned into `p × q` blocks of
//! size `n × n` (`p = ⌈N/n⌉`, `q = ⌈M/n⌉`, zero-padding the remainder).
//! Each block is *circulant*: fully determined by one length-`n` vector,
//! every further row being a rotation of the first. Storage drops from
//! O(n²) to O(n) per block and, because a circulant times a vector is a
//! circular convolution, each block product collapses to
//! `IFFT(FFT(w) ∘ FFT(h))` — O(n log n) work.
//!
//! The crate provides the full tool-chain around that idea:
//!
//! * [`CirculantBlock`] — a single circulant block, its dense expansion,
//!   and the Frobenius-optimal projection of an arbitrary block onto the
//!   circulant subspace (used by compression-aware training).
//! * [`BlockCirculantMatrix`] — the partitioned matrix with padding rules,
//!   dense round-trips, and a direct (spatial-domain) product.
//! * [`RealSpectralBlockCirculant`] — the paper's **Algorithm 1**: weights
//!   pre-transformed to the spectral domain (Ŵ), per-block element-wise
//!   MACs, and accumulation *in the spectral domain* so only `p` IFFTs are
//!   needed instead of `p·q` — with the §V RFFT refinement that keeps
//!   only the non-redundant half-spectrum, applied to a tile of feature
//!   rows per transform pass. It is generic over the scalar
//!   (`blockgnn_fft::Scalar`), and it is the one kernel: f64 serving, the
//!   Q16.16 datapath, and training's forward, `∂X` (on
//!   [`RealSpectralBlockCirculant::transposed`]) and `∂W`
//!   ([`RealSpectralBlockCirculant::kernel_grad_into`]) all run its tile.
//! * [`reference::SpectralBlockCirculant`] — Algorithm 1 over full
//!   complex spectra, one row at a time: the test oracle and the no-RFFT
//!   arm of the §V ablation, on no serving path.
//! * [`FixedSpectralBlockCirculant`] — that kernel at `Q16_16` with the
//!   f64 spectra rounded into it, behind float edges: the FPGA's 32-bit
//!   fixed-point datapath, bit for bit.
//! * [`CompressionStats`] — the Table III storage-reduction (SR = n) and
//!   theoretical-computation-reduction (TCR = n/log₂n) accounting.
//!
//! # Example
//!
//! ```
//! use blockgnn_core::{BlockCirculantMatrix, RealSpectralBlockCirculant};
//!
//! // 8 logical rows, 6 logical cols, block size 4: the constructor
//! // zero-pads to a 2×2 grid of 4×4 circulant blocks.
//! let bcm = BlockCirculantMatrix::random(8, 6, 4, 42).unwrap();
//! let spectral = RealSpectralBlockCirculant::new(&bcm).unwrap();
//! let x: Vec<f64> = (0..6).map(|i| i as f64 * 0.1).collect();
//! let direct = bcm.matvec_direct(&x);
//! let fast = spectral.matvec(&x);
//! for (a, b) in direct.iter().zip(&fast) {
//!     assert!((a - b).abs() < 1e-9);
//! }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod block;
pub mod error;
pub mod fixed;
pub mod matrix;
pub mod reference;
pub mod spectral;
pub mod stats;

pub use block::CirculantBlock;
pub use error::CirculantError;
pub use fixed::FixedSpectralBlockCirculant;
pub use matrix::BlockCirculantMatrix;
pub use spectral::{RealSpectralBlockCirculant, SpectralScratch};
pub use stats::CompressionStats;

//! BlockGNN's performance and resource model (§III-D) with automatic
//! design-space exploration.
//!
//! Given a GNN task (per-layer matrix–vector shapes, sample sizes, VPU
//! work) and the FPGA's DSP budget, the model estimates the cycles each
//! CirCore pipeline stage spends per node (Eqs. 3–6), takes the pipeline
//! bottleneck (the `max` in the paper), and scales by the node count
//! (Eq. 7). The resource constraint (Eq. 8) prunes infeasible
//! configurations, and [`dse::search_optimal`] exhaustively scans the
//! remaining space — the paper reports this takes under a minute on a
//! desktop; here it takes milliseconds.
//!
//! Coefficients are the paper's measured ZC706 values: `α(128) = 484`
//! cycles per FFT, `β = 18` DSPs per FFT channel, `γ(l) = 16·l` DSPs per
//! PE, `η = 64` DSPs per SIMD-16 VPU lane, 900 DSPs total, 100 MHz.
//!
//! # Example
//!
//! ```
//! use blockgnn_perf::{coeffs::HardwareCoeffs, cycles::{LayerTask, MatvecCount}, dse};
//!
//! // A single GS-Pool-like aggregation layer: 25 sampled neighbors,
//! // each through a 512x512 weight with 128-blocks.
//! let task = LayerTask {
//!     matvecs: vec![MatvecCount { count_per_node: 25.0, out_dim: 512, in_dim: 512 }],
//!     vpu_macs_per_node: 25.0 * 512.0,
//! };
//! let best = dse::search_optimal(&[task], 2708, 128, &HardwareCoeffs::zc706());
//! assert!(best.params.dsp_usage(128, &HardwareCoeffs::zc706()) <= 900);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod coeffs;
pub mod cycles;
pub mod dse;
pub mod params;
pub mod resources;

pub use coeffs::HardwareCoeffs;
pub use cycles::{FftMode, LayerCycles, LayerTask, MatvecCount};
pub use dse::{search_optimal, DseResult};
pub use params::CirCoreParams;
pub use resources::ResourceEstimate;

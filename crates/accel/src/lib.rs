//! The BlockGNN accelerator (Figure 3) and the paper's comparison
//! architectures, as models.
//!
//! The FPGA prototype cannot ship in a source reproduction. Its cost is
//! the paper's own performance model (Eqs. 3–7, `blockgnn-perf`),
//! evaluated in one place — [`BlockGnnAccelerator::simulate_workload`].
//! Its arithmetic, the Q16.16 FFT → MAC → IFFT datapath, is not here:
//! the serving engine's `SimulatedAccel` backend runs every circulant
//! weight product through it (`blockgnn_nn::ExecMode::FixedSpectral`),
//! so served answers carry true hardware quantization error, and prices
//! each request with this crate.
//!
//! Components (§III-C):
//!
//! * [`BlockGnnAccelerator`] — CirCore + VPU + Global Buffer: prices a
//!   [`blockgnn_gnn::workload::GnnWorkload`] with Eqs. 3–7 and DRAM
//!   overlap.
//! * [`GlobalBuffer`] — the 256 KB Weight Buffer a compressed model must
//!   fit, with [`DramModel`] for the bandwidth behind the ping-pong
//!   Node-Feature Buffer.
//! * [`HyGcnModel`] — the scaled-down HyGCN baseline (6-lane SIMD-16
//!   aggregation engine + 4×32 systolic combination engine).
//! * [`CpuModel`] — the Xeon Gold 5220 roofline baseline (TensorFlow
//!   GraphSAGE efficiency, 125 W).
//! * [`energy`] — Nodes/J accounting for Figure 7.
//!
//! # Example: price a workload, then a §IV-C split of it
//!
//! ```
//! use blockgnn_accel::BlockGnnAccelerator;
//! use blockgnn_gnn::{workload::GnnWorkload, ModelKind};
//! use blockgnn_graph::datasets;
//! use blockgnn_perf::{coeffs::HardwareCoeffs, params::CirCoreParams};
//!
//! let accel = BlockGnnAccelerator::new(CirCoreParams::base(), HardwareCoeffs::zc706());
//! let spec = datasets::cora_like();
//! let price = |nodes: usize| {
//!     let mut part = spec.clone();
//!     part.num_nodes = nodes;
//!     accel.simulate_workload(&GnnWorkload::new(ModelKind::Gcn, &part, 512, &[25, 10]), 64)
//! };
//! let whole = price(spec.num_nodes);
//! assert!(whole.total_cycles > 0);
//!
//! // Partitioned processing (the paper splits Reddit in two) runs the
//! // parts in sequence: Eq. 7 is linear in the node count, so the parts
//! // cost exactly the whole graph, which is charged once.
//! let half = spec.num_nodes / 2;
//! let parts = price(half).total_cycles + price(spec.num_nodes - half).total_cycles;
//! assert_eq!(parts, whole.total_cycles);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod buffer;
pub mod cpu;
pub mod energy;
pub mod hygcn;
pub mod system;

pub use buffer::{DramModel, GlobalBuffer};
pub use cpu::CpuModel;
pub use hygcn::HyGcnModel;
pub use system::{AccelError, BlockGnnAccelerator, LayerReport, SimReport};

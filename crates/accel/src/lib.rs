//! The BlockGNN accelerator (Figure 3) as a functional + cycle-level
//! simulator, plus the paper's comparison architectures.
//!
//! The FPGA prototype cannot ship in a source reproduction, so this crate
//! simulates it at the same granularity the paper's own performance model
//! works at — cycles of the three-stage CirCore pipeline, VPU lanes, and
//! buffer/DRAM traffic — while the *functional* path pushes real numbers
//! through Q16.16 fixed-point FFT/MAC/IFFT datapaths so results carry
//! true hardware quantization error.
//!
//! Components (§III-C):
//!
//! * [`CirCoreUnit`] — weight-stationary spectral matvec engine: x-channel
//!   FFT stage, r×c systolic MAC array with pack size l, y-channel IFFT
//!   stage. Functional results are bit-matched to
//!   [`blockgnn_core::FixedSpectralBlockCirculant`].
//! * [`Vpu`] — m-lane SIMD-16 vector unit (activations, gating,
//!   max-pooling, bias).
//! * [`GlobalBuffer`] — 256 KB Weight Buffer + 512 KB ping-pong
//!   Node-Feature Buffer with a DRAM bandwidth model.
//! * [`BlockGnnAccelerator`] — the command-driven system: estimates
//!   end-to-end latency for a [`blockgnn_gnn::workload::GnnWorkload`] and
//!   executes functional layers.
//! * [`CommandProcessor`] — Figure 3's Cmd FIFO: ordered host commands,
//!   multi-slot weight residency, tagged batch completions.
//! * [`HyGcnModel`] — the scaled-down HyGCN baseline (6-lane SIMD-16
//!   aggregation engine + 4×32 systolic combination engine).
//! * [`CpuModel`] — the Xeon Gold 5220 roofline baseline (TensorFlow
//!   GraphSAGE efficiency, 125 W).
//! * [`energy`] — Nodes/J accounting for Figure 7.
//!
//! # Example: cycle-model a workload, then merge a §IV-C split
//!
//! ```
//! use blockgnn_accel::{BlockGnnAccelerator, SimReport};
//! use blockgnn_gnn::{workload::GnnWorkload, ModelKind};
//! use blockgnn_graph::datasets;
//! use blockgnn_perf::{coeffs::HardwareCoeffs, params::CirCoreParams};
//!
//! let accel = BlockGnnAccelerator::new(CirCoreParams::base(), HardwareCoeffs::zc706());
//! let spec = datasets::cora_like();
//! let whole = accel.simulate_workload(&GnnWorkload::new(ModelKind::Gcn, &spec, 512, &[25, 10]), 64);
//! assert!(whole.total_cycles > 0);
//!
//! // Partitioned processing (the paper splits Reddit in two): per-part
//! // reports merge by summation and reproduce the whole-graph total.
//! let parts = [spec.num_nodes / 2, spec.num_nodes - spec.num_nodes / 2].map(|n| {
//!     let mut part = spec.clone();
//!     part.num_nodes = n;
//!     accel.simulate_workload(&GnnWorkload::new(ModelKind::Gcn, &part, 512, &[25, 10]), 64)
//! });
//! let merged = SimReport::merge(parts).unwrap();
//! assert_eq!(merged.total_cycles, whole.total_cycles);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod buffer;
pub mod circore;
pub mod command;
pub mod cpu;
pub mod energy;
pub mod hygcn;
pub mod system;
pub mod vpu;

pub use buffer::{DramModel, GlobalBuffer};
pub use circore::CirCoreUnit;
pub use command::{Command, CommandProcessor, Completion};
pub use cpu::CpuModel;
pub use hygcn::HyGcnModel;
pub use system::{AccelError, BlockGnnAccelerator, LayerReport, PostOp, SimReport};
pub use vpu::Vpu;

//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each module reproduces one artifact of the evaluation:
//!
//! | Module    | Paper artifact |
//! |-----------|----------------|
//! | [`table2`] | Table II — GNN profiling (FLOPs, arithmetic intensity) |
//! | [`table3`] | Table III — accuracy vs block size, TCR/SR columns |
//! | [`table4`] | Table IV — dataset statistics |
//! | [`table5`] | Table V — searched optimal hardware parameters |
//! | [`table6`] | Table VI — FPGA resource utilization |
//! | [`fig6`]   | Figure 6 — performance vs CPU/HyGCN/BlockGNN-base |
//! | [`fig7`]   | Figure 7 — energy efficiency (Nodes/J) |
//! | [`ablation`] | §V discussion points (RFFT, aggregator-only) + Algorithm 1's spectral accumulation |
//! | [`quantization`] | Q16.16 deployment accuracy check (§IV-B's 32-bit fixed-point claim) |
//!
//! Run them all via the `repro` binary:
//! `cargo run --release -p blockgnn-repro --bin repro -- all --quick`.
//!
//! # Example: regenerate Table IV
//!
//! ```
//! let specs = blockgnn_repro::table4::run();
//! assert_eq!(specs.len(), 4); // CR, CS, PB, RD
//! let rendered = blockgnn_repro::table4::render(&specs);
//! assert!(rendered.contains("reddit-like"));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod fig6;
pub mod fig7;
pub mod quantization;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;

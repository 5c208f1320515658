//! Graph substrate for the BlockGNN reproduction.
//!
//! The paper evaluates on four node-classification datasets (Table IV:
//! Cora, Citeseer, Pubmed, Reddit). Those datasets are not shipped here;
//! instead this crate synthesizes stand-ins with **identical topology
//! statistics** (node count, edge count, feature dimension, label count)
//! and — for the training experiments — class-structured synthetic graphs
//! that are actually learnable:
//!
//! * [`CsrGraph`] — compressed-sparse-row adjacency, the storage format
//!   both the software models and the accelerator's Node-Feature-Buffer
//!   streaming assume.
//! * [`generate`] — Erdős–Rényi, R-MAT (power-law, Reddit-like), and
//!   stochastic-block-model generators.
//! * [`dataset`] (singular) — the **container types**: [`Dataset`]
//!   (graph + features + labels + split masks), [`DatasetSpec`] (the
//!   pure statistics row the performance models consume), and
//!   [`SplitMasks`]. Start here when you need the types.
//! * [`datasets`] (plural) — the **catalog**: Table IV stand-in
//!   constructors (`cora_like()` …) returning [`DatasetSpec`]s, plus
//!   scaled `*_small()` variants returning fully materialized
//!   [`Dataset`]s sized for in-repo training runs. Start here when you
//!   need data.
//! * [`delta`] — streaming mutation: [`GraphDelta`] batches of edge and
//!   feature changes, applied atomically through a versioned
//!   [`VersionedGraph`] (incremental CSR splicing on the hot path, full
//!   rebuild as the differential reference).
//! * [`NeighborSampler`] — GraphSAGE-style uniform neighbor sampling with
//!   the paper's fan-outs (S₁ = 25, S₂ = 10).
//! * [`partition`] — capacity-driven graph partitioning (§IV-C splits
//!   Reddit into two sub-graphs to fit the ZC706's DRAM).
//!
//! [`Dataset`], [`DatasetSpec`], and [`SplitMasks`] are re-exported at
//! the crate root so downstream crates (e.g. the serving engine) never
//! need the `dataset::`/`datasets::` distinction for the types
//! themselves.
//!
//! # Example
//!
//! ```
//! use blockgnn_graph::{datasets, NeighborSampler};
//!
//! let ds = datasets::cora_like_small(7);
//! assert!(ds.graph.num_nodes() > 0);
//! let sampler = NeighborSampler::new(&ds.graph, 42);
//! let neigh = sampler.sample(0, 25);
//! assert_eq!(neigh.len(), 25); // sampling with replacement
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod csr;
pub mod dataset;
pub mod datasets;
pub mod delta;
pub mod generate;
pub mod partition;
pub mod sample;

pub use csr::{CsrGraph, GraphError};
pub use dataset::{Dataset, DatasetSpec, SplitMasks};
pub use delta::{DeltaError, GraphDelta, VersionedGraph};
pub use partition::{GraphPart, PartitionError};
pub use sample::NeighborSampler;

//! The four GNN algorithms of BlockGNN's Table I, in dense and
//! block-circulant form, plus training and profiling.
//!
//! | Variant | Aggregation | Combination |
//! |---------|-------------|-------------|
//! | GCN     | degree-normalized neighbor sum | `ReLU(W·a_v)` |
//! | GS-Pool | `max_u ReLU(W_pool·h_u + b)`   | `ReLU(W·(a_v ‖ h_v))` |
//! | G-GCN   | `Σ_u σ(W_H·h_u + W_C·h_v) ⊙ h_u` | `ReLU(W·a_v)` |
//! | GAT     | `Σ_j softmax_j(a(W·h_i, W·h_j))·h_j` | `ELU(W·a_v)` |
//!
//! Every weight matrix can be dense (the paper's `n = 1` rows) or
//! block-circulant ([`Compression::BlockCirculant`]); the switch is the
//! *only* difference between the uncompressed and compressed models, just
//! as in the paper's experiments. All backward passes are hand-written
//! and covered by finite-difference tests.
//!
//! Entry points:
//! * [`build_model`] — construct any of the four models.
//! * [`train::train_node_classifier`] — the full-batch training loop used
//!   by the Table III accuracy experiments.
//! * [`profile`] — the Table II FLOP/arithmetic-intensity profiler.
//! * [`workload`] — per-layer operation inventories consumed by the
//!   hardware performance models.
//! * [`sampled`] — mini-batch inference over sampled two-hop computation
//!   graphs (S₁/S₂ fan-outs), the workload shape the accelerator runs.
//! * [`batch`] — a serving replica's reused sampler: it samples a
//!   micro-batch's requests as the blocks of one node universe, the
//!   serving batcher's compute core.
//!
//! # Example
//!
//! ```
//! use blockgnn_gnn::{build_model, GnnModel, ModelKind};
//! use blockgnn_graph::datasets;
//! use blockgnn_nn::Compression;
//!
//! let ds = datasets::cora_like_small(1);
//! let mut model = build_model(
//!     ModelKind::Gcn,
//!     ds.feature_dim(),
//!     32,
//!     ds.num_classes,
//!     Compression::BlockCirculant { block_size: 8 },
//!     42,
//! )
//! .unwrap();
//! let logits = model.forward(&ds.graph, &ds.features, false);
//! assert_eq!(logits.shape(), (ds.num_nodes(), ds.num_classes));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod adjacency;
pub mod batch;
pub mod models;
pub mod profile;
pub mod sampled;
pub mod table;
pub mod train;
pub mod workload;

pub use adjacency::NormalizedAdjacency;
pub use models::{
    build_model, build_model_with_policy, CompressionPolicy, GnnModel, ModelKind,
};
pub use nn_reexports::Compression;
pub use table::RowTable;

mod nn_reexports {
    pub use blockgnn_nn::Compression;
}

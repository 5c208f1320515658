//! The unified inference front door of the BlockGNN reproduction.
//!
//! The paper's premise is that one GNN executes equivalently on
//! interchangeable substrates: dense GEMM (the uncompressed baseline),
//! the block-circulant spectral path of Algorithm 1, and the CirCore
//! accelerator. This crate turns that premise into an API:
//!
//! * [`BackendKind`] — the substrate choice. There is one backend type
//!   behind it: the kind decides how the weights are frozen (dense
//!   matrices, or cached FFT plans and packed kernel spectra reused
//!   across calls) and whether the CirCore cost model rides along
//!   (functional output *and* the Eq. 3–7 cycle/energy report from one
//!   call).
//! * [`EngineBuilder`] → [`Engine`] → [`Session`] — the serving flow:
//!   the builder takes a [`blockgnn_gnn::ModelKind`], a
//!   [`blockgnn_gnn::CompressionPolicy`], a backend choice, and a
//!   dataset handle; the engine owns immutable prepared weights; a
//!   session answers micro-batched [`InferRequest`]s (full-graph or
//!   sampled two-hop subgraph per request) and accumulates
//!   [`ServeStats`] (latency, nodes/sec, simulated cycles).
//! * **Versioned mutable graphs** — [`Engine::apply_delta`] applies a
//!   [`GraphDelta`] (edge add/remove, feature updates, appended nodes)
//!   atomically: a new snapshot with a bumped version is published for
//!   the *next* micro-batch, in-flight requests finish on the old one,
//!   the full-graph logits live on their version's epoch, and every
//!   [`InferResponse`] reports the [`InferResponse::graph_version`] it
//!   was served from. [`GraphHandle`] applies deltas without owning an
//!   engine replica (what the serving runtime holds).
//! * [`Engine::into_parallel`] — partition-parallel full-graph passes
//!   (§IV-C) on the *same* engine: the graph is split into memory-budgeted
//!   [`blockgnn_graph::GraphPart`]s, one forked backend per worker
//!   thread executes the model's row-parallel stages over its parts
//!   (prepared weights `Arc`-shared), and per-part logits merge
//!   row-aligned — bit-identical to the one-worker path — while
//!   per-part [`blockgnn_accel::SimReport`]s merge by the paper's
//!   two-sub-graph summation. The plan follows the graph version, so a
//!   widened engine still takes deltas, forks and coalesces.
//!
//! # Example: same weights, three substrates
//!
//! ```
//! use blockgnn_engine::{BackendKind, EngineBuilder, InferRequest};
//! use blockgnn_gnn::ModelKind;
//! use blockgnn_graph::datasets;
//! use std::sync::Arc;
//!
//! let dataset = Arc::new(datasets::cora_like_small(1));
//! let request = InferRequest::full_graph(vec![0, 5, 9]);
//! let mut answers = Vec::new();
//! for backend in BackendKind::all() {
//!     let mut engine = EngineBuilder::new(ModelKind::Gcn, backend)
//!         .hidden_dim(16)
//!         .seed(7)
//!         .build(Arc::clone(&dataset))
//!         .unwrap();
//!     let mut session = engine.session();
//!     answers.push(session.infer(&request).unwrap());
//! }
//! // Dense GEMM and Algorithm 1 agree to FFT rounding…
//! assert!(answers[0].logits.linf_distance(&answers[1].logits) < 1e-6);
//! // …and the simulated accelerator also reports hardware cost.
//! assert!(answers[2].sim.as_ref().unwrap().total_cycles > 0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod backend;
#[allow(clippy::module_inception)]
mod engine;
mod error;
mod parallel;
mod request;
mod stats;
mod versioned;

pub use backend::BackendKind;
pub use engine::{CoalescedOutcome, Engine, EngineBuilder, Session, StageTiming};
pub use error::EngineError;
pub use parallel::DEFAULT_PART_BUDGET_BYTES;
pub use request::{
    assemble_response, validate_request, ExecOutcome, InferRequest, InferResponse, RequestMode,
    PAPER_FANOUTS,
};
pub use stats::{LatencyHistogram, ServeStats};
pub use versioned::GraphHandle;
// Mutation types callers hand to `Engine::apply_delta`, re-exported so
// serving code does not need a direct `blockgnn-graph` dependency.
pub use blockgnn_graph::{DeltaError, GraphDelta};

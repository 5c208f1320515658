//! **blockgnn** — a from-scratch Rust reproduction of
//! *BlockGNN: Towards Efficient GNN Acceleration Using Block-Circulant
//! Weight Matrices* (Zhou et al., DAC 2021, arXiv:2104.06214).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`engine`] — **the front door**: `EngineBuilder` → `Engine` →
//!   `Session` serving over pluggable execution backends (dense GEMM,
//!   spectral Algorithm 1, simulated CirCore accelerator).
//! * [`server`] — **the traffic layer**: a concurrent serving runtime
//!   with dynamic micro-batching, admission control (bounded queue,
//!   priorities/deadlines, typed shed-on-overload), p50/p95/p99
//!   telemetry, and a TCP front end (`blockgnn-serve` +
//!   `blockgnn-client` binaries).
//! * [`fft`] — radix-2 FFT/RFFT over one scalar trait: `f32`/`f64` and
//!   Q16.16 fixed point share the plans (no external FFT dep).
//! * [`linalg`] — dense matrices, the uncompressed baseline.
//! * [`core`] — block-circulant matrices and Algorithm 1 (the paper's
//!   algorithmic contribution): one spectral tile under f64 inference,
//!   the Q16.16 datapath and both training gradients.
//! * [`graph`] — CSR graphs, generators, Table IV dataset stand-ins,
//!   neighbor sampling.
//! * [`nn`] — layers/losses/optimizers with in-constraint circulant
//!   training and one-time `prepare()` weight freezing for serving.
//! * [`gnn`] — the Table I model zoo (GCN, GS-Pool, G-GCN, GAT),
//!   training, profiling, hardware workload export.
//! * [`perf`] — the §III-D performance & resource model with DSE.
//! * [`accel`] — the BlockGNN accelerator (the paper's hardware
//!   contribution): its Eq. 3–7 cost and its Q16.16 functional
//!   datapath, plus HyGCN and CPU baselines.
//!
//! # Quickstart
//!
//! *(A crate-by-crate map of the system, the paper-section → module
//! table, and the request lifecycle — sequential and parallel — live in
//! [`docs/ARCHITECTURE.md`](https://github.com/blockgnn/blockgnn/blob/main/docs/ARCHITECTURE.md);
//! see also the root `README.md` for worker-count and memory-budget
//! guidance.)*
//!
//! All inference goes through the engine: pick a model, a compression
//! policy, and an execution backend; build an [`Engine`] over a dataset;
//! open a [`Session`] and serve requests. The same weights answer on
//! every backend — swapping [`BackendKind`] swaps the substrate (Dense and
//! Spectral agree to f64 rounding; the simulated accelerator answers in
//! its Q16.16 arithmetic), not the function.
//!
//! ```
//! use blockgnn::engine::{BackendKind, EngineBuilder, InferRequest};
//! use blockgnn::gnn::ModelKind;
//! use blockgnn::graph::datasets;
//! use blockgnn::nn::Compression;
//! use std::sync::Arc;
//!
//! let dataset = Arc::new(datasets::cora_like_small(7));
//! let mut engine = EngineBuilder::new(ModelKind::Gcn, BackendKind::SimulatedAccel)
//!     .hidden_dim(16)
//!     .compression(Compression::BlockCirculant { block_size: 8 })
//!     .build(Arc::clone(&dataset))
//!     .unwrap();
//!
//! let mut session = engine.session();
//! // A sampled two-hop micro-batch — the workload shape the hardware runs.
//! let response = session.infer(&InferRequest::paper_sampled(vec![3, 141, 59], 1)).unwrap();
//! assert_eq!(response.predictions.len(), 3);
//! // The simulated-accelerator backend returns logits AND hardware cost.
//! assert!(response.sim.unwrap().total_cycles > 0);
//! println!("served {} nodes/sec", session.stats().nodes_per_second());
//! ```
//!
//! To serve a *trained* model, train it first and hand it to
//! [`EngineBuilder::build_with_model`]; see `examples/recommendation.rs`.
//!
//! For full-graph passes on a multi-core host, widen the engine
//! ([`Engine::into_parallel`]): the graph is sharded into §IV-C
//! [`graph::GraphPart`]s and executed by a worker-thread pool over
//! `Arc`-shared prepared weights, with logits bit-identical to the
//! one-worker path. Sampled requests run on one worker, as before. It
//! is still the same [`Engine`] — sessions, [`Engine::apply_delta`],
//! [`Engine::fork`] and the [`Server`] work on it unchanged.
//!
//! ```
//! use blockgnn::engine::{BackendKind, EngineBuilder, InferRequest};
//! use blockgnn::gnn::ModelKind;
//! use blockgnn::graph::datasets;
//! use std::sync::Arc;
//!
//! let dataset = Arc::new(datasets::cora_like_small(7));
//! let mut engine = EngineBuilder::new(ModelKind::Gcn, BackendKind::Dense)
//!     .hidden_dim(16)
//!     .build(dataset)
//!     .unwrap()
//!     .into_parallel(4)
//!     .unwrap();
//! let mut session = engine.session();
//! let response = session.infer(&InferRequest::all_nodes()).unwrap();
//! assert!(response.parts >= 4, "the full graph was sharded across workers");
//! ```
//!
//! To absorb *concurrent traffic*, hand the engine to the serving
//! runtime ([`Server`]): submissions pass admission control (bounded
//! queue, priorities, deadlines, typed shed-on-overload), a worker pool
//! of [`Engine::fork`] replicas coalesces them into micro-batches whose
//! answers are bit-identical to solo execution, and a TCP front end
//! ([`server::TcpServer`], spoken by the `blockgnn-serve`/
//! `blockgnn-client` binaries) exposes it all over the wire. Each
//! `key=value` reply is one field table of [`server::protocol`]'s record
//! codec, which both writes and reads it; the `stats` line, the
//! Prometheus exposition ([`Server::metrics_text`]) and the pool counters
//! under `health` are renderings of one counter table per scope (server,
//! tenant, SLO class). See `examples/serving.rs` and the "Serving
//! runtime" section of `docs/ARCHITECTURE.md`.
//!
//! Lower-level entry points remain available for research code: the
//! compression types in [`core`] (see `examples/quickstart.rs` for the
//! Table III accounting), `gnn::build_model` + `forward` for training
//! loops, and `accel::BlockGnnAccelerator` for raw hardware studies.
//! Migration note: code that previously called `gnn::sampled::
//! sampled_forward` or `accel::BlockGnnAccelerator::simulate_workload`
//! directly for serving should route through `Session::infer`, which
//! wraps both and adds batching, caching, and statistics.
//!
//! See `examples/` for end-to-end scenarios and
//! `cargo run --release -p blockgnn-repro --bin repro -- all` for the
//! full table/figure reproduction.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use blockgnn_accel as accel;
pub use blockgnn_core as core;
pub use blockgnn_engine as engine;
pub use blockgnn_fft as fft;
pub use blockgnn_gnn as gnn;
pub use blockgnn_graph as graph;
pub use blockgnn_linalg as linalg;
pub use blockgnn_nn as nn;
pub use blockgnn_perf as perf;
pub use blockgnn_server as server;

pub use blockgnn_engine::{
    BackendKind, Engine, EngineBuilder, InferRequest, InferResponse, ServeStats, Session,
};
pub use blockgnn_server::{Server, ServerConfig, TenantSpec};

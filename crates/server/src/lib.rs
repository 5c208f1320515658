//! `blockgnn-server`: the concurrent serving runtime over the
//! [`blockgnn_engine`] front door — the layer that absorbs *traffic*
//! rather than executing one call.
//!
//! The engine crates answer one request fast; production GNN serving
//! engines (GNNIE's load-balanced runtime, CirCNN's throughput layer)
//! win by how they *schedule* requests. This crate adds that layer:
//!
//! * **Admission control** — a bounded priority queue that sheds on
//!   overload with a typed [`ServerError::Overloaded`] instead of
//!   blocking, honors per-request deadlines/priorities
//!   ([`SubmitOptions`]), and drains cleanly on shutdown.
//! * **Dynamic micro-batching** — requests arriving within a
//!   configurable window coalesce into one deduplicated merged-universe
//!   execution ([`blockgnn_engine::Engine::infer_coalesced`]), with
//!   per-request logits scattered back **bit-identical** to serving
//!   each request alone.
//! * **Telemetry** — [`ServerStats`]: latency histograms with
//!   p50/p95/p99, the queue-time vs compute-time split, QPS, shed
//!   counts, and the batch-size distribution. Every exported number is
//!   a row of one counter table per scope (server, tenant, class), which
//!   the `stats` line and [`Server::metrics_text`] both render. A request's fate is
//!   recorded on one outcome path: its terminal [`TraceOutcome`] books
//!   the aggregate counter and its class rollup together, and finishes
//!   its trace record, in one call each.
//! * **Streaming graph updates** — [`Server::apply_delta`] /
//!   [`ServerHandle::update`] apply a [`GraphDelta`] to the served
//!   graph atomically *between* micro-batches: in-flight batches finish
//!   on the version they resolved, the next batch serves the bumped
//!   version, and every response reports the
//!   `graph_version` it was computed against. The `update` protocol
//!   verb carries deltas over the wire (features as `f64` bit
//!   patterns).
//! * **Multi-tenant serving** — a [`tenant`] registry hosts many
//!   `(graph, model, backend)` triples in one process behind one shared
//!   worker pool. `deploy`/`retire` publish and unpublish tenants with
//!   the same `Arc`-swap pattern the graph epochs use (no stalls for
//!   other tenants); the admission queue becomes weighted-fair across
//!   per-tenant lanes (stride scheduling, per-tenant depth caps); an
//!   aggregate §IV-B/§IV-C residency accountant rejects over-budget
//!   deploys with a typed [`ServerError::TenantBudget`]; and
//!   [`ServerStats::tenants`] holds each tenant's own snapshot (QPS,
//!   latency percentiles, sheds, graph version, weight, queue depth).
//!   The wire protocol grows `deploy`/`retire`/`list` verbs and an
//!   optional `@tenant` qualifier on `infer`/`update`/`stats` — absent
//!   means the `default` tenant, so single-tenant clients work
//!   unchanged.
//! * **SLO classes & adaptive batching** — every request carries an
//!   [`SloClass`] (`gold`/`silver`/`bronze`, `class=` on the wire);
//!   classes compose with the tenant lanes (lane weight = tenant weight
//!   × class weight, [`SloClass::WEIGHTS`], batches never span
//!   classes), gold carries a default deadline
//!   ([`SloClass::GOLD_DEADLINE`]), and all roll up per-class
//!   p50/p95/p99 in [`ServerStats::classes`]. The straggler window is
//!   **adaptive**: it widens when holds pay off and collapses when they
//!   expire empty, so batching never taxes closed-loop traffic.
//! * **Workload harness** — [`workload`]: seeded, replayable traces
//!   (zipfian popularity, bursty/diurnal open-loop arrivals, slow-loris
//!   and malformed-line adversaries, deadline storms) with a
//!   deterministic logical-time replay — the server's own admission and
//!   batch code under the trace's clock ([`BatchLimits`]) — whose report —
//!   shed/dedup/batch counters *and* a fingerprint over every served
//!   logits bit — is identical across runs, plus a wall-clock TCP
//!   replay for liveness checks against a live front end.
//! * **Observability** — request tracing and a
//!   metrics surface: every admitted request gets a process-unique
//!   trace id (stamped on its response), typed per-stage [`Span`]s land
//!   in per-worker fixed-size **flight recorder** rings
//!   (overwrite-oldest, bounded memory), slow/shed/failed requests are
//!   retained as per-class exemplars, and the whole recorder exports as
//!   Chrome trace-event JSON ([`chrome_trace_json`]).
//!   [`Server::metrics_text`] writes the live telemetry snapshots as
//!   Prometheus text exposition, family by family; the `metrics` and
//!   `trace` protocol verbs put both on the wire. Tracing is on by
//!   default ([`ServerConfig::tracing`] is the off switch); what it
//!   costs is the stack benchmark's `trace.overhead_share` rung, not a
//!   number quoted here.
//! * **Fault tolerance** — panic-isolated worker fault domains: a
//!   panic mid-batch converts every in-flight request of that batch
//!   into a typed [`ServerError::WorkerCrashed`] reply (the connection
//!   survives), the crashed replica is respawned from
//!   [`blockgnn_engine::Engine::fork`] under exponential backoff, and a
//!   [`CircuitBreaker`] marks the pool degraded (≥K crashes in a
//!   window), shedding bronze before silver before gold until the
//!   cooldown passes. A seeded [`FaultPlan`] injects deterministic
//!   panics / latency / allocation failures at engine stage boundaries
//!   and resets / stalls at the socket layer ([`FaultInjector`] — a
//!   no-op when disabled), the `health` verb reports
//!   [`HealthReport`], and [`Client`] carries bounded
//!   [`ClientTimeouts`] plus an idempotent jittered-backoff
//!   [`RetryPolicy`] so chaos runs converge with zero transport
//!   errors.
//! * **A TCP front end** — [`TcpServer`] speaks the line protocol of
//!   [`protocol`] (logits cross as `f64` bit patterns, so remote
//!   answers stay bit-identical); [`Client`] and the one trace driver,
//!   [`workload::replay_tcp`], drive it; the `blockgnn-serve` and
//!   `blockgnn-client` binaries wrap both.
//!
//! # Example: in-process serving
//!
//! ```
//! use blockgnn_engine::{BackendKind, EngineBuilder, InferRequest};
//! use blockgnn_gnn::ModelKind;
//! use blockgnn_graph::datasets;
//! use blockgnn_server::{Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let engine = EngineBuilder::new(ModelKind::Gcn, BackendKind::Dense)
//!     .hidden_dim(16)
//!     .build(Arc::new(datasets::cora_like_small(7)))
//!     .unwrap();
//! let server = Server::start(engine, ServerConfig::default()).unwrap();
//! let handle = server.handle();
//! let response = handle.infer(InferRequest::sampled(vec![0, 1], 5, 3, 9)).unwrap();
//! assert_eq!(response.predictions.len(), 2);
//! let stats = server.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod batcher;
mod client;
mod config;
mod error;
mod fault;
mod observe;
pub mod protocol;
mod queue;
#[allow(clippy::module_inception)]
mod server;
mod tcp;
mod telemetry;
pub mod tenant;
pub mod workload;

pub use batcher::BatchLimits;
pub use client::{Client, ClientTimeouts, RetryPolicy};
pub use config::ServerConfig;
pub use error::ServerError;
pub use fault::{CircuitBreaker, EngineFault, FaultInjector, FaultPlan, SocketFault};
pub use observe::{
    chrome_trace_json, Recorder, Span, TraceOutcome, TraceQuery, TraceRecord,
    EXEMPLAR_CAPACITY, RING_CAPACITY, SLOW_THRESHOLD,
};
pub use protocol::{HealthReport, RemoteResponse, UpdateAck};
pub use queue::{SloClass, SubmitOptions};
pub use server::{Server, ServerHandle, Ticket};
pub use tcp::TcpServer;
pub use telemetry::{ClassRollup, ServerStats};
pub use tenant::{TenantInfo, TenantSpec, DEFAULT_TENANT};
// The delta type `update`/`Server::apply_delta` consume, re-exported so
// serving callers need no direct engine/graph import.
pub use blockgnn_engine::GraphDelta;

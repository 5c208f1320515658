//! Request/response types of the serving API, plus the request-handling
//! steps shared by the solo and coalesced execution paths (validation,
//! full-graph row extraction, response assembly) — one implementation so
//! the two cannot drift.

use crate::error::EngineError;
use crate::stats::ServeStats;
use blockgnn_accel::SimReport;
use blockgnn_linalg::vector::argmax;
use blockgnn_linalg::Matrix;
use std::time::Duration;

/// The paper's sampling fan-outs `S₁ = 25, S₂ = 10` (§IV-A).
pub const PAPER_FANOUTS: (usize, usize) = (25, 10);

/// How a request's computation graph is formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestMode {
    /// Run the full-graph forward pass and read off the requested rows.
    /// Because an engine's weights are immutable, the full-graph logits
    /// are computed once per engine and served from cache afterwards.
    FullGraph,
    /// Materialize the two-hop sampled computation graph around the
    /// requested nodes (the workload shape the accelerator runs) and
    /// infer on it.
    Sampled {
        /// First-hop fan-out `S₁`.
        s1: usize,
        /// Second-hop fan-out `S₂`.
        s2: usize,
        /// Sampling seed; equal seeds reproduce the same subgraph.
        seed: u64,
    },
}

/// A micro-batched node-classification request.
///
/// `Hash`/`Eq` compare the full request content — the serving batcher
/// uses them to deduplicate identical requests within a coalesced batch
/// (equal requests are served by one execution).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InferRequest {
    /// Target nodes to classify. For [`RequestMode::FullGraph`] an empty
    /// list means "every node"; sampled requests must be non-empty.
    pub nodes: Vec<usize>,
    /// Computation-graph policy.
    pub mode: RequestMode,
}

impl InferRequest {
    /// Full-graph request for the given nodes.
    #[must_use]
    pub fn full_graph(nodes: impl Into<Vec<usize>>) -> Self {
        Self { nodes: nodes.into(), mode: RequestMode::FullGraph }
    }

    /// Full-graph request for every node.
    #[must_use]
    pub fn all_nodes() -> Self {
        Self { nodes: Vec::new(), mode: RequestMode::FullGraph }
    }

    /// Sampled two-hop request with explicit fan-outs.
    #[must_use]
    pub fn sampled(nodes: impl Into<Vec<usize>>, s1: usize, s2: usize, seed: u64) -> Self {
        Self { nodes: nodes.into(), mode: RequestMode::Sampled { s1, s2, seed } }
    }

    /// Sampled request with the paper's fan-outs ([`PAPER_FANOUTS`]).
    #[must_use]
    pub fn paper_sampled(nodes: impl Into<Vec<usize>>, seed: u64) -> Self {
        let (s1, s2) = PAPER_FANOUTS;
        Self::sampled(nodes, s1, s2, seed)
    }
}

/// The answer to one [`InferRequest`].
#[derive(Debug, Clone)]
pub struct InferResponse {
    /// One logits row per requested node, in request order.
    pub logits: Matrix,
    /// Argmax class per requested node.
    pub predictions: Vec<usize>,
    /// End-to-end wall-clock time: `queue_time + compute_time` (kept as
    /// the sum for compatibility with pre-split callers).
    pub latency: Duration,
    /// Time the request waited in a queue before execution started
    /// (zero when served directly by a [`crate::Session`], which never
    /// queues).
    pub queue_time: Duration,
    /// Time the execution itself took. For a coalesced batch this is
    /// the shared batch execution time — the wall-clock the request
    /// actually rode on, not a per-request attribution.
    pub compute_time: Duration,
    /// Cycle-level hardware report (simulated-accelerator backend only;
    /// `None` on full-graph cache hits, which cost the hardware nothing).
    pub sim: Option<SimReport>,
    /// Energy estimate in joules at the configured accelerator power
    /// (simulated-accelerator backend only; `None` on cache hits).
    pub energy_joules: Option<f64>,
    /// Whether the logits were served from the engine's full-graph cache.
    pub from_cache: bool,
    /// Number of graph parts executed to answer this request: 0 on cache
    /// hits, 1 on unpartitioned execution (every sampled one), and the
    /// partition size `k` when a widened engine ran a full-graph pass
    /// (§IV-C).
    pub parts: usize,
    /// Number of requests coalesced into the execution that answered
    /// this one (1 when served alone).
    pub batch_size: usize,
    /// Version of the graph this answer was computed against (0 until
    /// the first applied [`blockgnn_graph::GraphDelta`]). A response's
    /// version is resolved once per micro-batch, so concurrent updates
    /// never land mid-batch — in-flight requests finish on the version
    /// they started on.
    pub graph_version: u64,
    /// Process-unique trace id the serving runtime assigned at
    /// admission, correlating this answer with its recorded spans in the
    /// flight recorder (`trace id=…` on the wire). Zero when the answer
    /// was produced outside a traced serving path (direct
    /// [`crate::Session`] callers, or a server with tracing disabled).
    pub trace_id: u64,
    /// Always 0: engines keep no hot-vertex cache. Kept only because the
    /// stack benchmark's `engine.hot_rows` rung still reads it; it goes
    /// once the next benchmark change drops that rung.
    pub hot_rows: usize,
}

/// The raw outcome of executing one request — everything about the
/// answer except timing, predictions, and stats, which
/// [`assemble_response`] attaches. Produced by
/// [`crate::Engine::execute_request`] and
/// [`crate::Engine::infer_coalesced`].
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// One logits row per requested node, in request order.
    pub logits: Matrix,
    /// Hardware cycle report, when the backend simulates one.
    pub sim: Option<SimReport>,
    /// Energy estimate in joules, when the backend models power.
    pub energy_joules: Option<f64>,
    /// Whether the logits came from the engine's full-graph cache.
    pub from_cache: bool,
    /// Graph parts executed (see [`InferResponse::parts`]).
    pub parts: usize,
    /// Requests coalesced into the producing execution.
    pub batch_size: usize,
    /// Graph version the execution resolved (see
    /// [`InferResponse::graph_version`]).
    pub graph_version: u64,
}

/// Rejects requests naming nodes outside the served graph.
pub(crate) fn validate_nodes(nodes: &[usize], num_nodes: usize) -> Result<(), EngineError> {
    for &node in nodes {
        if node >= num_nodes {
            return Err(EngineError::NodeOutOfRange { node, num_nodes });
        }
    }
    Ok(())
}

/// The most neighbour draws one sampled request may ask for, counted as
/// `targets × max(S₁, 1) × (1 + S₂)` — an upper bound on the edges of
/// its block of a sampled universe (`S₁ = 0` draws nothing; the `max`
/// only keeps the count conservative). The fan-outs are wire numbers:
/// unbounded, one line asks the allocator for terabytes and the process
/// aborts. 2²² is ~60× the largest request anywhere in this repository
/// (the benchmark's 256 × 25 × 11 = 70 400). All a replica's
/// [`blockgnn_gnn::batch::UniverseBuilder`] reserves ahead of sampling is
/// one 8-byte arc slot per draw (`targets × S₁` before the first hop,
/// `frontier × S₂` before the second), so the worst admitted request
/// reserves 32 MiB, and its CSR (two 4-byte targets per arc) as much
/// again; buffers past [`blockgnn_gnn::batch::KEPT_SCRATCH_BYTES`] are
/// released after the batch.
const MAX_SAMPLED_ARCS: usize = 1 << 22;

/// The single definition of request validity against a graph of
/// `num_nodes` nodes: every named node must exist, and sampled requests
/// must name at least one and ask for at most `MAX_SAMPLED_ARCS` (2²²)
/// neighbour draws. Used by the engines before executing and by the
/// serving runtime at admission, so the two can never drift.
///
/// # Errors
///
/// [`EngineError::NodeOutOfRange`], [`EngineError::EmptyRequest`] or
/// [`EngineError::RequestTooLarge`].
pub fn validate_request(request: &InferRequest, num_nodes: usize) -> Result<(), EngineError> {
    validate_nodes(&request.nodes, num_nodes)?;
    if let RequestMode::Sampled { s1, s2, .. } = request.mode {
        if request.nodes.is_empty() {
            return Err(EngineError::EmptyRequest);
        }
        let arcs = s2
            .checked_add(1)
            .and_then(|per_draw| per_draw.checked_mul(s1.max(1)))
            .and_then(|per_target| per_target.checked_mul(request.nodes.len()))
            .unwrap_or(usize::MAX);
        if arcs > MAX_SAMPLED_ARCS {
            return Err(EngineError::RequestTooLarge { arcs, max: MAX_SAMPLED_ARCS });
        }
    }
    Ok(())
}

/// Reads the requested rows off a full-graph logits matrix; an empty
/// request means "every node".
pub(crate) fn full_graph_rows(logits: &Matrix, nodes: &[usize]) -> Matrix {
    if nodes.is_empty() {
        logits.clone()
    } else {
        logits.gather_rows(nodes.iter().copied())
    }
}

/// Finishes a served request: attaches argmax predictions and the
/// queue/compute timing split, folds the result into `stats`, and
/// assembles the response. Shared by [`crate::Session`] and the
/// serving runtime's batcher, so their accounting cannot drift.
///
/// # Panics
///
/// Panics if `outcome.logits` has a row but no columns, which no
/// engine produces.
pub fn assemble_response(
    outcome: ExecOutcome,
    queue_time: Duration,
    compute_time: Duration,
    stats: &mut ServeStats,
) -> InferResponse {
    let ExecOutcome {
        logits,
        sim,
        energy_joules,
        from_cache,
        parts,
        batch_size,
        graph_version,
    } = outcome;
    // Unreachable for an engine's outcome: `argmax` is `None` only on an
    // empty row, and an engine's logits row has one column per class.
    // Every model has at least one, since building a layer with a zero
    // dimension fails.
    let predictions: Vec<usize> = (0..logits.rows())
        .map(|i| argmax(logits.row(i)).expect("logits rows are non-empty"))
        .collect();
    let response = InferResponse {
        logits,
        predictions,
        latency: queue_time + compute_time,
        queue_time,
        compute_time,
        sim,
        energy_joules,
        from_cache,
        parts,
        batch_size,
        graph_version,
        // Trace ids belong to the serving runtime: it stamps the id on
        // the response after assembly, so direct sessions stay at 0.
        trace_id: 0,
        hot_rows: 0,
    };
    stats.record_response(&response);
    response
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_modes() {
        let full = InferRequest::full_graph(vec![1, 2]);
        assert_eq!(full.mode, RequestMode::FullGraph);
        assert_eq!(full.nodes, vec![1, 2]);
        assert!(InferRequest::all_nodes().nodes.is_empty());
        let s = InferRequest::paper_sampled(vec![3], 9);
        assert_eq!(s.mode, RequestMode::Sampled { s1: 25, s2: 10, seed: 9 });
    }
}

//! Engine error type: everything that can go wrong between a request and
//! a response.

use blockgnn_accel::AccelError;
use blockgnn_graph::DeltaError;
use blockgnn_nn::NnError;
use std::error::Error;
use std::fmt;

/// Errors surfaced by [`crate::EngineBuilder`] and
/// [`crate::Session::infer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Model construction failed (bad dimensions or block size), or the
    /// dataset's feature rows disagree with its node count.
    Build(NnError),
    /// The simulated accelerator rejected the prepared weights (e.g.
    /// Weight Buffer overflow — the §IV-B deployability check).
    Accel(AccelError),
    /// A request named a node outside the engine's graph.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// Number of nodes in the graph.
        num_nodes: usize,
    },
    /// A sampled request carried no target nodes.
    EmptyRequest,
    /// A sampled request's fan-outs ask for more neighbour draws than
    /// one request may (the sub-universe's buffers are sized by that
    /// product before anything is sampled).
    RequestTooLarge {
        /// `targets × max(S₁, 1) × (1 + S₂)`, saturated at `usize::MAX`
        /// when the product overflows.
        arcs: usize,
        /// The most one request may ask for.
        max: usize,
    },
    /// A request or graph delta carries more of something than one may:
    /// explicit full-graph targets, or a delta's edge pairs, overwritten
    /// feature rows or appended nodes.
    OverCap {
        /// What was counted.
        what: &'static str,
        /// How many the request or delta carries.
        count: usize,
        /// The most one may carry.
        max: usize,
    },
    /// An engine (or a server pool) was asked for zero worker threads.
    NoWorkers,
    /// A graph update was rejected by the versioned graph (missing
    /// edge, out-of-range node, bad feature row, empty delta); the
    /// served graph stays at its previous version.
    Delta(DeltaError),
    /// A delta would grow the graph past the engine's feature-residency
    /// budget (the §IV-B/§IV-C bound on what may be resident at all).
    GraphBudget {
        /// Bytes the grown graph would need resident.
        needed: usize,
        /// The configured budget.
        budget: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Build(e) => write!(f, "model construction failed: {e}"),
            EngineError::Accel(e) => write!(f, "accelerator rejected the model: {e}"),
            EngineError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "request node {node} out of range (graph has {num_nodes} nodes)")
            }
            EngineError::EmptyRequest => write!(f, "sampled request carries no target nodes"),
            EngineError::RequestTooLarge { arcs, max } => {
                write!(f, "sampled request asks for {arcs} neighbour draws (at most {max})")
            }
            EngineError::OverCap { what, count, max } => {
                write!(f, "{count} {what} exceed the cap of {max}")
            }
            EngineError::NoWorkers => {
                write!(f, "an engine needs at least one worker thread")
            }
            EngineError::Delta(e) => write!(f, "graph update rejected: {e}"),
            EngineError::GraphBudget { needed, budget } => {
                write!(
                    f,
                    "update would grow the graph past the residency budget \
                     ({needed} bytes needed, {budget} allowed)"
                )
            }
        }
    }
}

impl Error for EngineError {}

impl From<DeltaError> for EngineError {
    fn from(e: DeltaError) -> Self {
        EngineError::Delta(e)
    }
}

impl From<NnError> for EngineError {
    fn from(e: NnError) -> Self {
        EngineError::Build(e)
    }
}

impl From<AccelError> for EngineError {
    fn from(e: AccelError) -> Self {
        EngineError::Accel(e)
    }
}

//! Streaming graph mutation: [`GraphDelta`] batches of edge and feature
//! changes, applied through a [`VersionedGraph`].
//!
//! Real serving traffic mutates its graph — edges and feature rows
//! arrive continuously — while every layer above (engine caches, the
//! §IV-B residency accounting, the micro-batcher) assumes a frozen
//! snapshot per request. This module supplies the mutation primitive
//! those layers version against:
//!
//! * A [`GraphDelta`] names edge additions/removals, feature-row
//!   overwrites, and appended nodes. Within one delta, node ids refer to
//!   the graph *after* its appends, so a new node can be wired up in the
//!   same delta that creates it.
//! * A [`VersionedGraph`] owns the mutable master copy (CSR adjacency,
//!   feature matrix, canonical edge list) and applies deltas
//!   **incrementally** via [`CsrGraph::splice`] — the hot path — while
//!   [`VersionedGraph::rebuild`] reconstructs the adjacency from the
//!   edge list with [`CsrGraph::from_edges`], the reference
//!   implementation the differential test harness compares against.
//!   The two are structurally identical at every version.
//! * Every applied delta bumps a monotone [`VersionedGraph::version`],
//!   and every produced [`CsrGraph`] draws a fresh
//!   [`CsrGraph::instance_id`], so id-keyed caches (GCN's `Â`
//!   normalization, sampled-subgraph interning) can never serve a stale
//!   version.
//!
//! Deltas are all-or-nothing: validation runs before any state mutates,
//! so a rejected delta leaves the graph at its previous version.

use crate::csr::{CsrGraph, GraphError};
use blockgnn_linalg::Matrix;
use std::error::Error;
use std::fmt;

/// Why a [`GraphDelta`] was rejected. The graph is untouched in every
/// case — deltas apply atomically or not at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta carried no operations at all. Rejected (rather than
    /// bumping the version for nothing) so callers cannot silently churn
    /// caches with no-op updates.
    EmptyDelta,
    /// An edge or feature operation referenced a node id ≥ the
    /// post-append node count.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// Node count after this delta's appends.
        num_nodes: usize,
    },
    /// An edge removal had no matching edge (counting this delta's own
    /// additions).
    MissingEdge {
        /// One endpoint of the missing edge.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// A feature-row update or appended node had the wrong width.
    FeatureDimMismatch {
        /// The graph's feature dimension.
        expected: usize,
        /// The offending row's length.
        got: usize,
    },
    /// A feature-row update or appended node carried a NaN or ±Inf. One
    /// such value would reach every logit its row aggregates into.
    NonFiniteFeature {
        /// The node whose row it is (an appended node's post-append id).
        node: usize,
        /// Column of the first non-finite value.
        column: usize,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::EmptyDelta => write!(f, "delta carries no operations"),
            DeltaError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "delta references node {node} out of range for {num_nodes} nodes")
            }
            DeltaError::MissingEdge { u, v } => {
                write!(f, "delta removes edge {u} - {v}, which is not present")
            }
            DeltaError::FeatureDimMismatch { expected, got } => {
                write!(f, "feature row of width {got} does not match feature dim {expected}")
            }
            DeltaError::NonFiniteFeature { node, column } => {
                write!(f, "feature row of node {node} is not finite at column {column}")
            }
        }
    }
}

impl Error for DeltaError {}

/// A batch of graph mutations, applied atomically by
/// [`VersionedGraph::apply`].
///
/// Node ids in every field refer to the graph *after* this delta's
/// [`GraphDelta::append_nodes`] (appended nodes take ids
/// `old_n .. old_n + appended`), so one delta can append a node and
/// connect it. On an undirected graph, `add_edges`/`remove_edges`
/// entries are undirected edges — `(u, v)` and `(v, u)` name the same
/// edge, and each removal deletes one occurrence (parallel edges are
/// peeled one at a time).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphDelta {
    /// Edges to insert (kept as parallel edges if already present).
    pub add_edges: Vec<(usize, usize)>,
    /// Edges to remove, one occurrence each.
    pub remove_edges: Vec<(usize, usize)>,
    /// Feature rows to overwrite, as `(node, row)` pairs.
    pub set_features: Vec<(usize, Vec<f64>)>,
    /// Feature rows of nodes to append (each grows the graph by one
    /// initially isolated node).
    pub append_nodes: Vec<Vec<f64>>,
}

impl GraphDelta {
    /// An empty delta (invalid to apply as-is — see
    /// [`DeltaError::EmptyDelta`]); compose with the builder methods.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds edge `(u, v)`.
    #[must_use]
    pub fn add_edge(mut self, u: usize, v: usize) -> Self {
        self.add_edges.push((u, v));
        self
    }

    /// Removes one occurrence of edge `(u, v)`.
    #[must_use]
    pub fn remove_edge(mut self, u: usize, v: usize) -> Self {
        self.remove_edges.push((u, v));
        self
    }

    /// Overwrites node `node`'s feature row.
    #[must_use]
    pub fn set_feature_row(mut self, node: usize, row: Vec<f64>) -> Self {
        self.set_features.push((node, row));
        self
    }

    /// Appends a node with the given feature row.
    #[must_use]
    pub fn append_node(mut self, features: Vec<f64>) -> Self {
        self.append_nodes.push(features);
        self
    }

    /// Whether the delta carries no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.add_edges.is_empty()
            && self.remove_edges.is_empty()
            && self.set_features.is_empty()
            && self.append_nodes.is_empty()
    }

    /// Total number of operations (edges + feature rows + appends).
    #[must_use]
    pub fn num_ops(&self) -> usize {
        self.add_edges.len()
            + self.remove_edges.len()
            + self.set_features.len()
            + self.append_nodes.len()
    }
}

/// A mutable graph + feature matrix with a monotone version counter:
/// the master copy streaming updates apply to.
///
/// Each successful [`VersionedGraph::apply`] produces a brand-new
/// [`CsrGraph`] (incrementally spliced, fresh
/// [`CsrGraph::instance_id`]) and bumps [`VersionedGraph::version`] by
/// one; readers holding clones of the previous graph are unaffected,
/// which is what lets a serving engine swap versions between
/// micro-batches while in-flight requests finish on the old one.
///
/// ```
/// use blockgnn_graph::{CsrGraph, GraphDelta, VersionedGraph};
/// use blockgnn_linalg::Matrix;
///
/// let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)], true).unwrap();
/// let mut vg = VersionedGraph::new(g, Matrix::zeros(3, 4), true).unwrap();
/// assert_eq!(vg.version(), 0);
/// let delta = GraphDelta::new().append_node(vec![1.0; 4]).add_edge(3, 0);
/// assert_eq!(vg.apply(&delta).unwrap(), 1);
/// assert!(vg.graph().has_edge(0, 3));
/// // The incremental graph is structurally identical to a full rebuild.
/// assert_eq!(vg.rebuild(), *vg.graph());
/// ```
#[derive(Debug, Clone)]
pub struct VersionedGraph {
    graph: CsrGraph,
    features: Matrix,
    /// Canonical edge multiset (one entry per undirected edge / directed
    /// arc) — what [`VersionedGraph::rebuild`] feeds `from_edges`.
    edges: Vec<(usize, usize)>,
    undirected: bool,
    version: u64,
}

impl VersionedGraph {
    /// Wraps an existing graph + feature matrix as version 0. The
    /// canonical edge list is recovered from the CSR rows (for an
    /// undirected graph, each stored arc pair collapses to one edge).
    ///
    /// # Errors
    ///
    /// [`DeltaError::FeatureDimMismatch`] is never returned here; the
    /// only failure is a feature matrix whose row count disagrees with
    /// the graph, reported as [`DeltaError::NodeOutOfRange`].
    pub fn new(
        graph: CsrGraph,
        features: Matrix,
        undirected: bool,
    ) -> Result<Self, DeltaError> {
        if features.rows() != graph.num_nodes() {
            return Err(DeltaError::NodeOutOfRange {
                node: features.rows(),
                num_nodes: graph.num_nodes(),
            });
        }
        let edges = edge_list_of(&graph, undirected);
        Ok(Self { graph, features, edges, undirected, version: 0 })
    }

    /// The current adjacency.
    #[must_use]
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The current feature matrix.
    #[must_use]
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// The canonical edge multiset of the current version.
    #[must_use]
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Current node count.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Monotone version counter: 0 at construction, +1 per applied
    /// delta.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Applies one delta atomically, returning the new version. The
    /// adjacency changes by **incremental CSR splicing**
    /// ([`CsrGraph::splice`]); [`VersionedGraph::rebuild`] is the
    /// from-scratch reference the splice is provably identical to.
    ///
    /// # Errors
    ///
    /// Any [`DeltaError`]; the graph, features, and version are
    /// untouched on failure.
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<u64, DeltaError> {
        if delta.is_empty() {
            return Err(DeltaError::EmptyDelta);
        }
        let old_n = self.graph.num_nodes();
        let new_n = old_n + delta.append_nodes.len();
        let dim = self.features.cols();
        let check_row = |node: usize, row: &[f64]| {
            if row.len() != dim {
                return Err(DeltaError::FeatureDimMismatch { expected: dim, got: row.len() });
            }
            match row.iter().position(|x| !x.is_finite()) {
                Some(column) => Err(DeltaError::NonFiniteFeature { node, column }),
                None => Ok(()),
            }
        };
        for (node, row) in &delta.set_features {
            if *node >= new_n {
                return Err(DeltaError::NodeOutOfRange { node: *node, num_nodes: new_n });
            }
            check_row(*node, row)?;
        }
        for (i, row) in delta.append_nodes.iter().enumerate() {
            check_row(old_n + i, row)?;
        }
        // Expand undirected edges into both stored arcs (self-loops
        // once), exactly as `from_edges` does.
        let expand = |edges: &[(usize, usize)]| -> Vec<(usize, usize)> {
            let mut arcs = Vec::with_capacity(edges.len() * 2);
            for &(u, v) in edges {
                arcs.push((u, v));
                if self.undirected && u != v {
                    arcs.push((v, u));
                }
            }
            arcs
        };
        let new_graph = self
            .graph
            .splice(new_n, &expand(&delta.add_edges), &expand(&delta.remove_edges))
            .map_err(|e| match e {
                GraphError::NodeOutOfRange { node, num_nodes } => {
                    DeltaError::NodeOutOfRange { node, num_nodes }
                }
                GraphError::MissingArc { u, v } => DeltaError::MissingEdge { u, v },
            })?;

        // Splice validated; mutate. Features first: append rows, then
        // overwrite updated ones (a row both appended and set ends up
        // set, matching the "appends happen first" id semantics).
        if !delta.append_nodes.is_empty() {
            let mut grown = Matrix::zeros(new_n, dim);
            grown.as_mut_slice()[..old_n * dim].copy_from_slice(self.features.as_slice());
            for (i, row) in delta.append_nodes.iter().enumerate() {
                grown.row_mut(old_n + i).copy_from_slice(row);
            }
            self.features = grown;
        }
        for (node, row) in &delta.set_features {
            self.features.row_mut(*node).copy_from_slice(row);
        }
        // Keep the canonical edge list in step: adds append, removals
        // delete one matching occurrence (either orientation on an
        // undirected graph). The splice already proved each removal has
        // a match.
        self.edges.extend_from_slice(&delta.add_edges);
        for &(u, v) in &delta.remove_edges {
            let at = self
                .edges
                .iter()
                .rposition(|&e| e == (u, v) || (self.undirected && e == (v, u)))
                .expect("splice validated every removal");
            self.edges.swap_remove(at);
        }
        self.graph = new_graph;
        self.version += 1;
        Ok(self.version)
    }

    /// Rebuilds the current adjacency from scratch off the canonical
    /// edge list — the reference implementation the incremental splice
    /// is differentially tested against. Structurally equal to
    /// [`VersionedGraph::graph`] at every version (the returned graph
    /// carries its own fresh instance id).
    #[must_use]
    pub fn rebuild(&self) -> CsrGraph {
        CsrGraph::from_edges(self.graph.num_nodes(), &self.edges, self.undirected)
            .expect("canonical edge list only holds in-range endpoints")
    }
}

/// Recovers the canonical edge multiset from a CSR graph: every arc for
/// a directed graph; for an undirected graph, one entry per stored arc
/// pair (`u < v` arcs plus self-loops).
fn edge_list_of(graph: &CsrGraph, undirected: bool) -> Vec<(usize, usize)> {
    graph.iter_arcs().filter(|&(u, v)| !undirected || u <= v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{gnm_random, Rng64};
    use proptest::prelude::*;

    fn seeded(n: usize, edges: &[(usize, usize)]) -> VersionedGraph {
        let graph = CsrGraph::from_edges(n, edges, true).unwrap();
        let features = Matrix::from_fn(n, 3, |i, j| (i * 3 + j) as f64);
        VersionedGraph::new(graph, features, true).unwrap()
    }

    #[test]
    fn versions_bump_and_splice_matches_rebuild() {
        let mut vg = seeded(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(vg.version(), 0);
        let v = vg.apply(&GraphDelta::new().add_edge(0, 3).remove_edge(2, 1)).unwrap();
        assert_eq!(v, 1);
        assert!(vg.graph().has_edge(0, 3) && vg.graph().has_edge(3, 0));
        assert!(!vg.graph().has_edge(1, 2));
        assert_eq!(vg.rebuild(), *vg.graph());
        // Fresh cache identity per version.
        let id1 = vg.graph().instance_id();
        vg.apply(&GraphDelta::new().add_edge(1, 3)).unwrap();
        assert_ne!(vg.graph().instance_id(), id1);
        assert_eq!(vg.version(), 2);
    }

    #[test]
    fn append_and_connect_in_one_delta() {
        let mut vg = seeded(3, &[(0, 1)]);
        let delta = GraphDelta::new()
            .append_node(vec![9.0, 9.0, 9.0])
            .append_node(vec![8.0, 8.0, 8.0])
            .add_edge(3, 4)
            .add_edge(4, 0)
            .set_feature_row(4, vec![7.0, 7.0, 7.0]);
        vg.apply(&delta).unwrap();
        assert_eq!(vg.num_nodes(), 5);
        assert!(vg.graph().has_edge(3, 4) && vg.graph().has_edge(0, 4));
        assert_eq!(vg.features().row(3), &[9.0, 9.0, 9.0]);
        // set_feature_row wins over the appended row's initial value.
        assert_eq!(vg.features().row(4), &[7.0, 7.0, 7.0]);
        assert_eq!(vg.rebuild(), *vg.graph());
    }

    #[test]
    fn parallel_edges_peel_one_at_a_time() {
        let mut vg = seeded(2, &[(0, 1), (0, 1)]);
        assert_eq!(vg.graph().degree(0), 2);
        vg.apply(&GraphDelta::new().remove_edge(1, 0)).unwrap();
        assert_eq!(vg.graph().degree(0), 1);
        assert!(vg.graph().has_edge(0, 1));
        vg.apply(&GraphDelta::new().remove_edge(0, 1)).unwrap();
        assert_eq!(vg.graph().num_arcs(), 0);
        assert_eq!(vg.rebuild(), *vg.graph());
    }

    #[test]
    fn self_loops_splice_like_from_edges() {
        let mut vg = seeded(3, &[(0, 1)]);
        vg.apply(&GraphDelta::new().add_edge(2, 2)).unwrap();
        assert_eq!(vg.graph().degree(2), 1, "self-loop inserted once");
        assert_eq!(vg.rebuild(), *vg.graph());
        vg.apply(&GraphDelta::new().remove_edge(2, 2)).unwrap();
        assert_eq!(vg.graph().degree(2), 0);
        assert_eq!(vg.rebuild(), *vg.graph());
    }

    #[test]
    fn add_then_remove_same_edge_nets_out() {
        let mut vg = seeded(3, &[(0, 1)]);
        let before = vg.graph().clone();
        vg.apply(&GraphDelta::new().add_edge(1, 2).remove_edge(2, 1)).unwrap();
        assert_eq!(*vg.graph(), before, "net-zero delta leaves the adjacency unchanged");
        assert_eq!(vg.version(), 1, "but still bumps the version");
    }

    #[test]
    fn rejections_are_typed_and_leave_state_untouched() {
        let mut vg = seeded(3, &[(0, 1)]);
        let before_graph = vg.graph().clone();
        let before_id = vg.graph().instance_id();
        let before_features = vg.features().clone();
        assert_eq!(vg.apply(&GraphDelta::new()), Err(DeltaError::EmptyDelta));
        assert_eq!(
            vg.apply(&GraphDelta::new().remove_edge(1, 2)),
            Err(DeltaError::MissingEdge { u: 1, v: 2 })
        );
        assert_eq!(
            vg.apply(&GraphDelta::new().add_edge(0, 9)),
            Err(DeltaError::NodeOutOfRange { node: 9, num_nodes: 3 })
        );
        assert_eq!(
            vg.apply(&GraphDelta::new().set_feature_row(0, vec![1.0])),
            Err(DeltaError::FeatureDimMismatch { expected: 3, got: 1 })
        );
        assert_eq!(
            vg.apply(&GraphDelta::new().append_node(vec![1.0, 2.0])),
            Err(DeltaError::FeatureDimMismatch { expected: 3, got: 2 })
        );
        // Non-finite values are refused beside the width checks, in an
        // otherwise valid delta; an appended node reports its new id.
        assert_eq!(
            vg.apply(
                &GraphDelta::new().add_edge(0, 2).set_feature_row(1, vec![0.0, f64::NAN, 1.0])
            ),
            Err(DeltaError::NonFiniteFeature { node: 1, column: 1 })
        );
        assert_eq!(
            vg.apply(
                &GraphDelta::new().append_node(vec![f64::INFINITY, 0.0, 0.0]).add_edge(3, 0)
            ),
            Err(DeltaError::NonFiniteFeature { node: 3, column: 0 })
        );
        // A delta that fails *after* some valid ops must also not stick.
        assert!(vg.apply(&GraphDelta::new().add_edge(0, 2).remove_edge(0, 9999)).is_err());
        assert_eq!(vg.version(), 0);
        assert_eq!(*vg.graph(), before_graph);
        assert_eq!(vg.graph().instance_id(), before_id);
        assert_eq!(*vg.features(), before_features);
        assert_eq!(vg.edges(), [(0, 1)]);
    }

    #[test]
    fn splice_rejects_out_of_range_and_missing_arcs() {
        let g = CsrGraph::from_edges(3, &[(0, 1)], false).unwrap();
        assert_eq!(
            g.splice(3, &[(0, 7)], &[]).unwrap_err(),
            GraphError::NodeOutOfRange { node: 7, num_nodes: 3 }
        );
        assert_eq!(
            g.splice(3, &[], &[(1, 0)]).unwrap_err(),
            GraphError::MissingArc { u: 1, v: 0 }
        );
        // Removing more occurrences than exist fails on the extra one.
        assert_eq!(
            g.splice(3, &[], &[(0, 1), (0, 1)]).unwrap_err(),
            GraphError::MissingArc { u: 0, v: 1 }
        );
    }

    #[test]
    fn edge_list_recovery_round_trips() {
        let edges = [(0, 1), (0, 1), (2, 2), (1, 3), (3, 0)];
        let g = CsrGraph::from_edges(4, &edges, true).unwrap();
        let vg = VersionedGraph::new(g.clone(), Matrix::zeros(4, 1), true).unwrap();
        assert_eq!(vg.edges().len(), edges.len());
        assert_eq!(vg.rebuild(), g);
    }

    /// Drives a random-but-valid delta sequence with `Rng64` — removals
    /// are drawn from the live edge list, so every delta applies.
    fn random_delta(vg: &VersionedGraph, rng: &mut Rng64) -> GraphDelta {
        let mut delta = GraphDelta::new();
        let n = vg.num_nodes();
        for _ in 0..rng.next_below(3) + 1 {
            delta = delta.add_edge(rng.next_below(n), rng.next_below(n));
        }
        if !vg.edges().is_empty() && rng.next_below(2) == 0 {
            let (u, v) = vg.edges()[rng.next_below(vg.edges().len())];
            delta = delta.remove_edge(u, v);
        }
        if rng.next_below(2) == 0 {
            let node = rng.next_below(n);
            let row = (0..vg.features().cols()).map(|_| rng.next_normal()).collect();
            delta = delta.set_feature_row(node, row);
        }
        if rng.next_below(3) == 0 {
            let row = (0..vg.features().cols()).map(|_| rng.next_normal()).collect();
            delta = delta.append_node(row);
        }
        delta
    }

    proptest! {
        #[test]
        fn prop_incremental_always_equals_rebuild(seed in 0u64..500, steps in 1usize..6) {
            let n = 12 + (seed as usize % 20);
            let edges = gnm_random(n, n * 2, seed);
            let graph = CsrGraph::from_edges(n, &edges, true).unwrap();
            let features = Matrix::from_fn(n, 4, |i, j| (i + j) as f64);
            let mut vg = VersionedGraph::new(graph, features, true).unwrap();
            let mut rng = Rng64::new(seed ^ 0xD1CE);
            for step in 0..steps {
                let delta = random_delta(&vg, &mut rng);
                let v = vg.apply(&delta).unwrap();
                prop_assert_eq!(v, step as u64 + 1);
                prop_assert_eq!(&vg.rebuild(), vg.graph(),
                    "incremental splice diverged from rebuild at version {}", v);
                prop_assert_eq!(vg.features().rows(), vg.num_nodes());
            }
        }
    }
}

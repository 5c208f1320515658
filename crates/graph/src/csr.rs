//! Compressed-sparse-row graph storage.

use std::error::Error;
use std::fmt;

/// Errors raised when constructing graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a node id ≥ the node count.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// The declared node count.
        num_nodes: usize,
    },
    /// A splice asked to remove an arc the graph does not hold (after
    /// the splice's own additions were counted).
    MissingArc {
        /// Source of the missing arc.
        u: usize,
        /// Target of the missing arc.
        v: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "edge endpoint {node} out of range for {num_nodes} nodes")
            }
            GraphError::MissingArc { u, v } => {
                write!(f, "arc {u} -> {v} is not present and cannot be removed")
            }
        }
    }
}

impl Error for GraphError {}

/// A directed graph in CSR form; undirected graphs store both arcs.
///
/// Neighbor lists are sorted, enabling binary-search `has_edge` and
/// deterministic iteration (important for reproducible sampling).
///
/// ```
/// use blockgnn_graph::CsrGraph;
/// let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (0, 3)], true).unwrap();
/// assert_eq!(g.degree(0), 2);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert!(g.has_edge(3, 0));
/// ```
#[derive(Debug, Clone)]
pub struct CsrGraph {
    num_nodes: usize,
    offsets: Vec<usize>,
    targets: Vec<u32>,
    /// Process-unique construction id (clones share it — they carry the
    /// same adjacency); see [`CsrGraph::instance_id`].
    id: u64,
}

/// Equality is structural (adjacency content); the cache-identity `id`
/// is deliberately excluded, so two independently built but identical
/// graphs compare equal.
impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        self.num_nodes == other.num_nodes
            && self.offsets == other.offsets
            && self.targets == other.targets
    }
}

impl Eq for CsrGraph {}

/// Source of process-unique [`CsrGraph::instance_id`] values.
static NEXT_GRAPH_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl CsrGraph {
    /// Builds a graph from an edge list.
    ///
    /// With `undirected = true`, each `(u, v)` also inserts `(v, u)`.
    /// Self-loops are kept as given (inserted once even when undirected);
    /// parallel edges are kept, matching how citation datasets are
    /// distributed.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is ≥
    /// `num_nodes`.
    pub fn from_edges(
        num_nodes: usize,
        edges: &[(usize, usize)],
        undirected: bool,
    ) -> Result<Self, GraphError> {
        for &(u, v) in edges {
            if u >= num_nodes {
                return Err(GraphError::NodeOutOfRange { node: u, num_nodes });
            }
            if v >= num_nodes {
                return Err(GraphError::NodeOutOfRange { node: v, num_nodes });
            }
        }
        let mut degree = vec![0usize; num_nodes];
        for &(u, v) in edges {
            degree[u] += 1;
            if undirected && u != v {
                degree[v] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(num_nodes + 1);
        offsets.push(0usize);
        for d in &degree {
            offsets.push(offsets.last().unwrap() + d);
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; *offsets.last().unwrap()];
        for &(u, v) in edges {
            targets[cursor[u]] = v as u32;
            cursor[u] += 1;
            if undirected && u != v {
                targets[cursor[v]] = u as u32;
                cursor[v] += 1;
            }
        }
        for u in 0..num_nodes {
            targets[offsets[u]..offsets[u + 1]].sort_unstable();
        }
        let id = NEXT_GRAPH_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(Self { num_nodes, offsets, targets, id })
    }

    /// Concatenates graphs into one block-diagonal graph: block `i`'s
    /// nodes are renumbered by the cumulative node count of blocks
    /// `0..i`, and no edges are added between blocks.
    ///
    /// Each node's neighbor list in the merged graph is its original
    /// sorted list shifted by the block offset — the *same order*, so
    /// order-sensitive per-node computations (neighbor aggregation,
    /// attention softmax) over the merged graph are bit-identical to
    /// running each block alone. This is the foundation of the serving
    /// batcher's coalesced execution.
    #[must_use]
    pub fn block_diagonal(blocks: &[&CsrGraph]) -> Self {
        let num_nodes = blocks.iter().map(|g| g.num_nodes).sum();
        let num_arcs = blocks.iter().map(|g| g.targets.len()).sum();
        let mut offsets = Vec::with_capacity(num_nodes + 1);
        offsets.push(0usize);
        let mut targets = Vec::with_capacity(num_arcs);
        let mut base = 0u32;
        for g in blocks {
            for u in 0..g.num_nodes {
                targets.extend(g.neighbors(u).iter().map(|&v| v + base));
                offsets.push(targets.len());
            }
            base += g.num_nodes as u32;
        }
        let id = NEXT_GRAPH_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Self { num_nodes, offsets, targets, id }
    }

    /// Produces a new graph by splicing arc-level changes into this one:
    /// the node count grows to `new_num_nodes` (appended nodes start
    /// with empty rows), every arc in `add_arcs` is inserted at its
    /// sorted position, and every arc in `remove_arcs` deletes one
    /// matching occurrence (removals are matched against the row *after*
    /// additions, so an arc added and removed in the same splice nets
    /// out). This is the incremental hot path of the versioned-graph
    /// subsystem: because rows stay sorted multisets, the result is
    /// structurally identical to [`CsrGraph::from_edges`] over the
    /// equivalent edge list — the invariant the differential test
    /// harness pins.
    ///
    /// Arcs are directed; callers maintaining an undirected graph pass
    /// both directions (and a self-loop once), mirroring `from_edges`'
    /// `undirected` expansion.
    ///
    /// The returned graph draws a fresh [`CsrGraph::instance_id`], so
    /// any cache keyed on the id of the pre-splice graph can never serve
    /// the post-splice adjacency.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeOutOfRange`] if an endpoint is ≥
    /// `new_num_nodes`; [`GraphError::MissingArc`] if a removal has no
    /// matching occurrence.
    ///
    /// # Panics
    ///
    /// Panics if `new_num_nodes` is smaller than the current node count
    /// (versioned graphs only grow).
    pub fn splice(
        &self,
        new_num_nodes: usize,
        add_arcs: &[(usize, usize)],
        remove_arcs: &[(usize, usize)],
    ) -> Result<Self, GraphError> {
        assert!(
            new_num_nodes >= self.num_nodes,
            "splice cannot shrink the node count ({} -> {new_num_nodes})",
            self.num_nodes
        );
        for &(u, v) in add_arcs.iter().chain(remove_arcs) {
            for node in [u, v] {
                if node >= new_num_nodes {
                    return Err(GraphError::NodeOutOfRange { node, num_nodes: new_num_nodes });
                }
            }
        }
        let mut adds: Vec<(u32, u32)> =
            add_arcs.iter().map(|&(u, v)| (u as u32, v as u32)).collect();
        adds.sort_unstable();
        let mut removes: Vec<(u32, u32)> =
            remove_arcs.iter().map(|&(u, v)| (u as u32, v as u32)).collect();
        removes.sort_unstable();

        let mut offsets = Vec::with_capacity(new_num_nodes + 1);
        offsets.push(0usize);
        let mut targets =
            Vec::with_capacity((self.targets.len() + adds.len()).saturating_sub(removes.len()));
        let (mut ai, mut ri) = (0usize, 0usize);
        for u in 0..new_num_nodes {
            let old_row: &[u32] = if u < self.num_nodes { self.neighbors(u) } else { &[] };
            let add_from = ai;
            while ai < adds.len() && adds[ai].0 as usize == u {
                ai += 1;
            }
            let add_row = &adds[add_from..ai];
            let rm_from = ri;
            while ri < removes.len() && removes[ri].0 as usize == u {
                ri += 1;
            }
            let rm_row = &removes[rm_from..ri];
            // Merge the two sorted sources while subtracting removals:
            // the output row is the sorted multiset (old ∪ adds) − rms,
            // exactly what a rebuild's per-row sort would produce.
            let (mut oi, mut aj, mut rp) = (0usize, 0usize, 0usize);
            while oi < old_row.len() || aj < add_row.len() {
                let next = match (old_row.get(oi), add_row.get(aj)) {
                    (Some(&o), Some(&(_, a))) if o <= a => {
                        oi += 1;
                        o
                    }
                    (Some(&o), None) => {
                        oi += 1;
                        o
                    }
                    (_, Some(&(_, a))) => {
                        aj += 1;
                        a
                    }
                    (None, None) => unreachable!("loop condition holds"),
                };
                match rm_row.get(rp) {
                    Some(&(_, r)) if r == next => rp += 1, // consumed by a removal
                    Some(&(_, r)) if r < next => {
                        // The row is sorted past the removal target, so
                        // it cannot appear later either.
                        return Err(GraphError::MissingArc { u, v: r as usize });
                    }
                    _ => targets.push(next),
                }
            }
            if rp < rm_row.len() {
                return Err(GraphError::MissingArc { u, v: rm_row[rp].1 as usize });
            }
            offsets.push(targets.len());
        }
        let id = NEXT_GRAPH_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(Self { num_nodes: new_num_nodes, offsets, targets, id })
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of stored arcs (an undirected edge counts twice).
    #[must_use]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// A process-unique identity for this graph instance, for use as a
    /// per-graph cache key: every construction draws a fresh id (never
    /// reused, unlike an address), so a cache keyed on it can never
    /// serve stale state for a different graph. Clones share their
    /// source's id — they carry the same adjacency, so a cache hit on a
    /// clone is correct.
    #[must_use]
    pub fn instance_id(&self) -> u64 {
        self.id
    }

    /// Out-degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn degree(&self, u: usize) -> usize {
        assert!(u < self.num_nodes, "node {u} out of range");
        self.offsets[u + 1] - self.offsets[u]
    }

    /// Sorted neighbor slice of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn neighbors(&self, u: usize) -> &[u32] {
        assert!(u < self.num_nodes, "node {u} out of range");
        &self.targets[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Whether arc `u → v` exists (binary search over the sorted list).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).binary_search(&(v as u32)).is_ok()
    }

    /// Average degree across all nodes.
    #[must_use]
    pub fn average_degree(&self) -> f64 {
        if self.num_nodes == 0 {
            0.0
        } else {
            self.num_arcs() as f64 / self.num_nodes as f64
        }
    }

    /// Maximum degree.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes).map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Number of isolated (degree-0) nodes.
    #[must_use]
    pub fn num_isolated(&self) -> usize {
        (0..self.num_nodes).filter(|&u| self.degree(u) == 0).count()
    }

    /// Iterates over all arcs as `(source, target)` pairs.
    pub fn iter_arcs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.num_nodes)
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v as usize)))
    }

    /// Bytes the adjacency occupies in the uncompressed on-device layout
    /// the residency model assumes: a `u32` offset table of `n + 1`
    /// entries plus one `u32` per stored arc. This is the accounting
    /// baseline [`CsrGraph::compressed_adjacency_bytes`] is measured
    /// against.
    #[must_use]
    pub fn adjacency_bytes(&self) -> usize {
        (self.num_nodes + 1) * 4 + self.targets.len() * 4
    }

    /// Bytes the adjacency occupies in the delta-varint on-device layout
    /// big graphs are accounted in: per row, the first neighbor as a
    /// LEB128 varint and each later neighbor as the varint *gap* from
    /// its predecessor, plus a `u32` row table of `n + 1` entries. Rows
    /// are sorted, so gaps are non-negative (a parallel edge is a zero
    /// gap) and, on locally clustered graphs, mostly one byte against
    /// the flat layout's four. Only the size is modelled; nothing is
    /// encoded.
    ///
    /// ```
    /// use blockgnn_graph::CsrGraph;
    /// let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (0, 3)], true).unwrap();
    /// // Six one-byte varints plus a five-entry row table.
    /// assert_eq!(g.compressed_adjacency_bytes(), 6 + 5 * 4);
    /// ```
    #[must_use]
    pub fn compressed_adjacency_bytes(&self) -> usize {
        let mut bytes = (self.num_nodes + 1) * 4;
        for u in 0..self.num_nodes {
            // The first neighbor is its own delta from zero.
            let mut prev = 0u32;
            for &v in self.neighbors(u) {
                bytes += varint_len(v - prev);
                prev = v;
            }
        }
        bytes
    }
}

/// LEB128 length of `v`: one byte per started 7-bit group, at least one.
fn varint_len(v: u32) -> usize {
    (32 - (v | 1).leading_zeros()).div_ceil(7) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn directed_construction() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2), (2, 1)], false).unwrap();
        assert_eq!(g.num_arcs(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[] as &[u32]);
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(1, 2));
    }

    #[test]
    fn undirected_doubles_arcs() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)], true).unwrap();
        assert_eq!(g.num_arcs(), 4);
        assert!(g.has_edge(1, 0) && g.has_edge(0, 1));
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn self_loop_inserted_once() {
        let g = CsrGraph::from_edges(2, &[(0, 0), (0, 1)], true).unwrap();
        assert_eq!(g.degree(0), 2); // loop + edge
        assert_eq!(g.degree(1), 1);
        assert!(g.has_edge(0, 0));
    }

    #[test]
    fn out_of_range_edge_rejected() {
        assert_eq!(
            CsrGraph::from_edges(2, &[(0, 5)], false).unwrap_err(),
            GraphError::NodeOutOfRange { node: 5, num_nodes: 2 }
        );
        assert!(CsrGraph::from_edges(2, &[(7, 0)], false).is_err());
    }

    #[test]
    fn statistics() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)], true).unwrap();
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.average_degree(), 6.0 / 4.0);
        assert_eq!(g.num_isolated(), 0);
        let g2 = CsrGraph::from_edges(3, &[(0, 1)], false).unwrap();
        assert_eq!(g2.num_isolated(), 2); // nodes 1 and 2 have no out-arcs
    }

    #[test]
    fn iter_arcs_yields_all() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)], true).unwrap();
        let arcs: Vec<(usize, usize)> = g.iter_arcs().collect();
        assert_eq!(arcs.len(), 4);
        assert!(arcs.contains(&(2, 1)));
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[], true).unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_arcs(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn block_diagonal_preserves_per_block_adjacency() {
        let a = CsrGraph::from_edges(3, &[(0, 1), (1, 2)], true).unwrap();
        let b = CsrGraph::from_edges(2, &[(0, 1)], false).unwrap();
        let m = CsrGraph::block_diagonal(&[&a, &b]);
        assert_eq!(m.num_nodes(), 5);
        assert_eq!(m.num_arcs(), a.num_arcs() + b.num_arcs());
        for u in 0..3 {
            let want: Vec<u32> = a.neighbors(u).to_vec();
            assert_eq!(m.neighbors(u), &want[..]);
        }
        for u in 0..2 {
            let want: Vec<u32> = b.neighbors(u).iter().map(|&v| v + 3).collect();
            assert_eq!(m.neighbors(u + 3), &want[..]);
        }
        // No cross-block edges.
        assert!(!m.has_edge(2, 3) && !m.has_edge(3, 2));
        // Fresh cache identity, not inherited from a block.
        assert_ne!(m.instance_id(), a.instance_id());
        assert_ne!(m.instance_id(), b.instance_id());
    }

    #[test]
    fn block_diagonal_of_one_equals_original() {
        let a = CsrGraph::from_edges(4, &[(0, 1), (2, 3), (1, 2)], true).unwrap();
        let m = CsrGraph::block_diagonal(&[&a]);
        assert_eq!(m, a); // structural equality; ids differ
    }

    #[test]
    fn block_diagonal_of_none_is_empty() {
        let m = CsrGraph::block_diagonal(&[]);
        assert_eq!(m.num_nodes(), 0);
        assert_eq!(m.num_arcs(), 0);
    }

    #[test]
    fn compressed_empty_graph() {
        // Just the one-entry row table.
        let g = CsrGraph::from_edges(0, &[], true).unwrap();
        assert_eq!(g.compressed_adjacency_bytes(), 4);
    }

    #[test]
    fn compressed_keeps_parallel_edges_and_self_loops() {
        // Rows [0, 1, 1], [] and [2]: a self-loop is an ordinary first
        // neighbor and a parallel edge a one-byte zero gap.
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 1), (0, 0), (2, 2)], false).unwrap();
        assert_eq!(g.compressed_adjacency_bytes(), 3 + 1 + 4 * 4);
    }

    #[test]
    fn compressed_beats_flat_layout_on_clustered_rows() {
        // A ring's gaps are tiny, so nearly every varint is one byte:
        // the stream must come in well under 4 bytes/arc plus table.
        let edges: Vec<(usize, usize)> = (0..500).map(|i| (i, (i + 1) % 500)).collect();
        let g = CsrGraph::from_edges(500, &edges, true).unwrap();
        let (compressed, flat) = (g.compressed_adjacency_bytes(), g.adjacency_bytes());
        assert!(compressed < flat, "compressed {compressed} >= flat {flat}");
    }

    #[test]
    fn varint_len_counts_seven_bit_groups() {
        let cases = [(0, 1), (127, 1), (128, 2), (16_383, 2), (16_384, 3), (u32::MAX, 5)];
        for (v, len) in cases {
            assert_eq!(varint_len(v), len, "{v}");
        }
    }

    #[test]
    fn adjacency_bytes_counts_table_and_targets() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)], true).unwrap();
        assert_eq!(g.adjacency_bytes(), 4 * 4 + 4 * 4);
    }

    proptest! {
        #[test]
        fn prop_undirected_symmetry(
            edges in proptest::collection::vec((0usize..20, 0usize..20), 0..60)
        ) {
            let g = CsrGraph::from_edges(20, &edges, true).unwrap();
            for (u, v) in g.iter_arcs() {
                prop_assert!(g.has_edge(v, u), "arc {u}->{v} lacks reverse");
            }
        }

        #[test]
        fn prop_degree_sums_to_arcs(
            edges in proptest::collection::vec((0usize..15, 0usize..15), 0..40)
        ) {
            let g = CsrGraph::from_edges(15, &edges, false).unwrap();
            let total: usize = (0..15).map(|u| g.degree(u)).sum();
            prop_assert_eq!(total, g.num_arcs());
        }
    }
}

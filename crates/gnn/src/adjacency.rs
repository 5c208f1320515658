//! GCN's degree-normalized adjacency operator.
//!
//! GCN's aggregation (Table I) is the linear map
//! `a_v = Σ_{u ∈ N(v) ∪ {v}} h_u / √(d̃_u · d̃_v)` with self-loops added
//! (`d̃` = degree + 1), i.e. multiplication by the symmetric matrix
//! `Â = D̃^{-1/2}(A + I)D̃^{-1/2}`. Because `Â` is symmetric, the
//! backward pass is the same operator applied to the output gradient.

use crate::models::Band;
use blockgnn_graph::CsrGraph;
use blockgnn_linalg::{isa, Matrix};

/// The symmetric normalized adjacency `Â` with self-loops, applied
/// row-batch-wise to feature matrices.
#[derive(Debug, Clone)]
pub struct NormalizedAdjacency {
    /// `1/√(deg+1)` per node, precomputed.
    inv_sqrt_deg: Vec<f64>,
}

impl NormalizedAdjacency {
    /// Precomputes normalization coefficients for `graph`.
    #[must_use]
    pub fn new(graph: &CsrGraph) -> Self {
        let inv_sqrt_deg = (0..graph.num_nodes())
            .map(|v| 1.0 / ((graph.degree(v) + 1) as f64).sqrt())
            .collect();
        Self { inv_sqrt_deg }
    }

    /// Applies `Â · H` (features as rows: output row `v` is the
    /// normalized sum over `N(v) ∪ {v}`).
    ///
    /// # Panics
    ///
    /// Panics if `h.rows()` differs from the graph's node count.
    #[must_use]
    pub fn apply(&self, graph: &CsrGraph, h: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(h.rows(), h.cols());
        self.apply_into(graph, h, &mut out);
        out
    }

    /// Write-into form of [`NormalizedAdjacency::apply`]: every entry of
    /// `out` is fully overwritten (the self-loop term assigns, neighbor
    /// terms accumulate), so callers can recycle an arbitrary buffer —
    /// after a [`Matrix::resize`] — without zeroing it first.
    ///
    /// # Panics
    ///
    /// Panics if `h.rows()` differs from the graph's node count or
    /// `out.shape() != h.shape()`.
    pub fn apply_into(&self, graph: &CsrGraph, h: &Matrix, out: &mut Matrix) {
        assert_eq!(h.rows(), graph.num_nodes(), "feature rows must equal node count");
        assert_eq!(out.shape(), h.shape(), "output buffer shape must match input");
        for v in 0..graph.num_nodes() {
            self.write_row(graph, Band::whole(h), v, out.row_mut(v));
        }
    }

    /// Writes `(Â · H)_v` into `orow` — the one row kernel: the sum over
    /// `N(v) ∪ {v}`, neighbors in CSR order, each node's row read from
    /// the band `h` (a node-indexed matrix, or a graph-wide one through a
    /// sampled universe's local→global index). [`NormalizedAdjacency::apply`]
    /// is this over every row and GCN's inference pass is this over a
    /// block of destination rows at a time, monolithic, sharded or
    /// sampled, so all of them agree bit for bit. The self-loop term
    /// *assigns* (overwriting whatever a recycled buffer held) and
    /// neighbor terms accumulate, so `orow` needs no pre-zeroing; columns
    /// of `h` beyond `orow.len()` are not read. The arithmetic runs
    /// through [`isa::dispatch`]: AVX2 where the CPU has it, the same
    /// bits either way.
    ///
    /// # Panics
    ///
    /// Panics if `v` or one of its neighbors has no row in `h`.
    pub(crate) fn write_row(&self, graph: &CsrGraph, h: Band, v: usize, orow: &mut [f64]) {
        isa::dispatch(
            #[inline(always)]
            || self.row_sum(graph, h, v, orow),
        );
    }

    /// The body of [`NormalizedAdjacency::write_row`], forced inline so
    /// that it compiles for whichever ISA its caller runs; called
    /// directly it is the build's baseline codegen.
    #[inline(always)]
    fn row_sum(&self, graph: &CsrGraph, h: Band, v: usize, orow: &mut [f64]) {
        let cv = self.inv_sqrt_deg[v];
        // self-loop term overwrites the row
        {
            let hr = h.row(v);
            let w = cv * cv;
            for (o, &x) in orow.iter_mut().zip(hr) {
                *o = w * x;
            }
        }
        for &u in graph.neighbors(v) {
            let u = u as usize;
            let w = cv * self.inv_sqrt_deg[u];
            let hr = h.row(u);
            for (o, &x) in orow.iter_mut().zip(hr) {
                *o += w * x;
            }
        }
    }

    /// The per-node coefficient `1/√(deg+1)`.
    #[must_use]
    pub fn coefficient(&self, v: usize) -> f64 {
        self.inv_sqrt_deg[v]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::testutil::hub_graph;
    use proptest::prelude::*;

    fn triangle() -> CsrGraph {
        CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)], true).unwrap()
    }

    #[test]
    fn normalization_coefficients() {
        let g = triangle();
        let a = NormalizedAdjacency::new(&g);
        for v in 0..3 {
            assert!((a.coefficient(v) - 1.0 / 3.0_f64.sqrt()).abs() < 1e-12);
        }
    }

    #[test]
    fn apply_matches_dense_operator() {
        let g = triangle();
        let a = NormalizedAdjacency::new(&g);
        // Â for a triangle with self-loops: every entry 1/3.
        let h = Matrix::from_rows(&[vec![3.0], vec![6.0], vec![9.0]]).unwrap();
        let out = a.apply(&g, &h);
        for v in 0..3 {
            assert!((out[(v, 0)] - 6.0).abs() < 1e-12);
        }
    }

    #[test]
    fn operator_is_symmetric() {
        // <Â·x, y> == <x, Â·y> for random vectors.
        let g =
            CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], true).unwrap();
        let a = NormalizedAdjacency::new(&g);
        let x = Matrix::from_fn(5, 1, |i, _| (i as f64 + 1.0).sin());
        let y = Matrix::from_fn(5, 1, |i, _| (i as f64 * 2.0).cos());
        let ax = a.apply(&g, &x);
        let ay = a.apply(&g, &y);
        let lhs: f64 = (0..5).map(|i| ax[(i, 0)] * y[(i, 0)]).sum();
        let rhs: f64 = (0..5).map(|i| x[(i, 0)] * ay[(i, 0)]).sum();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn into_variants_fully_overwrite_dirty_buffers() {
        // The write-into kernels must not depend on the buffer's prior
        // contents: a poisoned recycled buffer must give bit-identical
        // results to a fresh allocation, for the full operator and for
        // the row kernel a block of destination rows is written with.
        let g =
            CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], true).unwrap();
        let a = NormalizedAdjacency::new(&g);
        let h = Matrix::from_fn(5, 3, |i, j| ((i * 3 + j) as f64 * 0.7).sin());
        let fresh = a.apply(&g, &h);
        let mut dirty = Matrix::filled(2, 9, f64::NAN);
        dirty.resize(5, 3);
        a.apply_into(&g, &h, &mut dirty);
        assert_eq!(dirty, fresh, "recycled buffer drifted from fresh allocation");

        let rows = [4usize, 0, 2];
        let mut dirty_rows = Matrix::filled(3, 3, f64::NAN);
        for (i, &v) in rows.iter().enumerate() {
            a.write_row(&g, Band::whole(&h), v, dirty_rows.row_mut(i));
            assert_eq!(dirty_rows.row(i), fresh.row(v), "row kernel must be shared");
        }
    }

    #[test]
    fn isolated_node_keeps_self_only() {
        let g = CsrGraph::from_edges(2, &[], true).unwrap();
        let a = NormalizedAdjacency::new(&g);
        let h = Matrix::from_rows(&[vec![5.0], vec![7.0]]).unwrap();
        let out = a.apply(&g, &h);
        assert_eq!(out[(0, 0)], 5.0);
        assert_eq!(out[(1, 0)], 7.0);
    }

    proptest! {
        #[test]
        fn prop_dispatched_write_row_equals_the_baseline_codegen(
            seed in 0u64..1_000,
            width in 1usize..71,
            beside in 0usize..3,
        ) {
            // `write_row` (through `isa::dispatch`, AVX2 on a CPU that
            // has it) against `row_sum` called directly (the build's
            // baseline), bit for bit, into poisoned rows: hub, parallel
            // arcs, isolated nodes, every vector-width remainder, and an
            // output narrower than `h`.
            let n = 23;
            let g = hub_graph(n);
            let a = NormalizedAdjacency::new(&g);
            let h = Matrix::from_fn(n, width + beside, |i, j| {
                ((seed as usize + i * 31 + j) as f64 * 0.37).sin() * (1.0 + i as f64)
            });
            for v in 0..n {
                let (mut dispatched, mut baseline) = (vec![f64::NAN; width], vec![f64::NAN; width]);
                a.write_row(&g, Band::whole(&h), v, &mut dispatched);
                a.row_sum(&g, Band::whole(&h), v, &mut baseline);
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&dispatched), bits(&baseline), "node {}", v);
            }
        }
    }
}

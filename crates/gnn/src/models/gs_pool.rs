//! GraphSAGE with max-pooling aggregation (GS-Pool).
//!
//! Table I: `a_v = max_{u∈N(v)} ReLU(W_pool·h_u + b)` followed by
//! `h'_v = ReLU(W·(a_v ‖ h_v))`. Both `W_pool` (the aggregator weight —
//! the FLOP-heaviest matrix in Table II) and the combiner `W` can be
//! block-circulant.

use crate::models::block::{
    combine_backward, combine_blocks, side_by_side, Band, BlockScratch,
};
use crate::models::{CompressionPolicy, GnnLayer, ModelKind, TwoLayer};
use blockgnn_graph::CsrGraph;
use blockgnn_linalg::{isa, Matrix};
use blockgnn_nn::{Layer, LinearLayer, NnError, Param, Relu};

/// One GS-Pool layer.
#[derive(Debug, Clone)]
pub(super) struct GsPoolLayer {
    pool: LinearLayer,
    pool_act: Relu,
    comb: LinearLayer,
    act: Option<Relu>,
    pool_dim: usize,
    in_dim: usize,
    /// `argmax[v * pool_dim + d]` = node whose pooled feature won the max.
    argmax: Vec<u32>,
}

impl GsPoolLayer {
    fn new(
        in_dim: usize,
        pool_dim: usize,
        out_dim: usize,
        policy: CompressionPolicy,
        last: bool,
        seed: u64,
    ) -> Result<Self, NnError> {
        Ok(Self {
            pool: LinearLayer::new(pool_dim, in_dim, policy.aggregator, seed)?,
            pool_act: Relu::new(),
            comb: LinearLayer::new(out_dim, pool_dim + in_dim, policy.combiner, seed ^ 0x5A5A)?,
            act: if last { None } else { Some(Relu::new()) },
            pool_dim,
            in_dim,
            argmax: Vec::new(),
        })
    }

    /// `ReLU(W_pool·h + b)` for every row of `h`: activated in place, or
    /// with `train` through the activation's training forward.
    fn pooled(&mut self, h: &Matrix, train: bool) -> Matrix {
        let mut t = self.pool.forward(h, train);
        if train {
            return self.pool_act.forward(&t, true);
        }
        self.pool_act.apply_in_place(t.as_mut_slice());
        t
    }

    /// The layer's one aggregate-and-combine kernel, `ReLU(W·(a_v ‖ h_v))`
    /// for each destination row: [`max_pool_neighbors`] over the first
    /// `pool_dim` columns of `pooled` writes `a_v` into the left of the
    /// combiner's input row and `own` supplies `h_v` beside it. With
    /// `train` (rows `0..n`) it records each row's winners in `argmax`.
    fn combine(
        &mut self,
        graph: &CsrGraph,
        pooled: &Matrix,
        own: Band,
        rows: impl ExactSizeIterator<Item = usize>,
        train: bool,
        scratch: &mut BlockScratch,
    ) -> Matrix {
        let pool_dim = self.pool_dim;
        let mut winners = train.then(|| {
            self.argmax = vec![0; pooled.rows() * pool_dim];
            &mut self.argmax
        });
        combine_blocks(&mut self.comb, self.act.as_deref_mut(), train, scratch, rows, |v, z| {
            let (a, h) = z.split_at_mut(pool_dim);
            let won = winners.as_mut().map(|w| &mut w[v * pool_dim..][..pool_dim]);
            max_pool_neighbors(graph, pooled, v, a, won);
            h.copy_from_slice(own.row(v));
        })
    }
}

impl GnnLayer for GsPoolLayer {
    const KIND: ModelKind = ModelKind::GsPool;

    fn out_dim(&self) -> usize {
        self.comb.out_dim()
    }

    fn transform_width(&self) -> usize {
        self.pool_dim + self.in_dim
    }

    /// `t = ReLU(W_pool·h + b)` is the one full-size intermediate of
    /// inference — the max-pool reads it at neighbor rows; `a` and
    /// `[a ‖ h]` exist a block at a time.
    fn forward(
        &mut self,
        graph: &CsrGraph,
        h: &Matrix,
        train: bool,
        scratch: &mut BlockScratch,
    ) -> Matrix {
        assert_eq!(h.cols(), self.in_dim, "gs-pool layer input width mismatch");
        self.clear_backward_state();
        let t = self.pooled(h, train);
        self.combine(graph, &t, Band::whole(h), 0..h.rows(), train, scratch)
    }

    fn backward(&mut self, graph: &CsrGraph, grad: &Matrix) -> Matrix {
        let nodes = graph.num_nodes();
        let gz = combine_backward(&mut self.comb, self.act.as_deref_mut(), grad);
        // Split `∂[a ‖ h]`; the max-pool routes `∂a` to the winning neighbor.
        let mut gt = Matrix::zeros(nodes, self.pool_dim);
        let mut gh = Matrix::zeros(nodes, self.in_dim);
        for (v, winners) in self.argmax.chunks_exact(self.pool_dim).enumerate() {
            let (ga, ghv) = gz.row(v).split_at(self.pool_dim);
            gh.row_mut(v).copy_from_slice(ghv);
            for (d, (&u, &g)) in winners.iter().zip(ga).enumerate() {
                gt[(u as usize, d)] += g;
            }
        }
        let gt = self.pool_act.backward(&gt);
        let gh_pool = self.pool.backward(&gt);
        &gh + &gh_pool
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.pool.visit_params(f);
        self.comb.visit_params(f);
    }

    fn visit_linear_layers(&mut self, f: &mut dyn FnMut(&mut LinearLayer)) {
        f(&mut self.pool);
        f(&mut self.comb);
    }

    fn clear_backward_state(&mut self) {
        self.argmax = Vec::new();
        self.pool_act.clear_cached();
        if let Some(act) = &mut self.act {
            act.clear_cached();
        }
    }

    /// `[ReLU(W_pool·h_v + b) ‖ h_v]` for each target row.
    fn stage_transform(&mut self, input: Band, rows: &[u32]) -> Matrix {
        let h = input.gather(rows);
        side_by_side(&[&self.pooled(&h, false), &h])
    }

    /// [`GsPoolLayer::combine`] over the `[pooled ‖ features]` transform
    /// matrix.
    fn stage_combine(
        &mut self,
        graph: &CsrGraph,
        input: &Matrix,
        rows: &[u32],
        scratch: &mut BlockScratch,
    ) -> Matrix {
        assert_eq!(
            input.cols(),
            self.pool_dim + self.in_dim,
            "gs-pool combine stage expects [pooled ‖ features] input"
        );
        let own = Band::new(input, self.pool_dim, self.in_dim);
        self.combine(graph, input, own, rows.iter().map(|&v| v as usize), false, scratch)
    }
}

/// `out[d] = max_{u ∈ N(v)} pooled[u][d]` over the first `out.len()`
/// columns of `pooled` (an isolated `v` pools from itself, as GraphSAGE
/// does), and with `winners`, the `u` that supplied each maximum.
///
/// Sources are walked in CSR order; the compare is a strict `>` against
/// a running maximum that starts at −∞, so the first of equal maxima
/// wins and NaNs are skipped. Without `winners` (inference) the maxima
/// are [`running_max`] run through [`isa::dispatch`].
fn max_pool_neighbors(
    graph: &CsrGraph,
    pooled: &Matrix,
    v: usize,
    out: &mut [f64],
    winners: Option<&mut [u32]>,
) {
    let neigh = graph.neighbors(v);
    let self_source = [v as u32];
    let sources: &[u32] = if neigh.is_empty() { &self_source } else { neigh };
    let Some(winners) = winners else {
        return isa::dispatch(
            #[inline(always)]
            || running_max(sources, pooled, out),
        );
    };
    out.fill(f64::NEG_INFINITY);
    winners.fill(sources[0]);
    for &u in sources {
        let row = &pooled.row(u as usize)[..out.len()];
        for ((best, winner), &s) in out.iter_mut().zip(winners.iter_mut()).zip(row) {
            if s > *best {
                (*best, *winner) = (s, u);
            }
        }
    }
}

/// Columns per pass of [`running_max`]: 32 f64 are eight AVX2 registers,
/// half the file, so a chunk's maxima stay in registers across sources.
const MAX_CHUNK: usize = 32;

/// The inference arm of [`max_pool_neighbors`]: `out[d]` becomes the
/// maximum of column `d` over the `sources` rows of `pooled`. Columns go
/// [`MAX_CHUNK`] at a time with the running maximum held in a local
/// array — one load per source and one store per chunk instead of a
/// load-max-store of `out` per source — and the remainder the plain
/// way. Per column it is the same compares in the same order as the
/// training arm, so the two agree bit for bit. Forced inline: it
/// compiles for whichever ISA its caller runs.
#[inline(always)]
fn running_max(sources: &[u32], pooled: &Matrix, out: &mut [f64]) {
    let (data, stride) = (pooled.as_slice(), pooled.cols());
    let mut first_col = 0;
    let mut chunks = out.chunks_exact_mut(MAX_CHUNK);
    for chunk in &mut chunks {
        let mut best = [f64::NEG_INFINITY; MAX_CHUNK];
        for &u in sources {
            let row = &data[u as usize * stride + first_col..][..MAX_CHUNK];
            for (best, &s) in best.iter_mut().zip(row) {
                *best = if s > *best { s } else { *best };
            }
        }
        chunk.copy_from_slice(&best);
        first_col += MAX_CHUNK;
    }
    let rest = chunks.into_remainder();
    rest.fill(f64::NEG_INFINITY);
    for &u in sources {
        let row = &data[u as usize * stride + first_col..][..rest.len()];
        for (best, &s) in rest.iter_mut().zip(row) {
            *best = if s > *best { s } else { *best };
        }
    }
}

/// Two-layer GS-Pool model. The pooling dimension equals the hidden
/// dimension for both layers (the GraphSAGE reference configuration).
pub(super) type GsPool = TwoLayer<GsPoolLayer>;

impl GsPool {
    pub(super) fn new(
        in_dim: usize,
        hidden_dim: usize,
        num_classes: usize,
        policy: CompressionPolicy,
        seed: u64,
    ) -> Result<Self, NnError> {
        let layer = |i, o, last, seed| GsPoolLayer::new(i, hidden_dim, o, policy, last, seed);
        Ok(Self {
            layer1: layer(in_dim, hidden_dim, false, seed)?,
            layer2: layer(hidden_dim, num_classes, true, seed ^ 0xC0DE)?,
            scratch: BlockScratch::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::testutil::{
        check_model_gradients, hub_graph, tiny_features, tiny_graph,
    };
    use crate::models::GnnModel;
    use blockgnn_nn::Compression;
    use proptest::prelude::*;

    #[test]
    fn forward_shape() {
        let g = tiny_graph();
        let x = tiny_features(6, 10);
        let mut model =
            GsPool::new(10, 8, 3, CompressionPolicy::uniform(Compression::Dense), 1).unwrap();
        assert_eq!(model.forward(&g, &x, false).shape(), (6, 3));
    }

    #[test]
    fn max_pooling_picks_maximum() {
        // Node 5 is a pendant attached to node 0: its aggregated feature
        // must equal node 0's pooled vector.
        let g = tiny_graph();
        let x = tiny_features(6, 4);
        let mut model =
            GsPool::new(4, 3, 2, CompressionPolicy::uniform(Compression::Dense), 7).unwrap();
        let _ = model.forward(&g, &x, true);
        let l1 = &model.layer1;
        for d in 0..3 {
            assert_eq!(l1.argmax[5 * 3 + d], 0, "pendant must pool from its only neighbor");
        }
    }

    #[test]
    fn inference_records_no_argmax_and_training_still_backpropagates() {
        let g = tiny_graph();
        let x = tiny_features(6, 5);
        let mut model =
            GsPool::new(5, 4, 3, CompressionPolicy::uniform(Compression::Dense), 2).unwrap();
        let inferred = model.forward(&g, &x, false);
        assert!(model.layer1.argmax.is_empty() && model.layer2.argmax.is_empty());
        let trained = model.forward(&g, &x, true);
        assert_eq!(model.layer1.argmax.len(), 6 * 4);
        assert_eq!(inferred, trained, "recording the winners must not change the maxima");
        check_model_gradients(&mut model, &g, &x, 1e-4);
    }

    #[test]
    fn gradients_dense() {
        let g = tiny_graph();
        let x = tiny_features(6, 5);
        let mut model =
            GsPool::new(5, 4, 3, CompressionPolicy::uniform(Compression::Dense), 2).unwrap();
        check_model_gradients(&mut model, &g, &x, 1e-4);
    }

    #[test]
    fn gradients_circulant() {
        let g = tiny_graph();
        let x = tiny_features(6, 6);
        let policy = CompressionPolicy::uniform(Compression::BlockCirculant { block_size: 2 });
        let mut model = GsPool::new(6, 4, 3, policy, 3).unwrap();
        check_model_gradients(&mut model, &g, &x, 1e-4);
    }

    #[test]
    fn gradients_aggregator_only_policy() {
        let g = tiny_graph();
        let x = tiny_features(6, 6);
        let policy =
            CompressionPolicy::aggregator_only(Compression::BlockCirculant { block_size: 2 });
        let mut model = GsPool::new(6, 4, 3, policy, 4).unwrap();
        check_model_gradients(&mut model, &g, &x, 1e-4);
    }

    proptest! {
        #[test]
        fn prop_dispatched_max_pool_equals_the_baseline_codegen(
            seed in 0u64..1_000,
            width in 1usize..71,
            beside in 0usize..3,
        ) {
            // The inference arm through `isa::dispatch` (AVX2 on a CPU
            // that has it), `running_max` called directly (the build's
            // baseline) and the training arm, bit for bit: a hub with
            // parallel arcs, isolated nodes pooling from themselves, NaN
            // and −∞ sources, widths on both sides of the 32-column chunk
            // and a `pooled` wider than the pooled band.
            let n = 23;
            let g = hub_graph(n);
            let mut rng = TestRng::for_test("max-pool-values");
            let pooled = Matrix::from_fn(n, width + beside, |i, j| {
                match (seed as usize + 7 * i + 3 * j) % 11 {
                    0 => f64::NAN,
                    1 => f64::NEG_INFINITY,
                    _ => rng.next_unit() - 0.5,
                }
            });
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            for v in 0..n {
                let mut dispatched = vec![f64::NAN; width];
                max_pool_neighbors(&g, &pooled, v, &mut dispatched, None);
                let own = [v as u32];
                let sources = if g.neighbors(v).is_empty() { &own } else { g.neighbors(v) };
                let mut baseline = vec![f64::NAN; width];
                running_max(sources, &pooled, &mut baseline);
                let (mut trained, mut winners) = (vec![f64::NAN; width], vec![0u32; width]);
                max_pool_neighbors(&g, &pooled, v, &mut trained, Some(&mut winners));
                prop_assert_eq!(bits(&dispatched), bits(&baseline), "node {}", v);
                prop_assert_eq!(bits(&dispatched), bits(&trained), "node {}", v);
            }
        }
    }
}

//! GAT (graph attention network, Veličković et al.).
//!
//! Table I: `α_ij = softmax_j(a(W·h_i, W·h_j))`, `a_v = Σ_j α_ij·h_j`,
//! combination `ELU(W·a_v)`. The attention function is the standard
//! additive form `a(x, y) = LeakyReLU(a_srcᵀx + a_dstᵀy)`; neighborhoods
//! include a self-loop so every softmax is well-defined.
//!
//! Multi-head attention is supported (the paper's profiling setup uses
//! "two 128-dimensional attention heads"): each head owns its projection
//! `W_h` and attention vectors, the per-head aggregations are
//! concatenated, and the combiner maps `heads·M → N`.

use crate::models::block::{
    combine_backward, combine_blocks, transform_blocks, Band, BlockScratch, Output,
};
use crate::models::{CompressionPolicy, GnnLayer, ModelKind, StageOut, TwoLayer};
use blockgnn_graph::CsrGraph;
use blockgnn_linalg::init::InitRng;
use blockgnn_linalg::Matrix;
use blockgnn_nn::{Elu, Layer, LinearLayer, NnError, Param};

const LEAKY_SLOPE: f64 = 0.2;

fn leaky(x: f64) -> f64 {
    if x > 0.0 {
        x
    } else {
        LEAKY_SLOPE * x
    }
}

fn leaky_deriv(x: f64) -> f64 {
    if x > 0.0 {
        1.0
    } else {
        LEAKY_SLOPE
    }
}

/// One attention head: its projection, score vectors, and forward caches.
#[derive(Debug, Clone)]
struct GatHead {
    /// Attention feature projection `W` (in_dim → att_dim).
    w: LinearLayer,
    /// Source attention vector `a_src` (att_dim).
    a_src: Param,
    /// Destination attention vector `a_dst` (att_dim).
    a_dst: Param,
    att_dim: usize,
    // Forward caches.
    s_cache: Matrix,
    /// Post-LeakyReLU attention logits per (node, self + neighbors) pair.
    pre: Vec<Vec<f64>>,
    /// Softmax weights, aligned with `pre`.
    alpha: Vec<Vec<f64>>,
}

impl GatHead {
    fn new(
        in_dim: usize,
        att_dim: usize,
        policy: CompressionPolicy,
        seed: u64,
    ) -> Result<Self, NnError> {
        let mut rng = InitRng::new(seed ^ 0xA77A);
        let bound = (3.0 / att_dim as f64).sqrt();
        Ok(Self {
            w: LinearLayer::new(att_dim, in_dim, policy.aggregator, seed)?,
            a_src: Param::new((0..att_dim).map(|_| rng.uniform(-bound, bound)).collect()),
            a_dst: Param::new((0..att_dim).map(|_| rng.uniform(-bound, bound)).collect()),
            att_dim,
            s_cache: Matrix::zeros(0, 0),
            pre: Vec::new(),
            alpha: Vec::new(),
        })
    }

    /// Backward through this head: consumes `∂L/∂a` for the head's slice,
    /// accumulates parameter gradients, returns `∂L/∂h`.
    fn backward(&mut self, graph: &CsrGraph, h_cache: &Matrix, ga: &Matrix) -> Matrix {
        let nodes = graph.num_nodes();
        let in_dim = h_cache.cols();
        let mut gh = Matrix::zeros(nodes, in_dim);
        let mut g_ssrc = vec![0.0; nodes];
        let mut g_sdst = vec![0.0; nodes];
        // `v` indexes four parallel per-node structures; a zipped
        // iterator would obscure, not clarify.
        #[allow(clippy::needless_range_loop)]
        for v in 0..nodes {
            let neigh = || extended_neighbors(graph, v);
            let alpha = &self.alpha[v];
            let pre = &self.pre[v];
            let gav = ga.row(v);
            // ∂L/∂α_u = <ga_v, h_u>; ∂L/∂h_u += α_u · ga_v.
            let grad_alpha: Vec<f64> = neigh()
                .map(|u| {
                    let hu = h_cache.row(u);
                    gav.iter().zip(hu).map(|(a, b)| a * b).sum()
                })
                .collect();
            for (u, &al) in neigh().zip(alpha) {
                let ghu = gh.row_mut(u);
                for (o, &g) in ghu.iter_mut().zip(gav) {
                    *o += al * g;
                }
            }
            // Softmax backward then LeakyReLU backward. `pre` stores the
            // post-LeakyReLU logits; leaky is sign-preserving, so the
            // stored sign recovers the derivative branch.
            let dot: f64 = alpha.iter().zip(&grad_alpha).map(|(a, g)| a * g).sum();
            for ((u, (&al, &gal)), &p) in neigh().zip(alpha.iter().zip(&grad_alpha)).zip(pre) {
                let ge = al * (gal - dot);
                let gpre = ge * leaky_deriv(p);
                g_ssrc[v] += gpre;
                g_sdst[u] += gpre;
            }
        }
        // Through the score dot-products into s, a_src, a_dst.
        let mut gs = Matrix::zeros(nodes, self.att_dim);
        for i in 0..nodes {
            let si = self.s_cache.row(i);
            let gsrow = gs.row_mut(i);
            for d in 0..self.att_dim {
                gsrow[d] = g_ssrc[i] * self.a_src.data[d] + g_sdst[i] * self.a_dst.data[d];
                self.a_src.grad[d] += g_ssrc[i] * si[d];
                self.a_dst.grad[d] += g_sdst[i] * si[d];
            }
        }
        let gh_w = self.w.backward(&gs);
        gh += &gh_w;
        gh
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.w.visit_params(f);
        f(&mut self.a_src);
        f(&mut self.a_dst);
    }

    /// Reduces each `att_dim`-wide row of `projected` (`Wₖ·h_v`) to this
    /// head's two scores, `⟨Wₖ·h_v, a_src⟩` and `⟨Wₖ·h_v, a_dst⟩`, in
    /// columns `2k` and `2k + 1` of the matching `width`-wide row of
    /// `scores`.
    fn reduce(&self, k: usize, projected: &[f64], scores: &mut [f64], width: usize) {
        for (pair, s) in
            scores.chunks_exact_mut(width).zip(projected.chunks_exact(self.att_dim))
        {
            pair[2 * k] = score(s, &self.a_src);
            pair[2 * k + 1] = score(s, &self.a_dst);
        }
    }
}

/// One attention score `⟨W·h_v, a⟩`.
fn score(projected: &[f64], a: &Param) -> f64 {
    projected.iter().zip(&a.data).map(|(x, w)| x * w).sum()
}

/// `{v} ∪ N(v)`: self first, then CSR order.
fn extended_neighbors(graph: &CsrGraph, v: usize) -> impl Iterator<Item = usize> + '_ {
    std::iter::once(v).chain(graph.neighbors(v).iter().map(|&u| u as usize))
}

/// One GAT layer with one or more attention heads.
#[derive(Debug, Clone)]
pub(super) struct GatLayer {
    heads: Vec<GatHead>,
    /// Combiner (heads·in_dim → out_dim) over the concatenated
    /// per-head aggregations.
    comb: LinearLayer,
    act: Option<Elu>,
    in_dim: usize,
    h_cache: Matrix,
}

impl GatLayer {
    fn new(
        in_dim: usize,
        att_dim: usize,
        out_dim: usize,
        num_heads: usize,
        policy: CompressionPolicy,
        last: bool,
        seed: u64,
    ) -> Result<Self, NnError> {
        if num_heads == 0 {
            return Err(NnError::new("GAT needs at least one attention head"));
        }
        let heads = (0..num_heads)
            .map(|k| GatHead::new(in_dim, att_dim, policy, seed ^ ((k as u64 + 1) << 20)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            heads,
            comb: LinearLayer::new(
                out_dim,
                in_dim * num_heads,
                policy.combiner,
                seed ^ 0x3333,
            )?,
            act: if last { None } else { Some(Elu::new()) },
            in_dim,
            h_cache: Matrix::zeros(0, 0),
        })
    }

    /// The layer's one aggregate-and-combine kernel, `ELU(W·(a⁰_v ‖ a¹_v ‖ …))`
    /// for each destination row: per head `k`, softmax attention over
    /// `{v} ∪ N(v)` (self first, then CSR order) from score columns
    /// `2k`/`2k + 1` of `scores`, and the `features` rows summed under it
    /// into the head's slice of the combiner's input row. Recording (rows
    /// `0..n`), each head keeps every row's logits and weights.
    fn combine(
        &mut self,
        graph: &CsrGraph,
        scores: &Matrix,
        features: Band,
        rows: impl ExactSizeIterator<Item = usize>,
        out: Output,
        scratch: &mut BlockScratch,
    ) {
        assert_eq!(scores.cols(), 2 * self.heads.len(), "gat combine reads two scores a head");
        assert_eq!(features.width(), self.in_dim, "gat layer input width mismatch");
        let in_dim = self.in_dim;
        let mut heads = out.records().then_some(&mut self.heads);
        let mut alpha: Vec<f64> = Vec::new();
        combine_blocks(&mut self.comb, self.act.as_deref_mut(), out, scratch, rows, |v, z| {
            z.fill(0.0);
            for (k, a) in z.chunks_exact_mut(in_dim).enumerate() {
                alpha.clear();
                alpha.extend(
                    extended_neighbors(graph, v)
                        .map(|u| leaky(scores[(v, 2 * k)] + scores[(u, 2 * k + 1)])),
                );
                if let Some(heads) = heads.as_mut() {
                    heads[k].pre.push(alpha.clone());
                }
                blockgnn_linalg::vector::softmax_in_place(&mut alpha);
                if let Some(heads) = heads.as_mut() {
                    heads[k].alpha.push(alpha.clone());
                }
                for (u, &al) in extended_neighbors(graph, v).zip(&alpha) {
                    for (o, &x) in a.iter_mut().zip(features.row(u)) {
                        *o += al * x;
                    }
                }
            }
        });
    }
}

impl GnnLayer for GatLayer {
    const KIND: ModelKind = ModelKind::Gat;

    fn out_dim(&self) -> usize {
        self.comb.out_dim()
    }

    fn transform_width(&self) -> usize {
        2 * self.heads.len()
    }

    /// Each head's projection `Wₖ·h` over every row, kept for `backward`
    /// and reduced to its two score columns, then the kernel; `h` is kept
    /// too.
    fn forward(&mut self, graph: &CsrGraph, h: &Matrix, scratch: &mut BlockScratch) -> Matrix {
        assert_eq!(h.cols(), self.in_dim, "gat layer input width mismatch");
        self.clear_backward_state();
        let width = 2 * self.heads.len();
        let mut scores = Matrix::zeros(h.rows(), width);
        for (k, head) in self.heads.iter_mut().enumerate() {
            head.s_cache = head.w.forward(h, true);
            head.reduce(k, head.s_cache.as_slice(), scores.as_mut_slice(), width);
        }
        let (mut y, rows) = (Matrix::default(), 0..h.rows());
        self.combine(graph, &scores, Band::whole(h), rows, Output::Recorded(&mut y), scratch);
        self.h_cache = h.clone();
        y
    }

    fn backward(&mut self, graph: &CsrGraph, grad: &Matrix) -> Matrix {
        let nodes = graph.num_nodes();
        let g_concat = combine_backward(&mut self.comb, self.act.as_deref_mut(), grad);
        let mut gh = Matrix::zeros(nodes, self.in_dim);
        for (k, head) in self.heads.iter_mut().enumerate() {
            // Slice this head's columns out of the concatenated gradient.
            let ga =
                Matrix::from_fn(nodes, self.in_dim, |i, j| g_concat[(i, k * self.in_dim + j)]);
            let gh_head = head.backward(graph, &self.h_cache, &ga);
            gh += &gh_head;
        }
        gh
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for head in &mut self.heads {
            head.visit_params(f);
        }
        self.comb.visit_params(f);
    }

    fn visit_linear_layers(&mut self, f: &mut dyn FnMut(&mut LinearLayer)) {
        for head in &mut self.heads {
            f(&mut head.w);
        }
        f(&mut self.comb);
    }

    fn clear_backward_state(&mut self) {
        self.h_cache = Matrix::zeros(0, 0);
        if let Some(act) = &mut self.act {
            act.clear_cached();
        }
        for head in &mut self.heads {
            head.s_cache = Matrix::zeros(0, 0);
            head.pre = Vec::new();
            head.alpha = Vec::new();
        }
    }

    /// `[s₀ᵛ, d₀ᵛ, s₁ᵛ, d₁ᵛ, …]` for each target row ([`GatHead::reduce`]):
    /// the full-size intermediate of a layer, since a softmax reads the
    /// destination scores of neighbor rows. Each head's projection of a
    /// block lands in the spare block and is reduced there; the per-head
    /// aggregations and their concatenation exist a block at a time.
    fn stage_transform(
        &mut self,
        h: Band,
        rows: &[u32],
        scratch: &mut BlockScratch,
        out: StageOut,
    ) {
        assert_eq!(h.width(), self.in_dim, "gat layer input width mismatch");
        let (width, heads) = (2 * self.heads.len(), &mut self.heads);
        transform_blocks(scratch, h, rows, width, out, |z, scores, spare| {
            let len = scores.len() / width;
            for (k, head) in heads.iter_mut().enumerate() {
                spare.resize(len * head.att_dim, 0.0);
                head.w.forward_into(z, spare);
                head.reduce(k, spare, scores, width);
            }
        });
    }

    /// [`GatLayer::combine`] over the score rows and the layer input.
    fn stage_combine(
        &mut self,
        graph: &CsrGraph,
        transform: &Matrix,
        h: Band,
        rows: &[u32],
        scratch: &mut BlockScratch,
        out: StageOut,
    ) {
        let rows = rows.iter().map(|&v| v as usize);
        self.combine(graph, transform, h, rows, Output::Rows(out), scratch);
    }
}

/// Two-layer GAT model with attention dimension equal to the hidden
/// dimension.
pub(super) type Gat = TwoLayer<GatLayer>;

impl Gat {
    /// A single-head model (the Table III training configuration).
    pub(super) fn new(
        in_dim: usize,
        hidden_dim: usize,
        num_classes: usize,
        policy: CompressionPolicy,
        seed: u64,
    ) -> Result<Self, NnError> {
        Self::with_heads(in_dim, hidden_dim, num_classes, 1, policy, seed)
    }

    /// A multi-head model (the paper's profiling setup uses two heads);
    /// per-head aggregations are concatenated before combination.
    pub(super) fn with_heads(
        in_dim: usize,
        hidden_dim: usize,
        num_classes: usize,
        num_heads: usize,
        policy: CompressionPolicy,
        seed: u64,
    ) -> Result<Self, NnError> {
        let layer =
            |i, o, last, seed| GatLayer::new(i, hidden_dim, o, num_heads, policy, last, seed);
        Ok(Self {
            layer1: layer(in_dim, hidden_dim, false, seed)?,
            layer2: layer(hidden_dim, num_classes, true, seed ^ 0xFACE)?,
            scratch: BlockScratch::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::testutil::{check_model_gradients, tiny_features, tiny_graph};
    use crate::models::GnnModel;
    use blockgnn_nn::Compression;

    #[test]
    fn forward_shape() {
        let g = tiny_graph();
        let x = tiny_features(6, 7);
        let mut model =
            Gat::new(7, 5, 3, CompressionPolicy::uniform(Compression::Dense), 1).unwrap();
        assert_eq!(model.forward(&g, &x, false).shape(), (6, 3));
    }

    #[test]
    fn attention_weights_sum_to_one() {
        let g = tiny_graph();
        let x = tiny_features(6, 4);
        let mut model =
            Gat::new(4, 3, 2, CompressionPolicy::uniform(Compression::Dense), 5).unwrap();
        let _ = model.forward(&g, &x, true);
        for alpha in &model.layer1.heads[0].alpha {
            let sum: f64 = alpha.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(alpha.iter().all(|&a| a >= 0.0));
        }
    }

    #[test]
    fn inference_records_no_backward_state_and_training_still_backpropagates() {
        let g = tiny_graph();
        let x = tiny_features(6, 4);
        let mut model =
            Gat::with_heads(4, 3, 2, 2, CompressionPolicy::uniform(Compression::Dense), 2)
                .unwrap();
        let holds_nothing = |l: &GatLayer| {
            l.h_cache.is_empty()
                && l.heads
                    .iter()
                    .all(|h| h.pre.is_empty() && h.alpha.is_empty() && h.s_cache.is_empty())
        };
        let inferred = model.forward(&g, &x, false);
        assert!(holds_nothing(&model.layer1) && holds_nothing(&model.layer2));
        let trained = model.forward(&g, &x, true);
        assert_eq!(model.layer1.heads[1].alpha.len(), 6);
        assert_eq!(inferred, trained, "recording the attention must not change the sums");
        let _ = model.forward(&g, &x, false);
        assert!(holds_nothing(&model.layer1), "inference drops stale backward state");
        check_model_gradients(&mut model, &g, &x, 2e-4);
    }

    #[test]
    fn gradients_dense() {
        let g = tiny_graph();
        let x = tiny_features(6, 4);
        let mut model =
            Gat::new(4, 3, 2, CompressionPolicy::uniform(Compression::Dense), 2).unwrap();
        check_model_gradients(&mut model, &g, &x, 2e-4);
    }

    #[test]
    fn gradients_circulant() {
        let g = tiny_graph();
        let x = tiny_features(6, 4);
        let policy = CompressionPolicy::uniform(Compression::BlockCirculant { block_size: 2 });
        let mut model = Gat::new(4, 4, 2, policy, 3).unwrap();
        check_model_gradients(&mut model, &g, &x, 2e-4);
    }

    #[test]
    fn gradients_two_heads() {
        let g = tiny_graph();
        let x = tiny_features(6, 4);
        let mut model =
            Gat::with_heads(4, 3, 2, 2, CompressionPolicy::uniform(Compression::Dense), 4)
                .unwrap();
        check_model_gradients(&mut model, &g, &x, 2e-4);
    }

    #[test]
    fn multi_head_shapes_and_params() {
        let g = tiny_graph();
        let x = tiny_features(6, 8);
        let policy = CompressionPolicy::uniform(Compression::Dense);
        let mut one = Gat::with_heads(8, 4, 3, 1, policy, 9).unwrap();
        let mut two = Gat::with_heads(8, 4, 3, 2, policy, 9).unwrap();
        assert_eq!(two.forward(&g, &x, false).shape(), (6, 3));
        // Two heads double the attention parameters and widen the
        // combiner input.
        assert!(two.num_params() > one.num_params());
        let _ = one.forward(&g, &x, false);
    }

    #[test]
    fn zero_heads_rejected() {
        let policy = CompressionPolicy::uniform(Compression::Dense);
        assert!(Gat::with_heads(4, 3, 2, 0, policy, 1).is_err());
    }
}

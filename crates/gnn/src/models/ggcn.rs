//! G-GCN (gated GCN, Marcheggiani & Titov).
//!
//! Table I: per-edge gates `η_u = σ(W_H·h_u + W_C·h_v)` modulate the
//! neighbor sum `a_v = Σ_{u∈N(v)} η_u ⊙ h_u`; combination is
//! `ReLU(W·a_v)`. The gate matrices `W_H`, `W_C` act on every sampled
//! neighbor, which is why G-GCN tops Table II's aggregation FLOPs
//! (3.7 × 10¹²) and shows the paper's largest speedup (8.3× on Reddit).

use crate::models::block::{
    combine_backward, combine_blocks, side_by_side, Band, BlockScratch,
};
use crate::models::{CompressionPolicy, GnnLayer, ModelKind, TwoLayer};
use blockgnn_graph::CsrGraph;
use blockgnn_linalg::Matrix;
use blockgnn_nn::{Layer, LinearLayer, NnError, Param, Relu};

/// One G-GCN layer. Gate dimension equals the input dimension so the
/// Hadamard product `η_u ⊙ h_u` is well-typed.
#[derive(Debug, Clone)]
pub(super) struct GgcnLayer {
    w_h: LinearLayer,
    w_c: LinearLayer,
    comb: LinearLayer,
    act: Option<Relu>,
    in_dim: usize,
    /// Cached input features (needed for gate gradients).
    h_cache: Matrix,
    /// Cached per-arc gate values, arc-major then feature.
    gates: Vec<f64>,
}

impl GgcnLayer {
    fn new(
        in_dim: usize,
        out_dim: usize,
        policy: CompressionPolicy,
        last: bool,
        seed: u64,
    ) -> Result<Self, NnError> {
        Ok(Self {
            w_h: LinearLayer::new(in_dim, in_dim, policy.aggregator, seed)?,
            w_c: LinearLayer::new(in_dim, in_dim, policy.aggregator, seed ^ 0x1111)?,
            comb: LinearLayer::new(out_dim, in_dim, policy.combiner, seed ^ 0x2222)?,
            act: if last { None } else { Some(Relu::new()) },
            in_dim,
            h_cache: Matrix::zeros(0, 0),
            gates: Vec::new(),
        })
    }

    /// The layer's one aggregate-and-combine kernel, `ReLU(W·a_v)` for
    /// each destination row with `a_v = Σ_u σ(p_u + q_v) ⊙ h_u` summed in
    /// CSR order into the combiner's input row; `[p, q, h]` say where the
    /// gate terms and the features live. With `train` (rows `0..n`) it
    /// records every gate, arc-major, in `gates`.
    fn combine(
        &mut self,
        graph: &CsrGraph,
        [p, q, h]: [Band; 3],
        rows: impl ExactSizeIterator<Item = usize>,
        train: bool,
        scratch: &mut BlockScratch,
    ) -> Matrix {
        let mut gates = train.then(|| {
            self.gates = Vec::with_capacity(graph.num_arcs() * self.in_dim);
            &mut self.gates
        });
        combine_blocks(&mut self.comb, self.act.as_deref_mut(), train, scratch, rows, |v, a| {
            let sources =
                graph.neighbors(v).iter().map(|&u| (p.row(u as usize), h.row(u as usize)));
            match gates.as_mut() {
                None => gated_sum(sources, q.row(v), a, |_| {}),
                Some(gates) => gated_sum(sources, q.row(v), a, |gate| gates.push(gate)),
            }
        })
    }
}

/// `a = Σ σ(p_u + q_v) ⊙ h_u` over the `(p_u, h_u)` rows of `sources`,
/// in order, handing each gate to `keep` — a no-op on inference, so the
/// choice is made once per destination row, not per element.
#[inline(always)]
fn gated_sum<'a>(
    sources: impl Iterator<Item = (&'a [f64], &'a [f64])>,
    qv: &[f64],
    a: &mut [f64],
    mut keep: impl FnMut(f64),
) {
    a.fill(0.0);
    for (pu, hu) in sources {
        for (((o, &pd), &qd), &x) in a.iter_mut().zip(pu).zip(qv).zip(hu) {
            let gate = 1.0 / (1.0 + (-(pd + qd)).exp());
            keep(gate);
            *o += gate * x;
        }
    }
}

impl GnnLayer for GgcnLayer {
    const KIND: ModelKind = ModelKind::Ggcn;

    fn out_dim(&self) -> usize {
        self.comb.out_dim()
    }

    fn transform_width(&self) -> usize {
        3 * self.in_dim
    }

    /// The gate terms `p = W_H·h` and `q = W_C·h` are the full-size
    /// intermediates of inference: the gated sum reads `p` at neighbor
    /// rows, and `q` — per target — is kept whole too so that the kernel
    /// indexes it by node exactly as the staged route does. `a` exists a
    /// block at a time. Training also keeps a copy of `h`.
    fn forward(
        &mut self,
        graph: &CsrGraph,
        h: &Matrix,
        train: bool,
        scratch: &mut BlockScratch,
    ) -> Matrix {
        assert_eq!(h.cols(), self.in_dim, "g-gcn layer input width mismatch");
        self.clear_backward_state();
        let [p, q] = [&mut self.w_h, &mut self.w_c].map(|w| w.forward(h, train));
        let bands = [Band::whole(&p), Band::whole(&q), Band::whole(h)];
        let y = self.combine(graph, bands, 0..h.rows(), train, scratch);
        if train {
            self.h_cache = h.clone();
        }
        y
    }

    fn backward(&mut self, graph: &CsrGraph, grad: &Matrix) -> Matrix {
        let nodes = graph.num_nodes();
        let dim = self.in_dim;
        let ga = combine_backward(&mut self.comb, self.act.as_deref_mut(), grad);
        let mut gp = Matrix::zeros(nodes, dim);
        let mut gq = Matrix::zeros(nodes, dim);
        let mut gh = Matrix::zeros(nodes, dim);
        let mut arc = 0usize;
        for v in 0..nodes {
            for &u in graph.neighbors(v) {
                let u = u as usize;
                let gav = ga.row(v);
                let hu = self.h_cache.row(u);
                let gates = &self.gates[arc * dim..(arc + 1) * dim];
                for d in 0..dim {
                    let g = gates[d];
                    // ∂/∂h_u of (g ⊙ h_u): direct term.
                    gh[(u, d)] += g * gav[d];
                    // Gate gradient through the sigmoid.
                    let pre = gav[d] * hu[d] * g * (1.0 - g);
                    gp[(u, d)] += pre;
                    gq[(v, d)] += pre;
                }
                arc += 1;
            }
        }
        let gh_p = self.w_h.backward(&gp);
        let gh_q = self.w_c.backward(&gq);
        gh += &gh_p;
        gh += &gh_q;
        gh
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.w_h.visit_params(f);
        self.w_c.visit_params(f);
        self.comb.visit_params(f);
    }

    fn visit_linear_layers(&mut self, f: &mut dyn FnMut(&mut LinearLayer)) {
        f(&mut self.w_h);
        f(&mut self.w_c);
        f(&mut self.comb);
    }

    fn clear_backward_state(&mut self) {
        self.h_cache = Matrix::zeros(0, 0);
        self.gates = Vec::new();
        if let Some(act) = &mut self.act {
            act.clear_cached();
        }
    }

    /// `[W_H·h_v ‖ W_C·h_v ‖ h_v]` per target row.
    fn stage_transform(&mut self, input: Band, rows: &[u32]) -> Matrix {
        let h = input.gather(rows);
        let [p, q] = [&mut self.w_h, &mut self.w_c].map(|w| w.forward(&h, false));
        side_by_side(&[&p, &q, &h])
    }

    /// [`GgcnLayer::combine`] over the `[p ‖ q ‖ h]` transform matrix.
    fn stage_combine(
        &mut self,
        graph: &CsrGraph,
        input: &Matrix,
        rows: &[u32],
        scratch: &mut BlockScratch,
    ) -> Matrix {
        let dim = self.in_dim;
        assert_eq!(input.cols(), 3 * dim, "g-gcn combine stage expects [p ‖ q ‖ h] input");
        let bands = [0, dim, 2 * dim].map(|offset| Band::new(input, offset, dim));
        self.combine(graph, bands, rows.iter().map(|&v| v as usize), false, scratch)
    }
}

/// Two-layer G-GCN model.
pub(super) type Ggcn = TwoLayer<GgcnLayer>;

impl Ggcn {
    pub(super) fn new(
        in_dim: usize,
        hidden_dim: usize,
        num_classes: usize,
        policy: CompressionPolicy,
        seed: u64,
    ) -> Result<Self, NnError> {
        Ok(Self {
            layer1: GgcnLayer::new(in_dim, hidden_dim, policy, false, seed)?,
            layer2: GgcnLayer::new(hidden_dim, num_classes, policy, true, seed ^ 0xD00D)?,
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
        let x = tiny_features(6, 8);
        let mut model =
            Ggcn::new(8, 5, 3, CompressionPolicy::uniform(Compression::Dense), 1).unwrap();
        assert_eq!(model.forward(&g, &x, false).shape(), (6, 3));
    }

    #[test]
    fn gates_lie_in_unit_interval() {
        let g = tiny_graph();
        let x = tiny_features(6, 4);
        let mut model =
            Ggcn::new(4, 3, 2, CompressionPolicy::uniform(Compression::Dense), 9).unwrap();
        let _ = model.forward(&g, &x, true);
        assert!(!model.layer1.gates.is_empty());
        assert!(model.layer1.gates.iter().all(|&g| (0.0..=1.0).contains(&g)));
    }

    #[test]
    fn inference_records_no_backward_state_and_training_still_backpropagates() {
        let g = tiny_graph();
        let x = tiny_features(6, 4);
        let mut model =
            Ggcn::new(4, 3, 2, CompressionPolicy::uniform(Compression::Dense), 2).unwrap();
        let holds_nothing = |l: &GgcnLayer| l.gates.is_empty() && l.h_cache.is_empty();
        let inferred = model.forward(&g, &x, false);
        assert!(holds_nothing(&model.layer1) && holds_nothing(&model.layer2));
        let trained = model.forward(&g, &x, true);
        assert_eq!(model.layer1.gates.len(), g.num_arcs() * 4);
        assert_eq!(inferred, trained, "recording the gates must not change the sums");
        let _ = model.forward(&g, &x, false);
        assert!(holds_nothing(&model.layer1), "inference drops stale backward state");
        check_model_gradients(&mut model, &g, &x, 1e-4);
    }

    #[test]
    fn gradients_dense() {
        let g = tiny_graph();
        let x = tiny_features(6, 4);
        let mut model =
            Ggcn::new(4, 3, 2, CompressionPolicy::uniform(Compression::Dense), 2).unwrap();
        check_model_gradients(&mut model, &g, &x, 1e-4);
    }

    #[test]
    fn gradients_circulant() {
        let g = tiny_graph();
        let x = tiny_features(6, 4);
        let policy = CompressionPolicy::uniform(Compression::BlockCirculant { block_size: 2 });
        let mut model = Ggcn::new(4, 4, 2, policy, 3).unwrap();
        check_model_gradients(&mut model, &g, &x, 1e-4);
    }
}

//! G-GCN (gated GCN, Marcheggiani & Titov).
//!
//! Table I: per-edge gates `η_u = σ(W_H·h_u + W_C·h_v)` modulate the
//! neighbor sum `a_v = Σ_{u∈N(v)} η_u ⊙ h_u`; combination is
//! `ReLU(W·a_v)`. The gate matrices `W_H`, `W_C` act on every sampled
//! neighbor, which is why G-GCN tops Table II's aggregation FLOPs
//! (3.7 × 10¹²) and shows the paper's largest speedup (8.3× on Reddit).

use crate::models::block::{combine_blocks, linear, side_by_side, Band, BlockScratch};
use crate::models::{CompressionPolicy, GnnModel, ModelKind};
use blockgnn_graph::CsrGraph;
use blockgnn_linalg::Matrix;
use blockgnn_nn::{Layer, LinearLayer, NnError, Param, Relu};

/// One G-GCN layer. Gate dimension equals the input dimension so the
/// Hadamard product `η_u ⊙ h_u` is well-typed.
#[derive(Debug, Clone)]
struct GgcnLayer {
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

    /// Training forward: full-size `p`, `q`, `a`, the per-arc gates and a
    /// copy of the input, all of which `backward` reads. The arithmetic
    /// reference for [`GgcnLayer::infer`].
    fn forward_train(&mut self, graph: &CsrGraph, h: &Matrix) -> Matrix {
        assert_eq!(h.cols(), self.in_dim, "g-gcn layer input width mismatch");
        let nodes = graph.num_nodes();
        let dim = self.in_dim;
        let p = self.w_h.forward(h, true); // per-source gate term
        let q = self.w_c.forward(h, true); // per-target gate term
        self.gates = vec![0.0; graph.num_arcs() * dim];
        let mut a = Matrix::zeros(nodes, dim);
        let mut arc = 0usize;
        for v in 0..nodes {
            let qv = q.row(v);
            for &u in graph.neighbors(v) {
                let u = u as usize;
                let pu = p.row(u);
                let hu = h.row(u);
                let arow = a.row_mut(v);
                let gslice = &mut self.gates[arc * dim..(arc + 1) * dim];
                for d in 0..dim {
                    let gate = 1.0 / (1.0 + (-(pu[d] + qv[d])).exp());
                    gslice[d] = gate;
                    arow[d] += gate * hu[d];
                }
                arc += 1;
            }
        }
        self.h_cache = h.clone();
        let y = self.comb.forward(&a, true);
        match &mut self.act {
            Some(act) => act.forward(&y, true),
            None => y,
        }
    }

    /// Inference forward. The gate terms `p = W_H·h` and `q = W_C·h` are
    /// the full-size intermediates: the gated sum reads `p` at neighbor
    /// rows, and `q` — per target — is kept whole too so that the kernel
    /// indexes it by node exactly as the staged route does. `a` exists a
    /// block at a time; no gate, and no copy of `h`, is kept.
    fn infer(&mut self, graph: &CsrGraph, h: &Matrix, scratch: &mut BlockScratch) -> Matrix {
        assert_eq!(h.cols(), self.in_dim, "g-gcn layer input width mismatch");
        assert_eq!(h.rows(), graph.num_nodes(), "feature rows must equal node count");
        self.clear_backward_state();
        let p = linear(&mut self.w_h, h);
        let q = linear(&mut self.w_c, h);
        let bands = [Band::whole(&p), Band::whole(&q), Band::whole(h)];
        self.combine(graph, bands, 0..h.rows(), scratch)
    }

    fn backward(&mut self, graph: &CsrGraph, grad: &Matrix) -> Matrix {
        let nodes = graph.num_nodes();
        let dim = self.in_dim;
        let grad = match &mut self.act {
            Some(act) => act.backward(grad),
            None => grad.clone(),
        };
        let ga = self.comb.backward(&grad);
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

    /// Drops what the latest training forward kept for `backward`
    /// (per-arc gates, input and activation snapshots): inference passes
    /// and forked worker replicas never read it.
    fn clear_backward_state(&mut self) {
        self.h_cache = Matrix::zeros(0, 0);
        self.gates = Vec::new();
        if let Some(act) = &mut self.act {
            act.clear_cached();
        }
    }

    /// Transform half-stage: `[W_H·h_v ‖ W_C·h_v ‖ h_v]` per target row —
    /// node-local gate terms, no neighbor reads.
    fn stage_transform(&mut self, input: &Matrix, rows: &[u32]) -> Matrix {
        let h = input.gather_rows(rows.iter().map(|&v| v as usize));
        let p = linear(&mut self.w_h, &h);
        let q = linear(&mut self.w_c, &h);
        side_by_side(&[&p, &q, &h])
    }

    /// Aggregate-and-combine half-stage over the `[p ‖ q ‖ h]` transform
    /// matrix: [`GgcnLayer::combine`] with all three sources inside
    /// `input`.
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
        self.combine(graph, bands, rows.iter().map(|&v| v as usize), scratch)
    }

    /// The layer's one aggregate-and-combine kernel, `ReLU(W·a_v)` for
    /// each destination row with `a_v = Σ_u σ(p_u + q_v) ⊙ h_u` summed in
    /// CSR order into the combiner's input row; `[p, q, h]` say where the
    /// gate terms and the features live. The gate expression is
    /// [`GgcnLayer::forward_train`]'s.
    fn combine(
        &mut self,
        graph: &CsrGraph,
        [p, q, h]: [Band; 3],
        rows: impl ExactSizeIterator<Item = usize>,
        scratch: &mut BlockScratch,
    ) -> Matrix {
        combine_blocks(&mut self.comb, self.act.as_deref(), scratch, rows, |v, a| {
            a.fill(0.0);
            let qv = q.row(v);
            for &u in graph.neighbors(v) {
                let (pu, hu) = (p.row(u as usize), h.row(u as usize));
                for (((o, &pd), &qd), &x) in a.iter_mut().zip(pu).zip(qv).zip(hu) {
                    let gate = 1.0 / (1.0 + (-(pd + qd)).exp());
                    *o += gate * x;
                }
            }
        })
    }
}

/// Two-layer G-GCN model.
#[derive(Debug, Clone)]
pub struct Ggcn {
    layer1: GgcnLayer,
    layer2: GgcnLayer,
    /// Block buffers of the inference pass, shared by both layers.
    scratch: BlockScratch,
}

impl Ggcn {
    /// Builds the model.
    ///
    /// # Errors
    ///
    /// Propagates layer-construction errors.
    pub fn new(
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

impl GnnModel for Ggcn {
    fn kind(&self) -> ModelKind {
        ModelKind::Ggcn
    }

    fn hidden_dim(&self) -> usize {
        self.layer1.comb.out_dim()
    }

    fn forward(&mut self, graph: &CsrGraph, features: &Matrix, train: bool) -> Matrix {
        if train {
            let h1 = self.layer1.forward_train(graph, features);
            return self.layer2.forward_train(graph, &h1);
        }
        let h1 = self.layer1.infer(graph, features, &mut self.scratch);
        self.layer2.infer(graph, &h1, &mut self.scratch)
    }

    fn backward(&mut self, graph: &CsrGraph, grad_logits: &Matrix) -> Matrix {
        let g1 = self.layer2.backward(graph, grad_logits);
        self.layer1.backward(graph, &g1)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.layer1.visit_params(f);
        self.layer2.visit_params(f);
    }

    fn visit_linear_layers(&mut self, f: &mut dyn FnMut(&mut LinearLayer)) {
        self.layer1.visit_linear_layers(f);
        self.layer2.visit_linear_layers(f);
    }

    fn clone_boxed(&self) -> Box<dyn GnnModel> {
        let mut copy = self.clone();
        copy.layer1.clear_backward_state();
        copy.layer2.clear_backward_state();
        Box::new(copy)
    }

    // Each G-GCN layer splits at its natural seam: the node-local gate
    // transforms (stage 0/2, zero halo) and the gated neighbor sum +
    // combiner (stage 1/3, one-hop halo reads).
    fn num_stages(&self) -> usize {
        4
    }

    fn stage_width(&self, stage: usize, feature_dim: usize) -> usize {
        match stage {
            0 => 3 * feature_dim,
            1 => self.layer1.comb.out_dim(),
            2 => 3 * self.layer1.comb.out_dim(),
            3 => self.layer2.comb.out_dim(),
            _ => panic!("G-GCN has 4 stages, got stage {stage}"),
        }
    }

    fn forward_stage(
        &mut self,
        stage: usize,
        graph: &CsrGraph,
        input: &Matrix,
        rows: &[u32],
    ) -> Matrix {
        match stage {
            0 => self.layer1.stage_transform(input, rows),
            1 => self.layer1.stage_combine(graph, input, rows, &mut self.scratch),
            2 => self.layer2.stage_transform(input, rows),
            3 => self.layer2.stage_combine(graph, input, rows, &mut self.scratch),
            _ => panic!("G-GCN has 4 stages, got stage {stage}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::testutil::{check_model_gradients, tiny_features, tiny_graph};
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

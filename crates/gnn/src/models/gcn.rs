//! GCN (Kipf & Welling): normalized-sum aggregation, `ReLU(W·a_v)`
//! combination.
//!
//! GCN's aggregator has no weights (Table I), so compression only
//! touches the two combiner matrices — the reason the paper's Figure 6
//! shows the smallest speedup on GCN.

use crate::adjacency::NormalizedAdjacency;
use crate::models::block::{combine_backward, combine_blocks, Band, BlockScratch};
use crate::models::{GnnModel, ModelKind};
use blockgnn_graph::CsrGraph;
use blockgnn_linalg::Matrix;
use blockgnn_nn::{Compression, Layer, LinearLayer, NnError, Param, Relu};

/// Two-layer GCN: `logits = W₂·Â·ReLU(W₁·Â·X)`.
#[derive(Debug, Clone)]
pub struct Gcn {
    lin1: LinearLayer,
    act1: Relu,
    lin2: LinearLayer,
    /// `Â` coefficients cached by [`GnnModel::prepare_graph`], keyed by
    /// the graph's process-unique [`CsrGraph::instance_id`] so staged
    /// execution skips the per-part recomputation while a different
    /// graph — even one with identical counts, or one reusing a freed
    /// allocation — can never hit stale coefficients.
    adj_cache: Option<(u64, NormalizedAdjacency)>,
    /// Block buffer of the inference pass: `Â·H` exists one block of
    /// destination rows at a time, as the combiner's input.
    scratch: BlockScratch,
}

impl Gcn {
    /// Builds the model. `compression` applies to both combiner weights.
    ///
    /// # Errors
    ///
    /// Propagates layer-construction errors.
    pub fn new(
        in_dim: usize,
        hidden_dim: usize,
        num_classes: usize,
        compression: Compression,
        seed: u64,
    ) -> Result<Self, NnError> {
        Ok(Self {
            lin1: LinearLayer::new(hidden_dim, in_dim, compression, seed)?,
            act1: Relu::new(),
            lin2: LinearLayer::new(num_classes, hidden_dim, compression, seed ^ 0xBEEF)?,
            adj_cache: None,
            scratch: BlockScratch::default(),
        })
    }

    /// Layer `stage`'s one aggregate-and-combine kernel: for each
    /// destination row, `Â`-row of `input` ([`NormalizedAdjacency::write_row`])
    /// into the combiner's input block, then the combiner (+ ReLU on the
    /// hidden layer), through their training forwards with `train`. Needs
    /// [`GnnModel::prepare_graph`] to have run for `graph`.
    fn layer(
        &mut self,
        stage: usize,
        graph: &CsrGraph,
        input: Band,
        rows: impl ExactSizeIterator<Item = usize>,
        train: bool,
    ) -> Matrix {
        let (lin, act) = match stage {
            0 => (&mut self.lin1, Some(&mut *self.act1)),
            1 => (&mut self.lin2, None),
            _ => panic!("GCN has 2 stages, got stage {stage}"),
        };
        assert!(input.nodes() >= graph.num_nodes(), "every node needs an input row");
        assert_eq!(input.width(), lin.in_dim(), "gcn layer input width mismatch");
        let (_, adj) = self.adj_cache.as_ref().expect("prepare_graph ran for this graph");
        combine_blocks(lin, act, train, &mut self.scratch, rows, |v, z| {
            adj.write_row(graph, input, v, z);
        })
    }
}

impl GnnModel for Gcn {
    fn kind(&self) -> ModelKind {
        ModelKind::Gcn
    }

    fn hidden_dim(&self) -> usize {
        self.lin1.out_dim()
    }

    fn forward(&mut self, graph: &CsrGraph, features: &Matrix, train: bool) -> Matrix {
        // Reuse the instance-id-keyed coefficients across requests.
        self.prepare_graph(graph);
        if !train {
            self.act1.clear_cached();
        }
        let nodes = graph.num_nodes();
        assert_eq!(features.rows(), nodes, "feature rows must equal node count");
        let h1 = self.layer(0, graph, Band::whole(features), 0..nodes, train);
        self.layer(1, graph, Band::whole(&h1), 0..nodes, train)
    }

    fn backward(&mut self, graph: &CsrGraph, grad_logits: &Matrix) -> Matrix {
        // Reuse the coefficients the preceding forward cached for this
        // graph (instance-id keyed, so never stale).
        self.prepare_graph(graph);
        let (_, adj) = self.adj_cache.as_ref().expect("just prepared");
        let g_a2 = self.lin2.backward(grad_logits);
        // Â is symmetric, so ∂L/∂h1 = Â·∂L/∂a2.
        let g_h1 = adj.apply(graph, &g_a2);
        let g_a1 = combine_backward(&mut self.lin1, Some(&mut *self.act1), &g_h1);
        adj.apply(graph, &g_a1)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.lin1.visit_params(f);
        self.lin2.visit_params(f);
    }

    fn visit_linear_layers(&mut self, f: &mut dyn FnMut(&mut LinearLayer)) {
        f(&mut self.lin1);
        f(&mut self.lin2);
    }

    fn clone_boxed(&self) -> Box<dyn GnnModel> {
        let mut copy = self.clone();
        copy.act1.clear_cached();
        Box::new(copy)
    }

    fn prepare_graph(&mut self, graph: &CsrGraph) {
        // Idempotent: repeat preparations for the same graph (one per
        // request in the parallel scheduler) cost O(1).
        if !matches!(&self.adj_cache, Some((id, _)) if *id == graph.instance_id()) {
            self.adj_cache = Some((graph.instance_id(), NormalizedAdjacency::new(graph)));
        }
    }

    // GCN's aggregator has no weights, so each layer is a single
    // row-parallel stage: `Â`-rows then the combiner matvec. Stage `s`
    // reads the full previous hidden matrix only at `N(v) ∪ {v}`.
    fn num_stages(&self) -> usize {
        2
    }

    fn stage_width(&self, stage: usize, _feature_dim: usize) -> usize {
        match stage {
            0 => self.lin1.out_dim(),
            1 => self.lin2.out_dim(),
            _ => panic!("GCN has 2 stages, got stage {stage}"),
        }
    }

    fn forward_stage(
        &mut self,
        stage: usize,
        graph: &CsrGraph,
        input: &Matrix,
        rows: &[u32],
    ) -> Matrix {
        // Idempotent: a hit on the instance-id key is O(1), so callers
        // that never prepared explicitly still pay the normalization
        // build only once per graph.
        self.prepare_graph(graph);
        self.layer(stage, graph, Band::whole(input), rows.iter().map(|&v| v as usize), false)
    }

    fn first_stage_indexed(
        &mut self,
        graph: &CsrGraph,
        features: &Matrix,
        index: &[u32],
        rows: &[u32],
    ) -> Matrix {
        self.prepare_graph(graph);
        let input = Band::indexed(features, index);
        self.layer(0, graph, input, rows.iter().map(|&v| v as usize), false)
    }

    fn stage_buffers(&mut self) -> Option<&mut Vec<Matrix>> {
        Some(&mut self.scratch.stages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::testutil::{check_model_gradients, tiny_features, tiny_graph};

    #[test]
    fn forward_shape() {
        let g = tiny_graph();
        let x = tiny_features(6, 10);
        let mut model = Gcn::new(10, 8, 3, Compression::Dense, 1).unwrap();
        let y = model.forward(&g, &x, false);
        assert_eq!(y.shape(), (6, 3));
    }

    #[test]
    fn gradients_dense() {
        let g = tiny_graph();
        let x = tiny_features(6, 5);
        let mut model = Gcn::new(5, 4, 3, Compression::Dense, 2).unwrap();
        check_model_gradients(&mut model, &g, &x, 1e-4);
    }

    #[test]
    fn gradients_circulant() {
        let g = tiny_graph();
        let x = tiny_features(6, 6);
        let mut model =
            Gcn::new(6, 4, 3, Compression::BlockCirculant { block_size: 2 }, 3).unwrap();
        check_model_gradients(&mut model, &g, &x, 1e-4);
    }

    #[test]
    fn compressed_model_has_fewer_params() {
        let mut dense = Gcn::new(32, 16, 4, Compression::Dense, 1).unwrap();
        let mut circ =
            Gcn::new(32, 16, 4, Compression::BlockCirculant { block_size: 8 }, 1).unwrap();
        assert!(circ.num_params() < dense.num_params());
    }
}

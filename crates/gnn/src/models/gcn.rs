//! GCN (Kipf & Welling): normalized-sum aggregation, `ReLU(W·a_v)`
//! combination.
//!
//! GCN's aggregator has no weights (Table I), so compression only
//! touches the two combiner matrices — the reason the paper's Figure 6
//! shows the smallest speedup on GCN.
//!
//! # Two orders for the first layer
//!
//! The paper aggregates, then combines: `h₁ = ReLU(W₁·(Â·X) + b₁)`. The
//! training route, [`ExecMode::Gemm`] (the Dense backend) and
//! [`ExecMode::FixedSpectral`] (the simulated accelerator) run that
//! order, one stage per layer, and tests pin each of them:
//! `tests/model_fingerprint.rs` the training bits, the wire and telemetry
//! transcripts the Dense backend's hex logits, and `tests/engine_api.rs`'s
//! hand-wired Q16.16 oracle the accelerator's.
//!
//! Prepared for [`ExecMode::Spectral`], the first layer combines first:
//! `h₁ = ReLU(Â·T + b₁)` with `T = X·W₁`, computed without the bias. It is
//! the same map rounded in a different order. The aggregation then runs
//! at the hidden width instead of the input width (the per-layer order
//! choice of VersaGNN and GNNIE, PAPERS.md). The layer is two stages like
//! any other: a node-local stage 0 writes `T` by node, and stage 1
//! aggregates it through one kernel, `Gcn::first_rows_into`, so every
//! route of the prepared model agrees bit for bit. Row `u` of `T` depends
//! only on node `u`'s features, so the model declares its width
//! ([`GnnModel::row_table_width`]) and the serving engine passes one
//! [`RowTable`](crate::RowTable) per graph version with each sampled
//! batch: the staged pass then computes only the `T` rows no earlier
//! batch put in the table, and stage 1 reads `T` from the table in place
//! ([`StageInputs::table`]). Full-graph passes pass none. The second
//! layer keeps the paper's order everywhere.

use crate::adjacency::NormalizedAdjacency;
use crate::models::block::{
    combine_backward, combine_blocks, transform_blocks, Band, BlockScratch, Output, ROW_BLOCK,
};
use crate::models::{forward_runs, GnnModel, ModelKind, StageInputs, StageOut, StageScratch};
use blockgnn_graph::CsrGraph;
use blockgnn_linalg::Matrix;
use blockgnn_nn::{Compression, ExecMode, Layer, LinearLayer, NnError, Param, Relu};

/// Two-layer GCN: `logits = W₂·Â·ReLU(W₁·Â·X)`.
#[derive(Debug, Clone)]
pub struct Gcn {
    lin1: LinearLayer,
    act1: Relu,
    lin2: LinearLayer,
    /// `Â` coefficients of the graph whose process-unique
    /// [`CsrGraph::instance_id`] is `adj_graph`, set by
    /// [`GnnModel::prepare_graph`] and refilled in place when a call names
    /// another graph, so staged execution skips the per-part
    /// recomputation while a different graph — even one with identical
    /// counts, or one reusing a freed allocation — can never hit stale
    /// coefficients.
    adj: NormalizedAdjacency,
    adj_graph: Option<u64>,
    /// Whether the first layer runs transform-first: prepared for
    /// [`ExecMode::Spectral`] (see the module docs).
    transform_first: bool,
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
            adj: NormalizedAdjacency::default(),
            adj_graph: None,
            transform_first: false,
            scratch: BlockScratch::default(),
        })
    }

    /// Layer `layer`'s aggregate-and-combine kernel in the paper's order:
    /// for each destination row, `Â`-row of `input`
    /// ([`NormalizedAdjacency::write_row`]) into the combiner's input
    /// block, then the combiner (+ ReLU on the hidden layer), through
    /// their training forwards when recording. Needs
    /// [`GnnModel::prepare_graph`] to have run for `graph`.
    fn layer(
        &mut self,
        layer: usize,
        graph: &CsrGraph,
        input: Band,
        rows: impl ExactSizeIterator<Item = usize>,
        out: Output,
    ) {
        let (lin, act) = match layer {
            0 => (&mut self.lin1, Some(&mut *self.act1)),
            1 => (&mut self.lin2, None),
            _ => panic!("GCN has 2 layers, got layer {layer}"),
        };
        assert!(input.nodes() >= graph.num_nodes(), "every node needs an input row");
        assert_eq!(input.width(), lin.in_dim(), "gcn layer input width mismatch");
        assert_eq!(
            self.adj_graph,
            Some(graph.instance_id()),
            "prepare_graph ran for this graph"
        );
        let adj = &self.adj;
        combine_blocks(lin, act, out, &mut self.scratch, rows, |v, z| {
            adj.write_row(graph, input, v, z);
        });
    }

    /// Transform-first stage 0: the `T` rows of `nodes` — `W₁·x` without
    /// the bias, node `v`'s input row at `input.row(v)` — streamed through
    /// the input block.
    fn transform(&mut self, input: Band, nodes: &[u32], out: StageOut) {
        let (width, lin1) = (self.lin1.out_dim(), &mut self.lin1);
        transform_blocks(&mut self.scratch, input, nodes, width, out, |z, y, _| {
            lin1.product_into(z, y);
        });
    }

    /// Transform-first stage 1, `ReLU(Â·T + b₁)` at `rows`: `T` read from
    /// stage 0's node-indexed output, or in place from the call's table,
    /// keyed by feature row, one block of destination rows per read lock,
    /// so a replica filling its own missing rows waits for one block of
    /// this call's aggregation, not all of it.
    fn first_aggregate(
        &self,
        graph: &CsrGraph,
        inputs: StageInputs,
        rows: &[u32],
        mut out: StageOut,
    ) {
        let Some(table) = inputs.table else {
            return self.first_rows_into(
                graph,
                Band::whole(&inputs.below[0]),
                0,
                rows,
                &mut out,
            );
        };
        for (at, block) in (0..rows.len()).step_by(ROW_BLOCK).zip(rows.chunks(ROW_BLOCK)) {
            let slab = table.read();
            let t = Band::with_index(slab.rows(), inputs.index);
            self.first_rows_into(graph, t, at, block, &mut out);
        }
    }

    /// The transform-first layer 1's one kernel: for each destination row
    /// `v` of `rows` — the call's rows `first..` — the `Â`-row of `t`
    /// (node `u`'s `T` row at `t.row(u)`, [`NormalizedAdjacency::write_row`]),
    /// plus `b₁`, through ReLU, into the row `out` puts it. Needs
    /// [`GnnModel::prepare_graph`] to have run for `graph`.
    fn first_rows_into(
        &self,
        graph: &CsrGraph,
        t: Band,
        first: usize,
        rows: &[u32],
        out: &mut StageOut,
    ) {
        assert_eq!(
            self.adj_graph,
            Some(graph.instance_id()),
            "prepare_graph ran for this graph"
        );
        let width = self.lin1.out_dim();
        let bias = self.lin1.bias();
        for (i, &v) in rows.iter().enumerate() {
            let orow = out.row_mut(first + i, v as usize, width);
            self.adj.write_row(graph, t, v as usize, orow);
            for (o, b) in orow.iter_mut().zip(bias) {
                *o += b;
            }
            self.act1.apply_in_place(orow);
        }
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
        let nodes = graph.num_nodes();
        assert_eq!(features.rows(), nodes, "feature rows must equal node count");
        if !train {
            self.act1.clear_cached();
            return forward_runs(&mut [self], graph, features, &[nodes]);
        }
        // Reuse the instance-id-keyed coefficients across requests.
        self.prepare_graph(graph);
        let (mut h1, mut logits) = (Matrix::default(), Matrix::default());
        self.layer(0, graph, Band::whole(features), 0..nodes, Output::Recorded(&mut h1));
        self.layer(1, graph, Band::whole(&h1), 0..nodes, Output::Recorded(&mut logits));
        logits
    }

    fn backward(&mut self, graph: &CsrGraph, grad_logits: &Matrix) -> Matrix {
        // Reuse the coefficients the preceding forward cached for this
        // graph (instance-id keyed, so never stale).
        self.prepare_graph(graph);
        let adj = &self.adj;
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
        // pass, and one per stage call) cost O(1).
        if self.adj_graph != Some(graph.instance_id()) {
            self.adj.refill(graph);
            self.adj_graph = Some(graph.instance_id());
        }
    }

    fn prepare(&mut self, mode: ExecMode) {
        self.visit_linear_layers(&mut |l| l.prepare(mode));
        self.transform_first = mode == ExecMode::Spectral;
    }

    fn clear_prepared(&mut self) {
        self.visit_linear_layers(&mut LinearLayer::clear_prepared);
        self.transform_first = false;
    }

    fn row_table_width(&self) -> Option<usize> {
        self.transform_first.then(|| self.lin1.out_dim())
    }

    // GCN's aggregator has no weights, so each layer in the paper's order
    // is a single row-parallel stage: `Â`-rows then the combiner matvec,
    // reading the previous stage's matrix only at `N(v) ∪ {v}`. A
    // transform-first layer 1 is two: node-local `T` rows, then their
    // `Â`-rows.
    fn num_stages(&self) -> usize {
        2 + usize::from(self.transform_first)
    }

    fn stage_width(&self, stage: usize, _feature_dim: usize) -> usize {
        let last = self.num_stages() - 1;
        assert!(stage <= last, "GCN has {} stages, got stage {stage}", last + 1);
        if stage == last {
            self.lin2.out_dim()
        } else {
            self.lin1.out_dim()
        }
    }

    /// A transform-first stage 0 is node-local.
    fn stage_reads_neighbors(&self, stage: usize) -> bool {
        !(self.transform_first && stage == 0)
    }

    fn forward_stage(
        &mut self,
        stage: usize,
        graph: &CsrGraph,
        inputs: StageInputs<'_>,
        rows: &[u32],
        out: StageOut<'_>,
    ) {
        // Idempotent: a hit on the instance-id key is O(1), so callers
        // that never prepared explicitly still pay the normalization
        // build only once per graph.
        self.prepare_graph(graph);
        let last = self.num_stages() - 1;
        let features = Band::with_index(inputs.features, inputs.index);
        let listed = rows.iter().map(|&v| v as usize);
        match stage {
            0 if self.transform_first => self.transform(features, rows, out),
            1 if self.transform_first => self.first_aggregate(graph, inputs, rows, out),
            0 => self.layer(0, graph, features, listed, Output::Rows(out)),
            _ if stage == last => {
                let input = Band::whole(&inputs.below[stage - 1]);
                self.layer(1, graph, input, listed, Output::Rows(out));
            }
            _ => panic!("GCN has {} stages, got stage {stage}", last + 1),
        }
    }

    fn stage_scratch(&mut self) -> Option<&mut StageScratch> {
        Some(&mut self.scratch.stage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{SampledBlock, UniverseBuilder, KEPT_SCRATCH_BYTES};
    use crate::models::testutil::{
        chain_stages, check_model_gradients, hub_graph, tiny_features, tiny_graph,
    };
    use crate::table::RowTable;
    use std::sync::Barrier;

    /// The answers a transform-first GCN gives on one graph by every
    /// route, the fullest last: a sampled universe's
    /// `forward_at_indexed`, the same at a few rows and at every row (the
    /// three that read `table`), shards of stages and a full forward.
    fn every_route(
        model: &mut Gcn,
        g: &CsrGraph,
        x: &Matrix,
        table: Option<&RowTable>,
    ) -> Vec<Matrix> {
        let n = g.num_nodes() as u32;
        let blocks = [[3usize, 90, 3], [n as usize - 1, 40, 41]];
        let mut builder = UniverseBuilder::default();
        let universe = builder
            .build(g, blocks.iter().map(|nodes| SampledBlock { nodes, s1: 4, s2: 3, seed: 5 }));
        let (index, rows) = (Some(universe.local_to_global), universe.rows);
        let sampled = model.forward_at_indexed(universe.graph, x, index, rows, table);
        let at = model.forward_at_indexed(g, x, None, &[0, n - 1, n / 2, 0, 7], table);
        let every: Vec<u32> = (0..n).collect();
        let every = model.forward_at_indexed(g, x, None, &every, table);
        let (a, b): (Vec<u32>, Vec<u32>) = (0..n).rev().partition(|v| v % 3 == 1);
        let staged = chain_stages(model, g, x, &[a, b]);
        vec![sampled, at, every, staged, model.forward(g, x, false)]
    }

    fn bits(answers: &[Matrix]) -> Vec<Vec<u64>> {
        answers.iter().map(|m| m.as_slice().iter().map(|v| v.to_bits()).collect()).collect()
    }

    /// A GCN prepared for the Spectral backend on a 130-node hub graph,
    /// with what it answers on every route with no table.
    fn spectral_gcn() -> (Gcn, CsrGraph, Matrix, Vec<Vec<u64>>) {
        let (g, x) = (hub_graph(130), tiny_features(130, 20));
        let compression = Compression::BlockCirculant { block_size: 4 };
        let mut model = Gcn::new(20, 12, 5, compression, 7).unwrap();
        model.prepare(ExecMode::Spectral);
        assert_eq!(model.row_table_width(), Some(12));
        let want = bits(&every_route(&mut model, &g, &x, None));
        (model, g, x, want)
    }

    #[test]
    fn absent_table_rows_are_never_read() {
        // Every row the table lacks is NaN before the routes run: a route
        // reading one would answer NaN. Cold, each tabled route fills what
        // it reads and the next reads some of those, the every-row route
        // last; warm, every tabled route finds the table full. The
        // full-graph routes take no table.
        let (mut model, g, x, want) = spectral_gcn();
        let table = RowTable::new(130, 12).expect("fits");
        for pass in ["cold", "warm"] {
            table.poison_absent_rows();
            assert_eq!(bits(&every_route(&mut model, &g, &x, Some(&table))), want, "{pass}");
            assert_eq!(
                table.rows_present(),
                130,
                "{pass}: the every-row route fills every row"
            );
        }
    }

    #[test]
    fn first_layer_lists_past_the_bound_are_released() {
        // A list of missing rows a huge universe left (reserved, never
        // touched) goes after the next call with the rest of the stage
        // scratch; a small call then keeps its own, and both answer as
        // before. Each pass fills a fresh table, so each lists the rows it
        // lacks.
        let (mut model, g, x, want) = spectral_gcn();
        let n = g.num_nodes() as u32;
        let rows = [0, n - 1, n / 2, 0, 7];
        model.scratch.stage.missing.reserve(KEPT_SCRATCH_BYTES / 4 + 1);
        assert!(model.scratch_bytes() > KEPT_SCRATCH_BYTES);
        for (pass, released) in [("released", true), ("kept", false)] {
            let table = RowTable::new(130, 12).expect("fits");
            let got = model.forward_at_indexed(&g, &x, None, &rows, Some(&table));
            assert_eq!(bits(&[got])[0], want[1], "{pass}");
            let kept = model.scratch_bytes();
            assert_eq!(kept == 0, released, "{pass}: {kept} bytes");
            assert!(kept < KEPT_SCRATCH_BYTES, "{pass}");
            assert_eq!(model.scratch.stage.missing.is_empty(), released, "{pass}");
        }
    }

    #[test]
    fn four_forks_filling_one_cold_table_answer_as_computing_every_row() {
        // A 1 000-node ring with chords 7 apart, so each batch's two-hop
        // closure is a few dozen rows. Four forks serve distinct batches of
        // two sampled blocks on threads, filling and reading one shared
        // cold table at once; their targets sit 5 apart, so their closures
        // overlap and forks compute some of the same rows.
        let n = 1_000;
        let edges: Vec<(usize, usize)> =
            (0..n).flat_map(|v| [(v, (v + 1) % n), (v, (v + 7) % n)]).collect();
        let g = CsrGraph::from_edges(n, &edges, true).unwrap();
        let x = tiny_features(n, 20);
        let compression = Compression::BlockCirculant { block_size: 4 };
        let mut model = Gcn::new(20, 12, 5, compression, 7).unwrap();
        model.prepare(ExecMode::Spectral);
        let batches: Vec<Vec<[Vec<usize>; 2]>> = (0..4)
            .map(|fork| {
                (0..6)
                    .map(|b| {
                        let at = |k: usize| (fork * 5 + b * 157 + k * 389) % n;
                        [vec![at(0), at(1)], vec![at(2), at(0)]]
                    })
                    .collect()
            })
            .collect();
        let sample = |builder: &mut UniverseBuilder, blocks: &[Vec<usize>; 2]| {
            let blocks =
                blocks.iter().map(|nodes| SampledBlock { nodes, s1: 4, s2: 3, seed: 9 });
            let universe = builder.build(&g, blocks);
            let index = universe.local_to_global.to_vec();
            (universe.graph.clone(), index, universe.rows.to_vec())
        };
        // The no-table oracle, and the feature rows each batch's stage-0
        // list names.
        let mut oracle = model.clone_boxed();
        let (mut builder, mut named) = (UniverseBuilder::default(), vec![false; n]);
        let mut want = Vec::new();
        for blocks in batches.iter().flatten() {
            let (graph, index, rows) = sample(&mut builder, blocks);
            for &v in &oracle.stage_rows(&graph, &rows)[0] {
                named[index[v as usize] as usize] = true;
            }
            want.push(bits(&[oracle.forward_at_indexed(
                &graph,
                &x,
                Some(&index),
                &rows,
                None,
            )]));
        }
        let named = named.iter().filter(|&&named| named).count();
        assert!(named < n, "the table never fills: every call lists its stage 0");

        let table = RowTable::new(n, 12).expect("fits");
        let start = Barrier::new(batches.len());
        let got: Vec<Vec<Vec<u64>>> = std::thread::scope(|scope| {
            let forks: Vec<_> = batches
                .iter()
                .map(|mine| {
                    let (mut fork, x, table, start) = (model.clone_boxed(), &x, &table, &start);
                    scope.spawn(move || {
                        let mut builder = UniverseBuilder::default();
                        start.wait();
                        let answer = |blocks| {
                            let (graph, index, rows) = sample(&mut builder, blocks);
                            let got = fork.forward_at_indexed(
                                &graph,
                                x,
                                Some(&index),
                                &rows,
                                Some(table),
                            );
                            bits(&[got])
                        };
                        mine.iter().map(answer).collect::<Vec<_>>()
                    })
                })
                .collect();
            forks.into_iter().flat_map(|fork| fork.join().expect("no fork panics")).collect()
        });
        assert_eq!(got, want, "every fork answers as computing every row");
        assert_eq!(table.rows_present(), named, "the forks filled exactly the rows named");
    }

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

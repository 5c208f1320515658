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
//! order, and tests pin each of them: `tests/model_fingerprint.rs` the
//! training bits, the wire and telemetry transcripts the Dense backend's
//! hex logits, and `tests/engine_api.rs`'s hand-wired Q16.16 oracle the
//! accelerator's.
//!
//! Prepared for [`ExecMode::Spectral`], the first layer combines first:
//! `h₁ = ReLU(Â·T + b₁)` with `T = X·W₁`, computed without the bias. It is
//! the same map rounded in a different order. The aggregation then runs
//! at the hidden width instead of the input width (the per-layer order
//! choice of VersaGNN and GNNIE, PAPERS.md), and row `u` of `T` depends
//! only on node `u`'s features, so the serving engine keeps `T` in one
//! [`RowTable`] per graph version and a request transforms only the rows
//! no earlier request read. Every route of the prepared model — a full
//! `forward`, `forward_stage` (so `forward_at_indexed`) and the widened
//! pass — reads `T` rows through one kernel,
//! `Gcn::first_rows_into`, whether they come from a table or are
//! computed for the call, so the routes agree bit for bit. The second
//! layer keeps the paper's order everywhere.

use crate::adjacency::NormalizedAdjacency;
use crate::batch::KEPT_SCRATCH_BYTES;
use crate::models::block::{
    combine_backward, combine_blocks, transform_blocks, Band, BlockScratch, Output, ROW_BLOCK,
};
use crate::models::{
    fit_rows, staged_pass, widen, GnnModel, ModelKind, StageInputs, StageOut, StageScratch,
};
use crate::table::RowTable;
use blockgnn_graph::CsrGraph;
use blockgnn_linalg::Matrix;
use blockgnn_nn::{Compression, ExecMode, Layer, LinearLayer, NnError, Param, Relu};
use std::sync::Arc;

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
    /// The graph version's `T` rows the serving engine attached, if any.
    table: Option<Arc<RowTable>>,
    /// Block buffer of the inference pass: `Â·H` exists one block of
    /// destination rows at a time, as the combiner's input.
    scratch: BlockScratch,
    /// The transform-first layer's reused buffers.
    first: FirstScratch,
}

/// What the transform-first layer reuses from call to call: the nodes
/// whose `T` rows a call reads, those a table lacks, [`widen`]'s marks,
/// the node-indexed `T` rows computed when no table is attached, and the
/// block a table's missing rows are transformed into. Clones empty;
/// released after a call that leaves it past [`KEPT_SCRATCH_BYTES`], as
/// [`GnnModel::forward_at_indexed`] releases its stage scratch.
#[derive(Debug, Default)]
struct FirstScratch {
    sources: Vec<u32>,
    missing: Vec<u32>,
    marks: Vec<bool>,
    t: Matrix,
    block: Vec<f64>,
}

impl Clone for FirstScratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl FirstScratch {
    /// Lists the nodes whose `T` rows destination `rows` read — each row
    /// and its neighbours, once. A list at least as long as the graph (a
    /// full pass) reads every node, which is listed walking no arc.
    fn list_sources(&mut self, graph: &CsrGraph, rows: &[u32]) {
        let nodes = graph.num_nodes();
        if rows.len() >= nodes {
            self.sources.clear();
            self.sources.extend(0..nodes as u32);
        } else {
            widen(graph, rows, true, &mut self.marks, &mut self.sources);
        }
    }

    /// Bytes of everything kept.
    fn bytes(&self) -> usize {
        let lists = self.sources.capacity() + self.missing.capacity();
        lists * 4 + self.marks.capacity() + (self.t.capacity() + self.block.capacity()) * 8
    }
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
            table: None,
            scratch: BlockScratch::default(),
            first: FirstScratch::default(),
        })
    }

    /// Layer `stage`'s aggregate-and-combine kernel: for each
    /// destination row, `Â`-row of `input` ([`NormalizedAdjacency::write_row`])
    /// into the combiner's input block, then the combiner (+ ReLU on the
    /// hidden layer), through their training forwards when recording.
    /// Needs [`GnnModel::prepare_graph`] to have run for `graph`.
    fn layer(
        &mut self,
        stage: usize,
        graph: &CsrGraph,
        input: Band,
        rows: impl ExactSizeIterator<Item = usize>,
        out: Output,
    ) {
        let (lin, act) = match stage {
            0 => (&mut self.lin1, Some(&mut *self.act1)),
            1 => (&mut self.lin2, None),
            _ => panic!("GCN has 2 stages, got stage {stage}"),
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

    /// Layer 1 at `rows`: the rest of the paper's order, or
    /// transform-first when prepared for it. Node `v`'s feature row is
    /// `features.row(index[v])` with `index`, else `features.row(v)`.
    fn first_layer(
        &mut self,
        graph: &CsrGraph,
        features: &Matrix,
        index: Option<&[u32]>,
        rows: &[u32],
        mut out: StageOut,
    ) {
        let input = Band::with_index(features, index);
        if !self.transform_first {
            let rows = rows.iter().map(|&v| v as usize);
            return self.layer(0, graph, input, rows, Output::Rows(out));
        }
        let mut first = std::mem::take(&mut self.first);
        match self.table.clone() {
            Some(table) => {
                self.first_layer_tabled(&table, graph, features, index, rows, &mut first, out);
            }
            None => {
                first.list_sources(graph, rows);
                fit_rows(&mut first.t, graph.num_nodes(), self.lin1.out_dim());
                self.transform(
                    input,
                    &first.sources,
                    StageOut::by_node(first.t.as_mut_slice()),
                );
                self.first_rows_into(graph, Band::whole(&first.t), 0, rows, &mut out);
            }
        }
        self.keep_first(first);
    }

    /// The `T` rows of `nodes` — `W₁·x` without the bias, node `v`'s
    /// input row at `input.row(v)` — streamed through the input block.
    fn transform(&mut self, input: Band, nodes: &[u32], out: StageOut) {
        let (width, lin1) = (self.lin1.out_dim(), &mut self.lin1);
        transform_blocks(&mut self.scratch, input, nodes, width, out, |z, y, _| {
            lin1.product_into(z, y);
        });
    }

    /// Keeps `first` for the next call unless it has grown past
    /// [`KEPT_SCRATCH_BYTES`].
    fn keep_first(&mut self, first: FirstScratch) {
        if first.bytes() <= KEPT_SCRATCH_BYTES {
            self.first = first;
        }
    }

    /// Transforms the `T` rows of `nodes` (node `v`'s feature row through
    /// `index`, as in [`Gcn::first_layer`]) a block at a time into `block`
    /// outside `table`'s lock, and writes each block under a short write
    /// lock.
    fn fill(
        &mut self,
        table: &RowTable,
        features: &Matrix,
        index: Option<&[u32]>,
        nodes: &[u32],
        block: &mut Vec<f64>,
    ) {
        let key = |v: u32| index.map_or(v, |index| index[v as usize]) as usize;
        let input = Band::with_index(features, index);
        let width = table.width();
        for chunk in nodes.chunks(ROW_BLOCK) {
            block.resize(chunk.len() * width, 0.0);
            self.transform(input, chunk, StageOut::listed(block));
            let mut slab = table.write();
            for (row, &v) in block.chunks(width).zip(chunk) {
                slab.put(key(v), row);
            }
        }
    }

    /// Transform-first layer 1 reading `T` rows from `table`, keyed by
    /// feature row. Rows the table lacks are filled first
    /// ([`Gcn::fill`]); a call that finds the table full walks no row, and
    /// one whose rows are all present lists no sources. Then every row is
    /// read in place, one block of destination rows per read lock, so a
    /// replica filling its own missing rows waits for one block of this
    /// call's aggregation, not all of it.
    #[allow(clippy::too_many_arguments)]
    fn first_layer_tabled(
        &mut self,
        table: &RowTable,
        graph: &CsrGraph,
        features: &Matrix,
        index: Option<&[u32]>,
        rows: &[u32],
        first: &mut FirstScratch,
        mut out: StageOut,
    ) {
        assert_eq!(features.rows(), table.nodes(), "the table holds these features' rows");
        let key = |v: u32| index.map_or(v, |index| index[v as usize]) as usize;
        first.missing.clear();
        {
            let slab = table.read();
            let present = |v: &u32| slab.has(key(*v));
            let complete = slab.rows_present() == table.nodes()
                || rows
                    .iter()
                    .all(|&v| present(&v) && graph.neighbors(v as usize).iter().all(present));
            if !complete {
                first.list_sources(graph, rows);
                first.missing.extend(first.sources.iter().filter(|v| !present(v)));
            }
        }
        self.fill(table, features, index, &first.missing, &mut first.block);
        for (at, block) in (0..rows.len()).step_by(ROW_BLOCK).zip(rows.chunks(ROW_BLOCK)) {
            let slab = table.read();
            let t = Band::with_index(slab.rows(), index);
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
            return staged_pass(self, graph, features, None, None);
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
        copy.table = None;
        Box::new(copy)
    }

    fn prepare_graph(&mut self, graph: &CsrGraph) {
        // Idempotent: repeat preparations for the same graph (one per
        // request in the parallel scheduler) cost O(1).
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
        self.table = None;
    }

    fn row_table_width(&self) -> Option<usize> {
        self.transform_first.then(|| self.lin1.out_dim())
    }

    fn attach_row_table(&mut self, table: Option<Arc<RowTable>>) {
        self.table = table;
    }

    fn fill_row_table(&mut self, features: &Matrix, rows: &[u32]) {
        let Some(table) = self.table.clone() else { return };
        assert_eq!(features.rows(), table.nodes(), "the table holds these features' rows");
        let mut first = std::mem::take(&mut self.first);
        first.missing.clear();
        {
            let slab = table.read();
            first.missing.extend(rows.iter().filter(|&&v| !slab.has(v as usize)));
        }
        self.fill(&table, features, None, &first.missing, &mut first.block);
        self.keep_first(first);
    }

    // GCN's aggregator has no weights, so each layer is a single
    // row-parallel stage: `Â`-rows then the combiner matvec (or, for a
    // transform-first layer 1, `T` rows then `Â`-rows). Stage `s` reads
    // the full previous hidden matrix only at `N(v) ∪ {v}`.
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
        inputs: StageInputs<'_>,
        rows: &[u32],
        out: StageOut<'_>,
    ) {
        // Idempotent: a hit on the instance-id key is O(1), so callers
        // that never prepared explicitly still pay the normalization
        // build only once per graph.
        self.prepare_graph(graph);
        if stage == 0 {
            return self.first_layer(graph, inputs.features, inputs.index, rows, out);
        }
        let rows = rows.iter().map(|&v| v as usize);
        self.layer(stage, graph, Band::whole(&inputs.below[0]), rows, Output::Rows(out));
    }

    fn stage_scratch(&mut self) -> Option<&mut StageScratch> {
        Some(&mut self.scratch.stage)
    }

    fn scratch_bytes(&mut self) -> usize {
        self.scratch.stage.bytes() + self.first.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{SampledBlock, UniverseBuilder};
    use crate::models::testutil::{
        chain_stages, check_model_gradients, hub_graph, tiny_features, tiny_graph,
    };

    /// The answers a transform-first GCN gives on one graph by every
    /// route, the fullest last: a sampled universe's
    /// `forward_at_indexed`, `forward_at`, shards of stages and a full
    /// forward.
    fn every_route(model: &mut Gcn, g: &CsrGraph, x: &Matrix) -> Vec<Matrix> {
        let n = g.num_nodes() as u32;
        let blocks = [[3usize, 90, 3], [n as usize - 1, 40, 41]];
        let mut builder = UniverseBuilder::default();
        let universe = builder
            .build(g, blocks.iter().map(|nodes| SampledBlock { nodes, s1: 4, s2: 3, seed: 5 }));
        let sampled = model.forward_at_indexed(
            universe.graph,
            x,
            Some(universe.local_to_global),
            universe.rows,
        );
        let at = model.forward_at(g, x, &[0, n - 1, n / 2, 0, 7]);
        let (a, b): (Vec<u32>, Vec<u32>) = (0..n).rev().partition(|v| v % 3 == 1);
        let staged = chain_stages(model, g, x, &[a, b]);
        vec![sampled, at, staged, model.forward(g, x, false)]
    }

    fn bits(answers: &[Matrix]) -> Vec<Vec<u64>> {
        answers.iter().map(|m| m.as_slice().iter().map(|v| v.to_bits()).collect()).collect()
    }

    /// A GCN prepared for the Spectral backend on a 130-node hub graph,
    /// with what it answers on every route with no table attached.
    fn spectral_gcn() -> (Gcn, CsrGraph, Matrix, Vec<Vec<u64>>) {
        let (g, x) = (hub_graph(130), tiny_features(130, 20));
        let compression = Compression::BlockCirculant { block_size: 4 };
        let mut model = Gcn::new(20, 12, 5, compression, 7).unwrap();
        model.prepare(ExecMode::Spectral);
        assert_eq!(model.row_table_width(), Some(12));
        let want = bits(&every_route(&mut model, &g, &x));
        (model, g, x, want)
    }

    #[test]
    fn absent_table_rows_are_never_read() {
        // Every row the table lacks is NaN before the routes run: a route
        // reading one would answer NaN. Cold, each route fills what it
        // reads and the next reads some of those; warm, every route reads
        // rows a full forward filled.
        let (mut model, g, x, want) = spectral_gcn();
        let table = Arc::new(RowTable::new(130, 12).expect("fits"));
        model.attach_row_table(Some(Arc::clone(&table)));
        for pass in ["cold", "warm"] {
            table.poison_absent_rows();
            assert_eq!(bits(&every_route(&mut model, &g, &x)), want, "{pass}");
            assert_eq!(table.rows_present(), 130, "{pass}: a full forward fills every row");
        }
    }

    #[test]
    fn filling_a_part_computes_its_own_rows_and_no_halo() {
        // What a widened pass runs before stage 0: each part's own rows,
        // so no two workers compute one row.
        let (mut model, g, x, want) = spectral_gcn();
        let table = Arc::new(RowTable::new(130, 12).expect("fits"));
        model.attach_row_table(Some(Arc::clone(&table)));
        let (evens, odds): (Vec<u32>, Vec<u32>) = (0..130).partition(|v| v % 2 == 0);
        model.fill_row_table(&x, &evens);
        assert_eq!(table.rows_present(), 65);
        assert!(evens.iter().all(|&v| table.read().has(v as usize)));
        model.fill_row_table(&x, &odds);
        assert_eq!(table.rows_present(), 130);
        assert_eq!(bits(&every_route(&mut model, &g, &x)), want);
        model.attach_row_table(None);
        model.fill_row_table(&x, &evens);
    }

    #[test]
    fn first_layer_lists_past_the_bound_are_released() {
        // Lists a huge universe left (reserved, never touched) go after
        // the next call; a small call then keeps its own, and both answer
        // as before.
        let (mut model, g, x, want) = spectral_gcn();
        let n = g.num_nodes() as u32;
        let rows = [0, n - 1, n / 2, 0, 7];
        model.first.sources.reserve(KEPT_SCRATCH_BYTES / 4);
        assert!(model.first.bytes() > KEPT_SCRATCH_BYTES);
        for pass in ["released", "kept"] {
            assert_eq!(bits(&[model.forward_at(&g, &x, &rows)])[0], want[1], "{pass}");
            let kept = model.first.bytes() + model.scratch_bytes();
            assert!(kept > 0 && kept < KEPT_SCRATCH_BYTES, "{pass}: {kept} bytes");
        }
        assert_eq!(model.scratch_bytes(), model.scratch.stage.bytes() + model.first.bytes());
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

//! The model zoo: GCN, GS-Pool, G-GCN, GAT (Table I).

mod block;
mod gat;
pub mod gcn;
mod ggcn;
mod gs_pool;

pub use gcn::Gcn;

use crate::table::RowTable;
pub(crate) use block::Band;
use block::BlockScratch;
use blockgnn_graph::CsrGraph;
use blockgnn_linalg::Matrix;
use blockgnn_nn::{Compression, ExecMode, LinearLayer, NnError, Param};
use gat::Gat;
use ggcn::Ggcn;
use gs_pool::GsPool;
use std::fmt;
use std::sync::Arc;

/// Which of the paper's four GNN algorithms a model implements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Graph Convolutional Network (Kipf & Welling).
    #[default]
    Gcn,
    /// GraphSAGE with the max-pooling aggregator.
    GsPool,
    /// Gated GCN (Marcheggiani & Titov).
    Ggcn,
    /// Graph Attention Network (Veličković et al.).
    Gat,
}

impl ModelKind {
    /// All four kinds in the paper's presentation order.
    #[must_use]
    pub fn all() -> [ModelKind; 4] {
        [ModelKind::Gcn, ModelKind::GsPool, ModelKind::Ggcn, ModelKind::Gat]
    }

    /// The paper's display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Gcn => "GCN",
            ModelKind::GsPool => "GS-Pool",
            ModelKind::Ggcn => "G-GCN",
            ModelKind::Gat => "GAT",
        }
    }

    /// Whether the aggregation phase contains learnable weight matrices
    /// (everything except GCN — the property behind Table II's profile
    /// and the paper's observation that GCN benefits least from
    /// compression).
    #[must_use]
    pub fn has_weighted_aggregation(&self) -> bool {
        !matches!(self, ModelKind::Gcn)
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A two-layer GNN for full-batch node classification.
///
/// `forward` produces per-node logits; `backward` takes `∂L/∂logits`,
/// accumulates parameter gradients, and returns `∂L/∂features`.
///
/// # Staged row-parallel inference
///
/// Every model runs inference as a sequence of *row-parallel stages*
/// ([`GnnModel::num_stages`] / [`GnnModel::forward_stage`]): stage `s`
/// computes any subset of its output rows from the features and the
/// node-indexed outputs of the stages below it ([`StageInputs`]). Within
/// a stage, rows are independent — each target row reads those matrices
/// only at its own row and, if [`GnnModel::stage_reads_neighbors`], at its
/// neighbours — so a scheduler can shard a stage's rows across worker
/// threads and barrier between stages, and [`GnnModel::forward_at`] can
/// leave every row no later stage reads uncomputed. This is the one
/// inference body: `forward(graph, features, false)` runs every stage
/// over every row, and the contract is *bit-exactness* — any shard of a
/// stage's rows gets the bits the full pass gives them, which is what
/// makes partition-parallel serving indistinguishable from the
/// sequential path. Models split each GNN layer at its natural seam: a
/// node-local transform stage (gate/pool/attention projections — no
/// neighbor reads, zero halo) followed by an aggregate-and-combine stage
/// that reads the transform at `N(v) ∪ {v}` (a one-hop halo) and the
/// layer's own input beside it. The aggregate-and-combine stage and the
/// training forward run the same per-layer block kernel, so they cannot
/// drift. A GCN prepared for [`ExecMode::Spectral`] runs its first layer
/// transform-first, in the same two stages (see [`gcn`]).
///
/// # What an inference pass materialises
///
/// Each stage streams its rows through 64-row blocks: a block of
/// destination rows is aggregated straight into the combiner's input,
/// combined, activated in place and written where its rows belong, in
/// block-size buffers the model reuses across stages and requests
/// (cloned *empty* by [`GnnModel::clone_boxed`]). Full-size — one row
/// per node — are only each stage's output, kept by the model from call
/// to call ([`GnnModel::stage_buffers`]), and the logits:
///
/// * **GCN** — the hidden layer; `Â·H` exists a block at a time. Prepared
///   for [`ExecMode::Spectral`], also `T = X·W₁`, read by the aggregation,
///   or, with a [`RowTable`] attached (sampled batches only), the rows of
///   it the table lacks, put there instead.
/// * **GS-Pool** — `t = ReLU(W_pool·h)`, read by the max-pool.
/// * **G-GCN** — the gate terms `[p ‖ q]`, `p = W_H·h` (read per source)
///   and `q = W_C·h` (per target).
/// * **GAT** — two attention scores per node and head (each head's
///   projection `W·h` exists a block at a time).
///
/// and, for the two-layer kinds, the hidden layer. A warm full pass
/// allocates only its logits. Nothing `backward` reads (max-pool winners,
/// gates, attention logits and weights, input or activation snapshots) is
/// recorded, and what a previous training forward left is dropped.
/// `forward(.., true)` runs the same kernels with all rows as one block —
/// a full-size combiner input — and records all of it; its bits are the
/// inference pass's, and `tests/model_fingerprint.rs` pins them.
pub trait GnnModel: Send {
    /// Which algorithm this is.
    fn kind(&self) -> ModelKind;

    /// Width of the hidden representation (the first layer's output) —
    /// the per-layer dimension the hardware workload models charge with.
    fn hidden_dim(&self) -> usize;

    /// Full-batch forward pass over all nodes: with `train`, the
    /// recording forward `backward` follows; without, every inference
    /// stage over every row.
    fn forward(&mut self, graph: &CsrGraph, features: &Matrix, train: bool) -> Matrix;

    /// Backward pass; must follow a `forward` on the same graph/features.
    fn backward(&mut self, graph: &CsrGraph, grad_logits: &Matrix) -> Matrix;

    /// Visits all trainable parameters in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Visits every weight-matrix layer in a stable order — the hook the
    /// serving engine uses to [`LinearLayer::prepare`] a trained model
    /// for an execution backend, or to export circulant weights for
    /// accelerator deployment.
    fn visit_linear_layers(&mut self, f: &mut dyn FnMut(&mut LinearLayer));

    /// Deep-copies the model behind a fresh box. Prepared layers share
    /// their frozen weights/spectra across copies (they live behind an
    /// `Arc`), which is how the parallel serving engine forks one
    /// backend replica per worker without duplicating the model.
    fn clone_boxed(&self) -> Box<dyn GnnModel>;

    /// Staged-inference hook: precomputes per-graph state the stages
    /// reuse (e.g. GCN's degree normalization, an `O(n)` pass otherwise
    /// repeated per part per stage). A staged scheduler calls this once
    /// per request, before fanning [`GnnModel::forward_stage`] calls
    /// out; callers must re-prepare before switching graphs.
    /// `forward_stage` stays correct (just slower) if this was never
    /// called. Models without per-graph precomputation ignore it.
    fn prepare_graph(&mut self, _graph: &CsrGraph) {}

    /// Number of row-parallel inference stages (see the trait docs):
    /// at least one, since the last stage produces the logits.
    fn num_stages(&self) -> usize;

    /// Output width (columns) of stage `stage`, given the width of the
    /// input feature matrix. The final stage's width is the number of
    /// classes.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= num_stages()`.
    fn stage_width(&self, stage: usize, feature_dim: usize) -> usize;

    /// Computes stage `stage`'s output rows for target nodes `rows`,
    /// writing each where `out` puts it, [`GnnModel::stage_width`] wide.
    /// It reads `inputs` only at rows below the graph's node count, so
    /// kept buffers taller than this graph serve. Inference-only (no
    /// backward caches are maintained for the training path).
    ///
    /// # Panics
    ///
    /// Panics if `stage >= num_stages()`, `inputs` lacks a stage below
    /// this one or has too few rows or the wrong widths, a target id is
    /// out of range, or `out` is too short for the rows it puts.
    fn forward_stage(
        &mut self,
        stage: usize,
        graph: &CsrGraph,
        inputs: StageInputs<'_>,
        rows: &[u32],
        out: StageOut<'_>,
    );

    /// What [`GnnModel::forward_at`] keeps from call to call. `None`, the
    /// default, makes it allocate per call.
    fn stage_scratch(&mut self) -> Option<&mut StageScratch> {
        None
    }

    /// The node-indexed stage matrices of [`GnnModel::stage_scratch`],
    /// grown and never zeroed.
    fn stage_buffers(&mut self) -> Option<&mut Vec<Matrix>> {
        self.stage_scratch().map(|scratch| &mut scratch.stages)
    }

    /// Bytes of the inference buffers this model keeps from call to
    /// call: its [`GnnModel::stage_scratch`], and what a transform-first
    /// GCN keeps for filling a table. Each part is released after a call that
    /// leaves it past [`crate::batch::KEPT_SCRATCH_BYTES`].
    fn scratch_bytes(&mut self) -> usize {
        self.stage_scratch().map_or(0, |scratch| scratch.bytes())
    }

    /// Width of the node-local rows this prepared model reads from a
    /// [`RowTable`] when one is attached, or `None` (the default) when it
    /// reads none. A GCN prepared for [`ExecMode::Spectral`] reads its
    /// first layer's `T = X·W₁` rows.
    fn row_table_width(&self) -> Option<usize> {
        None
    }

    /// Reads node-local rows from `table` until the next call, or, with
    /// `None`, computes them per call into a stage matrix. The table
    /// belongs to one graph version and is keyed by the rows of its
    /// feature matrix, so the calls made while it is attached must pass
    /// that matrix: the serving engine attaches its epoch's table around
    /// each sampled batch on the epoch's features and detaches it after.
    /// Models that read no such rows ignore it.
    fn attach_row_table(&mut self, _table: Option<Arc<RowTable>>) {}

    /// Whether stage `stage` reads its inputs at a target's graph
    /// neighbours (an aggregation) and not only at the target's own row
    /// (a node-local transform). [`GnnModel::stage_rows`] widens a row
    /// list by one hop below each stage that does. `true`, the default,
    /// is always correct; `false` on a node-local stage spares the stage
    /// below it that hop.
    fn stage_reads_neighbors(&self, _stage: usize) -> bool {
        true
    }

    /// The rows each stage computes when [`GnnModel::forward_at`] is asked
    /// for `rows`, one list per stage. The last stage's list is `rows`
    /// itself, order and duplicates kept. Stage `s − 1`'s list is stage
    /// `s`'s rows, plus their neighbours in `graph` when stage `s` reads
    /// neighbours, sorted and each row once: exactly the rows of its
    /// output that a later stage reads.
    ///
    /// # Panics
    ///
    /// Panics if a row id is out of range for `graph`.
    fn stage_rows(&self, graph: &CsrGraph, rows: &[u32]) -> Vec<Vec<u32>> {
        let mut lists = Vec::new();
        stage_rows_into(self, graph, rows, &mut Vec::new(), &mut lists);
        lists
    }

    /// `forward(graph, features, false)` read at `rows` — one output row
    /// per entry, in order, duplicates allowed — computing each stage only
    /// at its [`GnnModel::stage_rows`] list: the last stage at `rows`, each
    /// earlier one at the rows a later stage reads. Every row is produced
    /// by the same kernel as in the full forward, so the result is
    /// bit-identical to gathering `rows` from it, by the staged contract
    /// above. This is what a sampled request runs: its targets and their
    /// one- and two-hop halos are a fraction of the sub-universe's rows.
    /// The identity-index case of [`GnnModel::forward_at_indexed`].
    ///
    /// # Panics
    ///
    /// Panics if `features` has the wrong shape for `graph` or a row id
    /// is out of range.
    fn forward_at(&mut self, graph: &CsrGraph, features: &Matrix, rows: &[u32]) -> Matrix {
        self.forward_at_indexed(graph, features, None, rows)
    }

    /// [`GnnModel::forward_at`] over a graph whose node `v` has feature
    /// row `features.row(index[v])` (with `index`, else row `v`): a
    /// sampled universe answered from the graph-wide feature matrix, read
    /// in place at stage 0.
    ///
    /// Each earlier stage writes its rows into a node-indexed matrix of
    /// [`GnnModel::stage_buffers`], which is grown and never zeroed: later
    /// stages read it only at the rows just written. Matrices that
    /// outgrow [`crate::batch::KEPT_SCRATCH_BYTES`] together are released
    /// before the call returns.
    ///
    /// # Panics
    ///
    /// Panics if `features` (through `index`) has the wrong shape for
    /// `graph` or a row id is out of range.
    fn forward_at_indexed(
        &mut self,
        graph: &CsrGraph,
        features: &Matrix,
        index: Option<&[u32]>,
        rows: &[u32],
    ) -> Matrix {
        staged_pass(self, graph, features, index, Some(rows))
    }

    /// Prepares every linear layer for inference under `mode` (see
    /// [`LinearLayer::prepare`]); the model becomes inference-only until
    /// [`GnnModel::clear_prepared`].
    fn prepare(&mut self, mode: ExecMode) {
        self.visit_linear_layers(&mut |l| l.prepare(mode));
    }

    /// Drops prepared state from every linear layer, restoring
    /// trainability.
    fn clear_prepared(&mut self) {
        self.visit_linear_layers(&mut LinearLayer::clear_prepared);
    }

    /// Zeroes all gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total scalar parameter count.
    fn num_params(&mut self) -> usize {
        let mut total = 0;
        self.visit_params(&mut |p| total += p.len());
        total
    }
}

/// What a stage reads ([`GnnModel::forward_stage`]): the features, and
/// the node-indexed output of every stage below it.
#[derive(Debug, Clone, Copy)]
pub struct StageInputs<'a> {
    /// The feature matrix.
    pub features: &'a Matrix,
    /// Node `v`'s feature row is `features.row(index[v])` with an index
    /// (a sampled universe's local→global ids), else `features.row(v)`.
    pub index: Option<&'a [u32]>,
    /// Stage `k`'s output at `below[k]`, one row per node, for every
    /// stage `k` below the one computed.
    pub below: &'a [Matrix],
}

/// Where [`GnnModel::forward_stage`] writes its output rows, each
/// [`GnnModel::stage_width`] wide: listed — the output of `rows[i]` at
/// row `i` — or by node, node `v`'s at row `v`.
#[derive(Debug)]
pub struct StageOut<'a> {
    rows: &'a mut [f64],
    by_node: bool,
}

impl<'a> StageOut<'a> {
    /// Row `i` of `rows` for the stage's `i`-th row.
    pub fn listed(rows: &'a mut [f64]) -> Self {
        Self { rows, by_node: false }
    }

    /// Row `v` of `rows` for node `v`.
    pub fn by_node(rows: &'a mut [f64]) -> Self {
        Self { rows, by_node: true }
    }

    /// The `width`-wide output row of the stage's `i`-th row, node `v`.
    fn row_mut(&mut self, i: usize, v: usize, width: usize) -> &mut [f64] {
        let at = if self.by_node { v } else { i };
        &mut self.rows[at * width..][..width]
    }

    /// The output rows of the stage's rows `first..`, nodes `nodes`, as
    /// one run when they lie one after another, else `None`.
    fn run_mut(&mut self, first: usize, nodes: &[usize], width: usize) -> Option<&mut [f64]> {
        let start = match nodes.first() {
            Some(&v) if self.by_node => v,
            _ => first,
        };
        (!self.by_node || block::consecutive(nodes))
            .then(|| &mut self.rows[start * width..][..nodes.len() * width])
    }
}

/// What [`GnnModel::forward_at`] reuses from call to call: the
/// node-indexed stage matrices, one row list per stage and the marks the
/// lists are deduplicated with (left all clear between calls).
#[derive(Debug, Default)]
pub struct StageScratch {
    stages: Vec<Matrix>,
    lists: Vec<Vec<u32>>,
    marks: Vec<bool>,
}

impl StageScratch {
    /// Bytes of everything kept.
    pub(crate) fn bytes(&self) -> usize {
        let matrices: usize = self.stages.iter().map(|m| m.capacity() * 8).sum();
        let lists: usize = self.lists.iter().map(|l| l.capacity() * 4).sum();
        matrices + lists + self.marks.capacity()
    }
}

/// [`GnnModel::stage_rows`] into reused `lists` (one per stage after the
/// call), deduplicating through `marks`.
fn stage_rows_into<M: GnnModel + ?Sized>(
    model: &M,
    graph: &CsrGraph,
    rows: &[u32],
    marks: &mut Vec<bool>,
    lists: &mut Vec<Vec<u32>>,
) {
    let last = model.num_stages() - 1;
    lists.resize_with(last + 1, Vec::new);
    lists[last].clear();
    lists[last].extend_from_slice(rows);
    for stage in (1..=last).rev() {
        let (below, above) = lists.split_at_mut(stage);
        let below = &mut below[stage - 1];
        widen(graph, &above[0], model.stage_reads_neighbors(stage), marks, below);
        below.sort_unstable();
    }
}

/// Lists in `out` every row of `rows` and, with `hop`, every neighbour of
/// one in `graph`, each once, in first-seen order. `marks` is grown to the
/// graph's node count and left all clear.
///
/// # Panics
///
/// Panics if a row id is out of range for `graph`.
fn widen(graph: &CsrGraph, rows: &[u32], hop: bool, marks: &mut Vec<bool>, out: &mut Vec<u32>) {
    let nodes = graph.num_nodes();
    if marks.len() < nodes {
        marks.resize(nodes, false);
    }
    out.clear();
    for &v in rows {
        assert!((v as usize) < nodes, "row {v} out of range for {nodes} nodes");
        let halo = if hop { graph.neighbors(v as usize) } else { &[] };
        for u in std::iter::once(v).chain(halo.iter().copied()) {
            if !std::mem::replace(&mut marks[u as usize], true) {
                out.push(u);
            }
        }
    }
    for &u in out.iter() {
        marks[u as usize] = false;
    }
}

/// The staged pass under [`GnnModel::forward_at_indexed`] (`rows`) and
/// every model's inference `forward` (`None`: every stage at every row,
/// `0..n`, listing no arc). Every stage but the last writes by node into
/// its kept matrix of [`GnnModel::stage_scratch`]; the last writes the
/// returned rows, listed.
fn staged_pass<M: GnnModel + ?Sized>(
    model: &mut M,
    graph: &CsrGraph,
    features: &Matrix,
    index: Option<&[u32]>,
    rows: Option<&[u32]>,
) -> Matrix {
    model.prepare_graph(graph);
    let mut scratch = model.stage_scratch().map(std::mem::take).unwrap_or_default();
    let StageScratch { stages: kept, lists, marks } = &mut scratch;
    let nodes = graph.num_nodes();
    match rows {
        Some(rows) => stage_rows_into(model, graph, rows, marks, lists),
        None => {
            lists.resize_with(lists.len().max(1), Vec::new);
            lists[0].clear();
            lists[0].extend(0..nodes as u32);
        }
    }
    let list = |stage: usize| &lists[if rows.is_some() { stage } else { 0 }];
    let last = model.num_stages() - 1;
    let feature_dim = features.cols();
    let inputs = StageInputs { features, index, below: &[] };
    kept.resize_with(last, Matrix::default);
    for stage in 0..last {
        let (below, above) = kept.split_at_mut(stage);
        fit_rows(&mut above[0], nodes, model.stage_width(stage, feature_dim));
        let out = StageOut::by_node(above[0].as_mut_slice());
        model.forward_stage(stage, graph, StageInputs { below, ..inputs }, list(stage), out);
    }
    let at = list(last);
    let mut out = Matrix::zeros(at.len(), model.stage_width(last, feature_dim));
    let inputs = StageInputs { below: kept, ..inputs };
    model.forward_stage(last, graph, inputs, at, StageOut::listed(out.as_mut_slice()));
    if scratch.bytes() > crate::batch::KEPT_SCRATCH_BYTES {
        scratch = StageScratch::default();
    }
    if let Some(slot) = model.stage_scratch() {
        *slot = scratch;
    }
    out
}

/// Shapes a kept node-indexed `buffer` to hold at least `nodes` rows of
/// `cols`, never zeroing it: a buffer of that width keeps a taller
/// height, one of another width is reshaped.
pub fn fit_rows(buffer: &mut Matrix, nodes: usize, cols: usize) {
    let height = if buffer.cols() == cols { buffer.rows().max(nodes) } else { nodes };
    if buffer.shape() != (height, cols) {
        buffer.resize(height, cols);
    }
}

/// Per-phase compression choices (the §V "only compress the aggregators"
/// ablation needs them to differ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressionPolicy {
    /// Compression for aggregation-phase weight matrices.
    pub aggregator: Compression,
    /// Compression for combination-phase weight matrices.
    pub combiner: Compression,
}

impl CompressionPolicy {
    /// Same compression everywhere (the paper's default experiment).
    #[must_use]
    pub fn uniform(c: Compression) -> Self {
        Self { aggregator: c, combiner: c }
    }

    /// Compress only the aggregators, keep combiners dense (§V).
    #[must_use]
    pub fn aggregator_only(c: Compression) -> Self {
        Self { aggregator: c, combiner: Compression::Dense }
    }
}

/// Builds a two-layer model of the given kind with uniform compression.
///
/// # Errors
///
/// Propagates layer-construction errors (zero dims, non-power-of-two
/// block sizes).
pub fn build_model(
    kind: ModelKind,
    in_dim: usize,
    hidden_dim: usize,
    num_classes: usize,
    compression: Compression,
    seed: u64,
) -> Result<Box<dyn GnnModel>, NnError> {
    build_model_with_policy(
        kind,
        in_dim,
        hidden_dim,
        num_classes,
        CompressionPolicy::uniform(compression),
        seed,
    )
}

/// Builds a two-layer model with per-phase compression control.
///
/// # Errors
///
/// Propagates layer-construction errors.
pub fn build_model_with_policy(
    kind: ModelKind,
    in_dim: usize,
    hidden_dim: usize,
    num_classes: usize,
    policy: CompressionPolicy,
    seed: u64,
) -> Result<Box<dyn GnnModel>, NnError> {
    Ok(match kind {
        ModelKind::Gcn => {
            Box::new(Gcn::new(in_dim, hidden_dim, num_classes, policy.combiner, seed)?)
        }
        ModelKind::GsPool => {
            Box::new(GsPool::new(in_dim, hidden_dim, num_classes, policy, seed)?)
        }
        ModelKind::Ggcn => Box::new(Ggcn::new(in_dim, hidden_dim, num_classes, policy, seed)?),
        ModelKind::Gat => Box::new(Gat::new(in_dim, hidden_dim, num_classes, policy, seed)?),
    })
}

/// What a two-layer model uses each of its layers for. GS-Pool, G-GCN
/// and GAT implement it; [`TwoLayer`] wires any of them into a
/// [`GnnModel`].
trait GnnLayer: fmt::Debug + Clone + Send + 'static {
    const KIND: ModelKind;

    fn out_dim(&self) -> usize;

    /// Width of [`GnnLayer::stage_transform`]'s output.
    fn transform_width(&self) -> usize;

    /// The training forward over every node, through the layer's one
    /// aggregate-and-combine kernel, recording what `backward` reads.
    fn forward(&mut self, graph: &CsrGraph, h: &Matrix, scratch: &mut BlockScratch) -> Matrix;

    /// `∂L/∂h` from `∂L/∂output`; must follow a training forward.
    fn backward(&mut self, graph: &CsrGraph, grad: &Matrix) -> Matrix;

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    fn visit_linear_layers(&mut self, f: &mut dyn FnMut(&mut LinearLayer));

    /// Drops what the latest training forward kept for `backward`.
    fn clear_backward_state(&mut self);

    /// The node-local half-stage: each target row's transform of its
    /// input row `h.row(v)`, streamed through the input block.
    fn stage_transform(
        &mut self,
        h: Band,
        rows: &[u32],
        scratch: &mut BlockScratch,
        out: StageOut,
    );

    /// The aggregate-and-combine half-stage: the kernel reading the
    /// node-indexed `transform` the half-stage before wrote, and the
    /// layer's input `h` beside it.
    fn stage_combine(
        &mut self,
        graph: &CsrGraph,
        transform: &Matrix,
        h: Band,
        rows: &[u32],
        scratch: &mut BlockScratch,
        out: StageOut,
    );
}

/// A two-layer model of one [`GnnLayer`] kind (the second layer without
/// an activation). Each layer splits at its natural seam into two
/// stages: the node-local transform (stage 0/2, zero halo) and the
/// aggregation + combiner (stage 1/3, one-hop halo reads of the
/// transform and of the layer's input).
#[derive(Debug, Clone)]
struct TwoLayer<L> {
    layer1: L,
    layer2: L,
    /// Block buffers of the inference pass, shared by both layers.
    scratch: BlockScratch,
}

impl<L: GnnLayer> GnnModel for TwoLayer<L> {
    fn kind(&self) -> ModelKind {
        L::KIND
    }

    fn hidden_dim(&self) -> usize {
        self.layer1.out_dim()
    }

    fn forward(&mut self, graph: &CsrGraph, features: &Matrix, train: bool) -> Matrix {
        assert_eq!(features.rows(), graph.num_nodes(), "feature rows must equal node count");
        if !train {
            self.layer1.clear_backward_state();
            self.layer2.clear_backward_state();
            return staged_pass(self, graph, features, None, None);
        }
        let h1 = self.layer1.forward(graph, features, &mut self.scratch);
        self.layer2.forward(graph, &h1, &mut self.scratch)
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

    fn num_stages(&self) -> usize {
        4
    }

    fn stage_width(&self, stage: usize, _feature_dim: usize) -> usize {
        match stage {
            0 => self.layer1.transform_width(),
            1 => self.layer1.out_dim(),
            2 => self.layer2.transform_width(),
            3 => self.layer2.out_dim(),
            _ => panic!("{} has 4 stages, got stage {stage}", L::KIND),
        }
    }

    /// Stages 0 and 2 are the node-local transforms.
    fn stage_reads_neighbors(&self, stage: usize) -> bool {
        stage % 2 == 1
    }

    fn forward_stage(
        &mut self,
        stage: usize,
        graph: &CsrGraph,
        inputs: StageInputs<'_>,
        rows: &[u32],
        out: StageOut<'_>,
    ) {
        let features = Band::with_index(inputs.features, inputs.index);
        let hidden = || Band::whole(&inputs.below[1]);
        let scratch = &mut self.scratch;
        match stage {
            0 => self.layer1.stage_transform(features, rows, scratch, out),
            1 => {
                self.layer1.stage_combine(graph, &inputs.below[0], features, rows, scratch, out)
            }
            2 => self.layer2.stage_transform(hidden(), rows, scratch, out),
            3 => {
                self.layer2.stage_combine(graph, &inputs.below[2], hidden(), rows, scratch, out)
            }
            _ => panic!("{} has 4 stages, got stage {stage}", L::KIND),
        }
    }

    fn stage_scratch(&mut self) -> Option<&mut StageScratch> {
        Some(&mut self.scratch.stage)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Finite-difference gradient checking for whole models.

    use super::*;
    use blockgnn_linalg::init::InitRng;

    /// A 6-node test graph with varied degrees (including a pendant).
    pub fn tiny_graph() -> CsrGraph {
        CsrGraph::from_edges(6, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (0, 5)], true)
            .unwrap()
    }

    /// `n` nodes with a hub (node 0), parallel arcs, a few chords and
    /// isolated nodes (every third one).
    pub fn hub_graph(n: usize) -> CsrGraph {
        let mut edges = Vec::new();
        for v in (1..n).filter(|v| v % 3 != 0) {
            edges.push((0, v));
            if v % 4 == 1 {
                edges.push((0, v));
            }
            if v % 5 == 2 && v + 2 < n && (v + 2) % 3 != 0 {
                edges.push((v, v + 2));
            }
        }
        CsrGraph::from_edges(n, &edges, true).unwrap()
    }

    /// Chains every inference stage over `shards`, each stage's rows
    /// computed shard by shard into one node-indexed matrix, which the
    /// stages above read — the partition-parallel execution shape. Even
    /// shards write by node, odd ones listed into a part of their own that
    /// is copied in, so both layouts are exercised.
    pub fn chain_stages(
        model: &mut dyn GnnModel,
        g: &CsrGraph,
        x: &Matrix,
        shards: &[Vec<u32>],
    ) -> Matrix {
        let mut below = Vec::new();
        for stage in 0..model.num_stages() {
            let width = model.stage_width(stage, x.cols());
            let mut merged = Matrix::filled(x.rows(), width, f64::NAN);
            for (i, rows) in shards.iter().enumerate() {
                let inputs = StageInputs { features: x, index: None, below: &below };
                if i % 2 == 0 {
                    let out = StageOut::by_node(merged.as_mut_slice());
                    model.forward_stage(stage, g, inputs, rows, out);
                    continue;
                }
                let mut part = Matrix::filled(rows.len(), width, f64::NAN);
                model.forward_stage(
                    stage,
                    g,
                    inputs,
                    rows,
                    StageOut::listed(part.as_mut_slice()),
                );
                for (i, &v) in rows.iter().enumerate() {
                    merged.row_mut(v as usize).copy_from_slice(part.row(i));
                }
            }
            below.push(merged);
        }
        below.pop().expect("models have at least one stage")
    }

    /// Deterministic smooth features away from activation kinks.
    pub fn tiny_features(nodes: usize, dim: usize) -> Matrix {
        Matrix::from_fn(nodes, dim, |i, j| ((i * dim + j) as f64 * 0.43 + 0.21).sin() * 0.7)
    }

    /// Verifies a model's parameter and feature gradients against central
    /// differences under a random linear loss `L = Σ w ∘ logits`.
    pub fn check_model_gradients(
        model: &mut dyn GnnModel,
        graph: &CsrGraph,
        features: &Matrix,
        tol: f64,
    ) {
        let eps = 1e-5;
        let logits0 = model.forward(graph, features, false);
        let mut rng = InitRng::new(4242);
        let w = Matrix::from_fn(logits0.rows(), logits0.cols(), |_, _| rng.uniform(-1.0, 1.0));
        let loss_of = |y: &Matrix| -> f64 {
            y.as_slice().iter().zip(w.as_slice()).map(|(a, b)| a * b).sum()
        };

        model.zero_grad();
        // `train = true` so every layer snapshots its backward caches
        // (inference forwards skip them); the values are identical to the
        // inference pass.
        let _ = model.forward(graph, features, true);
        let grad_x = model.backward(graph, &w);
        let mut analytic: Vec<Vec<f64>> = Vec::new();
        model.visit_params(&mut |p| analytic.push(p.grad.clone()));

        // Parameter gradients.
        for (pi, grads) in analytic.iter().enumerate() {
            // Sample a subset of coordinates to keep runtime bounded.
            let stride = (grads.len() / 25).max(1);
            for k in (0..grads.len()).step_by(stride) {
                let eval = |delta: f64, model: &mut dyn GnnModel| -> f64 {
                    let mut idx = 0;
                    model.visit_params(&mut |p| {
                        if idx == pi {
                            p.data[k] += delta;
                        }
                        idx += 1;
                    });
                    let l = loss_of(&model.forward(graph, features, false));
                    let mut idx2 = 0;
                    model.visit_params(&mut |p| {
                        if idx2 == pi {
                            p.data[k] -= delta;
                        }
                        idx2 += 1;
                    });
                    l
                };
                let numeric = (eval(eps, model) - eval(-eps, model)) / (2.0 * eps);
                let diff = (numeric - grads[k]).abs();
                assert!(
                    diff < tol * numeric.abs().max(1.0),
                    "param {pi}[{k}]: numeric {numeric} analytic {}",
                    grads[k]
                );
            }
        }

        // Feature gradients (sampled).
        for i in (0..features.rows()).step_by(2) {
            for j in (0..features.cols()).step_by(3) {
                let mut plus = features.clone();
                plus[(i, j)] += eps;
                let mut minus = features.clone();
                minus[(i, j)] -= eps;
                let numeric = (loss_of(&model.forward(graph, &plus, false))
                    - loss_of(&model.forward(graph, &minus, false)))
                    / (2.0 * eps);
                let diff = (numeric - grad_x[(i, j)]).abs();
                assert!(
                    diff < tol * numeric.abs().max(1.0),
                    "feature[{i}][{j}]: numeric {numeric} analytic {}",
                    grad_x[(i, j)]
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{chain_stages, hub_graph};
    use super::*;
    use crate::batch::MergedUniverse;
    use crate::sampled::SampledSubgraph;
    use proptest::prelude::*;

    #[test]
    fn kind_names_match_paper() {
        assert_eq!(ModelKind::Gcn.name(), "GCN");
        assert_eq!(ModelKind::GsPool.name(), "GS-Pool");
        assert_eq!(ModelKind::Ggcn.name(), "G-GCN");
        assert_eq!(ModelKind::Gat.name(), "GAT");
        assert_eq!(format!("{}", ModelKind::Gat), "GAT");
    }

    #[test]
    fn weighted_aggregation_flag() {
        assert!(!ModelKind::Gcn.has_weighted_aggregation());
        assert!(ModelKind::GsPool.has_weighted_aggregation());
        assert!(ModelKind::Ggcn.has_weighted_aggregation());
        assert!(ModelKind::Gat.has_weighted_aggregation());
    }

    #[test]
    fn factory_builds_all_kinds() {
        for kind in ModelKind::all() {
            let mut model =
                build_model(kind, 12, 8, 3, Compression::BlockCirculant { block_size: 4 }, 1)
                    .unwrap();
            assert_eq!(model.kind(), kind);
            assert!(model.num_params() > 0);
        }
    }

    fn assert_same_bits(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        let same =
            a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "{what}: bits differ");
    }

    #[test]
    fn staged_inference_matches_forward_bit_exactly() {
        let g = testutil::tiny_graph();
        let x = testutil::tiny_features(6, 6);
        for kind in ModelKind::all() {
            let mut model =
                build_model(kind, 6, 4, 3, Compression::BlockCirculant { block_size: 2 }, 9)
                    .unwrap();
            let reference = model.forward(&g, &x, false);
            let staged = chain_stages(model.as_mut(), &g, &x, &[vec![0, 1, 2], vec![3, 4, 5]]);
            assert_eq!(
                staged.linf_distance(&reference),
                0.0,
                "{kind} staged inference must be bit-identical to forward"
            );
        }
    }

    /// Every prepared mode, with how far its logits may sit from the
    /// training forward's: f64 rounding for the float modes, the
    /// accelerator's Q16.16 quantization for `FixedSpectral`.
    const PREPARED_MODES: [(ExecMode, f64); 3] = [
        (ExecMode::Gemm, 1e-9),
        (ExecMode::Spectral, 1e-9),
        (ExecMode::FixedSpectral, Q16_BOUND),
    ];

    /// ‖FixedSpectral − training‖∞ on these small models: 16 fractional
    /// bits round at 7.6e-6, and the worst case below measures 4.8e-4.
    const Q16_BOUND: f64 = 1e-3;

    #[test]
    fn every_route_agrees_bit_for_bit_at_every_block_boundary() {
        // Sizes straddle the spectral tile (8) and the row block (64):
        // empty shards, one-row tails, exactly full and just-over blocks.
        // The training forward — all rows in one block, its bits pinned
        // by `tests/model_fingerprint.rs` — is the reference.
        let compressions = [
            Compression::Dense,
            Compression::BlockCirculant { block_size: 2 },
            Compression::BlockCirculant { block_size: 16 },
        ];
        for n in [1usize, 7, 8, 9, 63, 64, 65, 129, 200] {
            let g = hub_graph(n);
            let x = testutil::tiny_features(n, 20);
            // Two uneven shards, neither contiguous nor sorted.
            let (a, b): (Vec<u32>, Vec<u32>) = (0..n as u32).rev().partition(|v| v % 3 == 1);
            let shards = [a, b];
            for kind in ModelKind::all() {
                for compression in compressions {
                    let what = format!("{kind} {compression:?} n={n}");
                    let mut model = build_model(kind, 20, 18, 5, compression, 7).unwrap();
                    // The recording forward and the inference pass,
                    // whichever runs first.
                    let inferred = model.forward(&g, &x, false);
                    let trained = model.forward(&g, &x, true);
                    assert_same_bits(&inferred, &trained, &format!("{what}: forward"));
                    assert_same_bits(&model.forward(&g, &x, false), &trained, &what);
                    let staged = chain_stages(model.as_mut(), &g, &x, &shards);
                    assert_same_bits(&staged, &trained, &format!("{what}: staged"));
                    // Prepared copies are inference-only: two routes each.
                    for (mode, bound) in PREPARED_MODES {
                        model.prepare(mode);
                        let inferred = model.forward(&g, &x, false);
                        let staged = chain_stages(model.as_mut(), &g, &x, &shards);
                        assert_same_bits(&staged, &inferred, &format!("{what} {mode:?}"));
                        assert!(inferred.linf_distance(&trained) < bound, "{what} {mode:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn forward_at_is_forward_read_at_those_rows() {
        // Duplicate, unsorted, hub, isolated and tail rows; an empty list
        // too. Sizes straddle the spectral tile and the row block.
        for n in [1usize, 9, 65, 130] {
            let g = hub_graph(n);
            let x = testutil::tiny_features(n, 20);
            let picks = [0, n - 1, n / 2, 0, n / 3, n - 1, 3 % n, n / 2];
            let rows: Vec<u32> = picks.iter().map(|&v| v as u32).collect();
            for kind in ModelKind::all() {
                for (mode, _) in PREPARED_MODES {
                    let what = format!("{kind} {mode:?} n={n}");
                    let compression = Compression::BlockCirculant { block_size: 8 };
                    let mut model = build_model(kind, 20, 18, 5, compression, 7).unwrap();
                    model.prepare(mode);
                    let full = model.forward(&g, &x, false);
                    let want = full.gather_rows(rows.iter().map(|&v| v as usize));
                    assert_same_bits(&model.forward_at(&g, &x, &rows), &want, &what);
                    assert_eq!(model.forward_at(&g, &x, &[]).shape(), (0, 5), "{what}");
                    // A replica that never ran `forward` agrees too.
                    let mut replica = model.clone_boxed();
                    assert_same_bits(&replica.forward_at(&g, &x, &rows), &want, &what);
                }
            }
        }
    }

    #[test]
    fn forward_at_releases_stage_buffers_past_the_bound() {
        // A 36 000-node universe leaves GCN a 36 000 × 64 stage-0 matrix
        // (18.4 MB), past the bound: released. A small call then keeps
        // its own, and both answers are the full forward's. Prepared for
        // the Spectral backend, GCN keeps `T` as a stage matrix too.
        let kept_bytes = |model: &mut dyn GnnModel| -> usize {
            let kept = model.stage_buffers().expect("GCN keeps stage buffers");
            kept.iter().map(|m| m.capacity() * 8).sum()
        };
        for mode in [None, Some(ExecMode::Spectral)] {
            let mut model =
                build_model(ModelKind::Gcn, 4, 64, 2, Compression::Dense, 1).unwrap();
            if let Some(mode) = mode {
                model.prepare(mode);
            }
            for n in [36_000, 130] {
                let what = format!("{mode:?} n={n}");
                let (g, x) = (hub_graph(n), testutil::tiny_features(n, 4));
                let rows = [0, n as u32 - 1, 7];
                let want =
                    model.forward(&g, &x, false).gather_rows(rows.iter().map(|&v| v as usize));
                assert_same_bits(&model.forward_at(&g, &x, &rows), &want, &what);
                let kept = kept_bytes(model.as_mut());
                if n > 1_000 {
                    assert_eq!(kept, 0, "{what}: released");
                } else {
                    let bound = crate::batch::KEPT_SCRATCH_BYTES;
                    assert!(kept > 0 && kept < bound, "{what}: {kept}");
                    assert!(model.scratch_bytes() < bound, "{what}");
                }
            }
        }
    }

    #[test]
    fn stage_rows_lists_exactly_the_rows_a_later_stage_reads() {
        // A star (hub 0, leaves 1–3), a path 4–5–6–7–8, and isolated 9
        // and 10. The targets repeat 1, are unsorted and include 9.
        let edges = [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (6, 7), (7, 8)];
        let g = CsrGraph::from_edges(11, &edges, true).unwrap();
        let targets = [5, 1, 9, 1];
        let halo = vec![0, 1, 4, 5, 6, 9];
        // Two aggregations below the targets reach these, which leave out
        // 8 and 10.
        let two_hops = vec![0, 1, 2, 3, 4, 5, 6, 7, 9];
        let models = ModelKind::all().into_iter().map(|kind| (kind, None));
        for (kind, mode) in models.chain([(ModelKind::Gcn, Some(ExecMode::Spectral))]) {
            let mut model = build_model(kind, 4, 4, 2, Compression::Dense, 1).unwrap();
            if let Some(mode) = mode {
                model.prepare(mode);
            }
            let want = match (kind, mode) {
                (ModelKind::Gcn, None) => vec![halo.clone(), targets.to_vec()],
                // Stage 1 aggregates `T` at its rows' halo, so node-local
                // stage 0 computes the two hops.
                (ModelKind::Gcn, Some(_)) => {
                    vec![two_hops.clone(), halo.clone(), targets.to_vec()]
                }
                // Stage 2 is node-local, so stage 1 computes stage 2's
                // rows; stage 0 adds their halo.
                _ => vec![two_hops.clone(), halo.clone(), halo.clone(), targets.to_vec()],
            };
            assert_eq!(model.stage_rows(&g, &targets), want, "{kind} {mode:?}");
            let nothing: Vec<Vec<u32>> = vec![Vec::new(); want.len()];
            assert_eq!(model.stage_rows(&g, &[]), nothing, "{kind} {mode:?}");
        }
    }

    /// The oracle for `forward_at`: every stage but the last chained over
    /// every row of `g`, the last at `rows`.
    fn every_row_forward_at(
        model: &mut dyn GnnModel,
        g: &CsrGraph,
        x: &Matrix,
        rows: &[u32],
    ) -> Matrix {
        model.prepare_graph(g);
        let every_row: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let last = model.num_stages() - 1;
        let mut below = Vec::new();
        for stage in 0..=last {
            let at = if stage == last { rows } else { &every_row };
            let mut out = Matrix::zeros(at.len(), model.stage_width(stage, x.cols()));
            let inputs = StageInputs { features: x, index: None, below: &below };
            model.forward_stage(stage, g, inputs, at, StageOut::listed(out.as_mut_slice()));
            below.push(out);
        }
        below.pop().expect("models have at least one stage")
    }

    proptest! {
        #[test]
        fn prop_forward_at_matches_the_every_row_chain(
            shape in (1usize..80, 0u64..1_000),
            arcs in collection::vec((0usize..1_000, 0usize..1_000), 0..160),
            targets in collection::vec(0usize..1_000, 0..10),
            batches in collection::vec(collection::vec(0usize..1_000, 1..4), 3..6),
        ) {
            let (n, seed) = shape;
            // The last quarter of the nodes is isolated, and a third of
            // the arcs leave hub 0 (self-loops and parallel arcs kept).
            let wired = n - n / 4;
            let edges: Vec<(usize, usize)> = arcs
                .iter()
                .map(|&(a, b)| (if a % 3 == 0 { 0 } else { a % wired }, b % wired))
                .collect();
            let g = CsrGraph::from_edges(n, &edges, true).unwrap();
            let x = testutil::tiny_features(n, 12);
            // Duplicate, unsorted and isolated targets, or none.
            let rows: Vec<u32> = targets.iter().map(|&v| (v % n) as u32).collect();
            let batches: Vec<Vec<usize>> =
                batches.iter().map(|b| b.iter().map(|&v| v % n).collect()).collect();
            let subs: Vec<SampledSubgraph> =
                batches.iter().map(|b| SampledSubgraph::build(&g, b, 3, 2, seed)).collect();
            let merged = MergedUniverse::build(&subs.iter().collect::<Vec<_>>());
            let merged_x = merged.gather_features(&x);
            let merged_rows: Vec<u32> = subs
                .iter()
                .zip(&batches)
                .enumerate()
                .flat_map(|(block, (sub, b))| merged.target_rows(block, sub, b))
                .collect();
            let compression = Compression::BlockCirculant { block_size: 4 };
            for kind in ModelKind::all() {
                let mut model = build_model(kind, 12, 8, 3, compression, seed).unwrap();
                for (mode, _) in PREPARED_MODES {
                    model.prepare(mode);
                    let universes = [(&g, &x, &rows), (&merged.graph, &merged_x, &merged_rows)];
                    for (graph, features, at) in universes {
                        let what = format!("{kind} {mode:?} n={n} on {} rows", graph.num_nodes());
                        let want = every_row_forward_at(model.as_mut(), graph, features, at);
                        assert_same_bits(&model.forward_at(graph, features, at), &want, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn a_dirty_block_scratch_never_shows_in_the_next_answer() {
        // Serve an all-NaN 200-node graph, then a finite 65-node one, on
        // the same instance: every recycled block row is overwritten
        // before it is read, so the second answer is a fresh instance's.
        // The training route too: its full-size block and its recorders
        // (winners, gates, attention) start over on every forward.
        let (big, small) = (hub_graph(200), hub_graph(65));
        let poison = Matrix::filled(200, 12, f64::NAN);
        let x = testutil::tiny_features(65, 12);
        let shards = [(0..40).collect::<Vec<u32>>(), (40..65).collect()];
        let grad_logits = Matrix::from_fn(65, 4, |i, j| ((i * 4 + j) as f64 * 0.37).cos());
        let training_step = |model: &mut dyn GnnModel| {
            model.zero_grad();
            let logits = model.forward(&small, &x, true);
            let grad_x = model.backward(&small, &grad_logits);
            let mut grads = Vec::new();
            model.visit_params(&mut |p| grads.extend(p.grad.iter().map(|g| g.to_bits())));
            (logits, grad_x, grads)
        };
        for kind in ModelKind::all() {
            for mode in [None, Some(ExecMode::Spectral)] {
                let build = || {
                    let compression = Compression::BlockCirculant { block_size: 4 };
                    let mut model = build_model(kind, 12, 10, 4, compression, 3).unwrap();
                    if let Some(mode) = mode {
                        model.prepare(mode);
                    }
                    model
                };
                let (mut used, mut fresh) = (build(), build());
                let _ = used.forward(&big, &poison, false);
                let want = fresh.forward(&small, &x, false);
                assert!(want.as_slice().iter().all(|v| v.is_finite()), "{kind}: finite");
                assert_same_bits(&used.forward(&small, &x, false), &want, "forward");
                let _ = chain_stages(used.as_mut(), &big, &poison, &[(0..200).collect()]);
                assert_same_bits(
                    &chain_stages(used.as_mut(), &small, &x, &shards),
                    &want,
                    "staged",
                );
                if mode.is_none() {
                    let _ = used.forward(&big, &poison, true);
                    let (logits, grad_x, grads) = training_step(fresh.as_mut());
                    let got = training_step(used.as_mut());
                    assert_same_bits(&got.0, &logits, "training forward");
                    assert_same_bits(&got.1, &grad_x, "backward");
                    assert_eq!(got.2, grads, "{kind}: parameter gradients");
                }
            }
        }
    }

    #[test]
    fn replicas_of_a_warm_model_answer_identically() {
        // `clone_boxed` after the original has grown its block buffers on
        // a larger request (they clone empty — `block::tests`): replica
        // and original agree on both routes.
        let (big, small) = (hub_graph(129), hub_graph(70));
        let (xb, xs) = (testutil::tiny_features(129, 9), testutil::tiny_features(70, 9));
        for kind in ModelKind::all() {
            let compression = Compression::BlockCirculant { block_size: 8 };
            let mut model = build_model(kind, 9, 8, 3, compression, 11).unwrap();
            model.prepare(ExecMode::Spectral);
            let _ = model.forward(&big, &xb, false);
            let mut replica = model.clone_boxed();
            let want = model.forward(&small, &xs, false);
            assert_same_bits(&replica.forward(&small, &xs, false), &want, "replica forward");
            let shards = [(0..70).collect::<Vec<u32>>()];
            assert_same_bits(
                &chain_stages(replica.as_mut(), &small, &xs, &shards),
                &want,
                "replica staged",
            );
        }
    }

    #[test]
    fn clone_boxed_preserves_outputs() {
        let g = testutil::tiny_graph();
        let x = testutil::tiny_features(6, 6);
        for kind in ModelKind::all() {
            let mut model = build_model(kind, 6, 4, 3, Compression::Dense, 5).unwrap();
            let reference = model.forward(&g, &x, false);
            let mut copy = model.clone_boxed();
            assert_eq!(copy.kind(), kind);
            let replay = copy.forward(&g, &x, false);
            assert_eq!(replay.linf_distance(&reference), 0.0, "{kind} clone drifted");
        }
    }

    #[test]
    fn policy_constructors() {
        let c = Compression::BlockCirculant { block_size: 16 };
        let uni = CompressionPolicy::uniform(c);
        assert_eq!(uni.aggregator, c);
        assert_eq!(uni.combiner, c);
        let agg = CompressionPolicy::aggregator_only(c);
        assert_eq!(agg.aggregator, c);
        assert_eq!(agg.combiner, Compression::Dense);
    }
}

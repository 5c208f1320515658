//! The row-block pipeline under every model's forward pass.
//!
//! BlockGNN's accelerator never writes a node's aggregated vector `a_v`
//! to memory: a block of nodes streams through the Node-Feature Buffer,
//! the VPU aggregates it and the pipelined CirCore combines it while the
//! next block loads. [`combine_blocks`] is that dataflow in software:
//! destination rows are walked [`ROW_BLOCK`] at a time, each block is
//! aggregated **straight into the combiner's input block**, the combiner
//! writes the block's output rows where they belong and the activation
//! runs over them in place. No full-size aggregation matrix, no
//! concatenation, no activation copy.
//!
//! Every layer kind wraps it in exactly one kernel that differs only in
//! how a destination row is aggregated, and every route calls that
//! kernel: the staged pass ([`crate::GnnModel::forward_stage`]) over a
//! stage's row list — every row for a full-graph `forward(.., false)`,
//! a shard's rows for the widened pass, the rows a later stage reads for
//! `forward_at` — telling it through [`Band`]s where the matrices it
//! reads at neighbor rows live, and `forward(.., true)`, which runs all
//! rows as one block and records what `backward` reads. The node-local
//! transform before each aggregation streams its input rows through the
//! same block ([`transform_blocks`]). Both write each output row where
//! the caller's [`StageOut`] puts it. The routes are bit-identical
//! because they are one body: each row is produced by the same
//! operations in the same order whatever block it lands in, and the
//! linear layers are row-independent ([`LinearLayer::forward_into`]).
//!
//! One layer leaves this pipeline on one backend: a GCN prepared for
//! `ExecMode::Spectral` runs its first layer transform-first (see
//! [`crate::models::gcn`]). Its `T = X·W₁` rows stream through
//! [`transform_blocks`], and every route of that prepared model — a
//! full `forward`, `forward_stage`, `forward_at_indexed` and the widened
//! pass — aggregates them through its one kernel, `Gcn::first_rows_into`,
//! so those routes agree bit for bit with each other, not with the other
//! modes. The routes that keep the paper's order through
//! [`combine_blocks`] are pinned bit for bit elsewhere: training by
//! `tests/model_fingerprint.rs`, the Dense backend by the hex logits of
//! `tests/wire_transcript.rs` and `tests/telemetry_transcript.rs`, and the
//! simulated accelerator by `tests/engine_api.rs`'s hand-wired Q16.16 GCN
//! oracle.

use super::{StageOut, StageScratch};
use blockgnn_linalg::Matrix;
use blockgnn_nn::activation::ActivationLayer;
use blockgnn_nn::{Layer, LinearLayer};

/// Destination rows per block. A multiple of `core::spectral`'s 8-row
/// tile, so blocking adds no one-row tail calls to the combiner, and
/// small enough that a block of the widest combiner input in use
/// (GS-Pool's `[a ‖ h]`, 64 × 160 f64 = 80 KB) stays resident in L2
/// beside the weights between being aggregated and being transformed.
pub(super) const ROW_BLOCK: usize = 64;

/// Columns `offset .. offset + width` of a matrix with one row per node,
/// read either at the node's own row or, through an index, at row
/// `index[v]`.
///
/// A kernel reads what an aggregation needs at neighbor rows through
/// bands: a stage's node-indexed output, the columns of it one term of
/// the aggregation uses (G-GCN's `p` and `q` halves), or, for a sampled
/// universe's stage 0, the graph-wide feature matrix through the
/// universe's local→global ids.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Band<'a> {
    matrix: &'a Matrix,
    offset: usize,
    width: usize,
    index: Option<&'a [u32]>,
}

impl<'a> Band<'a> {
    /// # Panics
    ///
    /// Panics if the columns are not all inside `matrix`.
    pub(crate) fn new(matrix: &'a Matrix, offset: usize, width: usize) -> Self {
        assert!(offset + width <= matrix.cols(), "band exceeds the matrix width");
        Self { matrix, offset, width, index: None }
    }

    /// Every column of `matrix`.
    pub(crate) fn whole(matrix: &'a Matrix) -> Self {
        Self::new(matrix, 0, matrix.cols())
    }

    /// Every column of `matrix`, node `v` at row `index[v]` with an
    /// index, else at row `v`.
    pub(crate) fn with_index(matrix: &'a Matrix, index: Option<&'a [u32]>) -> Self {
        Self { index, ..Self::whole(matrix) }
    }

    /// How many nodes the band holds a row for.
    pub(crate) fn nodes(&self) -> usize {
        self.index.map_or(self.matrix.rows(), <[u32]>::len)
    }

    /// The band's width.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Node `v`'s slice of the band.
    pub(crate) fn row(&self, v: usize) -> &'a [f64] {
        let at = self.index.map_or(v, |index| index[v] as usize);
        &self.matrix.row(at)[self.offset..self.offset + self.width]
    }

    /// The rows of `nodes` as one slice of the matrix, when the band is
    /// every column of an unindexed matrix and `nodes` are one run of
    /// ids.
    fn run(&self, nodes: &[usize]) -> Option<&'a [f64]> {
        let whole = self.index.is_none() && self.width == self.matrix.cols();
        let first = *nodes.first()?;
        (whole && consecutive(nodes))
            .then(|| &self.matrix.as_slice()[first * self.width..][..nodes.len() * self.width])
    }
}

/// Whether `nodes` are one run of ids, each one past the one before.
pub(super) fn consecutive(nodes: &[usize]) -> bool {
    nodes.windows(2).all(|pair| pair[1] == pair[0] + 1)
}

/// The reused working memory of a model's inference pass: one input
/// block and one output block, reused across blocks, layers and requests,
/// a block-sized spare for kernels that project a block before reducing
/// it, and what [`crate::GnnModel::forward_at`] keeps between calls.
/// Every row of any of them is fully overwritten before it is read, so
/// what an earlier request left behind never shows. Clones *empty* (like
/// `core::SpectralScratch`), so `clone_boxed` replicas grow their own and
/// workers never share a hot buffer.
#[derive(Debug, Default)]
pub(super) struct BlockScratch {
    input: Vec<f64>,
    output: Vec<f64>,
    spare: Vec<f64>,
    pub(super) stage: StageScratch,
}

impl Clone for BlockScratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// Where a layer kernel sends its output rows.
pub(super) enum Output<'o> {
    /// Training: all rows as one block through the layers' training
    /// forwards, which keep what `backward` reads; the output matrix
    /// replaces the one given.
    Recorded(&'o mut Matrix),
    /// Inference: a block at a time, each row where the [`StageOut`]
    /// puts it.
    Rows(StageOut<'o>),
}

impl Output<'_> {
    /// Whether this is the training forward, which records.
    pub(super) fn records(&self) -> bool {
        matches!(self, Output::Recorded(_))
    }
}

/// Aggregate-and-combine over destination `rows`. Per block of
/// [`ROW_BLOCK`] rows: `aggregate(v, z)` fills node `v`'s combiner-input
/// row `z` (`comb.in_dim()` wide, holding arbitrary old values — it must
/// overwrite all of it), `comb` maps the block to its output rows, and
/// `act` (if any) runs over those in place.
///
/// [`Output::Recorded`] runs all of `rows` as one block in a full-size
/// `z`, and `comb` and `act` run their training forwards over it,
/// keeping what `backward` reads; the output bits are the blocked pass's.
pub(super) fn combine_blocks(
    comb: &mut LinearLayer,
    act: Option<&mut ActivationLayer>,
    out: Output,
    scratch: &mut BlockScratch,
    rows: impl ExactSizeIterator<Item = usize>,
    mut aggregate: impl FnMut(usize, &mut [f64]),
) {
    let width = comb.in_dim();
    let out = match out {
        Output::Rows(out) => out,
        Output::Recorded(y) => {
            let mut z = Matrix::zeros(rows.len(), width);
            for (zrow, v) in z.as_mut_slice().chunks_exact_mut(width).zip(rows) {
                aggregate(v, zrow);
            }
            let combined = comb.forward(&z, true);
            *y = match act {
                Some(act) => act.forward(&combined, true),
                None => combined,
            };
            return;
        }
    };
    let shape = (width, comb.out_dim());
    let apply = |z: &[f64], y: &mut [f64], _: &mut Vec<f64>| {
        comb.forward_into(z, y);
        if let Some(act) = &act {
            act.apply_in_place(y);
        }
    };
    stream_blocks(scratch, shape, rows, out, aggregate, |_| None, apply);
}

/// A node-local transform at `rows`: node `v`'s input row `input.row(v)`
/// is streamed into the input block as in [`combine_blocks`] — or, for a
/// block of consecutive rows of a whole matrix, read where it lies — and
/// `apply(x, y, spare)` maps each block to its `out_width`-wide output
/// rows, with a reused block-sized `spare` to project into.
pub(super) fn transform_blocks(
    scratch: &mut BlockScratch,
    input: Band,
    rows: &[u32],
    out_width: usize,
    out: StageOut,
    apply: impl FnMut(&[f64], &mut [f64], &mut Vec<f64>),
) {
    let (rows, shape) = (rows.iter().map(|&v| v as usize), (input.width(), out_width));
    let fill = |v, z: &mut [f64]| z.copy_from_slice(input.row(v));
    stream_blocks(scratch, shape, rows, out, fill, |nodes| input.run(nodes), apply);
}

/// The inference block loop under [`combine_blocks`] and
/// [`transform_blocks`]: per block of [`ROW_BLOCK`] rows, the block's
/// `width`-wide input rows are `direct(nodes)` where that is `Some`, else
/// `fill(v, z)` writes node `v`'s into the input block, and `apply(x, y,
/// spare)` maps them to the block's `out_width`-wide output rows. A block
/// whose rows land one after another in `out` is written there directly;
/// any other goes through the output block and is copied row by row.
fn stream_blocks<'i>(
    scratch: &mut BlockScratch,
    (width, out_width): (usize, usize),
    mut rows: impl ExactSizeIterator<Item = usize>,
    mut out: StageOut,
    mut fill: impl FnMut(usize, &mut [f64]),
    direct: impl Fn(&[usize]) -> Option<&'i [f64]>,
    mut apply: impl FnMut(&[f64], &mut [f64], &mut Vec<f64>),
) {
    let BlockScratch { input, output, spare, .. } = scratch;
    let block_rows = ROW_BLOCK.min(rows.len());
    if input.len() < block_rows * width {
        input.resize(block_rows * width, 0.0);
    }
    let mut nodes = [0usize; ROW_BLOCK];
    let mut first = 0;
    loop {
        let len = nodes.iter_mut().zip(rows.by_ref()).map(|(slot, v)| *slot = v).count();
        if len == 0 {
            return;
        }
        let block = &nodes[..len];
        let x = direct(block).unwrap_or_else(|| {
            let z = &mut input[..len * width];
            for (zrow, &v) in z.chunks_exact_mut(width).zip(block) {
                fill(v, zrow);
            }
            z
        });
        if let Some(y) = out.run_mut(first, block, out_width) {
            apply(x, y, spare);
        } else {
            if output.len() < len * out_width {
                output.resize(ROW_BLOCK * out_width, 0.0);
            }
            let y = &mut output[..len * out_width];
            apply(x, y, spare);
            for (i, (yrow, &v)) in y.chunks_exact(out_width).zip(block).enumerate() {
                out.row_mut(first + i, v, out_width).copy_from_slice(yrow);
            }
        }
        first += len;
    }
}

/// `backward` through what [`combine_blocks`]' training arm ran — the
/// activation (if any), then the combiner: `∂L/∂z` from `∂L/∂output`.
pub(super) fn combine_backward(
    comb: &mut LinearLayer,
    act: Option<&mut ActivationLayer>,
    grad: &Matrix,
) -> Matrix {
    match act {
        Some(act) => comb.backward(&act.backward(grad)),
        None => comb.backward(grad),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockgnn_nn::{Compression, Relu};

    #[test]
    fn a_warm_scratch_clones_empty_and_blocks_cover_every_row_once() {
        let mut comb = LinearLayer::new(3, 2, Compression::Dense, 1).unwrap();
        let mut scratch = BlockScratch::default();
        assert_eq!(scratch.input.capacity(), 0);
        // 2·ROW_BLOCK + 1 destination rows, in descending order, written
        // by node into a poisoned buffer: no block is consecutive.
        let rows = (0..2 * ROW_BLOCK + 1).rev();
        let mut seen = Vec::new();
        let mut act = Relu::new();
        let mut out = vec![f64::NAN; rows.len() * 3];
        combine_blocks(
            &mut comb,
            Some(&mut act),
            Output::Rows(StageOut::by_node(&mut out)),
            &mut scratch,
            rows.clone(),
            |v, z| {
                seen.push(v);
                z.fill(v as f64);
            },
        );
        assert_eq!(
            seen,
            rows.clone().collect::<Vec<_>>(),
            "each row aggregated once, in order"
        );
        let whole = Matrix::from_fn(seen.len(), 2, |v, _| v as f64);
        let mut want = comb.forward(&whole, false);
        act.apply_in_place(want.as_mut_slice());
        assert_eq!(out, want.as_slice(), "blocked output rows land where the one-call rows do");
        assert_eq!(scratch.input.len(), ROW_BLOCK * 2, "one block, not one matrix");
        assert_eq!(scratch.output.len(), ROW_BLOCK * 3, "one output block");
        assert_eq!(scratch.clone().input.capacity(), 0, "replicas grow their own buffers");
    }
}

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
//! kernel: `forward(.., false)` over all rows, `forward_stage` over a
//! shard's row list — telling it through [`Band`]s where the matrices it
//! reads at neighbor rows live — and `forward(.., true)`, which runs all
//! rows as one block and records what `backward` reads. The routes are
//! bit-identical because they are one body: each row is produced by the
//! same operations in the same order whatever block it lands in, and the
//! linear layers are row-independent ([`LinearLayer::forward_into`]).
//!
//! One layer leaves this pipeline on one backend: a GCN prepared for
//! `ExecMode::Spectral` runs its first layer transform-first (see
//! [`crate::models::gcn`]). Its `T = X·W₁` rows stream through
//! [`transform_blocks`], and every route of that prepared model — the
//! fused `forward`, `forward_stage`, `forward_at_indexed` and the widened
//! pass — aggregates them through its one kernel, `Gcn::first_rows_into`,
//! so those routes agree bit for bit with each other, not with the other
//! modes. The routes that keep the paper's order through
//! [`combine_blocks`] are pinned bit for bit elsewhere: training by
//! `tests/model_fingerprint.rs`, the Dense backend by the hex logits of
//! `tests/wire_transcript.rs` and `tests/telemetry_transcript.rs`, and the
//! simulated accelerator by `tests/engine_api.rs`'s hand-wired Q16.16 GCN
//! oracle.

use super::StageScratch;
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
/// The monolithic pass keeps what an aggregation reads in matrices of
/// its own; a staged pass finds the same values side by side in the
/// previous stage's output. A sampled universe's stage 0 reads its
/// nodes' features in place, from the graph-wide matrix through the
/// universe's local→global ids. A kernel that takes bands reads any of
/// them.
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

    /// Every column of `matrix`, node `v` at row `index[v]`.
    pub(crate) fn indexed(matrix: &'a Matrix, index: &'a [u32]) -> Self {
        Self { index: Some(index), ..Self::whole(matrix) }
    }

    /// [`Band::indexed`] with an index, else [`Band::whole`].
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

    /// Copies the rows of nodes `rows`, in order, into a matrix.
    pub(crate) fn gather(&self, rows: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(rows.len(), self.width);
        for (i, &v) in rows.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(v as usize));
        }
        out
    }
}

/// The reused working memory of a model's inference pass: one
/// combiner-input block, reused across blocks, layers and requests, and
/// what [`crate::GnnModel::forward_at`] keeps between calls. Every row of
/// either is fully overwritten before it is read, so what an earlier
/// request left behind never shows. Clones *empty* (like
/// `core::SpectralScratch`), so `clone_boxed` replicas grow their own and
/// workers never share a hot buffer.
#[derive(Debug, Default)]
pub(super) struct BlockScratch {
    input: Vec<f64>,
    pub(super) stage: StageScratch,
}

impl Clone for BlockScratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// Aggregate-and-combine over destination `rows`, one output row each,
/// in order. Per block of [`ROW_BLOCK`] rows: `aggregate(v, z)` fills
/// node `v`'s combiner-input row `z` (`comb.in_dim()` wide, holding
/// arbitrary old values — it must overwrite all of it), `comb` maps the
/// block to its output rows, and `act` (if any) runs over those in place.
///
/// With `train`, all of `rows` is one block in a full-size `z`, and
/// `comb` and `act` run their training forwards over it, keeping what
/// `backward` reads; the output bits are the blocked pass's.
pub(super) fn combine_blocks(
    comb: &mut LinearLayer,
    act: Option<&mut ActivationLayer>,
    train: bool,
    scratch: &mut BlockScratch,
    rows: impl ExactSizeIterator<Item = usize>,
    mut aggregate: impl FnMut(usize, &mut [f64]),
) -> Matrix {
    if train {
        let width = comb.in_dim();
        let mut z = Matrix::zeros(rows.len(), width);
        for (zrow, v) in z.as_mut_slice().chunks_exact_mut(width).zip(rows) {
            aggregate(v, zrow);
        }
        let y = comb.forward(&z, true);
        return match act {
            Some(act) => act.forward(&y, true),
            None => y,
        };
    }
    stream_blocks(comb, scratch, rows, aggregate, |comb, z, y| {
        comb.forward_into(z, y);
        if let Some(act) = &act {
            act.apply_in_place(y);
        }
    })
}

/// `W·x` without the bias ([`LinearLayer::product_into`]) at `nodes`,
/// one output row each, in order, node `v`'s input row read at
/// `input.row(v)` and streamed through the combiner-input block as in
/// [`combine_blocks`].
pub(super) fn transform_blocks(
    comb: &mut LinearLayer,
    scratch: &mut BlockScratch,
    input: Band,
    nodes: &[u32],
) -> Matrix {
    let rows = nodes.iter().map(|&v| v as usize);
    stream_blocks(
        comb,
        scratch,
        rows,
        |v, z| z.copy_from_slice(input.row(v)),
        |comb, z, y| {
            comb.product_into(z, y);
        },
    )
}

/// The inference block loop under [`combine_blocks`] and
/// [`transform_blocks`]: per block of [`ROW_BLOCK`] rows, `fill(v, z)`
/// writes node `v`'s `comb.in_dim()`-wide input row and `apply(comb, z,
/// y)` maps the block to its output rows.
fn stream_blocks(
    comb: &mut LinearLayer,
    scratch: &mut BlockScratch,
    mut rows: impl ExactSizeIterator<Item = usize>,
    mut fill: impl FnMut(usize, &mut [f64]),
    mut apply: impl FnMut(&mut LinearLayer, &[f64], &mut [f64]),
) -> Matrix {
    let (width, out_dim) = (comb.in_dim(), comb.out_dim());
    let mut out = Matrix::zeros(rows.len(), out_dim);
    let block_len = ROW_BLOCK.min(rows.len()) * width;
    if scratch.input.len() < block_len {
        scratch.input.resize(block_len, 0.0);
    }
    for y in out.as_mut_slice().chunks_mut(ROW_BLOCK * out_dim) {
        let z = &mut scratch.input[..y.len() / out_dim * width];
        for (zrow, v) in z.chunks_exact_mut(width).zip(rows.by_ref()) {
            fill(v, zrow);
        }
        apply(comb, z, y);
    }
    out
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

/// Lays equally tall matrices side by side in one allocation — the
/// `[transform ‖ features]` layout a transform half-stage hands to its
/// combine half-stage.
pub(super) fn side_by_side(parts: &[&Matrix]) -> Matrix {
    let rows = parts[0].rows();
    assert!(parts.iter().all(|p| p.rows() == rows), "parts must be equally tall");
    let cols = parts.iter().map(|p| p.cols()).sum();
    let mut data = Vec::with_capacity(rows * cols);
    for i in 0..rows {
        for part in parts {
            data.extend_from_slice(part.row(i));
        }
    }
    Matrix::from_flat(rows, cols, data).expect("every row holds every part's columns")
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
        // 2·ROW_BLOCK + 1 destination rows, in descending order.
        let rows = (0..2 * ROW_BLOCK + 1).rev();
        let mut seen = Vec::new();
        let mut act = Relu::new();
        let out = combine_blocks(
            &mut comb,
            Some(&mut act),
            false,
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
        let whole = Matrix::from_fn(seen.len(), 2, |i, _| seen[i] as f64);
        let mut want = comb.forward(&whole, false);
        act.apply_in_place(want.as_mut_slice());
        assert_eq!(out, want, "blocked output rows land where the one-call rows do");
        assert_eq!(scratch.input.len(), ROW_BLOCK * 2, "one block, not one matrix");
        assert_eq!(scratch.clone().input.capacity(), 0, "replicas grow their own buffers");
    }

    #[test]
    fn side_by_side_lays_rows_out_part_by_part() {
        let a = Matrix::from_fn(2, 1, |i, _| i as f64);
        let b = Matrix::from_fn(2, 2, |i, j| (10 * (i + 1) + j) as f64);
        let m = side_by_side(&[&a, &b, &a]);
        assert_eq!(m.row(0), &[0.0, 10.0, 11.0, 0.0]);
        assert_eq!(m.row(1), &[1.0, 20.0, 21.0, 1.0]);
        assert_eq!(side_by_side(&[&Matrix::zeros(0, 3), &Matrix::zeros(0, 2)]).shape(), (0, 5));
    }
}

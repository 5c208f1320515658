//! The partitioned block-circulant matrix.

use crate::block::CirculantBlock;
use crate::error::CirculantError;
use crate::stats::CompressionStats;
use blockgnn_linalg::init::InitRng;
use blockgnn_linalg::Matrix;

/// A logically `N × M` matrix stored as `p × q` circulant blocks of size
/// `n × n`, with `p = ⌈N/n⌉` and `q = ⌈M/n⌉`.
///
/// Rows/columns beyond the logical dimensions are zero-padded, exactly as
/// §III-A of the paper prescribes ("if M or N is not divisible by n, just
/// use zero-padding"): inputs are padded with zeros before the product and
/// outputs are truncated back to `N`.
///
/// ```
/// use blockgnn_core::BlockCirculantMatrix;
/// let bcm = BlockCirculantMatrix::random(10, 6, 4, 1).unwrap();
/// assert_eq!((bcm.grid_rows(), bcm.grid_cols()), (3, 2)); // p=⌈10/4⌉, q=⌈6/4⌉
/// assert_eq!(bcm.to_dense().shape(), (10, 6));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BlockCirculantMatrix {
    out_dim: usize,
    in_dim: usize,
    block_size: usize,
    grid_rows: usize,
    grid_cols: usize,
    /// Blocks in row-major grid order: index `i * grid_cols + j`.
    blocks: Vec<CirculantBlock>,
}

impl BlockCirculantMatrix {
    /// Assembles a matrix from pre-built blocks.
    ///
    /// # Errors
    ///
    /// * [`CirculantError::EmptyDimension`] if a dimension is zero.
    /// * [`CirculantError::BadBlockSize`] if `block_size` is zero.
    /// * [`CirculantError::BadKernelLayout`] if the number of blocks is not
    ///   `⌈N/n⌉ · ⌈M/n⌉` or any block has the wrong size.
    pub fn new(
        out_dim: usize,
        in_dim: usize,
        block_size: usize,
        blocks: Vec<CirculantBlock>,
    ) -> Result<Self, CirculantError> {
        if out_dim == 0 || in_dim == 0 {
            return Err(CirculantError::EmptyDimension);
        }
        if block_size == 0 {
            return Err(CirculantError::BadBlockSize { n: 0, reason: "must be non-zero" });
        }
        let grid_rows = out_dim.div_ceil(block_size);
        let grid_cols = in_dim.div_ceil(block_size);
        if blocks.len() != grid_rows * grid_cols {
            return Err(CirculantError::BadKernelLayout {
                what: format!(
                    "expected {} blocks ({grid_rows}x{grid_cols} grid), got {}",
                    grid_rows * grid_cols,
                    blocks.len()
                ),
            });
        }
        if let Some(bad) = blocks.iter().position(|b| b.size() != block_size) {
            return Err(CirculantError::BadKernelLayout {
                what: format!(
                    "block {bad} has size {} but the grid uses {block_size}",
                    blocks[bad].size()
                ),
            });
        }
        Ok(Self { out_dim, in_dim, block_size, grid_rows, grid_cols, blocks })
    }

    /// Builds a matrix from raw kernels (first columns) in row-major grid
    /// order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BlockCirculantMatrix::new`].
    pub fn from_kernels(
        out_dim: usize,
        in_dim: usize,
        block_size: usize,
        kernels: Vec<Vec<f64>>,
    ) -> Result<Self, CirculantError> {
        for (idx, k) in kernels.iter().enumerate() {
            if k.len() != block_size {
                return Err(CirculantError::BadKernelLayout {
                    what: format!(
                        "kernel {idx} has length {} but block size is {block_size}",
                        k.len()
                    ),
                });
            }
        }
        let blocks = kernels.into_iter().map(CirculantBlock::from_kernel).collect();
        Self::new(out_dim, in_dim, block_size, blocks)
    }

    /// Random variance-matched initialization (Xavier scaled by `1/√n`),
    /// the initialization used when training compressed GNNs from scratch.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BlockCirculantMatrix::new`].
    pub fn random(
        out_dim: usize,
        in_dim: usize,
        block_size: usize,
        seed: u64,
    ) -> Result<Self, CirculantError> {
        if out_dim == 0 || in_dim == 0 {
            return Err(CirculantError::EmptyDimension);
        }
        if block_size == 0 {
            return Err(CirculantError::BadBlockSize { n: 0, reason: "must be non-zero" });
        }
        let dense_bound = (6.0 / (out_dim as f64 + in_dim as f64)).sqrt();
        let bound = dense_bound / (block_size as f64).sqrt();
        let grid_rows = out_dim.div_ceil(block_size);
        let grid_cols = in_dim.div_ceil(block_size);
        let mut rng = InitRng::new(seed);
        let kernels: Vec<Vec<f64>> = (0..grid_rows * grid_cols)
            .map(|_| (0..block_size).map(|_| rng.uniform(-bound, bound)).collect())
            .collect();
        Self::from_kernels(out_dim, in_dim, block_size, kernels)
    }

    /// Compresses a dense matrix by projecting each (zero-padded) block
    /// onto the circulant subspace — the Frobenius-nearest block-circulant
    /// matrix with this partitioning.
    ///
    /// # Errors
    ///
    /// * [`CirculantError::EmptyDimension`] if `dense` is empty.
    /// * [`CirculantError::BadBlockSize`] if `block_size` is zero.
    pub fn from_dense(dense: &Matrix, block_size: usize) -> Result<Self, CirculantError> {
        let (out_dim, in_dim) = dense.shape();
        if out_dim == 0 || in_dim == 0 {
            return Err(CirculantError::EmptyDimension);
        }
        if block_size == 0 {
            return Err(CirculantError::BadBlockSize { n: 0, reason: "must be non-zero" });
        }
        let grid_rows = out_dim.div_ceil(block_size);
        let grid_cols = in_dim.div_ceil(block_size);
        let mut blocks = Vec::with_capacity(grid_rows * grid_cols);
        for bi in 0..grid_rows {
            for bj in 0..grid_cols {
                let sub = Matrix::from_fn(block_size, block_size, |r, s| {
                    let (gi, gj) = (bi * block_size + r, bj * block_size + s);
                    if gi < out_dim && gj < in_dim {
                        dense[(gi, gj)]
                    } else {
                        0.0
                    }
                });
                blocks.push(CirculantBlock::project_from_dense(&sub)?);
            }
        }
        Self::new(out_dim, in_dim, block_size, blocks)
    }

    /// Logical output dimension `N`.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Logical input dimension `M`.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Circulant block size `n`.
    #[must_use]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Grid rows `p = ⌈N/n⌉`.
    #[must_use]
    pub fn grid_rows(&self) -> usize {
        self.grid_rows
    }

    /// Grid columns `q = ⌈M/n⌉`.
    #[must_use]
    pub fn grid_cols(&self) -> usize {
        self.grid_cols
    }

    /// Borrows the block at grid position `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are outside the `p × q` grid.
    #[must_use]
    pub fn block(&self, i: usize, j: usize) -> &CirculantBlock {
        assert!(
            i < self.grid_rows && j < self.grid_cols,
            "block ({i},{j}) outside {}x{} grid",
            self.grid_rows,
            self.grid_cols
        );
        &self.blocks[i * self.grid_cols + j]
    }

    /// Iterates over `(grid_i, grid_j, block)` in row-major order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (usize, usize, &CirculantBlock)> {
        let q = self.grid_cols;
        self.blocks.iter().enumerate().map(move |(idx, b)| (idx / q, idx % q, b))
    }

    /// Replaces the kernel of block `(i, j)`; used by optimizers updating
    /// circulant parameters in place.
    ///
    /// # Errors
    ///
    /// Returns [`CirculantError::BadKernelLayout`] if the kernel length is
    /// not the block size, or [`CirculantError::DimensionMismatch`] if the
    /// grid position is out of range.
    pub fn set_kernel(
        &mut self,
        i: usize,
        j: usize,
        kernel: Vec<f64>,
    ) -> Result<(), CirculantError> {
        if i >= self.grid_rows || j >= self.grid_cols {
            return Err(CirculantError::DimensionMismatch {
                expected: self.grid_rows * self.grid_cols,
                got: i * self.grid_cols + j,
            });
        }
        if kernel.len() != self.block_size {
            return Err(CirculantError::BadKernelLayout {
                what: format!(
                    "kernel length {} does not match block size {}",
                    kernel.len(),
                    self.block_size
                ),
            });
        }
        self.blocks[i * self.grid_cols + j] = CirculantBlock::from_kernel(kernel);
        Ok(())
    }

    /// Expands to the logical `N × M` dense matrix (padding truncated).
    #[must_use]
    pub fn to_dense(&self) -> Matrix {
        let n = self.block_size;
        Matrix::from_fn(self.out_dim, self.in_dim, |i, j| {
            self.block(i / n, j / n).entry(i % n, j % n)
        })
    }

    /// The transpose, still block-circulant: a `q × p` grid whose `(j, i)`
    /// block is the transpose of block `(i, j)`.
    ///
    /// Note the transpose is taken over the **padded** matrix, so its
    /// logical dimensions are `q·n × p·n` truncated to `M × N`; callers
    /// backpropagating through a padded product should pad/truncate
    /// consistently (this is what `blockgnn-nn`'s circulant layer does).
    #[must_use]
    pub fn transpose(&self) -> BlockCirculantMatrix {
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for j in 0..self.grid_cols {
            for i in 0..self.grid_rows {
                blocks.push(self.block(i, j).transpose());
            }
        }
        BlockCirculantMatrix {
            out_dim: self.in_dim,
            in_dim: self.out_dim,
            block_size: self.block_size,
            grid_rows: self.grid_cols,
            grid_cols: self.grid_rows,
            blocks,
        }
    }

    /// Direct spatial-domain product `y = W·x`: each block multiplies its
    /// input sub-vector in O(n²). This is the correctness reference for
    /// the spectral paths and the compute model for the *uncompressed*
    /// baselines.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    #[must_use]
    pub fn matvec_direct(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.in_dim, "matvec input length must equal in_dim");
        let n = self.block_size;
        let mut padded_x = x.to_vec();
        padded_x.resize(self.grid_cols * n, 0.0);
        let mut y = vec![0.0; self.grid_rows * n];
        for (i, j, block) in self.iter_blocks() {
            let sub = &padded_x[j * n..(j + 1) * n];
            let part = block.matvec(sub).expect("sub-vector length equals block size");
            for (acc, v) in y[i * n..(i + 1) * n].iter_mut().zip(&part) {
                *acc += v;
            }
        }
        y.truncate(self.out_dim);
        y
    }

    /// Compression statistics for this matrix (storage and FLOP
    /// accounting per Table III).
    #[must_use]
    pub fn stats(&self) -> CompressionStats {
        CompressionStats::for_matrix(self.out_dim, self.in_dim, self.block_size)
    }

    /// On-chip footprint of this matrix's spectra in the accelerator's
    /// Weight Buffer: one complex Q16.16 bin (8 bytes) per retained
    /// frequency of every block. The Weight Buffer holds the packed
    /// Hermitian half-spectrum ([`blockgnn_fft::half_spectrum_bins`]:
    /// `n/2 + 1` bins per block, not `n` — the mirrored bins are
    /// conjugates of stored ones and would be redundant registers), so
    /// the resident bytes are roughly half the full-spectrum accounting.
    #[must_use]
    pub fn spectral_weight_bytes(&self) -> usize {
        self.grid_rows()
            * self.grid_cols()
            * blockgnn_fft::half_spectrum_bins(self.block_size())
            * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockgnn_linalg::vector::linf_distance;
    use proptest::prelude::*;

    #[test]
    fn grid_geometry_with_padding() {
        let m = BlockCirculantMatrix::random(10, 6, 4, 0).unwrap();
        assert_eq!(m.grid_rows(), 3);
        assert_eq!(m.grid_cols(), 2);
        assert_eq!(m.out_dim(), 10);
        assert_eq!(m.in_dim(), 6);
        assert_eq!(m.block_size(), 4);
    }

    #[test]
    fn constructor_validation() {
        assert_eq!(
            BlockCirculantMatrix::random(0, 4, 2, 0).unwrap_err(),
            CirculantError::EmptyDimension
        );
        assert!(matches!(
            BlockCirculantMatrix::random(4, 4, 0, 0).unwrap_err(),
            CirculantError::BadBlockSize { .. }
        ));
        // wrong number of blocks
        let err =
            BlockCirculantMatrix::from_kernels(4, 4, 2, vec![vec![0.0; 2]; 3]).unwrap_err();
        assert!(matches!(err, CirculantError::BadKernelLayout { .. }));
        // wrong kernel length
        let err =
            BlockCirculantMatrix::from_kernels(4, 4, 2, vec![vec![0.0; 3]; 4]).unwrap_err();
        assert!(matches!(err, CirculantError::BadKernelLayout { .. }));
    }

    #[test]
    fn dense_round_trip_when_divisible() {
        // Start from an exactly block-circulant dense matrix; projection
        // must recover it bit-for-bit.
        let original = BlockCirculantMatrix::random(8, 8, 4, 3).unwrap();
        let dense = original.to_dense();
        let recovered = BlockCirculantMatrix::from_dense(&dense, 4).unwrap();
        assert!(original.to_dense().linf_distance(&recovered.to_dense()) < 1e-12);
    }

    #[test]
    fn matvec_direct_matches_dense() {
        for (rows, cols, n) in [(8, 8, 4), (10, 6, 4), (5, 13, 8), (16, 16, 16)] {
            let m = BlockCirculantMatrix::random(rows, cols, n, 7).unwrap();
            let x: Vec<f64> = (0..cols).map(|i| (i as f64 * 0.3).sin()).collect();
            let fast = m.matvec_direct(&x);
            let slow = m.to_dense().matvec(&x);
            assert!(linf_distance(&fast, &slow) < 1e-10, "mismatch at {rows}x{cols} n={n}");
        }
    }

    #[test]
    fn transpose_matches_padded_dense_transpose() {
        let m = BlockCirculantMatrix::random(10, 6, 4, 11).unwrap();
        let t = m.transpose();
        assert_eq!(t.out_dim(), 6);
        assert_eq!(t.in_dim(), 10);
        assert_eq!(t.to_dense().linf_distance(&m.to_dense().transpose()), 0.0);
        // The padding rows and columns transpose with the rest: every
        // block of the q × p grid is its mirror block's transpose.
        for (j, i, block) in t.iter_blocks() {
            assert_eq!(block.kernel(), m.block(i, j).transpose().kernel());
        }
    }

    #[test]
    fn set_kernel_updates_block() {
        let mut m = BlockCirculantMatrix::random(4, 4, 2, 0).unwrap();
        m.set_kernel(1, 1, vec![9.0, 8.0]).unwrap();
        assert_eq!(m.block(1, 1).kernel(), &[9.0, 8.0]);
        assert!(m.set_kernel(2, 0, vec![0.0, 0.0]).is_err());
        assert!(m.set_kernel(0, 0, vec![0.0]).is_err());
    }

    #[test]
    fn from_dense_is_frobenius_projection() {
        // Compressing and re-expanding can only reduce the distance to any
        // other block-circulant matrix with the same partitioning.
        let dense = Matrix::from_fn(6, 6, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
        let proj = BlockCirculantMatrix::from_dense(&dense, 3).unwrap();
        let err_proj = (&proj.to_dense() - &dense).frobenius_norm();
        let other = BlockCirculantMatrix::random(6, 6, 3, 21).unwrap();
        let err_other = (&other.to_dense() - &dense).frobenius_norm();
        assert!(err_proj <= err_other + 1e-12);
    }

    #[test]
    fn iter_blocks_covers_grid_in_order() {
        let m = BlockCirculantMatrix::random(4, 6, 2, 5).unwrap();
        let coords: Vec<(usize, usize)> = m.iter_blocks().map(|(i, j, _)| (i, j)).collect();
        assert_eq!(coords, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
    }

    proptest! {
        #[test]
        fn prop_matvec_direct_equals_dense(
            seed in 0u64..1000,
            rows in 1usize..20,
            cols in 1usize..20,
            n in 1usize..8,
        ) {
            let m = BlockCirculantMatrix::random(rows, cols, n, seed).unwrap();
            let x: Vec<f64> = (0..cols).map(|i| ((i + 1) as f64 * 0.17).cos()).collect();
            let fast = m.matvec_direct(&x);
            let slow = m.to_dense().matvec(&x);
            prop_assert!(linf_distance(&fast, &slow) < 1e-9);
        }
    }
}

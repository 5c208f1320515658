//! The full-spectrum form of Algorithm 1, kept as a reference.
//!
//! [`SpectralBlockCirculant`] runs the same spectral-accumulation flow as
//! [`crate::RealSpectralBlockCirculant`] over **full** complex spectra
//! (`n` bins per block, not `n/2 + 1`), one row at a time, allocating as
//! it goes. Nothing on a serving or training path uses it. It is what
//! the half-spectrum and Q16.16 kernels are tested against, and it *is*
//! the no-RFFT arm of the §V ablation (`repro ablations`), together with
//! the CirCNN-style per-block-IFFT flow Algorithm 1 improves on.

use crate::error::CirculantError;
use crate::matrix::BlockCirculantMatrix;
use blockgnn_fft::{Complex, FftPlan};

/// Pre-computed spectral form of a [`BlockCirculantMatrix`] using the
/// complex FFT (the paper's baseline CirCore datapath).
///
/// ```
/// use blockgnn_core::reference::SpectralBlockCirculant;
/// use blockgnn_core::BlockCirculantMatrix;
/// let w = BlockCirculantMatrix::random(16, 8, 8, 5).unwrap();
/// let spectral = SpectralBlockCirculant::new(&w).unwrap();
/// let x = vec![0.25; 8];
/// assert_eq!(spectral.matvec(&x).len(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct SpectralBlockCirculant {
    out_dim: usize,
    in_dim: usize,
    block_size: usize,
    grid_rows: usize,
    grid_cols: usize,
    /// `Ŵ_ij = FFT(kernel_ij)`, row-major grid order, each of length `n`.
    spectra: Vec<Vec<Complex<f64>>>,
    plan: FftPlan<f64>,
}

impl SpectralBlockCirculant {
    /// Pre-computes `Ŵ` for every block.
    ///
    /// # Errors
    ///
    /// Returns [`CirculantError::BadBlockSize`] if the block size is not a
    /// power of two (the radix-2 plan requirement).
    pub fn new(matrix: &BlockCirculantMatrix) -> Result<Self, CirculantError> {
        let n = matrix.block_size();
        let plan = FftPlan::new(n).map_err(|_| CirculantError::BadBlockSize {
            n,
            reason: "spectral execution requires a power-of-two block size",
        })?;
        let mut spectra = Vec::with_capacity(matrix.grid_rows() * matrix.grid_cols());
        for (_, _, block) in matrix.iter_blocks() {
            let spec =
                plan.forward_real(block.kernel()).expect("kernel length equals plan length");
            spectra.push(spec);
        }
        Ok(Self {
            out_dim: matrix.out_dim(),
            in_dim: matrix.in_dim(),
            block_size: n,
            grid_rows: matrix.grid_rows(),
            grid_cols: matrix.grid_cols(),
            spectra,
            plan,
        })
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

    /// Grid rows `p`.
    #[must_use]
    pub fn grid_rows(&self) -> usize {
        self.grid_rows
    }

    /// Grid columns `q`.
    #[must_use]
    pub fn grid_cols(&self) -> usize {
        self.grid_cols
    }

    /// Borrows the pre-computed spectrum `Ŵ_ij`.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is outside the grid.
    #[must_use]
    pub fn spectrum(&self, i: usize, j: usize) -> &[Complex<f64>] {
        assert!(i < self.grid_rows && j < self.grid_cols, "spectrum index out of grid");
        &self.spectra[i * self.grid_cols + j]
    }

    /// **Algorithm 1**: `y = W·x` via q forward FFTs, `p·q` element-wise
    /// spectral MACs, and `p` inverse FFTs (spectral-domain accumulation).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    #[must_use]
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.in_dim, "matvec input length must equal in_dim");
        let n = self.block_size;
        // Stage 1: FFT each input sub-vector (q transforms).
        let sub_spectra = self.input_spectra(x);
        // Stage 2+3: accumulate in the spectral domain, one IFFT per grid row.
        let mut y = Vec::with_capacity(self.grid_rows * n);
        for i in 0..self.grid_rows {
            let mut acc = vec![Complex::zero(); n];
            for (j, xs) in sub_spectra.iter().enumerate() {
                let w = &self.spectra[i * self.grid_cols + j];
                for ((a, &wv), &xv) in acc.iter_mut().zip(w).zip(xs) {
                    *a += wv * xv;
                }
            }
            self.plan.inverse(&mut acc);
            y.extend(acc.iter().map(|c| c.re));
        }
        y.truncate(self.out_dim);
        y
    }

    /// The unoptimized CirCNN-style flow: one IFFT **per block** (`p·q`
    /// inverse transforms) with accumulation in the spatial domain.
    ///
    /// Numerically identical to [`SpectralBlockCirculant::matvec`] (up to
    /// rounding); kept as the ablation baseline quantifying what the
    /// spectral-accumulation optimization saves.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    #[must_use]
    pub fn matvec_per_block_ifft(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.in_dim, "matvec input length must equal in_dim");
        let n = self.block_size;
        let sub_spectra = self.input_spectra(x);
        let mut y = vec![0.0; self.grid_rows * n];
        for i in 0..self.grid_rows {
            for (j, xs) in sub_spectra.iter().enumerate() {
                let w = &self.spectra[i * self.grid_cols + j];
                let mut prod: Vec<Complex<f64>> =
                    w.iter().zip(xs).map(|(&a, &b)| a * b).collect();
                self.plan.inverse(&mut prod);
                for (acc, c) in y[i * n..(i + 1) * n].iter_mut().zip(&prod) {
                    *acc += c.re;
                }
            }
        }
        y.truncate(self.out_dim);
        y
    }

    /// Number of inverse FFTs Algorithm 1 performs per input vector (`p`),
    /// versus `p·q` for the per-block flow. Used by the ablation report.
    #[must_use]
    pub fn ifft_count_optimized(&self) -> usize {
        self.grid_rows
    }

    /// Number of inverse FFTs the CirCNN-style flow performs (`p·q`).
    #[must_use]
    pub fn ifft_count_per_block(&self) -> usize {
        self.grid_rows * self.grid_cols
    }

    fn input_spectra(&self, x: &[f64]) -> Vec<Vec<Complex<f64>>> {
        let n = self.block_size;
        let mut padded = x.to_vec();
        padded.resize(self.grid_cols * n, 0.0);
        padded
            .chunks_exact(n)
            .map(|sub| self.plan.forward_real(sub).expect("chunk length equals plan length"))
            .collect()
    }
}

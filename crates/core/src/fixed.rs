//! Fixed-point spectral execution, bit-matching the FPGA datapath.
//!
//! The ZC706 prototype computes CirCore's entire pipeline in 32-bit fixed
//! point (§IV-B). [`FixedSpectralBlockCirculant`] reproduces that: the
//! pre-computed spectral weights are quantized to Q16.16 once (as they
//! would be when written into the Weight Buffer), and every on-line RFFT
//! butterfly, element-wise MAC, and IRFFT butterfly runs through the
//! saturating fixed-point kernels of `blockgnn-fft`. Like the float
//! serving path, the Weight Buffer holds only the packed Hermitian
//! half-spectrum (`n/2 + 1` bins per block — conjugate-symmetric bins
//! would be redundant registers in hardware), and a reusable
//! [`FixedSpectralScratch`] keeps the steady-state matvec loop
//! allocation-free. The functional mode of the hardware simulator
//! delegates its arithmetic here, so simulator outputs carry genuine
//! quantization error rather than idealized floats.

use crate::error::CirculantError;
use crate::matrix::BlockCirculantMatrix;
use blockgnn_fft::fixed_fft::{FixedComplex, FixedRealFftPlan};
use blockgnn_fft::{half_spectrum_bins, Q16_16};

/// Reusable Q16.16 workspace for [`FixedSpectralBlockCirculant`]: the
/// padded tail block, per-chunk input half-spectra, spectral
/// accumulator, and IRFFT output block. The fixed-point counterpart of
/// [`crate::SpectralScratch`]; `Clone` likewise yields an empty scratch.
#[derive(Debug, Default)]
pub struct FixedSpectralScratch {
    pad: Vec<Q16_16>,
    input_spectra: Vec<FixedComplex>,
    acc: Vec<FixedComplex>,
    time: Vec<Q16_16>,
    block_size: usize,
    chunks: usize,
}

impl Clone for FixedSpectralScratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl FixedSpectralScratch {
    /// A fresh, empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, block_size: usize, chunks: usize) {
        if self.block_size == block_size && self.chunks == chunks {
            return;
        }
        let bins = half_spectrum_bins(block_size);
        self.pad.resize(block_size, Q16_16::ZERO);
        self.input_spectra.resize(chunks * bins, FixedComplex::ZERO);
        self.acc.resize(bins, FixedComplex::ZERO);
        self.time.resize(block_size, Q16_16::ZERO);
        self.block_size = block_size;
        self.chunks = chunks;
    }
}

/// Q16.16 spectral form of a [`BlockCirculantMatrix`] with packed
/// half-spectrum weights.
///
/// ```
/// use blockgnn_core::{BlockCirculantMatrix, FixedSpectralBlockCirculant};
/// let w = BlockCirculantMatrix::random(8, 8, 4, 2).unwrap();
/// let fx = FixedSpectralBlockCirculant::new(&w).unwrap();
/// let x = vec![0.5; 8];
/// let y = fx.matvec(&x);
/// let reference = w.matvec_direct(&x);
/// for (a, b) in y.iter().zip(&reference) {
///     assert!((a - b).abs() < 1e-2); // quantization-level agreement
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FixedSpectralBlockCirculant {
    out_dim: usize,
    in_dim: usize,
    block_size: usize,
    grid_rows: usize,
    grid_cols: usize,
    /// Quantized packed half-spectra `Ŵ_ij` in row-major grid order,
    /// `n/2 + 1` bins each.
    spectra: Vec<Vec<FixedComplex>>,
    plan: FixedRealFftPlan,
}

impl FixedSpectralBlockCirculant {
    /// Quantizes the spectral weights of `matrix` into Q16.16.
    ///
    /// # Errors
    ///
    /// Returns [`CirculantError::BadBlockSize`] if the block size is not a
    /// power of two.
    pub fn new(matrix: &BlockCirculantMatrix) -> Result<Self, CirculantError> {
        let n = matrix.block_size();
        let plan = FixedRealFftPlan::new(n).map_err(|_| CirculantError::BadBlockSize {
            n,
            reason: "fixed-point spectral execution requires a power-of-two block size",
        })?;
        // Quantize weights *after* an exact float RFFT: this matches the
        // deployment flow, where Ŵ is computed offline at full precision
        // and only the stored (packed) copy is fixed-point.
        let float_plan = blockgnn_fft::RealFftPlan::<f64>::new(n)
            .expect("same power-of-two length as fixed plan");
        let mut spectra = Vec::with_capacity(matrix.grid_rows() * matrix.grid_cols());
        for (_, _, block) in matrix.iter_blocks() {
            let spec =
                float_plan.forward(block.kernel()).expect("kernel length equals plan length");
            spectra.push(spec.iter().map(|&c| FixedComplex::from_f64(c)).collect());
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

    /// Number of packed bins per block (`n/2 + 1`).
    #[must_use]
    pub fn spectrum_len(&self) -> usize {
        half_spectrum_bins(self.block_size)
    }

    /// Borrows the quantized packed half-spectrum `Ŵ_ij` (what the
    /// Weight Buffer holds).
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is outside the grid.
    #[must_use]
    pub fn spectrum(&self, i: usize, j: usize) -> &[FixedComplex] {
        assert!(i < self.grid_rows && j < self.grid_cols, "spectrum index out of grid");
        &self.spectra[i * self.grid_cols + j]
    }

    /// Algorithm 1 through the fixed-point datapath, on float input/output
    /// (quantize → compute → dequantize).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    #[must_use]
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        self.matvec_with(x, &mut FixedSpectralScratch::new())
    }

    /// Float-in/float-out Algorithm 1 reusing `scratch` — what the
    /// functional CirCore simulator's batch loop calls so repeated
    /// matvecs stop allocating workspace.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    #[must_use]
    pub fn matvec_with(&self, x: &[f64], scratch: &mut FixedSpectralScratch) -> Vec<f64> {
        assert_eq!(x.len(), self.in_dim, "matvec input length must equal in_dim");
        let qx: Vec<Q16_16> = x.iter().map(|&v| Q16_16::from_f64(v)).collect();
        self.matvec_fixed_with(&qx, scratch).into_iter().map(Q16_16::to_f64).collect()
    }

    /// Algorithm 1 entirely in Q16.16, as the hardware executes it.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    #[must_use]
    pub fn matvec_fixed(&self, x: &[Q16_16]) -> Vec<Q16_16> {
        self.matvec_fixed_with(x, &mut FixedSpectralScratch::new())
    }

    /// Algorithm 1 in Q16.16 reusing `scratch` (see also
    /// [`FixedSpectralBlockCirculant::matvec_with`] for the float-edged
    /// form the functional CirCore simulator uses).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    #[must_use]
    pub fn matvec_fixed_with(
        &self,
        x: &[Q16_16],
        scratch: &mut FixedSpectralScratch,
    ) -> Vec<Q16_16> {
        assert_eq!(x.len(), self.in_dim, "matvec input length must equal in_dim");
        let n = self.block_size;
        let (p, q) = (self.grid_rows, self.grid_cols);
        scratch.ensure(n, q);
        let bins = half_spectrum_bins(n);

        // Stage 1 — RFFT unit: q on-line transforms of the sub-vectors
        // (aligned chunks straight from the input, ragged tail padded).
        for j in 0..q {
            let start = j * n;
            let dst = &mut scratch.input_spectra[j * bins..(j + 1) * bins];
            if start + n <= x.len() {
                self.plan.forward_into(&x[start..start + n], dst);
            } else {
                let avail = x.len().saturating_sub(start);
                scratch.pad[..avail].copy_from_slice(&x[start..]);
                scratch.pad[avail..].fill(Q16_16::ZERO);
                self.plan.forward_into(&scratch.pad, dst);
            }
        }

        // Stage 2 — systolic MAC: packed spectral accumulate per grid row.
        // Stage 3 — IRFFT unit: one inverse transform per grid row.
        let mut y = vec![Q16_16::ZERO; self.out_dim];
        for i in 0..p {
            scratch.acc.fill(FixedComplex::ZERO);
            for j in 0..q {
                let w = &self.spectra[i * q + j];
                let xs = &scratch.input_spectra[j * bins..(j + 1) * bins];
                for ((a, &wv), &xv) in scratch.acc.iter_mut().zip(w).zip(xs) {
                    *a = a.add(wv.mul(xv));
                }
            }
            self.plan.inverse_into(&mut scratch.acc, &mut scratch.time);
            let start = i * n;
            let take = n.min(self.out_dim - start);
            y[start..start + take].copy_from_slice(&scratch.time[..take]);
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockgnn_linalg::vector::linf_distance;

    fn small_input(len: usize) -> Vec<f64> {
        (0..len).map(|i| ((i as f64 + 0.5) * 0.61).sin()).collect()
    }

    #[test]
    fn rejects_non_power_of_two() {
        let m = BlockCirculantMatrix::random(6, 6, 3, 0).unwrap();
        assert!(FixedSpectralBlockCirculant::new(&m).is_err());
    }

    #[test]
    fn fixed_path_tracks_float_path() {
        for (rows, cols, n) in [(8, 8, 4), (16, 12, 8), (32, 32, 16), (64, 64, 64)] {
            let m = BlockCirculantMatrix::random(rows, cols, n, 17).unwrap();
            let float = crate::reference::SpectralBlockCirculant::new(&m).unwrap();
            let fixed = FixedSpectralBlockCirculant::new(&m).unwrap();
            let x = small_input(cols);
            let yf = float.matvec(&x);
            let yq = fixed.matvec(&x);
            let err = linf_distance(&yf, &yq);
            // Error budget: ~n rounding steps at 2^-16 resolution each,
            // amplified by FFT gain; stay within a generous but
            // meaningful bound.
            assert!(err < 5e-2, "fixed-point error {err} too large at n={n}");
        }
    }

    #[test]
    fn fixed_and_float_entry_points_agree() {
        let m = BlockCirculantMatrix::random(8, 8, 8, 3).unwrap();
        let fixed = FixedSpectralBlockCirculant::new(&m).unwrap();
        let x = small_input(8);
        let via_float = fixed.matvec(&x);
        let qx: Vec<Q16_16> = x.iter().map(|&v| Q16_16::from_f64(v)).collect();
        let via_fixed: Vec<f64> =
            fixed.matvec_fixed(&qx).into_iter().map(Q16_16::to_f64).collect();
        assert!(linf_distance(&via_float, &via_fixed) < 1e-12);
    }

    #[test]
    fn scratch_reuse_is_bit_stable() {
        let m = BlockCirculantMatrix::random(16, 12, 8, 7).unwrap();
        let fixed = FixedSpectralBlockCirculant::new(&m).unwrap();
        let mut scratch = FixedSpectralScratch::new();
        for trial in 0..3 {
            let x: Vec<Q16_16> = small_input(12)
                .iter()
                .map(|&v| Q16_16::from_f64(v * (trial as f64 + 1.0)))
                .collect();
            assert_eq!(
                fixed.matvec_fixed_with(&x, &mut scratch),
                fixed.matvec_fixed(&x),
                "warm scratch diverged on trial {trial}"
            );
        }
    }

    #[test]
    fn dimensions_and_spectrum_access() {
        let m = BlockCirculantMatrix::random(10, 6, 4, 5).unwrap();
        let fixed = FixedSpectralBlockCirculant::new(&m).unwrap();
        assert_eq!(fixed.out_dim(), 10);
        assert_eq!(fixed.in_dim(), 6);
        assert_eq!(fixed.block_size(), 4);
        // Packed storage: n/2 + 1 bins, not n.
        assert_eq!(fixed.spectrum(2, 1).len(), 3);
        assert_eq!(fixed.spectrum_len(), 3);
        assert_eq!(fixed.matvec(&small_input(6)).len(), 10);
    }

    #[test]
    fn saturation_does_not_panic_on_large_values() {
        let m = BlockCirculantMatrix::random(8, 8, 8, 5).unwrap();
        let fixed = FixedSpectralBlockCirculant::new(&m).unwrap();
        // Large inputs saturate rather than overflow.
        let x = vec![30000.0; 8];
        let y = fixed.matvec(&x);
        assert_eq!(y.len(), 8);
        assert!(y.iter().all(|v| v.is_finite()));
    }
}

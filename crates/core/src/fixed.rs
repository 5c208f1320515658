//! Fixed-point spectral execution, bit-matching the FPGA datapath.
//!
//! The ZC706 prototype computes CirCore's entire pipeline in 32-bit fixed
//! point (§IV-B). There is no second kernel for it: the Q16.16 datapath is
//! [`RealSpectralBlockCirculant`] at `T = Q16_16` — the spectral weights,
//! computed offline in f64, are rounded once into the Weight Buffer's
//! format ([`RealSpectralBlockCirculant::quantize`]), and every on-line
//! RFFT butterfly, element-wise MAC and IRFFT butterfly of the shared tile
//! then saturates and rounds as `blockgnn_fft::Q16_16` does. Like the
//! float serving path, the Weight Buffer holds only the packed Hermitian
//! half-spectrum (`n/2 + 1` bins per block — conjugate-symmetric bins
//! would be redundant registers in hardware).
//!
//! The float edges — quantize the f64 input, run the Q16.16 kernel,
//! dequantize, then add the bias in f64 as the VPU does — are written
//! once, as [`RealSpectralBlockCirculant::matmul_f64_into`]. The serving
//! engine's accelerator backend (a circulant layer prepared for
//! `ExecMode::FixedSpectral` in `blockgnn_nn`) and
//! [`FixedSpectralBlockCirculant`] both call it, so their outputs carry
//! the datapath's quantization error rather than idealized floats.

use crate::error::CirculantError;
use crate::matrix::BlockCirculantMatrix;
use crate::spectral::{RealSpectralBlockCirculant, SpectralScratch};
use blockgnn_fft::Q16_16;
use std::mem::take;

/// Q16.16 spectral form of a [`BlockCirculantMatrix`] with packed
/// half-spectrum weights, taking and returning `f64`. Owns the kernel's
/// workspace, so repeated products allocate no spectral buffers after the
/// first (`Clone` yields it empty, like any [`SpectralScratch`]).
///
/// ```
/// use blockgnn_core::{BlockCirculantMatrix, FixedSpectralBlockCirculant};
/// let w = BlockCirculantMatrix::random(8, 8, 4, 2).unwrap();
/// let mut fx = FixedSpectralBlockCirculant::new(&w).unwrap();
/// let x = vec![0.5; 8];
/// let y = fx.matvec(&x);
/// let reference = w.matvec_direct(&x);
/// for (a, b) in y.iter().zip(&reference) {
///     assert!((a - b).abs() < 1e-2); // quantization-level agreement
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FixedSpectralBlockCirculant {
    kernel: RealSpectralBlockCirculant<Q16_16>,
    scratch: SpectralScratch<Q16_16>,
}

impl FixedSpectralBlockCirculant {
    /// Quantizes the spectral weights of `matrix` into Q16.16.
    ///
    /// # Errors
    ///
    /// Returns [`CirculantError::BadBlockSize`] if the block size is not a
    /// power of two.
    pub fn new(matrix: &BlockCirculantMatrix) -> Result<Self, CirculantError> {
        let kernel = RealSpectralBlockCirculant::new(matrix)?.quantize();
        Ok(Self { kernel, scratch: SpectralScratch::new() })
    }

    /// The Q16.16 kernel itself: geometry, the quantized spectra the
    /// Weight Buffer holds, and the all-fixed-point entry points.
    #[must_use]
    pub fn kernel(&self) -> &RealSpectralBlockCirculant<Q16_16> {
        &self.kernel
    }

    /// Algorithm 1 through the fixed-point datapath for one vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    pub fn matvec(&mut self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.kernel.in_dim(), "matvec input length must equal in_dim");
        self.matmul(x)
    }

    /// Algorithm 1 through the fixed-point datapath for every row of the
    /// row-major `rows × in_dim` input, as one batched call on the shared
    /// tile; returns the row-major `rows × out_dim` result.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not a multiple of `in_dim`.
    pub fn matmul(&mut self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; x.len() / self.kernel.in_dim() * self.kernel.out_dim()];
        self.kernel.matmul_f64_into(x, None, &mut self.scratch, &mut y);
        y
    }
}

impl RealSpectralBlockCirculant<Q16_16> {
    /// [`RealSpectralBlockCirculant::matmul_into`] in Q16.16 behind f64
    /// edges: every input value is rounded into Q16.16, the batch runs
    /// through the fixed-point tile, each output is dequantized, and
    /// `bias` (if any) is then added in f64 — the VPU's bias add, after
    /// CirCore. Row-major `rows × in_dim` in, `rows × out_dim` out (every
    /// entry overwritten); a row's bits depend only on that row. The
    /// quantized input and output are staged in `scratch`, so a warm call
    /// allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not a multiple of `in_dim`, `out.len()` is
    /// not `rows · out_dim`, or `bias` is not `out_dim` long.
    pub fn matmul_f64_into(
        &self,
        x: &[f64],
        bias: Option<&[f64]>,
        scratch: &mut SpectralScratch<Q16_16>,
        out: &mut [f64],
    ) {
        assert!(
            bias.is_none_or(|b| b.len() == self.out_dim()),
            "bias length must equal out_dim"
        );
        let (mut qx, mut qy) = (take(&mut scratch.input), take(&mut scratch.output));
        qx.clear();
        qx.extend(x.iter().map(|&v| Q16_16::from_f64(v)));
        qy.clear();
        qy.resize(out.len(), Q16_16::ZERO);
        self.matmul_into(&qx, None, scratch, &mut qy);
        for (o, q) in out.iter_mut().zip(&qy) {
            *o = q.to_f64();
        }
        (scratch.input, scratch.output) = (qx, qy);
        if let Some(bias) = bias {
            for row in out.chunks_exact_mut(bias.len()) {
                for (o, b) in row.iter_mut().zip(bias) {
                    *o += b;
                }
            }
        }
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
            let mut fixed = FixedSpectralBlockCirculant::new(&m).unwrap();
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
        // The float-edged call is quantize → the Q16.16 kernel → dequantize.
        let m = BlockCirculantMatrix::random(8, 8, 8, 3).unwrap();
        let mut fixed = FixedSpectralBlockCirculant::new(&m).unwrap();
        let x = small_input(8);
        let via_float = fixed.matvec(&x);
        let qx: Vec<Q16_16> = x.iter().map(|&v| Q16_16::from_f64(v)).collect();
        let via_fixed: Vec<f64> =
            fixed.kernel().matvec(&qx).into_iter().map(Q16_16::to_f64).collect();
        assert_eq!(via_float, via_fixed);
    }

    #[test]
    fn scratch_reuse_is_bit_stable() {
        let m = BlockCirculantMatrix::random(16, 12, 8, 7).unwrap();
        let mut fixed = FixedSpectralBlockCirculant::new(&m).unwrap();
        for trial in 0..3 {
            // 1, 9 and 17 rows: the one-lane tail alone, then behind one
            // and two tiles.
            let rows = 1 + 8 * trial;
            let x: Vec<f64> =
                small_input(rows * 12).iter().map(|v| v * (trial as f64 + 1.0)).collect();
            let mut cold = fixed.clone();
            let alone: Vec<f64> = x.chunks(12).flat_map(|row| cold.matvec(row)).collect();
            assert_eq!(
                fixed.matmul(&x),
                alone,
                "warm scratch or batching diverged on trial {trial}"
            );
        }
    }

    #[test]
    fn dimensions_and_spectrum_access() {
        let m = BlockCirculantMatrix::random(10, 6, 4, 5).unwrap();
        let mut fixed = FixedSpectralBlockCirculant::new(&m).unwrap();
        let kernel = fixed.kernel();
        assert_eq!(kernel.out_dim(), 10);
        assert_eq!(kernel.in_dim(), 6);
        assert_eq!(kernel.block_size(), 4);
        // Packed storage: n/2 + 1 bins, not n — the f64 spectra, rounded.
        assert_eq!(kernel.spectrum(2, 1).len(), 3);
        assert_eq!(kernel.spectrum_len(), 3);
        let float = RealSpectralBlockCirculant::new(&m).unwrap();
        for (q, f) in kernel.spectrum(2, 1).iter().zip(float.spectrum(2, 1)) {
            assert_eq!((q.re, q.im), (Q16_16::from_f64(f.re), Q16_16::from_f64(f.im)));
        }
        assert_eq!(fixed.matvec(&small_input(6)).len(), 10);
    }

    #[test]
    fn saturation_does_not_panic_on_large_values() {
        let m = BlockCirculantMatrix::random(8, 8, 8, 5).unwrap();
        let mut fixed = FixedSpectralBlockCirculant::new(&m).unwrap();
        // Large inputs saturate rather than overflow.
        let x = vec![30000.0; 8];
        let y = fixed.matvec(&x);
        assert_eq!(y.len(), 8);
        assert!(y.iter().all(|v| v.is_finite()));
    }
}

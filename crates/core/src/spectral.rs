//! Spectral-domain execution of block-circulant products — Algorithm 1.
//!
//! The trained weights are transformed **once** into the spectral domain
//! (the paper's pre-computed `Ŵ`); at inference time only the feature
//! sub-vectors are FFT'd on the fly. Because the IFFT is linear,
//! `Σ_j IFFT(Ŵ_ij ∘ X_j) = IFFT(Σ_j Ŵ_ij ∘ X_j)`, so the per-row
//! accumulation happens in the spectral domain and only `p` IFFTs are
//! required instead of `p·q` — the optimization the paper highlights over
//! CirCNN’s original flow (its reference \[19\] made the same observation).
//!
//! [`RealSpectralBlockCirculant`] is the production kernel — the §V RFFT
//! refinement over Hermitian half-spectra (`n/2 + 1` bins per block),
//! batched over feature rows. It is the workspace's only f64
//! half-spectrum MAC loop: [`RealSpectralBlockCirculant::matvec_into`]
//! and `blockgnn_nn::CirculantDense` (prepared and training forward
//! alike) all run [`RealSpectralBlockCirculant::matmul_into`]. The same
//! algorithm over **full** complex spectra, one row at a time, is
//! [`crate::reference::SpectralBlockCirculant`] — the oracle the tests
//! below hold this kernel to.
//!
//! # What is stored where
//!
//! * **Weights** — one contiguous `Vec<Complex<f64>>`,
//!   `[grid_row][grid_col][bin]`: the MAC of grid row `i` reads its
//!   `q · (n/2 + 1)` weights front to back.
//! * **Inputs** — `LANES` (8) rows at a time are transposed into
//!   [`blockgnn_fft::ComplexLanes`] elements, `[grid_col][bin]` of them:
//!   per bin the 8 rows' real parts side by side, then their imaginary
//!   parts, so the **row (lane) index is innermost**. The RFFT
//!   butterflies and untangle
//!   ([`blockgnn_fft::RealFftPlan::forward_lanes`]), the spectral MAC
//!   and the IRFFT are then plain `for lane in 0..LANES` loops over
//!   `[f64; LANES]` — no intrinsics, nothing for a target flag to switch
//!   on — and every twiddle and weight is loaded once per tile instead
//!   of once per row. One grid row's accumulator has the same element
//!   type; both live in the caller's [`SpectralScratch`].
//! * **Which vectors those loops become** is decided at run time: the
//!   full tiles run through [`blockgnn_linalg::isa::dispatch`], with the
//!   tile body and the lane transforms under it forced inline, so on a
//!   CPU with AVX2 they execute as four-f64 vectors (an 8-row lane group
//!   is two registers) and elsewhere as the build's baseline (SSE2: four
//!   registers). Same source, no FMA either way.
//! * Rows left over after the last full tile run through the **same
//!   body at one lane** — the element is then a plain `Complex<f64>`, so
//!   a one-row call pays for one row (and a weight layout that left only
//!   the lane axis to vectorise, such as bin-major, would make exactly
//!   that call slower). They stay on the baseline codegen: one lane has
//!   nothing to widen, and sent down the AVX2 route the one-row layer
//!   call measured 1.06 → 2.3–2.9 µs.
//!
//! # Row independence
//!
//! A row's output bits depend only on that row and the weights — not on
//! the batch size, its position in the batch, or its tile-mates, nor on
//! the ISA the tile was compiled for. It holds because lanes never mix
//! (no operation reads two lanes), every lane is given the same
//! operations in the same order whatever the width (one generic body,
//! [`blockgnn_fft::Lanes`]), Rust never contracts `a*b + c` into a fused
//! multiply-add or reassociates a sum, and a vector add, multiply or
//! subtract is the scalar one per lane at any register width.
//! Coalesced-vs-single serving, staged-vs-monolithic passes and
//! delta-vs-rebuild all lean on this; the tests below check it by
//! `f64::to_bits`, including the dispatched tiles against the same body
//! called directly.

use crate::error::CirculantError;
use crate::matrix::BlockCirculantMatrix;
use blockgnn_fft::{half_spectrum_bins, Complex, ComplexLanes, Lanes, RealFftPlan};
use blockgnn_linalg::isa;

/// Rows per transform pass of [`RealSpectralBlockCirculant::matmul_into`]
/// (4 and 16 both measured slower on the GS-Pool layer shapes).
const LANES: usize = 8;

/// Reusable workspace of the half-spectrum kernel: a tile's input
/// spectra and one grid row's accumulator, at each of the two widths the
/// kernel runs (see the module docs). Grown on first use and kept across
/// rows, layers and requests — the owner decides the sharing scope (each
/// `CirculantDense` layer and each [`RealSpectralBlockCirculant`] caller
/// holds its own, so forked serving replicas never contend).
///
/// `Clone` intentionally produces an **empty** scratch: cloning a
/// prepared layer (how the serving engine forks per-worker replicas)
/// must not copy request-scoped buffers, and the clone re-grows its own
/// workspace on first use.
#[derive(Debug, Default)]
pub struct SpectralScratch {
    tile: Vec<ComplexLanes<f64, LANES>>,
    row: Vec<Complex<f64>>,
}

impl Clone for SpectralScratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl SpectralScratch {
    /// A fresh, empty scratch; the buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Pre-computed spectral form using the **real** FFT (§V refinement):
/// `n/2 + 1` bins per block instead of `n`, halving MAC work and resident
/// weight bytes relative to the complex path, applied to a tile of rows
/// per transform pass (layout and the row-independence contract are in
/// the module docs). Pair it with a [`SpectralScratch`] and the
/// steady-state loop allocates nothing.
///
/// ```
/// use blockgnn_core::{BlockCirculantMatrix, RealSpectralBlockCirculant, SpectralScratch};
/// let w = BlockCirculantMatrix::random(6, 10, 4, 5).unwrap();
/// let kernel = RealSpectralBlockCirculant::new(&w).unwrap();
/// let x: Vec<f64> = (0..3 * 10).map(|i| i as f64 * 0.1).collect(); // 3 rows
/// let mut y = vec![0.0; 3 * 6];
/// kernel.matmul_into(&x, None, &mut SpectralScratch::new(), &mut y);
/// assert_eq!(&y[6..12], kernel.matvec(&x[10..20]).as_slice()); // row 1, alone
/// ```
#[derive(Debug, Clone)]
pub struct RealSpectralBlockCirculant {
    out_dim: usize,
    in_dim: usize,
    block_size: usize,
    grid_rows: usize,
    grid_cols: usize,
    /// `Ŵ`, one contiguous buffer: block `(i, j)`'s bins at
    /// `[(i·q + j)·bins .. +bins]`.
    weights: Vec<Complex<f64>>,
    plan: RealFftPlan<f64>,
}

impl RealSpectralBlockCirculant {
    /// Pre-computes the half-spectra `Ŵ`.
    ///
    /// # Errors
    ///
    /// Returns [`CirculantError::BadBlockSize`] if the block size is not
    /// a power of two.
    pub fn new(matrix: &BlockCirculantMatrix) -> Result<Self, CirculantError> {
        let kernels: Vec<f64> =
            matrix.iter_blocks().flat_map(|(_, _, block)| block.kernel()).copied().collect();
        Self::from_kernels(matrix.out_dim(), matrix.in_dim(), matrix.block_size(), &kernels)
    }

    /// [`RealSpectralBlockCirculant::new`] from flat kernels — block
    /// `(i, j)`'s first column at `[(i·q + j)·n .. +n]`, the layout a
    /// trainable layer keeps its parameters in.
    ///
    /// # Errors
    ///
    /// Returns [`CirculantError::BadBlockSize`] if `block_size` is not a
    /// power of two, [`CirculantError::EmptyDimension`] if a dimension is
    /// zero, and [`CirculantError::BadKernelLayout`] if `kernels` is not
    /// `⌈N/n⌉ · ⌈M/n⌉ · n` long.
    pub fn from_kernels(
        out_dim: usize,
        in_dim: usize,
        block_size: usize,
        kernels: &[f64],
    ) -> Result<Self, CirculantError> {
        let plan = RealFftPlan::new(block_size).map_err(|_| CirculantError::BadBlockSize {
            n: block_size,
            reason: "real-spectral execution requires a power-of-two block size",
        })?;
        if out_dim == 0 || in_dim == 0 {
            return Err(CirculantError::EmptyDimension);
        }
        let (grid_rows, grid_cols) =
            (out_dim.div_ceil(block_size), in_dim.div_ceil(block_size));
        if kernels.len() != grid_rows * grid_cols * block_size {
            return Err(CirculantError::BadKernelLayout {
                what: format!(
                    "expected {grid_rows}x{grid_cols} kernels of length {block_size}, got {} values",
                    kernels.len()
                ),
            });
        }
        let bins = plan.spectrum_len();
        let mut weights = vec![Complex::zero(); grid_rows * grid_cols * bins];
        for (kernel, spectrum) in
            kernels.chunks_exact(block_size).zip(weights.chunks_exact_mut(bins))
        {
            plan.forward_into(kernel, spectrum).expect("kernel length matches plan");
        }
        Ok(Self { out_dim, in_dim, block_size, grid_rows, grid_cols, weights, plan })
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

    /// Number of complex bins stored per block (`n/2 + 1`).
    #[must_use]
    pub fn spectrum_len(&self) -> usize {
        half_spectrum_bins(self.block_size)
    }

    /// Borrows the half-spectrum `Ŵ_ij` (`n/2 + 1` bins).
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is outside the grid.
    #[must_use]
    pub fn spectrum(&self, i: usize, j: usize) -> &[Complex<f64>] {
        assert!(i < self.grid_rows && j < self.grid_cols, "spectrum index out of grid");
        let bins = self.spectrum_len();
        &self.weights[(i * self.grid_cols + j) * bins..][..bins]
    }

    /// Algorithm 1 over half-spectra with a fresh workspace: q RFFTs,
    /// `p·q` half-length MAC passes, `p` IRFFTs. Convenience wrapper
    /// around [`RealSpectralBlockCirculant::matvec_with`] for callers
    /// that do not keep a scratch alive.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    #[must_use]
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        self.matvec_with(x, &mut SpectralScratch::new())
    }

    /// Algorithm 1 over half-spectra reusing `scratch` — zero heap
    /// allocations beyond the returned vector once the scratch is warm.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    #[must_use]
    pub fn matvec_with(&self, x: &[f64], scratch: &mut SpectralScratch) -> Vec<f64> {
        let mut y = vec![0.0; self.out_dim];
        self.matvec_into(x, scratch, &mut y);
        y
    }

    /// Fully write-into form of the half-spectrum Algorithm 1: the
    /// result lands in `out` (every entry overwritten). The one-row call
    /// of [`RealSpectralBlockCirculant::matmul_into`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim` or `out.len() != out_dim`.
    pub fn matvec_into(&self, x: &[f64], scratch: &mut SpectralScratch, out: &mut [f64]) {
        assert_eq!(x.len(), self.in_dim, "matvec input length must equal in_dim");
        self.matmul_into(x, None, scratch, out);
    }

    /// Algorithm 1 over a batch: `out[r] = W·x[r] (+ bias)` for every
    /// row of the row-major `rows × in_dim` input, written into the
    /// row-major `rows × out_dim` output (every entry overwritten).
    /// Full tiles of `LANES` (8) rows share each transform pass; the rest
    /// run one row at a time through the same body, and either way a
    /// row's bits are those of its own one-row call (module docs).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not a multiple of `in_dim`, `out.len()` is
    /// not `rows · out_dim`, or `bias` is not `out_dim` long.
    pub fn matmul_into(
        &self,
        x: &[f64],
        bias: Option<&[f64]>,
        scratch: &mut SpectralScratch,
        out: &mut [f64],
    ) {
        let rows = x.len() / self.in_dim;
        assert_eq!(x.len(), rows * self.in_dim, "matmul input must be whole rows of in_dim");
        assert_eq!(out.len(), rows * self.out_dim, "matmul output must be rows × out_dim");
        assert!(bias.is_none_or(|b| b.len() == self.out_dim), "bias length must equal out_dim");
        let tiled = rows - rows % LANES;
        isa::dispatch(
            #[inline(always)]
            || self.full_tiles(tiled, x, bias, &mut scratch.tile, out),
        );
        for first in tiled..rows {
            self.tile(first, x, bias, &mut scratch.row, out);
        }
    }

    /// The first `tiled` rows (a multiple of `LANES`) of
    /// [`RealSpectralBlockCirculant::matmul_into`], a tile at a time —
    /// the body `matmul_into` runs through [`isa::dispatch`]. Called
    /// directly it is the same source compiled for the build's baseline,
    /// which is how the tests hold the two codegens to the same bits.
    #[inline(always)]
    fn full_tiles(
        &self,
        tiled: usize,
        x: &[f64],
        bias: Option<&[f64]>,
        buffer: &mut Vec<ComplexLanes<f64, LANES>>,
        out: &mut [f64],
    ) {
        for first in (0..tiled).step_by(LANES) {
            self.tile(first, x, bias, buffer, out);
        }
    }

    /// Rows `first_row .. first_row + E::WIDTH` of
    /// [`RealSpectralBlockCirculant::matmul_into`], one per lane. Forced
    /// inline (with the lane transforms under it) so that the 8-lane
    /// instance compiles for the ISA [`isa::dispatch`] picked; the
    /// one-lane instance is inlined into `matmul_into` itself and stays
    /// on the baseline.
    #[inline(always)]
    fn tile<E: Lanes<f64>>(
        &self,
        first_row: usize,
        x: &[f64],
        bias: Option<&[f64]>,
        buffer: &mut Vec<E>,
        out: &mut [f64],
    ) {
        let (n, q, bins) = (self.block_size, self.grid_cols, self.spectrum_len());
        buffer.resize((q + 1) * bins, E::ZERO);
        let (spectra, acc) = buffer.split_at_mut(q * bins);

        // Transpose the rows in, packed for the RFFT (samples 2k and 2k+1
        // of a chunk are element k); the ragged last chunk is zero-padded.
        for l in 0..E::WIDTH {
            let row = &x[(first_row + l) * self.in_dim..][..self.in_dim];
            for (chunk, packed) in row.chunks(n).zip(spectra.chunks_exact_mut(bins)) {
                let sample = |t: usize| chunk.get(t).copied().unwrap_or(0.0);
                for (k, z) in packed[..n.div_ceil(2)].iter_mut().enumerate() {
                    z.set_lane(l, Complex::new(sample(2 * k), sample(2 * k + 1)));
                }
            }
        }
        for chunk in spectra.chunks_exact_mut(bins) {
            self.plan.forward_lanes(chunk).expect("a chunk's bins match the plan");
        }

        for (i, w_row) in self.weights.chunks_exact(q * bins).enumerate() {
            // Grid row i: Σ_j Ŵ_ij ∘ X̂_j with the weights read in order,
            // then one IRFFT.
            acc.fill(E::ZERO);
            for (w_block, x_chunk) in w_row.chunks_exact(bins).zip(spectra.chunks_exact(bins)) {
                for ((a, &w), x) in acc.iter_mut().zip(w_block).zip(x_chunk) {
                    for l in 0..E::WIDTH {
                        a.set_lane(l, a.lane(l) + w * x.lane(l));
                    }
                }
            }
            self.plan.inverse_lanes(acc).expect("the accumulator matches the plan");
            // Transpose back out (the accumulator holds the packed signal
            // again), truncating the last grid row to the logical output.
            let (start, end) = (i * n, ((i + 1) * n).min(self.out_dim));
            for l in 0..E::WIDTH {
                let y = &mut out[(first_row + l) * self.out_dim..][start..end];
                for (pair, z) in y.chunks_mut(2).zip(acc.iter()) {
                    pair[0] = z.lane(l).re;
                    if let Some(odd) = pair.get_mut(1) {
                        *odd = z.lane(l).im;
                    }
                }
                if let Some(bias) = bias {
                    for (o, b) in y.iter_mut().zip(&bias[start..end]) {
                        *o += b;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::SpectralBlockCirculant;
    use blockgnn_fft::FftPlan;
    use blockgnn_linalg::vector::linf_distance;
    use proptest::prelude::*;

    fn test_input(len: usize) -> Vec<f64> {
        (0..len).map(|i| ((i as f64 + 1.0) * 0.37).sin() * 2.0).collect()
    }

    #[test]
    fn rejects_non_power_of_two_blocks() {
        let m = BlockCirculantMatrix::random(9, 9, 3, 0).unwrap();
        assert!(matches!(
            SpectralBlockCirculant::new(&m).unwrap_err(),
            CirculantError::BadBlockSize { n: 3, .. }
        ));
        assert!(RealSpectralBlockCirculant::new(&m).is_err());
    }

    #[test]
    fn algorithm1_matches_direct_product() {
        for (rows, cols, n) in
            [(8, 8, 4), (16, 8, 8), (10, 6, 4), (7, 129, 16), (128, 512, 128)]
        {
            let m = BlockCirculantMatrix::random(rows, cols, n, 13).unwrap();
            let s = SpectralBlockCirculant::new(&m).unwrap();
            let x = test_input(cols);
            let fast = s.matvec(&x);
            let direct = m.matvec_direct(&x);
            assert!(
                linf_distance(&fast, &direct) < 1e-8,
                "spectral mismatch at {rows}x{cols} n={n}"
            );
        }
    }

    #[test]
    fn per_block_ifft_flow_is_equivalent() {
        let m = BlockCirculantMatrix::random(24, 20, 8, 99).unwrap();
        let s = SpectralBlockCirculant::new(&m).unwrap();
        let x = test_input(20);
        assert!(linf_distance(&s.matvec(&x), &s.matvec_per_block_ifft(&x)) < 1e-9);
        // Accounting: the optimization reduces IFFTs from p*q to p.
        assert_eq!(s.ifft_count_optimized(), 3);
        assert_eq!(s.ifft_count_per_block(), 9);
    }

    #[test]
    fn rfft_path_matches_complex_path() {
        for (rows, cols, n) in [(8, 8, 4), (16, 24, 8), (50, 30, 16), (128, 100, 128)] {
            let m = BlockCirculantMatrix::random(rows, cols, n, 31).unwrap();
            let c = SpectralBlockCirculant::new(&m).unwrap();
            let r = RealSpectralBlockCirculant::new(&m).unwrap();
            let x = test_input(cols);
            assert!(
                linf_distance(&c.matvec(&x), &r.matvec(&x)) < 1e-8,
                "rfft mismatch at {rows}x{cols} n={n}"
            );
            assert_eq!(r.spectrum_len(), n / 2 + 1);
        }
    }

    #[test]
    fn half_spectrum_supports_block_size_one() {
        // n = 1 (the dense baseline grid) runs the same packed path.
        let m = BlockCirculantMatrix::random(5, 7, 1, 3).unwrap();
        let r = RealSpectralBlockCirculant::new(&m).unwrap();
        assert_eq!(r.spectrum_len(), 1);
        let x = test_input(7);
        assert!(linf_distance(&r.matvec(&x), &m.matvec_direct(&x)) < 1e-10);
    }

    #[test]
    fn scratch_reuse_is_bit_stable_across_shapes() {
        // One scratch serving matrices of different geometry (the
        // per-layer reuse pattern) must give bit-identical answers to a
        // fresh scratch every call.
        let mut scratch = SpectralScratch::new();
        for (rows, cols, n, seed) in [(16, 24, 8, 1), (10, 6, 4, 2), (16, 24, 8, 3)] {
            let m = BlockCirculantMatrix::random(rows, cols, n, seed).unwrap();
            let r = RealSpectralBlockCirculant::new(&m).unwrap();
            let x = test_input(cols);
            let warm = r.matvec_with(&x, &mut scratch);
            let cold = r.matvec(&x);
            assert_eq!(warm, cold, "scratch reuse drifted at {rows}x{cols} n={n}");
        }
    }

    #[test]
    fn scratch_clone_is_empty() {
        let m = BlockCirculantMatrix::random(8, 8, 4, 9).unwrap();
        let r = RealSpectralBlockCirculant::new(&m).unwrap();
        let mut scratch = SpectralScratch::new();
        let _ = r.matvec_with(&test_input(8), &mut scratch);
        assert!(!scratch.row.is_empty());
        let clone = scratch.clone();
        assert!(clone.row.is_empty(), "clone must not carry request-scoped buffers");
        assert!(clone.tile.is_empty());
    }

    /// A `rows × cols` row-major batch with a different scale per row, so
    /// a lane reading its neighbour's data cannot go unnoticed.
    fn test_batch(rows: usize, cols: usize) -> Vec<f64> {
        (0..rows * cols)
            .map(|i| ((i as f64 + 1.0) * 0.37).sin() * (1.0 + (i / cols) as f64))
            .collect()
    }

    #[test]
    fn rows_are_independent_of_batch_and_position() {
        // Row r computed alone equals row r inside every batch size that
        // puts it in a full tile, in the width-1 remainder, or both —
        // bit for bit, with and without a bias, on ragged shapes too.
        let shapes = [(5, 7, 1), (6, 10, 2), (10, 6, 4), (16, 24, 8), (64, 96, 16)];
        let ragged = [(50, 30, 16), (33, 70, 32), (96, 130, 64)];
        let mut scratch = SpectralScratch::new();
        for (out_dim, in_dim, n) in shapes.into_iter().chain(ragged) {
            let m = BlockCirculantMatrix::random(out_dim, in_dim, n, 7).unwrap();
            let r = RealSpectralBlockCirculant::new(&m).unwrap();
            let bias: Vec<f64> = (0..out_dim).map(|o| (o as f64 * 0.11).cos()).collect();
            for rows in 1..=2 * LANES + 1 {
                let x = test_batch(rows, in_dim);
                for bias in [None, Some(bias.as_slice())] {
                    let mut batched = vec![f64::NAN; rows * out_dim];
                    r.matmul_into(&x, bias, &mut scratch, &mut batched);
                    for (row, got) in x.chunks(in_dim).zip(batched.chunks(out_dim)) {
                        let mut alone = vec![f64::NAN; out_dim];
                        r.matmul_into(row, bias, &mut SpectralScratch::new(), &mut alone);
                        let bits =
                            |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(got),
                            bits(&alone),
                            "{out_dim}x{in_dim} n={n}: a row of a {rows}-row batch drifted"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bias_is_added_after_the_product() {
        let m = BlockCirculantMatrix::random(10, 6, 4, 3).unwrap();
        let r = RealSpectralBlockCirculant::new(&m).unwrap();
        let x = test_input(6);
        let bias: Vec<f64> = (0..10).map(|o| o as f64 - 4.5).collect();
        let mut y = vec![0.0; 10];
        r.matmul_into(&x, Some(&bias), &mut SpectralScratch::new(), &mut y);
        let expect: Vec<f64> = r.matvec(&x).iter().zip(&bias).map(|(v, b)| v + b).collect();
        assert_eq!(y, expect);
    }

    #[test]
    fn from_kernels_matches_the_matrix_constructor() {
        let m = BlockCirculantMatrix::random(10, 6, 4, 21).unwrap();
        let flat: Vec<f64> =
            m.iter_blocks().flat_map(|(_, _, b)| b.kernel().to_vec()).collect();
        let a = RealSpectralBlockCirculant::new(&m).unwrap();
        let b = RealSpectralBlockCirculant::from_kernels(10, 6, 4, &flat).unwrap();
        assert_eq!(a.weights, b.weights);
        assert!(matches!(
            RealSpectralBlockCirculant::from_kernels(10, 6, 4, &flat[1..]).unwrap_err(),
            CirculantError::BadKernelLayout { .. }
        ));
        assert!(RealSpectralBlockCirculant::from_kernels(9, 9, 3, &[0.0; 27]).is_err());
        assert!(RealSpectralBlockCirculant::from_kernels(0, 4, 4, &[]).is_err());
    }

    #[test]
    fn spectrum_accessor_returns_fft_of_kernel() {
        let m = BlockCirculantMatrix::random(8, 8, 4, 77).unwrap();
        let s = SpectralBlockCirculant::new(&m).unwrap();
        let plan = FftPlan::<f64>::new(4).unwrap();
        let expect = plan.forward_real(m.block(1, 0).kernel()).unwrap();
        for (a, b) in s.spectrum(1, 0).iter().zip(&expect) {
            assert!(a.linf_distance(*b) < 1e-12);
        }
        // The packed form stores exactly the non-redundant prefix.
        let r = RealSpectralBlockCirculant::new(&m).unwrap();
        for (a, b) in r.spectrum(1, 0).iter().zip(&expect) {
            assert!(a.linf_distance(*b) < 1e-12);
        }
        assert_eq!(r.spectrum(1, 0).len(), 3);
    }

    #[test]
    fn dimensions_are_preserved() {
        let m = BlockCirculantMatrix::random(10, 6, 4, 1).unwrap();
        let s = SpectralBlockCirculant::new(&m).unwrap();
        assert_eq!(s.out_dim(), 10);
        assert_eq!(s.in_dim(), 6);
        assert_eq!(s.block_size(), 4);
        assert_eq!((s.grid_rows(), s.grid_cols()), (3, 2));
        assert_eq!(s.matvec(&test_input(6)).len(), 10);
        let r = RealSpectralBlockCirculant::new(&m).unwrap();
        assert_eq!((r.out_dim(), r.in_dim()), (10, 6));
        assert_eq!(r.block_size(), 4);
        assert_eq!(r.matvec(&test_input(6)).len(), 10);
    }

    proptest! {
        #[test]
        fn prop_spectral_equals_direct(
            seed in 0u64..500,
            p in 1usize..4,
            q in 1usize..4,
            logn in 1u32..5,
        ) {
            let n = 1usize << logn;
            // exercise both exact and padded shapes
            let rows = p * n - (seed as usize % n.min(p * n - 1).max(1));
            let cols = q * n;
            let m = BlockCirculantMatrix::random(rows.max(1), cols, n, seed).unwrap();
            let s = SpectralBlockCirculant::new(&m).unwrap();
            let x = test_input(cols);
            prop_assert!(linf_distance(&s.matvec(&x), &m.matvec_direct(&x)) < 1e-8);
        }

        #[test]
        fn prop_half_spectrum_equals_full_spectrum(
            seed in 0u64..500,
            p in 1usize..5,
            q in 1usize..5,
            logn in 0u32..6,
            col_cut in 0usize..16,
        ) {
            // The packed-half path must agree with the full-spectrum
            // baseline everywhere: n = 1 (odd) through 32, in_dim both a
            // multiple of n and ragged (padded trailing chunk).
            let n = 1usize << logn;
            let rows = (p * n).max(1);
            let cols = (q * n).saturating_sub(col_cut % n.max(1)).max(1);
            let m = BlockCirculantMatrix::random(rows, cols, n, seed).unwrap();
            let full = SpectralBlockCirculant::new(&m).unwrap();
            let half = RealSpectralBlockCirculant::new(&m).unwrap();
            let x = test_input(cols);
            let mut scratch = SpectralScratch::new();
            let yh = half.matvec_with(&x, &mut scratch);
            prop_assert!(linf_distance(&full.matvec(&x), &yh) < 1e-8);
            prop_assert!(linf_distance(&m.matvec_direct(&x), &yh) < 1e-8);
        }

        #[test]
        fn prop_dispatched_tiles_equal_the_baseline_codegen(
            seed in 0u64..500,
            rows in 1usize..18,
            logn in 0u32..7,
            out_dim in 1usize..130,
            in_dim in 1usize..130,
            with_bias in 0u32..2,
        ) {
            // `matmul_into` (full tiles through `isa::dispatch`, AVX2 on a
            // CPU that has it) against the same tile body called directly
            // (compiled for the build's baseline), bit for bit: 1..=17
            // rows run zero to two tiles and a tail, dimensions ragged.
            let n = 1usize << logn;
            let m = BlockCirculantMatrix::random(out_dim, in_dim, n, seed).unwrap();
            let r = RealSpectralBlockCirculant::new(&m).unwrap();
            let x = test_batch(rows, in_dim);
            let bias: Vec<f64> = (0..out_dim).map(|o| (o as f64 * 0.11).cos()).collect();
            let bias = (with_bias == 1).then_some(bias.as_slice());
            let mut dispatched = vec![f64::NAN; rows * out_dim];
            r.matmul_into(&x, bias, &mut SpectralScratch::new(), &mut dispatched);
            let mut baseline = vec![f64::NAN; rows * out_dim];
            let mut scratch = SpectralScratch::new();
            let tiled = rows - rows % LANES;
            r.full_tiles(tiled, &x, bias, &mut scratch.tile, &mut baseline);
            for first in tiled..rows {
                r.tile(first, &x, bias, &mut scratch.row, &mut baseline);
            }
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&dispatched), bits(&baseline));
        }

        #[test]
        fn prop_batched_equals_direct(
            seed in 0u64..500,
            rows in 1usize..(2 * LANES + 2),
            logn in 0u32..7,
            out_dim in 1usize..130,
            in_dim in 1usize..130,
        ) {
            // Every row of a batch — full tiles and the width-1 remainder
            // — against the spatial-domain product, block sizes 1–64,
            // both dimensions ragged more often than not.
            let n = 1usize << logn;
            let m = BlockCirculantMatrix::random(out_dim, in_dim, n, seed).unwrap();
            let half = RealSpectralBlockCirculant::new(&m).unwrap();
            let x = test_batch(rows, in_dim);
            let mut y = vec![f64::NAN; rows * out_dim];
            half.matmul_into(&x, None, &mut SpectralScratch::new(), &mut y);
            for (row, got) in x.chunks(in_dim).zip(y.chunks(out_dim)) {
                prop_assert!(linf_distance(&m.matvec_direct(row), got) <= 1e-9);
            }
        }
    }
}

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
//! [`RealSpectralBlockCirculant`] is the kernel — the §V RFFT refinement
//! over Hermitian half-spectra (`n/2 + 1` bins per block), batched over
//! feature rows — and the workspace's only half-spectrum loop nest. It is
//! generic over the [`Scalar`] it computes in, and every product the
//! paper's one datapath serves is a call of it:
//!
//! * **f64 inference** — `blockgnn_nn::CirculantDense` (prepared and
//!   unprepared alike) and [`RealSpectralBlockCirculant::matvec_into`] run
//!   [`RealSpectralBlockCirculant::matmul_into`].
//! * **The Q16.16 CirCore datapath** (§IV-B) is the same tile at
//!   `T = Q16_16`: [`RealSpectralBlockCirculant::quantize`] rounds the f64
//!   spectra into the Weight Buffer's format, and the RFFT butterflies,
//!   the MAC and the IRFFT then saturate and round as the scalar does
//!   (see [`crate::fixed`]).
//! * **Training** — `∂X = G·W` is `matmul_into` on
//!   [`RealSpectralBlockCirculant::transposed`] (`Bᵀ` has the conjugate
//!   spectrum of `B`), and `∂W` is
//!   [`RealSpectralBlockCirculant::kernel_grad_into`], the
//!   cross-correlation `Σ_rows Ĝ_i ∘ conj(X̂_j)` accumulated over the same
//!   tiles.
//!
//! The same algorithm over **full** complex spectra, one row at a time, is
//! [`crate::reference::SpectralBlockCirculant`] — the oracle the tests
//! below hold this kernel to.
//!
//! # What is stored where
//!
//! * **Weights** — one contiguous `Vec<Complex<T>>`,
//!   `[grid_row][grid_col][bin]`: the MAC of grid row `i` reads its
//!   `q · (n/2 + 1)` weights front to back.
//! * **Inputs** — `LANES` (8) rows at a time are transposed into
//!   [`blockgnn_fft::ComplexLanes`] elements, `[grid_col][bin]` of them:
//!   per bin the 8 rows' real parts side by side, then their imaginary
//!   parts, so the **row (lane) index is innermost**. The RFFT
//!   butterflies and untangle
//!   ([`blockgnn_fft::RealFftPlan::forward_lanes`]), the spectral MAC
//!   and the IRFFT are then plain `for lane in 0..LANES` loops over
//!   `[T; LANES]` — no intrinsics, nothing for a target flag to switch
//!   on — and every twiddle and weight is loaded once per tile instead
//!   of once per row. One grid row's accumulator has the same element
//!   type; both live in the caller's [`SpectralScratch`].
//! * **Which vectors those loops become** is decided at run time: the
//!   full tiles run through [`blockgnn_linalg::isa::Arm::run`] on the
//!   widest arm the CPU has, with the tile body and the lane transforms
//!   under it forced inline, so on a CPU with AVX-512F an 8-row lane group
//!   of f64 is one register, with AVX2 two, and elsewhere the build's
//!   baseline (SSE2: four). Same source, no FMA on any arm. AVX-512F is
//!   taken at block sizes up to 32 only: above that a butterfly stage is
//!   too long to unroll, LLVM vectorises it across butterflies with
//!   gathers and scatters instead of across lanes, and the AVX2 codegen
//!   measured as fast at 64 and faster at 128 and at run-time sizes.
//! * **The block size is compiled in.** The tile body — the load
//!   transpose, the RFFT, the MAC, the IRFFT and the write-out — is one
//!   generic body over `const N`, instantiated for each power of two from
//!   1 to 128 (every size the layers use) and, at `N = 0`, for any other
//!   size, read at run time. The lane transforms take the length as an
//!   argument, so under a compiled-in size every loop of the tile has a
//!   constant trip count and the bit reversal is a fixed list of swaps;
//!   the load copies whole blocks a pair at a time (only a ragged last
//!   chunk is padded sample by sample) and the write-out stores whole
//!   pairs. GS-Pool's BC16 products (64×96 and 64×160 over 1 344 rows,
//!   pinned to one CPU) took 650/977 µs on the AVX2 arm at a run-time
//!   size, 567/882 µs with the size compiled in, and 388/630 µs on the
//!   AVX-512F arm.
//! * Rows left over after the last full tile run through the **same
//!   body at one lane** — the element is then a plain `Complex<T>`, so
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
//! the ISA arm or the block size the tile was compiled for. It holds
//! because lanes never mix (no operation reads two lanes), every lane is
//! given the same operations in the same order whatever the width (one
//! generic body, [`blockgnn_fft::Lanes`]), Rust never contracts
//! `a*b + c` into a fused multiply-add or reassociates a sum, and a
//! vector add, multiply or subtract is the scalar one per lane at any
//! register width. Coalesced-vs-single serving, staged-vs-monolithic
//! passes and delta-vs-rebuild all lean on this; the tests below check it
//! by `f64::to_bits`, including every arm the CPU runs, with the size
//! compiled in and read at run time, against the baseline codegen. The
//! one reduction *across* rows, the kernel gradient, adds its lanes in
//! row order for the same reason: the sum is then the
//! one a row-at-a-time loop forms, whatever the tiling.

use crate::error::CirculantError;
use crate::matrix::BlockCirculantMatrix;
use blockgnn_fft::{half_spectrum_bins, Complex, ComplexLanes, Lanes, RealFftPlan, Scalar};
use blockgnn_linalg::isa::Arm;

/// Rows per transform pass of [`RealSpectralBlockCirculant::matmul_into`]:
/// one AVX-512F register of f64 per lane group. 16 measured slower on this
/// tile — 5-s `full_offline` pairs read 468–524 k nodes/s at 8 against
/// 434–485 k at 16, 8 ahead in 4/4 — and 4 was slower on the tile before.
const LANES: usize = 8;

/// Evaluates `$body` with `$N` a constant: the block size `$n` for each
/// power of two from 1 to 128 (every size the layers use, so each gets a
/// tile body of its own with its loop bounds compiled in), 0 for any
/// other, which the body reads as "the kernel's own, at run time".
macro_rules! with_block_size {
    ($n:expr, $N:ident => $body:expr) => {
        match $n {
            1 => with_block_size!(@ 1, $N => $body),
            2 => with_block_size!(@ 2, $N => $body),
            4 => with_block_size!(@ 4, $N => $body),
            8 => with_block_size!(@ 8, $N => $body),
            16 => with_block_size!(@ 16, $N => $body),
            32 => with_block_size!(@ 32, $N => $body),
            64 => with_block_size!(@ 64, $N => $body),
            128 => with_block_size!(@ 128, $N => $body),
            _ => with_block_size!(@ 0, $N => $body),
        }
    };
    (@ $size:literal, $N:ident => $body:expr) => {{
        const $N: usize = $size;
        $body
    }};
}

/// The arm the tile instance `block` (`with_block_size!`'s `N`, 0 at a
/// run-time size) runs on: the widest the CPU has for `block` 1 to 32,
/// AVX2 at most otherwise. Above 32 the butterfly stages are too long to
/// unroll, and on AVX-512F LLVM vectorises them across butterflies, with
/// gathers and scatters, instead of across lanes: products at 64, 128 and
/// 256 measured 1.03–1.11×, 1.48–1.55× and 1.56–1.61× their AVX2 time,
/// and 0.67–0.77× at every size from 1 to 32 (pinned, three processes).
fn tile_arm(block: usize) -> Arm {
    Arm::widest_up_to(if (1..=32).contains(&block) { Arm::Avx512f } else { Arm::Avx2 })
}

/// Reusable workspace of the half-spectrum kernel: a tile's input
/// spectra and one grid row's accumulator, at each of the two widths the
/// kernel runs (see the module docs), and the kernel gradient's `p·q`
/// spectral sums. Grown on first use and kept across rows, layers and
/// requests — the owner decides the sharing scope (each `CirculantDense`
/// layer and each [`RealSpectralBlockCirculant`] caller holds its own, so
/// forked serving replicas never contend).
///
/// `Clone` intentionally produces an **empty** scratch: cloning a
/// prepared layer (how the serving engine forks per-worker replicas)
/// must not copy request-scoped buffers, and the clone re-grows its own
/// workspace on first use.
#[derive(Debug, Default)]
pub struct SpectralScratch<T = f64> {
    tile: Vec<ComplexLanes<T, LANES>>,
    row: Vec<Complex<T>>,
    sums: Vec<Complex<T>>,
}

impl<T: Scalar> Clone for SpectralScratch<T> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<T: Scalar> SpectralScratch<T> {
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
pub struct RealSpectralBlockCirculant<T: Scalar = f64> {
    out_dim: usize,
    in_dim: usize,
    block_size: usize,
    grid_rows: usize,
    grid_cols: usize,
    /// `Ŵ`, one contiguous buffer: block `(i, j)`'s bins at
    /// `[(i·q + j)·bins .. +bins]`.
    weights: Vec<Complex<T>>,
    plan: RealFftPlan<T>,
}

impl RealSpectralBlockCirculant<f64> {
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

    /// The same weights rounded into another scalar — `Q16_16` for the
    /// Weight Buffer of the FPGA datapath. `Ŵ` is computed offline at
    /// full precision and only the stored copy is quantized; everything
    /// the result then computes (on-line RFFTs, MAC, IRFFT) runs in `U`.
    #[must_use]
    pub fn quantize<U: Scalar>(&self) -> RealSpectralBlockCirculant<U> {
        let round = |c: &Complex<f64>| Complex::new(U::from_f64(c.re), U::from_f64(c.im));
        RealSpectralBlockCirculant {
            out_dim: self.out_dim,
            in_dim: self.in_dim,
            block_size: self.block_size,
            grid_rows: self.grid_rows,
            grid_cols: self.grid_cols,
            weights: self.weights.iter().map(round).collect(),
            plan: RealFftPlan::new(self.block_size)
                .expect("the block size built a plan before"),
        }
    }
}

impl<T: Scalar> RealSpectralBlockCirculant<T> {
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
    pub fn spectrum(&self, i: usize, j: usize) -> &[Complex<T>] {
        assert!(i < self.grid_rows && j < self.grid_cols, "spectrum index out of grid");
        let bins = self.spectrum_len();
        &self.weights[(i * self.grid_cols + j) * bins..][..bins]
    }

    /// The transpose `Wᵀ` (over the padded grid, truncated to `M × N`):
    /// block `(j, i)` is block `(i, j)`'s transpose, whose spectrum — the
    /// kernels being real — is the conjugate. Backpropagation's
    /// `∂X = G·W` is `matmul_into` on it.
    #[must_use]
    pub fn transposed(&self) -> Self {
        let (p, q, bins) = (self.grid_rows, self.grid_cols, self.spectrum_len());
        let mut weights = Vec::with_capacity(self.weights.len());
        for j in 0..q {
            for i in 0..p {
                weights.extend(
                    self.weights[(i * q + j) * bins..][..bins].iter().map(|w| w.conj()),
                );
            }
        }
        Self {
            out_dim: self.in_dim,
            in_dim: self.out_dim,
            block_size: self.block_size,
            grid_rows: q,
            grid_cols: p,
            weights,
            plan: self.plan.clone(),
        }
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
    pub fn matvec(&self, x: &[T]) -> Vec<T> {
        self.matvec_with(x, &mut SpectralScratch::new())
    }

    /// Algorithm 1 over half-spectra reusing `scratch` — zero heap
    /// allocations beyond the returned vector once the scratch is warm.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    #[must_use]
    pub fn matvec_with(&self, x: &[T], scratch: &mut SpectralScratch<T>) -> Vec<T> {
        let mut y = vec![T::ZERO; self.out_dim];
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
    pub fn matvec_into(&self, x: &[T], scratch: &mut SpectralScratch<T>, out: &mut [T]) {
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
        x: &[T],
        bias: Option<&[T]>,
        scratch: &mut SpectralScratch<T>,
        out: &mut [T],
    ) {
        let rows = x.len() / self.in_dim;
        assert_eq!(x.len(), rows * self.in_dim, "matmul input must be whole rows of in_dim");
        assert_eq!(out.len(), rows * self.out_dim, "matmul output must be rows × out_dim");
        assert!(bias.is_none_or(|b| b.len() == self.out_dim), "bias length must equal out_dim");
        with_block_size!(self.block_size, N => {
            self.matmul_on::<N>(tile_arm(N), x, bias, scratch, out)
        });
    }

    /// [`RealSpectralBlockCirculant::matmul_into`] with the full tiles
    /// compiled for `arm` and the block size compiled in as `N` (`0`:
    /// read at run time) — the one body every arm and size runs, which
    /// is how the tests hold each to the baseline's bits.
    fn matmul_on<const N: usize>(
        &self,
        arm: Arm,
        x: &[T],
        bias: Option<&[T]>,
        scratch: &mut SpectralScratch<T>,
        out: &mut [T],
    ) {
        let rows = x.len() / self.in_dim;
        let tiled = rows - rows % LANES;
        let tile = &mut scratch.tile;
        arm.run(
            #[inline(always)]
            || {
                for first in (0..tiled).step_by(LANES) {
                    self.tile::<N, _>(first, x, bias, tile, out);
                }
            },
        );
        for first in tiled..rows {
            self.tile::<N, _>(first, x, bias, &mut scratch.row, out);
        }
    }

    /// The block size the body compiled for `N` runs at: `N`, or the
    /// kernel's own when `N` is 0 (a size `with_block_size!` does not
    /// compile in).
    #[inline(always)]
    fn len<const N: usize>(&self) -> usize {
        if N == 0 {
            self.block_size
        } else {
            debug_assert_eq!(N, self.block_size, "a tile compiled for another block size");
            N
        }
    }

    /// Rows `first_row .. first_row + E::WIDTH` of
    /// [`RealSpectralBlockCirculant::matmul_into`], one per lane. Forced
    /// inline (with the lane transforms under it) so that the 8-lane
    /// instance compiles for the arm [`Arm::run`] was given; the
    /// one-lane instance stays on the baseline.
    #[inline(always)]
    fn tile<const N: usize, E: Lanes<T>>(
        &self,
        first_row: usize,
        x: &[T],
        bias: Option<&[T]>,
        buffer: &mut Vec<E>,
        out: &mut [T],
    ) {
        let (n, q) = (self.len::<N>(), self.grid_cols);
        let bins = half_spectrum_bins(n);
        buffer.resize((q + 1) * bins, E::ZERO);
        let (spectra, acc) = buffer.split_at_mut(q * bins);
        let acc = &mut acc[..bins];
        self.load_spectra(n, first_row, x, self.in_dim, spectra);

        for (i, w_row) in self.weights.chunks_exact(q * bins).enumerate() {
            // Grid row i: Σ_j Ŵ_ij ∘ X̂_j with the weights read in order,
            // then one IRFFT.
            acc.fill(E::ZERO);
            for (w_block, x_chunk) in w_row.chunks_exact(bins).zip(spectra.chunks_exact(bins)) {
                for ((a, &w), x) in acc.iter_mut().zip(w_block).zip(x_chunk) {
                    for l in 0..E::WIDTH {
                        a.set_lane(l, a.lane(l).mul_add(w, x.lane(l)));
                    }
                }
            }
            self.plan.inverse_lanes(n, acc).expect("the accumulator matches the plan");
            // Transpose back out (the accumulator holds the packed signal
            // again), truncating the last grid row to the logical output.
            let (start, end) = (i * n, ((i + 1) * n).min(self.out_dim));
            for l in 0..E::WIDTH {
                let y = &mut out[(first_row + l) * self.out_dim..][start..end];
                unpack(y, acc, l, |o, v| *o = v);
                if let Some(bias) = bias {
                    for (o, &b) in y.iter_mut().zip(&bias[start..end]) {
                        *o = *o + b;
                    }
                }
            }
        }
    }

    /// Transposes rows `first_row .. first_row + E::WIDTH` of the
    /// row-major `x` (rows of `width`) into `spectra` — one block-sized
    /// chunk of bins per grid column, one row per lane — and transforms
    /// every chunk at block size `n`. Rows go in packed for the RFFT
    /// (samples `2k` and `2k+1` of a chunk are element `k`): a whole
    /// block a pair at a time, the ragged last chunk zero-padded.
    #[inline(always)]
    fn load_spectra<E: Lanes<T>>(
        &self,
        n: usize,
        first_row: usize,
        x: &[T],
        width: usize,
        spectra: &mut [E],
    ) {
        let bins = half_spectrum_bins(n);
        for l in 0..E::WIDTH {
            let row = &x[(first_row + l) * width..][..width];
            for (chunk, packed) in row.chunks(n).zip(spectra.chunks_exact_mut(bins)) {
                if chunk.len() == n {
                    // Its pairs, or at n = 1 its one sample.
                    let (pairs, single) = chunk.as_chunks::<2>();
                    for (z, &[even, odd]) in packed.iter_mut().zip(pairs) {
                        z.set_lane(l, Complex::new(even, odd));
                    }
                    if let [sample] = single {
                        packed[0].set_lane(l, Complex::from_real(*sample));
                    }
                    continue;
                }
                let sample = |t: usize| chunk.get(t).copied().unwrap_or(T::ZERO);
                for (k, z) in packed[..n.div_ceil(2)].iter_mut().enumerate() {
                    z.set_lane(l, Complex::new(sample(2 * k), sample(2 * k + 1)));
                }
            }
        }
        for chunk in spectra.chunks_exact_mut(bins) {
            self.plan.forward_lanes(n, chunk).expect("a chunk's bins match the plan");
        }
    }

    /// The kernel gradient of `Y = X·Wᵀ`: adds
    /// `IRFFT(Σ_rows Ĝ_i ∘ conj(X̂_j))` — the circular cross-correlation
    /// of grid row `i` of `grad_out` with grid column `j` of `x`, summed
    /// over the batch in the spectral domain, so `p·q` IRFFTs in all — to
    /// block `(i, j)`'s slot of `kernel_grad` (the flat
    /// [`RealSpectralBlockCirculant::from_kernels`] layout). Rows are
    /// transformed a tile at a time like `matmul_into`'s; each sum takes
    /// its rows in order (module docs). Only the geometry and the plan of
    /// `self` are read, not the weights.
    ///
    /// # Panics
    ///
    /// Panics if `grad_out` and `x` are not the same number of whole rows
    /// (of `out_dim` and `in_dim`) or `kernel_grad` is not `p·q·n` long.
    pub fn kernel_grad_into(
        &self,
        grad_out: &[T],
        x: &[T],
        scratch: &mut SpectralScratch<T>,
        kernel_grad: &mut [T],
    ) {
        let rows = x.len() / self.in_dim;
        assert_eq!(x.len(), rows * self.in_dim, "input must be whole rows of in_dim");
        assert_eq!(grad_out.len(), rows * self.out_dim, "gradient must be rows × out_dim");
        let blocks = self.grid_rows * self.grid_cols;
        assert_eq!(
            kernel_grad.len(),
            blocks * self.block_size,
            "kernel gradient must be p·q·n long"
        );
        with_block_size!(self.block_size, N => {
            self.kernel_grad_on::<N>(tile_arm(N), grad_out, x, scratch, kernel_grad)
        });
    }

    /// [`RealSpectralBlockCirculant::kernel_grad_into`] with the full
    /// tiles compiled for `arm` and the block size compiled in as `N`, as
    /// [`RealSpectralBlockCirculant::matmul_on`] is for `matmul_into`.
    fn kernel_grad_on<const N: usize>(
        &self,
        arm: Arm,
        grad_out: &[T],
        x: &[T],
        scratch: &mut SpectralScratch<T>,
        kernel_grad: &mut [T],
    ) {
        let rows = x.len() / self.in_dim;
        let n = self.len::<N>();
        let bins = half_spectrum_bins(n);
        let SpectralScratch { tile, row, sums } = scratch;
        sums.clear();
        sums.resize(self.grid_rows * self.grid_cols * bins, Complex::zero());
        let tiled = rows - rows % LANES;
        arm.run(
            #[inline(always)]
            || {
                for first in (0..tiled).step_by(LANES) {
                    self.correlate::<N, _>(first, grad_out, x, tile, sums);
                }
            },
        );
        for first in tiled..rows {
            self.correlate::<N, _>(first, grad_out, x, row, sums);
        }
        for (spectrum, grad) in sums.chunks_exact_mut(bins).zip(kernel_grad.chunks_exact_mut(n))
        {
            self.plan.inverse_lanes(n, spectrum).expect("a block's sums match the plan");
            unpack(grad, spectrum, 0, |o, v| *o = *o + v);
        }
    }

    /// Rows `first_row .. first_row + E::WIDTH` of
    /// [`RealSpectralBlockCirculant::kernel_grad_into`]'s spectral sums:
    /// `sums[i][j] += Ĝ_i ∘ conj(X̂_j)`, lane after lane.
    #[inline(always)]
    fn correlate<const N: usize, E: Lanes<T>>(
        &self,
        first_row: usize,
        grad_out: &[T],
        x: &[T],
        buffer: &mut Vec<E>,
        sums: &mut [Complex<T>],
    ) {
        let (n, p, q) = (self.len::<N>(), self.grid_rows, self.grid_cols);
        let bins = half_spectrum_bins(n);
        buffer.resize((p + q) * bins, E::ZERO);
        let (g_spectra, x_spectra) = buffer.split_at_mut(p * bins);
        self.load_spectra(n, first_row, grad_out, self.out_dim, g_spectra);
        self.load_spectra(n, first_row, x, self.in_dim, x_spectra);
        for (g_chunk, sums_row) in
            g_spectra.chunks_exact(bins).zip(sums.chunks_exact_mut(q * bins))
        {
            for (x_chunk, sum) in
                x_spectra.chunks_exact(bins).zip(sums_row.chunks_exact_mut(bins))
            {
                for ((s, g), x) in sum.iter_mut().zip(g_chunk).zip(x_chunk) {
                    for l in 0..E::WIDTH {
                        *s = s.mul_add(g.lane(l), x.lane(l).conj());
                    }
                }
            }
        }
    }
}

/// Writes lane `l` of the packed signal `z` (sample `2k` is the real part
/// of element `k`, sample `2k + 1` its imaginary part) over `y` through
/// `put(slot, sample)`, a whole pair at a time; an odd-length `y` (a
/// truncated last block, or `n = 1`) takes one more real part.
#[inline(always)]
fn unpack<T: Scalar, E: Lanes<T>>(y: &mut [T], z: &[E], l: usize, put: impl Fn(&mut T, T)) {
    let (pairs, single) = y.as_chunks_mut::<2>();
    for ([even, odd], z) in pairs.iter_mut().zip(z) {
        let v = z.lane(l);
        put(even, v.re);
        put(odd, v.im);
    }
    if let [last] = single {
        put(last, z[pairs.len()].lane(l).re);
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

    #[test]
    fn transposed_weights_are_the_transposed_matrix() {
        // Wᵀ built spectrally (grid transposed, bins conjugated) multiplies
        // like the kernel of the transposed matrix, and transposing twice
        // gives back the same spectra, bit for bit.
        for (out_dim, in_dim, n) in [(5, 7, 1), (10, 6, 4), (50, 30, 16), (96, 130, 64)] {
            let m = BlockCirculantMatrix::random(out_dim, in_dim, n, 19).unwrap();
            let r = RealSpectralBlockCirculant::new(&m).unwrap();
            let t = r.transposed();
            assert_eq!((t.out_dim(), t.in_dim(), t.block_size()), (in_dim, out_dim, n));
            assert_eq!(t.transposed().weights, r.weights);
            let x = test_input(out_dim);
            let via_matrix =
                RealSpectralBlockCirculant::new(&m.transpose()).unwrap().matvec(&x);
            assert!(linf_distance(&t.matvec(&x), &via_matrix) < 1e-12);
            assert!(linf_distance(&t.matvec(&x), &m.to_dense().transpose().matvec(&x)) < 1e-9);
        }
    }

    #[test]
    fn kernel_gradient_is_the_batch_cross_correlation() {
        // ∂c_ij[t] = Σ_rows Σ_s g_i[s]·x_j[(s − t) mod n] over the padded
        // blocks, added onto what the gradient buffer already holds —
        // whatever the tiling: 1, 8, 9 and 17 rows.
        for (out_dim, in_dim, n) in [(3, 4, 1), (10, 6, 4), (50, 30, 16)] {
            let m = BlockCirculantMatrix::random(out_dim, in_dim, n, 23).unwrap();
            let r = RealSpectralBlockCirculant::new(&m).unwrap();
            let (p, q) = (out_dim.div_ceil(n), in_dim.div_ceil(n));
            let mut scratch = SpectralScratch::new();
            for rows in [1usize, 8, 9, 17] {
                let x = test_batch(rows, in_dim);
                let g: Vec<f64> = test_batch(rows, out_dim).iter().map(|v| v * 0.5).collect();
                let mut got = vec![1.0; p * q * n];
                r.kernel_grad_into(&g, &x, &mut scratch, &mut got);
                let at = |row: &[f64], i: usize| row.get(i).copied().unwrap_or(0.0);
                for (b, t) in (0..p * q).flat_map(|b| (0..n).map(move |t| (b, t))) {
                    let (i, j) = (b / q, b % q);
                    let mut want = 1.0;
                    for (g_row, x_row) in g.chunks(out_dim).zip(x.chunks(in_dim)) {
                        for s in 0..n {
                            want += at(g_row, i * n + s) * at(x_row, j * n + (s + n - t) % n);
                        }
                    }
                    let err = (got[b * n + t] - want).abs();
                    assert!(err < 1e-9, "{out_dim}x{in_dim} n={n} rows={rows}: block {b}[{t}]");
                }
            }
        }
    }

    /// The numeric contract of the kernel at one scalar, over block sizes
    /// 1–128 and input magnitudes from 1e-4 to the Q16.16 rails. `range`
    /// is the largest magnitude the scalar holds. Where the unscaled
    /// forward transform (≤ `n·|x|`) and the exact result both fit it,
    /// `‖kernel − direct‖∞ ≤ bound(magnitude)`; where they do not, every
    /// stage must clamp and none may wrap.
    fn numeric_contract<T: Scalar>(range: f64, bound: impl Fn(f64) -> f64) {
        let product = |m: &BlockCirculantMatrix, x: &[f64]| -> Vec<f64> {
            let kernel = RealSpectralBlockCirculant::new(m).unwrap().quantize::<T>();
            let x: Vec<T> = x.iter().map(|&v| T::from_f64(v)).collect();
            let mut y = vec![T::ZERO; x.len() / m.in_dim() * m.out_dim()];
            kernel.matmul_into(&x, None, &mut SpectralScratch::new(), &mut y);
            y.into_iter().map(T::to_f64).collect()
        };
        for n in [1usize, 4, 16, 64, 128] {
            for magnitude in [1e-4_f64, 1.0, 1e3, 32_767.0, -32_767.0] {
                // Nine rows (a tile and a tail) of a shape ragged in both
                // dimensions, row r scaled by (r + 1)/9 of the magnitude.
                let (out_dim, in_dim) = (2 * n + 1, 3 * n - n / 2);
                let m = BlockCirculantMatrix::random(out_dim, in_dim, n, 37).unwrap();
                let x: Vec<f64> = test_batch(9, in_dim)
                    .iter()
                    .map(|v| T::from_f64(v * magnitude / 9.0).to_f64())
                    .collect();
                let exact: Vec<f64> =
                    x.chunks(in_dim).flat_map(|r| m.matvec_direct(r)).collect();
                let peak = exact.iter().fold(magnitude.abs(), |a, v| a.max(v.abs()));
                if peak * (n as f64) < range {
                    let worst = linf_distance(&exact, &product(&m, &x));
                    assert!(
                        worst <= bound(magnitude.abs()),
                        "n={n} at {magnitude}: ‖kernel − direct‖∞ = {worst:e}"
                    );
                    continue;
                }
                // Out of range. A constant input against constant positive
                // kernels keeps every bin but DC at zero, so the clamped
                // pipeline's answer is known: the rail, divided by the
                // IRFFT's n. A stage that wrapped would land elsewhere.
                let kernels = vec![vec![0.5; n]; out_dim.div_ceil(n) * in_dim.div_ceil(n)];
                let m =
                    BlockCirculantMatrix::from_kernels(out_dim, in_dim, n, kernels).unwrap();
                let clamped = magnitude.signum() * range / n as f64;
                for v in product(&m, &vec![magnitude; 9 * in_dim]) {
                    assert!(
                        (v - clamped).abs() <= 0.01 * clamped.abs(),
                        "n={n} at {magnitude}: {v} is not the clamped {clamped}"
                    );
                }
            }
        }
    }

    /// f64: a few dozen ulps of the input magnitude (measured: ≤ 2.3e-16).
    const F64_REL_BOUND: f64 = 1e-14;
    /// Q16.16: eight ulps of rounding through the butterflies, the MAC
    /// and the IRFFT (measured: ≤ 2.1), plus the weights' own rounding
    /// (≤ 2⁻¹⁷ each) against the input magnitude (measured: ≤ 1.2e-5).
    const Q16_ABS_BOUND: f64 = 8.0 / 65_536.0;
    const Q16_REL_BOUND: f64 = 4e-5;

    #[test]
    fn numeric_contract_holds_for_f64_and_q16_16() {
        numeric_contract::<f64>(f64::INFINITY, |m| F64_REL_BOUND * m);
        numeric_contract::<blockgnn_fft::Q16_16>(32_768.0, |m| {
            Q16_ABS_BOUND + Q16_REL_BOUND * m
        });
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
            logn in 0u32..8,
            out_dim in 1usize..130,
            in_dim in 1usize..130,
            with_bias in 0u32..2,
        ) {
            // The product and the kernel gradient on every arm this CPU
            // runs, each with the block size compiled in and read at run
            // time, against the baseline codegen at run time, bit for bit
            // — and `matmul_into`/`kernel_grad_into` (the widest arm,
            // the size compiled in) with them. 1..=17 rows run zero to
            // two tiles and a tail; block sizes 1–128, dimensions ragged.
            let n = 1usize << logn;
            let m = BlockCirculantMatrix::random(out_dim, in_dim, n, seed).unwrap();
            let r = RealSpectralBlockCirculant::new(&m).unwrap();
            let x = test_batch(rows, in_dim);
            let g = test_batch(rows, out_dim);
            let bias: Vec<f64> = (0..out_dim).map(|o| (o as f64 * 0.11).cos()).collect();
            let bias = (with_bias == 1).then_some(bias.as_slice());
            let blocks = out_dim.div_ceil(n) * in_dim.div_ceil(n) * n;
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            let run = |arm: Arm, sized: bool| {
                let (mut y, mut grad) = (vec![f64::NAN; rows * out_dim], vec![0.5; blocks]);
                let scratch = &mut SpectralScratch::new();
                if sized {
                    with_block_size!(n, N => {
                        r.matmul_on::<N>(arm, &x, bias, scratch, &mut y);
                        r.kernel_grad_on::<N>(arm, &g, &x, scratch, &mut grad);
                    });
                } else {
                    r.matmul_on::<0>(arm, &x, bias, scratch, &mut y);
                    r.kernel_grad_on::<0>(arm, &g, &x, scratch, &mut grad);
                }
                (bits(&y), bits(&grad))
            };
            let baseline = run(Arm::Baseline, false);
            for arm in Arm::supported() {
                prop_assert_eq!(&run(arm, true), &baseline, "{:?} arm, size compiled in", arm);
                prop_assert_eq!(&run(arm, false), &baseline, "{:?} arm, size at run time", arm);
            }
            let (mut y, mut grad) = (vec![f64::NAN; rows * out_dim], vec![0.5; blocks]);
            r.matmul_into(&x, bias, &mut SpectralScratch::new(), &mut y);
            r.kernel_grad_into(&g, &x, &mut SpectralScratch::new(), &mut grad);
            prop_assert_eq!((bits(&y), bits(&grad)), baseline);
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

//! Block-circulant linear layer with in-constraint training.
//!
//! The trainable parameters *are* the circulant kernels (one length-`n`
//! vector per block), so the block-circulant constraint of §III-A holds
//! by construction throughout training — there is no dense weight to
//! project. All three products the layer needs are circular
//! convolutions/correlations and therefore run through FFTs:
//!
//! * forward:      `y_i = IFFT( Σ_j Ŵ_ij ∘ X̂_j )`           (Algorithm 1)
//! * input grad:   `∂x_j = IFFT( Σ_i conj(Ŵ_ij) ∘ Ĝ_i )`    (`Bᵀ` has the
//!   conjugate spectrum of `B` for real kernels)
//! * kernel grad:  `∂c_ij = IFFT( Σ_batch Ĝ_i ∘ conj(X̂_j) )` (a circular
//!   cross-correlation, accumulated in the spectral domain over the batch
//!   so only `p·q` IFFTs are paid per backward pass)
//!
//! Every signal involved is real, so all spectra are Hermitian and all
//! three run on **half-spectra** (`n/2 + 1` bins): element-wise products
//! and conjugate-products of Hermitian spectra stay Hermitian, which
//! halves the MAC work and the resident spectral bytes of every path
//! above.
//!
//! # What is stored where
//!
//! * The **parameters** are the flat time-domain kernels and the bias.
//! * **None of the three products is implemented here.** Prepared-spectral
//!   inference and the training forward both hand the whole batch to
//!   [`blockgnn_core::RealSpectralBlockCirculant::matmul_into`], the one
//!   row-tiled half-spectrum kernel (contiguous spectral weights, a tile
//!   of rows per transform pass — see `blockgnn_core::spectral`);
//!   `backward` is the same call on the transposed weights
//!   ([`blockgnn_core::RealSpectralBlockCirculant::transposed`]) for
//!   `∂X`, and
//!   [`blockgnn_core::RealSpectralBlockCirculant::kernel_grad_into`] for
//!   `∂W`. [`CirculantDense::prepare`] builds the weights once and keeps
//!   them behind an `Arc` shared by every fork of the layer. Unprepared,
//!   an inference call builds them from the current kernels once and
//!   keeps them until a parameter visit, `prepare` or `clear_prepared`
//!   supersedes them; the training forward builds its own on each call,
//!   kept for its `backward`.
//! * Prepared for [`ExecMode::FixedSpectral`], the layer serves the
//!   accelerator's arithmetic: the same `Ŵ` quantized to Q16.16 and
//!   [`blockgnn_core::RealSpectralBlockCirculant::matmul_f64_into`]'s
//!   float edges (quantize → the Q16.16 tile → dequantize → f64 bias).
//! * The layer owns a [`blockgnn_core::SpectralScratch`] per scalar, f64
//!   and Q16.16 (each cloned *empty* into serving forks), so
//!   steady-state f64 forwards allocate only their output matrix.
//! * For `backward`, the training forward caches the weights it ran with
//!   and its input matrix; the input's spectra are recomputed a tile at a
//!   time where the kernel gradient needs them, not kept per row.
//!
//! Row independence — a row's output bits depend only on that row and
//! the weights, never on the batch around it — is the kernel's contract
//! and carries through this layer unchanged (the bias add is per row).

use crate::error::NnError;
use crate::layer::{ExecMode, Layer};
use crate::param::Param;
use blockgnn_core::{CompressionStats, RealSpectralBlockCirculant, SpectralScratch};
use blockgnn_fft::{is_power_of_two, Q16_16};
use blockgnn_linalg::init::InitRng;
use blockgnn_linalg::Matrix;
use std::sync::Arc;

/// Cached state from the latest forward pass.
#[derive(Debug, Clone)]
struct Cache {
    /// The batch forward ran on.
    input: Matrix,
    /// The spectral weights `Ŵ` that forward ran with.
    weights: RealSpectralBlockCirculant,
}

/// One-time weight transform installed by [`CirculantDense::prepare`]:
/// the inference-frozen representation a serving backend executes. Held
/// behind an `Arc` so per-worker clones of a prepared layer (the
/// parallel serving engine forks one backend per worker) share a single
/// copy of the decompressed weights / spectral weights.
#[derive(Debug, Clone)]
enum Prepared {
    /// Decompressed `out_dim × in_dim` dense weight for GEMM execution.
    Gemm(Matrix),
    /// The kernel half-spectra `Ŵ`, cached so repeated forwards skip
    /// the per-call kernel RFFTs of the training path.
    Spectral(RealSpectralBlockCirculant),
    /// The same half-spectra rounded into Q16.16, as the accelerator's
    /// Weight Buffer holds them.
    FixedSpectral(RealSpectralBlockCirculant<Q16_16>),
}

/// A block-circulant linear layer `y = W_bc·x + b` over batched rows.
///
/// ```
/// use blockgnn_linalg::Matrix;
/// use blockgnn_nn::{CirculantDense, Layer};
/// let mut layer = CirculantDense::new(6, 10, 4, 3).unwrap();
/// assert_eq!(layer.num_params(), 2 * 3 * 4 + 6); // p·q·n kernels + bias
/// let y = layer.forward(&Matrix::filled(2, 10, 0.5), true);
/// assert_eq!(y.shape(), (2, 6));
/// ```
#[derive(Debug, Clone)]
pub struct CirculantDense {
    out_dim: usize,
    in_dim: usize,
    block_size: usize,
    grid_rows: usize,
    grid_cols: usize,
    /// Flattened kernels, block `(i, j)` at `[(i*q + j)*n .. +n]`.
    kernels: Param,
    bias: Param,
    cache: Option<Cache>,
    prepared: Option<Arc<Prepared>>,
    /// The spectral weights an unprepared inference call built from the
    /// current kernels, kept until the kernels may change.
    built: Option<RealSpectralBlockCirculant>,
    /// Per-layer half-spectrum workspace, reused across rows and
    /// requests. `SpectralScratch::clone` yields an empty scratch, so
    /// forked serving replicas grow their own on first use and never
    /// share hot buffers.
    scratch: SpectralScratch,
    /// The same workspace for [`ExecMode::FixedSpectral`]'s Q16.16 tile,
    /// cloned empty alike.
    fixed_scratch: SpectralScratch<Q16_16>,
}

impl CirculantDense {
    /// Creates a block-circulant layer with variance-matched Xavier
    /// initialization (dense Xavier bound shrunk by `√n` because each
    /// kernel entry is reused `n` times).
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if a dimension is zero or `block_size` is not
    /// a power of two.
    pub fn new(
        out_dim: usize,
        in_dim: usize,
        block_size: usize,
        seed: u64,
    ) -> Result<Self, NnError> {
        if out_dim == 0 || in_dim == 0 {
            return Err(NnError::new(format!(
                "circulant layer dimensions must be non-zero, got {out_dim}x{in_dim}"
            )));
        }
        if !is_power_of_two(block_size) {
            return Err(NnError::new(format!(
                "block size {block_size} must be a power of two for spectral training"
            )));
        }
        let grid_rows = out_dim.div_ceil(block_size);
        let grid_cols = in_dim.div_ceil(block_size);
        let bound =
            (6.0 / (out_dim as f64 + in_dim as f64)).sqrt() / (block_size as f64).sqrt();
        let mut rng = InitRng::new(seed);
        let kernels: Vec<f64> = (0..grid_rows * grid_cols * block_size)
            .map(|_| rng.uniform(-bound, bound))
            .collect();
        Ok(Self {
            out_dim,
            in_dim,
            block_size,
            grid_rows,
            grid_cols,
            kernels: Param::new(kernels),
            bias: Param::new(vec![0.0; out_dim]),
            cache: None,
            prepared: None,
            built: None,
            scratch: SpectralScratch::new(),
            fixed_scratch: SpectralScratch::new(),
        })
    }

    /// Output dimension.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Input dimension.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Circulant block size `n`.
    #[must_use]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Compression accounting for this layer (Table III columns).
    #[must_use]
    pub fn stats(&self) -> CompressionStats {
        CompressionStats::for_matrix(self.out_dim, self.in_dim, self.block_size)
    }

    /// On-chip footprint of this layer's spectra in the accelerator's
    /// Weight Buffer (see
    /// [`blockgnn_core::BlockCirculantMatrix::spectral_weight_bytes`]):
    /// 8 bytes per **packed** bin — `n/2 + 1` per block, the Hermitian
    /// half-spectrum the hardware actually stores. Computed from the
    /// grid dimensions alone, without materializing the matrix.
    #[must_use]
    pub fn spectral_weight_bytes(&self) -> usize {
        self.grid_rows * self.grid_cols * blockgnn_fft::half_spectrum_bins(self.block_size) * 8
    }

    /// The current bias vector (length `out_dim`).
    #[must_use]
    pub fn bias(&self) -> &[f64] {
        &self.bias.data
    }

    /// Exports the current weights as a [`blockgnn_core::BlockCirculantMatrix`]
    /// (e.g. to hand to the accelerator simulator after training).
    #[must_use]
    pub fn to_block_circulant(&self) -> blockgnn_core::BlockCirculantMatrix {
        let n = self.block_size;
        let kernels: Vec<Vec<f64>> =
            self.kernels.data.chunks_exact(n).map(<[f64]>::to_vec).collect();
        blockgnn_core::BlockCirculantMatrix::from_kernels(self.out_dim, self.in_dim, n, kernels)
            .expect("layer invariants guarantee a valid kernel layout")
    }

    /// Freezes the current kernels into the representation `mode`
    /// executes fastest (see [`crate::layer::ExecMode`]). Inference-only:
    /// `backward` panics until [`CirculantDense::clear_prepared`];
    /// parameter updates after `prepare` require re-preparing.
    pub fn prepare(&mut self, mode: ExecMode) {
        self.cache = None;
        self.built = None;
        self.prepared = Some(Arc::new(match mode {
            ExecMode::Gemm => Prepared::Gemm(self.to_block_circulant().to_dense()),
            ExecMode::Spectral => Prepared::Spectral(self.spectral_weights()),
            ExecMode::FixedSpectral => {
                Prepared::FixedSpectral(self.spectral_weights().quantize::<Q16_16>())
            }
        }));
    }

    /// Drops any prepared state, returning the layer to its trainable
    /// form.
    pub fn clear_prepared(&mut self) {
        self.prepared = None;
        self.built = None;
    }

    /// Whether a prepared fast path is active.
    #[must_use]
    pub fn is_prepared(&self) -> bool {
        self.prepared.is_some()
    }

    /// The current kernels as the batched kernel's spectral weights.
    fn spectral_weights(&self) -> RealSpectralBlockCirculant {
        RealSpectralBlockCirculant::from_kernels(
            self.out_dim,
            self.in_dim,
            self.block_size,
            &self.kernels.data,
        )
        .expect("layer invariants guarantee a valid kernel layout")
    }

    /// `W·x + b` for every row of the row-major `rows × in_dim` input,
    /// written into the row-major `rows × out_dim` output (every entry
    /// overwritten): the prepared representation when there is one,
    /// spectral weights built from the current kernels (and kept for the
    /// next call) otherwise. Nothing is cached for `backward` — the
    /// write-into inference entry, over the same kernel calls
    /// [`Layer::forward`] makes.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not whole rows of `in_dim` or `out` is not
    /// `rows · out_dim` long.
    pub fn forward_into(&mut self, x: &[f64], out: &mut [f64]) {
        self.apply_into(x, true, out);
    }

    /// [`CirculantDense::forward_into`] without the bias: `W·x`.
    ///
    /// # Panics
    ///
    /// As [`CirculantDense::forward_into`].
    pub fn product_into(&mut self, x: &[f64], out: &mut [f64]) {
        self.apply_into(x, false, out);
    }

    /// `W·x`, plus the bias when `biased`, in the prepared representation.
    fn apply_into(&mut self, x: &[f64], biased: bool, out: &mut [f64]) {
        match self.prepared.clone().as_deref() {
            Some(Prepared::Gemm(w)) => {
                let rows = x.len() / self.in_dim;
                assert_eq!(x.len(), rows * self.in_dim, "input must be whole rows of in_dim");
                assert_eq!(out.len(), rows * self.out_dim, "output must be rows × out_dim");
                for (row, y) in
                    x.chunks_exact(self.in_dim).zip(out.chunks_exact_mut(self.out_dim))
                {
                    for (o, (ov, b)) in y.iter_mut().zip(&self.bias.data).enumerate() {
                        let mut acc = 0.0;
                        for (wv, xv) in w.row(o).iter().zip(row) {
                            acc += wv * xv;
                        }
                        *ov = if biased { acc + b } else { acc };
                    }
                }
            }
            Some(Prepared::Spectral(weights)) => self.spectral_apply(x, weights, biased, out),
            Some(Prepared::FixedSpectral(weights)) => {
                let bias = biased.then_some(self.bias.data.as_slice());
                weights.matmul_f64_into(x, bias, &mut self.fixed_scratch, out);
            }
            None => {
                let weights = self.built.take().unwrap_or_else(|| self.spectral_weights());
                self.spectral_apply(x, &weights, biased, out);
                self.built = Some(weights);
            }
        }
    }

    /// `W·x`, plus `b` when `biased`, through the batched half-spectrum
    /// kernel inside the layer's [`SpectralScratch`].
    fn spectral_apply(
        &mut self,
        x: &[f64],
        weights: &RealSpectralBlockCirculant,
        biased: bool,
        out: &mut [f64],
    ) {
        let bias = biased.then_some(self.bias.data.as_slice());
        weights.matmul_into(x, bias, &mut self.scratch, out);
    }
}

impl Layer for CirculantDense {
    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        assert_eq!(x.cols(), self.in_dim, "circulant forward input width mismatch");
        assert!(!(train && self.is_prepared()), "prepared circulant layers are inference-only");
        let mut y = Matrix::zeros(x.rows(), self.out_dim);
        if !train {
            // Inference forwards keep neither the input nor the weights
            // they built, and drop a stale training cache, so a
            // mismatched backward fails loudly.
            self.cache = None;
            self.forward_into(x.as_slice(), y.as_mut_slice());
            return y;
        }
        let weights = self.spectral_weights();
        self.spectral_apply(x.as_slice(), &weights, true, y.as_mut_slice());
        self.cache = Some(Cache { input: x.clone(), weights });
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        assert!(
            self.prepared.is_none(),
            "backward is unavailable on a prepared (inference-frozen) layer"
        );
        let Cache { input, weights } =
            self.cache.as_ref().expect("backward called before forward");
        assert_eq!(grad_out.shape(), (input.rows(), self.out_dim), "grad shape mismatch");
        // ∂b: column sums over the logical output.
        for g_row in grad_out.as_slice().chunks_exact(self.out_dim) {
            for (b, &gv) in self.bias.grad.iter_mut().zip(g_row) {
                *b += gv;
            }
        }
        // ∂W: Σ_batch Ĝ_i ∘ conj(X̂_j), one IRFFT per block.
        weights.kernel_grad_into(
            grad_out.as_slice(),
            input.as_slice(),
            &mut self.scratch,
            &mut self.kernels.grad,
        );
        // ∂X = G·W: Algorithm 1 on the transposed weights.
        let mut grad_in = Matrix::zeros(input.rows(), self.in_dim);
        weights.transposed().matmul_into(
            grad_out.as_slice(),
            None,
            &mut self.scratch,
            grad_in.as_mut_slice(),
        );
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        // `f` may change the kernels.
        self.built = None;
        f(&mut self.kernels);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockgnn_linalg::vector::linf_distance;

    #[test]
    fn constructor_validation() {
        assert!(CirculantDense::new(0, 4, 2, 0).is_err());
        assert!(CirculantDense::new(4, 0, 2, 0).is_err());
        assert!(CirculantDense::new(4, 4, 3, 0).is_err());
        assert!(CirculantDense::new(4, 4, 0, 0).is_err());
        assert!(CirculantDense::new(4, 4, 4, 0).is_ok());
    }

    #[test]
    fn forward_matches_block_circulant_matvec() {
        let mut layer = CirculantDense::new(10, 6, 4, 11).unwrap();
        let bcm = layer.to_block_circulant();
        let x = Matrix::from_fn(3, 6, |i, j| ((i * 6 + j) as f64 * 0.37).sin());
        let y = layer.forward(&x, false);
        for r in 0..3 {
            let expect = bcm.matvec_direct(x.row(r));
            assert!(linf_distance(y.row(r), &expect) < 1e-9, "row {r} mismatch");
        }
    }

    #[test]
    fn bias_is_applied_to_logical_outputs() {
        let mut layer = CirculantDense::new(3, 4, 2, 5).unwrap();
        layer.visit_params(&mut |p| {
            if p.len() == 3 {
                p.data.copy_from_slice(&[1.0, 2.0, 3.0]);
            }
        });
        let zero_in = Matrix::zeros(1, 4);
        let y = layer.forward(&zero_in, false);
        assert_eq!(y.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn stats_report_block_size() {
        let layer = CirculantDense::new(512, 512, 64, 0).unwrap();
        let s = layer.stats();
        assert_eq!(s.storage_reduction(), 64.0);
        assert_eq!(s.compressed_params(), 8 * 8 * 64);
    }

    #[test]
    fn spectral_weight_bytes_count_packed_bins() {
        // 512×512, n=64 → 8×8 grid, 33 packed bins of 8 bytes per block.
        let layer = CirculantDense::new(512, 512, 64, 0).unwrap();
        assert_eq!(layer.spectral_weight_bytes(), 8 * 8 * 33 * 8);
        assert_eq!(
            layer.spectral_weight_bytes(),
            layer.to_block_circulant().spectral_weight_bytes(),
            "layer and exported-matrix accounting must agree"
        );
    }

    #[test]
    fn backward_shapes() {
        let mut layer = CirculantDense::new(10, 6, 4, 3).unwrap();
        let x = Matrix::from_fn(2, 6, |i, j| (i + j) as f64 * 0.1);
        let _ = layer.forward(&x, true);
        let gin = layer.backward(&Matrix::filled(2, 10, 0.5));
        assert_eq!(gin.shape(), (2, 6));
        // bias grad = column sums
        let mut grads: Vec<Vec<f64>> = Vec::new();
        layer.visit_params(&mut |p| grads.push(p.grad.clone()));
        assert_eq!(grads[1], vec![1.0; 10]);
        assert!(grads[0].iter().any(|&g| g != 0.0), "kernel grads must flow");
    }

    #[test]
    fn prepared_paths_match_training_forward() {
        let x = Matrix::from_fn(4, 22, |i, j| ((i * 22 + j) as f64 * 0.19).sin());
        let mut layer = CirculantDense::new(14, 22, 8, 21).unwrap();
        layer.visit_params(&mut |p| {
            if p.len() == 14 {
                for (i, b) in p.data.iter_mut().enumerate() {
                    *b = i as f64 * 0.05 - 0.3;
                }
            }
        });
        let reference = layer.forward(&x, false);

        layer.prepare(ExecMode::Spectral);
        assert!(layer.is_prepared());
        let spectral = layer.forward(&x, false);
        assert!(spectral.linf_distance(&reference) < 1e-12, "cached spectra drifted");

        layer.prepare(ExecMode::Gemm);
        let gemm = layer.forward(&x, false);
        assert!(gemm.linf_distance(&reference) < 1e-9, "decompressed GEMM drifted");

        // Q16.16: the core datapath's float-edged product plus the f64
        // bias, bit for bit, and within quantization of the f64 answer.
        layer.prepare(ExecMode::FixedSpectral);
        let fixed = layer.forward(&x, false);
        let mut datapath =
            blockgnn_core::FixedSpectralBlockCirculant::new(&layer.to_block_circulant())
                .unwrap();
        let mut want = datapath.matmul(x.as_slice());
        for row in want.chunks_exact_mut(14) {
            row.iter_mut().zip(layer.bias()).for_each(|(o, b)| *o += b);
        }
        assert_eq!(fixed.as_slice(), &want[..], "fixed-point layer left the datapath");
        let drift = fixed.linf_distance(&reference);
        assert!(drift > 0.0 && drift < 1e-3, "Q16.16 drift {drift:e}");

        layer.clear_prepared();
        assert!(!layer.is_prepared());
        let back = layer.forward(&x, false);
        assert!(back.linf_distance(&reference) < 1e-15);
    }

    #[test]
    fn unprepared_inference_rebuilds_its_weights_only_when_they_may_change() {
        let mut layer = CirculantDense::new(6, 10, 4, 3).unwrap();
        let x = Matrix::from_fn(3, 10, |i, j| ((i * 10 + j) as f64 * 0.3).sin());
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let before = layer.forward(&x, false);
        assert!(layer.built.is_some(), "the first call keeps what it built");
        assert_eq!(bits(&layer.forward(&x, false)), bits(&before), "the kept weights serve");
        layer.visit_params(&mut |p| p.data[0] += 0.5);
        assert!(layer.built.is_none(), "a parameter visit drops them");
        let after = layer.forward(&x, false);
        assert_ne!(bits(&after), bits(&before));
        assert_eq!(bits(&after), bits(&layer.forward(&x, true)), "built from the new kernels");
        let _ = layer.forward(&x, false);
        layer.prepare(ExecMode::Spectral);
        assert!(layer.built.is_none(), "prepare supersedes them");
        layer.clear_prepared();
        let _ = layer.forward(&x, false);
        layer.clear_prepared();
        assert!(layer.built.is_none(), "and so does clear_prepared");
    }

    #[test]
    fn forward_into_caches_no_backward_spectra() {
        let mut layer = CirculantDense::new(10, 6, 4, 3).unwrap();
        let x = Matrix::from_fn(3, 6, |i, j| ((i * 6 + j) as f64 * 0.31).cos());
        let mut y = Matrix::filled(3, 10, f64::NAN);
        layer.forward_into(x.as_slice(), y.as_mut_slice());
        assert!(layer.cache.is_none(), "the write-into entry is inference-only");
        assert_eq!(y, layer.forward(&x, false));
    }

    #[test]
    fn aligned_input_training_path_keeps_capture_and_gradients() {
        // in_dim an exact multiple of n: no chunk is padded. The training
        // path must capture what backward needs, and the backward
        // arithmetic over packed spectra must match the
        // direct-convolution gradients.
        let (out_dim, in_dim, n) = (8, 16, 4);
        let mut layer = CirculantDense::new(out_dim, in_dim, n, 77).unwrap();
        let x = Matrix::from_fn(3, in_dim, |i, j| ((i * in_dim + j) as f64 * 0.29).cos());
        let y = layer.forward(&x, true);
        // Captured for backward: the batch itself and the weights it met.
        let cache = layer.cache.as_ref().expect("training forward caches");
        assert_eq!(cache.input, x);
        assert_eq!(cache.weights.spectrum_len(), n / 2 + 1);
        // Finite-difference check of the input gradient under L = Σ y.
        let gin = layer.backward(&Matrix::filled(3, out_dim, 1.0));
        let eps = 1e-6;
        for (i, j) in [(0usize, 0usize), (1, 7), (2, 15)] {
            let mut plus = x.clone();
            plus[(i, j)] += eps;
            let mut minus = x.clone();
            minus[(i, j)] -= eps;
            let lp: f64 = layer.forward(&plus, false).as_slice().iter().sum();
            let lm: f64 = layer.forward(&minus, false).as_slice().iter().sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - gin[(i, j)]).abs() < 1e-6 * numeric.abs().max(1.0),
                "input grad [{i},{j}]: numeric {numeric} analytic {}",
                gin[(i, j)]
            );
        }
        let _ = y;
    }

    #[test]
    #[should_panic(expected = "inference-frozen")]
    fn prepared_layer_rejects_backward() {
        let mut layer = CirculantDense::new(6, 8, 4, 2).unwrap();
        let x = Matrix::filled(2, 8, 0.25);
        layer.prepare(ExecMode::Spectral);
        let _ = layer.forward(&x, false);
        let _ = layer.backward(&Matrix::filled(2, 6, 1.0));
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_after_an_inference_forward_panics() {
        // The inference forward drops the training cache before it.
        let mut layer = CirculantDense::new(6, 8, 4, 2).unwrap();
        let x = Matrix::filled(2, 8, 0.25);
        let _ = layer.forward(&x, true);
        let _ = layer.forward(&x, false);
        let _ = layer.backward(&Matrix::filled(2, 6, 1.0));
    }

    #[test]
    #[should_panic(expected = "inference-only")]
    fn prepared_layer_rejects_training_forward() {
        let mut layer = CirculantDense::new(6, 8, 4, 2).unwrap();
        layer.prepare(ExecMode::Gemm);
        let _ = layer.forward(&Matrix::filled(2, 8, 0.25), true);
    }

    #[test]
    fn n1_layer_behaves_like_elementwise_scaling_grid() {
        // n = 1: every 1×1 block is a free scalar, so the layer is an
        // unconstrained dense matrix — the paper's n=1 baseline.
        let layer = CirculantDense::new(5, 7, 1, 9).unwrap();
        let s = layer.stats();
        assert_eq!(s.compressed_params(), s.dense_params());
    }

    #[test]
    fn n1_layer_forward_and_backward_work() {
        // The degenerate length-1 RFFT plan must serve the n=1 baseline
        // grid end to end (forward + training backward).
        let mut layer = CirculantDense::new(3, 4, 1, 9).unwrap();
        let bcm = layer.to_block_circulant();
        let x = Matrix::from_fn(2, 4, |i, j| (i as f64 + 1.0) * (j as f64 - 1.5));
        let y = layer.forward(&x, true);
        for r in 0..2 {
            assert!(linf_distance(y.row(r), &bcm.matvec_direct(x.row(r))) < 1e-12);
        }
        let gin = layer.backward(&Matrix::filled(2, 3, 1.0));
        assert_eq!(gin.shape(), (2, 4));
    }
}

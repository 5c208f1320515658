//! The layer abstraction and the dense/circulant switch.

use crate::circulant::CirculantDense;
use crate::dense::Dense;
use crate::error::NnError;
use crate::param::Param;
use blockgnn_linalg::Matrix;

/// A differentiable layer over batched inputs (rows = samples).
///
/// Contract: a `train = true` forward caches whatever `backward` needs; a
/// `train = false` one records nothing and drops what an earlier one
/// recorded. `backward` must be called with the gradient of the loss with
/// respect to the *latest* (training) forward output, returns the
/// gradient with respect to that forward's input, and accumulates
/// parameter gradients into the layer's [`Param`]s.
pub trait Layer {
    /// Forward pass. `train` toggles training-only behaviour (caching
    /// for `backward`).
    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix;

    /// Backward pass; returns `∂L/∂input` given `∂L/∂output`.
    fn backward(&mut self, grad_out: &Matrix) -> Matrix;

    /// Visits every trainable parameter in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Zeroes all parameter gradients.
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

/// How a prepared (inference-frozen) linear layer executes its product —
/// the execution-substrate knob the serving engine's backends turn, one
/// mode per backend kind.
///
/// Preparation is a one-time weight transform: backends call
/// [`LinearLayer::prepare`] once after training, and every subsequent
/// inference forward reuses the transformed weights instead of
/// recomputing them per call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Dense GEMM over (decompressed) weights — the uncompressed
    /// baseline substrate.
    Gemm,
    /// Algorithm 1: FFT → spectral MAC → IFFT with kernel spectra cached
    /// across calls.
    Spectral,
    /// Algorithm 1 in the accelerator's arithmetic (§IV-B): the cached
    /// spectra rounded once into Q16.16, every transform and MAC in
    /// Q16.16, f64 only at the edges (input quantized, output
    /// dequantized, bias added in f64).
    FixedSpectral,
}

/// Weight-matrix compression choice for linear layers — the paper's
/// central algorithm-level knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compression {
    /// Uncompressed dense weights (the paper's `n = 1` baseline row).
    Dense,
    /// Block-circulant weights with the given block size `n`.
    BlockCirculant {
        /// Circulant block size (power of two for spectral execution).
        block_size: usize,
    },
}

impl Compression {
    /// The block size this compression implies (1 for dense).
    #[must_use]
    pub fn block_size(&self) -> usize {
        match self {
            Compression::Dense => 1,
            Compression::BlockCirculant { block_size } => *block_size,
        }
    }
}

/// A linear layer that is either dense or block-circulant — the only
/// difference between the paper's uncompressed and compressed GNNs.
// A model holds O(1) linear layers, so the size gap between the inline
// variants (the circulant one carries its RFFT plan and spectral
// scratch) costs nothing; boxing would add an indirection to every
// forward instead.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum LinearLayer {
    /// Dense variant.
    Dense(Dense),
    /// Block-circulant variant.
    Circulant(CirculantDense),
}

impl LinearLayer {
    /// Creates a linear layer `in_dim → out_dim` under the chosen
    /// compression.
    ///
    /// # Errors
    ///
    /// Returns an error if `block_size` is not a power of two ≥ 2 when
    /// block-circulant compression is requested, or dimensions are zero.
    pub fn new(
        out_dim: usize,
        in_dim: usize,
        compression: Compression,
        seed: u64,
    ) -> Result<Self, NnError> {
        if out_dim == 0 || in_dim == 0 {
            return Err(NnError::new(format!(
                "linear layer dimensions must be non-zero, got {out_dim}x{in_dim}"
            )));
        }
        match compression {
            Compression::Dense => Ok(LinearLayer::Dense(Dense::new(out_dim, in_dim, seed))),
            Compression::BlockCirculant { block_size } => Ok(LinearLayer::Circulant(
                CirculantDense::new(out_dim, in_dim, block_size, seed)?,
            )),
        }
    }

    /// Output dimension.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        match self {
            LinearLayer::Dense(l) => l.out_dim(),
            LinearLayer::Circulant(l) => l.out_dim(),
        }
    }

    /// Input dimension.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        match self {
            LinearLayer::Dense(l) => l.in_dim(),
            LinearLayer::Circulant(l) => l.in_dim(),
        }
    }

    /// One-time weight transform for inference serving: freezes the
    /// current weights into the representation `mode` executes fastest.
    ///
    /// Dense layers execute as f64 GEMM under every mode, so for them
    /// preparation only drops the backward-pass input cache; circulant
    /// layers either decompress to a dense matrix (`Gemm`), cache their
    /// kernel spectra (`Spectral`), or cache them in Q16.16
    /// (`FixedSpectral`). A prepared layer is
    /// inference-only:
    /// `backward` panics until [`LinearLayer::clear_prepared`] is called,
    /// and parameter updates after `prepare` are not reflected until the
    /// layer is re-prepared.
    pub fn prepare(&mut self, mode: ExecMode) {
        match self {
            LinearLayer::Dense(l) => l.prepare(),
            LinearLayer::Circulant(l) => l.prepare(mode),
        }
    }

    /// Drops any prepared state, returning the layer to its trainable
    /// form.
    pub fn clear_prepared(&mut self) {
        match self {
            LinearLayer::Dense(l) => l.clear_prepared(),
            LinearLayer::Circulant(l) => l.clear_prepared(),
        }
    }

    /// Whether a prepared fast path is active.
    #[must_use]
    pub fn is_prepared(&self) -> bool {
        match self {
            LinearLayer::Dense(l) => l.is_prepared(),
            LinearLayer::Circulant(l) => l.is_prepared(),
        }
    }

    /// Write-into inference forward: `W·x + b` for every row of the
    /// row-major `rows × in_dim` input lands in the caller's row-major
    /// `rows × out_dim` output (every entry overwritten), prepared or
    /// not, and nothing is cached for `backward`. Each row's bits are
    /// those [`Layer::forward`] produces for it in any batch (row
    /// independence), so a caller may stream a matrix through in row
    /// blocks and write each block where the result belongs.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not whole rows of `in_dim` or `out` is not
    /// `rows · out_dim` long.
    pub fn forward_into(&mut self, x: &[f64], out: &mut [f64]) {
        match self {
            LinearLayer::Dense(l) => l.forward_into(x, out),
            LinearLayer::Circulant(l) => l.forward_into(x, out),
        }
    }

    /// [`LinearLayer::forward_into`] without the bias: `W·x` for every
    /// row, through the same product, row-independent alike. A caller
    /// that reorders `W·(Σ x)` into `Σ (W·x)` adds [`LinearLayer::bias`]
    /// after its sum.
    ///
    /// # Panics
    ///
    /// As [`LinearLayer::forward_into`].
    pub fn product_into(&mut self, x: &[f64], out: &mut [f64]) {
        match self {
            LinearLayer::Dense(l) => l.product_into(x, out),
            LinearLayer::Circulant(l) => l.product_into(x, out),
        }
    }

    /// The bias [`LinearLayer::forward_into`] adds.
    #[must_use]
    pub fn bias(&self) -> &[f64] {
        match self {
            LinearLayer::Dense(l) => l.applied_bias(),
            LinearLayer::Circulant(l) => l.bias(),
        }
    }
}

impl Layer for LinearLayer {
    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        match self {
            LinearLayer::Dense(l) => l.forward(x, train),
            LinearLayer::Circulant(l) => l.forward(x, train),
        }
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        match self {
            LinearLayer::Dense(l) => l.backward(grad_out),
            LinearLayer::Circulant(l) => l.backward(grad_out),
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        match self {
            LinearLayer::Dense(l) => l.visit_params(f),
            LinearLayer::Circulant(l) => l.visit_params(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_layer_dispatch() {
        let mut dense = LinearLayer::new(4, 6, Compression::Dense, 1).unwrap();
        let mut circ =
            LinearLayer::new(4, 6, Compression::BlockCirculant { block_size: 2 }, 1).unwrap();
        assert_eq!((dense.out_dim(), dense.in_dim()), (4, 6));
        assert_eq!((circ.out_dim(), circ.in_dim()), (4, 6));
        let x = Matrix::from_fn(2, 6, |i, j| (i * 6 + j) as f64 * 0.1);
        assert_eq!(dense.forward(&x, false).shape(), (2, 4));
        assert_eq!(circ.forward(&x, false).shape(), (2, 4));
        // dense has out*in + out params; circulant p*q*n + out
        assert_eq!(dense.num_params(), 4 * 6 + 4);
        assert_eq!(circ.num_params(), 2 * 3 * 2 + 4);
    }

    #[test]
    fn forward_into_streams_uneven_blocks_to_forward_bits_in_every_mode() {
        // 21 rows in blocks of 8 + 8 + 5: two full spectral tiles, a
        // ragged one, and one-row tails — each row must carry the bits of
        // the one-call `forward`, into a poisoned output buffer.
        let x = Matrix::from_fn(21, 22, |i, j| ((i * 22 + j) as f64 * 0.23).sin());
        for compression in [Compression::Dense, Compression::BlockCirculant { block_size: 8 }] {
            let mut layer = LinearLayer::new(14, 22, compression, 5).unwrap();
            layer.visit_params(&mut |p| {
                if p.len() == 14 {
                    p.data.iter_mut().enumerate().for_each(|(i, b)| *b = i as f64 * 0.07 - 0.4);
                }
            });
            for mode in [
                None,
                Some(ExecMode::Gemm),
                Some(ExecMode::Spectral),
                Some(ExecMode::FixedSpectral),
            ] {
                match mode {
                    Some(mode) => layer.prepare(mode),
                    None => layer.clear_prepared(),
                }
                let whole = layer.forward(&x, false);
                let mut streamed = Matrix::filled(21, 14, f64::NAN);
                for (xs, ys) in
                    x.as_slice().chunks(8 * 22).zip(streamed.as_mut_slice().chunks_mut(8 * 14))
                {
                    layer.forward_into(xs, ys);
                }
                let same = whole.as_slice().iter().zip(streamed.as_slice());
                assert!(
                    same.map(|(a, b)| (a.to_bits(), b.to_bits())).all(|(a, b)| a == b),
                    "{compression:?} {mode:?}: streamed blocks drifted from one forward"
                );
            }
        }
    }

    #[test]
    fn constructor_validation() {
        assert!(LinearLayer::new(0, 4, Compression::Dense, 0).is_err());
        assert!(
            LinearLayer::new(4, 4, Compression::BlockCirculant { block_size: 3 }, 0).is_err()
        );
    }

    #[test]
    fn compression_block_size() {
        assert_eq!(Compression::Dense.block_size(), 1);
        assert_eq!(Compression::BlockCirculant { block_size: 64 }.block_size(), 64);
    }
}

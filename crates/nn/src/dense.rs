//! Uncompressed fully-connected layer — the paper's `n = 1` baseline.

use crate::layer::Layer;
use crate::param::Param;
use blockgnn_linalg::init::InitRng;
use blockgnn_linalg::Matrix;
use std::sync::Arc;

/// Inference-frozen weights installed by [`Dense::prepare`]. The `Arc`
/// makes clones of a prepared layer (e.g. per-worker backend replicas in
/// the parallel serving engine) share one copy of the frozen weights
/// instead of duplicating them.
#[derive(Debug, Clone)]
struct FrozenDense {
    /// Flattened `out_dim × in_dim` weight snapshot.
    weight: Vec<f64>,
    /// Bias snapshot, length `out_dim`.
    bias: Vec<f64>,
}

/// A dense linear layer `y = x·Wᵀ + b` over batched rows.
///
/// The weight is stored `out_dim × in_dim` (the paper's `W·h`
/// orientation); inputs are row-major batches so the forward pass is
/// `X·Wᵀ`.
///
/// ```
/// use blockgnn_linalg::Matrix;
/// use blockgnn_nn::{Dense, Layer};
/// let mut layer = Dense::new(2, 3, 7);
/// let x = Matrix::filled(4, 3, 1.0);
/// assert_eq!(layer.forward(&x, false).shape(), (4, 2));
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    out_dim: usize,
    in_dim: usize,
    /// Flattened `out_dim × in_dim` weight.
    weight: Param,
    /// Length `out_dim` bias.
    bias: Param,
    cached_input: Option<Matrix>,
    /// Inference-frozen weight snapshot, shared across clones.
    prepared: Option<Arc<FrozenDense>>,
}

impl Dense {
    /// Creates a dense layer with Xavier-uniform weights and zero bias.
    #[must_use]
    pub fn new(out_dim: usize, in_dim: usize, seed: u64) -> Self {
        let bound = (6.0 / (out_dim as f64 + in_dim as f64)).sqrt();
        let mut rng = InitRng::new(seed);
        let weight: Vec<f64> =
            (0..out_dim * in_dim).map(|_| rng.uniform(-bound, bound)).collect();
        Self {
            out_dim,
            in_dim,
            weight: Param::new(weight),
            bias: Param::new(vec![0.0; out_dim]),
            cached_input: None,
            prepared: None,
        }
    }

    /// Builds a layer from an explicit weight matrix and bias.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != weight.rows()`.
    #[must_use]
    pub fn from_weight(weight: Matrix, bias: Vec<f64>) -> Self {
        assert_eq!(bias.len(), weight.rows(), "bias length must equal output dim");
        let (out_dim, in_dim) = weight.shape();
        Self {
            out_dim,
            in_dim,
            weight: Param::new(weight.into_vec()),
            bias: Param::new(bias),
            cached_input: None,
            prepared: None,
        }
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

    /// The current weight as a matrix (copied).
    #[must_use]
    pub fn weight_matrix(&self) -> Matrix {
        Matrix::from_flat(self.out_dim, self.in_dim, self.weight.data.clone())
            .expect("stored weight has consistent shape")
    }

    /// The current bias.
    #[must_use]
    pub fn bias(&self) -> &[f64] {
        &self.bias.data
    }

    /// Freezes the layer for inference: the current weights are
    /// snapshotted into an `Arc`-shared frozen copy (so per-worker clones
    /// of a prepared layer share one allocation), training forwards are
    /// rejected, and `backward` panics
    /// until [`Dense::clear_prepared`]. Parameter updates after `prepare`
    /// are not reflected until the layer is re-prepared.
    pub fn prepare(&mut self) {
        self.cached_input = None;
        self.prepared = Some(Arc::new(FrozenDense {
            weight: self.weight.data.clone(),
            bias: self.bias.data.clone(),
        }));
    }

    /// Drops the inference freeze, restoring trainability.
    pub fn clear_prepared(&mut self) {
        self.prepared = None;
    }

    /// Whether the inference freeze is active.
    #[must_use]
    pub fn is_prepared(&self) -> bool {
        self.prepared.is_some()
    }

    /// `y = x·Wᵀ + b` for every row of the row-major `rows × in_dim`
    /// input, written into the row-major `rows × out_dim` output (every
    /// entry overwritten) with the frozen weights when prepared and the
    /// live ones otherwise. Nothing is cached for `backward`; it is the
    /// GEMM body [`Layer::forward`] runs too.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not whole rows of `in_dim` or `out` is not
    /// `rows · out_dim` long.
    pub fn forward_into(&self, x: &[f64], out: &mut [f64]) {
        self.apply_into(x, true, out);
    }

    /// [`Dense::forward_into`] without the bias: `y = x·Wᵀ`.
    ///
    /// # Panics
    ///
    /// As [`Dense::forward_into`].
    pub fn product_into(&self, x: &[f64], out: &mut [f64]) {
        self.apply_into(x, false, out);
    }

    /// The bias [`Dense::forward_into`] adds: the frozen one when
    /// prepared, the live one otherwise.
    pub(crate) fn applied_bias(&self) -> &[f64] {
        self.prepared.as_ref().map_or(&self.bias.data, |frozen| &frozen.bias)
    }

    /// `x·Wᵀ`, each output starting from its bias when `biased`.
    fn apply_into(&self, x: &[f64], biased: bool, out: &mut [f64]) {
        let rows = x.len() / self.in_dim;
        assert_eq!(x.len(), rows * self.in_dim, "dense input must be whole rows of in_dim");
        assert_eq!(out.len(), rows * self.out_dim, "dense output must be rows × out_dim");
        let (weight, bias): (&[f64], &[f64]) = match &self.prepared {
            Some(frozen) => (&frozen.weight, &frozen.bias),
            None => (&self.weight.data, &self.bias.data),
        };
        for (row, y) in x.chunks_exact(self.in_dim).zip(out.chunks_exact_mut(self.out_dim)) {
            for ((ov, w), &b) in y.iter_mut().zip(weight.chunks_exact(self.in_dim)).zip(bias) {
                let mut acc = if biased { b } else { 0.0 };
                for (wv, xv) in w.iter().zip(row) {
                    acc += wv * xv;
                }
                *ov = acc;
            }
        }
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        assert_eq!(x.cols(), self.in_dim, "dense forward input width mismatch");
        assert!(!(train && self.is_prepared()), "prepared dense layers are inference-only");
        // Inference forwards snapshot nothing and drop a stale training
        // snapshot, so a mismatched backward fails loudly.
        self.cached_input = train.then(|| x.clone());
        let mut y = Matrix::zeros(x.rows(), self.out_dim);
        self.forward_into(x.as_slice(), y.as_mut_slice());
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        assert!(
            self.prepared.is_none(),
            "backward is unavailable on a prepared (inference-frozen) layer"
        );
        let x = self.cached_input.as_ref().expect("backward called before forward").clone();
        assert_eq!(grad_out.shape(), (x.rows(), self.out_dim), "grad shape mismatch");
        // dW[o][i] = sum_r g[r][o] * x[r][i]
        for r in 0..x.rows() {
            let g = grad_out.row(r);
            let xr = x.row(r);
            for (o, &go) in g.iter().enumerate() {
                if go == 0.0 {
                    continue;
                }
                let wg = &mut self.weight.grad[o * self.in_dim..(o + 1) * self.in_dim];
                for (wgi, &xi) in wg.iter_mut().zip(xr) {
                    *wgi += go * xi;
                }
                self.bias.grad[o] += go;
            }
        }
        // dX = G · W
        let mut grad_in = Matrix::zeros(x.rows(), self.in_dim);
        for r in 0..x.rows() {
            let g = grad_out.row(r);
            let gi = grad_in.row_mut(r);
            for (o, &go) in g.iter().enumerate() {
                if go == 0.0 {
                    continue;
                }
                let w = &self.weight.data[o * self.in_dim..(o + 1) * self.in_dim];
                for (gii, &wv) in gi.iter_mut().zip(w) {
                    *gii += go * wv;
                }
            }
        }
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_manual_matmul() {
        let w = Matrix::from_rows(&[vec![1.0, 2.0], vec![-1.0, 0.5]]).unwrap();
        let mut layer = Dense::from_weight(w.clone(), vec![0.5, -0.5]);
        let x = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 0.0]]).unwrap();
        let y = layer.forward(&x, false);
        // row0: [1+2+0.5, -1+0.5-0.5] = [3.5, -1.0]
        assert_eq!(y.row(0), &[3.5, -1.0]);
        assert_eq!(y.row(1), &[2.5, -2.5]);
    }

    #[test]
    fn backward_shapes_and_bias_grad() {
        let mut layer = Dense::new(3, 4, 5);
        let x = Matrix::from_fn(2, 4, |i, j| (i + j) as f64);
        let _ = layer.forward(&x, true);
        let g = Matrix::filled(2, 3, 1.0);
        let gin = layer.backward(&g);
        assert_eq!(gin.shape(), (2, 4));
        // bias grad = column sums of g = 2 per output
        let mut params: Vec<Vec<f64>> = Vec::new();
        layer.visit_params(&mut |p| params.push(p.grad.clone()));
        assert_eq!(params[1], vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn num_params_counts_weight_and_bias() {
        let mut layer = Dense::new(3, 4, 0);
        assert_eq!(layer.num_params(), 12 + 3);
        assert_eq!(layer.weight_matrix().shape(), (3, 4));
        assert_eq!(layer.bias().len(), 3);
    }

    #[test]
    fn forward_into_caches_no_backward_input() {
        let mut layer = Dense::new(2, 3, 4);
        let x = Matrix::from_fn(5, 3, |i, j| (i as f64 - j as f64) * 0.3);
        let mut y = Matrix::filled(5, 2, f64::NAN);
        layer.forward_into(x.as_slice(), y.as_mut_slice());
        assert!(layer.cached_input.is_none(), "the write-into entry is inference-only");
        assert_eq!(y, layer.forward(&x, false));
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_after_an_inference_forward_panics() {
        // The inference forward drops the training snapshot before it.
        let mut layer = Dense::new(2, 3, 4);
        let x = Matrix::filled(2, 3, 0.5);
        let _ = layer.forward(&x, true);
        let _ = layer.forward(&x, false);
        let _ = layer.backward(&Matrix::filled(2, 2, 1.0));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn forward_validates_width() {
        let mut layer = Dense::new(2, 3, 0);
        let _ = layer.forward(&Matrix::zeros(1, 4), false);
    }
}

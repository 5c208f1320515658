//! Finite-difference gradient verification.
//!
//! Every hand-written backward pass in this workspace is validated
//! against central differences through [`check_layer_gradients`]. The
//! scalar loss used is `L = Σ w_ij·y_ij` with fixed random `w`, whose
//! output gradient is simply `w` — so the check isolates the layer's own
//! backward logic.

use crate::layer::Layer;
use blockgnn_linalg::init::InitRng;
use blockgnn_linalg::Matrix;

/// Result of a gradient check: the worst absolute and relative error
/// observed across parameter and input gradients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradCheckReport {
    /// Maximum |analytic − numeric| across all checked coordinates.
    pub max_abs_err: f64,
    /// Maximum |analytic − numeric| / max(1, |numeric|).
    pub max_rel_err: f64,
    /// Number of coordinates compared.
    pub coords_checked: usize,
}

impl GradCheckReport {
    /// `true` when both error measures are under `tol`.
    #[must_use]
    pub fn passes(&self, tol: f64) -> bool {
        self.max_abs_err < tol && self.max_rel_err < tol
    }
}

/// Checks a layer's parameter *and* input gradients against central
/// finite differences.
///
/// Loss evaluations run in eval mode (`train = false`); the one
/// backward-producing forward
/// uses `train = true` so every layer snapshots its backward caches
/// (inference forwards skip them). The layer must therefore be
/// deterministic across both modes — true for everything this
/// workspace gradient-checks.
///
/// # Panics
///
/// Panics if the layer's forward output shape changes between calls.
#[must_use]
pub fn check_layer_gradients(
    layer: &mut dyn Layer,
    input: &Matrix,
    eps: f64,
    seed: u64,
) -> GradCheckReport {
    // Fixed random loss weights: L = sum w .* y
    let y0 = layer.forward(input, false);
    let mut rng = InitRng::new(seed);
    let w = Matrix::from_fn(y0.rows(), y0.cols(), |_, _| rng.uniform(-1.0, 1.0));
    let loss =
        |y: &Matrix| -> f64 { y.as_slice().iter().zip(w.as_slice()).map(|(a, b)| a * b).sum() };

    // Analytic gradients (training mode, so backward caches are live).
    layer.zero_grad();
    let _ = layer.forward(input, true);
    let grad_in = layer.backward(&w);
    let mut analytic_params: Vec<Vec<f64>> = Vec::new();
    layer.visit_params(&mut |p| analytic_params.push(p.grad.clone()));

    let mut max_abs: f64 = 0.0;
    let mut max_rel: f64 = 0.0;
    let mut coords = 0usize;

    // Parameter gradients by central differences.
    for (pi, analytic) in analytic_params.iter().enumerate() {
        for (k, &analytic_pk) in analytic.iter().enumerate() {
            let perturb = |delta: f64, layer: &mut dyn Layer| -> f64 {
                let mut idx = 0;
                layer.visit_params(&mut |p| {
                    if idx == pi {
                        p.data[k] += delta;
                    }
                    idx += 1;
                });
                let y = layer.forward(input, false);
                let l = loss(&y);
                let mut idx2 = 0;
                layer.visit_params(&mut |p| {
                    if idx2 == pi {
                        p.data[k] -= delta;
                    }
                    idx2 += 1;
                });
                l
            };
            let lp = perturb(eps, layer);
            let lm = perturb(-eps, layer);
            let numeric = (lp - lm) / (2.0 * eps);
            let diff = (numeric - analytic_pk).abs();
            max_abs = max_abs.max(diff);
            max_rel = max_rel.max(diff / numeric.abs().max(1.0));
            coords += 1;
        }
    }

    // Input gradients by central differences.
    for i in 0..input.rows() {
        for j in 0..input.cols() {
            let mut plus = input.clone();
            plus[(i, j)] += eps;
            let mut minus = input.clone();
            minus[(i, j)] -= eps;
            let lp = loss(&layer.forward(&plus, false));
            let lm = loss(&layer.forward(&minus, false));
            let numeric = (lp - lm) / (2.0 * eps);
            let diff = (numeric - grad_in[(i, j)]).abs();
            max_abs = max_abs.max(diff);
            max_rel = max_rel.max(diff / numeric.abs().max(1.0));
            coords += 1;
        }
    }

    GradCheckReport { max_abs_err: max_abs, max_rel_err: max_rel, coords_checked: coords }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::{Elu, Sigmoid, Tanh};
    use crate::circulant::CirculantDense;
    use crate::dense::Dense;

    fn smooth_input(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| ((i * cols + j) as f64 * 0.31).sin() * 0.8)
    }

    #[test]
    fn dense_gradients_are_exact() {
        let mut layer = Dense::new(5, 4, 7);
        let report = check_layer_gradients(&mut layer, &smooth_input(3, 4), 1e-5, 1);
        assert!(report.passes(1e-6), "{report:?}");
        assert!(report.coords_checked > 0);
    }

    #[test]
    fn circulant_gradients_are_exact_divisible() {
        let mut layer = CirculantDense::new(8, 8, 4, 9).unwrap();
        let report = check_layer_gradients(&mut layer, &smooth_input(3, 8), 1e-5, 2);
        assert!(report.passes(1e-6), "{report:?}");
    }

    #[test]
    fn circulant_gradients_are_exact_with_padding() {
        // 10 and 6 are not multiples of 4: padding/truncation paths must
        // also be differentiable.
        let mut layer = CirculantDense::new(10, 6, 4, 3).unwrap();
        let report = check_layer_gradients(&mut layer, &smooth_input(2, 6), 1e-5, 3);
        assert!(report.passes(1e-6), "{report:?}");
    }

    #[test]
    fn smooth_activations_pass() {
        // Inputs kept away from 0 so the ELU kink doesn't break
        // the finite-difference comparison.
        let input = Matrix::from_fn(2, 5, |i, j| (i * 5 + j) as f64 * 0.37 - 1.32);
        for mut layer in [
            Box::new(Sigmoid::new()) as Box<dyn Layer>,
            Box::new(Tanh::new()),
            Box::new(Elu::new()),
        ] {
            let report = check_layer_gradients(layer.as_mut(), &input, 1e-5, 4);
            assert!(report.passes(1e-5), "{report:?}");
        }
    }
}

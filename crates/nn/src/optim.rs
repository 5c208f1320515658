//! The optimizer: Adam.
//!
//! Optimizers attach state to parameters by visit order: every call to
//! [`Optimizer::step`] must visit the same parameters in the same order
//! (which [`crate::Layer::visit_params`] guarantees for a fixed model).

use crate::layer::Layer;
use crate::param::Param;

/// A first-order optimizer over a model's parameters.
pub trait Optimizer {
    /// Applies one update step using the gradients currently accumulated
    /// in the model's parameters, then leaves gradients untouched (call
    /// [`Layer::zero_grad`] before the next backward pass).
    fn step(&mut self, model: &mut dyn Layer);
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical-stability epsilon.
    pub eps: f64,
    t: u64,
    moments: Vec<(Vec<f64>, Vec<f64>)>,
}

impl Adam {
    /// Creates Adam with the standard hyper-parameters
    /// (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    #[must_use]
    pub fn new(lr: f64) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, moments: Vec::new() }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, model: &mut dyn Layer) {
        self.t += 1;
        let (b1, b2) = (self.beta1, self.beta2);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let lr = self.lr;
        let eps = self.eps;
        let moments = &mut self.moments;
        let mut idx = 0usize;
        model.visit_params(&mut |p: &mut Param| {
            if moments.len() <= idx {
                moments.push((vec![0.0; p.len()], vec![0.0; p.len()]));
            }
            let (m, v) = &mut moments[idx];
            assert_eq!(m.len(), p.len(), "parameter shape changed between steps");
            for i in 0..p.len() {
                let g = p.grad[i];
                m[i] = b1 * m[i] + (1.0 - b1) * g;
                v[i] = b2 * v[i] + (1.0 - b2) * g * g;
                let m_hat = m[i] / bc1;
                let v_hat = v[i] / bc2;
                p.data[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockgnn_linalg::Matrix;

    /// A one-parameter quadratic "model": loss = (w - 3)^2.
    #[derive(Debug)]
    struct Quadratic {
        w: Param,
    }

    impl Quadratic {
        fn new(start: f64) -> Self {
            Self { w: Param::new(vec![start]) }
        }
        fn compute_grad(&mut self) {
            self.w.zero_grad();
            let g = 2.0 * (self.w.data[0] - 3.0);
            self.w.accumulate(&[g]);
        }
        fn value(&self) -> f64 {
            self.w.data[0]
        }
    }

    impl Layer for Quadratic {
        fn forward(&mut self, x: &Matrix, _train: bool) -> Matrix {
            x.clone()
        }
        fn backward(&mut self, g: &Matrix) -> Matrix {
            g.clone()
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.w);
        }
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut model = Quadratic::new(-5.0);
        let mut opt = Adam::new(0.3);
        for _ in 0..300 {
            model.compute_grad();
            opt.step(&mut model);
        }
        assert!((model.value() - 3.0).abs() < 1e-3, "ended at {}", model.value());
    }

    #[test]
    fn adam_first_step_has_unit_scale() {
        // With bias correction, the first Adam step is ≈ lr regardless of
        // gradient magnitude.
        let mut model = Quadratic::new(100.0);
        let mut opt = Adam::new(0.5);
        model.compute_grad();
        opt.step(&mut model);
        assert!((model.value() - 99.5).abs() < 1e-6);
    }
}

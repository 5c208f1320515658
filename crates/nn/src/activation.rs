//! Activation layers: the non-linearities of Table I.
//!
//! GCN/GS-Pool/G-GCN combine with `Relu`, GAT with `Elu`, and G-GCN's
//! edge gates use `Sigmoid` (σ). All are element-wise layers that cache
//! what their backward pass needs. The hardware VPU executes these same
//! functions (§III-C "VPU supports non-linear functions (eg. ReLU, Exp
//! and Sigmoid)").

use crate::layer::Layer;
use crate::param::Param;
use blockgnn_linalg::Matrix;

/// The element-wise function an activation layer applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// `max(0, x)`.
    Relu,
    /// `1 / (1 + e^{-x})`.
    Sigmoid,
    /// `x` if positive else `alpha·(e^x − 1)`.
    Elu(
        /// Negative-side scale.
        f64,
    ),
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the function to a scalar.
    #[must_use]
    pub fn apply(&self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Elu(a) => {
                if x > 0.0 {
                    x
                } else {
                    a * (x.exp() - 1.0)
                }
            }
            Activation::Tanh => x.tanh(),
        }
    }

    /// Derivative expressed in terms of input `x` and output `y = f(x)`.
    #[must_use]
    pub fn derivative(&self, x: f64, y: f64) -> f64 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Elu(a) => {
                if x > 0.0 {
                    1.0
                } else {
                    y + a
                }
            }
            Activation::Tanh => 1.0 - y * y,
        }
    }
}

/// Generic element-wise activation layer.
#[derive(Debug, Clone)]
pub struct ActivationLayer {
    kind: Activation,
    cached_input: Option<Matrix>,
    cached_output: Option<Matrix>,
}

impl ActivationLayer {
    /// Creates an activation layer of the given kind.
    #[must_use]
    pub fn new(kind: Activation) -> Self {
        Self { kind, cached_input: None, cached_output: None }
    }

    /// Applies the activation to `values` where they lie, touching no
    /// backward-pass cache — the inference path, and the one element-wise
    /// loop: [`Layer::forward`] runs it on a copy of its input and then
    /// snapshots input and output for `backward`.
    pub fn apply_in_place(&self, values: &mut [f64]) {
        for v in values {
            *v = self.kind.apply(*v);
        }
    }

    /// Drops the backward-pass snapshots (e.g. before forking an
    /// inference-only replica, which never reads them).
    pub fn clear_cached(&mut self) {
        self.cached_input = None;
        self.cached_output = None;
    }
}

impl Layer for ActivationLayer {
    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        let mut y = x.clone();
        self.apply_in_place(y.as_mut_slice());
        if train {
            self.cached_input = Some(x.clone());
            self.cached_output = Some(y.clone());
        } else {
            // Inference forwards snapshot nothing (two matrix clones per
            // layer on the serving hot path otherwise); drop any stale
            // training snapshots so a mismatched backward fails loudly
            // instead of using them.
            self.clear_cached();
        }
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = self.cached_input.as_ref().expect("backward before forward");
        let y = self.cached_output.as_ref().expect("backward before forward");
        assert_eq!(grad_out.shape(), x.shape(), "activation grad shape mismatch");
        Matrix::from_fn(x.rows(), x.cols(), |i, j| {
            grad_out[(i, j)] * self.kind.derivative(x[(i, j)], y[(i, j)])
        })
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

macro_rules! named_activation {
    ($(#[$doc:meta])* $name:ident, $kind:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name(ActivationLayer);

        impl $name {
            /// Creates the layer.
            #[must_use]
            pub fn new() -> Self {
                Self(ActivationLayer::new($kind))
            }
        }

        /// The generic layer this one names a kind of: its inference
        /// and cache methods, and a common type for callers that take
        /// "some activation".
        impl std::ops::Deref for $name {
            type Target = ActivationLayer;
            fn deref(&self) -> &ActivationLayer {
                &self.0
            }
        }

        impl std::ops::DerefMut for $name {
            fn deref_mut(&mut self) -> &mut ActivationLayer {
                &mut self.0
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new()
            }
        }

        impl Layer for $name {
            fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
                self.0.forward(x, train)
            }
            fn backward(&mut self, grad_out: &Matrix) -> Matrix {
                self.0.backward(grad_out)
            }
            fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
                self.0.visit_params(f)
            }
        }
    };
}

named_activation!(
    /// ReLU layer (`max(0, x)`), the combiner non-linearity of
    /// GCN/GS-Pool/G-GCN in Table I.
    Relu,
    Activation::Relu
);
named_activation!(
    /// Sigmoid layer, the σ of G-GCN's edge gates.
    Sigmoid,
    Activation::Sigmoid
);
named_activation!(
    /// ELU layer (α = 1), GAT's combiner non-linearity in Table I.
    Elu,
    Activation::Elu(1.0)
);
named_activation!(
    /// Tanh layer.
    Tanh,
    Activation::Tanh
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_values() {
        assert_eq!(Activation::Relu.apply(-2.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert!((Activation::Elu(1.0).apply(-1.0) - (1.0f64.exp().recip() - 1.0)).abs() < 1e-9);
        assert_eq!(Activation::Tanh.apply(0.0), 0.0);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let kinds =
            [Activation::Relu, Activation::Sigmoid, Activation::Elu(1.0), Activation::Tanh];
        let eps = 1e-6;
        for kind in kinds {
            for &x in &[-2.0, -0.5, 0.3, 1.7] {
                let y = kind.apply(x);
                let numeric = (kind.apply(x + eps) - kind.apply(x - eps)) / (2.0 * eps);
                let analytic = kind.derivative(x, y);
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "{kind:?} at {x}: numeric {numeric} analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn layer_forward_backward() {
        let mut relu = Relu::new();
        let x = Matrix::from_rows(&[vec![-1.0, 2.0], vec![0.5, -3.0]]).unwrap();
        let y = relu.forward(&x, true);
        assert_eq!(y.row(0), &[0.0, 2.0]);
        let g = relu.backward(&Matrix::filled(2, 2, 1.0));
        assert_eq!(g.row(0), &[0.0, 1.0]);
        assert_eq!(g.row(1), &[1.0, 0.0]);
        assert_eq!(relu.num_params(), 0);
    }

    #[test]
    fn default_constructors() {
        let _ = Relu::default();
        let _ = Sigmoid::default();
        let _ = Elu::default();
        let _ = Tanh::default();
    }
}

//! Slice-level vector kernels.
//!
//! These free functions are scalar building blocks of the software GNN
//! implementations — the vector work the paper's VPU executes:
//! vector–vector add/multiply, scalar scaling, max-pooling.

/// Dot product `Σ aᵢ·bᵢ`.
///
/// # Panics
///
/// Panics if lengths differ.
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product requires equal lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// In-place `y += alpha * x` (the BLAS `axpy`).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy requires equal lengths");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Element-wise (Hadamard) product, returning a new vector.
///
/// # Panics
///
/// Panics if lengths differ.
#[must_use]
pub fn hadamard(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "hadamard requires equal lengths");
    a.iter().zip(b).map(|(x, y)| x * y).collect()
}

/// Element-wise sum, returning a new vector.
///
/// # Panics
///
/// Panics if lengths differ.
#[must_use]
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add requires equal lengths");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// In-place element-wise maximum `y[i] = max(y[i], x[i])`, the kernel of
/// the GS-Pool max aggregator.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn max_in_place(y: &mut [f64], x: &[f64]) {
    assert_eq!(x.len(), y.len(), "max_in_place requires equal lengths");
    for (yi, &xi) in y.iter_mut().zip(x) {
        if xi > *yi {
            *yi = xi;
        }
    }
}

/// Scales a vector in place.
pub fn scale_in_place(y: &mut [f64], k: f64) {
    for v in y {
        *v *= k;
    }
}

/// Index of the maximum element (first on ties); `None` on empty input.
#[must_use]
pub fn argmax(x: &[f64]) -> Option<usize> {
    if x.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, &v) in x.iter().enumerate().skip(1) {
        if v > x[best] {
            best = i;
        }
    }
    Some(best)
}

/// Euclidean norm.
#[must_use]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Numerically-stable softmax (subtracts the maximum before
/// exponentiating). Returns an all-zero vector for empty input.
#[must_use]
pub fn softmax(x: &[f64]) -> Vec<f64> {
    let mut y = x.to_vec();
    softmax_in_place(&mut y);
    y
}

/// [`softmax`] overwriting its input — the body of both, so a caller
/// that recycles one buffer gets the allocating form's exact bits.
pub fn softmax_in_place(x: &mut [f64]) {
    let m = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for v in x.iter_mut() {
        *v = (*v - m).exp();
    }
    let sum: f64 = x.iter().sum();
    for v in x.iter_mut() {
        *v /= sum;
    }
}

/// Maximum absolute difference between two vectors.
///
/// # Panics
///
/// Panics if lengths differ.
#[must_use]
pub fn linf_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "linf_distance requires equal lengths");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn hadamard_and_add() {
        assert_eq!(hadamard(&[1.0, 2.0], &[3.0, 4.0]), vec![3.0, 8.0]);
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
    }

    #[test]
    fn max_pooling_kernel() {
        let mut y = vec![1.0, 5.0, -2.0];
        max_in_place(&mut y, &[3.0, 2.0, -1.0]);
        assert_eq!(y, vec![3.0, 5.0, -1.0]);
    }

    #[test]
    fn argmax_cases() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[1.0]), Some(0));
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), Some(1));
        // first wins on ties
        assert_eq!(argmax(&[2.0, 2.0]), Some(0));
    }

    #[test]
    fn softmax_is_a_distribution() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn softmax_handles_large_inputs() {
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!(p.iter().all(|v| v.is_finite()));
    }

    proptest! {
        #[test]
        fn prop_softmax_shift_invariant(
            xs in proptest::collection::vec(-10.0f64..10.0, 1..16),
            c in -100.0f64..100.0,
        ) {
            let p = softmax(&xs);
            let shifted: Vec<f64> = xs.iter().map(|v| v + c).collect();
            let q = softmax(&shifted);
            prop_assert!(linf_distance(&p, &q) < 1e-9);
        }

        #[test]
        fn prop_dot_is_bilinear(
            xs in proptest::collection::vec(-5.0f64..5.0, 8),
            ys in proptest::collection::vec(-5.0f64..5.0, 8),
            k in -3.0f64..3.0,
        ) {
            let scaled: Vec<f64> = xs.iter().map(|v| v * k).collect();
            prop_assert!((dot(&scaled, &ys) - k * dot(&xs, &ys)).abs() < 1e-9);
        }
    }
}

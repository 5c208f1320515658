//! Q16.16 as a [`Scalar`]: the fixed-point FFT of the FPGA prototype.
//!
//! There is no separate fixed-point plan. [`crate::FftPlan`] and
//! [`crate::RealFftPlan`] at `T = Q16_16` *are* the 32-bit datapath:
//! data flows through the butterflies as `Complex<Q16_16>` with the
//! type's saturating `+`/`-`/`*`, and this impl supplies what a hardware
//! FFT core does differently from a float one. Twiddle factors are stored
//! in Q2.30, so the unit-circle coefficients keep 30 fractional bits (data
//! width ≠ coefficient width, the standard arrangement); a sample times a
//! coefficient is one widening multiply rounded back to Q16.16; and the
//! untangle's halving and the inverse's `1/n` are round-to-nearest
//! arithmetic right shifts. The serving engine's simulated-accelerator
//! backend runs its weight products on these, so every value it produces
//! went through genuine fixed-point rounding and saturation.

use crate::complex::Complex;
use crate::fixed::Q16_16;
use crate::scalar::Scalar;

/// Fractional bits used for twiddle-factor storage (Q2.30).
pub const TWIDDLE_FRAC: u32 = 30;

impl Scalar for Q16_16 {
    type Twiddle = i32;
    const ZERO: Self = Q16_16::ZERO;

    #[inline]
    fn from_f64(v: f64) -> Self {
        Q16_16::from_f64(v)
    }

    #[inline]
    fn to_f64(self) -> f64 {
        Q16_16::to_f64(self)
    }

    fn twiddle(k: usize, n: usize) -> Complex<i32> {
        let q = |x: f64| -> i32 {
            let v = (x * (1i64 << TWIDDLE_FRAC) as f64).round();
            v.clamp(i32::MIN as f64, i32::MAX as f64) as i32
        };
        let theta = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
        Complex { re: q(theta.cos()), im: q(theta.sin()) }
    }

    #[inline(always)]
    fn mul_twiddle(self, w: i32) -> Self {
        self.mul_qformat(w, TWIDDLE_FRAC)
    }

    #[inline(always)]
    fn div_pow2(self, log2: u32) -> Self {
        if log2 == 0 {
            return self;
        }
        // An arithmetic shift alone rounds toward −∞; adding half an ulp
        // of the result first gives round-to-nearest, like the hardware.
        // (The sum is formed in 64 bits and the quotient is at most 2³⁰.)
        Q16_16::from_bits(((i64::from(self.to_bits()) + (1i64 << (log2 - 1))) >> log2) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FftPlan, RealFftPlan};
    use proptest::prelude::*;

    type QComplex = Complex<Q16_16>;

    fn quantize(values: &[f64]) -> Vec<QComplex> {
        values.iter().map(|&v| Complex::from_real(Q16_16::from_f64(v))).collect()
    }

    fn to_f64(c: QComplex) -> Complex<f64> {
        Complex::new(c.re.to_f64(), c.im.to_f64())
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(FftPlan::<Q16_16>::new(10).is_err());
        assert!(FftPlan::<Q16_16>::new(16).is_ok());
    }

    #[test]
    fn matches_float_fft_for_small_signals() {
        for n in [4usize, 16, 64, 128] {
            let fplan = FftPlan::<f64>::new(n).unwrap();
            let qplan = FftPlan::<Q16_16>::new(n).unwrap();
            let input: Vec<f64> =
                (0..n).map(|i| ((i as f64 * 0.37).sin() * 2.0) - 0.5).collect();
            let mut float_buf: Vec<Complex<f64>> =
                input.iter().map(|&v| Complex::from_real(v)).collect();
            fplan.forward(&mut float_buf);
            let mut fixed_buf = quantize(&input);
            qplan.forward(&mut fixed_buf);
            for (f, q) in float_buf.iter().zip(&fixed_buf) {
                let qc = to_f64(*q);
                // Error grows with log2(n) stages of rounding.
                let tol = 1e-3 * (n as f64).log2().max(1.0);
                assert!(f.linf_distance(qc) < tol, "n={n}: float={f} fixed={qc}");
            }
        }
    }

    #[test]
    fn roundtrip_error_stays_small() {
        let n = 128;
        let plan = FftPlan::<Q16_16>::new(n).unwrap();
        let input: Vec<f64> = (0..n).map(|i| ((i * 13 % 29) as f64 / 29.0) - 0.5).collect();
        let mut buf = quantize(&input);
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        for (q, &orig) in buf.iter().zip(&input) {
            assert!((q.re.to_f64() - orig).abs() < 5e-4);
            assert!(q.im.to_f64().abs() < 5e-4);
        }
    }

    #[test]
    fn fixed_complex_multiply_matches_float() {
        let a = Complex::new(1.25, -0.5);
        let b = Complex::new(-2.0, 0.75);
        let q = |c: Complex<f64>| Complex::new(Q16_16::from_f64(c.re), Q16_16::from_f64(c.im));
        assert!(to_f64(q(a) * q(b)).linf_distance(a * b) < 1e-4);
    }

    #[test]
    fn halving_and_inverse_scaling_round_to_nearest() {
        let q = Q16_16::from_bits;
        assert_eq!(q(5).div_pow2(0), q(5));
        assert_eq!(q(5).div_pow2(1), q(3)); // 2.5 ulp rounds up
        assert_eq!(q(-5).div_pow2(1), q(-2)); // −2.5 ulp rounds toward +∞, as a shift does
        assert_eq!(q(6).div_pow2(2), q(2)); // 1.5 ulp
        assert_eq!(Q16_16::MAX.div_pow2(1), q(1 << 30));
        assert_eq!(Q16_16::MIN.div_pow2(6), q(-(1 << 25)));
    }

    #[test]
    fn real_plan_matches_float_half_spectrum() {
        for n in [2usize, 4, 16, 64] {
            let fplan = RealFftPlan::<f64>::new(n).unwrap();
            let qplan = RealFftPlan::<Q16_16>::new(n).unwrap();
            let input: Vec<f64> =
                (0..n).map(|i| ((i as f64 * 0.53).cos() * 1.5) - 0.2).collect();
            let float_spec = fplan.forward(&input).unwrap();
            let qx: Vec<Q16_16> = input.iter().map(|&v| Q16_16::from_f64(v)).collect();
            let fixed_spec = qplan.forward(&qx).unwrap();
            assert_eq!(fixed_spec.len(), n / 2 + 1);
            let tol = 2e-3 * (n as f64).log2().max(1.0);
            for (f, q) in float_spec.iter().zip(&fixed_spec) {
                assert!(f.linf_distance(to_f64(*q)) < tol, "n={n}");
            }
        }
    }

    #[test]
    fn real_plan_length_one_is_identity() {
        let plan = RealFftPlan::<Q16_16>::new(1).unwrap();
        let x = [Q16_16::from_f64(-2.5)];
        let spec = plan.forward(&x).unwrap();
        assert_eq!(spec, [Complex::from_real(x[0])]);
        assert_eq!(plan.inverse(&spec).unwrap(), x);
    }

    #[test]
    fn real_plan_rejects_non_power_of_two() {
        assert!(RealFftPlan::<Q16_16>::new(0).is_err());
        assert!(RealFftPlan::<Q16_16>::new(6).is_err());
    }

    proptest! {
        #[test]
        fn prop_fixed_roundtrip(values in proptest::collection::vec(-10.0f64..10.0, 32)) {
            let plan = FftPlan::<Q16_16>::new(32).unwrap();
            let mut buf = quantize(&values);
            plan.forward(&mut buf);
            plan.inverse(&mut buf);
            for (q, &orig) in buf.iter().zip(&values) {
                prop_assert!((q.re.to_f64() - orig).abs() < 2e-3);
            }
        }

        #[test]
        fn prop_fixed_real_roundtrip(values in proptest::collection::vec(-10.0f64..10.0, 32)) {
            let plan = RealFftPlan::<Q16_16>::new(32).unwrap();
            let qx: Vec<Q16_16> = values.iter().map(|&v| Q16_16::from_f64(v)).collect();
            let back = plan.inverse(&plan.forward(&qx).unwrap()).unwrap();
            for (q, &orig) in back.iter().zip(&values) {
                prop_assert!((q.to_f64() - orig).abs() < 3e-3);
            }
        }
    }
}

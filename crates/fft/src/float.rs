//! The floating-point [`Scalar`]s, `f32` and `f64`.
//!
//! The algorithm-level experiments in the paper run in floating point
//! (training uses full precision; Table III), while the FPGA prototype is
//! 32-bit fixed point. The plans are generic over [`Scalar`], so the same
//! butterflies serve the accuracy experiments (`f64`), a faithful
//! single-precision mode (`f32`) and the Q16.16 datapath
//! ([`crate::fixed_fft`]). [`FftFloat`] adds what only a float can do —
//! trigonometry, division, ordering — for the reference DFT and the
//! complex-number helpers the tests use.

use crate::complex::Complex;
use crate::scalar::Scalar;
use std::fmt::Display;
use std::iter::Sum;
use std::ops::{AddAssign, Div, DivAssign, MulAssign, SubAssign};

/// A floating-point [`Scalar`]. Sealed in practice: only `f32` and `f64`
/// implement it.
pub trait FftFloat:
    Scalar
    + Display
    + PartialOrd
    + Div<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
{
    /// Multiplicative identity.
    const ONE: Self;
    /// Archimedes' constant π.
    const PI: Self;

    /// Lossy conversion from `usize`, used for the reference DFT's angles.
    fn from_usize(v: usize) -> Self;
    /// Sine.
    fn sin(self) -> Self;
    /// Cosine.
    fn cos(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
}

macro_rules! impl_fft_float {
    ($t:ty, $pi:expr) => {
        impl Scalar for $t {
            type Twiddle = $t;
            const ZERO: Self = 0.0;

            #[inline]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn twiddle(k: usize, n: usize) -> Complex<$t> {
                let theta = -(2.0 * $pi * k as $t) / n as $t;
                Complex { re: theta.cos(), im: theta.sin() }
            }
            #[inline(always)]
            fn mul_twiddle(self, w: $t) -> Self {
                self * w
            }
            #[inline(always)]
            fn div_pow2(self, log2: u32) -> Self {
                // 2^-log2 is exact, so this is the division, bit for bit.
                self * (1.0 / (1u64 << log2) as $t)
            }
        }

        impl FftFloat for $t {
            const ONE: Self = 1.0;
            const PI: Self = $pi;

            #[inline]
            fn from_usize(v: usize) -> Self {
                v as $t
            }
            #[inline]
            fn sin(self) -> Self {
                <$t>::sin(self)
            }
            #[inline]
            fn cos(self) -> Self {
                <$t>::cos(self)
            }
            #[inline]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
        }
    };
}

impl_fft_float!(f32, std::f32::consts::PI);
impl_fft_float!(f64, std::f64::consts::PI);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: FftFloat>() {
        assert_eq!(T::from_usize(7).to_f64(), 7.0);
        assert_eq!(T::from_f64(0.5).to_f64(), 0.5);
        assert!((T::PI.to_f64() - std::f64::consts::PI).abs() < 1e-6);
    }

    #[test]
    fn conversions_f32_f64() {
        roundtrip::<f32>();
        roundtrip::<f64>();
    }

    #[test]
    fn trig_matches_std() {
        let x = 0.3_f64;
        assert_eq!(FftFloat::sin(x), x.sin());
        assert_eq!(FftFloat::cos(x), x.cos());
        assert_eq!(FftFloat::sqrt(2.0_f64), 2.0_f64.sqrt());
    }
}

//! Q16.16 fixed-point arithmetic.
//!
//! The BlockGNN FPGA prototype computes in 32-bit fixed point (§IV-B).
//! [`Q16_16`] models that format: a signed 32-bit integer interpreted as a
//! value scaled by 2¹⁶, i.e. 16 integer bits and 16 fractional bits, with
//! saturating arithmetic (overflow clamps instead of wrapping, matching
//! the saturation logic a DSP48-based datapath would use).
//!
//! The serving engine's simulated-accelerator backend runs every FFT
//! butterfly and spectral MAC of its weight products through this type —
//! as a [`crate::Scalar`] ([`crate::fixed_fft`]), it is what the generic
//! plans and the block-circulant kernel compute in — so quantization
//! error observed in end-to-end tests reflects what the bitstream would
//! produce.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Number of fractional bits in the Q16.16 format.
pub const FRAC_BITS: u32 = 16;
/// Scale factor 2¹⁶.
pub const SCALE: i64 = 1 << FRAC_BITS;

/// A Q16.16 signed fixed-point number.
///
/// Range ≈ [−32768, 32767.99998], resolution 2⁻¹⁶ ≈ 1.5e-5.
///
/// ```
/// use blockgnn_fft::Q16_16;
/// let a = Q16_16::from_f64(1.5);
/// let b = Q16_16::from_f64(-2.25);
/// assert!((a * b).to_f64() + 3.375 < 1e-4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Q16_16(i32);

impl Q16_16 {
    /// Zero.
    pub const ZERO: Self = Self(0);
    /// One (raw value 2¹⁶).
    pub const ONE: Self = Self(1 << FRAC_BITS);
    /// One half.
    pub const HALF: Self = Self(1 << (FRAC_BITS - 1));
    /// Largest representable value (≈ 32768).
    pub const MAX: Self = Self(i32::MAX);
    /// Smallest representable value (≈ −32768).
    pub const MIN: Self = Self(i32::MIN);
    /// Smallest positive increment, 2⁻¹⁶.
    pub const EPSILON: Self = Self(1);

    /// Constructs from the raw i32 bit pattern (no scaling applied).
    #[inline]
    #[must_use]
    pub const fn from_bits(bits: i32) -> Self {
        Self(bits)
    }

    /// Returns the raw i32 bit pattern.
    #[inline]
    #[must_use]
    pub const fn to_bits(self) -> i32 {
        self.0
    }

    /// Converts from `f64`, saturating at the representable range and
    /// rounding to nearest: `±∞` clamp to [`Q16_16::MAX`]/[`Q16_16::MIN`]
    /// like any other out-of-range value. **NaN becomes zero** (neither
    /// comparison holds and a float-to-int `as` maps NaN to 0), silently:
    /// a caller that may hold NaN must check before quantizing.
    #[inline]
    #[must_use]
    pub fn from_f64(v: f64) -> Self {
        let scaled = (v * SCALE as f64).round();
        if scaled >= i32::MAX as f64 {
            Self::MAX
        } else if scaled <= i32::MIN as f64 {
            Self::MIN
        } else {
            Self(scaled as i32)
        }
    }

    /// Converts to `f64` exactly (every Q16.16 value is representable).
    #[inline]
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / SCALE as f64
    }

    /// Absolute value, saturating on `MIN`.
    #[inline]
    #[must_use]
    pub fn abs(self) -> Self {
        Self(self.0.saturating_abs())
    }

    /// Saturating conversion from a wide Q16.16 intermediate.
    #[inline]
    fn saturate(wide: i64) -> Self {
        if wide > i32::MAX as i64 {
            Self::MAX
        } else if wide < i32::MIN as i64 {
            Self::MIN
        } else {
            Self(wide as i32)
        }
    }

    /// Multiply with a value in a different Q format: `self · (other / 2^frac)`.
    ///
    /// Used by the fixed-point FFT, whose twiddle factors are stored in
    /// Q2.30 for precision while data stays in Q16.16.
    #[inline]
    #[must_use]
    pub fn mul_qformat(self, other: i32, frac: u32) -> Self {
        let wide = (self.0 as i64) * (other as i64);
        // Round to nearest before dropping the other operand's fraction.
        let rounded = (wide + (1i64 << (frac - 1))) >> frac;
        Self::saturate(rounded)
    }
}

impl Add for Q16_16 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Q16_16 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Sub for Q16_16 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Q16_16 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl Mul for Q16_16 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        let wide = (self.0 as i64) * (rhs.0 as i64);
        let rounded = (wide + (1i64 << (FRAC_BITS - 1))) >> FRAC_BITS;
        Self::saturate(rounded)
    }
}

impl MulAssign for Q16_16 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Div for Q16_16 {
    type Output = Self;
    /// Fixed-point division.
    ///
    /// # Panics
    ///
    /// Panics on division by zero, like integer division.
    #[inline]
    fn div(self, rhs: Self) -> Self {
        let wide = ((self.0 as i64) << FRAC_BITS) / rhs.0 as i64;
        Self::saturate(wide)
    }
}

impl Neg for Q16_16 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self(self.0.saturating_neg())
    }
}

impl fmt::Display for Q16_16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constants_convert_exactly() {
        assert_eq!(Q16_16::ZERO.to_f64(), 0.0);
        assert_eq!(Q16_16::ONE.to_f64(), 1.0);
        assert_eq!(Q16_16::HALF.to_f64(), 0.5);
        assert_eq!(Q16_16::EPSILON.to_f64(), 1.0 / 65536.0);
    }

    #[test]
    fn from_f64_rounds_to_nearest() {
        // 0.000008 is below half an epsilon -> rounds to 0
        assert_eq!(Q16_16::from_f64(0.000_007), Q16_16::ZERO);
        // just above half an epsilon -> rounds to 1 ulp
        assert_eq!(Q16_16::from_f64(0.000_009), Q16_16::EPSILON);
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(Q16_16::from_f64(1e9), Q16_16::MAX);
        assert_eq!(Q16_16::from_f64(-1e9), Q16_16::MIN);
        assert_eq!(Q16_16::MAX + Q16_16::ONE, Q16_16::MAX);
        assert_eq!(Q16_16::MIN - Q16_16::ONE, Q16_16::MIN);
        let big = Q16_16::from_f64(30000.0);
        assert_eq!(big * big, Q16_16::MAX);
        assert_eq!(-Q16_16::MIN, Q16_16::MAX); // saturating negation
                                               // Non-finite input: the infinities clamp, NaN quantizes to zero.
        assert_eq!(Q16_16::from_f64(f64::INFINITY), Q16_16::MAX);
        assert_eq!(Q16_16::from_f64(f64::NEG_INFINITY), Q16_16::MIN);
        assert_eq!(Q16_16::from_f64(f64::NAN), Q16_16::ZERO);
    }

    #[test]
    fn multiplication_precision() {
        let a = Q16_16::from_f64(3.25);
        let b = Q16_16::from_f64(-1.5);
        assert!((a * b).to_f64() - (-4.875) == 0.0);
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Q16_16::from_f64(5.5);
        let b = Q16_16::from_f64(2.0);
        assert_eq!((a / b).to_f64(), 2.75);
    }

    #[test]
    fn qformat_multiply_with_q2_30() {
        // cos(pi/4) in Q2.30
        let c = (std::f64::consts::FRAC_1_SQRT_2 * (1i64 << 30) as f64).round() as i32;
        let x = Q16_16::from_f64(2.0);
        let y = x.mul_qformat(c, 30);
        assert!((y.to_f64() - std::f64::consts::SQRT_2).abs() < 1e-4);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_within_epsilon(v in -30000.0f64..30000.0) {
            let q = Q16_16::from_f64(v);
            prop_assert!((q.to_f64() - v).abs() <= 0.5 / SCALE as f64 + 1e-12);
        }

        #[test]
        fn prop_addition_matches_f64(a in -1000.0f64..1000.0, b in -1000.0f64..1000.0) {
            let qa = Q16_16::from_f64(a);
            let qb = Q16_16::from_f64(b);
            prop_assert!(((qa + qb).to_f64() - (a + b)).abs() < 2.0 / SCALE as f64);
        }

        #[test]
        fn prop_multiplication_error_bounded(a in -100.0f64..100.0, b in -100.0f64..100.0) {
            let qa = Q16_16::from_f64(a);
            let qb = Q16_16::from_f64(b);
            // error ~ |a|*eps + |b|*eps + eps
            let tol = (a.abs() + b.abs() + 1.0) * (1.5 / SCALE as f64);
            prop_assert!(((qa * qb).to_f64() - a * b).abs() < tol);
        }

        #[test]
        fn prop_ordering_consistent(a in -1000.0f64..1000.0, b in -1000.0f64..1000.0) {
            let qa = Q16_16::from_f64(a);
            let qb = Q16_16::from_f64(b);
            if (a - b).abs() > 1.0 / SCALE as f64 {
                prop_assert_eq!(qa < qb, a < b);
            }
        }
    }
}

//! The arithmetic the transforms are written over.
//!
//! The paper has one datapath — RFFT → element-wise MAC → IRFFT — built
//! twice: in floating point for the accuracy experiments and in 32-bit
//! fixed point on the FPGA (§IV-B). The plans ([`crate::FftPlan`],
//! [`crate::RealFftPlan`]) and the block-circulant kernel in
//! `blockgnn-core` are therefore one body over a [`Scalar`]: ring
//! arithmetic plus the three places where a fixed-point pipeline differs
//! from a float one — how unit-circle coefficients are stored, how a
//! sample is multiplied by one, and how it is divided by a power of two.
//! `f32`/`f64` implement it in [`crate::float`], [`crate::Q16_16`] in
//! [`crate::fixed_fft`].

use crate::complex::Complex;
use std::fmt::Debug;
use std::ops::{Add, Mul, Neg, Sub};

/// A number the butterflies, the untangle steps and the spectral MAC can
/// run on. `+`, `-`, `*` and unary `-` are the type's own (saturating for
/// [`crate::Q16_16`], IEEE for floats).
pub trait Scalar:
    Copy
    + Debug
    + Default
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + Send
    + Sync
    + 'static
{
    /// One word of the twiddle ROM: the format `cos θ` and `sin θ` are
    /// stored in. The float types store themselves; a fixed-point pipeline
    /// keeps coefficients wider than data (Q2.30 beside Q16.16).
    type Twiddle: Copy + Debug + Neg<Output = Self::Twiddle> + Send + Sync + 'static;

    /// Additive identity.
    const ZERO: Self;

    /// Conversion from `f64`, rounding (and clamping) as the type does.
    fn from_f64(v: f64) -> Self;
    /// Conversion to `f64`, used when exporting results.
    fn to_f64(self) -> f64;
    /// The twiddle factor `e^{-2πik/n}`.
    fn twiddle(k: usize, n: usize) -> Complex<Self::Twiddle>;
    /// `self · w` for one twiddle word.
    #[must_use]
    fn mul_twiddle(self, w: Self::Twiddle) -> Self;
    /// `self / 2^log2` — the untangle's halving and the inverse
    /// transform's `1/n`: an exact reciprocal multiply for floats, a
    /// round-to-nearest arithmetic shift in fixed point.
    #[must_use]
    fn div_pow2(self, log2: u32) -> Self;
}

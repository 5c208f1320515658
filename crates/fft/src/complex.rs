//! A minimal complex-number type.
//!
//! We implement complex arithmetic from scratch instead of pulling in
//! `num-complex`: the FFT kernels and the spectral weight storage in
//! `blockgnn-core`, f64 and Q16.16 alike, operate on this type, and
//! keeping it local lets the Q16.16 datapath mirror the exact
//! multiply–accumulate structure a DSP slice performs (4 real
//! multiplies + 2 adds per complex MAC, which is where the paper's
//! `γ(l) = 16·l` DSP cost for `l` parallel complex MACs comes from).

use crate::float::FftFloat;
use crate::scalar::Scalar;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + i·im` over a [`Scalar`] — a float, or Q16.16
/// (the arithmetic is then the scalar's own: saturating, 4 multiplies and
/// 2 adds per product, the datapath a DSP-slice cluster implements).
///
/// ```
/// use blockgnn_fft::Complex;
/// let a = Complex::new(1.0_f64, 2.0);
/// let b = Complex::new(3.0, -1.0);
/// assert_eq!(a * b, Complex::new(5.0, 5.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex<T> {
    /// Real part.
    pub re: T,
    /// Imaginary part.
    pub im: T,
}

impl<T: Copy + Neg<Output = T>> Complex<T> {
    /// Complex conjugate `re - i·im` (of a value or of a twiddle word).
    #[inline]
    #[must_use]
    pub fn conj(self) -> Self {
        Self { re: self.re, im: -self.im }
    }
}

impl<T: Scalar> Complex<T> {
    /// Creates a complex number from its real and imaginary parts.
    #[inline]
    #[must_use]
    pub fn new(re: T, im: T) -> Self {
        Self { re, im }
    }

    /// The additive identity `0 + 0i`.
    #[inline]
    #[must_use]
    pub fn zero() -> Self {
        Self { re: T::ZERO, im: T::ZERO }
    }

    /// A purely real complex number.
    #[inline]
    #[must_use]
    pub fn from_real(re: T) -> Self {
        Self { re, im: T::ZERO }
    }

    /// Multiply–accumulate: `self + a * b`.
    ///
    /// This is exactly the per-element operation the CirCore systolic
    /// array's "Parallel Mul-Add" units perform on spectral packs.
    #[inline]
    #[must_use]
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        self + a * b
    }

    /// Multiplication by `i` (a 90° rotation) — a wire swap in hardware.
    #[inline]
    #[must_use]
    pub fn mul_i(self) -> Self {
        Self { re: -self.im, im: self.re }
    }

    /// Multiplication by `-i` (a −90° rotation); the RFFT untangling step
    /// has `Xo = (Z[k] - conj(Z[N-k])) / (2i)`.
    #[inline]
    #[must_use]
    pub fn mul_i_neg(self) -> Self {
        Self { re: self.im, im: -self.re }
    }

    /// Multiplication by a twiddle factor in the scalar's coefficient
    /// format ([`Scalar::mul_twiddle`] on the four partial products).
    #[inline(always)]
    #[must_use]
    pub fn mul_twiddle(self, w: Complex<T::Twiddle>) -> Self {
        Self {
            re: self.re.mul_twiddle(w.re) - self.im.mul_twiddle(w.im),
            im: self.re.mul_twiddle(w.im) + self.im.mul_twiddle(w.re),
        }
    }

    /// Division of both parts by `2^log2` ([`Scalar::div_pow2`]).
    #[inline(always)]
    #[must_use]
    pub fn div_pow2(self, log2: u32) -> Self {
        Self { re: self.re.div_pow2(log2), im: self.im.div_pow2(log2) }
    }
}

impl<T: FftFloat> Complex<T> {
    /// The multiplicative identity `1 + 0i`.
    #[inline]
    #[must_use]
    pub fn one() -> Self {
        Self { re: T::ONE, im: T::ZERO }
    }

    /// `e^{iθ} = cos θ + i·sin θ`.
    #[inline]
    #[must_use]
    pub fn from_polar_unit(theta: T) -> Self {
        Self { re: theta.cos(), im: theta.sin() }
    }

    /// Squared magnitude `re² + im²`.
    #[inline]
    #[must_use]
    pub fn norm_sqr(self) -> T {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `√(re² + im²)`.
    #[inline]
    #[must_use]
    pub fn norm(self) -> T {
        self.norm_sqr().sqrt()
    }

    /// Multiplies by a real scalar.
    #[inline]
    #[must_use]
    pub fn scale(self, k: T) -> Self {
        Self { re: self.re * k, im: self.im * k }
    }

    /// L∞ distance between two complex numbers, used by tests.
    #[must_use]
    pub fn linf_distance(self, other: Self) -> T {
        let dr = (self.re - other.re).abs();
        let di = (self.im - other.im).abs();
        if dr > di {
            dr
        } else {
            di
        }
    }
}

/// `L` complex numbers side by side — the real parts, then the imaginary
/// parts. A slice of these is `L` independent complex signals with the
/// lane index innermost, which is what the lane-generic transforms
/// ([`crate::RealFftPlan::forward_lanes`]) and the batched circulant
/// kernel in `blockgnn-core` loop over: every operation is a plain
/// `for lane in 0..L` over `[T; L]`, so it vectorises (for the ISA of the
/// kernel the accessors are inlined into — `blockgnn_linalg::isa`). The
/// one-lane case is [`Complex`] itself.
///
/// Every element starts on a 64-byte cache line, so at eight f64 lanes its
/// real parts are one line and its imaginary parts the next, and a 512-bit
/// load or store never straddles two lines, wherever the allocator put the
/// buffer. Left at f64 alignment, the AVX-512F tile's speed hung on the
/// buffer's address: a 64×96 BC4 product read 1.41–1.53× its AVX2 time in
/// six processes and 0.87× in a seventh; aligned, 0.72–0.76× in each of six.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(64))]
pub struct ComplexLanes<T, const L: usize> {
    /// Real parts, one per lane.
    pub re: [T; L],
    /// Imaginary parts, one per lane.
    pub im: [T; L],
}

/// What the transforms are written over: an element holding
/// [`Lanes::WIDTH`] complex numbers that are read and written one lane at
/// a time. A plain [`Complex`] is the one-lane case, so the scalar
/// transforms and the lane-generic ones are the same code, and
/// [`ComplexLanes`] is the `L`-lane case.
pub trait Lanes<T>: Copy {
    /// How many complex numbers one element holds.
    const WIDTH: usize;
    /// Every lane `0 + 0i`.
    const ZERO: Self;
    /// Lane `l` (`l < WIDTH`).
    fn lane(&self, l: usize) -> Complex<T>;
    /// Overwrites lane `l` (`l < WIDTH`).
    fn set_lane(&mut self, l: usize, value: Complex<T>);
}

impl<T: Scalar> Lanes<T> for Complex<T> {
    const WIDTH: usize = 1;
    const ZERO: Self = Self { re: T::ZERO, im: T::ZERO };
    #[inline(always)]
    fn lane(&self, _: usize) -> Complex<T> {
        *self
    }
    #[inline(always)]
    fn set_lane(&mut self, _: usize, value: Complex<T>) {
        *self = value;
    }
}

impl<T: Scalar, const L: usize> Lanes<T> for ComplexLanes<T, L> {
    const WIDTH: usize = L;
    const ZERO: Self = Self { re: [T::ZERO; L], im: [T::ZERO; L] };
    #[inline(always)]
    fn lane(&self, l: usize) -> Complex<T> {
        Complex { re: self.re[l], im: self.im[l] }
    }
    #[inline(always)]
    fn set_lane(&mut self, l: usize, value: Complex<T>) {
        (self.re[l], self.im[l]) = (value.re, value.im);
    }
}

impl<T: Scalar> Add for Complex<T> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl<T: FftFloat> AddAssign for Complex<T> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl<T: Scalar> Sub for Complex<T> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl<T: FftFloat> SubAssign for Complex<T> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl<T: Scalar> Mul for Complex<T> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl<T: FftFloat> MulAssign for Complex<T> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<T: FftFloat> Div for Complex<T> {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        let d = rhs.norm_sqr();
        Self {
            re: (self.re * rhs.re + self.im * rhs.im) / d,
            im: (self.im * rhs.re - self.re * rhs.im) / d,
        }
    }
}

impl<T: Scalar> Neg for Complex<T> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self { re: -self.re, im: -self.im }
    }
}

impl<T: FftFloat> Sum for Complex<T> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::zero(), |acc, x| acc + x)
    }
}

impl<T: FftFloat> From<T> for Complex<T> {
    fn from(re: T) -> Self {
        Self::from_real(re)
    }
}

impl<T: FftFloat> std::fmt::Display for Complex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im < T::ZERO {
            write!(f, "{}-{}i", self.re, -self.im)
        } else {
            write!(f, "{}+{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type C = Complex<f64>;

    #[test]
    fn basic_arithmetic() {
        let a = C::new(1.0, 2.0);
        let b = C::new(3.0, -4.0);
        assert_eq!(a + b, C::new(4.0, -2.0));
        assert_eq!(a - b, C::new(-2.0, 6.0));
        assert_eq!(a * b, C::new(11.0, 2.0));
        assert_eq!(-a, C::new(-1.0, -2.0));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = C::new(1.5, -0.5);
        let b = C::new(2.0, 3.0);
        let q = (a * b) / b;
        assert!(q.linf_distance(a) < 1e-12);
    }

    #[test]
    fn conjugate_and_norm() {
        let a = C::new(3.0, 4.0);
        assert_eq!(a.conj(), C::new(3.0, -4.0));
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.norm(), 5.0);
        // |a|^2 == a * conj(a)
        let p = a * a.conj();
        assert_eq!(p, C::new(25.0, 0.0));
    }

    #[test]
    fn polar_unit_is_on_unit_circle() {
        for k in 0..16 {
            let theta = 2.0 * std::f64::consts::PI * k as f64 / 16.0;
            let z = C::from_polar_unit(theta);
            assert!((z.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn mul_i_is_quarter_turn() {
        let a = C::new(2.0, 1.0);
        assert_eq!(a.mul_i(), a * C::new(0.0, 1.0));
    }

    #[test]
    fn mul_add_matches_expanded_form() {
        let acc = C::new(0.5, 0.5);
        let a = C::new(1.0, -1.0);
        let b = C::new(2.0, 3.0);
        assert_eq!(acc.mul_add(a, b), acc + a * b);
    }

    #[test]
    fn sum_of_roots_of_unity_is_zero() {
        let n = 8;
        let s: C = (0..n)
            .map(|k| C::from_polar_unit(2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .sum();
        assert!(s.norm() < 1e-12);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", C::new(1.0, 2.0)), "1+2i");
        assert_eq!(format!("{}", C::new(1.0, -2.0)), "1-2i");
    }
}

//! Plan-based radix-2 Cooley–Tukey FFT.
//!
//! A [`FftPlan`] precomputes the twiddle factors for a fixed power-of-two
//! length, then applies the transform in-place to as many buffers as
//! needed. This mirrors the hardware structure: the Xilinx FFT IP the
//! paper instantiates loads its twiddle ROM once per configuration, and
//! every CirCore FFT channel of the same block size shares that
//! configuration.
//!
//! The bit-reversal permutation is not stored: swap `i ↔ r` for every
//! `r = reverse(i) > i` over the `log2 n` index bits, computed from the
//! length. A caller that knows the length at compile time — the
//! block-circulant tile of `blockgnn-core`, compiled per block size — gets
//! a fixed list of swaps, as the FFT IP's input reorder is fixed wiring
//! for its one configured size.
//!
//! The forward transform computes `X[k] = Σ_j x[j]·e^{-2πi jk/n}` (no
//! scaling); the inverse applies the conjugate twiddles and divides by
//! `n`, so `inverse(forward(x)) == x`.

use crate::complex::{Complex, Lanes};
use crate::is_power_of_two;
use crate::scalar::Scalar;
use std::error::Error;
use std::fmt;

/// Error produced when constructing or applying an FFT plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FftError {
    /// The requested transform length is not a non-zero power of two.
    NotPowerOfTwo {
        /// The offending length.
        len: usize,
    },
    /// A buffer passed to the plan does not match the planned length.
    LengthMismatch {
        /// Length the plan was built for.
        expected: usize,
        /// Length of the buffer that was supplied.
        got: usize,
    },
}

impl fmt::Display for FftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FftError::NotPowerOfTwo { len } => {
                write!(f, "fft length {len} is not a non-zero power of two")
            }
            FftError::LengthMismatch { expected, got } => {
                write!(f, "buffer length {got} does not match planned fft length {expected}")
            }
        }
    }
}

impl Error for FftError {}

/// Direction of a transform; used internally to pick twiddle tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Forward,
    Inverse,
}

/// A reusable radix-2 FFT plan for a fixed power-of-two length, over any
/// [`Scalar`]: `f64`/`f32`, or [`crate::Q16_16`] for the FPGA's 32-bit
/// fixed-point datapath (saturating butterflies, Q2.30 twiddle ROM).
///
/// ```
/// use blockgnn_fft::{Complex, FftPlan};
/// # fn main() -> Result<(), blockgnn_fft::FftError> {
/// let plan = FftPlan::<f64>::new(4)?;
/// let mut x = vec![
///     Complex::from_real(1.0),
///     Complex::from_real(2.0),
///     Complex::from_real(3.0),
///     Complex::from_real(4.0),
/// ];
/// plan.forward(&mut x);
/// // DC bin is the sum of the inputs.
/// assert!((x[0].re - 10.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan<T: Scalar> {
    len: usize,
    /// Forward twiddles, laid out stage-major: for stage with half-size
    /// `m`, entries `w^0..w^{m-1}` with `w = e^{-2πi/(2m)}`.
    twiddles_fwd: Vec<Complex<T::Twiddle>>,
    /// Conjugate twiddles for the inverse transform, same layout.
    twiddles_inv: Vec<Complex<T::Twiddle>>,
}

impl<T: Scalar> FftPlan<T> {
    /// Builds a plan for transforms of length `len`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::NotPowerOfTwo`] if `len` is zero or not a power
    /// of two.
    pub fn new(len: usize) -> Result<Self, FftError> {
        if !is_power_of_two(len) {
            return Err(FftError::NotPowerOfTwo { len });
        }
        // Stage-major twiddle layout: total entries = 1 + 2 + 4 + ... + len/2 = len - 1.
        let mut twiddles_fwd = Vec::with_capacity(len.saturating_sub(1));
        let mut twiddles_inv = Vec::with_capacity(len.saturating_sub(1));
        let mut m = 1;
        while m < len {
            for k in 0..m {
                let w = T::twiddle(k, 2 * m);
                twiddles_fwd.push(w);
                twiddles_inv.push(w.conj());
            }
            m <<= 1;
        }

        Ok(Self { len, twiddles_fwd, twiddles_inv })
    }

    /// The transform length this plan was built for.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` for the degenerate length-1 plan.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// In-place forward FFT (unscaled).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the planned length.
    pub fn forward(&self, data: &mut [Complex<T>]) {
        self.forward_lanes(self.len, data).expect("fft buffer length mismatch");
    }

    /// In-place inverse FFT (scaled by `1/n`).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the planned length.
    pub fn inverse(&self, data: &mut [Complex<T>]) {
        self.inverse_lanes(self.len, data).expect("fft buffer length mismatch");
    }

    /// Forward FFT of a real-valued slice, returning a fresh complex buffer.
    ///
    /// Convenience for callers holding plain `&[T]` feature data (the GNN
    /// feature sub-vectors are always real; see also [`crate::real`] for
    /// the packed RFFT that halves the work).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] when `data.len()` differs from
    /// the planned length.
    pub fn forward_real(&self, data: &[T]) -> Result<Vec<Complex<T>>, FftError> {
        let mut buf: Vec<Complex<T>> = data.iter().map(|&x| Complex::from_real(x)).collect();
        self.forward_lanes(self.len, &mut buf)?;
        Ok(buf)
    }

    /// The forward transform of every lane of `data` at once (a plain
    /// [`Complex`] buffer is the one-lane case). Each lane is given the
    /// same operations in the same order whatever the width, so a
    /// lane's bits do not depend on the width or on its lane-mates.
    /// Forced inline, like everything under it, so that the butterflies
    /// compile for the ISA of the kernel that calls them
    /// (`blockgnn_linalg::isa`).
    ///
    /// `len` is the plan's length, passed in so that a caller that knows
    /// it at compile time (the block-circulant tile, per block size) gets
    /// loops of constant trip count and a bit reversal the compiler folds.
    ///
    /// # Panics
    ///
    /// Panics if `len` is not [`FftPlan::len`].
    #[inline(always)]
    pub(crate) fn forward_lanes<E: Lanes<T>>(
        &self,
        len: usize,
        data: &mut [E],
    ) -> Result<(), FftError> {
        self.check_len(len, data)?;
        self.apply(len, data, Direction::Forward);
        Ok(())
    }

    /// The inverse transform (scaled by `1/n`) of every lane of `data`;
    /// see [`FftPlan::forward_lanes`].
    #[inline(always)]
    pub(crate) fn inverse_lanes<E: Lanes<T>>(
        &self,
        len: usize,
        data: &mut [E],
    ) -> Result<(), FftError> {
        self.check_len(len, data)?;
        self.apply(len, data, Direction::Inverse);
        Ok(())
    }

    #[inline(always)]
    fn check_len<E>(&self, len: usize, data: &[E]) -> Result<(), FftError> {
        assert_eq!(len, self.len, "a lane transform is given its plan's length");
        if data.len() != len {
            Err(FftError::LengthMismatch { expected: len, got: data.len() })
        } else {
            Ok(())
        }
    }

    /// The unscaled transform of every lane of `data`. Several lanes:
    /// [`FftPlan::butterflies`] inlined into the caller, whatever ISA it
    /// is compiled for. One lane: the same body as a function of its own,
    /// where the compiler has always put it — flattened into the scalar
    /// transforms it measured 57 → 83 ns per 16-point RFFT.
    #[inline(always)]
    fn apply<E: Lanes<T>>(&self, len: usize, data: &mut [E], dir: Direction) {
        if E::WIDTH == 1 {
            self.butterflies_outlined(len, data, dir);
        } else {
            self.butterflies(len, data, dir);
        }
    }

    #[inline(never)]
    fn butterflies_outlined<E: Lanes<T>>(&self, len: usize, data: &mut [E], dir: Direction) {
        self.butterflies(len, data, dir);
    }

    /// Bit-reversal permutation, then the butterflies, of the `len`
    /// elements of `data` (`len` a power of two, the plan's length), and
    /// for the inverse the division by `len`. The permutation is computed
    /// from `len` — no table — so at a compile-time `len` it is a fixed
    /// list of swaps.
    #[inline(always)]
    fn butterflies<E: Lanes<T>>(&self, len: usize, data: &mut [E], dir: Direction) {
        if len <= 1 {
            return;
        }
        let data = &mut data[..len];
        let shift = usize::BITS - len.trailing_zeros();
        for i in 0..len {
            let r = i.reverse_bits() >> shift;
            if r > i {
                data.swap(i, r);
            }
        }
        let twiddles = match dir {
            Direction::Forward => &self.twiddles_fwd[..len - 1],
            Direction::Inverse => &self.twiddles_inv[..len - 1],
        };
        // Iterative butterflies. Stage with half-size m uses twiddle slice
        // [m-1 .. 2m-1) because stages are packed 1,2,4,... entries.
        let mut m = 1;
        while 2 * m < len {
            stage(data, m, &twiddles[m - 1..2 * m - 1], |v| v);
            m *= 2;
        }
        // The last stage. The inverse divides its outputs by `len` as it
        // writes them: per value the same two operations, in the same
        // order, as a scaling pass of its own, without the pass.
        let last = &twiddles[m - 1..];
        match dir {
            Direction::Forward => stage(data, m, last, |v| v),
            Direction::Inverse => {
                let stages = len.trailing_zeros();
                stage(data, m, last, |v: Complex<T>| v.div_pow2(stages));
            }
        }
    }
}

/// One radix-2 stage of half-size `m` over `data`: every group of `2m`
/// elements takes the butterflies `(lo, hi) ← (a + w·b, a − w·b)` with
/// `stage`'s twiddles, each output passed through `finish`. Each twiddle
/// is loaded once for all lanes, and the lane loop is innermost, so it
/// vectorises.
#[inline(always)]
fn stage<T: Scalar, E: Lanes<T>>(
    data: &mut [E],
    m: usize,
    stage: &[Complex<T::Twiddle>],
    finish: impl Fn(Complex<T>) -> Complex<T>,
) {
    for group in data.chunks_exact_mut(2 * m) {
        let (lows, highs) = group.split_at_mut(m);
        for ((lo, hi), &w) in lows.iter_mut().zip(highs).zip(stage) {
            let (x, y) = (*lo, *hi);
            for l in 0..E::WIDTH {
                let a = x.lane(l);
                let b = y.lane(l).mul_twiddle(w);
                lo.set_lane(l, finish(a + b));
                hi.set_lane(l, finish(a - b));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft_reference, idft_reference};
    use proptest::prelude::*;

    type C = Complex<f64>;

    fn close(a: &[C], b: &[C], tol: f64) -> bool {
        a.iter().zip(b).all(|(x, y)| x.linf_distance(*y) < tol)
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert_eq!(FftPlan::<f64>::new(0).unwrap_err(), FftError::NotPowerOfTwo { len: 0 });
        assert_eq!(FftPlan::<f64>::new(12).unwrap_err(), FftError::NotPowerOfTwo { len: 12 });
    }

    #[test]
    fn length_mismatch_is_reported() {
        let plan = FftPlan::<f64>::new(8).unwrap();
        let mut buf = vec![C::zero(); 4];
        assert_eq!(
            plan.forward_lanes(8, &mut buf),
            Err(FftError::LengthMismatch { expected: 8, got: 4 })
        );
        let err = FftError::LengthMismatch { expected: 8, got: 4 };
        assert!(err.to_string().contains("does not match"));
    }

    #[test]
    fn length_one_is_identity() {
        let plan = FftPlan::<f64>::new(1).unwrap();
        let mut buf = vec![C::new(3.0, -2.0)];
        plan.forward(&mut buf);
        assert_eq!(buf[0], C::new(3.0, -2.0));
        plan.inverse(&mut buf);
        assert_eq!(buf[0], C::new(3.0, -2.0));
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let n = 16;
        let plan = FftPlan::<f64>::new(n).unwrap();
        let mut buf = vec![C::zero(); n];
        buf[0] = C::one();
        plan.forward(&mut buf);
        for v in &buf {
            assert!(v.linf_distance(C::one()) < 1e-12);
        }
    }

    #[test]
    fn dc_input_concentrates_in_bin_zero() {
        let n = 32;
        let plan = FftPlan::<f64>::new(n).unwrap();
        let mut buf = vec![C::one(); n];
        plan.forward(&mut buf);
        assert!((buf[0].re - n as f64).abs() < 1e-9);
        for v in &buf[1..] {
            assert!(v.norm() < 1e-9);
        }
    }

    #[test]
    fn single_tone_lands_in_its_bin() {
        let n = 64;
        let bin = 5;
        let plan = FftPlan::<f64>::new(n).unwrap();
        let mut buf: Vec<C> = (0..n)
            .map(|j| {
                C::from_polar_unit(2.0 * std::f64::consts::PI * (bin * j) as f64 / n as f64)
            })
            .collect();
        plan.forward(&mut buf);
        for (k, v) in buf.iter().enumerate() {
            if k == bin {
                assert!((v.re - n as f64).abs() < 1e-8, "bin {k} = {v}");
            } else {
                assert!(v.norm() < 1e-8, "bin {k} = {v}");
            }
        }
    }

    #[test]
    fn matches_reference_dft_all_paper_sizes() {
        let mut rng_state = 0x1234_5678_u64;
        let mut next = move || {
            // xorshift64 for deterministic pseudo-random data
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        for n in [2usize, 4, 8, 16, 32, 64, 128, 256] {
            let plan = FftPlan::<f64>::new(n).unwrap();
            let input: Vec<C> = (0..n).map(|_| C::new(next(), next())).collect();
            let mut fast = input.clone();
            plan.forward(&mut fast);
            let slow = dft_reference(&input);
            assert!(close(&fast, &slow, 1e-8), "fft mismatch at n={n}");

            let mut back = fast.clone();
            plan.inverse(&mut back);
            assert!(close(&back, &input, 1e-9), "ifft roundtrip failed at n={n}");
            let slow_back = idft_reference(&slow);
            assert!(close(&slow_back, &input, 1e-8));
        }
    }

    #[test]
    fn f32_plan_agrees_with_f64() {
        let n = 64;
        let p32 = FftPlan::<f32>::new(n).unwrap();
        let p64 = FftPlan::<f64>::new(n).unwrap();
        let mut a32: Vec<Complex<f32>> =
            (0..n).map(|i| Complex::new((i as f32).sin(), 0.0)).collect();
        let mut a64: Vec<Complex<f64>> =
            (0..n).map(|i| Complex::new((i as f64).sin(), 0.0)).collect();
        p32.forward(&mut a32);
        p64.forward(&mut a64);
        for (x, y) in a32.iter().zip(&a64) {
            assert!((x.re as f64 - y.re).abs() < 1e-3);
            assert!((x.im as f64 - y.im).abs() < 1e-3);
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip(values in proptest::collection::vec(-100.0f64..100.0, 128)) {
            let plan = FftPlan::<f64>::new(128).unwrap();
            let input: Vec<C> = values.iter().map(|&x| C::from_real(x)).collect();
            let mut buf = input.clone();
            plan.forward(&mut buf);
            plan.inverse(&mut buf);
            for (a, b) in buf.iter().zip(&input) {
                prop_assert!(a.linf_distance(*b) < 1e-8);
            }
        }

        #[test]
        fn prop_linearity(
            xs in proptest::collection::vec(-10.0f64..10.0, 64),
            ys in proptest::collection::vec(-10.0f64..10.0, 64),
            alpha in -5.0f64..5.0,
        ) {
            let plan = FftPlan::<f64>::new(64).unwrap();
            let x: Vec<C> = xs.iter().map(|&v| C::from_real(v)).collect();
            let y: Vec<C> = ys.iter().map(|&v| C::from_real(v)).collect();
            // FFT(alpha*x + y)
            let mut combo: Vec<C> = x.iter().zip(&y).map(|(a, b)| a.scale(alpha) + *b).collect();
            plan.forward(&mut combo);
            // alpha*FFT(x) + FFT(y)
            let mut fx = x.clone();
            let mut fy = y.clone();
            plan.forward(&mut fx);
            plan.forward(&mut fy);
            for ((c, a), b) in combo.iter().zip(&fx).zip(&fy) {
                let expect = a.scale(alpha) + *b;
                prop_assert!(c.linf_distance(expect) < 1e-7);
            }
        }

        #[test]
        fn prop_parseval(values in proptest::collection::vec(-10.0f64..10.0, 32)) {
            // Energy is preserved: sum |x|^2 == (1/n) sum |X|^2
            let plan = FftPlan::<f64>::new(32).unwrap();
            let input: Vec<C> = values.iter().map(|&x| C::from_real(x)).collect();
            let time_energy: f64 = input.iter().map(|v| v.norm_sqr()).sum();
            let mut buf = input;
            plan.forward(&mut buf);
            let freq_energy: f64 = buf.iter().map(|v| v.norm_sqr()).sum::<f64>() / 32.0;
            prop_assert!((time_energy - freq_energy).abs() < 1e-6 * (1.0 + time_energy));
        }

        #[test]
        fn prop_convolution_theorem(
            xs in proptest::collection::vec(-3.0f64..3.0, 16),
            hs in proptest::collection::vec(-3.0f64..3.0, 16),
        ) {
            // Circular convolution in time == pointwise product in frequency.
            // This is precisely the identity BlockGNN exploits for circulant blocks.
            let n = 16;
            let plan = FftPlan::<f64>::new(n).unwrap();
            // Direct circular convolution
            let mut direct = vec![0.0f64; n];
            for (i, d) in direct.iter_mut().enumerate() {
                for j in 0..n {
                    *d += xs[j] * hs[(i + n - j) % n];
                }
            }
            // Spectral path
            let mut fx: Vec<C> = xs.iter().map(|&v| C::from_real(v)).collect();
            let mut fh: Vec<C> = hs.iter().map(|&v| C::from_real(v)).collect();
            plan.forward(&mut fx);
            plan.forward(&mut fh);
            let mut prod: Vec<C> = fx.iter().zip(&fh).map(|(a, b)| *a * *b).collect();
            plan.inverse(&mut prod);
            for (d, s) in direct.iter().zip(&prod) {
                prop_assert!((d - s.re).abs() < 1e-7, "direct={d} spectral={}", s.re);
                prop_assert!(s.im.abs() < 1e-7);
            }
        }
    }
}

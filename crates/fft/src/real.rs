//! Real-input FFT (RFFT) and its inverse (IRFFT).
//!
//! GNN feature vectors are always real-valued, so the paper's §V
//! discussion proposes replacing the complex FFT with a real FFT to close
//! the gap between the implemented (8.3×) and theoretical (18.3×)
//! speedups. The classic trick: pack a length-`n` real signal into a
//! length-`n/2` complex signal, transform, and untangle the two
//! interleaved half-spectra. The result is the non-redundant half-spectrum
//! of `n/2 + 1` bins; the remaining bins are conjugate mirrors (see
//! [`crate::half`]).
//!
//! The element-wise spectral product of two half-spectra followed by
//! [`RealFftPlan::inverse`] realizes the same circular convolution as the
//! complex path at roughly half the arithmetic, which is exactly what a
//! CirCore built with RFFT channels would compute.
//!
//! The serving hot paths use the allocation-free
//! [`RealFftPlan::forward_into`] / [`RealFftPlan::inverse_into`] pair:
//! both transforms untangle *in place* inside the caller's buffers (the
//! output buffer doubles as the packed work area), so a steady-state
//! inference loop performs zero heap allocations per transform.
//!
//! Both are the one-lane case of [`RealFftPlan::forward_lanes`] /
//! [`RealFftPlan::inverse_lanes`], which are written over
//! [`crate::Lanes`] elements: on [`crate::ComplexLanes`] buffers they
//! transform several independent signals per pass, one per lane, with
//! each lane's bits those of the one-lane call.

use crate::complex::{Complex, Lanes};
use crate::half::half_spectrum_bins;
use crate::plan::{FftError, FftPlan};
use crate::scalar::Scalar;

/// A reusable real-input FFT plan for a fixed power-of-two length.
///
/// The forward direction maps `n` reals to `n/2 + 1` complex bins
/// (unscaled); the inverse maps them back (scaled by `1/n`). The
/// degenerate `n = 1` plan is the identity (one purely real DC bin), so
/// circulant layers with `block_size = 1` — the paper's uncompressed
/// baseline — can run the same code path. At `T = Q16_16` this is the
/// CirCore's RFFT channel: the same pack → half-length FFT → untangle in
/// saturating fixed point ([`crate::fixed_fft`]).
///
/// ```
/// use blockgnn_fft::RealFftPlan;
/// # fn main() -> Result<(), blockgnn_fft::FftError> {
/// let plan = RealFftPlan::<f64>::new(8)?;
/// let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
/// let spectrum = plan.forward(&x)?;
/// assert_eq!(spectrum.len(), 5); // n/2 + 1 bins
/// let back = plan.inverse(&spectrum)?;
/// for (a, b) in back.iter().zip(&x) {
///     assert!((a - b).abs() < 1e-9);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RealFftPlan<T: Scalar> {
    len: usize,
    half_plan: FftPlan<T>,
    /// `e^{-2πik/n}` for `k = 0..n/2`, the untangling twiddles.
    twiddles: Vec<Complex<T::Twiddle>>,
}

impl<T: Scalar> RealFftPlan<T> {
    /// Builds an RFFT plan for real signals of length `len`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::NotPowerOfTwo`] if `len` is not a non-zero
    /// power of two.
    pub fn new(len: usize) -> Result<Self, FftError> {
        if !crate::is_power_of_two(len) {
            return Err(FftError::NotPowerOfTwo { len });
        }
        let half = len / 2;
        let half_plan = FftPlan::new(half.max(1))?;
        let twiddles = (0..half).map(|k| T::twiddle(k, len)).collect();
        Ok(Self { len, half_plan, twiddles })
    }

    /// The real signal length this plan transforms.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always `false`; plans cannot be built for length 0.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of complex bins in the half-spectrum (`n/2 + 1`, or `1`
    /// for the degenerate `n = 1` plan).
    #[must_use]
    pub fn spectrum_len(&self) -> usize {
        half_spectrum_bins(self.len)
    }

    /// Forward RFFT: `n` reals → `n/2 + 1` complex bins (unscaled).
    ///
    /// Bins `0` and `n/2` are purely real for real input.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `input.len() != n`.
    pub fn forward(&self, input: &[T]) -> Result<Vec<Complex<T>>, FftError> {
        let mut out = vec![Complex::zero(); self.spectrum_len()];
        self.forward_into(input, &mut out)?;
        Ok(out)
    }

    /// Allocation-free forward RFFT into a caller-provided buffer of
    /// [`RealFftPlan::spectrum_len`] bins. The output buffer doubles as
    /// the packed work area (the half-length complex signal lives in
    /// `out[..n/2]` during the transform), so no scratch is needed.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `input.len() != n` or
    /// `out.len() != spectrum_len()`.
    pub fn forward_into(&self, input: &[T], out: &mut [Complex<T>]) -> Result<(), FftError> {
        if input.len() != self.len {
            return Err(FftError::LengthMismatch { expected: self.len, got: input.len() });
        }
        self.check_bins(self.len, out)?;
        // Pack: z[k] = x[2k] + i x[2k+1], in place in the output buffer
        // (n = 1 has no pair: its one sample is the real part of z[0]).
        out[0] = Complex::from_real(input[0]);
        for (z, pair) in out.iter_mut().zip(input.chunks_exact(2)) {
            *z = Complex::new(pair[0], pair[1]);
        }
        self.forward_lanes(self.len, out)
    }

    /// [`RealFftPlan::forward_into`] for every lane of `data` at once:
    /// `ComplexLanes<T, L>` elements transform `L` independent signals,
    /// lane `l` being signal `l`.
    ///
    /// On entry the first `n/2` elements hold each lane's **packed**
    /// signal `z[k] = x[2k] + i·x[2k+1]` (for `n = 1`, `re` of element 0
    /// is the sample); on return `data` holds the `n/2 + 1` bins. It is
    /// the body `forward_into` itself runs at one lane, and no operation
    /// reads two lanes, so a lane's bins equal `forward_into`'s bit for
    /// bit whatever the width and whatever the other lanes hold; each
    /// twiddle is loaded once per call instead of once per signal, and
    /// the lane loops vectorise — for the ISA of the caller: this and
    /// [`RealFftPlan::inverse_lanes`] are forced inline so that a kernel
    /// run through `blockgnn_linalg::isa::dispatch` carries them along.
    ///
    /// `len` is [`RealFftPlan::len`], passed in so that a caller that knows
    /// it at compile time (the block-circulant tile compiles one body per
    /// block size) runs the untangle, the butterflies and the bit
    /// reversal under it at constant trip counts.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `data` is not
    /// `spectrum_len()` long.
    ///
    /// # Panics
    ///
    /// Panics if `len` is not the plan's length.
    #[inline(always)]
    pub fn forward_lanes<E: Lanes<T>>(
        &self,
        len: usize,
        data: &mut [E],
    ) -> Result<(), FftError> {
        self.check_bins(len, data)?;
        let half = len / 2;
        if half == 0 {
            for l in 0..E::WIDTH {
                data[0].set_lane(l, Complex::from_real(data[0].lane(l).re));
            }
            return Ok(());
        }
        self.half_plan.forward_lanes(half, &mut data[..half])?;
        // Untangle in place. Bin k reads z[k] and z[half-k], so k = 0
        // goes alone (it also yields the Nyquist bin: W^{n/2} = -1, so
        // X[n/2] = Xe[0] - Xo[0]) and then the mirror pairs.
        let (z0, mut dc, mut nyquist) = (data[0], E::ZERO, E::ZERO);
        for l in 0..E::WIDTH {
            let z0 = z0.lane(l);
            dc.set_lane(l, untangle(z0, z0, self.twiddles[0]));
            nyquist.set_lane(l, Complex::from_real(z0.re) - Complex::from_real(z0.im));
        }
        (data[0], data[half]) = (dc, nyquist);
        self.mirror_pairs(half, data, untangle);
        Ok(())
    }

    /// Inverse RFFT: `n/2 + 1` complex bins → `n` reals (scaled by `1/n`).
    ///
    /// The imaginary parts of bins `0` and `n/2` are ignored, as they are
    /// zero for any spectrum arising from a real signal.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if
    /// `spectrum.len() != n/2 + 1`.
    pub fn inverse(&self, spectrum: &[Complex<T>]) -> Result<Vec<T>, FftError> {
        self.check_bins(self.len, spectrum)?;
        let mut work = spectrum.to_vec();
        let mut out = vec![T::ZERO; self.len];
        self.inverse_into(&mut work, &mut out)?;
        Ok(out)
    }

    /// Allocation-free inverse RFFT. **Destroys `spectrum`**: the packed
    /// half-length signal is rebuilt in place inside it (the spectral
    /// accumulator of Algorithm 1 is consumed exactly once per grid row,
    /// so the serving loops hand their accumulator over directly).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if
    /// `spectrum.len() != n/2 + 1` or `out.len() != n`.
    pub fn inverse_into(
        &self,
        spectrum: &mut [Complex<T>],
        out: &mut [T],
    ) -> Result<(), FftError> {
        if out.len() != self.len {
            return Err(FftError::LengthMismatch { expected: self.len, got: out.len() });
        }
        self.inverse_lanes(self.len, spectrum)?;
        // Unpack; n = 1 has no pair, only the real part of z[0].
        out[0] = spectrum[0].re;
        for (pair, z) in out.chunks_exact_mut(2).zip(spectrum.iter()) {
            (pair[0], pair[1]) = (z.re, z.im);
        }
        Ok(())
    }

    /// [`RealFftPlan::inverse_into`] for every lane of `data`: consumes
    /// the bins and leaves each lane's packed signal in the first `n/2`
    /// elements (`x[2k] = re`, `x[2k+1] = im` of element `k`; for `n = 1`
    /// the sample is `re` of element 0). Widths and bit-equality as for
    /// [`RealFftPlan::forward_lanes`].
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `data` is not
    /// `spectrum_len()` long.
    ///
    /// # Panics
    ///
    /// Panics if `len` is not the plan's length.
    #[inline(always)]
    pub fn inverse_lanes<E: Lanes<T>>(
        &self,
        len: usize,
        data: &mut [E],
    ) -> Result<(), FftError> {
        self.check_bins(len, data)?;
        let half = len / 2;
        if half == 0 {
            return Ok(());
        }
        // Rebuild the packed half-length spectrum Z[k] = Xe[k] + i·Xo[k]
        // in place. Bin k reads X[k] and X[half-k]; k = 0 (which reads
        // the Nyquist bin) goes first, then the mirror pairs.
        let (x0, nyquist, mut z0) = (data[0], data[half], E::ZERO);
        for l in 0..E::WIDTH {
            z0.set_lane(l, retangle(x0.lane(l), nyquist.lane(l), self.twiddles[0]));
        }
        data[0] = z0;
        self.mirror_pairs(half, data, retangle);
        self.half_plan.inverse_lanes(half, &mut data[..half])
    }

    /// Applies `f` in place to the mirror pairs `(k, half − k)` for
    /// `k ≥ 1`, loading both sources before either destination is
    /// overwritten.
    #[inline(always)]
    fn mirror_pairs<E: Lanes<T>>(
        &self,
        half: usize,
        data: &mut [E],
        f: impl Fn(Complex<T>, Complex<T>, Complex<T::Twiddle>) -> Complex<T>,
    ) {
        let (data, twiddles) = (&mut data[..=half], &self.twiddles[..half]);
        let mut k = 1;
        while k <= half - k {
            let m = half - k;
            let (vk, vm, mut yk, mut ym) = (data[k], data[m], E::ZERO, E::ZERO);
            for l in 0..E::WIDTH {
                yk.set_lane(l, f(vk.lane(l), vm.lane(l), twiddles[k]));
                ym.set_lane(l, f(vm.lane(l), vk.lane(l), twiddles[m]));
            }
            // At k = m the pair is one bin, and `ym` equals `yk`.
            (data[k], data[m]) = (yk, ym);
            k += 1;
        }
    }

    #[inline(always)]
    fn check_bins<E>(&self, len: usize, data: &[E]) -> Result<(), FftError> {
        assert_eq!(len, self.len, "a lane transform is given its plan's length");
        let bins = half_spectrum_bins(len);
        if data.len() == bins {
            Ok(())
        } else {
            Err(FftError::LengthMismatch { expected: bins, got: data.len() })
        }
    }
}

/// One bin of the forward untangle — the textbook even/odd split
/// `X[k] = Xe[k] + W^k·Xo[k]` from the packed transform's `Z[k]` and
/// `Z[half-k]`.
#[inline(always)]
fn untangle<T: Scalar>(zk: Complex<T>, zr: Complex<T>, tw: Complex<T::Twiddle>) -> Complex<T> {
    let xe = (zk + zr.conj()).div_pow2(1);
    let xo = (zk - zr.conj()).div_pow2(1).mul_i_neg();
    xe + xo.mul_twiddle(tw)
}

/// One bin of the inverse retangle: `Z[k] = Xe[k] + i·Xo[k]` from `X[k]`
/// and `X[half-k]`, with `Xo[k] = conj(W^k)·(X[k] − conj(X[half-k]))/2`.
#[inline(always)]
fn retangle<T: Scalar>(xk: Complex<T>, xm: Complex<T>, tw: Complex<T::Twiddle>) -> Complex<T> {
    let xr = xm.conj();
    let xe = (xk + xr).div_pow2(1);
    let xo = (xk - xr).div_pow2(1).mul_twiddle(tw.conj());
    xe + xo.mul_i()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::ComplexLanes;
    use crate::dft::dft_reference;
    use proptest::prelude::*;

    type C = Complex<f64>;

    #[test]
    fn rejects_bad_lengths() {
        assert!(RealFftPlan::<f64>::new(0).is_err());
        assert!(RealFftPlan::<f64>::new(12).is_err());
        assert!(RealFftPlan::<f64>::new(1).is_ok());
        assert!(RealFftPlan::<f64>::new(2).is_ok());
    }

    #[test]
    fn length_one_plan_is_identity() {
        let plan = RealFftPlan::<f64>::new(1).unwrap();
        assert_eq!(plan.spectrum_len(), 1);
        let spec = plan.forward(&[4.25]).unwrap();
        assert_eq!(spec[0], C::from_real(4.25));
        assert_eq!(plan.inverse(&spec).unwrap(), vec![4.25]);
    }

    #[test]
    fn forward_matches_complex_dft_half_spectrum() {
        for n in [2usize, 4, 8, 16, 64, 128] {
            let plan = RealFftPlan::<f64>::new(n).unwrap();
            let x: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
            let rspec = plan.forward(&x).unwrap();
            let full: Vec<C> = x.iter().map(|&v| C::from_real(v)).collect();
            let fspec = dft_reference(&full);
            assert_eq!(rspec.len(), n / 2 + 1);
            for k in 0..=n / 2 {
                assert!(
                    rspec[k].linf_distance(fspec[k]) < 1e-8,
                    "n={n} bin {k}: rfft={} dft={}",
                    rspec[k],
                    fspec[k]
                );
            }
        }
    }

    #[test]
    fn into_variants_are_bit_identical_to_allocating_path() {
        for n in [2usize, 4, 8, 32, 128] {
            let plan = RealFftPlan::<f64>::new(n).unwrap();
            let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.83).sin() * 3.0).collect();
            let spec = plan.forward(&x).unwrap();
            let mut spec_into = vec![C::zero(); plan.spectrum_len()];
            plan.forward_into(&x, &mut spec_into).unwrap();
            assert_eq!(spec, spec_into, "forward_into drifted at n={n}");

            let back = plan.inverse(&spec).unwrap();
            let mut work = spec.clone();
            let mut back_into = vec![0.0; n];
            plan.inverse_into(&mut work, &mut back_into).unwrap();
            assert_eq!(back, back_into, "inverse_into drifted at n={n}");
        }
    }

    /// Every lane of the lane-generic pair must equal the scalar
    /// `forward_into`/`inverse_into` of that lane's signal, bit for bit.
    fn check_lanes<const L: usize>(n: usize) {
        let plan = RealFftPlan::<f64>::new(n).unwrap();
        let signal = |l: usize| -> Vec<f64> {
            (0..n).map(|t| ((t * L + l) as f64 * 0.61 + 0.2).sin() * (1.0 + l as f64)).collect()
        };
        let mut data =
            vec![ComplexLanes { re: [f64::NAN; L], im: [f64::NAN; L] }; plan.spectrum_len()];
        for l in 0..L {
            let x = signal(l);
            if n == 1 {
                data[0].re[l] = x[0];
            }
            for k in 0..n / 2 {
                data[k].set_lane(l, C::new(x[2 * k], x[2 * k + 1]));
            }
        }
        plan.forward_lanes(n, &mut data).unwrap();
        let bits = |c: C| (c.re.to_bits(), c.im.to_bits());
        let mut scalar = Vec::new();
        for l in 0..L {
            let spec = plan.forward(&signal(l)).unwrap();
            for (k, bin) in spec.iter().enumerate() {
                assert_eq!(bits(data[k].lane(l)), bits(*bin), "n={n} L={L} lane {l} bin {k}");
            }
            scalar.push(spec);
        }
        // Inverse of a non-trivial spectrum: the square of the forward one.
        for (l, spec) in scalar.iter_mut().enumerate() {
            for (k, bin) in spec.iter_mut().enumerate() {
                *bin = *bin * *bin;
                data[k].set_lane(l, *bin);
            }
        }
        plan.inverse_lanes(n, &mut data).unwrap();
        for (l, spec) in scalar.iter_mut().enumerate() {
            let mut time = vec![0.0; n];
            plan.inverse_into(spec, &mut time).unwrap();
            for (t, want) in time.iter().enumerate() {
                let got = if t % 2 == 0 { data[t / 2].re[l] } else { data[t / 2].im[l] };
                assert_eq!(got.to_bits(), want.to_bits(), "n={n} L={L} lane {l} sample {t}");
            }
        }
    }

    #[test]
    fn lane_transforms_equal_the_scalar_ones_per_lane() {
        for n in [1usize, 2, 4, 8, 16, 32, 64, 128] {
            check_lanes::<1>(n);
            check_lanes::<3>(n);
            check_lanes::<8>(n);
        }
    }

    #[test]
    fn lane_transforms_validate_the_buffer_length() {
        let plan = RealFftPlan::<f64>::new(8).unwrap();
        let mut short = vec![ComplexLanes::<f64, 4>::ZERO; 4];
        let err = FftError::LengthMismatch { expected: 5, got: 4 };
        assert_eq!(plan.forward_lanes(8, &mut short), Err(err.clone()));
        assert_eq!(plan.inverse_lanes(8, &mut short), Err(err));
    }

    #[test]
    fn into_variants_validate_lengths() {
        let plan = RealFftPlan::<f64>::new(8).unwrap();
        let mut short = vec![C::zero(); 4];
        assert_eq!(
            plan.forward_into(&[0.0; 8], &mut short),
            Err(FftError::LengthMismatch { expected: 5, got: 4 })
        );
        assert_eq!(
            plan.forward_into(&[0.0; 6], &mut [C::zero(); 5]),
            Err(FftError::LengthMismatch { expected: 8, got: 6 })
        );
        let mut out = vec![0.0; 6];
        assert_eq!(
            plan.inverse_into(&mut [C::zero(); 5], &mut out),
            Err(FftError::LengthMismatch { expected: 8, got: 6 })
        );
    }

    #[test]
    fn dc_and_nyquist_bins_are_real() {
        let n = 32;
        let plan = RealFftPlan::<f64>::new(n).unwrap();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
        let spec = plan.forward(&x).unwrap();
        assert!(spec[0].im.abs() < 1e-10);
        assert!(spec[n / 2].im.abs() < 1e-10);
    }

    #[test]
    fn inverse_length_mismatch_detected() {
        let plan = RealFftPlan::<f64>::new(8).unwrap();
        let err = plan.inverse(&[C::zero(); 3]).unwrap_err();
        assert_eq!(err, FftError::LengthMismatch { expected: 5, got: 3 });
    }

    proptest! {
        #[test]
        fn prop_rfft_roundtrip(values in proptest::collection::vec(-50.0f64..50.0, 64)) {
            let plan = RealFftPlan::<f64>::new(64).unwrap();
            let spec = plan.forward(&values).unwrap();
            let back = plan.inverse(&spec).unwrap();
            for (a, b) in back.iter().zip(&values) {
                prop_assert!((a - b).abs() < 1e-8);
            }
        }

        #[test]
        fn prop_rfft_circular_convolution(
            w in proptest::collection::vec(-2.0f64..2.0, 32),
            h in proptest::collection::vec(-2.0f64..2.0, 32),
        ) {
            // The RFFT path must compute the same circulant product as the
            // direct method: y[i] = sum_j w[(i - j) mod n] * h[j] — i.e.
            // multiplication by the circulant matrix whose first COLUMN is w.
            let n = 32;
            let plan = RealFftPlan::<f64>::new(n).unwrap();
            let sw = plan.forward(&w).unwrap();
            let sh = plan.forward(&h).unwrap();
            let prod: Vec<C> = sw.iter().zip(&sh).map(|(a, b)| *a * *b).collect();
            let y = plan.inverse(&prod).unwrap();
            for i in 0..n {
                let mut direct = 0.0;
                for j in 0..n {
                    direct += w[(i + n - j) % n] * h[j];
                }
                prop_assert!((y[i] - direct).abs() < 1e-7);
            }
        }
    }
}

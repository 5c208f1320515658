//! Packed Hermitian half-spectrum of a real signal.
//!
//! The DFT of a length-`n` real signal is conjugate-symmetric:
//! `X[n-k] = conj(X[k])`. Only the first `n/2 + 1` bins carry
//! information (`1` bin for the degenerate `n = 1`), so a serving path
//! that stores and multiplies full spectra does twice the arithmetic
//! and holds twice the bytes it needs. The packed layout the paper's §V
//! RFFT refinement implies is that non-redundant prefix, and it is the
//! only form [`crate::RealFftPlan`] produces or consumes: a plain slice of
//! [`half_spectrum_bins`]`(n)` complex bins, never expanded.
//!
//! Element-wise products of half-spectra of real signals stay Hermitian
//! (the product's mirror bins are the conjugate products of the mirror
//! bins), which is why Algorithm 1's spectral multiply–accumulate can
//! run entirely on the packed form.

/// Number of non-redundant spectrum bins for a length-`n` real signal:
/// `n/2 + 1` (which also yields `1` for the degenerate `n = 1`).
///
/// ```
/// assert_eq!(blockgnn_fft::half_spectrum_bins(8), 5);
/// assert_eq!(blockgnn_fft::half_spectrum_bins(2), 2);
/// assert_eq!(blockgnn_fft::half_spectrum_bins(1), 1);
/// ```
#[must_use]
pub const fn half_spectrum_bins(n: usize) -> usize {
    n / 2 + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Complex, RealFftPlan};

    #[test]
    fn bin_counts() {
        assert_eq!(half_spectrum_bins(1), 1);
        assert_eq!(half_spectrum_bins(2), 2);
        assert_eq!(half_spectrum_bins(4), 3);
        assert_eq!(half_spectrum_bins(64), 33);
    }

    #[test]
    fn expand_reproduces_full_dft() {
        // The packed bins, mirrored by X[n-k] = conj(X[k]), are the
        // whole DFT — nothing the layout drops carries information.
        let n = 16;
        let plan = RealFftPlan::<f64>::new(n).unwrap();
        let x: Vec<f64> = (0..n).map(|i| ((i * 5 + 1) % 7) as f64 - 3.0).collect();
        let half = plan.forward(&x).unwrap();
        assert_eq!(half.len(), half_spectrum_bins(n));
        let full: Vec<Complex<f64>> = x.iter().map(|&v| Complex::from_real(v)).collect();
        let reference = crate::dft::dft_reference(&full);
        for (k, want) in reference.iter().enumerate() {
            let got = if k < half.len() { half[k] } else { half[n - k].conj() };
            assert!(got.linf_distance(*want) < 1e-8, "bin {k}");
        }
    }
}

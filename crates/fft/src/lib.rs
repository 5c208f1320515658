//! Fast Fourier transform substrate for the BlockGNN reproduction.
//!
//! The paper ("BlockGNN", DAC 2021) accelerates block-circulant
//! matrix–vector products by moving each length-`n` circulant block into
//! the spectral domain: `B · h = IFFT(FFT(w) ∘ FFT(h))`, where `w` is the
//! first row of the block. This crate provides everything needed for that
//! pipeline, with no external FFT dependency:
//!
//! * [`Scalar`] — the arithmetic everything below is generic over: ring
//!   operations plus the twiddle format, the twiddle multiply and the
//!   power-of-two divide. `f32`/`f64` implement it ([`float`], with
//!   [`FftFloat`] for what only a float can do) and so does [`Q16_16`]
//!   ([`fixed_fft`]); one set of plans serves the float experiments and
//!   the 32-bit fixed-point datapath alike.
//! * [`Complex`] — a minimal complex-number type over a [`Scalar`].
//! * [`FftPlan`] — a plan-based radix-2 Cooley–Tukey FFT with precomputed
//!   twiddle factors (the bit reversal is computed from the length),
//!   mirroring how a streaming hardware FFT core loads its coefficient
//!   ROMs once.
//! * [`real`] — real-input FFT (RFFT/IRFFT) exploiting conjugate symmetry,
//!   implementing the §V "Use RFFT for Higher Speedup" discussion, with
//!   allocation-free `forward_into`/`inverse_into` variants for serving
//!   hot paths and `forward_lanes`/`inverse_lanes`, the same body over
//!   [`ComplexLanes`] — several signals per pass, one per lane — forced
//!   inline, so that they compile for the ISA of the kernel that calls
//!   them (`blockgnn_linalg::isa::dispatch`), and taking the length as an
//!   argument, so that a caller that knows it at compile time gets loops
//!   of constant trip count.
//! * [`half`] — the packed `n/2 + 1`-bin Hermitian half-spectrum layout
//!   the serving paths store and multiply.
//! * [`fixed`] — [`Q16_16`], saturating fixed-point arithmetic matching the
//!   paper's 32-bit FPGA prototype; [`fixed_fft`] makes it a [`Scalar`]
//!   (Q2.30 twiddles, rounding shifts), which is the whole of the
//!   fixed-point FFT the simulated-accelerator backend runs.
//! * [`dft`] — a naive O(n²) reference DFT used by the test-suite as a
//!   ground truth.
//!
//! # Example
//!
//! ```
//! use blockgnn_fft::{Complex, FftPlan};
//!
//! let plan = FftPlan::<f64>::new(8).expect("power-of-two size");
//! let mut data: Vec<Complex<f64>> =
//!     (0..8).map(|i| Complex::new(i as f64, 0.0)).collect();
//! let original = data.clone();
//! plan.forward(&mut data);
//! plan.inverse(&mut data);
//! for (a, b) in data.iter().zip(&original) {
//!     assert!((a.re - b.re).abs() < 1e-9);
//! }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod complex;
pub mod dft;
pub mod fixed;
pub mod fixed_fft;
pub mod float;
pub mod half;
pub mod plan;
pub mod real;
pub mod scalar;

pub use complex::{Complex, ComplexLanes, Lanes};
pub use fixed::Q16_16;
pub use float::FftFloat;
pub use half::half_spectrum_bins;
pub use plan::{FftError, FftPlan};
pub use real::RealFftPlan;
pub use scalar::Scalar;

/// Returns `true` when `n` is a power of two (and non-zero).
///
/// Radix-2 plans only exist for power-of-two lengths; the block sizes used
/// by the paper (16–128) all qualify.
///
/// ```
/// assert!(blockgnn_fft::is_power_of_two(64));
/// assert!(!blockgnn_fft::is_power_of_two(48));
/// ```
#[must_use]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Number of butterfly stages for a length-`n` radix-2 FFT (`log2 n`).
///
/// # Panics
///
/// Panics if `n` is not a power of two.
///
/// ```
/// assert_eq!(blockgnn_fft::log2_exact(128), 7);
/// ```
#[must_use]
pub fn log2_exact(n: usize) -> u32 {
    assert!(is_power_of_two(n), "log2_exact requires a power of two, got {n}");
    n.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_of_two_detection() {
        assert!(is_power_of_two(1));
        assert!(is_power_of_two(2));
        assert!(is_power_of_two(1024));
        assert!(!is_power_of_two(0));
        assert!(!is_power_of_two(3));
        assert!(!is_power_of_two(100));
    }

    #[test]
    fn log2_of_paper_block_sizes() {
        for (n, lg) in [(16, 4), (32, 5), (64, 6), (128, 7)] {
            assert_eq!(log2_exact(n), lg);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn log2_rejects_non_power() {
        let _ = log2_exact(24);
    }
}

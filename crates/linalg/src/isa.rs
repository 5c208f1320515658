//! One source, three codegens: run a lane kernel compiled for the vectors
//! the CPU has.
//!
//! The lane kernels of this workspace (the `Lanes` transforms of
//! `blockgnn-fft` under the block-circulant tile of `blockgnn-core`, the
//! per-row aggregations of `blockgnn-gnn`) are plain loops over slices
//! and `[f64; L]` arrays. Built without target flags they compile for the
//! x86-64 baseline — SSE2, two f64 per register — whatever the machine
//! can do. [`dispatch`] runs such a kernel from inside a function compiled
//! for the widest [`Arm`] the CPU reports: AVX-512F (eight f64 per
//! register, 32 registers), else AVX2 (four f64 per register), else the
//! kernel as built. A kernel whose codegen measured slower on a wider arm
//! runs on [`Arm::widest_up_to`] the arm it measured fastest on instead
//! (the spectral tile above block size 32).
//!
//! Nothing else changes, so a kernel's output bits are the same on every
//! arm. Rust never contracts `a*b + c` into a fused multiply-add, nor
//! reassociates a sum, whatever the target features allow: AVX-512F
//! implies FMA, and the AVX-512F arm still fuses nothing, because no FMA
//! is ever asked for (the AVX2 arm does not even enable it). Every vector
//! add, multiply, subtract and compare is IEEE-exact per lane at any
//! width. The callers' tests hold each arm the CPU supports to the kernel
//! called directly by `f64::to_bits` ([`Arm::supported`], [`Arm::run`]).
//!
//! Only code **inlined into** the closure is recompiled: a function the
//! closure merely calls keeps its own (baseline) codegen. Kernels routed
//! through here are therefore `#[inline(always)]` down to their
//! arithmetic, and the closure itself is written
//! `#[inline(always)] || ..`.

/// A codegen a lane kernel can run on, widest first (so the order of
/// the variants is the order of their widths, widest least).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Arm {
    /// AVX-512F: eight f64 per register.
    Avx512f,
    /// AVX2: four f64 per register.
    Avx2,
    /// The build's own target (SSE2 on x86-64).
    Baseline,
}

impl Arm {
    /// Every arm, widest first.
    const ALL: [Arm; 3] = [Arm::Avx512f, Arm::Avx2, Arm::Baseline];

    /// The arm's name as the CPU feature it needs (`"baseline"` needs
    /// none).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Arm::Avx512f => "avx512f",
            Arm::Avx2 => "avx2",
            Arm::Baseline => "baseline",
        }
    }

    /// Whether this CPU can run the arm. Detection is a cached flag test.
    #[must_use]
    #[inline]
    pub fn is_supported(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Arm::Avx512f => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Arm::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            Arm::Baseline => true,
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Every arm this CPU can run, widest first: what a test holds to
    /// the baseline.
    pub fn supported() -> impl Iterator<Item = Arm> {
        Self::ALL.into_iter().filter(|arm| arm.is_supported())
    }

    /// The widest arm this CPU can run — the one [`dispatch`] takes.
    #[must_use]
    #[inline]
    pub fn widest() -> Arm {
        Self::widest_up_to(Arm::Avx512f)
    }

    /// The widest arm this CPU can run that is no wider than `cap`: for a
    /// kernel whose codegen on a wider arm measured slower.
    #[must_use]
    #[inline]
    pub fn widest_up_to(cap: Arm) -> Arm {
        Self::supported().find(|&arm| arm >= cap).unwrap_or(Arm::Baseline)
    }

    /// Runs `kernel` with everything inlined into it compiled for this
    /// arm.
    ///
    /// # Panics
    ///
    /// Panics if this CPU cannot run the arm ([`Arm::is_supported`]).
    #[inline]
    #[allow(unsafe_code)]
    pub fn run<R>(self, kernel: impl FnOnce() -> R) -> R {
        assert!(self.is_supported(), "this CPU cannot run the {} arm", self.name());
        match self {
            // SAFETY: `avx512f` requires only that the CPU executing it
            // supports AVX-512F, which `is_supported` just confirmed.
            #[cfg(target_arch = "x86_64")]
            Arm::Avx512f => unsafe { avx512f(kernel) },
            // SAFETY: as above, for AVX2.
            #[cfg(target_arch = "x86_64")]
            Arm::Avx2 => unsafe { avx2(kernel) },
            _ => kernel(),
        }
    }
}

/// Runs `kernel` compiled for the widest [`Arm`] the CPU has. Same source
/// on every arm, so the same result bits (module docs); detection is a
/// cached flag test, cheap enough to pay per row.
///
/// ```
/// let mut y = [1.0, 2.0, 3.0];
/// blockgnn_linalg::isa::dispatch(
///     #[inline(always)]
///     || y.iter_mut().for_each(|v| *v *= 2.0),
/// );
/// assert_eq!(y, [2.0, 4.0, 6.0]);
/// ```
#[inline]
pub fn dispatch<R>(kernel: impl FnOnce() -> R) -> R {
    Arm::widest().run(kernel)
}

/// `kernel`, with everything inlined into it compiled for AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn avx512f<R>(kernel: impl FnOnce() -> R) -> R {
    kernel()
}

/// `kernel`, with everything inlined into it compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(kernel: impl FnOnce() -> R) -> R {
    kernel()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_returns_what_the_kernel_returns_and_reports_its_path() {
        // Printed under `--nocapture` in CI: the widest arm, and every arm
        // the bit-equality tests ran, so a runner without AVX-512F — which
        // tests only AVX2 and the baseline — says so in the log.
        let supported: Vec<Arm> = Arm::supported().collect();
        let names: Vec<&str> = supported.iter().map(|arm| arm.name()).collect();
        println!(
            "isa::dispatch runs lane kernels on: {} (arms tested: {})",
            Arm::widest().name(),
            names.join(", ")
        );
        assert_eq!(supported.first(), Some(&Arm::widest()));
        assert_eq!(supported.last(), Some(&Arm::Baseline));
        assert_eq!(Arm::widest_up_to(Arm::Baseline), Arm::Baseline);
        assert!(Arm::widest_up_to(Arm::Avx2) >= Arm::Avx2);
        let x = [1.5_f64, -2.25, 3.0, 0.125, 7.0];
        let mut y = [0.0; 5];
        let sum = dispatch(
            #[inline(always)]
            || {
                for (o, v) in y.iter_mut().zip(&x) {
                    *o = v * 3.0 + 1.0;
                }
                y.iter().sum::<f64>()
            },
        );
        let want: Vec<f64> = x.iter().map(|v| v * 3.0 + 1.0).collect();
        assert_eq!(y.as_slice(), want.as_slice());
        assert_eq!(sum.to_bits(), want.iter().sum::<f64>().to_bits());
    }
}

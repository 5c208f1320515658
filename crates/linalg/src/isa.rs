//! One source, two codegens: run a lane kernel compiled for the vectors
//! the CPU has.
//!
//! The lane kernels of this workspace (the `Lanes` transforms of
//! `blockgnn-fft` under the block-circulant tile of `blockgnn-core`, the
//! per-row aggregations of `blockgnn-gnn`) are plain loops over slices
//! and `[f64; L]` arrays. Built without target
//! flags they compile for the x86-64 baseline — SSE2, two f64 per
//! register — whatever the machine can do. [`dispatch`] runs such a
//! kernel from inside a function compiled with AVX2 enabled (four f64 per
//! register, twice the registers' worth of lanes) when the CPU reports
//! it, and as-is otherwise.
//!
//! Nothing else changes: AVX2 is enabled **without FMA**, Rust never
//! contracts `a*b + c` or reassociates a sum, and every vector add,
//! multiply and compare is IEEE-exact per lane at either width — so a
//! kernel's output bits are the same on both paths, which the callers'
//! tests check by `f64::to_bits` against the kernel called directly.
//!
//! Only code **inlined into** the closure is recompiled: a function the
//! closure merely calls keeps its own (baseline) codegen. Kernels routed
//! through here are therefore `#[inline(always)]` down to their
//! arithmetic, and the closure itself is written
//! `#[inline(always)] || ..`.

/// Runs `kernel` — compiled for AVX2 when the CPU has it, as compiled for
/// the build's baseline otherwise. Same source either way, so the same
/// result bits (module docs); detection is a cached flag test, cheap
/// enough to pay per row.
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
#[allow(unsafe_code)]
pub fn dispatch<R>(kernel: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `avx2` requires only that the CPU executing it supports
        // AVX2, which `is_x86_feature_detected!("avx2")` just confirmed.
        return unsafe { avx2(kernel) };
    }
    kernel()
}

/// `kernel`, with everything inlined into it compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(kernel: impl FnOnce() -> R) -> R {
    kernel()
}

/// Which codegen [`dispatch`] runs on this CPU: `"avx2"` or `"baseline"`.
#[must_use]
pub fn path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "baseline"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_returns_what_the_kernel_returns_and_reports_its_path() {
        // Printed under `--nocapture` in CI, so a runner without AVX2 —
        // which exercises only the fallback — is visible in the log.
        println!("isa::dispatch runs lane kernels on: {}", path());
        assert!(["avx2", "baseline"].contains(&path()));
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

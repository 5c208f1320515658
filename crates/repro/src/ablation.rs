//! Ablations: the §V discussion points and Algorithm 1's design choice.
//!
//! 1. **Spectral-domain accumulation** — Algorithm 1 accumulates block
//!    products in the frequency domain so only `p` IFFTs are needed
//!    instead of CirCNN's `p·q`; [`spectral_accumulation`] quantifies the
//!    saving both in IFFT counts and in measured software time.
//! 2. **RFFT** (§V "Use RFFT for Higher Speedup") — real-input FFT
//!    halves spectral storage and MAC work; [`rfft_comparison`] measures
//!    it.
//! 3. **Aggregator-only compression** (§V) — compressing only the
//!    aggregator weights recovers most accuracy while keeping most of
//!    the FLOP savings; [`aggregator_only`] trains all three policies.

use blockgnn_core::reference::SpectralBlockCirculant;
use blockgnn_core::{BlockCirculantMatrix, RealSpectralBlockCirculant};
use blockgnn_gnn::models::{build_model_with_policy, CompressionPolicy, ModelKind};
use blockgnn_gnn::train::{train_node_classifier, TrainConfig};
use blockgnn_gnn::Compression;
use blockgnn_graph::datasets;
use std::time::Instant;

/// Result of the spectral-accumulation ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectralAccumReport {
    /// IFFTs per matvec with Algorithm 1 (`p`).
    pub ifft_optimized: usize,
    /// IFFTs per matvec with per-block accumulation (`p·q`).
    pub ifft_per_block: usize,
    /// Measured seconds for `iters` optimized matvecs.
    pub optimized_seconds: f64,
    /// Measured seconds for `iters` per-block matvecs.
    pub per_block_seconds: f64,
    /// Worst output divergence between the two flows.
    pub max_divergence: f64,
}

/// Runs the Algorithm 1 ablation on a `dim × dim` matrix with block `n`.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
#[must_use]
pub fn spectral_accumulation(dim: usize, n: usize, iters: usize) -> SpectralAccumReport {
    let w = BlockCirculantMatrix::random(dim, dim, n, 42).expect("valid matrix");
    let s = SpectralBlockCirculant::new(&w).expect("power-of-two block");
    let x: Vec<f64> = (0..dim).map(|i| ((i as f64) * 0.173).sin()).collect();

    let t0 = Instant::now();
    let mut opt_out = Vec::new();
    for _ in 0..iters {
        opt_out = s.matvec(&x);
    }
    let optimized_seconds = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut blk_out = Vec::new();
    for _ in 0..iters {
        blk_out = s.matvec_per_block_ifft(&x);
    }
    let per_block_seconds = t1.elapsed().as_secs_f64();

    let max_divergence =
        opt_out.iter().zip(&blk_out).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);

    SpectralAccumReport {
        ifft_optimized: s.ifft_count_optimized(),
        ifft_per_block: s.ifft_count_per_block(),
        optimized_seconds,
        per_block_seconds,
        max_divergence,
    }
}

/// Result of the RFFT ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct RfftReport {
    /// Seconds for `iters` complex-FFT matvecs.
    pub complex_seconds: f64,
    /// Seconds for `iters` RFFT matvecs.
    pub rfft_seconds: f64,
    /// Complex bins stored per block (`n`).
    pub complex_bins: usize,
    /// RFFT bins stored per block (`n/2 + 1`).
    pub rfft_bins: usize,
    /// Worst output divergence between the two paths.
    pub max_divergence: f64,
}

/// Runs the RFFT-vs-complex ablation.
///
/// # Panics
///
/// Panics if `n` is not a power of two ≥ 2.
#[must_use]
pub fn rfft_comparison(dim: usize, n: usize, iters: usize) -> RfftReport {
    let w = BlockCirculantMatrix::random(dim, dim, n, 43).expect("valid matrix");
    let c = SpectralBlockCirculant::new(&w).expect("power-of-two block");
    let r = RealSpectralBlockCirculant::new(&w).expect("power-of-two block");
    let x: Vec<f64> = (0..dim).map(|i| ((i as f64) * 0.211).cos()).collect();

    let t0 = Instant::now();
    let mut c_out = Vec::new();
    for _ in 0..iters {
        c_out = c.matvec(&x);
    }
    let complex_seconds = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut r_out = Vec::new();
    for _ in 0..iters {
        r_out = r.matvec(&x);
    }
    let rfft_seconds = t1.elapsed().as_secs_f64();

    let max_divergence =
        c_out.iter().zip(&r_out).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);

    RfftReport {
        complex_seconds,
        rfft_seconds,
        complex_bins: n,
        rfft_bins: n / 2 + 1,
        max_divergence,
    }
}

/// Projected hardware impact of RFFT channels (§V), evaluated with the
/// cycle model on the GS-Pool/Reddit task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RfftHardwareProjection {
    /// Total cycles with complex-FFT channels (the built prototype).
    pub complex_cycles: u64,
    /// Total cycles with RFFT channels (the §V proposal).
    pub rfft_cycles: u64,
}

impl RfftHardwareProjection {
    /// The projected end-to-end speedup from switching to RFFT.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.complex_cycles as f64 / self.rfft_cycles as f64
    }
}

/// Evaluates the §V RFFT proposal on the paper's heaviest configuration
/// (GS-Pool on Reddit, n = 128, Table V's RD hardware parameters).
#[must_use]
pub fn rfft_hardware_projection() -> RfftHardwareProjection {
    use blockgnn_perf::coeffs::HardwareCoeffs;
    use blockgnn_perf::cycles::{gs_pool_aggregation_task, layer_cycles_with_mode, FftMode};
    use blockgnn_perf::params::CirCoreParams;

    let coeffs = HardwareCoeffs::zc706();
    let spec = datasets::reddit_like();
    let params = CirCoreParams { x: 15, y: 13, r: 5, c: 4, l: 1, m: 1 }; // Table V, RD
    let tasks = [
        gs_pool_aggregation_task(25, 512, spec.feature_dim),
        gs_pool_aggregation_task(10, 512, 512),
    ];
    let total = |mode: FftMode| -> u64 {
        tasks
            .iter()
            .map(|t| layer_cycles_with_mode(t, &params, 128, &coeffs, mode).bottleneck())
            .sum::<u64>()
            * spec.num_nodes as u64
    };
    RfftHardwareProjection {
        complex_cycles: total(FftMode::Complex),
        rfft_cycles: total(FftMode::Real),
    }
}

/// Result of the aggregator-only ablation for one model.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregatorOnlyReport {
    /// Model trained.
    pub model: ModelKind,
    /// Dense (uncompressed) accuracy.
    pub dense_accuracy: f64,
    /// Fully compressed accuracy.
    pub full_accuracy: f64,
    /// Aggregator-only compressed accuracy.
    pub aggregator_only_accuracy: f64,
}

/// Trains `model` under the three compression policies on the
/// reddit-small stand-in.
#[must_use]
pub fn aggregator_only(
    model: ModelKind,
    block_size: usize,
    hidden: usize,
    epochs: usize,
    seed: u64,
) -> AggregatorOnlyReport {
    let dataset = datasets::reddit_like_small(seed);
    let cfg = TrainConfig { epochs, lr: 0.01, patience: 0 };
    let run = |policy: CompressionPolicy| -> f64 {
        let mut m = build_model_with_policy(
            model,
            dataset.feature_dim(),
            hidden,
            dataset.num_classes,
            policy,
            seed,
        )
        .expect("valid configuration");
        train_node_classifier(m.as_mut(), &dataset, &cfg).test_accuracy
    };
    let c = Compression::BlockCirculant { block_size };
    AggregatorOnlyReport {
        model,
        dense_accuracy: run(CompressionPolicy::uniform(Compression::Dense)),
        full_accuracy: run(CompressionPolicy::uniform(c)),
        aggregator_only_accuracy: run(CompressionPolicy::aggregator_only(c)),
    }
}

/// Renders all four ablations.
#[must_use]
pub fn render(
    accum: &SpectralAccumReport,
    rfft: &RfftReport,
    agg: &AggregatorOnlyReport,
) -> String {
    let hw = rfft_hardware_projection();
    format!(
        "=== Ablations ===\n\n\
         [Algorithm 1: spectral-domain accumulation]\n\
         IFFTs per matvec: {} (optimized) vs {} (per-block CirCNN flow)\n\
         measured: {:.3} ms vs {:.3} ms  (divergence {:.2e})\n\n\
         [RFFT (§V), software kernels]\n\
         spectral bins per block: {} (complex) vs {} (real)\n\
         measured: {:.3} ms vs {:.3} ms  (divergence {:.2e})\n\n\
         [RFFT (§V), projected hardware impact — GS-Pool/RD, Table V config]\n\
         complex channels: {:.1} Mcycles | RFFT channels: {:.1} Mcycles | {:.2}x speedup\n\
         (the paper argues RFFT would close the 8.3x-implemented vs\n\
          18.3x-theoretical gap)\n\n\
         [Aggregator-only compression (§V), {}]\n\
         dense {:.3} | fully compressed {:.3} | aggregator-only {:.3}\n\
         (paper: aggregator-only keeps the drop under 0.5%)\n",
        accum.ifft_optimized,
        accum.ifft_per_block,
        accum.optimized_seconds * 1e3,
        accum.per_block_seconds * 1e3,
        accum.max_divergence,
        rfft.complex_bins,
        rfft.rfft_bins,
        rfft.complex_seconds * 1e3,
        rfft.rfft_seconds * 1e3,
        rfft.max_divergence,
        hw.complex_cycles as f64 / 1e6,
        hw.rfft_cycles as f64 / 1e6,
        hw.speedup(),
        agg.model,
        agg.dense_accuracy,
        agg.full_accuracy,
        agg.aggregator_only_accuracy,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spectral_accumulation_saves_iffts_and_matches_outputs() {
        let report = spectral_accumulation(512, 64, 3);
        assert_eq!(report.ifft_optimized, 8);
        assert_eq!(report.ifft_per_block, 64);
        assert!(report.max_divergence < 1e-9);
    }

    #[test]
    fn rfft_stores_roughly_half_the_bins() {
        let report = rfft_comparison(256, 64, 3);
        assert_eq!(report.complex_bins, 64);
        assert_eq!(report.rfft_bins, 33);
        assert!(report.max_divergence < 1e-8);
    }

    #[test]
    fn aggregator_only_recovers_accuracy() {
        // Quick training run: aggregator-only must not be (much) worse
        // than full compression, and both must stay within reach of the
        // dense baseline.
        let report = aggregator_only(ModelKind::GsPool, 16, 32, 30, 5);
        assert!(report.dense_accuracy > 0.6, "dense {}", report.dense_accuracy);
        assert!(
            report.aggregator_only_accuracy >= report.full_accuracy - 0.08,
            "agg-only {} vs full {}",
            report.aggregator_only_accuracy,
            report.full_accuracy
        );
        assert!(
            report.dense_accuracy - report.aggregator_only_accuracy < 0.15,
            "agg-only drop too large"
        );
    }

    #[test]
    fn rfft_hardware_projection_speeds_up_fft_bound_tasks() {
        let proj = rfft_hardware_projection();
        assert!(
            (1.4..2.2).contains(&proj.speedup()),
            "projected RFFT speedup {:.2}",
            proj.speedup()
        );
        assert!(proj.rfft_cycles < proj.complex_cycles);
    }

    #[test]
    fn render_covers_all_three() {
        let accum = spectral_accumulation(128, 32, 1);
        let rfft = rfft_comparison(128, 32, 1);
        let agg = aggregator_only(ModelKind::Gcn, 16, 32, 10, 1);
        let text = render(&accum, &rfft, &agg);
        assert!(text.contains("Algorithm 1"));
        assert!(text.contains("RFFT"));
        assert!(text.contains("Aggregator-only"));
    }
}

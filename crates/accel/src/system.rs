//! The BlockGNN system (Figure 3): CirCore + VPU + Global Buffer with
//! vertex-centric batch processing.
//!
//! Two views, one cost source:
//!
//! * **Performance model** ([`BlockGnnAccelerator::simulate_workload`]) —
//!   evaluates the Eq. 3–7 pipeline model of `blockgnn-perf` for a
//!   [`GnnWorkload`], layer by layer, overlapping DRAM prefetch with
//!   compute exactly as the §III-C prefetching argument assumes. This is
//!   what regenerates Figures 6 and 7, and the only place this crate
//!   counts cycles.
//! * **Functional execution** ([`BlockGnnAccelerator::load_weights`] +
//!   [`BlockGnnAccelerator::process_batch`]) — real numbers through the
//!   Q16.16 spectral datapath ([`FixedSpectralBlockCirculant`]: FFT →
//!   element-wise MAC → IFFT) and the VPU's activation, with
//!   Weight-Buffer/NFB capacity checks, so tests can verify the hardware
//!   datapath end-to-end against the software reference.

use crate::buffer::{DramModel, GlobalBuffer};
use blockgnn_core::{BlockCirculantMatrix, FixedSpectralBlockCirculant};
use blockgnn_gnn::workload::GnnWorkload;
use blockgnn_perf::coeffs::HardwareCoeffs;
use blockgnn_perf::cycles::{layer_cycles, LayerCycles, LayerTask, MatvecCount};
use blockgnn_perf::params::CirCoreParams;
use std::error::Error;
use std::fmt;

/// Errors from the functional accelerator interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccelError {
    /// The spectral weights exceed the 256 KB Weight Buffer.
    WeightBufferOverflow {
        /// Bytes the weights need.
        needed: usize,
    },
    /// A feature batch exceeds the ping-pong half of the NFB.
    FeatureBufferOverflow {
        /// Bytes the batch needs.
        needed: usize,
    },
    /// `process_batch` called before `load_weights`.
    NoWeightsLoaded,
    /// The weight matrix could not be compiled for CirCore.
    BadWeights(
        /// Underlying reason.
        String,
    ),
}

impl fmt::Display for AccelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccelError::WeightBufferOverflow { needed } => {
                write!(f, "spectral weights need {needed} bytes, exceeding the weight buffer")
            }
            AccelError::FeatureBufferOverflow { needed } => {
                write!(f, "feature batch needs {needed} bytes, exceeding the NFB bank")
            }
            AccelError::NoWeightsLoaded => write!(f, "no weights loaded"),
            AccelError::BadWeights(why) => write!(f, "weights rejected: {why}"),
        }
    }
}

impl Error for AccelError {}

/// Non-linearity applied by the VPU after a combination matvec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostOp {
    /// No activation (logits layer).
    None,
    /// ReLU (GCN/GS-Pool/G-GCN combiners).
    Relu,
    /// ELU (GAT combiner).
    Elu,
    /// Sigmoid (G-GCN gates).
    Sigmoid,
}

impl PostOp {
    /// Applies the activation element-wise, as the VPU's lanes do.
    fn apply(self, x: &mut [f64]) {
        match self {
            PostOp::None => {}
            PostOp::Relu => {
                for v in x {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
            }
            PostOp::Elu => {
                for v in x {
                    if *v < 0.0 {
                        *v = v.exp() - 1.0;
                    }
                }
            }
            PostOp::Sigmoid => {
                for v in x {
                    *v = 1.0 / (1.0 + (-*v).exp());
                }
            }
        }
    }
}

/// Per-layer entry of a performance-model report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerReport {
    /// Pipeline-stage cycles per node (Eqs. 3–6).
    pub stages: LayerCycles,
    /// DRAM cycles per node for streamed features.
    pub dram: u64,
    /// Effective per-node cycles: `max(bottleneck, dram)`.
    pub effective: u64,
}

/// The outcome of simulating a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Per-layer breakdown.
    pub layers: Vec<LayerReport>,
    /// Eq. 7 total.
    pub total_cycles: u64,
    /// Wall-clock seconds at the configured clock.
    pub seconds: f64,
    /// Target nodes processed.
    pub num_nodes: usize,
}

impl SimReport {
    /// Inference throughput in nodes per second.
    #[must_use]
    pub fn nodes_per_second(&self) -> f64 {
        self.num_nodes as f64 / self.seconds
    }

    /// Merges per-part reports from a partitioned execution into one
    /// whole-graph report, the way §IV-C evaluates the Reddit dataset:
    /// the sub-graphs run one after another on a single accelerator, so
    /// total cycles, wall-clock seconds, and processed nodes **sum**
    /// across parts. The per-layer breakdown is per-node (identical for
    /// every part of the same model/configuration), so the first part's
    /// layer entries are kept. Returns `None` for an empty iterator.
    ///
    /// Because the Eq. 7 total is linear in the node count, merging the
    /// per-part reports of any partition reproduces the unpartitioned
    /// report exactly — the property that makes the paper's two-way
    /// Reddit split performance-neutral.
    #[must_use]
    pub fn merge(parts: impl IntoIterator<Item = SimReport>) -> Option<SimReport> {
        let mut parts = parts.into_iter();
        let mut merged = parts.next()?;
        for part in parts {
            debug_assert_eq!(
                merged.layers, part.layers,
                "parts of one partitioned run share a per-node layer breakdown"
            );
            merged.total_cycles += part.total_cycles;
            merged.seconds += part.seconds;
            merged.num_nodes += part.num_nodes;
        }
        Some(merged)
    }
}

/// The accelerator: CirCore + VPU + Global Buffer.
#[derive(Debug, Clone)]
pub struct BlockGnnAccelerator {
    params: CirCoreParams,
    coeffs: HardwareCoeffs,
    dram: DramModel,
    buffer: GlobalBuffer,
    /// The loaded weights as CirCore's PEs hold them: Q16.16 spectra.
    weights: Option<FixedSpectralBlockCirculant>,
}

impl BlockGnnAccelerator {
    /// Builds an accelerator with the given CirCore configuration on the
    /// ZC706 memory system.
    ///
    /// # Panics
    ///
    /// Panics if `params.m` (the VPU's SIMD-16 lanes) is zero.
    #[must_use]
    pub fn new(params: CirCoreParams, coeffs: HardwareCoeffs) -> Self {
        assert!(params.m > 0, "the VPU needs at least one lane");
        Self {
            params,
            coeffs,
            dram: DramModel::zc706(),
            buffer: GlobalBuffer::zc706(),
            weights: None,
        }
    }

    /// The configured parameters.
    #[must_use]
    pub fn params(&self) -> &CirCoreParams {
        &self.params
    }

    // ------------------------------------------------------------------
    // Functional interface (the Q16.16 datapath of Figure 3).
    // ------------------------------------------------------------------

    /// Loads a block-circulant weight matrix: checks the Weight Buffer
    /// capacity against the spectral storage footprint (complex Q16.16,
    /// 8 bytes per retained bin) and quantizes the spectra to Q16.16.
    ///
    /// # Errors
    ///
    /// [`AccelError::WeightBufferOverflow`] if the spectra do not fit;
    /// [`AccelError::BadWeights`] for non-power-of-two blocks.
    pub fn load_weights(&mut self, weights: &BlockCirculantMatrix) -> Result<(), AccelError> {
        let spectral_bytes = weights.spectral_weight_bytes();
        if !self.buffer.model_fits(spectral_bytes) {
            return Err(AccelError::WeightBufferOverflow { needed: spectral_bytes });
        }
        let fixed = FixedSpectralBlockCirculant::new(weights)
            .map_err(|e| AccelError::BadWeights(e.to_string()))?;
        self.weights = Some(fixed);
        Ok(())
    }

    /// Streams a feature batch through the Q16.16 datapath and the VPU
    /// post-op, one row of output per row of `features`.
    ///
    /// # Errors
    ///
    /// [`AccelError::NoWeightsLoaded`] before a `load_weights`;
    /// [`AccelError::FeatureBufferOverflow`] if the batch exceeds an NFB
    /// bank.
    ///
    /// # Panics
    ///
    /// Panics if any row length differs from the weight's input dimension.
    pub fn process_batch(
        &mut self,
        features: &[Vec<f64>],
        post: PostOp,
    ) -> Result<Vec<Vec<f64>>, AccelError> {
        let weights = self.weights.as_mut().ok_or(AccelError::NoWeightsLoaded)?;
        let batch_bytes: usize = features.iter().map(|f| f.len() * 4).sum();
        self.buffer.swap_feature_banks();
        if !self.buffer.reserve_features(batch_bytes) {
            return Err(AccelError::FeatureBufferOverflow { needed: batch_bytes });
        }
        let (in_dim, out_dim) = (weights.kernel().in_dim(), weights.kernel().out_dim());
        assert!(features.iter().all(|x| x.len() == in_dim), "input length must equal in_dim");
        let mut out = weights.matmul(&features.concat());
        post.apply(&mut out);
        Ok(out.chunks_exact(out_dim).map(<[f64]>::to_vec).collect())
    }

    // ------------------------------------------------------------------
    // Performance-model interface (Figures 6/7).
    // ------------------------------------------------------------------

    /// Converts one workload layer into the perf-model task: all weight
    /// products (aggregation + combination) stream through CirCore, all
    /// vector work lands on the VPU.
    #[must_use]
    pub fn layer_task(layer: &blockgnn_gnn::workload::LayerWorkload) -> LayerTask {
        let matvecs = layer
            .agg
            .matvecs
            .iter()
            .chain(&layer.comb.matvecs)
            .map(|mv| MatvecCount {
                count_per_node: mv.per_node,
                out_dim: mv.out_dim,
                in_dim: mv.in_dim,
            })
            .collect();
        LayerTask {
            matvecs,
            vpu_macs_per_node: layer.agg.vector_macs_per_node + layer.comb.vector_macs_per_node,
        }
    }

    /// Simulates a full GNN inference pass with block size `n`,
    /// returning the Eq. 7 report with DRAM overlap per layer.
    #[must_use]
    pub fn simulate_workload(&self, workload: &GnnWorkload, n: usize) -> SimReport {
        let mut layers = Vec::with_capacity(workload.layers.len());
        let mut per_node_total = 0u64;
        for layer in &workload.layers {
            let task = Self::layer_task(layer);
            let stages = layer_cycles(&task, &self.params, n, &self.coeffs);
            let bytes =
                (layer.agg.input_floats_per_node + layer.comb.input_floats_per_node) * 4.0;
            let dram = self.dram.transfer_cycles(bytes);
            let effective = self.dram.overlapped_cycles(stages.bottleneck(), bytes);
            per_node_total += effective;
            layers.push(LayerReport { stages, dram, effective });
        }
        let total_cycles = per_node_total * workload.num_nodes as u64;
        SimReport {
            layers,
            total_cycles,
            seconds: total_cycles as f64 / self.coeffs.clock_hz,
            num_nodes: workload.num_nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockgnn_gnn::ModelKind;
    use blockgnn_graph::datasets;
    use blockgnn_linalg::vector::linf_distance;

    fn accel() -> BlockGnnAccelerator {
        BlockGnnAccelerator::new(CirCoreParams::base(), HardwareCoeffs::zc706())
    }

    #[test]
    fn functional_layer_matches_software_reference() {
        let mut acc = accel();
        let w = BlockCirculantMatrix::random(64, 48, 16, 5).unwrap();
        acc.load_weights(&w).unwrap();
        let batch: Vec<Vec<f64>> = (0..4)
            .map(|b| (0..48).map(|i| ((b * 48 + i) as f64 * 0.07).sin()).collect())
            .collect();
        let out = acc.process_batch(&batch, PostOp::Relu).unwrap();
        for (x, y) in batch.iter().zip(&out) {
            let mut expect = w.matvec_direct(x);
            for v in &mut expect {
                *v = v.max(0.0);
            }
            assert!(linf_distance(y, &expect) < 2e-2);
        }
    }

    #[test]
    fn relu_sigmoid_elu_functional() {
        let mut x = vec![-1.0, 2.0];
        PostOp::Relu.apply(&mut x);
        assert_eq!(x, vec![0.0, 2.0]);
        let mut s = vec![0.0];
        PostOp::Sigmoid.apply(&mut s);
        assert!((s[0] - 0.5).abs() < 1e-12);
        let mut e = vec![-1.0, 1.0];
        PostOp::Elu.apply(&mut e);
        assert!((e[0] - ((-1.0f64).exp() - 1.0)).abs() < 1e-12);
        assert_eq!(e[1], 1.0);
    }

    #[test]
    fn rejects_non_power_of_two_blocks() {
        let mut acc = accel();
        let w = BlockCirculantMatrix::random(9, 9, 3, 0).unwrap();
        assert!(matches!(acc.load_weights(&w).unwrap_err(), AccelError::BadWeights(_)));
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let params = CirCoreParams { m: 0, ..CirCoreParams::base() };
        let _ = BlockGnnAccelerator::new(params, HardwareCoeffs::zc706());
    }

    #[test]
    fn process_before_load_fails() {
        let mut acc = accel();
        assert_eq!(
            acc.process_batch(&[vec![0.0; 4]], PostOp::None).unwrap_err(),
            AccelError::NoWeightsLoaded
        );
    }

    #[test]
    fn dense_weights_blow_the_weight_buffer() {
        // n = 1 means "dense" storage: 512·512 spectra bins of 8 bytes =
        // 2 MB >> 256 KB. The WB capacity check is the §IV-B argument
        // that only *compressed* models fit on-chip.
        let mut acc = accel();
        let dense = BlockCirculantMatrix::random(512, 512, 1, 0).unwrap();
        assert!(matches!(
            acc.load_weights(&dense).unwrap_err(),
            AccelError::WeightBufferOverflow { .. }
        ));
        let compressed = BlockCirculantMatrix::random(512, 512, 128, 0).unwrap();
        assert!(acc.load_weights(&compressed).is_ok());
    }

    #[test]
    fn oversized_batches_are_rejected() {
        let mut acc = accel();
        let w = BlockCirculantMatrix::random(16, 16, 8, 1).unwrap();
        acc.load_weights(&w).unwrap();
        // One bank is 256 KB → 65,536 floats; a 100×16 batch fits,
        // a 5000×16 batch (320 KB) does not.
        assert!(acc.process_batch(&vec![vec![0.0; 16]; 100], PostOp::None).is_ok());
        assert!(matches!(
            acc.process_batch(&vec![vec![0.0; 16]; 5000], PostOp::None).unwrap_err(),
            AccelError::FeatureBufferOverflow { .. }
        ));
    }

    #[test]
    fn simulation_report_is_consistent() {
        let acc = accel();
        let spec = datasets::cora_like();
        let w = GnnWorkload::new(ModelKind::GsPool, &spec, 512, &[25, 10]);
        let report = acc.simulate_workload(&w, 128);
        assert_eq!(report.layers.len(), 2);
        let per_node: u64 = report.layers.iter().map(|l| l.effective).sum();
        assert_eq!(report.total_cycles, per_node * spec.num_nodes as u64);
        assert!(report.seconds > 0.0);
        assert!(report.nodes_per_second() > 0.0);
        // Layer 1 (wide input features) must cost at least layer 2.
        assert!(report.layers[0].effective >= report.layers[1].effective);
    }

    #[test]
    fn merged_part_reports_reproduce_the_whole_graph_report() {
        // §IV-C: Reddit splits into two sub-graphs; processing them in
        // sequence must cost exactly the unpartitioned total.
        let acc = accel();
        let spec = datasets::cora_like();
        let w = GnnWorkload::new(ModelKind::Ggcn, &spec, 256, &[25, 10]);
        let whole = acc.simulate_workload(&w, 64);
        let split = [spec.num_nodes / 3, spec.num_nodes - spec.num_nodes / 3];
        let parts = split.iter().map(|&nodes| {
            let mut part_spec = spec.clone();
            part_spec.num_nodes = nodes;
            acc.simulate_workload(
                &GnnWorkload::new(ModelKind::Ggcn, &part_spec, 256, &[25, 10]),
                64,
            )
        });
        let merged = SimReport::merge(parts).unwrap();
        assert_eq!(merged.total_cycles, whole.total_cycles);
        assert_eq!(merged.num_nodes, whole.num_nodes);
        assert!((merged.seconds - whole.seconds).abs() < 1e-12);
        assert_eq!(merged.layers, whole.layers);
        assert!(SimReport::merge(std::iter::empty()).is_none());
    }

    #[test]
    fn gcn_layer1_is_memory_or_vpu_bound_not_circore_bound() {
        // The paper: "the aggregation of GCN is not computation-intensive
        // and the benefit of weight compression are not obvious" —
        // compressing GCN's single combination matvec leaves the
        // feature-wide first layer bottlenecked on the VPU/DRAM side.
        let acc = accel();
        let spec = datasets::reddit_like();
        let w = GnnWorkload::new(ModelKind::Gcn, &spec, 512, &[25, 10]);
        let report = acc.simulate_workload(&w, 128);
        let layer1 = &report.layers[0];
        let circore_bound = layer1.stages.fft.max(layer1.stages.mac).max(layer1.stages.ifft);
        assert!(
            layer1.effective > circore_bound,
            "GCN layer 1 should bottleneck on VPU/DRAM, not CirCore"
        );
        assert_eq!(layer1.effective, layer1.stages.vpu.max(layer1.dram));
    }
}

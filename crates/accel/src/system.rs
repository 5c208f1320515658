//! The BlockGNN system (Figure 3): CirCore + VPU + Global Buffer with
//! vertex-centric batch processing, as a performance model.
//!
//! [`BlockGnnAccelerator::simulate_workload`] evaluates the Eq. 3–7
//! pipeline model of `blockgnn-perf` for a [`GnnWorkload`], layer by
//! layer, overlapping DRAM prefetch with compute exactly as the §III-C
//! prefetching argument assumes. This is what regenerates Figures 6 and
//! 7, and the only place this crate counts cycles. The accelerator's
//! arithmetic — Q16.16 spectral products behind f64 edges — is the
//! serving engine's `SimulatedAccel` backend, which charges its requests
//! here.

use crate::buffer::DramModel;
use blockgnn_gnn::workload::GnnWorkload;
use blockgnn_perf::coeffs::HardwareCoeffs;
use blockgnn_perf::cycles::{layer_cycles, LayerCycles, LayerTask, MatvecCount};
use blockgnn_perf::params::CirCoreParams;
use std::error::Error;
use std::fmt;

/// Why a model cannot deploy on the accelerator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccelError {
    /// The spectral weights exceed the 256 KB Weight Buffer.
    WeightBufferOverflow {
        /// Bytes the weights need.
        needed: usize,
    },
}

impl fmt::Display for AccelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccelError::WeightBufferOverflow { needed } => {
                write!(f, "spectral weights need {needed} bytes, exceeding the weight buffer")
            }
        }
    }
}

impl Error for AccelError {}

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
}

/// The accelerator: CirCore + VPU + Global Buffer.
#[derive(Debug, Clone)]
pub struct BlockGnnAccelerator {
    params: CirCoreParams,
    coeffs: HardwareCoeffs,
    dram: DramModel,
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
        Self { params, coeffs, dram: DramModel::zc706() }
    }

    /// The configured parameters.
    #[must_use]
    pub fn params(&self) -> &CirCoreParams {
        &self.params
    }

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
    use crate::buffer::GlobalBuffer;
    use blockgnn_core::BlockCirculantMatrix;
    use blockgnn_gnn::ModelKind;
    use blockgnn_graph::datasets;

    fn accel() -> BlockGnnAccelerator {
        BlockGnnAccelerator::new(CirCoreParams::base(), HardwareCoeffs::zc706())
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let params = CirCoreParams { m: 0, ..CirCoreParams::base() };
        let _ = BlockGnnAccelerator::new(params, HardwareCoeffs::zc706());
    }

    #[test]
    fn dense_weights_blow_the_weight_buffer() {
        // n = 1 means "dense" storage: 512·512 spectra bins of 8 bytes =
        // 2 MB >> 256 KB. The WB capacity check is the §IV-B argument
        // that only *compressed* models fit on-chip.
        let wb = GlobalBuffer::zc706();
        let dense = BlockCirculantMatrix::random(512, 512, 1, 0).unwrap();
        assert!(!wb.model_fits(dense.spectral_weight_bytes()));
        let compressed = BlockCirculantMatrix::random(512, 512, 128, 0).unwrap();
        assert!(wb.model_fits(compressed.spectral_weight_bytes()));
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
        // §IV-C: Reddit splits into two sub-graphs, run in sequence on one
        // accelerator. Eq. 7 is per-node cycles × nodes, so n₁ + n₂ nodes
        // cost exactly n₁ nodes plus n₂ nodes, at the same per-node layer
        // breakdown: a partitioned pass is charged once, for every node.
        let acc = accel();
        let spec = datasets::cora_like();
        let report = |nodes: usize| {
            let mut part_spec = spec.clone();
            part_spec.num_nodes = nodes;
            acc.simulate_workload(
                &GnnWorkload::new(ModelKind::Ggcn, &part_spec, 256, &[25, 10]),
                64,
            )
        };
        let whole = report(spec.num_nodes);
        let (n1, n2) = (spec.num_nodes / 3, spec.num_nodes - spec.num_nodes / 3);
        let (first, second) = (report(n1), report(n2));
        assert_eq!(whole.total_cycles, first.total_cycles + second.total_cycles);
        assert_eq!(whole.num_nodes, n1 + n2);
        assert_eq!(whole.layers, first.layers);
        assert_eq!(whole.layers, second.layers);
        assert_eq!(report(0).total_cycles, 0);
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

//! The execution substrate: one `Backend`, parameterised by
//! [`BackendKind`].
//!
//! The paper's central claim is that one model executes equivalently on
//! dense GEMM hardware, via Algorithm 1's spectral products, or on the
//! CirCore accelerator. The substrates differ in how the weights are
//! stored and in which scalar the weight products run (one
//! [`blockgnn_nn::ExecMode`] per [`BackendKind`]), and in whether a cost
//! model rides along — nothing else — so there is one backend type: it
//! owns a prepared copy of the model and turns a computation graph +
//! features into logits, and when it carries the CirCore cost model the
//! Eq. 3–7 cycle report and an energy estimate come back from the same
//! call.

use crate::error::EngineError;
use crate::versioned::GraphEpoch;
use blockgnn_accel::{AccelError, BlockGnnAccelerator, GlobalBuffer, SimReport};
use blockgnn_gnn::workload::GnnWorkload;
use blockgnn_gnn::GnnModel;
use blockgnn_graph::{CsrGraph, DatasetSpec};
use blockgnn_linalg::Matrix;
use blockgnn_nn::{ExecMode, LinearLayer};
use blockgnn_perf::coeffs::HardwareCoeffs;
use blockgnn_perf::params::CirCoreParams;
use std::fmt;

/// Which execution substrate a backend represents.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Dense GEMM over decompressed weights — the uncompressed baseline.
    #[default]
    Dense,
    /// Algorithm 1 (FFT → spectral MAC → IFFT) with kernel spectra
    /// cached across calls.
    Spectral,
    /// The accelerator: Algorithm 1 in CirCore's Q16.16 arithmetic
    /// (§IV-B) plus the CirCore cycle/energy model, so responses carry a
    /// [`SimReport`]. Only the circulant weight products run in Q16.16
    /// ([`ExecMode::FixedSpectral`]); aggregation, activations, biases
    /// and any dense layer stay f64.
    SimulatedAccel,
}

impl BackendKind {
    /// All backends, baseline first.
    #[must_use]
    pub fn all() -> [BackendKind; 3] {
        [BackendKind::Dense, BackendKind::Spectral, BackendKind::SimulatedAccel]
    }

    /// Bytes one feature scalar occupies while resident for this
    /// backend — the divisor of the §IV-C memory-budget partitioning.
    /// The simulated accelerator streams Q16.16 fixed-point features
    /// (4 bytes); the software backends hold f64 host matrices
    /// (8 bytes). Kept per-backend (rather than a hardcoded fp32) so
    /// residency budgets stay honest across number formats.
    #[must_use]
    pub fn bytes_per_feature(&self) -> usize {
        match self {
            BackendKind::Dense | BackendKind::Spectral => 8,
            BackendKind::SimulatedAccel => 4,
        }
    }

    /// Human-readable name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Dense => "dense",
            BackendKind::Spectral => "spectral",
            BackendKind::SimulatedAccel => "simulated-accel",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What one backend execution produces.
#[derive(Debug, Clone)]
pub(crate) struct BackendOutput {
    /// Logits of the executed computation graph: one row per node.
    pub logits: Matrix,
    /// Hardware cycle report, when the backend simulates one.
    pub sim: Option<SimReport>,
    /// Energy estimate in joules, when the backend models power.
    pub energy_joules: Option<f64>,
}

/// Shape of the workload one request executes — what the hardware cost
/// model charges for. The cycle model (Eqs. 3–7) prices the full
/// two-hop sampled aggregation *per target node*, so `target_nodes`
/// counts requested (unique) nodes, not the materialized sub-universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RequestShape {
    /// Number of target nodes the request classifies.
    pub target_nodes: usize,
    /// Sampling fan-outs `(S₁, S₂)` of the executed workload.
    pub fanouts: (usize, usize),
}

/// The CirCore cost model a [`BackendKind::SimulatedAccel`] backend
/// carries. It is analytic — Eqs. 3–7 price the *logical* FFT/MAC/IFFT
/// work from the workload shape, never from the software data layout or
/// scalar — so how the Q16.16 pass stores its spectra changes wall-clock
/// only, never cycles or energy.
#[derive(Clone)]
struct CostModel {
    accel: BlockGnnAccelerator,
    power_w: f64,
    /// Hidden width of the per-request [`GnnWorkload`] charged for.
    hidden_dim: usize,
    /// The circulant block size `n` the hardware executes (1 for a
    /// fully dense model).
    block_size: usize,
}

/// An execution substrate: one prepared model, plus a cost model when
/// the substrate is the simulated accelerator.
///
/// The three [`BackendKind`]s run the *same* code. The kind decides how
/// [`Backend::new`] freezes the weights ([`ExecMode::Gemm`] decompresses
/// circulant kernels to dense matrices; [`ExecMode::Spectral`] caches
/// packed half-spectra and RFFT plans, so steady-state execution does no
/// spectral-path allocation; [`ExecMode::FixedSpectral`] caches them in
/// Q16.16) and whether executions are also priced on CirCore. Staged execution reaches the model's row-parallel hooks
/// ([`GnnModel::forward_stage`] and friends) through `model` directly.
pub(crate) struct Backend {
    kind: BackendKind,
    pub(crate) model: Box<dyn GnnModel>,
    /// `Some` exactly for [`BackendKind::SimulatedAccel`].
    cost: Option<CostModel>,
    /// Summed packed spectral footprint of the circulant layers (complex
    /// Q16.16, 8 bytes per retained bin of each block's Hermitian
    /// half-spectrum, as the Weight Buffer stores it); 0 for a fully
    /// dense model.
    weight_bytes: usize,
}

impl Backend {
    /// Freezes `model` into the prepared form `kind` implies. The
    /// simulated accelerator additionally gets its cost model (`params`,
    /// `coeffs`; hidden width and block size are read off the model) and
    /// the §IV-B deployability check: all circulant weight spectra must
    /// *co-reside* in the 256 KB Weight Buffer, the whole-model residency
    /// the serving loop assumes.
    ///
    /// # Errors
    ///
    /// [`EngineError::Accel`] if the summed spectra overflow the Weight
    /// Buffer of a simulated accelerator.
    pub(crate) fn new(
        kind: BackendKind,
        mut model: Box<dyn GnnModel>,
        params: CirCoreParams,
        coeffs: HardwareCoeffs,
    ) -> Result<Self, EngineError> {
        let (mut weight_bytes, mut block_size) = (0usize, 1usize);
        model.visit_linear_layers(&mut |layer| {
            if let LinearLayer::Circulant(c) = layer {
                weight_bytes += c.spectral_weight_bytes();
                block_size = block_size.max(c.block_size());
            }
        });
        let cost = (kind == BackendKind::SimulatedAccel).then(|| CostModel {
            power_w: coeffs.accel_power_w,
            accel: BlockGnnAccelerator::new(params, coeffs),
            hidden_dim: model.hidden_dim(),
            block_size,
        });
        if cost.is_some() && !GlobalBuffer::zc706().model_fits(weight_bytes) {
            return Err(EngineError::Accel(AccelError::WeightBufferOverflow {
                needed: weight_bytes,
            }));
        }
        model.prepare(match kind {
            BackendKind::Dense => ExecMode::Gemm,
            BackendKind::Spectral => ExecMode::Spectral,
            BackendKind::SimulatedAccel => ExecMode::FixedSpectral,
        });
        Ok(Self { kind, model, cost, weight_bytes })
    }

    pub(crate) fn kind(&self) -> BackendKind {
        self.kind
    }

    pub(crate) fn weight_bytes(&self) -> usize {
        self.weight_bytes
    }

    /// Runs one full inference pass over `graph`/`features`, charged on
    /// the cost model (if any) for `shape`: logits for every node.
    pub(crate) fn execute(
        &mut self,
        graph: &CsrGraph,
        features: &Matrix,
        shape: RequestShape,
    ) -> BackendOutput {
        let logits = self.model.forward(graph, features, false);
        let (sim, energy_joules) = self.charge(features.cols(), shape).unzip();
        BackendOutput { logits, sim, energy_joules }
    }

    /// Points the model's node-local row reads at `epoch`'s row table,
    /// or, with `None` or past the table's cap, back at computing them
    /// per call. The engine attaches it around sampled batches only. A
    /// no-op for a model that reads no such rows.
    pub(crate) fn attach(&mut self, epoch: Option<&GraphEpoch>) {
        if let Some(width) = self.model.row_table_width() {
            self.model.attach_row_table(epoch.and_then(|epoch| epoch.row_table(width)));
        }
    }

    /// An independent replica for another worker thread or session.
    /// Prepared weights and spectra stay `Arc`-shared (see [`ExecMode`]);
    /// per-call scratch clones *empty*, so replicas own private hot
    /// buffers and never contend. The residency check ran when the
    /// original was built and the fork serves the same weights.
    pub(crate) fn fork(&self) -> Self {
        Self {
            kind: self.kind,
            model: self.model.clone_boxed(),
            cost: self.cost.clone(),
            weight_bytes: self.weight_bytes,
        }
    }

    /// Hardware cost of serving `shape` over `feature_dim`-wide inputs:
    /// the Eq. 3–7 [`SimReport`] and an energy estimate in joules. `None`
    /// without a cost model. A partitioned full-graph pass calls this
    /// once per part and merges with [`SimReport::merge`] (the §IV-C
    /// sub-graph accounting).
    pub(crate) fn charge(
        &self,
        feature_dim: usize,
        shape: RequestShape,
    ) -> Option<(SimReport, f64)> {
        let cost = self.cost.as_ref()?;
        // The workload is priced per *target* node (each already charged
        // its full two-hop sampled aggregation by the per-layer model),
        // not per materialized sub-universe node. The workload reads only
        // the node count and feature width; edges and classes stay 0.
        let spec = DatasetSpec::new("request", shape.target_nodes, 0, feature_dim, 0);
        let workload = GnnWorkload::new(
            self.model.kind(),
            &spec,
            cost.hidden_dim,
            &[shape.fanouts.0, shape.fanouts.1],
        );
        let sim = cost.accel.simulate_workload(&workload, cost.block_size);
        let energy = sim.seconds * cost.power_w;
        Some((sim, energy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockgnn_gnn::{build_model, ModelKind};
    use blockgnn_nn::Compression;

    fn backend(kind: BackendKind, hidden: usize, n: usize) -> Result<Backend, EngineError> {
        let compression = Compression::BlockCirculant { block_size: n };
        let model = build_model(ModelKind::Gcn, 64, hidden, 7, compression, 3).expect("builds");
        Backend::new(kind, model, CirCoreParams::base(), HardwareCoeffs::zc706())
    }

    #[test]
    fn a_forked_accelerator_backend_charges_exactly_what_its_parent_does() {
        let parent = backend(BackendKind::SimulatedAccel, 32, 8).expect("fits");
        let fork = parent.fork();
        let shape = RequestShape { target_nodes: 37, fanouts: (25, 10) };
        let (sim, energy) = parent.charge(64, shape).expect("carries a cost model");
        let (fork_sim, fork_energy) = fork.charge(64, shape).expect("so does its fork");
        assert!(sim.total_cycles > 0);
        assert_eq!(sim, fork_sim);
        assert_eq!(sim.seconds.to_bits(), fork_sim.seconds.to_bits());
        assert_eq!(energy.to_bits(), fork_energy.to_bits());
        // Software backends and their forks model no hardware.
        let spectral = backend(BackendKind::Spectral, 32, 8).expect("builds");
        assert!(spectral.charge(64, shape).is_none());
        assert!(spectral.fork().charge(64, shape).is_none());
    }

    #[test]
    fn only_the_accelerator_refuses_a_model_that_overflows_the_weight_buffer() {
        let mut needed_by_software = Vec::new();
        for kind in [BackendKind::Dense, BackendKind::Spectral] {
            let accepted = backend(kind, 2048, 2).expect("software has no Weight Buffer");
            assert_eq!(accepted.kind(), kind);
            needed_by_software.push(accepted.weight_bytes());
        }
        match backend(BackendKind::SimulatedAccel, 2048, 2).map(|b| b.weight_bytes()) {
            Err(EngineError::Accel(AccelError::WeightBufferOverflow { needed })) => {
                assert_eq!(needed_by_software, [needed, needed]);
                assert!(!GlobalBuffer::zc706().model_fits(needed));
            }
            other => panic!("expected a Weight-Buffer overflow, got {other:?}"),
        }
    }
}

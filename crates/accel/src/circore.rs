//! CirCore: the three-stage block-circulant matvec pipeline (Figure 4).
//!
//! Functional path: the spectral weights are quantized to Q16.16 and
//! "pre-loaded into the PEs" ([`blockgnn_core::FixedSpectralBlockCirculant`]
//! plays the weight-stationary register file); every executed batch runs
//! genuine fixed-point FFT → element-wise MAC → IFFT arithmetic — the
//! shared spectral tile of `blockgnn_core` at `Q16_16`, one call per batch.
//!
//! Cycle path: Eqs. 3–5 via `blockgnn-perf`, evaluated for the unit's
//! configured `{x, y, r, c, l}` parallelism.

use blockgnn_core::{BlockCirculantMatrix, CirculantError, FixedSpectralBlockCirculant};
use blockgnn_perf::coeffs::HardwareCoeffs;
use blockgnn_perf::cycles::{layer_cycles, LayerCycles, LayerTask, MatvecCount};
use blockgnn_perf::params::CirCoreParams;

/// A CirCore instance with loaded weights.
#[derive(Debug, Clone)]
pub struct CirCoreUnit {
    params: CirCoreParams,
    coeffs: HardwareCoeffs,
    weights: FixedSpectralBlockCirculant,
    cycles: u64,
}

impl CirCoreUnit {
    /// Builds a CirCore and pre-loads `weights` into the systolic array
    /// (the weight-stationary dataflow of Figure 5).
    ///
    /// # Errors
    ///
    /// Returns [`CirculantError::BadBlockSize`] if the weight's block
    /// size is not a power of two.
    pub fn new(
        params: CirCoreParams,
        coeffs: HardwareCoeffs,
        weights: &BlockCirculantMatrix,
    ) -> Result<Self, CirculantError> {
        Ok(Self {
            params,
            coeffs,
            weights: FixedSpectralBlockCirculant::new(weights)?,
            cycles: 0,
        })
    }

    /// The configured hardware parameters.
    #[must_use]
    pub fn params(&self) -> &CirCoreParams {
        &self.params
    }

    /// Circulant block size `n` of the loaded weights.
    #[must_use]
    pub fn block_size(&self) -> usize {
        self.weights.kernel().block_size()
    }

    /// Total cycles charged so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Resets the cycle counter.
    pub fn reset_cycles(&mut self) {
        self.cycles = 0;
    }

    /// Stage-by-stage cycle estimate for a batch of `count` vectors
    /// through the loaded weight (Eqs. 3–5; the batch streams through the
    /// pipeline, so the charge is the bottleneck stage).
    #[must_use]
    pub fn batch_cycles(&self, count: usize) -> LayerCycles {
        let task = LayerTask {
            matvecs: vec![MatvecCount {
                count_per_node: count as f64,
                out_dim: self.weights.kernel().out_dim(),
                in_dim: self.weights.kernel().in_dim(),
            }],
            vpu_macs_per_node: 0.0,
        };
        layer_cycles(&task, &self.params, self.block_size(), &self.coeffs)
    }

    /// Executes one matvec through the fixed-point datapath, charging the
    /// pipeline-bottleneck cycles for a single vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the weight's input dimension.
    pub fn execute(&mut self, x: &[f64]) -> Vec<f64> {
        self.cycles += self.batch_cycles(1).bottleneck();
        self.weights.matvec(x)
    }

    /// Executes a batch, charging pipelined cycles (bottleneck-stage
    /// throughput rather than per-vector latency).
    ///
    /// # Panics
    ///
    /// Panics if any row length differs from the weight's input dimension.
    pub fn execute_batch(&mut self, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let kernel = self.weights.kernel();
        assert!(
            xs.iter().all(|x| x.len() == kernel.in_dim()),
            "input length must equal in_dim"
        );
        let out_dim = kernel.out_dim();
        self.cycles += self.batch_cycles(xs.len()).bottleneck();
        let out = self.weights.matmul(&xs.concat());
        out.chunks_exact(out_dim).map(<[f64]>::to_vec).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockgnn_core::reference::SpectralBlockCirculant;
    use blockgnn_linalg::vector::linf_distance;

    fn unit(rows: usize, cols: usize, n: usize) -> (CirCoreUnit, BlockCirculantMatrix) {
        let w = BlockCirculantMatrix::random(rows, cols, n, 77).unwrap();
        let u = CirCoreUnit::new(CirCoreParams::base(), HardwareCoeffs::zc706(), &w).unwrap();
        (u, w)
    }

    #[test]
    fn functional_output_tracks_float_reference() {
        let (mut unit, w) = unit(32, 24, 8);
        let x: Vec<f64> = (0..24).map(|i| ((i as f64) * 0.21).sin()).collect();
        let hw = unit.execute(&x);
        let sw = SpectralBlockCirculant::new(&w).unwrap().matvec(&x);
        assert!(linf_distance(&hw, &sw) < 2e-2, "hardware vs software divergence");
    }

    #[test]
    fn pipelining_makes_batches_cheaper_than_singles() {
        let (mut a, _) = unit(64, 64, 16);
        let (mut b, _) = unit(64, 64, 16);
        let xs: Vec<Vec<f64>> =
            (0..10).map(|k| (0..64).map(|i| ((i + k) as f64 * 0.1).cos()).collect()).collect();
        let _ = a.execute_batch(&xs);
        for x in &xs {
            let _ = b.execute(x);
        }
        assert!(
            a.cycles() < b.cycles(),
            "batched {} should beat serial {}",
            a.cycles(),
            b.cycles()
        );
    }

    #[test]
    fn batch_cycles_match_perf_equations() {
        let (unit, _) = unit(512, 512, 128);
        let cy = unit.batch_cycles(25);
        // q = p = 4, S = 25, x = y = 16, r = c = 4, l = 1:
        assert_eq!(cy.fft, 484 * 7); // ceil(100/16) = 7
        assert_eq!(cy.mac, 25 * 128); // 1*1*128 per vector
        assert_eq!(cy.ifft, 484 * 7);
        assert_eq!(cy.bottleneck(), 484 * 7);
    }

    #[test]
    fn rejects_non_power_of_two_blocks() {
        let w = BlockCirculantMatrix::random(9, 9, 3, 0).unwrap();
        assert!(CirCoreUnit::new(CirCoreParams::base(), HardwareCoeffs::zc706(), &w).is_err());
    }

    #[test]
    fn cycle_counter_accumulates_and_resets() {
        let (mut unit, _) = unit(16, 16, 8);
        let x = vec![0.1; 16];
        let _ = unit.execute(&x);
        let after_one = unit.cycles();
        assert!(after_one > 0);
        let _ = unit.execute(&x);
        assert_eq!(unit.cycles(), 2 * after_one);
        unit.reset_cycles();
        assert_eq!(unit.cycles(), 0);
    }
}

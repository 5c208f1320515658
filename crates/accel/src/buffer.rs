//! The Global Buffer (Weight Buffer + Node-Feature Buffer) and the DRAM
//! channel behind it (§III-C, Figure 3).
//!
//! BlockGNN deliberately avoids HyGCN-style eDRAM caching: "for running
//! heavy GNNs on resource-limited edge platforms, computation is the
//! primary bottleneck. Therefore, we just leverage node prefetching to
//! fully utilize the memory bandwidth." The model here reflects that:
//! the NFB is a ping-pong pair, loads overlap compute, and a layer's
//! memory time only surfaces when it exceeds its compute time.

use blockgnn_perf::resources::WEIGHT_BUFFER_BYTES;

/// The Global Buffer's Weight Buffer capacity: whether a compressed
/// model deploys at all. The NFB's effect — streamed features — is
/// priced by [`DramModel`].
#[derive(Debug, Clone)]
pub struct GlobalBuffer {
    wb_capacity: usize,
}

impl GlobalBuffer {
    /// The prototype's 256 KB Weight Buffer.
    #[must_use]
    pub fn zc706() -> Self {
        Self { wb_capacity: WEIGHT_BUFFER_BYTES }
    }

    /// Whether a compressed model of `spectral_weight_bytes` fits the WB —
    /// the §IV-B claim "the WB is set to 256KB, which is large enough to
    /// store the compressed GNN model".
    #[must_use]
    pub fn model_fits(&self, spectral_weight_bytes: usize) -> bool {
        spectral_weight_bytes <= self.wb_capacity
    }
}

/// A flat-bandwidth DRAM channel (the ZC706's DDR3 on the PS side).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramModel {
    /// Sustained bandwidth in bytes per second.
    pub bandwidth_bytes_per_s: f64,
    /// Accelerator clock, to convert transfer time into cycles.
    pub clock_hz: f64,
}

impl DramModel {
    /// ZC706 defaults: 12.8 GB/s DDR3, 100 MHz fabric clock.
    #[must_use]
    pub fn zc706() -> Self {
        Self { bandwidth_bytes_per_s: 12.8e9, clock_hz: 100.0e6 }
    }

    /// Cycles to move `bytes` at sustained bandwidth.
    #[must_use]
    pub fn transfer_cycles(&self, bytes: f64) -> u64 {
        // The epsilon guards against 500.000000001-style float slop
        // turning an exact multiple into an extra cycle.
        (bytes / self.bandwidth_bytes_per_s * self.clock_hz - 1e-9).ceil().max(0.0) as u64
    }

    /// Effective cycles of a layer whose loads are prefetched behind
    /// compute: memory only shows when it exceeds compute.
    #[must_use]
    pub fn overlapped_cycles(&self, compute_cycles: u64, bytes: f64) -> u64 {
        compute_cycles.max(self.transfer_cycles(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zc706_capacities() {
        let buf = GlobalBuffer::zc706();
        assert!(buf.model_fits(256 * 1024));
        assert!(!buf.model_fits(256 * 1024 + 1));
    }

    #[test]
    fn compressed_512x512_layers_fit_wb_but_dense_do_not() {
        // Two 512×512 layers at n=128, complex spectra, 4-byte fixed
        // point per component: p·q·n complex values = 16·128 = 2048 per
        // layer → 2048·8 B = 16 KB per layer; dense = 512·512·4 = 1 MB.
        let buf = GlobalBuffer::zc706();
        let compressed_bytes = 2 * 16 * 128 * 8;
        let dense_bytes = 2 * 512 * 512 * 4;
        assert!(buf.model_fits(compressed_bytes));
        assert!(!buf.model_fits(dense_bytes));
    }

    #[test]
    fn dram_transfer_cycles() {
        let dram = DramModel::zc706();
        // 12.8 GB/s at 100 MHz = 128 bytes per cycle.
        assert_eq!(dram.transfer_cycles(128.0), 1);
        assert_eq!(dram.transfer_cycles(12_800.0), 100);
    }

    #[test]
    fn prefetch_hides_memory_behind_compute() {
        let dram = DramModel::zc706();
        assert_eq!(dram.overlapped_cycles(1_000, 128.0 * 500.0), 1_000);
        assert_eq!(dram.overlapped_cycles(100, 128.0 * 500.0), 500);
    }
}

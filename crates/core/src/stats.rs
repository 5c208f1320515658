//! Compression accounting — the SR and TCR columns of Table III.
//!
//! The paper reports two headline ratios for block size `n`:
//!
//! * **Storage Reduction (SR)** `= n`: each `n × n` block stores one row
//!   (`n` values) instead of `n²`.
//! * **Theoretical Computation Reduction (TCR)** `= n / log₂ n`: an
//!   O(n²) block product becomes O(n log n) FFT work. The paper's Table
//!   III values (4.0× at n=16, 6.4× at 32, 10.7× at 64, 18.3× at 128) are
//!   exactly `n / log₂ n`.
//!
//! [`CompressionStats`] also provides exact operation counts (not just
//! asymptotic ratios) used by the profiler and the CPU baseline model.

/// Storage/computation accounting for one block-circulant weight matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionStats {
    /// Logical output dimension `N`.
    pub out_dim: usize,
    /// Logical input dimension `M`.
    pub in_dim: usize,
    /// Block size `n`.
    pub block_size: usize,
    /// Grid rows `p = ⌈N/n⌉`.
    pub grid_rows: usize,
    /// Grid cols `q = ⌈M/n⌉`.
    pub grid_cols: usize,
}

impl CompressionStats {
    /// Builds the stats for an `N × M` matrix with block size `n`.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    #[must_use]
    pub fn for_matrix(out_dim: usize, in_dim: usize, block_size: usize) -> Self {
        assert!(
            out_dim > 0 && in_dim > 0 && block_size > 0,
            "compression stats need non-zero dimensions"
        );
        Self {
            out_dim,
            in_dim,
            block_size,
            grid_rows: out_dim.div_ceil(block_size),
            grid_cols: in_dim.div_ceil(block_size),
        }
    }

    /// The paper's Storage Reduction column: `SR = n`.
    #[must_use]
    pub fn storage_reduction(&self) -> f64 {
        self.block_size as f64
    }

    /// The paper's Theoretical Computation Reduction column:
    /// `TCR = n / log₂ n` (defined as 1.0 for the uncompressed `n = 1`).
    #[must_use]
    pub fn theoretical_computation_reduction(&self) -> f64 {
        if self.block_size <= 1 {
            1.0
        } else {
            self.block_size as f64 / (self.block_size as f64).log2()
        }
    }

    /// Parameters of the dense matrix: `N·M`.
    #[must_use]
    pub fn dense_params(&self) -> usize {
        self.out_dim * self.in_dim
    }

    /// Parameters actually stored: `p·q·n` kernel entries.
    #[must_use]
    pub fn compressed_params(&self) -> usize {
        self.grid_rows * self.grid_cols * self.block_size
    }

    /// Measured storage ratio `dense / compressed` (equals `n` when both
    /// dimensions divide evenly; slightly less with padding).
    #[must_use]
    pub fn measured_storage_ratio(&self) -> f64 {
        self.dense_params() as f64 / self.compressed_params() as f64
    }

    /// Real multiply–add count of the dense product: `N·M` MACs.
    #[must_use]
    pub fn dense_macs(&self) -> usize {
        self.out_dim * self.in_dim
    }

    /// Real-operation estimate of Algorithm 1 per input vector, counting:
    /// `q` forward FFTs + `p·q` complex element-wise MAC passes (4 real
    /// multiplies + 4 real adds per complex MAC) + `p` inverse FFTs, each
    /// FFT costing `5·n·log₂n` real ops (the standard radix-2 flop count).
    #[must_use]
    pub fn spectral_ops(&self) -> usize {
        let n = self.block_size;
        if n == 1 {
            return self.dense_macs();
        }
        let logn = (n as f64).log2() as usize;
        let fft_cost = 5 * n * logn;
        let mac_cost = 8 * n;
        self.grid_cols * fft_cost
            + self.grid_rows * self.grid_cols * mac_cost
            + self.grid_rows * fft_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_tcr_column_is_reproduced() {
        // Paper Table III: n -> TCR
        let expect = [(16usize, 4.0f64), (32, 6.4), (64, 10.7), (128, 18.3)];
        for (n, tcr) in expect {
            let s = CompressionStats::for_matrix(512, 512, n);
            let got = s.theoretical_computation_reduction();
            assert!(
                (got - tcr).abs() < 0.05,
                "TCR at n={n}: computed {got:.2}, paper says {tcr}"
            );
        }
    }

    #[test]
    fn table3_sr_column_is_reproduced() {
        for n in [1usize, 16, 32, 64, 128] {
            let s = CompressionStats::for_matrix(512, 512, n);
            assert_eq!(s.storage_reduction(), n as f64);
            if 512 % n == 0 {
                assert_eq!(s.measured_storage_ratio(), n as f64);
            }
        }
    }

    #[test]
    fn uncompressed_baseline_is_neutral() {
        let s = CompressionStats::for_matrix(512, 512, 1);
        assert_eq!(s.theoretical_computation_reduction(), 1.0);
        assert_eq!(s.storage_reduction(), 1.0);
        assert_eq!(s.compressed_params(), s.dense_params());
    }

    #[test]
    fn padding_reduces_measured_ratio() {
        // 100x100 with n=64 pads to 128x128: measured < theoretical.
        let s = CompressionStats::for_matrix(100, 100, 64);
        assert_eq!(s.grid_rows, 2);
        assert_eq!(s.grid_cols, 2);
        assert!(s.measured_storage_ratio() < 64.0);
        assert!(s.measured_storage_ratio() > 30.0);
    }

    #[test]
    fn spectral_ops_beat_dense_for_paper_shapes() {
        // At the paper's layer shape (512x512) every block size wins.
        for n in [16usize, 32, 64, 128] {
            let s = CompressionStats::for_matrix(512, 512, n);
            assert!(s.spectral_ops() < 2 * s.dense_macs(), "spectral should win at n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        let _ = CompressionStats::for_matrix(0, 4, 2);
    }
}

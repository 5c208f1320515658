//! Table VI — FPGA resource utilization for the GS-Pool configurations.

use crate::table5;
use blockgnn_graph::datasets::table4_specs;
use blockgnn_perf::coeffs::HardwareCoeffs;
use blockgnn_perf::resources::{FpgaCapacity, ResourceEstimate};

/// Paper's published Table VI utilization rows:
/// `(dataset, BRAM%, DSP%, FF%, LUT%)`.
pub const PAPER_TABLE6: [(&str, f64, f64, f64, f64); 4] = [
    ("CR", 39.3, 99.8, 27.7, 34.6),
    ("CS", 41.8, 99.8, 35.3, 44.8),
    ("PB", 42.2, 93.6, 36.1, 32.2),
    ("RD", 42.9, 98.7, 39.1, 45.3),
];

/// One utilization row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table6Row {
    /// Dataset name.
    pub dataset: String,
    /// Absolute resources.
    pub estimate: ResourceEstimate,
    /// Utilization `(bram, dsp, ff, lut)` fractions.
    pub utilization: (f64, f64, f64, f64),
}

/// Estimates resources for the Table V searched configurations.
#[must_use]
pub fn run() -> Vec<Table6Row> {
    let coeffs = HardwareCoeffs::zc706();
    let cap = FpgaCapacity::zc706();
    let specs = table4_specs();
    table5::run()
        .into_iter()
        .zip(specs)
        .map(|(row, spec)| {
            let estimate = ResourceEstimate::for_config(
                &row.result.params,
                128,
                spec.feature_dim,
                &coeffs,
            );
            let utilization = estimate.utilization(&cap);
            Table6Row { dataset: row.dataset, estimate, utilization }
        })
        .collect()
}

/// Renders utilization next to the paper's.
#[must_use]
pub fn render(rows: &[Table6Row]) -> String {
    let mut out = String::from("=== Table VI: FPGA resource utilization (GS-Pool) ===\n\n");
    out.push_str("Total: BRAM18K 1090 | DSP48 900 | FF 437200 | LUT 218600\n\n");
    out.push_str(
        "Dataset        |  BRAM  |  DSP   |   FF   |  LUT   | (paper: BRAM/DSP/FF/LUT)\n",
    );
    out.push_str(
        "---------------+--------+--------+--------+--------+--------------------------\n",
    );
    for (row, paper) in rows.iter().zip(PAPER_TABLE6) {
        let (b, d, f, l) = row.utilization;
        out.push_str(&format!(
            "{:<14} | {:>5.1}% | {:>5.1}% | {:>5.1}% | {:>5.1}% | {:.1}/{:.1}/{:.1}/{:.1}\n",
            row.dataset,
            b * 100.0,
            d * 100.0,
            f * 100.0,
            l * 100.0,
            paper.1,
            paper.2,
            paper.3,
            paper.4
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_configs_fit_and_saturate_dsps() {
        let cap = FpgaCapacity::zc706();
        for row in run() {
            assert!(row.estimate.fits(&cap), "{} overflows the chip", row.dataset);
            let (_, dsp, _, _) = row.utilization;
            assert!(
                dsp > 0.90,
                "{}: searched configs should saturate DSPs, got {dsp:.2}",
                row.dataset
            );
        }
    }

    #[test]
    fn utilization_bands_match_paper() {
        for row in run() {
            let (bram, _, ff, lut) = row.utilization;
            assert!((0.30..0.55).contains(&bram), "{}: BRAM {bram}", row.dataset);
            assert!((0.20..0.50).contains(&ff), "{}: FF {ff}", row.dataset);
            assert!((0.25..0.55).contains(&lut), "{}: LUT {lut}", row.dataset);
        }
    }

    #[test]
    fn render_includes_totals() {
        let text = render(&run());
        assert!(text.contains("1090"));
        assert!(text.contains("paper"));
    }
}

//! Figure 7 — energy-efficiency comparison (Nodes/J, log scale):
//! BlockGNN-opt (≈4.6 W) versus the Xeon CPU (≈125 W).

use crate::fig6::{self, Fig6Entry};
use blockgnn_accel::energy::Measurement;
use blockgnn_accel::CpuModel;
use blockgnn_perf::coeffs::HardwareCoeffs;

/// One bar pair of Figure 7.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Entry {
    /// GNN algorithm name.
    pub model: String,
    /// Dataset name.
    pub dataset: String,
    /// BlockGNN-opt measurement.
    pub accel: Measurement,
    /// CPU measurement.
    pub cpu: Measurement,
}

impl Fig7Entry {
    /// Energy saving factor (paper: 33.9×–111.9×, average 68.9×).
    #[must_use]
    pub fn energy_ratio(&self) -> f64 {
        self.accel.efficiency_ratio_over(&self.cpu)
    }
}

/// Derives Figure 7 from the Figure 6 timing sweep.
#[must_use]
pub fn run() -> Vec<Fig7Entry> {
    from_entries(&fig6::run())
}

/// Converts timing entries into energy entries.
#[must_use]
pub fn from_entries(entries: &[Fig6Entry]) -> Vec<Fig7Entry> {
    let accel_power = HardwareCoeffs::zc706().accel_power_w;
    let cpu_power = CpuModel::xeon_gold_5220().power_w;
    entries
        .iter()
        .map(|e| Fig7Entry {
            model: e.model.name().to_string(),
            dataset: e.dataset.clone(),
            accel: Measurement {
                seconds: e.opt_seconds,
                power_w: accel_power,
                num_nodes: e.num_nodes,
            },
            cpu: Measurement {
                seconds: e.cpu_seconds,
                power_w: cpu_power,
                num_nodes: e.num_nodes,
            },
        })
        .collect()
}

/// Renders the Nodes/J table.
#[must_use]
pub fn render(entries: &[Fig7Entry]) -> String {
    let mut out =
        String::from("=== Figure 7: energy efficiency, Nodes/J (log-scale bars) ===\n\n");
    out.push_str("Model    Dataset        | BlockGNN-opt | CPU       | saving\n");
    out.push_str("-------- ---------------+--------------+-----------+-------\n");
    for e in entries {
        out.push_str(&format!(
            "{:<8} {:<14} | {:>12.1} | {:>9.2} | {:>5.1}x\n",
            e.model,
            e.dataset,
            e.accel.nodes_per_joule(),
            e.cpu.nodes_per_joule(),
            e.energy_ratio()
        ));
    }
    let ratios: Vec<f64> = entries.iter().map(Fig7Entry::energy_ratio).collect();
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let (min, max) =
        ratios.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &r| (lo.min(r), hi.max(r)));
    out.push_str(&format!(
        "\nEnergy saving over CPU: {min:.1}x – {max:.1}x, average {avg:.1}x \
         (paper: 33.9x – 111.9x, average 68.9x).\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_savings_land_in_paper_band() {
        let entries = run();
        let ratios: Vec<f64> = entries.iter().map(Fig7Entry::energy_ratio).collect();
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
        // Paper band: 33.9–111.9, average 68.9. Keep a generous envelope
        // around it — the absolute CPU seconds come from a roofline.
        assert!(
            (25.0..160.0).contains(&avg),
            "average energy saving {avg:.1} outside plausible band"
        );
        for (e, r) in entries.iter().zip(&ratios) {
            assert!(*r > 10.0, "{} {}: saving {r:.1} implausibly low", e.model, e.dataset);
        }
    }

    #[test]
    fn accelerator_always_wins_energy() {
        for e in run() {
            assert!(e.accel.nodes_per_joule() > e.cpu.nodes_per_joule());
        }
    }

    #[test]
    fn render_reports_band() {
        let text = render(&run());
        assert!(text.contains("average"));
        assert!(text.contains("paper"));
    }
}

//! Table V — DSE-searched optimal hardware parameters for GS-Pool.
//!
//! The paper's representative search: the GS-Pool model (K = 2, hidden
//! 512, S = 25/10, n = 128) on each dataset, objective = Eq. 7 over the
//! aggregation phase (which dominates GS-Pool per Table II), constraint =
//! Eq. 8 with 900 DSPs.

use blockgnn_graph::datasets::table4_specs;
use blockgnn_perf::coeffs::HardwareCoeffs;
use blockgnn_perf::cycles::gs_pool_aggregation_task;
use blockgnn_perf::dse::{search_optimal, DseResult};

/// Paper's published Table V rows: `(dataset, x, y, r, c, l, m, Mcycles)`.
#[allow(clippy::type_complexity)]
pub const PAPER_TABLE5: [(&str, usize, usize, usize, usize, usize, usize, f64); 4] = [
    ("CR", 18, 7, 6, 4, 1, 1, 24.9),
    ("CS", 21, 4, 6, 4, 1, 1, 64.4),
    ("PB", 14, 15, 4, 4, 1, 1, 95.4),
    ("RD", 15, 13, 5, 4, 1, 1, 1240.3),
];

/// One searched row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5Row {
    /// Dataset name.
    pub dataset: String,
    /// Search outcome.
    pub result: DseResult,
}

/// Runs the search on all four datasets (GS-Pool, n = 128).
#[must_use]
pub fn run() -> Vec<Table5Row> {
    let coeffs = HardwareCoeffs::zc706();
    table4_specs()
        .into_iter()
        .map(|spec| {
            let tasks = vec![
                gs_pool_aggregation_task(25, 512, spec.feature_dim),
                gs_pool_aggregation_task(10, 512, 512),
            ];
            let result = search_optimal(&tasks, spec.num_nodes, 128, &coeffs);
            Table5Row { dataset: spec.name, result }
        })
        .collect()
}

/// Renders searched rows next to the paper's.
#[must_use]
pub fn render(rows: &[Table5Row]) -> String {
    let mut out =
        String::from("=== Table V: searched optimal parameters for GS-Pool (n=128) ===\n\n");
    out.push_str(
        "Dataset        | searched configuration        | Mcycles | paper config (Mcycles)\n",
    );
    out.push_str(
        "---------------+-------------------------------+---------+-----------------------\n",
    );
    for (row, paper) in rows.iter().zip(PAPER_TABLE5) {
        out.push_str(&format!(
            "{:<14} | {:<29} | {:>7.1} | x={} y={} r={} c={} l={} m={} ({:.1})\n",
            row.dataset,
            row.result.params.to_string(),
            row.result.cycles as f64 / 1.0e6,
            paper.1,
            paper.2,
            paper.3,
            paper.4,
            paper.5,
            paper.6,
            paper.7,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockgnn_perf::cycles::total_cycles;
    use blockgnn_perf::params::CirCoreParams;

    #[test]
    fn searched_cycles_land_in_paper_band() {
        // Same order of magnitude per dataset, same RD >> PB > CS > CR
        // ordering the paper shows.
        let rows = run();
        let mcycles: Vec<f64> = rows.iter().map(|r| r.result.cycles as f64 / 1e6).collect();
        for (m, paper) in mcycles.iter().zip(PAPER_TABLE5) {
            let ratio = m / paper.7;
            assert!(
                (0.3..3.0).contains(&ratio),
                "{}: {m:.1} Mcycles vs paper {:.1}",
                paper.0,
                paper.7
            );
        }
        assert!(mcycles[3] > mcycles[2] && mcycles[2] > mcycles[1] && mcycles[1] > mcycles[0]);
    }

    #[test]
    fn searched_configs_beat_paper_configs_under_our_model() {
        let coeffs = HardwareCoeffs::zc706();
        let rows = run();
        for (row, paper) in rows.iter().zip(PAPER_TABLE5) {
            let spec = blockgnn_graph::datasets::table4_specs()
                .into_iter()
                .find(|s| s.name == row.dataset)
                .unwrap();
            let tasks = vec![
                gs_pool_aggregation_task(25, 512, spec.feature_dim),
                gs_pool_aggregation_task(10, 512, 512),
            ];
            let paper_params = CirCoreParams {
                x: paper.1,
                y: paper.2,
                r: paper.3,
                c: paper.4,
                l: paper.5,
                m: paper.6,
            };
            let paper_cycles =
                total_cycles(&tasks, spec.num_nodes, &paper_params, 128, &coeffs);
            assert!(
                row.result.cycles <= paper_cycles,
                "{}: search found {} but paper config gives {paper_cycles}",
                row.dataset,
                row.result.cycles
            );
        }
    }

    #[test]
    fn render_shows_both_configurations() {
        let text = render(&run());
        assert!(text.contains("x="));
        assert!(text.contains("paper config"));
        assert!(text.contains("reddit-like"));
    }
}

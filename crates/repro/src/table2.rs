//! Table II — GNN profiling on Reddit (total computations and arithmetic
//! intensity per phase).

use blockgnn_gnn::profile::{render_table2, table2_profile, ProfileConfig, ProfileRow};

/// The paper's published Table II values, for side-by-side reporting:
/// `(model, agg_ops, comb_ops, agg_intensity, comb_intensity)`.
pub const PAPER_TABLE2: [(&str, f64, f64, f64, f64); 4] = [
    ("GCN", 3.7e9, 7.5e10, 0.5, 256.3),
    ("GS-Pool", 1.9e12, 1.5e11, 257.5, 512.2),
    ("G-GCN", 3.7e12, 7.5e10, 256.0, 256.3),
    ("GAT", 1.9e12, 7.5e10, 512.8, 256.3),
];

/// Runs the profiler with the paper's configuration.
#[must_use]
pub fn run() -> Vec<ProfileRow> {
    table2_profile(&ProfileConfig::default())
}

/// Renders measured rows next to the paper's published values.
#[must_use]
pub fn render(rows: &[ProfileRow]) -> String {
    let mut out =
        String::from("=== Table II: GNN profiling (Reddit, S=25, hidden 512) ===\n\n");
    out.push_str(&render_table2(rows));
    out.push_str("\nPaper-reported values for comparison:\n");
    for (name, agg, comb, agg_i, comb_i) in PAPER_TABLE2 {
        out.push_str(&format!(
            "{name:<9} | {agg:>10.1e} | {comb:>10.1e} | {agg_i:>9.1} | {comb_i:>10.1}\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_track_paper_within_tolerance() {
        let rows = run();
        for (row, (name, agg, comb, _, _)) in rows.iter().zip(PAPER_TABLE2) {
            assert_eq!(row.model.name(), name);
            assert!(
                (row.agg_ops / agg - 1.0).abs() < 0.25,
                "{name} aggregation {:.2e} vs paper {agg:.1e}",
                row.agg_ops
            );
            assert!(
                (row.comb_ops / comb - 1.0).abs() < 0.25,
                "{name} combination {:.2e} vs paper {comb:.1e}",
                row.comb_ops
            );
        }
    }

    #[test]
    fn render_mentions_paper_comparison() {
        let text = render(&run());
        assert!(text.contains("Paper-reported"));
        assert!(text.contains("GS-Pool"));
    }
}

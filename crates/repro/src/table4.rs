//! Table IV — benchmark dataset statistics.

use blockgnn_graph::datasets::table4_specs;
use blockgnn_graph::DatasetSpec;

/// The four dataset specs in paper order.
#[must_use]
pub fn run() -> Vec<DatasetSpec> {
    table4_specs()
}

/// Renders the specs as the paper's table.
#[must_use]
pub fn render(specs: &[DatasetSpec]) -> String {
    let mut out = String::from("=== Table IV: graph datasets ===\n\n");
    out.push_str("Graph          | #Nodes  | #Edges     | #Features | #Labels\n");
    out.push_str("---------------+---------+------------+-----------+--------\n");
    for s in specs {
        out.push_str(&format!(
            "{:<14} | {:>7} | {:>10} | {:>9} | {:>7}\n",
            s.name, s.num_nodes, s.num_edges, s.feature_dim, s.num_classes
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_reddit_row() {
        let text = render(&run());
        assert!(text.contains("reddit-like"));
        assert!(text.contains("11606919"));
        assert!(text.contains("232965"));
    }
}

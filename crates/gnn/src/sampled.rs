//! Sampling-based mini-batch inference — the execution mode the
//! accelerator actually runs.
//!
//! The paper "adopts the sampling-based aggregation strategy \[2\] for all
//! algorithms" (§II-B) with fan-outs `S₁ = 25, S₂ = 10` (§IV-A): instead
//! of aggregating full neighborhoods, each layer draws a fixed number of
//! neighbors per node. We realize this by materializing the *sampled
//! computation graph* — a sub-universe containing the batch, its sampled
//! 1-hop frontier, and the frontier's sampled 2-hop frontier, wired with
//! exactly the sampled edges — and running the unmodified models on it
//! at the batch rows ([`GnnModel::forward_at_indexed`]): the last stage
//! at the targets, each earlier stage only at the rows a later one reads
//! (for layer 1, the targets and their sampled neighbours), and stage 0
//! reading the graph's own feature matrix through the sub-universe's
//! local→global ids, as the accelerator streams a node's features into
//! its Node-Feature Buffer by address. [`crate::batch::UniverseBuilder`]
//! does the sampling; a request is one block of a universe.

use crate::batch::{SampledBlock, UniverseBuilder};
use crate::models::GnnModel;
use blockgnn_graph::CsrGraph;
use blockgnn_linalg::Matrix;

/// The materialized sampled computation graph for one mini-batch, built
/// as a one-block universe by a fresh [`UniverseBuilder`]. Serving
/// samples through a replica's reused builder instead; this owned form
/// stays as the reference [`crate::batch::MergedUniverse`] merges in
/// tests, and for the stack benchmark's ladder, which times it.
#[derive(Debug, Clone)]
pub struct SampledSubgraph {
    /// The sampled adjacency over renumbered local ids.
    pub graph: CsrGraph,
    /// `local_to_global[i]` = original node id of local node `i`.
    pub local_to_global: Vec<u32>,
    /// Number of **unique** batch nodes; they form the prefix of the
    /// local numbering (duplicate batch entries collapse to one local
    /// node — map request positions back with
    /// [`SampledSubgraph::local_of`]).
    pub batch_len: usize,
}

impl SampledSubgraph {
    /// Builds the two-hop sampled sub-universe for `batch` with fan-outs
    /// `s1`, `s2` (sampling with replacement; duplicate draws collapse
    /// into parallel edges, preserving GraphSAGE's weighting): one block
    /// of [`UniverseBuilder::build`].
    ///
    /// # Panics
    ///
    /// Panics if a batch node is out of range.
    #[must_use]
    pub fn build(graph: &CsrGraph, batch: &[usize], s1: usize, s2: usize, seed: u64) -> Self {
        let mut builder = UniverseBuilder::default();
        let block = SampledBlock { nodes: batch, s1, s2, seed };
        let batch_len = builder.build(graph, [block]).unique_targets.iter().sum();
        let (graph, local_to_global) = builder.into_universe();
        Self { graph, local_to_global, batch_len }
    }

    /// Local row of global node `global`, if it was interned into the
    /// sub-universe (batch nodes always are). A linear scan of
    /// `local_to_global`: this form is for tests and the ladder.
    #[must_use]
    pub fn local_of(&self, global: usize) -> Option<usize> {
        self.local_to_global.iter().position(|&g| g as usize == global)
    }

    /// Gathers the sub-universe's feature rows from the global matrix
    /// (one row memcpy per interned node).
    ///
    /// # Panics
    ///
    /// Panics if `features` has fewer rows than the global graph.
    #[must_use]
    pub fn gather_features(&self, features: &Matrix) -> Matrix {
        features.gather_rows(self.local_to_global.iter().map(|&g| g as usize))
    }
}

/// Runs sampled two-hop inference for `batch`, returning one logits row
/// per batch entry, in batch order (duplicate entries get identical
/// rows). Stage 0 reads `features` in place through the sub-universe's
/// local→global ids.
///
/// # Panics
///
/// Panics if a batch node is out of range or feature rows mismatch the
/// graph.
#[must_use]
pub fn sampled_forward(
    model: &mut dyn GnnModel,
    graph: &CsrGraph,
    features: &Matrix,
    batch: &[usize],
    s1: usize,
    s2: usize,
    seed: u64,
) -> Matrix {
    let mut builder = UniverseBuilder::default();
    let universe = builder.build(graph, [SampledBlock { nodes: batch, s1, s2, seed }]);
    model.forward_at_indexed(
        universe.graph,
        features,
        Some(universe.local_to_global),
        universe.rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{build_model, ModelKind};
    use crate::train::{train_node_classifier, TrainConfig};
    use blockgnn_graph::{Dataset, DatasetSpec};
    use blockgnn_nn::loss::accuracy;
    use blockgnn_nn::Compression;

    fn task() -> Dataset {
        let spec = DatasetSpec::new("sampled-test", 300, 1_800, 24, 3);
        Dataset::synthesize(&spec, 0.8, 2.0, 55)
    }

    #[test]
    fn subgraph_contains_batch_as_prefix() {
        let ds = task();
        let batch = vec![5, 17, 200];
        let sub = SampledSubgraph::build(&ds.graph, &batch, 4, 3, 1);
        assert_eq!(sub.batch_len, 3);
        assert_eq!(&sub.local_to_global[..3], &[5, 17, 200]);
        // Universe covers at most batch + s1*batch + s2*s1*batch nodes.
        assert!(sub.local_to_global.len() <= 3 + 12 + 36);
        // Every batch node got its s1 sampled arcs (with replacement, so
        // parallel arcs count individually) plus hop-2 reverse arcs.
        assert!(sub.graph.degree(0) >= 4);
    }

    #[test]
    fn duplicate_batch_nodes_share_one_row_and_stay_aligned() {
        let ds = task();
        let mut model =
            build_model(ModelKind::Gcn, ds.feature_dim(), 8, 3, Compression::Dense, 2).unwrap();
        let sub = SampledSubgraph::build(&ds.graph, &[7, 7, 12, 7], 4, 3, 1);
        // Duplicates collapse: the unique prefix is [7, 12].
        assert_eq!(sub.batch_len, 2);
        assert_eq!(&sub.local_to_global[..2], &[7, 12]);
        assert_eq!(sub.local_of(7), Some(0));
        assert_eq!(sub.local_of(12), Some(1));
        assert_eq!(sub.local_of(usize::MAX), None);
        // sampled_forward still returns one row per batch position…
        let out =
            sampled_forward(model.as_mut(), &ds.graph, &ds.features, &[7, 7, 12, 7], 4, 3, 1);
        assert_eq!(out.rows(), 4);
        // …with every duplicate position carrying node 7's row.
        let unique =
            sampled_forward(model.as_mut(), &ds.graph, &ds.features, &[7, 12], 4, 3, 1);
        for (pos, want) in [(0, 0), (1, 0), (2, 1), (3, 0)] {
            assert_eq!(out.row(pos), unique.row(want), "position {pos} misaligned");
        }
    }

    #[test]
    fn gather_preserves_feature_rows() {
        let ds = task();
        let sub = SampledSubgraph::build(&ds.graph, &[0, 1], 3, 2, 9);
        let local = sub.gather_features(&ds.features);
        for (i, &g) in sub.local_to_global.iter().enumerate() {
            assert_eq!(local.row(i), ds.features.row(g as usize));
        }
    }

    #[test]
    fn sampled_predictions_track_full_batch() {
        // A trained model's sampled predictions must agree with its
        // full-neighborhood predictions on most nodes (sampling noise
        // only) — the premise under which the paper evaluates latency on
        // sampled workloads while reporting full-graph accuracy.
        let ds = task();
        let mut model = build_model(
            ModelKind::GsPool,
            ds.feature_dim(),
            16,
            ds.num_classes,
            Compression::BlockCirculant { block_size: 8 },
            3,
        )
        .unwrap();
        let report = train_node_classifier(
            model.as_mut(),
            &ds,
            &TrainConfig { epochs: 50, lr: 0.02, patience: 0 },
        );
        assert!(report.test_accuracy > 0.6, "model must learn first");

        let batch: Vec<usize> = ds.masks.test.iter().copied().take(60).collect();
        let sampled =
            sampled_forward(model.as_mut(), &ds.graph, &ds.features, &batch, 25, 10, 7);
        assert_eq!(sampled.rows(), batch.len());
        let labels: Vec<usize> = batch.iter().map(|&v| ds.labels[v]).collect();
        let idx: Vec<usize> = (0..batch.len()).collect();
        let sampled_acc = accuracy(&sampled, &labels, &idx);
        assert!(
            sampled_acc > report.test_accuracy - 0.2,
            "sampled accuracy {sampled_acc} collapsed vs full-batch {}",
            report.test_accuracy
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let ds = task();
        let mut model =
            build_model(ModelKind::Gcn, ds.feature_dim(), 8, 3, Compression::Dense, 2).unwrap();
        let batch = vec![1, 2, 3];
        let a = sampled_forward(model.as_mut(), &ds.graph, &ds.features, &batch, 5, 3, 11);
        let b = sampled_forward(model.as_mut(), &ds.graph, &ds.features, &batch, 5, 3, 11);
        assert_eq!(a.linf_distance(&b), 0.0);
        let c = sampled_forward(model.as_mut(), &ds.graph, &ds.features, &batch, 5, 3, 12);
        assert!(a.linf_distance(&c) > 0.0, "different seeds should sample differently");
    }

    #[test]
    fn works_for_every_model_kind() {
        let ds = task();
        for kind in ModelKind::all() {
            let mut model =
                build_model(kind, ds.feature_dim(), 8, 3, Compression::Dense, 4).unwrap();
            let out =
                sampled_forward(model.as_mut(), &ds.graph, &ds.features, &[10, 20], 6, 4, 5);
            assert_eq!(out.shape(), (2, 3), "{kind} sampled inference shape");
        }
    }
}

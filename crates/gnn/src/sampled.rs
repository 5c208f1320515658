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
//! at the batch rows ([`GnnModel::forward_at`]): the last stage at the
//! targets, each earlier stage only at the rows a later one reads (for
//! layer 1, the targets and their sampled neighbours).

use crate::models::GnnModel;
use blockgnn_graph::{CsrGraph, NeighborSampler};
use blockgnn_linalg::Matrix;
use std::collections::HashMap;

/// The materialized sampled computation graph for one mini-batch.
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
    /// Global id → local id for every interned node.
    local_of: InternTable,
}

/// Sentinel for "not interned" in the direct-indexed table.
const NOT_INTERNED: u32 = u32::MAX;

/// Largest graph for which the direct-indexed intern table is used
/// (128 KB of `u32`s). A request interns thousands of (frequently
/// repeated) ids, so on graphs this size a flat table beats the hash
/// map's per-lookup hashing by a wide margin and its `O(|V|)`
/// alloc+memset stays in the microsecond range; past this size the
/// memset would rival a small request's entire inference, so larger
/// graphs keep the map.
const FLAT_INTERN_MAX_NODES: usize = 1 << 15;

/// Global→local intern table: flat and direct-indexed on graphs small
/// enough that an `O(|V|)` table is cheap, a hash map beyond that.
/// Both variants intern in first-occurrence order, so the local
/// numbering (and therefore every downstream result) is identical.
#[derive(Debug, Clone)]
enum InternTable {
    /// `table[global]` is the local id, or [`NOT_INTERNED`].
    Flat(Vec<u32>),
    Map(HashMap<u32, u32>),
}

impl InternTable {
    fn for_graph(num_nodes: usize) -> Self {
        if num_nodes <= FLAT_INTERN_MAX_NODES {
            InternTable::Flat(vec![NOT_INTERNED; num_nodes])
        } else {
            InternTable::Map(HashMap::new())
        }
    }

    /// Interns `g` (first-occurrence order) and returns its local id.
    fn intern(&mut self, g: u32, local_to_global: &mut Vec<u32>) -> u32 {
        match self {
            InternTable::Flat(table) => {
                let slot = &mut table[g as usize];
                if *slot == NOT_INTERNED {
                    local_to_global.push(g);
                    *slot = (local_to_global.len() - 1) as u32;
                }
                *slot
            }
            InternTable::Map(map) => *map.entry(g).or_insert_with(|| {
                local_to_global.push(g);
                (local_to_global.len() - 1) as u32
            }),
        }
    }

    fn get(&self, global: usize) -> Option<usize> {
        match self {
            InternTable::Flat(table) => {
                table.get(global).copied().filter(|&l| l != NOT_INTERNED).map(|l| l as usize)
            }
            InternTable::Map(map) => {
                u32::try_from(global).ok().and_then(|g| map.get(&g)).map(|&l| l as usize)
            }
        }
    }
}

impl SampledSubgraph {
    /// Builds the two-hop sampled sub-universe for `batch` with fan-outs
    /// `s1`, `s2` (sampling with replacement; duplicate draws collapse
    /// into parallel edges, preserving GraphSAGE's weighting).
    ///
    /// # Panics
    ///
    /// Panics if a batch node is out of range.
    #[must_use]
    pub fn build(graph: &CsrGraph, batch: &[usize], s1: usize, s2: usize, seed: u64) -> Self {
        let sampler = NeighborSampler::new(graph, seed);
        let mut local_of = InternTable::for_graph(graph.num_nodes());
        let mut local_to_global: Vec<u32> = Vec::new();
        // Batch nodes first, so logits rows 0..batch_len are the batch
        // (each unique node once, in first-occurrence order).
        for &v in batch {
            assert!(v < graph.num_nodes(), "batch node {v} out of range");
            let _ = local_of.intern(v as u32, &mut local_to_global);
        }
        let batch_len = local_to_global.len();
        let mut edges: Vec<(usize, usize)> = Vec::with_capacity(batch_len * s1 * 2);
        // Hop 1: sampled neighbors of the unique batch nodes (sampling
        // per unique node, so duplicated batch entries don't oversample
        // their neighborhood).
        let mut frontier: Vec<u32> = Vec::with_capacity(batch_len * s1);
        let mut draws: Vec<u32> = Vec::with_capacity(s1.max(s2));
        for lv in 0..batch_len {
            let v = local_to_global[lv] as usize;
            sampler.sample_into(v, s1, &mut draws);
            for &u in &draws {
                let lu = local_of.intern(u, &mut local_to_global) as usize;
                edges.push((lv, lu));
                frontier.push(u);
            }
        }
        frontier.sort_unstable();
        frontier.dedup();
        // Hop 2: sampled neighbors of the frontier.
        for &u in &frontier {
            let lu = local_of.intern(u, &mut local_to_global) as usize;
            sampler.sample_into(u as usize, s2, &mut draws);
            for &w in &draws {
                let lw = local_of.intern(w, &mut local_to_global) as usize;
                edges.push((lu, lw));
            }
        }
        let graph = CsrGraph::from_edges(local_to_global.len(), &edges, true)
            .expect("locally renumbered endpoints are in range");
        Self { graph, local_to_global, batch_len, local_of }
    }

    /// Local row of global node `global`, if it was interned into the
    /// sub-universe (batch nodes always are).
    #[must_use]
    pub fn local_of(&self, global: usize) -> Option<usize> {
        self.local_of.get(global)
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
/// rows).
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
    let sub = SampledSubgraph::build(graph, batch, s1, s2, seed);
    let local_features = sub.gather_features(features);
    let rows: Vec<u32> = batch
        .iter()
        .map(|&v| sub.local_of(v).expect("batch nodes are interned") as u32)
        .collect();
    model.forward_at(&sub.graph, &local_features, &rows)
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
    fn huge_graphs_fall_back_to_the_map_intern_table() {
        // Above FLAT_INTERN_MAX_NODES the build must not allocate an
        // O(|V|) table per request; the map variant interns with the
        // same first-occurrence numbering.
        let n = FLAT_INTERN_MAX_NODES + 1;
        let g = CsrGraph::from_edges(n, &[(0, 1), (1, 2), (2, 0), (n - 1, 0)], true).unwrap();
        let sub = SampledSubgraph::build(&g, &[n - 1, 0, 2], 3, 2, 7);
        assert!(matches!(sub.local_of, InternTable::Map(_)));
        assert_eq!(sub.batch_len, 3);
        assert_eq!(&sub.local_to_global[..3], &[(n - 1) as u32, 0, 2]);
        assert_eq!(sub.local_of(n - 1), Some(0));
        assert_eq!(sub.local_of(0), Some(1));
        assert_eq!(sub.local_of(n - 2), None);
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

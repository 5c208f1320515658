//! Batched sampled execution over a merged node universe — the compute
//! core of the serving runtime's dynamic micro-batcher.
//!
//! Several [`SampledSubgraph`]s (one per coalesced request) are
//! concatenated into a single *merged universe*: a block-diagonal
//! [`CsrGraph`] ([`CsrGraph::block_diagonal`]) whose blocks are the
//! per-request sub-universes, with one feature gather over the merged
//! local numbering. One model forward over the merged universe then
//! answers every request at once, computed only where the rows
//! [`MergedUniverse::target_rows`] names read (see
//! [`crate::GnnModel::forward_at`]) — those rows are where each
//! request's logits are read.
//!
//! # Why block-diagonal instead of interning shared nodes
//!
//! The batcher's contract is that coalesced execution is **bit-identical**
//! to serving each request alone. Sharing a node between two requests'
//! sub-universes would rewire its neighborhood: sampled edges are
//! symmetrized, so request B sampling node `v` would hand `v` an extra
//! neighbor that request A's solo execution never saw — changing degree
//! normalizations, attention softmaxes, and aggregation sums. Keeping
//! each request's block disjoint preserves every node's exact neighbor
//! list *and order* (block offsets shift sorted adjacency uniformly), so
//! each output row is produced by the same float operations as a solo
//! run. Deduplication therefore happens one level up, at request
//! granularity: identical requests share one block.

use crate::sampled::SampledSubgraph;
use blockgnn_graph::CsrGraph;
use blockgnn_linalg::Matrix;

/// The merged node universe of a coalesced micro-batch: one
/// block-diagonal graph over the concatenated sub-universes of the
/// batched requests.
#[derive(Debug, Clone)]
pub struct MergedUniverse {
    /// Block-diagonal adjacency over the merged local numbering.
    pub graph: CsrGraph,
    /// Merged local id → global node id (concatenated per-block
    /// `local_to_global` tables; a global node appearing in two blocks
    /// occupies two merged rows, by design — see module docs).
    pub universe: Vec<u32>,
    /// Merged row offset of each input subgraph's block.
    pub offsets: Vec<usize>,
    /// Total unique target nodes across blocks (the sum of per-block
    /// `batch_len`s) — what the hardware cycle model charges for.
    pub total_targets: usize,
}

impl MergedUniverse {
    /// Merges `subs` into one universe. Block `i` of the result is
    /// `subs[i]` verbatim, renumbered by the cumulative node count of
    /// blocks `0..i`.
    #[must_use]
    pub fn build(subs: &[&SampledSubgraph]) -> Self {
        let graphs: Vec<&CsrGraph> = subs.iter().map(|s| &s.graph).collect();
        let graph = CsrGraph::block_diagonal(&graphs);
        let mut universe = Vec::with_capacity(graph.num_nodes());
        let mut offsets = Vec::with_capacity(subs.len());
        let mut total_targets = 0;
        for sub in subs {
            offsets.push(universe.len());
            universe.extend_from_slice(&sub.local_to_global);
            total_targets += sub.batch_len;
        }
        Self { graph, universe, offsets, total_targets }
    }

    /// Gathers the merged universe's feature rows from the global
    /// matrix (one row memcpy per merged node). Row `offsets[i] + l`
    /// equals row `l` of block `i`'s solo
    /// [`SampledSubgraph::gather_features`] — bit-identical inputs.
    ///
    /// # Panics
    ///
    /// Panics if `features` has fewer rows than the global graph.
    #[must_use]
    pub fn gather_features(&self, features: &Matrix) -> Matrix {
        features.gather_rows(self.universe.iter().map(|&g| g as usize))
    }

    /// Merged output row holding global node `global` of block `block`
    /// (`None` if the node was not interned into that block — target
    /// nodes always are).
    #[must_use]
    pub fn row_of(&self, block: usize, sub: &SampledSubgraph, global: usize) -> Option<usize> {
        sub.local_of(global).map(|l| self.offsets[block] + l)
    }

    /// The merged rows one request reads: one per entry of `nodes`
    /// (request order, duplicates allowed), inside block `block`.
    ///
    /// # Panics
    ///
    /// Panics (on iteration) if a node of `nodes` was not a target of
    /// block `block`.
    pub fn target_rows<'a>(
        &'a self,
        block: usize,
        sub: &'a SampledSubgraph,
        nodes: &'a [usize],
    ) -> impl Iterator<Item = u32> + 'a {
        nodes.iter().map(move |&node| {
            self.row_of(block, sub, node).expect("request nodes are interned into their block")
                as u32
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockgnn_graph::datasets;
    use proptest::prelude::*;

    #[test]
    fn merge_concatenates_blocks() {
        let ds = datasets::cora_like_small(5);
        let a = SampledSubgraph::build(&ds.graph, &[1, 2], 4, 3, 7);
        let b = SampledSubgraph::build(&ds.graph, &[2, 9, 2], 3, 2, 8);
        let m = MergedUniverse::build(&[&a, &b]);
        assert_eq!(m.offsets, vec![0, a.local_to_global.len()]);
        assert_eq!(m.universe.len(), a.local_to_global.len() + b.local_to_global.len());
        assert_eq!(m.total_targets, a.batch_len + b.batch_len);
        // Node 2 is a target of both blocks — two distinct merged rows.
        let ra = m.row_of(0, &a, 2).unwrap();
        let rb = m.row_of(1, &b, 2).unwrap();
        assert_ne!(ra, rb);
        // Features gathered per block match the solo gathers exactly.
        let merged = m.gather_features(&ds.features);
        let solo_a = a.gather_features(&ds.features);
        let solo_b = b.gather_features(&ds.features);
        for i in 0..solo_a.rows() {
            assert_eq!(merged.row(i), solo_a.row(i));
        }
        for i in 0..solo_b.rows() {
            assert_eq!(merged.row(m.offsets[1] + i), solo_b.row(i));
        }
    }

    #[test]
    fn scatter_aligns_duplicate_nodes() {
        let ds = datasets::cora_like_small(6);
        let first = SampledSubgraph::build(&ds.graph, &[9], 3, 2, 1);
        let sub = SampledSubgraph::build(&ds.graph, &[4, 4, 11], 3, 2, 1);
        let m = MergedUniverse::build(&[&first, &sub]);
        let rows: Vec<u32> = m.target_rows(1, &sub, &[4, 4, 11]).collect();
        assert_eq!(rows[0], rows[1], "duplicate positions share one interned row");
        assert_ne!(rows[0], rows[2]);
        assert!(rows.iter().all(|&r| r as usize >= m.offsets[1]), "rows lie in their block");
    }

    // Coalesce/scatter row alignment with duplicate node ids across
    // requests: every block of the merged universe reproduces its solo
    // subgraph's numbering, features, and adjacency exactly.
    proptest! {
        #[test]
        fn prop_blocks_reproduce_solo_subgraphs(
            batches in proptest::collection::vec(
                proptest::collection::vec(0usize..120, 1..5),
                1..5,
            ),
            seed in 0u64..1_000,
        ) {
            let ds = datasets::citeseer_like_small(3);
            let subs: Vec<SampledSubgraph> = batches
                .iter()
                .map(|b| SampledSubgraph::build(&ds.graph, b, 3, 2, seed))
                .collect();
            let refs: Vec<&SampledSubgraph> = subs.iter().collect();
            let m = MergedUniverse::build(&refs);
            let merged_features = m.gather_features(&ds.features);
            prop_assert_eq!(
                m.universe.len(),
                subs.iter().map(|s| s.local_to_global.len()).sum::<usize>()
            );
            for (bi, (sub, batch)) in subs.iter().zip(&batches).enumerate() {
                let base = m.offsets[bi];
                let solo_features = sub.gather_features(&ds.features);
                for l in 0..sub.local_to_global.len() {
                    // Universe rows land block-contiguously…
                    prop_assert_eq!(m.universe[base + l], sub.local_to_global[l]);
                    // …with bit-identical gathered features…
                    prop_assert_eq!(merged_features.row(base + l), solo_features.row(l));
                    // …and the solo adjacency shifted by the block base.
                    let want: Vec<u32> =
                        sub.graph.neighbors(l).iter().map(|&v| v + base as u32).collect();
                    prop_assert_eq!(m.graph.neighbors(base + l), &want[..]);
                }
                // Every request position (duplicates included) scatters to
                // its block's interned target row.
                for &node in batch {
                    let row = m.row_of(bi, sub, node);
                    prop_assert_eq!(row, sub.local_of(node).map(|l| base + l));
                    prop_assert!(row.unwrap() < base + sub.batch_len);
                }
            }
        }
    }
}

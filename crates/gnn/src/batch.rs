//! Batched sampled execution over one merged node universe — the
//! compute core of the serving runtime's dynamic micro-batcher.
//!
//! A [`UniverseBuilder`] samples every request of a batch as its own
//! *block* of one universe: block `i`'s nodes are numbered after those of
//! blocks `0..i`, its sampled edges go straight into one edge list under
//! those merged ids, and one CSR is built from the list. One model
//! forward over the universe then answers every request at once, computed
//! only where the rows [`Universe::rows`] names read (see
//! [`crate::GnnModel::forward_at_indexed`]), with stage 0 reading the
//! graph-wide feature matrix through [`Universe::local_to_global`] —
//! no feature row is copied. A lone request is a one-block universe.
//!
//! Each serving replica keeps one builder. Its intern table has one
//! slot per node of the largest graph it has sampled, stamped with the
//! generation of the block that interned the node: starting a block bumps
//! the generation, so nothing is cleared between blocks or batches, and a
//! node-append delta only grows the table. Its edge, frontier, draw, row
//! and CSR buffers are reused too, and released when they outgrow
//! [`KEPT_SCRATCH_BYTES`].
//!
//! # Why blocks instead of interning shared nodes
//!
//! The batcher's contract is that coalesced execution is **bit-identical**
//! to serving each request alone. Sharing a node between two requests'
//! blocks would rewire its neighborhood: sampled edges are symmetrized,
//! so request B sampling node `v` would hand `v` an extra neighbor that
//! request A's solo execution never saw — changing degree
//! normalizations, attention softmaxes, and aggregation sums. Keeping
//! each request's block disjoint preserves every node's exact neighbor
//! list *and order* (block offsets shift sorted adjacency uniformly), so
//! each output row is produced by the same float operations as a solo
//! run. Deduplication therefore happens one level up, at request
//! granularity: identical requests share one block.
//!
//! [`MergedUniverse`] is the reference the builder is tested against:
//! the same universe assembled from solo [`SampledSubgraph`]s by a
//! block-diagonal copy. No serving path builds one; it stays as that
//! oracle and for the stack benchmark's ladder, which times it.

use crate::sampled::SampledSubgraph;
use blockgnn_graph::{CsrGraph, NeighborSampler};
use blockgnn_linalg::Matrix;

/// What a replica's reused sampled-path buffers may keep between batches,
/// per owner: a [`UniverseBuilder`]'s batch-sized buffers, and a model's
/// [`crate::GnnModel::stage_scratch`] (its stage matrices and lists, and
/// what filling a row table reuses). It is one default batch's worth —
/// eight requests of 1 024 targets each, sampled at the paper's fan-outs
/// (25 × (1 + 10) draws per target), in 8-byte arc slots: 17.2 MiB. An
/// owner whose buffers outgrow it together releases them all after the
/// batch; the builder's intern table, sized by the graph, does not count.
pub const KEPT_SCRATCH_BYTES: usize = 8 * 1024 * 25 * (1 + 10) * 8;

/// One sampled request of a batch: its targets (request order,
/// duplicates allowed) and how to sample around them.
#[derive(Debug, Clone, Copy)]
pub struct SampledBlock<'a> {
    /// Target nodes, in request order.
    pub nodes: &'a [usize],
    /// First-hop fan-out `S₁`.
    pub s1: usize,
    /// Second-hop fan-out `S₂`.
    pub s2: usize,
    /// Sampling seed.
    pub seed: u64,
}

/// A universe a [`UniverseBuilder`] has built, borrowed from it.
#[derive(Debug, Clone, Copy)]
pub struct Universe<'b> {
    /// The sampled adjacency over the merged local numbering.
    pub graph: &'b CsrGraph,
    /// Merged local id → global node id, block after block (a global
    /// node sampled by two blocks occupies two rows, by design — see the
    /// module docs).
    pub local_to_global: &'b [u32],
    /// The row of every request position, request after request: one
    /// entry per target in request order, duplicates naming one row.
    pub rows: &'b [u32],
    /// Each request's count of unique targets — what the hardware cycle
    /// model charges it for.
    pub unique_targets: &'b [usize],
}

/// One intern-table slot: `local` is the node's merged id when `stamp`
/// is the current block's generation, and stale otherwise.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    stamp: u32,
    local: u32,
}

/// Samples a batch's requests into one universe, reusing its table and
/// buffers from batch to batch (see the module docs).
#[derive(Debug, Default)]
pub struct UniverseBuilder {
    /// One slot per node of the largest graph sampled so far.
    slots: Vec<Slot>,
    /// The generation of the block being sampled; never 0 while one is.
    generation: u32,
    local_to_global: Vec<u32>,
    rows: Vec<u32>,
    unique_targets: Vec<usize>,
    arcs: Vec<(u32, u32)>,
    frontier: Vec<u32>,
    draws: Vec<u32>,
    graph: CsrGraph,
}

impl UniverseBuilder {
    /// Samples each of `blocks` over `graph` as its own block of one
    /// universe: the block's unique targets first (first-occurrence
    /// order), each drawing `s1` neighbours, then the sorted, deduplicated
    /// first-hop frontier drawing `s2` each (with replacement, so
    /// duplicate draws are parallel edges), every node numbered where it
    /// first appears in the block. Block `i` is
    /// [`SampledSubgraph::build`] of that request, renumbered by the node
    /// count of blocks `0..i`.
    ///
    /// # Panics
    ///
    /// Panics if a target node is out of range for `graph`.
    pub fn build<'a>(
        &mut self,
        graph: &CsrGraph,
        blocks: impl IntoIterator<Item = SampledBlock<'a>>,
    ) -> Universe<'_> {
        if self.slots.len() < graph.num_nodes() {
            self.slots.resize(graph.num_nodes(), Slot::default());
        }
        self.local_to_global.clear();
        self.rows.clear();
        self.unique_targets.clear();
        self.arcs.clear();
        for block in blocks {
            self.sample_block(graph, block);
        }
        self.graph.rebuild_undirected(self.local_to_global.len(), &self.arcs);
        Universe {
            graph: &self.graph,
            local_to_global: &self.local_to_global,
            rows: &self.rows,
            unique_targets: &self.unique_targets,
        }
    }

    fn sample_block(&mut self, graph: &CsrGraph, block: SampledBlock) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // A wrapped counter would meet stamps written 2³² blocks ago.
            self.slots.fill(Slot::default());
            self.generation = 1;
        }
        let Self { slots, generation, local_to_global, arcs, frontier, draws, .. } = self;
        let mut intern = |g: u32, local_to_global: &mut Vec<u32>| {
            let slot = &mut slots[g as usize];
            if slot.stamp != *generation {
                *slot = Slot { stamp: *generation, local: local_to_global.len() as u32 };
                local_to_global.push(g);
            }
            slot.local
        };
        let base = local_to_global.len();
        for &v in block.nodes {
            assert!(v < graph.num_nodes(), "batch node {v} out of range");
            intern(v as u32, local_to_global);
        }
        let targets = local_to_global.len() - base;
        let sampler = NeighborSampler::new(graph, block.seed);
        frontier.clear();
        arcs.reserve(targets * block.s1);
        for lv in base..base + targets {
            sampler.sample_into(local_to_global[lv] as usize, block.s1, draws);
            for &u in draws.iter() {
                arcs.push((lv as u32, intern(u, local_to_global)));
                frontier.push(u);
            }
        }
        frontier.sort_unstable();
        frontier.dedup();
        arcs.reserve(frontier.len() * block.s2);
        for &u in frontier.iter() {
            let lu = intern(u, local_to_global);
            sampler.sample_into(u as usize, block.s2, draws);
            for &w in draws.iter() {
                arcs.push((lu, intern(w, local_to_global)));
            }
        }
        // Every target was interned into this block, under this stamp.
        self.rows.extend(block.nodes.iter().map(|&v| self.slots[v].local));
        self.unique_targets.push(targets);
    }

    /// Bytes the builder's batch-sized buffers hold (their capacities):
    /// everything but the intern table, which is sized by the graph.
    #[must_use]
    pub fn kept_bytes(&self) -> usize {
        self.local_to_global.capacity() * 4
            + self.rows.capacity() * 4
            + self.unique_targets.capacity() * std::mem::size_of::<usize>()
            + self.arcs.capacity() * 8
            + self.frontier.capacity() * 4
            + self.draws.capacity() * 4
            + self.graph.heap_bytes()
    }

    /// Releases the batch-sized buffers once they hold more than
    /// [`KEPT_SCRATCH_BYTES`] together; the intern table stays. Call it
    /// when the batch's universe is no longer read.
    pub fn release_oversized(&mut self) {
        if self.kept_bytes() > KEPT_SCRATCH_BYTES {
            *self = Self {
                slots: std::mem::take(&mut self.slots),
                generation: self.generation,
                ..Self::default()
            };
        }
    }

    /// The universe last built, by value: its adjacency and its
    /// local→global ids.
    pub(crate) fn into_universe(self) -> (CsrGraph, Vec<u32>) {
        (self.graph, self.local_to_global)
    }
}

/// The merged node universe of a coalesced micro-batch assembled from
/// solo subgraphs: one block-diagonal graph over their concatenated
/// sub-universes. The oracle [`UniverseBuilder`] is tested against (see
/// the module docs); kept beside it because the stack benchmark's ladder
/// times it.
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

    /// The oracle for a builder's universe: each block a solo
    /// [`SampledSubgraph::build`], merged block-diagonally.
    fn assert_universe_is_the_merged_solos(
        builder: &mut UniverseBuilder,
        graph: &CsrGraph,
        blocks: &[SampledBlock],
    ) {
        let subs: Vec<SampledSubgraph> = blocks
            .iter()
            .map(|b| SampledSubgraph::build(graph, b.nodes, b.s1, b.s2, b.seed))
            .collect();
        let merged = MergedUniverse::build(&subs.iter().collect::<Vec<_>>());
        let want_rows: Vec<u32> = subs
            .iter()
            .zip(blocks)
            .enumerate()
            .flat_map(|(i, (sub, b))| merged.target_rows(i, sub, b.nodes))
            .collect();
        let want_targets: Vec<usize> = subs.iter().map(|s| s.batch_len).collect();
        let universe = builder.build(graph, blocks.iter().copied());
        assert_eq!(universe.local_to_global, &merged.universe[..], "ids");
        // Structural equality: node count, CSR offsets and targets.
        assert_eq!(universe.graph, &merged.graph, "adjacency");
        assert_eq!(universe.rows, &want_rows[..], "target rows");
        assert_eq!(universe.unique_targets, &want_targets[..], "unique targets");
    }

    /// A hub-and-chords graph of `n` nodes whose last `isolated` nodes
    /// have no edges.
    fn graph_with_isolated_tail(
        n: usize,
        isolated: usize,
        arcs: &[(usize, usize)],
    ) -> CsrGraph {
        let wired = n - isolated;
        let edges: Vec<(usize, usize)> = arcs
            .iter()
            .map(|&(a, b)| (if a % 4 == 0 { 0 } else { a % wired }, b % wired))
            .collect();
        CsrGraph::from_edges(n, &edges, true).unwrap()
    }

    proptest! {
        #[test]
        fn prop_a_builder_universe_is_the_merged_solo_subgraphs(
            shape in (8usize..90, 0u64..1_000),
            arcs in proptest::collection::vec((0usize..1_000, 0usize..1_000), 0..200),
            batches in proptest::collection::vec(
                proptest::collection::vec(0usize..1_000, 1..6),
                1..6,
            ),
            fanouts in proptest::collection::vec((0usize..4, 0usize..3), 6..7),
        ) {
            // Duplicate targets inside a block, nodes shared by blocks
            // (ids mod a small n collide), an isolated quarter, `s1 = 0`
            // and `s2 = 0`; the builder is warm from an earlier batch on
            // a larger graph, so stale stamps and buffers are present.
            let (n, seed) = shape;
            let g = graph_with_isolated_tail(n, n / 4, &arcs);
            let nodes: Vec<Vec<usize>> =
                batches.iter().map(|b| b.iter().map(|&v| v % n).collect()).collect();
            let blocks: Vec<SampledBlock> = nodes
                .iter()
                .zip(&fanouts)
                .enumerate()
                .map(|(i, (nodes, &(s1, s2)))| {
                    SampledBlock { nodes, s1, s2, seed: seed + i as u64 % 2 }
                })
                .collect();
            let mut builder = UniverseBuilder::default();
            let big = graph_with_isolated_tail(200, 10, &arcs);
            let _ = builder.build(&big, [SampledBlock { nodes: &[3, 150, 199], s1: 5, s2: 4, seed }]);
            assert_universe_is_the_merged_solos(&mut builder, &g, &blocks);
            // And again on the same builder, blocks reversed.
            let reversed: Vec<SampledBlock> = blocks.iter().rev().copied().collect();
            assert_universe_is_the_merged_solos(&mut builder, &g, &reversed);
        }
    }

    #[test]
    fn graphs_above_32768_nodes_intern_through_the_one_flat_table() {
        // Past the size where interning once switched to a hash map: the
        // same table, the same first-occurrence numbering.
        let n = (1 << 15) + 1;
        let g = CsrGraph::from_edges(n, &[(0, 1), (1, 2), (2, 0), (n - 1, 0)], true).unwrap();
        let sub = SampledSubgraph::build(&g, &[n - 1, 0, 2], 3, 2, 7);
        assert_eq!(sub.batch_len, 3);
        assert_eq!(&sub.local_to_global[..3], &[(n - 1) as u32, 0, 2]);
        assert_eq!(
            (sub.local_of(n - 1), sub.local_of(0), sub.local_of(n - 2)),
            (Some(0), Some(1), None)
        );
        let blocks = [
            SampledBlock { nodes: &[n - 1, 0, 2], s1: 3, s2: 2, seed: 7 },
            SampledBlock { nodes: &[0, n - 1, 0], s1: 2, s2: 3, seed: 8 },
        ];
        assert_universe_is_the_merged_solos(&mut UniverseBuilder::default(), &g, &blocks);
    }

    #[test]
    fn a_wrapped_generation_counter_never_meets_an_old_stamp() {
        // Two blocks before the wrap, then one at generation 0 → 1, with
        // every slot stamped 1 and 2 by "earlier" blocks: a wrap that
        // kept those stamps would take the stale locals as interned.
        let ds = datasets::cora_like_small(2);
        let blocks = [
            SampledBlock { nodes: &[1, 2, 1], s1: 3, s2: 2, seed: 5 },
            SampledBlock { nodes: &[2, 40], s1: 4, s2: 1, seed: 6 },
            SampledBlock { nodes: &[7], s1: 2, s2: 2, seed: 7 },
        ];
        let mut builder = UniverseBuilder::default();
        let _ = builder.build(&ds.graph, blocks);
        for (i, slot) in builder.slots.iter_mut().enumerate() {
            *slot = Slot { stamp: 1 + i as u32 % 2, local: 3 };
        }
        builder.generation = u32::MAX - 2;
        assert_universe_is_the_merged_solos(&mut builder, &ds.graph, &blocks);
        assert_eq!(builder.generation, 1, "the third block ran at generation 1");
    }

    #[test]
    fn a_builder_keeps_at_most_its_bound_after_an_oversized_batch() {
        // One block that draws past the bound (4 × 300 000 × 2 arcs in
        // 8-byte slots), then a normal batch: released, then regrown to
        // what the normal batch uses.
        let ds = datasets::cora_like_small(3);
        let mut builder = UniverseBuilder::default();
        let huge = SampledBlock { nodes: &[1, 2, 3, 4], s1: 300_000, s2: 1, seed: 1 };
        let _ = builder.build(&ds.graph, [huge]);
        assert!(builder.kept_bytes() > KEPT_SCRATCH_BYTES);
        builder.release_oversized();
        assert!(builder.kept_bytes() <= 8, "all but the empty graph's one offset released");
        assert_eq!(builder.slots.len(), ds.num_nodes(), "the intern table stays");
        let blocks = [SampledBlock { nodes: &[5, 6], s1: 25, s2: 10, seed: 2 }; 8];
        assert_universe_is_the_merged_solos(&mut builder, &ds.graph, &blocks);
        builder.release_oversized();
        let kept = builder.kept_bytes();
        assert!(kept > 0 && kept < KEPT_SCRATCH_BYTES / 16, "kept {kept} bytes");
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

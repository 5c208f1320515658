//! Graph partitioning for capacity-limited execution.
//!
//! §IV-C: "The RD dataset exceeds the ZC706's DRAM capacity, so we
//! partition it into two sub-graphs for evaluation." This module
//! provides that machinery: split a node set into `k` parts, derive each
//! part's *induced workload* (its nodes plus the halo of neighbors its
//! aggregations touch), and verify that every part's feature footprint
//! fits a memory budget.
//!
//! Partitioning is contiguous-chunk based (node-id ranges), which
//! matches the vertex-centric batch processing of the accelerator — the
//! host streams each part's nodes in order. Cuts fall either at equal
//! node counts ([`partition_contiguous`], what the §IV-C budget search
//! sizes) or at equal edge work ([`partition_degree_balanced`], what
//! serving uses — contiguous cuts placed on the prefix-summed degree
//! curve so skewed graphs stop handing one worker all the hubs).

use crate::csr::CsrGraph;
use std::error::Error;
use std::fmt;

/// Errors raised by partition planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// The memory budget cannot hold even a single node's halo-inflated
    /// footprint, so no partition count can satisfy it.
    BudgetTooSmall {
        /// Bytes the smallest achievable part (one node plus its closed
        /// neighborhood) needs.
        needed: usize,
        /// The budget that was offered.
        budget: usize,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::BudgetTooSmall { needed, budget } => write!(
                f,
                "memory budget of {budget} B cannot hold a single node's resident set \
                 ({needed} B needed); no partition count fits"
            ),
        }
    }
}

impl Error for PartitionError {}

/// One part of a node partition, with its halo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphPart {
    /// The target nodes this part computes (sorted).
    pub nodes: Vec<u32>,
    /// Neighbor nodes outside `nodes` whose features must also be
    /// resident while processing this part (sorted).
    pub halo: Vec<u32>,
}

impl GraphPart {
    /// Total features that must be resident: targets + halo.
    #[must_use]
    pub fn resident_nodes(&self) -> usize {
        self.nodes.len() + self.halo.len()
    }

    /// Bytes of feature storage this part needs at `feature_dim`
    /// features per node and `bytes_per_feature` bytes per scalar —
    /// 4 for fp32 *and* for the accelerator's Q16.16 fixed point, 8 for
    /// the f64 matrices the software backends hold in host memory. The
    /// scalar width is a parameter (not a hardcoded fp32) so residency
    /// checks stay honest across number formats.
    #[must_use]
    pub fn feature_bytes(&self, feature_dim: usize, bytes_per_feature: usize) -> usize {
        self.resident_nodes() * feature_dim * bytes_per_feature
    }
}

/// Splits nodes into `k` contiguous ranges and computes each range's
/// halo.
///
/// # Panics
///
/// Panics if `k` is zero.
#[must_use]
pub fn partition_contiguous(graph: &CsrGraph, k: usize) -> Vec<GraphPart> {
    assert!(k > 0, "partition count must be positive");
    let n = graph.num_nodes();
    let per_part = n.div_ceil(k.min(n.max(1)));
    let mut parts = Vec::new();
    let mut start = 0usize;
    while start < n {
        let end = (start + per_part).min(n);
        let nodes: Vec<u32> = (start as u32..end as u32).collect();
        let halo = collect_halo(graph, &nodes);
        parts.push(GraphPart { nodes, halo });
        start = end;
    }
    parts
}

/// Splits nodes into `k` contiguous ranges cut on cumulative work
/// (`node_cost + degree(v)` per node) instead of node counts, so
/// degree-skewed graphs distribute hub aggregation evenly. Ranges stay
/// contiguous — the host still streams each part's nodes in id order —
/// and every part holds at least one node, so coverage and merge
/// semantics match [`partition_contiguous`] exactly.
///
/// # Panics
///
/// Panics if `k` is zero.
#[must_use]
pub fn partition_degree_balanced(
    graph: &CsrGraph,
    k: usize,
    node_cost: usize,
) -> Vec<GraphPart> {
    assert!(k > 0, "partition count must be positive");
    let n = graph.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let k = k.min(n);
    let work = |v: usize| (node_cost + graph.degree(v)) as u64;
    let total: u64 = (0..n).map(work).sum();
    if total == 0 {
        // Degenerate zero-work graph: fall back to equal node counts.
        return partition_contiguous(graph, k);
    }
    let mut parts = Vec::with_capacity(k);
    let mut start = 0usize;
    let mut acc = 0u64;
    for v in 0..n {
        acc += work(v);
        let remaining_parts = k - parts.len();
        // Cut once this part reaches its proportional share of the total
        // work (integer form of acc >= total·(parts+1)/k), but never let
        // the tail run out of nodes for the remaining parts.
        let reached_share = acc * k as u64 >= total * (parts.len() as u64 + 1);
        let must_cut = n - (v + 1) == remaining_parts - 1 && remaining_parts > 1;
        if parts.len() + 1 < k && (reached_share || must_cut) {
            let nodes: Vec<u32> = (start as u32..=v as u32).collect();
            let halo = collect_halo(graph, &nodes);
            parts.push(GraphPart { nodes, halo });
            start = v + 1;
        }
    }
    let nodes: Vec<u32> = (start as u32..n as u32).collect();
    let halo = collect_halo(graph, &nodes);
    parts.push(GraphPart { nodes, halo });
    parts
}

/// Load-balance factor of a partition: the maximum part's work divided
/// by the mean part's work (`node_cost + degree` per node). `1.0` is a
/// perfect split; `2.0` means the slowest worker carries twice the
/// average. Returns `1.0` for empty inputs or zero total work.
#[must_use]
pub fn partition_balance(graph: &CsrGraph, parts: &[GraphPart], node_cost: usize) -> f64 {
    if parts.is_empty() {
        return 1.0;
    }
    let part_work = |p: &GraphPart| -> u64 {
        p.nodes.iter().map(|&v| (node_cost + graph.degree(v as usize)) as u64).sum()
    };
    let works: Vec<u64> = parts.iter().map(part_work).collect();
    let total: u64 = works.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let max = *works.iter().max().expect("non-empty") as f64;
    max / (total as f64 / parts.len() as f64)
}

/// Smallest `k` such that every contiguous part's resident features fit
/// in `budget_bytes` at the given scalar width.
///
/// # Errors
///
/// [`PartitionError::BudgetTooSmall`] when even single-node parts
/// overflow — i.e. the budget is below some node's halo-inflated
/// footprint (its closed neighborhood × per-node bytes), the hard floor
/// no partition count can beat. The error carries that floor so callers
/// can report how far short the budget falls.
pub fn parts_needed_for_budget(
    graph: &CsrGraph,
    feature_dim: usize,
    bytes_per_feature: usize,
    budget_bytes: usize,
) -> Result<usize, PartitionError> {
    let n = graph.num_nodes();
    if n == 0 {
        return Ok(1);
    }
    // Even a halo-free part of ⌈n/k⌉ nodes needs ⌈n/k⌉·dim·width bytes,
    // so no k below this bound can fit — start the scan there instead of
    // paying a partition + halo pass per skipped k.
    let per_node = feature_dim * bytes_per_feature;
    if per_node == 0 {
        return Ok(1);
    }
    let k_min =
        if budget_bytes == 0 { n } else { (n * per_node).div_ceil(budget_bytes).clamp(1, n) };
    for k in k_min..=n {
        let parts = partition_contiguous(graph, k);
        if parts.iter().all(|p| p.feature_bytes(feature_dim, bytes_per_feature) <= budget_bytes)
        {
            return Ok(k);
        }
        // Halo size cannot shrink below a single node's closed
        // neighborhood; bail out early when k already gives 1-node parts.
        if k == n {
            break;
        }
    }
    // The floor is the worst single node's resident set: at k = n each
    // part is one node plus its distinct-neighbor halo, and no coarser
    // split can shrink any node's closed neighborhood.
    let needed = (0..n)
        .map(|v| {
            let row = graph.neighbors(v);
            let mut distinct = 0usize;
            let mut prev: Option<u32> = None;
            let mut has_self = false;
            for &u in row {
                if prev != Some(u) {
                    distinct += 1;
                    prev = Some(u);
                }
                has_self |= u as usize == v;
            }
            (distinct + usize::from(!has_self)) * per_node
        })
        .max()
        .expect("n > 0");
    Err(PartitionError::BudgetTooSmall { needed, budget: budget_bytes })
}

fn collect_halo(graph: &CsrGraph, nodes: &[u32]) -> Vec<u32> {
    let member: std::collections::HashSet<u32> = nodes.iter().copied().collect();
    let mut halo: Vec<u32> = nodes
        .iter()
        .flat_map(|&v| graph.neighbors(v as usize).iter().copied())
        .filter(|u| !member.contains(u))
        .collect();
    halo.sort_unstable();
    halo.dedup();
    halo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{rmat, RMAT_SOCIAL};

    fn ring(n: usize) -> CsrGraph {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        CsrGraph::from_edges(n, &edges, true).unwrap()
    }

    #[test]
    fn contiguous_parts_cover_all_nodes_exactly_once() {
        let g = ring(100);
        let parts = partition_contiguous(&g, 3);
        assert_eq!(parts.len(), 3);
        let mut all: Vec<u32> = parts.iter().flat_map(|p| p.nodes.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0u32..100).collect::<Vec<_>>());
    }

    #[test]
    fn ring_halo_is_two_boundary_nodes() {
        let g = ring(100);
        let parts = partition_contiguous(&g, 2);
        // Each half of a ring touches exactly the 2 nodes across its cuts.
        assert_eq!(parts[0].halo.len(), 2);
        assert_eq!(parts[1].halo.len(), 2);
        assert_eq!(parts[0].resident_nodes(), 52);
    }

    #[test]
    fn halo_nodes_are_genuine_outside_neighbors() {
        let g = ring(20);
        for part in partition_contiguous(&g, 4) {
            let members: std::collections::HashSet<u32> = part.nodes.iter().copied().collect();
            for &h in &part.halo {
                assert!(!members.contains(&h));
                assert!(
                    part.nodes.iter().any(|&v| g.has_edge(v as usize, h as usize)),
                    "halo node {h} borders no member"
                );
            }
        }
    }

    #[test]
    fn budget_search_reproduces_the_reddit_split() {
        // The paper splits Reddit in two; with a DRAM budget of ~half the
        // feature footprint, the search must return 2 for a graph whose
        // halos are small relative to part sizes.
        let g = ring(1000);
        let feature_dim = 602;
        let full_bytes = 1000 * feature_dim * 4;
        let k =
            parts_needed_for_budget(&g, feature_dim, 4, full_bytes / 2 + 3 * feature_dim * 4)
                .unwrap();
        assert_eq!(k, 2);
        // Trivially fits: one part.
        assert_eq!(parts_needed_for_budget(&g, feature_dim, 4, full_bytes * 2), Ok(1));
    }

    #[test]
    fn scalar_width_scales_residency() {
        // The same part needs twice the bytes at f64 width, so an
        // exactly-fp32-sized budget forces a finer split at 8 B/scalar.
        let g = ring(100);
        let parts = partition_contiguous(&g, 4);
        assert_eq!(parts[0].feature_bytes(10, 8), 2 * parts[0].feature_bytes(10, 4));
        let budget = 100 * 10 * 4 + 3 * 10 * 4;
        assert_eq!(parts_needed_for_budget(&g, 10, 4, budget), Ok(1));
        assert!(parts_needed_for_budget(&g, 10, 8, budget).unwrap() > 1);
    }

    #[test]
    fn impossible_budget_is_a_typed_error() {
        // Each ring node's resident set is itself + 2 neighbors, so the
        // floor is 3 · 100 · 4 = 1200 B; a 10 B budget cannot fit it.
        let g = ring(10);
        assert_eq!(
            parts_needed_for_budget(&g, 100, 4, 10),
            Err(PartitionError::BudgetTooSmall { needed: 1200, budget: 10 })
        );
    }

    #[test]
    fn budget_of_one_byte_errors_with_the_true_floor() {
        let g = ring(8);
        let err = parts_needed_for_budget(&g, 4, 4, 1).unwrap_err();
        let PartitionError::BudgetTooSmall { needed, budget } = err;
        assert_eq!(budget, 1);
        assert_eq!(needed, 3 * 4 * 4);
        // The reported floor is genuinely achievable: granting exactly
        // that much admits the k = n split.
        assert_eq!(parts_needed_for_budget(&g, 4, 4, needed), Ok(8));
    }

    #[test]
    fn budget_just_below_per_node_footprint_errors() {
        // budget = per_node − 1 cannot even hold one halo-free node.
        let g = ring(6);
        let per_node = 16 * 4;
        assert!(parts_needed_for_budget(&g, 16, 4, per_node - 1).is_err());
    }

    #[test]
    fn empty_graph_budget_is_one_part() {
        let g = CsrGraph::from_edges(0, &[], true).unwrap();
        assert_eq!(parts_needed_for_budget(&g, 128, 8, 0), Ok(1));
        assert_eq!(parts_needed_for_budget(&g, 128, 8, 1), Ok(1));
    }

    #[test]
    fn error_display_names_both_sides() {
        let msg = PartitionError::BudgetTooSmall { needed: 1200, budget: 10 }.to_string();
        assert!(msg.contains("1200") && msg.contains("10"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_parts_rejected() {
        let _ = partition_contiguous(&ring(4), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_parts_rejected_by_degree_balanced() {
        let _ = partition_degree_balanced(&ring(4), 0, 1);
    }

    fn skewed() -> CsrGraph {
        // A star on the first node plus a sparse tail: heavy skew.
        let mut edges: Vec<(usize, usize)> = (1..128).map(|v| (0, v)).collect();
        edges.extend((128..256).map(|v| (v, (v + 1) % 256)));
        CsrGraph::from_edges(256, &edges, true).unwrap()
    }

    #[test]
    fn degree_balanced_parts_tile_the_node_range() {
        for g in [ring(100), skewed(), rmat_graph()] {
            for k in [1, 2, 3, 7] {
                let parts = partition_degree_balanced(&g, k, 4);
                assert_eq!(parts.len(), k.min(g.num_nodes()));
                let mut all: Vec<u32> = parts.iter().flat_map(|p| p.nodes.clone()).collect();
                let sorted = {
                    let mut s = all.clone();
                    s.sort_unstable();
                    s
                };
                // Contiguous ranges in order: concatenation is already
                // sorted and covers every node exactly once.
                assert_eq!(all, sorted);
                all.dedup();
                assert_eq!(all.len(), g.num_nodes());
                assert!(parts.iter().all(|p| !p.nodes.is_empty()));
            }
        }
    }

    fn rmat_graph() -> CsrGraph {
        let edges = rmat(256, 2000, RMAT_SOCIAL, 5);
        CsrGraph::from_edges(256, &edges, true).unwrap()
    }

    #[test]
    fn degree_balanced_clamps_k_to_node_count() {
        let g = ring(3);
        let parts = partition_degree_balanced(&g, 10, 1);
        assert_eq!(parts.len(), 3);
        assert!(partition_degree_balanced(&CsrGraph::from_edges(0, &[], true).unwrap(), 4, 1)
            .is_empty());
    }

    #[test]
    fn degree_balanced_beats_contiguous_on_skewed_graphs() {
        let g = skewed();
        let k = 4;
        let contiguous = partition_balance(&g, &partition_contiguous(&g, k), 0);
        let balanced = partition_balance(&g, &partition_degree_balanced(&g, k, 0), 0);
        assert!(
            balanced < contiguous,
            "degree-balanced {balanced:.2} not better than contiguous {contiguous:.2}"
        );
        assert!(balanced >= 1.0);
    }

    #[test]
    fn balance_is_one_for_perfect_and_empty_splits() {
        let g = ring(100);
        let parts = partition_contiguous(&g, 4);
        let b = partition_balance(&g, &parts, 1);
        assert!((b - 1.0).abs() < 1e-9, "ring split should be perfect, got {b}");
        assert_eq!(partition_balance(&g, &[], 1), 1.0);
    }
}

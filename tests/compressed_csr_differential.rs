//! Differential harness for the delta-varint compressed CSR: against
//! randomly generated graphs — and graphs pushed through the mutation
//! paths serving actually exercises (`splice` deltas, `block_diagonal`
//! coalescing, partitioning) — `CompressedCsr::encode` → `decode` must
//! be a structural identity, and per-row reads must match the
//! uncompressed adjacency exactly. The compressed form is the layout
//! big graphs are *served* from, so any divergence here is silent
//! wrong-answer territory, not a perf bug.

use blockgnn::graph::partition::{partition_contiguous, partition_degree_balanced};
use blockgnn::graph::{CompressedCsr, CsrGraph};
use proptest::prelude::*;

/// Structural equality: same shape and, row by row, the same neighbor
/// multiset in the same order. (Graph ids differ — `decode` mints a
/// fresh snapshot — so `PartialEq` on `CsrGraph` is not the contract.)
fn assert_structurally_identical(original: &CsrGraph, decoded: &CsrGraph) {
    assert_eq!(original.num_nodes(), decoded.num_nodes(), "node count");
    assert_eq!(original.num_arcs(), decoded.num_arcs(), "arc count");
    for u in 0..original.num_nodes() {
        assert_eq!(original.neighbors(u), decoded.neighbors(u), "row {u}");
    }
}

fn round_trip(graph: &CsrGraph) -> CsrGraph {
    let compressed = CompressedCsr::encode(graph);
    assert_eq!(compressed.num_nodes(), graph.num_nodes());
    assert_eq!(compressed.num_arcs(), graph.num_arcs());
    // Random access must agree with the uncompressed rows without a
    // full decode.
    for u in 0..graph.num_nodes() {
        assert_eq!(compressed.row(u), graph.neighbors(u), "compressed row {u}");
    }
    let decoded = compressed.decode();
    assert_structurally_identical(graph, &decoded);
    decoded
}

fn graph_from(num_nodes: usize, arcs: &[(usize, usize)]) -> CsrGraph {
    let edges: Vec<(usize, usize)> =
        arcs.iter().map(|&(u, v)| (u % num_nodes, v % num_nodes)).collect();
    CsrGraph::from_edges(num_nodes, &edges, true).expect("endpoints are in range")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn prop_encode_decode_is_a_structural_identity(
        num_nodes in 1usize..60,
        arcs in proptest::collection::vec((0usize..60, 0usize..60), 0..150),
    ) {
        let graph = graph_from(num_nodes, &arcs);
        round_trip(&graph);
    }

    #[test]
    fn prop_spliced_graphs_survive_compression(
        num_nodes in 2usize..40,
        arcs in proptest::collection::vec((0usize..40, 0usize..40), 1..80),
        grown in 0usize..10,
        added in proptest::collection::vec((0usize..50, 0usize..50), 1..20),
    ) {
        // The delta path: decode the compressed snapshot, splice the
        // mutation in, and the re-encoded result must still round-trip
        // and match the splice of the *uncompressed* original.
        let graph = graph_from(num_nodes, &arcs);
        let decoded = round_trip(&graph);
        let new_n = num_nodes + grown;
        let add: Vec<(usize, usize)> =
            added.iter().map(|&(u, v)| (u % new_n, v % new_n)).collect();
        let direct = graph.splice(new_n, &add, &[]).expect("splice applies");
        let via_compressed = decoded.splice(new_n, &add, &[]).expect("splice applies");
        assert_structurally_identical(&direct, &via_compressed);
        round_trip(&direct);
    }

    #[test]
    fn prop_block_diagonal_of_decoded_blocks_matches_the_original(
        a_nodes in 1usize..30,
        a_arcs in proptest::collection::vec((0usize..30, 0usize..30), 0..60),
        b_nodes in 1usize..30,
        b_arcs in proptest::collection::vec((0usize..30, 0usize..30), 0..60),
    ) {
        // The coalescing path: building the batch super-graph from
        // decoded blocks must equal building it from the originals.
        let a = graph_from(a_nodes, &a_arcs);
        let b = graph_from(b_nodes, &b_arcs);
        let (da, db) = (round_trip(&a), round_trip(&b));
        let direct = CsrGraph::block_diagonal(&[&a, &b]);
        let via_compressed = CsrGraph::block_diagonal(&[&da, &db]);
        assert_structurally_identical(&direct, &via_compressed);
        round_trip(&direct);
    }

    #[test]
    fn prop_partition_plans_are_identical_on_decoded_graphs(
        num_nodes in 1usize..50,
        arcs in proptest::collection::vec((0usize..50, 0usize..50), 0..120),
        k in 1usize..6,
    ) {
        // The serving path: both cut placements must plan the exact
        // same parts (targets and halos) from the decoded graph.
        let graph = graph_from(num_nodes, &arcs);
        let decoded = round_trip(&graph);
        prop_assert_eq!(
            partition_contiguous(&graph, k),
            partition_contiguous(&decoded, k),
            "contiguous plan diverged"
        );
        prop_assert_eq!(
            partition_degree_balanced(&graph, k, 16),
            partition_degree_balanced(&decoded, k, 16),
            "degree-balanced plan diverged"
        );
    }
}

#[test]
fn resident_bytes_accounts_the_row_table_and_payload() {
    // The accounting contract the §IV-B budget check leans on: the
    // compressed footprint is the varint payload plus a u32 row table,
    // and on gap-friendly (locally clustered) graphs it undercuts the
    // flat u32 adjacency.
    let ring: Vec<(usize, usize)> = (0..400).map(|u| (u, (u + 1) % 400)).collect();
    let graph = CsrGraph::from_edges(400, &ring, true).expect("builds");
    let compressed = CompressedCsr::encode(&graph);
    assert!(compressed.resident_bytes() >= (graph.num_nodes() + 1) * 4);
    assert!(
        compressed.resident_bytes() < graph.adjacency_bytes(),
        "ring adjacency should compress well below the flat layout \
         ({} vs {} bytes)",
        compressed.resident_bytes(),
        graph.adjacency_bytes()
    );
    round_trip(&graph);
}

//! The §IV-C residency model, end to end: a graph 16× the pubmed-small
//! stand-in must *serve* — correctly, partition-parallel — while its
//! modelled instantaneous device residency (packed weights +
//! delta-varint adjacency + one streamed part's feature window) stays
//! inside the §IV-B on-chip budget, where the flat u32 adjacency would
//! not fit. The adjacency term is a byte count
//! ([`CsrGraph::compressed_adjacency_bytes`]); no kernel reads a
//! compressed row. Its numbers are pinned, so a drift in the residency
//! model fails here.

use blockgnn::engine::{BackendKind, EngineBuilder, InferRequest};
use blockgnn::gnn::ModelKind;
use blockgnn::graph::{CsrGraph, Dataset, DatasetSpec};
use blockgnn::nn::Compression;
use blockgnn::perf::resources::{NODE_FEATURE_BUFFER_BYTES, WEIGHT_BUFFER_BYTES};
use std::sync::Arc;

/// The §IV-B on-chip budget: the Weight Buffer plus the Node-Feature
/// Buffer (the two SRAM structures the paper sizes; the streaming
/// execution model ping-pongs parts through the latter).
const DEVICE_BUDGET_BYTES: usize = WEIGHT_BUFFER_BYTES + NODE_FEATURE_BUFFER_BYTES;

/// 16× the `pubmed-small` stand-in (1 970 nodes / 4 430 edges), same
/// feature and label shape — comfortably past the issue's ≥10× bar.
fn big_dataset() -> Arc<Dataset> {
    let spec = DatasetSpec::new("pubmed-x16", 16 * 1_970, 16 * 4_430, 64, 3);
    Arc::new(Dataset::synthesize(&spec, 0.8, 1.0, 23))
}

#[test]
fn sixteen_x_pubmed_serves_inside_the_device_budget_only_when_compressed() {
    let ds = big_dataset();
    let sequential = EngineBuilder::new(ModelKind::Gcn, BackendKind::Dense)
        .hidden_dim(16)
        .compression(Compression::BlockCirculant { block_size: 16 })
        .seed(5)
        .build(Arc::clone(&ds))
        .expect("engine builds")
        .session()
        .infer(&InferRequest::full_graph(vec![0, 1_970, 19_717]))
        .expect("serves");
    let mut parallel = EngineBuilder::new(ModelKind::Gcn, BackendKind::Dense)
        .hidden_dim(16)
        .compression(Compression::BlockCirculant { block_size: 16 })
        .seed(5)
        .build(Arc::clone(&ds))
        .expect("engine builds")
        .into_parallel(2)
        .expect("workers");

    // The compression win is real on this graph…
    let flat = ds.graph.adjacency_bytes();
    let packed = parallel.compressed_adjacency_bytes();
    assert_eq!(packed, ds.graph.compressed_adjacency_bytes());
    assert_eq!((packed, flat), (413_022, 693_124), "the adjacency size model moved");
    assert!(
        packed < flat,
        "delta-varint adjacency ({packed} B) must undercut the flat u32 layout ({flat} B)"
    );

    // …and it is exactly what brings residency inside the budget: with
    // the flat adjacency swapped in, the same accounting blows it.
    let resident = parallel.device_resident_bytes();
    assert_eq!(resident, 618_694, "the residency model moved");
    assert!(
        resident <= DEVICE_BUDGET_BYTES,
        "compressed residency ({resident} B) must fit the §IV-B budget \
         ({DEVICE_BUDGET_BYTES} B)"
    );
    let uncompressed_equivalent = resident - packed + flat;
    assert!(
        uncompressed_equivalent > DEVICE_BUDGET_BYTES,
        "the flat layout ({uncompressed_equivalent} B) should NOT fit — otherwise this \
         graph is too small to prove anything"
    );

    // Budget fitting is worthless if the engine cannot actually answer:
    // serve the full graph and match the sequential engine bit-for-bit.
    let request = InferRequest::full_graph(vec![0, 1_970, 19_717]);
    let response = parallel.session().infer(&request).expect("serves");
    assert!(response.parts > 2, "the budget must force a real multi-part plan");
    assert_eq!(response.logits.linf_distance(&sequential.logits), 0.0, "parity");
    assert_eq!(response.predictions, sequential.predictions);
}

#[test]
fn per_part_feature_windows_respect_the_streaming_budget() {
    // The streaming model's invariant: every part's resident window
    // (targets + halo at the backend's scalar width) fits the per-part
    // budget, so the peak term in `device_resident_bytes` is honest.
    let ds = big_dataset();
    let parallel = EngineBuilder::new(ModelKind::Gcn, BackendKind::Dense)
        .hidden_dim(16)
        .compression(Compression::BlockCirculant { block_size: 16 })
        .seed(5)
        .build(Arc::clone(&ds))
        .expect("engine builds")
        .into_parallel(2)
        .expect("workers");
    let width = ds.feature_dim().max(16);
    let bytes = BackendKind::Dense.bytes_per_feature();
    let budget = blockgnn::engine::DEFAULT_PART_BUDGET_BYTES;
    assert!(parallel.parts().len() > 2);
    for part in parallel.parts() {
        assert!(part.feature_bytes(width, bytes) <= budget, "part window exceeds budget");
    }
    assert!(parallel.partition_balance() >= 1.0);
}

#[test]
fn resident_bytes_accounts_the_row_table_and_payload() {
    // The accounting contract the §IV-B budget check leans on: the
    // compressed footprint is the varint payload plus a u32 row table,
    // and on gap-friendly (locally clustered) graphs it undercuts the
    // flat u32 adjacency. 2 676 bytes: a 401-entry row table, then per
    // row a first-neighbor varint (two bytes once the id reaches 128)
    // and a one-byte gap of 2 (two bytes in rows 0 and 399, gap 398).
    let ring: Vec<(usize, usize)> = (0..400).map(|u| (u, (u + 1) % 400)).collect();
    let graph = CsrGraph::from_edges(400, &ring, true).expect("builds");
    let compressed = graph.compressed_adjacency_bytes();
    assert_eq!(compressed, 2_676, "the adjacency size model moved");
    assert!(compressed >= (graph.num_nodes() + 1) * 4);
    assert!(
        compressed < graph.adjacency_bytes(),
        "ring adjacency should compress well below the flat layout \
         ({compressed} vs {} bytes)",
        graph.adjacency_bytes()
    );
}

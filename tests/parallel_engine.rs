//! Partition-parallel serving parity: sharded full-graph (and sampled)
//! inference must reproduce the single-threaded path — bit-identically
//! on the dense backend, within FFT tolerance on the spectral paths —
//! for all four model kinds, including degenerate `k = 1` partitions,
//! overlapping halos, and merged hardware reports.

use blockgnn::engine::{
    BackendKind, Engine, EngineBuilder, EngineError, GraphDelta, InferRequest,
    DEFAULT_PART_BUDGET_BYTES,
};
use blockgnn::gnn::ModelKind;
use blockgnn::graph::partition::partition_degree_balanced;
use blockgnn::graph::{datasets, Dataset};
use blockgnn::nn::Compression;
use proptest::prelude::*;
use std::sync::Arc;

fn task() -> Arc<Dataset> {
    Arc::new(datasets::pubmed_like_small(11))
}

fn engine_for(kind: ModelKind, backend: BackendKind, dataset: &Arc<Dataset>) -> Engine {
    EngineBuilder::new(kind, backend)
        .hidden_dim(16)
        .compression(Compression::BlockCirculant { block_size: 8 })
        .seed(41)
        .build(Arc::clone(dataset))
        .expect("engine builds")
}

fn parallel_for(
    kind: ModelKind,
    backend: BackendKind,
    dataset: &Arc<Dataset>,
    workers: usize,
) -> Engine {
    engine_for(kind, backend, dataset).into_parallel(workers).expect("workers > 0")
}

#[test]
fn parallel_full_graph_logits_are_bit_identical_for_every_model_kind() {
    // The staged execution contract: every row is produced by exactly
    // the same arithmetic as the sequential pass, so even the spectral
    // backends match bit-for-bit (each row's FFTs see the same inputs).
    let ds = task();
    let request = InferRequest::all_nodes();
    for kind in ModelKind::all() {
        for backend in [BackendKind::Dense, BackendKind::Spectral] {
            let sequential =
                engine_for(kind, backend, &ds).session().infer(&request).expect("serves");
            let mut parallel = parallel_for(kind, backend, &ds, 4);
            let sharded = parallel.session().infer(&request).expect("serves");
            assert!(sharded.parts >= 4, "{kind}/{backend}: expected a real shard");
            let drift = sharded.logits.linf_distance(&sequential.logits);
            assert_eq!(drift, 0.0, "{kind}/{backend}: parallel drifted by {drift:.3e}");
            assert_eq!(sharded.predictions, sequential.predictions);
        }
    }
}

#[test]
fn degenerate_single_part_partition_matches_too() {
    // k = 1: one worker runs one part covering the whole graph — the
    // widened engine collapses to the sequential one.
    let ds = Arc::new(datasets::cora_like_small(3));
    for kind in ModelKind::all() {
        let sequential = engine_for(kind, BackendKind::Dense, &ds)
            .session()
            .infer(&InferRequest::all_nodes())
            .expect("serves");
        let mut parallel = parallel_for(kind, BackendKind::Dense, &ds, 1);
        assert_eq!(parallel.parts().len(), 1, "{kind}: one worker runs one part");
        let merged = parallel.session().infer(&InferRequest::all_nodes()).expect("serves");
        assert_eq!(merged.parts, 1);
        assert_eq!(merged.logits.linf_distance(&sequential.logits), 0.0, "{kind} k=1 drift");
    }
}

#[test]
fn parts_have_overlapping_halos_and_cover_every_node_once() {
    // On the SBM stand-ins neighbors scatter across the id space, so
    // adjacent contiguous parts genuinely share halo nodes — the case
    // the row-aligned merge has to get right.
    let ds = task();
    let parallel = parallel_for(ModelKind::Gcn, BackendKind::Dense, &ds, 4);
    let parts = parallel.parts();
    assert!(parts.len() >= 4);
    let mut covered = vec![0usize; ds.num_nodes()];
    for part in &parts {
        for &v in &part.nodes {
            covered[v as usize] += 1;
        }
    }
    assert!(covered.iter().all(|&c| c == 1), "parts must tile the node set exactly");
    let overlaps = parts
        .windows(2)
        .filter(|w| w[0].halo.iter().any(|h| w[1].halo.binary_search(h).is_ok()))
        .count();
    assert!(overlaps > 0, "expected at least one pair of parts with overlapping halos");
}

#[test]
fn simulated_accel_merged_report_equals_the_sequential_report() {
    // §IV-C accounting: per-part cycle reports merged by summation must
    // reproduce the unpartitioned report exactly (the cycle model is
    // per-node linear), and energy must sum to the sequential estimate.
    // A repeated pass (logits cache dropped) is billed like the first:
    // the accelerator has no aggregation cache, so every node costs again.
    let ds = task();
    let request = InferRequest::all_nodes();
    for kind in ModelKind::all() {
        let sequential = engine_for(kind, BackendKind::SimulatedAccel, &ds)
            .session()
            .infer(&request)
            .expect("serves");
        let mut parallel = parallel_for(kind, BackendKind::SimulatedAccel, &ds, 4);
        let sharded = parallel.session().infer(&request).expect("serves");
        parallel.clear_full_graph_cache();
        let repeated = parallel.session().infer(&request).expect("serves");
        for (pass, response) in [("first", sharded), ("repeated", repeated)] {
            let what = format!("{kind} {pass} pass");
            assert!(!response.from_cache, "{what}: a real pass");
            assert_eq!(response.logits.linf_distance(&sequential.logits), 0.0, "{what} logits");
            let (seq_sim, par_sim) = (
                sequential.sim.as_ref().expect("accel reports"),
                response.sim.expect("accel reports"),
            );
            assert_eq!(par_sim.total_cycles, seq_sim.total_cycles, "{what}: merged cycles");
            assert_eq!(par_sim.num_nodes, seq_sim.num_nodes, "{what}: merged node count");
            let (seq_e, par_e) =
                (sequential.energy_joules.unwrap(), response.energy_joules.unwrap());
            assert!((seq_e - par_e).abs() < 1e-9 * seq_e.abs().max(1.0), "{what}: energy");
        }
    }
}

#[test]
fn large_sampled_requests_shard_and_match_the_sequential_sampled_path() {
    // Same sampling seed => same sub-universe; the sharded staged
    // execution must reproduce the one-worker result bit-for-bit.
    let ds = task();
    let nodes: Vec<usize> = (0..200).map(|i| (i * 7) % ds.num_nodes()).collect();
    let request = InferRequest::sampled(nodes, 6, 4, 99);
    for kind in ModelKind::all() {
        let sequential = engine_for(kind, BackendKind::Dense, &ds)
            .session()
            .infer(&request)
            .expect("serves");
        let mut parallel = parallel_for(kind, BackendKind::Dense, &ds, 4);
        let sharded = parallel.session().infer(&request).expect("serves");
        assert!(sharded.parts >= 4, "{kind}: a 200-node batch should shard");
        assert_eq!(
            sharded.logits.linf_distance(&sequential.logits),
            0.0,
            "{kind} sampled parity"
        );
    }
    // Below the sharding threshold a single worker answers.
    let mut parallel = parallel_for(ModelKind::Gcn, BackendKind::Dense, &ds, 4);
    let micro = parallel
        .session()
        .infer(&InferRequest::sampled(vec![1, 2, 3], 6, 4, 99))
        .expect("serves");
    assert_eq!(micro.parts, 1, "micro-batches stay on one worker");
}

#[test]
fn sharded_sampled_hardware_charge_equals_sequential() {
    let ds = task();
    let nodes: Vec<usize> = (0..150).collect();
    let request = InferRequest::sampled(nodes, 5, 3, 7);
    let sequential = engine_for(ModelKind::GsPool, BackendKind::SimulatedAccel, &ds)
        .session()
        .infer(&request)
        .expect("serves");
    let mut parallel = parallel_for(ModelKind::GsPool, BackendKind::SimulatedAccel, &ds, 3);
    let sharded = parallel.session().infer(&request).expect("serves");
    assert_eq!(
        sharded.sim.unwrap().total_cycles,
        sequential.sim.unwrap().total_cycles,
        "per-part charges must sum to the sequential sampled charge"
    );
}

#[test]
fn parallel_cache_and_stats_semantics_match_the_sequential_engine() {
    let ds = Arc::new(datasets::cora_like_small(9));
    let mut parallel = parallel_for(ModelKind::Gcn, BackendKind::SimulatedAccel, &ds, 2);
    let k = parallel.parts().len();
    let mut session = parallel.session();
    let first = session.infer(&InferRequest::all_nodes()).expect("serves");
    assert!(!first.from_cache);
    assert_eq!(first.parts, k);
    assert!(first.sim.is_some() && first.energy_joules.is_some());
    let second = session.infer(&InferRequest::full_graph(vec![0, 1])).expect("serves");
    assert!(second.from_cache, "second full-graph request hits the cache");
    assert_eq!(second.parts, 0, "cache hits execute no parts");
    assert!(second.sim.is_none() && second.energy_joules.is_none());
    let stats = session.finish();
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.full_graph_cache_hits, 1);
    assert_eq!(stats.parts_executed, k);
    assert!(stats.simulated_cycles > 0);
}

#[test]
fn zero_workers_is_rejected_and_errors_propagate() {
    let ds = Arc::new(datasets::cora_like_small(2));
    let err = engine_for(ModelKind::Gcn, BackendKind::Dense, &ds).into_parallel(0).unwrap_err();
    assert!(matches!(err, EngineError::NoWorkers));
    let mut parallel = parallel_for(ModelKind::Gcn, BackendKind::Dense, &ds, 2);
    let mut session = parallel.session();
    assert!(matches!(
        session.infer(&InferRequest::full_graph(vec![usize::MAX])).unwrap_err(),
        EngineError::NodeOutOfRange { .. }
    ));
    assert!(matches!(
        session.infer(&InferRequest::sampled(Vec::new(), 2, 2, 0)).unwrap_err(),
        EngineError::EmptyRequest
    ));
}

#[test]
fn parallel_beats_sequential_wall_clock_when_cores_allow() {
    // The scaling claim, asserted only where it is physically possible:
    // with ≥ 4 cores, 4 workers must beat single-threaded full-graph
    // inference on the largest built-in dataset. On smaller hosts the
    // stack benchmark's `engine.par2_*` rungs still time a widened pass.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores < 4 {
        eprintln!("skipping wall-clock assertion: only {cores} core(s) available");
        return;
    }
    let ds = task();
    let request = InferRequest::all_nodes();
    let mut sequential = engine_for(ModelKind::Gcn, BackendKind::Spectral, &ds);
    let mut parallel = parallel_for(ModelKind::Gcn, BackendKind::Spectral, &ds, 4);
    let time = |f: &mut dyn FnMut()| {
        f(); // warm up (FFT plans, allocator)
        let start = std::time::Instant::now();
        for _ in 0..5 {
            f();
        }
        start.elapsed()
    };
    let seq = time(&mut || {
        sequential.clear_full_graph_cache();
        sequential.session().infer(&request).expect("serves");
    });
    let par = time(&mut || {
        parallel.clear_full_graph_cache();
        parallel.session().infer(&request).expect("serves");
    });
    assert!(
        par < seq,
        "4-worker full-graph inference ({par:?}) should beat sequential ({seq:?}) on {cores} cores"
    );
}

#[test]
fn a_sibling_delta_moves_the_widened_engine_to_the_new_plan() {
    // A graph delta through a sibling's `GraphHandle` must move the
    // widened engine to the new version: the next pass runs the new
    // version's plan and answers with its logits, bit for bit.
    let ds = task();
    let request = InferRequest::all_nodes();
    let source = engine_for(ModelKind::Gcn, BackendKind::Dense, &ds);
    let handle = source.graph_handle();
    let mut parallel = source.into_parallel(4).expect("workers");
    parallel.session().infer(&request).expect("serves");
    let n = ds.num_nodes();
    handle.apply_delta(&GraphDelta::new().add_edge(0, n - 1)).expect("applies");
    let reference = engine_for(ModelKind::Gcn, BackendKind::Dense, &parallel.dataset())
        .session()
        .infer(&request)
        .expect("serves");
    let recomputed = parallel.session().infer(&request).expect("serves");
    assert!(!recomputed.from_cache, "a bumped version must recompute");
    assert_eq!(recomputed.graph_version, 1, "the plan follows the version");
    assert_eq!(
        recomputed.logits.linf_distance(&reference.logits),
        0.0,
        "the answer is the new version's, bit for bit"
    );
    parallel.clear_full_graph_cache();
    let repeated = parallel.session().infer(&request).expect("serves");
    assert_eq!(repeated.logits.linf_distance(&reference.logits), 0.0);
}

#[test]
fn degree_balanced_is_the_default_and_reports_plan_balance() {
    let ds = task();
    let request = InferRequest::all_nodes();
    let sequential = engine_for(ModelKind::Gcn, BackendKind::Dense, &ds)
        .session()
        .infer(&request)
        .expect("serves");
    let mut balanced = parallel_for(ModelKind::Gcn, BackendKind::Dense, &ds, 4);
    let parts = balanced.parts();
    let width = ds.feature_dim().max(16);
    assert_eq!(parts, partition_degree_balanced(&ds.graph, parts.len(), width));
    assert!(balanced.partition_balance() >= 1.0, "balance is max/mean work");
    // Cut placement is a performance matter, never a correctness one.
    let answer = balanced.session().infer(&request).expect("serves");
    assert_eq!(answer.logits.linf_distance(&sequential.logits), 0.0);
}

#[test]
fn memory_budget_forces_finer_partitions_than_the_worker_count() {
    // The §IV-B-derived budget must drive k above the worker count when
    // the graph's features outgrow it, with every part's resident
    // features (targets + halo) inside it.
    let ds = task();
    let bytes = BackendKind::Dense.bytes_per_feature();
    let width = ds.feature_dim().max(16);
    assert!(ds.num_nodes() * width * bytes > 2 * DEFAULT_PART_BUDGET_BYTES);
    let parallel = parallel_for(ModelKind::Gcn, BackendKind::Dense, &ds, 2);
    let parts = parallel.parts();
    assert!(parts.len() > 2, "the budget should out-split the worker count");
    for part in parts {
        assert!(
            part.feature_bytes(width, bytes) <= DEFAULT_PART_BUDGET_BYTES,
            "part residency exceeds the budget"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    // Sharding pins on the *unique* interned target count, not the raw
    // request length: a batch of duplicates is a tiny sub-universe and
    // must stay on one worker — and answer exactly like the sequential
    // sampled path either way.
    #[test]
    fn prop_sampled_sharding_counts_unique_targets_not_raw_length(
        base in proptest::collection::vec(0usize..200, 4..12),
        copies in 8usize..16,
    ) {
        let ds = Arc::new(datasets::cora_like_small(6));
        let n = ds.num_nodes();
        let mut nodes = Vec::new();
        for _ in 0..copies {
            nodes.extend(base.iter().map(|&v| v % n));
        }
        prop_assert!(nodes.len() >= 32, "raw length clears the shard threshold");
        let request = InferRequest::sampled(nodes, 6, 4, 17);
        let sequential = engine_for(ModelKind::Gcn, BackendKind::Dense, &ds)
            .session()
            .infer(&request)
            .expect("serves");
        let mut parallel = parallel_for(ModelKind::Gcn, BackendKind::Dense, &ds, 4);
        let sharded = parallel.session().infer(&request).expect("serves");
        prop_assert_eq!(
            sharded.parts, 1,
            "at most 11 unique targets is below the 32-row threshold"
        );
        prop_assert_eq!(sharded.logits.linf_distance(&sequential.logits), 0.0);
        prop_assert_eq!(sharded.predictions, sequential.predictions);
    }
}

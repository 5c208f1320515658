//! Integration tests for the unified inference engine: backend parity
//! across all four model kinds, simulated-accelerator reporting, session
//! statistics, caching, and error handling.

use blockgnn::core::{BlockCirculantMatrix, FixedSpectralBlockCirculant};
use blockgnn::engine::{BackendKind, EngineBuilder, EngineError, InferRequest, RequestMode};
use blockgnn::gnn::{build_model, GnnModel, ModelKind, NormalizedAdjacency};
use blockgnn::graph::{datasets, Dataset};
use blockgnn::linalg::Matrix;
use blockgnn::nn::{Compression, ExecMode, LinearLayer};
use std::sync::Arc;

fn task() -> Arc<Dataset> {
    Arc::new(datasets::cora_like_small(5))
}

fn engine_for(
    kind: ModelKind,
    backend: BackendKind,
    dataset: &Arc<Dataset>,
) -> blockgnn::engine::Engine {
    engine_at(kind, backend, dataset, 8)
}

/// `engine_for` at circulant block size `block_size`.
fn engine_at(
    kind: ModelKind,
    backend: BackendKind,
    dataset: &Arc<Dataset>,
    block_size: usize,
) -> blockgnn::engine::Engine {
    EngineBuilder::new(kind, backend)
        .hidden_dim(16)
        .compression(Compression::BlockCirculant { block_size })
        .seed(77)
        .build(Arc::clone(dataset))
        .expect("engine builds")
}

/// The model `engine_for` serves, unprepared.
fn model_for(kind: ModelKind, dataset: &Dataset) -> Box<dyn GnnModel> {
    let compression = Compression::BlockCirculant { block_size: 8 };
    build_model(kind, dataset.feature_dim(), 16, dataset.num_classes, compression, 77)
        .expect("model builds")
}

/// GCN wired by hand from the accelerator's parts: `Â` in f64, each
/// combiner's Q16.16 product on [`FixedSpectralBlockCirculant`], then the
/// bias (and ReLU after layer 1) in f64 — an oracle for the simulated
/// accelerator that shares none of `gnn::models`' layer code.
fn q16_16_gcn_oracle(model: &mut dyn GnnModel, dataset: &Dataset) -> Matrix {
    let mut combiners: Vec<(BlockCirculantMatrix, Vec<f64>)> = Vec::new();
    model.visit_linear_layers(&mut |layer| match layer {
        LinearLayer::Circulant(c) => {
            combiners.push((c.to_block_circulant(), c.bias().to_vec()))
        }
        LinearLayer::Dense(_) => panic!("the oracle deploys block-circulant layers"),
    });
    let [(w1, b1), (w2, b2)] = <[_; 2]>::try_from(combiners).expect("GCN has two combiners");
    let layer = |w: &BlockCirculantMatrix, a: &Matrix, bias: &[f64], relu: bool| {
        let mut fx = FixedSpectralBlockCirculant::new(w).expect("power-of-two blocks");
        let mut h = fx.matmul(a.as_slice());
        for row in h.chunks_exact_mut(bias.len()) {
            for (o, &b) in row.iter_mut().zip(bias) {
                *o = if relu { (*o + b).max(0.0) } else { *o + b };
            }
        }
        Matrix::from_flat(dataset.num_nodes(), bias.len(), h).expect("one output row per node")
    };
    let adj = NormalizedAdjacency::new(&dataset.graph);
    let h1 = layer(&w1, &adj.apply(&dataset.graph, &dataset.features), &b1, true);
    layer(&w2, &adj.apply(&dataset.graph, &h1), &b2, false)
}

fn assert_same_bits(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    let same = a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits());
    assert!(same, "{what}: bits differ");
}

#[test]
fn dense_and_spectral_backends_agree_for_every_model_kind() {
    // The paper's premise: compression changes the execution substrate,
    // not the function. Same seed => same kernels; the dense backend
    // decompresses them, the spectral backend runs Algorithm 1, and the
    // logits must match to FFT rounding.
    let ds = task();
    let request = InferRequest::full_graph(vec![0, 17, 333, 679]);
    for kind in ModelKind::all() {
        let mut dense = engine_for(kind, BackendKind::Dense, &ds);
        let mut spectral = engine_for(kind, BackendKind::Spectral, &ds);
        let a = dense.session().infer(&request).expect("dense serves");
        let b = spectral.session().infer(&request).expect("spectral serves");
        let drift = a.logits.linf_distance(&b.logits);
        assert!(drift < 1e-8, "{kind}: dense/spectral drift {drift:.3e}");
        assert_eq!(a.predictions, b.predictions, "{kind}: predictions diverged");
        assert!(a.sim.is_none() && b.sim.is_none(), "software backends report no cycles");
    }
}

#[test]
fn simulated_accel_answers_in_q16_16_and_reports_cycles() {
    // The accelerator backend answers in the accelerator's arithmetic:
    // at the requested rows, bit for bit what the model computes with
    // its circulant products prepared in Q16.16 — and, for GCN, what the
    // hand-wired datapath oracle computes.
    let ds = task();
    let rows = [1usize, 2, 3, 500];
    let request = InferRequest::full_graph(rows.to_vec());
    for kind in ModelKind::all() {
        let mut accel = engine_for(kind, BackendKind::SimulatedAccel, &ds);
        let b = accel.session().infer(&request).expect("accel serves");
        let mut model = model_for(kind, &ds);
        if kind == ModelKind::Gcn {
            let oracle = q16_16_gcn_oracle(model.as_mut(), &ds);
            assert_same_bits(&b.logits, &oracle.gather_rows(rows), "GCN against the oracle");
        }
        model.prepare(ExecMode::FixedSpectral);
        let want = model.forward(&ds.graph, &ds.features, false).gather_rows(rows);
        assert_same_bits(&b.logits, &want, &format!("{kind} against its Q16.16 forward"));
        let sim = b.sim.expect("accel backend must report");
        assert!(sim.total_cycles > 0, "{kind}: zero-cycle report");
        assert!(sim.seconds > 0.0 && sim.nodes_per_second() > 0.0);
        assert!(b.energy_joules.unwrap() > 0.0, "{kind}: zero-energy report");
        let a = engine_for(kind, BackendKind::Spectral, &ds).session().infer(&request).unwrap();
        assert!(a.energy_joules.is_none());
    }
}

/// ‖Spectral − Dense‖∞ over whole-model logits: f64 FFT rounding only
/// (the worst case below measures 5.6e-16).
const SPECTRAL_BOUND: f64 = 1e-12;

/// ‖SimulatedAccel − Dense‖∞ over whole-model logits: the Q16.16
/// datapath's quantization (the worst case below measures 1.0e-4).
const ACCEL_BOUND: f64 = 1e-3;

#[test]
fn every_backend_stays_within_its_bound_of_dense() {
    let ds = task();
    let all = InferRequest::all_nodes();
    for kind in ModelKind::all() {
        for block_size in [4, 8, 16, 32] {
            let logits = |backend| {
                let mut engine = engine_at(kind, backend, &ds, block_size);
                engine.session().infer(&all).expect("a full-graph pass serves").logits
            };
            let dense = logits(BackendKind::Dense);
            for (backend, bound) in [
                (BackendKind::Spectral, SPECTRAL_BOUND),
                (BackendKind::SimulatedAccel, ACCEL_BOUND),
            ] {
                let drift = logits(backend).linf_distance(&dense);
                assert!(
                    drift <= bound,
                    "{kind} n={block_size} {backend}: {drift:.3e} > {bound:e}"
                );
            }
        }
    }
}

#[test]
fn sampled_requests_serve_batch_rows_on_all_backends() {
    let ds = task();
    for backend in BackendKind::all() {
        let mut engine = engine_for(ModelKind::GsPool, backend, &ds);
        let mut session = engine.session();
        let batch = vec![10usize, 20, 30, 40, 50];
        let response = session
            .infer(&InferRequest::sampled(batch.clone(), 6, 4, 9))
            .expect("sampled request serves");
        assert_eq!(response.logits.rows(), batch.len(), "{backend}: row count");
        assert_eq!(response.predictions.len(), batch.len());
        assert!(!response.from_cache, "sampled requests never hit the cache");
        // Deterministic per seed: replaying the request reproduces logits.
        let replay =
            session.infer(&InferRequest::sampled(batch, 6, 4, 9)).expect("replay serves");
        assert_eq!(response.logits.linf_distance(&replay.logits), 0.0, "{backend}");
    }
}

#[test]
fn sampled_requests_with_duplicate_nodes_stay_aligned() {
    // The subgraph interns each node once; duplicate ids in a request
    // must still produce one row per request position, all aligned.
    let ds = task();
    let mut engine = engine_for(ModelKind::Gcn, BackendKind::Spectral, &ds);
    let mut session = engine.session();
    let dup = session.infer(&InferRequest::sampled(vec![5, 5, 7, 5], 6, 4, 9)).unwrap();
    assert_eq!(dup.logits.rows(), 4);
    let unique = session.infer(&InferRequest::sampled(vec![5, 7], 6, 4, 9)).unwrap();
    // Same seed + same unique node set => same subgraph, so every
    // duplicate position must equal its node's unique-request row.
    for (pos, want) in [(0, 0), (1, 0), (2, 1), (3, 0)] {
        assert_eq!(
            dup.logits.row(pos),
            unique.logits.row(want),
            "request position {pos} misaligned"
        );
    }
}

#[test]
fn sampled_cycle_reports_use_request_fanouts() {
    // The cycle model must charge a sampled request with its own
    // fan-outs, not the engine's full-graph default.
    let ds = task();
    let mut engine = engine_for(ModelKind::GsPool, BackendKind::SimulatedAccel, &ds);
    let mut session = engine.session();
    let nodes = vec![1usize, 2, 3];
    let light = session.infer(&InferRequest::sampled(nodes.clone(), 2, 2, 4)).unwrap();
    let heavy = session.infer(&InferRequest::sampled(nodes, 25, 10, 4)).unwrap();
    let (light_sim, heavy_sim) = (light.sim.unwrap(), heavy.sim.unwrap());
    // Per-node cost must scale with the requested fan-out.
    let light_per_node = light_sim.total_cycles / light_sim.num_nodes as u64;
    let heavy_per_node = heavy_sim.total_cycles / heavy_sim.num_nodes as u64;
    assert!(
        heavy_per_node > 3 * light_per_node,
        "fan-out 25/10 per-node cycles ({heavy_per_node}) should dwarf 2/2 ({light_per_node})"
    );
}

#[test]
fn build_with_model_derives_hidden_width_for_the_cycle_model() {
    // Handing a trained model to build_with_model must charge cycles at
    // the model's real hidden width, not the builder default (32).
    let ds = task();
    let mut cycles = Vec::new();
    for hidden in [16usize, 64] {
        let model = blockgnn::gnn::build_model(
            ModelKind::Gcn,
            ds.feature_dim(),
            hidden,
            ds.num_classes,
            Compression::BlockCirculant { block_size: 8 },
            7,
        )
        .unwrap();
        let mut engine = EngineBuilder::new(ModelKind::Gcn, BackendKind::SimulatedAccel)
            .build_with_model(model, Arc::clone(&ds))
            .expect("engine builds");
        let response = engine.session().infer(&InferRequest::full_graph(vec![0])).unwrap();
        cycles.push(response.sim.unwrap().total_cycles);
    }
    assert!(
        cycles[1] > cycles[0],
        "hidden 64 must cost more cycles than hidden 16 (got {cycles:?}); \
         if equal, the builder default leaked into the workload"
    );
}

#[test]
fn full_graph_cache_serves_repeat_requests() {
    let ds = task();
    let mut engine = engine_for(ModelKind::Gcn, BackendKind::SimulatedAccel, &ds);
    let mut session = engine.session();
    let first = session.infer(&InferRequest::full_graph(vec![4, 5])).unwrap();
    assert!(!first.from_cache, "first full-graph request computes");
    assert!(first.sim.is_some(), "fresh computation carries its report");
    let second = session.infer(&InferRequest::full_graph(vec![4, 5])).unwrap();
    assert!(second.from_cache, "repeat full-graph request hits the cache");
    assert_eq!(first.logits.linf_distance(&second.logits), 0.0);
    // Cache hits cost the hardware nothing: no replayed report, so
    // summing per-response cost over a session never double-counts.
    assert!(second.sim.is_none() && second.energy_joules.is_none());
    // An all-nodes request is also served from the same cache.
    let all = session.infer(&InferRequest::all_nodes()).unwrap();
    assert!(all.from_cache);
    assert_eq!(all.logits.rows(), ds.num_nodes());
    assert_eq!(session.stats().full_graph_cache_hits, 2);
}

#[test]
fn session_stats_accumulate_across_requests() {
    let ds = task();
    let mut engine = engine_for(ModelKind::Gcn, BackendKind::SimulatedAccel, &ds);
    let mut session = engine.session();
    let responses = session
        .infer_batch(&[
            InferRequest::sampled(vec![0, 1], 4, 3, 1),
            InferRequest::sampled(vec![2, 3, 4], 4, 3, 2),
            InferRequest::full_graph(vec![9]),
        ])
        .expect("batch serves");
    assert_eq!(responses.len(), 3);
    let stats = session.finish();
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.nodes_served, 6);
    assert!(stats.simulated_cycles > 0);
    assert!(stats.simulated_energy_joules > 0.0);
    assert!(stats.nodes_per_second() > 0.0);
    assert!(stats.min_latency.unwrap() <= stats.max_latency);
    assert!(stats.mean_latency() >= stats.min_latency.unwrap());
}

#[test]
fn invalid_requests_are_rejected() {
    let ds = task();
    let mut engine = engine_for(ModelKind::Gcn, BackendKind::Dense, &ds);
    let mut session = engine.session();
    let oob = session.infer(&InferRequest::full_graph(vec![0, 100_000]));
    assert_eq!(
        oob.unwrap_err(),
        EngineError::NodeOutOfRange { node: 100_000, num_nodes: ds.num_nodes() }
    );
    let empty = session.infer(&InferRequest::sampled(Vec::new(), 5, 3, 0));
    assert_eq!(empty.unwrap_err(), EngineError::EmptyRequest);
    // Failed requests leave no trace in the stats.
    assert_eq!(session.stats().requests, 0);
}

#[test]
fn execute_request_fails_typed_and_leaves_the_engine_untouched() {
    // `execute_request` is a one-element coalesced batch; its slot's
    // error must come back as the call's error, exactly as typed.
    let ds = task();
    let n = ds.num_nodes();
    let mut engine = engine_for(ModelKind::Gcn, BackendKind::SimulatedAccel, &ds);
    for (request, expected) in [
        (
            InferRequest::full_graph(vec![0, n]),
            EngineError::NodeOutOfRange { node: n, num_nodes: n },
        ),
        (
            InferRequest::sampled(vec![3, n + 7], 5, 3, 0),
            EngineError::NodeOutOfRange { node: n + 7, num_nodes: n },
        ),
        (InferRequest::sampled(Vec::new(), 5, 3, 0), EngineError::EmptyRequest),
        // Fan-outs are refused by the draws they ask for — before the
        // sub-universe reserves a byte for them: one over the 2²² cap,
        // a product that overflows `usize`, and the S₁ = 0 corner,
        // where S₂ alone sizes a buffer.
        (
            InferRequest::sampled(vec![0], 1 << 21, 2, 0),
            EngineError::RequestTooLarge { arcs: 3 << 21, max: 1 << 22 },
        ),
        (
            InferRequest::sampled(vec![0, 1, 2], usize::MAX / 2, 1, 0),
            EngineError::RequestTooLarge { arcs: usize::MAX, max: 1 << 22 },
        ),
        (
            InferRequest::sampled(vec![0], 0, 1_000_000_000_000, 0),
            EngineError::RequestTooLarge { arcs: 1_000_000_000_001, max: 1 << 22 },
        ),
    ] {
        assert_eq!(engine.execute_request(&request).unwrap_err(), expected);
    }
    // The cap itself is admitted (2¹¹ × 2¹¹ draws around one target).
    let at_cap = InferRequest::sampled(vec![0], 1 << 11, (1 << 11) - 1, 0);
    assert_eq!(blockgnn::engine::validate_request(&at_cap, n), Ok(()));
    // Nothing was computed or cached on the way to those errors.
    let first = engine.execute_request(&InferRequest::full_graph(vec![0])).expect("serves");
    assert!(!first.from_cache && first.sim.is_some());
    assert_eq!((first.batch_size, first.parts, first.graph_version), (1, 1, 0));
}

#[test]
fn deploy_specs_refuse_widths_that_would_abort_the_allocator() {
    // `hidden=` and `block=` are wire numbers that size the model's
    // weights and FFT plans; each is refused typed before the dataset
    // is even generated.
    use blockgnn::server::{ServerError, TenantSpec};
    let spec = || TenantSpec::new("t", "cora-small", ModelKind::Gcn, BackendKind::Dense);
    for (bad, what) in [
        (spec().hidden_dim(1_000_000_000_000), "hidden=1000000000000"),
        (spec().hidden_dim(4097), "hidden=4097"),
        (spec().hidden_dim(0), "hidden=0"),
        (spec().block_size(0), "block=0"),
        (spec().block_size(1 << 40), "block=1099511627776"),
    ] {
        match bad.build_engine() {
            Err(ServerError::Protocol(message)) => {
                assert!(message.starts_with(what), "{message:?} should name {what}");
            }
            Err(other) => panic!("{what}: expected a protocol error, got {other:?}"),
            Ok(_) => panic!("{what}: built"),
        }
    }
}

#[test]
fn oversized_dense_weights_fail_accelerator_deployment() {
    // A fully dense model (n = 1) cannot fit the 256 KB Weight Buffer
    // once its matrices are large — the §IV-B deployability argument,
    // surfaced at engine build time... but small dense models pass (no
    // circulant weights to validate).
    let ds = task();
    let built = EngineBuilder::new(ModelKind::Gcn, BackendKind::SimulatedAccel)
        .hidden_dim(16)
        .compression(Compression::Dense)
        .build(Arc::clone(&ds));
    assert!(built.is_ok(), "dense models skip the circulant WB check");

    // An absurdly wide circulant model overflows the Weight Buffer.
    let wide = EngineBuilder::new(ModelKind::Gcn, BackendKind::SimulatedAccel)
        .hidden_dim(70_000)
        .compression(Compression::BlockCirculant { block_size: 2 })
        .build(Arc::clone(&ds));
    assert!(
        matches!(wide.unwrap_err(), EngineError::Accel(_)),
        "oversized weights must be rejected at build time"
    );
}

#[test]
fn weight_buffer_check_requires_whole_model_residency() {
    // Two layers that fit individually but not together must be
    // rejected: the serving loop assumes the whole model stays resident
    // (the §IV-B claim that the WB holds every layer at once).
    let spec = blockgnn::graph::DatasetSpec::new("wb-co-residency", 50, 200, 602, 41);
    let ds = Arc::new(blockgnn::graph::Dataset::synthesize(&spec, 0.7, 1.0, 3));
    // GCN 602 -> 1424 -> 41 at n = 16 under *packed* half-spectrum
    // accounting (9 bins × 8 B per block): spectra of 243,504 B +
    // 19,224 B; each fits the 262,144 B WB alone, the 262,728 B sum
    // does not.
    let built = EngineBuilder::new(ModelKind::Gcn, BackendKind::SimulatedAccel)
        .hidden_dim(1424)
        .compression(Compression::BlockCirculant { block_size: 16 })
        .build(Arc::clone(&ds));
    assert!(
        matches!(built.unwrap_err(), EngineError::Accel(_)),
        "per-layer-fitting model must still fail co-residency"
    );
    // A slightly narrower hidden layer (259,776 B total) brings the sum
    // under budget.
    let ok = EngineBuilder::new(ModelKind::Gcn, BackendKind::SimulatedAccel)
        .hidden_dim(1408)
        .compression(Compression::BlockCirculant { block_size: 16 })
        .build(ds);
    assert!(ok.is_ok(), "co-resident model must deploy");
}

#[test]
fn request_mode_metadata_is_preserved() {
    let ds = task();
    let mut engine = engine_for(ModelKind::Ggcn, BackendKind::Spectral, &ds);
    assert_eq!(engine.model_kind(), ModelKind::Ggcn);
    assert_eq!(engine.backend_kind(), BackendKind::Spectral);
    assert_eq!(engine.dataset().num_nodes(), ds.num_nodes());
    let request = InferRequest::paper_sampled(vec![7], 3);
    assert_eq!(request.mode, RequestMode::Sampled { s1: 25, s2: 10, seed: 3 });
    let mut session = engine.session();
    let response = session.infer(&request).expect("serves");
    assert_eq!(response.logits.rows(), 1);
}

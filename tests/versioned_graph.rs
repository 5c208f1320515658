//! Differential test harness for streaming graph updates: an
//! incrementally updated graph must be **bit-identical** to a
//! from-scratch rebuild at every version — structurally (CSR splicing
//! vs `from_edges`), functionally (`Session::infer` logits bits), and
//! in hardware accounting (`SimReport` cycles and energy) — for all
//! four `ModelKind`s on all three backends. Plus the never-stale
//! regressions: a cached-then-mutated graph cannot serve stale GCN `Â`
//! normalization, a stale sampled interning, or a stale full-graph
//! logits cache. Engines widened with `into_parallel` are held to the
//! same standard — the plan and sampled executions follow the version —
//! including under a concurrent writer. A panicked full-graph pass must
//! not wedge later updates, and a widened pass re-raises its worker's
//! own panic. The Spectral GCN's table of transformed feature rows starts
//! over after every delta kind.

use blockgnn::engine::{BackendKind, Engine, EngineBuilder, EngineError, InferRequest};
use blockgnn::gnn::models::{StageInputs, StageOut};
use blockgnn::gnn::{build_model, GnnModel, ModelKind};
use blockgnn::graph::delta::{DeltaError, GraphDelta, VersionedGraph};
use blockgnn::graph::generate::Rng64;
use blockgnn::graph::{CsrGraph, Dataset, DatasetSpec};
use blockgnn::linalg::Matrix;
use blockgnn::nn::{Compression, LinearLayer, Param};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const SEED: u64 = 9;
const HIDDEN: usize = 8;
const BLOCK: usize = 4;

fn small_dataset(seed: u64) -> Dataset {
    let spec = DatasetSpec::new("delta-test", 72, 210, 12, 3);
    Dataset::synthesize(&spec, 0.7, 1.0, seed)
}

fn engine_on(kind: ModelKind, backend: BackendKind, dataset: Arc<Dataset>) -> Engine {
    EngineBuilder::new(kind, backend)
        .hidden_dim(HIDDEN)
        .compression(Compression::BlockCirculant { block_size: BLOCK })
        .seed(SEED)
        .build(dataset)
        .expect("engine builds")
}

/// Client-side mirror of the engine's versioned state: the same deltas
/// applied to a [`VersionedGraph`], with labels extended the way the
/// engine extends them (placeholder class 0 for appended nodes).
struct Mirror {
    versioned: VersionedGraph,
    labels: Vec<usize>,
    template: Dataset,
}

impl Mirror {
    fn of(dataset: &Dataset) -> Self {
        Self {
            versioned: VersionedGraph::new(
                dataset.graph.clone(),
                dataset.features.clone(),
                true,
            )
            .expect("dataset is consistent"),
            labels: dataset.labels.clone(),
            template: dataset.clone(),
        }
    }

    fn apply(&mut self, delta: &GraphDelta) {
        self.versioned.apply(delta).expect("mirror applies the same valid delta");
        self.labels.resize(self.versioned.num_nodes(), 0);
    }

    /// The from-scratch rebuild reference dataset at the current
    /// version: adjacency reconstructed by `from_edges` over the
    /// canonical edge list, never by splicing.
    fn rebuilt_dataset(&self) -> Dataset {
        Dataset {
            graph: self.versioned.rebuild(),
            features: self.versioned.features().clone(),
            labels: self.labels.clone(),
            num_classes: self.template.num_classes,
            masks: self.template.masks.clone(),
            name: self.template.name.clone(),
        }
    }
}

/// A random-but-valid delta: adds random edges, removes a live edge,
/// perturbs a feature row, occasionally appends a node. Deterministic
/// in `rng`.
fn random_delta(versioned: &VersionedGraph, rng: &mut Rng64) -> GraphDelta {
    let n = versioned.num_nodes();
    let mut delta = GraphDelta::new();
    for _ in 0..rng.next_below(3) + 1 {
        delta = delta.add_edge(rng.next_below(n), rng.next_below(n));
    }
    if !versioned.edges().is_empty() && rng.next_below(2) == 0 {
        let (u, v) = versioned.edges()[rng.next_below(versioned.edges().len())];
        delta = delta.remove_edge(u, v);
    }
    if rng.next_below(2) == 0 {
        let row = (0..versioned.features().cols()).map(|_| rng.next_normal()).collect();
        delta = delta.set_feature_row(rng.next_below(n), row);
    }
    if rng.next_below(3) == 0 {
        let row = (0..versioned.features().cols()).map(|_| rng.next_normal()).collect();
        delta = delta.append_node(row);
    }
    delta
}

fn assert_logits_bit_identical(
    got: &blockgnn::linalg::Matrix,
    want: &blockgnn::linalg::Matrix,
    what: &str,
) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: logits bits differ");
    }
}

/// Applies `steps` random deltas to an engine and asserts bit-identity
/// (logits, `SimReport` cycles, energy) against a fresh engine on the
/// rebuilt dataset, on full-graph and sampled requests.
fn assert_incremental_matches_rebuild(
    kind: ModelKind,
    backend: BackendKind,
    seed: u64,
    steps: usize,
) {
    let dataset = Arc::new(small_dataset(seed));
    let initial_nodes = dataset.num_nodes();
    let mut engine = engine_on(kind, backend, Arc::clone(&dataset));
    let mut mirror = Mirror::of(&dataset);
    // Warm every cache on version 0 so staleness would be caught below.
    {
        let mut session = engine.session();
        session.infer(&InferRequest::all_nodes()).expect("warmup serves");
    }
    let mut rng = Rng64::new(seed ^ 0xFACE);
    for step in 0..steps {
        let delta = random_delta(&mirror.versioned, &mut rng);
        let version = engine.apply_delta(&delta).expect("valid delta applies");
        assert_eq!(version, step as u64 + 1);
        mirror.apply(&delta);
    }
    // Structural identity of the engine's incrementally spliced graph.
    let served = engine.dataset();
    let rebuilt = mirror.rebuilt_dataset();
    assert_eq!(served.graph, rebuilt.graph, "{kind} {backend}: spliced CSR != rebuilt CSR");
    assert_eq!(
        served.features.linf_distance(&rebuilt.features),
        0.0,
        "{kind} {backend}: features diverged"
    );

    let mut reference = engine_on(kind, backend, Arc::new(rebuilt));
    let a = (seed as usize) % initial_nodes;
    let b = (seed as usize >> 7) % initial_nodes;
    let requests =
        [InferRequest::all_nodes(), InferRequest::sampled(vec![a, b, a], 4, 3, seed % 50)];
    let mut session = engine.session();
    let mut ref_session = reference.session();
    for request in &requests {
        let got = session.infer(request).expect("incremental serves");
        let want = ref_session.infer(request).expect("rebuilt serves");
        let what = format!("{kind} {backend} v{} {request:?}", steps);
        assert_logits_bit_identical(&got.logits, &want.logits, &what);
        assert_eq!(got.predictions, want.predictions, "{what}: predictions");
        assert_eq!(got.sim, want.sim, "{what}: SimReport cycles must match the rebuild");
        assert_eq!(
            got.energy_joules.map(f64::to_bits),
            want.energy_joules.map(f64::to_bits),
            "{what}: energy bits"
        );
        assert_eq!(got.graph_version, steps as u64, "{what}: reported version");
    }
}

#[test]
fn every_model_and_backend_survives_a_delta() {
    // Deterministic exhaustive sweep: one delta step on every
    // ModelKind × BackendKind combination (the proptest below samples
    // the same space with random delta sequences).
    for kind in ModelKind::all() {
        for backend in BackendKind::all() {
            assert_incremental_matches_rebuild(kind, backend, 3, 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    // The acceptance gate: ≥64 random cases of incremental-vs-rebuild
    // bit-identity across all 4 models × 3 backends, with 1–3 chained
    // delta steps per case.
    #[test]
    fn prop_incremental_engine_bit_identical_to_rebuilt(
        combo in 0usize..12,
        seed in 0u64..10_000,
        steps in 1usize..4,
    ) {
        let kind = ModelKind::all()[combo / 3];
        let backend = BackendKind::all()[combo % 3];
        assert_incremental_matches_rebuild(kind, backend, seed, steps);
    }
}

#[test]
fn stale_gcn_normalization_cannot_survive_mutation() {
    // Satellite regression: GCN caches its Â normalization keyed on the
    // graph's instance id, and the engine caches full-graph logits
    // keyed on the version. Serve → mutate → serve must produce the
    // rebuilt answer, not any cached one.
    let dataset = Arc::new(small_dataset(21));
    let mut engine = engine_on(ModelKind::Gcn, BackendKind::Dense, Arc::clone(&dataset));
    let before = {
        let mut session = engine.session();
        let first = session.infer(&InferRequest::all_nodes()).expect("serves");
        assert!(!first.from_cache);
        assert_eq!(first.graph_version, 0);
        let repeat = session.infer(&InferRequest::all_nodes()).expect("serves");
        assert!(repeat.from_cache, "version-keyed cache answers repeats within a version");
        first
    };
    // Rewire heavily: hang 10 fresh edges off node 0 and drop one
    // existing edge, changing many degrees (and thus Â).
    let mut delta = GraphDelta::new();
    for v in 30..40 {
        delta = delta.add_edge(0, v);
    }
    let mut mirror = Mirror::of(&dataset);
    let (u, v) = mirror.versioned.edges()[0];
    delta = delta.remove_edge(u, v);
    engine.apply_delta(&delta).expect("applies");
    mirror.apply(&delta);

    let after = {
        let mut session = engine.session();
        session.infer(&InferRequest::all_nodes()).expect("serves")
    };
    assert!(!after.from_cache, "a bumped version must recompute, never hit the old cache");
    assert_eq!(after.graph_version, 1);
    assert_ne!(
        before.logits.linf_distance(&after.logits),
        0.0,
        "rewiring must actually change the logits for this regression to bite"
    );
    let mut reference =
        engine_on(ModelKind::Gcn, BackendKind::Dense, Arc::new(mirror.rebuilt_dataset()));
    let want = reference.session().infer(&InferRequest::all_nodes()).expect("serves");
    assert_logits_bit_identical(&after.logits, &want.logits, "post-delta full graph");
}

#[test]
fn stale_sampled_interning_cannot_survive_mutation() {
    // Same regression through the sampled path: the interning table and
    // sampled adjacency are rebuilt per request from the *current*
    // version's graph, so the same (nodes, fanouts, seed) request must
    // track the mutated adjacency exactly.
    let dataset = Arc::new(small_dataset(33));
    let mut engine = engine_on(ModelKind::GsPool, BackendKind::Spectral, Arc::clone(&dataset));
    let request = InferRequest::sampled(vec![5, 17, 5], 6, 4, 11);
    let before = engine.session().infer(&request).expect("serves");
    let mut delta = GraphDelta::new();
    for v in 50..60 {
        delta = delta.add_edge(5, v).add_edge(17, v);
    }
    let mut mirror = Mirror::of(&dataset);
    engine.apply_delta(&delta).expect("applies");
    mirror.apply(&delta);
    let after = engine.session().infer(&request).expect("serves");
    assert_ne!(
        before.logits.linf_distance(&after.logits),
        0.0,
        "densifying both targets' neighborhoods must change sampled logits"
    );
    let mut reference =
        engine_on(ModelKind::GsPool, BackendKind::Spectral, Arc::new(mirror.rebuilt_dataset()));
    let want = reference.session().infer(&request).expect("serves");
    assert_logits_bit_identical(&after.logits, &want.logits, "post-delta sampled");
    assert_eq!(after.predictions, want.predictions);
}

#[test]
fn forks_observe_updates_and_share_the_version_keyed_cache() {
    let dataset = Arc::new(small_dataset(40));
    let mut engine = engine_on(ModelKind::Gcn, BackendKind::Dense, Arc::clone(&dataset));
    let mut fork = engine.fork();
    engine.session().infer(&InferRequest::all_nodes()).expect("serves");
    // The fork hits the shared cache on the same version...
    let hit = fork.session().infer(&InferRequest::all_nodes()).expect("serves");
    assert!(hit.from_cache);
    // ...and observes the new version after a delta applied via the
    // *original* engine's handle.
    let handle = engine.graph_handle();
    let version = handle
        .apply_delta(&GraphDelta::new().add_edge(1, 60).add_edge(2, 61))
        .expect("applies");
    assert_eq!(version, 1);
    assert_eq!(fork.version(), 1);
    let fresh = fork.session().infer(&InferRequest::all_nodes()).expect("serves");
    assert!(!fresh.from_cache, "fork must recompute on the new version");
    assert_eq!(fresh.graph_version, 1);
    // And the original engine now hits the fork's freshly keyed entry.
    let hit = engine.session().infer(&InferRequest::all_nodes()).expect("serves");
    assert!(hit.from_cache);
    assert_eq!(hit.graph_version, 1);
}

#[test]
fn rejected_deltas_leave_the_version_and_graph_untouched() {
    let dataset = Arc::new(small_dataset(50));
    let engine = engine_on(ModelKind::Gcn, BackendKind::Dense, Arc::clone(&dataset));
    let n = dataset.num_nodes();
    // Rejections are checked against a derived epoch, not only the built one.
    engine.apply_delta(&GraphDelta::new().add_edge(0, n - 1)).expect("applies");
    let derived = engine.dataset();
    assert_eq!(
        engine.apply_delta(&GraphDelta::new()),
        Err(EngineError::Delta(DeltaError::EmptyDelta))
    );
    assert_eq!(
        engine.apply_delta(&GraphDelta::new().add_edge(0, n + 5)),
        Err(EngineError::Delta(DeltaError::NodeOutOfRange { node: n + 5, num_nodes: n }))
    );
    assert!(matches!(
        engine.apply_delta(&GraphDelta::new().remove_edge(0, 0)),
        Err(EngineError::Delta(DeltaError::MissingEdge { .. }))
    ));
    // A valid feature row beside a missing edge: nothing of it may stick.
    let row = vec![0.5; dataset.feature_dim()];
    assert!(matches!(
        engine.apply_delta(&GraphDelta::new().set_feature_row(1, row).remove_edge(0, 0)),
        Err(EngineError::Delta(DeltaError::MissingEdge { .. }))
    ));
    assert_eq!(engine.version(), 1, "failed deltas must not bump the version");
    assert_eq!(engine.dataset().graph, derived.graph, "or touch the adjacency");
    let bits =
        |d: &Dataset| d.features.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&engine.dataset()), bits(&derived), "or the features");
}

#[test]
fn residency_budget_rejects_growth_but_not_rewires() {
    // §IV-B/§IV-C re-check: with a zero budget every node append is
    // over budget, while pure rewires (no growth) stay exempt.
    let dataset = Arc::new(small_dataset(60));
    let engine = EngineBuilder::new(ModelKind::Gcn, BackendKind::SimulatedAccel)
        .hidden_dim(HIDDEN)
        .compression(Compression::BlockCirculant { block_size: BLOCK })
        .seed(SEED)
        .graph_budget_bytes(0)
        .build(Arc::clone(&dataset))
        .expect("engine builds");
    let grow = GraphDelta::new().append_node(vec![0.0; dataset.feature_dim()]);
    match engine.apply_delta(&grow) {
        Err(EngineError::GraphBudget { needed, budget }) => {
            assert_eq!(budget, 0);
            assert!(needed > 0);
        }
        other => panic!("expected GraphBudget rejection, got {other:?}"),
    }
    assert_eq!(engine.version(), 0);
    engine
        .apply_delta(&GraphDelta::new().add_edge(0, 1))
        .expect("rewires do not grow the resident set");
    assert_eq!(engine.version(), 1);

    // The simulated accelerator's *default* budget is the ZC706 DRAM —
    // roomy enough that small-graph appends pass.
    let accel = engine_on(ModelKind::Gcn, BackendKind::SimulatedAccel, Arc::clone(&dataset));
    accel
        .apply_delta(&GraphDelta::new().append_node(vec![0.0; dataset.feature_dim()]))
        .expect("default DRAM budget admits small growth");

    // Software backends have no budget unless one is configured.
    let dense = engine_on(ModelKind::Gcn, BackendKind::Dense, Arc::clone(&dataset));
    dense
        .apply_delta(&GraphDelta::new().append_node(vec![0.0; dataset.feature_dim()]))
        .expect("software backends are unbudgeted by default");
}

#[test]
fn widened_engine_keeps_its_version_and_takes_deltas() {
    // `into_parallel` changes how the engine executes, not what it
    // serves: the conversion keeps the current version, and later
    // deltas — through the engine or the family's handle — are served
    // by the next pass under a plan rebuilt for that version.
    let dataset = Arc::new(small_dataset(70));
    let engine = engine_on(ModelKind::Gcn, BackendKind::Dense, Arc::clone(&dataset));
    engine.apply_delta(&GraphDelta::new().add_edge(0, 7)).expect("applies");
    let mut widened = engine.into_parallel(2).expect("converts");
    assert_eq!(widened.version(), 1, "conversion keeps the current version");
    let before = widened.session().infer(&InferRequest::all_nodes()).expect("serves");
    assert_eq!(before.graph_version, 1);
    assert_eq!(widened.apply_delta(&GraphDelta::new().add_edge(0, 8)), Ok(2));
    let grow = GraphDelta::new().append_node(vec![0.5; dataset.feature_dim()]).add_edge(3, 72);
    assert_eq!(widened.graph_handle().apply_delta(&grow), Ok(3));
    let after = widened.session().infer(&InferRequest::all_nodes()).expect("serves");
    assert!(!after.from_cache, "a newer version never answers from the old cache");
    assert_eq!(after.graph_version, 3, "responses report the version they were served from");
    assert_eq!(after.logits.rows(), 73, "the plan covers the appended node");
    let mut reference = engine_on(ModelKind::Gcn, BackendKind::Dense, widened.dataset());
    let want = reference.session().infer(&InferRequest::all_nodes()).expect("serves");
    assert_logits_bit_identical(&after.logits, &want.logits, "widened v3 full graph");
}

/// Delegates to a real model, but panics in the next `forward` or
/// `forward_stage` once armed — an engine bug on demand, for
/// fault-domain regressions. Clones share the fuse, so exactly one
/// replica of a widened engine panics.
struct FusedModel {
    inner: Box<dyn GnnModel>,
    armed: Arc<AtomicBool>,
}

impl GnnModel for FusedModel {
    fn kind(&self) -> ModelKind {
        self.inner.kind()
    }
    fn hidden_dim(&self) -> usize {
        self.inner.hidden_dim()
    }
    fn forward(&mut self, graph: &CsrGraph, features: &Matrix, train: bool) -> Matrix {
        assert!(
            !self.armed.swap(false, Ordering::SeqCst),
            "fused model: injected forward panic"
        );
        self.inner.forward(graph, features, train)
    }
    fn backward(&mut self, graph: &CsrGraph, grad_logits: &Matrix) -> Matrix {
        self.inner.backward(graph, grad_logits)
    }
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params(f);
    }
    fn visit_linear_layers(&mut self, f: &mut dyn FnMut(&mut LinearLayer)) {
        self.inner.visit_linear_layers(f);
    }
    fn clone_boxed(&self) -> Box<dyn GnnModel> {
        Box::new(Self { inner: self.inner.clone_boxed(), armed: Arc::clone(&self.armed) })
    }
    fn num_stages(&self) -> usize {
        self.inner.num_stages()
    }
    fn stage_width(&self, stage: usize, feature_dim: usize) -> usize {
        self.inner.stage_width(stage, feature_dim)
    }
    fn forward_stage(
        &mut self,
        stage: usize,
        graph: &CsrGraph,
        inputs: StageInputs<'_>,
        rows: &[u32],
        out: StageOut<'_>,
    ) {
        assert!(!self.armed.swap(false, Ordering::SeqCst), "fused model: injected stage panic");
        self.inner.forward_stage(stage, graph, inputs, rows, out);
    }
}

#[test]
fn a_panicked_full_graph_pass_does_not_wedge_updates() {
    // The full-graph pass runs under the logits-cache lock, so a model
    // panic there (which the serving runtime's `catch_unwind` survives)
    // poisons it. Updates and later passes must recover that poison, or
    // the engine stays wedged for good.
    let dataset = Arc::new(small_dataset(80));
    let model = |seed| {
        build_model(
            ModelKind::Gcn,
            dataset.feature_dim(),
            HIDDEN,
            dataset.num_classes,
            Compression::BlockCirculant { block_size: BLOCK },
            seed,
        )
        .expect("model builds")
    };
    let armed = Arc::new(AtomicBool::new(false));
    let fused = FusedModel { inner: model(SEED), armed: Arc::clone(&armed) };
    let builder = || EngineBuilder::new(ModelKind::Gcn, BackendKind::Dense);
    let mut engine =
        builder().build_with_model(Box::new(fused), Arc::clone(&dataset)).expect("builds");
    armed.store(true, Ordering::SeqCst);
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        let _ = engine.session().infer(&InferRequest::all_nodes());
    }));
    assert!(crashed.is_err(), "the armed model must panic inside the pass");

    let mut mirror = Mirror::of(&dataset);
    for (step, delta) in [
        GraphDelta::new().add_edge(1, 50).add_edge(2, 51),
        GraphDelta::new().set_feature_row(4, vec![0.25; dataset.feature_dim()]),
    ]
    .iter()
    .enumerate()
    {
        assert_eq!(engine.apply_delta(delta), Ok(step as u64 + 1), "updates keep working");
        mirror.apply(delta);
    }
    let got = engine.session().infer(&InferRequest::all_nodes()).expect("serves");
    assert!(!got.from_cache);
    assert_eq!(got.graph_version, 2);
    let mut fresh = builder()
        .build_with_model(model(SEED), Arc::new(mirror.rebuilt_dataset()))
        .expect("builds");
    let want = fresh.session().infer(&InferRequest::all_nodes()).expect("serves");
    assert_logits_bit_identical(&got.logits, &want.logits, "post-panic full graph");
}

#[test]
fn a_widened_pass_reraises_its_workers_own_panic() {
    // A model panic on one worker thread of a staged pass must reach the
    // caller (the serving runtime's `catch_unwind`) as that panic, with
    // its own payload, and leave the engine serving bit-identical passes.
    let dataset = Arc::new(small_dataset(81));
    let model = || {
        build_model(
            ModelKind::Gcn,
            dataset.feature_dim(),
            HIDDEN,
            dataset.num_classes,
            Compression::BlockCirculant { block_size: BLOCK },
            SEED,
        )
        .expect("model builds")
    };
    let armed = Arc::new(AtomicBool::new(false));
    let fused = FusedModel { inner: model(), armed: Arc::clone(&armed) };
    let builder = || EngineBuilder::new(ModelKind::Gcn, BackendKind::Dense);
    let mut engine = builder()
        .build_with_model(Box::new(fused), Arc::clone(&dataset))
        .expect("builds")
        .into_parallel(2)
        .expect("widens");
    armed.store(true, Ordering::SeqCst);
    let payload = catch_unwind(AssertUnwindSafe(|| {
        let _ = engine.session().infer(&InferRequest::all_nodes());
    }))
    .expect_err("the armed stage panics inside the pass");
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
    assert_eq!(message, Some("fused model: injected stage panic"));

    let got = engine.session().infer(&InferRequest::all_nodes()).expect("serves");
    assert!(got.parts >= 2, "the pass ran the plan");
    let mut fresh = builder().build_with_model(model(), dataset).expect("builds");
    let want = fresh.session().infer(&InferRequest::all_nodes()).expect("serves");
    assert_logits_bit_identical(&got.logits, &want.logits, "post-panic widened pass");
}

/// Step `step` of the widened-engine delta stream: the four delta kinds
/// in turn, then random mixes of them.
fn stream_delta(step: usize, versioned: &VersionedGraph, rng: &mut Rng64) -> GraphDelta {
    let n = versioned.num_nodes();
    let mut row = || (0..versioned.features().cols()).map(|_| rng.next_normal()).collect();
    match step {
        0 => GraphDelta::new().add_edge(1, n - 2).add_edge(n / 2, n / 3),
        1 => {
            let (u, v) = versioned.edges()[versioned.edges().len() / 2];
            GraphDelta::new().remove_edge(u, v)
        }
        2 => GraphDelta::new().set_feature_row(n / 4, row()),
        3 => GraphDelta::new().append_node(row()).add_edge(n, 0).add_edge(n, n / 2),
        _ => random_delta(versioned, rng),
    }
}

/// A sampled request over 40 distinct targets, which a widened engine
/// runs on one worker like every sampled request.
fn wide_sampled(num_nodes: usize, salt: usize) -> InferRequest {
    let nodes: Vec<usize> = (0..40).map(|i| (i + salt) % num_nodes).collect();
    InferRequest::sampled(nodes, 4, 3, salt as u64)
}

#[test]
fn widened_engines_match_fresh_rebuilds_under_deltas() {
    let all = InferRequest::all_nodes();
    for kind in ModelKind::all() {
        for backend in [BackendKind::Dense, BackendKind::Spectral] {
            let dataset = Arc::new(small_dataset(17));
            let mut engine = engine_on(kind, backend, Arc::clone(&dataset))
                .into_parallel(3)
                .expect("widens");
            let mut mirror = Mirror::of(&dataset);
            let mut rng = Rng64::new(0xD1FF);
            // Warm every cache on version 0 so staleness would show.
            engine.session().infer(&all).expect("warmup serves");
            for step in 0..8 {
                let delta = stream_delta(step, &mirror.versioned, &mut rng);
                let version = engine.apply_delta(&delta).expect("valid delta applies");
                mirror.apply(&delta);
                assert_eq!(version, mirror.versioned.version());
                let what = format!("{kind} {backend} v{version}");
                // The reference: a fresh one-worker engine on the
                // from-scratch rebuild of this version.
                let mut reference =
                    engine_on(kind, backend, Arc::new(mirror.rebuilt_dataset()));
                let want = reference.session().infer(&all).expect("rebuilt serves");

                let cold = engine.session().infer(&all).expect("widened serves");
                assert_eq!(cold.graph_version, version, "{what}: reported version");
                assert!(cold.parts >= 3, "{what}: the pass ran the plan");
                assert_logits_bit_identical(&cold.logits, &want.logits, &what);

                engine.clear_full_graph_cache();
                let repeated = engine.session().infer(&all).expect("widened serves");
                assert_eq!(repeated.graph_version, version, "{what}: reported version");
                assert_logits_bit_identical(&repeated.logits, &want.logits, &what);

                let request = wide_sampled(mirror.versioned.num_nodes(), step);
                let got = engine.session().infer(&request).expect("widened serves");
                let want = reference.session().infer(&request).expect("rebuilt serves");
                assert_eq!(got.graph_version, version, "{what}: reported version");
                assert_eq!(got.parts, 1, "{what}: sampled requests run on one worker");
                assert_logits_bit_identical(&got.logits, &want.logits, &what);
                assert_eq!(got.predictions, want.predictions, "{what}: predictions");

                let mut covered = vec![0usize; mirror.versioned.num_nodes()];
                for part in engine.parts() {
                    for &v in &part.nodes {
                        covered[v as usize] += 1;
                    }
                }
                assert!(covered.iter().all(|&c| c == 1), "{what}: parts tile the node set");
            }
            assert!(mirror.versioned.num_nodes() > dataset.num_nodes(), "the stream appended");
        }
    }
}

#[test]
fn spectral_gcn_row_tables_start_over_after_every_delta_kind() {
    // The Spectral GCN keeps its first layer's transformed feature rows in
    // a table per graph version, which sampled reads fill and full reads
    // leave alone. Warm it by a sampled read (a full read follows), apply
    // one delta of each kind (edge add, edge remove, feature overwrite,
    // node append) and compare against a fresh engine on the rebuilt
    // dataset: sampled first, on the new version's cold table, then full,
    // then sampled again on the warm one.
    let all = InferRequest::all_nodes();
    let dataset = Arc::new(small_dataset(23));
    let mut engine = engine_on(ModelKind::Gcn, BackendKind::Spectral, Arc::clone(&dataset));
    let mut mirror = Mirror::of(&dataset);
    let mut rng = Rng64::new(0x7AB1E);
    for step in 0..4 {
        let n = mirror.versioned.num_nodes();
        engine.session().infer(&wide_sampled(n, step)).expect("warms sampled rows");
        engine.session().infer(&all).expect("serves every row");
        let delta = stream_delta(step, &mirror.versioned, &mut rng);
        let version = engine.apply_delta(&delta).expect("valid delta applies");
        mirror.apply(&delta);
        let mut reference = engine_on(
            ModelKind::Gcn,
            BackendKind::Spectral,
            Arc::new(mirror.rebuilt_dataset()),
        );
        let n = mirror.versioned.num_nodes();
        // Every target and its neighbours, the node a delta touched among
        // them: the overwritten row is n / 4 and the appended node n − 1.
        let touched = InferRequest::sampled(vec![n / 4, n - 1, 1, n / 2], 6, 4, step as u64);
        for request in [&touched, &all, &wide_sampled(n, step), &touched] {
            let what = format!("step {step} v{version} {request:?}");
            let got = engine.session().infer(request).expect("serves");
            let want = reference.session().infer(request).expect("rebuilt serves");
            assert_eq!(got.graph_version, version, "{what}: reported version");
            assert_logits_bit_identical(&got.logits, &want.logits, &what);
        }
    }
    assert!(mirror.versioned.num_nodes() > dataset.num_nodes(), "the stream appended");
}

#[test]
fn widened_engine_serves_consistent_versions_under_a_concurrent_writer() {
    // A writer applies deltas through the family's handle while the
    // widened engine serves; whichever version a response reports, its
    // logits must be that version's reference, bit for bit. The reader
    // hands the writer one token per pass, so each delta lands during
    // or right after a pass that resolved the previous version.
    let (kind, backend) = (ModelKind::GsPool, BackendKind::Spectral);
    let dataset = Arc::new(small_dataset(23));
    let mut mirror = Mirror::of(&dataset);
    let mut rng = Rng64::new(0xC0C0);
    let all = InferRequest::all_nodes();
    let sampled = wide_sampled(dataset.num_nodes(), 5);
    let mut deltas = Vec::new();
    let mut references = Vec::new();
    for step in 0..=6 {
        let mut reference = engine_on(kind, backend, Arc::new(mirror.rebuilt_dataset()));
        let mut session = reference.session();
        references.push((
            session.infer(&all).expect("rebuilt serves").logits,
            session.infer(&sampled).expect("rebuilt serves").logits,
        ));
        if step < 6 {
            let delta = stream_delta(step, &mirror.versioned, &mut rng);
            mirror.apply(&delta);
            deltas.push(delta);
        }
    }
    let mut engine =
        engine_on(kind, backend, Arc::clone(&dataset)).into_parallel(3).expect("widens");
    let handle = engine.graph_handle();
    let (token, tokens) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for delta in &deltas {
                tokens.recv().expect("the reader outlives the writer");
                handle.apply_delta(delta).expect("valid delta applies");
            }
        });
        loop {
            // The writer hangs up after its last delta; tokens past
            // that point have nobody to wake.
            let _ = token.send(());
            engine.clear_full_graph_cache();
            let full = engine.session().infer(&all).expect("widened serves");
            let (want_full, _) = &references[full.graph_version as usize];
            let what = format!("concurrent full graph v{}", full.graph_version);
            assert_logits_bit_identical(&full.logits, want_full, &what);
            let got = engine.session().infer(&sampled).expect("widened serves");
            let (_, want_sampled) = &references[got.graph_version as usize];
            let what = format!("concurrent sampled v{}", got.graph_version);
            assert_logits_bit_identical(&got.logits, want_sampled, &what);
            if got.graph_version == 6 {
                break;
            }
        }
    });
}

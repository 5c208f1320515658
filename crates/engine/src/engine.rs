//! `EngineBuilder` → [`Engine`] → [`Session`]: the serving flow.

use crate::backend::{Backend, BackendKind, RequestShape};
use crate::error::EngineError;
use crate::request::{ExecOutcome, InferRequest, InferResponse, RequestMode, PAPER_FANOUTS};
use crate::stats::ServeStats;
use crate::versioned::{lock_recover, GraphEpoch, GraphHandle, Residency, SharedGraphState};
use blockgnn_gnn::batch::{SampledBlock, UniverseBuilder};
use blockgnn_gnn::{build_model_with_policy, CompressionPolicy, GnnModel, ModelKind};
use blockgnn_graph::{Dataset, GraphDelta};
use blockgnn_nn::{Compression, NnError};
use blockgnn_perf::coeffs::HardwareCoeffs;
use blockgnn_perf::params::CirCoreParams;
use blockgnn_perf::resources::DRAM_BYTES;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configures and constructs an [`Engine`].
///
/// ```
/// use blockgnn_engine::{BackendKind, EngineBuilder, InferRequest};
/// use blockgnn_gnn::ModelKind;
/// use blockgnn_graph::datasets;
/// use std::sync::Arc;
///
/// let dataset = Arc::new(datasets::cora_like_small(7));
/// let mut engine = EngineBuilder::new(ModelKind::Gcn, BackendKind::Spectral)
///     .hidden_dim(16)
///     .build(dataset)
///     .unwrap();
/// let mut session = engine.session();
/// let response = session.infer(&InferRequest::full_graph(vec![0, 1, 2])).unwrap();
/// assert_eq!(response.predictions.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    model_kind: ModelKind,
    backend: BackendKind,
    hidden_dim: usize,
    policy: CompressionPolicy,
    seed: u64,
    fanouts: (usize, usize),
    circore: CirCoreParams,
    coeffs: HardwareCoeffs,
    graph_budget: Option<usize>,
}

impl EngineBuilder {
    /// Starts a builder for `model_kind` served on `backend`. Defaults:
    /// hidden width 32, uniform block-circulant compression with `n = 8`,
    /// seed 42, the paper's sampling fan-outs, and the base CirCore
    /// configuration on ZC706 coefficients.
    #[must_use]
    pub fn new(model_kind: ModelKind, backend: BackendKind) -> Self {
        Self {
            model_kind,
            backend,
            hidden_dim: 32,
            policy: CompressionPolicy::uniform(Compression::BlockCirculant { block_size: 8 }),
            seed: 42,
            fanouts: PAPER_FANOUTS,
            circore: CirCoreParams::base(),
            coeffs: HardwareCoeffs::zc706(),
            graph_budget: None,
        }
    }

    /// Hidden-layer width for models constructed by [`EngineBuilder::build`]
    /// ([`EngineBuilder::build_with_model`] reads the width off the
    /// supplied model instead).
    #[must_use]
    pub fn hidden_dim(mut self, hidden_dim: usize) -> Self {
        self.hidden_dim = hidden_dim;
        self
    }

    /// Uniform compression for every weight matrix.
    #[must_use]
    pub fn compression(mut self, compression: Compression) -> Self {
        self.policy = CompressionPolicy::uniform(compression);
        self
    }

    /// Per-phase compression control (the §V aggregator-only ablation).
    #[must_use]
    pub fn compression_policy(mut self, policy: CompressionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Weight-initialization seed; equal seeds yield identical weights
    /// across backends (the basis of the parity tests).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sampling fan-outs `(S₁, S₂)` the cycle model charges for
    /// full-graph requests (sampled requests are charged their own
    /// request fan-outs).
    #[must_use]
    pub fn fanouts(mut self, s1: usize, s2: usize) -> Self {
        self.fanouts = (s1, s2);
        self
    }

    /// Accelerator configuration for [`BackendKind::SimulatedAccel`].
    #[must_use]
    pub fn accelerator(mut self, params: CirCoreParams, coeffs: HardwareCoeffs) -> Self {
        self.circore = params;
        self.coeffs = coeffs;
        self
    }

    /// Device-memory budget (bytes) the §IV-B/§IV-C residency check
    /// enforces when graph updates grow the node count: the grown
    /// graph's features plus the model's packed weight spectra must fit,
    /// or [`Engine::apply_delta`] rejects the delta with
    /// [`EngineError::GraphBudget`]. Defaults to the ZC706's 1 GB DRAM
    /// for [`BackendKind::SimulatedAccel`] and to no limit for the
    /// software backends.
    #[must_use]
    pub fn graph_budget_bytes(mut self, budget: usize) -> Self {
        self.graph_budget = Some(budget);
        self
    }

    /// Builds an engine with freshly initialized weights (inference over
    /// an untrained model — useful for parity tests and benchmarks; for
    /// serving a trained model, see [`EngineBuilder::build_with_model`]).
    ///
    /// # Errors
    ///
    /// [`EngineError::Build`] for invalid dimensions/block sizes;
    /// [`EngineError::Accel`] if the simulated accelerator rejects the
    /// weights.
    pub fn build(self, dataset: Arc<Dataset>) -> Result<Engine, EngineError> {
        let model = build_model_with_policy(
            self.model_kind,
            dataset.feature_dim(),
            self.hidden_dim,
            dataset.num_classes,
            self.policy,
            self.seed,
        )?;
        self.build_with_model(model, dataset)
    }

    /// Builds an engine around an existing (typically trained) model.
    /// The model's weights are frozen into the backend's prepared form;
    /// its kind overrides the builder's.
    ///
    /// # Errors
    ///
    /// [`EngineError::Build`] for a dataset whose feature rows disagree
    /// with its node count; [`EngineError::Accel`] if the simulated
    /// accelerator rejects the weights.
    pub fn build_with_model(
        self,
        model: Box<dyn GnnModel>,
        dataset: Arc<Dataset>,
    ) -> Result<Engine, EngineError> {
        if dataset.features.rows() != dataset.num_nodes() {
            return Err(EngineError::Build(NnError::new(format!(
                "dataset has {} feature rows for {} nodes",
                dataset.features.rows(),
                dataset.num_nodes()
            ))));
        }
        let backend = Backend::new(self.backend, model, self.circore, self.coeffs)?;
        // Graph updates that grow the node count re-run the residency
        // check: the simulated accelerator is bounded by device DRAM
        // (§IV-C) unless overridden; software backends only check when
        // the caller set an explicit budget.
        let budget_bytes = match (self.backend, self.graph_budget) {
            (_, Some(budget)) => Some(budget),
            (BackendKind::SimulatedAccel, None) => Some(DRAM_BYTES),
            _ => None,
        };
        let residency = Residency {
            weight_bytes: backend.weight_bytes(),
            bytes_per_feature: self.backend.bytes_per_feature(),
            budget_bytes,
        };
        Ok(Engine {
            shared: Arc::new(SharedGraphState::new(dataset, residency)),
            workers: vec![backend],
            fanouts: self.fanouts,
            universe: UniverseBuilder::default(),
        })
    }
}

/// A prepared model bound to one (versioned) dataset and one execution
/// backend — the single front door for inference.
///
/// The engine owns immutable prepared weights: construction freezes the
/// model (see [`blockgnn_nn::ExecMode`]), and every [`Session`] serves
/// from that frozen state. The *graph*, by contrast, is versioned:
/// [`Engine::apply_delta`] applies a [`GraphDelta`] atomically and
/// publishes a new snapshot (fresh
/// [`blockgnn_graph::CsrGraph::instance_id`], version bumped by one)
/// that the next micro-batch picks up — in-flight batches finish on the
/// version they resolved at entry, and every response reports the
/// version it was served from.
///
/// Open a session with [`Engine::session`], or fork replicas for
/// concurrent serving with [`Engine::fork`]: forks share the prepared
/// weights *and* the versioned graph state (the current snapshot), and
/// each snapshot carries its own full-graph logits, so a whole worker
/// pool computes the full graph at most once per version and observes
/// updates in the same total order.
///
/// As built, an engine runs every execution on one backend. Widening it
/// with [`Engine::into_parallel`] changes *how* its full-graph passes
/// execute — sharded over a §IV-C partition plan — and nothing else:
/// same sampled path, same sessions, same coalescing, same deltas,
/// bit-identical answers.
pub struct Engine {
    /// Versioned graph state shared across the engine family (see
    /// [`crate::versioned`]): the current epoch with its caches, and the
    /// residency rule.
    pub(crate) shared: Arc<SharedGraphState>,
    /// One backend replica per worker thread; length 1 as built.
    pub(crate) workers: Vec<Backend>,
    /// Fan-outs the cycle model charges for full-graph requests.
    pub(crate) fanouts: (usize, usize),
    /// This replica's reused sampler: every sampled batch is one
    /// universe it builds (see [`blockgnn_gnn::batch`]).
    pub(crate) universe: UniverseBuilder,
}

impl Engine {
    /// Starts a builder (alias for [`EngineBuilder::new`]).
    #[must_use]
    pub fn builder(model_kind: ModelKind, backend: BackendKind) -> EngineBuilder {
        EngineBuilder::new(model_kind, backend)
    }

    /// Which of the paper's four algorithms this engine serves.
    #[must_use]
    pub fn model_kind(&self) -> ModelKind {
        self.workers[0].model.kind()
    }

    /// Which execution substrate answers requests.
    #[must_use]
    pub fn backend_kind(&self) -> BackendKind {
        self.workers[0].kind()
    }

    /// The currently served dataset snapshot (updates swap in a new
    /// `Arc`; holders of the returned one are unaffected).
    #[must_use]
    pub fn dataset(&self) -> Arc<Dataset> {
        Arc::clone(&self.shared.epoch().dataset)
    }

    /// Summed packed spectral footprint of the model's circulant layers
    /// (0 when every weight is dense) — the weight-side term of the
    /// §IV-B Weight-Buffer accounting, known for every backend so
    /// aggregate accountants (the multi-tenant registry) can sum it
    /// across engines.
    #[must_use]
    pub fn weight_bytes(&self) -> usize {
        self.workers[0].weight_bytes()
    }

    /// This engine family's current device-residency footprint under the
    /// §IV-B/§IV-C accounting: packed weight spectra plus the *current*
    /// graph version's node features at the backend's scalar width.
    /// Graph deltas that append nodes grow it. A multi-tenant registry
    /// sums this across deployed engines against one device budget.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        let dataset = &self.shared.epoch().dataset;
        self.shared.residency.bytes(dataset.num_nodes(), dataset.feature_dim())
    }

    /// The currently served graph version (0 until the first applied
    /// delta).
    #[must_use]
    pub fn version(&self) -> u64 {
        self.shared.version()
    }

    /// Applies a [`GraphDelta`] atomically and publishes the new graph
    /// version, returning it. The swap happens between micro-batches:
    /// executions already in flight finish on the version they resolved,
    /// the next batch (on every fork) sees the new one. The new version
    /// starts with no cached logits or plan, so the next full-graph
    /// request recomputes; when the delta grows the node
    /// count, the §IV-B/§IV-C feature-residency check re-runs first (see
    /// [`EngineBuilder::graph_budget_bytes`]).
    ///
    /// # Errors
    ///
    /// [`EngineError::OverCap`] for a delta past a per-delta cap;
    /// [`EngineError::Delta`] for invalid deltas (missing edge,
    /// out-of-range node, bad feature width, empty delta);
    /// [`EngineError::GraphBudget`] when growth violates the residency
    /// budget. The served graph is untouched on failure.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<u64, EngineError> {
        Ok(self.shared.apply_delta(delta)?.version)
    }

    /// A cloneable handle for applying deltas and reading the version
    /// without holding any engine replica — what the serving runtime
    /// keeps after the workers take ownership of the forks.
    #[must_use]
    pub fn graph_handle(&self) -> GraphHandle {
        GraphHandle { shared: Arc::clone(&self.shared) }
    }

    /// Opens a serving session. Sessions borrow the engine mutably (one
    /// active session at a time) and accumulate their own [`ServeStats`].
    #[must_use]
    pub fn session(&mut self) -> Session<'_> {
        Session { engine: self, stats: ServeStats::default() }
    }

    /// Drops the current version's full-graph logits, so the next
    /// full-graph request recomputes every stage (and re-charges the
    /// hardware models), and empties its table of first-layer rows, so the
    /// next sampled batch transforms every row it reads (full passes
    /// neither read nor fill the table). Useful for benchmarking the
    /// execution path itself; regular serving never needs this — both
    /// live on their epoch, and [`Engine::apply_delta`] publishes a fresh
    /// one. Affects every [`Engine::fork`] replica — the epoch is shared.
    pub fn clear_full_graph_cache(&self) {
        let epoch = self.shared.epoch();
        *lock_recover(&epoch.logits) = None;
        let emptied = epoch.take_rows_emptied(epoch.dataset.num_nodes());
        *lock_recover(&epoch.rows) = emptied;
    }

    /// Forks an independent replica for another worker thread: every
    /// backend's prepared weights and cached spectra are `Arc`-shared
    /// (see [`blockgnn_nn::ExecMode`]), as is the whole versioned graph
    /// state — the snapshot with its logits and partition plans. Forks
    /// execute concurrently and observe graph updates in the same total
    /// order — this is how the serving runtime places one engine per
    /// worker without duplicating the model.
    #[must_use]
    pub fn fork(&self) -> Engine {
        Engine {
            shared: Arc::clone(&self.shared),
            workers: self.workers.iter().map(Backend::fork).collect(),
            fanouts: self.fanouts,
            universe: UniverseBuilder::default(),
        }
    }

    /// Resolves and executes one request, returning the raw
    /// [`ExecOutcome`] (logits, hardware report, cache provenance)
    /// without response assembly: a one-element
    /// [`Engine::infer_coalesced`] batch, so solo and batched serving
    /// are one code path.
    ///
    /// # Errors
    ///
    /// [`EngineError::NodeOutOfRange`] for invalid node ids;
    /// [`EngineError::EmptyRequest`] for sampled requests with no nodes.
    pub fn execute_request(
        &mut self,
        request: &InferRequest,
    ) -> Result<ExecOutcome, EngineError> {
        let mut batch = self.infer_coalesced(std::slice::from_ref(request));
        // Unreachable: `infer_coalesced` returns one outcome per request
        // (its slots are `0..requests.len()`), so a batch of one yields one.
        batch.outcomes.pop().expect("one outcome per request")
    }

    /// Answers one full-graph request from `epoch`'s logits, computing
    /// the full-graph pass under the epoch's logits lock when it has none
    /// yet (concurrent forks block rather than duplicate the work).
    fn full_graph_outcome(&mut self, epoch: &GraphEpoch, nodes: &[usize]) -> ExecOutcome {
        let mut slot = lock_recover(&epoch.logits);
        let from_cache = slot.is_some();
        let mut parts = 0;
        let cached = slot.get_or_insert_with(|| {
            let out;
            (out, parts) = self.full_graph_pass(epoch);
            out
        });
        let logits = crate::request::full_graph_rows(&cached.logits, nodes);
        // Cache hits cost the hardware nothing — only the fresh
        // computation carries its cycle/energy report, so summing
        // per-response cost over a session stays truthful.
        let (sim, energy_joules) =
            if from_cache { (None, None) } else { (cached.sim.clone(), cached.energy_joules) };
        ExecOutcome {
            logits,
            sim,
            energy_joules,
            from_cache,
            parts,
            batch_size: 1,
            graph_version: epoch.version,
        }
    }

    /// Executes a micro-batch of requests as **one coalesced pass**: the
    /// dynamic batcher's compute core.
    ///
    /// Duplicate requests (equal nodes *and* mode) are deduplicated to a
    /// single execution; the remaining unique sampled requests are
    /// sampled as the blocks of one universe (a lone one is a one-block
    /// universe) and answered by a single model execution that reads the
    /// epoch's features in place, with per-request logits scattered back
    /// and per-request hardware cost charged on each request's own shape.
    /// Full-graph requests are answered from the epoch's logits.
    ///
    /// Every outcome is **bit-identical** to serving the same request
    /// alone ([`Engine::execute_request`], a batch of one): blocks
    /// preserve each sub-universe's exact adjacency and neighbor order
    /// (see [`blockgnn_gnn::batch`]), and the cycle model is a pure
    /// function of the per-request shape.
    ///
    /// Per-request errors (out-of-range nodes, empty sampled requests)
    /// fail only their own slot, never the batch.
    ///
    /// The graph snapshot is resolved **once** for the whole batch:
    /// every member executes against the same version (reported in its
    /// outcome), and a concurrent [`Engine::apply_delta`] only takes
    /// effect from the next batch on.
    pub fn infer_coalesced(&mut self, requests: &[InferRequest]) -> CoalescedOutcome {
        let epoch = self.shared.epoch();
        let batch_size = requests.len();
        let mut outcomes: Vec<Option<Result<ExecOutcome, EngineError>>> =
            (0..batch_size).map(|_| None).collect();
        // Dedup map: first index of each distinct request → follower
        // indexes answered by cloning the leader's outcome.
        let mut leaders: HashMap<&InferRequest, usize> = HashMap::new();
        let mut followers: Vec<(usize, usize)> = Vec::new();
        // Unique sampled requests awaiting the universe execution.
        let mut sampled: Vec<(usize, SampledBlock)> = Vec::new();
        let mut unique_executions = 0usize;
        let mut timings = StageAccum::default();
        for (i, request) in requests.iter().enumerate() {
            if let Some(&leader) = leaders.get(request) {
                followers.push((i, leader));
                continue;
            }
            leaders.insert(request, i);
            if let Err(e) = crate::request::validate_request(request, epoch.dataset.num_nodes())
            {
                outcomes[i] = Some(Err(e));
                continue;
            }
            unique_executions += 1;
            match request.mode {
                RequestMode::FullGraph => {
                    let start = Instant::now();
                    let mut outcome = self.full_graph_outcome(&epoch, &request.nodes);
                    timings.add("full_graph", start.elapsed());
                    outcome.batch_size = batch_size;
                    outcomes[i] = Some(Ok(outcome));
                }
                RequestMode::Sampled { s1, s2, seed } => {
                    sampled.push((i, SampledBlock { nodes: &request.nodes, s1, s2, seed }));
                }
            }
        }
        let merged_universe_nodes = self.execute_sampled_group(
            &epoch,
            batch_size,
            &mut outcomes,
            &sampled,
            &mut timings,
        );
        drop(leaders);
        let deduped = followers.len();
        for (i, leader) in followers {
            // Unreachable: a leader's slot is filled in the loop above
            // (an invalid request, a full-graph read) or by
            // `execute_sampled_group` (every unique sampled request), both
            // before this loop; followers only ever name leaders.
            let mut outcome =
                outcomes[leader].clone().expect("leader outcome resolved before followers");
            // A duplicate full-graph request served alone would be a
            // cache hit (the leader populated the cache), charging no
            // hardware; mirror that here. Duplicate *sampled* requests
            // keep the leader's report — solo serving re-executes and
            // re-charges them identically (the cycle model is a pure
            // function of the request shape).
            if requests[i].mode == RequestMode::FullGraph {
                if let Ok(o) = &mut outcome {
                    o.from_cache = true;
                    o.sim = None;
                    o.energy_joules = None;
                    o.parts = 0;
                }
            }
            outcomes[i] = Some(outcome);
        }
        CoalescedOutcome {
            // Unreachable: every request is a leader, filled as above, or
            // a follower, filled from its leader in the loop just above.
            outcomes: outcomes
                .into_iter()
                .map(|o| o.expect("every request slot resolved"))
                .collect(),
            unique_executions,
            deduped,
            merged_universe_nodes,
            stage_timings: timings.entries,
        }
    }

    /// Runs the unique sampled requests of a coalesced batch as one
    /// universe execution, filling their outcome slots. Returns the
    /// universe's node count.
    fn execute_sampled_group(
        &mut self,
        epoch: &GraphEpoch,
        batch_size: usize,
        outcomes: &mut [Option<Result<ExecOutcome, EngineError>>],
        sampled: &[(usize, SampledBlock)],
        timings: &mut StageAccum,
    ) -> usize {
        if sampled.is_empty() {
            return 0;
        }
        let start = Instant::now();
        let universe = self.universe.build(&epoch.dataset.graph, sampled.iter().map(|s| s.1));
        timings.add("sample", start.elapsed());
        let start = Instant::now();
        // Every member's target rows, member after member: the execution
        // returns exactly these, so each member's logits are a contiguous
        // run of its output.
        let model = &mut self.workers[0].model;
        let table = model.row_table_width().and_then(|width| epoch.row_table(width));
        let logits = model.forward_at_indexed(
            universe.graph,
            &epoch.dataset.features,
            Some(universe.local_to_global),
            universe.rows,
            table.as_deref(),
        );
        timings.add("execute", start.elapsed());
        let start = Instant::now();
        let feature_dim = epoch.dataset.feature_dim();
        let mut first = 0;
        for (&(i, block), &targets) in sampled.iter().zip(universe.unique_targets) {
            let len = block.nodes.len();
            let shape = RequestShape { target_nodes: targets, fanouts: (block.s1, block.s2) };
            let (sim, energy_joules) = self.workers[0].charge(feature_dim, shape).unzip();
            outcomes[i] = Some(Ok(ExecOutcome {
                logits: logits.gather_rows(first..first + len),
                sim,
                energy_joules,
                from_cache: false,
                parts: 1,
                batch_size,
                graph_version: epoch.version,
            }));
            first += len;
        }
        timings.add("scatter", start.elapsed());
        let nodes = universe.local_to_global.len();
        self.universe.release_oversized();
        nodes
    }
}

/// What [`Engine::infer_coalesced`] returns: one outcome per request (in
/// request order) plus batch-level accounting for the serving
/// telemetry.
#[derive(Debug)]
pub struct CoalescedOutcome {
    /// Per-request outcomes, aligned with the input slice. A request
    /// that failed validation carries its own error; it never poisons
    /// the batch.
    pub outcomes: Vec<Result<ExecOutcome, EngineError>>,
    /// Distinct executions performed after deduplication (full-graph
    /// cache hits count as their request's execution).
    pub unique_executions: usize,
    /// Requests answered by sharing an identical earlier request's
    /// execution (`requests.len() − distinct requests`).
    pub deduped: usize,
    /// Node count of the executed merged universe (0 when the batch had
    /// no sampled requests).
    pub merged_universe_nodes: usize,
    /// Wall-clock breakdown of the batch's engine stages, in first-run
    /// order (see [`StageTiming`]); stages that did not run for this
    /// batch are absent. Recording is two clock reads per stage and
    /// never touches the computed logits, so outcomes stay bit-identical
    /// with or without a consumer.
    pub stage_timings: Vec<StageTiming>,
}

/// Summed wall-clock time one named engine stage took across a coalesced
/// batch. Stage names are stable: `"sample"` (building the batch's
/// sampled universe), `"full_graph"` (cache lookup or full-graph pass),
/// `"execute"` (the model call, which reads features in place), and
/// `"scatter"` (per-request logits extraction and hardware charge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTiming {
    /// Stable stage name.
    pub stage: &'static str,
    /// Summed wall-clock duration across the batch.
    pub elapsed: Duration,
}

/// Accumulates [`StageTiming`] entries, summing repeats of a stage.
#[derive(Default)]
struct StageAccum {
    entries: Vec<StageTiming>,
}

impl StageAccum {
    fn add(&mut self, stage: &'static str, elapsed: Duration) {
        match self.entries.iter_mut().find(|e| e.stage == stage) {
            Some(entry) => entry.elapsed += elapsed,
            None => self.entries.push(StageTiming { stage, elapsed }),
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let epoch = self.shared.epoch();
        let full_graph_cached = lock_recover(&epoch.logits).is_some();
        f.debug_struct("Engine")
            .field("model", &self.model_kind())
            .field("backend", &self.backend_kind())
            .field("dataset", &epoch.dataset.name)
            .field("graph_version", &epoch.version)
            .field("workers", &self.workers.len())
            .field("full_graph_cached", &full_graph_cached)
            .finish()
    }
}

/// A serving session: answers micro-batched requests against a borrowed
/// [`Engine`] and accumulates [`ServeStats`].
#[derive(Debug)]
pub struct Session<'e> {
    engine: &'e mut Engine,
    stats: ServeStats,
}

impl Session<'_> {
    /// Answers one request.
    ///
    /// # Errors
    ///
    /// [`EngineError::NodeOutOfRange`] for invalid node ids;
    /// [`EngineError::EmptyRequest`] for sampled requests with no nodes.
    pub fn infer(&mut self, request: &InferRequest) -> Result<InferResponse, EngineError> {
        let start = Instant::now();
        let outcome = self.engine.execute_request(request)?;
        let compute_time = start.elapsed();
        // Direct sessions never queue: the whole latency is compute.
        Ok(crate::request::assemble_response(
            outcome,
            Duration::ZERO,
            compute_time,
            &mut self.stats,
        ))
    }

    /// Answers a batch of requests in order, stopping at the first error.
    ///
    /// # Errors
    ///
    /// Propagates the first [`EngineError`] encountered.
    pub fn infer_batch(
        &mut self,
        requests: &[InferRequest],
    ) -> Result<Vec<InferResponse>, EngineError> {
        requests.iter().map(|r| self.infer(r)).collect()
    }

    /// The statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The engine this session serves from.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        self.engine
    }

    /// Closes the session, returning its statistics.
    #[must_use]
    pub fn finish(self) -> ServeStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::CoalescedOutcome;
    use crate::request::RequestMode;
    use crate::versioned::lock_recover;
    use crate::{BackendKind, EngineBuilder, EngineError, GraphDelta, InferRequest};
    use blockgnn_gnn::batch::{SampledBlock, UniverseBuilder, KEPT_SCRATCH_BYTES};
    use blockgnn_gnn::ModelKind;
    use blockgnn_graph::datasets;
    use blockgnn_linalg::Matrix;
    use std::sync::Arc;

    #[test]
    fn a_straggler_on_the_old_epoch_leaves_the_new_epochs_caches_alone() {
        let dataset = Arc::new(datasets::cora_like_small(5));
        let builder = EngineBuilder::new(ModelKind::Gcn, BackendKind::Dense).hidden_dim(8);
        let all = InferRequest::all_nodes();
        let delta = GraphDelta::new().add_edge(0, 9);

        // A batch that resolved version 0 finishes its pass after version
        // 1's logits are cached: they must stay cached.
        let mut engine = builder.clone().build(Arc::clone(&dataset)).expect("builds");
        let old = engine.shared.epoch();
        engine.apply_delta(&delta).expect("applies");
        assert!(!engine.execute_request(&all).expect("serves").from_cache);
        let straggler = engine.full_graph_outcome(&old, &[]);
        assert_eq!((straggler.graph_version, straggler.from_cache), (0, false));
        let next = engine.execute_request(&all).expect("serves");
        assert_eq!((next.graph_version, next.from_cache), (1, true));

        // A staged pass on the old epoch leaves the new epoch's plan in
        // place.
        let mut widened =
            builder.build(dataset).expect("builds").into_parallel(2).expect("widens");
        let old = widened.shared.epoch();
        widened.apply_delta(&delta).expect("applies");
        assert!(widened.parts().len() >= 2);
        let plan = |e: &crate::Engine| Arc::clone(&lock_recover(&e.shared.epoch().plans)[&2]);
        let before = plan(&widened);
        let straggler = widened.full_graph_outcome(&old, &[]);
        assert_eq!((straggler.graph_version, straggler.from_cache), (0, false));
        assert!(Arc::ptr_eq(&before, &plan(&widened)));
    }

    /// Fills every replica's kept stage matrices with NaN, after checking
    /// there is something to fill.
    fn poison_stage_buffers(engine: &mut crate::Engine) {
        for worker in &mut engine.workers {
            let kept =
                worker.model.stage_buffers().expect("the zoo's models keep stage buffers");
            assert!(kept.iter().any(|m| !m.is_empty()), "a served batch left stage rows");
            for matrix in kept.iter_mut() {
                matrix.as_mut_slice().fill(f64::NAN);
            }
        }
    }

    fn assert_same_answers(got: &CoalescedOutcome, want: &CoalescedOutcome, what: &str) {
        assert_eq!(got.merged_universe_nodes, want.merged_universe_nodes, "{what}: universe");
        for (got, want) in got.outcomes.iter().zip(&want.outcomes) {
            let (got, want) = (got.as_ref().expect("serves"), want.as_ref().expect("serves"));
            let bits =
                |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(got.logits.shape(), want.logits.shape(), "{what}: shape");
            assert_eq!(bits(&got.logits), bits(&want.logits), "{what}: logits");
            assert_eq!(got.sim, want.sim, "{what}: cycle report");
        }
    }

    #[test]
    fn stale_scratch_never_shows_in_a_sampled_answer() {
        // A replica whose stage buffers hold NaN and whose intern table
        // holds stamps from a larger graph answers as a fresh engine does:
        // on the built epoch, after a node-append delta, and on a fork.
        let dataset = Arc::new(datasets::cora_like_small(5));
        let larger = datasets::pubmed_like_small(2);
        let n = dataset.num_nodes();
        let grow =
            GraphDelta::new().append_node(vec![0.25; dataset.feature_dim()]).add_edge(n, 3);
        let batch = |newest: usize| {
            vec![
                InferRequest::sampled(vec![3, 7, 3], 5, 3, 11),
                InferRequest::sampled(vec![newest, 40], 4, 2, 12),
                InferRequest::sampled(vec![3, 7, 3], 5, 3, 11),
                InferRequest::paper_sampled(vec![newest], 13),
            ]
        };
        let everything: Vec<usize> = (0..larger.num_nodes()).collect();
        for kind in ModelKind::all() {
            for backend in BackendKind::all() {
                let what = format!("{kind} {backend}");
                let builder = EngineBuilder::new(kind, backend).hidden_dim(8);
                let mut used = builder.clone().build(Arc::clone(&dataset)).expect("builds");
                let wide = SampledBlock { nodes: &everything, s1: 3, s2: 2, seed: 1 };
                let _ = used.universe.build(&larger.graph, [wide]);
                let _ = used.infer_coalesced(&batch(n - 1));
                poison_stage_buffers(&mut used);
                let mut fresh = builder.clone().build(Arc::clone(&dataset)).expect("builds");
                let want = fresh.infer_coalesced(&batch(n - 1));
                assert_same_answers(&used.infer_coalesced(&batch(n - 1)), &want, &what);

                used.apply_delta(&grow).expect("appends a node");
                poison_stage_buffers(&mut used);
                let mut fresh = builder.clone().build(used.dataset()).expect("builds");
                let want = fresh.infer_coalesced(&batch(n));
                assert_same_answers(&used.infer_coalesced(&batch(n)), &want, &what);

                let mut fork = used.fork();
                let _ = fork.universe.build(&larger.graph, [wide]);
                let _ = fork.infer_coalesced(&batch(n - 1));
                poison_stage_buffers(&mut fork);
                assert_same_answers(&fork.infer_coalesced(&batch(n)), &want, &what);
            }
        }
    }

    #[test]
    fn a_cold_a_warm_and_a_fork_warmed_row_table_answer_as_computing_every_row() {
        // The oracle: the model with no table attached (a `clone_boxed`
        // replica), over the universe the batch samples into.
        let dataset = Arc::new(datasets::cora_like_small(5));
        let batch = [
            InferRequest::sampled(vec![3, 7, 3], 5, 3, 11),
            InferRequest::paper_sampled(vec![40, 41], 12),
        ];
        let builder = EngineBuilder::new(ModelKind::Gcn, BackendKind::Spectral).hidden_dim(8);
        let mut engine = builder.clone().build(Arc::clone(&dataset)).expect("builds");
        let blocks = batch.iter().map(|request| match request.mode {
            RequestMode::Sampled { s1, s2, seed } => {
                SampledBlock { nodes: &request.nodes, s1, s2, seed }
            }
            RequestMode::FullGraph => unreachable!("the batch is sampled"),
        });
        let mut universe = UniverseBuilder::default();
        let universe = universe.build(&dataset.graph, blocks);
        let want = engine.workers[0].model.clone_boxed().forward_at_indexed(
            universe.graph,
            &dataset.features,
            Some(universe.local_to_global),
            universe.rows,
            None,
        );
        let answer = |engine: &mut crate::Engine| {
            let outcome = engine.infer_coalesced(&batch);
            let rows: Vec<Matrix> =
                outcome.outcomes.into_iter().map(|o| o.expect("serves").logits).collect();
            let bits = rows.iter().flat_map(|m| m.as_slice().iter().map(|v| v.to_bits()));
            bits.collect::<Vec<_>>()
        };
        let want: Vec<u64> = want.as_slice().iter().map(|v| v.to_bits()).collect();
        let rows_present = |engine: &crate::Engine| {
            lock_recover(&engine.shared.epoch().rows).as_ref().map_or(0, |t| t.rows_present())
        };

        // Full passes, on one worker and on two, compute `T` into stage
        // matrices and leave the table alone.
        let all = InferRequest::all_nodes();
        assert!(!engine.execute_request(&all).expect("serves").from_cache);
        let mut engine = engine.into_parallel(2).expect("widens");
        engine.clear_full_graph_cache();
        assert!(engine.execute_request(&all).expect("serves").parts >= 2);
        assert_eq!(rows_present(&engine), 0, "full passes fill no row");
        assert_eq!(answer(&mut engine), want, "cold");
        let filled = rows_present(&engine);
        assert!(filled > 0, "the cold answer filled the table");
        assert_eq!(answer(&mut engine), want, "warm");
        assert_eq!(rows_present(&engine), filled, "the warm answer computed no row");

        let mut original = builder.build(dataset).expect("builds");
        let mut fork = original.fork();
        assert_eq!(answer(&mut fork), want, "the fork, cold");
        assert_eq!(rows_present(&original), filled, "the fork filled the shared table");
        assert_eq!(answer(&mut original), want, "warmed by the fork");
        original.clear_full_graph_cache();
        assert_eq!(rows_present(&original), 0, "clearing the cache empties the table");
    }

    #[test]
    fn a_replica_keeps_a_bounded_scratch_after_the_largest_admitted_batch() {
        // 16 targets × 262 144 first-hop draws is exactly the admission
        // cap: 32 MiB of arcs, released after its batch; a normal batch
        // then leaves a fraction of the bound.
        let dataset = Arc::new(datasets::cora_like_small(5));
        let mut engine = EngineBuilder::new(ModelKind::Gcn, BackendKind::Spectral)
            .hidden_dim(8)
            .build(dataset)
            .expect("builds");
        let largest = InferRequest::sampled((0..16).collect::<Vec<_>>(), 1 << 18, 0, 3);
        let refused = InferRequest::sampled((0..17).collect::<Vec<_>>(), 1 << 18, 0, 3);
        let num_nodes = engine.dataset().num_nodes();
        assert!(crate::request::validate_request(&largest, num_nodes).is_ok());
        assert!(crate::request::validate_request(&refused, num_nodes).is_err());
        let outcome = engine.infer_coalesced(&[largest]);
        assert!(outcome.outcomes[0].is_ok());
        assert!(engine.universe.kept_bytes() <= 8, "the oversized buffers are released");
        let normal: Vec<InferRequest> =
            (0..8).map(|i| InferRequest::paper_sampled(vec![i, i + 100], i as u64)).collect();
        let _ = engine.infer_coalesced(&normal);
        for kept in [engine.universe.kept_bytes(), engine.workers[0].model.scratch_bytes()] {
            assert!(kept > 0 && kept < KEPT_SCRATCH_BYTES, "kept {kept} bytes");
        }
    }

    #[test]
    fn a_dataset_whose_features_disagree_with_its_graph_is_refused() {
        let mut dataset = datasets::cora_like_small(5);
        let n = dataset.num_nodes();
        dataset.features = Matrix::zeros(n - 1, dataset.feature_dim());
        let built = EngineBuilder::new(ModelKind::Gcn, BackendKind::Dense)
            .hidden_dim(8)
            .build(Arc::new(dataset));
        assert!(matches!(built, Err(EngineError::Build(_))), "{built:?}");
    }
}

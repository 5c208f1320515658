//! Partition-parallel execution: how one [`Engine`] runs a full-graph
//! pass across worker threads.
//!
//! §IV-C partitions graphs that exceed the accelerator's memory into
//! sub-graphs processed independently — partitioning is *how one
//! accelerator runs a graph that does not fit*, not a second
//! accelerator. Likewise here: [`Engine::into_parallel`] widens an
//! engine to `workers` backend replicas (prepared weights and cached
//! spectra are `Arc`-shared, see [`blockgnn_nn::ExecMode`]) and from
//! then on its full-graph passes execute a **plan** — the graph split
//! into [`GraphPart`]s (contiguous node ranges with their one-hop halos,
//! sized so every part's resident features fit
//! [`DEFAULT_PART_BUDGET_BYTES`]), cut on the degree curve so power-law
//! graphs stop handing one worker all the hubs. The pass is the model's
//! one staged pass ([`forward_runs`]) given each part's run of node ids:
//! every stage's runs fan out over a [`std::thread::scope`] pool, joined
//! before the next stage. A one-worker engine gives it one run over
//! every node, on the calling thread. Sampled executions (solo or a
//! coalesced batch's merged universe) are what the paper serves on one
//! accelerator, and they run on the first replica exactly as on a
//! one-worker engine. Everything else about the engine — sessions,
//! coalescing, forks, graph deltas — is unchanged, and a one-worker
//! engine never builds a plan.
//!
//! The plan is a pure function of (graph version, worker count), so it
//! lives on its epoch, one per worker count: the first pass that
//! resolves a new epoch builds that epoch's plan, and
//! [`Engine::apply_delta`] needs no hook.
//!
//! # Why stages instead of running the whole model per part
//!
//! A two-layer GNN needs the *two-hop* neighborhood of a part to compute
//! its logits in isolation; on anything but spatially local graphs that
//! closure approaches the whole graph, and per-part redundant compute
//! erases the parallel win. Instead each stage computes only its own
//! rows, writing them in place into one node-indexed matrix per stage,
//! and reads the **merged** matrices of the stages below at a one-hop
//! halo ([`GnnModel::forward_stage`](blockgnn_gnn::GnnModel::forward_stage)) —
//! zero redundant arithmetic, and every row is produced by exactly the
//! same operations as the one-worker pass, so merged logits are
//! **bit-identical** to a one-worker engine's (each row's FFTs see the
//! same inputs on the spectral paths too).
//!
//! # Hardware accounting
//!
//! §IV-C runs the sub-graphs one after another on one accelerator, and
//! Eq. 7 prices a pass at per-node cycles × nodes, so a partitioned pass
//! costs what the whole graph costs: the simulated accelerator charges
//! the pass once, for every node, whatever the plan. Like the paper's
//! accelerator, which keeps no aggregation cache (§III-C: "we just
//! leverage node prefetching"), every pass runs every stage over every
//! part, so a repeated pass is billed like the first.

use crate::backend::{BackendOutput, RequestShape};
use crate::engine::Engine;
use crate::error::EngineError;
use crate::versioned::{lock_recover, GraphEpoch};
use blockgnn_gnn::models::forward_runs;
use blockgnn_gnn::GnnModel;
use blockgnn_graph::partition::{
    partition_balance, partition_contiguous, partition_degree_balanced, GraphPart,
};
use blockgnn_graph::{CsrGraph, Dataset};
use blockgnn_perf::resources::NODE_FEATURE_BUFFER_BYTES;
use std::sync::Arc;

/// Per-part feature-residency budget: one bank of the §IV-B
/// Node-Feature Buffer (the 512 KB NFB is a ping-pong pair, so half is
/// usable while the other half is being filled by DMA).
pub const DEFAULT_PART_BUDGET_BYTES: usize = NODE_FEATURE_BUFFER_BYTES / 2;

/// How a widened engine executes one graph version's full-graph pass.
#[derive(Debug)]
pub(crate) struct Plan {
    /// Budget-fit, degree-balanced parts tiling the node set.
    parts: Vec<GraphPart>,
    /// Load-balance factor of `parts` (max part work / mean part work).
    balance: f64,
}

impl Engine {
    /// Widens this engine to `workers` worker threads: the existing
    /// backend is forked until there is one replica per worker (forks
    /// share the prepared weights and cached spectra behind `Arc`s, so
    /// this is cheap in memory), and full-graph passes from now on hand
    /// the one staged pass ([`forward_runs`]) the partition plan's runs,
    /// one thread per worker — a degree-balanced split that is at least
    /// `workers` parts **and** fits every part's resident
    /// features (targets + one-hop halo, at the backend's
    /// [`crate::BackendKind::bytes_per_feature`] scalar width) in
    /// [`DEFAULT_PART_BUDGET_BYTES`]. A pass is charged once, for every
    /// node, as on one worker. The plan follows the graph version, so
    /// [`Engine::apply_delta`], [`Engine::fork`] and
    /// [`Engine::infer_coalesced`] keep working. `into_parallel(1)`
    /// leaves a one-worker engine, whose pass is one run over every row
    /// on the calling thread.
    ///
    /// ```
    /// use blockgnn_engine::{BackendKind, EngineBuilder, GraphDelta, InferRequest};
    /// use blockgnn_gnn::ModelKind;
    /// use blockgnn_graph::datasets;
    /// use std::sync::Arc;
    ///
    /// let dataset = Arc::new(datasets::cora_like_small(7));
    /// let mut engine = EngineBuilder::new(ModelKind::Gcn, BackendKind::Dense)
    ///     .hidden_dim(16)
    ///     .build(dataset)
    ///     .unwrap()
    ///     .into_parallel(4)
    ///     .unwrap();
    /// let response = engine.session().infer(&InferRequest::all_nodes()).unwrap();
    /// assert!(response.parts >= 4, "full-graph inference is sharded");
    /// engine.apply_delta(&GraphDelta::new().add_edge(0, 9)).unwrap();
    /// let response = engine.session().infer(&InferRequest::all_nodes()).unwrap();
    /// assert_eq!(response.graph_version, 1, "the plan followed the update");
    /// ```
    ///
    /// # Errors
    ///
    /// [`EngineError::NoWorkers`] if `workers` is zero.
    pub fn into_parallel(mut self, workers: usize) -> Result<Engine, EngineError> {
        if workers == 0 {
            return Err(EngineError::NoWorkers);
        }
        self.workers.truncate(workers);
        while self.workers.len() < workers {
            self.workers.push(self.workers[0].fork());
        }
        // Build this worker count's plan now rather than on the first
        // request.
        if workers > 1 {
            self.current_plan();
        }
        Ok(self)
    }

    /// Number of worker threads (1 until [`Engine::into_parallel`]).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The current graph version's partition plan: contiguous parts
    /// with their one-hop halos, each within
    /// [`DEFAULT_PART_BUDGET_BYTES`]. A one-worker engine runs the whole
    /// graph as one part.
    #[must_use]
    pub fn parts(&self) -> Vec<GraphPart> {
        self.current_plan().parts.clone()
    }

    /// Load-balance factor of the current plan: the maximum part's work
    /// (node cost + degree per node) over the mean part's. `1.0` is
    /// perfect; see [`blockgnn_graph::partition::partition_balance`].
    #[must_use]
    pub fn partition_balance(&self) -> f64 {
        self.current_plan().balance
    }

    /// What must actually be resident on device at any instant under the
    /// §IV-C *streaming* model: the packed weights, the compressed
    /// adjacency (delta-varint column indices plus a `u32` row table),
    /// and the **largest single part's** feature window (targets + halo
    /// at the backend's scalar width) — parts stream through the feature
    /// buffer one at a time, so the peak is the max, not the sum. This
    /// is the number the ≥10×-pubmed big-graph demo checks against the
    /// §IV-B budget.
    #[must_use]
    pub fn device_resident_bytes(&self) -> usize {
        let epoch = self.shared.epoch();
        let width = self.plan_width(epoch.dataset.feature_dim());
        let bytes = self.backend_kind().bytes_per_feature();
        let plan = self.plan_for(&epoch);
        let peak_part =
            plan.parts.iter().map(|p| p.feature_bytes(width, bytes)).max().unwrap_or(0);
        self.weight_bytes() + epoch.dataset.graph.compressed_adjacency_bytes() + peak_part
    }

    /// On-device bytes of the current version's adjacency in the
    /// delta-varint layout big graphs are accounted in
    /// ([`CsrGraph::compressed_adjacency_bytes`]); compare against
    /// [`CsrGraph::adjacency_bytes`] for the compression win.
    #[must_use]
    pub fn compressed_adjacency_bytes(&self) -> usize {
        self.shared.epoch().dataset.graph.compressed_adjacency_bytes()
    }

    /// Does nothing: widened engines keep no hot-vertex cache, so every
    /// full-graph pass is cold. Kept only because the stack benchmark's
    /// `engine.par2_*` rungs still call it; it goes once the next
    /// benchmark change drops that call.
    pub fn clear_hot_cache(&self) {}

    fn current_plan(&self) -> Arc<Plan> {
        self.plan_for(&self.shared.epoch())
    }

    /// `epoch`'s plan for this engine's worker count, built on first
    /// use.
    fn plan_for(&self, epoch: &GraphEpoch) -> Arc<Plan> {
        let mut plans = lock_recover(&epoch.plans);
        let plan = plans
            .entry(self.workers.len())
            .or_insert_with(|| Arc::new(self.build_plan(&epoch.dataset)));
        Arc::clone(plan)
    }

    fn build_plan(&self, dataset: &Dataset) -> Plan {
        let graph = &dataset.graph;
        if self.workers.len() == 1 {
            let parts = partition_contiguous(graph, 1);
            return Plan { parts, balance: 1.0 };
        }
        let feature_dim = dataset.feature_dim();
        let parts = self.plan_parts(graph, feature_dim);
        let balance = partition_balance(graph, &parts, self.plan_width(feature_dim));
        Plan { parts, balance }
    }

    /// The widest row any inference stage holds resident — the per-node
    /// width residency planning uses. A stage's output row, and beside a
    /// node-local stage's output the input row it was computed from: both
    /// are resident while the stage runs, and the two-layer kinds'
    /// aggregation above reads both (GS-Pool's `t` with `h`, G-GCN's
    /// `[p ‖ q]` with `h`).
    fn plan_width(&self, feature_dim: usize) -> usize {
        let model = &self.workers[0].model;
        let mut input = feature_dim;
        let mut widest = feature_dim;
        for stage in 0..model.num_stages() {
            let width = model.stage_width(stage, feature_dim);
            let beside = if model.stage_reads_neighbors(stage) { 0 } else { input };
            widest = widest.max(width + beside);
            input = width;
        }
        widest
    }

    /// Partitions `graph` into degree-balanced parts: at least one per
    /// worker, all fitting [`DEFAULT_PART_BUDGET_BYTES`] at
    /// [`Engine::plan_width`]. Runs once per graph version. `k` is found
    /// by geometric escalation from the halo-free pigeonhole bound, not
    /// by the exact-smallest-`k` scan of
    /// [`blockgnn_graph::partition::parts_needed_for_budget`]: the
    /// search decides the cuts, so changing it would move every plan
    /// and the [`Engine::partition_balance`] that telemetry reports.
    fn plan_parts(&self, graph: &CsrGraph, feature_dim: usize) -> Vec<GraphPart> {
        let n = graph.num_nodes().max(1);
        let width = self.plan_width(feature_dim);
        let bytes = self.backend_kind().bytes_per_feature();
        let budget = DEFAULT_PART_BUDGET_BYTES;
        // No k below the halo-free pigeonhole bound can fit.
        let floor = (n * width * bytes).div_ceil(budget).clamp(1, n);
        let mut k = self.workers.len().max(floor).min(n);
        loop {
            let parts = partition_degree_balanced(graph, k, width);
            // A graph no split can fit degrades to single-node parts
            // (k = n) rather than refusing to serve: the budget steers,
            // the engine still answers.
            if k >= n || parts.iter().all(|p| p.feature_bytes(width, bytes) <= budget) {
                return parts;
            }
            k = (k + k / 2 + 1).min(n);
        }
    }

    /// One uncached full-graph pass over `epoch`, returning the output
    /// and the parts executed: the staged pass over one run of every
    /// node on one worker, over the version's plan on a widened engine,
    /// charged once for every node.
    pub(crate) fn full_graph_pass(&mut self, epoch: &GraphEpoch) -> (BackendOutput, usize) {
        let dataset = &epoch.dataset;
        let n = dataset.num_nodes();
        let ends = match self.workers.len() {
            1 => vec![n],
            _ => self.plan_for(epoch).parts.iter().map(end_of).collect(),
        };
        let mut replicas: Vec<&mut dyn GnnModel> =
            self.workers.iter_mut().map(|backend| backend.model.as_mut()).collect();
        let logits = forward_runs(&mut replicas, &dataset.graph, &dataset.features, &ends);
        let shape = RequestShape { target_nodes: n, fanouts: self.fanouts };
        let (sim, energy_joules) = self.workers[0].charge(dataset.feature_dim(), shape).unzip();
        (BackendOutput { logits, sim, energy_joules }, ends.len())
    }
}

/// Where `part`'s run of node ids ends: the plan cuts runs of
/// consecutive ids, in order ([`partition_degree_balanced`]).
fn end_of(part: &GraphPart) -> usize {
    part.nodes.last().map_or(0, |&v| v as usize + 1)
}

#[cfg(test)]
mod tests {
    use crate::versioned::lock_recover;
    use crate::{BackendKind, EngineBuilder, GraphDelta, InferRequest};
    use blockgnn_gnn::models::{StageInputs, StageOut, StageScratch};
    use blockgnn_gnn::{build_model, GnnModel, ModelKind};
    use blockgnn_graph::{datasets, CsrGraph};
    use blockgnn_linalg::Matrix;
    use blockgnn_nn::{Compression, LinearLayer, Param};
    use std::collections::HashSet;
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;

    #[test]
    fn a_one_worker_engine_never_builds_a_plan() {
        let dataset = Arc::new(datasets::cora_like_small(5));
        let mut engine = EngineBuilder::new(ModelKind::Gcn, BackendKind::Dense)
            .hidden_dim(8)
            .build(dataset)
            .expect("builds");
        let requests = [
            InferRequest::all_nodes(),
            InferRequest::sampled((0..40).collect::<Vec<_>>(), 4, 2, 1),
            InferRequest::sampled((20..60).collect::<Vec<_>>(), 4, 2, 1),
        ];
        let mut fork = engine.fork();
        for request in &requests {
            engine.execute_request(request).expect("serves");
        }
        assert!(lock_recover(&engine.shared.epoch().plans).is_empty());
        engine.apply_delta(&GraphDelta::new().add_edge(0, 9)).expect("applies");
        assert!(fork.infer_coalesced(&requests).outcomes.iter().all(Result::is_ok));
        assert!(lock_recover(&engine.shared.epoch().plans).is_empty());
        // Widening builds the current epoch's plan for two workers, and
        // no one-worker plan was ever built.
        let widened = engine.into_parallel(2).expect("widens");
        let epoch = widened.shared.epoch();
        let plans = lock_recover(&epoch.plans);
        assert_eq!((epoch.version, plans.len()), (1, 1));
        assert!(plans[&2].parts.len() >= 2);
    }

    /// Delegates to a zoo model and records each stage with the thread
    /// it ran on. Clones share the record.
    struct ThreadLog {
        inner: Box<dyn GnnModel>,
        threads: Arc<Mutex<HashSet<(usize, ThreadId)>>>,
    }

    impl GnnModel for ThreadLog {
        fn kind(&self) -> ModelKind {
            self.inner.kind()
        }
        fn hidden_dim(&self) -> usize {
            self.inner.hidden_dim()
        }
        fn forward(&mut self, graph: &CsrGraph, features: &Matrix, train: bool) -> Matrix {
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
            let threads = Arc::clone(&self.threads);
            Box::new(Self { inner: self.inner.clone_boxed(), threads })
        }
        fn num_stages(&self) -> usize {
            self.inner.num_stages()
        }
        fn stage_width(&self, stage: usize, feature_dim: usize) -> usize {
            self.inner.stage_width(stage, feature_dim)
        }
        fn stage_reads_neighbors(&self, stage: usize) -> bool {
            self.inner.stage_reads_neighbors(stage)
        }
        fn stage_scratch(&mut self) -> Option<&mut StageScratch> {
            self.inner.stage_scratch()
        }
        fn forward_stage(
            &mut self,
            stage: usize,
            graph: &CsrGraph,
            inputs: StageInputs<'_>,
            rows: &[u32],
            out: StageOut<'_>,
        ) {
            lock_recover(&self.threads).insert((stage, std::thread::current().id()));
            self.inner.forward_stage(stage, graph, inputs, rows, out);
        }
    }

    #[test]
    fn a_one_worker_pass_stays_on_the_calling_thread_and_a_widened_one_fans_out() {
        // A ~1.5 ms one-worker pass would pay for a thread spawn per
        // stage; it runs every stage on the caller's thread. Widened to
        // two workers, each stage runs on two threads, neither the caller
        // (a scoped thread per worker per stage, joined between stages).
        let dataset = Arc::new(datasets::cora_like_small(5));
        let threads = Arc::new(Mutex::new(HashSet::new()));
        let (features, classes) = (dataset.feature_dim(), dataset.num_classes);
        let inner = build_model(ModelKind::GsPool, features, 8, classes, Compression::Dense, 3)
            .expect("builds");
        let model = ThreadLog { inner, threads: Arc::clone(&threads) };
        let mut engine = EngineBuilder::new(ModelKind::GsPool, BackendKind::Dense)
            .build_with_model(Box::new(model), dataset)
            .expect("builds");
        let all = InferRequest::all_nodes();
        engine.execute_request(&all).expect("serves");
        let caller = std::thread::current().id();
        let stages = 0..4;
        let on_caller: HashSet<_> = stages.clone().map(|stage| (stage, caller)).collect();
        assert_eq!(*lock_recover(&threads), on_caller);
        lock_recover(&threads).clear();
        let mut widened = engine.into_parallel(2).expect("widens");
        widened.clear_full_graph_cache();
        let response = widened.execute_request(&all).expect("serves");
        assert!(response.parts >= 2 && !response.from_cache);
        let seen = lock_recover(&threads);
        assert!(seen.iter().all(|&(_, thread)| thread != caller), "{seen:?}");
        for stage in stages {
            let threads = seen.iter().filter(|&&(s, _)| s == stage).count();
            assert_eq!(threads, 2, "stage {stage}: {seen:?}");
        }
    }
}

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
//! graphs stop handing one worker all the hubs — running the model's
//! row-parallel inference stages over a [`std::thread::scope`] pool with
//! a barrier between stages. Sampled executions (solo or a coalesced
//! batch's merged universe) are what the paper serves on one
//! accelerator, and they run on the first replica exactly as on a
//! one-worker engine. Everything else about the engine — sessions,
//! coalescing, forks, graph deltas — is unchanged, and a one-worker
//! engine never builds or touches any of this.
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
//! Per-part hardware cost is accounted the §IV-C way: the simulated
//! accelerator charges each part's target nodes separately and the
//! per-part [`SimReport`]s merge by summation ([`SimReport::merge`] —
//! cycles combine as in the paper's two-sub-graph Reddit evaluation,
//! energy sums), reproducing the monolithic report exactly. Like the
//! paper's accelerator, which keeps no aggregation cache (§III-C: "we
//! just leverage node prefetching"), every pass runs every stage over
//! every part, so a repeated pass is billed like the first.

use crate::backend::{Backend, BackendOutput, RequestShape};
use crate::engine::Engine;
use crate::error::EngineError;
use crate::versioned::{lock_recover, GraphEpoch};
use blockgnn_accel::SimReport;
use blockgnn_gnn::batch::KEPT_SCRATCH_BYTES;
use blockgnn_gnn::models::{fit_rows, StageInputs, StageOut};
use blockgnn_gnn::GnnModel;
use blockgnn_graph::partition::{
    partition_balance, partition_contiguous, partition_degree_balanced, GraphPart,
};
use blockgnn_graph::{CsrGraph, Dataset};
use blockgnn_linalg::Matrix;
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
    /// this is cheap in memory), and full-graph passes from now on run
    /// the partition plan — a degree-balanced split that is at least
    /// `workers` parts **and** fits every part's resident
    /// features (targets + one-hop halo, at the backend's
    /// [`crate::BackendKind::bytes_per_feature`] scalar width) in
    /// [`DEFAULT_PART_BUDGET_BYTES`]. The plan follows the graph
    /// version, so [`Engine::apply_delta`], [`Engine::fork`] and
    /// [`Engine::infer_coalesced`] keep working. `into_parallel(1)`
    /// leaves a one-worker engine, which runs every stage over every row
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
    /// and the parts executed. One worker runs the model's `forward`;
    /// a widened engine runs the version's plan and charges every part's
    /// targets.
    pub(crate) fn full_graph_pass(&mut self, epoch: &GraphEpoch) -> (BackendOutput, usize) {
        let dataset = &epoch.dataset;
        if self.workers.len() == 1 {
            let shape =
                RequestShape { target_nodes: dataset.num_nodes(), fanouts: self.fanouts };
            let out = self.workers[0].execute(&dataset.graph, &dataset.features, shape);
            return (out, 1);
        }
        let plan = self.plan_for(epoch);
        let logits =
            run_staged(&mut self.workers, &dataset.graph, &dataset.features, &plan.parts);
        let (sim, energy_joules) = merge_part_charges(
            &self.workers[0],
            dataset.feature_dim(),
            self.fanouts,
            plan.parts.iter().map(|part| part.nodes.len()),
        );
        (BackendOutput { logits, sim, energy_joules }, plan.parts.len())
    }
}

/// Executes the model's inference stages over `parts`, fanning each
/// stage's parts out to the worker pool: each part's rows are written in
/// place into the stage's node-indexed matrix, which the stages above
/// read once every part is done; returns the last stage's matrix. The
/// matrices below it are the first replica's kept stage matrices
/// ([`GnnModel::stage_buffers`]), grown and never zeroed as a one-worker
/// pass keeps them, and released past [`KEPT_SCRATCH_BYTES`].
///
/// # Panics
///
/// Panics unless `parts` tile the nodes in order, each a run of
/// consecutive ids (as [`partition_degree_balanced`] cuts them).
fn run_staged(
    workers: &mut [Backend],
    graph: &CsrGraph,
    features: &Matrix,
    parts: &[GraphPart],
) -> Matrix {
    let n = graph.num_nodes();
    let feature_dim = features.cols();
    let tiled = parts.iter().flat_map(|part| &part.nodes).map(|&v| v as usize).eq(0..n);
    assert!(tiled, "parts must tile the nodes in order, each a run of consecutive ids");
    let model = &mut workers[0].model;
    let last = model.num_stages() - 1;
    let mut logits = Matrix::zeros(n, model.stage_width(last, feature_dim));
    let mut kept = model.stage_buffers().map(std::mem::take).unwrap_or_default();
    kept.resize_with(last, Matrix::default);
    for stage in 0..=last {
        let width = workers[0].model.stage_width(stage, feature_dim);
        let (below, above) = kept.split_at_mut(stage);
        let out = match above.first_mut() {
            Some(out) => {
                fit_rows(out, n, width);
                out
            }
            None => &mut logits,
        };
        let mut rest = out.as_mut_slice();
        let jobs = parts.iter().map(|part| {
            let (mine, after) =
                std::mem::take(&mut rest).split_at_mut(part.nodes.len() * width);
            rest = after;
            (part.nodes.as_slice(), mine)
        });
        let inputs = StageInputs { features, index: None, below, table: None };
        fan_out(workers, graph, jobs.collect(), |model, (rows, mine)| {
            model.forward_stage(stage, graph, inputs, rows, StageOut::listed(mine));
        });
    }
    let bytes: usize = kept.iter().map(|m| m.capacity() * 8).sum();
    if let Some(slot) = workers[0].model.stage_buffers().filter(|_| bytes <= KEPT_SCRATCH_BYTES)
    {
        *slot = kept;
    }
    logits
}

/// Runs `task` on every job over a [`std::thread::scope`] pool, one
/// thread per worker, job `i` on worker `i mod workers`.
fn fan_out<J: Send>(
    workers: &mut [Backend],
    graph: &CsrGraph,
    jobs: Vec<J>,
    task: impl Fn(&mut dyn GnnModel, J) + Sync,
) {
    let num_workers = workers.len();
    let mut assigned: Vec<Vec<J>> = (0..num_workers).map(|_| Vec::new()).collect();
    // Round-robin assignment: degree-balanced parts are near-equal in
    // work, so stride-W interleaving balances the load.
    for (i, job) in jobs.into_iter().enumerate() {
        assigned[i % num_workers].push(job);
    }
    let task = &task;
    std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .zip(assigned)
            .filter(|(_, jobs)| !jobs.is_empty())
            .map(|(backend, jobs)| {
                scope.spawn(move || {
                    // Per-graph precomputation happens inside the worker
                    // (in parallel, not serially on the caller thread);
                    // it is idempotent, so later calls hit a warm cache.
                    let model = backend.model.as_mut();
                    model.prepare_graph(graph);
                    jobs.into_iter().for_each(|job| task(model, job));
                })
            })
            .collect();
        // A worker's panic is the model's: re-raise its own payload, so
        // the caller's fault domain sees that panic rather than a second
        // one raised by the join.
        for handle in handles {
            handle.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        }
    });
}

/// Charges each part's target nodes on the hardware model and merges
/// the reports (§IV-C: sub-graphs run in sequence on one accelerator,
/// so cycles and energy sum). `None`/`None` for software backends.
fn merge_part_charges(
    backend: &Backend,
    feature_dim: usize,
    fanouts: (usize, usize),
    part_targets: impl Iterator<Item = usize>,
) -> (Option<SimReport>, Option<f64>) {
    let mut reports = Vec::new();
    let mut energy_total = 0.0;
    for targets in part_targets {
        let shape = RequestShape { target_nodes: targets, fanouts };
        match backend.charge(feature_dim, shape) {
            Some((sim, energy)) => {
                reports.push(sim);
                energy_total += energy;
            }
            None => return (None, None),
        }
    }
    match SimReport::merge(reports) {
        Some(merged) => (Some(merged), Some(energy_total)),
        None => (None, None),
    }
}

#[cfg(test)]
mod tests {
    use crate::versioned::lock_recover;
    use crate::{BackendKind, EngineBuilder, GraphDelta, InferRequest};
    use blockgnn_gnn::ModelKind;
    use blockgnn_graph::datasets;
    use std::sync::Arc;

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
}

//! Partition-parallel execution: how one [`Engine`] runs a graph across
//! worker threads.
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
//! batch's merged universe) with at least [`DEFAULT_MIN_SHARD_ROWS`]
//! unique targets are sharded the same way. Everything else about the
//! engine — sessions, coalescing, forks, graph deltas — is unchanged,
//! and a one-worker engine never builds or touches any of this.
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
//! rows and reads the previous stage's **merged** matrix at a one-hop
//! halo ([`GnnModel::forward_stage`](blockgnn_gnn::GnnModel::forward_stage)) —
//! zero redundant arithmetic, and every row is produced by exactly the
//! same operations as the monolithic pass, so merged logits are
//! **bit-identical** to a one-worker engine's (each row's FFTs see the
//! same inputs on the spectral paths too).
//!
//! # Hot-vertex aggregation cache
//!
//! Row-granular staging also makes per-row result caching expressible —
//! something the monolithic `forward` cannot do. Full-graph stage inputs
//! are canonical (stage 0 reads the dataset features, stage `s` reads
//! the merged stage `s − 1` output), so a hub vertex's stage row is a
//! pure function of the graph version. The plan flags the
//! highest-degree vertices (up to [`DEFAULT_HOT_CACHE_BYTES`] of rows);
//! their stage rows live on the epoch — like its full-graph logits,
//! shared by every fork that resolved it — and are copied instead of
//! re-aggregated. `apply_delta` publishes a new epoch with no rows, and
//! a pass still running on the old epoch reads and publishes the old
//! epoch's rows only. Sampled requests never touch the cache: their
//! sub-universe inputs are batch-dependent, not canonical.
//!
//! Per-part hardware cost is still accounted the §IV-C way: the
//! simulated accelerator charges each part's *computed* target nodes
//! separately (rows served from the hot cache cost the hardware nothing,
//! exactly like logits-cache hits) and the per-part [`SimReport`]s merge
//! by summation ([`SimReport::merge`] — cycles combine as in the paper's
//! two-sub-graph Reddit evaluation, energy sums), reproducing the
//! monolithic report exactly on cold caches.

use crate::backend::{Backend, BackendOutput, RequestShape};
use crate::engine::Engine;
use crate::error::EngineError;
use crate::versioned::{lock_recover, GraphEpoch};
use blockgnn_accel::SimReport;
use blockgnn_graph::partition::{
    partition_balance, partition_contiguous, partition_degree_balanced, GraphPart,
};
use blockgnn_graph::{CompressedCsr, CsrGraph, Dataset};
use blockgnn_linalg::Matrix;
use blockgnn_perf::resources::NODE_FEATURE_BUFFER_BYTES;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-part feature-residency budget: one bank of the §IV-B
/// Node-Feature Buffer (the 512 KB NFB is a ping-pong pair, so half is
/// usable while the other half is being filled by DMA).
pub const DEFAULT_PART_BUDGET_BYTES: usize = NODE_FEATURE_BUFFER_BYTES / 2;

/// Sampled executions with at least this many unique target nodes are
/// sharded across workers; smaller micro-batches run on one worker
/// (their sub-universes are too small to amortize the fan-out). The
/// threshold is compared against the **unique** target count (the
/// sampled sub-universe's interned batch length), not the raw request
/// length — a request of 100 duplicates of one node is a 1-row batch.
pub const DEFAULT_MIN_SHARD_ROWS: usize = 32;

/// Hot-vertex cache budget: the other bank of the §IV-B Node-Feature
/// Buffer (cached aggregation rows are reused feature-like state, so
/// they are accounted against feature storage, not weights).
pub const DEFAULT_HOT_CACHE_BYTES: usize = NODE_FEATURE_BUFFER_BYTES / 2;

/// How a widened engine executes one graph version's full-graph pass.
#[derive(Debug)]
pub(crate) struct Plan {
    /// Budget-fit, degree-balanced parts tiling the node set.
    parts: Vec<GraphPart>,
    /// Load-balance factor of `parts` (max part work / mean part work).
    balance: f64,
    /// `hot_flags[v]`: whether node `v` qualifies for hot caching (a
    /// top-degree node within [`DEFAULT_HOT_CACHE_BYTES`]).
    hot_flags: Vec<bool>,
}

impl Engine {
    /// Widens this engine to `workers` worker threads: the existing
    /// backend is forked until there is one replica per worker (forks
    /// share the prepared weights and cached spectra behind `Arc`s, so
    /// this is cheap in memory), and full-graph passes from now on run
    /// the partition plan — the smallest degree-balanced split that is
    /// at least `workers` parts **and** fits every part's resident
    /// features (targets + one-hop halo, at the backend's
    /// [`crate::BackendKind::bytes_per_feature`] scalar width) in
    /// [`DEFAULT_PART_BUDGET_BYTES`]. The plan follows the graph
    /// version, so [`Engine::apply_delta`], [`Engine::fork`] and
    /// [`Engine::infer_coalesced`] keep working. `into_parallel(1)`
    /// leaves a one-worker engine, which runs the monolithic pass.
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
        let adjacency = CompressedCsr::encode(&epoch.dataset.graph).resident_bytes();
        self.weight_bytes() + adjacency + peak_part
    }

    /// On-device bytes of the current version's adjacency in the
    /// delta-varint [`CompressedCsr`] layout big graphs are accounted
    /// (and shipped) in; compare against
    /// [`blockgnn_graph::CsrGraph::adjacency_bytes`] for the
    /// compression win.
    #[must_use]
    pub fn compressed_adjacency_bytes(&self) -> usize {
        CompressedCsr::encode(&self.shared.epoch().dataset.graph).resident_bytes()
    }

    /// Drops the current version's hot-vertex rows (family-wide — the
    /// epoch is shared). [`Engine::clear_full_graph_cache`] deliberately
    /// leaves them warm — that models steady-state serving; this is for
    /// cold-start measurements.
    pub fn clear_hot_cache(&self) {
        lock_recover(&self.shared.epoch().hot).clear();
    }

    /// Hot-vertex rows the current version holds, across all stages
    /// (introspection hook).
    #[must_use]
    pub fn hot_cached_rows(&self) -> usize {
        lock_recover(&self.shared.epoch().hot).iter().map(|rows| rows.len()).sum()
    }

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
            return Plan { parts, balance: 1.0, hot_flags: Vec::new() };
        }
        let feature_dim = dataset.feature_dim();
        let parts = self.plan_parts(graph, feature_dim);
        let balance = partition_balance(graph, &parts, self.plan_width(feature_dim));
        // Hot vertices: the top-degree nodes whose cached stage rows fit
        // the byte budget. Rows are host-side f64 (8 B/scalar) across
        // every stage width; ties broken by node id for determinism.
        let model = &self.workers[0].model;
        let per_node_bytes: usize =
            (0..model.num_stages()).map(|s| model.stage_width(s, feature_dim) * 8).sum();
        let capacity = DEFAULT_HOT_CACHE_BYTES.checked_div(per_node_bytes).unwrap_or(0);
        let mut by_degree: Vec<u32> = (0..graph.num_nodes() as u32).collect();
        by_degree.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v as usize)), v));
        let mut hot_flags = vec![false; graph.num_nodes()];
        for &v in by_degree.iter().take(capacity) {
            hot_flags[v as usize] = true;
        }
        Plan { parts, balance, hot_flags }
    }

    /// The widest row any inference stage materializes (stage outputs
    /// can be wider than the input features, e.g. G-GCN's `[p ‖ q ‖ h]`
    /// transform rows) — the per-node width residency planning uses.
    fn plan_width(&self, feature_dim: usize) -> usize {
        let model = &self.workers[0].model;
        (0..model.num_stages())
            .map(|s| model.stage_width(s, feature_dim))
            .fold(feature_dim, usize::max)
    }

    /// Partitions `graph` into degree-balanced parts: at least one per
    /// worker, all fitting [`DEFAULT_PART_BUDGET_BYTES`] at
    /// [`Engine::plan_width`]. Applied to the full graph once per
    /// version and to each sharded sampled sub-universe — a per-request
    /// cost, so `k` is found by geometric escalation from the halo-free
    /// pigeonhole bound (a bounded number of partition passes) rather
    /// than the exact-smallest-`k` linear scan of
    /// [`blockgnn_graph::partition::parts_needed_for_budget`]; budget
    /// fit, not minimality, is what the serving path needs.
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

    /// One uncached full-graph pass over `epoch`, returning the output,
    /// the parts executed and the rows served from the hot-vertex cache.
    /// One worker runs the monolithic `forward`; a widened engine runs
    /// the version's plan.
    pub(crate) fn full_graph_pass(
        &mut self,
        epoch: &GraphEpoch,
    ) -> (BackendOutput, usize, usize) {
        let dataset = &epoch.dataset;
        if self.workers.len() == 1 {
            let shape =
                RequestShape { target_nodes: dataset.num_nodes(), fanouts: self.fanouts };
            let out = self.workers[0].execute(&dataset.graph, &dataset.features, None, shape);
            return (out, 1, 0);
        }
        let plan = self.plan_for(epoch);
        let hot = HotContext { epoch, flags: &plan.hot_flags };
        let run = run_staged(
            &mut self.workers,
            &dataset.graph,
            &dataset.features,
            &plan.parts,
            Some(&hot),
        );
        // Rows served from the hot cache cost the hardware nothing (same
        // contract as logits-cache hits): only computed targets are
        // charged.
        let (sim, energy_joules) = merge_part_charges(
            &self.workers[0],
            dataset.feature_dim(),
            self.fanouts,
            run.computed_per_part.into_iter(),
        );
        let out = BackendOutput { logits: run.logits, sim, energy_joules };
        (out, plan.parts.len(), run.hot_rows)
    }

    /// Executes one sampled computation graph (a request's sub-universe
    /// or a coalesced batch's merged universe), returning its logits at
    /// `rows` (one output row per entry, in order), the execution's
    /// wall-clock time and the parts it ran as. The one place that
    /// decides shard-or-not, from what it can observe: a widened engine
    /// shards executions of at least [`DEFAULT_MIN_SHARD_ROWS`] unique
    /// targets over a per-execution plan (every stage over every row,
    /// `rows` read off the merged result); everything else runs on one
    /// worker, the last stage at `rows` only
    /// ([`GnnModel::forward_at`](blockgnn_gnn::GnnModel::forward_at)).
    /// The hot-vertex cache does not apply — sub-universe stage inputs
    /// depend on the batch's sampled edges, not the canonical full-graph
    /// features — and the hardware charge is the monolithic one, the
    /// cycle model being a pure function of `shape`.
    pub(crate) fn execute_graph(
        &mut self,
        graph: &CsrGraph,
        features: &Matrix,
        rows: &[u32],
        shape: RequestShape,
    ) -> (BackendOutput, Duration, usize) {
        let start = Instant::now();
        if self.workers.len() == 1 || shape.target_nodes < DEFAULT_MIN_SHARD_ROWS {
            let out = self.workers[0].execute(graph, features, Some(rows), shape);
            return (out, start.elapsed(), 1);
        }
        let parts = self.plan_parts(graph, features.cols());
        let run = run_staged(&mut self.workers, graph, features, &parts, None);
        let (sim, energy_joules) = self.workers[0].charge(features.cols(), shape).unzip();
        let logits = run.logits.gather_rows(rows.iter().map(|&row| row as usize));
        let out = BackendOutput { logits, sim, energy_joules };
        (out, start.elapsed(), parts.len())
    }
}

/// Hot-vertex cache wiring for one staged run (full-graph path only).
struct HotContext<'a> {
    /// The epoch whose rows the run reads and publishes.
    epoch: &'a GraphEpoch,
    flags: &'a [bool],
}

/// Result of one staged execution.
struct StagedRun {
    logits: Matrix,
    /// Row-copies served from the hot-vertex cache, summed over stages.
    hot_rows: usize,
    /// Per part, how many of its target nodes were computed in at least
    /// one stage (the hardware-charged count; fully-cached nodes are 0).
    computed_per_part: Vec<usize>,
}

/// Executes the model's inference stages over `parts`, fanning each
/// stage's parts out to the worker pool and merging the output rows
/// (row-aligned by global node id) before the next stage starts. With a
/// [`HotContext`], rows of flagged vertices cached on the epoch are
/// copied instead of computed, and freshly computed flagged rows are
/// published back — bit-identical either way, because cached rows were
/// produced by the very same `forward_stage` over the same canonical
/// inputs.
///
/// Degenerate plans skip the thread pool entirely: one part (nothing to
/// fan out) or one worker (nothing to fan out *to*) runs inline on the
/// caller thread, paying neither spawn nor merge-barrier overhead.
fn run_staged(
    workers: &mut [Backend],
    graph: &CsrGraph,
    features: &Matrix,
    parts: &[GraphPart],
    hot: Option<&HotContext>,
) -> StagedRun {
    let n = graph.num_nodes();
    let num_workers = workers.len();
    let num_stages = workers[0].model.num_stages();
    let feature_dim = features.cols();
    let inline = parts.len() == 1 || num_workers == 1;
    let mut merged: Option<Matrix> = None;
    let mut hot_rows = 0usize;
    let mut computed_any = vec![false; n];
    for stage in 0..num_stages {
        let width = workers[0].model.stage_width(stage, feature_dim);
        let snapshot = hot.and_then(|h| lock_recover(&h.epoch.hot).get(stage).cloned());
        let input: &Matrix = merged.as_ref().unwrap_or(features);
        let mut out = Matrix::zeros(n, width);
        // Split every part's targets into cache hits and compute rows;
        // copy the hits up front (they only depend on the cache, not on
        // this stage's compute).
        let mut compute_rows: Vec<Vec<u32>> = Vec::with_capacity(parts.len());
        for part in parts {
            let mut compute = Vec::with_capacity(part.nodes.len());
            for &v in &part.nodes {
                let cached = hot.zip(snapshot.as_ref()).and_then(|(h, snap)| {
                    if h.flags[v as usize] {
                        snap.get(&v).filter(|row| row.len() == width)
                    } else {
                        None
                    }
                });
                match cached {
                    Some(row) => {
                        out.row_mut(v as usize).copy_from_slice(row);
                        hot_rows += 1;
                    }
                    None => compute.push(v),
                }
            }
            compute_rows.push(compute);
        }
        if inline {
            let model = &mut workers[0].model;
            model.prepare_graph(graph);
            for rows in &compute_rows {
                if rows.is_empty() {
                    continue;
                }
                let result = model.forward_stage(stage, graph, input, rows);
                for (i, &v) in rows.iter().enumerate() {
                    out.row_mut(v as usize).copy_from_slice(result.row(i));
                }
            }
        } else {
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(num_workers);
                for (w, backend) in workers.iter_mut().enumerate() {
                    // Round-robin assignment: degree-balanced parts are
                    // near-equal in work, so stride-W interleaving
                    // balances the load.
                    let assigned: Vec<&Vec<u32>> =
                        compute_rows.iter().skip(w).step_by(num_workers).collect();
                    if assigned.iter().all(|rows| rows.is_empty()) {
                        continue;
                    }
                    handles.push(scope.spawn(move || {
                        // Per-graph precomputation happens inside the
                        // worker (in parallel, not serially on the caller
                        // thread); it is idempotent, so later stages hit
                        // a warm cache.
                        let model = &mut backend.model;
                        model.prepare_graph(graph);
                        assigned
                            .into_iter()
                            .filter(|rows| !rows.is_empty())
                            .map(|rows| (rows, model.forward_stage(stage, graph, input, rows)))
                            .collect::<Vec<_>>()
                    }));
                }
                for handle in handles {
                    for (rows, result) in handle.join().expect("worker thread panicked") {
                        for (i, &v) in rows.iter().enumerate() {
                            out.row_mut(v as usize).copy_from_slice(result.row(i));
                        }
                    }
                }
            });
        }
        // Publish freshly computed rows of flagged vertices for the next
        // request (one lock per stage), and record who was computed for
        // the hardware charge.
        let mut publish: Vec<(u32, Vec<f64>)> = Vec::new();
        for rows in &compute_rows {
            for &v in rows {
                computed_any[v as usize] = true;
                if hot.is_some_and(|h| h.flags[v as usize]) {
                    publish.push((v, out.row(v as usize).to_vec()));
                }
            }
        }
        if let Some(h) = hot.filter(|_| !publish.is_empty()) {
            let mut stages = lock_recover(&h.epoch.hot);
            if stages.len() <= stage {
                stages.resize_with(stage + 1, Arc::default);
            }
            Arc::make_mut(&mut stages[stage]).extend(publish);
        }
        merged = Some(out);
    }
    let computed_per_part = parts
        .iter()
        .map(|p| p.nodes.iter().filter(|&&v| computed_any[v as usize]).count())
        .collect();
    StagedRun {
        logits: merged.expect("models have at least one stage"),
        hot_rows,
        computed_per_part,
    }
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
    for targets in part_targets.filter(|&t| t > 0) {
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
        assert_eq!(engine.hot_cached_rows(), 0);
        // Widening builds the current epoch's plan for two workers, and
        // no one-worker plan was ever built.
        let widened = engine.into_parallel(2).expect("widens");
        let epoch = widened.shared.epoch();
        let plans = lock_recover(&epoch.plans);
        assert_eq!((epoch.version, plans.len()), (1, 1));
        assert!(plans[&2].parts.len() >= 2);
    }
}

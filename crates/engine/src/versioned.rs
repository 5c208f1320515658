//! Versioned graph state shared by an engine and all of its forks: the
//! mutation side of the serving stack.
//!
//! An [`crate::Engine`] family (the original plus every
//! [`crate::Engine::fork`]) serves from one [`SharedGraphState`]:
//!
//! * `current` holds the **epoch** — an `Arc` of the immutable dataset
//!   snapshot plus its version. Workers resolve it once per micro-batch
//!   and keep their `Arc` for the whole batch, so an update lands
//!   *between* batches, never inside one.
//! * `master` is the lazily built mutable copy
//!   ([`blockgnn_graph::VersionedGraph`]) deltas apply to. Engines that
//!   never mutate never pay for it.
//! * `cache` is the full-graph logits cache, **keyed by version**: a
//!   hit requires an exact version match, so a delta can never serve
//!   stale logits. (Per-graph model caches — GCN's `Â` normalization,
//!   sampled-subgraph interning — key on
//!   [`blockgnn_graph::CsrGraph::instance_id`], and every applied delta
//!   produces a graph with a fresh id, so they are version-safe by
//!   construction.)
//! * `residency` re-runs the §IV-B/§IV-C feature-residency check when a
//!   delta grows the node count: the grown graph's resident features
//!   (plus the model's packed weight spectra) must still fit the
//!   configured device-memory budget, or the delta is rejected with
//!   [`EngineError::GraphBudget`] before anything mutates.

use crate::backend::BackendOutput;
use crate::error::EngineError;
use blockgnn_graph::{Dataset, GraphDelta, VersionedGraph};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering the guard when an earlier holder panicked
/// (a full-graph pass runs a model under the logits-cache lock, and the
/// serving runtime's `catch_unwind` fault domain survives that panic).
/// Recovered state is safe for every lock in this crate: the epoch
/// slot, the logits cache and the plan slot are only ever replaced
/// wholesale; hot rows and cached logits are version-checked on every
/// read; and the master copy is mutated only after its delta has been
/// validated, by steps that cannot fail.
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Version-keyed cache of per-stage aggregated feature rows for
/// high-degree hub vertices, shared across an engine family like the
/// full-graph logits cache.
///
/// Staged full-graph execution recomputes every hub's aggregation on
/// every request even though hub rows dominate the work on power-law
/// graphs. This cache keeps the computed stage outputs of a bounded set
/// of hot vertices; a staged run copies cached rows instead of
/// re-aggregating them. Correctness rests on two facts: (1) a stage
/// row's value is a pure function of (graph version, stage, input
/// matrix), and full-graph stage inputs are canonical (stage 0 reads the
/// dataset features, stage `s` reads the full merged stage `s − 1`
/// output); (2) entries are **version-keyed with strict invalidation** —
/// [`HotVertexCache::invalidate_to`] runs inside `apply_delta` before
/// the new epoch is published, and a publish from an engine still
/// holding a stale version is rejected, so a delta can never see or
/// leave stale rows.
#[derive(Debug, Default)]
pub(crate) struct HotVertexCache {
    inner: Mutex<HotState>,
}

#[derive(Debug, Default)]
struct HotState {
    /// Version the cached rows belong to; `None` until first use.
    version: Option<u64>,
    /// One map per model stage: node id → that node's stage-output row.
    /// `Arc` so staged runs snapshot a stage map without holding the
    /// lock while computing.
    stages: Vec<Arc<HashMap<u32, Vec<f64>>>>,
}

impl HotVertexCache {
    /// Snapshot of the cached rows for `stage` at `version`; empty when
    /// the cache holds a different version (or nothing yet).
    pub fn stage_snapshot(
        &self,
        version: u64,
        num_stages: usize,
        stage: usize,
    ) -> Arc<HashMap<u32, Vec<f64>>> {
        let state = lock_recover(&self.inner);
        if state.version == Some(version) && state.stages.len() == num_stages {
            if let Some(map) = state.stages.get(stage) {
                return Arc::clone(map);
            }
        }
        Arc::new(HashMap::new())
    }

    /// Publishes freshly computed rows for `stage` at `version`. Adopts
    /// the version when the cache is empty; merges when it matches;
    /// **rejects silently** when it differs — an engine that resolved an
    /// older epoch (a delta landed mid-run) must not poison the cache,
    /// and the invalidated cache must not resurrect pre-delta rows.
    pub fn publish(
        &self,
        version: u64,
        num_stages: usize,
        stage: usize,
        rows: Vec<(u32, Vec<f64>)>,
    ) {
        if rows.is_empty() {
            return;
        }
        let mut state = lock_recover(&self.inner);
        match state.version {
            None => {
                state.version = Some(version);
                state.stages = (0..num_stages).map(|_| Arc::new(HashMap::new())).collect();
            }
            Some(v) if v == version => {
                if state.stages.len() != num_stages {
                    state.stages = (0..num_stages).map(|_| Arc::new(HashMap::new())).collect();
                }
            }
            Some(_) => return,
        }
        let Some(slot) = state.stages.get_mut(stage) else {
            return;
        };
        let map = Arc::make_mut(slot);
        for (node, row) in rows {
            map.insert(node, row);
        }
    }

    /// Drops every cached row and pins the cache to `new_version`, so a
    /// straggler publish from an engine still computing against the old
    /// version is rejected. Runs inside `apply_delta` before the new
    /// epoch is visible.
    pub fn invalidate_to(&self, new_version: u64) {
        let mut state = lock_recover(&self.inner);
        state.version = Some(new_version);
        state.stages.clear();
    }

    /// Total cached rows across all stages (test/introspection hook).
    pub fn cached_rows(&self) -> usize {
        let state = lock_recover(&self.inner);
        state.stages.iter().map(|m| m.len()).sum()
    }
}

/// One immutable serving snapshot: what a micro-batch executes against.
#[derive(Debug)]
pub(crate) struct GraphEpoch {
    /// The frozen dataset of this version.
    pub dataset: Arc<Dataset>,
    /// Monotone version (0 until the first applied delta).
    pub version: u64,
}

/// The §IV-B/§IV-C feature-residency policy re-checked on node growth.
#[derive(Debug, Clone)]
pub(crate) struct ResidencyPolicy {
    /// Packed spectral weight bytes of the served model (resident for
    /// the engine's whole lifetime).
    pub spectral_weight_bytes: usize,
    /// Bytes per feature scalar at the backend's number format.
    pub bytes_per_feature: usize,
    /// Device-memory budget in bytes.
    pub budget_bytes: usize,
}

/// The mutable master copy deltas apply to. Labels of appended nodes
/// get placeholder class 0 — labels drive training, never inference.
#[derive(Debug)]
struct MasterState {
    versioned: VersionedGraph,
    labels: Vec<usize>,
}

/// Versioned graph state shared across an engine family (see the module
/// docs for the field roles).
#[derive(Debug)]
pub(crate) struct SharedGraphState {
    master: Mutex<Option<MasterState>>,
    current: Mutex<Arc<GraphEpoch>>,
    /// Version-keyed full-graph logits cache. Holds the most recently
    /// *computed* version; hits require an exact version match.
    pub(crate) cache: Mutex<Option<(u64, BackendOutput)>>,
    /// Current node count mirrored out of the epoch, so the serving
    /// runtime's per-submission admission check reads an atomic instead
    /// of contending on the epoch lock with every worker.
    node_count: AtomicUsize,
    residency: Option<ResidencyPolicy>,
    /// Hot-vertex aggregation cache shared by every engine of the
    /// family (see [`HotVertexCache`]); invalidated by
    /// [`SharedGraphState::apply_delta`] like the logits cache.
    pub(crate) hot: HotVertexCache,
}

impl SharedGraphState {
    /// Wraps `dataset` as version 0.
    pub fn new(dataset: Arc<Dataset>, residency: Option<ResidencyPolicy>) -> Self {
        let node_count = AtomicUsize::new(dataset.num_nodes());
        Self {
            master: Mutex::new(None),
            current: Mutex::new(Arc::new(GraphEpoch { dataset, version: 0 })),
            cache: Mutex::new(None),
            node_count,
            residency,
            hot: HotVertexCache::default(),
        }
    }

    /// The current epoch (cheap: one lock + `Arc` clone). Callers hold
    /// the returned `Arc` for a whole micro-batch; updates swap the
    /// slot without disturbing holders.
    pub fn epoch(&self) -> Arc<GraphEpoch> {
        Arc::clone(&lock_recover(&self.current))
    }

    /// The current version.
    pub fn version(&self) -> u64 {
        self.epoch().version
    }

    /// Node count of the current version (lock-free; node counts only
    /// grow, so a marginally stale read can only under-admit a request
    /// that names a node appended microseconds ago — the engine-side
    /// re-validation against the batch's resolved epoch is what
    /// decides).
    pub fn num_nodes(&self) -> usize {
        self.node_count.load(Ordering::Acquire)
    }

    /// Applies one delta atomically and publishes the new epoch,
    /// returning it (callers wanting to describe the post-delta graph —
    /// version, node/arc counts — read them off the returned epoch, a
    /// consistent snapshot even under concurrent further updates).
    /// Deltas serialize on the master lock, so returned versions are
    /// unique and totally ordered; readers see either the old epoch or
    /// the new one, never a mix.
    ///
    /// # Errors
    ///
    /// [`EngineError::Delta`] for invalid deltas;
    /// [`EngineError::GraphBudget`] when growth violates the residency
    /// budget. The served graph is untouched in both cases.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<Arc<GraphEpoch>, EngineError> {
        let mut master_slot = lock_recover(&self.master);
        let master = match master_slot.as_mut() {
            Some(master) => master,
            None => {
                // First mutation: materialize the master copy from the
                // current epoch (version 0 by construction — only this
                // method ever bumps it).
                let epoch = self.epoch();
                let versioned = VersionedGraph::new(
                    epoch.dataset.graph.clone(),
                    epoch.dataset.features.clone(),
                    true,
                )
                .expect("dataset graph and features agree on the node count");
                master_slot
                    .insert(MasterState { versioned, labels: epoch.dataset.labels.clone() })
            }
        };
        if let Some(policy) = &self.residency {
            let grown = master.versioned.num_nodes() + delta.append_nodes.len();
            if !delta.append_nodes.is_empty() {
                let needed = policy.spectral_weight_bytes
                    + grown * master.versioned.features().cols() * policy.bytes_per_feature;
                if needed > policy.budget_bytes {
                    return Err(EngineError::GraphBudget {
                        needed,
                        budget: policy.budget_bytes,
                    });
                }
            }
        }
        let version = master.versioned.apply(delta)?;
        master.labels.resize(master.versioned.num_nodes(), 0);
        let template = self.epoch();
        let dataset = Arc::new(Dataset {
            graph: master.versioned.graph().clone(),
            features: master.versioned.features().clone(),
            labels: master.labels.clone(),
            num_classes: template.dataset.num_classes,
            masks: template.dataset.masks.clone(),
            name: template.dataset.name.clone(),
        });
        let epoch = Arc::new(GraphEpoch { dataset, version });
        // Strict invalidation *before* the new epoch is visible: no
        // reader can pair post-delta structure with pre-delta hot rows.
        self.hot.invalidate_to(version);
        *lock_recover(&self.current) = Arc::clone(&epoch);
        self.node_count.store(epoch.dataset.num_nodes(), Ordering::Release);
        // The cache is version-keyed (correct without this), but the old
        // version's logits are dead weight now — drop them eagerly.
        *lock_recover(&self.cache) = None;
        Ok(epoch)
    }
}

/// A cloneable mutation/introspection handle on an engine family's
/// shared graph — what the serving runtime holds to apply updates
/// without owning any engine replica.
///
/// Obtained from [`crate::Engine::graph_handle`]; all clones (and every
/// engine fork) observe the same versions.
#[derive(Debug, Clone)]
pub struct GraphHandle {
    pub(crate) shared: Arc<SharedGraphState>,
}

impl GraphHandle {
    /// Applies one delta atomically (see [`crate::Engine::apply_delta`]),
    /// returning the new version.
    ///
    /// # Errors
    ///
    /// [`EngineError::Delta`] or [`EngineError::GraphBudget`]; the
    /// served graph is untouched on failure.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<u64, EngineError> {
        Ok(self.shared.apply_delta(delta)?.version)
    }

    /// Like [`GraphHandle::apply_delta`], but also returns the node and
    /// arc counts of the epoch this delta published — read off that
    /// epoch itself, so the triple stays consistent even when another
    /// update lands immediately after (the serving runtime's `update`
    /// ack must describe version *N*, not whatever is current by the
    /// time the reply is encoded).
    ///
    /// # Errors
    ///
    /// As [`GraphHandle::apply_delta`].
    pub fn apply_delta_acked(
        &self,
        delta: &GraphDelta,
    ) -> Result<(u64, usize, usize), EngineError> {
        let epoch = self.shared.apply_delta(delta)?;
        Ok((epoch.version, epoch.dataset.num_nodes(), epoch.dataset.graph.num_arcs()))
    }

    /// The currently served graph version.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.shared.version()
    }

    /// Node count of the currently served version.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.shared.num_nodes()
    }

    /// Stored arc count of the currently served version.
    #[must_use]
    pub fn num_arcs(&self) -> usize {
        self.shared.epoch().dataset.graph.num_arcs()
    }
}

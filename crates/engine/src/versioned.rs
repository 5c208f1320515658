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
//! * Each epoch owns what is computed from it: the full-graph logits,
//!   the hot-vertex stage rows and the partition plans (see
//!   [`GraphEpoch`]). A delta publishes a fresh epoch with empty
//!   caches, so no cache compares versions and a delta never serves
//!   stale logits; the old epoch's caches die with its last holder.
//!   (Per-graph model caches — GCN's `Â` normalization, sampled-subgraph
//!   interning — key on [`blockgnn_graph::CsrGraph::instance_id`], and
//!   every applied delta produces a graph with a fresh id, so they are
//!   version-safe by construction.)
//! * `residency` re-runs the §IV-B/§IV-C feature-residency check when a
//!   delta grows the node count: the grown graph's resident features
//!   (plus the model's packed weight spectra) must still fit the
//!   configured device-memory budget, or the delta is rejected with
//!   [`EngineError::GraphBudget`] before anything mutates.

use crate::backend::BackendOutput;
use crate::error::EngineError;
use crate::parallel::Plan;
use blockgnn_graph::{Dataset, GraphDelta, VersionedGraph};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering the guard when an earlier holder panicked
/// (a full-graph pass runs a model under its epoch's logits lock, and
/// the serving runtime's `catch_unwind` fault domain survives that
/// panic). Recovered state is safe for every lock in this crate: the
/// epoch slot, an epoch's logits and its plans are only ever written
/// whole (a pass that panics leaves the logits empty); hot rows are
/// inserted row by row, each row whole; and the master copy is mutated
/// only after its delta has been validated, by steps that cannot fail.
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One stage's hot-vertex rows: node id → that node's stage-output row.
pub(crate) type HotRows = HashMap<u32, Vec<f64>>;

/// One immutable serving snapshot: what a micro-batch executes against,
/// and the caches computed from it.
///
/// Each cache is a pure function of this version's graph (and, for a
/// plan, the worker count), so it hangs off the epoch: an `Arc` shared
/// by every fork that resolved it. A batch still draining an old epoch
/// reads and fills that epoch's caches only; it can neither serve nor
/// evict another version's entries.
#[derive(Debug)]
pub(crate) struct GraphEpoch {
    /// The frozen dataset of this version.
    pub dataset: Arc<Dataset>,
    /// Monotone version (0 until the first applied delta).
    pub version: u64,
    /// This version's full-graph logits once a pass has computed them.
    /// The pass runs under this lock, so concurrent forks wait for it
    /// instead of computing it twice.
    pub logits: Mutex<Option<BackendOutput>>,
    /// Hot-vertex stage rows (see [`crate::parallel`]), one map per
    /// stage, each behind an `Arc` so a staged run snapshots a stage
    /// without holding the lock while it computes.
    pub hot: Mutex<Vec<Arc<HotRows>>>,
    /// The §IV-C partition plan, one per worker count.
    pub plans: Mutex<HashMap<usize, Arc<Plan>>>,
}

impl GraphEpoch {
    fn new(dataset: Arc<Dataset>, version: u64) -> Self {
        Self {
            dataset,
            version,
            logits: Mutex::default(),
            hot: Mutex::default(),
            plans: Mutex::default(),
        }
    }
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
    /// Current node count mirrored out of the epoch, so the serving
    /// runtime's per-submission admission check reads an atomic instead
    /// of contending on the epoch lock with every worker.
    node_count: AtomicUsize,
    residency: Option<ResidencyPolicy>,
}

impl SharedGraphState {
    /// Wraps `dataset` as version 0.
    pub fn new(dataset: Arc<Dataset>, residency: Option<ResidencyPolicy>) -> Self {
        let node_count = AtomicUsize::new(dataset.num_nodes());
        Self {
            master: Mutex::new(None),
            current: Mutex::new(Arc::new(GraphEpoch::new(dataset, 0))),
            node_count,
            residency,
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
                // Unreachable: `EngineBuilder::build_with_model` refuses a
                // dataset whose feature rows differ from its node count,
                // and only this method publishes later epochs, from a
                // `VersionedGraph` that keeps the two equal.
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
        let epoch = Arc::new(GraphEpoch::new(dataset, version));
        *lock_recover(&self.current) = Arc::clone(&epoch);
        self.node_count.store(epoch.dataset.num_nodes(), Ordering::Release);
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

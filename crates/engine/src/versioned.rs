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
//! * Each epoch holds only what a request reads: the dataset, the
//!   version, the full-graph logits, the partition plans and the model's
//!   table of node-local first-layer rows (see [`GraphEpoch`]). A delta
//!   derives the next epoch from the current one through
//!   [`GraphDelta::apply_to`] and publishes it with empty caches, so no
//!   cache compares versions and a delta never serves stale logits or
//!   rows; the old epoch's caches die with its last holder.
//!   (Per-graph model caches — GCN's `Â` normalization, sampled-subgraph
//!   interning — key on [`blockgnn_graph::CsrGraph::instance_id`], and
//!   every applied delta produces a graph with a fresh id, so they are
//!   version-safe by construction.)
//! * `writer` serializes deltas, so versions stay unique and totally
//!   ordered.
//! * `residency` is the §IV-B/§IV-C feature-residency rule: packed weight
//!   spectra plus the graph's resident features. It is what
//!   [`crate::Engine::resident_bytes`] reports, and with a budget it
//!   re-runs when a delta grows the node count: the grown graph must
//!   still fit, or the delta is rejected with
//!   [`EngineError::GraphBudget`] before anything is published.

use crate::backend::BackendOutput;
use crate::error::EngineError;
use crate::parallel::Plan;
use blockgnn_gnn::RowTable;
use blockgnn_graph::{Dataset, GraphDelta};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering the guard when an earlier holder panicked
/// (a full-graph pass runs a model under its epoch's logits lock, and
/// the serving runtime's `catch_unwind` fault domain survives that
/// panic). Recovered state is safe for every lock in this crate: the
/// epoch slot, an epoch's logits and its plans are only ever written
/// whole (a pass that panics leaves the logits empty), and the writer
/// lock guards no data — a delta that panics publishes nothing.
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

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
    /// The §IV-C partition plan, one per worker count.
    pub plans: Mutex<HashMap<usize, Arc<Plan>>>,
    /// The served model's node-local first-layer rows of this version's
    /// features ([`RowTable`]), made empty on first use when the model
    /// reads any and the table fits its cap. Sampled batches, full passes
    /// and widened passes all fill and read it; a fork's batch shares it.
    pub rows: Mutex<Option<Arc<RowTable>>>,
}

impl GraphEpoch {
    fn new(dataset: Arc<Dataset>, version: u64) -> Self {
        Self {
            dataset,
            version,
            logits: Mutex::default(),
            plans: Mutex::default(),
            rows: Mutex::default(),
        }
    }

    /// This epoch's row table for `width`-wide rows, or `None` when it
    /// would pass [`blockgnn_gnn::table::ROW_TABLE_BYTES`].
    pub fn row_table(&self, width: usize) -> Option<Arc<RowTable>> {
        let mut slot = lock_recover(&self.rows);
        if slot.is_none() {
            *slot = RowTable::new(self.dataset.num_nodes(), width).map(Arc::new);
        }
        slot.clone()
    }

    /// Takes this epoch's row table, emptied for a graph of `nodes` nodes,
    /// when no batch holds it: the table that replaces it reuses its
    /// storage. A batch that then reads this epoch starts a fresh one.
    pub fn take_rows_emptied(&self, nodes: usize) -> Option<Arc<RowTable>> {
        let table = lock_recover(&self.rows).take()?;
        Arc::try_unwrap(table).ok()?.emptied(nodes).map(Arc::new)
    }
}

/// The §IV-B/§IV-C feature-residency rule of an engine family.
#[derive(Debug, Clone)]
pub(crate) struct Residency {
    /// Packed spectral weight bytes of the served model (resident for
    /// the engine's whole lifetime).
    pub weight_bytes: usize,
    /// Bytes per feature scalar at the backend's number format.
    pub bytes_per_feature: usize,
    /// Device-memory budget in bytes node growth is checked against, if
    /// any.
    pub budget_bytes: Option<usize>,
}

impl Residency {
    /// Resident bytes of `nodes` feature rows of width `feature_dim`
    /// beside the packed weight spectra.
    pub fn bytes(&self, nodes: usize, feature_dim: usize) -> usize {
        self.weight_bytes + nodes * feature_dim * self.bytes_per_feature
    }
}

/// Versioned graph state shared across an engine family (see the module
/// docs for the field roles).
#[derive(Debug)]
pub(crate) struct SharedGraphState {
    current: Mutex<Arc<GraphEpoch>>,
    writer: Mutex<()>,
    /// Current node count mirrored out of the epoch, so the serving
    /// runtime's per-submission admission check reads an atomic instead
    /// of contending on the epoch lock with every worker.
    node_count: AtomicUsize,
    pub residency: Residency,
}

impl SharedGraphState {
    /// Wraps `dataset` as version 0.
    pub fn new(dataset: Arc<Dataset>, residency: Residency) -> Self {
        let node_count = AtomicUsize::new(dataset.num_nodes());
        Self {
            current: Mutex::new(Arc::new(GraphEpoch::new(dataset, 0))),
            writer: Mutex::new(()),
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
    /// consistent snapshot even under concurrent further updates). The
    /// next epoch is derived from the current one: its features are
    /// cloned once and [`GraphDelta::apply_to`] splices the graph and
    /// writes the rows; appended nodes get placeholder label 0 (labels
    /// drive training, never inference). Deltas serialize on the writer
    /// lock, so returned versions are unique and totally ordered;
    /// readers see either the old epoch or the new one, never a mix.
    ///
    /// # Errors
    ///
    /// [`EngineError::OverCap`] for a delta past a per-delta cap;
    /// [`EngineError::Delta`] for invalid deltas;
    /// [`EngineError::GraphBudget`] when growth violates the residency
    /// budget. The served graph is untouched in every case.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<Arc<GraphEpoch>, EngineError> {
        crate::request::validate_delta(delta)?;
        let _writer = lock_recover(&self.writer);
        let current = self.epoch();
        let old = &current.dataset;
        if let Some(budget) = self.residency.budget_bytes {
            if !delta.append_nodes.is_empty() {
                let grown = old.num_nodes() + delta.append_nodes.len();
                let needed = self.residency.bytes(grown, old.feature_dim());
                if needed > budget {
                    return Err(EngineError::GraphBudget { needed, budget });
                }
            }
        }
        let mut features = old.features.clone();
        let graph = delta.apply_to(&old.graph, &mut features, true)?;
        let mut labels = old.labels.clone();
        labels.resize(graph.num_nodes(), 0);
        let dataset = Arc::new(Dataset {
            graph,
            features,
            labels,
            num_classes: old.num_classes,
            masks: old.masks.clone(),
            name: old.name.clone(),
        });
        let epoch = Arc::new(GraphEpoch::new(dataset, current.version + 1));
        *lock_recover(&epoch.rows) = current.take_rows_emptied(epoch.dataset.num_nodes());
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
    /// [`EngineError::OverCap`], [`EngineError::Delta`] or
    /// [`EngineError::GraphBudget`]; the served graph is untouched on
    /// failure.
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

//! The tenant registry: many graphs × many models served by one
//! process.
//!
//! A **tenant** is a named `(graph, model, backend)` triple wrapping its
//! own engine family — prepared weights, the PR-5 versioned graph state,
//! and a pool of forked replicas workers check out per batch. The
//! registry (internal `TenantRegistry`) publishes the name → tenant
//! map with the same
//! `Arc`-epoch pattern the versioned graph uses: `deploy`/`retire`
//! build a fresh map and swap one `Arc`, so readers (submission paths,
//! workers, `stats`) never block on a deploy and a retire never stalls
//! another tenant's in-flight micro-batch — batches hold their own
//! `Arc<Tenant>` and finish on it.
//!
//! Deploys pass through the aggregate residency accountant: with a
//! configured device budget, the sum of deployed tenants' packed weight
//! spectra + resident node features (the paper's §IV-B/§IV-C
//! accounting, via [`blockgnn_engine::Engine::resident_bytes`]) must
//! fit, or the deploy is rejected with a typed
//! [`ServerError::TenantBudget`].

use crate::batcher::Lane;
use crate::error::ServerError;
use crate::fault::lock_recover;
use crate::protocol::UpdateAck;
use crate::queue::{RequestQueue, SloClass};
use crate::telemetry::{ServerStats, Telemetry};
use blockgnn_engine::{BackendKind, Engine, GraphDelta, GraphHandle};
use blockgnn_gnn::ModelKind;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// The tenant every unqualified (`infer` without `@tenant`) request
/// addresses — the engine the server was started around.
pub const DEFAULT_TENANT: &str = "default";

/// Validates a tenant name for use on the wire: non-empty, only ASCII
/// alphanumerics, `-`, `_`, and `.` — so names embed cleanly in
/// `@tenant` qualifiers and colon-separated `list` segments.
///
/// # Errors
///
/// A message naming the offending character.
pub fn validate_tenant_name(name: &str) -> Result<(), String> {
    if name.is_empty() {
        return Err("tenant name must not be empty".into());
    }
    if let Some(c) =
        name.chars().find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.')))
    {
        return Err(format!(
            "tenant name {name:?} contains {c:?} (allowed: alphanumerics, '-', '_', '.')"
        ));
    }
    Ok(())
}

/// The wire/CLI spelling of a model kind — the one table
/// [`parse_model_kind`] reads too.
#[must_use]
pub fn model_kind_name(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::Gcn => "gcn",
        ModelKind::GsPool => "gs-pool",
        ModelKind::Ggcn => "g-gcn",
        ModelKind::Gat => "gat",
    }
}

/// Parses a model name as the CLI and the `deploy` verb spell it
/// ([`model_kind_name`]).
///
/// # Errors
///
/// A message listing the accepted spellings.
pub fn parse_model_kind(word: &str) -> Result<ModelKind, String> {
    let all = ModelKind::all();
    all.into_iter().find(|&k| model_kind_name(k) == word).ok_or_else(|| {
        format!("unknown model {word:?} ({})", all.map(model_kind_name).join(" | "))
    })
}

/// Parses a backend name as the CLI and the `deploy` verb spell it
/// ([`BackendKind::name`]).
///
/// # Errors
///
/// A message listing the accepted spellings.
pub fn parse_backend_kind(word: &str) -> Result<BackendKind, String> {
    let all = BackendKind::all();
    all.into_iter().find(|k| k.name() == word).ok_or_else(|| {
        format!("unknown backend {word:?} ({})", all.map(|k| k.name()).join(" | "))
    })
}

/// Widest hidden layer — and largest circulant block, which past the
/// layer width is only padding — a [`TenantSpec`] may ask for. Both are
/// wire numbers (`deploy … hidden= block=`) that size the model's
/// weight and FFT-plan allocations: unbounded, one line asks the
/// allocator for terabytes and the process aborts. 4096 is ~2.9× the
/// widest model built anywhere in this repository (1 424, the §IV-B
/// co-residency test); engines built directly through
/// [`Engine::builder`] are not the wire's business and stay unbounded.
const MAX_SPEC_WIDTH: usize = 4096;

/// Everything needed to deploy one tenant: what to serve (dataset ×
/// model × backend) and how to schedule it (fair-share weight,
/// queue-depth cap).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Registry name; also the `@tenant` qualifier requests address.
    pub name: String,
    /// Name of a built-in small dataset
    /// ([`blockgnn_graph::datasets::small_by_name`]).
    pub dataset: String,
    /// Which of the paper's four algorithms to serve.
    pub model: ModelKind,
    /// Execution substrate.
    pub backend: BackendKind,
    /// Hidden-layer width of the freshly built model.
    pub hidden_dim: usize,
    /// Block-circulant block size `n`.
    pub block_size: usize,
    /// Weight-initialization seed; also seeds the generated dataset, so
    /// one spec pins the served state bit-exactly.
    pub seed: u64,
    /// Weighted-fair share of the admission queue (≥ 1; a weight-3
    /// tenant is scheduled 3× as often as a weight-1 one under
    /// contention).
    pub weight: u32,
    /// Per-tenant queued-request cap; `None` uses the server's
    /// [`crate::ServerConfig::max_queue_depth`].
    pub max_queue_depth: Option<usize>,
}

impl TenantSpec {
    /// A spec with the engine-builder defaults: hidden width 32, block
    /// size 8, seed 42, weight 1, the server's queue-depth cap.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        dataset: impl Into<String>,
        model: ModelKind,
        backend: BackendKind,
    ) -> Self {
        Self {
            name: name.into(),
            dataset: dataset.into(),
            model,
            backend,
            hidden_dim: 32,
            block_size: 8,
            seed: 42,
            weight: 1,
            max_queue_depth: None,
        }
    }

    /// Sets the hidden width.
    #[must_use]
    pub fn hidden_dim(mut self, hidden_dim: usize) -> Self {
        self.hidden_dim = hidden_dim;
        self
    }

    /// Sets the circulant block size.
    #[must_use]
    pub fn block_size(mut self, block_size: usize) -> Self {
        self.block_size = block_size;
        self
    }

    /// Sets the weight/dataset seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the fair-share weight (clamped to ≥ 1).
    #[must_use]
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Sets the per-tenant queue-depth cap.
    #[must_use]
    pub fn max_queue_depth(mut self, depth: usize) -> Self {
        self.max_queue_depth = Some(depth);
        self
    }

    /// Parses the CLI's compact form `name=dataset:model:backend`
    /// (e.g. `traffic=citeseer-small:gs-pool:dense`).
    ///
    /// # Errors
    ///
    /// A message naming the malformed part.
    pub fn parse_compact(word: &str) -> Result<Self, String> {
        let (name, rest) = word
            .split_once('=')
            .ok_or_else(|| format!("expected name=dataset:model:backend, got {word:?}"))?;
        validate_tenant_name(name)?;
        let mut parts = rest.split(':');
        let dataset = parts.next().filter(|d| !d.is_empty()).ok_or("missing dataset")?;
        let model = parse_model_kind(parts.next().ok_or("missing model")?)?;
        let backend = parse_backend_kind(parts.next().ok_or("missing backend")?)?;
        if parts.next().is_some() {
            return Err(format!("trailing fields after backend in {word:?}"));
        }
        Ok(Self::new(name, dataset, model, backend))
    }

    /// Builds the engine this spec describes: the named generated
    /// dataset (seeded by [`TenantSpec::seed`]) under a freshly
    /// initialized model.
    ///
    /// # Errors
    ///
    /// [`ServerError::Protocol`] for an unknown dataset name or a hidden
    /// width / block size outside `1..=4096`, [`ServerError::Engine`]
    /// for model/backend construction failures.
    pub fn build_engine(&self) -> Result<Engine, ServerError> {
        for (what, value) in [("hidden", self.hidden_dim), ("block", self.block_size)] {
            if !(1..=MAX_SPEC_WIDTH).contains(&value) {
                return Err(ServerError::Protocol(format!(
                    "{what}={value} is outside 1..={MAX_SPEC_WIDTH}"
                )));
            }
        }
        let dataset = blockgnn_graph::datasets::small_by_name(&self.dataset, self.seed)
            .ok_or_else(|| {
                ServerError::Protocol(format!(
                    "unknown dataset {:?} (expected one of {:?})",
                    self.dataset,
                    blockgnn_graph::datasets::small_names()
                ))
            })?;
        let engine = Engine::builder(self.model, self.backend)
            .hidden_dim(self.hidden_dim)
            .compression(blockgnn_nn::Compression::BlockCirculant {
                block_size: self.block_size,
            })
            .seed(self.seed)
            .build(Arc::new(dataset))?;
        Ok(engine)
    }
}

/// A checkout pool of engine replicas. Sized to the server's worker
/// count at deploy, so with `workers` worker threads a checkout never
/// blocks in steady state (there are never more concurrent batches than
/// workers); the condvar covers the transient where a retire races a
/// checkout.
pub(crate) struct EnginePool {
    idle: Mutex<Vec<Engine>>,
    returned: Condvar,
}

impl EnginePool {
    fn new(engines: Vec<Engine>) -> Self {
        Self { idle: Mutex::new(engines), returned: Condvar::new() }
    }

    /// Takes a replica for one batch.
    pub fn checkout(&self) -> Engine {
        let mut idle = lock_recover(&self.idle);
        loop {
            if let Some(engine) = idle.pop() {
                return engine;
            }
            idle = self.returned.wait(idle).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Returns a replica after a batch.
    pub fn checkin(&self, engine: Engine) {
        lock_recover(&self.idle).push(engine);
        self.returned.notify_one();
    }
}

/// One deployed tenant: its engine pool, graph handle, scheduling
/// parameters, and private telemetry. Shared as `Arc<Tenant>` — queued
/// requests and executing batches hold their own reference, so a
/// retired tenant's in-flight work completes untouched.
pub(crate) struct Tenant {
    /// Registry-unique id; the admission queue's lane key.
    pub id: u64,
    pub name: String,
    /// Weighted-fair share of the admission queue.
    pub weight: u32,
    /// Per-tenant queued-request cap.
    pub max_queue_depth: usize,
    pub engines: EnginePool,
    /// A replica no worker ever checks out: the source of crash
    /// re-forks, and what `&self` introspection reads (the pool's
    /// replicas may all be mid-batch).
    template: Mutex<Engine>,
    pub graph: GraphHandle,
    pub model_kind: ModelKind,
    pub backend_kind: BackendKind,
    /// Flipped by retire: new submissions are rejected with
    /// [`ServerError::UnknownTenant`]; in-flight work completes.
    pub retired: AtomicBool,
    /// This tenant's private accumulator; the server's aggregate stats
    /// sum these across tenants.
    pub telemetry: Telemetry,
}

impl Tenant {
    /// Wraps an engine: it is forked `replicas` times into the pool
    /// (prepared weights and the versioned graph state, whose epochs
    /// carry the partition plans, are `Arc`-shared) and kept as the
    /// template.
    pub fn forked(
        id: u64,
        name: &str,
        weight: u32,
        max_queue_depth: usize,
        engine: Engine,
        replicas: usize,
    ) -> Self {
        let graph = engine.graph_handle();
        let model_kind = engine.model_kind();
        let backend_kind = engine.backend_kind();
        let pool = (0..replicas.max(1)).map(|_| engine.fork()).collect();
        Self {
            id,
            name: name.to_string(),
            weight: weight.max(1),
            max_queue_depth: max_queue_depth.max(1),
            engines: EnginePool::new(pool),
            template: Mutex::new(engine),
            graph,
            model_kind,
            backend_kind,
            retired: AtomicBool::new(false),
            telemetry: Telemetry::new(),
        }
    }

    /// The admission-queue lane this tenant's `class` traffic joins.
    pub fn lane(&self, class: SloClass) -> Lane {
        Lane { tenant: self.id, class, weight: self.weight, max_depth: self.max_queue_depth }
    }

    /// A fresh replica for the pool, replacing one whose execution
    /// panicked (it may hold arbitrary state; the template never ran a
    /// request, and everything it shares is immutable or epoch state).
    pub fn fresh_replica(&self) -> Engine {
        lock_recover(&self.template).fork()
    }

    /// Nodes in this tenant's current graph version — what request node
    /// ids are validated against.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Stored arcs in the current version.
    pub fn num_arcs(&self) -> usize {
        self.graph.num_arcs()
    }

    /// This tenant's current graph version.
    pub fn version(&self) -> u64 {
        self.graph.version()
    }

    /// Live §IV-B/§IV-C residency footprint
    /// ([`Engine::resident_bytes`]): packed weight spectra plus the
    /// *current* version's features (deltas that append nodes grow it).
    pub fn resident_bytes(&self) -> usize {
        lock_recover(&self.template).resident_bytes()
    }

    /// A wire-friendly description of this tenant (what the `deploy`
    /// ack and `list` report), its queue depth read off `queue`.
    pub fn info(&self, queue: &RequestQueue) -> TenantInfo {
        TenantInfo {
            name: self.name.clone(),
            model: self.model_kind,
            backend: self.backend_kind,
            graph_version: self.version(),
            num_nodes: self.num_nodes(),
            weight: self.weight,
            queue_depth: queue.depth_of(self.id),
            resident_bytes: self.resident_bytes(),
        }
    }

    pub fn is_retired(&self) -> bool {
        self.retired.load(Ordering::Acquire)
    }

    /// Applies a graph delta and books it — `updates` on success,
    /// `failed_updates` on a rejected delta — returning the ack of
    /// exactly the epoch it published.
    pub fn update(&self, delta: &GraphDelta) -> Result<UpdateAck, ServerError> {
        if self.is_retired() {
            return Err(ServerError::UnknownTenant { name: self.name.clone() });
        }
        let applied = self.graph.apply_delta_acked(delta);
        self.telemetry.with(|s| match applied {
            Ok(_) => s.updates += 1,
            Err(_) => s.failed_updates += 1,
        });
        let (version, num_nodes, num_arcs) = applied?;
        Ok(UpdateAck { tenant: self.name.clone(), version, num_nodes, num_arcs })
    }

    /// This tenant's telemetry snapshot, stamped with its own version
    /// and — over a widened engine — the current plan's balance factor
    /// (0.0 on one worker: no partition to judge).
    pub fn stats(&self) -> ServerStats {
        let mut stats = self.telemetry.snapshot();
        stats.graph_version = self.version();
        let engine = lock_recover(&self.template);
        if engine.workers() > 1 {
            stats.part_balance = engine.partition_balance();
        }
        stats
    }
}

/// A public, wire-friendly description of one deployed tenant (what
/// `list` reports).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantInfo {
    /// Registry name.
    pub name: String,
    /// Served model.
    pub model: ModelKind,
    /// Execution substrate.
    pub backend: BackendKind,
    /// Current graph version.
    pub graph_version: u64,
    /// Current node count.
    pub num_nodes: usize,
    /// Fair-share weight.
    pub weight: u32,
    /// Requests currently queued in this tenant's lane.
    pub queue_depth: usize,
    /// Current §IV-B/§IV-C residency footprint (bytes).
    pub resident_bytes: usize,
}

/// The name → tenant map plus the aggregate residency accountant.
///
/// The map itself is published like a graph epoch: mutations build a
/// fresh `BTreeMap` and swap one `Arc` under a short-lived lock, so
/// lookups on the submission hot path clone an `Arc` and never contend
/// with an in-progress deploy (which builds its engine *before* taking
/// the lock).
pub(crate) struct TenantRegistry {
    map: Mutex<Arc<BTreeMap<String, Arc<Tenant>>>>,
    /// Final counters of retired tenants, folded into aggregate stats so
    /// a retire never makes server-lifetime totals go backwards.
    retired_stats: Mutex<ServerStats>,
    next_id: AtomicU64,
    device_budget: Option<usize>,
    started: Instant,
}

impl TenantRegistry {
    pub fn new(device_budget: Option<usize>) -> Self {
        Self {
            map: Mutex::new(Arc::new(BTreeMap::new())),
            retired_stats: Mutex::new(ServerStats::default()),
            next_id: AtomicU64::new(0),
            device_budget,
            started: Instant::now(),
        }
    }

    /// A fresh lane id for a tenant about to be constructed.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The current tenant map (an `Arc` clone; never blocks on deploys
    /// longer than the swap itself).
    pub fn snapshot(&self) -> Arc<BTreeMap<String, Arc<Tenant>>> {
        Arc::clone(&lock_recover(&self.map))
    }

    /// Looks up one tenant by name.
    pub fn get(&self, name: &str) -> Result<Arc<Tenant>, ServerError> {
        self.snapshot()
            .get(name)
            .cloned()
            .ok_or_else(|| ServerError::UnknownTenant { name: name.to_string() })
    }

    /// Publishes a fully constructed tenant, enforcing name uniqueness
    /// and the aggregate residency budget.
    ///
    /// # Errors
    ///
    /// [`ServerError::TenantExists`] on a name collision,
    /// [`ServerError::TenantBudget`] when the deploy would overflow the
    /// device budget.
    pub fn deploy(&self, tenant: Tenant) -> Result<Arc<Tenant>, ServerError> {
        let mut map = lock_recover(&self.map);
        if map.contains_key(&tenant.name) {
            return Err(ServerError::TenantExists { name: tenant.name });
        }
        if let Some(budget) = self.device_budget {
            let deployed: usize = map.values().map(|t| t.resident_bytes()).sum();
            let needed = deployed + tenant.resident_bytes();
            if needed > budget {
                return Err(ServerError::TenantBudget { needed, budget });
            }
        }
        let tenant = Arc::new(tenant);
        let mut next = BTreeMap::clone(&map);
        next.insert(tenant.name.clone(), Arc::clone(&tenant));
        *map = Arc::new(next);
        Ok(tenant)
    }

    /// Unpublishes a tenant: removes it from the map, stops new
    /// submissions, purges its queued-but-unexecuted requests (each
    /// answered with a typed [`ServerError::UnknownTenant`]), and folds
    /// its final counters into the retired accumulator. In-flight
    /// batches hold their own `Arc<Tenant>` and complete normally.
    /// Returns the tenant's final stats.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownTenant`] for an unknown name;
    /// [`ServerError::Protocol`] for the default tenant, which anchors
    /// unqualified requests and cannot be retired.
    pub fn retire(&self, name: &str, queue: &RequestQueue) -> Result<ServerStats, ServerError> {
        if name == DEFAULT_TENANT {
            return Err(ServerError::Protocol("the default tenant cannot be retired".into()));
        }
        let tenant = {
            let mut map = lock_recover(&self.map);
            let Some(tenant) = map.get(name).cloned() else {
                return Err(ServerError::UnknownTenant { name: name.to_string() });
            };
            let mut next = BTreeMap::clone(&map);
            next.remove(name);
            *map = Arc::new(next);
            tenant
        };
        tenant.retired.store(true, Ordering::Release);
        for item in queue.purge_tenant(tenant.id) {
            item.respond(Err(ServerError::UnknownTenant { name: name.to_string() }));
        }
        let finals = tenant.stats();
        lock_recover(&self.retired_stats).absorb(&finals);
        Ok(finals)
    }

    /// The aggregate server snapshot: retired tenants' final counters
    /// plus every live tenant's, with each live tenant's own snapshot —
    /// stamped with its weight and queue depth — under
    /// [`ServerStats::tenants`]. The top-level `graph_version` mirrors
    /// the default tenant (the one unqualified requests address),
    /// keeping the single-tenant summary contract intact.
    pub fn global_stats(&self, queue: &RequestQueue) -> ServerStats {
        let map = self.snapshot();
        let mut global = lock_recover(&self.retired_stats).clone();
        // `updates` of the default tenant is what the single-tenant
        // summary reported before multi-tenancy; keep absorbing every
        // tenant's into the total, but source version from the default.
        for (name, tenant) in map.iter() {
            let mut stats = tenant.stats();
            stats.weight = tenant.weight;
            stats.queue_depth = queue.depth_of(tenant.id);
            global.absorb(&stats);
            if name == DEFAULT_TENANT {
                global.graph_version = stats.graph_version;
            }
            global.tenants.insert(name.clone(), stats);
        }
        global.queue_depth = queue.depth();
        global.uptime = self.started.elapsed();
        global
    }

    /// Public descriptions of every deployed tenant, in name order.
    pub fn infos(&self, queue: &RequestQueue) -> Vec<TenantInfo> {
        self.snapshot().values().map(|t| t.info(queue)).collect()
    }

    /// Sum of deployed tenants' resident bytes (what the accountant
    /// charges against the device budget).
    pub fn resident_bytes(&self) -> usize {
        self.snapshot().values().map(|t| t.resident_bytes()).sum()
    }

    pub fn device_budget(&self) -> Option<usize> {
        self.device_budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::Entry;
    use crate::observe::TraceMeta;
    use crate::queue::QueueItem;
    use blockgnn_engine::InferRequest;
    use blockgnn_graph::datasets;

    fn engine() -> Engine {
        Engine::builder(ModelKind::Gcn, BackendKind::Dense)
            .hidden_dim(8)
            .build(Arc::new(datasets::cora_like_small(3)))
            .unwrap()
    }

    #[test]
    fn spec_compact_form_round_trips_names() {
        let spec = TenantSpec::parse_compact("traffic=citeseer-small:gs-pool:dense").unwrap();
        assert_eq!(spec.name, "traffic");
        assert_eq!(spec.dataset, "citeseer-small");
        assert_eq!(spec.model, ModelKind::GsPool);
        assert_eq!(spec.backend, BackendKind::Dense);
        assert_eq!(spec.weight, 1);
        for bad in [
            "noequals",
            "=cora-small:gcn:dense",
            "x=cora-small:gcn",
            "x=cora-small:gcn:dense:extra",
            "x=cora-small:nope:dense",
            "x=cora-small:gcn:nope",
            "x=:gcn:dense",
        ] {
            assert!(TenantSpec::parse_compact(bad).is_err(), "{bad:?} must fail");
        }
        for kind in [ModelKind::Gcn, ModelKind::GsPool, ModelKind::Ggcn, ModelKind::Gat] {
            assert_eq!(parse_model_kind(model_kind_name(kind)).unwrap(), kind);
        }
        for kind in [BackendKind::Dense, BackendKind::Spectral, BackendKind::SimulatedAccel] {
            assert_eq!(parse_backend_kind(kind.name()).unwrap(), kind);
        }
    }

    #[test]
    fn registry_swaps_maps_and_accounts_residency() {
        let queue = RequestQueue::new();
        let tiny_budget = {
            // Budget fits exactly one copy of the test engine.
            let e = engine();
            e.resident_bytes() + e.resident_bytes() / 2
        };
        let registry = TenantRegistry::new(Some(tiny_budget));
        let before = registry.snapshot();
        let a = Tenant::forked(registry.next_id(), "a", 1, 8, engine(), 1);
        registry.deploy(a).unwrap();
        // Readers holding the old map are unaffected; new lookups see it.
        assert!(before.is_empty());
        assert!(registry.get("a").is_ok());
        // Name collision is typed.
        let dup = Tenant::forked(registry.next_id(), "a", 1, 8, engine(), 1);
        assert!(matches!(registry.deploy(dup), Err(ServerError::TenantExists { .. })));
        // A second tenant overflows the 1.5× budget, typed.
        let b = Tenant::forked(registry.next_id(), "b", 1, 8, engine(), 1);
        match registry.deploy(b) {
            Err(ServerError::TenantBudget { needed, budget }) => {
                assert!(needed > budget);
                assert_eq!(budget, tiny_budget);
            }
            Err(other) => panic!("expected TenantBudget, got {other:?}"),
            Ok(_) => panic!("expected TenantBudget, got a deployed tenant"),
        }
        // Retiring is typed for unknown names and forbidden for default.
        assert!(matches!(
            registry.retire("ghost", &queue),
            Err(ServerError::UnknownTenant { .. })
        ));
        assert!(matches!(
            registry.retire(DEFAULT_TENANT, &queue),
            Err(ServerError::Protocol(_))
        ));
        // Retiring "a" answers what it still had queued, typed, and
        // frees its residency; "b" now fits.
        let a = registry.get("a").unwrap();
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let item = QueueItem {
            request: InferRequest::full_graph(vec![0]),
            tenant: Arc::clone(&a),
            class: SloClass::Gold,
            deadline: None,
            enqueued_at: Instant::now(),
            trace: TraceMeta::UNTRACED,
            responder: tx,
        };
        let entry = Entry { nodes: 1, deadline: None, payload: item };
        queue.push(a.lane(SloClass::Gold), entry).unwrap();
        registry.retire("a", &queue).unwrap();
        assert_eq!(
            rx.recv().unwrap().unwrap_err(),
            ServerError::UnknownTenant { name: "a".into() }
        );
        assert_eq!(queue.depth(), 0);
        assert!(registry.get("a").is_err());
        let b = Tenant::forked(registry.next_id(), "b", 1, 8, engine(), 1);
        registry.deploy(b).unwrap();
        assert_eq!(registry.infos(&queue).len(), 1);
    }

    #[test]
    fn engine_pool_checkout_round_trips() {
        let tenant = Tenant::forked(0, "t", 1, 8, engine(), 3);
        let a = tenant.engines.checkout();
        let b = tenant.engines.checkout();
        let c = tenant.engines.checkout();
        tenant.engines.checkin(a);
        tenant.engines.checkin(b);
        tenant.engines.checkin(c);
        // All three replicas came back; a fourth checkout succeeds.
        let again = tenant.engines.checkout();
        tenant.engines.checkin(again);
        assert!(tenant.resident_bytes() > 0);
        assert_eq!(tenant.version(), 0);
    }
}

//! The serving runtime: a shared worker pool over a multi-tenant
//! registry, fed by the weighted-fair admission queue, coalescing
//! requests into per-tenant micro-batches.
//!
//! # Lifecycle
//!
//! ```text
//! submit ──► RequestQueue (per-tenant × per-class lanes, shed-on-overload)
//!                │   next_batch: weighted-fair lane pick + adaptive window/caps
//!                ▼
//!         worker thread ──► tenant.engines.checkout()
//!                │                │ Engine::infer_coalesced
//!                │                ▼ merged-universe execution + scatter
//!                └──────► responder channel ──► Ticket::wait
//! ```
//!
//! Every tenant owns a pool of [`Engine::fork`] replicas (prepared
//! weights, versioned graph state, the version-keyed full-graph logits
//! cache and — for an engine widened with [`Engine::into_parallel`] —
//! the partition plan are `Arc`-shared); a worker checks one out per
//! batch,
//! so any worker can serve any tenant and tenants with no traffic cost
//! nothing. Graph updates ([`Server::apply_delta`], `update@tenant`)
//! swap the addressed tenant's shared snapshot **between micro-batches**
//! and never touch another tenant's state; likewise
//! [`Server::deploy`]/[`Server::retire`] swap the registry map without
//! stalling in-flight batches of other tenants. Shutdown closes the
//! queue (new submissions shed with `ShuttingDown`), drains what was
//! admitted, and joins the workers.

use crate::batcher::{BatchLimits, Entry};
use crate::config::ServerConfig;
use crate::error::ServerError;
use crate::fault::{lock_recover, CircuitBreaker, EngineFault, FaultInjector};
use crate::observe::{
    chrome_trace_json, MetricsRegistry, Recorder, Span, TraceMeta, TraceOutcome, TraceQuery,
    TraceRecord, SLOW_THRESHOLD,
};
use crate::protocol::HealthReport;
use crate::queue::{QueueItem, RequestQueue, SubmitOptions};
use crate::telemetry::{ServerStats, Telemetry};
use crate::tenant::{Tenant, TenantInfo, TenantRegistry, TenantSpec, DEFAULT_TENANT};
use blockgnn_engine::{
    assemble_response, Engine, EngineError, GraphDelta, InferRequest, InferResponse,
};
use blockgnn_gnn::ModelKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shared crash/restart accounting for the worker pool: who is alive,
/// how often workers have panicked, and whether the crash circuit
/// breaker currently has the pool marked degraded.
///
/// Workers are *self-healing in place*: a panic mid-batch is caught at
/// the batch boundary (the thread never dies), so "alive" here means
/// "serving", and a worker sitting out its respawn backoff counts as
/// down until [`PoolHealth::record_restart`] brings it back.
pub(crate) struct PoolHealth {
    /// Configured pool size (what `alive` recovers to).
    workers: usize,
    /// Workers currently serving (dips while a crashed worker backs
    /// off).
    alive: AtomicUsize,
    /// Lifetime worker panics caught at the batch boundary.
    crashes: AtomicU64,
    /// Lifetime respawns (one per crash once the backoff elapses).
    restarts: AtomicU64,
    /// ≥ threshold crashes inside the window open the breaker; the pool
    /// is degraded (brownout shedding) until the cooldown passes.
    breaker: Mutex<CircuitBreaker>,
}

impl PoolHealth {
    fn new(workers: usize, config: &ServerConfig) -> Self {
        Self {
            workers,
            alive: AtomicUsize::new(workers),
            crashes: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            breaker: Mutex::new(CircuitBreaker::new(
                config.breaker_threshold,
                config.breaker_window,
                config.breaker_cooldown,
            )),
        }
    }

    /// Books one caught panic: the worker leaves the serving set, the
    /// breaker counts the crash, and the queue enters brownout if it
    /// opens.
    fn record_crash(&self, queue: &RequestQueue) {
        self.alive.fetch_sub(1, Ordering::AcqRel);
        self.crashes.fetch_add(1, Ordering::Relaxed);
        if lock_recover(&self.breaker).record_crash(Instant::now()) {
            queue.set_degraded(true);
        }
    }

    /// Books the respawn after the backoff: the worker rejoins the
    /// serving set on a fresh engine fork.
    fn record_restart(&self, queue: &RequestQueue) {
        self.alive.fetch_add(1, Ordering::AcqRel);
        self.restarts.fetch_add(1, Ordering::Relaxed);
        self.refresh(queue);
    }

    /// Re-evaluates the breaker, clearing (or re-asserting) brownout.
    fn refresh(&self, queue: &RequestQueue) {
        let open = lock_recover(&self.breaker).is_open(Instant::now());
        queue.set_degraded(open);
    }

    /// Cheap per-batch poll: only consults the breaker while degraded,
    /// so the healthy hot path stays one atomic load.
    fn tick(&self, queue: &RequestQueue) {
        if queue.is_degraded() {
            self.refresh(queue);
        }
    }

    fn report(&self, queue: &RequestQueue) -> HealthReport {
        self.refresh(queue);
        HealthReport {
            workers: self.workers,
            alive: self.alive.load(Ordering::Acquire),
            crashes: self.crashes.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
            degraded: queue.is_degraded(),
        }
    }

    /// Stamps the health identity fields onto an aggregate stats
    /// snapshot.
    fn stamp(&self, stats: &mut ServerStats, queue: &RequestQueue) {
        stats.workers_alive = self.alive.load(Ordering::Acquire);
        stats.worker_crashes = self.crashes.load(Ordering::Relaxed);
        stats.restarts = self.restarts.load(Ordering::Relaxed);
        stats.degraded = queue.is_degraded();
    }
}

/// Base backoff a crashed worker sleeps before respawning; doubles per
/// consecutive crash up to [`RESTART_BACKOFF_MAX`] and resets after a
/// clean batch.
const RESTART_BACKOFF: Duration = Duration::from_millis(5);
const RESTART_BACKOFF_MAX: Duration = Duration::from_millis(200);

/// The respawn backoff for the n-th consecutive crash (1-based):
/// `RESTART_BACKOFF × 2^(n−1)`, capped at [`RESTART_BACKOFF_MAX`].
fn restart_backoff(consecutive: u32) -> Duration {
    let doubled = RESTART_BACKOFF.saturating_mul(1u32 << consecutive.saturating_sub(1).min(16));
    doubled.min(RESTART_BACKOFF_MAX)
}

/// A pending answer; blocks on [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<Result<InferResponse, ServerError>>,
}

impl Ticket {
    /// Blocks until the serving worker answers (or sheds) the request.
    ///
    /// # Errors
    ///
    /// Whatever the worker decided — see [`ServerError`] — or
    /// [`ServerError::Canceled`] if the worker vanished.
    pub fn wait(self) -> Result<InferResponse, ServerError> {
        self.rx.recv().unwrap_or(Err(ServerError::Canceled))
    }
}

/// The concurrent serving runtime. Construct with [`Server::start`]
/// (worker pool over a forked [`Engine`], which becomes the `default`
/// tenant); add tenants with [`Server::deploy`]; submit through
/// [`Server::handle`] / [`Server::handle_for`]; stop with
/// [`Server::shutdown`].
pub struct Server {
    queue: Arc<RequestQueue>,
    registry: Arc<TenantRegistry>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    config: ServerConfig,
    /// The tenant unqualified requests address.
    default: Arc<Tenant>,
    /// The flight recorder: trace-id source, per-worker rings, exemplar
    /// buffer. Inert when [`ServerConfig::tracing`] is off.
    recorder: Arc<Recorder>,
    /// Crash/restart accounting + the circuit breaker (shared with every
    /// worker's supervision loop).
    health: Arc<PoolHealth>,
    /// The deterministic fault injector ([`ServerConfig::faults`]); a
    /// single-branch no-op when no plan is loaded.
    injector: FaultInjector,
}

impl Server {
    /// Starts the runtime: the engine becomes the `default` tenant with
    /// `config.workers` replicas (the original plus `workers − 1` forks)
    /// and one batching worker thread per replica.
    ///
    /// # Errors
    ///
    /// [`EngineError::NoWorkers`] (as [`ServerError::Engine`]) when
    /// `config.workers` is zero; [`ServerError::TenantBudget`] when the
    /// engine alone overflows a configured
    /// [`ServerConfig::device_budget_bytes`].
    pub fn start(engine: Engine, config: ServerConfig) -> Result<Self, ServerError> {
        if config.workers == 0 {
            return Err(ServerError::Engine(EngineError::NoWorkers));
        }
        let registry = TenantRegistry::new(config.device_budget_bytes);
        let tenant = Tenant::forked(
            registry.next_id(),
            DEFAULT_TENANT,
            1,
            config.max_queue_depth,
            engine,
            config.workers,
        );
        let default = registry.deploy(tenant)?;
        Ok(Self::spawn(registry, default, config))
    }

    fn spawn(registry: TenantRegistry, default: Arc<Tenant>, config: ServerConfig) -> Self {
        let registry = Arc::new(registry);
        let queue: Arc<RequestQueue> = Arc::new(RequestQueue::new(config.class_weights()));
        let limits = BatchLimits::from(&config);
        let recorder = Arc::new(Recorder::new(config.workers, config.tracing));
        let health = Arc::new(PoolHealth::new(config.workers, &config));
        let injector =
            config.faults.clone().map_or_else(FaultInjector::disabled, FaultInjector::new);
        let workers = (0..config.workers)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let recorder = Arc::clone(&recorder);
                let health = Arc::clone(&health);
                let injector = injector.clone();
                std::thread::Builder::new()
                    .name(format!("blockgnn-worker-{i}"))
                    .spawn(move || {
                        // Consecutive-crash streak driving the
                        // exponential backoff; a clean batch resets it.
                        let mut streak = 0u32;
                        while let Some(batch) = queue.next_batch(&limits) {
                            // The batch's tenant survives a concurrent
                            // retire: the items hold the Arc.
                            let tenant = Arc::clone(&batch[0].tenant);
                            let mut engine = tenant.engines.checkout();
                            // The crash is booked before the batch's
                            // typed replies go out, so `health` never
                            // lags a reply a client already holds.
                            let crashed = serve_batch(
                                &mut engine,
                                batch,
                                &tenant.telemetry,
                                &recorder,
                                i,
                                &injector,
                                || health.record_crash(&queue),
                            );
                            if crashed {
                                // The interrupted replica is dropped
                                // for a fresh fork serving identical
                                // bits; the pool never shrinks.
                                tenant.engines.checkin(tenant.fresh_replica());
                                streak += 1;
                                std::thread::sleep(restart_backoff(streak));
                                health.record_restart(&queue);
                            } else {
                                streak = 0;
                                tenant.engines.checkin(engine);
                                health.tick(&queue);
                            }
                        }
                    })
                    .expect("worker thread spawns")
            })
            .collect();
        Self {
            queue,
            registry,
            workers: Mutex::new(workers),
            config,
            default,
            recorder,
            health,
            injector,
        }
    }

    /// A submission handle on the `default` tenant (what unqualified
    /// protocol commands use).
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        self.handle_of(Arc::clone(&self.default))
    }

    /// A submission handle on a named tenant.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownTenant`] when no such tenant is deployed.
    pub fn handle_for(&self, tenant: &str) -> Result<ServerHandle, ServerError> {
        Ok(self.handle_of(self.registry.get(tenant)?))
    }

    fn handle_of(&self, tenant: Arc<Tenant>) -> ServerHandle {
        ServerHandle {
            queue: Arc::clone(&self.queue),
            registry: Arc::clone(&self.registry),
            tenant,
            config: self.config.clone(),
            recorder: Arc::clone(&self.recorder),
            health: Arc::clone(&self.health),
        }
    }

    /// Deploys a new tenant from a spec: builds its engine (generated
    /// dataset × fresh model × backend, all pinned by the spec's seed),
    /// forks `config.workers` replicas, runs the aggregate residency
    /// check, and publishes it — without stalling any other tenant's
    /// traffic. Returns a handle on the new tenant.
    ///
    /// # Errors
    ///
    /// [`ServerError::TenantExists`] on a name collision,
    /// [`ServerError::TenantBudget`] on an over-budget deploy,
    /// [`ServerError::Protocol`]/[`ServerError::Engine`] for a bad spec.
    pub fn deploy(&self, spec: &TenantSpec) -> Result<ServerHandle, ServerError> {
        let engine = spec.build_engine()?;
        self.deploy_engine(spec, engine)
    }

    /// Deploys a tenant around a caller-built engine (custom dataset,
    /// trained model, non-default accelerator config, …). Only the
    /// spec's `name`, `weight`, and `max_queue_depth` are used.
    ///
    /// # Errors
    ///
    /// As [`Server::deploy`], minus the spec-build failures.
    pub fn deploy_engine(
        &self,
        spec: &TenantSpec,
        engine: Engine,
    ) -> Result<ServerHandle, ServerError> {
        let tenant = Tenant::forked(
            self.registry.next_id(),
            &spec.name,
            spec.weight,
            spec.max_queue_depth.unwrap_or(self.config.max_queue_depth),
            engine,
            self.config.workers.max(1),
        );
        let tenant = self.registry.deploy(tenant)?;
        Ok(self.handle_of(tenant))
    }

    /// Retires a tenant: unpublishes it, sheds its queued requests with
    /// a typed [`ServerError::UnknownTenant`], and folds its final
    /// counters into the aggregate stats. In-flight batches complete;
    /// other tenants are never stalled. Returns the tenant's final
    /// stats.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownTenant`] for an unknown name;
    /// [`ServerError::Protocol`] for the irremovable `default` tenant.
    pub fn retire(&self, tenant: &str) -> Result<ServerStats, ServerError> {
        self.registry.retire(tenant, &self.queue)
    }

    /// Public descriptions of every deployed tenant, in name order.
    #[must_use]
    pub fn tenants(&self) -> Vec<TenantInfo> {
        self.registry.infos(&self.queue)
    }

    /// One tenant's private telemetry snapshot (its own counters and
    /// graph version; the aggregate [`Server::stats`] sums these).
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownTenant`] when no such tenant is deployed.
    pub fn tenant_stats(&self, tenant: &str) -> Result<ServerStats, ServerError> {
        Ok(self.registry.get(tenant)?.stats())
    }

    /// Sum of deployed tenants' §IV-B/§IV-C resident bytes — what the
    /// accountant charges against
    /// [`ServerConfig::device_budget_bytes`] on the next deploy.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.registry.resident_bytes()
    }

    /// The configured device budget the accountant enforces (`None` =
    /// unbounded).
    #[must_use]
    pub fn device_budget(&self) -> Option<usize> {
        self.registry.device_budget()
    }

    /// The model the `default` tenant answers for.
    #[must_use]
    pub fn model_kind(&self) -> ModelKind {
        self.default.model_kind
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Applies a [`GraphDelta`] to the `default` tenant's graph: the new
    /// version is published atomically **between micro-batches** —
    /// batches already executing finish on the version they resolved at
    /// dequeue, the next batch on every worker serves the new one, and
    /// each [`InferResponse::graph_version`] says which side of the swap
    /// it landed on. Returns the new version. Other tenants' graphs are
    /// untouched — versions are per-tenant.
    ///
    /// # Errors
    ///
    /// [`EngineError::Delta`] / [`EngineError::GraphBudget`] (wrapped in
    /// [`ServerError::Engine`]) for rejected deltas. The served graph is
    /// untouched on failure.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<u64, ServerError> {
        self.handle().update(delta)
    }

    /// The `default` tenant's currently served graph version.
    #[must_use]
    pub fn graph_version(&self) -> u64 {
        self.default.version()
    }

    /// Aggregate telemetry snapshot: every live tenant's counters (plus
    /// retired tenants' final ones) summed, with a per-tenant
    /// [`crate::TenantRollup`] under [`ServerStats::tenants`]. The
    /// top-level `graph_version` mirrors the `default` tenant.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        let mut stats = self.registry.global_stats(&self.queue);
        self.health.stamp(&mut stats, &self.queue);
        stats
    }

    /// The worker pool's health: configured size, workers currently
    /// serving (a crashed worker counts as down while it sits out its
    /// respawn backoff), lifetime crash/restart counters, and whether
    /// the crash circuit breaker has the pool degraded (brownout
    /// shedding). Calling this re-evaluates the breaker, so a pool whose
    /// cooldown has passed reports `degraded=false` here even with no
    /// traffic to tick it over.
    #[must_use]
    pub fn health(&self) -> HealthReport {
        self.health.report(&self.queue)
    }

    /// The deterministic fault injector (a no-op handle unless
    /// [`ServerConfig::faults`] loaded a plan). The TCP layer draws its
    /// socket faults from here so one seed covers both sites.
    #[must_use]
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Requests currently queued, across all tenants.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// The flight recorder (trace-id source, per-worker rings, exemplar
    /// buffer). Inert when [`ServerConfig::tracing`] is off.
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Renders the full metrics exposition (Prometheus text format) from
    /// the live telemetry: per-tenant counters labelled
    /// `{tenant,backend}`, per-class counters and latency summaries
    /// labelled `{tenant,class}`, aggregate summaries, and flight
    /// recorder occupancy. Built on demand — nothing is double-counted
    /// against the `stats` verb, which reads the same snapshots.
    #[must_use]
    pub fn metrics_text(&self) -> String {
        let mut reg = MetricsRegistry::new();
        let global = self.stats();
        reg.gauge("blockgnn_uptime_seconds", "Seconds since the server started", &[], {
            global.uptime.as_secs_f64()
        });
        reg.gauge("blockgnn_qps", "Completed requests per second of uptime", &[], global.qps());
        reg.gauge(
            "blockgnn_queue_depth",
            "Requests currently queued across all tenants",
            &[],
            self.queue.depth() as f64,
        );
        reg.gauge(
            "blockgnn_workers_alive",
            "Workers currently serving (a crashed worker is down until its respawn backoff elapses)",
            &[],
            global.workers_alive as f64,
        );
        reg.counter(
            "blockgnn_worker_crashes_total",
            "Worker panics caught at the batch boundary",
            &[],
            global.worker_crashes,
        );
        reg.counter(
            "blockgnn_worker_restarts_total",
            "Crashed-worker respawns (fresh engine fork after backoff)",
            &[],
            global.restarts,
        );
        reg.gauge(
            "blockgnn_pool_degraded",
            "1 while the crash circuit breaker has the pool in brownout, else 0",
            &[],
            if global.degraded { 1.0 } else { 0.0 },
        );
        for (name, tenant) in self.registry.snapshot().iter() {
            let stats = tenant.stats();
            let backend = tenant.backend_kind.name();
            let labels: [(&str, &str); 2] = [("tenant", name.as_str()), ("backend", backend)];
            reg.counter(
                "blockgnn_requests_submitted_total",
                "Requests offered to the admission queue (including shed ones)",
                &labels,
                stats.submitted as u64,
            );
            reg.counter(
                "blockgnn_requests_completed_total",
                "Requests answered successfully",
                &labels,
                stats.completed as u64,
            );
            reg.counter(
                "blockgnn_requests_failed_total",
                "Requests that failed in the engine",
                &labels,
                stats.failed as u64,
            );
            reg.counter(
                "blockgnn_requests_shed_total",
                "Requests shed (admission overload + queued-deadline expiry)",
                &labels,
                stats.shed() as u64,
            );
            reg.counter(
                "blockgnn_batches_total",
                "Coalesced executions run",
                &labels,
                stats.batches as u64,
            );
            reg.counter(
                "blockgnn_deduped_total",
                "Requests that shared an identical request's execution",
                &labels,
                stats.deduped as u64,
            );
            reg.counter(
                "blockgnn_graph_updates_total",
                "Graph deltas applied",
                &labels,
                stats.updates as u64,
            );
            reg.gauge(
                "blockgnn_graph_version",
                "Graph version currently being served",
                &[("tenant", name.as_str())],
                stats.graph_version as f64,
            );
            reg.gauge(
                "blockgnn_tenant_queue_depth",
                "Requests currently queued in the tenant's lanes",
                &[("tenant", name.as_str())],
                self.queue.depth_of(tenant.id) as f64,
            );
            if stats.part_balance > 0.0 {
                reg.gauge(
                    "blockgnn_partition_balance",
                    "Partition load-balance factor of the tenant's full-graph plan \
                     (max part work / mean part work; 1.0 is perfect)",
                    &[("tenant", name.as_str())],
                    stats.part_balance,
                );
            }
            reg.counter(
                "blockgnn_hot_rows_served_total",
                "Stage rows served from the hot-vertex aggregation cache",
                &labels,
                stats.serve.hot_rows_served as u64,
            );
            for (class, rollup) in &stats.classes {
                let labels: [(&str, &str); 2] =
                    [("tenant", name.as_str()), ("class", class.name())];
                reg.counter(
                    "blockgnn_class_requests_total",
                    "Requests offered per SLO class",
                    &labels,
                    rollup.submitted as u64,
                );
                reg.counter(
                    "blockgnn_class_completed_total",
                    "Requests answered per SLO class",
                    &labels,
                    rollup.completed as u64,
                );
                reg.counter(
                    "blockgnn_class_shed_total",
                    "Requests shed per SLO class",
                    &labels,
                    rollup.shed as u64,
                );
                reg.summary(
                    "blockgnn_class_latency_seconds",
                    "End-to-end served latency per SLO class",
                    &labels,
                    &rollup.latency,
                );
            }
        }
        reg.summary(
            "blockgnn_latency_seconds",
            "End-to-end served latency (queue + compute), all tenants",
            &[],
            &global.serve.latency_histogram,
        );
        reg.summary(
            "blockgnn_queue_time_seconds",
            "Time requests spent queued before execution",
            &[],
            &global.queue_time,
        );
        reg.summary(
            "blockgnn_compute_time_seconds",
            "Batch execution time requests rode on",
            &[],
            &global.compute_time,
        );
        reg.gauge(
            "blockgnn_traces_recorded",
            "Trace records currently held across the worker rings",
            &[],
            self.recorder.recorded() as f64,
        );
        for (class, count) in self.recorder.exemplar_counts() {
            reg.gauge(
                "blockgnn_trace_exemplars",
                "Retained slow/shed/failed trace exemplars per SLO class",
                &[("class", class.name())],
                count as f64,
            );
        }
        reg.render()
    }

    /// Answers a [`TraceQuery`] as wire lines (the `trace` verb's body):
    /// one [`TraceRecord::wire_line`] per record, or — for
    /// [`TraceQuery::Export`] — a single line of Chrome trace-event
    /// JSON covering every ring record plus the retained exemplars.
    #[must_use]
    pub fn trace_lines(&self, query: TraceQuery) -> Vec<String> {
        match query {
            TraceQuery::Last(n) => {
                self.recorder.last(n).iter().map(TraceRecord::wire_line).collect()
            }
            TraceQuery::Id(id) => {
                self.recorder.find(id).map(|r| vec![r.wire_line()]).unwrap_or_default()
            }
            TraceQuery::Slow => {
                self.recorder.exemplars().iter().map(TraceRecord::wire_line).collect()
            }
            TraceQuery::Export => vec![self.trace_export_json()],
        }
    }

    /// Everything the flight recorder holds — ring records plus
    /// exemplars, deduplicated by trace id, in id order — as Chrome
    /// trace-event JSON (load in `chrome://tracing` or Perfetto).
    #[must_use]
    pub fn trace_export_json(&self) -> String {
        let mut records = self.recorder.last(usize::MAX);
        let seen: std::collections::HashSet<u64> = records.iter().map(|r| r.trace_id).collect();
        records.extend(
            self.recorder.exemplars().into_iter().filter(|r| !seen.contains(&r.trace_id)),
        );
        records.sort_by_key(|r| r.trace_id);
        chrome_trace_json(&records)
    }

    /// Stops admissions, drains what was already admitted, joins the
    /// workers, and returns the final telemetry. Idempotent.
    pub fn shutdown(&self) -> ServerStats {
        self.queue.close();
        let handles: Vec<_> = lock_recover(&self.workers).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        self.stats()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("model", &self.default.model_kind)
            .field("tenants", &self.registry.snapshot().len())
            .field("config", &self.config)
            .field("queue_depth", &self.queue.depth())
            .finish()
    }
}

/// Cloneable submission front of a [`Server`], scoped to one tenant
/// ([`Server::handle`] for `default`, [`Server::handle_for`] /
/// [`Server::deploy`] for the rest). Requests are validated against,
/// queued in, and versioned by **this** tenant.
#[derive(Clone)]
pub struct ServerHandle {
    queue: Arc<RequestQueue>,
    registry: Arc<TenantRegistry>,
    tenant: Arc<Tenant>,
    config: ServerConfig,
    recorder: Arc<Recorder>,
    health: Arc<PoolHealth>,
}

impl ServerHandle {
    /// The tenant this handle addresses.
    #[must_use]
    pub fn tenant_name(&self) -> &str {
        &self.tenant.name
    }

    /// Submits a request with default options; returns a [`Ticket`]
    /// immediately (admission never blocks).
    ///
    /// # Errors
    ///
    /// [`ServerError::Overloaded`] when the tenant's lane is full,
    /// [`ServerError::ShuttingDown`] after shutdown,
    /// [`ServerError::UnknownTenant`] once the tenant is retired, or
    /// [`ServerError::Engine`] for requests that are invalid on their
    /// face (out-of-range nodes, empty sampled request).
    pub fn submit(&self, request: InferRequest) -> Result<Ticket, ServerError> {
        self.submit_with(request, SubmitOptions::default())
    }

    /// Submits a request with explicit class/deadline options.
    ///
    /// # Errors
    ///
    /// As [`ServerHandle::submit`].
    pub fn submit_with(
        &self,
        request: InferRequest,
        options: SubmitOptions,
    ) -> Result<Ticket, ServerError> {
        if self.tenant.is_retired() {
            return Err(ServerError::UnknownTenant { name: self.tenant.name.clone() });
        }
        // Trace-id assignment is the first act of admission, so the
        // admission span covers validation + deadline resolution. With
        // tracing off the id is 0 and nothing else is touched.
        let trace_id = self.recorder.assign();
        let trace_start = if trace_id != 0 { self.recorder.now() } else { Duration::ZERO };
        self.tenant.telemetry.record_submitted(options.class);
        // Front-door validation with the engine's own validity rule, so
        // obviously bad requests fail at submission with a typed error
        // instead of occupying queue space (and the two paths cannot
        // drift). Validated against the *addressed tenant's* current
        // node count; the engine re-validates against whatever version
        // the request's batch resolves (node counts only grow, so an
        // admitted request stays valid).
        if let Err(e) = blockgnn_engine::validate_request(&request, self.num_nodes()) {
            self.tenant.telemetry.with(|s| {
                s.failed += 1;
                s.class_mut(options.class).failed += 1;
            });
            if trace_id != 0 {
                self.recorder.record_shed(TraceRecord {
                    trace_id,
                    tenant: self.tenant.name.clone(),
                    class: options.class,
                    outcome: TraceOutcome::Failed,
                    batch_size: 0,
                    spans: vec![Span {
                        stage: "admission",
                        start: trace_start,
                        end: self.recorder.now(),
                    }],
                });
            }
            return Err(ServerError::Engine(e));
        }
        // Deadline precedence: the request's own, else its class's
        // configured default, else the server-wide default.
        let deadline = options
            .deadline
            .or_else(|| self.config.class_deadline(options.class))
            .map(|d| Instant::now() + d);
        let (tx, rx) = sync_channel(1);
        let trace = if trace_id != 0 {
            TraceMeta {
                id: trace_id,
                start: trace_start,
                admission: self.recorder.now().saturating_sub(trace_start),
            }
        } else {
            TraceMeta::UNTRACED
        };
        let nodes = request.nodes.len();
        let item = QueueItem {
            request,
            tenant: Arc::clone(&self.tenant),
            class: options.class,
            deadline,
            enqueued_at: Instant::now(),
            trace,
            responder: tx,
        };
        let entry = Entry { payload: item, nodes, deadline };
        match self.queue.push(self.tenant.lane(options.class), entry) {
            Ok(()) => Ok(Ticket { rx }),
            Err(e) => {
                if matches!(e, ServerError::Overloaded { .. }) {
                    self.tenant.telemetry.record_shed_overload(options.class);
                    if trace_id != 0 {
                        self.recorder.record_shed(TraceRecord {
                            trace_id,
                            tenant: self.tenant.name.clone(),
                            class: options.class,
                            outcome: TraceOutcome::ShedOverload,
                            batch_size: 0,
                            spans: vec![Span {
                                stage: "admission",
                                start: trace.start,
                                end: trace.start + trace.admission,
                            }],
                        });
                    }
                }
                Err(e)
            }
        }
    }

    /// Submits and blocks for the answer.
    ///
    /// # Errors
    ///
    /// As [`ServerHandle::submit`], plus whatever the worker decided.
    pub fn infer(&self, request: InferRequest) -> Result<InferResponse, ServerError> {
        self.submit(request)?.wait()
    }

    /// Submits with options and blocks for the answer.
    ///
    /// # Errors
    ///
    /// As [`ServerHandle::submit_with`], plus whatever the worker
    /// decided.
    pub fn infer_with(
        &self,
        request: InferRequest,
        options: SubmitOptions,
    ) -> Result<InferResponse, ServerError> {
        self.submit_with(request, options)?.wait()
    }

    /// Applies a [`GraphDelta`] to this tenant's graph (see
    /// [`Server::apply_delta`] for the between-batches atomicity
    /// contract), returning the new version.
    ///
    /// # Errors
    ///
    /// As [`Server::apply_delta`].
    pub fn update(&self, delta: &GraphDelta) -> Result<u64, ServerError> {
        self.update_acked(delta).map(|ack| ack.version)
    }

    /// Like [`ServerHandle::update`], but returns the full
    /// [`crate::UpdateAck`] — tenant name, version, and the node/arc
    /// counts of exactly the epoch this delta published (consistent even
    /// when another client's update lands right after).
    ///
    /// # Errors
    ///
    /// As [`Server::apply_delta`].
    pub fn update_acked(&self, delta: &GraphDelta) -> Result<crate::UpdateAck, ServerError> {
        if self.tenant.is_retired() {
            return Err(ServerError::UnknownTenant { name: self.tenant.name.clone() });
        }
        match self.tenant.graph.apply_delta_acked(delta) {
            Ok((version, num_nodes, num_arcs)) => {
                self.tenant.telemetry.with(|s| s.updates += 1);
                Ok(crate::UpdateAck {
                    tenant: self.tenant.name.clone(),
                    version,
                    num_nodes,
                    num_arcs,
                })
            }
            Err(e) => {
                self.tenant.telemetry.with(|s| s.failed_updates += 1);
                Err(ServerError::Engine(e))
            }
        }
    }

    /// This tenant's currently served graph version.
    #[must_use]
    pub fn graph_version(&self) -> u64 {
        self.tenant.version()
    }

    /// Aggregate telemetry snapshot across all tenants (identical to
    /// [`Server::stats`]; for this tenant's own slice, see
    /// [`ServerHandle::tenant_stats`]).
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        let mut stats = self.registry.global_stats(&self.queue);
        self.health.stamp(&mut stats, &self.queue);
        stats
    }

    /// This tenant's private telemetry snapshot.
    #[must_use]
    pub fn tenant_stats(&self) -> ServerStats {
        self.tenant.stats()
    }

    /// A wire-friendly description of this handle's tenant (what the
    /// `deploy` ack and `list` report).
    #[must_use]
    pub fn info(&self) -> TenantInfo {
        TenantInfo {
            name: self.tenant.name.clone(),
            model: self.tenant.model_kind,
            backend: self.tenant.backend_kind,
            graph_version: self.tenant.version(),
            num_nodes: self.tenant.num_nodes(),
            weight: self.tenant.weight,
            queue_depth: self.queue.depth_of(self.tenant.id),
            resident_bytes: self.tenant.resident_bytes(),
        }
    }

    /// Nodes in this tenant's current graph version (the bound request
    /// node ids must obey; deltas can grow this).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.tenant.num_nodes()
    }

    /// Stored arcs in this tenant's current graph version.
    #[must_use]
    pub fn num_arcs(&self) -> usize {
        self.tenant.num_arcs()
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("tenant", &self.tenant.name)
            .field("num_nodes", &self.num_nodes())
            .field("graph_version", &self.graph_version())
            .finish()
    }
}

/// Executes one dequeued (single-tenant) batch: sheds expired requests,
/// runs the rest as a coalesced execution, and delivers every answer.
/// `telemetry` is the owning tenant's accumulator; finished trace
/// records land in `recorder`'s ring for `worker` (this function is the
/// ring's single writer).
///
/// The engine execution (and only it) runs inside a `catch_unwind`
/// fault domain: a panic there — the engine's own or one injected by
/// `injector` — converts every live request of the batch into a typed
/// [`ServerError::WorkerCrashed`] reply (the connection never drops),
/// books the crash in telemetry and through `on_crash` (before any
/// reply), pushes a `crashed` exemplar per traced request, and returns
/// `true` so the worker loop can swap the replica and back off.
/// Shedding and reply delivery stay outside the unwind
/// boundary — they own the queue items and must run exactly once.
fn serve_batch(
    engine: &mut Engine,
    batch: Vec<QueueItem>,
    telemetry: &Telemetry,
    recorder: &Recorder,
    worker: usize,
    injector: &FaultInjector,
    on_crash: impl FnOnce(),
) -> bool {
    let exec_start = Instant::now();
    // Batches never span classes, so the whole batch's per-class
    // accounting lands in one rollup.
    let class = batch[0].class;
    let tracing = recorder.enabled();
    let tenant_name = if tracing { batch[0].tenant.name.clone() } else { String::new() };
    // Offset of this batch's dequeue on the trace timeline: the end of
    // every member's `queued` span and the start of `assembly`.
    let exec_off = recorder.offset(exec_start);
    let (live, expired): (Vec<_>, Vec<_>) =
        batch.into_iter().partition(|item| !item.expired(exec_start));
    if !expired.is_empty() {
        telemetry.with(|s| {
            s.shed_deadline += expired.len();
            s.class_mut(class).shed += expired.len();
        });
        for item in expired {
            let waited = exec_start.saturating_duration_since(item.enqueued_at);
            if tracing && item.trace.id != 0 {
                recorder.record(
                    worker,
                    TraceRecord {
                        trace_id: item.trace.id,
                        tenant: tenant_name.clone(),
                        class,
                        outcome: TraceOutcome::ShedDeadline,
                        batch_size: 0,
                        spans: vec![
                            admission_span(&item.trace),
                            Span {
                                stage: "queued",
                                start: recorder.offset(item.enqueued_at),
                                end: exec_off,
                            },
                        ],
                    },
                    false,
                );
            }
            item.respond(Err(ServerError::DeadlineExceeded { waited }));
        }
    }
    if live.is_empty() {
        return false;
    }
    let requests: Vec<InferRequest> = live.iter().map(|item| item.request.clone()).collect();
    // Batch assembly ends (and engine execution begins) here.
    let assembly_off = recorder.offset(Instant::now());
    // The engine-stage injection point, compiled into the real path: a
    // drawn Panic unwinds exactly like an engine bug would, Latency
    // stalls the execution, AllocFail turns the whole batch into typed
    // engine errors without crossing the fault domain.
    let injected = injector.engine_fault();
    if injected == EngineFault::AllocFail {
        telemetry.with(|s| {
            s.failed += live.len();
            s.class_mut(class).failed += live.len();
        });
        for item in live {
            item.respond(Err(ServerError::RemoteEngine(
                "injected allocation failure at engine stage boundary".into(),
            )));
        }
        return false;
    }
    // Only the engine execution sits inside the unwind boundary; the
    // queue items stay outside it, so every in-flight request can still
    // be answered (typed) after a panic. `AssertUnwindSafe` is sound
    // here because a crashed replica is discarded, never reused — the
    // worker loop forks a replacement from the Arc-shared prepared
    // state.
    let executed = catch_unwind(AssertUnwindSafe(|| {
        match injected {
            EngineFault::Panic => panic!("injected fault: engine stage panic"),
            EngineFault::Latency(pause) => std::thread::sleep(pause),
            EngineFault::None | EngineFault::AllocFail => {}
        }
        let coalesced = engine.infer_coalesced(&requests);
        (coalesced.outcomes, coalesced.deduped, coalesced.stage_timings)
    }));
    let (outcomes, deduped, stage_timings) = match executed {
        Ok(result) => result,
        Err(_) => {
            // The fault domain tripped: every in-flight request of this
            // batch gets exactly one typed reply — never a dropped
            // connection — and a `crashed` exemplar survives in the
            // flight recorder.
            let crash_off = recorder.offset(Instant::now());
            on_crash();
            telemetry.with(|s| {
                s.failed += live.len();
                s.class_mut(class).failed += live.len();
            });
            for item in live {
                if tracing && item.trace.id != 0 {
                    recorder.record(
                        worker,
                        TraceRecord {
                            trace_id: item.trace.id,
                            tenant: tenant_name.clone(),
                            class,
                            outcome: TraceOutcome::Crashed,
                            batch_size: requests.len(),
                            spans: vec![
                                admission_span(&item.trace),
                                Span {
                                    stage: "queued",
                                    start: recorder.offset(item.enqueued_at),
                                    end: exec_off,
                                },
                                Span { stage: "execute", start: assembly_off, end: crash_off },
                            ],
                        },
                        false,
                    );
                }
                item.respond(Err(ServerError::WorkerCrashed));
            }
            return true;
        }
    };
    let compute_end = Instant::now();
    let compute_time = exec_start.elapsed();
    // Engine stage spans laid end-to-end from where assembly finished
    // (stage timings are durations; the sequence reconstructs the
    // timeline). A batch in which no stage ran (every member failed
    // validation) becomes one `execute` span.
    let stage_spans: Vec<Span> = if !tracing {
        Vec::new()
    } else if stage_timings.is_empty() {
        vec![Span { stage: "execute", start: assembly_off, end: recorder.offset(compute_end) }]
    } else {
        let mut spans = Vec::with_capacity(stage_timings.len());
        let mut cursor = assembly_off;
        for timing in &stage_timings {
            let end = cursor + timing.elapsed;
            spans.push(Span { stage: timing.stage, start: cursor, end });
            cursor = end;
        }
        spans
    };
    // Assemble every answer into worker-local accumulators first, so
    // the shared telemetry lock is taken once, briefly — response
    // assembly (argmax over logits) must not serialize the worker pool.
    // Counters fold BEFORE any answer is delivered: a caller that has
    // observed its response must also observe its completion in stats
    // (retire sendoffs and per-tenant rollups count on this).
    let batch_size = live.len();
    let mut local = ServerStats::default();
    let mut deliveries = Vec::with_capacity(batch_size);
    // Trace context outlives delivery (`respond` consumes the item), so
    // records are assembled after the answers are on the wire.
    let mut traces: Vec<(TraceMeta, Instant, Option<Instant>, TraceOutcome)> = Vec::new();
    for (item, outcome) in live.into_iter().zip(outcomes) {
        let queue_time = exec_start.saturating_duration_since(item.enqueued_at);
        match outcome {
            Ok(outcome) => {
                local.queue_time.record(queue_time);
                local.compute_time.record(compute_time);
                local.completed += 1;
                let rollup = local.class_mut(class);
                rollup.completed += 1;
                rollup.latency.record(queue_time + compute_time);
                let mut response =
                    assemble_response(outcome, queue_time, compute_time, &mut local.serve);
                response.trace_id = item.trace.id;
                if tracing && item.trace.id != 0 {
                    traces.push((
                        item.trace,
                        item.enqueued_at,
                        item.deadline,
                        TraceOutcome::Completed,
                    ));
                }
                deliveries.push((item, Ok(response)));
            }
            Err(e) => {
                local.failed += 1;
                local.class_mut(class).failed += 1;
                if tracing && item.trace.id != 0 {
                    traces.push((
                        item.trace,
                        item.enqueued_at,
                        item.deadline,
                        TraceOutcome::Failed,
                    ));
                }
                deliveries.push((item, Err(ServerError::Engine(e))));
            }
        }
    }
    telemetry.with(|stats| {
        stats.batches += 1;
        *stats.batch_size_counts.entry(batch_size).or_insert(0) += 1;
        stats.deduped += deduped;
        stats.completed += local.completed;
        stats.failed += local.failed;
        stats.serve.merge(&local.serve);
        stats.queue_time.merge(&local.queue_time);
        stats.compute_time.merge(&local.compute_time);
        for (class, rollup) in &local.classes {
            stats.class_mut(*class).merge(rollup);
        }
    });
    let write_start = Instant::now();
    for (item, answer) in deliveries {
        item.respond(answer);
    }
    if traces.is_empty() {
        return false;
    }
    // Ring writes happen strictly after every answer is delivered —
    // tracing never sits between a worker and a waiting caller.
    let write_end = Instant::now();
    let write_span = Span {
        stage: "response_write",
        start: recorder.offset(write_start),
        end: recorder.offset(write_end),
    };
    for (meta, enqueued_at, deadline, outcome) in traces {
        let mut spans = Vec::with_capacity(3 + stage_spans.len() + 1);
        spans.push(admission_span(&meta));
        spans.push(Span {
            stage: "queued",
            start: recorder.offset(enqueued_at),
            end: exec_off,
        });
        spans.push(Span { stage: "assembly", start: exec_off, end: assembly_off });
        spans.extend(stage_spans.iter().cloned());
        spans.push(write_span.clone());
        let record = TraceRecord {
            trace_id: meta.id,
            tenant: tenant_name.clone(),
            class,
            outcome,
            batch_size,
            spans,
        };
        // Slow = missed its own deadline; with none, the fixed
        // threshold stands in.
        let slow = match deadline {
            Some(deadline) => write_end > deadline,
            None => record.total() > SLOW_THRESHOLD,
        };
        recorder.record(worker, record, slow);
    }
    false
}

/// The admission span a [`TraceMeta`] carries through the queue.
fn admission_span(meta: &TraceMeta) -> Span {
    Span { stage: "admission", start: meta.start, end: meta.start + meta.admission }
}

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
//! weights and versioned graph state are `Arc`-shared, and each graph
//! epoch carries its own full-graph logits and — for an engine widened
//! with [`Engine::into_parallel`] — partition plan); a
//! worker checks one out per batch, so any worker can serve any tenant
//! and tenants with no traffic cost nothing. Graph updates ([`Server::apply_delta`], `update@tenant`)
//! swap the addressed tenant's shared snapshot **between micro-batches**
//! and never touch another tenant's state; likewise
//! [`Server::deploy`]/[`Server::retire`] swap the registry map without
//! stalling in-flight batches of other tenants. Shutdown closes the
//! queue (new submissions shed with `ShuttingDown`), drains what was
//! admitted, and joins the workers.

use crate::batcher::{BatchLimits, Entry, Lane};
use crate::config::ServerConfig;
use crate::error::ServerError;
use crate::fault::{lock_recover, CircuitBreaker, EngineFault, FaultInjector};
use crate::observe::{
    chrome_trace_json, write_family, write_summary, Recorder, Span, TraceMeta, TraceOutcome,
    TraceQuery, TraceRecord, SLOW_THRESHOLD,
};
use crate::protocol::HealthReport;
use crate::queue::{QueueItem, RequestQueue, SubmitOptions};
use crate::telemetry::{
    write_families, ServerStats, CLASS_COUNTERS, SERVER_COUNTERS, TENANT_COUNTERS,
};
use crate::tenant::{Tenant, TenantInfo, TenantRegistry, TenantSpec, DEFAULT_TENANT};
use blockgnn_engine::{
    assemble_response, Engine, EngineError, GraphDelta, InferRequest, InferResponse,
};
use blockgnn_gnn::ModelKind;
use std::io;
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

    /// The pool's state: what `health` replies, and what every stats
    /// snapshot carries (every tenant is served by the one pool).
    fn report(&self, queue: &RequestQueue) -> HealthReport {
        HealthReport {
            workers: self.workers,
            alive: self.alive.load(Ordering::Acquire),
            crashes: self.crashes.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
            degraded: queue.is_degraded(),
        }
    }

    /// Stamps the pool's state onto a stats snapshot, the aggregate or
    /// one tenant's.
    fn stamp(&self, mut stats: ServerStats, queue: &RequestQueue) -> ServerStats {
        let pool = self.report(queue);
        (stats.workers_alive, stats.worker_crashes) = (pool.alive, pool.crashes);
        (stats.restarts, stats.degraded) = (pool.restarts, pool.degraded);
        stats
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
    /// [`ServerConfig::device_budget_bytes`]; [`ServerError::Io`] when the
    /// OS refuses a worker thread, after the workers already started are
    /// stopped and joined.
    pub fn start(engine: Engine, config: ServerConfig) -> Result<Self, ServerError> {
        Self::start_with(engine, config, |i, work| {
            std::thread::Builder::new().name(format!("blockgnn-worker-{i}")).spawn(work)
        })
    }

    /// [`Server::start`], with `spawn(i, work)` starting worker `i`'s
    /// thread.
    fn start_with(
        engine: Engine,
        config: ServerConfig,
        mut spawn: impl FnMut(usize, Box<dyn FnOnce() + Send>) -> io::Result<JoinHandle<()>>,
    ) -> Result<Self, ServerError> {
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
        let registry = Arc::new(registry);
        let queue: Arc<RequestQueue> = Arc::new(RequestQueue::new());
        let limits = BatchLimits::from(&config);
        let recorder = Arc::new(Recorder::new(config.workers, config.tracing));
        let health = Arc::new(PoolHealth::new(config.workers, &config));
        let injector =
            config.faults.clone().map_or_else(FaultInjector::disabled, FaultInjector::new);
        let mut workers = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let work = {
                let queue = Arc::clone(&queue);
                let recorder = Arc::clone(&recorder);
                let health = Arc::clone(&health);
                let injector = injector.clone();
                move || {
                    // Consecutive-crash streak driving the exponential
                    // backoff; a clean batch resets it.
                    let mut streak = 0u32;
                    while let Some(batch) = queue.next_batch(&limits) {
                        // The crash is booked before the batch's typed
                        // replies go out, so `health` never lags a reply
                        // a client already holds.
                        let crash = || health.record_crash(&queue);
                        if serve_batch(batch, &recorder, i, &injector, Instant::now(), crash) {
                            streak += 1;
                            std::thread::sleep(restart_backoff(streak));
                            health.record_restart(&queue);
                        } else {
                            streak = 0;
                            health.tick(&queue);
                        }
                    }
                }
            };
            match spawn(i, Box::new(work)) {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    queue.close();
                    for handle in workers {
                        let _ = handle.join();
                    }
                    return Err(ServerError::Io(format!(
                        "worker thread {i} did not start: {e}"
                    )));
                }
            }
        }
        Ok(Self {
            queue,
            registry,
            workers: Mutex::new(workers),
            config,
            default,
            recorder,
            health,
            injector,
        })
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
        Ok(self.health.stamp(self.registry.get(tenant)?.stats(), &self.queue))
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
    /// retired tenants' final ones) summed, with each live tenant's own
    /// snapshot under [`ServerStats::tenants`]. The top-level
    /// `graph_version` mirrors the `default` tenant.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.health.stamp(self.registry.global_stats(&self.queue), &self.queue)
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
        self.health.refresh(&self.queue);
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
    /// one aggregate snapshot, family by family: the families of the
    /// server, tenant and class counter tables (the rows the `stats` line
    /// renders too; a tenant's counters labelled `{tenant,backend}` and
    /// its gauges `{tenant}`, a class's `{tenant,class}`), the latency
    /// summaries, and flight recorder occupancy. Built on demand.
    #[must_use]
    pub fn metrics_text(&self) -> String {
        let global = self.stats();
        let registry = self.registry.snapshot();
        // Each live tenant's snapshot under its counter and gauge labels.
        let tenants: Vec<_> = global
            .tenants
            .iter()
            .filter_map(|(name, stats)| {
                let backend = registry.get(name)?.backend_kind.name();
                let gauge = format!("tenant=\"{name}\"");
                Some((format!("{gauge},backend=\"{backend}\""), gauge, stats))
            })
            .collect();
        let classes: Vec<_> = tenants
            .iter()
            .flat_map(|(_, tenant, stats)| {
                stats.classes.iter().map(move |(class, rollup)| {
                    let labels = format!("{tenant},class=\"{}\"", class.name());
                    (labels.clone(), labels, rollup)
                })
            })
            .collect();
        let mut out = String::new();
        write_families(&mut out, SERVER_COUNTERS, &[(String::new(), String::new(), &global)]);
        write_families(&mut out, TENANT_COUNTERS, &tenants);
        write_families(&mut out, CLASS_COUNTERS, &classes);
        let help = "End-to-end served latency per SLO class";
        let samples =
            classes.iter().map(|(labels, _, rollup)| (labels.clone(), &rollup.latency));
        write_summary(&mut out, "blockgnn_class_latency_seconds", help, samples);
        for (name, help, histogram) in [
            (
                "blockgnn_latency_seconds",
                "End-to-end served latency (queue + compute), all tenants",
                &global.serve.latency_histogram,
            ),
            (
                "blockgnn_queue_time_seconds",
                "Time requests spent queued before execution",
                &global.queue_time,
            ),
            (
                "blockgnn_compute_time_seconds",
                "Batch execution time requests rode on",
                &global.compute_time,
            ),
        ] {
            write_summary(&mut out, name, help, [(String::new(), histogram)]);
        }
        let help = "Trace records currently held across the worker rings";
        let recorded = self.recorder.recorded() as f64;
        let samples = [(String::new(), recorded)];
        write_family(&mut out, "blockgnn_traces_recorded", help, "gauge", samples);
        let help = "Retained slow/shed/failed trace exemplars per SLO class";
        let exemplars = self.recorder.exemplar_counts().into_iter();
        let samples =
            exemplars.map(|(class, n)| (format!("class=\"{}\"", class.name()), n as f64));
        write_family(&mut out, "blockgnn_trace_exemplars", help, "gauge", samples);
        out
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
        let now = Instant::now();
        let push = |lane, entry| self.queue.push(lane, entry);
        admit(&self.tenant, &self.config, &self.recorder, request, options, now, push)
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
        self.tenant.update(delta)
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
        self.health.stamp(self.registry.global_stats(&self.queue), &self.queue)
    }

    /// This tenant's private telemetry snapshot.
    #[must_use]
    pub fn tenant_stats(&self) -> ServerStats {
        self.health.stamp(self.tenant.stats(), &self.queue)
    }

    /// A wire-friendly description of this handle's tenant (what the
    /// `deploy` ack and `list` report).
    #[must_use]
    pub fn info(&self) -> TenantInfo {
        self.tenant.info(&self.queue)
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

/// Admits one request to `tenant` at `now`, then `push`es it into the
/// tenant's lane for its class: the server at `Instant::now()` into its
/// queue, [`crate::workload::replay_logical`] at the trace's clock into
/// its batcher. A refused request is booked and never reaches a worker.
///
/// # Errors
///
/// As [`ServerHandle::submit`], plus whatever `push` refuses.
pub(crate) fn admit(
    tenant: &Arc<Tenant>,
    config: &ServerConfig,
    recorder: &Recorder,
    request: InferRequest,
    options: SubmitOptions,
    now: Instant,
    push: impl FnOnce(Lane, Entry<QueueItem>) -> Result<(), ServerError>,
) -> Result<Ticket, ServerError> {
    if tenant.is_retired() {
        return Err(ServerError::UnknownTenant { name: tenant.name.clone() });
    }
    // Trace-id assignment is the first act of admission, so the
    // admission span covers validation + deadline resolution. With
    // tracing off the id is 0 and nothing else is touched.
    let trace_id = recorder.assign();
    let trace_start = if trace_id != 0 { recorder.offset(now) } else { Duration::ZERO };
    // The admission span closes when the request is refused or queued.
    let admitted = || match trace_id {
        0 => TraceMeta::UNTRACED,
        id => TraceMeta {
            id,
            start: trace_start,
            admission: recorder.now().saturating_sub(trace_start),
        },
    };
    let class = options.class;
    // A request refused at admission never reaches a worker, so its
    // trace goes straight to the exemplars.
    let refuse = |meta: &TraceMeta, outcome| {
        tenant.telemetry.with(|s| s.book(class, outcome, 1));
        recorder.finish(None, meta, &tenant.name, class, outcome, 0, &[], false);
    };
    tenant.telemetry.record_submitted(class);
    // Front-door validation with the engine's own validity rule, so
    // obviously bad requests fail at submission with a typed error
    // instead of occupying queue space (and the two paths cannot
    // drift). Validated against the *addressed tenant's* current node
    // count; the engine re-validates against whatever version the
    // request's batch resolves (node counts only grow, so an admitted
    // request stays valid).
    if let Err(e) = blockgnn_engine::validate_request(&request, tenant.num_nodes()) {
        refuse(&admitted(), TraceOutcome::Failed);
        return Err(ServerError::Engine(e));
    }
    // Deadline precedence: the request's own, else its class's
    // configured default, else the server-wide default.
    let deadline = options.deadline.or_else(|| config.class_deadline(class)).map(|d| now + d);
    let (tx, rx) = sync_channel(1);
    let trace = admitted();
    let nodes = request.nodes.len();
    let item = QueueItem {
        request,
        tenant: Arc::clone(tenant),
        class,
        deadline,
        enqueued_at: now,
        trace,
        responder: tx,
    };
    match push(tenant.lane(class), Entry { payload: item, nodes, deadline }) {
        Ok(()) => Ok(Ticket { rx }),
        Err(e) => {
            if matches!(e, ServerError::Overloaded { .. }) {
                refuse(&trace, TraceOutcome::ShedOverload);
            }
            Err(e)
        }
    }
}

/// Executes one dequeued (single-tenant) batch at `exec_start` — a
/// worker's `Instant::now()`, or the trace's clock in
/// [`crate::workload::replay_logical`]: sheds expired requests, runs
/// the rest as a coalesced execution on a replica checked out of the
/// tenant's pool, and delivers every answer. Every outcome is booked in
/// the tenant's telemetry and finished in `recorder`'s ring for
/// `worker` (this function is the ring's single writer).
///
/// The engine execution (and only it) runs inside a `catch_unwind`
/// fault domain: a panic there — the engine's own or one injected by
/// `injector` — swaps a fresh fork in for the interrupted replica (the
/// pool never shrinks), converts every live request of the batch into a
/// typed [`ServerError::WorkerCrashed`] reply (the connection never
/// drops), books the crash in telemetry and through `on_crash` (before
/// any reply), pushes a `crashed` exemplar per traced request, and
/// returns `true` so the worker loop can back off. Shedding and reply
/// delivery stay outside the unwind boundary — they own the queue items
/// and must run exactly once.
pub(crate) fn serve_batch(
    batch: Vec<QueueItem>,
    recorder: &Recorder,
    worker: usize,
    injector: &FaultInjector,
    exec_start: Instant,
    on_crash: impl FnOnce(),
) -> bool {
    // The batch's tenant survives a concurrent retire: the items hold
    // the Arc. Batches never span classes, so the whole batch's
    // per-class accounting lands in one rollup.
    let tenant = Arc::clone(&batch[0].tenant);
    let class = batch[0].class;
    // Offset of this batch's dequeue on the trace timeline: the end of
    // every member's `queued` span and the start of `assembly`.
    let exec_off = recorder.offset(exec_start);
    let queued = |item: &QueueItem| Span {
        stage: "queued",
        start: recorder.offset(item.enqueued_at),
        end: exec_off,
    };
    let finish = |meta: &TraceMeta, outcome, batch_size, spans: &[Span], slow| {
        recorder.finish(
            Some(worker),
            meta,
            &tenant.name,
            class,
            outcome,
            batch_size,
            spans,
            slow,
        );
    };
    let (live, expired): (Vec<_>, Vec<_>) =
        batch.into_iter().partition(|item| item.deadline.is_none_or(|d| exec_start < d));
    if !expired.is_empty() {
        tenant.telemetry.with(|s| s.book(class, TraceOutcome::ShedDeadline, expired.len()));
        for item in expired {
            let waited = exec_start.saturating_duration_since(item.enqueued_at);
            finish(&item.trace, TraceOutcome::ShedDeadline, 0, &[queued(&item)], false);
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
    // stalls the execution, AllocFail refuses the whole batch without
    // crossing the fault domain.
    let injected = injector.engine_fault();
    // Only the engine execution sits inside the unwind boundary; the
    // queue items stay outside it, so every in-flight request can still
    // be answered (typed) after a panic. `AssertUnwindSafe` is sound
    // here because a crashed replica is discarded, never reused.
    let mut engine = tenant.engines.checkout();
    let executed = (injected != EngineFault::AllocFail).then(|| {
        catch_unwind(AssertUnwindSafe(|| {
            match injected {
                EngineFault::Panic => panic!("injected fault: engine stage panic"),
                EngineFault::Latency(pause) => std::thread::sleep(pause),
                EngineFault::None | EngineFault::AllocFail => {}
            }
            let coalesced = engine.infer_coalesced(&requests);
            (coalesced.outcomes, coalesced.deduped, coalesced.stage_timings)
        }))
    });
    let (outcomes, deduped, stage_timings) = match executed {
        Some(Ok(result)) => {
            tenant.engines.checkin(engine);
            result
        }
        refused => {
            // An injected allocation failure (`None`) or a tripped fault
            // domain: every in-flight request of this batch gets exactly
            // one typed reply — never a dropped connection — and an
            // exemplar in the flight recorder.
            let execute = Span { stage: "execute", start: assembly_off, end: recorder.now() };
            let crashed = refused.is_some();
            // The interrupted replica is dropped for a fresh fork
            // serving identical bits; the pool never shrinks.
            tenant.engines.checkin(if crashed { tenant.fresh_replica() } else { engine });
            let (outcome, error) = if crashed {
                on_crash();
                (TraceOutcome::Crashed, ServerError::WorkerCrashed)
            } else {
                let message = "injected allocation failure at engine stage boundary";
                (TraceOutcome::Failed, ServerError::RemoteEngine(message.into()))
            };
            tenant.telemetry.with(|s| s.book(class, outcome, live.len()));
            for item in live {
                finish(
                    &item.trace,
                    outcome,
                    requests.len(),
                    &[queued(&item), execute.clone()],
                    false,
                );
                item.respond(Err(error.clone()));
            }
            return crashed;
        }
    };
    let compute_end = Instant::now();
    let compute_time = compute_end.saturating_duration_since(exec_start);
    // Assemble every answer into a worker-local accumulator first, so
    // the shared telemetry lock is taken once, briefly — response
    // assembly (argmax over logits) must not serialize the worker pool.
    // Counters fold BEFORE any answer is delivered: a caller that has
    // observed its response must also observe its completion in stats
    // (retire sendoffs and per-tenant rollups count on this).
    let batch_size = live.len();
    let mut local = ServerStats { batches: 1, deduped, ..ServerStats::default() };
    local.batch_size_counts.insert(batch_size, 1);
    let mut deliveries = Vec::with_capacity(batch_size);
    for (item, outcome) in live.into_iter().zip(outcomes) {
        let queue_time = exec_start.saturating_duration_since(item.enqueued_at);
        let answer = match outcome {
            Ok(outcome) => {
                local.queue_time.record(queue_time);
                local.compute_time.record(compute_time);
                local.book(class, TraceOutcome::Completed, 1);
                local.class_mut(class).latency.record(queue_time + compute_time);
                let mut response =
                    assemble_response(outcome, queue_time, compute_time, &mut local.serve);
                response.trace_id = item.trace.id;
                Ok(response)
            }
            Err(e) => {
                local.book(class, TraceOutcome::Failed, 1);
                Err(ServerError::Engine(e))
            }
        };
        deliveries.push((item, answer));
    }
    tenant.telemetry.with(|stats| stats.absorb(&local));
    // Trace context outlives delivery (`respond` consumes the item), so
    // records are finished after the answers are on the wire.
    let traces: Vec<_> = deliveries
        .iter()
        .filter(|(item, _)| item.trace.id != 0)
        .map(|(item, answer)| {
            let outcome =
                if answer.is_ok() { TraceOutcome::Completed } else { TraceOutcome::Failed };
            (item.trace, queued(item), item.deadline, outcome)
        })
        .collect();
    let write_start = Instant::now();
    // Held until the records below are written, so no reader of the
    // recorder sees an answer delivered before its trace.
    let _delivering = recorder.delivering(worker);
    for (item, answer) in deliveries {
        item.respond(answer);
    }
    if traces.is_empty() {
        return false;
    }
    // Ring writes happen strictly after every answer is delivered —
    // tracing never sits between a worker and a waiting caller.
    let write_end = Instant::now();
    let write_off = recorder.offset(write_end);
    // Members share every span after their own `queued` one (slot 0):
    // assembly, the engine stages laid end-to-end from where assembly
    // finished (stage timings are durations; the sequence reconstructs
    // the timeline) — one `execute` span when no stage ran (every member
    // failed validation) — and the response write.
    let mut spans = vec![Span { stage: "queued", start: exec_off, end: exec_off }];
    spans.push(Span { stage: "assembly", start: exec_off, end: assembly_off });
    if stage_timings.is_empty() {
        let end = recorder.offset(compute_end);
        spans.push(Span { stage: "execute", start: assembly_off, end });
    }
    let mut cursor = assembly_off;
    for timing in &stage_timings {
        spans.push(Span { stage: timing.stage, start: cursor, end: cursor + timing.elapsed });
        cursor += timing.elapsed;
    }
    let write =
        Span { stage: "response_write", start: recorder.offset(write_start), end: write_off };
    spans.push(write);
    for (meta, queued, deadline, outcome) in traces {
        spans[0] = queued;
        // Slow = missed its own deadline; with none, the fixed
        // threshold stands in.
        let slow = match deadline {
            Some(deadline) => write_end > deadline,
            None => write_off.saturating_sub(meta.start) > SLOW_THRESHOLD,
        };
        finish(&meta, outcome, batch_size, &spans, slow);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockgnn_engine::BackendKind;
    use blockgnn_graph::datasets;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn a_refused_worker_thread_fails_start_typed_after_joining_the_started_ones() {
        let engine = Engine::builder(ModelKind::Gcn, BackendKind::Dense)
            .hidden_dim(8)
            .build(Arc::new(datasets::cora_like_small(3)))
            .unwrap();
        let joined = Arc::new(AtomicBool::new(false));
        let config = ServerConfig::default().with_workers(3);
        let started = Server::start_with(engine, config, |i, work| {
            if i == 1 {
                return Err(io::Error::other("no threads left"));
            }
            let joined = Arc::clone(&joined);
            std::thread::Builder::new().spawn(move || {
                work();
                joined.store(true, Ordering::SeqCst);
            })
        });
        match started {
            Err(ServerError::Io(message)) => {
                assert!(message.contains("worker thread 1"), "{message}");
            }
            other => panic!("expected a typed spawn failure, got {other:?}"),
        }
        assert!(
            joined.load(Ordering::SeqCst),
            "worker 0 ran out and was joined before start returned"
        );
    }
}

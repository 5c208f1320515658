//! Serving-runtime configuration.

use crate::fault::FaultPlan;
use crate::queue::SloClass;
use std::time::Duration;

/// Tunables of the serving runtime: worker pool size, admission bounds,
/// and the dynamic micro-batching policy.
///
/// Batching semantics ([`crate::BatchLimits`] is these knobs as the
/// batcher takes them): a worker dequeuing a request first drains
/// whatever else its lane already has queued (opportunistic coalescing
/// — costs no latency), then keeps the batch open for at most
/// [`ServerConfig::batch_window`] for stragglers, until
/// [`ServerConfig::max_batch_requests`] requests or 1024 summed target
/// nodes are reached. The straggler window always adapts to queue
/// pressure (AIMD: a hold a straggler joined doubles the window scale,
/// a hold that expired empty halves it), never exceeding the configured
/// window. A request cap of 1 disables coalescing — every request
/// executes alone; a zero window merely disables the straggler wait.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads, each owning a forked engine replica.
    pub workers: usize,
    /// Maximum queued (admitted but unexecuted) requests; submissions
    /// beyond this are shed with
    /// [`crate::ServerError::Overloaded`] instead of blocking.
    pub max_queue_depth: usize,
    /// How long a worker holds a batch open for more requests after
    /// dequeuing its first one.
    pub batch_window: Duration,
    /// Maximum requests coalesced into one execution.
    pub max_batch_requests: usize,
    /// Deadline applied to requests that do not carry their own; `None`
    /// means no default deadline.
    pub default_deadline: Option<Duration>,
    /// Device budget (bytes) the multi-tenant residency accountant
    /// enforces on `deploy`: the sum of deployed tenants' packed weight
    /// spectra + resident node features (§IV-B/§IV-C accounting) must
    /// fit, or the deploy is rejected with
    /// [`crate::ServerError::TenantBudget`]. `None` (the default)
    /// disables the aggregate check — each engine still enforces its own
    /// per-engine budget on graph growth.
    pub device_budget_bytes: Option<usize>,
    /// Whether the flight recorder traces requests: trace-id
    /// assignment, per-stage spans into the per-worker ring buffers,
    /// and slow/shed/failed exemplar retention. On by default (the
    /// recorder is bounded-memory; its cost is the stack benchmark's
    /// `trace.overhead_share`); off makes every recording path a
    /// no-op and responses carry `trace_id = 0`.
    pub tracing: bool,
    /// Crashes within [`ServerConfig::breaker_window`] that open the
    /// supervision circuit breaker and mark the pool degraded (brownout
    /// shedding, `degraded=true` on `health`).
    pub breaker_threshold: usize,
    /// The sliding window the breaker counts crashes over.
    pub breaker_window: Duration,
    /// How long after the last crash the breaker stays open before the
    /// pool is considered recovered.
    pub breaker_cooldown: Duration,
    /// Deterministic fault plan injected into the compiled-in injection
    /// points (engine-stage panics/latency/allocation failures, socket
    /// resets/stalls). `None` (the default) leaves every injection point
    /// a single-branch no-op.
    pub faults: Option<FaultPlan>,
}

impl Default for ServerConfig {
    /// Two workers, depth-256 admission queue, a 500 µs adaptive batch
    /// window coalescing up to 8 requests / 1024 nodes, and no default
    /// deadline (gold still carries [`SloClass::GOLD_DEADLINE`]).
    fn default() -> Self {
        Self {
            workers: 2,
            max_queue_depth: 256,
            batch_window: Duration::from_micros(500),
            max_batch_requests: 8,
            default_deadline: None,
            device_budget_bytes: None,
            tracing: true,
            breaker_threshold: 3,
            breaker_window: Duration::from_secs(10),
            breaker_cooldown: Duration::from_secs(2),
            faults: None,
        }
    }
}

impl ServerConfig {
    /// Sets the worker-pool size.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the admission-queue depth bound.
    #[must_use]
    pub fn with_max_queue_depth(mut self, depth: usize) -> Self {
        self.max_queue_depth = depth;
        self
    }

    /// Sets the batching window and request cap.
    #[must_use]
    pub fn with_batching(mut self, window: Duration, max_requests: usize) -> Self {
        self.batch_window = window;
        self.max_batch_requests = max_requests;
        self
    }

    /// Sets the default per-request deadline.
    #[must_use]
    pub fn with_default_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.default_deadline = deadline;
        self
    }

    /// Sets the aggregate device budget the multi-tenant residency
    /// accountant enforces on `deploy` (`None` disables it).
    #[must_use]
    pub fn with_device_budget(mut self, budget_bytes: Option<usize>) -> Self {
        self.device_budget_bytes = budget_bytes;
        self
    }

    /// Enables or disables request tracing (the flight recorder).
    #[must_use]
    pub fn with_tracing(mut self, tracing: bool) -> Self {
        self.tracing = tracing;
        self
    }

    /// Sets the supervision circuit breaker: `threshold` crashes within
    /// `window` mark the pool degraded; `cooldown` after the last crash
    /// closes the breaker again.
    #[must_use]
    pub fn with_breaker(
        mut self,
        threshold: usize,
        window: Duration,
        cooldown: Duration,
    ) -> Self {
        self.breaker_threshold = threshold.max(1);
        self.breaker_window = window;
        self.breaker_cooldown = cooldown;
        self
    }

    /// Loads a deterministic [`FaultPlan`] into the injection points
    /// (`None` disables injection — the default).
    #[must_use]
    pub fn with_faults(mut self, faults: Option<FaultPlan>) -> Self {
        self.faults = faults;
        self
    }

    /// The default deadline for one class: gold's
    /// [`SloClass::GOLD_DEADLINE`], else the server-wide default.
    #[must_use]
    pub fn class_deadline(&self, class: SloClass) -> Option<Duration> {
        let own = (class == SloClass::Gold).then_some(SloClass::GOLD_DEADLINE);
        own.or(self.default_deadline)
    }

    /// Disables micro-batching: every request executes alone (the
    /// baseline the batching benchmark compares against).
    #[must_use]
    pub fn unbatched(mut self) -> Self {
        self.batch_window = Duration::ZERO;
        self.max_batch_requests = 1;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let cfg = ServerConfig::default()
            .with_workers(4)
            .with_max_queue_depth(16)
            .with_batching(Duration::from_millis(2), 32)
            .with_default_deadline(Some(Duration::from_millis(100)));
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.max_queue_depth, 16);
        assert_eq!(cfg.max_batch_requests, 32);
    }

    #[test]
    fn class_policies_resolve_deadlines_by_precedence() {
        let cfg =
            ServerConfig::default().with_default_deadline(Some(Duration::from_millis(100)));
        // Gold keeps its own 200 ms deadline, silver falls back to the
        // server-wide default.
        assert_eq!(cfg.class_deadline(SloClass::Gold), Some(Duration::from_millis(200)));
        assert_eq!(cfg.class_deadline(SloClass::Silver), Some(Duration::from_millis(100)));
        assert!(cfg.tracing, "tracing defaults on");
        assert!(!cfg.with_tracing(false).tracing);
    }
}

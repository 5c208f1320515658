//! The admission queue's threaded shell: the lock and condvar around
//! the pure batch-forming policy of [`crate::batcher`], plus the
//! vocabulary requests are scheduled by ([`SloClass`],
//! [`SubmitOptions`]).
//!
//! Submissions never block: a full lane rejects immediately with a
//! typed [`ServerError::Overloaded`], which is what lets the server
//! degrade predictably under more load than it can absorb — and the cap
//! is *per tenant*, so one tenant flooding its lane cannot crowd
//! another's admissions out. Workers block on the paired condvar and
//! dequeue *batches*. Every decision — which lane runs, what joins the
//! batch, how long it holds for stragglers — is the batcher's; the
//! shell locks, calls it with `Instant::now()`, and sleeps for as long
//! as it is told.

use crate::batcher::{BatchLimits, Batcher, Entry, Lane, Step};
use crate::error::ServerError;
use crate::fault::lock_recover;
use crate::observe::TraceMeta;
use crate::tenant::Tenant;
use blockgnn_engine::{InferRequest, InferResponse};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Number of [`SloClass`] variants (lane arrays are indexed by
/// [`SloClass::index`]).
pub(crate) const NUM_CLASSES: usize = 3;

/// A request's service-level class: named deadline/weight policies that
/// replace bare integer priorities.
///
/// Classes compose with tenant weights in the admission queue (see the
/// module docs) and carry a per-class default deadline
/// ([`crate::ClassPolicy`]); telemetry reports per-class p50/p95/p99.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SloClass {
    /// Latency-critical traffic: largest scheduling weight, and the only
    /// class with a default deadline out of the box.
    Gold,
    /// The default class for unlabelled traffic.
    Silver,
    /// Best-effort / batch traffic: smallest scheduling weight.
    Bronze,
}

impl SloClass {
    /// Every class, in rank order (gold first).
    pub const ALL: [SloClass; NUM_CLASSES] =
        [SloClass::Gold, SloClass::Silver, SloClass::Bronze];

    /// Stable index of this class (gold 0, silver 1, bronze 2) — the
    /// rank used for deterministic tie-breaking and policy arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            SloClass::Gold => 0,
            SloClass::Silver => 1,
            SloClass::Bronze => 2,
        }
    }

    /// The wire name (`gold` / `silver` / `bronze`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SloClass::Gold => "gold",
            SloClass::Silver => "silver",
            SloClass::Bronze => "bronze",
        }
    }

    /// Parses a wire name back into a class.
    ///
    /// # Errors
    ///
    /// A human-readable message for anything but `gold`/`silver`/`bronze`.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "gold" => Ok(SloClass::Gold),
            "silver" => Ok(SloClass::Silver),
            "bronze" => Ok(SloClass::Bronze),
            other => Err(format!("unknown class {other:?} (gold | silver | bronze)")),
        }
    }
}

impl Default for SloClass {
    /// Unlabelled traffic is silver.
    fn default() -> Self {
        SloClass::Silver
    }
}

impl std::fmt::Display for SloClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-request scheduling options accepted at submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubmitOptions {
    /// The request's SLO class. Classes order requests *within* a
    /// tenant's share by class weight (FIFO within a class); across
    /// tenants the weighted-fair schedule decides.
    pub class: SloClass,
    /// Deadline relative to submission; a request still queued when it
    /// expires is shed with [`ServerError::DeadlineExceeded`]. `None`
    /// falls back to the class's configured deadline, then the server's
    /// default.
    pub deadline: Option<Duration>,
}

impl SubmitOptions {
    /// Options with the given class and no explicit deadline.
    #[must_use]
    pub fn class(class: SloClass) -> Self {
        Self { class, deadline: None }
    }

    /// Options with the given relative deadline (default class).
    #[must_use]
    pub fn deadline(deadline: Duration) -> Self {
        Self { class: SloClass::default(), deadline: Some(deadline) }
    }

    /// Sets the relative deadline, keeping the class.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// One admitted request waiting for (or undergoing) execution — the
/// payload the server queues.
pub(crate) struct QueueItem {
    pub request: InferRequest,
    /// The tenant this request addresses; batches inherit it whole.
    pub tenant: Arc<Tenant>,
    /// The SLO class; batches inherit it whole too.
    pub class: SloClass,
    /// Absolute deadline, if any.
    pub deadline: Option<Instant>,
    pub enqueued_at: Instant,
    /// Trace context assigned at admission (id 0 when tracing is off);
    /// the serving worker finishes the span record from it.
    pub trace: TraceMeta,
    /// One-shot reply channel back to the submitter.
    pub responder: SyncSender<Result<InferResponse, ServerError>>,
}

impl QueueItem {
    /// Delivers the answer; a submitter that dropped its ticket is
    /// silently ignored.
    pub fn respond(self, result: Result<InferResponse, ServerError>) {
        let _ = self.responder.send(result);
    }

    /// Whether the deadline has passed as of `now`.
    pub fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

/// The bounded admission queue shared by submitters and workers: one
/// [`Batcher`] on the real clock behind a mutex. Generic over the
/// payload only so its tests can queue plain ids.
pub(crate) struct RequestQueue<P = QueueItem> {
    batcher: Mutex<Batcher<P, Instant>>,
    available: Condvar,
    /// Brownout flag: while set, admission caps ladder down by class.
    /// Outside the mutex so the per-batch health poll stays one load.
    degraded: AtomicBool,
}

impl<P> RequestQueue<P> {
    pub fn new(class_weights: [u32; NUM_CLASSES]) -> Self {
        Self {
            batcher: Mutex::new(Batcher::new(class_weights)),
            available: Condvar::new(),
            degraded: AtomicBool::new(false),
        }
    }

    /// Enters or leaves brownout mode (set by the supervisor while the
    /// crash circuit breaker is open / once it closes).
    pub fn set_degraded(&self, degraded: bool) {
        self.degraded.store(degraded, Ordering::Release);
    }

    /// Whether the queue is currently shedding by the brownout ladder.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Admits one request into its lane or sheds it typed
    /// ([`Batcher::admit`]), and wakes a worker. Never blocks.
    pub fn push(&self, lane: Lane, entry: Entry<P, Instant>) -> Result<(), ServerError> {
        let degraded = self.is_degraded();
        lock_recover(&self.batcher).admit(lane, degraded, entry)?;
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until at least one request is available (or the queue is
    /// closed *and* drained — then `None`) and returns the batch the
    /// policy forms around it, sleeping through whatever straggler
    /// holds [`Batcher::advance`] asks for; any `push` ends the sleep
    /// early so the batch can take it.
    pub fn next_batch(&self, limits: &BatchLimits) -> Option<Vec<P>> {
        let mut batcher = lock_recover(&self.batcher);
        let mut forming = loop {
            if let Some(forming) = batcher.begin() {
                break forming;
            }
            if batcher.closed {
                return None;
            }
            batcher = self.available.wait(batcher).unwrap_or_else(PoisonError::into_inner);
        };
        let mut now = Instant::now();
        while let Step::HoldUntil(until) = batcher.advance(&mut forming, limits, now) {
            batcher = self
                .available
                .wait_timeout(batcher, until.saturating_duration_since(now))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            now = Instant::now();
        }
        Some(batcher.finish(forming))
    }

    /// Stops admissions; queued requests still drain through
    /// [`RequestQueue::next_batch`], after which workers see `None`.
    pub fn close(&self) {
        lock_recover(&self.batcher).closed = true;
        self.available.notify_all();
    }

    /// Removes a retired tenant's lanes and hands back what was queued
    /// in them, for the caller to answer. Requests already dequeued into
    /// a batch are unaffected (the batch holds its own `Arc<Tenant>`).
    pub fn purge_tenant(&self, tenant_id: u64) -> Vec<P> {
        lock_recover(&self.batcher).purge(tenant_id)
    }

    /// Requests currently queued, across all lanes.
    pub fn depth(&self) -> usize {
        lock_recover(&self.batcher).depth()
    }

    /// Requests currently queued in one tenant's lanes.
    pub fn depth_of(&self, tenant_id: u64) -> usize {
        lock_recover(&self.batcher).depth_of(tenant_id)
    }
}

#[cfg(test)]
mod tests {
    // The policy cases drive the pure `Batcher` directly — ids for
    // payloads, a hand-advanced `Duration` for the clock, no thread, no
    // `Instant` — and so pin exact hold times. Only the last three go
    // through the threaded shell, and are about the shell.
    use super::*;

    /// Default class weights used by queue tests (the
    /// [`crate::ServerConfig`] defaults: gold 4, silver 2, bronze 1).
    const WEIGHTS: [u32; NUM_CLASSES] = [4, 2, 1];

    const S: SloClass = SloClass::Silver;

    const NO_BATCH: BatchLimits =
        BatchLimits { window: Duration::ZERO, max_requests: 1, max_nodes: usize::MAX };

    const fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    const fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    /// A tenant's share: `(id, weight, max_depth)`.
    type Share = (u64, u32, usize);

    /// One batch as formed, with the holds it made on the way.
    struct Formed {
        tenant: u64,
        class: SloClass,
        members: Vec<usize>,
        holds: Vec<Duration>,
    }

    /// The policy under test with its clock (time since the test began).
    struct Sim {
        batcher: Batcher<usize, Duration>,
        now: Duration,
    }

    impl Sim {
        fn new(class_weights: [u32; NUM_CLASSES]) -> Self {
            Self { batcher: Batcher::new(class_weights), now: Duration::ZERO }
        }

        fn admit(
            &mut self,
            (tenant, weight, max_depth): Share,
            class: SloClass,
            degraded: bool,
            deadline: Option<Duration>,
            id: usize,
        ) -> Result<(), ServerError> {
            let lane = Lane { tenant, class, weight, max_depth };
            self.batcher.admit(lane, degraded, Entry { payload: id, nodes: 1, deadline })
        }

        fn push(
            &mut self,
            tenant: Share,
            id: usize,
            class: SloClass,
        ) -> Result<(), ServerError> {
            self.admit(tenant, class, false, None, id)
        }

        /// Forms one batch with no arrivals meanwhile: the clock jumps to
        /// the end of every hold it is told to make.
        fn next_batch(&mut self, limits: &BatchLimits) -> Formed {
            let mut forming = self.batcher.begin().expect("something is queued");
            let mut holds = Vec::new();
            while let Step::HoldUntil(until) =
                self.batcher.advance(&mut forming, limits, self.now)
            {
                assert!(until > self.now, "a hold must end in the future");
                holds.push(until);
                self.now = until;
            }
            let (tenant, class) = (forming.tenant, forming.class);
            Formed { tenant, class, members: self.batcher.finish(forming), holds }
        }

        /// The next batch formed with batching off: one request.
        fn next(&mut self) -> (u64, SloClass, usize) {
            let batch = self.next_batch(&NO_BATCH);
            assert!(batch.holds.is_empty() && batch.members.len() == 1);
            (batch.tenant, batch.class, batch.members[0])
        }
    }

    #[test]
    fn classes_order_queued_requests_deterministically() {
        // The deterministic re-test of the old flaky priority test:
        // bronze backlogged first, gold arriving second — the first
        // dequeue is still gold (pass tie broken by class rank), and
        // gold's 4:1 weight gives it 4 of the first 5 slots without
        // starving bronze.
        let mut q = Sim::new(WEIGHTS);
        let t = (0, 1, 16);
        for i in 0..4 {
            q.push(t, i, SloClass::Bronze).unwrap();
        }
        for i in 4..8 {
            q.push(t, i, SloClass::Gold).unwrap();
        }
        let order: Vec<SloClass> = (0..8).map(|_| q.next().1).collect();
        assert_eq!(order[0], SloClass::Gold, "pass ties resolve by class rank");
        let gold_in_first_5 = order[..5].iter().filter(|c| **c == SloClass::Gold).count();
        assert_eq!(gold_in_first_5, 4, "4:1 weights → 4 of 5 slots, got {order:?}");
        assert!(order.contains(&SloClass::Bronze), "bronze is not starved");
    }

    #[test]
    fn fifo_is_preserved_within_a_class() {
        let mut q = Sim::new(WEIGHTS);
        let t = (0, 1, 16);
        // Interleave gold and bronze admissions; within each class the
        // ids must come back in admission order.
        q.push(t, 0, SloClass::Gold).unwrap();
        q.push(t, 10, SloClass::Bronze).unwrap();
        q.push(t, 1, SloClass::Gold).unwrap();
        q.push(t, 11, SloClass::Bronze).unwrap();
        q.push(t, 2, SloClass::Gold).unwrap();
        let mut gold = Vec::new();
        let mut bronze = Vec::new();
        for _ in 0..5 {
            match q.next() {
                (_, SloClass::Gold, id) => gold.push(id),
                (_, SloClass::Bronze, id) => bronze.push(id),
                (_, SloClass::Silver, _) => unreachable!("no silver submitted"),
            }
        }
        assert_eq!(gold, vec![0, 1, 2], "FIFO within gold");
        assert_eq!(bronze, vec![10, 11], "FIFO within bronze");
    }

    #[test]
    fn class_starvation_is_bounded_under_100_to_1_skew() {
        // Stride scheduling is proportional, not strict-priority: even a
        // 100:1 gold:bronze weight skew gives bronze ~1/101 of the
        // service, never zero.
        let mut q = Sim::new([100, 2, 1]);
        let t = (0, 1, 512);
        for i in 0..300 {
            q.push(t, i, SloClass::Gold).unwrap();
        }
        for i in 0..5 {
            q.push(t, i, SloClass::Bronze).unwrap();
        }
        let mut bronze_served = 0usize;
        let mut first_bronze_at = None;
        for slot in 0..202 {
            if q.next().1 == SloClass::Bronze {
                bronze_served += 1;
                first_bronze_at.get_or_insert(slot);
            }
        }
        assert!(
            (1..=4).contains(&bronze_served),
            "bronze gets its ~1/101 share, got {bronze_served}"
        );
        assert!(
            first_bronze_at.unwrap() <= 101,
            "bronze's first service is bounded by the weight ratio, got {first_bronze_at:?}"
        );
    }

    #[test]
    fn overload_sheds_immediately_per_tenant() {
        let mut q = Sim::new(WEIGHTS);
        let a = (0, 1, 2);
        let b = (1, 1, 2);
        q.push(a, 0, S).unwrap();
        // The depth cap is per tenant, summed across classes.
        q.push(a, 1, SloClass::Gold).unwrap();
        let err = q.push(a, 2, S).unwrap_err();
        assert_eq!(err, ServerError::Overloaded { depth: 2, max_depth: 2 });
        // The cap is per lane: tenant b still admits.
        q.push(b, 0, S).unwrap();
        assert_eq!(q.batcher.depth(), 3);
        assert_eq!(q.batcher.depth_of(0), 2);
        assert_eq!(q.batcher.depth_of(1), 1);
        // Draining reopens admission.
        while q.batcher.depth_of(0) > 0 {
            q.next();
        }
        q.push(a, 3, S).unwrap();
    }

    #[test]
    fn batch_dequeue_coalesces_up_to_caps() {
        let mut q = Sim::new(WEIGHTS);
        let t = (0, 1, 16);
        for i in 0..5 {
            q.push(t, i, S).unwrap();
        }
        let limits = BatchLimits { window: ms(20), max_requests: 3, max_nodes: usize::MAX };
        let batch = q.next_batch(&limits);
        assert_eq!(batch.members, vec![0, 1, 2], "request cap bounds the batch");
        assert!(batch.holds.is_empty(), "a full batch closes without holding");
        let limits_nodes = BatchLimits { window: ms(20), max_requests: 8, max_nodes: 2 };
        let batch = q.next_batch(&limits_nodes);
        assert_eq!(batch.members, vec![3, 4], "node cap bounds the batch");
        assert!(batch.holds.is_empty());
        // A request that would cross the node cap waits for the next
        // batch, which it opens even though it exceeds the cap alone.
        let lane = Lane { tenant: 0, class: S, weight: 1, max_depth: 16 };
        q.push(t, 5, S).unwrap();
        q.batcher.admit(lane, false, Entry { payload: 6, nodes: 9, deadline: None }).unwrap();
        assert_eq!(q.next_batch(&limits_nodes).members, vec![5]);
        assert_eq!(q.next_batch(&limits_nodes).members, vec![6]);
    }

    #[test]
    fn batches_never_span_tenants_or_classes() {
        let mut q = Sim::new(WEIGHTS);
        let a = (0, 1, 16);
        let b = (1, 1, 16);
        q.push(a, 0, S).unwrap();
        q.push(b, 1, S).unwrap();
        q.push(a, 2, S).unwrap();
        q.push(b, 3, S).unwrap();
        // Same tenant, different class: must not ride tenant a's silver
        // batch.
        q.push(a, 4, SloClass::Gold).unwrap();
        let limits = BatchLimits { window: ms(5), max_requests: 8, max_nodes: usize::MAX };
        let mut seen = Vec::new();
        while q.batcher.depth() > 0 {
            let batch = q.next_batch(&limits);
            seen.push((batch.tenant, batch.class, batch.members));
        }
        // Gold first (pass tie → class rank), then one silver batch per
        // tenant: same-lane requests coalesce, nothing else does.
        assert_eq!(
            seen,
            vec![(0, SloClass::Gold, vec![4]), (0, S, vec![0, 2]), (1, S, vec![1, 3])]
        );
    }

    #[test]
    fn stride_scheduling_honors_weights() {
        let mut q = Sim::new(WEIGHTS);
        let light = (0, 1, 64);
        let heavy = (1, 3, 64);
        for i in 0..12 {
            q.push(light, i, S).unwrap();
            q.push(heavy, i, S).unwrap();
        }
        // Serve 8 single-request batches while both lanes stay backlogged;
        // stride scheduling must give the weight-3 lane ~3× the service.
        let mut served = [0usize; 2];
        for _ in 0..8 {
            served[q.next().0 as usize] += 1;
        }
        assert_eq!(served[1], 6, "weight-3 lane gets 3 of every 4 slots");
        assert_eq!(served[0], 2);
    }

    #[test]
    fn idle_lane_rejoins_at_current_virtual_time() {
        let mut q = Sim::new(WEIGHTS);
        let a = (0, 1, 64);
        let b = (1, 1, 64);
        // Drive lane a far ahead in virtual time while b is idle.
        for i in 0..6 {
            q.push(a, i, S).unwrap();
            q.next();
        }
        // b activates late: it must not monopolize the queue to "catch
        // up" from pass 0 — service alternates from here on.
        for i in 0..4 {
            q.push(a, i, S).unwrap();
            q.push(b, i, S).unwrap();
        }
        let mut served = [0usize; 2];
        for _ in 0..4 {
            served[q.next().0 as usize] += 1;
        }
        assert_eq!(served, [2, 2], "late-activating lane shares, not monopolizes");
    }

    #[test]
    fn straggler_wait_never_outlives_a_deadline() {
        let mut q = Sim::new(WEIGHTS);
        let t = (0, 1, 4);
        q.now = ms(100);
        q.admit(t, S, false, Some(ms(105)), 0).unwrap();
        let limits = BatchLimits { window: ms(250), max_requests: 8, max_nodes: usize::MAX };
        let batch = q.next_batch(&limits);
        assert_eq!(batch.members, vec![0]);
        assert!(
            batch.holds.is_empty(),
            "a deadline inside the window closes the batch at once, not at the deadline \
             (where the executor would shed it): {:?}",
            batch.holds
        );
        // A straggler with a deadline inside the window closes the held
        // batch it joins.
        q.admit(t, S, false, None, 1).unwrap();
        let mut forming = q.batcher.begin().unwrap();
        let until = q.batcher.advance(&mut forming, &limits, q.now);
        assert_eq!(until, Step::HoldUntil(q.now + ms(250)), "no hold has expired empty yet");
        q.admit(t, S, false, Some(q.now + ms(7)), 2).unwrap();
        let until = q.batcher.advance(&mut forming, &limits, q.now + ms(1));
        assert_eq!(until, Step::Close);
        assert_eq!(q.batcher.finish(forming), vec![1, 2]);
    }

    #[test]
    fn a_deadline_at_the_window_end_closes_and_one_past_it_holds() {
        let mut q = Sim::new(WEIGHTS);
        let t = (0, 1, 4);
        let limits = BatchLimits { window: us(640), max_requests: 8, max_nodes: usize::MAX };
        q.now = ms(3);
        q.admit(t, S, false, Some(ms(3) + us(640)), 0).unwrap();
        let batch = q.next_batch(&limits);
        assert_eq!((batch.members, batch.holds), (vec![0], vec![]), "at the end closes");
        q.admit(t, S, false, Some(ms(3) + us(641)), 1).unwrap();
        let batch = q.next_batch(&limits);
        assert_eq!(batch.members, vec![1]);
        assert_eq!(batch.holds, vec![ms(3) + us(640)], "past the end holds the whole window");
        assert!(q.now < ms(3) + us(641), "and closes before the deadline it spared");
    }

    #[test]
    fn deadline_expired_while_queued_is_detectable_not_dropped() {
        // An expired entry is still dequeued (never silently discarded),
        // and closes its batch at once rather than holding it; the
        // server's batch executor turns it into a typed DeadlineExceeded
        // through the responder.
        let mut q = Sim::new(WEIGHTS);
        q.now = ms(10);
        q.admit((0, 1, 4), S, false, Some(ms(9)), 0).unwrap();
        let limits = BatchLimits { window: ms(250), max_requests: 8, max_nodes: usize::MAX };
        let batch = q.next_batch(&limits);
        assert_eq!(batch.members, vec![0], "expired items still surface to the executor");
        assert!(batch.holds.is_empty());
    }

    #[test]
    fn brownout_sheds_bronze_before_silver_before_gold() {
        let mut q = Sim::new(WEIGHTS);
        let t = (0, 1, 8);
        let mut degraded = |class, id| q.admit(t, class, true, None, id);
        // Bronze's cap ladders down to 8/4 = 2.
        degraded(SloClass::Bronze, 0).unwrap();
        degraded(SloClass::Bronze, 1).unwrap();
        let err = degraded(SloClass::Bronze, 2).unwrap_err();
        assert_eq!(err, ServerError::Overloaded { depth: 2, max_depth: 2 });
        // Silver still admits up to 8/2 = 4 (summed tenant depth).
        degraded(S, 3).unwrap();
        degraded(S, 4).unwrap();
        let err = degraded(S, 5).unwrap_err();
        assert_eq!(err, ServerError::Overloaded { depth: 4, max_depth: 4 });
        // Gold keeps the full cap of 8.
        for i in 0..4 {
            degraded(SloClass::Gold, 10 + i).unwrap();
        }
        let err = degraded(SloClass::Gold, 20).unwrap_err();
        assert_eq!(err, ServerError::Overloaded { depth: 8, max_depth: 8 });
        // Recovery restores every class's full share.
        while q.batcher.depth() > 0 {
            q.next();
        }
        q.push(t, 30, SloClass::Bronze).unwrap();
        q.push(t, 31, SloClass::Bronze).unwrap();
        q.push(t, 32, SloClass::Bronze).unwrap();
    }

    #[test]
    fn adaptive_window_collapses_when_holds_expire_empty() {
        let mut q = Sim::new(WEIGHTS);
        let t = (0, 1, 16);
        let limits = BatchLimits { window: us(6400), max_requests: 4, max_nodes: usize::MAX };
        // Closed-loop shape: one request at a time, every hold expires
        // with no straggler → the hold starts at the full window and
        // halves per batch down to the 1/64 probe floor, where it stays.
        for (i, hold) in
            [6400, 3200, 1600, 800, 400, 200, 100, 100, 100].into_iter().enumerate()
        {
            q.push(t, i, S).unwrap();
            let start = q.now;
            let batch = q.next_batch(&limits);
            assert_eq!(batch.members, vec![i]);
            assert_eq!(batch.holds, vec![start + us(hold)], "batch {i}");
        }
    }

    #[test]
    fn adaptive_window_recovers_when_stragglers_arrive() {
        let mut q = Sim::new(WEIGHTS);
        let t = (0, 1, 16);
        let limits = BatchLimits { window: ms(640), max_requests: 2, max_nodes: usize::MAX };
        // Collapse the scale first.
        for i in 0..8 {
            q.push(t, i, S).unwrap();
            q.next_batch(&limits);
        }
        // A straggler lands 3 ms into the collapsed 10 ms probe hold: it
        // is taken, and the paid-off hold doubles the next one.
        q.push(t, 100, S).unwrap();
        let start = q.now;
        let mut forming = q.batcher.begin().unwrap();
        assert_eq!(
            q.batcher.advance(&mut forming, &limits, start),
            Step::HoldUntil(start + ms(10))
        );
        q.push(t, 101, S).unwrap();
        assert_eq!(q.batcher.advance(&mut forming, &limits, start + ms(3)), Step::Close);
        assert_eq!(q.batcher.finish(forming), vec![100, 101]);
        q.now = start + ms(3);
        for (id, hold) in [(102, 20), (103, 10)] {
            q.push(t, id, S).unwrap();
            let start = q.now;
            assert_eq!(q.next_batch(&limits).holds, vec![start + ms(hold)]);
        }
    }

    #[test]
    fn a_zero_window_never_holds() {
        // The logical replayer's `window = 0` contract: whatever is
        // queued and however the clock moves, `advance` closes at once,
        // so nothing that arrives later can share (or dedup into) an
        // earlier batch.
        let mut q = Sim::new(WEIGHTS);
        let limits = BatchLimits { window: Duration::ZERO, max_requests: 8, max_nodes: 4 };
        let mut served = 0;
        for round in 0..40usize {
            q.now += us(37 * (round as u64 % 5));
            for k in 0..=round % 4 {
                let class = SloClass::ALL[(round + k) % NUM_CLASSES];
                let deadline = (k == 1).then(|| q.now + us(round as u64));
                q.admit((k as u64 % 2, 1, 64), class, false, deadline, round).unwrap();
            }
            let batch = q.next_batch(&limits);
            assert!(batch.holds.is_empty(), "round {round} held until {:?}", batch.holds);
            served += batch.members.len();
        }
        while q.batcher.depth() > 0 {
            let batch = q.next_batch(&limits);
            assert!(batch.holds.is_empty());
            served += batch.members.len();
        }
        assert_eq!(served, (0..40).map(|round| round % 4 + 1).sum::<usize>());
    }

    #[test]
    fn closing_ends_holds_and_rejects_admissions() {
        let mut q = Sim::new(WEIGHTS);
        let t = (0, 1, 4);
        let limits = BatchLimits { window: ms(20), max_requests: 8, max_nodes: usize::MAX };
        q.push(t, 7, S).unwrap();
        let mut forming = q.batcher.begin().unwrap();
        assert_eq!(q.batcher.advance(&mut forming, &limits, q.now), Step::HoldUntil(ms(20)));
        q.batcher.closed = true;
        assert_eq!(q.push(t, 8, S).unwrap_err(), ServerError::ShuttingDown);
        assert_eq!(q.batcher.advance(&mut forming, &limits, ms(1)), Step::Close);
    }

    // ---- through the threaded shell -----------------------------------

    fn shell_push(q: &RequestQueue<usize>, tenant: u64, id: usize) -> Result<(), ServerError> {
        let lane = Lane { tenant, class: S, weight: 1, max_depth: 16 };
        q.push(lane, Entry { payload: id, nodes: 1, deadline: None })
    }

    #[test]
    fn close_rejects_new_but_drains_old() {
        let q = RequestQueue::new(WEIGHTS);
        shell_push(&q, 0, 7).unwrap();
        q.close();
        assert_eq!(shell_push(&q, 0, 8).unwrap_err(), ServerError::ShuttingDown);
        assert_eq!(q.next_batch(&NO_BATCH), Some(vec![7]));
        assert!(q.next_batch(&NO_BATCH).is_none(), "drained + closed ends the worker loop");
    }

    #[test]
    fn purge_answers_queued_items_typed() {
        // The shell's half of a retire: every queued item of the purged
        // tenant comes back to the caller — who answers each with a
        // typed `UnknownTenant` (`tenant::tests` checks that half) — and
        // other lanes are untouched.
        let q = RequestQueue::new(WEIGHTS);
        shell_push(&q, 0, 0).unwrap();
        let gold = Lane { tenant: 0, class: SloClass::Gold, weight: 1, max_depth: 16 };
        q.push(gold, Entry { payload: 1, nodes: 1, deadline: None }).unwrap();
        shell_push(&q, 1, 2).unwrap();
        assert_eq!(q.purge_tenant(0), vec![1, 0], "gold first");
        assert_eq!(q.depth(), 1, "other lanes survive the purge");
        assert_eq!(q.next_batch(&NO_BATCH), Some(vec![2]));
        assert!(q.purge_tenant(0).is_empty());
    }

    #[test]
    fn a_push_during_a_real_hold_joins_the_held_batch() {
        // The one thing only the shell can get wrong: a worker asleep in
        // a hold must be woken by an admission and take it. The window
        // is far longer than the test may run, so a lost wake-up hangs
        // into the harness timeout rather than passing late.
        let q = RequestQueue::new(WEIGHTS);
        let limits = BatchLimits { window: ms(60_000), max_requests: 2, max_nodes: usize::MAX };
        shell_push(&q, 0, 1).unwrap();
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| q.next_batch(&limits));
            // The worker pops the head and starts its hold under one
            // lock acquisition, so an empty queue seen from here means
            // it is (or is about to be) asleep on the condvar.
            while q.depth() > 0 {
                std::thread::yield_now();
            }
            shell_push(&q, 0, 2).unwrap();
            assert_eq!(worker.join().unwrap(), Some(vec![1, 2]));
        });
    }
}

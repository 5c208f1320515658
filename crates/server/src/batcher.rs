//! Batch forming as a **pure state machine**: the whole micro-batching
//! policy — lanes, stride pick, drain under the caps, deadline-aware
//! straggler hold, AIMD window scale, brownout ladder, purge — with
//! time passed in as a value. Nothing here locks, blocks or reads a
//! clock, so one copy of the policy runs under two drivers:
//! [`crate::queue`]'s `RequestQueue` calls it under a mutex with the
//! real clock and parks on a condvar when told [`Step::HoldUntil`];
//! [`crate::workload::replay_logical`] calls it with the trace's clock.
//! `P` is the queued payload; `T` any time type that orders and adds a
//! [`Duration`] (`Instant` and `Duration` both do). One batch is `begin`
//! → `advance` (again after every wake-up, while it answers `HoldUntil`)
//! → `finish`. The tests are `queue::tests`.
//!
//! # Class → lane → stride composition
//!
//! Every admitted request carries an [`SloClass`] (gold / silver /
//! bronze). Lanes are keyed by `(tenant, class)`: each lane is a plain
//! FIFO (order within a class is strictly admission order), and
//! scheduling across lanes is **stride scheduling** — a lane's `pass`
//! advances by `STRIDE / (tenant_weight × class_weight)` per dequeued
//! request, and the non-empty lane with the lowest pass runs next (ties
//! broken by tenant id, then class rank, deterministically). A weight-4
//! gold class is therefore served 4× as often as a weight-1 bronze
//! class *within the same tenant*, composed multiplicatively with the
//! tenant's own weighted-fair share — and because the share is
//! proportional rather than strict-priority, a 100:1 weight skew bounds
//! bronze's wait instead of starving it. Idle lanes re-enter at the
//! current virtual time, never hoarding credit. Batches never span
//! tenants *or classes* — members share one graph, one model, one
//! engine checkout, and one SLO.
//!
//! # Adaptive straggler window
//!
//! After the opportunistic drain, a partially-filled batch may hold
//! open for stragglers. The hold length adapts by AIMD on whether
//! holds *pay off*: a hold in which a straggler actually arrived
//! doubles the window scale (queue pressure — waiting wins batches), a
//! hold that expired empty halves it (idle or closed-loop traffic —
//! waiting only adds latency), down to a small probe fraction that lets
//! the scale recover when pressure returns. Under closed-loop load no
//! straggler can arrive until the previous answer is delivered, so the
//! window collapses and batching degenerates gracefully to pure
//! opportunistic coalescing (which still dedups everything already
//! queued).

use crate::config::ServerConfig;
use crate::error::ServerError;
use crate::queue::{SloClass, NUM_CLASSES};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Add;
use std::time::Duration;

/// Pass-value increment for a weight-1 lane per dequeued request.
/// Lane pass advances by `STRIDE / weight`, so larger weights advance
/// slower and are scheduled proportionally more often.
const STRIDE: u64 = 1 << 20;

/// Full-scale denominator of the adaptive straggler window: the
/// effective hold is `window × scale / WINDOW_SCALE_FULL`.
const WINDOW_SCALE_FULL: u32 = 64;
/// Floor of the adaptive scale — a small probe hold (window/64) remains
/// even when fully collapsed, so arriving pressure can re-widen it.
///
/// The probe is not as small as it looks. At the default 500 µs window
/// it asks `Condvar::wait_timeout` for 7.8 µs, and Linux sleeps for at
/// least its default timer slack of 50 µs (`/proc/self/timerslack_ns`
/// reads 50000). A closed-loop `update_mix`-style read (a full-graph
/// cache hit over loopback TCP, client and server pinned to one CPU of
/// a 2-vCPU Xeon guest) took a median 107–112 µs at the default window
/// with a write for the line and another for its LF, 38–44 µs with a
/// zero window, and 20–24 µs with a zero window and one write per frame.
const WINDOW_SCALE_MIN: u32 = 1;

/// Maximum summed target nodes per coalesced execution on the server
/// (bounds the merged universe's size; an all-nodes full-graph request
/// counts as one node, since it serves from the shared cache).
const MAX_BATCH_NODES: usize = 1024;

/// The limits a batch forms under: the server's batching knobs, and
/// what [`crate::workload::replay_logical`] replays a trace under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchLimits {
    /// Longest straggler hold (the window at full AIMD scale); zero
    /// never holds — a batch is whatever its lane already has queued.
    pub window: Duration,
    /// Request cap per batch; 1 disables coalescing entirely.
    pub max_requests: usize,
    /// Summed-target-node cap per batch.
    pub max_nodes: usize,
}

impl From<&ServerConfig> for BatchLimits {
    fn from(config: &ServerConfig) -> Self {
        Self {
            window: config.batch_window,
            max_requests: config.max_batch_requests.max(1),
            max_nodes: MAX_BATCH_NODES,
        }
    }
}

impl Default for BatchLimits {
    /// The limits of [`ServerConfig::default`].
    fn default() -> Self {
        Self::from(&ServerConfig::default())
    }
}

/// The lane a request is admitted to, with its tenant's share.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lane {
    /// Registry-unique tenant id.
    pub tenant: u64,
    pub class: SloClass,
    /// The tenant's fair-share weight (multiplied by the class weight).
    pub weight: u32,
    /// The tenant's queued-request cap, summed across its classes.
    pub max_depth: usize,
}

/// One queued request as the policy sees it.
pub(crate) struct Entry<P, T> {
    pub payload: P,
    /// Target nodes named; 0 ("every node") costs 1 against the cap.
    pub nodes: usize,
    /// Absolute deadline, if any; a batch never holds for stragglers
    /// up to it.
    pub deadline: Option<T>,
}

/// One `(tenant, class)` FIFO lane. Lanes persist until their tenant is
/// purged: an empty lane keeps its pass, so going briefly idle earns no
/// scheduling credit.
struct ClassLane<P, T> {
    items: VecDeque<Entry<P, T>>,
    /// Stride-scheduling pass value; the non-empty lane with the lowest
    /// pass is served next.
    pass: u64,
    /// `tenant_weight × class_weight` — the stride divisor.
    weight: u64,
}

/// A batch being formed: [`Batcher::begin`] opens it, `advance` grows
/// it, `finish` takes its `members` (admission order, all of one lane).
pub(crate) struct Forming<P, T> {
    pub tenant: u64,
    pub class: SloClass,
    members: Vec<P>,
    nodes: usize,
    /// When the straggler window runs out; fixed by the first `advance`
    /// at the window scale of that moment.
    window_ends: Option<T>,
    /// The earliest member deadline.
    deadline: Option<T>,
    /// The AIMD inputs: whether a hold was requested, and whether a
    /// member joined after one.
    waited: bool,
    straggler_joined: bool,
}

impl<P, T: Copy + Ord> Forming<P, T> {
    fn join(&mut self, entry: Entry<P, T>) {
        self.nodes += entry.nodes;
        self.deadline = self.deadline.into_iter().chain(entry.deadline).min();
        self.straggler_joined |= self.waited;
        self.members.push(entry.payload);
    }
}

/// What [`Batcher::advance`] tells its driver to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step<T> {
    /// The batch is complete: call [`Batcher::finish`].
    Close,
    /// Wait until this time *or* the next admission, whichever is
    /// first, then call [`Batcher::advance`] again.
    HoldUntil(T),
}

/// The brownout ladder: one class's effective share of a tenant's depth
/// cap while the pool is degraded. Bronze sheds before silver before
/// gold; a floor of 1 keeps every class probeable so recovery is
/// observable from any lane.
fn degraded_depth_cap(max_depth: usize, class: SloClass) -> usize {
    match class {
        SloClass::Gold => max_depth,
        SloClass::Silver => (max_depth / 2).max(1),
        SloClass::Bronze => (max_depth / 4).max(1),
    }
}

/// The queue state and every decision made on it.
pub(crate) struct Batcher<P, T> {
    lanes: BTreeMap<(u64, SloClass), ClassLane<P, T>>,
    /// Per-class scheduling weights (indexed by [`SloClass::index`]),
    /// composed multiplicatively with tenant weights.
    class_weights: [u64; NUM_CLASSES],
    /// Set to stop admissions; what is queued still drains, unheld.
    pub closed: bool,
    /// Virtual time: the pass of the most recently scheduled lane. A
    /// lane going from empty to non-empty rejoins at this point, so a
    /// long-idle tenant neither starves others nor gets starved.
    global_pass: u64,
    /// Adaptive straggler-window scale in
    /// `[WINDOW_SCALE_MIN, WINDOW_SCALE_FULL]`.
    window_scale: u32,
}

impl<P, T: Copy + Ord + Add<Duration, Output = T>> Batcher<P, T> {
    pub fn new(class_weights: [u32; NUM_CLASSES]) -> Self {
        Self {
            lanes: BTreeMap::new(),
            class_weights: class_weights.map(|w| u64::from(w.max(1))),
            closed: false,
            global_pass: 0,
            window_scale: WINDOW_SCALE_FULL,
        }
    }

    /// Admits one request into its lane, or sheds it: `Overloaded` when
    /// the tenant is at its depth cap (summed across classes; while
    /// `degraded` the cap ladders down by class, shedding best-effort
    /// traffic first), `ShuttingDown` once [`Batcher::closed`].
    pub fn admit(
        &mut self,
        lane: Lane,
        degraded: bool,
        entry: Entry<P, T>,
    ) -> Result<(), ServerError> {
        if self.closed {
            return Err(ServerError::ShuttingDown);
        }
        let depth = self.depth_of(lane.tenant);
        let max_depth = if degraded {
            degraded_depth_cap(lane.max_depth, lane.class)
        } else {
            lane.max_depth
        };
        if depth >= max_depth {
            return Err(ServerError::Overloaded { depth, max_depth });
        }
        let weight = u64::from(lane.weight.max(1)) * self.class_weights[lane.class.index()];
        let queued = self.lanes.entry((lane.tenant, lane.class)).or_insert(ClassLane {
            items: VecDeque::new(),
            pass: self.global_pass,
            weight,
        });
        if queued.items.is_empty() {
            // Rejoin at the current virtual time: credit does not
            // accumulate while idle.
            queued.pass = queued.pass.max(self.global_pass);
        }
        queued.items.push_back(Entry { nodes: entry.nodes.max(1), ..entry });
        Ok(())
    }

    /// Picks the weighted-fair lane — the non-empty one with the lowest
    /// pass, ties broken by tenant id, then class rank — and opens a
    /// batch with its head. `None` when nothing is queued.
    pub fn begin(&mut self) -> Option<Forming<P, T>> {
        let (pass, tenant, class) = self
            .lanes
            .iter()
            .filter(|(_, lane)| !lane.items.is_empty())
            .map(|(&(tenant, class), lane)| (lane.pass, tenant, class))
            .min()?;
        let first = self.lanes.get_mut(&(tenant, class))?.items.pop_front()?;
        // Virtual time advances to the scheduled lane's pass, so lanes
        // activating during this batch rejoin here.
        self.global_pass = self.global_pass.max(pass);
        Some(Forming {
            tenant,
            class,
            members: vec![first.payload],
            nodes: first.nodes,
            window_ends: None,
            deadline: first.deadline,
            waited: false,
            straggler_joined: false,
        })
    }

    /// Takes what the batch's lane holds — **that lane only**, up to the
    /// request and node caps; draining costs no latency — then decides:
    /// [`Step::Close`] once a cap is hit, the queue is closed, the hold
    /// is over, or a member's deadline falls at or before the end of the
    /// straggler window; otherwise [`Step::HoldUntil`] that end
    /// (anchored at the first call's `now`). A hold cut short at a
    /// deadline would end exactly when the executor sheds the member
    /// (`now >= deadline`), so such a batch closes at once instead.
    pub fn advance(
        &mut self,
        forming: &mut Forming<P, T>,
        limits: &BatchLimits,
        now: T,
    ) -> Step<T> {
        let window = limits.window / WINDOW_SCALE_FULL * self.window_scale;
        let window_ends = *forming.window_ends.get_or_insert(now + window);
        loop {
            if forming.members.len() >= limits.max_requests || forming.nodes >= limits.max_nodes
            {
                return Step::Close;
            }
            let Some(lane) = self.lanes.get_mut(&(forming.tenant, forming.class)) else {
                break;
            };
            let Some(next) = lane.items.pop_front() else { break };
            if forming.nodes + next.nodes > limits.max_nodes {
                // It stays queued for the next batch, where it is the
                // first member even if it exceeds the cap alone — it
                // has to serve somewhere.
                lane.items.push_front(next);
                return Step::Close;
            }
            forming.join(next);
        }
        let deadline_inside = forming.deadline.is_some_and(|d| d <= window_ends);
        if self.closed || now >= window_ends || deadline_inside {
            return Step::Close;
        }
        forming.waited = true;
        Step::HoldUntil(window_ends)
    }

    /// Closes the batch and returns its members. AIMD on hold payoff: a
    /// hold a straggler joined doubles the window scale (pressure), one
    /// that expired empty halves it (idle), down to the probe floor. The
    /// lane is charged `STRIDE / weight` per member — all of fairness.
    pub fn finish(&mut self, forming: Forming<P, T>) -> Vec<P> {
        if forming.straggler_joined {
            self.window_scale = (self.window_scale * 2).min(WINDOW_SCALE_FULL);
        } else if forming.waited {
            self.window_scale = (self.window_scale / 2).max(WINDOW_SCALE_MIN);
        }
        if let Some(lane) = self.lanes.get_mut(&(forming.tenant, forming.class)) {
            let charge = forming.members.len() as u64 * STRIDE / lane.weight;
            lane.pass = lane.pass.saturating_add(charge);
        }
        forming.members
    }

    /// Removes a tenant's lanes and returns what was queued in them (gold
    /// first, admission order within a class); forming batches keep theirs.
    pub fn purge(&mut self, tenant: u64) -> Vec<P> {
        let lanes =
            SloClass::ALL.into_iter().filter_map(|class| self.lanes.remove(&(tenant, class)));
        lanes.flat_map(|lane| lane.items).map(|entry| entry.payload).collect()
    }

    /// Requests currently queued, across all lanes.
    pub fn depth(&self) -> usize {
        self.lanes.values().map(|lane| lane.items.len()).sum()
    }

    /// Requests currently queued in one tenant's lanes.
    pub fn depth_of(&self, tenant: u64) -> usize {
        let classes = (tenant, SloClass::Gold)..=(tenant, SloClass::Bronze);
        self.lanes.range(classes).map(|(_, lane)| lane.items.len()).sum()
    }
}

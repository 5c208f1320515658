//! Server telemetry: queue/compute latency split, shed accounting,
//! per-SLO-class latency rollups, and the batch-size distribution,
//! snapshotted as [`ServerStats`].

use crate::fault::lock_recover;
use crate::observe::TraceOutcome;
use crate::queue::SloClass;
use blockgnn_engine::{LatencyHistogram, ServeStats};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A point-in-time snapshot of everything the server knows about its
/// own behaviour.
///
/// The per-request counters live in `serve` (shared with
/// [`blockgnn_engine::Session`] accounting — same [`ServeStats`] type,
/// merged across workers); the queue/compute histograms split where
/// latency is spent; `batch_size_counts` records how well the dynamic
/// batcher is coalescing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerStats {
    /// Merged per-request serving counters (latency histogram with
    /// `p50()`/`p95()`/`p99()`, nodes served, hardware charges, …).
    pub serve: ServeStats,
    /// Distribution of time requests spent queued before execution.
    pub queue_time: LatencyHistogram,
    /// Distribution of batch execution times requests rode on.
    pub compute_time: LatencyHistogram,
    /// Requests offered to the admission queue (including shed ones).
    pub submitted: usize,
    /// Requests answered successfully.
    pub completed: usize,
    /// Requests shed at admission because the queue was full.
    pub shed_overload: usize,
    /// Requests shed because their deadline passed while queued.
    pub shed_deadline: usize,
    /// Requests that failed in the engine (invalid nodes, …).
    pub failed: usize,
    /// Batches executed.
    pub batches: usize,
    /// Requests that shared another identical request's execution
    /// (within-batch duplicates).
    pub deduped: usize,
    /// batch size → number of batches of that size.
    pub batch_size_counts: BTreeMap<usize, usize>,
    /// Graph deltas applied (each bumped the served version by one).
    pub updates: usize,
    /// Graph deltas rejected (invalid delta, residency budget, frozen
    /// snapshot).
    pub failed_updates: usize,
    /// Graph version being served when this snapshot was taken.
    pub graph_version: u64,
    /// Time since the server started.
    pub uptime: Duration,
    /// Workers currently serving — an identity field set on aggregate
    /// snapshots (dips while a crashed worker backs off before
    /// respawning).
    pub workers_alive: usize,
    /// Lifetime worker crashes (panics caught by a fault domain) — an
    /// identity field set on aggregate snapshots.
    pub worker_crashes: u64,
    /// Lifetime worker respawns — an identity field set on aggregate
    /// snapshots.
    pub restarts: u64,
    /// Whether the supervision circuit breaker marked the pool degraded
    /// when this snapshot was taken (brownout shedding active).
    pub degraded: bool,
    /// Partition load-balance factor of the served engine's full-graph
    /// plan (max part work / mean part work; `1.0` is a perfect split).
    /// `0.0` when the tenant's engine has one worker. Aggregate
    /// snapshots report the worst (largest) factor across tenants.
    pub part_balance: f64,
    /// The tenant's weighted-fair share of the admission queue — an
    /// identity field set on the per-tenant snapshots under
    /// [`ServerStats::tenants`].
    pub weight: u32,
    /// Requests currently queued — the tenant's lanes on the snapshots
    /// under [`ServerStats::tenants`], every lane on the aggregate.
    pub queue_depth: usize,
    /// Each live tenant's own snapshot, keyed by tenant name — populated
    /// only on aggregate snapshots ([`crate::Server::stats`]); empty on
    /// per-tenant snapshots and single-telemetry accumulators.
    pub tenants: BTreeMap<String, ServerStats>,
    /// Per-SLO-class rollups (submission/completion/shed counters and a
    /// full latency histogram each), keyed by class. A class appears
    /// once it has seen traffic.
    pub classes: BTreeMap<SloClass, ClassRollup>,
}

/// One SLO class's slice of a [`ServerStats`] snapshot: the counters
/// per-class latency objectives are checked against.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassRollup {
    /// Requests offered in this class (including shed ones).
    pub submitted: usize,
    /// Requests answered successfully.
    pub completed: usize,
    /// Requests shed (overload + deadline).
    pub shed: usize,
    /// Requests that failed in the engine.
    pub failed: usize,
    /// End-to-end served latency (queue + compute) of completed
    /// requests.
    pub latency: LatencyHistogram,
}

impl ClassRollup {
    /// Median served latency for the class.
    #[must_use]
    pub fn p50(&self) -> Duration {
        self.latency.p50()
    }

    /// 95th-percentile served latency for the class.
    #[must_use]
    pub fn p95(&self) -> Duration {
        self.latency.p95()
    }

    /// 99th-percentile served latency for the class.
    #[must_use]
    pub fn p99(&self) -> Duration {
        self.latency.p99()
    }

    /// Folds another rollup's counters into this one.
    pub fn merge(&mut self, other: &ClassRollup) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.shed += other.shed;
        self.failed += other.failed;
        self.latency.merge(&other.latency);
    }

    /// Renders the rollup as one colon-separated `stats` segment
    /// (`class=` prefixed by the caller): counters first, percentiles
    /// last.
    #[must_use]
    pub fn summary_fields(&self) -> String {
        format!(
            "requests={}:completed={}:failed={}:shed={}:p50_us={}:p95_us={}:p99_us={}",
            self.submitted,
            self.completed,
            self.failed,
            self.shed,
            self.p50().as_micros(),
            self.p95().as_micros(),
            self.p99().as_micros(),
        )
    }
}

impl ServerStats {
    /// Completed requests per second of server uptime.
    #[must_use]
    pub fn qps(&self) -> f64 {
        let secs = self.uptime.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// Mean executed-batch size (1.0 when batching never coalesced).
    #[must_use]
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            let total: usize = self.batch_size_counts.iter().map(|(s, c)| s * c).sum();
            total as f64 / self.batches as f64
        }
    }

    /// Requests shed for any reason.
    #[must_use]
    pub fn shed(&self) -> usize {
        self.shed_overload + self.shed_deadline
    }

    /// Folds another accumulator's counters into this one — how a
    /// multi-tenant server aggregates per-tenant telemetry (and absorbs
    /// retired tenants' final counters). `graph_version` and `uptime`
    /// are identity fields, not counters; the caller sets them on the
    /// merged snapshot.
    ///
    /// **Contract**: `other` must be a per-tenant snapshot, i.e. its
    /// own [`ServerStats::tenants`] map must be empty. Per-tenant
    /// snapshots are *not* folded — absorbing an aggregate snapshot would
    /// silently drop its `tenants` breakdown (and double-count its
    /// summed counters on re-aggregation), so this is asserted in debug
    /// builds.
    pub fn absorb(&mut self, other: &ServerStats) {
        debug_assert!(
            other.tenants.is_empty(),
            "absorb takes per-tenant snapshots; aggregate snapshots \
             (non-empty `tenants`) would lose their per-tenant rollups"
        );
        self.serve.merge(&other.serve);
        self.queue_time.merge(&other.queue_time);
        self.compute_time.merge(&other.compute_time);
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.shed_overload += other.shed_overload;
        self.shed_deadline += other.shed_deadline;
        self.failed += other.failed;
        self.batches += other.batches;
        self.deduped += other.deduped;
        for (size, count) in &other.batch_size_counts {
            *self.batch_size_counts.entry(*size).or_insert(0) += count;
        }
        self.updates += other.updates;
        self.failed_updates += other.failed_updates;
        // Not a counter: the aggregate reports the worst imbalance any
        // tenant's plan carries.
        self.part_balance = self.part_balance.max(other.part_balance);
        for (class, rollup) in &other.classes {
            self.classes.entry(*class).or_default().merge(rollup);
        }
    }

    /// The rollup for one class, creating it on first touch.
    pub(crate) fn class_mut(&mut self, class: SloClass) -> &mut ClassRollup {
        self.classes.entry(class).or_default()
    }

    /// Books `n` requests of `class` reaching the terminal `outcome` —
    /// the one place an aggregate counter and its class rollup move
    /// together. A crash counts as a failure; both shed kinds count as
    /// the class's `shed`.
    pub(crate) fn book(&mut self, class: SloClass, outcome: TraceOutcome, n: usize) {
        let rollup = self.classes.entry(class).or_default();
        let (total, by_class) = match outcome {
            TraceOutcome::Completed => (&mut self.completed, &mut rollup.completed),
            TraceOutcome::Failed | TraceOutcome::Crashed => {
                (&mut self.failed, &mut rollup.failed)
            }
            TraceOutcome::ShedOverload => (&mut self.shed_overload, &mut rollup.shed),
            TraceOutcome::ShedDeadline => (&mut self.shed_deadline, &mut rollup.shed),
        };
        *total += n;
        *by_class += n;
    }

    /// One-line summary for logs and the `stats` protocol command. The
    /// single-tenant prefix is stable; aggregate snapshots of a
    /// multi-tenant server append one `tenant=NAME:…` segment per tenant
    /// (colon-separated fields: counters first so smoke tests can grep
    /// exact prefixes, float rates last).
    #[must_use]
    pub fn summary(&self) -> String {
        let mut line = format!(
            "requests={} completed={} failed={} shed_overload={} shed_deadline={} \
             qps={:.1} p50_us={} p95_us={} p99_us={} mean_queue_us={} mean_compute_us={} \
             batches={} mean_batch={:.2} deduped={} version={} updates={} failed_updates={}",
            self.submitted,
            self.completed,
            self.failed,
            self.shed_overload,
            self.shed_deadline,
            self.qps(),
            self.serve.p50().as_micros(),
            self.serve.p95().as_micros(),
            self.serve.p99().as_micros(),
            mean_micros(self.serve.total_queue_time, self.serve.requests),
            mean_micros(self.serve.total_compute_time, self.serve.requests),
            self.batches,
            self.mean_batch_size(),
            self.deduped,
            self.graph_version,
            self.updates,
            self.failed_updates,
        );
        {
            use std::fmt::Write as _;
            let _ = write!(
                line,
                " workers_alive={} worker_crashes={} restarts={} degraded={}",
                self.workers_alive, self.worker_crashes, self.restarts, self.degraded
            );
            let _ = write!(line, " part_balance={:.2}", self.part_balance);
            for (class, rollup) in &self.classes {
                let _ = write!(line, " class={}:{}", class.name(), rollup.summary_fields());
            }
            if !self.tenants.is_empty() {
                let _ = write!(line, " tenants={}", self.tenants.len());
                for (name, t) in &self.tenants {
                    let _ = write!(
                        line,
                        " tenant={name}:w={}:requests={}:completed={}:failed={}:shed={}\
                         :version={}:updates={}:depth={}\
                         :qps={:.1}:p50_us={}:p95_us={}:p99_us={}",
                        t.weight,
                        t.submitted,
                        t.completed,
                        t.failed,
                        t.shed(),
                        t.graph_version,
                        t.updates,
                        t.queue_depth,
                        t.qps(),
                        t.serve.p50().as_micros(),
                        t.serve.p95().as_micros(),
                        t.serve.p99().as_micros(),
                    );
                }
            }
        }
        line
    }
}

fn mean_micros(total: Duration, count: usize) -> u128 {
    if count == 0 {
        0
    } else {
        total.as_micros() / count as u128
    }
}

/// The live, lock-protected accumulator behind [`ServerStats`].
#[derive(Debug)]
pub(crate) struct Telemetry {
    inner: Mutex<ServerStats>,
    started: Instant,
}

impl Telemetry {
    pub fn new() -> Self {
        Self { inner: Mutex::new(ServerStats::default()), started: Instant::now() }
    }

    pub fn snapshot(&self) -> ServerStats {
        let mut stats = lock_recover(&self.inner).clone();
        stats.uptime = self.started.elapsed();
        stats
    }

    pub fn record_submitted(&self, class: SloClass) {
        let mut stats = lock_recover(&self.inner);
        stats.submitted += 1;
        stats.class_mut(class).submitted += 1;
    }

    /// Runs `f` under the telemetry lock — how workers fold in a whole
    /// batch with one lock acquisition. The lock recovers from poison: a
    /// panicking neighbor must never wedge telemetry (counters are
    /// append-only, so a poisoned guard is still consistent).
    pub fn with<R>(&self, f: impl FnOnce(&mut ServerStats) -> R) -> R {
        f(&mut lock_recover(&self.inner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_carries_uptime_and_rates() {
        let t = Telemetry::new();
        t.record_submitted(SloClass::Gold);
        t.record_submitted(SloClass::Silver);
        t.with(|s| {
            s.book(SloClass::Silver, TraceOutcome::ShedOverload, 1);
            s.completed += 1;
            s.batches += 1;
            *s.batch_size_counts.entry(4).or_insert(0) += 1;
            *s.batch_size_counts.entry(2).or_insert(0) += 1;
            s.batches += 1;
        });
        std::thread::sleep(Duration::from_millis(2));
        let snap = t.snapshot();
        assert_eq!(snap.submitted, 2);
        assert_eq!(snap.shed(), 1);
        assert!(snap.uptime > Duration::ZERO);
        assert!(snap.qps() > 0.0);
        assert!((snap.mean_batch_size() - 3.0).abs() < 1e-9);
        assert!(snap.summary().contains("shed_overload=1"));
        assert!(snap.summary().contains("class=gold:requests=1:"));
        assert!(snap
            .summary()
            .contains("class=silver:requests=1:completed=0:failed=0:shed=1:"));
    }

    #[test]
    fn class_rollups_merge_and_render_percentiles() {
        let mut a = ServerStats::default();
        let gold = a.class_mut(SloClass::Gold);
        gold.submitted = 3;
        gold.completed = 3;
        gold.latency.record(Duration::from_micros(100));
        gold.latency.record(Duration::from_micros(200));
        gold.latency.record(Duration::from_micros(400));
        let mut b = ServerStats::default();
        let gold_b = b.class_mut(SloClass::Gold);
        gold_b.submitted = 1;
        gold_b.shed = 1;
        b.class_mut(SloClass::Bronze).submitted = 2;
        a.absorb(&b);
        let gold = &a.classes[&SloClass::Gold];
        assert_eq!((gold.submitted, gold.completed, gold.shed), (4, 3, 1));
        assert!(gold.p50() >= Duration::from_micros(100));
        assert!(gold.p99() >= gold.p50());
        assert_eq!(a.classes[&SloClass::Bronze].submitted, 2);
        // Classes render in rank order: gold before bronze.
        let line = a.summary();
        let gold_at = line.find("class=gold:").unwrap();
        let bronze_at = line.find("class=bronze:").unwrap();
        assert!(gold_at < bronze_at, "{line}");
    }

    #[test]
    #[should_panic(expected = "per-tenant snapshots")]
    #[cfg(debug_assertions)]
    fn absorbing_an_aggregate_snapshot_is_a_contract_violation() {
        let mut aggregate = ServerStats::default();
        aggregate.tenants.insert("t".into(), ServerStats::default());
        ServerStats::default().absorb(&aggregate);
    }

    /// Mid-flight snapshots must always be *internally* consistent, no
    /// matter how the recording calls interleave across threads: every
    /// terminal counter (completed/failed/shed) trails submission, and
    /// the per-class counters sum exactly to their aggregates — every
    /// terminal outcome is booked through `book`, which moves both sides
    /// under one lock acquisition.
    #[test]
    fn concurrent_snapshots_stay_internally_consistent() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{Arc, Barrier};

        const THREADS: usize = 8;
        const PER_THREAD: usize = 400;
        const OUTCOMES: [TraceOutcome; 5] = [
            TraceOutcome::Completed,
            TraceOutcome::Failed,
            TraceOutcome::ShedOverload,
            TraceOutcome::ShedDeadline,
            TraceOutcome::Crashed,
        ];
        let telemetry = Arc::new(Telemetry::new());
        let stop = Arc::new(AtomicBool::new(false));
        // The writers are held until the reader has taken its first
        // snapshot, so it is running when they start rather than first
        // scheduled after they have all finished.
        let start = Arc::new(Barrier::new(THREADS + 1));
        // A reader thread snapshots continuously while writers hammer,
        // and once more after they are done.
        let reader = {
            let telemetry = Arc::clone(&telemetry);
            let stop = Arc::clone(&stop);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut checked = 0_usize;
                loop {
                    let last = stop.load(Ordering::Relaxed);
                    let snap = telemetry.snapshot();
                    assert!(
                        snap.completed + snap.failed + snap.shed() <= snap.submitted,
                        "terminal counters outran submissions: {} + {} + {} > {}",
                        snap.completed,
                        snap.failed,
                        snap.shed(),
                        snap.submitted,
                    );
                    let by_class: usize = snap.classes.values().map(|c| c.submitted).sum();
                    assert_eq!(by_class, snap.submitted, "class submissions sum to aggregate");
                    let completed: usize = snap.classes.values().map(|c| c.completed).sum();
                    assert_eq!(completed, snap.completed, "class completions sum to aggregate");
                    let shed: usize = snap.classes.values().map(|c| c.shed).sum();
                    assert_eq!(shed, snap.shed(), "class sheds sum to aggregate");
                    let failed: usize = snap.classes.values().map(|c| c.failed).sum();
                    assert_eq!(failed, snap.failed, "class failures sum to aggregate");
                    checked += 1;
                    if checked == 1 {
                        start.wait();
                    }
                    if last {
                        break;
                    }
                }
                checked
            })
        };
        let writers: Vec<_> = (0..THREADS)
            .map(|t| {
                let telemetry = Arc::clone(&telemetry);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..PER_THREAD {
                        let class = SloClass::ALL[(t + i) % SloClass::ALL.len()];
                        // Submission always lands first (as in
                        // `submit_with`), then one terminal outcome.
                        telemetry.record_submitted(class);
                        let outcome = OUTCOMES[(t + i) % OUTCOMES.len()];
                        telemetry.with(|s| s.book(class, outcome, 1));
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let checked = reader.join().unwrap();
        assert!(checked > 0, "the reader actually raced the writers");
        let final_snap = telemetry.snapshot();
        assert_eq!(final_snap.submitted, THREADS * PER_THREAD);
        assert_eq!(
            final_snap.completed + final_snap.failed + final_snap.shed(),
            THREADS * PER_THREAD,
            "every request reached exactly one terminal state"
        );
        let each = THREADS * PER_THREAD / OUTCOMES.len();
        let snap = &final_snap;
        assert_eq!(
            (snap.completed, snap.failed, snap.shed_overload, snap.shed_deadline),
            (each, 2 * each, each, each),
            "a crash books as a failure, each shed kind as itself"
        );
    }
}

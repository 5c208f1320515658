//! Server telemetry: queue/compute latency split, shed accounting,
//! per-SLO-class latency rollups, and the batch-size distribution,
//! snapshotted as [`ServerStats`].
//!
//! Every exported number is a row of one counter table per scope —
//! `SERVER_COUNTERS` (any snapshot), `TENANT_COUNTERS` (each tenant of
//! the aggregate) and `CLASS_COUNTERS` (each class rollup) — giving its
//! `stats` key, its Prometheus family and help, its kind and how to read
//! it off the snapshot. The `stats` line ([`ServerStats::summary`]) is
//! the rows' keys in table order, and [`crate::Server::metrics_text`]
//! writes the rows' families in the same order, so a counter is added,
//! renamed or removed in one place.

use crate::fault::lock_recover;
use crate::observe::{write_family, TraceOutcome};
use crate::protocol::put_joined;
use crate::queue::SloClass;
use blockgnn_engine::{LatencyHistogram, ServeStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;
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
    /// Folds another rollup's counters into this one.
    pub fn merge(&mut self, other: &ClassRollup) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.shed += other.shed;
        self.failed += other.failed;
        self.latency.merge(&other.latency);
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

    /// One-line summary for logs and the `stats` protocol command: the
    /// server counters, a `class=NAME:` segment per class, and on an
    /// aggregate snapshot `tenants=N` and a `tenant=NAME:` segment each.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut line = String::new();
        write_tokens(&mut line, SERVER_COUNTERS, self, ' ');
        for (class, rollup) in &self.classes {
            let _ = write!(line, " class={}:", class.name());
            write_tokens(&mut line, CLASS_COUNTERS, rollup, ':');
        }
        if !self.tenants.is_empty() {
            let _ = write!(line, " tenants={}", self.tenants.len());
            for (name, tenant) in &self.tenants {
                let _ = write!(line, " tenant={name}:");
                write_tokens(&mut line, TENANT_COUNTERS, tenant, ':');
            }
        }
        line
    }
}

/// How a counter row is exported and printed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Kind {
    /// A Prometheus `counter`; a whole number on the `stats` line.
    Counter,
    /// A Prometheus `gauge`; a whole number on the `stats` line.
    Gauge,
    /// A gauge printed on the `stats` line with one decimal.
    Rate,
    /// A gauge printed on the `stats` line with two decimals.
    Ratio,
    /// A gauge exported as 1 or 0 and printed `true` or `false`.
    Flag,
}

/// One exported number of a scope: its `stats` key, its Prometheus
/// family and help, its [`Kind`], and how to read it off a snapshot. A
/// row with no key stays off the `stats` line; one with no family is not
/// exported. A reading of NaN leaves the sample out of its family.
pub(crate) struct Counter<S> {
    key: Option<&'static str>,
    family: Option<(&'static str, &'static str)>,
    kind: Kind,
    get: fn(&S) -> f64,
}

/// A counter table, one row per `key kind getter;`: a key of `_` keeps
/// the row off the `stats` line, and `=> "family" "help"` before the `;`
/// exports it.
macro_rules! counters {
    (@key _) => { None };
    (@key $key:literal) => { Some($key) };
    (@family) => { None };
    (@family $family:literal $help:literal) => { Some(($family, $help)) };
    ($($key:tt $kind:ident $get:expr $(=> $family:literal $help:literal)?;)*) => {
        &[$(Counter {
            key: counters!(@key $key),
            family: counters!(@family $($family $help)?),
            kind: Kind::$kind,
            get: $get,
        }),*]
    };
}

fn micros(d: Duration) -> f64 {
    d.as_micros() as f64
}

fn mean_micros(total: Duration, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        (total.as_micros() / count as u128) as f64
    }
}

/// The server scope: the `stats` line of any snapshot (the aggregate
/// or one tenant's) and the server-wide families of the aggregate.
pub(crate) const SERVER_COUNTERS: &[Counter<ServerStats>] = counters![
    "requests" Counter |s| s.submitted as f64;
    "completed" Counter |s| s.completed as f64;
    "failed" Counter |s| s.failed as f64;
    "shed_overload" Counter |s| s.shed_overload as f64;
    "shed_deadline" Counter |s| s.shed_deadline as f64;
    _ Gauge |s| s.uptime.as_secs_f64()
        => "blockgnn_uptime_seconds" "Seconds since the server started";
    "qps" Rate ServerStats::qps => "blockgnn_qps" "Completed requests per second of uptime";
    _ Gauge |s| s.queue_depth as f64
        => "blockgnn_queue_depth" "Requests currently queued across all tenants";
    "p50_us" Gauge |s| micros(s.serve.p50());
    "p95_us" Gauge |s| micros(s.serve.p95());
    "p99_us" Gauge |s| micros(s.serve.p99());
    "mean_queue_us" Gauge |s| mean_micros(s.serve.total_queue_time, s.serve.requests);
    "mean_compute_us" Gauge |s| mean_micros(s.serve.total_compute_time, s.serve.requests);
    "batches" Counter |s| s.batches as f64;
    "mean_batch" Ratio ServerStats::mean_batch_size;
    "deduped" Counter |s| s.deduped as f64;
    "version" Gauge |s| s.graph_version as f64;
    "updates" Counter |s| s.updates as f64;
    "failed_updates" Counter |s| s.failed_updates as f64;
    "workers_alive" Gauge |s| s.workers_alive as f64 => "blockgnn_workers_alive"
        "Workers currently serving (a crashed worker is down until its respawn \
         backoff elapses)";
    "worker_crashes" Counter |s| s.worker_crashes as f64
        => "blockgnn_worker_crashes_total" "Worker panics caught at the batch boundary";
    "restarts" Counter |s| s.restarts as f64 => "blockgnn_worker_restarts_total"
        "Crashed-worker respawns (fresh engine fork after backoff)";
    "degraded" Flag |s| f64::from(u8::from(s.degraded)) => "blockgnn_pool_degraded"
        "1 while the crash circuit breaker has the pool in brownout, else 0";
    "part_balance" Ratio |s| s.part_balance;
];

/// The tenant scope: each tenant's `tenant=NAME:` segment of the
/// aggregate `stats` line and its families, a counter labelled
/// `{tenant,backend}` and a gauge `{tenant}`. The graph version is two
/// rows because the line prints it before `updates` and the exposition
/// after.
pub(crate) const TENANT_COUNTERS: &[Counter<ServerStats>] = counters![
    "w" Gauge |s| f64::from(s.weight);
    "requests" Counter |s| s.submitted as f64 => "blockgnn_requests_submitted_total"
        "Requests offered to the admission queue (including shed ones)";
    "completed" Counter |s| s.completed as f64
        => "blockgnn_requests_completed_total" "Requests answered successfully";
    "failed" Counter |s| s.failed as f64
        => "blockgnn_requests_failed_total" "Requests that failed in the engine";
    "shed" Counter |s| s.shed() as f64 => "blockgnn_requests_shed_total"
        "Requests shed (admission overload + queued-deadline expiry)";
    _ Counter |s| s.batches as f64 => "blockgnn_batches_total" "Coalesced executions run";
    _ Counter |s| s.deduped as f64 => "blockgnn_deduped_total"
        "Requests that shared an identical request's execution";
    "version" Gauge |s| s.graph_version as f64;
    "updates" Counter |s| s.updates as f64
        => "blockgnn_graph_updates_total" "Graph deltas applied";
    _ Gauge |s| s.graph_version as f64
        => "blockgnn_graph_version" "Graph version currently being served";
    "depth" Gauge |s| s.queue_depth as f64
        => "blockgnn_tenant_queue_depth" "Requests currently queued in the tenant's lanes";
    _ Gauge |s| if s.part_balance > 0.0 { s.part_balance } else { f64::NAN }
        => "blockgnn_partition_balance"
        "Partition load-balance factor of the tenant's full-graph plan \
         (max part work / mean part work; 1.0 is perfect)";
    "qps" Rate ServerStats::qps;
    "p50_us" Gauge |s| micros(s.serve.p50());
    "p95_us" Gauge |s| micros(s.serve.p95());
    "p99_us" Gauge |s| micros(s.serve.p99());
];

/// The class scope: each `class=NAME:` segment of the `stats` line and
/// the per-class families, labelled `{tenant,class}`.
pub(crate) const CLASS_COUNTERS: &[Counter<ClassRollup>] = counters![
    "requests" Counter |c| c.submitted as f64
        => "blockgnn_class_requests_total" "Requests offered per SLO class";
    "completed" Counter |c| c.completed as f64
        => "blockgnn_class_completed_total" "Requests answered per SLO class";
    "failed" Counter |c| c.failed as f64;
    "shed" Counter |c| c.shed as f64
        => "blockgnn_class_shed_total" "Requests shed per SLO class";
    "p50_us" Gauge |c| micros(c.latency.p50());
    "p95_us" Gauge |c| micros(c.latency.p95());
    "p99_us" Gauge |c| micros(c.latency.p99());
];

/// Writes the `stats` tokens of `scope` read off `snapshot`,
/// `separator`-joined.
fn write_tokens<S>(out: &mut String, scope: &[Counter<S>], snapshot: &S, separator: char) {
    let rows = scope.iter().filter_map(|row| Some((row.key?, row.kind, (row.get)(snapshot))));
    put_joined(out, rows, separator, |out, (key, kind, value)| {
        let _ = match kind {
            Kind::Counter | Kind::Gauge => write!(out, "{key}={}", value as u64),
            Kind::Rate => write!(out, "{key}={value:.1}"),
            Kind::Ratio => write!(out, "{key}={value:.2}"),
            Kind::Flag => write!(out, "{key}={}", value != 0.0),
        };
    });
}

/// Writes every family of `scope`, one sample per snapshot: a counter
/// under the first labels of its `(counter labels, gauge labels,
/// snapshot)`, a gauge under the second.
pub(crate) fn write_families<S>(
    out: &mut String,
    scope: &[Counter<S>],
    samples: &[(String, String, &S)],
) {
    for row in scope {
        let Some((name, help)) = row.family else { continue };
        let counter = row.kind == Kind::Counter;
        let readings = samples.iter().filter_map(|(counter_labels, gauge_labels, snapshot)| {
            let value = (row.get)(snapshot);
            let labels = if counter { counter_labels } else { gauge_labels };
            (!value.is_nan()).then(|| (labels.clone(), value))
        });
        write_family(out, name, help, if counter { "counter" } else { "gauge" }, readings);
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
        assert!(gold.latency.p50() >= Duration::from_micros(100));
        assert!(gold.latency.p99() >= gold.latency.p50());
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

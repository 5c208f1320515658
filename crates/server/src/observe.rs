//! Observability: per-worker flight recorders, request traces, and a
//! Prometheus-style metrics exposition built from the live telemetry.
//!
//! # Flight recorder
//!
//! Every admitted request gets a process-unique trace id at admission.
//! As it moves through the serving pipeline, typed [`Span`]s are
//! collected — admission, queued, batch assembly, each engine stage
//! ([`blockgnn_engine::StageTiming`]), response write — and the
//! finished [`TraceRecord`] lands in the serving worker's **ring
//! buffer**: fixed capacity, single writer (one worker, one ring),
//! overwrite-oldest. Memory is bounded and the last
//! [`RING_CAPACITY`] requests per worker are always reconstructible,
//! no matter how long the server has run.
//!
//! Interesting requests — shed, failed, or slower than their resolved
//! deadline (or [`SLOW_THRESHOLD`] when they carry none) — are
//! additionally promoted into a retained **exemplar buffer** keyed by
//! [`SloClass`], so the worst offenders per class survive even after
//! the rings have cycled past them.
//!
//! Span timestamps are offsets from the recorder's epoch (server
//! start), which makes every record directly exportable as Chrome
//! trace-event JSON ([`chrome_trace_json`]) — load it in
//! `chrome://tracing` or Perfetto.
//!
//! # Metrics
//!
//! The Prometheus text exposition is written family by family, straight
//! from the same telemetry snapshots the `stats` verb reads (aggregate,
//! per-tenant, per-class): [`crate::Server::metrics_text`] walks the
//! telemetry counter tables, whose rows also make the `stats` line, and
//! each family writes its `# HELP`/`# TYPE` header and samples through
//! `write_family` (a counter or a gauge, as its row's kind says) or
//! `write_summary` (p50/p95/p99 plus `_count`). Labels are `tenant`,
//! `class` and `backend`; nothing is double-counted, and the metric
//! names are stable (CI greps them).

use crate::fault::lock_recover;
use crate::queue::SloClass;
use blockgnn_engine::LatencyHistogram;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Per-worker ring capacity: the last this-many requests served by each
/// worker are always reconstructible.
pub const RING_CAPACITY: usize = 256;

/// Retained exemplars per SLO class (slow / shed / failed requests).
pub const EXEMPLAR_CAPACITY: usize = 32;

/// A completed request with no deadline counts as *slow* (and is
/// promoted to the exemplar buffer) when its admission→response total
/// exceeds this.
pub const SLOW_THRESHOLD: Duration = Duration::from_millis(100);

/// Per-request trace context assigned at admission and carried through
/// the queue into the serving worker, where the full [`TraceRecord`]
/// is assembled. `Copy` and two words wide — cheap enough to ride on
/// every queue item even with tracing off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TraceMeta {
    /// The process-unique trace id (0 = untraced).
    pub id: u64,
    /// Offset of the admission start from the recorder epoch.
    pub start: Duration,
    /// How long admission took (validation + deadline resolution +
    /// enqueue), measured in `submit_with`.
    pub admission: Duration,
}

impl TraceMeta {
    /// The inert meta a disabled recorder stamps on every request.
    pub const UNTRACED: TraceMeta =
        TraceMeta { id: 0, start: Duration::ZERO, admission: Duration::ZERO };
}

/// One timed pipeline stage of a traced request. `start`/`end` are
/// offsets from the recorder's epoch (server start), so spans from
/// different requests and workers share one timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Stable stage name: `admission`, `queued`, `assembly`, an engine
    /// stage (`sample`, `full_graph`, `execute`, `scatter`), or
    /// `response_write`.
    pub stage: &'static str,
    /// Offset of the stage start from the recorder epoch.
    pub start: Duration,
    /// Offset of the stage end from the recorder epoch (`≥ start`).
    pub end: Duration,
}

impl Span {
    /// The stage's duration.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// How a traced request left the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Answered successfully.
    Completed,
    /// Failed in the engine.
    Failed,
    /// Shed at admission: the tenant's lane was full.
    ShedOverload,
    /// Shed at dequeue: the deadline passed while queued.
    ShedDeadline,
    /// The serving worker panicked mid-batch; the request was answered
    /// with a typed [`crate::ServerError::WorkerCrashed`].
    Crashed,
}

impl TraceOutcome {
    /// The stable wire spelling (`completed` / `failed` /
    /// `shed_overload` / `shed_deadline` / `crashed`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceOutcome::Completed => "completed",
            TraceOutcome::Failed => "failed",
            TraceOutcome::ShedOverload => "shed_overload",
            TraceOutcome::ShedDeadline => "shed_deadline",
            TraceOutcome::Crashed => "crashed",
        }
    }
}

/// Everything recorded about one request's trip through the serving
/// pipeline. The last [`RING_CAPACITY`] per worker live in the flight
/// recorder; slow/shed/failed ones also in the exemplar buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Process-unique id assigned at admission (also stamped on the
    /// response as [`blockgnn_engine::InferResponse::trace_id`]).
    pub trace_id: u64,
    /// The tenant the request addressed.
    pub tenant: String,
    /// The request's SLO class.
    pub class: SloClass,
    /// How the request left the pipeline.
    pub outcome: TraceOutcome,
    /// Requests coalesced into the execution that served this one (0
    /// for requests shed before execution).
    pub batch_size: usize,
    /// The typed spans, in start order.
    pub spans: Vec<Span>,
}

impl TraceRecord {
    /// Offset of the first span's start from the recorder epoch.
    #[must_use]
    pub fn start(&self) -> Duration {
        self.spans.first().map_or(Duration::ZERO, |s| s.start)
    }

    /// Admission→response wall-clock total (last span end − first span
    /// start).
    #[must_use]
    pub fn total(&self) -> Duration {
        let end = self.spans.iter().map(|s| s.end).max().unwrap_or(Duration::ZERO);
        end.saturating_sub(self.start())
    }

    /// Renders the record as one wire line (the `trace` verb's body):
    /// `id=HEX tenant=… class=… outcome=… batch=… start_us=… total_us=…
    /// spans=stage:start_us:end_us;…`.
    #[must_use]
    pub fn wire_line(&self) -> String {
        let mut line = format!(
            "id={:016x} tenant={} class={} outcome={} batch={} start_us={} total_us={} spans=",
            self.trace_id,
            self.tenant,
            self.class.name(),
            self.outcome.name(),
            self.batch_size,
            self.start().as_micros(),
            self.total().as_micros(),
        );
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                line.push(';');
            }
            let _ = write!(
                line,
                "{}:{}:{}",
                span.stage,
                span.start.as_micros(),
                span.end.as_micros()
            );
        }
        line
    }
}

/// One worker's fixed-capacity overwrite-oldest record store.
struct Ring {
    slots: VecDeque<TraceRecord>,
}

impl Ring {
    fn push(&mut self, record: TraceRecord) {
        if self.slots.len() == RING_CAPACITY {
            self.slots.pop_front();
        }
        self.slots.push_back(record);
    }
}

/// The server-wide flight recorder: one single-writer ring per worker,
/// a per-class exemplar buffer, and the trace-id source. All memory is
/// bounded at construction — recording never allocates beyond the
/// per-record spans.
pub struct Recorder {
    /// The common timeline origin every span offset is relative to.
    epoch: Instant,
    /// Trace-id source; ids start at 1 so 0 stays "untraced".
    next_id: AtomicU64,
    /// One ring per worker. Each ring has exactly one writer (its
    /// worker); the mutex only arbitrates against readers, so workers
    /// never contend with each other on the hot path.
    rings: Vec<Mutex<Ring>>,
    /// One delivery gate per ring ([`Recorder::delivering`]): every
    /// reader passes all of them first, so a caller that holds its
    /// answer also finds its trace.
    gates: Vec<Mutex<()>>,
    /// Slow/shed/failed exemplars, keyed by class, bounded per class.
    exemplars: Mutex<BTreeMap<SloClass, VecDeque<TraceRecord>>>,
    /// When false, every recording call is a no-op and ids stay 0 —
    /// the off switch the overhead benchmark compares against.
    enabled: bool,
}

impl Recorder {
    /// A recorder with one ring per worker.
    #[must_use]
    pub fn new(workers: usize, enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            rings: (0..workers.max(1))
                .map(|_| Mutex::new(Ring { slots: VecDeque::with_capacity(RING_CAPACITY) }))
                .collect(),
            gates: (0..workers.max(1)).map(|_| Mutex::new(())).collect(),
            exemplars: Mutex::new(BTreeMap::new()),
            enabled,
        }
    }

    /// Assigns the next process-unique trace id (0 when disabled).
    pub fn assign(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Offset of `t` from the recorder's epoch (the span timeline).
    #[must_use]
    pub fn offset(&self, t: Instant) -> Duration {
        t.saturating_duration_since(self.epoch)
    }

    /// Current offset of "now" from the epoch.
    #[must_use]
    pub fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Records how one request left the pipeline: the admission span
    /// `meta` carries, then `spans`, land in `worker`'s ring — or, for a
    /// request that never reached a worker, straight in the exemplar
    /// buffer. A ring record is also promoted to the exemplars when it is
    /// interesting: a non-completed outcome, or `slow` (the caller
    /// compares the total against the request's resolved deadline,
    /// falling back to [`SLOW_THRESHOLD`] when it carries none). No-op
    /// for an untraced request (id 0 — every request when disabled).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish(
        &self,
        worker: Option<usize>,
        meta: &TraceMeta,
        tenant: &str,
        class: SloClass,
        outcome: TraceOutcome,
        batch_size: usize,
        spans: &[Span],
        slow: bool,
    ) {
        if meta.id == 0 {
            return;
        }
        let mut all = Vec::with_capacity(1 + spans.len());
        all.push(Span {
            stage: "admission",
            start: meta.start,
            end: meta.start + meta.admission,
        });
        all.extend_from_slice(spans);
        let record = TraceRecord {
            trace_id: meta.id,
            tenant: tenant.to_string(),
            class,
            outcome,
            batch_size,
            spans: all,
        };
        let Some(worker) = worker else {
            return self.promote(record);
        };
        if outcome != TraceOutcome::Completed || slow {
            self.promote(record.clone());
        }
        lock_recover(&self.rings[worker % self.rings.len()]).push(record);
    }

    /// Closes `worker`'s delivery gate until the guard drops. A worker
    /// that answers its callers before it writes their records holds
    /// this across both, and readers wait at the gate: a caller reading
    /// the recorder right after its answer arrived would otherwise race
    /// the record it is looking for.
    pub(crate) fn delivering(&self, worker: usize) -> MutexGuard<'_, ()> {
        lock_recover(&self.gates[worker % self.gates.len()])
    }

    /// Waits out every delivery in progress (see [`Recorder::delivering`]).
    fn settle(&self) {
        for gate in &self.gates {
            drop(lock_recover(gate));
        }
    }

    fn promote(&self, record: TraceRecord) {
        let mut exemplars = lock_recover(&self.exemplars);
        let slot = exemplars.entry(record.class).or_default();
        if slot.len() == EXEMPLAR_CAPACITY {
            slot.pop_front();
        }
        slot.push_back(record);
    }

    /// The most recent `n` records across every worker ring, newest
    /// first (by trace id — ids are assigned monotonically).
    #[must_use]
    pub fn last(&self, n: usize) -> Vec<TraceRecord> {
        self.settle();
        let mut all: Vec<TraceRecord> = Vec::new();
        for ring in &self.rings {
            all.extend(lock_recover(ring).slots.iter().cloned());
        }
        all.sort_by_key(|r| std::cmp::Reverse(r.trace_id));
        all.truncate(n);
        all
    }

    /// Looks one trace up by id, searching the rings first, then the
    /// exemplar buffer (a shed request only ever lives there).
    #[must_use]
    pub fn find(&self, trace_id: u64) -> Option<TraceRecord> {
        self.settle();
        for ring in &self.rings {
            let ring = lock_recover(ring);
            if let Some(r) = ring.slots.iter().rev().find(|r| r.trace_id == trace_id) {
                return Some(r.clone());
            }
        }
        let exemplars = lock_recover(&self.exemplars);
        exemplars.values().flatten().find(|r| r.trace_id == trace_id).cloned()
    }

    /// The retained slow/shed/failed exemplars, gold first, newest last
    /// within a class.
    #[must_use]
    pub fn exemplars(&self) -> Vec<TraceRecord> {
        self.settle();
        let exemplars = lock_recover(&self.exemplars);
        exemplars.values().flatten().cloned().collect()
    }

    /// Per-class exemplar occupancy (for the metrics exposition).
    #[must_use]
    pub fn exemplar_counts(&self) -> BTreeMap<SloClass, usize> {
        self.settle();
        let exemplars = lock_recover(&self.exemplars);
        exemplars.iter().map(|(c, v)| (*c, v.len())).collect()
    }

    /// Records currently held across every ring (≤ workers ×
    /// [`RING_CAPACITY`]).
    #[must_use]
    pub fn recorded(&self) -> usize {
        self.settle();
        self.rings.iter().map(|r| lock_recover(r).slots.len()).sum()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled)
            .field("rings", &self.rings.len())
            .field("recorded", &self.recorded())
            .finish()
    }
}

/// A parsed `trace` protocol query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceQuery {
    /// The most recent `n` records across all worker rings.
    Last(usize),
    /// One record by trace id.
    Id(u64),
    /// The retained slow/shed/failed exemplars.
    Slow,
    /// Every ring record plus exemplars as Chrome trace-event JSON.
    Export,
}

/// Renders records as Chrome trace-event JSON (the "JSON array format"
/// `chrome://tracing` and Perfetto load): one complete (`"ph":"X"`)
/// event per span, microsecond timestamps on the recorder's epoch
/// timeline, one thread lane per trace id. Tenant names and stage
/// names are wire-charset-validated, so no JSON escaping is needed.
#[must_use]
pub fn chrome_trace_json(records: &[TraceRecord]) -> String {
    let mut out = String::from("[");
    let mut first = true;
    for record in records {
        for span in &record.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"trace_id\":\"{:016x}\",\"tenant\":\"{}\",\
                 \"class\":\"{}\",\"outcome\":\"{}\",\"batch\":{}}}}}",
                span.stage,
                record.outcome.name(),
                span.start.as_micros(),
                span.elapsed().as_micros(),
                record.trace_id,
                record.trace_id,
                record.tenant,
                record.class.name(),
                record.outcome.name(),
                record.batch_size,
            );
        }
    }
    out.push(']');
    out
}

/// Writes one Prometheus family of type `kind` (`counter` or `gauge`):
/// its `# HELP`/`# TYPE` header, then one line per `(labels, value)`
/// sample (`labels` without braces, empty for none). A family with no
/// samples writes nothing.
pub(crate) fn write_family(
    out: &mut String,
    name: &str,
    help: &str,
    kind: &str,
    samples: impl IntoIterator<Item = (String, f64)>,
) {
    let mut samples = samples.into_iter().peekable();
    if samples.peek().is_some() {
        let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
        for (labels, value) in samples {
            write_sample(out, name, &labels, value);
        }
    }
}

/// Writes one latency family as a Prometheus summary: per sample, the
/// p50/p95/p99 quantiles in seconds, then `_count`. A family with no
/// samples writes nothing.
pub(crate) fn write_summary<'a>(
    out: &mut String,
    name: &str,
    help: &str,
    samples: impl IntoIterator<Item = (String, &'a LatencyHistogram)>,
) {
    let mut samples = samples.into_iter().peekable();
    if samples.peek().is_some() {
        let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} summary");
        for (labels, histogram) in samples {
            let sep = if labels.is_empty() { "" } else { "," };
            for (q, v) in
                [("0.5", histogram.p50()), ("0.95", histogram.p95()), ("0.99", histogram.p99())]
            {
                write_sample(
                    out,
                    name,
                    &format!("{labels}{sep}quantile=\"{q}\""),
                    v.as_secs_f64(),
                );
            }
            write_sample(out, &format!("{name}_count"), &labels, histogram.count() as f64);
        }
    }
}

/// One sample line; whole values print without a fraction.
fn write_sample(out: &mut String, name: &str, labels: &str, value: f64) {
    let _ = if labels.is_empty() {
        write!(out, "{name} ")
    } else {
        write!(out, "{name}{{{labels}}} ")
    };
    let _ = if value.fract() == 0.0 && value.abs() < 1e15 {
        writeln!(out, "{}", value as i64)
    } else {
        writeln!(out, "{value}")
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, class: SloClass, outcome: TraceOutcome, total_us: u64) -> TraceRecord {
        TraceRecord {
            trace_id: id,
            tenant: "default".into(),
            class,
            outcome,
            batch_size: 1,
            spans: vec![
                Span {
                    stage: "admission",
                    start: Duration::from_micros(10),
                    end: Duration::from_micros(12),
                },
                Span {
                    stage: "queued",
                    start: Duration::from_micros(12),
                    end: Duration::from_micros(10 + total_us),
                },
            ],
        }
    }

    /// Finishes request `id` as `record(id, …)` would build it.
    fn finish(
        recorder: &Recorder,
        worker: Option<usize>,
        id: u64,
        (class, outcome): (SloClass, TraceOutcome),
        total_us: u64,
        slow: bool,
    ) {
        let meta = TraceMeta {
            id,
            start: Duration::from_micros(10),
            admission: Duration::from_micros(2),
        };
        let spans = &record(id, class, outcome, total_us).spans[1..];
        recorder.finish(worker, &meta, "default", class, outcome, 1, spans, slow);
    }

    #[test]
    fn finish_prepends_the_admission_span() {
        let recorder = Recorder::new(1, true);
        let id = recorder.assign();
        finish(&recorder, Some(0), id, (SloClass::Gold, TraceOutcome::Completed), 40, false);
        assert_eq!(
            recorder.find(id),
            Some(record(id, SloClass::Gold, TraceOutcome::Completed, 40))
        );
    }

    #[test]
    fn readers_wait_out_a_delivery_in_progress() {
        // A worker answers first and writes the record after; a reader
        // arriving in between sees the record, not the gap.
        let recorder = std::sync::Arc::new(Recorder::new(1, true));
        let id = recorder.assign();
        let delivering = recorder.delivering(0);
        let reader = {
            let recorder = std::sync::Arc::clone(&recorder);
            std::thread::spawn(move || (recorder.recorded(), recorder.find(id).is_some()))
        };
        std::thread::sleep(Duration::from_millis(20));
        finish(&recorder, Some(0), id, (SloClass::Silver, TraceOutcome::Completed), 5, false);
        drop(delivering);
        assert_eq!(reader.join().unwrap(), (1, true));
    }

    #[test]
    fn rings_bound_memory_and_overwrite_oldest() {
        let recorder = Recorder::new(1, true);
        for i in 0..(RING_CAPACITY as u64 + 50) {
            let id = recorder.assign();
            assert_eq!(id, i + 1, "ids are dense and start at 1");
            finish(
                &recorder,
                Some(0),
                id,
                (SloClass::Silver, TraceOutcome::Completed),
                5,
                false,
            );
        }
        assert_eq!(recorder.recorded(), RING_CAPACITY, "overwrite-oldest caps the ring");
        let last = recorder.last(4);
        assert_eq!(last.len(), 4);
        assert_eq!(last[0].trace_id, RING_CAPACITY as u64 + 50, "newest first");
        assert!(recorder.find(1).is_none(), "the oldest record was overwritten");
        assert!(recorder.find(RING_CAPACITY as u64 + 50).is_some());
        // A fast completed request earns no exemplar.
        assert!(recorder.exemplars().is_empty());
    }

    #[test]
    fn interesting_records_are_promoted_and_bounded_per_class() {
        let recorder = Recorder::new(2, true);
        // Slow completions, failures, and sheds are retained; the buffer
        // is bounded per class.
        for _ in 0..(EXEMPLAR_CAPACITY + 10) {
            let id = recorder.assign();
            let slow = (SloClass::Gold, TraceOutcome::Completed);
            finish(&recorder, Some(0), id, slow, 500_000, true);
        }
        let failed = recorder.assign();
        finish(&recorder, Some(1), failed, (SloClass::Bronze, TraceOutcome::Failed), 5, false);
        let shed = recorder.assign();
        finish(&recorder, None, shed, (SloClass::Bronze, TraceOutcome::ShedOverload), 2, false);
        let counts = recorder.exemplar_counts();
        assert_eq!(counts[&SloClass::Gold], EXEMPLAR_CAPACITY, "per-class bound");
        assert_eq!(counts[&SloClass::Bronze], 2, "failed + shed both promote");
        // A shed request never reaches a ring but is still findable.
        assert_eq!(recorder.find(shed).unwrap().outcome, TraceOutcome::ShedOverload);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let recorder = Recorder::new(2, false);
        let id = recorder.assign();
        assert_eq!(id, 0, "disabled tracing assigns id 0");
        finish(&recorder, Some(0), id, (SloClass::Gold, TraceOutcome::Failed), 9, false);
        finish(&recorder, None, id, (SloClass::Gold, TraceOutcome::ShedOverload), 9, false);
        assert_eq!(recorder.recorded(), 0);
        assert!(recorder.exemplars().is_empty());
        assert!(recorder.last(10).is_empty());
    }

    #[test]
    fn wire_lines_and_chrome_export_are_well_formed() {
        let r = record(0xAB, SloClass::Gold, TraceOutcome::Completed, 40);
        let line = r.wire_line();
        assert!(line.starts_with("id=00000000000000ab tenant=default class=gold "), "{line}");
        assert!(line.contains("outcome=completed batch=1 start_us=10 total_us=40"), "{line}");
        assert!(line.ends_with("spans=admission:10:12;queued:12:50"), "{line}");
        let json = chrome_trace_json(std::slice::from_ref(&r));
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2, "one event per span");
        assert!(json.contains("\"ts\":10,\"dur\":2"), "{json}");
        assert!(json.contains("\"trace_id\":\"00000000000000ab\""), "{json}");
        assert_eq!(chrome_trace_json(&[]), "[]");
        // Span offsets are monotonic by construction of the record.
        for pair in r.spans.windows(2) {
            assert!(pair[0].start <= pair[1].start && pair[0].end <= pair[1].end);
        }
    }
}

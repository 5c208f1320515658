//! Serving statistics: per-session counters and the latency histogram
//! shared by [`crate::Session`] and the server-side telemetry.

use crate::request::InferResponse;
use std::time::Duration;

/// Number of log₂-spaced latency buckets; bucket `i` covers
/// `[2^i, 2^(i+1))` microseconds, so the range spans 1 µs to ≈ 36 min.
const HISTOGRAM_BUCKETS: usize = 31;

/// A fixed-footprint latency histogram with log₂-spaced microsecond
/// buckets and `p50`/`p95`/`p99` accessors.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))` µs (sub-µs samples land
/// in bucket 0). Quantiles report the *upper edge* of the bucket where
/// the cumulative count crosses the rank, clamped into the exact
/// observed `[min, max]` sample range — the octave resolution is plenty
/// for p50/p95/p99 trend tracking, while the clamp keeps sparse
/// populations honest (a single-sample class reports its one latency as
/// every percentile, not a bucket upper bound up to 2× larger) and the
/// histogram stays cheap enough to merge across worker threads.
///
/// ```
/// use blockgnn_engine::LatencyHistogram;
/// use std::time::Duration;
///
/// let mut h = LatencyHistogram::default();
/// for ms in [1u64, 1, 1, 1, 20] {
///     h.record(Duration::from_millis(ms));
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.p50() < h.p99());
/// assert!(h.p99() >= Duration::from_millis(20));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    /// Smallest recorded sample in µs (`u64::MAX` while empty, so merge
    /// can take a plain minimum).
    min_micros: u64,
    /// Largest recorded sample in µs (0 while empty).
    max_micros: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self { buckets: [0; HISTOGRAM_BUCKETS], count: 0, min_micros: u64::MAX, max_micros: 0 }
    }
}

impl LatencyHistogram {
    /// Folds one sample into the histogram.
    pub fn record(&mut self, latency: Duration) {
        let micros = latency.as_micros().max(1);
        let bucket = (127 - u128::leading_zeros(micros) as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        let clamped = micros.min(u128::from(u64::MAX)) as u64;
        self.min_micros = self.min_micros.min(clamped);
        self.max_micros = self.max_micros.max(clamped);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Adds every sample of `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.min_micros = self.min_micros.min(other.min_micros);
        self.max_micros = self.max_micros.max(other.max_micros);
    }

    /// Smallest recorded sample (after the sub-µs clamp to 1 µs), or
    /// `None` while empty.
    #[must_use]
    pub fn min(&self) -> Option<Duration> {
        (self.count > 0).then(|| Duration::from_micros(self.min_micros))
    }

    /// Largest recorded sample, or `None` while empty.
    #[must_use]
    pub fn max(&self) -> Option<Duration> {
        (self.count > 0).then(|| Duration::from_micros(self.max_micros))
    }

    /// The latency at quantile `q` (clamped to `[0, 1]`): the upper edge
    /// of the bucket containing the `⌈q·count⌉`-th sample, clamped into
    /// the exact observed `[min, max]` range, or zero when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let edge = 1u64 << (i + 1).min(63);
                return Duration::from_micros(edge.clamp(self.min_micros, self.max_micros));
            }
        }
        Duration::from_micros(
            (1u64 << HISTOGRAM_BUCKETS).clamp(self.min_micros, self.max_micros),
        )
    }

    /// Median latency estimate.
    #[must_use]
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// 95th-percentile latency estimate.
    #[must_use]
    pub fn p95(&self) -> Duration {
        self.quantile(0.95)
    }

    /// 99th-percentile latency estimate.
    #[must_use]
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }
}

/// Counters a [`crate::Session`] accumulates across requests — the
/// observability base the serving runtime's telemetry builds on.
/// Mergeable ([`ServeStats::merge`]) so per-worker stats roll up into
/// one server-wide view.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Requests answered.
    pub requests: usize,
    /// Total logits rows returned.
    pub nodes_served: usize,
    /// Summed request latency (queue + compute).
    pub total_latency: Duration,
    /// Summed time requests spent queued before execution (zero for
    /// direct [`crate::Session`] callers, who never queue).
    pub total_queue_time: Duration,
    /// Summed execution time.
    pub total_compute_time: Duration,
    /// Fastest request, if any.
    pub min_latency: Option<Duration>,
    /// Slowest request.
    pub max_latency: Duration,
    /// End-to-end latency distribution with `p50/p95/p99` accessors.
    pub latency_histogram: LatencyHistogram,
    /// Full-graph requests answered from the engine's logits cache.
    pub full_graph_cache_hits: usize,
    /// Simulated accelerator cycles charged (fresh executions only —
    /// cache hits cost the hardware nothing).
    pub simulated_cycles: u64,
    /// Simulated accelerator energy in joules (fresh executions only).
    pub simulated_energy_joules: f64,
    /// Graph parts executed across all requests (0 per cache hit, 1 per
    /// unpartitioned execution, `k` per partition-parallel execution).
    pub parts_executed: usize,
}

impl ServeStats {
    /// Folds one answered request into the counters (the single record
    /// path — sessions and the serving runtime both go through here, so
    /// their accounting cannot drift).
    pub fn record_response(&mut self, response: &InferResponse) {
        self.requests += 1;
        self.nodes_served += response.logits.rows();
        self.total_latency += response.latency;
        self.total_queue_time += response.queue_time;
        self.total_compute_time += response.compute_time;
        self.min_latency =
            Some(self.min_latency.map_or(response.latency, |m| m.min(response.latency)));
        self.max_latency = self.max_latency.max(response.latency);
        self.latency_histogram.record(response.latency);
        self.parts_executed += response.parts;
        if response.from_cache {
            self.full_graph_cache_hits += 1;
        } else {
            self.simulated_cycles += response.sim.as_ref().map_or(0, |s| s.total_cycles);
            self.simulated_energy_joules += response.energy_joules.unwrap_or(0.0);
        }
    }

    /// Adds every counter of `other` into `self` — how per-worker
    /// session stats roll up into one server-wide view.
    pub fn merge(&mut self, other: &ServeStats) {
        self.requests += other.requests;
        self.nodes_served += other.nodes_served;
        self.total_latency += other.total_latency;
        self.total_queue_time += other.total_queue_time;
        self.total_compute_time += other.total_compute_time;
        self.min_latency = match (self.min_latency, other.min_latency) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max_latency = self.max_latency.max(other.max_latency);
        self.latency_histogram.merge(&other.latency_histogram);
        self.full_graph_cache_hits += other.full_graph_cache_hits;
        self.simulated_cycles += other.simulated_cycles;
        self.simulated_energy_joules += other.simulated_energy_joules;
        self.parts_executed += other.parts_executed;
    }

    /// Serving throughput in nodes per second of summed per-request
    /// compute time (queue time excluded; a shared batch execution is
    /// counted once per rider, so this is a conservative per-request
    /// rate — for wall-clock server throughput see `ServerStats::qps`
    /// in `blockgnn-server`).
    #[must_use]
    pub fn nodes_per_second(&self) -> f64 {
        let secs = self.total_compute_time.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.nodes_served as f64 / secs
        }
    }

    /// Mean request latency.
    #[must_use]
    pub fn mean_latency(&self) -> Duration {
        if self.requests == 0 {
            Duration::ZERO
        } else {
            self.total_latency / self.requests as u32
        }
    }

    /// Median latency ([`LatencyHistogram::p50`]).
    #[must_use]
    pub fn p50(&self) -> Duration {
        self.latency_histogram.p50()
    }

    /// 95th-percentile latency ([`LatencyHistogram::p95`]).
    #[must_use]
    pub fn p95(&self) -> Duration {
        self.latency_histogram.p95()
    }

    /// 99th-percentile latency ([`LatencyHistogram::p99`]).
    #[must_use]
    pub fn p99(&self) -> Duration {
        self.latency_histogram.p99()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockgnn_linalg::Matrix;

    fn response(
        nodes: usize,
        queue_ms: u64,
        compute_ms: u64,
        from_cache: bool,
        parts: usize,
    ) -> InferResponse {
        InferResponse {
            logits: Matrix::zeros(nodes, 2),
            predictions: vec![0; nodes],
            latency: Duration::from_millis(queue_ms + compute_ms),
            queue_time: Duration::from_millis(queue_ms),
            compute_time: Duration::from_millis(compute_ms),
            sim: None,
            energy_joules: if from_cache { None } else { Some(0.25) },
            from_cache,
            parts,
            batch_size: 1,
            graph_version: 0,
            trace_id: 0,
            hot_rows: 0,
        }
    }

    #[test]
    fn record_accumulates() {
        let mut s = ServeStats::default();
        s.record_response(&response(3, 1, 3, false, 4));
        s.record_response(&response(2, 0, 2, true, 0));
        assert_eq!(s.requests, 2);
        assert_eq!(s.nodes_served, 5);
        assert_eq!(s.parts_executed, 4);
        assert_eq!(s.min_latency, Some(Duration::from_millis(2)));
        assert_eq!(s.max_latency, Duration::from_millis(4));
        assert_eq!(s.full_graph_cache_hits, 1);
        assert_eq!(s.total_queue_time, Duration::from_millis(1));
        assert_eq!(s.total_compute_time, Duration::from_millis(5));
        // cache hits charge no hardware
        assert!((s.simulated_energy_joules - 0.25).abs() < 1e-12);
        assert_eq!(s.mean_latency(), Duration::from_millis(3));
        assert!(s.nodes_per_second() > 0.0);
        assert_eq!(s.latency_histogram.count(), 2);
    }

    #[test]
    fn empty_stats_are_quiet() {
        let s = ServeStats::default();
        assert_eq!(s.nodes_per_second(), 0.0);
        assert_eq!(s.mean_latency(), Duration::ZERO);
        assert_eq!(s.min_latency, None);
        assert_eq!(s.p99(), Duration::ZERO);
    }

    #[test]
    fn merge_combines_every_counter() {
        let mut a = ServeStats::default();
        a.record_response(&response(1, 0, 1, false, 1));
        let mut b = ServeStats::default();
        b.record_response(&response(4, 2, 6, false, 2));
        b.record_response(&response(2, 0, 0, true, 0));
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.requests, 3);
        assert_eq!(merged.nodes_served, 7);
        assert_eq!(merged.min_latency, Some(Duration::from_millis(0)));
        assert_eq!(merged.max_latency, Duration::from_millis(8));
        assert_eq!(merged.parts_executed, 3);
        assert_eq!(merged.full_graph_cache_hits, 1);
        assert_eq!(merged.latency_histogram.count(), 3);
        // Merging into empty equals the source.
        let mut from_empty = ServeStats::default();
        from_empty.merge(&merged);
        assert_eq!(from_empty, merged);
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let mut h = LatencyHistogram::default();
        for _ in 0..98 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_millis(50));
        h.record(Duration::from_millis(50));
        assert_eq!(h.count(), 100);
        // p50 sits in the 100 µs octave [64, 128) → upper edge 128 µs.
        assert_eq!(h.p50(), Duration::from_micros(128));
        assert_eq!(h.p95(), Duration::from_micros(128));
        // p99 reaches the 50 ms octave [32.768, 65.536) ms, but the
        // reported value clamps to the exact observed maximum.
        assert_eq!(h.p99(), Duration::from_millis(50));
        assert_eq!(h.max(), Some(Duration::from_millis(50)));
        assert_eq!(h.min(), Some(Duration::from_micros(100)));
    }

    #[test]
    fn quantiles_clamp_into_observed_range() {
        // One sample: every percentile IS that sample, not the octave
        // upper bound (a 300 µs request must not report p99 = 512 µs).
        let mut h = LatencyHistogram::default();
        h.record(Duration::from_micros(300));
        assert_eq!(h.p50(), Duration::from_micros(300));
        assert_eq!(h.p99(), Duration::from_micros(300));
        // Two distant samples: p50 still cannot fall below the minimum.
        h.record(Duration::from_micros(70_000));
        assert!(h.p50() >= Duration::from_micros(300));
        assert_eq!(h.p99(), Duration::from_micros(70_000));
        // Empty stays quiet and merge carries the extremes across.
        let empty = LatencyHistogram::default();
        assert_eq!(empty.quantile(0.99), Duration::ZERO);
        assert_eq!(empty.min(), None);
        assert_eq!(empty.max(), None);
        let mut merged = LatencyHistogram::default();
        merged.merge(&h);
        merged.merge(&empty);
        assert_eq!(merged.min(), Some(Duration::from_micros(300)));
        assert_eq!(merged.max(), Some(Duration::from_micros(70_000)));
    }

    #[test]
    fn histogram_merge_and_extremes() {
        let mut a = LatencyHistogram::default();
        a.record(Duration::ZERO); // clamps into bucket 0
        a.record(Duration::from_secs(3_600)); // clamps into the top bucket
        let mut b = LatencyHistogram::default();
        b.record(Duration::from_millis(1));
        b.merge(&a);
        assert_eq!(b.count(), 3);
        assert_eq!(b.quantile(0.0), Duration::from_micros(2));
        assert!(b.quantile(1.0) >= Duration::from_secs(1_000));
    }
}

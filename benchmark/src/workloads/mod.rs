//! The four workloads and what they share: one model configuration, one
//! set-up/measure/verify life cycle, and one sample format.
//!
//! All four are **closed loops**: a caller issues its next operation only
//! after the previous one completed. An open-loop rate ladder was tried
//! while sizing and did not repeat on a 2-CPU guest (see README.md).

pub mod full_offline;
pub mod serve_hot8;
pub mod serve_single;
pub mod update_mix;

use crate::catalogue::{FULL_OFFLINE, SERVE_HOT8, SERVE_SINGLE, UPDATE_MIX};
use crate::span::Recorder;
use blockgnn_engine::{BackendKind, Engine, EngineBuilder};
use blockgnn_gnn::ModelKind;
use blockgnn_graph::Dataset;
use blockgnn_linalg::Matrix;
use blockgnn_nn::Compression;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hidden width of every benchmarked model.
pub const HIDDEN_DIM: usize = 64;
/// Circulant block size of every benchmarked model.
pub const BLOCK_SIZE: usize = 16;
/// Weight-initialisation seed; twins built from it answer bit-identically.
pub const MODEL_SEED: u64 = 3;
/// Synthesis seed of the serving datasets. (`full_offline`'s dataset is
/// its only input, so that one is drawn from `--seed` instead.)
pub const DATASET_SEED: u64 = 7;
/// Node count of `cora-small` (`serve_single`, `serve_hot8`).
pub const CORA_NODES: usize = 680;
/// Node count of `pubmed-small` (`update_mix`).
pub const PUBMED_NODES: usize = 1_970;
/// Feature width of `pubmed-small`.
pub const PUBMED_FEATURES: usize = 64;

/// An engine in the configuration every workload uses: `HIDDEN_DIM`,
/// block-circulant `BLOCK_SIZE`, `MODEL_SEED`.
pub fn engine(model: ModelKind, backend: BackendKind, dataset: &Arc<Dataset>) -> Engine {
    EngineBuilder::new(model, backend)
        .hidden_dim(HIDDEN_DIM)
        .compression(Compression::BlockCirculant { block_size: BLOCK_SIZE })
        .seed(MODEL_SEED)
        .build(Arc::clone(dataset))
        .expect("the benchmark's fixed configuration builds")
}

/// Whether two logits matrices are the same bits (`f64::to_bits`), the
/// repo's own standard for "the same answer".
pub fn bit_identical(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// What kind of operation a sample times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// The workload's main operation: a pass, a request, a ticket, a read
    /// answered from cache.
    Main,
    /// An `update_mix` read whose reply said `from_cache=0`: it paid the
    /// recompute a write caused. Also counts as a main operation.
    MissRead,
    /// An `update_mix` write round trip.
    Update,
}

/// One successful, timed operation, packed into 12 bytes: the sample log
/// lives in the measured process, so it is part of `peak_rss_mb`, and a
/// faster system logs more of them.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Completion time in µs since the measured section began.
    end_us: u32,
    /// Saturates at 4.29 s.
    latency_ns: u32,
    /// Target nodes it answered.
    pub nodes: u16,
    pub kind: OpKind,
}

impl Op {
    pub fn new(
        origin: Instant,
        start: Instant,
        end: Instant,
        nodes: usize,
        kind: OpKind,
    ) -> Self {
        let saturating =
            |d: Duration, unit: u128| u32::try_from(d.as_nanos() / unit).unwrap_or(u32::MAX);
        Self {
            end_us: saturating(end.duration_since(origin), 1_000),
            latency_ns: saturating(end.duration_since(start), 1),
            nodes: u16::try_from(nodes).unwrap_or(u16::MAX),
            kind,
        }
    }

    /// Completion time in seconds since the measured section began.
    pub fn end_s(&self) -> f64 {
        f64::from(self.end_us) / 1e6
    }

    pub fn latency_us(&self) -> f64 {
        f64::from(self.latency_ns) / 1e3
    }
}

/// Operations attempted and failed in one phase. Errors, sheds, refusals
/// and wrong answers all count as failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub attempted: u64,
    pub failed: u64,
}

impl Counts {
    pub fn add(&mut self, other: Counts) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// When a driving loop stops issuing operations.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// After this many operations (warm-up).
    Ops(usize),
    /// After this much time (the measured section).
    Time(Duration),
}

impl Limit {
    pub fn reached(self, issued: usize, elapsed: Duration) -> bool {
        match self {
            Limit::Ops(n) => issued >= n,
            Limit::Time(t) => elapsed >= t,
        }
    }
}

/// Whether the benchmark's own span recording is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    /// End-to-end measurement: no recorder, ever.
    Off,
    /// The traced pass: spans are recorded during odd 1-s windows and not
    /// during even ones, so one run yields both sides of
    /// `trace.overhead_share` under the same host conditions.
    OddWindows,
}

impl Tracing {
    pub fn records_at(self, elapsed: Duration) -> bool {
        self == Tracing::OddWindows && elapsed.as_secs() % 2 == 1
    }
}

/// What one driving loop produced.
#[derive(Debug, Default)]
pub struct Run {
    pub ops: Vec<Op>,
    pub counts: Counts,
    pub recorders: Vec<Recorder>,
}

impl Run {
    pub fn absorb(&mut self, other: Run) {
        self.ops.extend(other.ops);
        self.counts.add(other.counts);
        self.recorders.extend(other.recorders);
    }
}

/// What the checks after the timed section found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Measured operations whose answer failed the correctness gate.
    pub wrong: u64,
    /// Numbers that are not timings of operations: `sim_cycles_per_node`,
    /// batch and cache shares, generator lateness.
    pub extras: Vec<(&'static str, f64)>,
    /// Human-readable findings (what was checked, what failed).
    pub notes: Vec<String>,
}

/// A workload's life cycle. `setup` builds everything and warms it up;
/// `measure` drives the closed loop; `verify` runs after the timed
/// section, checks retained answers and tears the system down.
pub trait Workload: Sized {
    fn setup(seed: u64) -> (Self, Counts);
    fn measure(&mut self, limit: Limit, tracing: Tracing, origin: Instant) -> Run;
    fn verify(self, run: &Run) -> Verdict;
}

/// Everything one child process learned about one workload.
#[derive(Debug)]
pub struct Outcome {
    /// Wall time from `started` to the first measured operation: dataset
    /// synthesis, build, connect, warm-up.
    pub setup_s: f64,
    /// `VmHWM` when the measured section ended, in MiB.
    pub peak_rss_mb: Option<f64>,
    pub warmup: Counts,
    pub measured: Counts,
    pub ops: Vec<Op>,
    pub recorders: Vec<Recorder>,
    pub extras: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn execute<W: Workload>(
    seed: u64,
    seconds: u64,
    tracing: Tracing,
    started: Instant,
) -> Outcome {
    let (mut workload, warmup) = W::setup(seed);
    let origin = Instant::now();
    let setup_s = origin.duration_since(started).as_secs_f64();
    let run = workload.measure(Limit::Time(Duration::from_secs(seconds)), tracing, origin);
    // Before the checks: their twin engine is the benchmark's memory, not
    // the served system's, and it moved `update_mix`'s peak by 4–6 MiB
    // from run to run.
    let peak_rss_mb = peak_rss_mb();
    let verdict = workload.verify(&run);
    let mut measured = run.counts;
    measured.failed += verdict.wrong;
    Outcome {
        setup_s,
        peak_rss_mb,
        warmup,
        measured,
        ops: run.ops,
        recorders: run.recorders,
        extras: verdict.extras,
        notes: verdict.notes,
    }
}

/// Runs workload `name` (a catalogue name) in this process. `started` is
/// where `setup_s` counts from: the start of the process for a measured
/// run, so that the cold start is in it.
pub fn run(name: &str, seed: u64, seconds: u64, tracing: Tracing, started: Instant) -> Outcome {
    match name {
        FULL_OFFLINE => execute::<full_offline::FullOffline>(seed, seconds, tracing, started),
        SERVE_SINGLE => execute::<serve_single::ServeSingle>(seed, seconds, tracing, started),
        SERVE_HOT8 => execute::<serve_hot8::ServeHot8>(seed, seconds, tracing, started),
        UPDATE_MIX => execute::<update_mix::UpdateMix>(seed, seconds, tracing, started),
        other => unreachable!("workload names are validated at the command line: {other}"),
    }
}

//! One measured process: one workload, one pass. This is what the
//! contract's `--workload … --seed … --seconds … --trace …` invocation
//! runs, and what `benchmark run` re-executes once per (workload, round)
//! so state and peak RSS never leak between measurements.
//!
//! Standard output ends with two machine-readable lines: a `detail` line
//! carrying every sample (what `benchmark run` pools across rounds) and,
//! last, the contract's result object.

use crate::affinity::{pin_to_one_cpu, Pin};
use crate::catalogue::{
    EndToEnd, Pool, END_TO_END, FAILED_SHARE, LATENCY_P50_US, LATENCY_P99_US, MISS_READ_P50_US,
    NODES_PER_S, PEAK_RSS_MB, PER_LAYER, SERVE_HOT8, SETUP_S, SIM_CYCLES_PER_NODE, UPDATE_MIX,
    UPDATE_P50_US,
};
use crate::estimator::{cut, median, quartiles, window_rates, window_values, Stat};
use crate::gen::stream_hash;
use crate::json::Json;
use crate::ladder;
use crate::span::{chrome_trace, summarize, Recorder};
use crate::workloads::{self, Counts, Op, OpKind, Outcome, Tracing};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Inputs fingerprinted in the header line of every run.
const STREAM_HASH_ITEMS: usize = 1_000;
/// Prefix of the line that carries every sample to `benchmark run`.
pub const DETAIL_PREFIX: &str = "detail ";

/// What one child process is asked to do.
#[derive(Debug, Clone)]
pub struct ChildArgs {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// The traced pass makes `QUICK_LADDER_SCALE` of the ladder's calls.
    pub quick: bool,
    /// When this process started; `setup_s` counts from here.
    pub started: Instant,
}

/// Share of the ladder's calls a `--quick` traced pass makes.
const QUICK_LADDER_SCALE: f64 = 0.1;

/// Where the benchmark writes its files: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One end-to-end metric of one run: its value and the samples behind it.
pub struct Measured {
    pub metric: &'static EndToEnd,
    pub value: Option<f64>,
    pub samples: Vec<f64>,
}

/// The samples of `metric`: one per window for a timing, one per run for
/// the rest.
fn samples(metric: &str, outcome: &Outcome, seconds: u64) -> Vec<f64> {
    let windows = seconds as usize;
    let of = |keep: fn(OpKind) -> bool, value: fn(&Op) -> f64, stat: Stat| {
        let picked =
            outcome.ops.iter().filter(|op| keep(op.kind)).map(|op| (op.end_s(), value(op)));
        window_values(&cut(picked, windows), stat)
    };
    let main = |kind: OpKind| kind != OpKind::Update;
    let latency = |op: &Op| op.latency_us();
    match metric {
        SETUP_S => vec![outcome.setup_s],
        NODES_PER_S => {
            let done = outcome.ops.iter().filter(|op| main(op.kind));
            window_rates(done.map(|op| (op.end_s(), f64::from(op.nodes))), windows)
        }
        LATENCY_P50_US => of(main, latency, Stat::Median),
        LATENCY_P99_US => of(main, latency, Stat::Percentile(0.99)),
        MISS_READ_P50_US => of(|kind| kind == OpKind::MissRead, latency, Stat::Median),
        UPDATE_P50_US => of(|kind| kind == OpKind::Update, latency, Stat::Median),
        FAILED_SHARE => {
            vec![outcome.measured.failed as f64 / outcome.measured.attempted.max(1) as f64]
        }
        PEAK_RSS_MB => outcome.peak_rss_mb.into_iter().collect(),
        SIM_CYCLES_PER_NODE => {
            outcome.extras.iter().filter(|(n, _)| *n == metric).map(|(_, v)| *v).collect()
        }
        other => unreachable!("{other} is not an end-to-end metric"),
    }
}

/// Combines samples the way the catalogue says this metric pools.
pub fn pooled(pool: Pool, samples: &[f64]) -> Option<f64> {
    match pool {
        Pool::Median => median(samples),
        Pool::Max => samples.iter().copied().reduce(f64::max),
        Pool::FailedShare => samples.first().copied(),
        Pool::Exact => {
            let first = *samples.first()?;
            samples.iter().all(|s| s.to_bits() == first.to_bits()).then_some(first)
        }
    }
}

fn counts_json(counts: Counts) -> Json {
    Json::obj([
        ("attempted", Json::Num(counts.attempted as f64)),
        ("succeeded", Json::Num((counts.attempted - counts.failed) as f64)),
        ("failed", Json::Num(counts.failed as f64)),
    ])
}

fn print_counts(phase: &str, counts: Counts) {
    println!(
        "  {phase:<9} attempted {} succeeded {} failed {}",
        counts.attempted,
        counts.attempted - counts.failed,
        counts.failed
    );
}

/// The contract's last line.
fn result_line(correct: bool, counts: Counts, metrics: Vec<(String, Json)>) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(counts.attempted.max(1) as f64)),
        ("failed", Json::Num(counts.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .compact()
}

fn value_unit(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// Runs the child and returns its exit code: 0 only when every operation
/// succeeded, every answer was correct and every metric has a value.
pub fn run(args: &ChildArgs) -> ExitCode {
    // Equal seeds must print equal fingerprints: the inputs are a pure
    // function of the seed.
    let stream = stream_hash(args.workload, args.seed, STREAM_HASH_ITEMS).unwrap_or(0);
    // Before any thread exists, so that every thread inherits it.
    let pin = pin_to_one_cpu();
    println!(
        "workload {} seed {} seconds {} trace {} closed-loop, {}, input stream {stream:016x}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pin.cpu().map_or("NOT PINNED".to_string(), |cpu| format!("pinned to cpu {cpu}"))
    );
    let ok = if args.trace { traced(args, pin) } else { untraced(args) };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `detail` line's object: every sample of one run, which is what
/// `benchmark run` pools across rounds.
pub fn detail(args: &ChildArgs, warmup: Counts, counts: Counts, measured: &[Measured]) -> Json {
    let metrics = measured.iter().map(|m| {
        let entry = Json::obj([
            ("unit", Json::str(m.metric.unit)),
            ("value", m.value.map_or(Json::Null, Json::Num)),
            ("samples", Json::nums(&m.samples)),
        ]);
        (m.metric.name.to_string(), entry)
    });
    Json::obj([
        ("workload", Json::str(args.workload)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("warmup", counts_json(warmup)),
        ("measured", counts_json(counts)),
        ("metrics", Json::Obj(metrics.collect())),
    ])
}

fn untraced(args: &ChildArgs) -> bool {
    let outcome =
        workloads::run(args.workload, args.seed, args.seconds, Tracing::Off, args.started);
    print_counts("warm-up", outcome.warmup);
    print_counts("measured", outcome.measured);
    let measured: Vec<Measured> = END_TO_END
        .iter()
        .filter(|m| m.reported_on(args.workload))
        .map(|metric| {
            let samples = samples(metric.name, &outcome, args.seconds);
            Measured { metric, value: pooled(metric.pool, &samples), samples }
        })
        .collect();
    for m in &measured {
        let spread = match quartiles(&m.samples) {
            Some([q1, _, q3]) if m.samples.len() > 1 => {
                format!("  (n {}, q1 {q1:.4}, q3 {q3:.4})", m.samples.len())
            }
            _ => String::new(),
        };
        let (name, unit) = (m.metric.name, m.metric.unit);
        match m.value {
            Some(value) => println!("  {name:<20} {value:>14.4} {unit}{spread}"),
            None => println!("  {name:<20} {:>14} {unit}", "no samples"),
        }
    }
    for note in &outcome.notes {
        println!("  check: {note}");
    }
    let complete = measured.iter().all(|m| m.value.is_some());
    let correct = complete && outcome.warmup.failed == 0 && outcome.measured.failed == 0;
    let detail = detail(args, outcome.warmup, outcome.measured, &measured);
    println!("{DETAIL_PREFIX}{}", detail.compact());
    // The contract's object carries the metrics `BENCHMARK.json` lists.
    let contract = measured
        .iter()
        .filter(|m| m.metric.contract_bound().is_some())
        .map(|m| {
            let value = value_unit(m.value.unwrap_or(f64::NAN), m.metric.unit);
            (m.metric.name.to_string(), value)
        })
        .collect();
    println!("{}", result_line(correct, outcome.measured, contract));
    correct
}

/// The traced pass: the layer ladder, two short probes for the batch and
/// cache shares, and the named workload with span recording on during odd
/// windows. Writes `benchmark/out/trace.json`.
fn traced(args: &ChildArgs, pin: Pin) -> bool {
    let origin = Instant::now();
    let scale = if args.quick { QUICK_LADDER_SCALE } else { 1.0 };
    let (mut values, ladder_recorder) = ladder::run(args.seed, scale, origin, pin);
    let mut counts = Counts::default();
    let mut extras = Vec::new();
    // `server.mean_batch`/`server.dedup_share` come from `serve_hot8` and
    // `server.hit_share`/`loadgen.late_p99_us` from `update_mix`, whichever
    // workload this pass is about.
    let probe_seconds = (args.seconds / 5).clamp(1, 2);
    for probe in [SERVE_HOT8, UPDATE_MIX] {
        if probe != args.workload {
            let outcome =
                workloads::run(probe, args.seed, probe_seconds, Tracing::Off, Instant::now());
            counts.add(outcome.warmup);
            counts.add(outcome.measured);
            extras.extend(outcome.extras);
        }
    }
    let outcome = workloads::run(
        args.workload,
        args.seed,
        args.seconds,
        Tracing::OddWindows,
        Instant::now(),
    );
    counts.add(outcome.warmup);
    counts.add(outcome.measured);
    extras.extend(outcome.extras.iter().copied());
    for name in
        ["server.mean_batch", "server.dedup_share", "server.hit_share", "loadgen.late_p99_us"]
    {
        if let Some((_, value)) = extras.iter().find(|(n, _)| *n == name) {
            values.insert(name, *value);
        }
    }
    // Even windows ran untraced, odd ones traced, under the same host
    // conditions: their median latencies give the recording overhead.
    let windows = samples(LATENCY_P50_US, &outcome, args.seconds);
    let side = |parity: usize| -> Option<f64> {
        let picked: Vec<f64> = windows
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, v)| *v)
            .collect();
        median(&picked)
    };
    let overhead = match (side(0), side(1)) {
        (Some(untraced), Some(traced)) => traced / untraced - 1.0,
        // A pass too short to hold a traced window measured no overhead.
        _ => 0.0,
    };
    values.insert("trace.overhead_share", overhead);

    let mut recorders = vec![ladder_recorder];
    for mut recorder in outcome.recorders {
        recorder.lane += 1;
        recorders.push(recorder);
    }
    let spans: usize = recorders.iter().map(|r| r.spans.len()).sum();
    let path = write_trace(&recorders);

    println!("  layer ladder (median per call; → the end-to-end numbers it should move):");
    for metric in PER_LAYER {
        let value =
            values.get(metric.name).map_or("missing".to_string(), |v| format!("{v:.4}"));
        println!("  {:<28} {value:>14} {:<7} → {}", metric.name, metric.unit, metric.moves);
    }
    println!("  spans by name (count, median µs, median self µs):");
    for (name, (count, duration, own)) in summarize(&recorders) {
        println!("  {name:<28} {count:>8} {duration:>12.3} {own:>12.3}");
    }
    match &path {
        Ok(path) => println!("  {spans} spans written to {}", path.display()),
        Err(e) => println!("  trace file not written: {e}"),
    }
    for note in &outcome.notes {
        println!("  check: {note}");
    }
    let complete = PER_LAYER.iter().all(|m| values.contains_key(m.name));
    let correct = complete && counts.failed == 0 && path.is_ok();
    let metrics: Vec<(String, Json)> = PER_LAYER
        .iter()
        .map(|m| {
            let value = values.get(m.name).copied().unwrap_or(f64::NAN);
            (m.name.to_string(), value_unit(value, m.unit))
        })
        .collect();
    println!("{}", result_line(correct, counts, metrics));
    correct
}

fn write_trace(recorders: &[Recorder]) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("trace.json");
    std::fs::write(&path, chrome_trace(recorders).compact())?;
    Ok(path)
}

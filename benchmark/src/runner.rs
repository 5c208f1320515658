//! `benchmark run`: the whole benchmark from one command. Rounds of the
//! four workloads run one after another (A B C D, A B C D, A B C D), each
//! (workload, round) in a fresh child process re-executed from this one.
//! The windows of all rounds are pooled; the reported value is their
//! median, with their quartiles beside it. Then one traced pass gives the
//! per-layer ladder. The result is printed and written to
//! `benchmark/out/result.json`.
//!
//! Interleaving matters on a small guest: slow host phases last tens of
//! seconds, so a single contiguous run of one workload can sit entirely
//! inside one, while interleaved rounds spread it over all of them.

use crate::catalogue::{
    Bound, EndToEnd, Pool, Workload, END_TO_END, PER_LAYER, RUN_SECONDS, SERVE_SINGLE,
    WORKLOADS,
};
use crate::child::{out_dir, pooled, DETAIL_PREFIX};
use crate::estimator::quartiles;
use crate::json::{parse, Json};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// Rounds of a full run.
pub const ROUNDS: usize = 3;
/// Measured seconds per (workload, round) under `--quick`.
pub const QUICK_SECONDS: u64 = 2;

#[derive(Debug, Clone)]
pub struct RunArgs {
    /// One round of 2 s per workload and a tenth of the ladder's calls:
    /// exercises every workload, the correctness gate and the writer.
    pub quick: bool,
    /// Only this workload (the traced pass then traces it too).
    pub workload: Option<Workload>,
    pub seed: u64,
}

/// What the rounds of one workload add up to.
#[derive(Default)]
struct Pooled {
    samples: BTreeMap<String, Vec<f64>>,
    warmup: [f64; 2],
    measured: [f64; 2],
}

impl Pooled {
    /// Adds one child's `detail` object: its counts, failed ones too, and
    /// every sample.
    fn absorb(&mut self, detail: &Json) {
        for (phase, into) in [("warmup", &mut self.warmup), ("measured", &mut self.measured)] {
            let counts = counts_of(detail, phase);
            into[0] += counts[0];
            into[1] += counts[1];
        }
        for (name, entry) in detail.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            let samples = entry.get("samples").map(Json::f64s).unwrap_or_default();
            self.samples.entry(name.clone()).or_default().extend(samples);
        }
    }
}

/// Runs one child and returns its standard output and whether it exited
/// with 0. A child that saw an operation fail exits non-zero *and* prints
/// its numbers; they are pooled all the same, so the failures are counted.
fn child(args: &[String]) -> Result<(String, bool), String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    Ok((String::from_utf8_lossy(&output.stdout).into_owned(), output.status.success()))
}

fn child_args(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
) -> Vec<String> {
    let flag = |name: &str, value: String| [format!("--{name}"), value];
    let mut args = [
        flag("workload", workload.to_string()),
        flag("seed", seed.to_string()),
        flag("seconds", seconds.to_string()),
        flag("trace", u8::from(trace).to_string()),
    ]
    .concat();
    if quick {
        args.push("--quick".to_string());
    }
    args
}

/// The `detail` object among a child's output lines.
fn detail_of(stdout: &str) -> Option<Json> {
    stdout.lines().find_map(|l| l.strip_prefix(DETAIL_PREFIX)).and_then(|d| parse(d).ok())
}

fn counts_of(detail: &Json, phase: &str) -> [f64; 2] {
    let get = |key| detail.get(phase).and_then(|p| p.get(key)).and_then(Json::as_f64);
    [get("attempted").unwrap_or(0.0), get("failed").unwrap_or(0.0)]
}

/// `rustc --version`, or `git rev-parse HEAD`: provenance for the result
/// file. A checkout that is not a repository records "unknown".
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One metric's entry in the result file. Its `value` is null when no
/// round gave a sample.
fn metric_json(metric: &EndToEnd, workload: &str, pool: &Pooled) -> Json {
    let samples = pool.samples.get(metric.name).map_or(&[][..], Vec::as_slice);
    let value = match metric.pool {
        Pool::FailedShare if pool.measured[0] > 0.0 => {
            Some(pool.measured[1] / pool.measured[0])
        }
        Pool::FailedShare => None,
        other => pooled(other, samples),
    };
    let [q1, _, q3] = quartiles(samples).unwrap_or([f64::NAN; 3]);
    let bound = match metric.bound_for(workload) {
        Bound::Share(share) => Json::Num(share),
        Bound::NoIncrease => Json::str("no-increase"),
        Bound::Exact => Json::str("exact"),
    };
    Json::obj([
        ("unit", Json::str(metric.unit)),
        ("better", Json::str(metric.better.name())),
        ("value", value.map_or(Json::Null, Json::Num)),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        ("n", Json::Num(samples.len() as f64)),
        ("bound", bound),
    ])
}

/// One workload's entry in the result file, printed as it is built, and
/// whether it is clean: no operation failed and every metric has a value.
fn workload_json(workload: &Workload, pool: &Pooled) -> (Json, bool) {
    println!(
        "{} — warm-up attempted {} failed {}; measured attempted {} succeeded {} failed {}",
        workload.name,
        pool.warmup[0],
        pool.warmup[1],
        pool.measured[0],
        pool.measured[0] - pool.measured[1],
        pool.measured[1]
    );
    println!(
        "  {:<20} {:>14} {:<8} {:>12} {:>12} {:>4}  bound",
        "metric", "median", "unit", "q1", "q3", "n"
    );
    let mut clean = pool.warmup[1] == 0.0 && pool.measured[1] == 0.0;
    let mut metrics = Vec::new();
    for metric in END_TO_END.iter().filter(|m| m.reported_on(workload.name)) {
        let entry = metric_json(metric, workload.name, pool);
        let number = |key| entry.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        clean &= number("value").is_finite();
        println!(
            "  {:<20} {:>14.4} {:<8} {:>12.4} {:>12.4} {:>4}  {}",
            metric.name,
            number("value"),
            metric.unit,
            number("q1"),
            number("q3"),
            number("n"),
            entry.get("bound").map(Json::plain).unwrap_or_default()
        );
        metrics.push((metric.name.to_string(), entry));
    }
    println!();
    let counts =
        |c: [f64; 2]| Json::obj([("attempted", Json::Num(c[0])), ("failed", Json::Num(c[1]))]);
    let entry = Json::obj([
        ("why", Json::str(workload.why)),
        ("warmup", counts(pool.warmup)),
        ("measured", counts(pool.measured)),
        ("metrics", Json::Obj(metrics)),
    ]);
    (entry, clean)
}

pub fn run(args: &RunArgs) -> ExitCode {
    let (rounds, seconds) = if args.quick { (1, QUICK_SECONDS) } else { (ROUNDS, RUN_SECONDS) };
    let workloads: Vec<Workload> = match args.workload {
        Some(only) => vec![only],
        None => WORKLOADS.to_vec(),
    };
    println!(
        "benchmark run: {rounds} round(s) × {} workload(s) × {seconds} s, seed {}, \
         closed loops, each child pinned to one of {} CPUs",
        workloads.len(),
        args.seed,
        host_cpus()
    );
    let mut ok = true;
    let mut pools: BTreeMap<&str, Pooled> = BTreeMap::new();
    for round in 1..=rounds {
        for workload in &workloads {
            let (stdout, succeeded) =
                match child(&child_args(workload.name, args.seed, seconds, false, false)) {
                    Ok(ran) => ran,
                    Err(message) => {
                        println!("{message}");
                        ok = false;
                        continue;
                    }
                };
            if !succeeded {
                println!("round {round} {}: child failed:\n{stdout}", workload.name);
                ok = false;
            }
            let Some(detail) = detail_of(&stdout) else {
                println!("round {round} {}: child printed no detail line", workload.name);
                ok = false;
                continue;
            };
            pools.entry(workload.name).or_default().absorb(&detail);
            let mut line = format!("round {round}/{rounds} {:<13}", workload.name);
            for (name, entry) in detail.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                if let Some(value) = entry.get("value").and_then(Json::as_f64) {
                    line.push_str(&format!(" {name}={value:.4}"));
                }
            }
            println!("{line}");
        }
    }

    println!();
    let mut workloads_json = Vec::new();
    for workload in &workloads {
        // A workload none of whose children reported is written all the
        // same, with null values, so that `compare` sees it is missing.
        let none = Pooled::default();
        let (entry, clean) = workload_json(workload, pools.get(workload.name).unwrap_or(&none));
        ok &= clean;
        workloads_json.push((workload.name.to_string(), entry));
    }

    // The traced pass: its own child, span recording never touches the
    // numbers above.
    let traced = args.workload.map_or(SERVE_SINGLE, |w| w.name);
    let mut per_layer = Vec::new();
    match child(&child_args(traced, args.seed, seconds, true, args.quick)) {
        Ok((stdout, succeeded)) => {
            ok &= succeeded;
            println!("traced pass ({traced}):");
            let lines: Vec<&str> = stdout.lines().collect();
            let (last, human) = lines.split_last().unwrap_or((&"", &[]));
            human.iter().skip(1).for_each(|line| println!("{line}"));
            let metrics = parse(last).ok();
            let metrics = metrics.as_ref().and_then(|r| r.get("metrics"));
            for metric in PER_LAYER {
                match metrics.and_then(|m| m.get(metric.name)).cloned() {
                    Some(entry) => per_layer.push((metric.name.to_string(), entry)),
                    None => ok = false,
                }
            }
        }
        Err(message) => {
            println!("{message}");
            ok = false;
        }
    }

    let result = Json::obj([
        ("schema", Json::Num(1.0)),
        ("commit", Json::str(tool_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::str(tool_line("rustc", &["--version"]))),
        ("host_cpus", Json::Num(host_cpus() as f64)),
        ("seed", Json::Num(args.seed as f64)),
        ("rounds", Json::Num(rounds as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("quick", Json::Bool(args.quick)),
        ("estimator", Json::str("median over 1-s windows pooled across interleaved rounds")),
        ("workloads", Json::Obj(workloads_json)),
        ("traced_workload", Json::str(traced)),
        ("per_layer", Json::Obj(per_layer)),
    ]);
    let path = out_dir().join("result.json");
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, result.pretty()));
    match written {
        Ok(()) => println!("result written to {}", path.display()),
        Err(e) => {
            println!("cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        println!("all workloads correct, failed_share 0");
        ExitCode::SUCCESS
    } else {
        println!("FAILED: an operation failed, an answer was wrong, or a metric is missing");
        ExitCode::FAILURE
    }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{FAILED_SHARE, LATENCY_P50_US, WORKLOADS};
    use crate::child::{detail, ChildArgs, Measured};
    use crate::compare::{compare, Verdict};
    use crate::workloads::Counts;
    use std::time::Instant;

    /// The output of a `serve_single` child in which `failed` of 1 000
    /// measured operations failed, written by the child's own writer.
    fn child_stdout(failed: u64) -> String {
        let args = ChildArgs {
            workload: SERVE_SINGLE,
            seed: 11,
            seconds: 2,
            trace: false,
            quick: false,
            started: Instant::now(),
        };
        let share = failed as f64 / 1_000.0;
        let measured: Vec<Measured> = END_TO_END
            .iter()
            .filter(|m| m.reported_on(SERVE_SINGLE))
            .map(|metric| match metric.name {
                FAILED_SHARE => Measured { metric, value: Some(share), samples: vec![share] },
                _ => Measured { metric, value: Some(330.0), samples: vec![329.0, 331.0] },
            })
            .collect();
        let counts = Counts { attempted: 1_000, failed };
        let warmup = Counts { attempted: 500, failed: 0 };
        format!(
            "workload serve_single …\n{DETAIL_PREFIX}{}\n{{\"correct\":{}}}\n",
            detail(&args, warmup, counts, &measured).compact(),
            failed == 0
        )
    }

    /// The result file of three rounds with these failure counts.
    fn result_of(failed: [u64; 3]) -> (Json, bool) {
        let mut pool = Pooled::default();
        for failed in failed {
            pool.absorb(&detail_of(&child_stdout(failed)).expect("a detail line"));
        }
        let (entry, clean) = workload_json(&WORKLOADS[1], &pool);
        (Json::obj([("workloads", Json::obj([(SERVE_SINGLE, entry)]))]), clean)
    }

    #[test]
    fn a_failing_childs_counts_reach_the_result_file() {
        let (clean_doc, clean) = result_of([0, 0, 0]);
        let (failed_doc, failed_clean) = result_of([0, 6, 0]);
        assert!(clean && !failed_clean);
        let share = |doc: &Json| {
            let doc = parse(&doc.pretty()).expect("own output parses");
            let metrics = doc.get("workloads")?.get(SERVE_SINGLE)?.get("metrics")?.clone();
            metrics.get(FAILED_SHARE)?.get("value")?.as_f64()
        };
        assert_eq!(share(&clean_doc), Some(0.0));
        assert_eq!(share(&failed_doc), Some(6.0 / 3_000.0));
        // The failing round's samples are pooled with the others.
        let n = failed_doc.get("workloads").and_then(|w| w.get(SERVE_SINGLE));
        let n = n.and_then(|w| w.get("metrics")?.get(LATENCY_P50_US)?.get("n")?.as_f64());
        assert_eq!(n, Some(6.0));
        // And `compare` sees the rise.
        let rows = compare(&clean_doc, &failed_doc).unwrap();
        let rose = rows.iter().find(|row| row.metric == FAILED_SHARE).unwrap();
        assert_eq!(rose.verdict, Verdict::Worse);
    }

    #[test]
    fn a_workload_with_no_report_is_written_with_null_values() {
        let (entry, clean) = workload_json(&WORKLOADS[0], &Pooled::default());
        assert!(!clean);
        let metrics = entry.get("metrics").and_then(Json::as_obj).unwrap();
        assert!(!metrics.is_empty());
        assert!(metrics.iter().all(|(_, m)| m.get("value") == Some(&Json::Null)));
    }
}

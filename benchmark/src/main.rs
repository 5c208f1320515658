//! The stack benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! benchmark run [--quick] [--workload <name>] [--seed <u64>]
//! benchmark trace [--quick] [--workload <name>] [--seed <u64>]
//! benchmark compare <a.json> <b.json>
//! benchmark manifest
//! benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--quick]
//! ```
//!
//! The last form is one measured process: what `BENCHMARK.json`'s command
//! runs and what `run` re-executes once per (workload, round).

mod affinity;
mod catalogue;
mod child;
mod compare;
mod estimator;
mod gen;
mod json;
mod ladder;
mod runner;
mod span;
mod workloads;

use catalogue::{Workload, RUN_SECONDS, SERVE_SINGLE};
use child::ChildArgs;
use runner::{RunArgs, QUICK_SECONDS};
use std::process::ExitCode;
use std::time::Instant;

/// Seed of a run that does not name one.
const DEFAULT_SEED: u64 = 11;

const USAGE: &str = "usage:
  benchmark run [--quick] [--workload <name>] [--seed <u64>]
  benchmark trace [--quick] [--workload <name>] [--seed <u64>]
  benchmark compare <a.json> <b.json>
  benchmark manifest
  benchmark --workload <name> --seed <u64> --seconds <1..60> --trace <0|1> [--quick]
--quick: 1 round of 2 s per workload and a tenth of the traced pass's calls;
with the last form, which names its own seconds, only the latter (so --trace 1)";

/// Every flag of every form. A form that has no use for a flag refuses it
/// (`only_run_flags`), so nobody gets a run they did not ask for.
#[derive(Debug, Default)]
struct Flags {
    quick: bool,
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
}

impl Flags {
    /// `run` and `trace` choose their own length and tracing.
    fn only_run_flags(&self, command: &str) -> Result<(), String> {
        match (self.seconds, self.trace) {
            (None, None) => Ok(()),
            (Some(_), _) => Err(format!("{command} does not take --seconds (see --quick)")),
            (_, Some(_)) => Err(format!("{command} does not take --trace")),
        }
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            flags.quick = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => flags.workload = Some(catalogue::workload(value)?),
            "--seed" => flags.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let seconds: u64 = value.parse().map_err(|_| bad())?;
                if !(1..=60).contains(&seconds) {
                    return Err(format!("--seconds must be 1..60, got {seconds}"));
                }
                flags.seconds = Some(seconds);
            }
            "--trace" => {
                flags.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(flags)
}

fn dispatch(args: &[String], started: Instant) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        None | Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => {
            let flags = parse_flags(&args[1..])?;
            flags.only_run_flags("run")?;
            Ok(runner::run(&RunArgs {
                quick: flags.quick,
                workload: flags.workload,
                seed: flags.seed.unwrap_or(DEFAULT_SEED),
            }))
        }
        Some("trace") => {
            let flags = parse_flags(&args[1..])?;
            flags.only_run_flags("trace")?;
            Ok(child::run(&ChildArgs {
                workload: flags.workload.map_or(SERVE_SINGLE, |w| w.name),
                seed: flags.seed.unwrap_or(DEFAULT_SEED),
                seconds: if flags.quick { QUICK_SECONDS } else { RUN_SECONDS },
                trace: true,
                quick: flags.quick,
                started,
            }))
        }
        Some("compare") => match &args[1..] {
            [a, b] => Ok(compare::run(a, b)),
            _ => Err("compare takes exactly two result files".to_string()),
        },
        Some("manifest") if args.len() > 1 => Err("manifest takes no arguments".to_string()),
        Some("manifest") => {
            print!("{}", catalogue::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") => {
            let flags = parse_flags(args)?;
            let need = |name: &str| format!("the measured form needs {name}");
            let trace = flags.trace.ok_or_else(|| need("--trace"))?;
            if flags.quick && !trace {
                return Err("--quick shortens only the traced pass here: it needs --trace 1"
                    .to_string());
            }
            Ok(child::run(&ChildArgs {
                workload: flags.workload.ok_or_else(|| need("--workload"))?.name,
                seed: flags.seed.ok_or_else(|| need("--seed"))?,
                seconds: flags.seconds.ok_or_else(|| need("--seconds"))?,
                trace,
                quick: flags.quick,
                started,
            }))
        }
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    // `setup_s` counts from here: as near the start of the process as the
    // benchmark's own clock reaches.
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args, started) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

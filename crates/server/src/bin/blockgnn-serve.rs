//! `blockgnn-serve`: the TCP serving daemon.
//!
//! ```text
//! blockgnn-serve [--dataset NAME] [--model gcn|gs-pool|g-gcn|gat]
//!                [--backend dense|spectral|simulated-accel]
//!                [--hidden N] [--block N] [--seed N]
//!                [--addr HOST:PORT] [--workers N]
//!                [--batch-window-us N] [--max-batch N]
//!                [--queue-depth N] [--deadline-ms N]
//!                [--device-budget BYTES] [--no-tracing]
//!                [--faults SPEC]
//!                [--tenant NAME=DATASET:MODEL:BACKEND]...
//! ```
//!
//! `--faults` arms the deterministic fault injector for chaos runs —
//! a comma-separated `key=value` spec (see `FaultPlan::parse`), e.g.
//! `--faults seed=0xC4A0_5F17,panic=120,max_panics=6,reset=60`.
//!
//! The `--dataset`/`--model`/`--backend` triple becomes the `default`
//! tenant; each repeatable `--tenant` deploys one more alongside it
//! (weight 1, builder defaults — clients can `deploy` richer specs at
//! runtime). Prints `LISTENING <addr>` once the port is bound
//! (machine-readable — the CI smoke job and scripts wait for it), then
//! serves until a client sends `shutdown`, finally printing the
//! telemetry summary.

#![forbid(unsafe_code)]

use blockgnn_engine::BackendKind;
use blockgnn_gnn::ModelKind;
use blockgnn_graph::datasets;
use blockgnn_server::tenant::{parse_backend_kind, parse_model_kind};
use blockgnn_server::{
    FaultPlan, Server, ServerConfig, ServerError, TcpServer, TenantSpec, DEFAULT_TENANT,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    dataset: String,
    model: ModelKind,
    backend: BackendKind,
    hidden: usize,
    block: usize,
    seed: u64,
    addr: String,
    config: ServerConfig,
    tenants: Vec<TenantSpec>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        dataset: "pubmed-small".into(),
        model: ModelKind::Gcn,
        backend: BackendKind::Spectral,
        hidden: 32,
        block: 8,
        seed: 42,
        addr: "127.0.0.1:0".into(),
        config: ServerConfig::default(),
        tenants: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--dataset" => args.dataset = value("--dataset")?,
            "--model" => args.model = parse_model_kind(&value("--model")?)?,
            "--backend" => args.backend = parse_backend_kind(&value("--backend")?)?,
            "--hidden" => args.hidden = parse(&value("--hidden")?)?,
            "--block" => args.block = parse(&value("--block")?)?,
            "--seed" => args.seed = parse(&value("--seed")?)?,
            "--addr" => args.addr = value("--addr")?,
            "--workers" => args.config.workers = parse(&value("--workers")?)?,
            "--batch-window-us" => {
                args.config.batch_window = Duration::from_micros(parse(&value(&flag)?)?);
            }
            "--max-batch" => args.config.max_batch_requests = parse(&value(&flag)?)?,
            "--queue-depth" => args.config.max_queue_depth = parse(&value(&flag)?)?,
            "--deadline-ms" => {
                args.config.default_deadline =
                    Some(Duration::from_millis(parse(&value(&flag)?)?));
            }
            "--device-budget" => {
                args.config.device_budget_bytes = Some(parse(&value(&flag)?)?);
            }
            "--no-tracing" => args.config.tracing = false,
            "--faults" => {
                args.config.faults = Some(
                    FaultPlan::parse(&value(&flag)?)
                        .map_err(|e| format!("bad --faults spec: {e}"))?,
                );
            }
            "--tenant" => args.tenants.push(TenantSpec::parse_compact(&value(&flag)?)?),
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad numeric value {v:?}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if msg != "help" {
                eprintln!("error: {msg}");
            }
            eprintln!(
                "usage: blockgnn-serve [--dataset {}] [--model gcn|gs-pool|g-gcn|gat] \
                 [--backend dense|spectral|simulated-accel] [--hidden N] [--block N] \
                 [--seed N] [--addr HOST:PORT] [--workers N] [--batch-window-us N] \
                 [--max-batch N] [--queue-depth N] [--deadline-ms N] \
                 [--device-budget BYTES] [--no-tracing] [--faults SPEC] \
                 [--tenant NAME=DATASET:MODEL:BACKEND]...",
                datasets::small_names().join("|"),
            );
            return ExitCode::from(2);
        }
    };
    let engine = match TenantSpec::new(DEFAULT_TENANT, &args.dataset, args.model, args.backend)
        .hidden_dim(args.hidden)
        .block_size(args.block)
        .seed(args.seed)
        .build_engine()
    {
        Ok(engine) => engine,
        // An unknown dataset or an out-of-range width is a usage error.
        Err(ServerError::Protocol(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("error: engine failed to build: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "serving {} · {} backend · dataset {} ({} nodes) · {} workers",
        args.model,
        args.backend,
        args.dataset,
        engine.dataset().num_nodes(),
        args.config.workers,
    );
    let server = match Server::start(engine, args.config) {
        Ok(server) => Arc::new(server),
        Err(e) => {
            eprintln!("error: server failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    for spec in &args.tenants {
        match server.deploy(spec) {
            Ok(handle) => {
                let info = handle.info();
                println!(
                    "deployed tenant {} · {} · {} backend · {} nodes · {} resident bytes",
                    info.name, info.model, info.backend, info.num_nodes, info.resident_bytes
                );
            }
            Err(e) => {
                eprintln!("error: deploying tenant {:?} failed: {e}", spec.name);
                return ExitCode::FAILURE;
            }
        }
    }
    let front = match TcpServer::bind(Arc::clone(&server), args.addr.as_str()) {
        Ok(front) => front,
        Err(e) => {
            eprintln!("error: bind {} failed: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    // The contract line scripts wait for (stdout, flushed by println).
    println!("LISTENING {}", front.local_addr());
    let stats = front.run_until_shutdown();
    println!("SHUTDOWN {}", stats.summary());
    ExitCode::SUCCESS
}

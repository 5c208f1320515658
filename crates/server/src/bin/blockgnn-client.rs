//! `blockgnn-client`: drive a `blockgnn-serve` instance.
//!
//! ```text
//! blockgnn-client --addr HOST:PORT [--timeout-ms T] ping
//! blockgnn-client --addr HOST:PORT health
//! blockgnn-client --addr HOST:PORT stats [--tenant NAME]
//! blockgnn-client --addr HOST:PORT shutdown
//! blockgnn-client --addr HOST:PORT infer --nodes 0,1,2
//!                 [--sampled S1,S2,SEED | --full] [--class gold|silver|bronze]
//!                 [--deadline-ms D] [--tenant NAME]
//! blockgnn-client --addr HOST:PORT update [--add U:V,U:V,…] [--del U:V,…]
//!                 [--feat NODE:F,F,… …] [--new F,F,…;F,F,…] [--tenant NAME]
//! blockgnn-client --addr HOST:PORT deploy NAME=DATASET:MODEL:BACKEND
//!                 [--weight N] [--depth N] [--hidden N] [--block N] [--seed N]
//! blockgnn-client --addr HOST:PORT retire NAME
//! blockgnn-client --addr HOST:PORT list
//! blockgnn-client --addr HOST:PORT load --clients N --requests N
//!                 [--class C] [--zipf EXP] [--nodes N] [--tenant NAME[:WEIGHT] …]
//! blockgnn-client --addr HOST:PORT replay [--seed N] [--events N] [--nodes N]
//!                 [--gold-deadline-ms D] [--trace FILE] [--save FILE]
//!                 [--retry N] [--tenant NAME …]
//! blockgnn-client --addr HOST:PORT metrics
//! blockgnn-client --addr HOST:PORT trace [last=N | id=HEX | slow | export [--out FILE]]
//! ```
//!
//! `infer` prints `ok rows=… preds=…` and exits 0 on success, `err …`
//! and exits 1 on any rejection; `update` applies a graph delta
//! (features as decimal floats) and prints the bumped version with the
//! tenant it landed on; `deploy`/`retire`/`list` manage tenants. `load`
//! and `replay` both generate a workload trace and drive it through
//! `workload::replay_tcp`, then print one summary line. `load` is a
//! closed loop: N clients × R zipfian infers (`--zipf 0` is uniform,
//! seed `0xB10C`), all of one class (default silver), optionally fanned
//! across a weighted tenant mix; it fails on any error but a typed shed.
//! `replay` drives the pinned adversarial workload trace — zipfian
//! bursts, malformed floods, slow-loris clients, deadline storms — and
//! fails unless every line earned a typed reply on an open connection
//! and gold p99 stayed under its deadline; `--trace` replays a saved
//! trace file instead, `--save` writes the generated trace out for exact
//! reproduction. `metrics` dumps the Prometheus text exposition;
//! `trace` queries the flight recorder (`last=N` newest-first, the
//! default; `id=HEX` one request; `slow` the retained slow/shed/failed
//! exemplars; `export` Chrome trace-event JSON, to stdout or `--out`).
//! `--tenant` omitted addresses the `default` tenant everywhere.
//! `--timeout-ms` (global) bounds connect/read/write on every command
//! (default: the library's bounded `ClientTimeouts`). `health` prints
//! the pool's liveness line and exits 1 while the pool is degraded —
//! a shell-scriptable readiness probe. `replay --retry N` drives the
//! resilient chaos driver: up to N attempts per event with reconnects
//! and jittered backoff, so injected resets and worker crashes must
//! all converge for the run to pass.

#![forbid(unsafe_code)]

use blockgnn_engine::{GraphDelta, InferRequest};
use blockgnn_server::protocol::{encode_health, parse_pairs, parse_trace_query};
use blockgnn_server::tenant::model_kind_name;
use blockgnn_server::workload::{
    ci_adversarial_spec, replay_tcp, ArrivalKind, Trace, TrafficReport, WorkloadSpec,
};
use blockgnn_server::{
    Client, ClientTimeouts, RetryPolicy, SloClass, SubmitOptions, TenantSpec, TraceQuery,
};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Duration;

/// The global `--timeout-ms` override, set once during argument
/// parsing and read through [`timeouts`].
static TIMEOUTS: OnceLock<ClientTimeouts> = OnceLock::new();

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut addr: Option<SocketAddr> = None;
    let mut command: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = argv.into_iter();
    while let Some(word) = it.next() {
        if word == "--addr" {
            let v = it.next().ok_or("--addr needs HOST:PORT")?;
            addr = Some(v.parse().map_err(|_| format!("bad address {v:?}"))?);
        } else if word == "--timeout-ms" {
            let v = it.next().ok_or("--timeout-ms needs a value")?;
            let ms: u64 = v.parse().map_err(|_| format!("bad timeout {v:?}"))?;
            let _ = TIMEOUTS.set(ClientTimeouts::all(Duration::from_millis(ms)));
        } else if command.is_none() {
            command = Some(word);
        } else {
            rest.push(word);
        }
    }
    let addr = addr.ok_or(usage())?;
    let command = command.ok_or(usage())?;
    match command.as_str() {
        "ping" => {
            connect(addr)?.ping().map_err(|e| format!("err {e}"))?;
            println!("pong");
            Ok(())
        }
        "health" => health(addr, &rest),
        "stats" => stats(addr, &rest),
        "shutdown" => {
            connect(addr)?.shutdown().map_err(|e| format!("err {e}"))?;
            println!("ok bye");
            Ok(())
        }
        "infer" => infer(addr, &rest),
        "update" => update(addr, &rest),
        "deploy" => deploy(addr, &rest),
        "retire" => retire(addr, &rest),
        "list" => list(addr),
        "load" => load(addr, &rest),
        "replay" => replay(addr, &rest),
        "metrics" => metrics(addr, &rest),
        "trace" => trace(addr, &rest),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

/// The `--timeout-ms` override, else the library's bounded default.
fn timeouts() -> ClientTimeouts {
    TIMEOUTS.get().copied().unwrap_or_default()
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect_with(addr, timeouts()).map_err(|e| format!("err connect {addr}: {e}"))
}

fn health(addr: SocketAddr, rest: &[String]) -> Result<(), String> {
    if !rest.is_empty() {
        return Err(format!("health takes no arguments, got {rest:?}"));
    }
    let report = connect(addr)?.health().map_err(|e| format!("err {e}"))?;
    println!("{}", encode_health(&report));
    if report.degraded {
        return Err("pool is degraded (circuit breaker open)".into());
    }
    Ok(())
}

fn usage() -> String {
    "usage: blockgnn-client --addr HOST:PORT [--timeout-ms T] \
     (ping | health | stats [--tenant NAME] | shutdown \
     | infer --nodes 0,1,2 [--sampled S1,S2,SEED | --full] [--class gold|silver|bronze] \
       [--deadline-ms D] [--tenant NAME] \
     | update [--add U:V,...] [--del U:V,...] [--feat NODE:F,F,...] [--new F,...;F,...] \
       [--tenant NAME] \
     | deploy NAME=DATASET:MODEL:BACKEND [--weight N] [--depth N] [--hidden N] [--block N] \
       [--seed N] \
     | retire NAME | list \
     | load --clients N --requests N [--class C] [--zipf EXP] [--nodes N] \
       [--tenant NAME[:WEIGHT] ...] \
     | replay [--seed N] [--events N] [--nodes N] [--gold-deadline-ms D] [--trace FILE] \
       [--save FILE] [--retry N] [--tenant NAME ...] \
     | metrics \
     | trace [last=N | id=HEX | slow | export [--out FILE]])"
        .into()
}

fn stats(addr: SocketAddr, rest: &[String]) -> Result<(), String> {
    let mut tenant: Option<String> = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--tenant" => tenant = Some(it.next().ok_or("--tenant needs a name")?.clone()),
            other => return Err(format!("unknown stats flag {other:?}")),
        }
    }
    let line =
        connect(addr)?.stats_tenant(tenant.as_deref()).map_err(|e| format!("err {e}"))?;
    println!("{line}");
    Ok(())
}

fn update(addr: SocketAddr, rest: &[String]) -> Result<(), String> {
    let mut delta = GraphDelta::new();
    let mut tenant: Option<String> = None;
    let parse_row = |v: &str| -> Result<Vec<f64>, String> {
        v.split(',')
            .filter(|w| !w.is_empty())
            .map(|w| w.parse().map_err(|_| format!("bad feature value {w:?}")))
            .collect()
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--add" => delta.add_edges.extend(parse_pairs(v)?),
            "--del" => delta.remove_edges.extend(parse_pairs(v)?),
            "--feat" => {
                let (node, row) =
                    v.split_once(':').ok_or_else(|| format!("expected NODE:row, got {v:?}"))?;
                delta.set_features.push((
                    node.parse().map_err(|_| format!("bad node id {node:?}"))?,
                    parse_row(row)?,
                ));
            }
            "--new" => {
                for row in v.split(';').filter(|r| !r.is_empty()) {
                    delta.append_nodes.push(parse_row(row)?);
                }
            }
            "--tenant" => tenant = Some(v.clone()),
            other => return Err(format!("unknown update flag {other:?}")),
        }
    }
    match connect(addr)?.update_tenant(&delta, tenant.as_deref()) {
        Ok(ack) => {
            println!(
                "ok tenant={} version={} nodes={} arcs={}",
                ack.tenant, ack.version, ack.num_nodes, ack.num_arcs
            );
            Ok(())
        }
        Err(e) => Err(format!("err {e}")),
    }
}

fn deploy(addr: SocketAddr, rest: &[String]) -> Result<(), String> {
    let mut words = rest.iter();
    let compact = words.next().ok_or("deploy needs NAME=DATASET:MODEL:BACKEND")?;
    let mut spec = TenantSpec::parse_compact(compact)?;
    while let Some(flag) = words.next() {
        let v = words.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--weight" => spec = spec.weight(parse(v)?),
            "--depth" => spec = spec.max_queue_depth(parse(v)?),
            "--hidden" => spec = spec.hidden_dim(parse(v)?),
            "--block" => spec = spec.block_size(parse(v)?),
            "--seed" => spec = spec.seed(parse(v)?),
            other => return Err(format!("unknown deploy flag {other:?}")),
        }
    }
    match connect(addr)?.deploy(&spec) {
        Ok(info) => {
            println!(
                "ok tenant={} model={} backend={} nodes={} weight={} resident={}",
                info.name,
                model_kind_name(info.model),
                info.backend.name(),
                info.num_nodes,
                info.weight,
                info.resident_bytes
            );
            Ok(())
        }
        Err(e) => Err(format!("err {e}")),
    }
}

fn retire(addr: SocketAddr, rest: &[String]) -> Result<(), String> {
    let [name] = rest else {
        return Err("retire needs exactly one tenant name".into());
    };
    match connect(addr)?.retire(name) {
        Ok(line) => {
            println!("{line}");
            Ok(())
        }
        Err(e) => Err(format!("err {e}")),
    }
}

fn list(addr: SocketAddr) -> Result<(), String> {
    let infos = connect(addr)?.list().map_err(|e| format!("err {e}"))?;
    println!("tenants={}", infos.len());
    for info in infos {
        println!(
            "tenant={} model={} backend={} version={} nodes={} weight={} depth={} resident={}",
            info.name,
            model_kind_name(info.model),
            info.backend.name(),
            info.graph_version,
            info.num_nodes,
            info.weight,
            info.queue_depth,
            info.resident_bytes
        );
    }
    Ok(())
}

fn infer(addr: SocketAddr, rest: &[String]) -> Result<(), String> {
    let mut nodes: Vec<usize> = Vec::new();
    let mut sampled: Option<(usize, usize, u64)> = None;
    let mut options = SubmitOptions::default();
    let mut tenant: Option<String> = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--nodes" => {
                let v = it.next().ok_or("--nodes needs a list")?;
                nodes = v
                    .split(',')
                    .map(|w| w.parse().map_err(|_| format!("bad node id {w:?}")))
                    .collect::<Result<_, _>>()?;
            }
            "--sampled" => {
                let v = it.next().ok_or("--sampled needs S1,S2,SEED")?;
                let parts: Vec<&str> = v.split(',').collect();
                if parts.len() != 3 {
                    return Err(format!("--sampled needs S1,S2,SEED, got {v:?}"));
                }
                sampled = Some((
                    parts[0].parse().map_err(|_| "bad S1")?,
                    parts[1].parse().map_err(|_| "bad S2")?,
                    parts[2].parse().map_err(|_| "bad SEED")?,
                ));
            }
            "--full" => sampled = None,
            "--class" => {
                options.class = SloClass::parse(it.next().ok_or("--class needs a value")?)?;
            }
            "--deadline-ms" => {
                let ms: u64 = it
                    .next()
                    .ok_or("--deadline-ms needs a value")?
                    .parse()
                    .map_err(|_| "bad deadline".to_string())?;
                options.deadline = Some(Duration::from_millis(ms));
            }
            "--tenant" => tenant = Some(it.next().ok_or("--tenant needs a name")?.clone()),
            other => return Err(format!("unknown infer flag {other:?}")),
        }
    }
    let request = match sampled {
        Some((s1, s2, seed)) => InferRequest::sampled(nodes, s1, s2, seed),
        None => InferRequest::full_graph(nodes),
    };
    match connect(addr)?.infer_tenant(&request, options, tenant.as_deref()) {
        Ok(r) => {
            println!(
                "ok rows={} tenant={} version={} queue_us={} compute_us={} batch={} preds={}",
                r.logits.rows(),
                r.tenant,
                r.graph_version,
                r.queue_time.as_micros(),
                r.compute_time.as_micros(),
                r.batch_size,
                r.predictions.iter().map(usize::to_string).collect::<Vec<_>>().join(","),
            );
            Ok(())
        }
        Err(e) => Err(format!("err {e}")),
    }
}

fn parse<T: std::str::FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad numeric value {v:?}"))
}

fn metrics(addr: SocketAddr, rest: &[String]) -> Result<(), String> {
    if !rest.is_empty() {
        return Err(format!("metrics takes no arguments, got {rest:?}"));
    }
    let text = connect(addr)?.metrics().map_err(|e| format!("err {e}"))?;
    println!("{text}");
    Ok(())
}

fn trace(addr: SocketAddr, rest: &[String]) -> Result<(), String> {
    // The query word is the wire's own (`last=N`, `id=HEX`, `slow`,
    // `export`), parsed by the protocol, so a CLI invocation reads like
    // its protocol line; only `export` takes a flag (`--out FILE`).
    let query = parse_trace_query(rest.first().map(String::as_str))?;
    if rest.len() > 1 && query != TraceQuery::Export {
        return Err(format!("trace takes one query word, got {rest:?}"));
    }
    let mut client = connect(addr)?;
    match query {
        TraceQuery::Last(n) => {
            print_lines(&client.trace_last(n).map_err(|e| format!("err {e}"))?)
        }
        TraceQuery::Id(id) => match client.trace_id(id).map_err(|e| format!("err {e}"))? {
            Some(line) => println!("{line}"),
            None => return Err(format!("trace {id:016x} not held by the recorder")),
        },
        TraceQuery::Slow => print_lines(&client.trace_slow().map_err(|e| format!("err {e}"))?),
        TraceQuery::Export => {
            let mut out: Option<String> = None;
            let mut it = rest[1..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--out" => out = Some(it.next().ok_or("--out needs a path")?.clone()),
                    other => return Err(format!("unknown trace export flag {other:?}")),
                }
            }
            let json = client.trace_export().map_err(|e| format!("err {e}"))?;
            match out {
                Some(path) => {
                    std::fs::write(&path, json.as_bytes())
                        .map_err(|e| format!("write {path:?}: {e}"))?;
                    println!("ok wrote {path} bytes={}", json.len());
                }
                None => println!("{json}"),
            }
        }
    }
    Ok(())
}

fn print_lines(lines: &[String]) {
    println!("traces={}", lines.len());
    for line in lines {
        println!("{line}");
    }
}

fn load(addr: SocketAddr, rest: &[String]) -> Result<(), String> {
    // Events lie microseconds apart, so each is overdue before the reply
    // to the last one lands: every client runs a closed loop.
    let mut spec =
        WorkloadSpec::new(0xB10C, 0, 64).with_arrival(ArrivalKind::Uniform, 1).with_clients(8);
    let mut requests = 32usize;
    let mut class = SloClass::Silver;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--tenant" => {
                // NAME[:WEIGHT], repeatable: the name is listed WEIGHT
                // times, and the spec's uniform pick draws in proportion.
                let (name, weight) = match v.split_once(':') {
                    Some((name, weight)) => (name, parse::<usize>(weight)?),
                    None => (v.as_str(), 1),
                };
                spec.tenants.extend(std::iter::repeat_n(name.to_string(), weight.max(1)));
            }
            "--class" => class = SloClass::parse(v)?,
            "--zipf" => spec = spec.with_zipf(parse(v)?),
            "--clients" => spec = spec.with_clients(parse(v)?),
            "--requests" => requests = parse(v)?,
            "--nodes" => spec.num_nodes = parse(v)?,
            other => return Err(format!("unknown load flag {other:?}")),
        }
    }
    spec.events = spec.clients as usize * requests;
    let trace = spec.with_class_mix(SloClass::ALL.map(|c| u32::from(c == class))).generate();
    let once = RetryPolicy { attempts: 1, ..RetryPolicy::default() };
    let report = replay_tcp(addr, &trace, &once, timeouts());
    summarize("load", &trace, &report);
    let failed = report.typed_errors + report.transport_errors;
    if failed > 0 {
        return Err(format!("{failed} load requests failed"));
    }
    Ok(())
}

/// The one summary line both traffic verbs print.
fn summarize(verb: &str, trace: &Trace, report: &TrafficReport) {
    println!(
        "{verb} seed={} events={} sent={} ok={} shed={} typed_errors={} transport_errors={} \
         updates_ok={} retries={} qps={:.1} gold_p99_us={} silver_p99_us={} bronze_p99_us={}",
        trace.seed,
        trace.events.len(),
        report.sent,
        report.ok,
        report.shed,
        report.typed_errors,
        report.transport_errors,
        report.updates_ok,
        report.retries,
        report.qps(),
        report.class_p99(SloClass::Gold).as_micros(),
        report.class_p99(SloClass::Silver).as_micros(),
        report.class_p99(SloClass::Bronze).as_micros(),
    );
}

fn replay(addr: SocketAddr, rest: &[String]) -> Result<(), String> {
    let mut seed: Option<u64> = None;
    let mut events: Option<usize> = None;
    let mut nodes = 60usize;
    let mut gold_deadline_ms = 200u64;
    let mut trace_file: Option<String> = None;
    let mut save_file: Option<String> = None;
    let mut tenants: Vec<String> = Vec::new();
    let mut retry: Option<u32> = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => seed = Some(parse(v)?),
            "--events" => events = Some(parse(v)?),
            "--nodes" => nodes = parse(v)?,
            "--gold-deadline-ms" => gold_deadline_ms = parse(v)?,
            "--trace" => trace_file = Some(v.clone()),
            "--save" => save_file = Some(v.clone()),
            "--retry" => retry = Some(parse(v)?),
            "--tenant" => tenants.push(v.clone()),
            other => return Err(format!("unknown replay flag {other:?}")),
        }
    }
    let trace = match trace_file {
        Some(path) => {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("read {path:?}: {e}"))?;
            Trace::decode(&text)?
        }
        None => {
            let mut spec = ci_adversarial_spec(nodes).with_tenants(tenants);
            if let Some(seed) = seed {
                spec.seed = seed;
            }
            if let Some(events) = events {
                spec.events = events;
            }
            spec.generate()
        }
    };
    if let Some(path) = save_file {
        std::fs::write(&path, trace.encode()).map_err(|e| format!("write {path:?}: {e}"))?;
    }
    // With `--retry` this is the chaos driver: injected resets and
    // crashed workers must all converge within the budget to pass.
    let policy = RetryPolicy { attempts: retry.unwrap_or(1), ..RetryPolicy::default() };
    let report = replay_tcp(addr, &trace, &policy, timeouts());
    summarize("replay", &trace, &report);
    let gold_p99 = report.class_p99(SloClass::Gold);
    if report.transport_errors > 0 {
        return Err(format!(
            "{} transport errors: the server dropped connections under adversarial load",
            report.transport_errors
        ));
    }
    let gold_deadline = Duration::from_millis(gold_deadline_ms);
    if gold_p99 > gold_deadline {
        return Err(format!(
            "gold p99 {}us exceeds its {}ms deadline",
            gold_p99.as_micros(),
            gold_deadline_ms
        ));
    }
    Ok(())
}

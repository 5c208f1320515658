//! The line-oriented wire protocol of the TCP front end.
//!
//! One request line in, one response line out, UTF-8, LF-terminated.
//! Logits cross the wire as hexadecimal `f64::to_bits` words, so remote
//! responses are **bit-identical** to in-process ones — the property the
//! end-to-end parity tests assert through the socket. The two
//! observability verbs (`metrics`, `trace`) are the only multi-line
//! replies: their `ok … lines=N` header says exactly how many body
//! lines follow, so clients always know when a reply ends.
//!
//! [`Command`] is the verb table. [`parse_command`] reads a request line
//! into one and its `Display` writes it back as the line that parses to
//! it; the client, the workload traces and the fuzz corpus make their
//! request lines through it. Replies are `key=value` words read by one
//! field reader, which refuses a missing, repeated, malformed or unknown
//! field.
//!
//! # Grammar
//!
//! ```text
//! command   = infer | update | "ping" | stats | deploy | retire
//!           | "list" | "metrics" | trace | "health" | "shutdown"
//! infer     = "infer" ["@" tenant] SP target [SP option]*
//! target    = "full" SP ("all" | nodes)
//!           | "sampled" SP "s1=" int SP "s2=" int SP "seed=" int SP "nodes=" nodes
//! nodes     = int ("," int)*
//! option    = "class=" ("gold" | "silver" | "bronze") | "deadline_ms=" int
//!
//! update    = "update" ["@" tenant] [SP "add=" pairs] [SP "del=" pairs]
//!             [SP "feat=" featrows] [SP "new=" rows]
//! pairs     = pair ("," pair)*        pair    = int ":" int
//! featrows  = featrow (";" featrow)*  featrow = int ":" hex64 ("," hex64)*
//! rows      = row (";" row)*          row     = hex64 ("," hex64)*
//!
//! stats     = "stats" ["@" tenant]
//! deploy    = "deploy" SP tenant "=" dataset ":" model ":" backend
//!             [SP "weight=" int] [SP "depth=" int] [SP "hidden=" int]
//!             [SP "block=" int] [SP "seed=" int]
//! retire    = "retire" SP tenant
//! tenant    = 1*(ALPHA / DIGIT / "-" / "_" / ".")
//! trace     = "trace" [SP ("last=" int | "id=" hex64 | "slow" | "export")]
//!
//! reply     = "ok" SP infer-reply | "pong" | "ok stats " summary
//!           | "ok update tenant=" tenant SP "version=" int
//!             SP "nodes=" int SP "arcs=" int
//!           | "ok deploy tenant=" tenant SP "model=" model
//!             SP "backend=" backend SP "version=" int SP "nodes=" int
//!             SP "weight=" int SP "resident=" int
//!           | "ok retire tenant=" tenant SP "requests=" int
//!             SP "completed=" int SP "shed=" int
//!           | "ok list tenants=" int (SP info)*
//!           | "ok metrics lines=" int LF *(exposition-line LF)
//!           | "ok trace lines=" int LF *(trace-line LF)
//!           | "ok health workers=" int SP "alive=" int SP "crashes=" int
//!             SP "restarts=" int SP "degraded=" ("true"|"false")
//!           | "ok bye" | "err" SP kind SP message
//! info      = tenant ":" model ":" backend ":" version ":" nodes
//!             ":" weight ":" depth ":" resident
//! infer-reply = "rows=" int SP "cols=" int SP "queue_us=" int
//!               SP "compute_us=" int SP "from_cache=" ("0"|"1")
//!               SP "parts=" int SP "batch=" int SP "version=" int
//!               SP "tenant=" tenant SP "cycles=" int
//!               SP "energy=" ("none" | hex64)
//!               SP "trace=" hex64
//!               SP "preds=" int ("," int)*
//!               SP "logits=" row (";" row)*     row = hex64 ("," hex64)*
//! kind      = "overloaded" | "deadline" | "shutting_down" | "canceled"
//!           | "worker_crashed" | "timeout" | "engine" | "protocol" | "io"
//!           | "unknown_tenant" | "tenant_exists" | "tenant_budget"
//! ```
//!
//! An absent `@tenant` qualifier addresses the `default` tenant
//! ([`crate::DEFAULT_TENANT`]), so single-tenant clients never spell
//! tenancy at all. Feature values in `update` cross the wire as
//! hexadecimal `f64::to_bits` words (like logits), so the applied delta
//! is bit-identical to an in-process [`blockgnn_engine::GraphDelta`].

use crate::error::ServerError;
use crate::observe::TraceQuery;
use crate::queue::{SloClass, SubmitOptions};
use crate::telemetry::ServerStats;
use crate::tenant::{
    model_kind_name, parse_backend_kind, parse_model_kind, validate_tenant_name, TenantInfo,
    TenantSpec,
};
use blockgnn_engine::{GraphDelta, InferRequest, InferResponse};
use blockgnn_linalg::Matrix;
use std::fmt::{self, Write as _};
use std::str::FromStr;
use std::time::Duration;

/// A parsed client command. The `Option<String>` on `Infer`/`Update`/
/// `Stats` is the `@tenant` qualifier; `None` addresses the `default`
/// tenant.
///
/// `Display` is the one request encoder: it writes the line that
/// [`parse_command`] reads back to this command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run inference on the addressed tenant.
    Infer(InferRequest, SubmitOptions, Option<String>),
    /// Apply a graph delta to the addressed tenant.
    Update(GraphDelta, Option<String>),
    /// Liveness probe.
    Ping,
    /// One-line telemetry summary — aggregate (`None`) or one tenant's.
    Stats(Option<String>),
    /// Deploy a new tenant from a spec.
    Deploy(TenantSpec),
    /// Retire a deployed tenant by name.
    Retire(String),
    /// Describe every deployed tenant.
    List,
    /// Render the Prometheus-style metrics exposition.
    Metrics,
    /// Query the flight recorder (recent / by-id / slow exemplars /
    /// Chrome trace-event export).
    Trace(TraceQuery),
    /// One-line worker-pool health: alive count, crash/restart totals,
    /// and whether the supervision circuit breaker marks the pool
    /// degraded.
    Health,
    /// Stop the server cleanly.
    Shutdown,
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Command::Infer(request, options, tenant) => {
                f.write_str(&encode_infer(request, *options, tenant.as_deref()))
            }
            Command::Update(delta, tenant) => {
                f.write_str(&encode_update(delta, tenant.as_deref()))
            }
            Command::Deploy(spec) => f.write_str(&encode_deploy(spec)),
            Command::Stats(tenant) => f.write_str(&qualified("stats", tenant.as_deref())),
            Command::Retire(tenant) => write!(f, "retire {tenant}"),
            Command::Trace(TraceQuery::Last(n)) => write!(f, "trace last={n}"),
            Command::Trace(TraceQuery::Id(id)) => write!(f, "trace id={id:016x}"),
            Command::Trace(TraceQuery::Slow) => f.write_str("trace slow"),
            Command::Trace(TraceQuery::Export) => f.write_str("trace export"),
            Command::Ping => f.write_str("ping"),
            Command::List => f.write_str("list"),
            Command::Metrics => f.write_str("metrics"),
            Command::Health => f.write_str("health"),
            Command::Shutdown => f.write_str("shutdown"),
        }
    }
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable description of the first syntax problem.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let mut words = line.split_whitespace();
    let Some(first) = words.next() else {
        return Err("empty command".into());
    };
    let (verb, tenant) = match first.split_once('@') {
        Some((verb, name)) => {
            if !matches!(verb, "infer" | "update" | "stats") {
                return Err(format!(
                    "@tenant qualifier is not allowed on {verb:?} (infer | update | stats)"
                ));
            }
            validate_tenant_name(name)?;
            (verb, Some(name.to_string()))
        }
        None => (first, None),
    };
    // The three verbs with open-ended clauses consume the whole line
    // themselves; every other verb takes a fixed prefix of it and shares
    // one end-of-line check.
    let command = match verb {
        "infer" => return parse_infer(&mut words, tenant),
        "update" => return parse_update(&mut words, tenant),
        "deploy" => return parse_deploy(&mut words),
        "ping" => Command::Ping,
        "stats" => Command::Stats(tenant),
        "shutdown" => Command::Shutdown,
        "list" => Command::List,
        "metrics" => Command::Metrics,
        "health" => Command::Health,
        "trace" => Command::Trace(parse_trace_query(words.next())?),
        "retire" => {
            let name = words.next().ok_or("retire needs a tenant name")?;
            validate_tenant_name(name)?;
            Command::Retire(name.to_string())
        }
        other => return Err(format!("unknown command {other:?}")),
    };
    end_of_command(&mut words, verb)?;
    Ok(command)
}

/// Refuses whatever follows a complete command: a verb that ignored its
/// tail would obey `shutdown not-yet`.
fn end_of_command<'a>(
    words: &mut impl Iterator<Item = &'a str>,
    verb: &str,
) -> Result<(), String> {
    match words.next() {
        Some(extra) => Err(format!("unexpected word {extra:?} after {verb}")),
        None => Ok(()),
    }
}

/// Default record count for a bare `trace` command.
const TRACE_DEFAULT_LAST: usize = 16;

/// Parses the `trace` verb's query word: `last=N`, `id=HEX`, `slow` or
/// `export`; none asks for the most recent 16 records.
///
/// # Errors
///
/// A human-readable message for any other word.
pub fn parse_trace_query(word: Option<&str>) -> Result<TraceQuery, String> {
    Ok(match word {
        None => TraceQuery::Last(TRACE_DEFAULT_LAST),
        Some("slow") => TraceQuery::Slow,
        Some("export") => TraceQuery::Export,
        Some(word) => {
            if let Some(n) = word.strip_prefix("last=") {
                let n: usize =
                    n.parse().map_err(|_| format!("bad count in {word:?} (last=N)"))?;
                TraceQuery::Last(n)
            } else if let Some(id) = word.strip_prefix("id=") {
                let id = u64::from_str_radix(id, 16)
                    .map_err(|_| format!("bad trace id in {word:?} (id=HEX)"))?;
                TraceQuery::Id(id)
            } else {
                return Err(format!(
                    "unknown trace query {word:?} (last=N | id=HEX | slow | export)"
                ));
            }
        }
    })
}

fn parse_infer<'a>(
    words: &mut impl Iterator<Item = &'a str>,
    tenant: Option<String>,
) -> Result<Command, String> {
    let target = words.next().ok_or("infer needs a target (full | sampled)")?;
    let (request, rest): (InferRequest, Vec<&str>) = match target {
        "full" => {
            let nodes_word = words.next().ok_or("infer full needs node ids or `all`")?;
            let nodes = if nodes_word == "all" { Vec::new() } else { parse_nodes(nodes_word)? };
            (InferRequest::full_graph(nodes), words.collect())
        }
        "sampled" => {
            let s1 = parse_kv(words.next(), "s1")?;
            let s2 = parse_kv(words.next(), "s2")?;
            let seed: u64 = parse_kv(words.next(), "seed")?;
            let nodes_word = words.next().ok_or("sampled infer needs nodes=…")?;
            let nodes_val = nodes_word
                .strip_prefix("nodes=")
                .ok_or_else(|| format!("expected nodes=…, got {nodes_word:?}"))?;
            (InferRequest::sampled(parse_nodes(nodes_val)?, s1, s2, seed), words.collect())
        }
        other => return Err(format!("unknown infer target {other:?}")),
    };
    let mut options = SubmitOptions::default();
    for word in rest {
        if let Some(v) = word.strip_prefix("class=") {
            options.class = SloClass::parse(v)?;
        } else if let Some(v) = word.strip_prefix("deadline_ms=") {
            let ms: u64 = v.parse().map_err(|_| format!("bad deadline_ms {v:?}"))?;
            options.deadline = Some(Duration::from_millis(ms));
        } else {
            return Err(format!("unknown option {word:?}"));
        }
    }
    Ok(Command::Infer(request, options, tenant))
}

fn parse_update<'a>(
    words: &mut impl Iterator<Item = &'a str>,
    tenant: Option<String>,
) -> Result<Command, String> {
    let mut delta = GraphDelta::new();
    for word in words {
        if let Some(v) = word.strip_prefix("add=") {
            delta.add_edges.extend(parse_pairs(v)?);
        } else if let Some(v) = word.strip_prefix("del=") {
            delta.remove_edges.extend(parse_pairs(v)?);
        } else if let Some(v) = word.strip_prefix("feat=") {
            let rows: Vec<(usize, Vec<f64>)> = v
                .split(';')
                .filter(|r| !r.is_empty())
                .map(|r| {
                    let (node, row) = r
                        .split_once(':')
                        .ok_or_else(|| format!("expected NODE:row, got {r:?}"))?;
                    Ok((
                        node.parse::<usize>().map_err(|_| format!("bad node id {node:?}"))?,
                        parse_f64_row(row)?,
                    ))
                })
                .collect::<Result<_, String>>()?;
            delta.set_features.extend(rows);
        } else if let Some(v) = word.strip_prefix("new=") {
            let rows: Vec<Vec<f64>> = v
                .split(';')
                .filter(|r| !r.is_empty())
                .map(parse_f64_row)
                .collect::<Result<_, String>>()?;
            delta.append_nodes.extend(rows);
        } else {
            return Err(format!("unknown update clause {word:?}"));
        }
    }
    // An empty delta is syntactically valid; the engine rejects it with
    // a typed `EmptyDelta`, so the client sees a semantic error rather
    // than a protocol one (same split as empty node lists on `infer`).
    Ok(Command::Update(delta, tenant))
}

fn parse_deploy<'a>(words: &mut impl Iterator<Item = &'a str>) -> Result<Command, String> {
    let compact = words.next().ok_or("deploy needs name=dataset:model:backend")?;
    let mut spec = TenantSpec::parse_compact(compact)?;
    for word in words {
        if let Some(v) = word.strip_prefix("weight=") {
            spec = spec.weight(v.parse().map_err(|_| format!("bad weight {v:?}"))?);
        } else if let Some(v) = word.strip_prefix("depth=") {
            spec = spec.max_queue_depth(v.parse().map_err(|_| format!("bad depth {v:?}"))?);
        } else if let Some(v) = word.strip_prefix("hidden=") {
            spec = spec.hidden_dim(v.parse().map_err(|_| format!("bad hidden {v:?}"))?);
        } else if let Some(v) = word.strip_prefix("block=") {
            spec = spec.block_size(v.parse().map_err(|_| format!("bad block {v:?}"))?);
        } else if let Some(v) = word.strip_prefix("seed=") {
            spec = spec.seed(v.parse().map_err(|_| format!("bad seed {v:?}"))?);
        } else {
            return Err(format!("unknown deploy option {word:?}"));
        }
    }
    Ok(Command::Deploy(spec))
}

/// Parses an `add=`/`del=` edge list: `U:V` pairs, comma-separated (the
/// client binary's `--add`/`--del` flags take the same spelling).
///
/// # Errors
///
/// A human-readable message naming the first malformed pair.
pub fn parse_pairs(csv: &str) -> Result<Vec<(usize, usize)>, String> {
    csv.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| {
            let (u, v) =
                p.split_once(':').ok_or_else(|| format!("expected U:V pair, got {p:?}"))?;
            Ok((
                u.parse().map_err(|_| format!("bad node id {u:?}"))?,
                v.parse().map_err(|_| format!("bad node id {v:?}"))?,
            ))
        })
        .collect()
}

/// Parses one feature row of an `update`. Only finite values enter the
/// graph: a NaN or ±Inf feature would poison every logit downstream of
/// its node, and both caches with them, until the next delta.
fn parse_f64_row(csv: &str) -> Result<Vec<f64>, String> {
    csv.split(',')
        .filter(|w| !w.is_empty())
        .map(|w| {
            let value = u64::from_str_radix(w, 16)
                .map(f64::from_bits)
                .map_err(|_| format!("bad hex feature word {w:?}"))?;
            if value.is_finite() {
                Ok(value)
            } else {
                Err(format!("non-finite feature word {w:?} ({value})"))
            }
        })
        .collect()
}

/// A verb with its optional `@tenant` qualifier.
fn qualified(verb: &str, tenant: Option<&str>) -> String {
    match tenant {
        Some(name) => format!("{verb}@{name}"),
        None => verb.to_string(),
    }
}

/// Renders a [`GraphDelta`] as an `update` request line (no newline),
/// addressed to `tenant` (`None` = the default tenant). Feature values
/// cross as `f64` bit patterns, so the server applies exactly the delta
/// the client built.
#[must_use]
pub fn encode_update(delta: &GraphDelta, tenant: Option<&str>) -> String {
    let mut line = qualified("update", tenant);
    let push_pairs = |line: &mut String, key: &str, pairs: &[(usize, usize)]| {
        if pairs.is_empty() {
            return;
        }
        let _ = write!(line, " {key}=");
        for (i, (u, v)) in pairs.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let _ = write!(line, "{u}:{v}");
        }
    };
    push_pairs(&mut line, "add", &delta.add_edges);
    push_pairs(&mut line, "del", &delta.remove_edges);
    if !delta.set_features.is_empty() {
        line.push_str(" feat=");
        for (i, (node, row)) in delta.set_features.iter().enumerate() {
            if i > 0 {
                line.push(';');
            }
            let _ = write!(line, "{node}:");
            push_hex_row(&mut line, row);
        }
    }
    if !delta.append_nodes.is_empty() {
        line.push_str(" new=");
        for (i, row) in delta.append_nodes.iter().enumerate() {
            if i > 0 {
                line.push(';');
            }
            push_hex_row(&mut line, row);
        }
    }
    line
}

fn push_hex_row(line: &mut String, row: &[f64]) {
    for (j, v) in row.iter().enumerate() {
        if j > 0 {
            line.push(',');
        }
        let _ = write!(line, "{:016x}", v.to_bits());
    }
}

/// What a successful `update` reply carries back to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateAck {
    /// The tenant whose graph the delta was applied to.
    pub tenant: String,
    /// The newly published graph version.
    pub version: u64,
    /// Node count after the delta.
    pub num_nodes: usize,
    /// Stored arc count after the delta.
    pub num_arcs: usize,
}

/// Renders an applied update as an `ok update` reply line (no newline).
#[must_use]
pub fn encode_update_ack(ack: &UpdateAck) -> String {
    format!(
        "ok update tenant={} version={} nodes={} arcs={}",
        ack.tenant, ack.version, ack.num_nodes, ack.num_arcs
    )
}

/// Parses an `ok update` reply back into an [`UpdateAck`].
///
/// # Errors
///
/// [`ServerError::Protocol`] when the line does not match the grammar.
pub fn parse_update_ack(line: &str) -> Result<UpdateAck, ServerError> {
    Fields::read(line, "ok update ", |f| {
        Ok(UpdateAck {
            tenant: f.parse("tenant")?,
            version: f.parse("version")?,
            num_nodes: f.parse("nodes")?,
            num_arcs: f.parse("arcs")?,
        })
    })
}

fn parse_kv<T: std::str::FromStr>(word: Option<&str>, key: &str) -> Result<T, String> {
    let word = word.ok_or_else(|| format!("missing {key}=…"))?;
    let value = word
        .strip_prefix(key)
        .and_then(|w| w.strip_prefix('='))
        .ok_or_else(|| format!("expected {key}=…, got {word:?}"))?;
    value.parse().map_err(|_| format!("bad {key} value {value:?}"))
}

fn parse_nodes(csv: &str) -> Result<Vec<usize>, String> {
    // An empty list is syntactically valid; whether it is *semantically*
    // valid is the engine's call (EmptyRequest for sampled mode), so the
    // rejection comes back typed rather than as a protocol error.
    if csv.is_empty() {
        return Ok(Vec::new());
    }
    csv.split(',').map(|w| w.parse().map_err(|_| format!("bad node id {w:?}"))).collect()
}

/// Renders an [`InferRequest`] + options as a request line (no newline),
/// addressed to `tenant` (`None` = the default tenant).
#[must_use]
pub fn encode_infer(
    request: &InferRequest,
    options: SubmitOptions,
    tenant: Option<&str>,
) -> String {
    let mut line = qualified("infer", tenant);
    line.push(' ');
    match request.mode {
        blockgnn_engine::RequestMode::FullGraph => {
            line.push_str("full ");
            if request.nodes.is_empty() {
                line.push_str("all");
            } else {
                push_csv(&mut line, &request.nodes);
            }
        }
        blockgnn_engine::RequestMode::Sampled { s1, s2, seed } => {
            let _ = write!(line, "sampled s1={s1} s2={s2} seed={seed} nodes=");
            push_csv(&mut line, &request.nodes);
        }
    }
    if options.class != SloClass::default() {
        let _ = write!(line, " class={}", options.class.name());
    }
    if let Some(d) = options.deadline {
        // Rounded up: the wire may loosen a deadline by under 1 ms, but
        // never tighten it (a 900 µs deadline sent as 0 would always shed).
        let _ = write!(line, " deadline_ms={}", d.as_nanos().div_ceil(1_000_000));
    }
    line
}

/// Renders a [`TenantSpec`] as a `deploy` request line (no newline).
/// Options matching the spec defaults are omitted, so the common case
/// stays one compact word.
#[must_use]
pub fn encode_deploy(spec: &TenantSpec) -> String {
    let defaults =
        TenantSpec::new(spec.name.clone(), spec.dataset.clone(), spec.model, spec.backend);
    let mut line = format!(
        "deploy {}={}:{}:{}",
        spec.name,
        spec.dataset,
        model_kind_name(spec.model),
        spec.backend.name()
    );
    if spec.weight != defaults.weight {
        let _ = write!(line, " weight={}", spec.weight);
    }
    if let Some(depth) = spec.max_queue_depth {
        let _ = write!(line, " depth={depth}");
    }
    if spec.hidden_dim != defaults.hidden_dim {
        let _ = write!(line, " hidden={}", spec.hidden_dim);
    }
    if spec.block_size != defaults.block_size {
        let _ = write!(line, " block={}", spec.block_size);
    }
    if spec.seed != defaults.seed {
        let _ = write!(line, " seed={}", spec.seed);
    }
    line
}

/// Renders a successful deploy as an `ok deploy` reply line (no
/// newline).
#[must_use]
pub fn encode_deploy_ack(info: &TenantInfo) -> String {
    format!(
        "ok deploy tenant={} model={} backend={} version={} nodes={} weight={} resident={}",
        info.name,
        model_kind_name(info.model),
        info.backend.name(),
        info.graph_version,
        info.num_nodes,
        info.weight,
        info.resident_bytes
    )
}

/// Parses an `ok deploy` reply back into a [`TenantInfo`] (queue depth
/// is zero — the tenant was just born).
///
/// # Errors
///
/// [`ServerError::Protocol`] when the line does not match the grammar.
pub fn parse_deploy_ack(line: &str) -> Result<TenantInfo, ServerError> {
    Fields::read(line, "ok deploy ", |f| {
        Ok(TenantInfo {
            name: f.parse("tenant")?,
            model: parse_model_kind(f.raw("model")?).map_err(ServerError::Protocol)?,
            backend: parse_backend_kind(f.raw("backend")?).map_err(ServerError::Protocol)?,
            graph_version: f.parse("version")?,
            num_nodes: f.parse("nodes")?,
            weight: f.parse("weight")?,
            queue_depth: 0,
            resident_bytes: f.parse("resident")?,
        })
    })
}

/// Renders a retired tenant's send-off as an `ok retire` reply line (no
/// newline), carrying its lifetime counters.
#[must_use]
pub fn encode_retire_ack(tenant: &str, finals: &ServerStats) -> String {
    format!(
        "ok retire tenant={} requests={} completed={} shed={}",
        tenant,
        finals.submitted,
        finals.completed,
        finals.shed()
    )
}

/// Renders one tenant's description as a colon-separated `list` segment
/// (`name:model:backend:version:nodes:weight:depth:resident`).
#[must_use]
pub fn encode_tenant_info(info: &TenantInfo) -> String {
    format!(
        "{}:{}:{}:{}:{}:{}:{}:{}",
        info.name,
        model_kind_name(info.model),
        info.backend.name(),
        info.graph_version,
        info.num_nodes,
        info.weight,
        info.queue_depth,
        info.resident_bytes
    )
}

/// Parses one colon-separated `list` segment back into a
/// [`TenantInfo`].
///
/// # Errors
///
/// [`ServerError::Protocol`] when the segment does not have exactly the
/// grammar's eight fields.
pub fn parse_tenant_info(segment: &str) -> Result<TenantInfo, ServerError> {
    let parts: Vec<&str> = segment.split(':').collect();
    let [name, model, backend, version, nodes, weight, depth, resident] = parts[..] else {
        return Err(ServerError::Protocol(format!(
            "expected name:model:backend:version:nodes:weight:depth:resident, got {segment:?}"
        )));
    };
    Ok(TenantInfo {
        name: name.to_string(),
        model: parse_model_kind(model).map_err(ServerError::Protocol)?,
        backend: parse_backend_kind(backend).map_err(ServerError::Protocol)?,
        graph_version: parse_value("version", version)?,
        num_nodes: parse_value("nodes", nodes)?,
        weight: parse_value("weight", weight)?,
        queue_depth: parse_value("depth", depth)?,
        resident_bytes: parse_value("resident", resident)?,
    })
}

/// Renders the deployed-tenant roster as an `ok list` reply line (no
/// newline).
#[must_use]
pub fn encode_list_reply(infos: &[TenantInfo]) -> String {
    let mut line = format!("ok list tenants={}", infos.len());
    for info in infos {
        line.push(' ');
        line.push_str(&encode_tenant_info(info));
    }
    line
}

/// Parses an `ok list` reply back into the tenant roster.
///
/// # Errors
///
/// [`ServerError::Protocol`] on grammar mismatch, including a roster
/// shorter or longer than its own `tenants=` count.
pub fn parse_list_reply(line: &str) -> Result<Vec<TenantInfo>, ServerError> {
    let body = line.strip_prefix("ok list ").ok_or_else(|| {
        ServerError::Protocol(format!("expected ok list reply, got {line:?}"))
    })?;
    let mut words = body.split_whitespace();
    let count_word = words.next().unwrap_or_default();
    let count: usize = count_word
        .strip_prefix("tenants=")
        .ok_or_else(|| ServerError::Protocol(format!("expected tenants=…, got {count_word:?}")))
        .and_then(|n| parse_value("tenants", n))?;
    let infos = words.map(parse_tenant_info).collect::<Result<Vec<_>, _>>()?;
    if infos.len() != count {
        return Err(ServerError::Protocol(format!(
            "list reply claims {count} tenants but carries {}",
            infos.len()
        )));
    }
    Ok(infos)
}

fn push_csv(line: &mut String, nodes: &[usize]) {
    for (i, n) in nodes.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "{n}");
    }
}

/// What the client reconstructs from an `ok` infer reply: the response
/// minus the per-layer hardware report (its total cycles and energy
/// cross the wire as scalars).
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteResponse {
    /// One logits row per requested node — bit-identical to the
    /// server-side matrix.
    pub logits: Matrix,
    /// Argmax class per requested node.
    pub predictions: Vec<usize>,
    /// Queue + compute.
    pub latency: Duration,
    /// Time queued before execution.
    pub queue_time: Duration,
    /// Batch execution time the request rode on.
    pub compute_time: Duration,
    /// Whether the full-graph cache answered.
    pub from_cache: bool,
    /// Graph parts executed.
    pub parts: usize,
    /// Requests coalesced into the answering execution.
    pub batch_size: usize,
    /// Graph version the answer was computed against (versions are
    /// per-tenant).
    pub graph_version: u64,
    /// The tenant that served the request.
    pub tenant: String,
    /// Total simulated accelerator cycles (0 for software backends).
    pub sim_cycles: u64,
    /// Simulated energy in joules, when the backend models power.
    pub energy_joules: Option<f64>,
    /// The request's flight-recorder trace id (0 when tracing is off) —
    /// feed it to `trace id=HEX` to pull the per-stage span record.
    pub trace_id: u64,
}

/// Renders a served response as an `ok` reply line (no newline),
/// echoing the tenant that served it.
#[must_use]
pub fn encode_response(response: &InferResponse, tenant: &str) -> String {
    let mut line = format!(
        "ok rows={} cols={} queue_us={} compute_us={} from_cache={} parts={} batch={} \
         version={} tenant={} cycles={}",
        response.logits.rows(),
        response.logits.cols(),
        response.queue_time.as_micros(),
        response.compute_time.as_micros(),
        u8::from(response.from_cache),
        response.parts,
        response.batch_size,
        response.graph_version,
        tenant,
        response.sim.as_ref().map_or(0, |s| s.total_cycles),
    );
    match response.energy_joules {
        // Energy crosses as bits so the round-trip is exact.
        Some(e) => {
            let _ = write!(line, " energy={:016x}", e.to_bits());
        }
        None => line.push_str(" energy=none"),
    }
    let _ = write!(line, " trace={:016x}", response.trace_id);
    line.push_str(" preds=");
    push_csv(&mut line, &response.predictions);
    line.push_str(" logits=");
    for i in 0..response.logits.rows() {
        if i > 0 {
            line.push(';');
        }
        push_hex_row(&mut line, response.logits.row(i));
    }
    line
}

/// Parses an `ok` infer reply back into a [`RemoteResponse`].
///
/// # Errors
///
/// [`ServerError::Protocol`] when the line does not match the grammar.
pub fn parse_response(line: &str) -> Result<RemoteResponse, ServerError> {
    Fields::read(line, "ok ", |f| {
        let logits = f
            .raw("logits")?
            .split([';', ','])
            .filter(|w| !w.is_empty())
            .map(|w| parse_hex64(w).map(f64::from_bits))
            .collect::<Result<_, _>>()?;
        let logits = Matrix::from_flat(f.parse("rows")?, f.parse("cols")?, logits)
            .map_err(|e| ServerError::Protocol(format!("logits shape: {e}")))?;
        let queue_time = Duration::from_micros(f.parse("queue_us")?);
        let compute_time = Duration::from_micros(f.parse("compute_us")?);
        let preds = f.raw("preds")?.split(',').filter(|w| !w.is_empty());
        Ok(RemoteResponse {
            logits,
            predictions: preds.map(|w| parse_value("preds", w)).collect::<Result<_, _>>()?,
            latency: queue_time + compute_time,
            queue_time,
            compute_time,
            from_cache: f.raw("from_cache")? == "1",
            parts: f.parse("parts")?,
            batch_size: f.parse("batch")?,
            graph_version: f.parse("version")?,
            tenant: f.parse("tenant")?,
            sim_cycles: f.parse("cycles")?,
            energy_joules: match f.raw("energy")? {
                "none" => None,
                bits => Some(f64::from_bits(parse_hex64(bits)?)),
            },
            // Absent on replies from pre-tracing servers — 0 means untraced.
            trace_id: f.take("trace").map_or(Ok(0), parse_hex64)?,
        })
    })
}

/// What the `health` verb reports: the worker pool's supervision state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthReport {
    /// Configured worker count.
    pub workers: usize,
    /// Workers currently serving (dips while a crashed worker backs
    /// off before its respawn).
    pub alive: usize,
    /// Lifetime worker crashes (panics caught by a fault domain).
    pub crashes: u64,
    /// Lifetime worker respawns.
    pub restarts: u64,
    /// Whether the circuit breaker currently marks the pool degraded
    /// (brownout shedding active).
    pub degraded: bool,
}

/// Renders a pool-health report as an `ok health` reply line (no
/// newline).
#[must_use]
pub fn encode_health(health: &HealthReport) -> String {
    format!(
        "ok health workers={} alive={} crashes={} restarts={} degraded={}",
        health.workers, health.alive, health.crashes, health.restarts, health.degraded
    )
}

/// Parses an `ok health` reply back into a [`HealthReport`].
///
/// # Errors
///
/// [`ServerError::Protocol`] when the line does not match the grammar.
pub fn parse_health(line: &str) -> Result<HealthReport, ServerError> {
    Fields::read(line, "ok health ", |f| {
        Ok(HealthReport {
            workers: f.parse("workers")?,
            alive: f.parse("alive")?,
            crashes: f.parse("crashes")?,
            restarts: f.parse("restarts")?,
            degraded: f.parse("degraded")?,
        })
    })
}

/// Frames a multi-line reply (`metrics`, `trace`): the `ok <verb>
/// lines=N` header, then the N body lines, as one string.
pub(crate) fn encode_lines<S: AsRef<str>>(verb: &str, body: &[S]) -> String {
    let mut reply = format!("ok {verb} lines={}", body.len());
    for line in body {
        reply.push('\n');
        reply.push_str(line.as_ref());
    }
    reply
}

/// Reads the header of an [`encode_lines`] reply: how many body lines
/// follow it.
pub(crate) fn parse_lines_header(line: &str, verb: &str) -> Result<usize, ServerError> {
    Fields::read(line, &format!("ok {verb} "), |f| f.parse("lines"))
}

/// The reply field reader: the `key=value` words after a reply's fixed
/// prefix, each read once by name. A missing, repeated, malformed or
/// unknown field is a [`ServerError::Protocol`].
pub(crate) struct Fields<'a> {
    /// The fields nobody has read yet, in wire order.
    unread: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    /// Reads `line` — which must start with `prefix` — through `build`,
    /// then refuses any field `build` did not ask for.
    pub(crate) fn read<T>(
        line: &'a str,
        prefix: &str,
        build: impl FnOnce(&mut Self) -> Result<T, ServerError>,
    ) -> Result<T, ServerError> {
        let body = line.strip_prefix(prefix).ok_or_else(|| {
            ServerError::Protocol(format!("expected {prefix:?}…, got {line:?}"))
        })?;
        let mut fields = Self { unread: Vec::new() };
        for word in body.split_whitespace() {
            let (key, value) = word
                .split_once('=')
                .ok_or_else(|| ServerError::Protocol(format!("bad field {word:?}")))?;
            if fields.unread.iter().any(|(k, _)| *k == key) {
                return Err(ServerError::Protocol(format!("repeated field {key:?}")));
            }
            fields.unread.push((key, value));
        }
        let value = build(&mut fields)?;
        match fields.unread.first() {
            Some((key, _)) => Err(ServerError::Protocol(format!("unknown field {key:?}"))),
            None => Ok(value),
        }
    }

    /// The raw value of `key`, if the reply carries it.
    fn take(&mut self, key: &str) -> Option<&'a str> {
        let at = self.unread.iter().position(|(k, _)| *k == key)?;
        Some(self.unread.remove(at).1)
    }

    /// The raw value of `key`, which the reply must carry.
    fn raw(&mut self, key: &str) -> Result<&'a str, ServerError> {
        self.take(key).ok_or_else(|| ServerError::Protocol(format!("reply missing {key}")))
    }

    /// The value of `key` as a `T`.
    pub(crate) fn parse<T: FromStr>(&mut self, key: &str) -> Result<T, ServerError> {
        parse_value(key, self.raw(key)?)
    }
}

/// One reply value as a `T`; `key` names it in the error.
fn parse_value<T: FromStr>(key: &str, value: &str) -> Result<T, ServerError> {
    value.parse().map_err(|_| ServerError::Protocol(format!("bad {key} value {value:?}")))
}

fn parse_hex64(v: &str) -> Result<u64, ServerError> {
    u64::from_str_radix(v, 16).map_err(|_| ServerError::Protocol(format!("bad hex word {v:?}")))
}

/// Renders an error as an `err` reply line (no newline).
#[must_use]
pub fn encode_error(error: &ServerError) -> String {
    let kind = match error {
        ServerError::Overloaded { .. } => "overloaded",
        ServerError::DeadlineExceeded { .. } => "deadline",
        ServerError::ShuttingDown => "shutting_down",
        ServerError::Canceled => "canceled",
        ServerError::WorkerCrashed => "worker_crashed",
        ServerError::Timeout { .. } => "timeout",
        ServerError::UnknownTenant { .. } => "unknown_tenant",
        ServerError::TenantExists { .. } => "tenant_exists",
        ServerError::TenantBudget { .. } => "tenant_budget",
        ServerError::Engine(_) | ServerError::RemoteEngine(_) => "engine",
        ServerError::Protocol(_) => "protocol",
        ServerError::Io(_) => "io",
    };
    // Tenant errors carry machine-readable fields instead of prose, so
    // the client-side parse rebuilds the exact typed error (names are
    // charset-validated and never contain spaces).
    match error {
        ServerError::UnknownTenant { name } | ServerError::TenantExists { name } => {
            format!("err {kind} {name}")
        }
        ServerError::TenantBudget { needed, budget } => {
            format!("err {kind} needed={needed} budget={budget}")
        }
        // The kind word already says what failed, so these carry only
        // the inner message: the client's rebuilt error then displays
        // one prefix, not two.
        ServerError::Engine(e) => format!("err {kind} {e}"),
        ServerError::RemoteEngine(message)
        | ServerError::Protocol(message)
        | ServerError::Io(message) => format!("err {kind} {message}"),
        _ => format!("err {kind} {error}"),
    }
}

/// Parses an `err` reply back into its typed kind. Tenant errors
/// rebuild exactly (name / budget numbers cross the wire); detail
/// fields that do not cross — exact depths, waits — come back zeroed;
/// the *kind* is what retry logic branches on.
///
/// # Errors
///
/// [`ServerError::Protocol`] when the line is not an `err` reply.
pub fn parse_error(line: &str) -> Result<ServerError, ServerError> {
    let body = line
        .strip_prefix("err ")
        .ok_or_else(|| ServerError::Protocol(format!("expected err reply, got {line:?}")))?;
    let (kind, message) = body.split_once(' ').unwrap_or((body, ""));
    Ok(match kind {
        "overloaded" => ServerError::Overloaded { depth: 0, max_depth: 0 },
        "deadline" => ServerError::DeadlineExceeded { waited: Duration::ZERO },
        "shutting_down" => ServerError::ShuttingDown,
        "canceled" => ServerError::Canceled,
        "worker_crashed" => ServerError::WorkerCrashed,
        "timeout" => ServerError::Timeout { waited: Duration::ZERO },
        "unknown_tenant" => ServerError::UnknownTenant { name: message.to_string() },
        "tenant_exists" => ServerError::TenantExists { name: message.to_string() },
        "tenant_budget" => Fields::read(message, "", |f| {
            Ok(ServerError::TenantBudget {
                needed: f.parse("needed")?,
                budget: f.parse("budget")?,
            })
        })?,
        "engine" => ServerError::RemoteEngine(message.to_string()),
        "protocol" => ServerError::Protocol(message.to_string()),
        "io" => ServerError::Io(message.to_string()),
        other => return Err(ServerError::Protocol(format!("unknown error kind {other:?}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockgnn_engine::{BackendKind, EngineError, RequestMode};
    use blockgnn_gnn::ModelKind;
    use blockgnn_graph::generate::Rng64;

    #[test]
    fn infer_lines_round_trip() {
        let request = InferRequest::sampled(vec![3, 1, 3], 10, 5, 42);
        let options =
            SubmitOptions { class: SloClass::Gold, deadline: Some(Duration::from_millis(75)) };
        let line = encode_infer(&request, options, None);
        assert!(line.contains(" class=gold "), "{line}");
        match parse_command(&line).unwrap() {
            Command::Infer(r, o, tenant) => {
                assert_eq!(r, request);
                assert_eq!(o, options);
                assert_eq!(tenant, None);
            }
            other => panic!("wrong command {other:?}"),
        }
        let all = encode_infer(&InferRequest::all_nodes(), SubmitOptions::default(), None);
        assert!(!all.contains("class="), "the default class stays off the wire");
        match parse_command(&all).unwrap() {
            Command::Infer(r, o, _) => {
                assert_eq!(r.mode, RequestMode::FullGraph);
                assert!(r.nodes.is_empty());
                assert_eq!(o.class, SloClass::Silver, "unlabelled traffic is silver");
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn class_clauses_parse_and_reject_typed() {
        for class in SloClass::ALL {
            let line = format!("infer full 0 class={class}");
            match parse_command(&line).unwrap() {
                Command::Infer(_, o, _) => assert_eq!(o.class, class),
                other => panic!("wrong command {other:?}"),
            }
            assert_eq!(SloClass::parse(class.name()).unwrap(), class);
        }
        // Malformed class clauses are protocol errors, not panics — and
        // the old bare-integer priority clause is gone from the grammar.
        for bad in [
            "infer full 0 class=diamond",
            "infer full 0 class=",
            "infer full 0 class=GOLD",
            "infer full 0 priority=2",
            "infer sampled s1=2 s2=1 seed=0 nodes=1 class=goldd",
        ] {
            assert!(parse_command(bad).is_err(), "{bad:?} must be a protocol error");
        }
    }

    #[test]
    fn tenant_qualifiers_parse_and_round_trip() {
        let request = InferRequest::full_graph(vec![0, 2]);
        let line = encode_infer(&request, SubmitOptions::default(), Some("traffic"));
        assert!(line.starts_with("infer@traffic "));
        match parse_command(&line).unwrap() {
            Command::Infer(r, _, tenant) => {
                assert_eq!(r, request);
                assert_eq!(tenant.as_deref(), Some("traffic"));
            }
            other => panic!("wrong command {other:?}"),
        }
        let update = encode_update(&GraphDelta::new().add_edge(0, 1), Some("traffic"));
        match parse_command(&update).unwrap() {
            Command::Update(_, tenant) => assert_eq!(tenant.as_deref(), Some("traffic")),
            other => panic!("wrong command {other:?}"),
        }
        assert_eq!(parse_command("stats").unwrap(), Command::Stats(None));
        assert_eq!(
            parse_command(&Command::Stats(Some("t-1".into())).to_string()).unwrap(),
            Command::Stats(Some("t-1".into()))
        );
        // The qualifier is only legal on infer/update/stats; names obey
        // the wire charset.
        for bad in [
            "ping@t",
            "shutdown@t",
            "list@t",
            "deploy@t x=cora-small:gcn:dense",
            "retire@t t",
            "infer@ full all",
            "infer@a:b full all",
            "infer@a b full all",
        ] {
            assert!(parse_command(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn deploy_retire_list_lines_round_trip() {
        // Defaults stay compact.
        let spec =
            TenantSpec::new("traffic", "citeseer-small", ModelKind::GsPool, BackendKind::Dense);
        assert_eq!(encode_deploy(&spec), "deploy traffic=citeseer-small:gs-pool:dense");
        assert_eq!(parse_command(&encode_deploy(&spec)).unwrap(), Command::Deploy(spec));
        // Non-default knobs survive the wire.
        let spec = TenantSpec::new("t2", "cora-small", ModelKind::Gat, BackendKind::Spectral)
            .weight(3)
            .max_queue_depth(17)
            .hidden_dim(16)
            .block_size(4)
            .seed(7);
        assert_eq!(parse_command(&encode_deploy(&spec)).unwrap(), Command::Deploy(spec));
        assert_eq!(parse_command("retire traffic").unwrap(), Command::Retire("traffic".into()));
        assert_eq!(parse_command("list").unwrap(), Command::List);
        for bad in [
            "deploy",
            "deploy nope",
            "deploy x=cora-small:gcn:dense wat=1",
            "deploy x=cora-small:gcn:dense weight=zero",
            "retire",
            "retire a b",
            "retire a:b",
        ] {
            assert!(parse_command(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn deploy_and_list_acks_round_trip() {
        let info = TenantInfo {
            name: "traffic".into(),
            model: ModelKind::GsPool,
            backend: BackendKind::SimulatedAccel,
            graph_version: 4,
            num_nodes: 61,
            weight: 3,
            queue_depth: 0,
            resident_bytes: 123_456,
        };
        assert_eq!(parse_deploy_ack(&encode_deploy_ack(&info)).unwrap(), info);
        let other = TenantInfo {
            name: "default".into(),
            model: ModelKind::Gcn,
            backend: BackendKind::Dense,
            graph_version: 0,
            num_nodes: 60,
            weight: 1,
            queue_depth: 2,
            resident_bytes: 98_765,
        };
        let roster = vec![other, info];
        assert_eq!(parse_list_reply(&encode_list_reply(&roster)).unwrap(), roster);
        assert_eq!(parse_list_reply("ok list tenants=0").unwrap(), Vec::new());
        // A roster that disagrees with its own count is a protocol error.
        assert!(parse_list_reply("ok list tenants=2 a:gcn:dense:0:1:1:0:9").is_err());
        assert!(parse_list_reply("ok list tenants=0 a:gcn:dense:0:1:1:0:9").is_err());
        assert!(parse_tenant_info("a:gcn:dense:0:1:1:0").is_err(), "seven fields");
        assert!(parse_deploy_ack("ok deploy tenant=a model=gcn").is_err(), "missing fields");
    }

    #[test]
    fn simple_commands_parse() {
        assert_eq!(parse_command("ping").unwrap(), Command::Ping);
        assert_eq!(parse_command("stats").unwrap(), Command::Stats(None));
        assert_eq!(parse_command("shutdown").unwrap(), Command::Shutdown);
        assert!(parse_command("nonsense").is_err());
        assert!(parse_command("infer sideways 1,2").is_err());
        assert!(parse_command("infer sampled s1=a s2=2 seed=3 nodes=1").is_err());
    }

    #[test]
    fn responses_round_trip_bit_exactly() {
        let logits = Matrix::from_fn(2, 3, |i, j| {
            // Awkward values: negatives, subnormals, long fractions.
            (i as f64 - 0.5) * (j as f64 + 1.0) * 0.123_456_789 + f64::MIN_POSITIVE
        });
        let response = InferResponse {
            logits: logits.clone(),
            predictions: vec![2, 0],
            latency: Duration::from_micros(30),
            queue_time: Duration::from_micros(10),
            compute_time: Duration::from_micros(20),
            sim: None,
            energy_joules: Some(1.25e-3),
            from_cache: false,
            parts: 1,
            batch_size: 4,
            graph_version: 17,
            trace_id: 0xDEAD_BEEF,
            hot_rows: 0,
        };
        let line = encode_response(&response, "traffic");
        assert!(line.contains(" trace=00000000deadbeef "), "{line}");
        let remote = parse_response(&line).unwrap();
        assert_eq!(remote.logits, logits, "logits survive the wire bit-exactly");
        assert_eq!(remote.predictions, vec![2, 0]);
        assert_eq!(remote.queue_time, Duration::from_micros(10));
        assert_eq!(remote.compute_time, Duration::from_micros(20));
        assert_eq!(remote.latency, Duration::from_micros(30));
        assert_eq!(remote.batch_size, 4);
        assert_eq!(remote.graph_version, 17);
        assert_eq!(remote.tenant, "traffic", "replies echo the serving tenant");
        assert_eq!(remote.energy_joules, Some(1.25e-3));
        assert_eq!(remote.trace_id, 0xDEAD_BEEF, "the trace id rides the reply");
        assert!(!remote.from_cache);
        // A reply from a pre-tracing server (no trace=) still parses.
        let stripped = line.replace(" trace=00000000deadbeef", "");
        assert_eq!(parse_response(&stripped).unwrap().trace_id, 0);
    }

    #[test]
    fn update_lines_round_trip_bit_exactly() {
        let delta = GraphDelta::new()
            .add_edge(0, 5)
            .add_edge(3, 3)
            .remove_edge(7, 2)
            .set_feature_row(4, vec![0.1, -2.5e-8, f64::MIN_POSITIVE])
            .append_node(vec![1.0, 2.0, 3.0])
            .append_node(vec![-0.0, f64::MAX, 1.5]);
        let line = encode_update(&delta, None);
        match parse_command(&line).unwrap() {
            Command::Update(parsed, tenant) => {
                assert_eq!(tenant, None);
                assert_eq!(parsed.add_edges, delta.add_edges);
                assert_eq!(parsed.remove_edges, delta.remove_edges);
                // Feature rows must survive bit-exactly (hex bit words).
                for ((an, a), (bn, b)) in parsed.set_features.iter().zip(&delta.set_features) {
                    assert_eq!(an, bn);
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
                for (a, b) in parsed.append_nodes.iter().zip(&delta.append_nodes) {
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
            }
            other => panic!("wrong command {other:?}"),
        }
        // An empty delta parses cleanly (the engine rejects it, typed).
        assert_eq!(parse_command("update").unwrap(), Command::Update(GraphDelta::new(), None));
        // Malformed clauses are protocol errors.
        assert!(parse_command("update add=1-2").is_err());
        assert!(parse_command("update bogus=1").is_err());
        assert!(parse_command("update feat=1").is_err());
        assert!(parse_command("update new=xyz").is_err());
    }

    #[test]
    fn update_acks_round_trip() {
        let ack =
            UpdateAck { tenant: "default".into(), version: 9, num_nodes: 120, num_arcs: 512 };
        assert_eq!(
            encode_update_ack(&ack),
            "ok update tenant=default version=9 nodes=120 arcs=512"
        );
        assert_eq!(parse_update_ack(&encode_update_ack(&ack)).unwrap(), ack);
        assert!(
            parse_update_ack("ok update version=1 nodes=2 arcs=3").is_err(),
            "missing tenant"
        );
        assert!(parse_update_ack("ok update tenant=a version=1 nodes=2").is_err(), "no arcs");
        assert!(parse_update_ack("err engine nope").is_err());
    }

    /// One command of every variant with seeded random tenants, classes,
    /// whole-ms deadlines, deltas, specs and trace queries: the corpus
    /// the round-trip and fuzz tests draw their valid lines from.
    fn corpus(rng: &mut Rng64) -> [Command; 11] {
        let n = 50;
        let tenants = [None, Some("t0"), Some("traffic-2"), Some("a.b_c")];
        let tenant = |rng: &mut Rng64| tenants[rng.next_below(tenants.len())].map(String::from);
        let mut delta = GraphDelta::new();
        for _ in 0..rng.next_below(4) {
            delta = delta.add_edge(rng.next_below(n), rng.next_below(n));
        }
        if rng.next_below(2) == 0 {
            delta = delta.remove_edge(rng.next_below(n), rng.next_below(n));
        }
        if rng.next_below(2) == 0 {
            let row: Vec<f64> = (0..rng.next_below(4)).map(|_| rng.next_normal()).collect();
            delta = delta.set_feature_row(rng.next_below(n), row);
        }
        if rng.next_below(3) == 0 {
            // An appended node has at least one feature: `new=` cannot
            // spell an empty row.
            delta = delta.append_node(vec![rng.next_normal(); rng.next_below(3) + 1]);
        }
        let nodes: Vec<usize> = (0..rng.next_below(3) + 1).map(|_| rng.next_below(n)).collect();
        let request = match rng.next_below(3) {
            0 => InferRequest::all_nodes(),
            1 => InferRequest::full_graph(nodes),
            _ => InferRequest::sampled(nodes, 4, 2, rng.next_u64()),
        };
        let options = SubmitOptions {
            class: SloClass::ALL[rng.next_below(SloClass::ALL.len())],
            deadline: (rng.next_below(2) == 0)
                .then(|| Duration::from_millis(rng.next_below(500) as u64)),
        };
        let models = [ModelKind::Gcn, ModelKind::GsPool, ModelKind::Ggcn, ModelKind::Gat];
        let backends = [BackendKind::Dense, BackendKind::Spectral, BackendKind::SimulatedAccel];
        let mut spec = TenantSpec::new(
            format!("fz{}", rng.next_below(8)),
            ["cora-small", "pubmed-small"][rng.next_below(2)],
            models[rng.next_below(models.len())],
            backends[rng.next_below(backends.len())],
        );
        if rng.next_below(2) == 0 {
            spec = spec.weight(rng.next_below(7) as u32 + 1).hidden_dim(rng.next_below(64) + 1);
        }
        if rng.next_below(3) == 0 {
            spec = spec.max_queue_depth(rng.next_below(64) + 1).seed(rng.next_u64());
            spec = spec.block_size(1 << rng.next_below(5));
        }
        let query = match rng.next_below(4) {
            0 => TraceQuery::Last(rng.next_below(64)),
            1 => TraceQuery::Id(rng.next_u64()),
            2 => TraceQuery::Slow,
            _ => TraceQuery::Export,
        };
        [
            Command::Infer(request, options, tenant(rng)),
            Command::Update(delta, tenant(rng)),
            Command::Ping,
            Command::Stats(tenant(rng)),
            Command::Deploy(spec),
            Command::Retire(format!("fz{}", rng.next_below(8))),
            Command::List,
            Command::Metrics,
            Command::Trace(query),
            Command::Health,
            Command::Shutdown,
        ]
    }

    #[test]
    fn every_verb_round_trips_through_display() {
        let mut rng = Rng64::new(0x7AB1E);
        for _ in 0..500 {
            for command in corpus(&mut rng) {
                let line = command.to_string();
                assert_eq!(parse_command(&line), Ok(command), "{line}");
            }
        }
    }

    #[test]
    fn sub_millisecond_deadlines_never_tighten_on_the_wire() {
        for micros in [900, 1_500, 1_000, 2_000_001] {
            let sent = Duration::from_micros(micros);
            let line =
                encode_infer(&InferRequest::all_nodes(), SubmitOptions::deadline(sent), None);
            let Ok(Command::Infer(_, options, _)) = parse_command(&line) else {
                panic!("{line:?} does not parse")
            };
            let arrived = options.deadline.expect("the deadline crosses");
            assert!(arrived >= sent, "{sent:?} arrived as {arrived:?}");
            assert!(
                arrived - sent < Duration::from_millis(1),
                "{sent:?} arrived as {arrived:?}"
            );
        }
    }

    #[test]
    fn the_reply_reader_rejects_missing_repeated_and_unknown_fields() {
        let read =
            |line| Fields::read(line, "ok x ", |f| Ok((f.parse::<u8>("a")?, f.raw("b")?)));
        assert_eq!(read("ok x a=1 b=two"), Ok((1, "two")));
        assert_eq!(read("ok x b=two a=1"), Ok((1, "two")), "order is free");
        for bad in [
            "ok x a=1",
            "ok x a=1 b=2 a=1",
            "ok x a=1 b=2 c=3",
            "ok x a=x b=2",
            "ok x a=1 b",
            "ok y a=1 b=2",
        ] {
            assert!(matches!(read(bad), Err(ServerError::Protocol(_))), "{bad:?}");
        }
    }

    /// Fuzz-style robustness: every verb's valid lines (the seeded
    /// [`corpus`], `@tenant` qualifiers and `class=` clauses included),
    /// their truncations, garbled variants, and pure noise must all come
    /// back as `Ok`/`Err` — never a panic — with a seeded RNG so any
    /// failure replays. (The connection-level counterparts in
    /// `tests/server.rs` and `tests/workloads.rs` prove rejected lines
    /// also never poison the TCP session or the shared graph.)
    #[test]
    fn fuzzed_command_lines_never_panic() {
        let mut rng = Rng64::new(0xF422_0B5E);
        // Numbers that would size a terabyte allocation *parse* — they
        // are well-formed; refusing them is `validate_request`'s and
        // `TenantSpec::build_engine`'s job — and ride the same
        // truncate/garble bar as every other line.
        let hostile = [
            "infer sampled s1=1000000000000 s2=1 seed=0 nodes=0",
            "infer sampled s1=18446744073709551615 s2=1 seed=0 nodes=0",
            "infer sampled s1=9223372036854775807 s2=1 seed=0 nodes=0,1,2",
            "deploy t=cora-small:gcn:dense hidden=1000000000000",
        ];
        for round in 0..600 {
            let mut lines: Vec<String> =
                corpus(&mut rng).iter().map(Command::to_string).collect();
            lines.push(hostile[round % hostile.len()].to_string());
            for line in &lines {
                parse_command(line).expect("well-formed encodings parse");
                // Truncation at any byte (lines are ASCII).
                let cut = rng.next_below(line.len() + 1);
                let _ = parse_command(&line[..cut]);
                // One garbled byte.
                let mut garbled = line.clone().into_bytes();
                if !garbled.is_empty() {
                    let at = rng.next_below(garbled.len());
                    garbled[at] = (rng.next_below(94) + 33) as u8;
                }
                let _ = parse_command(&String::from_utf8_lossy(&garbled));
            }
            // Pure noise.
            let noise: String = (0..rng.next_below(40))
                .map(|_| (rng.next_below(94) + 33) as u8 as char)
                .collect();
            let _ = parse_command(&noise);
            // Fault-plan specs ride the same robustness bar: the valid
            // CI spec parses, and truncated / garbled / noise variants
            // must come back `Err`, never panic.
            let spec = "seed=0xC4A05F17,panic=120,max_panics=6,latency=40,latency_us=400,\
                        alloc=20,reset=60,max_resets=8,stall=20,stall_us=800";
            crate::fault::FaultPlan::parse(spec).expect("the CI chaos spec parses");
            let cut = rng.next_below(spec.len() + 1);
            let _ = crate::fault::FaultPlan::parse(&spec[..cut]);
            let mut garbled = spec.as_bytes().to_vec();
            let at = rng.next_below(garbled.len());
            garbled[at] = (rng.next_below(94) + 33) as u8;
            let _ = crate::fault::FaultPlan::parse(&String::from_utf8_lossy(&garbled));
            let _ = crate::fault::FaultPlan::parse(&noise);
        }
    }

    #[test]
    fn malformed_update_clauses_fail_typed() {
        for bad in [
            "update add=1",
            "update add=1:b",
            "update add=a:2",
            "update del=1-2",
            "update feat=9",
            "update feat=x:0",
            "update feat=1:zz",
            "update new=zz",
            // Non-finite feature words: quiet/signalling NaN, ±Inf, in
            // both clauses that carry feature rows.
            "update feat=1:7ff8000000000000",
            "update feat=1:3ff0000000000000,7ff0000000000001",
            "update feat=1:7ff0000000000000",
            "update new=fff0000000000000",
            "update new=3ff0000000000000;0,fff8000000000000",
            "update wat=1",
            "update add=1:2 extra",
        ] {
            assert!(parse_command(bad).is_err(), "{bad:?} must be a protocol error");
        }
        // Empty clauses are *syntactically* fine — they produce an empty
        // delta, which the engine then rejects with a typed EmptyDelta.
        for ok in ["update", "update add=", "update new="] {
            match parse_command(ok).unwrap() {
                Command::Update(delta, _) => assert!(delta.is_empty()),
                other => panic!("wrong command {other:?}"),
            }
        }
    }

    #[test]
    fn metrics_and_trace_commands_parse_and_reject_malformed_args() {
        use crate::observe::TraceQuery;
        assert_eq!(parse_command("metrics").unwrap(), Command::Metrics);
        assert_eq!(parse_command("trace").unwrap(), Command::Trace(TraceQuery::Last(16)));
        assert_eq!(parse_command("trace last=5").unwrap(), Command::Trace(TraceQuery::Last(5)));
        assert_eq!(
            parse_command("trace id=00000000000000ff").unwrap(),
            Command::Trace(TraceQuery::Id(0xFF))
        );
        assert_eq!(parse_command("trace id=ab").unwrap(), Command::Trace(TraceQuery::Id(0xAB)));
        assert_eq!(parse_command("trace slow").unwrap(), Command::Trace(TraceQuery::Slow));
        assert_eq!(parse_command("trace export").unwrap(), Command::Trace(TraceQuery::Export));
        for bad in [
            "metrics now",
            "metrics@t",
            "trace@t",
            "trace last=",
            "trace last=abc",
            "trace last=-3",
            "trace id=",
            "trace id=zz",
            "trace id=123q",
            "trace fast",
            "trace slow extra",
            "trace export x",
            "trace last=3 id=4",
            "ping x",
            "list all",
            "stats@t extra",
            "shutdown now",
        ] {
            assert!(parse_command(bad).is_err(), "{bad:?} must be a protocol error");
        }
    }

    #[test]
    fn health_commands_and_replies_round_trip() {
        assert_eq!(parse_command("health").unwrap(), Command::Health);
        for bad in ["health now", "health@t", "healthy", "health degraded"] {
            assert!(parse_command(bad).is_err(), "{bad:?} must be a protocol error");
        }
        let report =
            HealthReport { workers: 2, alive: 1, crashes: 3, restarts: 2, degraded: true };
        let line = encode_health(&report);
        assert_eq!(line, "ok health workers=2 alive=1 crashes=3 restarts=2 degraded=true");
        assert_eq!(parse_health(&line).unwrap(), report);
        assert!(parse_health("ok health workers=2 alive=2").is_err(), "missing fields");
        assert!(parse_health(
            "ok health workers=2 alive=2 crashes=0 restarts=0 degraded=maybe"
        )
        .is_err());
        assert!(parse_health("err io nope").is_err());
    }

    #[test]
    fn errors_round_trip_to_kind() {
        let shed = ServerError::Overloaded { depth: 9, max_depth: 9 };
        assert!(matches!(
            parse_error(&encode_error(&shed)).unwrap(),
            ServerError::Overloaded { .. }
        ));
        let late = ServerError::DeadlineExceeded { waited: Duration::from_millis(1) };
        assert!(matches!(
            parse_error(&encode_error(&late)).unwrap(),
            ServerError::DeadlineExceeded { .. }
        ));
        assert_eq!(
            parse_error(&encode_error(&ServerError::ShuttingDown)).unwrap(),
            ServerError::ShuttingDown
        );
        // The tenant-lifecycle kinds rebuild exactly: names and budget
        // numbers cross the wire as machine-readable fields.
        let ghost = ServerError::UnknownTenant { name: "ghost".into() };
        assert_eq!(parse_error(&encode_error(&ghost)).unwrap(), ghost);
        let dup = ServerError::TenantExists { name: "dup".into() };
        assert_eq!(parse_error(&encode_error(&dup)).unwrap(), dup);
        let fat = ServerError::TenantBudget { needed: 10, budget: 5 };
        assert_eq!(parse_error(&encode_error(&fat)).unwrap(), fat);
        // The fault-domain kinds: a crashed worker's typed reply and the
        // client-side timeout both round-trip to their kind.
        assert_eq!(
            parse_error(&encode_error(&ServerError::WorkerCrashed)).unwrap(),
            ServerError::WorkerCrashed
        );
        let slow = ServerError::Timeout { waited: Duration::from_millis(250) };
        assert!(matches!(
            parse_error(&encode_error(&slow)).unwrap(),
            ServerError::Timeout { .. }
        ));
        // The message-carrying kinds say their kind once: the wire has
        // the kind word, the client-side `Display` one prefix.
        let empty = format!("remote engine error: {}", EngineError::EmptyRequest);
        for (sent, shown) in [
            (ServerError::Protocol("line too long".into()), "protocol error: line too long"),
            (ServerError::Io("reset".into()), "transport error: reset"),
            (ServerError::RemoteEngine("bad node".into()), "remote engine error: bad node"),
            (ServerError::Engine(EngineError::EmptyRequest), empty.as_str()),
        ] {
            assert_eq!(parse_error(&encode_error(&sent)).unwrap().to_string(), shown);
        }
        assert!(parse_error("err tenant_budget needed=10").is_err(), "missing budget");
    }
}

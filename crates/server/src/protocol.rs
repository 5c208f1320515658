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
//! request lines through it.
//!
//! Every `key=value` reply is a `Record`: a prefix and an ordered table
//! of fields, each a key, how its value is written and how it is read
//! back. One codec writes each reply from its table and reads it back
//! through one field reader that refuses a missing, repeated, malformed
//! or unknown field. The `list` reply's tenants are `TENANT_SEGMENT`
//! records with their values `:`-joined; `stats` is the counter tables'
//! rendering ([`crate::ServerStats::summary`]).
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
//! reply     = record | "pong" | "ok bye" | "ok stats " summary
//!           | "ok list tenants=" int (SP segment)*
//!           | "ok metrics lines=" int LF *(exposition-line LF)
//!           | "ok trace lines=" int LF *(trace-line LF)
//!           | "err" SP kind SP message
//! record    = prefix field (SP field)*    field   = key "=" value
//! segment   = value (":" value)*          (one per TENANT_SEGMENT row)
//! kind      = "overloaded" | "deadline" | "shutting_down" | "canceled"
//!           | "worker_crashed" | "timeout" | "engine" | "protocol" | "io"
//!           | "unknown_tenant" | "tenant_exists"
//!           | "tenant_budget"             (message = BUDGET's fields)
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
use crate::tenant::{
    model_kind_name, parse_backend_kind, parse_model_kind, validate_tenant_name, TenantInfo,
    TenantSpec,
};
use blockgnn_engine::{BackendKind, GraphDelta, InferRequest, InferResponse};
use blockgnn_gnn::ModelKind;
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
    // A verb that ignored its tail would obey `shutdown not-yet`.
    match words.next() {
        Some(extra) => Err(format!("unexpected word {extra:?} after {verb}")),
        None => Ok(command),
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
        match word.split_once('=') {
            Some(("class", v)) => options.class = SloClass::parse(v)?,
            Some(("deadline_ms", v)) => {
                let ms = v.parse().map_err(|_| format!("bad deadline_ms {v:?}"))?;
                options.deadline = Some(Duration::from_millis(ms));
            }
            _ => return Err(format!("unknown option {word:?}")),
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
        let unknown = || format!("unknown update clause {word:?}");
        let (key, value) = word.split_once('=').ok_or_else(unknown)?;
        let rows = value.split(';').filter(|r| !r.is_empty());
        match key {
            "add" => delta.add_edges.extend(parse_pairs(value)?),
            "del" => delta.remove_edges.extend(parse_pairs(value)?),
            "feat" => {
                for row in rows {
                    let (node, row) = row
                        .split_once(':')
                        .ok_or_else(|| format!("expected NODE:row, got {row:?}"))?;
                    let node = node.parse().map_err(|_| format!("bad node id {node:?}"))?;
                    delta.set_features.push((node, parse_f64_row(row)?));
                }
            }
            "new" => {
                for row in rows {
                    delta.append_nodes.push(parse_f64_row(row)?);
                }
            }
            _ => return Err(unknown()),
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
        let unknown = || format!("unknown deploy option {word:?}");
        let (key, v) = word.split_once('=').ok_or_else(unknown)?;
        let bad = |_| format!("bad {key} {v:?}");
        spec = match key {
            "weight" => spec.weight(v.parse().map_err(bad)?),
            "depth" => spec.max_queue_depth(v.parse().map_err(bad)?),
            "hidden" => spec.hidden_dim(v.parse().map_err(bad)?),
            "block" => spec.block_size(v.parse().map_err(bad)?),
            "seed" => spec.seed(v.parse().map_err(bad)?),
            _ => return Err(unknown()),
        };
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
    let pairs = |out: &mut String, (u, v): &(usize, usize)| {
        let _ = write!(out, "{u}:{v}");
    };
    for (key, edges) in [("add", &delta.add_edges), ("del", &delta.remove_edges)] {
        if !edges.is_empty() {
            let _ = write!(line, " {key}=");
            put_joined(&mut line, edges, ',', pairs);
        }
    }
    if !delta.set_features.is_empty() {
        line.push_str(" feat=");
        put_joined(&mut line, &delta.set_features, ';', |out, (node, row)| {
            let _ = write!(out, "{node}:");
            push_hex_row(out, row);
        });
    }
    if !delta.append_nodes.is_empty() {
        line.push_str(" new=");
        put_joined(&mut line, &delta.append_nodes, ';', |out, row| push_hex_row(out, row));
    }
    line
}

/// Writes `items` with `put`, `separator`-joined.
pub(crate) fn put_joined<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    separator: char,
    mut put: impl FnMut(&mut String, T),
) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(separator);
        }
        put(out, item);
    }
}

fn push_hex_row(out: &mut String, row: &[f64]) {
    put_joined(out, row, ',', |out, v| put_hex(out, &v.to_bits()));
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

fn push_csv(out: &mut String, nodes: &[usize]) {
    put_joined(out, nodes, ',', put_plain);
}

/// What a successful `update` reply carries back to the client.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

/// What the client reconstructs from an `ok` infer reply: the response
/// minus the per-layer hardware report (its total cycles and energy
/// cross the wire as scalars).
#[derive(Debug, Clone, Default, PartialEq)]
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

impl RemoteResponse {
    /// The reply `tenant` sends for a served `response`: the record the
    /// client reads back.
    pub(crate) fn served(response: InferResponse, tenant: &str) -> Self {
        Self {
            logits: response.logits,
            predictions: response.predictions,
            latency: response.latency,
            queue_time: response.queue_time,
            compute_time: response.compute_time,
            from_cache: response.from_cache,
            parts: response.parts,
            batch_size: response.batch_size,
            graph_version: response.graph_version,
            tenant: tenant.to_string(),
            sim_cycles: response.sim.map_or(0, |s| s.total_cycles),
            energy_joules: response.energy_joules,
            trace_id: response.trace_id,
        }
    }
}

/// What the `health` verb reports: the worker pool's supervision state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// A field's value as `Display` writes it.
pub(crate) fn put_plain<V: fmt::Display>(out: &mut String, value: &V) {
    let _ = write!(out, "{value}");
}

/// A field's value as `FromStr` reads it.
pub(crate) fn take_plain<V: FromStr>(word: &str) -> Option<V> {
    word.parse().ok()
}

fn put_model(out: &mut String, kind: &ModelKind) {
    out.push_str(model_kind_name(*kind));
}

fn put_backend(out: &mut String, kind: &BackendKind) {
    out.push_str(kind.name());
}

/// A duration in whole microseconds.
fn put_micros(out: &mut String, duration: &Duration) {
    let _ = write!(out, "{}", duration.as_micros());
}

fn take_micros(word: &str) -> Option<Duration> {
    word.parse().ok().map(Duration::from_micros)
}

/// A flag spelled `0` or `1`.
fn put_bit(out: &mut String, bit: &bool) {
    out.push(if *bit { '1' } else { '0' });
}

fn take_bit(word: &str) -> Option<bool> {
    match word {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

fn put_hex(out: &mut String, value: &u64) {
    let _ = write!(out, "{value:016x}");
}

fn hex64(word: &str) -> Option<u64> {
    u64::from_str_radix(word, 16).ok()
}

/// `none`, or the `f64` bit pattern in hex, so the value crosses exactly.
fn put_energy(out: &mut String, energy: &Option<f64>) {
    match energy {
        Some(joules) => put_hex(out, &joules.to_bits()),
        None => out.push_str("none"),
    }
}

fn take_energy(word: &str) -> Option<Option<f64>> {
    match word {
        "none" => Some(None),
        bits => hex64(bits).map(|b| Some(f64::from_bits(b))),
    }
}

/// Reads a field's value back; `None` when it is malformed.
type Take<V> = fn(&str) -> Option<V>;

/// One row of a record's field table: the key, how the value is written
/// from the record, and how it is read back into one.
pub(crate) struct Field<T> {
    pub(crate) key: &'static str,
    pub(crate) put: fn(&T, &mut String),
    pub(crate) take: fn(&mut T, &mut Fields<'_>) -> Result<(), ServerError>,
}

/// The field `$key`, holding the value at `record.$path`, written by
/// `$put` and read back by `$take` (`Display` and `FromStr` unless
/// given).
macro_rules! field {
    ($key:literal, $($path:tt).+) => {
        field!($key, $($path).+, $crate::protocol::put_plain, $crate::protocol::take_plain)
    };
    ($key:literal, $($path:tt).+, $put:expr, $take:expr) => {
        $crate::protocol::Field {
            key: $key,
            put: |record, out| $put(out, &record.$($path).+),
            take: |record, fields| {
                record.$($path).+ = fields.spelled($key, $take)?;
                Ok(())
            },
        }
    };
}
pub(crate) use field;

/// A reply record described once: its prefix and its fields in wire
/// order, which both [`Record::encode`] and [`Record::decode`] walk.
pub(crate) struct Record<T: 'static> {
    pub(crate) prefix: &'static str,
    pub(crate) fields: &'static [Field<T>],
}

impl<T: Default> Record<T> {
    /// The reply line (no newline): the prefix, then `key=value` per
    /// field, space-separated.
    pub(crate) fn encode(&self, record: &T) -> String {
        // Room for a typical value per field, so a short reply is written
        // without regrowing the line.
        let mut line = String::with_capacity(self.prefix.len() + 24 * self.fields.len());
        line.push_str(self.prefix);
        self.write(record, &mut line, ' ', true);
        line
    }

    /// Reads a reply line back, refusing a wrong prefix and a missing,
    /// repeated, malformed or unknown field.
    pub(crate) fn decode(&self, line: &str) -> Result<T, ServerError> {
        Fields::read(line, self.prefix, |fields| self.take(fields))
    }

    /// Writes the record's values in table order, `separator`-joined,
    /// each after its `key=` when `keyed`.
    fn write(&self, record: &T, out: &mut String, separator: char, keyed: bool) {
        put_joined(out, self.fields, separator, |out, field| {
            if keyed {
                out.push_str(field.key);
                out.push('=');
            }
            (field.put)(record, out);
        });
    }

    fn take(&self, fields: &mut Fields<'_>) -> Result<T, ServerError> {
        let mut record = T::default();
        for field in self.fields {
            (field.take)(&mut record, fields)?;
        }
        Ok(record)
    }
}

/// `ok update tenant= version= nodes= arcs=`.
pub(crate) const UPDATE_ACK: Record<UpdateAck> = Record {
    prefix: "ok update ",
    fields: &[
        field!("tenant", tenant),
        field!("version", version),
        field!("nodes", num_nodes),
        field!("arcs", num_arcs),
    ],
};

/// `ok deploy tenant= model= backend= version= nodes= weight= resident=`
/// — a [`TENANT_SEGMENT`] without the queue depth, which is zero for a
/// tenant just born.
pub(crate) const DEPLOY_ACK: Record<TenantInfo> = Record {
    prefix: "ok deploy ",
    fields: &[
        field!("tenant", name),
        field!("model", model, put_model, |w| parse_model_kind(w).ok()),
        field!("backend", backend, put_backend, |w| parse_backend_kind(w).ok()),
        field!("version", graph_version),
        field!("nodes", num_nodes),
        field!("weight", weight),
        field!("resident", resident_bytes),
    ],
};

/// One tenant of the `list` reply,
/// `name:model:backend:version:nodes:weight:depth:resident`.
const TENANT_SEGMENT: Record<TenantInfo> = Record {
    prefix: "",
    fields: &[
        field!("tenant", name),
        field!("model", model, put_model, |w| parse_model_kind(w).ok()),
        field!("backend", backend, put_backend, |w| parse_backend_kind(w).ok()),
        field!("version", graph_version),
        field!("nodes", num_nodes),
        field!("weight", weight),
        field!("depth", queue_depth),
        field!("resident", resident_bytes),
    ],
};

/// `ok retire tenant= requests= completed= shed=`: a retired tenant's
/// lifetime counters.
pub(crate) const RETIRE_ACK: Record<(String, usize, usize, usize)> = Record {
    prefix: "ok retire ",
    fields: &[
        field!("tenant", 0),
        field!("requests", 1),
        field!("completed", 2),
        field!("shed", 3),
    ],
};

/// `ok health workers= alive= crashes= restarts= degraded=`.
pub(crate) const HEALTH: Record<HealthReport> = Record {
    prefix: "ok health ",
    fields: &[
        field!("workers", workers),
        field!("alive", alive),
        field!("crashes", crashes),
        field!("restarts", restarts),
        field!("degraded", degraded),
    ],
};

/// The infer reply. `rows` and `cols` are read with `logits`, which
/// they shape; [`parse_response`] rebuilds `latency` as queue + compute.
pub(crate) const INFER_REPLY: Record<RemoteResponse> = Record {
    prefix: "ok ",
    fields: &[
        shape("rows", |r, out| put_plain(out, &r.logits.rows())),
        shape("cols", |r, out| put_plain(out, &r.logits.cols())),
        field!("queue_us", queue_time, put_micros, take_micros),
        field!("compute_us", compute_time, put_micros, take_micros),
        field!("from_cache", from_cache, put_bit, take_bit),
        field!("parts", parts),
        field!("batch", batch_size),
        field!("version", graph_version),
        field!("tenant", tenant),
        field!("cycles", sim_cycles),
        field!("energy", energy_joules, put_energy, take_energy),
        field!("trace", trace_id, put_hex, hex64),
        field!("preds", predictions, push_csv, |w| parse_nodes(w).ok()),
        Field {
            key: "logits",
            put: |r, out| {
                put_joined(out, 0..r.logits.rows(), ';', |out, i| {
                    push_hex_row(out, r.logits.row(i));
                })
            },
            take: |r, fields| {
                let (rows, cols) =
                    (fields.spelled("rows", take_plain)?, fields.spelled("cols", take_plain)?);
                let words = fields.raw("logits")?.split([';', ',']).filter(|w| !w.is_empty());
                let data = words
                    .map(|w| hex64(w).map(f64::from_bits).ok_or_else(|| bad_value("logits", w)))
                    .collect::<Result<_, _>>()?;
                r.logits = Matrix::from_flat(rows, cols, data)
                    .map_err(|e| protocol_error(format!("logits shape: {e}")))?;
                Ok(())
            },
        },
    ],
};

/// A field of the infer reply's logits shape, read back by `logits`.
const fn shape(
    key: &'static str,
    put: fn(&RemoteResponse, &mut String),
) -> Field<RemoteResponse> {
    Field { key, put, take: |_, _| Ok(()) }
}

/// The body of an `err tenant_budget` reply: `needed= budget=`.
const BUDGET: Record<(usize, usize)> =
    Record { prefix: "", fields: &[field!("needed", 0), field!("budget", 1)] };

/// Renders a served response as an `ok` reply line (no newline),
/// echoing the tenant that served it.
#[must_use]
pub fn encode_response(response: &InferResponse, tenant: &str) -> String {
    INFER_REPLY.encode(&RemoteResponse::served(response.clone(), tenant))
}

/// Parses an `ok` infer reply back into a [`RemoteResponse`].
///
/// # Errors
///
/// [`ServerError::Protocol`] when the line does not match the grammar.
pub fn parse_response(line: &str) -> Result<RemoteResponse, ServerError> {
    let response = INFER_REPLY.decode(line)?;
    Ok(RemoteResponse { latency: response.queue_time + response.compute_time, ..response })
}

/// Renders a pool-health report as an `ok health` reply line (no
/// newline).
#[must_use]
pub fn encode_health(health: &HealthReport) -> String {
    HEALTH.encode(health)
}

/// The `list` reply: the tenant count, then one [`TENANT_SEGMENT`] per
/// tenant.
pub(crate) fn encode_list(infos: &[TenantInfo]) -> String {
    let mut line = format!("ok list tenants={}", infos.len());
    for info in infos {
        line.push(' ');
        TENANT_SEGMENT.write(info, &mut line, ':', false);
    }
    line
}

/// Reads a `list` reply back, refusing a roster that disagrees with its
/// own count.
pub(crate) fn decode_list(line: &str) -> Result<Vec<TenantInfo>, ServerError> {
    let body = line
        .strip_prefix("ok list ")
        .ok_or_else(|| protocol_error(format!("expected ok list reply, got {line:?}")))?;
    let mut words = body.split_whitespace();
    let count: usize = parse_kv(words.next(), "tenants").map_err(protocol_error)?;
    // Each segment holds one value per field, in table order.
    let fields = TENANT_SEGMENT.fields;
    let infos = words
        .map(|segment| {
            let values: Vec<&str> = segment.split(':').collect();
            if values.len() != fields.len() {
                let expected = fields.len();
                return Err(protocol_error(format!(
                    "expected {expected} values, got {segment:?}"
                )));
            }
            let unread = fields.iter().map(|f| f.key).zip(values).collect();
            TENANT_SEGMENT.take(&mut Fields { unread })
        })
        .collect::<Result<Vec<_>, _>>()?;
    if infos.len() != count {
        return Err(protocol_error(format!(
            "list reply claims {count} tenants but carries {}",
            infos.len()
        )));
    }
    Ok(infos)
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

/// Writes one wire frame — `line` and its LF — as a single `write_all`:
/// every request, reply (multi-line ones whole) and refusal crosses the
/// socket this way. Both ends run `TCP_NODELAY`, so a separate write
/// for the LF would go out as a second segment, and the reader could
/// wake for a body with no line end only to sleep again.
pub(crate) fn write_frame(writer: &mut impl std::io::Write, line: &str) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(line.len() + 1);
    frame.extend_from_slice(line.as_bytes());
    frame.push(b'\n');
    writer.write_all(&frame)?;
    writer.flush()
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
        let body = line
            .strip_prefix(prefix)
            .ok_or_else(|| protocol_error(format!("expected {prefix:?}…, got {line:?}")))?;
        let mut fields = Self { unread: Vec::new() };
        for word in body.split_whitespace() {
            let (key, value) = word
                .split_once('=')
                .ok_or_else(|| protocol_error(format!("bad field {word:?}")))?;
            if fields.unread.iter().any(|(k, _)| *k == key) {
                return Err(protocol_error(format!("repeated field {key:?}")));
            }
            fields.unread.push((key, value));
        }
        let value = build(&mut fields)?;
        match fields.unread.first() {
            Some((key, _)) => Err(protocol_error(format!("unknown field {key:?}"))),
            None => Ok(value),
        }
    }

    /// The raw value of `key`, which the reply must carry.
    fn raw(&mut self, key: &str) -> Result<&'a str, ServerError> {
        let at = self.unread.iter().position(|(k, _)| *k == key);
        let at = at.ok_or_else(|| protocol_error(format!("reply missing {key}")))?;
        Ok(self.unread.remove(at).1)
    }

    /// The value of `key`, read by `take`.
    pub(crate) fn spelled<V>(&mut self, key: &str, take: Take<V>) -> Result<V, ServerError> {
        let word = self.raw(key)?;
        take(word).ok_or_else(|| bad_value(key, word))
    }
}

fn protocol_error(message: String) -> ServerError {
    ServerError::Protocol(message)
}

fn bad_value(key: &str, word: &str) -> ServerError {
    protocol_error(format!("bad {key} value {word:?}"))
}

/// Renders an error as an `err` reply line (no newline): the kind word,
/// then the message. Tenant errors carry machine-readable fields instead
/// of prose (names are charset-validated and never contain spaces), so
/// [`parse_error`] rebuilds them exactly; the message-carrying kinds
/// carry only their inner message, so the client's rebuilt error
/// displays one prefix, not two.
#[must_use]
pub fn encode_error(error: &ServerError) -> String {
    use ServerError as E;
    let (kind, message) = match error {
        E::Overloaded { .. } => ("overloaded", error.to_string()),
        E::DeadlineExceeded { .. } => ("deadline", error.to_string()),
        E::ShuttingDown => ("shutting_down", error.to_string()),
        E::Canceled => ("canceled", error.to_string()),
        E::WorkerCrashed => ("worker_crashed", error.to_string()),
        E::Timeout { .. } => ("timeout", error.to_string()),
        E::UnknownTenant { name } => ("unknown_tenant", name.clone()),
        E::TenantExists { name } => ("tenant_exists", name.clone()),
        E::TenantBudget { needed, budget } => {
            ("tenant_budget", BUDGET.encode(&(*needed, *budget)))
        }
        E::Engine(e) => ("engine", e.to_string()),
        E::RemoteEngine(message) => ("engine", message.clone()),
        E::Protocol(message) => ("protocol", message.clone()),
        E::Io(message) => ("io", message.clone()),
    };
    format!("err {kind} {message}")
}

/// Parses an `err` reply back into its typed kind. Tenant errors
/// rebuild exactly; detail fields that do not cross — exact depths,
/// waits — come back zeroed; the *kind* is what retry logic branches on.
///
/// # Errors
///
/// [`ServerError::Protocol`] when the line is not an `err` reply of a
/// known kind.
pub fn parse_error(line: &str) -> Result<ServerError, ServerError> {
    use ServerError as E;
    let body = line
        .strip_prefix("err ")
        .ok_or_else(|| protocol_error(format!("expected err reply, got {line:?}")))?;
    let (kind, message) = body.split_once(' ').unwrap_or((body, ""));
    Ok(match kind {
        "overloaded" => E::Overloaded { depth: 0, max_depth: 0 },
        "deadline" => E::DeadlineExceeded { waited: Duration::ZERO },
        "shutting_down" => E::ShuttingDown,
        "canceled" => E::Canceled,
        "worker_crashed" => E::WorkerCrashed,
        "timeout" => E::Timeout { waited: Duration::ZERO },
        "unknown_tenant" => E::UnknownTenant { name: message.to_string() },
        "tenant_exists" => E::TenantExists { name: message.to_string() },
        "tenant_budget" => {
            let (needed, budget) = BUDGET.decode(message)?;
            E::TenantBudget { needed, budget }
        }
        "engine" => E::RemoteEngine(message.to_string()),
        "protocol" => E::Protocol(message.to_string()),
        "io" => E::Io(message.to_string()),
        other => return Err(protocol_error(format!("unknown error kind {other:?}"))),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use blockgnn_engine::{BackendKind, EngineError, RequestMode};
    use blockgnn_gnn::ModelKind;
    use blockgnn_graph::generate::Rng64;

    /// A `Write` that records every `write` call, taking at most `limit`
    /// bytes from each.
    pub(crate) struct CallLog {
        pub calls: Vec<Vec<u8>>,
        limit: usize,
    }

    impl CallLog {
        pub fn new() -> Self {
            Self::taking(usize::MAX)
        }

        pub fn taking(limit: usize) -> Self {
            Self { calls: Vec::new(), limit }
        }

        /// Every byte written, in order.
        pub fn bytes(&self) -> Vec<u8> {
            self.calls.concat()
        }
    }

    impl std::io::Write for CallLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.limit);
            self.calls.push(buf[..n].to_vec());
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The frame `line` must go out as: the line and its LF.
    pub(crate) fn framed(line: &str) -> Vec<u8> {
        format!("{line}\n").into_bytes()
    }

    #[test]
    fn every_frame_is_one_write_holding_its_lf() {
        // The server's single-line replies, a multi-line reply (framed
        // whole), the protocol-error refusal and a request line.
        let health =
            HealthReport { workers: 2, alive: 2, crashes: 0, restarts: 0, degraded: false };
        let frames = [
            "pong".to_string(),
            encode_health(&health),
            encode_lines("metrics", &["# TYPE blockgnn_up gauge", "blockgnn_up 1"]),
            encode_error(&ServerError::Protocol("line exceeds 1048576 bytes".into())),
            Command::Infer(InferRequest::all_nodes(), SubmitOptions::default(), None)
                .to_string(),
        ];
        for line in &frames {
            let mut log = CallLog::new();
            write_frame(&mut log, line).unwrap();
            assert_eq!(log.calls, vec![framed(line)], "{line:?}");
        }
    }

    #[test]
    fn a_frame_arrives_whole_through_one_byte_writes() {
        let line = encode_lines("trace", &["t1", "t2"]);
        let mut log = CallLog::taking(1);
        write_frame(&mut log, &line).unwrap();
        assert_eq!(log.calls.len(), line.len() + 1, "write_all retries the short writes");
        assert_eq!(log.bytes(), framed(&line));
    }

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
    fn simple_commands_parse() {
        assert_eq!(parse_command("ping").unwrap(), Command::Ping);
        assert_eq!(parse_command("stats").unwrap(), Command::Stats(None));
        assert_eq!(parse_command("shutdown").unwrap(), Command::Shutdown);
        assert_eq!(parse_command("health").unwrap(), Command::Health);
        for bad in [
            "nonsense",
            "infer sideways 1,2",
            "infer sampled s1=a s2=2 seed=3 nodes=1",
            "health now",
            "health@t",
            "healthy",
            "health degraded",
        ] {
            assert!(parse_command(bad).is_err(), "{bad:?} must be a protocol error");
        }
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
        let read = |line| {
            Fields::read(line, "ok x ", |f| {
                Ok((f.spelled("a", take_plain::<u32>)?, f.raw("b")?))
            })
        };
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

    /// Every character the wire allows in a tenant name.
    const NAME_CHARS: &[u8] =
        b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.";

    fn name(rng: &mut Rng64) -> String {
        let len = rng.next_below(12) + 1;
        (0..len).map(|_| NAME_CHARS[rng.next_below(NAME_CHARS.len())] as char).collect()
    }

    /// A number of `T`'s width: an edge value or a random one.
    fn edge_u64(rng: &mut Rng64) -> u64 {
        [0, 1, u64::MAX, rng.next_u64()][rng.next_below(4)]
    }

    fn edge_usize(rng: &mut Rng64) -> usize {
        [0, 1, usize::MAX, rng.next_below(1 << 20)][rng.next_below(4)]
    }

    /// An `f64` whose bits the wire must carry exactly: NaNs with
    /// payloads, ±0, ±∞, subnormals, or any bit pattern.
    fn awkward_f64(rng: &mut Rng64) -> f64 {
        let bits = [
            f64::NAN.to_bits(),
            0x7ff0_0000_0000_0001 | rng.next_below(1 << 20) as u64,
            0xfff8_0000_0000_0000,
            (-0.0f64).to_bits(),
            0,
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            1,
            rng.next_u64(),
        ];
        f64::from_bits(bits[rng.next_below(bits.len())])
    }

    fn tenant_info(rng: &mut Rng64, tenant: String) -> TenantInfo {
        let models = ModelKind::all();
        let backends = BackendKind::all();
        TenantInfo {
            name: tenant,
            model: models[rng.next_below(models.len())],
            backend: backends[rng.next_below(backends.len())],
            graph_version: edge_u64(rng),
            num_nodes: edge_usize(rng),
            weight: [1, u32::MAX, rng.next_below(64) as u32][rng.next_below(3)],
            queue_depth: edge_usize(rng),
            resident_bytes: edge_usize(rng),
        }
    }

    fn remote_response(rng: &mut Rng64, tenant: String) -> RemoteResponse {
        let (rows, cols) = (rng.next_below(4), rng.next_below(4));
        let logits = Matrix::from_fn(rows, cols, |_, _| awkward_f64(rng));
        let queue_time = Duration::from_micros(edge_u64(rng) >> 2);
        let compute_time = Duration::from_micros(edge_u64(rng) >> 2);
        RemoteResponse {
            logits,
            predictions: (0..rows).map(|_| edge_usize(rng)).collect(),
            latency: queue_time + compute_time,
            queue_time,
            compute_time,
            from_cache: rng.next_below(2) == 0,
            parts: edge_usize(rng),
            batch_size: edge_usize(rng),
            graph_version: edge_u64(rng),
            tenant,
            sim_cycles: edge_u64(rng),
            energy_joules: (rng.next_below(2) == 0).then(|| awkward_f64(rng)),
            trace_id: edge_u64(rng),
        }
    }

    /// `RemoteResponse` equality with every float compared by its bits.
    fn same_bits(a: &RemoteResponse, b: &RemoteResponse) -> bool {
        let bits = |r: &RemoteResponse| {
            let logits: Vec<u64> = (0..r.logits.rows())
                .flat_map(|i| r.logits.row(i))
                .map(|v| v.to_bits())
                .collect();
            let rest = RemoteResponse {
                logits: Matrix::zeros(r.logits.rows(), r.logits.cols()),
                energy_joules: None,
                ..r.clone()
            };
            (logits, r.energy_joules.map(f64::to_bits), rest)
        };
        bits(a) == bits(b)
    }

    /// Decodes `line` through `record` after dropping each field, after
    /// repeating each, and after appending an unknown one: every variant
    /// must be refused.
    fn assert_refuses_malformed<T: Default>(record: &Record<T>, line: &str) {
        let words: Vec<&str> = line[record.prefix.len()..].split(' ').collect();
        let refused = |words: &[&str]| {
            let line = format!("{}{}", record.prefix, words.join(" "));
            assert!(matches!(record.decode(&line), Err(ServerError::Protocol(_))), "{line:?}");
        };
        for i in 0..words.len() {
            let mut missing = words.clone();
            missing.remove(i);
            refused(&missing);
            let mut repeated = words.clone();
            repeated.push(words[i]);
            refused(&repeated);
        }
        refused(&[words.as_slice(), &["colour=blue"]].concat());
    }

    #[test]
    fn prop_every_reply_record_round_trips_and_refuses_malformed_fields() {
        let mut rng = Rng64::new(0x2E_C0D5);
        let every_char = String::from_utf8(NAME_CHARS.to_vec()).unwrap();
        for round in 0..300 {
            let mut tenant = || if round == 0 { every_char.clone() } else { name(&mut rng) };
            let (t1, t2, t3, t4, t5) = (tenant(), tenant(), tenant(), tenant(), tenant());

            let ack = UpdateAck {
                tenant: t1,
                version: edge_u64(&mut rng),
                num_nodes: edge_usize(&mut rng),
                num_arcs: edge_usize(&mut rng),
            };
            let line = UPDATE_ACK.encode(&ack);
            assert_eq!(UPDATE_ACK.decode(&line), Ok(ack), "{line}");
            assert_refuses_malformed(&UPDATE_ACK, &line);

            // The deploy ack leaves the queue depth off: a tenant just
            // born has none.
            let info = TenantInfo { queue_depth: 0, ..tenant_info(&mut rng, t2) };
            let line = DEPLOY_ACK.encode(&info);
            assert_eq!(DEPLOY_ACK.decode(&line), Ok(info), "{line}");
            assert_refuses_malformed(&DEPLOY_ACK, &line);

            let roster: Vec<TenantInfo> = (0..rng.next_below(4))
                .map(|_| {
                    let tenant = name(&mut rng);
                    tenant_info(&mut rng, tenant)
                })
                .collect();
            let line = encode_list(&roster);
            assert_eq!(decode_list(&line).as_ref(), Ok(&roster), "{line}");
            if let Some(last) = line.rfind(' ').filter(|_| !roster.is_empty()) {
                let short = &line[..line.rfind(':').unwrap()];
                assert!(decode_list(short).is_err(), "a segment missing a value: {short}");
                assert!(decode_list(&format!("{line}:0")).is_err(), "a segment with an extra");
                assert!(decode_list(&line[..last]).is_err(), "a roster short of its count");
            }

            let retire = (t3, edge_usize(&mut rng), edge_usize(&mut rng), edge_usize(&mut rng));
            let line = RETIRE_ACK.encode(&retire);
            assert_eq!(RETIRE_ACK.decode(&line), Ok(retire), "{line}");
            assert_refuses_malformed(&RETIRE_ACK, &line);

            let health = HealthReport {
                workers: edge_usize(&mut rng),
                alive: edge_usize(&mut rng),
                crashes: edge_u64(&mut rng),
                restarts: edge_u64(&mut rng),
                degraded: rng.next_below(2) == 0,
            };
            let line = encode_health(&health);
            assert_eq!(HEALTH.decode(&line), Ok(health), "{line}");
            assert_refuses_malformed(&HEALTH, &line);

            let response = remote_response(&mut rng, t4);
            let line = INFER_REPLY.encode(&response);
            let decoded = parse_response(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert!(same_bits(&decoded, &response), "{line}\n{decoded:?}\n{response:?}");
            assert_refuses_malformed(&INFER_REPLY, &line);

            let budget = (edge_usize(&mut rng), edge_usize(&mut rng));
            let line = BUDGET.encode(&budget);
            assert_eq!(BUDGET.decode(&line), Ok(budget), "{line}");
            assert_refuses_malformed(&BUDGET, &line);

            // Every error kind comes back as its kind; tenant errors and
            // the message-carrying kinds come back whole.
            let message = format!("{} {}", name(&mut rng), name(&mut rng));
            let exact = [
                ServerError::ShuttingDown,
                ServerError::Canceled,
                ServerError::WorkerCrashed,
                ServerError::UnknownTenant { name: t5.clone() },
                ServerError::TenantExists { name: t5 },
                ServerError::TenantBudget { needed: budget.0, budget: budget.1 },
                ServerError::RemoteEngine(message.clone()),
                ServerError::Protocol(message.clone()),
                ServerError::Io(message),
            ];
            for error in exact {
                assert_eq!(parse_error(&encode_error(&error)), Ok(error.clone()), "{error:?}");
            }
            let zeroed = [
                (
                    ServerError::Overloaded { depth: edge_usize(&mut rng), max_depth: 9 },
                    ServerError::Overloaded { depth: 0, max_depth: 0 },
                ),
                (
                    ServerError::DeadlineExceeded { waited: Duration::from_millis(3) },
                    ServerError::DeadlineExceeded { waited: Duration::ZERO },
                ),
                (
                    ServerError::Timeout { waited: Duration::from_millis(250) },
                    ServerError::Timeout { waited: Duration::ZERO },
                ),
                (
                    ServerError::Engine(EngineError::EmptyRequest),
                    ServerError::RemoteEngine(EngineError::EmptyRequest.to_string()),
                ),
            ];
            for (sent, rebuilt) in zeroed {
                assert_eq!(parse_error(&encode_error(&sent)), Ok(rebuilt), "{sent:?}");
            }
        }
        assert!(parse_error("err nonsense kind").is_err());
        assert!(parse_error("ok health workers=1").is_err());
    }
}

//! Deterministic, seeded, **replayable** workload harness: realistic
//! and adversarial traffic for the serving stack, with a serialization
//! format that lets any failing run replay bit-identically.
//!
//! # Determinism & replay contract
//!
//! A [`WorkloadSpec`] is a pure value; [`WorkloadSpec::generate`] maps
//! it through a seeded SplitMix64 stream to a [`Trace`] — the same spec
//! always yields byte-identical traces. A trace event is the request
//! line one client sends at one time, exactly as the TCP front end reads
//! it: well-formed events are written by [`Command`]'s `Display`, the
//! one request encoder, and adversarial ones are the raw bytes. A trace
//! serializes with [`Trace::encode`] (one event per line, the request
//! line verbatim) and decodes back with [`Trace::decode`], so a failing
//! trace can be stored in a bug report and re-driven as-is.
//!
//! Two replay drivers consume a trace, and both read every line the way
//! the server does, with [`parse_command`]:
//!
//! - [`replay_logical`] executes the trace against in-process engines in
//!   **logical time**: the server's own admission, batch forming, batch
//!   execution and update booking, on one virtual worker with zero
//!   service time, handed the trace's microsecond clock wherever the
//!   server passes `Instant::now()`. A garbled line that happens to parse
//!   is executed like any other. Its [`ReplayReport`] (the tenants'
//!   shed / dedup / batch-size counters and an order-sensitive FNV-1a
//!   fingerprint over every served logits bit) is **bit-identical
//!   across runs** of the same trace, which is what lets a differential
//!   test pin the server and the engine behind it to a number.
//! - [`replay_tcp`] drives the trace against a live front end over real
//!   sockets, honouring event times, slow-loris chunking, and
//!   malformed-line floods. Its [`TrafficReport`] checks liveness
//!   properties instead: typed errors only, zero transport failures,
//!   per-class latency distributions. It is the one wall-clock driver,
//!   behind both `blockgnn-client replay` and the closed-loop `load`.
//!
//! # Traffic shapes
//!
//! Node popularity is zipfian ([`WorkloadSpec::zipf_exponent`]) —
//! skewed real-world popularity is what makes the batcher's dedup and
//! the full-graph cache earn their keep. Arrivals are open-loop:
//! uniform-exponential, bursty (alternating hot/quiet phases), or
//! diurnal (sinusoidally modulated rate) per [`ArrivalKind`]. A mean gap
//! far below a reply's round trip closes the loop: [`replay_tcp`] sleeps
//! only while an event is not yet due, so each client sends its next
//! event the moment the previous reply lands.
//! Adversarial events — malformed lines (extending the seeded protocol
//! fuzz corpus), slow-loris partial writes, and deadline storms — mix in
//! at configurable rates.

use crate::batcher::{BatchLimits, Batcher, Step};
use crate::client::{Client, ClientTimeouts, RetryPolicy};
use crate::config::ServerConfig;
use crate::error::ServerError;
use crate::fault::FaultInjector;
use crate::observe::Recorder;
use crate::protocol::{field, parse_command, parse_error, Command, Record};
use crate::queue::{SloClass, SubmitOptions, NUM_CLASSES};
use crate::server::{admit, serve_batch};
use crate::telemetry::ServerStats;
use crate::tenant::{Tenant, DEFAULT_TENANT};
use blockgnn_engine::{Engine, GraphDelta, InferRequest, LatencyHistogram};
use blockgnn_graph::generate::Rng64;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop arrival process shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Exponential inter-arrival gaps around the mean (Poisson-like).
    Uniform,
    /// Alternating hot/quiet phases: bursts at 8× the mean rate, lulls
    /// at ¼ of it, switching every 32 events.
    Bursty,
    /// Sinusoidally modulated rate across the trace — two full
    /// day-night cycles.
    Diurnal,
}

/// Everything that determines a generated trace. Same spec → same
/// trace, byte for byte.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Seed of the SplitMix64 stream every random choice draws from.
    pub seed: u64,
    /// Events to generate.
    pub events: usize,
    /// Client connections the events are spread across.
    pub clients: u32,
    /// Node-id universe requests draw from (the served graph's size).
    pub num_nodes: usize,
    /// Zipf exponent of node popularity (0 = uniform; ~1 = web-like
    /// skew).
    pub zipf_exponent: f64,
    /// Arrival process shape.
    pub arrival: ArrivalKind,
    /// Mean inter-arrival gap in microseconds.
    pub mean_gap_us: u64,
    /// Tenant names traffic fans out across (uniformly, so a name listed
    /// k times draws k shares); empty addresses only the default tenant.
    pub tenants: Vec<String>,
    /// Relative class frequencies (gold, silver, bronze).
    pub class_mix: [u32; NUM_CLASSES],
    /// Graph-update events per 1000.
    pub update_permille: u32,
    /// Of the infer events, how many per 1000 are sampled-mode.
    pub sampled_permille: u32,
    /// Malformed-line events per 1000 (noise + garbled valid lines).
    pub malformed_permille: u32,
    /// Slow-loris events per 1000 (a valid line dribbled in chunks).
    pub slow_loris_permille: u32,
    /// Deadline-storm events per 1000 (bronze infers with ~zero
    /// deadlines that must shed typed, not crash).
    pub deadline_storm_permille: u32,
    /// Feature dimension for generated `feat=` update rows (0 emits
    /// edge-only deltas, which stay valid on any dataset).
    pub feat_dim: usize,
}

impl WorkloadSpec {
    /// A plain zipfian/uniform-arrival spec: no updates, no adversarial
    /// traffic, default-tenant, silver-heavy class mix.
    #[must_use]
    pub fn new(seed: u64, events: usize, num_nodes: usize) -> Self {
        Self {
            seed,
            events,
            clients: 4,
            num_nodes,
            zipf_exponent: 1.0,
            arrival: ArrivalKind::Uniform,
            mean_gap_us: 300,
            tenants: Vec::new(),
            class_mix: [1, 3, 1],
            update_permille: 0,
            sampled_permille: 500,
            malformed_permille: 0,
            slow_loris_permille: 0,
            deadline_storm_permille: 0,
            feat_dim: 0,
        }
    }

    /// Sets the arrival process.
    #[must_use]
    pub fn with_arrival(mut self, arrival: ArrivalKind, mean_gap_us: u64) -> Self {
        self.arrival = arrival;
        self.mean_gap_us = mean_gap_us.max(1);
        self
    }

    /// Sets the zipf exponent of node popularity.
    #[must_use]
    pub fn with_zipf(mut self, exponent: f64) -> Self {
        self.zipf_exponent = exponent;
        self
    }

    /// Sets the client-connection count.
    #[must_use]
    pub fn with_clients(mut self, clients: u32) -> Self {
        self.clients = clients.max(1);
        self
    }

    /// Fans traffic out across named tenants (uniformly).
    #[must_use]
    pub fn with_tenants(mut self, tenants: Vec<String>) -> Self {
        self.tenants = tenants;
        self
    }

    /// Sets the relative class frequencies (gold, silver, bronze).
    #[must_use]
    pub fn with_class_mix(mut self, mix: [u32; NUM_CLASSES]) -> Self {
        self.class_mix = mix;
        self
    }

    /// Mixes in graph updates at the given rate (per 1000 events), with
    /// `feat_dim`-wide feature rows (0 = edge-only deltas).
    #[must_use]
    pub fn with_updates(mut self, permille: u32, feat_dim: usize) -> Self {
        self.update_permille = permille;
        self.feat_dim = feat_dim;
        self
    }

    /// Mixes in adversarial traffic: malformed lines, slow-loris
    /// clients, and deadline storms (each per 1000 events).
    #[must_use]
    pub fn with_adversarial(
        mut self,
        malformed_permille: u32,
        slow_loris_permille: u32,
        deadline_storm_permille: u32,
    ) -> Self {
        self.malformed_permille = malformed_permille;
        self.slow_loris_permille = slow_loris_permille;
        self.deadline_storm_permille = deadline_storm_permille;
        self
    }

    /// Generates the trace this spec describes — a pure function of the
    /// spec (seed included).
    #[must_use]
    pub fn generate(&self) -> Trace {
        let mut rng = Rng64::new(self.seed);
        let zipf = Zipf::new(self.num_nodes.max(1), self.zipf_exponent);
        let mut at_us = 0u64;
        let mut events = Vec::with_capacity(self.events);
        for i in 0..self.events {
            at_us += self.gap_us(&mut rng, i);
            let client = rng.next_below(self.clients.max(1) as usize) as u32;
            let (line, dribble) = self.pick_line(&mut rng, &zipf);
            events.push(TraceEvent { at_us, client, line, dribble });
        }
        Trace { seed: self.seed, clients: self.clients.max(1), events }
    }

    fn gap_us(&self, rng: &mut Rng64, index: usize) -> u64 {
        let mean = match self.arrival {
            ArrivalKind::Uniform => self.mean_gap_us as f64,
            ArrivalKind::Bursty => {
                // Hot/quiet phases alternate every 32 events: 8× the rate
                // in a burst, ¼ of it in a lull.
                if (index / 32).is_multiple_of(2) {
                    self.mean_gap_us as f64 / 8.0
                } else {
                    self.mean_gap_us as f64 * 4.0
                }
            }
            ArrivalKind::Diurnal => {
                // Two full sinusoidal day-night cycles across the trace.
                let period = (self.events.max(2) / 2) as f64;
                let phase = (index as f64 / period) * std::f64::consts::TAU;
                let rate = 1.0 + 0.75 * phase.sin();
                self.mean_gap_us as f64 / rate.max(0.25)
            }
        };
        // Exponential inter-arrival around the phase mean.
        let u = rng.next_f64().min(1.0 - 1e-12);
        (-mean * (1.0 - u).ln()).max(0.0) as u64 + 1
    }

    fn pick_line(&self, rng: &mut Rng64, zipf: &Zipf) -> (String, Option<Dribble>) {
        let roll = rng.next_below(1000) as u32;
        let malformed_at = self.malformed_permille;
        let slow_at = malformed_at + self.slow_loris_permille;
        let storm_at = slow_at + self.deadline_storm_permille;
        let update_at = storm_at + self.update_permille;
        if roll < malformed_at {
            return (self.malformed_line(rng, zipf), None);
        }
        if roll < slow_at {
            let line = self.infer(rng, zipf, false).to_string();
            let chunks = rng.next_below(5) + 2;
            let pause_us = 200 + rng.next_below(800) as u64;
            return (line, Some(Dribble { chunks, pause_us }));
        }
        let command = if roll < storm_at {
            self.infer(rng, zipf, true)
        } else if roll < update_at {
            Command::Update(self.delta(rng, zipf), self.tenant(rng))
        } else {
            self.infer(rng, zipf, false)
        };
        (command.to_string(), None)
    }

    /// An infer command. A deadline-`storm` one rides bronze with a ~zero
    /// deadline the server must shed typed, never crash or stall on; its
    /// class is drawn all the same, then overridden.
    fn infer(&self, rng: &mut Rng64, zipf: &Zipf, storm: bool) -> Command {
        let count = rng.next_below(3) + 1;
        let nodes: Vec<usize> = (0..count).map(|_| zipf.sample(rng)).collect();
        let request = if (rng.next_below(1000) as u32) < self.sampled_permille {
            InferRequest::sampled(
                nodes,
                4 + rng.next_below(8),
                2 + rng.next_below(4),
                rng.next_u64(),
            )
        } else if rng.next_below(12) == 0 {
            // Occasionally hit the whole-graph cache path.
            InferRequest::all_nodes()
        } else {
            InferRequest::full_graph(nodes)
        };
        let mut options = SubmitOptions { class: self.class(rng), deadline: None };
        let tenant = self.tenant(rng);
        if storm {
            let deadline = Duration::from_millis(rng.next_below(2) as u64);
            options = SubmitOptions { class: SloClass::Bronze, deadline: Some(deadline) };
        }
        Command::Infer(request, options, tenant)
    }

    fn class(&self, rng: &mut Rng64) -> SloClass {
        let total: u32 = self.class_mix.iter().sum();
        if total == 0 {
            return SloClass::default();
        }
        let mut slot = rng.next_below(total as usize) as u32;
        for class in SloClass::ALL {
            let w = self.class_mix[class.index()];
            if slot < w {
                return class;
            }
            slot -= w;
        }
        SloClass::default()
    }

    fn tenant(&self, rng: &mut Rng64) -> Option<String> {
        if self.tenants.is_empty() {
            None
        } else {
            Some(self.tenants[rng.next_below(self.tenants.len())].clone())
        }
    }

    fn delta(&self, rng: &mut Rng64, zipf: &Zipf) -> GraphDelta {
        let mut delta = GraphDelta::new();
        for _ in 0..rng.next_below(2) + 1 {
            delta = delta.add_edge(zipf.sample(rng), zipf.sample(rng));
        }
        if self.feat_dim > 0 && rng.next_below(3) == 0 {
            let row: Vec<f64> = (0..self.feat_dim).map(|_| rng.next_normal() * 0.1).collect();
            delta = delta.set_feature_row(zipf.sample(rng), row);
        }
        delta
    }

    fn malformed_line(&self, rng: &mut Rng64, zipf: &Zipf) -> String {
        let line = if rng.next_below(2) == 0 {
            // Pure printable noise.
            (0..rng.next_below(30) + 1)
                .map(|_| (rng.next_below(94) + 33) as u8 as char)
                .collect()
        } else {
            // A valid infer line with one garbled byte — the nastier
            // corpus, because it is *almost* well-formed.
            let mut bytes = self.infer(rng, zipf, false).to_string().into_bytes();
            let at = rng.next_below(bytes.len());
            bytes[at] = (rng.next_below(94) + 33) as u8;
            String::from_utf8_lossy(&bytes).into_owned()
        };
        // Never let chance assemble a line that would mutate or stop the
        // server mid-replay; everything else (even chance-valid infers,
        // which both replays execute) is fair game.
        match parse_command(&line) {
            Ok(Command::Shutdown | Command::Deploy(_) | Command::Retire(_)) => {
                format!("~{line}")
            }
            _ => line,
        }
    }
}

/// Precomputed zipfian sampler over `0..n` (rank 0 most popular).
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Builds the inverse-CDF table for `n` ranks at the given exponent.
    #[must_use]
    pub fn new(n: usize, exponent: f64) -> Self {
        let mut cumulative = Vec::with_capacity(n.max(1));
        let mut total = 0.0;
        for rank in 0..n.max(1) {
            total += 1.0 / ((rank + 1) as f64).powf(exponent);
            cumulative.push(total);
        }
        Self { cumulative }
    }

    /// Draws one node id.
    pub fn sample(&self, rng: &mut Rng64) -> usize {
        let total = *self.cumulative.last().expect("non-empty table");
        let target = rng.next_f64() * total;
        self.cumulative.partition_point(|&c| c < target).min(self.cumulative.len() - 1)
    }
}

/// One workload event: the request line one client sends at one time.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Microseconds since trace start when the client starts sending.
    pub at_us: u64,
    /// The client connection that sends it.
    pub client: u32,
    /// The request line (no newline) exactly as the server reads it:
    /// a [`Command`]'s `Display` for well-formed traffic, noise or a
    /// garbled command for malformed traffic.
    pub line: String,
    /// `Some` for a slow-loris client, which dribbles the line out in
    /// chunks instead of sending it whole.
    pub dribble: Option<Dribble>,
}

/// How a slow-loris client dribbles its line: the line assembler must
/// tolerate it, and the line arrives when the last chunk lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dribble {
    /// Write chunks the line is split into.
    pub chunks: usize,
    /// Pause between chunks, microseconds.
    pub pause_us: u64,
}

/// A generated (or decoded) workload: replayable, serializable,
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The generating seed (informational once generated).
    pub seed: u64,
    /// Client-connection count.
    pub clients: u32,
    /// Events in generation order (`at_us` non-decreasing).
    pub events: Vec<TraceEvent>,
}

/// A trace file's first line, `blockgnn-trace v2 seed= clients= events=`.
const TRACE_HEADER: Record<(u64, u32, usize)> = Record {
    prefix: "blockgnn-trace v2 ",
    fields: &[field!("seed", 0), field!("clients", 1), field!("events", 2)],
};

impl Trace {
    /// Serializes the trace under a `blockgnn-trace v2` header, one event
    /// per line: `AT CLIENT - LINE` for a line sent whole, `AT CLIENT
    /// CHUNKS:PAUSE_US LINE` for a dribbled one. The request line is
    /// written verbatim, so the file is the wire traffic (hex `f64` bits
    /// and all) and inherits the protocol's round-trip guarantees.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = TRACE_HEADER.encode(&(self.seed, self.clients, self.events.len()));
        out.push('\n');
        for TraceEvent { at_us, client, line, dribble } in &self.events {
            let _ = match dribble {
                None => writeln!(out, "{at_us} {client} - {line}"),
                Some(Dribble { chunks, pause_us }) => {
                    writeln!(out, "{at_us} {client} {chunks}:{pause_us} {line}")
                }
            };
        }
        out
    }

    /// Decodes a serialized trace (v2 only: the header check refuses any
    /// other version).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the first offending line.
    pub fn decode(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty trace")?;
        let (seed, clients, count) =
            TRACE_HEADER.decode(header).map_err(|e| format!("bad trace header: {e}"))?;
        let events = lines
            .filter(|line| !line.is_empty())
            .map(|line| decode_event(line).ok_or_else(|| format!("bad trace event {line:?}")))
            .collect::<Result<Vec<_>, _>>()?;
        if events.len() != count {
            return Err(format!(
                "header claims {count} events but trace carries {}",
                events.len()
            ));
        }
        Ok(Self { seed, clients, events })
    }
}

/// One `AT CLIENT DRIBBLE LINE` event line; `None` if it is malformed.
fn decode_event(text: &str) -> Option<TraceEvent> {
    let mut words = text.splitn(4, ' ');
    let at_us = words.next()?.parse().ok()?;
    let client = words.next()?.parse().ok()?;
    let dribble = match words.next()? {
        "-" => None,
        chunking => {
            let (chunks, pause_us) = chunking.split_once(':')?;
            Some(Dribble { chunks: chunks.parse().ok()?, pause_us: pause_us.parse().ok()? })
        }
    };
    Some(TraceEvent { at_us, client, line: words.next()?.to_string(), dribble })
}

/// What a logical replay observed — every field deterministic for a
/// given (trace, limits, engines) input, including the logits
/// fingerprint. The replay counts only what no tenant receives; the
/// rest is read off the tenants' [`crate::ServerStats`] counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Infer requests offered to a deployed tenant's admission.
    pub infers: usize,
    /// Requests answered with logits.
    pub served: usize,
    /// Requests shed because their deadline had been reached at their
    /// batch's logical execution time.
    pub shed_deadline: usize,
    /// Requests refused at admission (invalid nodes, …) or failed in
    /// the engine.
    pub engine_errors: usize,
    /// Lines the parser rejected.
    pub protocol_errors: usize,
    /// Lines that parse as a verb other than `infer` or `update` (a
    /// garbled line can read as `ping`, `stats`, …); nothing executes
    /// them here.
    pub other_verbs: usize,
    /// Infer and update lines addressed to a tenant with no engine.
    pub unknown_tenant: usize,
    /// Updates applied.
    pub updates: usize,
    /// Updates the engine rejected.
    pub failed_updates: usize,
    /// Batches executed.
    pub batches: usize,
    /// Requests that shared another's execution (within-batch dedup).
    pub deduped: usize,
    /// batch size → number of batches of that size.
    pub batch_size_counts: BTreeMap<usize, usize>,
    /// Served requests per class (gold, silver, bronze).
    pub class_served: [usize; NUM_CLASSES],
    /// Order-sensitive FNV-1a over every served response's logits bits
    /// (plus shape), in admission order — the "per-request logits bits"
    /// of the replay contract in one word.
    pub logits_fingerprint: u64,
}

/// Replays a trace against in-process engines in **logical time**,
/// through the server's own admission, batch and update code on one
/// virtual worker: the batcher forms batches under `limits`, and every
/// step reads the trace's clock (an origin plus each event's offset)
/// where the threaded server reads `Instant::now()`, so two runs over
/// the same inputs produce byte-identical [`ReplayReport`]s. `engines`
/// maps tenant names (use [`crate::DEFAULT_TENANT`] for unqualified
/// traffic) to freshly built engines; each serves through a fork that
/// shares its graph epochs, so updates apply and caches warm in place.
///
/// Modelled around that code: **zero** service time, weight-1 tenants
/// with unbounded lanes, [`SloClass::WEIGHTS`] and
/// [`ServerConfig::default`]'s deadlines. Events arrive in time order
/// (slow-loris lines when their last chunk lands) and every arrival
/// wakes the worker, as `push` notifies a sleeping one; a hold that
/// runs out before the next arrival expires first, a tie goes to the
/// arrival. Updates apply when
/// they arrive, so a batch held open across one executes on the new
/// version — the server's between-batches swap. A batch executes at the
/// logical time it closed, which is when its members' deadlines shed.
pub fn replay_logical(
    engines: &mut BTreeMap<String, Engine>,
    trace: &Trace,
    limits: &BatchLimits,
) -> ReplayReport {
    let config = ServerConfig::default();
    // A tenant's id is its position here (the map's name order).
    let tenants: Vec<Arc<Tenant>> = engines
        .iter()
        .enumerate()
        .map(|(id, (name, engine))| {
            Arc::new(Tenant::forked(id as u64, name, 1, usize::MAX, engine.fork(), 1))
        })
        .collect();
    let recorder = Recorder::new(1, false);
    let injector = FaultInjector::disabled();
    let origin = Instant::now();
    let mut ordered: Vec<(Instant, &TraceEvent)> = trace
        .events
        .iter()
        .map(|event| {
            let dribble = event.dribble.map_or(0, |d| d.pause_us * d.chunks as u64);
            (origin + Duration::from_micros(event.at_us + dribble), event)
        })
        .collect();
    ordered.sort_by_key(|(at, event)| (*at, event.client));
    let mut arrivals = ordered.into_iter().peekable();
    let mut batcher = Batcher::new(SloClass::WEIGHTS);
    let mut report = ReplayReport::default();
    let mut tickets = Vec::new();
    // The virtual worker: the batch it holds open, and when it asked to
    // be woken (`None`: idle on an empty queue).
    let mut forming = None;
    let mut wake: Option<Instant> = None;
    loop {
        let arrival = arrivals.next_if(|(at, _)| wake.is_none_or(|due| *at <= due));
        let now = match (arrival, wake) {
            (Some((now, event)), _) => {
                if let Some((tenant, request, options)) = arrive(event, &tenants, &mut report) {
                    let push = |lane, entry| batcher.admit(lane, false, entry);
                    // A refused request is booked by its tenant and has
                    // no ticket.
                    let admitted =
                        admit(tenant, &config, &recorder, request, options, now, push);
                    tickets.extend(admitted.ok());
                }
                now
            }
            (None, Some(due)) => due,
            (None, None) => break,
        };
        // Awake at `now`, the worker closes and executes every batch the
        // batcher gives it, until it is told to hold or runs dry.
        wake = loop {
            let Some(mut open) = forming.take().or_else(|| batcher.begin()) else { break None };
            if let Step::HoldUntil(until) = batcher.advance(&mut open, limits, now) {
                forming = Some(open);
                break Some(until);
            }
            serve_batch(batcher.finish(open), &recorder, 0, &injector, now, || {});
        };
    }
    // 64-bit FNV-1a over each answer's shape and logits bits.
    let fnv = |hash: u64, word: u64| (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    let answers = tickets.into_iter().filter_map(|ticket| ticket.wait().ok());
    let fingerprint = answers.fold(0xcbf2_9ce4_8422_2325, |hash, answer| {
        let logits = &answer.logits;
        let bits = logits.as_slice().iter().map(|v| v.to_bits());
        [logits.rows() as u64, logits.cols() as u64].into_iter().chain(bits).fold(hash, fnv)
    });
    let mut booked = ServerStats::default();
    for tenant in &tenants {
        booked.absorb(&tenant.telemetry.snapshot());
    }
    let class_served = |class| booked.classes.get(&class).map_or(0, |c| c.completed);
    ReplayReport {
        infers: booked.submitted,
        served: booked.completed,
        shed_deadline: booked.shed_deadline,
        engine_errors: booked.failed,
        updates: booked.updates,
        failed_updates: booked.failed_updates,
        batches: booked.batches,
        deduped: booked.deduped,
        batch_size_counts: booked.batch_size_counts,
        class_served: SloClass::ALL.map(class_served),
        logits_fingerprint: fingerprint,
        ..report
    }
}

/// One trace line taking effect, read as `tcp::serve_connection` reads
/// it: an update is applied and booked by its tenant, what no deployed
/// tenant receives is counted in `report`, and an infer is handed back
/// with its tenant for admission.
fn arrive<'a>(
    event: &TraceEvent,
    tenants: &'a [Arc<Tenant>],
    report: &mut ReplayReport,
) -> Option<(&'a Arc<Tenant>, InferRequest, SubmitOptions)> {
    let mut find = |name: Option<String>| {
        let name = name.as_deref().unwrap_or(DEFAULT_TENANT);
        let tenant = tenants.iter().find(|tenant| tenant.name == name);
        report.unknown_tenant += usize::from(tenant.is_none());
        tenant
    };
    match parse_command(event.line.trim()) {
        Ok(Command::Infer(request, options, name)) => Some((find(name)?, request, options)),
        Ok(Command::Update(delta, name)) => {
            // A rejected delta is booked as a failed update.
            let _ = find(name)?.update(&delta);
            None
        }
        Ok(_) => {
            report.other_verbs += 1;
            None
        }
        Err(_) => {
            report.protocol_errors += 1;
            None
        }
    }
}

/// What a wall-clock TCP replay observed. Unlike [`ReplayReport`] this
/// is timing-dependent; the invariants it checks are liveness ones —
/// every line answered, typed errors only, no dropped connections.
#[derive(Debug, Clone, Default)]
pub struct TrafficReport {
    /// Events driven.
    pub sent: usize,
    /// `ok`/`pong` replies.
    pub ok: usize,
    /// Typed overload/deadline sheds.
    pub shed: usize,
    /// Other typed `err` replies (protocol, engine, unknown tenant…) —
    /// the *expected* answer to adversarial lines.
    pub typed_errors: usize,
    /// Transport failures: dropped connections, unreadable replies. A
    /// healthy server under adversarial load keeps this at **zero**.
    pub transport_errors: usize,
    /// Updates acknowledged.
    pub updates_ok: usize,
    /// Attempts recovered by [`replay_tcp`]'s retry budget (reconnect +
    /// re-send after a reset, or re-submit after a crashed-worker
    /// reply); zero under a one-attempt policy.
    pub retries: usize,
    /// Client-observed infer latency per class (gold, silver, bronze).
    pub class_latency: [LatencyHistogram; NUM_CLASSES],
    /// Wall-clock of the whole replay.
    pub elapsed: Duration,
}

impl TrafficReport {
    /// The p99 client-observed infer latency of one class.
    #[must_use]
    pub fn class_p99(&self, class: SloClass) -> Duration {
        self.class_latency[class.index()].p99()
    }

    /// `ok` replies per second of wall-clock.
    #[must_use]
    pub fn qps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ok as f64 / secs
        }
    }

    fn merge(&mut self, other: &TrafficReport) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.shed += other.shed;
        self.typed_errors += other.typed_errors;
        self.transport_errors += other.transport_errors;
        self.updates_ok += other.updates_ok;
        self.retries += other.retries;
        for (mine, theirs) in self.class_latency.iter_mut().zip(&other.class_latency) {
            mine.merge(theirs);
        }
    }
}

/// Replays a trace against a live TCP front end: one sequential
/// [`Client`] connection per trace client, dialled with `timeouts`, each
/// sleeping only while its next event is not yet due and classifying
/// every reply. The server is expected to answer *every* line —
/// adversarial ones with typed `err` replies on a connection that stays
/// open.
///
/// Each event gets up to [`RetryPolicy::attempts`] tries — the chaos
/// lane's graceful-degradation recovery; a one-attempt policy is a plain
/// replay. A dropped/reset connection (or a failed
/// connect) redials and re-sends, a `err worker_crashed` reply
/// re-submits on the intact connection, with the policy's jittered
/// backoff between tries. Only *unrecovered* failures land in
/// [`TrafficReport::transport_errors`]; every recovery increments
/// [`TrafficReport::retries`]. A failed connection is never reused, so a
/// reply that arrives after its deadline cannot answer a later event.
///
/// Re-sending is exactly-once in effect: the server's socket-fault
/// injection point fires *before* command dispatch, so a reset command
/// was never processed, and a crashed worker never published its
/// batch's responses — inference is pure per graph version besides.
///
/// # Panics
///
/// Panics only if a replay thread itself panics; connection failures
/// are consumed by the retry budget.
#[must_use]
pub fn replay_tcp(
    addr: SocketAddr,
    trace: &Trace,
    policy: &RetryPolicy,
    timeouts: ClientTimeouts,
) -> TrafficReport {
    let start = Instant::now();
    let reports = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..trace.clients)
            .map(|c| {
                let events: Vec<&TraceEvent> =
                    trace.events.iter().filter(|e| e.client == c).collect();
                scope.spawn(move || {
                    let mut report = TrafficReport::default();
                    let mut conn: Option<Client> = None;
                    for event in events {
                        let due = Duration::from_micros(event.at_us);
                        let elapsed = start.elapsed();
                        if due > elapsed {
                            std::thread::sleep(due - elapsed);
                        }
                        report.sent += 1;
                        // The wire line is fixed per event, so every
                        // retry re-sends byte-identical input. Slow-loris
                        // chunking only shapes the first try — retries
                        // are about delivery, not adversarial pacing.
                        // Class latency is read off infers sent whole.
                        let infer_class = match (event.dribble, parse_command(&event.line)) {
                            (None, Ok(Command::Infer(_, options, _))) => Some(options.class),
                            _ => None,
                        };
                        let dribble = event
                            .dribble
                            .map(|d| (d.chunks, Duration::from_micros(d.pause_us)));
                        let budget = policy.attempts.max(1);
                        let mut attempt = 0u32;
                        loop {
                            let sent_at = Instant::now();
                            let dribble = dribble.filter(|_| attempt == 0);
                            let line = &event.line;
                            let step = drive_once(&mut conn, addr, timeouts, line, dribble);
                            match step {
                                Ok(reply)
                                    if matches!(
                                        parse_error(&reply),
                                        Ok(ServerError::WorkerCrashed)
                                    ) && attempt + 1 < budget =>
                                {
                                    report.retries += 1;
                                    std::thread::sleep(policy.backoff(attempt));
                                    attempt += 1;
                                }
                                Ok(reply) => {
                                    classify(&reply, infer_class, sent_at, &mut report);
                                    break;
                                }
                                Err(()) if attempt + 1 < budget => {
                                    report.retries += 1;
                                    std::thread::sleep(policy.backoff(attempt));
                                    attempt += 1;
                                }
                                Err(()) => {
                                    report.transport_errors += 1;
                                    break;
                                }
                            }
                        }
                    }
                    report
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("replay client thread")).collect::<Vec<_>>()
    });
    let mut merged = TrafficReport { elapsed: start.elapsed(), ..TrafficReport::default() };
    for r in &reports {
        merged.merge(r);
    }
    merged
}

/// One attempt of [`replay_tcp`]: (re)connect if needed, send the line
/// (dribbled when asked), read one reply. Any transport failure drops
/// the connection (its state is suspect, so the next try redials) and
/// collapses to `Err(())` — the caller's retry budget deals with it.
fn drive_once(
    conn: &mut Option<Client>,
    addr: SocketAddr,
    timeouts: ClientTimeouts,
    line: &str,
    dribble: Option<(usize, Duration)>,
) -> Result<String, ()> {
    if conn.is_none() {
        *conn = Some(Client::connect_with(addr, timeouts).map_err(|_| ())?);
    }
    let Some(client) = conn.as_mut() else { return Err(()) };
    client.exchange(line, dribble).map_err(|_| *conn = None)
}

fn classify(
    reply: &str,
    infer_class: Option<SloClass>,
    sent_at: Instant,
    report: &mut TrafficReport,
) {
    if reply == "pong" || reply.starts_with("ok stats") || reply.starts_with("ok list") {
        report.ok += 1;
    } else if reply.starts_with("ok update") {
        report.ok += 1;
        report.updates_ok += 1;
    } else if reply.starts_with("ok ") {
        report.ok += 1;
        if let Some(class) = infer_class {
            report.class_latency[class.index()].record(sent_at.elapsed());
        }
    } else if reply.starts_with("err ") {
        match parse_error(reply) {
            Ok(ServerError::Overloaded { .. } | ServerError::DeadlineExceeded { .. }) => {
                report.shed += 1;
            }
            _ => report.typed_errors += 1,
        }
    } else {
        // An unparseable reply is as bad as a dropped connection.
        report.transport_errors += 1;
    }
}

/// The pinned adversarial spec the CI `workload-replay` lane (and the
/// `blockgnn-client replay` subcommand) drive against a release binary:
/// bursty arrivals, zipfian popularity, updates, malformed floods,
/// slow-loris clients, and a deadline storm, all from one frozen seed.
#[must_use]
pub fn ci_adversarial_spec(num_nodes: usize) -> WorkloadSpec {
    WorkloadSpec::new(0xC1AD_5EED, 400, num_nodes)
        .with_arrival(ArrivalKind::Bursty, 700)
        .with_clients(4)
        .with_zipf(1.1)
        .with_updates(40, 0)
        .with_adversarial(80, 40, 60)
}

// Unit tests here cover the pieces with no server in the loop; the
// end-to-end suites live in `tests/workloads.rs`.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::encode_error;

    #[test]
    fn traces_are_deterministic_and_round_trip() {
        let spec = ci_adversarial_spec(60).with_tenants(vec!["traffic".into()]);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a, b, "same spec → identical trace");
        assert_eq!(a.encode(), b.encode(), "… and identical serialization");
        let decoded = Trace::decode(&a.encode()).unwrap();
        assert_eq!(decoded, a, "decode inverts encode exactly");
        // The adversarial mix actually contains every event flavour.
        let has = |f: fn(&TraceEvent) -> bool| a.events.iter().any(f);
        assert!(has(|e| matches!(parse_command(&e.line), Ok(Command::Infer(..)))));
        assert!(has(|e| matches!(parse_command(&e.line), Ok(Command::Update(..)))));
        assert!(has(|e| parse_command(&e.line).is_err()));
        assert!(has(|e| e.dribble.is_some()));
        // Times are non-decreasing (open-loop arrivals accumulate).
        assert!(a.events.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }

    #[test]
    fn zipf_skews_toward_the_head() {
        let mut rng = Rng64::new(7);
        let zipf = Zipf::new(100, 1.2);
        let mut counts = [0usize; 100];
        for _ in 0..4000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let head: usize = counts[..10].iter().sum();
        let tail: usize = counts[90..].iter().sum();
        assert!(
            head > tail * 5,
            "head ranks dominate a zipf(1.2) draw: head={head} tail={tail}"
        );
        assert!(counts[0] >= counts[50], "rank 0 beats rank 50");
    }

    #[test]
    fn err_replies_classify_by_their_typed_kind() {
        let tally = |reply: &str| {
            let mut report = TrafficReport::default();
            classify(reply, None, Instant::now(), &mut report);
            (report.shed, report.typed_errors, report.transport_errors)
        };
        let sheds = [
            ServerError::Overloaded { depth: 4, max_depth: 4 },
            ServerError::DeadlineExceeded { waited: Duration::from_millis(3) },
        ];
        for error in &sheds {
            assert_eq!(tally(&encode_error(error)), (1, 0, 0), "{error:?}");
        }
        let typed = [
            ServerError::ShuttingDown,
            ServerError::Canceled,
            ServerError::WorkerCrashed,
            ServerError::Timeout { waited: Duration::from_millis(3) },
            ServerError::UnknownTenant { name: "ghost".into() },
            ServerError::TenantExists { name: "twin".into() },
            ServerError::TenantBudget { needed: 9, budget: 4 },
            ServerError::RemoteEngine("node 99 out of range".into()),
            ServerError::Protocol("bad line".into()),
            ServerError::Io("reset".into()),
        ];
        for error in &typed {
            assert_eq!(tally(&encode_error(error)), (0, 1, 0), "{error:?}");
        }
        // An `err` line of no known kind is still typed; a line that is
        // no reply at all is a transport failure.
        assert_eq!(tally("err overloadedish x"), (0, 1, 0));
        assert_eq!(tally("garbage"), (0, 0, 1));
    }

    #[test]
    fn arrival_processes_shape_the_gaps() {
        let base = WorkloadSpec::new(11, 400, 50);
        let span = |arrival| {
            let spec = base.clone().with_arrival(arrival, 300);
            spec.generate().events.last().unwrap().at_us
        };
        let uniform = span(ArrivalKind::Uniform);
        let bursty = span(ArrivalKind::Bursty);
        // Bursty spends half its events at 8× the rate and half at ¼ of
        // it, so its span is dominated by the lulls — much longer than
        // uniform's.
        assert!(
            bursty > uniform,
            "bursty lulls stretch the trace: bursty={bursty} uniform={uniform}"
        );
        // Malformed payloads can never assemble into lifecycle commands.
        let adv = base.clone().with_adversarial(1000, 0, 0).generate();
        for event in &adv.events {
            assert!(!matches!(
                parse_command(&event.line),
                Ok(Command::Shutdown | Command::Deploy(_) | Command::Retire(_))
            ));
        }
    }

    #[test]
    fn class_mix_and_deadline_storms_materialize() {
        // A tenant listed three times is drawn three times as often: the
        // weighted mix `blockgnn-client load --tenant NAME:WEIGHT` builds.
        let tenants = ["hot", "hot", "hot", "cold"].map(String::from).to_vec();
        let spec = WorkloadSpec::new(3, 600, 40)
            .with_class_mix([8, 1, 1])
            .with_adversarial(0, 0, 100)
            .with_tenants(tenants);
        let trace = spec.generate();
        assert_eq!(trace, spec.generate(), "same spec, same tenant draws");
        let mut gold = 0usize;
        let mut storm = 0usize;
        let mut total = 0usize;
        let mut hot = 0usize;
        for event in &trace.events {
            if let Ok(Command::Infer(_, options, tenant)) = parse_command(&event.line) {
                total += 1;
                if tenant.as_deref() == Some("hot") {
                    hot += 1;
                }
                if options.class == SloClass::Gold {
                    gold += 1;
                }
                if options.deadline.is_some() {
                    assert_eq!(options.class, SloClass::Bronze, "storms ride bronze");
                    storm += 1;
                }
            }
        }
        assert!(gold * 2 > total, "8:1:1 mix makes gold the majority: {gold}/{total}");
        assert!(storm > 20, "a 10% storm rate shows up: {storm}");
        let cold = total - hot;
        assert!(hot > 2 * cold, "the weight-3 tenant dominates: hot={hot} cold={cold}");
    }
}

//! The layer ladder of the traced pass: one request shape timed at every
//! layer, from outside, by calling each crate's public functions. Layer
//! names are crate names. The `serve_single` request shape is the spine
//! (so the rungs can be summed against that workload's latency) and the
//! `full_offline` shape feeds the kernel rungs.
//!
//! Each rung is the median of [`MANY`] calls ([`FEW`] for rungs that take
//! about a millisecond) after a warm-up of a tenth as many; every call is
//! one span. `*_self_*` metrics are a rung minus the rungs it contains.

use crate::affinity::Pin;
use crate::estimator::median;
use crate::gen::{HotStream, ReadStream, SingleStream, WriteStream, S1, S2};
use crate::span::Recorder;
use crate::workloads::serve_single::{cora, serve_cora};
use crate::workloads::update_mix::pubmed;
use crate::workloads::{
    engine, full_offline, BLOCK_SIZE, CORA_NODES, HIDDEN_DIM, MODEL_SEED, PUBMED_FEATURES,
    PUBMED_NODES,
};
use blockgnn_accel::BlockGnnAccelerator;
use blockgnn_core::{BlockCirculantMatrix, RealSpectralBlockCirculant, SpectralScratch};
use blockgnn_engine::{BackendKind, InferRequest, RequestMode, PAPER_FANOUTS};
use blockgnn_fft::{Complex, RealFftPlan};
use blockgnn_gnn::batch::MergedUniverse;
use blockgnn_gnn::sampled::SampledSubgraph;
use blockgnn_gnn::workload::GnnWorkload;
use blockgnn_gnn::{build_model, GnnModel, ModelKind};
use blockgnn_graph::{Dataset, DatasetSpec, NeighborSampler, VersionedGraph};
use blockgnn_linalg::Matrix;
use blockgnn_nn::{Compression, ExecMode, Layer, LinearLayer};
use blockgnn_perf::coeffs::HardwareCoeffs;
use blockgnn_perf::cycles::total_cycles;
use blockgnn_perf::params::CirCoreParams;
use blockgnn_server::{protocol, Client, SubmitOptions};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Calls per rung at full scale.
pub const MANY: usize = 2_000;
/// Calls per millisecond-scale rung at full scale.
pub const FEW: usize = 200;
/// Calls folded into one span for rungs shorter than a microsecond, so a
/// sample stays well above the clock's resolution.
const CHUNK: usize = 256;
/// Distinct spine requests the rungs cycle through.
const SPINE: usize = 64;

/// The engine's public `stage_timings` names, the span each becomes, and
/// the metric its median is reported as.
const STAGES: [(&str, &str, &str); 5] = [
    ("sample", "engine.stage_sample", "engine.stage_sample_us"),
    ("merge", "engine.stage_merge", "engine.stage_merge_us"),
    ("gather", "engine.stage_gather", "engine.stage_gather_us"),
    ("execute", "engine.stage_execute", "engine.stage_execute_us"),
    ("scatter", "engine.stage_scatter", "engine.stage_scatter_us"),
];

const COMPRESSION: Compression = Compression::BlockCirculant { block_size: BLOCK_SIZE };

/// Per-layer metric values by catalogue name, in the catalogue's units.
pub type Values = BTreeMap<&'static str, f64>;

struct Ladder {
    recorder: Recorder,
    /// Share of the full call counts to run (`--quick` runs a tenth).
    scale: f64,
    values: Values,
}

impl Ladder {
    fn calls(&self, full: usize) -> usize {
        ((full as f64 * self.scale).round() as usize).max(20)
    }

    /// Times `calls` calls of `call` after a warm-up, one span each, and
    /// hands every result to `after` outside the timed interval. Returns
    /// the per-call durations in nanoseconds.
    fn time<R>(
        &mut self,
        name: &'static str,
        full_calls: usize,
        mut call: impl FnMut(usize) -> R,
        mut after: impl FnMut(&mut Recorder, usize, R),
    ) -> Vec<f64> {
        let calls = self.calls(full_calls);
        let warmup = (calls / 10).max(3);
        for i in 0..warmup {
            black_box(call(i));
        }
        let mut samples = Vec::with_capacity(calls);
        for i in 0..calls {
            let start = Instant::now();
            let result = black_box(call(warmup + i));
            let end = Instant::now();
            let span = self.recorder.timed(name, start, end, i as u64);
            after(&mut self.recorder, span, result);
            samples.push(end.duration_since(start).as_nanos() as f64);
        }
        samples
    }

    /// Median nanoseconds of one call of `call`.
    fn rung<R>(
        &mut self,
        name: &'static str,
        full_calls: usize,
        call: impl FnMut(usize) -> R,
    ) -> f64 {
        median(&self.time(name, full_calls, call, |_, _, _| {})).expect("at least one call")
    }

    /// [`Ladder::rung`] for sub-microsecond calls: each span covers
    /// [`CHUNK`] calls and the sample is the span divided by that.
    fn rung_chunked(&mut self, name: &'static str, mut call: impl FnMut()) -> f64 {
        let per_chunk = self.rung(name, MANY, |_| (0..CHUNK).for_each(|_| call()));
        per_chunk / CHUNK as f64
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.values[name]
    }
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = crate::gen::SplitMix64::new(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.next_f64() * 2.0 - 1.0)
}

fn sampling_seed(request: &InferRequest) -> u64 {
    match request.mode {
        RequestMode::Sampled { seed, .. } => seed,
        RequestMode::FullGraph => 0,
    }
}

/// The three graphs the rungs run on, synthesised once.
struct Datasets {
    /// The spine's graph (`serve_single`, `serve_hot8`).
    cora: Arc<Dataset>,
    /// `update_mix`'s graph.
    pubmed: Arc<Dataset>,
    /// `full_offline`'s graph.
    reddit: Arc<Dataset>,
}

/// Runs every rung. `scale` is the share of the full call counts.
pub fn run(seed: u64, scale: f64, origin: Instant, pin: Pin) -> (Values, Recorder) {
    let mut ladder =
        Ladder { recorder: Recorder::new(origin, 0, "ladder"), scale, values: Values::new() };
    let spine: Vec<InferRequest> = {
        let mut stream = SingleStream::new(seed, 0, CORA_NODES);
        (0..SPINE).map(|_| stream.next_request()).collect()
    };
    let data = Datasets {
        cora: cora(),
        pubmed: pubmed(),
        reddit: Arc::new(full_offline::dataset(seed)),
    };
    kernel_rungs(&mut ladder, seed);
    graph_and_model_rungs(&mut ladder, seed, &spine, &data);
    engine_rungs(&mut ladder, seed, &spine, &data, pin);
    server_rungs(&mut ladder, &spine);
    cycle_model_counts(&mut ladder, &data.reddit);
    // The spine budget: what a `serve_single` request's time is made of,
    // as far as isolated warm rungs explain it.
    let parts = ["server.wire_self_us", "server.dispatch_self_us", "engine.self_us"]
        .iter()
        .chain(&["gnn.subgraph_build_us", "gnn.gather_us", "gnn.forward_sub_us"])
        .map(|name| ladder.get(name))
        .sum::<f64>();
    ladder.set("trace.parts_sum_us", parts);
    ladder.set("trace.unaccounted_us", ladder.get("server.tcp_rt_us") - parts);
    (ladder.values, ladder.recorder)
}

/// `fft`, `core`, `linalg`, `nn`: the 96→64 block-16 layer of the models,
/// from one transform up to one layer call.
fn kernel_rungs(ladder: &mut Ladder, seed: u64) {
    let plan = RealFftPlan::<f64>::new(BLOCK_SIZE).expect("block size is a power of two");
    let input: Vec<f64> = (0..BLOCK_SIZE).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut spectrum = vec![Complex::zero(); plan.spectrum_len()];
    let rfft = ladder.rung_chunked("fft.rfft16_ns", || {
        plan.forward_into(black_box(&input), &mut spectrum).expect("lengths match the plan");
    });
    ladder.set("fft.rfft16_ns", rfft);
    // The inverse consumes its spectrum, so each call restores it first
    // (nine complex copies, inside the timed interval).
    let saved = spectrum.clone();
    let mut time = vec![0.0; BLOCK_SIZE];
    let irfft = ladder.rung_chunked("fft.irfft16_ns", || {
        spectrum.copy_from_slice(&saved);
        plan.inverse_into(&mut spectrum, black_box(&mut time)).expect("lengths match the plan");
    });
    ladder.set("fft.irfft16_ns", irfft);

    let mut scratch = SpectralScratch::new();
    let mut matvec =
        |ladder: &mut Ladder, name: &'static str, out_dim: usize, in_dim: usize| {
            let weights = BlockCirculantMatrix::random(out_dim, in_dim, BLOCK_SIZE, MODEL_SEED)
                .expect("fixed shape is valid");
            let kernel = RealSpectralBlockCirculant::new(&weights).expect("power-of-two block");
            let x = random_matrix(1, in_dim, seed);
            let mut y = vec![0.0; out_dim];
            let ns = ladder.rung(name, MANY, |_| {
                kernel.matvec_into(black_box(x.row(0)), &mut scratch, &mut y);
            });
            ladder.set(name, ns / 1e3);
        };
    matvec(ladder, "core.matvec_256_b16_us", 256, 256);
    matvec(ladder, "core.matvec_96x64_b16_us", HIDDEN_DIM, 96);
    // Algorithm 1 on 96→64 at block 16: q = 6 forward and p = 4 inverse
    // transforms; the rest of the matvec is the spectral MAC and copies.
    let transforms_us = (96usize.div_ceil(BLOCK_SIZE) as f64 * rfft
        + HIDDEN_DIM.div_ceil(BLOCK_SIZE) as f64 * irfft)
        / 1e3;
    let matvec_us = ladder.get("core.matvec_96x64_b16_us");
    ladder.set("core.matvec_self_share", 1.0 - transforms_us / matvec_us);

    let x256 = random_matrix(256, 96, seed);
    let x1 = random_matrix(1, 96, seed);
    let mut spectral =
        LinearLayer::new(HIDDEN_DIM, 96, COMPRESSION, MODEL_SEED).expect("valid layer");
    spectral.prepare(ExecMode::Spectral);
    let mut dense =
        LinearLayer::new(HIDDEN_DIM, 96, Compression::Dense, MODEL_SEED).expect("valid layer");
    dense.prepare(ExecMode::Gemm);
    let row_r256 = ladder
        .rung("nn.layer_row_us_r256", MANY, |_| spectral.forward(&x256, false))
        / 256.0
        / 1e3;
    let row_r1 =
        ladder.rung("nn.layer_row_us_r1", MANY, |_| spectral.forward(&x1, false)) / 1e3;
    let gemm_row =
        ladder.rung("linalg.gemm_row_us", MANY, |_| dense.forward(&x256, false)) / 256.0 / 1e3;
    ladder.set("nn.layer_row_us_r256", row_r256);
    ladder.set("nn.layer_row_us_r1", row_r1);
    ladder.set("linalg.gemm_row_us", gemm_row);
    ladder.set("nn.layer_self_share", 1.0 - matvec_us / row_r256);
    ladder.set("nn.spectral_over_gemm", row_r256 / gemm_row);
}

/// `graph` and `gnn`: sampling, subgraph materialisation, gathering and
/// the model forward on the spine request; the full-graph forward on the
/// `full_offline` shape.
fn graph_and_model_rungs(
    ladder: &mut Ladder,
    seed: u64,
    spine: &[InferRequest],
    data: &Datasets,
) {
    let Datasets { cora, pubmed, reddit } = data;
    let mut versioned =
        VersionedGraph::new(pubmed.graph.clone(), pubmed.features.clone(), true)
            .expect("dataset graph and features agree");
    let mut writes = WriteStream::new(seed, PUBMED_NODES, PUBMED_FEATURES);
    let deltas: Vec<_> = (0..MANY + MANY / 10 + 3).map(|_| writes.next_delta()).collect();
    let apply = ladder.rung("graph.delta_apply_us", MANY, |i| {
        versioned.apply(&deltas[i]).expect("generated deltas apply")
    });
    ladder.set("graph.delta_apply_us", apply / 1e3);

    let sample = ladder.rung("graph.sample_2hop_us", MANY, |i| {
        let request = &spine[i % SPINE];
        NeighborSampler::new(&cora.graph, sampling_seed(request)).sample_two_hop(
            &request.nodes,
            S1,
            S2,
        )
    });
    ladder.set("graph.sample_2hop_us", sample / 1e3);

    let build_one = |request: &InferRequest| {
        SampledSubgraph::build(&cora.graph, &request.nodes, S1, S2, sampling_seed(request))
    };
    let build = ladder.rung("gnn.subgraph_build_us", MANY, |i| build_one(&spine[i % SPINE]));
    ladder.set("gnn.subgraph_build_us", build / 1e3);
    let subs: Vec<SampledSubgraph> = spine.iter().map(build_one).collect();
    let sizes: Vec<f64> = subs.iter().map(|s| s.local_to_global.len() as f64).collect();
    ladder.set("gnn.subgraph_nodes", median(&sizes).expect("spine is not empty"));
    let gather =
        ladder.rung("gnn.gather_us", MANY, |i| subs[i % SPINE].gather_features(&cora.features));
    ladder.set("gnn.gather_us", gather / 1e3);
    let features: Vec<Matrix> =
        subs.iter().map(|s| s.gather_features(&cora.features)).collect();
    let mut gcn = prepared_model(ModelKind::Gcn, cora.feature_dim(), cora.num_classes);
    let forward_sub = ladder.rung("gnn.forward_sub_us", MANY, |i| {
        gcn.forward(&subs[i % SPINE].graph, &features[i % SPINE], false)
    });
    ladder.set("gnn.forward_sub_us", forward_sub / 1e3);
    let merge = ladder.rung("gnn.merge8_us", MANY, |i| {
        let eight: Vec<&SampledSubgraph> = (0..8).map(|k| &subs[(i * 8 + k) % SPINE]).collect();
        MergedUniverse::build(&eight)
    });
    ladder.set("gnn.merge8_us", merge / 1e3);

    let mut gs_pool =
        prepared_model(full_offline::MODEL, reddit.feature_dim(), reddit.num_classes);
    let forward_full = ladder.rung("gnn.forward_full_ms", FEW, |_| {
        gs_pool.forward(&reddit.graph, &reddit.features, false)
    });
    ladder.set("gnn.forward_full_ms", forward_full / 1e6);
    // The rungs the full forward contains: each linear layer once over
    // every node, called from outside with an input of its own width.
    let mut transforms = 0usize;
    let mut weight_bytes = 0usize;
    let mut inputs = Vec::new();
    gs_pool.visit_linear_layers(&mut |layer| {
        inputs.push(random_matrix(reddit.num_nodes(), layer.in_dim(), seed));
        if let LinearLayer::Circulant(c) = layer {
            transforms += c.in_dim().div_ceil(BLOCK_SIZE) + c.out_dim().div_ceil(BLOCK_SIZE);
            weight_bytes += c.spectral_weight_bytes();
        }
    });
    let layers = ladder.rung("gnn.layers_full", FEW, |_| {
        let mut inputs = inputs.iter();
        gs_pool.visit_linear_layers(&mut |layer| {
            black_box(layer.forward(inputs.next().expect("one input per layer"), false));
        });
    });
    ladder.set("gnn.forward_self_share", 1.0 - layers / forward_full);
    ladder.set("fft.transforms_per_node", transforms as f64);
    ladder.set("core.weight_bytes", weight_bytes as f64);
}

fn prepared_model(kind: ModelKind, in_dim: usize, classes: usize) -> Box<dyn GnnModel> {
    let mut model = build_model(kind, in_dim, HIDDEN_DIM, classes, COMPRESSION, MODEL_SEED)
        .expect("the benchmark's fixed configuration builds");
    model.prepare(ExecMode::Spectral);
    model
}

/// `engine`: `Session::infer` at three batch sizes, the coalesced batch
/// with its stage timings, the `update_mix` engine's full pass, cache hit
/// and delta, and the 2-worker parallel engine cold and warm.
fn engine_rungs(
    ladder: &mut Ladder,
    seed: u64,
    spine: &[InferRequest],
    data: &Datasets,
    pin: Pin,
) {
    let Datasets { cora, pubmed, reddit } = data;
    let mut cora_engine = engine(ModelKind::Gcn, BackendKind::Spectral, cora);
    let mut stream = SingleStream::new(seed, 1, CORA_NODES);
    let batches16: Vec<InferRequest> = (0..8).map(|_| stream.sampled(16)).collect();
    let batches256: Vec<InferRequest> = (0..8).map(|_| stream.sampled(256)).collect();
    {
        let mut session = cora_engine.session();
        let b1 = ladder.rung("engine.infer_b1_us", MANY, |i| session.infer(&spine[i % SPINE]));
        let b16 = ladder.rung("engine.infer_b16_us", FEW, |i| session.infer(&batches16[i % 8]));
        let b256 =
            ladder.rung("engine.infer_b256_us", FEW, |i| session.infer(&batches256[i % 8]));
        ladder.set("engine.infer_b1_us", b1 / 1e3);
        ladder.set("engine.infer_b16_us", b16 / 1e3);
        ladder.set("engine.infer_b256_us", b256 / 1e3);
    }
    let contained = ["gnn.subgraph_build_us", "gnn.gather_us", "gnn.forward_sub_us"]
        .map(|name| ladder.get(name))
        .iter()
        .sum::<f64>();
    ladder.set("engine.self_us", ladder.get("engine.infer_b1_us") - contained);

    // Eight distinct two-target requests, as a `serve_hot8` batch without
    // duplicates would look; the engine's own stage timings become
    // `reported` children of each call.
    let eight: Vec<InferRequest> = HotStream::new(seed, CORA_NODES).pool[..8].to_vec();
    let mut stages: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let coalesced = ladder.time(
        "engine.coalesced8_us",
        MANY / 2,
        |_| cora_engine.infer_coalesced(&eight),
        |recorder, span, outcome| {
            let children: Vec<(&'static str, Duration)> = outcome
                .stage_timings
                .iter()
                .filter_map(|t| {
                    let stage = STAGES.iter().find(|(stage, _, _)| *stage == t.stage)?;
                    Some((stage.1, t.elapsed))
                })
                .collect();
            recorder.reported(span, &children);
            for timing in &outcome.stage_timings {
                stages.entry(timing.stage).or_default().push(timing.elapsed.as_nanos() as f64);
            }
        },
    );
    ladder.set("engine.coalesced8_us", median(&coalesced).expect("calls ran") / 1e3);
    for (stage, _, metric) in STAGES {
        let ns = stages.get(stage).and_then(|s| median(s)).unwrap_or(0.0);
        ladder.set(metric, ns / 1e3);
    }

    let mut pubmed_engine = engine(ModelKind::Gcn, BackendKind::Spectral, pubmed);
    let all = InferRequest::all_nodes();
    let full_pass = ladder.rung("engine.full_pass_ms", FEW, |_| {
        pubmed_engine.clear_full_graph_cache();
        pubmed_engine.session().infer(&all)
    });
    ladder.set("engine.full_pass_ms", full_pass / 1e6);
    let mut reads = ReadStream::new(seed, PUBMED_NODES);
    let hits: Vec<InferRequest> = (0..SPINE).map(|_| reads.next_read()).collect();
    let full_hit = {
        let mut session = pubmed_engine.session();
        ladder.rung("engine.full_hit_us", MANY, |i| session.infer(&hits[i % SPINE]))
    };
    ladder.set("engine.full_hit_us", full_hit / 1e3);
    let mut writes = WriteStream::new(seed, PUBMED_NODES, PUBMED_FEATURES);
    let deltas: Vec<_> = (0..MANY + MANY / 10 + 3).map(|_| writes.next_delta()).collect();
    let apply =
        ladder.rung("engine.apply_delta_us", MANY, |i| pubmed_engine.apply_delta(&deltas[i]));
    ladder.set("engine.apply_delta_us", apply / 1e3);

    // Caching and threading credited separately: the same 2-worker pass
    // with the hot-vertex cache dropped first, and in steady state. The
    // only rungs about threading, so the only ones not held to one CPU.
    pin.on_all_cpus(|| {
        let mut parallel = engine(full_offline::MODEL, BackendKind::Spectral, reddit)
            .into_parallel(2)
            .expect("two workers");
        let cold = ladder.rung("engine.par2_cold_ms", FEW, |_| {
            parallel.clear_hot_cache();
            parallel.clear_full_graph_cache();
            parallel.session().infer(&all)
        });
        let mut hot_rows = 0usize;
        let warm = ladder.time(
            "engine.par2_warm_ms",
            FEW,
            |_| {
                parallel.clear_full_graph_cache();
                parallel.session().infer(&all)
            },
            |_, _, response| hot_rows = response.map_or(0, |r| r.hot_rows),
        );
        ladder.set("engine.par2_cold_ms", cold / 1e6);
        ladder.set("engine.par2_warm_ms", median(&warm).expect("calls ran") / 1e6);
        ladder.set("engine.hot_rows", hot_rows as f64);
    });
}

/// `server`: the spine request through the in-process runtime and over
/// TCP loopback, one at a time, plus the protocol codec on its own.
fn server_rungs(ladder: &mut Ladder, spine: &[InferRequest]) {
    let (_dataset, server, front) = serve_cora();
    let handle = server.handle();
    let mut queue_ns = Vec::new();
    let mut compute_ns = Vec::new();
    let inproc = ladder.time(
        "server.inproc_rt_us",
        MANY,
        |i| handle.infer(spine[i % SPINE].clone()),
        |recorder, span, reply| {
            let reply = reply.expect("spine requests are valid");
            recorder.reported(
                span,
                &[("server.queue", reply.queue_time), ("server.compute", reply.compute_time)],
            );
            queue_ns.push(reply.queue_time.as_nanos() as f64);
            compute_ns.push(reply.compute_time.as_nanos() as f64);
        },
    );
    let inproc_us = median(&inproc).expect("calls ran") / 1e3;
    let compute_us = median(&compute_ns).expect("calls ran") / 1e3;
    ladder.set("server.inproc_rt_us", inproc_us);
    ladder.set("server.queue_us", median(&queue_ns).expect("calls ran") / 1e3);
    ladder.set("server.compute_us", compute_us);
    ladder.set("server.dispatch_self_us", inproc_us - compute_us);

    let mut client = Client::connect(front.local_addr()).expect("client connects");
    let tcp = ladder.time(
        "server.tcp_rt_us",
        MANY,
        |i| client.infer(&spine[i % SPINE]),
        |recorder, span, reply| {
            let reply = reply.expect("spine requests are valid");
            recorder.reported(
                span,
                &[("server.queue", reply.queue_time), ("server.compute", reply.compute_time)],
            );
        },
    );
    let tcp_us = median(&tcp).expect("calls ran") / 1e3;
    ladder.set("server.tcp_rt_us", tcp_us);
    ladder.set("server.wire_self_us", tcp_us - inproc_us);

    let line = protocol::encode_infer(&spine[0], SubmitOptions::default(), None);
    let parse = ladder.rung("server.parse_us", MANY, |_| {
        (0..16).for_each(|_| {
            black_box(protocol::parse_command(black_box(&line)).expect("own encoding parses"));
        });
    });
    ladder.set("server.parse_us", parse / 16.0 / 1e3);
    let response = handle.infer(spine[0].clone()).expect("spine requests are valid");
    let encode = ladder.rung("server.encode_us", MANY, |_| {
        (0..16).for_each(|_| {
            black_box(protocol::encode_response(black_box(&response), "default"));
        });
    });
    ladder.set("server.encode_us", encode / 16.0 / 1e3);
    // The reply line plus its newline.
    ladder.set(
        "server.reply_bytes",
        (protocol::encode_response(&response, "default").len() + 1) as f64,
    );
}

/// `accel` and `perf`: counts, exact. The simulated accelerator's Eq. 7
/// total for the `full_offline` shape next to the bare `perf::cycles`
/// model of the same shape (the simulator adds DRAM overlap per layer).
fn cycle_model_counts(ladder: &mut Ladder, reddit: &Arc<Dataset>) {
    let kind = full_offline::MODEL;
    let mut accel = engine(kind, BackendKind::SimulatedAccel, reddit);
    let response = accel.session().infer(&InferRequest::all_nodes()).expect("simulated pass");
    let sim = response.sim.expect("the simulated accelerator reports cycles");
    let nodes = sim.num_nodes as f64;
    let sim_per_node = sim.total_cycles as f64 / nodes;
    ladder.set("accel.cycles_per_node", sim_per_node);
    ladder.set(
        "accel.nodes_per_joule",
        nodes / response.energy_joules.expect("the simulated accelerator reports energy"),
    );
    // The same shape the backend charges: target nodes, undirected edges,
    // widths, and the engine's default fan-outs.
    let spec = DatasetSpec::new(
        "request",
        reddit.num_nodes(),
        reddit.graph.num_arcs() / 2,
        reddit.feature_dim(),
        reddit.num_classes,
    );
    let workload =
        GnnWorkload::new(kind, &spec, HIDDEN_DIM, &[PAPER_FANOUTS.0, PAPER_FANOUTS.1]);
    let tasks: Vec<_> = workload.layers.iter().map(BlockGnnAccelerator::layer_task).collect();
    let model = total_cycles(
        &tasks,
        reddit.num_nodes(),
        &CirCoreParams::base(),
        BLOCK_SIZE,
        &HardwareCoeffs::zc706(),
    ) as f64
        / nodes;
    ladder.set("perf.model_cycles_per_node", model);
    ladder.set("perf.model_over_sim", model / sim_per_node);
}

//! Serving-runtime integration tests: the dynamic micro-batcher must be
//! **bit-identical** to sequential `Session::infer` under concurrency,
//! over TCP, for every model kind; overload and deadlines must shed
//! with typed errors instead of blocking; telemetry must add up; and
//! live graph updates must land atomically between micro-batches, with
//! every response's reported version replaying bit-identically against
//! that version's rebuilt graph — all of it equally over an engine
//! widened with `into_parallel`.

use blockgnn::engine::{
    BackendKind, Engine, EngineBuilder, EngineError, InferRequest, InferResponse,
};
use blockgnn::gnn::ModelKind;
use blockgnn::graph::datasets;
use blockgnn::graph::delta::{DeltaError, GraphDelta, VersionedGraph};
use blockgnn::nn::Compression;
use blockgnn::server::{
    Client, FaultPlan, RemoteResponse, Server, ServerConfig, ServerError, SloClass,
    SubmitOptions, TcpServer,
};
use blockgnn_graph::Dataset;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn dataset() -> Arc<Dataset> {
    Arc::new(datasets::cora_like_small(11))
}

fn engine_on(kind: ModelKind, backend: BackendKind, dataset: &Arc<Dataset>) -> Engine {
    EngineBuilder::new(kind, backend)
        .hidden_dim(16)
        .compression(Compression::BlockCirculant { block_size: 8 })
        .seed(5)
        .build(Arc::clone(dataset))
        .expect("engine builds")
}

/// A randomized request mix: sampled requests with varying nodes,
/// fan-outs, and seeds (with deliberate duplicates), plus occasional
/// full-graph requests.
fn request_mix(num_nodes: usize, salt: u64) -> Vec<InferRequest> {
    let mut requests = Vec::new();
    for i in 0..10u64 {
        let x = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i * 0x1234_5677);
        let a = (x as usize) % num_nodes;
        let b = (x >> 17) as usize % num_nodes;
        requests.push(match i % 5 {
            0 => InferRequest::sampled(vec![a, b], 6, 4, x % 100),
            1 => InferRequest::sampled(vec![a, a, b], 4, 3, 7), // duplicate node ids
            2 => InferRequest::sampled(vec![b], 10, 5, 42),     // hot duplicate request
            3 => InferRequest::full_graph(vec![a, b]),
            _ => InferRequest::sampled(vec![a], 5, 2, x % 13),
        });
    }
    requests
}

/// Bit-exact comparison of a served response against the sequential
/// reference for the same request.
fn assert_bit_identical(got: &InferResponse, want: &InferResponse, what: &str) {
    assert_eq!(got.logits.shape(), want.logits.shape(), "{what}: shape");
    for i in 0..got.logits.rows() {
        for (a, b) in got.logits.row(i).iter().zip(want.logits.row(i)) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: logits row {i} differ in bits");
        }
    }
    assert_eq!(got.predictions, want.predictions, "{what}: predictions");
}

/// Sequential reference answers, one per request, from a fresh
/// single-session engine with the same weights.
fn sequential_reference(
    kind: ModelKind,
    backend: BackendKind,
    dataset: &Arc<Dataset>,
    requests: &[InferRequest],
) -> Vec<InferResponse> {
    let mut engine = engine_on(kind, backend, dataset);
    let mut session = engine.session();
    requests.iter().map(|r| session.infer(r).expect("reference serves")).collect()
}

#[test]
fn concurrency_stress_is_bit_identical_to_sequential() {
    // N client threads hammer one server with a randomized mix; every
    // response must match a sequential Session::infer of the same
    // request, bit for bit, on both software backends.
    let dataset = dataset();
    for backend in [BackendKind::Dense, BackendKind::Spectral] {
        let server = Server::start(
            engine_on(ModelKind::Gcn, backend, &dataset),
            ServerConfig::default().with_workers(3).with_batching(Duration::from_millis(2), 8),
        )
        .expect("server starts");
        let observed: Vec<(InferRequest, InferResponse)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8u64)
                .map(|t| {
                    let handle = server.handle();
                    let num_nodes = dataset.num_nodes();
                    scope.spawn(move || {
                        request_mix(num_nodes, t)
                            .into_iter()
                            .map(|request| {
                                let response =
                                    handle.infer(request.clone()).expect("request serves");
                                (request, response)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
        });
        let stats = server.shutdown();
        assert_eq!(stats.completed, observed.len());
        assert_eq!(stats.serve.requests, observed.len());
        assert!(stats.serve.p99() >= stats.serve.p50());
        // (Coalescing itself is pinned deterministically by
        // `duplicate_requests_dedup_and_responses_split_latency`; here
        // batch sizes depend on thread timing.)

        let requests: Vec<InferRequest> = observed.iter().map(|(r, _)| r.clone()).collect();
        let reference = sequential_reference(ModelKind::Gcn, backend, &dataset, &requests);
        for ((request, got), want) in observed.iter().zip(&reference) {
            assert_bit_identical(got, want, &format!("{backend} {request:?}"));
        }
    }
}

#[test]
fn coalesced_accel_charges_match_solo_serving() {
    // On the simulated accelerator, batched responses must carry the
    // same per-request SimReport/energy as solo serving (the cycle
    // model is a pure function of the request's own sub-universe).
    let dataset = dataset();
    let requests: Vec<InferRequest> =
        (0..6).map(|i| InferRequest::sampled(vec![i * 3, i * 3 + 1], 6, 4, i as u64)).collect();
    let mut engine = engine_on(ModelKind::Gcn, BackendKind::SimulatedAccel, &dataset);
    let coalesced = engine.infer_coalesced(&requests);
    assert_eq!(coalesced.unique_executions, requests.len());
    assert!(coalesced.merged_universe_nodes > 0);
    let reference =
        sequential_reference(ModelKind::Gcn, BackendKind::SimulatedAccel, &dataset, &requests);
    for (i, (outcome, want)) in coalesced.outcomes.iter().zip(&reference).enumerate() {
        let got = outcome.as_ref().expect("outcome ok");
        assert_eq!(got.sim, want.sim, "request {i}: SimReport must match solo serving");
        assert_eq!(got.energy_joules, want.energy_joules, "request {i}: energy");
        assert_eq!(got.batch_size, requests.len());
        for r in 0..got.logits.rows() {
            for (a, b) in got.logits.row(r).iter().zip(want.logits.row(r)) {
                assert_eq!(a.to_bits(), b.to_bits(), "request {i}: logits bits");
            }
        }
    }
}

#[test]
fn tcp_end_to_end_all_model_kinds_bit_identical() {
    // ≥8 concurrent TCP clients against all four ModelKinds: remote
    // logits must be bit-identical to sequential in-process inference
    // (the protocol ships f64 bit patterns, so equality is exact).
    let dataset = dataset();
    for kind in ModelKind::all() {
        let server = Arc::new(
            Server::start(
                engine_on(kind, BackendKind::Spectral, &dataset),
                ServerConfig::default()
                    .with_workers(2)
                    .with_batching(Duration::from_millis(1), 8),
            )
            .expect("server starts"),
        );
        let front = TcpServer::bind(Arc::clone(&server), "127.0.0.1:0").expect("binds");
        let addr = front.local_addr();
        let requests: Vec<InferRequest> = (0..4)
            .map(|i| InferRequest::sampled(vec![i * 5, i * 5 + 2, i * 5], 5, 3, i as u64))
            .collect();
        let observed: Vec<(InferRequest, RemoteResponse)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8usize)
                .map(|_c| {
                    let requests = requests.clone();
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("client connects");
                        requests
                            .into_iter()
                            .map(|request| {
                                let response =
                                    client.infer(&request).expect("remote request serves");
                                (request, response)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
        });
        front.stop();
        let reference = sequential_reference(kind, BackendKind::Spectral, &dataset, &requests);
        let by_request = |request: &InferRequest| {
            requests.iter().position(|r| r == request).expect("request known")
        };
        for (request, got) in &observed {
            let want = &reference[by_request(request)];
            assert_eq!(got.logits.shape(), want.logits.shape(), "{kind}: shape");
            for i in 0..got.logits.rows() {
                for (a, b) in got.logits.row(i).iter().zip(want.logits.row(i)) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{kind}: remote logits differ from sequential reference"
                    );
                }
            }
            assert_eq!(got.predictions, want.predictions, "{kind}: predictions");
        }
        assert_eq!(observed.len(), 8 * requests.len());
    }
}

#[test]
fn tcp_control_commands_and_clean_shutdown() {
    let dataset = dataset();
    let server = Arc::new(
        Server::start(
            engine_on(ModelKind::Gcn, BackendKind::Dense, &dataset),
            ServerConfig::default(),
        )
        .expect("server starts"),
    );
    let front = TcpServer::bind(Arc::clone(&server), "127.0.0.1:0").expect("binds");
    let addr = front.local_addr();
    let driver = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connects");
        client.ping().expect("pong");
        let response =
            client.infer(&InferRequest::sampled(vec![1, 2], 4, 2, 3)).expect("serves");
        assert_eq!(response.predictions.len(), 2);
        let stats_line = client.stats().expect("stats");
        assert!(stats_line.contains("completed=1"), "stats line: {stats_line}");
        // An invalid request gets a typed engine rejection, not a hangup.
        let err = client.infer(&InferRequest::sampled(vec![], 4, 2, 3)).unwrap_err();
        assert!(matches!(err, ServerError::RemoteEngine(_)), "got {err:?}");
        client.shutdown().expect("clean shutdown");
    });
    // Join the driver *before* waiting for shutdown: if it panicked
    // mid-script, stop the front end ourselves instead of hanging.
    let driver_result = driver.join();
    if driver_result.is_err() {
        front.stop();
    }
    let shutdown_stats = front.run_until_shutdown();
    if let Err(panic) = driver_result {
        std::panic::resume_unwind(panic);
    }
    assert_eq!(shutdown_stats.completed, 1);
    assert_eq!(shutdown_stats.failed, 1);
}

#[test]
fn overload_sheds_typed_error_instead_of_blocking() {
    // One worker, a tiny queue, and a slow first request: submissions
    // beyond the queue bound must come back Overloaded immediately.
    let dataset = Arc::new(datasets::pubmed_like_small(3));
    let server = Server::start(
        engine_on(ModelKind::GsPool, BackendKind::Spectral, &dataset),
        ServerConfig::default().with_workers(1).with_max_queue_depth(2).unbatched(),
    )
    .expect("server starts");
    let handle = server.handle();
    // Occupy the worker with an expensive uncached full-graph pass,
    // then fill the queue with more of the same.
    let mut tickets = Vec::new();
    let mut overloaded = 0usize;
    for _ in 0..12 {
        match handle.submit(InferRequest::all_nodes()) {
            Ok(t) => tickets.push(t),
            Err(ServerError::Overloaded { depth, max_depth }) => {
                assert!(depth >= max_depth, "sheds only at capacity");
                overloaded += 1;
            }
            Err(other) => panic!("unexpected rejection {other:?}"),
        }
    }
    assert!(overloaded > 0, "the bounded queue must shed under burst");
    for t in tickets {
        let response = t.wait().expect("admitted requests still serve");
        assert_eq!(response.logits.rows(), dataset.num_nodes());
    }
    let stats = server.shutdown();
    assert_eq!(stats.shed_overload, overloaded);
    assert!(stats.serve.full_graph_cache_hits >= 1, "cache answers the repeats");
}

#[test]
fn expired_deadlines_shed_with_typed_error() {
    let dataset = dataset();
    let server = Server::start(
        engine_on(ModelKind::Gcn, BackendKind::Dense, &dataset),
        ServerConfig::default().with_workers(1).unbatched(),
    )
    .expect("server starts");
    let handle = server.handle();
    // Park the worker on a full-graph pass so the dead-on-arrival
    // request waits long enough to expire.
    let slow = handle.submit(InferRequest::all_nodes()).expect("admitted");
    let doomed = handle
        .submit_with(
            InferRequest::sampled(vec![1], 4, 2, 9),
            SubmitOptions::deadline(Duration::ZERO),
        )
        .expect("admitted");
    match doomed.wait() {
        Err(ServerError::DeadlineExceeded { .. }) => {}
        other => panic!("expected deadline shed, got {other:?}"),
    }
    slow.wait().expect("slow request still serves");
    let stats = server.shutdown();
    assert_eq!(stats.shed_deadline, 1);
}

#[test]
fn a_deadline_inside_the_straggler_window_is_served_not_shed() {
    // An idle worker with a 50 ms straggler window and a lone request
    // due in 40 ms: the batch closes at once and serves it, rather than
    // holding until the deadline and shedding it there.
    let dataset = dataset();
    let server = Server::start(
        engine_on(ModelKind::Gcn, BackendKind::Dense, &dataset),
        ServerConfig::default().with_workers(1).with_batching(Duration::from_millis(50), 8),
    )
    .expect("server starts");
    let deadline = Duration::from_millis(40);
    let ticket = server
        .handle()
        .submit_with(InferRequest::sampled(vec![1], 4, 2, 9), SubmitOptions::deadline(deadline))
        .expect("admitted");
    let response = ticket.wait().expect("served inside its deadline");
    assert!(response.queue_time < deadline, "queued {:?}", response.queue_time);
    let stats = server.shutdown();
    assert_eq!(stats.shed_deadline, 0);
}

#[test]
fn classes_order_queued_requests() {
    // Occupy a single worker, then race a bronze and a gold request;
    // the gold one must execute first (both class lanes start at the
    // same virtual time, and the tie breaks by class rank). The setup
    // itself is racy — if the worker finishes the blocker before both
    // submissions land, neither request ever queues and the attempt
    // proves nothing — so degenerate attempts (bronze barely waited)
    // retry on a fresh server, while a *genuine* inversion (bronze
    // waited out the blocker, gold waited even longer) fails
    // immediately. The race-free re-test of the ordering itself is
    // `queue::tests::classes_order_queued_requests_deterministically`,
    // which drives the lanes directly with no worker in the loop.
    let dataset = dataset();
    let mut last = None;
    for _attempt in 0..5 {
        let server = Server::start(
            engine_on(ModelKind::Gcn, BackendKind::Dense, &dataset),
            ServerConfig::default().with_workers(1).unbatched(),
        )
        .expect("server starts");
        let handle = server.handle();
        let blocker = handle.submit(InferRequest::all_nodes()).expect("admitted");
        let bronze = handle
            .submit_with(
                InferRequest::sampled(vec![1], 4, 2, 1),
                SubmitOptions::class(SloClass::Bronze),
            )
            .expect("admitted");
        // An explicit generous deadline so the gold default (200 ms)
        // cannot shed the request while the blocker holds the worker on
        // a slow machine.
        let gold = handle
            .submit_with(
                InferRequest::sampled(vec![2], 4, 2, 1),
                SubmitOptions::class(SloClass::Gold).with_deadline(Duration::from_secs(30)),
            )
            .expect("admitted");
        blocker.wait().expect("serves");
        let gold_response = gold.wait().expect("serves");
        let bronze_response = bronze.wait().expect("serves");
        server.shutdown();
        // Queue time tells execution order under a single worker: the
        // gold request must not have waited longer than the bronze one
        // that was submitted *before* it.
        if gold_response.queue_time <= bronze_response.queue_time {
            return;
        }
        last = Some((gold_response.queue_time, bronze_response.queue_time));
        assert!(
            bronze_response.queue_time < Duration::from_millis(1),
            "class inversion: gold waited {:?}, bronze waited {:?}",
            gold_response.queue_time,
            bronze_response.queue_time
        );
    }
    panic!("every attempt degenerated (worker never stayed busy): last timings {last:?}");
}

#[test]
fn duplicate_requests_dedup_and_responses_split_latency() {
    let dataset = dataset();
    let server = Server::start(
        engine_on(ModelKind::Gcn, BackendKind::Dense, &dataset),
        // A long window with one worker guarantees coalescing.
        ServerConfig::default().with_workers(1).with_batching(Duration::from_millis(50), 8),
    )
    .expect("server starts");
    let handle = server.handle();
    // Park the worker, then enqueue 4 copies of one request — they
    // must coalesce into a single batch and dedup to one execution.
    let blocker = handle.submit(InferRequest::all_nodes()).expect("admitted");
    let hot = InferRequest::sampled(vec![3, 4], 6, 4, 77);
    let tickets: Vec<_> =
        (0..4).map(|_| handle.submit(hot.clone()).expect("admitted")).collect();
    blocker.wait().expect("serves");
    let responses: Vec<InferResponse> =
        tickets.into_iter().map(|t| t.wait().expect("serves")).collect();
    for pair in responses.windows(2) {
        assert_eq!(
            pair[0].logits.as_slice(),
            pair[1].logits.as_slice(),
            "identical requests get identical answers"
        );
    }
    for r in &responses {
        assert_eq!(r.latency, r.queue_time + r.compute_time, "latency = queue + compute");
        // All four rode one coalesced execution (the blocker may have
        // joined the same batch, so ≥ 4 rather than exactly 4).
        assert!(r.batch_size >= 4, "expected a coalesced batch, got {}", r.batch_size);
    }
    let stats = server.shutdown();
    assert_eq!(stats.deduped, 3, "three of four shared the leader's execution");
    assert!(stats.serve.total_queue_time > Duration::ZERO);
}

#[test]
fn one_engine_through_the_server() {
    // An engine widened with `into_parallel` is still just an `Engine`
    // to the server: it coalesces and dedups, takes updates, and a
    // crashed replica is healed by re-forking it — every answer bit-
    // identical to a fresh one-worker engine. The first batch panics
    // (budget 1), so everything below runs on the healed pool.
    let dataset = dataset();
    let (kind, backend) = (ModelKind::Gcn, BackendKind::Dense);
    let widened = engine_on(kind, backend, &dataset).into_parallel(2).expect("widens");
    let server = Server::start(
        widened,
        // One worker and a long window make the coalescing deterministic.
        ServerConfig::default()
            .with_workers(1)
            .with_batching(Duration::from_millis(50), 8)
            .with_faults(Some(FaultPlan::new(0xF0_12).with_panics(1000, 1))),
    )
    .expect("server starts");
    let handle = server.handle();
    let all = InferRequest::all_nodes();
    assert!(matches!(handle.infer(all.clone()), Err(ServerError::WorkerCrashed)));

    // Park the worker on a full-graph pass (run as a partition plan),
    // then queue eight two-target requests, duplicates adjacent.
    let blocker = handle.submit(all.clone()).expect("admitted");
    let requests: Vec<InferRequest> =
        (0..8).map(|i| InferRequest::sampled(vec![i / 2, i / 2 + 40], 6, 4, 3)).collect();
    let tickets: Vec<_> =
        requests.iter().map(|r| handle.submit(r.clone()).expect("admitted")).collect();
    let full = blocker.wait().expect("the healed pool serves");
    assert!(full.parts >= 2, "the re-forked replica still runs the plan");
    let full_request = std::slice::from_ref(&all);
    let reference = sequential_reference(kind, backend, &dataset, full_request);
    assert_bit_identical(&full, &reference[0], "healed full graph");
    let reference = sequential_reference(kind, backend, &dataset, &requests);
    for ((request, ticket), want) in requests.iter().zip(tickets).zip(&reference) {
        let got = ticket.wait().expect("serves");
        assert_bit_identical(&got, want, &format!("coalesced {request:?}"));
    }

    // Updates reach a widened engine, acknowledged with the true counts.
    let delta = stress_delta(1, dataset.num_nodes(), dataset.feature_dim());
    let mut mirror =
        VersionedGraph::new(dataset.graph.clone(), dataset.features.clone(), true).unwrap();
    mirror.apply(&delta).expect("valid delta");
    let ack = handle.update_acked(&delta).expect("a widened engine takes updates");
    assert_eq!((ack.version, ack.num_arcs), (1, mirror.graph().num_arcs()));
    assert_eq!(handle.num_arcs(), mirror.graph().num_arcs());
    let updated = Arc::new(Dataset {
        graph: mirror.rebuild(),
        features: mirror.features().clone(),
        ..Dataset::clone(&dataset)
    });
    let after = handle.infer(all.clone()).expect("serves");
    assert_eq!(after.graph_version, 1);
    assert!(after.parts >= 2, "the new version runs under a rebuilt plan");
    let reference = sequential_reference(kind, backend, &updated, full_request);
    assert_bit_identical(&after, &reference[0], "post-update full graph");

    let stats = server.shutdown();
    assert!(stats.mean_batch_size() > 1.0, "mean batch {}", stats.mean_batch_size());
    assert!(stats.deduped > 0, "adjacent duplicates share one execution");
    assert_eq!((stats.worker_crashes, stats.restarts, stats.workers_alive), (1, 1, 1));
    assert!(stats.part_balance >= 1.0, "stats read the live plan's balance");
}

/// Deterministic delta `k` of the update stress mix: pure rewires and
/// feature tweaks (no appends, so the node universe — and therefore
/// request validity — is stable under concurrency).
fn stress_delta(k: usize, num_nodes: usize, feature_dim: usize) -> GraphDelta {
    GraphDelta::new()
        .add_edge((7 * k + 1) % num_nodes, (11 * k + 3) % num_nodes)
        .add_edge((5 * k + 2) % num_nodes, (13 * k + 8) % num_nodes)
        .set_feature_row(
            (17 * k) % num_nodes,
            (0..feature_dim).map(|j| (k * feature_dim + j) as f64 * 0.01 - 1.0).collect(),
        )
}

#[test]
fn interleaved_updates_and_inference_replay_bit_identically() {
    // 8 client threads hammer one live server with a mix of inference
    // and graph updates. Every response must (a) report a version the
    // server actually published, and (b) match a solo replay of its
    // request on a fresh engine over that version's *rebuilt* graph —
    // the end-to-end differential proof that updates land atomically
    // between micro-batches and never leak across versions.
    let dataset = dataset();
    let num_nodes = dataset.num_nodes();
    let feature_dim = dataset.feature_dim();
    let pool: Vec<InferRequest> = vec![
        InferRequest::sampled(vec![3, 141, 3], 5, 3, 7),
        InferRequest::sampled(vec![59, 8], 6, 4, 21),
        InferRequest::sampled(vec![200], 4, 2, 2),
        InferRequest::full_graph(vec![0, 5, 9]),
        InferRequest::sampled(vec![77, 42, 77, 42], 5, 3, 13),
    ];
    let server = Server::start(
        engine_on(ModelKind::Gcn, BackendKind::Dense, &dataset),
        ServerConfig::default().with_workers(3).with_batching(Duration::from_millis(1), 8),
    )
    .expect("server starts");
    let published: Mutex<Vec<(u64, GraphDelta)>> = Mutex::new(Vec::new());
    let next_delta = std::sync::atomic::AtomicUsize::new(0);
    let observed: Vec<(usize, u64, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8usize)
            .map(|t| {
                let handle = server.handle();
                let pool = &pool;
                let published = &published;
                let next_delta = &next_delta;
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    for i in 0..12usize {
                        // Threads 0–2 interleave an update every 4th
                        // iteration; everyone infers every iteration.
                        if t < 3 && i % 4 == 1 {
                            let k =
                                next_delta.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let delta = stress_delta(k, num_nodes, feature_dim);
                            let version =
                                handle.update(&delta).expect("stress deltas are valid");
                            published.lock().unwrap().push((version, delta));
                        }
                        let which = (t * 12 + i) % pool.len();
                        let response =
                            handle.infer(pool[which].clone()).expect("request serves");
                        let bits: Vec<u64> =
                            response.logits.as_slice().iter().map(|v| v.to_bits()).collect();
                        seen.push((which, response.graph_version, bits));
                    }
                    seen
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let stats = server.shutdown();
    let mut published = published.into_inner().unwrap();
    published.sort_by_key(|(v, _)| *v);
    // Published versions are exactly 1..=N: every update bumped by one,
    // serialized on the writer lock.
    let max_version = published.len() as u64;
    for (i, (v, _)) in published.iter().enumerate() {
        assert_eq!(*v, i as u64 + 1, "versions must be contiguous");
    }
    assert_eq!(stats.updates, published.len());
    assert_eq!(stats.graph_version, max_version);
    // (a) Every reported version was actually published.
    for (_, version, _) in &observed {
        assert!(*version <= max_version, "response reported unpublished version {version}");
    }
    // (b) Bit-exact replay per version: rebuild each version's dataset
    // from scratch and compare every observed response against a fresh
    // solo engine on it.
    let mut mirror = VersionedGraph::new(dataset.graph.clone(), dataset.features.clone(), true)
        .expect("dataset is consistent");
    let mut datasets: Vec<Arc<Dataset>> = vec![Arc::clone(&dataset)];
    for (v, delta) in &published {
        mirror.apply(delta).expect("replay applies");
        assert_eq!(mirror.version(), *v);
        datasets.push(Arc::new(Dataset {
            graph: mirror.rebuild(),
            features: mirror.features().clone(),
            labels: dataset.labels.clone(),
            num_classes: dataset.num_classes,
            masks: dataset.masks.clone(),
            name: dataset.name.clone(),
        }));
    }
    for version in 0..=max_version {
        let at_version: Vec<&(usize, u64, Vec<u64>)> =
            observed.iter().filter(|(_, v, _)| *v == version).collect();
        if at_version.is_empty() {
            continue;
        }
        let mut engine =
            engine_on(ModelKind::Gcn, BackendKind::Dense, &datasets[version as usize]);
        let mut session = engine.session();
        for (which, _, bits) in at_version {
            let want = session.infer(&pool[*which]).expect("replay serves");
            let want_bits: Vec<u64> =
                want.logits.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                bits, &want_bits,
                "response at version {version} for request {which} diverged from solo replay"
            );
        }
    }
}

/// One raw protocol connection: sends a line, returns the one-line
/// reply, and fails the test if the server stopped answering on it.
fn raw_connection(addr: std::net::SocketAddr) -> impl FnMut(&str) -> String {
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(addr).expect("connects");
    let mut writer = stream.try_clone().expect("clones");
    let mut reader = BufReader::new(stream);
    move |line: &str| {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("server must keep answering");
        assert!(!reply.is_empty(), "connection died on {line:?}");
        reply.trim_end().to_string()
    }
}

#[test]
fn malformed_updates_never_poison_the_connection_or_graph() {
    // Raw protocol lines — garbage, truncated clauses, out-of-range
    // nodes, empty deltas — must each earn a typed `err` reply while
    // the connection stays usable and the shared graph stays at its
    // version. A valid update afterwards applies normally.
    let dataset = dataset();
    let server = Arc::new(
        Server::start(
            engine_on(ModelKind::Gcn, BackendKind::Dense, &dataset),
            ServerConfig::default(),
        )
        .expect("server starts"),
    );
    let front = TcpServer::bind(Arc::clone(&server), "127.0.0.1:0").expect("binds");
    let mut roundtrip = raw_connection(front.local_addr());
    // A full-width feature row, well-formed but for one NaN word and
    // one +Inf word: nothing but the finiteness check can refuse it.
    let one = format!("{:016x}", 1.0f64.to_bits());
    let mut words = vec![one.as_str(); dataset.feature_dim()];
    words[0] = "7ff8000000000000";
    let nan_row = format!("update feat=0:{}", words.join(","));
    words[0] = one.as_str();
    words[3] = "7ff0000000000000";
    let inf_node = format!("update new={}", words.join(","));
    for (line, kind) in [
        ("complete garbage", "err protocol"),
        ("update add=1-2", "err protocol"),
        ("update add=0:1 bogus=3", "err protocol"),
        ("update feat=0:nothex", "err protocol"),
        (nan_row.as_str(), "err protocol non-finite feature word \"7ff8000000000000\""),
        (inf_node.as_str(), "err protocol non-finite feature word \"7ff0000000000000\""),
        ("update add=0:999999999", "err engine"), // out-of-range node
        // Self-loop (5,5): the SBM generator never emits self-loops, so
        // this removal is guaranteed to miss.
        ("update del=5:5", "err engine"),
        ("update", "err engine"), // empty delta
        ("\u{7f}\u{1}binary\u{2}junk", "err protocol"),
        // A verb followed by words it has no use for is refused, not
        // obeyed: this server must still be up for the lines below.
        ("shutdown now", "err protocol"),
        ("ping x", "err protocol"),
    ] {
        let reply = roundtrip(line);
        assert!(reply.starts_with(kind), "{line:?}: expected a {kind:?} reply, got {reply:?}");
    }
    // The in-process path has no parser in front of it, so the same two
    // non-finite rows must be refused by the delta itself.
    let mut row = vec![1.0; dataset.feature_dim()];
    row[0] = f64::NAN;
    let nan_row = GraphDelta::new().set_feature_row(0, row.clone());
    row[0] = f64::INFINITY;
    let inf_node = GraphDelta::new().append_node(row);
    for delta in [nan_row, inf_node] {
        let refused = server.handle().update(&delta);
        assert!(
            matches!(
                refused,
                Err(ServerError::Engine(EngineError::Delta(DeltaError::NonFiniteFeature {
                    column: 0,
                    ..
                })))
            ),
            "got {refused:?}"
        );
    }
    // The graph never budged, and no logit went non-finite...
    assert_eq!(server.graph_version(), 0);
    let full = blockgnn::server::protocol::parse_response(&roundtrip("infer full all"))
        .expect("full-graph read serves");
    assert!(full.logits.as_slice().iter().all(|x| x.is_finite()));
    // ...the same connection still serves...
    let ack = roundtrip("update add=0:5,1:6");
    assert!(ack.starts_with("ok update tenant=default version=1 "), "got {ack:?}");
    let reply = roundtrip("infer sampled s1=4 s2=2 seed=3 nodes=0,5");
    assert!(reply.starts_with("ok rows=2 "), "got {reply:?}");
    assert!(reply.contains(" version=1 "), "post-update answers carry the bumped version");
    // ...and telemetry counted the rejections without counting bumps.
    let stats = server.stats();
    assert_eq!(stats.graph_version, 1);
    assert_eq!(stats.updates, 1);
    assert_eq!(stats.failed_updates, 5, "engine-rejected updates are counted");
    front.stop();
}

#[test]
fn hostile_wire_numbers_earn_typed_errors_not_an_aborted_process() {
    // A failed allocation is an abort, not a panic: `catch_unwind` never
    // sees it and every connection dies with the process. So numbers
    // that size an allocation are refused before they reach one — each
    // line below used to ask for terabytes (or overflow the product
    // that would have) — and the same connection then serves a correct
    // answer.
    let dataset = dataset();
    let server = Arc::new(
        Server::start(
            engine_on(ModelKind::Gcn, BackendKind::Dense, &dataset),
            ServerConfig::default(),
        )
        .expect("server starts"),
    );
    let front = TcpServer::bind(Arc::clone(&server), "127.0.0.1:0").expect("binds");
    let mut roundtrip = raw_connection(front.local_addr());
    for (line, kind) in [
        // 10¹² × 2 draws around one target: a 32 TB edge buffer.
        ("infer sampled s1=1000000000000 s2=1 seed=0 nodes=0", "err engine"),
        // A 96 TB weight matrix.
        ("deploy t=cora-small:gcn:dense hidden=1000000000000", "err protocol"),
        ("infer sampled s1=18446744073709551615 s2=1 seed=0 nodes=0", "err engine"),
        // 3 × (2⁶³ − 1) × 2 overflows `usize` before it can be compared.
        ("infer sampled s1=9223372036854775807 s2=1 seed=0 nodes=0,1,2", "err engine"),
        // S₁ = 0 draws nothing, but S₂ still sizes the draw buffer.
        ("infer sampled s1=0 s2=1000000000000 seed=0 nodes=0", "err engine"),
        // A 2⁴⁰-point FFT plan.
        ("deploy t=cora-small:gcn:dense block=1099511627776", "err protocol"),
        ("deploy t=cora-small:gcn:dense block=0", "err protocol"),
    ] {
        let reply = roundtrip(line);
        assert!(reply.starts_with(kind), "{line:?}: expected a {kind:?} reply, got {reply:?}");
    }
    let line = "infer sampled s1=4 s2=2 seed=3 nodes=0,5";
    let served = blockgnn::server::protocol::parse_response(&roundtrip(line)).expect("serves");
    let direct = server.handle().infer(InferRequest::sampled(vec![0, 5], 4, 2, 3)).unwrap();
    assert_eq!(served.logits, direct.logits, "and the answer is the right one");
    assert_eq!(server.tenants().len(), 1, "no refused deploy left a tenant behind");
    front.stop();
}

#[test]
fn an_unterminated_line_is_refused_at_the_cap_while_others_keep_serving() {
    // A peer that streams bytes and never sends LF used to grow the
    // connection's line buffer without bound. It must get one typed
    // refusal and a closed connection; everyone else carries on.
    use std::io::{BufRead, BufReader, Read, Write};
    let dataset = dataset();
    let server = Arc::new(
        Server::start(
            engine_on(ModelKind::Gcn, BackendKind::Dense, &dataset),
            ServerConfig::default(),
        )
        .expect("server starts"),
    );
    let front = TcpServer::bind(Arc::clone(&server), "127.0.0.1:0").expect("binds");
    let mut bystander = Client::connect(front.local_addr()).expect("connects");
    bystander.ping().expect("serves before the flood");

    let hostile = std::net::TcpStream::connect(front.local_addr()).expect("connects");
    hostile.set_read_timeout(Some(Duration::from_secs(10))).expect("sets timeout");
    let mut writer = hostile.try_clone().expect("clones");
    let chunk = [b'x'; 64 * 1024];
    for _ in 0..32 {
        // 2 MiB, no newline. The server may refuse mid-stream; whether
        // the tail is still accepted is not the point.
        if writer.write_all(&chunk).is_err() {
            break;
        }
    }
    let mut reader = BufReader::new(hostile);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("the flood is answered, not buffered forever");
    assert_eq!(reply.trim_end(), "err protocol line exceeds 1048576 bytes");
    let mut rest = Vec::new();
    let closed = reader.read_to_end(&mut rest);
    assert!(matches!(closed, Ok(0)), "the connection is closed after the refusal: {closed:?}");

    // The other connection and new ones never noticed.
    let request = InferRequest::sampled(vec![0, 5], 4, 2, 3);
    let served = bystander.infer(&request).expect("bystander still serves");
    assert_eq!(served.logits.rows(), 2);
    Client::connect(front.local_addr()).expect("connects").ping().expect("new peers serve");
    assert_eq!(server.stats().completed, 1);
    front.stop();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    // Coalesce/scatter alignment end to end: random request sets with
    // duplicate node ids within and across requests, executed coalesced
    // (one merged universe whose last layer runs at the members' target
    // rows only), must be bit-identical to solo execution — every model
    // kind, dense and spectral.
    #[test]
    fn prop_infer_coalesced_matches_solo(
        picks in proptest::collection::vec((0usize..680, 0usize..680), 2..6),
        seed in 0u64..50,
    ) {
        let dataset = dataset();
        let requests: Vec<InferRequest> = picks
            .iter()
            .map(|&(a, b)| InferRequest::sampled(vec![a, b, a], 4, 3, seed))
            .collect();
        let kind = ModelKind::all()[seed as usize % 4];
        let backend = [BackendKind::Dense, BackendKind::Spectral][picks.len() % 2];
        let mut engine = engine_on(kind, backend, &dataset);
        let coalesced = engine.infer_coalesced(&requests);
        let reference = sequential_reference(kind, backend, &dataset, &requests);
        for (outcome, want) in coalesced.outcomes.iter().zip(&reference) {
            let got = outcome.as_ref().expect("outcome ok");
            prop_assert_eq!(got.logits.rows(), want.logits.rows());
            for i in 0..got.logits.rows() {
                for (a, b) in got.logits.row(i).iter().zip(want.logits.row(i)) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }
}

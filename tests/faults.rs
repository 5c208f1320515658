//! Fault-domain integration tests: a worker panic mid-batch must
//! convert every in-flight request of that batch into a typed
//! `WorkerCrashed` reply on a connection that stays open, the pool must
//! self-heal back to full strength (post-respawn answers bit-identical
//! to a fault-free run), the circuit breaker must open and close
//! deterministically, injected socket resets must converge under the
//! client's idempotent retry, and a full chaos replay — seeded panics,
//! resets, stalls, and latency injected into the adversarial trace —
//! must end with zero transport errors and a healthy pool.

use blockgnn::engine::{BackendKind, InferRequest};
use blockgnn::gnn::ModelKind;
use blockgnn::server::workload::{ci_adversarial_spec, replay_tcp};
use blockgnn::server::{
    Client, ClientTimeouts, FaultPlan, RemoteResponse, RetryPolicy, Server, ServerConfig,
    ServerError, SubmitOptions, TcpServer, TenantSpec, DEFAULT_TENANT,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

fn spec() -> TenantSpec {
    TenantSpec::new(DEFAULT_TENANT, "cora-small", ModelKind::Gcn, BackendKind::Dense)
        .hidden_dim(16)
        .seed(5)
}

fn start(config: ServerConfig) -> (Arc<Server>, TcpServer, SocketAddr) {
    let server = Arc::new(
        Server::start(spec().build_engine().expect("engine builds"), config)
            .expect("server starts"),
    );
    let front = TcpServer::bind(Arc::clone(&server), "127.0.0.1:0").expect("binds");
    let addr = front.local_addr();
    (server, front, addr)
}

/// Bit-exact comparison of two remote responses.
fn assert_same_bits(got: &RemoteResponse, want: &RemoteResponse, what: &str) {
    assert_eq!(got.logits.shape(), want.logits.shape(), "{what}: shape");
    for i in 0..got.logits.rows() {
        for (a, b) in got.logits.row(i).iter().zip(want.logits.row(i)) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: logits row {i} differ in bits");
        }
    }
    assert_eq!(got.predictions, want.predictions, "{what}: predictions");
}

#[test]
fn worker_panic_mid_batch_yields_typed_replies_and_pool_self_heals() {
    // A panic budget of 3 on an always-fire rate: however the three
    // concurrent requests batch up (one coalesced batch or several),
    // every batch they ride panics, so every request earns the typed
    // `WorkerCrashed` reply — never a dropped connection or a hang.
    let plan = FaultPlan::new(0xBAD_1DEA).with_panics(1000, 3);
    let config = ServerConfig::default()
        .with_workers(1)
        .with_batching(Duration::from_millis(5), 8)
        .with_breaker(10, Duration::from_secs(10), Duration::from_millis(200))
        .with_faults(Some(plan));
    let (server, front, addr) = start(config);

    let requests: Vec<InferRequest> =
        (0..3).map(|i| InferRequest::sampled(vec![i, i + 4], 5, 3, 9)).collect();
    std::thread::scope(|scope| {
        for request in &requests {
            scope.spawn(|| {
                let mut client = Client::connect(addr).expect("client connects");
                let got = client.infer(request);
                assert!(
                    matches!(got, Err(ServerError::WorkerCrashed)),
                    "a panicked batch answers typed, got {got:?}"
                );
                // The *connection* survived the worker's death — the
                // fault domain is the batch, not the socket.
                client.ping().expect("connection is intact after the crash reply");
            });
        }
    });

    // Drain whatever panic budget the batching left over, then the
    // respawned replica serves — and serves the *same bits* as a
    // fault-free twin (the fork shares prepared weights and graph).
    let mut client = Client::connect(addr).expect("client reconnects");
    let probe = InferRequest::sampled(vec![1, 2], 4, 2, 9);
    let healed = loop {
        match client.infer(&probe) {
            Ok(response) => break response,
            Err(ServerError::WorkerCrashed) => {}
            Err(e) => panic!("only crash replies expected while draining: {e}"),
        }
    };
    let (_twin, twin_front, twin_addr) = start(ServerConfig::default().with_workers(1));
    let mut twin_client = Client::connect(twin_addr).expect("twin connects");
    let want = twin_client.infer(&probe).expect("fault-free twin serves");
    assert_same_bits(&healed, &want, "post-respawn response");

    let stats = server.stats();
    assert!(
        (1..=3).contains(&stats.worker_crashes),
        "every crash was counted: {}",
        stats.worker_crashes
    );
    assert_eq!(stats.restarts, stats.worker_crashes, "every crash was healed");
    assert_eq!(stats.workers_alive, 1, "the pool is back to full strength");
    assert!(!stats.degraded, "threshold 10 never opened the breaker");
    assert!(
        stats.summary().contains("worker_crashes="),
        "crash telemetry reaches the stats line: {}",
        stats.summary()
    );
    front.stop();
    front.run_until_shutdown();
    twin_front.stop();
    twin_front.run_until_shutdown();
}

#[test]
fn breaker_opens_the_pool_degrades_and_recovery_closes_it() {
    // Two crashes inside the window open a threshold-2 breaker; the
    // `health` verb reports the degraded pool, and once the cooldown
    // passes with no further crashes the same verb reports recovery —
    // re-evaluated on read, no traffic required.
    let cooldown = Duration::from_millis(300);
    let plan = FaultPlan::new(7).with_panics(1000, 2);
    let config = ServerConfig::default()
        .with_workers(1)
        .with_breaker(2, Duration::from_secs(10), cooldown)
        .with_faults(Some(plan));
    let (server, front, addr) = start(config);

    let mut client = Client::connect(addr).expect("client connects");
    let request = InferRequest::sampled(vec![0, 3], 4, 2, 1);
    for nth in 1..=2 {
        let got = client.infer(&request);
        assert!(matches!(got, Err(ServerError::WorkerCrashed)), "crash {nth}: {got:?}");
    }
    // The crash reply lands *before* the supervisor finishes the
    // backoff + respawn, so poll until the worker is back in place.
    let sick = loop {
        let h = client.health().expect("health answers while degraded");
        if h.alive == h.workers {
            break h;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    assert_eq!((sick.workers, sick.alive), (1, 1), "the worker was respawned in place");
    assert_eq!(sick.crashes, 2);
    assert!(sick.degraded, "2 crashes at threshold 2 open the breaker: {sick:?}");

    // Degraded-pool surfaces: the gauge flips in the metrics text and
    // every poisonable lock along these paths recovered (stats, the
    // flight recorder, the registry — a panicked worker poisons none of
    // them for good).
    let metrics = client.metrics().expect("metrics answer while degraded");
    assert!(metrics.contains("blockgnn_pool_degraded 1"), "degraded gauge set:\n{metrics}");
    assert!(metrics.contains("blockgnn_worker_crashes_total 2"), "crash counter:\n{metrics}");
    assert!(client.stats().expect("stats").contains("degraded=true"));
    client.trace_slow().expect("the flight recorder still answers");
    client.list().expect("the tenant registry still answers");

    std::thread::sleep(cooldown + Duration::from_millis(50));
    let recovered = client.health().expect("health answers after cooldown");
    assert!(!recovered.degraded, "the cooldown closes the breaker: {recovered:?}");
    client.infer(&request).expect("the healed pool serves (panic budget exhausted)");
    let stats = server.stats();
    assert_eq!((stats.worker_crashes, stats.restarts, stats.workers_alive), (2, 2, 1));
    front.stop();
    front.run_until_shutdown();
}

#[test]
fn read_timeouts_surface_typed_and_reconnect_recovers() {
    // Every reply stalls 300 ms; a 50 ms read deadline must surface as
    // the typed `Timeout` (not a hang, not a generic I/O error), and a
    // reconnect with a generous deadline must serve — the stalled reply
    // of the abandoned connection cannot leak into the new one.
    let plan = FaultPlan::new(3).with_stalls(1000, 300_000);
    let config = ServerConfig::default().with_workers(1).with_faults(Some(plan));
    let (_server, front, addr) = start(config);

    let tight =
        ClientTimeouts { read: Some(Duration::from_millis(50)), ..ClientTimeouts::default() };
    let mut client = Client::connect_with(addr, tight).expect("client connects");
    let request = InferRequest::sampled(vec![1], 3, 2, 5);
    let got = client.infer(&request);
    assert!(
        matches!(got, Err(ServerError::Timeout { waited }) if waited == Duration::from_millis(50)),
        "a stalled reply times out typed: {got:?}"
    );

    let mut patient = Client::connect(addr).expect("patient client connects");
    patient.infer(&request).expect("the stall is a delay, not a failure");
    front.stop();
    front.run_until_shutdown();
}

#[test]
fn client_retry_converges_under_injected_socket_resets() {
    // Half the command lines reset (budget 4): the jittered-backoff
    // retry must land every request exactly once — a reset fires
    // *before* dispatch, so re-submission never double-serves.
    let plan = FaultPlan::new(0x0002_E5E7).with_resets(500, 4);
    let config = ServerConfig::default().with_workers(1).with_faults(Some(plan));
    let (server, front, addr) = start(config);

    let policy = RetryPolicy { attempts: 10, ..RetryPolicy::default() };
    let mut client = Client::connect(addr).expect("client connects");
    for i in 0..8 {
        let request = InferRequest::sampled(vec![i, i + 1], 4, 2, i as u64);
        client
            .infer_retry(&request, SubmitOptions::default(), None, &policy)
            .unwrap_or_else(|e| panic!("request {i} did not converge: {e}"));
    }
    let health = server.health();
    assert_eq!(health.crashes, 0, "resets are a socket fault, not a worker fault");
    let stats = server.stats();
    assert_eq!(stats.completed, 8, "exactly-once: each request served once despite retries");
    front.stop();
    front.run_until_shutdown();
}

#[test]
fn injected_allocation_failures_answer_typed_without_crashing() {
    // An allocation failure at the engine stage boundary is a *typed*
    // engine error per request — the worker survives, nothing respawns.
    let plan = FaultPlan::new(11).with_alloc_failures(1000);
    let config = ServerConfig::default().with_workers(1).with_faults(Some(plan));
    let (server, front, addr) = start(config);

    let mut client = Client::connect(addr).expect("client connects");
    let got = client.infer(&InferRequest::sampled(vec![2], 3, 2, 4));
    match got {
        Err(ServerError::RemoteEngine(msg)) => {
            assert!(msg.contains("allocation"), "typed alloc failure: {msg}")
        }
        other => panic!("expected a typed engine error, got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(stats.worker_crashes, 0, "alloc failures never kill the worker");
    assert_eq!(stats.failed, 1, "… but they are counted as failed requests");
    let slow = server.trace_lines(blockgnn::server::TraceQuery::Slow);
    assert_eq!(slow.len(), 1, "… and each leaves a failed exemplar: {slow:?}");
    assert!(slow[0].contains(" outcome=failed batch=1 "), "{}", slow[0]);
    front.stop();
    front.run_until_shutdown();
}

#[test]
fn chaos_replay_converges_and_the_pool_returns_to_full_strength() {
    // The chaos invariant: a seeded plan injecting worker panics,
    // socket resets, stalls, and latency into the adversarial trace.
    // Every submitted event must end in exactly one typed outcome (the
    // resilient driver absorbs resets and crash replies), the pool must
    // heal back to full strength, and — updates disabled so the graph
    // version is pinned — the healed pool must serve the same bits as a
    // fault-free twin driving the same trace.
    let chaos = FaultPlan::new(0xC4A0_5F17)
        .with_panics(300, 4)
        .with_latency(60, 300)
        .with_resets(200, 6)
        .with_stalls(40, 400);
    let cooldown = Duration::from_millis(400);
    let config = ServerConfig::default()
        .with_workers(2)
        .with_batching(Duration::from_micros(500), 8)
        .with_breaker(3, Duration::from_secs(10), cooldown)
        .with_faults(Some(chaos));
    let (server, front, addr) = start(config);
    let (twin, twin_front, twin_addr) = start(
        ServerConfig::default().with_workers(2).with_batching(Duration::from_micros(500), 8),
    );

    let mut spec = ci_adversarial_spec(60).with_updates(0, 0);
    spec.events = 240;
    let trace = spec.generate();
    let policy = RetryPolicy { attempts: 8, ..RetryPolicy::default() };
    let timeouts = ClientTimeouts::default();
    let report = replay_tcp(addr, &trace, &policy, timeouts);
    let calm = replay_tcp(twin_addr, &trace, &RetryPolicy { attempts: 1, ..policy }, timeouts);

    assert_eq!(report.sent, trace.events.len(), "every event was driven");
    assert_eq!(
        report.transport_errors, 0,
        "resets and crashes all converged within the retry budget: {report:?}"
    );
    assert!(report.retries > 0, "the chaos plan actually fired: {report:?}");
    assert_eq!(
        report.ok + report.shed + report.typed_errors,
        report.sent,
        "exactly one typed outcome per submitted event: {report:?}"
    );
    assert_eq!(calm.transport_errors, 0, "the fault-free twin is clean: {calm:?}");

    let stats = server.stats();
    assert!(stats.worker_crashes >= 3, "≥3 injected panics landed: {}", stats.worker_crashes);
    assert_eq!(stats.restarts, stats.worker_crashes, "every crash was healed");
    assert_eq!(stats.workers_alive, 2, "the pool is back to full strength");

    // `health` re-evaluates the breaker on read: after the cooldown the
    // pool reports recovered even with no traffic ticking the workers.
    std::thread::sleep(cooldown + Duration::from_millis(100));
    assert!(!server.health().degraded, "degraded=false after recovery");

    // Bit-identity vs the fault-free replay: same pinned graph version
    // (no updates in the trace), so the healed chaos pool and the calm
    // twin must agree on every served bit.
    let mut survivor = Client::connect(addr).expect("post-chaos client connects");
    let mut calm_client = Client::connect(twin_addr).expect("twin client connects");
    for i in 0..6 {
        let request = InferRequest::sampled(vec![i * 9 % 60, (i * 9 + 7) % 60], 5, 3, i as u64);
        let got = survivor
            .infer_retry(&request, SubmitOptions::default(), None, &policy)
            .expect("the healed pool serves");
        let want = calm_client.infer(&request).expect("the twin serves");
        assert_eq!(got.graph_version, want.graph_version, "pinned graph version");
        assert_same_bits(&got, &want, "chaos-survivor response");
    }

    front.stop();
    let final_stats = front.run_until_shutdown();
    assert_eq!(final_stats.workers_alive, 2, "clean shutdown from full strength");
    drop(twin);
    twin_front.stop();
    twin_front.run_until_shutdown();
}

//! Workload-harness integration tests: a seeded adversarial trace must
//! replay **bit-identically** — same shed/dedup/batch-size counters and
//! the same fingerprint over every served logit's bits across two runs
//! on fresh engines, and again after a serialize/deserialize round trip
//! — and a live TCP front end under the same adversarial mix (malformed
//! floods, slow-loris clients, deadline storms) must answer every line
//! with a typed reply on a connection that stays open.

use blockgnn::engine::{BackendKind, Engine, InferRequest};
use blockgnn::gnn::ModelKind;
use blockgnn::server::protocol::{parse_command, Command};
use blockgnn::server::workload::{
    ci_adversarial_spec, replay_logical, replay_tcp, ArrivalKind, Trace, TraceEvent,
    WorkloadSpec,
};
use blockgnn::server::{
    BatchLimits, Client, ClientTimeouts, GraphDelta, RetryPolicy, Server, ServerConfig,
    SloClass, SubmitOptions, TcpServer, TenantSpec, DEFAULT_TENANT,
};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The two-tenant roster the replay tests run against: the default
/// tenant plus a weighted `traffic` tenant on a different dataset,
/// model, and backend.
fn roster() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new(DEFAULT_TENANT, "cora-small", ModelKind::Gcn, BackendKind::Dense)
            .hidden_dim(16)
            .seed(5),
        TenantSpec::new("traffic", "citeseer-small", ModelKind::GsPool, BackendKind::Dense)
            .hidden_dim(16)
            .seed(7)
            .weight(3),
    ]
}

/// Fresh engines for a logical replay — built identically every call,
/// which is what lets two replays start from the same bits.
fn engines() -> BTreeMap<String, Engine> {
    roster()
        .into_iter()
        .map(|spec| {
            let engine = spec.build_engine().expect("engine builds");
            (spec.name.clone(), engine)
        })
        .collect()
}

/// The pinned adversarial spec of these tests: both tenants, every
/// traffic flavour, node ids valid on both graphs.
fn adversarial_spec() -> WorkloadSpec {
    ci_adversarial_spec(60).with_tenants(vec![DEFAULT_TENANT.into(), "traffic".into()])
}

#[test]
fn seeded_trace_replays_bit_identically() {
    // The acceptance criterion of the whole harness: two logical
    // replays of one seeded trace on independently built engines agree
    // on *every* counter — sheds, dedups, batch sizes, per-class served
    // — and on a fingerprint folded over every served logit's bits.
    let trace = adversarial_spec().generate();
    let limits = BatchLimits::default();
    let first = replay_logical(&mut engines(), &trace, &limits);
    let second = replay_logical(&mut engines(), &trace, &limits);
    assert_eq!(first, second, "two replays of one trace must match bit for bit");
    // The trace actually exercised the machinery it claims to cover.
    assert!(first.served > 100, "most traffic serves: {first:?}");
    assert!(first.batches > 0 && first.logits_fingerprint != 0);
    assert!(first.shed_deadline > 0, "the deadline storm sheds: {first:?}");
    assert!(first.protocol_errors > 0, "malformed lines are rejected: {first:?}");
    assert!(first.updates > 0, "updates apply: {first:?}");
    // Only a garbled `@tenant` that still parses (2 lines here) meets
    // no engine.
    let names: Vec<String> = roster().into_iter().map(|spec| spec.name).collect();
    let strangers = trace
        .events
        .iter()
        .filter(|e| match parse_command(&e.line) {
            Ok(Command::Infer(_, _, Some(name)) | Command::Update(_, Some(name))) => {
                !names.contains(&name)
            }
            _ => false,
        })
        .count();
    assert_eq!(first.unknown_tenant, strangers, "{first:?}");
    let by_size: usize = first.batch_size_counts.values().sum();
    assert_eq!(by_size, first.batches, "batch histogram adds up");
    assert!(
        first.batch_size_counts.keys().any(|&s| s >= 2),
        "bursts coalesce into multi-request batches: {:?}",
        first.batch_size_counts
    );
    let by_class: usize = first.class_served.iter().sum();
    assert_eq!(by_class, first.served, "class rollup adds up");
    assert!(first.class_served.iter().all(|&c| c > 0), "all three classes served");
}

#[test]
fn decoded_traces_replay_identically_to_their_originals() {
    // Serialization is part of the replay contract: a trace that
    // crossed a file (hex f64 bits and all) must drive the exact same
    // execution as the in-memory original.
    let trace = adversarial_spec().generate();
    let decoded = Trace::decode(&trace.encode()).expect("round trip");
    assert_eq!(decoded, trace);
    let limits = BatchLimits::default();
    let original = replay_logical(&mut engines(), &trace, &limits);
    let replayed = replay_logical(&mut engines(), &decoded, &limits);
    assert_eq!(original, replayed, "a decoded trace replays bit-identically");
}

#[test]
fn batching_limits_shape_logical_batches() {
    // A single-tenant single-class burst coalesces up to the caps; a
    // zero window serializes everything. Same trace, different limits.
    let spec = WorkloadSpec::new(0xBA7C, 120, 50)
        .with_arrival(ArrivalKind::Bursty, 400)
        .with_class_mix([0, 1, 0]);
    let trace = spec.generate();
    for event in &trace.events {
        if let Ok(Command::Infer(_, options, _)) = parse_command(&event.line) {
            assert_eq!(options.class, SloClass::Silver, "a zero-weight mix never draws");
        }
    }
    let wide = replay_logical(
        &mut engines(),
        &trace,
        &BatchLimits { window: Duration::from_micros(5_000), max_requests: 8, max_nodes: 1024 },
    );
    let serial = replay_logical(
        &mut engines(),
        &trace,
        &BatchLimits { window: Duration::ZERO, max_requests: 8, max_nodes: 1024 },
    );
    assert!(
        wide.batch_size_counts.keys().max() > serial.batch_size_counts.keys().max(),
        "a wide window coalesces deeper than a zero one: wide={:?} serial={:?}",
        wide.batch_size_counts,
        serial.batch_size_counts
    );
    assert!(wide.batch_size_counts.keys().all(|&s| s <= 8), "request cap holds");
    assert_eq!(serial.deduped, 0, "serialized traffic has nothing to dedup");
    assert_eq!(wide.served + wide.engine_errors, serial.served + serial.engine_errors);
}

#[test]
fn an_update_landing_during_a_hold_is_seen_by_the_held_batch() {
    // The server swaps a graph version in *between* batches, and a
    // batch resolves its version when it executes — after its hold. The
    // replay must model that, not treat updates as barriers: a read
    // admitted at t = 0 is held for the 500 µs window, an update that
    // overwrites the row it reads lands at t = 100 µs, and the read's
    // logits are those of the new version.
    let width = engines()[DEFAULT_TENANT].dataset().feature_dim();
    let read = |at_us| TraceEvent {
        at_us,
        client: 1,
        line: Command::Infer(InferRequest::full_graph(vec![0]), SubmitOptions::default(), None)
            .to_string(),
        dribble: None,
    };
    let write = |at_us| TraceEvent {
        at_us,
        client: 0,
        line: Command::Update(GraphDelta::new().set_feature_row(0, vec![0.5; width]), None)
            .to_string(),
        dribble: None,
    };
    let replay = |events: Vec<TraceEvent>| {
        let report = replay_logical(
            &mut engines(),
            &Trace { seed: 0, clients: 2, events },
            &BatchLimits::default(),
        );
        assert_eq!((report.served, report.updates, report.batches), (1, 1, 1), "{report:?}");
        report.logits_fingerprint
    };
    let on_new_version = replay(vec![write(0), read(0)]);
    let on_old_version = replay(vec![read(0), write(10_000)]);
    let held_across_the_update = replay(vec![read(0), write(100)]);
    assert_ne!(on_new_version, on_old_version, "the update changes what the read returns");
    assert_eq!(
        held_across_the_update, on_new_version,
        "a batch held open across an update executes on the version it published"
    );
}

#[test]
fn a_request_refused_at_admission_never_joins_a_replayed_batch() {
    // Two reads at t = 0 on the default tenant; its graph has no node
    // 99 999, so the server refuses that read at admission and runs the
    // other in a batch of one.
    let read = |client, node| TraceEvent {
        at_us: 0,
        client,
        line: Command::Infer(
            InferRequest::full_graph(vec![node]),
            SubmitOptions::default(),
            None,
        )
        .to_string(),
        dribble: None,
    };
    let trace = Trace { seed: 0, clients: 2, events: vec![read(0, 0), read(1, 99_999)] };
    let report = replay_logical(&mut engines(), &trace, &BatchLimits::default());
    assert_eq!(report.batch_size_counts, BTreeMap::from([(1, 1)]), "{report:?}");
    assert_eq!(report.engine_errors, 1, "{report:?}");
}

#[test]
fn the_logical_replay_books_what_the_server_books() {
    // One client over both tenants, unbatched on both sides, so the
    // live server meets the events one at a time and every count is
    // free of wall-clock timing. Node ids run past the default tenant's
    // 680 nodes, so some reads and updates are refused there. Malformed
    // lines ride along, and seed 0x1 garbles two of them into infers
    // that still parse on a deployed tenant, which both sides serve.
    let trace = WorkloadSpec::new(0x1, 160, 800)
        .with_clients(1)
        .with_tenants(vec![DEFAULT_TENANT.into(), "traffic".into()])
        .with_updates(80, 0)
        .with_adversarial(120, 60, 0)
        .generate();
    let has = |f: fn(&TraceEvent) -> bool| trace.events.iter().any(f);
    assert!(has(|e| matches!(parse_command(&e.line), Ok(Command::Update(..)))));
    assert!(has(|e| e.dribble.is_some()));
    assert!(has(|e| parse_command(&e.line).is_err()));
    let specs = roster();
    let roster_infers = trace
        .events
        .iter()
        .filter(|e| match parse_command(&e.line) {
            Ok(Command::Infer(_, _, name)) => {
                let name = name.as_deref().unwrap_or(DEFAULT_TENANT);
                specs.iter().any(|spec| spec.name == name)
            }
            _ => false,
        })
        .count();
    let unbatched =
        BatchLimits { window: Duration::ZERO, max_requests: 1, ..Default::default() };
    let replayed = replay_logical(&mut engines(), &trace, &unbatched);
    assert_eq!(replayed.infers, roster_infers, "every infer on a roster tenant is offered");

    let server = Arc::new(
        Server::start(
            specs[0].build_engine().expect("default engine"),
            ServerConfig::default().with_workers(1).unbatched(),
        )
        .expect("server starts"),
    );
    for spec in &specs[1..] {
        server.deploy(spec).expect("tenant deploys");
    }
    let front = TcpServer::bind(Arc::clone(&server), "127.0.0.1:0").expect("binds");
    let once = RetryPolicy { attempts: 1, ..RetryPolicy::default() };
    let traffic = replay_tcp(front.local_addr(), &trace, &once, ClientTimeouts::default());
    assert_eq!(traffic.transport_errors, 0, "{traffic:?}");
    let booked = server.stats();
    let replay = (
        replayed.infers,
        replayed.served,
        replayed.engine_errors,
        replayed.shed_deadline,
        replayed.batches,
        &replayed.batch_size_counts,
        replayed.updates,
        replayed.failed_updates,
    );
    let live = (
        booked.submitted,
        booked.completed,
        booked.failed,
        booked.shed_deadline,
        booked.batches,
        &booked.batch_size_counts,
        booked.updates,
        booked.failed_updates,
    );
    assert_eq!(replay, live, "replay {replayed:?} against the server's {}", booked.summary());
    assert!(replayed.served > 100 && replayed.updates > 0, "{replayed:?}");
    assert!(replayed.engine_errors > 0, "the trace meets an admission refusal: {replayed:?}");
    let mut client = Client::connect(front.local_addr()).expect("client connects");
    client.shutdown().expect("clean shutdown");
    front.run_until_shutdown();
}

#[test]
fn adversarial_tcp_replay_earns_typed_errors_on_live_connections() {
    // The wall-clock half of the contract: drive the full adversarial
    // trace — malformed floods, slow-loris dribbles, deadline storms,
    // cross-tenant bursts — at a real TCP front end. Every line gets a
    // reply, failures are typed, and no connection drops.
    let specs = roster();
    let server = Arc::new(
        Server::start(
            specs[0].build_engine().expect("default engine"),
            ServerConfig::default()
                .with_workers(2)
                .with_batching(Duration::from_micros(500), 8),
        )
        .expect("server starts"),
    );
    for spec in &specs[1..] {
        server.deploy(spec).expect("tenant deploys");
    }
    let front = TcpServer::bind(Arc::clone(&server), "127.0.0.1:0").expect("binds");
    let addr = front.local_addr();

    let trace = adversarial_spec().generate();
    let once = RetryPolicy { attempts: 1, ..RetryPolicy::default() };
    let report = replay_tcp(addr, &trace, &once, ClientTimeouts::default());
    assert_eq!(report.sent, trace.events.len(), "every event was driven");
    assert_eq!(
        report.transport_errors, 0,
        "adversarial load never drops a connection: {report:?}"
    );
    assert!(report.ok > 0 && report.updates_ok > 0, "real traffic serves: {report:?}");
    assert!(report.typed_errors > 0, "malformed lines earn typed err replies: {report:?}");
    assert!(report.shed > 0, "the deadline storm sheds typed: {report:?}");
    assert!(
        report.class_latency[SloClass::Gold.index()].count() > 0,
        "gold latency was observed"
    );

    // The server is still fully alive afterwards: a fresh client gets
    // served, per-class telemetry rolled up, and shutdown is clean.
    let mut client = Client::connect(addr).expect("post-replay client connects");
    client
        .infer_with(
            &InferRequest::sampled(vec![1, 2], 4, 2, 9),
            SubmitOptions::class(SloClass::Gold),
        )
        .expect("the server still serves after the storm");
    let stats = client.stats().expect("stats");
    assert!(stats.contains("class=gold:"), "per-class rollups in stats: {stats}");
    client.shutdown().expect("clean shutdown");
    let stats = front.run_until_shutdown();
    assert!(stats.completed > 0);
}

#[test]
fn zipfian_gold_load_rides_the_closed_loop_generator() {
    // `blockgnn-client load`'s trace: zipfian gold infers microseconds
    // apart, so every event is overdue and each client runs a closed
    // loop; everything serves and the gold rollup shows up in stats.
    let trace = WorkloadSpec::new(0xB10C, 30, 600)
        .with_arrival(ArrivalKind::Uniform, 1)
        .with_clients(3)
        .with_zipf(1.2)
        .with_class_mix([1, 0, 0])
        .generate();

    let spec = &roster()[0];
    let server = Arc::new(
        Server::start(
            spec.build_engine().expect("engine builds"),
            ServerConfig::default().with_workers(2),
        )
        .expect("server starts"),
    );
    let front = TcpServer::bind(Arc::clone(&server), "127.0.0.1:0").expect("binds");
    let addr = front.local_addr();
    let once = RetryPolicy { attempts: 1, ..RetryPolicy::default() };
    let report = replay_tcp(addr, &trace, &once, ClientTimeouts::default());
    assert_eq!(report.ok, report.sent, "gold zipfian load fully serves: {report:?}");
    let mut client = Client::connect(addr).expect("client connects");
    let stats = client.stats().expect("stats");
    assert!(
        stats.contains("class=gold:requests=30:completed=30:"),
        "all 30 gold requests rolled up: {stats}"
    );
    client.shutdown().expect("clean shutdown");
    front.run_until_shutdown();
}

#[test]
fn replay_honours_the_client_read_deadline() {
    // A peer that completes every handshake and never answers: only the
    // read deadline ends each exchange, so every event must come back a
    // transport error instead of hanging the replay.
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("local addr");
    // Every accepted stream stays open for the life of the test binary.
    std::thread::spawn(move || listener.incoming().collect::<Vec<_>>());
    let trace = WorkloadSpec::new(5, 4, 40).with_clients(2).generate();
    let (done, report) = mpsc::channel();
    std::thread::spawn(move || {
        let once = RetryPolicy { attempts: 1, ..RetryPolicy::default() };
        let timeouts = ClientTimeouts::all(Duration::from_millis(200));
        done.send(replay_tcp(addr, &trace, &once, timeouts)).expect("test is waiting");
    });
    let report = report.recv_timeout(Duration::from_secs(10)).expect("the replay hung");
    assert_eq!(report.sent, 4, "every event was driven: {report:?}");
    assert_eq!(report.transport_errors, 4, "every event timed out: {report:?}");
}

//! Golden wire transcripts: the exact line every public `Client` method
//! writes and what it makes of each reply (against a scripted fake
//! peer), and the replies a live `TcpServer` gives a fixed script.
//! Time-dependent reply fields are masked; every other byte is pinned as
//! it crossed the wire, so a codec change that moves the wire fails here.

use blockgnn::engine::{BackendKind, EngineBuilder, InferRequest};
use blockgnn::gnn::ModelKind;
use blockgnn::graph::datasets;
use blockgnn::graph::delta::GraphDelta;
use blockgnn::nn::Compression;
use blockgnn::server::{
    Client, RetryPolicy, Server, ServerConfig, SloClass, SubmitOptions, TcpServer, TenantSpec,
};
use std::fmt::Debug;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// A scripted peer on one connection: every request line it reads goes
/// back to the test, and is answered with the next canned reply.
struct Peer {
    client: Client,
    replies: mpsc::Sender<String>,
    received: mpsc::Receiver<String>,
    thread: JoinHandle<()>,
    mismatches: Vec<String>,
}

impl Peer {
    fn start() -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("has an address");
        let (replies, next_reply) = mpsc::channel::<String>();
        let (record, received) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("client connects");
            let mut writer = stream.try_clone().expect("clones");
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                let Ok(reply) = next_reply.recv() else { break };
                record.send(std::mem::take(&mut line)).expect("the test listens");
                writer.write_all(format!("{reply}\n").as_bytes()).expect("replies");
            }
        });
        let client = Client::connect(addr).expect("connects");
        Self { client, replies, received, thread, mismatches: Vec::new() }
    }

    /// Answers the next request with `reply`, runs `call`, and returns
    /// the raw line the client sent and the `Debug` of what it returned.
    fn exchange<T: Debug>(
        &mut self,
        reply: &str,
        call: impl FnOnce(&mut Client) -> T,
    ) -> (String, String) {
        self.replies.send(reply.to_string()).expect("the peer is up");
        let got = call(&mut self.client);
        (self.received.recv().expect("the peer saw a line"), format!("{got:?}"))
    }

    /// One pinned exchange: the request line (LF included) and the
    /// decoded reply must both be exactly as given. Mismatches are
    /// collected, so one run shows all of them.
    fn pin<T: Debug>(
        &mut self,
        reply: &str,
        call: impl FnOnce(&mut Client) -> T,
        sent: &str,
        got: &str,
    ) {
        let (was_sent, was_got) = self.exchange(reply, call);
        if was_sent != format!("{sent}\n") || was_got != got {
            self.mismatches.push(format!(
                "reply {reply:?}\n  sent {was_sent:?}, pinned {sent:?}\n  got  {was_got:?}\n  \
                 pin  {got:?}"
            ));
        }
    }

    /// A malformed reply: only that the call fails is pinned.
    fn refuse<T, E>(&mut self, reply: &str, call: impl FnOnce(&mut Client) -> Result<T, E>) {
        let (_, refused) = self.exchange(reply, |c| call(c).is_err());
        if refused != "true" {
            self.mismatches.push(format!("malformed reply {reply:?} was accepted"));
        }
    }

    /// Hangs up and reports every mismatch.
    fn finish(self) {
        drop(self.client);
        self.thread.join().expect("the peer exits cleanly");
        assert!(self.mismatches.is_empty(), "{}", self.mismatches.join("\n"));
    }
}

const INFER_OK: &str =
    "ok rows=1 cols=2 queue_us=10 compute_us=20 from_cache=0 parts=1 batch=3 \
                        version=4 tenant=default cycles=0 energy=none trace=00000000000000ab \
                        preds=1 logits=3ff0000000000000,4000000000000000";
const INFER_GOT: &str = r#"Ok(RemoteResponse { logits: Matrix { rows: 1, cols: 2, data: [1.0, 2.0] }, predictions: [1], latency: 30µs, queue_time: 10µs, compute_time: 20µs, from_cache: false, parts: 1, batch_size: 3, graph_version: 4, tenant: "default", sim_cycles: 0, energy_joules: None, trace_id: 171 })"#;

const DEPLOY_GOT: &str = r#"Ok(TenantInfo { name: "t2", model: Gat, backend: Spectral, graph_version: 0, num_nodes: 680, weight: 3, queue_depth: 0, resident_bytes: 123456 })"#;

#[test]
fn every_client_method_writes_and_reads_its_pinned_lines() {
    let mut peer = Peer::start();
    let gold = SubmitOptions::class(SloClass::Gold);
    let sampled = InferRequest::sampled(vec![3, 1, 3], 10, 5, 42);
    let full = InferRequest::full_graph(vec![0, 2]);
    let all = InferRequest::all_nodes();

    // infer: full / all / sampled × class × whole-ms deadline × @tenant.
    peer.pin(INFER_OK, |c| c.infer(&full), "infer full 0,2", INFER_GOT);
    peer.pin(INFER_OK, |c| c.infer(&all), "infer full all", INFER_GOT);
    let line = "infer sampled s1=10 s2=5 seed=42 nodes=3,1,3";
    peer.pin(INFER_OK, |c| c.infer(&sampled), line, INFER_GOT);
    peer.pin(INFER_OK, |c| c.infer_with(&full, gold), "infer full 0,2 class=gold", INFER_GOT);
    let late = SubmitOptions::deadline(Duration::from_millis(250));
    peer.pin(
        INFER_OK,
        |c| c.infer_with(&all, late),
        "infer full all deadline_ms=250",
        INFER_GOT,
    );
    let bronze =
        SubmitOptions::class(SloClass::Bronze).with_deadline(Duration::from_millis(75));
    let line = "infer sampled s1=10 s2=5 seed=42 nodes=3,1,3 class=bronze deadline_ms=75";
    peer.pin(INFER_OK, |c| c.infer_with(&sampled, bronze), line, INFER_GOT);
    peer.pin(
        INFER_OK,
        |c| c.infer_tenant(&all, SubmitOptions::default(), Some("traffic")),
        "infer@traffic full all",
        INFER_GOT,
    );
    peer.pin(
        INFER_OK,
        |c| c.infer_tenant(&full, gold.with_deadline(Duration::from_secs(2)), Some("t-2")),
        "infer@t-2 full 0,2 class=gold deadline_ms=2000",
        INFER_GOT,
    );
    let silver = SubmitOptions::class(SloClass::Silver);
    peer.pin(
        INFER_OK,
        |c| c.infer_retry(&sampled, silver, Some("a.b_c"), &RetryPolicy::default()),
        "infer@a.b_c sampled s1=10 s2=5 seed=42 nodes=3,1,3",
        INFER_GOT,
    );
    peer.pin(
        "ok rows=2 cols=1 queue_us=0 compute_us=7 from_cache=1 parts=2 batch=1 version=0 \
         tenant=traffic cycles=1052 energy=3f50624dd2f1a9fc trace=0000000000000000 preds=0,0 \
         logits=bff8000000000000;0000000000000001",
        |c| c.infer_tenant(&full, SubmitOptions::default(), Some("traffic")),
        "infer@traffic full 0,2",
        r#"Ok(RemoteResponse { logits: Matrix { rows: 2, cols: 1, data: [-1.5, 5e-324] }, predictions: [0, 0], latency: 7µs, queue_time: 0ns, compute_time: 7µs, from_cache: true, parts: 2, batch_size: 1, graph_version: 0, tenant: "traffic", sim_cycles: 1052, energy_joules: Some(0.001), trace_id: 0 })"#,
    );

    // update with every clause, plain and @tenant.
    peer.pin(
        "ok update tenant=default version=1 nodes=60 arcs=200",
        |c| c.update(&GraphDelta::new().add_edge(0, 1)),
        "update add=0:1",
        r#"Ok(UpdateAck { tenant: "default", version: 1, num_nodes: 60, num_arcs: 200 })"#,
    );
    let delta = GraphDelta::new()
        .add_edge(0, 5)
        .add_edge(3, 3)
        .remove_edge(7, 2)
        .set_feature_row(4, vec![0.5, -2.0])
        .set_feature_row(6, vec![])
        .append_node(vec![1.0, f64::MIN_POSITIVE])
        .append_node(vec![-0.0]);
    peer.pin(
        "ok update tenant=traffic version=9 nodes=120 arcs=512",
        |c| c.update_tenant(&delta, Some("traffic")),
        "update@traffic add=0:5,3:3 del=7:2 feat=4:3fe0000000000000,c000000000000000;6: \
         new=3ff0000000000000,0010000000000000;8000000000000000",
        r#"Ok(UpdateAck { tenant: "traffic", version: 9, num_nodes: 120, num_arcs: 512 })"#,
    );

    // deploy with defaults and with every knob.
    let deploy_ack = "ok deploy tenant=t2 model=gat backend=spectral version=0 nodes=680 \
                      weight=3 resident=123456";
    let spec = TenantSpec::new("t2", "cora-small", ModelKind::Gat, BackendKind::Spectral);
    peer.pin(deploy_ack, |c| c.deploy(&spec), "deploy t2=cora-small:gat:spectral", DEPLOY_GOT);
    let spec =
        TenantSpec::new("t2", "pubmed-small", ModelKind::Ggcn, BackendKind::SimulatedAccel)
            .weight(3)
            .max_queue_depth(17)
            .hidden_dim(16)
            .block_size(4)
            .seed(7);
    peer.pin(
        deploy_ack,
        |c| c.deploy(&spec),
        "deploy t2=pubmed-small:g-gcn:simulated-accel weight=3 depth=17 hidden=16 block=4 seed=7",
        DEPLOY_GOT,
    );

    // The control and observability verbs.
    let sendoff = "ok retire tenant=t2 requests=5 completed=4 shed=1";
    peer.pin(
        sendoff,
        |c| c.retire("t2"),
        "retire t2",
        r#"Ok("ok retire tenant=t2 requests=5 completed=4 shed=1")"#,
    );
    peer.pin(
        "ok list tenants=2 default:gcn:dense:0:60:1:2:98765 \
         traffic:gs-pool:simulated-accel:4:61:3:0:123456",
        |c| c.list(),
        "list",
        r#"Ok([TenantInfo { name: "default", model: Gcn, backend: Dense, graph_version: 0, num_nodes: 60, weight: 1, queue_depth: 2, resident_bytes: 98765 }, TenantInfo { name: "traffic", model: GsPool, backend: SimulatedAccel, graph_version: 4, num_nodes: 61, weight: 3, queue_depth: 0, resident_bytes: 123456 }])"#,
    );
    peer.pin("ok list tenants=0", |c| c.list(), "list", "Ok([])");
    peer.pin(
        "ok stats requests=3 completed=3",
        |c| c.stats(),
        "stats",
        r#"Ok("requests=3 completed=3")"#,
    );
    peer.pin(
        "ok stats requests=1",
        |c| c.stats_tenant(Some("traffic")),
        "stats@traffic",
        r#"Ok("requests=1")"#,
    );
    peer.pin("ok stats requests=0", |c| c.stats_tenant(None), "stats", r#"Ok("requests=0")"#);
    peer.pin("pong", |c| c.ping(), "ping", "Ok(())");
    peer.pin(
        "ok health workers=2 alive=1 crashes=3 restarts=2 degraded=true",
        |c| c.health(),
        "health",
        "Ok(HealthReport { workers: 2, alive: 1, crashes: 3, restarts: 2, degraded: true })",
    );
    peer.pin(
        "ok metrics lines=2\n# TYPE blockgnn_up gauge\nblockgnn_up 1",
        |c| c.metrics(),
        "metrics",
        r##"Ok("# TYPE blockgnn_up gauge\nblockgnn_up 1")"##,
    );
    peer.pin(
        "ok trace lines=2\nfirst\nsecond",
        |c| c.trace_last(2),
        "trace last=2",
        r#"Ok(["first", "second"])"#,
    );
    peer.pin(
        "ok trace lines=1\nid=00000000000000ff",
        |c| c.trace_id(0xFF),
        "trace id=00000000000000ff",
        r#"Ok(Some("id=00000000000000ff"))"#,
    );
    peer.pin("ok trace lines=0", |c| c.trace_id(0xAB), "trace id=00000000000000ab", "Ok(None)");
    peer.pin(
        "ok trace lines=1\nslow one",
        |c| c.trace_slow(),
        "trace slow",
        r#"Ok(["slow one"])"#,
    );
    peer.pin("ok trace lines=1\n[{}]", |c| c.trace_export(), "trace export", r#"Ok("[{}]")"#);

    // One typed rejection per error kind.
    for (reply, got) in [
        (
            "err overloaded request shed: queue full (9/9)",
            "Err(Overloaded { depth: 0, max_depth: 0 })",
        ),
        ("err deadline request shed: deadline passed", "Err(DeadlineExceeded { waited: 0ns })"),
        ("err shutting_down server is shutting down", "Err(ShuttingDown)"),
        ("err canceled serving worker dropped the request", "Err(Canceled)"),
        ("err worker_crashed serving worker crashed mid-batch", "Err(WorkerCrashed)"),
        ("err timeout request timed out", "Err(Timeout { waited: 0ns })"),
        ("err engine node 9999 out of range", r#"Err(RemoteEngine("node 9999 out of range"))"#),
        (
            "err protocol unknown command \"nope\"",
            r#"Err(Protocol("unknown command \"nope\""))"#,
        ),
        ("err io connection reset", r#"Err(Io("connection reset"))"#),
        ("err unknown_tenant ghost", r#"Err(UnknownTenant { name: "ghost" })"#),
        ("err tenant_exists dup", r#"Err(TenantExists { name: "dup" })"#),
        ("err tenant_budget needed=10 budget=5", "Err(TenantBudget { needed: 10, budget: 5 })"),
    ] {
        peer.pin(reply, |c| c.infer(&all), "infer full all", got);
    }

    peer.pin("ok bye", |c| c.shutdown(), "shutdown", "Ok(())");

    // Malformed replies — a missing field, an unknown field, a wrong
    // prefix, a bad value — are errors, never guesses.
    let gcn = TenantSpec::new("a", "cora-small", ModelKind::Gcn, BackendKind::Dense);
    peer.refuse("ok update version=1 nodes=2 arcs=3", |c| c.update(&delta));
    peer.refuse("ok update tenant=a version=1 nodes=2 arcs=3 extra=4", |c| c.update(&delta));
    peer.refuse("ok deploy tenant=a model=gcn", |c| c.deploy(&gcn));
    peer.refuse("ok update tenant=a version=1 nodes=2 arcs=3", |c| c.infer(&all));
    peer.refuse(&INFER_OK.replace(" parts=1", " parts=1 colour=blue"), |c| c.infer(&all));
    peer.refuse(&INFER_OK.replace(" rows=1", ""), |c| c.infer(&all));
    peer.refuse(&INFER_OK.replace("rows=1", "rows=2"), |c| c.infer(&all));
    peer.refuse("ok health workers=2 alive=2", |c| c.health());
    peer.refuse("ok health workers=2 alive=2 crashes=0 restarts=0 degraded=maybe", |c| {
        c.health()
    });
    peer.refuse("ok list tenants=2 a:gcn:dense:0:1:1:0:9", |c| c.list());
    peer.refuse("ok retired tenant=t2", |c| c.retire("t2"));
    peer.refuse("ok stat requests=1", |c| c.stats());
    peer.refuse("ping", |c| c.ping());
    peer.refuse("ok metrics lines=x", |c| c.metrics());
    peer.refuse("ok metrics lines=0", |c| c.trace_slow());
    peer.refuse("ok trace lines=0", |c| c.trace_export());
    peer.refuse("err nonsense kind", |c| c.infer(&all));
    peer.refuse("bye", |c| c.shutdown());
    peer.finish();
}

/// Reply fields that depend on time or on the trace counter.
const MASKED: &[&str] = &[
    "queue_us",
    "compute_us",
    "trace",
    "lines",
    "qps",
    "p50_us",
    "p95_us",
    "p99_us",
    "mean_queue_us",
    "mean_compute_us",
    "mean_batch",
];

/// A reply as the transcript pins it: an `err` reply reduced to its
/// kind word, and every masked `key=value` field — inside the stats
/// line's colon-separated segments too — reduced to `key=*`.
fn masked(reply: &str) -> String {
    if let Some(rest) = reply.strip_prefix("err ") {
        return format!("err {}", rest.split(' ').next().unwrap_or_default());
    }
    let field = |f: &str| match f.split_once('=') {
        Some((key, _)) if MASKED.contains(&key) => format!("{key}=*"),
        _ => f.to_string(),
    };
    let word = |w: &str| w.split(':').map(field).collect::<Vec<_>>().join(":");
    reply.split(' ').map(word).collect::<Vec<_>>().join(" ")
}

/// The valid half of the server script: one line per verb (and the
/// `@tenant` qualifier where the grammar allows one), in order.
const VALID: &[(&str, &str)] = &[
    ("ping", "pong"),
    ("health", "ok health workers=1 alive=1 crashes=0 restarts=0 degraded=false"),
    ("infer full 0,1", "ok rows=2 cols=7 queue_us=* compute_us=* from_cache=0 parts=1 batch=1 version=0 tenant=default cycles=0 energy=none trace=* preds=4,3 logits=3f44aad3ed43e244,bf5ef9ea0fc44628,3f6484b3e81790a1,3f672bb9c5101c7d,3f698bf60c43ae9f,bf66ccb2a2c60794,bf62847b409ff603;3f55d5a656fe06a6,3f5689d24fbf6a58,bf6bc03455604488,3f6735f13d6ba8e3,bf5a139a78a0d545,bf78c75f937de2af,bf65c04b2f229278"),
    ("infer full 0,1", "ok rows=2 cols=7 queue_us=* compute_us=* from_cache=1 parts=0 batch=1 version=0 tenant=default cycles=0 energy=none trace=* preds=4,3 logits=3f44aad3ed43e244,bf5ef9ea0fc44628,3f6484b3e81790a1,3f672bb9c5101c7d,3f698bf60c43ae9f,bf66ccb2a2c60794,bf62847b409ff603;3f55d5a656fe06a6,3f5689d24fbf6a58,bf6bc03455604488,3f6735f13d6ba8e3,bf5a139a78a0d545,bf78c75f937de2af,bf65c04b2f229278"),
    ("infer sampled s1=4 s2=2 seed=3 nodes=5 class=gold deadline_ms=5000", "ok rows=1 cols=7 queue_us=* compute_us=* from_cache=0 parts=1 batch=1 version=0 tenant=default cycles=0 energy=none trace=* preds=4 logits=3f5e5e785fcf4133,bf819964a7eb6bb9,bf56f324005503f4,3f62272d13f6dad8,3f679a8b3d64a016,bf88b4348aa80dd4,bf7a2820888d96a2"),
    ("infer@traffic full 2 class=bronze", "ok rows=1 cols=6 queue_us=* compute_us=* from_cache=0 parts=1 batch=1 version=0 tenant=traffic cycles=0 energy=none trace=* preds=3 logits=3f90d91f892094c0,3f92b9bc083ddb55,3f8b8c4315f64703,3f9a1b4ba6f2c82b,bf853eea778ae0a4,3f88c76ea8b2aa7a"),
    ("update add=0:5", "ok update tenant=default version=1 nodes=680 arcs=5282"),
    ("update@traffic add=1:2", "ok update tenant=traffic version=1 nodes=830 arcs=2362"),
    ("infer full 0,1", "ok rows=2 cols=7 queue_us=* compute_us=* from_cache=0 parts=1 batch=1 version=1 tenant=default cycles=0 energy=none trace=* preds=4,3 logits=3f4f355385c9f02a,bf61a435b1183d4c,3f623839aa9fc7e4,3f656a752b955646,3f67f0f0566eeac7,bf6c70aca902652d,bf5fce889479f54e;3f55d5a656fe06a6,3f5689d24fbf6a58,bf6bc03455604488,3f6735f13d6ba8e3,bf5a139a78a0d545,bf78c75f937de2af,bf65c04b2f229278"),
    ("stats", "ok stats requests=5 completed=5 failed=0 shed_overload=0 shed_deadline=0 qps=* p50_us=* p95_us=* p99_us=* mean_queue_us=* mean_compute_us=* batches=5 mean_batch=* deduped=0 version=1 updates=2 failed_updates=0 workers_alive=1 worker_crashes=0 restarts=0 degraded=false part_balance=0.00 class=gold:requests=1:completed=1:failed=0:shed=0:p50_us=*:p95_us=*:p99_us=* class=silver:requests=3:completed=3:failed=0:shed=0:p50_us=*:p95_us=*:p99_us=* class=bronze:requests=1:completed=1:failed=0:shed=0:p50_us=*:p95_us=*:p99_us=* tenants=2 tenant=default:w=1:requests=4:completed=4:failed=0:shed=0:version=1:updates=1:depth=0:qps=*:p50_us=*:p95_us=*:p99_us=* tenant=traffic:w=1:requests=1:completed=1:failed=0:shed=0:version=1:updates=1:depth=0:qps=*:p50_us=*:p95_us=*:p99_us=*"),
    ("stats@traffic", "ok stats requests=1 completed=1 failed=0 shed_overload=0 shed_deadline=0 qps=* p50_us=* p95_us=* p99_us=* mean_queue_us=* mean_compute_us=* batches=1 mean_batch=* deduped=0 version=1 updates=1 failed_updates=0 workers_alive=1 worker_crashes=0 restarts=0 degraded=false part_balance=0.00 class=bronze:requests=1:completed=1:failed=0:shed=0:p50_us=*:p95_us=*:p99_us=*"),
    ("deploy scratch=cora-small:gcn:dense weight=2", "ok deploy tenant=scratch model=gcn backend=dense version=0 nodes=680 weight=2 resident=524320"),
    ("list", "ok list tenants=3 default:gcn:dense:1:680:1:0:523280 scratch:gcn:dense:0:680:2:0:524320 traffic:gs-pool:dense:1:830:1:0:852960"),
    ("retire scratch", "ok retire tenant=scratch requests=0 completed=0 shed=0"),
    ("metrics", "ok metrics lines=*"),
    ("trace last=4", "ok trace lines=*"),
];

/// Every bad line of the `protocol::tests` and `tests/server.rs` tables,
/// with the error kind it earns.
const BAD: &[(&str, &str)] = &[
    // protocol::tests::class_clauses_parse_and_reject_typed
    ("infer full 0 class=diamond", "err protocol"),
    ("infer full 0 class=", "err protocol"),
    ("infer full 0 class=GOLD", "err protocol"),
    ("infer full 0 priority=2", "err protocol"),
    ("infer sampled s1=2 s2=1 seed=0 nodes=1 class=goldd", "err protocol"),
    // protocol::tests::tenant_qualifiers_parse_and_round_trip
    ("ping@t", "err protocol"),
    ("shutdown@t", "err protocol"),
    ("list@t", "err protocol"),
    ("deploy@t x=cora-small:gcn:dense", "err protocol"),
    ("retire@t t", "err protocol"),
    ("infer@ full all", "err protocol"),
    ("infer@a:b full all", "err protocol"),
    ("infer@a b full all", "err protocol"),
    // protocol::tests::deploy_retire_list_lines_round_trip
    ("deploy", "err protocol"),
    ("deploy nope", "err protocol"),
    ("deploy x=cora-small:gcn:dense wat=1", "err protocol"),
    ("deploy x=cora-small:gcn:dense weight=zero", "err protocol"),
    ("retire", "err protocol"),
    ("retire a b", "err protocol"),
    ("retire a:b", "err protocol"),
    // protocol::tests::simple_commands_parse
    ("nonsense", "err protocol"),
    ("infer sideways 1,2", "err protocol"),
    ("infer sampled s1=a s2=2 seed=3 nodes=1", "err protocol"),
    // protocol::tests::update_lines_round_trip_bit_exactly
    ("update add=1-2", "err protocol"),
    ("update bogus=1", "err protocol"),
    ("update feat=1", "err protocol"),
    ("update new=xyz", "err protocol"),
    // protocol::tests::malformed_update_clauses_fail_typed
    ("update add=1", "err protocol"),
    ("update add=1:b", "err protocol"),
    ("update add=a:2", "err protocol"),
    ("update del=1-2", "err protocol"),
    ("update feat=9", "err protocol"),
    ("update feat=x:0", "err protocol"),
    ("update feat=1:zz", "err protocol"),
    ("update new=zz", "err protocol"),
    ("update feat=1:7ff8000000000000", "err protocol"),
    ("update feat=1:3ff0000000000000,7ff0000000000001", "err protocol"),
    ("update feat=1:7ff0000000000000", "err protocol"),
    ("update new=fff0000000000000", "err protocol"),
    ("update new=3ff0000000000000;0,fff8000000000000", "err protocol"),
    ("update wat=1", "err protocol"),
    ("update add=1:2 extra", "err protocol"),
    // protocol::tests::metrics_and_trace_commands_parse_and_reject_malformed_args
    ("metrics now", "err protocol"),
    ("metrics@t", "err protocol"),
    ("trace@t", "err protocol"),
    ("trace last=", "err protocol"),
    ("trace last=abc", "err protocol"),
    ("trace last=-3", "err protocol"),
    ("trace id=", "err protocol"),
    ("trace id=zz", "err protocol"),
    ("trace id=123q", "err protocol"),
    ("trace fast", "err protocol"),
    ("trace slow extra", "err protocol"),
    ("trace export x", "err protocol"),
    ("trace last=3 id=4", "err protocol"),
    ("ping x", "err protocol"),
    ("list all", "err protocol"),
    ("stats@t extra", "err protocol"),
    ("shutdown now", "err protocol"),
    // protocol::tests::health_commands_and_replies_round_trip
    ("health now", "err protocol"),
    ("health@t", "err protocol"),
    ("healthy", "err protocol"),
    ("health degraded", "err protocol"),
    // tests/server.rs::malformed_updates_never_poison_the_connection_or_graph
    // (its two full-width non-finite rows are built from the dataset)
    ("complete garbage", "err protocol"),
    ("update add=0:1 bogus=3", "err protocol"),
    ("update feat=0:nothex", "err protocol"),
    ("update add=0:999999999", "err engine"),
    ("update del=5:5", "err engine"),
    ("update", "err engine"),
    ("\u{7f}\u{1}binary\u{2}junk", "err protocol"),
    // tests/server.rs::hostile_wire_numbers_earn_typed_errors_not_an_aborted_process
    ("infer sampled s1=1000000000000 s2=1 seed=0 nodes=0", "err engine"),
    ("deploy t=cora-small:gcn:dense hidden=1000000000000", "err protocol"),
    ("infer sampled s1=18446744073709551615 s2=1 seed=0 nodes=0", "err engine"),
    ("infer sampled s1=9223372036854775807 s2=1 seed=0 nodes=0,1,2", "err engine"),
    ("infer sampled s1=0 s2=1000000000000 seed=0 nodes=0", "err engine"),
    ("deploy t=cora-small:gcn:dense block=1099511627776", "err protocol"),
    ("deploy t=cora-small:gcn:dense block=0", "err protocol"),
];

#[test]
fn a_live_server_answers_a_fixed_script() {
    let dataset = Arc::new(datasets::cora_like_small(11));
    let engine = EngineBuilder::new(ModelKind::Gcn, BackendKind::Dense)
        .hidden_dim(16)
        .compression(Compression::BlockCirculant { block_size: 8 })
        .seed(5)
        .build(Arc::clone(&dataset))
        .expect("engine builds");
    let server = Arc::new(
        Server::start(engine, ServerConfig::default().with_workers(1)).expect("server starts"),
    );
    let traffic =
        TenantSpec::new("traffic", "citeseer-small", ModelKind::GsPool, BackendKind::Dense)
            .hidden_dim(16)
            .seed(7);
    server.deploy(&traffic).expect("the second tenant deploys");
    let front = TcpServer::bind(Arc::clone(&server), "127.0.0.1:0").expect("binds");
    let stream = TcpStream::connect(front.local_addr()).expect("connects");
    let mut writer = stream.try_clone().expect("clones");
    let mut reader = BufReader::new(stream);
    let mut send = |line: &str| -> String {
        writer.write_all(format!("{line}\n").as_bytes()).expect("sends");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reads");
        let reply = reply.strip_suffix('\n').unwrap_or_else(|| panic!("{line:?}: no reply"));
        // Only a multi-line reply's header is pinned; its body must not
        // be empty.
        if let Some(n) = reply.split(' ').find_map(|w| w.strip_prefix("lines=")) {
            let n: usize = n.parse().expect("a line count");
            assert!(n > 0, "{line:?}: empty body");
            for _ in 0..n {
                reader.read_line(&mut String::new()).expect("reads a body line");
            }
        }
        masked(reply)
    };

    let one = format!("{:016x}", 1.0f64.to_bits());
    let mut words = vec![one.as_str(); dataset.feature_dim()];
    words[0] = "7ff8000000000000";
    let nan_row = format!("update feat=0:{}", words.join(","));
    words[0] = one.as_str();
    words[3] = "7ff0000000000000";
    let inf_node = format!("update new={}", words.join(","));
    let non_finite = [(nan_row.as_str(), "err protocol"), (inf_node.as_str(), "err protocol")];

    let mut mismatches = Vec::new();
    let script = VALID.iter().chain(BAD).chain(&non_finite).chain(&[("shutdown", "ok bye")]);
    for (line, want) in script {
        let got = send(line);
        if got != *want {
            mismatches.push(format!("({line:?}, {got:?}), // pinned {want:?}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
    front.run_until_shutdown();
}

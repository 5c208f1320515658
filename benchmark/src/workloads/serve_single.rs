//! `serve_single`: per-request overhead. An in-process `TcpServer` on a
//! loopback port and two closed-loop `Client` connections, each sending
//! one-target sampled requests (uniform node, fresh sampling seed, so no
//! dedup and no cache) against GCN × `cora-small`. The spectral kernel is
//! a small share of a request here: a kernel change should not move this
//! workload and a protocol or queue change should.

use super::{
    bit_identical, engine, Counts, Limit, Op, OpKind, Run, Tracing, Verdict, Workload,
    CORA_NODES, DATASET_SEED,
};
use crate::gen::SingleStream;
use crate::span::Recorder;
use blockgnn_engine::{BackendKind, InferRequest};
use blockgnn_gnn::ModelKind;
use blockgnn_graph::{datasets, Dataset};
use blockgnn_linalg::Matrix;
use blockgnn_server::{Client, Server, ServerConfig, TcpServer};
use std::sync::Arc;
use std::time::Instant;

/// Closed-loop connections (= driver threads; the host has 2 CPUs).
pub const CONNECTIONS: usize = 2;
/// Warm-up requests over all connections.
pub const WARMUP_REQUESTS: usize = 500;
/// Every n-th reply of a connection is kept for the bit-identity check.
pub const CHECK_EVERY: usize = 64;

pub struct ServeSingle {
    dataset: Arc<Dataset>,
    clients: Vec<Client>,
    streams: Vec<SingleStream>,
    /// Replies of the last driven section kept for the bit-identity check.
    kept: Vec<(InferRequest, Matrix)>,
    /// Declared after the clients so connections close before the front
    /// end stops, and the front end before the runtime.
    _front: TcpServer,
    _server: Arc<Server>,
}

/// `cora-small` as `serve_single` and `serve_hot8` serve it.
pub fn cora() -> Arc<Dataset> {
    let dataset = Arc::new(datasets::cora_like_small(DATASET_SEED));
    assert_eq!(dataset.num_nodes(), CORA_NODES);
    dataset
}

/// A GCN × `cora-small` serving stack on an ephemeral loopback port, as
/// `serve_single` and the traced pass's server rungs use it.
pub fn serve_cora() -> (Arc<Dataset>, Arc<Server>, TcpServer) {
    let dataset = cora();
    let engine = engine(ModelKind::Gcn, BackendKind::Spectral, &dataset);
    let server =
        Arc::new(Server::start(engine, ServerConfig::default()).expect("server starts"));
    let front = TcpServer::bind(Arc::clone(&server), "127.0.0.1:0").expect("loopback binds");
    (dataset, server, front)
}

/// What one connection's loop produced, plus the replies it kept.
struct ConnectionRun {
    run: Run,
    kept: Vec<(InferRequest, Matrix)>,
}

fn drive(
    client: &mut Client,
    stream: &mut SingleStream,
    lane: u32,
    limit: Limit,
    tracing: Tracing,
    origin: Instant,
) -> ConnectionRun {
    let mut run = Run::default();
    let mut kept = Vec::new();
    let mut recorder = Recorder::new(origin, lane, format!("serve_single connection {lane}"));
    let mut issued = 0usize;
    while !limit.reached(issued, origin.elapsed()) {
        let record = tracing.records_at(origin.elapsed());
        let request = stream.next_request();
        let start = Instant::now();
        let reply = client.infer(&request);
        let end = Instant::now();
        issued += 1;
        match reply {
            Ok(reply) => {
                run.counts.record(true);
                if record {
                    let id = (u64::from(lane) << 32) | issued as u64;
                    let span = recorder.timed("serve_single.request", start, end, id);
                    recorder.reported(
                        span,
                        &[
                            ("server.queue", reply.queue_time),
                            ("server.compute", reply.compute_time),
                        ],
                    );
                }
                run.ops.push(Op::new(origin, start, end, reply.logits.rows(), OpKind::Main));
                if issued.is_multiple_of(CHECK_EVERY) {
                    kept.push((request, reply.logits));
                }
            }
            Err(_) => {
                run.counts.record(false);
                // A transport error may have killed the connection; a
                // typed rejection has not, and reconnecting is harmless.
                if client.reconnect().is_err() {
                    break;
                }
            }
        }
    }
    run.recorders.push(recorder);
    ConnectionRun { run, kept }
}

impl ServeSingle {
    fn drive_all(&mut self, limit: Limit, tracing: Tracing, origin: Instant) -> Run {
        let per_connection: Vec<ConnectionRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&mut self.streams)
                .enumerate()
                .map(|(lane, (client, stream))| {
                    scope.spawn(move || {
                        drive(client, stream, lane as u32, limit, tracing, origin)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("driver thread panicked")).collect()
        });
        let mut run = Run::default();
        self.kept.clear();
        for connection in per_connection {
            run.absorb(connection.run);
            self.kept.extend(connection.kept);
        }
        run
    }
}

impl Workload for ServeSingle {
    fn setup(seed: u64) -> (Self, Counts) {
        let (dataset, server, front) = serve_cora();
        let addr = front.local_addr();
        let clients =
            (0..CONNECTIONS).map(|_| Client::connect(addr).expect("client connects")).collect();
        let streams =
            (0..CONNECTIONS as u64).map(|c| SingleStream::new(seed, c, CORA_NODES)).collect();
        let mut this = Self {
            dataset,
            clients,
            streams,
            kept: Vec::new(),
            _front: front,
            _server: server,
        };
        let per_connection = Limit::Ops(WARMUP_REQUESTS / CONNECTIONS);
        let warmup = this.drive_all(per_connection, Tracing::Off, Instant::now());
        (this, warmup.counts)
    }

    fn measure(&mut self, limit: Limit, tracing: Tracing, origin: Instant) -> Run {
        self.drive_all(limit, tracing, origin)
    }

    fn verify(self, _run: &Run) -> Verdict {
        check_against_twin(&self.dataset, &self.kept)
    }
}

/// Replays kept requests through a direct `Session::infer` on a twin
/// engine built from the same seed; every reply must be the same bits.
pub fn check_against_twin(dataset: &Arc<Dataset>, kept: &[(InferRequest, Matrix)]) -> Verdict {
    let mut twin = engine(ModelKind::Gcn, BackendKind::Spectral, dataset);
    let mut session = twin.session();
    let wrong = kept
        .iter()
        .filter(|(request, logits)| {
            !session.infer(request).is_ok_and(|direct| bit_identical(&direct.logits, logits))
        })
        .count() as u64;
    Verdict {
        wrong,
        extras: Vec::new(),
        notes: vec![format!(
            "{} kept replies replayed on a twin engine, {wrong} not bit-identical",
            kept.len()
        )],
    }
}

//! `update_mix`: writes beside reads on one engine. An in-process
//! `TcpServer` serves GCN × `pubmed-small`. Connection R reads in a closed
//! loop (`infer full <3 uniform nodes>`, answered from the version-keyed
//! logits cache); connection W applies one `GraphDelta` every 50 ms on a
//! fixed schedule. The full-graph forward that `full_offline` measures is
//! here a *stall* paid by the first reader after every write; the hit
//! path is wire + dispatch with no compute at all; and update cost is
//! visible on its own. A read-side cache that makes writes dearer, or an
//! update fast path that slows reads, shows as one metric up and another
//! down.

use super::{
    bit_identical, engine, Counts, Limit, Op, OpKind, Run, Tracing, Verdict, Workload,
    DATASET_SEED, PUBMED_FEATURES, PUBMED_NODES,
};
use crate::estimator::percentile;
use crate::gen::{ReadStream, WriteStream};
use crate::span::Recorder;
use blockgnn_engine::{BackendKind, InferRequest};
use blockgnn_gnn::ModelKind;
use blockgnn_graph::{datasets, Dataset};
use blockgnn_server::{Client, Server, ServerConfig, TcpServer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The writer fires at `origin + k · PERIOD`, whatever the system does.
pub const PERIOD: Duration = Duration::from_millis(50);
/// Warm-up: this many update cycles, each followed by its share of reads.
pub const WARMUP_UPDATES: usize = 5;
/// Warm-up reads in total.
pub const WARMUP_READS: usize = 200;

pub struct UpdateMix {
    seed: u64,
    dataset: Arc<Dataset>,
    reader: Client,
    writer: Client,
    reads: ReadStream,
    writes: WriteStream,
    /// Deltas acknowledged so far, warm-up included; the twin replays as
    /// many from the same seed.
    applied: usize,
    /// Highest graph version any reply or ack has shown.
    last_version: u64,
    /// How late each measured write fired, in µs.
    late_us: Vec<f64>,
    _front: TcpServer,
    _server: Arc<Server>,
}

/// A GCN × `pubmed-small` dataset as `update_mix` serves it.
pub fn pubmed() -> Arc<Dataset> {
    let dataset = Arc::new(datasets::pubmed_like_small(DATASET_SEED));
    assert_eq!((dataset.num_nodes(), dataset.feature_dim()), (PUBMED_NODES, PUBMED_FEATURES));
    dataset
}

/// One read: checks the version rules, returns the sample.
fn read(
    client: &mut Client,
    request: &InferRequest,
    acked: &AtomicU64,
    last_version: &mut u64,
    origin: Instant,
    recorder: Option<&mut Recorder>,
    id: u64,
) -> Result<Op, ()> {
    // A read sent after an ack must see at least the acked version.
    let floor = acked.load(Ordering::SeqCst).max(*last_version);
    let start = Instant::now();
    let reply = client.infer(request);
    let end = Instant::now();
    let reply = match reply {
        Ok(reply) => reply,
        Err(_) => {
            // Best effort: a dead connection fails the next read too.
            let _ = client.reconnect();
            return Err(());
        }
    };
    if let Some(recorder) = recorder {
        let span = recorder.timed("update_mix.read", start, end, id);
        recorder.reported(
            span,
            &[("server.queue", reply.queue_time), ("server.compute", reply.compute_time)],
        );
    }
    if reply.graph_version < floor || reply.logits.rows() != request.nodes.len() {
        return Err(());
    }
    *last_version = reply.graph_version;
    Ok(Op::new(
        origin,
        start,
        end,
        reply.logits.rows(),
        if reply.from_cache { OpKind::Main } else { OpKind::MissRead },
    ))
}

impl Workload for UpdateMix {
    fn setup(seed: u64) -> (Self, Counts) {
        let dataset = pubmed();
        let engine = engine(ModelKind::Gcn, BackendKind::Spectral, &dataset);
        let server =
            Arc::new(Server::start(engine, ServerConfig::default()).expect("server starts"));
        let front =
            TcpServer::bind(Arc::clone(&server), "127.0.0.1:0").expect("loopback binds");
        let addr = front.local_addr();
        let mut this = Self {
            seed,
            dataset,
            reader: Client::connect(addr).expect("reader connects"),
            writer: Client::connect(addr).expect("writer connects"),
            reads: ReadStream::new(seed, PUBMED_NODES),
            writes: WriteStream::new(seed, PUBMED_NODES, PUBMED_FEATURES),
            applied: 0,
            last_version: 0,
            late_us: Vec::new(),
            _front: front,
            _server: server,
        };
        // Warm-up, sequential: each update followed by its reads, so both
        // the miss path and the hit path have run.
        let mut warmup = Counts::default();
        let acked = AtomicU64::new(0);
        let origin = Instant::now();
        for _ in 0..WARMUP_UPDATES {
            match this.writer.update(&this.writes.next_delta()) {
                Ok(ack) => {
                    this.applied += 1;
                    acked.store(ack.version, Ordering::SeqCst);
                    warmup.record(true);
                }
                Err(_) => warmup.record(false),
            }
            for _ in 0..WARMUP_READS / WARMUP_UPDATES {
                let request = this.reads.next_read();
                let ok = read(
                    &mut this.reader,
                    &request,
                    &acked,
                    &mut this.last_version,
                    origin,
                    None,
                    0,
                );
                warmup.record(ok.is_ok());
            }
        }
        (this, warmup)
    }

    fn measure(&mut self, limit: Limit, tracing: Tracing, origin: Instant) -> Run {
        let Limit::Time(length) = limit else {
            unreachable!("update_mix warms up inside setup; measure is always timed")
        };
        let acked = AtomicU64::new(self.last_version);
        let Self { reader, writer, reads, writes, last_version, .. } = self;
        let (read_run, (write_run, applied, late_us)) = std::thread::scope(|scope| {
            let acked = &acked;
            let writer_thread = scope.spawn(move || {
                let mut run = Run::default();
                let mut recorder = Recorder::new(origin, 1, "update_mix writer");
                let mut late_us = Vec::new();
                let mut applied = 0usize;
                for k in 1u32.. {
                    let due = PERIOD * k;
                    if due >= length {
                        break;
                    }
                    std::thread::sleep(due.saturating_sub(origin.elapsed()));
                    let delta = writes.next_delta();
                    let start = Instant::now();
                    late_us.push(
                        start.duration_since(origin).saturating_sub(due).as_secs_f64() * 1e6,
                    );
                    let ack = writer.update(&delta);
                    let end = Instant::now();
                    let Ok(ack) = ack else {
                        run.counts.record(false);
                        let _ = writer.reconnect();
                        continue;
                    };
                    applied += 1;
                    // Versions are handed out in order to a single writer.
                    let in_order = ack.version > acked.swap(ack.version, Ordering::SeqCst);
                    run.counts.record(in_order);
                    if tracing.records_at(due) {
                        recorder.timed("update_mix.update", start, end, u64::from(k));
                    }
                    if in_order {
                        run.ops.push(Op::new(origin, start, end, 0, OpKind::Update));
                    }
                }
                run.recorders.push(recorder);
                (run, applied, late_us)
            });
            let mut run = Run::default();
            let mut recorder = Recorder::new(origin, 0, "update_mix reader");
            let mut issued = 0u64;
            while origin.elapsed() < length {
                let request = reads.next_read();
                issued += 1;
                let record = tracing.records_at(origin.elapsed()).then_some(&mut recorder);
                match read(reader, &request, acked, last_version, origin, record, issued) {
                    Ok(op) => {
                        run.counts.record(true);
                        run.ops.push(op);
                    }
                    Err(()) => run.counts.record(false),
                }
            }
            run.recorders.push(recorder);
            (run, writer_thread.join().expect("writer thread panicked"))
        });
        self.applied += applied;
        self.late_us = late_us;
        let mut run = read_run;
        run.absorb(write_run);
        run
    }

    fn verify(mut self, run: &Run) -> Verdict {
        let mut verdict = Verdict::default();
        // The final state, read over the wire, against a twin engine that
        // applied the same deltas in the same order.
        let served = self.reader.infer(&InferRequest::all_nodes());
        let mut twin = engine(ModelKind::Gcn, BackendKind::Spectral, &self.dataset);
        let mut replay = WriteStream::new(self.seed, PUBMED_NODES, PUBMED_FEATURES);
        for _ in 0..self.applied {
            twin.apply_delta(&replay.next_delta()).expect("the twin accepts the same deltas");
        }
        let direct = twin.session().infer(&InferRequest::all_nodes()).expect("twin pass");
        let same = served.as_ref().is_ok_and(|reply| {
            reply.graph_version == self.applied as u64
                && bit_identical(&reply.logits, &direct.logits)
        });
        verdict.wrong = u64::from(!same);
        verdict.notes.push(format!(
            "{} deltas applied; final `infer full all` {} the twin engine's",
            self.applied,
            if same { "is bit-identical to" } else { "DIFFERS from" }
        ));
        let reads = run.ops.iter().filter(|op| op.kind != OpKind::Update).count();
        let hits = run.ops.iter().filter(|op| op.kind == OpKind::Main).count();
        verdict.extras.push(("server.hit_share", hits as f64 / reads.max(1) as f64));
        verdict
            .extras
            .push(("loadgen.late_p99_us", percentile(&self.late_us, 0.99).unwrap_or(0.0)));
        verdict
    }
}

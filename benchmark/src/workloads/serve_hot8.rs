//! `serve_hot8`: the batcher's workload. No TCP. One driver thread keeps
//! eight `Ticket`s outstanding through `ServerHandle::submit` (wait for
//! the oldest, submit the next): a closed loop of eight callers on one
//! thread. Requests are drawn zipf(1.1) from a pool of 64 distinct
//! two-target sampled requests on GCN × `cora-small` (the popularity ranks
//! rotate over the pool, see `gen::HotStream`), so micro-batches form and
//! hot requests dedup inside them. The wire is bypassed: a gain
//! claimed for batching cannot hide in protocol noise, and a batching
//! change that taxes unbatched traffic shows on `serve_single`.

use super::{
    bit_identical, engine, Counts, Limit, Op, OpKind, Run, Tracing, Verdict, Workload,
    CORA_NODES,
};
use crate::gen::HotStream;
use crate::span::Recorder;
use blockgnn_engine::BackendKind;
use blockgnn_gnn::ModelKind;
use blockgnn_graph::Dataset;
use blockgnn_linalg::Matrix;
use blockgnn_server::{Server, ServerConfig, ServerHandle, ServerStats, Ticket};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Tickets kept outstanding.
pub const OUTSTANDING: usize = 8;
/// Warm-up requests.
pub const WARMUP_REQUESTS: usize = 500;
/// Every n-th reply is kept for the bit-identity check.
pub const CHECK_EVERY: usize = 64;

pub struct ServeHot8 {
    dataset: Arc<Dataset>,
    stream: HotStream,
    handle: ServerHandle,
    /// `(pool index, logits)` of the replies kept for the check.
    kept: Vec<(usize, Matrix)>,
    /// Server counters when the last driven section began.
    before: ServerStats,
    server: Server,
}

impl Workload for ServeHot8 {
    fn setup(seed: u64) -> (Self, Counts) {
        let dataset = super::serve_single::cora();
        let engine = engine(ModelKind::Gcn, BackendKind::Spectral, &dataset);
        let server = Server::start(engine, ServerConfig::default()).expect("server starts");
        let mut this = Self {
            dataset,
            stream: HotStream::new(seed, CORA_NODES),
            handle: server.handle(),
            kept: Vec::new(),
            before: server.stats(),
            server,
        };
        let warmup = this.measure(Limit::Ops(WARMUP_REQUESTS), Tracing::Off, Instant::now());
        (this, warmup.counts)
    }

    fn measure(&mut self, limit: Limit, tracing: Tracing, origin: Instant) -> Run {
        let mut run = Run::default();
        let mut recorder = Recorder::new(origin, 0, "serve_hot8 driver");
        self.kept.clear();
        self.before = self.server.stats();
        let mut inflight: VecDeque<(Instant, usize, Ticket)> = VecDeque::new();
        let mut issued = 0usize;
        loop {
            // Top up to eight outstanding, then wait for the oldest.
            while inflight.len() < OUTSTANDING && !limit.reached(issued, origin.elapsed()) {
                let index = self.stream.next_index();
                let start = Instant::now();
                issued += 1;
                match self.handle.submit(self.stream.pool[index].clone()) {
                    Ok(ticket) => inflight.push_back((start, index, ticket)),
                    Err(_) => run.counts.record(false),
                }
            }
            let Some((start, index, ticket)) = inflight.pop_front() else { break };
            let reply = ticket.wait();
            let end = Instant::now();
            let Ok(reply) = reply else {
                run.counts.record(false);
                continue;
            };
            run.counts.record(true);
            if tracing.records_at(start.duration_since(origin)) {
                let id = run.counts.attempted;
                let span = recorder.timed("serve_hot8.ticket", start, end, id);
                recorder.reported(
                    span,
                    &[
                        ("server.queue", reply.queue_time),
                        ("server.compute", reply.compute_time),
                    ],
                );
            }
            run.ops.push(Op::new(origin, start, end, reply.logits.rows(), OpKind::Main));
            if run.counts.attempted.is_multiple_of(CHECK_EVERY as u64) {
                self.kept.push((index, reply.logits));
            }
        }
        run.recorders.push(recorder);
        run
    }

    fn verify(self, _run: &Run) -> Verdict {
        let after = self.server.stats();
        let completed = (after.completed - self.before.completed) as f64;
        let batches = (after.batches - self.before.batches) as f64;
        let deduped = (after.deduped - self.before.deduped) as f64;
        // Each pool entry's answer from a direct `Session::infer` on a
        // twin engine, computed on first use.
        let mut twin = engine(ModelKind::Gcn, BackendKind::Spectral, &self.dataset);
        let mut session = twin.session();
        let mut direct: Vec<Option<Matrix>> = vec![None; self.stream.pool.len()];
        let mut wrong = 0u64;
        for (index, logits) in &self.kept {
            let expected = direct[*index].get_or_insert_with(|| {
                session.infer(&self.stream.pool[*index]).expect("pool request is valid").logits
            });
            wrong += u64::from(!bit_identical(expected, logits));
        }
        Verdict {
            wrong,
            extras: vec![
                ("server.mean_batch", completed / batches.max(1.0)),
                ("server.dedup_share", deduped / completed.max(1.0)),
            ],
            notes: vec![format!(
                "{} kept replies replayed on a twin engine, {wrong} not bit-identical",
                self.kept.len()
            )],
        }
    }
}

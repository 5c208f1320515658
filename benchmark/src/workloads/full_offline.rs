//! `full_offline`: the paper's own regime. No server; one thread runs
//! full-graph GS-Pool inference over `reddit-small` pass after pass, with
//! the engine's full-graph cache cleared before each one so every pass
//! computes. Linear layers dominate, so `fft`/`core`/`nn` do the work and
//! `graph::sample`, engine coalescing and all of `server` do none.

use super::{
    bit_identical, engine, Counts, Limit, Op, OpKind, Run, Tracing, Verdict, Workload,
};
use crate::span::Recorder;
use blockgnn_engine::{BackendKind, Engine, InferRequest};
use blockgnn_gnn::ModelKind;
use blockgnn_graph::{datasets, Dataset};
use blockgnn_linalg::Matrix;
use std::sync::Arc;
use std::time::Instant;

/// Warm-up passes before set-up is considered finished.
pub const WARMUP_PASSES: usize = 5;
/// The spectral answer must be this close (‖·‖∞) to the dense backend's.
pub const DENSE_TOLERANCE: f64 = 1e-6;

/// The workload's only input: `reddit-small` synthesised from the seed.
pub fn dataset(seed: u64) -> Dataset {
    datasets::reddit_like_small(seed)
}

pub struct FullOffline {
    dataset: Arc<Dataset>,
    engine: Engine,
    /// Logits of the last warm-up pass; every measured pass must repeat
    /// them bit for bit.
    reference: Matrix,
}

/// The model under test (the traced pass times its layers too).
pub const MODEL: ModelKind = ModelKind::GsPool;

impl Workload for FullOffline {
    fn setup(seed: u64) -> (Self, Counts) {
        let dataset = Arc::new(dataset(seed));
        let engine = engine(MODEL, BackendKind::Spectral, &dataset);
        let mut this = Self { dataset, engine, reference: Matrix::default() };
        let warmup = this.measure(Limit::Ops(WARMUP_PASSES), Tracing::Off, Instant::now());
        (this, warmup.counts)
    }

    fn measure(&mut self, limit: Limit, tracing: Tracing, origin: Instant) -> Run {
        let request = InferRequest::all_nodes();
        let mut run = Run::default();
        let mut recorder = Recorder::new(origin, 0, "full_offline driver");
        let mut session = self.engine.session();
        let mut issued = 0usize;
        while !limit.reached(issued, origin.elapsed()) {
            let record = tracing.records_at(origin.elapsed());
            session.engine().clear_full_graph_cache();
            let start = Instant::now();
            let response = session.infer(&request);
            let end = Instant::now();
            issued += 1;
            let Ok(response) = response else {
                run.counts.record(false);
                continue;
            };
            if record {
                let span = recorder.timed("full_offline.pass", start, end, issued as u64);
                recorder.reported(span, &[("engine.compute", response.compute_time)]);
            }
            // Outside the timed interval: the pass must repeat the
            // warm-up's answer exactly (the first warm-up pass has
            // nothing to repeat yet).
            let ok =
                self.reference.is_empty() || bit_identical(&response.logits, &self.reference);
            run.counts.record(ok);
            if ok {
                run.ops.push(Op::new(origin, start, end, response.logits.rows(), OpKind::Main));
            }
            if matches!(limit, Limit::Ops(_)) {
                self.reference = response.logits;
            }
        }
        run.recorders.push(recorder);
        run
    }

    fn verify(self, run: &Run) -> Verdict {
        let mut verdict = Verdict::default();
        let all = InferRequest::all_nodes();
        let mut dense = engine(MODEL, BackendKind::Dense, &self.dataset);
        let dense_logits = dense.session().infer(&all).expect("dense pass").logits;
        let distance = self.reference.linf_distance(&dense_logits);
        if distance.is_nan() || distance > DENSE_TOLERANCE {
            // Every pass repeated a wrong reference.
            verdict.wrong = run.ops.len() as u64;
            verdict.notes.push(format!(
                "spectral logits are {distance:e} from the dense backend's \
                 (limit {DENSE_TOLERANCE:e})"
            ));
        } else {
            verdict.notes.push(format!(
                "{} passes bit-identical; ‖spectral − dense‖∞ = {distance:.3e}",
                run.ops.len()
            ));
        }
        // One untimed pass on the simulated accelerator: Eq. 7 cycles for
        // this workload's shape. A pure function of the shape, so any
        // software-speed change must leave it bit-identical.
        let mut accel = engine(MODEL, BackendKind::SimulatedAccel, &self.dataset);
        let response = accel.session().infer(&all).expect("simulated pass");
        let sim = response.sim.expect("the simulated accelerator reports cycles");
        verdict.extras.push((
            crate::catalogue::SIM_CYCLES_PER_NODE,
            sim.total_cycles as f64 / sim.num_nodes as f64,
        ));
        verdict
    }
}

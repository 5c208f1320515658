//! Quickstart: one model, three execution substrates, one front door.
//!
//! Builds the same GCN behind each [`BackendKind`], serves identical
//! requests through `Engine`/`Session`, and shows that predictions agree
//! (Spectral to f64 rounding, the simulated accelerator within its
//! Q16.16 quantization) while only the simulated accelerator reports
//! hardware cost. Ends with the classic Table III compression accounting
//! on a raw weight matrix.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use blockgnn::core::{BlockCirculantMatrix, RealSpectralBlockCirculant};
use blockgnn::engine::{BackendKind, EngineBuilder, InferRequest};
use blockgnn::gnn::ModelKind;
use blockgnn::graph::datasets;
use blockgnn::linalg::Matrix;
use blockgnn::nn::Compression;
use std::sync::Arc;

fn main() {
    println!("== BlockGNN quickstart ==\n");

    // --- 1. One dataset, one request, three backends.
    let dataset = Arc::new(datasets::cora_like_small(7));
    let request = InferRequest::paper_sampled(vec![3, 59, 141, 200], 11);
    println!(
        "dataset: {} ({} nodes, {} features, {} classes)",
        dataset.name,
        dataset.num_nodes(),
        dataset.feature_dim(),
        dataset.num_classes
    );
    println!("request: sampled 2-hop micro-batch of {} nodes\n", request.nodes.len());

    let mut reference: Option<Matrix> = None;
    for backend in BackendKind::all() {
        let mut engine = EngineBuilder::new(ModelKind::Gcn, backend)
            .hidden_dim(16)
            .compression(Compression::BlockCirculant { block_size: 8 })
            .seed(42)
            .build(Arc::clone(&dataset))
            .expect("engine builds");
        let mut session = engine.session();
        let response = session.infer(&request).expect("request serves");
        let drift = match &reference {
            Some(r) => response.logits.linf_distance(r),
            None => {
                reference = Some(response.logits.clone());
                0.0
            }
        };
        let hw = match &response.sim {
            Some(sim) => format!(
                "{} cycles, {:.2} µs, {:.2} µJ",
                sim.total_cycles,
                sim.seconds * 1e6,
                response.energy_joules.unwrap_or(0.0) * 1e6
            ),
            None => "software only".to_string(),
        };
        println!(
            "backend {:>15}: predictions {:?}  max|Δlogit| = {drift:.2e}  [{hw}]",
            backend.name(),
            response.predictions
        );
    }

    // --- 2. The compression arithmetic behind the spectral backend
    //        (Table III: storage and computation reduction per block size).
    let (out_dim, in_dim) = (512usize, 602usize);
    let dense = Matrix::from_fn(out_dim, in_dim, |i, j| {
        (((i * 31 + j * 17) % 97) as f64 / 97.0 - 0.5) * 0.1
    });
    println!("\ncompressing a {out_dim}x{in_dim} layer (the paper's Reddit shape):");
    for n in [16usize, 32, 64, 128] {
        let compressed = BlockCirculantMatrix::from_dense(&dense, n).expect("valid dimensions");
        let stats = compressed.stats();
        let spectral = RealSpectralBlockCirculant::new(&compressed).expect("power-of-two n");
        let x: Vec<f64> = (0..in_dim).map(|i| (i as f64 * 0.013).sin()).collect();
        let fast = spectral.matvec(&x);
        let reference = compressed.to_dense().matvec(&x);
        let err =
            fast.iter().zip(&reference).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        println!(
            "n = {n:>3}: params {:>7}  SR {:>5.1}x  TCR {:>4.1}x  max|fft - dense| = {err:.2e}",
            stats.compressed_params(),
            stats.storage_reduction(),
            stats.theoretical_computation_reduction(),
        );
    }
}

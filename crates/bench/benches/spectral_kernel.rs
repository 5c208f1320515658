//! Circulant-matvec kernel shoot-out: decompressed dense GEMM vs the
//! full-spectrum complex-FFT baseline vs the packed half-spectrum
//! serving path (with a warm [`blockgnn_core::SpectralScratch`]), at
//! the paper's small-to-mid block sizes.
//!
//! Besides the criterion groups, the bench records `BENCH_spectral.json`
//! at the repository root: per block size, the mean matvec latency of
//! all three kernels and the half-vs-full speedup. CI's bench smoke job
//! parses that file and fails if the half-spectrum path regresses below
//! the full-spectrum baseline it replaced (a coarse ≥ 1.0× guard, on
//! one-row calls). A second table, `rows_per_call`, records what the
//! row-tiled kernel's amortisation is worth: the per-row cost of
//! `matmul_into` at 1, 8 and 256 rows per call.

use blockgnn_bench::json::{array, write_bench_file, JsonObject};
use blockgnn_bench::timing::mean_secs;
use blockgnn_core::{
    BlockCirculantMatrix, RealSpectralBlockCirculant, SpectralBlockCirculant, SpectralScratch,
};
use blockgnn_linalg::Matrix;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

/// Fixed layer geometry: a 256×256 weight, the hidden-layer shape class
/// of the paper's Table IV models.
const DIM: usize = 256;
/// Block sizes under test (small-to-mid compression ratios).
const BLOCK_SIZES: [usize; 4] = [4, 8, 16, 32];
/// The rows-per-call axis: one row, one tile, many tiles.
const ROWS_PER_CALL: [usize; 3] = [1, 8, 256];
/// Block sizes the rows-per-call axis is recorded at.
const ROWS_BLOCK_SIZES: [usize; 2] = [16, 32];

fn test_input(len: usize) -> Vec<f64> {
    (0..len).map(|i| ((i as f64 + 1.0) * 0.37).sin() * 2.0).collect()
}

struct Kernels {
    dense: Matrix,
    full: SpectralBlockCirculant,
    half: RealSpectralBlockCirculant,
}

fn kernels(n: usize) -> Kernels {
    let w = BlockCirculantMatrix::random(DIM, DIM, n, 42).expect("valid geometry");
    Kernels {
        dense: w.to_dense(),
        full: SpectralBlockCirculant::new(&w).expect("power-of-two block"),
        half: RealSpectralBlockCirculant::new(&w).expect("power-of-two block"),
    }
}

fn bench_kernels(c: &mut Criterion) {
    let x = test_input(DIM);
    let mut group = c.benchmark_group("circulant_matvec_kernels");
    group.sample_size(20);
    for n in BLOCK_SIZES {
        let k = kernels(n);
        let mut scratch = SpectralScratch::new();
        group.bench_with_input(BenchmarkId::new("dense_gemm", n), &n, |b, _| {
            b.iter(|| black_box(k.dense.matvec(&x)));
        });
        group.bench_with_input(BenchmarkId::new("full_spectrum", n), &n, |b, _| {
            b.iter(|| black_box(k.full.matvec(&x)));
        });
        group.bench_with_input(BenchmarkId::new("half_spectrum", n), &n, |b, _| {
            b.iter(|| black_box(k.half.matvec_with(&x, &mut scratch)));
        });
    }
    group.finish();
}

/// Emits `BENCH_spectral.json`: per block size, the mean latency of the
/// three kernels and the half-over-full speedup the CI guard checks.
fn emit_bench_json(_c: &mut Criterion) {
    let x = test_input(DIM);
    let iters = 4000;
    let mut rows = Vec::new();
    for n in BLOCK_SIZES {
        let k = kernels(n);
        let mut scratch = SpectralScratch::new();
        let dense = mean_secs(iters / 4, iters, || {
            black_box(k.dense.matvec(&x));
        });
        let full = mean_secs(iters / 4, iters, || {
            black_box(k.full.matvec(&x));
        });
        let half = mean_secs(iters / 4, iters, || {
            black_box(k.half.matvec_with(&x, &mut scratch));
        });
        rows.push(
            JsonObject::new()
                .int("block_size", n as u128)
                .num("dense_us", dense * 1e6)
                .num("full_spectrum_us", full * 1e6)
                .num("half_spectrum_us", half * 1e6)
                .num("half_over_full_speedup", full / half)
                .num("half_over_dense_speedup", dense / half)
                .render(),
        );
    }
    let mut batched = Vec::new();
    for n in ROWS_BLOCK_SIZES {
        let half = kernels(n).half;
        let mut scratch = SpectralScratch::new();
        let row_us = ROWS_PER_CALL.map(|rows| {
            let x = test_input(rows * DIM);
            let mut y = vec![0.0; rows * DIM];
            let call = mean_secs(iters / 4 / rows + 1, iters / rows + 1, || {
                half.matmul_into(black_box(&x), None, &mut scratch, &mut y);
            });
            call * 1e6 / rows as f64
        });
        let mut row = JsonObject::new().int("block_size", n as u128);
        for (rows, us) in ROWS_PER_CALL.iter().zip(row_us) {
            row = row.num(&format!("row_us_r{rows}"), us);
        }
        row = row.num("r256_over_r1_speedup", row_us[0] / row_us[2]);
        batched.push(row.render());
    }
    let doc = JsonObject::new()
        .string("bench", "spectral_kernel")
        .int("out_dim", DIM as u128)
        .int("in_dim", DIM as u128)
        .int("host_cpus", std::thread::available_parallelism().map_or(0, |p| p.get() as u128))
        .raw("kernels", array(rows))
        .raw("rows_per_call", array(batched))
        .render();
    let path = write_bench_file("spectral", &doc).expect("bench json writes");
    println!("wrote {}", path.display());
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    targets = bench_kernels, emit_bench_json
}
criterion_main!(benches);

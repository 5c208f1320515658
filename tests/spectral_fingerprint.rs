//! Pinned `to_bits` fingerprints of the two spectral paths no benchmark
//! workload reaches: the Q16.16 CirCore datapath (RFFT → element-wise MAC
//! → IRFFT in saturating fixed point) and the block-circulant layer's
//! training step (forward, `∂X`, `∂W`, `∂b`).
//!
//! Every constant below was recorded from the implementations that
//! existed before both paths moved onto `core::spectral`'s tile — the
//! stand-alone fixed-point plans and loop nest, and the per-row backward
//! of `nn::CirculantDense` — and has held, unedited, across that move.
//! They are the contract for any later kernel change: the functions under
//! "the calls under test" may be re-pointed at a new entry point, the
//! inputs and the constants may not change.

use blockgnn::core::{BlockCirculantMatrix, FixedSpectralBlockCirculant, SpectralScratch};
use blockgnn::fft::{Complex, RealFftPlan, Q16_16};
use blockgnn::linalg::Matrix;
use blockgnn::nn::{CirculantDense, Layer};

// ---- the calls under test ---------------------------------------------

/// Forward Q16.16 RFFT of `x`: the `n/2 + 1` bins as raw `(re, im)` bits.
fn q16_rfft(x: &[Q16_16]) -> Vec<(i32, i32)> {
    let plan = RealFftPlan::<Q16_16>::new(x.len()).unwrap();
    plan.forward(x).unwrap().iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
}

/// Inverse Q16.16 RFFT of raw `(re, im)` bins back to `n` samples.
fn q16_irfft(n: usize, bins: &[(i32, i32)]) -> Vec<i32> {
    let plan = RealFftPlan::<Q16_16>::new(n).unwrap();
    let bins: Vec<Complex<Q16_16>> = bins
        .iter()
        .map(|&(re, im)| Complex::new(Q16_16::from_bits(re), Q16_16::from_bits(im)))
        .collect();
    plan.inverse(&bins).unwrap().iter().map(|v| v.to_bits()).collect()
}

/// `W·x` for every row of the row-major batch `x`, entirely in Q16.16.
fn q16_matmul(w: &BlockCirculantMatrix, x: &[Q16_16]) -> Vec<i32> {
    let fixed = FixedSpectralBlockCirculant::new(w).unwrap();
    let mut y = vec![Q16_16::ZERO; x.len() / w.in_dim() * w.out_dim()];
    fixed.kernel().matmul_into(x, None, &mut SpectralScratch::new(), &mut y);
    y.into_iter().map(Q16_16::to_bits).collect()
}

/// One training step of a fresh layer on `(x, grad_out)`: the forward
/// output, `∂X`, and the kernel and bias gradients it leaves behind.
fn training_step(
    layer: &mut CirculantDense,
    x: &Matrix,
    grad_out: &Matrix,
) -> (Matrix, Matrix, Vec<f64>, Vec<f64>) {
    let y = layer.forward(x, true);
    let grad_in = layer.backward(grad_out);
    let mut grads = Vec::new();
    layer.visit_params(&mut |p| grads.push(p.grad.clone()));
    let bias = grads.pop().unwrap();
    let kernels = grads.pop().unwrap();
    (y, grad_in, kernels, bias)
}

// ---- inputs and hashing (frozen) --------------------------------------

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    })
}

fn fnv_f64(values: &[f64]) -> u64 {
    fnv(values.iter().map(|v| v.to_bits()))
}

fn fnv_i32(values: impl IntoIterator<Item = i32>) -> u64 {
    fnv(values.into_iter().map(|v| v as u32 as u64))
}

/// Deterministic values in `[-1, 1)` (xorshift64).
struct Noise(u64);

impl Noise {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// `len` Q16.16 inputs: mostly unit-scale, every fifth one near the rails
/// (±32 767) so that butterflies, MACs and the final clamp all saturate.
fn q16_signal(len: usize, seed: u64) -> Vec<Q16_16> {
    let mut noise = Noise(seed);
    (0..len)
        .map(|i| {
            let v = noise.next();
            Q16_16::from_f64(if i % 5 == 4 {
                v.signum() * (32_767.0 - v.abs())
            } else {
                v * 3.0
            })
        })
        .collect()
}

fn f64_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut noise = Noise(seed);
    Matrix::from_fn(rows, cols, |_, _| noise.next() * 2.0)
}

/// Aligned, ragged-in-both-dimensions and large-block shapes
/// `(out_dim, in_dim, block_size)`.
const SHAPES: [(usize, usize, usize); 3] = [(10, 6, 4), (50, 30, 16), (96, 130, 64)];

// ---- the pins ----------------------------------------------------------

#[test]
fn q16_rfft_and_irfft_bits_are_pinned() {
    // (n, forward bins, inverse of those bins)
    let pinned: [(usize, u64, u64); 6] = [
        (1, 0x8af96baa0769b76c, 0xb3206622571f41ec),
        (2, 0x52267bccf27c9c3f, 0xdc5011dc6fd06091),
        (4, 0xafba3227ea0a23eb, 0x75c7668ab112befd),
        (16, 0x4492d2d9929bfae7, 0xd295bc51fc3375e9),
        (64, 0xa432fe8564a2605f, 0x6f54a881010e6bab),
        (128, 0xe002c683e0feb0cf, 0x5695178d58ace3f8),
    ];
    let got = pinned.map(|(n, ..)| {
        let bins = q16_rfft(&q16_signal(n, 0x5eed + n as u64));
        assert_eq!(bins.len(), n / 2 + 1);
        let on_a_rail = bins.iter().any(|&(re, _)| re == i32::MAX || re == i32::MIN);
        assert_eq!(
            on_a_rail,
            n >= 16,
            "n={n}: the signal saturates the longer transforms only"
        );
        // A clamped spectrum is no longer the transform of the input; its
        // inverse is pinned all the same.
        let time = q16_irfft(n, &bins);
        (n, fnv_i32(bins.iter().flat_map(|&(re, im)| [re, im])), fnv_i32(time))
    });
    assert_eq!(got, pinned, "Q16.16 RFFT/IRFFT bits moved: {got:#x?}");
}

#[test]
fn q16_matmul_bits_are_pinned() {
    let pinned: [u64; 3] = [0xb0fef783266c3875, 0x2e56263a4302808d, 0x785a8445209d98b2];
    let got = SHAPES.map(|(out_dim, in_dim, n)| {
        let w = BlockCirculantMatrix::random(out_dim, in_dim, n, 29).unwrap();
        // 11 rows: a full 8-row tile and a tail, for a kernel that tiles.
        let x = q16_signal(11 * in_dim, 0xfeed + n as u64);
        let y = q16_matmul(&w, &x);
        assert_eq!(y.len(), 11 * out_dim);
        // Quantization alone costs ~1e-3; an error above 1 means a
        // butterfly or a MAC clamped on the way.
        let exact: Vec<f64> = x
            .chunks(in_dim)
            .flat_map(|row| {
                w.matvec_direct(&row.iter().map(|v| v.to_f64()).collect::<Vec<_>>())
            })
            .collect();
        let clamped =
            exact.iter().zip(&y).any(|(e, &q)| (e - Q16_16::from_bits(q).to_f64()).abs() > 1.0);
        assert!(clamped, "{out_dim}x{in_dim} n={n}: the input was meant to saturate");
        fnv_i32(y)
    });
    assert_eq!(got, pinned, "Q16.16 product bits moved: {got:#x?}");
}

#[test]
fn circore_batch_bits_are_pinned() {
    // Output bits of a 9-row batch through the Q16.16 datapath.
    let pinned: [u64; 3] = [0x78217851cac348fd, 0x838a6b9931b5fae6, 0x89c73044245e2811];
    let got = SHAPES.map(|(out_dim, in_dim, n)| {
        let w = BlockCirculantMatrix::random(out_dim, in_dim, n, 31).unwrap();
        let mut fixed = FixedSpectralBlockCirculant::new(&w).unwrap();
        let x = f64_matrix(9, in_dim, 0xbeef + n as u64);
        let batch = fixed.matmul(x.as_slice());
        // One row alone is the same arithmetic.
        assert_eq!(fnv_f64(&fixed.matvec(x.row(4))), fnv_f64(&batch[4 * out_dim..5 * out_dim]));
        fnv_f64(&batch)
    });
    assert_eq!(got, pinned, "CirCore batch bits moved: {got:#x?}");
}

#[test]
fn training_step_bits_are_pinned() {
    // Per shape, per batch size: (forward, ∂X, ∂W, ∂b). 7, 8, 9 and 17
    // rows sit either side of the kernel's 8-row tile.
    let pinned: [[(u64, u64, u64, u64); 5]; 3] = [
        [
            (0xc8b5b9be0f47d31e, 0x6e72c30843915df2, 0x9b36ce59869eafd5, 0x5bff209f64c0687a),
            (0xbee16b2950b2c881, 0x8ef7b2bf6a3f18dc, 0xc74db4fdd19be1e5, 0x6b067daf1dff588d),
            (0xf7750f71c85e3266, 0xb0d07908fea6baeb, 0xf89f3776122e3a47, 0x976da50aa0d60009),
            (0x17db76883e528bc6, 0x1ed604f553705f9c, 0xaffc8ad210039f6d, 0xbafda1af900072bb),
            (0x8bb36b9ef39fdc0d, 0xc4014eb3968e4321, 0xb13c9395d50d4973, 0xddcf40531ea30a7e),
        ],
        [
            (0x068cc5a012312834, 0xe311e5e92104537e, 0xe22f17420ed95d18, 0x01e15c741feda719),
            (0x2bfa5ae9c1eafcd0, 0x2bca28094d0bb4d9, 0xf458b3f56cd5eb13, 0x4f2a39bf3b959198),
            (0x02de58e7f69e8967, 0xaaac1523f2999849, 0x564dc98129024212, 0x925fae678a01bea7),
            (0xa37d820219e4fa88, 0x8da950d24b6ec3fb, 0xa950acd3ca3fccd5, 0xb6099daed4ab149b),
            (0xfb8c97c329acc807, 0xa583a376807ead05, 0xc6c4a1026e095070, 0x0f696ede4e813dd9),
        ],
        [
            (0xcc28a0c0594bd2de, 0xe43eb63ed59aa88c, 0x8f32bf434d2ba6a0, 0xed79d8b2e2f570a4),
            (0xccabd00073000f63, 0xd5cbd3f69e9d029f, 0xe23b43e1fe6730c1, 0xb8ffb1aea7e52097),
            (0xc2b28d51c562ac82, 0xf3eb0d0d6daf4c26, 0xf2bdc245170a1e12, 0xfe8ce92776c29f34),
            (0xe821aa66c88ff3de, 0xaca79f45bb19605f, 0x7619a1dea03889a7, 0x687fb8ced6e30388),
            (0xa0a3670d62ff56c9, 0x9efa041f7ac393f0, 0xca5568a3517580ee, 0x2a1c148697a1585c),
        ],
    ];
    let got = SHAPES.map(|(out_dim, in_dim, n)| {
        [1usize, 7, 8, 9, 17].map(|rows| {
            let mut layer = CirculantDense::new(out_dim, in_dim, n, 41).unwrap();
            let x = f64_matrix(rows, in_dim, 0xabc + rows as u64);
            let g = f64_matrix(rows, out_dim, 0xdef + rows as u64);
            let (y, grad_in, kernels, bias) = training_step(&mut layer, &x, &g);
            // A second step adds the same gradients on top of the first.
            let (_, again, twice, _) = training_step(&mut layer, &x, &g);
            assert_eq!(fnv_f64(again.as_slice()), fnv_f64(grad_in.as_slice()));
            assert!(twice.iter().zip(&kernels).all(|(b, a)| *b == a + a));
            (
                fnv_f64(y.as_slice()),
                fnv_f64(grad_in.as_slice()),
                fnv_f64(&kernels),
                fnv_f64(&bias),
            )
        })
    });
    assert_eq!(got, pinned, "training step bits moved: {got:#x?}");
}

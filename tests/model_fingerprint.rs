//! Pinned `to_bits` fingerprints of every model's training route: the
//! logits of `forward(.., true)`, `∂features` from `backward`, every
//! parameter gradient, and a short `train_node_classifier` run.
//!
//! Every constant below was recorded from the models as they stood before
//! the training forward moved onto each layer's block kernel (when each
//! weighted aggregation was still written twice, once per route) and
//! must hold, unedited, across that move and any later one. They are the
//! reference the training path is held to: the calls under test may be
//! re-pointed, the inputs and the constants may not change.

use blockgnn::gnn::train::{train_node_classifier, TrainConfig};
use blockgnn::gnn::{build_model, GnnModel, ModelKind};
use blockgnn::graph::{CsrGraph, Dataset, DatasetSpec};
use blockgnn::linalg::Matrix;
use blockgnn::nn::Compression;

// ---- the calls under test ---------------------------------------------

/// One training step of a fresh model: hashes of the training logits,
/// `∂features` under `grad_logits`, and every parameter gradient in
/// `visit_params` order.
fn training_step(
    model: &mut dyn GnnModel,
    graph: &CsrGraph,
    features: &Matrix,
    grad_logits: &Matrix,
) -> (u64, u64, u64) {
    model.zero_grad();
    let logits = model.forward(graph, features, true);
    let grad_features = model.backward(graph, grad_logits);
    let mut grads = Vec::new();
    model.visit_params(&mut |p| grads.extend_from_slice(&p.grad));
    (fnv_f64(logits.as_slice()), fnv_f64(grad_features.as_slice()), fnv_f64(&grads))
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

fn noise_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut noise = Noise(seed);
    Matrix::from_fn(rows, cols, |_, _| noise.next())
}

/// `n` nodes with a hub (node 0), parallel arcs, a few chords and
/// isolated nodes (every third one).
fn hub_graph(n: usize) -> CsrGraph {
    let mut edges = Vec::new();
    for v in (1..n).filter(|v| v % 3 != 0) {
        edges.push((0, v));
        if v % 4 == 1 {
            edges.push((0, v));
        }
        if v % 5 == 2 && v + 2 < n && (v + 2) % 3 != 0 {
            edges.push((v, v + 2));
        }
    }
    CsrGraph::from_edges(n, &edges, true).unwrap()
}

const COMPRESSIONS: [Compression; 3] = [
    Compression::Dense,
    Compression::BlockCirculant { block_size: 2 },
    Compression::BlockCirculant { block_size: 16 },
];

/// One-row, ragged-tile, just-over-a-block and two-block graphs.
const SIZES: [usize; 4] = [1, 9, 65, 130];

// ---- the pins ----------------------------------------------------------

#[test]
fn training_forward_and_backward_bits_are_pinned() {
    // Per kind, per compression, per size: (logits, ∂features, ∂params).
    let pinned: [[[(u64, u64, u64); 4]; 3]; 4] = [
        [
            [
                (0xceb83cd16ee92915, 0x45678025c300b7cf, 0xac5171acd52ea109),
                (0x5f66a02735145a93, 0x65f4ee83f7dc41e9, 0x1036cf7aebc0d69f),
                (0x27489faf18878741, 0x0529baa92c19a19b, 0x47a481cb9056ebec),
                (0xd987c24f9fbfb8e8, 0x99d2720c76ce0ea0, 0x11be939f0f2696df),
            ],
            [
                (0x78b0f49313d0d387, 0xd7b60ac9c82b371e, 0xacab9921df7e32bf),
                (0x88c45199e8d96744, 0x1a741cffcdf718c5, 0x7c02b8df01ea48cf),
                (0xd36c0640e42d3ca9, 0x0fd744b898cb99ec, 0xcd2600cdb43216ba),
                (0x398ba4090e745561, 0x78c4ae0adf510865, 0x0fcdea79b8e3f2dd),
            ],
            [
                (0x80759f9ca24d8f22, 0x5ba4bd2f19dfcd1b, 0x9b3e132da0ba5fa5),
                (0xdc7b3f2600ba3e4b, 0x1909220e15c3e46d, 0x66f61f00229a9e0e),
                (0x0acf4fe813b3146d, 0x19530e4e61e29302, 0x32075eeccea2c9a3),
                (0x99dda1cb0765bb80, 0x57881bda400abce1, 0xaf25366e13db6705),
            ],
        ],
        [
            [
                (0x915b2d2ff4512c6f, 0x40f8203198360cd6, 0xa8f78022ff49bcb6),
                (0x8081ae3552b28e65, 0x41d31ebc17838860, 0xe349716724451b26),
                (0x7fd4fb874198cc63, 0xb8286505db573dd1, 0x5f7557363781e43d),
                (0x4bbb274d44264768, 0x89e5eabf5e869d8c, 0xae2f10a914473b8f),
            ],
            [
                (0xe07d0c76e14ee0b6, 0x4d3b481df7ce541e, 0x76c45f2e73063228),
                (0xb1ee9573fa9aaef5, 0xff946a73c3bd372c, 0x5d0a4c6449e3b279),
                (0xd1f79874baf33610, 0xa22631417224840b, 0xbeb08ea292d880a2),
                (0x67dfb35f241fec6b, 0x97e0db0136b3a59b, 0xe5303f2d71cefea7),
            ],
            [
                (0x9c83c8077a42c9d3, 0xda8595f1c70ce07e, 0x0dc9043d7faaab3e),
                (0x3fd593f1d9740302, 0x031e67003641a032, 0x79405db8dce2b5cf),
                (0xde9556e375438820, 0x93a30d75e12eda26, 0x0df2d3e5095af59a),
                (0x5f23b373b434c919, 0xd101f0c731cd8963, 0x6576cc8844d29a05),
            ],
        ],
        [
            [
                (0x40d69e0cf0f65c45, 0x81b169c331cabfa5, 0xf784149e5ac076bc),
                (0xaa66729d315c02a5, 0x79d1fcc8429ba153, 0xb064b335a5c450ef),
                (0x0f8489fa347cc193, 0x0a8f9bb70dffb468, 0x047dedafe76d347d),
                (0x200f3e81148e736e, 0x9551218143620069, 0x03b6ddccffe25746),
            ],
            [
                (0x40d69e0cf0f65c45, 0x81b169c331cabfa5, 0x8d7b5ee4903ef43c),
                (0x0f10f80d760fb07c, 0x8062174776518a53, 0x6bf75c5c6dd292df),
                (0x513a1cd6157edb0a, 0xa04689e86c55db17, 0x91a1fb78f7e5fd5e),
                (0x09152822174d02c0, 0x831dfcad6d11d25c, 0x340702d24cfd5c5b),
            ],
            [
                (0x40d69e0cf0f65c45, 0x81b169c331cabfa5, 0xaea553d77d2376fc),
                (0x4ca2c24625ab32b6, 0xf772532cfcd9b0f5, 0x0a037e031d351a49),
                (0xa5d2165ebc053980, 0x5ffa20a9bad92746, 0xfea7f3b6e6c08249),
                (0xc867674ef1f72a8b, 0x8cad9f87cbd38570, 0x1695aa5ef116502e),
            ],
        ],
        [
            [
                (0xbef2ffc2cc2e0f7e, 0x3cf3722a02d8b900, 0x5857a8350d900455),
                (0xf50d1b1670f3e062, 0x48038a5245535c53, 0xa2da6bd91681911e),
                (0xbb6b68866c080de8, 0xb880327d19b2d9b2, 0x24f053c765960073),
                (0x311d1b7bf38af25e, 0x607d2f6e24da5996, 0x93107b9b3e2f7383),
            ],
            [
                (0xb1eec13949920a99, 0x62069138dba63d89, 0x4f47198a5af116a5),
                (0xf8bc0122145141c1, 0xa09189ac01f30451, 0xf85b100a0d01ac8d),
                (0x8f9f1d9247321e57, 0x85af1c31865cf337, 0xd767b33bccdef69a),
                (0x8443e62ce3282783, 0x304d591a26e0d41f, 0x89f8d822c07bd004),
            ],
            [
                (0xc5692319e515bf99, 0x6e703dce9bb1dc55, 0xf71cc7b37e78816b),
                (0x640fc88745d8f81d, 0x3b63ee4153af58b1, 0xe64872f150bc1dba),
                (0x7b2509428c4546f4, 0x9d96377797503afd, 0x4bc4b54c085ba08d),
                (0x4e2b0ce2f3fa92ff, 0xc8cefdd2d3565d93, 0xbe7751dc7feb88cd),
            ],
        ],
    ];
    let got = ModelKind::all().map(|kind| {
        COMPRESSIONS.map(|compression| {
            SIZES.map(|n| {
                let mut model = build_model(kind, 20, 18, 5, compression, 7).unwrap();
                let (graph, x) = (hub_graph(n), noise_matrix(n, 20, 0x1234 + n as u64));
                let g = noise_matrix(n, 5, 0x5678 + n as u64);
                let first = training_step(model.as_mut(), &graph, &x, &g);
                // A second step on the same instance starts from zeroed
                // gradients and the same weights: the same bits.
                assert_eq!(
                    training_step(model.as_mut(), &graph, &x, &g),
                    first,
                    "{kind} n={n}"
                );
                first
            })
        })
    });
    assert_eq!(got, pinned, "training route bits moved: {got:#x?}");
}

#[test]
fn training_loss_histories_are_pinned() {
    let pinned: [u64; 4] =
        [0x14bab10df05b451f, 0x909101144bb0597d, 0x43ff601f18ac0bb8, 0xdb654ee196078821];
    let dataset = Dataset::synthesize(&DatasetSpec::new("pin", 120, 500, 24, 3), 0.85, 3.0, 5);
    let config = TrainConfig { epochs: 5, lr: 0.02, patience: 0 };
    let got = ModelKind::all().map(|kind| {
        let compression = Compression::BlockCirculant { block_size: 8 };
        let mut model = build_model(kind, 24, 16, 3, compression, 13).unwrap();
        let report = train_node_classifier(model.as_mut(), &dataset, &config);
        assert_eq!(report.loss_history.len(), 5, "{kind}");
        fnv_f64(&report.loss_history)
    });
    assert_eq!(got, pinned, "training loss histories moved: {got:#x?}");
}

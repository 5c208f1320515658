//! Fixed-point deployment accuracy — validating the prototype's 32-bit
//! fixed-point datapath (§IV-B).
//!
//! The paper reports Table III accuracies from floating-point training
//! and deploys on a 32-bit fixed-point FPGA without re-measuring
//! accuracy — implicitly claiming Q-format inference is lossless at that
//! width. This experiment checks the claim: a compressed GCN is trained
//! in floats, its weights are exported to the Q16.16 spectral form the
//! Weight Buffer actually stores, full-graph inference is re-run with
//! every CirCore matvec in fixed point, and the two accuracy numbers are
//! compared.

use blockgnn_core::FixedSpectralBlockCirculant;
use blockgnn_gnn::adjacency::NormalizedAdjacency;
use blockgnn_gnn::models::Gcn;
use blockgnn_gnn::train::{train_node_classifier, TrainConfig};
use blockgnn_gnn::{Compression, GnnModel};
use blockgnn_graph::{datasets, Dataset};
use blockgnn_linalg::Matrix;
use blockgnn_nn::loss::accuracy;
use blockgnn_nn::LinearLayer;

/// Outcome of the float-vs-fixed deployment comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantizationReport {
    /// Test accuracy of the float (training-time) inference path.
    pub float_accuracy: f64,
    /// Test accuracy with all weight products in Q16.16.
    pub fixed_accuracy: f64,
    /// Largest absolute logit divergence across test nodes.
    pub max_logit_divergence: f64,
}

impl QuantizationReport {
    /// The accuracy cost of quantized deployment (positive = loss).
    #[must_use]
    pub fn accuracy_drop(&self) -> f64 {
        self.float_accuracy - self.fixed_accuracy
    }
}

/// Trains a block-circulant GCN on the reddit-small stand-in and
/// re-runs inference through the Q16.16 spectral datapath.
///
/// # Panics
///
/// Panics if the model was not built with block-circulant weights (the
/// export path needs circulant layers).
#[must_use]
pub fn gcn_fixed_point_accuracy(
    block_size: usize,
    hidden: usize,
    epochs: usize,
    seed: u64,
) -> QuantizationReport {
    let dataset = datasets::reddit_like_small(seed);
    let mut model = Gcn::new(
        dataset.feature_dim(),
        hidden,
        dataset.num_classes,
        Compression::BlockCirculant { block_size },
        seed,
    )
    .expect("valid GCN configuration");
    let cfg = TrainConfig { epochs, lr: 0.01, patience: 0 };
    let _ = train_node_classifier(&mut model, &dataset, &cfg);

    // Float reference inference.
    let float_logits = model.forward(&dataset.graph, &dataset.features, false);

    // Fixed-point deployment inference.
    let fixed_logits = fixed_point_gcn_forward(&model, &dataset);

    let test = &dataset.masks.test;
    let max_logit_divergence = test
        .iter()
        .flat_map(|&v| {
            float_logits
                .row(v)
                .iter()
                .zip(fixed_logits.row(v))
                .map(|(a, b)| (a - b).abs())
                .collect::<Vec<_>>()
        })
        .fold(0.0f64, f64::max);

    QuantizationReport {
        float_accuracy: accuracy(&float_logits, &dataset.labels, test),
        fixed_accuracy: accuracy(&fixed_logits, &dataset.labels, test),
        max_logit_divergence,
    }
}

/// Full-graph GCN inference with both combiner matvecs running through
/// [`FixedSpectralBlockCirculant`] — the arithmetic the FPGA performs.
fn fixed_point_gcn_forward(model: &Gcn, dataset: &Dataset) -> Matrix {
    let (lin1, lin2) = model.combiner_layers();
    let (w1, b1) = export_circulant(lin1);
    let (w2, b2) = export_circulant(lin2);
    let mut fx1 = FixedSpectralBlockCirculant::new(&w1).expect("power-of-two blocks");
    let mut fx2 = FixedSpectralBlockCirculant::new(&w2).expect("power-of-two blocks");

    // One batched call per layer on the shared Q16.16 tile; the VPU adds
    // the bias (and applies ReLU after layer 1) in floats.
    let layer = |fx: &mut FixedSpectralBlockCirculant, a: &Matrix, bias: &[f64], relu: bool| {
        let mut h = fx.matmul(a.as_slice());
        for row in h.chunks_exact_mut(bias.len()) {
            for (o, &b) in row.iter_mut().zip(bias) {
                *o = if relu { (*o + b).max(0.0) } else { *o + b };
            }
        }
        Matrix::from_flat(dataset.num_nodes(), bias.len(), h).expect("one output row per node")
    };
    let adj = NormalizedAdjacency::new(&dataset.graph);
    let h1 = layer(&mut fx1, &adj.apply(&dataset.graph, &dataset.features), &b1, true);
    layer(&mut fx2, &adj.apply(&dataset.graph, &h1), &b2, false)
}

fn export_circulant(layer: &LinearLayer) -> (blockgnn_core::BlockCirculantMatrix, Vec<f64>) {
    match layer {
        LinearLayer::Circulant(c) => (c.to_block_circulant(), c.bias().to_vec()),
        LinearLayer::Dense(_) => {
            panic!("quantization export expects block-circulant layers")
        }
    }
}

/// Renders the report.
#[must_use]
pub fn render(report: &QuantizationReport) -> String {
    format!(
        "=== Fixed-point deployment check (GCN, Q16.16 CirCore datapath) ===\n\n\
         float inference accuracy:  {:.3}\n\
         fixed inference accuracy:  {:.3}  (drop {:+.3})\n\
         max logit divergence:      {:.2e}\n\
         The paper's 32-bit fixed-point prototype reports Table III's\n\
         float accuracies unchanged; a near-zero drop here validates that.\n",
        report.float_accuracy,
        report.fixed_accuracy,
        report.accuracy_drop(),
        report.max_logit_divergence,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q16_16_deployment_is_accuracy_neutral() {
        let report = gcn_fixed_point_accuracy(16, 32, 40, 3);
        assert!(report.float_accuracy > 0.6, "model must learn first");
        assert!(
            report.accuracy_drop().abs() <= 0.02,
            "Q16.16 deployment moved accuracy by {:+.3}",
            report.accuracy_drop()
        );
        assert!(
            report.max_logit_divergence < 0.05,
            "logit divergence {:.2e} too large for 16 fractional bits",
            report.max_logit_divergence
        );
    }

    #[test]
    fn render_reports_both_accuracies() {
        let r = QuantizationReport {
            float_accuracy: 0.91,
            fixed_accuracy: 0.905,
            max_logit_divergence: 1e-3,
        };
        let text = render(&r);
        assert!(text.contains("0.910"));
        assert!(text.contains("drop"));
    }
}

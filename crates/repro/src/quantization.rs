//! Fixed-point deployment accuracy — validating the prototype's 32-bit
//! fixed-point datapath (§IV-B).
//!
//! The paper reports Table III accuracies from floating-point training
//! and deploys on a 32-bit fixed-point FPGA without re-measuring
//! accuracy — implicitly claiming Q-format inference is lossless at that
//! width. This experiment checks the claim for each of the four models:
//! a compressed model is trained in floats, then frozen into an engine on
//! the `SimulatedAccel` backend — which holds the spectral weights in the
//! Weight Buffer's Q16.16 form and runs every CirCore matvec in fixed
//! point — and the full-graph accuracies of the two are compared.

use blockgnn_engine::{BackendKind, EngineBuilder, InferRequest};
use blockgnn_gnn::train::{train_node_classifier, TrainConfig};
use blockgnn_gnn::{build_model, Compression, ModelKind};
use blockgnn_graph::datasets;
use blockgnn_nn::loss::accuracy;
use std::sync::Arc;

/// Outcome of the float-vs-fixed deployment comparison for one model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantizationReport {
    /// The model checked.
    pub kind: ModelKind,
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

/// Trains each of the four models block-circulant on the reddit-small
/// stand-in and re-runs full-graph inference on the simulated
/// accelerator, in the paper's model order.
///
/// # Panics
///
/// Panics if a model cannot be built at `block_size` (not a power of
/// two) or its spectra overflow the accelerator's Weight Buffer.
#[must_use]
pub fn run(
    block_size: usize,
    hidden: usize,
    epochs: usize,
    seed: u64,
) -> Vec<QuantizationReport> {
    let dataset = Arc::new(datasets::reddit_like_small(seed));
    ModelKind::all()
        .into_iter()
        .map(|kind| {
            let mut model = build_model(
                kind,
                dataset.feature_dim(),
                hidden,
                dataset.num_classes,
                Compression::BlockCirculant { block_size },
                seed,
            )
            .expect("valid model configuration");
            let cfg = TrainConfig { epochs, lr: 0.01, patience: 0 };
            let _ = train_node_classifier(model.as_mut(), &dataset, &cfg);
            let float_logits = model.forward(&dataset.graph, &dataset.features, false);
            let fixed_logits = EngineBuilder::new(kind, BackendKind::SimulatedAccel)
                .build_with_model(model, Arc::clone(&dataset))
                .expect("compressed weights fit the Weight Buffer")
                .session()
                .infer(&InferRequest::all_nodes())
                .expect("a full-graph pass serves")
                .logits;

            let test = &dataset.masks.test;
            let max_logit_divergence = test
                .iter()
                .flat_map(|&v| {
                    float_logits
                        .row(v)
                        .iter()
                        .zip(fixed_logits.row(v))
                        .map(|(a, b)| (a - b).abs())
                })
                .fold(0.0f64, f64::max);
            QuantizationReport {
                kind,
                float_accuracy: accuracy(&float_logits, &dataset.labels, test),
                fixed_accuracy: accuracy(&fixed_logits, &dataset.labels, test),
                max_logit_divergence,
            }
        })
        .collect()
}

/// Renders the reports, one row per model.
#[must_use]
pub fn render(reports: &[QuantizationReport]) -> String {
    let mut out = String::from(
        "=== Fixed-point deployment check (Q16.16 CirCore datapath, simulated-accel backend) ===\n\n\
         Model    | float acc | fixed acc | drop   | max logit divergence\n",
    );
    for r in reports {
        out.push_str(&format!(
            "{:<8} | {:<9.3} | {:<9.3} | {:+.3} | {:.2e}\n",
            r.kind.name(),
            r.float_accuracy,
            r.fixed_accuracy,
            r.accuracy_drop(),
            r.max_logit_divergence,
        ));
    }
    out.push_str(
        "\nThe paper's 32-bit fixed-point prototype reports Table III's\n\
         float accuracies unchanged; a near-zero drop here validates that.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q16_16_deployment_is_accuracy_neutral() {
        let reports = run(16, 32, 40, 3);
        assert_eq!(reports.iter().map(|r| r.kind).collect::<Vec<_>>(), ModelKind::all());
        for report in reports {
            let kind = report.kind;
            assert!(report.float_accuracy > 0.6, "{kind}: model must learn first");
            assert!(
                report.accuracy_drop().abs() <= 0.02,
                "{kind}: Q16.16 deployment moved accuracy by {:+.3}",
                report.accuracy_drop()
            );
            assert!(
                report.max_logit_divergence < 0.05,
                "{kind}: logit divergence {:.2e} too large for 16 fractional bits",
                report.max_logit_divergence
            );
        }
    }

    #[test]
    fn render_reports_both_accuracies() {
        let r = QuantizationReport {
            kind: ModelKind::Gat,
            float_accuracy: 0.91,
            fixed_accuracy: 0.905,
            max_logit_divergence: 1e-3,
        };
        let text = render(&[r]);
        assert!(text.contains("GAT"));
        assert!(text.contains("0.910"));
        assert!(text.contains("drop"));
    }
}

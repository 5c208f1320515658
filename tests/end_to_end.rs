//! End-to-end integration: train a compressed GNN in software, deploy
//! its weights onto the fixed-point accelerator, and confirm the
//! hardware datapath preserves the learned behaviour — the full
//! algorithm→hardware story of the paper in one test file.

use blockgnn::core::reference::SpectralBlockCirculant;
use blockgnn::engine::{BackendKind, EngineBuilder, InferRequest};
use blockgnn::gnn::train::{train_node_classifier, TrainConfig};
use blockgnn::gnn::{build_model, Compression, ModelKind};
use blockgnn::graph::{Dataset, DatasetSpec};
use blockgnn::linalg::vector::argmax;
use blockgnn::nn::{CirculantDense, Layer};
use std::sync::Arc;

fn small_task() -> Dataset {
    let spec = DatasetSpec::new("e2e", 220, 900, 32, 4);
    Dataset::synthesize(&spec, 0.85, 3.0, 314)
}

#[test]
fn compressed_training_then_spectral_inference_agree() {
    // Train a circulant layer, export to BlockCirculantMatrix, and check
    // the exported spectral execution matches the layer's own forward.
    let mut layer = CirculantDense::new(24, 32, 8, 5).unwrap();
    let x = blockgnn::linalg::Matrix::from_fn(3, 32, |i, j| ((i * 32 + j) as f64 * 0.11).sin());
    let y_layer = layer.forward(&x, false);
    let exported = layer.to_block_circulant();
    let spectral = SpectralBlockCirculant::new(&exported).unwrap();
    for r in 0..3 {
        let y_export = spectral.matvec(x.row(r));
        for (a, b) in y_layer.row(r).iter().zip(&y_export) {
            // The layer adds bias; subtracting it must recover the
            // spectral product. Bias starts at zero, so direct match.
            assert!((a - b).abs() < 1e-9, "row {r}: layer {a} vs export {b}");
        }
    }
}

#[test]
fn dense_and_compressed_models_make_mostly_identical_predictions() {
    // The Table III premise: compression barely moves predictions on a
    // learnable task.
    let ds = small_task();
    let cfg = TrainConfig { epochs: 50, lr: 0.02, patience: 0 };

    let mut dense = build_model(
        ModelKind::Gcn,
        ds.feature_dim(),
        16,
        ds.num_classes,
        Compression::Dense,
        9,
    )
    .unwrap();
    let dense_report = train_node_classifier(dense.as_mut(), &ds, &cfg);

    let mut compressed = build_model(
        ModelKind::Gcn,
        ds.feature_dim(),
        16,
        ds.num_classes,
        Compression::BlockCirculant { block_size: 8 },
        9,
    )
    .unwrap();
    let comp_report = train_node_classifier(compressed.as_mut(), &ds, &cfg);

    assert!(dense_report.test_accuracy > 0.7);
    assert!(
        dense_report.test_accuracy - comp_report.test_accuracy < 0.12,
        "compression cost too high: {} -> {}",
        dense_report.test_accuracy,
        comp_report.test_accuracy
    );

    // Prediction agreement on test nodes.
    let dl = dense.forward(&ds.graph, &ds.features, false);
    let cl = compressed.forward(&ds.graph, &ds.features, false);
    let agree =
        ds.masks.test.iter().filter(|&&v| argmax(dl.row(v)) == argmax(cl.row(v))).count();
    let frac = agree as f64 / ds.masks.test.len() as f64;
    assert!(frac > 0.7, "prediction agreement only {frac:.2}");
}

#[test]
fn trained_model_serves_through_the_engine_front_door() {
    // The full production story: train a compressed GNN, freeze it into
    // an Engine, and serve. On the spectral backend the answers must
    // match the training-path forward pass exactly (preparation changes
    // the execution schedule, not the math). On the simulated
    // accelerator they come in Q16.16 with a hardware report, within
    // quantization of the float answers and at the same accuracy.
    let ds = small_task();
    let mut model = build_model(
        ModelKind::GsPool,
        ds.feature_dim(),
        16,
        ds.num_classes,
        Compression::BlockCirculant { block_size: 8 },
        31,
    )
    .unwrap();
    let report = train_node_classifier(
        model.as_mut(),
        &ds,
        &TrainConfig { epochs: 40, lr: 0.02, patience: 0 },
    );
    assert!(report.test_accuracy > 0.6, "model must learn, got {}", report.test_accuracy);
    let reference = model.forward(&ds.graph, &ds.features, false);

    let test_nodes = ds.masks.test.clone();
    let labels = ds.labels.clone();
    let dataset = Arc::new(ds);
    let test_accuracy = |predictions: &[usize]| {
        let correct = test_nodes.iter().filter(|&&v| predictions[v] == labels[v]).count();
        correct as f64 / test_nodes.len() as f64
    };

    let mut spectral = EngineBuilder::new(ModelKind::GsPool, BackendKind::Spectral)
        .build_with_model(model.clone_boxed(), Arc::clone(&dataset))
        .expect("trained weights deploy");
    let exact = spectral.session().infer(&InferRequest::all_nodes()).expect("refresh serves");
    assert_eq!(
        exact.logits.linf_distance(&reference),
        0.0,
        "spectral serving must reproduce the training-path forward exactly"
    );
    let acc = test_accuracy(&exact.predictions);
    assert!(
        (acc - report.test_accuracy).abs() < 0.15,
        "served accuracy {acc:.3} far from trained {:.3}",
        report.test_accuracy
    );

    let mut engine = EngineBuilder::new(ModelKind::GsPool, BackendKind::SimulatedAccel)
        .build_with_model(model, Arc::clone(&dataset))
        .expect("trained weights deploy");
    let mut session = engine.session();
    let response = session.infer(&InferRequest::all_nodes()).expect("refresh serves");
    assert!(response.sim.expect("hardware report").total_cycles > 0);
    let drift = response.logits.linf_distance(&reference);
    assert!(drift < 0.05, "Q16.16 serving drifted {drift:.3e} from the float forward");
    assert_eq!(test_accuracy(&response.predictions), acc, "Q16.16 serving moved accuracy");

    // Sampled serving on the same engine stays close to full-graph.
    let batch: Vec<usize> = test_nodes.iter().copied().take(40).collect();
    let sampled = session
        .infer(&InferRequest::paper_sampled(batch.clone(), 3))
        .expect("sampled request serves");
    let agree = batch
        .iter()
        .zip(&sampled.predictions)
        .filter(|(&v, &p)| response.predictions[v] == p)
        .count();
    assert!(
        agree as f64 / batch.len() as f64 > 0.7,
        "sampled predictions collapsed: {agree}/{} agree",
        batch.len()
    );
    assert_eq!(session.stats().requests, 2);
}

#[test]
fn all_four_models_train_compressed_end_to_end() {
    let ds = small_task();
    let cfg = TrainConfig { epochs: 35, lr: 0.015, patience: 0 };
    for kind in ModelKind::all() {
        let mut model = build_model(
            kind,
            ds.feature_dim(),
            16,
            ds.num_classes,
            Compression::BlockCirculant { block_size: 4 },
            13,
        )
        .unwrap();
        let report = train_node_classifier(model.as_mut(), &ds, &cfg);
        assert!(
            report.test_accuracy > 0.5,
            "{kind}: compressed training reached only {:.3}",
            report.test_accuracy
        );
        assert!(report.final_loss.is_finite());
    }
}

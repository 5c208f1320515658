//! Smoke tests over the full reproduction harness: every table/figure
//! module runs (quick configurations) and produces output with the
//! paper's qualitative structure.

use blockgnn_repro::{ablation, fig6, fig7, table2, table3, table4, table5, table6};

#[test]
fn table2_reproduces_profile_structure() {
    let rows = table2::run();
    assert_eq!(rows.len(), 4);
    // GCN: combination dominates; all others: aggregation dominates.
    assert!(rows[0].comb_ops > rows[0].agg_ops);
    for r in &rows[1..] {
        assert!(r.agg_ops > r.comb_ops, "{}", r.model);
    }
    let text = table2::render(&rows);
    assert!(text.contains("Table II"));
}

#[test]
fn table3_quick_sweep_shows_compression_tolerance() {
    let rows = table3::run(&table3::Table3Config::quick());
    let text = table3::render(&rows);
    assert!(text.contains("TCR"));
    // Accuracy at n=16 within 15 points of dense for the quick config.
    let dense_acc = rows[0].accuracies[0].1;
    let comp_acc = rows[1].accuracies[0].1;
    assert!(dense_acc - comp_acc < 0.15, "drop {dense_acc} -> {comp_acc}");
}

#[test]
fn table4_is_exact() {
    let specs = table4::run();
    assert_eq!(specs[3].num_edges, 11_606_919);
    assert!(table4::render(&specs).contains("cora-like"));
}

#[test]
fn table5_and_table6_are_consistent() {
    let t5 = table5::run();
    let t6 = table6::run();
    assert_eq!(t5.len(), 4);
    assert_eq!(t6.len(), 4);
    for (a, b) in t5.iter().zip(&t6) {
        assert_eq!(a.dataset, b.dataset);
        // Table VI's DSP column is Eq. 8 applied to Table V's config.
        let dsp =
            a.result.params.dsp_usage(128, &blockgnn::perf::coeffs::HardwareCoeffs::zc706());
        assert_eq!(dsp, b.estimate.dsp48);
    }
}

#[test]
fn figures_6_and_7_share_timing() {
    let entries = fig6::run();
    assert_eq!(entries.len(), 16);
    let energy = fig7::from_entries(&entries);
    assert_eq!(energy.len(), 16);
    for (t, e) in entries.iter().zip(&energy) {
        assert_eq!(t.opt_seconds, e.accel.seconds);
        assert_eq!(t.cpu_seconds, e.cpu.seconds);
        assert!(e.energy_ratio() > 1.0);
    }
    assert!(fig6::render(&entries).contains("Figure 6"));
    assert!(fig7::render(&energy).contains("Figure 7"));
}

#[test]
fn ablations_quantify_design_choices() {
    let accum = ablation::spectral_accumulation(256, 32, 2);
    assert!(accum.ifft_per_block > accum.ifft_optimized);
    let rfft = ablation::rfft_comparison(256, 32, 2);
    assert!(rfft.rfft_bins < rfft.complex_bins);
    assert!(rfft.max_divergence < 1e-8);
}

//! `repro` — regenerate every table and figure of the BlockGNN paper.
//!
//! ```text
//! repro table2            # Table II  — GNN profiling
//! repro table3 [--quick]  # Table III — accuracy vs block size (trains models)
//! repro table4            # Table IV  — dataset statistics
//! repro table5            # Table V   — DSE-optimal hardware parameters
//! repro table6            # Table VI  — FPGA resource utilization
//! repro fig6              # Figure 6  — performance comparison
//! repro fig7              # Figure 7  — energy efficiency
//! repro ablations [--quick]     # §V + Algorithm 1 ablations
//! repro quantization [--quick]  # Q16.16 deployment accuracy check
//! repro all [--quick]     # everything above in paper order
//! ```

#![forbid(unsafe_code)]

use blockgnn_gnn::ModelKind;
use blockgnn_repro::{
    ablation, fig6, fig7, quantization, table2, table3, table4, table5, table6,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let command = args.first().map(String::as_str).unwrap_or("help");
    match command {
        "table2" => print!("{}", table2::render(&table2::run())),
        "table3" => run_table3(quick),
        "table4" => print!("{}", table4::render(&table4::run())),
        "table5" => print!("{}", table5::render(&table5::run())),
        "table6" => print!("{}", table6::render(&table6::run())),
        "fig6" => print!("{}", fig6::render(&fig6::run())),
        "fig7" => print!("{}", fig7::render(&fig7::run())),
        "ablations" => run_ablations(quick),
        "quantization" => run_quantization(quick),
        "all" => {
            print!("{}", table2::render(&table2::run()));
            println!();
            run_table3(quick);
            println!();
            print!("{}", table4::render(&table4::run()));
            println!();
            print!("{}", table5::render(&table5::run()));
            println!();
            print!("{}", table6::render(&table6::run()));
            println!();
            let entries = fig6::run();
            print!("{}", fig6::render(&entries));
            println!();
            print!("{}", fig7::render(&fig7::from_entries(&entries)));
            println!();
            run_ablations(quick);
            println!();
            run_quantization(quick);
        }
        _ => {
            eprintln!(
                "usage: repro <table2|table3|table4|table5|table6|fig6|fig7|ablations|quantization|all> \
                 [--quick]"
            );
            std::process::exit(2);
        }
    }
}

fn run_table3(quick: bool) {
    let config =
        if quick { table3::Table3Config::quick() } else { table3::Table3Config::default() };
    print!("{}", table3::render(&table3::run(&config)));
}

fn run_quantization(quick: bool) {
    let (hidden, epochs) = if quick { (32, 30) } else { (64, 80) };
    print!("{}", quantization::render(&quantization::run(16, hidden, epochs, 7)));
}

fn run_ablations(quick: bool) {
    let (dim, iters, epochs) = if quick { (256, 5, 25) } else { (512, 50, 80) };
    let accum = ablation::spectral_accumulation(dim, 64, iters);
    let rfft = ablation::rfft_comparison(dim, 64, iters);
    let agg = ablation::aggregator_only(
        ModelKind::GsPool,
        32,
        if quick { 32 } else { 64 },
        epochs,
        7,
    );
    print!("{}", ablation::render(&accum, &rfft, &agg));
}

//! Network-level inference: run each Table IV layer suite (ResNet50 block,
//! BERT encoder GEMMs, GPT block) back to back on the dense baseline and on
//! VEGETA, at every structured sparsity level — all through the `Session`
//! API's network runner.
//!
//! Run with: `cargo run --release --example network_inference`

use std::sync::Arc;

use vegeta::prelude::*;
use vegeta::workloads::{layers_of, Network};

fn print_suite(result: &NetworkReport, baseline: Option<&NetworkReport>) {
    let speedup = baseline.map_or_else(
        || "1.00x".to_string(),
        |b| {
            format!(
                "{:.2}x",
                b.total_cycles() as f64 / result.total_cycles() as f64
            )
        },
    );
    println!(
        "  {:<28} {:>14} cycles {:>8.2} eff. TFLOPS  {:>7}",
        result.engine,
        result.total_cycles(),
        result.effective_tflops(),
        speedup
    );
}

fn main() {
    let quick = quick_factor();
    let fidelity = Fidelity::from_factor(quick);
    if quick > 1 {
        println!("(quick mode: layer dims / {quick})");
    }
    let suites = [
        ("ResNet50 (6 conv layers)", Network::ResNet50),
        ("BERT (3 encoder GEMMs)", Network::Bert),
        ("GPT-3 (3 block GEMMs)", Network::Gpt),
    ];
    // Both sessions share one cache: the dense baseline and VEGETA run the
    // same dense kernel for 4:4 weights, so that trace is built only once.
    let cache = Arc::new(TraceCache::new());
    let dm = Session::new(EngineConfig::rasa_dm()).with_cache(Arc::clone(&cache));
    let vegeta_session = Session::new(
        EngineConfig::vegeta_s(16)
            .expect("valid alpha")
            .with_output_forwarding(true),
    )
    .with_cache(cache);

    for (suite_name, network) in suites {
        let layers = layers_of(network);
        let macs: u64 = layers.iter().map(Layer::macs).sum();
        println!(
            "\n{suite_name}: {} layers, {} total MACs",
            layers.len(),
            macs
        );
        for ratio in figure13_sparsities() {
            let base = dm.run_network(&layers, ratio, fidelity);
            let ours = vegeta_session.run_network(&layers, ratio, fidelity);
            println!(" weights {ratio}:");
            print_suite(&base, None);
            print_suite(&ours, Some(&base));
        }
    }
    println!("\nper-layer breakdown (ResNet50 at 2:4 on VEGETA-S-16-2+OF):");
    let layers = layers_of(Network::ResNet50);
    let res = vegeta_session.run_network(&layers, NmRatio::S2_4, fidelity);
    for layer in &res.layers {
        println!(
            "  {:<14} {:>12} cycles  (kernel {})",
            layer.workload, layer.cycles, layer.kernel
        );
    }
}

//! Sparse ResNet50 layer inference end to end: im2col lowering, 2:4 weight
//! pruning, kernel construction, bit-exact functional verification on a
//! scaled copy, and full-size timing through the `Session` API.
//!
//! Run with: `cargo run --release --example sparse_resnet_inference`

use std::sync::Arc;

use vegeta::kernels::{build_program, KernelOptions};
use vegeta::num::gemm_bf16_ref;
use vegeta::prelude::*;
use vegeta::sparse::prune;
use vegeta::workloads::{generate_weights, table4, LayerKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let layer = table4()[1]; // ResNet50-L2: 3x3 conv, 56x56, 64ch
    let LayerKind::Conv(conv) = layer.kind else {
        unreachable!("L2 is a conv layer")
    };
    let gemm = layer.gemm_shape();
    println!(
        "{}: conv K={} C={} {}x{} {}x{} -> GEMM {}x{}x{} ({} MACs)",
        layer.name,
        conv.k,
        conv.c,
        conv.y,
        conv.x,
        conv.r,
        conv.s,
        gemm.m,
        gemm.n,
        gemm.k,
        layer.macs()
    );

    // --- Functional check on a scaled-down copy (fast in debug builds). ---
    let mut rng = rand_seed(7);
    let small = GemmShape::new(32, 48, 144);
    let weights = prune::magnitude_prune_nm(
        &prune::random_dense(small.m, small.k, &mut rng),
        NmRatio::S2_4,
    );
    let inputs = prune::random_dense(small.k, small.n, &mut rng);
    let program = build_program(
        &weights,
        &inputs,
        SparseMode::Nm2of4,
        KernelOptions::default(),
    )?;
    let got = program.run_functional()?;
    let mut expected = Matrix::zeros(small.m, small.n);
    gemm_bf16_ref(&weights, &inputs, &mut expected);
    assert_eq!(got, expected, "sparse kernel must be bit-exact");
    println!("scaled-down kernel verified bit-exact against the dense reference");

    // --- Full-size timing: dense baseline vs VEGETA, via Sessions sharing
    //     one trace cache. ---
    let mut rng = rand_seed(8);
    let w = generate_weights(&layer, WeightSparsity::Structured(NmRatio::S2_4), &mut rng);
    println!(
        "full-size weights generated: {}x{} at degree {:.2}",
        w.rows(),
        w.cols(),
        vegeta::sparse::sparsity_degree(&w)
    );

    let engines = [
        EngineConfig::rasa_dm(),
        EngineConfig::stc_like(),
        EngineConfig::vegeta_s(16)
            .expect("valid alpha")
            .with_output_forwarding(true),
    ];
    let cache = Arc::new(TraceCache::new());
    let mut baseline = None;
    for engine in engines {
        let session = Session::new(engine).with_cache(Arc::clone(&cache));
        let report = session.run(&Cell::layer(&layer, Fidelity::Full, NmRatio::S2_4));
        let speedup = baseline.map_or(1.0, |b: u64| b as f64 / report.cycles as f64);
        baseline.get_or_insert(report.cycles);
        println!(
            "  {:<36} kernel {}: {:>12} cycles  {:>7.3} ms  {:>6.2} effective TFLOPS  {:>5.2}x",
            report.engine,
            report.kernel,
            report.cycles,
            report.seconds() * 1e3,
            report.effective_tflops(),
            speedup
        );
    }
    Ok(())
}

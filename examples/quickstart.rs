//! Quickstart: the `Session`/`Cell`/`Sweep` experiment API.
//!
//! Four steps: (1) ask one engine one question: a `Session` runs a `Cell`, (2) check
//! the numerics are real with the functional executor, (3) sweep a whole
//! engine x sparsity grid in parallel with `Sweep` and read the structured
//! report, (4) replay a **full-fidelity** (unscaled) Table IV layer
//! through the streaming pipeline — the trace is generated lazily and the
//! peak resident footprint stays bounded by one chunk.
//!
//! Run with: `cargo run --release --example quickstart`
//! (`VEGETA_QUICK=1` shrinks the layers for a fast smoke run.)

use vegeta::num::gemm_bf16_ref;
use vegeta::prelude::*;
use vegeta::sparse::prune;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Always run on a scaled layer (this is a quickstart); scale further
    // down when VEGETA_QUICK is set.
    let quick = if quick_factor() > 1 { 8 } else { 4 };

    // 1. One question: how fast does VEGETA-S-16-2+OF run BERT-L2 with
    //    2:4-sparse weights, against the dense state of the art?
    let layer = table4()[7]; // BERT-L2
    let vegeta_engine = EngineConfig::vegeta_s(16)
        .expect("valid alpha")
        .with_output_forwarding(true);
    let cell = Cell::layer(&layer, Fidelity::Quick(quick), NmRatio::S2_4);
    let ours = Session::new(vegeta_engine).run(&cell);
    let base = Session::new(EngineConfig::rasa_dm()).run(&cell);
    println!(
        "{} at {} sparsity (shape {}x{}x{}, 1/{quick} scale):",
        ours.workload, ours.sparsity, ours.shape.m, ours.shape.n, ours.shape.k
    );
    println!(
        "  {:<36} {:>10} cycles  kernel {}",
        base.engine, base.cycles, base.kernel
    );
    println!(
        "  {:<36} {:>10} cycles  kernel {}  ({:.2}x)",
        ours.engine,
        ours.cycles,
        ours.kernel,
        base.cycles as f64 / ours.cycles as f64
    );
    // Reports are structured and serializable — no scraping stdout.
    let round_trip = RunReport::from_json(&ours.to_json())?;
    assert_eq!(round_trip, ours);
    println!("  as JSON: {}\n", ours.to_json());

    // 2. The cycle counts above replay *real* kernels: the same builders
    //    produce functional programs whose outputs are bit-exact.
    let mut rng = rand_seed(2023);
    let weights = prune::magnitude_prune_nm(&prune::random_dense(32, 64, &mut rng), NmRatio::S2_4);
    let inputs = prune::random_dense(64, 16, &mut rng);
    let program = vegeta::kernels::build_program(
        &weights,
        &inputs,
        SparseMode::Nm2of4,
        KernelOptions::default(),
    )?;
    let got = program.run_functional()?;
    let mut expected = Matrix::zeros(32, 16);
    gemm_bf16_ref(&weights, &inputs, &mut expected);
    assert_eq!(got, expected, "TILE_SPMM_U must match the dense reference");
    println!("functional check: TILE_SPMM_U kernel is bit-exact vs the dense reference\n");

    // 3. The same question as a grid: every sparsity x a few engines, run
    //    on the parallel sweep runner with one shared trace cache.
    let grid = Sweep::new()
        .with_engines([
            EngineConfig::rasa_dm(),
            EngineConfig::stc_like(),
            EngineConfig::vegeta_s(16)
                .expect("valid alpha")
                .with_output_forwarding(true),
        ])
        .with_layer(layer)
        .with_sparsities(figure13_sparsities())
        .with_scale(quick)
        .run();
    println!(
        "sweep: {} cells on {} threads, {} traces built ({} cache hits)",
        grid.cells.len(),
        grid.threads,
        grid.traces_built,
        grid.trace_cache_hits
    );
    for cell in &grid.cells {
        println!(
            "  {:<8} {:<36} {:>10} cycles  {:>5.1}% engine-busy",
            cell.sparsity,
            cell.engine,
            cell.cycles,
            cell.utilization() * 100.0
        );
    }
    let of_engine = EngineConfig::vegeta_s(16)
        .expect("valid alpha")
        .with_output_forwarding(true);
    let speedup = grid
        .geomean_speedup(EngineConfig::rasa_dm().name(), of_engine.name(), "1:4")
        .expect("complete grid");
    println!("\n{} over RASA-DM at 1:4: {speedup:.2}x", of_engine.name());

    // 4. Full fidelity: the real, unscaled layer streamed end to end.
    //    `Fidelity::Full` replays the exact Table IV dimensions; the trace
    //    is never materialized, so peak residency is one streaming chunk
    //    rather than megabytes of instruction vector.
    let full_layer = table4()
        .into_iter()
        .find(|l| l.name == "ResNet50-L6")
        .expect("Table IV layer");
    let session = Session::new(EngineConfig::vegeta_s(16).expect("valid alpha"));
    let full = session.run(&Cell::layer(&full_layer, Fidelity::Full, NmRatio::S2_4));
    println!(
        "\nfull fidelity: {} ({}x{}x{}) on {}: {} cycles, {} insts streamed, \
         peak trace residency {} B (materialized would be {} B)",
        full.workload,
        full.shape.m,
        full.shape.n,
        full.shape.k,
        full.engine,
        full.cycles,
        full.insts_streamed,
        full.peak_resident_bytes,
        full.instructions * vegeta::isa::TRACE_OP_BYTES as u64
    );
    assert_eq!(full.fidelity, "full");
    Ok(())
}

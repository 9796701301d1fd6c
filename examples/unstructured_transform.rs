//! Unstructured sparsity on VEGETA: the lossless row-wise N:M transform
//! (§III-D), TILE_SPMM_R packing, and the granularity comparison of Fig. 15
//! on one matrix.
//!
//! Run with: `cargo run --release --example unstructured_transform`

use vegeta::engine::rowwise::{pack_rows, packing_stats};
use vegeta::kernels::build_rowwise_program;
use vegeta::num::gemm_bf16_ref;
use vegeta::prelude::*;
use vegeta::sparse::{prune, transform};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand_seed(95);
    let degree = 0.95;
    let a = prune::random_unstructured(128, 256, degree, &mut rng);
    let b = prune::random_dense(256, 32, &mut rng);
    println!(
        "unstructured A: {}x{} at {:.0}% sparsity",
        a.rows(),
        a.cols(),
        vegeta::sparse::sparsity_degree(&a) * 100.0
    );

    // 1. The lossless cover: each row gets the sparsest N:4 that keeps all
    //    its non-zeros.
    let tile = RowWiseTile::compress(&a, 4)?;
    assert_eq!(tile.decompress(), a, "the transform never loses a non-zero");
    let mut histogram = [0usize; 5];
    for r in tile.row_ratios() {
        histogram[r.n() as usize] += 1;
    }
    println!(
        "row covers: 1:4 x{}, 2:4 x{}, 4:4 x{} -> compression {:.2}x",
        histogram[1],
        histogram[2],
        histogram[4],
        tile.compression_ratio()
    );

    // 2. Packing into TILE_SPMM_R instructions (32 MAC columns each).
    let mut covers = transform::row_covers(&a, 4)?;
    covers.sort();
    let stats = packing_stats(&pack_rows(&covers));
    println!(
        "TILE_SPMM_R packing: {} tiles, mean MAC-column utilization {:.1}%",
        stats.instructions,
        stats.mean_utilization * 100.0
    );

    // 3. Execute the row-wise SPMM end to end and verify.
    let program = build_rowwise_program(&a, &b, true)?;
    let got = program.run_functional()?;
    let mut expected = Matrix::zeros(a.rows(), b.cols());
    gemm_bf16_ref(&a, &b, &mut expected);
    assert_eq!(got, expected, "row-wise SPMM must be bit-exact");
    println!("TILE_SPMM_R kernel verified bit-exact against the dense reference");

    // 4. Time the packed TILE_SPMM_R kernel on the core model, against the
    //    dense kernel for the same GEMM, through the Session API.
    let shape = GemmShape::new(a.rows(), b.cols(), a.cols());
    let session = Session::new(
        EngineConfig::vegeta_s(16)
            .expect("valid alpha")
            .with_output_forwarding(true),
    );
    let rowwise = session.run(&Cell::shape(
        "unstructured-95",
        shape,
        &KernelSpec::RowWise {
            row_ratios: covers.clone(),
        },
    ));
    let dense = session.run(&Cell::shape(
        "unstructured-95",
        shape,
        &KernelSpec::tiled(SparseMode::Dense),
    ));
    println!(
        "timing on {}: row-wise {} cycles vs dense {} cycles ({:.2}x)",
        rowwise.engine,
        rowwise.cycles,
        dense.cycles,
        dense.cycles as f64 / rowwise.cycles as f64
    );

    // 5. What each granularity of hardware support would skip (Fig. 15).
    println!(
        "\nspeedup by sparsity-granularity support at {:.0}% degree:",
        degree * 100.0
    );
    let model = GranularityModel::default();
    for hw in GranularityHw::all() {
        println!("  {:<48} {:>5.2}x", hw.name(), model.speedup(hw, &a));
    }
    Ok(())
}

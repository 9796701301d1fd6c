//! Design-space exploration across the Table III engines: performance on a
//! BERT layer at each sparsity, against area, power and achievable
//! frequency — the trade-off study of §VI-C/D in one table.
//!
//! Every design point gets its own `Session`; all sessions share one trace
//! cache, so the three distinct kernels (dense/2:4/1:4) are built once, not
//! once per engine.
//!
//! Run with: `cargo run --release --example design_space`

use std::sync::Arc;

use vegeta::prelude::*;
use vegeta::workloads::table4;

fn main() {
    let layer = table4()[7]; // BERT-L2
    let quick = quick_factor();
    let shape = layer.scaled_shape(quick);
    println!(
        "workload: {} (GEMM {}x{}x{}), engines at 0.5 GHz, core at 2 GHz\n",
        layer.name, shape.m, shape.n, shape.k
    );

    let cost = CostModel::default();
    let baseline = EngineConfig::rasa_sm();
    let cache = Arc::new(TraceCache::new());
    println!(
        "{:<16} {:>9} {:>9} {:>7} {:>12} {:>12} {:>12}",
        "engine", "area", "power", "GHz", "4:4 cycles", "2:4 cycles", "1:4 cycles"
    );
    for engine in EngineConfig::table3() {
        let (area, power) = cost.normalized(&engine, &baseline);
        let freq = cost.evaluate(&engine).frequency_ghz;
        let session = Session::new(engine).with_cache(Arc::clone(&cache));
        let cycles: Vec<u64> = [NmRatio::D4_4, NmRatio::S2_4, NmRatio::S1_4]
            .into_iter()
            .map(|ratio| {
                session
                    .run(&Cell::layer(&layer, Fidelity::from_factor(quick), ratio))
                    .cycles
            })
            .collect();
        println!(
            "{:<16} {:>9.3} {:>9.3} {:>7.2} {:>12} {:>12} {:>12}",
            session.engine().name(),
            area,
            power,
            freq,
            cycles[0],
            cycles[1],
            cycles[2]
        );
    }
    println!(
        "\n(trace cache: {} kernels built for {} engine runs)",
        cache.misses(),
        cache.misses() + cache.hits()
    );
    println!(
        "reading the table: dense engines cannot exploit sparsity (columns equal);\n\
         VEGETA-S engines halve/quarter runtime at 2:4/1:4 for ~1-6% area over RASA-SM,\n\
         and larger broadcast factors (alpha) trade frequency for area."
    );
}

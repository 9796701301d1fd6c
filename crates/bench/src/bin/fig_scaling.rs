//! Multi-core scaling of the §VI engine classes (the scale-out experiment
//! VEGETA's single-core evaluation implies).
//!
//! Default mode: shards the pinned perf-gate layer set (one Table IV layer
//! per source network) at 2:4 weights across 1–32 matrix-engine cores —
//! one engine per §VI engine class — through the pooled `Sweep` over the
//! `MultiCoreSim` pipeline, prints the strong-scaling table, and writes
//! `BENCH_scaling.json` (per-engine geomean speedups vs 1 core plus every
//! cell) for the CI artifact upload. Host timing of the sharded path lives
//! in the repository benchmark (`perfbench`'s `multicore_scaling`).
//! Honours `VEGETA_QUICK` like every other figure binary.
//!
//! `--full-scale` (the scheduled full-scale workflow): replays one
//! full-fidelity Table IV layer sharded across 8 cores per engine class —
//! the network-scale exercise of the sharded streaming path.

use vegeta::prelude::*;
use vegeta_bench::perf_gate::{perf_gate_engines, pinned_layers};
use vegeta_bench::scaling::{
    run_scaling_sweep, scaling_core_counts, scaling_report, write_scaling_json,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--full-scale") => full_scale(),
        None => gate_mode(),
        Some(unknown) => {
            eprintln!("fig_scaling: unknown argument '{unknown}' (expected --full-scale)");
            std::process::exit(2);
        }
    }
}

fn gate_mode() {
    let fidelity = Fidelity::from_env();
    println!("## Multi-core scaling: pinned layers x engine classes x {fidelity} fidelity");
    let report = run_scaling_sweep(fidelity);

    println!(
        "{:<14} {:<22} {:>6} {:>12} {:>9} {:>11} {:>12}",
        "layer", "engine", "cores", "cycles", "speedup", "efficiency", "L2 shared"
    );
    for workload in report.workloads() {
        for engine in report.engines() {
            let base = report
                .get_cores(workload, engine, "2:4", 1)
                .expect("1-core baseline cell");
            for &cores in &report.cores_values() {
                let cell = report
                    .get_cores(workload, engine, "2:4", cores)
                    .expect("cell computed");
                println!(
                    "{:<14} {:<22} {:>6} {:>12} {:>8.2}x {:>11.3} {:>12}",
                    cell.workload,
                    cell.engine,
                    cell.cores,
                    cell.cycles,
                    base.cycles as f64 / cell.cycles as f64,
                    cell.scaling_efficiency,
                    cell.shared_l2.shared_hits
                );
            }
        }
    }
    println!();
    for engine in report.engines() {
        for &cores in &scaling_core_counts()[1..] {
            if let Some(g) = report.geomean_core_scaling(engine, "2:4", cores) {
                println!("geomean speedup of {engine} at {cores} cores vs 1: {g:.2}x");
            }
        }
    }
    report.save_csv("fig_scaling");
    write_scaling_json(&scaling_report("gate", &report));
}

fn full_scale() {
    // One full-fidelity layer sharded across 8 cores per engine class: the
    // smallest pinned layer keeps the scheduled job's runtime bounded while
    // still replaying hundreds of thousands of sharded instructions.
    let layer = pinned_layers()
        .into_iter()
        .find(|l| l.name == "ResNet50-L6")
        .expect("pinned set includes ResNet50-L6");
    const CORES: usize = 8;
    println!(
        "## fig_scaling --full-scale: {} sharded across {CORES} cores",
        layer.name
    );
    let sweep = Sweep::new()
        .with_engines(perf_gate_engines())
        .with_layer(layer)
        .with_sparsity(NmRatio::S2_4)
        .with_fidelity(Fidelity::Full)
        .with_cores([1, CORES])
        .run();
    println!(
        "{:<22} {:>6} {:>14} {:>12} {:>9} {:>11}",
        "engine", "cores", "cycles", "insts", "speedup", "efficiency"
    );
    for engine in sweep.engines() {
        let one = sweep
            .get_cores(layer.name, engine, "2:4", 1)
            .expect("1-core cell");
        for &cores in &[1usize, CORES] {
            let cell = sweep
                .get_cores(layer.name, engine, "2:4", cores)
                .expect("cell computed");
            println!(
                "{:<22} {:>6} {:>14} {:>12} {:>8.2}x {:>11.3}",
                cell.engine,
                cell.cores,
                cell.cycles,
                cell.instructions,
                one.cycles as f64 / cell.cycles as f64,
                cell.scaling_efficiency
            );
        }
    }
    write_scaling_json(&scaling_report("full-scale", &sweep));
}

//! Multi-core scaling quickstart: shard one GEMM across matrix-engine
//! cores.
//!
//! Three steps: (1) run one Table IV layer sharded across 1–16 cores with
//! `Session::run` on a `Cell` with `cores(n)` and read the makespan,
//! per-core cycles, parallel efficiency and shared-L2 reuse off the report
//! (2D shard plans with LPT packing — no stranded cores); (2) make core
//! count a sweep axis with `Sweep::with_cores` and pull the
//! strong-scaling geomeans; (3) drop to `vegeta_sim::MultiCoreSim`
//! directly with `KernelSpec::shard_set` to see the shard plan, the
//! makespan, the barrier and the shared-L2 split of one run.
//!
//! Run with: `cargo run --release --example scaling_sweep`
//! (`VEGETA_QUICK=1` shrinks the layers for a fast smoke run.)

use vegeta::isa::stream::InstStream;
use vegeta::prelude::*;

fn main() {
    let quick = if quick_factor() > 1 { 4 } else { 2 };
    let layer = table4()[7]; // BERT-L2: tall enough to shard 16 ways.

    // 1. One layer, one engine, more and more cores. A sharded cell runs
    //    a 2D/K-split shard plan, packed onto cores by exact stream length
    //    (longest processing time first).
    let session = Session::new(
        EngineConfig::vegeta_s(16)
            .expect("valid alpha")
            .with_output_forwarding(true),
    );
    println!(
        "{} at 2:4 on {} (1/{quick} scale), 2D-sharded + LPT-packed:",
        layer.name,
        session.engine().name()
    );
    println!(
        "{:>6} {:>12} {:>9} {:>11} {:>14} {:>9}",
        "cores", "cycles", "speedup", "efficiency", "L2 shared-hit", "stranded"
    );
    let cell = Cell::layer(&layer, Fidelity::Quick(quick), NmRatio::S2_4);
    let base = session.run(&cell.cores(1));
    for cores in [1usize, 2, 4, 8, 16] {
        let r = session.run(&cell.cores(cores));
        println!(
            "{:>6} {:>12} {:>8.2}x {:>11.3} {:>14} {:>9}",
            r.cores,
            r.cycles,
            base.cycles as f64 / r.cycles as f64,
            r.scaling_efficiency,
            r.shared_l2.shared_hits,
            r.stranded_cores()
        );
    }

    // 2. Core count as a grid axis: engines x cores in one sweep.
    let grid = Sweep::new()
        .with_engines([
            EngineConfig::rasa_dm(),
            EngineConfig::vegeta_s(16)
                .expect("valid alpha")
                .with_output_forwarding(true),
        ])
        .with_layer(layer)
        .with_sparsity(NmRatio::S2_4)
        .with_fidelity(Fidelity::Quick(quick))
        .with_cores([1, 4, 8])
        .run();
    println!(
        "\nsweep: {} cells on {} threads; strong-scaling geomeans vs 1 core:",
        grid.cells.len(),
        grid.threads
    );
    for engine in grid.engines() {
        for &cores in &grid.cores_values()[1..] {
            let g = grid
                .geomean_core_scaling(engine, "2:4", cores)
                .expect("complete grid");
            println!("  {engine:<36} {cores} cores: {g:.2}x");
        }
    }

    // 3. The raw harness: plan the shard set yourself and run it on a
    //    MultiCoreSim in the default configuration, the one a Session
    //    runs.
    let spec = KernelSpec::tiled(SparseMode::Nm2of4);
    let shape = layer.scaled_shape(quick);
    let plan = spec.shard_plan(shape, 4);
    let set = spec.shard_set(shape, 4);
    println!(
        "\nraw harness: plan {}x{}x{} -> {} shards of {} ops total",
        plan.m_splits,
        plan.n_splits,
        plan.k_splits,
        set.shards.len(),
        set.shards.iter().map(InstStream::remaining).sum::<u64>()
    );
    let mut sim = MultiCoreSim::new(
        MultiCoreConfig::new(4),
        EngineConfig::vegeta_s(16).expect("valid alpha"),
    );
    let res = sim.run_sharded(set.shards, set.reduction, SchedulerPolicy::Lpt);
    println!(
        "makespan {} cycles (barrier {}), shared L2: {} hits, {} of them shared",
        res.core_cycles, res.barrier_cycles, res.shared_l2.hits, res.shared_l2.shared_hits
    );
    assert_eq!(res.cores, 4);
    assert_eq!(res.stranded_cores(), 0);
}

//! End-to-end multi-core sharded simulation: the acceptance contract of
//! the scale-out refactor.
//!
//! * The 1-core sharded path is cycle-identical to the classic `CoreSim`
//!   replay (the property that makes this a refactor rather than a fork);
//! * cycles are monotone non-increasing from 1 → 8 cores on a dense
//!   Table IV layer (sharding may stop helping, but never hurts past the
//!   logarithmic barrier, which shrinking shards always amortize);
//! * shard replay is functionally invariant end to end through the session
//!   API (instructions, tile compute and aggregate cache traffic are
//!   redistributed, not changed);
//! * the cores axis composes with the fidelity and sparsity axes in one
//!   sweep.

use vegeta::prelude::*;

/// BERT-L2: the dense Table IV layer the scale-out tests shard. At 1/2
/// scale M = 256 (16 row tiles, 6 accumulator groups), so an 8-way shard
/// still splits every 4-way shard; the cheaper tests run at 1/4 scale.
fn tall_dense_layer() -> (Layer, Fidelity) {
    let layer = table4()
        .into_iter()
        .find(|l| l.name == "BERT-L2")
        .expect("Table IV has BERT-L2");
    (layer, Fidelity::Quick(4))
}

#[test]
fn one_core_shard_is_cycle_identical_to_coresim() {
    let (layer, fidelity) = tall_dense_layer();
    for engine in [
        EngineConfig::rasa_dm(),
        EngineConfig::vegeta_s(16)
            .unwrap()
            .with_output_forwarding(true),
    ] {
        let session = Session::new(engine.clone());
        let classic = session.run(&Cell::layer(&layer, fidelity, NmRatio::D4_4));
        let sharded = session.run(&Cell::layer(&layer, fidelity, NmRatio::D4_4).cores(1));
        assert_eq!(
            sharded.cycles,
            classic.cycles,
            "{}: 1-core shard must be cycle-identical",
            engine.name()
        );
        assert_eq!(sharded.instructions, classic.instructions);
        assert_eq!(sharded.tile_compute, classic.tile_compute);
        assert_eq!(sharded.per_core_cycles, vec![classic.cycles]);
    }
}

#[test]
fn dense_layer_cycles_are_monotone_from_1_to_8_cores() {
    // 1/2 scale so 8 shards still split every 4-core shard (6 accumulator
    // groups) and the log-barrier stays amortized.
    let (layer, _) = tall_dense_layer();
    let fidelity = Fidelity::Quick(2);
    let session = Session::new(EngineConfig::rasa_dm());
    let mut cycles = Vec::new();
    for cores in [1usize, 2, 4, 8] {
        let report = session.run(&Cell::layer(&layer, fidelity, NmRatio::D4_4).cores(cores));
        assert_eq!(report.cores, cores);
        assert_eq!(report.per_core_cycles.len(), cores);
        let slowest = *report.per_core_cycles.iter().max().unwrap();
        assert!(
            report.cycles >= slowest,
            "makespan {} covers the slowest core {slowest} plus the barrier",
            report.cycles
        );
        cycles.push(report.cycles);
    }
    for w in cycles.windows(2) {
        assert!(
            w[1] <= w[0],
            "cycles must be monotone non-increasing 1→8: {cycles:?}"
        );
    }
    assert!(
        (cycles[0] as f64) > cycles[3] as f64 * 2.5,
        "8 cores must be well over 2.5x faster than 1 on a tall layer: {cycles:?}"
    );
}

#[test]
fn sharded_replay_is_functionally_invariant() {
    // Same dynamic work whatever the core count: total instructions, tile
    // compute, and aggregate L1 accesses (l1 + l2 hits = line touches) are
    // redistributed, never changed.
    let (layer, fidelity) = tall_dense_layer();
    let shape = fidelity.shape_of(&layer);
    let session = Session::new(EngineConfig::vegeta_s(4).unwrap());
    let single = session.run(&Cell::layer(&layer, fidelity, NmRatio::S2_4).cores(1));
    for cores in [2usize, 3, 8] {
        let multi = session.run(&Cell::layer(&layer, fidelity, NmRatio::S2_4).cores(cores));
        assert_eq!(multi.instructions, single.instructions, "{cores} cores");
        assert_eq!(multi.tile_compute, single.tile_compute, "{cores} cores");
        assert_eq!(multi.shape, shape);
        assert_eq!(
            multi.insts_streamed, single.insts_streamed,
            "every shard streams"
        );
    }
}

#[test]
fn shared_l2_sees_cross_core_reuse_on_shared_b_tiles() {
    let (layer, fidelity) = tall_dense_layer();
    let session = Session::new(EngineConfig::rasa_dm());
    let report = session.run(&Cell::layer(&layer, fidelity, NmRatio::D4_4).cores(4));
    // Every shard reads the same B tiles: three of the four cores re-touch
    // lines the first toucher brought in.
    assert!(
        report.shared_l2.shared_hits > 0,
        "sharded GEMMs share B traffic: {:?}",
        report.shared_l2
    );
    assert_eq!(report.shared_l2.misses, 0, "prefetched L2 never misses");
    assert!(report.scaling_efficiency > 0.5 && report.scaling_efficiency <= 1.0);
    assert!(
        report.utilization() <= 1.0,
        "utilization stays a per-core mean fraction: {}",
        report.utilization()
    );
}

#[test]
fn cores_axis_composes_with_sparsity_in_one_sweep() {
    let (layer, _) = tall_dense_layer();
    let report = Sweep::new()
        .with_engine(EngineConfig::vegeta_s(16).unwrap())
        .with_layer(layer)
        .with_sparsities([NmRatio::D4_4, NmRatio::S2_4])
        .with_fidelity(Fidelity::Quick(4))
        .with_cores([1, 4])
        .with_threads(2)
        .run();
    assert_eq!(report.cells.len(), 4);
    // Sparse execution stays faster than dense at every core count.
    for cores in [1usize, 4] {
        let dense = report
            .get_cores("BERT-L2", "VEGETA-S-16-2", "4:4", cores)
            .unwrap();
        let sparse = report
            .get_cores("BERT-L2", "VEGETA-S-16-2", "2:4", cores)
            .unwrap();
        assert!(
            sparse.cycles < dense.cycles,
            "2:4 beats dense at {cores} cores"
        );
    }
    // And sharding helps both sparsities.
    for sparsity in ["4:4", "2:4"] {
        let scaling = report
            .geomean_core_scaling("VEGETA-S-16-2", sparsity, 4)
            .unwrap();
        assert!(scaling > 1.2, "{sparsity}: {scaling}");
    }
}

#[test]
fn sharded_streams_replay_in_bounded_memory() {
    // The scale-out path must keep the streaming guarantee: per-core peak
    // residency is one chunk per shard, far below the materialized trace.
    let (layer, _) = tall_dense_layer();
    let session = Session::new(EngineConfig::rasa_dm());
    let report = session.run(&Cell::layer(&layer, Fidelity::Quick(2), NmRatio::D4_4).cores(8));
    let trace_bytes = report.instructions * vegeta::isa::TRACE_OP_BYTES as u64;
    assert!(
        report.peak_resident_bytes < trace_bytes / 4,
        "8 shards resident {} vs materialized {}",
        report.peak_resident_bytes,
        trace_bytes
    );
}

//! Cycle-identity of the multi-core path at the driver level: the grid of
//! kernel families × §VI engine classes × core counts must report the same
//! numbers whether each core runs on its own (`run_sharded`) or every core
//! is interleaved by the stepped reference scan (`run_sharded_stepped`) —
//! and the 1-core sharded path must stay identical to the classic
//! single-core [`CoreSim`] replay.
//!
//! Reported cycles are computed by the per-instruction timing algebra, so
//! the order cores are advanced in must not move a single one.

use vegeta::prelude::*;

fn families(shape: GemmShape) -> Vec<KernelSpec> {
    vec![
        KernelSpec::Tiled {
            mode: SparseMode::Dense,
            opts: KernelOptions::default(),
        },
        KernelSpec::Tiled {
            mode: SparseMode::Nm2of4,
            opts: KernelOptions::default(),
        },
        KernelSpec::Listing1 {
            mode: SparseMode::Nm1of4,
        },
        KernelSpec::RowWise {
            row_ratios: (0..shape.m.div_ceil(4))
                .map(|r| {
                    if r % 2 == 0 {
                        NmRatio::S2_4
                    } else {
                        NmRatio::D4_4
                    }
                })
                .collect(),
        },
        KernelSpec::Vector,
    ]
}

fn engine_classes() -> Vec<EngineConfig> {
    vec![
        EngineConfig::rasa_dm(),
        EngineConfig::stc_like(),
        EngineConfig::vegeta_s(16)
            .expect("valid alpha")
            .with_output_forwarding(true),
    ]
}

#[test]
fn event_merge_is_cycle_identical_across_the_kernel_engine_core_grid() {
    // Ragged on every axis so remainder tiles and uneven accumulator
    // groups are in play.
    let shape = GemmShape::new(93, 67, 197);
    for spec in families(shape) {
        for engine in engine_classes() {
            for cores in [1usize, 2, 4, 8] {
                let run = |stepped: bool| {
                    let set = spec.shard_set(shape, cores);
                    let mut sim = MultiCoreSim::new(MultiCoreConfig::new(cores), engine.clone());
                    if stepped {
                        sim.run_sharded_stepped(set.shards, set.reduction, SchedulerPolicy::Lpt)
                    } else {
                        sim.run_sharded(set.shards, set.reduction, SchedulerPolicy::Lpt)
                    }
                };
                let per_core = run(false);
                let stepped = run(true);
                assert_eq!(
                    per_core,
                    stepped,
                    "{}/{} @ {cores} cores",
                    spec.name(),
                    engine.name()
                );
            }
        }
    }
}

#[test]
fn one_core_sharded_replay_matches_the_classic_core_sim() {
    let shape = GemmShape::new(93, 67, 197);
    for spec in families(shape) {
        for engine in engine_classes() {
            let set = spec.shard_set(shape, 1);
            assert!(set.reduction.is_none(), "1 core never K-splits");
            let mut mc = MultiCoreSim::new(MultiCoreConfig::new(1), engine.clone());
            let sharded = mc.run_sharded(set.shards, None, SchedulerPolicy::Lpt);

            let mut core = CoreSim::new(SimConfig::default(), engine.clone());
            let single = core.run_stream(spec.stream(shape));

            assert_eq!(sharded.barrier_cycles, 0, "single core pays no barrier");
            assert_eq!(
                sharded.core_cycles,
                single.core_cycles,
                "{}/{}",
                spec.name(),
                engine.name()
            );
            assert_eq!(sharded.per_core.len(), 1);
            // Every timing and cache counter matches exactly. Only the
            // byte-accounting of generator state may differ: the shard
            // stream wraps the kernel emitter in a ShardEmitter/GridSlice,
            // whose own state_bytes is a few words larger.
            let mut shard_core = sharded.per_core[0].clone();
            assert!(shard_core.peak_resident_bytes > 0);
            shard_core.peak_resident_bytes = single.peak_resident_bytes;
            assert_eq!(shard_core, single, "{}/{}", spec.name(), engine.name());
        }
    }
}

//! Cycle-identity of the multi-core path at the driver level: the grid of
//! kernel families × §VI engine classes × core counts must report the same
//! numbers whether each core runs on its own (`run_sharded`) or every core
//! is interleaved by the stepped reference scan (`run_sharded_stepped`) —
//! and the 1-core paths must stay identical to the classic single-core
//! [`CoreSim`] replay: the unsharded one-lane run field for field, fresh
//! and through an L1 memo, and the 1-core shard set in every timing and
//! cache counter.
//!
//! Reported cycles are computed by the per-instruction timing algebra, so
//! the order cores are advanced in must not move a single one.

use vegeta::prelude::*;
use vegeta::sim::L1Memo;

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
        let memo = L1Memo::new();
        for engine in engine_classes() {
            let what = format!("{}/{}", spec.name(), engine.name());
            let one_core = || MultiCoreSim::new(MultiCoreConfig::new(1), engine.clone());
            let set = spec.shard_set(shape, 1);
            assert!(set.reduction.is_none(), "1 core never K-splits");
            let sharded = one_core().run_sharded(set.shards, None, SchedulerPolicy::Lpt);

            let mut core = CoreSim::new(SimConfig::default(), engine.clone());
            let single = core.run_stream(spec.stream(shape));

            // The unsharded cell's path, the kernel's own stream as the one
            // lane, is the classic run field for field, `peak_resident_bytes`
            // included, fresh and through a memo (recording, then replaying).
            let stream = || vec![spec.stream(shape)];
            let fresh = one_core().run_sharded(stream(), None, SchedulerPolicy::Lpt);
            let memoized = one_core().run_sharded_memoized(stream(), None, &memo);
            for res in [fresh, memoized.expect("a fresh simulator")] {
                assert_eq!(res.per_core, std::slice::from_ref(&single), "{what}");
                assert_eq!(res.core_cycles, single.core_cycles, "{what}");
                assert_eq!(res.shared_l2.accesses, single.cache.l2_hits, "{what}");
            }

            assert_eq!(sharded.barrier_cycles, 0, "single core pays no barrier");
            assert_eq!(sharded.core_cycles, single.core_cycles, "{what}");
            assert_eq!(sharded.per_core.len(), 1);
            // Every timing and cache counter matches exactly. Only the
            // byte-accounting of generator state may differ: the shard
            // stream wraps the kernel emitter in a ShardEmitter/GridSlice,
            // whose own state_bytes is a few words larger.
            let mut shard_core = sharded.per_core[0].clone();
            assert!(shard_core.peak_resident_bytes > 0);
            shard_core.peak_resident_bytes = single.peak_resident_bytes;
            assert_eq!(shard_core, single, "{what}");
        }
        assert_eq!(memo.recordings(), 1, "{}: one recording", spec.name());
    }
}

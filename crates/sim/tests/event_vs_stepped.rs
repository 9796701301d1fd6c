//! Differential pin for the production multi-core paths: replaying any
//! shard set through [`MultiCoreSim::run_sharded`] — per-core runs with
//! folded first-touch summaries under the prefetch assumption, the
//! event-queue merge loop on a cold L2 — must produce a
//! [`MultiCoreResult`] identical **down to the last field** to the
//! retained linear-scan reference ([`MultiCoreSim::run_sharded_stepped`])
//! — makespan, barrier and reduction cycles, every per-core `SimResult`
//! (cycles, cache stats, peak resident bytes), and the shared-L2 counters.
//!
//! Timestamps in this simulator are *computed*, never counted, so the
//! loop only decides the order cores are advanced in; these tests are the
//! proof that the order genuinely cannot leak into any reported number,
//! across ragged shapes, every kernel family, both scheduler policies, and
//! both the prefetched and the cold-L2 path.

use proptest::prelude::*;
use vegeta_engine::EngineConfig;
use vegeta_kernels::{GemmShape, KernelOptions, KernelSpec, SparseMode};
use vegeta_sim::{MultiCoreConfig, MultiCoreSim, SchedulerPolicy, SimConfig};
use vegeta_sparse::NmRatio;

/// The kernel family under test, expanded to a [`KernelSpec`] per shape
/// (the row-wise family needs a per-row cover list sized to the shape).
#[derive(Debug, Clone, Copy)]
enum Family {
    TiledDense,
    Tiled2of4,
    Tiled1of4,
    Listing1,
    RowWise,
    Vector,
}

impl Family {
    fn spec(self, shape: GemmShape) -> KernelSpec {
        match self {
            Family::TiledDense => KernelSpec::Tiled {
                mode: SparseMode::Dense,
                opts: KernelOptions::default(),
            },
            Family::Tiled2of4 => KernelSpec::Tiled {
                mode: SparseMode::Nm2of4,
                opts: KernelOptions::default(),
            },
            Family::Tiled1of4 => KernelSpec::Tiled {
                mode: SparseMode::Nm1of4,
                opts: KernelOptions::default(),
            },
            Family::Listing1 => KernelSpec::Listing1 {
                mode: SparseMode::Nm2of4,
            },
            Family::RowWise => KernelSpec::RowWise {
                row_ratios: (0..shape.m.div_ceil(4))
                    .map(|r| match r % 3 {
                        0 => NmRatio::S1_4,
                        1 => NmRatio::S2_4,
                        _ => NmRatio::D4_4,
                    })
                    .collect(),
            },
            Family::Vector => KernelSpec::Vector,
        }
    }
}

fn family() -> impl Strategy<Value = Family> {
    prop_oneof![
        Just(Family::TiledDense),
        Just(Family::Tiled2of4),
        Just(Family::Tiled1of4),
        Just(Family::Listing1),
        Just(Family::RowWise),
        Just(Family::Vector),
    ]
}

fn policy() -> impl Strategy<Value = SchedulerPolicy> {
    prop_oneof![Just(SchedulerPolicy::Static), Just(SchedulerPolicy::Lpt)]
}

/// Cuts `spec` at `shape` into the shard streams `policy` runs (the same
/// selection `Session` and `vegeta-serve` make).
fn shards_for(
    spec: &KernelSpec,
    shape: GemmShape,
    cores: usize,
    policy: SchedulerPolicy,
) -> (
    Vec<vegeta_kernels::ShardStream>,
    Option<vegeta_kernels::ShardStream>,
) {
    match policy {
        SchedulerPolicy::Static => (spec.shard_streams(shape, cores), None),
        SchedulerPolicy::Lpt => {
            let set = spec.shard_set(shape, cores);
            (set.shards, set.reduction)
        }
    }
}

proptest! {
    /// Production == stepped over ragged shapes × kernel families × both
    /// policies × core counts × cold/prefetched L2, with the full result
    /// structure compared at once.
    #[test]
    fn event_driven_replay_is_field_identical_to_the_stepped_scan(
        m in 4usize..=90,
        n in 4usize..=70,
        k in 8usize..=200,
        fam in family(),
        cores in 1usize..=5,
        pol in policy(),
        prefetched in any::<bool>(),
    ) {
        let shape = GemmShape::new(m, n, k);
        let spec = fam.spec(shape);
        let mut cfg = MultiCoreConfig::with_core(SimConfig::default(), cores);
        cfg.prefetched = prefetched;
        let engine = EngineConfig::vegeta_s(16).unwrap().with_output_forwarding(true);

        let (shards, reduction) = shards_for(&spec, shape, cores, pol);
        let event = MultiCoreSim::new(cfg.clone(), engine.clone())
            .run_sharded(shards, reduction, pol);

        let (shards, reduction) = shards_for(&spec, shape, cores, pol);
        let stepped = MultiCoreSim::new(cfg, engine)
            .run_sharded_stepped(shards, reduction, pol);

        // One structural assert covers every field: makespan, barrier and
        // reduction cycles, per-core SimResults (instructions, cache
        // hits/misses, engine-busy cycles, peak resident bytes), and the
        // shared-L2 stats. MultiCoreResult derives PartialEq.
        prop_assert_eq!(event, stepped);
    }
}

/// The production paths also agree with the scan across engine classes (issue widths and
/// latencies shift every timestamp, so this catches an ordering
/// assumption that only holds for one engine's timing).
#[test]
fn merge_loops_agree_across_engine_classes() {
    let shape = GemmShape::new(96, 64, 256);
    let engines = [
        EngineConfig::rasa_dm(),
        EngineConfig::stc_like(),
        EngineConfig::vegeta_s(16)
            .unwrap()
            .with_output_forwarding(true),
    ];
    let spec = KernelSpec::Tiled {
        mode: SparseMode::Nm2of4,
        opts: KernelOptions::default(),
    };
    for engine in engines {
        for cores in [2usize, 3, 8] {
            let cfg = MultiCoreConfig::new(cores);
            let (shards, reduction) = shards_for(&spec, shape, cores, SchedulerPolicy::Lpt);
            let event = MultiCoreSim::new(cfg.clone(), engine.clone()).run_sharded(
                shards,
                reduction,
                SchedulerPolicy::Lpt,
            );
            let (shards, reduction) = shards_for(&spec, shape, cores, SchedulerPolicy::Lpt);
            let stepped = MultiCoreSim::new(cfg, engine.clone()).run_sharded_stepped(
                shards,
                reduction,
                SchedulerPolicy::Lpt,
            );
            assert_eq!(event, stepped, "{} @ {cores} cores", engine.name());
        }
    }
}

//! Shared-L2 attribution pinned end to end. `shared_hits` never feeds
//! timing, so a cycle check cannot catch a wrong fold: this test pins
//! [`SharedL2Stats`] and the cores' merged [`CacheStats`] at full size and
//! 2:4 for every perf-gate engine on 8, 16 and 32 cores, through the
//! per-core path with its summary folds (on one and on two host threads)
//! and through the stepped reference scan.
//!
//! Two layers: ResNet50-L1, and ResNet50-L3, whose `shared_hits` also
//! depend on *which* core owns each line. On ResNet50-L1 every core that
//! claims a line touches it equally often, so a fold that kept the wrong
//! claimant would still count the same shared hits there.
//!
//! Neither full-size cell splits K on those core counts, so one
//! quick-fidelity K-split cell is pinned as well: its reduction replays
//! on core 0 against the folded L2, after 16 cores' summaries.

use vegeta::prelude::*;
use vegeta::sim::CacheStats;
use vegeta_bench::perf_gate::perf_gate_engines;

/// Per layer, per perf-gate engine in `perf_gate_engines()` order, one
/// row per core count: `[cores, accesses, shared_hits, l1_hits, l2_hits,
/// bytes_read, bytes_written]`. Every L2 access hits, so `hits` equals
/// `accesses` and `misses` is 0.
const PINNED: [(&str, [[[u64; 7]; 3]; 3]); 2] = [
    (
        "ResNet50-L1",
        [
            // RASA-DM
            [
                [8, 64768, 26624, 98304, 64768, 9633792, 802816],
                [16, 68864, 30720, 94208, 68864, 9633792, 802816],
                [32, 77056, 38912, 86016, 77056, 9633792, 802816],
            ],
            // STC-like
            [
                [8, 63872, 25952, 55296, 63872, 6823936, 802816],
                [16, 66176, 28256, 52992, 66176, 6823936, 802816],
                [32, 70784, 32864, 48384, 70784, 6823936, 802816],
            ],
            // VEGETA-S-16-2+OF
            [
                [8, 63872, 25952, 55296, 63872, 6823936, 802816],
                [16, 66176, 28256, 52992, 66176, 6823936, 802816],
                [32, 70784, 32864, 48384, 70784, 6823936, 802816],
            ],
        ],
    ),
    (
        "ResNet50-L3",
        [
            // RASA-DM
            [
                [8, 89344, 26112, 98816, 89344, 8830976, 3211264],
                [16, 90560, 33600, 97600, 90560, 8830976, 3211264],
                [32, 93248, 35232, 94912, 93248, 8830976, 3211264],
            ],
            // STC-like
            [
                [8, 88672, 25664, 55584, 88672, 6021120, 3211264],
                [16, 89356, 32620, 54900, 89356, 6021120, 3211264],
                [32, 90868, 33108, 53388, 90868, 6021120, 3211264],
            ],
            // VEGETA-S-16-2+OF
            [
                [8, 88672, 25664, 55584, 88672, 6021120, 3211264],
                [16, 89356, 32620, 54900, 89356, 6021120, 3211264],
                [32, 90868, 33108, 53388, 90868, 6021120, 3211264],
            ],
        ],
    ),
];

/// GPT-L3 at `Fidelity::Quick(4)` (64x64x3072) on 16 cores, a shard set
/// with a K-split reduction: one row per perf-gate engine, as in
/// [`PINNED`].
const K_SPLIT: (&str, usize, [[u64; 7]; 3]) = (
    "GPT-L3",
    4,
    [
        // RASA-DM
        [16, 38112, 25056, 32, 38112, 2392064, 49152],
        // STC-like
        [16, 27360, 16992, 32, 27360, 1703936, 49152],
        // VEGETA-S-16-2+OF
        [16, 27360, 16992, 32, 27360, 1703936, 49152],
    ],
);

#[test]
fn quick_k_split_shared_l2_attribution_is_pinned() {
    let (name, factor, rows) = K_SPLIT;
    let layer = table4()
        .into_iter()
        .find(|l| l.name == name)
        .expect("a Table IV layer");
    let shape = Fidelity::Quick(factor).shape_of(&layer);
    for (engine, row) in perf_gate_engines().iter().zip(rows) {
        let spec = engine.kernel_spec(NmRatio::S2_4, KernelOptions::default());
        assert!(
            spec.shard_set(shape, row[0] as usize).reduction.is_some(),
            "{name} on {} splits K",
            engine.name()
        );
        check(&layer, shape, engine, row);
    }
}

#[test]
fn resnet50_shared_l2_attribution_is_pinned() {
    for (layer, per_engine) in PINNED {
        let layer = table4()
            .into_iter()
            .find(|l| l.name == layer)
            .expect("a Table IV layer");
        let shape = Fidelity::Full.shape_of(&layer);
        for (engine, rows) in perf_gate_engines().iter().zip(per_engine) {
            for row in rows {
                check(&layer, shape, engine, row);
            }
        }
    }
}

/// Runs `engine` on `layer` at `shape` and `row`'s core count through
/// every multi-core path, checking each against `row`.
fn check(layer: &Layer, shape: GemmShape, engine: &EngineConfig, row: [u64; 7]) {
    let [cores, accesses, shared_hits, l1_hits, l2_hits, bytes_read, bytes_written] = row;
    let cores = cores as usize;
    let spec = engine.kernel_spec(NmRatio::S2_4, KernelOptions::default());
    for (path, exec) in [
        ("sequential", ExecMode::Sequential),
        ("two host threads", ExecMode::ParallelHost(2)),
        ("stepped", ExecMode::Sequential),
    ] {
        let mut sim =
            MultiCoreSim::new(MultiCoreConfig::new(cores).with_exec(exec), engine.clone());
        let set = spec.shard_set(shape, cores);
        let res = if path == "stepped" {
            sim.run_sharded_stepped(set.shards, set.reduction, SchedulerPolicy::Lpt)
        } else {
            sim.run_sharded(set.shards, set.reduction, SchedulerPolicy::Lpt)
        };
        let mut cache = CacheStats::default();
        for core in &res.per_core {
            cache += core.cache;
        }
        let cell = format!("{} on {}, {cores} cores, {path}", layer.name, engine.name());
        assert_eq!(
            res.shared_l2,
            SharedL2Stats {
                accesses,
                hits: accesses,
                misses: 0,
                shared_hits,
            },
            "{cell}"
        );
        assert_eq!(
            cache,
            CacheStats {
                l1_hits,
                l2_hits,
                bytes_read,
                bytes_written,
            },
            "{cell}"
        );
    }
}

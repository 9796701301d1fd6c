//! Ties the static verifier's length accounting to the simulator: the op
//! counts `vegeta-lint` recomputes (and LPT scheduling trusts for load
//! balancing) must equal what [`MultiCoreSim`] actually consumes when the
//! same shard set replays.

use vegeta_isa::stream::InstStream;
use vegeta_kernels::{GemmShape, KernelEmitter, KernelOptions, KernelSpec, ShardPlan, SparseMode};
use vegeta_sim::{MultiCoreConfig, MultiCoreSim, SchedulerPolicy, SimConfig};

fn specs() -> Vec<KernelSpec> {
    vec![
        KernelSpec::Tiled {
            mode: SparseMode::Dense,
            opts: KernelOptions::default(),
        },
        KernelSpec::Tiled {
            mode: SparseMode::Nm2of4,
            opts: KernelOptions::default(),
        },
        KernelSpec::Tiled {
            mode: SparseMode::Nm1of4,
            opts: KernelOptions::default(),
        },
    ]
}

/// The ops the verifier walks and declares clean are exactly the dynamic
/// instructions the multi-core simulator retires for the same shard set —
/// including the K-split reduction replay.
#[test]
fn verifier_op_counts_match_simulated_instructions() {
    let shape = GemmShape::new(96, 64, 256);
    for spec in specs() {
        for (cores, plan) in [
            (2, ShardPlan::new(2, 1, 1)),
            (4, ShardPlan::new(2, 2, 1)),
            (4, ShardPlan::new(2, 1, 2)),
            (8, ShardPlan::new(2, 2, 2)),
        ] {
            let report = vegeta_lint::verify_shard_set_with(&spec, shape, plan);
            assert!(report.is_clean(), "{plan:?}: {report}");

            let set = KernelEmitter::for_spec(&spec, shape).shard_with(plan);
            let declared: u64 = set
                .shards
                .iter()
                .map(InstStream::remaining)
                .chain(set.reduction.iter().map(InstStream::remaining))
                .sum();
            assert_eq!(
                report.ops_checked, declared,
                "verifier walked a different stream than the set declares"
            );

            let mut sim = MultiCoreSim::new(
                MultiCoreConfig::with_core(SimConfig::default(), cores),
                vegeta_engine::EngineConfig::vegeta_s(16).unwrap(),
            );
            let res = sim.run_sharded(set.shards, set.reduction, SchedulerPolicy::Lpt);
            assert_eq!(
                res.instructions(),
                declared,
                "{plan:?}: simulator consumed a different op count than declared"
            );
        }
    }
}

//! Differential pin for the memoized sharded L1: a run of
//! [`MultiCoreSim::run_sharded_memoized`] must report the same
//! [`MultiCoreResult`] as a fresh [`MultiCoreSim::run_sharded`] and as the
//! stepped reference scan on the same engine, field for field, whether it
//! records the memo or replays it: makespan, barrier and reduction cycles,
//! every per-core `SimResult` with its cache counters, and the shared-L2
//! counters including the first-toucher `shared_hits`.
//!
//! Each memo is recorded by one engine and replayed by others, as a sweep
//! shares one memo across the engines that run a shard set: dense, 2:4
//! and 1:4 tiled kernels, M x N and K-split plans (with a reduction on
//! core 0), ragged shapes, the default L1 and a large one where most
//! re-touches hit, on one and two host threads. A memo refuses to replay
//! under another L1 configuration, core count or shard set.

use vegeta_engine::EngineConfig;
use vegeta_isa::stream::InstStream;
use vegeta_isa::trace::{Trace, TraceOp};
use vegeta_kernels::{
    GemmShape, Kernel, KernelEmitter, KernelOptions, KernelSpec, ShardPlan, ShardSet, SparseMode,
};
use vegeta_sim::{
    ExecMode, MultiCoreConfig, MultiCoreResult, MultiCoreSim, SchedulerPolicy, ShardL1Memo,
    SimConfig,
};

/// Records with the first engine, replays with the others.
fn engines() -> [EngineConfig; 3] {
    [
        EngineConfig::stc_like(),
        EngineConfig::vegeta_s(16)
            .expect("valid alpha")
            .with_output_forwarding(true),
        EngineConfig::rasa_dm(),
    ]
}

/// The default config with an L1 of `lines` lines.
fn l1_of(lines: usize) -> SimConfig {
    SimConfig {
        l1_lines: lines,
        ..SimConfig::default()
    }
}

fn tiled(mode: SparseMode) -> KernelSpec {
    KernelSpec::Tiled {
        mode,
        opts: KernelOptions::default(),
    }
}

/// A multi-core simulator of `cores` cores under `cfg` on `host` host
/// threads.
fn sim(cfg: &SimConfig, cores: usize, host: usize, engine: &EngineConfig) -> MultiCoreSim {
    let mc = MultiCoreConfig::with_core(cfg.clone(), cores).with_exec(ExecMode::ParallelHost(host));
    MultiCoreSim::new(mc, engine.clone())
}

/// Runs the shard set `set()` on `cores` cores through one memo, recording
/// it with the first of [`engines`] and replaying it with the others, at
/// one and two host threads. Every memoized run must equal the stepped
/// reference and a fresh `run_sharded` on its engine. Returns the
/// reference results in [`engines`] order.
fn assert_memo_exact<S: InstStream + Send>(
    what: &str,
    cfg: &SimConfig,
    cores: usize,
    set: impl Fn() -> (Vec<S>, Option<S>),
) -> Vec<MultiCoreResult> {
    let policy = SchedulerPolicy::Lpt;
    let stepped: Vec<MultiCoreResult> = engines()
        .iter()
        .map(|engine| {
            let (shards, reduction) = set();
            sim(cfg, cores, 1, engine).run_sharded_stepped(shards, reduction, policy)
        })
        .collect();
    for host in [1, 2] {
        let memo = ShardL1Memo::new();
        for (i, engine) in engines().iter().enumerate() {
            let context = format!(
                "{what} on {cores} cores, {} L1 lines, {host} host threads, {} ({})",
                cfg.l1_lines,
                engine.name(),
                if i == 0 { "recording" } else { "replaying" }
            );
            let (shards, reduction) = set();
            let memoized =
                sim(cfg, cores, host, engine).run_sharded_memoized(shards, reduction, &memo);
            assert_eq!(memoized, stepped[i], "{context}: memoized vs stepped");
            let (shards, reduction) = set();
            let fresh = sim(cfg, cores, host, engine).run_sharded(shards, reduction, policy);
            assert_eq!(memoized, fresh, "{context}: memoized vs fresh");
        }
        assert_eq!(memo.recordings(), 1, "{what}: one recording, then replays");
    }
    stepped
}

#[test]
fn memoized_shard_sets_match_fresh_runs_for_every_plan_and_engine() {
    let shapes = [GemmShape::new(93, 41, 197), GemmShape::new(64, 96, 256)];
    for cfg in [SimConfig::default(), l1_of(1 << 16)] {
        for mode in [SparseMode::Dense, SparseMode::Nm2of4, SparseMode::Nm1of4] {
            let spec = tiled(mode);
            for shape in shapes {
                // The planner's M x N set on 4 cores.
                let results = assert_memo_exact(
                    &format!("{} at {shape:?}, planned", spec.name()),
                    &cfg,
                    4,
                    || {
                        let ShardSet { shards, reduction } = spec.shard_set(shape, 4);
                        (shards, reduction)
                    },
                );
                assert!(results.iter().all(|r| r.reduction_cycles == 0));
                // A K-split set with its reduction, packed onto 3 cores.
                let results = assert_memo_exact(
                    &format!("{} at {shape:?}, 2 x 2 x 2 K-split", spec.name()),
                    &cfg,
                    3,
                    || {
                        let set = KernelEmitter::for_spec(&spec, shape)
                            .shard_with(ShardPlan::new(2, 2, 2));
                        (set.shards, set.reduction)
                    },
                );
                assert!(results.iter().all(|r| r.reduction_cycles > 0));
                if cfg.l1_lines == 1 << 16 {
                    assert!(
                        results.iter().all(|r| r.merged_cache().l1_hits > 0),
                        "a large L1 hits"
                    );
                }
            }
        }
    }
}

/// A trace of one vector load per line in `lines`, in order.
fn loads(lines: impl IntoIterator<Item = u64>) -> Trace {
    let mut t = Trace::new();
    for (i, line) in lines.into_iter().enumerate() {
        t.push(TraceOp::VecLoad {
            dst: (i % 16) as u8,
            addr: line * 64,
        });
    }
    t
}

#[test]
fn replayed_lanes_fold_long_summaries_and_the_reduction_like_fresh_ones() {
    // Each core sweeps twice over more lines than a first-touch summary
    // holds before it folds, in opposite directions, so the summaries fold
    // midway and first touchers flip between cores. Core 1's second
    // sweep stays within its 4096-line L1, so it hits throughout. The
    // reduction on core 0 re-reads lines both cores touched, some still
    // in core 0's L1.
    let lines = 20_000u64;
    let up = loads((0..lines).chain(0..lines));
    let down = loads((0..lines).rev().chain((0..4096).rev()));
    let reduction = loads((lines - 2048..lines).chain(0..1024));
    let results = assert_memo_exact("two long sweeps", &l1_of(4096), 2, || {
        (vec![up.stream(), down.stream()], Some(reduction.stream()))
    });
    for r in &results {
        assert!(r.shared_l2.shared_hits > lines, "both cores own lines");
        assert!(r.per_core[0].cache.l1_hits > 0 && r.reduction_cycles > 0);
        assert_eq!(r.per_core[1].cache.l1_hits, 4096);
    }
}

/// The panic message of `run`.
fn panic_message(run: impl FnOnce()) -> String {
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
        .expect_err("the replay must panic");
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(ToString::to_string))
        .expect("a panic message")
}

#[test]
fn a_shard_memo_refuses_another_config_core_count_or_shard_set() {
    let spec = tiled(SparseMode::Nm2of4);
    let shape = GemmShape::new(64, 64, 128);
    let engine = EngineConfig::rasa_dm();
    let cfg = SimConfig::default();
    let run = |cfg: &SimConfig, cores: usize, shape: GemmShape, memo: &ShardL1Memo| {
        let set = spec.shard_set(shape, 2);
        sim(cfg, cores, 1, &engine).run_sharded_memoized(set.shards, set.reduction, memo);
    };
    let memo = ShardL1Memo::new();
    run(&cfg, 2, shape, &memo);
    assert_eq!(
        panic_message(|| run(&l1_of(5), 2, shape, &memo)),
        "shard L1 memo recorded under (l1_lines 768, l1_latency 5, l2_latency 14) \
         cannot replay under (l1_lines 5, l1_latency 5, l2_latency 14)"
    );
    assert_eq!(
        panic_message(|| run(&cfg, 3, shape, &memo)),
        "shard L1 memo recorded on 2 cores cannot replay on 3"
    );
    let longer = GemmShape::new(64, 64, 256);
    let message = panic_message(|| run(&cfg, 2, longer, &memo));
    assert!(
        message.starts_with("shard L1 memo recorded ") && message.contains("on core 0"),
        "{message}"
    );
    assert_eq!(memo.recordings(), 1);

    let set = spec.shard_set(shape, 2);
    let mut warm = sim(&cfg, 2, 1, &engine);
    warm.run_sharded(set.shards, set.reduction, SchedulerPolicy::Lpt);
    let set = spec.shard_set(shape, 2);
    assert_eq!(
        panic_message(|| {
            warm.run_sharded_memoized(set.shards, set.reduction, &ShardL1Memo::new());
        }),
        "a memoized sharded run starts from fresh L1s, but this simulator has already run"
    );
}

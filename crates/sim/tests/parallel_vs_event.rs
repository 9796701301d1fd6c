//! Differential pin for the host-thread axis: running any shard set with
//! [`MultiCoreSim::run_sharded`] at any [`ExecMode`] — each core run on
//! its own against a private first-touch summary, the summaries folded
//! into the real shared L2 in whatever order the host threads finish —
//! must produce a [`MultiCoreResult`] identical **down to the last
//! field** to the retained linear-scan reference
//! ([`MultiCoreSim::run_sharded_stepped`]), which interleaves every core
//! on one thread: makespan, barrier and reduction cycles, every per-core
//! `SimResult` (cycles, cache stats, peak resident bytes), and the
//! shared-L2 counters including first-toucher `shared_hits`.
//!
//! The sweep includes `Auto`, which must never invent another timing.

use proptest::prelude::*;
use vegeta_engine::EngineConfig;
use vegeta_isa::trace::{Trace, TraceOp};
use vegeta_isa::{Inst, TReg, UReg};
use vegeta_kernels::{GemmShape, KernelOptions, KernelSpec, SparseMode};
use vegeta_sim::{
    ExecMode, MultiCoreConfig, MultiCoreResult, MultiCoreSim, SchedulerPolicy, SimConfig,
};
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

/// Replays `spec` at `shape` on `cfg`'s cores under `exec`, through the
/// production entry point.
fn production(
    spec: &KernelSpec,
    shape: GemmShape,
    cfg: &MultiCoreConfig,
    engine: &EngineConfig,
    pol: SchedulerPolicy,
    exec: ExecMode,
) -> MultiCoreResult {
    let (shards, reduction) = shards_for(spec, shape, cfg.cores, pol);
    MultiCoreSim::new(cfg.clone().with_exec(exec), engine.clone())
        .run_sharded(shards, reduction, pol)
}

/// The same replay through the stepped reference scan.
fn stepped(
    spec: &KernelSpec,
    shape: GemmShape,
    cfg: &MultiCoreConfig,
    engine: &EngineConfig,
    pol: SchedulerPolicy,
) -> MultiCoreResult {
    let (shards, reduction) = shards_for(spec, shape, cfg.cores, pol);
    MultiCoreSim::new(cfg.clone(), engine.clone()).run_sharded_stepped(shards, reduction, pol)
}

proptest! {
    /// ParallelHost == stepped scan over ragged shapes × kernel families ×
    /// both policies × 1/2/4/8 simulated cores × 1..4 host threads, with
    /// the full result structure compared at once.
    #[test]
    fn parallel_host_run_is_field_identical_to_the_stepped_scan(
        m in 4usize..=90,
        n in 4usize..=70,
        k in 8usize..=200,
        fam in family(),
        cores_pow in 0u32..=3,
        pol in policy(),
        host_threads in 1usize..=4,
    ) {
        let cores = 1usize << cores_pow; // 1, 2, 4, 8
        let shape = GemmShape::new(m, n, k);
        let spec = fam.spec(shape);
        let cfg = MultiCoreConfig::with_core(SimConfig::default(), cores);
        let engine = EngineConfig::vegeta_s(16).unwrap().with_output_forwarding(true);

        let parallel = production(
            &spec, shape, &cfg, &engine, pol, ExecMode::ParallelHost(host_threads),
        );
        // One structural assert covers every field: makespan, barrier and
        // reduction cycles, per-core SimResults (instructions, cache
        // hits/misses, engine-busy cycles, peak resident bytes), and the
        // shared-L2 stats. MultiCoreResult derives PartialEq.
        prop_assert_eq!(parallel, stepped(&spec, shape, &cfg, &engine, pol));
    }

    /// Auto never invents another timing: whatever the host's
    /// parallelism, its result equals the stepped reference.
    #[test]
    fn auto_mode_matches_sequential_including_fallback_cases(
        m in 8usize..=60,
        n in 8usize..=48,
        k in 16usize..=128,
        fam in family(),
        cores in 1usize..=5,
    ) {
        let shape = GemmShape::new(m, n, k);
        let spec = fam.spec(shape);
        let cfg = MultiCoreConfig::with_core(SimConfig::default(), cores);
        let engine = EngineConfig::vegeta_s(16).unwrap();
        let pol = SchedulerPolicy::Lpt;

        let auto = production(&spec, shape, &cfg, &engine, pol, ExecMode::Auto);
        prop_assert_eq!(auto, stepped(&spec, shape, &cfg, &engine, pol));
    }
}

/// The per-core runs also agree across engine classes (issue widths and
/// latencies shift every timestamp, so this catches a first-touch stamp
/// that only matches the interleave for one engine's timing).
#[test]
fn parallel_host_agrees_across_engine_classes() {
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
    let pol = SchedulerPolicy::Lpt;
    for engine in engines {
        for cores in [2usize, 3, 8] {
            let cfg = MultiCoreConfig::new(cores);
            let reference = stepped(&spec, shape, &cfg, &engine, pol);
            for host_threads in 1usize..=4 {
                let parallel = production(
                    &spec,
                    shape,
                    &cfg,
                    &engine,
                    pol,
                    ExecMode::ParallelHost(host_threads),
                );
                assert_eq!(
                    parallel,
                    reference,
                    "{} @ {cores} cores, {host_threads} host threads",
                    engine.name()
                );
            }
        }
    }
}

/// Runs hand-built `shards` (shard `i` on core `i`) plus an optional
/// reduction on `cores` cores at 1..=4 host threads, asserting each run
/// equals the stepped scan; returns the reference result.
fn trace_case(cores: usize, shards: &[Trace], reduction: Option<&Trace>) -> MultiCoreResult {
    let engine = EngineConfig::vegeta_s(16).unwrap();
    let run = |exec: Option<ExecMode>| {
        let cfg = MultiCoreConfig::new(cores);
        let streams = shards.iter().map(Trace::stream).collect();
        let reduction = reduction.map(Trace::stream);
        let policy = SchedulerPolicy::Static;
        match exec {
            Some(exec) => MultiCoreSim::new(cfg.with_exec(exec), engine.clone())
                .run_sharded(streams, reduction, policy),
            None => MultiCoreSim::new(cfg, engine.clone())
                .run_sharded_stepped(streams, reduction, policy),
        }
    };
    let reference = run(None);
    for host_threads in 1..=4 {
        let got = run(Some(ExecMode::ParallelHost(host_threads)));
        assert_eq!(got, reference, "{host_threads} host threads");
    }
    reference
}

/// A trace of one vector load per line in `lines`, in order.
fn loads(lines: impl IntoIterator<Item = u64>) -> Trace {
    let mut t = Trace::new();
    for line in lines {
        t.push(TraceOp::VecLoad {
            dst: 1,
            addr: line * 64,
        });
    }
    t
}

/// Line far from the ones the loads above sweep.
const L: u64 = 1 << 20;

/// Two cores stream disjoint halves; the post-barrier reduction on core 0
/// re-reads core 1's half, so its shared hits exist only if the fold left
/// core 1 owning those lines.
#[test]
fn reduction_reuses_lines_first_touched_by_other_cores() {
    let (a, b) = (loads(0..96), loads(L..L + 96));
    let main_only = trace_case(2, &[a.clone(), b.clone()], None);
    assert_eq!(main_only.shared_l2.shared_hits, 0, "disjoint halves");
    let with_reduction = trace_case(2, &[a, b.clone()], Some(&b));
    assert_eq!(with_reduction.shared_l2.shared_hits, 96);
}

/// Core 0 reaches line L on its second step, but only after a tile op has
/// pushed its clock far ahead; core 1 reaches L after a run of cheap
/// scalar ops, earlier in time though later in steps. Core 1 also re-reads
/// L once its L1 has lost it, so the owner decides the count: only core
/// 0's touch may be shared.
#[test]
fn first_touch_goes_to_the_earlier_wake_not_the_earlier_step() {
    let mut slow = Trace::new();
    slow.push_inst(Inst::TileSpmmU {
        acc: TReg::T0,
        a: TReg::T6,
        b: UReg::U2,
    });
    slow.extend(&loads([L]));
    let mut quick = Trace::new();
    for _ in 0..8 {
        quick.push(TraceOp::Scalar { dst: 0, src: 0 });
    }
    quick.extend(&loads([L].into_iter().chain(0..1000).chain([L])));
    assert_eq!(trace_case(2, &[slow, quick], None).shared_l2.shared_hits, 1);
}

/// Run 1: core 0 touches line L late, twice (its L1 loses L in between);
/// core 1 idles. Run 2: core 1, whose clock is still 0, touches L first
/// thing. L stays core 0's, as in one continued interleave, so only core
/// 1's touch is shared.
#[test]
fn a_second_run_keeps_the_first_runs_line_owners() {
    let late = loads((0..2000).chain([L]).chain(2000..4000).chain([L]));
    let engine = EngineConfig::rasa_dm();
    let mut production = MultiCoreSim::new(MultiCoreConfig::new(2), engine.clone());
    let mut stepped = MultiCoreSim::new(MultiCoreConfig::new(2), engine);
    let mut last = None;
    for shards in [[late, Trace::new()], [Trace::new(), loads([L])]] {
        let streams = || shards.iter().map(Trace::stream).collect();
        let want = stepped.run_sharded_stepped(streams(), None, SchedulerPolicy::Static);
        let got = production.run_sharded(streams(), None, SchedulerPolicy::Static);
        assert_eq!(got, want);
        last = Some(got);
    }
    assert_eq!(last.expect("two runs").shared_l2.shared_hits, 1);
}

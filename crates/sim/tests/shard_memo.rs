//! Differential pin for the memoized L1: a run of
//! [`MultiCoreSim::run_sharded_memoized`] must report the same
//! [`MultiCoreResult`] as a fresh [`MultiCoreSim::run_sharded`] and as the
//! stepped reference scan on the same engine, field for field, whether it
//! records the memo or replays it: makespan, barrier and reduction cycles,
//! every per-core `SimResult` with its cache counters, and the shared-L2
//! counters including the first-toucher `shared_hits`.
//!
//! Each memo is recorded by one engine and replayed by others, as a sweep
//! shares one memo across the engines that run a key. Sharded: dense, 2:4
//! and 1:4 tiled kernels, M x N and K-split plans (with a reduction on
//! core 0), ragged shapes, the default L1 and a large one where most
//! re-touches hit, on one and two host threads. Unsharded (one lane, the
//! kernel's own stream): every kernel family on every engine class, with
//! the default 768-line L1 (hits are rare), a 5-line one (nothing hits)
//! and a 65536-line one (every re-touch hits). Ops that partly hit, which
//! Fig. 13 never has, on one lane and on three. A memo refuses a simulator
//! that has run, and one recorded under another L1 configuration, core
//! count or lane.

use vegeta_engine::EngineConfig;
use vegeta_isa::stream::InstStream;
use vegeta_isa::trace::{Trace, TraceOp};
use vegeta_isa::{Inst, TReg, UReg};
use vegeta_kernels::{
    GemmShape, KernelEmitter, KernelOptions, KernelSpec, ShardPlan, ShardSet, SparseMode,
};
use vegeta_sim::{
    CoreSim, ExecMode, L1Memo, MultiCoreConfig, MultiCoreResult, MultiCoreSim, SchedulerPolicy,
    SimConfig,
};
use vegeta_sparse::NmRatio;

/// STC-like, VEGETA-S, RASA-DM/SM and VEGETA-D. A sharded memo is
/// recorded on the first and replayed on the next two.
fn engine_classes() -> Vec<EngineConfig> {
    vec![
        EngineConfig::stc_like(),
        EngineConfig::vegeta_s(16)
            .expect("valid alpha")
            .with_output_forwarding(true),
        EngineConfig::rasa_dm(),
        EngineConfig::rasa_sm(),
        EngineConfig::tmul_like(),
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

/// Tiled 4:4/2:4/1:4, Listing-1, row-wise and vector kernels on `shape`.
fn families(shape: GemmShape) -> Vec<KernelSpec> {
    vec![
        tiled(SparseMode::Dense),
        tiled(SparseMode::Nm2of4),
        tiled(SparseMode::Nm1of4),
        KernelSpec::Listing1 {
            mode: SparseMode::Nm2of4,
        },
        KernelSpec::RowWise {
            row_ratios: (0..shape.m.div_ceil(4))
                .map(|r| match r % 3 {
                    0 => NmRatio::S1_4,
                    1 => NmRatio::S2_4,
                    _ => NmRatio::D4_4,
                })
                .collect(),
        },
        KernelSpec::Vector,
    ]
}

/// Memory ops in `spec`'s stream on `shape`.
fn memory_ops(spec: &KernelSpec, shape: GemmShape) -> usize {
    let mut stream = spec.stream(shape);
    std::iter::from_fn(|| stream.next_op())
        .filter(|op| op.mem_access().is_some())
        .count()
}

/// A multi-core simulator of `cores` cores under `cfg` on `host` host
/// threads.
fn sim(cfg: &SimConfig, cores: usize, host: usize, engine: &EngineConfig) -> MultiCoreSim {
    let mc = MultiCoreConfig::with_core(cfg.clone(), cores).with_exec(ExecMode::ParallelHost(host));
    MultiCoreSim::new(mc, engine.clone())
}

/// `stream` as the one lane of a one-core simulator under `cfg`, through
/// `memo`.
fn one_lane<S: InstStream + Send>(
    cfg: &SimConfig,
    engine: &EngineConfig,
    stream: S,
    memo: &L1Memo,
) -> MultiCoreResult {
    sim(cfg, 1, 1, engine)
        .run_sharded_memoized(vec![stream], None, memo)
        .expect("a fresh simulator and a matching memo")
}

/// Runs the lanes `set()` on `cores` cores through one memo, recording it
/// with the first of three [`engine_classes`] and replaying it with the
/// others, at one and two host threads. Every memoized run must equal the
/// stepped reference and a fresh `run_sharded` on its engine. Returns the
/// reference results in engine order.
fn assert_memo_exact<S: InstStream + Send>(
    what: &str,
    cfg: &SimConfig,
    cores: usize,
    set: impl Fn() -> (Vec<S>, Option<S>),
) -> Vec<MultiCoreResult> {
    let policy = SchedulerPolicy::Lpt;
    let engines = &engine_classes()[..3];
    let stepped: Vec<MultiCoreResult> = engines
        .iter()
        .map(|engine| {
            let (shards, reduction) = set();
            sim(cfg, cores, 1, engine).run_sharded_stepped(shards, reduction, policy)
        })
        .collect();
    for host in [1, 2] {
        let memo = L1Memo::new();
        for (i, engine) in engines.iter().enumerate() {
            let context = format!(
                "{what} on {cores} cores, {} L1 lines, {host} host threads, {} ({})",
                cfg.l1_lines,
                engine.name(),
                if i == 0 { "recording" } else { "replaying" }
            );
            let (shards, reduction) = set();
            let memoized = sim(cfg, cores, host, engine)
                .run_sharded_memoized(shards, reduction, &memo)
                .expect("a fresh simulator and a matching memo");
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

#[test]
fn one_lane_replays_match_fresh_runs_for_every_family_and_engine() {
    // BERT-L2 at the quick (÷4) fidelity. 5 lines: shorter than every
    // kernel's reuse distance (a tile load alone touches 16 lines), so
    // every access misses. 65536 lines: nothing is evicted, so every
    // re-touch hits.
    let shape = vegeta_workloads::table4()[7].scaled_shape(4);
    for cfg in [SimConfig::default(), l1_of(5), l1_of(1 << 16)] {
        for spec in families(shape) {
            let memo = L1Memo::new();
            for engine in engine_classes() {
                let fresh =
                    CoreSim::new(cfg.clone(), engine.clone()).run_stream(spec.stream(shape));
                let memoized = one_lane(&cfg, &engine, spec.stream(shape), &memo);
                let what = format!(
                    "{} on {} at {} lines",
                    spec.name(),
                    engine.name(),
                    cfg.l1_lines
                );
                assert_eq!(memoized.per_core, std::slice::from_ref(&fresh), "{what}");
                assert!(cfg.l1_lines != 1 << 16 || fresh.cache.l1_hits > 0, "{what}");
            }
            assert_eq!(memo.recordings(), 1, "one recording, then replays");
            // As on the Fig. 13 grid, no op of a tiled kernel mixes hits and
            // misses at the default L1, so its record is one bit per op.
            if cfg.l1_lines == 768 && matches!(spec, KernelSpec::Tiled { .. }) {
                let bits = memory_ops(&spec, shape).div_ceil(64);
                assert_eq!(memo.record_bytes(), 8 * bits, "{}", spec.name());
            }
        }
    }
}

#[test]
fn a_one_lane_replay_charges_every_op_its_recorded_latency() {
    // Loads cycling over 12 lines behind an 8-line L1, with a reuse phase
    // over 4: a mix of hits and misses. The trace ends on hitting loads,
    // so its cycle count moves with their latency.
    let trace = loads((0..600u64).map(|i| if i % 100 < 50 { i % 12 } else { i % 4 }));
    let cfg = l1_of(8);
    let run = |cfg: &SimConfig, engine: &EngineConfig| {
        CoreSim::new(cfg.clone(), engine.clone()).run(&trace)
    };
    let flat_l1 = SimConfig {
        l1_latency: cfg.l2_latency,
        ..cfg.clone()
    };
    let dm = EngineConfig::rasa_dm();
    assert_ne!(run(&flat_l1, &dm).core_cycles, run(&cfg, &dm).core_cycles);
    let memo = L1Memo::new();
    for engine in engine_classes() {
        let memoized = one_lane(&cfg, &engine, trace.stream(), &memo);
        assert_eq!(memoized.per_core, [run(&cfg, &engine)], "{}", engine.name());
    }
    assert_eq!(memo.recordings(), 1);
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

/// 1 KB tile loads 512 B apart from `base`, two passes of 300, each load
/// followed by an engine op on the loaded tile.
fn straddling_tiles(base: u64) -> Trace {
    let mut t = Trace::new();
    for i in (0..300u64).chain(0..300) {
        let dst = TReg::new((i % 4) as u8).expect("a valid treg");
        t.push_inst(Inst::TileLoadT {
            dst,
            addr: base + i * 512,
        });
        t.push_inst(Inst::TileGemm {
            acc: TReg::T4,
            a: dst,
            b: TReg::T7,
        });
    }
    t
}

#[test]
fn ops_that_straddle_partly_hit_blocks_replay_like_fresh_ones() {
    // Every load after the first re-reads the half of a block the one
    // before brought in and misses the next half, so every op mixes hits
    // and misses and the record keeps its masks. A 64-line L1 evicts a
    // tile's lines 64 loads later, so the second pass misses again. Fig.
    // 13 never produces such an op.
    let cfg = l1_of(64);
    let one = straddling_tiles(0);
    let results = assert_memo_exact("straddling tiles, one lane", &cfg, 1, || {
        (vec![one.stream()], None)
    });
    for r in &results {
        let l1 = r.per_core[0].cache;
        assert!(l1.l1_hits > 0 && l1.l2_hits > 0);
        assert_eq!(r.shared_l2.accesses, l1.l2_hits);
        assert_eq!(r.shared_l2.shared_hits, 0);
    }
    let memo = L1Memo::new();
    one_lane(&cfg, &EngineConfig::rasa_dm(), one.stream(), &memo);
    assert!(memo.record_bytes() > 2 * 600, "600 ops and their masks");
    // Three lanes over overlapping regions, sharing lines.
    let lanes = [one, straddling_tiles(4352), straddling_tiles(8960)];
    let results = assert_memo_exact("straddling tiles, three lanes", &cfg, 3, || {
        (lanes.iter().map(Trace::stream).collect(), None)
    });
    assert!(results.iter().all(|r| r.shared_l2.shared_hits > 0));
}

/// The 2:4 tiled kernel on `shape` through `memo` under `cfg`: its own
/// stream as the one lane of one core, or its shard set on more cores.
/// Returns the refusal's message.
fn run_2of4(
    cfg: &SimConfig,
    cores: usize,
    shape: GemmShape,
    memo: &L1Memo,
) -> Result<MultiCoreResult, String> {
    let spec = tiled(SparseMode::Nm2of4);
    let sim = sim(cfg, cores, 1, &EngineConfig::rasa_dm());
    let run = if cores == 1 {
        sim.run_sharded_memoized(vec![spec.stream(shape)], None, memo)
    } else {
        let set = spec.shard_set(shape, cores);
        sim.run_sharded_memoized(set.shards, set.reduction, memo)
    };
    run.map_err(|e| e.to_string())
}

const SMALL: GemmShape = GemmShape {
    m: 64,
    n: 64,
    k: 128,
};

const LONGER: GemmShape = GemmShape { k: 256, ..SMALL };

#[test]
fn a_shard_memo_refuses_another_config_core_count_or_shard_set() {
    let cfg = SimConfig::default();
    for cores in [1, 2] {
        let memo = L1Memo::new();
        run_2of4(&cfg, cores, SMALL, &memo).expect("records");
        assert_eq!(
            run_2of4(&l1_of(5), cores, SMALL, &memo).unwrap_err(),
            "L1 memo recorded under (l1_lines 768, l1_latency 5, l2_latency 14) \
             cannot replay under (l1_lines 5, l1_latency 5, l2_latency 14)"
        );
        assert_eq!(
            run_2of4(&cfg, 3, SMALL, &memo).unwrap_err(),
            format!("L1 memo recorded on {cores} cores cannot replay on 3")
        );
        let message = run_2of4(&cfg, cores, LONGER, &memo).unwrap_err();
        assert!(
            message.contains(" on core 0 but the lane replayed "),
            "{message}"
        );
        assert_eq!(memo.recordings(), 1, "a refused run records nothing");
    }
}

#[test]
fn a_memo_refuses_a_lane_with_another_memory_op_or_mask_count() {
    let cfg = SimConfig::default();
    let memory_ops = |shape| memory_ops(&tiled(SparseMode::Nm2of4), shape);
    for (recorded, replayed) in [(SMALL, LONGER), (LONGER, SMALL)] {
        let memo = L1Memo::new();
        run_2of4(&cfg, 1, recorded, &memo).expect("records");
        let message = run_2of4(&cfg, 1, replayed, &memo).unwrap_err();
        let (recorded, replayed) = (memory_ops(recorded), memory_ops(replayed));
        let ops = format!(
            "recorded {recorded} memory ops and 0 miss masks on core 0 \
                           but the lane replayed {replayed} and "
        );
        assert!(message.starts_with(&format!("L1 memo {ops}")), "{message}");
    }
    // The same op count, but a 2 KB load at 512, after a tile at 0 and a
    // line re-read from it, hits half of block 0 and misses blocks 1 and
    // 2, where a 1 KB load there covers only blocks 0 and 1.
    let trace = |last: Inst| {
        let mut t = Trace::new();
        t.push_inst(Inst::TileLoadT {
            dst: TReg::T0,
            addr: 0,
        });
        t.push(TraceOp::VecLoad { dst: 0, addr: 64 });
        t.push_inst(last);
        t
    };
    let wide = trace(Inst::TileLoadU {
        dst: UReg::U0,
        addr: 512,
    });
    let narrow = trace(Inst::TileLoadT {
        dst: TReg::T1,
        addr: 512,
    });
    let engine = EngineConfig::rasa_dm();
    let memo = L1Memo::new();
    one_lane(&cfg, &engine, wide.stream(), &memo);
    let refused = sim(&cfg, 1, 1, &engine).run_sharded_memoized(vec![narrow.stream()], None, &memo);
    assert_eq!(
        refused.unwrap_err().to_string(),
        "L1 memo recorded 3 memory ops and 3 miss masks on core 0 but the lane replayed 3 and 2"
    );
}

#[test]
fn a_memo_refuses_a_simulator_that_has_already_run() {
    let stream = || tiled(SparseMode::Nm2of4).stream(SMALL);
    for cores in [1, 2] {
        let mut warm = sim(&SimConfig::default(), cores, 1, &EngineConfig::rasa_dm());
        warm.run_sharded(vec![stream()], None, SchedulerPolicy::Lpt);
        let memo = L1Memo::new();
        let refused = warm.run_sharded_memoized(vec![stream()], None, &memo);
        assert_eq!(
            refused.unwrap_err().to_string(),
            "a memoized run starts from fresh L1s, but this simulator has already run"
        );
        assert_eq!(memo.recordings(), 0);
    }
}

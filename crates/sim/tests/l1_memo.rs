//! Differential pin for the memoized single-core L1: a run of
//! [`CoreSim::run_stream_memoized`] must report the same [`SimResult`] as
//! a fresh [`CoreSim::run_stream`], field for field and cache counters
//! included, whether it records the memo or replays it — for every kernel
//! family on every engine class, with the default 768-line L1 (hits are
//! rare) and with a 5-line one (hits are common).
//!
//! A memo is recorded by the first engine of each family and replayed by
//! the others, as a sweep shares one memo across the engines replaying a
//! trace. A memo refuses to replay under another L1 configuration or over
//! a stream with another memory-op count.

use vegeta_engine::EngineConfig;
use vegeta_isa::stream::InstStream;
use vegeta_isa::trace::{Trace, TraceOp};
use vegeta_kernels::{GemmShape, Kernel, KernelOptions, KernelSpec, SparseMode};
use vegeta_sim::{CoreSim, L1Memo, SimConfig};
use vegeta_sparse::NmRatio;

/// BERT-L2 at the quick (÷4) fidelity.
fn quick_shape() -> GemmShape {
    vegeta_workloads::table4()[7].scaled_shape(4)
}

/// Tiled 4:4/2:4/1:4, Listing-1, row-wise and vector kernels on `shape`.
fn families(shape: GemmShape) -> Vec<KernelSpec> {
    let tiled = |mode| KernelSpec::Tiled {
        mode,
        opts: KernelOptions::default(),
    };
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

/// RASA-SM/DM, VEGETA-D, VEGETA-S and STC-like.
fn engine_classes() -> Vec<EngineConfig> {
    vec![
        EngineConfig::rasa_sm(),
        EngineConfig::rasa_dm(),
        EngineConfig::tmul_like(),
        EngineConfig::vegeta_s(16)
            .expect("valid alpha")
            .with_output_forwarding(true),
        EngineConfig::stc_like(),
    ]
}

/// The default config with an L1 of `lines` lines.
fn l1_of(lines: usize) -> SimConfig {
    SimConfig {
        l1_lines: lines,
        ..SimConfig::default()
    }
}

#[test]
fn memoized_replay_matches_a_fresh_one_for_every_family_and_engine() {
    let shape = quick_shape();
    // 5 lines: shorter than every kernel's reuse distance (a tile load
    // alone touches 16 lines), so every access misses. 65536 lines:
    // nothing is evicted, so every re-touch hits.
    for cfg in [SimConfig::default(), l1_of(5), l1_of(1 << 16)] {
        for spec in families(shape) {
            let memo = L1Memo::new();
            let mut l1_hits = 0;
            for engine in engine_classes() {
                let mut sim = CoreSim::new(cfg.clone(), engine.clone());
                let fresh = sim.run_stream(spec.stream(shape));
                let memoized = CoreSim::new(cfg.clone(), engine.clone())
                    .run_stream_memoized(spec.stream(shape), &memo);
                assert_eq!(
                    memoized,
                    fresh,
                    "{} on {} with {} L1 lines",
                    spec.name(),
                    engine.name(),
                    cfg.l1_lines
                );
                l1_hits = fresh.cache.l1_hits;
            }
            assert_eq!(memo.recordings(), 1, "one recording, then replays");
            if cfg.l1_lines == 1 << 16 {
                assert!(l1_hits > 0, "{}: a large L1 hits", spec.name());
            }
        }
    }
}

#[test]
fn a_replay_charges_every_op_its_recorded_latency() {
    // Loads cycling over 12 lines behind an 8-line L1, with a reuse phase
    // over 4: a mix of hits and misses. The trace ends on hitting loads,
    // so its cycle count moves with their latency.
    let mut trace = Trace::new();
    for i in 0..600u64 {
        let line = if i % 100 < 50 { i % 12 } else { i % 4 };
        trace.push(TraceOp::VecLoad {
            dst: (i % 16) as u8,
            addr: line * 64,
        });
    }
    let cfg = l1_of(8);
    let fresh = CoreSim::new(cfg.clone(), EngineConfig::rasa_dm()).run(&trace);
    assert!(fresh.cache.l1_hits > 0 && fresh.cache.l2_hits > 0);
    let flat = CoreSim::new(
        SimConfig {
            l1_latency: cfg.l2_latency,
            ..cfg.clone()
        },
        EngineConfig::rasa_dm(),
    )
    .run(&trace);
    assert_ne!(flat.core_cycles, fresh.core_cycles, "latency-sensitive");
    let memo = L1Memo::new();
    for engine in engine_classes() {
        let memoized =
            CoreSim::new(cfg.clone(), engine.clone()).run_stream_memoized(trace.stream(), &memo);
        assert_eq!(memoized, fresh, "{}", engine.name());
    }
}

#[test]
#[should_panic(
    expected = "L1 memo recorded under (l1_lines 768, l1_latency 5, l2_latency 14) \
                           cannot replay under (l1_lines 5, l1_latency 5, l2_latency 14)"
)]
fn a_memo_refuses_another_l1_config() {
    let shape = GemmShape::new(32, 32, 128);
    let spec = &families(shape)[0];
    let memo = L1Memo::new();
    CoreSim::with_engine(EngineConfig::rasa_dm()).run_stream_memoized(spec.stream(shape), &memo);
    CoreSim::new(l1_of(5), EngineConfig::rasa_dm()).run_stream_memoized(spec.stream(shape), &memo);
}

#[test]
fn a_memo_refuses_a_stream_with_another_memory_op_count() {
    let small = GemmShape::new(32, 32, 128);
    let large = GemmShape::new(32, 32, 256);
    let spec = &families(small)[0];
    for (recorded, replayed) in [(small, large), (large, small)] {
        let memo = L1Memo::new();
        let mut sim = CoreSim::with_engine(EngineConfig::rasa_dm());
        sim.run_stream_memoized(spec.stream(recorded), &memo);
        let count = |shape| {
            let mut stream = spec.stream(shape);
            std::iter::from_fn(|| stream.next_op())
                .filter(|op| op.mem_access().is_some())
                .count()
        };
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run_stream_memoized(spec.stream(replayed), &memo)
        }))
        .expect_err("a replay over another stream must panic");
        let message = panic
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert_eq!(
            message,
            &format!(
                "L1 memo recorded {} memory ops but the stream replayed {}",
                count(recorded),
                count(replayed)
            )
        );
    }
}

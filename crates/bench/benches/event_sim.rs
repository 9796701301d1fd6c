//! Criterion throughput benchmarks for the simulator's hot paths: the
//! batched `TileView` functional compute paths (GEMM and the 2:4/1:4 SPMM
//! decoders), the multi-core path against the stepped reference scan, and
//! the single-core streamed replay.
//!
//! All cycle outputs are asserted equal elsewhere
//! (`sim/tests/event_vs_stepped.rs`); these benches track the *speed*
//! side of the contract, in ops or instructions per iteration.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vegeta::isa::stream::InstStream;
use vegeta::kernels::KernelEmitter;
use vegeta::prelude::*;

/// Mid-size 2:4 layer: large enough to exercise every pipeline stage,
/// small enough for stable iterations.
fn bench_shape() -> GemmShape {
    GemmShape::new(128, 128, 512)
}

/// The batched functional compute paths: one iteration fully executes a
/// kernel's tile instructions (row-blocked predecoded GEMM/SPMM loops)
/// against architectural memory. Instructions per iteration is printed so
/// the rate is ops/sec, not just ns.
fn bench_batched_exec(c: &mut Criterion) {
    let shape = bench_shape();
    for (label, mode) in [
        ("dense", SparseMode::Dense),
        ("2of4", SparseMode::Nm2of4),
        ("1of4", SparseMode::Nm1of4),
    ] {
        let spec = KernelSpec::tiled(mode);
        let mem_bytes = KernelEmitter::for_spec(&spec, shape).footprint().end() as usize;
        let tile_insts = Executor::new(Memory::new(mem_bytes))
            .run_stream(spec.stream(shape))
            .expect("kernel executes cleanly");
        c.bench_function(&format!("exec_batched_{label}_{tile_insts}insts"), |b| {
            b.iter(|| {
                Executor::new(Memory::new(mem_bytes))
                    .run_stream(spec.stream(shape))
                    .expect("kernel executes cleanly")
            });
        });
    }
}

/// The multi-core path (each core run on its own, then folded; the bench
/// keeps its historical name) against the stepped linear-scan reference
/// over the same 8-core LPT shard set: it must beat (and never drift from)
/// the reference.
fn bench_merge_loops(c: &mut Criterion) {
    let shape = bench_shape();
    let spec = KernelSpec::tiled(SparseMode::Nm2of4);
    let engine = EngineConfig::vegeta_s(16)
        .expect("valid alpha")
        .with_output_forwarding(true);
    let cores = 8;
    c.bench_function("multicore_event_driven_8c", |b| {
        b.iter(|| {
            let set = spec.shard_set(shape, cores);
            MultiCoreSim::new(MultiCoreConfig::new(cores), engine.clone())
                .run_sharded(set.shards, set.reduction, SchedulerPolicy::Lpt)
                .core_cycles
        });
    });
    c.bench_function("multicore_stepped_scan_8c", |b| {
        b.iter(|| {
            let set = spec.shard_set(shape, cores);
            MultiCoreSim::new(MultiCoreConfig::new(cores), engine.clone())
                .run_sharded_stepped(set.shards, set.reduction, SchedulerPolicy::Lpt)
                .core_cycles
        });
    });
    // Single-core streamed replay: the end-to-end insts/sec number the
    // perf gate floors (geomean_sim_insts_per_sec).
    let insts = spec.stream(shape).remaining();
    c.bench_function(&format!("coresim_replay_{insts}insts"), |b| {
        b.iter(|| {
            CoreSim::with_engine(engine.clone())
                .run_stream(black_box(spec.stream(shape)))
                .core_cycles
        });
    });
}

criterion_group!(benches, bench_batched_exec, bench_merge_loops);
criterion_main!(benches);

//! Criterion benchmarks for the host-thread axis of a multi-core run: the
//! same pinned 8-simulated-core LPT shard set replayed under
//! [`ExecMode::Sequential`] (every core inline on the calling thread) and
//! under [`ExecMode::ParallelHost`] at 1, 2, 4 and 8 host threads (up to
//! that many cores run at once, each against its own first-touch summary).
//!
//! The results are asserted identical elsewhere
//! (`sim/tests/parallel_vs_event.rs`); these benches track the host-side
//! speedup the extra threads buy. On an N-CPU host the curve should rise
//! until the host-thread count passes min(N, simulated cores); past that
//! the extra threads only wait for the job list to drain.

use criterion::{criterion_group, criterion_main, Criterion};
use vegeta::prelude::*;

/// The pinned workload: one perf-gate layer at 2:4 weights on the
/// flexible VEGETA-S design, sharded across 8 simulated cores — the same
/// cell class the perf gate's `geomean_multicore_insts_per_sec` floors.
fn pinned() -> (GemmShape, KernelSpec, EngineConfig) {
    let shape = GemmShape::new(128, 128, 512);
    let engine = EngineConfig::vegeta_s(16)
        .expect("valid alpha")
        .with_output_forwarding(true);
    let spec = engine.kernel_spec(NmRatio::S2_4, KernelOptions::default());
    (shape, spec, engine)
}

const SIM_CORES: usize = 8;

fn run(exec: ExecMode) -> u64 {
    let (shape, spec, engine) = pinned();
    let set = spec.shard_set(shape, SIM_CORES);
    MultiCoreSim::new(MultiCoreConfig::new(SIM_CORES).with_exec(exec), engine)
        .run_sharded(set.shards, set.reduction, SchedulerPolicy::Lpt)
        .core_cycles
}

fn bench_parallel_sim(c: &mut Criterion) {
    c.bench_function("multicore_8c_sequential", |b| {
        b.iter(|| run(ExecMode::Sequential));
    });
    for host_threads in [1usize, 2, 4, 8] {
        c.bench_function(
            &format!("multicore_8c_parallel_host_{host_threads}t"),
            |b| {
                b.iter(|| run(ExecMode::ParallelHost(host_threads)));
            },
        );
    }
}

criterion_group!(benches, bench_parallel_sim);
criterion_main!(benches);

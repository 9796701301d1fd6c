//! Criterion microbenchmarks for the streaming instruction pipeline:
//! trace generation rate (ops emitted per second through `KernelStream`)
//! and end-to-end streamed replay rate (`CoreSim::run_stream`), against
//! the materialized build-then-replay baseline they replaced.

use criterion::{criterion_group, criterion_main, Criterion};
use vegeta::isa::stream::InstStream;
use vegeta::prelude::*;

/// A mid-size 2:4 layer: big enough that chunking matters, small enough
/// for a stable bench iteration.
fn bench_shape() -> GemmShape {
    GemmShape::new(128, 128, 1024)
}

fn bench_trace_stream(c: &mut Criterion) {
    let shape = bench_shape();
    let spec = KernelSpec::tiled(SparseMode::Nm2of4);

    // Pure generation: drain the lazy stream, counting ops.
    c.bench_function("trace_stream_generate", |b| {
        b.iter(|| {
            let mut stream = spec.stream(shape);
            let mut ops = 0u64;
            while stream.next_op().is_some() {
                ops += 1;
            }
            ops
        });
    });

    // The materialized baseline: build the whole Vec.
    c.bench_function("trace_stream_materialize", |b| {
        b.iter(|| spec.build(shape));
    });

    // End-to-end streamed replay (generation + simulation, no Vec).
    let engine = EngineConfig::vegeta_s(16).expect("valid alpha");
    c.bench_function("trace_stream_replay", |b| {
        b.iter(|| {
            CoreSim::with_engine(engine.clone())
                .run_stream(spec.stream(shape))
                .core_cycles
        });
    });

    // The legacy path: replay a prebuilt materialized trace.
    let trace = spec.build(shape);
    c.bench_function("trace_stream_replay_materialized", |b| {
        b.iter(|| CoreSim::with_engine(engine.clone()).run(&trace).core_cycles);
    });
}

criterion_group!(benches, bench_trace_stream);
criterion_main!(benches);

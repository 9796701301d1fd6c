//! Criterion microbenchmarks of the core data structures and simulators.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use vegeta::engine::{dataflow, EngineConfig, EngineTimer};
use vegeta::kernels::{GemmShape, Kernel, KernelSpec, SparseMode, TraceCache};
use vegeta::num::Matrix;
use vegeta::sim::CoreSim;
use vegeta::sparse::{prune, CompressedTile, NmRatio, RowWiseTile};

fn bench_compression(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(1);
    let tile_2of4 = prune::random_nm(16, 64, NmRatio::S2_4, &mut rng);
    let unstructured = prune::random_unstructured(16, 64, 0.9, &mut rng);
    c.bench_function("compress_2of4_tile_16x64", |b| {
        b.iter(|| CompressedTile::compress(&tile_2of4, NmRatio::S2_4).unwrap());
    });
    let compressed = CompressedTile::compress(&tile_2of4, NmRatio::S2_4).unwrap();
    c.bench_function("decompress_2of4_tile_16x64", |b| {
        b.iter(|| compressed.decompress());
    });
    c.bench_function("rowwise_cover_16x64", |b| {
        b.iter(|| RowWiseTile::compress(&unstructured, 4).unwrap());
    });
}

fn bench_dataflow(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(2);
    let eff = prune::random_nm(16, 64, NmRatio::S2_4, &mut rng);
    let tile = CompressedTile::compress(&eff, NmRatio::S2_4).unwrap();
    let meta: Vec<u8> = tile.indices().to_vec();
    let bt = prune::random_dense(16, 64, &mut rng);
    let c_in = Matrix::zeros(16, 16);
    let cfg = EngineConfig::vegeta_s(2).unwrap();
    c.bench_function("dataflow_spmm_u_s22", |b| {
        b.iter(|| {
            let op = dataflow::TileWiseOp {
                a_values: tile.values(),
                a_meta: Some(&meta),
                ratio: NmRatio::S2_4,
                bt: &bt,
                c_in: &c_in,
            };
            dataflow::simulate_tile(&cfg, &op).unwrap()
        });
    });
}

fn bench_engine_timer(c: &mut Criterion) {
    let cfg = EngineConfig::vegeta_s(16)
        .unwrap()
        .with_output_forwarding(true);
    c.bench_function("engine_timer_1k_issues", |b| {
        b.iter_batched(
            || EngineTimer::new(cfg.clone()),
            |mut timer| {
                for i in 0..1000u64 {
                    timer.issue((i % 2) as u8, 0);
                }
                timer.busy_until()
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_simulator(c: &mut Criterion) {
    let shape = GemmShape::new(64, 64, 512);
    let spec = KernelSpec::tiled(SparseMode::Nm2of4);
    let trace = spec.build(shape);
    let engine = EngineConfig::vegeta_s(16).unwrap();
    c.bench_function("core_sim_64x64x512_2of4", |b| {
        b.iter(|| CoreSim::with_engine(engine.clone()).run(&trace));
    });
    c.bench_function("trace_cache_hit_64x64x512_2of4", |b| {
        let cache = TraceCache::new();
        cache.summary(shape, &spec);
        b.iter(|| cache.summary(shape, &spec));
    });
}

criterion_group!(
    benches,
    bench_compression,
    bench_dataflow,
    bench_engine_timer,
    bench_simulator
);
criterion_main!(benches);

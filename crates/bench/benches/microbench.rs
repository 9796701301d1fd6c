//! Criterion microbenchmarks of the core data structures and simulators.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use vegeta::engine::{dataflow, EngineConfig, EngineTimer};
use vegeta::kernels::{GemmShape, KernelSpec, SparseMode, TraceCache};
use vegeta::lint::verify_shard_set;
use vegeta::num::Matrix;
use vegeta::session::Fidelity;
use vegeta::sim::CoreSim;
use vegeta::sparse::{prune, CompressedTile, NmRatio, RowWiseTile};
use vegeta_bench::serving::{calibrate_capacity_qps, serving_engines};
use vegeta_serve::{LoadGen, ServeConfig, Server, ServiceMemo};

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

/// The lint preflight of one `multicore_scaling` cell: every stream of the
/// full-size ResNet50-L3 2:4 shard set for 16 cores, walked once.
fn bench_lint(c: &mut Criterion) {
    let layer = vegeta::workloads::table4()
        .into_iter()
        .find(|l| l.name == "ResNet50-L3")
        .expect("Table IV has ResNet50-L3");
    let shape = layer.gemm_shape();
    let spec = KernelSpec::tiled(SparseMode::Nm2of4);
    c.bench_function("lint_verify_shard_set_resnet50_l3_2of4_16c", |b| {
        b.iter(|| verify_shard_set(&spec, shape, 16));
    });
}

/// One full-size `serve_sweep` load point with everything warm: 8,192
/// default-mix requests at the four-worker capacity of VEGETA-S-16-2+OF,
/// served with the trace cache's verdicts and the service memo already
/// filled, so it times admission and the virtual-time replay only.
fn bench_serve(c: &mut Criterion) {
    let engine = serving_engines().pop().expect("two serving engines");
    let memo = ServiceMemo::default();
    let capacity = calibrate_capacity_qps(&engine, Fidelity::Full, &memo);
    let requests = LoadGen::new(capacity * 4.0, 8192).with_seed(11).generate();
    let server = Server::new(ServeConfig::new(engine).with_workers(4))
        .with_cache(TraceCache::shared())
        .with_service_memo(Arc::clone(&memo));
    server.serve_requests(&requests, 0.0, 11);
    c.bench_function("serve_requests_default_mix_8192_warm", |b| {
        b.iter(|| server.serve_requests(&requests, 0.0, 11));
    });
}

criterion_group!(
    benches,
    bench_compression,
    bench_dataflow,
    bench_engine_timer,
    bench_simulator,
    bench_lint,
    bench_serve
);
criterion_main!(benches);

//! Contract tests for the `Session`/`Sweep` experiment API: polymorphic
//! kernel dispatch, trace-cache transparency, parallel/serial equivalence,
//! and report serialization.

use std::sync::Arc;

use vegeta::isa::stream::InstStream;
use vegeta::kernels::KernelEmitter;
use vegeta::prelude::*;
use vegeta::sparse::{prune, transform};
use vegeta::workloads::table4;

/// `KernelSpec` dispatch must equal each family's own emitter
/// trace-for-trace.
#[test]
fn kernel_spec_dispatch_equals_direct_builders() {
    let shape = GemmShape::new(64, 48, 256);
    let emitted = |emitter: KernelEmitter| emitter.stream().collect_trace();
    for mode in [SparseMode::Dense, SparseMode::Nm2of4, SparseMode::Nm1of4] {
        for opts in [
            KernelOptions::default(),
            KernelOptions {
                unroll: 1,
                loop_overhead: false,
            },
        ] {
            let spec = KernelSpec::Tiled { mode, opts };
            assert_eq!(
                spec.build(shape),
                emitted(KernelEmitter::tiled(shape, mode, opts)),
                "{mode:?} {opts:?}"
            );
        }
        assert_eq!(
            KernelSpec::Listing1 { mode }.build(shape),
            emitted(KernelEmitter::listing1(shape, mode))
        );
    }
    assert_eq!(
        KernelSpec::Vector.build(shape),
        emitted(KernelEmitter::vector(shape))
    );
    // Row-wise: covers from a real unstructured matrix.
    let mut rng = rand_seed(11);
    let a = prune::random_unstructured(64, 256, 0.9, &mut rng);
    let mut covers = transform::row_covers(&a, 4).expect("m=4");
    covers.sort();
    let spec = KernelSpec::RowWise {
        row_ratios: covers.clone(),
    };
    let groups = vegeta::engine::rowwise::pack_rows(&covers).len();
    assert_eq!(
        spec.build(shape),
        emitted(KernelEmitter::rowwise(shape, groups))
    );
}

/// Cache hits must be observationally identical to cold builds: same trace,
/// same simulation result.
#[test]
fn trace_cache_hits_equal_cold_builds() {
    let shape = table4()[7].scaled_shape(8);
    let cache = Arc::new(TraceCache::new());
    let engine = EngineConfig::vegeta_s(16).unwrap();
    let warm_session = Session::new(engine.clone()).with_cache(Arc::clone(&cache));
    let cold_session = Session::new(engine); // private, empty cache
    let first = warm_session.run(&Cell::shape("BERT-L2", shape, NmRatio::S2_4));
    let hit = warm_session.run(&Cell::shape("BERT-L2", shape, NmRatio::S2_4));
    let cold = cold_session.run(&Cell::shape("BERT-L2", shape, NmRatio::S2_4));
    assert_eq!(first, hit, "a cache hit must not change the result");
    assert_eq!(first, cold, "a cached trace must equal a cold build");
    assert_eq!(cache.misses(), 1);
    assert_eq!(cache.hits(), 1);
    // And the cached stream itself equals a direct build.
    let spec = engine_spec(&warm_session, NmRatio::S2_4);
    let mut cached = cache.stream(shape, &spec);
    assert_eq!(cached.collect_trace(), spec.build(shape));
}

fn engine_spec(session: &Session, weights: NmRatio) -> KernelSpec {
    session
        .engine()
        .kernel_spec(weights, KernelOptions::default())
}

/// The parallel sweep must produce exactly the serial report, in the same
/// order, across repeated runs (determinism).
#[test]
fn parallel_sweep_is_deterministic_and_equals_serial() {
    let grid = || {
        Sweep::new()
            .with_engines([
                EngineConfig::rasa_dm(),
                EngineConfig::stc_like(),
                EngineConfig::vegeta_s(4).unwrap(),
                EngineConfig::vegeta_s(16).unwrap(),
            ])
            .with_layers(table4().into_iter().step_by(3))
            .with_sparsities(figure13_sparsities())
            .with_scale(8)
    };
    let serial = grid().with_threads(1).run();
    let parallel_a = grid().with_threads(4).run();
    let parallel_b = grid().with_threads(4).run();
    assert_eq!(serial.cells, parallel_a.cells);
    assert_eq!(parallel_a.cells, parallel_b.cells);
    assert_eq!(serial.cells.len(), 4 * 4 * 3);
    // The shared cache collapses identical kernels across engines: far
    // fewer builds than cells.
    assert!(
        parallel_a.traces_built < parallel_a.cells.len() as u64,
        "{} builds for {} cells",
        parallel_a.traces_built,
        parallel_a.cells.len()
    );
}

/// Reports must round-trip through their JSON form unchanged.
#[test]
fn run_report_json_round_trips() {
    let report = Session::new(EngineConfig::stc_like()).run(&Cell::layer(
        &table4()[10],
        Fidelity::Quick(8),
        NmRatio::S1_4,
    ));
    let text = report.to_json();
    let back = RunReport::from_json(&text).expect("valid JSON");
    assert_eq!(back, report);
    // Sweep JSON embeds the same cells.
    let sweep = Sweep::new()
        .with_engine(EngineConfig::rasa_dm())
        .with_layer(table4()[0])
        .with_sparsity(NmRatio::D4_4)
        .with_scale(8)
        .run();
    let doc = vegeta::json::JsonValue::parse(&sweep.to_json()).expect("valid sweep JSON");
    let cells = doc.get("cells").and_then(|c| c.as_array()).expect("cells");
    assert_eq!(cells.len(), 1);
    assert_eq!(
        RunReport::from_json_value(&cells[0]).expect("cell parses"),
        sweep.cells[0]
    );
}

/// The §VI-C kernel-selection rules hold through the whole API stack.
#[test]
fn execution_modes_follow_section6c_through_the_api() {
    let shape = table4()[7].scaled_shape(8);
    for (engine, weights, kernel) in [
        (EngineConfig::rasa_dm(), NmRatio::S1_4, "tiled-dense-u3"),
        (EngineConfig::stc_like(), NmRatio::S1_4, "tiled-2of4-u3"),
        (
            EngineConfig::vegeta_s(16).unwrap(),
            NmRatio::S1_4,
            "tiled-1of4-u3",
        ),
    ] {
        let report = Session::new(engine).run(&Cell::shape("probe", shape, weights));
        assert_eq!(report.kernel, kernel);
    }
}

/// End to end: a sweep gridding over storage formats (the Fig. 12-style
/// axis) produces one cell per engine × format with format-appropriate
/// kernels, storage accounting, and JSON/CSV round trips.
#[test]
fn sweep_grids_over_storage_formats_end_to_end() {
    let layer = table4()[7];
    let shape = layer.scaled_shape(8);
    let formats = [
        FormatSpec::Dense,
        FormatSpec::Nm(NmRatio::S2_4),
        FormatSpec::Nm(NmRatio::S1_4),
        FormatSpec::RowWise { m: 4 },
        FormatSpec::Csr,
    ];
    let report = Sweep::new()
        .with_engines([EngineConfig::rasa_dm(), EngineConfig::vegeta_s(16).unwrap()])
        .with_layer(layer)
        .with_formats(formats)
        .with_scale(8)
        .run();
    assert_eq!(report.cells.len(), 2 * formats.len());
    assert_eq!(
        report.sparsities(),
        vec!["dense", "2:4", "1:4", "rowwise:4", "csr"]
    );

    let sparse = |f: &str| report.get(layer.name, "VEGETA-S-16-2", f).unwrap();
    // Sparser structured storage is both smaller and faster on VEGETA-S.
    let (dense, s24, s14) = (sparse("dense"), sparse("2:4"), sparse("1:4"));
    assert!(s14.a_values_bytes < s24.a_values_bytes);
    assert!(s24.a_values_bytes < dense.a_values_bytes);
    assert!(s14.cycles < s24.cycles && s24.cycles < dense.cycles);
    assert_eq!(s24.a_values_bytes, (shape.m * shape.k) as u64);
    assert_eq!(
        s24.a_metadata_bits,
        (shape.m * shape.k / 2 * 2) as u64,
        "2 position bits per stored value"
    );
    // Row-wise runs the tile engine; CSR falls back to the vector unit and
    // loses — the §III-D transform argument, as data.
    let (rw, csr) = (sparse("rowwise:4"), sparse("csr"));
    assert!(rw.kernel.starts_with("rowwise-"));
    assert_eq!(csr.kernel, "vector-gemm");
    assert!(rw.cycles < csr.cycles);
    // The dense engine executes every tile format densely.
    for f in ["dense", "2:4", "1:4", "rowwise:4"] {
        let cell = report.get(layer.name, "RASA-DM (VEGETA-D-1-2)", f).unwrap();
        assert_eq!(cell.kernel, "tiled-dense-u3", "format {f}");
        assert_eq!(cell.format, "dense");
    }

    // Reports round-trip with the format fields intact.
    let back = RunReport::from_json(&rw.to_json()).unwrap();
    assert_eq!(&back, rw);
    let csv = report.to_csv();
    assert!(csv.lines().next().unwrap().contains("format"));
    assert!(csv.contains("rowwise:4"));
}

/// The trace cache keys on the storage format: identical instruction mixes
/// over different operand formats never alias.
#[test]
fn trace_cache_distinguishes_formats() {
    let shape = GemmShape::new(32, 32, 128);
    let cache = TraceCache::new();
    let dense = KernelSpec::tiled(SparseMode::Dense);
    let vector = KernelSpec::Vector;
    // Both "dense" formats, but different kernels — still distinct keys.
    let a = cache.summary(shape, &dense);
    let b = cache.summary(shape, &vector);
    assert_ne!(a, b);
    assert_eq!(cache.misses(), 2);
    assert_eq!(dense.format(), FormatSpec::Dense);
    assert_eq!(vector.format(), FormatSpec::Dense);
    // Same spec again: hit.
    cache.summary(shape, &dense);
    assert_eq!(cache.hits(), 1);
}

/// Wall-clock check: a parallel Fig. 13 sweep must beat the serial path by
/// at least 1.5x on a multi-core host. Timing-sensitive, so ignored by
/// default; run with `cargo test --release -- --ignored parallel_speedup`.
#[test]
#[ignore = "wall-clock benchmark; run explicitly on an idle multi-core host"]
fn sweep_parallel_speedup_at_least_1_5x() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores < 4 {
        eprintln!("skipping: speedup check needs >= 4 cores, have {cores}");
        return;
    }
    let grid = || Sweep::figure13().with_scale(4); // the VEGETA_QUICK=1 grid
                                                   // Warm up (first run pays one-time costs for both paths).
    grid().with_threads(2).run();
    let t0 = std::time::Instant::now();
    let serial = grid().with_threads(1).run();
    let serial_time = t0.elapsed();
    let t1 = std::time::Instant::now();
    let parallel = grid().with_threads(0).run();
    let parallel_time = t1.elapsed();
    assert_eq!(serial.cells, parallel.cells, "results must agree");
    let speedup = serial_time.as_secs_f64() / parallel_time.as_secs_f64();
    assert!(
        speedup >= 1.5,
        "parallel sweep speedup {speedup:.2}x (serial {serial_time:?}, parallel {parallel_time:?})"
    );
}

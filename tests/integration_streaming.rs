//! Streamed replay must be indistinguishable from materialized replay —
//! op for op, cycle for cycle, and bit for bit — across every kernel
//! family / storage format, with only the memory footprint differing.

use std::sync::Arc;

use vegeta::isa::stream::InstStream;
use vegeta::isa::{Executor, TRACE_OP_BYTES};
use vegeta::num::gemm_bf16_ref;
use vegeta::prelude::*;
use vegeta::sparse::prune;

/// One kernel spec per storage format the builders support: dense, 2:4,
/// 1:4 (tiled + Listing-1), row-wise `N:4`, and the dense vector baseline
/// (the CSR execution fallback).
fn specs_for_every_format() -> Vec<KernelSpec> {
    let mut ratios = vec![NmRatio::S1_4; 16];
    ratios.extend([NmRatio::S2_4; 8]);
    ratios.extend([NmRatio::D4_4; 8]);
    vec![
        KernelSpec::tiled(SparseMode::Dense),
        KernelSpec::tiled(SparseMode::Nm2of4),
        KernelSpec::tiled(SparseMode::Nm1of4),
        KernelSpec::Listing1 {
            mode: SparseMode::Nm2of4,
        },
        KernelSpec::RowWise { row_ratios: ratios },
        KernelSpec::Vector,
    ]
}

#[test]
fn streams_equal_materialized_traces_op_for_op() {
    let shape = GemmShape::new(48, 40, 256);
    for spec in specs_for_every_format() {
        let materialized = spec.build(shape);
        let mut stream = spec.stream(shape);
        assert_eq!(
            stream.remaining(),
            materialized.len() as u64,
            "{}: exact-length hook",
            spec.name()
        );
        let collected = stream.collect_trace();
        assert_eq!(collected, materialized, "{}: op sequences", spec.name());
    }
}

#[test]
fn streamed_replay_is_cycle_identical_across_formats_and_engines() {
    let shape = GemmShape::new(48, 32, 128);
    for spec in specs_for_every_format() {
        // The vector baseline never touches the matrix engine; one engine
        // suffices for it.
        let engines = if spec == KernelSpec::Vector {
            vec![EngineConfig::rasa_dm()]
        } else {
            vec![
                EngineConfig::rasa_dm(),
                EngineConfig::stc_like(),
                EngineConfig::vegeta_s(16)
                    .unwrap()
                    .with_output_forwarding(true),
            ]
        };
        for engine in engines {
            let trace = spec.build(shape);
            let from_trace = CoreSim::with_engine(engine.clone()).run(&trace);
            let mut stream = spec.stream(shape);
            let from_stream = CoreSim::with_engine(engine.clone()).run_stream(&mut stream);
            assert_eq!(
                from_stream.core_cycles,
                from_trace.core_cycles,
                "{} on {}: cycles",
                spec.name(),
                engine.name()
            );
            assert_eq!(from_stream.instructions, from_trace.instructions);
            assert_eq!(from_stream.tile_compute, from_trace.tile_compute);
            assert_eq!(
                from_stream.engine_busy_cycles,
                from_trace.engine_busy_cycles
            );
            assert_eq!(from_stream.cache, from_trace.cache);
            // Up to a few KB of fixed generator state, streaming never
            // holds more than the trace (tiny traces are dominated by that
            // fixed state).
            assert!(
                from_stream.peak_resident_bytes <= from_trace.peak_resident_bytes + 4096,
                "{}: stream resident {} vs trace {}",
                spec.name(),
                from_stream.peak_resident_bytes,
                from_trace.peak_resident_bytes
            );
        }
    }
}

#[test]
fn streamed_functional_execution_is_result_identical() {
    let mut rng = rand_seed(77);
    for mode in [SparseMode::Dense, SparseMode::Nm2of4, SparseMode::Nm1of4] {
        let a = prune::magnitude_prune_nm(&prune::random_dense(32, 128, &mut rng), mode.ratio());
        let b = prune::random_dense(128, 32, &mut rng);
        let program =
            vegeta::kernels::build_program(&a, &b, mode, KernelOptions::default()).unwrap();

        // Materialized functional replay.
        let mut exec_run = Executor::new(program.mem.clone());
        exec_run.run(&program.trace.tile_insts()).unwrap();
        // Streamed functional replay of the same program.
        let mut exec_stream = Executor::new(program.mem.clone());
        let executed = exec_stream.run_stream(program.trace.stream()).unwrap();

        assert_eq!(
            executed,
            program.trace.mix().total()
                - program.trace.mix().scalars
                - program.trace.mix().branches,
            "{mode:?}: every tile inst streamed"
        );
        assert_eq!(exec_stream.stats(), exec_run.stats(), "{mode:?}: stats");
        assert!(
            exec_stream.regs() == exec_run.regs(),
            "{mode:?}: architectural state must match"
        );
        // And the whole pipeline still computes the right GEMM.
        let got = program.run_functional().unwrap();
        let mut expected = Matrix::zeros(32, 32);
        gemm_bf16_ref(&a, &b, &mut expected);
        assert_eq!(got, expected, "{mode:?}: bit-exact result");
    }
}

#[test]
fn sessions_stream_cycle_identically_to_prebuilt_traces() {
    // `Session::run` streams; `CoreSim::run` replays the materialized
    // build. Same cycles, different residency accounting.
    let layer = &table4()[7];
    let shape = layer.scaled_shape(8);
    let cache = Arc::new(TraceCache::new());
    for spec in specs_for_every_format() {
        let session =
            Session::new(EngineConfig::vegeta_s(16).unwrap()).with_cache(Arc::clone(&cache));
        let streamed = session.run(&Cell::shape("cell", shape, &spec));
        let trace = spec.build(shape);
        let prebuilt = CoreSim::with_engine(session.engine().clone()).run(&trace);
        assert_eq!(streamed.cycles, prebuilt.core_cycles, "{}", spec.name());
        assert_eq!(streamed.instructions, prebuilt.instructions);
        assert_eq!(streamed.insts_streamed, streamed.instructions);
        assert_eq!(
            prebuilt.peak_resident_bytes,
            trace.len() as u64 * TRACE_OP_BYTES as u64
        );
        assert!(streamed.peak_resident_bytes < prebuilt.peak_resident_bytes);
    }
}

#[test]
fn fidelity_axis_quick_and_full_share_one_sweep() {
    // The smallest conv layer keeps a genuine full-fidelity cell fast.
    let layer = table4()
        .into_iter()
        .find(|l| l.name == "ResNet50-L6")
        .unwrap();
    let report = Sweep::new()
        .with_engine(EngineConfig::vegeta_s(16).unwrap())
        .with_layer(layer)
        .with_sparsity(NmRatio::S1_4)
        .with_fidelities([Fidelity::Quick(4), Fidelity::Full])
        .with_threads(2)
        .run();
    assert_eq!(report.cells.len(), 2);
    assert_eq!(report.cells[0].fidelity, "quick/4");
    assert_eq!(report.cells[1].fidelity, "full");
    assert_eq!(report.cells[1].shape, layer.gemm_shape(), "unscaled");
    // Full-fidelity cells simulated the real layer yet stayed chunk-bounded.
    for cell in &report.cells {
        let trace_bytes = cell.instructions * TRACE_OP_BYTES as u64;
        assert!(
            cell.peak_resident_bytes < trace_bytes / 4,
            "{}@{}: resident {} vs materialized {}",
            cell.engine,
            cell.fidelity,
            cell.peak_resident_bytes,
            trace_bytes
        );
    }
    // JSON round-trips with the new fields.
    let back = RunReport::from_json(&report.cells[1].to_json()).unwrap();
    assert_eq!(back, report.cells[1]);
}

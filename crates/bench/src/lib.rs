//! Experiment generators for every table and figure of the VEGETA
//! evaluation.
//!
//! Each `print_*` function regenerates one artifact of the paper and writes
//! it to stdout in the same rows/series the paper reports. The
//! `src/bin/*.rs` binaries are thin wrappers (one per table/figure), and the
//! `benches/figures.rs` bench target runs everything so that
//! `cargo bench` leaves a complete reproduction log.
//!
//! Absolute numbers differ from the paper (our substrate is a simulator
//! calibrated to the paper's microarchitectural parameters, not the
//! authors' RTL + MacSim installation); the *shapes* — who wins, by what
//! factor, where crossovers sit — are asserted by the test suite and
//! recorded against the paper in `EXPERIMENTS.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod lint_sweep;
pub mod perf_gate;
pub mod scaling;
pub mod serving;

pub use lint_sweep::{
    print_lint_sweep, print_replay_check, run_lint_sweep, run_replay_check, run_self_test,
};

/// The directory artifacts are written to: `$VEGETA_CSV_DIR` when set and
/// non-empty, else the current directory. Never a path fixed at compile
/// time, so a binary copied elsewhere writes where it runs.
pub(crate) fn artifact_dir() -> std::path::PathBuf {
    vegeta::report::requested_artifact_dir().unwrap_or_else(|| ".".into())
}

/// Writes a JSON artifact named `file_name` into [`artifact_dir`]; returns
/// the path on success. Shared by the perf-gate, scaling and serving
/// reports — artifact dumps log failures to stderr rather than aborting an
/// experiment.
pub(crate) fn write_artifact_json(
    file_name: &str,
    doc: &vegeta::json::JsonValue,
) -> Option<std::path::PathBuf> {
    let dir = artifact_dir();
    let path = dir.join(file_name);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.to_string())) {
        Ok(()) => {
            eprintln!("wrote {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            None
        }
    }
}

use rand::rngs::SmallRng;
use rand::SeedableRng;
use vegeta::engine::{dataflow, rowwise, schedule_sequence, CostModel, EngineConfig, TileOp};
use vegeta::json::JsonValue;
use vegeta::model::roofline::{effective_tflops, RooflineEngine, RooflineParams, RooflineWorkload};
use vegeta::model::{table1, GranularityHw, GranularityModel};
use vegeta::num::Matrix;
use vegeta::prelude::*;
use vegeta::sparse::prune;

/// Scale factor applied to layer shapes when quick mode is requested
/// (`VEGETA_QUICK=1`); keeps CI and `cargo bench` fast while preserving
/// every trend. Re-exported from [`vegeta::session::quick_factor`].
pub use vegeta::session::quick_factor;

/// Table I: sparsity-granularity support matrix.
pub fn print_tab01() {
    println!("## Table I: supported sparsity granularity of N:M designs");
    println!(
        "{:<12} {:>12} {:>10} {:>10} {:>9}",
        "design", "network-wise", "layer-wise", "tile-wise", "row-wise"
    );
    let mark = |b: bool| if b { "yes" } else { "-" };
    for row in table1() {
        println!(
            "{:<12} {:>12} {:>10} {:>10} {:>9}",
            row.design,
            mark(row.network_wise),
            mark(row.layer_wise),
            mark(row.tile_wise),
            mark(row.row_wise)
        );
    }
    println!("(S2TA tile-wise carries the paper's footnote: extendable, not claimed.)\n");
}

/// Table III: engine design points with derived parameters.
pub fn print_tab03() {
    println!("## Table III: VEGETA-D and VEGETA-S design points");
    println!(
        "{:<16} {:>5} {:>5} {:>11} {:>10} {:>9} {:>6} {:>20}",
        "engine", "Nrows", "Ncols", "MACs/PE", "inputs/PE", "bcast(a)", "drain", "sparsity"
    );
    for cfg in EngineConfig::table3() {
        let patterns: Vec<String> = cfg
            .supported_patterns()
            .iter()
            .map(ToString::to_string)
            .collect();
        println!(
            "{:<16} {:>5} {:>5} {:>11} {:>10} {:>9} {:>6} {:>20}",
            cfg.name(),
            cfg.nrows(),
            cfg.ncols(),
            cfg.macs_per_pe(),
            cfg.inputs_per_pe(),
            cfg.alpha(),
            cfg.drain_latency(),
            patterns.join("/")
        );
    }
    println!();
}

/// Table IV: evaluation layer dimensions and MAC counts.
pub fn print_tab04() {
    println!("## Table IV: DNN layers used in the evaluation");
    println!(
        "{:<14} {:<52} {:>14}",
        "workload", "dimensions", "# of MACs"
    );
    for layer in table4() {
        let dims = match layer.kind {
            vegeta::workloads::LayerKind::Conv(c) => format!(
                "K={}, C={}, Y={}, X={}, R={}, S={} (GEMM {}x{}x{})",
                c.k,
                c.c,
                c.y,
                c.x,
                c.r,
                c.s,
                c.to_gemm().m,
                c.to_gemm().n,
                c.to_gemm().k
            ),
            vegeta::workloads::LayerKind::Gemm(g) => {
                format!("M={}, N={}, K={}", g.m, g.n, g.k)
            }
        };
        println!("{:<14} {:<52} {:>14}", layer.name, dims, layer.macs());
    }
    println!();
}

/// Fig. 3: roofline effective throughput vs density.
pub fn print_fig03() {
    println!("## Figure 3: effective compute throughput (TFLOPS) vs density");
    let params = RooflineParams::default();
    let workload = RooflineWorkload::conv_layer();
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>14}",
        "density%", "sparse-matrix", "dense-matrix", "sparse-vector", "dense-vector"
    );
    for pct in (0..=100).step_by(5) {
        let d = pct as f64 / 100.0;
        let row: Vec<f64> = RooflineEngine::all()
            .iter()
            .map(|&e| effective_tflops(&params, e, &workload, d))
            .collect();
        println!(
            "{:>8} {:>14.4} {:>14.4} {:>14.4} {:>14.4}",
            pct, row[0], row[1], row[2], row[3]
        );
    }
    println!();
}

/// Fig. 4: executed-instruction and runtime ratios, vector over matrix.
pub fn print_fig04() {
    println!("## Figure 4: vector over matrix engine, equal-sized GEMMs");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "dim", "vec insts", "mat insts", "inst ratio", "vec cycles", "mat cycles", "runtime ratio"
    );
    // Motivation experiment: the matrix engine shares the core clock here
    // (Fig. 13's 0.5 GHz engine domain is a separate, later design choice).
    let sim = SimConfig {
        engine_ghz: 2.0,
        ..SimConfig::default()
    };
    let session = Session::new(EngineConfig::rasa_dm()).with_sim(sim);
    for dim in [32usize, 64, 128] {
        let shape = GemmShape::new(dim, dim, dim);
        let label = format!("gemm-{dim}");
        let vec = session.run(&Cell::shape(&label, shape, &KernelSpec::Vector));
        let mat = session.run(&Cell::shape(
            &label,
            shape,
            &KernelSpec::tiled(SparseMode::Dense),
        ));
        println!(
            "{:>6} {:>12} {:>12} {:>12.1} {:>12} {:>12} {:>14.1}",
            dim,
            vec.instructions,
            mat.instructions,
            vec.instructions as f64 / mat.instructions as f64,
            vec.cycles,
            mat.cycles,
            vec.cycles as f64 / mat.cycles as f64
        );
    }
    println!();
}

/// Fig. 5: PE utilization of dense vs VEGETA engines on sparse weights.
pub fn print_fig05() {
    println!("## Figure 5: MAC utilization with sparse weights");
    println!(
        "{:>8} {:>26} {:>28}",
        "weights", "dense engine (RASA-DM)", "VEGETA-S-2-2 (compressed)"
    );
    let mut rng = SmallRng::seed_from_u64(5);
    let c_in = Matrix::zeros(16, 16);
    for (label, ratio) in [
        ("4:4", NmRatio::D4_4),
        ("2:4", NmRatio::S2_4),
        ("1:4", NmRatio::S1_4),
    ] {
        let dense_util = dense_engine_utilization(ratio, 5);
        // VEGETA-S: same sparsity, compressed; every stored value non-zero.
        let eff_cols = 32 / ratio.n() as usize * 4;
        let eff_wide = prune::random_nm(16, eff_cols, ratio, &mut rng);
        let tile = vegeta::sparse::CompressedTile::compress(&eff_wide, ratio).expect("conforming");
        let meta: Vec<u8> = tile.indices().to_vec();
        let bt = prune::random_dense(16, eff_cols, &mut rng);
        let sparse_op = dataflow::TileWiseOp {
            a_values: tile.values(),
            a_meta: if ratio.is_dense() { None } else { Some(&meta) },
            ratio,
            bt: &bt,
            c_in: &c_in,
        };
        let sparse_util =
            dataflow::simulate_tile(&EngineConfig::vegeta_s(2).expect("valid"), &sparse_op)
                .expect("sparse tile op")
                .firing_utilization();
        println!(
            "{:>8} {:>25.0}% {:>27.0}%",
            label,
            dense_util * 100.0,
            sparse_util * 100.0
        );
    }
    println!();
}

/// Figs. 8/9: cycle-level execution of the three tile instructions on
/// VEGETA-S-2-2.
pub fn print_fig09() {
    println!("## Figures 8/9: tile instruction execution on VEGETA-S-2-2");
    let cfg = EngineConfig::vegeta_s(2).expect("valid alpha");
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>14}",
        "instruction", "eff. K", "WL cycles", "last output", "effectual MACs"
    );
    let mut rng = SmallRng::seed_from_u64(9);
    let c_in = Matrix::zeros(16, 16);
    for (name, ratio) in [
        ("TILE_GEMM", NmRatio::D4_4),
        ("TILE_SPMM_U", NmRatio::S2_4),
        ("TILE_SPMM_V", NmRatio::S1_4),
    ] {
        let eff_cols = 32 / ratio.n() as usize * 4;
        let eff = prune::random_nm(16, eff_cols, ratio, &mut rng);
        let tile = vegeta::sparse::CompressedTile::compress(&eff, ratio).expect("conforming");
        let meta: Vec<u8> = tile.indices().to_vec();
        let bt = prune::random_dense(16, eff_cols, &mut rng);
        let op = dataflow::TileWiseOp {
            a_values: tile.values(),
            a_meta: if ratio.is_dense() { None } else { Some(&meta) },
            ratio,
            bt: &bt,
            c_in: &c_in,
        };
        let res = dataflow::simulate_tile(&cfg, &op).expect("supported op");
        println!(
            "{:<14} {:>10} {:>12} {:>12} {:>14}",
            name,
            eff_cols,
            cfg.wl_latency(),
            res.last_output_cycle,
            res.effectual_macs
        );
    }
    println!();
}

/// Fig. 10: pipelining with and without output forwarding.
pub fn print_fig10() {
    println!("## Figure 10: pipelined tile instructions (start cycles)");
    let chains: [(&str, Vec<TileOp>); 2] = [
        ("independent", (0..4).map(|i| TileOp { acc: i }).collect()),
        ("dependent (same C)", vec![TileOp { acc: 2 }; 4]),
    ];
    for (engine_name, cfg) in [
        ("VEGETA-D-1-2", EngineConfig::rasa_dm()),
        ("VEGETA-S-16-2", EngineConfig::vegeta_s(16).expect("valid")),
        (
            "VEGETA-S-16-2+OF",
            EngineConfig::vegeta_s(16)
                .expect("valid")
                .with_output_forwarding(true),
        ),
    ] {
        for (chain_name, ops) in &chains {
            let (timings, total) = schedule_sequence(&cfg, ops);
            let starts: Vec<String> = timings.iter().map(|t| t.start.to_string()).collect();
            println!(
                "{:<18} {:<20} starts=[{}] makespan={}",
                engine_name,
                chain_name,
                starts.join(", "),
                total
            );
        }
    }
    println!();
}

/// Runs the full Fig. 13 grid — 12 layers × 10 engines × {4:4, 2:4, 1:4} —
/// on the parallel [`Sweep`] runner with a shared trace cache.
pub fn figure13_sweep(quick: usize) -> SweepReport {
    Sweep::figure13().with_scale(quick).run()
}

/// Writes the per-engine geomean speedups of a Fig. 13 sweep to
/// `BENCH_fig13.json` in `$VEGETA_CSV_DIR` (when set) or the current
/// directory, so the performance trajectory is machine-readable across
/// PRs — the cycle counts are simulated, so quick-mode output is
/// deterministic and diffable. Returns the path on success.
///
/// The committed copy at the repository root is the `VEGETA_QUICK=1`
/// baseline; full-size runs therefore only write when `$VEGETA_CSV_DIR`
/// names an explicit destination, so regenerating the figure at full scale
/// never dirties the tracked quick-mode artifact.
pub fn write_fig13_json(report: &SweepReport, quick: usize) -> Option<std::path::PathBuf> {
    if vegeta::report::requested_artifact_dir().is_none() && quick <= 1 {
        eprintln!(
            "skipping BENCH_fig13.json: full-size run and no VEGETA_CSV_DIR \
             (the tracked artifact is the quick-mode baseline)"
        );
        return None;
    }
    write_fig13_json_to(report, quick, &artifact_dir())
}

/// [`write_fig13_json`] with an explicit output directory.
pub fn write_fig13_json_to(
    report: &SweepReport,
    quick: usize,
    dir: &std::path::Path,
) -> Option<std::path::PathBuf> {
    let baseline = EngineConfig::rasa_dm().name().to_string();
    let mut per_sparsity = Vec::new();
    for sparsity in report.sparsities() {
        let mut per_engine = Vec::new();
        for engine in report.engines() {
            if let Some(g) = report.geomean_speedup(&baseline, engine, sparsity) {
                per_engine.push((engine.to_string(), JsonValue::from(g)));
            }
        }
        per_sparsity.push((sparsity.to_string(), JsonValue::Object(per_engine)));
    }
    // Only simulator-derived (deterministic) fields belong here: the file
    // is committed, and host details like thread count would make every
    // regeneration a spurious diff.
    let doc = JsonValue::Object(vec![
        ("figure".into(), "fig13".into()),
        ("baseline".into(), baseline.into()),
        ("quick_factor".into(), quick.into()),
        ("cells".into(), report.cells.len().into()),
        ("traces_built".into(), report.traces_built.into()),
        ("trace_cache_hits".into(), report.trace_cache_hits.into()),
        (
            "geomean_speedup_vs_baseline".into(),
            JsonValue::Object(per_sparsity),
        ),
    ]);
    let path = dir.join("BENCH_fig13.json");
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc.to_string())) {
        Ok(()) => {
            eprintln!("wrote {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            None
        }
    }
}

/// Fig. 13: normalized runtime for every layer/engine/sparsity combination.
pub fn print_fig13() {
    let quick = quick_factor();
    if quick > 1 {
        println!("## Figure 13 (quick mode: layer dims / {quick})");
    } else {
        println!("## Figure 13: normalized runtime per layer/engine/sparsity");
    }
    let report = figure13_sweep(quick);
    report.save_csv("fig13_runtime");
    write_fig13_json(&report, quick);
    let max_cycles = report.max_cycles().expect("non-empty grid") as f64;
    println!("(normalized to the longest runtime, as in the paper)");
    let engines = figure13_engines();
    print!("{:<14} {:>4}", "layer", "spar");
    for e in &engines {
        let short = short_engine_name(e);
        print!(" {short:>9}");
    }
    println!();
    for layer in table4() {
        for sparsity in ["4:4", "2:4", "1:4"] {
            print!("{:<14} {:>4}", layer.name, sparsity);
            for engine in &engines {
                let cell = report
                    .get(layer.name, engine.name(), sparsity)
                    .expect("cell computed");
                print!(" {:>9.4}", cell.cycles as f64 / max_cycles);
            }
            println!();
        }
    }
    println!();
    println!(
        "(sweep ran on {} threads; {} traces built, {} cache hits; cache: \
         {} entries)",
        report.threads, report.traces_built, report.trace_cache_hits, report.cache.entries
    );
    // Summary speedups vs RASA-DM (the paper's headline comparison).
    let dm = EngineConfig::rasa_dm().name().to_string();
    let best = figure13_engines()
        .last()
        .expect("non-empty lineup")
        .name()
        .to_string();
    for sparsity in ["4:4", "2:4", "1:4"] {
        let g = report
            .geomean_speedup(&dm, &best, sparsity)
            .expect("complete grid");
        println!("geomean speedup of VEGETA-S-16-2+OF over RASA-DM at {sparsity}: {g:.2}x");
    }
    println!();
}

fn short_engine_name(e: &EngineConfig) -> String {
    let name = e.name();
    let short = if name.starts_with("RASA-SM") {
        "RASA-SM"
    } else if name.starts_with("RASA-DM") {
        "RASA-DM"
    } else if name.starts_with("TMUL") {
        "TMUL"
    } else if name.starts_with("STC") {
        "STC"
    } else {
        name
    };
    // The name already carries the "+OF" suffix for forwarding variants.
    short.replace("VEGETA-", "V-")
}

/// Fig. 14: area/power normalized to RASA-SM, and maximum frequency.
pub fn print_fig14() {
    println!("## Figure 14: area & power (normalized to RASA-SM) and max frequency");
    let model = CostModel::default();
    let base = EngineConfig::rasa_sm();
    println!(
        "{:<16} {:>10} {:>10} {:>12}",
        "engine", "norm area", "norm power", "freq (GHz)"
    );
    for cfg in EngineConfig::table3() {
        let (a, p) = model.normalized(&cfg, &base);
        let f = model.evaluate(&cfg).frequency_ghz;
        println!("{:<16} {:>10.3} {:>10.3} {:>12.3}", cfg.name(), a, p, f);
    }
    println!("(all designs meet the 0.5 GHz evaluation clock)\n");
}

/// Fig. 15: average speedup by sparsity-granularity support, 60–95% degrees.
pub fn print_fig15() {
    let quick = quick_factor();
    println!("## Figure 15: normalized speed-up vs unstructured sparsity degree");
    let model = GranularityModel::default();
    let hws = GranularityHw::all();
    print!("{:>8}", "degree%");
    for hw in &hws {
        let name = hw.name().split(' ').next().expect("non-empty name");
        print!(" {name:>12}");
    }
    println!();
    for pct in [60u32, 65, 70, 75, 80, 85, 90, 95] {
        let degree = pct as f64 / 100.0;
        print!("{pct:>8}");
        for hw in &hws {
            let speedups: Vec<f64> = table4()
                .iter()
                .enumerate()
                .map(|(i, layer)| {
                    let shape = layer.scaled_shape(quick);
                    let mut rng = SmallRng::seed_from_u64(1000 + i as u64 + pct as u64 * 13);
                    let a = prune::random_unstructured(shape.m, shape.k, degree, &mut rng);
                    model.speedup(*hw, &a)
                })
                .collect();
            print!(
                " {:>12.3}",
                speedups.iter().sum::<f64>() / speedups.len() as f64
            );
        }
        println!();
    }
    println!();
}

/// The §I headline: speedups of VEGETA-S-16-2(+OF) over the SOTA dense
/// engine (RASA-DM) at 4:4 / 2:4 / 1:4 / unstructured-95%.
pub fn print_headline() {
    let fidelity = Fidelity::from_env();
    println!("## Headline speedups vs RASA-DM (paper: 1.09x / 2.20x / 3.74x / 3.28x)");
    let cache = std::sync::Arc::new(TraceCache::new());
    let dm = Session::new(EngineConfig::rasa_dm()).with_cache(std::sync::Arc::clone(&cache));
    let s16 = Session::new(
        EngineConfig::vegeta_s(16)
            .expect("valid")
            .with_output_forwarding(true),
    )
    .with_cache(cache);
    for (label, ratio) in [
        ("4:4", NmRatio::D4_4),
        ("2:4", NmRatio::S2_4),
        ("1:4", NmRatio::S1_4),
    ] {
        let ratios: Vec<f64> = table4()
            .iter()
            .map(|layer| {
                let cell = Cell::layer(layer, fidelity, ratio);
                dm.run(&cell).cycles as f64 / s16.run(&cell).cycles as f64
            })
            .collect();
        println!(
            "  {label}: {:.2}x",
            geomean(&ratios).expect("twelve layers")
        );
    }
    // Unstructured 95%: the row-wise transform's compute-bound speedup.
    let model = GranularityModel::default();
    let speedups: Vec<f64> = table4()
        .iter()
        .enumerate()
        .map(|(i, layer)| {
            let shape = fidelity.shape_of(layer);
            let mut rng = SmallRng::seed_from_u64(7000 + i as u64);
            let a = prune::random_unstructured(shape.m, shape.k, 0.95, &mut rng);
            model.speedup(GranularityHw::RowWise, &a)
        })
        .collect();
    println!(
        "  unstructured-95%: {:.2}x",
        speedups.iter().sum::<f64>() / speedups.len() as f64
    );
    println!();
}

/// Ablation: Listing-1 naive kernel vs the optimized kernel (register reuse
/// and accumulator rotation), run on VEGETA-S-16-2.
pub fn print_kernel_ablation() {
    let quick = quick_factor();
    println!("## Ablation: Listing-1 naive kernel vs optimized kernel (VEGETA-S-16-2+OF)");
    let session = Session::new(
        EngineConfig::vegeta_s(16)
            .expect("valid")
            .with_output_forwarding(true),
    );
    println!(
        "{:<14} {:>12} {:>12} {:>9}",
        "layer", "naive cyc", "opt cyc", "speedup"
    );
    for layer in table4().iter().take(4) {
        let shape = layer.scaled_shape(quick.max(2));
        let naive = session.run(&Cell::shape(
            layer.name,
            shape,
            &KernelSpec::Listing1 {
                mode: SparseMode::Nm2of4,
            },
        ));
        let opt = session.run(&Cell::shape(
            layer.name,
            shape,
            &KernelSpec::tiled(SparseMode::Nm2of4),
        ));
        println!(
            "{:<14} {:>12} {:>12} {:>9.2}",
            layer.name,
            naive.cycles,
            opt.cycles,
            naive.cycles as f64 / opt.cycles as f64
        );
    }
    println!();
}

/// Ablation: output forwarding on/off across the VEGETA-S family.
pub fn print_of_ablation() {
    let quick = quick_factor().max(2);
    println!("## Ablation: output forwarding across VEGETA-S designs (2:4 BERT-L2)");
    let layer = table4()[7];
    let shape = layer.scaled_shape(quick);
    let rotated_spec = KernelSpec::tiled(SparseMode::Nm2of4);
    // A dependent variant: a single accumulator serializes the k loop.
    let dep_spec = KernelSpec::Tiled {
        mode: SparseMode::Nm2of4,
        opts: KernelOptions {
            unroll: 1,
            loop_overhead: true,
        },
    };
    println!(
        "{:<14} {:>14} {:>14} {:>14}",
        "engine", "rotated accs", "1 acc, no OF", "1 acc, OF"
    );
    let cache = std::sync::Arc::new(TraceCache::new());
    for alpha in [1usize, 2, 4, 8, 16] {
        let base = EngineConfig::vegeta_s(alpha).expect("valid");
        let session = Session::new(base.clone()).with_cache(std::sync::Arc::clone(&cache));
        let of_session = Session::new(base.with_output_forwarding(true))
            .with_cache(std::sync::Arc::clone(&cache));
        let rotated = session.run(&Cell::shape(layer.name, shape, &rotated_spec));
        let no_of = session.run(&Cell::shape(layer.name, shape, &dep_spec));
        let with_of = of_session.run(&Cell::shape(layer.name, shape, &dep_spec));
        println!(
            "{:<14} {:>14} {:>14} {:>14}",
            format!("VEGETA-S-{alpha}-2"),
            rotated.cycles,
            no_of.cycles,
            with_of.cycles
        );
    }
    println!();
}

/// Row-wise packing summary (Fig. 11 / §V-E bookkeeping).
pub fn print_rowwise_packing() {
    println!("## Row-wise packing (SS V-E): TILE_SPMM_R tiles per sparsity degree");
    let model_rows = 256usize;
    println!(
        "{:>8} {:>12} {:>16} {:>16}",
        "degree%", "tiles", "mean util", "rows/tile"
    );
    for pct in [60u32, 80, 90, 95] {
        let mut rng = SmallRng::seed_from_u64(42 + pct as u64);
        let a = prune::random_unstructured(model_rows, 64, pct as f64 / 100.0, &mut rng);
        let mut covers = vegeta::sparse::transform::row_covers(&a, 4).expect("m=4");
        covers.sort();
        let tiles = rowwise::pack_rows(&covers);
        let stats = rowwise::packing_stats(&tiles);
        println!(
            "{:>8} {:>12} {:>16.3} {:>16.1}",
            pct,
            stats.instructions,
            stats.mean_utilization,
            stats.rows as f64 / stats.instructions as f64
        );
    }
    println!();
}

/// §VII analysis: dynamic-sparsity compaction feasibility for vector vs
/// tile registers.
pub fn print_dynamic_sparsity() {
    println!("## SS VII: dynamic sparsity via register compaction (SAVE-style merging)");
    println!(
        "{:>9} {:>20} {:>20} {:>18} {:>18}",
        "density%",
        "P(conflict) vec-32",
        "P(conflict) tile-512",
        "merge factor vec",
        "merge factor tile"
    );
    for pct in [5u32, 10, 20, 30, 50] {
        let d = pct as f64 / 100.0;
        let mut rng = SmallRng::seed_from_u64(600 + pct as u64);
        let vec_stats = vegeta::model::simulate_compaction(
            2000,
            vegeta::model::dynamic::VECTOR_REG_SLOTS,
            d,
            &mut rng,
        );
        let tile_stats = vegeta::model::simulate_compaction(
            2000,
            vegeta::model::dynamic::TILE_REG_SLOTS,
            d,
            &mut rng,
        );
        println!(
            "{:>9} {:>20.4} {:>20.4} {:>18.2} {:>18.2}",
            pct,
            vegeta::model::merge_conflict_probability(d, 32),
            vegeta::model::merge_conflict_probability(d, 512),
            vec_stats.merge_factor(),
            tile_stats.merge_factor()
        );
    }
    println!(
        "(the paper's conclusion: compaction pays on 32-slot vector registers but\n\
         collides almost surely on 512-slot tiles -- dynamic sparsity needs a\n\
         different mechanism, left as future work)\n"
    );
}

/// MAC utilization of the dense engine running sparse weights in dense
/// format (the Fig. 5 under-utilization numbers).
pub fn dense_engine_utilization(ratio: NmRatio, seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let eff = prune::random_nm(16, 32, ratio, &mut rng);
    let bt = prune::random_dense(16, 32, &mut rng);
    let c_in = Matrix::<f32>::zeros(16, 16);
    let op = dataflow::TileWiseOp {
        a_values: &eff,
        a_meta: None,
        ratio: NmRatio::D4_4,
        bt: &bt,
        c_in: &c_in,
    };
    dataflow::simulate_tile(&EngineConfig::rasa_dm(), &op)
        .expect("dense op always supported")
        .firing_utilization()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_dense_utilizations_match_paper() {
        assert!((dense_engine_utilization(NmRatio::S2_4, 1) - 0.5).abs() < 1e-9);
        assert!((dense_engine_utilization(NmRatio::S1_4, 2) - 0.25).abs() < 1e-9);
        assert!((dense_engine_utilization(NmRatio::D4_4, 3) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig13_vegeta_beats_dense_baseline_on_sparse_layer() {
        let shape = GemmShape::new(32, 32, 256);
        let cycles: Vec<u64> = [EngineConfig::rasa_dm(), EngineConfig::vegeta_s(16).unwrap()]
            .into_iter()
            .map(|engine| {
                Session::new(engine)
                    .run(&Cell::shape("bench-smoke", shape, NmRatio::S2_4))
                    .cycles
            })
            .collect();
        assert!(
            cycles[1] < cycles[0],
            "VEGETA-S must beat RASA-DM on a 2:4 layer"
        );
    }

    #[test]
    fn fig13_json_artifact_is_valid_and_complete() {
        let small = Sweep::new()
            .with_engines(figure13_engines())
            .with_layers(table4().into_iter().take(2))
            .with_sparsities(figure13_sparsities())
            .with_scale(16)
            .run();
        // Process-unique dir: no env mutation, no clash with parallel runs.
        let dir = std::env::temp_dir().join(format!("vegeta_bench_json_{}", std::process::id()));
        let path = write_fig13_json_to(&small, 16, &dir).expect("json written");
        let text = std::fs::read_to_string(&path).expect("readable");
        let doc = JsonValue::parse(&text).expect("valid JSON");
        let speedups = doc
            .get("geomean_speedup_vs_baseline")
            .expect("speedup section");
        let at_14 = speedups.get("1:4").expect("1:4 sparsity present");
        let of_name = figure13_engines().last().unwrap().name().to_string();
        assert_eq!(of_name, "VEGETA-S-16-2+OF");
        let best = at_14
            .get(&of_name)
            .and_then(JsonValue::as_f64)
            .expect("best engine present");
        assert!(best > 1.0, "VEGETA-S-16-2+OF must beat RASA-DM at 1:4");
        // The +OF variant must be its own column, not collapsed onto the
        // non-OF design point: ten engines in, ten engines out.
        assert_eq!(small.engines().len(), figure13_engines().len());
        std::fs::remove_dir_all(&dir).ok();
    }
}

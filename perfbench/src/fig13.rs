//! `fig13_sweep`: the full-size Fig. 13 grid, 12 Table IV layers x 10
//! engines x {4:4, 2:4, 1:4} = 360 single-core cells, through
//! `Sweep::figure13()` on one sweep thread per host CPU. Timed passes run
//! it as one sweep per layer (see [`pieces`]).

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use vegeta::isa::stream::InstStream;
use vegeta::json::JsonValue;
use vegeta::prelude::*;
use vegeta_bench::perf_gate::compare_geomeans;

use crate::expected::{cycles_insts, Table};
use crate::trace::Trace;
use crate::{cpu_seconds, Metric, PassStats, Split, Tally};

/// Cells in one pass.
pub const CELLS: u64 = 360;

/// The layer scale of the committed `BENCH_fig13.json` baseline.
const BASELINE_QUICK_FACTOR: usize = 4;

/// The committed baseline the quick-scale cross-check reads.
const BASELINE_PATH: &str = "BENCH_fig13.json";

pub fn expected() -> Table {
    Table::parse(include_str!("../expected/fig13_sweep.tsv"), "", 2)
}

/// The grid, with a fresh trace cache and preflight memo.
pub fn grid(threads: usize) -> Sweep {
    Sweep::figure13().with_threads(threads)
}

/// The grid split into one sweep per Table IV layer, each with a fresh
/// trace cache and preflight memo: together they run exactly the cells of
/// [`grid`] in the same order. No trace is shared across layers (every
/// layer has its own shape), so the split builds the same 36 traces.
pub fn pieces(threads: usize) -> Vec<Sweep> {
    table4()
        .into_iter()
        .map(|layer| {
            Sweep::new()
                .with_engines(figure13_engines())
                .with_layer(layer)
                .with_sparsities(figure13_sparsities())
                .with_threads(threads)
        })
        .collect()
}

/// A cell's label in the expected tables.
pub fn label(c: &RunReport) -> String {
    format!("{}\t{}\t{}\t{}", c.workload, c.engine, c.sparsity, c.cores)
}

/// Runs `grid` and builds the JSON and CSV reports a user of the figure
/// reads; returns the report and the seconds both took.
fn run(grid: &Sweep) -> (SweepReport, f64) {
    let start = Instant::now();
    let report = grid.run();
    black_box((report.to_json(), report.to_csv()));
    (report, start.elapsed().as_secs_f64())
}

/// Checks every cell of a run of `grid` against the expected table.
pub fn check(grid: &Sweep, report: &SweepReport, expected: &Table, tally: &mut Tally) {
    for c in &report.cells {
        tally.op(expected.check(&label(c), &cycles_insts(c.cycles, c.instructions)));
    }
    tally.missing(grid.cell_count() as u64, report.cells.len(), "sweep cells");
}

/// One timed run of a freshly built grid or piece of it.
pub fn pass(grid: &Sweep, expected: &Table, tally: &mut Tally) -> PassStats {
    let (report, wall_s) = run(grid);
    check(grid, &report, expected, tally);
    PassStats {
        wall_s,
        sim_insts: report.cells.iter().map(|c| c.instructions).sum(),
        served: report.cells.len() as u64,
    }
}

/// The per-engine geomean speedups over RASA-DM, in the layout of the
/// committed `BENCH_fig13.json`.
fn geomean_doc(report: &SweepReport) -> JsonValue {
    let baseline = EngineConfig::rasa_dm().name().to_string();
    let per_sparsity = report
        .sparsities()
        .into_iter()
        .map(|sparsity| {
            let per_engine = report
                .engines()
                .into_iter()
                .filter_map(|e| {
                    let g = report.geomean_speedup(&baseline, e, sparsity)?;
                    Some((e.to_string(), JsonValue::from(g)))
                })
                .collect();
            (sparsity.to_string(), JsonValue::Object(per_engine))
        })
        .collect();
    JsonValue::Object(vec![(
        "geomean_speedup_vs_baseline".into(),
        JsonValue::Object(per_sparsity),
    )])
}

/// Re-runs the grid at the baseline's quick scale and compares its
/// geomeans with the committed `BENCH_fig13.json`, which it only reads.
/// One operation; a mismatch fails it without stopping the run.
pub fn cross_check(threads: usize, tally: &mut Tally) {
    let baseline = std::fs::read_to_string(BASELINE_PATH)
        .map_err(|e| format!("cannot read {BASELINE_PATH}: {e}"))
        .and_then(|text| {
            JsonValue::parse(&text).map_err(|e| format!("{BASELINE_PATH} is not JSON: {e:?}"))
        });
    let problem = match baseline {
        Err(why) => Some(why),
        Ok(baseline) => {
            let report = Sweep::figure13()
                .with_scale(BASELINE_QUICK_FACTOR)
                .with_threads(threads)
                .run();
            compare_geomeans(&baseline, &geomean_doc(&report), 1e-12)
                .err()
                .map(|f| format!("{BASELINE_PATH} cross-check: {}", f.join("; ")))
        }
    };
    tally.op(problem);
}

/// The traced run: the grid once untraced, once inside spans, then every
/// cell piece by piece on one thread (lint on each distinct stream, as
/// the preflight memo does; the stream drained with no consumer; the
/// core over the materialized trace).
pub fn traced(threads: usize, expected: &Table, tally: &mut Tally, trace: &mut Trace) -> Split {
    let (_, untraced_s) = run(&grid(threads));

    let grid = grid(threads);
    let root = trace.open("fig13_sweep", None);
    let sweep = trace.open("session.sweep", Some(root));
    let cpu_before = cpu_seconds();
    let report = grid.run();
    let sweep_cpu_s = cpu_seconds() - cpu_before;
    let sweep_s = trace.close(sweep);
    let rep = trace.open("session.report", Some(root));
    black_box((report.to_json(), report.to_csv()));
    let report_s = trace.close(rep);
    let traced_s = trace.close(root);
    check(&grid, &report, expected, tally);

    let pieces = trace.open("fig13_sweep.pieces", None);
    let cache = TraceCache::new();
    let mut verified = HashSet::new();
    let (mut lint_ops, mut emitted, mut insts) = (0u64, 0u64, 0u64);
    let mut l1 = vegeta::sim::CacheStats::default();
    let mut cells = report.cells.iter();
    for layer in table4() {
        let shape = Fidelity::Full.shape_of(&layer);
        for ratio in figure13_sparsities() {
            for engine in figure13_engines() {
                let spec = engine.kernel_spec(ratio, KernelOptions::default());
                if verified.insert((shape, spec.clone())) {
                    let lint = trace.span("lint.verify_spec", Some(pieces), || {
                        vegeta::lint::verify_spec(&spec, shape)
                    });
                    lint_ops += lint.ops_checked;
                    tally.op((!lint.is_clean()).then(|| format!("lint: {lint}")));
                }
                emitted += trace.span("kernels.emit", Some(pieces), || {
                    let mut stream = cache.stream(shape, &spec);
                    let mut ops = 0u64;
                    while let Some(op) = stream.next_op() {
                        black_box(op);
                        ops += 1;
                    }
                    ops
                });
                let materialized = spec.stream(shape).collect_trace();
                let res = trace.span("sim.core", Some(pieces), || {
                    CoreSim::new(SimConfig::default(), engine.clone()).run(&materialized)
                });
                insts += res.instructions;
                l1 += &res.cache;
                let who = format!("{}\t{}\t{ratio}", layer.name, engine.name());
                tally.op(match cells.next() {
                    Some(c)
                        if c.cycles == res.core_cycles && c.instructions == res.instructions =>
                    {
                        None
                    }
                    Some(c) => Some(format!(
                        "{who}: pieces ran {} cycles / {} insts, entry point {} / {}",
                        res.core_cycles, res.instructions, c.cycles, c.instructions
                    )),
                    None => Some(format!("{who}: missing from the entry point's report")),
                });
            }
        }
    }
    trace.close(pieces);

    let lint_s = trace.total("lint.verify_spec");
    let emit_s = trace.total("kernels.emit");
    let core_s = trace.total("sim.core");
    let l1_accesses = l1.l1_hits + l1.l2_hits;
    let lookups = report.traces_built + report.trace_cache_hits;
    Split {
        metrics: vec![
            Metric::new("kernels.emit_s", emit_s, "s"),
            Metric::new(
                "kernels.emit_ns_per_op",
                emit_s * 1e9 / emitted as f64,
                "ns",
            ),
            Metric::new(
                "kernels.trace_cache_hit_ratio",
                report.trace_cache_hits as f64 / lookups as f64,
                "ratio",
            ),
            Metric::new("sim.core_s", core_s, "s"),
            Metric::new("sim.core_ns_per_inst", core_s * 1e9 / insts as f64, "ns"),
            Metric::new("sim.insts", insts as f64, "count"),
            Metric::new("sim.l1_accesses", l1_accesses as f64, "count"),
            Metric::new(
                "sim.l1_hit_ratio",
                l1.l1_hits as f64 / l1_accesses as f64,
                "ratio",
            ),
            // The pool's thread-seconds that ran no code: imbalance at the
            // tail, waiting and scheduling. Measured within the one entry
            // point run, so host noise between runs cannot flip its sign.
            Metric::new(
                "session.overhead_s",
                sweep_s * report.threads as f64 - sweep_cpu_s,
                "s",
            ),
            Metric::new("session.report_s", report_s, "s"),
        ],
        lint_s,
        lint_ops,
        tracing_overhead_s: traced_s - untraced_s,
        host_threads: report.threads,
    }
}

/// Prints the expected table rows of one pass.
pub fn emit_expected(threads: usize) {
    for c in &grid(threads).run().cells {
        println!("{}\t{}", label(c), cycles_insts(c.cycles, c.instructions));
    }
}

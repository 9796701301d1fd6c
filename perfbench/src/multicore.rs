//! `multicore_scaling`: 12 Table IV layers x the three perf-gate engines
//! x {8, 16, 32} simulated cores at 2:4, full size, LPT shard sets (108
//! cells). The sweep itself runs on one thread, so all host parallelism
//! comes from `MultiCoreSim`'s own threads. Timed passes run it as one
//! sweep per layer (see [`pieces`]).

use std::collections::HashSet;
use std::time::Instant;

use vegeta::prelude::*;
use vegeta_bench::perf_gate::perf_gate_engines;

use crate::expected::{cycles_insts, Table};
use crate::fig13::{check, label};
use crate::trace::Trace;
use crate::{Metric, PassStats, Split, Tally};

/// Simulated core counts of the grid.
const CORES: [usize; 3] = [8, 16, 32];

/// Cells in one pass.
pub const CELLS: u64 = 108;

pub fn expected() -> Table {
    Table::parse(include_str!("../expected/multicore_scaling.tsv"), "", 2)
}

/// The grid over `layers`, with a fresh trace cache and preflight memo.
/// One sweep thread leaves every host CPU to each cell's
/// `ExecMode::ParallelHost(nproc)`.
fn grid_of(layers: impl IntoIterator<Item = Layer>) -> Sweep {
    Sweep::new()
        .with_engines(perf_gate_engines())
        .with_layers(layers)
        .with_sparsity(NmRatio::S2_4)
        .with_cores(CORES)
        .with_threads(1)
}

/// The whole grid.
pub fn grid() -> Sweep {
    grid_of(table4())
}

/// The grid split into one sweep per Table IV layer: together they run
/// exactly the cells of [`grid`] in the same order, and no trace or shard
/// set is shared across layers.
pub fn pieces() -> Vec<Sweep> {
    table4().into_iter().map(|layer| grid_of([layer])).collect()
}

fn run(grid: &Sweep) -> (SweepReport, f64) {
    let start = Instant::now();
    let report = grid.run();
    (report, start.elapsed().as_secs_f64())
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

/// Replays one shard set on `cores` simulated cores under `exec`.
fn replay(
    engine: &EngineConfig,
    set: ShardSet,
    cores: usize,
    exec: ExecMode,
) -> vegeta::sim::MultiCoreResult {
    MultiCoreSim::new(
        MultiCoreConfig::with_core(SimConfig::default(), cores).with_exec(exec),
        engine.clone(),
    )
    .run_sharded(set.shards, set.reduction, SchedulerPolicy::Lpt)
}

/// The traced run: the grid once untraced, once inside a span, then every
/// cell piece by piece: shard planning, lint on each distinct shard set
/// (as the preflight memo does), and the sharded replay under
/// `ExecMode::Auto` and again under `ExecMode::Sequential`.
pub fn traced(expected: &Table, tally: &mut Tally, trace: &mut Trace) -> Split {
    let (_, untraced_s) = run(&grid());

    let grid = grid();
    let root = trace.open("multicore_scaling", None);
    let sweep = trace.open("session.sweep", Some(root));
    let report = grid.run();
    trace.close(sweep);
    let traced_s = trace.close(root);
    check(&grid, &report, expected, tally);

    let pieces = trace.open("multicore_scaling.pieces", None);
    let mut verified = HashSet::new();
    let (mut lint_ops, mut insts) = (0u64, 0u64);
    let mut l2 = SharedL2Stats::default();
    let mut cells = report.cells.iter();
    for layer in table4() {
        let shape = Fidelity::Full.shape_of(&layer);
        for cores in CORES {
            for engine in perf_gate_engines() {
                let spec = engine.kernel_spec(NmRatio::S2_4, KernelOptions::default());
                if verified.insert((shape, spec.clone(), cores)) {
                    let lint = trace.span("lint.verify_shard_set", Some(pieces), || {
                        vegeta::lint::verify_shard_set(&spec, shape, cores)
                    });
                    lint_ops += lint.ops_checked;
                    tally.op((!lint.is_clean()).then(|| format!("lint: {lint}")));
                }
                let set = trace.span("kernels.shard_set", Some(pieces), || {
                    spec.shard_set(shape, cores)
                });
                let auto = trace.span("sim.multicore", Some(pieces), || {
                    replay(&engine, set, cores, ExecMode::Auto)
                });
                let set = spec.shard_set(shape, cores);
                let seq = trace.span("sim.multicore_seq", Some(pieces), || {
                    replay(&engine, set, cores, ExecMode::Sequential)
                });
                insts += auto.instructions();
                l2.accesses += auto.shared_l2.accesses;
                l2.shared_hits += auto.shared_l2.shared_hits;
                let who = format!("{}\t{}\t{cores}", layer.name, engine.name());
                tally.op(match cells.next() {
                    Some(c)
                        if [auto.core_cycles, seq.core_cycles] == [c.cycles; 2]
                            && [auto.instructions(), seq.instructions()] == [c.instructions; 2] =>
                    {
                        None
                    }
                    Some(c) => Some(format!(
                        "{who}: pieces ran {}/{} cycles (auto/sequential), entry point {}",
                        auto.core_cycles, seq.core_cycles, c.cycles
                    )),
                    None => Some(format!("{who}: missing from the entry point's report")),
                });
            }
        }
    }
    trace.close(pieces);

    let multicore_s = trace.total("sim.multicore");
    let seq_s = trace.total("sim.multicore_seq");
    Split {
        metrics: vec![
            Metric::new("kernels.shard_s", trace.total("kernels.shard_set"), "s"),
            Metric::new("sim.multicore_s", multicore_s, "s"),
            Metric::new(
                "sim.multicore_ns_per_inst",
                multicore_s * 1e9 / insts as f64,
                "ns",
            ),
            Metric::new("sim.multicore_seq_s", seq_s, "s"),
            Metric::new("sim.multicore_host_speedup", seq_s / multicore_s, "x"),
            Metric::new("sim.l2_accesses", l2.accesses as f64, "count"),
            Metric::new("sim.l2_shared_hits", l2.shared_hits as f64, "count"),
        ],
        lint_s: trace.total("lint.verify_shard_set"),
        lint_ops,
        tracing_overhead_s: traced_s - untraced_s,
        host_threads: MultiCoreConfig::new(CORES[0])
            .with_exec(ExecMode::Auto)
            .resolved_host_threads(),
    }
}

/// Prints the expected table rows of one pass.
pub fn emit_expected() {
    for c in &grid().run().cells {
        println!("{}\t{}", label(c), cycles_insts(c.cycles, c.instructions));
    }
}

//! The `vegeta_lint` binary's sweep: statically verify every kernel
//! stream the Fig. 13 evaluation replays, plus the multi-core shard
//! decompositions behind the scaling experiments — before (and without)
//! simulating any of them.
//!
//! Two halves, mirroring the verifier's two obligations:
//!
//! * **Acceptance sweep** ([`run_lint_sweep`]) — collects every distinct
//!   `(shape, kernel)` cell of the Fig. 13 grid (ten engines × twelve
//!   Table IV layers × three sparsities, deduped through the same
//!   [`EngineKernelExt::kernel_spec`] selection the sweep runner uses),
//!   widens it with the kernel families Fig. 13 does not exercise
//!   (row-wise §V-E, Listing 1, the vector fallback), and verifies each
//!   cell unsharded plus across the strong-scaling core counts as the
//!   2D/K-split shard sets LPT packs. Any diagnostic is a failure.
//! * **Rejection self-test** ([`run_self_test`]) — replays the mutation
//!   corpus ([`vegeta::lint::run_corpus`]): one seeded defect per
//!   operator, each of which must be rejected with its expected
//!   diagnostic code. A verifier that accepts everything is worthless;
//!   this half proves the sweep's green is meaningful.
//!
//! Honors `VEGETA_QUICK=1` like every other driver.

use std::collections::HashSet;

use vegeta::lint::{verify_shard_set, verify_spec, Report};
use vegeta::prelude::*;

/// Core counts the shard-plan sweep verifies (the strong-scaling axis of
/// the scaling experiments).
pub const LINT_SWEEP_CORES: [usize; 4] = [2, 4, 8, 16];

/// One verified cell of the sweep: its label, the number of streams and
/// ops walked, and any diagnostics found.
#[derive(Debug)]
pub struct LintCell {
    /// `workload/kernel@sparsity` label for the report table.
    pub label: String,
    /// Merged verification report across the cell's unsharded stream and
    /// every sharded decomposition.
    pub report: Report,
}

/// Synthesizes the deterministic per-row §V-E cover mix used for the
/// row-wise family cell (the densest-to-sparsest spread the format sweep
/// exercises; deterministic so repeated runs verify identical streams).
fn rowwise_ratios(rows: usize) -> Vec<NmRatio> {
    (0..rows)
        .map(|r| match r % 4 {
            0 | 3 => NmRatio::S1_4,
            1 => NmRatio::S2_4,
            _ => NmRatio::D4_4,
        })
        .collect()
}

/// Every distinct `(label, shape, spec)` cell the sweep verifies: the
/// deduped Fig. 13 grid at the ambient fidelity, plus one cell per kernel
/// family Fig. 13 does not select.
pub fn lint_cells() -> Vec<(String, GemmShape, KernelSpec)> {
    let fidelity = Fidelity::from_env();
    let opts = KernelOptions::default();
    let mut seen: HashSet<(GemmShape, KernelSpec)> = HashSet::new();
    let mut cells = Vec::new();
    let mut push = |label: String, shape: GemmShape, spec: KernelSpec| {
        if seen.insert((shape, spec.clone())) {
            cells.push((label, shape, spec));
        }
    };
    for layer in table4() {
        let shape = fidelity.shape_of(&layer);
        for engine in figure13_engines() {
            for ratio in figure13_sparsities() {
                let spec = engine.kernel_spec(ratio, opts);
                push(
                    format!("{}/{}@{ratio}", layer.name, spec.name()),
                    shape,
                    spec,
                );
            }
        }
    }
    // Families the Fig. 13 engine selection never picks, at a ragged
    // mid-size shape so odd tile remainders are exercised too.
    let extra_shape = GemmShape::new(93, 67, 197);
    for spec in [
        KernelSpec::RowWise {
            row_ratios: rowwise_ratios(extra_shape.m.div_ceil(4)),
        },
        KernelSpec::Listing1 {
            mode: SparseMode::Dense,
        },
        KernelSpec::Listing1 {
            mode: SparseMode::Nm1of4,
        },
        KernelSpec::Vector,
    ] {
        push(format!("family/{}", spec.name()), extra_shape, spec);
    }
    cells
}

/// Verifies every cell of [`lint_cells`] — unsharded, then across
/// [`LINT_SWEEP_CORES`] as 2D/K-split shard sets. Returns all cells with
/// their merged reports (clean or not).
pub fn run_lint_sweep() -> Vec<LintCell> {
    lint_cells()
        .into_iter()
        .map(|(label, shape, spec)| {
            let mut report = verify_spec(&spec, shape);
            for cores in LINT_SWEEP_CORES {
                report.merge(verify_shard_set(&spec, shape, cores));
            }
            LintCell { label, report }
        })
        .collect()
}

/// Prints the acceptance sweep as a table and returns `true` when every
/// cell verified clean.
pub fn print_lint_sweep() -> bool {
    println!("## vegeta-lint: static verification of the evaluation's instruction streams");
    println!(
        "{:<44} {:>8} {:>12} {:>6}",
        "cell", "streams", "ops", "diags"
    );
    let cells = run_lint_sweep();
    let mut clean = true;
    for cell in &cells {
        println!(
            "{:<44} {:>8} {:>12} {:>6}",
            cell.label,
            cell.report.streams_checked,
            cell.report.ops_checked,
            cell.report.diagnostics.len()
        );
        if !cell.report.is_clean() {
            clean = false;
            eprintln!("{}", cell.report);
        }
    }
    let (streams, ops) = cells.iter().fold((0usize, 0u64), |(s, o), c| {
        (s + c.report.streams_checked, o + c.report.ops_checked)
    });
    println!(
        "verified {} cells / {streams} streams / {ops} ops: {}",
        cells.len(),
        if clean { "clean" } else { "DIAGNOSTICS FOUND" }
    );
    clean
}

/// Core count the replay cross-check shards at: enough for a real LPT
/// 2D/K-split plan and a multi-way shared L2 without making the sweep
/// simulate every scaling point twice.
pub const REPLAY_CHECK_CORES: usize = 4;

/// One replayed cell of the cross-check: verifier op counts next to what
/// the simulator actually consumed, unsharded and sharded.
#[derive(Debug)]
pub struct ReplayCell {
    /// `workload/kernel@sparsity` label for the report table.
    pub label: String,
    /// Ops the verifier walked in the unsharded stream.
    pub verified_ops: u64,
    /// Instructions the single-core simulator consumed from that stream.
    pub simulated_insts: u64,
    /// Ops the verifier walked across the [`REPLAY_CHECK_CORES`]-core LPT
    /// shard set (reduction included).
    pub verified_shard_ops: u64,
    /// Instructions the production multi-core simulator consumed from
    /// the same shard set (reduction included).
    pub simulated_shard_insts: u64,
    /// Whether [`MultiCoreSim::run_sharded`] produced a
    /// [`MultiCoreResult`] identical to the stepped reference scan
    /// ([`MultiCoreSim::run_sharded_stepped`]) for this cell's shard set.
    pub matches_stepped: bool,
}

impl ReplayCell {
    /// Whether the simulator consumed exactly what the verifier checked,
    /// on both paths — and the production multi-core result matched the
    /// stepped reference.
    pub fn consistent(&self) -> bool {
        self.verified_ops == self.simulated_insts
            && self.verified_shard_ops == self.simulated_shard_insts
            && self.matches_stepped
    }
}

/// Replays every [`lint_cells`] cell through the production simulator and
/// cross-checks op accounting end to end: the instruction count the
/// simulator consumes must equal the op count the verifier walked — for
/// the unsharded stream on a single core, and for the
/// [`REPLAY_CHECK_CORES`]-core LPT shard set on the production multi-core
/// path (reduction pass included), whose result must also equal the
/// stepped reference scan's. A gap in either direction means the
/// verifier's green does not describe the streams the evaluation actually
/// simulates.
pub fn run_replay_check() -> Vec<ReplayCell> {
    let engine = EngineConfig::vegeta_s(16)
        .expect("valid alpha")
        .with_output_forwarding(true);
    lint_cells()
        .into_iter()
        .map(|(label, shape, spec)| {
            let verified_ops = verify_spec(&spec, shape).ops_checked;
            let mut core = CoreSim::new(SimConfig::default(), engine.clone());
            let simulated_insts = core.run_stream(spec.stream(shape)).instructions;

            let verified_shard_ops = verify_shard_set(&spec, shape, REPLAY_CHECK_CORES).ops_checked;
            let set = spec.shard_set(shape, REPLAY_CHECK_CORES);
            let cfg = MultiCoreConfig::with_core(SimConfig::default(), REPLAY_CHECK_CORES);
            let res = MultiCoreSim::new(cfg.clone(), engine.clone()).run_sharded(
                set.shards,
                set.reduction,
                SchedulerPolicy::Lpt,
            );

            // The same shard set through the stepped reference scan must
            // reproduce the production result exactly; a divergence here
            // is a verification failure, not a perf detail.
            let set = spec.shard_set(shape, REPLAY_CHECK_CORES);
            let stepped = MultiCoreSim::new(cfg, engine.clone()).run_sharded_stepped(
                set.shards,
                set.reduction,
                SchedulerPolicy::Lpt,
            );
            ReplayCell {
                label,
                verified_ops,
                simulated_insts,
                verified_shard_ops,
                simulated_shard_insts: res.instructions(),
                matches_stepped: stepped == res,
            }
        })
        .collect()
}

/// Prints the replay cross-check as a table and returns `true` when every
/// cell's simulator-consumed counts match the verifier's.
pub fn print_replay_check() -> bool {
    println!(
        "## vegeta-lint --replay: simulator-consumed instruction counts vs verified op counts"
    );
    println!(
        "{:<44} {:>12} {:>12} {:>12} {:>12} {:>7}",
        "cell", "verified", "simulated", "shard-ver", "shard-sim", "step-ok"
    );
    let cells = run_replay_check();
    let mut ok = true;
    for cell in &cells {
        println!(
            "{:<44} {:>12} {:>12} {:>12} {:>12} {:>7}",
            cell.label,
            cell.verified_ops,
            cell.simulated_insts,
            cell.verified_shard_ops,
            cell.simulated_shard_insts,
            if cell.matches_stepped { "yes" } else { "NO" }
        );
        if !cell.consistent() {
            ok = false;
            eprintln!(
                "MISMATCH {}: verifier walked {}/{} ops, simulator consumed {}/{}, \
                 stepped reference {}",
                cell.label,
                cell.verified_ops,
                cell.verified_shard_ops,
                cell.simulated_insts,
                cell.simulated_shard_insts,
                if cell.matches_stepped {
                    "agrees"
                } else {
                    "DIVERGES"
                }
            );
        }
    }
    println!(
        "replayed {} cells at 1 and {REPLAY_CHECK_CORES} cores (production + stepped reference): {}",
        cells.len(),
        if ok { "counts match" } else { "COUNTS DIVERGE" }
    );
    ok
}

/// Prints the mutation-corpus rejection self-test and returns `true` when
/// every seeded defect was rejected with its expected diagnostic.
pub fn run_self_test() -> bool {
    println!("## vegeta-lint --self-test: mutation corpus must be rejected");
    println!(
        "{:<28} {:>8} {:>10} {:>8}",
        "mutation", "expect", "rejected", "code-hit"
    );
    let mut ok = true;
    for (mutation, report) in vegeta::lint::run_corpus() {
        let rejected = !report.is_clean();
        let code_hit = report.has(mutation.expect());
        println!(
            "{:<28} {:>8} {:>10} {:>8}",
            mutation.name(),
            mutation.expect().to_string(),
            if rejected { "yes" } else { "NO" },
            if code_hit { "yes" } else { "NO" }
        );
        if !(rejected && code_hit) {
            ok = false;
            eprintln!("{report}");
        }
    }
    println!(
        "self-test: {}",
        if ok {
            "all mutations rejected"
        } else {
            "MUTATIONS ACCEPTED"
        }
    );
    ok
}

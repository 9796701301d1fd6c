//! The first-class experiment API: [`Session`] and [`Sweep`].
//!
//! This module is the §VI evaluation flow as a library. A [`Cell`] is one
//! point of the evaluation grid: a layer or ad-hoc shape, the `A` operand
//! (a weight pattern, a storage format or an explicit [`KernelSpec`]) and,
//! optionally, the cores it is sharded across. A [`Session`] binds one
//! engine design point to a simulator configuration, kernel options and a
//! shared memoizing [`TraceCache`]; [`Session::run`] simulates one cell and
//! [`Session::run_network`] a whole layer suite, returning structured
//! [`RunReport`]s. A [`Sweep`] builds the cells of an
//! engine × workload × sparsity grid — the shape of Fig. 13 — and runs them
//! through the same cell runner across a scoped worker pool, building each
//! distinct trace once per sweep instead of once per engine.
//!
//! # Example
//!
//! ```
//! use vegeta::prelude::*;
//!
//! // One cell: BERT-L2 (scaled down 8x for the doctest) at 2:4 on VEGETA.
//! let layer = table4()[7];
//! let session = Session::new(EngineConfig::vegeta_s(16).unwrap());
//! let report = session.run(&Cell::layer(&layer, Fidelity::Quick(8), NmRatio::S2_4));
//! assert!(report.cycles > 0 && report.kernel.contains("2of4"));
//!
//! // A grid: two engines x one layer x two sparsities, in parallel.
//! let sweep = Sweep::new()
//!     .with_engines([EngineConfig::rasa_dm(), EngineConfig::vegeta_s(16).unwrap()])
//!     .with_layer(layer)
//!     .with_sparsities([NmRatio::D4_4, NmRatio::S2_4])
//!     .with_scale(8);
//! let grid = sweep.run();
//! assert_eq!(grid.cells.len(), 4);
//! assert!(grid.geomean_speedup(
//!     "RASA-DM (VEGETA-D-1-2)", "VEGETA-S-16-2", "2:4").unwrap() > 1.0);
//! ```

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use vegeta_engine::EngineConfig;
use vegeta_kernels::{EngineKernelExt, Kernel, KernelOptions, KernelSpec, SparseMode, TraceCache};
use vegeta_sim::{
    CoreSim, ExecMode, L1Memo, MultiCoreConfig, MultiCoreSim, SchedulerPolicy, SimConfig,
};
use vegeta_sparse::{prune, transform, FormatSpec, NmRatio};
use vegeta_workloads::Layer;

use crate::kernels::GemmShape;
use crate::report::{NetworkReport, RunReport, SweepReport};

/// Sparsity degree used to synthesize the unstructured weights behind
/// row-wise/CSR storage-format cells (§VI-E evaluates "random and
/// unstructured sparsity of varying degrees"; 0.8 sits in its sweep range).
/// Override per session/sweep with `with_unstructured_degree`.
pub const DEFAULT_UNSTRUCTURED_DEGREE: f64 = 0.8;

/// The engine line-up of Fig. 13, in plot order: three dense baselines, the
/// STC-like engine, the five VEGETA-S designs, and VEGETA-S-16-2 with
/// output forwarding.
pub fn figure13_engines() -> Vec<EngineConfig> {
    let mut engines = vec![
        EngineConfig::rasa_sm(),
        EngineConfig::rasa_dm(),
        EngineConfig::tmul_like(),
        EngineConfig::stc_like(),
    ];
    for alpha in [1usize, 2, 4, 8, 16] {
        engines.push(EngineConfig::vegeta_s(alpha).expect("valid alpha"));
    }
    engines.push(
        EngineConfig::vegeta_s(16)
            .expect("valid alpha")
            .with_output_forwarding(true),
    );
    engines
}

/// The three structured weight sparsities of the evaluation, sparsest last.
pub fn figure13_sparsities() -> Vec<NmRatio> {
    vec![NmRatio::D4_4, NmRatio::S2_4, NmRatio::S1_4]
}

/// The environment variable that turns quick mode on.
const QUICK_ENV: &str = "VEGETA_QUICK";

/// Parses a [`QUICK_ENV`] value: `""` and `"0"` are off, `"1"` is on.
/// Anything else is refused with the wording every environment knob of
/// the workspace uses.
fn parse_quick(raw: &str) -> Result<bool, String> {
    match raw {
        "" | "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{QUICK_ENV}='{raw}' is not 0 or 1")),
    }
}

/// The layer scale factor requested via the `VEGETA_QUICK` environment
/// variable: 4 when it is `"1"`, 1 when it is unset, empty or `"0"`. The
/// single source of truth for quick-mode detection across benches,
/// binaries and examples; pass the result to [`Sweep::with_scale`] or
/// [`Fidelity::from_factor`], or use [`Fidelity::from_env`] directly.
///
/// # Panics
///
/// Panics with `VEGETA_QUICK='<value>' is not 0 or 1` for any other
/// value: a typo such as `VEGETA_QUICK=false` must not silently pick a
/// layer scale.
pub fn quick_factor() -> usize {
    let quick = std::env::var_os(QUICK_ENV)
        .is_some_and(|raw| parse_quick(&raw.to_string_lossy()).unwrap_or_else(|e| panic!("{e}")));
    if quick {
        4
    } else {
        1
    }
}

/// The shape fidelity a layer runs at: the paper's full Table IV
/// dimensions, or a proxy scaled down by a factor.
///
/// Fidelity is a first-class, sweepable axis ([`Sweep::with_fidelities`]):
/// quick cells keep CI fast while full cells replay the real network-scale
/// layers through the streaming pipeline in bounded memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fidelity {
    /// Every layer dimension divided by the factor (flooring at one output
    /// tile), as `VEGETA_QUICK` runs do; `Quick(1)` is equivalent to
    /// [`Fidelity::Full`].
    Quick(usize),
    /// Unscaled Table IV dimensions.
    Full,
}

impl Fidelity {
    /// The fidelity `VEGETA_QUICK` requests: `Quick(4)` when quick mode is
    /// on, [`Fidelity::Full`] otherwise.
    ///
    /// # Panics
    ///
    /// As [`quick_factor`] does, on a value other than unset, `""`, `"0"`
    /// or `"1"`.
    pub fn from_env() -> Self {
        Fidelity::from_factor(quick_factor())
    }

    /// `Full` for factors ≤ 1, `Quick(factor)` otherwise.
    pub fn from_factor(factor: usize) -> Self {
        if factor <= 1 {
            Fidelity::Full
        } else {
            Fidelity::Quick(factor)
        }
    }

    /// The layer scale divisor (1 for full fidelity).
    pub fn factor(self) -> usize {
        match self {
            Fidelity::Quick(f) => f.max(1),
            Fidelity::Full => 1,
        }
    }

    /// The shape `layer` executes at this fidelity.
    pub fn shape_of(self, layer: &Layer) -> GemmShape {
        layer.scaled_shape(self.factor())
    }
}

impl std::fmt::Display for Fidelity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fidelity::Quick(n) if *n > 1 => write!(f, "quick/{n}"),
            _ => write!(f, "full"),
        }
    }
}

/// The execution-side numbers of one simulated cell, whichever simulator
/// produced them.
struct CellOutcome {
    cycles: u64,
    instructions: u64,
    tile_compute: u64,
    engine_busy_cycles: u64,
    peak_resident_bytes: u64,
    cores: usize,
    scheduler: &'static str,
    per_core_cycles: Vec<u64>,
    shared_l2: vegeta_sim::SharedL2Stats,
    scaling_efficiency: f64,
}

impl From<vegeta_sim::SimResult> for CellOutcome {
    fn from(res: vegeta_sim::SimResult) -> Self {
        CellOutcome {
            cycles: res.core_cycles,
            instructions: res.instructions,
            tile_compute: res.tile_compute,
            engine_busy_cycles: res.engine_busy_cycles,
            peak_resident_bytes: res.peak_resident_bytes,
            cores: 1,
            scheduler: "-",
            per_core_cycles: Vec::new(),
            shared_l2: Default::default(),
            scaling_efficiency: if res.core_cycles == 0 { 0.0 } else { 1.0 },
        }
    }
}

impl CellOutcome {
    fn sharded(res: vegeta_sim::MultiCoreResult, policy: SchedulerPolicy) -> Self {
        CellOutcome {
            cycles: res.core_cycles,
            instructions: res.instructions(),
            tile_compute: res.tile_compute(),
            engine_busy_cycles: res.engine_busy_cycles(),
            peak_resident_bytes: res.peak_resident_bytes(),
            scaling_efficiency: res.scaling_efficiency(),
            per_core_cycles: res.per_core_cycles(),
            cores: res.cores,
            scheduler: policy.label(),
            shared_l2: res.shared_l2,
        }
    }
}

/// The static-verification gate in front of every simulated cell and
/// every admitted serving request, on unless switched off
/// ([`Session::with_preflight`], [`Sweep::with_preflight`], or
/// `ServeConfig::preflight` in `vegeta-serve`).
///
/// [`vegeta_lint`] proves the stream a cell replays well-formed — register
/// dataflow, footprint bounds, shard coverage, and declared-length
/// accounting — for `cores` 0 (the unsharded stream) or n ≥ 1 (the shard
/// set [`KernelSpec::shard_set`] cuts for n cores). The verdict, failures
/// included (lint is deterministic), is memoized in the `(shape, spec)`
/// entry of `cache` ([`TraceCache::verdict`]): any [`Session`], [`Sweep`]
/// or server that shares the cache shares verification, and each
/// `(shape, spec, cores)` is linted once however many engines replay it.
/// With `enabled` false it only records the cell's cache lookup.
///
/// [`Session`]/[`Sweep`] panic on a rejection (a malformed stream inside a
/// trusted experiment grid is a bug, not an input; simulating it would
/// launder the defect into silently wrong cycle counts); `vegeta-serve`
/// turns it into a structured request error.
///
/// # Errors
///
/// The formatted `vegeta-lint` report when any diagnostic fires.
pub fn preflight(
    cache: &TraceCache,
    shape: GemmShape,
    spec: &KernelSpec,
    cores: usize,
    enabled: bool,
) -> Result<(), String> {
    let lint = || {
        let report = match cores {
            0 => vegeta_lint::verify_spec(spec, shape),
            n => vegeta_lint::verify_shard_set(spec, shape, n),
        };
        if report.is_clean() {
            Ok(())
        } else {
            Err(format!(
                "preflight rejected {} at {}x{}x{} ({cores} cores):\n{report}",
                spec.name(),
                shape.m,
                shape.n,
                shape.k,
            ))
        }
    };
    cache.verdict(shape, spec, cores, enabled.then_some(lint))
}

/// Kept only because the perfbench serving harness names
/// `Preflight::new()` (for `vegeta-serve`'s `Server::with_preflight_memo`).
/// It holds nothing: verdicts live in the [`TraceCache`] (see
/// [`preflight`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct Preflight;

impl Preflight {
    /// The empty placeholder.
    pub fn new() -> Self {
        Preflight
    }
}

/// Synthesizes the sorted §V-E row covers a row-wise format cell executes:
/// per-row `N:4` covers of a seeded unstructured matrix at `degree`
/// (deterministic in the shape, so repeated cells agree).
fn row_wise_covers(shape: GemmShape, degree: f64) -> Vec<NmRatio> {
    let seed = (shape.m as u64)
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(shape.k as u64);
    let mut rng = SmallRng::seed_from_u64(seed);
    let a = prune::random_unstructured(shape.m, shape.k, degree, &mut rng);
    let mut covers = transform::row_covers(&a, 4).expect("M = 4 is always supported");
    covers.sort();
    covers
}

/// The kernel an engine executes for an `A` operand *stored* in `format`
/// (the storage-side twin of [`EngineKernelExt::kernel_spec`]):
///
/// * dense and `N:M` operands run the tiled kernel the engine supports for
///   that pattern (a dense engine executes any format densely);
/// * row-wise `N:4` operands run `TILE_SPMM_R` with covers from
///   [`row_wise_covers`] (pass a memoized slice via `covers` to share the
///   synthesis across cells) — but only on engines with flexible per-row
///   `N:M` support (the VEGETA-S designs); dense and fixed-pattern engines,
///   and any `m != 4` (which the register images cannot encode), must
///   decompress and execute densely;
/// * CSR operands cannot enter the tile engine without a §III-D cover
///   transform, so they execute on the vector baseline — which is exactly
///   the structured-vs-unstructured comparison a format sweep plots.
fn kernel_for_format(
    engine: &EngineConfig,
    shape: GemmShape,
    format: FormatSpec,
    opts: KernelOptions,
    degree: f64,
    covers: Option<&[NmRatio]>,
) -> KernelSpec {
    match format {
        FormatSpec::Dense => engine.kernel_spec(NmRatio::D4_4, opts),
        FormatSpec::Nm(ratio) => engine.kernel_spec(ratio, opts),
        FormatSpec::RowWise { m } => {
            // TILE_SPMM_R needs per-row pattern flexibility (the engine must
            // execute 1:4 natively, not via a denser fallback) and the
            // M = 4 encoding the mreg row-pattern sidecar supports; every
            // other case decompresses and runs densely.
            if m != 4 || engine.execution_mode(NmRatio::S1_4) != SparseMode::Nm1of4 {
                return engine.kernel_spec(NmRatio::D4_4, opts);
            }
            let row_ratios = match covers {
                Some(c) => c.to_vec(),
                None => row_wise_covers(shape, degree),
            };
            KernelSpec::RowWise { row_ratios }
        }
        FormatSpec::Csr => KernelSpec::Vector,
    }
}

/// The `A` operand of a [`Cell`]: what the engine multiplies, and so which
/// kernel it runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand<'a> {
    /// A weight-sparsity pattern: the engine runs the kernel it executes
    /// for that pattern (§VI-C; a dense engine runs any pattern densely).
    /// The report's sparsity label is the pattern.
    Pattern(NmRatio),
    /// An operand *stored* in a format: the kernel the engine executes for
    /// that storage (structured formats run their tile kernels, row-wise
    /// `N:4` runs `TILE_SPMM_R` on flexible engines, CSR falls back to the
    /// vector engine). The report's sparsity label is the format.
    Format(FormatSpec),
    /// An explicit kernel, for ablations and non-tiled kernels. The
    /// report's sparsity label is the kernel's own pattern, `"-"` when it
    /// has none.
    Spec(&'a KernelSpec),
}

impl From<NmRatio> for Operand<'_> {
    fn from(ratio: NmRatio) -> Self {
        Operand::Pattern(ratio)
    }
}

impl From<FormatSpec> for Operand<'_> {
    fn from(format: FormatSpec) -> Self {
        Operand::Format(format)
    }
}

impl<'a> From<&'a KernelSpec> for Operand<'a> {
    fn from(spec: &'a KernelSpec) -> Self {
        Operand::Spec(spec)
    }
}

/// What a [`Cell`] multiplies: a Table IV layer at a fidelity, or an
/// ad-hoc named shape.
#[derive(Debug, Clone, Copy)]
enum Workload<'a> {
    Layer(&'a Layer, Fidelity),
    Shape(&'a str, GemmShape),
}

/// One cell of the §VI evaluation grid — a workload, its `A` operand and
/// where it runs — which [`Session::run`] simulates on the session's
/// engine and every [`Sweep`] cell runs through.
///
/// * The workload is a Table IV layer at a [`Fidelity`] ([`Cell::layer`])
///   or an ad-hoc GEMM shape ([`Cell::shape`]); an ad-hoc shape is its own
///   ground truth, so its report says `"full"` fidelity.
/// * The operand is anything that converts into an [`Operand`]: an
///   [`NmRatio`], a [`FormatSpec`] or a `&`[`KernelSpec`].
/// * A cell without cores runs unsharded on one [`CoreSim`]: the paper's
///   single-core setup, the path Fig. 13 and `BENCH_fig13.json` run on.
///   Its report has no per-core cycles and scheduler `"-"`. [`Cell::cores`]
///   shards the kernel across that many cores of a [`MultiCoreSim`]: the
///   shard set [`KernelSpec::shard_set`] cuts, packed longest first (the
///   report's scheduler `"lpt"`). `cores(1)` is that harness with a single
///   shard: the same cycles, instructions and tile work as the unsharded
///   cell, but a report with one per-core entry, a `peak_resident_bytes`
///   that counts the shard emitter's state, and a preflight that verifies
///   the shard set rather than the unsharded stream.
///
/// ```
/// use vegeta::prelude::*;
///
/// let layer = table4()[7];
/// let session = Session::new(EngineConfig::vegeta_s(16).unwrap());
/// let cell = Cell::layer(&layer, Fidelity::Quick(8), NmRatio::S2_4);
/// let one = session.run(&cell);
/// let four = session.run(&cell.cores(4));
/// assert!(four.cycles < one.cycles && four.cores == 4);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Cell<'a> {
    workload: Workload<'a>,
    operand: Operand<'a>,
    cores: Option<usize>,
}

impl<'a> Cell<'a> {
    /// A Table IV layer at `fidelity`, unsharded.
    pub fn layer(layer: &'a Layer, fidelity: Fidelity, operand: impl Into<Operand<'a>>) -> Self {
        Cell::of(Workload::Layer(layer, fidelity), operand.into())
    }

    /// An ad-hoc GEMM shape labelled `name`, unsharded.
    pub fn shape(name: &'a str, shape: GemmShape, operand: impl Into<Operand<'a>>) -> Self {
        Cell::of(Workload::Shape(name, shape), operand.into())
    }

    fn of(workload: Workload<'a>, operand: Operand<'a>) -> Self {
        Cell {
            workload,
            operand,
            cores: None,
        }
    }

    /// The cell sharded across `cores` cores, at least one (see the type
    /// docs for how `cores(1)` differs from an unsharded cell).
    pub fn cores(mut self, cores: usize) -> Self {
        self.cores = Some(cores.max(1));
        self
    }

    /// The GEMM shape the cell executes.
    fn gemm_shape(&self) -> GemmShape {
        match self.workload {
            Workload::Layer(layer, fidelity) => fidelity.shape_of(layer),
            Workload::Shape(_, shape) => shape,
        }
    }
}

/// Everything a cell runs against besides its engine: the simulator
/// configuration, kernel options, trace cache and preflight switch a
/// [`Session`] and a [`Sweep`] both hold.
#[derive(Debug, Clone)]
struct Harness {
    sim: SimConfig,
    opts: KernelOptions,
    unstructured_degree: f64,
    cache: Arc<TraceCache>,
    preflight: bool,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            sim: SimConfig::default(),
            opts: KernelOptions::default(),
            unstructured_degree: DEFAULT_UNSTRUCTURED_DEGREE,
            cache: Arc::new(TraceCache::new()),
            preflight: true,
        }
    }
}

impl Harness {
    /// The kernel `engine` runs for `cell`'s operand; `covers` are the
    /// row-wise covers of the cell's shape when the caller has them.
    fn spec<'c>(
        &self,
        engine: &EngineConfig,
        cell: &Cell<'c>,
        covers: Option<&[NmRatio]>,
    ) -> Cow<'c, KernelSpec> {
        match cell.operand {
            Operand::Pattern(ratio) => Cow::Owned(engine.kernel_spec(ratio, self.opts)),
            Operand::Format(format) => Cow::Owned(kernel_for_format(
                engine,
                cell.gemm_shape(),
                format,
                self.opts,
                self.unstructured_degree,
                covers,
            )),
            Operand::Spec(spec) => Cow::Borrowed(spec),
        }
    }

    /// Simulates `cell` on `engine` with kernel `spec` through the
    /// streaming pipeline — the trace is generated lazily and never
    /// materialized — after the [`preflight`] has verified the stream (or
    /// shard set) it replays. The preflight is the cell's one trace-cache
    /// lookup, on or off.
    ///
    /// An unsharded cell replays on one [`CoreSim`], through `memo` when
    /// given. A sharded cell cuts the kernel into its 2D/K-split shard set,
    /// LPT-packed onto the cores, with any K-split reduction replayed after
    /// the barrier. Its shards stream
    /// through private L1s over one coherence-free shared L2 on `exec`
    /// host threads, and `cycles` is the makespan.
    fn run(
        &self,
        engine: &EngineConfig,
        cell: &Cell<'_>,
        spec: &KernelSpec,
        exec: ExecMode,
        memo: Option<&L1Memo>,
    ) -> RunReport {
        let shape = cell.gemm_shape();
        if let Err(report) = preflight(
            &self.cache,
            shape,
            spec,
            cell.cores.unwrap_or(0),
            self.preflight,
        ) {
            panic!("{report}");
        }
        let outcome = match cell.cores {
            None => {
                let stream = spec.stream(shape);
                let mut core = CoreSim::new(self.sim.clone(), engine.clone());
                CellOutcome::from(match memo {
                    Some(memo) => core.run_stream_memoized(stream, memo),
                    None => core.run_stream(stream),
                })
            }
            Some(cores) => {
                let set = spec.shard_set(shape, cores);
                let policy = SchedulerPolicy::Lpt;
                let res = MultiCoreSim::new(
                    MultiCoreConfig::with_core(self.sim.clone(), cores).with_exec(exec),
                    engine.clone(),
                )
                .run_sharded(set.shards, set.reduction, policy);
                CellOutcome::sharded(res, policy)
            }
        };
        let (workload, fidelity) = match cell.workload {
            Workload::Layer(layer, fidelity) => (layer.name, fidelity),
            Workload::Shape(name, _) => (name, Fidelity::Full),
        };
        let sparsity = match cell.operand {
            Operand::Pattern(ratio) => ratio.to_string(),
            Operand::Format(format) => format.to_string(),
            Operand::Spec(spec) => spec
                .mode()
                .map_or_else(|| "-".to_string(), |m| m.ratio().to_string()),
        };
        RunReport {
            workload: workload.to_string(),
            engine: engine.name().to_string(),
            sparsity,
            fidelity: fidelity.to_string(),
            kernel: spec.name(),
            format: spec.format().to_string(),
            a_values_bytes: spec.a_values_bytes(shape),
            a_metadata_bits: spec.a_metadata_bits(shape),
            shape,
            cycles: outcome.cycles,
            instructions: outcome.instructions,
            tile_compute: outcome.tile_compute,
            engine_busy_cycles: outcome.engine_busy_cycles,
            // Every cell streams.
            insts_streamed: outcome.instructions,
            peak_resident_bytes: outcome.peak_resident_bytes,
            macs: shape.macs(),
            core_ghz: self.sim.core_ghz,
            cores: outcome.cores,
            scheduler: outcome.scheduler.to_string(),
            per_core_cycles: outcome.per_core_cycles,
            shared_l2: outcome.shared_l2,
            scaling_efficiency: outcome.scaling_efficiency,
        }
    }
}

/// One engine bound to a simulator configuration, kernel options and a
/// trace cache: the single-engine experiment driver.
///
/// Sessions are cheap to clone-per-engine while sharing one cache: pass the
/// same [`Arc<TraceCache>`] via [`Session::with_cache`] and identical
/// kernels are built once across all of them.
#[derive(Debug, Clone)]
pub struct Session {
    engine: EngineConfig,
    harness: Harness,
}

impl Session {
    /// A session for one engine with default §VI-B simulator parameters,
    /// default kernel options, and a private trace cache.
    pub fn new(engine: EngineConfig) -> Self {
        Session {
            engine,
            harness: Harness::default(),
        }
    }

    /// Replaces the sparsity degree of the synthesized unstructured weights
    /// behind row-wise/CSR [`Operand::Format`] cells.
    pub fn with_unstructured_degree(mut self, degree: f64) -> Self {
        self.harness.unstructured_degree = degree;
        self
    }

    /// Replaces the simulator configuration.
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.harness.sim = sim;
        self
    }

    /// Replaces the kernel options used for pattern and format cells.
    pub fn with_kernel_options(mut self, opts: KernelOptions) -> Self {
        self.harness.opts = opts;
        self
    }

    /// Shares a trace cache (for example across per-engine sessions).
    pub fn with_cache(mut self, cache: Arc<TraceCache>) -> Self {
        self.harness.cache = cache;
        self
    }

    /// Enables or disables the static-verification [`preflight`] (on by
    /// default): every distinct `(shape, kernel, sharding)` cell is proven
    /// well-formed by `vegeta-lint` before it simulates, and a diagnostic
    /// aborts the run with the lint report. Verdicts are memoized in the
    /// trace cache, so repeated cells, and every session, sweep or server
    /// sharing the cache, pay once.
    pub fn with_preflight(mut self, enabled: bool) -> Self {
        self.harness.preflight = enabled;
        self
    }

    /// The engine this session simulates.
    pub fn engine(&self) -> &EngineConfig {
        &self.engine
    }

    /// The session's trace cache.
    pub fn cache(&self) -> &Arc<TraceCache> {
        &self.harness.cache
    }

    /// Runs one cell on this session's engine (see [`Cell`]). The
    /// streaming pipeline makes [`Fidelity::Full`] replays feasible in
    /// bounded memory even for the largest layers.
    ///
    /// # Panics
    ///
    /// With the `vegeta-lint` report when the preflight rejects the cell's
    /// stream.
    pub fn run(&self, cell: &Cell<'_>) -> RunReport {
        let spec = self.harness.spec(&self.engine, cell, None);
        self.harness
            .run(&self.engine, cell, &spec, ExecMode::Auto, None)
    }

    /// Runs a layer suite back to back at `fidelity`, as a network
    /// inference would: each layer's GEMM executes in full before the next
    /// begins, streaming every trace in bounded memory (§VI).
    pub fn run_network(
        &self,
        layers: &[Layer],
        weights: NmRatio,
        fidelity: Fidelity,
    ) -> NetworkReport {
        NetworkReport {
            engine: self.engine.name().to_string(),
            sparsity: weights.to_string(),
            layers: layers
                .iter()
                .map(|layer| self.run(&Cell::layer(layer, fidelity, weights)))
                .collect(),
        }
    }
}

/// A grid runner over engine × workload × {sparsity pattern | storage
/// format} × core-count combinations.
///
/// The middle axis mixes two kinds of entries: weight-sparsity patterns
/// ([`Sweep::with_sparsities`], the Fig. 13 axis — the engine chooses how
/// to store/execute them) and explicit storage formats
/// ([`Sweep::with_formats`], the Fig. 12-style axis — dense vs structured
/// vs row-wise vs CSR for the *same* engine). Patterns come first in the
/// report, then formats, each in insertion order.
///
/// Cells execute across a scoped `std::thread` worker pool (all distinct
/// traces memoized in one shared [`TraceCache`]), and the report's cell
/// order is deterministic — workload-major, then axis, then engine —
/// regardless of thread count.
#[derive(Debug, Clone)]
pub struct Sweep {
    engines: Vec<EngineConfig>,
    layers: Vec<Layer>,
    sparsities: Vec<NmRatio>,
    formats: Vec<FormatSpec>,
    fidelities: Vec<Fidelity>,
    cores: Vec<usize>,
    scale: usize,
    threads: usize,
    harness: Harness,
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep {
            engines: Vec::new(),
            layers: Vec::new(),
            sparsities: Vec::new(),
            formats: Vec::new(),
            fidelities: Vec::new(),
            cores: Vec::new(),
            scale: 1,
            threads: 0,
            harness: Harness::default(),
        }
    }
}

impl Sweep {
    /// An empty sweep with default simulator parameters and kernel options.
    pub fn new() -> Self {
        Sweep::default()
    }

    /// The full Fig. 13 grid: the ten-engine line-up × the twelve Table IV
    /// layers × {4:4, 2:4, 1:4}.
    pub fn figure13() -> Self {
        Sweep::new()
            .with_engines(figure13_engines())
            .with_layers(vegeta_workloads::table4())
            .with_sparsities(figure13_sparsities())
    }

    /// Adds one engine to the grid.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engines.push(engine);
        self
    }

    /// Adds engines to the grid.
    pub fn with_engines(mut self, engines: impl IntoIterator<Item = EngineConfig>) -> Self {
        self.engines.extend(engines);
        self
    }

    /// Adds one workload layer to the grid.
    pub fn with_layer(mut self, layer: Layer) -> Self {
        self.layers.push(layer);
        self
    }

    /// Adds workload layers to the grid.
    pub fn with_layers(mut self, layers: impl IntoIterator<Item = Layer>) -> Self {
        self.layers.extend(layers);
        self
    }

    /// Adds one weight sparsity to the grid.
    pub fn with_sparsity(mut self, ratio: NmRatio) -> Self {
        self.sparsities.push(ratio);
        self
    }

    /// Adds weight sparsities to the grid.
    pub fn with_sparsities(mut self, ratios: impl IntoIterator<Item = NmRatio>) -> Self {
        self.sparsities.extend(ratios);
        self
    }

    /// Adds one storage format to the grid (see [`Sweep::with_formats`]).
    pub fn with_format(mut self, format: FormatSpec) -> Self {
        self.formats.push(format);
        self
    }

    /// Adds storage formats to the grid: each cell runs the kernel the
    /// engine executes for an `A` operand stored in that format (dense and
    /// `N:M` on the tile kernels, row-wise on `TILE_SPMM_R` with synthesized
    /// §V-E covers, CSR on the vector baseline). This is the Fig. 12-style
    /// structured-vs-unstructured axis.
    pub fn with_formats(mut self, formats: impl IntoIterator<Item = FormatSpec>) -> Self {
        self.formats.extend(formats);
        self
    }

    /// Replaces the sparsity degree of the synthesized unstructured weights
    /// behind row-wise/CSR format cells.
    pub fn with_unstructured_degree(mut self, degree: f64) -> Self {
        self.harness.unstructured_degree = degree;
        self
    }

    /// Adds one fidelity to the grid (see [`Sweep::with_fidelities`]).
    pub fn with_fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelities.push(fidelity);
        self
    }

    /// Adds fidelities to the grid, making shape fidelity a sweepable axis:
    /// each `(layer, fidelity)` pair runs every sparsity/format × engine
    /// cell, so a single sweep can pin quick-mode proxies against
    /// full-scale replays. When no fidelity is given, the grid runs at the
    /// single fidelity implied by [`Sweep::with_scale`] (full size by
    /// default).
    pub fn with_fidelities(mut self, fidelities: impl IntoIterator<Item = Fidelity>) -> Self {
        self.fidelities.extend(fidelities);
        self
    }

    /// Scales every layer down by `factor` (1 = full size); the
    /// `VEGETA_QUICK` proxy shapes use 4. Shorthand for a single-entry
    /// fidelity axis; explicit [`Sweep::with_fidelities`] entries take
    /// precedence.
    pub fn with_scale(mut self, factor: usize) -> Self {
        self.scale = factor;
        self
    }

    /// Adds core counts to the grid, making multi-core scale-out a
    /// first-class experiment axis: every cell runs sharded across each
    /// requested core count through [`vegeta_sim::MultiCoreSim`]
    /// (`with_cores([1, 2, 4, 8, 16])` is the classic strong-scaling
    /// sweep). With no cores axis the grid runs the classic single-core
    /// [`CoreSim`] path, byte-identical to pre-scale-out sweeps.
    pub fn with_cores(mut self, cores: impl IntoIterator<Item = usize>) -> Self {
        self.cores.extend(cores.into_iter().map(|c| c.max(1)));
        self
    }

    /// The grid's core-count axis, in report order. `None` marks the
    /// classic single-core path, which runs when no core count was given.
    fn core_points(&self) -> Vec<Option<usize>> {
        if self.cores.is_empty() {
            return vec![None];
        }
        self.cores.iter().copied().map(Some).collect()
    }

    /// The grid's fidelity axis: explicit entries, else the scale factor.
    fn effective_fidelities(&self) -> Vec<Fidelity> {
        if self.fidelities.is_empty() {
            vec![Fidelity::from_factor(self.scale)]
        } else {
            self.fidelities.clone()
        }
    }

    /// Replaces the simulator configuration.
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.harness.sim = sim;
        self
    }

    /// Replaces the kernel options.
    pub fn with_kernel_options(mut self, opts: KernelOptions) -> Self {
        self.harness.opts = opts;
        self
    }

    /// Sets the worker-thread count: 0 (the default) sizes the pool to the
    /// available parallelism, 1 forces the serial path.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Shares a trace cache across sweeps.
    pub fn with_cache(mut self, cache: Arc<TraceCache>) -> Self {
        self.harness.cache = cache;
        self
    }

    /// Enables or disables the static-verification preflight (on by
    /// default; see [`Session::with_preflight`]). Memoization means each
    /// distinct `(shape, kernel, sharding)` cell is verified once per
    /// cache, not once per engine replaying it.
    pub fn with_preflight(mut self, enabled: bool) -> Self {
        self.harness.preflight = enabled;
        self
    }

    /// Grid cells this sweep will run.
    pub fn cell_count(&self) -> usize {
        self.engines.len()
            * self.layers.len()
            * self.effective_fidelities().len()
            * self.core_points().len()
            * (self.sparsities.len() + self.formats.len())
    }

    fn resolved_threads(&self) -> usize {
        let wanted = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        };
        wanted.min(self.cell_count()).max(1)
    }

    /// Runs the grid and returns the report; cells appear workload-major,
    /// then fidelity, then axis entry (sparsities before formats), then
    /// core count, then engine, whatever the thread count.
    ///
    /// Single-core cells that replay the same `(shape, kernel)` trace share
    /// one [`L1Memo`]: the first of them to run records its L1 outcome and
    /// the others replay it, with the same results as fresh runs. Within
    /// each run of cells sharing a shape, every trace's first cell is
    /// scheduled before the others, so concurrent workers record different
    /// traces instead of the same one twice. A memo is dropped when the
    /// last cell of its trace finishes.
    pub fn run(&self) -> SweepReport {
        self.run_with_memos().0
    }

    /// [`Sweep::run`], also returning its L1 memo slots (all empty once it
    /// returns).
    fn run_with_memos(&self) -> (SweepReport, L1Memos) {
        // One cell per point of the non-engine axes, in report order; the
        // engine is the innermost axis, so grid cell `i` is cell
        // `i / engines` on engine `i % engines`.
        let operands: Vec<Operand<'_>> = self
            .sparsities
            .iter()
            .map(|&r| Operand::Pattern(r))
            .chain(self.formats.iter().map(|&f| Operand::Format(f)))
            .collect();
        let fidelities = self.effective_fidelities();
        let core_points = self.core_points();
        let mut cells: Vec<Cell<'_>> = Vec::with_capacity(
            self.layers.len() * fidelities.len() * operands.len() * core_points.len(),
        );
        for layer in &self.layers {
            for &fidelity in &fidelities {
                for &operand in &operands {
                    for &cores in &core_points {
                        cells.push(Cell {
                            cores,
                            ..Cell::layer(layer, fidelity, operand)
                        });
                    }
                }
            }
        }
        let engines = self.engines.len();
        let grid_cell = |i: usize| (&cells[i / engines], &self.engines[i % engines]);
        let count = cells.len() * engines;
        let threads = self.resolved_threads();
        // Host-thread budget for each cell's multi-core replay: the grid's
        // cell-level pool and the per-cell parallel simulation share one
        // machine, so each cell gets `available / threads` host threads
        // (at least one) and the grid never oversubscribes the host.
        let avail = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let cell_exec = ExecMode::ParallelHost((avail / threads).max(1));
        let hits_before = self.harness.cache.hits();
        let misses_before = self.harness.cache.misses();

        // Row-wise format cells share their synthesized covers: compute
        // each distinct shape once, not once per engine cell.
        let mut rw_covers: HashMap<GemmShape, Vec<NmRatio>> = HashMap::new();
        if self
            .formats
            .iter()
            .any(|f| matches!(f, FormatSpec::RowWise { m: 4 }))
        {
            for layer in &self.layers {
                for fidelity in &fidelities {
                    let shape = fidelity.shape_of(layer);
                    rw_covers.entry(shape).or_insert_with(|| {
                        row_wise_covers(shape, self.harness.unstructured_degree)
                    });
                }
            }
        }
        // Sweep operands are patterns and formats, whose kernels are built
        // owned.
        let kernel_of = |cell: &Cell<'_>, engine: &EngineConfig| {
            let covers = rw_covers.get(&cell.gemm_shape()).map(Vec::as_slice);
            self.harness.spec(engine, cell, covers).into_owned()
        };

        let memos = L1Memos::plan((0..count).map(|i| {
            let (cell, engine) = grid_cell(i);
            cell.cores
                .is_none()
                .then(|| (cell.gemm_shape(), kernel_of(cell, engine)))
        }));
        let order = memos.schedule((0..count).map(|i| grid_cell(i).0.gemm_shape()));
        let run_one = |i: usize| -> RunReport {
            let (cell, engine) = grid_cell(i);
            let spec = kernel_of(cell, engine);
            let run =
                |memo: Option<&L1Memo>| self.harness.run(engine, cell, &spec, cell_exec, memo);
            match cell.cores {
                // Unsharded cells replay their trace's L1 memo.
                None => memos.with(i, |memo| run(Some(memo))),
                Some(_) => run(None),
            }
        };

        // Workers pull the next cell of the schedule from a shared counter
        // and store its report at the cell's index, so the report order is
        // independent of scheduling.
        let next = AtomicUsize::new(0);
        let reports: Mutex<Vec<Option<RunReport>>> = Mutex::new(vec![None; count]);
        let work = || {
            while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                let report = run_one(i);
                reports.lock().expect("sweep reports poisoned")[i] = Some(report);
            }
        };
        if threads <= 1 {
            work();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(work);
                }
            });
        }

        let report = SweepReport {
            cells: reports
                .into_inner()
                .expect("sweep reports poisoned")
                .into_iter()
                .map(|r| r.expect("every cell ran"))
                .collect(),
            traces_built: self.harness.cache.misses() - misses_before,
            trace_cache_hits: self.harness.cache.hits() - hits_before,
            l1_fresh_replays: memos.fresh.load(Ordering::Relaxed),
            cache: self.harness.cache.stats(),
            threads,
        };
        (report, memos)
    }
}

/// The L1 memo of one single-core `(shape, spec)` trace, held while any
/// cell of that trace is still to run.
#[derive(Debug)]
struct MemoSlot {
    memo: Mutex<Option<Arc<L1Memo>>>,
    left: AtomicUsize,
}

/// A sweep's L1 memos: one slot per distinct single-core trace, and the
/// slot of each cell.
#[derive(Debug)]
struct L1Memos {
    slots: Vec<MemoSlot>,
    /// Per cell in report order; `None` for multi-core cells.
    slot_of: Vec<Option<usize>>,
    /// Recordings of the memos dropped so far: the cells whose L1 was
    /// replayed fresh.
    fresh: AtomicU64,
}

impl L1Memos {
    /// Slots for cells keyed in report order (`None` for cells that do
    /// not memoize).
    fn plan(keys: impl Iterator<Item = Option<(GemmShape, KernelSpec)>>) -> Self {
        let mut index = HashMap::new();
        let mut counts: Vec<usize> = Vec::new();
        let slot_of = keys
            .map(|key| {
                let next = index.len();
                let slot = *index.entry(key?).or_insert(next);
                if slot == counts.len() {
                    counts.push(0);
                }
                counts[slot] += 1;
                Some(slot)
            })
            .collect();
        let slots = counts
            .into_iter()
            .map(|cells| MemoSlot {
                memo: Mutex::new(None),
                left: AtomicUsize::new(cells),
            })
            .collect();
        L1Memos {
            slots,
            slot_of,
            fresh: AtomicU64::new(0),
        }
    }

    /// The order cells run in, given each cell's shape in report order:
    /// within each run of cells that share a shape, the first cell of
    /// every trace, then the others, each in report order.
    fn schedule(&self, shapes: impl Iterator<Item = GemmShape>) -> Vec<usize> {
        let mut first = vec![true; self.slots.len()];
        let mut order = Vec::with_capacity(self.slot_of.len());
        let mut rest = Vec::new();
        let mut block = None;
        for (i, shape) in shapes.enumerate() {
            if block != Some(shape) {
                order.append(&mut rest);
                block = Some(shape);
            }
            match self.slot_of[i] {
                Some(slot) if first[slot] => {
                    first[slot] = false;
                    order.push(i);
                }
                _ => rest.push(i),
            }
        }
        order.append(&mut rest);
        order
    }

    /// Runs single-core cell `i` with its trace's memo; the trace's last
    /// cell drops the memo.
    fn with<R>(&self, i: usize, run: impl FnOnce(&L1Memo) -> R) -> R {
        let slot = &self.slots[self.slot_of[i].expect("single-core cells have a memo slot")];
        let memo = Arc::clone(
            slot.memo
                .lock()
                .expect("L1 memo slot poisoned")
                .get_or_insert_with(Default::default),
        );
        let out = run(&memo);
        // Each cell's decrement releases its recording count; the last
        // one acquires them all before it reads the total.
        if slot.left.fetch_sub(1, Ordering::AcqRel) == 1 {
            slot.memo.lock().expect("L1 memo slot poisoned").take();
            self.fresh.fetch_add(memo.recordings(), Ordering::Relaxed);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vegeta_workloads::table4;

    #[test]
    fn quick_parser_rejects_bad_values_loudly() {
        assert_eq!(parse_quick(""), Ok(false));
        assert_eq!(parse_quick("0"), Ok(false));
        assert_eq!(parse_quick("1"), Ok(true));
        for bad in ["false", "true", "2", " 1", "yes", "off"] {
            assert_eq!(
                parse_quick(bad),
                Err(format!("VEGETA_QUICK='{bad}' is not 0 or 1"))
            );
        }
    }

    #[test]
    fn figure13_lineup_has_ten_entries() {
        let engines = figure13_engines();
        assert_eq!(engines.len(), 10);
        assert!(engines.last().unwrap().output_forwarding());
    }

    #[test]
    fn dense_engines_always_run_dense_kernels() {
        for engine in [
            EngineConfig::rasa_sm(),
            EngineConfig::rasa_dm(),
            EngineConfig::tmul_like(),
        ] {
            for w in [NmRatio::D4_4, NmRatio::S2_4, NmRatio::S1_4] {
                assert_eq!(engine.execution_mode(w), SparseMode::Dense);
            }
        }
    }

    #[test]
    fn stc_like_runs_1_4_layers_in_2_4_mode() {
        let engine = EngineConfig::stc_like();
        assert_eq!(engine.execution_mode(NmRatio::S1_4), SparseMode::Nm2of4);
        assert_eq!(engine.execution_mode(NmRatio::S2_4), SparseMode::Nm2of4);
        assert_eq!(engine.execution_mode(NmRatio::D4_4), SparseMode::Dense);
    }

    #[test]
    fn vegeta_s_exploits_every_pattern() {
        let engine = EngineConfig::vegeta_s(16).unwrap();
        assert_eq!(engine.execution_mode(NmRatio::S1_4), SparseMode::Nm1of4);
        assert_eq!(engine.execution_mode(NmRatio::S2_4), SparseMode::Nm2of4);
        assert_eq!(engine.execution_mode(NmRatio::D4_4), SparseMode::Dense);
    }

    #[test]
    fn sparse_execution_is_faster_on_a_small_layer() {
        // Scaled-down BERT-L2 for speed; the full layers run in the benches.
        let layer = &table4()[7];
        let s16 = EngineConfig::vegeta_s(16)
            .unwrap()
            .with_output_forwarding(true);
        let dm = Session::new(EngineConfig::rasa_dm()).run(&Cell::layer(
            layer,
            Fidelity::Quick(8),
            NmRatio::D4_4,
        ));
        let sp = Session::new(s16).run(&Cell::layer(layer, Fidelity::Quick(8), NmRatio::S1_4));
        let speedup = dm.cycles as f64 / sp.cycles as f64;
        assert!(
            speedup > 2.0,
            "1:4 on S-16-2+OF vs dense on RASA-DM: {speedup}"
        );
    }

    #[test]
    fn session_reports_are_self_describing() {
        let layer = &table4()[7];
        let report = Session::new(EngineConfig::vegeta_s(2).unwrap()).run(&Cell::layer(
            layer,
            Fidelity::Quick(8),
            NmRatio::S2_4,
        ));
        assert_eq!(report.workload, "BERT-L2");
        assert_eq!(report.engine, "VEGETA-S-2-2");
        assert_eq!(report.sparsity, "2:4");
        assert_eq!(report.kernel, "tiled-2of4-u3");
        assert_eq!(report.shape, layer.scaled_shape(8));
        assert_eq!(report.macs, layer.scaled_shape(8).macs());
        assert!(report.instructions > 0 && report.utilization() > 0.0);
    }

    #[test]
    fn sessions_share_a_cache_across_engines() {
        let cache = Arc::new(TraceCache::new());
        let layer = &table4()[7];
        // Three dense engines run the *same* dense kernel: one build.
        for engine in [
            EngineConfig::rasa_sm(),
            EngineConfig::rasa_dm(),
            EngineConfig::tmul_like(),
        ] {
            let session = Session::new(engine).with_cache(Arc::clone(&cache));
            session.run(&Cell::layer(layer, Fidelity::Quick(8), NmRatio::S2_4));
        }
        assert_eq!(cache.misses(), 1, "one dense trace serves all three");
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn network_runs_accumulate_layers_in_order() {
        let layers = vegeta_workloads::layers_of(vegeta_workloads::Network::Bert);
        let session = Session::new(EngineConfig::vegeta_s(16).unwrap());
        // Scaled down for test speed.
        let network = session.run_network(&layers, NmRatio::S2_4, Fidelity::Quick(8));
        let reports: Vec<RunReport> = layers
            .iter()
            .map(|l| session.run(&Cell::layer(l, Fidelity::Quick(8), NmRatio::S2_4)))
            .collect();
        assert_eq!(network.layers, reports);
        assert_eq!(network.sparsity, "2:4");
        assert_eq!(
            network.total_cycles(),
            reports.iter().map(|r| r.cycles).sum::<u64>()
        );
    }

    #[test]
    fn format_runs_pick_storage_appropriate_kernels() {
        let layer = &table4()[7];
        let shape = layer.scaled_shape(8);
        let session = Session::new(EngineConfig::vegeta_s(16).unwrap());
        let dense = session.run(&Cell::shape("f", shape, FormatSpec::Dense));
        assert_eq!(dense.kernel, "tiled-dense-u3");
        assert_eq!(dense.format, "dense");
        assert_eq!(dense.a_values_bytes, (shape.m * shape.k * 2) as u64);
        assert_eq!(dense.a_metadata_bits, 0);
        let s24 = session.run(&Cell::shape("f", shape, FormatSpec::Nm(NmRatio::S2_4)));
        assert_eq!(s24.kernel, "tiled-2of4-u3");
        assert_eq!(s24.sparsity, "2:4");
        assert_eq!(s24.a_values_bytes, (shape.m * shape.k) as u64);
        let rw = session.run(&Cell::shape("f", shape, FormatSpec::RowWise { m: 4 }));
        assert!(rw.kernel.starts_with("rowwise-"));
        assert_eq!(rw.format, "rowwise:4");
        assert!(
            rw.a_values_bytes < dense.a_values_bytes,
            "80%-sparse row-wise storage must be smaller than dense"
        );
        assert!(rw.a_metadata_bits > 0);
        let csr = session.run(&Cell::shape("f", shape, FormatSpec::Csr));
        assert_eq!(
            csr.kernel, "vector-gemm",
            "CSR executes on the vector engine"
        );
        // The structured tile path beats the CSR-on-vector fallback.
        assert!(s24.cycles < csr.cycles);
    }

    #[test]
    fn row_wise_format_needs_flexible_nm_support() {
        let layer = &table4()[7];
        let shape = layer.scaled_shape(8);
        for engine in [EngineConfig::rasa_dm(), EngineConfig::stc_like()] {
            let report =
                Session::new(engine).run(&Cell::shape("f", shape, FormatSpec::RowWise { m: 4 }));
            assert_eq!(
                report.kernel, "tiled-dense-u3",
                "engines without per-row N:M support decompress and run densely"
            );
            assert_eq!(report.format, "dense");
        }
        // Block sizes the register images cannot encode fall back to dense
        // even on flexible engines, instead of simulating a datapath the
        // storage layer refuses to pack.
        let report = Session::new(EngineConfig::vegeta_s(16).unwrap()).run(&Cell::shape(
            "f",
            shape,
            FormatSpec::RowWise { m: 8 },
        ));
        assert_eq!(report.kernel, "tiled-dense-u3");
        assert_eq!(report.format, "dense");
    }

    #[test]
    fn format_runs_are_deterministic() {
        let layer = &table4()[7];
        let shape = layer.scaled_shape(8);
        let session = Session::new(EngineConfig::vegeta_s(16).unwrap());
        let a = session.run(&Cell::shape("f", shape, FormatSpec::RowWise { m: 4 }));
        let b = session.run(&Cell::shape("f", shape, FormatSpec::RowWise { m: 4 }));
        assert_eq!(a, b, "synthesized covers are seeded by shape");
    }

    #[test]
    fn sweep_grids_over_storage_formats() {
        let sweep = Sweep::new()
            .with_engines([EngineConfig::rasa_dm(), EngineConfig::vegeta_s(16).unwrap()])
            .with_layer(table4()[7])
            .with_formats([
                FormatSpec::Dense,
                FormatSpec::Nm(NmRatio::S2_4),
                FormatSpec::RowWise { m: 4 },
                FormatSpec::Csr,
            ])
            .with_scale(8)
            .with_threads(2);
        assert_eq!(sweep.cell_count(), 8);
        let report = sweep.run();
        assert_eq!(report.cells.len(), 8);
        // Axis entries keep insertion order; formats label the sparsity
        // column so existing tooling groups by them.
        assert_eq!(
            report.sparsities(),
            vec!["dense", "2:4", "rowwise:4", "csr"]
        );
        // On the dense engine every structured format degrades to the dense
        // kernel, so the cache collapses those traces (dense + 2:4 formats
        // for RASA-DM share one dense trace with the VEGETA dense cell).
        assert!(report.traces_built < 8);
        // The sparse engine exploits 2:4 storage; the dense engine cannot.
        let dense_2of4 = report
            .get("BERT-L2", "RASA-DM (VEGETA-D-1-2)", "2:4")
            .unwrap();
        let sparse_2of4 = report.get("BERT-L2", "VEGETA-S-16-2", "2:4").unwrap();
        assert!(sparse_2of4.cycles < dense_2of4.cycles);
        assert_eq!(dense_2of4.format, "dense", "dense engines store densely");
        assert_eq!(sparse_2of4.format, "2:4");
    }

    #[test]
    fn sweeps_mix_pattern_and_format_axes() {
        let report = Sweep::new()
            .with_engine(EngineConfig::vegeta_s(4).unwrap())
            .with_layer(table4()[7])
            .with_sparsity(NmRatio::S2_4)
            .with_format(FormatSpec::Csr)
            .with_scale(8)
            .with_threads(1)
            .run();
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.cells[0].sparsity, "2:4");
        assert_eq!(report.cells[1].sparsity, "csr");
    }

    #[test]
    fn fidelity_labels_and_factors() {
        assert_eq!(Fidelity::Full.to_string(), "full");
        assert_eq!(Fidelity::Quick(4).to_string(), "quick/4");
        assert_eq!(Fidelity::Quick(1).to_string(), "full");
        assert_eq!(Fidelity::from_factor(1), Fidelity::Full);
        assert_eq!(Fidelity::from_factor(8), Fidelity::Quick(8));
        assert_eq!(Fidelity::Full.factor(), 1);
        assert_eq!(Fidelity::Quick(8).factor(), 8);
        let layer = &table4()[7];
        assert_eq!(Fidelity::Full.shape_of(layer), layer.gemm_shape());
        assert_eq!(Fidelity::Quick(8).shape_of(layer), layer.scaled_shape(8));
    }

    #[test]
    fn reports_carry_streaming_accounting() {
        let layer = &table4()[7];
        let session = Session::new(EngineConfig::vegeta_s(16).unwrap());
        let report = session.run(&Cell::layer(layer, Fidelity::Quick(8), NmRatio::S2_4));
        assert_eq!(report.fidelity, "quick/8");
        assert_eq!(
            report.insts_streamed, report.instructions,
            "every session run streams"
        );
        assert!(report.peak_resident_bytes > 0);
        // One streaming chunk is far smaller than the materialized trace.
        let trace_bytes = report.instructions * vegeta_isa::TRACE_OP_BYTES as u64;
        assert!(
            report.peak_resident_bytes < trace_bytes / 4,
            "chunked residency {} vs full trace {}",
            report.peak_resident_bytes,
            trace_bytes
        );
    }

    #[test]
    fn prebuilt_trace_runs_report_materialized_residency() {
        let shape = GemmShape::new(32, 32, 64);
        let trace = vegeta_kernels::build_trace(shape, SparseMode::Dense, KernelOptions::default());
        let report = CoreSim::new(SimConfig::default(), EngineConfig::rasa_dm()).run(&trace);
        assert_eq!(
            report.peak_resident_bytes,
            trace.len() as u64 * vegeta_isa::TRACE_OP_BYTES as u64,
            "the whole trace was resident"
        );
    }

    #[test]
    fn sweep_fidelity_axis_pins_quick_against_full() {
        // A small ad-hoc layer keeps the full-fidelity half fast.
        let layer = table4()[7];
        let report = Sweep::new()
            .with_engine(EngineConfig::vegeta_s(16).unwrap())
            .with_layer(layer)
            .with_sparsity(NmRatio::S2_4)
            .with_fidelities([Fidelity::Quick(8), Fidelity::Quick(4)])
            .with_threads(1)
            .run();
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.cells[0].fidelity, "quick/8");
        assert_eq!(report.cells[1].fidelity, "quick/4");
        assert_eq!(report.cells[0].shape, layer.scaled_shape(8));
        assert_eq!(report.cells[1].shape, layer.scaled_shape(4));
        assert!(
            report.cells[1].cycles > report.cells[0].cycles,
            "higher fidelity simulates more work"
        );
        assert_eq!(report.traces_built, 2);
        assert_eq!(report.cache.entries, 2);
    }

    #[test]
    fn single_core_sharded_run_matches_the_classic_path() {
        // cores = 1 through the multi-core harness: one shard, no barrier,
        // no shared traffic — cycle-identical to the classic session run.
        let layer = &table4()[7];
        let session = Session::new(EngineConfig::vegeta_s(16).unwrap());
        let classic = session.run(&Cell::layer(layer, Fidelity::Quick(8), NmRatio::S2_4));
        let sharded = session.run(&Cell::layer(layer, Fidelity::Quick(8), NmRatio::S2_4).cores(1));
        assert_eq!(sharded.cycles, classic.cycles);
        assert_eq!(sharded.instructions, classic.instructions);
        assert_eq!(sharded.tile_compute, classic.tile_compute);
        assert_eq!(sharded.cores, 1);
        assert_eq!(sharded.per_core_cycles, vec![classic.cycles]);
        assert_eq!(sharded.shared_l2.shared_hits, 0, "one core cannot share");
        assert!((sharded.scaling_efficiency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sharded_layers_scale_down_cycles() {
        let layer = &table4()[7];
        let session = Session::new(EngineConfig::vegeta_s(16).unwrap());
        let mut last = u64::MAX;
        for cores in [1usize, 2, 4] {
            let report =
                session.run(&Cell::layer(layer, Fidelity::Quick(4), NmRatio::S2_4).cores(cores));
            assert_eq!(report.cores, cores);
            assert_eq!(report.per_core_cycles.len(), cores);
            assert!(
                report.cycles <= last,
                "{cores} cores must not be slower: {} vs {last}",
                report.cycles
            );
            assert!(report.scaling_efficiency > 0.0 && report.scaling_efficiency <= 1.0);
            if cores > 1 {
                assert!(
                    report.shared_l2.shared_hits > 0,
                    "shards share B tiles through the L2"
                );
            }
            last = report.cycles;
        }
    }

    #[test]
    fn sweep_cores_axis_grids_and_orders_deterministically() {
        let layer = table4()[7];
        let sweep = Sweep::new()
            .with_engines([EngineConfig::rasa_dm(), EngineConfig::vegeta_s(16).unwrap()])
            .with_layer(layer)
            .with_sparsity(NmRatio::S2_4)
            .with_cores([1, 4])
            .with_scale(8)
            .with_threads(2);
        assert_eq!(sweep.cell_count(), 4);
        let report = sweep.run();
        assert_eq!(report.cells.len(), 4);
        // Order: cores-major over engines within one axis entry.
        assert_eq!(report.cells[0].cores, 1);
        assert_eq!(report.cells[0].engine, "RASA-DM (VEGETA-D-1-2)");
        assert_eq!(report.cells[1].cores, 1);
        assert_eq!(report.cells[2].cores, 4);
        assert_eq!(report.cores_values(), vec![1, 4]);
        let scaling = report
            .geomean_core_scaling("VEGETA-S-16-2", "2:4", 4)
            .expect("both core counts present");
        assert!(scaling > 1.0, "4 cores must beat 1: {scaling}");
        // A sweep without a cores axis stays on the classic path.
        let classic = Sweep::new()
            .with_engine(EngineConfig::rasa_dm())
            .with_layer(layer)
            .with_sparsity(NmRatio::S2_4)
            .with_scale(8)
            .run();
        assert_eq!(classic.cells[0].cores, 1);
        assert!(classic.cells[0].per_core_cycles.is_empty());
    }

    #[test]
    fn sweep_cell_order_is_deterministic_and_complete() {
        let sweep = Sweep::new()
            .with_engines([EngineConfig::rasa_dm(), EngineConfig::vegeta_s(4).unwrap()])
            .with_layers(table4().into_iter().take(2))
            .with_sparsities([NmRatio::D4_4, NmRatio::S2_4])
            .with_scale(8);
        assert_eq!(sweep.cell_count(), 8);
        let report = sweep.run();
        assert_eq!(report.cells.len(), 8);
        // Workload-major, then sparsity, then engine.
        assert_eq!(report.cells[0].workload, "ResNet50-L1");
        assert_eq!(report.cells[0].sparsity, "4:4");
        assert_eq!(report.cells[0].engine, "RASA-DM (VEGETA-D-1-2)");
        assert_eq!(report.cells[1].engine, "VEGETA-S-4-2");
        assert_eq!(report.cells[2].sparsity, "2:4");
        assert_eq!(report.cells[4].workload, "ResNet50-L2");
    }

    #[test]
    fn sweep_shares_traces_across_engines() {
        // Dense baselines all execute the same dense kernel per layer:
        // the cache must collapse them to one build per distinct trace.
        let report = Sweep::new()
            .with_engines([
                EngineConfig::rasa_sm(),
                EngineConfig::rasa_dm(),
                EngineConfig::tmul_like(),
            ])
            .with_layer(table4()[7])
            .with_sparsity(NmRatio::S2_4)
            .with_scale(8)
            .with_threads(1)
            .run();
        assert_eq!(report.traces_built, 1);
        assert_eq!(report.trace_cache_hits, 2);
    }

    #[test]
    fn parallel_and_serial_sweeps_agree() {
        let grid = || {
            Sweep::new()
                .with_engines([
                    EngineConfig::rasa_dm(),
                    EngineConfig::stc_like(),
                    EngineConfig::vegeta_s(16).unwrap(),
                ])
                .with_layers(table4().into_iter().take(3))
                .with_sparsities([NmRatio::D4_4, NmRatio::S1_4])
                .with_scale(8)
        };
        let serial = grid().with_threads(1).run();
        let parallel = grid().with_threads(4).run();
        assert_eq!(serial.cells, parallel.cells);
        assert_eq!(serial.threads, 1);
        assert!(parallel.threads > 1);
    }

    #[test]
    fn memoized_sweep_cells_match_fresh_session_runs() {
        // Pattern and format axes (row-wise included) at two fidelities:
        // every sweep cell, whose L1 was recorded or replayed from a memo,
        // must equal the same cell run fresh through a Session, and so must
        // the cell whose operand is the pattern's kernel spelled out.
        let layer = table4()[7];
        let engines = [
            EngineConfig::rasa_dm(),
            EngineConfig::stc_like(),
            EngineConfig::vegeta_s(16).unwrap(),
        ];
        let ratios = [NmRatio::S2_4, NmRatio::S1_4];
        let formats = [
            FormatSpec::Dense,
            FormatSpec::RowWise { m: 4 },
            FormatSpec::Csr,
        ];
        let fidelities = [Fidelity::Quick(8), Fidelity::Quick(4)];
        let grid = |threads| {
            Sweep::new()
                .with_engines(engines.clone())
                .with_layer(layer)
                .with_sparsities(ratios)
                .with_formats(formats)
                .with_fidelities(fidelities)
                .with_threads(threads)
        };
        let mut expected = Vec::new();
        for fidelity in fidelities {
            for ratio in ratios {
                for engine in &engines {
                    let session = Session::new(engine.clone());
                    let fresh = session.run(&Cell::layer(&layer, fidelity, ratio));
                    let spec = engine.kernel_spec(ratio, KernelOptions::default());
                    let spelled_out = session.run(&Cell::layer(&layer, fidelity, &spec));
                    assert_eq!(
                        RunReport {
                            sparsity: fresh.sparsity.clone(),
                            ..spelled_out
                        },
                        fresh
                    );
                    expected.push(fresh);
                }
            }
            for format in formats {
                for engine in &engines {
                    let session = Session::new(engine.clone());
                    expected.push(session.run(&Cell::layer(&layer, fidelity, format)));
                }
            }
        }
        let distinct: std::collections::HashSet<(GemmShape, String)> = expected
            .iter()
            .map(|r| (r.shape, r.kernel.clone()))
            .collect();
        for threads in [1, 4] {
            let (report, memos) = grid(threads).run_with_memos();
            assert_eq!(report.cells, expected, "{threads} threads");
            assert!(
                memos
                    .slots
                    .iter()
                    .all(|slot| slot.memo.lock().unwrap().is_none()),
                "every memo is dropped once its last cell finished"
            );
            assert_eq!(memos.slots.len(), distinct.len());
            if threads == 1 {
                assert_eq!(
                    report.l1_fresh_replays,
                    distinct.len() as u64,
                    "one fresh L1 replay per distinct trace"
                );
                assert_eq!(report.l1_fresh_replays, report.traces_built);
            }
        }

        // A cores axis runs the sharded branch of the same cell runner.
        let sharded = Sweep::new()
            .with_engines(engines.clone())
            .with_layer(layer)
            .with_sparsity(NmRatio::S2_4)
            .with_cores([1, 4])
            .with_scale(8)
            .with_threads(2);
        let mut expected = Vec::new();
        for cores in [1, 4] {
            for engine in &engines {
                let cell = Cell::layer(&layer, Fidelity::Quick(8), NmRatio::S2_4).cores(cores);
                expected.push(Session::new(engine.clone()).run(&cell));
            }
        }
        assert_eq!(sharded.cell_count(), expected.len());
        assert_eq!(sharded.run().cells, expected);
    }

    #[test]
    fn a_zero_core_cell_is_a_one_core_cell() {
        let layer = table4()[7];
        let session = Session::new(EngineConfig::vegeta_s(16).unwrap());
        let cell = Cell::layer(&layer, Fidelity::Quick(8), NmRatio::S2_4);
        let one = session.run(&cell.cores(1));
        assert_eq!(session.run(&cell.cores(0)), one);
        assert_eq!((one.cores, one.per_core_cycles.len()), (1, 1));
    }

    #[test]
    fn sweeps_schedule_each_traces_first_cell_first() {
        // Dense engines share one dense trace per sparsity, the sparse
        // engine has one trace per pattern: within the shape's block the
        // first cell of every trace runs before the rest.
        let sweep = Sweep::new()
            .with_engines([EngineConfig::rasa_dm(), EngineConfig::vegeta_s(16).unwrap()])
            .with_layer(table4()[7])
            .with_sparsities([NmRatio::D4_4, NmRatio::S2_4])
            .with_cores([2])
            .with_scale(8);
        // A cores axis: every cell is multi-core and keeps no memo.
        let (report, memos) = sweep.run_with_memos();
        assert!(memos.slots.is_empty() && memos.slot_of.iter().all(Option::is_none));
        assert_eq!(report.l1_fresh_replays, 0);

        let layer = &table4()[7];
        let engines = [EngineConfig::rasa_dm(), EngineConfig::vegeta_s(16).unwrap()];
        let shape = Fidelity::Quick(8).shape_of(layer);
        let memos = L1Memos::plan(
            [NmRatio::D4_4, NmRatio::S2_4]
                .into_iter()
                .flat_map(|ratio| {
                    engines.iter().map(move |engine| {
                        Some((shape, engine.kernel_spec(ratio, KernelOptions::default())))
                    })
                }),
        );
        // Cells: dense/DM, dense/S, 2:4/DM (dense trace), 2:4/S.
        assert_eq!(memos.slot_of, vec![Some(0), Some(0), Some(0), Some(1)]);
        assert_eq!(memos.schedule([shape; 4].into_iter()), vec![0, 3, 1, 2]);
        // A new shape starts a new block: its first cells run after the
        // previous block's rest.
        let other = Fidelity::Quick(4).shape_of(layer);
        let memos = L1Memos::plan(
            [shape, shape, other, other]
                .into_iter()
                .map(|s| Some((s, KernelSpec::Vector))),
        );
        let shapes = [shape, shape, other, other].into_iter();
        assert_eq!(memos.schedule(shapes), vec![0, 1, 2, 3]);
    }

    #[test]
    fn every_sweep_cell_is_one_cache_lookup_with_preflight_on_or_off() {
        // The preflight verdict lookup is each cell's one trace-cache
        // lookup, so switching it off changes no count.
        let sweep = |cores: &[usize], enabled| {
            Sweep::new()
                .with_engines([EngineConfig::rasa_dm(), EngineConfig::vegeta_s(16).unwrap()])
                .with_layer(table4()[7])
                .with_sparsities([NmRatio::D4_4, NmRatio::S2_4])
                .with_cores(cores.iter().copied())
                .with_scale(8)
                .with_preflight(enabled)
        };
        for cores in [&[][..], &[1, 4]] {
            let on = sweep(cores, true).run();
            let off = sweep(cores, false).run();
            assert_eq!(on.traces_built + on.trace_cache_hits, on.cells.len() as u64);
            assert_eq!(
                (on.traces_built, on.trace_cache_hits),
                (off.traces_built, off.trace_cache_hits)
            );
            assert_eq!(on.cells, off.cells);
        }
    }

    #[test]
    fn preflight_fills_the_slot_of_its_core_count() {
        // A real lint fills slot 0 for the unsharded stream and slot n for
        // n cores, and no other; a slot it filled never runs `unlinted`.
        let cache = TraceCache::new();
        let spec = KernelSpec::tiled(SparseMode::Nm2of4);
        let unlinted = || Err("unlinted".to_string());
        for (i, (cores, other)) in [(0, 4), (4, 0)].into_iter().enumerate() {
            let shape = GemmShape::new(64 << i, 64, 256);
            assert_eq!(preflight(&cache, shape, &spec, cores, true), Ok(()));
            assert_eq!(cache.verdict(shape, &spec, cores, Some(unlinted)), Ok(()));
            assert!(cache.verdict(shape, &spec, other, Some(unlinted)).is_err());
        }
        // Switched off, it fills nothing.
        let shape = GemmShape::new(32, 64, 256);
        assert_eq!(preflight(&cache, shape, &spec, 0, false), Ok(()));
        assert!(cache.verdict(shape, &spec, 0, Some(unlinted)).is_err());
    }

    #[test]
    fn preflight_never_perturbs_reports() {
        // The static-verification gate runs before the simulator and is
        // memoized out of repeat cells: identical runs with the preflight
        // on and off must produce byte-identical reports, single- and
        // multi-core alike.
        let layer = table4()[7];
        let baseline = Session::new(EngineConfig::vegeta_s(16).unwrap());
        let single = Cell::layer(&layer, Fidelity::Quick(8), NmRatio::S2_4);
        for enabled in [true, false] {
            let session = baseline.clone().with_preflight(enabled);
            assert_eq!(session.run(&single), baseline.run(&single));
            let multi = single.cores(4);
            assert_eq!(session.run(&multi), baseline.run(&multi));
        }
    }
}

//! Sharded multi-core simulation over a shared L2, with load-aware
//! scheduling.
//!
//! VEGETA's evaluation is single-core, but its deployment story — and this
//! repository's north star — is many matrix-engine-equipped cores sharding
//! one GEMM (the scale-out setting SparseZipper and Occamy evaluate).
//! [`MultiCoreSim`] composes `n` independent [`Core`]s (private L1s, private
//! engine timers) over one coherence-free [`SharedL2`]. It is the one
//! driver of the workspace: an unsharded run is its one-lane case, the
//! kernel's stream on a single core.
//!
//! * every core consumes shard streams (rectangles of a kernel's tile-loop
//!   nest, typically produced by `KernelSpec::shard_set` in
//!   `vegeta-kernels`), packed onto the cores by longest processing time
//!   first;
//! * results are those of interleaving the cores in **core-local time
//!   order**: the core whose clock is furthest behind steps next, ties by
//!   core index. [`MultiCoreSim::run_sharded_stepped`] is that order's
//!   linear-scan reference, and differential tests pin
//!   [`MultiCoreSim::run_sharded`] to it field for field;
//! * under the §VI-B prefetch assumption every shared-L2 lookup costs the
//!   same hit latency, so no core's timing depends on another's:
//!   [`MultiCoreSim::run_sharded`] runs each core on its own, up to
//!   [`MultiCoreConfig::resolved_host_threads`] at once, against a private
//!   first-touch summary that folds into the [`SharedL2`] (each line goes
//!   to the smallest `(first wake time, core)`, its first toucher in that
//!   order). A single core shares no line, so it steps against the flat
//!   L2 of the single-core model, with no summary, and its shared-L2
//!   statistics are its L1 misses, none of them shared;
//! * the run ends with a sync/barrier: the makespan is the slowest core's
//!   retire time plus a tree-barrier cost ([`BARRIER_LATENCY`] per
//!   `⌈log₂ cores⌉` level; zero for a single core, which keeps
//!   `MultiCoreSim` with one core cycle-identical to [`crate::CoreSim`]);
//! * a K-split shard set carries a **reduction stream** that merges the
//!   shards' partial `C` images; [`MultiCoreSim::run_sharded`] replays it
//!   on core 0 *after* the barrier (deterministically — every partial has
//!   been stored by then) and reports its cost separately
//!   ([`MultiCoreResult::reduction_cycles`]).
//!
//! # Scheduling
//!
//! Shards are packed longest processing time first: sorted by their
//! **exact** op counts (shard streams declare exact lengths — no cost
//! model needed) and greedily assigned to the least-loaded core, ties
//! broken by index, so any over-decomposed shard set balances even when
//! accumulator groups are uneven, and equal-length streams keep stream
//! `i` on core `i`. Cores drain their queues back to back. Assignment is
//! deterministic: it depends only on the declared lengths, never on host
//! timing.
//!
//! The result carries per-core [`SimResult`]s, the merged cache traffic
//! ([`CacheStats::merge`]) and the shared L2's hit/sharing split;
//! cores left without work surface as [`MultiCoreResult::stranded_cores`].
//!
//! ```
//! use vegeta_engine::EngineConfig;
//! use vegeta_isa::trace::{Trace, TraceOp};
//! use vegeta_sim::{MultiCoreConfig, MultiCoreSim, SchedulerPolicy};
//!
//! // Three shards of very different lengths on two cores: LPT pairs the
//! // short ones against the long one instead of overloading core 0.
//! let shard = |n: u32| {
//!     let mut t = Trace::new();
//!     for i in 0..n {
//!         t.push(TraceOp::Scalar { dst: (i % 8) as u8, src: 0 });
//!     }
//!     t
//! };
//! let (long, short) = (shard(4096), shard(2048));
//! let mut sim = MultiCoreSim::new(MultiCoreConfig::new(2), EngineConfig::rasa_dm());
//! let res = sim.run_sharded(
//!     vec![short.stream(), long.stream(), short.stream()],
//!     None,
//!     SchedulerPolicy::Lpt,
//! );
//! assert_eq!(res.instructions(), 8192);
//! assert_eq!(res.stranded_cores(), 0);
//! assert!(res.scaling_efficiency() > 0.9, "4096 vs 2048+2048 is balanced");
//! ```

use std::collections::VecDeque;
use std::sync::Mutex;

use vegeta_engine::EngineConfig;
use vegeta_isa::stream::InstStream;

use crate::cache::{CacheStats, SharedL2, SharedL2Stats};
use crate::core::{Core, SimConfig, SimResult};
use crate::memo::{L1Config, L1Memo, MemoError};

/// Per-level tree-barrier cost in core cycles (about two shared-L2 round
/// trips: one line flush, one flag observation).
pub const BARRIER_LATENCY: u64 = 32;

/// Environment variable forcing the host-thread count of every multi-core
/// run, overriding [`MultiCoreConfig::exec`] (`VEGETA_HOST_THREADS`). A
/// value of `1` runs every core inline on the calling thread — the CI leg
/// that keeps the single-thread path honest. Anything but a positive
/// integer is refused loudly, never guessed at.
pub const HOST_THREADS_ENV: &str = "VEGETA_HOST_THREADS";

/// Lines a first-touch summary may hold before it folds into the shared
/// L2 and starts over.
const SUMMARY_LINES: usize = 8192;

/// Claim pages (4 KB each) a first-touch summary may hold before it
/// folds, whatever its lines: with [`SUMMARY_LINES`], this bounds each
/// host thread's summary at a few hundred KB however sparsely its core
/// touches lines.
const SUMMARY_PAGES: usize = 64;

/// Parses a [`HOST_THREADS_ENV`] value: a positive integer, surrounding
/// whitespace allowed. The error wording is the one every environment
/// knob of the workspace refuses bad values with.
fn parse_host_threads(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "{HOST_THREADS_ENV}='{raw}' is not a positive integer"
        )),
    }
}

/// How a multi-core run uses *host* threads: the cores are independent
/// under the prefetch assumption and run up to `n` at once. Simulated
/// results are the same in every mode (`sim/tests/parallel_vs_event.rs`
/// pins them all to the stepped reference).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Use up to `std::thread::available_parallelism()` host threads. The
    /// default.
    #[default]
    Auto,
    /// One host thread: every core runs inline on the calling thread.
    Sequential,
    /// Use up to `n` host threads (clamped to the simulated core count;
    /// `0` and `1` both mean one). Callers sharing a host-thread budget
    /// across concurrent runs (sweep grids, serving pools) pass their
    /// per-run slice here so the host is not oversubscribed.
    ParallelHost(usize),
}

/// Configuration of a multi-core run: the per-core parameters, the core
/// count and the host-thread policy.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiCoreConfig {
    /// Per-core configuration (front end, ROB, ports, private L1, clocks).
    /// Its `l2_latency` is also the shared L2's hit latency.
    pub core: SimConfig,
    /// Number of cores (≥ 1), each with a private L1 and engine.
    pub cores: usize,
    /// Host-thread policy of the run (simulated results are identical in
    /// every mode); see [`ExecMode`].
    pub exec: ExecMode,
}

impl MultiCoreConfig {
    /// A multi-core configuration with `cores` copies of the default §VI-B
    /// core.
    pub fn new(cores: usize) -> Self {
        Self::with_core(SimConfig::default(), cores)
    }

    /// A multi-core configuration around an explicit per-core config.
    pub fn with_core(core: SimConfig, cores: usize) -> Self {
        MultiCoreConfig {
            core,
            cores: cores.max(1),
            exec: ExecMode::Auto,
        }
    }

    /// Sets the host-thread policy (builder form).
    pub fn with_exec(mut self, exec: ExecMode) -> Self {
        self.exec = exec;
        self
    }

    /// The host-thread count this configuration resolves to, in `1..=cores`:
    /// [`HOST_THREADS_ENV`] overrides everything, else
    /// [`MultiCoreConfig::exec`] decides ([`ExecMode::Auto`] caps at
    /// `std::thread::available_parallelism()`).
    ///
    /// # Panics
    ///
    /// Panics with `VEGETA_HOST_THREADS='<value>' is not a positive
    /// integer` when [`HOST_THREADS_ENV`] holds anything else: a typo must
    /// not silently pick another host budget.
    pub fn resolved_host_threads(&self) -> usize {
        let requested = match std::env::var_os(HOST_THREADS_ENV) {
            Some(raw) => {
                parse_host_threads(&raw.to_string_lossy()).unwrap_or_else(|e| panic!("{e}"))
            }
            None => match self.exec {
                ExecMode::Sequential => 1,
                ExecMode::ParallelHost(n) => n,
                ExecMode::Auto => {
                    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
                }
            },
        };
        requested.min(self.cores.max(1)).max(1)
    }

    /// Core cycles the end-of-shard barrier costs at this core count:
    /// [`BARRIER_LATENCY`] per tree level.
    pub fn barrier_cycles(&self) -> u64 {
        if self.cores <= 1 {
            return 0;
        }
        let levels = usize::BITS - (self.cores - 1).leading_zeros(); // ⌈log₂ cores⌉
        BARRIER_LATENCY * levels as u64
    }
}

/// How shard streams are assigned to cores in a multi-core run: always
/// [`SchedulerPolicy::Lpt`].
///
/// The type has one variant. It is kept, with the `policy` parameter of
/// [`MultiCoreSim::run_sharded`] and [`MultiCoreSim::run_sharded_stepped`],
/// only because the repository benchmark (`perfbench/src/multicore.rs`)
/// passes `SchedulerPolicy::Lpt` to `run_sharded`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerPolicy {
    /// Longest-processing-time packing: shards are sorted by descending
    /// declared length and each is assigned to the currently least-loaded
    /// core (ties broken by lowest index). Any number of shards is
    /// accepted; cores drain their queues back to back. This is the
    /// default — with an over-decomposed shard plan (`ShardPlan` in
    /// `vegeta-kernels`), LPT keeps every core busy even when
    /// accumulator-group rows are uneven.
    #[default]
    Lpt,
}

impl SchedulerPolicy {
    /// The short lowercase label used in reports (`"lpt"`).
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerPolicy::Lpt => "lpt",
        }
    }
}

impl std::fmt::Display for SchedulerPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The result of one sharded multi-core run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiCoreResult {
    /// Simulated cores, idle ones included.
    pub cores: usize,
    /// Makespan in core cycles: the slowest core's retire time plus the
    /// end-of-shard barrier.
    pub core_cycles: u64,
    /// Core cycles of the final sync/barrier included in `core_cycles`.
    pub barrier_cycles: u64,
    /// Core cycles of the post-barrier K-split reduction (replayed on
    /// core 0), included in `core_cycles`. Zero when the shard set carried
    /// no reduction stream.
    pub reduction_cycles: u64,
    /// Per-core results, in core order.
    pub per_core: Vec<SimResult>,
    /// The shared L2's hit/miss/sharing statistics.
    pub shared_l2: SharedL2Stats,
}

impl MultiCoreResult {
    /// Total dynamic instructions across all cores.
    pub fn instructions(&self) -> u64 {
        self.per_core.iter().map(|r| r.instructions).sum()
    }

    /// Total tile compute instructions across all cores.
    pub fn tile_compute(&self) -> u64 {
        self.per_core.iter().map(|r| r.tile_compute).sum()
    }

    /// Summed engine-busy cycles across all cores (aggregate engine work,
    /// not wall-clock).
    pub fn engine_busy_cycles(&self) -> u64 {
        self.per_core.iter().map(|r| r.engine_busy_cycles).sum()
    }

    /// Summed peak trace residency across all cores (every shard's stream
    /// is live concurrently).
    pub fn peak_resident_bytes(&self) -> u64 {
        self.per_core.iter().map(|r| r.peak_resident_bytes).sum()
    }

    /// Per-core cycle counts, in core order.
    pub fn per_core_cycles(&self) -> Vec<u64> {
        self.per_core.iter().map(|r| r.core_cycles).collect()
    }

    /// Cores that retired nothing (zero cycles) — provisioned silicon the
    /// shard plan and scheduler failed to feed. A healthy scaled-out run
    /// reports zero.
    pub fn stranded_cores(&self) -> usize {
        self.per_core.iter().filter(|r| r.core_cycles == 0).count()
    }

    /// Aggregate cache traffic of every private L1
    /// ([`CacheStats::merge`]d).
    pub fn merged_cache(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for r in &self.per_core {
            total += &r.cache;
        }
        total
    }

    /// Parallel efficiency of this run: the mean fraction of the makespan
    /// each core spent busy, `Σ per-core cycles / (cores × makespan)`.
    /// 1.0 means perfect balance with no barrier overhead; 0.0 for a
    /// zero-cycle (empty) run.
    pub fn scaling_efficiency(&self) -> f64 {
        if self.core_cycles == 0 || self.cores == 0 {
            return 0.0;
        }
        let busy: u64 = self.per_core.iter().map(|r| r.core_cycles).sum();
        busy as f64 / (self.cores as f64 * self.core_cycles as f64)
    }
}

/// A sharded multi-core simulator: `cores` §VI-B [`Core`]s over one
/// [`SharedL2`].
///
/// # Example
///
/// ```
/// use vegeta_engine::EngineConfig;
/// use vegeta_isa::trace::{Trace, TraceOp};
/// use vegeta_sim::{MultiCoreConfig, MultiCoreSim, SchedulerPolicy};
///
/// // Two cores each replaying half of a scalar stream.
/// let mut shard = Trace::new();
/// for i in 0..64u32 {
///     shard.push(TraceOp::Scalar { dst: (i % 8) as u8, src: 0 });
/// }
/// let mut sim = MultiCoreSim::new(MultiCoreConfig::new(2), EngineConfig::rasa_dm());
/// let res = sim.run_sharded(
///     vec![shard.stream(), shard.stream()],
///     None,
///     SchedulerPolicy::Lpt,
/// );
/// assert_eq!(res.cores, 2);
/// assert_eq!(res.instructions(), 128);
/// assert!(res.scaling_efficiency() > 0.5);
/// ```
#[derive(Debug)]
pub struct MultiCoreSim {
    cfg: MultiCoreConfig,
    cores: Vec<Core>,
    shared_l2: SharedL2,
}

impl MultiCoreSim {
    /// A multi-core simulator whose cores all run the same matrix-engine
    /// design point (each core gets its own engine instance).
    pub fn new(mut cfg: MultiCoreConfig, engine: EngineConfig) -> Self {
        cfg.cores = cfg.cores.max(1);
        let cores = (0..cfg.cores)
            .map(|id| Core::new(id, cfg.core.clone(), engine.clone()))
            .collect();
        let shared_l2 = SharedL2::new(cfg.core.l2_latency);
        MultiCoreSim {
            cfg,
            cores,
            shared_l2,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MultiCoreConfig {
        &self.cfg
    }

    /// Runs a sharded workload to completion: `shards` are packed onto
    /// cores longest first (see the module docs; `policy` has the one
    /// value [`SchedulerPolicy::Lpt`]), and the optional K-split
    /// `reduction` stream is replayed on core 0 after the barrier (every
    /// partial `C` image is globally visible by then, so the merge order
    /// is deterministic).
    /// A core with several queued shards runs them back to back on its own
    /// clock. The result is that of the core-local time order (see the
    /// module docs) whatever the host-thread count.
    ///
    /// The makespan is `slowest main-phase core + barrier + reduction`.
    /// Any number of shards is accepted; cores left without one idle.
    pub fn run_sharded<S: InstStream + Send>(
        &mut self,
        shards: Vec<S>,
        reduction: Option<S>,
        policy: SchedulerPolicy,
    ) -> MultiCoreResult {
        let mut lanes = assign_lanes(policy, shards, self.cores.len());
        self.run_per_core(&mut lanes);
        self.finish(lanes, reduction)
    }

    /// [`MultiCoreSim::run_sharded`] on this fresh simulator, through
    /// `memo`, the per-core L1 outcome of these streams: a memo that is
    /// still empty is recorded, one that is filled is replayed in place of
    /// every core's L1 model (see [`L1Memo`]). The result is the one
    /// [`MultiCoreSim::run_sharded`] reports, field for field. This is the
    /// one memoized entry point, for a shard set and for an unsharded
    /// stream on one core alike.
    ///
    /// The run consumes the simulator: a replayed core keeps no L1 state
    /// that a later run could continue from.
    ///
    /// # Errors
    ///
    /// When this simulator has already run, or when `memo` was recorded
    /// under another `(l1_lines, l1_latency, l2_latency)` triple, core
    /// count, or lane (a core with another memory-op or miss-mask count);
    /// the message names both values.
    pub fn run_sharded_memoized<S: InstStream + Send>(
        mut self,
        shards: Vec<S>,
        reduction: Option<S>,
        memo: &L1Memo,
    ) -> Result<MultiCoreResult, MemoError> {
        if self.cores.iter().any(|core| core.instructions() > 0) {
            return Err(MemoError(
                "a memoized run starts from fresh L1s, but this simulator has already run".into(),
            ));
        }
        let config = L1Config::of(&self.cfg.core);
        for (core, l1) in self
            .cores
            .iter_mut()
            .zip(memo.paths(config, self.cfg.cores)?)
        {
            core.l1 = l1;
        }
        let result = self.run_sharded(shards, reduction, SchedulerPolicy::Lpt);
        memo.finish(self.cores.into_iter().map(|core| core.l1), config)?;
        Ok(result)
    }

    /// [`MultiCoreSim::run_sharded`] driven by the linear-scan reference
    /// loop: the result [`MultiCoreSim::run_sharded`] is checked against.
    ///
    /// The scan interleaves every core on this thread against the real
    /// shared L2 and re-derives "which live core is furthest behind" from
    /// scratch every instruction — O(cores) per step. It is the simplest
    /// statement of the core-local time order; [`MultiCoreSim::run_sharded`]
    /// must produce identical [`MultiCoreResult`]s down to the last field,
    /// and this method exists so differential tests (and `vegeta_lint
    /// --replay`, which audits every verified shard set) can check that
    /// claim. Use [`MultiCoreSim::run_sharded`] everywhere else.
    pub fn run_sharded_stepped<S: InstStream>(
        &mut self,
        shards: Vec<S>,
        reduction: Option<S>,
        policy: SchedulerPolicy,
    ) -> MultiCoreResult {
        let mut lanes = assign_lanes(policy, shards, self.cores.len());
        let (cores, l2) = (&mut self.cores, &mut self.shared_l2);
        // The live core furthest behind in local time steps next.
        let mut live = vec![true; cores.len()];
        while let Some(i) = (0..cores.len())
            .filter(|&i| live[i])
            .min_by_key(|&i| (cores[i].cycles(), i))
        {
            if !lanes[i].advance(&mut cores[i], l2) {
                live[i] = false;
            }
        }
        self.finish(lanes, reduction)
    }

    /// The main phase: every core runs its lane to completion on its own,
    /// against a private first-touch summary that folds into the real
    /// shared L2 whenever it fills up and when the core finishes. Up to
    /// `resolved_host_threads` cores run at once; the calling thread is one
    /// of them.
    ///
    /// *Soundness.* With every lookup at the same latency, the interleave
    /// only decides each line's first toucher: the smallest `(wake time,
    /// core)` of a step touching it. A summary stamps each line with its
    /// core's clock before that step, and the fold keeps the smallest
    /// claim in any cross-core order. Lines resident before the run are
    /// settled first.
    ///
    /// A single core has no summary: it runs its lane against the flat L2.
    fn run_per_core<S: InstStream + Send>(&mut self, lanes: &mut [Lane<S>]) {
        if let [core] = self.cores.as_mut_slice() {
            lanes[0].drain_flat(core);
            return;
        }
        let threads = self.cfg.resolved_host_threads();
        let hit_latency = self.cfg.core.l2_latency;
        self.shared_l2.settle();
        let jobs = Mutex::new(self.cores.iter_mut().zip(lanes));
        let l2 = Mutex::new(&mut self.shared_l2);
        // Runs cores off the job list until it is empty.
        let work = || {
            let mut summary = SharedL2::new(hit_latency);
            loop {
                let job = jobs.lock().expect("a simulation worker panicked").next();
                let Some((core, lane)) = job else { return };
                loop {
                    let drained = lane.run_alone(core, &mut summary);
                    l2.lock()
                        .expect("a simulation worker panicked")
                        .fold(&mut summary);
                    if drained {
                        break;
                    }
                }
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(work);
            }
            work();
        });
    }

    /// Replays the K-split reduction on core 0's lane after the main phase
    /// and assembles the result, with each core's residency peak from its
    /// lane.
    fn finish<S: InstStream>(
        &mut self,
        mut lanes: Vec<Lane<S>>,
        reduction: Option<S>,
    ) -> MultiCoreResult {
        let slowest = self.cores.iter().map(Core::cycles).max().unwrap_or(0);
        let mut reduction_cycles = 0;
        if let Some(stream) = reduction {
            // Conceptually after the barrier, against a shared L2 that
            // already knows every line's first toucher.
            let before = self.cores[0].cycles();
            lanes[0].streams.push_back(stream);
            while lanes[0].advance(&mut self.cores[0], &mut self.shared_l2) {}
            reduction_cycles = self.cores[0].cycles() - before;
        }

        let per_core: Vec<SimResult> = self
            .cores
            .iter()
            .zip(&lanes)
            .map(|(core, lane)| core.result(lane.peak))
            .collect();
        let shared_l2 = match per_core.as_slice() {
            // Every line one core misses goes to the L2 and none is
            // shared, however the core stepped; the L1 counts accumulate
            // across runs like the L2's.
            [one] => SharedL2Stats {
                accesses: one.cache.l2_hits,
                hits: one.cache.l2_hits,
                ..SharedL2Stats::default()
            },
            _ => self.shared_l2.stats(),
        };
        let barrier_cycles = self.cfg.barrier_cycles();
        MultiCoreResult {
            cores: self.cores.len(),
            core_cycles: slowest + barrier_cycles + reduction_cycles,
            barrier_cycles,
            reduction_cycles,
            per_core,
            shared_l2,
        }
    }
}

/// One core's assigned shard streams, drained front to back, and the
/// summed residency peak of the streams it has finished.
struct Lane<S> {
    streams: VecDeque<S>,
    peak: u64,
}

impl<S: InstStream> Lane<S> {
    /// Retires `core`'s next instruction against `l2`, moving on to the
    /// next queued shard at the same clock when one drains. Returns
    /// `false` once the lane is empty.
    fn advance(&mut self, core: &mut Core, l2: &mut SharedL2) -> bool {
        while let Some(stream) = self.streams.front_mut() {
            if let Some(op) = stream.next_op() {
                core.step(op, Some(l2));
                return true;
            }
            self.peak += stream.peak_resident_bytes() as u64;
            self.streams.pop_front();
        }
        false
    }

    /// Runs `core` through the whole lane against the flat L2, one stream
    /// after another: a lone core shares no line, so it keeps no summary.
    fn drain_flat(&mut self, core: &mut Core) {
        while let Some(mut stream) = self.streams.pop_front() {
            while let Some(op) = stream.next_op() {
                core.step(op, None);
            }
            self.peak += stream.peak_resident_bytes() as u64;
        }
    }

    /// Runs `core` on its own against its first-touch `summary` until the
    /// lane drains (`true`) or the summary holds [`SUMMARY_LINES`] lines
    /// or [`SUMMARY_PAGES`] pages (`false`). Each step's accesses are
    /// stamped with the core's clock before the step: the time the
    /// core-local time order would wake it.
    fn run_alone(&mut self, core: &mut Core, summary: &mut SharedL2) -> bool {
        loop {
            if summary.resident_lines() >= SUMMARY_LINES || summary.pages() >= SUMMARY_PAGES {
                return false;
            }
            summary.set_now(core.cycles());
            if !self.advance(core, summary) {
                return true;
            }
        }
    }
}

/// Moves each shard onto the lane of the core `policy` assigns it to (see
/// [`SchedulerPolicy`]).
fn assign_lanes<S: InstStream>(policy: SchedulerPolicy, shards: Vec<S>, n: usize) -> Vec<Lane<S>> {
    let SchedulerPolicy::Lpt = policy;
    let lengths: Vec<u64> = shards.iter().map(InstStream::remaining).collect();
    let queues = lpt_queues(&lengths, n);
    let mut slots: Vec<Option<S>> = shards.into_iter().map(Some).collect();
    queues
        .into_iter()
        .map(|queue| Lane {
            streams: queue
                .into_iter()
                .map(|s| slots[s].take().expect("each shard is queued exactly once"))
                .collect(),
            peak: 0,
        })
        .collect()
}

/// Longest-processing-time packing of shard indices onto `n` core queues:
/// descending declared length (ties by index) onto the least-loaded core
/// (ties by core index).
fn lpt_queues(lengths: &[u64], n: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..lengths.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(lengths[i]), i));
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut load = vec![0u64; n];
    for s in order {
        let c = (0..n)
            .min_by_key(|&c| (load[c], c))
            .expect("at least one core");
        load[c] += lengths[s];
        queues[c].push(s);
    }
    queues
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::CoreSim;
    use vegeta_isa::trace::{Trace, TraceOp};
    use vegeta_isa::{Inst, TReg, UReg};

    fn mixed_trace(n: usize, stride: u64) -> Trace {
        let mut t = Trace::new();
        for i in 0..n {
            t.push(TraceOp::VecLoad {
                dst: (i % 16) as u8,
                addr: i as u64 * stride,
            });
            t.push_inst(Inst::TileSpmmU {
                acc: TReg::new((i % 3) as u8).unwrap(),
                a: TReg::T6,
                b: UReg::U2,
            });
            t.push(TraceOp::Scalar { dst: 0, src: 0 });
        }
        t
    }

    #[test]
    fn single_core_multicore_matches_coresim_exactly() {
        // With one core there is no barrier and no sharing: the multi-core
        // harness must collapse to the single-core simulator, cycle for
        // cycle and stat for stat.
        let trace = mixed_trace(200, 64);
        let engine = EngineConfig::vegeta_s(16).unwrap();
        let expected = CoreSim::with_engine(engine.clone()).run(&trace);
        let mut sim = MultiCoreSim::new(MultiCoreConfig::new(1), engine);
        let got = sim.run_sharded(vec![trace.stream()], None, SchedulerPolicy::Lpt);
        assert_eq!(got.barrier_cycles, 0);
        assert_eq!(got.core_cycles, expected.core_cycles);
        assert_eq!(got.per_core.len(), 1);
        assert_eq!(got.per_core[0], expected);
        assert_eq!(got.instructions(), expected.instructions);
        assert!((got.scaling_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_core_derives_its_shared_l2_counts_from_its_l1_misses() {
        // The stepped scan looks every missed line up in the real shared
        // L2, run after run; the per-core run keeps none.
        let trace = mixed_trace(300, 64);
        let lane = || vec![trace.stream()];
        let mut stepped = MultiCoreSim::new(MultiCoreConfig::new(1), EngineConfig::rasa_dm());
        let mut flat = MultiCoreSim::new(MultiCoreConfig::new(1), EngineConfig::rasa_dm());
        for _ in 0..2 {
            let want = stepped.run_sharded_stepped(lane(), None, SchedulerPolicy::Lpt);
            assert_eq!(want.shared_l2, stepped.shared_l2.stats());
            assert_eq!(flat.run_sharded(lane(), None, SchedulerPolicy::Lpt), want);
        }
        assert_eq!(flat.shared_l2.stats(), SharedL2Stats::default());
    }

    #[test]
    fn two_cores_halve_an_even_split() {
        let whole = mixed_trace(400, 64);
        let half_a = mixed_trace(200, 64);
        // Second half touches different addresses but has identical timing
        // structure.
        let mut half_b = Trace::new();
        for op in half_a.ops() {
            let shifted = match *op {
                TraceOp::VecLoad { dst, addr } => TraceOp::VecLoad {
                    dst,
                    addr: addr + (1 << 20),
                },
                other => other,
            };
            half_b.push(shifted);
        }
        let engine = EngineConfig::vegeta_s(16).unwrap();
        let one = MultiCoreSim::new(MultiCoreConfig::new(1), engine.clone()).run_sharded(
            vec![whole.stream()],
            None,
            SchedulerPolicy::Lpt,
        );
        let two = MultiCoreSim::new(MultiCoreConfig::new(2), engine).run_sharded(
            vec![half_a.stream(), half_b.stream()],
            None,
            SchedulerPolicy::Lpt,
        );
        assert_eq!(two.instructions(), one.instructions());
        assert!(
            two.core_cycles < one.core_cycles * 3 / 4,
            "2 cores {} vs 1 core {}",
            two.core_cycles,
            one.core_cycles
        );
        assert_eq!(two.per_core_cycles().len(), 2);
        assert!(two.scaling_efficiency() > 0.8, "balanced halves");
    }

    #[test]
    fn shared_lines_are_attributed_across_cores() {
        // Both cores stream the same addresses: every L2 touch after the
        // first core's is a shared hit.
        let t = mixed_trace(64, 64);
        let mut sim = MultiCoreSim::new(MultiCoreConfig::new(2), EngineConfig::rasa_dm());
        let res = sim.run_sharded(vec![t.stream(), t.stream()], None, SchedulerPolicy::Lpt);
        assert!(res.shared_l2.shared_hits > 0, "cross-core reuse observed");
        assert_eq!(res.shared_l2.misses, 0, "prefetched L2 never misses");
        let merged = res.merged_cache();
        assert_eq!(
            merged.l1_hits + merged.l2_hits,
            res.per_core
                .iter()
                .map(|r| r.cache.l1_hits + r.cache.l2_hits)
                .sum::<u64>()
        );
    }

    #[test]
    fn barrier_grows_logarithmically_and_is_free_for_one_core() {
        assert_eq!(MultiCoreConfig::new(1).barrier_cycles(), 0);
        let b = BARRIER_LATENCY;
        assert_eq!(MultiCoreConfig::new(2).barrier_cycles(), b);
        assert_eq!(MultiCoreConfig::new(4).barrier_cycles(), 2 * b);
        assert_eq!(MultiCoreConfig::new(8).barrier_cycles(), 3 * b);
        assert_eq!(MultiCoreConfig::new(16).barrier_cycles(), 4 * b);
        assert_eq!(MultiCoreConfig::new(5).barrier_cycles(), 3 * b);
    }

    #[test]
    fn empty_run_guards_scaling_efficiency() {
        let mut sim = MultiCoreSim::new(MultiCoreConfig::new(2), EngineConfig::rasa_dm());
        let res = sim.run_sharded(
            vec![Trace::new().stream(), Trace::new().stream()],
            None,
            SchedulerPolicy::Lpt,
        );
        // Two idle cores: the barrier still costs, but no division blows up.
        assert_eq!(res.instructions(), 0);
        assert_eq!(res.scaling_efficiency(), 0.0);
        let zero = MultiCoreResult {
            cores: 0,
            core_cycles: 0,
            barrier_cycles: 0,
            reduction_cycles: 0,
            per_core: Vec::new(),
            shared_l2: SharedL2Stats::default(),
        };
        assert_eq!(zero.scaling_efficiency(), 0.0);
    }

    #[test]
    fn lpt_accepts_more_shards_than_cores_and_strands_none() {
        // 7 uneven shards on 3 cores: LPT packs them.
        let shards: Vec<Trace> = (1..=7).map(|i| mixed_trace(8 * i, 64)).collect();
        let total_ops: u64 = shards.iter().map(|t| t.len() as u64).sum();
        let mut sim = MultiCoreSim::new(MultiCoreConfig::new(3), EngineConfig::rasa_dm());
        let res = sim.run_sharded(
            shards.iter().map(Trace::stream).collect(),
            None,
            SchedulerPolicy::Lpt,
        );
        assert_eq!(res.instructions(), total_ops);
        assert_eq!(res.stranded_cores(), 0);
        assert_eq!(res.reduction_cycles, 0);
        assert!(res.scaling_efficiency() > 0.8, "LPT balances uneven shards");
    }

    #[test]
    fn lpt_beats_static_on_unbalanced_shards() {
        // Two long + two short shards on 2 cores: LPT pairs long/short per
        // core; a naive in-order fold pairs long/long.
        let long = mixed_trace(120, 64);
        let short = mixed_trace(30, 64);
        let engine = EngineConfig::rasa_dm();
        let lpt = MultiCoreSim::new(MultiCoreConfig::new(2), engine.clone()).run_sharded(
            vec![long.stream(), long.stream(), short.stream(), short.stream()],
            None,
            SchedulerPolicy::Lpt,
        );
        // In-order pairing: both long shards land on core 0, as two
        // concatenated streams.
        let mut naive_a = Trace::new();
        for op in long.ops().iter().chain(long.ops()) {
            naive_a.push(*op);
        }
        let mut naive_b = Trace::new();
        for op in short.ops().iter().chain(short.ops()) {
            naive_b.push(*op);
        }
        let naive = MultiCoreSim::new(MultiCoreConfig::new(2), engine).run_sharded(
            vec![naive_a.stream(), naive_b.stream()],
            None,
            SchedulerPolicy::Lpt,
        );
        assert_eq!(lpt.instructions(), naive.instructions());
        assert!(
            lpt.core_cycles < naive.core_cycles,
            "LPT {} vs naive pairing {}",
            lpt.core_cycles,
            naive.core_cycles
        );
    }

    #[test]
    fn lpt_is_deterministic() {
        let shards: Vec<Trace> = (1..=5).map(|i| mixed_trace(16 * i, 64)).collect();
        let engine = EngineConfig::vegeta_s(16).unwrap();
        let run = || {
            MultiCoreSim::new(MultiCoreConfig::new(4), engine.clone()).run_sharded(
                shards.iter().map(Trace::stream).collect(),
                None,
                SchedulerPolicy::Lpt,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reduction_runs_after_the_barrier_on_core_zero() {
        let shard = mixed_trace(40, 64);
        let reduction = mixed_trace(16, 128);
        let mut sim = MultiCoreSim::new(MultiCoreConfig::new(2), EngineConfig::rasa_dm());
        let res = sim.run_sharded(
            vec![shard.stream(), shard.stream()],
            Some(reduction.stream()),
            SchedulerPolicy::Lpt,
        );
        assert!(res.reduction_cycles > 0);
        assert_eq!(
            res.instructions(),
            (2 * shard.len() + reduction.len()) as u64,
            "reduction ops are attributed to core 0"
        );
        // Makespan covers barrier and reduction on top of the main phase.
        let no_red = MultiCoreSim::new(MultiCoreConfig::new(2), EngineConfig::rasa_dm())
            .run_sharded(
                vec![shard.stream(), shard.stream()],
                None,
                SchedulerPolicy::Lpt,
            );
        assert_eq!(res.core_cycles, no_red.core_cycles + res.reduction_cycles);
    }

    #[test]
    fn event_merge_matches_the_stepped_scan_reference() {
        // The per-core runs and the linear scan must agree on every field
        // of the result — reduction and ragged shard mixes included.
        let shards: Vec<Trace> = (1..=6).map(|i| mixed_trace(12 * i, 64)).collect();
        let reduction = mixed_trace(20, 128);
        let engine = EngineConfig::vegeta_s(16).unwrap();
        let cfg = MultiCoreConfig::new(3);
        for take in [3, 6] {
            assert_matches_stepped(
                &cfg,
                &engine,
                &shards[..take],
                Some(&reduction),
                SchedulerPolicy::Lpt,
            );
        }
    }

    #[test]
    fn scheduler_labels_round_trip() {
        assert_eq!(SchedulerPolicy::Lpt.label(), "lpt");
        assert_eq!(SchedulerPolicy::default(), SchedulerPolicy::Lpt);
        assert_eq!(SchedulerPolicy::Lpt.to_string(), "lpt");
    }

    #[test]
    fn idle_cores_are_tolerated() {
        let t = mixed_trace(32, 64);
        // 4 cores, 2 streams: cores 2/3 idle.
        let mut sim = MultiCoreSim::new(MultiCoreConfig::new(4), EngineConfig::rasa_dm());
        let res = sim.run_sharded(vec![t.stream(), t.stream()], None, SchedulerPolicy::Lpt);
        assert_eq!(res.cores, 4);
        assert_eq!(res.per_core[2].instructions, 0);
        assert_eq!(res.per_core[3].core_cycles, 0);
        assert!(res.instructions() > 0);
    }

    /// The host-thread count [`HOST_THREADS_ENV`] forces in this process,
    /// if any — tests must stay correct under the CI leg that pins it to 1.
    fn forced_host_threads() -> Option<usize> {
        std::env::var(HOST_THREADS_ENV)
            .ok()
            .map(|raw| parse_host_threads(&raw).unwrap_or_else(|e| panic!("{e}")))
    }

    #[test]
    fn host_threads_parser_rejects_bad_values_loudly() {
        assert_eq!(parse_host_threads(" 2 "), Ok(2));
        assert_eq!(parse_host_threads("1"), Ok(1));
        for bad in ["", "0", "-1", "abc"] {
            assert_eq!(
                parse_host_threads(bad),
                Err(format!(
                    "VEGETA_HOST_THREADS='{bad}' is not a positive integer"
                ))
            );
        }
    }

    #[test]
    fn exec_mode_resolution_clamps_to_the_core_count() {
        let expect = |want: usize, cores: usize| forced_host_threads().unwrap_or(want).min(cores);
        assert_eq!(MultiCoreConfig::new(4).exec, ExecMode::Auto);
        let auto = MultiCoreConfig::new(4).resolved_host_threads();
        assert!((1..=4).contains(&auto), "Auto stays within 1..=cores");
        assert_eq!(
            MultiCoreConfig::new(4)
                .with_exec(ExecMode::Sequential)
                .resolved_host_threads(),
            expect(1, 4)
        );
        assert_eq!(
            MultiCoreConfig::new(4)
                .with_exec(ExecMode::ParallelHost(0))
                .resolved_host_threads(),
            expect(1, 4),
            "0 means one host thread, not a panic"
        );
        assert_eq!(
            MultiCoreConfig::new(4)
                .with_exec(ExecMode::ParallelHost(3))
                .resolved_host_threads(),
            expect(3, 4)
        );
        assert_eq!(
            MultiCoreConfig::new(4)
                .with_exec(ExecMode::ParallelHost(64))
                .resolved_host_threads(),
            expect(64, 4),
            "clamped to the simulated core count"
        );
        assert_eq!(
            MultiCoreConfig::new(1)
                .with_exec(ExecMode::ParallelHost(8))
                .resolved_host_threads(),
            1,
            "one simulated core never fans out"
        );
    }

    /// `run_sharded` at every host-thread count in `1..=4` must equal the
    /// stepped reference field for field.
    fn assert_matches_stepped(
        cfg: &MultiCoreConfig,
        engine: &EngineConfig,
        shards: &[Trace],
        reduction: Option<&Trace>,
        policy: SchedulerPolicy,
    ) -> MultiCoreResult {
        let stepped = MultiCoreSim::new(cfg.clone(), engine.clone()).run_sharded_stepped(
            shards.iter().map(Trace::stream).collect(),
            reduction.map(Trace::stream),
            policy,
        );
        for host in 1..=4 {
            let got = MultiCoreSim::new(
                cfg.clone().with_exec(ExecMode::ParallelHost(host)),
                engine.clone(),
            )
            .run_sharded(
                shards.iter().map(Trace::stream).collect(),
                reduction.map(Trace::stream),
                policy,
            );
            assert_eq!(got, stepped, "{} cores, {host} host threads", cfg.cores);
        }
        stepped
    }

    #[test]
    fn parallel_host_matches_sequential_bit_for_bit() {
        // Ragged shards + a K-split reduction across simulated-core ×
        // host-thread combinations, against the sequential stepped scan.
        let shards: Vec<Trace> = (1..=6).map(|i| mixed_trace(14 * i, 64)).collect();
        let reduction = mixed_trace(20, 128);
        let engine = EngineConfig::vegeta_s(16).unwrap();
        for cores in [2usize, 3, 4] {
            assert_matches_stepped(
                &MultiCoreConfig::new(cores),
                &engine,
                &shards,
                Some(&reduction),
                SchedulerPolicy::Lpt,
            );
        }
    }

    #[test]
    fn parallel_host_reproduces_shared_attribution_and_idle_cores() {
        // Identical streams: the cores tie on wake time at every step, so
        // every line's first toucher is decided by the core-id tiebreak
        // alone. Cores 3/4 stay idle.
        let t = mixed_trace(64, 64);
        let res = assert_matches_stepped(
            &MultiCoreConfig::new(5),
            &EngineConfig::rasa_dm(),
            &[t.clone(), t.clone(), t],
            None,
            SchedulerPolicy::Lpt,
        );
        assert!(res.shared_l2.shared_hits > 0, "cross-core reuse observed");
        assert_eq!(res.stranded_cores(), 2);
    }

    #[test]
    fn a_one_line_per_page_lane_keeps_its_summary_within_the_page_budget() {
        // One line in each of 4 * SUMMARY_PAGES claim pages, 16 KB apart:
        // far below SUMMARY_LINES, so only the page budget folds.
        let pages = 4 * SUMMARY_PAGES as u64;
        let sparse = |first: u64| {
            let mut t = Trace::new();
            for page in first..first + pages {
                t.push(TraceOp::VecLoad {
                    dst: (page % 16) as u8,
                    addr: page * 16 * 1024,
                });
            }
            t
        };
        let trace = sparse(0);
        let mut core = Core::new(0, SimConfig::default(), EngineConfig::rasa_dm());
        let mut lane = Lane {
            streams: VecDeque::from([trace.stream()]),
            peak: 0,
        };
        let (mut summary, mut real) = (SharedL2::new(14), SharedL2::new(14));
        let mut folds = 0;
        loop {
            let drained = lane.run_alone(&mut core, &mut summary);
            assert!(
                summary.pages() <= SUMMARY_PAGES,
                "{} pages",
                summary.pages()
            );
            real.fold(&mut summary);
            folds += 1;
            if drained {
                break;
            }
        }
        assert_eq!(folds, 5, "four full summaries, then the drained lane");
        assert_eq!(real.stats().accesses, pages);
        assert_eq!(real.pages(), pages as usize);
        // Two such lanes overlapping by half fold like the stepped scan.
        let res = assert_matches_stepped(
            &MultiCoreConfig::new(2),
            &EngineConfig::rasa_dm(),
            &[sparse(0), sparse(pages / 2)],
            None,
            SchedulerPolicy::Lpt,
        );
        assert_eq!(res.shared_l2.shared_hits, pages / 2);
    }

    #[test]
    fn long_lanes_fold_their_summaries_midway() {
        // Each core sweeps twice over more lines than a summary holds, so
        // it re-touches lines it already folded; the cores sweep in
        // opposite directions, so first touchers flip halfway through.
        let lines = 2 * SUMMARY_LINES as u64;
        let sweep = |order: &mut dyn Iterator<Item = u64>| {
            let mut t = Trace::new();
            for (i, line) in order.enumerate() {
                t.push(TraceOp::VecLoad {
                    dst: (i % 16) as u8,
                    addr: line * 64,
                });
            }
            t
        };
        let up = sweep(&mut (0..lines).chain(0..lines));
        let down = sweep(&mut (0..lines).rev().chain((0..lines).rev()));
        let res = assert_matches_stepped(
            &MultiCoreConfig::new(2),
            &EngineConfig::rasa_dm(),
            &[up, down],
            None,
            SchedulerPolicy::Lpt,
        );
        assert_eq!(res.shared_l2.accesses, 4 * lines);
        assert!(res.shared_l2.shared_hits > lines, "both cores own lines");
    }

    #[test]
    fn parallel_host_tolerates_empty_and_idle_work() {
        let res = MultiCoreSim::new(
            MultiCoreConfig::new(3).with_exec(ExecMode::ParallelHost(3)),
            EngineConfig::rasa_dm(),
        )
        .run_sharded(vec![Trace::new().stream()], None, SchedulerPolicy::Lpt);
        assert_eq!(res.instructions(), 0);
        assert_eq!(res.stranded_cores(), 3);
    }
}

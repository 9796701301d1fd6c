//! Kernel dispatch and trace memoization.
//!
//! Every trace builder in this crate — the optimized tiled GEMM/SPMM
//! kernels, the naive Listing-1 kernel, the row-wise `TILE_SPMM_R` kernel
//! and the vector-engine baseline — is reachable through one value:
//!
//! * [`KernelSpec`] is the closed, hashable enumeration of this crate's
//!   builders; it is the value the experiment drivers pass around, the one
//!   way to a kernel's trace ([`KernelSpec::stream`], or
//!   [`KernelSpec::build`] for a materialized [`Trace`]), and the cache key
//!   the sweep infrastructure memoizes on.
//! * [`TraceCache`] memoizes what is known about each `(GemmShape,
//!   KernelSpec)` trace: its [`TraceSummary`] and its static-verification
//!   verdicts, handing out fresh lazy [`KernelStream`]s via
//!   [`TraceCache::stream`], so a sweep over many engines derives each
//!   distinct trace's accounting and verdict once and never holds a full
//!   instruction vector. It is `Sync` and cheap to share across worker
//!   threads.
//!
//! [`KernelStream`]: crate::stream::KernelStream
//! * [`EngineKernelExt`] puts `execution_mode` on [`EngineConfig`]: the
//!   kernel an engine runs for weights of a given `N:M` pattern.
//!
//! [`Trace`]: vegeta_isa::trace::Trace

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use vegeta_engine::EngineConfig;
use vegeta_isa::stream::InstStream;
use vegeta_isa::trace::Trace;
use vegeta_isa::TRACE_OP_BYTES;
use vegeta_sparse::{FormatSpec, NmRatio};

use crate::stream::{KernelEmitter, KernelStream};
use crate::tiled::{KernelOptions, SparseMode};
use crate::GemmShape;

/// A self-describing specification of one of this crate's trace builders.
///
/// `KernelSpec` is `Eq + Hash`, which makes it the natural cache key for
/// memoizing trace construction (see [`TraceCache`]).
///
/// # Example
///
/// ```
/// use vegeta_kernels::{GemmShape, KernelSpec, SparseMode};
///
/// let spec = KernelSpec::tiled(SparseMode::Nm2of4);
/// let trace = spec.build(GemmShape::new(64, 64, 128));
/// assert!(trace.mix().tile_compute > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KernelSpec {
    /// The optimized tiled GEMM/SPMM kernel used for the Fig. 13 sweeps
    /// (register-blocked, rotating accumulators).
    Tiled {
        /// How the `A` operand is encoded.
        mode: SparseMode,
        /// Unroll and loop-overhead options.
        opts: KernelOptions,
    },
    /// The naive Listing-1 kernel (reloads and stores `C` every iteration);
    /// the programmability baseline for ablations.
    Listing1 {
        /// How the `A` operand is encoded.
        mode: SparseMode,
    },
    /// The row-wise `TILE_SPMM_R` kernel for unstructured sparsity, with
    /// the per-row `N:4` covers already computed (sorted covers model the
    /// §V-E DMA row reordering).
    RowWise {
        /// One cover ratio per `A` row.
        row_ratios: Vec<NmRatio>,
    },
    /// The register-blocked AVX-512-class vector GEMM baseline of
    /// Figs. 3/4.
    Vector,
}

impl KernelSpec {
    /// The tiled kernel with default [`KernelOptions`].
    pub fn tiled(mode: SparseMode) -> Self {
        KernelSpec::Tiled {
            mode,
            opts: KernelOptions::default(),
        }
    }

    /// The sparse mode this spec executes in, when it has one (row-wise and
    /// vector kernels do not).
    pub fn mode(&self) -> Option<SparseMode> {
        match self {
            KernelSpec::Tiled { mode, .. } | KernelSpec::Listing1 { mode } => Some(*mode),
            KernelSpec::RowWise { .. } | KernelSpec::Vector => None,
        }
    }

    /// The storage format of the `A` operand this kernel consumes: the
    /// tiled/Listing-1 kernels read their mode's format, the row-wise kernel
    /// reads row-wise `N:4` tiles, and the vector baseline streams dense
    /// values.
    pub fn format(&self) -> FormatSpec {
        match self {
            KernelSpec::Tiled { mode, .. } | KernelSpec::Listing1 { mode } => mode.format(),
            KernelSpec::RowWise { .. } => FormatSpec::RowWise { m: 4 },
            KernelSpec::Vector => FormatSpec::Dense,
        }
    }

    /// Bytes of stored `A`-operand values for `shape` in this kernel's
    /// format. Exact for row-wise specs (which carry their covers);
    /// spec-level capacity bounds otherwise (see
    /// [`FormatSpec::values_bytes`]).
    pub fn a_values_bytes(&self, shape: GemmShape) -> u64 {
        match self {
            KernelSpec::RowWise { row_ratios } => row_ratios
                .iter()
                .map(|r| (shape.k.div_ceil(r.m() as usize) * r.n() as usize * 2) as u64)
                .sum(),
            _ => self.format().values_bytes(shape.m, shape.k) as u64,
        }
    }

    /// Bits of `A`-operand metadata for `shape` in this kernel's format
    /// (positions plus the row-wise per-row selectors); exact for row-wise
    /// specs, capacity bounds otherwise.
    pub fn a_metadata_bits(&self, shape: GemmShape) -> u64 {
        match self {
            KernelSpec::RowWise { row_ratios } => {
                let stored: u64 = row_ratios
                    .iter()
                    .map(|r| (shape.k.div_ceil(r.m() as usize) * r.n() as usize) as u64)
                    .sum();
                stored * 2 + row_ratios.len() as u64 * 2
            }
            _ => self.format().metadata_bits(shape.m, shape.k) as u64,
        }
    }
}

impl KernelSpec {
    /// A short human-readable kernel name (for reports and logs).
    pub fn name(&self) -> String {
        match self {
            KernelSpec::Tiled { mode, opts } => {
                format!("tiled-{}-u{}", mode_slug(*mode), opts.unroll)
            }
            KernelSpec::Listing1 { mode } => format!("listing1-{}", mode_slug(*mode)),
            KernelSpec::RowWise { row_ratios } => format!("rowwise-{}rows", row_ratios.len()),
            KernelSpec::Vector => "vector-gemm".to_string(),
        }
    }

    /// Streams this kernel's trace lazily (see [`crate::stream`]), with
    /// peak residency bounded by one tile-loop cell.
    pub fn stream(&self, shape: GemmShape) -> KernelStream {
        KernelEmitter::for_spec(self, shape).stream()
    }

    /// Materializes [`KernelSpec::stream`]'s trace, op for op; prefer the
    /// stream on hot paths.
    pub fn build(&self, shape: GemmShape) -> Trace {
        self.stream(shape).collect_trace()
    }

    /// Picks the 2D/K-split [`crate::ShardPlan`] for `cores` (see
    /// [`KernelEmitter::plan_for_cores`]): M first, then N with ~2×
    /// over-decomposition for LPT slack, then K as the last resort.
    pub fn shard_plan(&self, shape: GemmShape, cores: usize) -> crate::ShardPlan {
        KernelEmitter::for_spec(self, shape).plan_for_cores(cores)
    }

    /// Cuts this kernel into the shard set [`KernelSpec::shard_plan`]
    /// picks for `cores`: rectangular M×N (and, when needed, K-split)
    /// shards plus the post-barrier reduction stream when K is split —
    /// the work units the load-aware scheduler packs onto cores.
    ///
    /// # Example
    ///
    /// ```
    /// use vegeta_isa::stream::InstStream;
    /// use vegeta_kernels::{GemmShape, KernelSpec, SparseMode};
    ///
    /// let spec = KernelSpec::tiled(SparseMode::Nm2of4);
    /// let shape = GemmShape::new(128, 64, 256);
    /// let set = spec.shard_set(shape, 8);
    /// assert!(set.shards.len() >= 8, "every core gets work");
    /// let total: u64 = set.shards.iter().map(|s| s.remaining()).sum();
    /// assert_eq!(total, spec.stream(shape).remaining());
    /// ```
    pub fn shard_set(&self, shape: GemmShape, cores: usize) -> crate::ShardSet {
        let emitter = KernelEmitter::for_spec(self, shape);
        let plan = emitter.plan_for_cores(cores);
        emitter.shard_with(plan)
    }
}

fn mode_slug(mode: SparseMode) -> &'static str {
    match mode {
        SparseMode::Dense => "dense",
        SparseMode::Nm2of4 => "2of4",
        SparseMode::Nm1of4 => "1of4",
    }
}

/// Engine-side kernel selection: what a given engine executes for weights
/// with a given sparsity pattern (§VI-C).
///
/// A dense engine always runs the dense kernel (it "cannot leverage
/// sparsity"); the STC-like engine runs 1:4 layers with its 2:4 path,
/// gaining nothing from the extra zeros.
pub trait EngineKernelExt {
    /// The execution mode for weights with the given pattern: the sparsest
    /// *supported* pattern that still covers the weights.
    fn execution_mode(&self, weights: NmRatio) -> SparseMode;

    /// The tiled kernel spec this engine runs for the given weights.
    fn kernel_spec(&self, weights: NmRatio, opts: KernelOptions) -> KernelSpec;
}

impl EngineKernelExt for EngineConfig {
    fn execution_mode(&self, weights: NmRatio) -> SparseMode {
        SparseMode::for_ratio(self.execution_pattern(weights)).unwrap_or(SparseMode::Dense)
    }

    fn kernel_spec(&self, weights: NmRatio, opts: KernelOptions) -> KernelSpec {
        KernelSpec::Tiled {
            mode: self.execution_mode(weights),
            opts,
        }
    }
}

/// Memoized summary statistics of one kernel trace — the compact stand-in
/// the cache keeps now that traces stream instead of materializing.
///
/// Both fields derive from the kernel's block decomposition in O(blocks)
/// time; no trace is built to compute them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Exact dynamic op count of the trace.
    pub ops: u64,
    /// Bytes of the largest streaming chunk (one tile-loop cell) — the
    /// buffer bound a streamed replay of this trace needs.
    pub chunk_bytes: u64,
}

impl TraceSummary {
    /// Derives the summary from an undrained stream (O(blocks), no ops
    /// emitted) — the single definition every cache path shares.
    fn of(stream: &KernelStream) -> Self {
        TraceSummary {
            ops: stream.remaining(),
            chunk_bytes: stream.max_block_ops() * TRACE_OP_BYTES as u64,
        }
    }
}

/// A point-in-time snapshot of a [`TraceCache`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Lookups that found an existing entry.
    pub hits: u64,
    /// Lookups that created an entry.
    pub misses: u64,
    /// Distinct `(shape, spec)` keys with an entry.
    pub entries: usize,
}

/// What the cache knows about one `(shape, spec)` trace, each part filled
/// on first use.
#[derive(Debug, Default)]
struct Entry {
    summary: Option<TraceSummary>,
    /// Static-verification verdicts by core count (0 = the unsharded
    /// stream, n ≥ 1 = the shard set for n cores).
    verdicts: HashMap<usize, Arc<OnceLock<Result<(), String>>>>,
}

/// A memoizing, thread-safe trace cache keyed on `(GemmShape, KernelSpec)`.
///
/// The spec decides its operand storage format ([`KernelSpec::format`]),
/// so distinct formats never alias an entry.
///
/// Traces stream rather than materialize, so an entry holds no
/// instructions: it holds the key's [`TraceSummary`] (exact length + chunk
/// bound, derived from the kernel's block decomposition) and its
/// static-verification verdicts ([`TraceCache::verdict`]), and
/// [`TraceCache::stream`] hands out a fresh lazy [`KernelStream`] per call.
/// Every lookup counts as one hit or one miss, and each key's entry is
/// created once, even under concurrent lookups.
///
/// # Example
///
/// ```
/// use vegeta_isa::stream::InstStream;
/// use vegeta_kernels::{GemmShape, KernelSpec, SparseMode, TraceCache};
///
/// let cache = TraceCache::new();
/// let shape = GemmShape::new(64, 64, 128);
/// let spec = KernelSpec::tiled(SparseMode::Dense);
/// let first = cache.stream(shape, &spec);
/// let again = cache.stream(shape, &spec);
/// assert_eq!(first.remaining(), again.remaining());
/// assert_eq!((cache.misses(), cache.hits()), (1, 1));
/// ```
#[derive(Debug, Default)]
pub struct TraceCache {
    entries: Mutex<HashMap<(GemmShape, KernelSpec), Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TraceCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        TraceCache::default()
    }

    /// Creates an empty cache already wrapped for cross-worker sharing:
    /// the `Arc` clones cheaply into every worker/session that should
    /// resolve against the same memo (each key's entry is still created
    /// once, however many threads hold a clone).
    ///
    /// # Example
    ///
    /// ```
    /// use vegeta_kernels::TraceCache;
    ///
    /// let cache = TraceCache::shared();
    /// let clone = std::sync::Arc::clone(&cache); // hand to a worker
    /// assert_eq!(clone.len(), cache.len());
    /// ```
    pub fn shared() -> Arc<Self> {
        Arc::new(TraceCache::new())
    }

    /// Records one lookup of `(shape, spec)`, creating its entry on a
    /// miss, and applies `f` to the entry under the cache lock.
    fn lookup<R>(&self, shape: GemmShape, spec: &KernelSpec, f: impl FnOnce(&mut Entry) -> R) -> R {
        let mut map = self.entries.lock().expect("trace cache poisoned");
        let entry = match map.entry((shape, spec.clone())) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                e.into_mut()
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                e.insert(Entry::default())
            }
        };
        f(entry)
    }

    /// A fresh lazy stream of the `(shape, spec)` trace, memoizing the
    /// key's [`TraceSummary`] on first use. Nothing is materialized.
    pub fn stream(&self, shape: GemmShape, spec: &KernelSpec) -> KernelStream {
        let stream = spec.stream(shape);
        self.lookup(shape, spec, |e| {
            e.summary.get_or_insert_with(|| TraceSummary::of(&stream));
        });
        stream
    }

    /// The memoized summary for `(shape, spec)`, derived (without building
    /// the trace) on first use.
    pub fn summary(&self, shape: GemmShape, spec: &KernelSpec) -> TraceSummary {
        self.lookup(shape, spec, |e| {
            *e.summary
                .get_or_insert_with(|| TraceSummary::of(&spec.stream(shape)))
        })
    }

    /// Records one lookup of `(shape, spec)` and returns the memoized
    /// static-verification verdict of its `cores` slot (0 = the unsharded
    /// stream, n ≥ 1 = the shard set for n cores).
    ///
    /// The first caller of a slot computes the verdict with `verify`,
    /// outside the cache lock; concurrent callers of the same slot wait
    /// for it, so each slot is verified once and failures stay memoized.
    /// There is no way to look a slot up unverified: every caller either
    /// runs `verify` or gets the verdict an earlier `verify` left.
    ///
    /// # Errors
    ///
    /// The memoized verdict's error.
    pub fn verdict(
        &self,
        shape: GemmShape,
        spec: &KernelSpec,
        cores: usize,
        verify: impl FnOnce() -> Result<(), String>,
    ) -> Result<(), String> {
        self.lookup(shape, spec, |e| {
            Arc::clone(e.verdicts.entry(cores).or_default())
        })
        .get_or_init(verify)
        .clone()
    }

    /// Cache lookups that found an existing entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache lookups that created an entry.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct keys with an entry.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("trace cache poisoned").len()
    }

    /// `true` if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of every counter, for reports.
    pub fn stats(&self) -> TraceCacheStats {
        TraceCacheStats {
            hits: self.hits(),
            misses: self.misses(),
            entries: self.len(),
        }
    }

    /// Drops every cached entry and resets the counters.
    pub fn clear(&self) {
        self.entries.lock().expect("trace cache poisoned").clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_dispatch_matches_direct_builders() {
        // Each spec builds exactly what its family's emitter streams.
        let shape = GemmShape::new(48, 32, 256);
        let emitted = |emitter: KernelEmitter| emitter.stream().collect_trace();
        for mode in [SparseMode::Dense, SparseMode::Nm2of4, SparseMode::Nm1of4] {
            let opts = KernelOptions::default();
            assert_eq!(
                KernelSpec::tiled(mode).build(shape),
                emitted(KernelEmitter::tiled(shape, mode, opts))
            );
            let naive = KernelSpec::Listing1 { mode };
            assert_eq!(
                naive.build(shape),
                emitted(KernelEmitter::listing1(shape, mode))
            );
        }
        assert_eq!(
            KernelSpec::Vector.build(shape),
            emitted(KernelEmitter::vector(shape))
        );
        let ratios = vec![NmRatio::S1_4; 32];
        let groups = vegeta_engine::rowwise::pack_rows(&ratios).len();
        let spec = KernelSpec::RowWise { row_ratios: ratios };
        assert_eq!(
            spec.build(shape),
            emitted(KernelEmitter::rowwise(shape, groups))
        );
    }

    #[test]
    fn cache_returns_shared_traces_and_counts() {
        let cache = TraceCache::new();
        let shape = GemmShape::new(32, 32, 64);
        let dense = KernelSpec::tiled(SparseMode::Dense);
        let sparse = KernelSpec::tiled(SparseMode::Nm2of4);
        let a = cache.summary(shape, &dense);
        let b = cache.summary(shape, &dense);
        let c = cache.summary(shape, &sparse);
        assert_eq!(a, b, "same key shares one summary");
        assert_ne!(a, c, "distinct specs get distinct summaries");
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 2);
        assert_eq!(
            a.ops,
            dense.build(shape).len() as u64,
            "cached summary equals a cold build"
        );
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn cache_is_consistent_under_concurrent_lookups() {
        let cache = TraceCache::new();
        let shape = GemmShape::new(64, 64, 256);
        let spec = KernelSpec::tiled(SparseMode::Nm2of4);
        let summaries: Vec<TraceSummary> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| cache.summary(shape, &spec)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for t in &summaries[1..] {
            assert_eq!(summaries[0], *t, "all threads see one summary");
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.misses(), 1, "one entry is created");
        assert_eq!(cache.hits() + cache.misses(), 8);
    }

    #[test]
    fn shared_cache_contention_builds_each_key_exactly_once() {
        // The cross-worker guarantee the serving layer leans on: M workers
        // holding Arc clones of one cache and racing on the *same* key get
        // one memoized generator summary — a barrier maximizes the
        // contention window.
        const WORKERS: usize = 8;
        let cache = TraceCache::shared();
        let shape = GemmShape::new(64, 64, 256);
        let spec = KernelSpec::tiled(SparseMode::Nm1of4);
        let barrier = std::sync::Barrier::new(WORKERS);
        let summaries: Vec<TraceSummary> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let spec = spec.clone();
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        // Streaming lookup and summary lookup race.
                        let stream = cache.stream(shape, &spec);
                        let summary = cache.summary(shape, &spec);
                        assert_eq!(stream.remaining(), summary.ops);
                        summary
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for t in &summaries[1..] {
            assert_eq!(summaries[0], *t, "every worker sees one summary");
        }
        assert_eq!(cache.len(), 1, "one distinct key");
        // 2 lookups per worker; exactly 1 miss total (the lookup that
        // created the entry), every other lookup hits.
        assert_eq!(cache.misses(), 1, "first lookup only");
        assert_eq!(cache.hits(), 2 * WORKERS as u64 - 1);
    }

    #[test]
    fn cache_streams_are_memoized_by_summary_and_replay_builds() {
        let cache = TraceCache::new();
        let shape = GemmShape::new(48, 32, 256);
        let spec = KernelSpec::tiled(SparseMode::Nm2of4);
        let mut s = cache.stream(shape, &spec);
        let summary = cache.summary(shape, &spec);
        assert_eq!(summary.ops, s.remaining());
        assert!(summary.chunk_bytes > 0);
        assert_eq!(s.collect_trace(), spec.build(shape));
        assert_eq!(cache.misses(), 1, "one entry created");
        assert_eq!(cache.hits(), 1, "summary() hit the memoized entry");
    }

    #[test]
    fn verdicts_are_memoized_per_core_slot_in_one_entry() {
        let cache = TraceCache::new();
        let shape = GemmShape::new(48, 32, 256);
        let spec = KernelSpec::tiled(SparseMode::Nm2of4);
        let runs = AtomicU64::new(0);
        let verify = |verdict: Result<(), String>| {
            || {
                runs.fetch_add(1, Ordering::Relaxed);
                verdict
            }
        };
        assert_eq!(cache.verdict(shape, &spec, 0, verify(Ok(()))), Ok(()));
        assert_eq!(
            cache.verdict(shape, &spec, 0, verify(Err("late".into()))),
            Ok(())
        );
        // Another core count is another slot; its failure is memoized too.
        let rejected = Err("rejected".to_string());
        assert_eq!(
            cache.verdict(shape, &spec, 4, verify(rejected.clone())),
            rejected
        );
        assert_eq!(cache.verdict(shape, &spec, 4, verify(Ok(()))), rejected);
        assert_eq!(runs.load(Ordering::Relaxed), 2, "one verification per slot");
        // Verdict lookups share the entry the summary lives in.
        cache.summary(shape, &spec);
        assert_eq!((cache.misses(), cache.hits(), cache.len()), (1, 4, 1));
    }

    #[test]
    fn a_slot_verifies_once_outside_the_cache_lock() {
        // Racing callers of one slot run one verification between them,
        // and that verification can use the cache: it runs unlocked.
        const WORKERS: usize = 8;
        let cache = TraceCache::shared();
        let shape = GemmShape::new(64, 64, 256);
        let spec = KernelSpec::tiled(SparseMode::Nm1of4);
        let runs = AtomicU64::new(0);
        let barrier = std::sync::Barrier::new(WORKERS);
        std::thread::scope(|s| {
            for _ in 0..WORKERS {
                s.spawn(|| {
                    barrier.wait();
                    let verify = || {
                        runs.fetch_add(1, Ordering::Relaxed);
                        cache.summary(shape, &KernelSpec::Vector);
                        Ok(())
                    };
                    assert_eq!(cache.verdict(shape, &spec, 2, verify), Ok(()));
                });
            }
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        assert_eq!((cache.misses(), cache.len()), (2, 2));
    }

    #[test]
    fn execution_mode_is_an_engine_method() {
        let stc = EngineConfig::stc_like();
        assert_eq!(stc.execution_mode(NmRatio::S1_4), SparseMode::Nm2of4);
        assert_eq!(stc.execution_mode(NmRatio::D4_4), SparseMode::Dense);
        let dm = EngineConfig::rasa_dm();
        assert_eq!(dm.execution_mode(NmRatio::S1_4), SparseMode::Dense);
        let s16 = EngineConfig::vegeta_s(16).unwrap();
        assert_eq!(s16.execution_mode(NmRatio::S1_4), SparseMode::Nm1of4);
        assert_eq!(
            s16.kernel_spec(NmRatio::S2_4, KernelOptions::default()),
            KernelSpec::tiled(SparseMode::Nm2of4)
        );
    }

    #[test]
    fn specs_expose_their_operand_format() {
        assert_eq!(
            KernelSpec::tiled(SparseMode::Nm2of4).format(),
            FormatSpec::Nm(NmRatio::S2_4)
        );
        assert_eq!(
            KernelSpec::Listing1 {
                mode: SparseMode::Dense
            }
            .format(),
            FormatSpec::Dense
        );
        assert_eq!(
            KernelSpec::RowWise { row_ratios: vec![] }.format(),
            FormatSpec::RowWise { m: 4 }
        );
        assert_eq!(KernelSpec::Vector.format(), FormatSpec::Dense);
    }

    #[test]
    fn operand_accounting_matches_formats() {
        let shape = GemmShape::new(32, 16, 64);
        // Dense A: 32x64 BF16, no metadata.
        assert_eq!(KernelSpec::Vector.a_values_bytes(shape), 32 * 64 * 2);
        assert_eq!(KernelSpec::Vector.a_metadata_bits(shape), 0);
        // 2:4 halves the stored values and carries 2 bits each.
        let s24 = KernelSpec::tiled(SparseMode::Nm2of4);
        assert_eq!(s24.a_values_bytes(shape), 32 * 32 * 2);
        assert_eq!(s24.a_metadata_bits(shape), 32 * 32 * 2);
        // Row-wise accounting is exact per cover: 16 rows at 1:4 + 16 at
        // 2:4 over k = 64.
        let mut ratios = vec![NmRatio::S1_4; 16];
        ratios.extend(vec![NmRatio::S2_4; 16]);
        let rw = KernelSpec::RowWise { row_ratios: ratios };
        let stored = 16 * 16 + 16 * 32;
        assert_eq!(rw.a_values_bytes(shape), (stored * 2) as u64);
        assert_eq!(rw.a_metadata_bits(shape), (stored * 2 + 32 * 2) as u64);
    }

    #[test]
    fn kernel_names_are_self_describing() {
        assert_eq!(
            KernelSpec::tiled(SparseMode::Nm2of4).name(),
            "tiled-2of4-u3"
        );
        assert_eq!(
            KernelSpec::Listing1 {
                mode: SparseMode::Dense
            }
            .name(),
            "listing1-dense"
        );
        assert_eq!(KernelSpec::Vector.name(), "vector-gemm");
    }
}

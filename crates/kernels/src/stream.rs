//! Lazy per-tile-loop-nest trace generation for every kernel family, and
//! the sharding contract multi-core replay is built on.
//!
//! [`KernelEmitter`] is the compact generator behind the streaming
//! pipeline: it carries only the kernel's address plan and loop structure
//! (O(1) or O(groups) state — never per-instruction data) and re-emits the
//! trace one *block* at a time, where a block is one cell of the kernel's
//! tile-loop nest. Wrapped in a [`ChunkedStream`] it becomes a
//! [`KernelStream`]: an exact-length [`InstStream`] whose peak residency is
//! the largest block, not the whole trace — the property that lets
//! full-scale Table IV layers replay in bounded memory.
//!
//! The materialized builders (`build_trace`, `build_rowwise_trace`, ...)
//! are thin `collect` wrappers over these emitters, so streamed and
//! materialized replays are identical by construction.
//!
//! # Sharding
//!
//! Every family lays its blocks out as an outer-major **M × N grid**
//! ([`KernelEmitter::shard_layout`]): outer units are contiguous `A`/`C`
//! row-tile ranges (accumulator groups, packed row groups, ...), inner
//! units are output column tiles. A [`ShardPlan`] names how many near-even
//! partitions to cut along each of the three GEMM loop axes:
//!
//! * **M** — outer units; shard boundaries fall on row boundaries, so
//!   shards never share an accumulator.
//! * **N** — inner units; an M×N shard is a rectangle of the block grid
//!   (a strided [`GridSlice`] of the emitter), which is what keeps every
//!   core busy when M-rows < cores.
//! * **K** — the tiled family's `k`-tile loop. Each K-split shard runs its
//!   `kt` subrange and stores *partial* `C` tiles to a shard-private
//!   region past the plan's address space; a deterministic post-barrier
//!   **reduction stream** ([`ShardSet::reduction`]) then sums the partials
//!   into the canonical `C` addresses with vector ops. Families without a
//!   splittable depth loop clamp `k_splits` to 1.
//!
//! Each shard is itself an exact-length, byte-accounted [`ShardStream`],
//! so a load-aware scheduler can pack shards onto cores by their *exact*
//! op counts — no cost model, no estimation (`vegeta_sim`'s LPT policy
//! does exactly this). Plans, shard enumeration order (row-major, K-part
//! innermost) and the reduction pass are all deterministic.
//!
//! ```
//! use vegeta_isa::stream::InstStream;
//! use vegeta_kernels::{KernelEmitter, KernelOptions, GemmShape, ShardPlan, SparseMode};
//!
//! let shape = GemmShape::new(96, 64, 256);
//! let emitter = KernelEmitter::tiled(shape, SparseMode::Nm2of4, KernelOptions::default());
//! let total = emitter.clone().stream().remaining();
//!
//! // 2 M-units x 4 N-units = 8 rectangular shards, no K split: the shard
//! // lengths are exact and sum to the unsharded stream.
//! let set = emitter.clone().shard_with(ShardPlan::new(2, 4, 1));
//! assert_eq!(set.shards.len(), 8);
//! assert!(set.reduction.is_none());
//! assert_eq!(set.shards.iter().map(|s| s.remaining()).sum::<u64>(), total);
//!
//! // A K split adds a deterministic post-barrier reduction stream.
//! let set = emitter.shard_with(ShardPlan::new(1, 1, 2));
//! assert_eq!(set.shards.len(), 2);
//! assert!(set.reduction.expect("K-split merges partials").remaining() > 0);
//! ```
//!
//! [`InstStream`]: vegeta_isa::stream::InstStream

use vegeta_isa::footprint::Footprint;
use vegeta_isa::stream::{even_ranges, BlockEmitter, ChunkedStream, GridSlice};
use vegeta_isa::trace::TraceOp;
use vegeta_sparse::NmRatio;

use crate::tiled::{
    emit_listing1_cell, emit_reduction_tile, emit_tiled_cell, emit_tiled_cell_slice,
    listing1_cell_ops, reduction_tile_ops, tiled_cell_ops, tiled_cell_slice_ops, unroll_groups,
    CellStore, KernelOptions, Plan, SparseMode,
};
use crate::GemmShape;

/// A streaming kernel trace: a [`ChunkedStream`] over a [`KernelEmitter`].
pub type KernelStream = ChunkedStream<KernelEmitter>;

/// One shard of a kernel trace: a [`ChunkedStream`] over a [`ShardEmitter`]
/// — a rectangle of the kernel's block grid, a K-slice of one, or the
/// K-split reduction pass (see [`KernelEmitter::shard_with`]).
pub type ShardStream = ChunkedStream<ShardEmitter>;

/// How a kernel's tile-loop nest is partitioned across cores: the number
/// of near-even cuts along each GEMM loop axis.
///
/// `m_splits` partitions the outer (M-row) units, `n_splits` the inner
/// (output-column) units, and `k_splits` the tiled family's `k`-tile loop;
/// [`KernelEmitter::shard_with`] clamps each count to the axis' actual
/// unit count, so a plan never produces empty shards. The product is the
/// shard count handed to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardPlan {
    /// Partitions of the outer M-row units.
    pub m_splits: usize,
    /// Partitions of the inner output-column units.
    pub n_splits: usize,
    /// Partitions of the `k`-tile loop (tiled family only; K-split shards
    /// store partials merged by a post-barrier reduction stream).
    pub k_splits: usize,
}

impl ShardPlan {
    /// A plan with the given split counts (each clamped to at least 1).
    pub fn new(m_splits: usize, n_splits: usize, k_splits: usize) -> Self {
        ShardPlan {
            m_splits: m_splits.max(1),
            n_splits: n_splits.max(1),
            k_splits: k_splits.max(1),
        }
    }

    /// The identity plan: one shard, the unsharded stream.
    pub fn single() -> Self {
        ShardPlan::new(1, 1, 1)
    }

    /// Total shard count the plan produces (before clamping to the
    /// emitter's unit counts).
    pub fn pieces(&self) -> usize {
        self.m_splits * self.n_splits * self.k_splits
    }
}

/// The shard streams a [`ShardPlan`] cuts a kernel into, plus the
/// post-barrier reduction stream when the plan K-splits.
#[derive(Debug)]
pub struct ShardSet {
    /// Independent, exact-length shard streams (row-major over the M×N
    /// grid, K-part innermost).
    pub shards: Vec<ShardStream>,
    /// `Some` iff the plan has `k_splits > 1`: the deterministic vector
    /// pass that sums the shards' partial `C` images into the canonical
    /// `C` addresses. Must run after every shard has drained (i.e. after
    /// the barrier).
    pub reduction: Option<ShardStream>,
}

/// The compact trace generator for one kernel invocation: shape + format +
/// loop plan, no per-instruction state.
#[derive(Debug, Clone)]
pub struct KernelEmitter {
    inner: Inner,
}

#[derive(Debug, Clone)]
enum Inner {
    /// The optimized tiled kernel; blocks are accumulator-group × output
    /// column-tile cells.
    Tiled {
        plan: Plan,
        opts: KernelOptions,
        /// `(first row-tile, width)` per accumulator group.
        groups: Vec<(usize, usize)>,
        tiles_n: usize,
    },
    /// The naive Listing-1 kernel; blocks are `(it, jt)` output tiles.
    Listing1 {
        plan: Plan,
        tiles_m: usize,
        tiles_n: usize,
    },
    /// The row-wise `TILE_SPMM_R` kernel; blocks are packed row group ×
    /// output column-tile cells.
    RowWise {
        tiles_n: usize,
        tiles_k: usize,
        groups: usize,
    },
    /// The vector GEMM baseline; blocks are microkernel invocations.
    Vector { shape: GemmShape },
}

impl KernelEmitter {
    /// Generator for the optimized tiled kernel.
    pub fn tiled(shape: GemmShape, mode: SparseMode, opts: KernelOptions) -> Self {
        KernelEmitter {
            inner: Inner::Tiled {
                plan: Plan::new(shape, mode),
                opts,
                groups: unroll_groups(shape.tiles_m(), opts.unroll),
                tiles_n: shape.tiles_n(),
            },
        }
    }

    /// Generator for the naive Listing-1 kernel.
    pub fn listing1(shape: GemmShape, mode: SparseMode) -> Self {
        KernelEmitter {
            inner: Inner::Listing1 {
                plan: Plan::new(shape, mode),
                tiles_m: shape.tiles_m(),
                tiles_n: shape.tiles_n(),
            },
        }
    }

    /// Generator for the row-wise kernel with `groups` packed row groups
    /// (the length of `pack_rows`' assignment list).
    pub fn rowwise(shape: GemmShape, groups: usize) -> Self {
        KernelEmitter {
            inner: Inner::RowWise {
                tiles_n: shape.tiles_n(),
                tiles_k: shape.k.div_ceil(64),
                groups,
            },
        }
    }

    /// Generator for the vector GEMM baseline.
    pub fn vector(shape: GemmShape) -> Self {
        KernelEmitter {
            inner: Inner::Vector { shape },
        }
    }

    /// Generator for the trace a [`crate::KernelSpec`] builds.
    pub fn for_spec(spec: &crate::KernelSpec, shape: GemmShape) -> Self {
        match spec {
            crate::KernelSpec::Tiled { mode, opts } => KernelEmitter::tiled(shape, *mode, *opts),
            crate::KernelSpec::Listing1 { mode } => KernelEmitter::listing1(shape, *mode),
            crate::KernelSpec::RowWise { row_ratios } => {
                KernelEmitter::rowwise(shape, rowwise_groups(row_ratios))
            }
            crate::KernelSpec::Vector => KernelEmitter::vector(shape),
        }
    }

    /// Wraps the generator in an exact-length chunked stream.
    pub fn stream(self) -> KernelStream {
        ChunkedStream::new(self)
    }

    /// The emitter's `(outer M-row units, blocks per unit)` decomposition:
    /// every kernel family orders its blocks outer-unit-major, where an
    /// outer unit covers a contiguous range of `A`/`C` row tiles
    /// (accumulator groups for the tiled kernel, output row tiles for
    /// Listing 1, packed row groups for the row-wise kernel, `A` row
    /// blocks for the vector baseline). Sharding partitions this outer
    /// axis, so shard boundaries always fall on M-row boundaries.
    pub fn shard_layout(&self) -> (usize, usize) {
        match &self.inner {
            Inner::Tiled {
                groups, tiles_n, ..
            } => (groups.len(), *tiles_n),
            Inner::Listing1 {
                tiles_m, tiles_n, ..
            } => (*tiles_m, *tiles_n),
            Inner::RowWise {
                tiles_n, groups, ..
            } => (*groups, *tiles_n),
            Inner::Vector { shape } => crate::vector::vector_shard_layout(*shape),
        }
    }

    /// The number of units the `k_splits` axis of a [`ShardPlan`] can
    /// partition: the `k`-tile count for the tiled family, 1 for families
    /// without a splittable depth loop.
    pub fn k_units(&self) -> usize {
        match &self.inner {
            Inner::Tiled { plan, .. } => plan.k_tiles(),
            _ => 1,
        }
    }

    /// Picks a [`ShardPlan`] for `cores`: fill the M axis first, then N
    /// (over-decomposing to about 2× `cores` shards so LPT packing has
    /// slack to balance uneven accumulator groups), and split K only when
    /// the M×N grid cannot occupy every core — K-splits buy parallelism at
    /// the price of a reduction pass, so they are the last resort.
    ///
    /// `cores <= 1` returns [`ShardPlan::single`], which keeps the 1-core
    /// path bit-identical to the unsharded stream.
    pub fn plan_for_cores(&self, cores: usize) -> ShardPlan {
        if cores <= 1 {
            return ShardPlan::single();
        }
        let (m_units, n_units) = self.shard_layout();
        let m = m_units.clamp(1, cores);
        let n = n_units.clamp(1, (2 * cores).div_ceil(m));
        let k = if m * n < cores {
            self.k_units().clamp(1, cores.div_ceil(m * n))
        } else {
            1
        };
        ShardPlan::new(m, n, k)
    }

    /// Cuts the kernel into `plan`'s shard streams: a row-major sweep of
    /// near-even M×N rectangles of the block grid, each further cut into
    /// `k_splits` depth slices (K-part innermost). Split counts are
    /// clamped to the emitter's unit counts, so every shard is non-empty;
    /// with `k_splits > 1` the set carries the post-barrier reduction
    /// stream that merges the partial `C` images.
    pub fn shard_with(self, plan: ShardPlan) -> ShardSet {
        let (m_units, n_units) = self.shard_layout();
        let m = plan.m_splits.clamp(1, m_units.max(1));
        let n = plan.n_splits.clamp(1, n_units.max(1));
        let k = plan.k_splits.clamp(1, self.k_units());
        let kranges = even_ranges(self.k_units(), k);
        let mut shards = Vec::with_capacity(m * n * k);
        for rows in even_ranges(m_units, m) {
            for cols in even_ranges(n_units, n) {
                for (part, kts) in kranges.iter().enumerate() {
                    let grid = GridSlice::new(self.clone(), n_units, rows.clone(), cols.clone());
                    let repr = if k == 1 {
                        Repr::Grid(grid)
                    } else {
                        Repr::KSlice {
                            grid,
                            kts: kts.clone(),
                            part,
                        }
                    };
                    shards.push(ChunkedStream::new(ShardEmitter { repr }));
                }
            }
        }
        let reduction = (k > 1).then(|| match &self.inner {
            Inner::Tiled { plan, .. } => ChunkedStream::new(ShardEmitter {
                repr: Repr::Reduction {
                    plan: *plan,
                    parts: k,
                },
            }),
            _ => unreachable!("k_splits is clamped to 1 for non-tiled families"),
        });
        ShardSet { shards, reduction }
    }

    /// The declared memory footprint of this kernel's address plan: the
    /// operand regions every emitted access must stay inside. Equivalent to
    /// [`KernelEmitter::footprint_with_partials`] with no K-split partials.
    pub fn footprint(&self) -> Footprint {
        self.footprint_with_partials(0)
    }

    /// The declared footprint extended with `k_parts` K-split partial-`C`
    /// images (tiled family only — other families never K-split, so
    /// `k_parts` is ignored for them).
    pub fn footprint_with_partials(&self, k_parts: usize) -> Footprint {
        match &self.inner {
            Inner::Tiled { plan, .. } | Inner::Listing1 { plan, .. } => plan.footprint(k_parts),
            Inner::RowWise {
                tiles_n,
                tiles_k,
                groups,
            } => crate::rowwise::rowwise_footprint(*tiles_n, *tiles_k, *groups),
            Inner::Vector { shape } => crate::vector::vector_footprint(*shape),
        }
    }
}

/// What one shard covers of the kernel's M×N×K unit space — the static
/// description a coverage checker needs to prove a [`ShardSet`] tiles the
/// grid exactly once (see `vegeta-lint`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardKind {
    /// A full-depth rectangle of the M×N block grid.
    Rect {
        /// Outer M-row unit range.
        rows: std::ops::Range<usize>,
        /// Inner output-column unit range.
        cols: std::ops::Range<usize>,
    },
    /// A tiled-family rectangle restricted to a `k`-tile subrange, storing
    /// partial `C` tiles for K-split shard `part`.
    KSlice {
        /// Outer M-row unit range.
        rows: std::ops::Range<usize>,
        /// Inner output-column unit range.
        cols: std::ops::Range<usize>,
        /// The `k`-tile subrange this shard accumulates.
        kts: std::ops::Range<usize>,
        /// The K-split partial image this shard stores to.
        part: usize,
    },
    /// The post-barrier reduction merging `parts` partial `C` images.
    Reduction {
        /// Number of partial images summed per output tile.
        parts: usize,
    },
}

/// One shard's trace generator: a rectangle of a kernel's M×N block grid,
/// a K-slice of one (accumulating into a shard-private partial `C`
/// image), or the post-barrier reduction pass that merges those partials.
///
/// Produced by [`KernelEmitter::shard_with`];
/// consumed as a [`ShardStream`].
#[derive(Debug, Clone)]
pub struct ShardEmitter {
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    /// A full-depth M×N rectangle: emission delegates block-for-block.
    Grid(GridSlice<KernelEmitter>),
    /// A tiled-family rectangle restricted to the `kts` range of the
    /// `k`-tile loop, storing partial `C` tiles for K-split shard `part`.
    KSlice {
        grid: GridSlice<KernelEmitter>,
        kts: std::ops::Range<usize>,
        part: usize,
    },
    /// The K-split merge: one block per `(it, jt)` output tile, summing
    /// `parts` partial images into the canonical `C` addresses.
    Reduction { plan: Plan, parts: usize },
}

impl ShardEmitter {
    /// The first block of the wrapped kernel emitter this shard exposes
    /// (row-major over the block grid; 0 for the reduction pass).
    pub fn first_block(&self) -> usize {
        match &self.repr {
            Repr::Grid(grid) | Repr::KSlice { grid, .. } => grid.first_block(),
            Repr::Reduction { .. } => 0,
        }
    }

    /// The unit-space coverage this shard claims — what a static verifier
    /// checks against the kernel's `(M, N, K)` unit dimensions.
    pub fn kind(&self) -> ShardKind {
        match &self.repr {
            Repr::Grid(grid) => ShardKind::Rect {
                rows: grid.rows(),
                cols: grid.cols(),
            },
            Repr::KSlice { grid, kts, part } => ShardKind::KSlice {
                rows: grid.rows(),
                cols: grid.cols(),
                kts: kts.clone(),
                part: *part,
            },
            Repr::Reduction { parts, .. } => ShardKind::Reduction { parts: *parts },
        }
    }

    /// The kernel emitter this shard is a slice of (`None` for the
    /// reduction pass, which is not grid-shaped).
    pub fn kernel(&self) -> Option<&KernelEmitter> {
        match &self.repr {
            Repr::Grid(grid) | Repr::KSlice { grid, .. } => Some(grid.inner()),
            Repr::Reduction { .. } => None,
        }
    }
}

impl BlockEmitter for ShardEmitter {
    fn blocks(&self) -> usize {
        match &self.repr {
            Repr::Grid(grid) | Repr::KSlice { grid, .. } => grid.blocks(),
            Repr::Reduction { plan, .. } => plan.tiles_m() * plan.tiles_n(),
        }
    }

    fn block_ops(&self, block: usize) -> u64 {
        match &self.repr {
            Repr::Grid(grid) => grid.block_ops(block),
            Repr::KSlice { grid, kts, .. } => match &grid.inner().inner {
                Inner::Tiled {
                    plan,
                    opts,
                    groups,
                    tiles_n,
                } => {
                    let (_, u) = groups[grid.inner_block(block) / tiles_n];
                    tiled_cell_slice_ops(plan, *opts, u, kts.len())
                }
                _ => unreachable!("K-split shards exist only for the tiled family"),
            },
            Repr::Reduction { parts, .. } => reduction_tile_ops(*parts),
        }
    }

    fn emit_block(&self, block: usize, out: &mut Vec<TraceOp>) {
        match &self.repr {
            Repr::Grid(grid) => grid.emit_block(block, out),
            Repr::KSlice { grid, kts, part } => match &grid.inner().inner {
                Inner::Tiled {
                    plan,
                    opts,
                    groups,
                    tiles_n,
                } => {
                    let inner_block = grid.inner_block(block);
                    let (it, u) = groups[inner_block / tiles_n];
                    emit_tiled_cell_slice(
                        plan,
                        *opts,
                        it,
                        u,
                        inner_block % tiles_n,
                        kts.clone(),
                        CellStore::Partial(*part),
                        out,
                    );
                }
                _ => unreachable!("K-split shards exist only for the tiled family"),
            },
            Repr::Reduction { plan, parts } => {
                let tiles_n = plan.tiles_n();
                emit_reduction_tile(plan, block / tiles_n, block % tiles_n, *parts, out);
            }
        }
    }

    fn state_bytes(&self) -> usize {
        match &self.repr {
            Repr::Grid(grid) | Repr::KSlice { grid, .. } => grid.state_bytes(),
            Repr::Reduction { .. } => std::mem::size_of::<Self>(),
        }
    }
}

/// Number of `TILE_SPMM_R` row groups the packer produces for these covers.
fn rowwise_groups(row_ratios: &[NmRatio]) -> usize {
    vegeta_engine::rowwise::pack_rows(row_ratios).len()
}

impl BlockEmitter for KernelEmitter {
    fn blocks(&self) -> usize {
        match &self.inner {
            Inner::Tiled {
                groups, tiles_n, ..
            } => groups.len() * tiles_n,
            Inner::Listing1 {
                tiles_m, tiles_n, ..
            } => tiles_m * tiles_n,
            Inner::RowWise {
                tiles_n, groups, ..
            } => groups * tiles_n,
            Inner::Vector { shape } => crate::vector::vector_blocks(*shape),
        }
    }

    fn block_ops(&self, block: usize) -> u64 {
        match &self.inner {
            Inner::Tiled {
                plan,
                opts,
                groups,
                tiles_n,
            } => {
                let (_, u) = groups[block / tiles_n];
                tiled_cell_ops(plan, *opts, u)
            }
            Inner::Listing1 { plan, .. } => listing1_cell_ops(plan),
            Inner::RowWise { tiles_k, .. } => crate::rowwise::rowwise_block_ops(*tiles_k),
            Inner::Vector { shape } => crate::vector::vector_block_ops(*shape),
        }
    }

    fn emit_block(&self, block: usize, out: &mut Vec<TraceOp>) {
        match &self.inner {
            Inner::Tiled {
                plan,
                opts,
                groups,
                tiles_n,
            } => {
                let (it, u) = groups[block / tiles_n];
                emit_tiled_cell(plan, *opts, it, u, block % tiles_n, out);
            }
            Inner::Listing1 { plan, tiles_n, .. } => {
                emit_listing1_cell(plan, block / tiles_n, block % tiles_n, out);
            }
            Inner::RowWise {
                tiles_n, tiles_k, ..
            } => crate::rowwise::emit_rowwise_block(*tiles_n, *tiles_k, block, out),
            Inner::Vector { shape } => crate::vector::emit_vector_block(*shape, block, out),
        }
    }

    fn state_bytes(&self) -> usize {
        let heap = match &self.inner {
            Inner::Tiled { groups, .. } => {
                groups.capacity() * std::mem::size_of::<(usize, usize)>()
            }
            _ => 0,
        };
        std::mem::size_of::<Self>() + heap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vegeta_isa::stream::InstStream;

    #[test]
    fn declared_block_lengths_match_emission_for_every_kernel() {
        let shape = GemmShape::new(48, 40, 260);
        let emitters = [
            KernelEmitter::tiled(shape, SparseMode::Dense, KernelOptions::default()),
            KernelEmitter::tiled(shape, SparseMode::Nm2of4, KernelOptions::default()),
            KernelEmitter::tiled(
                shape,
                SparseMode::Nm1of4,
                KernelOptions {
                    unroll: 1,
                    loop_overhead: false,
                },
            ),
            KernelEmitter::listing1(shape, SparseMode::Nm2of4),
            KernelEmitter::rowwise(shape, 5),
            KernelEmitter::vector(shape),
        ];
        for emitter in emitters {
            let mut buf = Vec::new();
            for b in 0..emitter.blocks() {
                buf.clear();
                emitter.emit_block(b, &mut buf);
                assert_eq!(
                    buf.len() as u64,
                    emitter.block_ops(b),
                    "block {b} of {emitter:?}"
                );
            }
        }
    }

    #[test]
    fn tiled_trailing_group_of_four_splits_two_two() {
        // tiles_m = 64/16 = 4 with unroll 3: the 2+2 split rule.
        assert_eq!(unroll_groups(4, 3), vec![(0, 2), (2, 2)]);
        assert_eq!(unroll_groups(7, 3), vec![(0, 3), (3, 2), (5, 2)]);
        assert_eq!(unroll_groups(5, 3), vec![(0, 3), (3, 2)]);
        assert_eq!(unroll_groups(4, 2), vec![(0, 2), (2, 2)]);
        assert_eq!(unroll_groups(3, 1), vec![(0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn stream_length_matches_materialized_build() {
        let shape = GemmShape::new(64, 64, 512);
        for mode in [SparseMode::Dense, SparseMode::Nm2of4, SparseMode::Nm1of4] {
            let stream = crate::tiled::stream_trace(shape, mode, KernelOptions::default());
            let trace = crate::tiled::build_trace(shape, mode, KernelOptions::default());
            assert_eq!(stream.remaining(), trace.len() as u64);
        }
        let vec_stream = crate::vector::stream_vector_gemm_trace(shape);
        assert_eq!(
            vec_stream.remaining(),
            crate::vector::build_vector_gemm_trace(shape).len() as u64
        );
    }

    #[test]
    fn shard_layout_factors_the_block_count_for_every_family() {
        let shape = GemmShape::new(80, 40, 260);
        let emitters = [
            KernelEmitter::tiled(shape, SparseMode::Dense, KernelOptions::default()),
            KernelEmitter::listing1(shape, SparseMode::Nm1of4),
            KernelEmitter::rowwise(shape, 7),
            KernelEmitter::vector(shape),
        ];
        for emitter in emitters {
            let (outer, inner) = emitter.shard_layout();
            assert_eq!(
                outer * inner,
                emitter.blocks(),
                "outer × inner must tile the block range of {emitter:?}"
            );
        }
    }

    #[test]
    fn sharding_splits_on_outer_row_boundaries() {
        let shape = GemmShape::new(96, 48, 512);
        let emitter = KernelEmitter::tiled(shape, SparseMode::Nm2of4, KernelOptions::default());
        let (_, inner) = emitter.shard_layout();
        for shard in emitter.shard_with(ShardPlan::new(3, 1, 1)).shards {
            assert_eq!(
                shard.emitter().first_block() % inner,
                0,
                "every shard starts at an M-row boundary"
            );
        }
    }

    #[test]
    fn plan_for_cores_fills_m_then_n_then_k() {
        // 128x128x192 at 2:4: 3 accumulator groups x 8 column tiles, 3
        // k-tiles (the pinned BERT-L2 quick-scale shape).
        let shape = GemmShape::new(128, 128, 192);
        let e = KernelEmitter::tiled(shape, SparseMode::Nm2of4, KernelOptions::default());
        assert_eq!(e.shard_layout(), (3, 8));
        assert_eq!(e.k_units(), 3);
        assert_eq!(e.plan_for_cores(1), ShardPlan::single());
        let p8 = e.plan_for_cores(8);
        assert_eq!((p8.m_splits, p8.k_splits), (3, 1), "M x N covers 8 cores");
        assert!(p8.pieces() >= 8, "at least one shard per core: {p8:?}");
        // More cores than the whole M x N grid: the K axis opens up.
        let p32 = e.plan_for_cores(32);
        assert!(p32.k_splits > 1, "{p32:?}");
        assert!(p32.pieces() >= 32, "{p32:?}");
    }

    #[test]
    fn k_split_shards_account_exactly_and_carry_a_reduction() {
        let shape = GemmShape::new(64, 48, 512);
        let e = KernelEmitter::tiled(shape, SparseMode::Dense, KernelOptions::default());
        let set = e.shard_with(ShardPlan::new(2, 3, 2));
        assert_eq!(set.shards.len(), 12, "2 x 3 x 2 plan");
        for mut shard in set.shards {
            let declared = shard.remaining();
            assert!(declared > 0, "clamped plans have no empty shards");
            assert_eq!(shard.collect_trace().len() as u64, declared);
        }
        let mut reduction = set.reduction.expect("K-split merges partials");
        let declared = reduction.remaining();
        // 4 x 3 output tiles, 2 partials each: 16 lines x (2 loads + 1
        // accumulate + 1 store) per tile.
        assert_eq!(declared, 12 * reduction_tile_ops(2));
        assert_eq!(reduction.collect_trace().len() as u64, declared);
    }

    #[test]
    fn single_plan_is_the_unsharded_stream() {
        let shape = GemmShape::new(80, 48, 260);
        for e in [
            KernelEmitter::tiled(shape, SparseMode::Nm1of4, KernelOptions::default()),
            KernelEmitter::vector(shape),
        ] {
            let whole = e.clone().stream().collect_trace();
            let set = e.shard_with(ShardPlan::single());
            assert!(set.reduction.is_none());
            let mut shards = set.shards;
            assert_eq!(shards.len(), 1);
            assert_eq!(
                shards[0].collect_trace(),
                whole,
                "bit-identical 1-core path"
            );
        }
    }

    #[test]
    fn emitter_state_is_compact_even_for_huge_shapes() {
        // A full-size GPT-3 layer: the generator must stay O(groups), far
        // from the tens-of-MB materialized trace.
        let shape = GemmShape::new(256, 256, 12_288);
        let emitter = KernelEmitter::tiled(shape, SparseMode::Dense, KernelOptions::default());
        assert!(
            emitter.state_bytes() < 4096,
            "generator state is {} bytes",
            emitter.state_bytes()
        );
    }
}

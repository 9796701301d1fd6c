//! Tiled GEMM/SPMM kernels over the VEGETA ISA.
//!
//! Two kernel families are provided:
//!
//! * [`KernelSpec::Tiled`](crate::KernelSpec::Tiled)/[`build_program`] —
//!   the *optimized* kernels used for the Fig. 13 evaluation: output tiles
//!   stay resident in accumulator tregs across the whole `k` loop (no
//!   redundant `C` traffic), the `B` tile is reused across an unrolled
//!   triple of `A` row-tiles, and three accumulators rotate to expose
//!   independent tile instructions to the engine pipeline.
//! * [`KernelSpec::Listing1`](crate::KernelSpec::Listing1) — the naive
//!   kernel of Listing 1, which reloads and stores `C` every iteration;
//!   kept as the programmability baseline and for ablation.
//!
//! Register allocation per mode (aliases must not overlap, see
//! `vegeta-isa`):
//!
//! | mode | `B` | `A` (renamed per load) | accumulators |
//! |---|---|---|---|
//! | dense (`TILE_GEMM`) | `t3` | `t5` | `t0`,`t1`,`t2` |
//! | 2:4 (`TILE_SPMM_U`) | `u3` (`t6`,`t7`) | `t4` (+`m4`) | `t0`,`t1`,`t2` |
//! | 1:4 (`TILE_SPMM_V`) | `v1` (`t4`–`t7`) | `t3` (+`m3`) | `t0`,`t1`,`t2` |
//!
//! Three accumulators rotate across an unrolled triple of `A` row-tiles so
//! that, even without output forwarding, the producer of each accumulator is
//! three engine issues back and the `C`-writeback dependence
//! (`instruction_latency − WL ≈ 47` engine cycles) never throttles the
//! 16-cycle issue interval. A single architectural `A` register is reloaded
//! inside the unroll; the core's tile-register renaming (§V-F) makes those
//! reloads independent, exactly as it would for the paper's compiled
//! kernels.

use vegeta_isa::footprint::{Footprint, Region, RegionClass};
use vegeta_isa::stream::InstStream;
use vegeta_isa::trace::{Trace, TraceOp};
use vegeta_isa::{Executor, Inst, MReg, Memory, TReg, UReg, VReg};
use vegeta_num::{Bf16, Matrix};
use vegeta_sparse::{FormatSpec, MregImage, NmRatio, TregImage};

use crate::stream::KernelEmitter;
use crate::{GemmShape, KernelError};

/// How the `A` operand is encoded and which tile instruction multiplies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SparseMode {
    /// Dense `A`; `TILE_GEMM` with `Tk = 32`.
    Dense,
    /// 2:4-compressed `A`; `TILE_SPMM_U` with effective `Tk = 64`.
    Nm2of4,
    /// 1:4-compressed `A`; `TILE_SPMM_V` with effective `Tk = 128`.
    Nm1of4,
}

impl SparseMode {
    /// The mode that executes `A` tiles with the given pattern.
    ///
    /// A sparser matrix can always run in a denser mode (1:4 data satisfies
    /// 2:4), which is how the STC-like engine executes 1:4 layers.
    pub fn for_ratio(ratio: NmRatio) -> Option<SparseMode> {
        match (ratio.n(), ratio.m()) {
            (4, 4) => Some(SparseMode::Dense),
            (2, 4) => Some(SparseMode::Nm2of4),
            (1, 4) => Some(SparseMode::Nm1of4),
            _ => None,
        }
    }

    /// The `N:M` pattern of this mode.
    pub fn ratio(self) -> NmRatio {
        match self {
            SparseMode::Dense => NmRatio::D4_4,
            SparseMode::Nm2of4 => NmRatio::S2_4,
            SparseMode::Nm1of4 => NmRatio::S1_4,
        }
    }

    /// The storage format the `A` operand uses in this mode.
    pub fn format(self) -> FormatSpec {
        match self {
            SparseMode::Dense => FormatSpec::Dense,
            SparseMode::Nm2of4 => FormatSpec::Nm(NmRatio::S2_4),
            SparseMode::Nm1of4 => FormatSpec::Nm(NmRatio::S1_4),
        }
    }

    /// The mode that executes operands stored in `format`, when the tiled
    /// kernels support one (row-wise and CSR operands have their own
    /// kernels).
    pub fn for_format(format: FormatSpec) -> Option<SparseMode> {
        match format {
            FormatSpec::Dense => Some(SparseMode::Dense),
            FormatSpec::Nm(ratio) => SparseMode::for_ratio(ratio),
            FormatSpec::RowWise { .. } | FormatSpec::Csr => None,
        }
    }

    /// Effective tile depth (`Tk`): effective `A` columns consumed per tile
    /// instruction.
    pub fn tk(self) -> usize {
        match self {
            SparseMode::Dense => 32,
            SparseMode::Nm2of4 => 64,
            SparseMode::Nm1of4 => 128,
        }
    }

    /// Bytes of one `Bᵀ` tile (16 × `Tk` BF16).
    pub fn b_tile_bytes(self) -> usize {
        16 * self.tk() * 2
    }
}

/// Kernel generation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelOptions {
    /// `A` row-tiles processed together sharing one `B` tile (1 to 3);
    /// also the number of rotating accumulators.
    pub unroll: usize,
    /// Include scalar loop-control overhead ops in the trace.
    pub loop_overhead: bool,
}

impl Default for KernelOptions {
    fn default() -> Self {
        KernelOptions {
            unroll: 3,
            loop_overhead: true,
        }
    }
}

/// Virtual address layout for all tiles of a GEMM.
///
/// The layout is a deterministic bump allocation (`A` values, `A`
/// metadata, `Bᵀ` tiles, `C` tiles, in that order, each region 64 B
/// aligned), so every address is affine in its tile index and the plan is
/// O(1) memory — the compact state a streaming trace generator carries,
/// whatever the problem size.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Plan {
    mode: SparseMode,
    shape: GemmShape,
    a_meta_base: u64,
    b_base: u64,
    b_bytes: u64,
    c_base: u64,
    total_bytes: u64,
}

impl Plan {
    pub(crate) fn new(shape: GemmShape, mode: SparseMode) -> Self {
        let (tm, tn, tk) = (shape.tiles_m(), shape.tiles_n(), shape.tiles_k(mode.tk()));
        // Leave address 0 unused; every region size is already a multiple
        // of the 64 B line.
        let a_meta_base = 64 + (tm * tk) as u64 * 1024;
        let b_base = a_meta_base + (tm * tk) as u64 * 128;
        let b_bytes = (mode.b_tile_bytes() as u64).next_multiple_of(64);
        let c_base = b_base + (tn * tk) as u64 * b_bytes;
        Plan {
            mode,
            shape,
            a_meta_base,
            b_base,
            b_bytes,
            c_base,
            total_bytes: c_base + (tm * tn) as u64 * 1024,
        }
    }

    pub(crate) fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    pub(crate) fn tiles_m(&self) -> usize {
        self.shape.tiles_m()
    }

    pub(crate) fn tiles_n(&self) -> usize {
        self.shape.tiles_n()
    }

    /// `K`-tile count — the unit count a K-split shard partitions.
    pub(crate) fn k_tiles(&self) -> usize {
        self.shape.tiles_k(self.mode.tk())
    }

    fn a_value_addr(&self, it: usize, kt: usize) -> u64 {
        64 + (it * self.shape.tiles_k(self.mode.tk()) + kt) as u64 * 1024
    }

    fn a_meta_addr(&self, it: usize, kt: usize) -> u64 {
        self.a_meta_base + (it * self.shape.tiles_k(self.mode.tk()) + kt) as u64 * 128
    }

    fn b_addr(&self, jt: usize, kt: usize) -> u64 {
        self.b_base + (jt * self.shape.tiles_k(self.mode.tk()) + kt) as u64 * self.b_bytes
    }

    pub(crate) fn c_addr(&self, it: usize, jt: usize) -> u64 {
        self.c_base + (it * self.shape.tiles_n() + jt) as u64 * 1024
    }

    /// Address of K-split shard `part`'s partial `C` tile for `(it, jt)`.
    ///
    /// Partials live in a bump region past [`Plan::total_bytes`], one full
    /// `C`-sized image per K-split shard, so the layout stays affine and
    /// shards never alias each other's accumulators (or the final `C`).
    pub(crate) fn partial_c_addr(&self, it: usize, jt: usize, part: usize) -> u64 {
        let tiles = (self.shape.tiles_m() * self.shape.tiles_n()) as u64;
        self.total_bytes.next_multiple_of(64)
            + (part as u64 * tiles + (it * self.shape.tiles_n() + jt) as u64) * 1024
    }

    /// The declared operand regions of this plan's address space, extended
    /// with `k_parts` K-split partial-`C` images when `k_parts > 0`.
    pub(crate) fn footprint(&self, k_parts: usize) -> Footprint {
        let (tm, tn, tk) = (self.tiles_m(), self.tiles_n(), self.k_tiles());
        let mut regions = vec![
            Region::ro(64, (tm * tk) as u64 * 1024, RegionClass::AValues),
            Region::ro(self.a_meta_base, (tm * tk) as u64 * 128, RegionClass::AMeta),
            Region::ro(self.b_base, (tn * tk) as u64 * self.b_bytes, RegionClass::B),
            Region::rw(self.c_base, (tm * tn) as u64 * 1024, RegionClass::C),
        ];
        if k_parts > 0 {
            regions.push(Region::rw(
                self.total_bytes.next_multiple_of(64),
                (k_parts * tm * tn) as u64 * 1024,
                RegionClass::PartialC,
            ));
        }
        Footprint::new(regions)
    }
}

fn emit_loop_overhead(out: &mut Vec<TraceOp>) {
    out.push(TraceOp::Scalar { dst: 0, src: 0 });
    out.push(TraceOp::Scalar { dst: 1, src: 0 });
    out.push(TraceOp::Branch { cond: 0 });
}

/// The optimized kernel's accumulator groups: `(first row-tile, width)` per
/// outer-loop iteration. Splitting a trailing group of 4 into 2+2 avoids a
/// single-accumulator tail whose `C`-writeback chain would serialize the
/// engine.
pub(crate) fn unroll_groups(tiles_m: usize, unroll: usize) -> Vec<(usize, usize)> {
    let unroll = unroll.clamp(1, 3);
    let mut groups = Vec::new();
    let mut it = 0;
    while it < tiles_m {
        let remaining = tiles_m - it;
        let u = if unroll >= 3 && remaining == 4 {
            2
        } else {
            unroll.min(remaining)
        };
        groups.push((it, u));
        it += u;
    }
    groups
}

/// Where a tiled cell's accumulators land when the `k` loop finishes:
/// the canonical `C` tile, or a K-split shard's private partial image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CellStore {
    /// The unsplit case: store to [`Plan::c_addr`].
    Final,
    /// K-split shard `part`: store to [`Plan::partial_c_addr`], to be
    /// merged by the post-barrier reduction pass.
    Partial(usize),
}

/// Exact op count of one optimized-kernel cell (one accumulator group ×
/// one output column tile).
pub(crate) fn tiled_cell_ops(plan: &Plan, opts: KernelOptions, u: usize) -> u64 {
    tiled_cell_slice_ops(plan, opts, u, plan.k_tiles())
}

/// Exact op count of a tiled cell restricted to `kt_len` of the `K` tiles
/// (a K-split shard's share). Zeroing and storing the `u` accumulators
/// happens per shard, so only the `k` loop scales with `kt_len`.
pub(crate) fn tiled_cell_slice_ops(
    plan: &Plan,
    opts: KernelOptions,
    u: usize,
    kt_len: usize,
) -> u64 {
    let a_ops = if plan.mode == SparseMode::Dense { 2 } else { 3 };
    let overhead = if opts.loop_overhead { 3 } else { 0 };
    u as u64 + kt_len as u64 * (1 + u as u64 * a_ops + overhead) + u as u64
}

/// Emits one optimized-kernel cell: zero the accumulators, run the `k`
/// loop sharing each `B` tile across the unrolled `A` row-tiles, store.
pub(crate) fn emit_tiled_cell(
    plan: &Plan,
    opts: KernelOptions,
    it: usize,
    u: usize,
    jt: usize,
    out: &mut Vec<TraceOp>,
) {
    emit_tiled_cell_slice(
        plan,
        opts,
        it,
        u,
        jt,
        0..plan.k_tiles(),
        CellStore::Final,
        out,
    );
}

/// Emits a tiled cell over the `kts` subrange of the `k` loop, storing the
/// accumulators to the canonical or a K-split-partial `C` address.
///
/// With the full `kt` range and [`CellStore::Final`] this is exactly
/// [`emit_tiled_cell`] — the unsplit (and 1-core) path goes through the
/// same code, which is what keeps it bit-identical.
#[allow(clippy::needless_range_loop)] // uu indexes accs and plan rows in lockstep
#[allow(clippy::too_many_arguments)] // one loop nest's coordinates, not config
pub(crate) fn emit_tiled_cell_slice(
    plan: &Plan,
    opts: KernelOptions,
    it: usize,
    u: usize,
    jt: usize,
    kts: std::ops::Range<usize>,
    store: CellStore,
    out: &mut Vec<TraceOp>,
) {
    let mode = plan.mode;
    let accs = [TReg::T0, TReg::T1, TReg::T2];
    // One architectural A register per mode; the core renames each reload.
    let (a_reg, a_mreg) = match mode {
        SparseMode::Dense => (TReg::T5, MReg::M5),
        SparseMode::Nm2of4 => (TReg::T4, MReg::M4),
        SparseMode::Nm1of4 => (TReg::T3, MReg::M3),
    };
    for acc in &accs[..u] {
        out.push(TraceOp::Tile(Inst::TileZero { dst: *acc }));
    }
    for kt in kts {
        match mode {
            SparseMode::Dense => {
                out.push(TraceOp::Tile(Inst::TileLoadT {
                    dst: TReg::T3,
                    addr: plan.b_addr(jt, kt),
                }));
            }
            SparseMode::Nm2of4 => {
                out.push(TraceOp::Tile(Inst::TileLoadU {
                    dst: UReg::U3,
                    addr: plan.b_addr(jt, kt),
                }));
            }
            SparseMode::Nm1of4 => {
                out.push(TraceOp::Tile(Inst::TileLoadV {
                    dst: VReg::V1,
                    addr: plan.b_addr(jt, kt),
                }));
            }
        }
        for uu in 0..u {
            out.push(TraceOp::Tile(Inst::TileLoadT {
                dst: a_reg,
                addr: plan.a_value_addr(it + uu, kt),
            }));
            if mode != SparseMode::Dense {
                out.push(TraceOp::Tile(Inst::TileLoadM {
                    dst: a_mreg,
                    addr: plan.a_meta_addr(it + uu, kt),
                }));
            }
            let inst = match mode {
                SparseMode::Dense => Inst::TileGemm {
                    acc: accs[uu],
                    a: a_reg,
                    b: TReg::T3,
                },
                SparseMode::Nm2of4 => Inst::TileSpmmU {
                    acc: accs[uu],
                    a: a_reg,
                    b: UReg::U3,
                },
                SparseMode::Nm1of4 => Inst::TileSpmmV {
                    acc: accs[uu],
                    a: a_reg,
                    b: VReg::V1,
                },
            };
            out.push(TraceOp::Tile(inst));
        }
        if opts.loop_overhead {
            emit_loop_overhead(out);
        }
    }
    for (uu, acc) in accs[..u].iter().enumerate() {
        let addr = match store {
            CellStore::Final => plan.c_addr(it + uu, jt),
            CellStore::Partial(part) => plan.partial_c_addr(it + uu, jt, part),
        };
        out.push(TraceOp::Tile(Inst::TileStoreT { addr, src: *acc }));
    }
}

/// Op count of the K-split reduction pass for one `(it, jt)` output tile:
/// 16 cache lines per `C` tile, each merged as one running-sum load,
/// `parts - 1` (load, accumulate) pairs, and one final store.
pub(crate) fn reduction_tile_ops(parts: usize) -> u64 {
    16 * 2 * parts as u64
}

/// Emits the vector-engine reduction for one `C` tile: sums the K-split
/// shards' partial images line by line into the canonical [`Plan::c_addr`]
/// location. Runs post-barrier, after every partial has been stored.
pub(crate) fn emit_reduction_tile(
    plan: &Plan,
    it: usize,
    jt: usize,
    parts: usize,
    out: &mut Vec<TraceOp>,
) {
    // A C tile is 16x16 f32 = 1024 B = 16 vector lines.
    for line in 0..16u64 {
        let off = line * 64;
        out.push(TraceOp::VecLoad {
            dst: 0,
            addr: plan.partial_c_addr(it, jt, 0) + off,
        });
        for part in 1..parts {
            out.push(TraceOp::VecLoad {
                dst: 1,
                addr: plan.partial_c_addr(it, jt, part) + off,
            });
            // Accumulate the partial into the running sum (b is an
            // all-ones constant register, never written).
            out.push(TraceOp::VecFma { acc: 0, a: 1, b: 2 });
        }
        out.push(TraceOp::VecStore {
            src: 0,
            addr: plan.c_addr(it, jt) + off,
        });
    }
}

/// Exact op count of one Listing-1 cell (one `(it, jt)` output tile).
pub(crate) fn listing1_cell_ops(plan: &Plan) -> u64 {
    let tk_tiles = plan.shape.tiles_k(plan.mode.tk()) as u64;
    let per_kt = if plan.mode == SparseMode::Dense { 8 } else { 9 };
    tk_tiles * per_kt
}

/// Emits one Listing-1 cell: `C` is reloaded and stored on every `k`
/// iteration, and a single accumulator serializes the engine.
pub(crate) fn emit_listing1_cell(plan: &Plan, it: usize, jt: usize, out: &mut Vec<TraceOp>) {
    let mode = plan.mode;
    let tk_tiles = plan.shape.tiles_k(mode.tk());
    for kt in 0..tk_tiles {
        match mode {
            SparseMode::Dense => out.push(TraceOp::Tile(Inst::TileLoadT {
                dst: TReg::T0,
                addr: plan.b_addr(jt, kt),
            })),
            SparseMode::Nm2of4 => out.push(TraceOp::Tile(Inst::TileLoadU {
                dst: UReg::U0,
                addr: plan.b_addr(jt, kt),
            })),
            SparseMode::Nm1of4 => out.push(TraceOp::Tile(Inst::TileLoadV {
                dst: VReg::V0,
                addr: plan.b_addr(jt, kt),
            })),
        }
        let (c, a, m) = match mode {
            SparseMode::Nm1of4 => (TReg::T4, TReg::T5, MReg::M5),
            _ => (TReg::T2, TReg::T3, MReg::M3),
        };
        out.push(TraceOp::Tile(Inst::TileLoadT {
            dst: c,
            addr: plan.c_addr(it, jt),
        }));
        out.push(TraceOp::Tile(Inst::TileLoadT {
            dst: a,
            addr: plan.a_value_addr(it, kt),
        }));
        if mode != SparseMode::Dense {
            out.push(TraceOp::Tile(Inst::TileLoadM {
                dst: m,
                addr: plan.a_meta_addr(it, kt),
            }));
        }
        out.push(TraceOp::Tile(match mode {
            SparseMode::Dense => Inst::TileGemm {
                acc: c,
                a,
                b: TReg::T0,
            },
            SparseMode::Nm2of4 => Inst::TileSpmmU {
                acc: c,
                a,
                b: UReg::U0,
            },
            SparseMode::Nm1of4 => Inst::TileSpmmV {
                acc: c,
                a,
                b: VReg::V0,
            },
        }));
        out.push(TraceOp::Tile(Inst::TileStoreT {
            addr: plan.c_addr(it, jt),
            src: c,
        }));
        emit_loop_overhead(out);
    }
}

/// A kernel trace bundled with initialized memory, ready for functional
/// execution.
#[derive(Debug)]
pub struct KernelProgram {
    /// The instruction trace (tile instructions plus loop overhead).
    pub trace: Trace,
    /// Memory holding `A` (compressed), `Bᵀ` tiles and zeroed `C` tiles.
    pub mem: Memory,
    shape: GemmShape,
    mode: SparseMode,
    plan: Plan,
}

impl KernelProgram {
    /// The GEMM shape.
    pub fn shape(&self) -> GemmShape {
        self.shape
    }

    /// The sparse mode the kernel was built for.
    pub fn mode(&self) -> SparseMode {
        self.mode
    }

    /// Runs the tile instructions on the functional executor and returns the
    /// assembled `M×N` output.
    ///
    /// # Errors
    ///
    /// Propagates executor faults ([`KernelError::Isa`]).
    pub fn run_functional(&self) -> Result<Matrix<f32>, KernelError> {
        let mut exec = Executor::new(self.mem.clone());
        exec.run(&self.trace.tile_insts())?;
        let mut out = Matrix::zeros(self.shape.m, self.shape.n);
        for it in 0..self.shape.tiles_m() {
            for jt in 0..self.shape.tiles_n() {
                let tile = exec
                    .mem()
                    .read_f32_matrix(self.plan.c_addr(it, jt), 16, 16)?;
                for r in 0..16 {
                    for c in 0..16 {
                        let (gr, gc) = (it * 16 + r, jt * 16 + c);
                        if gr < self.shape.m && gc < self.shape.n {
                            out[(gr, gc)] = tile[(r, c)];
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Builds a complete program (trace + initialized memory) computing
/// `C = A × B` with `A` compressed in `mode`'s pattern.
///
/// # Errors
///
/// * [`KernelError::Shape`] if `A` is not `M×K` / `B` is not `K×N`.
/// * [`KernelError::Sparsity`] if `A` violates the mode's `N:M` pattern
///   (prune it first).
pub fn build_program(
    a: &Matrix<Bf16>,
    b: &Matrix<Bf16>,
    mode: SparseMode,
    opts: KernelOptions,
) -> Result<KernelProgram, KernelError> {
    if a.cols() != b.rows() {
        return Err(KernelError::Shape {
            reason: format!(
                "A is {}x{}, B is {}x{}",
                a.rows(),
                a.cols(),
                b.rows(),
                b.cols()
            ),
        });
    }
    let shape = GemmShape::new(a.rows(), b.cols(), a.cols());
    let plan = Plan::new(shape, mode);
    let mut mem = Memory::new(plan.total_bytes().next_multiple_of(64) as usize);
    let tk = mode.tk();
    let format = mode.format();
    let (mut treg, mut mreg) = (TregImage::new(), MregImage::new());
    for it in 0..shape.tiles_m() {
        for kt in 0..shape.tiles_k(tk) {
            let block = a.block_padded(it * 16, kt * tk, 16, tk, Bf16::ZERO);
            // Compress into the mode's storage format and lower it straight
            // into register images — the exact bytes the TILE_LOAD_T /
            // TILE_LOAD_M pair will move, with no intermediate matrices.
            let tile = format.compress(&block)?;
            tile.pack_into(&mut treg, &mut mreg)?;
            mem.write_treg_image(plan.a_value_addr(it, kt), &treg)?;
            if mode != SparseMode::Dense {
                mem.write_mreg_image(plan.a_meta_addr(it, kt), None, &mreg)?;
            }
        }
    }
    for jt in 0..shape.tiles_n() {
        for kt in 0..shape.tiles_k(tk) {
            let bt = b
                .block_padded(kt * tk, jt * 16, tk, 16, Bf16::ZERO)
                .transposed();
            mem.write_bf16_matrix(plan.b_addr(jt, kt), &bt)?;
        }
    }
    let trace = KernelEmitter::tiled(shape, mode, opts)
        .stream()
        .collect_trace();
    Ok(KernelProgram {
        trace,
        mem,
        shape,
        mode,
        plan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelSpec;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use vegeta_num::gemm_bf16_ref;
    use vegeta_sparse::prune;

    fn check_numerics(m: usize, n: usize, k: usize, mode: SparseMode, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let dense_a = prune::random_dense(m, k, &mut rng);
        let a = prune::magnitude_prune_nm(&dense_a, mode.ratio());
        let b = prune::random_dense(k, n, &mut rng);
        let program = build_program(&a, &b, mode, KernelOptions::default()).unwrap();
        let got = program.run_functional().unwrap();
        let mut expected = Matrix::zeros(m, n);
        gemm_bf16_ref(&a, &b, &mut expected);
        for r in 0..m {
            for c in 0..n {
                assert_eq!(
                    got[(r, c)],
                    expected[(r, c)],
                    "mode {mode:?} mismatch at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn dense_kernel_matches_reference() {
        check_numerics(32, 32, 64, SparseMode::Dense, 1);
    }

    #[test]
    fn spmm_u_kernel_matches_reference() {
        check_numerics(32, 32, 128, SparseMode::Nm2of4, 2);
    }

    #[test]
    fn spmm_v_kernel_matches_reference() {
        check_numerics(32, 32, 256, SparseMode::Nm1of4, 3);
    }

    #[test]
    fn ragged_shapes_are_zero_padded() {
        // 20x18x70: no dimension is tile-aligned.
        check_numerics(20, 18, 70, SparseMode::Nm2of4, 4);
    }

    #[test]
    fn single_tile_shape() {
        check_numerics(16, 16, 64, SparseMode::Nm2of4, 5);
    }

    #[test]
    fn sparser_modes_issue_fewer_compute_instructions() {
        let shape = GemmShape::new(64, 64, 512);
        let dense = KernelSpec::tiled(SparseMode::Dense).build(shape);
        let s24 = KernelSpec::tiled(SparseMode::Nm2of4).build(shape);
        let s14 = KernelSpec::tiled(SparseMode::Nm1of4).build(shape);
        let (d, u, v) = (
            dense.mix().tile_compute,
            s24.mix().tile_compute,
            s14.mix().tile_compute,
        );
        assert_eq!(d, 2 * u, "2:4 halves the tile instructions");
        assert_eq!(d, 4 * v, "1:4 quarters the tile instructions");
    }

    #[test]
    fn listing1_reloads_c_every_iteration() {
        let shape = GemmShape::new(32, 32, 128);
        let naive = KernelSpec::Listing1 {
            mode: SparseMode::Nm2of4,
        }
        .build(shape);
        let opt = KernelSpec::tiled(SparseMode::Nm2of4).build(shape);
        assert!(naive.mix().tile_stores > opt.mix().tile_stores);
        assert!(naive.mix().tile_loads > opt.mix().tile_loads);
        assert_eq!(naive.mix().tile_compute, opt.mix().tile_compute);
    }

    #[test]
    fn mode_selection_from_ratio() {
        assert_eq!(
            SparseMode::for_ratio(NmRatio::D4_4),
            Some(SparseMode::Dense)
        );
        assert_eq!(
            SparseMode::for_ratio(NmRatio::S2_4),
            Some(SparseMode::Nm2of4)
        );
        assert_eq!(
            SparseMode::for_ratio(NmRatio::S1_4),
            Some(SparseMode::Nm1of4)
        );
        assert_eq!(SparseMode::for_ratio(NmRatio::new(3, 8).unwrap()), None);
    }

    #[test]
    fn rejects_mismatched_operands() {
        let a = Matrix::<Bf16>::zeros(16, 32);
        let b = Matrix::<Bf16>::zeros(64, 16);
        assert!(matches!(
            build_program(&a, &b, SparseMode::Dense, KernelOptions::default()),
            Err(KernelError::Shape { .. })
        ));
    }

    #[test]
    fn unpruned_matrix_is_rejected_for_sparse_modes() {
        let mut rng = SmallRng::seed_from_u64(9);
        let a = prune::random_dense(16, 64, &mut rng);
        let b = prune::random_dense(64, 16, &mut rng);
        assert!(matches!(
            build_program(&a, &b, SparseMode::Nm2of4, KernelOptions::default()),
            Err(KernelError::Sparsity(_))
        ));
    }
}

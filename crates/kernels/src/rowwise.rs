//! Row-wise `N:4` SPMM kernels over `TILE_SPMM_R` (§V-E).
//!
//! Given an *unstructured* sparse `A`, the kernel
//!
//! 1. covers every row with the sparsest supported `N:4` pattern over the
//!    whole row (so the per-row `N` is uniform across `k` tiles and `C`
//!    accumulation stays aligned);
//! 2. optionally reorders rows so equal-`N` rows pack together (the DMA
//!    reordering of §V-E; outputs are scattered back at the end);
//! 3. packs rows into `TILE_SPMM_R` instructions, each covering up to 32
//!    MAC columns (`Σ N_r ≤ 32`) and 32 `C` rows;
//! 4. loops over output column tiles and 64-deep `k` chunks, accumulating
//!    `C` in a `ureg` and storing it as two tile stores.
//!
//! Register allocation: `Bᵀ` in `u0` (`t0`,`t1`), the `C` accumulator in
//! `u1` (`t2`,`t3`), packed `A` values in `t4` with metadata in `m4`.

use vegeta_engine::rowwise::{pack_rows, TileAssignment};
use vegeta_isa::footprint::{Footprint, Region, RegionClass};
use vegeta_isa::trace::{Trace, TraceOp};
use vegeta_isa::{Executor, Inst, MReg, Memory, TReg, UReg};
use vegeta_num::{Bf16, Matrix};
use vegeta_sparse::{transform, MregImage, NmRatio, RowWiseTile, TileFormat, TregImage};

use crate::{GemmShape, KernelError};

/// A row-wise SPMM program: trace, memory, and the output scatter map.
#[derive(Debug)]
pub struct RowWiseProgram {
    /// The instruction trace.
    pub trace: Trace,
    /// Memory initialized with packed `A`, `Bᵀ` tiles and zeroed `C`.
    pub mem: Memory,
    shape: GemmShape,
    /// `order[p]` = original row index of packed row `p`.
    order: Vec<usize>,
    assignments: Vec<TileAssignment>,
    /// `C` base address per `(assignment, jt)`.
    c_addrs: Vec<u64>,
    tiles_n: usize,
}

impl RowWiseProgram {
    /// The GEMM shape.
    pub fn shape(&self) -> GemmShape {
        self.shape
    }

    /// The packing (one entry per `TILE_SPMM_R` row group).
    pub fn assignments(&self) -> &[TileAssignment] {
        &self.assignments
    }

    /// Runs the tile instructions functionally and scatters the outputs back
    /// to the original row order.
    ///
    /// # Errors
    ///
    /// Propagates executor faults ([`KernelError::Isa`]).
    pub fn run_functional(&self) -> Result<Matrix<f32>, KernelError> {
        let mut exec = Executor::new(self.mem.clone());
        exec.run(&self.trace.tile_insts())?;
        let mut out = Matrix::zeros(self.shape.m, self.shape.n);
        for (ai, assignment) in self.assignments.iter().enumerate() {
            for jt in 0..self.tiles_n {
                let c = exec
                    .mem()
                    .read_f32_matrix(self.c_addrs[ai * self.tiles_n + jt], 32, 16)?;
                for (p, &packed_row) in assignment.rows.iter().enumerate() {
                    let orig = self.order[packed_row];
                    if orig >= self.shape.m {
                        continue;
                    }
                    for cc in 0..16 {
                        let gc = jt * 16 + cc;
                        if gc < self.shape.n {
                            out[(orig, gc)] = c[(p, cc)];
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Packs one row group's `A` data for one 64-wide `k` chunk into register
/// images, via the storage layer's row-wise format: gather the chunk,
/// compress it with the rows' (already chosen, possibly denser-than-needed)
/// covers, and lower with `pack_into`.
fn pack_tile(
    a: &Matrix<Bf16>,
    order: &[usize],
    covers: &[NmRatio],
    assignment: &TileAssignment,
    kt: usize,
) -> (TregImage, MregImage) {
    let chunk = Matrix::from_fn(assignment.rows.len(), 64, |p, c| {
        let orig = order[assignment.rows[p]];
        let col = kt * 64 + c;
        if orig < a.rows() && col < a.cols() {
            a[(orig, col)]
        } else {
            Bf16::ZERO
        }
    });
    let ratios: Vec<NmRatio> = assignment.rows.iter().map(|&p| covers[p]).collect();
    let tile = RowWiseTile::compress_with(&chunk, 4, &ratios)
        .expect("whole-row covers always cover their k chunks");
    let (mut treg, mut mreg) = (TregImage::new(), MregImage::new());
    tile.pack_into(&mut treg, &mut mreg)
        .expect("pack_rows keeps every group within the register budget");
    (treg, mreg)
}

/// Builds a complete row-wise SPMM program for unstructured `A`.
///
/// With `reorder` set, rows are sorted by their cover (the §V-E DMA
/// reordering), maximizing packing density; without it the original row
/// order is packed as-is (pseudo row-wise execution).
///
/// # Errors
///
/// * [`KernelError::Shape`] if the operand shapes disagree.
/// * [`KernelError::Isa`] if memory initialisation fails.
pub fn build_rowwise_program(
    a: &Matrix<Bf16>,
    b: &Matrix<Bf16>,
    reorder: bool,
) -> Result<RowWiseProgram, KernelError> {
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
    // Cover each row over its whole length so N is uniform across k tiles.
    let covers_orig = transform::row_covers(a, 4)?;
    let mut order: Vec<usize> = (0..shape.m).collect();
    if reorder {
        order.sort_by_key(|&r| covers_orig[r]);
    }
    let covers: Vec<NmRatio> = order.iter().map(|&r| covers_orig[r]).collect();
    let assignments = pack_rows(&covers);

    let tiles_n = shape.tiles_n();
    let tiles_k = shape.k.div_ceil(64);
    let mut mem_bytes = 64u64;
    let mut bump = |bytes: usize| {
        let addr = mem_bytes;
        mem_bytes += (bytes as u64).next_multiple_of(64);
        addr
    };
    // A tiles: values + metadata + row patterns, per (assignment, kt).
    let a_addrs: Vec<(u64, u64, u64)> = (0..assignments.len() * tiles_k)
        .map(|_| (bump(1024), bump(128), bump(64)))
        .collect();
    let b_addrs: Vec<u64> = (0..tiles_n * tiles_k).map(|_| bump(2048)).collect();
    let c_addrs: Vec<u64> = (0..assignments.len() * tiles_n)
        .map(|_| bump(2048))
        .collect();

    let mut mem = Memory::new(mem_bytes.next_multiple_of(64) as usize);
    for (ai, assignment) in assignments.iter().enumerate() {
        for kt in 0..tiles_k {
            let (va, ma, ra) = a_addrs[ai * tiles_k + kt];
            let (treg, mreg) = pack_tile(a, &order, &covers, assignment, kt);
            mem.write_treg_image(va, &treg)?;
            mem.write_mreg_image(ma, Some(ra), &mreg)?;
        }
    }
    for jt in 0..tiles_n {
        for kt in 0..tiles_k {
            let bt = b
                .block_padded(kt * 64, jt * 16, 64, 16, Bf16::ZERO)
                .transposed();
            mem.write_bf16_matrix(b_addrs[jt * tiles_k + kt], &bt)?;
        }
    }

    let mut trace = Trace::new();
    for (ai, _) in assignments.iter().enumerate() {
        for jt in 0..tiles_n {
            trace.push_inst(Inst::TileZero { dst: TReg::T2 });
            trace.push_inst(Inst::TileZero { dst: TReg::T3 });
            for kt in 0..tiles_k {
                let (va, ma, ra) = a_addrs[ai * tiles_k + kt];
                trace.push_inst(Inst::TileLoadU {
                    dst: UReg::U0,
                    addr: b_addrs[jt * tiles_k + kt],
                });
                trace.push_inst(Inst::TileLoadT {
                    dst: TReg::T4,
                    addr: va,
                });
                trace.push_inst(Inst::TileLoadM {
                    dst: MReg::M4,
                    addr: ma,
                });
                trace.push_inst(Inst::TileLoadRp {
                    dst: MReg::M4,
                    addr: ra,
                });
                trace.push_inst(Inst::TileSpmmR {
                    acc: UReg::U1,
                    a: TReg::T4,
                    b: UReg::U0,
                });
                trace.push(TraceOp::Scalar { dst: 0, src: 0 });
                trace.push(TraceOp::Branch { cond: 0 });
            }
            let c = c_addrs[ai * tiles_n + jt];
            trace.push_inst(Inst::TileStoreT {
                addr: c,
                src: TReg::T2,
            });
            trace.push_inst(Inst::TileStoreT {
                addr: c + 1024,
                src: TReg::T3,
            });
        }
    }

    Ok(RowWiseProgram {
        trace,
        mem,
        shape,
        order,
        assignments,
        c_addrs,
        tiles_n,
    })
}

/// Per-`k`-chunk `A` bytes of the synthetic row-wise layout: values (1024)
/// + metadata (128, line-rounded) + row patterns (64).
const RW_A_CHUNK_BYTES: u64 = 1024 + 128 + 64;

/// Exact op count of one row-wise block (one packed row group × one output
/// column tile): two zeros, seven ops per `k` chunk, two stores.
pub(crate) fn rowwise_block_ops(tiles_k: usize) -> u64 {
    2 + 7 * tiles_k as u64 + 2
}

/// The declared operand regions of the synthetic row-wise address plan:
/// the shared `Bᵀ` image, then one read-only `A` run and one writable `C`
/// image per `(group, jt)` block, mirroring [`emit_rowwise_block`]'s bump
/// allocation.
pub(crate) fn rowwise_footprint(tiles_n: usize, tiles_k: usize, groups: usize) -> Footprint {
    let b_base = 64u64;
    let a_base = b_base + tiles_n as u64 * tiles_k as u64 * 2048;
    let block_bytes = tiles_k as u64 * RW_A_CHUNK_BYTES + 2048;
    let mut regions = Vec::with_capacity(1 + 2 * groups * tiles_n);
    regions.push(Region::ro(
        b_base,
        tiles_n as u64 * tiles_k as u64 * 2048,
        RegionClass::B,
    ));
    for block in 0..groups * tiles_n {
        let start = a_base + block as u64 * block_bytes;
        let a_bytes = tiles_k as u64 * RW_A_CHUNK_BYTES;
        regions.push(Region::ro(start, a_bytes, RegionClass::AValues));
        regions.push(Region::rw(start + a_bytes, 2048, RegionClass::C));
    }
    Footprint::new(regions)
}

/// Emits one row-wise block. Addresses reproduce the sequential bump
/// allocation of the materialized builder: `Bᵀ` tiles first, then one
/// `(values, metadata, row-pattern, ..., C)` run per `(group, jt)` block —
/// affine in the block index, so streaming needs no address tables.
pub(crate) fn emit_rowwise_block(
    tiles_n: usize,
    tiles_k: usize,
    block: usize,
    out: &mut Vec<TraceOp>,
) {
    let jt = block % tiles_n;
    let b_base = 64u64;
    let a_base = b_base + tiles_n as u64 * tiles_k as u64 * 2048;
    let block_bytes = tiles_k as u64 * RW_A_CHUNK_BYTES + 2048;
    let start = a_base + block as u64 * block_bytes;
    out.push(TraceOp::Tile(Inst::TileZero { dst: TReg::T2 }));
    out.push(TraceOp::Tile(Inst::TileZero { dst: TReg::T3 }));
    for kt in 0..tiles_k {
        let b_addr = b_base + ((jt * tiles_k + kt) as u64) * 2048;
        out.push(TraceOp::Tile(Inst::TileLoadU {
            dst: UReg::U0,
            addr: b_addr,
        }));
        let va = start + kt as u64 * RW_A_CHUNK_BYTES;
        out.push(TraceOp::Tile(Inst::TileLoadT {
            dst: TReg::T4,
            addr: va,
        }));
        out.push(TraceOp::Tile(Inst::TileLoadM {
            dst: MReg::M4,
            addr: va + 1024,
        }));
        out.push(TraceOp::Tile(Inst::TileLoadRp {
            dst: MReg::M4,
            addr: va + 1024 + 128,
        }));
        out.push(TraceOp::Tile(Inst::TileSpmmR {
            acc: UReg::U1,
            a: TReg::T4,
            b: UReg::U0,
        }));
        out.push(TraceOp::Scalar { dst: 0, src: 0 });
        out.push(TraceOp::Branch { cond: 0 });
    }
    let c = start + tiles_k as u64 * RW_A_CHUNK_BYTES;
    out.push(TraceOp::Tile(Inst::TileStoreT {
        addr: c,
        src: TReg::T2,
    }));
    out.push(TraceOp::Tile(Inst::TileStoreT {
        addr: c + 1024,
        src: TReg::T3,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use vegeta_num::gemm_bf16_ref;
    use vegeta_sparse::prune;

    fn check(m: usize, n: usize, k: usize, degree: f64, reorder: bool, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = prune::random_unstructured(m, k, degree, &mut rng);
        let b = prune::random_dense(k, n, &mut rng);
        let program = build_rowwise_program(&a, &b, reorder).unwrap();
        let got = program.run_functional().unwrap();
        let mut expected = Matrix::zeros(m, n);
        gemm_bf16_ref(&a, &b, &mut expected);
        for r in 0..m {
            for c in 0..n {
                assert_eq!(got[(r, c)], expected[(r, c)], "mismatch at ({r},{c})");
            }
        }
    }

    #[test]
    fn unstructured_spmm_is_exact_without_reorder() {
        check(32, 32, 128, 0.8, false, 1);
    }

    #[test]
    fn unstructured_spmm_is_exact_with_reorder() {
        check(32, 32, 128, 0.8, true, 2);
    }

    #[test]
    fn high_sparsity_and_ragged_shape() {
        check(25, 18, 100, 0.95, true, 3);
    }

    #[test]
    fn dense_rows_still_work() {
        check(16, 16, 64, 0.0, true, 4);
    }

    #[test]
    fn reordering_packs_fewer_instructions() {
        let mut rng = SmallRng::seed_from_u64(5);
        // Alternating dense/sparse rows: unsorted packing fragments.
        let a = Matrix::from_fn(64, 128, |r, c| {
            let keep = if r % 2 == 0 { true } else { c % 4 == 0 };
            if keep {
                prune::random_dense(1, 1, &mut rng)[(0, 0)]
            } else {
                Bf16::ZERO
            }
        });
        let b = prune::random_dense(128, 16, &mut rng);
        let unsorted = build_rowwise_program(&a, &b, false).unwrap();
        let sorted = build_rowwise_program(&a, &b, true).unwrap();
        assert!(
            sorted.assignments().len() <= unsorted.assignments().len(),
            "reordering should never need more tiles"
        );
        // Both still compute the same result.
        assert_eq!(
            sorted.run_functional().unwrap(),
            unsorted.run_functional().unwrap()
        );
    }

    #[test]
    fn trace_only_variant_matches_program_instruction_mix() {
        let mut rng = SmallRng::seed_from_u64(6);
        let a = prune::random_unstructured(48, 128, 0.85, &mut rng);
        let b = prune::random_dense(128, 32, &mut rng);
        let program = build_rowwise_program(&a, &b, true).unwrap();
        let covers = {
            let mut c = transform::row_covers(&a, 4).unwrap();
            c.sort();
            c
        };
        let trace =
            crate::KernelSpec::RowWise { row_ratios: covers }.build(GemmShape::new(48, 32, 128));
        assert_eq!(program.trace.mix().tile_compute, trace.mix().tile_compute);
        assert_eq!(program.trace.mix().tile_stores, trace.mix().tile_stores);
    }
}

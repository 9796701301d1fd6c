//! Vector-engine GEMM baseline (§III-A, Figs. 3 and 4).
//!
//! Models a register-blocked AVX-512-class FP32 GEMM microkernel: 4 `A`
//! rows × 16 `C` columns stay in accumulator registers, the `B` row chunk is
//! loaded once per `k` step and multiplied against per-row broadcasts of `A`
//! elements. One vector FMA covers 16 MACs, so the vector engine's peak is
//! `2 ports × 16 lanes = 32 MACs/cycle` — an 8× gap to the 512-MAC matrix
//! engine clocked 4× slower (§III-A's 64 vs 512 GFLOPS).
//!
//! The trace includes the scalar loop control that makes the *executed
//! instruction count* gap of Fig. 4 so much larger than the FLOP gap.
//! Its addresses are synthetic but coherent: `A`, `B` and `C` live in
//! disjoint regions so the cache model sees realistic reuse.

use vegeta_isa::footprint::{Footprint, Region, RegionClass};
use vegeta_isa::trace::TraceOp;

use crate::GemmShape;

/// Rows of `A` processed per microkernel invocation.
const I_BLOCK: usize = 4;
/// `C` columns per microkernel invocation (one 16-lane FP32 register).
const J_BLOCK: usize = 16;

/// Exact op count of one vector-GEMM block (one `(ib, jb)` microkernel
/// invocation): `C` loads/stores, one `B` load + four broadcast/FMA pairs
/// + loop control per `k`, and an `A`-line refill every 16 elements.
pub(crate) fn vector_block_ops(shape: GemmShape) -> u64 {
    let k = shape.k as u64;
    2 * I_BLOCK as u64 + k * (1 + 2 * I_BLOCK as u64 + 2) + k.div_ceil(16) * I_BLOCK as u64
}

/// Number of `(ib, jb)` microkernel blocks of the vector GEMM.
pub(crate) fn vector_blocks(shape: GemmShape) -> usize {
    shape.m.div_ceil(I_BLOCK) * shape.n.div_ceil(J_BLOCK)
}

/// `(A row-blocks, C column-blocks)` of the vector GEMM's row-major block
/// order — the outer/inner split M-row sharding partitions on.
pub(crate) fn vector_shard_layout(shape: GemmShape) -> (usize, usize) {
    (shape.m.div_ceil(I_BLOCK), shape.n.div_ceil(J_BLOCK))
}

/// The declared operand extents of the vector GEMM's synthetic layout.
///
/// The microkernel pads the row/column space to its 4×16 blocking and
/// issues whole 64 B vector accesses, so ragged shapes legitimately read
/// and write past `m × n` up to the padded extents declared here. The three
/// fixed 16 MB-spaced bases can overlap at very large shapes; the
/// [`Footprint`] containment contract tolerates that.
pub(crate) fn vector_footprint(shape: GemmShape) -> Footprint {
    let a_base = 0x0100_0000u64;
    let b_base = 0x0200_0000u64;
    let c_base = 0x0300_0000u64;
    let rows_padded = shape.m.div_ceil(I_BLOCK) * I_BLOCK;
    let jbs = shape.n.div_ceil(J_BLOCK);
    let mut regions = Vec::with_capacity(3);
    if shape.k > 0 && rows_padded > 0 && jbs > 0 {
        let k_last = ((shape.k - 1) / 16) * 16;
        regions.push(Region::ro(
            a_base,
            ((rows_padded - 1) * shape.k + k_last) as u64 * 4 + 64,
            RegionClass::AValues,
        ));
        regions.push(Region::ro(
            b_base,
            ((shape.k - 1) * shape.n + (jbs - 1) * J_BLOCK) as u64 * 4 + 64,
            RegionClass::B,
        ));
    }
    if rows_padded > 0 && jbs > 0 {
        regions.push(Region::rw(
            c_base,
            ((rows_padded - 1) * shape.n + (jbs - 1) * J_BLOCK) as u64 * 4 + 64,
            RegionClass::C,
        ));
    }
    Footprint::new(regions)
}

/// Emits one vector-GEMM microkernel block.
pub(crate) fn emit_vector_block(shape: GemmShape, block: usize, out: &mut Vec<TraceOp>) {
    let a_base = 0x0100_0000u64;
    let b_base = 0x0200_0000u64;
    let c_base = 0x0300_0000u64;
    // Register map: acc 0-3, B chunk 8, A broadcasts 12-15, A lines 20-23.
    let jb_count = shape.n.div_ceil(J_BLOCK);
    let (ib, jb) = (block / jb_count, block % jb_count);
    for i in 0..I_BLOCK {
        let row = ib * I_BLOCK + i;
        out.push(TraceOp::VecLoad {
            dst: i as u8,
            addr: c_base + (row * shape.n + jb * J_BLOCK) as u64 * 4,
        });
    }
    for k in 0..shape.k {
        // B[k][jb..jb+16], 64 B.
        out.push(TraceOp::VecLoad {
            dst: 8,
            addr: b_base + (k * shape.n + jb * J_BLOCK) as u64 * 4,
        });
        // Refill A lines every 16 elements (64 B of FP32).
        if k % 16 == 0 {
            for i in 0..I_BLOCK {
                let row = ib * I_BLOCK + i;
                out.push(TraceOp::VecLoad {
                    dst: 20 + i as u8,
                    addr: a_base + (row * shape.k + k) as u64 * 4,
                });
            }
        }
        for i in 0..I_BLOCK {
            // Broadcast A[row][k] from the line register.
            out.push(TraceOp::VecOp {
                dst: 12 + i as u8,
                src: 20 + i as u8,
            });
            out.push(TraceOp::VecFma {
                acc: i as u8,
                a: 12 + i as u8,
                b: 8,
            });
        }
        out.push(TraceOp::Scalar { dst: 0, src: 0 });
        out.push(TraceOp::Branch { cond: 0 });
    }
    for i in 0..I_BLOCK {
        let row = ib * I_BLOCK + i;
        out.push(TraceOp::VecStore {
            src: i as u8,
            addr: c_base + (row * shape.n + jb * J_BLOCK) as u64 * 4,
        });
    }
}

/// MACs performed per vector FMA (16 FP32 lanes).
pub const MACS_PER_VEC_FMA: u64 = 16;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelSpec;

    #[test]
    fn fma_count_covers_all_macs() {
        let shape = GemmShape::new(32, 32, 64);
        let trace = KernelSpec::Vector.build(shape);
        let fmas = trace.mix().vec_fmas;
        assert_eq!(fmas * MACS_PER_VEC_FMA, shape.macs());
    }

    #[test]
    fn instruction_count_grows_with_each_dimension() {
        let base = KernelSpec::Vector.build(GemmShape::new(32, 32, 32)).len();
        for bigger in [
            GemmShape::new(64, 32, 32),
            GemmShape::new(32, 64, 32),
            GemmShape::new(32, 32, 64),
        ] {
            assert!(KernelSpec::Vector.build(bigger).len() > base);
        }
    }

    #[test]
    fn vector_needs_far_more_instructions_than_matrix() {
        // The Fig. 4 motivation: executed instruction count ratio is large
        // and grows with GEMM dimension.
        use crate::tiled::SparseMode;
        let mut last_ratio = 0.0;
        for dim in [32usize, 64, 128] {
            let shape = GemmShape::new(dim, dim, dim);
            let vec = KernelSpec::Vector.build(shape).len() as f64;
            let mat = KernelSpec::tiled(SparseMode::Dense).build(shape).len() as f64;
            let ratio = vec / mat;
            assert!(ratio > 10.0, "dim {dim}: ratio {ratio}");
            assert!(ratio > last_ratio, "ratio should grow with dimension");
            last_ratio = ratio;
        }
    }

    #[test]
    fn ragged_shapes_round_up_blocks() {
        let trace = KernelSpec::Vector.build(GemmShape::new(5, 17, 3));
        assert!(trace.mix().vec_fmas >= (5f64 / 4.0).ceil() as u64 * 2 * 3 * 4);
    }
}

//! Dynamic instruction traces.
//!
//! The paper's flow generates traces of the kernels with a Pintool and
//! simulates them on MacSim (§VI-A). Our kernels emit [`Trace`]s directly:
//! every executed instruction appears in program order, with tile
//! instructions carried verbatim and the surrounding scalar/vector work
//! (address arithmetic, loop control, vector GEMM baselines) represented by
//! lightweight ops that the CPU model costs accurately.

use std::fmt;

use crate::inst::{Inst, RegRef};

/// A unified architectural register namespace for dependence tracking across
/// the scalar/vector/matrix engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArchReg {
    /// A tile register (treg granularity; ureg/vreg accesses expand).
    Tile(u8),
    /// A metadata register.
    Meta(u8),
    /// A 64 B vector register (AVX-512-class), `z0`–`z31`.
    Vec(u8),
    /// A scalar general-purpose register, `r0`–`r15`.
    Gpr(u8),
}

/// One dynamic instruction in a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceOp {
    /// A VEGETA tile instruction.
    Tile(Inst),
    /// A 64 B vector load into vector register `dst`.
    VecLoad {
        /// Destination vector register.
        dst: u8,
        /// Source address.
        addr: u64,
    },
    /// A 64 B vector store from vector register `src`.
    VecStore {
        /// Source vector register.
        src: u8,
        /// Destination address.
        addr: u64,
    },
    /// A vector fused multiply-add: `acc += a * b` on 64 B vectors.
    VecFma {
        /// Accumulator vector register (read and written).
        acc: u8,
        /// First source vector register.
        a: u8,
        /// Second source vector register.
        b: u8,
    },
    /// A vector broadcast/shuffle/permute-class op writing `dst` from `src`.
    VecOp {
        /// Destination vector register.
        dst: u8,
        /// Source vector register.
        src: u8,
    },
    /// A scalar ALU op (address arithmetic, loop counters).
    Scalar {
        /// Destination GPR.
        dst: u8,
        /// Source GPR.
        src: u8,
    },
    /// A (perfectly predicted) loop branch reading GPR `cond`.
    Branch {
        /// Condition GPR.
        cond: u8,
    },
}

impl TraceOp {
    /// Calls `f` on each register this op reads, in operand order (a tile
    /// op's in [`Inst::visit_reads`] order), without allocating — what
    /// the simulator's per-instruction hot path uses instead of
    /// materializing a `Vec` per step.
    pub fn visit_reads(&self, mut f: impl FnMut(ArchReg)) {
        match *self {
            TraceOp::Tile(inst) => inst.visit_reads(|r| f(reg_ref_to_arch(r))),
            TraceOp::VecLoad { .. } => {}
            TraceOp::VecStore { src, .. } => f(ArchReg::Vec(src)),
            TraceOp::VecFma { acc, a, b } => {
                f(ArchReg::Vec(acc));
                f(ArchReg::Vec(a));
                f(ArchReg::Vec(b));
            }
            TraceOp::VecOp { src, .. } => f(ArchReg::Vec(src)),
            TraceOp::Scalar { src, .. } => f(ArchReg::Gpr(src)),
            TraceOp::Branch { cond } => f(ArchReg::Gpr(cond)),
        }
    }

    /// Calls `f` on each register this op writes, in operand order,
    /// without allocating (see [`TraceOp::visit_reads`]).
    pub fn visit_writes(&self, mut f: impl FnMut(ArchReg)) {
        match *self {
            TraceOp::Tile(inst) => inst.visit_writes(|r| f(reg_ref_to_arch(r))),
            TraceOp::VecLoad { dst, .. } => f(ArchReg::Vec(dst)),
            TraceOp::VecStore { .. } => {}
            TraceOp::VecFma { acc, .. } => f(ArchReg::Vec(acc)),
            TraceOp::VecOp { dst, .. } => f(ArchReg::Vec(dst)),
            TraceOp::Scalar { dst, .. } => f(ArchReg::Gpr(dst)),
            TraceOp::Branch { .. } => {}
        }
    }

    /// Memory footprint `(addr, bytes, is_store)` if this op touches memory.
    pub fn mem_access(&self) -> Option<(u64, usize, bool)> {
        match *self {
            TraceOp::Tile(inst) => inst
                .mem_access()
                .map(|(a, len)| (a, len, matches!(inst, Inst::TileStoreT { .. }))),
            TraceOp::VecLoad { addr, .. } => Some((addr, 64, false)),
            TraceOp::VecStore { addr, .. } => Some((addr, 64, true)),
            _ => None,
        }
    }

    /// `true` for tile GEMM/SPMM ops (dispatched to the matrix engine).
    pub fn is_tile_compute(&self) -> bool {
        matches!(self, TraceOp::Tile(i) if i.is_compute())
    }
}

/// Per-kind instruction counts of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceMix {
    /// Tile loads (`TILE_LOAD_{T,U,V,M,RP}`).
    pub tile_loads: u64,
    /// Tile stores.
    pub tile_stores: u64,
    /// Tile GEMM/SPMM compute.
    pub tile_compute: u64,
    /// `TILE_ZERO`.
    pub tile_zeros: u64,
    /// Vector loads.
    pub vec_loads: u64,
    /// Vector stores.
    pub vec_stores: u64,
    /// Vector FMAs.
    pub vec_fmas: u64,
    /// Other vector ops.
    pub vec_ops: u64,
    /// Scalar ALU ops.
    pub scalars: u64,
    /// Branches.
    pub branches: u64,
}

impl TraceMix {
    /// Counts one op into the mix.
    pub fn count(&mut self, op: &TraceOp) {
        match op {
            TraceOp::Tile(inst) if inst.is_compute() => self.tile_compute += 1,
            TraceOp::Tile(Inst::TileStoreT { .. }) => self.tile_stores += 1,
            TraceOp::Tile(Inst::TileZero { .. }) => self.tile_zeros += 1,
            TraceOp::Tile(_) => self.tile_loads += 1,
            TraceOp::VecLoad { .. } => self.vec_loads += 1,
            TraceOp::VecStore { .. } => self.vec_stores += 1,
            TraceOp::VecFma { .. } => self.vec_fmas += 1,
            TraceOp::VecOp { .. } => self.vec_ops += 1,
            TraceOp::Scalar { .. } => self.scalars += 1,
            TraceOp::Branch { .. } => self.branches += 1,
        }
    }

    /// Total dynamic instruction count.
    pub fn total(&self) -> u64 {
        self.tile_loads
            + self.tile_stores
            + self.tile_compute
            + self.tile_zeros
            + self.vec_loads
            + self.vec_stores
            + self.vec_fmas
            + self.vec_ops
            + self.scalars
            + self.branches
    }
}

/// A dynamic instruction trace in program order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    ops: Vec<TraceOp>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates an empty trace with room for `capacity` ops.
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            ops: Vec::with_capacity(capacity),
        }
    }

    /// Streams the materialized ops (see [`crate::stream::TraceStream`]).
    pub fn stream(&self) -> crate::stream::TraceStream<'_> {
        crate::stream::TraceStream::new(&self.ops)
    }

    /// Appends an op.
    pub fn push(&mut self, op: TraceOp) {
        self.ops.push(op);
    }

    /// Appends a tile instruction.
    pub fn push_inst(&mut self, inst: Inst) {
        self.ops.push(TraceOp::Tile(inst));
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The ops in program order.
    pub fn ops(&self) -> &[TraceOp] {
        &self.ops
    }

    /// Iterates over the ops in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceOp> {
        self.ops.iter()
    }

    /// Appends all ops of another trace.
    pub fn extend(&mut self, other: &Trace) {
        self.ops.extend_from_slice(&other.ops);
    }

    /// Counts instructions by kind.
    pub fn mix(&self) -> TraceMix {
        let mut mix = TraceMix::default();
        for op in &self.ops {
            mix.count(op);
        }
        mix
    }

    /// Extracts just the tile instructions, in order (for the functional
    /// executor).
    pub fn tile_insts(&self) -> Vec<Inst> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                TraceOp::Tile(i) => Some(*i),
                _ => None,
            })
            .collect()
    }
}

impl FromIterator<TraceOp> for Trace {
    fn from_iter<T: IntoIterator<Item = TraceOp>>(iter: T) -> Self {
        Trace {
            ops: iter.into_iter().collect(),
        }
    }
}

impl Extend<TraceOp> for Trace {
    fn extend<T: IntoIterator<Item = TraceOp>>(&mut self, iter: T) {
        self.ops.extend(iter);
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mix = self.mix();
        write!(
            f,
            "trace: {} insts ({} tile-compute, {} tile-loads, {} vec-fma)",
            mix.total(),
            mix.tile_compute,
            mix.tile_loads,
            mix.vec_fmas
        )
    }
}

fn reg_ref_to_arch(r: RegRef) -> ArchReg {
    match r {
        RegRef::Tile(t) => ArchReg::Tile(t.index() as u8),
        RegRef::Meta(m) => ArchReg::Meta(m.index() as u8),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::{TReg, UReg};

    #[test]
    fn mix_counts_kinds() {
        let mut t = Trace::new();
        t.push_inst(Inst::TileLoadT {
            dst: TReg::T0,
            addr: 0,
        });
        t.push_inst(Inst::TileLoadM {
            dst: crate::regs::MReg::M0,
            addr: 0,
        });
        t.push_inst(Inst::TileSpmmU {
            acc: TReg::T2,
            a: TReg::T0,
            b: UReg::U1,
        });
        t.push_inst(Inst::TileStoreT {
            addr: 0,
            src: TReg::T2,
        });
        t.push(TraceOp::VecFma { acc: 0, a: 1, b: 2 });
        t.push(TraceOp::Scalar { dst: 0, src: 0 });
        t.push(TraceOp::Branch { cond: 0 });
        let mix = t.mix();
        assert_eq!(mix.tile_loads, 2);
        assert_eq!(mix.tile_compute, 1);
        assert_eq!(mix.tile_stores, 1);
        assert_eq!(mix.vec_fmas, 1);
        assert_eq!(mix.scalars, 1);
        assert_eq!(mix.branches, 1);
        assert_eq!(mix.total(), 7);
    }

    /// The registers `op` reads and writes, collected through the visitors.
    fn regs(op: &TraceOp) -> (Vec<ArchReg>, Vec<ArchReg>) {
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        op.visit_reads(|r| reads.push(r));
        op.visit_writes(|w| writes.push(w));
        (reads, writes)
    }

    #[test]
    fn vec_fma_dependences() {
        let op = TraceOp::VecFma { acc: 3, a: 4, b: 5 };
        let (reads, writes) = regs(&op);
        assert!(reads.contains(&ArchReg::Vec(3)));
        assert_eq!(writes, vec![ArchReg::Vec(3)]);
    }

    #[test]
    fn tile_op_dependences_expand_aliases() {
        let op = TraceOp::Tile(Inst::TileSpmmU {
            acc: TReg::T2,
            a: TReg::T3,
            b: UReg::U0,
        });
        let (reads, _) = regs(&op);
        assert!(reads.contains(&ArchReg::Tile(0)));
        assert!(reads.contains(&ArchReg::Tile(1)));
        assert!(reads.contains(&ArchReg::Meta(3)));
    }

    #[test]
    fn mem_access_flags_stores() {
        let st = TraceOp::Tile(Inst::TileStoreT {
            addr: 0x80,
            src: TReg::T0,
        });
        assert_eq!(st.mem_access(), Some((0x80, 1024, true)));
        let ld = TraceOp::VecLoad { dst: 0, addr: 0x40 };
        assert_eq!(ld.mem_access(), Some((0x40, 64, false)));
    }

    #[test]
    fn tile_insts_filters_non_tile_ops() {
        let mut t = Trace::new();
        t.push(TraceOp::Scalar { dst: 0, src: 0 });
        t.push_inst(Inst::TileZero { dst: TReg::T1 });
        assert_eq!(t.tile_insts(), vec![Inst::TileZero { dst: TReg::T1 }]);
    }
}

//! The VEGETA instructions of Table II.

use std::fmt;

use crate::regs::{MReg, TReg, UReg, VReg};

/// Effectual multiply-accumulates performed by one tile GEMM/SPMM
/// instruction with fully-packed operands (§IV-B: "The number of useful MAC
/// operations required to calculate C is the same ... (8192)").
pub const MACS_PER_TILE_INST: usize = 8192;

/// Instruction opcodes, stable across the binary encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// Load 1 KB into a treg.
    TileLoadT = 0x01,
    /// Load 2 KB into a ureg.
    TileLoadU = 0x02,
    /// Load 4 KB into a vreg.
    TileLoadV = 0x03,
    /// Load 128 B of metadata into an mreg.
    TileLoadM = 0x04,
    /// Load 8 B of row-pattern metadata into an mreg's row-pattern field
    /// (extension for `TILE_SPMM_R`; see [`crate::regs`]).
    TileLoadRp = 0x05,
    /// Store 1 KB from a treg.
    TileStoreT = 0x06,
    /// Zero a treg (accumulator initialisation, as in Intel AMX `TILEZERO`).
    TileZero = 0x07,
    /// Dense tile GEMM: `C (16×16 f32) += A (16×32 bf16) × B (32×16 bf16)`.
    TileGemm = 0x10,
    /// 2:4 tile SPMM: `C (16×16) += A (16×64 eff.) × B (64×16)`.
    TileSpmmU = 0x11,
    /// 1:4 tile SPMM: `C (16×16) += A (16×128 eff.) × B (128×16)`.
    TileSpmmV = 0x12,
    /// Row-wise N:4 tile SPMM: `C (R×16) += A (R×64 eff.) × B (64×16)`,
    /// `R ∈ [8, 32]` derived from the row-pattern metadata.
    TileSpmmR = 0x13,
}

impl Opcode {
    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::TileLoadT => "tile_load_t",
            Opcode::TileLoadU => "tile_load_u",
            Opcode::TileLoadV => "tile_load_v",
            Opcode::TileLoadM => "tile_load_m",
            Opcode::TileLoadRp => "tile_load_rp",
            Opcode::TileStoreT => "tile_store_t",
            Opcode::TileZero => "tile_zero",
            Opcode::TileGemm => "tile_gemm",
            Opcode::TileSpmmU => "tile_spmm_u",
            Opcode::TileSpmmV => "tile_spmm_v",
            Opcode::TileSpmmR => "tile_spmm_r",
        }
    }

    /// Decodes an opcode byte.
    pub fn from_byte(b: u8) -> Option<Opcode> {
        Some(match b {
            0x01 => Opcode::TileLoadT,
            0x02 => Opcode::TileLoadU,
            0x03 => Opcode::TileLoadV,
            0x04 => Opcode::TileLoadM,
            0x05 => Opcode::TileLoadRp,
            0x06 => Opcode::TileStoreT,
            0x07 => Opcode::TileZero,
            0x10 => Opcode::TileGemm,
            0x11 => Opcode::TileSpmmU,
            0x12 => Opcode::TileSpmmV,
            0x13 => Opcode::TileSpmmR,
            _ => return None,
        })
    }
}

/// A reference to an architectural register, with ureg/vreg aliases expanded
/// to their constituent tregs so dependence tracking sees through aliasing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegRef {
    /// A tile register (aliases resolved to treg granularity).
    Tile(TReg),
    /// A metadata register (including its row-pattern field).
    Meta(MReg),
}

/// One VEGETA instruction (Table II).
///
/// The metadata register of the SPMM instructions is implicit: the mreg with
/// the same index as the `a` treg (Listing 1 pairs `treg3` with `mreg3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// Load 1 KB from `addr` into `dst`.
    TileLoadT {
        /// Destination tile register.
        dst: TReg,
        /// Source byte address.
        addr: u64,
    },
    /// Load 2 KB from `addr` into `dst`.
    TileLoadU {
        /// Destination aliased 2 KB register.
        dst: UReg,
        /// Source byte address.
        addr: u64,
    },
    /// Load 4 KB from `addr` into `dst`.
    TileLoadV {
        /// Destination aliased 4 KB register.
        dst: VReg,
        /// Source byte address.
        addr: u64,
    },
    /// Load 128 B of metadata from `addr` into `dst`.
    TileLoadM {
        /// Destination metadata register.
        dst: MReg,
        /// Source byte address.
        addr: u64,
    },
    /// Load 8 B of row-pattern metadata from `addr` into `dst`'s sidecar.
    TileLoadRp {
        /// Destination metadata register (row-pattern field).
        dst: MReg,
        /// Source byte address.
        addr: u64,
    },
    /// Store 1 KB from `src` to `addr`.
    TileStoreT {
        /// Destination byte address.
        addr: u64,
        /// Source tile register.
        src: TReg,
    },
    /// Zero `dst`.
    TileZero {
        /// Tile register to clear.
        dst: TReg,
    },
    /// `C (dst/acc) += A × B`, all dense.
    TileGemm {
        /// Accumulator treg (read and written; 16×16 FP32).
        acc: TReg,
        /// 16×32 BF16 `A` tile.
        a: TReg,
        /// 16×32 BF16 `Bᵀ` tile.
        b: TReg,
    },
    /// `C += A × B` with 2:4-compressed `A` (metadata in `a.paired_mreg()`).
    TileSpmmU {
        /// Accumulator treg (read and written; 16×16 FP32).
        acc: TReg,
        /// Compressed 2:4 `A` values (effective 16×64).
        a: TReg,
        /// 16×64 BF16 `Bᵀ` tile.
        b: UReg,
    },
    /// `C += A × B` with 1:4-compressed `A` (metadata in `a.paired_mreg()`).
    TileSpmmV {
        /// Accumulator treg (read and written; 16×16 FP32).
        acc: TReg,
        /// Compressed 1:4 `A` values (effective 16×128).
        a: TReg,
        /// 16×128 BF16 `Bᵀ` tile.
        b: VReg,
    },
    /// `C += A × B` with row-wise N:4 compressed `A` (value metadata and row
    /// patterns in `a.paired_mreg()`).
    TileSpmmR {
        /// Accumulator ureg (read and written; R×16 FP32, R ≤ 32).
        acc: UReg,
        /// Packed row-wise `A` values (effective R×64).
        a: TReg,
        /// 16×64 BF16 `Bᵀ` tile.
        b: UReg,
    },
}

impl Inst {
    /// The instruction's opcode.
    pub fn opcode(self) -> Opcode {
        match self {
            Inst::TileLoadT { .. } => Opcode::TileLoadT,
            Inst::TileLoadU { .. } => Opcode::TileLoadU,
            Inst::TileLoadV { .. } => Opcode::TileLoadV,
            Inst::TileLoadM { .. } => Opcode::TileLoadM,
            Inst::TileLoadRp { .. } => Opcode::TileLoadRp,
            Inst::TileStoreT { .. } => Opcode::TileStoreT,
            Inst::TileZero { .. } => Opcode::TileZero,
            Inst::TileGemm { .. } => Opcode::TileGemm,
            Inst::TileSpmmU { .. } => Opcode::TileSpmmU,
            Inst::TileSpmmV { .. } => Opcode::TileSpmmV,
            Inst::TileSpmmR { .. } => Opcode::TileSpmmR,
        }
    }

    /// `true` for the tile GEMM/SPMM compute instructions.
    pub fn is_compute(self) -> bool {
        matches!(
            self,
            Inst::TileGemm { .. }
                | Inst::TileSpmmU { .. }
                | Inst::TileSpmmV { .. }
                | Inst::TileSpmmR { .. }
        )
    }

    /// The memory footprint `(address, bytes)` of a load/store, if any.
    pub fn mem_access(self) -> Option<(u64, usize)> {
        Some(match self {
            Inst::TileLoadT { addr, .. } => (addr, crate::regs::TREG_BYTES),
            Inst::TileLoadU { addr, .. } => (addr, crate::regs::UREG_BYTES),
            Inst::TileLoadV { addr, .. } => (addr, crate::regs::VREG_BYTES),
            Inst::TileLoadM { addr, .. } => (addr, crate::regs::MREG_BYTES),
            Inst::TileLoadRp { addr, .. } => (addr, crate::regs::MREG_ROW_PATTERN_BYTES),
            Inst::TileStoreT { addr, .. } => (addr, crate::regs::TREG_BYTES),
            _ => return None,
        })
    }

    /// Calls `f` on each architectural register this instruction reads, in
    /// operand order (accumulators, then `A` and its paired metadata
    /// register, then `B`), without allocating: the form the simulator's
    /// per-instruction hot path and the verifier's dataflow walk use.
    pub fn visit_reads(self, mut f: impl FnMut(RegRef)) {
        match self {
            Inst::TileLoadT { .. }
            | Inst::TileLoadU { .. }
            | Inst::TileLoadV { .. }
            | Inst::TileLoadM { .. }
            | Inst::TileLoadRp { .. }
            | Inst::TileZero { .. } => {}
            Inst::TileStoreT { src, .. } => f(RegRef::Tile(src)),
            Inst::TileGemm { acc, a, b } => {
                f(RegRef::Tile(acc));
                f(RegRef::Tile(a));
                f(RegRef::Tile(b));
            }
            Inst::TileSpmmU { acc, a, b } => {
                f(RegRef::Tile(acc));
                f(RegRef::Tile(a));
                f(RegRef::Meta(a.paired_mreg()));
                for t in b.tregs() {
                    f(RegRef::Tile(t));
                }
            }
            Inst::TileSpmmV { acc, a, b } => {
                f(RegRef::Tile(acc));
                f(RegRef::Tile(a));
                f(RegRef::Meta(a.paired_mreg()));
                for t in b.tregs() {
                    f(RegRef::Tile(t));
                }
            }
            Inst::TileSpmmR { acc, a, b } => {
                for t in acc.tregs() {
                    f(RegRef::Tile(t));
                }
                f(RegRef::Tile(a));
                f(RegRef::Meta(a.paired_mreg()));
                for t in b.tregs() {
                    f(RegRef::Tile(t));
                }
            }
        }
    }

    /// Calls `f` on each architectural register this instruction writes,
    /// in operand order, without allocating (see [`Inst::visit_reads`]).
    pub fn visit_writes(self, mut f: impl FnMut(RegRef)) {
        match self {
            Inst::TileLoadT { dst, .. } => f(RegRef::Tile(dst)),
            Inst::TileLoadU { dst, .. } => {
                for t in dst.tregs() {
                    f(RegRef::Tile(t));
                }
            }
            Inst::TileLoadV { dst, .. } => {
                for t in dst.tregs() {
                    f(RegRef::Tile(t));
                }
            }
            Inst::TileLoadM { dst, .. } | Inst::TileLoadRp { dst, .. } => f(RegRef::Meta(dst)),
            Inst::TileStoreT { .. } => {}
            Inst::TileZero { dst } => f(RegRef::Tile(dst)),
            Inst::TileGemm { acc, .. }
            | Inst::TileSpmmU { acc, .. }
            | Inst::TileSpmmV { acc, .. } => f(RegRef::Tile(acc)),
            Inst::TileSpmmR { acc, .. } => {
                for t in acc.tregs() {
                    f(RegRef::Tile(t));
                }
            }
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.opcode().mnemonic();
        match *self {
            Inst::TileLoadT { dst, addr } => write!(f, "{m} {dst}, [{addr:#x}]"),
            Inst::TileLoadU { dst, addr } => write!(f, "{m} {dst}, [{addr:#x}]"),
            Inst::TileLoadV { dst, addr } => write!(f, "{m} {dst}, [{addr:#x}]"),
            Inst::TileLoadM { dst, addr } => write!(f, "{m} {dst}, [{addr:#x}]"),
            Inst::TileLoadRp { dst, addr } => write!(f, "{m} {dst}, [{addr:#x}]"),
            Inst::TileStoreT { addr, src } => write!(f, "{m} [{addr:#x}], {src}"),
            Inst::TileZero { dst } => write!(f, "{m} {dst}"),
            Inst::TileGemm { acc, a, b } => write!(f, "{m} {acc}, {a}, {b}"),
            Inst::TileSpmmU { acc, a, b } => write!(f, "{m} {acc}, {a}, {b}"),
            Inst::TileSpmmV { acc, a, b } => write!(f, "{m} {acc}, {a}, {b}"),
            Inst::TileSpmmR { acc, a, b } => write!(f, "{m} {acc}, {a}, {b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_byte_roundtrip() {
        for op in [
            Opcode::TileLoadT,
            Opcode::TileLoadU,
            Opcode::TileLoadV,
            Opcode::TileLoadM,
            Opcode::TileLoadRp,
            Opcode::TileStoreT,
            Opcode::TileZero,
            Opcode::TileGemm,
            Opcode::TileSpmmU,
            Opcode::TileSpmmV,
            Opcode::TileSpmmR,
        ] {
            assert_eq!(Opcode::from_byte(op as u8), Some(op));
        }
        assert_eq!(Opcode::from_byte(0xFF), None);
    }

    #[test]
    fn spmm_reads_include_implicit_mreg_and_aliases() {
        let i = Inst::TileSpmmU {
            acc: TReg::T2,
            a: TReg::T3,
            b: UReg::U0,
        };
        let mut reads = Vec::new();
        i.visit_reads(|r| reads.push(r));
        assert!(reads.contains(&RegRef::Meta(MReg::M3)));
        assert!(reads.contains(&RegRef::Tile(TReg::T0)));
        assert!(reads.contains(&RegRef::Tile(TReg::T1)));
        assert!(reads.contains(&RegRef::Tile(TReg::T2))); // acc is also read
    }

    #[test]
    fn load_v_writes_all_four_aliased_tregs() {
        let i = Inst::TileLoadV {
            dst: VReg::V1,
            addr: 0,
        };
        let mut writes = Vec::new();
        i.visit_writes(|r| writes.push(r));
        assert_eq!(writes.len(), 4);
        assert!(writes.contains(&RegRef::Tile(TReg::T7)));
    }

    #[test]
    fn mem_access_sizes_match_register_widths() {
        assert_eq!(
            Inst::TileLoadT {
                dst: TReg::T0,
                addr: 4
            }
            .mem_access(),
            Some((4, 1024))
        );
        assert_eq!(
            Inst::TileLoadV {
                dst: VReg::V0,
                addr: 0
            }
            .mem_access(),
            Some((0, 4096))
        );
        assert_eq!(
            Inst::TileLoadM {
                dst: MReg::M0,
                addr: 8
            }
            .mem_access(),
            Some((8, 128))
        );
        assert_eq!(Inst::TileZero { dst: TReg::T0 }.mem_access(), None);
    }

    #[test]
    fn display_matches_assembler_syntax() {
        let i = Inst::TileSpmmV {
            acc: TReg::T2,
            a: TReg::T3,
            b: VReg::V0,
        };
        assert_eq!(i.to_string(), "tile_spmm_v t2, t3, v0");
        let i = Inst::TileStoreT {
            addr: 0x40,
            src: TReg::T1,
        };
        assert_eq!(i.to_string(), "tile_store_t [0x40], t1");
    }
}

//! Register dataflow: def-before-use, clobber, and unconsumed-write
//! analysis over tile, metadata, and vector registers.
//!
//! The pass walks a stream's ops in order and tracks a small abstract state
//! per architectural register:
//!
//! * **tile registers** (`treg0-7`, including accumulator groups and the
//!   treg pairs/quads behind `ureg`/`vreg` operands) — a read of a treg no
//!   instruction has defined is [`DiagCode::TileUseBeforeDef`];
//! * **metadata registers** (`mreg0-7`) are modeled as *two* sub-slots,
//!   because `TILE_LOAD_M` (N:M positions) and `TILE_LOAD_RP` (row
//!   patterns) fill different architectural state behind the same register
//!   name: `TILE_SPMM_U`/`_V` need positions, `TILE_SPMM_R` needs both.
//!   Reading a missing sub-slot is [`DiagCode::MetaUseBeforeDef`];
//! * **vector registers** — the K-split reduction sequence keeps an
//!   all-ones multiplicand in a register the stream itself never writes;
//!   such registers must be declared live-in via
//!   [`DataflowConfig::vec_live_in`] or their use is
//!   [`DiagCode::VecUseBeforeDef`];
//! * scalar GPRs hold ambient loop state (trip counts seeded before the
//!   kernel body) and are always treated as live-in.
//!
//! A write that clobbers a still-unread write is [`DiagCode::DeadWrite`];
//! a write never read by stream end (an accumulator that is never stored)
//! is [`DiagCode::UnconsumedWrite`].

use vegeta_isa::trace::TraceOp;
use vegeta_isa::{Inst, RegRef};

use crate::diag::{DiagCode, Diagnostic};

/// The vector register the K-split reduction keeps its all-ones
/// multiplicand in (see `emit_reduction_tile`): live-in by convention.
pub const REDUCTION_ONES_VREG: u8 = 2;

/// Live-in assumptions for the dataflow pass.
#[derive(Debug, Clone)]
pub struct DataflowConfig {
    /// Vector registers defined before the stream starts.
    pub vec_live_in: Vec<u8>,
}

impl Default for DataflowConfig {
    fn default() -> Self {
        DataflowConfig {
            vec_live_in: vec![REDUCTION_ONES_VREG],
        }
    }
}

/// Abstract state of one register (or metadata sub-slot).
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Some instruction (or a live-in declaration) has defined it.
    defined: bool,
    /// Index of a write no later op has read yet.
    unread: Option<u64>,
}

impl Slot {
    fn live_in() -> Self {
        Slot {
            defined: true,
            unread: None,
        }
    }
}

/// Streaming dataflow analysis: feed ops in order, then [`finish`].
///
/// [`finish`]: DataflowPass::finish
#[derive(Debug)]
pub struct DataflowPass {
    tiles: [Slot; 8],
    meta_pos: [Slot; 8],
    meta_rp: [Slot; 8],
    vecs: Vec<Slot>,
    diags: Vec<Diagnostic>,
    idx: u64,
}

impl DataflowPass {
    /// A fresh pass with `cfg`'s live-in assumptions.
    pub fn new(cfg: &DataflowConfig) -> Self {
        let mut vecs = vec![Slot::default(); 256];
        for &v in &cfg.vec_live_in {
            vecs[v as usize] = Slot::live_in();
        }
        DataflowPass {
            tiles: [Slot::default(); 8],
            meta_pos: [Slot::default(); 8],
            meta_rp: [Slot::default(); 8],
            vecs,
            diags: Vec::new(),
            idx: 0,
        }
    }

    /// Processes the next op of the stream.
    pub fn op(&mut self, op: &TraceOp) {
        match *op {
            TraceOp::Tile(inst) => self.tile_inst(inst),
            TraceOp::VecLoad { dst, .. } => self.write_vec(dst),
            TraceOp::VecStore { src, .. } => self.read_vec(src),
            TraceOp::VecFma { acc, a, b } => {
                self.read_vec(acc);
                self.read_vec(a);
                self.read_vec(b);
                self.write_vec(acc);
            }
            TraceOp::VecOp { dst, src } => {
                self.read_vec(src);
                self.write_vec(dst);
            }
            // GPRs hold ambient loop state; always live, never tracked.
            TraceOp::Scalar { .. } | TraceOp::Branch { .. } => {}
        }
        self.idx += 1;
    }

    /// Ends the stream: reports writes nothing ever read.
    pub fn finish(mut self) -> Vec<Diagnostic> {
        for (name, slots) in [
            ("treg", &self.tiles[..]),
            ("mreg positions of", &self.meta_pos[..]),
            ("mreg row patterns of", &self.meta_rp[..]),
        ] {
            for (i, slot) in slots.iter().enumerate() {
                if let Some(at) = slot.unread {
                    self.diags.push(
                        Diagnostic::new(
                            DiagCode::UnconsumedWrite,
                            format!("{name}{i} written at op {at} is never read"),
                        )
                        .at_op(at),
                    );
                }
            }
        }
        for (i, slot) in self.vecs.iter().enumerate() {
            if let Some(at) = slot.unread {
                self.diags.push(
                    Diagnostic::new(
                        DiagCode::UnconsumedWrite,
                        format!("vreg{i} written at op {at} is never read"),
                    )
                    .at_op(at),
                );
            }
        }
        self.diags
    }

    /// Diagnostics found so far (without the end-of-stream check).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    fn tile_inst(&mut self, inst: Inst) {
        // Reads first (an accumulator is read *and* written by compute, and
        // the read must clear the pending-unread state before the write).
        inst.visit_reads(|r| match r {
            RegRef::Tile(t) => self.read_tile(t.index()),
            // Metadata reads are re-derived below with sub-slot
            // precision; `RegRef` cannot distinguish positions from
            // row patterns.
            RegRef::Meta(_) => {}
        });
        match inst {
            Inst::TileSpmmU { a, .. } | Inst::TileSpmmV { a, .. } => {
                self.read_meta_pos(a.paired_mreg().index());
            }
            Inst::TileSpmmR { a, .. } => {
                let m = a.paired_mreg().index();
                self.read_meta_pos(m);
                self.read_meta_rp(m);
            }
            _ => {}
        }
        match inst {
            Inst::TileLoadM { dst, .. } => self.write_meta(dst.index(), true),
            Inst::TileLoadRp { dst, .. } => self.write_meta(dst.index(), false),
            _ => inst.visit_writes(|w| {
                if let RegRef::Tile(t) = w {
                    self.write_tile(t.index());
                }
            }),
        }
    }

    fn read_tile(&mut self, i: usize) {
        if !self.tiles[i].defined {
            self.diags.push(
                Diagnostic::new(
                    DiagCode::TileUseBeforeDef,
                    format!("treg{i} read before any def"),
                )
                .at_op(self.idx),
            );
        }
        self.tiles[i].unread = None;
    }

    fn write_tile(&mut self, i: usize) {
        if let Some(at) = self.tiles[i].unread {
            self.diags.push(
                Diagnostic::new(
                    DiagCode::DeadWrite,
                    format!(
                        "treg{i} written at op {at} clobbered unread at op {}",
                        self.idx
                    ),
                )
                .at_op(self.idx),
            );
        }
        self.tiles[i] = Slot {
            defined: true,
            unread: Some(self.idx),
        };
    }

    fn read_meta_pos(&mut self, i: usize) {
        if !self.meta_pos[i].defined {
            self.diags.push(
                Diagnostic::new(
                    DiagCode::MetaUseBeforeDef,
                    format!("mreg{i} N:M positions read before TILE_LOAD_M"),
                )
                .at_op(self.idx),
            );
        }
        self.meta_pos[i].unread = None;
    }

    fn read_meta_rp(&mut self, i: usize) {
        if !self.meta_rp[i].defined {
            self.diags.push(
                Diagnostic::new(
                    DiagCode::MetaUseBeforeDef,
                    format!("mreg{i} row patterns read before TILE_LOAD_RP"),
                )
                .at_op(self.idx),
            );
        }
        self.meta_rp[i].unread = None;
    }

    fn write_meta(&mut self, i: usize, positions: bool) {
        let (slots, what) = if positions {
            (&mut self.meta_pos, "N:M positions")
        } else {
            (&mut self.meta_rp, "row patterns")
        };
        if let Some(at) = slots[i].unread {
            self.diags.push(
                Diagnostic::new(
                    DiagCode::DeadWrite,
                    format!(
                        "mreg{i} {what} written at op {at} clobbered unread at op {}",
                        self.idx
                    ),
                )
                .at_op(self.idx),
            );
        }
        slots[i] = Slot {
            defined: true,
            unread: Some(self.idx),
        };
    }

    fn read_vec(&mut self, i: u8) {
        let slot = &mut self.vecs[i as usize];
        if !slot.defined {
            self.diags.push(
                Diagnostic::new(
                    DiagCode::VecUseBeforeDef,
                    format!("vreg{i} read before any def (not declared live-in)"),
                )
                .at_op(self.idx),
            );
        }
        slot.unread = None;
    }

    fn write_vec(&mut self, i: u8) {
        let slot = &mut self.vecs[i as usize];
        if let Some(at) = slot.unread {
            self.diags.push(
                Diagnostic::new(
                    DiagCode::DeadWrite,
                    format!(
                        "vreg{i} written at op {at} clobbered unread at op {}",
                        self.idx
                    ),
                )
                .at_op(self.idx),
            );
        }
        *slot = Slot {
            defined: true,
            unread: Some(self.idx),
        };
    }
}

/// Runs the dataflow pass over a complete op sequence.
pub fn check_dataflow(ops: &[TraceOp], cfg: &DataflowConfig) -> Vec<Diagnostic> {
    let mut pass = DataflowPass::new(cfg);
    for op in ops {
        pass.op(op);
    }
    pass.finish()
}

//! Functional executor for VEGETA instructions.
//!
//! This is the repo's stand-in for the paper's Pin-based emulation tool
//! (§VI-A): it implements the architectural semantics of every Table II
//! instruction on a [`RegFile`] + [`Memory`] pair, and is the golden model
//! the cycle-accurate engine dataflow is checked against.
//!
//! The per-instruction path is **allocation-free**: operand reads go through
//! borrowed [`TileView`]s over the raw register bytes, accumulators live in
//! fixed stack arrays, and loads/stores copy bytes between [`Memory`] and
//! the register file directly (`crates/isa/tests/no_alloc_hot_path.rs` pins
//! this with a counting allocator).

use vegeta_sparse::{decode_row_ns, FormatSpec, MregImage, NmRatio, TileView, ROW_PATTERN_ROWS};

use crate::inst::{Inst, MACS_PER_TILE_INST};
use crate::mem::Memory;
use crate::regs::{RegFile, TReg, UReg, VReg, MREG_BYTES, MREG_ROW_PATTERN_BYTES, TREG_ROWS};
use crate::IsaError;

/// Dynamic execution statistics, mirroring what the paper's Pintool records
/// into its traces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Executed instructions, total.
    pub instructions: u64,
    /// Executed tile GEMM/SPMM instructions.
    pub tile_compute: u64,
    /// Bytes moved from memory into registers.
    pub bytes_loaded: u64,
    /// Bytes moved from registers into memory.
    pub bytes_stored: u64,
    /// Effectual multiply-accumulates performed (products actually computed
    /// on stored values; zero-skipping is what makes this smaller than the
    /// dense equivalent).
    pub effectual_macs: u64,
}

/// Functional executor over architectural state.
///
/// See the crate-level docs for the data layout conventions and an example.
#[derive(Debug, Clone)]
pub struct Executor {
    regs: RegFile,
    mem: Memory,
    stats: ExecStats,
}

/// Decoded row-pattern codes for `TILE_SPMM_R` (2 bits per row).
///
/// `00` marks the end of the tile; `01`/`10`/`11` select 1:4 / 2:4 / 4:4 for
/// the row, in line with "N:4 sparsity for each row ... stored as extra
/// metadata" (§IV-B). Delegates to [`vegeta_sparse::decode_row_ns`], the
/// canonical sidecar codec.
pub(crate) fn decode_row_patterns(rp: &[u8]) -> Vec<u8> {
    let mut ns = [0u8; ROW_PATTERN_ROWS];
    let rows = decode_row_ns(rp, &mut ns);
    ns[..rows].to_vec()
}

/// Encodes per-row `N` values (1, 2 or 4) into the 8 B row-pattern field
/// (the sidecar bytes of an [`MregImage`]).
///
/// # Panics
///
/// Panics if more than 32 rows are given or any `N` is not 1, 2 or 4.
pub fn encode_row_patterns(ns: &[u8]) -> [u8; MREG_ROW_PATTERN_BYTES] {
    let mut img = MregImage::new();
    img.set_row_ns(ns);
    let mut out = [0u8; MREG_ROW_PATTERN_BYTES];
    out.copy_from_slice(img.row_patterns());
    out
}

/// Reads a packed little-endian FP32 register slice into a stack buffer.
#[inline]
fn read_f32s(bytes: &[u8], out: &mut [f32]) {
    for (i, o) in out.iter_mut().enumerate() {
        let off = i * 4;
        *o = f32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]]);
    }
}

/// Writes a stack FP32 buffer back into register bytes.
#[inline]
fn write_f32s(bytes: &mut [u8], vals: &[f32]) {
    for (i, v) in vals.iter().enumerate() {
        bytes[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
    }
}

/// Decodes a transposed dense `B` operand (`16 × cols` BF16, row-major)
/// into an FP32 table indexed `[col × 16 + j]`, so the j-innermost
/// accumulation loops below read 16 contiguous lanes per stored `A` value.
///
/// BF16→FP32 conversion is exact, so hoisting it out of the MAC loops
/// cannot change a single bit of the result.
#[inline]
fn decode_bt(bt: &TileView<'_>, cols: usize, out: &mut [f32]) {
    for j in 0..16 {
        for k in 0..cols {
            out[k * 16 + j] = bt.at(j, k).to_f32();
        }
    }
}

/// `acc[j] += a * b[j]` across one 16-wide output row.
///
/// Every lane is an independent multiply followed by an add (exactly
/// [`vegeta_num::mac_bf16`] on predecoded FP32 — never a fused `mul_add`,
/// which would round differently), so the autovectorizer may evaluate the
/// lanes in parallel without changing a bit.
#[inline]
fn axpy_row16(acc: &mut [f32; 16], a: f32, b: &[f32; 16]) {
    for (c, &bv) in acc.iter_mut().zip(b.iter()) {
        *c += a * bv;
    }
}

/// Borrows output row `r` of a flat FP32 accumulator as a fixed 16-lane
/// array.
#[inline]
fn c_row(c: &mut [f32], r: usize) -> &mut [f32; 16] {
    (&mut c[r * 16..r * 16 + 16]).try_into().expect("16 lanes")
}

/// Borrows decoded-`B` column `col` (all 16 `j` lanes) of a
/// [`decode_bt`] table.
#[inline]
fn b_col(b_kj: &[f32], col: usize) -> &[f32; 16] {
    b_kj[col * 16..col * 16 + 16].try_into().expect("16 lanes")
}

impl Executor {
    /// Creates an executor with zeroed registers over the given memory.
    pub fn new(mem: Memory) -> Self {
        Executor {
            regs: RegFile::new(),
            mem,
            stats: ExecStats::default(),
        }
    }

    /// The architectural register file.
    pub fn regs(&self) -> &RegFile {
        &self.regs
    }

    /// Mutable access to the register file (test setup convenience; real
    /// programs go through loads).
    pub fn regs_mut(&mut self) -> &mut RegFile {
        &mut self.regs
    }

    /// The memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable access to the memory.
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Executes a sequence of instructions, stopping at the first error.
    ///
    /// # Errors
    ///
    /// Propagates the first [`IsaError`] raised by [`Executor::execute`].
    pub fn run(&mut self, insts: &[Inst]) -> Result<(), IsaError> {
        insts.iter().try_for_each(|&i| self.execute(i))
    }

    /// Executes the tile instructions of a streamed trace chunk-wise,
    /// skipping the scalar/vector bookkeeping ops (which have no
    /// architectural tile semantics). The stream is never materialized, so
    /// full-scale kernels replay functionally in bounded memory.
    ///
    /// Returns the number of tile instructions executed.
    ///
    /// # Errors
    ///
    /// Propagates the first [`IsaError`] raised by [`Executor::execute`].
    pub fn run_stream<S: crate::stream::InstStream>(
        &mut self,
        mut stream: S,
    ) -> Result<u64, IsaError> {
        let mut executed = 0u64;
        while let Some(op) = stream.next_op() {
            if let crate::trace::TraceOp::Tile(inst) = op {
                self.execute(inst)?;
                executed += 1;
            }
        }
        Ok(executed)
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// * [`IsaError::MemoryOutOfBounds`] for loads/stores outside memory.
    /// * [`IsaError::InvalidOperands`] if `TILE_SPMM_R` metadata describes
    ///   more than 32 rows or more stored values than a treg holds.
    pub fn execute(&mut self, inst: Inst) -> Result<(), IsaError> {
        match inst {
            Inst::TileLoadT { dst, addr } => {
                let bytes = self.mem.read_bytes(addr, crate::regs::TREG_BYTES)?;
                self.regs.treg_mut(dst).copy_from_slice(bytes);
                self.stats.bytes_loaded += crate::regs::TREG_BYTES as u64;
            }
            Inst::TileLoadU { dst, addr } => {
                let bytes = self.mem.read_bytes(addr, crate::regs::UREG_BYTES)?;
                self.regs.ureg_mut(dst).copy_from_slice(bytes);
                self.stats.bytes_loaded += crate::regs::UREG_BYTES as u64;
            }
            Inst::TileLoadV { dst, addr } => {
                let bytes = self.mem.read_bytes(addr, crate::regs::VREG_BYTES)?;
                self.regs.vreg_mut(dst).copy_from_slice(bytes);
                self.stats.bytes_loaded += crate::regs::VREG_BYTES as u64;
            }
            Inst::TileLoadM { dst, addr } => {
                let bytes = self.mem.read_bytes(addr, MREG_BYTES)?;
                self.regs.mreg_mut(dst).copy_from_slice(bytes);
                self.stats.bytes_loaded += MREG_BYTES as u64;
            }
            Inst::TileLoadRp { dst, addr } => {
                let bytes = self.mem.read_bytes(addr, MREG_ROW_PATTERN_BYTES)?;
                self.regs.row_patterns_mut(dst).copy_from_slice(bytes);
                self.stats.bytes_loaded += MREG_ROW_PATTERN_BYTES as u64;
            }
            Inst::TileStoreT { addr, src } => {
                self.mem.write_bytes(addr, self.regs.treg(src))?;
                self.stats.bytes_stored += crate::regs::TREG_BYTES as u64;
            }
            Inst::TileZero { dst } => {
                self.regs.treg_mut(dst).fill(0);
            }
            Inst::TileGemm { acc, a, b } => self.exec_gemm(acc, a, b),
            Inst::TileSpmmU { acc, a, b } => self.exec_spmm_u(acc, a, b),
            Inst::TileSpmmV { acc, a, b } => self.exec_spmm_v(acc, a, b),
            Inst::TileSpmmR { acc, a, b } => self.exec_spmm_r(acc, a, b)?,
        }
        self.stats.instructions += 1;
        if inst.is_compute() {
            self.stats.tile_compute += 1;
        }
        Ok(())
    }

    /// `C (16×16) += A (16×32) × B (32×16)`, `B` held transposed.
    fn exec_gemm(&mut self, acc: TReg, a: TReg, b: TReg) {
        let mut c = [0.0f32; 256];
        read_f32s(self.regs.treg(acc), &mut c);
        {
            let av = TileView::dense(self.regs.treg(a), TREG_ROWS, 32);
            let bt = TileView::dense(self.regs.treg(b), TREG_ROWS, 32);
            // Batched row-blocked path: decode both operands to FP32 once
            // (instead of once per use), then run k-outer / j-inner so each
            // stored A value broadcasts across 16 contiguous output lanes.
            // Per (i, j) element the k-accumulation order is unchanged, so
            // the result is bit-identical to the naive triple loop.
            let mut a_f = [0.0f32; 512];
            for (k, slot) in a_f.iter_mut().enumerate() {
                *slot = av.value(k).to_f32();
            }
            let mut b_kj = [0.0f32; 512];
            decode_bt(&bt, 32, &mut b_kj);
            for i in 0..16 {
                let row = c_row(&mut c, i);
                for k in 0..32 {
                    axpy_row16(row, a_f[i * 32 + k], b_col(&b_kj, k));
                }
            }
        }
        write_f32s(self.regs.treg_mut(acc), &c);
        self.stats.effectual_macs += MACS_PER_TILE_INST as u64;
    }

    /// `C (16×16) += A (16×64 effective, 2:4) × B (64×16)`.
    fn exec_spmm_u(&mut self, acc: TReg, a: TReg, b: UReg) {
        let mut c = [0.0f32; 256];
        read_f32s(self.regs.treg(acc), &mut c);
        {
            let av = TileView::new(
                FormatSpec::Nm(NmRatio::S2_4),
                TREG_ROWS,
                64,
                self.regs.treg(a),
                self.regs.mreg(a.paired_mreg()),
                &[],
            )
            .expect("architectural treg/mreg always fit the 2:4 view");
            let bt = TileView::dense(self.regs.ureg(b), TREG_ROWS, 64);
            // Batched path: decode every stored value and its B column once
            // (16 blocks of 4, 2 stored values per block, so stored index k
            // maps to column (k%32 / 2) * 4 + position), then broadcast each
            // A value across the 16 output lanes. Per-element accumulation
            // order over k is unchanged — bit-identical to the naive loop.
            let mut a_f = [0.0f32; 512];
            let mut col = [0usize; 512];
            for k in 0..512 {
                a_f[k] = av.value(k).to_f32();
                col[k] = (k % 32 / 2) * 4 + av.position(k);
            }
            let mut b_kj = [0.0f32; 1024];
            decode_bt(&bt, 64, &mut b_kj);
            for i in 0..16 {
                let row = c_row(&mut c, i);
                for local in 0..32 {
                    let k = i * 32 + local;
                    axpy_row16(row, a_f[k], b_col(&b_kj, col[k]));
                }
            }
        }
        write_f32s(self.regs.treg_mut(acc), &c);
        self.stats.effectual_macs += MACS_PER_TILE_INST as u64;
    }

    /// `C (16×16) += A (16×128 effective, 1:4) × B (128×16)`.
    fn exec_spmm_v(&mut self, acc: TReg, a: TReg, b: VReg) {
        let mut c = [0.0f32; 256];
        read_f32s(self.regs.treg(acc), &mut c);
        {
            let av = TileView::new(
                FormatSpec::Nm(NmRatio::S1_4),
                TREG_ROWS,
                128,
                self.regs.treg(a),
                self.regs.mreg(a.paired_mreg()),
                &[],
            )
            .expect("architectural treg/mreg always fit the 1:4 view");
            let bt = TileView::dense(self.regs.vreg(b), TREG_ROWS, 128);
            // Batched path (32 blocks of 4, 1 stored value per block:
            // column = (k%32) * 4 + position); see `exec_spmm_u`.
            let mut a_f = [0.0f32; 512];
            let mut col = [0usize; 512];
            for k in 0..512 {
                a_f[k] = av.value(k).to_f32();
                col[k] = (k % 32) * 4 + av.position(k);
            }
            let mut b_kj = [0.0f32; 2048];
            decode_bt(&bt, 128, &mut b_kj);
            for i in 0..16 {
                let row = c_row(&mut c, i);
                for local in 0..32 {
                    let k = i * 32 + local;
                    axpy_row16(row, a_f[k], b_col(&b_kj, col[k]));
                }
            }
        }
        write_f32s(self.regs.treg_mut(acc), &c);
        self.stats.effectual_macs += MACS_PER_TILE_INST as u64;
    }

    /// `C (R×16) += A (R×64 effective, row-wise N:4) × B (64×16)`.
    fn exec_spmm_r(&mut self, acc: UReg, a: TReg, b: UReg) -> Result<(), IsaError> {
        let mreg = a.paired_mreg();
        let mut ns = [0u8; ROW_PATTERN_ROWS];
        let rows = decode_row_ns(self.regs.row_patterns(mreg), &mut ns);
        let total_values: usize = ns[..rows].iter().map(|&n| n as usize * 16).sum();
        if total_values > 512 {
            return Err(IsaError::InvalidOperands {
                reason: format!(
                    "row-wise tile stores {total_values} values, more than a treg's 512"
                ),
            });
        }
        let mut c = [0.0f32; 512];
        read_f32s(self.regs.ureg(acc), &mut c);
        {
            let av = TileView::new(
                FormatSpec::RowWise { m: 4 },
                rows,
                64,
                self.regs.treg(a),
                self.regs.mreg(mreg),
                self.regs.row_patterns(mreg),
            )
            .expect("in-budget row-wise registers always view");
            let bt = TileView::dense(self.regs.ureg(b), TREG_ROWS, 64);
            // Batched path: each row has its own N (16 blocks of 4, N
            // stored values per block, column = (offset/N) * 4 + position);
            // within a row the stored-value order already ascends k, so
            // broadcasting across the 16 output lanes preserves the
            // per-element accumulation order exactly.
            let mut b_kj = [0.0f32; 1024];
            decode_bt(&bt, 64, &mut b_kj);
            let mut cursor = 0usize;
            for r in 0..rows {
                let n = av.row_n(r);
                let row = c_row(&mut c, r);
                for off in 0..16 * n {
                    let k = cursor + off;
                    let col = (off / n) * 4 + av.position(k);
                    axpy_row16(row, av.value(k).to_f32(), b_col(&b_kj, col));
                }
                cursor += 16 * n;
            }
        }
        write_f32s(self.regs.ureg_mut(acc), &c);
        self.stats.effectual_macs += (total_values * 16) as u64;
        Ok(())
    }
}

/// Convenience: the `N` value of each row a `TILE_SPMM_R` would process for
/// the given row-pattern field bytes.
pub fn row_patterns_of(field: &[u8]) -> Vec<u8> {
    decode_row_patterns(field)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vegeta_num::{gemm_bf16_ref, Bf16, Matrix};
    use vegeta_sparse::{CompressedTile, RowWiseTile, TileFormat, TregImage};

    fn int_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<Bf16> {
        // Small integers are exact in BF16 and their dot products are exact
        // in FP32, so reference and executor must agree bit-for-bit.
        Matrix::from_fn(rows, cols, |r, c| {
            let h = (r as u64)
                .wrapping_mul(31)
                .wrapping_add(c as u64)
                .wrapping_mul(seed | 1)
                .wrapping_add(seed >> 3);
            Bf16::from_f32(((h % 15) as f32) - 7.0)
        })
    }

    fn sparse_int_matrix(rows: usize, cols: usize, ratio: NmRatio, seed: u64) -> Matrix<Bf16> {
        let dense = int_matrix(rows, cols, seed);
        vegeta_sparse::prune::magnitude_prune_nm(&dense, ratio)
    }

    #[test]
    fn gemm_matches_reference() {
        let a = int_matrix(16, 32, 5);
        let bt = int_matrix(16, 32, 9);
        let b = bt.transposed();
        let mut expected = Matrix::zeros(16, 16);
        gemm_bf16_ref(&a, &b, &mut expected);

        let mut exec = Executor::new(Memory::new(1 << 16));
        exec.regs_mut().set_treg_bf16(TReg::T0, &a);
        exec.regs_mut().set_treg_bf16(TReg::T1, &bt);
        exec.execute(Inst::TileGemm {
            acc: TReg::T2,
            a: TReg::T0,
            b: TReg::T1,
        })
        .unwrap();
        assert_eq!(exec.regs().treg_as_f32(TReg::T2), expected);
        assert_eq!(exec.stats().effectual_macs, 8192);
    }

    #[test]
    fn gemm_accumulates_over_multiple_instructions() {
        let a = int_matrix(16, 32, 11);
        let bt = int_matrix(16, 32, 13);
        let b = bt.transposed();
        let mut expected = Matrix::zeros(16, 16);
        gemm_bf16_ref(&a, &b, &mut expected);
        gemm_bf16_ref(&a, &b, &mut expected);

        let mut exec = Executor::new(Memory::new(1 << 16));
        exec.regs_mut().set_treg_bf16(TReg::T0, &a);
        exec.regs_mut().set_treg_bf16(TReg::T1, &bt);
        let gemm = Inst::TileGemm {
            acc: TReg::T2,
            a: TReg::T0,
            b: TReg::T1,
        };
        exec.run(&[gemm, gemm]).unwrap();
        assert_eq!(exec.regs().treg_as_f32(TReg::T2), expected);
    }

    fn load_compressed(exec: &mut Executor, a: TReg, tile: &CompressedTile) {
        let (mut treg, mut mreg) = (TregImage::new(), MregImage::new());
        tile.pack_into(&mut treg, &mut mreg).unwrap();
        exec.regs_mut().set_treg_image(a, &treg);
        exec.regs_mut().set_mreg_image(a.paired_mreg(), &mreg);
    }

    #[test]
    fn spmm_u_matches_dense_reference() {
        let a_eff = sparse_int_matrix(16, 64, NmRatio::S2_4, 21);
        let tile = CompressedTile::compress(&a_eff, NmRatio::S2_4).unwrap();
        let bt = int_matrix(16, 64, 23);
        let b = bt.transposed();
        let mut expected = Matrix::zeros(16, 16);
        gemm_bf16_ref(&a_eff, &b, &mut expected);

        let mut exec = Executor::new(Memory::new(1 << 16));
        load_compressed(&mut exec, TReg::T3, &tile);
        exec.regs_mut().set_ureg_bf16(UReg::U0, &bt);
        exec.execute(Inst::TileSpmmU {
            acc: TReg::T2,
            a: TReg::T3,
            b: UReg::U0,
        })
        .unwrap();
        assert_eq!(exec.regs().treg_as_f32(TReg::T2), expected);
    }

    #[test]
    fn spmm_v_matches_dense_reference() {
        let a_eff = sparse_int_matrix(16, 128, NmRatio::S1_4, 31);
        let tile = CompressedTile::compress(&a_eff, NmRatio::S1_4).unwrap();
        let bt = int_matrix(16, 128, 33);
        let b = bt.transposed();
        let mut expected = Matrix::zeros(16, 16);
        gemm_bf16_ref(&a_eff, &b, &mut expected);

        // v0 aliases t0-t3, so A and the accumulator must live in t4-t7.
        let mut exec = Executor::new(Memory::new(1 << 16));
        load_compressed(&mut exec, TReg::T4, &tile);
        exec.regs_mut().set_vreg_bf16(VReg::V0, &bt);
        exec.execute(Inst::TileSpmmV {
            acc: TReg::T5,
            a: TReg::T4,
            b: VReg::V0,
        })
        .unwrap();
        assert_eq!(exec.regs().treg_as_f32(TReg::T5), expected);
    }

    fn load_row_wise(exec: &mut Executor, a: TReg, tile: &RowWiseTile) {
        let (mut treg, mut mreg) = (TregImage::new(), MregImage::new());
        tile.pack_into(&mut treg, &mut mreg).unwrap();
        exec.regs_mut().set_treg_image(a, &treg);
        exec.regs_mut().set_mreg_image(a.paired_mreg(), &mreg);
    }

    #[test]
    fn spmm_r_matches_dense_reference() {
        // Mixed-sparsity rows: 4 at 4:4, 4 at 2:4, 8 at 1:4 => stored
        // values 4*64 + 4*32 + 8*16 = 512, R = 16.
        let mut rows = Vec::new();
        for r in 0..16usize {
            let ratio = match r {
                0..=3 => NmRatio::D4_4,
                4..=7 => NmRatio::S2_4,
                _ => NmRatio::S1_4,
            };
            rows.push(sparse_int_matrix(1, 64, ratio, 41 + r as u64));
        }
        let a_eff = Matrix::from_fn(16, 64, |r, c| rows[r][(0, c)]);
        let tile = RowWiseTile::compress(&a_eff, 4).unwrap();
        assert_eq!(tile.stored_len(), 512);
        let bt = int_matrix(16, 64, 53);
        let b = bt.transposed();
        let mut expected = Matrix::zeros(16, 16);
        gemm_bf16_ref(&a_eff, &b, &mut expected);

        // u0 aliases t0-t1 and u1 aliases t2-t3, so A lives in t4.
        let mut exec = Executor::new(Memory::new(1 << 16));
        load_row_wise(&mut exec, TReg::T4, &tile);
        exec.regs_mut().set_ureg_bf16(UReg::U0, &bt);
        exec.execute(Inst::TileSpmmR {
            acc: UReg::U1,
            a: TReg::T4,
            b: UReg::U0,
        })
        .unwrap();
        let c = exec.regs().ureg_as_f32(UReg::U1);
        for i in 0..16 {
            for j in 0..16 {
                assert_eq!(c[(i, j)], expected[(i, j)], "mismatch at ({i},{j})");
            }
        }
        // Rows beyond R are untouched.
        for i in 16..32 {
            for j in 0..16 {
                assert_eq!(c[(i, j)], 0.0);
            }
        }
        assert_eq!(exec.stats().effectual_macs, 8192);
    }

    fn messy_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<Bf16> {
        // Values with busy mantissas so FP32 addition is NOT associative
        // over them: any change to the accumulation order shows up in the
        // bit patterns below.
        Matrix::from_fn(rows, cols, |r, c| {
            let h = (r as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(c as u64)
                .wrapping_mul(seed | 1);
            Bf16::from_f32(((h % 8191) as f32 / 2048.0) - 2.0)
        })
    }

    fn assert_bits_eq(got: &Matrix<f32>, want: &[f32], rows: usize) {
        for i in 0..rows {
            for j in 0..16 {
                assert_eq!(
                    got[(i, j)].to_bits(),
                    want[i * 16 + j].to_bits(),
                    "bitwise mismatch at ({i},{j}): {} vs {}",
                    got[(i, j)],
                    want[i * 16 + j]
                );
            }
        }
    }

    #[test]
    fn gemm_batched_path_is_bit_identical_to_the_mac_loop() {
        use vegeta_num::mac_bf16;
        let a = messy_matrix(16, 32, 61);
        let bt = messy_matrix(16, 32, 67);
        let acc0 = Matrix::from_fn(16, 16, |r, c| ((r * 16 + c) as f32) * 0.321 - 40.0);
        let mut exec = Executor::new(Memory::new(4096));
        exec.regs_mut().set_treg_bf16(TReg::T0, &a);
        exec.regs_mut().set_treg_bf16(TReg::T1, &bt);
        exec.regs_mut().set_treg_f32(TReg::T2, &acc0);
        // The pre-batching reference: per-(i,j) mac_bf16 chain, ascending k.
        let mut want = [0.0f32; 256];
        read_f32s(exec.regs().treg(TReg::T2), &mut want);
        for i in 0..16 {
            for j in 0..16 {
                let mut s = want[i * 16 + j];
                for k in 0..32 {
                    s = mac_bf16(s, a[(i, k)], bt[(j, k)]);
                }
                want[i * 16 + j] = s;
            }
        }
        exec.execute(Inst::TileGemm {
            acc: TReg::T2,
            a: TReg::T0,
            b: TReg::T1,
        })
        .unwrap();
        assert_bits_eq(&exec.regs().treg_as_f32(TReg::T2), &want, 16);
    }

    #[test]
    fn spmm_batched_paths_are_bit_identical_to_the_mac_loops() {
        use vegeta_num::mac_bf16;
        // 2:4 via ureg B.
        let a_eff =
            vegeta_sparse::prune::magnitude_prune_nm(&messy_matrix(16, 64, 71), NmRatio::S2_4);
        let tile = CompressedTile::compress(&a_eff, NmRatio::S2_4).unwrap();
        let bt = messy_matrix(16, 64, 73);
        let acc0 = Matrix::from_fn(16, 16, |r, c| ((r as f32) - (c as f32)) * 1.173);
        let mut exec = Executor::new(Memory::new(4096));
        load_compressed(&mut exec, TReg::T3, &tile);
        exec.regs_mut().set_ureg_bf16(UReg::U0, &bt);
        exec.regs_mut().set_treg_f32(TReg::T4, &acc0);
        let mut want = [0.0f32; 256];
        read_f32s(exec.regs().treg(TReg::T4), &mut want);
        {
            let av = TileView::new(
                FormatSpec::Nm(NmRatio::S2_4),
                TREG_ROWS,
                64,
                exec.regs().treg(TReg::T3),
                exec.regs().mreg(TReg::T3.paired_mreg()),
                &[],
            )
            .unwrap();
            for i in 0..16 {
                for j in 0..16 {
                    let mut s = want[i * 16 + j];
                    for blk in 0..16 {
                        for slot in 0..2 {
                            let k = i * 32 + blk * 2 + slot;
                            let pos = av.position(k);
                            s = mac_bf16(s, av.value(k), bt[(j, blk * 4 + pos)]);
                        }
                    }
                    want[i * 16 + j] = s;
                }
            }
        }
        exec.execute(Inst::TileSpmmU {
            acc: TReg::T4,
            a: TReg::T3,
            b: UReg::U0,
        })
        .unwrap();
        assert_bits_eq(&exec.regs().treg_as_f32(TReg::T4), &want, 16);

        // Row-wise mixed N via TILE_SPMM_R (zeroed accumulator).
        let mut rows = Vec::new();
        for r in 0..16usize {
            let ratio = match r % 3 {
                0 => NmRatio::S1_4,
                1 => NmRatio::S2_4,
                _ => NmRatio::S1_4,
            };
            rows.push(vegeta_sparse::prune::magnitude_prune_nm(
                &messy_matrix(1, 64, 80 + r as u64),
                ratio,
            ));
        }
        let a_rw = Matrix::from_fn(16, 64, |r, c| rows[r][(0, c)]);
        let rw = RowWiseTile::compress(&a_rw, 4).unwrap();
        let mut exec = Executor::new(Memory::new(4096));
        load_row_wise(&mut exec, TReg::T4, &rw);
        exec.regs_mut().set_ureg_bf16(UReg::U0, &bt);
        let mut want = [0.0f32; 512];
        {
            let mreg = TReg::T4.paired_mreg();
            let mut ns = [0u8; ROW_PATTERN_ROWS];
            let nrows = decode_row_ns(exec.regs().row_patterns(mreg), &mut ns);
            let av = TileView::new(
                FormatSpec::RowWise { m: 4 },
                nrows,
                64,
                exec.regs().treg(TReg::T4),
                exec.regs().mreg(mreg),
                exec.regs().row_patterns(mreg),
            )
            .unwrap();
            let mut cursor = 0usize;
            for r in 0..nrows {
                let n = av.row_n(r);
                for j in 0..16 {
                    let mut s = want[r * 16 + j];
                    for blk in 0..16 {
                        for slot in 0..n {
                            let k = cursor + blk * n + slot;
                            let pos = av.position(k);
                            s = mac_bf16(s, av.value(k), bt[(j, blk * 4 + pos)]);
                        }
                    }
                    want[r * 16 + j] = s;
                }
                cursor += 16 * n;
            }
        }
        exec.execute(Inst::TileSpmmR {
            acc: UReg::U1,
            a: TReg::T4,
            b: UReg::U0,
        })
        .unwrap();
        let got = exec.regs().ureg_as_f32(UReg::U1);
        for i in 0..16 {
            for j in 0..16 {
                assert_eq!(got[(i, j)].to_bits(), want[i * 16 + j].to_bits());
            }
        }
    }

    #[test]
    fn row_pattern_roundtrip() {
        let ns = vec![4, 4, 2, 2, 1, 1, 1, 1, 2, 4];
        let field = encode_row_patterns(&ns);
        assert_eq!(decode_row_patterns(&field), ns);
    }

    #[test]
    fn row_pattern_all_32_rows() {
        let ns = vec![1u8; 32];
        let field = encode_row_patterns(&ns);
        assert_eq!(decode_row_patterns(&field).len(), 32);
    }

    #[test]
    fn load_store_roundtrip_through_memory() {
        let mut exec = Executor::new(Memory::new(1 << 16));
        let tile = int_matrix(16, 32, 3);
        exec.mem_mut().write_bf16_matrix(0x400, &tile).unwrap();
        exec.execute(Inst::TileLoadT {
            dst: TReg::T5,
            addr: 0x400,
        })
        .unwrap();
        exec.execute(Inst::TileStoreT {
            addr: 0x2000,
            src: TReg::T5,
        })
        .unwrap();
        assert_eq!(exec.mem().read_bf16_matrix(0x2000, 16, 32).unwrap(), tile);
        assert_eq!(exec.stats().bytes_loaded, 1024);
        assert_eq!(exec.stats().bytes_stored, 1024);
    }

    #[test]
    fn tile_zero_clears_accumulator() {
        let mut exec = Executor::new(Memory::new(4096));
        exec.regs_mut()
            .set_treg_f32(TReg::T2, &Matrix::from_fn(16, 16, |_, _| 3.5));
        exec.execute(Inst::TileZero { dst: TReg::T2 }).unwrap();
        assert!(exec.regs().treg_as_f32(TReg::T2).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn oob_load_is_reported() {
        let mut exec = Executor::new(Memory::new(512));
        let err = exec
            .execute(Inst::TileLoadT {
                dst: TReg::T0,
                addr: 0,
            })
            .unwrap_err();
        assert!(matches!(err, IsaError::MemoryOutOfBounds { .. }));
    }
}

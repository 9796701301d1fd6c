//! Address-plan bounds and alias analysis.
//!
//! Every kernel family's address plan is affine and declared up front as a
//! [`Footprint`] ([`vegeta_kernels::KernelEmitter::footprint`]). This pass
//! walks a stream's memory accesses and checks each one is fully contained
//! in a declared region ([`DiagCode::OutOfBounds`] otherwise), that stores
//! only hit writable regions ([`DiagCode::StoreToReadOnly`]), and that
//! tile-engine accesses are 64 B line-aligned ([`DiagCode::Misaligned`] —
//! tile loads/stores move whole cache lines, §V-F).
//!
//! As a side product the pass collects the [`AccessSummary`] the set-level
//! checks need: the cache lines each shard's tile stores write (concurrent
//! shards must not overlap) and the partial-`C` lines a reduction stream
//! reads (which must match the K-split shards' partial writes exactly).
//! Both are kept as runs of consecutive lines, so a stream's summary grows
//! with its number of discontiguous accesses, not with the lines it moves.
//!
//! Vector stores are deliberately excluded from the write-set summary: the
//! vector family's 4×16 microkernel blocking issues whole 64 B accesses
//! over ragged row tails, so adjacent shards legitimately touch the same
//! padded lines there.

use std::ops::Range;

use vegeta_isa::footprint::{AccessVerdict, Footprint, RegionClass};
use vegeta_isa::trace::TraceOp;
use vegeta_isa::CACHE_LINE_BYTES;

use crate::diag::{DiagCode, Diagnostic};

/// What a stream's memory traffic looked like, for set-level checks.
///
/// Lines are 64 B line numbers (`addr / 64`). Each field is a list of
/// half-open runs of lines in stream order: an access that continues the
/// previous run (same region class, starting where it ends or inside it)
/// extends that run instead of adding one. Runs are not sorted and may
/// still overlap each other.
#[derive(Debug, Clone, Default)]
pub struct AccessSummary {
    /// Runs of lines written by tile stores, each with the region class
    /// it hit.
    pub store_lines: Vec<(Range<u64>, RegionClass)>,
    /// Runs of lines read from partial-`C` regions (the reduction's
    /// inputs).
    pub partial_read_lines: Vec<Range<u64>>,
}

impl AccessSummary {
    /// The lines of [`AccessSummary::store_lines`] that hit partial-`C`
    /// regions, as sorted, disjoint, non-adjacent runs.
    pub fn partial_store_lines(&self) -> Vec<Range<u64>> {
        normalize_runs(
            self.store_lines
                .iter()
                .filter(|(_, class)| *class == RegionClass::PartialC)
                .map(|(run, _)| run.clone()),
        )
    }
}

/// The canonical form of a set of line runs: sorted, with overlapping and
/// adjacent runs merged, so two run lists cover the same lines exactly
/// when their normalized forms are equal.
pub(crate) fn normalize_runs(runs: impl IntoIterator<Item = Range<u64>>) -> Vec<Range<u64>> {
    let mut runs: Vec<Range<u64>> = runs.into_iter().filter(|r| !r.is_empty()).collect();
    runs.sort_unstable_by_key(|r| r.start);
    let mut merged: Vec<Range<u64>> = Vec::with_capacity(runs.len());
    for run in runs {
        match merged.last_mut() {
            Some(last) if run.start <= last.end => last.end = last.end.max(run.end),
            _ => merged.push(run),
        }
    }
    merged
}

/// Extends `last` to cover `lines` when `lines` starts inside it or right
/// at its end; returns whether it did.
fn extend_run(last: &mut Range<u64>, lines: &Range<u64>) -> bool {
    let continues = last.start <= lines.start && lines.start <= last.end;
    if continues {
        last.end = last.end.max(lines.end);
    }
    continues
}

/// Streaming bounds/alias analysis: feed ops in order, take the summary.
#[derive(Debug)]
pub struct BoundsPass<'a> {
    fp: &'a Footprint,
    diags: Vec<Diagnostic>,
    summary: AccessSummary,
    idx: u64,
}

impl<'a> BoundsPass<'a> {
    /// A fresh pass against the declared footprint `fp`.
    pub fn new(fp: &'a Footprint) -> Self {
        BoundsPass {
            fp,
            diags: Vec::new(),
            summary: AccessSummary::default(),
            idx: 0,
        }
    }

    /// Processes the next op of the stream.
    pub fn op(&mut self, op: &TraceOp) {
        let line = CACHE_LINE_BYTES as u64;
        if let Some((addr, bytes, is_store)) = op.mem_access() {
            let is_tile = matches!(op, TraceOp::Tile(_));
            if is_tile && addr % line != 0 {
                self.diags.push(
                    Diagnostic::new(
                        DiagCode::Misaligned,
                        format!("tile-engine access at {addr:#x} is not 64 B aligned"),
                    )
                    .at_op(self.idx),
                );
            }
            match self.fp.classify(addr, bytes as u64, is_store) {
                AccessVerdict::Ok(class) => {
                    let lines = (addr / line)..(addr / line + (bytes as u64).div_ceil(line));
                    if is_store && is_tile {
                        let runs = &mut self.summary.store_lines;
                        if !runs
                            .last_mut()
                            .is_some_and(|(last, c)| *c == class && extend_run(last, &lines))
                        {
                            runs.push((lines, class));
                        }
                    } else if !is_store && class == RegionClass::PartialC {
                        let runs = &mut self.summary.partial_read_lines;
                        if !runs.last_mut().is_some_and(|last| extend_run(last, &lines)) {
                            runs.push(lines);
                        }
                    }
                }
                AccessVerdict::ReadOnly(class) => self.diags.push(
                    Diagnostic::new(
                        DiagCode::StoreToReadOnly,
                        format!("store of {bytes} B at {addr:#x} hits read-only {class} region"),
                    )
                    .at_op(self.idx),
                ),
                AccessVerdict::Unmapped => self.diags.push(
                    Diagnostic::new(
                        DiagCode::OutOfBounds,
                        format!(
                            "{} of {bytes} B at {addr:#x} outside every declared region \
                             (plan ends at {:#x})",
                            if is_store { "store" } else { "load" },
                            self.fp.end()
                        ),
                    )
                    .at_op(self.idx),
                ),
            }
        }
        self.idx += 1;
    }

    /// Ends the stream, yielding the findings and the traffic summary.
    pub fn finish(self) -> (Vec<Diagnostic>, AccessSummary) {
        (self.diags, self.summary)
    }

    /// Diagnostics found so far.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }
}

/// Runs the bounds pass over a complete op sequence.
pub fn check_bounds(ops: &[TraceOp], fp: &Footprint) -> (Vec<Diagnostic>, AccessSummary) {
    let mut pass = BoundsPass::new(fp);
    for op in ops {
        pass.op(op);
    }
    pass.finish()
}

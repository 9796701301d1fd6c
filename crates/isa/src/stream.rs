//! Streaming instruction delivery: dynamic traces without materialization.
//!
//! The paper replays *network-scale* traces (§VI's Table IV layers run end
//! to end), which makes "build a `Vec` of every dynamic instruction"
//! untenable: a full-size GPT-3 layer is tens of millions of ops. This
//! module defines the streaming pipeline that replaces materialized
//! [`Trace`]s on every hot path:
//!
//! * [`InstStream`] — the consumer contract: a pull-based generator of
//!   [`TraceOp`]s in program order with an **exact-length** hook
//!   ([`InstStream::remaining`]) and **byte-accounting** hooks
//!   ([`InstStream::resident_bytes`] / [`InstStream::peak_resident_bytes`])
//!   so schedulers can balance shards and simulators can pin peak
//!   trace-resident memory.
//! * [`TraceStream`] — the adapter that replays an already-materialized
//!   [`Trace`] (its resident footprint is, honestly, the whole trace).
//! * [`BlockEmitter`] + [`ChunkedStream`] — the generator side: a kernel
//!   describes its trace as a sequence of bounded *blocks* (one tile-loop
//!   cell each); `ChunkedStream` re-emits one block at a time into a small
//!   reusable buffer, so peak residency is the largest block, not the
//!   whole trace.
//!
//! `vegeta-kernels` implements [`BlockEmitter`] for every kernel family and
//! `vegeta-sim::CoreSim` consumes any [`InstStream`] chunk-wise;
//! `Executor::run_stream` does the same for functional replay.
//!
//! # Example
//!
//! ```
//! use vegeta_isa::trace::{Trace, TraceOp};
//! use vegeta_isa::stream::InstStream;
//!
//! let mut trace = Trace::new();
//! trace.push(TraceOp::Scalar { dst: 0, src: 0 });
//! trace.push(TraceOp::Branch { cond: 0 });
//! let mut stream = trace.stream();
//! assert_eq!(stream.remaining(), 2);
//! assert!(matches!(stream.next_op(), Some(TraceOp::Scalar { .. })));
//! assert_eq!(stream.remaining(), 1);
//! ```

use crate::trace::{Trace, TraceMix, TraceOp};

/// Bytes one buffered [`TraceOp`] occupies.
pub const TRACE_OP_BYTES: usize = std::mem::size_of::<TraceOp>();

/// A pull-based source of dynamic instructions in program order.
///
/// Implementations must deliver exactly [`InstStream::remaining`] more ops
/// and then return `None` forever; `remaining` is **exact**, not a hint, so
/// consumers can pre-size accounting structures and balance shards without
/// a dry run.
pub trait InstStream {
    /// The next op in program order, or `None` when the stream is drained.
    fn next_op(&mut self) -> Option<TraceOp>;

    /// Exact number of ops not yet returned by [`InstStream::next_op`].
    fn remaining(&self) -> u64;

    /// Bytes of trace data currently resident in the generator (buffered
    /// ops plus generator state) — the quantity streaming keeps bounded.
    fn resident_bytes(&self) -> usize;

    /// High-water mark of [`InstStream::resident_bytes`] over the stream's
    /// lifetime so far.
    fn peak_resident_bytes(&self) -> usize {
        self.resident_bytes()
    }

    /// Drains the stream into a materialized [`Trace`] (the legacy
    /// representation; streaming consumers should prefer `next_op`).
    fn collect_trace(&mut self) -> Trace
    where
        Self: Sized,
    {
        let mut trace = Trace::with_capacity(usize::try_from(self.remaining()).unwrap_or(0));
        while let Some(op) = self.next_op() {
            trace.push(op);
        }
        trace
    }

    /// Drains the stream counting instructions by kind.
    fn collect_mix(&mut self) -> TraceMix
    where
        Self: Sized,
    {
        let mut mix = TraceMix::default();
        while let Some(op) = self.next_op() {
            mix.count(&op);
        }
        mix
    }
}

/// Streams over any boxed/borrowed stream (so `&mut S` works where an
/// `impl InstStream` is expected).
impl<S: InstStream + ?Sized> InstStream for &mut S {
    fn next_op(&mut self) -> Option<TraceOp> {
        (**self).next_op()
    }

    fn remaining(&self) -> u64 {
        (**self).remaining()
    }

    fn resident_bytes(&self) -> usize {
        (**self).resident_bytes()
    }

    fn peak_resident_bytes(&self) -> usize {
        (**self).peak_resident_bytes()
    }
}

/// Replays a materialized op slice as a stream.
///
/// This is the compatibility adapter: its resident footprint is the whole
/// backing trace, which is exactly what the byte-accounting hooks should
/// report for a legacy `Vec`-backed replay.
#[derive(Debug, Clone)]
pub struct TraceStream<'a> {
    ops: &'a [TraceOp],
    pos: usize,
}

impl<'a> TraceStream<'a> {
    /// A stream over `ops` in order.
    pub fn new(ops: &'a [TraceOp]) -> Self {
        TraceStream { ops, pos: 0 }
    }
}

impl InstStream for TraceStream<'_> {
    fn next_op(&mut self) -> Option<TraceOp> {
        let op = self.ops.get(self.pos).copied()?;
        self.pos += 1;
        Some(op)
    }

    fn remaining(&self) -> u64 {
        (self.ops.len() - self.pos) as u64
    }

    fn resident_bytes(&self) -> usize {
        self.ops.len() * TRACE_OP_BYTES
    }
}

/// A trace generator decomposed into bounded blocks.
///
/// A *block* is one cell of a kernel's tile-loop nest (one output-tile
/// group, one packed row group, one vector microkernel invocation, ...):
/// big enough that re-emission is cheap, small enough that buffering one
/// block bounds residency. [`BlockEmitter::block_ops`] must match what
/// [`BlockEmitter::emit_block`] appends **exactly** — `ChunkedStream`
/// derives its exact-length contract from it (and debug-asserts the match).
pub trait BlockEmitter {
    /// Number of blocks in the trace.
    fn blocks(&self) -> usize;

    /// Exact op count of block `block` (< [`BlockEmitter::blocks`]).
    fn block_ops(&self, block: usize) -> u64;

    /// Appends block `block`'s ops to `out` in program order.
    fn emit_block(&self, block: usize, out: &mut Vec<TraceOp>);

    /// Bytes of emitter state held for the stream's lifetime (address plans,
    /// packing tables); buffered ops are accounted separately.
    fn state_bytes(&self) -> usize {
        std::mem::size_of_val(self)
    }
}

/// A 2D block-range view of an emitter whose blocks form a row-major
/// `rows_total × cols_total` grid.
///
/// Kernel emitters lay their blocks out outer-major: block
/// `r * cols_total + c` is outer unit `r`, inner unit `c` (M-tile group ×
/// N-tile column for the tiled families). A `GridSlice` re-exposes the
/// sub-rectangle `rows × cols` of that grid as a dense row-major block
/// range `[0, rows.len() * cols.len())`, so a 2D shard is just a
/// [`ChunkedStream`] over a `GridSlice` — exact-length and byte-accounted
/// like every other block view. The selected inner blocks are *strided*:
/// consecutive slice blocks jump `cols_total` inner blocks at each row
/// boundary, unless the slice spans every column, when they are one
/// contiguous range in program order.
///
/// # Example
///
/// Slicing the middle column of a 3×3 grid selects inner blocks 1, 4, 7:
///
/// ```
/// use vegeta_isa::stream::{BlockEmitter, GridSlice};
/// use vegeta_isa::trace::TraceOp;
///
/// struct Nine;
/// impl BlockEmitter for Nine {
///     fn blocks(&self) -> usize {
///         9
///     }
///     fn block_ops(&self, _block: usize) -> u64 {
///         1
///     }
///     fn emit_block(&self, block: usize, out: &mut Vec<TraceOp>) {
///         out.push(TraceOp::Scalar {
///             dst: block as u8,
///             src: 0,
///         });
///     }
/// }
///
/// let slice = GridSlice::new(Nine, 3, 0..3, 1..2);
/// let picked: Vec<usize> = (0..slice.blocks()).map(|b| slice.inner_block(b)).collect();
/// assert_eq!(picked, vec![1, 4, 7]);
/// ```
#[derive(Debug, Clone)]
pub struct GridSlice<E> {
    inner: E,
    cols_total: usize,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
}

impl<E: BlockEmitter> GridSlice<E> {
    /// A view of grid rows `rows` × grid columns `cols` of `inner`, whose
    /// blocks are laid out row-major with `cols_total` columns per row.
    ///
    /// # Panics
    ///
    /// Panics if the inner block count is not a multiple of `cols_total`,
    /// or if either range exceeds the grid (`cols.end > cols_total`, or
    /// `rows.end` past the inner row count).
    pub fn new(
        inner: E,
        cols_total: usize,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
    ) -> Self {
        assert!(cols_total > 0, "a block grid needs at least one column");
        assert_eq!(
            inner.blocks() % cols_total,
            0,
            "{} blocks do not tile into rows of {cols_total}",
            inner.blocks()
        );
        let rows_total = inner.blocks() / cols_total;
        assert!(
            rows.end <= rows_total && cols.end <= cols_total,
            "grid slice {rows:?}x{cols:?} exceeds {rows_total}x{cols_total} grid"
        );
        GridSlice {
            inner,
            cols_total,
            rows,
            cols,
        }
    }

    /// The wrapped emitter.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// The inner block index slice block `block` maps to.
    pub fn inner_block(&self, block: usize) -> usize {
        debug_assert!(block < self.blocks());
        let width = self.cols.len();
        (self.rows.start + block / width) * self.cols_total + self.cols.start + block % width
    }

    /// The grid-row (outer-unit) range this slice covers.
    pub fn rows(&self) -> std::ops::Range<usize> {
        self.rows.clone()
    }

    /// The grid-column (inner-unit) range this slice covers.
    pub fn cols(&self) -> std::ops::Range<usize> {
        self.cols.clone()
    }

    /// The first inner block this slice exposes (row-major).
    pub fn first_block(&self) -> usize {
        self.rows.start * self.cols_total + self.cols.start
    }
}

impl<E: BlockEmitter> BlockEmitter for GridSlice<E> {
    fn blocks(&self) -> usize {
        self.rows.len() * self.cols.len()
    }

    fn block_ops(&self, block: usize) -> u64 {
        self.inner.block_ops(self.inner_block(block))
    }

    fn emit_block(&self, block: usize, out: &mut Vec<TraceOp>) {
        self.inner.emit_block(self.inner_block(block), out);
    }

    fn state_bytes(&self) -> usize {
        self.inner.state_bytes()
    }
}

/// Partitions `0..units` into `parts` contiguous, near-even ranges (sizes
/// differ by at most one; some ranges are empty when `parts > units`).
/// The canonical split multi-core sharding uses to assign outer loop
/// units to cores.
///
/// # Example
///
/// ```
/// use vegeta_isa::stream::even_ranges;
///
/// assert_eq!(even_ranges(7, 3), vec![0..2, 2..4, 4..7]);
/// assert_eq!(even_ranges(2, 4), vec![0..0, 0..1, 1..1, 1..2]);
/// ```
pub fn even_ranges(units: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1);
    (0..parts)
        .map(|i| (i * units / parts)..((i + 1) * units / parts))
        .collect()
}

/// Streams a [`BlockEmitter`] one block at a time through a reusable buffer.
///
/// Peak residency is `max_block_ops × TRACE_OP_BYTES` plus the emitter's
/// own state — independent of total trace length, which is what lets
/// full-scale Table IV layers replay in bounded memory.
#[derive(Debug, Clone)]
pub struct ChunkedStream<E> {
    emitter: E,
    next_block: usize,
    buf: Vec<TraceOp>,
    pos: usize,
    remaining: u64,
    peak_resident: usize,
}

impl<E: BlockEmitter> ChunkedStream<E> {
    /// Wraps an emitter, computing the exact total length up front.
    pub fn new(emitter: E) -> Self {
        let remaining = (0..emitter.blocks()).map(|b| emitter.block_ops(b)).sum();
        ChunkedStream {
            emitter,
            next_block: 0,
            buf: Vec::new(),
            pos: 0,
            remaining,
            peak_resident: 0,
        }
    }

    /// The largest single-block op count — the stream's chunk size, and the
    /// bound on buffered ops.
    pub fn max_block_ops(&self) -> u64 {
        (0..self.emitter.blocks())
            .map(|b| self.emitter.block_ops(b))
            .max()
            .unwrap_or(0)
    }

    /// The wrapped emitter.
    pub fn emitter(&self) -> &E {
        &self.emitter
    }

    #[cold]
    fn refill(&mut self) -> bool {
        self.buf.clear();
        self.pos = 0;
        while self.buf.is_empty() && self.next_block < self.emitter.blocks() {
            let block = self.next_block;
            self.emitter.emit_block(block, &mut self.buf);
            debug_assert_eq!(
                self.buf.len() as u64,
                self.emitter.block_ops(block),
                "emitter block {block} length disagrees with its declared count"
            );
            self.next_block += 1;
        }
        self.peak_resident = self.peak_resident.max(self.resident_bytes());
        !self.buf.is_empty()
    }
}

impl<E: BlockEmitter> InstStream for ChunkedStream<E> {
    fn next_op(&mut self) -> Option<TraceOp> {
        if self.pos == self.buf.len() && !self.refill() {
            return None;
        }
        let op = self.buf[self.pos];
        self.pos += 1;
        self.remaining -= 1;
        Some(op)
    }

    fn remaining(&self) -> u64 {
        self.remaining
    }

    fn resident_bytes(&self) -> usize {
        self.buf.capacity() * TRACE_OP_BYTES + self.emitter.state_bytes()
    }

    fn peak_resident_bytes(&self) -> usize {
        self.peak_resident.max(self.resident_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;
    use crate::regs::TReg;

    /// `n` blocks of `b + 1` scalar ops each.
    struct Ramp {
        n: usize,
    }

    impl BlockEmitter for Ramp {
        fn blocks(&self) -> usize {
            self.n
        }

        fn block_ops(&self, block: usize) -> u64 {
            block as u64 + 1
        }

        fn emit_block(&self, block: usize, out: &mut Vec<TraceOp>) {
            for i in 0..=block {
                out.push(TraceOp::Scalar {
                    dst: (block % 8) as u8,
                    src: (i % 8) as u8,
                });
            }
        }
    }

    #[test]
    fn trace_stream_replays_in_order_with_exact_length() {
        let mut t = Trace::new();
        t.push_inst(Inst::TileZero { dst: TReg::T0 });
        t.push(TraceOp::Branch { cond: 1 });
        let mut s = t.stream();
        assert_eq!(s.remaining(), 2);
        assert_eq!(s.resident_bytes(), 2 * TRACE_OP_BYTES);
        let replay = s.collect_trace();
        assert_eq!(replay, t);
        assert_eq!(s.remaining(), 0);
        assert_eq!(s.next_op(), None);
    }

    #[test]
    fn chunked_stream_length_and_drain_agree() {
        let mut s = ChunkedStream::new(Ramp { n: 5 });
        assert_eq!(s.remaining(), 1 + 2 + 3 + 4 + 5);
        assert_eq!(s.max_block_ops(), 5);
        let mut count = 0u64;
        while let Some(_op) = s.next_op() {
            count += 1;
        }
        assert_eq!(count, 15);
        assert_eq!(s.remaining(), 0);
        assert_eq!(s.next_op(), None, "drained streams stay drained");
    }

    #[test]
    fn chunked_stream_residency_is_bounded_by_largest_block() {
        let mut s = ChunkedStream::new(Ramp { n: 64 });
        let total_bytes = s.remaining() as usize * TRACE_OP_BYTES;
        while s.next_op().is_some() {}
        let peak = s.peak_resident_bytes();
        assert!(peak > 0);
        assert!(
            peak <= 64 * TRACE_OP_BYTES + s.emitter().state_bytes() + 64 * TRACE_OP_BYTES,
            "peak {peak} must track the largest block, with at most a \
             doubling of slack for Vec growth"
        );
        assert!(
            peak < total_bytes / 8,
            "peak {peak} must be far below materialized size {total_bytes}"
        );
    }

    #[test]
    fn empty_emitter_yields_nothing() {
        let mut s = ChunkedStream::new(Ramp { n: 0 });
        assert_eq!(s.remaining(), 0);
        assert_eq!(s.next_op(), None);
    }

    #[test]
    fn even_ranges_cover_contiguously_with_near_even_sizes() {
        for units in [0usize, 1, 5, 7, 16, 33] {
            for parts in [1usize, 2, 3, 8, 40] {
                let ranges = even_ranges(units, parts);
                assert_eq!(ranges.len(), parts);
                assert_eq!(ranges.first().unwrap().start, 0);
                assert_eq!(ranges.last().unwrap().end, units);
                let sizes: Vec<usize> = ranges.iter().map(ExactSizeIterator::len).collect();
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "contiguous");
                }
                let (min, max) = (
                    sizes.iter().min().copied().unwrap(),
                    sizes.iter().max().copied().unwrap(),
                );
                assert!(max - min <= 1, "near-even: {sizes:?}");
            }
        }
    }

    #[test]
    fn grid_slices_tile_a_stream_losslessly() {
        // A 4x3 grid (12 ramp blocks) cut into 2x2 rectangles must cover
        // every inner block exactly once, whatever the cut.
        let whole = ChunkedStream::new(Ramp { n: 12 }).collect_trace();
        for (row_parts, col_parts) in [(1usize, 1usize), (2, 3), (4, 1), (2, 2), (4, 3)] {
            let mut ops: Vec<TraceOp> = Vec::new();
            let mut total = 0u64;
            for rows in even_ranges(4, row_parts) {
                for cols in even_ranges(3, col_parts) {
                    let mut shard =
                        ChunkedStream::new(GridSlice::new(Ramp { n: 12 }, 3, rows.clone(), cols));
                    total += shard.remaining();
                    ops.extend(shard.collect_trace().ops());
                }
            }
            assert_eq!(total, whole.len() as u64, "{row_parts}x{col_parts}");
            // 2D shards permute block order, so compare as multisets.
            let mut got: Vec<String> = ops.iter().map(|op| format!("{op:?}")).collect();
            let mut want: Vec<String> = whole.ops().iter().map(|op| format!("{op:?}")).collect();
            got.sort();
            want.sort();
            assert_eq!(got, want, "{row_parts}x{col_parts}");
        }
    }

    #[test]
    fn block_slices_partition_a_stream_losslessly() {
        // A one-column grid is a plain block range: slices over a row
        // partition (empty parts included) concatenate back to the whole
        // trace in program order, with exact lengths.
        let whole = ChunkedStream::new(Ramp { n: 9 }).collect_trace();
        for parts in [1usize, 2, 3, 4, 9, 12] {
            let mut rejoined = Trace::new();
            let mut total = 0u64;
            for rows in even_ranges(9, parts) {
                let mut shard = ChunkedStream::new(GridSlice::new(Ramp { n: 9 }, 1, rows, 0..1));
                total += shard.remaining();
                for op in shard.collect_trace().ops() {
                    rejoined.push(*op);
                }
            }
            assert_eq!(total, whole.len() as u64, "{parts} parts");
            assert_eq!(rejoined, whole, "{parts} parts");
        }
    }

    #[test]
    fn full_width_grid_slice_matches_block_slice() {
        // Rows x all-columns is a contiguous range: identical op order to
        // emitting the same blocks straight from the emitter, which is what
        // keeps 1D sharding (and the 1-core path) bit-identical through the
        // grid view.
        let mut grid = ChunkedStream::new(GridSlice::new(Ramp { n: 12 }, 3, 1..3, 0..3));
        assert_eq!(grid.emitter().first_block(), 3);
        let mut flat = Trace::new();
        let mut buf = Vec::new();
        for block in 3..9 {
            buf.clear();
            Ramp { n: 12 }.emit_block(block, &mut buf);
            for op in &buf {
                flat.push(*op);
            }
        }
        assert_eq!(grid.remaining(), flat.len() as u64);
        assert_eq!(grid.collect_trace(), flat);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn grid_slice_rejects_out_of_range() {
        let _ = GridSlice::new(Ramp { n: 12 }, 3, 0..5, 0..3);
    }

    #[test]
    fn collect_mix_counts_like_trace_mix() {
        let mut t = Trace::new();
        t.push_inst(Inst::TileZero { dst: TReg::T1 });
        t.push(TraceOp::VecFma { acc: 0, a: 1, b: 2 });
        t.push(TraceOp::Scalar { dst: 0, src: 0 });
        assert_eq!(t.stream().collect_mix(), t.mix());
    }
}

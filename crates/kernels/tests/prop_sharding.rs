//! Shard-invariance properties of `KernelEmitter::shard_with` and
//! `KernelSpec::shard_set`.
//!
//! Sharding partitions a kernel's tile-loop nest for multi-core replay: a
//! `ShardPlan` cuts M-tile rows, N column tiles into M×N rectangles of the
//! block grid, and K-depth slices. The invariants that make a sharded run
//! trustworthy:
//!
//! 1. **Functional invariance** — M-only shards, replayed in order,
//!    concatenate op-for-op to the unsharded stream; 2D (M×N) shards are
//!    a pure *permutation* of it (every op exactly once, order free);
//!    K-split shards preserve the tile-compute ops and every `A`/`B`
//!    memory read exactly once, with the extra partial-`C` traffic
//!    write-side only and the post-barrier reduction merging partials
//!    with vector ops (no tile compute of its own);
//! 2. **Exact-length accounting** — each stream's declared `remaining()`
//!    matches what it actually emits (the progress/accounting contract
//!    each core and the LPT scheduler rely on), and no clamped plan
//!    produces an empty shard.
//!
//! All are checked for every kernel family × the execution modes the §VI
//! engine classes select (dense baselines run dense, the STC-like engine
//! runs 2:4, the VEGETA-S designs run every pattern), across arbitrary
//! shapes — ragged ones included — shard counts, and plan axes.

use proptest::prelude::*;
use vegeta_isa::stream::InstStream;
use vegeta_isa::trace::{Trace, TraceOp};
use vegeta_kernels::{
    GemmShape, KernelEmitter, KernelOptions, KernelSpec, ShardPlan, ShardSet, ShardStream,
    SparseMode,
};
use vegeta_sparse::NmRatio;

/// Every kernel family, in the modes the §VI engine classes execute:
/// dense / 2:4 / 1:4 tiled kernels (the VEGETA-D, STC-like and VEGETA-S
/// execution modes), the Listing-1 baseline, the row-wise unstructured
/// kernel, and the vector-engine fallback.
fn all_family_specs() -> Vec<KernelSpec> {
    let mut specs = Vec::new();
    for mode in [SparseMode::Dense, SparseMode::Nm2of4, SparseMode::Nm1of4] {
        specs.push(KernelSpec::tiled(mode));
        specs.push(KernelSpec::Listing1 { mode });
    }
    specs.push(KernelSpec::Tiled {
        mode: SparseMode::Nm2of4,
        opts: KernelOptions {
            unroll: 1,
            loop_overhead: false,
        },
    });
    let mut ratios = vec![NmRatio::S1_4; 11];
    ratios.extend(vec![NmRatio::S2_4; 9]);
    ratios.extend(vec![NmRatio::D4_4; 4]);
    specs.push(KernelSpec::RowWise { row_ratios: ratios });
    specs.push(KernelSpec::Vector);
    specs
}

/// The M-only plan's shards: `n` near-even M-row ranges, clamped to the
/// kernel's outer unit count.
fn m_row_shards(spec: &KernelSpec, shape: GemmShape, n: usize) -> Vec<ShardStream> {
    KernelEmitter::for_spec(spec, shape)
        .shard_with(ShardPlan::new(n, 1, 1))
        .shards
}

fn concat_shards(spec: &KernelSpec, shape: GemmShape, n: usize) -> (Trace, u64) {
    let mut rejoined = Trace::new();
    let mut declared = 0u64;
    for mut shard in m_row_shards(spec, shape, n) {
        declared += shard.remaining();
        let part = shard.collect_trace();
        for op in part.ops() {
            rejoined.push(*op);
        }
        assert_eq!(shard.remaining(), 0, "drained shard stays drained");
    }
    (rejoined, declared)
}

/// Sorts the ops of a trace into a canonical multiset representation (2D
/// rectangles sweep the block grid in a different order than the
/// unsharded row-major stream, so comparisons are order-free).
fn sorted_ops(trace: &Trace) -> Vec<String> {
    let mut ops: Vec<String> = trace.ops().iter().map(|op| format!("{op:?}")).collect();
    ops.sort_unstable();
    ops
}

/// The multiset of memory reads `(addr, bytes)` a trace performs —
/// accumulator zeroing is register-only (`TileZero`), so for K-split
/// shards this is exactly the `A`/`B`/metadata load traffic.
fn sorted_reads(trace: &Trace) -> Vec<(u64, usize)> {
    let mut reads: Vec<(u64, usize)> = trace
        .ops()
        .iter()
        .filter_map(TraceOp::mem_access)
        .filter(|&(_, _, is_write)| !is_write)
        .map(|(addr, bytes, _)| (addr, bytes))
        .collect();
    reads.sort_unstable();
    reads
}

/// Drains a shard set, asserting each stream's declared length against
/// what it actually emits; returns the concatenated shard ops and the
/// drained reduction stream (when the plan split K).
fn drain_shard_set(set: ShardSet) -> (Trace, Option<Trace>) {
    let mut joined = Trace::new();
    for mut shard in set.shards {
        let declared = shard.remaining();
        let part = shard.collect_trace();
        assert_eq!(part.len() as u64, declared, "shard length is exact");
        joined.extend(&part);
    }
    let reduction = set.reduction.map(|mut red| {
        let declared = red.remaining();
        let trace = red.collect_trace();
        assert_eq!(trace.len() as u64, declared, "reduction length is exact");
        trace
    });
    (joined, reduction)
}

/// Checks every `ShardSet` invariant against the unsharded stream: no
/// empty shards, exact per-stream lengths, and either op-multiset
/// identity (pure 2D plans) or compute/read preservation plus a
/// vector-only reduction (K-split plans).
fn check_set_against(whole: &Trace, set: ShardSet, ctx: &KernelSpec) {
    assert!(
        set.shards.iter().all(|s| s.remaining() > 0),
        "clamped plans leave no empty shards, {ctx:?}"
    );
    let (joined, reduction) = drain_shard_set(set);
    match reduction {
        None => {
            assert_eq!(joined.len(), whole.len(), "total length, {ctx:?}");
            assert_eq!(
                sorted_ops(&joined),
                sorted_ops(whole),
                "2D shards permute the unsharded ops, {ctx:?}"
            );
        }
        Some(red) => {
            assert!(!red.is_empty(), "K-split carries a reduction, {ctx:?}");
            assert_eq!(
                red.mix().tile_compute,
                0,
                "the reduction merges partials with vector ops, {ctx:?}"
            );
            assert_eq!(
                joined.mix().tile_compute,
                whole.mix().tile_compute,
                "K-split preserves the tile-compute ops, {ctx:?}"
            );
            assert_eq!(
                sorted_reads(&joined),
                sorted_reads(whole),
                "each A/B load happens exactly once across K shards, {ctx:?}"
            );
        }
    }
}

proptest! {
    /// Concatenated M-only shards replay functionally identical to the
    /// unsharded stream, and the summed exact lengths agree, for every
    /// kernel family and shard count — including shard counts exceeding
    /// the row count, which clamp.
    #[test]
    fn shards_concatenate_to_the_unsharded_stream(
        mt in 1usize..7,
        nt in 1usize..4,
        k in 1usize..280,
        cores in 1usize..10,
    ) {
        let shape = GemmShape::new(mt * 16, nt * 16, k);
        for spec in all_family_specs() {
            let whole = spec.build(shape);
            let (rejoined, declared) = concat_shards(&spec, shape, cores);
            prop_assert_eq!(declared, whole.len() as u64, "exact length, {:?}", &spec);
            prop_assert_eq!(rejoined, whole, "op-for-op identity, {:?}", &spec);
        }
    }

    /// Ragged (non-tile-aligned) shapes shard just as losslessly.
    #[test]
    fn ragged_shapes_shard_losslessly(
        m in 1usize..80,
        n in 1usize..50,
        k in 1usize..200,
        cores in 1usize..6,
    ) {
        let shape = GemmShape::new(m, n, k);
        for spec in [KernelSpec::tiled(SparseMode::Nm2of4), KernelSpec::Vector] {
            let whole = spec.build(shape);
            let (rejoined, declared) = concat_shards(&spec, shape, cores);
            prop_assert_eq!(declared, whole.len() as u64);
            prop_assert_eq!(rejoined, whole);
        }
    }

    /// 2D (M×N, no K split) plans are pure permutations of the unsharded
    /// stream for every kernel family — every op appears exactly once
    /// across the rectangles, whatever the split counts (over-splitting
    /// clamps to the grid).
    #[test]
    fn two_dimensional_plans_permute_the_unsharded_stream(
        mt in 1usize..6,
        nt in 1usize..5,
        k in 1usize..220,
        m_splits in 1usize..6,
        n_splits in 1usize..6,
    ) {
        let shape = GemmShape::new(mt * 16, nt * 16, k);
        let plan = ShardPlan::new(m_splits, n_splits, 1);
        for spec in all_family_specs() {
            let whole = spec.build(shape);
            let set = KernelEmitter::for_spec(&spec, shape).shard_with(plan);
            prop_assert!(set.reduction.is_none(), "k_splits == 1 needs no reduction");
            check_set_against(&whole, set, &spec);
        }
    }

    /// K-split plans preserve the kernel's compute exactly: the same
    /// tile-compute ops, each `A`/`B` load exactly once, exact stream
    /// lengths, and a vector-only post-barrier reduction — for every
    /// tiled execution mode and combined M×N×K plan.
    #[test]
    fn k_split_plans_preserve_compute_and_reads(
        mt in 1usize..4,
        nt in 1usize..4,
        k in 1usize..300,
        m_splits in 1usize..3,
        n_splits in 1usize..3,
        k_splits in 2usize..5,
    ) {
        let shape = GemmShape::new(mt * 16, nt * 16, k);
        let plan = ShardPlan::new(m_splits, n_splits, k_splits);
        for mode in [SparseMode::Dense, SparseMode::Nm2of4, SparseMode::Nm1of4] {
            let spec = KernelSpec::tiled(mode);
            let whole = spec.build(shape);
            let emitter = KernelEmitter::for_spec(&spec, shape);
            let k_units = emitter.k_units();
            let set = emitter.shard_with(plan);
            prop_assert_eq!(
                set.reduction.is_some(),
                k_units > 1,
                "a reduction exists exactly when K actually splits"
            );
            check_set_against(&whole, set, &spec);
        }
    }

    /// `KernelSpec::shard_set` — the path the LPT scheduler runs — holds
    /// the same invariants at every core count for every family: the
    /// chosen plan's shards are exact-length, non-empty, and either
    /// permute the unsharded ops (no K split) or preserve compute and
    /// reads under a K split.
    #[test]
    fn shard_set_is_invariant_at_every_core_count(
        mt in 1usize..5,
        nt in 1usize..4,
        k in 1usize..260,
        cores in 1usize..33,
    ) {
        let shape = GemmShape::new(mt * 16, nt * 16, k);
        for spec in all_family_specs() {
            let whole = spec.build(shape);
            let set = spec.shard_set(shape, cores);
            prop_assert!(!set.shards.is_empty());
            check_set_against(&whole, set, &spec);
        }
    }

    /// Ragged shapes survive 2D and K-split plans just as losslessly.
    #[test]
    fn ragged_shapes_survive_2d_and_k_split_plans(
        m in 1usize..80,
        n in 1usize..50,
        k in 1usize..200,
        m_splits in 1usize..4,
        n_splits in 1usize..4,
        k_splits in 1usize..4,
    ) {
        let shape = GemmShape::new(m, n, k);
        let plan = ShardPlan::new(m_splits, n_splits, k_splits);
        for spec in [KernelSpec::tiled(SparseMode::Nm2of4), KernelSpec::Vector] {
            let whole = spec.build(shape);
            let set = KernelEmitter::for_spec(&spec, shape).shard_with(plan);
            check_set_against(&whole, set, &spec);
        }
    }
}

#[test]
fn shard_count_one_is_the_identity() {
    let shape = GemmShape::new(96, 48, 256);
    for spec in all_family_specs() {
        let shards = m_row_shards(&spec, shape, 1);
        assert_eq!(shards.len(), 1);
        let (rejoined, _) = concat_shards(&spec, shape, 1);
        assert_eq!(rejoined, spec.build(shape));
    }
}

#[test]
fn shards_bound_residency_like_the_unsharded_stream() {
    // Each shard's peak residency stays at one tile-loop cell — sharding
    // must not reintroduce materialization anywhere.
    let shape = GemmShape::new(256, 64, 512);
    let spec = KernelSpec::tiled(SparseMode::Dense);
    let whole_chunk = spec.stream(shape).max_block_ops();
    for mut shard in m_row_shards(&spec, shape, 4) {
        let bytes = shard.remaining() as usize * vegeta_isa::TRACE_OP_BYTES;
        assert!(bytes > 0, "a 16-row-tile kernel fills all four shards");
        while shard.next_op().is_some() {}
        assert!(shard.max_block_ops() <= whole_chunk);
        assert!(
            shard.peak_resident_bytes() < bytes / 2,
            "peak {} vs materialized {}",
            shard.peak_resident_bytes(),
            bytes
        );
    }
}

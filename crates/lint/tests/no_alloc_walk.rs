//! Pins that the verifier's walk over a stream allocates nothing per op.
//!
//! `verify_shard_set` walks every op of every shard stream through the
//! dataflow and bounds passes. Its heap allocations may grow with the
//! number of streams (each stream's pass state, block buffer and summary)
//! and with the number of tile-store runs it records, but not with the
//! ops it walks: a register list built per tile op would make the lint
//! preflight of a multi-core cell cost millions of allocations.
//!
//! The test installs a counting global allocator and verifies two shard
//! sets that differ only in `K`: the same plan, the same streams and the
//! same output tiles, so the same store runs, but many times the ops.
//! Each stream's reused block buffer may grow a few more times for the
//! longer blocks; nothing else may grow.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use vegeta_kernels::{GemmShape, KernelSpec, ShardPlan, SparseMode};
use vegeta_lint::{verify_shard_set, verify_shard_set_with, Report};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `verify` and the heap allocations it made.
fn counted(verify: impl FnOnce() -> Report) -> (Report, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = verify();
    (report, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

// A single test function: parallel test threads would otherwise perturb the
// global allocation counter.
#[test]
fn verifying_a_shard_set_allocates_per_stream_not_per_op() {
    let spec = KernelSpec::tiled(SparseMode::Nm2of4);
    // A 4 x 2 x 2 plan: 16 K-slice shards and a reduction stream.
    let plan = ShardPlan::new(4, 2, 2);
    let (short, short_allocs) =
        counted(|| verify_shard_set_with(&spec, GemmShape::new(256, 128, 256), plan));
    let (long, long_allocs) =
        counted(|| verify_shard_set_with(&spec, GemmShape::new(256, 128, 4096), plan));
    assert!(short.is_clean(), "{short}");
    assert!(long.is_clean(), "{long}");
    assert_eq!(short.streams_checked, long.streams_checked);
    assert!(
        long.ops_checked > 3 * short.ops_checked,
        "{} vs {} ops",
        long.ops_checked,
        short.ops_checked
    );
    // Each stream's block buffer is reused across its blocks; longer
    // blocks only grow it a few more times.
    assert!(
        long_allocs.saturating_sub(short_allocs) <= 8 * long.streams_checked as u64,
        "{} more ops walked over {} streams cost {long_allocs} - {short_allocs} allocations",
        long.ops_checked - short.ops_checked,
        long.streams_checked
    );

    // The planner's own set on a mid-size shape: a few dozen allocations
    // per stream, however long the stream.
    let (report, allocs) = counted(|| verify_shard_set(&spec, GemmShape::new(512, 256, 1024), 16));
    assert!(report.is_clean(), "{report}");
    assert!(
        allocs <= 32 * report.streams_checked as u64,
        "{allocs} allocations for {} ops over {} streams",
        report.ops_checked,
        report.streams_checked
    );
}

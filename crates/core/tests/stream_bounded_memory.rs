//! Pins the acceptance criterion of the streaming redesign: a
//! **full-fidelity (unscaled) Table IV layer** replays through
//! `Session::run` on a VEGETA-S engine with peak trace-resident
//! memory bounded by the streaming chunk size — the whole dynamic trace is
//! never allocated.
//!
//! A counting global allocator tracks *live* heap bytes (allocations minus
//! frees), so the assertion is about what stays resident, not about
//! transient bookkeeping. The materialized trace would be dozens of times
//! larger than the pinned bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use vegeta::isa::TRACE_OP_BYTES;
use vegeta::prelude::*;

struct LiveBytesAlloc;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn add(bytes: usize) {
    let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for LiveBytesAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size);
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LiveBytesAlloc = LiveBytesAlloc;

/// Resets the peak watermark to the current live level and returns the
/// live baseline.
fn reset_peak() -> i64 {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

// One test function: parallel test threads would perturb the global
// watermark.
#[test]
fn full_fidelity_layer_streams_in_bounded_memory() {
    // ResNet50-L6 unscaled (GEMM 256×196×2304) at 2:4 on VEGETA-S-16-2:
    // a genuine Table IV layer at full fidelity on a sparse tile engine.
    let layer = table4()
        .into_iter()
        .find(|l| l.name == "ResNet50-L6")
        .expect("Table IV layer");
    let session = Session::new(EngineConfig::vegeta_s(16).unwrap());

    // Warm up once so lazily-initialized state (thread locals, the trace
    // cache's summary map) does not count against the measured replay.
    let warm = session.run(&Cell::layer(&layer, Fidelity::Quick(8), NmRatio::S2_4));
    assert!(warm.cycles > 0);

    let baseline = reset_peak();
    let report = session.run(&Cell::layer(&layer, Fidelity::Full, NmRatio::S2_4));
    let peak_live_delta = PEAK.load(Ordering::Relaxed) - baseline;

    // The run really was the full layer, streamed end to end.
    assert_eq!(report.fidelity, "full");
    assert_eq!(report.shape, layer.gemm_shape());
    assert!(report.instructions > 30_000, "full layer, not a proxy");
    assert_eq!(report.insts_streamed, report.instructions);

    let materialized_bytes = report.instructions as i64 * TRACE_OP_BYTES as i64;

    // 1. The session's own accounting: peak trace residency is one chunk
    //    (the cache's memoized chunk bound, with Vec-growth slack), far
    //    below the materialized trace.
    let chunk_bytes = session
        .cache()
        .summary(layer.gemm_shape(), &KernelSpec::tiled(SparseMode::Nm2of4))
        .chunk_bytes;
    assert!(
        report.peak_resident_bytes <= 4 * chunk_bytes + 4096,
        "trace residency {} must be bounded by the chunk size {}",
        report.peak_resident_bytes,
        chunk_bytes
    );

    // 2. The allocator's view: the replay never allocated anything close
    //    to the whole trace. (The budget covers the streaming buffer, the
    //    bounded LRU cache-line map, the ROB/load-buffer rings and report
    //    strings — all independent of trace length.)
    assert!(
        peak_live_delta < materialized_bytes / 2,
        "peak live heap growth {peak_live_delta} B approaches the \
         materialized trace ({materialized_bytes} B) — streaming is not \
         bounded"
    );
    assert!(
        peak_live_delta < 256 * 1024,
        "peak live heap growth {peak_live_delta} B exceeds the fixed \
         streaming budget"
    );

    // Scale sanity: the same assertion would be impossible for the legacy
    // path — materializing alone allocates the full trace.
    let baseline = reset_peak();
    let trace = KernelSpec::tiled(SparseMode::Nm2of4).build(layer.gemm_shape());
    let peak_materialized = PEAK.load(Ordering::Relaxed) - baseline;
    assert!(
        peak_materialized >= materialized_bytes / 2,
        "sanity: materializing allocates the trace ({peak_materialized} B)"
    );
    drop(trace);
}

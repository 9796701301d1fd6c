//! Live heap bytes, counted by a global allocator that wraps the system
//! one, and sampled over time while a pass runs.
//!
//! Counting is on only inside [`sampled`], which the benchmark wraps
//! around its one untimed memory pass. The set-ups and passes it times run
//! with counting off, so they pay for no shared atomic counter. Bytes are
//! counted from the moment counting starts: blocks allocated before it and
//! freed during it subtract, so the count is the heap's growth since then,
//! which for a pass that builds its own set-up is the pass's live heap.
//!
//! The process's resident set is not comparable across runs: glibc gives
//! every new thread its own arena, and a sweep spawns fresh threads each
//! pass, so the peak RSS grew with the number of passes (6 MiB after one
//! pass of `fig13_sweep`, 14 or 29 MiB after three). Live heap bytes are
//! the part of resident memory the program controls. Their exact maximum
//! is no steadier on `fig13_sweep`: it is set by whichever cells the two
//! sweep threads happen to overlap, and read 1.2 to 2.1 MiB across runs of
//! one build. The 99th percentile over time of 5 ms samples during one
//! pass had a quartile spread of at most 1.3% across ten runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::time::Duration;

/// Bytes allocated less bytes freed while counting: a statistic that
/// publishes no other data, so `Relaxed` suffices.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// Whether allocations are counted.
static COUNTING: AtomicBool = AtomicBool::new(false);

/// How often [`sampled`] reads the live heap.
const SAMPLE_EVERY: Duration = Duration::from_millis(5);

pub struct Counting;

fn counting() -> bool {
    COUNTING.load(Ordering::Relaxed)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counter
// only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded under the caller's guarantees for `alloc`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() && counting() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded under the caller's guarantees for `alloc_zeroed`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() && counting() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded under the caller's guarantees for `dealloc`.
        unsafe { System.dealloc(ptr, layout) };
        if counting() {
            LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded under the caller's guarantees for `realloc`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() && counting() {
            LIVE.fetch_add(new_size as isize, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        }
        moved
    }
}

/// Runs `f` with counting on while a sampler thread reads the live heap
/// every [`SAMPLE_EVERY`], appending the samples (MiB) to `samples`.
pub fn sampled<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let stop = AtomicBool::new(false);
    LIVE.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| loop {
            let live = LIVE.load(Ordering::Relaxed).max(0);
            samples.push(live as f64 / f64::from(1u32 << 20));
            if stop.load(Ordering::Relaxed) {
                break;
            }
            std::thread::sleep(SAMPLE_EVERY);
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        sampler.join().expect("heap sampler panicked");
        out
    });
    COUNTING.store(false, Ordering::Relaxed);
    out
}

//! Criterion benchmark of the private L1 on its own: `CacheModel::access_range`
//! with the default 768-line L1 over a stream of 1 KB tile loads that hits
//! about as rarely as a Fig. 13 replay does (~7% of line accesses).
//!
//! Fresh tiles stream through an 8 MB region, far larger than the 48 KB
//! L1, so every line of a fresh tile misses; every fifteenth load re-reads
//! the tile just loaded, whose 16 lines all hit. That is 1 hit in 15 loads,
//! a 6.7% line hit ratio. One iteration is [`LOADS_PER_ITER`] tile loads,
//! so ns/iter ÷ (16 × `LOADS_PER_ITER`) is the cost of one line access.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vegeta::prelude::*;
use vegeta::sim::CacheModel;

/// Bytes of one tile load (16 rows of 64 B, §V-F).
const TILE_BYTES: u64 = 1024;

/// Fresh tiles cycle through this many distinct tile addresses (8 MB).
const FRESH_TILES: u64 = 8192;

/// Every this-many-th load re-reads the previous tile.
const REUSE_EVERY: u64 = 15;

/// Tile loads per benchmark iteration.
const LOADS_PER_ITER: u64 = 1024;

/// The address of the `k`-th load of the stream.
fn tile_addr(k: u64) -> u64 {
    // Loads 0..14 of each group of 15 are fresh; load 14 repeats load 13.
    let group = k / REUSE_EVERY;
    let within = (k % REUSE_EVERY).min(REUSE_EVERY - 2);
    ((group * (REUSE_EVERY - 1) + within) % FRESH_TILES) * TILE_BYTES
}

fn bench_l1_tile_loads(c: &mut Criterion) {
    let cfg = SimConfig::default();
    let mut l1 = CacheModel::new(cfg.l1_lines, cfg.l1_latency, cfg.l2_latency);
    let mut k = 0u64;
    let mut run = |l1: &mut CacheModel, loads: u64| {
        let mut worst = 0;
        for _ in 0..loads {
            worst = worst.max(l1.access_range(tile_addr(k), TILE_BYTES as usize, false).0);
            k += 1;
        }
        worst
    };
    // Warm up past the first pass over the region, then report the
    // steady-state hit ratio the timed loop runs at.
    run(&mut l1, FRESH_TILES * 2);
    let before = l1.stats();
    run(&mut l1, FRESH_TILES);
    let after = l1.stats();
    let hits = after.l1_hits - before.l1_hits;
    let misses = after.l2_hits - before.l2_hits;
    println!(
        "l1 {} lines, 1 KB tile loads: steady-state line hit ratio {:.3}",
        cfg.l1_lines,
        hits as f64 / (hits + misses) as f64
    );
    c.bench_function(
        &format!(
            "l1_access_range_1kb_x{LOADS_PER_ITER}_{}lines",
            cfg.l1_lines
        ),
        |b| b.iter(|| black_box(run(&mut l1, LOADS_PER_ITER))),
    );
}

criterion_group!(benches, bench_l1_tile_loads);
criterion_main!(benches);

//! Criterion benchmark of the private L1 on its own: `CacheModel::access_range`
//! with the default 768-line L1 over a stream of 1 KB tile loads that hits
//! about as rarely as a Fig. 13 replay does (~7% of line accesses).
//!
//! Fresh tiles stream through an 8 MB region, far larger than the 48 KB
//! L1, so every line of a fresh tile misses; every fifteenth load re-reads
//! the tile just loaded, whose 16 lines all hit. That is 1 hit in 15 loads,
//! a 6.7% line hit ratio. Each tile starts 64 B into a 1 KB block, as the
//! kernels' tiles do, so it straddles two blocks. One iteration is
//! [`LOADS_PER_ITER`] tile loads, so ns/iter ÷ (16 × `LOADS_PER_ITER`) is
//! the cost of one line access.
//!
//! The same stream through the L1 into a core's first-touch summary, which
//! folds into a shared L2 after every iteration, is what each core of a
//! multi-core run does: the difference between the two benches is the
//! cost of the summary and the fold.
//!
//! A last pair times what a sweep saves per cell by memoizing the L1: a
//! whole unsharded run of one quick-fidelity Fig. 13 trace, the one lane
//! of a one-core `MultiCoreSim`, once recording a fresh [`L1Memo`] and
//! once replaying the recorded one.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vegeta::prelude::*;
use vegeta::sim::{CacheModel, L1Memo, SharedL2};

/// Bytes of one tile load (16 rows of 64 B, §V-F).
const TILE_BYTES: u64 = 1024;

/// Fresh tiles cycle through this many distinct tile addresses (8 MB).
const FRESH_TILES: u64 = 8192;

/// Every this-many-th load re-reads the previous tile.
const REUSE_EVERY: u64 = 15;

/// Tile loads per benchmark iteration.
const LOADS_PER_ITER: u64 = 1024;

/// Where each tile starts within its 1 KB block: every 1 KB and 2 KB
/// access of the Fig. 13 and multi-core grids starts 64 B or 576 B in.
const TILE_OFFSET: u64 = 64;

/// The address of the `k`-th load of the stream.
fn tile_addr(k: u64) -> u64 {
    // Loads 0..14 of each group of 15 are fresh; load 14 repeats load 13.
    let group = k / REUSE_EVERY;
    let within = (k % REUSE_EVERY).min(REUSE_EVERY - 2);
    ((group * (REUSE_EVERY - 1) + within) % FRESH_TILES) * TILE_BYTES + TILE_OFFSET
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

fn bench_summary_fold(c: &mut Criterion) {
    let cfg = SimConfig::default();
    let mut l1 = CacheModel::new(cfg.l1_lines, cfg.l1_latency, cfg.l2_latency);
    let mut summary = SharedL2::new(cfg.l2_latency);
    let mut l2 = SharedL2::new(cfg.l2_latency);
    let mut k = 0u64;
    // One iteration's loads go to one core's summary, stamped with the
    // load index, and fold; cores 0 and 1 take turns, so a fold finds
    // both its own and the other core's lines in the shared L2.
    let mut run = |l1: &mut CacheModel, summary: &mut SharedL2, l2: &mut SharedL2| {
        let core = (k / LOADS_PER_ITER % 2) as usize;
        let mut worst = 0;
        for _ in 0..LOADS_PER_ITER {
            summary.set_now(k);
            let next = Some((core, &mut *summary));
            worst = worst.max(
                l1.access_range_via(tile_addr(k), TILE_BYTES as usize, false, next)
                    .0,
            );
            k += 1;
        }
        l2.fold(summary);
        worst
    };
    // Warm up until the shared L2 holds the whole region.
    for _ in 0..3 * FRESH_TILES / LOADS_PER_ITER {
        run(&mut l1, &mut summary, &mut l2);
    }
    let stats = l2.stats();
    println!(
        "shared l2 after warm-up: {} line accesses, {:.3} shared",
        stats.accesses,
        stats.shared_fraction()
    );
    c.bench_function(
        &format!(
            "l1_summary_fold_1kb_x{LOADS_PER_ITER}_{}lines",
            cfg.l1_lines
        ),
        |b| b.iter(|| black_box(run(&mut l1, &mut summary, &mut l2))),
    );
}

fn bench_memoized_replay(c: &mut Criterion) {
    // BERT-L2 at 2:4 on VEGETA-S-16-2, the quick (÷4) fidelity.
    let layer = table4()[7];
    let shape = Fidelity::Quick(4).shape_of(&layer);
    let engine = EngineConfig::vegeta_s(16).expect("valid alpha");
    let spec = engine.kernel_spec(NmRatio::S2_4, KernelOptions::default());
    let run = |memo: &L1Memo| {
        MultiCoreSim::new(MultiCoreConfig::new(1), engine.clone())
            .run_sharded_memoized(vec![spec.stream(shape)], None, memo)
            .expect("a fresh simulator")
    };
    let memo = L1Memo::new();
    let recorded = run(&memo).per_core.remove(0);
    assert_eq!(recorded, run(&memo).per_core[0], "a replay is exact");
    println!(
        "{} at {}x{}x{}: {} instructions, {} L1 line accesses, a {} B record",
        spec.name(),
        shape.m,
        shape.n,
        shape.k,
        recorded.instructions,
        recorded.cache.l1_hits + recorded.cache.l2_hits,
        memo.record_bytes()
    );
    c.bench_function("coresim_replay_fresh_l1_bert_l2_quick4", |b| {
        b.iter(|| black_box(run(&L1Memo::new())));
    });
    c.bench_function("coresim_replay_memoized_l1_bert_l2_quick4", |b| {
        b.iter(|| black_box(run(&memo)));
    });
}

criterion_group!(
    benches,
    bench_l1_tile_loads,
    bench_summary_fold,
    bench_memoized_replay
);
criterion_main!(benches);

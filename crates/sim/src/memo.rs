//! Record once, replay many: a memoized per-core L1 outcome.
//!
//! A [`Core`](crate::Core) splits each memory op into its *memory
//! outcome* (which L1 lines hit, so the latency of the first line) and the
//! *timing* built on it (port reservation, pipelined transfer, retire).
//! In a [`MultiCoreSim`](crate::MultiCoreSim) run the outcome of each core
//! depends on nothing but the addresses of its *lane* and the
//! `(l1_lines, l1_latency, l2_latency)` triple of the [`SimConfig`]:
//!
//! * a lane is the streams LPT queues on the core, which depend only on
//!   their declared lengths, and for core 0 the post-barrier K-split
//!   reduction; an unsharded run is one lane holding the kernel's stream;
//! * the core touches its private L1 in program order, one op per
//!   [`Core::step`](crate::Core::step), whatever cycle the op dispatches
//!   in, so the LRU state an op sees is fixed by the ops before it;
//! * under the §VI-B assumption that all data is prefetched to the L2,
//!   every L1 miss costs the same `l2_latency`, so no timing feeds back
//!   into a latency either.
//!
//! A core's misses are not its whole memory outcome on several cores:
//! each missed line also goes to the core's first-touch summary, stamped
//! with the core's clock, and the clock is the engine's. So an [`L1Memo`]
//! records, per lane, *which* lines of each 1 KB block missed, and a
//! replay feeds those same lines into the summary under its own engine's
//! clocks. Summary flushes, the fold and every shared-L2 count come out as
//! in a fresh run. A one-core run has no summary: its latencies come from
//! the record alone.
//!
//! # Record format
//!
//! Per memory op a lane keeps one bit, "every line hit". An op whose bit
//! is clear missed in every line, unless it is one of the lane's *mixed*
//! ops, which hit in some lines and missed in others: for those the lane
//! keeps the op's index and one `u16` miss mask per block the op covers.
//! On the Fig. 13 grid no op is mixed, so a lane is one bit per op, and
//! a one-core replay takes each op's latency from its bit alone. Mixed
//! ops are rare on the `multicore_scaling` grid too, so its records are
//! almost all bitmap.
//!
//! Only [`MultiCoreSim::run_sharded_memoized`](crate::MultiCoreSim::run_sharded_memoized)
//! records or replays; every other run uses the model.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::cache::{blocks, line_span, CacheModel, CacheStats, SharedL2};
use crate::core::SimConfig;

/// The part of a [`SimConfig`] a lane's L1 outcome depends on:
/// `(l1_lines, l1_latency, l2_latency)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct L1Config {
    lines: usize,
    l1_latency: u64,
    l2_latency: u64,
}

impl L1Config {
    pub(crate) fn of(cfg: &SimConfig) -> Self {
        L1Config {
            lines: cfg.l1_lines,
            l1_latency: cfg.l1_latency,
            l2_latency: cfg.l2_latency,
        }
    }
}

impl fmt::Display for L1Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(l1_lines {}, l1_latency {}, l2_latency {})",
            self.lines, self.l1_latency, self.l2_latency
        )
    }
}

/// Why [`MultiCoreSim::run_sharded_memoized`](crate::MultiCoreSim::run_sharded_memoized)
/// refused a run: the simulator had already run, or the memo was recorded
/// under another L1 triple, core count or lane. The message names both
/// values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoError(pub(crate) String);

impl fmt::Display for MemoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for MemoError {}

/// A write-once memo of one workload's per-core L1 outcome (see the module
/// docs).
///
/// Pass the same memo to every
/// [`MultiCoreSim::run_sharded_memoized`](crate::MultiCoreSim::run_sharded_memoized)
/// over the same streams, core count and [`SimConfig`] L1 triple, on any
/// engine. A run that finds the memo empty records, and the first
/// recording to finish is kept; every later run replays it. Runs that
/// started before any recording finished record too, and report the same
/// numbers.
#[derive(Debug, Default)]
pub struct L1Memo {
    outcome: OnceLock<Outcome>,
    recordings: AtomicU64,
}

/// One recorded L1 outcome: a lane per core.
#[derive(Debug)]
struct Outcome {
    config: L1Config,
    lanes: Vec<Arc<LaneLog>>,
}

/// Which lines of its blocks each memory op of one core's lane missed.
#[derive(Debug, Clone, Default)]
pub(crate) struct LaneLog {
    /// One bit per memory op: set when every line it covers hit.
    all_hit: Bits,
    /// The indices of the ops that hit in some lines and missed in
    /// others, ascending. Every other op with a clear bit missed in every
    /// line.
    mixed: Vec<u64>,
    /// For each mixed op, in op order, the miss mask of each block it
    /// covers, in address order.
    masks: Vec<u16>,
    /// The lane's L1 statistics at the end of the run.
    stats: CacheStats,
}

impl LaneLog {
    /// Bytes the record holds.
    fn bytes(&self) -> usize {
        8 * (self.all_hit.words.len() + self.mixed.len()) + 2 * self.masks.len()
    }
}

impl L1Memo {
    /// An empty memo.
    pub fn new() -> Self {
        L1Memo::default()
    }

    /// Runs through this memo that replayed the L1 model fresh: 1 once the
    /// first run finished, more if other runs started before it did.
    pub fn recordings(&self) -> u64 {
        self.recordings.load(Ordering::Relaxed)
    }

    /// Bytes of the recorded lanes: 0 while nothing is recorded.
    pub fn record_bytes(&self) -> usize {
        self.outcome
            .get()
            .map_or(0, |o| o.lanes.iter().map(|lane| lane.bytes()).sum())
    }

    /// How each of `cores` cores resolves its memory ops under `config`:
    /// from its recorded lane, or through a fresh L1 model that records.
    /// Refuses an outcome recorded under another L1 triple or core count.
    pub(crate) fn paths(&self, config: L1Config, cores: usize) -> Result<Vec<L1Path>, MemoError> {
        let Some(outcome) = self.outcome.get() else {
            return Ok((0..cores)
                .map(|_| L1Path::RecordLane {
                    l1: CacheModel::new(config.lines, config.l1_latency, config.l2_latency),
                    lane: LaneLog::default(),
                })
                .collect());
        };
        if outcome.config != config {
            return Err(MemoError(format!(
                "L1 memo recorded under {} cannot replay under {config}",
                outcome.config
            )));
        }
        if outcome.lanes.len() != cores {
            return Err(MemoError(format!(
                "L1 memo recorded on {} cores cannot replay on {cores}",
                outcome.lanes.len()
            )));
        }
        Ok(outcome
            .lanes
            .iter()
            .map(|lane| L1Path::ReplayLane {
                lane: Arc::clone(lane),
                config,
                op: 0,
                mixed: 0,
                mask: 0,
            })
            .collect())
    }

    /// Ends a run whose cores took `paths`, in core order: a recording is
    /// offered to the memo (the first one wins). Refuses a replayed lane
    /// with another memory-op or miss-mask count than the recorded one.
    pub(crate) fn finish(
        &self,
        paths: impl IntoIterator<Item = L1Path>,
        config: L1Config,
    ) -> Result<(), MemoError> {
        let mut recorded = Vec::new();
        for (core, path) in paths.into_iter().enumerate() {
            match path {
                L1Path::RecordLane { l1, mut lane } => {
                    lane.stats = l1.stats();
                    lane.all_hit.words.shrink_to_fit();
                    lane.mixed.shrink_to_fit();
                    lane.masks.shrink_to_fit();
                    recorded.push(Arc::new(lane));
                }
                L1Path::ReplayLane { lane, op, mask, .. } => {
                    if (op, mask) != (lane.all_hit.len, lane.masks.len()) {
                        return Err(MemoError(format!(
                            "L1 memo recorded {} memory ops and {} miss masks on core {core} \
                             but the lane replayed {op} and {mask}",
                            lane.all_hit.len,
                            lane.masks.len()
                        )));
                    }
                }
                L1Path::Model(_) => {
                    unreachable!("a memoized run takes its L1 paths from the memo")
                }
            }
        }
        if !recorded.is_empty() {
            self.recordings.fetch_add(1, Ordering::Relaxed);
            // A concurrent recording of the same lanes may have won; it
            // holds the same record.
            let _ = self.outcome.set(Outcome {
                config,
                lanes: recorded,
            });
        }
        Ok(())
    }
}

/// Words a recording's bitmap grows by: 2 KB, or 16,384 bits.
const GROW_WORDS: usize = 256;

/// One bit per logged op, packed 64 to a word.
#[derive(Debug, Clone, Default)]
struct Bits {
    words: Vec<u64>,
    len: u64,
}

impl Bits {
    fn push(&mut self, bit: bool) {
        let i = self.len % 64;
        if i == 0 {
            // Grow by a fixed step rather than doubling, so a recording
            // holds at most one step more than its bits.
            if self.words.len() == self.words.capacity() {
                self.words.reserve_exact(GROW_WORDS);
            }
            self.words.push(0);
        }
        if bit {
            *self.words.last_mut().expect("a word was just pushed") |= 1 << i;
        }
        self.len += 1;
    }

    /// Bit `i`; `false` past the end, which [`L1Memo::finish`] then
    /// reports as a count mismatch.
    fn get(&self, i: u64) -> bool {
        self.words
            .get((i / 64) as usize)
            .is_some_and(|w| (w >> (i % 64)) & 1 == 1)
    }
}

/// Where a core's memory ops get their latency.
#[derive(Debug, Clone)]
pub(crate) enum L1Path {
    /// The L1 model alone: every run but a memoized one.
    Model(CacheModel),
    /// The L1 model, logging each op's misses for an [`L1Memo`].
    RecordLane { l1: CacheModel, lane: LaneLog },
    /// A recorded lane, with the index of the next op, of the next mixed
    /// op and of the next miss mask; no L1 model exists.
    ReplayLane {
        lane: Arc<LaneLog>,
        config: L1Config,
        op: u64,
        mixed: usize,
        mask: usize,
    },
}

impl L1Path {
    /// A fresh L1 model for `cfg`.
    pub(crate) fn model(cfg: &SimConfig) -> Self {
        L1Path::Model(CacheModel::new(
            cfg.l1_lines,
            cfg.l1_latency,
            cfg.l2_latency,
        ))
    }

    /// One memory op: the latency of its first line and its line count.
    /// `next` is the shared L2 of a run on several cores; `None` is the
    /// flat L2 of a one-core run.
    #[inline]
    pub(crate) fn access(
        &mut self,
        addr: u64,
        bytes: usize,
        is_store: bool,
        mut next: Option<(usize, &mut SharedL2)>,
    ) -> (u64, u64) {
        match self {
            L1Path::Model(l1) => l1.access_range_via(addr, bytes, is_store, next),
            L1Path::RecordLane { l1, lane } => {
                let start = lane.masks.len();
                let (mut all_missed, mut all_hit) = (true, true);
                let out = l1.access_range_logged(addr, bytes, is_store, next, |covered, misses| {
                    all_missed &= misses == covered;
                    all_hit &= misses == 0;
                    lane.masks.push(misses);
                });
                if all_missed || all_hit {
                    lane.masks.truncate(start);
                } else {
                    lane.mixed.push(lane.all_hit.len);
                }
                lane.all_hit.push(all_hit);
                out
            }
            L1Path::ReplayLane {
                lane,
                config,
                op,
                mixed,
                mask,
            } => {
                let (first, lines) = line_span(addr, bytes);
                let i = *op;
                *op += 1;
                let hit = lane.all_hit.get(i);
                let is_mixed = lane.mixed.get(*mixed) == Some(&i);
                if is_mixed {
                    *mixed += 1;
                } else if next.is_none() || hit {
                    // Every line hit, or every line missed with no shared
                    // level to tell.
                    let latency = if hit {
                        config.l1_latency
                    } else {
                        config.l2_latency
                    };
                    return (latency, lines);
                }
                // The latency and the shared-L2 lookups of
                // `CacheModel::access_range_via`, block by block.
                let mut worst = 0;
                for (block, covered) in blocks(first, lines) {
                    let misses = if is_mixed {
                        // Past the record's end, [`L1Memo::finish`]
                        // reports the count mismatch.
                        let misses = lane.masks.get(*mask).copied().unwrap_or(covered);
                        *mask += 1;
                        misses
                    } else {
                        covered
                    };
                    if misses != covered {
                        worst = worst.max(config.l1_latency);
                    }
                    if misses != 0 {
                        worst = worst.max(match next.as_mut() {
                            Some((core, l2)) => l2.access_block(*core, block, misses),
                            None => config.l2_latency,
                        });
                    }
                }
                (worst, lines)
            }
        }
    }

    /// The L1 statistics: the model's so far, or a replay's recorded
    /// totals.
    pub(crate) fn stats(&self) -> CacheStats {
        match self {
            L1Path::Model(l1) | L1Path::RecordLane { l1, .. } => l1.stats(),
            L1Path::ReplayLane { lane, .. } => lane.stats,
        }
    }
}

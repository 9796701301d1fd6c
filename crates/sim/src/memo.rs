//! Record once, replay many: a memoized single-core L1 outcome.
//!
//! A [`Core`](crate::Core) splits each memory op into its *memory
//! outcome* (which L1 lines hit, so the latency of the first line) and the
//! *timing* built on it (port reservation, pipelined transfer, retire).
//! In a single-core run the outcome depends on nothing but the trace's
//! address sequence and the `(l1_lines, l1_latency, l2_latency)` triple of
//! the [`SimConfig`]:
//!
//! * the core touches the L1 in program order, one op per
//!   [`Core::step`](crate::Core::step), whatever cycle the op
//!   dispatches in, so the LRU state an op sees is fixed by the ops before
//!   it;
//! * under the §VI-B assumption that all data is prefetched to the L2,
//!   every L1 miss costs the flat `l2_latency`, so no timing feeds back
//!   into a latency either.
//!
//! An op's latency is the largest over its lines, each `l1_latency` or
//! `l2_latency`, so one bit per op — did it come back at `l1_latency` —
//! fixes it. With `l1_latency < l2_latency`, as in every §VI-B config,
//! that bit is "every line hit". The line count comes from the op's
//! `addr`/`bytes` alone, by the same arithmetic the L1 model uses.
//!
//! So a run over an empty [`L1Memo`] *records*: it drives a fresh
//! [`CacheModel`] and keeps one bit per memory op, packed in `u64` words,
//! plus the final [`CacheStats`]. A run over a filled memo *replays*: it
//! takes each op's latency from its bit and restores the stats at the
//! end, and never builds an L1 model. Both report the same
//! [`SimResult`](crate::SimResult), field for field — engine timing,
//! ports and the ROB are simulated in full either way.
//!
//! On the Fig. 13 traces 12.8% of memory ops hit in every line, in runs
//! mostly 2–15 ops long, so a bitmap (17 KB for the largest trace) is
//! smaller than run lengths would be.
//!
//! # Sharded runs
//!
//! The same holds for each core of a sharded run: its private L1 sees the
//! addresses of its *lane* — the shards LPT queues on it, which depend only
//! on their declared lengths, and for core 0 the post-barrier K-split
//! reduction — in program order, and the shared L2 answers every miss at
//! the same latency. But a core's misses are not its whole memory outcome:
//! each missed line also goes to the core's first-touch summary, stamped
//! with the core's clock, and the clock is the engine's. So a
//! [`ShardL1Memo`] records, per lane, *which* lines of each 1 KB block
//! missed, and a replay feeds those same lines into the summary under its
//! own engine's clocks. Summary flushes, the fold and every shared-L2 count
//! come out as in a fresh run.
//!
//! Per memory op the record keeps one bit, "every line missed", which holds
//! for most ops (the L1 hit ratio is about 7%); for the other ops it keeps
//! one `u16` miss mask per block the op covers.
//!
//! Only [`CoreSim::run_stream_memoized`](crate::CoreSim::run_stream_memoized)
//! and [`MultiCoreSim::run_sharded_memoized`](crate::MultiCoreSim::run_sharded_memoized)
//! record or replay; every other run uses the model.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::cache::{blocks, line_span, CacheModel, CacheStats, SharedL2};
use crate::core::SimConfig;

/// The part of a [`SimConfig`] a single-core L1 outcome depends on:
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

/// One recorded single-core L1 outcome.
#[derive(Debug)]
pub(crate) struct L1Outcome {
    config: L1Config,
    hits: HitBits,
    stats: CacheStats,
}

/// A write-once memo of one trace's single-core L1 outcome (see the
/// module docs).
///
/// Pass the same memo to every
/// [`CoreSim::run_stream_memoized`](crate::CoreSim::run_stream_memoized)
/// over the same trace and [`SimConfig`] L1 triple, on any engine. A run
/// that finds the memo empty records, and the first recording to finish
/// is kept; every later run replays it. Runs that started before any
/// recording finished record too, and report the same numbers.
#[derive(Debug, Default)]
pub struct L1Memo {
    outcome: OnceLock<Arc<L1Outcome>>,
    recordings: AtomicU64,
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

    /// How a run under `config` resolves its memory ops: from the
    /// recorded outcome if there is one, else through a fresh L1 model
    /// that records.
    ///
    /// # Panics
    ///
    /// When the outcome was recorded under another L1 triple.
    pub(crate) fn path(&self, config: L1Config) -> L1Path {
        match self.outcome.get() {
            Some(outcome) => {
                assert!(
                    outcome.config == config,
                    "L1 memo recorded under {} cannot replay under {config}",
                    outcome.config
                );
                L1Path::Replay {
                    outcome: Arc::clone(outcome),
                    op: 0,
                }
            }
            None => L1Path::Record {
                l1: CacheModel::new(config.lines, config.l1_latency, config.l2_latency),
                hits: HitBits::default(),
            },
        }
    }

    /// Ends a run that took `path`: a recording is offered to the memo
    /// (the first one wins).
    ///
    /// # Panics
    ///
    /// When a replay's stream had a different memory-op count from the
    /// recorded one.
    pub(crate) fn finish(&self, path: L1Path, config: L1Config) {
        match path {
            L1Path::Record { l1, mut hits } => {
                self.recordings.fetch_add(1, Ordering::Relaxed);
                hits.words.shrink_to_fit();
                let outcome = L1Outcome {
                    config,
                    hits,
                    stats: l1.stats(),
                };
                // A concurrent recording of the same trace may have won;
                // it holds the same bits.
                let _ = self.outcome.set(Arc::new(outcome));
            }
            L1Path::Replay { outcome, op } => assert!(
                op == outcome.hits.len,
                "L1 memo recorded {} memory ops but the stream replayed {op}",
                outcome.hits.len
            ),
            L1Path::Model(_) | L1Path::RecordLane { .. } | L1Path::ReplayLane { .. } => {}
        }
    }
}

/// A write-once memo of one shard set's per-core L1 outcome (see the
/// module docs).
///
/// Pass the same memo to every
/// [`MultiCoreSim::run_sharded_memoized`](crate::MultiCoreSim::run_sharded_memoized)
/// over the same shard set, core count and [`SimConfig`] L1 triple, on any
/// engine. As with an [`L1Memo`], a run that finds the memo empty
/// records, the first recording to finish is kept, and every later run
/// replays it.
#[derive(Debug, Default)]
pub struct ShardL1Memo {
    outcome: OnceLock<ShardOutcome>,
    recordings: AtomicU64,
}

/// One recorded sharded L1 outcome: a lane per core.
#[derive(Debug)]
struct ShardOutcome {
    config: L1Config,
    lanes: Vec<Arc<LaneLog>>,
}

/// Which lines of its blocks each memory op of one core's lane missed.
#[derive(Debug, Clone, Default)]
pub(crate) struct LaneLog {
    /// One bit per memory op: set when every line it covers missed.
    all_missed: HitBits,
    /// For each op whose bit is clear, in op order, the miss mask of each
    /// block it covers, in address order.
    masks: Vec<u16>,
    /// The lane's L1 statistics at the end of the run.
    stats: CacheStats,
}

impl ShardL1Memo {
    /// An empty memo.
    pub fn new() -> Self {
        ShardL1Memo::default()
    }

    /// Runs through this memo that replayed the L1 model fresh (see
    /// [`L1Memo::recordings`]).
    pub fn recordings(&self) -> u64 {
        self.recordings.load(Ordering::Relaxed)
    }

    /// How each of `cores` cores resolves its memory ops under `config`:
    /// from its recorded lane, or through a fresh L1 model that records.
    ///
    /// # Panics
    ///
    /// When the outcome was recorded under another L1 triple or core
    /// count.
    pub(crate) fn paths(&self, config: L1Config, cores: usize) -> Vec<L1Path> {
        let Some(outcome) = self.outcome.get() else {
            return (0..cores)
                .map(|_| L1Path::RecordLane {
                    l1: CacheModel::new(config.lines, config.l1_latency, config.l2_latency),
                    lane: LaneLog::default(),
                })
                .collect();
        };
        assert!(
            outcome.config == config,
            "shard L1 memo recorded under {} cannot replay under {config}",
            outcome.config
        );
        assert!(
            outcome.lanes.len() == cores,
            "shard L1 memo recorded on {} cores cannot replay on {cores}",
            outcome.lanes.len()
        );
        outcome
            .lanes
            .iter()
            .map(|lane| L1Path::ReplayLane {
                lane: Arc::clone(lane),
                l1_latency: config.l1_latency,
                op: 0,
                mask: 0,
            })
            .collect()
    }

    /// Ends a run whose cores took `paths`, in core order: a recording is
    /// offered to the memo (the first one wins).
    ///
    /// # Panics
    ///
    /// When a replayed lane had a different memory-op or miss-mask count
    /// from the recorded one.
    pub(crate) fn finish(&self, paths: impl IntoIterator<Item = L1Path>, config: L1Config) {
        let mut recorded = Vec::new();
        for (core, path) in paths.into_iter().enumerate() {
            match path {
                L1Path::RecordLane { l1, mut lane } => {
                    lane.stats = l1.stats();
                    lane.all_missed.words.shrink_to_fit();
                    lane.masks.shrink_to_fit();
                    recorded.push(Arc::new(lane));
                }
                L1Path::ReplayLane { lane, op, mask, .. } => assert!(
                    (op, mask) == (lane.all_missed.len, lane.masks.len()),
                    "shard L1 memo recorded {} memory ops and {} miss masks on core {core} \
                     but the lane replayed {op} and {mask}",
                    lane.all_missed.len,
                    lane.masks.len()
                ),
                L1Path::Model(_) | L1Path::Record { .. } | L1Path::Replay { .. } => {
                    unreachable!("a memoized sharded run takes its L1 paths from the memo")
                }
            }
        }
        if !recorded.is_empty() {
            self.recordings.fetch_add(1, Ordering::Relaxed);
            // A concurrent recording of the same shard set may have won;
            // it holds the same lanes.
            let _ = self.outcome.set(ShardOutcome {
                config,
                lanes: recorded,
            });
        }
    }
}

/// Words a recording's bitmap grows by: 2 KB, or 16,384 memory ops.
const GROW_WORDS: usize = 256;

/// One bit per memory op, packed 64 to a word: in an [`L1Memo`], set when
/// the op came back at the L1 latency; in a [`ShardL1Memo`] lane, set when
/// every line of the op missed.
#[derive(Debug, Clone, Default)]
pub(crate) struct HitBits {
    words: Vec<u64>,
    len: u64,
}

impl HitBits {
    fn push(&mut self, hit: bool) {
        let bit = self.len % 64;
        if bit == 0 {
            // Grow by a fixed step rather than doubling, so a recording
            // holds at most one step more than its bits.
            if self.words.len() == self.words.capacity() {
                self.words.reserve_exact(GROW_WORDS);
            }
            self.words.push(0);
        }
        if hit {
            *self.words.last_mut().expect("a word was just pushed") |= 1 << bit;
        }
        self.len += 1;
    }

    /// Bit `i`; `false` past the end, which [`L1Memo::finish`] then
    /// reports as a memory-op count mismatch.
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
    /// The L1 model, keeping each op's bit for an [`L1Memo`].
    Record { l1: CacheModel, hits: HitBits },
    /// The bits of a recorded outcome, and the index of the next op's;
    /// no L1 model exists.
    Replay { outcome: Arc<L1Outcome>, op: u64 },
    /// One core of a sharded run: the L1 model, logging each op's misses
    /// for a [`ShardL1Memo`].
    RecordLane { l1: CacheModel, lane: LaneLog },
    /// One core of a sharded run replaying its recorded lane, with the
    /// index of the next op's bit and of the next miss mask; no L1 model
    /// exists.
    ReplayLane {
        lane: Arc<LaneLog>,
        l1_latency: u64,
        op: u64,
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
    /// `next` is the shared L2 of a multi-core run, which the
    /// [`L1Path::Model`] path and the lane paths see.
    #[inline]
    pub(crate) fn access(
        &mut self,
        addr: u64,
        bytes: usize,
        is_store: bool,
        next: Option<(usize, &mut SharedL2)>,
    ) -> (u64, u64) {
        match self {
            L1Path::Model(l1) => l1.access_range_via(addr, bytes, is_store, next),
            L1Path::Record { l1, hits } => {
                debug_assert!(next.is_none(), "only single-core runs record");
                let (latency, lines) = l1.access_range(addr, bytes, is_store);
                hits.push(latency == l1.l1_latency);
                (latency, lines)
            }
            L1Path::Replay { outcome, op } => {
                let hit = outcome.hits.get(*op);
                *op += 1;
                let c = outcome.config;
                let latency = if hit { c.l1_latency } else { c.l2_latency };
                (latency, line_span(addr, bytes).1)
            }
            L1Path::RecordLane { l1, lane } => {
                let start = lane.masks.len();
                let mut all_missed = true;
                let out = l1.access_range_logged(addr, bytes, is_store, next, |covered, misses| {
                    all_missed &= misses == covered;
                    lane.masks.push(misses);
                });
                if all_missed {
                    lane.masks.truncate(start);
                }
                lane.all_missed.push(all_missed);
                out
            }
            L1Path::ReplayLane {
                lane,
                l1_latency,
                op,
                mask,
            } => {
                let (core, l2) = next.expect("a sharded run's L1 misses go to a shared L2");
                let all_missed = lane.all_missed.get(*op);
                *op += 1;
                // The latency and the shared-L2 lookups of
                // `CacheModel::access_range_via`, block by block.
                let (first, lines) = line_span(addr, bytes);
                let mut worst = 0;
                for (block, covered) in blocks(first, lines) {
                    let misses = if all_missed {
                        covered
                    } else {
                        // Past the record's end, [`ShardL1Memo::finish`]
                        // reports the count mismatch.
                        let misses = lane.masks.get(*mask).copied().unwrap_or(covered);
                        *mask += 1;
                        misses
                    };
                    if misses != covered {
                        worst = worst.max(*l1_latency);
                    }
                    if misses != 0 {
                        worst = worst.max(l2.access_block(core, block, misses));
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
            L1Path::Model(l1) | L1Path::Record { l1, .. } | L1Path::RecordLane { l1, .. } => {
                l1.stats()
            }
            L1Path::Replay { outcome, .. } => outcome.stats,
            L1Path::ReplayLane { lane, .. } => lane.stats,
        }
    }
}

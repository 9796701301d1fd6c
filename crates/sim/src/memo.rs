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
//! ports and the ROB are simulated in full either way. Only
//! [`CoreSim::run_stream_memoized`](crate::CoreSim::run_stream_memoized)
//! records or replays; every other run, and every core of a multi-core
//! run (whose L1 misses reach a shared L2 in time order), uses the model.
//!
//! On the Fig. 13 traces 12.8% of memory ops hit in every line, in runs
//! mostly 2–15 ops long, so a bitmap (17 KB for the largest trace) is
//! smaller than run lengths would be.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::cache::{line_span, CacheModel, CacheStats, SharedL2};
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
            L1Path::Model(_) => {}
        }
    }
}

/// Words a recording's bitmap grows by: 2 KB, or 16,384 memory ops.
const GROW_WORDS: usize = 256;

/// One bit per memory op, packed 64 to a word: set when the op came back
/// at the L1 latency.
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
    /// The L1 model alone: every run but a memoized single-core one.
    Model(CacheModel),
    /// The L1 model, keeping each op's bit for an [`L1Memo`].
    Record { l1: CacheModel, hits: HitBits },
    /// The bits of a recorded outcome, and the index of the next op's;
    /// no L1 model exists.
    Replay { outcome: Arc<L1Outcome>, op: u64 },
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
    /// `next` is the shared L2 of a multi-core run, which only the
    /// [`L1Path::Model`] path ever sees.
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
        }
    }

    /// The L1 statistics: the model's so far, or a replay's recorded
    /// totals.
    pub(crate) fn stats(&self) -> CacheStats {
        match self {
            L1Path::Model(l1) | L1Path::Record { l1, .. } => l1.stats(),
            L1Path::Replay { outcome, .. } => outcome.stats,
        }
    }
}

//! A compact two-level cache model for the evaluation's memory assumption.
//!
//! §VI-B fixes the memory system for the Fig. 13 experiments: "we assume
//! that the data is prefetched to the L2 cache", so every miss in the L1 is
//! served by the L2. The model therefore splits into
//!
//! * [`CacheModel`] — the **private L1** one core owns: LRU line tracking,
//!   L1-hit vs beyond-L1 classification, traffic counting. On a miss it
//!   either charges the flat backing-store latency (the single-core setup,
//!   exactly the paper's assumption) or consults a shared next level.
//! * [`SharedL2`] — the **shared L2** of a multi-core simulation: one
//!   coherence-free level every core's L1 misses flow into. Under the
//!   §VI-B prefetch assumption every line is already resident, so every
//!   lookup hits; the level only records which core touched each line
//!   first, so that a hit on a line another core brought in counts as a
//!   *shared hit* (no invalidations, the workloads are read-shared
//!   weights). [`SharedL2Stats`] reports the hit/sharing split.
//!
//! Per-core [`CacheStats`] merge across cores ([`CacheStats::merge`] /
//! `+=`) so a multi-core run can report aggregate traffic.
//!
//! Both levels keep their books by the 1 KB *block* of 16 lines, the size
//! of one tile (§V-F), and every per-line result stays exact. A tile load
//! is 16 line requests in at most two blocks, so a lookup costs one probe
//! or one hash operation per block, not per line.
//!
//! # An exact LRU kept by access run
//!
//! The L1's table (`LruTable`) keeps recency as a queue of *runs*, one per
//! access per block: the block's *sector* and the mask of the lines whose
//! latest access the run still is (its *live* lines). An access touches
//! its lines in lane order, so within a run the lines are oldest-first in
//! lane order, and the queue read head to tail, each run lowest lane
//! first, is the exact LRU order of the resident lines. The victim a
//! last-use-stamp scan picks is always the lowest live line of the first
//! run that has one.
//!
//! * An access that misses every line it covers, and covers at most the
//!   capacity, evicts what it must in bulk from the head of the queue (a
//!   whole run at a time, then the lowest live lines of the next by bit
//!   operations) and appends one run. Those are the victims a line-by-line
//!   walk evicts too, since none of them can be a line of this access.
//! * Any other access appends its run first and then walks its lines in
//!   lane order, as the stamp scan does: a resident line moves from the
//!   run that held it into the new one, and a missing line joins the new
//!   run after a full table evicts its LRU line. Below 16 lines of
//!   capacity an access so evicts its own earlier lines, and a block whose
//!   other resident lines sit at the head of the queue can lose them all,
//!   to take the all-miss path on its next access.
//! * A run left with no live line is dead: skipped at the head, and
//!   dropped when the queue reaches `RUN_QUEUE_FACTOR` times the
//!   capacity and is compacted.
//!
//! A sector holds its block, its resident-line mask and the queue position
//! of the run holding each resident line, so a hit finds the run to take
//! its line from; a run names its sector by number, so an eviction never
//! hashes. Blocks find their sector through a hash map that may go stale:
//! a freed sector forgets its block, an entry naming a sector that holds
//! another block reads as absent, and the map drops its stale entries once
//! it holds twice as many as there are sectors.
//!
//! Every access of a Fig. 13 replay goes through the L1's table, and most
//! of them miss every line (a ~7% hit ratio), so a tile load is two hash
//! lookups, a few bit operations at the head of the queue and two appended
//! runs. The equivalence with the stamp scan is pinned by randomized
//! differential tests against a reference model.
//!
//! # First-touch claims by page
//!
//! The [`SharedL2`] keeps its claims in *pages* of `PAGE_BLOCKS` blocks'
//! claims (4 KB), found through one hash map keyed by page number, with the
//! page looked up last cached beside it, so an access hashes at most once
//! per page and a streamed operand's next block mostly not at all. A page
//! marks the blocks it holds claims for, and [`SharedL2::fold`] merges a
//! summary page by page through that mask, resetting each summary page for
//! the summary's next use as it goes. The [`SharedL2`] never evicts.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Cache line size in bytes.
pub const LINE_BYTES: u64 = 64;

/// Lines per block: the 1 KB unit (one 16-row tile) that both levels keep
/// their books by.
const BLOCK_LINES: usize = 16;

/// Blocks per claim page of a [`SharedL2`]: 16 blocks of 16 lines' claims,
/// 4 KB.
const PAGE_BLOCKS: u64 = 16;

/// Length of an `LruTable`'s run queue, in multiples of its capacity, at
/// which the queue drops its dead runs; the queue is allocated at that
/// length on the first insert. A live run holds a resident line, so a
/// compaction keeps at most the capacity, and the next one comes at least
/// the capacity of appended runs later.
const RUN_QUEUE_FACTOR: usize = 2;

/// Scrambles a block or page number for the maps keyed by one: the number
/// times an odd constant, with the high half folded into the low half, so
/// nearby numbers spread over distinct buckets.
fn scramble(number: u64) -> u64 {
    let h = number.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^ (h >> 32)
}

/// Hashes the block and page numbers keying [`NumberMap`]s with
/// [`scramble`]. The keys are simulated addresses, so a DoS-resistant
/// hasher would only cost time.
#[derive(Debug, Clone, Copy, Default)]
struct NumberHasher(u64);

impl Hasher for NumberHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, number: u64) {
        self.0 = scramble(number);
    }
}

/// Block or page number → a sector or page position.
type NumberMap = HashMap<u64, u32, BuildHasherDefault<NumberHasher>>;

/// Access statistics of one private L1 cache model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Line accesses that hit in L1.
    pub l1_hits: u64,
    /// Line accesses that missed L1 and were served by the next level
    /// (the always-hitting L2 of the single-core evaluation setup, or the
    /// shared L2 of a multi-core run — its own hit/miss split lives in
    /// [`SharedL2Stats`]).
    pub l2_hits: u64,
    /// Bytes transferred from the memory system into the core.
    pub bytes_read: u64,
    /// Bytes written back toward the memory system.
    pub bytes_written: u64,
}

impl CacheStats {
    /// Accumulates `other` into `self` — the aggregation a shared L2 (and
    /// any per-core sweep rollup) needs.
    pub fn merge(&mut self, other: &CacheStats) {
        self.l1_hits += other.l1_hits;
        self.l2_hits += other.l2_hits;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
    }
}

impl std::ops::AddAssign<&CacheStats> for CacheStats {
    fn add_assign(&mut self, other: &CacheStats) {
        self.merge(other);
    }
}

impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, other: CacheStats) {
        self.merge(&other);
    }
}

/// Statistics of a [`SharedL2`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedL2Stats {
    /// Line lookups arriving from any core's L1 miss.
    pub accesses: u64,
    /// Lookups that hit: all of them, under the prefetch assumption.
    pub hits: u64,
    /// Lookups that had to fetch the line from memory: always 0, since
    /// every line is prefetched into the L2. Kept so reports keep their
    /// `misses` key.
    pub misses: u64,
    /// Hits on a line first brought in by a *different* core — the
    /// cross-core reuse a shared cache buys (shared `B` tiles, mostly).
    pub shared_hits: u64,
}

impl SharedL2Stats {
    /// Fraction of L2 lookups that reused a line another core fetched;
    /// 0.0 when the L2 saw no traffic.
    pub fn shared_fraction(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        self.shared_hits as f64 / self.accesses as f64
    }
}

/// The blocks a run of `lines` (at least one) lines from line number
/// `first` covers, each with the mask of the lines it covers (bit `i` is
/// line `block * 16 + i`).
pub(crate) fn blocks(first: u64, lines: u64) -> impl Iterator<Item = (u64, u16)> {
    let block_lines = BLOCK_LINES as u64;
    let end = first + lines;
    (first / block_lines..=(end - 1) / block_lines).map(move |block| {
        let base = block * block_lines;
        let (lo, hi) = (first.max(base) - base, end.min(base + block_lines) - base);
        (block, ((1u32 << hi) - (1u32 << lo)) as u16)
    })
}

/// The set bits of `mask`, lowest first: the lines of a block an access
/// covers, in address order, or the blocks of a claim page.
fn bits(mut mask: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

/// Who first brought a shared-L2 line in, and how often that core has
/// touched it since. [`SharedL2::fold`] orders claims on the same line by
/// `(time, core)`: the smallest is the line's first toucher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Claim {
    /// The first touch's stamp: the toucher's clock plus one
    /// ([`SharedL2::set_now`]), or 0 for a *settled* line whose owner no
    /// fold may change.
    time: u64,
    /// The first-toucher core.
    core: u32,
    /// Accesses the first toucher itself made to the line, the first
    /// touch included; every other access is a shared hit. A present
    /// line has at least one, so 0 marks a line no core has touched.
    own: u32,
}

// One claim per line of every page: a GPT-L3 multi-core cell holds
// hundreds of thousands, so 16 bytes rather than 24 keeps the pages' peak
// down, and a page of 256 claims at 4 KB.
const _: () = assert!(std::mem::size_of::<Claim>() == 16);

impl Claim {
    /// The claim of a line no core has touched.
    const ABSENT: Claim = Claim {
        time: 0,
        core: 0,
        own: 0,
    };

    /// Counts one more access by the first toucher.
    fn add_own(&mut self, accesses: u32) {
        self.own = self
            .own
            .checked_add(accesses)
            .expect("one core touches one line fewer than 2^32 times");
    }
}

/// The claims of one block's lines, by line within the block.
type BlockClaims = [Claim; BLOCK_LINES];

/// The claims of [`PAGE_BLOCKS`] consecutive blocks.
#[derive(Debug, Clone)]
struct ClaimPage {
    /// The page number: its first block's number over [`PAGE_BLOCKS`].
    number: u64,
    /// The blocks holding a claim: bit `i` is block `number * 16 + i`.
    present: u16,
    claims: [BlockClaims; PAGE_BLOCKS as usize],
}

/// The page number of no page: the [`SharedL2`]'s page cache before its
/// first lookup. Block numbers are byte addresses over 1 KB, so no page
/// number reaches it.
const NO_PAGE: u64 = u64::MAX;

/// A coherence-free shared L2: the common next level of every core's
/// private L1 in a [`crate::MultiCoreSim`].
///
/// *Coherence-free* because the simulated kernels share only read-only
/// operands (`B` tiles) and write disjoint `C` ranges per shard, so no
/// invalidation traffic is modelled. Under the §VI-B prefetch assumption
/// every lookup is a hit at `hit_latency`, exactly as the single-core model
/// assumes, and nothing is ever evicted: the level only tracks each line's
/// first toucher, for the sharing attribution. It keeps those claims in
/// 4 KB pages of 16 blocks, behind one page index and a cache of the page
/// looked up last, so an L1 miss on a whole tile costs at most one hash
/// operation per page.
///
/// A shared L2 that only one core accesses doubles as that core's
/// *first-touch summary* (each line's first stamp and access count),
/// which a [`crate::MultiCoreSim`] folds into the real L2.
#[derive(Debug, Clone)]
pub struct SharedL2 {
    hit_latency: u64,
    /// Page number → position in `pages`.
    index: NumberMap,
    /// Claim pages: the first `index.len()` in use, by first touch, and
    /// the rest reset by a fold, for reuse. Each page is an allocation of
    /// its own, so a growing L2 never copies its claims.
    pages: Vec<Box<ClaimPage>>,
    /// The page looked up last: its number and position, or [`NO_PAGE`].
    last: (u64, u32),
    /// Lines with a claim.
    resident_lines: usize,
    stats: SharedL2Stats,
    /// Stamp recorded on lines first touched from now on.
    now: u64,
}

impl SharedL2 {
    /// A shared L2 whose every lookup hits in `hit_latency` core cycles.
    pub fn new(hit_latency: u64) -> Self {
        SharedL2 {
            hit_latency,
            index: NumberMap::default(),
            pages: Vec::new(),
            last: (NO_PAGE, 0),
            resident_lines: 0,
            stats: SharedL2Stats::default(),
            now: 0,
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> SharedL2Stats {
        self.stats
    }

    /// Resident lines.
    pub(crate) fn resident_lines(&self) -> usize {
        self.resident_lines
    }

    /// Claim pages in use.
    pub(crate) fn pages(&self) -> usize {
        self.index.len()
    }

    /// Sets the clock of the accesses that follow: lines they touch first
    /// are stamped `now + 1`, which keeps stamp 0 for settled lines.
    pub fn set_now(&mut self, now: u64) {
        self.now = now + 1;
    }

    /// Settles every resident line: no later [`SharedL2::fold`] may take
    /// it from its owner, since it was touched before the run that folds.
    pub(crate) fn settle(&mut self) {
        for page in &mut self.pages[..self.index.len()] {
            for slot in bits(page.present) {
                for claim in &mut page.claims[slot] {
                    claim.time = 0;
                }
            }
        }
    }

    /// The position of page `number`, in use from now on: the cached last
    /// page, or one index lookup, which adds the page, empty, if no line
    /// of it has a claim yet.
    fn page(&mut self, number: u64) -> usize {
        if self.last.0 != number {
            let used = self.index.len();
            let fresh = u32::try_from(used).expect("fewer than 2^32 claim pages");
            let pos = *self.index.entry(number).or_insert(fresh);
            if pos == fresh {
                match self.pages.get_mut(used) {
                    Some(page) => page.number = number,
                    None => self.pages.push(Box::new(ClaimPage {
                        number,
                        present: 0,
                        claims: [[Claim::ABSENT; BLOCK_LINES]; PAGE_BLOCKS as usize],
                    })),
                }
            }
            self.last = (number, pos);
        }
        self.last.1 as usize
    }

    /// Looks up one line on behalf of `core`, updating the sharing
    /// attribution; returns the load-to-use latency, always the hit
    /// latency.
    pub fn access_line(&mut self, core: usize, line_addr: u64) -> u64 {
        let line = line_addr / LINE_BYTES;
        let lane = line % BLOCK_LINES as u64;
        self.access_block(core, line / BLOCK_LINES as u64, 1 << lane)
    }

    /// Looks up the lines `mask` selects in `block` on behalf of `core`
    /// (see [`SharedL2::access_line`]), with at most one hash operation.
    pub(crate) fn access_block(&mut self, core: usize, block: u64, mask: u16) -> u64 {
        let core = u32::try_from(core).expect("fewer than 2^32 simulated cores");
        let lines = u64::from(mask.count_ones());
        self.stats.accesses += lines;
        self.stats.hits += lines;
        let pos = self.page(block / PAGE_BLOCKS);
        let slot = (block % PAGE_BLOCKS) as usize;
        let page = &mut self.pages[pos];
        page.present |= 1 << slot;
        let claims = &mut page.claims[slot];
        for lane in bits(mask) {
            let claim = &mut claims[lane];
            if claim.own == 0 {
                // The data was preloaded (§VI-B): the first touch is a hit
                // too.
                *claim = Claim {
                    time: self.now,
                    core,
                    own: 1,
                };
                self.resident_lines += 1;
            } else if claim.core == core {
                claim.add_own(1);
            } else {
                self.stats.shared_hits += 1;
            }
        }
        self.hit_latency
    }

    /// Drains one core's first-touch `summary` into this L2, as
    /// if that core's accesses had been interleaved with every core folded
    /// before it in global `(time, core)` order.
    ///
    /// Each line goes to the claim with the smallest `(time, core)`; a
    /// claim that loses, or loses its line later, turns its accesses into
    /// shared hits. Settled lines keep their owner. Every access is a hit.
    /// The owner is a minimum and every non-owner access is counted once,
    /// so the stats do not depend on the order cores are folded in. One
    /// core may fold several summaries, as long as it folds them in the
    /// order it ran them. The summary is left empty, its pages reset for
    /// reuse.
    pub fn fold(&mut self, summary: &mut SharedL2) {
        for theirs in &mut summary.pages[..summary.index.len()] {
            let pos = self.page(theirs.number);
            let ours = &mut self.pages[pos];
            ours.present |= theirs.present;
            for slot in bits(std::mem::take(&mut theirs.present)) {
                for (ours, theirs) in ours.claims[slot].iter_mut().zip(&mut theirs.claims[slot]) {
                    let theirs = std::mem::replace(theirs, Claim::ABSENT);
                    if theirs.own == 0 {
                        continue;
                    }
                    self.stats.accesses += u64::from(theirs.own);
                    self.stats.hits += u64::from(theirs.own);
                    if ours.own == 0 {
                        *ours = theirs;
                        self.resident_lines += 1;
                    } else if ours.core == theirs.core {
                        ours.add_own(theirs.own);
                    } else if (theirs.time, theirs.core) < (ours.time, ours.core) {
                        self.stats.shared_hits += u64::from(ours.own);
                        *ours = theirs;
                    } else {
                        self.stats.shared_hits += u64::from(theirs.own);
                    }
                }
            }
        }
        summary.index.clear();
        summary.last = (NO_PAGE, 0);
        summary.resident_lines = 0;
    }
}

/// The block of a free sector: block numbers are byte addresses over
/// 1 KB, so none reaches it.
const NO_BLOCK: u64 = u64::MAX;

/// The sector of no sector: an eviction that may free any sector.
const NO_SECTOR: u32 = u32::MAX;

/// One block with a resident line in an [`LruTable`], or a free one.
#[derive(Debug, Clone)]
struct Sector {
    /// The block, or [`NO_BLOCK`] for a free sector.
    block: u64,
    /// The resident lines: bit `i` is line `block * 16 + i`.
    resident: u16,
    /// The queue position of the run each resident line is live in.
    run_of: [u32; BLOCK_LINES],
}

/// One access's lines of one block in an [`LruTable`]'s recency queue.
#[derive(Debug, Clone, Copy)]
struct Run {
    sector: u32,
    /// The lines whose latest access this run still is; dead at 0.
    live: u16,
}

/// The `count` lowest set bits of `mask`.
fn lowest(mut mask: u16, count: usize) -> u16 {
    let mut low = 0;
    for _ in 0..count {
        let bit = mask & mask.wrapping_neg();
        low |= bit;
        mask ^= bit;
    }
    low
}

/// An [`LruTable`]'s recency: its sectors and its queue of runs (see the
/// module doc), everything but the block index.
#[derive(Debug, Clone)]
struct Recency {
    /// Most lines resident at once (at least one).
    capacity: usize,
    /// Resident lines.
    len: usize,
    /// Sectors by number, in use or free.
    sectors: Vec<Sector>,
    free_sectors: Vec<u32>,
    /// The queue, oldest run first, from position `head` on; the runs
    /// before `head` are dead and wait for the next compaction.
    runs: Vec<Run>,
    head: usize,
}

impl Recency {
    /// A sector for `block`, with no resident line yet.
    fn new_sector(&mut self, block: u64) -> u32 {
        if let Some(s) = self.free_sectors.pop() {
            self.sectors[s as usize].block = block;
            return s;
        }
        self.sectors.push(Sector {
            block,
            resident: 0,
            run_of: [0; BLOCK_LINES],
        });
        u32::try_from(self.sectors.len() - 1).expect("fewer than 2^32 sectors")
    }

    /// Appends a run of `sector`'s lines `live` to the queue, compacting
    /// the queue first when it is long; returns the run's position.
    fn push_run(&mut self, sector: u32, live: u16) -> u32 {
        let limit = RUN_QUEUE_FACTOR * self.capacity;
        if self.runs.len() >= limit {
            self.compact();
        } else if self.runs.capacity() == 0 {
            self.runs.reserve_exact(limit);
        }
        self.runs.push(Run { sector, live });
        u32::try_from(self.runs.len() - 1).expect("fewer than 2^32 queued runs")
    }

    /// Drops the dead runs, keeping the order of the live ones, and points
    /// each resident line at its run's new position.
    fn compact(&mut self) {
        let mut kept = 0;
        for i in self.head..self.runs.len() {
            let run = self.runs[i];
            if run.live == 0 {
                continue;
            }
            let sector = &mut self.sectors[run.sector as usize];
            for lane in bits(run.live) {
                sector.run_of[lane] = kept as u32;
            }
            self.runs[kept] = run;
            kept += 1;
        }
        self.runs.truncate(kept);
        self.head = 0;
    }

    /// Evicts the `count` least-recently-used lines, at most as many as
    /// are resident: whole runs from the head, then the lowest live lines
    /// of the next. A sector left with no resident line is freed, unless
    /// it is `keep`, the sector an access is filling.
    fn evict(&mut self, mut count: usize, keep: u32) {
        self.len -= count;
        while count > 0 {
            // A dead run at the head holds nothing to evict. It cannot be
            // the run an access is filling: with a line to evict, a live
            // run follows the head.
            let run = &mut self.runs[self.head];
            if run.live == 0 {
                self.head += 1;
                continue;
            }
            let gone = if run.live.count_ones() as usize <= count {
                run.live
            } else {
                lowest(run.live, count)
            };
            run.live &= !gone;
            count -= gone.count_ones() as usize;
            let s = run.sector;
            let sector = &mut self.sectors[s as usize];
            sector.resident &= !gone;
            if sector.resident == 0 && s != keep {
                sector.block = NO_BLOCK;
                self.free_sectors.push(s);
            }
        }
    }

    /// Makes the lines `mask` of sector `s`, none of them resident, the
    /// most recently used, as one run.
    fn append(&mut self, s: u32, mask: u16) {
        let pos = self.push_run(s, mask);
        let sector = &mut self.sectors[s as usize];
        if sector.resident == 0 {
            sector.run_of = [pos; BLOCK_LINES];
        } else {
            for lane in bits(mask) {
                sector.run_of[lane] = pos;
            }
        }
        sector.resident |= mask;
        self.len += mask.count_ones() as usize;
    }

    /// Accesses the lines `mask` of sector `s` one at a time, lowest
    /// first, into one new run: a resident line moves into it, a missing
    /// one joins it after a full table evicts its least-recently-used
    /// line. Returns the mask of the lines that missed.
    fn access_lanes(&mut self, s: u32, mask: u16) -> u16 {
        let pos = self.push_run(s, 0);
        let mut misses = 0;
        for lane in bits(mask) {
            let bit = 1 << lane;
            let sector = &self.sectors[s as usize];
            if sector.resident & bit != 0 {
                let from = sector.run_of[lane];
                self.runs[from as usize].live &= !bit;
            } else {
                misses |= bit;
                if self.len >= self.capacity {
                    self.evict(1, s);
                }
                self.sectors[s as usize].resident |= bit;
                self.len += 1;
            }
            self.sectors[s as usize].run_of[lane] = pos;
            self.runs[pos as usize].live |= bit;
        }
        misses
    }
}

/// An exact-LRU residency table: block → sector through a hash map, with
/// recency as a queue of access runs (see the module doc). An access costs
/// one hash lookup per block and, when it misses every line, a few bit
/// operations per run it evicts, so it is observationally identical to
/// scanning for the minimum last-use stamp without scanning.
#[derive(Debug, Clone)]
struct LruTable {
    /// Block → sector. An entry whose sector holds another block is stale
    /// and reads as absent.
    index: NumberMap,
    recency: Recency,
}

impl LruTable {
    /// An empty table for at most `capacity_lines` (at least one)
    /// resident lines. Nothing is allocated before the first insert.
    fn new(capacity_lines: usize) -> Self {
        LruTable {
            index: NumberMap::default(),
            recency: Recency {
                capacity: capacity_lines.max(1),
                len: 0,
                sectors: Vec::new(),
                free_sectors: Vec::new(),
                runs: Vec::new(),
                head: 0,
            },
        }
    }

    /// Accesses the lines `mask` selects in `block`, lowest first: a
    /// resident line is refreshed to most-recently-used, a missing one is
    /// inserted as most-recently-used, after a full table evicts its
    /// least-recently-used line. So at most the capacity is ever resident.
    /// Returns the mask of the lines that missed.
    fn access(&mut self, block: u64, mask: u16) -> u16 {
        let recency = &mut self.recency;
        if self.index.len() >= 2 * recency.sectors.len().max(BLOCK_LINES) {
            let sectors = &recency.sectors;
            self.index
                .retain(|&block, &mut s| sectors[s as usize].block == block);
        }
        let entry = self.index.entry(block);
        let live = match &entry {
            Entry::Occupied(e) if recency.sectors[*e.get() as usize].block == block => {
                Some(*e.get())
            }
            _ => None,
        };
        let lines = mask.count_ones() as usize;
        let all_miss = lines <= recency.capacity
            && live.is_none_or(|s| recency.sectors[s as usize].resident & mask == 0);
        if all_miss {
            // The victims are the oldest resident lines, which may be the
            // last of this block's, freeing its sector.
            recency.evict(
                (recency.len + lines).saturating_sub(recency.capacity),
                NO_SECTOR,
            );
        }
        let s = match live {
            Some(s) if recency.sectors[s as usize].block == block => s,
            _ => {
                let s = recency.new_sector(block);
                match entry {
                    Entry::Occupied(mut e) => *e.get_mut() = s,
                    Entry::Vacant(e) => {
                        e.insert(s);
                    }
                }
                s
            }
        };
        if !all_miss {
            return recency.access_lanes(s, mask);
        }
        recency.append(s, mask);
        mask
    }
}

/// An LRU-tracked private L1 backed by a flat next level (the single-core
/// always-hitting L2) or, in multi-core runs, a [`SharedL2`].
#[derive(Debug, Clone)]
pub struct CacheModel {
    pub(crate) l1_latency: u64,
    l2_latency: u64,
    lines: LruTable,
    stats: CacheStats,
}

impl CacheModel {
    /// Creates a cache with `capacity_lines` L1 lines and the given hit
    /// latencies (in core cycles).
    pub fn new(capacity_lines: usize, l1_latency: u64, l2_latency: u64) -> Self {
        CacheModel {
            l1_latency,
            l2_latency,
            lines: LruTable::new(capacity_lines),
            stats: CacheStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up the line holding `line_addr`, updating LRU state, and
    /// returns its load-to-use latency; misses are served by the flat
    /// always-hitting L2.
    pub fn access_line(&mut self, line_addr: u64, is_store: bool) -> u64 {
        self.access_line_via(line_addr, is_store, None)
    }

    /// [`CacheModel::access_line`] with an explicit next level: when
    /// `next` is `Some((core, l2))`, an L1 miss consults the shared L2 on
    /// behalf of `core` instead of charging the flat L2 latency.
    pub fn access_line_via(
        &mut self,
        line_addr: u64,
        is_store: bool,
        next: Option<(usize, &mut SharedL2)>,
    ) -> u64 {
        self.access_range_via(line_addr, 1, is_store, next).0
    }

    /// Accesses a byte range, touching every covered line in address
    /// order; returns the latency until the *first* line is available and
    /// the number of lines.
    ///
    /// Tile loads are converted into one request per 64 B line (§V-F); the
    /// pipelined transfer cost is handled by the port model in the core.
    pub fn access_range(&mut self, addr: u64, bytes: usize, is_store: bool) -> (u64, u64) {
        self.access_range_via(addr, bytes, is_store, None)
    }

    /// [`CacheModel::access_range`] with an explicit shared next level (see
    /// [`CacheModel::access_line_via`]). The lines of each block are
    /// looked up together: one index probe, and for the lines that miss,
    /// one shared-L2 lookup.
    pub fn access_range_via(
        &mut self,
        addr: u64,
        bytes: usize,
        is_store: bool,
        next: Option<(usize, &mut SharedL2)>,
    ) -> (u64, u64) {
        self.access_range_logged(addr, bytes, is_store, next, |_, _| {})
    }

    /// [`CacheModel::access_range_via`], calling `log(covered, misses)`
    /// for each block the access covers, in address order: the mask of
    /// its lines the access covers and the mask of those that missed.
    pub(crate) fn access_range_logged(
        &mut self,
        addr: u64,
        bytes: usize,
        is_store: bool,
        mut next: Option<(usize, &mut SharedL2)>,
        mut log: impl FnMut(u16, u16),
    ) -> (u64, u64) {
        let (first, lines) = line_span(addr, bytes);
        if is_store {
            self.stats.bytes_written += lines * LINE_BYTES;
        } else {
            self.stats.bytes_read += lines * LINE_BYTES;
        }
        let mut worst = 0;
        for (block, mask) in blocks(first, lines) {
            let misses = self.lines.access(block, mask);
            log(mask, misses);
            if mask != misses {
                self.stats.l1_hits += u64::from((mask & !misses).count_ones());
                worst = worst.max(self.l1_latency);
            }
            if misses != 0 {
                self.stats.l2_hits += u64::from(misses.count_ones());
                let hop = match next.as_mut() {
                    Some((core, l2)) => l2.access_block(*core, block, misses),
                    None => self.l2_latency,
                };
                worst = worst.max(hop);
            }
        }
        (worst, lines)
    }
}

/// The 64 B lines a `bytes`-long access at `addr` covers: the first line
/// number and the line count (at least one, for a zero-byte access too).
/// The one line arithmetic of [`CacheModel::access_range_via`] and of a
/// core replaying a memoized L1 outcome.
pub(crate) fn line_span(addr: u64, bytes: usize) -> (u64, u64) {
    let first = addr / LINE_BYTES;
    let last = (addr + bytes.max(1) as u64 - 1) / LINE_BYTES;
    (first, last - first + 1)
}

#[cfg(test)]
mod tests {
    use std::collections::hash_map::Entry;
    use std::collections::BTreeMap;

    use super::*;

    #[test]
    fn first_touch_hits_l2_then_l1() {
        let mut c = CacheModel::new(4, 5, 14);
        assert_eq!(c.access_line(0, false), 14);
        assert_eq!(c.access_line(0, false), 5);
        assert_eq!(c.stats().l1_hits, 1);
        assert_eq!(c.stats().l2_hits, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = CacheModel::new(2, 5, 14);
        c.access_line(0, false);
        c.access_line(64, false);
        c.access_line(0, false); // refresh line 0
        c.access_line(128, false); // evicts 64
        assert_eq!(c.access_line(0, false), 5, "line 0 must still be resident");
        assert_eq!(c.access_line(64, false), 14, "line 64 was evicted");
    }

    #[test]
    fn range_access_touches_every_line() {
        let mut c = CacheModel::new(64, 5, 14);
        let (lat, lines) = c.access_range(0, 1024, false);
        assert_eq!(lines, 16, "a 1 KB tile load is 16 line requests");
        assert_eq!(lat, 14);
        assert_eq!(c.stats().bytes_read, 1024);
        let (lat2, _) = c.access_range(0, 1024, false);
        assert_eq!(lat2, 5, "second touch hits L1");
    }

    #[test]
    fn unaligned_range_rounds_out_to_lines() {
        let mut c = CacheModel::new(64, 5, 14);
        let (_, lines) = c.access_range(60, 8, false);
        assert_eq!(lines, 2, "straddles a line boundary");
    }

    #[test]
    fn stores_count_write_traffic() {
        let mut c = CacheModel::new(64, 5, 14);
        c.access_range(0, 128, true);
        assert_eq!(c.stats().bytes_written, 128);
        assert_eq!(c.stats().bytes_read, 0);
    }

    #[test]
    fn stats_merge_and_add_assign_accumulate_every_field() {
        let a = CacheStats {
            l1_hits: 1,
            l2_hits: 2,
            bytes_read: 64,
            bytes_written: 128,
        };
        let b = CacheStats {
            l1_hits: 10,
            l2_hits: 20,
            bytes_read: 640,
            bytes_written: 1280,
        };
        let expected = CacheStats {
            l1_hits: 11,
            l2_hits: 22,
            bytes_read: 704,
            bytes_written: 1408,
        };
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged, expected);
        let mut by_ref = a;
        by_ref += &b;
        assert_eq!(by_ref, expected);
        let mut by_value = a;
        by_value += b;
        assert_eq!(by_value, expected);
        // Merging the default is the identity.
        let mut id = a;
        id += CacheStats::default();
        assert_eq!(id, a);
    }

    #[test]
    fn shared_l2_attributes_cross_core_hits() {
        let mut l2 = SharedL2::new(14);
        assert_eq!(l2.access_line(0, 0), 14, "a first touch hits: prefetched");
        assert_eq!(l2.access_line(0, 0), 14, "same-core reuse is a plain hit");
        assert_eq!(
            l2.access_line(1, 0),
            14,
            "another core hits the shared line"
        );
        let stats = l2.stats();
        assert_eq!(stats.accesses, 3);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.shared_hits, 1, "only the cross-core hit is shared");
        assert!((stats.shared_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(SharedL2Stats::default().shared_fraction(), 0.0);
    }

    #[test]
    fn prefetched_shared_l2_always_hits_at_l2_latency() {
        let mut l2 = SharedL2::new(14);
        for line in 0..8u64 {
            assert_eq!(l2.access_line(0, line * 64), 14, "prefetched: never a miss");
        }
        let stats = l2.stats();
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.hits, 8);
    }

    #[test]
    fn l1_miss_consults_the_shared_next_level() {
        let mut l2 = SharedL2::new(14);
        let mut c0 = CacheModel::new(4, 5, 14);
        let mut c1 = CacheModel::new(4, 5, 14);
        let (lat, lines) = c0.access_range_via(0, 128, false, Some((0, &mut l2)));
        assert_eq!((lat, lines), (14, 2));
        // Core 1 misses its own private L1 but shares the L2 lines.
        let (lat1, _) = c1.access_range_via(0, 128, false, Some((1, &mut l2)));
        assert_eq!(lat1, 14);
        assert_eq!(c1.stats().l2_hits, 2, "private L1 still classifies misses");
        assert_eq!(l2.stats().shared_hits, 2);
    }

    /// One step of a xorshift64 sequence: deterministic pseudo-random
    /// input for the differential tests.
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// The pre-optimization reference: last-use stamps in a map, with an
    /// O(capacity) min-stamp scan to pick the eviction victim, one line at
    /// a time. The O(1) list over a sectored index must be observationally
    /// identical to this.
    struct StampScanReference {
        capacity: usize,
        l1_latency: u64,
        l2_latency: u64,
        /// Line number → last-use stamp.
        lines: HashMap<u64, u64>,
        stamp: u64,
        stats: CacheStats,
    }

    impl StampScanReference {
        fn new(capacity: usize, l1_latency: u64, l2_latency: u64) -> Self {
            StampScanReference {
                capacity: capacity.max(1),
                l1_latency,
                l2_latency,
                lines: HashMap::new(),
                stamp: 0,
                stats: CacheStats::default(),
            }
        }

        fn access_line(&mut self, line_addr: u64) -> u64 {
            let line = line_addr / LINE_BYTES;
            self.stamp += 1;
            if self.lines.contains_key(&line) {
                self.lines.insert(line, self.stamp);
                self.stats.l1_hits += 1;
                return self.l1_latency;
            }
            if self.lines.len() >= self.capacity {
                if let Some((&victim, _)) = self.lines.iter().min_by_key(|(_, &s)| s) {
                    self.lines.remove(&victim);
                }
            }
            self.lines.insert(line, self.stamp);
            self.stats.l2_hits += 1;
            self.l2_latency
        }

        /// Every line `bytes` (at least one) at `addr` overlap, in address
        /// order: the worst latency and the line count.
        fn access_range(&mut self, addr: u64, bytes: usize) -> (u64, u64) {
            let (first, last) = (addr / LINE_BYTES, (addr + bytes as u64 - 1) / LINE_BYTES);
            let worst = (first..=last)
                .map(|line| self.access_line(line * LINE_BYTES))
                .max()
                .expect("at least one line");
            (worst, last - first + 1)
        }
    }

    /// `count` line addresses, one in each of `count` blocks whose
    /// scrambled numbers agree in their low bits, as many as index a hash
    /// table of twice `capacity` entries: their probe sequences in the
    /// block index all start at one bucket, so lookups, inserts and stale
    /// entries pile up in one long probe run. Consecutive addresses sit at
    /// consecutive lines of their blocks, so each sector holds one line in
    /// its own run, and a block comes back at another line.
    fn colliding_addrs(capacity: usize, count: usize) -> Vec<u64> {
        let mask = (2 * capacity).next_power_of_two() as u64 - 1;
        (0u64..)
            .filter(|&block| scramble(block) & mask == scramble(0) & mask)
            .take(count)
            .enumerate()
            .map(|(i, block)| (block * BLOCK_LINES as u64 + (i % BLOCK_LINES) as u64) * LINE_BYTES)
            .collect()
    }

    /// Line addresses `0, 64, .. 64 * (count - 1)`.
    fn sequential_addrs(count: usize) -> Vec<u64> {
        (0..count as u64).map(|line| line * LINE_BYTES).collect()
    }

    /// Capacities the differential tests cover: every one below the 16
    /// lines of a block (where a tile load takes the per-line path and
    /// evicts its own earlier lines), one line either side of a block (the
    /// all-miss path's bound), non-powers of two and the default 768-line
    /// L1.
    const DIFF_CAPACITIES: [usize; 13] = [1, 2, 3, 4, 5, 6, 7, 15, 16, 17, 64, 100, 768];

    /// Lengths of the range accesses, in lines: one line, two, a 1 KB
    /// tile and a 2 KB one.
    const RANGE_LINES: [u64; 4] = [1, 2, 16, 32];

    #[test]
    fn o1_lru_is_identical_to_the_stamp_scan_reference() {
        // Deterministic xorshift address sequences over a working set a
        // few times the capacity, across several capacities: the fast list
        // and the reference scan must agree on every single access, first
        // line by line, then range by range.
        for capacity in DIFF_CAPACITIES {
            let span = capacity * 3 + 1;
            for pool in [sequential_addrs(span), colliding_addrs(capacity, span)] {
                let mut fast = CacheModel::new(capacity, 5, 14);
                let mut reference = StampScanReference::new(capacity, 5, 14);
                let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ capacity as u64;
                let phase = 512.max(4 * capacity as u64);
                for step in 0..4000.max(8 * capacity as u64) {
                    xorshift(&mut x);
                    // Mix uniform-random and looping sequential phases so
                    // both thrash and reuse paths are exercised.
                    let addr = if step % phase < phase / 2 {
                        pool[(x % span as u64) as usize]
                    } else {
                        pool[(step % (capacity as u64 * 2 + 1)) as usize]
                    };
                    assert_eq!(
                        fast.access_line(addr, false),
                        reference.access_line(addr),
                        "capacity {capacity}, step {step}, addr {addr}"
                    );
                }
                // Tile-sized ranges from a pool line: at the line itself,
                // at 64 B and 576 B into its block (where the kernels'
                // tiles start, so each straddles two blocks), or unaligned.
                for step in 0..2000 {
                    let r = xorshift(&mut x);
                    let line_addr = pool[(r % span as u64) as usize];
                    let block_addr = line_addr - line_addr % (BLOCK_LINES as u64 * LINE_BYTES);
                    let addr = [line_addr, block_addr + 64, block_addr + 576, line_addr + 37]
                        [(r >> 32) as usize % 4];
                    let bytes = (RANGE_LINES[(r >> 40) as usize % 4] * LINE_BYTES) as usize;
                    assert_eq!(
                        fast.access_range(addr, bytes, false),
                        reference.access_range(addr, bytes),
                        "capacity {capacity}, range step {step}, {bytes} B at {addr}"
                    );
                    let s = fast.stats();
                    assert_eq!(
                        (s.l1_hits, s.l2_hits),
                        (reference.stats.l1_hits, reference.stats.l2_hits),
                        "capacity {capacity}, range step {step}: per-line hits"
                    );
                }
                assert_eq!(fast.lines.recency.len, reference.lines.len());
            }
        }
    }

    #[test]
    fn a_block_at_the_head_cascades_like_the_stamp_scan() {
        // `(capacity, [(addr, bytes)])`: the last access of each script
        // misses every line it covers, including lines of its block that
        // were resident before it, because the access's own misses evict
        // them from the head of the queue first.
        /// A capacity, its accesses as `(addr, bytes)`, and the lines the
        /// last one misses.
        type Script = (usize, &'static [(u64, usize)], u64);
        let scripts: [Script; 2] = [
            // All-miss path: line 15 of block 0 sits at the head when
            // lines 0-14 of block 0 arrive; evicting 15 lines frees the
            // block's sector, and a new one takes the access.
            (17, &[(15 * 64, 64), (1024, 1024), (0, 960)], 15),
            // Per-line path: six lines into a four-line L1, the block's
            // lines 4 and 5 at the head: the first two misses evict them,
            // so they miss when the walk reaches them.
            (4, &[(4 * 64, 128), (1024, 128), (0, 384)], 6),
        ];
        for (capacity, script, last_misses) in scripts {
            let mut fast = CacheModel::new(capacity, 5, 14);
            let mut reference = StampScanReference::new(capacity, 5, 14);
            for &(addr, bytes) in script {
                let before = fast.stats().l2_hits;
                assert_eq!(
                    fast.access_range(addr, bytes, false),
                    reference.access_range(addr, bytes),
                    "capacity {capacity}, {bytes} B at {addr}"
                );
                if (addr, bytes) == *script.last().expect("a script") {
                    assert_eq!(
                        fast.stats().l2_hits - before,
                        last_misses,
                        "capacity {capacity}"
                    );
                }
            }
            // Every line of the two blocks lands where the reference has
            // it, and so does the order they leave in.
            for line in (0..32u64).chain(0..32) {
                assert_eq!(
                    fast.access_line(line * 64, false),
                    reference.access_line(line * 64),
                    "capacity {capacity}, line {line}"
                );
            }
            assert_eq!(fast.lines.recency.len, reference.lines.len());
        }
    }

    #[test]
    fn lru_index_is_allocated_on_first_insert_only() {
        let mut c = CacheModel::new(768, 5, 14);
        let recency = &c.lines.recency;
        assert_eq!(c.lines.index.capacity(), 0, "untouched L1 holds no index");
        assert_eq!(
            (recency.sectors.capacity(), recency.runs.capacity()),
            (0, 0),
            "nor sectors nor runs"
        );
        c.access_line(0, false);
        let recency = &c.lines.recency;
        assert_eq!(c.lines.index.len(), 1);
        assert_eq!((recency.sectors.len(), recency.runs.len()), (1, 1));
        let idle = CacheModel::new(100, 5, 14);
        assert_eq!(idle.lines.index.capacity(), 0);
        assert_eq!(idle.lines.recency.runs.capacity(), 0);
    }

    #[test]
    fn a_tile_load_fills_two_sectors() {
        // A 1 KB tile 64 B into its block covers 15 lines of one block and
        // the first line of the next: two sectors, one run each, for 16
        // lines.
        let mut c = CacheModel::new(768, 5, 14);
        assert_eq!(c.access_range(1024 + 64, 1024, false), (14, 16));
        assert_eq!(c.lines.recency.len, 16);
        let recency = &c.lines.recency;
        assert_eq!(recency.sectors.len(), 2);
        assert_eq!(c.lines.index.len(), 2);
        let live: Vec<u16> = recency.runs.iter().map(|r| r.live).collect();
        assert_eq!(live, [0xfffe, 0x0001]);
        // The next tile fills the second block and starts a third.
        assert_eq!(c.access_range(2048 + 64, 1024, false), (14, 16));
        assert_eq!(c.lines.recency.sectors.len(), 3);
        assert_eq!(c.lines.recency.runs.len(), 4);
        assert_eq!(
            c.access_range(2048, 64, false),
            (5, 1),
            "line 32 is resident"
        );
    }

    #[test]
    fn a_hit_only_loop_keeps_the_run_queue_bounded() {
        // Every access refreshes lines that are all resident, so each one
        // appends a run and kills an older one: compaction must keep the
        // queue within its multiple of the capacity.
        for capacity in [1, 16, 768] {
            let mut c = CacheModel::new(capacity, 5, 14);
            let bytes = 64 * capacity.min(BLOCK_LINES);
            c.access_range(0, bytes, false);
            for _ in 0..10 * RUN_QUEUE_FACTOR * capacity {
                assert_eq!(c.access_range(0, bytes, false).0, 5);
                assert!(
                    c.lines.recency.runs.len() <= RUN_QUEUE_FACTOR * capacity,
                    "capacity {capacity}: {} queued runs",
                    c.lines.recency.runs.len()
                );
            }
            assert_eq!(c.lines.recency.sectors.len(), 1);
        }
    }

    /// One core's first-touch summary of `(stamp, line)` accesses.
    fn summary(core: usize, accesses: &[(u64, u64)]) -> SharedL2 {
        let mut l2 = SharedL2::new(14);
        for &(now, line) in accesses {
            l2.set_now(now);
            assert_eq!(l2.access_line(core, line), 14);
        }
        l2
    }

    #[test]
    fn folding_summaries_is_order_independent() {
        // `(core, [(time, line)])` summaries. Core 2 reaches line 64 first;
        // core 1 beats core 2 to line 128 on the core-id tiebreak; line 192
        // is core 1's alone. Core 0 folds two partial summaries, in the
        // order it ran them, and re-touches line 64 in the second.
        let parts = [
            (0, vec![(5, 64)]),
            (0, vec![(7, 64), (9, 128)]),
            (1, vec![(3, 128), (6, 64), (6, 192), (8, 192)]),
            (2, vec![(3, 128), (3, 128), (4, 64)]),
        ];
        // The same accesses on one L2 in global (time, core) order, as the
        // stepped scan would deliver them.
        let mut global: Vec<(u64, usize, u64)> = parts
            .iter()
            .flat_map(|(core, a)| a.iter().map(move |&(t, line)| (t, *core, line)))
            .collect();
        global.sort_by_key(|&(t, core, _)| (t, core));
        let mut merged = SharedL2::new(14);
        for (_, core, line) in global {
            merged.access_line(core, line);
        }
        let expected = merged.stats();
        assert_eq!((expected.accesses, expected.shared_hits), (10, 6));
        for order in [[0, 1, 2, 3], [3, 2, 0, 1], [2, 0, 3, 1], [0, 3, 1, 2]] {
            let mut real = SharedL2::new(14);
            for i in order {
                real.fold(&mut summary(parts[i].0, &parts[i].1));
            }
            assert_eq!(real.stats(), expected, "fold order {order:?}");
        }
    }

    #[test]
    fn folding_keeps_the_owner_of_a_settled_line() {
        // Line 64 was resident before the run (core 3's): a summary
        // stamped earlier still cannot take it over.
        let mut real = SharedL2::new(14);
        real.set_now(50);
        real.access_line(3, 64);
        real.settle();
        real.fold(&mut summary(0, &[(0, 64), (1, 64), (2, 128)]));
        real.fold(&mut summary(3, &[(9, 64)]));
        let stats = real.stats();
        // Core 0's two touches of line 64 are shared.
        assert_eq!((stats.accesses, stats.shared_hits), (5, 2));
        // After the fold the real L2 attributes like any other: core 0
        // owns line 128, core 3 line 64.
        real.access_line(3, 128);
        real.access_line(0, 64);
        assert_eq!(real.stats().shared_hits, 4);
    }

    /// The per-line shared L2 that block-keyed claims replaced: one map
    /// entry per line, every operation one hash lookup per line. The
    /// [`SharedL2`] must keep the same stats and owners.
    #[derive(Default)]
    struct PerLineSharedL2 {
        /// Line address → first-touch claim.
        claims: HashMap<u64, Claim>,
        stats: SharedL2Stats,
        now: u64,
    }

    impl PerLineSharedL2 {
        fn set_now(&mut self, now: u64) {
            self.now = now + 1;
        }

        fn settle(&mut self) {
            for claim in self.claims.values_mut() {
                claim.time = 0;
            }
        }

        fn access_line(&mut self, core: usize, line_addr: u64) {
            let core = core as u32;
            self.stats.accesses += 1;
            self.stats.hits += 1;
            match self.claims.entry(line_addr) {
                Entry::Occupied(mut claim) if claim.get().core == core => {
                    claim.get_mut().add_own(1);
                }
                Entry::Occupied(_) => self.stats.shared_hits += 1,
                Entry::Vacant(slot) => {
                    slot.insert(Claim {
                        time: self.now,
                        core,
                        own: 1,
                    });
                }
            }
        }

        fn fold(&mut self, summary: &mut PerLineSharedL2) {
            for (line, theirs) in summary.claims.drain() {
                self.stats.accesses += u64::from(theirs.own);
                self.stats.hits += u64::from(theirs.own);
                let ours = self
                    .claims
                    .entry(line)
                    .or_insert(Claim { own: 0, ..theirs });
                if ours.core == theirs.core {
                    ours.add_own(theirs.own);
                } else if (theirs.time, theirs.core) < (ours.time, ours.core) {
                    self.stats.shared_hits += u64::from(ours.own);
                    *ours = theirs;
                } else {
                    self.stats.shared_hits += u64::from(theirs.own);
                }
            }
        }
    }

    /// Every resident line's claim in `l2`, by line address.
    fn owners(l2: &SharedL2) -> BTreeMap<u64, Claim> {
        l2.pages[..l2.pages()]
            .iter()
            .flat_map(|page| {
                (0..PAGE_BLOCKS as usize).flat_map(move |slot| {
                    let claimed = page.claims[slot].iter().any(|c| c.own > 0);
                    assert_eq!(page.present >> slot & 1 == 1, claimed, "present mask");
                    let block = page.number * PAGE_BLOCKS + slot as u64;
                    bits(u16::MAX)
                        .filter(move |&lane| page.claims[slot][lane].own > 0)
                        .map(move |lane| {
                            let line = block * BLOCK_LINES as u64 + lane as u64;
                            (line * LINE_BYTES, page.claims[slot][lane])
                        })
                })
            })
            .collect()
    }

    #[test]
    fn block_claims_match_the_per_line_reference() {
        const CORES: usize = 4;
        // Lines of the region every access falls in: 64 blocks.
        const REGION_LINES: u64 = 64 * BLOCK_LINES as u64;
        for seed in 1..=8u64 {
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut real = SharedL2::new(14);
            let mut reference = PerLineSharedL2::default();
            // Lines touched before the run: settled, so no fold may take
            // them from their owner.
            for _ in 0..40 {
                let r = xorshift(&mut x);
                let (core, line_addr) = ((r % CORES as u64) as usize, (r >> 8) % 256 * LINE_BYTES);
                real.set_now(r >> 40);
                reference.set_now(r >> 40);
                real.access_line(core, line_addr);
                reference.access_line(core, line_addr);
            }
            real.settle();
            reference.settle();

            // Each core's run as partial summaries, each folded as it
            // fills (in the order the core ran them), cores interleaved;
            // now and then a core accesses the real L2 directly, as the
            // K-split reduction does.
            let mut summaries: Vec<_> = (0..CORES)
                .map(|_| (SharedL2::new(14), PerLineSharedL2::default()))
                .collect();
            let mut clocks = [0u64; CORES];
            for step in 0..800 {
                let r = xorshift(&mut x);
                let core = (r % CORES as u64) as usize;
                clocks[core] += 1 + (r >> 8) % 7;
                // 1 to 32 lines from any line, so ranges straddle blocks;
                // odd steps drop a random subset of lines, as L1 hits do.
                let first = (r >> 16) % REGION_LINES;
                let lines = 1 + (r >> 32) % 32;
                let keep = if step % 2 == 0 {
                    u16::MAX
                } else {
                    xorshift(&mut x) as u16
                };
                let kept = |line: u64| keep >> (line % BLOCK_LINES as u64) & 1 == 1;
                let direct = (r >> 40).is_multiple_of(16);
                let (sum, sum_ref) = &mut summaries[core];
                let (l2, l2_ref) = if direct {
                    (&mut real, &mut reference)
                } else {
                    (sum, sum_ref)
                };
                l2.set_now(clocks[core]);
                l2_ref.set_now(clocks[core]);
                for (block, mask) in blocks(first, lines) {
                    if mask & keep != 0 {
                        assert_eq!(l2.access_block(core, block, mask & keep), 14);
                    }
                }
                for line in (first..first + lines).filter(|&line| kept(line)) {
                    l2_ref.access_line(core, line * LINE_BYTES);
                }
                let (sum, sum_ref) = &mut summaries[core];
                assert_eq!(sum.resident_lines(), sum_ref.claims.len());
                if (r >> 48).is_multiple_of(8) {
                    real.fold(sum);
                    reference.fold(sum_ref);
                    assert_eq!(sum.resident_lines(), 0);
                    assert_eq!(real.stats(), reference.stats, "seed {seed}, step {step}");
                }
            }
            for (sum, sum_ref) in summaries.iter_mut().rev() {
                real.fold(sum);
                reference.fold(sum_ref);
            }
            assert_eq!(real.stats(), reference.stats, "seed {seed}");
            assert!(real.stats().shared_hits > 0, "seed {seed} shares lines");
            let expected: BTreeMap<u64, Claim> = reference.claims.into_iter().collect();
            assert_eq!(owners(&real), expected, "seed {seed}");
            assert_eq!(real.resident_lines(), expected.len());
        }
    }

    #[test]
    fn lru_table_reuses_freed_slots() {
        let mut c = CacheModel::new(2, 5, 14);
        for i in 0..100u64 {
            c.access_line(i * 64 * 16, false);
        }
        // Two live lines in two blocks, at most three sectors ever
        // allocated (two resident plus one freed and reused), and a queue
        // and an index that stale entries do not grow: eviction must
        // recycle.
        let recency = &c.lines.recency;
        assert_eq!(c.lines.recency.len, 2);
        assert!(
            recency.sectors.len() <= 3,
            "sectors grew to {} for a 2-line cache",
            recency.sectors.len()
        );
        assert!(recency.runs.len() <= RUN_QUEUE_FACTOR * 2);
        assert!(c.lines.index.len() <= 2 * BLOCK_LINES);

        // A summary's pages are reused after each fold: one page at a
        // time, however many pages the run goes through.
        let mut real = SharedL2::new(14);
        let mut summary = SharedL2::new(14);
        for page in 0..100u64 {
            summary.access_line(0, page * PAGE_BLOCKS * 1024);
            assert_eq!(summary.pages(), 1);
            real.fold(&mut summary);
            assert_eq!((summary.pages(), summary.resident_lines()), (0, 0));
        }
        assert_eq!(summary.pages.len(), 1, "the freed page is reused");
        assert_eq!((real.pages(), real.resident_lines()), (100, 100));
    }
}

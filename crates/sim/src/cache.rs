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
//! # Replacement in O(1)
//!
//! An exact-LRU table (`LruTable`) keeps each resident line in a *slot*:
//! its block's sector, its line within the block, and its links in an
//! intrusive doubly-linked recency list over slot numbers. A hit unlinks
//! the line and re-links it at the MRU tail; a miss at capacity evicts the
//! list head and reuses its slot. Because every access moves the touched
//! line to the tail, the head is always the line whose last use is oldest
//! — the exact same victim a last-use-stamp scan would pick (stamps are
//! strictly increasing, so the minimum stamp *is* the list head).
//!
//! Lines find their slot through a *sectored* index: an open-addressed
//! table of `u32` sector numbers, one per block with a resident line. A
//! sector holds its block number and the slot of each of its 16 lines. The
//! index is a power of two at least twice the capacity long (a block per
//! resident line at worst), so it is at most half full. A lookup probes
//! linearly from a multiplicative hash of the block number, once for all
//! the lines an access covers in that block; an eviction clears its line
//! in the sector the slot records, and only a sector left empty leaves the
//! index, by backward shift, moving later entries of the probe run into
//! the hole, so no tombstones build up. The index is allocated on the first
//! insert. The [`SharedL2`] never evicts, so it keeps no such table.
//!
//! Every access of a Fig. 13 replay goes through the L1's table, and most
//! of them miss (a ~7% hit ratio), so a tile load is two short probes and
//! sixteen list operations in small arrays rather than sixteen lookups.
//! The equivalence with the stamp scan is pinned by randomized
//! differential tests against a reference model.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Cache line size in bytes.
pub const LINE_BYTES: u64 = 64;

/// Lines per block: the 1 KB unit (one 16-row tile) that both levels keep
/// their books by.
const BLOCK_LINES: usize = 16;

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
/// covers, in address order.
fn lanes(mut mask: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
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

// One claim per line of every resident block: a GPT-L3 multi-core cell
// holds hundreds of thousands, so 16 bytes rather than 24 keeps the claim
// maps' peak down.
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

/// Hashes the block numbers keying a [`SharedL2`]'s claims: the block
/// number without the bits that chose its map (see [`map_of`]) times an
/// odd constant, with the high half folded into the low half. Consecutive
/// keys of one map then differ in their low bits, one to one, so nearby
/// blocks spread over distinct buckets. The keys are simulated addresses,
/// so a DoS-resistant hasher would only cost time.
#[derive(Debug, Clone, Copy, Default)]
struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, block: u64) {
        let h = (block / CLAIM_MAPS as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

/// Block number → the claims of its lines.
type ClaimMap = HashMap<u64, BlockClaims, BuildHasherDefault<BlockHasher>>;

/// Claim maps a [`SharedL2`] spreads its blocks over. A map grows by
/// doubling, with the old and the new table live while it copies; with
/// one map, the largest multi-core cells' claims went from 3 to 6 MiB at
/// once, a heap spike of half again the table. Sixteen maps grow one at a
/// time, so a growth step holds a sixteenth of the claims twice.
const CLAIM_MAPS: usize = 16;

/// The claim map block `block` lives in: consecutive blocks go to
/// consecutive maps, so every map takes its share of a streamed operand.
fn map_of(block: u64) -> usize {
    block as usize % CLAIM_MAPS
}

/// Sentinel for "no slot" or "no sector": an empty index bucket, a line
/// of a sector that is not resident, or the end of the intrusive recency
/// list.
const NO_SLOT: u32 = u32::MAX;

/// One block with a resident line in an [`LruTable`]: the slot of each of
/// its lines, or [`NO_SLOT`].
#[derive(Debug, Clone)]
struct Sector {
    block: u64,
    slots: [u32; BLOCK_LINES],
    /// Resident lines of the block; a sector at 0 leaves the index.
    resident: u32,
}

/// One resident line of an [`LruTable`]: where the index keeps it, and its
/// links in the recency list.
#[derive(Debug, Clone, Copy)]
struct Slot {
    sector: u32,
    /// The line's position within its block.
    lane: u32,
    prev: u32,
    next: u32,
}

/// An exact-LRU residency table: block → sector → line → slot, with
/// recency as an intrusive doubly-linked list over slots (head = least
/// recently used, tail = most recently used).
///
/// Every operation is O(1): a hit unlinks + re-links at the tail, an
/// insert appends at the tail (reusing a freed slot when one exists), and
/// eviction pops the head. The head is always the exact least-recently-
/// used line, so this is observationally identical to scanning for the
/// minimum last-use stamp — just without the O(capacity) scan per miss.
///
/// The index is an open-addressed table of sector numbers (see the module
/// doc), allocated on the first insert.
#[derive(Debug, Clone)]
struct LruTable {
    /// Most lines the owner keeps resident; sizes the index.
    capacity_lines: usize,
    /// Index buckets, each a sector number or [`NO_SLOT`]; a power of two
    /// at least twice `capacity_lines` long, or empty before the first
    /// insert.
    buckets: Vec<u32>,
    /// `64 - log2(buckets.len())`: the hash keeps the top bits.
    shift: u32,
    sectors: Vec<Sector>,
    free_sectors: Vec<u32>,
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    head: u32,
    tail: u32,
}

impl LruTable {
    /// An empty table for at most `capacity_lines` (at least one)
    /// resident lines.
    fn new(capacity_lines: usize) -> Self {
        LruTable {
            capacity_lines: capacity_lines.max(1),
            buckets: Vec::new(),
            shift: 0,
            sectors: Vec::new(),
            free_sectors: Vec::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            head: NO_SLOT,
            tail: NO_SLOT,
        }
    }

    /// Resident lines.
    fn len(&self) -> usize {
        self.slots.len() - self.free_slots.len()
    }

    /// The bucket `block`'s probe starts from: a multiplicative hash of
    /// the block number.
    fn home(&self, block: u64) -> usize {
        (block.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// The bucket holding `block`'s sector, or the empty bucket ending its
    /// probe.
    fn probe(&self, block: u64) -> usize {
        let mask = self.buckets.len() - 1;
        let mut b = self.home(block);
        loop {
            let sector = self.buckets[b];
            if sector == NO_SLOT || self.sectors[sector as usize].block == block {
                return b;
            }
            b = (b + 1) & mask;
        }
    }

    /// The sector of `block`, if one of its lines is resident.
    fn find(&self, block: u64) -> Option<u32> {
        if self.buckets.is_empty() {
            return None;
        }
        let sector = self.buckets[self.probe(block)];
        (sector != NO_SLOT).then_some(sector)
    }

    /// Empties bucket `hole` by backward shift: every later entry of the
    /// probe run that may sit at or before `hole` moves back into it, so
    /// no tombstone is left and every probe still ends at the first empty
    /// bucket.
    fn remove_bucket(&mut self, mut hole: usize) {
        let mask = self.buckets.len() - 1;
        let mut b = hole;
        loop {
            b = (b + 1) & mask;
            let sector = self.buckets[b];
            if sector == NO_SLOT {
                break;
            }
            // Probe distance of the entry at `b` vs the distance from the
            // hole: the entry may fill the hole unless its home lies in
            // `(hole, b]`.
            let home = self.home(self.sectors[sector as usize].block);
            if b.wrapping_sub(home) & mask >= b.wrapping_sub(hole) & mask {
                self.buckets[hole] = sector;
                hole = b;
            }
        }
        self.buckets[hole] = NO_SLOT;
    }

    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        if prev == NO_SLOT {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NO_SLOT {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    fn link_tail(&mut self, slot: u32) {
        self.slots[slot as usize].prev = self.tail;
        self.slots[slot as usize].next = NO_SLOT;
        if self.tail == NO_SLOT {
            self.head = slot;
        } else {
            self.slots[self.tail as usize].next = slot;
        }
        self.tail = slot;
    }

    /// Accesses the lines `mask` selects in `block`, lowest first: a
    /// resident line is refreshed to most-recently-used, a missing one is
    /// inserted as most-recently-used, after a full table evicts its
    /// least-recently-used line. So at most `capacity_lines` lines are
    /// ever resident and the index stays at most half full. Returns the
    /// mask of the lines that missed.
    fn access(&mut self, block: u64, mask: u16) -> u16 {
        let mut sector = self.find(block);
        let mut misses = 0;
        for lane in lanes(mask) {
            if let Some(s) = sector {
                let slot = self.sectors[s as usize].slots[lane];
                if slot != NO_SLOT {
                    if self.tail != slot {
                        self.unlink(slot);
                        self.link_tail(slot);
                    }
                    continue;
                }
            }
            misses |= 1 << lane;
            // The victim may be the last resident line of this very block,
            // whose sector then leaves the index.
            if self.len() >= self.capacity_lines && self.evict_lru() == sector {
                sector = None;
            }
            let s = match sector {
                Some(s) => s,
                None => self.insert_sector(block),
            };
            sector = Some(s);
            self.insert_slot(s, lane);
        }
        misses
    }

    /// Adds an empty sector for a `block` with no resident line to the
    /// index, allocating the index on the first insert.
    fn insert_sector(&mut self, block: u64) -> u32 {
        if self.buckets.is_empty() {
            let buckets = (2 * self.capacity_lines).next_power_of_two().max(2);
            self.buckets = vec![NO_SLOT; buckets];
            self.shift = 64 - buckets.trailing_zeros();
        }
        let bucket = self.probe(block);
        debug_assert_eq!(self.buckets[bucket], NO_SLOT, "insert of a resident block");
        let fresh = Sector {
            block,
            slots: [NO_SLOT; BLOCK_LINES],
            resident: 0,
        };
        let sector = if let Some(sector) = self.free_sectors.pop() {
            self.sectors[sector as usize] = fresh;
            sector
        } else {
            self.sectors.push(fresh);
            u32::try_from(self.sectors.len() - 1).expect("fewer than 2^32 sectors")
        };
        self.buckets[bucket] = sector;
        sector
    }

    /// Makes line `lane` of `sector` resident as most-recently-used.
    fn insert_slot(&mut self, sector: u32, lane: usize) {
        let fresh = Slot {
            sector,
            lane: lane as u32,
            prev: NO_SLOT,
            next: NO_SLOT,
        };
        let slot = if let Some(slot) = self.free_slots.pop() {
            self.slots[slot as usize] = fresh;
            slot
        } else {
            self.slots.push(fresh);
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 cache lines")
        };
        let s = &mut self.sectors[sector as usize];
        s.slots[lane] = slot;
        s.resident += 1;
        self.link_tail(slot);
    }

    /// Evicts the least-recently-used line (the list head — exactly the
    /// line a min-last-use-stamp scan would pick) of a non-empty table.
    /// Returns the victim's sector if that left it empty, and so out of
    /// the index.
    fn evict_lru(&mut self) -> Option<u32> {
        let victim = self.head;
        self.unlink(victim);
        self.free_slots.push(victim);
        let Slot { sector, lane, .. } = self.slots[victim as usize];
        let s = &mut self.sectors[sector as usize];
        s.slots[lane as usize] = NO_SLOT;
        s.resident -= 1;
        if s.resident > 0 {
            return None;
        }
        let block = s.block;
        self.remove_bucket(self.probe(block));
        self.free_sectors.push(sector);
        Some(sector)
    }
}

/// A coherence-free shared L2: the common next level of every core's
/// private L1 in a [`crate::MultiCoreSim`].
///
/// *Coherence-free* because the simulated kernels share only read-only
/// operands (`B` tiles) and write disjoint `C` ranges per shard, so no
/// invalidation traffic is modelled. Under the §VI-B prefetch assumption
/// every lookup is a hit at `hit_latency`, exactly as the single-core model
/// assumes, and nothing is ever evicted: the level only tracks each line's
/// first toucher, for the sharing attribution. It keeps those claims by
/// block, one map entry per 1 KB block holding its 16 lines' claims, so an
/// L1 miss on a whole tile costs one hash operation per block.
///
/// A shared L2 that only one core accesses doubles as that core's
/// *first-touch summary* (each line's first stamp and access count),
/// which a [`crate::MultiCoreSim`] folds into the real L2.
#[derive(Debug, Clone)]
pub struct SharedL2 {
    hit_latency: u64,
    /// Every resident block's first-touch claims (sharing attribution),
    /// spread over [`CLAIM_MAPS`] maps by block number (see [`map_of`]).
    claims: [ClaimMap; CLAIM_MAPS],
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
            claims: Default::default(),
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

    /// Sets the clock of the accesses that follow: lines they touch first
    /// are stamped `now + 1`, which keeps stamp 0 for settled lines.
    pub fn set_now(&mut self, now: u64) {
        self.now = now + 1;
    }

    /// Settles every resident line: no later [`SharedL2::fold`] may take
    /// it from its owner, since it was touched before the run that folds.
    pub(crate) fn settle(&mut self) {
        for map in &mut self.claims {
            for claims in map.values_mut() {
                for claim in claims {
                    claim.time = 0;
                }
            }
        }
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
    /// (see [`SharedL2::access_line`]), with one hash operation.
    pub(crate) fn access_block(&mut self, core: usize, block: u64, mask: u16) -> u64 {
        let core = u32::try_from(core).expect("fewer than 2^32 simulated cores");
        let lines = u64::from(mask.count_ones());
        self.stats.accesses += lines;
        self.stats.hits += lines;
        let claims = self.claims[map_of(block)]
            .entry(block)
            .or_insert([Claim::ABSENT; BLOCK_LINES]);
        for lane in lanes(mask) {
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
    /// order it ran them.
    pub fn fold(&mut self, summary: &mut SharedL2) {
        // Plain nested loops: draining through `flat_map(HashMap::drain)`
        // made multi-core runs 20-40% slower on a 2-CPU host.
        for map in &mut summary.claims {
            for (block, theirs) in map.drain() {
                let ours = self.claims[map_of(block)]
                    .entry(block)
                    .or_insert([Claim::ABSENT; BLOCK_LINES]);
                for (ours, theirs) in ours.iter_mut().zip(&theirs) {
                    if theirs.own == 0 {
                        continue;
                    }
                    self.stats.accesses += u64::from(theirs.own);
                    self.stats.hits += u64::from(theirs.own);
                    if ours.own == 0 {
                        *ours = *theirs;
                        self.resident_lines += 1;
                    } else if ours.core == theirs.core {
                        ours.add_own(theirs.own);
                    } else if (theirs.time, theirs.core) < (ours.time, ours.core) {
                        self.stats.shared_hits += u64::from(ours.own);
                        *ours = *theirs;
                    } else {
                        self.stats.shared_hits += u64::from(theirs.own);
                    }
                }
            }
        }
        summary.resident_lines = 0;
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

    /// `count` line addresses, one in each of `count` blocks whose index
    /// home is one of the last two buckets of a `capacity`-line table:
    /// their probe runs pile up into one long run that wraps past the end
    /// of the index, so evictions delete from the middle of it, where a
    /// backward-shift bug would lose or strand an entry. Consecutive
    /// addresses sit at consecutive lines of their blocks.
    fn colliding_addrs(capacity: usize, count: usize) -> Vec<u64> {
        let mut table = LruTable::new(capacity);
        table.insert_sector(0);
        let last = table.buckets.len() - 1;
        (0u64..)
            .filter(|&block| table.home(block) + 1 >= last)
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
    /// lines of a block (where evicting the head can empty the sector
    /// being filled), one block, non-powers of two (the index rounds up)
    /// and the default 768-line L1.
    const DIFF_CAPACITIES: [usize; 11] = [1, 2, 3, 4, 5, 6, 7, 16, 64, 100, 768];

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
                assert_eq!(fast.lines.len(), reference.lines.len());
            }
        }
    }

    #[test]
    fn lru_index_is_allocated_on_first_insert_only() {
        let mut c = CacheModel::new(768, 5, 14);
        assert_eq!(c.lines.buckets.capacity(), 0, "untouched L1 holds no index");
        c.access_line(0, false);
        assert_eq!(c.lines.buckets.len(), 2048, "2 x 768 rounded up");
        assert_eq!(CacheModel::new(100, 5, 14).lines.buckets.capacity(), 0);
    }

    #[test]
    fn a_tile_load_fills_two_sectors() {
        // A 1 KB tile 64 B into its block covers 15 lines of one block and
        // the first line of the next: two index entries for 16 lines.
        let mut c = CacheModel::new(768, 5, 14);
        assert_eq!(c.access_range(1024 + 64, 1024, false), (14, 16));
        assert_eq!(c.lines.len(), 16);
        assert_eq!(c.lines.sectors.len(), 2);
        assert_eq!(c.lines.buckets.iter().filter(|&&b| b != NO_SLOT).count(), 2);
        // The next tile fills the second block and starts a third.
        assert_eq!(c.access_range(2048 + 64, 1024, false), (14, 16));
        assert_eq!(c.lines.sectors.len(), 3);
        assert_eq!(
            c.access_range(2048, 64, false),
            (5, 1),
            "line 32 is resident"
        );
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
        l2.claims
            .iter()
            .flat_map(HashMap::iter)
            .flat_map(|(&block, claims)| {
                lanes(u16::MAX)
                    .filter(|&lane| claims[lane].own > 0)
                    .map(move |lane| {
                        let line = block * BLOCK_LINES as u64 + lane as u64;
                        (line * LINE_BYTES, claims[lane])
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
            c.access_line(i * 64, false);
        }
        // Two live lines, at most three slots and sectors ever allocated
        // (two resident plus one freed-and-reused): eviction must recycle,
        // not grow.
        assert_eq!(c.lines.len(), 2);
        assert!(
            c.lines.slots.len() <= 3 && c.lines.sectors.len() <= 3,
            "slots grew to {} and sectors to {} for a 2-line cache",
            c.lines.slots.len(),
            c.lines.sectors.len()
        );
    }
}

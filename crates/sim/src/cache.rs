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
//!   residency-tracked, coherence-free level every core's L1 misses flow
//!   into. A line any core brought in hits for every other core (a *shared
//!   hit* — no invalidations, the workloads are read-shared weights), and
//!   under the §VI-B prefetch assumption even cold lines are already
//!   resident. [`SharedL2Stats`] reports the hit/miss/sharing split.
//!
//! Per-core [`CacheStats`] merge across cores ([`CacheStats::merge`] /
//! `+=`) so a multi-core run can report aggregate traffic.
//!
//! # Replacement in O(1)
//!
//! An exact-LRU table (`LruTable`) keeps each resident line in a *slot*:
//! its address, and its links in an intrusive doubly-linked recency list
//! over slot numbers. A hit unlinks the line and re-links it at the MRU
//! tail; a miss at capacity evicts the list head and reuses its slot.
//! Because every access moves the touched line to the tail, the head is
//! always the line whose last use is oldest — the exact same victim a
//! last-use-stamp scan would pick (stamps are strictly increasing, so the
//! minimum stamp *is* the list head).
//!
//! Lines find their slot through an open-addressed index of `u32` slot
//! numbers, a power of two at least twice the capacity long, so it is at
//! most half full. A lookup probes linearly from a multiplicative hash of
//! the line number and compares keys through the slot's address, so no
//! key is stored twice; an eviction deletes by backward shift, moving
//! later entries of the probe run into the hole, so no tombstones build
//! up. The index is allocated on the first insert: a prefetched
//! [`SharedL2`] never evicts and keeps no table at all.
//!
//! Every access of a Fig. 13 replay goes through the L1's table, and most
//! of them miss (a ~7% hit ratio), so a miss is three short probes and a
//! shift-delete in one small array rather than three SipHash map
//! operations. The equivalence with the stamp scan is pinned by
//! randomized differential tests against a reference model.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Cache line size in bytes.
pub const LINE_BYTES: u64 = 64;

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
    /// Lookups that found the line resident (or covered by the prefetch
    /// assumption).
    pub hits: u64,
    /// Lookups that had to fetch the line from memory (only possible with
    /// the prefetch assumption disabled).
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
    /// touch included. Every other access is a shared hit.
    own: u32,
}

// One claim per resident line: a GPT-L3 multi-core cell holds hundreds of
// thousands, so 16 bytes rather than 24 keeps the claim map's peak down.
const _: () = assert!(std::mem::size_of::<Claim>() == 16);

impl Claim {
    /// Counts one more access by the first toucher.
    fn add_own(&mut self, accesses: u32) {
        self.own = self
            .own
            .checked_add(accesses)
            .expect("one core touches one line fewer than 2^32 times");
    }
}

/// Hashes the line addresses keying a [`SharedL2`]'s claims on every L1
/// miss: a multiply, then the high half folded into the low half so that
/// 64 B-aligned addresses still spread across buckets. The keys are
/// simulated addresses, so a DoS-resistant hasher would only cost time.
#[derive(Debug, Clone, Copy, Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, line: u64) {
        let h = line.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

/// Sentinel for "no slot": an empty index bucket, or the end of the
/// intrusive recency list.
const NO_SLOT: u32 = u32::MAX;

/// An exact-LRU residency table: line address → slot, with recency as an
/// intrusive doubly-linked list over slots (head = least recently used,
/// tail = most recently used).
///
/// Every operation is O(1): a hit unlinks + re-links at the tail, an
/// insert appends at the tail (reusing a freed slot when one exists), and
/// eviction pops the head. The head is always the exact least-recently-
/// used line, so this is observationally identical to scanning for the
/// minimum last-use stamp — just without the O(capacity) scan per miss.
///
/// The index is an open-addressed table of slot numbers (see the module
/// doc), allocated on the first insert.
#[derive(Debug, Clone)]
struct LruTable {
    /// Most lines the owner keeps resident; sizes the index.
    capacity_lines: usize,
    /// Index buckets, each a slot number or [`NO_SLOT`]; a power of two at
    /// least twice `capacity_lines` long, or empty before the first insert.
    buckets: Vec<u32>,
    /// `64 - log2(buckets.len())`: the hash keeps the top bits.
    shift: u32,
    addrs: Vec<u64>,
    prev: Vec<u32>,
    next: Vec<u32>,
    free: Vec<u32>,
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
            addrs: Vec::new(),
            prev: Vec::new(),
            next: Vec::new(),
            free: Vec::new(),
            head: NO_SLOT,
            tail: NO_SLOT,
        }
    }

    /// Resident lines.
    fn len(&self) -> usize {
        self.addrs.len() - self.free.len()
    }

    /// The bucket `addr`'s probe starts from: a multiplicative hash of its
    /// line number.
    fn home(&self, addr: u64) -> usize {
        ((addr / LINE_BYTES).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// The bucket holding `addr`, or the empty bucket ending its probe.
    fn probe(&self, addr: u64) -> usize {
        let mask = self.buckets.len() - 1;
        let mut b = self.home(addr);
        loop {
            let slot = self.buckets[b];
            if slot == NO_SLOT || self.addrs[slot as usize] == addr {
                return b;
            }
            b = (b + 1) & mask;
        }
    }

    /// The slot of `addr`, if it is resident.
    fn find(&self, addr: u64) -> Option<u32> {
        if self.buckets.is_empty() {
            return None;
        }
        let slot = self.buckets[self.probe(addr)];
        (slot != NO_SLOT).then_some(slot)
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
            let slot = self.buckets[b];
            if slot == NO_SLOT {
                break;
            }
            // Probe distance of the entry at `b` vs the distance from the
            // hole: the entry may fill the hole unless its home lies in
            // `(hole, b]`.
            let home = self.home(self.addrs[slot as usize]);
            if b.wrapping_sub(home) & mask >= b.wrapping_sub(hole) & mask {
                self.buckets[hole] = slot;
                hole = b;
            }
        }
        self.buckets[hole] = NO_SLOT;
    }

    fn unlink(&mut self, slot: u32) {
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        if p == NO_SLOT {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NO_SLOT {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
    }

    fn link_tail(&mut self, slot: u32) {
        self.prev[slot as usize] = self.tail;
        self.next[slot as usize] = NO_SLOT;
        if self.tail == NO_SLOT {
            self.head = slot;
        } else {
            self.next[self.tail as usize] = slot;
        }
        self.tail = slot;
    }

    /// If `addr` is resident, refreshes it to most-recently-used and
    /// returns `true`.
    fn touch(&mut self, addr: u64) -> bool {
        let Some(slot) = self.find(addr) else {
            return false;
        };
        if self.tail != slot {
            self.unlink(slot);
            self.link_tail(slot);
        }
        true
    }

    /// Inserts a non-resident `addr` as most-recently-used. A full table
    /// first evicts its least-recently-used line and returns its address,
    /// so at most `capacity_lines` lines are ever resident and the index
    /// stays at most half full.
    fn insert(&mut self, addr: u64) -> Option<u64> {
        let victim = (self.len() >= self.capacity_lines).then(|| self.evict_lru());
        if self.buckets.is_empty() {
            let buckets = (2 * self.capacity_lines).next_power_of_two().max(2);
            self.buckets = vec![NO_SLOT; buckets];
            self.shift = 64 - buckets.trailing_zeros();
        }
        let bucket = self.probe(addr);
        debug_assert_eq!(self.buckets[bucket], NO_SLOT, "insert of resident line");
        let slot = if let Some(slot) = self.free.pop() {
            self.addrs[slot as usize] = addr;
            slot
        } else {
            let slot = u32::try_from(self.addrs.len()).expect("fewer than 2^32 cache lines");
            self.addrs.push(addr);
            self.prev.push(NO_SLOT);
            self.next.push(NO_SLOT);
            slot
        };
        self.buckets[bucket] = slot;
        self.link_tail(slot);
        victim
    }

    /// Evicts the least-recently-used line (the list head — exactly the
    /// line a min-last-use-stamp scan would pick) of a non-empty table,
    /// returning its address.
    fn evict_lru(&mut self) -> u64 {
        let victim = self.head;
        self.unlink(victim);
        let addr = self.addrs[victim as usize];
        let bucket = self.probe(addr);
        self.remove_bucket(bucket);
        self.free.push(victim);
        addr
    }
}

/// A coherence-free shared L2: the common next level of every core's
/// private L1 in a [`crate::MultiCoreSim`].
///
/// *Coherence-free* because the simulated kernels share only read-only
/// operands (`B` tiles) and write disjoint `C` ranges per shard, so no
/// invalidation traffic is modelled: a line is resident for every core once
/// any core has touched it. With `prefetched` set (the §VI-B default) every
/// lookup is a hit at `hit_latency`, exactly as the single-core model
/// assumes, and nothing is ever evicted; without it, cold lines cost
/// `miss_latency` and capacity is enforced with exact O(1) LRU replacement.
///
/// A prefetched L2 that only one core accesses doubles as that core's
/// *first-touch summary* (each line's first stamp and access count),
/// which a host-parallel [`crate::MultiCoreSim`] folds into the real L2.
#[derive(Debug, Clone)]
pub struct SharedL2 {
    capacity_lines: usize,
    hit_latency: u64,
    miss_latency: u64,
    /// Recency of the resident lines; `None` under the prefetch
    /// assumption, which never evicts.
    recency: Option<LruTable>,
    /// Every resident line's first-touch claim (sharing attribution).
    claims: HashMap<u64, Claim, BuildHasherDefault<LineHasher>>,
    stats: SharedL2Stats,
    /// Stamp recorded on lines first touched from now on.
    now: u64,
}

impl SharedL2 {
    /// A shared L2 with `capacity_lines` lines, hitting in `hit_latency`
    /// core cycles and missing to memory in `miss_latency`, with the
    /// prefetch assumption *off*.
    pub fn new(capacity_lines: usize, hit_latency: u64, miss_latency: u64) -> Self {
        SharedL2 {
            capacity_lines: capacity_lines.max(1),
            hit_latency,
            miss_latency,
            recency: Some(LruTable::new(capacity_lines)),
            claims: HashMap::default(),
            stats: SharedL2Stats::default(),
            now: 0,
        }
    }

    /// Enables (or disables) the §VI-B prefetch assumption: every lookup
    /// hits at the hit latency, and residency tracking only attributes
    /// sharing. Set it before the first access.
    pub fn with_prefetched(mut self, prefetched: bool) -> Self {
        self.recency = (!prefetched).then(|| LruTable::new(self.capacity_lines));
        self
    }

    /// Whether the prefetch assumption is on.
    pub fn is_prefetched(&self) -> bool {
        self.recency.is_none()
    }

    /// Statistics so far.
    pub fn stats(&self) -> SharedL2Stats {
        self.stats
    }

    /// Resident lines.
    pub(crate) fn resident_lines(&self) -> usize {
        self.claims.len()
    }

    /// Sets the clock of the accesses that follow: lines they touch first
    /// are stamped `now + 1`, which keeps stamp 0 for settled lines.
    pub(crate) fn set_now(&mut self, now: u64) {
        self.now = now + 1;
    }

    /// Settles every resident line: no later [`SharedL2::fold`] may take
    /// it from its owner, since it was touched before the run that folds.
    pub(crate) fn settle(&mut self) {
        for claim in self.claims.values_mut() {
            claim.time = 0;
        }
    }

    /// Looks up one line on behalf of `core`, updating residency and
    /// sharing attribution; returns the load-to-use latency.
    pub fn access_line(&mut self, core: usize, line_addr: u64) -> u64 {
        let core = u32::try_from(core).expect("fewer than 2^32 simulated cores");
        self.stats.accesses += 1;
        if let Some(claim) = self.claims.get_mut(&line_addr) {
            if let Some(recency) = &mut self.recency {
                recency.touch(line_addr);
            }
            self.stats.hits += 1;
            if claim.core == core {
                claim.add_own(1);
            } else {
                self.stats.shared_hits += 1;
            }
            return self.hit_latency;
        }
        let claim = Claim {
            time: self.now,
            core,
            own: 1,
        };
        self.claims.insert(line_addr, claim);
        let Some(recency) = &mut self.recency else {
            // The data was preloaded (§VI-B): the first touch is a hit too.
            self.stats.hits += 1;
            return self.hit_latency;
        };
        // Capacity only matters when misses cost something.
        if let Some(victim) = recency.insert(line_addr) {
            self.claims.remove(&victim);
        }
        self.stats.misses += 1;
        self.miss_latency
    }

    /// Drains one core's first-touch `summary` into this prefetched L2, as
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
    pub(crate) fn fold(&mut self, summary: &mut SharedL2) {
        debug_assert!(
            self.is_prefetched() && summary.is_prefetched(),
            "only a prefetched L2 never evicts"
        );
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

/// An LRU-tracked private L1 backed by a flat next level (the single-core
/// always-hitting L2) or, in multi-core runs, a [`SharedL2`].
#[derive(Debug, Clone)]
pub struct CacheModel {
    l1_latency: u64,
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

    /// Looks up one line, updating LRU state, and returns its load-to-use
    /// latency; misses are served by the flat always-hitting L2.
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
        if is_store {
            self.stats.bytes_written += LINE_BYTES;
        } else {
            self.stats.bytes_read += LINE_BYTES;
        }
        if self.lines.touch(line_addr) {
            self.stats.l1_hits += 1;
            return self.l1_latency;
        }
        self.stats.l2_hits += 1;
        self.lines.insert(line_addr);
        match next {
            Some((core, l2)) => l2.access_line(core, line_addr),
            None => self.l2_latency,
        }
    }

    /// Accesses a byte range, touching every covered line; returns the
    /// latency until the *first* line is available and the number of lines.
    ///
    /// Tile loads are converted into one request per 64 B line (§V-F); the
    /// pipelined transfer cost is handled by the port model in the core.
    pub fn access_range(&mut self, addr: u64, bytes: usize, is_store: bool) -> (u64, u64) {
        self.access_range_via(addr, bytes, is_store, None)
    }

    /// [`CacheModel::access_range`] with an explicit shared next level (see
    /// [`CacheModel::access_line_via`]).
    pub fn access_range_via(
        &mut self,
        addr: u64,
        bytes: usize,
        is_store: bool,
        mut next: Option<(usize, &mut SharedL2)>,
    ) -> (u64, u64) {
        let first = addr / LINE_BYTES;
        let last = (addr + bytes.max(1) as u64 - 1) / LINE_BYTES;
        let mut worst = 0;
        for line in first..=last {
            let hop = match next.as_mut() {
                Some((core, l2)) => {
                    self.access_line_via(line * LINE_BYTES, is_store, Some((*core, l2)))
                }
                None => self.access_line(line * LINE_BYTES, is_store),
            };
            worst = worst.max(hop);
        }
        (worst, last - first + 1)
    }
}

#[cfg(test)]
mod tests {
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
        let mut l2 = SharedL2::new(64, 14, 100);
        assert_eq!(l2.access_line(0, 0), 100, "cold miss goes to memory");
        assert_eq!(l2.access_line(0, 0), 14, "same-core reuse is a plain hit");
        assert_eq!(
            l2.access_line(1, 0),
            14,
            "another core hits the shared line"
        );
        let stats = l2.stats();
        assert_eq!(stats.accesses, 3);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.shared_hits, 1, "only the cross-core hit is shared");
        assert!((stats.shared_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(SharedL2Stats::default().shared_fraction(), 0.0);
    }

    #[test]
    fn prefetched_shared_l2_always_hits_at_l2_latency() {
        let mut l2 = SharedL2::new(4, 14, 100).with_prefetched(true);
        assert!(l2.is_prefetched());
        for line in 0..8u64 {
            assert_eq!(l2.access_line(0, line * 64), 14, "prefetched: never a miss");
        }
        let stats = l2.stats();
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.hits, 8);
    }

    #[test]
    fn shared_l2_capacity_evicts_lru() {
        let mut l2 = SharedL2::new(2, 14, 100);
        l2.access_line(0, 0);
        l2.access_line(0, 64);
        l2.access_line(0, 0); // refresh line 0
        l2.access_line(0, 128); // evicts 64
        assert_eq!(l2.access_line(0, 0), 14, "line 0 stayed resident");
        assert_eq!(l2.access_line(0, 64), 100, "line 64 was evicted");
    }

    #[test]
    fn l1_miss_consults_the_shared_next_level() {
        let mut l2 = SharedL2::new(64, 14, 100).with_prefetched(true);
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

    /// The pre-optimization reference: last-use stamps in a map, with an
    /// O(capacity) min-stamp scan to pick the eviction victim. The O(1)
    /// list must be observationally identical to this.
    struct StampScanReference {
        capacity: usize,
        l1_latency: u64,
        l2_latency: u64,
        lines: HashMap<u64, u64>,
        stamp: u64,
    }

    impl StampScanReference {
        fn new(capacity: usize, l1_latency: u64, l2_latency: u64) -> Self {
            StampScanReference {
                capacity: capacity.max(1),
                l1_latency,
                l2_latency,
                lines: HashMap::new(),
                stamp: 0,
            }
        }

        fn access_line(&mut self, line_addr: u64) -> u64 {
            self.stamp += 1;
            if self.lines.contains_key(&line_addr) {
                self.lines.insert(line_addr, self.stamp);
                return self.l1_latency;
            }
            if self.lines.len() >= self.capacity {
                if let Some((&victim, _)) = self.lines.iter().min_by_key(|(_, &s)| s) {
                    self.lines.remove(&victim);
                }
            }
            self.lines.insert(line_addr, self.stamp);
            self.l2_latency
        }
    }

    /// `count` line addresses whose index home is one of the last two
    /// buckets of a `capacity`-line table: their probe runs pile up into
    /// one long run that wraps past the end of the index, so evictions
    /// delete from the middle of it, where a backward-shift bug would lose
    /// or strand an entry.
    fn colliding_addrs(capacity: usize, count: usize) -> Vec<u64> {
        let mut table = LruTable::new(capacity);
        table.insert(0);
        let last = table.buckets.len() - 1;
        (0u64..)
            .map(|line| line * LINE_BYTES)
            .filter(|&addr| table.home(addr) + 1 >= last)
            .take(count)
            .collect()
    }

    /// Line addresses `0, 64, .. 64 * (count - 1)`.
    fn sequential_addrs(count: usize) -> Vec<u64> {
        (0..count as u64).map(|line| line * LINE_BYTES).collect()
    }

    /// Capacities the differential tests cover: tiny ones, non-powers of
    /// two (the index rounds up) and the default 768-line L1.
    const DIFF_CAPACITIES: [usize; 9] = [1, 2, 3, 5, 7, 16, 64, 100, 768];

    #[test]
    fn o1_lru_is_identical_to_the_stamp_scan_reference() {
        // Deterministic xorshift address sequences over a working set a
        // few times the capacity, across several capacities: the fast list
        // and the reference scan must agree on every single access.
        for capacity in DIFF_CAPACITIES {
            let span = capacity * 3 + 1;
            for pool in [sequential_addrs(span), colliding_addrs(capacity, span)] {
                let mut fast = CacheModel::new(capacity, 5, 14);
                let mut reference = StampScanReference::new(capacity, 5, 14);
                let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ capacity as u64;
                let phase = 512.max(4 * capacity as u64);
                for step in 0..4000.max(8 * capacity as u64) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
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
                assert_eq!(fast.lines.len(), reference.lines.len());
            }
        }
    }

    #[test]
    fn shared_l2_o1_lru_matches_reference_victims() {
        // Same differential for the shared level with the prefetch
        // assumption off (the only configuration that evicts).
        for capacity in DIFF_CAPACITIES {
            let span = capacity * 4 + 1;
            for pool in [sequential_addrs(span), colliding_addrs(capacity, span)] {
                let mut fast = SharedL2::new(capacity, 14, 100);
                let mut reference = StampScanReference::new(capacity, 14, 100);
                let mut x = 0xdead_beef_cafe_f00du64 ^ capacity as u64;
                for step in 0..3000.max(8 * capacity as u64) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let addr = pool[(x % span as u64) as usize];
                    assert_eq!(
                        fast.access_line((step % 3) as usize, addr),
                        reference.access_line(addr),
                        "capacity {capacity}, step {step}, addr {addr}"
                    );
                }
                assert_eq!(fast.resident_lines(), reference.lines.len());
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

        let mut l2 =
            SharedL2::new(crate::multicore::DEFAULT_L2_LINES, 14, 100).with_prefetched(true);
        for line in 0..4096u64 {
            l2.access_line((line % 4) as usize, line * LINE_BYTES);
        }
        assert!(l2.recency.is_none(), "a prefetched L2 keeps no LRU table");
        let cold = SharedL2::new(crate::multicore::DEFAULT_L2_LINES, 14, 100);
        let recency = cold.recency.as_ref().expect("a cold L2 tracks recency");
        assert_eq!(recency.buckets.capacity(), 0, "untouched cold L2: no index");
    }

    /// One core's first-touch summary of `(stamp, line)` accesses.
    fn summary(core: usize, accesses: &[(u64, u64)]) -> SharedL2 {
        let mut l2 = SharedL2::new(1, 14, 14).with_prefetched(true);
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
        // event merge would deliver them.
        let mut global: Vec<(u64, usize, u64)> = parts
            .iter()
            .flat_map(|(core, a)| a.iter().map(move |&(t, line)| (t, *core, line)))
            .collect();
        global.sort_by_key(|&(t, core, _)| (t, core));
        let mut merged = SharedL2::new(4, 14, 100).with_prefetched(true);
        for (_, core, line) in global {
            merged.access_line(core, line);
        }
        let expected = merged.stats();
        assert_eq!((expected.accesses, expected.shared_hits), (10, 6));
        for order in [[0, 1, 2, 3], [3, 2, 0, 1], [2, 0, 3, 1], [0, 3, 1, 2]] {
            let mut real = SharedL2::new(4, 14, 100).with_prefetched(true);
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
        let mut real = SharedL2::new(4, 14, 100).with_prefetched(true);
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

    #[test]
    fn lru_table_reuses_freed_slots() {
        let mut c = CacheModel::new(2, 5, 14);
        for i in 0..100u64 {
            c.access_line(i * 64, false);
        }
        // Two live lines, at most three slots ever allocated (two resident
        // plus one freed-and-reused): eviction must recycle, not grow.
        assert_eq!(c.lines.len(), 2);
        assert!(
            c.lines.addrs.len() <= 3,
            "slots grew to {} for a 2-line cache",
            c.lines.addrs.len()
        );
    }
}

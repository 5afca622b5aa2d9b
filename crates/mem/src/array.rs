//! Set-associative tag array with pluggable replacement.
//!
//! Used for the private L1s (32 KB, 4-way) and the L2 banks (1 MB
//! SRAM / 4 MB STT-RAM, 16-way), parameterized over per-line metadata.
//! True LRU is the default (the paper's policy); tree pseudo-LRU and
//! seeded random are available for ablations (see
//! [`crate::replacement`]).
//!
//! Line storage is allocated on the first [`CacheArray::insert`]: a
//! 4 MB STT-RAM bank is tens of megabytes of bookkeeping, and the
//! profile-driven (tagless) banks never fill a line. Until then every
//! lookup answers as an all-invalid array would.

use crate::replacement::{ReplacementKind, SetState};
use snoc_common::rng::SimRng;

/// One cache line's bookkeeping.
#[derive(Debug, Clone)]
pub struct Line<M> {
    tag: u64,
    valid: bool,
    lru: u64,
    /// Caller-owned metadata (coherence state, dirty bit, directory
    /// entry, ...).
    pub meta: M,
}

/// The outcome of an [`CacheArray::insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eviction<M> {
    /// The replaced block's address (block-aligned).
    pub addr: u64,
    /// Its metadata at eviction time.
    pub meta: M,
}

/// A set-associative tag array.
#[derive(Debug, Clone)]
pub struct CacheArray<M> {
    sets: usize,
    ways: usize,
    block_bits: u32,
    /// `sets * ways` lines once allocated; empty until the first insert.
    lines: Vec<Line<M>>,
    stamp: u64,
    hits: u64,
    misses: u64,
    policy: ReplacementKind,
    /// One entry per set once allocated, like `lines`.
    set_state: Vec<SetState>,
    rng: Option<SimRng>,
}

impl<M: Default + Clone> CacheArray<M> {
    /// Creates an array of `capacity_bytes` with `ways` ways and
    /// `block_bytes` blocks.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity_bytes` divides evenly into at least one
    /// power-of-two set of `ways x block_bytes`.
    pub fn new(capacity_bytes: usize, ways: usize, block_bytes: usize) -> Self {
        Self::with_policy(capacity_bytes, ways, block_bytes, ReplacementKind::Lru, 0)
    }

    /// Creates an array with an explicit replacement policy; `seed`
    /// feeds the random policy (ignored otherwise).
    pub fn with_policy(
        capacity_bytes: usize,
        ways: usize,
        block_bytes: usize,
        policy: ReplacementKind,
        seed: u64,
    ) -> Self {
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        let sets = capacity_bytes / (ways * block_bytes);
        assert!(
            sets > 0,
            "capacity too small for {ways} ways of {block_bytes} B"
        );
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        // Checks the policy's geometry now, not at the first insert.
        let _ = SetState::new(policy, ways);
        Self {
            sets,
            ways,
            block_bits: block_bytes.trailing_zeros(),
            lines: Vec::new(),
            stamp: 0,
            hits: 0,
            misses: 0,
            policy,
            set_state: Vec::new(),
            rng: matches!(policy, ReplacementKind::Random)
                .then(|| SimRng::for_stream(seed, 0xCAC4E)),
        }
    }

    /// Allocates every line invalid and every set's replacement state
    /// fresh: exactly the state an untouched array stands for.
    fn allocate(&mut self) {
        let invalid = Line {
            tag: 0,
            valid: false,
            lru: 0,
            meta: M::default(),
        };
        self.lines = vec![invalid; self.sets * self.ways];
        self.set_state = (0..self.sets)
            .map(|_| SetState::new(self.policy, self.ways))
            .collect();
    }

    /// Whether line storage has been allocated.
    #[cfg(test)]
    pub(crate) fn is_allocated(&self) -> bool {
        !self.lines.is_empty()
    }

    /// The replacement policy in force.
    pub fn policy(&self) -> ReplacementKind {
        self.policy
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Block size in bytes.
    pub fn block_bytes(&self) -> usize {
        1 << self.block_bits
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * self.block_bytes()
    }

    /// Hits recorded by `probe`.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded by `probe`.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.block_bits) as usize) & (self.sets - 1)
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.block_bits >> self.sets.trailing_zeros()
    }

    /// The block-aligned address of a line.
    fn addr_of(&self, set: usize, tag: u64) -> u64 {
        ((tag << self.sets.trailing_zeros()) | set as u64) << self.block_bits
    }

    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// The set and way holding `addr`, if resident (never, before the
    /// first insert).
    fn find(&self, addr: u64) -> Option<(usize, usize)> {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let lines = self.lines.get(self.slot(set, 0)..self.slot(set + 1, 0))?;
        let way = lines.iter().position(|l| l.valid && l.tag == tag)?;
        Some((set, way))
    }

    /// Looks up `addr`, updating LRU and hit/miss counters. Returns
    /// mutable metadata on a hit.
    pub fn probe(&mut self, addr: u64) -> Option<&mut M> {
        self.stamp += 1;
        let Some((set, way)) = self.find(addr) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.set_state[set].touch(way, self.ways);
        let idx = self.slot(set, way);
        self.lines[idx].lru = self.stamp;
        Some(&mut self.lines[idx].meta)
    }

    /// Looks up `addr` without perturbing LRU or counters.
    pub fn peek(&self, addr: u64) -> Option<&M> {
        let (set, way) = self.find(addr)?;
        Some(&self.lines[self.slot(set, way)].meta)
    }

    /// Mutable variant of [`CacheArray::peek`].
    pub fn peek_mut(&mut self, addr: u64) -> Option<&mut M> {
        let (set, way) = self.find(addr)?;
        let idx = self.slot(set, way);
        Some(&mut self.lines[idx].meta)
    }

    /// Installs `addr` with `meta`, evicting the LRU victim if the set
    /// is full. Returns the eviction, if any.
    ///
    /// # Panics
    ///
    /// Panics if the block is already present (callers must `probe`
    /// first).
    pub fn insert(&mut self, addr: u64, meta: M) -> Option<Eviction<M>> {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        debug_assert!(
            self.peek(addr).is_none(),
            "inserting a block that is already present"
        );
        if self.lines.is_empty() {
            self.allocate();
        }
        self.stamp += 1;
        // Prefer an invalid way.
        for way in 0..self.ways {
            let idx = self.slot(set, way);
            if !self.lines[idx].valid {
                self.lines[idx] = Line {
                    tag,
                    valid: true,
                    lru: self.stamp,
                    meta,
                };
                self.set_state[set].touch(way, self.ways);
                return None;
            }
        }
        // Evict the policy's victim.
        let stamps: Vec<u64> = (0..self.ways)
            .map(|w| self.lines[self.slot(set, w)].lru)
            .collect();
        let victim_way = self.set_state[set].victim(self.ways, &stamps, self.rng.as_mut());
        let victim = self.slot(set, victim_way);
        let old = &self.lines[victim];
        let evicted = Eviction {
            addr: self.addr_of(set, old.tag),
            meta: old.meta.clone(),
        };
        self.lines[victim] = Line {
            tag,
            valid: true,
            lru: self.stamp,
            meta,
        };
        self.set_state[set].touch(victim_way, self.ways);
        Some(evicted)
    }

    /// Removes `addr` if present, returning its metadata.
    pub fn invalidate(&mut self, addr: u64) -> Option<M> {
        let (set, way) = self.find(addr)?;
        let idx = self.slot(set, way);
        let line = &mut self.lines[idx];
        line.valid = false;
        Some(std::mem::take(&mut line.meta))
    }

    /// Iterates over all valid blocks as `(addr, &meta)`, set by set.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &M)> {
        self.lines
            .chunks_exact(self.ways)
            .enumerate()
            .flat_map(move |(set, lines)| {
                lines
                    .iter()
                    .filter(|l| l.valid)
                    .map(move |l| (self.addr_of(set, l.tag), &l.meta))
            })
    }
}

impl<M: Default + Clone> Default for CacheArray<M> {
    fn default() -> Self {
        Self::new(32 * 1024, 4, 128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> CacheArray<bool> {
        // 32 KB, 4-way, 128 B blocks: 64 sets.
        CacheArray::new(32 * 1024, 4, 128)
    }

    #[test]
    fn geometry_matches_table1() {
        let a = l1();
        assert_eq!(a.sets(), 64);
        assert_eq!(a.ways(), 4);
        assert_eq!(a.block_bytes(), 128);
        assert_eq!(a.capacity_bytes(), 32 * 1024);
        let l2 = CacheArray::<bool>::new(1024 * 1024, 16, 128);
        assert_eq!(l2.sets(), 512);
        let l2stt = CacheArray::<bool>::new(4 * 1024 * 1024, 16, 128);
        assert_eq!(l2stt.sets(), 2048);
    }

    #[test]
    fn probe_miss_then_hit() {
        let mut a = l1();
        assert!(a.probe(0x1000).is_none());
        a.insert(0x1000, true);
        assert_eq!(a.probe(0x1000), Some(&mut true));
        assert_eq!(a.hits(), 1);
        assert_eq!(a.misses(), 1);
    }

    #[test]
    fn same_block_offsets_hit_together() {
        let mut a = l1();
        a.insert(0x1000, false);
        assert!(a.probe(0x1000 + 127).is_some());
        assert!(a.probe(0x1000 + 128).is_none(), "next block differs");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut a = CacheArray::<u32>::new(4 * 128, 4, 128); // 1 set, 4 ways
        for i in 0..4u64 {
            a.insert(i * 128, i as u32);
        }
        // Touch 0, 1, 2 — way 3 is LRU.
        for i in 0..3u64 {
            a.probe(i * 128);
        }
        let ev = a.insert(4 * 128, 9).expect("set full");
        assert_eq!(ev.addr, 3 * 128);
        assert_eq!(ev.meta, 3);
    }

    #[test]
    fn insert_prefers_invalid_ways() {
        let mut a = CacheArray::<u32>::new(4 * 128, 4, 128);
        a.insert(0, 0);
        assert!(a.insert(128, 1).is_none(), "free ways left");
    }

    #[test]
    fn invalidate_removes() {
        let mut a = CacheArray::<u32>::new(32 * 1024, 4, 128);
        a.insert(0x40_0000, 7u32);
        assert_eq!(a.invalidate(0x40_0000), Some(7));
        assert!(a.probe(0x40_0000).is_none());
        assert_eq!(a.invalidate(0x40_0000), None);
    }

    #[test]
    fn eviction_reconstructs_block_address() {
        let mut a = CacheArray::<u32>::new(2 * 128 * 2, 2, 128); // 2 sets, 2 ways
                                                                 // Fill set 0 (addresses with set bit 0).
        a.insert(0x0000, 1);
        a.insert(0x0100, 2); // 0x100 = set 0 again? 0x100>>7 = 2 -> set 0.
        let ev = a.insert(0x0200, 3).unwrap();
        assert_eq!(ev.addr, 0x0000);
        assert!(a.peek(0x0100).is_some());
        assert!(a.peek(0x0200).is_some());
    }

    #[test]
    fn peek_does_not_touch_lru() {
        let mut a = CacheArray::<u32>::new(2 * 128, 2, 128); // 1 set, 2 ways
        a.insert(0, 0);
        a.insert(128, 1);
        // Peek way 0 repeatedly; it must still be the LRU victim.
        for _ in 0..5 {
            assert!(a.peek(0).is_some());
        }
        a.probe(128);
        let ev = a.insert(256, 2).unwrap();
        assert_eq!(ev.addr, 0);
    }

    #[test]
    fn iter_visits_valid_lines() {
        let mut a = l1();
        a.insert(0x1000, true);
        a.insert(0x2000, false);
        let mut addrs: Vec<u64> = a.iter().map(|(addr, _)| addr).collect();
        addrs.sort_unstable();
        assert_eq!(addrs, vec![0x1000, 0x2000]);
    }

    #[test]
    fn plru_and_random_policies_work_end_to_end() {
        use crate::replacement::ReplacementKind;
        for policy in [ReplacementKind::TreePlru, ReplacementKind::Random] {
            let mut a = CacheArray::<u32>::with_policy(4 * 128, 4, 128, policy, 42);
            assert_eq!(a.policy(), policy);
            for i in 0..4u64 {
                a.insert(i * 128, i as u32);
            }
            // A fifth insert evicts exactly one resident line.
            let ev = a.insert(4 * 128, 9).expect("set full");
            assert!(ev.addr < 4 * 128);
            let resident = (0..5u64).filter(|&i| a.peek(i * 128).is_some()).count();
            assert_eq!(resident, 4, "{policy:?}");
        }
    }

    #[test]
    fn plru_keeps_hot_lines_resident() {
        use crate::replacement::ReplacementKind;
        let mut a = CacheArray::<()>::with_policy(8 * 128, 8, 128, ReplacementKind::TreePlru, 0);
        // Line 0 is hot; a stream of other lines churns the set.
        a.insert(0, ());
        for i in 1..200u64 {
            assert!(a.probe(0).is_some(), "hot line evicted at step {i}");
            if a.probe(i * 128).is_none() {
                a.insert(i * 128, ());
            }
        }
    }

    #[test]
    fn capacity_effect_on_miss_rate() {
        // The 4x STT-RAM bank keeps a working set the SRAM bank
        // cannot: the capacity effect behind Figure 6's read-intensive
        // wins.
        let mut small = CacheArray::<()>::new(64 * 1024, 16, 128);
        let mut big = CacheArray::<()>::new(256 * 1024, 16, 128);
        let blocks: Vec<u64> = (0..1500u64).map(|i| i * 128).collect();
        for pass in 0..4 {
            for &b in &blocks {
                for a in [&mut small, &mut big] {
                    if a.probe(b).is_none() {
                        a.insert(b, ());
                    }
                }
                let _ = pass;
            }
        }
        assert!(big.misses() < small.misses() / 2);
    }

    /// Drives `a` through a seeded mix of every operation and records
    /// each answer with the hit/miss counters after it.
    fn transcript(a: &mut CacheArray<u32>, seed: u64) -> Vec<String> {
        let mut rng = SimRng::for_stream(seed, 1);
        let mut log = Vec::new();
        for step in 0..2_000u32 {
            let addr = rng.below(64) as u64 * 128 + rng.below(128) as u64;
            // Lookups only at first, so the unallocated array answers too.
            let out = match rng.below(if step < 64 { 5 } else { 6 }) {
                0 => format!("{:?}", a.probe(addr)),
                1 => format!("{:?}", a.peek(addr)),
                2 => format!(
                    "{:?}",
                    a.peek_mut(addr).map(|m| {
                        *m += 1;
                        *m
                    })
                ),
                3 => format!("{:?}", a.invalidate(addr)),
                4 => format!("{:?}", a.iter().collect::<Vec<_>>()),
                _ if a.peek(addr).is_some() => "present".to_string(),
                _ => format!("{:?}", a.insert(addr, step)),
            };
            log.push(format!("{out} hits={} misses={}", a.hits(), a.misses()));
        }
        log
    }

    #[test]
    fn lazy_storage_answers_like_eager_storage() {
        use crate::replacement::ReplacementKind;
        for policy in [
            ReplacementKind::Lru,
            ReplacementKind::TreePlru,
            ReplacementKind::Random,
        ] {
            // 4 sets x 4 ways under 64 distinct blocks: plenty of
            // evictions.
            let mut lazy = CacheArray::<u32>::with_policy(16 * 128, 4, 128, policy, 7);
            let mut eager = lazy.clone();
            eager.allocate();
            assert!(!lazy.is_allocated() && eager.is_allocated());
            assert_eq!(
                transcript(&mut lazy, 11),
                transcript(&mut eager, 11),
                "{policy:?}"
            );
            assert!(lazy.is_allocated(), "the first insert allocates");
        }
    }

    #[test]
    fn lookups_alone_never_allocate() {
        let mut a = CacheArray::<u32>::new(4 * 1024 * 1024, 16, 128);
        for addr in (0..4096u64).map(|i| i * 4096) {
            assert!(a.probe(addr).is_none());
            assert!(a.peek(addr).is_none() && a.peek_mut(addr).is_none());
            assert!(a.invalidate(addr).is_none());
        }
        assert_eq!(a.iter().count(), 0);
        assert_eq!((a.hits(), a.misses()), (0, 4096));
        assert!(!a.is_allocated());
    }
}

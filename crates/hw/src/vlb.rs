//! Virtual lookaside buffers (VLBs).
//!
//! Jord adds instruction and data VLBs next to the traditional TLBs
//! (Figure 5): small, fully associative, range-based translation caches for
//! the VMAs managed by PrivLib. A lookup matches when the faulting VA falls
//! inside a cached VMA's `[base, base+len)` range *and* the entry was filled
//! for the currently executing PD (or the VMA is global). Entries are tagged
//! with their backing VTE address so T-bit coherence invalidations (§4.2)
//! can find them.
//!
//! Table 2 sizes both VLBs at 16 entries; Figure 12 sweeps 1/2/4/16.
//!
//! Recency is a stamp, not a position: entries stay in their slots, and
//! every fill or hit stamps its slot from a per-VLB counter, so the
//! least-recently-used entry is the one with the smallest stamp. A hit
//! restamps one slot instead of shifting the entries behind it. Because
//! PrivLib fills an entry for the requesting PD even when the VMA is
//! global, one global VMA can be cached once per PD, so two entries can
//! cover one lookup; [`Vlb::lookup`] returns the least-recently-used of
//! them, as a scan from the LRU end of a recency-ordered list would. Each
//! slot starts with its packed `(base, end, pd, global)` bounds, the only
//! fields a lookup's scan reads besides the stamp of a covering slot.

use crate::types::{PdId, Perm, Va, VlbEntry, VteAddr};

/// Which VLB of a core (instruction fetch vs data access).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VlbKind {
    /// Instruction VLB.
    Instr,
    /// Data VLB.
    Data,
}

/// Hit/miss counters for one VLB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VlbStats {
    /// Lookups that matched a cached entry.
    pub hits: u64,
    /// Lookups that required a VTW walk.
    pub misses: u64,
    /// Entries invalidated by shootdowns.
    pub shootdowns: u64,
}

/// One cached translation: its packed lookup bounds first, then its
/// recency and the rest of its [`VlbEntry`].
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// First covered address.
    base: Va,
    /// One past the last covered address.
    end: Va,
    pd: PdId,
    global: bool,
    perm: Perm,
    privileged: bool,
    /// Counter value at the last fill or hit; larger is more recent.
    stamp: u64,
    vte: VteAddr,
}

impl Slot {
    /// Whether this slot translates `va` for `pd`. The operators do not
    /// short-circuit, so a scan takes no branch per slot.
    fn covers(&self, va: Va, pd: PdId) -> bool {
        (va >= self.base) & (va < self.end) & (self.global | (self.pd == pd))
    }

    fn entry(&self) -> VlbEntry {
        VlbEntry {
            vte: self.vte,
            base: self.base,
            len: self.end - self.base,
            pd: self.pd,
            global: self.global,
            perm: self.perm,
            privileged: self.privileged,
        }
    }
}

/// A fully associative, LRU-replaced, range-based translation cache.
///
/// # Example
///
/// ```
/// use jord_hw::{Vlb, VlbEntry, VteAddr, PdId, Perm};
///
/// let mut vlb = Vlb::new(2);
/// vlb.fill(VlbEntry {
///     vte: VteAddr(0x40),
///     base: 0x1000,
///     len: 0x100,
///     pd: PdId(1),
///     global: false,
///     perm: Perm::RW,
///     privileged: false,
/// });
/// assert!(vlb.lookup(0x1080, PdId(1)).is_some());
/// assert!(vlb.lookup(0x1080, PdId(2)).is_none()); // wrong PD
/// ```
#[derive(Debug, Clone)]
pub struct Vlb {
    capacity: usize,
    /// Unordered; recency lives in each slot's stamp.
    slots: Vec<Slot>,
    /// The last stamp handed out.
    clock: u64,
    stats: VlbStats,
}

impl Vlb {
    /// Creates an empty VLB with the given entry count.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "VLB needs at least one entry");
        Vlb {
            capacity,
            slots: Vec::with_capacity(capacity),
            clock: 0,
            stats: VlbStats::default(),
        }
    }

    /// Entry count limit.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of cached translations.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no translations are cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> VlbStats {
        self.stats
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Looks up the translation covering `va` in domain `pd`, making it the
    /// most recently used on a hit. When several entries cover `va`, the
    /// least recently used of them answers.
    pub fn lookup(&mut self, va: Va, pd: PdId) -> Option<VlbEntry> {
        // Which slot covers is unpredictable, so the first 64 slots are
        // tested without branching, into a mask; usually one bit is set,
        // and only set bits compare stamps. Slots past the 64th (a VLB
        // larger than any modelled one) are tested one by one.
        let mut covering = 0u64;
        for (i, s) in self.slots.iter().take(64).enumerate() {
            covering |= u64::from(s.covers(va, pd)) << i;
        }
        let (mut hit, mut oldest) = (None, u64::MAX);
        while covering != 0 {
            let i = covering.trailing_zeros() as usize;
            if self.slots[i].stamp < oldest {
                (hit, oldest) = (Some(i), self.slots[i].stamp);
            }
            covering &= covering - 1;
        }
        for (i, s) in self.slots.iter().enumerate().skip(64) {
            if s.covers(va, pd) && s.stamp < oldest {
                (hit, oldest) = (Some(i), s.stamp);
            }
        }
        let Some(i) = hit else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        let stamp = self.tick();
        let slot = &mut self.slots[i];
        slot.stamp = stamp;
        Some(slot.entry())
    }

    /// Inserts a translation (after a VTW walk), evicting the LRU entry if
    /// full. A refill for an already-cached VTE+PD replaces in place.
    pub fn fill(&mut self, entry: VlbEntry) {
        let slot = Slot {
            base: entry.base,
            end: entry.base + entry.len,
            pd: entry.pd,
            global: entry.global,
            perm: entry.perm,
            privileged: entry.privileged,
            stamp: self.tick(),
            vte: entry.vte,
        };
        let refill = self
            .slots
            .iter()
            .position(|s| s.vte == entry.vte && s.pd == entry.pd);
        if let Some(i) = refill {
            self.slots[i] = slot;
        } else if self.slots.len() < self.capacity {
            self.slots.push(slot);
        } else {
            let lru = (0..self.slots.len())
                .min_by_key(|&i| self.slots[i].stamp)
                .expect("a full VLB has entries");
            self.slots[lru] = slot;
        }
    }

    /// Invalidates every entry backed by `vte` (T-bit shootdown match).
    /// Returns the number of entries dropped.
    pub fn invalidate_vte(&mut self, vte: VteAddr) -> usize {
        let before = self.slots.len();
        self.slots.retain(|s| s.vte != vte);
        let dropped = before - self.slots.len();
        self.stats.shootdowns += dropped as u64;
        dropped
    }

    /// Drops every cached translation (e.g. on context switch of the host
    /// process; not used on PD switches, which are tag-matched instead).
    pub fn flush(&mut self) {
        self.slots.clear();
    }

    /// True if any cached entry is backed by `vte`.
    pub fn caches_vte(&self, vte: VteAddr) -> bool {
        self.slots.iter().any(|s| s.vte == vte)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Perm;

    fn entry(vte: u64, base: Va, len: u64, pd: u16) -> VlbEntry {
        VlbEntry {
            vte: VteAddr(vte),
            base,
            len,
            pd: PdId(pd),
            global: false,
            perm: Perm::RW,
            privileged: false,
        }
    }

    #[test]
    fn hit_requires_range_and_pd_match() {
        let mut v = Vlb::new(4);
        v.fill(entry(1, 0x1000, 0x100, 7));
        assert!(v.lookup(0x10FF, PdId(7)).is_some());
        assert!(v.lookup(0x1100, PdId(7)).is_none());
        assert!(v.lookup(0x1000, PdId(8)).is_none());
        assert_eq!(v.stats().hits, 1);
        assert_eq!(v.stats().misses, 2);
    }

    #[test]
    fn global_entries_match_any_pd() {
        let mut v = Vlb::new(4);
        let mut e = entry(2, 0x2000, 0x40, 0);
        e.global = true;
        v.fill(e);
        assert!(v.lookup(0x2000, PdId(99)).is_some());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut v = Vlb::new(2);
        v.fill(entry(1, 0x1000, 0x100, 1));
        v.fill(entry(2, 0x2000, 0x100, 1));
        // Touch entry 1 so entry 2 becomes LRU.
        assert!(v.lookup(0x1000, PdId(1)).is_some());
        v.fill(entry(3, 0x3000, 0x100, 1));
        assert!(
            v.lookup(0x1000, PdId(1)).is_some(),
            "recently used survives"
        );
        assert!(v.lookup(0x2000, PdId(1)).is_none(), "LRU was evicted");
        assert!(v.lookup(0x3000, PdId(1)).is_some());
    }

    #[test]
    fn a_global_vma_cached_per_pd_answers_from_its_least_recent_entry() {
        let mut v = Vlb::new(4);
        let mut a = entry(1, 0x1000, 0x100, 1);
        a.global = true;
        let mut b = entry(1, 0x1000, 0x100, 2);
        b.global = true;
        b.perm = Perm::READ;
        v.fill(a);
        v.fill(b);
        assert_eq!(v.len(), 2, "one entry per filling PD");
        // PD 3 is covered by both; the older one answers and becomes the
        // newest, so the next lookup takes the other.
        assert_eq!(v.lookup(0x1000, PdId(3)), Some(a));
        assert_eq!(v.lookup(0x1000, PdId(3)), Some(b));
        assert_eq!(v.lookup(0x1000, PdId(3)), Some(a));
    }

    #[test]
    fn slots_past_the_64th_are_searched_too() {
        let global = |pd: u16| VlbEntry {
            global: true,
            ..entry(1, 0x1000, 0x100, pd)
        };
        let mut v = Vlb::new(80);
        v.fill(global(1)); // slot 0
        for k in 0..64 {
            v.fill(entry(100 + k, 0x10_0000 + k * 0x1000, 0x1000, 1));
        }
        v.fill(global(2)); // slot 65
        v.fill(global(3)); // slot 66
        assert_eq!(v.len(), 67);
        // Oldest first, across the masked slots and the ones past them.
        for pd in [1, 2, 3, 1, 2] {
            assert_eq!(v.lookup(0x1000, PdId(9)), Some(global(pd)));
        }
        assert_eq!(
            v.lookup(0x10_0000 + 63 * 0x1000, PdId(1)).map(|e| e.vte),
            Some(VteAddr(163))
        );
    }

    #[test]
    fn refill_same_vte_does_not_duplicate() {
        let mut v = Vlb::new(2);
        v.fill(entry(1, 0x1000, 0x100, 1));
        let mut updated = entry(1, 0x1000, 0x100, 1);
        updated.perm = Perm::READ;
        v.fill(updated);
        assert_eq!(v.len(), 1);
        assert_eq!(v.lookup(0x1000, PdId(1)).unwrap().perm, Perm::READ);
    }

    #[test]
    fn invalidate_by_vte_tag() {
        let mut v = Vlb::new(4);
        v.fill(entry(1, 0x1000, 0x100, 1));
        v.fill(entry(1, 0x1000, 0x100, 2)); // same VMA resolved for another PD
        v.fill(entry(2, 0x2000, 0x100, 1));
        assert_eq!(v.invalidate_vte(VteAddr(1)), 2);
        assert!(!v.caches_vte(VteAddr(1)));
        assert!(v.caches_vte(VteAddr(2)));
        assert_eq!(v.stats().shootdowns, 2);
    }

    #[test]
    fn flush_empties() {
        let mut v = Vlb::new(4);
        v.fill(entry(1, 0x1000, 0x100, 1));
        v.flush();
        assert!(v.is_empty());
    }

    #[test]
    fn single_entry_vlb_thrashes() {
        let mut v = Vlb::new(1);
        v.fill(entry(1, 0x1000, 0x100, 1));
        v.fill(entry(2, 0x2000, 0x100, 1));
        assert!(v.lookup(0x1000, PdId(1)).is_none());
        assert!(v.lookup(0x2000, PdId(1)).is_some());
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = Vlb::new(0);
    }
}

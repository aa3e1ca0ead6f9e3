//! Architectural types shared across the Jord stack.
//!
//! These are the ISA-visible contracts: virtual addresses, protection-domain
//! identifiers, VMA permissions, and the descriptor format that VLBs cache.
//! `jord-vma` (the software VMA tables) and `jord-privlib` build on exactly
//! these types, mirroring how real software conforms to an ISA spec.

use core::fmt;

/// Cache line size in bytes (Table 2 machines use 64 B lines).
pub const LINE_BYTES: u64 = 64;

/// A hardware thread / core identifier. Orchestrators and executors are
/// pinned 1:1 onto cores (paper §3.3/3.4), so a `CoreId` doubles as a thread
/// identity in the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// A protection-domain identifier, the value held in the `ucid` CSR (§4.3).
///
/// PD 0 is reserved for the trusted runtime (executors/orchestrators running
/// outside any function PD).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PdId(pub u16);

impl PdId {
    /// The runtime's own domain (executor/orchestrator context).
    pub const RUNTIME: PdId = PdId(0);
}

impl fmt::Display for PdId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pd{}", self.0)
    }
}

/// A virtual address in the single address space.
pub type Va = u64;

/// The address of a VMA table entry (VTE); VTDs and VLB tags use VTE
/// addresses as the identity of a translation (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VteAddr(pub u64);

impl fmt::Display for VteAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vte@{:#x}", self.0)
    }
}

/// A cache-line address (byte address >> 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// The line containing byte address `addr`.
    pub const fn containing(addr: u64) -> LineAddr {
        LineAddr(addr / LINE_BYTES)
    }

    /// Number of lines spanned by `[addr, addr+len)` (at least 1 for
    /// non-empty ranges).
    pub const fn span(addr: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        (addr + len - 1) / LINE_BYTES - addr / LINE_BYTES + 1
    }
}

/// VMA access permissions: a read/write/execute triple, as stored in VTE
/// sub-array entries and checked by the D-VLB/I-VLB on every access.
///
/// # Example
///
/// ```
/// use jord_hw::Perm;
///
/// let rw = Perm::READ | Perm::WRITE;
/// assert!(rw.allows(Perm::READ));
/// assert!(!rw.allows(Perm::EXEC));
/// assert_eq!(rw.to_string(), "rw-");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Perm(u8);

impl Perm {
    /// No access.
    pub const NONE: Perm = Perm(0);
    /// Read permission.
    pub const READ: Perm = Perm(0b001);
    /// Write permission.
    pub const WRITE: Perm = Perm(0b010);
    /// Execute permission.
    pub const EXEC: Perm = Perm(0b100);
    /// Read + write.
    pub const RW: Perm = Perm(0b011);
    /// Read + execute (code VMAs).
    pub const RX: Perm = Perm(0b101);
    /// All permissions.
    pub const RWX: Perm = Perm(0b111);

    /// True if every permission in `needed` is granted.
    pub const fn allows(self, needed: Perm) -> bool {
        self.0 & needed.0 == needed.0
    }

    /// True if no permission is granted.
    pub const fn is_none(self) -> bool {
        self.0 == 0
    }

    /// Raw bits (low three bits: X|W|R from MSB to LSB of the triple).
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Reconstructs from raw bits, masking to the valid range.
    pub const fn from_bits(bits: u8) -> Perm {
        Perm(bits & 0b111)
    }
}

impl core::ops::BitOr for Perm {
    type Output = Perm;
    fn bitor(self, rhs: Perm) -> Perm {
        Perm(self.0 | rhs.0)
    }
}

impl core::ops::BitAnd for Perm {
    type Output = Perm;
    fn bitand(self, rhs: Perm) -> Perm {
        Perm(self.0 & rhs.0)
    }
}

impl fmt::Display for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.allows(Perm::READ) { 'r' } else { '-' },
            if self.allows(Perm::WRITE) { 'w' } else { '-' },
            if self.allows(Perm::EXEC) { 'x' } else { '-' },
        )
    }
}

/// The translation descriptor a VLB caches after a VTW walk: one VMA's
/// range, the permission resolved for a specific PD, and the privilege bit.
///
/// A real Jord VLB entry is tagged by the VTE address so that T-bit
/// coherence invalidations can match it (§4.2); we carry the same tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VlbEntry {
    /// Tag used by shootdowns: the address of the backing VTE.
    pub vte: VteAddr,
    /// Base virtual address of the VMA.
    pub base: Va,
    /// Length of the VMA in bytes.
    pub len: u64,
    /// The PD this resolution was filled for (`ucid` at fill time). A
    /// global (G-bit) entry still records its filling PD, so one global
    /// VMA can be cached once per PD; the entry matches any PD through
    /// [`global`](Self::global), and the PD only keys refills.
    pub pd: PdId,
    /// True if the VMA is global (G bit): valid for every PD.
    pub global: bool,
    /// Resolved permission for `pd`.
    pub perm: Perm,
    /// Privilege (P) bit: set for PrivLib-owned VMAs (§4.3).
    pub privileged: bool,
}

impl VlbEntry {
    /// True if this entry translates `va` when executing in `pd`.
    pub fn covers(&self, va: Va, pd: PdId) -> bool {
        let in_range = va >= self.base && va < self.base + self.len;
        in_range && (self.global || self.pd == pd)
    }
}

/// A set of cores, implemented as a fixed 256-bit bitmask (the largest
/// evaluated system is 2×128 cores, Figure 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CoreSet {
    words: [u64; 4],
}

impl CoreSet {
    /// Maximum representable core index + 1.
    pub const CAPACITY: usize = 256;

    /// The empty set.
    pub const fn empty() -> CoreSet {
        CoreSet { words: [0; 4] }
    }

    /// A set containing only `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core.0 >= 256`.
    pub fn singleton(core: CoreId) -> CoreSet {
        let mut s = CoreSet::empty();
        s.insert(core);
        s
    }

    /// Adds `core` to the set.
    ///
    /// # Panics
    ///
    /// Panics if `core.0 >= 256`.
    pub fn insert(&mut self, core: CoreId) {
        assert!(core.0 < Self::CAPACITY, "core id {} out of range", core.0);
        self.words[core.0 / 64] |= 1u64 << (core.0 % 64);
    }

    /// Removes `core` from the set (no-op if absent).
    pub fn remove(&mut self, core: CoreId) {
        if core.0 < Self::CAPACITY {
            self.words[core.0 / 64] &= !(1u64 << (core.0 % 64));
        }
    }

    /// True if `core` is in the set.
    pub fn contains(&self, core: CoreId) -> bool {
        core.0 < Self::CAPACITY && self.words[core.0 / 64] & (1u64 << (core.0 % 64)) != 0
    }

    /// Number of cores in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all cores.
    pub fn clear(&mut self) {
        self.words = [0; 4];
    }

    /// Union with another set.
    pub fn union_with(&mut self, other: &CoreSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Iterates over member cores in ascending order.
    ///
    /// Walks set bits only, so the host cost is O(members) plus one test
    /// per 64-bit word, not O([`CAPACITY`](Self::CAPACITY)): a modelled
    /// invalidation or shootdown costs host time in proportion to the
    /// sharers it reaches.
    pub fn iter(&self) -> impl Iterator<Item = CoreId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            core::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(CoreId(w * 64 + bit))
            })
        })
    }
}

impl FromIterator<CoreId> for CoreSet {
    fn from_iter<T: IntoIterator<Item = CoreId>>(iter: T) -> Self {
        let mut s = CoreSet::empty();
        for c in iter {
            s.insert(c);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perm_algebra() {
        assert!(Perm::RWX.allows(Perm::RW));
        assert!(!Perm::READ.allows(Perm::WRITE));
        assert_eq!(Perm::READ | Perm::WRITE, Perm::RW);
        assert_eq!(Perm::RWX & Perm::RX, Perm::RX);
        assert!(Perm::NONE.is_none());
        assert_eq!(Perm::from_bits(0xFF), Perm::RWX);
        assert_eq!(format!("{}", Perm::RX), "r-x");
    }

    #[test]
    fn line_span_counts_lines() {
        assert_eq!(LineAddr::span(0, 0), 0);
        assert_eq!(LineAddr::span(0, 1), 1);
        assert_eq!(LineAddr::span(0, 64), 1);
        assert_eq!(LineAddr::span(0, 65), 2);
        assert_eq!(LineAddr::span(63, 2), 2);
        assert_eq!(LineAddr::span(128, 960), 15);
    }

    #[test]
    fn vlb_entry_covers_range_and_pd() {
        let e = VlbEntry {
            vte: VteAddr(0x100),
            base: 0x4000,
            len: 0x100,
            pd: PdId(3),
            global: false,
            perm: Perm::RW,
            privileged: false,
        };
        assert!(e.covers(0x4000, PdId(3)));
        assert!(e.covers(0x40FF, PdId(3)));
        assert!(!e.covers(0x4100, PdId(3)));
        assert!(!e.covers(0x4000, PdId(4)));
        let g = VlbEntry { global: true, ..e };
        assert!(g.covers(0x4000, PdId(9)));
    }

    #[test]
    fn coreset_insert_remove_iter() {
        let mut s = CoreSet::empty();
        assert!(s.is_empty());
        s.insert(CoreId(0));
        s.insert(CoreId(63));
        s.insert(CoreId(64));
        s.insert(CoreId(255));
        assert_eq!(s.len(), 4);
        assert!(s.contains(CoreId(64)));
        s.remove(CoreId(64));
        assert!(!s.contains(CoreId(64)));
        let members: Vec<usize> = s.iter().map(|c| c.0).collect();
        assert_eq!(members, vec![0, 63, 255]);
    }

    #[test]
    fn coreset_union() {
        let mut a = CoreSet::singleton(CoreId(1));
        let b = CoreSet::singleton(CoreId(200));
        a.union_with(&b);
        assert!(a.contains(CoreId(1)) && a.contains(CoreId(200)));
        assert_eq!(a.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coreset_oob_panics() {
        CoreSet::empty().insert(CoreId(256));
    }

    #[test]
    fn coreset_from_iterator() {
        let s: CoreSet = [CoreId(2), CoreId(5)].into_iter().collect();
        assert_eq!(s.len(), 2);
    }
}

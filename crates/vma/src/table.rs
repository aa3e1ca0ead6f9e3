//! The VMA table abstraction and the plain-list implementation (§4.1).
//!
//! Both software (PrivLib) and hardware (the VTW) operate on the same table
//! concurrently, so every operation reports the memory accesses it made as
//! [`TableAccess`] records; the caller replays them against the `jord-hw`
//! machine to charge coherence-accurate latencies. VTE accesses carry the
//! T bit (they interact with the VTD); B-tree index-node accesses are plain
//! data traffic.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use jord_hw::coherence::LineHasher;
use jord_hw::types::{PdId, Perm, Va, VteAddr};

use crate::codec::{VaCodec, VTE_BYTES};
use crate::size_class::SizeClass;
use crate::vte::{Vte, VteAttr};

/// One memory access performed by a table operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableAccess {
    /// A VTE read (T-bit coherence message; registers at the VTD).
    VteRead(VteAddr),
    /// A VTE write (T-bit; triggers a VLB shootdown of stale sharers).
    VteWrite(VteAddr),
    /// A B-tree index-node read (ordinary data traffic).
    NodeRead(u64),
    /// A B-tree index-node write (ordinary data traffic).
    NodeWrite(u64),
}

/// A resolved VMA, as the VTW hands it to a VLB: range, attribute bits, and
/// the permission for the queried PD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmaRecord {
    /// Address of the backing VTE (the VLB/VTD tag).
    pub vte: VteAddr,
    /// VMA base address.
    pub base: Va,
    /// VMA length in bytes.
    pub len: u64,
    /// Global (G) bit.
    pub global: bool,
    /// Privilege (P) bit.
    pub privileged: bool,
    /// Permission resolved for the querying PD.
    pub perm: Perm,
}

/// Operations every VMA table implementation provides.
///
/// The plain list ([`PlainListTable`]) and the ablation B-tree
/// ([`crate::BTreeTable`]) implement the same contract, which is what lets
/// PrivLib and the runtime switch between Jord and Jord_BT (Figure 13).
pub trait VmaTable {
    /// Finds the VMA covering `va` and resolves its permission for `pd`.
    /// Returns `None` (after charging the accesses actually performed) if
    /// no valid mapping covers `va`.
    fn lookup(&mut self, va: Va, pd: PdId, acc: &mut Vec<TableAccess>) -> Option<VmaRecord>;

    /// Installs a fresh VTE for VMA `(sc, index)` with the requested `len`
    /// and physical backing, initially unshared. Returns its VTE address.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already occupied (allocator invariant).
    fn insert(
        &mut self,
        sc: SizeClass,
        index: u32,
        len: u64,
        phys: u64,
        acc: &mut Vec<TableAccess>,
    ) -> VteAddr;

    /// Invalidates the VTE of `(sc, index)`. Returns `false` if it was not
    /// a live mapping.
    fn remove(&mut self, sc: SizeClass, index: u32, acc: &mut Vec<TableAccess>) -> bool;

    /// Sets `pd`'s permission on `(sc, index)`; `Perm::NONE` revokes.
    /// Returns `false` if the mapping does not exist.
    fn set_perm(
        &mut self,
        sc: SizeClass,
        index: u32,
        pd: PdId,
        perm: Perm,
        acc: &mut Vec<TableAccess>,
    ) -> bool;

    /// Atomically moves (`mv = true`, `pmove`) or copies (`pcopy`) the
    /// permission on `(sc, index)` from `from` to `to` — a single VTE
    /// write either way, as in Table 1. The granted permission is the
    /// holder's permission narrowed by `mask` (the `prot` argument of
    /// `pmove`/`pcopy`). Returns the granted permission, or `None` if the
    /// mapping doesn't exist, `from` holds nothing, or the mask strips
    /// every bit (in which case nothing changes).
    #[allow(clippy::too_many_arguments)] // mirrors pmove/pcopy's operands
    fn transfer_perm(
        &mut self,
        sc: SizeClass,
        index: u32,
        from: PdId,
        to: PdId,
        mask: Perm,
        mv: bool,
        acc: &mut Vec<TableAccess>,
    ) -> Option<Perm>;

    /// Updates the requested length (resize within the size-class chunk).
    /// Returns `false` if the mapping doesn't exist or `len` exceeds the
    /// chunk.
    fn set_len(&mut self, sc: SizeClass, index: u32, len: u64, acc: &mut Vec<TableAccess>) -> bool;

    /// Sets the attribute bits (G/P, global permission).
    fn set_attr(
        &mut self,
        sc: SizeClass,
        index: u32,
        attr: VteAttr,
        acc: &mut Vec<TableAccess>,
    ) -> bool;

    /// Introspection without charged accesses (assertions, tests, debug).
    fn peek(&self, sc: SizeClass, index: u32) -> Option<&Vte>;

    /// The VTE address of slot `(sc, index)`.
    fn vte_addr(&self, sc: SizeClass, index: u32) -> VteAddr;

    /// Number of live mappings.
    fn live_mappings(&self) -> usize;

    /// Every live mapping as `(class, index)` pairs in deterministic
    /// class-then-index order. Like [`peek`](Self::peek) this charges no
    /// accesses. It walks every live VTE, so only whole-table work uses
    /// it (checkpoint [`DurableFootprint`](crate::DurableFootprint)s); per-PD
    /// work goes through [`pd_slots`](Self::pd_slots).
    fn live_slots(&self) -> Vec<(SizeClass, u32)>;

    /// Every live mapping on which `pd` has an explicit sub-array or
    /// overflow entry, as `(class, index)` pairs in class-then-index
    /// order: [`live_slots`](Self::live_slots) filtered to `pd`'s grants,
    /// read from a per-PD index in O(those grants). Charges no accesses;
    /// PD snapshot capture and diff, and `cput`'s sweep of leftover
    /// grants, enumerate a PD's state with it.
    fn pd_slots(&self, pd: PdId) -> Vec<(SizeClass, u32)>;

    /// Dead bookkeeping entries a compaction pass would reclaim —
    /// tombstoned VTEs in the plain list, freed index nodes and arena
    /// slots in the B-tree. Introspection only, no charged accesses.
    fn dead_slots(&self) -> usize;

    /// Sweeps dead bookkeeping out of the table — clearing tombstoned
    /// VTEs (plain list) or releasing freed index nodes and arena slots
    /// (B-tree) — and returns the number of entries reclaimed. Each
    /// reclaimed entry is one charged write: the sweep rewrites the slot
    /// it scrubs. Live mappings and their VTE addresses are untouched,
    /// so compaction is always safe under concurrent VLB caching.
    fn compact(&mut self, acc: &mut Vec<TableAccess>) -> usize;
}

/// Host-side index of explicit grants: for each PD id, the `(class,
/// index)` of every live VMA whose sub-array or overflow list names that
/// PD, sorted class-then-index. Both table backends route every sharer
/// change through it (`set_perm`, `transfer_perm`, `remove`), so the VTEs
/// and the index never disagree and [`VmaTable::pd_slots`] reads one PD's
/// grants without walking the table. Models nothing: no access is charged.
#[derive(Debug, Default)]
pub(crate) struct GrantIndex {
    /// Indexed by `PdId.0`, grown on a PD's first grant.
    by_pd: Vec<Vec<(SizeClass, u32)>>,
}

impl GrantIndex {
    /// Sets `pd`'s permission on `vte`, the VTE of `(sc, index)`;
    /// [`Perm::NONE`] revokes.
    pub(crate) fn set_perm(
        &mut self,
        vte: &mut Vte,
        sc: SizeClass,
        index: u32,
        pd: PdId,
        perm: Perm,
    ) {
        vte.set_perm(pd, perm);
        if perm.is_none() {
            self.revoke(pd, (sc, index));
        } else {
            self.grant(pd, (sc, index));
        }
    }

    /// `pmove` (`mv`) or `pcopy` of `from`'s permission on `vte`, narrowed
    /// by `mask`, to `to`. Returns the granted permission, or `None` (and
    /// changes nothing) when nothing survives the mask.
    #[allow(clippy::too_many_arguments)] // mirrors VmaTable::transfer_perm
    pub(crate) fn transfer(
        &mut self,
        vte: &mut Vte,
        sc: SizeClass,
        index: u32,
        from: PdId,
        to: PdId,
        mask: Perm,
        mv: bool,
    ) -> Option<Perm> {
        let perm = vte.perm_for(from) & mask;
        if perm.is_none() {
            return None;
        }
        // Revoke before granting, as the VTE does, so `from == to` keeps
        // its grant.
        if mv {
            vte.revoke(from);
            self.revoke(from, (sc, index));
        }
        vte.set_perm(to, perm);
        self.grant(to, (sc, index));
        Some(perm)
    }

    /// Drops every sharer of `vte` ahead of its removal.
    pub(crate) fn clear(&mut self, vte: &mut Vte, sc: SizeClass, index: u32) {
        for (pd, _) in vte.sharers() {
            self.revoke(pd, (sc, index));
        }
        vte.clear_sharers();
    }

    /// `pd`'s grants in class-then-index order.
    pub(crate) fn slots(&self, pd: PdId) -> Vec<(SizeClass, u32)> {
        self.by_pd.get(pd.0 as usize).cloned().unwrap_or_default()
    }

    fn grant(&mut self, pd: PdId, key: (SizeClass, u32)) {
        let pd = pd.0 as usize;
        if pd >= self.by_pd.len() {
            self.by_pd.resize_with(pd + 1, Vec::new);
        }
        let list = &mut self.by_pd[pd];
        if let Err(at) = list.binary_search(&key) {
            list.insert(at, key);
        }
    }

    fn revoke(&mut self, pd: PdId, key: (SizeClass, u32)) {
        if let Some(list) = self.by_pd.get_mut(pd.0 as usize) {
            if let Ok(at) = list.binary_search(&key) {
                list.remove(at);
            }
        }
    }
}

/// The plain-list VMA table: a flat, preallocated, overprovisioned array of
/// VTEs whose position is the closed form `A_Base + f(SC, Index)` — both
/// software and hardware use the same list concurrently (§4.1).
/// [`footprint_bytes`](Self::footprint_bytes) reports that modelled
/// reservation; the host stores only the slots written since their last
/// compaction (live VTEs and tombstones), keyed by slot.
#[derive(Debug)]
pub struct PlainListTable {
    codec: VaCodec,
    base: u64,
    /// Hashed by slot, so every op is O(1) on the host. Iteration order is
    /// arbitrary: `live_slots` sorts class-then-index, and `compact` sorts
    /// by slot so its sweep runs in ascending VTE address.
    slots: HashMap<usize, Vte, BuildHasherDefault<LineHasher>>,
    live: usize,
    grants: GrantIndex,
}

impl PlainListTable {
    /// Creates an empty table at memory address `base` (as programmed into
    /// `uatp`), with geometry from `codec` (as programmed into `uatc`).
    pub fn new(codec: VaCodec, base: u64) -> Self {
        PlainListTable {
            codec,
            base,
            slots: HashMap::default(),
            live: 0,
            grants: GrantIndex::default(),
        }
    }

    /// The codec this table was laid out with.
    pub fn codec(&self) -> &VaCodec {
        &self.codec
    }

    /// The table's base memory address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Footprint of the modelled table in bytes: every preallocated slot,
    /// whether or not it was ever written (the "64 MB for a million VMAs"
    /// trade-off).
    pub fn footprint_bytes(&self) -> u64 {
        self.codec.total_slots() as u64 * VTE_BYTES
    }

    /// The live VTE of `(sc, index)` and the grant index, borrowed apart so
    /// a sharer change can update both.
    fn live_mut(&mut self, sc: SizeClass, index: u32) -> Option<(&mut Vte, &mut GrantIndex)> {
        let vte = self.slots.get_mut(&self.codec.slot_of(sc, index))?;
        vte.attr.valid.then_some((vte, &mut self.grants))
    }
}

impl VmaTable for PlainListTable {
    fn lookup(&mut self, va: Va, pd: PdId, acc: &mut Vec<TableAccess>) -> Option<VmaRecord> {
        // The VTW decodes the VA (pure logic, no memory) …
        let (sc, index, _off) = self.codec.decode(va)?;
        let vte_addr = self.codec.vte_addr(self.base, sc, index);
        // … and fetches exactly one VTE.
        acc.push(TableAccess::VteRead(vte_addr));
        let vte = self.peek(sc, index)?;
        let off = va - vte.base;
        if off >= vte.len {
            return None; // beyond the requested bound within the chunk
        }
        Some(VmaRecord {
            vte: vte_addr,
            base: vte.base,
            len: vte.len,
            global: vte.attr.global,
            privileged: vte.attr.privileged,
            perm: vte.perm_for(pd),
        })
    }

    fn insert(
        &mut self,
        sc: SizeClass,
        index: u32,
        len: u64,
        phys: u64,
        acc: &mut Vec<TableAccess>,
    ) -> VteAddr {
        assert!(len <= sc.bytes(), "len exceeds size-class chunk");
        let base = self
            .codec
            .base_of(sc, index)
            .expect("index within codec capacity");
        let vte_addr = self.codec.vte_addr(self.base, sc, index);
        assert!(
            self.peek(sc, index).is_none(),
            "double insert at {sc} index {index}"
        );
        self.slots
            .insert(self.codec.slot_of(sc, index), Vte::new(base, len, phys));
        self.live += 1;
        acc.push(TableAccess::VteWrite(vte_addr));
        vte_addr
    }

    fn remove(&mut self, sc: SizeClass, index: u32, acc: &mut Vec<TableAccess>) -> bool {
        let vte_addr = self.codec.vte_addr(self.base, sc, index);
        let Some((vte, grants)) = self.live_mut(sc, index) else {
            return false;
        };
        grants.clear(vte, sc, index);
        vte.attr.valid = false;
        self.live -= 1;
        acc.push(TableAccess::VteWrite(vte_addr));
        true
    }

    fn set_perm(
        &mut self,
        sc: SizeClass,
        index: u32,
        pd: PdId,
        perm: Perm,
        acc: &mut Vec<TableAccess>,
    ) -> bool {
        let vte_addr = self.codec.vte_addr(self.base, sc, index);
        let Some((vte, grants)) = self.live_mut(sc, index) else {
            return false;
        };
        grants.set_perm(vte, sc, index, pd, perm);
        acc.push(TableAccess::VteWrite(vte_addr));
        true
    }

    #[allow(clippy::too_many_arguments)]
    fn transfer_perm(
        &mut self,
        sc: SizeClass,
        index: u32,
        from: PdId,
        to: PdId,
        mask: Perm,
        mv: bool,
        acc: &mut Vec<TableAccess>,
    ) -> Option<Perm> {
        let vte_addr = self.codec.vte_addr(self.base, sc, index);
        let (vte, grants) = self.live_mut(sc, index)?;
        let perm = grants.transfer(vte, sc, index, from, to, mask, mv)?;
        acc.push(TableAccess::VteWrite(vte_addr));
        Some(perm)
    }

    fn set_len(&mut self, sc: SizeClass, index: u32, len: u64, acc: &mut Vec<TableAccess>) -> bool {
        if len == 0 || len > sc.bytes() {
            return false;
        }
        let vte_addr = self.codec.vte_addr(self.base, sc, index);
        let Some((vte, _)) = self.live_mut(sc, index) else {
            return false;
        };
        vte.len = len;
        acc.push(TableAccess::VteWrite(vte_addr));
        true
    }

    fn set_attr(
        &mut self,
        sc: SizeClass,
        index: u32,
        attr: VteAttr,
        acc: &mut Vec<TableAccess>,
    ) -> bool {
        let vte_addr = self.codec.vte_addr(self.base, sc, index);
        let Some((vte, _)) = self.live_mut(sc, index) else {
            return false;
        };
        vte.attr = VteAttr {
            valid: true,
            ..attr
        };
        acc.push(TableAccess::VteWrite(vte_addr));
        true
    }

    fn peek(&self, sc: SizeClass, index: u32) -> Option<&Vte> {
        let slot = self.codec.slot_of(sc, index);
        self.slots.get(&slot).filter(|v| v.attr.valid)
    }

    fn vte_addr(&self, sc: SizeClass, index: u32) -> VteAddr {
        self.codec.vte_addr(self.base, sc, index)
    }

    fn live_mappings(&self) -> usize {
        self.live
    }

    fn live_slots(&self) -> Vec<(SizeClass, u32)> {
        let mut out: Vec<(SizeClass, u32)> = self
            .slots
            .iter()
            .filter(|(_, v)| v.attr.valid)
            .map(|(&slot, _)| self.codec.slot_to_vma(slot))
            .collect();
        out.sort_by_key(|&(sc, index)| (sc.index(), index));
        out
    }

    fn pd_slots(&self, pd: PdId) -> Vec<(SizeClass, u32)> {
        self.grants.slots(pd)
    }

    fn dead_slots(&self) -> usize {
        self.slots.len() - self.live
    }

    fn compact(&mut self, acc: &mut Vec<TableAccess>) -> usize {
        let mut dead: Vec<usize> = self
            .slots
            .iter()
            .filter(|(_, vte)| !vte.attr.valid)
            .map(|(&slot, _)| slot)
            .collect();
        dead.sort_unstable();
        for &slot in &dead {
            self.slots.remove(&slot);
            let (sc, index) = self.codec.slot_to_vma(slot);
            acc.push(TableAccess::VteWrite(
                self.codec.vte_addr(self.base, sc, index),
            ));
        }
        dead.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PlainListTable {
        PlainListTable::new(VaCodec::isca25(), 0x4000_0000)
    }

    fn sc(k: u8) -> SizeClass {
        SizeClass::from_index(k).unwrap()
    }

    #[test]
    fn insert_lookup_costs_one_vte_access_each() {
        let mut t = table();
        let mut acc = Vec::new();
        let vte = t.insert(sc(1), 3, 200, 0x9000, &mut acc);
        assert_eq!(acc, vec![TableAccess::VteWrite(vte)]);

        acc.clear();
        t.set_perm(sc(1), 3, PdId(5), Perm::RW, &mut acc);
        acc.clear();
        let base = t.codec().base_of(sc(1), 3).unwrap();
        let rec = t.lookup(base + 100, PdId(5), &mut acc).unwrap();
        assert_eq!(acc, vec![TableAccess::VteRead(vte)]);
        assert_eq!(rec.perm, Perm::RW);
        assert_eq!(rec.base, base);
        assert_eq!(rec.len, 200);
    }

    #[test]
    fn lookup_beyond_requested_len_fails() {
        let mut t = table();
        let mut acc = Vec::new();
        t.insert(sc(1), 0, 200, 0, &mut acc); // chunk is 256B, len 200
        let base = t.codec().base_of(sc(1), 0).unwrap();
        assert!(t.lookup(base + 199, PdId(0), &mut acc).is_some());
        assert!(t.lookup(base + 200, PdId(0), &mut acc).is_none());
    }

    #[test]
    fn lookup_of_unmapped_or_foreign_va_fails() {
        let mut t = table();
        let mut acc = Vec::new();
        // Valid encoding, empty slot.
        let va = t.codec().base_of(sc(0), 7).unwrap();
        assert!(t.lookup(va, PdId(0), &mut acc).is_none());
        // Foreign (non-Jord) VA: no access charged at all.
        acc.clear();
        assert!(t.lookup(0x7fff_dead_beef, PdId(0), &mut acc).is_none());
        assert!(acc.is_empty());
    }

    #[test]
    fn remove_invalidates_and_allows_reuse() {
        let mut t = table();
        let mut acc = Vec::new();
        t.insert(sc(2), 9, 512, 0, &mut acc);
        assert_eq!(t.live_mappings(), 1);
        assert!(t.remove(sc(2), 9, &mut acc));
        assert_eq!(t.live_mappings(), 0);
        assert!(!t.remove(sc(2), 9, &mut acc), "double free detected");
        // Slot is reusable.
        t.insert(sc(2), 9, 300, 0, &mut acc);
        assert_eq!(t.peek(sc(2), 9).unwrap().len, 300);
    }

    #[test]
    fn pmove_transfers_and_revokes_source() {
        let mut t = table();
        let mut acc = Vec::new();
        t.insert(sc(0), 0, 128, 0, &mut acc);
        t.set_perm(sc(0), 0, PdId(1), Perm::RW, &mut acc);
        acc.clear();
        let moved = t.transfer_perm(sc(0), 0, PdId(1), PdId(2), Perm::RWX, true, &mut acc);
        assert_eq!(moved, Some(Perm::RW));
        assert_eq!(acc.len(), 1, "pmove is one atomic VTE write");
        let vte = t.peek(sc(0), 0).unwrap();
        assert_eq!(vte.perm_for(PdId(1)), Perm::NONE);
        assert_eq!(vte.perm_for(PdId(2)), Perm::RW);
    }

    #[test]
    fn pcopy_keeps_source() {
        let mut t = table();
        let mut acc = Vec::new();
        t.insert(sc(0), 1, 128, 0, &mut acc);
        t.set_perm(sc(0), 1, PdId(1), Perm::READ, &mut acc);
        let copied = t.transfer_perm(sc(0), 1, PdId(1), PdId(2), Perm::RWX, false, &mut acc);
        assert_eq!(copied, Some(Perm::READ));
        let vte = t.peek(sc(0), 1).unwrap();
        assert_eq!(vte.perm_for(PdId(1)), Perm::READ);
        assert_eq!(vte.perm_for(PdId(2)), Perm::READ);
    }

    #[test]
    fn transfer_from_nonholder_fails() {
        let mut t = table();
        let mut acc = Vec::new();
        t.insert(sc(0), 2, 128, 0, &mut acc);
        assert_eq!(
            t.transfer_perm(sc(0), 2, PdId(9), PdId(2), Perm::RWX, true, &mut acc),
            None
        );
    }

    #[test]
    fn resize_within_chunk_only() {
        let mut t = table();
        let mut acc = Vec::new();
        t.insert(sc(1), 5, 100, 0, &mut acc); // 256B chunk
        assert!(t.set_len(sc(1), 5, 256, &mut acc));
        assert!(!t.set_len(sc(1), 5, 257, &mut acc));
        assert!(!t.set_len(sc(1), 5, 0, &mut acc));
        assert_eq!(t.peek(sc(1), 5).unwrap().len, 256);
    }

    #[test]
    fn attributes_set_and_resolved() {
        let mut t = table();
        let mut acc = Vec::new();
        t.insert(sc(3), 0, 1024, 0, &mut acc);
        t.set_attr(
            sc(3),
            0,
            VteAttr {
                valid: true,
                global: true,
                privileged: true,
                global_perm: Perm::RX,
            },
            &mut acc,
        );
        let base = t.codec().base_of(sc(3), 0).unwrap();
        let rec = t.lookup(base, PdId(77), &mut acc).unwrap();
        assert!(rec.global && rec.privileged);
        assert_eq!(rec.perm, Perm::RX);
    }

    #[test]
    #[should_panic(expected = "double insert")]
    fn double_insert_panics() {
        let mut t = table();
        let mut acc = Vec::new();
        t.insert(sc(0), 0, 128, 0, &mut acc);
        t.insert(sc(0), 0, 128, 0, &mut acc);
    }

    #[test]
    fn footprint_matches_slot_count() {
        let mut populated = table();
        let mut acc = Vec::new();
        for index in 0..64 {
            populated.insert(sc((index % 5) as u8), index, 128, 0, &mut acc);
        }
        populated.remove(sc(0), 0, &mut acc); // leaves a tombstone
        for t in [table(), populated] {
            assert_eq!(t.footprint_bytes(), t.codec().total_slots() as u64 * 64);
        }
    }
}

//! VMA snapshots: pristine-layout capture, diff, and whole-table images.
//!
//! Two consumers, both in the crash-recovery subsystem:
//!
//! * **PD sanitization** (Groundhog-style): [`PdSnapshot`] records the
//!   pristine VMA/permission layout a function's protection domain has
//!   right after setup. At teardown the runtime *diffs* the live table
//!   against the snapshot and repairs only the divergence — unmapping
//!   stray VMAs, resetting drifted permissions — instead of destroying
//!   and rebuilding the PD from scratch for the next request.
//! * **Checkpoints**: [`DurableFootprint`] records the table's
//!   privileged/global runtime mappings at journal-checkpoint cadence.
//!   After a whole-worker crash the restored (pristine) image must
//!   reproduce the checkpoint's footprint bit-for-bit.
//!
//! Capture and diff charge no simulated memory accesses themselves; the
//! caller (PrivLib) charges the repairs it actually performs.

use jord_hw::types::{PdId, Perm, Va};

use crate::size_class::SizeClass;
use crate::table::VmaTable;

/// One VMA as a snapshot sees it: location, geometry, and the captured
/// permission of the snapshotted PD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// Size class of the VMA.
    pub sc: SizeClass,
    /// Index within the class.
    pub index: u32,
    /// Base virtual address.
    pub base: Va,
    /// Requested length in bytes.
    pub len: u64,
    /// The permission the snapshotted PD held at capture time.
    pub perm: Perm,
}

/// One divergence between a PD's pristine snapshot and the live table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotDiff {
    /// The PD holds a VMA the snapshot doesn't know about: unmap it.
    Extra {
        /// Size class of the stray VMA.
        sc: SizeClass,
        /// Index within the class.
        index: u32,
        /// Its base address (what `munmap` takes).
        va: Va,
    },
    /// A snapshotted VMA's permission drifted: reset it to `want`.
    PermDrift {
        /// Size class of the drifted VMA.
        sc: SizeClass,
        /// Index within the class.
        index: u32,
        /// Its base address.
        va: Va,
        /// The pristine permission to restore.
        want: Perm,
    },
    /// A snapshotted VMA disappeared entirely; the PD cannot be repaired
    /// in place and must be rebuilt from scratch.
    Missing {
        /// Size class of the lost VMA.
        sc: SizeClass,
        /// Index within the class.
        index: u32,
    },
}

/// The pristine VMA/permission layout of one protection domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PdSnapshot {
    /// The snapshotted PD.
    pub pd: PdId,
    /// Every VMA the PD held a permission on, in deterministic
    /// class-then-index order.
    pub entries: Vec<SnapshotEntry>,
}

impl PdSnapshot {
    /// Captures `pd`'s current view of `table`: every live VMA it holds a
    /// permission on (global grants excluded — they belong to the runtime
    /// image, not the PD). Reads only `pd`'s own grants
    /// ([`VmaTable::pd_slots`]), never the whole table.
    pub fn capture(table: &dyn VmaTable, pd: PdId) -> Self {
        let mut entries = Vec::new();
        for (sc, index) in table.pd_slots(pd) {
            let vte = table.peek(sc, index).expect("granted slot has a VTE");
            if vte.attr.global {
                continue;
            }
            let perm = vte.perm_for(pd);
            if !perm.is_none() {
                entries.push(SnapshotEntry {
                    sc,
                    index,
                    base: vte.base,
                    len: vte.len,
                    perm,
                });
            }
        }
        PdSnapshot { pd, entries }
    }

    /// Number of captured VMAs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the PD held nothing at capture time.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Diffs the snapshot against the table's current state, returning the
    /// repairs (in deterministic order) that return the PD to its pristine
    /// layout. An empty result means the PD is already sanitized. Like
    /// [`capture`](Self::capture), it reads only the PD's own grants.
    pub fn diff(&self, table: &dyn VmaTable) -> Vec<SnapshotDiff> {
        let mut repairs = Vec::new();
        // Pass 1: strays — VMAs the PD holds now but didn't at capture.
        for (sc, index) in table.pd_slots(self.pd) {
            let vte = table.peek(sc, index).expect("granted slot has a VTE");
            if vte.attr.global || vte.perm_for(self.pd).is_none() {
                continue;
            }
            if !self.entries.iter().any(|e| e.sc == sc && e.index == index) {
                repairs.push(SnapshotDiff::Extra {
                    sc,
                    index,
                    va: vte.base,
                });
            }
        }
        // Pass 2: drifted or lost snapshot entries.
        for e in &self.entries {
            match table.peek(e.sc, e.index) {
                None => repairs.push(SnapshotDiff::Missing {
                    sc: e.sc,
                    index: e.index,
                }),
                Some(vte) => {
                    if vte.base != e.base {
                        // Slot was recycled for a different VMA: the
                        // snapshotted one is gone.
                        repairs.push(SnapshotDiff::Missing {
                            sc: e.sc,
                            index: e.index,
                        });
                    } else if vte.perm_for(self.pd) != e.perm {
                        repairs.push(SnapshotDiff::PermDrift {
                            sc: e.sc,
                            index: e.index,
                            va: e.base,
                            want: e.perm,
                        });
                    }
                }
            }
        }
        repairs
    }
}

/// The durable subset of a VMA table: its privileged or global mappings
/// — the runtime image (PrivLib's own structures, shared function code)
/// that any correct crash restore must reproduce exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableFootprint {
    /// `(class, index, base, len)` of every durable mapping, in
    /// class-then-index order.
    pub entries: Vec<(SizeClass, u32, Va, u64)>,
}

impl DurableFootprint {
    /// Records `table`'s durable mappings.
    pub fn capture(table: &dyn VmaTable) -> Self {
        let entries = table
            .live_slots()
            .into_iter()
            .filter_map(|(sc, index)| {
                let vte = table.peek(sc, index).expect("live slot has a VTE");
                (vte.attr.privileged || vte.attr.global).then_some((sc, index, vte.base, vte.len))
            })
            .collect();
        DurableFootprint { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::VaCodec;
    use crate::table::PlainListTable;

    fn sc(k: u8) -> SizeClass {
        SizeClass::from_index(k).unwrap()
    }

    fn table_with(pd: PdId, vmas: &[(u8, u32, Perm)]) -> PlainListTable {
        let mut t = PlainListTable::new(VaCodec::isca25(), 0x4000_0000);
        let mut acc = Vec::new();
        for &(k, index, perm) in vmas {
            t.insert(sc(k), index, 128, 0, &mut acc);
            t.set_perm(sc(k), index, pd, perm, &mut acc);
        }
        t
    }

    #[test]
    fn capture_sees_only_the_pds_vmas() {
        let pd = PdId(3);
        let mut t = table_with(pd, &[(0, 1, Perm::RW), (1, 5, Perm::RX)]);
        let mut acc = Vec::new();
        // A VMA belonging to someone else.
        t.insert(sc(0), 9, 128, 0, &mut acc);
        t.set_perm(sc(0), 9, PdId(7), Perm::RW, &mut acc);
        let snap = PdSnapshot::capture(&t, pd);
        assert_eq!(snap.len(), 2);
        assert!(!snap.is_empty());
        assert!(snap.entries.iter().all(|e| e.perm != Perm::NONE));
    }

    #[test]
    fn capture_skips_global_mappings() {
        let pd = PdId(3);
        let mut t = table_with(pd, &[(0, 1, Perm::RW)]);
        let mut acc = Vec::new();
        t.insert(sc(2), 0, 128, 0, &mut acc);
        t.set_attr(
            sc(2),
            0,
            crate::vte::VteAttr {
                valid: true,
                global: true,
                privileged: false,
                global_perm: Perm::RX,
            },
            &mut acc,
        );
        let snap = PdSnapshot::capture(&t, pd);
        assert_eq!(snap.len(), 1, "global grant is runtime image, not PD state");
    }

    #[test]
    fn pristine_table_diffs_empty() {
        let pd = PdId(4);
        let t = table_with(pd, &[(0, 0, Perm::RW), (3, 2, Perm::READ)]);
        let snap = PdSnapshot::capture(&t, pd);
        assert!(snap.diff(&t).is_empty());
    }

    #[test]
    fn diff_flags_extras_drift_and_missing() {
        let pd = PdId(4);
        let mut t = table_with(pd, &[(0, 0, Perm::RW), (1, 1, Perm::RX)]);
        let snap = PdSnapshot::capture(&t, pd);
        let mut acc = Vec::new();
        // Extra: a scratch VMA mapped after capture.
        t.insert(sc(2), 7, 128, 0, &mut acc);
        t.set_perm(sc(2), 7, pd, Perm::RW, &mut acc);
        // Drift: permission changed.
        t.set_perm(sc(0), 0, pd, Perm::READ, &mut acc);
        // Missing: a snapshotted VMA removed.
        t.remove(sc(1), 1, &mut acc);
        let repairs = snap.diff(&t);
        assert_eq!(repairs.len(), 3, "{repairs:?}");
        assert!(repairs
            .iter()
            .any(|r| matches!(r, SnapshotDiff::Extra { sc: c, index: 7, .. } if *c == sc(2))));
        assert!(repairs
            .iter()
            .any(|r| matches!(r, SnapshotDiff::PermDrift { want, .. } if *want == Perm::RW)));
        assert!(repairs
            .iter()
            .any(|r| matches!(r, SnapshotDiff::Missing { index: 1, .. })));
    }

    #[test]
    fn recycled_slot_with_same_grant_needs_no_repair() {
        let pd = PdId(4);
        let mut t = table_with(pd, &[(0, 0, Perm::RW)]);
        let snap = PdSnapshot::capture(&t, pd);
        let mut acc = Vec::new();
        t.remove(sc(0), 0, &mut acc);
        t.insert(sc(0), 0, 64, 0, &mut acc); // same slot, new (shorter) VMA
        t.set_perm(sc(0), 0, pd, Perm::RW, &mut acc);
        // A slot's base is fixed by the codec, so the recycled VMA has the
        // snapshotted base and permission; only its length differs, which
        // sanitization tolerates (the chunk is reserved either way).
        assert!(snap.diff(&t).is_empty());
    }

    #[test]
    fn durable_footprint_keeps_only_privileged_and_global_mappings() {
        let pd = PdId(2);
        let mut t = table_with(pd, &[(0, 0, Perm::RW), (1, 3, Perm::RX)]);
        let mut acc = Vec::new();
        let attr = |global, privileged| crate::vte::VteAttr {
            valid: true,
            global,
            privileged,
            global_perm: Perm::NONE,
        };
        t.insert(sc(4), 0, 1024, 0, &mut acc);
        t.set_attr(sc(4), 0, attr(false, true), &mut acc);
        t.insert(sc(2), 5, 128, 0, &mut acc);
        t.set_attr(sc(2), 5, attr(true, false), &mut acc);
        let footprint = DurableFootprint::capture(&t);
        let base = |k, i| t.peek(sc(k), i).unwrap().base;
        assert_eq!(
            footprint.entries,
            vec![(sc(2), 5, base(2, 5), 128), (sc(4), 0, base(4, 0), 1024)],
            "the two per-PD mappings are not durable; class-then-index order"
        );
        // Two pristine captures are identical (determinism).
        assert_eq!(footprint, DurableFootprint::capture(&t));
    }
}

//! Property-based tests for the VMA machinery.
//!
//! The two load-bearing invariants:
//! 1. the VA codec is a bijection on its domain (translation correctness
//!    depends on it), and
//! 2. the plain-list and B-tree tables are observationally equivalent under
//!    any operation sequence (Jord and Jord_BT differ only in cost, never
//!    in semantics), and each table's per-PD grant index equals a scan of
//!    its live VTEs.

use std::collections::BTreeSet;

use proptest::prelude::*;

use jord_hw::types::{PdId, Perm};
use jord_vma::{
    BTreeTable, PdSnapshot, PlainListTable, SizeClass, SnapshotDiff, SnapshotEntry, TableAccess,
    VaCodec, VmaTable, VteAttr,
};

fn arb_size_class() -> impl Strategy<Value = SizeClass> {
    (0u8..26).prop_map(|k| SizeClass::from_index(k).unwrap())
}

fn arb_perm() -> impl Strategy<Value = Perm> {
    (1u8..8).prop_map(Perm::from_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn codec_roundtrip(sc in arb_size_class(), index in 0u32..4096, frac in 0.0f64..1.0) {
        let codec = VaCodec::isca25();
        let index = index % codec.capacity(sc);
        let offset = (frac * sc.bytes() as f64) as u64;
        let offset = offset.min(sc.bytes() - 1);
        let va = codec.encode(sc, index, offset).unwrap();
        prop_assert!(codec.matches(va));
        prop_assert_eq!(codec.decode(va), Some((sc, index, offset)));
    }

    #[test]
    fn codec_distinct_vmas_never_overlap(
        sc_a in arb_size_class(), ia in 0u32..64,
        sc_b in arb_size_class(), ib in 0u32..64,
    ) {
        let codec = VaCodec::isca25();
        prop_assume!((sc_a, ia) != (sc_b, ib));
        let a = codec.base_of(sc_a, ia).unwrap();
        let b = codec.base_of(sc_b, ib).unwrap();
        let a_end = a + sc_a.bytes();
        let b_end = b + sc_b.bytes();
        prop_assert!(a_end <= b || b_end <= a, "ranges overlap: [{a:#x},{a_end:#x}) vs [{b:#x},{b_end:#x})");
    }

    #[test]
    fn slot_function_injective(sc_a in arb_size_class(), ia in 0u32..4096,
                               sc_b in arb_size_class(), ib in 0u32..4096) {
        let codec = VaCodec::isca25();
        prop_assume!((sc_a, ia) != (sc_b, ib));
        prop_assert_ne!(codec.slot_of(sc_a, ia), codec.slot_of(sc_b, ib));
    }

    #[test]
    fn size_class_for_len_is_minimal_cover(len in 1u64..(4u64 << 30)) {
        let sc = SizeClass::for_len(len).unwrap();
        prop_assert!(sc.bytes() >= len);
        if let Some(smaller) = sc.index().checked_sub(1).and_then(SizeClass::from_index) {
            prop_assert!(smaller.bytes() < len);
        }
    }
}

/// One step of the table-equivalence state machine.
#[derive(Debug, Clone)]
enum Op {
    Insert {
        slot: u8,
        len_frac: f64,
    },
    Remove {
        slot: u8,
    },
    SetPerm {
        slot: u8,
        pd: u16,
        perm: Perm,
    },
    Transfer {
        slot: u8,
        from: u16,
        to: u16,
        mv: bool,
    },
    SetLen {
        slot: u8,
        len_frac: f64,
    },
    SetAttr {
        slot: u8,
        global: bool,
        privileged: bool,
    },
    Lookup {
        slot: u8,
        off_frac: f64,
        pd: u16,
    },
    Compact,
    /// Replaces the stored pristine snapshot of `pd` on both tables.
    Capture {
        pd: u16,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..24, 0.01f64..1.0).prop_map(|(slot, len_frac)| Op::Insert { slot, len_frac }),
        (0u8..24).prop_map(|slot| Op::Remove { slot }),
        (0u8..24, 1u16..6, arb_perm()).prop_map(|(slot, pd, perm)| Op::SetPerm { slot, pd, perm }),
        (0u8..24, 1u16..6, 1u16..6, any::<bool>()).prop_map(|(slot, from, to, mv)| Op::Transfer {
            slot,
            from,
            to,
            mv
        }),
        (0u8..24, 0.01f64..1.0).prop_map(|(slot, len_frac)| Op::SetLen { slot, len_frac }),
        (0u8..24, any::<bool>(), any::<bool>()).prop_map(|(slot, global, privileged)| {
            Op::SetAttr {
                slot,
                global,
                privileged,
            }
        }),
        (0u8..24, 0.0f64..1.0, 0u16..6).prop_map(|(slot, off_frac, pd)| Op::Lookup {
            slot,
            off_frac,
            pd
        }),
        Just(Op::Compact),
        (0u16..6).prop_map(|pd| Op::Capture { pd }),
    ]
}

/// Every PD the op alphabet can name.
const PDS: std::ops::Range<u16> = 0..6;

/// `live_slots()` filtered to the VMAs on which `pd` has an explicit
/// sharer entry: what `pd_slots(pd)` must return.
fn pd_slots_by_scan(table: &dyn VmaTable, pd: PdId) -> Vec<(SizeClass, u32)> {
    table
        .live_slots()
        .into_iter()
        .filter(|&(sc, index)| {
            let vte = table.peek(sc, index).expect("live slot has a VTE");
            vte.sharers().any(|(p, _)| p == pd)
        })
        .collect()
}

/// `PdSnapshot::capture` as a whole-table scan, the body it had before the
/// grant index: the reference the index-backed capture must equal.
fn capture_by_scan(table: &dyn VmaTable, pd: PdId) -> PdSnapshot {
    let mut entries = Vec::new();
    for (sc, index) in table.live_slots() {
        let vte = table.peek(sc, index).expect("live slot has a VTE");
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

/// `PdSnapshot::diff` as a whole-table scan, the body it had before the
/// grant index: the reference the index-backed diff must equal.
fn diff_by_scan(snap: &PdSnapshot, table: &dyn VmaTable) -> Vec<SnapshotDiff> {
    let mut repairs = Vec::new();
    for (sc, index) in table.live_slots() {
        let vte = table.peek(sc, index).expect("live slot has a VTE");
        if vte.attr.global || vte.perm_for(snap.pd).is_none() {
            continue;
        }
        if !snap.entries.iter().any(|e| e.sc == sc && e.index == index) {
            repairs.push(SnapshotDiff::Extra {
                sc,
                index,
                va: vte.base,
            });
        }
    }
    for e in &snap.entries {
        match table.peek(e.sc, e.index) {
            None => repairs.push(SnapshotDiff::Missing {
                sc: e.sc,
                index: e.index,
            }),
            Some(vte) => {
                if vte.base != e.base {
                    repairs.push(SnapshotDiff::Missing {
                        sc: e.sc,
                        index: e.index,
                    });
                } else if vte.perm_for(snap.pd) != e.perm {
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

/// Maps the abstract slot id onto a concrete (class, index): three classes
/// × eight indices, so sequences collide on slots often enough to hit the
/// interesting transitions.
fn concrete(slot: u8) -> (SizeClass, u32) {
    let sc = SizeClass::from_index([0u8, 3, 7][(slot % 3) as usize]).unwrap();
    (sc, (slot / 3) as u32)
}

proptest! {
    // Long sequences over many cases: a `pmove` of a held grant or a
    // removal of a shared VTE needs a live slot, a grant on it and the
    // right op, so short runs reach those transitions only a few times.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn plain_list_and_btree_agree(ops in proptest::collection::vec(arb_op(), 1..240)) {
        let codec = VaCodec::isca25();
        let mut plain = PlainListTable::new(codec, 0x4000_0000);
        let mut btree = BTreeTable::new(codec, 0x8000_0000, 0x9000_0000);
        let mut live = std::collections::HashSet::new();
        // Model of the plain list's tombstones: VTE addresses removed and
        // neither re-inserted nor compacted since. `dead_slots()` must
        // equal its size.
        let mut tombstones = BTreeSet::new();
        // Pristine snapshots taken by `Op::Capture`, (plain, B-tree) per PD.
        let mut snaps: Vec<(PdSnapshot, PdSnapshot)> = Vec::new();
        let mut acc_p = Vec::new();
        let mut acc_b = Vec::new();

        for op in &ops {
            acc_p.clear();
            acc_b.clear();
            match *op {
                Op::Insert { slot, len_frac } => {
                    let (sc, index) = concrete(slot);
                    if live.contains(&slot) {
                        continue; // both tables would panic on double insert
                    }
                    let len = ((len_frac * sc.bytes() as f64) as u64).clamp(1, sc.bytes());
                    let vte = plain.insert(sc, index, len, 0, &mut acc_p);
                    btree.insert(sc, index, len, 0, &mut acc_b);
                    live.insert(slot);
                    tombstones.remove(&vte);
                }
                Op::Remove { slot } => {
                    let (sc, index) = concrete(slot);
                    let a = plain.remove(sc, index, &mut acc_p);
                    let b = btree.remove(sc, index, &mut acc_b);
                    prop_assert_eq!(a, b, "remove disagreement");
                    live.remove(&slot);
                    if a {
                        tombstones.insert(plain.vte_addr(sc, index));
                    }
                }
                Op::SetPerm { slot, pd, perm } => {
                    let (sc, index) = concrete(slot);
                    let a = plain.set_perm(sc, index, PdId(pd), perm, &mut acc_p);
                    let b = btree.set_perm(sc, index, PdId(pd), perm, &mut acc_b);
                    prop_assert_eq!(a, b, "set_perm disagreement");
                }
                Op::Transfer { slot, from, to, mv } => {
                    let (sc, index) = concrete(slot);
                    let a = plain.transfer_perm(sc, index, PdId(from), PdId(to), Perm::RWX, mv, &mut acc_p);
                    let b = btree.transfer_perm(sc, index, PdId(from), PdId(to), Perm::RWX, mv, &mut acc_b);
                    prop_assert_eq!(a, b, "transfer disagreement");
                }
                Op::SetLen { slot, len_frac } => {
                    let (sc, index) = concrete(slot);
                    let len = ((len_frac * sc.bytes() as f64) as u64).clamp(1, sc.bytes());
                    let a = plain.set_len(sc, index, len, &mut acc_p);
                    let b = btree.set_len(sc, index, len, &mut acc_b);
                    prop_assert_eq!(a, b, "set_len disagreement");
                }
                Op::SetAttr { slot, global, privileged } => {
                    let (sc, index) = concrete(slot);
                    let attr = VteAttr { valid: true, global, privileged, global_perm: Perm::RX };
                    let a = plain.set_attr(sc, index, attr, &mut acc_p);
                    let b = btree.set_attr(sc, index, attr, &mut acc_b);
                    prop_assert_eq!(a, b, "set_attr disagreement");
                }
                Op::Lookup { slot, off_frac, pd } => {
                    let (sc, index) = concrete(slot);
                    let va = codec.base_of(sc, index).unwrap()
                        + (off_frac * sc.bytes() as f64) as u64 % sc.bytes();
                    let a = plain.lookup(va, PdId(pd), &mut acc_p);
                    let b = btree.lookup(va, PdId(pd), &mut acc_b);
                    // Records differ in VTE address (different storage), but
                    // must agree on semantics.
                    match (a, b) {
                        (None, None) => {}
                        (Some(x), Some(y)) => {
                            prop_assert_eq!(x.base, y.base);
                            prop_assert_eq!(x.len, y.len);
                            prop_assert_eq!(x.perm, y.perm);
                            prop_assert_eq!(x.global, y.global);
                            prop_assert_eq!(x.privileged, y.privileged);
                        }
                        (a, b) => prop_assert!(false, "lookup disagreement: {a:?} vs {b:?}"),
                    }
                }
                Op::Compact => {
                    let reclaimed = plain.compact(&mut acc_p);
                    btree.compact(&mut acc_b);
                    prop_assert_eq!(reclaimed, tombstones.len());
                    // One write per tombstone, in ascending VTE address.
                    let writes: Vec<TableAccess> =
                        tombstones.iter().map(|&vte| TableAccess::VteWrite(vte)).collect();
                    prop_assert_eq!(&acc_p, &writes);
                    tombstones.clear();
                }
                Op::Capture { pd } => {
                    snaps.retain(|(snap, _)| snap.pd != PdId(pd));
                    snaps.push((
                        PdSnapshot::capture(&plain, PdId(pd)),
                        PdSnapshot::capture(&btree, PdId(pd)),
                    ));
                }
            }
            prop_assert_eq!(plain.live_mappings(), btree.live_mappings());
            prop_assert_eq!(plain.live_slots(), btree.live_slots());
            prop_assert_eq!(plain.dead_slots(), tombstones.len());
            for pd in PDS.map(PdId) {
                for table in [&plain as &dyn VmaTable, &btree] {
                    prop_assert_eq!(table.pd_slots(pd), pd_slots_by_scan(table, pd));
                    prop_assert_eq!(PdSnapshot::capture(table, pd), capture_by_scan(table, pd));
                }
                prop_assert_eq!(plain.pd_slots(pd), btree.pd_slots(pd));
            }
            for (snap_p, snap_b) in &snaps {
                let repairs = snap_p.diff(&plain);
                prop_assert_eq!(&repairs, &diff_by_scan(snap_p, &plain));
                prop_assert_eq!(&snap_b.diff(&btree), &diff_by_scan(snap_b, &btree));
                prop_assert_eq!(&repairs, &snap_b.diff(&btree));
            }
        }
        btree.check_invariants();
    }

    #[test]
    fn pmove_is_conservative_pcopy_is_additive(
        perm in arb_perm(), from in 1u16..5, to in 5u16..9, mv in any::<bool>()
    ) {
        let codec = VaCodec::isca25();
        let mut t = PlainListTable::new(codec, 0x4000_0000);
        let sc = SizeClass::MIN;
        let mut acc = Vec::new();
        t.insert(sc, 0, 128, 0, &mut acc);
        t.set_perm(sc, 0, PdId(from), perm, &mut acc);
        let before = t.peek(sc, 0).unwrap().sharer_count();
        t.transfer_perm(sc, 0, PdId(from), PdId(to), Perm::RWX, mv, &mut acc).unwrap();
        let vte = t.peek(sc, 0).unwrap();
        prop_assert_eq!(vte.perm_for(PdId(to)), perm);
        if mv {
            prop_assert!(vte.perm_for(PdId(from)).is_none());
            prop_assert_eq!(vte.sharer_count(), before, "pmove conserves sharer count");
        } else {
            prop_assert_eq!(vte.perm_for(PdId(from)), perm);
            prop_assert_eq!(vte.sharer_count(), before + 1, "pcopy adds a sharer");
        }
    }
}

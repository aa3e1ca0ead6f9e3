//! Threat-model tests (§3.1).
//!
//! "The system allows attackers to forge arbitrary memory addresses and
//! access them through load/store instructions or code execution. The
//! attackers can also arbitrarily call PrivLib. Jord enforces isolation by
//! generating a hardware fault whenever untrusted code reads, writes, or
//! executes a memory address that is either not mapped by a VMA or whose
//! VMA does not have appropriate access permissions in the PD where the
//! code executes."
//!
//! Every test here is an attack; every attack must end in the right fault.

use jord_hw::types::{CoreId, PdId, Perm};
use jord_hw::{Fault, Machine, MachineConfig};
use jord_privlib::{os, PrivError, PrivLib, TableChoice};

fn setup() -> (Machine, PrivLib) {
    let mut machine = Machine::new(MachineConfig::isca25());
    let privlib = os::boot(&mut machine, TableChoice::PlainList).expect("boot");
    (machine, privlib)
}

fn setup_btree() -> (Machine, PrivLib) {
    let mut machine = Machine::new(MachineConfig::isca25());
    let privlib = os::boot(&mut machine, TableChoice::BTree).expect("boot");
    (machine, privlib)
}

#[test]
fn forged_address_faults_unmapped() {
    let (mut m, mut p) = setup();
    let core = CoreId(1);
    let (pd, _) = p.cget(&mut m, core).unwrap();
    // A Jord-tagged VA that was never allocated.
    let forged = p.codec().base_of(jord_vma::SizeClass::MIN, 1234).unwrap();
    match p.access(&mut m, core, pd, forged, Perm::READ) {
        Err(PrivError::Fault(Fault::Unmapped { va })) => assert_eq!(va, forged),
        other => panic!("expected unmapped fault, got {other:?}"),
    }
}

#[test]
fn cross_pd_access_faults_permission() {
    for (mut m, mut p) in [setup(), setup_btree()] {
        let core = CoreId(1);
        let (pd_a, _) = p.cget(&mut m, core).unwrap();
        let (pd_b, _) = p.cget(&mut m, core).unwrap();
        let (heap_a, _) = p.mmap(&mut m, core, 4096, Perm::RW, pd_a).unwrap();

        // Owner can read and write.
        p.access(&mut m, core, pd_a, heap_a, Perm::RW).unwrap();
        p.access(&mut m, core, pd_a, heap_a + 4095, Perm::READ)
            .unwrap();

        // The other PD holds nothing.
        match p.access(&mut m, core, pd_b, heap_a, Perm::READ) {
            Err(PrivError::Fault(Fault::Permission { pd, held, .. })) => {
                assert_eq!(pd, pd_b);
                assert!(held.is_none());
            }
            other => panic!("expected permission fault, got {other:?}"),
        }
    }
}

#[test]
fn write_to_read_only_vma_faults() {
    let (mut m, mut p) = setup();
    let core = CoreId(2);
    let (pd, _) = p.cget(&mut m, core).unwrap();
    let (ro, _) = p.mmap(&mut m, core, 256, Perm::READ, pd).unwrap();
    p.access(&mut m, core, pd, ro, Perm::READ).unwrap();
    match p.access(&mut m, core, pd, ro, Perm::WRITE) {
        Err(PrivError::Fault(Fault::Permission { needed, held, .. })) => {
            assert_eq!(needed, Perm::WRITE);
            assert_eq!(held, Perm::READ);
        }
        other => panic!("expected permission fault, got {other:?}"),
    }
}

#[test]
fn untrusted_code_cannot_touch_privileged_vmas() {
    let (mut m, mut p) = setup();
    let core = CoreId(1);
    let (pd, _) = p.cget(&mut m, core).unwrap();
    // PrivLib's code VMA is global R-X but privileged: a data read from an
    // untrusted PD must raise a privilege fault, not succeed via the G bit.
    let layout_code = {
        // Re-derive the privlib code VMA base: first boot VMA (256 KiB class).
        let sc = jord_vma::SizeClass::for_len(256 << 10).unwrap();
        p.codec().base_of(sc, 0).unwrap()
    };
    match p.access(&mut m, core, pd, layout_code, Perm::READ) {
        Err(PrivError::Fault(Fault::Privilege { va })) => assert_eq!(va, layout_code),
        other => panic!("expected privilege fault, got {other:?}"),
    }
    // Executing it without a gate is equally fatal (decoder rule).
    match p.fetch(&mut m, core, pd, layout_code) {
        Err(PrivError::Fault(Fault::Privilege { .. })) => {}
        other => panic!("expected privilege fault on fetch, got {other:?}"),
    }
}

#[test]
fn privlib_entry_requires_uatg_gate() {
    let (m, mut p) = setup();
    let core = CoreId(3);
    match p.try_enter(&m, core, false) {
        Err(PrivError::Fault(Fault::MissingGate { .. })) => {}
        other => panic!("expected missing-gate fault, got {other:?}"),
    }
    let (gate, cost) = p.try_enter(&m, core, true).unwrap();
    assert_eq!(gate.core(), core);
    assert!(cost.as_ns_f64() > 0.0, "policy checks cost time");
}

#[test]
fn pmove_revokes_source_access() {
    let (mut m, mut p) = setup();
    let core = CoreId(1);
    let (src, _) = p.cget(&mut m, core).unwrap();
    let (dst, _) = p.cget(&mut m, core).unwrap();
    let (buf, _) = p.mmap(&mut m, core, 1024, Perm::RW, src).unwrap();

    // Warm the source's VLB so the test also proves the shootdown works.
    p.access(&mut m, core, src, buf, Perm::RW).unwrap();

    p.pmove(&mut m, core, buf, src, dst, Perm::RW).unwrap();
    assert!(
        matches!(
            p.access(&mut m, core, src, buf, Perm::READ),
            Err(PrivError::Fault(Fault::Permission { .. }))
        ),
        "stale source access must fault even after a VLB hit path"
    );
    p.access(&mut m, core, dst, buf, Perm::RW).unwrap();
}

#[test]
fn recycled_pd_id_inherits_no_grants() {
    for (mut m, mut p) in [setup(), setup_btree()] {
        let core = CoreId(1);
        let (pd, _) = p.cget(&mut m, core).unwrap();
        // A runtime-owned buffer shared with the PD, as a parent's child
        // ArgBuf is; the PD dies before the buffer does.
        let (buf, _) = p.mmap(&mut m, core, 128, Perm::RW, PdId::RUNTIME).unwrap();
        p.pcopy(&mut m, core, buf, PdId::RUNTIME, pd, Perm::RW)
            .unwrap();
        p.access(&mut m, core, pd, buf, Perm::RW).unwrap();
        p.cput(&mut m, core, pd).unwrap();

        let (reused, _) = p.cget(&mut m, core).unwrap();
        assert_eq!(reused, pd, "the PD free list is LIFO");
        let (_, _, vte) = p.peek_vma(buf).unwrap();
        assert_eq!(vte.perm_for(reused), Perm::NONE);
        assert!(matches!(
            p.access(&mut m, core, reused, buf, Perm::READ),
            Err(PrivError::Fault(Fault::Permission { .. }))
        ));
    }
}

#[test]
fn pcopy_keeps_both_and_narrows_by_prot() {
    let (mut m, mut p) = setup();
    let core = CoreId(1);
    let (src, _) = p.cget(&mut m, core).unwrap();
    let (dst, _) = p.cget(&mut m, core).unwrap();
    let (buf, _) = p.mmap(&mut m, core, 1024, Perm::RW, src).unwrap();
    // Copy read-only: the consumer side of a zero-copy ArgBuf handoff.
    p.pcopy(&mut m, core, buf, src, dst, Perm::READ).unwrap();
    p.access(&mut m, core, src, buf, Perm::RW).unwrap();
    p.access(&mut m, core, dst, buf, Perm::READ).unwrap();
    assert!(matches!(
        p.access(&mut m, core, dst, buf, Perm::WRITE),
        Err(PrivError::Fault(Fault::Permission { .. }))
    ));
}

#[test]
fn munmap_shoots_down_stale_translations() {
    let (mut m, mut p) = setup();
    let core = CoreId(1);
    let (pd, _) = p.cget(&mut m, core).unwrap();
    let (buf, _) = p.mmap(&mut m, core, 4096, Perm::RW, pd).unwrap();
    p.access(&mut m, core, pd, buf, Perm::RW).unwrap(); // VLB now caches it
    p.munmap(&mut m, core, buf, pd).unwrap();
    match p.access(&mut m, core, pd, buf, Perm::READ) {
        Err(PrivError::Fault(Fault::Unmapped { .. })) => {}
        other => panic!("use-after-unmap must fault, got {other:?}"),
    }
}

#[test]
fn remote_core_sees_revocation() {
    let (mut m, mut p) = setup();
    let owner_core = CoreId(1);
    let victim_core = CoreId(30);
    let (src, _) = p.cget(&mut m, owner_core).unwrap();
    let (dst, _) = p.cget(&mut m, owner_core).unwrap();
    let (buf, _) = p.mmap(&mut m, owner_core, 1024, Perm::RW, src).unwrap();
    // The victim core warms its VLB with src's translation.
    p.access(&mut m, victim_core, src, buf, Perm::READ).unwrap();
    // Owner core moves the permission away — hardware VLB shootdown must
    // reach the victim core.
    p.pmove(&mut m, owner_core, buf, src, dst, Perm::RW)
        .unwrap();
    assert!(
        matches!(
            p.access(&mut m, victim_core, src, buf, Perm::READ),
            Err(PrivError::Fault(Fault::Permission { .. }))
        ),
        "remote VLB must have been invalidated"
    );
}

#[test]
fn mprotect_narrowing_takes_effect_immediately() {
    let (mut m, mut p) = setup();
    let core = CoreId(4);
    let (pd, _) = p.cget(&mut m, core).unwrap();
    let (buf, _) = p.mmap(&mut m, core, 512, Perm::RW, pd).unwrap();
    p.access(&mut m, core, pd, buf, Perm::WRITE).unwrap();
    p.mprotect(&mut m, core, buf, Perm::READ, pd).unwrap();
    assert!(matches!(
        p.access(&mut m, core, pd, buf, Perm::WRITE),
        Err(PrivError::Fault(Fault::Permission { .. }))
    ));
    p.access(&mut m, core, pd, buf, Perm::READ).unwrap();
}

#[test]
fn vlb_entries_do_not_leak_across_pds_on_one_core() {
    let (mut m, mut p) = setup();
    let core = CoreId(1);
    let (pd_a, _) = p.cget(&mut m, core).unwrap();
    let (pd_b, _) = p.cget(&mut m, core).unwrap();
    let (buf, _) = p.mmap(&mut m, core, 256, Perm::RW, pd_a).unwrap();
    // Same core, same VLB: warm under pd_a …
    p.access(&mut m, core, pd_a, buf, Perm::READ).unwrap();
    // … must not serve pd_b.
    assert!(p.access(&mut m, core, pd_b, buf, Perm::READ).is_err());
}

#[test]
fn resource_exhaustion_is_an_error_not_a_panic() {
    let (mut m, mut p) = setup();
    let core = CoreId(1);
    // Drain every PD.
    let mut pds = Vec::new();
    loop {
        match p.cget(&mut m, core) {
            Ok((pd, _)) => pds.push(pd),
            Err(PrivError::OutOfPds) => break,
            Err(e) => panic!("unexpected {e}"),
        }
    }
    assert_eq!(pds.len(), jord_privlib::privlib::MAX_PDS as usize);
    // Release one and it becomes available again.
    p.cput(&mut m, core, pds.pop().unwrap()).unwrap();
    p.cget(&mut m, core).unwrap();

    // Drain the 4 GiB size class (64 VMAs).
    let mut bufs = Vec::new();
    loop {
        match p.mmap(&mut m, core, 4 << 30, Perm::RW, PdId::RUNTIME) {
            Ok((va, _)) => bufs.push(va),
            Err(PrivError::OutOfVmas { .. }) | Err(PrivError::OutOfMemory) => break,
            Err(e) => panic!("unexpected {e}"),
        }
    }
    assert!(!bufs.is_empty());
}

#[test]
fn double_munmap_and_bad_arguments_are_rejected() {
    let (mut m, mut p) = setup();
    let core = CoreId(1);
    let (pd, _) = p.cget(&mut m, core).unwrap();
    let (buf, _) = p.mmap(&mut m, core, 128, Perm::RW, pd).unwrap();
    p.munmap(&mut m, core, buf, pd).unwrap();
    assert!(matches!(
        p.munmap(&mut m, core, buf, pd),
        Err(PrivError::BadAddress { .. })
    ));
    assert!(matches!(
        p.mmap(&mut m, core, 0, Perm::RW, pd),
        Err(PrivError::BadLength { .. })
    ));
    assert!(matches!(
        p.mmap(&mut m, core, (4u64 << 30) + 1, Perm::RW, pd),
        Err(PrivError::BadLength { .. })
    ));
    // Transfers to dead PDs are rejected.
    let (buf2, _) = p.mmap(&mut m, core, 128, Perm::RW, pd).unwrap();
    let (dead, _) = p.cget(&mut m, core).unwrap();
    p.cput(&mut m, core, dead).unwrap();
    assert!(matches!(
        p.pmove(&mut m, core, buf2, pd, dead, Perm::RW),
        Err(PrivError::BadPd { .. })
    ));
    // PD switches into dead PDs are rejected.
    assert!(matches!(
        p.ccall(&mut m, core, dead),
        Err(PrivError::BadPd { .. })
    ));
    // cput of the runtime PD is rejected.
    assert!(p.cput(&mut m, core, PdId::RUNTIME).is_err());
}

#[test]
fn non_owner_cannot_munmap_or_transfer() {
    let (mut m, mut p) = setup();
    let core = CoreId(1);
    let (owner, _) = p.cget(&mut m, core).unwrap();
    let (thief, _) = p.cget(&mut m, core).unwrap();
    let (buf, _) = p.mmap(&mut m, core, 1024, Perm::RW, owner).unwrap();
    assert!(matches!(
        p.munmap(&mut m, core, buf, thief),
        Err(PrivError::NotOwner { .. })
    ));
    assert!(matches!(
        p.pmove(&mut m, core, buf, thief, owner, Perm::RW),
        Err(PrivError::NotOwner { .. })
    ));
}

#[test]
fn bypassed_mode_skips_isolation_but_tracks_memory() {
    let mut m = Machine::new(MachineConfig::isca25());
    let mut p = os::boot_full(
        &mut m,
        TableChoice::PlainList,
        jord_privlib::IsolationMode::Bypassed,
    )
    .unwrap()
    .0;
    let core = CoreId(1);
    let (pd_a, c1) = p.cget(&mut m, core).unwrap();
    assert!(c1.is_zero(), "Jord_NI pays nothing for PD creation");
    let (buf, _) = p.mmap(&mut m, core, 1024, Perm::RW, pd_a).unwrap();
    // No isolation: any PD can access anything.
    let (pd_b, _) = p.cget(&mut m, core).unwrap();
    assert!(p.access(&mut m, core, pd_b, buf, Perm::RW).is_ok());
    // But memory management still works and double frees are still caught.
    p.munmap(&mut m, core, buf, pd_b).unwrap();
    assert!(p.munmap(&mut m, core, buf, pd_b).is_err());
}

#[test]
fn mresize_grows_and_shrinks_within_the_chunk() {
    let (mut m, mut p) = setup();
    let core = CoreId(1);
    let (pd, _) = p.cget(&mut m, core).unwrap();
    // 1000 B lands in the 1 KiB class; the chunk allows growth to 1024.
    let (va, _) = p.mmap(&mut m, core, 1000, Perm::RW, pd).unwrap();
    p.access(&mut m, core, pd, va + 999, Perm::READ).unwrap();
    assert!(matches!(
        p.access(&mut m, core, pd, va + 1000, Perm::READ),
        Err(PrivError::Fault(Fault::Unmapped { .. }))
    ));
    // Grow to the full chunk: the tail becomes accessible.
    p.mresize(&mut m, core, va, 1024, pd).unwrap();
    p.access(&mut m, core, pd, va + 1023, Perm::READ).unwrap();
    // Shrink: the tail faults again (stale VLB entries are shot down).
    p.mresize(&mut m, core, va, 512, pd).unwrap();
    assert!(matches!(
        p.access(&mut m, core, pd, va + 600, Perm::READ),
        Err(PrivError::Fault(Fault::Unmapped { .. }))
    ));
    // Beyond the chunk or by a non-holder: rejected.
    assert!(matches!(
        p.mresize(&mut m, core, va, 2048, pd),
        Err(PrivError::BadLength { .. })
    ));
    let (other, _) = p.cget(&mut m, core).unwrap();
    assert!(matches!(
        p.mresize(&mut m, core, va, 800, other),
        Err(PrivError::NotOwner { .. })
    ));
}

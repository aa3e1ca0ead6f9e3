//! The isolation mechanism up close: PDs, permission transfers, VLB
//! shootdowns, and the threat model of §3.1 — driven directly through
//! PrivLib on the simulated hardware.
//!
//! Run with: `cargo run --release -p jord-bench -- isolation`

use jord::prelude::*;
use jord::privlib::os;

pub fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut machine = Machine::new(MachineConfig::isca25());
    let mut privlib = os::boot(&mut machine, TableChoice::PlainList)?;
    let core = CoreId(1);

    // Two tenants, one address space.
    let (alice, c1) = privlib.cget(&mut machine, core)?;
    let (bob, c2) = privlib.cget(&mut machine, core)?;
    println!("created {alice:?} ({c1}) and {bob:?} ({c2}) — nanosecond-scale cget");

    // Alice allocates a buffer; the VMA lands in her PD only.
    let (buf, c) = privlib.mmap(&mut machine, core, 4096, Perm::RW, alice)?;
    println!("alice mmap(4096) -> {buf:#x} in {c}");

    // Alice can use it; Bob faults, exactly as §3.1 requires.
    privlib.access(&mut machine, core, alice, buf, Perm::RW)?;
    match privlib.access(&mut machine, core, bob, buf, Perm::READ) {
        Err(PrivError::Fault(fault)) => println!("bob's forged access -> {fault}"),
        other => panic!("isolation hole! {other:?}"),
    }

    // Zero-copy handoff: one VTE write moves the permission to Bob.
    let c = privlib.pmove(&mut machine, core, buf, alice, bob, Perm::RW)?;
    println!("pmove(alice -> bob) in {c} — the buffer's bytes never moved");
    privlib.access(&mut machine, core, bob, buf, Perm::RW)?;
    match privlib.access(&mut machine, core, alice, buf, Perm::READ) {
        Err(PrivError::Fault(fault)) => println!("alice's stale access -> {fault}"),
        other => panic!("revocation failed! {other:?}"),
    }

    // Cross-core revocation: a remote core warms its VLB, then loses the
    // translation through the hardware VTD shootdown.
    let remote = CoreId(30);
    privlib.access(&mut machine, remote, bob, buf, Perm::READ)?;
    let c = privlib.pmove(&mut machine, core, buf, bob, alice, Perm::RW)?;
    println!("pmove back from {core} while {remote} cached the translation: {c}");
    match privlib.access(&mut machine, remote, bob, buf, Perm::READ) {
        Err(PrivError::Fault(fault)) => {
            println!("{remote}'s VLB was shot down in hardware -> {fault}")
        }
        other => panic!("stale remote translation! {other:?}"),
    }

    // PrivLib itself is unreachable except through uatg call gates.
    match privlib.try_enter(&machine, core, false) {
        Err(PrivError::Fault(fault)) => println!("gateless PrivLib entry -> {fault}"),
        other => panic!("call gate bypassed! {other:?}"),
    }
    let (_gate, c) = privlib.try_enter(&machine, core, true)?;
    println!("gated entry with mandatory policy checks costs {c}");

    // Tear down.
    privlib.munmap(&mut machine, core, buf, alice)?;
    privlib.cput(&mut machine, core, alice)?;
    privlib.cput(&mut machine, core, bob)?;
    let s = machine.stats();
    println!(
        "\nhardware counters: {} VTD shootdown(s), D-VLB {} hits / {} misses",
        s.dvlb.shootdowns, s.dvlb.hits, s.dvlb.misses
    );
    Ok(())
}

//! **Table 4** — VMA and PD operation latencies.
//!
//! Measures each PrivLib operation on warm state, on both the simulator
//! model (Table 2 machine) and the FPGA model (OpenXiangShan-like: same
//! SRAM latencies, lower instruction-execution IPC), and prints them next
//! to the paper's numbers.

use jord_hw::types::{CoreId, Perm};
use jord_hw::{Machine, MachineConfig};
use jord_privlib::{os, TableChoice};

struct OpRow {
    name: &'static str,
    paper_sim_ns: f64,
    paper_fpga_ns: f64,
    sim_ns: f64,
    fpga_ns: f64,
}

/// Measures one machine model; returns ns per op in Table 4 order.
fn measure(machine_cfg: MachineConfig) -> [f64; 7] {
    let mut m = Machine::new(machine_cfg);
    let mut p = os::boot(&mut m, TableChoice::PlainList).expect("boot");
    let core = CoreId(1);
    let (pd, _) = p.cget(&mut m, core).unwrap();

    // Warm every resource the steady state recycles.
    for _ in 0..4 {
        let (va, _) = p.mmap(&mut m, core, 1024, Perm::RW, pd).unwrap();
        p.munmap(&mut m, core, va, pd).unwrap();
        let (w, _) = p.cget(&mut m, core).unwrap();
        p.cput(&mut m, core, w).unwrap();
    }

    let avg = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    const ITERS: usize = 64;

    // VMA lookup: VLB-miss walk with the VTE warm in L1D.
    let mut lookups = Vec::new();
    let (target, _) = p.mmap(&mut m, core, 1024, Perm::RW, pd).unwrap();
    p.access(&mut m, core, pd, target, Perm::READ).unwrap();
    let mut evictors = Vec::new();
    for _ in 0..m.config().dvlb_entries {
        let (va, _) = p.mmap(&mut m, core, 1024, Perm::RW, pd).unwrap();
        evictors.push(va);
    }
    for _ in 0..ITERS {
        for &va in &evictors {
            p.access(&mut m, core, pd, va, Perm::READ).unwrap();
        }
        let c = p.access(&mut m, core, pd, target, Perm::READ).unwrap();
        if !c.is_zero() {
            lookups.push(c.as_ns_f64());
        }
    }

    // Insertion / update / deletion on recycled slots.
    let mut ins = Vec::new();
    let mut upd = Vec::new();
    let mut del = Vec::new();
    for _ in 0..ITERS {
        let (va, c_ins) = p.mmap(&mut m, core, 1024, Perm::RW, pd).unwrap();
        ins.push(c_ins.as_ns_f64());
        let c_upd = p.mprotect(&mut m, core, va, Perm::READ, pd).unwrap();
        upd.push(c_upd.as_ns_f64());
        let c_del = p.munmap(&mut m, core, va, pd).unwrap();
        del.push(c_del.as_ns_f64());
    }

    // PD creation / deletion / switching on recycled ids.
    let mut cr = Vec::new();
    let mut de = Vec::new();
    let mut sw = Vec::new();
    for _ in 0..ITERS {
        let (p2, c_cr) = p.cget(&mut m, core).unwrap();
        cr.push(c_cr.as_ns_f64());
        let c_in = p.ccall(&mut m, core, p2).unwrap();
        let c_out = p.cexit(&mut m, core);
        sw.push(c_in.as_ns_f64());
        sw.push(c_out.as_ns_f64());
        let c_de = p.cput(&mut m, core, p2).unwrap();
        de.push(c_de.as_ns_f64());
    }

    [
        avg(&lookups),
        avg(&upd),
        avg(&ins),
        avg(&del),
        avg(&cr),
        avg(&de),
        avg(&sw),
    ]
}

pub fn main() {
    crate::header("Table 4: VMA and PD operation latencies (ns)");
    let sim = measure(MachineConfig::isca25());
    let fpga = measure(MachineConfig::fpga());
    let rows = [
        ("VMA lookup", 2.0, 2.0),
        ("VMA update", 16.0, 33.0),
        ("VMA insertion", 16.0, 37.0),
        ("VMA deletion", 27.0, 39.0),
        ("PD creation", 11.0, 25.0),
        ("PD deletion", 14.0, 30.0),
        ("PD switching", 12.0, 22.0),
    ];
    crate::row(&[
        "operation".into(),
        "sim(meas)".into(),
        "sim(paper)".into(),
        "fpga(meas)".into(),
        "fpga(paper)".into(),
    ]);
    for (i, (name, paper_sim, paper_fpga)) in rows.iter().enumerate() {
        let r = OpRow {
            name,
            paper_sim_ns: *paper_sim,
            paper_fpga_ns: *paper_fpga,
            sim_ns: sim[i],
            fpga_ns: fpga[i],
        };
        crate::row(&[
            r.name.into(),
            format!("{:.1}", r.sim_ns),
            format!("{:.0}", r.paper_sim_ns),
            format!("{:.1}", r.fpga_ns),
            format!("{:.0}", r.paper_fpga_ns),
        ]);
    }
    println!();
    println!("note: FPGA model = identical SRAM/raw-hardware latencies, lower");
    println!(
        "instruction-execution IPC (ipc_factor {:.1}), per the Table 4 footnote.",
        MachineConfig::fpga().ipc_factor
    );
}

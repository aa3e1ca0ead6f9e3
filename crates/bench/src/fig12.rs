//! **Figure 12** — sensitivity of performance to the number of I-VLB and
//! D-VLB entries.
//!
//! Paper observations reproduced here: FaaS functions need very few VLB
//! entries — two I-VLB entries already cover the function's code plus
//! PrivLib (≥99 % of full throughput for Hipster), and four-to-eight D-VLB
//! entries suffice even for Media's ArgBuf-heavy functions, because the
//! plain-list walk behind a miss costs only ~2 ns.

use crate::{header, requests_per_point, row};
use jord_hw::MachineConfig;
use jord_workloads::{runner::RunSpec, System, Workload, WorkloadKind};

fn vlb_sweep(kind: WorkloadKind, instr: bool, loads: &[f64], n: usize) {
    let w = Workload::build(kind);
    let which = if instr { "I-VLB" } else { "D-VLB" };
    header(&format!(
        "Figure 12: {} ({}) — p99 latency (us) vs load (MRPS) by entry count",
        w.name(),
        which
    ));
    let entries = [1usize, 2, 4, 16];
    let mut head = vec!["MRPS".to_string()];
    head.extend(entries.iter().map(|e| format!("{e}-entry")));
    row(&head);

    let curves: Vec<Vec<(f64, f64)>> = entries
        .iter()
        .map(|&e| {
            let mut machine = MachineConfig::isca25();
            if instr {
                machine.ivlb_entries = e;
            } else {
                machine.dvlb_entries = e;
            }
            loads
                .iter()
                .map(|&mrps| {
                    let rep = RunSpec::new(System::Jord, mrps * 1e6)
                        .on(machine.clone())
                        .requests(n, n / 10 + 100)
                        .run(&w);
                    (mrps, rep.p99().expect("completed").as_us_f64())
                })
                .collect()
        })
        .collect();

    for (i, &mrps) in loads.iter().enumerate() {
        let mut cells = vec![format!("{mrps:.2}")];
        for c in &curves {
            cells.push(format!("{:.1}", c[i].1));
        }
        row(&cells);
    }
}

pub fn main() {
    let n = requests_per_point();
    // Hipster stresses the I-VLB (per-invocation code-grant churn);
    // Media stresses the D-VLB (many live ArgBufs per function).
    vlb_sweep(
        WorkloadKind::Hipster,
        true,
        &[1.0, 4.0, 8.0, 10.0, 12.0, 14.0],
        n,
    );
    vlb_sweep(
        WorkloadKind::Media,
        false,
        &[0.25, 0.75, 1.25, 1.75, 2.25, 2.75],
        n,
    );

    // Quantified check: throughput at the paper's "sufficient" entry counts
    // vs the full 16-entry configuration.
    let w = Workload::build(WorkloadKind::Hipster);
    let probe = |ivlb: usize| {
        let mut machine = MachineConfig::isca25();
        machine.ivlb_entries = ivlb;
        let pts = {
            let loads = [10.0, 12.0];
            loads
                .iter()
                .map(|&mrps| {
                    let rep = RunSpec::new(System::Jord, mrps * 1e6)
                        .on(machine.clone())
                        .requests(n, n / 10 + 100)
                        .run(&w);
                    rep.p99().unwrap().as_us_f64()
                })
                .collect::<Vec<_>>()
        };
        pts
    };
    let two = probe(2);
    let full = probe(16);
    println!();
    println!(
        "check: Hipster p99 at 10/12 MRPS with 2-entry I-VLB = {:.1}/{:.1} us vs \
         16-entry = {:.1}/{:.1} us (paper: two entries reach 99% of throughput)",
        two[0], two[1], full[0], full[1]
    );
}

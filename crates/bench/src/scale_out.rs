//! Scaling a Jord worker server from 16 cores to a dual-socket 256-core
//! machine — the §6.3 study, showing why orchestrators must be per-socket.
//!
//! Run with: `cargo run --release -p jord-bench -- scale-out`

use jord::prelude::*;

pub fn main() {
    let workload = Workload::build(WorkloadKind::Hipster);
    let scales = [
        ("16-core", MachineConfig::scaled(16)),
        ("64-core", MachineConfig::scaled(64)),
        ("256-core", MachineConfig::scaled(256)),
        ("2-socket", MachineConfig::two_socket()),
    ];

    println!("single orchestrator scanning every executor (the anti-pattern):");
    println!(
        "{:>10} {:>12} {:>14} {:>14}",
        "scale", "serv(us)", "dispatch(us)", "shootdown(us)"
    );
    for (name, machine) in &scales {
        let rep = RunSpec::new(SystemVariant::Jord, 2.0e4)
            .on(machine.clone())
            .orchestrators(1)
            .requests(2_000, 200)
            .run(&workload);
        println!(
            "{:>10} {:>12.2} {:>14.3} {:>14.3}",
            name,
            rep.service.mean().unwrap().as_us_f64(),
            rep.dispatch_ns.mean().unwrap_or(0.0) / 1e3,
            rep.shootdown_ns.mean().unwrap_or(0.0) / 1e3,
        );
    }

    println!("\nper-socket orchestrator groups (the paper's recommendation):");
    println!(
        "{:>10} {:>8} {:>14} {:>10}",
        "scale", "orchs", "dispatch(us)", "p99(us)"
    );
    for (name, machine) in &scales {
        let orchs = (machine.cores / 8).max(1);
        let rep = RunSpec::new(SystemVariant::Jord, 2.0e4)
            .on(machine.clone())
            .orchestrators(orchs)
            .requests(2_000, 200)
            .run(&workload);
        println!(
            "{:>10} {:>8} {:>14.3} {:>10.1}",
            name,
            orchs,
            rep.dispatch_ns.mean().unwrap_or(0.0) / 1e3,
            rep.p99().unwrap().as_us_f64(),
        );
    }
    println!(
        "\ntakeaway: dispatch latency is the only latency that scales with the\n\
         machine; grouping executors under nearby orchestrators flattens it."
    );
}

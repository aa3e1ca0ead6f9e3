//! **Figure 14** — sensitivity of average function service time, VLB
//! shootdown latency, and dispatch latency to the system scale
//! (16/64/128/256 cores single-socket, plus 2×128 dual-socket).
//!
//! The service-time series is workload-driven; the shootdown and dispatch
//! series are the paper's worst-case microbenchmarks:
//! * shootdown — every core shares the translation; the writer waits on
//!   the furthest core's ack (sublinear growth with mesh diameter);
//! * dispatch — a single orchestrator JBSQ-scans every executor whose
//!   queue line was just modified (one coherence message per executor;
//!   cross-socket latencies push it to ~12 µs at 2×128 cores).

use crate::{header, requests_per_point, row};
use jord_core::SystemVariant;
use jord_hw::types::{CoreId, PdId, Perm, VteAddr};
use jord_hw::{Machine, MachineConfig, VlbKind};
use jord_sim::SimDuration;
use jord_workloads::{runner::RunSpec, Workload, WorkloadKind};

/// Worst-case VLB shootdown: all cores cache the translation, core 0
/// rewrites the VTE; completion waits on the furthest sharer.
fn shootdown_worst_us(machine_cfg: &MachineConfig) -> f64 {
    let mut m = Machine::new(machine_cfg.clone());
    let samples = 16;
    let mut total = SimDuration::ZERO;
    for s in 0..samples {
        let vte = VteAddr(0x4000 + s * 64);
        for c in 0..m.config().cores {
            m.vte_read(CoreId(c), vte);
            m.vlb_fill(
                CoreId(c),
                VlbKind::Data,
                jord_hw::types::VlbEntry {
                    vte,
                    base: 0x100000 + s * 4096,
                    len: 4096,
                    pd: PdId(1),
                    global: false,
                    perm: Perm::RW,
                    privileged: false,
                },
            );
        }
        let (lat, victims) = m.vte_write(CoreId(0), vte);
        assert!(victims >= m.config().cores - 1, "all cores invalidated");
        total += lat;
    }
    (total / samples).as_us_f64()
}

/// Worst-case dispatch: one orchestrator on core 0 scans every executor's
/// queue line right after each executor modified it (so every read is a
/// coherence miss), then pushes to the chosen one. MLP overlaps the loads
/// exactly as the runtime's JBSQ scan does.
fn dispatch_worst_us(machine_cfg: &MachineConfig) -> f64 {
    let mut m = Machine::new(machine_cfg.clone());
    let orch = CoreId(0);
    let base = 0x80_0000_0000u64;
    let n_exec = m.config().cores - 1;
    let mlp = m.config().mlp as u64;
    let samples = 8;
    let mut total = SimDuration::ZERO;
    for _ in 0..samples {
        // Executors update their advertised queue state…
        for e in 0..n_exec {
            m.atomic_rmw(CoreId(e + 1), base + e as u64 * 64);
        }
        // …then the orchestrator scans all of them.
        let mut sum = SimDuration::ZERO;
        let mut worst = SimDuration::ZERO;
        for e in 0..n_exec {
            let lat = m.read(orch, base + e as u64 * 64, 8);
            sum += lat;
            worst = worst.max(lat);
        }
        let scan = worst.max(sum / mlp) + m.work(1.0 * n_exec as f64);
        let push = m.write(orch, base + 7 * 64, 64);
        total += scan + push;
    }
    (total / samples).as_us_f64()
}

pub fn main() {
    let n = requests_per_point();
    let w = Workload::build(WorkloadKind::Hipster);

    let scales: Vec<(&str, MachineConfig)> = vec![
        ("16-core", MachineConfig::scaled(16)),
        ("64-core", MachineConfig::scaled(64)),
        ("128-core", MachineConfig::scaled(128)),
        ("256-core", MachineConfig::scaled(256)),
        ("2-socket", MachineConfig::two_socket()),
    ];

    header("Figure 14: avg service time, VLB shootdown, dispatch vs scale");
    row(&[
        "scale".into(),
        "serv(us)".into(),
        "shootdown(us)".into(),
        "dispatch(us)".into(),
    ]);

    let mut disp = Vec::new();
    for (name, machine) in &scales {
        // Service time: workload-driven at a fixed light per-machine load
        // with the default per-socket orchestrator groups.
        let rep = RunSpec::new(SystemVariant::Jord, 0.2e6)
            .on(machine.clone())
            .requests(n.min(3000), 300)
            .run(&w);
        let serv = rep.service.mean().unwrap().as_us_f64();
        let shoot = shootdown_worst_us(machine);
        let d = dispatch_worst_us(machine);
        disp.push(d);
        row(&[
            (*name).into(),
            format!("{serv:.2}"),
            format!("{shoot:.3}"),
            format!("{d:.3}"),
        ]);
    }

    println!();
    println!(
        "check: worst-case dispatch at 2-socket = {:.1} us (paper: ~12 us); \
         16-core → 2-socket growth {:.0}x",
        disp.last().unwrap(),
        disp.last().unwrap() / disp.first().unwrap()
    );
    println!(
        "check: service time and shootdown grow sublinearly (ArgBufs span ~15 \
         cache blocks regardless of scale; shootdown waits only on the \
         furthest core)."
    );

    // The §6.3 mitigation: per-socket orchestrators with affinity
    // dispatch. Same worst-case scan, but the group is socket-local.
    header("§6.3 mitigation: dual-socket worst-case dispatch by group scope");
    row(&["group".into(), "executors".into(), "dispatch(us)".into()]);
    let whole = dispatch_worst_group_us(&MachineConfig::two_socket(), 255, false);
    let local = dispatch_worst_group_us(&MachineConfig::two_socket(), 127, true);
    row(&["machine-wide".into(), "255".into(), format!("{whole:.3}")]);
    row(&["per-socket".into(), "127".into(), format!("{local:.3}")]);
    println!();
    println!(
        "note: affinity-grouped orchestrators never cross the socket link on \
         the dispatch path, cutting worst-case dispatch by {:.0}x (§6.3: load \
         imbalance from multi-queue dispatch is negligible at this fan-out).",
        whole / local
    );
}

/// Like `dispatch_worst_us`, but the orchestrator scans only `group_size`
/// executors; `local_only` restricts them to the orchestrator's socket.
fn dispatch_worst_group_us(
    machine_cfg: &MachineConfig,
    group_size: usize,
    local_only: bool,
) -> f64 {
    let mut m = Machine::new(machine_cfg.clone());
    let orch = CoreId(0);
    let base = 0x81_0000_0000u64;
    let per_socket = machine_cfg.cores / machine_cfg.sockets;
    let executors: Vec<usize> = (1..machine_cfg.cores)
        .filter(|&c| !local_only || c < per_socket)
        .take(group_size)
        .collect();
    let mlp = m.config().mlp as u64;
    let samples = 8;
    let mut total = SimDuration::ZERO;
    for _ in 0..samples {
        for (i, &e) in executors.iter().enumerate() {
            m.atomic_rmw(CoreId(e), base + i as u64 * 64);
        }
        let mut sum = SimDuration::ZERO;
        let mut worst = SimDuration::ZERO;
        for i in 0..executors.len() {
            let lat = m.read(orch, base + i as u64 * 64, 8);
            sum += lat;
            worst = worst.max(lat);
        }
        let scan = worst.max(sum / mlp) + m.work(executors.len() as f64);
        let push = m.write(orch, base + 3 * 64, 64);
        total += scan + push;
    }
    (total / samples).as_us_f64()
}

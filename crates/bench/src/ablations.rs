//! Ablations of Jord's design choices beyond the paper's own figures.
//!
//! Three knobs the paper fixes (and we can sweep, because we built the
//! whole system):
//!
//! * **orchestrator count** — §3.3 says a worker server runs "one or more"
//!   orchestrators; this sweep shows where dispatch capacity saturates.
//! * **JBSQ bound** — the `k` in JBSQ(k): small bounds cut queueing
//!   variance but force orchestrator retries; large bounds behave like
//!   plain join-shortest-queue.
//! * **memory-level parallelism** — the scan cost model of §6.3 assumes
//!   overlapped queue-length loads; MLP=1 shows the un-overlapped worst
//!   case the paper's "even with memory-level parallelism" remark alludes
//!   to.

use crate::{header, requests_per_point, row};
use jord_hw::types::CoreId;
use jord_hw::{Machine, MachineConfig};
use jord_sim::SimDuration;
use jord_workloads::{runner::RunSpec, System, Workload, WorkloadKind};

pub fn main() {
    let n = requests_per_point();

    // ---- orchestrator count ---------------------------------------------
    let w = Workload::build(WorkloadKind::Hipster);
    header("Ablation: orchestrator count (Hipster, p99 us by load)");
    let loads = [4.0, 8.0, 10.0, 12.0];
    let mut head = vec!["orchs".to_string()];
    head.extend(loads.iter().map(|l| format!("{l} MRPS")));
    row(&head);
    for orchs in [1usize, 2, 4, 8] {
        let mut cells = vec![format!("{orchs}")];
        for &mrps in &loads {
            let rep = RunSpec::new(System::Jord, mrps * 1e6)
                .orchestrators(orchs)
                .requests(n, n / 10 + 100)
                .run(&w);
            cells.push(format!("{:.1}", rep.p99().unwrap().as_us_f64()));
        }
        row(&cells);
    }
    println!("(too few orchestrators: dispatch saturates; the default is cores/8)");

    // ---- JBSQ bound -------------------------------------------------------
    let w = Workload::build(WorkloadKind::Hotel);
    header("Ablation: JBSQ bound k (Hotel, p99 us by load)");
    let loads = [2.0, 4.0, 5.0, 6.0];
    let mut head = vec!["k".to_string()];
    head.extend(loads.iter().map(|l| format!("{l} MRPS")));
    row(&head);
    for k in [1usize, 2, 4, 16] {
        let mut cells = vec![format!("{k}")];
        for &mrps in &loads {
            // Thread the bound through a custom runtime config.
            let warmup = n / 10 + 100;
            let mut cfg = jord_core::RuntimeConfig::variant_on(
                jord_core::SystemVariant::Jord,
                MachineConfig::isca25(),
            );
            cfg.queue_bound = k;
            let mut server = jord_core::WorkerServer::new(cfg, w.registry.clone()).unwrap();
            let mut gen = jord_workloads::LoadGen::new(&w, 42).unwrap();
            server.set_warmup(warmup as u64);
            for (t, f, b) in gen.arrivals(mrps * 1e6, n + warmup) {
                server.push_request(t, f, b);
            }
            let rep = server.run();
            cells.push(format!("{:.1}", rep.p99().unwrap().as_us_f64()));
        }
        row(&cells);
    }
    println!("(k=1 forces orchestrator retries; large k admits queue imbalance)");

    // ---- MLP --------------------------------------------------------------
    header("Ablation: scan MLP (worst-case 2-socket dispatch, us)");
    row(&["mlp".into(), "dispatch(us)".into()]);
    for mlp in [1usize, 4, 8, 16] {
        let mut cfg = MachineConfig::two_socket();
        cfg.mlp = mlp;
        let mut m = Machine::new(cfg);
        let base = 0x82_0000_0000u64;
        let n_exec = m.config().cores - 1;
        let mut total = SimDuration::ZERO;
        let samples = 8;
        for _ in 0..samples {
            for e in 0..n_exec {
                m.atomic_rmw(CoreId(e + 1), base + e as u64 * 64);
            }
            let mut sum = SimDuration::ZERO;
            let mut worst = SimDuration::ZERO;
            for e in 0..n_exec {
                let lat = m.read(CoreId(0), base + e as u64 * 64, 8);
                sum += lat;
                worst = worst.max(lat);
            }
            total += worst.max(sum / mlp as u64);
        }
        row(&[
            format!("{mlp}"),
            format!("{:.2}", (total / samples).as_us_f64()),
        ]);
    }
    println!("(the Table 2 core sustains ~8 outstanding scan loads)");
}

//! **Figure 13** — Jord with a B-tree VMA table (Jord_BT) vs the plain list.
//!
//! Paper observations reproduced here (Hotel): Jord_BT reaches ~60 % of
//! Jord's throughput under SLO; average function service time rises ~43 %
//! (driven by the ~20 ns vs ~2 ns VLB miss penalty); PrivLib spends ~167 %
//! more time managing VMAs (tree walks + rebalancing); yet Jord_BT still
//! beats NightCore.

use crate::{header, requests_per_point, row};
use jord_core::{RuntimeConfig, SystemVariant, WorkerServer};
use jord_hw::types::{CoreId, Perm};
use jord_hw::{Machine, MachineConfig};
use jord_privlib::{os, TableChoice};
use jord_workloads::{measure_slo, throughput_under_slo, Workload, WorkloadKind};

/// Measures the VLB-miss walk penalty on a warm table of each kind.
fn walk_penalty(choice: TableChoice) -> f64 {
    let mut m = Machine::new(MachineConfig::isca25());
    let mut p = os::boot(&mut m, choice).expect("boot");
    let core = CoreId(1);
    let (pd, _) = p.cget(&mut m, core).unwrap();
    // Populate a few hundred VMAs so the B-tree has real depth.
    let mut vas = Vec::new();
    for _ in 0..300 {
        let (va, _) = p.mmap(&mut m, core, 1024, Perm::RW, pd).unwrap();
        vas.push(va);
    }
    // Touch them all once (warm the table memory), then measure re-walks
    // forced by VLB capacity misses.
    for &va in &vas {
        p.access(&mut m, core, pd, va, Perm::READ).unwrap();
    }
    let mut total = 0.0;
    let mut count = 0;
    for round in 0..8 {
        for &va in vas.iter().skip(round * 31).take(64) {
            let c = p.access(&mut m, core, pd, va, Perm::READ).unwrap();
            if !c.is_zero() {
                total += c.as_ns_f64();
                count += 1;
            }
        }
    }
    total / count.max(1) as f64
}

/// Total PrivLib VMA-management time for a fixed mmap/munmap/transfer mix.
fn vma_mgmt_time(choice: TableChoice) -> f64 {
    let mut m = Machine::new(MachineConfig::isca25());
    let mut p = os::boot(&mut m, choice).expect("boot");
    let core = CoreId(1);
    let (pd, _) = p.cget(&mut m, core).unwrap();
    let (pd2, _) = p.cget(&mut m, core).unwrap();
    let before = p.stats().vma_management_time();
    let mut live = Vec::new();
    for i in 0..2000u64 {
        let (va, _) = p
            .mmap(&mut m, core, 256 + (i % 7) * 512, Perm::RW, pd)
            .unwrap();
        p.pcopy(&mut m, core, va, pd, pd2, Perm::READ).unwrap();
        live.push(va);
        if live.len() > 40 {
            let va = live.remove((i % 37) as usize % live.len());
            p.munmap(&mut m, core, va, pd).unwrap();
        }
    }
    for va in live {
        p.munmap(&mut m, core, va, pd).unwrap();
    }
    (p.stats().vma_management_time() - before).as_us_f64()
}

pub fn main() {
    let n = requests_per_point();
    let w = Workload::build(WorkloadKind::Hotel);
    let slo = measure_slo(&w, 0.05e6, (n / 4).max(500)).expect("probe produced latencies");

    header(&format!(
        "Figure 13: Hotel — p99 latency (us) vs load (MRPS); SLO = {:.1} us",
        slo.as_us_f64()
    ));
    let loads = [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
    let rates = loads.map(|mrps| mrps * 1e6);
    let sweep =
        |sys| throughput_under_slo(sys, &w, &rates, slo, n).expect("sweep produced latencies");
    let (jord, best_jord) = sweep(SystemVariant::Jord);
    let (bt, best_bt) = sweep(SystemVariant::JordBt);
    row(&["MRPS".into(), "Jord".into(), "Jord_BT".into()]);
    for (i, &mrps) in loads.iter().enumerate() {
        row(&[
            format!("{mrps:.2}"),
            format!("{:.1}", jord[i].p99_us),
            format!("{:.1}", bt[i].p99_us),
        ]);
    }
    let (best_jord, best_bt) = (best_jord / 1e6, best_bt / 1e6);
    println!();
    println!(
        "check: throughput under SLO — Jord {best_jord:.1} MRPS, Jord_BT {best_bt:.1} MRPS \
         (ratio {:.2}; paper ~0.6)",
        best_bt / best_jord
    );

    // §6.2's two latency decompositions.
    let plain_walk = walk_penalty(TableChoice::PlainList);
    let btree_walk = walk_penalty(TableChoice::BTree);
    println!(
        "check: VLB miss penalty — plain list {plain_walk:.1} ns vs B-tree {btree_walk:.1} ns \
         (paper: 2 ns vs ~20 ns)"
    );
    let plain_mgmt = vma_mgmt_time(TableChoice::PlainList);
    let btree_mgmt = vma_mgmt_time(TableChoice::BTree);
    println!(
        "check: PrivLib VMA-management time for the same op mix — plain {plain_mgmt:.1} us vs \
         B-tree {btree_mgmt:.1} us (+{:.0}%; paper +167%)",
        100.0 * (btree_mgmt - plain_mgmt) / plain_mgmt
    );

    // Mean service-time growth under matched moderate load.
    let mk = |variant: SystemVariant| {
        let cfg = RuntimeConfig::variant_on(variant, MachineConfig::isca25());
        let mut s = WorkerServer::new(cfg, w.registry.clone()).unwrap();
        let mut gen = jord_workloads::LoadGen::new(&w, 42).unwrap();
        for (t, f, b) in gen.arrivals(3.0e6, n) {
            s.push_request(t, f, b);
        }
        s.set_warmup((n / 10) as u64);
        s.run().service.mean().unwrap().as_us_f64()
    };
    let svc_plain = mk(SystemVariant::Jord);
    let svc_bt = mk(SystemVariant::JordBt);
    println!(
        "check: mean function service time at 3 MRPS — Jord {svc_plain:.2} us vs Jord_BT \
         {svc_bt:.2} us (+{:.0}%; paper +43%)",
        100.0 * (svc_bt - svc_plain) / svc_plain
    );
}

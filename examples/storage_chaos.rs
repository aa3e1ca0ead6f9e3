//! Storage chaos campaign (see README "Storage chaos").
//!
//! Sweeps every durable-storage fault kind — torn tail, bit flip, dropped
//! write, duplicated frame, truncated checkpoint — across crash instants
//! and both crash semantics on a single worker, then kills a cluster
//! worker once per fault kind with the fault armed on its journal. The
//! campaign asserts the recovery ladder lands on each fault's allowed
//! rung, the request ledger balances at every point, at-least-once
//! recovery never terminally fails a request, the fault-free control
//! recovers by exact replay to crash-free parity, and the cluster
//! re-derives every request even past an unrecoverable journal. This is
//! the durability gate CI runs, and it emits `BENCH_durability.json`.
//!
//! ```sh
//! cargo run --release --example storage_chaos
//! ```

use jord_workloads::crash::CHECKPOINT_EVERY;
use jord_workloads::{StorageChaosCampaign, Workload, WorkloadKind};

fn main() {
    let hotel = Workload::build(WorkloadKind::Hotel);
    let campaign = StorageChaosCampaign::new(4.0e6, 1_500).seed(42);

    println!(
        "Storage chaos: {} x {} requests at {:.1} MRPS, {} fault kinds x \
         {} instants x {} semantics, checkpoint every {} records, seed {}",
        hotel.name(),
        campaign.requests,
        campaign.rate_rps / 1e6,
        campaign.faults.len(),
        campaign.instants.len(),
        campaign.semantics.len(),
        CHECKPOINT_EVERY,
        campaign.seed,
    );
    println!();

    let report = campaign.run(&hotel);
    println!("{}", report.table());

    let fault_points = &report.points[2..];
    let demoted: u64 = fault_points.iter().map(|p| p.demoted).sum();
    let quarantined: u64 = fault_points.iter().map(|p| p.frames_quarantined).sum();
    let seal_failures: u64 = fault_points.iter().map(|p| p.seal_failures).sum();
    let truncated: u64 = fault_points.iter().map(|p| p.truncated_bytes).sum();
    let dups: u64 = fault_points.iter().map(|p| p.duplicates_dropped).sum();
    println!(
        "worker sweep: {} fault points, all ledgers balanced; control rung {}; \
         {} frames quarantined, {} seal failures, {} bytes truncated, \
         {} duplicate frames dropped, {} live entries demoted",
        fault_points.len(),
        report.control().rung,
        quarantined,
        seal_failures,
        truncated,
        dups,
        demoted,
    );

    let cluster = campaign.run_cluster(&hotel);
    for p in &cluster {
        println!(
            "cluster kill + {:<21} rung {:<20} {} offered, {} completed, lost {}",
            p.fault, p.rung, p.offered, p.completed, p.lost,
        );
    }
    println!(
        "cluster sweep: every fault kind re-derived to completed == offered \
         with lost == 0"
    );

    // Determinism probe: the same seeded campaign must reproduce every
    // point, trace hashes included.
    let rerun = campaign.run(&hotel);
    assert_eq!(report, rerun, "seeded campaign must be bit-reproducible");
    println!(
        "replay: second run reproduced all {} points",
        report.points.len()
    );

    let bench = format!(
        "{{\n  \"fault_points\": {},\n  \"cluster_points\": {},\n  \
         \"frames_quarantined\": {},\n  \"seal_failures\": {},\n  \
         \"truncated_bytes\": {},\n  \"duplicates_dropped\": {},\n  \
         \"demoted\": {},\n  \"control_completed\": {},\n  \
         \"baseline_completed\": {},\n  \"control_trace_hash\": {}\n}}\n",
        fault_points.len(),
        cluster.len(),
        quarantined,
        seal_failures,
        truncated,
        dups,
        demoted,
        report.control().completed,
        report.baseline().completed,
        report.control().trace_hash,
    );
    std::fs::write("BENCH_durability.json", &bench).expect("write BENCH_durability.json");
    println!("wrote BENCH_durability.json");
}

//! Kill one of four Jord workers mid-run and watch the cluster route
//! around it.
//!
//! Runs a seeded failover campaign over the Hotel workload on a
//! four-worker cluster: a kill-free baseline, the kill of worker 1 under
//! both crash semantics, a heartbeat blackout (the failure detector's
//! false-positive path), and the kill again with hedged dispatch on. The
//! campaign runner asserts the cluster invariants at every point — a
//! clean `ClusterDispatcher::audit` (nothing unaccounted, no worker
//! leaks), at-least-once parity with the kill-free run, detection
//! latency within the phi-accrual confirm bound, and blackout
//! readmission without a single failed request — so just finishing is
//! already the proof; the table shows what each incident cost.
//!
//! ```sh
//! cargo run --release -p jord-workloads --example cluster_failover
//! ```

use jord_workloads::{FailoverCampaign, Workload, WorkloadKind};

fn main() {
    let workload = Workload::build(WorkloadKind::Hotel);
    // A burst far beyond four workers' instantaneous capacity: queues
    // stay deep at the kill instant, so failover provably moves stranded
    // work and misrouted requests sit long enough to trip the hedge.
    let campaign = FailoverCampaign::new(4.0e6, 2_000).seed(42);

    println!(
        "Failover campaign: {} x {} requests at {:.1} MRPS over {} workers, \
         kill worker {} at t={:.0} us",
        workload.name(),
        campaign.requests,
        campaign.rate_rps / 1e6,
        FailoverCampaign::WORKERS,
        FailoverCampaign::VICTIM,
        campaign.kill_at_us(),
    );
    println!();

    let report = campaign.run(&workload);
    print!("{}", report.table());
    println!();

    let kill = &report.points[1];
    let hedged = report.points.last().unwrap();
    println!(
        "detection: kill -> eviction in {:.3} us (configured bound {:.3} us)",
        kill.detection_us, kill.confirm_bound_us
    );
    println!(
        "hedging the kill: worst latency {:.3} us -> {:.3} us, p99 {:.3} -> {:.3} \
         ({} hedges, {} won the race)",
        kill.max_us, hedged.max_us, kill.p99_us, hedged.p99_us, hedged.hedges, hedged.hedge_wins
    );
}

//! Overload survival: a ×4 flash crowd against the SLO-driven
//! ClusterAutoscaler and its brownout ladder (see README "Autoscaling").
//!
//! Runs the seeded autoscale campaign over the Hotel workload: a
//! pinned-fleet crowd baseline, the same crowd with the autoscaler
//! engaged, a kill racing a scale-down drain, and diurnal/bursty
//! traffic. The campaign asserts the overload-survival contract at every
//! point — a clean `ClusterDispatcher::audit` (both ledgers balanced,
//! zero lost, no worker leaks), the elastic fleet shedding no more than
//! the pinned one, at most one scale
//! reversal per cooldown window, and the mid-drain crash convicted by
//! the failure detector. This program additionally replays the
//! autoscaled crowd run and asserts the decision sequence and fleet
//! trace hash are bit-identical — the determinism CI gates on.
//!
//! ```sh
//! cargo run --release -p jord-bench -- autoscale
//! ```

use jord_workloads::{AutoscaleCampaign, Workload, WorkloadKind};

pub fn main() {
    let hotel = Workload::build(WorkloadKind::Hotel);
    let campaign = AutoscaleCampaign::new(2.0e6, 4_000).seed(42);

    println!(
        "Autoscale campaign: {} x {} requests at {:.1} MRPS base, \
         {} initial workers (autoscaler {}..{}), seed {}",
        hotel.name(),
        campaign.requests,
        campaign.rate_rps / 1e6,
        campaign.workers,
        campaign.autoscale.min_workers,
        campaign.autoscale.max_workers,
        campaign.seed,
    );
    println!();

    let report = campaign.run(&hotel);
    println!("{}", report.table());

    // Determinism gate: the same seed must replay the same decisions.
    let (rep_a, win_a) = campaign.run_cluster(&hotel, &campaign.crowd, true, |_, _| {});
    let (rep_b, win_b) = campaign.run_cluster(&hotel, &campaign.crowd, true, |_, _| {});
    assert!(!win_a.is_empty(), "autoscaled runs must record windows");
    assert_eq!(win_a, win_b, "decision sequences must replay exactly");
    assert_eq!(
        rep_a.trace_hash, rep_b.trace_hash,
        "fleet traces must match"
    );
    assert_eq!(
        rep_a.autoscale, rep_b.autoscale,
        "AutoscaleStats must be deterministic"
    );

    let pinned = report.pinned();
    let scaled = &report.points[1];
    println!(
        "flash crowd x4: pinned fleet shed {} of {} ({:.1}% goodput); \
         elastic fleet shed {} at peak {} workers ({:.3} worker-s, \
         {:.0}% SLO attainment)",
        pinned.shed,
        pinned.offered,
        pinned.goodput * 100.0,
        scaled.shed,
        scaled.peak_workers,
        scaled.worker_seconds,
        scaled.slo_attainment * 100.0,
    );
    println!("ledger balanced, decisions deterministic: OK");
}

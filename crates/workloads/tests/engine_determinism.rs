//! Engine-level golden determinism: a full autoscale campaign run —
//! cluster dispatch, hedged routing, autoscaler windows, failover ledger —
//! must be bit-identical to the schedule recorded under the pre-refactor
//! binary-heap event queue.
//!
//! The constants below were captured *before* the slab-backed calendar
//! queue replaced the heap in `jord-sim`. They pin three independent
//! observables of the same run: the whole-stream FNV-1a lifecycle trace
//! hash, an FNV-1a digest over the debug rendering of every autoscaler
//! [`WindowRecord`], and the aggregate counters. A queue implementation is
//! only admissible if all three collide exactly — "same results, faster"
//! is the contract, and this test is the contract's teeth.

use jord_core::durability::fnv1a;
use jord_core::WindowRecord;
use jord_workloads::{AutoscaleCampaign, Workload, WorkloadKind};

/// Recorded under the BinaryHeap queue (commit lineage: PR 6 autoscaler,
/// pre-calendar-queue engine).
const PINNED_TRACE_HASH: u64 = 0x6dc108d71b0890cb;
const PINNED_WINDOW_DIGEST: u64 = 0x80300dcf4f0511fa;
const PINNED_WINDOWS: usize = 22;
const PINNED_COMPLETED: u64 = 1_500;

/// FNV-1a over the debug rendering of every autoscaler window.
fn window_digest(windows: &[WindowRecord]) -> u64 {
    let rendered: String = windows.iter().map(|w| format!("{w:?}")).collect();
    fnv1a(rendered.as_bytes())
}

#[test]
fn autoscale_campaign_schedule_is_pinned_across_queue_rebuilds() {
    let hotel = Workload::build(WorkloadKind::Hotel);
    let campaign = AutoscaleCampaign::new(1.5e6, 1_500).seed(42);
    let (rep, windows) = campaign.run_cluster(&hotel, &campaign.crowd, true, |_, _| {});

    assert_eq!(rep.offered, 1_500);
    assert_eq!(rep.completed, PINNED_COMPLETED);
    assert_eq!(windows.len(), PINNED_WINDOWS);
    assert_eq!(
        rep.trace_hash, PINNED_TRACE_HASH,
        "lifecycle trace hash drifted: the cluster event schedule changed"
    );
    let digest = window_digest(&windows);
    assert_eq!(
        digest, PINNED_WINDOW_DIGEST,
        "autoscaler window digest drifted: scaling decisions changed"
    );
}

#[test]
fn autoscale_campaign_is_reproducible_within_a_process() {
    // Run-twice bit-identity: the trace hash is a function of the seed
    // alone, not of allocator state or queue geometry warm-up.
    let hotel = Workload::build(WorkloadKind::Hotel);
    let campaign = AutoscaleCampaign::new(1.5e6, 800).seed(7);
    let (a, wa) = campaign.run_cluster(&hotel, &campaign.crowd, true, |_, _| {});
    let (b, wb) = campaign.run_cluster(&hotel, &campaign.crowd, true, |_, _| {});
    assert_eq!(a.trace_hash, b.trace_hash);
    assert_eq!(a.completed, b.completed);
    assert_eq!(wa.len(), wb.len());
    let da = window_digest(&wa);
    let db = window_digest(&wb);
    assert_eq!(da, db, "two identically-seeded runs must be bit-identical");
}

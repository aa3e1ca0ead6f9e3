//! Crash a Jord worker mid-run and watch the write-ahead journal put it
//! back together.
//!
//! Runs a seeded crash campaign over the Hotel workload: a journaled
//! crash-free baseline, then one executor, one orchestrator, and one
//! whole-worker crash under both in-flight semantics. The campaign runner
//! asserts the two recovery invariants at every point — the drained
//! worker passes `WorkerServer::audit` (nothing offered is ever lost,
//! nothing leaks, the journal replay agrees with its witnesses), and
//! at-least-once recovery completes exactly what the crash-free run
//! completed — so just finishing is already the proof; the table shows
//! what each crash cost.
//!
//! ```sh
//! cargo run --release -p jord-workloads --example crash_recovery
//! ```

use jord_workloads::{CrashCampaign, Workload, WorkloadKind};

fn main() {
    let workload = Workload::build(WorkloadKind::Hotel);
    // A burst far beyond instantaneous capacity: queues stay deep at the
    // crash instant, so every scope provably interrupts live work.
    let campaign = CrashCampaign::new(4.0e6, 2_000).seed(42);

    println!(
        "Crash campaign: {} x {} requests at {:.1} MRPS, crash at t={:.0} us",
        workload.name(),
        campaign.requests,
        campaign.rate_rps / 1e6,
        campaign.crash_at_us(),
    );
    println!();

    let report = campaign.run(&workload);
    print!("{}", report.table());
    println!();

    let base = report.baseline();
    println!(
        "baseline: {} completed, {} journal records, {} checkpoints",
        base.completed, base.journal_records, base.checkpoints
    );
    println!(
        "at-least-once parity with the crash-free run: {}",
        if report.at_least_once_parity() {
            "yes"
        } else {
            "NO"
        }
    );
}

//! A week of diurnal traffic against the memory governor (see README
//! "Memory governor").
//!
//! Runs the seeded soak campaign over the Hotel workload: seven diurnal
//! periods with warm-pool idle eviction, the memory-pressure ladder, and
//! VMA-table compaction engaged. The campaign asserts the long-haul
//! residency contract — both ledgers balanced (`offered == completed +
//! failed + shed` and `mapped == resident + reclaimed`), fleet residency
//! bounded by `peak_workers x budget` in every window, no day-over-day
//! residency growth, stable tails, bit-identical seeded replay, and a
//! crash landing mid-reclaim replaying to identical VMA/PD tables. This
//! is the determinism + conservation gate CI runs, and it emits
//! `BENCH_memory.json` with the headline residency numbers.
//!
//! ```sh
//! cargo run --release --example soak
//! ```

use jord_workloads::autoscale::{fleet_autoscaler, INITIAL_WORKERS};
use jord_workloads::{SoakCampaign, Workload, WorkloadKind};

fn main() {
    let hotel = Workload::build(WorkloadKind::Hotel);
    let campaign = SoakCampaign::new(2.0e6, 14_000).seed(42);
    let autoscale = fleet_autoscaler();

    println!(
        "Soak campaign: {} x {} requests at {:.1} MRPS base, {} diurnal days, \
         {} initial workers (autoscaler {}..{}), budget {} MiB/worker, seed {}",
        hotel.name(),
        campaign.requests,
        campaign.rate_rps / 1e6,
        SoakCampaign::DAYS,
        INITIAL_WORKERS,
        autoscale.min_workers,
        autoscale.max_workers,
        campaign.memory.resident_budget_bytes >> 20,
        campaign.seed,
    );
    println!();

    let report = campaign.run(&hotel);
    println!("{}", report.table());
    println!(
        "week totals: {} offered, {} completed, {} shed; peak fleet resident {} bytes \
         across {} peak workers; p99 {:.3} µs",
        report.offered,
        report.completed,
        report.shed,
        report.peak_resident_bytes,
        report.peak_workers,
        report.p99_us,
    );
    let m = &report.memory;
    println!(
        "memory ledger: mapped {} == resident {} + reclaimed {}; \
         {} pool evictions ({} bytes), {} compactions ({} slots), \
         {} pressure transitions, journal {} B + checkpoints {} B",
        m.mapped_bytes,
        m.resident_bytes,
        m.reclaimed_bytes,
        m.pool_evictions,
        m.evicted_bytes,
        m.compactions,
        m.compacted_slots,
        m.pressure_transitions,
        m.journal_bytes,
        m.checkpoint_bytes,
    );

    // Crash mid-reclaim: the replay-identity probe CI also gates on.
    let crash = campaign.crash_replay(&hotel);
    println!(
        "crash-mid-reclaim: {} crash(es), ledger re-balanced, traces and \
         tables bit-identical across replay",
        crash.crash.crashes,
    );

    let bench = format!(
        "{{\n  \"peak_resident_bytes\": {},\n  \"reclaimed_bytes\": {},\n  \
         \"pool_evictions\": {},\n  \"evicted_bytes\": {},\n  \
         \"compactions\": {},\n  \"pressure_transitions\": {},\n  \
         \"peak_workers\": {},\n  \"p99_us\": {:.3},\n  \"trace_hash\": {}\n}}\n",
        report.peak_resident_bytes,
        m.reclaimed_bytes,
        m.pool_evictions,
        m.evicted_bytes,
        m.compactions,
        m.pressure_transitions,
        report.peak_workers,
        report.p99_us,
        report.trace_hash,
    );
    std::fs::write("BENCH_memory.json", &bench).expect("write BENCH_memory.json");
    println!("wrote BENCH_memory.json");
}

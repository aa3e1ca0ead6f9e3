//! Engine benchmark + determinism gate (see README "Engine bench").
//!
//! Measures the slab-backed `jord_sim::EventQueue` against the recorded
//! pre-refactor binary-heap baseline on three synthetic microbenches
//! (hold model at 1 Ki, 16 Ki and 1 Mi pending events, transient burst,
//! cancel storm), then times two end-to-end campaigns (autoscale and soak)
//! for wall-clock simulated throughput.
//!
//! This is a CI gate, not just a report. It exits nonzero unless:
//!
//! * every heap/queue pair pops a bit-identical checksum,
//! * the cancel storm runs ≥ 10× the heap's events/sec: tombstoning an
//!   `EventId` against the heap's scan-and-rebuild `remove_first`, the
//!   one thing the queue claims over the heap (the hold rows are
//!   printed, not gated),
//! * the autoscale campaign reproduces the golden trace hash and window
//!   digest recorded under the old heap queue, twice in a row —
//!   sequentially AND on the conservative parallel engine at 4 threads,
//! * an 8-worker cluster-scale campaign pops the identical trace hash
//!   at every thread count in {1, 2, 4, 8}, and — on machines with ≥ 4
//!   cores — runs ≥ 2× faster at 4 threads than sequentially (the gate
//!   self-skips with an annotation on smaller runners; a 1-core box
//!   cannot demonstrate wall-clock parallelism).
//!
//! Emits `BENCH_engine.json` with every number printed.
//!
//! ```sh
//! cargo run --release --example engine_bench
//! ```

use std::time::Instant;

use jord_bench::engine::{cancel_storm, hold_model, transient, MicroResult};
use jord_core::durability::fnv1a;
use jord_core::{
    ClusterConfig, ClusterDispatcher, EngineConfig, RuntimeConfig, SystemVariant, WindowRecord,
};
use jord_hw::MachineConfig;
use jord_workloads::{AutoscaleCampaign, LoadGen, SoakCampaign, Workload, WorkloadKind};

/// Golden constants recorded under the pre-refactor heap queue.
const PINNED_TRACE_HASH: u64 = 0x6dc108d71b0890cb;
const PINNED_WINDOW_DIGEST: u64 = 0x80300dcf4f0511fa;
/// Acceptance bar: the queue ≥ 10× the heap on the cancel storm.
const GATE_CANCEL_SPEEDUP: f64 = 10.0;
/// Acceptance bar: 4 threads ≥ 2× sequential on the cluster-scale
/// campaign, enforced only where the hardware can express it.
const GATE_PARALLEL_SPEEDUP: f64 = 2.0;
/// Minimum cores for the parallel-speedup gate to be meaningful.
const GATE_PARALLEL_MIN_CORES: usize = 4;

/// FNV-1a over the debug rendering of every autoscaler window.
fn window_digest(windows: &[WindowRecord]) -> u64 {
    let rendered: String = windows.iter().map(|w| format!("{w:?}")).collect();
    fnv1a(rendered.as_bytes())
}

fn print_micro(label: &str, r: &MicroResult) {
    println!(
        "{label:>12}: heap {:>8.2} Mev/s  queue {:>8.2} Mev/s  speedup {:>6.2}x  checksums {}",
        r.heap_eps / 1e6,
        r.queue_eps / 1e6,
        r.speedup(),
        if r.checksums_match {
            "match"
        } else {
            "DIVERGE"
        },
    );
}

/// One cluster-scale run: 8 workers, a burst far beyond their
/// instantaneous capacity (deep queues keep every shard busy in every
/// window), on the sequential engine (`threads == None`) or the
/// conservative parallel engine.
fn cluster_scale(hotel: &Workload, threads: Option<usize>) -> (f64, u64, u64) {
    const WORKERS: usize = 8;
    const SEED: u64 = 42;
    const RATE_RPS: f64 = 8.0e6;
    const REQUESTS: usize = 12_000;
    let template =
        RuntimeConfig::variant_on(SystemVariant::Jord, MachineConfig::isca25()).with_seed(SEED);
    let mut cfg = ClusterConfig::new(WORKERS, SEED, template);
    cfg.engine = threads.map(EngineConfig::threads);
    let mut cluster =
        ClusterDispatcher::new(cfg, hotel.registry.clone()).expect("valid cluster config");
    let mut gen = LoadGen::new(hotel, SEED).expect("workload mix is sampleable");
    for (t, f, b) in gen.arrivals(RATE_RPS, REQUESTS) {
        cluster.push_request(t, f, b);
    }
    let start = Instant::now();
    let rep = cluster.run();
    (start.elapsed().as_secs_f64(), rep.trace_hash, rep.completed)
}

fn main() {
    println!("== engine microbenches (events/sec, heap baseline vs slab-backed queue) ==");
    // Hold rows at the pending-set sizes perfbench (≤ 2,000) and the soak
    // (14,000) reach, and one far beyond any workload.
    let micro = [
        ("hold_1k", hold_model(1_024, 2_000_000, 42)),
        ("hold_16k", hold_model(16_384, 2_000_000, 42)),
        ("hold_1m", hold_model(1_048_576, 2_000_000, 42)),
        ("transient_1m", transient(1_000_000, 42)),
        ("cancel_4k", cancel_storm(4_000, 42)),
    ];
    for (label, r) in &micro {
        print_micro(label, r);
        assert!(
            r.checksums_match,
            "{label}: heap and queue popped different schedules"
        );
    }
    let storm = &micro[4].1;
    assert!(
        storm.speedup() >= GATE_CANCEL_SPEEDUP,
        "cancel-storm speedup {:.2}x is below the {GATE_CANCEL_SPEEDUP:.1}x acceptance bar",
        storm.speedup()
    );

    println!();
    println!("== end-to-end campaigns (wall-clock, release profile) ==");
    let hotel = Workload::build(WorkloadKind::Hotel);
    let campaign = AutoscaleCampaign::new(1.5e6, 1_500).seed(42);
    let mut auto_hashes = Vec::new();
    let mut auto_wall = 0.0;
    for _ in 0..2 {
        let start = Instant::now();
        let (rep, windows) = campaign.run_cluster(&hotel, &campaign.crowd, true, |_, _| {});
        auto_wall = start.elapsed().as_secs_f64();
        let digest = window_digest(&windows);
        auto_hashes.push((rep.trace_hash, digest, rep.completed));
    }
    assert_eq!(auto_hashes[0], auto_hashes[1], "autoscale replay diverged");
    let (trace, digest, completed) = auto_hashes[0];
    assert_eq!(trace, PINNED_TRACE_HASH, "autoscale trace hash drifted");
    assert_eq!(
        digest, PINNED_WINDOW_DIGEST,
        "autoscale window digest drifted"
    );
    let auto_krps = completed as f64 / auto_wall / 1e3;
    println!(
        "autoscale: {completed} requests in {auto_wall:.2}s wall ({auto_krps:.1} k simulated req/s), \
         trace 0x{trace:016x} bit-identical across replay and pinned to the heap-era recording"
    );

    // The same campaign on the conservative parallel engine must
    // reproduce the same heap-era golden constants bit-for-bit.
    let par_campaign = AutoscaleCampaign::new(1.5e6, 1_500)
        .seed(42)
        .engine(EngineConfig::threads(4));
    let (par_rep, par_windows) =
        par_campaign.run_cluster(&hotel, &par_campaign.crowd, true, |_, _| {});
    let par_digest = window_digest(&par_windows);
    assert_eq!(
        par_rep.trace_hash, PINNED_TRACE_HASH,
        "parallel engine (4 threads) diverged from the golden trace hash"
    );
    assert_eq!(
        par_digest, PINNED_WINDOW_DIGEST,
        "parallel engine (4 threads) diverged from the golden window digest"
    );
    println!(
        "autoscale @ 4 threads: trace 0x{:016x} — reproduces the sequential golden constants",
        par_rep.trace_hash
    );

    println!();
    println!("== cluster-scale campaign (8 workers, sequential vs parallel engine) ==");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (seq_wall, seq_trace, seq_completed) = cluster_scale(&hotel, None);
    println!(
        "sequential: {seq_completed} requests in {seq_wall:.2}s wall, trace 0x{seq_trace:016x}"
    );
    let mut scale_rows = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let (wall, trace_t, completed_t) = cluster_scale(&hotel, Some(threads));
        assert_eq!(
            trace_t, seq_trace,
            "{threads}-thread cluster-scale run diverged from the sequential trace"
        );
        assert_eq!(completed_t, seq_completed);
        let speedup = seq_wall / wall;
        println!(
            "{threads:>2} threads: {completed_t} requests in {wall:.2}s wall \
             (speedup {speedup:>5.2}x), trace bit-identical"
        );
        scale_rows.push((threads, wall, speedup));
    }
    let speedup_4t = scale_rows
        .iter()
        .find(|&&(t, _, _)| t == 4)
        .map(|&(_, _, s)| s)
        .expect("4-thread row");
    let parallel_gate = if cores >= GATE_PARALLEL_MIN_CORES {
        assert!(
            speedup_4t >= GATE_PARALLEL_SPEEDUP,
            "4-thread cluster-scale speedup {speedup_4t:.2}x is below the \
             {GATE_PARALLEL_SPEEDUP:.1}x acceptance bar on a {cores}-core machine"
        );
        format!("\"enforced ({cores} cores)\"")
    } else {
        // Bit-identity was still gated above; only the wall-clock claim
        // needs real cores.
        println!(
            "parallel speedup gate SKIPPED: {cores} core(s) available, \
             need >= {GATE_PARALLEL_MIN_CORES} to measure wall-clock parallelism"
        );
        format!("\"skipped ({cores} core(s): cannot express parallelism)\"")
    };

    let soak = SoakCampaign::new(2.0e6, 14_000).seed(42);
    let start = Instant::now();
    let soak_rep = soak.run(&hotel);
    let soak_wall = start.elapsed().as_secs_f64();
    let soak_krps = soak_rep.completed as f64 / soak_wall / 1e3;
    println!(
        "soak: {} requests over {} diurnal days in {soak_wall:.2}s wall ({soak_krps:.1} k simulated req/s)",
        soak_rep.completed, SoakCampaign::DAYS,
    );

    let json = format!(
        "{{\n  \"cancel_gate_speedup\": {GATE_CANCEL_SPEEDUP},\n  \"microbench\": [\n{}\n  ],\n  \
         \"autoscale\": {{\n    \"requests\": {completed},\n    \"wall_s\": {auto_wall:.3},\n    \
         \"k_req_per_s\": {auto_krps:.1},\n    \"trace_hash\": {trace},\n    \
         \"window_digest\": {digest},\n    \"parallel_4t_trace_hash\": {}\n  }},\n  \
         \"cluster_scale\": {{\n    \"workers\": 8,\n    \"requests\": {seq_completed},\n    \
         \"cores\": {cores},\n    \"sequential_wall_s\": {seq_wall:.3},\n    \
         \"speedup_gate\": {parallel_gate},\n    \"threads\": [\n{}\n    ]\n  }},\n  \
         \"soak\": {{\n    \"requests\": {},\n    \
         \"wall_s\": {soak_wall:.3},\n    \"k_req_per_s\": {soak_krps:.1}\n  }}\n}}\n",
        micro
            .iter()
            .map(|(label, r)| format!(
                "    {{ \"name\": \"{label}\", \"events\": {}, \"heap_eps\": {:.0}, \
                 \"queue_eps\": {:.0}, \"speedup\": {:.3} }}",
                r.events,
                r.heap_eps,
                r.queue_eps,
                r.speedup(),
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
        par_rep.trace_hash,
        scale_rows
            .iter()
            .map(|(t, wall, speedup)| format!(
                "      {{ \"threads\": {t}, \"wall_s\": {wall:.3}, \"speedup\": {speedup:.3} }}"
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
        soak_rep.completed,
    );
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    println!();
    println!("wrote BENCH_engine.json");
}
